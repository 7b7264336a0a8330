"""Lock-order rule: the global lock-acquisition graph must be acyclic.

Every ``(held, acquired)`` pair the summary pass witnesses — a nested
``with`` in one function, or a call made while holding a lock into a
function that (transitively) acquires another — becomes an edge in one
project-wide directed graph over canonical lock identities
(``PlacementService._fleet_lock``, ``GatherTableCache._lock`` …).  A
cycle in that graph is a potential deadlock: two threads taking the
locks in opposite orders can each end up waiting on the other.  A
*self*-edge on a non-reentrant lock is the single-thread version —
re-acquiring a plain ``threading.Lock`` (or the writer-preferring
``ReadWriteLock``, which is not reentrant even read-under-read once a
writer queues between) while already holding it blocks forever.
``RLock`` self-edges are fine and skipped.

Findings name **both** acquisition sites of the offending edge pair, so
a report reads as the interleaving that deadlocks.  The same edge set is
rendered as a Graphviz DOT artifact (:func:`lock_graph_dot`) which CI
uploads per run — the reviewed picture of the tree's lock hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import Finding, Rule, register_rule
from repro.analysis.callgraph import ProjectIndex
from repro.analysis.summaries import LockAcquisition, table_for

__all__ = ["LockOrderRule", "collect_lock_edges", "lock_graph_dot"]


@dataclass(frozen=True)
class LockEdge:
    """One witnessed ordering: ``acquired`` taken while ``holder`` held."""

    holder: LockAcquisition
    acquired: LockAcquisition
    #: Qualname of the function the acquisition happens in (for labels).
    via: str

    def sort_key(self) -> tuple[str, int, str, int, str]:
        return (
            self.holder.path,
            self.holder.line,
            self.acquired.path,
            self.acquired.line,
            self.via,
        )


def collect_lock_edges(project: ProjectIndex) -> dict[tuple[str, str], LockEdge]:
    """All lock-order edges of a project, one witness per (src, dst) pair.

    The summaries are walked in an order that depends on the hash seed, so
    each pair keeps its *smallest* witness by (holder file, line, acquired
    file, line, via): findings and the DOT artifact then name the same
    sites on every run of an unchanged tree.
    """
    table = table_for(project)
    edges: dict[tuple[str, str], LockEdge] = {}

    def witness(holder: LockAcquisition, acquired: LockAcquisition, via: str) -> None:
        key = (holder.lock, acquired.lock)
        edge = LockEdge(holder=holder, acquired=acquired, via=via)
        kept = edges.get(key)
        if kept is None or edge.sort_key() < kept.sort_key():
            edges[key] = edge

    for summary in table.summaries.values():
        qual = summary.func.qualname
        for holder, acquired in summary.order_edges:
            witness(holder, acquired, qual)
        for site in summary.calls:
            if not site.held:
                continue
            for callee in site.resolved:
                for acquired in table.transitive_acquisitions(callee):
                    for holder in site.held:
                        witness(holder, acquired, callee.qualname)
    return edges


def _cycles(edges: dict[tuple[str, str], LockEdge]) -> list[list[str]]:
    """Minimal cycles of the lock graph: self-loops plus one cycle per SCC."""
    graph: dict[str, set[str]] = {}
    for src, dst in edges:
        graph.setdefault(src, set()).add(dst)
        graph.setdefault(dst, set())
    cycles: list[list[str]] = []
    for node in sorted(graph):
        if node in graph[node]:
            cycles.append([node, node])

    # Tarjan SCCs (iterative); every SCC with >1 node contains a cycle.
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0
    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, list[str], int]] = [(root, sorted(graph[root]), 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs, pos = work.pop()
            advanced = False
            while pos < len(succs):
                succ = succs[pos]
                pos += 1
                if succ not in index:
                    work.append((node, succs, pos))
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, sorted(graph[succ]), 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    # One concrete cycle per non-trivial SCC, found by DFS inside it.
    for component in sccs:
        members = set(component)
        start = component[0]
        path = [start]
        seen = {start}

        def dfs(node: str) -> list[str] | None:
            for succ in sorted(graph[node]):
                if succ not in members:
                    continue
                if succ == start:
                    return [*path, start]
                if succ in seen:
                    continue
                seen.add(succ)
                path.append(succ)
                found = dfs(succ)
                if found is not None:
                    return found
                path.pop()
            return None

        cycle = dfs(start)
        if cycle is not None:
            cycles.append(cycle)
    return cycles


def _snippet(project: ProjectIndex, path: str, line: int) -> str:
    for module in project.modules.values():
        if module.path == path:
            if 1 <= line <= len(module.lines):
                return module.lines[line - 1].strip()
            return ""
    return ""


@register_rule
class LockOrderRule(Rule):
    """Report cycles in the global lock-acquisition graph as deadlocks."""

    rule_id = "lock-order"
    description = (
        "the project-wide lock-acquisition graph must be acyclic; a cycle "
        "(or re-acquiring a non-reentrant lock) is a potential deadlock"
    )

    def check_interprocedural(self, project: ProjectIndex) -> list[Finding]:
        edges = collect_lock_edges(project)
        findings: list[Finding] = []
        for cycle in _cycles(edges):
            hops = list(zip(cycle, cycle[1:]))
            if len(hops) == 1:  # self-loop: reacquisition
                src, dst = hops[0]
                edge = edges[(src, dst)]
                if edge.acquired.reentrant:
                    continue
                anchor = edge.acquired
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=anchor.path,
                        line=anchor.line,
                        message=(
                            f"non-reentrant lock {dst} re-acquired at "
                            f"{anchor.path}:{anchor.line} (via {edge.via}) while "
                            f"already held from {edge.holder.path}:"
                            f"{edge.holder.line} — self-deadlock"
                        ),
                        hint=(
                            "release before re-entering, or make the inner path "
                            "a _locked variant that assumes the lock is held"
                        ),
                        snippet=_snippet(project, anchor.path, anchor.line),
                    )
                )
                continue
            legs = [
                f"{dst} acquired at {edges[(src, dst)].acquired.path}:"
                f"{edges[(src, dst)].acquired.line} while holding {src} "
                f"(taken at {edges[(src, dst)].holder.path}:"
                f"{edges[(src, dst)].holder.line})"
                for src, dst in hops
            ]
            anchor = edges[hops[0]].acquired
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=anchor.path,
                    line=anchor.line,
                    message=(
                        "lock-order cycle (potential deadlock): "
                        + " -> ".join(cycle)
                        + "; "
                        + "; ".join(legs)
                    ),
                    hint=(
                        "pick one global acquisition order for these locks and "
                        "restructure the call paths to follow it"
                    ),
                    snippet=_snippet(project, anchor.path, anchor.line),
                )
            )
        return findings


def lock_graph_dot(project: ProjectIndex, root: "Path | None" = None) -> str:
    """The lock-acquisition graph as Graphviz DOT (the CI artifact)."""
    edges = collect_lock_edges(project)
    nodes = sorted({lock for pair in edges for lock in pair})
    lines = ["digraph lock_order {", "  rankdir=LR;"]
    for node in nodes:
        lines.append(f'  "{node}";')
    for (src, dst), edge in sorted(edges.items()):
        site = edge.acquired.path
        if root is not None:
            try:
                site = Path(site).resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                pass
        label = f"{site}:{edge.acquired.line}"
        lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
