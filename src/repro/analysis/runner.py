"""The lint runner: discover sources, run rules, diff against the baseline.

``soar-repro lint`` and ``python -m repro.analysis`` both land here.
The runner parses every target file **once** into a shared
:class:`~repro.analysis.core.SourceModule` pool, runs the per-module
rules over the pool, runs the project-wide rules (FFI contracts)
once, builds the
:class:`~repro.analysis.callgraph.ProjectIndex` from the *same* parsed
trees and runs the interprocedural rules (lock-order,
blocking-under-lock, atomicity) over it, then filters ``# lint:
allow(rule-id)`` pragmas against full statement-header spans and diffs
the survivors against the committed baseline
(:mod:`repro.analysis.baseline`).  ``--jobs N`` fans the per-module
phase out across worker processes (each worker parses and filters its
own files; the parent still parses each file exactly once for the
interprocedural phase).  ``--timing`` prints per-phase wall-clock;
``--format github|sarif`` switches the findings report to workflow
commands / SARIF 2.1.0; ``--lock-graph-dot PATH`` writes the global
lock-acquisition graph as a Graphviz artifact.

Exit codes: ``0`` — no findings outside the baseline; ``1`` — new
findings (always), or a stale baseline entry under ``--strict``; ``2`` —
a source file failed to parse.  CI runs ``--strict`` on both the
compiled and ``REPRO_NO_COMPILED=1`` legs.
"""

from __future__ import annotations

import argparse
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# Importing the rule modules populates the rule registry (self-registration).
import repro.analysis.rules_atomicity  # noqa: F401  (registration)
import repro.analysis.rules_blocking  # noqa: F401  (registration)
import repro.analysis.rules_determinism  # noqa: F401  (registration)
import repro.analysis.rules_excepts  # noqa: F401  (registration)
import repro.analysis.rules_ffi  # noqa: F401  (registration)
import repro.analysis.rules_layering  # noqa: F401  (registration)
import repro.analysis.rules_lockorder  # noqa: F401  (registration)
import repro.analysis.rules_locks  # noqa: F401  (registration)
from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    split_findings,
    write_baseline,
)
from repro.analysis.callgraph import ProjectIndex
from repro.analysis.core import (
    RULES,
    Finding,
    Rule,
    SourceModule,
    filter_suppressed,
)
from repro.analysis.formats import FORMATS, render_findings

__all__ = [
    "find_project_root",
    "iter_source_files",
    "lint_project",
    "main",
]


def find_project_root(start: Path | None = None) -> Path:
    """The repo root: the nearest ancestor holding ``src/repro``."""
    probe = (start or Path.cwd()).resolve()
    for candidate in [probe, *probe.parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    # Fall back to the package's own location (installed-from-src layout).
    package = Path(__file__).resolve()
    for candidate in package.parents:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return probe


def iter_source_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into the ``.py`` files to lint, sorted."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def _select_rules(rule_ids: list[str] | None) -> list[Rule]:
    if rule_ids is None:
        return list(RULES.values())
    unknown = sorted(set(rule_ids) - set(RULES))
    if unknown:
        raise ValueError(f"unknown rule ids: {unknown} (known: {sorted(RULES)})")
    return [RULES[rule_id] for rule_id in rule_ids]


def _lint_one_worker(path: str, rule_ids: list[str] | None) -> tuple[list, str | None]:
    """``--jobs`` worker: per-module rules for one file, pragmas filtered.

    Runs in a separate process (module state re-imported there), so the
    parent's :data:`~repro.analysis.core.PARSE_COUNTS` stays at one parse
    per file — the worker's parse happens in its own interpreter.
    """
    try:
        rules = _select_rules(rule_ids)
        parsed = SourceModule.parse(path)
        findings: list[Finding] = []
        for rule in rules:
            findings.extend(rule.check_module(parsed))
        return filter_suppressed(parsed, findings), None
    except SyntaxError as exc:
        return [], f"{path}: failed to parse: {exc}"


def lint_project(
    root: Path,
    paths: list[Path] | None = None,
    rule_ids: list[str] | None = None,
    project_rules: bool = True,
    jobs: int = 1,
    timings: dict[str, float] | None = None,
    dot_path: Path | None = None,
) -> tuple[list[Finding], list[str]]:
    """Run the full pass; returns (findings, parse-error messages).

    ``paths`` defaults to ``<root>/src``; ``rule_ids`` restricts the pass
    to a subset of :data:`repro.analysis.core.RULES`.  Project-wide and
    interprocedural rules run once per invocation.  ``jobs > 1`` fans the
    per-module phase across processes.  ``timings`` (if given) is filled
    with per-phase wall-clock seconds.  ``dot_path`` writes the
    lock-order graph DOT artifact.
    """
    rules = _select_rules(rule_ids)
    targets = iter_source_files(paths if paths is not None else [root / "src"])
    findings: list[Finding] = []
    errors: list[str] = []
    modules: list[SourceModule] = []
    by_path: dict[str, SourceModule] = {}

    tick = time.perf_counter()
    for path in targets:
        try:
            parsed = SourceModule.parse(path)
        except SyntaxError as exc:
            errors.append(f"{path}: failed to parse: {exc}")
            continue
        modules.append(parsed)
        by_path[parsed.path] = parsed
    if timings is not None:
        timings["parse"] = time.perf_counter() - tick

    tick = time.perf_counter()
    module_findings: list[Finding] = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(
                    _lint_one_worker,
                    [parsed.path for parsed in modules],
                    [rule_ids] * len(modules),
                )
            )
        for worker_findings, error in results:
            module_findings.extend(worker_findings)
            if error is not None:
                errors.append(error)
    else:
        for parsed in modules:
            per_module: list[Finding] = []
            for rule in rules:
                per_module.extend(rule.check_module(parsed))
            module_findings.extend(filter_suppressed(parsed, per_module))
    findings.extend(module_findings)
    if timings is not None:
        timings["module-rules"] = time.perf_counter() - tick

    tick = time.perf_counter()
    project_findings: list[Finding] = []
    if project_rules:
        for rule in rules:
            project_findings.extend(rule.check_project(root))
    if timings is not None:
        timings["project-rules"] = time.perf_counter() - tick

    tick = time.perf_counter()
    project = ProjectIndex.build(modules)
    inter_findings: list[Finding] = []
    for rule in rules:
        inter_findings.extend(rule.check_interprocedural(project))
    if dot_path is not None:
        from repro.analysis.rules_lockorder import lock_graph_dot

        dot_path.parent.mkdir(parents=True, exist_ok=True)
        dot_path.write_text(lock_graph_dot(project, root=root))
    if timings is not None:
        timings["interprocedural"] = time.perf_counter() - tick

    # Project-wide and interprocedural findings anchor into specific
    # modules too: filter their pragmas here, per anchored file (per-
    # module findings were already filtered above).
    late = project_findings + inter_findings
    grouped: dict[str, list[Finding]] = {}
    for finding in late:
        grouped.setdefault(finding.path, []).append(finding)
    for path_key, group in grouped.items():
        module = by_path.get(path_key)
        if module is not None:
            findings.extend(filter_suppressed(module, group))
        else:
            findings.extend(group)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, errors


def _relativize(findings: list[Finding], root: Path) -> list[Finding]:
    """Rewrite absolute paths repo-relative so baselines are portable."""
    rewritten: list[Finding] = []
    for finding in findings:
        try:
            rel = Path(finding.path).resolve().relative_to(root.resolve())
            rewritten.append(
                Finding(
                    rule=finding.rule,
                    path=rel.as_posix(),
                    line=finding.line,
                    message=finding.message,
                    hint=finding.hint,
                    snippet=finding.snippet,
                    end_line=finding.end_line,
                )
            )
        except ValueError:
            rewritten.append(finding)
    return rewritten


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soar-repro lint",
        description="Codebase-specific static analysis: lock discipline, "
        "determinism, layering, FFI contracts, "
        "typed-exception discipline, lock-order/deadlock, blocking-under-"
        "lock, and atomicity analysis.",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail on stale baseline entries (CI mode)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=f"baseline file (default: <repo>/{DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="accept the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--rule", action="append", dest="rules", metavar="RULE-ID",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan per-module rule execution out across N processes",
    )
    parser.add_argument(
        "--timing", action="store_true",
        help="print per-phase wall-clock timings",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text", dest="fmt",
        help="findings output format (default: text)",
    )
    parser.add_argument(
        "--lock-graph-dot", type=Path, default=None, metavar="PATH",
        help="write the lock-acquisition graph as Graphviz DOT",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id:20s} {RULES[rule_id].description}")
        return 0
    root = find_project_root()
    baseline_path = args.baseline or root / DEFAULT_BASELINE
    timings: dict[str, float] = {}
    try:
        findings, errors = lint_project(
            root,
            paths=args.paths or None,
            rule_ids=args.rules,
            jobs=max(1, args.jobs),
            timings=timings,
            dot_path=args.lock_graph_dot,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    findings = _relativize(findings, root)
    for message in errors:
        print(f"error: {message}")
    if args.update_baseline:
        path = write_baseline(findings, baseline_path)
        print(f"wrote {len(findings)} finding(s) to {path}")
        return 0
    baseline = load_baseline(baseline_path)
    new, known, stale = split_findings(findings, baseline)
    if args.fmt == "sarif":
        # Machine-readable: stdout is the document, nothing else.
        print(render_findings(new, "sarif"))
    else:
        if new:
            print(render_findings(new, args.fmt))
        if known:
            print(f"({len(known)} baselined finding(s) suppressed)")
        if stale:
            print(
                f"note: {len(stale)} stale baseline entr"
                f"{'y' if len(stale) == 1 else 'ies'} no longer fire"
                + (" (failing: --strict)" if args.strict else "")
            )
            for rule, path, snippet in sorted(stale):
                print(f"  stale: [{rule}] {path}: {snippet}")
    if args.timing:
        total = sum(timings.values())
        for phase in ("parse", "module-rules", "project-rules", "interprocedural"):
            if phase in timings:
                print(f"timing: {phase} {timings[phase]:.3f}s")
        print(f"timing: total {total:.3f}s")
    if errors:
        return 2
    if new:
        if args.fmt != "sarif":
            print(f"{len(new)} new finding(s) — fix them or update the baseline")
        return 1
    if args.strict and stale:
        return 1
    if args.fmt != "sarif":
        checked = "all rules" if not args.rules else ", ".join(sorted(args.rules))
        print(f"lint clean ({checked})")
    return 0
