"""Tests for the codebase-specific static-analysis pass (repro.analysis).

Each rule family is exercised two ways: its positive fixture under
``tests/analysis_fixtures/`` must produce findings (the rule catches the
hazard it exists for) and its negative fixture must produce none (the
allowed idioms stay quiet).  The project-wide check — the C/ctypes FFI
contract — is additionally regression tested by perturbing copies of the
real inputs: a linter that passes a
broken contract is worse than no linter.  The interprocedural families
(lock-order, blocking-under-lock, atomicity) get the same treatment at
whole-program scope: doctored copies of the real service code, linted in
their real call-graph context, must flip the tree from clean to firing.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis import (
    PARSE_COUNTS,
    RULES,
    Finding,
    ProjectIndex,
    check_ffi,
    filter_suppressed,
    lint_project,
    lint_source,
    load_baseline,
    lock_graph_dot,
    render_findings,
    run_fixture,
    split_findings,
    write_baseline,
)
from repro.analysis.core import SourceModule
from repro.analysis.runner import (
    find_project_root,
    iter_source_files,
    main as lint_main,
)

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = find_project_root(Path(__file__).parent)


def rule_ids(findings: list[Finding]) -> set[str]:
    return {finding.rule for finding in findings}


def fixture_findings(name: str, rule: str) -> list[Finding]:
    return [f for f in run_fixture(FIXTURES / name) if f.rule == rule]


# --------------------------------------------------------------------------- #
# framework
# --------------------------------------------------------------------------- #


def test_all_rule_families_registered():
    assert {
        "lock-discipline",
        "determinism-rng",
        "determinism-clock",
        "determinism-order",
        "layering",
        "ffi-contract",
        "broad-except",
        "lock-order",
        "blocking-under-lock",
        "atomicity",
    } <= set(RULES)


def test_findings_carry_location_rule_and_hint():
    finding = fixture_findings("locks_bad.py", "lock-discipline")[0]
    assert finding.line > 0
    assert finding.hint
    rendered = finding.format()
    assert re.match(r".+:\d+: \[lock-discipline\] ", rendered)
    assert "(fix: " in rendered


def test_allow_pragma_suppresses_exactly_that_rule(tmp_path):
    source = (
        "# lint-fixture-module: repro.core.pragma_fixture\n"
        "import numpy as np\n"
        "rng = np.random.default_rng()  # lint: allow(determinism-rng)\n"
        "other = np.random.default_rng()\n"
    )
    path = tmp_path / "pragma_fixture.py"
    path.write_text(source)
    findings = run_fixture(path)
    assert len([f for f in findings if f.rule == "determinism-rng"]) == 1
    assert findings[0].line == 4


def test_fixture_module_header_controls_scoped_rules(tmp_path):
    source = "import time\nstamp = time.time()\n"
    bare = tmp_path / "no_header.py"
    bare.write_text(source)
    assert not fixture_rule_hits(bare, "determinism-clock")
    scoped = tmp_path / "with_header.py"
    scoped.write_text("# lint-fixture-module: repro.core.clocked\n" + source)
    assert fixture_rule_hits(scoped, "determinism-clock")


def fixture_rule_hits(path: Path, rule: str) -> list[Finding]:
    return [f for f in run_fixture(path) if f.rule == rule]


# --------------------------------------------------------------------------- #
# lock discipline
# --------------------------------------------------------------------------- #


def test_lock_discipline_flags_unprotected_mutations():
    findings = fixture_findings("locks_bad.py", "lock-discipline")
    assert len(findings) == 5
    flagged = "\n".join(f.snippet for f in findings)
    assert "service.state._admitted_total" in flagged
    assert "del service.state._tenants" in flagged


def test_lock_discipline_allows_methods_locks_and_decorator():
    assert fixture_findings("locks_good.py", "lock-discipline") == []


# --------------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------------- #


def test_determinism_rules_flag_the_hazards():
    findings = run_fixture(FIXTURES / "determinism_bad.py")
    assert {"determinism-rng", "determinism-clock", "determinism-order"} <= rule_ids(
        findings
    )
    rng = [f for f in findings if f.rule == "determinism-rng"]
    assert len(rng) == 4  # default_rng(), random.random(), np.seed, np.rand
    order = [f for f in findings if f.rule == "determinism-order"]
    assert len(order) == 3  # two set sums + one dict-fed hasher loop


def test_determinism_rules_allow_seeded_and_sorted():
    findings = run_fixture(FIXTURES / "determinism_good.py")
    assert rule_ids(findings) & {
        "determinism-rng",
        "determinism-clock",
        "determinism-order",
    } == set()


def test_wall_clock_rule_scoped_to_pure_layers():
    source = "# lint-fixture-module: repro.service.latency\nimport time\nt = time.time()\n"
    findings = lint_source(
        FIXTURES / "determinism_good.py", module="repro.service.latency", text=source
    )
    assert "determinism-clock" not in rule_ids(findings)


# --------------------------------------------------------------------------- #
# layering
# --------------------------------------------------------------------------- #


def test_layering_flags_upward_imports():
    findings = fixture_findings("layering_bad.py", "layering")
    assert len(findings) == 3
    messages = "\n".join(f.message for f in findings)
    for target in ("repro.service.api", "repro.online.capacity", "repro.experiments"):
        assert target in messages


def test_layering_allows_downward_imports():
    assert fixture_findings("layering_good.py", "layering") == []


# --------------------------------------------------------------------------- #
# broad excepts
# --------------------------------------------------------------------------- #


def test_broad_except_flags_swallowing_handlers():
    findings = fixture_findings("excepts_bad.py", "broad-except")
    assert len(findings) == 4  # Exception, bare, tuple-smuggled, BaseException


def test_broad_except_allows_typed_reraise_and_pragma():
    assert fixture_findings("excepts_good.py", "broad-except") == []


def test_broad_except_scoped_to_service_layer(tmp_path):
    path = tmp_path / "core_like.py"
    path.write_text(
        "# lint-fixture-module: repro.experiments.harness\n"
        "def f(g):\n"
        "    try:\n"
        "        return g()\n"
        "    except Exception:\n"
        "        return None\n"
    )
    assert fixture_rule_hits(path, "broad-except") == []


# --------------------------------------------------------------------------- #
# FFI contract
# --------------------------------------------------------------------------- #


C_PATH = REPO_ROOT / "src" / "repro" / "core" / "_gather_kernels.c"
PY_PATH = REPO_ROOT / "src" / "repro" / "core" / "engine_compiled.py"


def test_ffi_contract_passes_on_shipped_sources():
    assert check_ffi(C_PATH.read_text(), PY_PATH.read_text()) == []


def test_ffi_contract_covers_every_repro_symbol():
    from repro.analysis import parse_c_prototypes, parse_ctypes_decls

    c_symbols = set(parse_c_prototypes(C_PATH.read_text()))
    py_symbols = set(parse_ctypes_decls(PY_PATH.read_text()))
    declared = {
        match.group(0)
        for match in re.finditer(r"repro_\w+", C_PATH.read_text())
    }
    assert c_symbols == declared  # the regex parser misses no repro_* symbol
    assert c_symbols == py_symbols


def test_ffi_contract_fails_on_perturbed_c_copy(tmp_path):
    c_text = C_PATH.read_text()
    # Add a parameter to one kernel's declaration(s): arity mismatch.
    perturbed = c_text.replace(
        "repro_utilization(", "repro_utilization(int64_t injected_arg, "
    )
    assert perturbed != c_text
    copy = tmp_path / "_gather_kernels.c"
    copy.write_text(perturbed)
    findings = check_ffi(copy.read_text(), PY_PATH.read_text())
    assert any("arity mismatch" in f.message for f in findings)


def test_ffi_contract_fails_on_kind_restype_and_symbol_drift():
    c_text = C_PATH.read_text()
    py_text = PY_PATH.read_text()
    # Pointer element type drift: uint8_t* -> double* on the C side.
    kind_drift = c_text.replace(
        "int32_t repro_utilization(const uint8_t *blue",
        "int32_t repro_utilization(const double *blue",
    )
    assert kind_drift != c_text
    findings = check_ffi(kind_drift, py_text)
    assert any("kind mismatch" in f.message for f in findings)
    # Return-type drift: int32_t repro_color -> void.
    ret_drift = re.sub(r"\bint32_t\s+(repro_color)\b", r"void \1", c_text)
    assert ret_drift != c_text
    findings = check_ffi(ret_drift, py_text)
    assert any("return-type mismatch" in f.message for f in findings)
    # Symbol drift: rename a kernel on the C side only.
    renamed = c_text.replace("repro_color", "repro_colour")
    findings = check_ffi(renamed, py_text)
    messages = "\n".join(f.message for f in findings)
    assert "repro_colour has no ctypes prototype" in messages
    assert "repro_color has no declaration" in messages


# --------------------------------------------------------------------------- #
# interprocedural: lock order / deadlock
# --------------------------------------------------------------------------- #


def test_lock_order_flags_cycle_with_both_sites_and_reacquisition():
    findings = fixture_findings("lockorder_bad.py", "lock-order")
    assert sorted(f.line for f in findings) == [21, 40]
    cycle = next(f for f in findings if "lock-order cycle" in f.message)
    assert "Pair._alpha_lock" in cycle.message
    assert "Pair._beta_lock" in cycle.message
    # Both acquisition sites are named, file:line each.
    assert cycle.message.count("lockorder_bad.py:") >= 2
    reentry = next(f for f in findings if "re-acquired" in f.message)
    assert "Reentry._guard_lock" in reentry.message
    assert "self-deadlock" in reentry.message


def test_lock_order_allows_consistent_order_and_rlock_reentry():
    assert fixture_findings("lockorder_good.py", "lock-order") == []


def test_lock_graph_dot_renders_fixture_edges():
    parsed = SourceModule.parse(
        FIXTURES / "lockorder_bad.py", module="repro.service.fixture_lockorder_bad"
    )
    dot = lock_graph_dot(ProjectIndex.build([parsed]))
    assert dot.startswith("digraph lock_order")
    assert '"Pair._alpha_lock" -> "Pair._beta_lock"' in dot
    assert '"Pair._beta_lock" -> "Pair._alpha_lock"' in dot


# --------------------------------------------------------------------------- #
# interprocedural: blocking under lock
# --------------------------------------------------------------------------- #


def test_blocking_rule_flags_direct_transitive_and_subprocess():
    findings = fixture_findings("blocking_bad.py", "blocking-under-lock")
    assert sorted(f.line for f in findings) == [52, 56, 60]
    by_line = {f.line: f for f in findings}
    assert "os.fsync" in by_line[52].message
    assert "chain:" in by_line[56].message  # the two-deep WAL shape
    assert "Journal._write_line" in by_line[56].message
    assert "subprocess.run" in by_line[60].message
    assert "write" in by_line[60].message  # write-mode acquisition named


def test_blocking_rule_allows_io_outside_lock_and_read_side():
    assert fixture_findings("blocking_good.py", "blocking-under-lock") == []


# --------------------------------------------------------------------------- #
# interprocedural: atomicity (mutate-then-raise)
# --------------------------------------------------------------------------- #


def test_atomicity_flags_interleaved_mutations_and_loops():
    findings = fixture_findings("atomicity_bad.py", "atomicity")
    assert sorted(f.line for f in findings) == [24, 28, 40]
    messages = "\n".join(f.message for f in findings)
    assert "raise-capable" in messages
    assert "loop body" in messages  # the drain_all loop shape


def test_atomicity_allows_validated_staged_and_guarded_updates():
    assert fixture_findings("atomicity_good.py", "atomicity") == []


# --------------------------------------------------------------------------- #
# interprocedural: perturbed copies of the real service code
# --------------------------------------------------------------------------- #

API_PATH = REPO_ROOT / "src" / "repro" / "service" / "api.py"
STATE_PATH = REPO_ROOT / "src" / "repro" / "service" / "state.py"

_TREE_CACHE: dict[str, SourceModule] = {}


def tree_findings(rule: str, overrides: dict[Path, str] | None = None) -> list[Finding]:
    """Run one interprocedural rule over the real src tree.

    ``overrides`` replaces the text of specific files before indexing —
    the perturbation tests lint doctored copies of the real service code
    in its real whole-program context.  Unmodified files reuse a shared
    parse cache (the perturbations only ever touch one file).
    """
    if not _TREE_CACHE:
        for path in iter_source_files([REPO_ROOT / "src"]):
            _TREE_CACHE[str(path)] = SourceModule.parse(path)
    overrides = {str(k): v for k, v in (overrides or {}).items()}
    modules = [
        SourceModule.parse(path, text=overrides[path])
        if path in overrides
        else parsed
        for path, parsed in _TREE_CACHE.items()
    ]
    project = ProjectIndex.build(modules)
    findings = RULES[rule].check_interprocedural(project)
    by_path = {m.path: m for m in modules}
    kept: list[Finding] = []
    for finding in findings:
        module = by_path.get(finding.path)
        kept.extend(filter_suppressed(module, [finding]) if module else [finding])
    return kept


def test_real_tree_lock_graph_is_acyclic():
    assert tree_findings("lock-order") == []


def test_real_tree_blocking_and_atomicity_clean():
    assert tree_findings("blocking-under-lock") == []
    assert tree_findings("atomicity") == []


def test_lock_order_fires_on_reversed_acquisition_in_api_copy():
    probe = (
        "    def _reversed_probe(self):\n"
        "        with self._counts_lock:\n"
        "            with self._fleet_lock.write_locked():\n"
        "                return None\n\n"
    )
    api_text = API_PATH.read_text()
    perturbed = api_text.replace("    def submit(", probe + "    def submit(", 1)
    assert perturbed != api_text
    findings = tree_findings("lock-order", {API_PATH: perturbed})
    cycle = next(f for f in findings if "lock-order cycle" in f.message)
    assert "PlacementService._counts_lock" in cycle.message
    assert "PlacementService._fleet_lock" in cycle.message
    assert cycle.message.count("api.py:") >= 2  # both sites named


def test_blocking_fires_when_journal_pragma_is_stripped():
    api_text = API_PATH.read_text()
    stripped = api_text.replace("  # lint: allow(blocking-under-lock)", "")
    assert stripped != api_text
    findings = tree_findings("blocking-under-lock", {API_PATH: stripped})
    assert len(findings) == 1
    assert findings[0].path.endswith("api.py")
    assert "Journal._write_line" in findings[0].message
    assert "_fleet_lock[write]" in findings[0].message


def test_atomicity_fires_on_interleaved_drain_in_state_copy():
    state_text = STATE_PATH.read_text()
    two_phase = (
        "        for record in displaced:\n"
        "            self._tracker.release(record.blue_nodes)\n"
        "        for record in displaced:\n"
    )
    interleaved = (
        "        for record in displaced:\n"
        "            self._tracker.release(record.blue_nodes)\n"
    )
    assert two_phase in state_text
    perturbed = state_text.replace(two_phase, interleaved, 1)
    findings = tree_findings("atomicity", {STATE_PATH: perturbed})
    assert any(
        f.path.endswith("state.py") and "drain" in f.message for f in findings
    )


# --------------------------------------------------------------------------- #
# multi-line pragma spans
# --------------------------------------------------------------------------- #


def test_pragma_on_multiline_statement_header_suppresses_child_lines():
    assert run_fixture(FIXTURES / "pragma_multiline.py") == []


def test_stripped_pragmas_restore_the_findings(tmp_path):
    text = (FIXTURES / "pragma_multiline.py").read_text()
    stripped = re.sub(r"\s*# lint: allow\([a-z-]+\)", "", text)
    assert stripped != text
    copy = tmp_path / "pragma_multiline.py"
    copy.write_text(stripped)
    findings = run_fixture(copy)
    assert "blocking-under-lock" in rule_ids(findings)
    assert "lock-discipline" in rule_ids(findings)


# --------------------------------------------------------------------------- #
# shared-AST pipeline: parse-once, --jobs, --timing
# --------------------------------------------------------------------------- #


def test_full_tree_lint_parses_each_file_exactly_once():
    PARSE_COUNTS.clear()
    findings, errors = lint_project(REPO_ROOT)
    assert errors == []
    assert findings == []
    targets = {str(p) for p in iter_source_files([REPO_ROOT / "src"])}
    counted = {path: n for path, n in PARSE_COUNTS.items() if path in targets}
    assert set(counted) == targets
    over_parsed = {path: n for path, n in counted.items() if n != 1}
    assert over_parsed == {}


def test_jobs_fanout_matches_serial_run_and_keeps_parent_parse_counts():
    serial, serial_errors = lint_project(REPO_ROOT)
    PARSE_COUNTS.clear()
    fanned, fanned_errors = lint_project(REPO_ROOT, jobs=2)
    assert fanned_errors == serial_errors == []
    assert fanned == serial
    # Workers parse in their own interpreters; the parent still parses
    # each file exactly once (for the interprocedural phase).
    assert all(n == 1 for n in PARSE_COUNTS.values())


@contextlib.contextmanager
def _collector_paused():
    """Collect, freeze and disable the cyclic GC; restore it on exit.

    ``lint_project`` keeps every parsed module alive while the reference
    sweep drops each one, so inside a large test process the parse phase
    alone could pay a full collection over the whole heap.  With the heap
    frozen and the collector off, neither timing pays for objects the
    code under test did not make.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()


def test_shared_parse_phase_beats_per_rule_reparse(tmp_path):
    timings: dict[str, float] = {}
    with _collector_paused():
        lint_project(REPO_ROOT, timings=timings)
        # One shared parse sweep, not one per rule: the parse phase must
        # stay within a loose multiple of a single parse sweep (scheduler
        # noise allowed for — this is a regression tripwire, not a benchmark).
        tick = time.perf_counter()
        for path in iter_source_files([REPO_ROOT / "src"]):
            SourceModule.parse(path)
        one_sweep = time.perf_counter() - tick
    assert set(timings) == {
        "parse", "module-rules", "project-rules", "interprocedural"
    }
    assert timings["parse"] <= one_sweep * 3 + 0.5


def test_timing_flag_prints_phases(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert lint_main(["--strict", "--timing"]) == 0
    out = capsys.readouterr().out
    for phase in ("parse", "module-rules", "project-rules", "interprocedural"):
        assert f"timing: {phase} " in out
    total = float(re.search(r"timing: total (\d+\.\d+)s", out).group(1))
    assert total < 30.0  # loose wall-clock ceiling for the full tree


# --------------------------------------------------------------------------- #
# output formats
# --------------------------------------------------------------------------- #

GOLDEN_FINDINGS = [
    Finding(
        rule="lock-order",
        path="src/repro/service/api.py",
        line=10,
        message="lock-order cycle: A -> B -> A",
        hint="acquire locks in one global order",
        snippet="with self._b:",
        end_line=12,
    ),
    Finding(
        rule="determinism-rng",
        path="src/x.py",
        line=3,
        message="unseeded RNG: 100% bad",
        hint="pass a seed",
        snippet="rng = np.random.default_rng()",
    ),
]


def test_text_format_golden():
    assert render_findings(GOLDEN_FINDINGS, "text") == (
        "src/repro/service/api.py:10: [lock-order] lock-order cycle: "
        "A -> B -> A  (fix: acquire locks in one global order)\n"
        "src/x.py:3: [determinism-rng] unseeded RNG: 100% bad  (fix: pass a seed)"
    )


def test_github_format_golden():
    assert render_findings(GOLDEN_FINDINGS, "github") == (
        "::error file=src/repro/service/api.py,line=10,endLine=12,"
        "title=lock-order::lock-order cycle: A -> B -> A\n"
        "::error file=src/x.py,line=3,endLine=3,"
        "title=determinism-rng::unseeded RNG: 100%25 bad"
    )


def test_sarif_format_golden():
    document = json.loads(render_findings(GOLDEN_FINDINGS, "sarif"))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "soar-repro-lint"
    rule_index = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert rule_index == {"determinism-rng", "lock-order"}
    first = run["results"][0]
    assert first["ruleId"] == "lock-order"
    region = first["locations"][0]["physicalLocation"]["region"]
    assert (region["startLine"], region["endLine"]) == (10, 12)
    with pytest.raises(ValueError):
        render_findings(GOLDEN_FINDINGS, "yaml")


def test_format_flag_switches_runner_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    assert lint_main([str(bad), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "title=determinism-rng" in out
    assert lint_main([str(bad), "--format", "sarif"]) == 1
    out = capsys.readouterr().out
    document = json.loads(out)  # sarif mode prints only the document
    assert len(document["runs"][0]["results"]) == 1
    assert lint_main(["--format", "sarif"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["runs"][0]["results"] == []


def test_lock_graph_dot_artifact_written_for_real_tree(tmp_path):
    dot_path = tmp_path / "artifacts" / "lock_order.dot"
    findings, errors = lint_project(REPO_ROOT, dot_path=dot_path)
    assert errors == []
    assert findings == []
    dot = dot_path.read_text()
    assert dot.startswith("digraph lock_order")
    assert "PlacementService._fleet_lock" in dot
    # Edge labels are repo-relative (portable CI artifacts).
    assert str(REPO_ROOT) not in dot


def test_lock_graph_dot_is_independent_of_the_hash_seed(tmp_path):
    # Each seed walks the summaries in another order; every edge must
    # still name the same witness, so CI can diff the artifact.
    dots = []
    for seed in ("0", "3", "6"):
        dot_path = tmp_path / f"lock_order_{seed}.dot"
        subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--strict",
             "--lock-graph-dot", str(dot_path)],
            check=True,
            capture_output=True,
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PYTHONHASHSEED": seed,
            },
        )
        dots.append(dot_path.read_bytes())
    assert dots[0].startswith(b"digraph lock_order")
    assert dots[1:] == dots[:1] * 2


# --------------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------------- #


def test_shipped_baseline_is_empty():
    baseline = load_baseline(REPO_ROOT / "lint_baseline.json")
    assert baseline == set()


def test_baseline_roundtrip_and_split(tmp_path):
    known = Finding(
        rule="determinism-rng", path="src/x.py", line=3, message="m", hint="h",
        snippet="rng = np.random.default_rng()",
    )
    fresh = Finding(
        rule="layering", path="src/y.py", line=9, message="m2", hint="h2",
        snippet="import repro.service",
    )
    stale_key = ("broad-except", "src/z.py", "except Exception:")
    path = tmp_path / "baseline.json"
    write_baseline([known], path)
    baseline = load_baseline(path) | {stale_key}
    new, old, stale = split_findings([known, fresh], baseline)
    assert new == [fresh]
    assert old == [known]
    assert stale == {stale_key}
    payload = json.loads(path.read_text())
    assert payload["version"] == 1


# --------------------------------------------------------------------------- #
# whole-tree gate and CLI
# --------------------------------------------------------------------------- #


def test_shipped_tree_is_lint_clean():
    findings, errors = lint_project(REPO_ROOT)
    assert errors == []
    assert findings == []


def test_runner_cli_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert lint_main(["--list-rules"]) == 0
    assert lint_main([]) == 0
    out = capsys.readouterr().out
    assert "lint clean" in out
    # A bad file surfaces as a new finding -> exit 1.
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    assert lint_main([str(bad)]) == 1
    # --strict fails on stale baseline entries.
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({
        "version": 1,
        "findings": [{"rule": "layering", "path": "gone.py", "snippet": "x"}],
    }))
    assert lint_main([str(FIXTURES / "layering_good.py"), "--baseline", str(stale)]) == 0
    assert (
        lint_main(
            [str(FIXTURES / "layering_good.py"), "--baseline", str(stale), "--strict"]
        )
        == 1
    )


def test_cli_lint_subcommand():
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "ffi-contract" in result.stdout


# --------------------------------------------------------------------------- #
# mypy gate (typing debt lives in mypy.ini, not inline ignores)
# --------------------------------------------------------------------------- #


def test_no_inline_type_ignores_in_core_and_service():
    offenders = []
    for layer in ("core", "service"):
        for path in (REPO_ROOT / "src" / "repro" / layer).rglob("*.py"):
            if "type: ignore" in path.read_text():
                offenders.append(str(path))
    assert offenders == []


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None, reason="mypy not installed"
)
def test_mypy_clean_on_configured_layers():
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "mypy.ini",
         "src/repro/core", "src/repro/service"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
