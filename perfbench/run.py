"""Placement-service benchmark: one closed-loop client driving ``PlacementService.submit``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 50 --trace 0

The client sends the next request only when the previous one has returned:
one process, no worker threads.  ``--trace 0`` builds the workload several
times (reporting the median set-up time), runs the timed loop for
``--seconds``, checks the outputs, and prints every end-to-end metric.
``--trace 1`` runs the same seed twice for half of ``--seconds`` each,
untraced and then traced (see ``tracer.py``), and prints the per-layer
metrics of the traced run plus the tracing overhead.  The workloads are
described in ``workloads.py``.

Throughput is completed requests per second spent inside ``submit``: the
client's own work between requests (generating the next request, digesting
and recording the response) is left out, so it does not dilute the figure.

Throughput and latency percentiles cover the requests the host served at
full speed.  On a shared host the speed of the cores changes by about 1.6x
for seconds to minutes at a time, and the process cannot see it (its CPU
time grows with wall time).  So the timed loop is cut into slices of about
a second, a fixed probe that runs none of the program's code (a
pure-Python loop and a pass over a large array, see :class:`HostProbe`)
times the host between slices, and the figures cover the slices whose
probes on both ends ran within ``FULL_SPEED`` of the run's 10th-percentile
probe.  The gate depends on the host alone, never on how fast the
program's own requests were, so a slow request in a full-speed slice
counts like any other.  The share of slices kept is printed with the
figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the environment record (core count, versions, backend identity).
Everything the run writes (the compiled kernels, the churn journal, the
payload-digest store) stays under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
KERNEL_CACHE = ROOT / ".bench_build" / "repro-kernels"

#: Set-ups per ``--trace 0`` run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Most placement responses kept for the cold re-solve, so the memory the
#: benchmark holds does not grow with throughput.
MAX_SAMPLES = 64

#: Load vectors whose no-aggregation cost is remembered at once.
BASELINE_CACHE = 64

#: Length of one slice of the timed loop; the host probe runs between slices.
SLICE_S = 1.0

#: A slice is full speed when, for each part of the host probe, the slower
#: probe on its ends took at most this factor of the run's 10th-percentile
#: probe.  The host's slow states are about 1.3x to 1.6x, so they fall outside.
FULL_SPEED = 1.2

#: Dictionary updates in one pass of the probe's Python part.
PROBE_ITERATIONS = 10_000

#: Doubles in the array the probe's memory part streams (8 MB, about the
#: size of one BT(1024) gather tensor, so beyond the caches as the tensors are).
PROBE_DOUBLES = 1 << 20


class HostProbe:
    """Times fixed work that runs none of the program's code: the host's speed.

    Two parts, because the host slows in two ways that need not coincide:
    a pure-Python loop (core speed) and one pass over arrays larger than
    the caches (memory bandwidth).  Each part is the best of two passes, so
    the first can refill what the preceding request evicted.
    """

    def __init__(self) -> None:
        import numpy as np

        self._multiply = np.multiply
        self._source = np.arange(PROBE_DOUBLES, dtype=np.float64)
        self._target = np.empty_like(self._source)

    def __call__(self) -> tuple[float, float]:
        """Seconds of the Python part and of the memory part."""
        python_s = memory_s = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            table: dict[int, int] = {}
            for i in range(PROBE_ITERATIONS):
                table[i & 1023] = table.get(i & 1023, 0) + i
            middle = time.perf_counter()
            self._multiply(self._source, 1.0, out=self._target)
            end = time.perf_counter()
            python_s = min(python_s, middle - start)
            memory_s = min(memory_s, end - middle)
        return python_s, memory_s


def _bootstrap() -> float:
    """Put the checkout's ``src`` on the path and import it; return the import time.

    The C kernels are compiled (when their cached library is missing) by a
    separate process first, so the timed import only loads them.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {ROOT / 'src'}")
    os.environ["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-c", "import repro.core.engine_compiled"], env=env, check=True, timeout=600
    )
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import repro.service  # noqa: F401  (loads the kernels as a side effect)

    return time.perf_counter() - start


class UtilizationRatio:
    """Running mean of SOAR cost ÷ no-aggregation cost of the same loads."""

    def __init__(self, tree) -> None:
        self._tree = tree
        self._baselines: dict[int, tuple[object, float]] = {}
        self._total = 0.0
        self._count = 0

    def _baseline(self, loads) -> float:
        from repro.core.cost import evaluate_cost

        known = self._baselines.get(id(loads))
        if known is None or known[0] is not loads:
            if len(self._baselines) >= BASELINE_CACHE:
                del self._baselines[next(iter(self._baselines))]
            known = (loads, evaluate_cost(self._tree.with_loads(loads), ()))
            self._baselines[id(loads)] = known
        return known[1]

    def add(self, loads, costs) -> None:
        baseline = self._baseline(loads)
        self._total += sum(cost / baseline for cost in costs)
        self._count += len(costs)

    @property
    def value(self) -> float:
        return self._total / self._count


class LoopResult:
    """What one timed loop produced, kept in memory that does not grow with
    the response count (beyond one float of latency per request)."""

    def __init__(self, tree, utilization: bool) -> None:
        from checks import PayloadDigest

        self.latencies = array("d")
        self.slice_of = array("i")  # slice of each request
        # Per slice, per probe part: the slower probe on the slice's two ends.
        self.slice_probe_s: tuple[array, array] = (array("d"), array("d"))
        self.failed_at: set[int] = set()  # requests that raised or failed a drain
        self.raised = 0
        self.drain_failures = 0
        self.wall_s = 0.0
        self.digest = PayloadDigest()
        self.samples: list = []  # (request, response, Λ at send time)
        self.utilization = UtilizationRatio(tree) if utilization else None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.raised + self.drain_failures

    def full_speed(self) -> tuple[list[float], int, int]:
        """Latencies (s) of the requests timed in full-speed slices; how many
        of them completed; how many slices were full speed."""
        kept = set(range(self.slices))
        for probes in self.slice_probe_s:
            reference = statistics.quantiles(probes, n=10, method="inclusive")[0] if len(probes) > 1 else probes[0]
            kept &= {index for index, probe in enumerate(probes) if probe <= FULL_SPEED * reference}
        requests = [i for i, index in enumerate(self.slice_of) if index in kept]
        completed = sum(1 for i in requests if i not in self.failed_at)
        return [self.latencies[i] for i in requests], completed, len(kept)

    @property
    def slices(self) -> int:
        return len(self.slice_probe_s[0])

    @property
    def throughput_rps(self) -> float:
        """Completed full-speed requests per second they spent inside ``submit``."""
        latencies, completed, _ = self.full_speed()
        return completed / sum(latencies)

    def record(self, request, response) -> None:
        from repro.service.api import AdmitResponse, DrainResponse, SolveResponse, SweepResponse

        self.digest.add(response)
        if response is None:
            self.failed_at.add(self.attempted - 1)
            return
        if isinstance(response, DrainResponse):
            if response.failed:
                self.failed_at.add(self.attempted - 1)
            self.drain_failures += len(response.failed)
        elif self.utilization is not None:
            if isinstance(response, (SolveResponse, AdmitResponse)):
                self.utilization.add(request.loads, (response.cost,))
            elif isinstance(response, SweepResponse):
                self.utilization.add(request.loads, response.costs.values())


def timed_loop(workload, seconds: float, utilization: bool = True) -> LoopResult:
    """Closed loop for ``seconds``: send, wait for the response, repeat."""
    from repro.exceptions import ReproError

    from workloads import PLACEMENT_REQUESTS

    service, state = workload.service, workload.service.state
    result = LoopResult(workload.tree, utilization)
    placements = 0
    host_probe = HostProbe()
    probe = host_probe()
    start = slice_start = time.perf_counter()
    deadline = start + seconds
    now = start
    while now < deadline:
        request = next(workload.requests)
        sampled = False
        if isinstance(request, PLACEMENT_REQUESTS):
            sampled = placements % workload.verify_every == 0 and len(result.samples) < MAX_SAMPLES
            placements += 1
        available = state.available() if sampled else None
        sent = time.perf_counter()
        try:
            response = service.submit(request)
        except ReproError as exc:
            response = None
            result.raised += 1
            print(f"request {result.attempted} raised {exc!r}", file=sys.stderr)
        result.latencies.append(time.perf_counter() - sent)
        result.slice_of.append(result.slices)
        result.record(request, response)
        if sampled and response is not None:
            result.samples.append((request, response, available))
        now = time.perf_counter()
        if now - slice_start >= SLICE_S or now >= deadline:
            ended = host_probe()
            for probes, began_s, ended_s in zip(result.slice_probe_s, probe, ended):
                probes.append(max(began_s, ended_s))
            probe = ended
            now = slice_start = time.perf_counter()
    result.wall_s = now - start
    return result


def build(name: str, seed: int, size: int):
    from workloads import setup

    BUILD.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    workload = setup(name, seed, size, BUILD)
    return workload, time.perf_counter() - start


def run_once(name: str, seed: int, size: int, seconds: float, tracer=None):
    """Build, run one timed loop (traced when ``tracer`` is given), check."""
    from checks import verify_samples

    workload, _ = build(name, seed, size)
    try:
        if tracer is None:
            result = timed_loop(workload, seconds, utilization=False)
        else:
            with tracer:
                result = timed_loop(workload, seconds, utilization=False)
        verify_samples(workload.tree, result.samples)
    finally:
        workload.close()
    return result


def end_to_end(args, import_s: float):
    from checks import verify_samples
    from repro.service.driver import _percentile

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        workload, elapsed = build(args.workload, args.seed, args.size)
        workload.close()
        setups.append(elapsed)
        del workload
        gc.collect()
    workload, elapsed = build(args.workload, args.seed, args.size)
    setups.append(elapsed)
    try:
        result = timed_loop(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verify_samples(workload.tree, result.samples)
    finally:
        workload.close()
    latencies = sorted(1e3 * latency for latency in result.full_speed()[0])
    metrics = {
        "throughput_rps": (result.throughput_rps, "1/s"),
        "latency_p50_ms": (_percentile(latencies, 0.50), "ms"),
        "latency_p95_ms": (_percentile(latencies, 0.95), "ms"),
        "utilization_ratio": (result.utilization.value, "ratio"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return result, [result.digest], metrics


def per_layer(args):
    from checks import compare_checkpoints
    from tracer import Tracer

    plain = run_once(args.workload, args.seed, args.size, args.seconds / 2)
    gc.collect()
    tracer = Tracer()
    traced = run_once(args.workload, args.seed, args.size, args.seconds / 2, tracer)
    compare_checkpoints(traced.digest.checkpoints, plain.digest.checkpoints, "the untraced run")
    metrics = tracer.metrics(traced.wall_s)
    metrics["trace.overhead"] = (traced.throughput_rps / plain.throughput_rps - 1.0, "ratio")
    return traced, [plain.digest, traced.digest], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=1024, help="BT(n) leaves (the self-check shrinks it)")
    args = parser.parse_args(argv)

    import_s = _bootstrap()
    from checks import OutputMismatch, check_against_store, environment, source_digest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    try:
        if args.trace:
            result, digests, metrics = per_layer(args)
        else:
            result, digests, metrics = end_to_end(args, import_s)
        code = source_digest(ROOT / "src", Path(__file__).resolve().parent)
        store = BUILD / "payloads" / f"{args.workload}-seed{args.seed}-bt{args.size}-{code}.json"
        for digest in digests:
            check_against_store(store, digest.checkpoints)
    except OutputMismatch as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6f} {unit}")
    kept, _, full_slices = result.full_speed()
    print(f"requests {result.attempted}, failed {result.failed}, verified {len(result.samples)}")
    python_s, memory_s = result.slice_probe_s
    print(
        f"full-speed slices {full_slices}/{result.slices} holding {len(kept)} requests; host probe "
        f"python {1e3 * min(python_s):.3f}..{1e3 * max(python_s):.3f} ms, "
        f"memory {1e3 * min(memory_s):.3f}..{1e3 * max(memory_s):.3f} ms"
    )
    print(json.dumps({"environment": environment(ROOT, KERNEL_CACHE)}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
