"""Output checks and the environment record of a benchmark run.

Two checks guard every run; a failure of either fails the run instead of
reporting numbers:

* a sample of placement responses is re-solved cold with
  :class:`repro.core.solver.Solver` against the Λ the service saw, and must
  be bit-identical (blue set, cost, predicted cost);
* the ``response_payload`` of every response feeds a chained digest.  Its
  value after every :data:`CHECKPOINT` responses is kept per
  (workload, seed, size, sources) under the build directory, and a later
  run of the same seed and code must reproduce every checkpoint both runs
  reached.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from repro.core.engine import DEFAULT_ENGINE
from repro.core.tree import TreeNetwork
from repro.service.api import Response
from repro.service.driver import _verify_response, response_payload

CHECKPOINT = 25


class OutputMismatch(Exception):
    """A response disagreed with its cold re-solve or an earlier run."""


def verify_samples(tree: TreeNetwork, samples: list) -> None:
    """Re-solve each ``(request, response, Λ)`` cold; raise unless bit-identical."""
    for request, response, available in samples:
        try:
            if not _verify_response(tree, available, request, response, DEFAULT_ENGINE):
                raise AssertionError(f"{type(response).__name__} answers {type(request).__name__}")
        except AssertionError as exc:
            raise OutputMismatch(f"{type(request).__name__} differs from its cold re-solve: {exc}") from exc


class PayloadDigest:
    """Chained digest of response payloads with periodic checkpoints."""

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self._count = 0
        self.checkpoints: dict[int, str] = {}

    def add(self, response: Response | None) -> None:
        """Chain one response's payload in (``None``: the request raised)."""
        payload = ("raised",) if response is None else response_payload(response)
        self._hash.update(repr(payload).encode())
        self._hash.update(b"\n")
        self._count += 1
        if self._count % CHECKPOINT == 0:
            self.checkpoints[self._count] = self._hash.hexdigest()


def compare_checkpoints(ours: dict[int, str], theirs: dict[int, str], what: str) -> None:
    for count in sorted(ours.keys() & theirs.keys()):
        if ours[count] != theirs[count]:
            raise OutputMismatch(f"response payloads diverge from {what} by response {count}")


def check_against_store(store: Path, checkpoints: dict[int, str]) -> None:
    """Compare with earlier runs of the same seed, then record these checkpoints."""
    known: dict[int, str] = {}
    if store.exists():
        known = {int(k): v for k, v in json.loads(store.read_text()).items()}
    compare_checkpoints(checkpoints, known, f"an earlier run ({store.name})")
    known.update(checkpoints)
    store.parent.mkdir(parents=True, exist_ok=True)
    staging = store.with_suffix(".tmp")
    staging.write_text(json.dumps({str(k): v for k, v in sorted(known.items())}))
    os.replace(staging, store)


# --------------------------------------------------------------------------- #
# environment record
# --------------------------------------------------------------------------- #


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` directly (``None`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        return None
    return None


def source_digest(*roots: Path) -> str:
    """Digest of the Python and C sources under ``roots``."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*")):
            if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _kernel_digest(kernel_cache: Path) -> str | None:
    """Digest of the loaded kernel library (``None`` on the numpy fallback)."""
    from repro.core import engine_compiled

    if not engine_compiled.compiled_available():
        return None
    source = Path(engine_compiled.__file__).with_name("_gather_kernels.c")
    tag = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    library = kernel_cache / f"gather_kernels-{tag}.so"
    return hashlib.sha256(library.read_bytes()).hexdigest()[:16] if library.exists() else None


def environment(root: Path, kernel_cache: Path) -> dict:
    """Core count and backend identity, recorded beside every result."""
    from repro.core.engine_compiled import compiled_available

    return {
        "cpu_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "default_engine": DEFAULT_ENGINE,
        "compiled_available": compiled_available(),
        "kernel_so_sha256": _kernel_digest(kernel_cache),
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root / "src"),
    }
