"""Exception hierarchy for the SOAR reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class TreeStructureError(ReproError):
    """The supplied graph is not a valid rooted tree network.

    Raised when the edges do not form a tree, when the destination has more
    than one child, when a node references an unknown parent, or when the
    structure is otherwise inconsistent (cycles, disconnected components,
    self-loops).
    """


class InvalidRateError(ReproError):
    """A link rate is not a strictly positive finite number."""


class InvalidLoadError(ReproError):
    """A switch load is negative or not an integer-valued number."""


class InvalidBudgetError(ReproError, ValueError):
    """The aggregation budget ``k`` is negative or not an integer.

    Also a :class:`ValueError`: budget validation historically raised plain
    ``ValueError`` in places (e.g. the budget-sweep entry point), so callers
    catching that keep working.
    """


class AvailabilityError(ReproError):
    """The availability set Λ references switches that are not in the tree."""


class PlacementError(ReproError):
    """A set of blue nodes violates the problem constraints.

    Examples include exceeding the budget, selecting the destination, or
    selecting a switch outside the availability set Λ.
    """


class TableMismatchError(ReproError):
    """A gather-table artifact is being reused under incompatible settings.

    Gather tables are only valid for the exact instance and budget
    semantics they were computed under; reusing them otherwise would
    silently produce tables that answer a *different* problem.  The
    concrete subclasses identify which half of the contract was violated.
    """


class SemanticsMismatchError(TableMismatchError):
    """A gather table is being reused under different budget semantics.

    Tables gathered with ``exact_k=True`` encode a different dynamic
    program than at-most-k tables; tracing one with the other's semantics
    yields placements for the wrong problem.
    """


class RepairError(TableMismatchError):
    """A gather table cannot be delta-repaired to the requested network.

    Incremental repair (:meth:`repro.core.solver.GatherTable.repair`)
    recomputes the dirty DP columns into fresh blocks beside the cached
    table's clean ones, which is only sound when the target network differs from the gather's
    network in *availability alone* and the effective budget (the tensor
    width) is unchanged.  Structure or load differences, a delta that
    shrinks Λ below the requested budget, or a result carrying no flat
    tensors (a reference walk's) all raise this error;
    callers fall back to a cold gather.
    """


class CapacityError(ReproError):
    """An online allocation violates per-switch aggregation capacity."""


class WorkloadError(ReproError):
    """A workload description is malformed (e.g. negative loads, unknown switches)."""


class PersistenceError(ReproError):
    """A fleet snapshot or write-ahead journal cannot be used.

    Raised when a snapshot's format version is unknown, when a snapshot or
    journal was recorded for a different network (structure fingerprints
    disagree), when a journal is attached to a service whose mutation
    history it does not describe, or when a snapshot, journal or trace
    file holds a torn or undecodable record (the message names the file
    and line).
    """


class SimulationError(ReproError):
    """The event-driven dataplane simulation reached an inconsistent state."""


class ExperimentError(ReproError):
    """An experiment configuration is invalid or cannot be executed."""
