"""Tests for the public package surface: exports, versioning, docstrings."""

from __future__ import annotations

import importlib

import pytest

import repro


PUBLIC_MODULES = [
    "repro.core",
    "repro.core.tree",
    "repro.core.reduce_op",
    "repro.core.cost",
    "repro.core.gather",
    "repro.core.color",
    "repro.core.flat",
    "repro.core.bruteforce",
    "repro.baselines",
    "repro.baselines.strategies",
    "repro.topology",
    "repro.topology.binary_tree",
    "repro.topology.scale_free",
    "repro.topology.generic",
    "repro.workload",
    "repro.workload.distributions",
    "repro.workload.rates",
    "repro.online",
    "repro.online.capacity",
    "repro.online.scheduler",
    "repro.apps",
    "repro.apps.wordcount",
    "repro.apps.paramserver",
    "repro.apps.bytes_model",
    "repro.simulation",
    "repro.simulation.dataplane",
    "repro.simulation.events",
    "repro.experiments",
    "repro.utils",
    "repro.cli",
    "repro.exceptions",
    "repro.analysis",
    "repro.analysis.core",
    "repro.analysis.baseline",
    "repro.analysis.runner",
    "repro.analysis.rules_locks",
    "repro.analysis.rules_determinism",
    "repro.analysis.rules_layering",
    "repro.analysis.rules_ffi",
    "repro.analysis.rules_excepts",
    "repro.analysis.callgraph",
    "repro.analysis.summaries",
    "repro.analysis.formats",
    "repro.analysis.rules_lockorder",
    "repro.analysis.rules_blocking",
    "repro.analysis.rules_atomicity",
]


def test_version_is_semver():
    assert isinstance(repro.__version__, str)
    major, minor, patch = repro.__version__.split(".")
    assert major.isdigit() and minor.isdigit() and patch.isdigit()


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports_and_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} is missing a module docstring"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "package_name",
    ["repro.core", "repro.baselines", "repro.topology", "repro.workload", "repro.online",
     "repro.apps", "repro.simulation", "repro.experiments", "repro.utils",
     "repro.analysis"],
)
def test_package_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__") and package.__all__
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name}"


def test_public_callables_have_docstrings():
    from repro.core import cost, solver, tree

    for obj in (
        solver.Solver.solve,
        solver.GatherTable.place,
        cost.evaluate_cost,
        cost.utilization_cost_flat,
        tree.TreeNetwork,
        tree.TreeNetwork.with_loads,
    ):
        assert obj.__doc__


def test_exceptions_hierarchy():
    from repro import exceptions

    subclasses = [
        exceptions.TreeStructureError,
        exceptions.InvalidRateError,
        exceptions.InvalidLoadError,
        exceptions.InvalidBudgetError,
        exceptions.AvailabilityError,
        exceptions.PlacementError,
        exceptions.CapacityError,
        exceptions.WorkloadError,
        exceptions.SimulationError,
        exceptions.ExperimentError,
        exceptions.KernelArgumentError,
    ]
    for subclass in subclasses:
        assert issubclass(subclass, exceptions.ReproError)
        assert subclass.__doc__
