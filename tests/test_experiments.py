"""Tests for the experiment harness: every figure module runs and its output
has the right shape and the qualitative properties the paper reports."""

from __future__ import annotations

import math

import pytest

from repro.experiments.fig6_strategies import run_fig6
from repro.experiments.fig7_online import run_fig7_capacity_sweep, run_fig7_workload_sweep
from repro.experiments.fig8_applications import default_applications, run_fig8
from repro.experiments.fig9_runtime import run_fig9
from repro.experiments.fig10_scaling import (
    BUDGET_RULES,
    run_fig10_required_fraction,
    run_fig10_utilization,
)
from repro.experiments.fig11_scalefree import run_fig11_example, run_fig11_scaling
from repro.experiments.harness import (
    ExperimentConfig,
    budgets_for_network,
    build_evaluation_network,
    repetition_seeds,
)
from repro.experiments.motivating import (
    FIGURE2_EXPECTED,
    FIGURE3_EXPECTED,
    motivating_tree,
    run_budget_sweep,
    run_strategy_comparison,
)
from repro.exceptions import ExperimentError

#: Small configuration so the whole module runs in a few seconds.
TINY = ExperimentConfig(network_size=32, repetitions=2, seed=11)


class TestHarness:
    def test_repetition_seeds_are_deterministic(self):
        first = [rng.integers(0, 1_000_000) for rng in repetition_seeds(TINY)]
        second = [rng.integers(0, 1_000_000) for rng in repetition_seeds(TINY)]
        assert first == second
        assert len(first) == TINY.repetitions

    def test_build_evaluation_network(self):
        rng = next(iter(repetition_seeds(TINY)))
        tree = build_evaluation_network(TINY, "linear", "uniform", rng)
        assert tree.num_switches == 31
        assert tree.total_load >= 4 * 16
        assert tree.rate(tree.root) == tree.height

    def test_build_rejects_tiny_network(self):
        rng = next(iter(repetition_seeds(TINY)))
        with pytest.raises(ExperimentError):
            build_evaluation_network(TINY.scaled(network_size=1), "constant", "uniform", rng)

    def test_budgets_for_network_clamps(self):
        tree = motivating_tree()
        assert budgets_for_network([1, 2, 100], tree) == [1, 2, 7]
        with pytest.raises(ExperimentError):
            budgets_for_network([], tree)

    def test_config_scaled(self):
        scaled = TINY.scaled(network_size=64, repetitions=5)
        assert scaled.network_size == 64
        assert scaled.repetitions == 5
        assert scaled.seed == TINY.seed


class TestMotivatingExample:
    def test_figure2_rows_match_paper(self):
        rows = {row["strategy"]: row for row in run_strategy_comparison()}
        for name, expected in FIGURE2_EXPECTED.items():
            assert rows[name]["utilization"] == pytest.approx(expected)
        assert rows["AllRed"]["utilization"] == pytest.approx(51.0)
        assert rows["AllBlue"]["utilization"] == pytest.approx(7.0)

    def test_figure3_rows_match_paper(self):
        rows = {row["k"]: row for row in run_budget_sweep()}
        for budget, expected in FIGURE3_EXPECTED.items():
            assert rows[budget]["utilization"] == pytest.approx(expected)


class TestFig6:
    def test_rows_and_optimality(self):
        rows = run_fig6(
            config=TINY,
            budgets=(1, 4),
            rate_schemes=("constant", "exponential"),
            distributions=("power-law",),
        )
        # 5 curves (Top/Max/Level/SOAR/All blue) x 2 budgets x 2 schemes.
        assert len(rows) == 5 * 2 * 2
        for row in rows:
            assert 0.0 <= row["normalized_utilization"] <= 1.0 + 1e-9

        def value(strategy, scheme, k):
            return next(
                r["normalized_utilization"]
                for r in rows
                if r["strategy"] == strategy and r["rate_scheme"] == scheme and r["k"] == k
            )

        for scheme in ("constant", "exponential"):
            for k in (1, 4):
                soar = value("SOAR", scheme, k)
                assert soar <= value("Top", scheme, k) + 1e-9
                assert soar <= value("Max", scheme, k) + 1e-9
                assert soar <= value("Level", scheme, k) + 1e-9
                assert value("All blue", scheme, k) <= soar + 1e-9

    def test_more_budget_helps(self):
        rows = run_fig6(
            config=TINY, budgets=(1, 8), rate_schemes=("constant",), distributions=("uniform",)
        )
        soar = {r["k"]: r["normalized_utilization"] for r in rows if r["strategy"] == "SOAR"}
        assert soar[8] <= soar[1] + 1e-9


class TestFig7:
    def test_workload_sweep_shape(self):
        rows = run_fig7_workload_sweep(
            config=TINY, budget=4, capacity=2, num_workloads=5, rate_schemes=("constant",)
        )
        strategies = {row["strategy"] for row in rows}
        assert strategies == {"Top", "Max", "Level", "SOAR"}
        assert len(rows) == 4 * 5
        for row in rows:
            assert 0.0 < row["normalized_utilization"] <= 1.0 + 1e-9

    def test_soar_best_in_online_setting(self):
        rows = run_fig7_workload_sweep(
            config=TINY, budget=4, capacity=2, num_workloads=6, rate_schemes=("constant",)
        )
        final = {
            row["strategy"]: row["normalized_utilization"]
            for row in rows
            if row["num_workloads"] == 6
        }
        assert final["SOAR"] <= min(final.values()) + 1e-9

    def test_capacity_sweep_improves_with_capacity(self):
        rows = run_fig7_capacity_sweep(
            config=TINY,
            budget=4,
            capacities=(1, 8),
            num_workloads=6,
            rate_schemes=("constant",),
        )
        soar = {row["capacity"]: row["normalized_utilization"] for row in rows if row["strategy"] == "SOAR"}
        assert soar[8] <= soar[1] + 1e-9


class TestFig8:
    def test_rows_and_shapes(self):
        applications = {
            "WC": default_applications()["WC"].__class__(
                vocabulary_size=2_000, shard_size=200, rng=1
            ),
            "PS": default_applications()["PS"].__class__(
                feature_dimension=1_000, dropout=0.5, rng=2
            ),
        }
        rows = run_fig8(
            config=TINY,
            budgets=(1, 4),
            distributions=("power-law",),
            applications=applications,
        )
        assert len(rows) == 2 * 1 * 2
        for row in rows:
            assert 0.0 < row["normalized_utilization"] <= 1.0 + 1e-9
            assert 0.0 < row["bytes_vs_all_red"] <= 1.0 + 1e-9
            assert row["bytes_vs_all_blue"] >= 1.0 - 1e-9

    def test_utilization_independent_of_application(self):
        rows = run_fig8(config=TINY, budgets=(2,), distributions=("uniform",))
        utilizations = {row["application"]: row["normalized_utilization"] for row in rows}
        assert utilizations["WC"] == pytest.approx(utilizations["PS"])


class TestFig9:
    def test_rows_and_scaling_shape(self):
        rows = run_fig9(sizes=(32, 64), budgets=(2, 8), config=TINY)
        assert len(rows) == 4
        for row in rows:
            assert row["gather_seconds"] > 0
            assert row["color_seconds"] >= 0
        # Fig. 9's claim, colouring is cheaper than gathering, compared by
        # medians of 5 runs on a tree where the gap is wide: at BT(256),
        # k = 16 a gather costs about 6x a colour trace, and a median moves
        # only when most of its runs are slow, where one stalled trace
        # moves a mean.
        config = ExperimentConfig(network_size=256, repetitions=5, seed=11)
        (row,) = run_fig9(sizes=(256,), budgets=(16,), config=config)
        assert row["color_median_seconds"] <= row["gather_median_seconds"]

    def test_gather_time_grows_with_k(self):
        # Medians of 5 runs at BT(256), where a k = 32 gather costs about
        # 3x a k = 2 one; at BT(128) fixed per-call costs narrow that gap.
        config = ExperimentConfig(network_size=256, repetitions=5, seed=11)
        rows = run_fig9(sizes=(256,), budgets=(2, 32), config=config)
        by_budget = {row["k"]: row["gather_median_seconds"] for row in rows}
        assert by_budget[32] >= by_budget[2]


class TestFig10:
    def test_utilization_rows(self):
        rows = run_fig10_utilization(sizes=(32, 64), config=TINY)
        rules = {row["budget_rule"] for row in rows}
        assert rules == set(BUDGET_RULES) | {"all-blue"}
        for row in rows:
            assert 0.0 < row["normalized_utilization"] <= 1.0 + 1e-9

    def test_sqrt_budget_beats_log_budget(self):
        rows = run_fig10_utilization(sizes=(64,), config=TINY)
        values = {row["budget_rule"]: row["normalized_utilization"] for row in rows}
        assert values["sqrt(n)"] <= values["log(n)"] + 1e-9

    def test_required_fraction_rows(self):
        rows = run_fig10_required_fraction(sizes=(64,), targets=(0.3, 0.5), config=TINY)
        assert len(rows) == 2
        by_target = {row["target_reduction"]: row for row in rows}
        assert by_target[0.3]["percent_blue_nodes"] <= by_target[0.5]["percent_blue_nodes"]
        for row in rows:
            assert not math.isnan(row["percent_blue_nodes"])
            assert 0.0 < row["percent_blue_nodes"] <= 100.0


class TestFig11:
    def test_example_rows(self):
        rows = run_fig11_example(size=64, budget=3, seed=5, samples=3)
        by_strategy = {row["strategy"]: row for row in rows}
        assert by_strategy["SOAR"]["utilization"] <= by_strategy["Max(degree)"]["utilization"]
        assert by_strategy["Max(degree)"]["utilization"] <= by_strategy["All red"]["utilization"]
        assert 0.0 <= by_strategy["saving vs Max"]["utilization"] <= 1.0
        assert 0.0 <= by_strategy["saving vs all-red"]["utilization"] <= 1.0

    def test_scaling_rows(self):
        rows = run_fig11_scaling(sizes=(32, 64), config=TINY)
        assert {row["budget_rule"] for row in rows} == set(BUDGET_RULES) | {"all-blue"}
        for row in rows:
            assert 0.0 < row["normalized_utilization"] <= 1.0 + 1e-9
