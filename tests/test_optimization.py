"""Optimization ladder, Pareto tooling, early stopping, NAS tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.quantities import Energy, Power
from repro.errors import UnitError
from repro.optimization.earlystop import (
    EarlyStopPolicy,
    LearningCurveModel,
    run_early_stopping,
    sweep_tolerance,
)
from repro.optimization.ladder import (
    LM_LADDER,
    LM_LADDER_MINIMUM_GAIN,
    OptimizationLadder,
    OptimizationStep,
)
from repro.optimization.nas import (
    bayesian_search,
    default_response_surface,
    grid_search_cost,
    random_search,
    sample_efficiency_gain,
    trials_to_reach,
)
from repro.optimization.pareto import (
    Candidate,
    hypervolume_2d,
    knee_point,
    pareto_front,
    scalarize,
)


class TestLadder:
    def test_paper_total_exceeds_800x(self):
        assert LM_LADDER.total_gain > LM_LADDER_MINIMUM_GAIN
        assert LM_LADDER.total_gain == pytest.approx(812.04, rel=1e-6)

    def test_cumulative_monotone(self):
        gains = [g for _, g in LM_LADDER.cumulative_gains()]
        assert all(a < b for a, b in zip(gains, gains[1:]))

    def test_footprint_series_descends(self):
        series = LM_LADDER.footprint_series(Power.from_mw(10.0))
        watts = [p.watts for _, p in series]
        assert all(a > b for a, b in zip(watts, watts[1:]))
        assert watts[0] / watts[-1] == pytest.approx(LM_LADDER.total_gain)

    def test_energy_saved(self):
        saved = LM_LADDER.energy_saved(Energy(812.04))
        assert saved.kwh == pytest.approx(811.04, rel=1e-3)

    def test_empty_ladder_rejected(self):
        with pytest.raises(UnitError):
            OptimizationLadder(())

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(UnitError):
            OptimizationStep("bad", 0.0)


CANDS = [
    Candidate("cheap-bad", {"energy": 1.0, "error": 0.5}),
    Candidate("mid", {"energy": 2.0, "error": 0.3}),
    Candidate("pricey-good", {"energy": 5.0, "error": 0.1}),
    Candidate("dominated", {"energy": 6.0, "error": 0.4}),
]


class TestPareto:
    def test_front_excludes_dominated(self):
        front = pareto_front(CANDS, ("energy", "error"))
        names = {c.name for c in front}
        assert names == {"cheap-bad", "mid", "pricey-good"}

    def test_scalarize_weights(self):
        best_energy = scalarize(CANDS, {"energy": 1.0, "error": 0.0})
        assert best_energy.name == "cheap-bad"
        best_error = scalarize(CANDS, {"energy": 0.0, "error": 1.0})
        assert best_error.name == "pricey-good"

    def test_knee_point_on_front(self):
        knee = knee_point(CANDS, ("energy", "error"))
        assert knee.name in {"cheap-bad", "mid", "pricey-good"}

    def test_hypervolume_monotone_in_points(self):
        ref = (10.0, 1.0)
        small = hypervolume_2d(np.array([[5.0, 0.5]]), ref)
        more = hypervolume_2d(np.array([[5.0, 0.5], [2.0, 0.8]]), ref)
        assert more > small

    def test_hypervolume_ignores_beyond_reference(self):
        ref = (1.0, 1.0)
        assert hypervolume_2d(np.array([[2.0, 2.0]]), ref) == 0.0

    def test_missing_objective_rejected(self):
        with pytest.raises(UnitError):
            pareto_front(CANDS, ("energy", "latency"))

    @settings(max_examples=20)
    @given(st.integers(0, 10_000))
    def test_front_members_not_dominated(self, seed):
        rng = np.random.default_rng(seed)
        cands = [
            Candidate(f"c{i}", {"a": float(a), "b": float(b)})
            for i, (a, b) in enumerate(rng.uniform(0, 1, (20, 2)))
        ]
        front = pareto_front(cands, ("a", "b"))
        assert front
        for member in front:
            for other in cands:
                dominates = (
                    other.objectives["a"] <= member.objectives["a"]
                    and other.objectives["b"] <= member.objectives["b"]
                    and (
                        other.objectives["a"] < member.objectives["a"]
                        or other.objectives["b"] < member.objectives["b"]
                    )
                )
                assert not dominates


class TestEarlyStop:
    def test_saves_compute_without_regret_at_default(self):
        result = run_early_stopping()
        assert result.compute_saving_fraction > 0.3
        assert result.regret <= 0.05

    def test_tighter_tolerance_saves_more(self):
        model = LearningCurveModel(seed=1)
        sweep = sweep_tolerance(np.array([0.05, 0.4]), model)
        assert sweep[0][1] >= sweep[1][1]

    def test_zero_tolerance_keeps_only_leader(self):
        result = run_early_stopping(policy=EarlyStopPolicy(tolerance=0.0))
        assert result.compute_saving_fraction > 0.5

    def test_policy_validation(self):
        with pytest.raises(UnitError):
            EarlyStopPolicy(check_interval=0)
        with pytest.raises(UnitError):
            EarlyStopPolicy(tolerance=-0.1)

    def test_curves_shape(self):
        curves = LearningCurveModel(n_workflows=8, total_steps=100).curves()
        assert curves.shape == (8, 100)


class TestNAS:
    def test_grid_explodes(self):
        assert grid_search_cost(10, 4).trials == 10_000

    def test_grid_overhead(self):
        assert grid_search_cost(8, 4).overhead_vs(1.0) == 4096.0

    def test_random_search_improves_monotonically(self):
        outcome = random_search(default_response_surface, 3, 50, seed=0)
        assert np.all(np.diff(outcome.history) <= 0)

    def test_bayesian_beats_random_on_median(self):
        gains = sample_efficiency_gain(n_trials=200, n_seeds=3)
        assert gains["efficiency_gain"] > 1.5

    def test_trials_to_reach(self):
        outcome = random_search(default_response_surface, 2, 50, seed=1)
        threshold = outcome.history[-1]
        hit = trials_to_reach(outcome, threshold)
        assert hit is not None and 1 <= hit <= 50

    def test_trials_to_reach_never(self):
        outcome = random_search(default_response_surface, 2, 10, seed=1)
        assert trials_to_reach(outcome, -100.0) is None

    def test_bayesian_needs_trials(self):
        with pytest.raises(UnitError):
            bayesian_search(default_response_surface, 2, n_trials=4, n_init=8)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_dims": 0},
            {"n_dims": -1},
            {"n_init": 0},
            {"n_init": -3},
            {"n_candidates": 0},
            {"n_candidates": -1},
            {"lengthscale": 0.0},
            {"lengthscale": -0.2},
            {"lengthscale": float("nan")},
        ],
        ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_bayesian_rejects_out_of_range_settings(self, overrides):
        kwargs = {"n_dims": 2, "n_trials": 12, "n_init": 4, "n_candidates": 16}
        kwargs.update(overrides)
        with pytest.raises(UnitError):
            bayesian_search(default_response_surface, **kwargs)
