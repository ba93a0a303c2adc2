"""Unit tests of the stacked scenario-sweep engine (repro.core.sweep).

The bit-exactness *property* suite lives in ``test_sweep_property.py``;
this module pins the deterministic mechanics: sampling order, chunking,
disk-cache resumption, validation errors, and the sensitivity/Pareto
reports.
"""

import json
import re

import numpy as np
import pytest

from repro.core import knobs, memo
from repro.core.scenario import Scenario, evaluate_work
from repro.core.sweep import (
    DEFAULT_RANGES,
    MAX_SWEEP_POINTS,
    ParameterRange,
    SweepSpec,
    _reference_evaluate_stacked,
    evaluate_work_stacked,
    pareto_frontier,
    run_sweep,
    sample_points,
    scenario_at,
    spec_from_params,
    spec_to_params,
    sweep_chunk,
    sweep_sensitivity,
)
from repro.errors import UnitError

NAN, INF = float("nan"), float("inf")


class TestParameterRange:
    def test_axis_endpoints(self):
        axis = ParameterRange("pue", 1.1, 2.0, 4).axis()
        assert axis[0] == 1.1 and axis[-1] == 2.0 and len(axis) == 4

    def test_single_point_axis(self):
        assert list(ParameterRange("pue", 1.5, 1.5, 1).axis()) == [1.5]

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"name": "tdp_watts", "lo": 1.0, "hi": 2.0}, "unknown sweep parameter"),
            ({"name": "pue", "lo": 2.0, "hi": 1.0}, "lo <= hi"),
            pytest.param(
                {"name": "pue", "lo": 0.5, "hi": 2.0},
                re.escape("parameter 'pue' must be in [1.0, 10.0], got 0.5"),
                id="kwargs2-must lie within",
            ),
            pytest.param(
                {"name": "utilization", "lo": 0.5, "hi": 2.0},
                re.escape("parameter 'utilization' must be in [0.01, 1.0], got 2.0"),
                id="kwargs3-must lie within",
            ),
            pytest.param(
                {"name": "pue", "lo": 1.0, "hi": NAN},
                re.escape("parameter 'pue' must be finite, got nan"),
                id="kwargs4-finite",
            ),
            pytest.param(
                {"name": "pue", "lo": 1.0, "hi": 2.0, "points": 0},
                re.escape("parameter 'points' must be in [1, 1000000], got 0"),
                id="kwargs5->= 1 point",
            ),
            ({"name": "pue", "lo": 1.0, "hi": 2.0, "points": 2.5}, "'points' must be an integer"),
            ({"name": "pue", "lo": True, "hi": 2.0}, "'pue' must be a number, got a boolean"),
        ],
    )
    def test_validation_table(self, kwargs, match):
        with pytest.raises(UnitError, match=match):
            ParameterRange(**kwargs)


class TestSweepSpec:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            pytest.param(
                {"busy_device_hours": -1.0},
                re.escape("parameter 'busy_device_hours' must be in [0.0, inf], got -1.0"),
                id="kwargs0-non-negative",
            ),
            pytest.param(
                {"busy_device_hours": NAN},
                re.escape("parameter 'busy_device_hours' must be finite, got nan"),
                id="kwargs1-finite",
            ),
            pytest.param(
                {"busy_device_hours": INF},
                re.escape("parameter 'busy_device_hours' must be finite, got inf"),
                id="kwargs2-finite",
            ),
            ({"ranges": ()}, "at least one"),
            ({"sampling": "random"}, "grid.*sobol|sobol.*grid"),
            pytest.param(
                {"sampling": "sobol", "n_points": 0},
                re.escape("parameter 'n_points' must be in [1, 1000000], got 0"),
                id="kwargs5-n_points",
            ),
            pytest.param(
                {"intensity_kg_per_kwh": -0.1},
                re.escape("parameter 'intensity_kg_per_kwh' must be in [0.0, inf], got -0.1"),
                id="kwargs6-intensity",
            ),
            pytest.param(
                {"devices_per_server": 0},
                re.escape("parameter 'devices_per_server' must be in [1, 1024], got 0"),
                id="kwargs7-devices_per_server",
            ),
            (
                {
                    "ranges": (
                        ParameterRange("pue", 1.0, 2.0, 3),
                        ParameterRange("pue", 1.0, 2.0, 3),
                    )
                },
                "duplicate",
            ),
            (
                {"n_points": 0},
                re.escape("parameter 'n_points' must be in [1, 1000000], got 0"),
            ),
            ({"seed": -1}, re.escape("parameter 'seed' must be in [0, 4294967295], got -1")),
            ({"busy_device_hours": True}, "'busy_device_hours' must be a number, got a boolean"),
            ({"devices_per_server": 2.7}, "'devices_per_server' must be an integer, got 2.7"),
        ],
    )
    def test_validation_table(self, kwargs, match):
        with pytest.raises(UnitError, match=match):
            SweepSpec(**kwargs)

    def test_grid_cap(self):
        big = tuple(
            ParameterRange(name, *knobs.SWEEP_RANGES[name][:2], points=101)
            for name in ("pue", "utilization", "lifetime_years")
        )
        with pytest.raises(UnitError, match="cap"):
            SweepSpec(ranges=big)

    def test_total_points(self):
        assert SweepSpec().total_points() == 6 * 4 * 3 * 4
        assert SweepSpec(sampling="sobol", n_points=77).total_points() == 77

    def test_spec_json_round_trip_is_exact(self):
        spec = SweepSpec(
            busy_device_hours=123.456,
            ranges=(ParameterRange("utilization", 0.313, 0.797, 5),),
            sampling="sobol",
            n_points=99,
            seed=7,
            intensity_kg_per_kwh=0.271828,
        )
        rebuilt = spec_from_params(json.loads(json.dumps(spec_to_params(spec))))
        assert rebuilt == spec

    def test_spec_from_params_rejects_malformed_ranges(self):
        with pytest.raises(UnitError, match="malformed"):
            spec_from_params({"busy_device_hours": 1.0, "ranges": [{"lo": 1.0}]})


class TestSampling:
    def test_grid_raster_order(self):
        spec = SweepSpec(
            ranges=(
                ParameterRange("pue", 1.0, 2.0, 2),
                ParameterRange("utilization", 0.4, 0.8, 3),
            )
        )
        points = sample_points(spec)
        # pue is the slower axis (SWEEP_PARAMETERS order), utilization raster-scans.
        assert list(points["pue"]) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        assert np.allclose(points["utilization"], [0.4, 0.6, 0.8] * 2)

    def test_grid_deterministic(self):
        a, b = sample_points(SweepSpec()), sample_points(SweepSpec())
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_sobol_deterministic_and_seeded(self):
        spec = SweepSpec(sampling="sobol", n_points=65, seed=5)
        a, b = sample_points(spec), sample_points(spec)
        other = sample_points(SweepSpec(sampling="sobol", n_points=65, seed=6))
        for name in a:
            assert np.array_equal(a[name], b[name])
        assert any(not np.array_equal(a[name], other[name]) for name in a)

    def test_sobol_within_bounds(self):
        spec = SweepSpec(
            sampling="sobol",
            n_points=200,
            ranges=(ParameterRange("lifetime_years", 3.0, 5.0, 1),),
        )
        values = sample_points(spec)["lifetime_years"]
        assert len(values) == 200
        assert values.min() >= 3.0 and values.max() <= 5.0


class TestStackedKernel:
    def test_bit_equal_on_default_grid(self):
        spec = SweepSpec()
        points = sample_points(spec)
        base = spec.base_scenario()
        fast = evaluate_work_stacked(spec.busy_device_hours, base, points)
        slow = _reference_evaluate_stacked(spec.busy_device_hours, base, points)
        assert np.array_equal(fast.energy_kwh, slow.energy_kwh)
        assert np.array_equal(fast.operational_kg, slow.operational_kg)
        assert np.array_equal(fast.embodied_kg, slow.embodied_kg)
        assert np.array_equal(fast.total_kg, slow.total_kg)
        assert np.array_equal(fast.embodied_share, slow.embodied_share)

    def test_single_point_matches_evaluate_work(self):
        base = Scenario()
        fast = evaluate_work_stacked(
            500.0, base, {"pue": np.array([1.3]), "utilization": np.array([0.6])}
        )
        scalar = evaluate_work(
            500.0, scenario_at(base, {"pue": 1.3, "utilization": 0.6})
        )
        assert fast.energy_kwh[0] == scalar.energy.kwh
        assert fast.operational_kg[0] == scalar.operational.kg
        assert fast.embodied_kg[0] == scalar.embodied.kg

    @pytest.mark.parametrize(
        "params,match",
        [
            ({"tdp": np.array([1.0])}, "unknown sweep parameter"),
            ({"pue": np.array([[1.0]])}, "1-D"),
            ({"pue": np.array([])}, "non-empty"),
            (
                {"pue": np.array([1.0]), "utilization": np.array([0.5, 0.6])},
                "disagree on length",
            ),
            ({"pue": np.array([1.5, NAN])}, r"'pue' must be finite; point 1"),
            ({"pue": np.array([1.5, INF, INF])}, r"'pue' must be finite; point 1"),
            ({"utilization": np.array([0.5, 0.0])}, r"'utilization'.*point 1"),
            ({"utilization": np.array([1.5])}, r"'utilization'.*point 0"),
            ({"lifetime_years": np.array([4.0, -1.0])}, r"'lifetime_years'.*point 1"),
            ({"intensity_scale": np.array([-0.5])}, r"'intensity_scale'.*point 0"),
        ],
    )
    def test_bad_axis_table(self, params, match):
        with pytest.raises(UnitError, match=match):
            evaluate_work_stacked(100.0, Scenario(), params)

    @pytest.mark.parametrize(
        "busy,match",
        [
            pytest.param(
                -1.0,
                re.escape("parameter 'busy_device_hours' must be in [0.0, inf], got -1.0"),
                id="-1.0-non-negative",
            ),
            pytest.param(
                NAN,
                re.escape("parameter 'busy_device_hours' must be finite, got nan"),
                id="nan-finite",
            ),
            pytest.param(
                INF,
                re.escape("parameter 'busy_device_hours' must be finite, got inf"),
                id="inf-finite",
            ),
        ],
    )
    def test_bad_busy_hours(self, busy, match):
        with pytest.raises(UnitError, match=match):
            evaluate_work_stacked(busy, Scenario(), {"pue": np.array([1.5])})

    def test_no_swept_parameters_rejected(self):
        with pytest.raises(UnitError, match="at least one"):
            evaluate_work_stacked(100.0, Scenario(), {})


class TestRunSweep:
    def test_chunked_equals_unchunked_bit_for_bit(self):
        spec = SweepSpec()
        memo.clear_substrate_caches()
        chunked = run_sweep(spec, chunk_points=37)
        whole = run_sweep(spec, chunk_points=10**6)
        assert np.array_equal(chunked.results.total_kg, whole.results.total_kg)
        assert np.array_equal(chunked.results.energy_kwh, whole.results.energy_kwh)

    def test_progress_monotone_and_complete(self):
        spec = SweepSpec(sampling="sobol", n_points=100)
        seen = []
        run_sweep(spec, chunk_points=30, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(30, 100), (60, 100), (90, 100), (100, 100)]

    def test_resumes_from_disk_cache(self, tmp_path, monkeypatch):
        from repro.core.diskcache import CACHE_DIR_ENV_VAR

        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        spec = SweepSpec(sampling="sobol", n_points=64, seed=11)
        memo.clear_substrate_caches()
        cold = run_sweep(spec, chunk_points=16)
        # A fresh process would hit the disk tier: clearing the in-process
        # tier simulates the restart, and the rerun must be disk-hits only.
        sweep_chunk.cache_clear()
        warm = run_sweep(spec, chunk_points=16)
        info = sweep_chunk.cache_info()
        assert info.disk_hits == 4 and info.misses == 4
        assert np.array_equal(cold.results.total_kg, warm.results.total_kg)

    def test_payload_is_canonical_json(self):
        outcome = run_sweep(SweepSpec(sampling="sobol", n_points=32))
        payload = outcome.to_payload(include_points=True)
        encoded = json.dumps(payload, sort_keys=True)
        assert json.loads(encoded)["headline"]["n_points"] == 32.0
        assert len(payload["points"]["energy_kwh"]) == 32


class TestReports:
    def test_sensitivity_sorted_and_anchored(self):
        spec = SweepSpec()
        bars = sweep_sensitivity(spec)
        swings = [b.swing_kg for b in bars]
        assert swings == sorted(swings, reverse=True)
        # Utilization is the paper's dominant lever over these ranges.
        assert bars[0].parameter == "utilization"
        base_total = evaluate_work(spec.busy_device_hours, spec.base_scenario()).total.kg
        assert all(b.base_total_kg == base_total for b in bars)

    def test_sensitivity_matches_scalar_endpoints(self):
        spec = SweepSpec(ranges=(ParameterRange("pue", 1.1, 1.9, 3),))
        (bar,) = sweep_sensitivity(spec)
        base = spec.base_scenario()
        assert bar.low_total_kg == evaluate_work(
            spec.busy_device_hours, scenario_at(base, {"pue": 1.1})
        ).total.kg
        assert bar.high_total_kg == evaluate_work(
            spec.busy_device_hours, scenario_at(base, {"pue": 1.9})
        ).total.kg

    def test_pareto_hand_crafted(self):
        #               dominated  frontier  frontier  dominated  frontier
        total = np.array([5.0,      4.0,      2.0,      9.0,       1.0])
        speed = np.array([0.9,      0.9,      0.5,      0.4,       0.3])
        frontier = pareto_frontier(total, speed)
        assert list(frontier) == [1, 2, 4]

    def test_pareto_duplicate_points_collapse(self):
        total = np.array([3.0, 3.0, 3.0])
        speed = np.array([0.5, 0.5, 0.5])
        assert list(pareto_frontier(total, speed)) == [0]

    def test_pareto_grid_degenerates_to_single_point(self):
        # Carbon falls monotonically with utilization, so on a separable
        # grid the max-throughput column contains the global minimum and
        # dominates everything (documented in docs/SWEEPS.md).
        outcome = run_sweep(SweepSpec())
        assert len(outcome.pareto_indices()) == 1

    def test_pareto_shape_mismatch(self):
        with pytest.raises(UnitError, match="1-D"):
            pareto_frontier(np.array([1.0]), np.array([1.0, 2.0]))


class TestDefaults:
    def test_default_ranges_are_the_papers_levers(self):
        names = {r.name for r in DEFAULT_RANGES}
        assert names == {"utilization", "pue", "lifetime_years", "intensity_scale"}

    def test_cap_is_sane(self):
        assert MAX_SWEEP_POINTS >= 10_000
