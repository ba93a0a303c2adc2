"""Substrate memoization tests: shared traces are cached, frozen, correct."""

import warnings

import numpy as np
import pytest

from repro.carbon.grid import constant_grid_trace, synthesize_grid_trace
from repro.carbon.intensity import CarbonIntensity
from repro.core import memo
from repro.core.memo import clear_substrate_caches, memoized_substrate, substrate_cache_info
from repro.lifecycle.jobs import EXPERIMENTATION_JOBS
from repro.workloads.traces import diurnal_demand, experiment_arrivals


class TestMemoizedSubstrate:
    def test_identical_calls_share_one_object(self):
        synthesize_grid_trace.cache_clear()
        a = synthesize_grid_trace(168, seed=123)
        b = synthesize_grid_trace(168, seed=123)
        assert a is b
        info = synthesize_grid_trace.cache_info()
        assert info.misses == 1
        assert info.hits == 1

    def test_different_args_do_not_collide(self):
        a = synthesize_grid_trace(168, seed=1)
        b = synthesize_grid_trace(168, seed=2)
        assert a is not b
        assert not np.allclose(a.intensity_kg_per_kwh, b.intensity_kg_per_kwh)

    def test_cached_arrays_are_frozen(self):
        trace = synthesize_grid_trace(72, seed=5)
        with pytest.raises(ValueError):
            trace.intensity_kg_per_kwh[0] = 0.0
        demand = diurnal_demand(48, seed=3)
        with pytest.raises(ValueError):
            demand[0] = 99.0

    def test_demand_and_arrivals_cached(self):
        diurnal_demand.cache_clear()
        experiment_arrivals.cache_clear()
        assert diurnal_demand(168, seed=0) is diurnal_demand(168, seed=0)
        stream = experiment_arrivals(EXPERIMENTATION_JOBS, 10.0, 7.0, seed=0)
        assert experiment_arrivals(EXPERIMENTATION_JOBS, 10.0, 7.0, seed=0) is stream

    def test_constant_trace_cached_by_intensity_value(self):
        a = constant_grid_trace(CarbonIntensity(0.4), 24)
        b = constant_grid_trace(CarbonIntensity(0.4), 24)
        c = constant_grid_trace(CarbonIntensity(0.5), 24)
        assert a is b
        assert a is not c

    def test_registry_and_clear(self):
        synthesize_grid_trace(24, seed=77)
        info = substrate_cache_info()
        assert "synthesize_grid_trace" in info
        assert info["synthesize_grid_trace"].size >= 1
        clear_substrate_caches()
        assert substrate_cache_info()["synthesize_grid_trace"].size == 0

    def test_unhashable_args_bypass_cache(self):
        calls = []

        @memoized_substrate
        def build(x):
            calls.append(x)
            return np.asarray(x, dtype=float)

        with pytest.warns(RuntimeWarning, match="bypass"):
            build([1.0, 2.0])
        build([1.0, 2.0])  # list is unhashable -> no caching, no error
        assert len(calls) == 2
        build((1.0, 2.0))
        build((1.0, 2.0))
        assert len(calls) == 3
        info = build.cache_info()
        assert info.bypasses == 2
        assert info.misses == 1 and info.hits == 1

    def test_bypass_warning_fires_once_per_substrate(self):
        @memoized_substrate
        def build_other(x):
            return np.asarray(x, dtype=float)

        with pytest.warns(RuntimeWarning, match="build_other"):
            build_other([1.0])
        # Second bypass of the same substrate stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_other([2.0])
        assert build_other.cache_info().bypasses == 2


class TestCollectorStats:
    def test_collector_counts_equal_the_snapshot_delta(self, tmp_path, monkeypatch):
        """A collector's counts are the rows two snapshots would give."""
        monkeypatch.setenv("SUSTAINABLE_AI_CACHE_DIR", str(tmp_path))

        @memoized_substrate
        def build_counted(x):
            return np.asarray(x, dtype=float)

        synthesize_grid_trace(48, seed=4242)
        before = memo.stats_snapshot()
        with memo.collect_substrates() as collector:
            build_counted((1.0,))
            build_counted((1.0,))
            build_counted((2.0,))
            with pytest.warns(RuntimeWarning, match="bypass"):
                build_counted([3.0])
            synthesize_grid_trace(48, seed=4242)
        assert collector.stats == memo.stats_delta(before, memo.stats_snapshot())
        assert collector.stats[build_counted.__qualname__] == {
            "hits": 1,
            "misses": 2,
            "bypasses": 1,
            "disk_hits": 0,
            "disk_misses": 2,
            "disk_errors": 0,
        }
        assert collector.stats["synthesize_grid_trace"]["hits"] == 1
