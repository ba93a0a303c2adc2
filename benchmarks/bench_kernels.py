"""Kernel micro-benchmarks: vectorized formulation vs retained reference loop.

Each test times one vectorized kernel against the Python loop it replaced
(a private ``_reference_*`` function, or :mod:`repro.testing.reference`),
asserts they still agree bit-for-bit on the benchmarked workload, and
records the speedup for the ``--json`` document (see
``conftest.record_measurement``).  Workloads are sized to take
milliseconds, so the suite doubles as the CI smoke job.  The kernels that
carry ``reproduce`` (the sample picker, BiasMF training, the Bayesian
surrogate) also assert a speedup floor at about half the measured
speedup, which holds under ``--benchmark-disable`` too.

Run::

    PYTHONPATH=src pytest benchmarks/bench_kernels.py -q --json kernels.json
"""

from __future__ import annotations

import time

import numpy as np

from repro.dataeff.recommenders import BiasMF
from repro.dataeff.synthetic import LatentFactorWorld
from repro.edge import async_fl
from repro.edge.devices import DevicePopulation
from repro.edge.selection import (
    _reference_run_selection,
    run_selection,
    synthesize_population,
)
from repro.fleet.capacity_planning import _reference_capacity_totals
from repro.fleet.cluster import Cluster
from repro.fleet.growth import (
    OptimizationArea,
    _reference_composed_half_gains,
    composed_half_gains,
)
from repro.fleet.multitenancy import (
    _reference_pack_first_fit_decreasing,
    pack_first_fit_decreasing,
)
from repro.fleet.server import AI_TRAINING_SKU
from repro.fleet.utilization import UtilizationDistribution
from repro.optimization.nas import bayesian_search, default_response_surface
from repro.testing.reference import (
    ReferenceBiasMF,
    reference_bayesian_search,
    reference_sample,
)
from repro.workloads.growthtrends import GrowthTrend

#: Speedup floors, about half of what each kernel measured against its
#: reference on a 2-vCPU x86-64 host (about 7x, 2x and 4x).
MIN_SPEEDUP_SAMPLE_PICKS = 3.0
MIN_SPEEDUP_BIASMF_FIT = 1.0
MIN_SPEEDUP_BAYESIAN_SEARCH = 1.8


def _best_of(fn, repeats: int = 5) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _record_pair(record, name: str, fast_fn, slow_fn) -> float:
    """Time both paths, record the row and return the speedup."""
    fast_s = _best_of(fast_fn)
    slow_s = _best_of(slow_fn)
    speedup = slow_s / fast_s if fast_s > 0 else float("inf")
    record(
        f"kernel:{name}",
        vectorized_s=fast_s,
        reference_s=slow_s,
        speedup=speedup,
    )
    return speedup


class TestClusterKernels:
    def test_cluster_power(self, record):
        cluster = Cluster("bench", AI_TRAINING_SKU, 5000)
        rng = np.random.default_rng(0)
        cluster.set_utilizations(rng.uniform(0.0, 1.0, 5000))
        cluster.power_servers(4000)
        assert cluster.current_power().watts == cluster._reference_current_power().watts
        _record_pair(
            record,
            "cluster_power",
            cluster.current_power,
            cluster._reference_current_power,
        )


class TestPackingKernel:
    def test_first_fit_decreasing(self, record):
        rng = np.random.default_rng(1)
        demands = np.clip(rng.beta(2.0, 3.0, 2000), 0.05, 0.95)
        fast = pack_first_fit_decreasing(demands, 4, 1.0)
        slow = _reference_pack_first_fit_decreasing(demands, 4, 1.0)
        assert np.array_equal(fast.device_loads, slow.device_loads)
        _record_pair(
            record,
            "pack_first_fit_decreasing",
            lambda: pack_first_fit_decreasing(demands, 4, 1.0),
            lambda: _reference_pack_first_fit_decreasing(demands, 4, 1.0),
        )


class TestGrowthKernels:
    def test_composed_half_gains(self, record):
        areas = tuple(
            OptimizationArea(f"area-{i}", tuple(0.02 * (j + 1) for j in range(8)))
            for i in range(40)
        )
        assert np.array_equal(
            composed_half_gains(areas), _reference_composed_half_gains(areas)
        )
        _record_pair(
            record,
            "composed_half_gains",
            lambda: composed_half_gains(areas),
            lambda: _reference_composed_half_gains(areas),
        )

    def test_capacity_totals(self, record):
        trend = GrowthTrend("bench", factor=4.0, span_years=3.5)
        years = np.arange(24, dtype=float)
        assert np.array_equal(
            1000 * trend.values_at(years),
            _reference_capacity_totals(1000, years, trend),
        )
        _record_pair(
            record,
            "capacity_totals",
            lambda: 1000 * trend.values_at(years),
            lambda: _reference_capacity_totals(1000, years, trend),
        )


class TestUtilizationKernel:
    def test_fractions_in_bands(self, record):
        dist = UtilizationDistribution(2.0, 3.0)
        bands = tuple((0.01 * i, 0.01 * i + 0.008) for i in range(90))
        assert np.array_equal(
            dist.fractions_in_bands(bands), dist._reference_fractions_in_bands(bands)
        )
        _record_pair(
            record,
            "fractions_in_bands",
            lambda: dist.fractions_in_bands(bands),
            lambda: dist._reference_fractions_in_bands(bands),
        )


class TestEdgeKernels:
    def test_run_sync(self, record):
        population = synthesize_population(n_clients=2000, seed=0)
        args = (population, 400, 32, 7)
        assert async_fl.run_sync(*args) == async_fl._reference_run_sync(*args)
        _record_pair(
            record,
            "fl_run_sync",
            lambda: async_fl.run_sync(*args),
            lambda: async_fl._reference_run_sync(*args),
        )

    def test_run_async(self, record):
        population = synthesize_population(n_clients=2000, seed=0)
        args = (population, 800, 64, 8, 7)
        assert async_fl.run_async(*args) == async_fl._reference_run_async(*args)
        _record_pair(
            record,
            "fl_run_async",
            lambda: async_fl.run_async(*args),
            lambda: async_fl._reference_run_async(*args),
        )

    def test_run_selection(self, record):
        population = synthesize_population(n_clients=3000, seed=0)
        for strategy in ("fastest", "energy-aware"):
            args = (population, strategy, 120, 40, None, 0.8, 7)
            assert run_selection(*args) == _reference_run_selection(*args)
            _record_pair(
                record,
                f"fl_run_selection_{strategy}",
                lambda a=args: run_selection(*a),
                lambda a=args: _reference_run_selection(*a),
            )

    def test_straggler_slowdown(self, record):
        population = DevicePopulation(n_devices=2000, speed_sigma=0.6)
        assert population.straggler_slowdown(
            40, 7
        ) == population._reference_straggler_slowdown(40, 7)
        _record_pair(
            record,
            "straggler_slowdown",
            lambda: population.straggler_slowdown(40, 7),
            lambda: population._reference_straggler_slowdown(40, 7),
        )


class TestReproduceKernels:
    def test_sample_picks(self, record):
        # One of text-halflife's snapshots, without the substrate memo.
        sample = LatentFactorWorld.sample.__wrapped__
        world = LatentFactorWorld(n_users=600, n_items=400, drift_per_year=0.55, seed=0)
        args = (world, 20_000, 0.25, 3.0, 2)
        fast, slow = sample(*args), reference_sample(*args)
        assert np.array_equal(fast.users, slow.users)
        assert np.array_equal(fast.items, slow.items)
        assert np.array_equal(fast.timestamps, slow.timestamps)
        speedup = _record_pair(
            record,
            "sample_picks",
            lambda: sample(*args),
            lambda: reference_sample(*args),
        )
        assert speedup >= MIN_SPEEDUP_SAMPLE_PICKS, f"sample picks {speedup:.2f}x"

    def test_biasmf_fit(self, record):
        world = LatentFactorWorld(n_users=600, n_items=400, drift_per_year=0.55, seed=0)
        data = LatentFactorWorld.sample.__wrapped__(world, 20_000)
        fast = BiasMF(n_epochs=2, seed=0).fit(data)
        slow = ReferenceBiasMF(n_epochs=2, seed=0).fit(data)
        assert np.array_equal(fast._U, slow._U)
        assert np.array_equal(fast._V, slow._V)
        assert np.array_equal(fast._bi, slow._bi)
        speedup = _record_pair(
            record,
            "biasmf_fit",
            lambda: BiasMF(n_epochs=2, seed=0).fit(data),
            lambda: ReferenceBiasMF(n_epochs=2, seed=0).fit(data),
        )
        assert speedup >= MIN_SPEEDUP_BIASMF_FIT, f"BiasMF fit {speedup:.2f}x"

    def test_bayesian_search(self, record):
        args = (default_response_surface, 3, 150)
        fast = bayesian_search(*args, seed=0)
        slow = reference_bayesian_search(*args, seed=0)
        assert np.array_equal(fast.history, slow.history)
        assert np.array_equal(fast.best_x, slow.best_x)
        assert fast.best_value == slow.best_value
        speedup = _record_pair(
            record,
            "bayesian_search",
            lambda: bayesian_search(*args, seed=0),
            lambda: reference_bayesian_search(*args, seed=0),
        )
        assert speedup >= MIN_SPEEDUP_BAYESIAN_SEARCH, f"bayesian search {speedup:.2f}x"
