"""Bit-exactness of the vectorized kernels vs the loops they replaced.

Every kernel that replaced a per-hour/per-device/per-row Python loop
keeps the original loop as a reference: a private ``_reference_*``
function beside the fleet/edge kernels, and :mod:`repro.testing.reference`
for the data-efficiency and search kernels.  This suite proves the numpy
formulation reproduces the loop *bit-for-bit* (``==`` on floats, never
``allclose``) — the property the golden-baseline harness relies on.

The Hypothesis classes carry the ``property`` marker; the deterministic
tables below them (the suite's eight datasets, BiasMF training, the
Bayesian surrogate) run in CI's fast tier too.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataeff.recommenders import BiasMF, _scatter_add_rows
from repro.dataeff.synthetic import _PICK_CHUNK_ROWS, LatentFactorWorld
from repro.edge import async_fl
from repro.edge.devices import DevicePopulation
from repro.edge.selection import _reference_run_selection, run_selection
from repro.fleet.capacity_planning import _reference_capacity_totals
from repro.fleet.cluster import Cluster
from repro.fleet.growth import (
    _reference_composed_half_gains,
    composed_half_gains,
)
from repro.fleet.multitenancy import (
    _reference_pack_first_fit_decreasing,
    pack_first_fit_decreasing,
)
from repro.fleet.server import AI_TRAINING_SKU, STORAGE_SKU, WEB_SKU
from repro.fleet.utilization import UtilizationDistribution
from repro.optimization.nas import (
    _squared_distances,
    bayesian_search,
    default_response_surface,
)
from repro.reliability.sdc_injection import _continue_training
from repro.testing import strategies as strat
from repro.testing.reference import (
    ReferenceBiasMF,
    reference_bayesian_search,
    reference_sample,
)

SKUS = (WEB_SKU, STORAGE_SKU, AI_TRAINING_SKU)


@pytest.mark.property
class TestClusterKernels:
    @given(
        sku_index=st.integers(0, len(SKUS) - 1),
        n_servers=st.integers(1, 96),
        n_powered=st.integers(0, 96),
        seed=st.integers(0, 2**16),
    )
    def test_power_and_utilization_match_server_loop(
        self, sku_index, n_servers, n_powered, seed
    ):
        cluster = Cluster("c", SKUS[sku_index], n_servers)
        rng = np.random.default_rng(seed)
        cluster.set_utilizations(rng.uniform(0.0, 1.0, n_servers))
        cluster.power_servers(min(n_powered, n_servers))
        assert cluster.current_power().watts == cluster._reference_current_power().watts
        assert cluster.mean_utilization() == cluster._reference_mean_utilization()
        assert cluster.powered_count == sum(1 for s in cluster.servers if s.powered)


@pytest.mark.property
class TestPackingKernel:
    @given(
        demands=strat.gpu_demand_arrays(),
        max_tenants=st.integers(1, 10),
        capacity=st.floats(0.5, 1.0, allow_nan=False),
    )
    def test_first_fit_decreasing_matches_reference(
        self, demands, max_tenants, capacity
    ):
        fast = pack_first_fit_decreasing(demands, max_tenants, capacity)
        slow = _reference_pack_first_fit_decreasing(demands, max_tenants, capacity)
        assert fast.n_devices == slow.n_devices
        assert np.array_equal(fast.device_loads, slow.device_loads)
        assert np.array_equal(fast.tenants_per_device, slow.tenants_per_device)


@pytest.mark.property
class TestGrowthKernels:
    @given(areas=strat.optimization_areas())
    def test_composed_half_gains_matches_reference(self, areas):
        assert np.array_equal(
            composed_half_gains(areas), _reference_composed_half_gains(areas)
        )

    @given(
        trend=strat.growth_trends(),
        initial_servers=st.integers(1, 100_000),
        horizon=st.integers(1, 12),
    )
    def test_capacity_totals_match_reference(self, trend, initial_servers, horizon):
        years = np.arange(horizon + 1)
        assert np.array_equal(
            initial_servers * trend.values_at(years),
            _reference_capacity_totals(initial_servers, years, trend),
        )

    @given(trend=strat.growth_trends(), horizon=st.integers(0, 12))
    def test_values_at_matches_scalar_value_at(self, trend, horizon):
        years = np.arange(horizon + 1)
        scalars = np.array([trend.value_at(float(y)) for y in years])
        assert np.array_equal(trend.values_at(years), scalars)


@pytest.mark.property
class TestUtilizationKernel:
    @given(
        alpha=st.floats(0.2, 20.0, allow_nan=False),
        beta=st.floats(0.2, 20.0, allow_nan=False),
        seed=st.integers(0, 2**16),
        n_bands=st.integers(1, 6),
    )
    def test_band_masses_match_scalar_cdf_calls(self, alpha, beta, seed, n_bands):
        dist = UtilizationDistribution(alpha, beta)
        edges = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, 2 * n_bands))
        bands = tuple(
            (float(edges[2 * i]), float(edges[2 * i + 1])) for i in range(n_bands)
        )
        assert np.array_equal(
            dist.fractions_in_bands(bands), dist._reference_fractions_in_bands(bands)
        )


@pytest.mark.property
class TestEdgeFLKernels:
    @given(
        population=strat.client_populations(),
        target_updates=st.integers(1, 800),
        cohort_size=st.integers(1, 48),
        seed=st.integers(0, 2**10),
    )
    def test_run_sync_matches_reference(
        self, population, target_updates, cohort_size, seed
    ):
        cohort_size = min(cohort_size, len(population))
        assert async_fl.run_sync(
            population, target_updates, cohort_size, seed
        ) == async_fl._reference_run_sync(population, target_updates, cohort_size, seed)

    @given(
        population=strat.client_populations(),
        target_updates=st.integers(1, 800),
        concurrency=st.integers(1, 128),
        buffer_size=st.integers(1, 16),
        seed=st.integers(0, 2**10),
    )
    def test_run_async_matches_reference(
        self, population, target_updates, concurrency, buffer_size, seed
    ):
        assert async_fl.run_async(
            population, target_updates, concurrency, buffer_size, seed
        ) == async_fl._reference_run_async(
            population, target_updates, concurrency, buffer_size, seed
        )

    @settings(max_examples=40)
    @given(
        population=st.one_of(
            strat.client_populations(max_clients=200),
            strat.quantized_client_populations(),
        ),
        strategy=st.sampled_from(("random", "fastest", "energy-aware")),
        rounds=st.integers(1, 40),
        cohort_size=st.integers(1, 32),
        availability=st.floats(0.05, 1.0, allow_nan=False),
        seed=st.integers(0, 2**10),
    )
    def test_run_selection_matches_reference(
        self, population, strategy, rounds, cohort_size, availability, seed
    ):
        cohort_size = min(cohort_size, len(population))
        args = (population, strategy, rounds, cohort_size, None, availability, seed)
        assert run_selection(*args) == _reference_run_selection(*args)

    @given(
        population=strat.device_populations(),
        cohort_size=st.integers(1, 64),
        seed=st.integers(0, 2**10),
    )
    def test_straggler_slowdown_matches_reference(self, population, cohort_size, seed):
        assert population.straggler_slowdown(
            cohort_size, seed
        ) == population._reference_straggler_slowdown(cohort_size, seed)


@pytest.mark.property
class TestStragglerTrialShape:
    def test_quantized_speeds_still_exact(self):
        # Degenerate sigma=0 population: every device identical (max ties).
        population = DevicePopulation(n_devices=10, speed_sigma=0.0)
        assert population.straggler_slowdown(4) == pytest.approx(1.0)
        assert population.straggler_slowdown(
            4
        ) == population._reference_straggler_slowdown(4)


# ---------------------------------------------------------------------------
# Data-efficiency and search kernels (references in repro.testing.reference)
# ---------------------------------------------------------------------------
#: The pick kernel without the substrate memo, so every call computes.
_sample = LatentFactorWorld.sample.__wrapped__


def _assert_same_dataset(fast, slow):
    assert np.array_equal(fast.users, slow.users)
    assert np.array_equal(fast.items, slow.items)
    assert np.array_equal(fast.timestamps, slow.timestamps)


#: Row counts on both sides of the picker's chunk boundaries.
_PICK_SIZES = sorted(
    {1, 2047, 2048, 2049, 4097}
    | {_PICK_CHUNK_ROWS - 1, _PICK_CHUNK_ROWS, _PICK_CHUNK_ROWS + 1, 2 * _PICK_CHUNK_ROWS + 1}
)


@pytest.mark.property
class TestSamplePicker:
    @given(
        n_users=st.integers(1, 60),
        n_items=st.integers(1, 50),
        n_factors=st.integers(1, 16),
        drift=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
        window=st.floats(0.05, 2.0),
        time_offset=st.floats(0.0, 5.0),
        seed_offset=st.integers(0, 1000),
        seed=st.integers(0, 2**16),
        n_interactions=st.sampled_from(_PICK_SIZES),
    )
    def test_chunked_picks_match_per_row_loop(
        self, n_users, n_items, n_factors, drift, window, time_offset,
        seed_offset, seed, n_interactions,
    ):
        world = LatentFactorWorld(
            n_users, n_items, n_factors, drift_per_year=drift, seed=seed
        )
        kwargs = dict(
            n_interactions=n_interactions,
            window_years=window,
            time_offset_years=time_offset,
            seed_offset=seed_offset,
        )
        _assert_same_dataset(_sample(world, **kwargs), reference_sample(world, **kwargs))


_HALFLIFE_WORLD = LatentFactorWorld(
    n_users=600, n_items=400, drift_per_year=0.55, seed=0
)

#: Every dataset the experiment suite draws (the worlds and windows of
#: text-sampling, text-halflife's fresh window and five aged snapshots,
#: and ext-sdc), so the fast tier pins the kernel on the goldens' inputs.
SUITE_DATASETS = {
    "text-sampling": (
        LatentFactorWorld(n_users=1500, n_items=500, seed=1),
        dict(n_interactions=100_000, seed_offset=0),
    ),
    "text-halflife-fresh": (
        _HALFLIFE_WORLD,
        dict(n_interactions=20_000, window_years=0.25, time_offset_years=4.0,
             seed_offset=999),
    ),
    **{
        f"text-halflife-age-{age}": (
            _HALFLIFE_WORLD,
            dict(n_interactions=20_000, window_years=0.25,
                 time_offset_years=4.0 - age, seed_offset=i),
        )
        for i, age in enumerate((0.0, 0.5, 1.0, 2.0, 4.0))
    },
    "ext-sdc": (
        LatentFactorWorld(n_users=500, n_items=300, seed=2),
        dict(n_interactions=20_000, seed_offset=0),
    ),
}


@pytest.mark.parametrize("name", sorted(SUITE_DATASETS))
def test_suite_datasets_match_per_row_loop(name):
    world, kwargs = SUITE_DATASETS[name]
    _assert_same_dataset(_sample(world, **kwargs), reference_sample(world, **kwargs))


def _training_data(name):
    if name == "duplicate-heavy":
        # 4 items and 6 users: every 512-row batch repeats each id ~100 times.
        world = LatentFactorWorld(n_users=6, n_items=4, n_factors=3, seed=5)
        return _sample(world, 3000)
    world = LatentFactorWorld(n_users=300, n_items=200, seed=4)
    return _sample(world, 6000, seed_offset=2)


def _assert_same_parameters(fast, slow):
    assert np.array_equal(fast._U, slow._U)
    assert np.array_equal(fast._V, slow._V)
    assert np.array_equal(fast._bi, slow._bi)


@pytest.mark.parametrize("data_name", ["sparse", "duplicate-heavy"])
class TestBiasMFScatter:
    def test_fit_matches_2d_add_at(self, data_name):
        data = _training_data(data_name)
        fast = BiasMF(n_factors=8, n_epochs=2, seed=3).fit(data)
        slow = ReferenceBiasMF(n_factors=8, n_epochs=2, seed=3).fit(data)
        _assert_same_parameters(fast, slow)

    def test_sdc_continue_training_matches_2d_add_at(self, data_name):
        data = _training_data(data_name)
        fast = BiasMF(n_epochs=1, seed=1).fit(data)
        # Corrupted cells, as SDC injection leaves them, drive the logit clip.
        fast._U[0, :3] *= 1e4
        fast._V[-1, -2:] *= -1e4
        slow = ReferenceBiasMF(n_epochs=1, seed=1)
        slow._U, slow._V, slow._bi = fast._U.copy(), fast._V.copy(), fast._bi.copy()
        _continue_training(fast, data, 7)
        _continue_training(slow, data, 7)
        _assert_same_parameters(fast, slow)


class TestFlatScatterGuard:
    ROWS = np.array([0, 2, 2, 5, 0])

    def test_matches_2d_add_at_through_a_row_slice(self):
        values = np.random.default_rng(0).normal(size=(len(self.ROWS), 4))
        parent = np.random.default_rng(1).normal(size=(9, 4))
        expected = parent.copy()
        np.add.at(expected[2:8], self.ROWS, values)
        _scatter_add_rows(parent[2:8], self.ROWS, values)
        assert np.array_equal(parent, expected)

    @pytest.mark.parametrize("layout", ["fortran-order", "column-slice"])
    def test_refuses_a_matrix_without_a_flat_view(self, layout):
        # A flat copy would take every update and leave the matrix unchanged.
        if layout == "fortran-order":
            matrix = np.asfortranarray(np.arange(24.0).reshape(6, 4))
        else:
            matrix = np.arange(48.0).reshape(6, 8)[:, :4]
        before = matrix.copy()
        with pytest.raises(AttributeError):
            _scatter_add_rows(matrix, self.ROWS, np.ones((len(self.ROWS), 4)))
        assert np.array_equal(matrix, before)


class TestBayesianSurrogate:
    @staticmethod
    def _assert_same_outcome(fast, slow):
        assert np.array_equal(fast.history, slow.history)
        assert np.array_equal(fast.best_x, slow.best_x)
        assert fast.best_value == slow.best_value

    @pytest.mark.parametrize("n_dims", range(1, 11))
    def test_distances_match_the_tensor_sum(self, n_dims):
        # numpy's sum adds up to 7 terms left to right and 8 or more
        # pairwise; an ulp of drift rarely flips a pick, so compare d2 itself.
        rng = np.random.default_rng(n_dims)
        candidates = rng.uniform(size=(64, n_dims))
        seen = rng.uniform(size=(37, n_dims))
        assert np.array_equal(
            _squared_distances(candidates, seen),
            np.sum((candidates[:, None, :] - seen[None, :, :]) ** 2, axis=2),
        )

    @pytest.mark.parametrize("n_dims", range(1, 11))
    def test_matches_reference_on_both_sides_of_the_pairwise_sum_switch(self, n_dims):
        kwargs = dict(n_init=4, n_candidates=48, seed=n_dims)
        self._assert_same_outcome(
            bayesian_search(default_response_surface, n_dims, 40, **kwargs),
            reference_bayesian_search(default_response_surface, n_dims, 40, **kwargs),
        )

    def test_matches_reference_at_the_ablation_settings(self):
        self._assert_same_outcome(
            bayesian_search(default_response_surface, 3, 150, seed=4),
            reference_bayesian_search(default_response_surface, 3, 150, seed=4),
        )


REFERENCE_IMPORT = re.compile(
    r"^\s*(?:import\s+repro\.testing\.reference\b"
    r"|from\s+repro\.testing\.reference\s+import\b"
    r"|from\s+repro\.testing\s+import\s+[^\n]*\breference\b)",
    re.MULTILINE,
)


def test_no_shipped_module_imports_the_reference_loops():
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if path != src / "testing" / "reference.py"
        and REFERENCE_IMPORT.search(path.read_text())
    ]
    assert not offenders, f"shipped modules import repro.testing.reference: {offenders}"
