"""Hypothesis strategies for valid accounting substrates.

Every strategy here produces objects that satisfy the library's own
validation (non-negative finite hourly values, PUE >= 1, deadlines that
fit durations, ...), so property tests explore the *interior* of the
valid input space instead of fighting constructor errors.  The property
suite in ``tests/test_invariants_property.py`` maps the named invariants
of :mod:`repro.testing.invariants` over these generators.

Magnitudes are bounded (hourly values up to ~1e6 kWh, horizons up to a
few hundred hours) so a single example stays microseconds-cheap; the laws
being checked are scale-free, so bounded magnitudes lose no generality.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.carbon.embodied import AmortizationPolicy
from repro.carbon.grid import GridTrace, constant_grid_trace, synthesize_grid_trace
from repro.carbon.intensity import CarbonIntensity
from repro.carbon.stream import StreamSpec, Tick, simulate_tick_trace
from repro.core.context import AccountingContext
from repro.core.series import HourlySeries
from repro.edge.devices import DevicePopulation
from repro.edge.selection import ClientPopulation, synthesize_population
from repro.fleet.growth import OptimizationArea
from repro.lifecycle.jobs import EXPERIMENTATION_JOBS
from repro.scheduling.jobs import DeferrableJob
from repro.workloads.growthtrends import GrowthTrend
from repro.workloads.traces import ExperimentStream, experiment_arrivals

#: Bounds shared by the value-level strategies.
MAX_HOURS = 240
MAX_KWH_PER_HOUR = 1e6
MAX_INTENSITY = 1.5  # kgCO2e/kWh — dirtier than any real grid


def finite_floats(
    min_value: float = 0.0, max_value: float = MAX_KWH_PER_HOUR
) -> st.SearchStrategy[float]:
    """Finite, non-NaN floats in ``[min_value, max_value]``."""
    return st.floats(
        min_value=min_value,
        max_value=max_value,
        allow_nan=False,
        allow_infinity=False,
    )


def hour_counts(
    min_hours: int = 1, max_hours: int = MAX_HOURS
) -> st.SearchStrategy[int]:
    """Series/trace lengths in hours."""
    return st.integers(min_value=min_hours, max_value=max_hours)


@st.composite
def hourly_arrays(
    draw,
    min_hours: int = 1,
    max_hours: int = MAX_HOURS,
    min_value: float = 0.0,
    max_value: float = MAX_KWH_PER_HOUR,
) -> np.ndarray:
    """A 1-D array of valid hourly magnitudes."""
    n = draw(hour_counts(min_hours, max_hours))
    values = draw(
        st.lists(finite_floats(min_value, max_value), min_size=n, max_size=n)
    )
    return np.array(values, dtype=float)


@st.composite
def hourly_series(
    draw,
    min_hours: int = 1,
    max_hours: int = MAX_HOURS,
    max_value: float = MAX_KWH_PER_HOUR,
) -> HourlySeries:
    """A valid :class:`~repro.core.series.HourlySeries`."""
    return HourlySeries(draw(hourly_arrays(min_hours, max_hours, 0.0, max_value)))


@st.composite
def aligned_series(
    draw, count: int = 2, min_hours: int = 1, max_hours: int = MAX_HOURS
) -> tuple[HourlySeries, ...]:
    """``count`` series sharing one horizon (safe to add elementwise)."""
    n = draw(hour_counts(min_hours, max_hours))
    return tuple(
        HourlySeries(draw(hourly_arrays(n, n))) for _ in range(count)
    )


def carbon_intensities(
    min_value: float = 1e-3, max_value: float = MAX_INTENSITY
) -> st.SearchStrategy[CarbonIntensity]:
    """Static grid intensities (kgCO2e/kWh), strictly positive."""
    return finite_floats(min_value, max_value).map(
        lambda kg: CarbonIntensity(kg, "generated")
    )


@st.composite
def grid_traces(
    draw,
    min_hours: int = 1,
    max_hours: int = MAX_HOURS,
    kind: str = "any",
) -> GridTrace:
    """An hourly grid trace.

    ``kind`` selects the generator family: ``"raw"`` draws an arbitrary
    positive intensity array (widest coverage), ``"synthetic"`` uses the
    seeded solar/wind synthesizer (realistic structure), ``"constant"``
    the flat baseline, and ``"any"`` mixes all three.
    """
    if kind == "any":
        kind = draw(st.sampled_from(("raw", "synthetic", "constant")))
    if kind == "raw":
        intensity = draw(hourly_arrays(min_hours, max_hours, 1e-3, MAX_INTENSITY))
        zeros = np.zeros(len(intensity))
        return GridTrace(
            solar_share=zeros, wind_share=zeros, intensity_kg_per_kwh=intensity
        )
    hours = draw(hour_counts(min_hours, max_hours))
    if kind == "synthetic":
        return synthesize_grid_trace(hours, seed=draw(st.integers(0, 2**16)))
    if kind == "constant":
        return constant_grid_trace(draw(carbon_intensities()), hours)
    raise ValueError(f"unknown grid kind {kind!r}")


def amortization_policies() -> st.SearchStrategy[AmortizationPolicy]:
    """Valid embodied-amortization policies."""
    return st.builds(
        AmortizationPolicy,
        lifetime_years=finite_floats(0.5, 10.0),
        average_utilization=finite_floats(0.05, 1.0),
        devices_per_server=finite_floats(1.0, 16.0),
        infrastructure_factor=finite_floats(1.0, 2.0),
    )


@st.composite
def accounting_contexts(
    draw,
    min_hours: int = 1,
    max_hours: int = MAX_HOURS,
    source: str = "any",
) -> AccountingContext:
    """A valid context: grid XOR static intensity, PUE >= 1, a policy.

    ``source`` forces the operational driver: ``"grid"``, ``"static"``,
    or ``"any"``.
    """
    if source == "any":
        source = draw(st.sampled_from(("grid", "static")))
    kwargs: dict[str, object] = {
        "pue": draw(finite_floats(1.0, 2.5)),
        "amortization": draw(amortization_policies()),
    }
    if source == "grid":
        kwargs["grid"] = draw(grid_traces(min_hours, max_hours))
    else:
        kwargs["intensity"] = draw(carbon_intensities())
    return AccountingContext(**kwargs)


@st.composite
def deferrable_jobs(
    draw,
    horizon_hours: int = 168,
    min_jobs: int = 1,
    max_jobs: int = 12,
) -> list[DeferrableJob]:
    """A batch of valid deferrable jobs fitting inside ``horizon_hours``."""
    n = draw(st.integers(min_jobs, max_jobs))
    jobs = []
    for i in range(n):
        duration = draw(st.integers(1, max(1, horizon_hours // 4)))
        submit = draw(st.integers(0, horizon_hours - duration))
        deadline = draw(st.integers(submit + duration, horizon_hours))
        jobs.append(
            DeferrableJob(
                job_id=i,
                submit_hour=submit,
                duration_hours=duration,
                power_kw=draw(finite_floats(0.5, 500.0)),
                deadline_hour=deadline,
            )
        )
    return jobs


@st.composite
def experiment_streams(
    draw,
    max_jobs_per_day: int = 40,
    max_days: int = 5,
) -> ExperimentStream:
    """A seeded Poisson research-job arrival stream (may be empty)."""
    return experiment_arrivals(
        EXPERIMENTATION_JOBS,
        jobs_per_day=draw(st.integers(1, max_jobs_per_day)),
        days=draw(st.integers(1, max_days)),
        seed=draw(st.integers(0, 2**16)),
    )


# -- kernel-equivalence generators -------------------------------------------
# Inputs for the bit-exactness suite in ``tests/test_vectorized_kernels.py``:
# each generator draws a *seed* and synthesizes the numeric payload with a
# seeded Generator, so values are continuous (no accidental float ties
# beyond what the quantized generators produce deliberately) and every
# example costs microseconds.


@st.composite
def client_populations(
    draw, min_clients: int = 8, max_clients: int = 400
) -> ClientPopulation:
    """A heterogeneous FL client population (lognormal compute/comm)."""
    return synthesize_population(
        n_clients=draw(st.integers(min_clients, max_clients)),
        seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def quantized_client_populations(
    draw, min_clients: int = 8, max_clients: int = 200
) -> ClientPopulation:
    """A tie-heavy population: durations drawn from a small value grid.

    Exercises the sort-tie handling of the selection kernels, which the
    continuous :func:`client_populations` almost never hits.
    """
    n = draw(st.integers(min_clients, max_clients))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    levels = np.array([30.0, 60.0, 120.0, 240.0])
    return ClientPopulation(
        rng.choice(levels, size=n), rng.choice(levels / 4.0, size=n)
    )


@st.composite
def gpu_demand_arrays(
    draw, min_demands: int = 1, max_demands: int = 300
) -> np.ndarray:
    """Fractional-GPU demands in (0, 1] for the packing kernels."""
    n = draw(st.integers(min_demands, max_demands))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return np.clip(rng.beta(2.0, 3.0, n), 0.05, 0.95)


@st.composite
def device_populations(draw) -> DevicePopulation:
    """A valid client-device fleet for the straggler kernels."""
    return DevicePopulation(
        n_devices=draw(st.integers(2, 400)),
        speed_sigma=draw(finite_floats(0.0, 1.5)),
    )


@st.composite
def optimization_areas(
    draw, min_areas: int = 1, max_areas: int = 6
) -> tuple[OptimizationArea, ...]:
    """Optimization areas sharing one half-year axis (Figure 6 shape)."""
    n_areas = draw(st.integers(min_areas, max_areas))
    n_halves = draw(st.integers(1, 8))
    gains = st.lists(
        finite_floats(0.0, 0.3), min_size=n_halves, max_size=n_halves
    )
    return tuple(
        OptimizationArea(f"area-{i}", tuple(draw(gains))) for i in range(n_areas)
    )


def growth_trends() -> st.SearchStrategy[GrowthTrend]:
    """Exponential growth trends with sane factors and spans."""
    return st.builds(
        GrowthTrend,
        name=st.just("generated"),
        factor=finite_floats(0.1, 30.0),
        span_years=finite_floats(0.25, 8.0),
    )


@st.composite
def fleet_configs(draw) -> dict[str, int]:
    """Sizing knobs for :class:`~repro.fleet.simulator.FleetSimulator`.

    Returned as kwargs (``training_gpus``, ``inference_servers``) so the
    caller can compose them with SKU/datacenter/grid choices.
    """
    return {
        "training_gpus": draw(st.integers(8, 1024)),
        "inference_servers": draw(st.integers(1, 500)),
    }


@st.composite
def parameter_ranges(draw, name: str) -> "ParameterRange":
    """A valid :class:`~repro.core.sweep.ParameterRange` for ``name``."""
    from repro.core.knobs import SWEEP_RANGES
    from repro.core.sweep import ParameterRange

    bound_lo, bound_hi = SWEEP_RANGES[name][:2]
    lo = draw(finite_floats(bound_lo, bound_hi))
    hi = draw(finite_floats(lo, bound_hi))
    return ParameterRange(name, lo, hi, points=draw(st.integers(1, 4)))


@st.composite
def sweep_specs(draw, max_axes: int = 3) -> "SweepSpec":
    """Valid, *small* :class:`~repro.core.sweep.SweepSpec` instances.

    Axis resolutions are capped at 4 points over at most ``max_axes`` of
    the six knobs (grid <= 64 points, Sobol <= 32), so the scalar
    reference path the bit-equality properties loop through stays cheap.
    """
    from repro.core.sweep import SWEEP_PARAMETERS, SweepSpec

    names = draw(
        st.lists(
            st.sampled_from(SWEEP_PARAMETERS),
            min_size=1,
            max_size=max_axes,
            unique=True,
        )
    )
    return SweepSpec(
        busy_device_hours=draw(finite_floats(0.0, 1e6)),
        ranges=tuple(draw(parameter_ranges(name)) for name in names),
        sampling=draw(st.sampled_from(["grid", "sobol"])),
        n_points=draw(st.integers(1, 32)),
        seed=draw(st.integers(0, 2**16)),
        intensity_kg_per_kwh=draw(finite_floats(0.0, MAX_INTENSITY)),
        devices_per_server=draw(st.integers(1, 8)),
    )


@st.composite
def stream_specs(
    draw,
    min_hours: int = 48,
    max_hours: int = 120,
) -> StreamSpec:
    """A valid live-stream spec spanning the feed's failure modes.

    Late-arrival, revision, and stall probabilities are drawn across
    their full valid ranges (including 0, the clean-feed degenerate
    case), so the property suite exercises in-order feeds, heavy
    out-of-order reordering, revision storms, and stalled feeds alike.
    Horizons stay short (a few days) — the streaming laws are
    horizon-free, and :func:`~repro.carbon.stream.simulate_tick_trace`
    is O(hours) per example.
    """
    return StreamSpec(
        hours=draw(hour_counts(min_hours, max_hours)),
        grid_seed=draw(st.integers(0, 2**16)),
        feed_seed=draw(st.integers(0, 2**16)),
        load_kw=draw(finite_floats(0.5, 1e4)),
        load_diurnal_fraction=draw(finite_floats(0.0, 0.9)),
        pue=draw(finite_floats(1.0, 2.5)),
        window_hours=draw(st.sampled_from((1, 6, 24, 48))),
        late_probability=draw(finite_floats(0.0, 0.6)),
        max_late_hours=draw(st.integers(1, 12)),
        revision_probability=draw(finite_floats(0.0, 0.8)),
        max_revision_lag_hours=draw(st.integers(1, 48)),
        revision_noise=draw(finite_floats(0.0, 0.3)),
        stall_probability=draw(finite_floats(0.0, 0.2)),
        max_stall_hours=draw(st.integers(1, 24)),
    )


@st.composite
def tick_streams(
    draw,
    min_hours: int = 48,
    max_hours: int = 120,
) -> tuple[StreamSpec, tuple[Tick, ...]]:
    """``(spec, ticks)``: a seeded live intensity feed and its event log.

    The tick trace carries everything a streaming consumer must survive:
    out-of-order/late arrivals, revisions of recently-observed hours, and
    stall-then-catch-up bursts.  Property tests fold prefixes of it and
    pin the incremental accounting against batch replay.
    """
    spec = draw(stream_specs(min_hours, max_hours))
    return spec, simulate_tick_trace(spec)


def ring_node_names() -> st.SearchStrategy[str]:
    """Plausible replica names: short printable identifiers."""
    return st.text(
        alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
        min_size=1,
        max_size=12,
    )


def ring_node_sets(
    min_size: int = 1, max_size: int = 16
) -> st.SearchStrategy[tuple[str, ...]]:
    """Distinct node-name tuples for :class:`~repro.service.hashring.HashRing`.

    Sized like real fleets (the balance bound is stated for up to 16
    nodes at the default virtual-node count).
    """
    return st.lists(
        ring_node_names(), min_size=min_size, max_size=max_size, unique=True
    ).map(tuple)


def ring_keys() -> st.SearchStrategy[str]:
    """Arbitrary routing keys (canonical query keys are a subset)."""
    return st.text(min_size=0, max_size=64)


@st.composite
def llm_training_specs(draw) -> "LLMTrainingSpec":
    """Valid LLM training runs across the realistic envelope.

    Parameter counts span 100M–200B and token budgets 1B–10T —
    generously past both ends of the published scaling-law ladder — with
    MFU, overheads, and reliability knobs drawn across their full valid
    ranges.  The genai energy laws are scale-free, so these bounds lose
    no generality while keeping each example analytic-cheap.
    """
    from repro.workloads.genai import LLMTrainingSpec

    return LLMTrainingSpec(
        name="generated",
        n_params=draw(finite_floats(1e8, 2e11)),
        n_tokens=draw(finite_floats(1e9, 1e13)),
        mfu=draw(finite_floats(0.05, 0.6)),
        n_accelerators=draw(st.integers(8, 4096)),
        board_power_fraction=draw(finite_floats(0.3, 0.99)),
        checkpoint_interval_hours=draw(finite_floats(0.05, 24.0)),
        checkpoint_cost_hours=draw(finite_floats(0.0, 0.5)),
        mtbf_hours=draw(finite_floats(10.0, 1e4)),
        failed_run_fraction=draw(finite_floats(0.0, 0.5)),
    )


@st.composite
def llm_serving_specs(draw, max_hours: int = 72) -> "LLMServingSpec":
    """Valid LLM serving deployments whose KV cache fits the accelerator.

    Restricted to the 80 GB tensor-core SKU with parameter counts <= 20B
    and contexts <= 4096 so the weights + one request's KV cache always
    fit device memory (the constructor rejects anything else); horizons
    stay at a few diurnal days so ``it_series`` is O(hours) per example.
    """
    from repro.workloads.genai import LLMServingSpec

    return LLMServingSpec(
        name="generated",
        n_params=draw(finite_floats(1e8, 2e10)),
        peak_qps=draw(finite_floats(0.1, 1e4)),
        tokens_per_request=draw(finite_floats(1.0, 2048.0)),
        context_tokens=draw(finite_floats(64.0, 4096.0)),
        batch_size=draw(st.integers(1, 32)),
        peak_tokens_per_s=draw(finite_floats(100.0, 2e4)),
        half_saturation_batch=draw(finite_floats(1.0, 32.0)),
        board_power_fraction=draw(finite_floats(0.3, 0.99)),
        hours=draw(st.integers(24, max_hours)),
        trough_fraction=draw(finite_floats(0.1, 0.95)),
        demand_seed=draw(st.integers(0, 2**16)),
    )


@st.composite
def service_query_params(draw, kind: str) -> dict[str, object]:
    """A whole parameter dict for one service query ``kind``, drawn from its knob table.

    Each knob of :data:`repro.service.queries.KNOBS` is either left out
    (its default applies) or drawn across its full declared range, as a
    JSON number or as its query-string spelling.  Footprint and genai
    queries may name a ``region`` instead of an intensity, and genai
    training queries a ``model``; a sweep draws small ranges
    (:func:`parameter_ranges`) and its sampling.  Every draw obeys the
    tables; cross-knob rules (a schedule horizon past its grid, a KV cache
    past device memory, the service's sweep point cap) may still reject
    it, which the contract allows.
    """
    from repro.carbon.intensity import regions
    from repro.core.sweep import SWEEP_PARAMETERS
    from repro.service.queries import KNOBS
    from repro.workloads.genai import MODEL_INVENTORY

    values: dict[str, object] = {}
    if kind == "genai":
        values["workload"] = draw(st.sampled_from(("llm-training", "llm-serving")))
    if kind == "sweep":
        names = draw(st.lists(st.sampled_from(SWEEP_PARAMETERS), min_size=1, max_size=3, unique=True))
        values["ranges"] = [
            {"name": r.name, "lo": r.lo, "hi": r.hi, "points": r.points}
            for r in (draw(parameter_ranges(name)) for name in names)
        ]
        values["sampling"] = draw(st.sampled_from(("grid", "sobol")))
    for name, (lo, hi, _default, lo_open, integer) in KNOBS[kind].items():
        if name == "busy_device_hours" or draw(st.booleans()):
            if integer:
                value = draw(st.integers(lo, hi))
            else:
                value = draw(st.floats(lo, hi, exclude_min=lo_open, allow_nan=False))
            values[name] = str(value) if draw(st.booleans()) else value
    if kind in ("footprint", "genai") and "intensity_kg_per_kwh" not in values:
        if draw(st.booleans()):
            values["region"] = draw(st.sampled_from(regions()))
    if values.get("workload") == "llm-training" and draw(st.booleans()):
        for name in ("n_params", "n_tokens", "mfu", "n_accelerators"):
            values.pop(name, None)
        values["model"] = draw(st.sampled_from([spec.name for spec in MODEL_INVENTORY]))
    return values
