"""Named, machine-checkable physical laws of the carbon accounting.

The paper's accounting rests on a small set of physical invariants —
energy is conserved under composition, emissions are linear in energy and
in grid intensity, PUE only amplifies, ``total = operational + embodied``
— and after PR 2 funneled every ``kWh x intensity`` multiplication
through ``repro.core``, one latent engine bug would skew all experiments
at once.  This module makes those laws *executable* in two forms:

* **Substrate invariants** (:data:`SUBSTRATE_INVARIANTS`): named functions
  over concrete accounting substrates (series, grids, contexts, job
  batches).  Each raises :class:`InvariantViolation` when the law fails.
  The Hypothesis property suite (``tests/test_invariants_property.py``)
  maps them over the generators in :mod:`repro.testing.strategies`.
* **Result invariants** (:data:`RESULT_INVARIANTS`): checks over one
  :class:`~repro.experiments.base.ExperimentResult` — finiteness,
  dimensional sign conventions, payload round-trip stability.  The CLI
  flag ``sustainable-ai run/verify --check-invariants`` sweeps them over
  every registered experiment's headline metrics.

Both registries are keyed by a stable kebab-case name so reports, docs,
and tests refer to one vocabulary (``docs/TESTING.md`` lists them).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from repro.core.report import format_table
from repro.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.carbon.embodied import AmortizationPolicy
    from repro.carbon.grid import GridTrace
    from repro.carbon.intensity import CarbonIntensity
    from repro.carbon.stream import StreamSpec
    from repro.core.context import AccountingContext
    from repro.core.series import HourlySeries
    from repro.core.sweep import SweepSpec
    from repro.experiments.base import ExperimentResult
    from repro.scheduling.jobs import DeferrableJob
    from repro.workloads.traces import ExperimentStream

__all__ = [
    "InvariantViolation",
    "InvariantReport",
    "Violation",
    "REL_TOL",
    "SUBSTRATE_INVARIANTS",
    "RESULT_INVARIANTS",
    "substrate_invariant",
    "result_invariant",
    "substrate_invariant_names",
    "result_invariant_names",
    "check_result",
    "check_results",
]


#: Relative tolerance for "equal" floating-point comparisons.  The laws
#: are exact in real arithmetic; 1e-9 absorbs vectorization reordering.
REL_TOL = 1e-9

SUBSTRATE_INVARIANTS: dict[str, Callable] = {}
RESULT_INVARIANTS: dict[str, Callable[["ExperimentResult"], list["Violation"]]] = {}


def substrate_invariant(name: str) -> Callable[[Callable], Callable]:
    """Register a named physical law over accounting substrates."""

    def register(func: Callable) -> Callable:
        if name in SUBSTRATE_INVARIANTS:
            raise ValueError(f"duplicate substrate invariant {name!r}")
        func.invariant_name = name  # type: ignore[attr-defined]
        SUBSTRATE_INVARIANTS[name] = func
        return func

    return register


def result_invariant(name: str) -> Callable[[Callable], Callable]:
    """Register a named check over one experiment result."""

    def register(func: Callable) -> Callable:
        if name in RESULT_INVARIANTS:
            raise ValueError(f"duplicate result invariant {name!r}")
        func.invariant_name = name  # type: ignore[attr-defined]
        RESULT_INVARIANTS[name] = func
        return func

    return register


def substrate_invariant_names() -> tuple[str, ...]:
    """All registered substrate-invariant names, sorted."""
    return tuple(sorted(SUBSTRATE_INVARIANTS))


def result_invariant_names() -> tuple[str, ...]:
    """All registered result-invariant names, sorted."""
    return tuple(sorted(RESULT_INVARIANTS))


def _require(condition: bool, name: str, detail: str) -> None:
    if not condition:
        raise InvariantViolation(f"invariant {name!r} violated: {detail}")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Substrate invariants: conservation and additivity
# ---------------------------------------------------------------------------


@substrate_invariant("energy-conservation-additivity")
def check_energy_additivity(a: "HourlySeries", b: "HourlySeries") -> None:
    """Integrating a sum equals the sum of integrals (energy conserves)."""
    _require(
        _close((a + b).integrate().kwh, a.integrate().kwh + b.integrate().kwh),
        "energy-conservation-additivity",
        f"integrate(a+b)={(a + b).integrate().kwh} != "
        f"{a.integrate().kwh} + {b.integrate().kwh}",
    )


@substrate_invariant("emissions-additivity")
def check_emissions_additivity(
    a: "HourlySeries", b: "HourlySeries", grid: "GridTrace"
) -> None:
    """Emissions of a summed load equal the sum of per-load emissions."""
    combined = (a + b).emissions(grid).kg
    split = a.emissions(grid).kg + b.emissions(grid).kg
    _require(
        _close(combined, split),
        "emissions-additivity",
        f"emissions(a+b)={combined} != emissions(a)+emissions(b)={split}",
    )


@substrate_invariant("operational-embodied-additivity")
def check_total_footprint_additivity(
    context: "AccountingContext",
    it_series: "HourlySeries",
    manufacturing_kg: float,
    server_hours: float,
) -> None:
    """``total = operational + embodied`` — the paper's central identity."""
    from repro.core.quantities import Carbon

    operational = context.operational(it_series)
    embodied = context.amortized_embodied(Carbon(manufacturing_kg), server_hours)
    total = operational + embodied
    _require(
        _close(total.kg, operational.kg + embodied.kg),
        "operational-embodied-additivity",
        f"total={total.kg} != operational={operational.kg} + embodied={embodied.kg}",
    )


@substrate_invariant("embodied-amortization-linearity")
def check_amortization_linearity(
    policy: "AmortizationPolicy",
    manufacturing_kg: float,
    hours_a: float,
    hours_b: float,
) -> None:
    """Amortized embodied carbon is additive (and monotone) in hours."""
    from repro.core.quantities import Carbon

    manufacturing = Carbon(manufacturing_kg)
    rate = policy.rate_per_utilized_hour(manufacturing)
    combined = rate * (hours_a + hours_b)
    split = rate * hours_a + rate * hours_b
    _require(
        _close(combined, split),
        "embodied-amortization-linearity",
        f"amortized(h1+h2)={combined} != amortized(h1)+amortized(h2)={split}",
    )
    _require(
        combined + 1e-12 >= rate * hours_a,
        "embodied-amortization-linearity",
        "amortized carbon decreased when hours increased",
    )


# ---------------------------------------------------------------------------
# Substrate invariants: linearity and monotonicity
# ---------------------------------------------------------------------------


@substrate_invariant("emissions-linearity-in-load")
def check_emissions_linear_in_load(
    series: "HourlySeries", grid: "GridTrace", factor: float
) -> None:
    """Scaling the load scales emissions by the same factor."""
    base = series.emissions(grid).kg
    scaled = series.scale(factor).emissions(grid).kg
    _require(
        _close(scaled, factor * base),
        "emissions-linearity-in-load",
        f"emissions({factor}*s)={scaled} != {factor}*emissions(s)={factor * base}",
    )


@substrate_invariant("emissions-linearity-in-intensity")
def check_emissions_linear_in_intensity(
    series: "HourlySeries", grid: "GridTrace", factor: float
) -> None:
    """Scaling every hour's grid intensity scales emissions identically."""
    from repro.carbon.grid import GridTrace

    scaled_grid = GridTrace(
        solar_share=grid.solar_share,
        wind_share=grid.wind_share,
        intensity_kg_per_kwh=np.asarray(grid.intensity_kg_per_kwh) * factor,
        params=grid.params,
    )
    base = series.emissions(grid).kg
    scaled = series.emissions(scaled_grid).kg
    _require(
        _close(scaled, factor * base),
        "emissions-linearity-in-intensity",
        f"emissions on {factor}x grid = {scaled} != {factor * base}",
    )


@substrate_invariant("emissions-monotone-in-intensity")
def check_emissions_monotone_in_intensity(
    series: "HourlySeries", grid: "GridTrace", bump: np.ndarray
) -> None:
    """A pointwise-dirtier grid never lowers emissions."""
    from repro.carbon.grid import GridTrace

    intensity = np.asarray(grid.intensity_kg_per_kwh)
    bump = np.abs(np.asarray(bump, dtype=float))[: len(intensity)]
    padded = np.zeros(len(intensity))
    padded[: len(bump)] = bump
    dirtier = GridTrace(
        solar_share=grid.solar_share,
        wind_share=grid.wind_share,
        intensity_kg_per_kwh=intensity + padded,
        params=grid.params,
    )
    lo, hi = series.emissions(grid).kg, series.emissions(dirtier).kg
    _require(
        hi >= lo - abs(lo) * REL_TOL,
        "emissions-monotone-in-intensity",
        f"dirtier grid lowered emissions: {hi} < {lo}",
    )


@substrate_invariant("emissions-monotone-in-load")
def check_emissions_monotone_in_load(
    series: "HourlySeries", extra: "HourlySeries", grid: "GridTrace"
) -> None:
    """A pointwise-larger load never lowers emissions."""
    lo = series.emissions(grid).kg
    hi = (series + extra).emissions(grid).kg
    _require(
        hi >= lo - abs(lo) * REL_TOL,
        "emissions-monotone-in-load",
        f"larger load lowered emissions: {hi} < {lo}",
    )


@substrate_invariant("pue-amplification")
def check_pue_amplification(
    context: "AccountingContext", it_series: "HourlySeries"
) -> None:
    """PUE >= 1 scales operational carbon by exactly PUE, never below IT."""
    from dataclasses import replace

    operational = context.operational(it_series).kg
    unit_pue = replace(context, pue=1.0).operational(it_series).kg
    _require(
        _close(operational, context.pue * unit_pue),
        "pue-amplification",
        f"operational={operational} != pue*it-level={context.pue * unit_pue}",
    )
    _require(
        operational >= unit_pue - abs(unit_pue) * REL_TOL,
        "pue-amplification",
        f"facility carbon {operational} below IT-level carbon {unit_pue}",
    )


# ---------------------------------------------------------------------------
# Substrate invariants: unit-dimension consistency
# ---------------------------------------------------------------------------


@substrate_invariant("static-grid-equivalence")
def check_static_grid_equivalence(
    series: "HourlySeries", intensity: "CarbonIntensity"
) -> None:
    """A flat grid trace and a static intensity are the same physics."""
    from repro.carbon.grid import constant_grid_trace
    from repro.core.context import AccountingContext

    grid = constant_grid_trace(intensity, len(series))
    via_trace = series.emissions(grid).kg
    via_static = AccountingContext(intensity=intensity).operational(series).kg
    via_product = series.total() * intensity.kg_per_kwh
    _require(
        _close(via_trace, via_product) and _close(via_static, via_product),
        "static-grid-equivalence",
        f"trace={via_trace}, static={via_static}, product={via_product} disagree",
    )


@substrate_invariant("integration-exactness")
def check_integration_exactness(series: "HourlySeries") -> None:
    """The hourly Riemann sum is exact: integrate == sum of hourly kWh."""
    _require(
        _close(series.integrate().kwh, float(np.sum(series.values))),
        "integration-exactness",
        f"integrate()={series.integrate().kwh} != sum={float(np.sum(series.values))}",
    )


@substrate_invariant("emissions-bounded-by-intensity-extremes")
def check_emissions_bounds(series: "HourlySeries", grid: "GridTrace") -> None:
    """Emissions lie within [min, max] intensity times total energy."""
    intensity = np.asarray(grid.intensity_kg_per_kwh)
    total = series.total()
    kg = series.emissions(grid).kg
    lo = float(np.min(intensity)) * total
    hi = float(np.max(intensity)) * total
    _require(
        lo - abs(lo) * REL_TOL - 1e-12 <= kg <= hi + abs(hi) * REL_TOL + 1e-12,
        "emissions-bounded-by-intensity-extremes",
        f"emissions {kg} outside [{lo}, {hi}]",
    )


# ---------------------------------------------------------------------------
# Substrate invariants: metamorphic relations
# ---------------------------------------------------------------------------


@substrate_invariant("trace-doubling-doubles-energy")
def check_trace_doubling(series: "HourlySeries", grid: "GridTrace") -> None:
    """Doubling a trace doubles integrated kWh — and, when the grid spans
    exactly the series horizon, doubles emissions too."""
    doubled = series.tile_to(2 * len(series))
    _require(
        _close(doubled.integrate().kwh, 2.0 * series.integrate().kwh),
        "trace-doubling-doubles-energy",
        f"tile_to(2n) energy {doubled.integrate().kwh} != "
        f"2x{series.integrate().kwh}",
    )
    if len(grid) == len(series):
        _require(
            _close(doubled.emissions(grid).kg, 2.0 * series.emissions(grid).kg),
            "trace-doubling-doubles-energy",
            "doubling a horizon-aligned trace did not double emissions",
        )


@substrate_invariant("carbon-aware-never-worse")
def check_carbon_aware_never_worse(
    jobs: list["DeferrableJob"], grid: "GridTrace", horizon_hours: int
) -> None:
    """Uncapacitated carbon-aware scheduling never emits more than FIFO.

    With unlimited capacity the immediate start is always feasible, so the
    greedy per-job minimum is bounded by the immediate placement.
    """
    from repro.scheduling.carbon_aware import schedule_carbon_aware, schedule_immediate

    fifo = schedule_immediate(jobs, grid, horizon_hours).total_carbon.kg
    aware = schedule_carbon_aware(jobs, grid, horizon_hours).total_carbon.kg
    _require(
        aware <= fifo + abs(fifo) * REL_TOL,
        "carbon-aware-never-worse",
        f"carbon-aware schedule emitted more than FIFO: {aware} > {fifo}",
    )


@substrate_invariant("saving-invariant-under-intensity-scaling")
def check_saving_scale_invariance(
    jobs: list["DeferrableJob"], grid: "GridTrace", horizon_hours: int, factor: float
) -> None:
    """Uniformly scaling the grid leaves the *fractional* saving unchanged
    (emissions are linear in intensity, so the ratio cancels)."""
    from repro.carbon.grid import GridTrace
    from repro.scheduling.carbon_aware import (
        carbon_saving,
        schedule_carbon_aware,
        schedule_immediate,
    )

    scaled_grid = GridTrace(
        solar_share=grid.solar_share,
        wind_share=grid.wind_share,
        intensity_kg_per_kwh=np.asarray(grid.intensity_kg_per_kwh) * factor,
        params=grid.params,
    )
    base = carbon_saving(
        schedule_immediate(jobs, grid, horizon_hours),
        schedule_carbon_aware(jobs, grid, horizon_hours),
    )
    scaled = carbon_saving(
        schedule_immediate(jobs, scaled_grid, horizon_hours),
        schedule_carbon_aware(jobs, scaled_grid, horizon_hours),
    )
    _require(
        math.isclose(base, scaled, rel_tol=1e-6, abs_tol=1e-9),
        "saving-invariant-under-intensity-scaling",
        f"saving changed under uniform intensity scaling: {base} -> {scaled}",
    )


@substrate_invariant("fifo-busy-gpu-conservation")
def check_fifo_busy_conservation(
    stream: "ExperimentStream", total_gpus: int, horizon_hours: int
) -> None:
    """Scheduled busy-GPU hours equal the GPU-hours of placed jobs.

    Energy conservation across fleet -> scheduler: every busy GPU-hour the
    cluster reports must be attributable to exactly one placed job record
    (clipped to the horizon), and utilization can never exceed capacity.
    """
    from repro.fleet.scheduler import schedule_fifo

    schedule = schedule_fifo(stream, total_gpus, horizon_hours)
    busy_total = float(np.sum(schedule.busy_gpus))
    attributed = sum(
        record.n_gpus * max(0.0, min(record.end_hour, float(horizon_hours)) - record.start_hour)
        for record in schedule.records
    )
    # Busy hours are sampled at integer hours while jobs end at fractional
    # hours, so per-record attribution uses the sampled convention: a GPU
    # is busy during hour h iff start <= h < end.
    sampled = sum(
        record.n_gpus
        * sum(
            1
            for h in range(horizon_hours)
            if record.start_hour <= h < record.end_hour
        )
        for record in schedule.records
    )
    _require(
        _close(busy_total, float(sampled)),
        "fifo-busy-gpu-conservation",
        f"busy GPU-hours {busy_total} != attributed job hours {sampled} "
        f"(continuous attribution {attributed})",
    )
    _require(
        float(np.max(schedule.busy_gpus, initial=0.0)) <= total_gpus + 1e-9,
        "fifo-busy-gpu-conservation",
        "busy GPUs exceeded cluster capacity",
    )


# ---------------------------------------------------------------------------
# Substrate invariants: the stacked sweep engine
# ---------------------------------------------------------------------------


def _sweep_axis(spec: "SweepSpec", name: str, points: int = 16) -> np.ndarray:
    """A sorted probe axis for ``name``: the spec's own range when swept,
    the full spec-level bounds otherwise."""
    from repro.core.knobs import SWEEP_RANGES

    lo, hi = next(
        ((r.lo, r.hi) for r in spec.ranges if r.name == name),
        SWEEP_RANGES[name][:2],
    )
    return np.linspace(lo, hi, points)


@substrate_invariant("sweep-matches-scalar-path")
def check_sweep_matches_scalar_path(spec: "SweepSpec") -> None:
    """The stacked kernel is **bit-equal** to the scalar reference loop.

    No tolerance: identical IEEE 754 operation ordering must give
    identical bits on every point of the spec's sample set.
    """
    from repro.core.sweep import (
        _reference_evaluate_stacked,
        evaluate_work_stacked,
        sample_points,
    )

    points = sample_points(spec)
    base = spec.base_scenario()
    fast = evaluate_work_stacked(spec.busy_device_hours, base, points)
    slow = _reference_evaluate_stacked(spec.busy_device_hours, base, points)
    for field in ("energy_kwh", "operational_kg", "embodied_kg", "total_kg"):
        stacked, reference = getattr(fast, field), getattr(slow, field)
        _require(
            bool(np.array_equal(stacked, reference)),
            "sweep-matches-scalar-path",
            f"{field} diverged from the scalar path at point(s) "
            f"{np.flatnonzero(stacked != reference)[:5].tolist()}",
        )


@substrate_invariant("sweep-monotone-in-pue")
def check_sweep_monotone_in_pue(spec: "SweepSpec") -> None:
    """Raising PUE (all else fixed) never lowers the total footprint."""
    from repro.core.sweep import evaluate_work_stacked

    axis = _sweep_axis(spec, "pue")
    total = evaluate_work_stacked(
        spec.busy_device_hours, spec.base_scenario(), {"pue": axis}
    ).total_kg
    _require(
        bool(np.all(np.diff(total) >= -np.abs(total[:-1]) * REL_TOL)),
        "sweep-monotone-in-pue",
        f"total fell as PUE rose: {total.tolist()}",
    )


@substrate_invariant("sweep-monotone-in-intensity")
def check_sweep_monotone_in_intensity(spec: "SweepSpec") -> None:
    """A dirtier grid (larger intensity scale) never lowers the total."""
    from repro.core.sweep import evaluate_work_stacked

    axis = _sweep_axis(spec, "intensity_scale")
    total = evaluate_work_stacked(
        spec.busy_device_hours, spec.base_scenario(), {"intensity_scale": axis}
    ).total_kg
    _require(
        bool(np.all(np.diff(total) >= -np.abs(total[:-1]) * REL_TOL)),
        "sweep-monotone-in-intensity",
        f"total fell as grid intensity rose: {total.tolist()}",
    )


@substrate_invariant("sweep-inverse-utilization-scaling")
def check_sweep_inverse_utilization_scaling(spec: "SweepSpec") -> None:
    """Both footprint components scale ~1/utilization, so ``total x u``
    is constant across a utilization axis (the Figure 9 mechanism)."""
    from repro.core.sweep import evaluate_work_stacked

    axis = _sweep_axis(spec, "utilization")
    total = evaluate_work_stacked(
        spec.busy_device_hours, spec.base_scenario(), {"utilization": axis}
    ).total_kg
    product = total * axis
    _require(
        bool(np.all(np.isclose(product, product[0], rtol=REL_TOL, atol=1e-12))),
        "sweep-inverse-utilization-scaling",
        f"total x utilization is not constant: {product.tolist()}",
    )


@substrate_invariant("sweep-embodied-additivity")
def check_sweep_embodied_additivity(spec: "SweepSpec") -> None:
    """``total = operational + embodied`` pointwise, and both components
    are linear in the work quantum (halving the work halves each)."""
    from repro.core.sweep import evaluate_work_stacked, sample_points

    points = sample_points(spec)
    base = spec.base_scenario()
    whole = evaluate_work_stacked(spec.busy_device_hours, base, points)
    _require(
        bool(
            np.array_equal(
                whole.total_kg, whole.operational_kg + whole.embodied_kg
            )
        ),
        "sweep-embodied-additivity",
        "total_kg is not operational + embodied",
    )
    half = evaluate_work_stacked(spec.busy_device_hours / 2.0, base, points)
    for field in ("operational_kg", "embodied_kg"):
        twice = getattr(half, field) * 2.0
        _require(
            bool(
                np.all(
                    np.isclose(
                        twice, getattr(whole, field), rtol=REL_TOL, atol=1e-12
                    )
                )
            ),
            "sweep-embodied-additivity",
            f"{field} is not linear in the work quantum",
        )


# ---------------------------------------------------------------------------
# Substrate invariants: streaming incremental accounting
# ---------------------------------------------------------------------------


@substrate_invariant("stream-matches-batch-replay")
def check_stream_matches_batch_replay(spec: "StreamSpec", cut_fraction: float) -> None:
    """The O(Δ) incremental fold is **bit-equal** to batch replay.

    At an arbitrary mid-stream checkpoint and at the end of the feed,
    the running :class:`~repro.core.incremental.IncrementalAccounting`
    snapshot must ``==`` a full
    :func:`~repro.core.incremental.reference_replay` of the same tick
    prefix — exact float equality, no tolerance, late arrivals and
    revisions included.
    """
    from repro.carbon.stream import load_profile, simulate_tick_trace
    from repro.core.incremental import IncrementalAccounting, reference_replay

    ticks = simulate_tick_trace(spec)
    load = load_profile(spec)
    acc = IncrementalAccounting(load, pue=spec.pue, window_hours=spec.window_hours)
    cut = int(round(min(max(cut_fraction, 0.0), 1.0) * len(ticks)))
    folded = 0
    for point in sorted({cut, len(ticks)}):
        for tick in ticks[folded:point]:
            acc.fold(tick.hour, tick.intensity_kg_per_kwh)
        folded = point
        snap = acc.snapshot()
        ref = reference_replay(
            load,
            [(t.hour, t.intensity_kg_per_kwh) for t in ticks[:point]],
            pue=spec.pue,
            window_hours=spec.window_hours,
        )
        _require(
            snap == ref,
            "stream-matches-batch-replay",
            f"incremental fold diverged from replay at tick {point}/"
            f"{len(ticks)}: {snap} != {ref}",
        )


@substrate_invariant("stream-revision-rollback-exact")
def check_stream_revision_rollback(spec: "StreamSpec") -> None:
    """A revision leaves no residue: the state after observe-then-revise
    is bit-equal to one that only ever saw each hour's final value.

    This is the O(1-window) rollback claim — overwriting a preliminary
    intensity must reproduce exactly the aggregates of a feed that was
    never wrong, not merely approximate them.
    """
    from dataclasses import replace

    from repro.carbon.stream import load_profile, simulate_tick_trace
    from repro.core.incremental import IncrementalAccounting

    ticks = simulate_tick_trace(spec)
    load = load_profile(spec)
    noisy = IncrementalAccounting(load, pue=spec.pue, window_hours=spec.window_hours)
    noisy.fold_many((t.hour, t.intensity_kg_per_kwh) for t in ticks)
    final_values: dict[int, float] = {}
    for tick in ticks:
        final_values[tick.hour] = tick.intensity_kg_per_kwh
    clean = IncrementalAccounting(load, pue=spec.pue, window_hours=spec.window_hours)
    clean.fold_many(sorted(final_values.items()))
    snap, ideal = noisy.snapshot(), clean.snapshot()
    _require(
        replace(snap, ticks_folded=ideal.ticks_folded) == ideal,
        "stream-revision-rollback-exact",
        f"revised stream left residue: {snap} != {ideal} "
        "(modulo tick count)",
    )
    for hour in final_values:
        _require(
            noisy.intensity_at(hour) == clean.intensity_at(hour),
            "stream-revision-rollback-exact",
            f"hour {hour} retained a pre-revision intensity "
            f"{noisy.intensity_at(hour)} != {clean.intensity_at(hour)}",
        )


# ---------------------------------------------------------------------------
# Substrate invariants: the fabric's consistent-hash ring
# ---------------------------------------------------------------------------


@substrate_invariant("ring-balance")
def check_ring_balance(nodes: tuple) -> None:
    """At :data:`~repro.service.hashring.DEFAULT_VNODES` virtual points the
    largest arc share stays under 2x the mean and the smallest above an
    eighth of it — no replica is a hotspot or a ghost."""
    from repro.service.hashring import HashRing

    shares = HashRing(nodes).shares()
    mean = 1.0 / len(shares)
    _require(
        _close(sum(shares.values()), 1.0),
        "ring-balance",
        f"shares sum to {sum(shares.values())}, not 1.0",
    )
    _require(
        max(shares.values()) <= 2.0 * mean,
        "ring-balance",
        f"largest share {max(shares.values())} exceeds 2x the mean {mean}",
    )
    _require(
        min(shares.values()) >= mean / 8.0,
        "ring-balance",
        f"smallest share {min(shares.values())} is below mean/8 ({mean / 8.0})",
    )


@substrate_invariant("ring-minimal-disruption-join")
def check_ring_minimal_disruption_join(
    nodes: tuple, new_node: str, keys: Iterable[str]
) -> None:
    """Adding a node remaps a key only if the new node now owns it —
    every other key keeps its owner (and its warm caches)."""
    from repro.service.hashring import HashRing

    before = HashRing(nodes)
    after = HashRing(nodes)
    after.add(new_node)
    for key in keys:
        old_owner, new_owner = before.owner(key), after.owner(key)
        _require(
            new_owner == old_owner or new_owner == new_node,
            "ring-minimal-disruption-join",
            f"key {key!r} moved {old_owner!r} -> {new_owner!r} when "
            f"{new_node!r} joined (only moves *to* the joiner are lawful)",
        )


@substrate_invariant("ring-minimal-disruption-leave")
def check_ring_minimal_disruption_leave(
    nodes: tuple, victim: str, keys: Iterable[str]
) -> None:
    """Removing a node remaps only the keys it owned; every surviving
    node keeps its entire shard."""
    from repro.service.hashring import HashRing

    before = HashRing(nodes)
    after = HashRing(nodes)
    after.remove(victim)
    for key in keys:
        old_owner = before.owner(key)
        if old_owner != victim:
            new_owner = after.owner(key)
            _require(
                new_owner == old_owner,
                "ring-minimal-disruption-leave",
                f"key {key!r} moved {old_owner!r} -> {new_owner!r} though "
                f"only {victim!r} left the ring",
            )


@substrate_invariant("ring-preference-distinct")
def check_ring_preference_distinct(nodes: tuple, key: str) -> None:
    """A key's preference list is a permutation of the nodes with its
    owner first — the failover order visits everyone exactly once."""
    from repro.service.hashring import HashRing

    ring = HashRing(nodes)
    order = ring.preference(key)
    _require(
        len(order) == len(ring) and set(order) == set(ring.nodes),
        "ring-preference-distinct",
        f"preference {order!r} is not a permutation of {ring.nodes!r}",
    )
    _require(
        order[0] == ring.owner(key),
        "ring-preference-distinct",
        f"preference head {order[0]!r} is not the owner {ring.owner(key)!r}",
    )


# ---------------------------------------------------------------------------
# Substrate invariants: GenAI training and serving workloads
# ---------------------------------------------------------------------------


@substrate_invariant("genai-training-energy-monotone-in-tokens")
def check_genai_tokens_monotone(spec, factor: float) -> None:
    """Training energy is exactly linear in the token budget: scaling
    ``n_tokens`` by ``factor > 1`` scales IT energy by the same factor
    (the FLOPs model is 6 * params * tokens and everything downstream is
    proportional)."""
    from dataclasses import replace

    base = spec.it_energy.joules
    scaled = replace(spec, n_tokens=spec.n_tokens * factor).it_energy.joules
    _require(
        scaled > base,
        "genai-training-energy-monotone-in-tokens",
        f"{factor}x tokens did not increase energy ({base} -> {scaled})",
    )
    _require(
        _close(scaled, base * factor),
        "genai-training-energy-monotone-in-tokens",
        f"energy is not linear in tokens: {scaled} != {factor} * {base}",
    )


@substrate_invariant("genai-training-energy-inverse-in-mfu")
def check_genai_mfu_inverse(spec, factor: float) -> None:
    """Halving achieved MFU doubles device-hours and therefore energy:
    ``E(mfu / f) == f * E(mfu)`` for ``f > 1`` — utilization only changes
    how long the accelerators run, never the work itself."""
    from dataclasses import replace

    base = spec.it_energy.joules
    degraded = replace(spec, mfu=spec.mfu / factor).it_energy.joules
    _require(
        degraded > base,
        "genai-training-energy-inverse-in-mfu",
        f"lower MFU did not increase energy ({base} -> {degraded})",
    )
    _require(
        _close(degraded, base * factor),
        "genai-training-energy-inverse-in-mfu",
        f"energy is not inverse in MFU: {degraded} != {factor} * {base}",
    )


@substrate_invariant("genai-checkpoint-overhead-vanishes")
def check_genai_checkpoint_overhead(spec) -> None:
    """Checkpoint overhead is non-negative, monotone non-increasing in the
    write component as the interval stretches, and vanishes in the
    infinite-interval limit (write overhead is ``cost / interval``)."""
    from dataclasses import replace

    _require(
        spec.restart_overhead_fraction >= 0.0,
        "genai-checkpoint-overhead-vanishes",
        f"negative checkpoint overhead {spec.restart_overhead_fraction}",
    )
    stretched = replace(
        spec, checkpoint_interval_hours=spec.checkpoint_interval_hours * 10.0
    )
    _require(
        stretched.checkpoint_write_overhead <= spec.checkpoint_write_overhead,
        "genai-checkpoint-overhead-vanishes",
        "write overhead grew when the interval stretched "
        f"({spec.checkpoint_write_overhead} -> "
        f"{stretched.checkpoint_write_overhead})",
    )
    limit = replace(spec, checkpoint_interval_hours=1e12)
    _require(
        limit.checkpoint_write_overhead <= 1e-9,
        "genai-checkpoint-overhead-vanishes",
        "write overhead did not vanish as interval -> inf "
        f"(got {limit.checkpoint_write_overhead})",
    )


@substrate_invariant("genai-serving-energy-additive-in-qps")
def check_genai_serving_additive(spec, split: float) -> None:
    """Splitting a serving fleet's traffic across two deployments conserves
    IT energy: ``E(q) == E(s * q) + E((1 - s) * q)`` for any split
    ``s`` in (0, 1) — the diurnal shape is shared, so tokens (and joules)
    partition exactly."""
    from repro.workloads.genai import scale_qps

    whole = spec.it_series().integrate().joules
    left = scale_qps(spec, split).it_series().integrate().joules
    right = scale_qps(spec, 1.0 - split).it_series().integrate().joules
    _require(
        _close(whole, left + right),
        "genai-serving-energy-additive-in-qps",
        f"QPS split {split} is not additive: {left} + {right} != {whole}",
    )


@substrate_invariant("genai-crossover-metamorphic")
def check_genai_crossover_metamorphic(
    training_spec, serving_spec, context, factor: float
) -> None:
    """Doubling lifetime traffic moves the training-vs-inference crossover
    earlier — and, because serving carbon is linear in QPS, scaling QPS by
    ``factor > 1`` divides the crossover day count by exactly ``factor``."""
    from repro.workloads.genai import lifetime_crossover, scale_qps

    base = lifetime_crossover(training_spec, serving_spec, context)
    scaled = lifetime_crossover(
        training_spec, scale_qps(serving_spec, factor), context
    )
    _require(
        scaled.crossover_days < base.crossover_days,
        "genai-crossover-metamorphic",
        f"{factor}x QPS did not move the crossover earlier "
        f"({base.crossover_days} -> {scaled.crossover_days})",
    )
    _require(
        _close(scaled.crossover_days * factor, base.crossover_days),
        "genai-crossover-metamorphic",
        f"crossover is not inverse in QPS: {scaled.crossover_days} * "
        f"{factor} != {base.crossover_days}",
    )


# ---------------------------------------------------------------------------
# Result invariants: swept over every registered experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One result-invariant violation on one experiment."""

    experiment_id: str
    invariant: str
    metric: str = ""
    detail: str = ""


#: Headline-name fragments that denote a physical, sign-definite quantity.
_NONNEGATIVE_PATTERN = re.compile(
    r"(_kg\b|_kg_|_tonnes\b|_kwh\b|_mwh\b|share|fraction|utilization|_hours\b)"
)

#: Fragments denoting a dimensionless proportion bounded by 1.
_UNIT_INTERVAL_PATTERN = re.compile(r"(share|fraction|utilization)")


@result_invariant("finite-headline-metrics")
def check_finite_headline(result: "ExperimentResult") -> list[Violation]:
    """Every headline metric is a finite number."""
    return [
        Violation(
            result.experiment_id,
            "finite-headline-metrics",
            metric,
            f"non-finite value {value!r}",
        )
        for metric, value in result.headline.items()
        if not math.isfinite(value)
    ]


@result_invariant("nonnegative-physical-metrics")
def check_nonnegative_metrics(result: "ExperimentResult") -> list[Violation]:
    """Metrics naming a mass/energy/share dimension are never negative."""
    return [
        Violation(
            result.experiment_id,
            "nonnegative-physical-metrics",
            metric,
            f"negative physical quantity {value!r}",
        )
        for metric, value in result.headline.items()
        if _NONNEGATIVE_PATTERN.search(metric)
        and math.isfinite(value)
        and value < 0.0
    ]


@result_invariant("shares-bounded-by-one")
def check_shares_bounded(result: "ExperimentResult") -> list[Violation]:
    """Shares, fractions, and utilizations are proportions in [0, 1]."""
    return [
        Violation(
            result.experiment_id,
            "shares-bounded-by-one",
            metric,
            f"proportion {value!r} outside [0, 1]",
        )
        for metric, value in result.headline.items()
        if _UNIT_INTERVAL_PATTERN.search(metric)
        and math.isfinite(value)
        and not (-1e-9 <= value <= 1.0 + 1e-9)
    ]


@result_invariant("payload-round-trip")
def check_payload_round_trip(result: "ExperimentResult") -> list[Violation]:
    """``from_payload(to_payload(r))`` preserves id, headline, and shape."""
    from repro.experiments.base import ExperimentResult

    restored = ExperimentResult.from_payload(result.to_payload())
    violations = []
    if restored.experiment_id != result.experiment_id:
        violations.append(
            Violation(result.experiment_id, "payload-round-trip", detail="id changed")
        )
    if restored.headline != result.headline:
        violations.append(
            Violation(
                result.experiment_id,
                "payload-round-trip",
                detail="headline metrics changed across serialization",
            )
        )
    if len(restored.rows) != len(result.rows) or list(restored.headers) != list(
        result.headers
    ):
        violations.append(
            Violation(
                result.experiment_id,
                "payload-round-trip",
                detail="table shape changed across serialization",
            )
        )
    return violations


@result_invariant("nonempty-identity")
def check_nonempty_identity(result: "ExperimentResult") -> list[Violation]:
    """Every result names itself and reports at least one headline metric."""
    violations = []
    if not result.experiment_id or not result.title:
        violations.append(
            Violation(
                result.experiment_id,
                "nonempty-identity",
                detail="missing experiment id or title",
            )
        )
    if not result.headline:
        violations.append(
            Violation(
                result.experiment_id,
                "nonempty-identity",
                detail="no headline metrics reported",
            )
        )
    return violations


@result_invariant("genai-scenario-consistency")
def check_genai_scenarios(result: "ExperimentResult") -> list[Violation]:
    """The genai experiments' headline metrics obey the workload laws:
    doubling lifetime QPS moves the crossover to exactly half the days,
    and the Young/Daly interval minimizes checkpoint overhead."""
    violations = []
    h = result.headline
    if result.experiment_id == "ext-genai-crossover":
        base, doubled = h["crossover_days_base"], h["crossover_days_2x_qps"]
        if not doubled < base:
            violations.append(
                Violation(
                    result.experiment_id,
                    "genai-scenario-consistency",
                    "crossover_days_2x_qps",
                    f"2x QPS did not move the crossover earlier "
                    f"({base} -> {doubled})",
                )
            )
        if not _close(doubled * 2.0, base):
            violations.append(
                Violation(
                    result.experiment_id,
                    "genai-scenario-consistency",
                    "crossover_days_2x_qps",
                    f"crossover is not inverse in QPS: {doubled} * 2 != {base}",
                )
            )
    if result.experiment_id == "ext-genai-checkpoint":
        if not h["overhead_fraction_at_optimum"] <= h["overhead_fraction_at_1h"]:
            violations.append(
                Violation(
                    result.experiment_id,
                    "genai-scenario-consistency",
                    "overhead_fraction_at_optimum",
                    "the Young/Daly interval does not minimize overhead",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# Sweeping and reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of sweeping the result invariants over a set of results."""

    violations: tuple[Violation, ...]
    n_experiments: int
    n_invariants: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        """Readable report: summary line plus one row per violation."""
        summary = (
            f"invariant sweep: {self.n_invariants} invariant(s) x "
            f"{self.n_experiments} experiment(s)"
        )
        if self.ok:
            return f"{summary}\nOK — all invariants hold"
        rows = [
            [v.experiment_id, v.invariant, v.metric or "-", v.detail]
            for v in self.violations
        ]
        table = format_table(["experiment", "invariant", "metric", "detail"], rows)
        return "\n".join(
            [summary, f"VIOLATED — {len(self.violations)} violation(s)", "", table]
        )


def check_result(result: "ExperimentResult") -> list[Violation]:
    """Run every registered result invariant against one result."""
    violations: list[Violation] = []
    for name in result_invariant_names():
        violations.extend(RESULT_INVARIANTS[name](result))
    return violations


def check_results(
    results: Mapping[str, "ExperimentResult"] | Iterable["ExperimentResult"],
) -> InvariantReport:
    """Sweep the result invariants over many results."""
    if isinstance(results, Mapping):
        results = results.values()
    results = list(results)
    violations: list[Violation] = []
    for result in results:
        violations.extend(check_result(result))
    return InvariantReport(
        violations=tuple(violations),
        n_experiments=len(results),
        n_invariants=len(RESULT_INVARIANTS),
    )
