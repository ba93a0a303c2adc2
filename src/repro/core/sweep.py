"""Stacked scenario sweeps: thousands of what-if points as one ndarray program.

:mod:`repro.core.scenario` evaluates one :class:`~repro.core.scenario.Scenario`
at a time; the paper's lever analysis (Figures 5 and 9) only needs a
handful.  A production system asking "which knob matters most, and where
is the carbon/throughput Pareto frontier?" needs *thousands* of
parameter combinations, and after PR 4 vectorized the per-hour kernels
the per-scenario axis was the last scalar loop on the hot path.  This
module adds that batch axis:

* :class:`SweepSpec` — a frozen, hashable description of a sweep: which
  of the six scenario knobs (:data:`SWEEP_PARAMETERS`) vary, over which
  ranges, sampled how (full grid or scrambled Sobol), for how much work.
  Frozen dataclasses canonical-tokenize (:mod:`repro.core.diskcache`),
  so a spec is also a disk-cache key — interrupted sweeps warm-start.
* :func:`evaluate_work_stacked` — the stacked kernel: every arithmetic
  step replicates :func:`~repro.core.scenario.evaluate_work`'s exact
  operation order element-wise, so results are **bit-equal** (``==`` on
  floats, no tolerance) to the retained scalar reference path
  (:func:`_reference_evaluate_stacked`), which the property suite pins.
* :func:`run_sweep` — chunked evaluation through the two-tier substrate
  cache (:func:`sweep_chunk`), so re-running a partially completed sweep
  only computes the missing chunks.
* :func:`sweep_sensitivity` / :func:`pareto_frontier` — tornado-style
  one-at-a-time sensitivity and the carbon-vs-throughput Pareto set.

The bit-equality claim rests on IEEE 754: numpy's float64 element-wise
multiply/divide/add are correctly rounded, exactly like Python ``float``
arithmetic, so *identical operation ordering* gives identical bits.  The
kernel therefore never re-associates, never fuses, and never uses
``np.power`` (whose SIMD path may drift 1 ULP).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro import units
from repro.carbon.intensity import CarbonIntensity, US_AVERAGE
from repro.core import knobs
from repro.core.memo import memoized_substrate
from repro.core.scenario import Scenario, evaluate_work
from repro.errors import UnitError

__all__ = [
    "SWEEP_PARAMETERS",
    "MAX_SWEEP_POINTS",
    "DEFAULT_CHUNK_POINTS",
    "DEFAULT_RANGES",
    "ParameterRange",
    "read_range",
    "SweepSpec",
    "StackedScenarioResult",
    "SweepOutcome",
    "SensitivityBar",
    "sample_points",
    "scenario_at",
    "evaluate_work_stacked",
    "sweep_chunk",
    "run_sweep",
    "sweep_sensitivity",
    "pareto_frontier",
    "spec_to_params",
    "spec_from_params",
]

#: The sweepable scenario knobs, in canonical (grid-axis) order.
#: ``intensity_scale`` multiplies the spec's base grid intensity via
#: :meth:`~repro.carbon.intensity.CarbonIntensity.scaled`.
SWEEP_PARAMETERS: tuple[str, ...] = (
    "pue",
    "utilization",
    "lifetime_years",
    "board_power_fraction",
    "infrastructure_embodied_factor",
    "intensity_scale",
)

#: Hard cap on a single sweep's point count (grid product or Sobol draw).
MAX_SWEEP_POINTS = knobs.SWEEP_POINTS.hi

#: Default chunk granularity of :func:`run_sweep` — small enough that a
#: resumed sweep skips most of the work, large enough that per-chunk
#: cache overhead is noise.
DEFAULT_CHUNK_POINTS = 2048

#: Rows of the Pareto frontier listed verbatim in payloads; the full
#: frontier size always rides in the headline (``pareto_points``).
MAX_PARETO_ROWS = 64


def _span(name: str) -> knobs.Knob:
    """The span row of sweepable knob ``name``; an unknown name is a UnitError."""
    if name not in knobs.SWEEP_RANGES:
        raise UnitError(
            f"unknown sweep parameter {name!r}; "
            f"sweepable: {', '.join(SWEEP_PARAMETERS)}"
        )
    return knobs.SWEEP_RANGES[name]


@dataclass(frozen=True, slots=True)
class ParameterRange:
    """One swept knob: ``points`` grid steps over ``[lo, hi]``.

    ``points`` is the grid-axis resolution; Sobol sampling ignores it and
    draws :attr:`SweepSpec.n_points` joint samples from the box instead.
    """

    name: str
    lo: float
    hi: float
    points: int = 5

    def __post_init__(self) -> None:
        span = _span(self.name)
        span.check(self.name, self.lo)
        span.check(self.name, self.hi)
        knobs.SWEEP_POINTS.check("points", self.points)
        if self.lo > self.hi:
            raise UnitError(
                f"range for {self.name!r} must satisfy lo <= hi, "
                f"got [{self.lo}, {self.hi}]"
            )

    def axis(self) -> np.ndarray:
        """The grid-axis values: ``points`` evenly spaced floats."""
        if self.points == 1:
            return np.array([self.lo], dtype=float)
        return np.linspace(self.lo, self.hi, self.points)


def read_range(name: str, lo: object, hi: object, points: object) -> ParameterRange:
    """A :class:`ParameterRange` from raw values (numbers or their text).

    The values go through the range's knob rows, so a boolean, a fraction
    of a point or an out-of-span end is refused with the rows' message.
    """
    span = _span(name)
    return ParameterRange(
        name, span.read(name, lo), span.read(name, hi), knobs.SWEEP_POINTS.read("points", points)
    )


#: The default sweep box: the paper's stated ranges for the four headline
#: levers (utilization 30-60%+, lifetime 3-5y, PUE, grid cleanliness).
DEFAULT_RANGES: tuple[ParameterRange, ...] = (
    ParameterRange("utilization", 0.30, 0.80, 6),
    ParameterRange("pue", 1.05, 1.60, 4),
    ParameterRange("lifetime_years", 3.0, 5.0, 3),
    ParameterRange("intensity_scale", 0.25, 1.50, 4),
)


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A frozen, hashable, disk-cacheable description of one sweep.

    ``sampling`` selects the point set: ``"grid"`` takes the cartesian
    product of each range's :meth:`~ParameterRange.axis` (total = product
    of ``points``); ``"sobol"`` draws ``n_points`` scrambled-Sobol joint
    samples from the box (seeded, deterministic).  Knobs without a range
    stay at the base-scenario value.
    """

    busy_device_hours: float = 1000.0
    ranges: tuple[ParameterRange, ...] = DEFAULT_RANGES
    sampling: str = "grid"
    n_points: int = 1024
    seed: int = 0
    intensity_kg_per_kwh: float = US_AVERAGE.kg_per_kwh
    intensity_label: str = US_AVERAGE.label
    devices_per_server: int = 2

    def __post_init__(self) -> None:
        knobs.check_fields(self, knobs.SWEEP)
        if not self.ranges:
            raise UnitError("a sweep needs at least one parameter range")
        names = [r.name for r in self.ranges]
        if len(set(names)) != len(names):
            raise UnitError(f"duplicate sweep parameter(s) in {names}")
        if self.sampling not in ("grid", "sobol"):
            raise UnitError(
                f"sampling must be 'grid' or 'sobol', got {self.sampling!r}"
            )
        if self.total_points() > MAX_SWEEP_POINTS:
            raise UnitError(
                f"sweep would evaluate {self.total_points()} points; "
                f"the cap is {MAX_SWEEP_POINTS}"
            )

    def total_points(self) -> int:
        """How many scenario points this spec evaluates."""
        if self.sampling == "sobol":
            return self.n_points
        total = 1
        for r in self.ranges:
            total *= r.points
        return total

    def base_scenario(self) -> Scenario:
        """The scenario every un-swept knob is held at."""
        return Scenario(
            intensity=CarbonIntensity(self.intensity_kg_per_kwh, self.intensity_label),
            devices_per_server=self.devices_per_server,
            name="sweep-base",
        )


def sample_points(spec: SweepSpec) -> dict[str, np.ndarray]:
    """The spec's point set: one float64 array per swept knob.

    All arrays share one length (:meth:`SweepSpec.total_points`) and are
    in deterministic order — grid points in ``meshgrid(indexing="ij")``
    raster order over :data:`SWEEP_PARAMETERS`-ordered axes, Sobol points
    in draw order.
    """
    ordered = sorted(spec.ranges, key=lambda r: SWEEP_PARAMETERS.index(r.name))
    if spec.sampling == "grid":
        axes = [r.axis() for r in ordered]
        mesh = np.meshgrid(*axes, indexing="ij")
        return {
            r.name: np.ascontiguousarray(m.reshape(-1))
            for r, m in zip(ordered, mesh)
        }
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=len(ordered), scramble=True, seed=spec.seed)
    with warnings.catch_warnings():
        # Sobol balance only holds at powers of two; a sweep is a survey,
        # not an integrator, so any n is fine.
        warnings.simplefilter("ignore", UserWarning)
        unit = sampler.random(spec.n_points)
    lows = np.array([r.lo for r in ordered])
    highs = np.array([r.hi for r in ordered])
    # Affine map of the unit hypercube by hand rather than `qmc.scale`,
    # which rejects degenerate (lo == hi) axes that are perfectly valid
    # sweep pins; u in [0, 1) keeps every value inside [lo, hi].
    scaled = lows + unit * (highs - lows)
    return {
        r.name: np.ascontiguousarray(scaled[:, i]) for i, r in enumerate(ordered)
    }


def scenario_at(base: Scenario, point: Mapping[str, float]) -> Scenario:
    """The scalar :class:`Scenario` at one sweep point.

    This is the bridge the reference path (and any debugging session)
    uses: ``intensity_scale`` becomes ``base.intensity.scaled(value)``,
    every other knob is a plain field override.
    """
    changes: dict[str, object] = {}
    for name, value in point.items():
        if name == "intensity_scale":
            changes["intensity"] = base.intensity.scaled(float(value))
        else:
            changes[name] = float(value)
    return base.but(**changes)


@dataclass(frozen=True)
class StackedScenarioResult:
    """Per-point footprints of a stacked evaluation (float64 arrays).

    ``energy_kwh`` is facility-level energy, mirroring
    :attr:`~repro.core.scenario.ScenarioResult.energy`.
    """

    energy_kwh: np.ndarray
    operational_kg: np.ndarray
    embodied_kg: np.ndarray

    def __len__(self) -> int:
        return len(self.energy_kwh)

    @property
    def total_kg(self) -> np.ndarray:
        """Per-point ``operational + embodied`` (the scalar ``total`` op)."""
        return self.operational_kg + self.embodied_kg

    @property
    def embodied_share(self) -> np.ndarray:
        """Per-point embodied share of the total (0 where total is 0)."""
        total = self.total_kg
        out = np.zeros(len(total))
        np.divide(self.embodied_kg, total, out=out, where=total != 0)
        return out


def _validate_axis(name: str, values: np.ndarray) -> None:
    """Reject non-finite / out-of-domain values with a structured error.

    The domain is the knob's :class:`~repro.core.scenario.Scenario` row,
    wider than the span a :class:`ParameterRange` may take; the one knob
    that is no scenario field, ``intensity_scale``, is a non-negative
    multiplier.
    """
    lo, hi, _default, lo_open, _integer = knobs.SCENARIO.get(name, knobs.NON_NEGATIVE)
    finite = np.isfinite(values)
    if not finite.all():
        index = int(np.argmin(finite))
        raise UnitError(
            f"sweep parameter {name!r} must be finite; "
            f"point {index} is {values[index]!r}"
        )
    bad = (values < lo) | (values > hi) | ((values == lo) if lo_open else False)
    if np.any(bad):
        index = int(np.argmax(bad))
        bracket = "(" if lo_open else "["
        raise UnitError(
            f"sweep parameter {name!r} must be in {bracket}{lo}, {hi}]; "
            f"point {index} is {values[index]!r}"
        )


def _axis_arrays(
    base: Scenario, params: Mapping[str, np.ndarray]
) -> tuple[int, dict[str, np.ndarray]]:
    """Validated (n, full axis dict) with un-swept knobs broadcast to n."""
    if not params:
        raise UnitError("stacked evaluation needs at least one swept parameter")
    arrays: dict[str, np.ndarray] = {}
    n: int | None = None
    for name, values in params.items():
        _span(name)
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or len(arr) == 0:
            raise UnitError(
                f"sweep parameter {name!r} must be a non-empty 1-D array"
            )
        if n is None:
            n = len(arr)
        elif len(arr) != n:
            raise UnitError(
                f"sweep parameter arrays disagree on length: "
                f"{name!r} has {len(arr)} points, expected {n}"
            )
        _validate_axis(name, arr)
        arrays[name] = arr
    assert n is not None
    base_values = {
        "pue": base.pue,
        "utilization": base.utilization,
        "lifetime_years": base.lifetime_years,
        "board_power_fraction": base.board_power_fraction,
        "infrastructure_embodied_factor": base.infrastructure_embodied_factor,
        "intensity_scale": 1.0,
    }
    for name in SWEEP_PARAMETERS:
        if name not in arrays:
            arrays[name] = np.full(n, base_values[name])
            _validate_axis(name, arrays[name])
    return n, arrays


def evaluate_work_stacked(
    busy_device_hours: float,
    base: Scenario,
    params: Mapping[str, np.ndarray],
) -> StackedScenarioResult:
    """Evaluate ``busy_device_hours`` of work across all points at once.

    Bit-equal to calling :func:`~repro.core.scenario.evaluate_work` at
    :func:`scenario_at` of every point: each line below performs the same
    IEEE 754 double operation, in the same order, as the scalar path —
    element-wise instead of one point at a time.  Comments cite the
    scalar statement being mirrored.
    """
    knobs.SWEEP["busy_device_hours"].check("busy_device_hours", busy_device_hours)
    n, axes = _axis_arrays(base, params)

    # evaluate_work: resident_hours = busy / utilization
    resident_hours = busy_device_hours / axes["utilization"]
    # evaluate_work: board_watts = tdp * board_power_fraction
    board_watts = base.device.tdp_watts * axes["board_power_fraction"]
    # evaluate_work: it_energy = (board_watts * resident_hours) / 1e3
    it_kwh = board_watts * resident_hours / 1e3
    # AccountingContext.facility_energy: it * pue
    facility_kwh = it_kwh * axes["pue"]
    # CarbonIntensity.scaled: kg_per_kwh * factor, then
    # operational_for_energy: (it * pue) * kg_per_kwh
    kg_per_kwh = base.intensity.kg_per_kwh * axes["intensity_scale"]
    operational_kg = it_kwh * axes["pue"] * kg_per_kwh
    # evaluate_work: server_hours = resident_hours / devices_per_server
    server_hours = resident_hours / base.devices_per_server
    # AmortizationPolicy: utilized = (lifetime_years * HOURS_PER_YEAR) * 1.0
    utilized_hours = (
        axes["lifetime_years"] * units.HOURS_PER_YEAR
    ) * 1.0
    # rate_per_utilized_hour: (manufacturing * infrastructure) / utilized
    rate = (
        base.server_embodied.kg * axes["infrastructure_embodied_factor"]
    ) / utilized_hours
    # amortized_embodied: (rate * server_hours) * n_servers(=1.0)
    embodied_kg = rate * server_hours * 1.0
    return StackedScenarioResult(
        energy_kwh=facility_kwh,
        operational_kg=operational_kg,
        embodied_kg=embodied_kg,
    )


def _reference_evaluate_stacked(
    busy_device_hours: float,
    base: Scenario,
    params: Mapping[str, np.ndarray],
) -> StackedScenarioResult:
    """The retained scalar path: one ``evaluate_work`` call per point.

    This is the ground truth the stacked kernel is pinned against
    (``tests/test_sweep_property.py``, benchmarks) — never delete it.
    """
    names = list(params)
    n = len(next(iter(params.values())))
    results = [
        evaluate_work(
            busy_device_hours,
            scenario_at(base, {name: float(params[name][i]) for name in names}),
        )
        for i in range(n)
    ]
    return StackedScenarioResult(
        energy_kwh=np.array([r.energy.kwh for r in results]),
        operational_kg=np.array([r.operational.kg for r in results]),
        embodied_kg=np.array([r.embodied.kg for r in results]),
    )


# ---------------------------------------------------------------------------
# Chunked execution through the substrate cache (resumption)
# ---------------------------------------------------------------------------


@memoized_substrate
def sweep_chunk(
    spec: SweepSpec, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One contiguous slice ``[start, stop)`` of a sweep's point set.

    Memoized in both cache tiers: the spec (a frozen dataclass) plus the
    slice bounds content-address the chunk, so an interrupted or repeated
    sweep — CLI re-run, service worker restart — recomputes only missing
    chunks.  Returns ``(energy_kwh, operational_kg, embodied_kg)`` arrays.
    """
    points = sample_points(spec)
    sliced = {name: values[start:stop] for name, values in points.items()}
    stacked = evaluate_work_stacked(
        spec.busy_device_hours, spec.base_scenario(), sliced
    )
    return (stacked.energy_kwh, stacked.operational_kg, stacked.embodied_kg)


def chunk_bounds(total: int, chunk_points: int) -> list[tuple[int, int]]:
    """The ``[start, stop)`` slice list covering ``total`` points."""
    if chunk_points < 1:
        raise UnitError(f"chunk size must be >= 1, got {chunk_points}")
    return [
        (start, min(start + chunk_points, total))
        for start in range(0, total, chunk_points)
    ]


@dataclass(frozen=True)
class SweepOutcome:
    """A completed sweep: the spec, its point set, and per-point results."""

    spec: SweepSpec
    params: Mapping[str, np.ndarray]
    results: StackedScenarioResult

    @property
    def throughput(self) -> np.ndarray:
        """Work throughput per point: useful work per resident device-hour.

        Equals the utilization axis (work at rate ``u`` per hour of
        residency) — the x-axis of the carbon/throughput Pareto report.
        """
        if "utilization" in self.params:
            return np.asarray(self.params["utilization"], dtype=float)
        base = self.spec.base_scenario()
        return np.full(len(self.results), base.utilization)

    def pareto_indices(self) -> np.ndarray:
        """Indices of the carbon/throughput Pareto frontier."""
        return pareto_frontier(self.results.total_kg, self.throughput)

    def to_payload(self, include_points: bool = False) -> dict[str, object]:
        """The canonical JSON-safe document of this sweep.

        The service endpoint, the CLI ``--json`` output, and direct
        library callers all serialize this payload through
        :func:`repro.service.queries.render_payload`, so all three are
        byte-identical for one spec.
        """
        results = self.results
        total = results.total_kg
        share = results.embodied_share
        bars = sweep_sensitivity(self.spec)
        frontier = self.pareto_indices()
        throughput = self.throughput
        payload: dict[str, object] = {
            "spec": spec_to_params(self.spec),
            "headline": {
                "n_points": float(len(results)),
                "total_kg_min": float(total.min()),
                "total_kg_max": float(total.max()),
                "total_kg_mean": float(total.mean()),
                "operational_kg_mean": float(results.operational_kg.mean()),
                "embodied_kg_mean": float(results.embodied_kg.mean()),
                "embodied_share_min": float(share.min()),
                "embodied_share_max": float(share.max()),
                "pareto_points": float(len(frontier)),
                "top_lever_swing_kg": float(bars[0].swing_kg) if bars else 0.0,
            },
            "sensitivity": [
                {
                    "parameter": bar.parameter,
                    "low_total_kg": bar.low_total_kg,
                    "high_total_kg": bar.high_total_kg,
                    "base_total_kg": bar.base_total_kg,
                    "swing_kg": bar.swing_kg,
                }
                for bar in bars
            ],
            "pareto": [
                {
                    "index": int(i),
                    "throughput": float(throughput[i]),
                    "total_kg": float(total[i]),
                }
                for i in frontier[:MAX_PARETO_ROWS]
            ],
        }
        if include_points:
            payload["points"] = {
                "params": {
                    name: [float(v) for v in values]
                    for name, values in sorted(self.params.items())
                },
                "energy_kwh": [float(v) for v in results.energy_kwh],
                "operational_kg": [float(v) for v in results.operational_kg],
                "embodied_kg": [float(v) for v in results.embodied_kg],
            }
        return payload


def run_sweep(
    spec: SweepSpec,
    chunk_points: int = DEFAULT_CHUNK_POINTS,
    progress: Callable[[int, int], None] | None = None,
) -> SweepOutcome:
    """Evaluate a spec chunk-by-chunk through the substrate cache.

    ``progress(completed_points, total_points)`` fires after every chunk
    (monotonically non-decreasing) — the hook the CLI and the service's
    poll endpoint report from.
    """
    total = spec.total_points()
    pieces = []
    done = 0
    for start, stop in chunk_bounds(total, chunk_points):
        pieces.append(sweep_chunk(spec, start, stop))
        done += stop - start
        if progress is not None:
            progress(done, total)
    return SweepOutcome(
        spec=spec,
        params=sample_points(spec),
        results=assemble_chunks(pieces),
    )


def assemble_chunks(
    pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> StackedScenarioResult:
    """Concatenate ``sweep_chunk`` outputs back into one stacked result."""
    if not pieces:
        raise UnitError("cannot assemble an empty chunk list")
    return StackedScenarioResult(
        energy_kwh=np.concatenate([p[0] for p in pieces]),
        operational_kg=np.concatenate([p[1] for p in pieces]),
        embodied_kg=np.concatenate([p[2] for p in pieces]),
    )


# ---------------------------------------------------------------------------
# Reports: tornado sensitivity and the Pareto frontier
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SensitivityBar:
    """One knob's one-at-a-time swing (a tornado-chart bar)."""

    parameter: str
    low_total_kg: float
    high_total_kg: float
    base_total_kg: float

    @property
    def swing_kg(self) -> float:
        """Absolute total-footprint swing across the knob's range."""
        return abs(self.high_total_kg - self.low_total_kg)


def sweep_sensitivity(spec: SweepSpec) -> list[SensitivityBar]:
    """Tornado-style sensitivity: each swept knob at its lo/hi, others base.

    Uses the scalar path (two evaluations per knob — sensitivity needs
    exactness at a handful of points, not throughput), sorted by swing
    descending with the knob name as a deterministic tiebreak.
    """
    base = spec.base_scenario()
    busy = spec.busy_device_hours
    base_total = evaluate_work(busy, base).total.kg
    bars = []
    for r in spec.ranges:
        low = evaluate_work(busy, scenario_at(base, {r.name: r.lo})).total.kg
        high = evaluate_work(busy, scenario_at(base, {r.name: r.hi})).total.kg
        bars.append(
            SensitivityBar(
                parameter=r.name,
                low_total_kg=low,
                high_total_kg=high,
                base_total_kg=base_total,
            )
        )
    return sorted(bars, key=lambda b: (-b.swing_kg, b.parameter))


def pareto_frontier(total_kg: np.ndarray, throughput: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated (min carbon, max throughput) points.

    A point is on the frontier iff no other point has throughput >= its
    and carbon < its (with the first-seen point winning exact ties, so
    duplicate points contribute one frontier entry).  Returned in
    throughput-descending order.
    """
    total_kg = np.asarray(total_kg, dtype=float)
    throughput = np.asarray(throughput, dtype=float)
    if total_kg.shape != throughput.shape or total_kg.ndim != 1:
        raise UnitError("pareto inputs must be 1-D arrays of one length")
    if len(total_kg) == 0:
        return np.array([], dtype=int)
    # Sort by throughput descending; stable tiebreak on carbon ascending,
    # then index, so frontier membership is deterministic.
    order = np.lexsort((np.arange(len(total_kg)), total_kg, -throughput))
    sorted_total = total_kg[order]
    running_min = np.minimum.accumulate(sorted_total)
    keep = np.empty(len(order), dtype=bool)
    keep[0] = True
    keep[1:] = sorted_total[1:] < running_min[:-1]
    return order[keep]


# ---------------------------------------------------------------------------
# JSON transport of a spec (service/CLI boundary)
# ---------------------------------------------------------------------------


def spec_to_params(spec: SweepSpec) -> dict[str, object]:
    """The JSON-safe dict form of a spec (floats round-trip exactly)."""
    return {
        "busy_device_hours": spec.busy_device_hours,
        "ranges": [
            {"name": r.name, "lo": r.lo, "hi": r.hi, "points": r.points}
            for r in spec.ranges
        ],
        "sampling": spec.sampling,
        "n_points": spec.n_points,
        "seed": spec.seed,
        "intensity_kg_per_kwh": spec.intensity_kg_per_kwh,
        "intensity_label": spec.intensity_label,
        "devices_per_server": spec.devices_per_server,
    }


#: The spec's knob rows, defaulting as :class:`SweepSpec` does.
_DEFAULT = SweepSpec()
_SPEC_KNOBS = knobs.with_defaults(knobs.SWEEP, _DEFAULT)


def spec_from_params(params: Mapping[str, object]) -> SweepSpec:
    """Rebuild a spec from :func:`spec_to_params` output.

    Every number is read through the sweep's knob rows
    (:data:`repro.core.knobs.SWEEP`, :func:`read_range`), so a malformed
    value raises the same :class:`~repro.errors.UnitError` the spec's own
    check does; the service turns it into a structured 400.
    """
    try:
        ranges = tuple(
            read_range(row["name"], row["lo"], row["hi"], row["points"])
            for row in params.get("ranges", ())  # type: ignore[union-attr]
        )
    except (KeyError, TypeError) as exc:
        raise UnitError(f"malformed sweep ranges: {exc}") from exc
    return SweepSpec(
        ranges=ranges,
        sampling=str(params.get("sampling", _DEFAULT.sampling)),
        intensity_label=str(params.get("intensity_label", _DEFAULT.intensity_label)),
        **knobs.read_knobs(params, _SPEC_KNOBS),  # type: ignore[arg-type]
    )
