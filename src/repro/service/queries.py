"""Query model of the carbon-query service.

Every endpoint of :mod:`repro.service.app` is backed by a :class:`Query`:
a validated, *normalized* bundle of parameters with

* a canonical cache key (:meth:`Query.cache_key`) used by the response
  LRU and the single-flight batcher — two requests that normalize to the same
  key are answered by one execution;
* a pure library execution (:meth:`Query.execute`) over the existing
  engine (:func:`repro.experiments.registry.run_experiment`,
  :func:`repro.core.scenario.evaluate_work`, the carbon-aware
  scheduler), returning a JSON-safe payload; and
* one canonical serialization (:func:`render_payload`), shared by the
  service, the conformance tests, and any direct library caller —
  this is what makes service responses *byte-identical* to direct calls.

The numeric parameters of each query kind are one table of
:class:`~repro.core.knobs.Knob` rows (:data:`KNOBS`): the rows the library
specs check themselves against, narrowed where the service caps a query's
work.  One loop (:func:`~repro.core.knobs.read_knobs`) coerces,
range-checks and defaults them for every parser, so a parser accepts a
value exactly when the library can run it.

Queries travel to pool workers as ``(kind, params_json)`` pairs and are
re-parsed there (:func:`execute_query_task`), so the worker boundary only
ever carries plain strings and dicts.  The task body is the experiment
runner's: :func:`repro.testing.faults.hooked_task` fires the
fault-injection hooks and counts the execution's substrate-cache events,
which ride back to the parent alongside the payload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.carbon.intensity import US_AVERAGE, CarbonIntensity, intensity_for_region, regions
from repro.carbon.stream import StreamSpec
from repro.core import knobs
from repro.core.canonical import canonical_bytes, compact_dumps
from repro.core.knobs import Knob, read_knobs
from repro.core.scenario import Scenario, evaluate_work
from repro.core.sweep import SweepSpec, run_sweep, spec_from_params, spec_to_params, sweep_chunk
from repro.energy.devices import catalog, device
from repro.errors import InvariantViolation, QueryError, UnitError
from repro.workloads.genai import (
    LLMServingSpec,
    LLMTrainingSpec,
    default_genai_context,
    default_serving_spec,
    inventory_spec,
    serving_footprint,
    training_footprint,
)

#: Bounds keeping a single query's work bounded (the service answers
#: interactive traffic; year-scale sweeps belong to the CLI runner).
MAX_JOBS = 500
MAX_HORIZON_HOURS = 8784
MAX_BUSY_DEVICE_HOURS = 1e12

#: Longest LLM training run the service prices, in wall-clock hours
#: (about 228 years).  A training query spreads its energy over an hourly
#: series this long, so the cap bounds that series at 16 MB of float64.
MAX_TRAINING_HOURS = 2_000_000

#: Service-side cap on one sweep's point count — far below the library's
#: :data:`repro.core.sweep.MAX_SWEEP_POINTS`; larger sweeps belong to the
#: CLI (``sustainable-ai sweep``), which resumes via the disk cache.
MAX_SERVICE_SWEEP_POINTS = 20_000

#: Service-side cap on one stream's horizon — a year of hourly ticks;
#: multi-year streams belong to the library/bench path
#: (:data:`repro.carbon.stream.MAX_STREAM_HOURS`).
MAX_SERVICE_STREAM_HOURS = 8784


def render_payload(payload: Mapping[str, object]) -> bytes:
    """The one canonical JSON serialization of a response payload.

    Both the service and the direct library path serialize through this
    function, so equality of payloads is equality of response bytes.
    Delegates to :func:`repro.core.canonical.canonical_bytes` — the same
    serialization the ledger uses to reconstruct recorded payloads.
    """
    return canonical_bytes(payload)


# -- knobs -------------------------------------------------------------------
# Each numeric parameter is a row of :mod:`repro.core.knobs` — the row the
# library spec checks itself against — narrowed only where the service caps
# a query's work.  GET requests deliver every parameter as a string and POST
# bodies deliver JSON numbers; :func:`~repro.core.knobs.read_knobs` accepts
# both and rejects everything else.


def _reject_unknown(kind: str, params: Mapping[str, object], allowed: Iterable[str]) -> None:
    unknown = sorted(set(params).difference(allowed))
    if unknown:
        raise QueryError(
            f"unknown parameter(s) for {kind!r} query: {', '.join(unknown)}; "
            f"allowed: {', '.join(allowed)}"
        )


#: Library rows with the library's defaults, which the tables below narrow.
_SCENARIO = knobs.with_defaults(knobs.SCENARIO, Scenario())
_SWEEP = knobs.with_defaults(knobs.SWEEP, SweepSpec())

#: Grid intensity, shared by footprint, genai and sweep queries.  ``region``
#: names a reference intensity instead; with neither, the US average.
_INTENSITY_KNOB = {"intensity_kg_per_kwh": _SWEEP["intensity_kg_per_kwh"]._replace(hi=10.0)}
_INTENSITY_PARAMS = ("intensity_kg_per_kwh", "region", "intensity_label")


def _intensity(params: Mapping[str, object]) -> tuple[float, str]:
    """``(kg per kWh, label)`` of the grid a footprint or genai query names."""
    if "region" in params:
        if "intensity_kg_per_kwh" in params:
            raise QueryError("provide either 'intensity_kg_per_kwh' or 'region', not both")
        region = params["region"]
        if not isinstance(region, str) or region not in regions():
            raise QueryError(f"unknown region {region!r}; known: {', '.join(regions())}")
        intensity = intensity_for_region(region)
        return intensity.kg_per_kwh, intensity.label
    kg_per_kwh = read_knobs(params, _INTENSITY_KNOB)["intensity_kg_per_kwh"]
    if "intensity_kg_per_kwh" in params:
        return kg_per_kwh, str(params.get("intensity_label", "custom"))
    return kg_per_kwh, US_AVERAGE.label


#: Scenario knobs shared by footprint and genai queries.
_SCENARIO_KNOBS = {
    "utilization": _SCENARIO["utilization"],
    "pue": _SCENARIO["pue"]._replace(hi=10.0),
    "lifetime_years": _SCENARIO["lifetime_years"]._replace(hi=100.0),
}


@dataclass(frozen=True)
class Query:
    """One validated service query (see subclasses for the parameters)."""

    kind = "abstract"

    def to_params(self) -> dict[str, object]:
        """The normalized parameters: by default, every field."""
        return self.__dict__.copy()

    def execute(self) -> dict[str, object]:
        raise NotImplementedError

    def fault_target(self) -> str:
        """The :mod:`repro.testing.faults` target name of this query."""
        return self.kind

    def cache_key(self) -> str:
        """Canonical identity: kind plus normalized, sorted parameters."""
        return f"{self.kind}?" + compact_dumps(self.to_params())


# ---------------------------------------------------------------------------
# /experiments/{id}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentQuery(Query):
    """Run one registered experiment; the payload is the runner envelope."""

    experiment_id: str

    kind = "experiment"

    def fault_target(self) -> str:
        return self.experiment_id

    def execute(self) -> dict[str, object]:
        from repro.experiments.registry import run_experiment

        return run_experiment(self.experiment_id).to_payload()


def parse_experiment(params: Mapping[str, object]) -> ExperimentQuery:
    """Validate ``experiment`` query parameters into an :class:`ExperimentQuery`."""
    _reject_unknown("experiment", params, ("experiment_id",))
    from repro.experiments.registry import experiment_ids

    experiment_id = params.get("experiment_id")
    if not isinstance(experiment_id, str) or not experiment_id:
        raise QueryError("parameter 'experiment_id' must be a non-empty string")
    if experiment_id not in experiment_ids():
        raise QueryError(
            f"unknown experiment {experiment_id!r} "
            "(GET /experiments lists all registered ids)"
        )
    return ExperimentQuery(experiment_id)


# ---------------------------------------------------------------------------
# /footprint
# ---------------------------------------------------------------------------

_FOOTPRINT_KNOBS: dict[str, Knob] = {
    "busy_device_hours": _SWEEP["busy_device_hours"]._replace(
        hi=MAX_BUSY_DEVICE_HOURS, default=None  # required
    ),
    **_SCENARIO_KNOBS,
    "board_power_fraction": _SCENARIO["board_power_fraction"],
    "infrastructure_factor": _SCENARIO["infrastructure_embodied_factor"]._replace(hi=100.0),
    "devices_per_server": _SCENARIO["devices_per_server"],
}
_FOOTPRINT_PARAMS = (*_FOOTPRINT_KNOBS, *_INTENSITY_PARAMS)


@dataclass(frozen=True)
class FootprintQuery(Query):
    """Total footprint of a quantum of useful work under scenario knobs.

    Mirrors :class:`repro.core.scenario.Scenario` /
    :func:`repro.core.scenario.evaluate_work`: ``busy_device_hours`` of
    fully-busy-equivalent device time, evaluated under the given grid
    intensity, utilization, PUE, and embodied-amortization knobs.
    """

    busy_device_hours: float
    utilization: float
    pue: float
    lifetime_years: float
    intensity_kg_per_kwh: float
    intensity_label: str
    devices_per_server: int
    board_power_fraction: float
    infrastructure_factor: float

    kind = "footprint"

    def execute(self) -> dict[str, object]:
        scenario = Scenario(
            intensity=CarbonIntensity(self.intensity_kg_per_kwh, self.intensity_label),
            utilization=self.utilization,
            lifetime_years=self.lifetime_years,
            pue=self.pue,
            devices_per_server=self.devices_per_server,
            board_power_fraction=self.board_power_fraction,
            infrastructure_embodied_factor=self.infrastructure_factor,
            name="service-footprint",
        )
        outcome = evaluate_work(self.busy_device_hours, scenario)
        return {
            "query": self.to_params(),
            "headline": {
                "facility_energy_kwh": outcome.energy.kwh,
                "it_energy_kwh": outcome.energy.kwh / self.pue,
                "operational_kg": outcome.operational.kg,
                "embodied_kg": outcome.embodied.kg,
                "total_kg": outcome.total.kg,
                "operational_share": (
                    outcome.operational.kg / outcome.total.kg if outcome.total.kg else 0.0
                ),
                "embodied_share": outcome.embodied_share,
            },
        }


def parse_footprint(params: Mapping[str, object]) -> FootprintQuery:
    """Validate ``footprint`` query parameters into a :class:`FootprintQuery`."""
    _reject_unknown("footprint", params, _FOOTPRINT_PARAMS)
    if "busy_device_hours" not in params:
        raise QueryError("footprint query requires 'busy_device_hours'")
    values = read_knobs(params, _FOOTPRINT_KNOBS)
    kg_per_kwh, label = _intensity(params)
    return FootprintQuery(intensity_kg_per_kwh=kg_per_kwh, intensity_label=label, **values)


# ---------------------------------------------------------------------------
# /footprint with workload= : GenAI training / serving scenarios
# ---------------------------------------------------------------------------

#: The knobs a ``model`` inventory name stands for (training only).
_MODEL_KNOBS = ("n_params", "n_tokens", "mfu", "n_accelerators")

#: The service's own defaults: the ``llm-7b`` inventory run, and the
#: library's default serving deployment.
_TRAINING = knobs.with_defaults(knobs.LLM_TRAINING, inventory_spec("llm-7b"))
_SERVING = knobs.with_defaults(knobs.LLM_SERVING, default_serving_spec())
_GENAI_KNOBS: dict[str, Knob] = {
    "n_params": _TRAINING["n_params"]._replace(hi=1e13),
    "n_tokens": _TRAINING["n_tokens"]._replace(hi=1e15),
    "mfu": _TRAINING["mfu"]._replace(hi=0.95),
    "n_accelerators": _TRAINING["n_accelerators"]._replace(hi=65536),
    "peak_qps": _SERVING["peak_qps"]._replace(hi=1e6),
    "tokens_per_request": _SERVING["tokens_per_request"]._replace(hi=1e5),
    "context_tokens": _SERVING["context_tokens"]._replace(hi=32768.0),
    "batch_size": _SERVING["batch_size"]._replace(hi=512),
    "hours": _SERVING["hours"]._replace(hi=MAX_HORIZON_HOURS),
    "trough_fraction": _SERVING["trough_fraction"]._replace(lo=0.05, hi=0.95, lo_open=False),
    "demand_seed": _SERVING["demand_seed"],
    **_SCENARIO_KNOBS,
    "devices_per_server": _SCENARIO["devices_per_server"]._replace(default=8),
}
_GENAI_PARAMS = ("workload", "model", "accelerator", *_GENAI_KNOBS, *_INTENSITY_PARAMS)

#: The knobs each workload ignores, left out of its cache key.
_GENAI_UNKEYED: dict[str, frozenset[str]] = {
    "llm-training": frozenset(
        {"peak_qps", "tokens_per_request", "context_tokens", "batch_size", "hours",
         "trough_fraction", "demand_seed"}
    ),
    "llm-serving": frozenset({"n_tokens", "mfu", "n_accelerators"}),
}


@dataclass(frozen=True)
class GenAIQuery(Query):
    """Footprint of one LLM training run or serving window.

    Rides the ``/footprint`` endpoint (selected by the ``workload``
    parameter) and evaluates :mod:`repro.workloads.genai` specs under the
    same region/PUE/lifetime knobs as the scalar footprint query.  A
    ``model`` inventory name is resolved to explicit numbers at parse
    time, so the cache key of ``model=llm-7b`` and its expansion are one
    entry.
    """

    workload: str
    accelerator: str
    n_params: float
    n_tokens: float
    mfu: float
    n_accelerators: int
    peak_qps: float
    tokens_per_request: float
    context_tokens: float
    batch_size: int
    hours: int
    trough_fraction: float
    demand_seed: int
    utilization: float
    pue: float
    lifetime_years: float
    devices_per_server: int
    intensity_kg_per_kwh: float
    intensity_label: str

    kind = "genai"

    def to_params(self) -> dict[str, object]:
        params = self.__dict__.copy()
        for name in _GENAI_UNKEYED[self.workload]:
            del params[name]
        return params

    def _spec(self):
        accelerator = device(self.accelerator)
        if self.workload == "llm-training":
            return LLMTrainingSpec(
                name="service-genai",
                n_params=self.n_params,
                n_tokens=self.n_tokens,
                mfu=self.mfu,
                accelerator=accelerator,
                n_accelerators=self.n_accelerators,
            )
        return LLMServingSpec(
            name="service-genai",
            n_params=self.n_params,
            peak_qps=self.peak_qps,
            accelerator=accelerator,
            tokens_per_request=self.tokens_per_request,
            context_tokens=self.context_tokens,
            batch_size=self.batch_size,
            hours=self.hours,
            trough_fraction=self.trough_fraction,
            demand_seed=self.demand_seed,
        )

    def _context(self):
        return default_genai_context(
            intensity=CarbonIntensity(self.intensity_kg_per_kwh, self.intensity_label),
            pue=self.pue,
            lifetime_years=self.lifetime_years,
            average_utilization=self.utilization,
            devices_per_server=float(self.devices_per_server),
        )

    def execute(self) -> dict[str, object]:
        spec = self._spec()
        if self.workload == "llm-training":
            footprint = training_footprint(spec, self._context())
            extra = {
                "accelerator_hours": spec.accelerator_hours,
                "wall_clock_hours": spec.wall_clock_hours,
                "overhead_multiplier": spec.overhead_multiplier,
            }
        else:
            footprint = serving_footprint(spec, self._context())
            extra = {
                "busy_device_hours": spec.busy_device_hours,
                "total_tokens": spec.total_tokens,
                "joules_per_token": spec.joules_per_token,
                "accelerators_at_peak": float(spec.accelerators_at_peak),
            }
        return {
            "query": self.to_params(),
            "headline": {
                "it_energy_kwh": footprint.it_energy.kwh,
                "facility_energy_kwh": footprint.facility_energy.kwh,
                "operational_kg": footprint.operational.kg,
                "embodied_kg": footprint.embodied.kg,
                "total_kg": footprint.total.kg,
                "operational_share": footprint.operational_share,
                "embodied_share": footprint.embodied_share,
                **extra,
            },
        }


def parse_genai(params: Mapping[str, object]) -> GenAIQuery:
    """Validate ``genai`` query parameters into a :class:`GenAIQuery`."""
    _reject_unknown("genai", params, _GENAI_PARAMS)
    workload = params.get("workload")
    if not isinstance(workload, str) or workload not in _GENAI_UNKEYED:
        raise QueryError(
            f"parameter 'workload' must be one of {', '.join(_GENAI_UNKEYED)}; "
            f"got {workload!r}"
        )

    if "model" in params:
        if workload != "llm-training":
            raise QueryError("parameter 'model' applies only to workload 'llm-training'")
        overridden = sorted(set(_MODEL_KNOBS) & set(params))
        if overridden:
            raise QueryError(
                "provide either 'model' or explicit spec knobs, not both "
                f"(got model plus: {', '.join(overridden)})"
            )
        model = params["model"]
        if not isinstance(model, str):
            raise QueryError(f"parameter 'model' must be a string, got {model!r}")
        inventory = inventory_spec(model)
        params = {**params, **{name: getattr(inventory, name) for name in _MODEL_KNOBS}}

    accelerator = params.get("accelerator", "NVIDIA A100 (tensor)")
    if not isinstance(accelerator, str) or accelerator not in catalog():
        raise QueryError(
            f"unknown accelerator {accelerator!r}; known: {', '.join(catalog())}"
        )
    if device(accelerator).peak_tflops <= 0.0:
        raise QueryError(f"accelerator {accelerator!r} has no peak throughput")

    values = read_knobs(params, _GENAI_KNOBS)
    kg_per_kwh, label = _intensity(params)
    query = GenAIQuery(
        workload, accelerator, intensity_kg_per_kwh=kg_per_kwh, intensity_label=label, **values
    )
    spec = query._spec()  # surface KV-cache/memory violations as 400s at parse time
    if workload == "llm-training" and not spec.wall_clock_hours <= MAX_TRAINING_HOURS:
        raise QueryError(
            f"training run would last {spec.wall_clock_hours:.6g} wall-clock hours; "
            f"the service cap is {MAX_TRAINING_HOURS} (add accelerators or raise 'mfu')"
        )
    return query


# ---------------------------------------------------------------------------
# /schedule/carbon-aware
# ---------------------------------------------------------------------------

_SCHEDULE_KNOBS: dict[str, Knob] = {
    "n_jobs": Knob(1, MAX_JOBS, 60, integer=True),
    "seed": Knob(0, 2**32 - 1, 0, integer=True),
    "horizon_hours": Knob(24, MAX_HORIZON_HOURS, 168, integer=True),
    "capacity_kw": Knob(0.0, 1e9, None, lo_open=True),  # None: no power cap
    "grid_hours": Knob(24, MAX_HORIZON_HOURS, 168, integer=True),
    "grid_seed": Knob(0, 2**32 - 1, 0, integer=True),
}


@dataclass(frozen=True)
class ScheduleQuery(Query):
    """Carbon-aware vs immediate placement of a synthetic job batch.

    The grid trace is a memoized substrate
    (:func:`repro.carbon.grid.synthesize_grid_trace`), so identical
    ``(grid_hours, grid_seed)`` queries — coalesced or not — share one
    build per worker process.
    """

    n_jobs: int
    seed: int
    horizon_hours: int
    capacity_kw: float | None
    grid_hours: int
    grid_seed: int

    kind = "schedule"

    def execute(self) -> dict[str, object]:
        from repro.carbon.grid import synthesize_grid_trace
        from repro.scheduling.carbon_aware import (
            carbon_saving,
            schedule_carbon_aware,
            schedule_immediate,
        )
        from repro.scheduling.jobs import synthesize_jobs

        grid = synthesize_grid_trace(hours=self.grid_hours, seed=self.grid_seed)
        jobs = synthesize_jobs(
            n_jobs=self.n_jobs, horizon_hours=self.horizon_hours, seed=self.seed
        )
        capacity = float("inf") if self.capacity_kw is None else self.capacity_kw
        baseline = schedule_immediate(jobs, grid, self.horizon_hours, capacity)
        aware = schedule_carbon_aware(jobs, grid, self.horizon_hours, capacity)
        return {
            "query": self.to_params(),
            "headline": {
                "immediate_kg": baseline.total_carbon.kg,
                "carbon_aware_kg": aware.total_carbon.kg,
                "carbon_saving": carbon_saving(baseline, aware),
                "deadline_misses": float(aware.deadline_misses),
                "peak_power_kw_immediate": baseline.peak_power_kw,
                "peak_power_kw_aware": aware.peak_power_kw,
            },
            "start_hours": {
                str(job_id): aware.start_hours[job_id] for job_id in sorted(aware.start_hours)
            },
        }


def parse_schedule(params: Mapping[str, object]) -> ScheduleQuery:
    """Validate ``schedule`` query parameters into a :class:`ScheduleQuery`."""
    _reject_unknown("schedule", params, _SCHEDULE_KNOBS)
    if "capacity_kw" in params and params["capacity_kw"] is None:
        # An explicit null spells "no power cap", as leaving the knob out does.
        params = {name: value for name, value in params.items() if name != "capacity_kw"}
    query = ScheduleQuery(**read_knobs(params, _SCHEDULE_KNOBS))
    if query.horizon_hours > query.grid_hours:
        raise QueryError(
            f"'horizon_hours' ({query.horizon_hours}) must not exceed 'grid_hours' "
            f"({query.grid_hours}); jobs scheduled past the grid trace would have "
            "undefined emissions"
        )
    return query


# ---------------------------------------------------------------------------
# /sweep
# ---------------------------------------------------------------------------

#: ``/sweep`` spec knobs, with footprint's caps; the ranges are read
#: through :data:`repro.core.knobs.SWEEP_RANGES` (see docs/SWEEPS.md).
_SWEEP_KNOBS: dict[str, Knob] = {
    "busy_device_hours": _FOOTPRINT_KNOBS["busy_device_hours"],  # required
    "n_points": _SWEEP["n_points"],
    "seed": _SWEEP["seed"],
    **_INTENSITY_KNOB,
    "devices_per_server": _SWEEP["devices_per_server"],
}
_SWEEP_PARAMS = (*_SWEEP_KNOBS, "ranges", "sampling", "intensity_label")


@dataclass(frozen=True)
class SweepQuery(Query):
    """A stacked scenario sweep (:mod:`repro.core.sweep`) as a service job.

    Unlike the interactive query kinds this one is executed *chunked* by
    :class:`repro.service.sweeps.SweepManager` — submit, poll progress,
    fetch the result — but it still carries the standard cache key, so a
    finished sweep's bytes are served straight from the response LRU, and
    :meth:`execute` remains the one-shot library-equivalent path the
    conformance suite compares those bytes against.
    """

    spec: SweepSpec

    kind = "sweep"

    def to_params(self) -> dict[str, object]:
        return spec_to_params(self.spec)

    def execute(self) -> dict[str, object]:
        return run_sweep(self.spec).to_payload()


def parse_sweep(params: Mapping[str, object]) -> SweepQuery:
    """Validate ``sweep`` query parameters into a :class:`SweepQuery`.

    Accepts the :func:`repro.core.sweep.spec_to_params` document; the
    ``ranges`` list may arrive JSON-encoded (query-string transport).
    """
    _reject_unknown("sweep", params, _SWEEP_PARAMS)
    if "busy_device_hours" not in params:
        raise QueryError("sweep query requires 'busy_device_hours'")
    normalized = {**params, **read_knobs(params, _SWEEP_KNOBS)}
    ranges = normalized.get("ranges")
    if isinstance(ranges, str):
        try:
            normalized["ranges"] = json.loads(ranges)
        except json.JSONDecodeError as exc:
            raise QueryError(f"parameter 'ranges' is not valid JSON: {exc}") from None
    spec = spec_from_params(normalized)
    if spec.total_points() > MAX_SERVICE_SWEEP_POINTS:
        raise QueryError(
            f"sweep would evaluate {spec.total_points()} points; the service "
            f"cap is {MAX_SERVICE_SWEEP_POINTS} (use the 'sustainable-ai "
            "sweep' CLI for larger sweeps)"
        )
    return SweepQuery(spec)


def execute_sweep_chunk_task(
    params_json: str, start: int, stop: int, attempt: int = 0, in_worker: bool = True
) -> dict[str, object]:
    """Worker body for one sweep chunk: fault hooks, compute, ship stats.

    The chunk travels back as plain arrays plus the substrate-cache
    counter delta, as in :func:`execute_query_task`.  ``attempt``
    feeds the fault grammar's ``@attempts`` selector, so ``crash:sweep@0``
    kills only the first try of a chunk and the manager's retry resumes
    the sweep from the chunk that died.
    """
    from repro.testing import faults

    spec = spec_from_params(json.loads(params_json))
    with faults.hooked_task("sweep", attempt, in_worker) as collector:
        chunk = sweep_chunk(spec, start, stop)
    return {"chunk": chunk, "stats_delta": collector.stats, "substrates": collector.pairs}


# ---------------------------------------------------------------------------
# /stream
# ---------------------------------------------------------------------------

#: ``/stream`` spec knobs: :class:`~repro.carbon.stream.StreamSpec`'s rows
#: and defaults, with a year's horizon.
_STREAM = knobs.with_defaults(knobs.STREAM, StreamSpec())
_STREAM_KNOBS: dict[str, Knob] = {
    **_STREAM,
    "hours": _STREAM["hours"]._replace(hi=MAX_SERVICE_STREAM_HOURS),
}

#: ``/stream`` transport knobs: they select *which delta* of a stream to
#: serve, not which stream, so they stay out of its cache key (its fabric
#: routing key) and every cursor of one stream pins to one replica.  A
#: stream emits at most two ticks an hour (an observation and a revision),
#: which bounds the cursor; the server clamps the wait to --stream-max-wait.
STREAM_TRANSPORT_KNOBS: dict[str, Knob] = {
    "cursor": Knob(0, 2 * MAX_SERVICE_STREAM_HOURS, 0, integer=True),
    "wait_s": Knob(0.0, math.inf, 0.0),
    "max_ticks": Knob(1, 20_000, 2048, integer=True),
}


@dataclass(frozen=True)
class StreamQuery(Query):
    """One live intensity stream, identified by its full spec.

    The cache key deliberately excludes the transport knobs
    (:data:`STREAM_TRANSPORT_KNOBS`): it names the *stream*, which is
    what consistent-hash fabric routing needs.  :meth:`execute` is the
    direct library path for the whole stream — the document a client
    would assemble by paging ``cursor=0`` to the end — used by the
    conformance suite; the live endpoint serves per-cursor deltas
    through the same renderer.
    """

    spec: StreamSpec

    kind = "stream"

    def to_params(self) -> dict[str, object]:
        return self.spec.to_params()

    def execute(self) -> dict[str, object]:
        from repro.carbon.stream import simulate_tick_trace, stream_delta_payload

        ticks = simulate_tick_trace(self.spec)
        return stream_delta_payload(self.spec, 0, len(ticks), ticks=ticks)


def parse_stream(params: Mapping[str, object]) -> StreamQuery:
    """Validate ``stream`` query parameters into a :class:`StreamQuery`."""
    _reject_unknown("stream", params, _STREAM_KNOBS)
    return StreamQuery(StreamSpec(**read_knobs(params, _STREAM_KNOBS)))


def parse_stream_request(
    params: Mapping[str, object],
) -> tuple[StreamQuery, dict[str, object]]:
    """``(stream, transport knobs)`` of one ``GET /stream`` request.

    The endpoint serves the delta the transport knobs select; it and the
    fabric router both key the stream on the spec parameters alone.
    """
    try:
        transport = read_knobs(params, STREAM_TRANSPORT_KNOBS)
    except UnitError as exc:
        raise QueryError(str(exc)) from None
    spec = {name: value for name, value in params.items() if name not in transport}
    return parse_query("stream", spec), transport


#: Every numeric knob, by query kind: the parsers read these tables, and
#: the service docs and the boundary tests are derived from them.
KNOBS: dict[str, dict[str, Knob]] = {
    "footprint": {**_FOOTPRINT_KNOBS, **_INTENSITY_KNOB},
    "genai": {**_GENAI_KNOBS, **_INTENSITY_KNOB},
    "schedule": _SCHEDULE_KNOBS,
    "sweep": _SWEEP_KNOBS,
    "stream": _STREAM_KNOBS,
}


# ---------------------------------------------------------------------------
# Dispatch, worker task body, invariant bridging
# ---------------------------------------------------------------------------

_PARSERS = {
    "experiment": parse_experiment,
    "footprint": parse_footprint,
    "genai": parse_genai,
    "schedule": parse_schedule,
    "sweep": parse_sweep,
    "stream": parse_stream,
}

#: Query kinds, in routing order.
QUERY_KINDS: tuple[str, ...] = tuple(_PARSERS)


def parse_query(kind: str, params: Mapping[str, object]) -> Query:
    """Parse and validate one query; raises :class:`QueryError`."""
    try:
        parser = _PARSERS[kind]
    except KeyError:
        raise QueryError(
            f"unknown query kind {kind!r}; known: {', '.join(QUERY_KINDS)}"
        ) from None
    try:
        return parser(params)
    except UnitError as exc:  # a knob row or a library rule refused the query
        raise QueryError(str(exc)) from None


def execute_query_task(kind: str, params_json: str, in_worker: bool = True) -> dict[str, object]:
    """Worker body: parse, fire fault hooks, execute, ship stats back.

    The execution runs in :func:`repro.testing.faults.hooked_task`, the
    body the experiment runner's worker uses too: fault-injection hooks
    fire first so the production degradation paths are what tests
    exercise, and the substrate-cache counter delta of this execution
    rides back to the service process for the ``/metrics`` merge.
    ``in_worker=False`` (inline execution, ``--workers 0``) downgrades
    ``crash`` faults to exceptions so the server process survives.
    """
    from repro.testing import faults

    query = parse_query(kind, json.loads(params_json))
    with faults.hooked_task(query.fault_target(), 0, in_worker) as collector:
        payload = query.execute()
    return {"payload": payload, "stats_delta": collector.stats, "substrates": collector.pairs}


def payload_to_result(payload: Mapping[str, object]):
    """Bridge a service response payload to an :class:`ExperimentResult`.

    Lets every service response flow through the PR-3 result-invariant
    registry (:func:`repro.testing.invariants.check_result`): experiment
    payloads round-trip as-is, and footprint/schedule payloads become a
    synthetic result whose headline is the response's ``headline`` block.
    """
    from repro.experiments.base import ExperimentResult

    if "experiment_id" in payload:
        return ExperimentResult.from_payload(payload)
    if "stream" in payload:
        accounting = dict(payload.get("accounting", {}))
        return ExperimentResult(
            experiment_id="service-stream",
            title="carbon-query service response (service-stream)",
            headline={k: float(v) for k, v in accounting.items()},
        )
    kind = "service-query"
    if "spec" in payload:
        kind = "service-sweep"
    else:
        query = payload.get("query")
        if isinstance(query, Mapping):
            if "workload" in query:
                kind = "service-genai"
            elif "busy_device_hours" in query:
                kind = "service-footprint"
            else:
                kind = "service-schedule"
    return ExperimentResult(
        experiment_id=kind,
        title=f"carbon-query service response ({kind})",
        headline={k: float(v) for k, v in dict(payload.get("headline", {})).items()},
    )


def self_check(payload: Mapping[str, object], subject: str) -> bool:
    """Refuse a payload that violates a result invariant; whether it checked.

    The check runs only while the runtime self-checks are on
    (``SUSTAINABLE_AI_CHECK_INVARIANTS``).  A violation raises
    :class:`InvariantViolation`, whose message starts with ``subject``.
    """
    from repro.core.series import runtime_checks_enabled

    if not runtime_checks_enabled():
        return False
    from repro.testing.invariants import check_result

    violations = check_result(payload_to_result(payload))
    if violations:
        detail = "; ".join(f"{v.invariant}({v.metric or v.detail})" for v in violations)
        raise InvariantViolation(f"{subject} violates result invariants: {detail}")
    return True
