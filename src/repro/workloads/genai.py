"""GenAI workloads: LLM-era training and inference-serving footprints.

The paper predates the scaling-law era; this module closes the gap the
ROADMAP names ("Hugging Carbon", the GenAI training-vs-inference stage
split) with two parameterized workload families:

* :class:`LLMTrainingSpec` — params, tokens, MFU, accelerator SKU.
  FLOPs follow the standard ``6 * params * tokens`` accounting
  (:mod:`repro.models.flops`); device-hours follow from the
  accelerator's peak throughput at the achieved MFU; multi-month-run
  realities enter as *analytic* overheads: checkpoint writes
  (``cost / interval``), expected lost work on failures
  (``interval / (2 * MTBF)``), and a failed/abandoned-run surcharge.
  Energy and carbon are priced exclusively through the existing
  :class:`~repro.core.context.AccountingContext` /
  :class:`~repro.core.series.HourlySeries` engine — no private
  ``kWh x intensity`` arithmetic.
* :class:`LLMServingSpec` — an inference fleet serving diurnal QPS
  (the *shared* trace helper :func:`repro.workloads.traces.diurnal_demand`;
  a grep-enforced test keeps the sinusoid confined there), with
  batch-size-dependent throughput, KV-cache memory pressure capping the
  effective batch, and per-token energy.  The fleet view drives
  :func:`repro.fleet.autoscale.autoscale_tier`.

Both spec constructors validate every knob with structured
:class:`~repro.errors.UnitError` messages (finite, sign, range), so the
Hypothesis strategies explore the interior of the valid space and the
service layer can surface precise 400s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.carbon.embodied import AmortizationPolicy, GPU_SERVER_EMBODIED
from repro.carbon.intensity import US_AVERAGE
from repro.core.context import AccountingContext
from repro.core.quantities import Carbon, Energy
from repro.core.series import HourlySeries
from repro.energy.devices import A100_TENSOR, CPU_SERVER, DeviceSpec
from repro.errors import UnitError
from repro.fleet.autoscale import AutoScaleResult, AutoScalerConfig, autoscale_tier
from repro.fleet.server import ServerSKU
from repro.models.flops import TRAIN_FLOPS_PER_PARAM_TOKEN, device_hours_for_flops
from repro.reliability.checkpoints import young_daly_interval
from repro.workloads.traces import diurnal_demand

__all__ = [
    "LLMTrainingSpec",
    "LLMServingSpec",
    "GenAIFootprint",
    "ServingFleetResult",
    "MODEL_INVENTORY",
    "inventory_spec",
    "default_genai_context",
    "default_serving_spec",
    "kv_cache_gb_per_request",
    "training_footprint",
    "serving_footprint",
    "serving_fleet",
    "serving_sku",
    "lifetime_crossover",
    "LifetimeCrossover",
    "scale_qps",
]


def _finite(name: str, value: float) -> float:
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)):
        raise UnitError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise UnitError(f"{name} must be finite, got {value!r}")
    return float(value)


def _positive(name: str, value: float) -> float:
    if _finite(name, value) <= 0:
        raise UnitError(f"{name} must be positive, got {value}")
    return float(value)


def _non_negative(name: str, value: float) -> float:
    if _finite(name, value) < 0:
        raise UnitError(f"{name} must be non-negative, got {value}")
    return float(value)


def _unit_open(name: str, value: float) -> float:
    if not (0.0 < _finite(name, value) <= 1.0):
        raise UnitError(f"{name} must be in (0, 1], got {value}")
    return float(value)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LLMTrainingSpec:
    """One LLM pre-training run: scale knobs plus multi-month overheads.

    ``mfu`` is model-FLOPs utilization (achieved / peak throughput); the
    checkpoint knobs describe fixed-interval checkpointing against a
    hardware MTBF; ``failed_run_fraction`` is the surcharge for failed
    and abandoned runs across the training *program* (restarts from
    scratch, bad configs), which real multi-month efforts report on top
    of the converged run.
    """

    name: str
    n_params: float
    n_tokens: float
    mfu: float = 0.40
    accelerator: DeviceSpec = A100_TENSOR
    n_accelerators: int = 1024
    board_power_fraction: float = 0.85
    checkpoint_interval_hours: float = 1.0
    checkpoint_cost_hours: float = 0.05
    mtbf_hours: float = 200.0
    failed_run_fraction: float = 0.10

    def __post_init__(self) -> None:
        if not self.name:
            raise UnitError("training spec name must be non-empty")
        _positive("n_params", self.n_params)
        _positive("n_tokens", self.n_tokens)
        _unit_open("mfu", self.mfu)
        if not isinstance(self.accelerator, DeviceSpec):
            raise UnitError("accelerator must be a DeviceSpec")
        if self.accelerator.peak_tflops <= 0:
            raise UnitError(
                f"accelerator {self.accelerator.name!r} has no peak throughput "
                "recorded; training needs peak_tflops > 0"
            )
        if not isinstance(self.n_accelerators, int) or self.n_accelerators < 1:
            raise UnitError(
                f"n_accelerators must be a positive integer, got {self.n_accelerators!r}"
            )
        _unit_open("board_power_fraction", self.board_power_fraction)
        _positive("checkpoint_interval_hours", self.checkpoint_interval_hours)
        _non_negative("checkpoint_cost_hours", self.checkpoint_cost_hours)
        _positive("mtbf_hours", self.mtbf_hours)
        failed = _non_negative("failed_run_fraction", self.failed_run_fraction)
        if failed > 10.0:
            raise UnitError(
                f"failed_run_fraction must be at most 10 (a 10x program "
                f"surcharge), got {failed}"
            )

    # -- compute ----------------------------------------------------------
    @property
    def total_training_flops(self) -> float:
        """``6 * params * tokens`` — the converged run, before overheads."""
        return TRAIN_FLOPS_PER_PARAM_TOKEN * self.n_params * self.n_tokens

    @property
    def base_accelerator_hours(self) -> float:
        """Device-hours of the converged run at the achieved MFU."""
        return device_hours_for_flops(
            self.total_training_flops, self.accelerator.peak_tflops, self.mfu
        )

    # -- overheads --------------------------------------------------------
    @property
    def checkpoint_write_overhead(self) -> float:
        """Fraction of run time spent writing checkpoints: ``cost / interval``.

        Non-negative, and -> 0 as the interval -> infinity (the
        ``genai-checkpoint-overhead-vanishes`` invariant).
        """
        return self.checkpoint_cost_hours / self.checkpoint_interval_hours

    @property
    def expected_lost_work_fraction(self) -> float:
        """Expected re-done work per useful hour: ``interval / (2 * MTBF)``.

        A failure loses on average half a checkpoint interval; failures
        arrive at rate ``1 / MTBF``.
        """
        return self.checkpoint_interval_hours / (2.0 * self.mtbf_hours)

    @property
    def restart_overhead_fraction(self) -> float:
        """Checkpoint writes plus expected lost work, as a fraction."""
        return self.checkpoint_write_overhead + self.expected_lost_work_fraction

    @property
    def overhead_multiplier(self) -> float:
        """Total compute multiplier over the ideal converged run."""
        return (1.0 + self.restart_overhead_fraction) * (1.0 + self.failed_run_fraction)

    @property
    def accelerator_hours(self) -> float:
        """Device-hours including checkpoint, failure, and failed-run overheads."""
        return self.base_accelerator_hours * self.overhead_multiplier

    @property
    def optimal_checkpoint_interval_hours(self) -> float:
        """The Young/Daly interval for this spec's cost and MTBF."""
        if self.checkpoint_cost_hours == 0:
            return 0.0
        return young_daly_interval(self.mtbf_hours, self.checkpoint_cost_hours)

    # -- time and energy --------------------------------------------------
    @property
    def wall_clock_hours(self) -> float:
        return self.accelerator_hours / self.n_accelerators

    @property
    def wall_clock_days(self) -> float:
        return self.wall_clock_hours / 24.0

    @property
    def board_watts(self) -> float:
        """Average per-accelerator board power while training."""
        return self.accelerator.tdp_watts * self.board_power_fraction

    @property
    def it_energy(self) -> Energy:
        """IT-level (pre-PUE) energy of the whole training program."""
        return Energy(self.accelerator_hours * self.board_watts / 1000.0)

    def it_series(self) -> HourlySeries:
        """The program's IT energy as an hourly series over its wall clock.

        Energy is spread uniformly over ``ceil(wall_clock_hours)`` hours —
        the hourly granularity the accounting engine prices time-varying
        grids at.  Under a static intensity the split is irrelevant (the
        engine integrates it), which is what keeps the training-energy
        invariants exact.
        """
        hours = max(1, math.ceil(self.wall_clock_hours))
        return HourlySeries.constant(self.it_energy.kwh / hours, hours)


# ---------------------------------------------------------------------------
# KV-cache geometry
# ---------------------------------------------------------------------------


def kv_cache_gb_per_request(
    n_params: float,
    context_tokens: float,
    bytes_per_value: float = 2.0,
    aspect_ratio: float = 128.0,
) -> float:
    """KV-cache footprint (GB) of one in-flight request.

    Per token, attention caches keys and values for every layer:
    ``2 * n_layers * d_model * bytes_per_value``.  The architecture is
    recovered from the parameter count through the dense-Transformer
    identity ``n_params ~ 12 * n_layers * d_model^2`` with the width
    aspect ratio ``d_model = aspect_ratio * n_layers`` (GPT-3-era models
    sit near 128), giving ``d_model = (n_params * aspect_ratio / 12)^(1/3)``.
    """
    _positive("n_params", n_params)
    _positive("context_tokens", context_tokens)
    _positive("bytes_per_value", bytes_per_value)
    _positive("aspect_ratio", aspect_ratio)
    d_model = (n_params * aspect_ratio / 12.0) ** (1.0 / 3.0)
    n_layers = d_model / aspect_ratio
    bytes_per_token = 2.0 * n_layers * d_model * bytes_per_value
    return bytes_per_token * context_tokens / 1e9


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LLMServingSpec:
    """An LLM inference-serving deployment against diurnal QPS.

    Throughput per accelerator saturates with batch size
    (``peak_tokens_per_s * b / (b + half_saturation_batch)``); the
    *effective* batch is the requested one capped by what the KV cache
    fits next to the weights in device memory.  Demand is the shared
    diurnal trace (:func:`repro.workloads.traces.diurnal_demand`) scaled
    by ``peak_qps``, so serving energy is linear in QPS — the additivity
    law the invariant registry checks.
    """

    name: str
    n_params: float
    peak_qps: float
    accelerator: DeviceSpec = A100_TENSOR
    tokens_per_request: float = 256.0
    context_tokens: float = 1024.0
    batch_size: int = 16
    bytes_per_param: float = 2.0
    kv_bytes_per_value: float = 2.0
    peak_tokens_per_s: float = 4000.0
    half_saturation_batch: float = 8.0
    board_power_fraction: float = 0.85
    hours: int = 168
    trough_fraction: float = 0.68
    demand_seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise UnitError("serving spec name must be non-empty")
        _positive("n_params", self.n_params)
        _positive("peak_qps", self.peak_qps)
        if not isinstance(self.accelerator, DeviceSpec):
            raise UnitError("accelerator must be a DeviceSpec")
        if self.accelerator.memory_gb <= 0:
            raise UnitError(
                f"accelerator {self.accelerator.name!r} has no memory capacity "
                "recorded; serving needs memory_gb > 0"
            )
        _positive("tokens_per_request", self.tokens_per_request)
        _positive("context_tokens", self.context_tokens)
        if self.context_tokens < 1.0:  # can round the KV cache below to zero
            raise UnitError(f"context_tokens must be at least 1, got {self.context_tokens}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise UnitError(
                f"batch_size must be a positive integer, got {self.batch_size!r}"
            )
        _positive("bytes_per_param", self.bytes_per_param)
        _positive("kv_bytes_per_value", self.kv_bytes_per_value)
        _positive("peak_tokens_per_s", self.peak_tokens_per_s)
        _positive("half_saturation_batch", self.half_saturation_batch)
        _unit_open("board_power_fraction", self.board_power_fraction)
        if not isinstance(self.hours, int) or self.hours < 1:
            raise UnitError(f"hours must be a positive integer, got {self.hours!r}")
        _unit_open("trough_fraction", self.trough_fraction)
        if self.weights_gb >= self.accelerator.memory_gb:
            raise UnitError(
                f"model weights ({self.weights_gb:.1f} GB) do not fit in "
                f"{self.accelerator.name!r} memory ({self.accelerator.memory_gb:.0f} GB)"
            )
        if self.kv_capped_batch < 1:
            raise UnitError(
                f"KV cache for one {self.context_tokens:.0f}-token request "
                f"({self.kv_gb_per_request:.1f} GB) does not fit beside the "
                f"weights ({self.weights_gb:.1f} GB) in "
                f"{self.accelerator.memory_gb:.0f} GB of device memory"
            )

    # -- memory pressure --------------------------------------------------
    @property
    def weights_gb(self) -> float:
        return self.n_params * self.bytes_per_param / 1e9

    @property
    def kv_gb_per_request(self) -> float:
        return kv_cache_gb_per_request(
            self.n_params, self.context_tokens, self.kv_bytes_per_value
        )

    @property
    def kv_capped_batch(self) -> int:
        """Largest batch whose KV cache fits beside the weights."""
        free_gb = self.accelerator.memory_gb - self.weights_gb
        return int(free_gb / self.kv_gb_per_request)

    @property
    def effective_batch(self) -> int:
        """The requested batch, capped by KV-cache memory pressure."""
        return min(self.batch_size, self.kv_capped_batch)

    # -- throughput and energy --------------------------------------------
    def device_tokens_per_s(self, batch: int | None = None) -> float:
        """Decode throughput of one accelerator at a batch size."""
        b = float(self.effective_batch if batch is None else batch)
        if b < 1:
            raise UnitError(f"batch must be at least 1, got {b}")
        return self.peak_tokens_per_s * b / (b + self.half_saturation_batch)

    @property
    def board_watts(self) -> float:
        return self.accelerator.tdp_watts * self.board_power_fraction

    @property
    def joules_per_token(self) -> float:
        """Serving energy per generated token at the effective batch."""
        return self.board_watts / self.device_tokens_per_s()

    @property
    def accelerators_at_peak(self) -> int:
        """Accelerators needed to sustain peak-hour token throughput."""
        peak_tokens_per_s = self.peak_qps * self.tokens_per_request
        return max(1, math.ceil(peak_tokens_per_s / self.device_tokens_per_s()))

    # -- demand -----------------------------------------------------------
    def demand_trace(self) -> np.ndarray:
        """Relative hourly demand in (0, 1] — the one shared diurnal shape."""
        return diurnal_demand(
            hours=self.hours,
            peak=1.0,
            trough_fraction=self.trough_fraction,
            seed=self.demand_seed,
        )

    def tokens_per_hour(self) -> np.ndarray:
        """Generated tokens per hour under the diurnal QPS trace."""
        return self.demand_trace() * (self.peak_qps * self.tokens_per_request * 3600.0)

    @property
    def total_tokens(self) -> float:
        return float(np.sum(self.tokens_per_hour()))

    @property
    def busy_device_hours(self) -> float:
        """Fully-busy-equivalent accelerator hours over the window."""
        return self.total_tokens / self.device_tokens_per_s() / 3600.0

    def it_series(self) -> HourlySeries:
        """Hourly IT kWh of token generation (linear in QPS)."""
        joules = self.tokens_per_hour() * self.joules_per_token
        return HourlySeries(joules / 3.6e6)


# ---------------------------------------------------------------------------
# Footprints through the accounting engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenAIFootprint:
    """Operational + embodied carbon of one genai workload window."""

    it_energy: Energy
    facility_energy: Energy
    operational: Carbon
    embodied: Carbon

    @property
    def total(self) -> Carbon:
        return Carbon(self.operational.kg + self.embodied.kg)

    @property
    def embodied_share(self) -> float:
        total = self.total.kg
        return self.embodied.kg / total if total else 0.0

    @property
    def operational_share(self) -> float:
        total = self.total.kg
        return self.operational.kg / total if total else 0.0


def default_genai_context(
    intensity=US_AVERAGE,
    pue: float = 1.1,
    lifetime_years: float = 4.0,
    average_utilization: float = 0.45,
    devices_per_server: float = 8.0,
) -> AccountingContext:
    """The canonical accounting assumptions for the genai experiments.

    8 accelerators per chassis (the paper's training SKU), the paper's
    3-5-year lifetime midpoint and 30-60% utilization midpoint, and a
    hyperscale PUE.
    """
    return AccountingContext(
        intensity=intensity,
        pue=pue,
        amortization=AmortizationPolicy(
            lifetime_years=lifetime_years,
            average_utilization=average_utilization,
            devices_per_server=devices_per_server,
        ),
    )


def _embodied_for_device_hours(device_hours: float, context: AccountingContext) -> Carbon:
    """Embodied carbon of accelerator busy-hours under the context policy."""
    server_hours = device_hours / context.amortization.devices_per_server
    return context.amortized_embodied(GPU_SERVER_EMBODIED, server_hours)


def training_footprint(
    spec: LLMTrainingSpec, context: AccountingContext | None = None
) -> GenAIFootprint:
    """Full footprint of one training program, overheads included.

    Operational carbon prices the program's hourly IT series through the
    context (grid or static intensity, PUE applied); embodied carbon
    amortizes server manufacturing over the accelerator busy-hours.
    """
    context = context or default_genai_context()
    it_series = spec.it_series()
    return GenAIFootprint(
        it_energy=spec.it_energy,
        facility_energy=context.facility_energy(spec.it_energy),
        operational=context.operational(it_series),
        embodied=_embodied_for_device_hours(spec.accelerator_hours, context),
    )


def serving_footprint(
    spec: LLMServingSpec, context: AccountingContext | None = None
) -> GenAIFootprint:
    """Footprint of one serving window (``spec.hours``) of diurnal traffic."""
    context = context or default_genai_context()
    it_series = spec.it_series()
    it_energy = it_series.integrate()
    return GenAIFootprint(
        it_energy=it_energy,
        facility_energy=context.facility_energy(it_energy),
        operational=context.operational(it_series),
        embodied=_embodied_for_device_hours(spec.busy_device_hours, context),
    )


# ---------------------------------------------------------------------------
# The serving fleet: autoscaling + fleet embodied share
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServingFleetResult:
    """An autoscaled genai serving tier over one demand window."""

    spec: LLMServingSpec
    sku: ServerSKU
    tier_servers: int
    autoscale: AutoScaleResult
    operational: Carbon
    embodied: Carbon

    @property
    def total(self) -> Carbon:
        return Carbon(self.operational.kg + self.embodied.kg)

    @property
    def embodied_share(self) -> float:
        total = self.total.kg
        return self.embodied.kg / total if total else 0.0


def serving_sku(spec: LLMServingSpec, accelerators_per_server: int = 8) -> ServerSKU:
    """The server SKU backing a genai serving tier."""
    if accelerators_per_server < 1:
        raise UnitError(
            f"accelerators_per_server must be at least 1, got {accelerators_per_server}"
        )
    return ServerSKU(
        "genai-serving", CPU_SERVER, spec.accelerator,
        accelerators_per_server, GPU_SERVER_EMBODIED,
    )


def serving_fleet(
    spec: LLMServingSpec,
    context: AccountingContext | None = None,
    config: AutoScalerConfig | None = None,
    accelerators_per_server: int = 8,
) -> ServingFleetResult:
    """Autoscale a serving tier sized for the spec's peak QPS.

    The tier is provisioned so peak demand is covered at the autoscaler's
    target utilization; off-peak, powered-down servers fall out of the
    operational bill, while the *fleet's* embodied carbon keeps accruing
    calendar-time amortization for every server owned — which is exactly
    why the embodied share of an over-provisioned accelerator fleet grows
    (the paper's Figure 9 argument at fleet scale).
    """
    context = context or default_genai_context()
    tier_servers = max(
        1, math.ceil(spec.accelerators_at_peak / accelerators_per_server)
    )
    sku = serving_sku(spec, accelerators_per_server)
    result = autoscale_tier(spec.demand_trace(), tier_servers, sku, config)
    assert result.autoscaled_watts is not None
    operational = context.operational(
        HourlySeries.from_power_watts(result.autoscaled_watts)
    )
    # Owned servers amortize manufacturing over calendar time, powered or
    # not: embodied(window) = manufacturing * infra * servers * window/lifetime.
    policy = context.amortization
    window_fraction = spec.hours / policy.lifetime_hours
    embodied = Carbon(
        sku.embodied.kg
        * policy.infrastructure_factor
        * tier_servers
        * window_fraction
    )
    return ServingFleetResult(
        spec=spec,
        sku=sku,
        tier_servers=tier_servers,
        autoscale=result,
        operational=operational,
        embodied=embodied,
    )


# ---------------------------------------------------------------------------
# Training vs inference: the lifetime crossover
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LifetimeCrossover:
    """When cumulative inference carbon overtakes the one-time training cost."""

    training_total_kg: float
    serving_kg_per_day: float

    @property
    def crossover_days(self) -> float:
        """Days of serving after which inference matches training."""
        if self.serving_kg_per_day == 0:
            return math.inf
        return self.training_total_kg / self.serving_kg_per_day

    def inference_share_after(self, days: float) -> float:
        """Inference share of the cumulative footprint after ``days``."""
        if days < 0:
            raise UnitError(f"days must be non-negative, got {days}")
        inference = self.serving_kg_per_day * days
        total = inference + self.training_total_kg
        return inference / total if total else 0.0


def lifetime_crossover(
    training: LLMTrainingSpec,
    serving: LLMServingSpec,
    context: AccountingContext | None = None,
) -> LifetimeCrossover:
    """Training-vs-inference crossover under one accounting context.

    Serving carbon is linear in QPS (the additivity invariant), so
    doubling lifetime QPS halves the crossover — the metamorphic law the
    invariant registry pins.
    """
    context = context or default_genai_context()
    train = training_footprint(training, context)
    serve = serving_footprint(serving, context)
    per_day = serve.total.kg * (24.0 / serving.hours)
    return LifetimeCrossover(
        training_total_kg=train.total.kg, serving_kg_per_day=per_day
    )


# ---------------------------------------------------------------------------
# The model inventory
# ---------------------------------------------------------------------------

#: A compute-ladder of LLM families: Chinchilla-proportioned small/mid/large
#: models plus a GPT-3-era under-trained giant for contrast.  Token budgets
#: are ~20 tokens/param except the giant (300B tokens at 175B params).
MODEL_INVENTORY: tuple[LLMTrainingSpec, ...] = (
    LLMTrainingSpec("llm-1b", n_params=1.3e9, n_tokens=2.6e10, n_accelerators=128),
    LLMTrainingSpec("llm-7b", n_params=7.0e9, n_tokens=1.4e11, n_accelerators=512),
    LLMTrainingSpec("llm-70b", n_params=7.0e10, n_tokens=1.4e12, n_accelerators=2048),
    LLMTrainingSpec(
        "llm-175b", n_params=1.75e11, n_tokens=3.0e11, n_accelerators=4096, mfu=0.30
    ),
)

_INVENTORY_BY_NAME = {spec.name: spec for spec in MODEL_INVENTORY}


def inventory_spec(name: str) -> LLMTrainingSpec:
    """Look up a model-inventory training spec by family name."""
    try:
        return _INVENTORY_BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_INVENTORY_BY_NAME))
        raise UnitError(f"unknown model family {name!r}; known: {known}") from None


def default_serving_spec(
    n_params: float = 7.0e9, peak_qps: float = 100.0, **overrides
) -> LLMServingSpec:
    """A serving deployment for an inventory-scale model."""
    kwargs = {
        "name": "llm-serving",
        "n_params": n_params,
        "peak_qps": peak_qps,
    }
    kwargs.update(overrides)
    return LLMServingSpec(**kwargs)


def scale_qps(spec: LLMServingSpec, factor: float) -> LLMServingSpec:
    """The same deployment at ``factor`` x the peak QPS."""
    _positive("factor", factor)
    return replace(spec, peak_qps=spec.peak_qps * factor)
