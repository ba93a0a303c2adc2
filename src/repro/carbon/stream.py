"""Tick-level grid-intensity streaming: feeds, forecasts, delta payloads.

Carbon-aware operation reacts to *live* grid intensity (Section IV-C),
but real intensity feeds are messy: observations arrive late and out of
order, recently-published values are revised, and feeds stall outright.
This module provides the deterministic seeded stand-in for such a feed
plus everything a live consumer needs on top of it:

* :func:`simulate_tick_trace` — the tick log for a :class:`StreamSpec`:
  one preliminary observation per hour (possibly delayed), optional
  exact revisions with bounded lag, and stall windows that push whole
  stretches of emissions later.  Pure and memoized: the same spec always
  yields the same tick sequence, which is what makes the service path
  byte-comparable to a library replay.
* :func:`rolling_forecast` — the live forecast ladder.  With a week of
  healthy history it uses a rolling last-168-hour climatology; with less
  it degrades to :func:`~repro.carbon.forecast.persistence_forecast`;
  when the feed has *stalled* (frontier lags the feed clock) it falls
  back to the full-history :func:`~repro.carbon.forecast.diurnal_forecast`
  — persistence would just repeat the stale last day — and with under a
  day of history it goes flat.
* :func:`stream_delta_payload` — the canonical delta document for a
  cursor range ``[from_seq, to_seq)``: the ticks, the incremental
  accounting snapshot at ``to_seq`` (see
  :mod:`repro.core.incremental`), and the schedule advice derived from
  the rolling forecast.  The ``/stream`` endpoint serves exactly these
  bytes; conformance tests diff the two paths byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from repro.carbon.forecast import diurnal_forecast, persistence_forecast
from repro.carbon.grid import GridTrace, synthesize_grid_trace
from repro.core import knobs
from repro.core.incremental import IncrementalAccounting
from repro.core.memo import memoized_substrate
from repro.core.series import HourlySeries
from repro.errors import UnitError

#: Longest stream horizon the library will synthesize (seven years).
MAX_STREAM_HOURS = knobs.STREAM["hours"].hi


@dataclass(frozen=True, slots=True)
class StreamSpec:
    """Full parameterization of one deterministic intensity stream.

    A spec is the stream's *identity*: every derived artifact — tick log,
    accounting state at a cursor, delta payload bytes — is a pure
    function of ``(spec, cursor range)``.  Specs are hashable (memo keys)
    and canonically serializable (fabric routing keys).
    """

    hours: int = 168
    grid_seed: int = 0
    feed_seed: int = 0
    load_kw: float = 100.0
    load_diurnal_fraction: float = 0.3
    pue: float = 1.1
    window_hours: int = 24
    forecast_horizon_hours: int = 24
    late_probability: float = 0.15
    max_late_hours: int = 6
    revision_probability: float = 0.2
    max_revision_lag_hours: int = 48
    revision_noise: float = 0.08
    stall_probability: float = 0.02
    max_stall_hours: int = 12
    stall_detect_hours: int = 8
    defer_margin: float = 0.05
    min_powered_fraction: float = 0.4

    def __post_init__(self) -> None:
        knobs.check_fields(self, knobs.STREAM)
        if self.forecast_horizon_hours > self.hours:
            raise UnitError("forecast horizon must not exceed the stream horizon")

    def to_params(self) -> dict[str, object]:
        """The spec as a flat canonical parameter mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True, slots=True)
class Tick:
    """One feed event: a preliminary observation or an exact revision."""

    seq: int
    hour: int
    emit_slot: int
    kind: str  # "observe" | "revise"
    intensity_kg_per_kwh: float

    def to_payload(self) -> dict[str, object]:
        return {
            "seq": self.seq,
            "hour": self.hour,
            "emit_slot": self.emit_slot,
            "kind": self.kind,
            "intensity_kg_per_kwh": self.intensity_kg_per_kwh,
        }


def truth_trace(spec: StreamSpec) -> GridTrace:
    """The underlying true grid trace the feed eventually converges on."""
    return synthesize_grid_trace(hours=spec.hours, seed=spec.grid_seed)


def load_profile(spec: StreamSpec) -> HourlySeries:
    """The stream's fixed hourly IT load (kWh/h), diurnal around ``load_kw``.

    The shape peaks mid-afternoon; with ``load_diurnal_fraction`` f the
    hourly multiplier stays within ``[1 - f/2, 1 + f/2]`` — always
    positive, so the relative-demand trace is well-defined for the
    auto-scaler.
    """
    hod = np.arange(spec.hours) % 24
    shape = 1.0 + 0.5 * spec.load_diurnal_fraction * np.sin(
        2.0 * np.pi * (hod - 9.0) / 24.0
    )
    return HourlySeries(spec.load_kw * shape)


@memoized_substrate
def simulate_tick_trace(spec: StreamSpec) -> tuple[Tick, ...]:
    """The full deterministic tick log for a spec.

    Each hour gets one ``observe`` tick carrying a preliminary value
    (exact truth unless the hour will later be revised, in which case it
    carries multiplicative noise); revised hours get a second ``revise``
    tick carrying the exact truth with bounded lag.  Stalls accumulate a
    cumulative emission delay, so whole stretches of the feed arrive as
    a late catch-up burst.  Events are ordered by ``(emit_slot, hour,
    kind)`` and numbered ``seq = 0..n-1``.
    """
    truth = truth_trace(spec).intensity_kg_per_kwh
    rng = np.random.default_rng(spec.feed_seed)

    # Pass 1: stall windows.  A stall starting at hour ``s`` suppresses
    # emission during ``[s, s + duration)``; everything due in that
    # window arrives as a catch-up burst at the window's end, after
    # which the feed runs at its normal clock again (stalls delay, they
    # do not permanently offset the feed).
    stalls: list[tuple[int, int]] = []
    for h in range(spec.hours):
        if rng.uniform() < spec.stall_probability:
            stalls.append((h, h + int(rng.integers(1, spec.max_stall_hours + 1))))

    def _push(slot: int) -> int:
        for start, until in stalls:
            if start <= slot < until:
                slot = until
        return slot

    # Pass 2: per-hour observation delay, revision draw, values.
    events: list[tuple[int, int, int, str, float]] = []
    for h in range(spec.hours):
        delay = 0
        if rng.uniform() < spec.late_probability:
            delay = int(rng.integers(1, spec.max_late_hours + 1))
        revise = rng.uniform() < spec.revision_probability
        value = float(truth[h])
        if revise:
            noise = float(rng.normal(0.0, spec.revision_noise))
            preliminary = max(0.0, value * (1.0 + noise))
        else:
            preliminary = value
        emit = _push(h + delay)
        events.append((emit, h, 0, "observe", preliminary))
        if revise:
            lag = int(rng.integers(1, spec.max_revision_lag_hours + 1))
            events.append((_push(emit + lag), h, 1, "revise", value))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return tuple(
        Tick(seq=i, hour=h, emit_slot=emit, kind=kind, intensity_kg_per_kwh=v)
        for i, (emit, h, _order, kind, v) in enumerate(events)
    )


def rolling_forecast(
    observed_intensity: np.ndarray, horizon_hours: int, stalled: bool = False
) -> tuple[np.ndarray, str]:
    """The live forecast ladder over a contiguous observed prefix.

    Returns ``(forecast, source)`` where ``source`` names the rung used:
    ``"rolling"`` (last-week climatology), ``"persistence"`` (< 1 week of
    history), ``"diurnal"`` (feed stalled: full-history climatology),
    ``"flat"`` (< 1 day of history), or ``"cold"`` (nothing observed).
    """
    if horizon_hours <= 0:
        raise UnitError("horizon must be positive")
    observed = np.asarray(observed_intensity, dtype=float)
    if len(observed) == 0:
        return np.zeros(horizon_hours), "cold"
    if len(observed) < 24:
        return np.full(horizon_hours, float(observed[-1])), "flat"
    zeros = np.zeros(len(observed))
    trace = GridTrace(
        solar_share=zeros, wind_share=zeros, intensity_kg_per_kwh=observed
    )
    if stalled:
        return diurnal_forecast(trace, horizon_hours), "diurnal"
    if len(observed) >= 168:
        window = observed[-168:]
        window_trace = GridTrace(
            solar_share=np.zeros(168),
            wind_share=np.zeros(168),
            intensity_kg_per_kwh=window,
        )
        return diurnal_forecast(window_trace, horizon_hours), "rolling"
    return persistence_forecast(trace, horizon_hours), "persistence"


@dataclass(frozen=True, slots=True)
class StreamAdvice:
    """Schedule advice derived from the rolling forecast at one cursor."""

    stalled: bool
    forecast_source: str
    forecast_horizon_hours: int
    forecast_min_kg_per_kwh: float
    greenest_start_in_hours: int
    current_kg_per_kwh: float
    defer_recommended: bool
    recommended_powered_fraction: float

    def to_payload(self) -> dict[str, object]:
        return {
            "stalled": self.stalled,
            "forecast_source": self.forecast_source,
            "forecast_horizon_hours": self.forecast_horizon_hours,
            "forecast_min_kg_per_kwh": self.forecast_min_kg_per_kwh,
            "greenest_start_in_hours": self.greenest_start_in_hours,
            "current_kg_per_kwh": self.current_kg_per_kwh,
            "defer_recommended": self.defer_recommended,
            "recommended_powered_fraction": self.recommended_powered_fraction,
        }


def advice_at(
    spec: StreamSpec, state: IncrementalAccounting, last_emit_slot: int
) -> StreamAdvice:
    """Advice from the state's contiguous prefix and the feed clock.

    Stall detection compares the feed clock (the newest delivered tick's
    ``emit_slot``) to the contiguous observation frontier: a frontier
    more than ``stall_detect_hours`` behind the clock means new feed time
    is passing without the prefix advancing.
    """
    prefix = state.contiguous_hours
    stalled = (int(last_emit_slot) - prefix) >= spec.stall_detect_hours
    observed = state.contiguous_intensity()
    forecast, source = rolling_forecast(
        observed, spec.forecast_horizon_hours, stalled=stalled
    )
    current = float(observed[-1]) if prefix > 0 else 0.0
    forecast_min = float(np.min(forecast))
    greenest = int(np.argmin(forecast))
    defer = prefix > 0 and current > forecast_min * (1.0 + spec.defer_margin)
    if defer and current > 0.0:
        powered = max(spec.min_powered_fraction, min(1.0, forecast_min / current))
    else:
        powered = 1.0
    return StreamAdvice(
        stalled=stalled,
        forecast_source=source,
        forecast_horizon_hours=spec.forecast_horizon_hours,
        forecast_min_kg_per_kwh=forecast_min,
        greenest_start_in_hours=greenest,
        current_kg_per_kwh=current,
        defer_recommended=defer,
        recommended_powered_fraction=powered,
    )


def stream_state_at(
    spec: StreamSpec, upto_seq: int, ticks: Optional[Sequence[Tick]] = None
) -> IncrementalAccounting:
    """Accounting state after folding ticks ``0..upto_seq`` — the replay path."""
    if ticks is None:
        ticks = simulate_tick_trace(spec)
    if not (0 <= upto_seq <= len(ticks)):
        raise UnitError(
            f"cursor {upto_seq} outside the {len(ticks)}-tick stream"
        )
    state = IncrementalAccounting(
        load_profile(spec), pue=spec.pue, window_hours=spec.window_hours
    )
    for tick in ticks[:upto_seq]:
        state.fold(tick.hour, tick.intensity_kg_per_kwh)
    return state


def stream_delta_payload(
    spec: StreamSpec,
    from_seq: int,
    to_seq: int,
    *,
    ticks: Optional[Sequence[Tick]] = None,
    state: Optional[IncrementalAccounting] = None,
) -> dict[str, object]:
    """The canonical delta document for cursor range ``[from_seq, to_seq)``.

    ``state``, when given, must be the accounting state folded to exactly
    ``to_seq`` ticks (the service's live state); otherwise the state is
    replayed from scratch.  Because the incremental fold is bit-equal to
    the replay, both call sites render identical documents — the basis
    of the ``/stream`` byte-identity conformance contract.
    """
    if ticks is None:
        ticks = simulate_tick_trace(spec)
    total = len(ticks)
    if not (0 <= from_seq <= to_seq <= total):
        raise UnitError(
            f"delta range [{from_seq}, {to_seq}) invalid for a {total}-tick stream"
        )
    if state is None:
        state = stream_state_at(spec, to_seq, ticks=ticks)
    elif state.ticks_folded != to_seq:
        raise UnitError(
            f"state folded to {state.ticks_folded} ticks, expected {to_seq}"
        )
    snap = state.snapshot()
    last_slot = int(ticks[to_seq - 1].emit_slot) if to_seq > 0 else 0
    advice = advice_at(spec, state, last_slot)
    accounting = snap.to_payload()
    accounting["facility_energy_kwh"] = snap.it_energy_kwh * spec.pue
    return {
        "stream": spec.to_params(),
        "from_seq": int(from_seq),
        "to_seq": int(to_seq),
        "total_ticks": total,
        "done": to_seq == total,
        "ticks": [tick.to_payload() for tick in ticks[from_seq:to_seq]],
        "accounting": accounting,
        "advice": advice.to_payload(),
    }


__all__ = [
    "MAX_STREAM_HOURS",
    "StreamSpec",
    "Tick",
    "StreamAdvice",
    "truth_trace",
    "load_profile",
    "simulate_tick_trace",
    "rolling_forecast",
    "advice_at",
    "stream_state_at",
    "stream_delta_payload",
]
