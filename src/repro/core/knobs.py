"""Knob rows: the numeric domain of every scenario knob, written once.

A :class:`Knob` is one numeric parameter: its range, its default and its
type.  The library's specs check their fields against the tables below
in ``__post_init__`` (:func:`check_fields`), and the carbon-query service
reads request parameters against the same rows (:func:`read_knobs`),
narrowed only where it caps a query's work (``row._replace(hi=...)``).
So the service accepts a value exactly when the library can run it, and
both refuse it with one message::

    parameter 'pue' must be in [1.0, 10.0], got 0.9

Field defaults stay on the spec dataclasses; :func:`with_defaults` copies
them onto a table.  Rules that span fields, or that are not numeric
ranges (a forecast horizon past the stream, weights that do not fit in
device memory), stay hand-written next to the spec.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Mapping, NamedTuple

from repro.errors import UnitError


class Knob(NamedTuple):
    """One numeric knob: its range, its default and its type.

    A value must lie in ``[lo, hi]``, or in ``(lo, hi]`` when ``lo_open``;
    an ``integer`` knob also rejects fractional values (by value, so numpy
    integers and integral floats pass).  A knob left out of a request
    takes ``default`` exactly as written (``None``: no default).
    """

    lo: float
    hi: float
    default: float | None = None
    lo_open: bool = False
    integer: bool = False

    def check(self, name: str, value: object) -> float | int:
        """``value`` as a float (an int for ``integer`` rows), or a :class:`UnitError`."""
        if value.__class__ is not float and value.__class__ is not int:
            if isinstance(value, bool):
                raise UnitError(f"parameter {name!r} must be a number, got a boolean")
            if not isinstance(value, Real):
                raise UnitError(f"parameter {name!r} must be a number, got {type(value).__name__}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise UnitError(f"parameter {name!r} must be finite, got {number!r}")
        lo, hi, _default, lo_open, integer = self
        if integer:
            if not number.is_integer():
                raise UnitError(f"parameter {name!r} must be an integer, got {number!r}")
            number = int(number)
        if number < lo or number > hi or (lo_open and number == lo):
            bracket = "(" if lo_open else "["
            raise UnitError(f"parameter {name!r} must be in {bracket}{lo}, {hi}], got {number}")
        return number

    def read(self, name: str, value: object) -> float | int:
        """:meth:`check`, also accepting a number's text (query strings, CLI flags)."""
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                raise UnitError(f"parameter {name!r} must be a number, got {value!r}") from None
        return self.check(name, value)


def read_knobs(params: Mapping[str, object], table: Mapping[str, Knob]) -> dict[str, object]:
    """Every knob of ``table``, read from ``params`` and range-checked, or its default."""
    return {
        name: knob.read(name, params[name]) if name in params else knob.default
        for name, knob in table.items()
    }


def check_fields(spec: object, table: Mapping[str, Knob]) -> None:
    """Range-check the fields of ``spec`` that ``table`` names (a ``__post_init__``)."""
    for name, knob in table.items():
        knob.check(name, getattr(spec, name))


def with_defaults(table: Mapping[str, Knob], spec: object) -> dict[str, Knob]:
    """``table`` with each row's default read from the same-named field of ``spec``."""
    return {name: knob._replace(default=getattr(spec, name)) for name, knob in table.items()}


# ---------------------------------------------------------------------------
# The rows
# ---------------------------------------------------------------------------

POSITIVE = Knob(0.0, math.inf, lo_open=True)
NON_NEGATIVE = Knob(0.0, math.inf)
FRACTION = Knob(0.0, 1.0, lo_open=True)
PROBABILITY = Knob(0.0, 1.0)
COUNT = Knob(1, math.inf, integer=True)
SEED = Knob(0, 2**32 - 1, integer=True)
#: A week, the longest window a stream's knobs look across.
WEEK_HOURS = Knob(1, 168, integer=True)
#: Sweep point counts, per axis or per draw (the cap on one sweep).
SWEEP_POINTS = Knob(1, 1_000_000, integer=True)

#: :class:`repro.core.scenario.Scenario`.
SCENARIO: dict[str, Knob] = {
    "utilization": FRACTION,
    "lifetime_years": POSITIVE,
    "pue": Knob(1.0, math.inf),
    "devices_per_server": Knob(1, 1024, integer=True),
    "board_power_fraction": FRACTION,
    "infrastructure_embodied_factor": Knob(1.0, math.inf),
}

#: :class:`repro.carbon.stream.StreamSpec` (``forecast_horizon_hours`` must
#: also not exceed ``hours``).
STREAM: dict[str, Knob] = {
    "hours": Knob(48, 61_368, integer=True),  # seven years at most
    "grid_seed": SEED,
    "feed_seed": SEED,
    "window_hours": WEEK_HOURS,
    "forecast_horizon_hours": WEEK_HOURS,
    "max_late_hours": Knob(1, 72, integer=True),
    "max_revision_lag_hours": WEEK_HOURS,
    "max_stall_hours": WEEK_HOURS,
    "stall_detect_hours": WEEK_HOURS,
    "load_kw": Knob(0.0, 1e6, lo_open=True),
    "load_diurnal_fraction": PROBABILITY,
    "pue": Knob(1.0, 10.0),
    "late_probability": PROBABILITY,
    "revision_probability": PROBABILITY,
    "revision_noise": PROBABILITY,
    "stall_probability": Knob(0.0, 0.5),
    "defer_margin": PROBABILITY,
    "min_powered_fraction": FRACTION,
}

#: :class:`repro.workloads.genai.LLMTrainingSpec`.
LLM_TRAINING: dict[str, Knob] = {
    "n_params": POSITIVE,
    "n_tokens": POSITIVE,
    "mfu": FRACTION,
    "n_accelerators": COUNT,
    "board_power_fraction": FRACTION,
    "checkpoint_interval_hours": POSITIVE,
    "checkpoint_cost_hours": NON_NEGATIVE,
    "mtbf_hours": POSITIVE,
    "failed_run_fraction": Knob(0.0, 10.0),  # a 10x program surcharge at most
}

#: :class:`repro.workloads.genai.LLMServingSpec` (the weights and one
#: request's KV cache must also fit in device memory).
LLM_SERVING: dict[str, Knob] = {
    "n_params": POSITIVE,
    "peak_qps": POSITIVE,
    "tokens_per_request": POSITIVE,
    "context_tokens": Knob(1.0, math.inf),  # less can round the KV cache to zero
    "batch_size": COUNT,
    "bytes_per_param": POSITIVE,
    "kv_bytes_per_value": Knob(0.125, math.inf),  # a bit; less can round the KV cache to zero
    "peak_tokens_per_s": POSITIVE,
    "half_saturation_batch": POSITIVE,
    "board_power_fraction": FRACTION,
    "hours": COUNT,
    "trough_fraction": FRACTION,
    "demand_seed": SEED,
}

#: :class:`repro.core.sweep.SweepSpec`.
SWEEP: dict[str, Knob] = {
    "busy_device_hours": NON_NEGATIVE,
    "n_points": SWEEP_POINTS,
    "seed": SEED,
    "intensity_kg_per_kwh": NON_NEGATIVE,
    "devices_per_server": SCENARIO["devices_per_server"],
}

#: :class:`repro.core.sweep.ParameterRange`: the span each sweepable knob
#: may take (both ends inclusive), inside :data:`SCENARIO` so every sampled
#: point is a valid scenario, and the arithmetic well-scaled.
SWEEP_RANGES: dict[str, Knob] = {
    "pue": Knob(1.0, 10.0),
    "utilization": Knob(0.01, 1.0),
    "lifetime_years": Knob(0.25, 100.0),
    "board_power_fraction": Knob(0.05, 1.0),
    "infrastructure_embodied_factor": Knob(1.0, 100.0),
    "intensity_scale": Knob(0.0, 100.0),
}
