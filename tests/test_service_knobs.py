"""The service's knob tables: every row's edges, its defaults and its 400s.

Each numeric query parameter (a *knob*) of the carbon-query service is
one row of :data:`repro.service.queries.KNOBS` (or, for the ``/stream``
cursor, wait and page size, of
:data:`~repro.service.queries.STREAM_TRANSPORT_KNOBS`).  The tests here
are derived from those tables, so a new row is covered once it exists:

* every row parses at both ends of its range and rejects the values just
  past them;
* every accepted edge runs through the worker body
  (:func:`~repro.service.queries.execute_query_task`) and either answers
  or raises a :class:`~repro.errors.SustainableAIError`, which the
  service answers as a structured 400 — no other exception may escape;
* a Hypothesis property draws whole parameter dicts from the tables
  (:func:`repro.testing.strategies.service_query_params`) and checks the
  same contract;
* the tables check themselves: defaults are used as written, so each
  must lie inside its own range and have its knob's type.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from repro.core.canonical import compact_dumps
from repro.errors import QueryError, SustainableAIError
from repro.service import queries
from repro.service.queries import (
    KNOBS,
    MAX_HORIZON_HOURS,
    MAX_TRAINING_HOURS,
    STREAM_TRANSPORT_KNOBS,
    execute_query_task,
    parse_query,
    parse_stream_request,
)

#: A minimal valid query of each kind (genai once per workload).
BASES: dict[str, tuple[dict[str, object], ...]] = {
    "footprint": ({"busy_device_hours": 100.0},),
    "genai": ({"workload": "llm-training"}, {"workload": "llm-serving"}),
    "schedule": ({},),
    "stream": ({},),
}

#: Companion knobs that keep a cross-knob rule satisfied at a row's edges.
COMPANIONS: dict[tuple[str, str], dict[str, object]] = {
    ("schedule", "horizon_hours"): {"grid_hours": MAX_HORIZON_HOURS},
    ("schedule", "grid_hours"): {"horizon_hours": 24},
}


def _edges(knob: queries.Knob) -> tuple[list[float], list[float]]:
    """``(inside, outside)``: the extreme values of a range and their neighbours past it."""
    lo, hi, _default, lo_open, integer = knob
    if integer:
        return [lo, hi], [lo - 1, hi + 1]
    inside = [math.nextafter(lo, math.inf) if lo_open else lo]
    outside = [lo if lo_open else math.nextafter(lo, -math.inf)]
    if math.isfinite(hi):
        inside.append(hi)
        outside.append(math.nextafter(hi, math.inf))
    return inside, outside


def _rows():
    for kind, table in KNOBS.items():
        for base in BASES[kind]:
            for name, knob in table.items():
                params = {**base, **COMPANIONS.get((kind, name), {})}
                label = f"{base.get('workload', kind)}.{name}"
                yield pytest.param(kind, params, name, knob, id=label)


def _runs_or_400(kind: str, query: queries.Query) -> None:
    """The worker body answers, or raises what the service maps to a 400."""
    try:
        outcome = execute_query_task(kind, compact_dumps(query.to_params()), in_worker=False)
    except SustainableAIError:
        return
    assert isinstance(outcome["payload"], dict)


def _markdown(table: dict[str, queries.Knob]) -> str:
    """A knob table as docs/SERVICE.md shows it."""

    def number(x: float) -> str:
        return str(x) if isinstance(x, int) else f"{x:g}".replace("e+0", "e").replace("e+", "e")

    rows = ["| Knob | Type | Range | Default |", "|---|---|---|---|"]
    for name, (lo, hi, default, lo_open, integer) in table.items():
        bounds = f"{'(' if lo_open else '['}{number(lo)}, {number(hi)}]"
        shown = "—" if default is None else number(default)
        rows.append(f"| `{name}` | {'integer' if integer else 'number'} | {bounds} | {shown} |")
    return "\n".join(rows)


class TestBoundaries:
    @pytest.mark.parametrize("kind, base, name, knob", list(_rows()))
    def test_every_row_accepts_its_edges_and_rejects_past_them(self, kind, base, name, knob):
        inside, outside = _edges(knob)
        for value in outside:
            with pytest.raises(QueryError, match=re.escape(f"parameter {name!r} must be in")):
                parse_query(kind, {**base, name: value})
        for value in inside:
            try:
                query = parse_query(kind, {**base, name: value})
            except QueryError as exc:
                # A cross-knob or library rule may still refuse an edge
                # (a KV cache past device memory); the row itself may not.
                assert f"parameter {name!r}" not in str(exc)
                continue
            _runs_or_400(kind, query)

    @pytest.mark.parametrize("name", list(STREAM_TRANSPORT_KNOBS))
    def test_transport_rows_accept_their_edges_and_stay_out_of_the_key(self, name):
        inside, outside = _edges(STREAM_TRANSPORT_KNOBS[name])
        for value in inside:
            query, transport = parse_stream_request({"hours": 48, name: value})
            assert transport[name] == value
            assert query.cache_key() == parse_query("stream", {"hours": 48}).cache_key()
        for value in outside:
            with pytest.raises(QueryError, match=re.escape(f"parameter {name!r} must be in")):
                parse_stream_request({"hours": 48, name: value})

    def test_training_horizon_cap(self):
        """Just below the wall-clock cap runs; just above is a structured 400."""
        knobs = {"workload": "llm-training", "n_params": 2e11, "mfu": 0.2, "n_accelerators": 1}
        probe = parse_query("genai", {**knobs, "n_tokens": 1e9})
        tokens_at_cap = 1e9 * MAX_TRAINING_HOURS / probe._spec().wall_clock_hours
        below = parse_query("genai", {**knobs, "n_tokens": tokens_at_cap * 0.999})
        assert below._spec().wall_clock_hours < MAX_TRAINING_HOURS
        outcome = execute_query_task("genai", compact_dumps(below.to_params()), in_worker=False)
        assert outcome["payload"]["headline"]["wall_clock_hours"] < MAX_TRAINING_HOURS
        with pytest.raises(QueryError, match=f"the service cap is {MAX_TRAINING_HOURS}"):
            parse_query("genai", {**knobs, "n_tokens": tokens_at_cap * 1.001})


@pytest.mark.property
@pytest.mark.parametrize("kind", list(KNOBS))
def test_the_service_accepts_only_what_the_library_can_run(kind):
    hypothesis = pytest.importorskip("hypothesis")
    from repro.testing.strategies import service_query_params

    @hypothesis.given(params=service_query_params(kind))
    def check(params):
        try:
            query = parse_query(kind, params)
        except QueryError:
            return
        _runs_or_400(kind, query)

    check()


class TestTables:
    @pytest.mark.parametrize(
        "table", [*KNOBS.values(), STREAM_TRANSPORT_KNOBS], ids=[*KNOBS, "transport"]
    )
    def test_defaults_lie_in_range_and_have_the_knob_type(self, table):
        for name, (lo, hi, default, lo_open, integer) in table.items():
            number = int if integer else float
            assert type(lo) is number and type(hi) is number and lo < hi, name
            if default is not None:
                assert type(default) is number, name
                assert (lo < default if lo_open else lo <= default) and default <= hi, name

    def test_service_docs_show_every_table(self):
        doc = (Path(__file__).resolve().parents[1] / "docs" / "SERVICE.md").read_text()
        for table in (*KNOBS.values(), STREAM_TRANSPORT_KNOBS):
            assert _markdown(table) in doc

    @pytest.mark.parametrize("kind, base", [(k, b) for k, bases in BASES.items() for b in bases])
    def test_an_explicit_default_keys_like_an_omitted_one(self, kind, base):
        omitted = parse_query(kind, base).cache_key()
        for name, knob in KNOBS[kind].items():
            if knob.default is None or name in base:
                continue
            params = {**base, name: knob.default}
            if name == "intensity_kg_per_kwh":
                params["intensity_label"] = "us-average"
            assert parse_query(kind, params).cache_key() == omitted, name
            params[name] = str(knob.default)
            assert parse_query(kind, params).cache_key() == omitted, name


#: 400 messages, byte for byte, a few rows per kind.
MESSAGES = [
    (
        "footprint",
        {"busy_device_hours": -5},
        "parameter 'busy_device_hours' must be in [0.0, 1000000000000.0], got -5.0",
    ),
    (
        "footprint",
        {"busy_device_hours": 1, "utilization": "0"},
        "parameter 'utilization' must be in (0.0, 1.0], got 0.0",
    ),
    (
        "footprint",
        {"busy_device_hours": 1, "devices_per_server": "2.5"},
        "parameter 'devices_per_server' must be an integer, got 2.5",
    ),
    (
        "footprint",
        {"busy_device_hours": "nan"},
        "parameter 'busy_device_hours' must be finite, got nan",
    ),
    (
        "footprint",
        {"busy_device_hours": True},
        "parameter 'busy_device_hours' must be a number, got a boolean",
    ),
    ("footprint", {}, "footprint query requires 'busy_device_hours'"),
    (
        "footprint",
        {"busy_device_hours": 1, "bogus": 2},
        "unknown parameter(s) for 'footprint' query: bogus; allowed: busy_device_hours, "
        "utilization, pue, lifetime_years, board_power_fraction, infrastructure_factor, "
        "devices_per_server, intensity_kg_per_kwh, region, intensity_label",
    ),
    (
        "footprint",
        {"busy_device_hours": 1, "region": "nordic", "intensity_kg_per_kwh": 0.1},
        "provide either 'intensity_kg_per_kwh' or 'region', not both",
    ),
    (
        "genai",
        {"workload": "llm-serving", "demand_seed": -1},
        "parameter 'demand_seed' must be in [0, 4294967295], got -1",
    ),
    (
        "genai",
        {"workload": "llm-training", "mfu": 0.96},
        "parameter 'mfu' must be in (0.0, 0.95], got 0.96",
    ),
    (
        "genai",
        {"workload": "llm-training", "model": "llm-7b", "mfu": 0.3},
        "provide either 'model' or explicit spec knobs, not both (got model plus: mfu)",
    ),
    (
        "genai",
        {"workload": "llm-training", "n_params": 1e13, "n_tokens": 1e15, "mfu": 0.95,
         "n_accelerators": 1},
        "training run would last 6.51007e+10 wall-clock hours; the service cap is 2000000 "
        "(add accelerators or raise 'mfu')",
    ),
    ("schedule", {"seed": -1}, "parameter 'seed' must be in [0, 4294967295], got -1"),
    ("schedule", {"grid_seed": "-1"}, "parameter 'grid_seed' must be in [0, 4294967295], got -1"),
    ("schedule", {"n_jobs": 0}, "parameter 'n_jobs' must be in [1, 500], got 0"),
    (
        "schedule",
        {"capacity_kw": 0},
        "parameter 'capacity_kw' must be in (0.0, 1000000000.0], got 0.0",
    ),
    (
        "schedule",
        {"horizon_hours": 200},
        "'horizon_hours' (200) must not exceed 'grid_hours' (168); jobs scheduled past "
        "the grid trace would have undefined emissions",
    ),
    ("stream", {"hours": 47}, "parameter 'hours' must be in [48, 8784], got 47"),
    (
        "stream",
        {"stall_probability": 0.6},
        "parameter 'stall_probability' must be in [0.0, 0.5], got 0.6",
    ),
]

TRANSPORT_MESSAGES = [
    ({"cursor": -1}, "parameter 'cursor' must be in [0, 17568], got -1"),
    ({"wait_s": "-1"}, "parameter 'wait_s' must be in [0.0, inf], got -1.0"),
    ({"max_ticks": 0}, "parameter 'max_ticks' must be in [1, 20000], got 0"),
]


class TestMessages:
    @pytest.mark.parametrize("kind, params, message", MESSAGES)
    def test_400_message_bytes(self, kind, params, message):
        with pytest.raises(QueryError) as caught:
            parse_query(kind, params)
        assert str(caught.value) == message

    @pytest.mark.parametrize("params, message", TRANSPORT_MESSAGES)
    def test_transport_400_message_bytes(self, params, message):
        with pytest.raises(QueryError) as caught:
            parse_stream_request(params)
        assert str(caught.value) == message
