"""The knob tables: every row's edges, its defaults and its 400s.

Each numeric query parameter (a *knob*) of the carbon-query service is
one row of :data:`repro.service.queries.KNOBS` (or, for the ``/stream``
cursor, wait and page size, of
:data:`~repro.service.queries.STREAM_TRANSPORT_KNOBS`), and each is a row
of :mod:`repro.core.knobs` — the one the library spec checks itself
against — narrowed only where the service caps a query's work.  The tests
here are derived from those tables, so a new row is covered once it
exists:

* every service row parses at both ends of its range and rejects the
  values just past them; only a rule that spans knobs may refuse an edge;
* every accepted edge runs through the worker body
  (:func:`~repro.service.queries.execute_query_task`) and either answers
  or raises a :class:`~repro.errors.SustainableAIError`, which the
  service answers as a structured 400 — no other exception may escape;
* every library row constructs its spec at both ends and refuses the
  values just past them with the text the parser gives;
* Hypothesis properties draw whole parameter dicts from the tables
  (:func:`repro.testing.strategies.service_query_params`) and values just
  outside a library row, and check the same contracts;
* the tables check themselves: defaults are used as written, so each
  must lie inside its own range and have its knob's type, and a service
  row may only narrow the library row it reads.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

from repro.carbon.stream import StreamSpec
from repro.core import knobs
from repro.core.canonical import compact_dumps
from repro.core.scenario import Scenario
from repro.core.sweep import ParameterRange, SweepSpec
from repro.errors import QueryError, SustainableAIError, UnitError
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
from repro.workloads.genai import LLMServingSpec, LLMTrainingSpec
from tests.serviceutil import running_service

#: A small valid sweep range, for sweep queries.
PUE_RANGE = {"name": "pue", "lo": 1.1, "hi": 1.2, "points": 2}

#: A minimal valid query of each kind (genai once per workload).
BASES: dict[str, tuple[dict[str, object], ...]] = {
    "footprint": ({"busy_device_hours": 100.0},),
    "genai": ({"workload": "llm-training"}, {"workload": "llm-serving"}),
    "schedule": ({},),
    "stream": ({},),
    "sweep": ({"busy_device_hours": 100.0, "ranges": [PUE_RANGE]},),
}

#: The two row edges a rule spanning knobs refuses, and that rule's text:
#: a training run at ``mfu=5e-324`` outlasts the service's wall-clock cap,
#: and ``1e13`` parameters do not fit in an accelerator's memory.
CROSS_KNOB_EDGES: dict[tuple[str, str], str] = {
    ("llm-training", "mfu"): "wall-clock hours; the service cap is",
    ("llm-serving", "n_params"): "do not fit in",
}

#: Companion knobs that keep a cross-knob rule satisfied at a row's edges.
COMPANIONS: dict[tuple[str, str], dict[str, object]] = {
    ("schedule", "horizon_hours"): {"grid_hours": MAX_HORIZON_HOURS},
    ("schedule", "grid_hours"): {"horizon_hours": 24},
}


def _edges(knob: knobs.Knob) -> tuple[list[float], list[float]]:
    """``(inside, outside)``: the finite extremes of a range and their neighbours past it."""
    lo, hi, _default, lo_open, integer = knob
    if integer:
        inside, outside = [lo], [lo - 1]
    else:
        inside = [math.nextafter(lo, math.inf) if lo_open else lo]
        outside = [lo if lo_open else math.nextafter(lo, -math.inf)]
    if math.isfinite(hi):
        inside.append(hi)
        outside.append(hi + 1 if integer else math.nextafter(hi, math.inf))
    return inside, outside


def _training(**knob) -> LLMTrainingSpec:
    return LLMTrainingSpec(**{"name": "t", "n_params": 7.0e9, "n_tokens": 1.4e11, **knob})


def _serving(**knob) -> LLMServingSpec:
    return LLMServingSpec(**{"name": "s", "n_params": 7.0e9, "peak_qps": 100.0, **knob})


#: Each library spec: a constructor over valid defaults, its rows, and the
#: query (kind and minimal parameters) that reads the same rows.
SPECS = {
    "Scenario": (Scenario, knobs.SCENARIO, "footprint", BASES["footprint"][0]),
    "StreamSpec": (StreamSpec, knobs.STREAM, "stream", BASES["stream"][0]),
    "LLMTrainingSpec": (_training, knobs.LLM_TRAINING, "genai", BASES["genai"][0]),
    "LLMServingSpec": (_serving, knobs.LLM_SERVING, "genai", BASES["genai"][1]),
    "SweepSpec": (SweepSpec, knobs.SWEEP, "sweep", BASES["sweep"][0]),
}


def _library_rows() -> list[tuple]:
    """``(label, name, row, build, query, service row)`` for every row of every spec.

    ``build(value)`` constructs the spec with the knob at ``value``;
    ``query(value)`` is the ``(kind, params)`` of the query that reads the
    knob, whose row is ``service row`` (``None``: not a query knob).
    """
    cases = []
    for label, (build, rows, kind, base) in SPECS.items():
        for name, row in rows.items():
            cases.append((
                f"{label}.{name}", name, row,
                lambda value, build=build, name=name: build(**{name: value}),
                lambda value, kind=kind, base=base, name=name: (kind, {**base, name: value}),
                KNOBS[kind].get(name),
            ))
    sweep = BASES["sweep"][0]
    for name, span in knobs.SWEEP_RANGES.items():
        cases.append((
            f"ParameterRange.{name}", name, span,
            lambda value, name=name: ParameterRange(name, value, value, 1),
            lambda value, name=name: (
                "sweep", {**sweep, "ranges": [{"name": name, "lo": value, "hi": value, "points": 1}]}
            ),
            span,
        ))
    cases.append((
        "ParameterRange.points", "points", knobs.SWEEP_POINTS,
        lambda value: ParameterRange("pue", 1.1, 1.2, value),
        lambda value: ("sweep", {**sweep, "ranges": [{**PUE_RANGE, "points": value}]}),
        knobs.SWEEP_POINTS,
    ))
    return cases


LIBRARY_ROWS = _library_rows()


def _refused_alike(name, row, build, query, service_row, value) -> None:
    """The spec refuses ``value`` with its row's text; the parser refuses it too,
    with the very same text unless the service narrows the row."""
    with pytest.raises(UnitError) as refused:
        build(value)
    text = str(refused.value)
    bracket = "(" if row.lo_open else "["
    assert text == f"parameter {name!r} must be in {bracket}{row.lo}, {row.hi}], got {value}"
    if service_row is None:
        return
    with pytest.raises(QueryError) as parsed:
        parse_query(*query(value))
    if service_row._replace(default=None) == row:
        assert str(parsed.value) == text
    else:
        assert str(parsed.value).startswith(f"parameter {name!r} must be in ")


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


def _number(x: float) -> str:
    return str(x) if isinstance(x, int) else f"{x:g}".replace("e+0", "e").replace("e+", "e")


def _bound_text(knob: knobs.Knob) -> str:
    """A row's range as the docs show it: ``[1, 10]``, ``(0, 1]``."""
    return f"{'(' if knob.lo_open else '['}{_number(knob.lo)}, {_number(knob.hi)}]"


def _markdown(table: dict[str, knobs.Knob]) -> str:
    """A knob table as docs/SERVICE.md shows it."""
    rows = ["| Knob | Type | Range | Default |", "|---|---|---|---|"]
    for name, knob in table.items():
        shown = "—" if knob.default is None else _number(knob.default)
        kind = "integer" if knob.integer else "number"
        rows.append(f"| `{name}` | {kind} | {_bound_text(knob)} | {shown} |")
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
                # The library reads the same rows, so only a rule that
                # spans knobs may refuse an edge the row admits.
                rule = CROSS_KNOB_EDGES.get((base.get("workload", kind), name))
                assert rule is not None and rule in str(exc), str(exc)
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


class TestLibraryRows:
    @pytest.mark.parametrize(
        "name, row, build, query, service_row",
        [pytest.param(*case[1:], id=case[0]) for case in LIBRARY_ROWS],
    )
    def test_every_spec_row_constructs_at_its_edges_and_refuses_past_them(
        self, name, row, build, query, service_row
    ):
        inside, outside = _edges(row)
        for value in inside:
            build(value)
        for value in outside:
            _refused_alike(name, row, build, query, service_row, value)


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


def _just_outside(row: knobs.Knob):
    """Values within one unit (or one magnitude) past either finite end of ``row``."""
    from hypothesis import strategies as st

    lo, hi, _default, lo_open, integer = row
    if integer:
        sides = [st.integers(lo - 1000, lo - 1)]
        if math.isfinite(hi):
            sides.append(st.integers(hi + 1, hi + 1000))
    else:
        sides = [st.floats(lo - max(1.0, abs(lo)), lo, exclude_max=not lo_open)]
        if math.isfinite(hi):
            sides.append(st.floats(hi, hi + max(1.0, abs(hi)), exclude_min=True))
    return st.one_of(sides)


@pytest.mark.property
def test_the_parser_and_the_library_refuse_alike():
    """A value just outside a library row: both refuse it, with one text where the rows agree."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.given(case=st.sampled_from(LIBRARY_ROWS), data=st.data())
    def check(case, data):
        _label, name, row, build, query, service_row = case
        _refused_alike(name, row, build, query, service_row, data.draw(_just_outside(row)))

    check()


#: The library row each service knob reads (schedule's rows are the service's own).
SERVICE_SOURCES: dict[str, dict[str, knobs.Knob]] = {
    "footprint": {
        **knobs.SCENARIO,
        "busy_device_hours": knobs.SWEEP["busy_device_hours"],
        "infrastructure_factor": knobs.SCENARIO["infrastructure_embodied_factor"],
        "intensity_kg_per_kwh": knobs.SWEEP["intensity_kg_per_kwh"],
    },
    "genai": {
        **knobs.SCENARIO,
        **knobs.LLM_SERVING,
        **knobs.LLM_TRAINING,
        "intensity_kg_per_kwh": knobs.SWEEP["intensity_kg_per_kwh"],
    },
    "sweep": knobs.SWEEP,
    "stream": knobs.STREAM,
}


class TestTables:
    @pytest.mark.parametrize("kind", list(SERVICE_SOURCES))
    def test_a_service_row_only_narrows_its_library_row(self, kind):
        for name, row in KNOBS[kind].items():
            source = SERVICE_SOURCES[kind][name]
            assert row.integer == source.integer, name
            assert source.lo <= row.lo <= row.hi <= source.hi, name
            assert row.lo_open or not source.lo_open or row.lo > source.lo, name

    def test_sweep_docs_show_every_range_row(self):
        doc = (Path(__file__).resolve().parents[1] / "docs" / "SWEEPS.md").read_text()
        for name, span in knobs.SWEEP_RANGES.items():
            assert f"| `{name}` | {_bound_text(span)} |" in doc, name
        assert f"| `points` | {_bound_text(knobs.SWEEP_POINTS)} |" in doc

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
    ("stream", {"load_kw": 0}, "parameter 'load_kw' must be in (0.0, 1000000.0], got 0.0"),
    (
        "stream",
        {"min_powered_fraction": "0"},
        "parameter 'min_powered_fraction' must be in (0.0, 1.0], got 0.0",
    ),
    (
        "genai",
        {"workload": "llm-serving", "context_tokens": 0.5},
        "parameter 'context_tokens' must be in [1.0, 32768.0], got 0.5",
    ),
    ("sweep", {"ranges": [PUE_RANGE]}, "sweep query requires 'busy_device_hours'"),
    (
        "sweep",
        {**BASES["sweep"][0], "n_points": 0},
        "parameter 'n_points' must be in [1, 1000000], got 0",
    ),
    (
        "sweep",
        {**BASES["sweep"][0], "ranges": [{**PUE_RANGE, "lo": 0.5}]},
        "parameter 'pue' must be in [1.0, 10.0], got 0.5",
    ),
    (
        "genai",
        {"workload": ["llm-training"]},
        "parameter 'workload' must be one of llm-training, llm-serving; got ['llm-training']",
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


@pytest.fixture(scope="module")
def service():
    with running_service(workers=0) as (_handle, client):
        yield client


class TestSweepRefusals:
    """``POST /sweep`` refuses, at submission, a sweep the library cannot run."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"sampling": "sobol", "seed": -1},
                "parameter 'seed' must be in [0, 4294967295], got -1",
            ),
            (
                {"busy_device_hours": 1e308, "intensity_kg_per_kwh": 1e10},
                "parameter 'busy_device_hours' must be in [0.0, 1000000000000.0], got 1e+308",
            ),
            (
                {"busy_device_hours": True},
                "parameter 'busy_device_hours' must be a number, got a boolean",
            ),
            (
                {"devices_per_server": 2.7},
                "parameter 'devices_per_server' must be an integer, got 2.7",
            ),
            (
                {"ranges": [{**PUE_RANGE, "points": 2.9}]},
                "parameter 'points' must be an integer, got 2.9",
            ),
        ],
    )
    def test_a_sweep_the_library_cannot_run_is_400(self, service, changes, message):
        reply = service.post("/sweep", {**BASES["sweep"][0], **changes})
        assert reply.status == 400
        assert reply.json()["error"] == {"kind": "bad-request", "message": message}
