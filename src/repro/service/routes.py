"""The route table of the carbon-query service and the fabric router.

Every endpoint is one row of :data:`ROUTES`: its label, which is also its
path pattern (``{id}`` matches the rest of the path), and each method it
answers with the query kind that method's requests parse into.  The
service (:mod:`repro.service.app`) dispatches on the row a request
matches, and the router (:mod:`repro.service.router`) reads the same row
for the request's ring key, so a request counts under one label in
``/metrics`` on a replica and on the router alike.

A path no row matches is a ``404``; a path a row matches, by a method the
row does not answer, is a ``405`` counted under the row's label.  So
whatever clients send, ``/metrics`` counts under the rows' labels,
:data:`UNKNOWN`, :data:`INTERNAL_ERROR` and :data:`MALFORMED` only.
docs/SERVICE.md shows the table.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Mapping, NamedTuple

from repro.service import queries
from repro.service.http import ProtocolError, Request, Response
from repro.telemetry.counters import ServiceCounters

#: The labels of a request no row matches, of an exception no route maps,
#: and of bytes that do not parse as a request.
UNKNOWN = "(unknown)"
INTERNAL_ERROR = "(internal-error)"
MALFORMED = "(malformed)"


class Route(NamedTuple):
    """One endpoint: its label, which is also its path pattern, and its methods."""

    label: str
    #: Each method the endpoint answers, and the query kind its requests
    #: parse into (``None``: the method reads no query).
    methods: Mapping[str, str | None]


_GET = {"GET": None}

ROUTES: tuple[Route, ...] = (
    Route("/healthz", _GET),
    Route("/metrics", _GET),
    Route("/experiments", _GET),
    Route("/experiments/{id}", {"GET": "experiment"}),
    Route("/footprint", {"GET": "footprint", "POST": "footprint"}),
    Route("/schedule/carbon-aware", {"GET": "schedule", "POST": "schedule"}),
    Route("/stream", {"GET": "stream"}),
    Route("/sweep", {"GET": None, "POST": "sweep"}),
    Route("/sweep/{id}", _GET),
    Route("/sweep/{id}/result", _GET),
    Route("/ledger", _GET),
    Route("/ledger/diff", _GET),
    Route("/ledger/trace", _GET),
)

_FIXED = {route.label: route for route in ROUTES if "{id}" not in route.label}
#: ``(prefix, suffix, row)`` of each pattern, the longest suffix first:
#: ``/sweep/x/result`` is a result, ``/sweep/result`` a job id.
_PATTERNS = sorted(
    ((*route.label.split("{id}"), route) for route in ROUTES if "{id}" in route.label),
    key=lambda pattern: -len(pattern[1]),
)
_ENDPOINTS = ", ".join(route.label for route in ROUTES)


class Match(NamedTuple):
    """Where one request falls in the table."""

    #: The row whose pattern matches the path; ``None`` when none does.
    route: Route | None
    method: str
    #: The request path without its trailing slashes.
    path: str
    #: What the row's ``{id}`` matched.
    id: str = ""

    @property
    def label(self) -> str:
        """What ``/metrics`` counts the request under."""
        return UNKNOWN if self.route is None else self.route.label

    @property
    def allowed(self) -> bool:
        """Whether the row answers the request's method."""
        return self.route is not None and self.method in self.route.methods

    @property
    def kind(self) -> str | None:
        """The query kind the request parses into; ``None`` if it reads none."""
        return None if self.route is None else self.route.methods.get(self.method)


def match(request: Request) -> Match:
    """The row whose pattern matches the request's path."""
    path = request.path.rstrip("/") or "/"
    route = _FIXED.get(path)
    if route is not None:
        return Match(route, request.method, path)
    for prefix, suffix, route in _PATTERNS:
        if path.startswith(prefix) and path.endswith(suffix, len(prefix)):
            return Match(route, request.method, path, path[len(prefix) : len(path) - len(suffix)])
    return Match(None, request.method, path)


def parse(found: Match, request: Request) -> tuple[queries.Query, dict[str, object]]:
    """The query a request carries, and its transport knobs (``/stream`` only).

    The JSON body overlays the query string, and a ``/footprint`` request
    that names a ``workload`` is a genai query.  Raises
    :class:`~repro.errors.QueryError`, or
    :class:`~repro.service.http.ProtocolError` for a body that is not a
    JSON object.
    """
    kind = found.kind
    if kind == "experiment":
        return queries.parse_query(kind, {"experiment_id": found.id}), {}
    params: dict[str, object] = dict(request.params)
    params.update(request.json_body())
    if kind == "stream":
        return queries.parse_stream_request(params)
    if kind == "footprint" and "workload" in params:
        kind = "genai"
    return queries.parse_query(kind, params), {}


def error_body(kind: str, message: str) -> bytes:
    """The body of every structured error: ``{"error": {"kind", "message"}}``."""
    return queries.render_payload({"error": {"kind": kind, "message": message}})


def refusal(found: Match) -> Response:
    """The ``404`` for a path no row matches, or the ``405`` for a method its row lacks."""
    if found.route is None:
        message = f"no route for {found.path!r}; endpoints: {_ENDPOINTS}"
        return Response(404, error_body("not-found", message))
    return Response(405, error_body("method-not-allowed", f"{found.method} {found.path}"))


def malformed(counters: ServiceCounters) -> Callable[[ProtocolError], Response]:
    """How a server counting into ``counters`` answers bytes that are not a request.

    The answer is a ``400``/``bad-request`` that closes the connection,
    counted under :data:`MALFORMED`.  No handler ran, so its latency
    counts as zero.
    """

    def answer(exc: ProtocolError) -> Response:
        counters.record(MALFORMED, 400, 0.0)
        return Response(400, error_body("bad-request", str(exc)), close=True)

    return answer


def internal_error(request: Request, exc: Exception) -> Response:
    """The ``500`` answering an exception no route maps.

    A client never sees a dropped connection: to the fabric router, one
    reads as a dead replica, which it would eject.  The traceback goes to
    the event loop's exception handler (the ``asyncio`` logger).
    """
    asyncio.get_running_loop().call_exception_handler(
        {"message": f"error answering {request.method} {request.path}", "exception": exc}
    )
    return Response(500, error_body("internal-error", f"{type(exc).__name__}: {exc}"))
