"""The async carbon-query service (``sustainable-ai serve``).

A thin asyncio layer over the accounting engine: JSON endpoints for
experiments, footprints, and carbon-aware schedules, with single-flight
execution, a bounded response LRU, a worker pool, backpressure, and
graceful drain.  Responses are byte-identical to the direct library
calls they front — see docs/SERVICE.md.

``sustainable-ai fabric`` scales the service horizontally: a
consistent-hash router (:mod:`repro.service.router`) shards canonical
query keys across N replicas with health-checked failover, keeping the
byte-identity contract fleet-wide — see the Fabric section of
docs/SERVICE.md.
"""

from repro.service.app import (
    CarbonQueryService,
    ServiceConfig,
    ServiceHandle,
    serve,
    start_service,
)
from repro.service.batching import QueryBatcher
from repro.service.cache import ResponseCache
from repro.service.hashring import HashRing
from repro.service.queries import (
    QUERY_KINDS,
    ExperimentQuery,
    FootprintQuery,
    Query,
    ScheduleQuery,
    SweepQuery,
    execute_query_task,
    execute_sweep_chunk_task,
    parse_query,
    payload_to_result,
    render_payload,
)
from repro.service.sweeps import SweepJob, SweepManager

# The router is re-exported lazily (PEP 562): importing it here eagerly
# would put repro.service.router into sys.modules while runpy is still
# importing the parent package, so ``python -m repro.service.router``
# would warn about a double import before printing its banner.
_ROUTER_EXPORTS = frozenset(
    {
        "CarbonQueryRouter",
        "RouterConfig",
        "RouterHandle",
        "merge_replica_metrics",
        "run_router",
        "start_router",
    }
)


def __getattr__(name: str):
    if name in _ROUTER_EXPORTS:
        from repro.service import router

        return getattr(router, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CarbonQueryRouter",
    "CarbonQueryService",
    "ExperimentQuery",
    "FootprintQuery",
    "HashRing",
    "QUERY_KINDS",
    "Query",
    "QueryBatcher",
    "ResponseCache",
    "RouterConfig",
    "RouterHandle",
    "ScheduleQuery",
    "ServiceConfig",
    "ServiceHandle",
    "SweepJob",
    "SweepManager",
    "SweepQuery",
    "execute_query_task",
    "execute_sweep_chunk_task",
    "merge_replica_metrics",
    "parse_query",
    "payload_to_result",
    "render_payload",
    "run_router",
    "serve",
    "start_router",
    "start_service",
]
