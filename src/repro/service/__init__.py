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

The package re-exports nothing, so importing one of its modules loads
only what that module needs: :mod:`repro.service.queries` loads no
asyncio, and :mod:`repro.service.pool` (the runner's ``--jobs`` pool)
does not load the service.
"""
