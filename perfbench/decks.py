"""Seeded request decks for the service workloads, and their oracle.

The benchmark builds its own decks from ``--seed`` (it never imports the
program's load generator), so a change to program code cannot change what
a workload sends.  Each operation carries the exact request bytes the
client writes and the canonical cache key the program is expected to
normalize it to (``Query.cache_key``); the oracle renders every distinct
key once through the library (``render_payload(parse_query(...).execute())``)
before the program starts, and the client compares every response body
against those bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence
from urllib.parse import urlencode

HOST_HEADER = "Host: 127.0.0.1\r\n"

#: Cheap experiments (well under a millisecond each), so warming them costs
#: nothing and a hit serves a small payload like the other query kinds.
CHEAP_EXPERIMENTS: tuple[str, ...] = (
    "fig7", "fig8", "fig6", "fig2", "fig3", "ext-scopes", "ext-moe",
    "appendix-ssl", "ext-bom", "ext-leaderboard", "ablation-compression",
    "appendix-disagg",
)

REGIONS: tuple[str, ...] = (
    "us-average", "europe-average", "nordic", "coal", "hydro", "asia-pacific",
    "us-midwest", "world-average",
)

MODELS: tuple[str, ...] = ("llm-1b", "llm-7b", "llm-70b", "llm-175b")

#: One fabric replica's response LRU (the service default).
REPLICA_LRU = 256

#: Demand seeds of ``llm-serving`` queries.  Warm-up draws from the first
#: two only, so the measured phase both builds new diurnal substrates and
#: reuses built ones.
SERVING_SEEDS = 8
WARMUP_SERVING_SEEDS = 2

#: Cold keys per measured second the deck holds (more than four times what
#: the program answers on one connection today); a faster program that
#: exhausts its slice ends that measured slice early, which the run reports
#: as a note.
COLD_KEYS_PER_SECOND = 600


@dataclass(frozen=True)
class Op:
    """One request: where it goes, its bytes, and its canonical key."""

    kind: str
    params: Mapping[str, object]
    method: str
    request: bytes
    key: str


@dataclass(frozen=True)
class Deck:
    """A workload's inputs: set-up probes, warm-up pass and measured stream."""

    setup: tuple[Op, ...]
    warmup: tuple[Op, ...]
    measured: tuple[Op, ...]
    #: Hot decks repeat ``measured`` for the whole phase; cold decks send
    #: each measured op at most once.
    cycle: bool


def _path(kind: str, params: Mapping[str, object]) -> str:
    if kind == "experiment":
        return f"/experiments/{params['experiment_id']}"
    if kind == "schedule":
        return "/schedule/carbon-aware"
    return "/footprint"


def _wire(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def request_bytes(kind: str, params: Mapping[str, object], method: str) -> bytes:
    """The exact HTTP/1.1 request for one query spelling."""
    path = _path(kind, params)
    if kind == "experiment":
        return f"GET {path} HTTP/1.1\r\n{HOST_HEADER}\r\n".encode("ascii")
    if method == "GET":
        query = urlencode({name: _wire(value) for name, value in params.items()})
        return f"GET {path}?{query} HTTP/1.1\r\n{HOST_HEADER}\r\n".encode("ascii")
    body = json.dumps(dict(params), separators=(",", ":")).encode("ascii")
    head = (
        f"POST {path} HTTP/1.1\r\n{HOST_HEADER}"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def make_op(kind: str, params: Mapping[str, object], method: str = "GET") -> Op:
    """An :class:`Op` whose key is the program's canonical cache key."""
    from repro.service import queries

    key = queries.parse_query(kind, dict(params)).cache_key()
    return Op(kind, dict(params), method, request_bytes(kind, params, method), key)


def _both(kind: str, params: Mapping[str, object]) -> list[Op]:
    return [make_op(kind, params, "GET"), make_op(kind, params, "POST")]


# -- parameter generators ------------------------------------------------------


def _footprint(rng: random.Random) -> dict[str, object]:
    return {
        "busy_device_hours": rng.uniform(1.0, 1e6),
        "utilization": rng.uniform(0.1, 0.95),
        "pue": rng.uniform(1.05, 1.8),
        "region": rng.choice(REGIONS),
    }


def _training(rng: random.Random) -> dict[str, object]:
    return {
        "workload": "llm-training",
        "n_params": rng.uniform(1e8, 2e11),
        "n_tokens": rng.uniform(1e9, 2e12),
        "mfu": rng.uniform(0.2, 0.6),
        "n_accelerators": rng.randint(8, 4096),
        "region": rng.choice(REGIONS),
    }


def _serving(rng: random.Random, seeds: int) -> dict[str, object]:
    # n_params stays below the size whose weights overflow one accelerator,
    # so every generated query is valid.
    return {
        "workload": "llm-serving",
        "n_params": rng.uniform(1e8, 3e10),
        "peak_qps": rng.uniform(1.0, 2000.0),
        "tokens_per_request": rng.uniform(32.0, 1024.0),
        "context_tokens": rng.uniform(256.0, 4096.0),
        "batch_size": rng.randint(1, 64),
        "demand_seed": rng.randrange(seeds),
        "region": rng.choice(REGIONS),
    }


def _schedule(rng: random.Random) -> dict[str, object]:
    return {"n_jobs": 40, "seed": rng.randrange(10_000), "grid_seed": rng.randrange(10_000)}


def _first_of_each_kind(ops: Sequence[Op]) -> tuple[Op, ...]:
    """One op per query kind (llm-training and llm-serving count apart)."""
    seen: dict[str, Op] = {}
    for op in ops:
        label = str(op.params.get("workload", op.kind))
        seen.setdefault(label, op)
    return tuple(seen.values())


# -- workloads -----------------------------------------------------------------


def hot_deck(seed: int) -> Deck:
    """A dashboard: 24 distinct keys, GET and POST spellings, 40 requests."""
    rng = random.Random(f"query-hot:{seed}")
    ops = [make_op("experiment", {"experiment_id": e}) for e in CHEAP_EXPERIMENTS[:8]]
    for _ in range(8):
        ops += _both("footprint", _footprint(rng))
    for model in MODELS:
        ops += _both("genai", {"workload": "llm-training", "model": model,
                               "region": rng.choice(REGIONS)})
    for _ in range(4):
        ops += _both("schedule", _schedule(rng))
    rng.shuffle(ops)
    return Deck(_first_of_each_kind(ops), tuple(ops), tuple(ops), cycle=True)


def cold_deck(seed: int, seconds: float, warmup: int = 120) -> Deck:
    """Keys that never repeat: footprint, llm-training and llm-serving."""
    rng = random.Random(f"query-cold:{seed}")
    seen: set[str] = set()

    def draw(count: int, serving_seeds: int) -> list[Op]:
        out: list[Op] = []
        makers = (
            lambda: ("footprint", _footprint(rng)),
            lambda: ("genai", _training(rng)),
            lambda: ("genai", _serving(rng, serving_seeds)),
        )
        while len(out) < count:
            kind, params = makers[len(out) % 3]()
            op = make_op(kind, params, rng.choice(("GET", "POST")))
            if op.key not in seen:
                seen.add(op.key)
                out.append(op)
        return out

    warm = draw(warmup, WARMUP_SERVING_SEEDS)
    measured = draw(int(seconds * COLD_KEYS_PER_SECOND), SERVING_SEEDS)
    return Deck(_first_of_each_kind(warm), tuple(warm), tuple(measured), cycle=False)


def fabric_deck(seed: int) -> Deck:
    """320 distinct keys: more than one replica's LRU holds, fewer than two."""
    rng = random.Random(f"fabric-sharded:{seed}")
    ops = [make_op("experiment", {"experiment_id": e}) for e in CHEAP_EXPERIMENTS]
    makers = (
        (4, lambda: ("schedule", _schedule(rng))),
        (64, lambda: ("genai", _training(rng))),
        (80, lambda: ("genai", _serving(rng, SERVING_SEEDS))),
        (160, lambda: ("footprint", _footprint(rng))),
    )
    seen = {op.key for op in ops}
    for count, maker in makers:
        made = 0
        while made < count:
            kind, params = maker()
            op = make_op(kind, params, rng.choice(("GET", "POST")))
            if op.key not in seen:
                seen.add(op.key)
                ops.append(op)
                made += 1
    rng.shuffle(ops)
    return Deck(_first_of_each_kind(ops), tuple(ops), tuple(ops), cycle=True)


def build(workload: str, seed: int, seconds: float) -> Deck:
    if workload == "query-hot":
        return hot_deck(seed)
    if workload == "query-cold":
        return cold_deck(seed, seconds)
    if workload == "fabric-sharded":
        return fabric_deck(seed)
    raise ValueError(f"no deck for workload {workload!r}")


# -- oracle --------------------------------------------------------------------


def expected_bodies(deck: Deck) -> dict[str, bytes]:
    """Library rendering of every distinct key the deck can send."""
    from repro.service import queries

    out: dict[str, bytes] = {}
    for op in (*deck.setup, *deck.warmup, *deck.measured):
        if op.key not in out:
            query = queries.parse_query(op.kind, dict(op.params))
            out[op.key] = queries.render_payload(query.execute())
    return out


def digest(expected: Mapping[str, bytes]) -> str:
    """sha256 over the sorted (key, body) pairs: one line per workload."""
    h = hashlib.sha256()
    for key in sorted(expected):
        h.update(key.encode())
        h.update(b"\0")
        h.update(expected[key])
        h.update(b"\0")
    return h.hexdigest()


def stream(ops: Sequence[Op], expected: Mapping[str, bytes], cycle: bool) -> Iterator[tuple[bytes, bytes]]:
    """(request, expected body) pairs, forever when ``cycle``."""
    pairs = [(op.request, expected[op.key]) for op in ops]
    while True:
        yield from pairs
        if not cycle:
            return
