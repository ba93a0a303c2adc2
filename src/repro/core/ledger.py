"""Append-only, content-addressed carbon ledger with claim-level provenance.

The paper's central measurement complaint is that AI carbon numbers are
reported without enough context to audit or reproduce them.  This module
is the repository's answer: every experiment or service result is
recorded as an atomic **bundle of claims** — one claim per headline
metric (name, value, units, tolerance) — where the bundle carries full
provenance:

* the substrate content hashes (:mod:`repro.core.diskcache` addresses)
  of every memoized input the computation touched,
* the code version (:mod:`repro.version`) that produced the numbers,
* the canonical config (result shape, query parameters, sweep spec),
* the invariant-check status of the run, and
* a caller-supplied timestamp (the ledger itself never reads a clock,
  so records are exactly as reproducible as their inputs).

Bundles are content-addressed: ``bundle_id`` is the sha256 of the
bundle's compact canonical form *excluding the timestamp*, so two runs
that produce identical numbers from identical inputs share one bundle.
A :class:`Ledger` persists bundles to an append-only JSONL store with
named **runs** (one recorded execution sweep) and pinned **epochs**
(named baselines; :mod:`repro.experiments.golden` imports
``golden/baselines.json`` as epoch ``"0"``).

``diff_bundles`` compares two bundle sets claim by claim; ``sustainable-ai
verify`` runs it against epoch ``"0"``.
``Ledger.trace`` resolves a headline metric back to the substrate
content hashes that produced it, and ``Bundle.reconstruct`` replays the
recorded payload through the canonical serializer, byte-identical to the
original ``run --json`` / service response bytes.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.core.canonical import (
    canonical_bytes,
    canonical_dumps,
    compact_dumps,
    compact_members,
    compact_object,
    content_hash,
)
from repro.core.diskcache import write_atomic
from repro.core.report import format_table
from repro.errors import SustainableAIError
from repro.version import code_version

SCHEMA_VERSION = 1

#: Default per-claim relative tolerance (shared with the experiment
#: registry).  Results are seeded and deterministic, so drift beyond this
#: means a behavioral change, not noise.
DEFAULT_REL_TOL = 1e-6

#: Environment variable naming the default ledger directory for the CLI.
LEDGER_DIR_ENV_VAR = "SUSTAINABLE_AI_LEDGER_DIR"

#: The epoch name ``golden/baselines.json`` imports as.
GOLDEN_EPOCH = "0"


class LedgerError(SustainableAIError, ValueError):
    """A ledger store, reference, or bundle document is invalid."""


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

#: Metric-name suffix -> unit label, checked in order (first match wins).
_UNIT_SUFFIXES: tuple[tuple[str, str], ...] = (
    ("_kg_per_kwh", "kgCO2e/kWh"),
    ("_kwh", "kWh"),
    ("_kg", "kgCO2e"),
    ("_tco2e", "tCO2e"),
    ("_kw", "kW"),
    ("_mwh", "MWh"),
    ("_hours", "h"),
    ("_years", "yr"),
    ("_share", "ratio"),
    ("_fraction", "ratio"),
    ("_ratio", "ratio"),
    ("_pct", "%"),
)


@functools.cache
def units_for_metric(metric: str) -> str:
    """Best-effort unit label from the repository's metric naming scheme.

    Headline metrics follow a ``<name>_<unit>`` convention (``total_kg``,
    ``facility_energy_kwh``); anything unrecognized is dimensionless
    (gains, speedups, counts) and gets an empty label.
    """
    lowered = metric.lower()
    for suffix, unit in _UNIT_SUFFIXES:
        if lowered.endswith(suffix):
            return unit
    return ""


# ---------------------------------------------------------------------------
# Claims, provenance, bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One asserted metric value with its verification tolerance."""

    metric: str
    value: float
    units: str = ""
    #: Relative tolerance for drift checks; ``None`` marks the claim
    #: informational (recorded for audit, never failed on).
    tolerance: float | None = DEFAULT_REL_TOL

    def to_payload(self) -> dict[str, object]:
        return {
            "metric": self.metric,
            "value": float(self.value),
            "units": self.units,
            "tolerance": self.tolerance,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "Claim":
        tolerance = payload.get("tolerance", DEFAULT_REL_TOL)
        return cls(
            metric=str(payload["metric"]),
            value=float(payload["value"]),  # type: ignore[arg-type]
            units=str(payload.get("units", "")),
            tolerance=None if tolerance is None else float(tolerance),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class SubstrateRef:
    """One memoized substrate the computation consumed.

    ``digest`` is the content address of the substrate's inputs — the
    same sha256(qualname | code-version salt | canonical args) the disk
    cache files entries under — or ``None`` when the call's arguments
    had no stable canonical rendering (the cache was bypassed).
    """

    qualname: str
    digest: str | None

    def to_payload(self) -> dict[str, object]:
        return {"substrate": self.qualname, "digest": self.digest}

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "SubstrateRef":
        digest = payload.get("digest")
        return cls(qualname=str(payload["substrate"]), digest=None if digest is None else str(digest))


@dataclass(frozen=True)
class Provenance:
    """Where a bundle's numbers came from."""

    code_version: Mapping[str, str]
    config: Mapping[str, object]
    substrates: tuple[SubstrateRef, ...] = ()
    invariant_status: str = "not-checked"  # ok | violated | not-checked
    #: Caller-supplied POSIX timestamp; excluded from the bundle's
    #: content address so identical results share one bundle id.
    recorded_at: float | None = None
    source: str = "runner"  # runner | service | golden-import

    @functools.cached_property
    def config_hash(self) -> str:
        return content_hash(self.config)

    def to_payload(self) -> dict[str, object]:
        return {
            "code_version": dict(self.code_version),
            "config": dict(self.config),
            "config_hash": self.config_hash,
            "substrates": [ref.to_payload() for ref in self.substrates],
            "invariant_status": self.invariant_status,
            "recorded_at": self.recorded_at,
            "source": self.source,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "Provenance":
        recorded_at = payload.get("recorded_at")
        return cls(
            code_version=dict(payload.get("code_version", {})),  # type: ignore[arg-type]
            config=dict(payload.get("config", {})),  # type: ignore[arg-type]
            substrates=tuple(
                SubstrateRef.from_payload(ref)
                for ref in payload.get("substrates", ())  # type: ignore[union-attr]
            ),
            invariant_status=str(payload.get("invariant_status", "not-checked")),
            recorded_at=None if recorded_at is None else float(recorded_at),  # type: ignore[arg-type]
            source=str(payload.get("source", "runner")),
        )


def default_provenance(
    *,
    config: Mapping[str, object] | None = None,
    substrates: Iterable[tuple[str, str | None]] = (),
    invariant_status: str = "not-checked",
    recorded_at: float | None = None,
    source: str = "runner",
) -> Provenance:
    """A provenance record stamped with the running code version."""
    return Provenance(
        code_version=code_version().to_payload(),
        config=dict(config or {}),
        substrates=tuple(SubstrateRef(q, d) for q, d in substrates),
        invariant_status=invariant_status,
        recorded_at=recorded_at,
        source=source,
    )


@dataclass(frozen=True)
class Bundle:
    """One atomic, content-addressed record of a result's claims."""

    experiment_id: str
    title: str
    status: str  # ok | failed
    claims: tuple[Claim, ...]
    provenance: Provenance
    #: The full canonical result payload (``None`` for imported golden
    #: baselines, which only pinned headline metrics and shape).
    payload: Mapping[str, object] | None = None
    #: Structured failure of a crashed/timed-out run: kind, message, attempts.
    error: Mapping[str, object] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def bundle_id(self) -> str:
        """Content address: sha256 of the bundle body minus its timestamp."""
        body = self.to_payload()
        body["provenance"].pop("recorded_at", None)  # type: ignore[union-attr]
        return content_hash(body)

    def claim(self, metric: str) -> Claim | None:
        for claim in self.claims:
            if claim.metric == metric:
                return claim
        return None

    def headline(self) -> dict[str, float]:
        return {c.metric: c.value for c in self.claims}

    def shape(self) -> Mapping[str, object] | None:
        shape = self.provenance.config.get("shape")
        return shape if isinstance(shape, Mapping) else None

    def reconstruct(self) -> bytes:
        """The recorded payload's canonical bytes — byte-identical to the
        ``run --json`` record / service response that produced it."""
        if self.payload is None:
            raise LedgerError(
                f"bundle for {self.experiment_id!r} carries no payload "
                "(imported golden baselines pin claims only)"
            )
        return canonical_bytes(self.payload)

    def to_payload(self) -> dict[str, object]:
        body: dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "status": self.status,
            "claims": [claim.to_payload() for claim in self.claims],
            "provenance": self.provenance.to_payload(),
        }
        if self.payload is not None:
            body["payload"] = dict(self.payload)
        if self.error is not None:
            body["error"] = dict(self.error)
        return body

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "Bundle":
        if payload.get("schema") != SCHEMA_VERSION:
            raise LedgerError(
                f"bundle document has schema {payload.get('schema')!r}; "
                f"this library reads schema {SCHEMA_VERSION}"
            )
        raw_payload = payload.get("payload")
        raw_error = payload.get("error")
        return cls(
            experiment_id=str(payload["experiment_id"]),
            title=str(payload.get("title", "")),
            status=str(payload.get("status", "ok")),
            claims=tuple(Claim.from_payload(c) for c in payload.get("claims", ())),  # type: ignore[union-attr]
            provenance=Provenance.from_payload(payload.get("provenance", {})),  # type: ignore[arg-type]
            payload=None if raw_payload is None else dict(raw_payload),  # type: ignore[arg-type]
            error=None if raw_error is None else dict(raw_error),  # type: ignore[arg-type]
        )


def claims_from_headline(
    headline: Mapping[str, object], tolerances: Mapping[str, object]
) -> tuple[Claim, ...]:
    """One claim per headline metric, sorted by name.

    A metric's tolerance is the one ``tolerances`` names for it (``None``
    marks it informational), else :data:`DEFAULT_REL_TOL`.
    """
    return tuple(
        Claim(
            metric=str(metric),
            value=float(value),  # type: ignore[arg-type]
            units=units_for_metric(str(metric)),
            tolerance=tolerances.get(metric, DEFAULT_REL_TOL),  # type: ignore[arg-type]
        )
        for metric, value in sorted(headline.items())
    )


def bundle_from_payload(
    payload: Mapping[str, object],
    *,
    kind: str = "experiment",
    substrates: Iterable[tuple[str, str | None]] = (),
    invariant_status: str = "not-checked",
    recorded_at: float | None = None,
    source: str = "service",
) -> Bundle | None:
    """A claim bundle from any of the repository's result payloads.

    Accepts the three payload families the engine produces — runner
    envelopes (``experiment_id`` + ``headline``), service query payloads
    (``query`` + ``headline``), and sweep documents (``spec`` +
    ``headline``) — and returns ``None`` for payloads that carry no
    headline claims (e.g. error bodies).
    """
    headline = payload.get("headline")
    if not isinstance(headline, Mapping) or not headline:
        return None
    tolerances = payload.get("tolerances")
    claims = claims_from_headline(headline, tolerances if isinstance(tolerances, Mapping) else {})
    config: dict[str, object]
    #: Service payloads are named by a prefix and their config hash.
    prefix: str | None = None
    if "experiment_id" in payload:
        experiment_id = str(payload["experiment_id"])
        title = str(payload.get("title", ""))
        config = {
            "shape": {
                "headers": list(payload.get("headers", ())),  # type: ignore[arg-type]
                "n_rows": len(payload.get("rows", ())),  # type: ignore[arg-type]
            }
        }
    elif "spec" in payload:
        config = {"spec": dict(payload["spec"])}  # type: ignore[arg-type]
        prefix = "sweep"
        title = "stacked scenario sweep (service)"
    elif isinstance(payload.get("query"), Mapping):
        config = {"query": dict(payload["query"])}  # type: ignore[arg-type]
        prefix = kind
        title = f"carbon-query service response ({kind})"
    else:
        return None
    provenance = default_provenance(
        config=config,
        substrates=substrates,
        invariant_status=invariant_status,
        recorded_at=recorded_at,
        source=source,
    )
    if prefix is not None:
        experiment_id = f"{prefix}:{provenance.config_hash[:12]}"
    return Bundle(
        experiment_id=experiment_id,
        title=title,
        status="ok",
        claims=claims,
        provenance=provenance,
        payload=dict(payload),
    )


# ---------------------------------------------------------------------------
# Claim-level diffing (the engine behind `sustainable-ai verify`)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Drift:
    """One baseline violation (or structural mismatch)."""

    experiment_id: str
    kind: str  # metric-drift | missing-metric | new-metric | shape | missing-baseline | stale-baseline | run-failure
    metric: str = ""
    expected: float | None = None
    actual: float | None = None
    rel_error: float | None = None
    tolerance: float | None = None
    detail: str = ""

    def to_payload(self) -> dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "kind": self.kind,
            "metric": self.metric,
            "expected": self.expected,
            "actual": self.actual,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of diffing one bundle set against a baseline set."""

    drifts: tuple[Drift, ...]
    n_experiments: int
    n_metrics: int

    @property
    def ok(self) -> bool:
        return not self.drifts

    def render(self) -> str:
        """Readable drift report: summary line plus one row per drift."""
        summary = (
            f"golden verify: {self.n_experiments} experiment(s), "
            f"{self.n_metrics} metric(s) checked"
        )
        if self.ok:
            return f"{summary}\nOK — no drift beyond tolerance"
        headers = ["experiment", "metric", "kind", "expected", "actual", "rel-error", "tolerance"]
        rows = [
            [
                d.experiment_id,
                d.metric or "-",
                d.kind,
                "-" if d.expected is None else f"{d.expected:.6g}",
                "-" if d.actual is None else f"{d.actual:.6g}",
                "-" if d.rel_error is None else f"{d.rel_error:.3g}",
                "-" if d.tolerance is None else f"{d.tolerance:.3g}",
            ]
            for d in self.drifts
        ]
        table = format_table(headers, rows)
        details = [f"  {d.experiment_id}: {d.detail}" for d in self.drifts if d.detail]
        parts = [summary, f"DRIFT — {len(self.drifts)} violation(s)", "", table]
        if details:
            parts += [""] + details
        return "\n".join(parts)

    def to_payload(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "n_experiments": self.n_experiments,
            "n_metrics": self.n_metrics,
            "drifts": [d.to_payload() for d in self.drifts],
        }


def _relative_error(expected: float, actual: float) -> float:
    """Relative error vs the expected value (absolute error when expected=0)."""
    if expected == actual:
        return 0.0
    if expected == 0.0:
        return abs(actual)
    return abs(actual - expected) / abs(expected)


def diff_bundles(
    baseline: Mapping[str, Bundle],
    current: Mapping[str, Bundle],
    strict: bool = True,
) -> VerifyReport:
    """Claim-by-claim diff of two bundle sets.

    Baseline-side claims carry the tolerances; ``strict`` also flags
    baseline bundles with no corresponding current bundle (stale
    baselines) — disable it when intentionally diffing a subset.
    """
    drifts: list[Drift] = []
    n_metrics = 0

    for eid, bundle in current.items():
        if eid not in baseline:
            drifts.append(
                Drift(eid, "missing-baseline", detail="no baseline recorded; re-run with --update")
            )
            continue
        base = baseline[eid]
        base_claims = {c.metric: c for c in base.claims}
        cur_claims = {c.metric: c for c in bundle.claims}

        for metric in sorted(set(base_claims) | set(cur_claims)):
            if metric not in cur_claims:
                drifts.append(
                    Drift(eid, "missing-metric", metric, expected=base_claims[metric].value)
                )
                continue
            if metric not in base_claims:
                drifts.append(Drift(eid, "new-metric", metric, actual=cur_claims[metric].value))
                continue
            n_metrics += 1
            tolerance = base_claims[metric].tolerance
            if tolerance is None:
                continue  # informational claim
            expected = base_claims[metric].value
            actual = cur_claims[metric].value
            rel_error = _relative_error(expected, actual)
            if rel_error > tolerance:
                drifts.append(
                    Drift(eid, "metric-drift", metric, expected, actual, rel_error, tolerance)
                )

        base_shape, cur_shape = base.shape(), bundle.shape()
        if base_shape is not None and cur_shape is not None:
            base_headers = list(base_shape.get("headers", ()))  # type: ignore[arg-type]
            cur_headers = list(cur_shape.get("headers", ()))  # type: ignore[arg-type]
            if base_headers != cur_headers:
                drifts.append(
                    Drift(
                        eid,
                        "shape",
                        detail=f"headers changed: {base_headers!r} -> {cur_headers!r}",
                    )
                )
            base_rows, cur_rows = base_shape.get("n_rows"), cur_shape.get("n_rows")
            if base_rows is not None and cur_rows is not None and int(base_rows) != int(cur_rows):  # type: ignore[arg-type]
                drifts.append(
                    Drift(eid, "shape", detail=f"row count changed: {base_rows} -> {cur_rows}")
                )

    if strict:
        for eid in baseline:
            if eid not in current:
                drifts.append(
                    Drift(eid, "stale-baseline", detail="baseline has no matching experiment")
                )

    return VerifyReport(tuple(drifts), n_experiments=len(current), n_metrics=n_metrics)


def fold_failures(report: VerifyReport, failed_bundles: Sequence[Bundle]) -> VerifyReport:
    """Fold failed-run bundles into a diff report.

    A crashed/timed-out experiment produced no claims, so
    :func:`diff_bundles` would misreport its baseline as stale; this
    replaces those stale entries with honest ``run-failure`` drifts
    carrying the structured error, keeping verify's exit nonzero and its
    table complete.
    """
    failed_ids = {bundle.experiment_id for bundle in failed_bundles}
    kept = tuple(
        d
        for d in report.drifts
        if not (d.kind == "stale-baseline" and d.experiment_id in failed_ids)
    )
    failures = []
    for bundle in failed_bundles:
        error = bundle.error or {}
        failures.append(
            Drift(
                bundle.experiment_id,
                "run-failure",
                detail=(
                    f"{error.get('kind', 'exception')} after "
                    f"{error.get('attempts', 1)} attempt(s): {error.get('message', '')}"
                ),
            )
        )
    return VerifyReport(
        kept + tuple(failures),
        n_experiments=report.n_experiments,
        n_metrics=report.n_metrics,
    )


# ---------------------------------------------------------------------------
# The persistent store
# ---------------------------------------------------------------------------


@dataclass
class RunEntry:
    """One recorded run: which bundle answered each experiment."""

    run_id: str
    recorded_at: float | None
    experiments: dict[str, str]  # experiment_id -> bundle_id
    meta: dict[str, object] = field(default_factory=dict)

    def to_payload(self) -> dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "recorded_at": self.recorded_at,
            "experiments": dict(self.experiments),
            "meta": dict(self.meta),
        }


def resolve_ledger_dir(explicit: str | None = None) -> Path | None:
    """The active ledger directory: explicit flag, else the environment."""
    if explicit:
        return Path(explicit)
    raw = os.environ.get(LEDGER_DIR_ENV_VAR, "").strip()
    return Path(raw) if raw else None


def run_id_for(bundle_ids: Iterable[str]) -> str:
    """Deterministic run id: a short content hash of the member bundles."""
    return "run-" + content_hash(sorted(bundle_ids))[:12]


class Ledger:
    """An append-only bundle store with runs and pinned epochs.

    Directory layout (all files optional until first write)::

        bundles.jsonl   one compact-canonical bundle per line, deduped by id
        runs.jsonl      run membership deltas (later lines merge by run_id)
        epochs.json     pinned name -> {experiments, meta} table

    ``directory=None`` keeps everything in memory (the service's default
    mode).  Loading tolerates torn trailing lines — a malformed line is
    counted and skipped, never fatal, mirroring the disk cache's
    corruption-is-a-miss stance.
    """

    def __init__(self, directory: Path | None = None) -> None:
        self.directory = directory
        self.bundles: dict[str, Bundle] = {}
        self.runs: dict[str, RunEntry] = {}
        self.epochs: dict[str, dict[str, object]] = {}
        self.corrupt_lines = 0
        if directory is not None:
            self._load(directory)

    # -- construction ------------------------------------------------------

    @classmethod
    def open(cls, directory: Path | str) -> "Ledger":
        """Open (creating lazily on first write) a directory-backed ledger."""
        return cls(Path(directory))

    @classmethod
    def in_memory(cls) -> "Ledger":
        return cls(None)

    def _load(self, directory: Path) -> None:
        import json

        bundles_file = directory / "bundles.jsonl"
        if bundles_file.exists():
            for line in bundles_file.read_text().splitlines():
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                    bundle = Bundle.from_payload(doc["bundle"])
                    self.bundles[str(doc["bundle_id"])] = bundle
                except (ValueError, KeyError, TypeError, LedgerError):
                    self.corrupt_lines += 1
        runs_file = directory / "runs.jsonl"
        if runs_file.exists():
            for line in runs_file.read_text().splitlines():
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                    run_id = str(doc["run_id"])
                    recorded_at = doc.get("recorded_at")
                    entry = self.runs.get(run_id)
                    if entry is None:
                        entry = RunEntry(run_id, recorded_at, {}, {})
                        self.runs[run_id] = entry
                    entry.experiments.update(
                        {str(k): str(v) for k, v in doc.get("experiments", {}).items()}
                    )
                    entry.meta.update(doc.get("meta", {}))
                    if recorded_at is not None:
                        entry.recorded_at = float(recorded_at)
                except (ValueError, KeyError, TypeError):
                    self.corrupt_lines += 1
        epochs_file = directory / "epochs.json"
        if epochs_file.exists():
            try:
                doc = json.loads(epochs_file.read_text())
                self.epochs = dict(doc.get("epochs", {}))
            except (ValueError, AttributeError):
                self.corrupt_lines += 1

    # -- appends -----------------------------------------------------------

    def _append(self, filename: str, line: str) -> None:
        assert self.directory is not None
        path = self.directory / filename
        try:
            handle = open(path, "a", encoding="utf-8")
        except FileNotFoundError:
            self.directory.mkdir(parents=True, exist_ok=True)
            handle = open(path, "a", encoding="utf-8")
        with handle:
            handle.write(line + "\n")

    def _write_epochs(self) -> None:
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        body = canonical_dumps({"schema": SCHEMA_VERSION, "epochs": self.epochs}) + "\n"
        write_atomic(self.directory / "epochs.json", body.encode("utf-8"))

    def record(self, bundle: Bundle) -> str:
        """Append one bundle (idempotent per content address)."""
        # Each member of the body is encoded once.  The content address
        # hashes the body without its timestamp, as Bundle.bundle_id does;
        # the journal line puts the timestamp back.
        body = bundle.to_payload()
        provenance = compact_members(body.pop("provenance"))  # type: ignore[arg-type]
        members = compact_members(body)
        stamp = provenance.pop("recorded_at")
        members["provenance"] = f'"provenance":{compact_object(provenance)}'
        bundle_id = hashlib.sha256(compact_object(members).encode("utf-8")).hexdigest()
        if bundle_id not in self.bundles:
            self.bundles[bundle_id] = bundle
            if self.directory is not None:
                provenance["recorded_at"] = stamp
                members["provenance"] = f'"provenance":{compact_object(provenance)}'
                self._append(
                    "bundles.jsonl",
                    f'{{"bundle":{compact_object(members)},"bundle_id":"{bundle_id}"}}',
                )
        return bundle_id

    def record_run(
        self,
        bundles: Sequence[Bundle],
        *,
        run_id: str | None = None,
        recorded_at: float | None = None,
        meta: Mapping[str, object] | None = None,
    ) -> str:
        """Record an atomic bundle set as one run; returns the run id."""
        ids = {bundle.experiment_id: self.record(bundle) for bundle in bundles}
        rid = run_id or run_id_for(ids.values())
        entry = self.runs.get(rid)
        if entry is None:
            entry = RunEntry(rid, recorded_at, {}, dict(meta or {}))
            self.runs[rid] = entry
        entry.experiments.update(ids)
        entry.meta.update(meta or {})
        if recorded_at is not None:
            entry.recorded_at = recorded_at
        if self.directory is not None:
            doc = {
                "schema": SCHEMA_VERSION,
                "run_id": rid,
                "recorded_at": recorded_at,
                "experiments": ids,
                "meta": dict(meta or {}),
            }
            self._append("runs.jsonl", compact_dumps(doc))
        return rid

    def update_run(
        self,
        run_id: str,
        bundle: Bundle,
        *,
        recorded_at: float | None = None,
        meta: Mapping[str, object] | None = None,
    ) -> str:
        """Record one bundle into a (possibly ongoing) run — the service's
        record-on-execute path appends a delta line per execution."""
        rid = self.record_run([bundle], run_id=run_id, recorded_at=recorded_at, meta=meta)
        return self.runs[rid].experiments[bundle.experiment_id]

    def pin_epoch(
        self,
        name: str,
        bundles: Mapping[str, Bundle] | None = None,
        *,
        run_id: str | None = None,
        meta: Mapping[str, object] | None = None,
    ) -> None:
        """Pin a named epoch from a bundle mapping or an existing run."""
        if (bundles is None) == (run_id is None):
            raise LedgerError("pin_epoch needs exactly one of bundles= or run_id=")
        if run_id is not None:
            if run_id not in self.runs:
                raise LedgerError(f"unknown run {run_id!r}")
            experiments = dict(self.runs[run_id].experiments)
        else:
            experiments = {eid: self.record(b) for eid, b in (bundles or {}).items()}
        self.epochs[name] = {"experiments": experiments, "meta": dict(meta or {})}
        self._write_epochs()

    # -- queries -----------------------------------------------------------

    def refs(self) -> tuple[str, ...]:
        """Every resolvable reference: epoch names then run ids."""
        return tuple(self.epochs) + tuple(self.runs)

    def resolve(self, ref: str) -> dict[str, Bundle]:
        """Bundle set of one reference: an epoch name, a run id, or a
        unique run-id prefix (>= 4 characters)."""
        if ref in self.epochs:
            mapping = self.epochs[ref].get("experiments", {})
        elif ref in self.runs:
            mapping = self.runs[ref].experiments
        else:
            matches = [rid for rid in self.runs if rid.startswith(ref)] if len(ref) >= 4 else []
            if len(matches) != 1:
                known = ", ".join(self.refs()) or "(none)"
                raise LedgerError(f"unknown ledger ref {ref!r}; known: {known}")
            mapping = self.runs[matches[0]].experiments
        out: dict[str, Bundle] = {}
        for eid, bundle_id in mapping.items():  # type: ignore[union-attr]
            bundle = self.bundles.get(str(bundle_id))
            if bundle is None:
                raise LedgerError(
                    f"ref {ref!r} names bundle {bundle_id!r} for {eid!r}, "
                    "but the bundle store has no such entry"
                )
            out[str(eid)] = bundle
        return out

    def latest_bundle(self, experiment_id: str, ref: str | None = None) -> tuple[str, Bundle] | None:
        """``(ref, bundle)`` for an experiment: from ``ref`` when given,
        else the most recently recorded run, else any pinned epoch."""
        if ref is not None:
            bundles = self.resolve(ref)
            bundle = bundles.get(experiment_id)
            return None if bundle is None else (ref, bundle)
        for run_id in reversed(list(self.runs)):
            bundle_id = self.runs[run_id].experiments.get(experiment_id)
            if bundle_id is not None and bundle_id in self.bundles:
                return run_id, self.bundles[bundle_id]
        for name in reversed(list(self.epochs)):
            mapping = self.epochs[name].get("experiments", {})
            bundle_id = mapping.get(experiment_id)  # type: ignore[union-attr]
            if bundle_id is not None and str(bundle_id) in self.bundles:
                return name, self.bundles[str(bundle_id)]
        return None

    def diff(self, ref_a: str, ref_b: str, strict: bool = True) -> VerifyReport:
        """Claim-by-claim diff of two references (baseline = ``ref_a``)."""
        return diff_bundles(self.resolve(ref_a), self.resolve(ref_b), strict=strict)

    def diff_payload(self, ref_a: str, ref_b: str, strict: bool = True) -> dict[str, object]:
        """The diff as a JSON document (the ``/ledger/diff`` body)."""
        side_a, side_b = self.resolve(ref_a), self.resolve(ref_b)
        report = diff_bundles(side_a, side_b, strict=strict)

        def _version_of(side: Mapping[str, Bundle]) -> dict[str, str]:
            for bundle in side.values():
                return dict(bundle.provenance.code_version)
            return {}

        return {
            "a": ref_a,
            "b": ref_b,
            "strict": strict,
            "code_versions": {"a": _version_of(side_a), "b": _version_of(side_b)},
            **report.to_payload(),
        }

    def trace(
        self, experiment_id: str, metric: str, ref: str | None = None
    ) -> dict[str, object]:
        """Resolve a headline metric to the provenance that produced it.

        The trace document names the claim (value, units, tolerance), its
        bundle and run/epoch, the code version, canonical-config hash,
        invariant status, and — the audit payoff — the substrate content
        hashes of every memoized input the computation consumed.
        """
        found = self.latest_bundle(experiment_id, ref)
        if found is None:
            known = ", ".join(self.refs()) or "(none)"
            raise LedgerError(
                f"no recorded bundle for experiment {experiment_id!r}"
                + (f" in ref {ref!r}" if ref is not None else f"; recorded refs: {known}")
            )
        ref_name, bundle = found
        claim = bundle.claim(metric)
        if claim is None:
            metrics = ", ".join(c.metric for c in bundle.claims) or "(none)"
            raise LedgerError(
                f"bundle for {experiment_id!r} carries no claim {metric!r}; "
                f"claims: {metrics}"
            )
        return {
            "experiment_id": experiment_id,
            "metric": metric,
            "value": claim.value,
            "units": claim.units,
            "tolerance": claim.tolerance,
            "ref": ref_name,
            "bundle_id": bundle.bundle_id,
            "status": bundle.status,
            "provenance": bundle.provenance.to_payload(),
        }

    def stats(self) -> dict[str, object]:
        """Summary counts (the ``/ledger`` body and ``/metrics`` block)."""
        return {
            "bundles": len(self.bundles),
            "runs": list(self.runs),
            "epochs": list(self.epochs),
            "corrupt_lines": self.corrupt_lines,
            "directory": None if self.directory is None else str(self.directory),
        }

    # -- retention ---------------------------------------------------------

    def gc(self, *, older_than: float | None = None, dry_run: bool = False) -> "GcReport":
        """Compact the store and prune old runs (``sustainable-ai ledger gc``).

        Long-lived service ledgers grow one ``runs.jsonl`` delta line per
        executed query and re-append nothing else — compaction rewrites
        both journals to their minimal form and applies retention:

        * runs whose ``recorded_at`` is older than ``older_than`` (a POSIX
          timestamp) are pruned; runs with no timestamp are kept (age
          unprovable).  ``older_than=None`` prunes nothing and only
          compacts.
        * **epochs are the pins**: every bundle referenced by any pinned
          epoch — the golden epoch ``"0"`` included — survives no matter
          how old the runs that produced it are.  ``epochs.json`` is
          never touched.
        * surviving runs are consolidated to one line each (the service
          run's N delta lines become 1), duplicate and torn bundle lines
          are dropped, and bundles referenced by neither an epoch nor a
          surviving run are removed.

        Each journal is replaced atomically (:func:`write_atomic`).  With
        ``dry_run=True`` nothing is modified; the report shows what a
        real pass would do.  In-memory ledgers compact their dicts only.
        """
        pinned: set[str] = set()
        for epoch in self.epochs.values():
            mapping = epoch.get("experiments", {})
            pinned.update(str(bundle_id) for bundle_id in mapping.values())  # type: ignore[union-attr]

        pruned_runs = tuple(
            run_id
            for run_id, entry in self.runs.items()
            if older_than is not None
            and entry.recorded_at is not None
            and entry.recorded_at < older_than
        )
        kept_runs = {
            run_id: entry for run_id, entry in self.runs.items() if run_id not in pruned_runs
        }
        live: set[str] = set(pinned)
        for entry in kept_runs.values():
            live.update(str(bundle_id) for bundle_id in entry.experiments.values())
        kept_bundles = {
            bundle_id: bundle
            for bundle_id, bundle in self.bundles.items()
            if bundle_id in live
        }
        removed_bundles = len(self.bundles) - len(kept_bundles)

        def _file_stats(name: str) -> tuple[int, int]:
            if self.directory is None:
                return 0, 0
            path = self.directory / name
            if not path.exists():
                return 0, 0
            text = path.read_text()
            return len(text.encode("utf-8")), sum(1 for ln in text.splitlines() if ln.strip())

        bundle_bytes, bundle_lines = _file_stats("bundles.jsonl")
        run_bytes, run_lines = _file_stats("runs.jsonl")

        bundle_out = [
            compact_dumps({"bundle_id": bundle_id, "bundle": bundle.to_payload()})
            for bundle_id, bundle in kept_bundles.items()
        ]
        run_out = [compact_dumps(entry.to_payload()) for entry in kept_runs.values()]

        report = GcReport(
            dry_run=dry_run,
            runs_pruned=pruned_runs,
            runs_kept=len(kept_runs),
            bundles_removed=removed_bundles,
            bundles_kept=len(kept_bundles),
            epochs_pinned=len(self.epochs),
            lines_before=bundle_lines + run_lines,
            lines_after=len(bundle_out) + len(run_out),
            bytes_before=bundle_bytes + run_bytes,
            bytes_after=sum(len(line) + 1 for line in bundle_out + run_out),
        )
        if dry_run:
            return report

        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            for name, lines in (("bundles.jsonl", bundle_out), ("runs.jsonl", run_out)):
                text = "".join(line + "\n" for line in lines)
                write_atomic(self.directory / name, text.encode("utf-8"))
        self.bundles = kept_bundles
        self.runs = kept_runs
        return report


@dataclass(frozen=True)
class GcReport:
    """Outcome of one :meth:`Ledger.gc` pass."""

    dry_run: bool
    runs_pruned: tuple[str, ...]
    runs_kept: int
    bundles_removed: int
    bundles_kept: int
    epochs_pinned: int
    lines_before: int
    lines_after: int
    bytes_before: int
    bytes_after: int

    def to_payload(self) -> dict[str, object]:
        return {
            "dry_run": self.dry_run,
            "runs_pruned": list(self.runs_pruned),
            "runs_kept": self.runs_kept,
            "bundles_removed": self.bundles_removed,
            "bundles_kept": self.bundles_kept,
            "epochs_pinned": self.epochs_pinned,
            "lines_before": self.lines_before,
            "lines_after": self.lines_after,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
        }

    def render(self) -> str:
        verb = "would prune" if self.dry_run else "pruned"
        lines = [
            f"{verb} {len(self.runs_pruned)} run(s), removed "
            f"{self.bundles_removed} bundle(s); kept {self.runs_kept} run(s), "
            f"{self.bundles_kept} bundle(s), {self.epochs_pinned} pinned epoch(s)",
            f"  journal: {self.lines_before} -> {self.lines_after} line(s), "
            f"{self.bytes_before} -> {self.bytes_after} byte(s)",
        ]
        if self.runs_pruned:
            lines.append("  pruned: " + ", ".join(self.runs_pruned))
        return "\n".join(lines)


__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_REL_TOL",
    "LEDGER_DIR_ENV_VAR",
    "GOLDEN_EPOCH",
    "LedgerError",
    "units_for_metric",
    "Claim",
    "SubstrateRef",
    "Provenance",
    "default_provenance",
    "Bundle",
    "claims_from_headline",
    "bundle_from_payload",
    "Drift",
    "VerifyReport",
    "diff_bundles",
    "fold_failures",
    "RunEntry",
    "resolve_ledger_dir",
    "run_id_for",
    "GcReport",
    "Ledger",
]
