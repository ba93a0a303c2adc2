"""The golden baselines: ``golden/baselines.json`` and the diff against it.

The checked-in file pins every experiment's headline metrics, with their
tolerances, and the shape of its table.  This module owns the file: it
reads and writes it (:func:`load_baselines`, :func:`write_baselines`),
converts between its entries and claim bundles (:func:`build_baselines`,
:func:`bundles_from_baselines`), pins it in a ledger as epoch ``"0"``
(:func:`pin_golden_epoch`), and diffs a run against that epoch
(:func:`diff_run`) — the diff ``sustainable-ai verify`` and
:func:`repro.verify_experiments` both report.

A run reaches the diff as claim bundles: :func:`bundle_from_record` makes
a result's bundle with :func:`repro.core.ledger.bundle_from_payload`, the
function the service records with too.

A tolerance of ``null`` in the JSON marks a metric informational — its
value is recorded for audit but never failed on (used for wall-clock
timings such as the sampling-study speedup).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping

from repro.core import ledger
from repro.core.canonical import canonical_dumps

# :func:`diff_run` calls these two as attributes of this module, so the
# benchmark (perfbench/launch.py) can wrap them to time the diff.
from repro.core.ledger import Bundle, VerifyReport, diff_bundles, fold_failures
from repro.errors import SustainableAIError
from repro.experiments.base import RunRecord

SCHEMA_VERSION = 1

#: The checked-in baselines at the repository root.
DEFAULT_BASELINES_PATH = Path(__file__).resolve().parents[3] / "golden" / "baselines.json"


class BaselineError(SustainableAIError, ValueError):
    """The baselines file is missing, malformed, or incompatible."""


def snapshot(bundle: Bundle) -> dict[str, object]:
    """Baseline entry for one bundle: headline, tolerances, row shape."""
    shape = bundle.shape() or {}
    return {
        "title": bundle.title,
        "headline": bundle.headline(),
        "tolerances": {claim.metric: claim.tolerance for claim in bundle.claims},
        "headers": list(shape.get("headers", ())),  # type: ignore[call-overload]
        "n_rows": shape.get("n_rows"),
    }


def build_baselines(bundles: Iterable[Bundle]) -> dict[str, object]:
    """Full baselines document for a run's bundles (typically of all experiments)."""
    return {
        "schema": SCHEMA_VERSION,
        "experiments": {bundle.experiment_id: snapshot(bundle) for bundle in bundles},
    }


def write_baselines(path: Path, baselines: Mapping[str, object]) -> None:
    """Write a baselines document as stable, diff-friendly JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_dumps(baselines) + "\n")


def load_baselines(path: Path) -> dict[str, object]:
    """Load and validate a baselines document."""
    path = Path(path)
    if not path.exists():
        raise BaselineError(
            f"baselines file not found: {path} "
            "(generate it with `sustainable-ai verify --update`)"
        )
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baselines file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "experiments" not in data:
        raise BaselineError(f"baselines file {path} lacks an 'experiments' section")
    if data.get("schema") != SCHEMA_VERSION:
        raise BaselineError(
            f"baselines file {path} has schema {data.get('schema')!r}; "
            f"this library reads schema {SCHEMA_VERSION}"
        )
    return data


def bundles_from_baselines(doc: Mapping[str, object]) -> dict[str, Bundle]:
    """Claim bundles from a baselines document.

    The import preserves exactly what the file pinned: headline values,
    per-metric tolerances, and the result shape.  Imported bundles carry
    no payload and no substrate hashes — their provenance source is
    ``golden-import``.
    """
    entries = doc.get("experiments")
    if not isinstance(entries, Mapping):
        raise ledger.LedgerError("baselines document lacks an 'experiments' section")
    return {
        str(experiment_id): Bundle(
            experiment_id=str(experiment_id),
            title=str(entry.get("title", "")),
            status="ok",
            claims=ledger.claims_from_headline(
                entry.get("headline", {}), entry.get("tolerances", {})
            ),
            provenance=ledger.default_provenance(
                config={
                    "shape": {
                        "headers": list(entry.get("headers", ())),
                        "n_rows": entry.get("n_rows"),
                    }
                },
                source="golden-import",
            ),
        )
        for experiment_id, entry in entries.items()
    }


def pin_golden_epoch(
    led: ledger.Ledger, path: Path = DEFAULT_BASELINES_PATH, *, replace: bool = False
) -> bool:
    """Pin the baselines file at ``path`` as epoch ``"0"`` of ``led``.

    An epoch ``"0"`` already pinned stays unless ``replace`` is set.
    Returns whether it pinned; a missing or malformed file raises
    :class:`BaselineError`, which each caller handles its own way.
    """
    if ledger.GOLDEN_EPOCH in led.epochs and not replace:
        return False
    led.pin_epoch(
        ledger.GOLDEN_EPOCH,
        bundles_from_baselines(load_baselines(path)),
        meta={"source": "golden-import", "path": str(path)},
    )
    return True


def bundle_from_record(
    record: RunRecord,
    *,
    invariant_status: str = "not-checked",
    recorded_at: float | None = None,
    source: str = "runner",
) -> Bundle:
    """A claim bundle for one run record — success *or* structured failure.

    A failed record produces a claimless ``status="failed"`` bundle
    carrying the structured error (kind, message, attempts), so a crashed
    run is ledgered as honestly as a passing one.
    """
    provenance = dict(
        substrates=record.substrates,
        invariant_status=invariant_status,
        recorded_at=recorded_at,
        source=source,
    )
    if record.ok:
        bundle = ledger.bundle_from_payload(record.payload or {}, **provenance)  # type: ignore
        assert bundle is not None, "a result payload always yields a bundle"
        return bundle
    return Bundle(
        experiment_id=record.experiment_id,
        title="",
        status="failed",
        claims=(),
        provenance=ledger.default_provenance(**provenance),  # type: ignore[arg-type]
        error={
            "kind": record.error_kind or "exception",
            "message": record.error_message or "",
            "attempts": record.attempts,
        },
    )


def diff_run(
    baseline: Mapping[str, Bundle], bundles: Iterable[Bundle], strict: bool = True
) -> VerifyReport:
    """Diff one run's bundles against a baseline epoch, claim by claim.

    A failed bundle has no claims to diff: its baseline entry becomes a
    ``run-failure`` drift carrying the error, not a stale baseline.
    ``strict`` also flags baseline entries the run has no bundle for;
    disable it when intentionally verifying a subset.
    """
    bundles = list(bundles)
    current = {bundle.experiment_id: bundle for bundle in bundles if bundle.ok}
    failed = [bundle for bundle in bundles if not bundle.ok]
    return fold_failures(diff_bundles(baseline, current, strict=strict), failed)
