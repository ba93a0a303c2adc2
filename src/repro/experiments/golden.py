"""Golden-baseline compatibility shim over the carbon ledger.

Historically this module owned drift detection: it pinned every
experiment's headline metrics into ``golden/baselines.json`` and diffed
fresh runs against that file.  The source of truth has since moved to
:mod:`repro.core.ledger` — an append-only, content-addressed store of
claim bundles with provenance — and ``sustainable-ai verify`` is now a
ledger diff against a pinned epoch (the checked-in baselines import as
epoch ``"0"``).

What remains here is the experiment-facing surface:

* the baselines *file* format (:func:`load_baselines`,
  :func:`write_baselines`, :func:`snapshot`, :func:`build_baselines`) —
  still the checked-in, diff-friendly representation of epoch 0;
* bridges from experiment results/records to claim bundles
  (:func:`bundle_from_result`, :func:`bundle_from_record`,
  :func:`bundles_from_results`);
* the legacy API (:func:`compare`, :func:`merge_failures`,
  :class:`Drift`, :class:`VerifyReport`), now thin delegations to
  :func:`repro.core.ledger.diff_bundles` / ``fold_failures`` — reports
  and exit codes are byte-identical to the pre-ledger implementation.

A tolerance of ``null`` in the JSON marks a metric informational — its
value is recorded for audit but never failed on (used for wall-clock
timings such as the sampling-study speedup).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.core import ledger
from repro.core.canonical import canonical_dumps
from repro.core.ledger import (  # noqa: F401  (legacy re-exports)
    Bundle,
    Claim,
    Drift,
    VerifyReport,
    bundles_from_baselines,
    diff_bundles,
    fold_failures,
    units_for_metric,
)
from repro.errors import SustainableAIError
from repro.experiments.base import ExperimentResult, RunRecord
from repro.experiments.registry import DEFAULT_REL_TOL, get_spec  # noqa: F401

SCHEMA_VERSION = 1

#: The checked-in baselines at the repository root.
DEFAULT_BASELINES_PATH = Path(__file__).resolve().parents[3] / "golden" / "baselines.json"


class BaselineError(SustainableAIError, ValueError):
    """The baselines file is missing, malformed, or incompatible."""


def snapshot(result: ExperimentResult) -> dict[str, object]:
    """Baseline entry for one result: headline, tolerances, row shape."""
    spec = get_spec(result.experiment_id)
    headline = {k: float(v) for k, v in sorted(result.headline.items())}
    return {
        "title": result.title,
        "headline": headline,
        "tolerances": {k: spec.tolerance_for(k, result) for k in headline},
        "headers": list(result.headers),
        "n_rows": len(result.rows),
    }


def build_baselines(results: Mapping[str, ExperimentResult]) -> dict[str, object]:
    """Full baselines document for a run of (typically all) experiments."""
    return {
        "schema": SCHEMA_VERSION,
        "experiments": {eid: snapshot(res) for eid, res in results.items()},
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


# ---------------------------------------------------------------------------
# Result/record -> claim bundle bridges
# ---------------------------------------------------------------------------


def bundle_from_result(
    result: ExperimentResult,
    *,
    substrates: Sequence[tuple[str, str | None]] = (),
    invariant_status: str = "not-checked",
    recorded_at: float | None = None,
    source: str = "runner",
) -> Bundle:
    """A claim bundle for one successful experiment result.

    Claims mirror the golden snapshot exactly — sorted headline metrics
    with the registry's per-metric tolerances — and the bundle carries
    the full result payload, so any historical report can be
    reconstructed byte-identically from the ledger.
    """
    spec = get_spec(result.experiment_id)
    claims = tuple(
        Claim(
            metric=metric,
            value=float(value),
            units=units_for_metric(metric),
            tolerance=spec.tolerance_for(metric, result),
        )
        for metric, value in sorted(result.headline.items())
    )
    config = {
        "shape": {
            "headers": list(result.headers),
            "n_rows": len(result.rows),
        }
    }
    return Bundle(
        experiment_id=result.experiment_id,
        title=result.title,
        status="ok",
        claims=claims,
        provenance=ledger.default_provenance(
            config=config,
            substrates=substrates,
            invariant_status=invariant_status,
            recorded_at=recorded_at,
            source=source,
        ),
        payload=result.to_payload(),
    )


def bundle_from_record(
    record: RunRecord,
    *,
    invariant_status: str = "not-checked",
    recorded_at: float | None = None,
    source: str = "runner",
) -> Bundle:
    """A claim bundle for one run record — success *or* structured failure.

    Failed records produce claimless ``status="failed"`` bundles carrying
    the structured error (kind, message, attempts), so a crashed run is
    ledgered as honestly as a passing one.
    """
    if record.ok:
        return bundle_from_result(
            record.result(),
            substrates=record.substrates,
            invariant_status=invariant_status,
            recorded_at=recorded_at,
            source=source,
        )
    return Bundle(
        experiment_id=record.experiment_id,
        title="",
        status="failed",
        claims=(),
        provenance=ledger.default_provenance(
            substrates=record.substrates,
            invariant_status=invariant_status,
            recorded_at=recorded_at,
            source=source,
        ),
        error={
            "kind": record.error_kind or "exception",
            "message": record.error_message or "",
            "attempts": record.attempts,
        },
    )


def bundles_from_results(
    results: Mapping[str, ExperimentResult],
    *,
    invariant_status: str = "not-checked",
    recorded_at: float | None = None,
    source: str = "runner",
) -> dict[str, Bundle]:
    """Claim bundles for a result mapping, preserving iteration order."""
    return {
        eid: bundle_from_result(
            result,
            invariant_status=invariant_status,
            recorded_at=recorded_at,
            source=source,
        )
        for eid, result in results.items()
    }


# ---------------------------------------------------------------------------
# Legacy diff API (delegates to the ledger)
# ---------------------------------------------------------------------------


def compare(
    baselines: Mapping[str, object],
    results: Mapping[str, ExperimentResult],
    strict: bool = True,
) -> VerifyReport:
    """Diff a run against baselines (now a ledger claim diff).

    ``strict`` also flags baseline entries with no corresponding result
    (stale baselines); disable it when intentionally verifying a subset.
    """
    baseline_bundles = bundles_from_baselines(baselines)
    current_bundles = bundles_from_results(results)
    return diff_bundles(baseline_bundles, current_bundles, strict=strict)


def merge_failures(report: VerifyReport, failed_records) -> VerifyReport:
    """Fold failed :class:`~repro.experiments.base.RunRecord`s into a report.

    A crashed/timed-out experiment produced no result, so :func:`compare`
    would misreport its baseline as stale; this replaces those stale
    entries with honest ``run-failure`` drifts carrying the structured
    error, keeping `verify`'s exit nonzero and its table complete.
    """
    failed_bundles = [bundle_from_record(record) for record in failed_records]
    return fold_failures(report, failed_bundles)
