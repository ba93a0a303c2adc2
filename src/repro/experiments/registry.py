"""Registry of experiments: metadata-carrying specs with deterministic order.

Each experiment is registered as an :class:`ExperimentSpec` rather than a
bare callable.  The spec carries the category that fixes the listing order
(figures, in-text metrics, appendix, ablations, extensions) and the runner.
A result declares its own headline tolerances
(:attr:`~repro.experiments.base.ExperimentResult.tolerances`).

:func:`run_experiment` also seeds the *global* RNGs (``random`` and the
legacy numpy generator) from a stable hash of the experiment id before
dispatching, so results are independent of execution order — a parallel
``sustainable-ai run all --jobs N`` produces payloads byte-identical to a
sequential run.
"""

from __future__ import annotations

import difflib
import hashlib
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import RegistryError
from repro.experiments import (
    ablations,
    appendix,
    extensions,
    fig01,
    fig02,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    genai,
    text_metrics,
)
from repro.experiments.base import ExperimentResult

#: Listing order of experiment categories (satisfies the "figures first"
#: contract explicitly instead of relying on dict insertion order).
CATEGORY_ORDER: tuple[str, ...] = (
    "figure",
    "text",
    "appendix",
    "ablation",
    "extension",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: id, category, runner."""

    experiment_id: str
    category: str
    runner: Callable[[], ExperimentResult]

    def __post_init__(self) -> None:
        if self.category not in CATEGORY_ORDER:
            raise RegistryError(
                f"unknown category {self.category!r} for "
                f"{self.experiment_id!r}; known: {', '.join(CATEGORY_ORDER)}"
            )


_SPECS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec("fig1", "figure", fig01.run),
    ExperimentSpec("fig2", "figure", fig02.run),
    ExperimentSpec("fig3", "figure", fig03.run),
    ExperimentSpec("fig4", "figure", fig04.run),
    ExperimentSpec("fig5", "figure", fig05.run),
    ExperimentSpec("fig6", "figure", fig06.run),
    ExperimentSpec("fig7", "figure", fig07.run),
    ExperimentSpec("fig8", "figure", fig08.run),
    ExperimentSpec("fig9", "figure", fig09.run),
    ExperimentSpec("fig10", "figure", fig10.run),
    ExperimentSpec("fig11", "figure", fig11.run),
    ExperimentSpec("fig12", "figure", fig12.run),
    ExperimentSpec("text-gpudays", "text", text_metrics.run_gpudays),
    ExperimentSpec("text-quant", "text", text_metrics.run_quantization),
    ExperimentSpec("text-sampling", "text", text_metrics.run_sampling),
    ExperimentSpec("text-halflife", "text", text_metrics.run_halflife),
    ExperimentSpec("appendix-ssl", "appendix", appendix.run_ssl),
    ExperimentSpec("appendix-disagg", "appendix", appendix.run_disaggregation),
    ExperimentSpec("ablation-sched", "ablation", ablations.run_scheduling),
    ExperimentSpec("ablation-earlystop", "ablation", ablations.run_earlystop),
    ExperimentSpec("ablation-nas", "ablation", ablations.run_nas),
    ExperimentSpec("ablation-compression", "ablation", ablations.run_compression),
    ExperimentSpec("ext-moe", "extension", extensions.run_moe),
    ExperimentSpec("ext-scopes", "extension", extensions.run_scopes),
    ExperimentSpec("ext-geo", "extension", extensions.run_geo),
    ExperimentSpec("ext-flselect", "extension", extensions.run_fl_selection),
    ExperimentSpec("ext-idle", "extension", extensions.run_idle),
    ExperimentSpec("ext-carbonnas", "extension", extensions.run_carbon_nas),
    ExperimentSpec("ext-leaderboard", "extension", extensions.run_leaderboard),
    ExperimentSpec("ext-predict", "extension", extensions.run_predictive_tracking),
    ExperimentSpec("ext-capacity", "extension", extensions.run_capacity),
    ExperimentSpec("ext-serving", "extension", extensions.run_serving_mechanics),
    ExperimentSpec("ext-sdc", "extension", extensions.run_sdc),
    ExperimentSpec("ext-tenancy", "extension", extensions.run_multitenancy),
    ExperimentSpec("ext-hwchoice", "extension", extensions.run_hardware_choice),
    ExperimentSpec("ext-asyncfl", "extension", extensions.run_async_fl),
    ExperimentSpec("ext-sharding", "extension", extensions.run_sharding),
    ExperimentSpec("ext-tvtracking", "extension", extensions.run_time_varying),
    ExperimentSpec("ext-autoscale", "extension", extensions.run_autoscale),
    ExperimentSpec("ext-forecast", "extension", extensions.run_forecast),
    ExperimentSpec("ext-uncertainty", "extension", extensions.run_uncertainty),
    ExperimentSpec("ext-ingestion", "extension", extensions.run_ingestion),
    ExperimentSpec("ext-bom", "extension", extensions.run_bom),
    ExperimentSpec("ext-mempool", "extension", extensions.run_memory_pooling),
    ExperimentSpec("ext-sweep", "extension", extensions.run_sweep_levers),
    ExperimentSpec("ext-genai-inventory", "extension", genai.run_inventory),
    ExperimentSpec("ext-genai-crossover", "extension", genai.run_crossover),
    ExperimentSpec("ext-genai-fleet", "extension", genai.run_fleet),
    ExperimentSpec("ext-genai-checkpoint", "extension", genai.run_checkpoint),
)

SPECS: dict[str, ExperimentSpec] = {s.experiment_id: s for s in _SPECS}
if len(SPECS) != len(_SPECS):
    raise RegistryError("duplicate experiment ids in the registry")

_CATEGORY_RANK = {category: rank for rank, category in enumerate(CATEGORY_ORDER)}
_REGISTRATION_INDEX = {s.experiment_id: i for i, s in enumerate(_SPECS)}
_ORDERED_IDS: tuple[str, ...] = tuple(
    sorted(
        SPECS,
        key=lambda eid: (_CATEGORY_RANK[SPECS[eid].category], _REGISTRATION_INDEX[eid]),
    )
)

#: Backwards-compatible id -> callable view of the registry.
EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    eid: SPECS[eid].runner for eid in _ORDERED_IDS
}


def experiment_ids() -> tuple[str, ...]:
    """All registered experiment ids in deterministic order.

    The order is explicit, not an accident of dict insertion: categories
    follow :data:`CATEGORY_ORDER` (figures, in-text metrics, appendix,
    ablations, extensions), and registration order breaks ties within a
    category.
    """
    return _ORDERED_IDS


def experiment_specs() -> tuple[ExperimentSpec, ...]:
    """All registered specs, in the same order as :func:`experiment_ids`."""
    return tuple(SPECS[eid] for eid in _ORDERED_IDS)


def get_spec(experiment_id: str) -> ExperimentSpec:
    """Look up one spec by id, with a closest-match hint on failure."""
    try:
        return SPECS[experiment_id]
    except KeyError:
        matches = difflib.get_close_matches(experiment_id, _ORDERED_IDS, n=3, cutoff=0.4)
        hint = f" (did you mean: {', '.join(matches)}?)" if matches else ""
        known = ", ".join(_ORDERED_IDS)
        raise RegistryError(
            f"unknown experiment {experiment_id!r}{hint}; known: {known}"
        ) from None


def stable_seed(experiment_id: str, attempt: int = 0) -> int:
    """Deterministic 32-bit seed derived from the experiment id.

    ``attempt`` salts the seed on retries (retry-with-reseed): attempt 0
    reproduces the golden-baseline seed exactly, while a fault-driven
    retry re-rolls the global RNG stream so a seed-correlated transient
    failure is not replayed deterministically.
    """
    token = experiment_id if attempt == 0 else f"{experiment_id}#retry{attempt}"
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def run_experiment(experiment_id: str, attempt: int = 0) -> ExperimentResult:
    """Run one experiment by id.

    Global RNGs are seeded from the id first, so a result never depends on
    which experiments ran before it (or in which process).  ``attempt``
    feeds :func:`stable_seed`'s retry salt; the first attempt (0) is the
    canonical, baseline-pinned seeding.
    """
    spec = get_spec(experiment_id)
    seed = stable_seed(experiment_id, attempt)
    random.seed(seed)
    np.random.seed(seed)
    return spec.runner()
