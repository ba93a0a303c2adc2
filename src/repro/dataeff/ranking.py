"""Ranking-preservation study: does a sub-sample rank algorithms the same?

The SVP-CF experiment (Section IV-A): evaluate a panel of recommenders on
the full dataset and on a sub-sample; if the sample orders the algorithms
the same way (Kendall tau = 1), model selection can run on the sample at
a fraction of the cost — the paper quotes a 5.8x average speedup at 10%
data.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.dataeff.recommenders import EvalResult, Recommender, default_algorithms, evaluate
from repro.dataeff.synthetic import InteractionDataset
from repro.errors import UnitError


@dataclass(frozen=True)
class PanelResult:
    """Evaluation of the full algorithm panel on one dataset."""

    results: tuple[EvalResult, ...]
    wall_time_s: float
    #: Deterministic cost measure: interactions processed across the panel
    #: (fit + evaluate).  Speedups are reported from this, not wall clock,
    #: so repeated runs are bit-reproducible.
    work_units: float = 0.0

    def ranking(self) -> tuple[str, ...]:
        """Algorithm names ordered best-to-worst by NDCG."""
        ordered = sorted(self.results, key=lambda r: -r.ndcg_at_k)
        return tuple(r.algorithm for r in ordered)

    def scores(self) -> dict[str, float]:
        return {r.algorithm: r.ndcg_at_k for r in self.results}


def run_panel(
    data: InteractionDataset,
    algorithms: list[Recommender] | None = None,
    k: int = 10,
    seed: int = 0,
) -> PanelResult:
    """Fit + evaluate every algorithm on ``data``, timing the whole panel."""
    algorithms = algorithms if algorithms is not None else default_algorithms(seed)
    train, test = data.leave_last_out()
    if not test:
        raise UnitError("dataset too small to produce a test split")
    start = time.perf_counter()
    results = []
    for algo in algorithms:
        algo.fit(train)
        results.append(evaluate(algo, train, test, k=k, seed=seed))
    elapsed = time.perf_counter() - start
    work = float(len(algorithms) * (len(train) + len(test)))
    return PanelResult(tuple(results), elapsed, work)


def kendall_tau(full: PanelResult, sampled: PanelResult) -> float:
    """Kendall tau-b between algorithm scores on full vs sampled data.

    Counted over every pair of the (small) panel with the expression
    ``scipy.stats.kendalltau`` evaluates, so the value is bit-equal to it;
    NaN when either panel scores every algorithm the same.
    """
    full_scores = full.scores()
    sample_scores = sampled.scores()
    names = sorted(full_scores)
    if sorted(sample_scores) != names:
        raise UnitError("panels evaluated different algorithm sets")
    x = np.array([full_scores[n] for n in names])
    y = np.array([sample_scores[n] for n in names])
    i, j = np.triu_indices(len(names), k=1)
    dx, dy = np.sign(x[i] - x[j]), np.sign(y[i] - y[j])
    tot, xtie, ytie = len(i), np.count_nonzero(dx == 0), np.count_nonzero(dy == 0)
    if xtie == tot or ytie == tot:
        return math.nan
    # Concordant minus discordant pairs over the tau-b normalization.
    tau = np.dot(dx, dy) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.clip(tau, -1.0, 1.0))


@dataclass(frozen=True, slots=True)
class SamplingStudyRow:
    """One row of the sampling study table."""

    sampler: str
    rate: float
    tau: float
    speedup: float
    ranking_preserved: bool


def sampling_study(
    data: InteractionDataset,
    rates: tuple[float, ...] = (0.1,),
    sampler_names: tuple[str, ...] = ("random", "svp", "head-users", "recent"),
    seed: int = 0,
) -> list[SamplingStudyRow]:
    """The full SVP-CF-style study: tau and speedup per sampler x rate."""
    from repro.dataeff.sampling import SAMPLERS

    full = run_panel(data, seed=seed)
    rows = []
    for name in sampler_names:
        if name not in SAMPLERS:
            raise UnitError(f"unknown sampler {name!r}")
        sampler = SAMPLERS[name]
        for rate in rates:
            sample = sampler(data, rate, seed=seed)
            panel = run_panel(sample, seed=seed)
            tau = kendall_tau(full, panel)
            rows.append(
                SamplingStudyRow(
                    sampler=name,
                    rate=rate,
                    tau=tau,
                    speedup=full.work_units / max(panel.work_units, 1e-9),
                    ranking_preserved=full.ranking() == panel.ranking(),
                )
            )
    return rows
