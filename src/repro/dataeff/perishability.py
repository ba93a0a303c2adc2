"""Data perishability: the half-life of predictive value (Section IV-A).

"Data collected over time loses its predictive value gradually ... natural
language data sets can lose half of their predictive value in the time
period of less than 7 years (the half-life time of data)."

Two layers:

* an analytic :class:`HalfLifeModel` — exponential decay of predictive
  value with age, invertible to a retention schedule: how aggressively to
  sub-sample data of each age so storage cost tracks residual value;
* an *empirical* pipeline — train a recommender on data of increasing age
  (from the drifting synthetic world), measure quality decay against
  fresh test data, and fit the half-life from the measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataeff.recommenders import BiasMF, ItemPop, evaluate
from repro.dataeff.synthetic import LatentFactorWorld
from repro.errors import CalibrationError, UnitError

#: The paper's NL-data anchor: half-life under 7 years.
NL_DATA_HALF_LIFE_YEARS = 7.0


@dataclass(frozen=True, slots=True)
class HalfLifeModel:
    """Exponential decay of predictive value with data age."""

    half_life_years: float
    floor: float = 0.0  # residual value that never decays

    def __post_init__(self) -> None:
        if self.half_life_years <= 0:
            raise UnitError("half-life must be positive")
        if not (0 <= self.floor < 1):
            raise UnitError("floor must be in [0, 1)")

    def value_at_age(self, age_years: float) -> float:
        """Relative predictive value of data aged ``age_years``."""
        if age_years < 0:
            raise UnitError("age must be non-negative")
        decay = 0.5 ** (age_years / self.half_life_years)
        return self.floor + (1.0 - self.floor) * decay

    def retention_schedule(
        self, ages_years: np.ndarray, budget_fraction: float
    ) -> np.ndarray:
        """Per-age retention rates proportional to residual value.

        Allocates a storage budget (fraction of all data kept) across age
        buckets in proportion to value, capped at 1 per bucket — the
        "sampling strategies to subset data at different rates based on
        its half-life" the paper proposes.
        """
        if not (0 < budget_fraction <= 1):
            raise UnitError("budget fraction must be in (0, 1]")
        ages = np.asarray(ages_years, dtype=float)
        values = np.array([self.value_at_age(a) for a in ages])
        raw = values / values.sum() * budget_fraction * len(ages)
        # Redistribute overflow from capped buckets onto the rest.
        rates = np.minimum(raw, 1.0)
        for _ in range(16):
            overflow = float(np.sum(raw - rates))
            if overflow <= 1e-12:
                break
            open_mask = rates < 1.0
            if not np.any(open_mask):
                break
            share = values * open_mask
            if share.sum() == 0:
                break
            raw = rates + overflow * share / share.sum()
            rates = np.minimum(raw, 1.0)
        return rates

    def storage_saving(self, ages_years: np.ndarray, budget_fraction: float) -> float:
        """Fraction of bytes avoided versus keeping everything."""
        rates = self.retention_schedule(ages_years, budget_fraction)
        return 1.0 - float(np.mean(rates))


def fit_half_life(ages_years: np.ndarray, values: np.ndarray) -> HalfLifeModel:
    """Least-squares fit of the decay model to (age, value) measurements."""
    ages = np.asarray(ages_years, dtype=float)
    vals = np.asarray(values, dtype=float)
    if ages.shape != vals.shape or len(ages) < 3:
        raise CalibrationError("need >= 3 aligned (age, value) points")

    def residuals(params: np.ndarray) -> np.ndarray:
        half_life, floor = params
        model = HalfLifeModel(max(half_life, 1e-6), min(max(floor, 0.0), 0.99))
        return np.array([model.value_at_age(a) for a in ages]) - vals

    from scipy import optimize

    result = optimize.least_squares(
        residuals, x0=np.array([5.0, 0.1]), bounds=([1e-3, 0.0], [100.0, 0.99])
    )
    half_life, floor = result.x
    return HalfLifeModel(float(half_life), float(floor))


def measure_value_decay(
    ages_years: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 4.0),
    drift_per_year: float = 0.55,
    n_interactions: int = 20_000,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical (age, relative *personalization* value) curve.

    For each age, train BiasMF on a snapshot collected ``age`` years
    before the evaluation window and test against fresh interactions.
    Predictive value is the NDCG lift *over a popularity baseline trained
    on the same snapshot* (popularity barely drifts, so raw NDCG would
    hide the decay), normalized to the age-0 lift.
    """
    if drift_per_year <= 0:
        raise CalibrationError("drift must be positive to measure decay")
    world = LatentFactorWorld(
        n_users=600, n_items=400, drift_per_year=drift_per_year, seed=seed
    )
    lifts = []
    # Fresh evaluation data, collected "now" (= the oldest snapshot's age).
    horizon = max(ages_years)
    fresh = world.sample(
        n_interactions, window_years=0.25, time_offset_years=horizon, seed_offset=999
    )
    _, test = fresh.leave_last_out()
    for i, age in enumerate(ages_years):
        # A snapshot collected `age` years before the evaluation window.
        aged = world.sample(
            n_interactions,
            window_years=0.25,
            time_offset_years=horizon - age,
            seed_offset=i,
        )
        model = BiasMF(seed=seed).fit(aged)
        baseline = ItemPop().fit(aged)
        model_ndcg = evaluate(model, aged, test, seed=seed).ndcg_at_k
        base_ndcg = evaluate(baseline, aged, test, seed=seed).ndcg_at_k
        lifts.append(max(0.0, model_ndcg - base_ndcg))
    values = np.asarray(lifts)
    if values[0] <= 0:
        raise CalibrationError("age-0 personalization lift is zero; increase data size")
    return np.asarray(ages_years, dtype=float), values / values[0]
