"""Training job duration models calibrated to the paper's percentiles.

Section II-A reports:

* research **experimentation**: p50 = 1.5 GPU-days, p99 = 24 GPU-days,
  with a tail of trillion-parameter runs exceeding 500 GPU-days;
* **production training** workflows: p50 = 2.96 GPU-days, p99 = 125
  GPU-days.

A lognormal is the natural fit for job-duration distributions (durations
are positive and heavy-tailed).  Given two quantiles (p50, p99), the
lognormal parameters are determined exactly::

    median = exp(mu)          ->  mu = ln(p50)
    p99    = exp(mu + z99*s)  ->  sigma = ln(p99 / p50) / z99
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.errors import CalibrationError

#: ``scipy.stats.norm.ppf(0.99)``, written out so that the module-level
#: models below are built without importing scipy.
Z99 = 2.3263478740408408


@dataclass(frozen=True, slots=True)
class JobDurationModel:
    """Lognormal GPU-day duration distribution fit to (p50, p99)."""

    mu: float
    sigma: float
    name: str = "jobs"

    @classmethod
    def from_percentiles(
        cls, p50_gpu_days: float, p99_gpu_days: float, name: str = "jobs"
    ) -> "JobDurationModel":
        """Fit from the two percentiles the paper reports."""
        if p50_gpu_days <= 0 or p99_gpu_days <= 0:
            raise CalibrationError("percentile durations must be positive")
        if p99_gpu_days <= p50_gpu_days:
            raise CalibrationError(
                f"p99 ({p99_gpu_days}) must exceed p50 ({p50_gpu_days})"
            )
        mu = float(np.log(p50_gpu_days))
        sigma = float(np.log(p99_gpu_days / p50_gpu_days) / Z99)
        return cls(mu=mu, sigma=sigma, name=name)

    def quantile(self, q: float) -> float:
        """GPU-days at quantile ``q`` in (0, 1)."""
        if not (0 < q < 1):
            raise CalibrationError(f"quantile must be in (0, 1), got {q}")
        # The standard-normal inverse CDF that ``scipy.stats.norm.ppf`` calls.
        from scipy.special import ndtri

        return float(np.exp(self.mu + self.sigma * ndtri(q)))

    @property
    def median_gpu_days(self) -> float:
        return float(np.exp(self.mu))

    @property
    def mean_gpu_days(self) -> float:
        return float(np.exp(self.mu + self.sigma**2 / 2.0))

    def sample_gpu_days(self, n: int, seed: int = 0) -> np.ndarray:
        """Draw ``n`` job durations (GPU-days)."""
        if n < 0:
            raise CalibrationError(f"sample count must be non-negative, got {n}")
        rng = np.random.default_rng(seed)
        return np.exp(rng.normal(self.mu, self.sigma, size=n))

    def sample_gpu_hours(self, n: int, seed: int = 0) -> np.ndarray:
        return self.sample_gpu_days(n, seed) * units.HOURS_PER_DAY

    def exceedance_fraction(self, gpu_days: float) -> float:
        """Fraction of jobs longer than ``gpu_days``."""
        if gpu_days <= 0:
            return 1.0
        from scipy.special import ndtr

        z = (np.log(gpu_days) - self.mu) / self.sigma
        # ``scipy.stats.norm.sf(z)`` is ``ndtr(-z)``.
        return float(ndtr(-z))


#: Research-cluster experimentation workflows (p50 1.5 / p99 24 GPU-days).
EXPERIMENTATION_JOBS = JobDurationModel.from_percentiles(1.5, 24.0, "experimentation")
#: Production training workflows (p50 2.96 / p99 125 GPU-days).
PRODUCTION_TRAINING_JOBS = JobDurationModel.from_percentiles(
    2.96, 125.0, "production-training"
)
#: GPU-day threshold of the paper's "large-scale, trillion parameter" runs.
TRILLION_PARAM_THRESHOLD_GPU_DAYS = 500.0


def expected_cluster_gpu_days(model: JobDurationModel, jobs_per_period: int) -> float:
    """Expected total GPU-days consumed by ``jobs_per_period`` jobs."""
    if jobs_per_period < 0:
        raise CalibrationError("job count must be non-negative")
    return model.mean_gpu_days * jobs_per_period
