"""GPU utilization distributions across experimentation workflows (Figure 10).

The paper: "A vast majority of model experimentation (over tens of
thousands of training workflows) utilizes GPUs at only 30-50%".

Workflow utilizations are modeled with a Beta distribution whose default
parameters put the mode in the 30-50% band with a thin high-utilization
tail; :func:`utilization_histogram` produces the Figure-10 bars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import UnitError


@dataclass(frozen=True, slots=True)
class UtilizationDistribution:
    """Beta-distributed per-workflow GPU utilization."""

    alpha: float = 7.0
    beta: float = 9.5

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise UnitError("Beta parameters must be positive")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    @property
    def mode(self) -> float:
        if self.alpha <= 1:
            return 0.0
        return (self.alpha - 1.0) / (self.alpha + self.beta - 2.0)

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        if n < 0:
            raise UnitError("sample count must be non-negative")
        rng = np.random.default_rng(seed)
        return rng.beta(self.alpha, self.beta, size=n)

    def fraction_in_band(self, low: float, high: float) -> float:
        """Probability mass of utilization in [low, high]."""
        if not (0 <= low <= high <= 1):
            raise UnitError("band must satisfy 0 <= low <= high <= 1")
        # The regularized incomplete beta function is the Beta CDF; it is
        # what ``scipy.stats.beta.cdf`` calls.
        from scipy.special import betainc

        return float(betainc(self.alpha, self.beta, high) - betainc(self.alpha, self.beta, low))

    def fractions_in_bands(
        self, bands: tuple[tuple[float, float], ...]
    ) -> np.ndarray:
        """Probability mass per (low, high) band, in one vectorized pass.

        Evaluates the CDF over all band edges together; each band's mass
        is bit-exact with a per-band :meth:`fraction_in_band` call (the
        CDF is an elementwise ufunc, so array evaluation matches scalar).
        """
        if not bands:
            return np.empty(0)
        edges = np.asarray(bands, dtype=float)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise UnitError("bands must be (low, high) pairs")
        if np.any(edges[:, 0] > edges[:, 1]) or np.any((edges < 0) | (edges > 1)):
            raise UnitError("band must satisfy 0 <= low <= high <= 1")
        from scipy.special import betainc

        cdf = betainc(self.alpha, self.beta, edges)
        return cdf[:, 1] - cdf[:, 0]

    def _reference_fractions_in_bands(
        self, bands: tuple[tuple[float, float], ...]
    ) -> np.ndarray:
        """Per-band scalar loop (bit-exactness tests only)."""
        return np.array([self.fraction_in_band(lo, hi) for lo, hi in bands])


#: Research-cluster experimentation (Figure 10): mode in the 30-50% band.
EXPERIMENTATION_UTILIZATION = UtilizationDistribution(7.0, 9.5)
#: Production training after optimization: pushed toward 60-80%.
OPTIMIZED_TRAINING_UTILIZATION = UtilizationDistribution(8.0, 4.0)


def utilization_histogram(
    dist: UtilizationDistribution = EXPERIMENTATION_UTILIZATION,
    n_workflows: int = 50_000,
    bin_width: float = 0.1,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """(bin lower edges, workflow fraction per bin) for Figure 10."""
    if not (0 < bin_width <= 1):
        raise UnitError("bin width must be in (0, 1]")
    samples = dist.sample(n_workflows, seed)
    edges = np.arange(0.0, 1.0 + bin_width / 2, bin_width)
    counts, _ = np.histogram(samples, bins=edges)
    return edges[:-1], counts / n_workflows
