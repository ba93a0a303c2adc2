"""Synthetic implicit-feedback interaction data for recommender studies.

Substitute for the proprietary recommendation datasets behind the paper's
data-utilization results (Sachdeva et al.'s SVP-CF and the data-half-life
analysis).  Interactions are drawn from a latent-factor ground truth:

* users and items get latent vectors; affinity = sigmoid(u . v + biases);
* item popularity is Zipf-distributed (head items dominate, as in real
  catalogs);
* timestamps are uniform over the collection window, and latent factors
  can *drift* over time — the mechanism behind data perishability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.memo import memoized_substrate
from repro.errors import UnitError

#: Rows per chunk of :meth:`LatentFactorWorld.sample`'s affinity-weighted
#: pick.  Each chunk holds about four ``(rows, 20, n_factors)`` float
#: temporaries at once; at 512 rows the process's peak RSS over a whole
#: ``verify`` pass stays at the per-row loop's level, while 2048 rows
#: raised it by ~10 MiB and ran no faster.
_PICK_CHUNK_ROWS = 512


@dataclass(frozen=True)
class InteractionDataset:
    """Implicit-feedback interactions (user, item, timestamp)."""

    n_users: int
    n_items: int
    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.users)
        if len(self.items) != n or len(self.timestamps) != n:
            raise UnitError("interaction arrays must align")
        if n == 0:
            raise UnitError("dataset must contain interactions")

    def __len__(self) -> int:
        return len(self.users)

    def subset(self, mask: np.ndarray) -> "InteractionDataset":
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(self):
            raise UnitError("mask length must match dataset size")
        if not np.any(mask):
            raise UnitError("subset would be empty")
        return InteractionDataset(
            self.n_users,
            self.n_items,
            self.users[mask],
            self.items[mask],
            self.timestamps[mask],
        )

    def leave_last_out(self) -> tuple["InteractionDataset", dict[int, int]]:
        """Split: each user's last interaction becomes the test item.

        Users with fewer than two interactions stay entirely in train.
        Returns (train set, {user: held-out item}).
        """
        order = np.lexsort((self.timestamps, self.users))
        users = self.users[order]
        items = self.items[order]
        times = self.timestamps[order]
        test: dict[int, int] = {}
        keep = np.ones(len(users), dtype=bool)
        # The last row of each user's block is their most recent event.
        boundaries = np.nonzero(np.diff(users))[0]
        last_rows = np.append(boundaries, len(users) - 1)
        counts = np.bincount(users, minlength=self.n_users)
        for row in last_rows:
            u = int(users[row])
            if counts[u] >= 2:
                test[u] = int(items[row])
                keep[row] = False
        train = InteractionDataset(
            self.n_users, self.n_items, users[keep], items[keep], times[keep]
        )
        return train, test


@dataclass(frozen=True, slots=True)
class LatentFactorWorld:
    """Ground-truth generative model of user-item affinity."""

    n_users: int = 2000
    n_items: int = 1000
    n_factors: int = 8
    zipf_exponent: float = 1.05
    drift_per_year: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n_users, self.n_items, self.n_factors) <= 0:
            raise UnitError("world dimensions must be positive")
        if self.zipf_exponent <= 0:
            raise UnitError("zipf exponent must be positive")
        if self.drift_per_year < 0:
            raise UnitError("drift must be non-negative")

    def _factors(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        scale = 1.0 / np.sqrt(self.n_factors)
        U = rng.normal(0.0, scale, (self.n_users, self.n_factors))
        V = rng.normal(0.0, scale, (self.n_items, self.n_factors))
        # A second, independent item embedding: preferences rotate from V
        # toward V_alt over time, so data from different eras reflects
        # genuinely different (not just noisier) tastes.
        V_alt = rng.normal(0.0, scale, (self.n_items, self.n_factors))
        ranks = np.arange(1, self.n_items + 1, dtype=float)
        popularity = ranks**-self.zipf_exponent
        item_bias = np.log(popularity / popularity.sum() * self.n_items)
        return U, V, V_alt, item_bias

    def item_factors_at(self, t_years: float) -> np.ndarray:
        """Ground-truth item factors at absolute time ``t_years``."""
        rng = np.random.default_rng(self.seed)
        _, V, V_alt, _ = self._factors(rng)
        angle = self.drift_per_year * t_years
        return np.cos(angle) * V + np.sin(angle) * V_alt

    @memoized_substrate
    def sample(
        self,
        n_interactions: int = 60_000,
        window_years: float = 1.0,
        time_offset_years: float = 0.0,
        seed_offset: int = 0,
    ) -> InteractionDataset:
        """Draw interactions over a window starting at ``time_offset_years``.

        Item factors rotate deterministically at ``drift_per_year`` over
        *absolute* time; a snapshot collected at an earlier offset reflects
        earlier preferences and therefore mis-predicts later ones — the
        half-life mechanism.  Factor draws use only the world seed, so
        snapshots from different calls share one ground truth.

        Memoized (both tiers): the dataset is the single most expensive
        substrate in the suite, and identical worlds/windows recur across
        the sampling, half-life, and SDC experiments.  Returned arrays are
        frozen; ``np.array(...)`` them for a mutable copy.
        """
        if n_interactions <= 0 or window_years <= 0:
            raise UnitError("interactions and window must be positive")
        if time_offset_years < 0:
            raise UnitError("time offset must be non-negative")
        if seed_offset < 0:
            # -1 would seed the interaction stream with the world seed and
            # replay the draws that built the factors.
            raise UnitError("seed offset must be non-negative")
        factor_rng = np.random.default_rng(self.seed)
        U, V, V_alt, item_bias = self._factors(factor_rng)
        rng = np.random.default_rng(self.seed + 7919 * (seed_offset + 1))

        times = np.sort(rng.uniform(0.0, window_years, n_interactions))
        users = rng.integers(0, self.n_users, n_interactions)

        # Popularity-biased candidate sampling, affinity-weighted pick.
        items = np.empty(n_interactions, dtype=int)
        n_candidates = 20
        pop_weights = np.exp(item_bias)
        pop_weights = pop_weights / pop_weights.sum()
        candidates = rng.choice(
            self.n_items, size=(n_interactions, n_candidates), p=pop_weights
        )
        sharpness = 3.0  # concentrates picks on the truly-preferred items
        # One pre-drawn uniform per pick replaces the per-row
        # ``rng.choice(n_candidates, p=probs)`` call bit-exactly: a single
        # weighted Generator.choice consumes exactly one double and picks
        # ``searchsorted(normalized cdf, u, side="right")``, which is what
        # the chunks below replay without the per-call Generator
        # overhead.  The drift rotation is likewise hoisted out of the
        # loop (elementwise cos/sin over the time axis is bit-identical to
        # the former scalar-per-row evaluation).
        pick_uniforms = rng.random(n_interactions)
        angles = self.drift_per_year * (time_offset_years + times)
        cos_a = np.cos(angles)
        sin_a = np.sin(angles)
        root_factors = np.sqrt(self.n_factors)
        # Each chunk repeats the per-row loop's arithmetic exactly
        # (repro.testing.reference keeps that loop): batched ``@`` makes the
        # same BLAS gemv call per row as ``u @ V_t.T`` (np.einsum rounds
        # differently), every reduction runs along the contiguous candidate
        # axis, and counting ``cdf <= u`` on a non-decreasing cdf is
        # ``searchsorted(u, side="right")``.
        for start in range(0, n_interactions, _PICK_CHUNK_ROWS):
            rows = slice(start, start + _PICK_CHUNK_ROWS)
            cand = candidates[rows]
            V_t = cos_a[rows, None, None] * V[cand] + sin_a[rows, None, None] * V_alt[cand]
            dots = (V_t @ U[users[rows]][:, :, None])[:, :, 0]
            scores = sharpness * dots * root_factors
            probs = np.exp(scores - scores.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            cdf = probs.cumsum(axis=1)
            cdf /= cdf[:, -1:]
            picks = np.sum(cdf <= pick_uniforms[rows, None], axis=1)
            items[rows] = np.take_along_axis(cand, picks[:, None], axis=1)[:, 0]

        return InteractionDataset(
            self.n_users,
            self.n_items,
            users,
            items,
            times + time_offset_years,
        )
