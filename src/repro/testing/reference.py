"""Reference loops that the vectorized kernels must reproduce bit-for-bit.

Each function or class here is a loop that a numpy kernel in a shipped
module replaced, kept verbatim so that ``tests/test_vectorized_kernels.py``
and ``benchmarks/bench_kernels.py`` can compare the kernel against it with
``==`` (never ``allclose``):

* :func:`reference_sample` — the per-row affinity-weighted pick of
  :meth:`repro.dataeff.synthetic.LatentFactorWorld.sample`;
* :class:`ReferenceBiasMF` — :class:`repro.dataeff.recommenders.BiasMF`
  with the 2-D ``np.add.at`` scatter in its SGD step;
* :func:`reference_bayesian_search` — :func:`repro.optimization.nas.bayesian_search`
  with a growing list of samples and the 3-D distance tensor.

Shipped modules never import this one: it exists only to be compared
against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.dataeff.recommenders import BiasMF
from repro.dataeff.synthetic import InteractionDataset, LatentFactorWorld
from repro.errors import UnitError
from repro.optimization.nas import SearchOutcome


def reference_sample(
    world: LatentFactorWorld,
    n_interactions: int = 60_000,
    window_years: float = 1.0,
    time_offset_years: float = 0.0,
    seed_offset: int = 0,
) -> InteractionDataset:
    """:meth:`LatentFactorWorld.sample` with one pick per loop iteration (not memoized)."""
    if n_interactions <= 0 or window_years <= 0:
        raise UnitError("interactions and window must be positive")
    if time_offset_years < 0:
        raise UnitError("time offset must be non-negative")
    factor_rng = np.random.default_rng(world.seed)
    U, V, V_alt, item_bias = world._factors(factor_rng)
    rng = np.random.default_rng(world.seed + 7919 * (seed_offset + 1))

    times = np.sort(rng.uniform(0.0, window_years, n_interactions))
    users = rng.integers(0, world.n_users, n_interactions)

    # Popularity-biased candidate sampling, affinity-weighted pick.
    items = np.empty(n_interactions, dtype=int)
    n_candidates = 20
    pop_weights = np.exp(item_bias)
    pop_weights = pop_weights / pop_weights.sum()
    candidates = rng.choice(
        world.n_items, size=(n_interactions, n_candidates), p=pop_weights
    )
    sharpness = 3.0  # concentrates picks on the truly-preferred items
    pick_uniforms = rng.random(n_interactions)
    angles = world.drift_per_year * (time_offset_years + times)
    cos_a = np.cos(angles)
    sin_a = np.sin(angles)
    root_factors = np.sqrt(world.n_factors)
    for i in range(n_interactions):
        cand = candidates[i]
        V_t = cos_a[i] * V[cand] + sin_a[i] * V_alt[cand]
        scores = sharpness * (U[users[i]] @ V_t.T) * root_factors
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        items[i] = cand[cdf.searchsorted(pick_uniforms[i], side="right")]

    return InteractionDataset(
        world.n_users,
        world.n_items,
        users,
        items,
        times + time_offset_years,
    )


class ReferenceBiasMF(BiasMF):
    """:class:`BiasMF` whose SGD step scatters with 2-D ``np.add.at``."""

    def _sgd_step(
        self,
        U: np.ndarray,
        V: np.ndarray,
        bi: np.ndarray,
        users: np.ndarray,
        items: np.ndarray,
        label: float,
    ) -> None:
        u_vec = U[users]
        v_vec = V[items]
        logits = np.clip(np.sum(u_vec * v_vec, axis=1) + bi[items], -30.0, 30.0)
        preds = 1.0 / (1.0 + np.exp(-logits))
        err = (label - preds)[:, None]
        grad_u = err * v_vec - self.reg * u_vec
        grad_v = err * u_vec - self.reg * v_vec
        # Scatter-add handles duplicate users/items within a batch.
        np.add.at(U, users, self.lr * grad_u)
        np.add.at(V, items, self.lr * grad_v)
        np.add.at(bi, items, self.lr * (err[:, 0] - self.reg * bi[items]))


def reference_bayesian_search(
    objective: Callable[[np.ndarray], float],
    n_dims: int,
    n_trials: int,
    n_init: int = 8,
    n_candidates: int = 256,
    lengthscale: float = 0.2,
    explore: float = 1.2,
    seed: int = 0,
) -> SearchOutcome:
    """:func:`bayesian_search` rebuilding its sample matrix and distance tensor each trial."""
    if n_trials <= n_init:
        raise UnitError("need more trials than initial samples")
    rng = np.random.default_rng(seed)
    xs = list(rng.uniform(0.0, 1.0, size=(n_init, n_dims)))
    ys = [objective(x) for x in xs]

    for _ in range(n_trials - n_init):
        X = np.vstack(xs)
        y = np.array(ys)
        candidates = rng.uniform(0.0, 1.0, size=(n_candidates, n_dims))
        d2 = np.sum((candidates[:, None, :] - X[None, :, :]) ** 2, axis=2)
        weights = np.exp(-d2 / (2.0 * lengthscale**2))
        mass = weights.sum(axis=1)
        mu = np.where(mass > 1e-12, weights @ y / np.maximum(mass, 1e-12), y.mean())
        sigma = 1.0 / np.sqrt(1.0 + mass)
        acquisition = mu - explore * sigma * y.std()
        pick = candidates[int(np.argmin(acquisition))]
        xs.append(pick)
        ys.append(objective(pick))

    values = np.array(ys)
    history = np.minimum.accumulate(values)
    best = int(np.argmin(values))
    return SearchOutcome(
        "bayesian", float(values[best]), np.vstack(xs)[best], n_trials, history
    )
