"""Small, real recommender implementations for data-efficiency studies.

Three classic collaborative-filtering algorithms with a common interface,
spanning the complexity range SVP-CF evaluates:

* :class:`ItemPop` — popularity ranking (the trivial baseline);
* :class:`ItemKNN` — item-item cosine neighborhood model;
* :class:`BiasMF` — logistic matrix factorization trained by SGD with
  negative sampling.

Evaluation is the standard sampled leave-one-out protocol: for each test
user, rank the held-out item against ``n_negatives`` sampled unseen items
and report HR@K and NDCG@K.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataeff.synthetic import InteractionDataset
from repro.errors import UnitError


class Recommender:
    """Interface: fit on interactions, score (user, items) pairs."""

    name = "base"

    def fit(self, data: InteractionDataset) -> "Recommender":
        raise NotImplementedError

    def score(self, user: int, items: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass
class ItemPop(Recommender):
    """Rank items by global interaction count."""

    name: str = "ItemPop"
    _pop: np.ndarray | None = field(default=None, repr=False)

    def fit(self, data: InteractionDataset) -> "ItemPop":
        self._pop = np.bincount(data.items, minlength=data.n_items).astype(float)
        return self

    def score(self, user: int, items: np.ndarray) -> np.ndarray:
        if self._pop is None:
            raise UnitError("fit() before score()")
        return self._pop[np.asarray(items, dtype=int)]


@dataclass
class ItemKNN(Recommender):
    """Item-item cosine similarity over the binary interaction matrix."""

    name: str = "ItemKNN"
    shrinkage: float = 10.0
    _sim: np.ndarray | None = field(default=None, repr=False)
    _user_items: list[np.ndarray] | None = field(default=None, repr=False)

    def fit(self, data: InteractionDataset) -> "ItemKNN":
        matrix = np.zeros((data.n_users, data.n_items))
        matrix[data.users, data.items] = 1.0
        co = matrix.T @ matrix
        norms = np.sqrt(np.diag(co))
        denom = np.outer(norms, norms) + self.shrinkage
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = np.where(denom > 0, co / denom, 0.0)
        np.fill_diagonal(sim, 0.0)
        self._sim = sim
        self._user_items = [
            np.unique(data.items[data.users == u]) for u in range(data.n_users)
        ]
        return self

    def score(self, user: int, items: np.ndarray) -> np.ndarray:
        if self._sim is None or self._user_items is None:
            raise UnitError("fit() before score()")
        history = self._user_items[user]
        if len(history) == 0:
            return np.zeros(len(items))
        return self._sim[np.ix_(np.asarray(items, dtype=int), history)].sum(axis=1)


def _scatter_add_rows(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(matrix, rows, values)`` on a C-contiguous 2-D ``matrix``, bit-exactly.

    numpy's fast ``add.at`` path takes a 1-D operand and a 1-D index, so the
    rows are scattered into a flat view of ``matrix`` at
    ``rows[:, None] * width + arange(width)``.  Elements are still visited in
    batch order, so each receives the same adds in the same sequence as the
    2-D call.  Assigning ``.shape`` raises when ``matrix`` has no flat view
    (Fortran order, column slices); ``reshape(-1)`` would silently copy it
    and drop every update.
    """
    flat = matrix.view()
    flat.shape = (-1,)
    width = matrix.shape[1]
    index = rows[:, None] * width + np.arange(width)
    np.add.at(flat, index.ravel(), values.ravel())


@dataclass
class BiasMF(Recommender):
    """Logistic matrix factorization with SGD and negative sampling."""

    name: str = "BiasMF"
    n_factors: int = 16
    n_epochs: int = 10
    lr: float = 0.05
    reg: float = 0.002
    n_negatives: int = 2
    seed: int = 0
    _U: np.ndarray | None = field(default=None, repr=False)
    _V: np.ndarray | None = field(default=None, repr=False)
    _bi: np.ndarray | None = field(default=None, repr=False)

    def fit(self, data: InteractionDataset) -> "BiasMF":
        rng = np.random.default_rng(self.seed)
        scale = 0.1 / np.sqrt(self.n_factors)
        U = rng.normal(0.0, scale, (data.n_users, self.n_factors))
        V = rng.normal(0.0, scale, (data.n_items, self.n_factors))
        bi = np.zeros(data.n_items)

        n = len(data)
        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            # Mini-batched vectorized SGD: positives + sampled negatives.
            batch = 512
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                users = data.users[idx]
                pos = data.items[idx]
                self._sgd_step(U, V, bi, users, pos, 1.0)
                for _ in range(self.n_negatives):
                    neg = rng.integers(0, data.n_items, len(idx))
                    self._sgd_step(U, V, bi, users, neg, 0.0)
        self._U, self._V, self._bi = U, V, bi
        return self

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
        # Clip logits: keeps the sigmoid finite even if parameters have
        # been perturbed to extreme values (see reliability.sdc_injection).
        logits = np.clip(np.sum(u_vec * v_vec, axis=1) + bi[items], -30.0, 30.0)
        preds = 1.0 / (1.0 + np.exp(-logits))
        err = (label - preds)[:, None]
        grad_u = err * v_vec - self.reg * u_vec
        grad_v = err * u_vec - self.reg * v_vec
        # Scatter-add handles duplicate users/items within a batch.
        _scatter_add_rows(U, users, self.lr * grad_u)
        _scatter_add_rows(V, items, self.lr * grad_v)
        np.add.at(bi, items, self.lr * (err[:, 0] - self.reg * bi[items]))

    def score(self, user: int, items: np.ndarray) -> np.ndarray:
        if self._U is None or self._V is None or self._bi is None:
            raise UnitError("fit() before score()")
        items = np.asarray(items, dtype=int)
        return self._U[user] @ self._V[items].T + self._bi[items]


@dataclass(frozen=True, slots=True)
class EvalResult:
    """Sampled leave-one-out ranking quality of one recommender."""

    algorithm: str
    hr_at_k: float
    ndcg_at_k: float
    k: int
    n_users_evaluated: int


def evaluate(
    model: Recommender,
    train: InteractionDataset,
    test: dict[int, int],
    k: int = 10,
    n_negatives: int = 99,
    seed: int = 0,
) -> EvalResult:
    """HR@K and NDCG@K over sampled negatives (standard protocol)."""
    if not test:
        raise UnitError("empty test set")
    rng = np.random.default_rng(seed)
    hits = 0.0
    ndcg = 0.0
    for user, held_out in test.items():
        negatives = rng.integers(0, train.n_items, n_negatives)
        candidates = np.concatenate(([held_out], negatives))
        scores = model.score(user, candidates)
        rank = int(np.sum(scores > scores[0]))  # items strictly ahead
        if rank < k:
            hits += 1.0
            ndcg += 1.0 / np.log2(rank + 2)
    n = len(test)
    return EvalResult(model.name, hits / n, ndcg / n, k, n)


def default_algorithms(seed: int = 0) -> list[Recommender]:
    """The three-algorithm panel used in the sampling study."""
    return [ItemPop(), ItemKNN(), BiasMF(seed=seed)]
