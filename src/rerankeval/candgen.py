"""Candidate slate generation: random retrieval, item-kNN CF, and SGD matrix
factorization, plus JSONL import/export for externally produced slates."""

import hashlib
import heapq
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ._kernels import sgd_epoch
from .errors import CatalogTooSmall, NonFiniteLoss, UnknownUser

log = logging.getLogger(__name__)

SLATE_SIZE = 15


@dataclass
class Slate:
    user: str
    items: list  # ordered item ids, no duplicates
    source: str  # "random" | "item_knn" | "mf" | "external"


def stable_seed(seed, *parts):
    """Derive a reproducible 64-bit seed from a base seed and string parts."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    for p in parts:
        h.update(b"\x00")
        h.update(str(p).encode())
    return int.from_bytes(h.digest(), "big")


def gen_random_slate(user, catalog, exclusions, seed, slate_size=SLATE_SIZE):
    """Uniform sample without replacement from the eligible catalog,
    deterministic per (seed, user)."""
    eligible = sorted(i for i in catalog.items if i not in exclusions)
    if len(eligible) < slate_size:
        raise CatalogTooSmall(f"{len(eligible)} eligible items < slate size {slate_size}")
    rng = np.random.default_rng(stable_seed(seed, "random_slate", user))
    picks = rng.choice(len(eligible), size=slate_size, replace=False)
    return Slate(user=user, items=[eligible[i] for i in picks], source="random")


# --------------------------------------------------------------------------
# Matrix factorization (SGD-trained biased MF)
# --------------------------------------------------------------------------

@dataclass
class MfModel:
    user_index: dict       # user id -> row
    item_index: dict       # item id -> row
    user_factors: np.ndarray
    item_factors: np.ndarray
    user_bias: np.ndarray
    item_bias: np.ndarray
    global_mean: float
    train_rmse: list = field(default_factory=list)  # per epoch

    def score(self, user, item):
        return score_mf(self, user, item)

    def score_items(self, user, items):
        """score_mf for each of items, as one gemv. The terms are added in
        score_mf's order; the dot product may differ from it in the last
        ulp."""
        rows = np.array([self.item_index.get(i, -1) for i in items], dtype=np.int64)
        known = rows >= 0
        rows = rows[known]
        u = self.user_index.get(user, -1)
        pred = np.full(len(items), self.global_mean)
        if u >= 0:
            pred += self.user_bias[u]
        pred[known] += self.item_bias[rows]
        if u >= 0:
            pred[known] += self.item_factors[rows] @ self.user_factors[u]
        return pred


def train_mf(train, k=32, epochs=30, learn_rate=0.005, reg=0.02, seed=0):
    """Biased MF trained by SGD on squared error with L2 regularization.

    Prediction is global_mean + b_u + b_i + p_u.q_i. Per-epoch train RMSE is
    recorded on the model.
    """
    if not train:
        raise ValueError("no training interactions")
    if k < 1:
        raise ValueError("k must be >= 1")

    users = sorted({r.user for r in train})
    items = sorted({r.item for r in train})
    user_index = {u: n for n, u in enumerate(users)}
    item_index = {i: n for n, i in enumerate(items)}

    u_idx = np.array([user_index[r.user] for r in train], dtype=np.int64)
    i_idx = np.array([item_index[r.item] for r in train], dtype=np.int64)
    ratings = np.array([r.rating for r in train], dtype=np.float64)
    global_mean = float(ratings.mean())

    rng = np.random.default_rng(seed)
    user_f = rng.normal(0.0, 0.1, size=(len(users), k))
    item_f = rng.normal(0.0, 0.1, size=(len(items), k))
    user_b = np.zeros(len(users))
    item_b = np.zeros(len(items))

    model = MfModel(user_index, item_index, user_f, item_f, user_b, item_b, global_mean)
    n = len(train)
    for epoch in range(epochs):
        order = rng.permutation(n)
        sse = sgd_epoch(u_idx, i_idx, ratings, order, user_f, item_f,
                        user_b, item_b, global_mean, learn_rate, reg)
        if not np.isfinite(sse):
            raise NonFiniteLoss(f"diverged at epoch {epoch + 1}; lower learn_rate")
        rmse = float(np.sqrt(sse / n))
        model.train_rmse.append(rmse)
        log.debug("mf epoch %d/%d rmse=%.4f", epoch + 1, epochs, rmse)
    return model


def score_mf(model, user, item):
    """MF prediction with graceful fallback: unknown users/items contribute
    zero bias and zero factors."""
    pred = model.global_mean
    u = model.user_index.get(user, -1)
    i = model.item_index.get(item, -1)
    if u >= 0:
        pred += model.user_bias[u]
    if i >= 0:
        pred += model.item_bias[i]
    if u >= 0 and i >= 0:
        pred += float(model.user_factors[u] @ model.item_factors[i])
    return float(pred)


# --------------------------------------------------------------------------
# Item-based kNN
# --------------------------------------------------------------------------

@dataclass
class ItemSimMatrix:
    neighbors: dict  # item id -> list of (item id, cosine sim), sim descending

    def sim(self, a, b):
        for other, s in self.neighbors.get(a, ()):
            if other == b:
                return s
        return 0.0


def build_item_knn(train, top_m=50, min_co_raters=3):
    """Cosine similarity over mean-centered user rating vectors.

    Pairs with fewer than min_co_raters common raters are dropped; each item
    keeps its top_m neighbors. Self-similarity is excluded.
    """
    if top_m < 1:
        raise ValueError("top_m must be >= 1")
    users = sorted({r.user for r in train})
    items = sorted({r.item for r in train})
    uix = {u: n for n, u in enumerate(users)}
    iix = {i: n for n, i in enumerate(items)}

    rows = np.array([uix[r.user] for r in train])
    cols = np.array([iix[r.item] for r in train])
    vals = np.array([r.rating for r in train], dtype=np.float64)

    mat = sp.csr_matrix((vals, (rows, cols)), shape=(len(users), len(items)))
    mask = sp.csr_matrix((np.ones_like(vals), (rows, cols)), shape=mat.shape)
    user_means = np.asarray(mat.sum(axis=1)).ravel() / np.maximum(
        np.asarray(mask.sum(axis=1)).ravel(), 1)
    centered = mat - sp.diags(user_means) @ mask

    co_counts = (mask.T @ mask).toarray()
    dots = (centered.T @ centered).toarray()
    norms = np.sqrt(np.maximum(dots.diagonal(), 0.0))

    neighbors = {}
    denom = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0, dots / denom, 0.0)
    np.clip(sims, -1.0, 1.0, out=sims)
    for i, item in enumerate(items):
        row = sims[i].copy()
        row[i] = -np.inf  # exclude self
        row[co_counts[i] < min_co_raters] = -np.inf
        cand = [(items[j], float(row[j])) for j in np.flatnonzero(np.isfinite(row))]
        cand.sort(key=lambda t: (-t[1], t[0]))
        neighbors[item] = cand[:top_m]
    return ItemSimMatrix(neighbors=neighbors)


class ItemKnnRecommender:
    """Scores items for a user as the similarity-weighted sum over the user's
    rated items."""

    def __init__(self, sim_matrix, train):
        self.sim_matrix = sim_matrix
        self.ratings_by_user = {}
        for r in train:
            self.ratings_by_user.setdefault(r.user, {})[r.item] = r.rating
        # reverse index: rated item j -> [(candidate i, sim)] is not needed;
        # look up each candidate's neighbor list instead
        self._neighbor_sims = {
            item: dict(neigh) for item, neigh in sim_matrix.neighbors.items()
        }

    def score(self, user, item):
        rated = self.ratings_by_user.get(user)
        if not rated:
            raise UnknownUser(user)
        sims = self._neighbor_sims.get(item)
        if not sims:
            return 0.0
        return sum(s * rated[j] for j, s in sims.items() if j in rated)

    def score_items(self, user, items):
        """score for each of items, as an array."""
        return np.array([self.score(user, i) for i in items], dtype=np.float64)


# --------------------------------------------------------------------------
# Model slates with positive injection
# --------------------------------------------------------------------------

def gen_model_slate(user, scorer, catalog, exclusions, inject_positives,
                    relevance, seed, slate_size=SLATE_SIZE, source="mf"):
    """Top-scored eligible items, with held-out positives injected.

    The injected positives are a seeded sample of the user's relevance set;
    they are merged at their model-scored positions, so the final order is
    pure score order over the selected set. Ties break by item id.
    `scorer.score_items(user, items)` gives the scores, aligned with items.
    """
    eligible = sorted(i for i in catalog.items if i not in exclusions)
    if len(eligible) < slate_size:
        raise CatalogTooSmall(f"{len(eligible)} eligible items < slate size {slate_size}")

    injected = []
    if inject_positives > 0 and relevance is not None:
        pool = sorted(i for i in relevance.relevant if i in catalog and i not in exclusions)
        count = min(inject_positives, len(pool), slate_size)
        rng = np.random.default_rng(stable_seed(seed, "inject", user))
        picks = rng.choice(len(pool), size=count, replace=False)
        injected = [pool[i] for i in picks]

    scores = dict(zip(eligible, scorer.score_items(user, eligible).tolist()))
    injected_set = set(injected)

    def by_score(i):
        return -scores[i], i

    selected = injected + heapq.nsmallest(
        slate_size - len(injected),
        (i for i in eligible if i not in injected_set), key=by_score)
    selected.sort(key=by_score)
    return Slate(user=user, items=selected, source=source)


# --------------------------------------------------------------------------
# External slates
# --------------------------------------------------------------------------

def export_slates(slates, path):
    """Write slates as JSONL {user, items, source}."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for s in slates:
            fh.write(json.dumps({"user": s.user, "items": list(s.items),
                                 "source": s.source}) + "\n")


def import_slates(path):
    """Read slates from JSONL; duplicate items within a slate are rejected."""
    path = Path(path)
    slates = []
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            items = [str(i) for i in obj["items"]]
            if len(set(items)) != len(items):
                raise ValueError(f"line {line_no}: duplicate items in slate")
            slates.append(Slate(user=str(obj["user"]), items=items,
                                source=str(obj.get("source", "external"))))
    return slates
