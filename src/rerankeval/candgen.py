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


def _eligible(catalog, exclusions, slate_size):
    """The catalog less exclusions, sorted; CatalogTooSmall unless it can
    fill a slate."""
    eligible = [i for i in catalog.sorted_ids if i not in exclusions]
    if len(eligible) < slate_size:
        raise CatalogTooSmall(f"{len(eligible)} eligible items < slate size {slate_size}")
    return eligible


def _sample_positives(user, relevance, count, catalog, exclusions, seed, taken=()):
    """A seeded sample, in draw order, of at most count of the user's
    held-out positives that are in the catalog, not excluded and not in
    taken; with the generator that drew it, or None when nothing is drawn."""
    if count < 1 or relevance is None:
        return [], None
    pool = sorted(i for i in relevance.relevant
                  if i in catalog and i not in exclusions and i not in taken)
    rng = np.random.default_rng(stable_seed(seed, "inject", user))
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [pool[i] for i in picks], rng


def gen_random_slate(user, catalog, exclusions, seed, slate_size=SLATE_SIZE,
                     inject_positives=0, relevance=None):
    """Uniform sample without replacement from the eligible catalog,
    deterministic per (seed, user).

    Up to inject_positives held-out positives not already in the slate then
    replace items at seeded positions, never a positive, so the slate order
    stays uninformative.
    """
    eligible = _eligible(catalog, exclusions, slate_size)
    rng = np.random.default_rng(stable_seed(seed, "random_slate", user))
    picks = rng.choice(len(eligible), size=slate_size, replace=False)
    items = [eligible[i] for i in picks]
    injected, rng = _sample_positives(user, relevance, min(inject_positives, slate_size),
                                      catalog, exclusions, seed, taken=set(items))
    if injected:
        replaceable = [p for p, item in enumerate(items) if item not in relevance.relevant]
        positions = rng.choice(len(replaceable), size=min(len(injected), len(replaceable)),
                               replace=False)
        for p, item in zip(positions, injected):
            items[replaceable[p]] = item
    return Slate(user=user, items=items, source="random")


def _encode(train):
    """Train interactions as rows: the sorted user and item ids, maps from id
    to row, and one user row, item row and rating per interaction."""
    if not train:
        raise ValueError("no training interactions")
    users = sorted({r.user for r in train})
    items = sorted({r.item for r in train})
    user_index = {u: n for n, u in enumerate(users)}
    item_index = {i: n for n, i in enumerate(items)}
    u_idx = np.array([user_index[r.user] for r in train], dtype=np.int64)
    i_idx = np.array([item_index[r.item] for r in train], dtype=np.int64)
    ratings = np.array([r.rating for r in train], dtype=np.float64)
    return users, items, user_index, item_index, u_idx, i_idx, ratings


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

    def score_items(self, user, items):
        """Prediction for each of items, as one gemv: global_mean, plus
        b_u, plus b_i, plus p_u.q_i, added in that order. An unknown user or
        item adds zero bias and zero factors. The dot product may differ in
        the last ulp from one computed per item."""
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
    users, items, user_index, item_index, u_idx, i_idx, ratings = _encode(train)
    if k < 1:
        raise ValueError("k must be >= 1")
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


# --------------------------------------------------------------------------
# Item-based kNN
# --------------------------------------------------------------------------

KNN_BLOCK_ROWS = 64  # similarity rows computed densely at a time


@dataclass
class ItemSimMatrix:
    """Each item's top_m neighbours as a CSR matrix over the train items.

    Row and column n stand for items[n] (item ids in sorted order). A row
    stores its neighbours in neighbour order, sim descending with ties by
    item id, not in column order; scoring adds them up in that order, so
    the indices must never be sorted.
    """
    items: list            # item ids, sorted
    index: dict            # item id -> row / column
    matrix: sp.csr_matrix  # items x items, top_m nonzeros per row at most


def build_item_knn(train, top_m=50, min_co_raters=3):
    """Cosine similarity over mean-centered user rating vectors.

    Pairs with fewer than min_co_raters common raters are dropped; each item
    keeps its top_m neighbors. Self-similarity is excluded.

    The items x items products run KNN_BLOCK_ROWS rows at a time, so only
    one block is ever dense. Each block is a row slice of the full product
    computed by the same sparse kernel, and the norms come from diagonal
    blocks of it, so every sum runs in the order of the full product.
    """
    users, items, _, iix, rows, cols, vals = _encode(train)
    if top_m < 1:
        raise ValueError("top_m must be >= 1")
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(len(users), len(items)))
    mask = sp.csr_matrix((np.ones_like(vals), (rows, cols)), shape=mat.shape)
    user_means = np.asarray(mat.sum(axis=1)).ravel() / np.maximum(
        np.asarray(mask.sum(axis=1)).ravel(), 1)
    centered = mat - sp.diags(user_means) @ mask
    centered_t = centered.T.tocsr()
    mask_t = mask.T.tocsr()

    n = len(items)
    blocks = [(a, min(a + KNN_BLOCK_ROWS, n)) for a in range(0, n, KNN_BLOCK_ROWS)]
    norms = np.sqrt(np.maximum(np.concatenate(
        [(centered_t[a:b] @ centered[:, a:b]).diagonal() for a, b in blocks]), 0.0))

    data, indices, counts = [], [], []
    for a, b in blocks:
        dots = (centered_t[a:b] @ centered).toarray()
        denom = np.outer(norms[a:b], norms)
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = np.where(denom > 0, dots / denom, 0.0)
        np.clip(sims, -1.0, 1.0, out=sims)
        sims[np.arange(b - a), np.arange(a, b)] = -np.inf  # exclude self
        sims[(mask_t[a:b] @ mask).toarray() < min_co_raters] = -np.inf
        # stable, so equal sims keep column order, which is item-id order
        order = np.argsort(-sims, axis=1, kind="stable")[:, :top_m]
        top = np.take_along_axis(sims, order, axis=1)
        keep = np.isfinite(top)  # a prefix of each row
        data.append(top[keep])
        indices.append(order[keep])
        counts.append(keep.sum(axis=1))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    matrix = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                           shape=(n, n))
    return ItemSimMatrix(items=items, index=iix, matrix=matrix)


class ItemKnnRecommender:
    """Scores items for a user as the similarity-weighted sum over the user's
    rated items."""

    def __init__(self, sim_matrix, train):
        self.sim_matrix = sim_matrix
        self.ratings_by_user = {}
        for r in train:
            self.ratings_by_user.setdefault(r.user, {})[r.item] = r.rating

    def score_items(self, user, items):
        """Score of each of items, as an array: one product of the similarity
        matrix with the user's dense rating vector. Each row's terms are
        added in neighbour order; unrated neighbours add a zero. Items absent
        from train score 0.0."""
        rated = self.ratings_by_user.get(user)
        if not rated:
            raise UnknownUser(user)
        index = self.sim_matrix.index
        ratings = np.zeros(len(index))
        for item, rating in rated.items():
            col = index.get(item)
            if col is not None:
                ratings[col] = rating
        scores = self.sim_matrix.matrix @ ratings
        rows = np.array([index.get(i, -1) for i in items], dtype=np.int64)
        return np.where(rows >= 0, scores[rows], 0.0)


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
    eligible = _eligible(catalog, exclusions, slate_size)
    injected, _ = _sample_positives(user, relevance, min(inject_positives, slate_size),
                                    catalog, exclusions, seed)
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
