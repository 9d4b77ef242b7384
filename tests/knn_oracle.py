"""Reference item-kNN: the per-item neighbour sort and the per-item scorer
that candgen's sparse top-m matrix replaces. Kept only to check it against.

build_item_knn_oracle returns {item id: [(neighbour id, sim), ...]}, sim
descending with ties by id; OracleKnnScorer scores one item at a time as a
Python sum over that list, and score_items takes train item codes, as
candgen's scorers do.
"""

import numpy as np
import scipy.sparse as sp

from conftest import table_rows
from rerankeval.errors import UnknownUser


def build_item_knn_oracle(train, top_m=50, min_co_raters=3):
    if top_m < 1:
        raise ValueError("top_m must be >= 1")
    train = table_rows(train)
    users = sorted({u for u, _, _, _ in train})
    items = sorted({i for _, i, _, _ in train})
    uix = {u: n for n, u in enumerate(users)}
    iix = {i: n for n, i in enumerate(items)}

    rows = np.array([uix[u] for u, _, _, _ in train])
    cols = np.array([iix[i] for _, i, _, _ in train])
    vals = np.array([r for _, _, r, _ in train], dtype=np.float64)

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
    return neighbors


class OracleKnnScorer:
    def __init__(self, neighbors, train):
        self.ratings_by_user = {}
        for user, item, rating, _ in table_rows(train):
            self.ratings_by_user.setdefault(user, {})[item] = rating
        self._neighbor_sims = {item: dict(neigh) for item, neigh in neighbors.items()}
        self._items = train.items.tolist()

    def score(self, user, item):
        rated = self.ratings_by_user.get(user)
        if not rated:
            raise UnknownUser(user)
        sims = self._neighbor_sims.get(item)
        if not sims:
            return 0.0
        return sum(s * rated[j] for j, s in sims.items() if j in rated)

    def score_items(self, user, cols):
        """Score of each of cols (train item codes, -1 for an item not in
        train, which scores as an item with no neighbours)."""
        return np.array([self.score(user, self._items[c] if c >= 0 else None)
                         for c in cols.tolist()], dtype=np.float64)


def neighbor_lists(m, items):
    """{item id: [(neighbour id, sim), ...]} read off build_item_knn's matrix
    over the train table's item ids, in stored order: the shape
    build_item_knn_oracle returns."""
    return {item: [(items[j], float(s)) for j, s in
                   zip(m.indices[m.indptr[n]:m.indptr[n + 1]].tolist(),
                       m.data[m.indptr[n]:m.indptr[n + 1]].tolist())]
            for n, item in enumerate(items)}
