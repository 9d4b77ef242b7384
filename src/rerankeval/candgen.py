"""Candidate slate generation: random retrieval, item-kNN CF, and SGD matrix
factorization, plus the slates JSONL that a run writes and an external
generator reads."""

import hashlib
import json
import logging
from dataclasses import dataclass, field

import numpy as np
# numpy loads numpy.random on its first use; loaded here, that is not mid-command
from numpy.random import default_rng

from ._kernels import sgd_epoch, sparsetools
from .errors import CatalogTooSmall, MalformedRow, RerankEvalError, UnknownUser
from .ingest import index_dtype, jsonl_objects

log = logging.getLogger(__name__)

SLATE_SIZE = 15


@dataclass
class Slate:
    user: str
    items: list  # ordered item ids, no duplicates
    source: str  # "random" | "mf" | "knn" | "external" | "training"


def stable_seed(seed, *parts):
    """Derive a reproducible 64-bit seed from a base seed and string parts."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    for p in parts:
        h.update(b"\x00")
        h.update(str(p).encode())
    return int.from_bytes(h.digest(), "big")


def _eligible(catalog, exclusions, slate_size):
    """Catalog positions, ascending, of the items not in exclusions;
    CatalogTooSmall unless they can fill a slate."""
    eligible = catalog.positions_without(exclusions)
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
    rng = default_rng(stable_seed(seed, "inject", user))
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
    rng = default_rng(stable_seed(seed, "random_slate", user))
    picks = rng.choice(len(eligible), size=slate_size, replace=False)
    items = catalog.ids[eligible[picks]].tolist()
    injected, rng = _sample_positives(user, relevance, min(inject_positives, slate_size),
                                      catalog, exclusions, seed, taken=set(items))
    if injected:
        replaceable = [p for p, item in enumerate(items) if item not in relevance.relevant]
        positions = rng.choice(len(replaceable), size=min(len(injected), len(replaceable)),
                               replace=False)
        for p, item in zip(positions, injected):
            items[replaceable[p]] = item
    return Slate(user=user, items=items, source="random")


# --------------------------------------------------------------------------
# Matrix factorization (SGD-trained biased MF)
# --------------------------------------------------------------------------

@dataclass
class MfModel:
    train: object          # ingest.Interactions; its codes are the rows
    user_factors: np.ndarray
    item_factors: np.ndarray
    user_bias: np.ndarray
    item_bias: np.ndarray
    global_mean: float
    train_rmse: list = field(default_factory=list)  # per epoch

    def score_items(self, user, cols):
        """Prediction for each train item code of cols, as one gemv:
        global_mean, plus b_u, plus b_i, plus p_u.q_i, added in that order. An
        unknown user or item (code -1) adds zero bias and zero factors. The
        dot product may differ in the last ulp from one computed per item."""
        known = cols >= 0
        rows = cols[known]
        u = self.train.user_code(user)
        pred = np.full(len(cols), self.global_mean)
        if u >= 0:
            pred += self.user_bias[u]
        pred[known] += self.item_bias[rows]
        if u >= 0:
            pred[known] += self.item_factors[rows] @ self.user_factors[u]
        return pred


def train_mf(train, k=32, epochs=30, learn_rate=0.005, reg=0.02, seed=0):
    """Biased MF trained by SGD on squared error with L2 regularization, one
    factor row per user and per item of the train table, in code order.

    Prediction is global_mean + b_u + b_i + p_u.q_i. Per-epoch train RMSE is
    recorded on the model.
    """
    if not len(train):
        raise ValueError("no training interactions")
    global_mean = float(train.rating.mean())

    # default_rng refuses a negative seed, so that one is hashed as other draws are
    rng = default_rng(seed if seed >= 0 else stable_seed(seed, "mf"))
    user_f = rng.normal(0.0, 0.1, size=(len(train.users), k))
    item_f = rng.normal(0.0, 0.1, size=(len(train.items), k))
    user_b = np.zeros(len(train.users))
    item_b = np.zeros(len(train.items))

    model = MfModel(train, user_f, item_f, user_b, item_b, global_mean)
    n = len(train)
    for epoch in range(epochs):
        order = rng.permutation(n)
        # a diverging epoch overflows; the check after it reports that
        with np.errstate(over="ignore", invalid="ignore"):
            sse = sgd_epoch(train.user, train.item, train.rating, order, user_f, item_f,
                            user_b, item_b, global_mean, learn_rate, reg)
        if not np.isfinite(sse):
            raise RerankEvalError(f"diverged at epoch {epoch + 1}; lower learn_rate")
        rmse = float(np.sqrt(sse / n))
        model.train_rmse.append(rmse)
        log.debug("mf epoch %d/%d rmse=%.4f", epoch + 1, epochs, rmse)
    return model


# --------------------------------------------------------------------------
# Item-based kNN
# --------------------------------------------------------------------------

KNN_BLOCK_ROWS = 64  # similarity rows computed densely at a time
KNN_PAIR_BYTES = 1 << 18  # rater bitset bytes gathered per co-rater count step
KNN_PICK_WINDOW = 4  # a short row's candidates counted, in multiples of top_m


@dataclass
class Csr:
    """A sparse matrix in compressed sparse row form, as scipy's kernels take
    it: row r stores data[indptr[r]:indptr[r + 1]] at the columns of the same
    slice of indices, indptr and indices of one integer type. Each operation
    runs the kernel that scipy's matching csr_matrix operation runs, with the
    same arguments, so its results are bit-identical to scipy's; the oracle
    tests in tests/test_knn.py pin that."""
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        return len(self.data)

    def row_sums(self):
        """Each row's sum, added as m.sum(axis=1) adds it: one reduceat over
        the rows that store anything, then a sum over no axes, which adds 0.0
        to each sum and so turns -0.0 into 0.0."""
        sums = np.zeros(self.shape[0], dtype=self.data.dtype)
        rows = np.flatnonzero(np.diff(self.indptr))
        sums[rows] = np.add.reduceat(self.data, self.indptr[rows])
        return sums + 0.0

    def __matmul__(self, x):
        """The product with vector x, summed row by row in storage order."""
        out = np.zeros(self.shape[0], dtype=np.result_type(self.data, x))
        sparsetools.csr_matvec(*self.shape, self.indptr, self.indices, self.data, x, out)
        return out


def _ratings_csr(train):
    """train's users x items ratings, each row's columns ascending: what
    sp.csr_matrix((rating, (user, item))) builds from a table with one row per
    (user, item), index type included."""
    shape = len(train.users), len(train.items)
    index = index_dtype(*shape, len(train))
    # a distinct key per row, in the narrowest type that holds them all
    key = train.user.astype(index_dtype(shape[0] * shape[1]))
    key *= shape[1]
    key += train.item
    order = np.argsort(key)
    del key
    indices = train.item.astype(index)[order]
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(train.user, minlength=shape[0]), out=indptr[1:])
    return Csr(train.rating[order], indices, indptr, shape)


def _entries(m):
    """(rows, columns, values) of the stored entries of CSR matrix m in
    storage order, KNN_PAIR_BYTES // 64 entries at a time, the rows in m's
    index type: no temporary made from them spans every entry."""
    rows = np.repeat(np.arange(m.shape[0], dtype=m.indptr.dtype), np.diff(m.indptr))
    step = max(1, KNN_PAIR_BYTES // 64)
    for lo in range(0, m.nnz, step):
        yield rows[lo:lo + step], m.indices[lo:lo + step], m.data[lo:lo + step]


def _by_column(indptr, indices, n_cols):
    """(column pointer, rows, positions) of the entries of a CSR matrix with
    these index arrays, of one integer type, by column: column j stores the
    entries of rows[pointer[j]:pointer[j + 1]], at positions[pointer[j]:
    pointer[j + 1]] of the matrix's indices and data, rows ascending, in the
    order in which row j of m.T.tocsr() stores them. csr_tocsc, the kernel
    behind that transpose, writes the rows as the transpose's columns and
    moves each entry's position where the transpose's value goes, so the
    index holds a row and a position per entry."""
    index = indptr.dtype
    pointer = np.empty(n_cols + 1, dtype=index)
    rows = np.empty(len(indices), dtype=index)
    positions = np.empty(len(indices), dtype=index)
    sparsetools.csr_tocsc(len(indptr) - 1, n_cols, indptr, indices,
                          np.arange(len(indices), dtype=index), pointer, rows, positions)
    return pointer, rows, positions


def _block_product(m, rows):
    """A function of lo and hi, with hi - lo <= rows, that returns rows lo:hi
    of the product m.T @ m of CSR matrix m with itself as a dense array,
    bit-identical to (m.T @ m)[lo:hi].toarray().

    Rows lo:hi of m.T, m's columns lo:hi, are cut from m when their block is
    computed: _by_column's index gives their entries' rows and positions,
    rows ascending as the transpose stores them, and m.data their values.
    Beside m, the product holds that index, a row and a position per entry,
    and no transpose. A block is one call of csr_matmat, the kernel behind
    scipy's a @ b. The kernel is private to scipy, so an oracle test pins it
    to m.T @ m. It sums each entry in the same order, with the same
    arithmetic, as m.T @ m does, but without the pass that only sizes the
    result: it writes into arrays of (hi - lo) x
    m.shape[1] entries, and csr_todense, the kernel behind .toarray(), adds
    them into a zeroed block; they are dropped before the block is used.
    The product kernel leaves out the entries that sum to exactly zero, or
    to -0.0, so each entry it keeps is distinct and nonzero, and 0.0 plus
    it is itself.
    """
    n = m.shape[1]
    wide = max(rows * n, m.nnz, m.shape[0]) > np.iinfo(np.int32).max
    index = np.int64 if wide else np.result_type(np.int32, m.indptr, m.indices)
    ptr, col = (np.asarray(x, dtype=index) for x in (m.indptr, m.indices))
    t_ptr, t_col, positions = _by_column(ptr, col, n)

    def block(lo, hi):
        at = positions[t_ptr[lo]:t_ptr[hi]]
        c_ptr = np.empty(hi - lo + 1, dtype=index)
        c_col = np.empty((hi - lo) * n, dtype=index)
        c_val = np.empty((hi - lo) * n, dtype=m.data.dtype)
        sparsetools.csr_matmat(hi - lo, n, t_ptr[lo:hi + 1] - t_ptr[lo],
                               t_col[t_ptr[lo]:t_ptr[hi]], m.data[at],
                               ptr, col, m.data, c_ptr, c_col, c_val)
        dense = np.zeros((hi - lo, n), dtype=m.data.dtype)
        sparsetools.csr_todense(hi - lo, n, c_ptr, c_col, c_val, dense.ravel())
        return dense
    return block


def _picks(sims, m):
    """Mask of each row's m highest finite sims, ties by column: the finite
    entries among the first m of np.argsort(-sims, axis=1, kind="stable")."""
    n = sims.shape[1]
    k = min(m, n)
    # each row's k-th highest sim: the picks are among the entries at or above it
    threshold = np.partition(sims, n - k, axis=1)[:, -k, None]
    pick = (sims >= threshold) & (sims > -np.inf)
    over = np.flatnonzero(np.count_nonzero(pick, axis=1) > m)
    if len(over):  # ties at the threshold: the first in column order fill the row
        sub, cut = sims[over], threshold[over]
        tied = sub == cut
        room = m - np.count_nonzero(sub > cut, axis=1, keepdims=True)
        pick[over] &= ~tied | (np.cumsum(tied, axis=1, dtype=np.int32) <= room)
    return pick


def _top(sims, m):
    """Row and column of each row's m highest finite sims, rows ascending and
    each row sim descending with ties by column: the finite entries of
    np.argsort(-sims, axis=1, kind="stable")[:, :m]."""
    n = sims.shape[1]
    k = min(m, n)
    flat = np.flatnonzero(_picks(sims, m))  # rows ascending, columns ascending in each
    key = -sims.take(flat)
    # a stable sort within each row keeps tied sims in column order
    if len(flat) == len(sims) * k:  # k picks in every row
        order = np.argsort(key.reshape(-1, k), axis=1, kind="stable")
        order += np.arange(0, len(flat), k)[:, None]
        flat = flat[order.ravel()]
    else:
        flat = flat[np.lexsort((key, flat // n))]
    return np.divmod(flat, n)


def _rater_bits(ratings):
    """Column i packs the raters of item i, the rows that store an entry in
    column i of CSR users x items matrix ratings, into 64-bit words: bit
    u % 64 of row u // 64 is set when user u rated item i. A table row holds
    one word of every item, so _co_raters adds its counts a whole row at a
    time."""
    bits = np.zeros((-(-ratings.shape[0] // 64), ratings.shape[1]), dtype=np.uint64)
    for users, items, _ in _entries(ratings):
        np.bitwise_or.at(bits, (users >> 6, items),
                         np.uint64(1) << (users & 63).astype(np.uint64))
    return bits


def _column_norms(m):
    """The Euclidean norm of each column of CSR matrix m. np.add.at adds a
    column's squares in m's storage order, rows ascending, as m.T @ m adds
    its diagonal."""
    squares = np.zeros(m.shape[1])
    for _, columns, values in _entries(m):
        np.add.at(squares, columns, values ** 2)
    return np.sqrt(np.maximum(squares, 0.0))


def _co_raters(bits, i, j):
    """Number of distinct users who rated both item i and item j, for the
    item codes of arrays i and j broadcast together: rows[:, None] against
    np.arange(n) counts each of rows against every item. Each step ANDs at
    most KNN_PAIR_BYTES of _rater_bits's words, stepping along the last
    axis, and adds up the bit counts a row of words at a time."""
    shape = np.broadcast_shapes(i.shape, j.shape)
    counts = np.zeros(shape, dtype=np.int64)
    if not counts.size:
        return counts
    # both to the same number of axes, behind the words axis of bits
    i, j = (x.reshape((1,) * (len(shape) - x.ndim) + x.shape) for x in (i, j))
    step = max(1, KNN_PAIR_BYTES // (bits[:, 0].nbytes * (counts.size // shape[-1])))
    total = np.min_scalar_type(64 * len(bits))  # holds any count
    for s in range(0, shape[-1], step):
        # an axis of length 1 is broadcast whole into every step
        both = np.bitwise_and(*(np.take(bits, x if x.shape[-1] == 1 else x[..., s:s + step],
                                        axis=1) for x in (i, j)))
        counts[..., s:s + step] = np.bitwise_count(both).sum(axis=0, dtype=total)
    return counts


def _neighbours(sims, first, bits, top_m, min_co_raters):
    """Row and column, in _top's order, of each row's top_m highest finite
    sims among the pairs that at least min_co_raters users rated both: row r
    of sims holds the sims of item first + r, and bits is _rater_bits's table.

    Co-raters are counted for each row's top_m picks. A short row, one with
    a pick that fails, loses its failing pairs and is picked again:
    - when its picks pass at one in KNN_PICK_WINDOW or more, it is counted
      over a window, its best KNN_PICK_WINDOW * top_m candidates (_picks).
      Every candidate outside the window ranks below every one in it, so
      when top_m in the window pass, the first top_m that pass are the
      row's picks;
    - a row whose picks pass more rarely, or that has fewer than top_m
      passing in its window and more candidates beyond it, is counted
      against every item."""
    row, col = _top(sims, top_m)
    low = np.bincount(row[_co_raters(bits, first + row, col) < min_co_raters],
                      minlength=len(sims))
    short = np.flatnonzero(low)
    if not len(short):
        return row, col
    again = sims[short]
    full = np.ones(len(short), dtype=bool)  # to count against every item
    passed = np.bincount(row, minlength=len(sims))[short] - low[short]
    win = np.flatnonzero(passed * KNN_PICK_WINDOW >= top_m)
    if len(win):
        sub = again[win]
        window = _picks(sub, KNN_PICK_WINDOW * top_m)
        beyond = np.count_nonzero(sub > -np.inf, axis=1) > np.count_nonzero(window, axis=1)
        w_row, w_col = np.nonzero(window)
        fails = _co_raters(bits, first + short[win[w_row]], w_col) < min_co_raters
        sub[w_row[fails], w_col[fails]] = -np.inf
        again[win] = sub
        full[win] = beyond & (np.count_nonzero(window & (sub > -np.inf), axis=1) < top_m)
    redo = np.flatnonzero(full)
    if len(redo):
        fails = np.zeros(again.shape, dtype=bool)
        fails[redo] = _co_raters(bits, first + short[redo, None],
                                 np.arange(sims.shape[1])) < min_co_raters
        again[fails] = -np.inf
    redo_row, redo_col = _top(again, top_m)
    keep = low[row] == 0
    row = np.concatenate([row[keep], short[redo_row]])
    col = np.concatenate([col[keep], redo_col])
    order = np.argsort(row, kind="stable")
    return row[order], col[order]


def build_item_knn(train, top_m=50, min_co_raters=3):
    """Cosine similarity over mean-centered user rating vectors, as a Csr
    items x items matrix whose row and column n stand for train item code n.
    train holds one row per (user, item), as split_leave_n_out's tables do.

    Pairs with fewer than min_co_raters common raters are dropped; each item
    keeps its top_m neighbors. Self-similarity is excluded. A row stores its
    neighbours in neighbour order, sim descending with ties by item id, not
    in column order; scoring adds them up in that order, so the indices must
    never be sorted.

    The build holds one ratings matrix, users x items, and its user sums
    hold what scipy.sparse would give, bit for bit (see Csr): per stored
    rating, its centered value and item code (12 B) and a row and a
    position in the product's by-item index (8 B; see _block_product).
    The similarity product runs KNN_BLOCK_ROWS rows at a time, so only one
    block is ever dense. Each block is one pass of scipy's sparse product kernel over its
    rows, cut from the matrix by that index, added into the dense block,
    bit-identical to the same rows of the full product. The norms add the
    squared centered ratings in storage order, the order in which the full
    product sums its diagonal. Each step over every stored rating runs on
    bounded chunks of them (see _entries).

    A row picks its neighbours in four steps (_neighbours):
    - its top_m come from a partition threshold, not a full sort, and only
      the picks are sorted, each row's on their own (_top);
    - co-raters are counted only for those picks, from a table of each
      item's raters packed one bit per user into 64-bit words
      (ceil(users / 64) words per item, 192 B on the knn-dense benchmark
      corpus), by AND and popcount; with one row per pair that count is
      exact;
    - a short row, one with a pick below min_co_raters, is counted over a
      window of its best KNN_PICK_WINDOW * top_m candidates, and keeps the
      first top_m that pass;
    - a short row whose picks pass too rarely to fill top_m from its window,
      or that has fewer than top_m passing in it and more candidates beyond
      it, is counted against every item from the same table as the
      fallback. A short row loses the pairs that fail and is picked again.
    """
    if not len(train):
        raise ValueError("no training interactions")
    centered = _ratings_csr(train)
    user_means = centered.row_sums() / np.maximum(np.diff(centered.indptr), 1)
    centered.data -= np.repeat(user_means, np.diff(centered.indptr))
    bits = _rater_bits(centered)

    n = len(train.items)
    norms = _column_norms(centered)

    product = _block_product(centered, KNN_BLOCK_ROWS)
    # a row keeps at most top_m of the other items
    index = index_dtype(n, n * min(top_m, n))
    data, indices, counts = [], [], []
    for a in range(0, n, KNN_BLOCK_ROWS):
        b = min(a + KNN_BLOCK_ROWS, n)
        sims = product(a, b)
        denom = np.outer(norms[a:b], norms)
        np.divide(sims, denom, out=sims, where=denom > 0)
        sims[denom <= 0] = 0.0
        del denom  # each dense block is freed once used
        np.clip(sims, -1.0, 1.0, out=sims)
        sims[np.arange(b - a), np.arange(a, b)] = -np.inf  # exclude self
        row, col = _neighbours(sims, a, bits, top_m, min_co_raters)
        data.append(sims[row, col])
        indices.append(col.astype(index))
        counts.append(np.bincount(row, minlength=b - a))
        del sims
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return Csr(np.concatenate(data), np.concatenate(indices), indptr, (n, n))


class ItemKnnRecommender:
    """Scores items for a user as the similarity-weighted sum over the user's
    rated items; sim_matrix is build_item_knn's matrix of the same train."""

    def __init__(self, sim_matrix, train):
        self.sim_matrix = sim_matrix
        self.train = train

    def score_items(self, user, cols):
        """Score of each train item code of cols, as an array: one product of
        the similarity matrix with the user's dense rating vector (train
        holds one row per (user, item)). Each row's terms are added in
        neighbour order; unrated neighbours add a zero. Code -1 scores 0.0."""
        rows = self.train.rows_of(user)
        if not len(rows):
            raise UnknownUser(user)
        ratings = np.zeros(len(self.train.items))
        ratings[self.train.item[rows]] = self.train.rating[rows]
        scores = np.zeros(len(cols))
        scores[cols >= 0] = (self.sim_matrix @ ratings)[cols[cols >= 0]]
        return scores


# --------------------------------------------------------------------------
# Model slates with positive injection
# --------------------------------------------------------------------------

def _best(scores, n):
    """Indices, ascending, of the n highest scores with ties by index: the
    first n of np.argsort(-scores, kind="stable") as a set. Every value is
    ranked, non-finite ones too; NaN ranks last, as in the sort."""
    if n < 1:
        return np.array([], dtype=np.intp)
    key = -scores
    # the n-th best: the picks are the keys before it and the first ties
    threshold = np.partition(key, n - 1)[n - 1]
    if threshold != threshold:  # fewer than n numbers: each of them, then NaNs
        better, tied = key == key, key != key
    else:
        better, tied = key < threshold, key == threshold
    pick = better | tied
    if np.count_nonzero(pick) > n:  # more ties than room: the first fill it
        pick &= ~tied | (np.cumsum(tied) <= n - np.count_nonzero(better))
    return np.flatnonzero(pick)


def gen_model_slate(user, scorer, catalog, train_codes, exclusions, inject_positives,
                    relevance, seed, slate_size=SLATE_SIZE, source="mf"):
    """Top-scored eligible items, with held-out positives injected.

    The injected positives are a seeded sample of the user's relevance set;
    they are merged at their model-scored positions, so the final order is
    pure score order over the selected set. Ties break by item id.
    train_codes[p] is catalog position p's code for `scorer.score_items(user, codes)`.
    """
    eligible = _eligible(catalog, exclusions, slate_size)
    injected, _ = _sample_positives(user, relevance, min(inject_positives, slate_size),
                                    catalog, exclusions, seed)
    scores = scorer.score_items(user, train_codes[eligible])
    # indices into eligible, ascending as the catalog ids are
    picked = np.searchsorted(eligible, [catalog._positions[i] for i in injected])
    others = np.delete(np.arange(len(eligible)), picked)
    picked = np.sort(np.concatenate(
        (picked, others[_best(scores[others], slate_size - len(injected))])))
    # score order; a stable argsort over ascending indices breaks ties by id
    picked = picked[np.argsort(-scores[picked], kind="stable")]
    return Slate(user=user, items=catalog.ids[eligible[picked]].tolist(), source=source)


# --------------------------------------------------------------------------
# Slates JSONL
# --------------------------------------------------------------------------

def export_slates(fh, slates):
    """Write slates to the binary file fh as JSONL {user, items, source}."""
    for s in slates:
        fh.write(json.dumps({"user": s.user, "items": list(s.items),
                             "source": s.source}).encode() + b"\n")


def import_slates(path):
    """Read slates from JSONL as (line number, slate) pairs; MalformedRow for
    a line that is no JSON object with a user and a list of distinct items."""
    slates = []
    for line_no, obj in jsonl_objects(path, ("user", "items")):
        items = obj["items"]
        if not isinstance(items, list) or len(set(map(str, items))) != len(items):
            raise MalformedRow(line_no, "items is not a list of distinct ids")
        slates.append((line_no, Slate(user=str(obj["user"]), items=[str(i) for i in items],
                                      source=str(obj.get("source", "external")))))
    return slates
