"""Hot numeric kernels.

The SGD epoch dominates matrix-factorization training time. `sgd_epoch` runs
the sequential SGD pass in dependency waves (the stratification idea of DSGD,
Gemulla et al., KDD 2011): a step touches only the rows of its user and its
item, so steps whose rows are disjoint from every not-yet-run earlier step can
run together as one numpy update. The epoch works on one joint table, a row
per user and then a row per item, with the bias in column 0 and the factors
after it; a wave is one gather of its rows, one update of them all, and one
scatter. Every row gets the same updates in the same order with the same
arithmetic, so the results are bit-identical to the scalar loop,
`sgd_epoch_py` in tests/mf_oracle.py, which the tests compare against. The
waves' row layout is made once per epoch, SGD_CHUNK_STEPS steps at a time,
and no array over every step outlives its use.

The item-kNN build and scorer run on scipy's compiled sparse kernels,
`sparsetools`, loaded from their file alone: importing scipy.sparse would
load them too, but it also costs every command about 0.2 s and 13 MB of
peak RSS in modules that nothing here uses.
"""

import importlib.machinery
import importlib.util
from array import array
from pathlib import Path

import numpy as np


def _load_sparsetools():
    """scipy/sparse/_sparsetools under the name rerankeval._sparsetools.
    find_spec finds scipy's directory without importing scipy. ImportError,
    naming the file, when it is not there."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed; the kNN build needs its sparse kernels")
    paths = [Path(place, "sparse", "_sparsetools" + suffix)
             for place in scipy.submodule_search_locations
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's sparse kernels are missing: no {paths[0]}")
    name = "rerankeval._sparsetools"
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module


sparsetools = _load_sparsetools()


def wave_levels(users, items, n_users, n_items):
    """Level of each step of a sequence of (user row, item row) updates,
    given as two integer arrays.

    Step t gets 1 + the highest level of an earlier step on its user or its
    item, so the steps of one level touch pairwise disjoint rows and each
    step runs after every earlier step it shares a row with.
    """
    last_u = [0] * n_users
    last_i = [0] * n_items
    levels = array("q")
    for u, i in zip(memoryview(users), memoryview(items)):
        lu = last_u[u]
        li = last_i[i]
        level = (lu if lu > li else li) + 1
        last_u[u] = last_i[i] = level
        levels.append(level)
    return np.frombuffer(levels, dtype=np.int64)


SGD_CHUNK_STEPS = 4096  # steps laid out at a time


def sgd_epoch(u_idx, i_idx, ratings, order, user_f, item_f,
              user_b, item_b, global_mean, lr, reg):
    """One SGD pass over the given interaction order, run level by level.
    Returns the sum of squared pre-update residuals.

    The rows of every wave are laid out once per epoch, SGD_CHUNK_STEPS steps
    at a time. Through the waves the epoch holds, per step, its place in the
    wave order, its two table rows, and its rating, which its wave overwrites
    with the squared error.
    """
    n = order.shape[0]
    if n == 0:
        return 0.0
    n_users = user_f.shape[0]
    levels = wave_levels(u_idx[order], i_idx[order], n_users, item_f.shape[0])
    # steps grouped by level; within a level, in permutation order
    steps = np.argsort(levels, kind="stable")
    # bounds[l] steps have a level <= l, so level l is the wave of steps
    # [bounds[l - 1], bounds[l]); levels start at 1
    bounds = np.cumsum(np.bincount(levels))
    del levels
    # the rows of the wave [lo, hi) of steps: its users at lo + s, then its
    # items at hi + s, for each step s, so the wave owns [2 lo, 2 hi)
    rows = np.empty(2 * n, dtype=np.intp)
    wave_ratings = np.empty(n)
    for lo in range(0, n, SGD_CHUNK_STEPS):
        hi = min(lo + SGD_CHUNK_STEPS, n)
        s = np.arange(lo, hi)
        level = bounds.searchsorted(s, side="right")  # of the wave holding s
        taken = order[steps[lo:hi]]
        rows[bounds[level - 1] + s] = u_idx[taken]
        rows[bounds[level] + s] = i_idx[taken].astype(np.intp) + n_users  # never wraps
        wave_ratings[lo:hi] = ratings[taken]
    # one table row per user, then per item: the bias, then the factors
    table = np.concatenate((np.column_stack((user_b, user_f)),
                            np.column_stack((item_b, item_f))))
    k = user_f.shape[1]
    bounds = bounds.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        wave = rows[2 * lo:2 * hi]
        x = table.take(wave, axis=0).reshape(2, hi - lo, k + 1)
        # (global_mean + b_u) + b_i, then one product per factor in order: a
        # row-wise running sum is the scalar loop's summation order
        terms = x[0] * x[1]
        terms[:, 0] = global_mean + x[0, :, 0] + x[1, :, 0]
        err = wave_ratings[lo:hi] - np.add.accumulate(terms, axis=1)[:, k]
        np.multiply(err, err, out=wave_ratings[lo:hi])
        # x + lr * (g - reg * x) in place (IEEE + and * commute), where g is
        # err for the bias and err times the partner row's factors
        g = x[::-1] * err[:, None]
        g[:, :, 0] = err
        g -= reg * x
        g *= lr
        g += x
        table[wave] = g.reshape(-1, k + 1)
    del rows, wave  # the last wave is a view of rows
    user_b[:], item_b[:] = table[:n_users, 0], table[n_users:, 0]
    user_f[:], item_f[:] = table[:n_users, 1:], table[n_users:, 1:]
    # back in permutation order, a running sum is the scalar loop's `sse +=`
    sq_err = np.empty(n)
    sq_err[steps] = wave_ratings
    del steps, wave_ratings
    return np.add.accumulate(sq_err)[-1]
