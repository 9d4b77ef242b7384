"""Hot numeric kernels.

The SGD epoch dominates matrix-factorization training time. `sgd_epoch` runs
the sequential SGD pass in dependency waves (the stratification idea of DSGD,
Gemulla et al., KDD 2011): a step touches only the rows of its user and its
item, so steps whose rows are disjoint from every not-yet-run earlier step can
run together as one numpy update. Every row gets the same updates in the same
order with the same arithmetic, so the results are bit-identical to the
scalar loop, `sgd_epoch_py` in tests/mf_oracle.py, which the tests compare
against.
"""

import numpy as np


def wave_levels(users, items, n_users, n_items):
    """Level of each step of a sequence of (user row, item row) updates.

    Step t gets 1 + the highest level of an earlier step on its user or its
    item, so the steps of one level touch pairwise disjoint rows and each
    step runs after every earlier step it shares a row with.
    """
    last_u = [0] * n_users
    last_i = [0] * n_items
    levels = [0] * len(users)
    for t, (u, i) in enumerate(zip(users, items)):
        lu = last_u[u]
        li = last_i[i]
        level = (lu if lu > li else li) + 1
        last_u[u] = last_i[i] = levels[t] = level
    return np.array(levels, dtype=np.int64)


def sgd_epoch(u_idx, i_idx, ratings, order, user_f, item_f,
              user_b, item_b, global_mean, lr, reg):
    """One SGD pass over the given interaction order, run level by level.
    Returns the sum of squared pre-update residuals."""
    if order.shape[0] == 0:
        return 0.0
    users = u_idx[order]
    items = i_idx[order]
    levels = wave_levels(users.tolist(), items.tolist(),
                         user_f.shape[0], item_f.shape[0])
    # steps grouped by level; within a level, in permutation order
    steps = np.argsort(levels, kind="stable")
    bounds = np.cumsum(np.bincount(levels)).tolist()
    users = users[steps]
    items = items[steps]
    ratings = ratings[order[steps]]
    k = user_f.shape[1]
    sq_err = np.empty(order.shape[0])  # in level order until the end
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        u = users[lo:hi]
        i = items[lo:hi]
        pu = user_f[u]
        qi = item_f[i]
        bu = user_b[u]
        bi = item_b[i]
        # global_mean + b_u + b_i, then one product per factor in order: a
        # row-wise running sum is the scalar loop's summation order
        terms = np.empty((hi - lo, k + 1))
        terms[:, 0] = global_mean + bu + bi
        np.multiply(pu, qi, out=terms[:, 1:])
        err = ratings[lo:hi] - np.add.accumulate(terms, axis=1)[:, k]
        sq_err[lo:hi] = err * err
        user_b[u] = bu + lr * (err - reg * bu)
        item_b[i] = bi + lr * (err - reg * bi)
        err = err[:, None]
        user_f[u] = pu + lr * (err * qi - reg * pu)
        item_f[i] = qi + lr * (err * pu - reg * qi)
    # back in permutation order, a running sum is the scalar loop's `sse +=`
    sq_err[steps] = sq_err.copy()
    return np.add.accumulate(sq_err)[-1]
