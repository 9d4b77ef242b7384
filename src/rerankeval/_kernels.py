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
`sgd_epoch_py` in tests/mf_oracle.py, which the tests compare against.
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
    n_users = user_f.shape[0]
    users = u_idx[order]
    items = i_idx[order]
    levels = wave_levels(users.tolist(), items.tolist(), n_users, item_f.shape[0])
    # steps grouped by level; within a level, in permutation order
    steps = np.argsort(levels, kind="stable")
    bounds = np.cumsum(np.bincount(levels))
    ratings = ratings[order[steps]]
    # one table row per user, then per item: the bias, then the factors
    table = np.concatenate((np.column_stack((user_b, user_f)),
                            np.column_stack((item_b, item_f))))
    # the rows of the wave [lo, hi) of steps: its users at lo + s, then its
    # items at hi + s, for each step s, so the wave owns [2 lo, 2 hi)
    s = np.arange(len(steps))
    level = levels[steps]
    rows = np.empty(2 * len(steps), dtype=np.intp)
    rows[bounds[level - 1] + s] = users[steps]
    rows[bounds[level] + s] = items[steps] + n_users
    k = user_f.shape[1]
    sq_err = np.empty(order.shape[0])  # in level order until the end
    bounds = bounds.tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        wave = rows[2 * lo:2 * hi]
        x = table.take(wave, axis=0).reshape(2, hi - lo, k + 1)
        # (global_mean + b_u) + b_i, then one product per factor in order: a
        # row-wise running sum is the scalar loop's summation order
        terms = x[0] * x[1]
        terms[:, 0] = global_mean + x[0, :, 0] + x[1, :, 0]
        err = ratings[lo:hi] - np.add.accumulate(terms, axis=1)[:, k]
        np.multiply(err, err, out=sq_err[lo:hi])
        # x + lr * (g - reg * x) in place (IEEE + and * commute), where g is
        # err for the bias and err times the partner row's factors
        g = x[::-1] * err[:, None]
        g[:, :, 0] = err
        g -= reg * x
        g *= lr
        g += x
        table[wave] = g.reshape(-1, k + 1)
    user_b[:], item_b[:] = table[:n_users, 0], table[n_users:, 0]
    user_f[:], item_f[:] = table[:n_users, 1:], table[n_users:, 1:]
    # back in permutation order, a running sum is the scalar loop's `sse +=`
    sq_err[steps] = sq_err.copy()
    return np.add.accumulate(sq_err)[-1]
