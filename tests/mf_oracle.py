"""Reference matrix factorization: the scalar SGD loop that the wave-scheduled
`_kernels.sgd_epoch` reorders, and the per-item prediction that
`MfModel.score_items` batches. Kept only to check them against.
"""


def sgd_epoch_py(u_idx, i_idx, ratings, order, user_f, item_f,
                 user_b, item_b, global_mean, lr, reg):
    """One SGD pass over the given interaction order. Returns sum of squared
    pre-update residuals."""
    sse = 0.0
    k = user_f.shape[1]
    for t in range(order.shape[0]):
        n = order[t]
        u = u_idx[n]
        i = i_idx[n]
        pred = global_mean + user_b[u] + item_b[i]
        for f in range(k):
            pred += user_f[u, f] * item_f[i, f]
        err = ratings[n] - pred
        sse += err * err
        user_b[u] += lr * (err - reg * user_b[u])
        item_b[i] += lr * (err - reg * item_b[i])
        for f in range(k):
            puf = user_f[u, f]
            qif = item_f[i, f]
            user_f[u, f] += lr * (err * qif - reg * puf)
            item_f[i, f] += lr * (err * puf - reg * qif)
    return sse


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
