"""Reference leave-n-out split and history sampling on (user, item, rating,
timestamp) row tuples: the per-user loops that ingest's columnar
split_leave_n_out and user_history replace; and a table of some of a
table's rows, its codes renumbered by np.unique, as Interactions.from_codes
renumbers them. Kept only to check them against.
"""

import random

import numpy as np

from rerankeval.ingest import Interactions, index_dtype


def split_rows(rows, n_test=10, min_history=5, threshold=4.0):
    """(train rows, test rows, {eval user: held-out item set}, excluded user
    count) of rows in file order, each (user, item) at its last row. Train
    and test each group users in order of first appearance, file order within
    a user."""
    last = {row[:2]: n for n, row in enumerate(rows)}
    rows = [row for n, row in enumerate(rows) if last[row[:2]] == n]
    by_user = {}
    for row in rows:
        by_user.setdefault(row[0], []).append(row)

    train, test = [], []
    relevance = {}
    excluded = 0
    for user, user_rows in by_user.items():
        qualifying = [r for r in user_rows if r[2] >= threshold]
        qualifying.sort(key=lambda r: (-r[3], r[1]))
        held = {r[1] for r in qualifying[:n_test]}
        if len(qualifying) >= min_history + n_test:
            relevance[user] = held
            train.extend(r for r in user_rows if r[1] not in held)
            test.extend(r for r in user_rows if r[1] in held)
        else:
            excluded += 1
            train.extend(user_rows)
    return train, test, relevance, excluded


def history_entries(user_rows, limit=10, strategy="recent", seed=None):
    """(item, rating, timestamp) of a user's sampled train rows,
    timestamp-descending with ties by item id."""
    rows = sorted(user_rows, key=lambda r: (-r[3], r[1]))
    if strategy == "recent":
        rows = rows[:limit]
    elif len(rows) > limit:
        rows = random.Random(seed).sample(rows, limit)
        rows.sort(key=lambda r: (-r[3], r[1]))
    return [(item, rating, ts) for _, item, rating, ts in rows]


def take(table, rows):
    """The Interactions of table's rows (indices or a mask), its codes
    renumbered by np.unique over just the ids the rows use, in the index
    type of its row count."""
    users, user = np.unique(table.user[rows], return_inverse=True)
    items, item = np.unique(table.item[rows], return_inverse=True)
    index = index_dtype(len(user))
    return Interactions(table.users[users], table.items[items], user.astype(index),
                        item.astype(index), table.rating[rows], table.timestamp[rows])
