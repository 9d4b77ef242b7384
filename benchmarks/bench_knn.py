"""Benchmark item-kNN: the block-built sparse top-m matrix and its one-product
slate scoring vs the per-item reference in tests/knn_oracle.py.

Usage:
    python3 benchmarks/bench_knn.py [--users 1500] [--items 1000]
                                    [--ratings 120000] [--zipf 0.8]
                                    [--top-m 30] [--min-co-raters 3]
                                    [--eval-users 100]

Ratings are half stars; items are drawn with popularity proportional to
rank**-zipf. Both builds run on the same ratings, then both scorers score
the whole catalog for the first --eval-users users. The script exits with an
error unless neighbour lists and scores are bit-identical.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from rerankeval.candgen import ItemKnnRecommender, build_item_knn
from rerankeval.ingest import Interaction

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from knn_oracle import (OracleKnnScorer, build_item_knn_oracle,  # noqa: E402
                        neighbor_lists)


def make_train(n_users, n_items, n_ratings, zipf, seed=0):
    rng = np.random.default_rng(seed)
    popularity = np.arange(1, n_items + 1, dtype=np.float64) ** -zipf
    users = rng.integers(0, n_users, n_ratings).tolist()
    items = rng.choice(n_items, n_ratings, p=popularity / popularity.sum()).tolist()
    stars = (rng.integers(1, 11, n_ratings) / 2.0).tolist()
    return [Interaction(f"u{u}", f"i{i}", r, t)
            for t, (u, i, r) in enumerate(zip(users, items, stars))]


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def score_all(scorer, users, items):
    return [scorer.score_items(u, items) for u in users]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--users", type=int, default=1500)
    ap.add_argument("--items", type=int, default=1000)
    ap.add_argument("--ratings", type=int, default=120_000)
    ap.add_argument("--zipf", type=float, default=0.8)
    ap.add_argument("--top-m", type=int, default=30)
    ap.add_argument("--min-co-raters", type=int, default=3)
    ap.add_argument("--eval-users", type=int, default=100)
    opts = ap.parse_args(argv)

    train = make_train(opts.users, opts.items, opts.ratings, opts.zipf)
    items = sorted({r.item for r in train})
    users = sorted({r.user for r in train})[:opts.eval_users]
    print(f"{len(train)} ratings, {len(items)} items, top_m={opts.top_m}, "
          f"min_co_raters={opts.min_co_raters}, zipf={opts.zipf}")

    t_block, sim = timed(build_item_knn, train, opts.top_m, opts.min_co_raters)
    t_oracle, neighbors = timed(build_item_knn_oracle, train, opts.top_m,
                                opts.min_co_raters)
    print(f"build   block : {t_block:.3f}s  ({len(items) / t_block:,.0f} items/s)")
    print(f"build   oracle: {t_oracle:.3f}s  ({len(items) / t_oracle:,.0f} items/s)")

    scored = len(users) * len(items)
    t_matvec, ours = timed(score_all, ItemKnnRecommender(sim, train), users, items)
    t_per_item, theirs = timed(score_all, OracleKnnScorer(neighbors, train),
                               users, items)
    print(f"score   matvec: {t_matvec:.3f}s  ({scored / t_matvec:,.0f} items/s)")
    print(f"score   oracle: {t_per_item:.3f}s  ({scored / t_per_item:,.0f} items/s)")
    print(f"speedup: build {t_oracle / t_block:.1f}x, score {t_per_item / t_matvec:.1f}x")

    if neighbor_lists(sim) != neighbors:
        raise SystemExit("block and oracle neighbour lists differ")
    if not all(np.array_equal(a, b) for a, b in zip(ours, theirs)):
        raise SystemExit("matvec and per-item scores differ")
    print("outputs bit-identical")


if __name__ == "__main__":
    main()
