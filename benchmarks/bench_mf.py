"""Benchmark the SGD matrix-factorization epoch: wave-scheduled vs scalar loop.

Usage:
    python3 benchmarks/bench_mf.py [--users 500] [--items 300] [--density 0.2]
                                   [--k 32] [--epochs 10] [--zipf 0]

--zipf S draws items with popularity proportional to rank**-S (0 is uniform).
Skew lengthens the chain of updates through the popular items, so it raises
the number of levels the wave kernel runs one after another. Both kernels run
the same epochs from the same start, and the script exits with an error
unless their outputs are bit-identical.
"""

import argparse
import time

import numpy as np

from rerankeval._kernels import _sgd_epoch_py, sgd_epoch, wave_levels


def make_problem(n_users, n_items, density, k, zipf, epochs, seed=0):
    rng = np.random.default_rng(seed)
    n = int(n_users * n_items * density)
    popularity = np.arange(1, n_items + 1, dtype=np.float64) ** -zipf
    u_idx = rng.integers(0, n_users, n)
    i_idx = rng.choice(n_items, n, p=popularity / popularity.sum())
    ratings = rng.uniform(0.5, 5.0, n)
    orders = [rng.permutation(n) for _ in range(epochs)]
    uf = rng.normal(0, 0.1, (n_users, k))
    itf = rng.normal(0, 0.1, (n_items, k))
    return u_idx, i_idx, ratings, orders, uf, itf


def bench(kernel, problem):
    """Seconds for all epochs, and the SSE of each epoch plus the final
    factors and biases."""
    u_idx, i_idx, ratings, orders, uf, itf = problem
    state = (uf.copy(), itf.copy(), np.zeros(uf.shape[0]), np.zeros(itf.shape[0]))
    start = time.perf_counter()
    sses = [kernel(u_idx, i_idx, ratings, order, *state, 3.0, 0.005, 0.02)
            for order in orders]
    return time.perf_counter() - start, (sses, *state)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--users", type=int, default=500)
    ap.add_argument("--items", type=int, default=300)
    ap.add_argument("--density", type=float, default=0.2)
    ap.add_argument("--k", type=int, default=32)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--zipf", type=float, default=0.0)
    opts = ap.parse_args(argv)

    problem = make_problem(opts.users, opts.items, opts.density, opts.k,
                           opts.zipf, opts.epochs)
    u_idx, i_idx, _, orders, _, _ = problem
    n = len(u_idx)
    levels = [int(wave_levels(u_idx[o].tolist(), i_idx[o].tolist(),
                              opts.users, opts.items).max(initial=0))
              for o in orders]
    print(f"{n} interactions, k={opts.k}, {opts.epochs} epochs, zipf={opts.zipf}")
    print(f"levels per epoch: {min(levels)}-{max(levels)}")

    t_wave, out_wave = bench(sgd_epoch, problem)
    t_py, out_py = bench(_sgd_epoch_py, problem)
    updates = n * opts.epochs
    print(f"wave   : {t_wave:.3f}s  ({updates / t_wave / 1e6:.2f} M updates/s)")
    print(f"scalar : {t_py:.3f}s  ({updates / t_py / 1e6:.2f} M updates/s)")
    print(f"speedup: {t_py / t_wave:.1f}x")

    if out_wave[0] != out_py[0] or not all(
            np.array_equal(a, b) for a, b in zip(out_wave[1:], out_py[1:])):
        raise SystemExit("wave and scalar kernels differ")
    print("outputs bit-identical")


if __name__ == "__main__":
    main()
