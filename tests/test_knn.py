"""The sparse top-m item-kNN against the per-item reference in knn_oracle:
neighbour lists, scores and slates must be bit-identical. Its helpers are
checked against a full stable sort and a per-pair set intersection, and its
sparse matrices and the scipy kernels they run against scipy.sparse."""

import importlib.machinery
import importlib.util
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._sparsetools

from conftest import interactions, traced, write_corpus
from knn_oracle import OracleKnnScorer, build_item_knn_oracle, neighbor_lists
from rerankeval import _kernels, candgen, ingest
from rerankeval.candgen import ItemKnnRecommender, build_item_knn, gen_model_slate
from rerankeval.errors import UnknownUser
from rerankeval.ingest import (Catalog, Interactions, ItemCard, load_interactions, load_items,
                               split_leave_n_out)


def conftest_train(tmp_path):
    ratings_path, items_path = write_corpus(tmp_path)
    split = split_leave_n_out(load_interactions(ratings_path))
    return split, load_items(items_path)


def zipf_rows(n_users=50, n_items=40, n_ratings=1200, seed=3):
    """n_ratings draws of Zipf-popular items on a 1-5 star scale, so many
    (user, item) pairs are drawn more than once, plus exact copies of three
    items' columns under other ids, so many similarities tie."""
    rng = np.random.default_rng(seed)
    popularity = np.arange(1, n_items + 1, dtype=np.float64) ** -1.1
    users = rng.integers(0, n_users, n_ratings)
    items = rng.choice(n_items, n_ratings, p=popularity / popularity.sum())
    stars = rng.integers(1, 6, n_ratings)
    rows = [(f"u{u}", f"i{i:02d}", float(s), t)
            for t, (u, i, s) in enumerate(zip(users, items, stars))]
    return rows + [(u, f"copy_{i}", r, t) for u, i, r, t in rows
                   if i in ("i00", "i01", "i02")]


def zipf_train(**kwargs):
    """zipf_rows as the split keeps them: one row per (user, item). No user
    is evaluated at a min_history past every user's rows, so train is every
    kept row."""
    rows = zipf_rows(**kwargs)
    return split_leave_n_out(interactions(rows), min_history=len(rows)).train


def assert_parity(train, top_m, min_co_raters, items, users):
    sim = build_item_knn(train, top_m=top_m, min_co_raters=min_co_raters)
    expected = build_item_knn_oracle(train, top_m=top_m, min_co_raters=min_co_raters)
    assert neighbor_lists(sim, train.items) == expected
    rec = ItemKnnRecommender(sim, train)
    oracle = OracleKnnScorer(expected, train)
    cols = train.item_codes(items)
    for user in users:
        assert np.array_equal(rec.score_items(user, cols),
                              oracle.score_items(user, cols))
    return expected


@pytest.fixture(params=[1, 7, candgen.KNN_BLOCK_ROWS], ids=lambda b: f"block{b}")
def block_rows(request, monkeypatch):
    monkeypatch.setattr(candgen, "KNN_BLOCK_ROWS", request.param)
    return request.param


class TestNeighboursAndScores:
    @pytest.mark.parametrize("min_co_raters", [0, 1, 3])
    def test_conftest_corpus(self, tmp_path, block_rows, min_co_raters):
        split, catalog = conftest_train(tmp_path)
        users = split.train.users.tolist()
        assert_parity(split.train, 10, min_co_raters, sorted(catalog.items), users)

    @pytest.mark.parametrize("min_co_raters", [0, 1, 3])
    def test_zipf_with_tied_sims(self, block_rows, min_co_raters):
        train = zipf_train()
        items = train.items.tolist()
        users = train.users.tolist()
        expected = assert_parity(train, 8, min_co_raters, items, users)
        ties = sum(a[1] == b[1] for neigh in expected.values()
                   for a, b in zip(neigh, neigh[1:]))
        assert ties >= 10
        # rows where the item id alone decides who makes the top 8
        full = build_item_knn_oracle(train, top_m=len(items),
                                     min_co_raters=min_co_raters)
        assert sum(len(n) > 8 and n[7][1] == n[8][1] for n in full.values()) >= 3

    def test_top_m_at_least_item_count(self, block_rows):
        train = zipf_train(n_users=20, n_items=12, n_ratings=150)
        items = train.items.tolist()
        expected = assert_parity(train, len(items) + 5, 0, items, train.users.tolist())
        # min_co_raters=0 keeps every other item, so rows are full
        assert all(len(neigh) == len(items) - 1 for neigh in expected.values())

    def test_catalog_items_absent_from_train_score_zero(self, tmp_path):
        split, catalog = conftest_train(tmp_path)
        rec = ItemKnnRecommender(build_item_knn(split.train, top_m=10), split.train)
        user = split.train.users[0]
        cols = split.train.item_codes(["absent_a"] + sorted(catalog.items) + ["absent_b"])
        scores = rec.score_items(user, cols)
        assert scores[0] == 0.0 and scores[-1] == 0.0
        assert np.array_equal(scores[1:-1], rec.score_items(user, cols[1:-1]))

    def test_user_with_no_ratings(self, tmp_path):
        split, catalog = conftest_train(tmp_path)
        sim = build_item_knn(split.train, top_m=10)
        for scorer in (ItemKnnRecommender(sim, split.train),
                       OracleKnnScorer(neighbor_lists(sim, split.train.items), split.train)):
            with pytest.raises(UnknownUser):
                scorer.score_items("ghost", split.train.item_codes(sorted(catalog.items)))

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            build_item_knn([], top_m=5)

    def test_duplicate_ratings_last_one_scores(self):
        rows = [(u, i, 1.0 + (u * 3 + i) % 5, u * 10 + i)
                for u in range(6) for i in range(5)]
        rows += [(0, 1, 5.0, 99), (0, 1, 2.5, 100)]  # user 0 re-rates item 1
        train = split_leave_n_out(interactions(rows)).train
        assert [e for e in train.entries("0") if e[0] == "1"] == [("1", 2.5, 100)]
        assert_parity(train, 4, 1, [str(i) for i in range(5)],
                      [str(u) for u in range(6)])

    def test_zipf_min_co_raters_drops_picks(self, block_rows):
        train = zipf_train()
        items = train.items.tolist()
        expected = assert_parity(train, 8, 9, items, train.users.tolist())
        unfiltered = build_item_knn_oracle(train, top_m=8, min_co_raters=0)
        assert sum(expected[i] != unfiltered[i] for i in items) >= 10
        assert sum(0 < len(expected[i]) < 8 for i in items) >= 3


def top_oracle(sims, m):
    """The finite entries of a stable sort of each row, sim descending."""
    order = np.argsort(-sims, axis=1, kind="stable")[:, :m]
    rows = np.broadcast_to(np.arange(len(sims))[:, None], order.shape)
    keep = np.isfinite(np.take_along_axis(sims, order, axis=1))
    return rows[keep], order[keep]


class TestHelpers:
    def test_top_matches_stable_sort(self):
        rng = np.random.default_rng(11)
        for case in range(600):
            n_rows, n_cols = rng.integers(1, 9), rng.integers(1, 40)
            levels = rng.integers(1, 6)  # few distinct sims: many ties
            sims = rng.integers(-levels, levels + 1, (n_rows, n_cols)) / levels
            sims[rng.random(sims.shape) < rng.choice([0.0, 0.3, 0.9])] = -np.inf
            sims[rng.random(n_rows) < 0.2] = -np.inf  # whole rows out
            sims[sims == 0] = rng.choice([0.0, -0.0])
            m = int(rng.integers(1, n_cols + 4))  # includes m >= n_cols
            row, col = candgen._top(sims, m)
            want_row, want_col = top_oracle(sims, m)
            assert np.array_equal(row, want_row) and np.array_equal(col, want_col), case

    def test_top_edge_rows(self):
        sims = np.array([[-np.inf, -np.inf, -np.inf],
                         [0.5, -np.inf, 0.5],
                         [0.2, 0.2, 0.2]])
        for m in (1, 2, 3, 7):
            row, col = candgen._top(sims, m)
            want_row, want_col = top_oracle(sims, m)
            assert np.array_equal(row, want_row) and np.array_equal(col, want_col)
        row, col = candgen._top(sims, 2)
        assert row.tolist() == [1, 1, 2, 2] and col.tolist() == [0, 2, 0, 1]

    @pytest.mark.parametrize("pair_bytes", [1, 5, candgen.KNN_PAIR_BYTES])
    def test_co_raters_are_distinct_common_raters(self, monkeypatch, pair_bytes):
        monkeypatch.setattr(candgen, "KNN_PAIR_BYTES", pair_bytes)
        # 37 users fill part of one word; 65 users all of one and one bit of a second
        for n_users, words in ((37, 1), (65, 2)):
            train = zipf_train(n_users=n_users)
            assert len(train.users) == n_users
            mask = sp.csr_matrix((np.ones(len(train)), (train.user, train.item)))
            bits = candgen._rater_bits(mask)
            assert bits.dtype == np.uint64 and bits.shape == (words, len(train.items))
            raters = [set(train.user[train.item == i].tolist())
                      for i in range(len(train.items))]
            i, j = np.meshgrid(np.arange(len(raters)), np.arange(len(raters)))
            i, j = i.ravel(), j.ravel()
            want = [len(raters[a] & raters[b]) for a, b in zip(i.tolist(), j.tolist())]
            assert candgen._co_raters(bits, i, j).tolist() == want
            assert candgen._co_raters(bits, i[:0], j[:0]).tolist() == []
            # rows against every item, as the short-row recount asks
            rows = np.array([5, 0, 5, len(raters) - 1])
            every = np.arange(len(raters))
            assert candgen._co_raters(bits, rows[:, None], every).tolist() == \
                [[len(raters[a] & raters[b]) for b in range(len(raters))] for a in rows]
            assert candgen._co_raters(bits, rows[:0, None], every).shape == (0, len(raters))

    def test_co_raters_of_a_split_train_are_the_exact_count(self):
        # the draws rate many (user, item) pairs more than once; the split's
        # train keeps one row per pair, so the bit count is the sparse count
        rows = zipf_rows()
        assert len({r[:2] for r in rows}) < len(rows) - 100
        train = split_leave_n_out(interactions(rows)).train
        raters = sp.csr_matrix((np.ones(len(train), dtype=np.int32),
                                (train.user, train.item)))
        exact = (raters.T @ raters).toarray()
        bits = candgen._rater_bits(raters)
        i, j = np.indices(exact.shape).reshape(2, -1)
        assert np.array_equal(candgen._co_raters(bits, i, j), exact[i, j])


def fuzz_csr(rng, n_rows, n_cols, index_dtype):
    """A CSR matrix with empty rows, stored explicit zeros (+0.0 and -0.0),
    unsorted columns, and values on a few levels, so that many sums cancel to
    exactly 0, mixed with values that round differently in every order."""
    dense = rng.choice([-2.0, -1.0, 1.0, 2.0, 0.5], (n_rows, n_cols))
    noisy = rng.random(dense.shape) < 0.3
    dense[noisy] = rng.normal(size=np.count_nonzero(noisy))
    stored = rng.random(dense.shape) < rng.choice([0.05, 0.3, 0.8])
    stored[rng.random(n_rows) < 0.3] = False  # empty rows
    dense[stored & (rng.random(dense.shape) < 0.1)] = rng.choice([0.0, -0.0])
    row, col = np.nonzero(stored)
    order = np.lexsort((rng.random(len(row)), row))  # columns unsorted in a row
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n_rows))])
    m = sp.csr_matrix((dense[row, col][order], col[order], indptr), shape=(n_rows, n_cols))
    # scipy narrows index arrays it is given; these are set afterwards
    m.indices, m.indptr = m.indices.astype(index_dtype), m.indptr.astype(index_dtype)
    return m


class TestBlockProduct:
    """_block_product calls a private scipy kernel, loaded from its file
    without scipy.sparse: every block must equal the same rows of m.T @ m bit
    for bit, or a new scipy changed it."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_blocks_equal_the_sparse_product(self, index_dtype):
        rng = np.random.default_rng(17)
        cancelled = stored_zeros = 0
        for case in range(300):
            k, n = rng.integers(1, 30, 2)
            m = fuzz_csr(rng, k, n, index_dtype)
            want = (m.T @ m).toarray()
            rows = int(rng.integers(1, n + 2))
            block = candgen._block_product(m, rows)
            got = np.vstack([block(lo, min(lo + rows, n)) for lo in range(0, n, rows)])
            assert got.dtype == want.dtype and got.shape == want.shape, case
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), case
            products = (abs(m).T @ abs(m)).toarray()
            cancelled += np.count_nonzero((want == 0) & (products > 0))
            stored_zeros += np.count_nonzero(m.data == 0)
        assert cancelled >= 100 and stored_zeros >= 100

    def test_block_with_no_entries(self):
        # column 1 stores nothing; column 0 one entry, and column 2 two
        m = sp.csr_matrix((np.array([1.5, -2.0, 0.5]), np.array([0, 2, 2]),
                           np.array([0, 0, 0, 1, 3])), shape=(4, 3))
        block = candgen._block_product(m, 2)
        want = (m.T @ m).toarray()
        assert np.array_equal(block(1, 2).view(np.uint64), np.zeros((1, 3)).view(np.uint64))
        assert np.array_equal(block(0, 2), want[0:2])
        assert np.array_equal(block(2, 3), want[2:3])
        empty = candgen._block_product(sp.csr_matrix((3, 4)), 3)
        assert np.array_equal(empty(0, 3).view(np.uint64), np.zeros((3, 4)).view(np.uint64))


def bits(a):
    """a's float64 values as integers, so that equality is bit for bit."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def assert_same_csr(ours, theirs):
    """ours, a candgen.Csr, holds scipy matrix theirs's arrays bit for bit,
    and their index type."""
    assert ours.shape == theirs.shape and ours.nnz == theirs.nnz
    assert ours.indptr.dtype == ours.indices.dtype
    assert (ours.indices.dtype, ours.indptr.dtype) == \
        (theirs.indices.dtype, theirs.indptr.dtype)
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert np.array_equal(bits(ours.data), bits(theirs.data))


def assert_transposes(m, theirs):
    """_by_column's index of the entries of m (a candgen.Csr or a scipy
    matrix) cuts scipy matrix theirs, m.T.tocsr(), from m: its pointer is
    theirs's, and its positions pick theirs's columns (m's rows) and values,
    in theirs's order, bit for bit."""
    pointer, positions = candgen._by_column(m.indptr, m.indices, m.shape[1])
    assert pointer.dtype == positions.dtype == m.indptr.dtype
    assert np.array_equal(pointer, theirs.indptr)
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))  # of each entry
    assert np.array_equal(rows[positions], theirs.indices)
    assert np.array_equal(bits(m.data[positions]), bits(theirs.data))


def assert_column_norms(ours, theirs):
    """_column_norms of ours, a candgen.Csr, are the square roots of the
    diagonal of theirs.T @ theirs, bit for bit."""
    diagonal = (theirs.T @ theirs).diagonal()
    assert np.array_equal(bits(candgen._column_norms(ours)),
                          bits(np.sqrt(np.maximum(diagonal, 0.0))))


def fuzz_train(rng):
    """A ratings table with one row per (user, item), rows in no order, over
    id lists longer than the codes it uses: users who rated nothing, items
    nobody rated, and users with one rating. Ratings are any floats, so
    that every order of adding them up can round differently."""
    n_users, n_items = rng.integers(1, 25, 2)
    rated = rng.random((n_users, n_items)) < rng.choice([0.05, 0.3, 0.9])
    rated[rng.random(n_users) < 0.2] = False  # users who rated nothing
    rated[:, rng.random(n_items) < 0.2] = False  # items nobody rated
    for u in np.flatnonzero(rng.random(n_users) < 0.2):  # one rating each
        rated[u] = False
        rated[u, rng.integers(n_items)] = True
    user, item = np.nonzero(rated)
    order = rng.permutation(len(user))
    rating = rng.uniform(0.5, 5.0, len(user)) * rng.choice([1.0, 1e-3, 1e3], len(user))
    return Interactions(np.array([f"u{u:02d}" for u in range(n_users)]),
                        np.array([f"i{i:02d}" for i in range(n_items)]),
                        user[order], item[order], rating[order],
                        np.zeros(len(user), dtype=np.int64))


class TestCsrMatchesScipy:
    """What the build and the scorer compute in place of scipy.sparse, bit for
    bit against scipy.sparse's public API: the train matrix, its row sums,
    the by-column position index that cuts the transpose from a matrix, the
    column norms, and the matrix-vector product."""

    def test_ratings_matrix_row_sums_and_transpose(self):
        rng = np.random.default_rng(23)
        empty_rows = unrated_items = single_rows = 0
        for case in range(300):
            train = fuzz_train(rng)
            ours = candgen._ratings_csr(train)
            theirs = sp.csr_matrix((train.rating, (train.user, train.item)),
                                   shape=(len(train.users), len(train.items)))
            assert_same_csr(ours, theirs)
            assert np.array_equal(bits(ours.row_sums()),
                                  bits(np.asarray(theirs.sum(axis=1)).ravel())), case
            assert_transposes(ours, theirs.T.tocsr())
            assert_column_norms(ours, theirs)
            per_user = np.diff(theirs.indptr)
            empty_rows += np.count_nonzero(per_user == 0)
            single_rows += np.count_nonzero(per_user == 1)
            unrated_items += np.count_nonzero(np.diff(theirs.T.tocsr().indptr) == 0)
        assert min(empty_rows, unrated_items, single_rows) >= 100

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_transpose_row_sums_and_product_of_any_csr(self, index_dtype):
        # unsorted columns, stored zeros and empty rows, in either index type
        rng = np.random.default_rng(29)
        for case in range(300):
            m = fuzz_csr(rng, *rng.integers(1, 30, 2), index_dtype)
            ours = candgen.Csr(m.data, m.indices, m.indptr, m.shape)
            assert_transposes(ours, m.T.tocsr())
            assert_column_norms(ours, m)
            assert np.array_equal(bits(ours.row_sums()),
                                  bits(np.asarray(m.sum(axis=1)).ravel())), case
            x = rng.normal(size=m.shape[1])
            x[rng.random(len(x)) < 0.4] = 0.0  # unrated items
            assert np.array_equal(bits(ours @ x), bits(m @ x)), case

    def test_score_items_product_is_the_sparse_product(self, tmp_path):
        split, _ = conftest_train(tmp_path)
        sim = build_item_knn(split.train, top_m=10, min_co_raters=2)
        theirs = sp.csr_matrix((sim.data, sim.indices, sim.indptr), shape=sim.shape)
        rng = np.random.default_rng(31)
        for user in split.train.users.tolist():
            rows = split.train.rows_of(user)
            ratings = np.zeros(len(split.train.items))
            ratings[split.train.item[rows]] = split.train.rating[rows] + rng.normal(
                scale=1e-3, size=len(rows))
            assert np.array_equal(bits(sim @ ratings), bits(theirs @ ratings))

    def test_index_type_is_scipys(self):
        for size in (0, 1, 2**31 - 1, 2**31, 2**40):
            assert ingest.index_dtype(3, size) == sp.get_index_dtype(maxval=size)


class TestKernelLoader:
    def test_loads_scipys_sparse_kernels(self):
        assert _kernels.sparsetools.__name__ == "rerankeval._sparsetools"
        assert _kernels.sparsetools.__file__ == scipy.sparse._sparsetools.__file__

    def test_missing_file_names_its_path(self, monkeypatch, tmp_path):
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name: SimpleNamespace(submodule_search_locations=[tmp_path]))
        want = tmp_path / "sparse" / ("_sparsetools" + importlib.machinery.EXTENSION_SUFFIXES[0])
        with pytest.raises(ImportError, match=re.escape(f"no {want}") + "$"):
            _kernels._load_sparsetools()

    def test_missing_scipy(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="scipy is not installed"):
            _kernels._load_sparsetools()


def test_build_holds_no_dense_items_by_users_array():
    # many users with three ratings each: one dense items x users bool array
    # takes n_items * n_users bytes, the packed rater table an eighth of that
    rng = np.random.default_rng(5)
    n_items, n_users = 1000, 12000
    popularity = np.arange(1, n_items + 1, dtype=np.float64) ** -0.7
    rows = [(f"u{u}", f"i{i}", float(rng.integers(1, 6)), u * 3 + k)
            for u in range(n_users)
            for k, i in enumerate(rng.choice(n_items, 3, replace=False,
                                             p=popularity / popularity.sum()))]
    train = interactions(rows)
    assert len(train.items) * len(train.users) >= 8_000_000
    sim, _, peak = traced(build_item_knn, train, top_m=20, min_co_raters=2)
    assert sim.nnz > 0
    assert peak < len(train.items) * len(train.users)


def test_build_scratch_per_stored_rating():
    # many users rate few items, so what grows with the stored ratings sets
    # the peak: the centered ratings matrix (12 B a rating) and, while its
    # by-item position index is made, the index and the transpose kernel's
    # two other arrays (12 B). Holding the matrix's transpose beside it, as
    # well as a row per rating, took 32 B.
    n_users, n_items, per_user = 12_000, 100, 15
    rng = np.random.default_rng(7)
    user = np.repeat(np.arange(n_users, dtype=np.int32), per_user)
    item = (7 * user + 13 * np.tile(np.arange(per_user, dtype=np.int32), n_users)) % n_items
    train = Interactions(np.array([f"u{u:05d}" for u in range(n_users)]),
                         np.array([f"i{i:03d}" for i in range(n_items)]), user, item,
                         rng.integers(1, 11, len(user)) / 2.0,
                         np.zeros(len(user), dtype=np.int64))
    sim, _, peak = traced(build_item_knn, train, top_m=20, min_co_raters=2)
    assert sim.nnz > 0
    assert peak <= 28 * len(train), peak / len(train)


class TestSlates:
    @pytest.mark.parametrize("inject", [0, 3])
    def test_every_eval_user_slate_matches_oracle(self, tmp_path, inject):
        split, catalog = conftest_train(tmp_path)
        sim = build_item_knn(split.train, top_m=10, min_co_raters=2)
        rec = ItemKnnRecommender(sim, split.train)
        oracle = OracleKnnScorer(
            build_item_knn_oracle(split.train, top_m=10, min_co_raters=2), split.train)
        codes = split.train.item_codes(catalog.ids)
        assert len(split.relevance) == 30
        for user, rel in split.relevance.items():
            exclusions = {item for item, _, _ in split.train.entries(user)}
            ours = gen_model_slate(user, rec, catalog, codes, exclusions, inject, rel,
                                   seed=4, source="knn")
            theirs = gen_model_slate(user, oracle, catalog, codes, exclusions, inject, rel,
                                     seed=4, source="knn")
            assert ours.items == theirs.items

    def test_zipf_slates_with_ties_match_oracle(self):
        train = zipf_train()
        items = train.items.tolist()
        catalog = Catalog(items={i: ItemCard(id=i, title=i, genres=[], language="en",
                                             overview_short="")
                                 for i in items})
        rec = ItemKnnRecommender(build_item_knn(train, top_m=8, min_co_raters=1), train)
        oracle = OracleKnnScorer(
            build_item_knn_oracle(train, top_m=8, min_co_raters=1), train)
        codes = train.item_codes(catalog.ids)
        checked = 0
        for user in train.users.tolist():
            exclusions = {item for item, _, _ in train.entries(user)}
            if len(items) - len(exclusions) < 15:
                continue
            assert gen_model_slate(user, rec, catalog, codes, exclusions, 0, None,
                                   seed=1).items \
                == gen_model_slate(user, oracle, catalog, codes, exclusions, 0, None,
                                   seed=1).items
            checked += 1
        assert checked > 40
