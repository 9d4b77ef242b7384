"""The sparse top-m item-kNN against the per-item reference in knn_oracle:
neighbour lists, scores and slates must be bit-identical. Its helpers are
checked against a full stable sort and a per-pair set intersection."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import interactions, write_corpus
from knn_oracle import OracleKnnScorer, build_item_knn_oracle, neighbor_lists
from rerankeval import candgen
from rerankeval.candgen import ItemKnnRecommender, build_item_knn, gen_model_slate
from rerankeval.errors import UnknownUser
from rerankeval.ingest import (Catalog, ItemCard, load_interactions, load_items,
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
        train = zipf_train(n_users=37)  # 37 users: the last byte is partly used
        mask_t = sp.csr_matrix((np.ones(len(train)), (train.item, train.user)))
        bits = candgen._rater_bits(mask_t)
        assert bits.shape == (len(train.items), 5)
        raters = [set(train.user[train.item == i].tolist()) for i in range(len(train.items))]
        i, j = np.meshgrid(np.arange(len(raters)), np.arange(len(raters)))
        i, j = i.ravel(), j.ravel()
        assert candgen._co_raters(bits, i, j).tolist() == \
            [len(raters[a] & raters[b]) for a, b in zip(i.tolist(), j.tolist())]
        assert candgen._co_raters(bits, i[:0], j[:0]).tolist() == []

    def test_co_raters_of_a_split_train_are_the_exact_count(self):
        # the draws rate many (user, item) pairs more than once; the split's
        # train keeps one row per pair, so the bit count is the sparse count
        rows = zipf_rows()
        assert len({r[:2] for r in rows}) < len(rows) - 100
        train = split_leave_n_out(interactions(rows)).train
        raters = sp.csr_matrix((np.ones(len(train), dtype=np.int32),
                                (train.user, train.item)))
        exact = (raters.T @ raters).toarray()
        bits = candgen._rater_bits(raters.T.tocsr())
        i, j = np.indices(exact.shape).reshape(2, -1)
        assert np.array_equal(candgen._co_raters(bits, i, j), exact[i, j])


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
    tracemalloc.start()
    try:
        sim = build_item_knn(train, top_m=20, min_co_raters=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sim.nnz > 0
    assert peak < len(train.items) * len(train.users)


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
