import math
import random
from collections import Counter

import numpy as np
import pytest

import slate_oracle
from conftest import interactions, make_catalog, traced, write_corpus
from knn_oracle import OracleKnnScorer, build_item_knn_oracle, neighbor_lists
from mf_oracle import score_mf, sgd_epoch_py
from rerankeval import _kernels, candgen, ingest
from rerankeval._kernels import sgd_epoch, wave_levels
from rerankeval.candgen import (ItemKnnRecommender, build_item_knn,
                                export_slates, gen_model_slate,
                                gen_random_slate, import_slates, train_mf)
from rerankeval.errors import CatalogTooSmall, MalformedRow, RerankEvalError, UnknownUser
from rerankeval.ingest import (Catalog, ItemCard, RelevanceSet, commit, load_interactions,
                               load_items, split_leave_n_out)


class TestRandomSlate:
    def test_forced_sample(self):
        catalog = make_catalog(15)
        slate = gen_random_slate("u", catalog, set(), seed=1)
        assert sorted(slate.items, key=int) == [str(i) for i in range(1, 16)]

    def test_deterministic(self):
        catalog = make_catalog(40)
        a = gen_random_slate("u", catalog, set(), seed=3)
        b = gen_random_slate("u", catalog, set(), seed=3)
        assert a.items == b.items

    def test_catalog_too_small(self):
        catalog = make_catalog(10)
        with pytest.raises(CatalogTooSmall):
            gen_random_slate("u", catalog, set(), seed=1)

    def test_exclusions_respected(self):
        catalog = make_catalog(30)
        excluded = {str(i) for i in range(1, 11)}
        slate = gen_random_slate("u", catalog, excluded, seed=2)
        assert not (set(slate.items) & excluded)
        assert len(set(slate.items)) == 15


class TestRandomSlateInjection:
    EXCLUDED = {str(i) for i in range(1, 6)}
    # 12, 18 and 31 fall in the uninjected slate; 3 is excluded, 99 not in
    # the catalog, so 7, 22, 25, 36 and 39 are the pool
    RELEVANT = RelevanceSet(user="u", relevant={
        str(i) for i in (3, 7, 12, 18, 22, 25, 31, 36, 39, 99)})

    def slates(self, inject, relevance=RELEVANT, catalog=None, excluded=EXCLUDED):
        catalog = catalog or make_catalog(40)
        base = gen_random_slate("u", catalog, excluded, seed=3)
        injected = gen_random_slate("u", catalog, excluded, seed=3,
                                    inject_positives=inject, relevance=relevance)
        return base.items, injected.items

    @pytest.mark.parametrize("inject,expected", [
        (0, ["23", "11", "37", "28", "17", "29", "24", "6", "20", "18", "15",
             "19", "31", "12", "8"]),
        (2, ["23", "22", "37", "28", "17", "7", "24", "6", "20", "18", "15",
             "19", "31", "12", "8"]),
        (5, ["22", "11", "7", "28", "36", "29", "24", "6", "20", "18", "15",
             "39", "31", "12", "25"]),
    ])
    def test_pinned(self, inject, expected):
        assert self.slates(inject)[1] == expected

    @pytest.mark.parametrize("inject", [1, 3, 5, 20])
    def test_only_non_positives_replaced(self, inject):
        base, injected = self.slates(inject)
        changed = [p for p, (a, b) in enumerate(zip(base, injected)) if a != b]
        assert len(changed) == min(inject, 5)
        for p in changed:
            assert injected[p] in self.RELEVANT.relevant
            assert base[p] not in self.RELEVANT.relevant
        assert len(set(injected)) == 15

    def test_count_capped_by_replaceable_positions(self):
        # every item but two of the slate's is relevant: 2 replaceable
        # positions, and the 5 items left out of the slate are the pool
        catalog = make_catalog(20)
        base = gen_random_slate("u", catalog, set(), seed=3).items
        relevance = RelevanceSet(user="u", relevant=set(catalog.items) - set(base[:2]))
        _, injected = self.slates(10, relevance, catalog, set())
        changed = [p for p, (a, b) in enumerate(zip(base, injected)) if a != b]
        assert changed == [0, 1]
        assert set(injected) <= relevance.relevant

    def test_no_relevance_keeps_slate(self):
        base, injected = self.slates(5, relevance=None)
        assert injected == base


def synthetic_rank1(n_users=8, n_items=6, offset=3.0):
    """Fully observed rank-1 matrix r(u,i) = a_u * b_i + offset."""
    rng = np.random.default_rng(0)
    a = rng.uniform(0.3, 0.9, n_users)
    b = rng.uniform(0.3, 0.9, n_items)
    rows = []
    for u in range(n_users):
        for i in range(n_items):
            rows.append((f"u{u}", f"i{i}", float(a[u] * b[i] + offset), u * n_items + i))
    return interactions(rows)


class TestTrainMf:
    def test_zero_init_predicts_global_mean(self):
        train = synthetic_rank1()
        model = train_mf(train, k=2, epochs=1, learn_rate=0.0, seed=0)
        model.user_factors[:] = 0.0
        model.item_factors[:] = 0.0
        model.user_bias[:] = 0.0
        model.item_bias[:] = 0.0
        assert score_mf(model, "u0", "i0") == pytest.approx(model.global_mean)

    def test_rank1_matrix_fit(self):
        # oracle-checked: SGD drives train RMSE below 0.05 on a noiseless
        # rank-1 matrix
        train = synthetic_rank1()
        model = train_mf(train, k=2, epochs=200, learn_rate=0.02, reg=0.0, seed=1)
        assert model.train_rmse[-1] <= 0.05

    def test_empty_table_raises(self):
        with pytest.raises(ValueError, match="no training interactions"):
            train_mf(interactions([]))

    def test_deterministic(self):
        train = synthetic_rank1()
        m1 = train_mf(train, k=4, epochs=5, seed=9)
        m2 = train_mf(train, k=4, epochs=5, seed=9)
        assert np.array_equal(m1.user_factors, m2.user_factors)
        assert m1.train_rmse == m2.train_rmse


def sgd_problem(n, n_users, n_items, k, zipf=0.0, seed=0):
    """Random interactions and start factors; zipf > 0 makes item 0 hot."""
    rng = np.random.default_rng(seed)
    popularity = np.arange(1, n_items + 1, dtype=np.float64) ** -zipf
    u_idx = rng.integers(0, n_users, n)
    i_idx = rng.choice(n_items, n, p=popularity / popularity.sum())
    ratings = rng.uniform(0.5, 5.0, n)
    start = (rng.normal(0, 0.1, (n_users, k)), rng.normal(0, 0.1, (n_items, k)),
             np.zeros(n_users), np.zeros(n_items))
    return u_idx, i_idx, ratings, start


def run_epochs(kernel, u_idx, i_idx, ratings, start, orders):
    state = tuple(a.copy() for a in start)
    sses = [kernel(u_idx, i_idx, ratings, order, *state, 3.0, 0.01, 0.02)
            for order in orders]
    return sses, state


def repeated_pairs():
    rng = np.random.default_rng(3)
    u_idx, i_idx, ratings, start = sgd_problem(120, 6, 5, 4)
    pairs = rng.integers(0, 5, 120)  # five (u, i) pairs, each seen ~24 times
    return u_idx[pairs], i_idx[pairs], ratings, start


class TestKernelParity:
    """The wave-scheduled sgd_epoch against the scalar loop it reorders."""

    CASES = {
        "uniform": lambda: sgd_problem(200, 20, 15, 4),
        "zipf_hot_item": lambda: sgd_problem(600, 60, 40, 8, zipf=1.5),
        "repeated_pairs": repeated_pairs,
        "k1": lambda: sgd_problem(300, 25, 20, 1),
        "k33": lambda: sgd_problem(300, 25, 20, 33),
        "single_interaction": lambda: sgd_problem(1, 1, 1, 4),
    }

    @staticmethod
    def assert_same(kernel_args, epochs):
        u_idx, i_idx, ratings, start = kernel_args
        rng = np.random.default_rng(1)
        orders = [rng.permutation(len(u_idx)) for _ in range(epochs)]
        sse_wave, state_wave = run_epochs(sgd_epoch, u_idx, i_idx, ratings, start, orders)
        sse_py, state_py = run_epochs(sgd_epoch_py, u_idx, i_idx, ratings, start, orders)
        assert sse_wave == sse_py
        for a, b in zip(state_wave, state_py):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", list(CASES))
    def test_wave_matches_scalar(self, case):
        self.assert_same(self.CASES[case](), epochs=1)

    def test_three_epochs_share_state(self):
        self.assert_same(sgd_problem(400, 30, 25, 6, zipf=1.1), epochs=3)

    @pytest.mark.parametrize("chunk", [1, 5, 7])
    def test_chunk_ends_inside_waves(self, monkeypatch, chunk):
        # chunk ends fall inside waves; 5 divides 600, 120 and 400 steps, so
        # there only the single step is a partial last chunk, and 7 leaves
        # one in every case
        monkeypatch.setattr(_kernels, "SGD_CHUNK_STEPS", chunk)
        for case in ("zipf_hot_item", "repeated_pairs", "single_interaction"):
            self.assert_same(self.CASES[case](), epochs=1)
        self.test_three_epochs_share_state()

    def test_default_k_hot_item_three_epochs(self):
        problem = sgd_problem(600, 60, 40, 32, zipf=1.5)
        u_idx, i_idx = problem[:2]
        assert wave_levels(u_idx, i_idx, 60, 40).max() >= 100
        self.assert_same(problem, epochs=3)

    def test_item_rows_far_past_user_rows(self):
        # 4 user rows, then 500 item rows in the joint parameter table
        self.assert_same(sgd_problem(300, 4, 500, 4), epochs=2)

    def test_diverging_learn_rate_diverges_in_the_same_epoch(self):
        train = synthetic_rank1()
        k, epochs, learn_rate, reg, seed = 4, 10, 1.0, 0.02, 3
        # train_mf's draws: start factors, then one permutation per epoch
        rng = np.random.default_rng(seed)
        start = (rng.normal(0.0, 0.1, (len(train.users), k)),
                 rng.normal(0.0, 0.1, (len(train.items), k)),
                 np.zeros(len(train.users)), np.zeros(len(train.items)))
        orders = [rng.permutation(len(train)) for _ in range(epochs)]
        first_bad = []
        for kernel in (sgd_epoch, sgd_epoch_py):
            state = tuple(a.copy() for a in start)
            with np.errstate(over="ignore", invalid="ignore"):
                sses = [kernel(train.user, train.item, train.rating, order, *state,
                               float(train.rating.mean()), learn_rate, reg)
                        for order in orders]
            first_bad.append(next(e for e, sse in enumerate(sses, 1) if not np.isfinite(sse)))
        assert first_bad[0] == first_bad[1] > 1
        with pytest.raises(RerankEvalError, match=f"diverged at epoch {first_bad[0]};"):
            train_mf(train, k=k, epochs=epochs, learn_rate=learn_rate, reg=reg, seed=seed)

    def test_hot_item_gives_long_level_chain(self):
        u_idx, i_idx, _, _ = sgd_problem(600, 60, 40, 8, zipf=1.5)
        levels = wave_levels(u_idx, i_idx, 60, 40)
        # every step on the hot item waits for the one before it
        assert levels.max() >= np.bincount(i_idx).max() > 100

    def test_levels_touch_disjoint_rows_after_their_dependencies(self):
        u_idx, i_idx, _, _ = sgd_problem(300, 12, 10, 1, zipf=1.0)
        levels = wave_levels(u_idx, i_idx, 12, 10)
        for level in np.unique(levels):
            steps = levels == level
            assert len(set(u_idx[steps])) == len(set(i_idx[steps])) == steps.sum()
        for t in range(len(levels)):
            earlier = (u_idx[:t] == u_idx[t]) | (i_idx[:t] == i_idx[t])
            assert (levels[:t][earlier] < levels[t]).all()

    def test_empty_order(self):
        u_idx, i_idx, ratings, start = sgd_problem(50, 5, 5, 3)
        empty = np.array([], dtype=np.int64)
        for kernel in (sgd_epoch, sgd_epoch_py):
            sses, state = run_epochs(kernel, u_idx, i_idx, ratings, start, [empty])
            assert sses == [0.0]
            for a, b in zip(state, start):
                assert np.array_equal(a, b)


def test_epoch_scratch_per_step():
    # the wave order, two table rows and the rating of each step, 32 bytes,
    # plus the joint table and one wave's temporaries
    n, n_users, n_items, k = 200_000, 4000, 4000, 4
    u_idx, i_idx, ratings, start = sgd_problem(n, n_users, n_items, k)
    order = np.random.default_rng(1).permutation(n)
    _, _, peak = traced(sgd_epoch, u_idx, i_idx, ratings, order, *start, 3.0, 0.01, 0.02)
    assert peak <= 56 * n, peak / n


def test_codes_never_wrap():
    # 60,000 ids a side, so users x items passes 2**31 though each code fits
    # the int32 of a table this short. User 35,791's (user, item) keys
    # straddle 2**31 at item 23,648: int32 keys would part their rows in two.
    n_users = n_items = 60_000
    user, item = np.array([(35_791, 5), (0, 5), (35_791, 23_648), (0, 23_648),
                           (35_791, 23_647), (59_999, 59_999), (0, 5), (59_999, 5),
                           (35_791, 59_999)], dtype=np.int32).T
    wide = user.astype(np.int64), item.astype(np.int64)
    kept = ingest._last_ratings(user, item, n_users, n_items)
    assert kept.tolist() == [0, 2, 4, 8, 3, 6, 5, 7]
    assert np.array_equal(kept, ingest._last_ratings(*wide, n_users, n_items))
    rng = np.random.default_rng(9)
    ids = np.array([f"u{n:05d}" for n in range(n_users)])
    rating, timestamp = rng.uniform(0.5, 5.0, len(kept)), np.arange(len(kept))
    tables = [ingest.Interactions(ids, ids, u[kept], i[kept], rating, timestamp)
              for u, i in ((user, item), wide)]
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(*(getattr(candgen._ratings_csr(t), name) for t in tables)), name
    for u in (0, 35_791, 59_999):
        assert np.array_equal(*(t.rows_of(f"u{u:05d}") for t in tables)), u
    k = 2
    start = (rng.normal(0, 0.1, (n_users, k)), rng.normal(0, 0.1, (n_items, k)),
             np.zeros(n_users), np.zeros(n_items))
    order = rng.permutation(len(kept))
    narrow_run, wide_run = (run_epochs(sgd_epoch, u[kept], i[kept], rating, start, [order])
                            for u, i in ((user, item), wide))
    assert narrow_run[0] == wide_run[0]
    assert all(np.array_equal(a, b) for a, b in zip(narrow_run[1], wide_run[1]))


class TestScoreMf:
    def test_unknown_user_and_item_fall_back_to_mean(self):
        model = train_mf(synthetic_rank1(), k=2, epochs=1, seed=0)
        assert score_mf(model, "ghost", "ghost") == pytest.approx(model.global_mean)

    def test_four_term_formula(self):
        model = train_mf(synthetic_rank1(2, 2), k=1, epochs=1, seed=0)
        model.global_mean = 3.5
        u = model.train.user_code("u0")
        i = model.train.item_codes(["i0"])[0]
        model.user_bias[u] = 0.5
        model.item_bias[i] = -0.2
        model.user_factors[u, 0] = 0.5
        model.item_factors[i, 0] = 0.2
        assert score_mf(model, "u0", "i0") == pytest.approx(3.9)

    def test_finite(self):
        model = train_mf(synthetic_rank1(), k=2, epochs=2, seed=0)
        assert math.isfinite(score_mf(model, "u1", "i1"))


def slate_corpus():
    catalog = make_catalog(40)
    train = interactions(
        [("u", i, 4.0, i) for i in range(1, 6)] +
        [(f"v{j}", i, (i % 9) / 2.0 + 0.5, i) for j in range(6)
         for i in range(1, 41)])
    model = train_mf(train, k=2, epochs=5, seed=0)
    return catalog, train, model


class TestScoreItems:
    def test_mf_matches_score_mf(self):
        model = train_mf(synthetic_rank1(), k=3, epochs=3, seed=0)
        items = ["i0", "i3", "not_in_train", "i5", "i1", "also_absent"]
        for user in ("u0", "u7", "ghost"):
            expected = [score_mf(model, user, i) for i in items]
            assert model.score_items(user, model.train.item_codes(items)).tolist() == \
                pytest.approx(expected, rel=1e-12)

    def test_knn_matches_per_item_score(self):
        catalog, train, _ = slate_corpus()
        rec = ItemKnnRecommender(build_item_knn(train, top_m=10, min_co_raters=2), train)
        oracle = OracleKnnScorer(build_item_knn_oracle(train, top_m=10, min_co_raters=2),
                                 train)
        items = sorted(catalog.items)
        assert rec.score_items("u", train.item_codes(items)).tolist() == \
            [oracle.score("u", i) for i in items]

    @pytest.mark.parametrize("inject", [0, 3])
    def test_batched_mf_slates_match_score_mf(self, tmp_path, inject):
        class PerItemMf:
            def __init__(self, model):
                self.model = model

            def score_items(self, user, cols):
                ids = self.model.train.items
                return np.array([score_mf(self.model, user, ids[c] if c >= 0 else "absent")
                                 for c in cols])

        ratings_path, items_path = write_corpus(tmp_path)
        catalog = load_items(items_path)
        split = split_leave_n_out(load_interactions(ratings_path))
        model = train_mf(split.train, k=8, epochs=5, seed=2)
        codes = split.train.item_codes(catalog.ids)
        assert len(split.relevance) == 30
        for user, rel in split.relevance.items():
            exclusions = {item for item, _, _ in split.train.entries(user)}
            batched = gen_model_slate(user, model, catalog, codes, exclusions, inject, rel,
                                      seed=4)
            per_item = gen_model_slate(user, PerItemMf(model), catalog, codes, exclusions,
                                       inject, rel, seed=4)
            assert batched.items == per_item.items


def knn_lists(rows, **kwargs):
    """build_item_knn's neighbour lists of rows, by item id."""
    train = interactions(rows)
    return neighbor_lists(build_item_knn(train, **kwargs), train.items)


def sim_of(lists, a, b):
    """Similarity of b in a's neighbour list; 0.0 when it is not there."""
    return dict(lists[a]).get(b, 0.0)


class TestItemKnn:
    def test_identical_vectors_similarity_one(self):
        # A and B rated identically by 3 users; C breaks the centering
        rows = []
        for n, u in enumerate(["1", "2", "3"]):
            rows += [(u, "A", 2.0 + n, n), (u, "B", 2.0 + n, n), (u, "C", 5.0 - n, n)]
        sim = knn_lists(rows, top_m=5, min_co_raters=3)
        assert sim_of(sim, "A", "B") == pytest.approx(1.0, abs=1e-9)

    def test_no_common_rater_pair_absent(self):
        rows = [("1", "A", 4.0, 1), ("2", "B", 4.0, 1)]
        sim = knn_lists(rows, top_m=5, min_co_raters=1)
        assert all(n != "B" for n, _ in sim["A"])

    def test_opposed_centered_vectors(self):
        # users 1,2 rate A,B; centered vectors (1,-1) and (-1,1) -> cosine -1
        rows = [("1", "A", 5.0, 1), ("1", "B", 3.0, 2),
                ("2", "A", 3.0, 3), ("2", "B", 5.0, 4)]
        sim = knn_lists(rows, top_m=5, min_co_raters=2)
        assert sim_of(sim, "A", "B") == pytest.approx(-1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        rows = [(f"u{u}", f"i{i}", float(rng.integers(1, 11)) / 2.0, u * 20 + i)
                for u in range(10) for i in range(8) if rng.random() < 0.7]
        sim = knn_lists(rows, top_m=10, min_co_raters=2)
        for a, neigh in sim.items():
            for b, s in neigh:
                assert abs(sim_of(sim, b, a) - s) < 1e-12

    def test_scores_bounded(self):
        rows = [("1", "A", 5.0, 1), ("1", "B", 3.0, 2),
                ("2", "A", 3.0, 3), ("2", "B", 5.0, 4)]
        sim = knn_lists(rows, top_m=5, min_co_raters=2)
        for neigh in sim.values():
            for _, s in neigh:
                assert -1.0 <= s <= 1.0


class TestModelSlate:
    def test_no_injection_is_pure_top_15(self):
        catalog, train, model = slate_corpus()
        exclusions = {str(i) for i in range(1, 6)}
        slate = gen_model_slate("u", model, catalog, train.item_codes(catalog.ids),
                                exclusions, 0, None, seed=1)
        eligible = [i for i in catalog.items if i not in exclusions]
        expected = sorted(eligible, key=lambda i: (-score_mf(model, "u", i), i))[:15]
        assert slate.items == expected

    def test_full_injection(self):
        catalog, train, model = slate_corpus()
        rel = RelevanceSet(user="u", relevant={str(i) for i in range(10, 25)})
        slate = gen_model_slate("u", model, catalog, train.item_codes(catalog.ids), set(),
                                15, rel, seed=1)
        assert set(slate.items) == rel.relevant

    def test_score_ties_break_by_item_id(self):
        catalog, train, model = slate_corpus()

        class ConstScorer:
            def score_items(self, user, items):
                return np.ones(len(items))

        slate = gen_model_slate("u", ConstScorer(), catalog, train.item_codes(catalog.ids),
                                set(), 0, None, seed=1)
        assert slate.items == sorted(catalog.items)[:15]

    @pytest.mark.parametrize("numbers", [3, 20])
    def test_nan_scores_rank_last_as_in_a_stable_sort(self, numbers):
        catalog, train, _ = slate_corpus()
        rng = np.random.default_rng(numbers)
        scores = np.full(len(catalog.ids), np.nan)
        scores[rng.choice(len(scores), numbers, replace=False)] = rng.choice(
            [-np.inf, 0.0, 1.0, np.inf], numbers)

        class NanScorer:
            def score_items(self, user, items):
                return scores

        slate = gen_model_slate("u", NanScorer(), catalog, train.item_codes(catalog.ids),
                                set(), 0, None, seed=1)
        assert slate.items == catalog.ids[np.argsort(-scores, kind="stable")[:15]].tolist()

    def test_knn_unknown_user(self):
        catalog, train, _ = slate_corpus()
        sim = build_item_knn(train, top_m=10, min_co_raters=2)
        rec = ItemKnnRecommender(sim, train)
        with pytest.raises(UnknownUser):
            gen_model_slate("ghost", rec, catalog, train.item_codes(catalog.ids), set(), 0,
                            None, seed=1)

    def test_slate_invariants(self):
        catalog, train, model = slate_corpus()
        rel = RelevanceSet(user="u", relevant={"30", "31", "32"})
        exclusions = {str(i) for i in range(1, 6)}
        slate = gen_model_slate("u", model, catalog, train.item_codes(catalog.ids),
                                exclusions, 3, rel, seed=1)
        assert len(slate.items) == 15
        assert len(set(slate.items)) == 15
        assert not (set(slate.items) & exclusions)


class CodeScorer:
    """Scores train item codes off a table of values; -1 scores absent."""

    def __init__(self, values, absent):
        self.values, self.absent = np.array(values, dtype=np.float64), absent

    def score_items(self, user, cols):
        scores = np.full(len(cols), self.absent)
        scores[cols >= 0] = self.values[cols[cols >= 0]]
        return scores


class IdScorer:
    """The same scores looked up by item id, as slate_oracle asks."""

    def __init__(self, by_id):
        self.by_id = by_id

    def score_items(self, user, ids):
        return np.array([self.by_id[i] for i in ids], dtype=np.float64)


SCORE_KINDS = {
    "constant": lambda rng, n: [1.5] * n,
    "few_values": lambda rng, n: [rng.choice([0.5, 1.0, 2.0]) for _ in range(n)],
    "signed_zeros": lambda rng, n: [rng.choice([0.0, -0.0, 1.0]) for _ in range(n)],
    "distinct": lambda rng, n: [rng.random() for _ in range(n)],
    # ranked like any score: neither dropped nor taken for a marker
    "non_finite": lambda rng, n: [rng.choice([math.inf, -math.inf, 1e308, -1e308, 0.0])
                                  for _ in range(n)],
}


def fuzz_ids(rng, n):
    """n distinct ids: "1".."n", whose string order is not numeric order
    from 10 on, or short strings over 0, 9, a and z."""
    if rng.random() < 0.5:
        return [str(i) for i in range(1, n + 1)]
    ids = set()
    while len(ids) < n:
        ids.add("".join(rng.choice("09az") for _ in range(rng.randint(1, 3))))
    return sorted(ids, key=lambda _: rng.random())


def slate_outcome(make, *args, **kwargs):
    """The slate's items, or the CatalogTooSmall message."""
    try:
        items = make(*args, **kwargs).items
    except CatalogTooSmall as e:
        return str(e)
    assert all(type(i) is str for i in items)
    return items


class TestAgainstIdOracle:
    """Slates picked over catalog positions against slate_oracle's id-based
    selection, item for item, on seeded random catalogs."""

    def test_random_catalogs(self):
        rng = random.Random(11)
        seen = Counter()
        for case in range(500):
            ids = fuzz_ids(rng, rng.randint(0, 45))
            catalog = Catalog(items={i: ItemCard(id=i, title=i) for i in ids})
            slate_size = rng.randint(1, 15)
            # ids not in the catalog, one of them after its last id
            outside = ["ghost", "0000", max(ids, default="") + "z"]
            excluded = set(rng.sample(ids, rng.randint(0, len(ids) // 2)))
            if len(ids) >= slate_size and rng.random() < 0.25:
                excluded = set(rng.sample(ids, len(ids) - slate_size))
            excluded |= set(rng.sample(outside, rng.randint(0, 3)))
            relevant = set(rng.sample(ids, rng.randint(0, len(ids))))
            relevant |= set(rng.sample(outside, rng.randint(0, 3)))
            relevance = RelevanceSet("u", relevant) if rng.random() < 0.9 else None
            inject = rng.randint(0, slate_size + 3)
            kind = rng.choice(list(SCORE_KINDS))
            train = interactions([("v", i, 3.0, 0) for i in
                                  rng.sample(ids, rng.randint(0, len(ids))) + ["t1", "t2"]])
            values = SCORE_KINDS[kind](rng, len(train.items))
            absent = rng.choice([0.0, -0.0, 1.5])
            codes = train.item_codes(catalog.ids)
            by_id = {i: values[c] if c >= 0 else absent
                     for i, c in zip(catalog.ids.tolist(), codes.tolist())}

            user, seed = f"u{case}", case
            args = (excluded, inject, relevance, seed)
            ours = slate_outcome(gen_model_slate, user, CodeScorer(values, absent), catalog,
                                 codes, *args, slate_size=slate_size)
            assert ours == slate_outcome(slate_oracle.gen_model_slate, user,
                                         IdScorer(by_id), catalog, *args,
                                         slate_size=slate_size)
            random_args = (user, catalog, excluded, seed)
            random_kwargs = dict(slate_size=slate_size, inject_positives=inject,
                                 relevance=relevance)
            assert slate_outcome(gen_random_slate, *random_args, **random_kwargs) == \
                slate_outcome(slate_oracle.gen_random_slate, *random_args, **random_kwargs)

            eligible = set(ids) - excluded
            positives = len(eligible & relevant)
            seen[kind] += isinstance(ours, list)
            seen["slates"] += isinstance(ours, list)
            seen["numeric_order_differs"] += "10" in ids and "9" in eligible
            seen["exactly_full"] += len(eligible) == slate_size
            seen["too_small"] += len(eligible) < slate_size
            seen["after_last_outside"] += bool({outside[2]} & excluded & relevant)
            seen["no_injection"] += inject == 0 and isinstance(ours, list)
            seen["full_injection"] += inject == slate_size and isinstance(ours, list)
            seen["more_injections_than_positives"] += (
                relevance is not None and inject > positives > 0 and isinstance(ours, list))
        assert min(seen[k] for k in [*SCORE_KINDS, "numeric_order_differs", "exactly_full",
                                     "too_small", "after_last_outside", "no_injection",
                                     "full_injection",
                                     "more_injections_than_positives"]) >= 5, seen
        assert seen["slates"] >= 300, seen


class TestSlateIo:
    def test_round_trip(self, tmp_path):
        catalog = make_catalog(20)
        slates = [gen_random_slate(u, catalog, set(), seed=4) for u in "ab"]
        path = tmp_path / "slates.jsonl"
        with commit(path) as (fh,):
            export_slates(fh, slates)
        loaded = import_slates(path)
        assert [(n, s.user, s.items, s.source) for n, s in loaded] == \
            [(n, s.user, s.items, s.source) for n, s in enumerate(slates, start=1)]

    def test_duplicate_items_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user": "u", "items": ["1", "1"], "source": "x"}\n')
        with pytest.raises(MalformedRow, match="line 1: items is not a list of distinct"):
            import_slates(path)
