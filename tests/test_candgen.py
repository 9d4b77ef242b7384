import math

import numpy as np
import pytest

from conftest import interactions, make_catalog, write_corpus
from knn_oracle import OracleKnnScorer, build_item_knn_oracle, neighbor_lists
from mf_oracle import score_mf, sgd_epoch_py
from rerankeval._kernels import sgd_epoch, wave_levels
from rerankeval.candgen import (ItemKnnRecommender, build_item_knn,
                                export_slates, gen_model_slate,
                                gen_random_slate, import_slates, train_mf)
from rerankeval.errors import CatalogTooSmall, UnknownUser
from rerankeval.ingest import (RelevanceSet, load_interactions, load_items,
                               split_leave_n_out, train_by_user)


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

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            train_mf(synthetic_rank1(), k=0)

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

    def test_hot_item_gives_long_level_chain(self):
        u_idx, i_idx, _, _ = sgd_problem(600, 60, 40, 8, zipf=1.5)
        levels = wave_levels(u_idx.tolist(), i_idx.tolist(), 60, 40)
        # every step on the hot item waits for the one before it
        assert levels.max() >= np.bincount(i_idx).max() > 100

    def test_levels_touch_disjoint_rows_after_their_dependencies(self):
        u_idx, i_idx, _, _ = sgd_problem(300, 12, 10, 1, zipf=1.0)
        levels = wave_levels(u_idx.tolist(), i_idx.tolist(), 12, 10)
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


class TestScoreMf:
    def test_unknown_user_and_item_fall_back_to_mean(self):
        model = train_mf(synthetic_rank1(), k=2, epochs=1, seed=0)
        assert score_mf(model, "ghost", "ghost") == pytest.approx(model.global_mean)

    def test_four_term_formula(self):
        model = train_mf(synthetic_rank1(2, 2), k=1, epochs=1, seed=0)
        model.global_mean = 3.5
        u = model.user_index["u0"]
        i = model.item_index["i0"]
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
            assert model.score_items(user, items).tolist() == \
                pytest.approx(expected, rel=1e-12)

    def test_knn_matches_per_item_score(self):
        catalog, train, _ = slate_corpus()
        rec = ItemKnnRecommender(build_item_knn(train, top_m=10, min_co_raters=2), train)
        oracle = OracleKnnScorer(build_item_knn_oracle(train, top_m=10, min_co_raters=2),
                                 train)
        items = sorted(catalog.items)
        assert rec.score_items("u", items).tolist() == [oracle.score("u", i) for i in items]

    @pytest.mark.parametrize("inject", [0, 3])
    def test_batched_mf_slates_match_score_mf(self, tmp_path, inject):
        class PerItemMf:
            def __init__(self, model):
                self.model = model

            def score_items(self, user, items):
                return np.array([score_mf(self.model, user, i) for i in items])

        ratings_path, items_path = write_corpus(tmp_path)
        catalog = load_items(items_path)
        split = split_leave_n_out(load_interactions(ratings_path))
        model = train_mf(split.train, k=8, epochs=5, seed=2)
        by_user = train_by_user(split.train)
        assert len(split.relevance) == 30
        for user, rel in split.relevance.items():
            exclusions = {r.item for r in by_user[user]}
            batched = gen_model_slate(user, model, catalog, exclusions, inject, rel, seed=4)
            per_item = gen_model_slate(user, PerItemMf(model), catalog, exclusions,
                                       inject, rel, seed=4)
            assert batched.items == per_item.items


def sim_of(sim, a, b):
    """Similarity of b in a's neighbour list; 0.0 when it is not there."""
    return dict(neighbor_lists(sim)[a]).get(b, 0.0)


class TestItemKnn:
    def test_identical_vectors_similarity_one(self):
        # A and B rated identically by 3 users; C breaks the centering
        rows = []
        for n, u in enumerate(["1", "2", "3"]):
            rows += [(u, "A", 2.0 + n, n), (u, "B", 2.0 + n, n), (u, "C", 5.0 - n, n)]
        sim = build_item_knn(interactions(rows), top_m=5, min_co_raters=3)
        assert sim_of(sim, "A", "B") == pytest.approx(1.0, abs=1e-9)

    def test_no_common_rater_pair_absent(self):
        rows = [("1", "A", 4.0, 1), ("2", "B", 4.0, 1)]
        sim = build_item_knn(interactions(rows), top_m=5, min_co_raters=1)
        assert all(n != "B" for n, _ in neighbor_lists(sim)["A"])

    def test_opposed_centered_vectors(self):
        # users 1,2 rate A,B; centered vectors (1,-1) and (-1,1) -> cosine -1
        rows = [("1", "A", 5.0, 1), ("1", "B", 3.0, 2),
                ("2", "A", 3.0, 3), ("2", "B", 5.0, 4)]
        sim = build_item_knn(interactions(rows), top_m=5, min_co_raters=2)
        assert sim_of(sim, "A", "B") == pytest.approx(-1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        rows = [(f"u{u}", f"i{i}", float(rng.integers(1, 11)) / 2.0, u * 20 + i)
                for u in range(10) for i in range(8) if rng.random() < 0.7]
        sim = build_item_knn(interactions(rows), top_m=10, min_co_raters=2)
        for a, neigh in neighbor_lists(sim).items():
            for b, s in neigh:
                assert abs(sim_of(sim, b, a) - s) < 1e-12

    def test_scores_bounded(self):
        rows = [("1", "A", 5.0, 1), ("1", "B", 3.0, 2),
                ("2", "A", 3.0, 3), ("2", "B", 5.0, 4)]
        sim = build_item_knn(interactions(rows), top_m=5, min_co_raters=2)
        for neigh in neighbor_lists(sim).values():
            for _, s in neigh:
                assert -1.0 <= s <= 1.0


class TestModelSlate:
    def test_no_injection_is_pure_top_15(self):
        catalog, train, model = slate_corpus()
        exclusions = {str(i) for i in range(1, 6)}
        slate = gen_model_slate("u", model, catalog, exclusions, 0, None, seed=1)
        eligible = [i for i in catalog.items if i not in exclusions]
        expected = sorted(eligible, key=lambda i: (-score_mf(model, "u", i), i))[:15]
        assert slate.items == expected

    def test_full_injection(self):
        catalog, train, model = slate_corpus()
        rel = RelevanceSet(user="u", relevant={str(i) for i in range(10, 25)})
        slate = gen_model_slate("u", model, catalog, set(), 15, rel, seed=1)
        assert set(slate.items) == rel.relevant

    def test_score_ties_break_by_item_id(self):
        catalog, train, model = slate_corpus()

        class ConstScorer:
            def score_items(self, user, items):
                return np.ones(len(items))

        slate = gen_model_slate("u", ConstScorer(), catalog, set(), 0, None, seed=1)
        assert slate.items == sorted(catalog.items)[:15]

    def test_knn_unknown_user(self):
        catalog, train, _ = slate_corpus()
        sim = build_item_knn(train, top_m=10, min_co_raters=2)
        rec = ItemKnnRecommender(sim, train)
        with pytest.raises(UnknownUser):
            gen_model_slate("ghost", rec, catalog, set(), 0, None, seed=1)

    def test_slate_invariants(self):
        catalog, train, model = slate_corpus()
        rel = RelevanceSet(user="u", relevant={"30", "31", "32"})
        exclusions = {str(i) for i in range(1, 6)}
        slate = gen_model_slate("u", model, catalog, exclusions, 3, rel, seed=1)
        assert len(slate.items) == 15
        assert len(set(slate.items)) == 15
        assert not (set(slate.items) & exclusions)


class TestSlateIo:
    def test_round_trip(self, tmp_path):
        catalog = make_catalog(20)
        slates = [gen_random_slate(u, catalog, set(), seed=4) for u in "ab"]
        path = tmp_path / "slates.jsonl"
        export_slates(slates, path)
        loaded = import_slates(path)
        assert [(s.user, s.items, s.source) for s in loaded] == \
            [(s.user, s.items, s.source) for s in slates]

    def test_duplicate_items_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"user": "u", "items": ["1", "1"], "source": "x"}\n')
        with pytest.raises(ValueError):
            import_slates(path)
