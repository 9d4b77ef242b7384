import math
import random

import pytest

from rerankeval.errors import RerankEvalError
from rerankeval.ingest import RelevanceSet
from rerankeval.metrics import (evaluate_run, hit_ratio_at, ndcg_at,
                                precision_at, recall_at)


class TestHitRatio:
    def test_hit_in_window(self):
        assert hit_ratio_at(["b", "a", "c"], {"a"}, 3) == 1.0

    def test_hit_outside_window(self):
        assert hit_ratio_at(["b", "c", "a"], {"a"}, 2) == 0.0

    def test_empty_relevance(self):
        assert hit_ratio_at(["a", "b"], set(), 2) == 0.0


class TestRecall:
    def test_half_retrieved(self):
        ranking = ["a", "x", "b", "y", "z"]
        assert recall_at(ranking, {"a", "b", "c", "d"}, 5) == 0.5

    def test_all_retrieved(self):
        assert recall_at(["a", "b"], {"a", "b"}, 2) == 1.0

    def test_empty_relevance_convention(self):
        assert recall_at(["a"], set(), 1) == 0.0


class TestPrecision:
    def test_one_of_three(self):
        assert precision_at(["a", "b", "c"], {"a"}, 3) == pytest.approx(1 / 3)

    def test_all_relevant(self):
        assert precision_at(["a", "b"], {"a", "b"}, 2) == 1.0

    def test_short_ranking_keeps_denominator(self):
        assert precision_at(["a", "b"], {"a", "b"}, 10) == pytest.approx(0.2)


class TestNdcg:
    def test_perfect_single_hit(self):
        for n in (1, 3, 10):
            assert ndcg_at(["a", "x", "y"], {"a"}, n) == 1.0

    def test_single_relevant_at_position_two(self):
        # oracle: (1/log2(3)) / (1/log2(2)) = 0.63093
        assert ndcg_at(["x", "a", "y"], {"a"}, 3) == pytest.approx(0.6309, abs=1e-4)

    def test_two_relevant_positions_one_and_three(self):
        # oracle: (1 + 1/log2(4)) / (1 + 1/log2(3)) = 0.91972
        assert ndcg_at(["p", "x", "q"], {"p", "q"}, 3) == \
            pytest.approx(0.9198, abs=1e-4)

    def test_empty_relevance(self):
        assert ndcg_at(["a"], set(), 3) == 0.0

    def test_bounded(self):
        rng = random.Random(1)
        for _ in range(200):
            items = [str(i) for i in range(15)]
            rng.shuffle(items)
            relevant = set(rng.sample(items, rng.randint(0, 12)))
            v = ndcg_at(items, relevant, rng.choice([3, 5, 10]))
            assert 0.0 <= v <= 1.0


def brute_force_metric(metric, ranking, relevant, n):
    """Independent re-derivation used as the oracle for evaluate_run."""
    top = ranking[:n]
    hits = [i for i in top if i in relevant]
    if metric == "hit_ratio":
        return 1.0 if hits else 0.0
    if metric == "recall":
        return len(hits) / len(relevant) if relevant else 0.0
    if metric == "precision":
        return len(hits) / n
    if metric == "ndcg":
        if not relevant:
            return 0.0
        dcg = 0.0
        for pos in range(len(top)):
            if top[pos] in relevant:
                dcg += 1.0 / math.log2(pos + 2)
        idcg = 0.0
        for pos in range(min(n, len(relevant))):
            idcg += 1.0 / math.log2(pos + 2)
        return dcg / idcg
    raise ValueError(metric)


class TestEvaluateRun:
    def test_ideal_ordering_ndcg_one(self):
        rankings = {}
        relevance = {}
        for u in range(5):
            user = f"u{u}"
            rankings[user] = [f"r{i}" for i in range(10)] + [f"x{i}" for i in range(5)]
            relevance[user] = RelevanceSet(user=user,
                                           relevant={f"r{i}" for i in range(10)})
        for res in evaluate_run(rankings, relevance):
            if res.metric in ("ndcg", "hit_ratio"):
                assert res.mean == pytest.approx(1.0)

    def test_single_user_mean(self):
        rankings = {"u": ["a", "b", "c"]}
        relevance = {"u": RelevanceSet(user="u", relevant={"b"})}
        for res in evaluate_run(rankings, relevance, cutoffs=(3,)):
            assert res.mean == res.per_user["u"]

    def test_missing_relevance(self):
        with pytest.raises(RerankEvalError, match="^u$"):
            evaluate_run({"u": ["a"]}, {}, cutoffs=(1,))

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(42)
        rankings = {}
        relevance = {}
        for u in range(200):
            user = f"u{u}"
            pool = [str(i) for i in range(40)]
            size = rng.randint(1, 15)
            rankings[user] = rng.sample(pool, size)
            relevance[user] = RelevanceSet(
                user=user, relevant=set(rng.sample(pool, rng.randint(0, 12))))
        for res in evaluate_run(rankings, relevance):
            for user, value in res.per_user.items():
                expected = brute_force_metric(res.metric, rankings[user],
                                              relevance[user].relevant, res.n)
                assert value == pytest.approx(expected, abs=1e-9)

    def test_monotone_under_promoting_relevant_item(self):
        rng = random.Random(7)
        for _ in range(100):
            items = [str(i) for i in range(15)]
            rng.shuffle(items)
            relevant = set(rng.sample(items, 5))
            # find an adjacent (irrelevant, relevant) pair and swap it forward
            for pos in range(len(items) - 1):
                if items[pos] not in relevant and items[pos + 1] in relevant:
                    promoted = items.copy()
                    promoted[pos], promoted[pos + 1] = promoted[pos + 1], promoted[pos]
                    for n in (3, 5, 10):
                        for fn in (hit_ratio_at, recall_at, precision_at, ndcg_at):
                            assert fn(promoted, relevant, n) >= fn(items, relevant, n)
                    break
