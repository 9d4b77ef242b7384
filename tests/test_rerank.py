import itertools

import pytest

from conftest import make_catalog, make_history, make_slate
from rerankeval.candgen import stable_seed
from rerankeval.errors import EmptyTitle, HttpStatus, RerankEvalError, UnknownItem
from rerankeval.ingest import ItemCard, build_item_description
from rerankeval.llm_client import ScriptedBackend
from rerankeval.rerank import (RankedItem, RankingOutput, _describe,
                               aggregate_self_consistency, bootstrap_shuffles,
                               build_prompt, none_ranker, parse_ranking,
                               rerank_user)


def output(user, items, slate):
    ranked = [RankedItem(item=str(i), rank=k, reason="r")
              for k, i in enumerate(items, start=1)]
    return RankingOutput(user=user, ranked=ranked, raw_text="",
                         missing=set(slate.items) - {str(i) for i in items},
                         hallucinated=set())


class TestBuildPrompt:
    def test_block_structure(self, catalog):
        history = make_history("u", [1, 2])
        slate = make_slate("u", range(3, 18))
        system, user = build_prompt(history, slate, catalog)
        lines = user.splitlines()
        assert lines[0] == "User history:"
        assert sum(1 for l in lines if l.startswith("- [")) == 2
        cand = [l for l in lines if l.split(".")[0].isdigit()]
        assert len(cand) == 15
        # candidate lines follow slate order
        assert [l.split("[")[1].split("]")[0] for l in cand] == slate.items
        assert "Rank <k>: <item id> - <reason>" in system

    def test_deterministic(self, catalog):
        history = make_history("u", [1])
        slate = make_slate("u", range(2, 17))
        assert build_prompt(history, slate, catalog) == \
            build_prompt(history, slate, catalog)

    def test_unknown_item(self, catalog):
        history = make_history("u", [1])
        slate = make_slate("u", list(range(2, 16)) + [999])
        with pytest.raises(UnknownItem):
            build_prompt(history, slate, catalog)

    def test_describe_checks_every_call_and_describes_each_item_once(self):
        catalog = make_catalog(3)
        catalog.items["2"] = ItemCard(id="2", title="")
        first = _describe("1", catalog)
        for _ in range(3):
            with pytest.raises(UnknownItem):
                _describe("9", catalog)
            with pytest.raises(EmptyTitle):
                _describe("2", catalog)
            assert _describe("1", catalog) is first
        assert first == build_item_description(catalog.items["1"])


class TestParseRanking:
    def test_two_line_grammar(self, catalog):
        slate = make_slate("u", [42, 7, 9], source="x")
        out = parse_ranking("Rank 1: 42 - loves sci-fi\nRank 2: 7 - matches drama",
                            slate)
        assert [(r.item, r.rank) for r in out.ranked] == [("42", 1), ("7", 2)]
        assert out.missing == {"9"}

    def test_duplicate_keeps_first(self):
        slate = make_slate("u", [42, 7])
        out = parse_ranking("rank 1: 42 - x\nRank 1: 42 - y", slate)
        assert [(r.item, r.rank, r.reason) for r in out.ranked] == [("42", 1, "x")]

    def test_hallucinated_token_recorded(self):
        slate = make_slate("u", [1, 2])
        out = parse_ranking("Rank 1: 999 - nope", slate)
        assert out.hallucinated == {"999"}
        assert out.ranked == []
        assert out.missing == {"1", "2"}

    def test_title_matching(self, catalog):
        slate = make_slate("u", [1, 2, 3])
        out = parse_ranking("Rank 1: Movie 2 - good\nRank 2: movie 3! - ok",
                            slate, catalog=catalog)
        assert [r.item for r in out.ranked] == ["2", "3"]

    def test_bracketed_id(self):
        slate = make_slate("u", [5, 6])
        out = parse_ranking("Rank 1: [6] Whatever - fine", slate)
        assert out.ranked[0].item == "6"

    def test_id_then_title(self):
        # the line starts with a slate id, not with a slate title
        slate = make_slate("u", [42, 7])
        out = parse_ranking("Rank 1: 42 Some Title - reason", slate,
                            catalog=make_catalog(50))
        assert [(r.item, r.rank, r.reason) for r in out.ranked] == [("42", 1, "reason")]
        assert out.hallucinated == set()

    def test_rank_renumbering(self):
        slate = make_slate("u", [1, 2, 3])
        out = parse_ranking("Rank 1: 3 - a\nRank 7: 1 - b\nRank 9: 2 - c",
                            slate)
        assert [(r.item, r.rank) for r in out.ranked] == \
            [("3", 1), ("1", 2), ("2", 3)]

    def test_line_outside_grammar_skipped(self):
        slate = make_slate("u", [1])
        out = parse_ranking("Sure! Here is the ranking:\nRank 1: 1 - ok", slate)
        assert [(r.item, r.rank, r.reason) for r in out.ranked] == [("1", 1, "ok")]
        assert out.hallucinated == set()


class TestBootstrapShuffles:
    def test_k_permutations(self):
        slate = make_slate("u", range(1, 16))
        shuffles = bootstrap_shuffles(slate, 3, seed=1)
        assert len(shuffles) == 3
        for s in shuffles:
            assert sorted(s.items) == sorted(slate.items)

    def test_deterministic(self):
        slate = make_slate("u", range(1, 16))
        a = bootstrap_shuffles(slate, 3, seed=1)
        b = bootstrap_shuffles(slate, 3, seed=1)
        assert [s.items for s in a] == [s.items for s in b]


class TestAggregate:
    def test_hand_traced_sums(self):
        slate = make_slate("u", ["a", "b", "c"])
        outs = [output("u", seq, slate)
                for seq in (["a", "b", "c"], ["b", "a", "c"], ["a", "c", "b"])]
        consensus = aggregate_self_consistency(outs, slate)
        assert consensus.ordered == [("a", 4), ("b", 6), ("c", 8)]

    def test_idempotent_on_identical_outputs(self):
        slate = make_slate("u", ["x", "y", "z"])
        outs = [output("u", ["y", "z", "x"], slate)] * 3
        consensus = aggregate_self_consistency(outs, slate)
        assert consensus.items == ["y", "z", "x"]

    def test_missing_item_penalty(self):
        slate = make_slate("u", range(1, 16))
        full = output("u", [str(i) for i in range(1, 16)], slate)
        partial = output("u", [str(i) for i in range(1, 15)], slate)  # omits 15
        consensus = aggregate_self_consistency([full, partial, full], slate)
        scores = dict(consensus.ordered)
        assert scores["15"] == 15 + 16 + 15

    def test_order_invariance(self):
        slate = make_slate("u", ["a", "b", "c", "d"])
        outs = [output("u", seq, slate)
                for seq in (["a", "b", "c", "d"], ["d", "c"], ["b", "a", "d", "c"])]
        base = aggregate_self_consistency(outs, slate).ordered
        for perm in itertools.permutations(outs):
            assert aggregate_self_consistency(list(perm), slate).ordered == base

    def test_covers_slate_exactly(self):
        slate = make_slate("u", ["a", "b", "c", "d"])
        outs = [output("u", ["b"], slate)]
        consensus = aggregate_self_consistency(outs, slate)
        assert sorted(consensus.items) == ["a", "b", "c", "d"]

    def test_empty_outputs(self):
        with pytest.raises(RerankEvalError, match="need at least one ranking output"):
            aggregate_self_consistency([], make_slate("u", ["a"]))

    def test_slate_mismatch(self):
        slate = make_slate("u", ["a", "b"])
        bad = output("u", ["q"], make_slate("u", ["q", "b"]))
        with pytest.raises(RerankEvalError, match="ranks items outside the slate"):
            aggregate_self_consistency([bad], slate)

    def test_tie_break_by_item_id(self):
        slate = make_slate("u", ["b", "a"])
        outs = [output("u", ["b", "a"], slate), output("u", ["a", "b"], slate)]
        consensus = aggregate_self_consistency(outs, slate)
        assert consensus.items == ["a", "b"]  # both score 3


class TestNoneRanker:
    def test_identity(self):
        slate = make_slate("u", ["x", "y", "z"])
        consensus = none_ranker(slate)
        assert consensus.items == ["x", "y", "z"]
        assert [s for _, s in consensus.ordered] == [1, 2, 3]

    def test_idempotent(self):
        slate = make_slate("u", ["x", "y"])
        assert none_ranker(slate).ordered == none_ranker(slate).ordered


def oracle_backend(relevant):
    """Scripted backend that always ranks the relevant candidates first,
    preserving prompt order within each group."""
    def handler(request):
        ids = [line.split("[", 1)[1].split("]", 1)[0]
               for line in request.user_prompt.splitlines()
               if line.split(".")[0].isdigit() and "[" in line]
        ordered = [i for i in ids if i in relevant] + \
                  [i for i in ids if i not in relevant]
        return "\n".join(f"Rank {k}: {i} - oracle"
                         for k, i in enumerate(ordered, start=1))
    return ScriptedBackend(handler=handler)


class TestRerankUser:
    def test_echo_backend_matches_aggregation_oracle(self, catalog):
        history = make_history("u", [1, 2])
        slate = make_slate("u", range(3, 18))
        backend = ScriptedBackend()  # echoes candidates in prompt order
        consensus, outputs = rerank_user(history, slate, catalog, backend, k=3, seed=7)
        # brute-force: sum positions over the three seeded shuffles
        shuffles = bootstrap_shuffles(slate, 3, seed=7)
        scores = {i: 0 for i in slate.items}
        for s in shuffles:
            for pos, item in enumerate(s.items, start=1):
                scores[item] += pos
        expected = sorted(scores.items(), key=lambda t: (t[1], t[0]))
        assert consensus.ordered == expected
        assert len(outputs) == 3

    def test_requests_go_in_shuffle_order_with_per_bootstrap_seeds(self, catalog):
        history = make_history("u", [1, 2])
        slate = make_slate("u", range(3, 18))
        sent = []
        backend = ScriptedBackend(handler=lambda r: sent.append(r) or "")
        rerank_user(history, slate, catalog, backend, k=3, seed=4, temperature=0.2)
        assert [(r.system_prompt, r.user_prompt) for r in sent] == \
            [build_prompt(history, s, catalog) for s in bootstrap_shuffles(slate, 3, 4)]
        assert [r.seed for r in sent] == [stable_seed(4, "req", "u", n) % 2**31
                                          for n in range(3)]
        assert {r.temperature for r in sent} == {0.2}

    def test_oracle_backend_puts_relevant_first(self, catalog):
        relevant = {"3", "4", "5"}
        history = make_history("u", [1, 2])
        slate = make_slate("u", range(3, 18))
        consensus, _ = rerank_user(history, slate, catalog, oracle_backend(relevant),
                                   k=3, seed=1)
        assert set(consensus.items[:3]) == relevant

    def test_k_equals_one(self, catalog):
        history = make_history("u", [1])
        slate = make_slate("u", range(2, 17))
        backend = ScriptedBackend()
        consensus, outputs = rerank_user(history, slate, catalog, backend, k=1, seed=3)
        [out] = outputs
        assert consensus.items == [r.item for r in out.ranked]

    def test_all_failures_fall_back_to_slate_order(self, catalog):
        history = make_history("u", [1])
        slate = make_slate("u", range(2, 17))
        backend = ScriptedBackend(handler=lambda r: "complete gibberish")
        consensus, _ = rerank_user(history, slate, catalog, backend, k=3, seed=1)
        assert consensus.fallback
        assert consensus.items == slate.items

    def test_failed_request_is_an_empty_answer_and_other_errors_raise(self, catalog):
        history = make_history("u", [1])
        slate = make_slate("u", range(2, 17))
        calls = []

        def answer(request):
            calls.append(request)
            if len(calls) != 2:
                raise HttpStatus(500)
            return ScriptedBackend().complete(request).text

        consensus, outputs = rerank_user(history, slate, catalog,
                                         ScriptedBackend(handler=answer), k=3, seed=1)
        assert [len(out.ranked) for out in outputs] == [0, 15, 0]
        assert not consensus.fallback and outputs[0].raw_text == ""

        def bug(request):
            raise ValueError("backend bug")

        with pytest.raises(ValueError, match="backend bug"):
            rerank_user(history, slate, catalog, ScriptedBackend(handler=bug))

    def test_deterministic(self, catalog):
        history = make_history("u", [1, 2])
        slate = make_slate("u", range(3, 18))
        a = rerank_user(history, slate, catalog, ScriptedBackend(), k=3, seed=11)
        b = rerank_user(history, slate, catalog, ScriptedBackend(), k=3, seed=11)
        assert a[0].ordered == b[0].ordered
