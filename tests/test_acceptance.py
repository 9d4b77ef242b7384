"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import hashlib
import itertools
import json
import math
import random
import time

import pytest

from conftest import make_catalog, make_history, make_slate, write_corpus
from mf_oracle import score_mf
from rerankeval import candgen, ingest, metrics, rerank, stats
from rerankeval.cli import main as cli_main
from rerankeval.datasetgen import make_dpo_pair, make_positive_sample
from rerankeval.errors import UnparseableOutput, ZeroVariance
from rerankeval.llm_client import ScriptedBackend
from rerankeval.rerank import (RankedItem, RankingOutput,
                               aggregate_self_consistency, parse_ranking,
                               rerank_user)


def report(criterion, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {mark} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# --------------------------------------------------------------------------
# 1. Metric oracle equivalence
# --------------------------------------------------------------------------

def brute_force_metric(metric, ranking, relevant, n):
    top = ranking[:n]
    hits = [i for i in top if i in relevant]
    if metric == "hit_ratio":
        return 1.0 if hits else 0.0
    if metric == "recall":
        return len(hits) / len(relevant) if relevant else 0.0
    if metric == "precision":
        return len(hits) / n
    if not relevant:
        return 0.0
    dcg = sum(1.0 / math.log2(pos + 2)
              for pos, item in enumerate(top) if item in relevant)
    idcg = sum(1.0 / math.log2(pos + 2) for pos in range(min(n, len(relevant))))
    return dcg / idcg


def test_criterion_1_metric_oracle_equivalence():
    rng = random.Random(1001)
    start = time.monotonic()
    rankings, relevance = {}, {}
    for u in range(200):
        user = f"u{u}"
        pool = [str(i) for i in range(50)]
        rankings[user] = rng.sample(pool, rng.randint(1, 15))
        relevance[user] = ingest.RelevanceSet(
            user=user, relevant=set(rng.sample(pool, rng.randint(0, 12))))
    worst = 0.0
    for res in metrics.evaluate_run(rankings, relevance, cutoffs=(3, 5, 10)):
        for user, value in res.per_user.items():
            expected = brute_force_metric(res.metric, rankings[user],
                                          relevance[user].relevant, res.n)
            worst = max(worst, abs(value - expected))
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-9 and elapsed < 5.0,
           f"(max deviation {worst:.2e}, {elapsed:.2f}s)")


# --------------------------------------------------------------------------
# 2. NDCG hand cases
# --------------------------------------------------------------------------

def test_criterion_2_ndcg_hand_cases():
    ok = (
        abs(metrics.ndcg_at(["x", "a", "y"], {"a"}, 3) - 0.6309) <= 1e-4
        and abs(metrics.ndcg_at(["p", "x", "q"], {"p", "q"}, 3) - 0.9198) <= 1e-4
        and metrics.ndcg_at(["a", "b", "c"], {"a", "b", "c"}, 3) == 1.0
        and metrics.ndcg_at(["a", "b"], set(), 3) == 0.0
    )
    report(2, ok)


# --------------------------------------------------------------------------
# 3. Self-consistency oracle
# --------------------------------------------------------------------------

def oracle_position_sums(output_item_lists, slate_items):
    """Brute-force re-implementation of the position-sum aggregation."""
    penalty = len(slate_items) + 1
    scores = {}
    for item in slate_items:
        total = 0
        for seq in output_item_lists:
            total += seq.index(item) + 1 if item in seq else penalty
        scores[item] = total
    return sorted(scores.items(), key=lambda t: (t[1], t[0]))


def test_criterion_3_self_consistency_oracle():
    rng = random.Random(33)
    checked = 0
    for case in range(100):
        size = rng.randint(2, 8)
        slate_items = [str(i) for i in rng.sample(range(100), size)]
        slate = make_slate(f"u{case}", slate_items)
        k = rng.randint(1, 4)
        seqs = []
        for _ in range(k):
            kept = [i for i in slate_items if rng.random() > 0.25]
            rng.shuffle(kept)
            seqs.append(kept)
        outputs = [
            RankingOutput(user=slate.user,
                          ranked=[RankedItem(item=i, rank=r, reason="x")
                                  for r, i in enumerate(seq, start=1)],
                          raw_text="", missing=set(slate_items) - set(seq),
                          hallucinated=set())
            for seq in seqs]
        expected = oracle_position_sums(seqs, slate_items)
        got = aggregate_self_consistency(outputs, slate).ordered
        assert got == expected, f"case {case}: {got} != {expected}"
        # output-list-order invariance
        for perm in itertools.islice(itertools.permutations(outputs), 6):
            assert aggregate_self_consistency(list(perm), slate).ordered == expected
        checked += 1
    report(3, checked == 100, f"({checked} cases, exact match)")


# --------------------------------------------------------------------------
# 4. Pairwise unanimity
# --------------------------------------------------------------------------

def test_criterion_4_pairwise_unanimity():
    rng = random.Random(44)
    for case in range(1000):
        size = rng.randint(3, 10)
        slate_items = [str(i) for i in rng.sample(range(200), size)]
        slate = make_slate(f"u{case}", slate_items)
        x, y = rng.sample(slate_items, 2)
        k = rng.randint(2, 4)
        outputs = []
        for _ in range(k):
            seq = slate_items.copy()
            rng.shuffle(seq)
            if seq.index(x) > seq.index(y):
                ix, iy = seq.index(x), seq.index(y)
                seq[ix], seq[iy] = seq[iy], seq[ix]
            outputs.append(RankingOutput(
                user=slate.user,
                ranked=[RankedItem(item=i, rank=r, reason="x")
                        for r, i in enumerate(seq, start=1)],
                raw_text="", missing=set(), hallucinated=set()))
        consensus = aggregate_self_consistency(outputs, slate)
        items = consensus.items
        assert items.index(x) < items.index(y), f"case {case} violated unanimity"
    report(4, True, "(1000 cases)")


# --------------------------------------------------------------------------
# 5. Directional reproduction with a noisy oracle backend
# --------------------------------------------------------------------------

def test_criterion_5_directional_reproduction():
    start = time.monotonic()
    n_users = 200
    catalog = make_catalog(80 + n_users)
    candidate_pool = [str(i) for i in range(1, 81)]
    marker_items = {f"u{u}": str(80 + u + 1) for u in range(n_users)}
    marker_to_user = {v: k for k, v in marker_items.items()}

    rng = random.Random(55)
    relevance, slates, histories = {}, {}, {}
    for u in range(n_users):
        user = f"u{u}"
        rel = set(rng.sample(candidate_pool, 10))
        relevance[user] = ingest.RelevanceSet(user=user, relevant=rel)
        positives = rng.sample(sorted(rel), 5)
        negatives = rng.sample([i for i in candidate_pool if i not in rel], 10)
        items = positives + negatives
        rng.shuffle(items)
        slates[user] = make_slate(user, items)
        # history carries a user-unique marker item so the backend can
        # recover the user identity from the prompt alone
        histories[user] = make_history(user, [marker_items[user]])

    def noisy_oracle(request):
        lines = request.user_prompt.splitlines()
        marker = next(l.split("[", 1)[1].split("]", 1)[0]
                      for l in lines if l.startswith("- ["))
        rel = relevance[marker_to_user[marker]].relevant
        ids = [l.split("[", 1)[1].split("]", 1)[0] for l in lines
               if l.split(".")[0].isdigit() and "[" in l]
        # 80% per-item fidelity, deterministic per prompt
        h = int(hashlib.blake2b(request.user_prompt.encode(),
                                digest_size=8).hexdigest(), 16)
        local = random.Random(h)
        treated_relevant = {i for i in ids if i in rel and local.random() < 0.8}
        ordered = [i for i in ids if i in treated_relevant] + \
                  [i for i in ids if i not in treated_relevant]
        return "\n".join(f"Rank {k}: {i} - noisy oracle"
                         for k, i in enumerate(ordered, start=1))

    backend = ScriptedBackend(handler=noisy_oracle)
    baseline_rankings = {u: rerank.none_ranker(slates[u]).items for u in slates}
    reranked = {}
    for user in slates:
        consensus, _ = rerank_user(histories[user], slates[user], catalog,
                                   backend, k=3, seed=5)
        reranked[user] = consensus.items

    cutoffs = (3, 5, 10)
    base_res = metrics.evaluate_run(baseline_rankings, relevance, cutoffs)
    rank_res = metrics.evaluate_run(reranked, relevance, cutoffs)
    base_ndcg3 = next(r.mean for r in base_res if (r.metric, r.n) == ("ndcg", 3))
    rank_ndcg3 = next(r.mean for r in rank_res if (r.metric, r.n) == ("ndcg", 3))
    comparison = stats.compare_models(rank_res, base_res)
    p = comparison[("ndcg", 3)].p_value
    elapsed = time.monotonic() - start
    report(5, rank_ndcg3 > base_ndcg3 and p <= 0.05 and elapsed < 30.0,
           f"(NDCG@3 {base_ndcg3:.4f} -> {rank_ndcg3:.4f}, p={p:.2e}, "
           f"{elapsed:.1f}s, {len(slates)} users)")


# --------------------------------------------------------------------------
# 6. MF convergence on a synthetic rank-2 matrix
# --------------------------------------------------------------------------

def test_criterion_6_mf_convergence():
    rng = random.Random(66)
    n_users, n_items = 100, 50
    pu = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(n_users)]
    qi = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(n_items)]
    train_rows, held_rows = [], []
    ts = 0
    for u in range(n_users):
        for i in range(n_items):
            if rng.random() >= 0.30:
                continue
            r = 3.0 + sum(a * b for a, b in zip(pu[u], qi[i])) + rng.gauss(0, 0.05)
            r = min(5.0, max(0.5, r))
            ts += 1
            row = ingest.Interaction(user=f"u{u}", item=f"i{i}", rating=r,
                                     timestamp=ts)
            (held_rows if rng.random() < 0.1 else train_rows).append(row)

    model = candgen.train_mf(train_rows, k=8, epochs=100, learn_rate=0.03,
                             reg=0.02, seed=6)
    sse = sum((score_mf(model, r.user, r.item) - r.rating) ** 2
              for r in held_rows)
    held_rmse = math.sqrt(sse / len(held_rows))
    drop = (model.train_rmse[0] - model.train_rmse[-1]) / model.train_rmse[0]
    report(6, held_rmse <= 0.15 and drop >= 0.5,
           f"(held-out RMSE {held_rmse:.4f}, train RMSE drop {drop:.0%})")


# --------------------------------------------------------------------------
# 7. t-test closed forms
# --------------------------------------------------------------------------

def test_criterion_7_t_test_closed_forms():
    r = stats.paired_t_test([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])  # diffs 1,2,3
    ok_t = abs(r.t_value - 3.4641) <= 1e-4
    ok_p = abs(r.p_value - 0.0742) <= 1e-3
    with pytest.raises(ZeroVariance):
        stats.paired_t_test([1.0, 2.0], [1.0, 2.0])
    a, b = [1.0, 2.5, 4.0], [0.5, 3.0, 2.0]
    ok_anti = stats.paired_t_test(a, b).t_value == -stats.paired_t_test(b, a).t_value
    report(7, ok_t and ok_p and ok_anti,
           f"(t={r.t_value:.4f}, p={r.p_value:.4f})")


# --------------------------------------------------------------------------
# 8. Parser robustness fuzz
# --------------------------------------------------------------------------

def mutate_line(rng, line):
    ops = [
        lambda l: l,
        lambda l: l.upper(),
        lambda l: l.lower(),
        lambda l: "  " + l,
        lambda l: l.split(" - ")[0],                      # drop reason
        lambda l: l.replace(":", "", 1),                  # break grammar
        lambda l: l.replace("Rank", "Item"),
        lambda l: l + " - extra - dashes - here",
        lambda l: f"Rank {rng.randint(-5, 99)}: {rng.randint(900, 999)} - ghost",
        lambda l: "".join(rng.choices("abc:[]- 0123456789é世", k=20)),
        lambda l: "",
    ]
    return rng.choice(ops)(line)


def test_criterion_8_parser_fuzz():
    rng = random.Random(88)
    crashes = 0
    for case in range(10000):
        size = rng.randint(1, 15)
        slate_items = [str(i) for i in rng.sample(range(300), size)]
        slate = make_slate(f"u{case}", slate_items)
        order = slate_items.copy()
        rng.shuffle(order)
        lines = [f"Rank {k}: {i} - reason {k}"
                 for k, i in enumerate(order, start=1)]
        if rng.random() < 0.5 and lines:
            idx = rng.randrange(len(lines))
            lines[idx] = mutate_line(rng, lines[idx])
        if rng.random() < 0.2:
            lines.insert(rng.randint(0, len(lines)), mutate_line(rng, "junk"))
        raw = "\n".join(lines)

        try:
            parse_ranking(raw, slate, lenient=False)
        except UnparseableOutput:
            pass
        except Exception:
            crashes += 1

        try:
            out = parse_ranking(raw, slate, lenient=True)
            consensus = aggregate_self_consistency([out], slate)
            assert sorted(consensus.items) == sorted(slate_items)
        except Exception:
            crashes += 1
    report(8, crashes == 0, f"(10000 cases, {crashes} crashes)")


# --------------------------------------------------------------------------
# 9. End-to-end determinism of cmd_run
# --------------------------------------------------------------------------

def test_criterion_9_end_to_end_determinism(tmp_path):
    ratings, items = write_corpus(tmp_path)
    run_dir = tmp_path / "run"
    cli_main(["ingest", "--ratings", str(ratings), "--items", str(items),
              "--run-dir", str(run_dir)])
    args = ["run", "--run-dir", str(run_dir), "--mode", "zero_shot",
            "--sample-count", "20", "--seed", "17"]
    cli_main(args)
    first = (run_dir / "report.json").read_bytes()
    cli_main(args)
    second = (run_dir / "report.json").read_bytes()
    report(9, first == second, f"({len(first)} bytes, byte-identical)")


# --------------------------------------------------------------------------
# 10. Dataset round-trip invariants over a 500-pair build
# --------------------------------------------------------------------------

def test_criterion_10_dataset_round_trip():
    catalog = make_catalog(60)
    rng = random.Random(110)
    violations = 0
    for case in range(500):
        ranking = [str(i) for i in rng.sample(range(1, 61), 10)]
        history = make_history(f"u{case}", rng.sample(range(1, 61), 3))
        sample = make_positive_sample(None, history, ranking, catalog)
        parsed = parse_ranking(sample.completion, make_slate(f"u{case}", ranking),
                               catalog=catalog, lenient=True)
        if [r.item for r in parsed.ranked] != ranking:
            violations += 1
        pair = make_dpo_pair(sample, seed=case)
        chosen_items = [l.split(":", 1)[1].split(" - ")[0].strip()
                        for l in pair.chosen.splitlines()]
        rejected_items = [l.split(":", 1)[1].split(" - ")[0].strip()
                          for l in pair.rejected.splitlines()]
        if sorted(chosen_items) != sorted(rejected_items):
            violations += 1
        if chosen_items == rejected_items:
            violations += 1
    report(10, violations == 0, f"(500 pairs, {violations} violations)")
