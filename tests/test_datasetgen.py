import hashlib
import json
import random
from collections import Counter

import numpy as np
import pytest

from conftest import make_catalog, make_history, make_slate
from rerankeval.candgen import stable_seed
from rerankeval.datasetgen import (DpoPair, SftSample, correct_ranking_for_user,
                                   make_dpo_pair, make_positive_sample,
                                   write_training_files)
from rerankeval.errors import GenerationOrderDrift
from rerankeval.ingest import RelevanceSet
from rerankeval.llm_client import ScriptedBackend
from rerankeval.rerank import parse_ranking


class TestMakePositiveSample:
    def test_offline_sample_round_trips(self, catalog):
        history = make_history("u", [1, 2])
        ranking = [str(i) for i in range(3, 18)]
        sample = make_positive_sample(None, history, ranking, catalog)
        parsed = parse_ranking(sample.completion, make_slate("u", ranking),
                               catalog=catalog)
        assert [r.item for r in parsed.ranked] == ranking
        assert len(sample.completion.splitlines()) == 15

    def test_echo_backend_keeps_order(self, catalog):
        history = make_history("u", [1])
        ranking = ["3", "4", "5"]
        backend = ScriptedBackend()  # echoes candidates in given order
        sample = make_positive_sample(backend, history, ranking, catalog)
        parsed = parse_ranking(sample.completion, make_slate("u", ranking),
                               catalog=catalog)
        assert [r.item for r in parsed.ranked] == ranking

    def test_reordering_backend_raises_drift(self, catalog):
        history = make_history("u", [1])
        ranking = ["3", "4", "5"]
        backend = ScriptedBackend(
            handler=lambda r: "Rank 1: 5 - x\nRank 2: 4 - y\nRank 3: 3 - z")
        with pytest.raises(GenerationOrderDrift):
            make_positive_sample(backend, history, ranking, catalog)


class TestMakeDpoPair:
    def test_two_items_forced_swap(self):
        positive = SftSample(prompt="p", completion="Rank 1: a - x\nRank 2: b - y")
        pair = make_dpo_pair(positive, seed=5)
        assert pair.rejected == "Rank 1: b - y\nRank 2: a - x"
        assert pair.chosen == positive.completion

    def test_multiset_equality(self, catalog):
        ranking = [str(i) for i in range(1, 11)]
        positive = make_positive_sample(None, make_history("u", [11]), ranking,
                                        catalog)
        pair = make_dpo_pair(positive, seed=3)
        chosen_items = [l.split(":", 1)[1].split(" - ")[0].strip()
                        for l in pair.chosen.splitlines()]
        rejected_items = [l.split(":", 1)[1].split(" - ")[0].strip()
                          for l in pair.rejected.splitlines()]
        assert Counter(chosen_items) == Counter(rejected_items)
        assert chosen_items != rejected_items

    def test_single_item_rejected(self):
        with pytest.raises(ValueError):
            make_dpo_pair(SftSample(prompt="p", completion="Rank 1: a - x"), seed=1)

    def test_deterministic(self):
        positive = SftSample(prompt="p", completion="\n".join(
            f"Rank {k}: i{k} - r{k}" for k in range(1, 8)))
        assert make_dpo_pair(positive, seed=2) == make_dpo_pair(positive, seed=2)

    @pytest.mark.parametrize("reply", ["shuffled_order", "chosen_order", "unknown_id",
                                       "one_line_short"])
    def test_rewrite_kept_only_in_the_shuffled_order(self, reply):
        positive = SftSample(prompt="p", completion="\n".join(
            f"Rank {k}: i{k} - r{k}" for k in range(1, 8)))

        def rewrite(text):
            return [line.split(" - ")[0] + " - rewritten" for line in text.splitlines()]

        def answer(request):
            lines = rewrite(positive.completion if reply == "chosen_order"
                            else request.user_prompt)
            if reply == "unknown_id":
                lines[3] = "Rank 4: i99 - rewritten"
            elif reply == "one_line_short":
                lines.pop()
            return "\n".join(lines)

        pair = make_dpo_pair(positive, seed=2, backend=ScriptedBackend(handler=answer))
        verbatim = make_dpo_pair(positive, seed=2).rejected
        assert pair.rejected == ("\n".join(rewrite(verbatim)) if reply == "shuffled_order"
                                 else verbatim)


def built_pairs(prompts):
    """(sample, pair) of each prompt, as build-dataset hands them to the writer."""
    samples = [SftSample(prompt=p, completion=f"Rank 1: a - {p}\nRank 2: b - x")
               for p in prompts]
    return [(s, make_dpo_pair(s, seed=i)) for i, s in enumerate(samples)]


class TestWriteTrainingFiles:
    def test_counts_and_round_trip(self, tmp_path):
        built = built_pairs([f"p{i}" for i in range(3)])
        manifest = write_training_files(built, tmp_path)
        assert manifest["sft"]["count"] == 3
        assert manifest["dpo"]["count"] == 3

        sft_lines = (tmp_path / "sft.jsonl").read_text().splitlines()
        assert len(sft_lines) == 3
        assert [SftSample(**json.loads(line)) for line in sft_lines] == [s for s, _ in built]

        dpo_lines = (tmp_path / "dpo.jsonl").read_text().splitlines()
        assert [DpoPair(**json.loads(line)) for line in dpo_lines] == [p for _, p in built]

    def test_lines_are_json_dumps_of_the_objects(self, tmp_path):
        built = built_pairs(['quote " slash \\ tab \t', "caf\u00e9 \U0001f600", ""])
        write_training_files(built, tmp_path)
        assert (tmp_path / "sft.jsonl").read_text() == "".join(
            json.dumps({"prompt": s.prompt, "completion": s.completion}) + "\n"
            for s, _ in built)
        assert (tmp_path / "dpo.jsonl").read_text() == "".join(
            json.dumps({"prompt": p.prompt, "chosen": p.chosen, "rejected": p.rejected})
            + "\n" for _, p in built)

    def test_empty_build(self, tmp_path):
        manifest = write_training_files([], tmp_path)
        assert manifest["sft"]["count"] == 0
        assert (tmp_path / "sft.jsonl").read_text() == ""
        assert (tmp_path / "dpo.jsonl").read_text() == ""
        assert json.loads((tmp_path / "manifest.json").read_text())["dpo"]["count"] == 0

    def test_hash_stable(self, tmp_path):
        built = built_pairs(["p"])
        m1 = write_training_files(built, tmp_path / "a")
        m2 = write_training_files(built, tmp_path / "b")
        assert m1 == m2

    def test_manifest_hashes_are_the_files_bytes(self, tmp_path):
        manifest = write_training_files(built_pairs([f"p{i} caf\u00e9" for i in range(4)]),
                                        tmp_path)
        for key in ("sft", "dpo"):
            data = (tmp_path / manifest[key]["path"]).read_bytes()
            assert manifest[key]["sha256"] == hashlib.sha256(data).hexdigest()
            assert data.count(b"\n") == manifest[key]["count"] == 4
        assert json.loads((tmp_path / "manifest.json").read_text()) == manifest

    def test_failing_line_source_leaves_no_file(self, tmp_path):
        good = built_pairs(["p"])[0]
        with pytest.raises(AttributeError):
            write_training_files([good, good, (None, good[1])], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_failing_line_source_keeps_the_previous_file(self, tmp_path):
        good = built_pairs(["p"])[0]
        write_training_files([good], tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(AttributeError):
            write_training_files([good, (None, good[1])], tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failing_dpo_line_keeps_both_earlier_files(self, tmp_path):
        # the sft line of the failing row is made, and the rows before it are
        # written to both temp files, before the dpo line fails
        built = built_pairs(["p0", "p1", "p2"])
        write_training_files(built[:1], tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["dpo.jsonl", "manifest.json", "sft.jsonl"]
        with pytest.raises(AttributeError):
            write_training_files(built[1:] + [(built[0][0], None)], tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failing_manifest_write_keeps_all_three_files(self, tmp_path, full_disk):
        # the JSONL files are complete when the manifest's write fails
        built = built_pairs(["p0", "p1"])
        write_training_files(built[:1], tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        full_disk.add("manifest.json")
        with pytest.raises(OSError, match="No space left on device"):
            write_training_files(built, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def filler_oracle(relevance, catalog, ranking, size, seed):
    """The filler as a pass over the catalog: a seeded sample of the sorted
    ids that are not relevant."""
    pool = [i for i in sorted(catalog.items) if i not in relevance.relevant]
    rng = np.random.default_rng(stable_seed(seed, "filler", relevance.user))
    need = min(size - len(ranking), len(pool))
    picks = rng.choice(len(pool), size=need, replace=False) if need else []
    return ranking + [pool[int(p)] for p in picks]


def test_correct_ranking_matches_the_catalog_pass_oracle():
    rng = random.Random(7)
    for case in range(500):
        catalog = make_catalog(rng.randrange(0, 40))
        relevant = {str(rng.randrange(1, 50)) for _ in range(rng.randrange(0, 20))}
        relevance = RelevanceSet(user=f"u{case}", relevant=relevant)
        entries = [(item, rng.choice([4.0, 4.5, 5.0]), rng.randrange(100))
                   for item in sorted(relevant)]
        size = rng.randrange(2, 50)
        ranking = correct_ranking_for_user(relevance, entries, catalog, size, case)
        head = ranking[:min(size, sum(i in catalog for i in relevant))]
        assert ranking == filler_oracle(relevance, catalog, head, size, case)
