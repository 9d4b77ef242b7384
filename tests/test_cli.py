import hashlib
import json
from collections import Counter

import pytest

from conftest import PeakBackend, candidate_ids, prompt_hash, write_corpus
from rerankeval import cli, ingest
from rerankeval.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, load_config, main
from rerankeval.errors import ExhaustedRetries
from rerankeval.llm_client import ScriptedBackend


@pytest.fixture
def corpus(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    ratings, items = write_corpus(data)
    run_dir = tmp_path / "run"
    return ratings, items, run_dir


def ingest_args(corpus, **extra):
    ratings, items, run_dir = corpus
    args = ["ingest", "--ratings", str(ratings), "--items", str(items),
            "--run-dir", str(run_dir)]
    for k, v in extra.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


def run_args(corpus, **extra):
    _, _, run_dir = corpus
    args = ["run", "--run-dir", str(run_dir), "--sample-count", "25"]
    for k, v in extra.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def per_user(report, column):
    """{(metric, n): {user: value}} of one report column."""
    return {(r["metric"], r["n"]): r["per_user"] for r in report[column]}


def prompt_items(run_dir, tmp_path, sample_count):
    """{user: ids of the items in the user's re-ranking prompt} for the users
    a run with sample_count and the default generator evaluates: the
    exported slate plus the sampled (recent) history."""
    out = tmp_path / "prompt_slates.jsonl"
    main(["export-slates", "--run-dir", str(run_dir), "--sample-count",
          str(sample_count), "--out", str(out)])
    split = json.loads((run_dir / "split.json").read_text())
    by_user = ingest.train_by_user([ingest.Interaction(*row) for row in split["train"]])
    return {s["user"]: set(s["items"]) | {
                e[0] for e in ingest.sample_history(by_user[s["user"]]).entries}
            for s in map(json.loads, out.read_text().splitlines())}


class TestConfig:
    def test_ini_with_flag_override(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[run]\nseed = 7\nslate_size = 15\ncutoffs = 3,5,10\n"
                       "offline = yes\nmf_reg = 1e-2\n"
                       "[backend]\nkind = scripted\nmax_retries = 1\ntimeout = 2\n")
        cfg = load_config(ini, {"seed": "9", "backend_model": "m"})
        assert cfg.seed == 9
        assert cfg.backend.max_retries == 1
        assert (cfg.cutoffs, cfg.offline, cfg.mf_reg) == ((3, 5, 10), True, 0.01)
        assert (cfg.backend.timeout, cfg.backend.model) == (2.0, "m")

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[run]\nbogus = 1\n")
        with pytest.raises(ValueError):
            load_config(ini)

    def test_cutoffs_above_slate_size_rejected(self):
        with pytest.raises(ValueError):
            load_config(None, {"slate_size": "5", "cutoffs": "3,10"})

    @pytest.mark.parametrize("section,line,message", [
        ("backend", "bogus = 1", "unknown config key: bogus"),
        ("backend", "max_retries = -1", "max_retries must be >= 0"),
        ("backend", "max_concurrent_requests = 0", "max_concurrent_requests must be >= 1"),
        ("run", "backend = http", "unknown config key: backend"),
    ])
    def test_bad_config_line_exits_2(self, corpus, tmp_path, capsys, section, line,
                                     message):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{section}]\n{line}\n")
        assert main([*ingest_args(corpus), "--config", str(ini)]) == EXIT_CONFIG
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("generator", "bogus", "unknown generator"),
        ("mode", "bogus", "unknown mode"),
        ("knn_top_m", "0", "knn_top_m"),
        ("mf_k", "0", "mf_k"),
        ("ranking_size", "1", "ranking_size"),
    ])
    def test_bad_value_rejected_before_any_work(self, corpus, monkeypatch, capsys,
                                                key, value, message):
        main(ingest_args(corpus))

        def no_work(*args):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr(cli, "_read_split", no_work)
        monkeypatch.setattr(cli.ingest, "load_interactions", no_work)
        assert main(run_args(corpus, **{key: value})) == EXIT_CONFIG
        assert main(ingest_args(corpus, **{key: value})) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count(f"error: {message}") == 2


class TestIngest:
    def test_writes_artifacts_and_summary(self, corpus, capsys):
        assert main(ingest_args(corpus)) == EXIT_OK
        out = capsys.readouterr().out
        assert "users: 30" in out
        assert "items: 60" in out
        assert "eval users: 30" in out
        _, _, run_dir = corpus
        assert (run_dir / "split.json").is_file()
        assert (run_dir / "catalog.jsonl").is_file()

    def test_rerun_is_content_identical(self, corpus):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        h1 = (sha(run_dir / "split.json"), sha(run_dir / "catalog.jsonl"))
        main(ingest_args(corpus))
        assert (sha(run_dir / "split.json"), sha(run_dir / "catalog.jsonl")) == h1

    def test_long_overviews_capped_at_15_words(self, corpus):
        ratings, items, run_dir = corpus
        lines = items.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + " ".join(
            f"w{i}" for i in range(25))
        items.write_text("\n".join(lines) + "\n")
        main(ingest_args(corpus))
        first = json.loads((run_dir / "catalog.jsonl").read_text().splitlines()[0])
        assert len(first["overview"].split()) <= 15

    def test_missing_ratings_exits_2(self, corpus, capsys):
        ratings, items, run_dir = corpus
        code = main(["ingest", "--ratings", str(ratings) + ".nope",
                     "--items", str(items), "--run-dir", str(run_dir)])
        assert code == EXIT_CONFIG
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_mode_none_reports_slate_order_metrics(self, corpus):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        assert main(run_args(corpus, mode="none")) == EXIT_OK
        report = json.loads((run_dir / "report.json").read_text())
        assert report["users_evaluated"] == 25
        assert "zero_shot" not in report
        means = {(r["metric"], r["n"]): r["mean"] for r in report["non_ranker"]}
        # injected positives guarantee hits somewhere in the slate
        assert 0.0 <= means[("ndcg", 10)] <= 1.0
        csv_head = (run_dir / "report.csv").read_text().splitlines()[0]
        assert csv_head == ("metric,n,non_ranker,zero_shot,sft_dpo,"
                            "p_zero_vs_non,p_sft_vs_non")

    def test_scripted_run_deterministic(self, corpus):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        assert main(run_args(corpus, mode="zero_shot")) in (0, 1)
        first = sha(run_dir / "report.json")
        main(run_args(corpus, mode="zero_shot"))
        assert sha(run_dir / "report.json") == first

    def test_oracle_backend_perfect_ndcg(self, corpus, monkeypatch):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        split = json.loads((run_dir / "split.json").read_text())
        relevance = {u: set(items) for u, items in split["relevance"].items()}
        # identify the user inside the prompt by their history item set
        by_user = ingest.train_by_user(
            [ingest.Interaction(*row) for row in split["train"]])
        history_key = {
            frozenset(e[0] for e in ingest.sample_history(rows).entries): u
            for u, rows in by_user.items()}

        def handler(request):
            lines = request.user_prompt.splitlines()
            hist = frozenset(l.split("[", 1)[1].split("]", 1)[0]
                             for l in lines if l.startswith("- ["))
            relevant = relevance[history_key[hist]]
            ids = [l.split("[", 1)[1].split("]", 1)[0] for l in lines
                   if l.split(".")[0].isdigit() and "[" in l]
            ordered = [i for i in ids if i in relevant] + \
                      [i for i in ids if i not in relevant]
            return "\n".join(f"Rank {k}: {i} - oracle"
                             for k, i in enumerate(ordered, start=1))

        monkeypatch.setattr(cli, "make_backend",
                            lambda cfg: ScriptedBackend(handler=handler))
        main(run_args(corpus, mode="trained", inject_positives=10))
        report = json.loads((run_dir / "report.json").read_text())
        means = {(r["metric"], r["n"]): r["mean"] for r in report["sft_dpo"]}
        assert means[("ndcg", 10)] == pytest.approx(1.0, abs=1e-9)

    def test_external_slates(self, corpus, tmp_path):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        out = tmp_path / "slates.jsonl"
        assert main(["export-slates", "--run-dir", str(run_dir),
                     "--sample-count", "10", "--out", str(out)]) == EXIT_OK
        # score the exported slates through the external path
        code = main(["run", "--run-dir", str(run_dir), "--sample-count", "10",
                     "--generator", "external", "--slates", str(out),
                     "--mode", "none"])
        assert code == EXIT_OK
        report = json.loads((run_dir / "report.json").read_text())
        assert report["users_evaluated"] == 10

    @pytest.mark.parametrize("bad_item", ["catalog", "train"])
    def test_bad_external_slate_skips_its_user(self, corpus, tmp_path, caplog,
                                               bad_item):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        out = tmp_path / "slates.jsonl"
        main(["export-slates", "--run-dir", str(run_dir), "--sample-count", "10",
              "--out", str(out)])
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        victim = lines[3]
        if bad_item == "catalog":
            victim["items"][5] = "999999"
        else:
            split = json.loads((run_dir / "split.json").read_text())
            victim["items"][5] = next(i for u, i, _, _ in split["train"]
                                      if u == victim["user"])
        out.write_text("".join(json.dumps(l) + "\n" for l in lines))
        code = main(["run", "--run-dir", str(run_dir), "--sample-count", "10",
                     "--generator", "external", "--slates", str(out),
                     "--mode", "zero_shot"])
        assert code == EXIT_PARTIAL
        report = json.loads((run_dir / "report.json").read_text())
        assert (report["users_evaluated"], report["users_skipped"]) == (9, 1)
        assert victim["user"] not in report["zero_shot"][0]["per_user"]
        reason = "not in the catalog" if bad_item == "catalog" else "rated in train"
        assert f"skipped user {victim['user']}: slate items {reason}" in caplog.text

    @pytest.mark.parametrize("case", ["empty_title", "unknown_item"])
    def test_unpromptable_item_skips_its_user(self, corpus, tmp_path, caplog, case):
        ratings, _, run_dir = corpus
        main(ingest_args(corpus))
        args = run_args(corpus, mode="zero_shot", sample_count=8)
        assert main(args) == EXIT_OK
        base = json.loads((run_dir / "report.json").read_text())
        if case == "empty_title":
            # an item that only one evaluated user's prompt shows
            shown = prompt_items(run_dir, tmp_path, 8)
            counts = Counter(i for items in shown.values() for i in items)
            item = min(i for i, n in counts.items() if n == 1)
            victim = next(u for u, items in shown.items() if item in items)
            cards = [json.loads(l) for l in (run_dir / "catalog.jsonl").read_text()
                     .splitlines()]
            for card in cards:
                if card["id"] == item:
                    card["title"] = ""
            (run_dir / "catalog.jsonl").write_text(
                "".join(json.dumps(c) + "\n" for c in cards))
            reason = f"empty title for item {item}"
        else:
            # the victim's latest rating, below the relevance threshold, is
            # of an item outside the catalog
            victim = sorted(per_user(base, "zero_shot")[("ndcg", 10)])[0]
            ratings.write_text(ratings.read_text() + f"{victim},999,2.0,999999\n")
            main(ingest_args(corpus))
            reason = "item 999 not in the catalog"
        caplog.clear()
        assert main(args) == EXIT_PARTIAL
        report = json.loads((run_dir / "report.json").read_text())
        assert (report["users_evaluated"], report["users_skipped"]) == (7, 1)
        assert f"skipped user {victim}: {reason}" in caplog.text
        for column in ("non_ranker", "zero_shot"):
            want = {key: {u: v for u, v in values.items() if u != victim}
                    for key, values in per_user(base, column).items()}
            assert per_user(report, column) == want
        # mode none shows no prompt, so no user is skipped
        assert main(run_args(corpus, mode="none", sample_count=8)) == EXIT_OK
        report = json.loads((run_dir / "report.json").read_text())
        assert (report["users_evaluated"], report["users_skipped"]) == (8, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_mf_exits_2(self, corpus, capsys):
        main(ingest_args(corpus))
        assert main(run_args(corpus, generator="mf", mf_learn_rate=50)) == EXIT_CONFIG
        assert "error: diverged at epoch 1; lower learn_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["one_user", "one_slate_left"])
    def test_fewer_than_two_users_fails_before_any_request(self, corpus, tmp_path,
                                                           monkeypatch, capsys, case):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        if case == "one_user":
            args = run_args(corpus, mode="zero_shot", sample_count=1)
        else:
            out = tmp_path / "slates.jsonl"
            main(["export-slates", "--run-dir", str(run_dir), "--sample-count", "2",
                  "--out", str(out)])
            lines = [json.loads(l) for l in out.read_text().splitlines()]
            lines[0]["items"][0] = "999999"
            out.write_text("".join(json.dumps(l) + "\n" for l in lines))
            args = run_args(corpus, mode="zero_shot", sample_count=2,
                            generator="external", slates=out)
        requests = []
        monkeypatch.setattr(cli, "make_backend", lambda cfg: ScriptedBackend(
            handler=lambda r: requests.append(r) or ""))
        assert main(args) == EXIT_CONFIG
        assert requests == []
        assert "error: re-ranking needs at least 2 evaluable users, got 1" in \
            capsys.readouterr().err


def dataset_answer(request):
    """Positive samples echo the candidate order, except that a quarter of
    the prompts (by hash) come back reversed on every attempt and drift; a
    DPO reason rewrite keeps each rank line's rank and id."""
    ids = candidate_ids(request.user_prompt)
    if not ids:
        return "\n".join(line.split(" - ")[0] + " - rewritten"
                         for line in request.user_prompt.splitlines())
    if prompt_hash(request) % 4 == 0:
        ids.reverse()
    return "\n".join(f"Rank {k}: {i} - reason {prompt_hash(request) % 97}"
                     for k, i in enumerate(ids, start=1))


def ranked_ids(text):
    """The item ids of text's "Rank k: <id> - <reason>" lines, as a set."""
    return {line.split(": ", 1)[1].split(" - ")[0] for line in text.splitlines()}


class TestBuildDataset:
    def test_offline_build_hash_stable(self, corpus):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        args = ["build-dataset", "--run-dir", str(run_dir),
                "--sample-count", "10", "--offline", "1",
                "--ranking-size", "10"]
        assert main(args) == EXIT_OK
        m1 = json.loads((run_dir / "manifest.json").read_text())
        assert m1["sft"]["count"] == 10
        assert m1["dpo"]["count"] == 10
        main(args)
        m2 = json.loads((run_dir / "manifest.json").read_text())
        assert m1 == m2

    def test_pooled_build_matches_serial(self, corpus, tmp_path, monkeypatch, caplog):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        backends = []

        def make(cfg):
            # sleeping by a hash of the prompt scrambles the completion order
            backends.append(PeakBackend(cfg.max_concurrent_requests,
                                        lambda r: 0.005 + prompt_hash(r) % 10 / 1000,
                                        dataset_answer))
            return backends[-1]

        monkeypatch.setattr(cli, "make_backend", make)
        built = {}
        for cap in (4, 1):
            out = tmp_path / f"cap{cap}"
            caplog.clear()
            code = main(["build-dataset", "--run-dir", str(run_dir),
                         "--sample-count", "12", "--ranking-size", "10",
                         "--out-dir", str(out),
                         "--backend-max-concurrent-requests", str(cap)])
            dropped = [r.getMessage().split()[4].rstrip(":") for r in caplog.records
                       if r.getMessage().startswith("dropped sample for user")]
            built[cap] = (code, dropped, [(out / name).read_bytes() for name in
                                          ("sft.jsonl", "dpo.jsonl", "manifest.json")])
        assert [b.peak for b in backends] == [4, 1]
        assert built[4] == built[1]
        code, dropped, _ = built[4]
        assert code == EXIT_PARTIAL
        assert dropped and dropped == sorted(dropped)

    def test_failed_dpo_rewrite_drops_only_its_user(self, corpus, tmp_path,
                                                     monkeypatch, capsys):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        victim = None

        def answer(request):
            ids = candidate_ids(request.user_prompt)
            if ids:
                return "\n".join(f"Rank {k}: {i} - fits" for k, i in enumerate(ids, 1))
            if ranked_ids(request.user_prompt) == victim:
                raise ExhaustedRetries("HTTP 503")
            return "\n".join(line.split(" - ")[0] + " - rewritten"
                             for line in request.user_prompt.splitlines())

        monkeypatch.setattr(cli, "make_backend", lambda cfg: PeakBackend(
            cfg.max_concurrent_requests,
            lambda r: 0.002 + prompt_hash(r) % 5 / 1000, answer))

        def build(cap):
            out = tmp_path / f"cap{cap}{victim is not None}"
            code = main(["build-dataset", "--run-dir", str(run_dir),
                         "--sample-count", "8", "--ranking-size", "10",
                         "--out-dir", str(out),
                         "--backend-max-concurrent-requests", str(cap)])
            dropped = capsys.readouterr().out.split("dropped: ")[1].split()[0]
            return code, dropped, [(out / name).read_text().splitlines()
                                   for name in ("sft.jsonl", "dpo.jsonl")]

        code, dropped, (sft, dpo) = build(4)
        assert (code, dropped, len(sft), len(dpo)) == (EXIT_OK, "0", 8, 8)
        victim = ranked_ids(json.loads(sft[2])["completion"])
        for cap in (1, 4):
            assert build(cap) == (EXIT_PARTIAL, "1",
                                  [sft[:2] + sft[3:], dpo[:2] + dpo[3:]])

    def test_unexpected_error_exits_2_and_cancels_pending(self, corpus, monkeypatch,
                                                          capsys):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        calls = []

        def answer(request):
            calls.append(request)
            if len(calls) == 1:
                raise ValueError("backend bug")
            return dataset_answer(request)

        monkeypatch.setattr(cli, "make_backend",
                            lambda cfg: PeakBackend(2, lambda r: 0.02, answer))
        code = main(["build-dataset", "--run-dir", str(run_dir), "--sample-count",
                     "20", "--ranking-size", "10"])
        assert code == EXIT_CONFIG
        assert "error: backend bug" in capsys.readouterr().err
        assert len(calls) < 10
        assert not (run_dir / "manifest.json").exists()

    def test_ranking_size_one_fails_cleanly(self, corpus, capsys):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        code = main(["build-dataset", "--run-dir", str(run_dir),
                     "--offline", "1", "--ranking-size", "1"])
        assert code == EXIT_CONFIG
        assert "ranking_size" in capsys.readouterr().err


class TestHumanEval:
    def test_identical_files_paired(self, tmp_path, capsys):
        f = tmp_path / "a.txt"
        f.write_text("4\n4\n4\n")
        assert main(["human-eval", str(f), str(f), "--paired"]) == EXIT_OK
        assert "no difference" in capsys.readouterr().out

    def test_clear_shift_significant(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("\n".join(["4.2", "4.4"] * 10) + "\n")   # mean 4.3
        b.write_text("\n".join(["3.5", "3.7"] * 10) + "\n")   # mean 3.6
        assert main(["human-eval", str(a), str(b)]) == EXIT_OK
        out = capsys.readouterr().out
        p = float(out.split("p = ")[1].split()[0])
        assert p < 0.01

    def test_unequal_lengths_paired_error(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("4\n4\n4\n")
        b.write_text("3\n3\n")
        assert main(["human-eval", str(a), str(b), "--paired"]) == EXIT_CONFIG

    def test_score_out_of_range(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("6\n")
        assert main(["human-eval", str(a), str(a)]) == EXIT_CONFIG
