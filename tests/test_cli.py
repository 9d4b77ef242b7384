import argparse
import hashlib
import json
import logging
import math
import os
import random
import re
import socket
import stat
import threading
import time
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import (PeakBackend, candidate_ids, damage_split, files_in, interactions,
                      prompt_hash, save_split, table_rows, traced, write_corpus)
from rerankeval import cli, ingest, rerank
from rerankeval.candgen import Slate
from rerankeval.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, load_config, main
from rerankeval.errors import ExhaustedRetries, HttpStatus
from rerankeval.llm_client import BackendConfig, ScriptedBackend


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


# (flag dest, field) of every setting: RunConfig's, then BackendConfig's as backend_<key>
SETTINGS = [(f.name, f) for f in fields(cli.RunConfig) if f.name != "backend"] + [
    (f"backend_{f.name}", f) for f in fields(BackendConfig)]
BOUNDED = [(dest, f) for dest, f in SETTINGS if {"min", "above"} & set(f.metadata)]
ENUMERATED = [(dest, f) for dest, f in SETTINGS if "choices" in f.metadata]
# what every accepted value below is loaded beside: a cutoff that fits a
# 1-item slate, and what an http backend needs
VALID = {"cutoffs": "1", "backend_endpoint": "http://h/v1", "backend_model": "m"}


def setting_of(cfg, dest):
    """The value of a setting, by its flag dest, in a loaded RunConfig."""
    if dest.startswith("backend_"):
        return getattr(cfg.backend, dest.removeprefix("backend_"))
    return getattr(cfg, dest)


def next_value(value, toward):
    """The value of value's type next to it toward +-inf: +-1 for an int."""
    if isinstance(value, int):
        return value + (1 if toward > 0 else -1)
    return math.nextafter(value, toward)


def oracle_backend(split):
    """A backend that ranks each prompt's relevant candidates first, in
    prompt order, then the others; it knows the user by their history."""
    relevance = {u: rs.relevant for u, rs in split.relevance.items()}
    history_key = {
        frozenset(e[0] for e in ingest.user_history(split.train, u).entries): u
        for u in split.train.users.tolist()}

    def handler(request):
        lines = request.user_prompt.splitlines()
        hist = frozenset(l.split("[", 1)[1].split("]", 1)[0]
                         for l in lines if l.startswith("- ["))
        relevant = relevance[history_key[hist]]
        ids = candidate_ids(request.user_prompt)
        ordered = [i for i in ids if i in relevant] + [i for i in ids if i not in relevant]
        return "\n".join(f"Rank {k}: {i} - oracle" for k, i in enumerate(ordered, start=1))

    return ScriptedBackend(handler=handler)


def per_user(report, column):
    """{(metric, n): {user: value}} of one report column."""
    return {(r["metric"], r["n"]): r["per_user"] for r in report[column]}


def prompt_items(run_dir):
    """{user: ids of the items in the user's re-ranking prompt} for the users
    the last run in run_dir evaluated: their slate in its slates.jsonl plus
    the sampled (recent) history."""
    train = ingest.read_split(run_dir / "split.json").train
    return {s["user"]: set(s["items"]) | {
                e[0] for e in ingest.user_history(train, s["user"]).entries}
            for s in map(json.loads, (run_dir / "slates.jsonl").read_text().splitlines())}


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

    @pytest.mark.parametrize("text,message", [
        ("seed = 7\n", "File contains no section headers"),
        ("[run]\nseed = 7\nseed = 8\n", "option 'seed' in section 'run' already exists"),
        ("[run]\nseed = 7\n[run]\n", "section 'run' already exists"),
    ], ids=["no_section_header", "duplicate_key", "duplicate_section"])
    def test_unparsable_ini_exits_2_and_writes_nothing(self, corpus, tmp_path, capsys,
                                                       text, message):
        _, _, run_dir = corpus
        ini = tmp_path / "cfg.ini"
        ini.write_text(text, encoding="utf-8")
        assert main([*ingest_args(corpus), "--config", str(ini)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ini}: ") and message in err
        assert not run_dir.exists()

    def test_missing_config_file_exits_2_and_writes_nothing(self, corpus, tmp_path, capsys):
        _, _, run_dir = corpus
        ini = tmp_path / "absent.ini"
        assert main([*ingest_args(corpus), "--config", str(ini)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: [Errno 2] No such file or directory: '{ini}'\n"
        assert not run_dir.exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("\ufeff[run]\nseed = 7\n", encoding="utf-8")
        assert load_config(ini).seed == 7

    def test_percent_sign_is_taken_as_written(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[backend]\nendpoint = http://h/v1%20x\n", encoding="utf-8")
        assert load_config(ini).backend.endpoint == "http://h/v1%20x"

    @pytest.mark.parametrize("key,value,message", [
        ("generator", "bogus", "unknown generator"),
        ("mode", "bogus", "unknown mode"),
        ("knn_top_m", "0", "knn_top_m"),
        ("mf_k", "0", "mf_k"),
        ("ranking_size", "1", "ranking_size"),
        ("n_test", "0", "n_test must be >= 1"),
        ("min_history", "0", "min_history must be >= 1"),
        ("history_limit", "0", "history_limit must be >= 1"),
        ("history_limit", "-1", "history_limit must be >= 1"),
        ("history_sample", "oldest", "history_sample must be"),
        ("history_sample", "random:x", "history_sample must be"),
        ("backend_kind", "bogus", "unknown backend kind: bogus"),
        ("backend_backoff_base", "-1", "backoff_base must be >= 0"),
        ("offline", "maybe", "offline must be one of 1, yes, true, on, 0, no, false, "
                             "off, got 'maybe'"),
        ("cutoffs", "", "cutoffs must name at least one cutoff"),
        ("mf_epochs", "0", "mf_epochs must be >= 1"),
        ("mf_epochs", "-2", "mf_epochs must be >= 1"),
        ("inject_positives", "-3", "inject_positives must be >= 0"),
        ("temperature", "-3", "temperature must be >= 0"),
        ("backend_endpoint", "localhost:9/v1", "endpoint must be an http or https URL "
                                               "with a host, got 'localhost:9/v1'"),
        ("backend_endpoint", "http:///v1", "endpoint must be an http or https URL"),
        ("backend_backoff_base", "nan", "backoff_base must be a finite number, got 'nan'"),
        ("backend_timeout", "nan", "timeout must be a finite number, got 'nan'"),
        ("backend_timeout", "inf", "timeout must be a finite number, got 'inf'"),
        ("temperature", "Infinity", "temperature must be a finite number, got 'Infinity'"),
        ("relevance_threshold", "NaN", "relevance_threshold must be a finite number"),
        ("mf_learn_rate", "nan", "mf_learn_rate must be a finite number"),
        ("mf_learn_rate", "-1", "mf_learn_rate must be > 0"),
        ("mf_learn_rate", "0", "mf_learn_rate must be > 0"),
        ("mf_reg", "-5", "mf_reg must be >= 0"),
        ("mf_reg", "-1e-3", "mf_reg must be >= 0"),
        ("temperature", "-inf", "temperature must be a finite number, got '-inf'"),
        ("backend_endpoint", "http://a..b/v1", "endpoint must be an http or https URL "
                                               "with a host, got 'http://a..b/v1'"),
        ("slate_size", "abc", "slate_size must be an integer, got 'abc'"),
        ("cutoffs", "3,x", "cutoffs must be a list of integers, got '3,x'"),
        ("backend_timeout", "abc", "timeout must be a finite number, got 'abc'"),
        ("seed", "1.5", "seed must be an integer, got '1.5'"),
        ("cutoffs", "5,3,3", "cutoffs must be distinct"),
        ("slate_size", "0", "slate_size must be >= 1"),
        ("bootstraps", "0", "bootstraps must be >= 1"),
        ("sample_count", "0", "sample_count must be >= 1"),
        ("cutoffs", "0,3", "cutoffs must be within [1, slate_size]"),
        ("backend_kind", "http", "http backend requires endpoint and model"),
    ])
    def test_bad_value_rejected_before_any_work(self, corpus, monkeypatch, capsys,
                                                key, value, message):
        main(ingest_args(corpus))

        def no_work(*args):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr(cli.ingest, "read_split", no_work)
        monkeypatch.setattr(cli.ingest, "load_interactions", no_work)
        assert main(run_args(corpus, **{key: value})) == EXIT_CONFIG
        assert main(ingest_args(corpus, **{key: value})) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count(f"error: {message}") == 2

    def test_negative_numbers_are_values_not_flags(self):
        # the pattern build_parser sets is argparse's private
        # _negative_number_matcher; an argparse that no longer has it fails here
        assert isinstance(argparse.ArgumentParser()._negative_number_matcher, re.Pattern)
        parser = cli.build_parser()
        for command in ("ingest", "run", "build-dataset"):
            for value in ("-1", "-.5", "-1e-3", "-5E+2", "-inf", "-NaN", "-Infinity"):
                assert parser.parse_args([command, "--mf-reg", value]).mf_reg == value

    @pytest.fixture
    def no_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before the config was checked")

        monkeypatch.setattr(cli.ingest, "read_split", no_work)
        monkeypatch.setattr(cli.ingest, "load_interactions", no_work)

    @pytest.mark.parametrize("dest,field", BOUNDED, ids=[dest for dest, _ in BOUNDED])
    def test_each_bound_holds_at_its_edge(self, tmp_path, capsys, no_work, dest, field):
        # an inclusive bound accepts itself and rejects the next value below;
        # an exclusive one rejects itself and accepts the next value above
        kind = type(field.default)
        if "min" in field.metadata:
            bound, sign = field.metadata["min"], ">="
            ok, bad = kind(bound), next_value(kind(bound), -math.inf)
        else:
            bound, sign = field.metadata["above"], ">"
            ok, bad = next_value(kind(bound), math.inf), kind(bound)
        assert setting_of(load_config(None, {**VALID, dest: str(ok)}), dest) == ok
        flag = f"--{dest.replace('_', '-')}"
        assert main(["run", "--run-dir", str(tmp_path), flag, str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {field.name} must be {sign} {bound}\n"

    @pytest.mark.parametrize("dest,field", ENUMERATED, ids=[dest for dest, _ in ENUMERATED])
    def test_each_choice_accepted_and_no_other(self, tmp_path, capsys, no_work, dest,
                                               field):
        for value in field.metadata["choices"]:
            assert setting_of(load_config(None, {**VALID, dest: value}), dest) == value
        flag = f"--{dest.replace('_', '-')}"
        assert main(["run", "--run-dir", str(tmp_path), flag, "bogus"]) == EXIT_CONFIG
        noun = field.metadata.get("noun", field.name)
        assert capsys.readouterr().err == f"error: unknown {noun}: bogus\n"

    def test_help_shows_each_default_and_rule(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "400")
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for dest, f in SETTINGS:
            flag = f"--{dest.replace('_', '-')} {dest.upper()} "
            assert text.count(flag) == 1, flag
            shown = text.split(flag)[1].split(" --")[0]
            default = (",".join(map(str, f.default)) if isinstance(f.default, tuple)
                       else str(f.default) or "''")
            rule = f.metadata
            expected = [rule.get("help"), " | ".join(rule.get("choices", ())),
                        *(f"{sign} {rule[key]}" for key, sign in
                          (("min", ">="), ("above", ">")) if key in rule),
                        f"default: {default}"]
            assert shown == "; ".join(filter(None, expected)), flag

    # sha256 of each subcommand's --help at 80 columns, pinned to the text
    # the parser gave when each settings subparser made its own flags
    HELP = {
        "ingest": "7edee3944c388c92655b22711ace402a9fa26e7f9895ddc48e23cdee77c8ed9d",
        "run": "012636c70219b5e162503b35598c5ab9f98528fcb3ff28a3619fcbf2b73d6313",
        "build-dataset": "19d70182df5aa1e676b9d51bfe797d1b7fac92b92720bf028ee77177149a602c",
        "human-eval": "cf47be0b6cf9899cdf6117b409bef38ec2283344e404b2404e2fbfe39acbc306",
    }

    @pytest.mark.parametrize("command", list(HELP))
    def test_help_text_is_pinned(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: rerankeval {command} [-h]")
        assert hashlib.sha256(out.encode()).hexdigest() == self.HELP[command]

    def test_readme_example_config_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        example, = re.findall(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"),
                              re.DOTALL)
        ini = tmp_path / "demo.ini"
        ini.write_text(example, encoding="utf-8")
        cfg = load_config(ini)
        assert (cfg.generator, cfg.mode, cfg.seed, cfg.backend.kind) == (
            "random", "zero_shot", 17, "http")

    def test_readme_lists_every_command_and_no_other(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        listed = set(re.findall(r"^rerankeval ([\w-]+)", readme.read_text(encoding="utf-8"),
                                re.MULTILINE))
        commands, = re.findall(r"\{(.*?)\}", cli.build_parser().format_usage())
        assert listed == set(commands.split(","))

    @pytest.mark.parametrize("command", [["run", "--mode", "zero_shot"],
                                         ["build-dataset"]])
    def test_missing_api_key_exits_2_before_any_work(self, corpus, monkeypatch, capsys,
                                                     command):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        main(run_args(corpus))
        main(["build-dataset", "--run-dir", str(run_dir), "--offline", "1"])
        before = {path.name: path.read_bytes() for path in run_dir.iterdir()}

        def no_work(*args):
            raise AssertionError("work started before the backend was checked")

        monkeypatch.setattr(cli.ingest, "read_split", no_work)
        monkeypatch.delenv("RERANKEVAL_TEST_KEY", raising=False)
        capsys.readouterr()
        code = main([command[0], "--run-dir", str(run_dir), *command[1:],
                     "--backend-kind", "http", "--backend-model", "m",
                     "--backend-endpoint", "http://127.0.0.1:9/v1/chat/completions",
                     "--backend-api-key-env", "RERANKEVAL_TEST_KEY"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: environment variable RERANKEVAL_TEST_KEY is not set\n"
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before


class TestIngest:
    def test_writes_artifacts_and_summary(self, corpus, capsys):
        assert main(ingest_args(corpus)) == EXIT_OK
        out = capsys.readouterr().out
        assert "users: 30" in out
        assert "items: 60" in out
        assert "eval users: 30" in out
        _, _, run_dir = corpus
        assert sorted(path.name for path in run_dir.iterdir()) == [
            "catalog.jsonl", "config.json", "split.json", "split.npz"]

    def test_user_whose_held_items_take_every_row_is_excluded(self, corpus, capsys):
        ratings, _, run_dir = corpus
        # u1 rated item 1 fifteen times, which counts as one rating, below the
        # bar; u2 and u3 rated 16 distinct items each
        lines = ["userId,itemId,rating,timestamp"]
        lines += [f"u1,1,5.0,{t}" for t in range(15)]
        lines += [f"u{u},{i},4.5,{i}" for u in (2, 3) for i in range(1, 17)]
        ratings.write_text("\n".join(lines) + "\n")
        assert main(ingest_args(corpus)) == EXIT_OK
        assert "eval users: 2 (excluded: 1)" in capsys.readouterr().out
        assert main(run_args(corpus)) == EXIT_OK
        report = json.loads((run_dir / "report.json").read_text())
        assert report["users_evaluated"] == 2
        assert report["users_skipped"] == 0

    def test_earlier_ratings_of_a_pair_change_nothing(self, corpus, capsys, caplog):
        # each (user, item) counts at its last rating in file order, so a file
        # with earlier ratings of its pairs runs as the file without them
        ratings, _, run_dir = corpus
        header, *lines = ratings.read_text().splitlines()
        rows = [line.split(",") for line in lines]
        rng = random.Random(5)
        late = max(int(r[3]) for r in rows) + 1
        earlier = [  # (index of the row to repeat, earlier rating, its timestamp)
            # u3's pair ahead of u1's first row: u3 appears first in the file
            (next(n for n, r in enumerate(rows) if r[0] == "u3"), "4.5", 5),
            # a qualifying 5.0, the latest rating of u4's, later re-rated low
            (next(n for n, r in enumerate(rows) if r[0] == "u4" and float(r[2]) < 4), "5.0",
             late),
            # a low rating, later re-rated high
            (next(n for n, r in enumerate(rows) if r[0] == "u5"), "1.0", late),
        ]
        earlier += [(rng.randrange(len(rows)), rng.choice(["0.5", "3.0", "4.0", "5.0"]),
                     rng.randrange(late)) for _ in range(20)]
        at = [0] + [rng.randrange(n + 1) for n, _, _ in earlier[1:]]
        keyed = [((n, 1), line) for n, line in enumerate(lines)]
        keyed += [((p, 0), ",".join((*rows[n][:2], rating, str(ts))))
                  for p, (n, rating, ts) in zip(at, earlier)]
        with_repeats = [line for _, line in sorted(keyed)]
        assert with_repeats[0].startswith("u3,")

        def outputs():
            assert main(ingest_args(corpus)) == EXIT_OK
            files = {name: (run_dir / name).read_bytes()
                     for name in ("split.json", "split.npz")}
            for generator in ("random", "mf", "knn"):
                for mode in ("none", "zero_shot"):
                    main(run_args(corpus, generator=generator, mode=mode, sample_count=30))
                    files[generator, mode] = (run_dir / "report.json").read_bytes()
            assert main(["build-dataset", "--run-dir", str(run_dir), "--sample-count", "30",
                         "--offline", "1"]) == EXIT_OK
            files["manifest.json"] = (run_dir / "manifest.json").read_bytes()
            return files

        expected = outputs()
        capsys.readouterr()
        ratings.write_text("\n".join([header, *with_repeats]) + "\n")
        caplog.set_level(logging.INFO, logger="rerankeval.ingest")
        assert outputs() == expected
        assert f"interactions: {len(with_repeats)}\n" in capsys.readouterr().out
        assert "split: 30 eval users, 0 excluded, 23 repeat ratings dropped" in caplog.text

    def test_rerun_is_content_identical(self, corpus):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        names = ("split.json", "split.npz", "catalog.jsonl")
        h1 = [sha(run_dir / name) for name in names]
        main(ingest_args(corpus))
        assert [sha(run_dir / name) for name in names] == h1

    def test_long_overviews_capped_at_15_words(self, corpus):
        ratings, items, run_dir = corpus
        lines = items.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + " ".join(
            f"w{i}" for i in range(25))
        items.write_text("\n".join(lines) + "\n")
        main(ingest_args(corpus))
        first = json.loads((run_dir / "catalog.jsonl").read_text().splitlines()[0])
        assert len(first["overview"].split()) <= 15

    def test_header_only_ratings_exits_2_and_writes_nothing(self, corpus, tmp_path, capsys):
        ratings, items, run_dir = corpus
        header = tmp_path / "header.csv"
        header.write_text(ratings.read_text().splitlines()[0] + "\n")
        code = main(["ingest", "--ratings", str(header), "--items", str(items),
                     "--run-dir", str(run_dir)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: no eligible evaluation users (excluded: 0)\n"
        assert not run_dir.exists()

    def test_missing_ratings_exits_2(self, corpus, capsys):
        ratings, items, run_dir = corpus
        code = main(["ingest", "--ratings", str(ratings) + ".nope",
                     "--items", str(items), "--run-dir", str(run_dir)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: [Errno 2] No such file or directory: '{ratings}.nope'\n"


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
        split = ingest.read_split(run_dir / "split.json")
        monkeypatch.setattr(cli, "make_backend", lambda cfg: oracle_backend(split))
        main(run_args(corpus, mode="trained", inject_positives=10))
        report = json.loads((run_dir / "report.json").read_text())
        means = {(r["metric"], r["n"]): r["mean"] for r in report["sft_dpo"]}
        assert means[("ndcg", 10)] == pytest.approx(1.0, abs=1e-9)

    def test_constant_difference_is_starred_with_a_null_t(self, corpus, monkeypatch,
                                                          tmp_path):
        # every slate puts its relevant items last and the oracle ranks them
        # first, so every user's hit ratio at 1 goes from 0 to 1
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        split = ingest.read_split(run_dir / "split.json")
        assert main(run_args(corpus, inject_positives=3)) == EXIT_OK
        slates = tmp_path / "slates.jsonl"
        with slates.open("w", encoding="utf-8") as fh:
            for slate in map(json.loads, (run_dir / "slates.jsonl").read_text().splitlines()):
                relevant = split.relevance[slate["user"]].relevant
                slate["items"].sort(key=lambda item: item in relevant)
                assert slate["items"][0] not in relevant and slate["items"][-1] in relevant
                fh.write(json.dumps(slate) + "\n")
        monkeypatch.setattr(cli, "make_backend", lambda cfg: oracle_backend(split))
        assert main(run_args(corpus, mode="zero_shot", generator="external",
                             slates=slates, cutoffs="1,3")) == EXIT_OK
        # strict JSON: no Infinity or NaN
        report = json.loads((run_dir / "report.json").read_text(),
                            parse_constant=lambda name: pytest.fail(name))
        assert report["comparison_vs_non"]["hit_ratio@1"] == \
            {"t": None, "df": 24.0, "p": 0.0, "stars": "***"}
        assert "hit_ratio,1,0.0000,1.0000,,0.000***," in \
            (run_dir / "report.csv").read_text().splitlines()
        # the tables are a view of the record alone
        assert {name: text.encode() + b"\n"
                for name, text in cli._report_tables(report).items()} == \
            {name: (run_dir / name).read_bytes() for name in ("report.csv", "report.txt")}

    def test_fallback_user_exits_1(self, corpus, monkeypatch):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        monkeypatch.setattr(cli, "make_backend", lambda cfg: ScriptedBackend(
            handler=failing_user_answer(corpus, 0)))
        assert main(run_args(corpus, mode="zero_shot")) == EXIT_PARTIAL
        report = json.loads((run_dir / "report.json").read_text())
        assert (report["users_evaluated"], report["users_skipped"],
                report["bootstrap_fallbacks"]) == (25, 0, 1)

    def test_unexpected_backend_error_exits_2(self, corpus, monkeypatch, capsys):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        cap, k = 4, 3
        calls = []
        lock = threading.Lock()

        def answer(request):
            with lock:
                calls.append(request)
                first = len(calls) == 1
            if first:
                raise ValueError("backend bug")
            time.sleep(0.02)
            return dataset_answer(request)

        monkeypatch.setattr(cli, "make_backend", lambda cfg: ScriptedBackend(
            handler=answer, max_concurrent_requests=cfg.max_concurrent_requests))
        assert main(run_args(corpus, mode="zero_shot", bootstraps=k,
                             backend_max_concurrent_requests=cap)) == EXIT_CONFIG
        assert "error: backend bug" in capsys.readouterr().err
        # no user starts after the failure; the users already running finish
        assert len(calls) <= 1 + (cap - 1) * k
        assert not any((run_dir / name).exists()
                       for name in ("report.json", "report.csv", "report.txt"))

    def test_pooled_run_matches_serial(self, corpus, monkeypatch, caplog):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        answer = failing_user_answer(corpus, 0, 2)
        runs = {}
        for cap in (4, 1):
            # the cap is the backend's, not the config's, so that report.json
            # records the same config; sleeping by a hash of the prompt
            # scrambles the completion order
            backend = PeakBackend(cap, lambda r: prompt_hash(r) % 10 / 1000, answer)
            monkeypatch.setattr(cli, "make_backend", lambda cfg: backend)
            caplog.clear()
            code = main(run_args(corpus, mode="zero_shot"))
            assert backend.peak == cap
            fallbacks = [r.args[1] for r in caplog.records
                         if "bootstraps failed" in r.getMessage()]
            runs[cap] = (code, fallbacks, [
                (run_dir / name).read_bytes()
                for name in ("report.json", "report.csv", "report.txt")])
        assert runs[4] == runs[1]
        code, fallbacks, (report, _, _) = runs[4]
        assert code == EXIT_PARTIAL
        assert json.loads(report)["bootstrap_fallbacks"] == len(fallbacks) == 2
        assert fallbacks == sorted(fallbacks)

    @pytest.mark.parametrize("users,cap,peak", [(25, 6, 6), (5, 6, 5)],
                             ids=["more_users_than_cap", "fewer_users_than_cap"])
    def test_requests_in_flight_reach_cap_or_user_count(self, corpus, monkeypatch,
                                                       users, cap, peak):
        # each user's bootstraps go in sequence, so a user holds one request
        main(ingest_args(corpus))
        backend = PeakBackend(cap, lambda r: 0.02, dataset_answer)
        monkeypatch.setattr(cli, "make_backend", lambda cfg: backend)
        assert main(run_args(corpus, mode="zero_shot", sample_count=users)) in (0, 1)
        assert backend.peak == peak

    def test_memory_does_not_grow_with_replies(self, tmp_path, monkeypatch):
        # each reply gives every one of the 15 candidates a 2,000-character
        # reason; a run that kept every user's k replies would grow by k of
        # them per user
        ratings, items = write_corpus(tmp_path, n_users=400, n_items=120)
        run_dir = tmp_path / "run"
        main(ingest_args((ratings, items, run_dir)))
        reason = "x" * 2000
        monkeypatch.setattr(cli, "make_backend", lambda cfg: ScriptedBackend(
            handler=lambda request: "\n".join(
                f"Rank {k}: {i} - {reason}"
                for k, i in enumerate(candidate_ids(request.user_prompt), start=1))))
        args = ["run", "--run-dir", str(run_dir), "--mode", "zero_shot",
                "--slate-size", "15"]
        main([*args, "--sample-count", "5"])  # first-call caches and imports
        peaks = []
        for count in (20, 80):
            rc, _, peak = traced(main, [*args, "--sample-count", str(count)])
            assert rc == EXIT_OK
            peaks.append(peak)
        reply_length = 15 * len(f"Rank 15: 120 - {reason}\n")
        assert peaks[1] - peaks[0] < 60 * reply_length

    def test_external_slates(self, corpus):
        # a run on its own slates.jsonl, read and replaced in place, builds
        # the same slates and the same report, but for the config
        _, _, run_dir = corpus
        slates = run_dir / "slates.jsonl"
        main(ingest_args(corpus))
        assert main(run_args(corpus, generator="knn", mode="none")) == EXIT_OK
        report, digest = (run_dir / "report.json").read_text(), sha(slates)
        assert main(run_args(corpus, generator="external", slates=slates,
                             mode="none")) == EXIT_OK
        again = json.loads((run_dir / "report.json").read_text())
        assert again["config"]["slates"] == str(slates)
        again["config"].update(generator="knn", slates="")
        assert json.dumps(again, indent=2, sort_keys=True) + "\n" == report
        assert sha(slates) == digest

    @pytest.mark.parametrize("bad_item", ["catalog", "train", "empty", "duplicate", "missing"])
    def test_bad_external_slate_skips_its_user(self, corpus, tmp_path, caplog,
                                               monkeypatch, bad_item):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        main(run_args(corpus, sample_count=10))
        lines = [json.loads(l) for l in (run_dir / "slates.jsonl").read_text().splitlines()]
        out = tmp_path / "slates.jsonl"
        victim = lines[3]
        train = ingest.read_split(run_dir / "split.json").train
        if bad_item == "catalog":
            victim["items"][5] = "999999"
        elif bad_item == "train":
            victim["items"][5] = train.entries(victim["user"])[0][0]
        elif bad_item == "empty":
            victim["items"] = []
        elif bad_item == "missing":  # no line for the user of line 4
            lines.remove(victim)
        else:  # a second slate, on line 11, for the user of line 4
            lines.append({**victim, "items": victim["items"][::-1]})
        out.write_text("".join(json.dumps(l) + "\n" for l in lines))
        prompts = []
        backend = ScriptedBackend()
        monkeypatch.setattr(backend, "complete", lambda request, echo=backend.complete:
                            prompts.append(request.user_prompt) or echo(request))
        monkeypatch.setattr(cli, "make_backend", lambda cfg: backend)
        code = main(["run", "--run-dir", str(run_dir), "--sample-count", "10",
                     "--generator", "external", "--slates", str(out),
                     "--mode", "zero_shot"])
        assert code == EXIT_PARTIAL
        report = json.loads((run_dir / "report.json").read_text())
        assert (report["users_evaluated"], report["users_skipped"]) == (9, 1)
        assert victim["user"] not in report["zero_shot"][0]["per_user"]
        reason = {"catalog": "slate items not in the catalog",
                  "train": "slate items rated in train", "empty": "empty slate",
                  "duplicate": "2 external slates, on lines 4, 11",
                  "missing": "no external slate"}[bad_item]
        assert f"skipped user {victim['user']}: {reason}" in caplog.text
        # the skipped user's history opens no prompt: it sent no request
        catalog = ingest.load_items(run_dir / "catalog.jsonl")
        _, prompt = rerank.build_prompt(ingest.user_history(train, victim["user"]),
                                        Slate(user=victim["user"], items=[], source="x"),
                                        catalog)
        history_block = prompt.split("Candidates:")[0]
        assert len(prompts) == 9 * 3
        assert not any(p.startswith(history_block) for p in prompts)

    @pytest.mark.parametrize("case", ["empty_title", "unknown_item"])
    def test_unpromptable_item_skips_its_user(self, corpus, caplog, case):
        ratings, _, run_dir = corpus
        main(ingest_args(corpus))
        args = run_args(corpus, mode="zero_shot", sample_count=8)
        assert main(args) == EXIT_OK
        base = json.loads((run_dir / "report.json").read_text())
        if case == "empty_title":
            # an item that only one evaluated user's prompt shows
            shown = prompt_items(run_dir)
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

    def test_too_few_eligible_items_skips_its_user(self, corpus, caplog):
        ratings, _, run_dir = corpus
        # the victim rates five more items, below the relevance threshold, so
        # 60 - 20 train items are eligible for their slate; every other
        # user has 60 - 15
        victim = "u3"
        text = ratings.read_text()
        rated = {l.split(",")[1] for l in text.splitlines() if l.startswith(victim + ",")}
        extra = [i for i in map(str, range(1, 61)) if i not in rated][:5]
        ratings.write_text(text + "".join(f"{victim},{i},1.0,{99000 + k}\n"
                                          for k, i in enumerate(extra)))
        main(ingest_args(corpus))
        assert main(run_args(corpus, sample_count=30, slate_size=45,
                             mode="zero_shot")) == EXIT_PARTIAL
        assert caplog.text.count("skipped user") == 1
        assert f"skipped user {victim}: 40 eligible items < slate size 45" in caplog.text
        report = json.loads((run_dir / "report.json").read_text())
        assert (report["users_evaluated"], report["users_skipped"]) == (29, 1)
        assert victim not in report["zero_shot"][0]["per_user"]
        # slates.jsonl holds the slates of the evaluated users, in user order
        slated = [json.loads(l)["user"] for l in
                  (run_dir / "slates.jsonl").read_text().splitlines()]
        assert slated == sorted(report["zero_shot"][0]["per_user"])

    def test_negative_seed_trains_mf_reproducibly(self, corpus):
        # every generator takes any integer seed; MF's factors are drawn from it
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        args = run_args(corpus, generator="mf", seed=-1, mf_epochs=3)
        assert main(args) == EXIT_OK
        first = (run_dir / "report.json").read_bytes()
        assert main(args) == EXIT_OK
        assert (run_dir / "report.json").read_bytes() == first

    def test_diverging_mf_exits_2(self, corpus, capsys):
        main(ingest_args(corpus))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
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
            main(run_args(corpus, sample_count=2))
            lines = [json.loads(l) for l in (run_dir / "slates.jsonl").read_text()
                     .splitlines()]
            lines[0]["items"][0] = "999999"
            out = tmp_path / "slates.jsonl"
            out.write_text("".join(json.dumps(l) + "\n" for l in lines))
            args = run_args(corpus, mode="zero_shot", sample_count=2,
                            generator="external", slates=out)
        requests = []
        monkeypatch.setattr(cli, "make_backend", lambda cfg: ScriptedBackend(
            handler=lambda r: requests.append(r) or ""))
        before = files_in(run_dir)
        assert main(args) == EXIT_CONFIG
        assert requests == []
        assert "error: re-ranking needs at least 2 evaluable users, got 1" in \
            capsys.readouterr().err
        # no slates.jsonl and no report is written, or replaced
        assert files_in(run_dir) == before


def joined_rows(split):
    """split's train rows, then its test rows, as one table, and the indices
    of the test rows in it: the split as versions before format 3 stored it."""
    rows = interactions(table_rows(split.train) + table_rows(split.test))
    return rows, np.arange(len(split.train), len(rows))


def previous_version_split(path):
    """Overwrite split.json at path with the all-JSON split the version
    before split.npz wrote, of the same split; split.npz stays beside it."""
    split = ingest.read_split(path)
    rows, held = joined_rows(split)
    payload = {name: getattr(rows, name).tolist()
               for name in ("users", "items", "user", "item", "rating", "timestamp")}
    payload.update(held=held.tolist(), excluded_users=split.excluded_users)
    path.write_text(json.dumps(payload))


def format_2_split(path):
    """Overwrite the split pair at path (split.json) with the same split as
    format 2 wrote it: one table of every row in split.npz, with the held
    row indices, and its id tables and row count in split.json."""
    split = ingest.read_split(path)
    rows, held = joined_rows(split)
    np.savez(path.with_suffix(".npz"), user=rows.user, item=rows.item, rating=rows.rating,
             timestamp=rows.timestamp, held=held)
    path.write_text(json.dumps({"format": 2, "users": rows.users.tolist(),
                                "items": rows.items.tolist(), "rows": len(rows),
                                "excluded_users": split.excluded_users}) + "\n")


def format_3_split(path):
    """Rewrite the split pair at path (split.json) as format 3 wrote it: the
    same tables, their codes int64."""
    def damage(meta, columns):
        meta["format"] = 3
        for name in ("train_user", "train_item", "test_user", "test_item"):
            columns[name] = columns[name].astype(np.int64)
    damage_split(path, damage)


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


class TestSampleHistory:
    """A random history is drawn with a seed of the user's own, keyed by the
    run seed (or the integer after random:) and the user."""

    # 50 users rate 30 items each at the same 30 timestamps, so a draw keyed
    # by the seed alone would pick the same recency ranks for every user
    TRAIN = interactions([(f"u{u}", f"i{(u + k) % 40}", 3.0, k)
                          for u in range(50) for k in range(30)])

    def ranks(self, history_sample, seed, user):
        cfg = cli.RunConfig(history_sample=history_sample, seed=seed)
        return [e[2] for e in cli._sample_history(cfg, self.TRAIN, user).entries]

    @pytest.mark.parametrize("sample, other", [("random", ("random", 4)),
                                               ("random:11", ("random:12", 3))])
    def test_random_draws_differ_between_users(self, sample, other):
        draws = [self.ranks(sample, 3, f"u{u}") for u in range(50)]
        assert all(len(d) == 10 and d == sorted(d, reverse=True) for d in draws)
        assert len({tuple(d) for d in draws}) > 40
        assert self.ranks(sample, 3, "u7") == draws[7]  # same seed and user, same draw
        assert sum(self.ranks(*other, f"u{u}") != draws[u] for u in range(50)) > 40


class TestBadInputFileExits2:
    # each rewrites the split pair at the path of its split.json
    STALE_SPLITS = {
        "row_format": lambda path: path.write_text(json.dumps(
            {"train": [["u1", "1", 4.0, 1]], "test": [["u1", "2", 5.0, 2]],
             "relevance": {"u1": ["2"]}, "excluded_users": 0})),
        "json_list": lambda path: path.write_text(json.dumps([["u1", "1", 4.0, 1]])),
        "not_json": lambda path: path.write_text("not json"),
        "previous_version": previous_version_split,
        "format_2": format_2_split,
        "format_3": format_3_split,
        "npz_missing": lambda path: path.with_suffix(".npz").unlink(),
        "npz_truncated": lambda path: truncate(path.with_suffix(".npz")),
        "unequal_columns": lambda path: damage_split(
            path, lambda m, c: c.__setitem__("train_rating", c["train_rating"][:-1])),
        "unequal_test_columns": lambda path: damage_split(
            path, lambda m, c: c.__setitem__("test_timestamp", c["test_timestamp"][1:])),
        "float_user": lambda path: damage_split(
            path, lambda m, c: c.__setitem__("train_user",
                                             c["train_user"].astype(np.float64))),
        "rows_mismatch": lambda path: damage_split(
            path, lambda m, c: m["train"].__setitem__("rows", m["train"]["rows"] + 1)),
        # a negative item code in the held-out (test) table
        "negative_held": lambda path: damage_split(
            path, lambda m, c: c["test_item"].__setitem__(0, -1)),
        "test_item_past_table": lambda path: damage_split(
            path, lambda m, c: c["test_item"].__setitem__(0, len(m["test"]["items"]))),
    }

    @pytest.mark.parametrize("damage", STALE_SPLITS.values(), ids=STALE_SPLITS.keys())
    # an external run checks the split before it opens its slates file
    @pytest.mark.parametrize("command", [
        ["run"], ["build-dataset", "--offline", "1"],
        ["run", "--generator", "external", "--slates", "s.jsonl"]])
    def test_stale_split_exits_2_before_any_work(self, corpus, monkeypatch, capsys,
                                                  damage, command):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        path = run_dir / "split.json"
        damage(path)

        def no_work(*args):
            raise AssertionError("work started on a stale split")

        monkeypatch.setattr(cli.ingest, "load_items", no_work)
        capsys.readouterr()
        assert main([command[0], "--run-dir", str(run_dir), *command[1:]]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {path}: not a split written by this version; re-run ingest\n")

    @pytest.mark.parametrize("line,message", [
        ('{"user": "u1"}', "not a JSON object with user and items"),
        ('["u1", ["1", "2"]]', "not a JSON object with user and items"),
        ('{"user": "u1", "items": "12"}', "items is not a list of distinct ids"),
        ('{"user": "u1", "items": ["1", 1]}', "items is not a list of distinct ids"),
        ('{"user": "u1", "items": 5}', "items is not a list of distinct ids"),
        ('{"user": "u1", "items": [', "Expecting value"),
    ])
    def test_malformed_slates_line_exits_2(self, corpus, tmp_path, capsys, line,
                                           message):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        slates = tmp_path / "slates.jsonl"
        slates.write_text('{"user": "u2", "items": ["1"]}\n\n' + line + "\n")
        assert main(run_args(corpus, generator="external", slates=slates)) == EXIT_CONFIG
        assert f"error: line 3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ('{"title": "No id"}', "not a JSON object with id"),
        ('[1, "List"]', "not a JSON object with id"),
        ("title,genres\nA,B", "no id field"),
        ("title,id\nA", "no id field"),
        ('{"id": 2, "title": "T", "genres": 7}', "genres neither a str nor a list of str"),
        ('{"id": 2, "title": "T", "genres": [1, 2]}', "genres neither a str nor a list of str"),
        ('{"id": 2, "title": "T", "genres": {"a": 1}}', "genres neither a str nor a list of str"),
    ])
    def test_malformed_catalog_line_exits_2(self, corpus, tmp_path, capsys, line,
                                            message):
        ratings, _, run_dir = corpus
        if line.startswith(("{", "[")):
            items = tmp_path / "items.jsonl"
            items.write_text('{"id": 1, "title": "One"}\n' + line + "\n")
        else:  # a CSV header and row
            items = tmp_path / "items.csv"
            items.write_text(line + "\n")
        code = main(["ingest", "--ratings", str(ratings), "--items", str(items),
                     "--run-dir", str(run_dir)])
        assert code == EXIT_CONFIG
        assert f"error: line 2: {message}" in capsys.readouterr().err
        assert not run_dir.exists()


def failing_user_answer(corpus, *nths):
    """dataset_answer for every user but the nth evaluated ones (by id), whose
    every request gets HTTP 500: the first named user's after the longest
    wait, so that side by side it fails last."""
    _, _, run_dir = corpus
    main(run_args(corpus))
    report = json.loads((run_dir / "report.json").read_text())
    users = sorted(report["non_ranker"][0]["per_user"])
    train = ingest.read_split(run_dir / "split.json").train
    catalog = ingest.load_items(run_dir / "catalog.jsonl")
    history_blocks = tuple(
        rerank.build_prompt(ingest.user_history(train, users[nth]),
                            Slate(user=users[nth], items=[], source="x"),
                            catalog)[1].split("Candidates:")[0]
        for nth in nths)

    def answer(request):
        for wait, block in enumerate(reversed(history_blocks), start=1):
            if request.user_prompt.startswith(block):
                time.sleep(0.03 * wait)
                raise HttpStatus(500)
        return dataset_answer(request)

    return answer


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
            dropped = [r.getMessage().split()[2].rstrip(":") for r in caplog.records
                       if r.getMessage().startswith("skipped user")]
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

    def test_unreachable_endpoint_skips_each_user_with_a_short_reason(self, corpus,
                                                                       caplog):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
        code = main(["build-dataset", "--run-dir", str(run_dir), "--sample-count", "3",
                     "--ranking-size", "10", "--backend-kind", "http",
                     "--backend-model", "m", "--backend-backoff-base", "0",
                     "--backend-endpoint", f"http://127.0.0.1:{port}/v1/chat/completions"])
        assert code == EXIT_PARTIAL
        skipped = [r.getMessage() for r in caplog.records
                   if r.getMessage().startswith("skipped user")]
        assert len(skipped) == 3
        for line in skipped:
            assert len(line) < 120 and "ConnectionRefusedError" in line, line

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

    def test_failed_build_keeps_the_dataset(self, corpus, monkeypatch, capsys):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        args = ["build-dataset", "--run-dir", str(run_dir), "--sample-count", "5"]
        assert main([*args, "--offline", "1"]) == EXIT_OK
        names = ("sft.jsonl", "dpo.jsonl", "manifest.json")
        before = [(run_dir / name).read_bytes() for name in names]

        def fail(request):
            raise ExhaustedRetries("HTTP 503")

        monkeypatch.setattr(cli, "make_backend",
                            lambda cfg: ScriptedBackend(handler=fail))
        capsys.readouterr()
        assert main(args) == EXIT_PARTIAL
        out, err = capsys.readouterr()
        assert "dropped: 5" in out
        assert "no sample was built; wrote nothing" in err
        assert [(run_dir / name).read_bytes() for name in names] == before

    def test_failed_write_sends_no_further_request(self, corpus, monkeypatch, capsys,
                                                   full_disk):
        # records are written as users finish; the first failed write stops
        # the users not yet started, and the running ones finish first
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        sent = []

        def answer(request):
            sent.append(request)
            return dataset_answer(request)

        monkeypatch.setattr(cli, "make_backend", lambda cfg: PeakBackend(
            cfg.max_concurrent_requests, lambda r: 0.005, answer))
        args = ["build-dataset", "--run-dir", str(run_dir), "--ranking-size", "10",
                "--backend-max-concurrent-requests", "4"]
        assert main(args) == EXIT_PARTIAL
        out = capsys.readouterr().out
        users = sum(int(out.split(f"{key}: ")[1].split()[0])
                    for key in ("sft samples", "dropped"))
        before = files_in(run_dir)
        sent.clear()
        threads = threading.active_count()
        full_disk.add("sft.jsonl")
        assert main([*args, "--seed", "7"]) == EXIT_CONFIG
        assert threading.active_count() == threads
        assert 0 < len(sent) < users * 2
        assert files_in(run_dir) == before
        # the same when the caller keeps the traceback, and with it the
        # command's frame
        sent.clear()
        cfg = load_config(None, {"run_dir": str(run_dir), "ranking_size": "10", "seed": "7",
                                 "backend_max_concurrent_requests": "4"})
        with pytest.raises(OSError) as failure:  # failure keeps the traceback
            cli.cmd_build_dataset(cfg)
        assert threading.active_count() == threads
        assert 0 < len(sent) < users * 2

    def test_memory_does_not_grow_with_sample_count(self, tmp_path):
        ratings, items = write_corpus(tmp_path, n_users=700)
        run_dir = tmp_path / "run"
        main(ingest_args((ratings, items, run_dir)))
        args = ["build-dataset", "--run-dir", str(run_dir), "--offline", "1"]
        main([*args, "--sample-count", "10"])  # first-call caches and imports
        peaks = []
        for count in (100, 700):
            rc, _, peak = traced(main, [*args, "--sample-count", str(count)])
            assert rc == EXIT_OK
            peaks.append(peak)
        assert peaks[1] < 1.2 * peaks[0]

    # an external run samples its users before it opens its slates file
    @pytest.mark.parametrize("command", [["run"], ["build-dataset", "--offline", "1"],
                                         ["run", "--generator", "external",
                                          "--slates", "slates.jsonl"]])
    def test_no_eligible_users_exits_2(self, corpus, tmp_path, monkeypatch, capsys,
                                       command):
        ratings, _, run_dir = corpus
        monkeypatch.chdir(tmp_path)
        main(ingest_args(corpus))
        # a split without eval users, which ingest itself refuses to write
        save_split(run_dir / "split.json", ingest.split_leave_n_out(
            ingest.load_interactions(ratings), min_history=100))
        before = sorted(path.name for path in run_dir.iterdir())
        capsys.readouterr()
        code = main([command[0], "--run-dir", str(run_dir), *command[1:]])
        assert code == EXIT_CONFIG
        assert "error: no eligible evaluation users" in capsys.readouterr().err
        assert sorted(path.name for path in run_dir.iterdir()) == before

    def test_ingest_without_eval_users_exits_2_and_writes_nothing(self, corpus, tmp_path,
                                                                  capsys):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        before = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        capsys.readouterr()
        assert main(ingest_args(corpus, min_history=100)) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "error: no eligible evaluation users (excluded: 30)\n" in err
        assert out == ""
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before
        fresh = tmp_path / "fresh"
        assert main([*ingest_args(corpus, min_history=100), "--run-dir", str(fresh)]) \
            == EXIT_CONFIG
        assert not fresh.exists()

    def test_short_ranking_skips_its_user(self, corpus, monkeypatch, caplog, capsys):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        victim = "u3"
        correct_ranking = cli.datasetgen.correct_ranking_for_user

        def short_for_victim(relevance, *args):
            ranking = correct_ranking(relevance, *args)
            return ranking[:1] if relevance.user == victim else ranking

        monkeypatch.setattr(cli.datasetgen, "correct_ranking_for_user", short_for_victim)
        code = main(["build-dataset", "--run-dir", str(run_dir), "--offline", "1",
                     "--ranking-size", "10"])
        assert code == EXIT_PARTIAL
        assert caplog.text.count("skipped user") == 1
        assert f"skipped user {victim}: ranking of 1 items < 2" in caplog.text
        assert "dropped: 1" in capsys.readouterr().out
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert (manifest["sft"]["count"], manifest["dpo"]["count"]) == (29, 29)


def fails_keeping_every_file(args, dirs, full_disk, name):
    """Run args with each write to name failing, and assert that it exits 2
    and leaves every file in dirs as it was, with no temp file beside them.
    Then run args without the fault, and return the names of the files that
    run changed: the files the failed run would have changed."""
    before = files_in(*dirs)
    full_disk.add(name)
    assert main(args) == EXIT_CONFIG
    assert files_in(*dirs) == before
    full_disk.clear()
    assert main(args) in (EXIT_OK, EXIT_PARTIAL)
    after = files_in(*dirs)
    return sorted(path.name for path in after if after[path] != before.get(path))


class TestFailedWriteKeepsEveryFile:
    """A command that cannot write one of its files (here, a full disk)
    exits 2 and leaves the files it writes as they were: it commits all of
    them, or none."""

    @pytest.mark.parametrize("name", ["split.npz", "catalog.jsonl", "config.json",
                                      "split.json"])
    def test_ingest(self, corpus, tmp_path, full_disk, name):
        _, _, run_dir = corpus
        assert main(ingest_args(corpus)) == EXIT_OK
        # a 40-user corpus into the 30-user run directory
        (tmp_path / "data40").mkdir()
        ratings, items = write_corpus(tmp_path / "data40", n_users=40, n_items=70)
        args = [*ingest_args(corpus), "--ratings", str(ratings), "--items", str(items)]
        assert fails_keeping_every_file(args, [run_dir], full_disk, name) == [
            "catalog.jsonl", "config.json", "split.json", "split.npz"]

    @pytest.mark.parametrize("name", ["slates.jsonl", "report.csv", "report.txt",
                                      "report.json"])
    def test_run(self, corpus, full_disk, name):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        main(run_args(corpus))
        assert fails_keeping_every_file(run_args(corpus, seed=7), [run_dir], full_disk,
                                        name) == ["report.csv", "report.json", "report.txt",
                                                  "slates.jsonl"]

    def test_run_with_a_non_finite_number(self, corpus, monkeypatch, capsys):
        # report.json is encoded inside the commit, so the error it raises
        # there must still leave every file as it was
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        assert main(run_args(corpus)) == EXIT_OK
        before = files_in(run_dir)

        def evaluate_run(*args, evaluate=cli.metrics.evaluate_run):
            results = evaluate(*args)
            results[-1].mean = float("nan")
            return results

        monkeypatch.setattr(cli.metrics, "evaluate_run", evaluate_run)
        capsys.readouterr()
        assert main(run_args(corpus, seed=7)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "error: Out of range float values are not JSON compliant")
        assert files_in(run_dir) == before

    @pytest.mark.parametrize("name", ["sft.jsonl", "dpo.jsonl", "manifest.json"])
    def test_build_dataset(self, corpus, full_disk, name):
        _, _, run_dir = corpus
        main(ingest_args(corpus))
        args = ["build-dataset", "--run-dir", str(run_dir), "--offline", "1",
                "--sample-count", "10"]
        assert main(args) == EXIT_OK
        assert fails_keeping_every_file([*args, "--seed", "7"], [run_dir], full_disk,
                                        name) == ["dpo.jsonl", "manifest.json", "sft.jsonl"]

    def test_outputs_get_the_mode_open_gives(self, corpus):
        _, _, run_dir = corpus
        umask = os.umask(0o022)
        try:
            assert main(ingest_args(corpus)) == EXIT_OK
            main(run_args(corpus))
            assert main(["build-dataset", "--run-dir", str(run_dir), "--offline", "1",
                         "--sample-count", "5"]) == EXIT_OK
            with open(run_dir / "by_open", "wb"):
                pass
        finally:
            os.umask(umask)
        modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in run_dir.iterdir()}
        assert len(modes) == 12
        assert modes == dict.fromkeys(modes, 0o644)


class TestHumanEval:
    def test_identical_files_paired(self, tmp_path, capsys):
        f = tmp_path / "a.txt"
        f.write_text("4\n4\n4\n")
        assert main(["human-eval", str(f), str(f), "--paired"]) == EXIT_OK
        assert "no difference" in capsys.readouterr().out

    @pytest.mark.parametrize("a,b,paired,df", [("5\n5\n5\n", "3\n3\n3\n", False, "1.00"),
                                               ("4\n5\n3\n", "3\n4\n2\n", True, "2.00")],
                             ids=["unpaired", "paired"])
    def test_constant_difference_is_certain(self, tmp_path, capsys, a, b, paired, df):
        (tmp_path / "a.txt").write_text(a)
        (tmp_path / "b.txt").write_text(b)
        assert main(["human-eval", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
                    + ["--paired"] * paired) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == \
            f"t = inf  df = {df}  p = 0.0000 ***"

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
        assert capsys.readouterr().err == "error: paired samples differ in length: 3 vs 2\n"

    def test_file_without_scores_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("\n \n")
        b.write_text("4\n3\n")
        assert main(["human-eval", str(a), str(b)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {a}: no scores\n"

    def test_non_number_line_exits_2_naming_it(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("4\n\n3.5\nfour\n")
        assert main(["human-eval", str(a), str(a)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: line 4: not a number: 'four'\n")

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("\ufeff4\n5\n", encoding="utf-8")
        assert main(["human-eval", str(a), str(a), "--paired"]) == EXIT_OK
        assert "mean A: 4.5000  (n=2)" in capsys.readouterr().out

    def test_score_out_of_range(self, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("6\n")
        assert main(["human-eval", str(a), str(a)]) == EXIT_CONFIG
