"""Command-line entry point: ingest, run, build-dataset and human-eval,
driven by an INI config plus same-named flag overrides."""

import argparse
import configparser
import json
import logging
import math
import re
import sys
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from itertools import chain, zip_longest
from pathlib import Path

import numpy as np

from . import candgen, datasetgen, ingest, metrics, rerank, stats
from .errors import (BadSlate, CatalogTooSmall, MalformedRow, RerankEvalError,
                     ZeroVariance)
from .llm_client import (BOUNDS, BackendConfig, bounded_map, check_settings, make_backend,
                         setting)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

# report column and table p-value column of each re-ranking mode
_MODE_COLUMNS = {"zero_shot": ("zero_shot", "p_zero_vs_non"),
                 "trained": ("sft_dpo", "p_sft_vs_non")}


@dataclass
class RunConfig:
    ratings: str = ""
    items: str = ""
    run_dir: str = "run"
    slates: str = setting("", help="external slates JSONL (generator=external)")
    out_dir: str = setting("", help="dataset output dir (defaults to run_dir)")

    slate_size: int = setting(15, min=1)
    history_limit: int = setting(10, min=1)
    bootstraps: int = setting(3, min=1)
    cutoffs: tuple = (3, 5, 10)
    sample_count: int = setting(1000, min=1)
    seed: int = 0
    n_test: int = setting(10, min=1)
    min_history: int = setting(5, min=1)
    relevance_threshold: float = 4.0
    history_sample: str = setting("recent", help="recent | random | random:<seed>")

    generator: str = setting("random", choices=("random", "mf", "knn", "external"))
    inject_positives: int = setting(5, min=0)
    mode: str = setting("none", choices=("none", *_MODE_COLUMNS))
    temperature: float = setting(0.7, min=0)

    mf_k: int = setting(32, min=1)
    mf_epochs: int = setting(30, min=1)
    mf_learn_rate: float = setting(0.005, above=0)
    mf_reg: float = setting(0.02, min=0)
    knn_top_m: int = setting(50, min=1)
    knn_min_co_raters: int = 3

    ranking_size: int = setting(15, min=2, help="items per training ranking")
    offline: bool = setting(False, help="dataset build without a backend")

    backend: BackendConfig = field(default_factory=BackendConfig)

    def __post_init__(self):
        check_settings(self)
        if not self.cutoffs:
            raise ValueError("cutoffs must name at least one cutoff")
        if any(c < 1 or c > self.slate_size for c in self.cutoffs):
            raise ValueError("cutoffs must be within [1, slate_size]")
        if len(set(self.cutoffs)) < len(self.cutoffs):
            raise ValueError("cutoffs must be distinct")
        if not re.fullmatch(r"recent|random(:-?\d+)?", self.history_sample):
            raise ValueError("history_sample must be recent, random or "
                             "random:<integer>")


# what a config string must spell for a field of each parsed type
_TYPE_NAMES = {int: "an integer", float: "a finite number", tuple: "a list of integers"}


def _coerce(cls, key, value):
    """A config string as the type of the dataclass cls's field key; a
    nested config (RunConfig.backend) is a section, not a key. A string
    that does not parse as that type is a ValueError naming key."""
    kind = {f.name: f.type for f in fields(cls)}.get(key)
    if kind is None or is_dataclass(kind):
        raise ValueError(f"unknown config key: {key}")
    if kind is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if str(value).lower() not in states:
            raise ValueError(f"{key} must be one of {', '.join(states)}, got {value!r}")
        return states[str(value).lower()]
    if kind not in _TYPE_NAMES:
        return value
    try:
        if kind is tuple:
            return tuple(int(c) for c in str(value).replace(",", " ").split())
        if kind is int or np.isfinite(float(value)):
            return kind(value)
    except ValueError:
        pass
    raise ValueError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")


def load_config(path=None, overrides=None):
    """Read the INI config (any section layout; keys are flat, values are
    taken as written) and apply CLI overrides. A file INI cannot parse is a
    ValueError."""
    values = {}
    backend_values = {}
    if path:
        parser = configparser.ConfigParser(interpolation=None)
        with open(path, encoding="utf-8-sig") as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as e:
                raise ValueError(f"{path}: {e}") from None
        for section in parser.sections():
            (backend_values if section == "backend" else values).update(
                parser.items(section))
    for key, val in (overrides or {}).items():
        if val is not None:
            target = backend_values if key.startswith("backend_") else values
            target[key.removeprefix("backend_")] = val

    run = {key: _coerce(RunConfig, key, val) for key, val in values.items()}
    if backend_values:
        run["backend"] = BackendConfig(**{key: _coerce(BackendConfig, key, val)
                                          for key, val in backend_values.items()})
    return RunConfig(**run)


# --------------------------------------------------------------------------
# Artifact IO
# --------------------------------------------------------------------------

def _load_run_dir(cfg):
    """What run and build-dataset read from cfg.run_dir: the split, the
    catalog and the sampled eval users; ValueError when there are no eval
    users."""
    run_dir = Path(cfg.run_dir)
    split = ingest.read_split(run_dir / "split.json")
    catalog = ingest.load_items(run_dir / "catalog.jsonl")
    users = _sample_eval_users(split, cfg)
    if not users:
        raise ValueError("no eligible evaluation users")
    return split, catalog, users


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_ingest(cfg):
    run_dir = Path(cfg.run_dir)
    split, ratings, users = ingest.split_file(cfg.ratings, n_test=cfg.n_test,
                                              min_history=cfg.min_history,
                                              threshold=cfg.relevance_threshold)
    catalog = ingest.load_items(cfg.items)
    if not len(split.test):
        raise ValueError(f"no eligible evaluation users (excluded: {split.excluded_users})")
    run_dir.mkdir(parents=True, exist_ok=True)
    # split.json, which stands for the pair, moves last
    names = ("split.npz", "catalog.jsonl", "config.json", "split.json")
    with ingest.commit(*(run_dir / name for name in names)) as (npz, cat, conf, meta):
        ingest.write_split(npz, meta, split)
        ingest.write_catalog(cat, catalog)
        conf.write(json.dumps(asdict(cfg), indent=2).encode() + b"\n")

    print(f"interactions: {ratings}")
    print(f"users: {users}")
    print(f"items: {len(catalog.items)}")
    print(f"eval users: {len(split.relevance)} (excluded: {split.excluded_users})")
    return EXIT_OK


def _sample_history(cfg, train, user):
    """The user's history as cfg.history_sample and cfg.history_limit say; a
    random draw is seeded per user, like every other per-user draw."""
    strategy, _, seed = cfg.history_sample.partition(":")
    seed = candgen.stable_seed(int(seed) if seed else cfg.seed, "history", user)
    return ingest.user_history(train, user, limit=cfg.history_limit, strategy=strategy,
                               seed=seed)


def _sample_eval_users(split, cfg):
    eligible = sorted(set(split.relevance).intersection(split.train.users.tolist()))
    if len(eligible) > cfg.sample_count:
        rng = np.random.default_rng(candgen.stable_seed(cfg.seed, "eval_users"))
        picks = rng.choice(len(eligible), size=cfg.sample_count, replace=False)
        eligible = sorted(eligible[int(p)] for p in picks)
    return eligible


def _external_slate(slates, user, rated, catalog):
    """user's slate among the imported slates ({user: [(line number, slate),
    ...]}); BadSlate when there is none or more than one, or when it is
    empty, or names an item outside the catalog or one the user rated in
    train."""
    found = slates.get(user, [])
    if not found:
        raise BadSlate("no external slate")
    if len(found) > 1:
        raise BadSlate(f"{len(found)} external slates, on lines "
                       f"{', '.join(str(line_no) for line_no, _ in found)}")
    slate = found[0][1]
    if not slate.items:
        raise BadSlate("empty slate")
    unknown = [i for i in slate.items if i not in catalog]
    if unknown:
        raise BadSlate(f"slate items not in the catalog: {unknown}")
    seen = [i for i in slate.items if i in rated]
    if seen:
        raise BadSlate(f"slate items rated in train: {seen}")
    return slate


def _each_user(fn, users, cap):
    """Yield (user, fn(user)) for the users fn accepts, in user order, with
    at most cap calls in flight. A user whose fn raises a RerankEvalError is
    skipped, with `skipped user <user>: <reason>` logged in user order; any
    other exception is raised (bounded_map). Closing it closes bounded_map."""
    with closing(bounded_map(fn, users, cap, carry=RerankEvalError)) as results:
        for user, result in zip(users, results):
            if isinstance(result, RerankEvalError):
                log.warning("skipped user %s: %s", user, result)
            else:
                yield user, result


def _user_inputs(cfg, users, split, catalog):
    """{user: (history, slate)} for the users whose inputs hold up; history
    is None unless cfg.mode re-ranks, and then the user's prompt is built
    once as a check. A bad slate, history or prompt skips its user."""
    train, relevance = split.train, split.relevance
    if cfg.generator == "external":
        external = {}
        for line_no, slate in candgen.import_slates(cfg.slates):
            external.setdefault(slate.user, []).append((line_no, slate))
    elif cfg.generator == "mf":
        scorer = candgen.train_mf(train, k=cfg.mf_k, epochs=cfg.mf_epochs,
                                  learn_rate=cfg.mf_learn_rate, reg=cfg.mf_reg,
                                  seed=cfg.seed)
    elif cfg.generator == "knn":
        sim = candgen.build_item_knn(train, top_m=cfg.knn_top_m,
                                     min_co_raters=cfg.knn_min_co_raters)
        scorer = candgen.ItemKnnRecommender(sim, train)
    train_codes = train.item_codes(catalog.ids)  # of each catalog position

    def inputs(user):
        exclusions = set(train.items[train.item[train.rows_of(user)]].tolist())
        if cfg.generator == "external":
            slate = _external_slate(external, user, exclusions, catalog)
        elif cfg.generator == "random":
            slate = candgen.gen_random_slate(
                user, catalog, exclusions, cfg.seed, slate_size=cfg.slate_size,
                inject_positives=cfg.inject_positives, relevance=relevance.get(user))
        else:
            slate = candgen.gen_model_slate(
                user, scorer, catalog, train_codes, exclusions, cfg.inject_positives,
                relevance.get(user), cfg.seed, slate_size=cfg.slate_size,
                source=cfg.generator)
        if cfg.mode not in _MODE_COLUMNS:
            return None, slate
        history = _sample_history(cfg, train, user)
        rerank.build_prompt(history, slate, catalog)
        return history, slate

    return dict(_each_user(inputs, users, 1))


def cmd_run(cfg):
    run_dir = Path(cfg.run_dir)
    backend = make_backend(cfg.backend) if cfg.mode in _MODE_COLUMNS else None
    split, catalog, users = _load_run_dir(cfg)
    inputs = _user_inputs(cfg, users, split, catalog)
    skipped = len(users) - len(inputs)
    users = sorted(inputs)
    if cfg.mode in _MODE_COLUMNS and len(users) < 2:
        # the paired t-test needs two users; stop before paying for requests
        print(f"error: re-ranking needs at least 2 evaluable users, got "
              f"{len(users)} (skipped {skipped})", file=sys.stderr)
        return EXIT_CONFIG

    baseline_rankings = {u: rerank.none_ranker(inputs[u][1]).items for u in users}
    baseline_results = metrics.evaluate_run(baseline_rankings, split.relevance,
                                            cfg.cutoffs)
    report = {"config": asdict(cfg), "users_evaluated": len(users),
              "users_skipped": skipped, "bootstrap_fallbacks": 0,
              "non_ranker": [vars(r) for r in baseline_results]}
    if backend is not None:
        def rerank_one(user):
            """The user's consensus; its k bootstrap outputs die with this step."""
            consensus, _outputs = rerank.rerank_user(
                *inputs[user], catalog, backend, k=cfg.bootstraps, mode=cfg.mode,
                seed=cfg.seed, temperature=cfg.temperature)
            return consensus

        # up to the config's cap of users at a time; any error stops the run
        ranked = list(bounded_map(rerank_one, users, cfg.backend.max_concurrent_requests))
        for user, consensus in zip(users, ranked):
            if consensus.fallback:
                log.warning("all %d bootstraps failed for user %s; using original "
                            "slate order", cfg.bootstraps, user)
        report["bootstrap_fallbacks"] = sum(consensus.fallback for consensus in ranked)
        rankings = {user: consensus.items for user, consensus in zip(users, ranked)}
        ranked_results = metrics.evaluate_run(rankings, split.relevance, cfg.cutoffs)
        report[_MODE_COLUMNS[cfg.mode][0]] = [vars(r) for r in ranked_results]
        report["comparison_vs_non"] = {
            f"{m}@{n}": (None if r is None else
                         # strict JSON has no infinity: an infinite t is null
                         {"t": r.t_value if math.isfinite(r.t_value) else None,
                          "df": r.degrees_of_freedom,
                          "p": r.p_value, "stars": r.significant})
            for (m, n), r in stats.compare_models(ranked_results,
                                                  baseline_results).items()
        }

    # report.json, the file readers check first, moves last; it is encoded
    # piece by piece, and a non-finite number in it writes none of the files
    tables = _report_tables(report)
    names = ("slates.jsonl", *tables, "report.json")
    with ingest.commit(*(run_dir / name for name in names)) as (slates, *files):
        candgen.export_slates(slates, (inputs[user][1] for user in users))
        for fh, text in zip(files, tables.values()):
            fh.write(text.encode() + b"\n")
        encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
        for chunk in encoder.iterencode(report):
            files[-1].write(chunk.encode())
        files[-1].write(b"\n")
    fallbacks = report["bootstrap_fallbacks"]
    print(f"evaluated {len(users)} users "
          f"(skipped {skipped}, bootstrap fallbacks {fallbacks})")
    print(f"report written to {run_dir / 'report.json'}")
    return EXIT_PARTIAL if skipped or fallbacks else EXIT_OK


def _report_tables(report):
    """{"report.csv": text, "report.txt": text} of a report.json object: a
    row per (metric, cutoff), in the order of report["non_ranker"], with the
    re-ranked mean and its p-value ("-" when the runs are indistinguishable)
    in its mode's columns. The text table bolds the higher mean."""
    column, p_column = _MODE_COLUMNS.get(report["config"]["mode"], (None, None))
    header = ["metric", "n", "non_ranker", "zero_shot", "sft_dpo",
              "p_zero_vs_non", "p_sft_vs_non"]
    csv_lines = [",".join(header)]
    txt_lines = [" | ".join(h.ljust(13) for h in header)]
    for base, ranked in zip_longest(report["non_ranker"], report.get(column, ())):
        row = dict.fromkeys(header, "")
        row.update(metric=base["metric"], n=base["n"], non_ranker=f"{base['mean']:.4f}")
        best = "non_ranker", base["mean"]
        if ranked is not None:
            test = report["comparison_vs_non"][f"{base['metric']}@{base['n']}"]
            row[column] = f"{ranked['mean']:.4f}"
            row[p_column] = "-" if test is None else f"{test['p']:.3f}{test['stars']}"
            if ranked["mean"] > base["mean"]:
                best = column, ranked["mean"]
        csv_lines.append(",".join(str(row[h]) for h in header))
        row[best[0]] = f"**{best[1]:.4f}**"
        txt_lines.append(" | ".join(str(row[h]).ljust(13) for h in header))
    return {"report.csv": "\n".join(csv_lines), "report.txt": "\n".join(txt_lines)}


def cmd_build_dataset(cfg):
    backend = None if cfg.offline else make_backend(cfg.backend)
    split, catalog, users = _load_run_dir(cfg)

    def sample_and_pair(user):
        """The user's (sft sample, dpo pair); its requests run in sequence."""
        ranking = datasetgen.correct_ranking_for_user(
            split.relevance[user], split.test.entries(user), catalog,
            cfg.ranking_size, cfg.seed)
        if len(ranking) < 2:
            raise CatalogTooSmall(f"ranking of {len(ranking)} items < 2")
        history = _sample_history(cfg, split.train, user)
        sample = datasetgen.make_positive_sample(backend, history, ranking, catalog)
        return sample, datasetgen.make_dpo_pair(sample, cfg.seed, backend=backend)

    # users share one pool bounded by the config's cap; each record is
    # written as its user finishes, and closing the pool on a failed write
    # sends none of the requests not yet started
    cap = 1 if cfg.offline else cfg.backend.max_concurrent_requests
    with closing(_each_user(sample_and_pair, users, cap)) as built:
        records = (record for _, record in built)
        first = next(records, None)
        if first is None:  # keep an earlier dataset rather than replace it with empty files
            print("no sample was built; wrote nothing", file=sys.stderr)
            count = 0
        else:
            manifest = datasetgen.write_training_files(chain([first], records),
                                                       Path(cfg.out_dir or cfg.run_dir))
            count = manifest["sft"]["count"]
    print(f"sft samples: {count}")
    print(f"dpo pairs: {count}")
    print(f"dropped: {len(users) - count}")
    return EXIT_OK if count == len(users) else EXIT_PARTIAL


def _read_likert(path):
    scores = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(),
                                   start=1):
        line = line.strip()
        if not line:
            continue
        try:
            score = float(line)
        except ValueError:
            raise MalformedRow(line_no, f"not a number: {line!r}") from None
        if not 1.0 <= score <= 5.0:
            raise MalformedRow(line_no, f"score {score} outside [1, 5]")
        scores.append(score)
    if not scores:
        raise ValueError(f"{path}: no scores")
    return scores


def cmd_human_eval(ratings_a, ratings_b, paired=False):
    a = _read_likert(ratings_a)
    b = _read_likert(ratings_b)
    print(f"mean A: {sum(a) / len(a):.4f}  (n={len(a)})")
    print(f"mean B: {sum(b) / len(b):.4f}  (n={len(b)})")
    try:
        result = stats.paired_t_test(a, b) if paired else stats.two_sample_t_test(a, b)
    except ZeroVariance:
        print("no difference (zero variance)")
        return EXIT_OK
    print(f"t = {result.t_value:.4f}  df = {result.degrees_of_freedom:.2f}  "
          f"p = {result.p_value:.4f} {result.significant}")
    return EXIT_OK


# --------------------------------------------------------------------------
# argparse wiring
# --------------------------------------------------------------------------

# the flag dest and field of each setting; a backend key's dest is backend_<key>
_SETTINGS = [(f.name, f) for f in fields(RunConfig) if f.name != "backend"] + [
    (f"backend_{f.name}", f) for f in fields(BackendConfig)]

# argparse reads an argument that starts with "-" as a flag unless it matches
# the parser's private _negative_number_matcher, which in Python 3.11 admits
# only -<digits>[.<digits>]; this one admits every negative number float()
# reads, such as -1e-3 and -inf, so the config's own check rejects them
_NEGATIVE_NUMBER = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)


def _common_flags():
    """A parser, with no -h of its own, of --config and a flag for each
    setting, whose help is its field's help line, allowed values or bound,
    and default: the parent of every settings subparser, so the flags are
    made once."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    for dest, f in _SETTINGS:
        rule = f.metadata
        parts = [rule.get("help"), " | ".join(rule.get("choices", ()))]
        parts += [f"{sign} {rule[key]}" for key, (sign, _) in BOUNDS.items() if key in rule]
        default = ",".join(map(str, f.default)) if f.type is tuple else str(f.default) or "''"
        common.add_argument(f"--{dest.replace('_', '-')}", dest=dest,
                            help="; ".join(filter(None, [*parts, f"default: {default}"])))
    return common


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rerankeval",
        description="Offline evaluation harness for LLM slate re-ranking")
    parser.add_argument("-v", "--verbose", action="store_true")
    subs = parser.add_subparsers(dest="command", required=True)

    common = _common_flags()
    for name in ("ingest", "run", "build-dataset"):
        # the matcher is the parser's own, so a parent's is not inherited
        subs.add_parser(name, parents=[common])._negative_number_matcher = _NEGATIVE_NUMBER

    he = subs.add_parser("human-eval")
    he.add_argument("ratings_a")
    he.add_argument("ratings_b")
    he.add_argument("--paired", action="store_true")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "human-eval":
            return cmd_human_eval(args.ratings_a, args.ratings_b, args.paired)
        cfg = load_config(args.config, {dest: getattr(args, dest) for dest, _ in _SETTINGS})
        return {"ingest": cmd_ingest, "run": cmd_run,
                "build-dataset": cmd_build_dataset}[args.command](cfg)
    except (RerankEvalError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
