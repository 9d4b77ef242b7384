"""Command-line entry point: ingest, run, build-dataset, human-eval and
slate export, driven by an INI config plus same-named flag overrides."""

import argparse
import configparser
import json
import logging
import re
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import candgen, datasetgen, ingest, metrics, rerank, stats
from .errors import (BadSlate, CatalogTooSmall, MalformedRow, RerankEvalError,
                     ZeroVariance)
from .llm_client import BackendConfig, bounded_map, make_backend

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

GENERATORS = ("random", "mf", "knn", "external")
_MODE_COLUMN = {"zero_shot": "zero_shot", "trained": "sft_dpo"}  # report column
MODES = ("none", *_MODE_COLUMN)


@dataclass
class RunConfig:
    ratings: str = ""
    items: str = ""
    run_dir: str = "run"
    slates: str = ""              # external slates JSONL (generator=external)
    out_dir: str = ""             # dataset output dir (defaults to run_dir)

    slate_size: int = 15
    history_limit: int = 10
    bootstraps: int = 3
    cutoffs: tuple = (3, 5, 10)
    sample_count: int = 1000
    seed: int = 0
    n_test: int = 10
    min_history: int = 5
    relevance_threshold: float = 4.0
    history_sample: str = "recent"  # recent | random | random:<seed>

    generator: str = "random"     # random | mf | knn | external
    inject_positives: int = 5
    mode: str = "none"            # none | zero_shot | trained
    temperature: float = 0.7

    mf_k: int = 32
    mf_epochs: int = 30
    mf_learn_rate: float = 0.005
    mf_reg: float = 0.02
    knn_top_m: int = 50
    knn_min_co_raters: int = 3

    ranking_size: int = 15        # items per training ranking
    offline: bool = False         # dataset build without a backend

    backend: BackendConfig = field(default_factory=BackendConfig)

    def __post_init__(self):
        for name in ("slate_size", "bootstraps", "sample_count", "n_test",
                     "min_history", "history_limit", "knn_top_m", "mf_k", "mf_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("inject_positives", "mf_reg"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.mf_learn_rate <= 0:
            raise ValueError("mf_learn_rate must be > 0")
        if not self.cutoffs:
            raise ValueError("cutoffs must name at least one cutoff")
        if any(c < 1 or c > self.slate_size for c in self.cutoffs):
            raise ValueError("cutoffs must be within [1, slate_size]")
        if len(set(self.cutoffs)) < len(self.cutoffs):
            raise ValueError("cutoffs must be distinct")
        if not re.fullmatch(r"recent|random(:-?\d+)?", self.history_sample):
            raise ValueError("history_sample must be recent, random or "
                             "random:<integer>")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator: {self.generator}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode}")
        if self.ranking_size < 2:
            raise ValueError("ranking_size must be >= 2 (a 1-item ranking has no "
                             "rejected permutation)")


# what a config string must spell for a field of each parsed type
_TYPE_NAMES = {int: "an integer", float: "a finite number", tuple: "a list of integers"}


def _coerce(cls, key, value):
    """A config string as the type of the dataclass cls's field key; a
    nested config (RunConfig.backend) is a section, not a key. A string
    that does not parse as that type is a ValueError naming key."""
    types = {f.name: f.type for f in fields(cls)}
    if key not in types or is_dataclass(types[key]):
        raise ValueError(f"unknown config key: {key}")
    kind = types[key]
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
        try:
            found = parser.read(path, encoding="utf-8-sig")
        except configparser.Error as e:
            raise ValueError(f"{path}: {e}") from None
        if not found:
            raise FileNotFoundError(path)
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
    """What run, build-dataset and export-slates read from cfg.run_dir: the
    split, the catalog and the sampled eval users; ValueError when there are
    no eval users."""
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
    interactions = ingest.load_interactions(cfg.ratings)
    catalog = ingest.load_items(cfg.items)
    split = ingest.split_leave_n_out(interactions, n_test=cfg.n_test,
                                     min_history=cfg.min_history,
                                     threshold=cfg.relevance_threshold)
    if not len(split.test):
        raise ValueError(f"no eligible evaluation users (excluded: {split.excluded_users})")
    run_dir.mkdir(parents=True, exist_ok=True)
    # split.json, which stands for the pair, moves last
    names = ("split.npz", "catalog.jsonl", "config.json", "split.json")
    with ingest.commit(*(run_dir / name for name in names)) as (npz, cat, conf, meta):
        ingest.write_split(npz, meta, split)
        ingest.write_catalog(cat, catalog)
        conf.write(json.dumps(asdict(cfg), indent=2).encode() + b"\n")

    print(f"interactions: {len(interactions)}")
    print(f"users: {len(interactions.users)}")
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
    """user's slate among the imported slates; BadSlate when there is none
    or it names an item outside the catalog or one the user rated in train."""
    slate = slates.get(user)
    if slate is None:
        raise BadSlate("no external slate")
    unknown = [i for i in slate.items if i not in catalog]
    if unknown:
        raise BadSlate(f"slate items not in the catalog: {unknown}")
    seen = [i for i in slate.items if i in rated]
    if seen:
        raise BadSlate(f"slate items rated in train: {seen}")
    return slate


def _each_user(fn, users, cap):
    """{user: fn(user)} for the users fn accepts, with at most cap calls in
    flight. A user whose fn raises a RerankEvalError is skipped, with
    `skipped user <user>: <reason>` logged in user order; any other
    exception is raised (bounded_map)."""
    accepted = {}
    for user, result in zip(users, bounded_map(fn, users, cap, carry=RerankEvalError)):
        if isinstance(result, RerankEvalError):
            log.warning("skipped user %s: %s", user, result)
        else:
            accepted[user] = result
    return accepted


def _user_inputs(cfg, users, split, catalog):
    """{user: (history, slate)} for the users whose inputs hold up; history
    is None unless cfg.mode re-ranks, and then the user's prompt is built
    once as a check. A bad slate, history or prompt skips its user."""
    train, relevance = split.train, split.relevance
    if cfg.generator == "external":
        external = {s.user: s for s in candgen.import_slates(cfg.slates)}
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
        exclusions = {item for item, _, _ in train.entries(user)}
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
        if cfg.mode not in _MODE_COLUMN:
            return None, slate
        history = _sample_history(cfg, train, user)
        rerank.build_prompt(history, slate, catalog)
        return history, slate

    return _each_user(inputs, users, 1)


def cmd_run(cfg):
    run_dir = Path(cfg.run_dir)
    backend = make_backend(cfg.backend) if cfg.mode in _MODE_COLUMN else None
    split, catalog, users = _load_run_dir(cfg)
    inputs = _user_inputs(cfg, users, split, catalog)
    skipped = len(users) - len(inputs)
    users = sorted(inputs)
    if cfg.mode in _MODE_COLUMN and len(users) < 2:
        # the paired t-test needs two users; stop before paying for requests
        print(f"error: re-ranking needs at least 2 evaluable users, got "
              f"{len(users)} (skipped {skipped})", file=sys.stderr)
        return EXIT_CONFIG

    baseline_rankings = {u: rerank.none_ranker(inputs[u][1]).items for u in users}
    baseline_results = metrics.evaluate_run(baseline_rankings, split.relevance,
                                            cfg.cutoffs)

    ranked_results = None
    comparison = None
    fallbacks = 0
    if backend is not None:
        ranked = rerank.rerank_users([inputs[u] for u in users], catalog, backend,
                                     k=cfg.bootstraps, mode=cfg.mode, seed=cfg.seed,
                                     temperature=cfg.temperature)
        fallbacks = sum(consensus.fallback for consensus, _outputs in ranked)
        rankings = {user: consensus.items
                    for user, (consensus, _outputs) in zip(users, ranked)}
        ranked_results = metrics.evaluate_run(rankings, split.relevance, cfg.cutoffs)
        comparison = stats.compare_models(ranked_results, baseline_results)

    _write_report(run_dir, cfg, users, baseline_results, ranked_results,
                  comparison, skipped, fallbacks)
    print(f"evaluated {len(users)} users "
          f"(skipped {skipped}, bootstrap fallbacks {fallbacks})")
    print(f"report written to {run_dir / 'report.json'}")
    return EXIT_PARTIAL if skipped or fallbacks else EXIT_OK


def _write_report(run_dir, cfg, users, baseline_results, ranked_results,
                  comparison, skipped, fallbacks):
    mode_col = _MODE_COLUMN.get(cfg.mode)
    report = {
        "config": asdict(cfg),
        "users_evaluated": len(users),
        "users_skipped": skipped,
        "bootstrap_fallbacks": fallbacks,
        "non_ranker": metrics.results_to_json(baseline_results),
    }
    if ranked_results is not None:
        report[mode_col] = metrics.results_to_json(ranked_results)
        report["comparison_vs_non"] = {
            f"{m}@{n}": (None if r is None else
                         {"t": r.t_value, "df": r.degrees_of_freedom,
                          "p": r.p_value, "stars": r.significant})
            for (m, n), r in sorted(comparison.items())
        }

    base = {(r.metric, r.n): r.mean for r in baseline_results}
    ranked = {(r.metric, r.n): r.mean for r in (ranked_results or [])}
    header = ["metric", "n", "non_ranker", "zero_shot", "sft_dpo",
              "p_zero_vs_non", "p_sft_vs_non"]
    csv_lines = [",".join(header)]
    txt_lines = [" | ".join(h.ljust(13) for h in header)]
    for metric in metrics.METRIC_NAMES:
        for n in cfg.cutoffs:
            key = (metric, n)
            row = dict.fromkeys(header, "")
            row.update(metric=metric, n=n, non_ranker=f"{base[key]:.4f}")
            best = "non_ranker", base[key]  # the text table bolds the higher mean
            if key in ranked:
                row[mode_col] = f"{ranked[key]:.4f}"
                p_col = "p_zero_vs_non" if mode_col == "zero_shot" else "p_sft_vs_non"
                row[p_col] = stats.render_p(comparison[key])
                if ranked[key] > base[key]:
                    best = mode_col, ranked[key]
            csv_lines.append(",".join(str(row[h]) for h in header))
            row[best[0]] = f"**{best[1]:.4f}**"
            txt_lines.append(" | ".join(str(row[h]).ljust(13) for h in header))
    # report.json, the file readers check first, moves last
    texts = {"csv": "\n".join(csv_lines), "txt": "\n".join(txt_lines),
             "json": json.dumps(report, indent=2, sort_keys=True)}
    with ingest.commit(*(run_dir / f"report.{ext}" for ext in texts)) as files:
        for fh, text in zip(files, texts.values()):
            fh.write(text.encode() + b"\n")


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

    # users share one pool bounded by the backend's cap
    built = _each_user(sample_and_pair, users,
                       1 if cfg.offline else backend.max_concurrent_requests)
    if built:
        datasetgen.write_training_files(list(built.values()), Path(cfg.out_dir or cfg.run_dir))
    else:  # keep an earlier dataset rather than replace it with empty files
        print("no sample was built; wrote nothing", file=sys.stderr)
    print(f"sft samples: {len(built)}")
    print(f"dpo pairs: {len(built)}")
    print(f"dropped: {len(users) - len(built)}")
    return EXIT_OK if len(built) == len(users) else EXIT_PARTIAL


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


def cmd_export_slates(cfg, out_path):
    split, catalog, users = _load_run_dir(cfg)
    inputs = _user_inputs(cfg, users, split, catalog)
    with ingest.commit(out_path) as (fh,):
        candgen.export_slates(fh, [inputs[u][1] for u in sorted(inputs)])
    print(f"wrote {len(inputs)} slates to {out_path}")
    return EXIT_PARTIAL if len(inputs) < len(users) else EXIT_OK


# --------------------------------------------------------------------------
# argparse wiring
# --------------------------------------------------------------------------

_OVERRIDE_KEYS = [f.name for f in fields(RunConfig) if f.name != "backend"]
_BACKEND_KEYS = [f.name for f in fields(BackendConfig)]


def _add_common(sub):
    sub.add_argument("--config", help="INI config file")
    for key in _OVERRIDE_KEYS:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key)
    for key in _BACKEND_KEYS:
        sub.add_argument(f"--backend-{key.replace('_', '-')}",
                         dest=f"backend_{key}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rerankeval",
        description="Offline evaluation harness for LLM slate re-ranking")
    parser.add_argument("-v", "--verbose", action="store_true")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("ingest", "run", "build-dataset"):
        _add_common(subs.add_parser(name))

    he = subs.add_parser("human-eval")
    he.add_argument("ratings_a")
    he.add_argument("ratings_b")
    he.add_argument("--paired", action="store_true")

    ex = subs.add_parser("export-slates")
    _add_common(ex)
    ex.add_argument("--out", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "human-eval":
            return cmd_human_eval(args.ratings_a, args.ratings_b, args.paired)
        overrides = {k: getattr(args, k, None) for k in _OVERRIDE_KEYS}
        overrides.update({f"backend_{k}": getattr(args, f"backend_{k}", None)
                          for k in _BACKEND_KEYS})
        cfg = load_config(args.config, overrides)
        if args.command == "export-slates":
            return cmd_export_slates(cfg, args.out)
        return {"ingest": cmd_ingest, "run": cmd_run,
                "build-dataset": cmd_build_dataset}[args.command](cfg)
    except (RerankEvalError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
