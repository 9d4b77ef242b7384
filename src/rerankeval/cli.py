"""Command-line entry point: ingest, run, build-dataset, human-eval and
slate export, driven by an INI config plus same-named flag overrides."""

import argparse
import configparser
import json
import logging
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import candgen, datasetgen, ingest, metrics, rerank, stats
from .errors import (EmptyTitle, MalformedRow, RerankEvalError, UnknownItem,
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
    history_sample: str = "recent"  # or "random:<seed>"

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

    def validate(self):
        if self.slate_size < 1 or self.bootstraps < 1 or self.sample_count < 1:
            raise ValueError("counts must be >= 1")
        if any(c < 1 or c > self.slate_size for c in self.cutoffs):
            raise ValueError("cutoffs must be within [1, slate_size]")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator: {self.generator}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode}")
        if self.knn_top_m < 1:
            raise ValueError("knn_top_m must be >= 1")
        if self.mf_k < 1:
            raise ValueError("mf_k must be >= 1")
        if self.ranking_size < 2:
            raise ValueError("ranking_size must be >= 2 (a 1-item ranking has no "
                             "rejected permutation)")


def _coerce(cls, key, value):
    """A config string as the type of the dataclass cls's field key; a
    nested config (RunConfig.backend) is a section, not a key."""
    types = {f.name: f.type for f in fields(cls)}
    if key not in types or is_dataclass(types[key]):
        raise ValueError(f"unknown config key: {key}")
    kind = types[key]
    if kind is tuple:
        return tuple(int(c) for c in str(value).replace(",", " ").split())
    if kind is bool:
        return str(value).lower() in ("1", "true", "yes")
    if kind in (int, float):
        return kind(value)
    return value


def load_config(path=None, overrides=None):
    """Read the INI config (any section layout; keys are flat) and apply
    CLI overrides."""
    values = {}
    backend_values = {}
    if path:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise FileNotFoundError(path)
        for section in parser.sections():
            for key, val in parser.items(section):
                if section == "backend":
                    backend_values[key] = val
                else:
                    values[key] = val
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key.startswith("backend_"):
            backend_values[key[len("backend_"):]] = val
        else:
            values[key] = val

    run = {key: _coerce(RunConfig, key, val) for key, val in values.items()}
    if backend_values:
        run["backend"] = BackendConfig(**{key: _coerce(BackendConfig, key, val)
                                          for key, val in backend_values.items()})
    cfg = RunConfig(**run)
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# Artifact IO
# --------------------------------------------------------------------------

def _write_split(run_dir, split, test_interactions):
    payload = {
        "train": [[r.user, r.item, r.rating, r.timestamp] for r in split.train],
        "test": [[r.user, r.item, r.rating, r.timestamp] for r in test_interactions],
        "relevance": {u: sorted(rs.relevant) for u, rs in sorted(split.relevance.items())},
        "excluded_users": split.excluded_users,
    }
    (run_dir / "split.json").write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _read_split(run_dir):
    payload = json.loads((run_dir / "split.json").read_text(encoding="utf-8"))
    train = [ingest.Interaction(u, i, r, t) for u, i, r, t in payload["train"]]
    test = [ingest.Interaction(u, i, r, t) for u, i, r, t in payload["test"]]
    relevance = {u: ingest.RelevanceSet(user=u, relevant=set(items))
                 for u, items in payload["relevance"].items()}
    return train, test, relevance


def _load_run_dir(cfg):
    """What run, build-dataset and export-slates read from cfg.run_dir:
    train, test and relevance from the split, the catalog, train grouped by
    user, and the sampled eval users."""
    run_dir = Path(cfg.run_dir)
    train, test, relevance = _read_split(run_dir)
    catalog = ingest.load_items(run_dir / "catalog.jsonl")
    by_user = ingest.train_by_user(train)
    users = _sample_eval_users(relevance, by_user, cfg)
    return train, test, relevance, catalog, by_user, users


def _write_catalog(run_dir, catalog):
    with (run_dir / "catalog.jsonl").open("w", encoding="utf-8") as fh:
        for item_id in sorted(catalog.items):
            c = catalog.items[item_id]
            fh.write(json.dumps({"id": c.id, "title": c.title, "genres": c.genres,
                                 "language": c.language,
                                 "overview": c.overview_short}) + "\n")


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_ingest(cfg):
    run_dir = Path(cfg.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    interactions = ingest.load_interactions(cfg.ratings)
    catalog = ingest.load_items(cfg.items)
    for card in catalog.items.values():
        words = card.overview_short.split()
        if len(words) > ingest.OVERVIEW_MAX_WORDS:
            card.overview_short = " ".join(words[:ingest.OVERVIEW_MAX_WORDS])
    split = ingest.split_leave_n_out(interactions, n_test=cfg.n_test,
                                     min_history=cfg.min_history,
                                     threshold=cfg.relevance_threshold)
    test = [r for r in interactions
            if r.user in split.relevance
            and r.item in split.relevance[r.user].relevant]
    _write_split(run_dir, split, test)
    _write_catalog(run_dir, catalog)
    (run_dir / "config.json").write_text(
        json.dumps(asdict(cfg), indent=2) + "\n", encoding="utf-8")

    users = {r.user for r in interactions}
    print(f"interactions: {len(interactions)}")
    print(f"users: {len(users)}")
    print(f"items: {len(catalog)}")
    print(f"eval users: {len(split.relevance)} (excluded: {split.excluded_users})")
    return EXIT_OK


def _sample_history(cfg, user_train):
    """The user's history as cfg.history_sample and cfg.history_limit say."""
    strategy, seed = "recent", None
    if cfg.history_sample.startswith("random"):
        _, _, s = cfg.history_sample.partition(":")
        strategy, seed = "random", int(s) if s else cfg.seed
    return ingest.sample_history(user_train, limit=cfg.history_limit,
                                 strategy=strategy, seed=seed)


def _sample_eval_users(relevance, by_user, cfg):
    eligible = sorted(u for u in relevance if u in by_user)
    if len(eligible) > cfg.sample_count:
        rng = np.random.default_rng(candgen.stable_seed(cfg.seed, "eval_users"))
        picks = rng.choice(len(eligible), size=cfg.sample_count, replace=False)
        eligible = sorted(eligible[int(p)] for p in picks)
    return eligible


def _external_slates(cfg, users, by_user, catalog):
    """Imported slates of users, less those of users whose slate is missing,
    names an item outside the catalog or one the user rated in train; each
    of those users is skipped with a logged reason."""
    slates = {s.user: s for s in candgen.import_slates(cfg.slates)}
    out = {}
    for user in users:
        slate = slates.get(user)
        if slate is None:
            log.warning("skipped user %s: no external slate", user)
            continue
        rated = {r.item for r in by_user[user]}
        unknown = [i for i in slate.items if i not in catalog]
        seen = [i for i in slate.items if i in rated]
        if unknown:
            log.warning("skipped user %s: slate items not in the catalog: %s",
                        user, unknown)
        elif seen:
            log.warning("skipped user %s: slate items rated in train: %s", user, seen)
        else:
            out[user] = slate
    return out


def _promptable_histories(cfg, slates, by_user, catalog):
    """The sampled history of each user with a slate, less the users whose
    history or slate names an item missing from the catalog or one with an
    empty title, which no prompt can show; each of those users is skipped
    with a logged reason."""
    out = {}
    for user, slate in slates.items():
        history = _sample_history(cfg, by_user[user])
        try:
            rerank.build_prompt(history, slate, catalog)
        except (EmptyTitle, UnknownItem) as e:
            log.warning("skipped user %s: %s", user, e)
            continue
        out[user] = history
    return out


def _build_slates(cfg, users, by_user, catalog, relevance, train):
    if cfg.generator == "external":
        return _external_slates(cfg, users, by_user, catalog)
    out = {}
    scorer = None
    if cfg.generator == "mf":
        scorer = candgen.train_mf(train, k=cfg.mf_k, epochs=cfg.mf_epochs,
                                  learn_rate=cfg.mf_learn_rate, reg=cfg.mf_reg,
                                  seed=cfg.seed)
    elif cfg.generator == "knn":
        sim = candgen.build_item_knn(train, top_m=cfg.knn_top_m,
                                     min_co_raters=cfg.knn_min_co_raters)
        scorer = candgen.ItemKnnRecommender(sim, train)

    for user in users:
        exclusions = {r.item for r in by_user[user]}
        if cfg.generator == "random":
            slate = candgen.gen_random_slate(
                user, catalog, exclusions, cfg.seed, slate_size=cfg.slate_size,
                inject_positives=cfg.inject_positives, relevance=relevance.get(user))
        else:
            slate = candgen.gen_model_slate(
                user, scorer, catalog, exclusions, cfg.inject_positives,
                relevance.get(user), cfg.seed, slate_size=cfg.slate_size,
                source=cfg.generator)
        out[user] = slate
    return out


def cmd_run(cfg):
    run_dir = Path(cfg.run_dir)
    train, _test, relevance, catalog, by_user, users = _load_run_dir(cfg)
    if not users:
        print("no eligible evaluation users", file=sys.stderr)
        return EXIT_CONFIG
    slates = _build_slates(cfg, users, by_user, catalog, relevance, train)
    if cfg.mode in _MODE_COLUMN:
        histories = _promptable_histories(cfg, slates, by_user, catalog)
        slates = {user: slates[user] for user in histories}
    skipped = len(users) - len(slates)
    users = sorted(slates)
    if cfg.mode in _MODE_COLUMN and len(users) < 2:
        # the paired t-test needs two users; stop before paying for requests
        print(f"error: re-ranking needs at least 2 evaluable users, got "
              f"{len(users)} (skipped {skipped})", file=sys.stderr)
        return EXIT_CONFIG

    baseline_rankings = {u: rerank.none_ranker(slates[u]).items for u in users}
    baseline_results = metrics.evaluate_run(baseline_rankings, relevance, cfg.cutoffs)

    ranked_results = None
    comparison = None
    fallbacks = 0
    if cfg.mode in _MODE_COLUMN:
        backend = make_backend(cfg.backend)
        jobs = [(histories[user], slates[user]) for user in users]
        ranked = rerank.rerank_users(jobs, catalog, backend, k=cfg.bootstraps,
                                     mode=cfg.mode, seed=cfg.seed,
                                     temperature=cfg.temperature)
        fallbacks = sum(consensus.fallback for consensus, _outputs in ranked)
        rankings = {user: consensus.items
                    for user, (consensus, _outputs) in zip(users, ranked)}
        ranked_results = metrics.evaluate_run(rankings, relevance, cfg.cutoffs)
        comparison = stats.compare_models(ranked_results, baseline_results)

    _write_report(run_dir, cfg, users, baseline_results, ranked_results,
                  comparison, skipped, fallbacks)
    print(f"evaluated {len(users)} users "
          f"(skipped {skipped}, bootstrap fallbacks {fallbacks})")
    print(f"report written to {run_dir / 'report.json'}")
    return EXIT_PARTIAL if skipped else EXIT_OK


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
    (run_dir / "report.json").write_text(json.dumps(report, indent=2,
                                                    sort_keys=True) + "\n",
                                         encoding="utf-8")

    base = {(r.metric, r.n): r.mean for r in baseline_results}
    ranked = {(r.metric, r.n): r.mean for r in (ranked_results or [])}
    rows = []
    for metric in metrics.METRIC_NAMES:
        for n in cfg.cutoffs:
            key = (metric, n)
            row = {"metric": metric, "n": n,
                   "non_ranker": f"{base[key]:.4f}",
                   "zero_shot": "", "sft_dpo": "",
                   "p_zero_vs_non": "", "p_sft_vs_non": ""}
            if key in ranked:
                row[mode_col] = f"{ranked[key]:.4f}"
                p_col = ("p_zero_vs_non" if mode_col == "zero_shot"
                         else "p_sft_vs_non")
                row[p_col] = stats.render_p(comparison[key])
            rows.append(row)

    header = ["metric", "n", "non_ranker", "zero_shot", "sft_dpo",
              "p_zero_vs_non", "p_sft_vs_non"]
    with (run_dir / "report.csv").open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(row[h]) for h in header) + "\n")

    lines = [" | ".join(h.ljust(13) for h in header)]
    for row in rows:
        cells = dict(row)
        values = {c: base[(row["metric"], row["n"])] for c in ("non_ranker",)}
        if (row["metric"], row["n"]) in ranked:
            values[mode_col] = ranked[(row["metric"], row["n"])]
        best = max(values, key=values.get)
        cells[best] = f"**{values[best]:.4f}**"
        lines.append(" | ".join(str(cells[h]).ljust(13) for h in header))
    (run_dir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_build_dataset(cfg):
    _train, test, relevance, catalog, by_user, users = _load_run_dir(cfg)
    test_by_user = {}
    for r in test:
        test_by_user.setdefault(r.user, []).append(r)

    backend = None if cfg.offline else make_backend(cfg.backend)

    dropped = 0
    jobs = []
    for user in users:
        history = _sample_history(cfg, by_user[user])
        ranking = datasetgen.correct_ranking_for_user(
            relevance[user], test_by_user.get(user, []), catalog,
            cfg.ranking_size, cfg.seed)
        if len(ranking) < 2:
            dropped += 1
        else:
            jobs.append((history, ranking))

    def sample_and_pair(job):
        """A user's (sft sample, dpo pair), or the RerankEvalError that
        drops the user."""
        history, ranking = job
        try:
            sample = datasetgen.make_positive_sample(backend, history, ranking,
                                                     catalog)
            return sample, datasetgen.make_dpo_pair(sample, cfg.seed, backend=backend)
        except RerankEvalError as e:
            return e

    if backend is None:
        built = [sample_and_pair(job) for job in jobs]
    else:
        # each user's requests run in sequence; users share one bounded pool
        built = bounded_map(sample_and_pair, jobs, backend.max_concurrent_requests)
    samples, pairs = [], []
    for (history, _ranking), result in zip(jobs, built):
        if isinstance(result, RerankEvalError):
            log.warning("dropped sample for user %s: %s", history.user, result)
            dropped += 1
        else:
            samples.append(result[0])
            pairs.append(result[1])

    out_dir = Path(cfg.out_dir or cfg.run_dir)
    manifest = datasetgen.write_training_files(samples, pairs, out_dir)
    print(f"sft samples: {manifest['sft']['count']}")
    print(f"dpo pairs: {manifest['dpo']['count']}")
    print(f"dropped: {dropped}")
    return EXIT_PARTIAL if dropped else EXIT_OK


def _read_likert(path):
    scores = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(),
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
    train, _test, relevance, catalog, by_user, users = _load_run_dir(cfg)
    slates = _build_slates(cfg, users, by_user, catalog, relevance, train)
    candgen.export_slates([slates[u] for u in sorted(slates)], out_path)
    print(f"wrote {len(slates)} slates to {out_path}")
    return EXIT_OK


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
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "build-dataset":
            return cmd_build_dataset(cfg)
        if args.command == "export-slates":
            return cmd_export_slates(cfg, args.out)
        raise ValueError(args.command)
    except (RerankEvalError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
