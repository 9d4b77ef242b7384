"""Spans around calls into rerankeval's public functions, recorded from the
benchmark's side of the boundary (the program itself is not modified).

Tracer.install() replaces module attributes with wrappers that record a span
per call: name, start, end, parent span and the evaluated user it belongs to
(spans of one user share that id). Spans are kept in memory; the phase
runner writes them out when the command ends, and layer_metrics() turns the
spans of one traced command into per-layer numbers.
"""

import importlib
import itertools
import resource
import threading
import time
from contextlib import contextmanager


def _maxrss_mb():
    """Peak RSS so far (VmHWM); ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rerank_outcome(args, result):
    consensus, outputs = result
    parsed = [o for o in outputs if o.ranked]
    return {"bootstraps": len(outputs), "failed": len(outputs) - len(parsed),
            "missing": sum(len(o.missing) for o in parsed),
            "hallucinated": sum(len(o.hallucinated) for o in outputs),
            "fallback": int(consensus.fallback)}


# (module, attribute, span name, user of the call, attributes of the result).
# Functions are wrapped where their caller looks them up, so
# "rerank.complete_batch" is the batch call as reached from rerank_user and
# "candgen.sgd_epoch" the kernel as reached from train_mf.
TARGETS = [
    ("cli", "cmd_ingest", "cli.ingest", None, None),
    ("cli", "cmd_run", "cli.run", None, None),
    ("cli", "cmd_build_dataset", "cli.build_dataset", None, None),
    ("ingest", "load_interactions", "ingest.load_interactions", None,
     lambda a, r: {"rows": len(r)}),
    ("ingest", "load_items", "ingest.load_items", None, None),
    ("ingest", "split_leave_n_out", "ingest.split_leave_n_out", None, None),
    ("ingest", "train_by_user", "ingest.train_by_user", None, None),
    ("ingest", "sample_history", "ingest.sample_history", lambda a: a[0][0].user, None),
    ("candgen", "train_mf", "candgen.train_mf", None, None),
    ("candgen", "sgd_epoch", "candgen.sgd_epoch", None,
     lambda a, r: {"updates": len(a[3])}),
    ("candgen", "build_item_knn", "candgen.build_item_knn", None,
     lambda a, r: {"rss_after_mb": _maxrss_mb()}),
    ("candgen", "gen_random_slate", "candgen.gen_random_slate", lambda a: a[0], None),
    ("candgen", "gen_model_slate", "candgen.gen_model_slate", lambda a: a[0], None),
    ("rerank", "rerank_user", "rerank.rerank_user", lambda a: a[1].user,
     _rerank_outcome),
    ("rerank", "none_ranker", "rerank.none_ranker", lambda a: a[0].user, None),
    ("rerank", "complete_batch", "llm_client.complete_batch", None, None),
    ("datasetgen", "correct_ranking_for_user", "datasetgen.correct_ranking",
     lambda a: a[0].user, lambda a, r: {"size": len(r)}),
    ("datasetgen", "make_positive_sample", "datasetgen.make_positive_sample",
     lambda a: a[1].user, None),
    ("datasetgen", "make_dpo_pair", "datasetgen.make_dpo_pair", None, None),
    ("datasetgen", "write_training_files", "datasetgen.write_training_files",
     None, None),
    ("metrics", "evaluate_run", "metrics.evaluate_run", None, None),
    ("stats", "compare_models", "stats.compare_models", None, None),
]
# (module, class, method, span name; None counts calls without a span)
METHOD_TARGETS = [
    ("candgen", "ItemKnnRecommender", "__init__", "candgen.knn_recommender"),
    ("candgen", "MfModel", "score", None),
    ("candgen", "ItemKnnRecommender", "score", None),
    ("llm_client", "HttpBackend", "complete", "llm_client.complete"),
]


class _Adopting:
    """Backend proxy handed to complete_batch: each worker thread's call runs
    under the batch span, so its completion gets the batch as parent."""

    def __init__(self, backend, tracer, parent):
        self._backend = backend
        self._tracer = tracer
        self._parent = parent
        self.max_concurrent_requests = getattr(backend, "max_concurrent_requests", 1)

    def complete(self, request):
        with self._tracer.adopt(self._parent):
            return self._backend.complete(request)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.missing = []          # targets the program does not have
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def adopt(self, parent):
        saved = self._stack()
        self._local.stack = [parent]
        try:
            yield
        finally:
            self._local.stack = saved

    def call(self, name, fn, args, kwargs, user, describe):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if user is None and parent is not None:
            user = parent["user"]
        span = {"id": next(self._ids), "name": name,
                "parent": parent["id"] if parent else None, "user": user,
                "command": parent["command"] if parent else name, "attrs": {}}
        if name == "candgen.build_item_knn":
            span["attrs"]["rss_before_mb"] = _maxrss_mb()
        elif name == "llm_client.complete_batch":
            args = (_Adopting(args[0], self, span),) + tuple(args[1:])
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            span["attrs"]["error"] = type(e).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if name == "llm_client.complete":
            span["attrs"]["retries"] = result.retry_count
        elif describe is not None:
            span["attrs"].update(describe(args, result))
        return result

    def _wrap(self, fn, name, user_of, describe):
        def traced(*args, **kwargs):
            user = user_of(args) if user_of is not None else None
            return self.call(name, fn, args, kwargs, user, describe)

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn, key):
        counts = self.counts
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1  # slates are scored on one thread
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, package):
        """Wrap every target that the imported package has."""
        for mod_name, attr, name, user_of, describe in TARGETS:
            mod = importlib.import_module(f"{package}.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self._wrap(fn, name, user_of, describe))
        for mod_name, cls_name, method, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(f"{package}.{mod_name}"), cls_name, None)
            fn = getattr(cls, method, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{cls_name}.{method}")
                continue
            setattr(cls, method, self._counter(fn, f"{cls_name}.{method}") if name is None
                    else self._wrap(fn, name, None, None))


# --------------------------------------------------------------------------
# Per-layer numbers from the spans of traced commands
# --------------------------------------------------------------------------

def _union(intervals):
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Per span of one process: its duration minus the part of it that its
    children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [(s["end"] - s["start"]) - _union(children.get(s["id"], [])) for s in spans]


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def layer_metrics(commands, score_calls):
    """{metric: (value, unit, n)} from the span lists of traced commands (one
    list per process) and the scorer calls counted while they ran; n is the
    number of samples behind the value. A layer that did no work reports 0
    with n = 0."""
    spans = [s for command in commands for s in command]
    by_name = {}
    for s in spans:
        # ingest's loaders also read the catalog for run and build-dataset;
        # the ingest.* metrics are about the ingest command alone
        if s["name"].startswith("ingest.") and s["command"] != "cli.ingest":
            continue
        by_name.setdefault(s["name"], []).append(s)
    self_s = [t for command in commands for t in self_times(command)]

    def durs(*names):
        return [s["end"] - s["start"] for n in names for s in by_name.get(n, [])]

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, []))

    out = {}

    def put(metric, value, unit, n):
        out[metric] = (value, unit, n)

    def put_self(metric, prefix):
        picked = [t for s, t in zip(spans, self_s) if s["name"].startswith(prefix)]
        put(metric, sum(picked), "s", len(picked))

    def put_total(metric, *names):
        values = durs(*names)
        put(metric, sum(values), "s", len(values))

    loads = durs("ingest.load_interactions")
    put_total("ingest.load_s", "ingest.load_interactions", "ingest.load_items")
    put_total("ingest.split_s", "ingest.split_leave_n_out")
    put("ingest.rows_per_s",
        attr_sum("ingest.load_interactions", "rows") / sum(loads) if loads else 0.0,
        "1/s", len(loads))
    put_self("cli.ingest_self_s", "cli.ingest")
    put_self("cli.run_self_s", "cli.run")

    epochs = durs("candgen.sgd_epoch")
    put_total("candgen.mf_train_s", "candgen.train_mf")
    put("candgen.mf_epoch_s", percentile(epochs, 50), "s", len(epochs))
    put("candgen.mf_updates_per_s",
        attr_sum("candgen.sgd_epoch", "updates") / sum(epochs) if epochs else 0.0,
        "1/s", len(epochs))
    slates = durs("candgen.gen_model_slate", "candgen.gen_random_slate")
    put("candgen.slate_s", sum(slates), "s", len(slates))
    put("candgen.slate_ms_p50", percentile(slates, 50) * 1e3, "ms", len(slates))
    put("candgen.slate_ms_p90", percentile(slates, 90) * 1e3, "ms", len(slates))
    put("candgen.score_calls", score_calls, "count", len(slates))
    knn = by_name.get("candgen.build_item_knn", [])
    put_total("candgen.knn_build_s", "candgen.build_item_knn")
    put("candgen.knn_build_rss_mb",
        sum(s["attrs"]["rss_after_mb"] - s["attrs"]["rss_before_mb"] for s in knn),
        "MB", len(knn))

    users = durs("rerank.rerank_user")
    boots = attr_sum("rerank.rerank_user", "bootstraps")
    boots_failed = attr_sum("rerank.rerank_user", "failed")
    put("rerank.user_ms_p50", percentile(users, 50) * 1e3, "ms", len(users))
    put("rerank.user_ms_p90", percentile(users, 90) * 1e3, "ms", len(users))
    put_self("rerank.self_s", "rerank.")
    put("rerank.bootstraps", boots, "count", len(users))
    put("rerank.bootstraps_failed", boots_failed, "count", len(users))
    put("rerank.useful_bootstrap_ratio",
        (boots - boots_failed) / boots if boots else 0.0, "ratio", boots)
    for key, metric in (("missing", "rerank.missing_items"),
                        ("hallucinated", "rerank.hallucinated_items"),
                        ("fallback", "rerank.fallback_users")):
        put(metric, attr_sum("rerank.rerank_user", key), "count", len(users))

    completes = by_name.get("llm_client.complete", [])
    complete_ms = [(s["end"] - s["start"]) * 1e3 for s in completes]
    put_total("llm_client.batch_s", "llm_client.complete_batch")
    put("llm_client.complete_ms_p50", percentile(complete_ms, 50), "ms", len(completes))
    put("llm_client.complete_ms_p90", percentile(complete_ms, 90), "ms", len(completes))
    put("llm_client.completions", len(completes), "count", len(completes))
    put("llm_client.completions_failed",
        sum(1 for s in completes if "error" in s["attrs"]), "count", len(completes))
    put("llm_client.retries", attr_sum("llm_client.complete", "retries"), "count",
        len(completes))

    samples = by_name.get("datasetgen.make_positive_sample", [])
    failed = sum(1 for s in samples if "error" in s["attrs"])
    short = sum(1 for s in by_name.get("datasetgen.correct_ranking", [])
                if s["attrs"].get("size", 0) < 2)
    put_total("datasetgen.sample_s", "datasetgen.correct_ranking",
              "datasetgen.make_positive_sample")
    put_total("datasetgen.pair_s", "datasetgen.make_dpo_pair")
    put_total("datasetgen.write_s", "datasetgen.write_training_files")
    put("datasetgen.samples", len(samples) - failed, "count", len(samples))
    put("datasetgen.dropped", failed + short, "count", len(samples) + short)

    put_total("metrics.evaluate_s", "metrics.evaluate_run")
    put_total("stats.compare_s", "stats.compare_models")
    return out
