"""The repository benchmark: real rerankeval commands on seeded synthetic
corpora. Run it from the repository root:

    python3 perfbench/run.py --workload mf-zipf --seed 1 --seconds 32 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 also
runs the commands under tracing.Tracer and reports the per-layer metrics.
Every command runs in a fresh process (phase.py). Outputs are checked on
every run. Human-readable lines come first; the last stdout line is one JSON
object {correct, attempted, failed, metrics}. perfbench/README.md says why
each workload exists and which layer metric should move which end-to-end
metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from corpus import CorpusSpec, write_corpus  # noqa: E402
from tracing import layer_metrics  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5        # ingests per run; setup_s is their median
MIN_ITERATIONS = 3       # repeats of the measured commands; at least 2 for the byte checks
HARD_LIMIT_S = 140.0     # no new iteration starts after this
RUN_LIMIT_S = 170.0      # a command still running then is killed
CALIBRATE_REQUESTS = 200
STUB_CAP = 2             # max_concurrent_requests: the 2 cores the sizes were set on


@dataclass(frozen=True)
class Workload:
    why: str
    corpus: CorpusSpec
    run: dict                   # [run] keys of the generated config
    dataset_users: int          # sample_count of build-dataset
    llm: bool = False           # run and build-dataset talk to the stub
    stub: dict = field(default_factory=dict)


WORKLOADS = {
    "mf-zipf": Workload(
        why="MF candidates on Zipf-skewed ratings: SGD epochs and per-item "
            "score_mf calls dominate",
        corpus=CorpusSpec(users=800, items=1200, ratings=24_000, eval_users=700,
                          zipf_s=1.1),
        run={"generator": "mf", "mf_epochs": 2, "mf_k": 16, "mode": "none",
             "sample_count": 100},
        dataset_users=700),
    "knn-dense": Workload(
        why="largest corpus, item-kNN candidates: dense items x items build, "
            "slate scoring and split.json IO dominate",
        corpus=CorpusSpec(users=1500, items=1000, ratings=120_000, eval_users=400,
                          zipf_s=0.8),
        run={"generator": "knn", "knn_top_m": 30, "mode": "none", "sample_count": 100},
        dataset_users=400),
    "llm-http": Workload(
        why="zero-shot re-ranking through HttpBackend against a loopback stub: "
            "waiting on completions dominates",
        corpus=CorpusSpec(users=200, items=400, ratings=12_000, eval_users=100),
        run={"generator": "random", "mode": "zero_shot", "bootstraps": 3,
             "sample_count": 100},
        dataset_users=40, llm=True,
        stub={"mean_latency_ms": 10.0, "reject_share": 0.02}),
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "dataset_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A command failed or printed something the workload did not expect."""


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


class Bench:
    def __init__(self, name, seed, seconds, trace):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t0 = time.monotonic()
        self.work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.stub = None
        self.endpoint = ""
        self._phase_no = 0

    # -- processes ---------------------------------------------------------

    def phase(self, *argv, trace=False, extra=()):
        """Run phase.py in a fresh process and return its result."""
        self._phase_no += 1
        out = self.work / f"phase{self._phase_no}.json"
        cmd = [sys.executable, str(BENCH / "phase.py"), "--src", str(SRC),
               "--out", str(out), *extra]
        if trace:
            cmd.append("--trace")
        if argv:
            cmd += ["--", *argv]
        remaining = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.t0))
        proc = subprocess.run(cmd, cwd=self.work, env=_child_env(), timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"{' '.join(argv) or 'calibration'} crashed "
                             f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
        result = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        if result["rc"] != 0:
            raise BenchError(f"{' '.join(argv)} exited {result['rc']}: "
                             f"{result['stdout'][-500:]} {proc.stderr[-1500:]}")
        return result

    def start_stub(self):
        self.stub = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_child_env())
        port = self.stub.stdout.readline().strip()
        if not port.isdigit():
            raise BenchError("stub did not start")
        self.endpoint = f"http://127.0.0.1:{port}"

    def stop_stub(self):
        if self.stub is None:
            return
        self.stub.stdin.close()
        try:
            self.stub.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub.stdout.close()
        self.stub = None

    def stub_call(self, path, payload=None):
        data = None if payload is None else json.dumps(payload).encode()
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(urllib.request.Request(self.endpoint + path, data=data),
                         timeout=10) as resp:
            return json.loads(resp.read())

    # -- inputs --------------------------------------------------------------

    def prepare(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        write_corpus(self.work, self.wl.corpus, self.seed)
        self.eval_users = self.wl.corpus.eval_users
        if self.wl.llm or self.trace:
            self.start_stub()
        lines = ["[data]", "ratings = ratings.csv", "items = items.csv",
                 "run_dir = run", "[run]", f"seed = {self.seed}"]
        lines += [f"{k} = {v}" for k, v in self.wl.run.items()]
        if self.wl.llm:
            lines += ["[backend]", "kind = http", "model = stub",
                      f"endpoint = {self.endpoint}/v1/chat/completions",
                      f"max_concurrent_requests = {STUB_CAP}", "max_retries = 3",
                      "backoff_base = 0.01", "timeout = 30"]
        (self.work / "config.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # -- commands and their checks --------------------------------------------

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)

    def ingest(self, trace=False):
        res = self.phase("ingest", "--config", "config.ini", trace=trace)
        out = res["stdout"]
        self.check(f"interactions: {self.wl.corpus.ratings}\n" in out,
                   f"ingest read the wrong number of ratings: {out!r}")
        self.check(f"eval users: {self.eval_users} " in out,
                   f"ingest found the wrong number of eval users: {out!r}")
        res["split_bytes"] = (self.work / "run" / "split.json").stat().st_size
        return res

    def _digest(self, key, path):
        data = path.read_bytes()
        if self.endpoint:
            # the stub's port changes between runs; mask it so digests compare
            data = data.replace(self.endpoint.encode(), b"http://127.0.0.1:PORT")
        digest = hashlib.sha256(data).hexdigest()
        self.check(self.digests.setdefault(key, digest) == digest,
                   f"{path.name} differs between repeats of the same command")

    def _stub_counts(self):
        if not self.wl.llm:
            return None
        stats = self.stub_call("/stats")
        self.attempted += stats["completions"]
        self.failed += stats["completions_failed"]
        return stats

    def fresh_run_dir(self):
        """Every measured command starts from what ingest left, so no
        command sees files an earlier repeat wrote."""
        run_dir = self.work / "run"
        shutil.rmtree(run_dir)
        shutil.copytree(self.work / "ingested", run_dir)
        if self.wl.llm:
            self.stub_call("/reset", self.wl.stub)

    def run(self, trace=False):
        self.fresh_run_dir()
        res = self.phase("run", "--config", "config.ini", trace=trace)
        res["stub"] = self._stub_counts()
        report = json.loads((self.work / "run" / "report.json").read_text(encoding="utf-8"))
        expected = min(self.wl.run["sample_count"], self.eval_users)
        self.check(report["users_evaluated"] == expected,
                   f"run evaluated {report['users_evaluated']} users, expected {expected}")
        self.attempted += report["users_evaluated"] + report["users_skipped"]
        self.failed += report["users_skipped"] + report["bootstrap_fallbacks"]
        self._digest("report.json", self.work / "run" / "report.json")
        if self.wl.llm:
            report.pop("config")
            self.check(report == self.oracle,
                       "re-ranked report differs from the scripted-backend oracle")
        return res

    def dataset(self, trace=False):
        self.fresh_run_dir()
        argv = ["build-dataset", "--config", "config.ini",
                "--sample-count", str(self.wl.dataset_users)]
        if not self.wl.llm:
            argv += ["--offline", "1"]
        res = self.phase(*argv, trace=trace)
        res["stub"] = self._stub_counts()
        manifest = json.loads((self.work / "run" / "manifest.json").read_text(encoding="utf-8"))
        expected = min(self.wl.dataset_users, self.eval_users)
        counts = (manifest["sft"]["count"], manifest["dpo"]["count"])
        self.check(counts == (expected, expected),
                   f"dataset has {counts} sft/dpo records, expected {expected}")
        dropped = int(res["stdout"].split("dropped:", 1)[1].split()[0])
        self.attempted += counts[0] + dropped
        self.failed += dropped
        self._digest("manifest.json", self.work / "run" / "manifest.json")
        return res

    def scripted_oracle(self):
        """The stub answers exactly as ScriptedBackend's default echo, so the
        HTTP run must rank exactly as a scripted run does."""
        self.fresh_run_dir()
        self.phase("run", "--config", "config.ini", "--backend-kind", "scripted")
        report = json.loads((self.work / "run" / "report.json").read_text(encoding="utf-8"))
        report.pop("config")
        self.oracle = report

    # -- the run ---------------------------------------------------------------

    def iterations(self, body):
        """Repeat body() for about self.seconds, at least MIN_ITERATIONS times."""
        results = []
        start = time.monotonic()
        while True:
            t = time.monotonic()
            results.append(body())
            took = time.monotonic() - t
            now = time.monotonic()
            if len(results) >= MIN_ITERATIONS and (
                    now + took > start + self.seconds
                    or now + took > self.t0 + HARD_LIMIT_S):
                return results

    def measure(self):
        self.prepare()
        setups = [self.ingest(trace=self.trace)
                  for _ in range(1 if self.trace else SETUP_REPEATS)]
        shutil.copytree(self.work / "run", self.work / "ingested")
        if self.wl.llm:
            self.scripted_oracle()
        if self.trace:
            return self.measure_traced(setups[0])
        iters = self.iterations(lambda: (self.run(), self.dataset()))
        runs = [r for r, _ in iters]
        datasets = [d for _, d in iters]
        median = statistics.median
        # Means, not medians, over the repeats of a command: on the reference
        # VM the CPU switches between a fast and a ~1.5x slower state every
        # few seconds, and a median jumps between the two modes.
        metrics = {
            "setup_s": median(s["wall_s"] for s in setups),
            "run_s": statistics.fmean(r["wall_s"] for r in runs),
            "dataset_s": statistics.fmean(d["wall_s"] for d in datasets),
            "peak_rss_mb": max(median(p["maxrss_mb"] for p in phases)
                               for phases in (setups, runs, datasets)),
        }
        print(f"{self.name} seed={self.seed} ({self.wl.why}): {SETUP_REPEATS} ingests, "
              f"{len(iters)} x (run, build-dataset)")
        samples = {"setup_s": setups, "run_s": runs, "dataset_s": datasets}
        for name, value in metrics.items():
            each = " ".join(f"{p['wall_s']:.3f}" for p in samples.get(name, []))
            print(f"  {name:<13} {value:12.4f} {END_TO_END_UNITS[name]:<3} {each}")
        if self.wl.llm:
            requests = [r["stub"]["requests"] + d["stub"]["requests"] for r, d in iters]
            rejected = [r["stub"]["rejected"] + d["stub"]["rejected"] for r, d in iters]
            print(f"  llm_requests  {median(requests):12.0f} count (run + build-dataset; "
                  f"{median(rejected):.0f} of them answered 429 and retried)")
        return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    def measure_traced(self, setup):
        self.stub_call("/reset", {})
        calib = self.phase(extra=("--calibrate", str(CALIBRATE_REQUESTS),
                                  "--endpoint", self.endpoint + "/v1/chat/completions"))
        iters = self.iterations(lambda: (self.run(), self.run(trace=True),
                                         self.dataset(trace=True)))
        per_iter = []
        for _plain, traced, data in iters:
            m = layer_metrics([setup["spans"], traced["spans"], data["spans"]],
                              sum(traced["counts"].values()))
            stub = traced["stub"]
            m["cli.split_bytes"] = (setup["split_bytes"], "B", 1)
            m["llm_client.requests"] = (
                (stub["requests"] + data["stub"]["requests"]) if stub else 0, "count", 1)
            m["llm_client.cap_utilization"] = (
                stub["mean_inflight"] / STUB_CAP if stub else 0.0, "ratio",
                stub["requests"] if stub else 0)
            per_iter.append(m)
        plain = statistics.median(p["wall_s"] for p, _, _ in iters)
        traced = statistics.median(t["wall_s"] for _, t, _ in iters)
        out = {}
        for name in per_iter[0]:
            value = statistics.median(m[name][0] for m in per_iter)
            out[name] = (value, per_iter[0][name][1], per_iter[0][name][2])
        out["llm_client.stub_overhead_ms"] = (calib["per_request_ms"], "ms",
                                              CALIBRATE_REQUESTS)
        out["trace.overhead_frac"] = (traced / plain - 1.0, "ratio", len(iters))
        spans_file = WORK / f"trace-{self.name}-seed{self.seed}.json"
        spans_file.write_text(json.dumps({"ingest": setup["spans"], "run": iters[-1][1]["spans"],
                                          "build-dataset": iters[-1][2]["spans"]}),
                              encoding="utf-8")
        print(f"  spans of the last traced repeat: {spans_file.relative_to(ROOT)}")
        missing = set(setup["missing"])
        if missing:
            print(f"  not traced (absent from the program): {sorted(missing)}")
        print(f"{self.name} seed={self.seed} ({self.wl.why}): traced, {len(iters)} x "
              f"(run, traced run, traced build-dataset); n = samples per iteration")
        for name, (value, unit, n) in sorted(out.items()):
            print(f"  {name:<34} {value:14.4f} {unit:<6} n={n}")
        return {k: (v, u) for k, (v, u, _) in out.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that running commands are killed and the stub stops
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "rerankeval" / "cli.py").is_file():
        print(f"error: no rerankeval sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = bench.measure()
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, LookupError) as e:
        print(f"error: {args.workload} seed={args.seed}: {e}", file=sys.stderr)
        return 1
    finally:
        bench.stop_stub()
    for key, digest in sorted(bench.digests.items()):
        print(f"  digest {key} sha256={digest}")
    for err in bench.errors:
        print(f"  CHECK FAILED: {err}")
    if not bench.errors:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
