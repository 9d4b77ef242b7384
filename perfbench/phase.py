"""Run one rerankeval command in a fresh process and report how it went.

    python3 phase.py --src SRC --out RESULT.json [--trace] -- <cli args>
    python3 phase.py --src SRC --out RESULT.json --calibrate N --endpoint URL

The first form times rerankeval.cli.main(<cli args>) in-process, from
loading the config to the command's last write, and records the process's
peak RSS (a fresh process per phase keeps ru_maxrss clean) and what the
command printed. With --trace the spans of tracing.Tracer are recorded too.
The second form sends N serial completions through HttpBackend to a stub
answering at zero latency and records the mean time per completion.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def run_command(argv, trace):
    from rerankeval import cli

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install("rerankeval")
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    wall = time.perf_counter() - start
    result = {"rc": rc, "wall_s": wall, "stdout": out.getvalue()}
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts, missing=tracer.missing)
    return result


def calibrate(endpoint, n):
    from rerankeval.llm_client import BackendConfig, ChatRequest, HttpBackend

    backend = HttpBackend(BackendConfig(kind="http", endpoint=endpoint, model="stub"))
    prompt = "Candidates:\n" + "\n".join(f"{k}. [{k}] Film {k}" for k in range(1, 16))
    backend.complete(ChatRequest("calibrate", prompt, seed=0))  # opens the connection
    start = time.perf_counter()
    for k in range(n):
        backend.complete(ChatRequest("calibrate", prompt, seed=k + 1))
    wall = time.perf_counter() - start
    return {"rc": 0, "wall_s": wall, "per_request_ms": wall / n * 1e3}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--calibrate", type=int, default=0)
    parser.add_argument("--endpoint", default="")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    if args.calibrate:
        result = calibrate(args.endpoint, args.calibrate)
    else:
        result = run_command(args.argv, args.trace)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
