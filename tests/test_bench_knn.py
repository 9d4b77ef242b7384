import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_knn.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_knn", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_knn_runs_and_checks_parity(capsys):
    load_bench().main(["--users", "30", "--items", "25", "--ratings", "300",
                       "--top-m", "5", "--min-co-raters", "2", "--eval-users", "10",
                       "--zipf", "1.1"])
    out = capsys.readouterr().out
    assert "300 ratings, 25 items, top_m=5, min_co_raters=2, zipf=1.1" in out
    assert "items/s" in out
    assert out.rstrip().endswith("outputs bit-identical")
