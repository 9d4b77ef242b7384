import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_mf.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_mf", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_mf_runs_and_checks_parity(capsys):
    load_bench().main(["--users", "12", "--items", "10", "--density", "0.5",
                       "--k", "3", "--epochs", "2", "--zipf", "1.2"])
    out = capsys.readouterr().out
    assert "60 interactions, k=3, 2 epochs, zipf=1.2" in out
    assert "levels per epoch:" in out
    assert "M updates/s" in out
    assert out.rstrip().endswith("outputs bit-identical")
