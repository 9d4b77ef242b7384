"""Byte-identity of the program's outputs: sha256 of report.json, a run's
slates.jsonl and the offline manifest on the conftest corpus, pinned to the
values the code gave before ratings became one columnar table (the slates as
the former export-slates command wrote them); of the
scripted-backend manifest, pinned to what the code gave before one-id
lookups went through dicts; and of report.csv and report.txt for every run,
and all three report files of a trained run, pinned to what the code gave
before the tables were rendered from the report.json object. A change that moves any of them must say why
and update the digest. Fresh interpreters also run every command and check
that none of them loads scipy or numpy.ma, and that no offline one loads the
HTTP stack."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rerankeval

from conftest import write_corpus
from rerankeval.cli import main

REPORTS = {  # (generator, mode) -> {report file extension: sha256}
    ("random", "none"): {
        "json": "4818b5dd299473910c8b9f4513e40100fddc5e6c71ccfe0f0b385f2b7f84b88b",
        "csv": "ca0df1c052a26fd6cf893090149b95c3dde048e1d81c31456e749a4c15c93ee7",
        "txt": "f2e2bf75e1aebdaa18eaaa9ac65dc90a196e3288901fa3ec93bf01b396f0a1ca"},
    ("mf", "none"): {
        "json": "c43c8f90edf0bafb4e7afa57ae3e6c5ea66c121e8914174648192b6a45a37693",
        "csv": "94058488934c3a3efa075e06ce177309bee743fcea1c29db3b6936c3b9ed9a4b",
        "txt": "324ed1817ee4154e740a82f9a37b0783741d91257d5f68d3a955c5cfc92c38f0"},
    ("knn", "none"): {
        "json": "58b562b3ff7844fa86e95dc8298e8cfc86e0f34700a4b26699a69055b109b651",
        "csv": "65b7d6fbf2970f90cfac383b56fbdcb2ceabc39223bf4cc69b1c50800dc99d2f",
        "txt": "525b8cc2b9b5b77f9dcf5bae3b9b78d250a6da067ec6edfd9383ba0eee7d5f1c"},
    ("random", "zero_shot"): {
        "json": "ac59ed29477f579c990d012234a936671f43e1b59aea96c5ba0a1c38ed2612a6",
        "csv": "73d7a224c134d0f56e801d3e0accfd6593fe3fcdaf1a0e26fc7e7536ce612d0a",
        "txt": "7df16cde7b00ad1fdc2661f6faf224ee652ca5e82d3d3e7ac1a18814bc398328"},
    ("random", "trained"): {
        "json": "dfa666b42e4785bdc024b4c4bc32390c2f3deab6ace673c4e4ac24f911b07956",
        "csv": "37819f688dae3a6577cbb8413380618325acb109bb3f7c8ed8ae6496574928fb",
        "txt": "aab8ae151fdb20012c0f20826915d13edd641721d6696f942a30aead25867349"},
}
SLATES = {
    "random": "3513602ac7586850d6dee84bcc4a2c92cede1b3ec3fd10488f15907bb66eb17b",
    "mf": "c190500c377b23c19b68cc69993e851b2515f6d9f0143ab2d092a665cde4436a",
    "knn": "aa016688038c48f89155c701db01f7ab2bb1f91a04aaae7fe68bf022ed23505d",
}
MANIFEST = "8b77cda04e2e73d3e6b3f3d9daae9b7960651d0faf5f8cda10d787d82d907499"
SCRIPTED_MANIFEST = "b051cdcb8eff646ab99f61256f338e7db7694f2b70a071a881935d83ddba6e68"


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture
def ingested(tmp_path, monkeypatch):
    """An ingested run directory "run", with the working directory set so
    every path in the outputs is relative."""
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path)
    assert main(["ingest", "--ratings", "ratings.csv", "--items", "items.csv",
                 "--run-dir", "run"]) == 0


@pytest.mark.parametrize("generator,mode", list(REPORTS))
def test_report(ingested, generator, mode):
    assert main(["run", "--run-dir", "run", "--generator", generator,
                 "--mode", mode]) == 0
    assert {ext: sha(f"run/report.{ext}") for ext in REPORTS[generator, mode]} == \
        REPORTS[generator, mode]


def test_exported_slates(ingested):
    for generator, digest in SLATES.items():
        assert main(["run", "--run-dir", "run", "--generator", generator,
                     "--mode", "none"]) == 0
        assert (generator, sha("run/slates.jsonl")) == (generator, digest)


def test_offline_manifest(ingested):
    assert main(["build-dataset", "--run-dir", "run", "--offline", "1",
                 "--ranking-size", "10"]) == 0
    assert sha("run/manifest.json") == MANIFEST


def test_scripted_manifest(ingested):
    assert main(["build-dataset", "--run-dir", "run", "--offline", "0",
                 "--ranking-size", "10"]) == 0
    assert sha("run/manifest.json") == SCRIPTED_MANIFEST


# runs the commands given as JSON in one interpreter; prints, after the
# import and after each command, its exit code and the loaded modules that
# are, or are under, one of the dotted module names in the second argument
LOADED_SCRIPT = """
import json, sys
from rerankeval.cli import main

packages = json.loads(sys.argv[2])

def loaded_modules():
    return sorted(m for m in sys.modules
                  if any(m == p or m.startswith(p + ".") for p in packages))

loaded = {"import": loaded_modules()}
for argv in json.loads(sys.argv[1]):
    loaded[" ".join(argv)] = (main(argv), loaded_modules())
print(json.dumps(loaded))
"""


def modules_loaded_by(tmp_path, commands, packages):
    """{"import": [...], "<argv>": [exit code, [...]]} of the modules that
    are, or are under, the dotted module names of packages, loaded after the
    CLI import and after each of commands, run in that order in one fresh
    interpreter, in tmp_path."""
    src = str(Path(rerankeval.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, json.dumps(commands),
                          json.dumps(packages)],
                         cwd=tmp_path, capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    return json.loads(out.splitlines()[-1])


COMMANDS = [
    ["ingest", "--ratings", "ratings.csv", "--items", "items.csv", "--run-dir", "run"],
    ["run", "--run-dir", "run", "--generator", "random", "--mode", "none"],
    ["run", "--run-dir", "run", "--generator", "mf", "--mode", "none"],
    ["build-dataset", "--run-dir", "run", "--offline", "1", "--ranking-size", "10"],
    ["human-eval", "a.txt", "b.txt", "--paired"],
    # last, so that run/report.json is the knn report
    ["run", "--run-dir", "run", "--generator", "knn", "--mode", "none"],
]


def loaded_by_every_command(tmp_path, packages):
    """modules_loaded_by of COMMANDS on the conftest corpus."""
    write_corpus(tmp_path)
    (tmp_path / "a.txt").write_text("4\n5\n3\n")
    (tmp_path / "b.txt").write_text("3\n4\n2\n")
    return modules_loaded_by(tmp_path, COMMANDS, packages)


def test_no_command_loads_scipy(tmp_path):
    # pytest has imported scipy, so the commands run in a fresh interpreter
    loaded = loaded_by_every_command(tmp_path, ["scipy"])
    assert loaded == {"import": [], **{" ".join(argv): [0, []] for argv in COMMANDS}}
    assert sha(tmp_path / "run" / "report.json") == REPORTS["knn", "none"]["json"]


def test_no_command_loads_numpy_ma(tmp_path):
    # numpy.ma loads with np.unique(x) and no return_* flag on numpy 2.4, and
    # adds about 2 MB to a command's peak RSS; no command needs it
    loaded = loaded_by_every_command(tmp_path, ["numpy.ma"])
    assert loaded == {"import": [], **{" ".join(argv): [0, []] for argv in COMMANDS}}


def test_no_offline_command_loads_the_http_stack(tmp_path):
    # http.client, with ssl, socket and email, loads with the first
    # HttpBackend; no command that makes no HTTP request pays for it
    write_corpus(tmp_path)
    (tmp_path / "a.txt").write_text("4\n5\n3\n")
    (tmp_path / "b.txt").write_text("3\n4\n2\n")
    commands = [
        ["ingest", "--ratings", "ratings.csv", "--items", "items.csv", "--run-dir", "run"],
        ["run", "--run-dir", "run", "--generator", "random", "--mode", "none"],
        ["run", "--run-dir", "run", "--generator", "mf", "--mode", "none"],
        ["run", "--run-dir", "run", "--generator", "knn", "--mode", "none"],
        ["run", "--run-dir", "run", "--generator", "random", "--mode", "zero_shot"],
        ["build-dataset", "--run-dir", "run", "--offline", "1", "--ranking-size", "10"],
        ["human-eval", "a.txt", "b.txt"],
    ]
    loaded = modules_loaded_by(tmp_path, commands, ["http", "ssl", "email", "socket"])
    assert loaded == {"import": [], **{" ".join(argv): [0, []] for argv in commands}}
    assert sha(tmp_path / "run" / "report.json") == REPORTS["random", "zero_shot"]["json"]
