import builtins
import errno
import hashlib
import io
import json
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from rerankeval.candgen import Slate
from rerankeval.ingest import Catalog, History, Interactions, ItemCard, commit, write_split
from rerankeval.llm_client import ScriptedBackend


def make_catalog(n, title_prefix="Movie"):
    items = {}
    for i in range(1, n + 1):
        iid = str(i)
        items[iid] = ItemCard(id=iid, title=f"{title_prefix} {i}",
                              genres=["Drama"] if i % 2 else ["Comedy", "Action"],
                              language="en",
                              overview_short=f"Short overview number {i}.")
    return Catalog(items=items)


def make_slate(user, item_ids, source="random"):
    return Slate(user=user, items=[str(i) for i in item_ids], source=source)


def make_history(user, item_ids, rating=4.0, t0=1000):
    entries = [(str(i), rating, t0 - k) for k, i in enumerate(item_ids)]
    return History(user=user, entries=entries)


@pytest.fixture
def catalog():
    return make_catalog(30)


def write_corpus(dir_path, n_users=30, n_items=60, n_high=20, n_low=5):
    """Synthetic MovieLens-style ratings.csv + items.csv.

    Every user rates n_high items at >= 4.0 (so they qualify for eval with
    n_test=10) plus n_low sub-threshold items.
    """
    import random as _random
    rng = _random.Random(1234)
    ratings_lines = ["userId,itemId,rating,timestamp"]
    ts = 1000
    for u in range(1, n_users + 1):
        items = rng.sample(range(1, n_items + 1), n_high + n_low)
        for k, item in enumerate(items):
            rating = rng.choice([4.0, 4.5, 5.0]) if k < n_high else \
                rng.choice([1.0, 2.0, 3.0])
            ts += 1
            ratings_lines.append(f"u{u},{item},{rating},{ts}")
    (dir_path / "ratings.csv").write_text("\n".join(ratings_lines) + "\n")

    items_lines = ["id,title,genres,language,overview"]
    for i in range(1, n_items + 1):
        items_lines.append(f"{i},Movie {i},Drama|Comedy,en,Overview of movie {i}.")
    (dir_path / "items.csv").write_text("\n".join(items_lines) + "\n")
    return dir_path / "ratings.csv", dir_path / "items.csv"


def save_split(path, split):
    """Write split as ingest does: to path (split.json) and the split.npz
    beside it."""
    with commit(path.with_suffix(".npz"), path) as (npz, meta):
        write_split(npz, meta, split)


class _NoSpace:
    """An open file whose every write fails as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def full_disk(monkeypatch):
    """The set of file names whose writes fail: once a name is in it, each
    write to a file opened for writing under that name, or a temp file for
    it (name.<suffix>), raises OSError(ENOSPC), whichever module opens it."""
    real_open = io.open
    names = set()

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        name = "" if isinstance(file, int) else os.path.basename(os.fspath(file))
        if set(mode) & set("wax+") and any(name == n or name.startswith(n + ".")
                                           for n in names):
            return _NoSpace(fh)
        return fh

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)
    return names


def files_in(*dirs):
    """{path: bytes} of every file in dirs."""
    return {path: path.read_bytes() for d in dirs for path in d.iterdir()}


def damage_split(path, damage):
    """Rewrite the split pair at path (split.json) and beside it (split.npz)
    after damage(meta, columns) changed the JSON object and the npz members
    in place."""
    npz = path.with_suffix(".npz")
    meta = json.loads(path.read_text(encoding="utf-8"))
    with np.load(npz) as members:
        columns = dict(members)
    damage(meta, columns)
    np.savez(npz, **columns)
    path.write_text(json.dumps(meta), encoding="utf-8")


def interactions(rows):
    """A ratings table of (user, item, rating, timestamp) rows, in order."""
    return Interactions.from_columns([str(r[0]) for r in rows], [str(r[1]) for r in rows],
                                     [float(r[2]) for r in rows], [int(r[3]) for r in rows])


def table_rows(table):
    """A ratings table as (user, item, rating, timestamp) rows, in order."""
    return list(zip(table.users[table.user].tolist(), table.items[table.item].tolist(),
                    table.rating.tolist(), table.timestamp.tolist()))


def candidate_ids(prompt):
    """Item ids of a prompt's candidate lines, in prompt order."""
    return [line.split("[", 1)[1].split("]", 1)[0]
            for line in prompt.splitlines()
            if line.split(".")[0].isdigit() and "[" in line]


class PeakBackend(ScriptedBackend):
    """Scripted backend whose handler sleeps for delay(request) seconds and
    records the peak number of requests in flight."""

    def __init__(self, delay, handler):
        super().__init__(handler=self._timed)
        self._delay = delay
        self._answer = handler
        self._lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0

    def _timed(self, request):
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self._delay(request))
            return self._answer(request)
        finally:
            with self._lock:
                self.in_flight -= 1


def traced(call, *args, **kwargs):
    """call(*args, **kwargs) under tracemalloc: its result, and the bytes
    allocated during the call that are still held at its end and at their
    peak. What was allocated before the call is not counted."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def prompt_hash(request):
    """A stable number from a request's user prompt."""
    return int(hashlib.blake2b(request.user_prompt.encode(), digest_size=4).hexdigest(), 16)
