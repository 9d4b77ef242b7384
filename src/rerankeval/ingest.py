"""Corpus loading, item descriptions, train/test splitting and history sampling.

Ratings live in one columnar table, `Interactions`, from the CSV to the
slates. User and item ids are opaque strings; numeric ids are not converted.
"""

import csv
import json
import logging
import os
import random
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _csvscan as scan
from .errors import EmptyTitle, MalformedRow, NoHistory, RerankEvalError

log = logging.getLogger(__name__)

RATING_MIN = 0.5
RATING_MAX = 5.0

# rating >= this counts as relevant (conventional MovieLens cutoff)
RELEVANCE_THRESHOLD = 4.0

HISTORY_LIMIT = 10
OVERVIEW_MAX_WORDS = 15


@dataclass(eq=False)
class Interactions:
    """Ratings as columns: row n is user users[user[n]] rating item
    items[item[n]] at rating[n] and timestamp[n]. users and items are the
    sorted distinct ids of the rows, so code order is id order."""
    users: np.ndarray      # str
    items: np.ndarray      # str
    user: np.ndarray       # code per row, index_dtype(rows): int32 below 2**31 rows
    item: np.ndarray       # code per row, of the same type
    rating: np.ndarray     # float64
    timestamp: np.ndarray  # int64

    @classmethod
    def from_columns(cls, users, items, ratings, timestamps):
        """The table of parallel id, rating and timestamp columns, in row order."""
        users, user = np.unique(np.array(users, dtype=str), return_inverse=True)
        items, item = np.unique(np.array(items, dtype=str), return_inverse=True)
        index = index_dtype(len(user))
        return cls(users, items, user.astype(index), item.astype(index),
                   np.array(ratings, dtype=np.float64), np.array(timestamps, dtype=np.int64))

    @classmethod
    def from_codes(cls, users, items, user, item, rating, timestamp):
        """The table of these columns, whose codes index the id tables users
        and items, over just the ids the codes use."""
        users, user = _present(user, users)
        items, item = _present(item, items)
        return cls(users, items, user, item, rating, timestamp)

    def __len__(self):
        return len(self.user)

    def item_codes(self, ids):
        return _codes(self.items, ids)

    @cached_property
    def _user_index(self):
        """{user id: code}, built on first use, for one-id lookups."""
        return {user: code for code, user in enumerate(self.users.tolist())}

    def user_code(self, user):
        """user's code; -1 for an id not in the table."""
        return self._user_index.get(user, -1)

    @cached_property
    def _by_user(self):
        """Rows by user code, table order within a user; where each user starts."""
        starts = np.zeros(len(self.users) + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.user, minlength=len(self.users)), out=starts[1:])
        return np.argsort(self.user, kind="stable"), starts

    def rows_of(self, user):
        """Indices of user's rows, in table order; none for an unknown user."""
        order, starts = self._by_user
        code = self.user_code(user)
        return order[starts[code]:starts[code + 1]] if code >= 0 else order[:0]

    def entries(self, user):
        """(item id, rating, timestamp) of each of user's rows, in table order."""
        return self.entries_at(self.rows_of(user))

    def entries_at(self, rows):
        """(item id, rating, timestamp) of each of rows, in the order given."""
        return list(zip(self.items[self.item[rows]].tolist(),
                        self.rating[rows].tolist(), self.timestamp[rows].tolist()))


def _recent_first(item, timestamp, *groups):
    """Positions of these rows by groups (the last one primary), then most
    recent first, ties by item code (id order): the split's and the history's rule."""
    return np.lexsort((item, -timestamp, *groups))


def _present(codes, ids):
    """(the ids of the id table that codes use, codes renumbered to positions
    among them), as np.unique(codes, return_inverse=True) renumbers them, in
    the type index_dtype(len(codes))."""
    index = index_dtype(len(codes))
    present = np.zeros(len(ids), dtype=bool)
    present[codes] = True
    if present.all():
        return ids, codes.astype(index, copy=False)
    renumbered = np.cumsum(present, dtype=index)
    renumbered -= 1
    return ids[present], renumbered[codes]


def _codes(table, ids):
    """Position of each of ids in the sorted id table; -1 for an id not in it."""
    ids = np.array(ids, dtype=str)
    if not len(table):
        return np.full(len(ids), -1)
    pos = np.minimum(np.searchsorted(table, ids), len(table) - 1)
    return np.where(table[pos] == ids, pos, -1)


@dataclass
class ItemCard:
    id: str
    title: str
    genres: list = field(default_factory=list)
    language: str = ""
    overview_short: str = ""


@dataclass
class Catalog:
    """Item cards by id. The id table and each item's description are built
    on first use: items must not be added or removed after the first, and a
    card must not change after its first description."""
    items: dict  # item id -> ItemCard
    _descriptions: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    def __contains__(self, item_id):
        return item_id in self.items

    def get(self, item_id):
        return self.items.get(item_id)

    @cached_property
    def ids(self):
        """Item ids as one sorted str array."""
        return np.array(sorted(self.items), dtype=str)

    @cached_property
    def _positions(self):
        """{item id: position in ids}, keyed by the items' own id strings so
        that it copies none."""
        return {item_id: p for p, item_id in enumerate(sorted(self.items))}

    def positions_without(self, ids):
        """Ascending positions of the items not among ids, which need not be in it."""
        keep = np.ones(len(self.ids), dtype=bool)
        keep[[p for p in map(self._positions.get, ids) if p is not None]] = False
        return np.flatnonzero(keep)

    def description(self, item_id):
        """build_item_description of item_id's card, made once per item;
        None for an id not in the catalog. A card without a title raises
        EmptyTitle on every call, as nothing is kept for it."""
        text = self._descriptions.get(item_id)
        if text is None and item_id in self.items:
            text = self._descriptions[item_id] = build_item_description(self.items[item_id])
        return text


@dataclass
class RelevanceSet:
    user: str
    relevant: set  # of item ids


@dataclass
class History:
    user: str
    entries: list  # of (item, rating, timestamp), most recent first, ties by item id


@dataclass(eq=False)
class SplitResult:
    """Each (user, item)'s last rating, parted into the train table and the
    held-out test table; relevance is derived from test. Both tables group
    users in order of first appearance, file order within a user."""
    train: Interactions
    test: Interactions
    excluded_users: int    # users with too little data to evaluate

    @cached_property
    def relevance(self):
        """Eval user -> RelevanceSet of the items of their test rows."""
        test = self.test
        order, starts = test._by_user
        ids = test.items.tolist()  # one str per item, shared by the sets
        items = [ids[code] for code in test.item[order].tolist()]
        return {u: RelevanceSet(u, set(items[starts[code]:starts[code + 1]]))
                for code, u in enumerate(test.users.tolist())}


def load_interactions(path):
    """Read a 4-column ratings CSV (userId,itemId,rating,timestamp).

    A header row is auto-detected. A malformed row raises MalformedRow.
    A file in the plain shape _load_plain accepts is read in one vectorized
    pass; any other file row by row, with the same result.
    """
    table = _load_plain(path)
    return _load_rows(path) if table is None else table


# A file whose columns, each padded to its longest field, would take more than
# this many times its own bytes has an outsized field, and is read row by row
# instead: the plain path pads a wide id or rating column.
_MAX_PADDING = 4


def index_dtype(*sizes):
    """The index type scipy gives a sparse matrix of these dimensions and
    entry count, the type of offsets into a file of one of these sizes, and
    the type of the code columns of a table of one of these row counts:
    int32 when they all fit in it, else int64. A key or position computed
    from codes is widened first to a type that holds it."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


def _load_plain(path):
    """The table of a ratings file in the plain shape, or None for any other.

    Plain: ASCII bytes with no quote, whitespace or control byte but LF;
    every line, the last too, ends in LF and holds 4 non-empty fields; a
    rating is digits with at most one point, within [RATING_MIN, RATING_MAX];
    a timestamp is at most 18 digits; the columns, padded to their longest
    fields, fit in _MAX_PADDING times the file's bytes. csv.reader and
    _parse_row read such a file to the same values without error, so only
    _load_rows raises MalformedRow.

    Per row it holds the line's bytes, its four separator offsets and the
    table's columns, the id columns as sort keys until the bytes and offsets
    are dropped, and at any moment temporaries of a few bytes more; the
    scan's other arrays span one of its steps (see _csvscan).
    """
    buf = np.fromfile(path, dtype=np.uint8)
    if not len(buf) or buf[-1] != ord("\n"):
        return None
    cuts = scan.separators(buf, index_dtype(len(buf)))
    if cuts is None:
        return None
    header = int(_looks_like_header(buf[:cuts[4][0]].tobytes().decode().split(",")))
    widths = []
    for k in range(4):
        spans = cuts[k + 1] - cuts[k]  # field length + 1
        if not (spans > 1).all():  # each field in its line, not empty
            return None
        widths.append(int(spans[header:].max(initial=1)) - 1)
    del spans
    cuts = [column[header:] for column in cuts]
    if (not len(cuts[0]) or len(cuts[0]) * sum(widths) > _MAX_PADDING * len(buf)
            or widths[3] > 18):
        return None
    # fields last to first, each column of cuts popped once no field needs it
    ts = scan.column(scan.number, buf, cuts[3], cuts.pop(), widths[3], False)
    rating = scan.column(scan.number, buf, cuts[2], cuts.pop(), widths[2], True)
    if ts is None or rating is None or not ((RATING_MIN <= rating)
                                            & (rating <= RATING_MAX)).all():
        return None
    item = scan.column(scan.key, buf, cuts[1], cuts.pop(), widths[1])
    user = scan.column(scan.key, buf, *cuts, widths[0])
    del buf, cuts
    index = index_dtype(len(item))
    items, item = scan.ids(item, widths[1], index)
    users, user = scan.ids(user, widths[0], index)
    return Interactions(users, items, user, item, rating, ts)


def _load_rows(path):
    """The table of a ratings file, read row by row by csv.reader and
    _parse_row; a leading UTF-8 byte order mark is skipped."""
    parsed = []
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if line_no == 1 and _looks_like_header(row):
                continue
            parsed.append(_parse_row(row, line_no))
    return Interactions.from_columns(*(zip(*parsed) if parsed else ([],) * 4))


def _looks_like_header(row):
    if len(row) < 3:
        return True
    try:
        float(row[2])
        return False
    except ValueError:
        return True


def _parse_row(row, line_no):
    if len(row) != 4:
        raise MalformedRow(line_no, f"expected 4 fields, got {len(row)}")
    user, item, rating_s, ts_s = (f.strip() for f in row)
    if not user or not item or "\x00" in user + item:
        raise MalformedRow(line_no, "empty user or item id, or one with a NUL")
    try:
        rating = float(rating_s)
        ts = int(ts_s)
    except ValueError as e:
        raise MalformedRow(line_no, str(e)) from None
    if not (RATING_MIN <= rating <= RATING_MAX):
        raise MalformedRow(line_no, f"rating {rating} outside [{RATING_MIN}, {RATING_MAX}]")
    if not 0 <= ts < 2**63:
        raise MalformedRow(line_no, f"timestamp {ts} outside [0, 2**63)")
    return user, item, rating, ts


def load_items(path):
    """Read an item catalog from CSV or JSON-lines.

    Expected fields: id, title, genres (pipe-joined in CSV, list in JSONL),
    language, overview. Overviews are kept in full here; write_catalog cuts
    them. A row without an id, or with a NUL in its id, raises MalformedRow.
    """
    path = Path(path)
    if path.suffix.lower() in (".jsonl", ".ndjson", ".json"):
        rows = jsonl_objects(path, ("id",))
    else:
        rows = _csv_rows(path)
    cards = [_card(line_no, row) for line_no, row in rows]
    return Catalog(items={c.id: c for c in cards})


def _csv_rows(path):
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if row.get("id") is None:
                raise MalformedRow(reader.line_num, "no id field")
            yield reader.line_num, row


def _card(line_no, row):
    """An ItemCard from the catalog row on line_no; genres are absent, null,
    a list of str or one pipe-joined str. No id may hold a NUL: a str array
    like Catalog.ids drops trailing ones."""
    item_id = str(row["id"]).strip()
    if "\x00" in item_id:
        raise MalformedRow(line_no, "item id with a NUL")
    genres = row.get("genres")
    if genres is None:
        genres = []
    elif isinstance(genres, str):
        genres = [g for g in genres.split("|") if g]
    elif not (isinstance(genres, list) and all(isinstance(g, str) for g in genres)):
        raise MalformedRow(line_no, "genres neither a str nor a list of str")
    return ItemCard(id=item_id, title=str(row.get("title") or "").strip(),
                    genres=list(genres), language=str(row.get("language") or "").strip(),
                    overview_short=str(row.get("overview") or "").strip())


def write_catalog(fh, catalog):
    """Write catalog to the binary file fh, one JSON line per card in id
    order, with overviews longer than OVERVIEW_MAX_WORDS words cut to that many."""
    for item_id in catalog.ids.tolist():
        c = catalog.items[item_id]
        words = c.overview_short.split()
        overview = (" ".join(words[:OVERVIEW_MAX_WORDS])
                    if len(words) > OVERVIEW_MAX_WORDS else c.overview_short)
        fh.write(json.dumps({"id": c.id, "title": c.title, "genres": c.genres,
                             "language": c.language, "overview": overview}).encode() + b"\n")


@contextmanager
def commit(*paths):
    """Yield a list of binary files open for writing, one temp file beside
    each of paths, created as open(path, "wb") would create it. When the
    block ends, each temp file replaces its path, in the order given; if the
    block raises, the temp files are removed and no path changes. A kill
    between two moves leaves the earlier paths new and the later ones old, so
    a caller names last the file a reader checks first."""
    paths, temps, files = [Path(p) for p in paths], [], []
    try:
        with ExitStack() as stack:
            for path in paths:
                tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
                files.append(stack.enter_context(open(tmp, "xb")))
                temps.append(tmp)
            yield files
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise


def jsonl_objects(path, keys):
    """(line number, object) of each non-blank line of a JSON-lines file;
    MalformedRow for a line that is not a JSON object with all of keys."""
    with Path(path).open(encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise MalformedRow(line_no, str(e)) from None
            if not isinstance(obj, dict) or not all(key in obj for key in keys):
                raise MalformedRow(line_no, f"not a JSON object with {' and '.join(keys)}")
            yield line_no, obj


def build_item_description(card):
    """One-line natural-language description: id, title, genres, language, overview."""
    if not card.title:
        raise EmptyTitle(f"empty title for item {card.id}")
    genres = "|".join(card.genres) if card.genres else "-"
    language = card.language or "-"
    overview = card.overview_short or "-"
    return f"[{card.id}] {card.title} | {genres} | {language} | {overview}"


def split_leave_n_out(interactions, n_test=10, min_history=5,
                      threshold=RELEVANCE_THRESHOLD):
    """Leave-n-out split on the relevance-qualifying interactions of each user.

    An item a user rated more than once counts once, at its last rating in
    file order: the split keeps that row and drops the earlier ones, so
    train and test hold one row per (user, item). Users with at least
    min_history + n_test kept rows rated >= threshold hold out their n_test
    most recent qualifying rows (ties by item id) as test; everything else is
    train. Users below the bar stay in train but are excluded from evaluation.
    interactions is left whole; split_file splits a file without holding
    its table and both tables at once.
    """
    return _split(_columns(interactions), n_test, min_history, threshold)


def split_file(path, n_test=10, min_history=5, threshold=RELEVANCE_THRESHOLD):
    """(split_leave_n_out of load_interactions(path), the loaded table's row
    count, its user count). The split consumes the loaded table, which
    nothing else holds: each of its columns is dropped once train and test
    hold their copies of it."""
    columns = _columns(load_interactions(path))
    rows, users = len(columns["user"]), len(columns["users"])
    return _split(columns, n_test, min_history, threshold), rows, users


def _columns(table):
    """{field name: array} of an Interactions table."""
    return {f.name: getattr(table, f.name) for f in fields(Interactions)}


def _split(columns, n_test, min_history, threshold):
    """split_leave_n_out of the table of _columns `columns`, which it empties:
    train and test are built a column at a time, and each column is popped
    once both of its copies exist."""
    users, items = columns.pop("users"), columns.pop("items")
    n = len(columns["user"])
    kept = _last_ratings(columns["user"], columns["item"], len(users), len(items))
    user = columns["user"][kept]
    qualifying = np.flatnonzero(columns["rating"][kept] >= threshold)
    counts = np.bincount(user[qualifying], minlength=len(users))
    evaluated = counts >= min_history + n_test
    q = qualifying[evaluated[user[qualifying]]]
    # each eval user's qualifying rows, most recent first, ties by item id
    rows = kept[q]
    q = q[_recent_first(columns["item"][rows], columns["timestamp"][rows], user[q])]
    rank = np.arange(len(q)) - np.searchsorted(user[q], user[q])
    held = np.zeros(len(kept), dtype=bool)
    held[q[rank < n_test]] = True
    del user, qualifying, q, rows, rank  # before the tables are built
    excluded = len(users) - int(np.count_nonzero(evaluated))
    log.info("split: %d eval users, %d excluded, %d repeat ratings dropped",
             len(users) - excluded, excluded, n - len(kept))
    parts = kept[~held], kept[held]
    del kept, held
    train, test = {}, {}
    for name in ("user", "item", "rating", "timestamp"):
        column = columns.pop(name)
        train[name], test[name] = (column[rows] for rows in parts)
    del column, parts
    return SplitResult(train=Interactions.from_codes(users, items, **train),
                       test=Interactions.from_codes(users, items, **test),
                       excluded_users=excluded)


def _last_ratings(user, item, n_users, n_items):
    """Indices of each (user, item)'s last row in file order, users in order
    of first appearance among them, file order within a user: one stable
    argsort of the (user, item) key, whose runs each end at a pair's last
    row, then one sort of those rows by their user's first row and their own.
    The key is computed in the narrowest type that holds n_users x n_items."""
    n = len(user)
    pair = user.astype(index_dtype(n_users * n_items))
    pair *= n_items
    pair += item
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    last = np.ones(n, dtype=bool)  # where each pair's run ends
    np.not_equal(pair[1:], pair[:-1], out=last[:-1])
    del pair
    kept = order[last]  # users ascending
    del order, last
    if not n:
        return kept
    user = user[kept]
    starts = np.ones(len(kept), dtype=bool)  # where each user's rows start
    np.not_equal(user[1:], user[:-1], out=starts[1:])
    del user
    first = np.minimum.reduceat(kept, np.flatnonzero(starts))  # each user's first
    key = first[np.cumsum(starts) - 1]
    del starts
    key *= n
    key += kept
    key.sort()
    key %= n
    return key


# split.npz members: the Interactions columns of SplitResult.train and .test,
# as "<table>_<column>"
_SPLIT_TABLES = ("train", "test")
_SPLIT_COLUMNS = ("user", "item", "rating", "timestamp")
# split.json's "format": 4 holds the train and test tables, each with its own
# id tables and its codes in its index_dtype; 3 held the same tables with
# int64 codes; 2 held one table of every kept row and the held row indices,
# and the pairs written before 2 carry no marker and may repeat a (user, item)
_SPLIT_FORMAT = 4


def _column_dtypes(rows):
    """{split.npz column: its dtype} of a table of this many rows."""
    index = index_dtype(rows)
    return {"user": index, "item": index, "rating": np.float64, "timestamp": np.int64}


def write_split(npz, meta, split):
    """Write split's train and test columns (_SPLIT_COLUMNS, of the types
    _column_dtypes gives) to the binary file npz (split.npz), and its format,
    each table's id tables and row count, and excluded_users to the binary
    file meta (split.json) as JSON. Commit meta last: a split.json in place
    stands for a whole pair."""
    tables = {name: getattr(split, name) for name in _SPLIT_TABLES}
    np.savez(npz, **{f"{name}_{column}": np.asarray(getattr(table, column), dtype)
                     for name, table in tables.items()
                     for column, dtype in _column_dtypes(len(table)).items()})
    meta.write(json.dumps({
        "format": _SPLIT_FORMAT,
        **{name: {"users": table.users.tolist(), "items": table.items.tolist(),
                  "rows": len(table)} for name, table in tables.items()},
        "excluded_users": split.excluded_users}).encode() + b"\n")


def read_split(path):
    """The split write_split wrote to path; RerankEvalError for any other pair."""
    text = Path(path).read_bytes()  # a missing split.json fails with the OS text
    try:
        meta = json.loads(text)
        valid = meta.get("format") == _SPLIT_FORMAT and type(meta["excluded_users"]) is int
        if valid:
            # the handle is ours: np.load leaves it open when a damaged zip raises
            with (open(Path(path).with_suffix(".npz"), "rb") as fh,
                  np.load(fh, allow_pickle=False) as npz):
                tables = {name: _read_table(meta[name], npz, name)
                          for name in _SPLIT_TABLES}
            valid = all(table is not None for table in tables.values())
    except Exception:  # zipfile and numpy's header parser raise many types on damage
        valid = False
    if not valid:
        raise RerankEvalError(f"{path}: not a split written by this version; re-run ingest")
    return SplitResult(**tables, excluded_users=meta["excluded_users"])


def _read_table(meta, npz, name):
    """The table write_split wrote as name, from its split.json object meta
    and the split.npz npz; None unless its parts agree."""
    n, ids = meta["rows"], {k: np.array(meta[k], dtype=str) for k in ("users", "items")}
    columns = {column: npz[f"{name}_{column}"] for column in _SPLIT_COLUMNS}
    valid = (type(n) is int
             # lists of str, strictly increasing as _codes needs
             and all(t.tolist() == meta[k] and (t[1:] > t[:-1]).all()
                     for k, t in ids.items())
             and all(c.ndim == 1 and c.dtype == _column_dtypes(n)[column] and len(c) == n
                     for column, c in columns.items())
             and all(c.min(initial=0) >= 0 and c.max(initial=-1) < len(ids[k])
                     for c, k in ((columns["user"], "users"), (columns["item"], "items"))))
    return Interactions(**ids, **columns) if valid else None


def user_history(train, user, limit=HISTORY_LIMIT, strategy="recent", seed=None):
    """Sample user's history from their rows in the train table.

    strategy "random" draws `limit` uniformly without replacement (needs
    `seed`); any other keeps the `limit` most recent. Entries come back in
    the split's own order (_recent_first): most recent first, ties by item id.
    """
    rows = train.rows_of(user)
    if not len(rows):
        raise NoHistory(f"user {user} has no train interactions")
    rows = rows[_recent_first(train.item[rows], train.timestamp[rows])]
    if strategy != "random":
        rows = rows[:limit]
    elif len(rows) > limit:
        rows = rows[sorted(random.Random(seed).sample(range(len(rows)), limit))]
    return History(user=user, entries=train.entries_at(rows))
