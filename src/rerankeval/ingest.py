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
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

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
    user: np.ndarray       # int64 code per row
    item: np.ndarray       # int64 code per row
    rating: np.ndarray     # float64
    timestamp: np.ndarray  # int64

    @classmethod
    def from_columns(cls, users, items, ratings, timestamps):
        """The table of parallel id, rating and timestamp columns, in row order."""
        users, user = np.unique(np.array(users, dtype=str), return_inverse=True)
        items, item = np.unique(np.array(items, dtype=str), return_inverse=True)
        return cls(users, items, user, item, np.array(ratings, dtype=np.float64),
                   np.array(timestamps, dtype=np.int64))

    def __len__(self):
        return len(self.user)

    def take(self, rows):
        """The table of rows (indices or a mask), over just the ids they use."""
        users, user = _present(self.user[rows], len(self.users))
        items, item = _present(self.item[rows], len(self.items))
        return Interactions(self.users[users], self.items[items], user, item,
                            self.rating[rows], self.timestamp[rows])

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
        order = np.argsort(self.user, kind="stable")
        return order, np.searchsorted(self.user[order], np.arange(len(self.users) + 1))

    def rows_of(self, user):
        """Indices of user's rows, in table order; none for an unknown user."""
        order, starts = self._by_user
        code = self.user_code(user)
        return order[starts[code]:starts[code + 1]] if code >= 0 else order[:0]

    def entries(self, user):
        """(item id, rating, timestamp) of each of user's rows, in table order."""
        rows = self.rows_of(user)
        return list(zip(self.items[self.item[rows]].tolist(),
                        self.rating[rows].tolist(), self.timestamp[rows].tolist()))


def _present(codes, n):
    """(the codes among 0..n-1 that occur in codes, ascending; codes
    renumbered to positions in it), as np.unique(codes, return_inverse=True)
    gives them."""
    present = np.zeros(n, dtype=bool)
    present[codes] = True
    kept = np.flatnonzero(present)
    if len(kept) == n:
        return kept, codes
    return kept, (np.cumsum(present) - 1)[codes]


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
    entries: list  # of (item, rating, timestamp), timestamp-descending


@dataclass(eq=False)
class SplitResult:
    """Each (user, item)'s last rating with the held-out ones marked; train
    and test are the two parts as tables, relevance is derived from test."""
    rows: Interactions     # users in order of first appearance, file order within
    held: np.ndarray       # bool per row: held out for evaluation
    excluded_users: int    # users with too little data to evaluate

    @cached_property
    def train(self):
        return self.rows.take(~self.held)

    @cached_property
    def test(self):
        return self.rows.take(self.held)

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


# rows cut per block, so that no temporary grows with rows x field width
_BLOCK_ROWS = 32768
# A file whose columns, each padded to its longest field, would take more than
# this many times its own bytes has an outsized field, and is read row by row
# instead: the plain path pads a wide id or rating column.
_MAX_PADDING = 4
# an id column at most this many bytes wide is sorted as one uint64 key per row
_KEY_BYTES = 8
# A rating at most this wide holds at most 15 digits, so the digits as an
# integer and the power of ten are exact doubles, and one division gives
# float()'s correctly rounded value.
_EXACT_RATING_WIDTH = 15
_POW10 = np.array([float(10 ** k) for k in range(_EXACT_RATING_WIDTH)])


def _load_plain(path):
    """The table of a ratings file in the plain shape, or None for any other.

    Plain: ASCII bytes with no quote, whitespace or control byte but LF;
    every line, the last too, ends in LF and holds 4 non-empty fields; a
    rating is digits with at most one point, within [RATING_MIN, RATING_MAX];
    a timestamp is at most 18 digits; the columns, padded to their longest
    fields, fit in _MAX_PADDING times the file's bytes. csv.reader and
    _parse_row read such a file to the same values without error, so only
    _load_rows raises MalformedRow.
    """
    buf = np.fromfile(path, dtype=np.uint8)
    if not len(buf) or buf[-1] != ord("\n"):
        return None
    ends = np.flatnonzero(buf == ord("\n"))
    # every byte LF or printable ASCII without space (0x21-0x7e), none a quote
    if (len(ends) + np.count_nonzero(buf - np.uint8(0x21) < 0x5e) != len(buf)
            or np.count_nonzero(buf == ord('"'))):
        return None
    commas = np.flatnonzero(buf == ord(","))
    if len(commas) != 3 * len(ends):
        return None
    # field k of line n is buf[cuts[k][n] + 1:cuts[k + 1][n]]
    cuts = [np.concatenate(([-1], ends[:-1])), *(commas[k::3].copy() for k in range(3)), ends]
    del commas, ends
    header = int(_looks_like_header(buf[:cuts[4][0]].tobytes().decode().split(",")))
    widths = []
    for k in range(4):
        lengths = cuts[k + 1] - cuts[k] - 1
        if not (lengths > 0).all():  # each field in its line, not empty
            return None
        widths.append(int(lengths[header:].max(initial=0)))
    del lengths
    cuts = [column[header:] for column in cuts]
    if (not len(cuts[0]) or len(cuts[0]) * sum(widths) > _MAX_PADDING * len(buf)
            or widths[3] > 18):
        return None
    # fields last to first, each column of cuts popped once no field needs it
    ts = _number(buf, cuts[3], cuts.pop(), widths[3], decimal=False)
    rating = _number(buf, cuts[2], cuts.pop(), widths[2], decimal=True)
    if ts is None or rating is None or not ((RATING_MIN <= rating)
                                            & (rating <= RATING_MAX)).all():
        return None
    items, item = _ids(buf, cuts[1], cuts.pop(), widths[1])
    users, user = _ids(buf, *cuts, widths[0])
    return Interactions(users, items, user, item, rating, ts)


def _field(buf, before, stops, width):
    """buf[before[n] + 1:stops[n]] of each row n, as a bytes column `width`
    wide (at least the longest)."""
    out = np.empty((len(before), width), dtype=np.uint8)
    offsets = np.arange(1, width + 1)
    for lo in range(0, len(before), _BLOCK_ROWS):
        start, stop = before[lo:lo + _BLOCK_ROWS, None], stops[lo:lo + _BLOCK_ROWS, None]
        at = start + offsets
        block = buf.take(at, mode="clip")
        block[at >= stop] = 0
        out[lo:lo + _BLOCK_ROWS] = block
    return out.view(f"S{width}").ravel()


def _byte(buf, before, stops, j):
    """Byte j of each field buf[before[n] + 1:stops[n]], 0 past its end."""
    at = before + (j + 1)
    byte = buf.take(at, mode="clip")
    byte[at >= stops] = 0
    return byte


def _ids(buf, before, stops, width):
    """(sorted distinct ids as a str array, code per row) of the id fields
    buf[before[n] + 1:stops[n]], `width` bytes the longest. Ids of at most
    _KEY_BYTES bytes are sorted as one uint64 per row, their bytes
    big-endian and NUL-padded: plain ids hold no NUL, so key order is byte
    order, and ASCII byte order is code point order, as from_columns sorts."""
    if width > _KEY_BYTES:
        ids, codes = np.unique(_field(buf, before, stops, width), return_inverse=True)
        return ids.astype(str), codes
    key = np.zeros(len(before), dtype=np.uint64)
    for j in range(width):
        key <<= np.uint64(8)
        key |= _byte(buf, before, stops, j)
    key <<= np.uint64(8 * (_KEY_BYTES - width))
    keys, codes = np.unique(key, return_inverse=True)
    return keys.astype(">u8").view(f"S{_KEY_BYTES}").astype(f"U{width}"), codes


def _number(buf, before, stops, width, decimal):
    """Each field buf[before[n] + 1:stops[n]], `width` bytes the longest, as
    a number, or None unless every field is digits (decimal: with at most one
    point, and at least one digit). The digits are read into an int64 by one
    Horner step per byte position, exact for at most 18 of them. Without
    decimal that int64 is the column; with it, the float64 column equal to
    float() of each field: the int64 over a power of ten up to
    _EXACT_RATING_WIDTH bytes, float() of each field beyond."""
    value = np.zeros(len(before), dtype=np.int64)
    if decimal:
        after = np.zeros(len(before), dtype=np.int64)  # digits after the point
        point, any_digit = np.zeros(len(before), dtype=bool), np.zeros(len(before), dtype=bool)
    for j in range(width):
        byte = _byte(buf, before, stops, j)
        digit = byte - np.uint8(ord("0"))
        is_digit = digit < 10
        valid = is_digit | (byte == 0)
        if decimal:
            is_point = byte == ord(".")
            if (is_point & point).any():
                return None
            valid |= is_point
            point |= is_point
            after += point & is_digit
            any_digit |= is_digit
        if not valid.all():
            return None
        value = np.where(is_digit, value * 10 + digit, value)
    if not decimal:
        return value
    if not any_digit.all():
        return None
    if width <= _EXACT_RATING_WIDTH:
        return value / _POW10[after]
    return _field(buf, before, stops, width).astype(np.float64)


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
    rows, train and test hold one row per (user, item). Users with at least
    min_history + n_test kept rows rated >= threshold hold out their n_test
    most recent qualifying rows (ties by item id) as test; everything else is
    train. Users below the bar stay in train but are excluded from evaluation.
    """
    pair = interactions.user * len(interactions.items) + interactions.item
    _, last = np.unique(pair[::-1], return_index=True)
    kept = np.sort(len(pair) - 1 - last)
    # users in order of first appearance among the kept rows, file order within
    user = interactions.user[kept]
    _, first = np.unique(user, return_index=True)
    rows = interactions.take(kept[np.argsort(first[user], kind="stable")])
    qualifying = np.flatnonzero(rows.rating >= threshold)
    counts = np.bincount(rows.user[qualifying], minlength=len(rows.users))
    evaluated = counts >= min_history + n_test
    q = qualifying[evaluated[rows.user[qualifying]]]
    # each eval user's qualifying rows, most recent first, ties by item id
    q = q[np.lexsort((rows.item[q], -rows.timestamp[q], rows.user[q]))]
    rank = np.arange(len(q)) - np.searchsorted(rows.user[q], rows.user[q])
    held = np.zeros(len(rows), dtype=bool)
    held[q[rank < n_test]] = True
    excluded = len(rows.users) - int(np.count_nonzero(evaluated))
    log.info("split: %d eval users, %d excluded, %d repeat ratings dropped",
             len(rows.users) - excluded, excluded, len(interactions) - len(rows))
    return SplitResult(rows=rows, held=held, excluded_users=excluded)


# split.npz members: the Interactions fields of SplitResult.rows, and held row indices
_SPLIT_COLUMNS = {"user": np.int64, "item": np.int64, "rating": np.float64,
                  "timestamp": np.int64, "held": np.int64}
# split.json's "format": 2 holds one row per (user, item); the pairs written
# before it carry no marker and may repeat one
_SPLIT_FORMAT = 2


def write_split(npz, meta, split):
    """Write split's row columns and held row indices (_SPLIT_COLUMNS) to the
    binary file npz (split.npz), and its format, id tables, row count and
    excluded_users to the binary file meta (split.json) as JSON. Commit meta
    last: a split.json in place stands for a whole pair."""
    rows = split.rows
    columns = dict(user=rows.user, item=rows.item, rating=rows.rating,
                   timestamp=rows.timestamp, held=np.flatnonzero(split.held))
    np.savez(npz, **{name: np.asarray(column, _SPLIT_COLUMNS[name])
                     for name, column in columns.items()})
    meta.write(json.dumps({"format": _SPLIT_FORMAT, "users": rows.users.tolist(),
                           "items": rows.items.tolist(), "rows": len(rows),
                           "excluded_users": split.excluded_users}).encode() + b"\n")


def read_split(path):
    """The split write_split wrote to path; RerankEvalError for any other pair."""
    text = Path(path).read_bytes()  # a missing split.json fails with the OS text
    try:
        meta = json.loads(text)
        n, tables = meta["rows"], {k: np.array(meta[k], dtype=str) for k in ("users", "items")}
        # the handle is ours: np.load leaves it open when a damaged zip raises
        with (open(Path(path).with_suffix(".npz"), "rb") as fh,
              np.load(fh, allow_pickle=False) as npz):
            c = {name: npz[name] for name in _SPLIT_COLUMNS}
        valid = (meta.get("format") == _SPLIT_FORMAT
                 and type(n) is int and type(meta["excluded_users"]) is int
                 # lists of str, strictly increasing as _codes needs
                 and all(t.tolist() == meta[k] and (t[1:] > t[:-1]).all()
                         for k, t in tables.items())
                 and all(col.ndim == 1 and col.dtype == _SPLIT_COLUMNS[name]
                         and (name == "held" or len(col) == n) for name, col in c.items())
                 and all(((0 <= c[name]) & (c[name] < bound)).all() for name, bound in (
                     ("user", len(tables["users"])), ("item", len(tables["items"])), ("held", n))))
    except Exception:  # zipfile and numpy's header parser raise many types on damage
        valid = False
    if not valid:
        raise RerankEvalError(f"{path}: not a split written by this version; re-run ingest")
    held = np.bincount(c.pop("held"), minlength=n) > 0
    return SplitResult(Interactions(**tables, **c), held, meta["excluded_users"])


def user_history(train, user, limit=HISTORY_LIMIT, strategy="recent", seed=None):
    """Sample user's history from their rows in the train table.

    strategy "random" draws `limit` uniformly without replacement (needs
    `seed`); any other keeps the `limit` most recent. Entries come back
    timestamp-descending, ties broken by item id ascending.
    """
    def by_recency(entries):
        return sorted(entries, key=lambda e: (-e[2], e[0]))

    entries = by_recency(train.entries(user))
    if not entries:
        raise NoHistory(f"user {user} has no train interactions")
    if strategy != "random":
        entries = entries[:limit]
    elif len(entries) > limit:
        entries = by_recency(random.Random(seed).sample(entries, limit))
    return History(user=user, entries=entries)
