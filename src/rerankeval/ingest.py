"""Corpus loading, item descriptions, train/test splitting and history sampling.

User and item ids are kept as opaque strings throughout; numeric ids from CSV
files are not converted.
"""

import csv
import json
import logging
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import EmptyTitle, MalformedRow, MissingFile, NoHistory

log = logging.getLogger(__name__)

RATING_MIN = 0.5
RATING_MAX = 5.0

# rating >= this counts as relevant (conventional MovieLens cutoff)
RELEVANCE_THRESHOLD = 4.0

HISTORY_LIMIT = 10
OVERVIEW_MAX_WORDS = 15


@dataclass(frozen=True)
class Interaction:
    user: str
    item: str
    rating: float
    timestamp: int


@dataclass
class ItemCard:
    id: str
    title: str
    genres: list = field(default_factory=list)
    language: str = ""
    overview_short: str = ""


@dataclass
class Catalog:
    items: dict  # item id -> ItemCard

    def __contains__(self, item_id):
        return item_id in self.items

    def __len__(self):
        return len(self.items)

    def get(self, item_id):
        return self.items.get(item_id)

    @cached_property
    def sorted_ids(self):
        """Item ids in sorted order, sorted on first use; items must not be
        added or removed after that."""
        return sorted(self.items)


@dataclass
class RelevanceSet:
    user: str
    relevant: set  # of item ids


@dataclass
class History:
    user: str
    entries: list  # of (item, rating, timestamp), timestamp-descending


@dataclass
class SplitResult:
    train: list            # Interactions
    relevance: dict        # user -> RelevanceSet
    excluded_users: int    # users with too little data to evaluate


def load_interactions(path):
    """Read a 4-column ratings CSV (userId,itemId,rating,timestamp).

    A header row is auto-detected. A malformed row raises MalformedRow.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    out = []
    with path.open(newline="", encoding="utf-8") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if line_no == 1 and _looks_like_header(row):
                continue
            out.append(_parse_row(row, line_no))
    return out


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
    if not user or not item:
        raise MalformedRow(line_no, "empty user or item id")
    try:
        rating = float(rating_s)
        ts = int(ts_s)
    except ValueError as e:
        raise MalformedRow(line_no, str(e)) from None
    if not (RATING_MIN <= rating <= RATING_MAX):
        raise MalformedRow(line_no, f"rating {rating} outside [{RATING_MIN}, {RATING_MAX}]")
    if ts < 0:
        raise MalformedRow(line_no, f"negative timestamp {ts}")
    return Interaction(user=user, item=item, rating=rating, timestamp=ts)


def load_items(path):
    """Read an item catalog from CSV or JSON-lines.

    Expected fields: id, title, genres (pipe-joined in CSV, list in JSONL),
    language, overview. Overviews longer than 15 words are kept in full here;
    summarization happens downstream.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    if path.suffix.lower() in (".jsonl", ".ndjson", ".json"):
        cards = _load_items_jsonl(path)
    else:
        cards = _load_items_csv(path)
    return Catalog(items={c.id: c for c in cards})


def _load_items_jsonl(path):
    cards = []
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise MalformedRow(line_no, str(e)) from None
            genres = obj.get("genres") or []
            if isinstance(genres, str):
                genres = [g for g in genres.split("|") if g]
            cards.append(ItemCard(
                id=str(obj["id"]),
                title=str(obj.get("title", "")),
                genres=list(genres),
                language=str(obj.get("language", "")),
                overview_short=str(obj.get("overview", "")),
            ))
    return cards


def _load_items_csv(path):
    cards = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            genres = [g for g in (row.get("genres") or "").split("|") if g]
            cards.append(ItemCard(
                id=str(row["id"]).strip(),
                title=(row.get("title") or "").strip(),
                genres=genres,
                language=(row.get("language") or "").strip(),
                overview_short=(row.get("overview") or "").strip(),
            ))
    return cards


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

    Users with at least min_history + n_test interactions rated >= threshold
    contribute their n_test most recent qualifying interactions as the held-out
    relevance set; everything else goes to train. Users below the bar stay in
    train but are excluded from evaluation.
    """
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    if min_history < 1:
        raise ValueError("min_history must be >= 1")

    by_user = {}
    for inter in interactions:
        by_user.setdefault(inter.user, []).append(inter)

    train = []
    relevance = {}
    excluded = 0
    for user, rows in by_user.items():
        qualifying = [r for r in rows if r.rating >= threshold]
        if len(qualifying) >= min_history + n_test:
            qualifying.sort(key=lambda r: (-r.timestamp, r.item))
            held = {r.item for r in qualifying[:n_test]}
            relevance[user] = RelevanceSet(user=user, relevant=held)
            train.extend(r for r in rows if r.item not in held)
        else:
            excluded += 1
            train.extend(rows)
    log.info("split: %d eval users, %d excluded", len(relevance), excluded)
    return SplitResult(train=train, relevance=relevance, excluded_users=excluded)


def sample_history(user_train, limit=HISTORY_LIMIT, strategy="recent", seed=None):
    """Sample a user's history from their train interactions.

    strategy "recent" keeps the `limit` most recent interactions; "random"
    draws uniformly without replacement (needs `seed`). Entries come back
    timestamp-descending, ties broken by item id ascending.
    """
    if not user_train:
        raise NoHistory("user has no train interactions")
    user = user_train[0].user
    rows = sorted(user_train, key=lambda r: (-r.timestamp, r.item))
    if strategy == "recent":
        rows = rows[:limit]
    elif strategy == "random":
        if len(rows) > limit:
            rng = random.Random(seed)
            rows = rng.sample(rows, limit)
            rows.sort(key=lambda r: (-r.timestamp, r.item))
    else:
        raise ValueError(f"unknown history strategy: {strategy}")
    return History(user=user, entries=[(r.item, r.rating, r.timestamp) for r in rows])


def train_by_user(train):
    """Group train interactions by user."""
    out = {}
    for inter in train:
        out.setdefault(inter.user, []).append(inter)
    return out
