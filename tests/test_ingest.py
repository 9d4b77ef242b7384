import itertools
import json
import random
import re
import zipfile
from collections import Counter

import numpy as np
import pytest

from conftest import (damage_split, files_in, interactions, make_catalog, save_split,
                      table_rows, traced, write_corpus)
from split_oracle import history_entries, split_rows, take
from rerankeval import _csvscan, ingest
from rerankeval.errors import EmptyTitle, MalformedRow, NoHistory, RerankEvalError
from rerankeval.ingest import (RATING_MAX, RATING_MIN, Interactions, ItemCard, _codes,
                               _load_plain, _load_rows, build_item_description, commit,
                               index_dtype, load_interactions, load_items, read_split,
                               split_file, split_leave_n_out, user_history, write_split)


def write_large_corpus(tmp_path):
    """ratings.csv in the benchmark's largest corpus shape: a header and 120k
    rows of 1500 users and 1000 items."""
    rng = random.Random(5)
    p = tmp_path / "ratings.csv"
    p.write_text("userId,itemId,rating,timestamp\n" + "".join(
        f"u{rng.randint(1, 1500)},{rng.randint(1, 1000)},{rng.randint(1, 10) / 2:g},"
        f"{1_000_000_000 + n}\n" for n in range(120_000)), encoding="utf-8")
    return p


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadInteractions:
    def test_direct_field_mapping(self, tmp_path):
        p = write(tmp_path, "r.csv", "1,42,4.5,964982703\n")
        assert table_rows(load_interactions(p)) == [("1", "42", 4.5, 964982703)]

    def test_header_autodetected(self, tmp_path):
        p = write(tmp_path, "r.csv", "userId,itemId,rating,timestamp\n1,2,3.0,10\n")
        assert len(load_interactions(p)) == 1

    def test_rating_out_of_bounds(self, tmp_path):
        p = write(tmp_path, "r.csv", "1,42,6.0,100\n")
        with pytest.raises(MalformedRow):
            load_interactions(p)

    @pytest.mark.parametrize("row,message", [
        ("1,42,4.5,-1", "timestamp -1 outside"),
        (f"1,42,4.5,{2**63}", "outside [0, 2**63)"),
        ("1,4\x002,4.5,1", "one with a NUL"),
    ])
    def test_ids_and_timestamps_fit_the_table(self, tmp_path, row, message):
        with pytest.raises(MalformedRow, match=re.escape(message)):
            load_interactions(write(tmp_path, "r.csv", row + "\n"))

    def test_empty_file(self, tmp_path):
        assert len(load_interactions(write(tmp_path, "r.csv", ""))) == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="No such file or directory"):
            load_interactions(tmp_path / "nope.csv")

    def test_wrong_field_count_reports_line(self, tmp_path):
        p = write(tmp_path, "r.csv", "1,42,4.5,100\n1,43,2.0\n")
        with pytest.raises(MalformedRow) as exc:
            load_interactions(p)
        assert exc.value.line_no == 2

    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_bytes(b"\xef\xbb\xbfu1,i1,4.0,1\nu2,i1,3.0,2\nu1,i2,5.0,3\n")
        table = load_interactions(p)
        assert table.users.tolist() == ["u1", "u2"]
        assert table_rows(table)[0] == ("u1", "i1", 4.0, 1)


COLUMNS = ("users", "items", "user", "item", "rating", "timestamp")


def assert_same_table(a, b):
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


# Files outside the plain shape, each with what the row loop makes of it:
# its rows, or the line and message of its MalformedRow.
FALLBACK_CASES = [
    (b"1,42,6.0,100\n", (1, "rating 6.0 outside [0.5, 5.0]")),
    (b"1,42,4.5,-1\n", (1, "timestamp -1 outside [0, 2**63)")),
    (b"1,42,4.5,9223372036854775808\n",
     (1, "timestamp 9223372036854775808 outside [0, 2**63)")),
    (b"1,4\x002,4.5,1\n", (1, "empty user or item id, or one with a NUL")),
    (b"1,42,4.5,100\n1,43,2.0\n", (2, "expected 4 fields, got 3")),
    (b"1,42,4.5,100,7\n", (1, "expected 4 fields, got 5")),
    (b"1,,4.5,100\n", (1, "empty user or item id, or one with a NUL")),
    (b"1,42,nan,100\n", (1, "rating nan outside [0.5, 5.0]")),
    (b"1,42,4_5,100\n", (1, "rating 45.0 outside [0.5, 5.0]")),
    (b"1,42,4.5,1e0\n", (1, "invalid literal for int() with base 10: '1e0'")),
    (b"1,42,4.5,10.0\n", (1, "invalid literal for int() with base 10: '10.0'")),
    (b"1,42,4.5,100\n1,42,4.5.0,100\n", (2, "could not convert string to float: '4.5.0'")),
    (b"1,42,4.5,100\nabc", (2, "expected 4 fields, got 1")),
    (b"1,42,4.5,100\r\n1,43,2.0,101\r\n", [("1", "42", 4.5, 100), ("1", "43", 2.0, 101)]),
    (b'1,"4,2",4.5,100\n', [("1", "4,2", 4.5, 100)]),
    (b'"1",42,4.5,100\n', [("1", "42", 4.5, 100)]),
    (b"1,42,4.5,100\n\n1,43,2.0,101\n", [("1", "42", 4.5, 100), ("1", "43", 2.0, 101)]),
    (b"1,42,4.5,100\n   \n", [("1", "42", 4.5, 100)]),
    (b"1 , 42,4.5 ,100\n", [("1", "42", 4.5, 100)]),
    (b"1 , 42,4.5,100\n", [("1", "42", 4.5, 100)]),
    (b"1,42,4.5\t,100\n", [("1", "42", 4.5, 100)]),
    (b"1,42,4.5,100\n1,43,2.0,101", [("1", "42", 4.5, 100), ("1", "43", 2.0, 101)]),
    (b"1,42,4.5,1234567890123456789\n", [("1", "42", 4.5, 1234567890123456789)]),
    (b"1,42,1e0,100\n", [("1", "42", 1.0, 100)]),
    (b"1,42,+4.5,+100\n", [("1", "42", 4.5, 100)]),
    (b"\xc3\xa9,42,4.5,100\n", [("\u00e9", "42", 4.5, 100)]),
    (b"1,42,4.5,100\n" * 20 + b"1," + b"9" * 200 + b",4.5,100\n",
     [("1", "42", 4.5, 100)] * 20 + [("1", "9" * 200, 4.5, 100)]),
    (b"h\n1,42,4.5,100\n", [("1", "42", 4.5, 100)]),
    (b"userId,itemId,rating,timestamp\n", []),
    (b"", []),
]


class TestPlainPath:
    @pytest.mark.parametrize("data,expected", FALLBACK_CASES,
                             ids=[repr(data)[2:-1] for data, _ in FALLBACK_CASES])
    def test_other_shapes_fall_back_to_the_row_loop(self, tmp_path, data, expected):
        p = tmp_path / "r.csv"
        p.write_bytes(data)
        assert _load_plain(p) is None
        if isinstance(expected, tuple):
            with pytest.raises(MalformedRow) as exc:
                load_interactions(p)
            assert (exc.value.line_no, str(exc.value)) == \
                (expected[0], f"line {expected[0]}: {expected[1]}")
        else:
            assert table_rows(load_interactions(p)) == expected

    def test_fuzz_matches_the_row_loop(self, tmp_path):
        rng = random.Random(11)
        alphabet = "aZz09_-.:'~#"
        ratings = ["4.", ".5", "05.0", "0.5", "1", "2.5", "3.25", "4.0", "4.5", "5", "5.000"]
        breaks = [("rating", "nan"), ("rating", "1e0"), ("rating", " 4.0"), ("rating", "6"),
                  ("rating", "4.5.0"), ("rating", "."), ("rating", "4.0000000000000.0"),
                  ("user", " u"), ("item", '"x"'), ("item", ""), ("item", "\u00e9"),
                  ("ts", "-1"), ("ts", "1" * 19), ("ts", "4\r"), ("ts", "1.5"),
                  ("line", ""), ("end", "")]
        # id lengths either side of the 8-byte key; rating columns either side
        # of 15 characters, with leading zeros
        id_lengths = [(1, 7), (1, 8), (8, 8), (9, 12), (1, 12)]

        def long_rating(width):
            text = f"{rng.uniform(0.5, 5.0):.{rng.randint(1, width - 2)}f}"
            return text.zfill(width) if rng.random() < 0.5 else text

        p = tmp_path / "r.csv"
        seen = Counter()
        for case in range(500):
            id_length = rng.choice(id_lengths)
            ids = ["".join(rng.choices(alphabet, k=rng.randint(*id_length)))
                   for _ in range(rng.randint(1, 30))]
            rating_width = rng.choice([0, 0, 15, rng.randint(16, 20)])
            rows = []
            for _ in range(rng.randint(1, 60)):
                digits = rng.choice([1, 3, 10, 18])
                rows.append({"user": rng.choice(ids), "item": rng.choice(ids[:8]),
                             "rating": (long_rating(rating_width) if rating_width
                                        else rng.choice(ratings)),
                             "ts": str(rng.randrange(10 ** digits)).zfill(rng.choice([1, digits]))})
            if rating_width:
                rng.choice(rows)["rating"] = long_rating(rating_width).zfill(rating_width)
            broken = case % 3 == 0
            if broken:
                kind, value = rng.choice(breaks)
                row = rng.choice(rows[1:] or rows)  # a break may make line 1 a header
                if kind == "line":
                    rows.insert(rng.randint(0, len(rows)), None)
                elif kind != "end":
                    row[kind] = value
            lines = [",".join((r["user"], r["item"], r["rating"], r["ts"])) if r else ""
                     for r in rows]
            if case % 2:
                lines.insert(0, "userId,itemId,rating,timestamp")
            text = "\n".join(lines) + ("" if broken and kind == "end" else "\n")
            p.write_text(text, encoding="utf-8", newline="")
            plain = _load_plain(p)
            if broken:
                assert plain is None, text
                continue
            assert plain is not None, text
            assert_same_table(plain, _load_rows(p))
            seen["duplicate_pairs"] += len(rows) - len({(r["user"], r["item"]) for r in rows})
            seen["long_timestamps"] += sum(len(r["ts"]) == 18 for r in rows)
            seen["leading_zeros"] += sum(r["ts"][0] == "0" and len(r["ts"]) > 1 for r in rows)
            seen["long_timestamps_with_leading_zeros"] += sum(
                len(r["ts"]) == 18 and r["ts"][0] == "0" for r in rows)
            for column in ("user", "item"):
                width = max(len(r[column]) for r in rows)
                seen[f"{column}_keys_8_bytes" if width == 8 else
                     f"{column}_keys" if width < 8 else f"{column}_ids_9_to_12_bytes"] += 1
            width = max(len(r["rating"]) for r in rows)
            seen["ratings_15_wide" if width == 15 else
                 "ratings_by_digits" if width < 15 else "ratings_16_to_20_wide"] += 1
        assert len(seen) == 13 and min(seen.values()) >= 15, seen

    def test_small_blocks_and_scan_steps_match_the_row_loop(self, tmp_path, monkeypatch):
        # the fuzz above, with scan steps and row blocks that cut its files
        # and columns anywhere, a line or a field across two steps
        monkeypatch.setattr(_csvscan, "_SCAN_BYTES", 16)
        monkeypatch.setattr(_csvscan, "_BLOCK_ROWS", 3)
        self.test_fuzz_matches_the_row_loop(tmp_path)

    def test_peak_memory_is_a_small_multiple_of_the_file(self, tmp_path):
        # the file, its separator offsets and the table: about 2.9 times the
        # file's bytes. All four fields cut into padded byte-string columns,
        # as a wide column is, peak at 6.1 times.
        p = write_large_corpus(tmp_path)
        table, _, peak = traced(load_interactions, p)
        assert len(table) == 120_000
        assert peak <= 3.5 * p.stat().st_size, peak / p.stat().st_size

    def test_ingest_holds_each_rating_about_once(self, tmp_path):
        # parse, split and write: the split drops each parsed column once
        # train and test hold theirs, so the parse sets the peak, about 2.75
        # times the table's columns (66 B a row, 24 of them the columns); the
        # split and the write add nothing to it
        p = write_large_corpus(tmp_path)
        loaded, _, parse_peak = traced(load_interactions, p)
        expected = split_leave_n_out(loaded)
        counts = len(loaded), len(loaded.users)
        del loaded

        def parse_split_write():
            split, *got = split_file(p)
            with commit(tmp_path / "split.npz", tmp_path / "split.json") as (npz, meta):
                write_split(npz, meta, split)
            return split, got

        (split, got_counts), _, peak = traced(parse_split_write)
        assert peak <= 1.01 * parse_peak, peak / parse_peak
        assert tuple(got_counts) == counts and counts[0] == 120_000
        for name in ("train", "test"):
            assert_same_table(getattr(split, name), getattr(expected, name))
        assert split.excluded_users == expected.excluded_users

    def test_split_drops_each_input_column_once_copied(self, tmp_path):
        # the parse sets the peak of the test above, so the split's own is
        # traced here, on columns copied inside the traced call: the copies
        # are 1x the row columns' bytes (24 B a row), train and test 1x
        # between them, and the scratch about 0.07x; a split that kept its
        # input columns until it returned would peak at about 2.3x
        table = load_interactions(write_large_corpus(tmp_path))
        row_bytes = sum(getattr(table, name).nbytes
                        for name in ("user", "item", "rating", "timestamp"))

        def copy_and_split():
            columns = {name: column.copy() for name, column in ingest._columns(table).items()}
            return ingest._split(columns, 10, 5, ingest.RELEVANCE_THRESHOLD)

        split, _, peak = traced(copy_and_split)
        assert peak <= 2.2 * row_bytes, peak / row_bytes
        assert len(split.train) + len(split.test) <= len(table) == 120_000

    def test_offsets_hold_the_file_and_never_wrap(self, tmp_path, monkeypatch):
        # int32 offsets up to a file of 2**31 - 1 bytes, int64 beyond
        assert [index_dtype(size) for size in (2**31 - 1, 2**31)] == [np.int32, np.int64]
        # int16 offsets stand in for int32 ones at the limit: a file of
        # 2**15 - 1 bytes whose last line's fields are short, so that its
        # offsets plus the byte positions of the longest fields pass the limit
        lines = []
        while sum(map(len, lines)) < 2**15 - 40:
            n = len(lines)
            lines.append(f"u{n % 97},{n % 89},{n % 9 / 2 + 0.5:g},{1_000_000_000 + n}\n")
        lines.append("u" * (2**15 - 1 - sum(map(len, lines)) - len(",1,3,7\n")) + ",1,3,7\n")
        p = tmp_path / "ratings.csv"
        p.write_text("".join(lines), encoding="utf-8")
        assert p.stat().st_size == 2**15 - 1
        for dtype in (np.int16, np.int64):
            # the code columns are of the index type too, in either reader
            monkeypatch.setattr(ingest, "index_dtype", lambda *sizes: dtype)
            assert_same_table(_load_plain(p), _load_rows(p))

    @staticmethod
    def plain_ratings(tmp_path, texts):
        """The rating column _load_plain reads from a file of texts as ratings."""
        p = tmp_path / "r.csv"
        p.write_text("".join(f"u,{n},{text},1\n" for n, text in enumerate(texts)),
                     encoding="utf-8")
        table = _load_plain(p)
        assert table is not None
        return table.rating

    def test_short_ratings_parse_to_float_bit_for_bit(self, tmp_path):
        digits = "0123456789"
        texts = [d for d in digits] + [d + "." for d in digits] + ["." + d for d in digits]
        texts += [f"{d}.{f}" for d in digits for k in range(1, 5)
                  for f in ("".join(p) for p in itertools.product(digits, repeat=k))]
        texts = [t for t in texts if RATING_MIN <= float(t) <= RATING_MAX]
        assert len(texts) > 45_000
        expected = np.array([float(t) for t in texts])
        assert np.array_equal(self.plain_ratings(tmp_path, texts).view(np.int64),
                              expected.view(np.int64))

    def test_ratings_up_to_15_characters_parse_to_float_bit_for_bit(self, tmp_path):
        rng = random.Random(7)
        texts = []
        while len(texts) < 10_000:
            whole = "0" * rng.randint(0, 3) + rng.choice(["", "0", "1", "2", "3", "4", "5"])
            text = (whole + "." + "".join(rng.choices("0123456789", k=14)))[:rng.randint(2, 15)]
            if text != "." and RATING_MIN <= float(text) <= RATING_MAX:
                texts.append(text)
        assert max(map(len, texts)) == 15
        expected = np.array([float(t) for t in texts])
        assert np.array_equal(self.plain_ratings(tmp_path, texts).view(np.int64),
                              expected.view(np.int64))

    def test_benchmark_corpus_shape_takes_the_plain_path(self, tmp_path):
        # perfbench/corpus.py writes a header, then u{n},{i},{r:g},{ts} lines
        lines = ["userId,itemId,rating,timestamp"]
        lines += [f"u{n},{i},{r:g},{1_000_000_000 + n * 7 + i}"
                  for n in range(1, 40) for i, r in ((n % 13, 0.5 + n % 10 / 2), (n + 5, 4.0))]
        p = tmp_path / "ratings.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = _load_plain(p)
        assert table is not None and len(table) == 78
        assert_same_table(table, _load_rows(p))


class TestTake:
    def test_fuzz_matches_the_unique_oracle(self):
        rng = np.random.default_rng(3)
        seen = Counter()
        for case in range(300):
            n = int(rng.integers(0, 80))
            table = Interactions.from_columns(
                [f"u{k}" for k in rng.integers(0, 12, n)],
                [f"i{k}" for k in rng.integers(0, 20, n)],
                rng.choice([1.0, 3.5, 4.5], n), rng.integers(0, 2**40, n))
            kind = case % 5
            if kind == 0:    # a mask
                rows = rng.random(n) < rng.choice([0.0, 0.3, 0.9, 1.0])
            elif kind == 1:  # every row, in some order
                rows = rng.permutation(n)
            elif kind == 2:  # some rows, some of them repeated
                rows = rng.integers(0, max(n, 1), int(rng.integers(0, 2 * n + 1)))
            elif kind == 3:  # a subset in table order
                rows = np.flatnonzero(rng.random(n) < 0.5)
            else:            # no row
                rows = np.array([], dtype=np.int64)
            got = Interactions.from_codes(
                table.users, table.items,
                *(getattr(table, c)[rows] for c in ("user", "item", "rating", "timestamp")))
            expected = take(table, rows)
            for name in COLUMNS:
                x, y = getattr(got, name), getattr(expected, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (case, name)
            kept = (len(got.users) == len(table.users)) + (len(got.items) == len(table.items))
            seen[("some ids dropped", "one table kept whole", "both tables kept whole")[kept]] += 1
            seen["empty"] += not len(got)
            seen["repeated rows"] += len(np.unique(rows)) < len(rows) and rows.dtype != bool
        assert len(seen) == 5 and min(seen.values()) >= 10, seen


class TestLoadItems:
    def test_csv(self, tmp_path):
        p = write(tmp_path, "items.csv",
                  "id,title,genres,language,overview\n"
                  "1,Toy Story,Animation|Comedy,en,Toys come alive.\n")
        catalog = load_items(p)
        card = catalog.get("1")
        assert card.title == "Toy Story"
        assert card.genres == ["Animation", "Comedy"]

    def test_jsonl(self, tmp_path):
        p = write(tmp_path, "items.jsonl",
                  '{"id": 1, "title": "Toy Story", "genres": ["Animation"], '
                  '"language": "en", "overview": "Toys come alive."}\n')
        assert load_items(p).get("1").genres == ["Animation"]

    def test_csv_header_with_byte_order_mark(self, tmp_path):
        p = tmp_path / "items.csv"
        p.write_bytes("\ufeffid,title\n1,Toy Story\n".encode("utf-8"))
        assert load_items(p).get("1").title == "Toy Story"

    def test_jsonl_with_byte_order_mark(self, tmp_path):
        p = tmp_path / "items.jsonl"
        p.write_bytes('\ufeff{"id": 1, "title": "Toy Story"}\n'.encode("utf-8"))
        assert load_items(p).get("1").title == "Toy Story"

    @pytest.mark.parametrize("genres,expected", [
        ("null", []), ('"A|B"', ["A", "B"]), ('"A||B|"', ["A", "B"]),
        ('["A|B", "C"]', ["A|B", "C"]), ("[]", []), ('""', []),
    ])
    def test_jsonl_genres_null_str_or_list_of_str(self, tmp_path, genres, expected):
        p = write(tmp_path, "items.jsonl", f'{{"id": 1, "title": "T", "genres": {genres}}}\n')
        assert load_items(p).get("1").genres == expected

    def test_jsonl_without_genres(self, tmp_path):
        p = write(tmp_path, "items.jsonl", '{"id": 1, "title": "T"}\n')
        assert load_items(p).get("1").genres == []

    @pytest.mark.parametrize("genres", ["7", "[1, 2]", '["A", null]', '{"a": 1}', "{}",
                                        "false", "0"])
    def test_jsonl_genres_of_another_type_rejected_with_its_line(self, tmp_path, genres):
        p = write(tmp_path, "items.jsonl",
                  '{"id": 1, "title": "T"}\n' f'{{"id": 2, "title": "U", "genres": {genres}}}\n')
        with pytest.raises(MalformedRow, match="line 2: genres neither a str nor a list of str"):
            load_items(p)

    @pytest.mark.parametrize("name,text", [
        ("items.csv", "id,title\n1,Toy Story\n2\x00,Heat\n"),
        ("items.jsonl", '{"id": "1", "title": "A"}\n\n{"id": "2\\u0000", "title": "B"}\n'),
    ])
    def test_nul_in_an_id_rejected_with_its_line(self, tmp_path, name, text):
        # a str array drops trailing NULs, so "2\x00" would become "2"
        with pytest.raises(MalformedRow, match="line 3: item id with a NUL"):
            load_items(write(tmp_path, name, text))


class TestBuildItemDescription:
    def test_template(self):
        card = ItemCard(id="1", title="Toy Story", genres=["Animation", "Comedy"],
                        language="en", overview_short="Toys come alive.")
        assert build_item_description(card) == \
            "[1] Toy Story | Animation|Comedy | en | Toys come alive."

    def test_empty_genres_render_dash(self):
        card = ItemCard(id="2", title="X", genres=[], language="en",
                        overview_short="o")
        assert build_item_description(card) == "[2] X | - | en | o"

    def test_deterministic(self):
        card = ItemCard(id="1", title="A", genres=["G"], language="en",
                        overview_short="o")
        assert build_item_description(card) == build_item_description(card)

    def test_empty_title(self):
        with pytest.raises(EmptyTitle):
            build_item_description(ItemCard(id="1", title=""))


class TestSplit:
    def test_hand_traced_split(self):
        # 12 qualifying interactions + 2 sub-threshold; n_test=10 holds out
        # the 10 most recent qualifying rows
        rows = [("u", i, 4.5, 100 + i) for i in range(12)]
        rows += [("u", 100, 2.0, 500), ("u", 101, 1.0, 501)]
        split = split_leave_n_out(interactions(rows), n_test=10, min_history=2)
        rel = split.relevance["u"]
        assert len(rel.relevant) == 10
        # train keeps the 2 oldest qualifying + both sub-threshold rows
        assert len(split.train.rows_of("u")) == 4

    def test_small_user_excluded(self):
        rows = [("u", i, 4.5, i) for i in range(3)]
        split = split_leave_n_out(interactions(rows), n_test=1, min_history=5)
        assert "u" not in split.relevance
        assert split.excluded_users == 1
        assert len(split.train) == 3

    def test_user_whose_held_items_take_every_row_excluded(self):
        # "a" rated one item 15 times: that is one rating, the last, so "a"
        # falls below the min_history + n_test bar
        rows = [("a", "x", 5.0 - t / 10, t) for t in range(15)]
        rows += [(u, f"i{k}", 4.5, k) for u in ("b", "c") for k in range(16)]
        split = split_leave_n_out(interactions(rows))
        assert sorted(split.relevance) == ["b", "c"]
        assert split.excluded_users == 1
        assert split.test.users.tolist() == ["b", "c"]
        assert split.train.entries("a") == [("x", 3.6, 14)]

    def test_no_leakage(self):
        rows = [("u", i, 4.5, i) for i in range(20)]
        split = split_leave_n_out(interactions(rows), n_test=5, min_history=5)
        train_items = {item for item, _, _ in split.train.entries("u")}
        assert not (train_items & split.relevance["u"].relevant)


def fuzz_corpus(rng):
    """Rows in a shuffled file order, with few items and timestamps (so
    duplicate pairs and timestamp ties are common), and users at, just
    under and just over min_history + n_test qualifying rows."""
    n_test, min_history = rng.randint(1, 4), rng.randint(1, 3)
    bar = n_test + min_history
    rows = []
    for u in range(rng.randint(1, 12)):
        n_qualifying = rng.choice([bar - 1, bar, bar, bar + 1, rng.randint(0, 3 * bar)])
        for k in range(n_qualifying + rng.randint(0, 4)):
            rating = rng.choice([4.0, 4.5, 5.0] if k < n_qualifying else [0.5, 2.0, 3.5])
            rows.append((f"u{u}", f"i{rng.randint(0, 14)}", rating, rng.randint(0, 8)))
    rng.shuffle(rows)
    return rows, n_test, min_history


# each changes a written split's JSON object m or npz members c in place; a
# "held" one damages the held-out (test) table
DAMAGED_SPLITS = {
    "unsorted_users": lambda m, c: m["train"]["users"].reverse(),
    "duplicate_item": lambda m, c: m["test"]["items"].__setitem__(1, m["test"]["items"][0]),
    "int_item_id": lambda m, c: m["train"]["items"].__setitem__(
        0, int(m["train"]["items"][0])),
    "id_with_nul": lambda m, c: m["test"]["users"].__setitem__(
        -1, m["test"]["users"][-1] + "\x00"),
    "users_not_a_list": lambda m, c: m["train"].__setitem__(
        "users", dict.fromkeys(m["train"]["users"], 0)),
    "float_rows": lambda m, c: m["train"].__setitem__("rows", float(m["train"]["rows"])),
    "str_excluded_users": lambda m, c: m.__setitem__("excluded_users", "0"),
    "item_code_past_table": lambda m, c: c["train_item"].__setitem__(
        0, len(m["train"]["items"])),
    "negative_user_code": lambda m, c: c["train_user"].__setitem__(0, -1),
    "held_index_at_rows": lambda m, c: c["test_user"].__setitem__(
        0, len(m["test"]["users"])),
    "negative_held_index": lambda m, c: c["test_item"].__setitem__(0, -1),
    "two_dimensional_column": lambda m, c: c.__setitem__(
        "train_timestamp", c["train_timestamp"].reshape(-1, 1)),
    "big_endian_column": lambda m, c: c.__setitem__(
        "train_rating", c["train_rating"].astype(">f8")),
    # int64 codes, which only a table of 2**31 rows or more holds
    "int64_held": lambda m, c: c.__setitem__("test_user", c["test_user"].astype(np.int64)),
    "pickled_column": lambda m, c: c.__setitem__("train_item",
                                                 c["train_item"].astype(object)),
    "no_held_member": lambda m, c: c.pop("test_timestamp"),
    "test_rows_mismatch": lambda m, c: m["test"].__setitem__("rows", m["test"]["rows"] - 1),
    # written before one row per (user, item) was the rule: it may repeat a pair
    "no_format_marker": lambda m, c: m.pop("format"),
}


def assert_same_split_table(got, expected):
    """got and expected hold the same id tables, codes and columns, each
    column of the same dtype and each id table of str."""
    for name in ("users", "items", "user", "item", "rating", "timestamp"):
        a, b = getattr(got, name), getattr(expected, name)
        assert np.array_equal(a, b), name
        if a.dtype.kind == "U":  # a read id table is only as wide as its longest id
            assert b.dtype.kind == "U", name
        else:
            assert a.dtype == b.dtype, name


class TestSplitMatchesRowOracle:
    def test_fuzz(self, tmp_path):
        rng = random.Random(7)
        seen, no_eval_user = Counter(), 0
        for case in range(300):
            rows, n_test, min_history = fuzz_corpus(rng)
            table = interactions(rows)
            split = split_leave_n_out(table, n_test=n_test, min_history=min_history)
            save_split(tmp_path / "split.json", split)
            train, test, relevance, excluded = split_rows(rows, n_test, min_history)
            last = {row[:2]: n for n, row in enumerate(rows)}
            for result in (split, read_split(tmp_path / "split.json")):
                for got, expected in ((result.train, train), (result.test, test)):
                    assert table_rows(got) == expected
                    # the codes as split_oracle.take renumbers the same rows
                    assert_same_split_table(got, take(table, np.array(
                        [last[row[:2]] for row in expected], dtype=np.intp)))
                assert {u: rs.relevant for u, rs in result.relevance.items()} == relevance
                assert result.excluded_users == excluded
            for user in {r[0] for r in train}:
                user_rows = [r for r in train if r[0] == user]
                for strategy, seed in (("recent", None), ("random", case)):
                    assert user_history(split.train, user, limit=4, strategy=strategy,
                                        seed=seed).entries == \
                        history_entries(user_rows, 4, strategy, seed)
            # users at the bar once each (user, item) counts once
            qualifying = Counter(r[0] for r in train + test if r[2] >= 4.0)
            seen["at_bar"] += sum(n == n_test + min_history for n in qualifying.values())
            seen["duplicate_pairs"] += len(rows) - len({r[:2] for r in rows})
            seen["timestamp_ties"] += len(rows) - len({(r[0], r[3]) for r in rows})
            no_eval_user += not relevance  # an empty test table
        assert min(seen.values()) > 100 and no_eval_user > 30, (seen, no_eval_user)

    def test_written_split_is_a_json_and_an_npz(self, tmp_path):
        split = split_leave_n_out(load_interactions(write_corpus(tmp_path)[0]))
        save_split(tmp_path / "split.json", split)
        tables = {"train": split.train, "test": split.test}
        assert json.loads((tmp_path / "split.json").read_text(encoding="utf-8")) == {
            "format": 4,
            **{name: {"users": t.users.tolist(), "items": t.items.tolist(), "rows": len(t)}
               for name, t in tables.items()},
            "excluded_users": split.excluded_users}
        with np.load(tmp_path / "split.npz", allow_pickle=False) as npz:
            columns = dict(npz)
        assert {name: column.dtype.str for name, column in columns.items()} == {
            f"{name}_{column}": dtype for name in tables
            for column, dtype in (("user", "<i4"), ("item", "<i4"), ("rating", "<f8"),
                                  ("timestamp", "<i8"))}
        for name, t in tables.items():
            for column in ("user", "item", "rating", "timestamp"):
                assert np.array_equal(columns[f"{name}_{column}"],
                                      getattr(t, column)), (name, column)
        # no member is stamped with the write time, so a rewrite is byte-identical
        with zipfile.ZipFile(tmp_path / "split.npz") as archive:
            assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}

    def test_read_split_holds_each_rating_once(self, tmp_path):
        # 500 users rate 400 distinct items each: 200,000 rows, 10 held out a user
        n_users, per_user = 500, 400
        rng = np.random.default_rng(5)
        user = np.repeat(np.arange(n_users), per_user)
        item = (7 * user + 13 * np.tile(np.arange(per_user), n_users)) % 1000
        table = Interactions(np.array([f"u{u:03d}" for u in range(n_users)]),
                             np.array([f"i{i:03d}" for i in range(1000)]), user, item,
                             rng.integers(1, 11, len(user)) / 2.0,
                             rng.integers(0, 10**9, len(user)))
        save_split(tmp_path / "split.json", split_leave_n_out(table))
        del table, user, item

        def read_with_relevance():
            split = read_split(tmp_path / "split.json")
            assert len(split.relevance) == n_users
            return split

        split, held, _ = traced(read_with_relevance)
        tables = (split.train, split.test)
        assert sum(map(len, tables)) == n_users * per_user
        columns = sum(getattr(t, c).nbytes for t in tables
                      for c in ("user", "item", "rating", "timestamp"))
        assert held < 1.25 * columns, (held, columns)

    @pytest.mark.parametrize("damage", DAMAGED_SPLITS.values(), ids=DAMAGED_SPLITS.keys())
    def test_damaged_split_rejected(self, tmp_path, damage):
        split = split_leave_n_out(load_interactions(write_corpus(tmp_path)[0]))
        save_split(tmp_path / "split.json", split)
        damage_split(tmp_path / "split.json", damage)
        with pytest.raises(RerankEvalError, match="not a split written by this version"):
            read_split(tmp_path / "split.json")

    def test_item_only_in_test_gets_no_train_code(self):
        rows = [("u", i, 4.5, i) for i in range(6)] + [("v", 0, 3.0, 1)]
        split = split_leave_n_out(interactions(rows), n_test=2, min_history=2)
        assert split.test.items.tolist() == ["4", "5"]
        assert split.train.items.tolist() == ["0", "1", "2", "3"]
        assert np.array_equal(split.train.item_codes(["3", "5", "x"]), [3, -1, -1])


class TestCommit:
    def test_block_that_raises_changes_no_path(self, tmp_path):
        (tmp_path / "a").write_bytes(b"old a")
        with pytest.raises(ValueError):
            with commit(tmp_path / "a", tmp_path / "b") as (a, b):
                a.write(b"new a")
                b.write(b"new b")
                raise ValueError
        assert files_in(tmp_path) == {tmp_path / "a": b"old a"}

    def test_moves_in_order_and_removes_the_temps_after_a_failed_move(self, tmp_path):
        # a file cannot replace the directory b: a moved, b and c did not
        (tmp_path / "b").mkdir()
        with pytest.raises(IsADirectoryError):
            with commit(*(tmp_path / name for name in "abc")) as files:
                for fh, data in zip(files, (b"new a", b"new b", b"new c")):
                    fh.write(data)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a", "b"]
        assert (tmp_path / "a").read_bytes() == b"new a"


class TestLookups:
    def test_user_code_and_rows_of_an_unknown_user(self):
        table = interactions([("v", 1, 3.0, 1), ("u", 2, 4.0, 2), ("v", 3, 5.0, 3)])
        assert [table.user_code(u) for u in ("u", "v", "ghost")] == [0, 1, -1]
        assert table.rows_of("v").tolist() == [0, 2]
        assert table.rows_of("ghost").tolist() == []
        assert table.entries("ghost") == []
        assert interactions([]).rows_of("u").tolist() == []

    def test_positions_without_matches_the_code_lookup(self):
        rng = random.Random(11)
        for case in range(300):
            catalog = make_catalog(rng.randrange(0, 40))
            # ids in and out of the catalog, with repeats
            ids = [rng.choice([str(rng.randrange(0, 60)), f"x{rng.randrange(3)}"])
                   for _ in range(rng.randrange(0, 30))]
            codes = _codes(catalog.ids, ids)
            keep = np.ones(len(catalog.ids), dtype=bool)
            keep[codes[codes >= 0]] = False
            for given in (ids, set(ids)):
                assert np.array_equal(catalog.positions_without(given),
                                      np.flatnonzero(keep)), case


class TestSampleHistory:
    def test_keeps_ten_latest(self):
        rows = interactions([("u", i, 3.0, i) for i in range(25)])
        hist = user_history(rows, "u")
        assert len(hist.entries) == 10
        assert [e[2] for e in hist.entries] == list(range(24, 14, -1))

    def test_under_limit(self):
        rows = interactions([("u", i, 3.0, i) for i in range(4)])
        assert len(user_history(rows, "u").entries) == 4

    def test_timestamp_tie_breaks_by_item(self):
        rows = interactions([("u", 9, 3.0, 100), ("u", 2, 3.0, 100)])
        hist = user_history(rows, "u")
        assert [e[0] for e in hist.entries] == ["2", "9"]

    def test_empty_history(self):
        with pytest.raises(NoHistory):
            user_history(interactions([("v", 1, 3.0, 1)]), "u")

    def test_random_strategy_deterministic(self):
        rows = interactions([("u", i, 3.0, i) for i in range(30)])
        a = user_history(rows, "u", strategy="random", seed=7)
        b = user_history(rows, "u", strategy="random", seed=7)
        assert a == b
        assert len(a.entries) == 10
        # still timestamp-descending
        ts = [e[2] for e in a.entries]
        assert ts == sorted(ts, reverse=True)
