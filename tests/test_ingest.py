import pytest

from conftest import interactions
from rerankeval.errors import EmptyTitle, MalformedRow, MissingFile, NoHistory
from rerankeval.ingest import (ItemCard, build_item_description,
                               load_interactions, load_items, sample_history,
                               split_leave_n_out)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadInteractions:
    def test_direct_field_mapping(self, tmp_path):
        p = write(tmp_path, "r.csv", "1,42,4.5,964982703\n")
        [inter] = load_interactions(p)
        assert (inter.user, inter.item, inter.rating, inter.timestamp) == \
            ("1", "42", 4.5, 964982703)

    def test_header_autodetected(self, tmp_path):
        p = write(tmp_path, "r.csv", "userId,itemId,rating,timestamp\n1,2,3.0,10\n")
        assert len(load_interactions(p)) == 1

    def test_rating_out_of_bounds(self, tmp_path):
        p = write(tmp_path, "r.csv", "1,42,6.0,100\n")
        with pytest.raises(MalformedRow):
            load_interactions(p)

    def test_empty_file(self, tmp_path):
        assert load_interactions(write(tmp_path, "r.csv", "")) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_interactions(tmp_path / "nope.csv")

    def test_wrong_field_count_reports_line(self, tmp_path):
        p = write(tmp_path, "r.csv", "1,42,4.5,100\n1,43,2.0\n")
        with pytest.raises(MalformedRow) as exc:
            load_interactions(p)
        assert exc.value.line_no == 2


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
        assert len([r for r in split.train if r.user == "u"]) == 4

    def test_small_user_excluded(self):
        rows = [("u", i, 4.5, i) for i in range(3)]
        split = split_leave_n_out(interactions(rows), n_test=1, min_history=5)
        assert "u" not in split.relevance
        assert split.excluded_users == 1
        assert len(split.train) == 3

    def test_n_test_zero_rejected(self):
        with pytest.raises(ValueError):
            split_leave_n_out([], n_test=0, min_history=1)

    def test_no_leakage(self):
        rows = [("u", i, 4.5, i) for i in range(20)]
        split = split_leave_n_out(interactions(rows), n_test=5, min_history=5)
        train_items = {r.item for r in split.train if r.user == "u"}
        assert not (train_items & split.relevance["u"].relevant)


class TestSampleHistory:
    def test_keeps_ten_latest(self):
        rows = interactions([("u", i, 3.0, i) for i in range(25)])
        hist = sample_history(rows)
        assert len(hist.entries) == 10
        assert [e[2] for e in hist.entries] == list(range(24, 14, -1))

    def test_under_limit(self):
        rows = interactions([("u", i, 3.0, i) for i in range(4)])
        assert len(sample_history(rows).entries) == 4

    def test_timestamp_tie_breaks_by_item(self):
        rows = interactions([("u", 9, 3.0, 100), ("u", 2, 3.0, 100)])
        hist = sample_history(rows)
        assert [e[0] for e in hist.entries] == ["2", "9"]

    def test_empty_history(self):
        with pytest.raises(NoHistory):
            sample_history([])

    def test_random_strategy_deterministic(self):
        rows = interactions([("u", i, 3.0, i) for i in range(30)])
        a = sample_history(rows, strategy="random", seed=7)
        b = sample_history(rows, strategy="random", seed=7)
        assert a == b
        assert len(a.entries) == 10
        # still timestamp-descending
        ts = [e[2] for e in a.entries]
        assert ts == sorted(ts, reverse=True)
