"""Corpus loading, filtering, round-trips, and statistics."""

import json

import pytest

from verseid.corpus import (
    Corpus,
    CorpusError,
    Verse,
    corpus_stats,
    filter_corpus,
    load_corpus,
    save_corpus,
)
from verseid.synthetic import SyntheticConfig, make_synthetic_corpus

from conftest import make_poem


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record_line(poem_id="p1", poet="a", form="ghazal", meter="ramal", status="confirmed",
                verses=(("x y", "z w"),)):
    return json.dumps(
        {
            "poem_id": poem_id,
            "poet": poet,
            "form": form,
            "meter": meter,
            "status": status,
            "verses": [list(v) for v in verses],
        },
        ensure_ascii=False,
    )


class TestLoading:
    def test_round_trip(self, tiny_corpus, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(tiny_corpus, path)
        again = load_corpus(path)
        assert again == tiny_corpus

    def test_duplicate_poem_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [record_line("p1"), record_line("p1")])
        with pytest.raises(CorpusError, match="line 2.*duplicate"):
            load_corpus(path)

    def test_missing_key_cites_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = json.loads(record_line("p2"))
        del bad["meter"]
        write_lines(path, [record_line("p1"), json.dumps(bad)])
        with pytest.raises(CorpusError, match="line 2.*'meter'"):
            load_corpus(path)

    def test_invalid_json_cites_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [record_line("p1"), "{not json"])
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match="empty corpus"):
            load_corpus(path)

    def test_unknown_status(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [record_line(status="maybe")])
        with pytest.raises(CorpusError, match="line 1.*status"):
            load_corpus(path)

    def test_no_verses(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [record_line(verses=())])
        with pytest.raises(CorpusError, match="line 1"):
            load_corpus(path)

    def test_single_hemistich_verse(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [json.dumps({
            "poem_id": "p1", "poet": "a", "form": "f", "meter": "m",
            "status": "confirmed", "verses": [["only one"]],
        })])
        corpus = load_corpus(path)
        assert corpus.records[0].verses[0] == Verse("only one", "")


class TestFiltering:
    def test_status_and_threshold(self, tmp_path):
        records = [
            make_poem("a1", "keeper", [("x y z", "w v u")] * 20),
            make_poem("a2", "keeper", [("q r", "s t")] * 30),
            make_poem("b1", "minor", [("m n", "o p")] * 5),
            make_poem("c1", "keeper", [("dropme", "dropme")] * 40, status="disputed"),
            make_poem("c2", "keeper", [("dropme", "dropme")] * 40, status="attributed"),
            make_poem("c3", "other", [("dropme", "dropme")] * 60, status="apocryphal"),
        ]
        # Every documented status loads, and only confirmed poems survive.
        path = tmp_path / "c.jsonl"
        save_corpus(Corpus(records), path)
        filtered = filter_corpus(load_corpus(path), min_verses_per_poet=50)
        assert [r.poem_id for r in filtered.records] == ["a1", "a2"]
        assert {r.poet for r in filtered.records} == {"keeper"}

    def test_ambiguous_poem_removed(self):
        corpus = make_synthetic_corpus(
            SyntheticConfig(n_poets=5, poems_per_poet=100, min_verses=4, max_verses=4, seed=1)
        )
        assert len(corpus) == 500
        corpus.records[123].attribution_status = "apocryphal"
        filtered = filter_corpus(corpus, min_verses_per_poet=50)
        assert len(filtered) == 499

    def test_nothing_survives(self, tiny_corpus):
        with pytest.raises(CorpusError, match="no poets survive"):
            filter_corpus(tiny_corpus, min_verses_per_poet=10_000)


class TestStats:
    def test_hand_computed(self):
        records = [
            make_poem("p1", "a", [("x", "y")] * 2),                 # 2 verses
            make_poem("p2", "a", [("x", "y")] * 4, meter="hazaj"),  # 4 verses
            make_poem("p3", "b", [("x", "y")] * 6, form="robai"),   # 6 verses
        ]
        stats = corpus_stats(Corpus(records))
        assert stats.n_poems == 3
        assert stats.n_verses == 12
        assert stats.n_poets == 2
        assert stats.verses_per_poem["mean"] == 4.0
        assert stats.verses_per_poem["median"] == 4.0
        assert stats.verses_per_poem["max"] == 6.0
        assert stats.verses_per_poem["std"] == pytest.approx((8 / 3) ** 0.5)
        assert stats.poems_per_poet == {"a": 2, "b": 1}
        assert stats.form_distribution == {"ghazal": 2, "robai": 1}
        assert stats.meter_distribution == {"ramal": 2, "hazaj": 1}
        assert stats.meters_per_poet == {"a": 2, "b": 1}

    def test_totals_consistent(self, small_synth):
        stats = corpus_stats(small_synth)
        assert sum(stats.poems_per_poet.values()) == stats.n_poems
        assert sum(stats.form_distribution.values()) == stats.n_poems
        assert sum(stats.meter_distribution.values()) == stats.n_poems

    def test_renderings(self, tiny_corpus):
        stats = corpus_stats(tiny_corpus)
        parsed = json.loads(stats.to_json())
        assert parsed["n_poems"] == 6
        text = stats.to_text()
        assert "meter distribution" in text
        assert "hazaj" in text
