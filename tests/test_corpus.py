"""Corpus loading, filtering, round-trips, statistics, and the config codec."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseid.corpus import (
    Corpus,
    CorpusError,
    PoemRecord,
    StaleArtifactError,
    Verse,
    corpus_stats,
    filter_corpus,
    load_corpus,
    save_corpus,
)
from verseid.embeddings import EmbeddingConfig
from verseid.encoder import EncoderConfig
from verseid.model import FusionConfig, TrainConfig
from verseid.normalize import NormalizationConfig
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
        with pytest.raises(CorpusError, match="no poems"):
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

    def test_record_without_verses_rejected(self):
        with pytest.raises(CorpusError, match="poem 'p9': no verses"):
            PoemRecord("p9", "a", "ghazal", "ramal", "confirmed", [])

    def test_single_hemistich_verse(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [json.dumps({
            "poem_id": "p1", "poet": "a", "form": "f", "meter": "m",
            "status": "confirmed", "verses": [["only one"]],
        })])
        corpus = load_corpus(path)
        assert corpus.records[0].verses[0] == Verse("only one", "")


# Text rich in quotes, line breaks and non-ASCII letters, which JSONL must carry.
AWKWARD_TEXT = st.text(
    st.one_of(st.sampled_from(',"\'\r\n\t \u2028\u0085گل‌ی'),
              st.characters(blacklist_categories=("Cs",))),
    max_size=12,
)


class TestPredictInput:
    @settings(max_examples=100, deadline=None)
    @given(poems=st.dictionaries(
        AWKWARD_TEXT,
        st.lists(st.tuples(AWKWARD_TEXT, AWKWARD_TEXT), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ))
    def test_unlabelled_jsonl_round_trip(self, poems, tmp_path_factory):
        path = tmp_path_factory.mktemp("predict") / "poems.jsonl"
        lines = [json.dumps({"poem_id": pid, "verses": [list(v) for v in verses]},
                            ensure_ascii=False) for pid, verses in poems.items()]
        write_lines(path, lines)
        records = load_corpus(path, labelled=False).records
        assert {r.poem_id: [(v.hemistich_1, v.hemistich_2) for v in r.verses]
                for r in records} == poems
        assert [r.poem_id for r in records] == list(poems)


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


class TestSettings:
    """Each config that an artifact header records writes its fields and its
    fixed settings, reads them back, and rejects any other value of a fixed
    setting."""

    STEPS = ("map_yeh", "map_kaf", "strip_diacritics", "strip_tatweel", "strip_markup",
             "collapse_whitespace")
    # Per class: an instance and its fixed settings.
    CASES = {
        NormalizationConfig: (NormalizationConfig(strip_zwnj=True), dict.fromkeys(STEPS, True)),
        EmbeddingConfig: (EmbeddingConfig(dim=8), {"min_lr_factor": 1e-4, "batch_pairs": 512}),
        EncoderConfig: (EncoderConfig(vocab_size=9), {}),
        TrainConfig: (TrainConfig.desk(), {"warmup_frac": 0.1, "clip_norm": 1.0}),
        FusionConfig: (FusionConfig(use_meter=False), {}),
    }

    @pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
    def test_round_trip_writes_fields_and_fixed_settings(self, cls):
        cfg, fixed = self.CASES[cls]
        d = cfg.to_dict()
        assert cls.from_dict(d) == cfg
        assert set(d) == {f.name for f in dataclasses.fields(cls)} | set(fixed)
        assert {k: d[k] for k in fixed} == fixed

    @pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
    def test_other_value_of_fixed_setting_is_stale(self, cls):
        cfg, fixed = self.CASES[cls]
        for key in fixed:
            with pytest.raises(StaleArtifactError, match=repr(key)):
                cls.from_dict({**cfg.to_dict(), key: "changed"})

    @pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
    def test_setting_that_is_no_field_is_type_error(self, cls):
        cfg, _ = self.CASES[cls]
        with pytest.raises(TypeError, match="'unknown'"):
            cls.from_dict({**cfg.to_dict(), "unknown": 0})
