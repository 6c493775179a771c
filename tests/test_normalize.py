"""Normalization, vocabulary, and tokenization contracts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseid.corpus import Verse
from verseid.normalize import (
    CLS_ID,
    PAD_ID,
    UNK_ID,
    NormalizationConfig,
    Vocabulary,
    build_vocab,
    normalize_text,
    normalize_verse,
    tokenize_verse,
)

from conftest import make_poem, token_lists, verse_token_list

ARABIC_YEH = "ي"
ALEF_MAKSURA = "ى"
PERSIAN_YEH = "ی"
ARABIC_KAF = "ك"
PERSIAN_KAF = "ک"
TATWEEL = "ـ"
ZWNJ = "‌"
FATHA = "َ"
SHADDA = "ّ"


class TestNormalizeText:
    def test_yeh_variants_unify(self):
        assert normalize_text("عل" + ARABIC_YEH) == "عل" + PERSIAN_YEH
        assert normalize_text("موس" + ALEF_MAKSURA) == "موس" + PERSIAN_YEH

    def test_kaf_variant_unifies(self):
        assert normalize_text(ARABIC_KAF + "تاب") == PERSIAN_KAF + "تاب"

    def test_diacritics_and_tatweel_stripped(self):
        assert normalize_text("مَرد" + SHADDA) == "مرد"
        assert normalize_text("ســ" + TATWEEL + "لام") == "سلام"

    def test_zwnj_retained_by_default(self):
        word = "می" + ZWNJ + "روم"
        assert normalize_text(word) == word
        assert normalize_text(word, NormalizationConfig(strip_zwnj=True)) == "میروم"

    def test_markup_removed(self):
        assert normalize_text("<i>متن</i>") == "متن"
        assert normalize_text("الف <b>ب</b> پ") == "الف ب پ"

    def test_whitespace_collapsed(self):
        assert normalize_text("  الف \t ب  \n پ ") == "الف ب پ"

    def test_flags_can_disable_steps(self):
        cfg = NormalizationConfig(map_yeh=False, strip_diacritics=False)
        text = "عل" + ARABIC_YEH + FATHA
        assert normalize_text(text, cfg) == text

    @given(
        st.text(
            alphabet=st.characters(
                codec="utf-8",
                categories=("L", "N", "P", "Z", "Mn"),
                include_characters=(
                    ARABIC_YEH, ALEF_MAKSURA, ARABIC_KAF, TATWEEL, ZWNJ, FATHA, "<", ">",
                ),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200)
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once

    @given(st.text(max_size=30))
    def test_no_stripped_codepoints_remain(self, text):
        out = normalize_text(text)
        assert TATWEEL not in out
        assert not any("ً" <= ch <= "ْ" for ch in out)


class TestVocabulary:
    def records(self):
        return [
            make_poem("p1", "a", [("گل گل بلبل", "گل باغ")]),
            make_poem("p2", "a", [("باغ بلبل", "چمن")]),
        ]

    def test_frequency_then_lexicographic(self):
        vocab = build_vocab(token_lists(self.records()))
        # gol x3, bagh x2, bolbol x2, chaman x1; tie bagh/bolbol breaks lexicographically
        assert vocab.id_of("گل") == 3
        tied = sorted(["باغ", "بلبل"])
        assert vocab.id_of(tied[0]) == 4
        assert vocab.id_of(tied[1]) == 5
        assert vocab.id_of("چمن") == 6

    def test_reserved_slots(self):
        vocab = build_vocab(token_lists(self.records()))
        assert vocab.token_to_id["<pad>"] == PAD_ID == 0
        assert vocab.token_to_id["<unk>"] == UNK_ID == 1
        assert vocab.token_to_id["<cls>"] == CLS_ID == 2

    def test_min_freq(self):
        vocab = build_vocab(token_lists(self.records()), min_freq=2)
        assert vocab.id_of("چمن") == UNK_ID
        assert vocab.id_of("گل") == 3

    def test_round_trip(self, tmp_path):
        cfg = NormalizationConfig(strip_zwnj=True)
        vocab = build_vocab(token_lists(self.records(), cfg), cfg)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        again = Vocabulary.load(path)
        assert again.token_to_id == vocab.token_to_id
        assert again.config == vocab.config
        assert again.content_hash() == vocab.content_hash()

    def test_order_invariance(self):
        forward = build_vocab(token_lists(self.records()))
        backward = build_vocab(token_lists(reversed(self.records())))
        assert forward.token_to_id == backward.token_to_id

    def test_header_required(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("<pad>\t0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="config header"):
            Vocabulary.load(path)


class TestTokenize:
    def vocab(self):
        return build_vocab(token_lists([make_poem("p1", "a", [("گل باغ", "بلبل")])]))

    def test_cls_then_tokens(self):
        vocab = self.vocab()
        ids = tokenize_verse(verse_token_list(Verse("گل باغ", "بلبل")), vocab)
        assert ids[0] == CLS_ID
        assert list(ids).count(CLS_ID) == 1
        assert PAD_ID not in ids
        assert len(ids) == 4

    def test_oov_maps_to_unk(self):
        ids = tokenize_verse(verse_token_list(Verse("ناشناخته", "گل")), self.vocab())
        assert ids[1] == UNK_ID

    def test_truncation(self):
        words = " ".join(f"w{i}" for i in range(100))
        ids = tokenize_verse(verse_token_list(Verse(words, "")), self.vocab(), max_len=64)
        assert len(ids) == 64

    def test_empty_verse_rejected(self):
        with pytest.raises(ValueError, match="empty verse"):
            tokenize_verse(verse_token_list(Verse("", "  ")), self.vocab())

    def test_tokens_cross_hemistichs(self):
        assert normalize_verse(Verse("الف ب", "پ")) == (["الف", "ب"], ["پ"])
