"""Normalization, vocabulary, and tokenization contracts."""

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseid.corpus import Verse
from verseid.normalize import (
    CLS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    NormalizationConfig,
    TokenTable,
    Vocabulary,
    build_vocab,
    encoder_ids,
    normalize_text,
    normalize_verse,
    table_ids,
    table_vocab,
)

from conftest import make_poem, token_lists, verse_token_list

# Tokens as the tokenizer emits them: non-empty, free of any whitespace
# (so of tabs and newlines too), and never a reserved token.
TOKENS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
    lambda t: t.split() == [t] and t not in RESERVED_TOKENS
)

ARABIC_YEH = "ي"
ALEF_MAKSURA = "ى"
PERSIAN_YEH = "ی"
ARABIC_KAF = "ك"
PERSIAN_KAF = "ک"
TATWEEL = "ـ"
ZWNJ = "‌"
FATHA = "َ"
SHADDA = "ّ"
DIACRITICS = "".join(chr(cp) for cp in range(0x064B, 0x0653))


def seven_step_normalize(text, strip_zwnj):
    """The normalizer as it was when each step had its own switch, all on."""
    text = text.translate(str.maketrans({ARABIC_YEH: PERSIAN_YEH, ALEF_MAKSURA: PERSIAN_YEH}))
    text = text.translate(str.maketrans({ARABIC_KAF: PERSIAN_KAF}))
    text = "".join(ch for ch in text if ch not in DIACRITICS)
    text = text.replace(TATWEEL, "")
    if strip_zwnj:
        text = text.replace(ZWNJ, "")
    text = re.sub(r"<[^<>]*>", " ", text)
    return " ".join(text.split())


# Text dense in every character some step touches, among Persian letters.
NORMALIZER_INPUT = st.text(
    alphabet=st.sampled_from(
        [ARABIC_YEH, ALEF_MAKSURA, PERSIAN_YEH, ARABIC_KAF, PERSIAN_KAF, TATWEEL, ZWNJ, "<", ">",
         *DIACRITICS, "ٓ", "ٰ", "س", "ل", "م", "a", "/",
         " ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000",
         "\u200b", "\u200d"]
    ),
    max_size=40,
)


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

    @settings(max_examples=500)
    @given(text=NORMALIZER_INPUT, strip_zwnj=st.booleans())
    def test_matches_seven_step_normalizer(self, text, strip_zwnj):
        cfg = NormalizationConfig(strip_zwnj=strip_zwnj)
        assert normalize_text(text, cfg) == seven_step_normalize(text, strip_zwnj)

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


def dict_counted_vocab(verse_tokens, cfg, min_freq):
    """The vocabulary by the dict-counting formula that the table builder replaced."""
    counts = {}
    for tokens in verse_tokens:
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted((t for t, c in counts.items() if c >= min_freq), key=lambda t: (-counts[t], t))
    return Vocabulary({tok: i for i, tok in enumerate([*RESERVED_TOKENS, *ordered])}, cfg)


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

    def test_loaded_hash_is_the_digest_of_the_file(self, tmp_path, monkeypatch):
        vocab = build_vocab(token_lists(self.records()))
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        saved = vocab.content_hash()
        assert saved == hashlib.sha256(path.read_bytes()).hexdigest()
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        again = Vocabulary.load(path)
        assert again.token_to_id == vocab.token_to_id  # it parses the same,
        monkeypatch.setattr(Vocabulary, "serialize", None)  # is not re-serialized,
        assert again.content_hash() == hashlib.sha256(path.read_bytes()).hexdigest() != saved

    @settings(max_examples=50, deadline=None)
    @given(verses=st.lists(st.lists(TOKENS, max_size=6), max_size=8), strip_zwnj=st.booleans())
    def test_round_trip_of_drawn_tokens(self, verses, strip_zwnj, tmp_path_factory):
        vocab = build_vocab(verses, NormalizationConfig(strip_zwnj=strip_zwnj))
        path = tmp_path_factory.mktemp("vocab") / "vocab.tsv"
        vocab.save(path)
        again = Vocabulary.load(path)
        assert again.token_to_id == vocab.token_to_id
        assert again.config == vocab.config
        assert again.content_hash() == vocab.content_hash()

    @settings(max_examples=100, deadline=None)
    @given(verses=st.lists(st.lists(st.sampled_from(["گل", "باغ", "a", "b", "B", "ab"]) | TOKENS,
                                    max_size=8), max_size=10),
           min_freq=st.integers(1, 3), strip_zwnj=st.booleans())
    def test_table_builder_matches_dict_counting(self, verses, min_freq, strip_zwnj):
        cfg = NormalizationConfig(strip_zwnj=strip_zwnj)
        want = dict_counted_vocab(verses, cfg, min_freq)
        table = TokenTable.of((tokens, []) for tokens in verses)
        for vocab in (table_vocab(table, cfg, min_freq), build_vocab(verses, cfg, min_freq)):
            assert vocab.id_to_token == want.id_to_token
            assert vocab.serialize() == want.serialize()
        assert table_ids(table, want).tolist() == [want.id_of(t) for tokens in verses for t in tokens]

    def test_order_invariance(self):
        forward = build_vocab(token_lists(self.records()))
        backward = build_vocab(token_lists(reversed(self.records())))
        assert forward.token_to_id == backward.token_to_id

    @pytest.mark.parametrize("strip_zwnj", [False, True])
    def test_header_names_every_step(self, strip_zwnj):
        # The header keeps the keys of the steps that are no longer optional,
        # so vocabulary hashes, and the checkpoints holding them, do not move.
        header = build_vocab([], NormalizationConfig(strip_zwnj=strip_zwnj)).serialize()
        assert header.splitlines()[0] == (
            '# config {"collapse_whitespace": true, "map_kaf": true, "map_yeh": true, '
            '"strip_diacritics": true, "strip_markup": true, "strip_tatweel": true, '
            f'"strip_zwnj": {str(strip_zwnj).lower()}}}'
        )

    def test_disabled_fixed_step_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        text = build_vocab([["گل"]]).serialize().replace('"strip_tatweel": true', '"strip_tatweel": false')
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"line 1: .*'strip_tatweel'"):
            Vocabulary.load(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("<pad>\t0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="config header"):
            Vocabulary.load(path)


class TestTokenize:
    def vocab(self):
        return build_vocab(token_lists([make_poem("p1", "a", [("گل باغ", "بلبل")])]))

    def ids(self, verse, max_len=64):
        table = TokenTable.of([(verse_token_list(verse), [])])
        return encoder_ids(table, self.vocab(), max_len)[0].tolist()

    def test_cls_then_tokens(self):
        ids = self.ids(Verse("گل باغ", "بلبل"))
        assert ids[0] == CLS_ID
        assert list(ids).count(CLS_ID) == 1
        assert PAD_ID not in ids
        assert len(ids) == 4

    def test_oov_maps_to_unk(self):
        ids = self.ids(Verse("ناشناخته", "گل"))
        assert ids[1] == UNK_ID

    def test_truncation(self):
        words = " ".join(f"w{i}" for i in range(100))
        ids = self.ids(Verse(words, ""), max_len=64)
        assert len(ids) == 64

    def test_tokens_cross_hemistichs(self):
        assert normalize_verse(Verse("الف ب", "پ")) == (["الف", "ب"], ["پ"])
