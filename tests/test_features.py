"""Stylometric features, scaling, meter classes, and one-hot encodings."""

import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseid.corpus import Corpus, Verse
from verseid.features import (
    FEATURE_NAMES,
    MeterClassMap,
    Scaler,
    build_meter_classes,
    one_hot_form,
    one_hot_meter,
    stylometric_features,
)
from verseid.normalize import normalize_verse

from conftest import make_poem


def verse_features(verse):
    """Stylometrics of a raw verse, normalized the way build_dataset does it."""
    return np.asarray(stylometric_features(*normalize_verse(verse)))


def feature(f, name):
    return f[FEATURE_NAMES.index(name)]


class TestStylometrics:
    def test_repeated_words(self):
        # Both hemistichs "a b c": six tokens, three distinct, no hapaxes.
        f = verse_features(Verse("a b c", "a b c"))
        assert feature(f, "word_count") == 6
        assert feature(f, "distinct_word_count") == 3
        assert feature(f, "avg_word_length") == 1.0
        assert feature(f, "hapax_ratio") == 0.0
        assert feature(f, "mean_hemistich_length") == 3.0
        assert feature(f, "punctuation_density") == 0.0
        assert feature(f, "symmetry_ratio") == 1.0

    def test_hapax_and_symmetry(self):
        f = verse_features(Verse("x y x", ""))
        assert feature(f, "word_count") == 3
        assert feature(f, "distinct_word_count") == 2
        assert feature(f, "hapax_ratio") == pytest.approx(1 / 3)
        assert feature(f, "mean_hemistich_length") == 1.5
        assert feature(f, "symmetry_ratio") == 3.0  # empty second hemistich clamps to 1

    def test_punctuation_density_counts_persian_marks(self):
        f = verse_features(Verse("سلام، دوست", ""))
        # Nine non-space characters, one of them the Persian comma.
        assert feature(f, "punctuation_density") == pytest.approx(1 / 9)

    def test_punctuation_density_over_a_code_point_range(self):
        # Every non-space code point from U+0021 to U+2020, checked against
        # the definition: a Unicode punctuation category or a Persian mark.
        chars = [c for c in map(chr, range(0x21, 0x2021)) if not c.isspace()]
        tokens = ["".join(chars[i : i + 50]) for i in range(0, len(chars), 50)]
        punct = [c for c in chars if unicodedata.category(c).startswith("P") or c in "،؛؟"]
        assert 0 < len(punct) < len(chars)
        f = stylometric_features(tokens, [])
        assert feature(f, "punctuation_density") == len(punct) / len(chars)

    def test_feature_order_matches_names(self):
        arr = verse_features(Verse("a bb", "ccc"))
        assert arr.shape == (7,)
        assert arr[FEATURE_NAMES.index("word_count")] == 3
        assert arr[FEATURE_NAMES.index("avg_word_length")] == 2.0

    @given(st.integers(1, 5), st.integers(0, 5))
    @settings(max_examples=50)
    def test_whitespace_padding_invariant(self, n1, n2):
        words1 = " ".join(f"tok{i}" for i in range(n1))
        words2 = " ".join(f"tok{i}" for i in range(n2))
        plain = verse_features(Verse(words1, words2))
        padded = verse_features(Verse(f"  {words1.replace(' ', '   ')} ", f" {words2} \t"))
        np.testing.assert_allclose(padded, plain)


class TestScaler:
    def test_two_point_fit(self):
        s = Scaler.fit(np.array([[2.0], [4.0]]))
        assert s.mean_[0] == 3.0
        assert s.std_[0] == 1.0  # population std
        np.testing.assert_allclose(
            s.transform(np.array([[2.0], [4.0]])), [[-1.0], [1.0]]
        )

    def test_zero_variance_flagged(self):
        s = Scaler.fit(np.array([[5.0, 1.0], [5.0, 3.0]]))
        assert s.std_[0] == 1.0
        out = s.transform(np.array([[5.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0]])

    def test_transform_of_mean_is_zero(self, rng):
        x = rng.normal(size=(40, 7))
        s = Scaler.fit(x)
        np.testing.assert_allclose(s.transform(s.mean_[None, :]), np.zeros((1, 7)), atol=1e-12)

    def test_round_trip(self, rng):
        x = rng.normal(size=(10, 3))
        s = Scaler.fit(x)
        s2 = Scaler.from_dict(s.to_dict())
        np.testing.assert_allclose(s2.transform(x), s.transform(x))
        assert s2.to_dict() == s.to_dict()

    @pytest.mark.parametrize("change, key", [
        ({"mean": [[0.0, 1.0]]}, "mean"),
        ({"std": [1.0]}, "mean"),
        ({"mean": [float("nan"), 0.0]}, "mean"),
        ({"std": [1.0, -2.0]}, "std"),
        ({"std": [1.0, float("inf")]}, "std"),
    ], ids=["2-D", "lengths-differ", "nan-mean", "negative-std", "inf-std"])
    def test_from_dict_rejects_what_no_fit_gives(self, change, key):
        d = {"mean": [0.0, 1.0], "std": [1.0, 2.0]}
        Scaler.from_dict(d)
        with pytest.raises(ValueError, match=f"scaler '{key}'"):
            Scaler.from_dict({**d, **change})

    @pytest.mark.parametrize("constant_dims", [[], [0]], ids=["none", "dim-0"])
    def test_from_dict_ignores_constant_dims(self, constant_dims):
        # Checkpoints written while the scaler recorded its constant
        # dimensions still hold the key.
        d = {"mean": [0.0, 1.0], "std": [1.0, 2.0]}
        assert Scaler.from_dict({**d, "constant_dims": constant_dims}).to_dict() == d

    def test_unfitted_rejects(self):
        with pytest.raises(ValueError):
            Scaler.fit(np.zeros((0, 2)))


def meter_corpus(counts: dict[str, int]) -> Corpus:
    records = []
    k = 0
    for meter, n in counts.items():
        for _ in range(n):
            records.append(make_poem(f"p{k}", "a", [("x", "y")], meter=meter))
            k += 1
    return Corpus(records)


class TestMeterClasses:
    def test_top_meters_by_count_then_name(self):
        counts = {f"m{i:02d}": 20 - i for i in range(14)}  # m00..m13 frequent
        counts.update({"rare_b": 1, "rare_a": 1})
        mm = build_meter_classes(meter_corpus(counts))
        assert mm.n_classes == 15
        assert mm.class_of("m00") == 0
        assert mm.class_of("m13") == 13
        assert mm.class_of("rare_a") == mm.other_class == 14
        assert mm.class_of("rare_b") == 14

    def test_tie_breaks_lexicographic(self):
        counts = {"zeta": 5, "alpha": 5, "mid": 3}
        mm = build_meter_classes(meter_corpus(counts), n_top=2)
        assert mm.class_of("alpha") == 0
        assert mm.class_of("zeta") == 1
        assert mm.class_of("mid") == mm.other_class

    def test_unknown_meter_goes_to_other(self):
        mm = build_meter_classes(meter_corpus({"only": 3}))
        assert mm.class_of("never seen") == 14

    def test_order_invariance(self):
        corpus = meter_corpus({"a": 3, "b": 2, "c": 2})
        reordered = Corpus(list(reversed(corpus.records)))
        assert build_meter_classes(corpus).class_of_meter == \
            build_meter_classes(reordered).class_of_meter

    def test_fixed_width_even_with_few_meters(self):
        mm = build_meter_classes(meter_corpus({"a": 1, "b": 1}))
        assert mm.n_classes == 15
        block = one_hot_meter(["a"], mm)
        assert block.shape == (1, 15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_meter_classes(Corpus([]))

    def test_round_trip(self):
        mm = build_meter_classes(meter_corpus({"a": 2, "b": 1}))
        again = MeterClassMap.from_dict(mm.to_dict())
        assert again.class_of_meter == mm.class_of_meter
        assert again.to_dict() == mm.to_dict()


class TestOneHots:
    def test_known_form(self):
        block = one_hot_form(["ghazal"], {"ghazal": 0, "robai": 1})
        np.testing.assert_array_equal(block, [[1.0, 0.0, 0.0]])

    def test_unknown_form_uses_last_slot(self):
        block = one_hot_form(["mystery"], {"ghazal": 0, "robai": 1})
        np.testing.assert_array_equal(block, [[0.0, 0.0, 1.0]])

    @given(st.lists(st.sampled_from(["a", "b", "c", "unseen"]), min_size=1, max_size=6))
    def test_one_hot_sums_to_one(self, forms):
        block = one_hot_form(forms, {"a": 0, "b": 1, "c": 2})
        assert block.shape == (len(forms), 4)
        np.testing.assert_array_equal(block.sum(axis=1), 1.0)
        assert ((block == 0.0) | (block == 1.0)).all()
