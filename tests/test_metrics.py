"""Confusion matrix and classification report."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseid.metrics import classification_report, confusion_matrix


class TestConfusionMatrix:
    def test_orientation_truth_rows_pred_columns(self):
        cm = confusion_matrix([0, 0, 1], [1, 0, 1], n_classes=2)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 4, 50)
        preds = rng.integers(0, 4, 50)
        assert confusion_matrix(truth, preds, 4).sum() == 50

    def test_diagonal_is_correct_predictions(self):
        truth = [0, 1, 2, 1]
        cm = confusion_matrix(truth, truth, 3)
        np.testing.assert_array_equal(cm, np.diag([1, 2, 1]))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            confusion_matrix([0, 3], [0, 1], n_classes=3)
        with pytest.raises(ValueError, match="out of range"):
            confusion_matrix([0, 1], [-1, 1], n_classes=3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            confusion_matrix([0, 1], [0], n_classes=2)


class TestReport:
    def test_perfect_predictions(self):
        r = classification_report([0, 1, 2], [0, 1, 2], 3)
        assert r.accuracy == 1.0
        assert r.precision == [1.0, 1.0, 1.0]
        assert r.recall == [1.0, 1.0, 1.0]
        assert r.macro_f1 == 1.0
        assert r.zero_division_classes == []

    def test_all_predict_zero_on_balanced_binary(self):
        # Model collapses onto class 0: accuracy 0.5, P=(0.5, 0),
        # R=(1, 0), F1=(2/3, 0), so macro-F1 is 1/3.
        r = classification_report([0, 0, 1, 1], [0, 0, 0, 0], 2)
        assert r.accuracy == 0.5
        assert r.precision == [0.5, 0.0]
        assert r.recall == [1.0, 0.0]
        assert r.f1 == pytest.approx([2 / 3, 0.0])
        assert r.macro_f1 == pytest.approx(1 / 3)
        assert r.zero_division_classes == [1]

    def test_zero_support_class_still_in_macro(self):
        # Class 2 never appears in truth or predictions; with three classes
        # the macro average divides by 3, not 2.
        r = classification_report([0, 1], [0, 1], 3)
        assert r.support == [1, 1, 0]
        assert r.macro_f1 == pytest.approx(2 / 3)
        assert 2 in r.zero_division_classes

    def test_hand_computed_multiclass(self):
        truth = [0, 0, 1, 1, 2]
        preds = [0, 1, 1, 1, 0]
        r = classification_report(truth, preds, 3)
        assert r.accuracy == pytest.approx(3 / 5)
        assert r.precision == pytest.approx([1 / 2, 2 / 3, 0.0])
        assert r.recall == pytest.approx([1 / 2, 1.0, 0.0])
        assert r.support == [2, 2, 1]
        assert r.zero_division_classes == [2]

    def test_empty_input(self):
        r = classification_report([], [], 2)
        assert r.accuracy == 0.0
        assert r.support == [0, 0]
        assert r.zero_division_classes == [0, 1]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        c=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_accuracy_matches_elementwise_mean(self, n, c, seed):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, c, n)
        preds = rng.integers(0, c, n)
        r = classification_report(truth, preds, c)
        assert r.accuracy == pytest.approx((truth == preds).mean())
        for series in (r.precision, r.recall, r.f1):
            assert all(0.0 <= v <= 1.0 for v in series)


class TestRenderings:
    def test_json_round_trips_and_names(self):
        r = classification_report([0, 1], [0, 0], 2, class_names=["hafez", "saadi"], coverage=0.9)
        payload = json.loads(r.to_json())
        assert payload["accuracy"] == 0.5
        assert payload["per_class"][0]["class"] == "hafez"
        assert payload["per_class"][1]["support"] == 1
        assert payload["coverage"] == 0.9
        assert payload["zero_division_classes"] == [1]

    def test_text_table_mentions_each_class(self):
        r = classification_report([0, 1], [0, 1], 2, class_names=["hafez", "saadi"])
        text = r.to_text()
        assert "hafez" in text and "saadi" in text
        assert "accuracy: 1.0000" in text
        assert "macro" in text

    def test_text_flags_zero_division(self):
        text = classification_report([0, 0], [0, 0], 2).to_text()
        assert "zero-division classes: [1]" in text
