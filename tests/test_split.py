"""Poem-level splitting and leakage checks."""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseid.corpus import Corpus
from verseid.split import (
    SPLIT_NAMES,
    LeakageError,
    SplitAssignment,
    split_records,
    stratified_poem_split,
    verify_no_leakage,
)

from conftest import make_poem

# Free text that leans on the characters CSV quoting must get right.
CSV_TEXT = st.text(
    st.one_of(st.sampled_from(',"\' \n\r،«»'), st.characters(blacklist_categories=("Cs",))),
    max_size=12,
)


def corpus_of(sizes):
    """One corpus with `sizes[poet]` poems per poet."""
    records = []
    for poet, n in sizes.items():
        for i in range(n):
            records.append(make_poem(f"{poet}-{i}", poet, [("الف ب", "ج د")]))
    return Corpus(records)


class TestRatios:
    def test_default_eighty_ten_ten(self):
        a = stratified_poem_split(corpus_of({"hafez": 10}), seed=0)
        assert a.counts() == {"train": 8, "valid": 1, "test": 1}

    def test_custom_ratios(self):
        a = stratified_poem_split(corpus_of({"hafez": 20}), ratios=(0.5, 0.25, 0.25), seed=0)
        assert a.counts() == {"train": 10, "valid": 5, "test": 5}

    @pytest.mark.parametrize(
        "ratios",
        [(0.8, 0.1, 0.2), (0.8, 0.2), (0.8, -0.1, 0.3), (1.0, 0.0, 0.0)],
    )
    def test_bad_ratios_rejected(self, ratios):
        with pytest.raises(ValueError, match="ratios"):
            stratified_poem_split(corpus_of({"hafez": 10}), ratios=ratios, seed=0)


class TestDeterminismAndStratification:
    def test_same_seed_same_assignment(self):
        corpus = corpus_of({"a": 17, "b": 9, "c": 30})
        assert stratified_poem_split(corpus, seed=123).rows == (
            stratified_poem_split(corpus, seed=123).rows
        )

    def test_different_seed_differs(self):
        corpus = corpus_of({"a": 40, "b": 40})
        assert stratified_poem_split(corpus, seed=1).rows != (
            stratified_poem_split(corpus, seed=2).rows
        )

    def test_per_poet_proportions(self):
        corpus = corpus_of({"a": 30, "b": 20, "c": 10})
        counts = verify_no_leakage(stratified_poem_split(corpus, seed=7), corpus)
        assert counts["a"] == {"train": 24, "valid": 3, "test": 3}
        assert counts["b"] == {"train": 16, "valid": 2, "test": 2}
        assert counts["c"] == {"train": 8, "valid": 1, "test": 1}

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=10, max_value=60),
            min_size=1,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_poet_counts_within_one_of_exact(self, sizes, seed):
        corpus = corpus_of(sizes)
        counts = verify_no_leakage(stratified_poem_split(corpus, seed=seed), corpus)
        for poet, n in sizes.items():
            for split, ratio in zip(("train", "valid", "test"), (0.8, 0.1, 0.1)):
                assert abs(counts[poet][split] - n * ratio) < 1.0


class TestSmallPoets:
    def test_single_poem_goes_to_train(self):
        a = stratified_poem_split(corpus_of({"a": 1, "b": 30}), seed=0)
        assert ("a-0", "train", "a") in a.rows
        assert any("'a'" in w and "priority order" in w for w in a.warnings)

    def test_two_poems_fill_train_then_valid(self):
        a = stratified_poem_split(corpus_of({"a": 2, "b": 30}), seed=0)
        splits = sorted(s for pid, s, poet in a.rows if poet == "a")
        assert splits == ["train", "valid"]

    def test_small_poet_never_empties_a_split(self):
        # With 3..9 poems the raw quotas round valid or test to zero; the
        # repair must still place at least one poem in each split.
        for n in range(3, 10):
            corpus = corpus_of({"a": n})
            a = stratified_poem_split(corpus, seed=5)
            counts = verify_no_leakage(a, corpus)["a"]
            assert all(counts[s] >= 1 for s in ("train", "valid", "test")), n
            assert sum(counts.values()) == n

    def test_repair_is_warned_not_silent(self):
        a = stratified_poem_split(corpus_of({"a": 3}), seed=0)
        assert a.counts() == {"train": 1, "valid": 1, "test": 1}
        assert len(a.warnings) == 2

    def test_large_poets_produce_no_warnings(self):
        a = stratified_poem_split(corpus_of({"a": 40, "b": 10}), seed=0)
        assert a.warnings == []


class TestLeakage:
    def test_clean_assignment_passes(self):
        corpus = corpus_of({"a": 10})
        counts = verify_no_leakage(stratified_poem_split(corpus, seed=0), corpus)
        assert sum(counts["a"].values()) == 10

    def test_duplicate_poem_rejected(self):
        corpus = corpus_of({"a": 10})
        a = stratified_poem_split(corpus, seed=0)
        pid = a.rows[0][0]
        bad = SplitAssignment(a.rows + [(pid, "test", "a")], seed=0, ratios=a.ratios)
        with pytest.raises(LeakageError, match="multiple splits"):
            verify_no_leakage(bad, corpus)

    def test_missing_poem_rejected(self):
        corpus = corpus_of({"a": 10})
        a = stratified_poem_split(corpus, seed=0)
        bad = SplitAssignment(a.rows[:-1], seed=0, ratios=a.ratios)
        with pytest.raises(LeakageError, match="missing from the assignment"):
            verify_no_leakage(bad, corpus)

    def test_unknown_poem_rejected(self):
        corpus = corpus_of({"a": 10})
        a = stratified_poem_split(corpus, seed=0)
        bad = SplitAssignment(a.rows + [("ghost", "train", "a")], seed=0, ratios=a.ratios)
        with pytest.raises(LeakageError, match="not in the corpus"):
            verify_no_leakage(bad, corpus)

    def test_unknown_split_name_rejected(self):
        corpus = corpus_of({"a": 10})
        a = stratified_poem_split(corpus, seed=0)
        pid = a.rows[0][0]
        rows = [(pid, "dev", "a")] + a.rows[1:]
        with pytest.raises(LeakageError, match="unknown split"):
            verify_no_leakage(SplitAssignment(rows, seed=0, ratios=a.ratios), corpus)

    def test_poem_under_another_poet_rejected(self):
        corpus = corpus_of({"a": 10, "b": 10})
        a = stratified_poem_split(corpus, seed=0)
        pid, split, _ = a.rows[0]
        rows = [(pid, split, "b")] + a.rows[1:]
        with pytest.raises(LeakageError, match=f"another poet than in the corpus: \\['{pid}'\\]"):
            verify_no_leakage(SplitAssignment(rows, seed=0, ratios=a.ratios), corpus)

    def test_error_lists_offending_ids(self):
        corpus = corpus_of({"a": 10})
        a = stratified_poem_split(corpus, seed=0)
        bad = SplitAssignment(a.rows[:-1], seed=0, ratios=a.ratios)
        missing_id = a.rows[-1][0]
        with pytest.raises(LeakageError, match=missing_id):
            verify_no_leakage(bad, corpus)


class TestSerializationAndRecords:
    def test_round_trip(self, tmp_path):
        a = stratified_poem_split(corpus_of({"a": 12, "b": 5}), seed=9)
        a.save(tmp_path / "split.csv", tmp_path / "split_meta.json")
        loaded = SplitAssignment.load(tmp_path / "split.csv", tmp_path / "split_meta.json")
        assert loaded.rows == a.rows
        assert loaded.seed == a.seed
        assert loaded.ratios == a.ratios
        assert loaded.warnings == a.warnings

    def test_round_trip_quotes_commas_and_quotes(self, tmp_path):
        corpus = Corpus([make_poem(pid, "poet, the", [("الف", "ب")])
                         for pid in ("a,b", 'q"x', "plain")])
        a = stratified_poem_split(corpus, seed=0)
        a.save(tmp_path / "split.csv", tmp_path / "split_meta.json")
        with open(tmp_path / "split.csv", newline="", encoding="utf-8") as fh:
            assert all(len(row) == 3 for row in csv.reader(fh))
        loaded = SplitAssignment.load(tmp_path / "split.csv", tmp_path / "split_meta.json")
        assert loaded.rows == a.rows
        assert {pid for pid, _, _ in loaded.rows} == {"a,b", 'q"x', "plain"}

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.tuples(CSV_TEXT, st.sampled_from(SPLIT_NAMES), CSV_TEXT), max_size=8))
    def test_round_trip_of_drawn_ids_and_poets(self, rows, tmp_path_factory):
        d = tmp_path_factory.mktemp("split")
        SplitAssignment(rows, seed=3, ratios=(0.8, 0.1, 0.1)).save(d / "a.csv", d / "meta.json")
        assert SplitAssignment.load(d / "a.csv", d / "meta.json").rows == rows

    def test_blank_lines_are_skipped(self, tmp_path):
        a = stratified_poem_split(corpus_of({"a": 6}), seed=0)
        a.save(tmp_path / "split.csv", tmp_path / "split_meta.json")
        lines = (tmp_path / "split.csv").read_text(encoding="utf-8").splitlines()
        lines[2:2] = [""]
        (tmp_path / "split.csv").write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        loaded = SplitAssignment.load(tmp_path / "split.csv", tmp_path / "split_meta.json")
        assert loaded.rows == a.rows

    def test_csv_shape(self):
        a = stratified_poem_split(corpus_of({"a": 10}), seed=0)
        lines = a.to_csv().splitlines()
        assert lines[0] == "poem_id,split,poet"
        assert len(lines) == 11

    def test_wrong_header_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("id,part\nx,train\n", encoding="utf-8")
        (tmp_path / "meta.json").write_text('{"seed": 0, "ratios": [0.8, 0.1, 0.1]}')
        with pytest.raises(ValueError, match="not a split assignment"):
            SplitAssignment.load(tmp_path / "bad.csv", tmp_path / "meta.json")

    def test_split_records_partition(self):
        corpus = corpus_of({"a": 10, "b": 10})
        train, valid, test = split_records(corpus, stratified_poem_split(corpus, seed=3))
        assert len(train) + len(valid) + len(test) == 20
        ids = {r.poem_id for r in train} | {r.poem_id for r in valid} | {r.poem_id for r in test}
        assert ids == {r.poem_id for r in corpus.records}

    def test_split_records_checks_leakage_first(self):
        corpus = corpus_of({"a": 10})
        a = stratified_poem_split(corpus, seed=0)
        bad = SplitAssignment(a.rows[:-1], seed=0, ratios=a.ratios)
        with pytest.raises(LeakageError):
            split_records(corpus, bad)
