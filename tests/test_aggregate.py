"""Poem-level aggregation strategies and the threshold sweep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseid.aggregate import (
    ABSTAIN,
    STRATEGIES,
    aggregate_poem,
    majority_vote,
    poem_index,
    predictions_csv,
    sweep_csv,
    sweep_thresholds,
    thresholded_vote,
    vote_poems,
    weighted_vote,
)


class TestMajority:
    def test_plain_majority(self):
        assert majority_vote([1, 1, 2]) == 1

    def test_tie_breaks_on_summed_confidence(self):
        # 0 and 1 both appear twice; label 1 holds more probability mass.
        assert majority_vote([0, 1, 0, 1], [0.5, 0.9, 0.5, 0.8]) == 1

    def test_double_tie_breaks_on_smallest_id(self):
        assert majority_vote([2, 5], [0.7, 0.7]) == 2

    def test_tie_without_probs_uses_smallest_id(self):
        assert majority_vote([3, 1]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one verse"):
            majority_vote([])


class TestWeighted:
    def test_summed_distribution_wins(self):
        # Majority would pick 1 (verse argmaxes 0 and 1 tie at one each,
        # then the .9 verse wins); summing gives [1.3, 0.7] so weighted
        # picks 0 with mean confidence 0.65.
        probs = np.array([[0.9, 0.1], [0.4, 0.6]])
        label, conf = weighted_vote(probs)
        assert label == 0
        assert conf == pytest.approx(0.65)

    def test_single_verse_matches_argmax(self):
        probs = np.array([[0.2, 0.5, 0.3]])
        label, conf = weighted_vote(probs)
        assert label == 1
        assert conf == pytest.approx(0.5)

    def test_tied_sum_picks_smallest_id(self):
        label, _ = weighted_vote(np.array([[0.5, 0.5]]))
        assert label == 0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            weighted_vote(np.zeros((0, 3)))

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        c=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_mean_confidence_bounded(self, n, c, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(c), size=n)
        label, conf = weighted_vote(probs)
        assert 0 <= label < c
        assert 1 / c - 1e-9 <= conf <= 1 + 1e-9


class TestThresholded:
    def test_abstains_below_tau(self):
        probs = np.array([[0.9, 0.1], [0.4, 0.6]])  # mean confidence 0.65
        assert thresholded_vote(probs, tau=0.7) == (None, pytest.approx(0.65))

    def test_keeps_label_at_or_above_tau(self):
        probs = np.array([[0.9, 0.1], [0.4, 0.6]])
        assert thresholded_vote(probs, tau=0.65) == (0, pytest.approx(0.65))

    def test_tau_zero_never_abstains(self):
        probs = np.array([[0.5, 0.5]])
        label, conf = thresholded_vote(probs, tau=0.0)
        assert label == 0
        assert (label, conf) == weighted_vote(probs)


class TestAggregatePoem:
    probs = np.array([[0.9, 0.1], [0.4, 0.6]])
    poem_of = [0, 0]

    def test_majority_strategy(self):
        labels, conf = aggregate_poem(self.poem_of, self.probs)["majority"]
        # Verse argmaxes are [0, 1]: a tie, broken by max-prob mass (0.9 > 0.6).
        assert labels.tolist() == [0]
        assert conf[0] == pytest.approx(0.9)

    def test_weighted_strategy(self):
        labels, conf = aggregate_poem(self.poem_of, self.probs)["weighted"]
        assert (labels.tolist(), conf[0]) == ([0], pytest.approx(0.65))

    def test_thresholded_strategy_abstains(self):
        labels, _ = aggregate_poem(self.poem_of, self.probs, tau=0.7)["thresholded"]
        assert labels.tolist() == [-1]

    def test_strategies_agree_on_unanimous_poem(self):
        probs = np.array([[0.8, 0.2], [0.7, 0.3], [0.9, 0.1]])
        votes = aggregate_poem([0, 0, 0], probs)
        labels = {int(votes[s][0][0]) for s in ("majority", "weighted")}
        assert labels == {0}


def oracle_votes(poem_ids, rows, tau):
    """The first-seen poem ids and each strategy's (labels, confidences),
    by explicit loops over every poem's verse rows."""
    verses = {}
    for pid, row in zip(poem_ids, rows):
        verses.setdefault(pid, []).append([float(x) for x in row])
    votes = {s: ([], []) for s in STRATEGIES}
    for rows_of_poem in verses.values():
        n_classes = len(rows_of_poem[0])
        sums = [0.0] * n_classes
        for row in rows_of_poem:
            for j in range(n_classes):
                sums[j] += row[j]
        tops = [max(range(n_classes), key=lambda j: (row[j], -j)) for row in rows_of_poem]
        counts = [tops.count(j) for j in range(n_classes)]
        # fsum rounds the exact sum once; float32 maxima add exactly in float64.
        mass = [math.fsum(row[j] for row, top in zip(rows_of_poem, tops) if top == j)
                for j in range(n_classes)]
        majority = max(range(n_classes), key=lambda j: (counts[j], mass[j], -j))
        weighted = max(range(n_classes), key=lambda j: (sums[j], -j))
        confidence = sums[weighted] / len(rows_of_poem)
        for strategy, label, conf in (
            ("majority", majority, mass[majority] / counts[majority]),
            ("weighted", weighted, confidence),
            ("thresholded", weighted if confidence >= tau else -1, confidence),
        ):
            votes[strategy][0].append(label)
            votes[strategy][1].append(conf)
    return list(verses), votes


def random_poems(rng, dtype):
    """Verse rows of a few poems, interleaved, with majority ties in about
    half the poems: their verses split evenly between two labels, each
    label's verses sharing one maximum, equal for both labels or not."""
    n_poems, n_classes = int(rng.integers(1, 10)), int(rng.integers(2, 6))
    sizes = rng.integers(1, 9, size=n_poems)
    poem_of = rng.permutation(np.repeat(np.arange(n_poems), sizes))
    rows = rng.dirichlet(np.ones(n_classes), size=len(poem_of))
    for p in range(n_poems):
        where = np.flatnonzero(poem_of == p)
        if len(where) % 2 or rng.random() < 0.5:
            continue
        for label, half in zip(rng.choice(n_classes, 2, replace=False), np.split(where, 2)):
            top = rng.choice([0.6, 0.7])
            rows[half] = (1 - top) / (n_classes - 1)
            rows[half, label] = top
    names = [f"poem-{k}" for k in rng.permutation(n_poems)]
    return [names[p] for p in poem_of], rows.astype(dtype)


class TestBatchedVote:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_matches_explicit_loops(self, seed, dtype):
        rng = np.random.default_rng(seed)
        poem_ids, rows = random_poems(rng, dtype)
        order, poem_of = poem_index(poem_ids)
        # A tau equal to one poem's confidence checks that the vote keeps it.
        tau = float(rng.choice(oracle_votes(poem_ids, rows, 0.0)[1]["weighted"][1]))
        want_order, want = oracle_votes(poem_ids, rows, tau)
        assert order == want_order
        assert [order[i] for i in poem_of] == poem_ids
        votes = aggregate_poem(poem_of, rows, tau=tau)
        assert list(votes) == list(STRATEGIES)
        for strategy in STRATEGIES:
            labels, conf = votes[strategy]
            assert labels.tolist() == want[strategy][0], strategy
            if strategy != "majority" or dtype == np.float32:
                assert conf.tolist() == want[strategy][1], strategy
            else:
                assert conf.tolist() == pytest.approx(want[strategy][1], rel=1e-15), strategy


class TestVotePoems:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_aggregate_poem_and_abstains_for_verseless_poems(self, seed):
        rng = np.random.default_rng(seed)
        verse_poem_ids, rows = random_poems(rng, np.float64)
        voted, poem_of = poem_index(verse_poem_ids)
        # Interleave poems with no verse row among the voted ones, in a shuffled order.
        ids = voted + [f"empty-{k}" for k in range(rng.integers(1, 4))]
        asked = [ids[i] for i in rng.permutation(len(ids))]
        votes = vote_poems(asked, verse_poem_ids, rows, tau=0.6)
        assert list(votes) == list(STRATEGIES)
        voted_rows = aggregate_poem(poem_of, rows, tau=0.6)
        for strategy in STRATEGIES:
            want = dict(zip(voted, zip(*(a.tolist() for a in voted_rows[strategy]))))
            labels, conf = votes[strategy]
            got = list(zip(labels.tolist(), conf.tolist()))
            assert got == [want.get(pid, (-1, 0.0)) for pid in asked], strategy


def poem_set():
    """Three poems with mean confidences 0.65, 0.80, 0.55 and one mistake."""
    return (
        [
            np.array([[0.9, 0.1], [0.4, 0.6]]),  # pred 0, conf 0.65, truth 0
            np.array([[0.8, 0.2], [0.8, 0.2]]),  # pred 0, conf 0.80, truth 1 (wrong)
            np.array([[0.55, 0.45]]),            # pred 0, conf 0.55, truth 0
        ],
        np.array([0, 1, 0]),
    )


def weighted_votes(poems):
    """The weighted vote's labels and confidences over per-poem verse matrices."""
    poem_of = np.repeat(np.arange(len(poems)), [len(p) for p in poems])
    return aggregate_poem(poem_of, np.concatenate(poems))["weighted"]


class TestSweep:
    def test_rows_match_hand_computation(self):
        poems, truth = poem_set()
        rows = sweep_thresholds(*weighted_votes(poems), truth, [0.0, 0.6, 0.7, 0.9])
        assert [(r.covered, r.coverage) for r in rows] == [
            (3, 1.0),
            (2, pytest.approx(2 / 3)),
            (1, pytest.approx(1 / 3)),
            (0, 0.0),
        ]
        assert rows[0].accuracy == pytest.approx(2 / 3)
        assert rows[1].accuracy == pytest.approx(0.5)
        assert rows[2].accuracy == pytest.approx(0.0)  # only the wrong poem survives
        assert rows[3].accuracy is None

    def test_coverage_never_increases(self):
        poems, truth = poem_set()
        rows = sweep_thresholds(*weighted_votes(poems), truth, [i / 20 for i in range(21)])
        covs = [r.coverage for r in rows]
        assert all(a >= b for a, b in zip(covs, covs[1:]))

    def test_unsorted_taus_rejected(self):
        poems, truth = poem_set()
        with pytest.raises(ValueError, match="sorted ascending"):
            sweep_thresholds(*weighted_votes(poems), truth, [0.5, 0.2])

    def test_tau_zero_matches_weighted_vote(self):
        poems, truth = poem_set()
        row = sweep_thresholds(*weighted_votes(poems), truth, [0.0])[0]
        preds = [weighted_vote(p)[0] for p in poems]
        acc = sum(int(p == t) for p, t in zip(preds, truth)) / len(truth)
        assert row.accuracy == pytest.approx(acc)
        assert row.coverage == 1.0

    def test_unvoted_poem_is_never_covered(self):
        # The third poem had no verse to vote: label -1, confidence 0.
        rows = sweep_thresholds([0, 1, -1], [0.8, 0.6, 0.0], [0, 0, 1], [0.0, 0.7])
        assert [(r.covered, r.total) for r in rows] == [(2, 3), (1, 3)]
        assert rows[0].accuracy == pytest.approx(0.5)
        assert rows[0].coverage == pytest.approx(2 / 3)

    def test_csv_rendering_with_na(self):
        poems, truth = poem_set()
        text = sweep_csv(sweep_thresholds(*weighted_votes(poems), truth, [0.0, 0.9]))
        lines = text.splitlines()
        assert lines[0] == "threshold,accuracy,coverage,covered,total"
        assert lines[1].startswith("0,0.666667,1.000000,3,3")
        assert lines[2] == "0.9,NA,0.000000,0,3"


class TestPredictionsCsv:
    def test_numeric_and_named_labels(self):
        probs = np.array([[0.9, 0.1], [0.5, 0.5]])
        votes = {
            "weighted": aggregate_poem([0, 1], probs)["weighted"],
            "thresholded": aggregate_poem([0, 1], probs, tau=0.9)["thresholded"],
        }
        numeric = predictions_csv(["p1", "p2"], votes).splitlines()
        assert numeric[0] == "poem_id,strategy,label,confidence,abstained"
        assert numeric[1] == "p1,weighted,0,0.900000,false"
        assert numeric[4] == f"p2,thresholded,{ABSTAIN},0.500000,true"
        named = predictions_csv(["p1", "p2"], votes, poet_names=["hafez", "saadi"]).splitlines()
        assert named[1].startswith("p1,weighted,hafez,")
        # Abstentions keep the sentinel even when names are supplied.
        assert named[4].split(",")[2] == ABSTAIN
