"""Poem-level aggregation of verse-level poet distributions.

Three strategies:

* majority: most common verse argmax; ties break by summed verse
  confidence of the tied labels, then by smallest label id. Its confidence
  is the mean maximum of the verses that voted for the winner.
* weighted: argmax of the summed verse distributions. Its confidence is the
  summed maximum divided by the verse count, a probability in [0, 1].
* thresholded: weighted, but abstains when that confidence falls below tau.

``aggregate_poem`` votes every poem at once: ``np.add.at`` adds each verse
into its poem's sums in verse order, the order of a loop over that poem's
verses. The one-poem votes are calls of it on a single poem.

``vote_poems``, the vote of every command, gives each poem asked about a row:
one with no verse row abstains (label -1, confidence 0) under every strategy,
and ``sweep_thresholds`` never counts it as covered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import csv_text

ABSTAIN = "ABSTAIN"
STRATEGIES = ("majority", "weighted", "thresholded")
DEFAULT_TAU = 0.7


def poem_index(poem_ids) -> tuple[list[str], np.ndarray]:
    """The distinct poem ids in first-seen order, and each verse's poem number."""
    number: dict[str, int] = {}
    poem_of = [number.setdefault(pid, len(number)) for pid in poem_ids]
    return list(number), np.asarray(poem_of, dtype=np.intp)


def aggregate_poem(poem_of, verse_probs, strategy: str, tau: float = DEFAULT_TAU):
    """Apply one strategy to every poem at once; ``poem_of`` numbers each
    verse row's poem from 0 with no gaps, as ``poem_index`` does. Returns
    each poem's label (-1 where the thresholded vote abstains) and confidence.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    probs = np.asarray(verse_probs, dtype=np.float64)
    poem_of = np.asarray(poem_of, dtype=np.intp)
    if probs.ndim != 2 or not len(probs) or poem_of.shape != probs.shape[:1]:
        raise ValueError("aggregate_poem needs a (n_verses, n_classes) matrix and a poem per verse")
    shape = (int(poem_of.max()) + 1, probs.shape[1])
    if strategy == "majority":
        top = probs.argmax(axis=1)
        counts, mass = np.zeros(shape, dtype=np.int64), np.zeros(shape)
        np.add.at(counts, (poem_of, top), 1)
        np.add.at(mass, (poem_of, top), probs.max(axis=1))
        # Most votes, then most mass; argmax takes the smallest id of the rest.
        votes = counts.max(axis=1)
        tied_mass = np.where(counts == votes[:, None], mass, -np.inf)
        return tied_mass.argmax(axis=1), tied_mass.max(axis=1) / votes
    sums = np.zeros(shape)
    np.add.at(sums, poem_of, probs)
    labels = sums.argmax(axis=1)
    confidence = sums.max(axis=1) / np.bincount(poem_of)
    if strategy == "thresholded":
        labels = np.where(confidence < tau, -1, labels)
    return labels, confidence


def vote_poems(poem_ids, verse_poem_ids, verse_probs, tau: float = DEFAULT_TAU) -> dict:
    """Each strategy's labels and confidences for every id of ``poem_ids``,
    in its order, from the verse rows ``verse_poem_ids`` and ``verse_probs``;
    a poem with no verse row gets label -1 and confidence 0, and so does
    every poem when there are no verse rows."""
    row_of = {pid: i for i, pid in enumerate(poem_ids)}
    voted, poem_of = poem_index(verse_poem_ids)
    at = [row_of[pid] for pid in voted]
    votes = {}
    for strategy in STRATEGIES:
        labels, confidence = np.full(len(poem_ids), -1), np.zeros(len(poem_ids))
        if at:
            labels[at], confidence[at] = aggregate_poem(poem_of, verse_probs, strategy, tau)
        votes[strategy] = labels, confidence
    return votes


def _one_poem(verse_probs, strategy: str, tau: float = DEFAULT_TAU) -> tuple[int, float]:
    """``aggregate_poem`` on the verse rows of a single poem."""
    poem_of = np.zeros(np.shape(verse_probs)[:1], dtype=np.intp)
    labels, confidence = aggregate_poem(poem_of, verse_probs, strategy, tau)
    return int(labels[0]), float(confidence[0])


def majority_vote(labels, max_probs=None) -> int:
    """Most frequent verse label; see module docstring for tie-breaks."""
    labels = np.asarray(labels, dtype=np.intp).reshape(-1)
    if not labels.size:
        raise ValueError("majority_vote needs at least one verse label")
    # A row per verse: its maximum (1 without max_probs) at its label, -inf elsewhere.
    probs = np.full((labels.size, labels.max() + 1), -np.inf)
    probs[np.arange(labels.size), labels] = 1.0 if max_probs is None else max_probs
    return _one_poem(probs, "majority")[0]


def weighted_vote(verse_probs: np.ndarray) -> tuple[int, float]:
    """Sum the verse distributions; argmax wins (smallest id on ties). The
    confidence is the summed maximum divided by the verse count."""
    return _one_poem(verse_probs, "weighted")


def thresholded_vote(verse_probs: np.ndarray, tau: float) -> tuple[int | None, float]:
    """Weighted vote that abstains (label None) when confidence < tau."""
    label, conf = _one_poem(verse_probs, "thresholded", tau)
    return (None if label < 0 else label), conf


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    accuracy: float | None  # None when no poem is covered
    coverage: float
    covered: int
    total: int


def sweep_thresholds(labels, confidence, truth, taus: list[float]) -> list[SweepRow]:
    """Accuracy/coverage of the thresholded strategy per threshold, from the
    weighted vote's per-poem labels and confidences; a label of -1 is never
    covered. ``taus`` must be sorted ascending. Coverage is monotonically
    non-increasing in tau; accuracy over covered poems is None when nothing is covered.
    """
    if list(taus) != sorted(taus):
        raise ValueError("thresholds must be sorted ascending")
    labels, confidence = np.asarray(labels), np.asarray(confidence)
    correct, voted, total = labels == np.asarray(truth), labels >= 0, len(labels)
    rows = []
    for tau in taus:
        kept = voted & (confidence >= tau)
        n_cov = int(kept.sum())
        acc = int(correct[kept].sum()) / n_cov if n_cov else None
        rows.append(SweepRow(float(tau), acc, n_cov / total if total else 0.0, n_cov, total))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    return csv_text([("threshold", "accuracy", "coverage", "covered", "total")] + [
        (f"{r.threshold:g}", "NA" if r.accuracy is None else f"{r.accuracy:.6f}",
         f"{r.coverage:.6f}", r.covered, r.total) for r in rows])


PREDICTIONS_HEADER = ("poem_id", "strategy", "label", "confidence", "abstained")


def strategy_rows(poem_ids: list[str], strategy: str, labels, confidence,
                  poet_names: list[str] | None = None) -> list[list[str]]:
    """The ``predictions_csv`` rows of one strategy's vote of ``poem_ids``."""
    rows = []
    for pid, label, conf in zip(poem_ids, labels.tolist(), confidence.tolist()):
        name = ABSTAIN if label < 0 else str(label) if poet_names is None else poet_names[label]
        rows.append([pid, strategy, name, f"{conf:.6f}", str(label < 0).lower()])
    return rows


def predictions_csv(poem_ids: list[str], votes: dict, poet_names: list[str] | None = None) -> str:
    """Per-poem prediction rows: poem_id,strategy,label,confidence,abstained,
    strategy by strategy. ``votes`` maps each strategy to its labels and
    confidences, as ``vote_poems`` does."""
    rows = [PREDICTIONS_HEADER]
    for strategy, (labels, confidence) in votes.items():
        rows += strategy_rows(poem_ids, strategy, labels, confidence, poet_names)
    return csv_text(rows)
