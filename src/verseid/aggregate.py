"""Poem-level aggregation of verse-level poet distributions.

Three strategies:

* majority: most common verse argmax; ties break by summed verse
  confidence of the tied labels, then by smallest label id. Its confidence
  is the mean maximum of the verses that voted for the winner.
* weighted: argmax of the summed verse distributions. Its confidence is the
  summed maximum divided by the verse count, a probability in [0, 1].
* thresholded: weighted, but abstains when that confidence falls below tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import csv_text

ABSTAIN = "ABSTAIN"
STRATEGIES = ("majority", "weighted", "thresholded")


@dataclass
class PoemPrediction:
    poem_id: str
    strategy: str
    predicted_poet: int | None
    confidence: float

    @property
    def abstained(self) -> bool:
        return self.predicted_poet is None


def majority_vote(labels, max_probs=None) -> int:
    """Most frequent verse label; see module docstring for tie-breaks."""
    labels = list(labels)
    if not labels:
        raise ValueError("majority_vote needs at least one verse label")
    counts: dict[int, int] = {}
    for lab in labels:
        counts[int(lab)] = counts.get(int(lab), 0) + 1
    top = max(counts.values())
    tied = [lab for lab, c in counts.items() if c == top]
    if len(tied) == 1:
        return tied[0]
    if max_probs is not None:
        mass = {lab: 0.0 for lab in tied}
        for lab, p in zip(labels, max_probs):
            if int(lab) in mass:
                mass[int(lab)] += float(p)
        best = max(mass.values())
        tied = [lab for lab in tied if mass[lab] == best]
    return min(tied)


def weighted_vote(verse_probs: np.ndarray) -> tuple[int, float]:
    """Sum the verse distributions; argmax wins (smallest id on ties).

    The confidence is the summed maximum divided by the verse count.
    """
    probs = np.asarray(verse_probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("weighted_vote needs a (n_verses, n_classes) matrix")
    s = probs.sum(axis=0)
    label = int(s.argmax())
    return label, float(s[label]) / probs.shape[0]


def thresholded_vote(verse_probs: np.ndarray, tau: float) -> tuple[int | None, float]:
    """Weighted vote that abstains when confidence < tau."""
    label, conf = weighted_vote(verse_probs)
    if conf < tau:
        return None, conf
    return label, conf


def aggregate_poem(
    poem_id: str, verse_probs: np.ndarray, strategy: str, tau: float = 0.7
) -> PoemPrediction:
    """Apply one strategy to a poem's verse distributions."""
    probs = np.asarray(verse_probs, dtype=np.float64)
    if strategy == "majority":
        verse_labels = [int(i) for i in probs.argmax(axis=1)]
        verse_max = [float(p) for p in probs.max(axis=1)]
        label: int | None = majority_vote(verse_labels, verse_max)
        conf = float(np.mean([p for lab, p in zip(verse_labels, verse_max) if lab == label]))
    elif strategy == "weighted":
        label, conf = weighted_vote(probs)
    elif strategy == "thresholded":
        label, conf = thresholded_vote(probs, tau)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return PoemPrediction(poem_id, strategy, label, conf)


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    accuracy: float | None  # None when no poem is covered
    coverage: float
    covered: int
    total: int


def sweep_thresholds(
    poem_probs: list[np.ndarray], truth: np.ndarray, taus: list[float]
) -> list[SweepRow]:
    """Accuracy/coverage of the thresholded strategy per threshold.

    ``taus`` must be sorted ascending. Coverage is monotonically
    non-increasing in tau; accuracy over covered poems is None when nothing
    is covered.
    """
    if list(taus) != sorted(taus):
        raise ValueError("thresholds must be sorted ascending")
    truth = np.asarray(truth)
    total = len(poem_probs)
    votes = [weighted_vote(p) for p in poem_probs]
    rows = []
    for tau in taus:
        covered = [(lab, t) for (lab, conf), t in zip(votes, truth) if conf >= tau]
        n_cov = len(covered)
        acc = (
            sum(1 for lab, t in covered if lab == int(t)) / n_cov if n_cov else None
        )
        rows.append(SweepRow(float(tau), acc, n_cov / total if total else 0.0, n_cov, total))
    return rows


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["threshold,accuracy,coverage,covered,total"]
    for r in rows:
        acc = "NA" if r.accuracy is None else f"{r.accuracy:.6f}"
        lines.append(f"{r.threshold:g},{acc},{r.coverage:.6f},{r.covered},{r.total}")
    return "\n".join(lines) + "\n"


def predictions_csv(preds: list[PoemPrediction], poet_names: list[str] | None = None) -> str:
    """Per-poem prediction rows: poem_id,strategy,label,confidence,abstained."""
    rows = [["poem_id", "strategy", "label", "confidence", "abstained"]]
    for p in preds:
        if p.predicted_poet is None:
            label = ABSTAIN
        elif poet_names is not None:
            label = poet_names[p.predicted_poet]
        else:
            label = str(p.predicted_poet)
        rows.append(
            [p.poem_id, p.strategy, label, f"{p.confidence:.6f}", str(p.abstained).lower()]
        )
    return csv_text(rows)
