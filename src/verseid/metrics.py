"""Evaluation metrics: confusion matrix and per-class precision/recall/F1.

Zero denominators score 0.0 and the affected classes are flagged in the
report; macro averages run over every class, including flagged ones, so a
class the model never predicts drags the macro down rather than vanishing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def confusion_matrix(truth, preds, n_classes: int) -> np.ndarray:
    """Counts with true class on rows and predicted class on columns."""
    truth = np.asarray(truth, dtype=np.int64)
    preds = np.asarray(preds, dtype=np.int64)
    if truth.shape != preds.shape:
        raise ValueError("truth and predictions must align")
    if truth.size and (
        truth.min() < 0 or truth.max() >= n_classes or preds.min() < 0 or preds.max() >= n_classes
    ):
        raise ValueError("labels out of range")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (truth, preds), 1)
    return cm


@dataclass
class EvalReport:
    accuracy: float
    precision: list[float]
    recall: list[float]
    f1: list[float]
    support: list[int]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    zero_division_classes: list[int]
    class_names: list[str] | None = None
    coverage: float | None = None

    @property
    def n_classes(self) -> int:
        return len(self.precision)

    def to_json(self) -> str:
        payload = {
            "accuracy": self.accuracy,
            "per_class": [
                {
                    "class": self.class_names[i] if self.class_names else str(i),
                    "precision": self.precision[i],
                    "recall": self.recall[i],
                    "f1": self.f1[i],
                    "support": self.support[i],
                }
                for i in range(self.n_classes)
            ],
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "zero_division_classes": self.zero_division_classes,
            "coverage": self.coverage,
        }
        return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)

    def to_text(self) -> str:
        names = self.class_names or [str(i) for i in range(self.n_classes)]
        width = max(12, max((len(n) for n in names), default=0))
        header = f"{'class':<{width}}  {'precision':>9}  {'recall':>9}  {'f1':>9}  {'support':>7}"
        lines = [header, "-" * len(header)]
        for i, name in enumerate(names):
            lines.append(
                f"{name:<{width}}  {self.precision[i]:>9.4f}  {self.recall[i]:>9.4f}"
                f"  {self.f1[i]:>9.4f}  {self.support[i]:>7d}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'macro':<{width}}  {self.macro_precision:>9.4f}  {self.macro_recall:>9.4f}"
            f"  {self.macro_f1:>9.4f}  {sum(self.support):>7d}"
        )
        lines.append(f"accuracy: {self.accuracy:.4f}")
        if self.coverage is not None:
            lines.append(f"coverage: {self.coverage:.4f}")
        if self.zero_division_classes:
            lines.append(f"zero-division classes: {self.zero_division_classes}")
        return "\n".join(lines) + "\n"


def classification_report(
    truth,
    preds,
    n_classes: int,
    class_names: list[str] | None = None,
    coverage: float | None = None,
) -> EvalReport:
    """Accuracy plus per-class and macro precision/recall/F1."""
    cm = confusion_matrix(truth, preds, n_classes)
    tp = np.diag(cm).astype(np.float64)
    pred_totals = cm.sum(axis=0).astype(np.float64)
    true_totals = cm.sum(axis=1).astype(np.float64)

    zero_div: set[int] = set()
    precision = np.zeros(n_classes)
    recall = np.zeros(n_classes)
    f1 = np.zeros(n_classes)
    for c in range(n_classes):
        if pred_totals[c] > 0:
            precision[c] = tp[c] / pred_totals[c]
        else:
            zero_div.add(c)
        if true_totals[c] > 0:
            recall[c] = tp[c] / true_totals[c]
        else:
            zero_div.add(c)
        denom = precision[c] + recall[c]
        if denom > 0:
            f1[c] = 2 * precision[c] * recall[c] / denom
        elif pred_totals[c] == 0 and true_totals[c] == 0:
            zero_div.add(c)

    total = int(cm.sum())
    return EvalReport(
        accuracy=float(tp.sum() / total) if total else 0.0,
        precision=[float(p) for p in precision],
        recall=[float(r) for r in recall],
        f1=[float(x) for x in f1],
        support=[int(s) for s in true_totals],
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        zero_division_classes=sorted(zero_div),
        class_names=class_names,
        coverage=coverage,
    )
