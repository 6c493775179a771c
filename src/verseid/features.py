"""Hand-crafted verse features: stylometrics, scaling, and categorical one-hots.

Stylometrics are computed from a verse's normalized hemistich tokens, so the
same verse written with Arabic or Persian letter variants yields identical
features; the caller normalizes each verse once and passes the tokens in.
The one-hot encoders take a whole dataset's labels and return one block.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus

FEATURE_NAMES = (
    "word_count",
    "distinct_word_count",
    "avg_word_length",
    "hapax_ratio",
    "mean_hemistich_length",
    "punctuation_density",
    "symmetry_ratio",
)

# Persian marks, listed explicitly even though the general-category test
# already covers them; the density definition depends on them being counted.
PERSIAN_PUNCTUATION = ("،", "؛", "؟")  # ، ؛ ؟


def _is_punct(ch: str) -> bool:
    return ch in PERSIAN_PUNCTUATION or unicodedata.category(ch).startswith("P")


def stylometric_features(t1: list[str], t2: list[str]) -> tuple[float, ...]:
    """The seven surface features of one verse, in ``FEATURE_NAMES`` order,
    from the whitespace tokens of its two normalized hemistichs."""
    tokens = t1 + t2
    n = len(tokens)

    counts: dict[str, int] = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    hapaxes = sum(1 for c in counts.values() if c == 1)

    # The non-whitespace characters: str.split() and str.isspace() agree on
    # what whitespace is, so no character is lost between the tokens.
    chars = "".join(tokens)
    punct = sum(1 for ch in chars if _is_punct(ch))

    return (
        float(n),
        float(len(counts)),
        (sum(len(t) for t in tokens) / n) if n else 0.0,
        (hapaxes / n) if n else 0.0,
        (len(t1) + len(t2)) / 2.0,
        (punct / len(chars)) if chars else 0.0,
        len(t1) / max(1, len(t2)),
    )


@dataclass
class Scaler:
    """Per-dimension z-scoring fitted on training data only.

    Dimensions with zero variance keep their mean but divide by 1 so the
    transform stays finite; their indices are recorded in ``constant_dims``.
    """

    mean_: np.ndarray | None = None
    std_: np.ndarray | None = None
    constant_dims: list[int] = field(default_factory=list)

    def fit(self, x: np.ndarray) -> "Scaler":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("Scaler.fit expects a non-empty 2-D array")
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        self.constant_dims = [int(i) for i in np.flatnonzero(std == 0.0)]
        std = np.where(std == 0.0, 1.0, std)
        self.std_ = std
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.std_ is None:
            raise ValueError("Scaler is not fitted")
        return (np.asarray(x, dtype=np.float64) - self.mean_) / self.std_

    def to_dict(self) -> dict:
        if self.mean_ is None or self.std_ is None:
            raise ValueError("Scaler is not fitted")
        return {
            "mean": self.mean_.tolist(),
            "std": self.std_.tolist(),
            "constant_dims": self.constant_dims,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        s = cls()
        s.mean_ = np.asarray(d["mean"], dtype=np.float64)
        s.std_ = np.asarray(d["std"], dtype=np.float64)
        s.constant_dims = [int(i) for i in d["constant_dims"]]
        return s


DEFAULT_TOP_METERS = 14


@dataclass
class MeterClassMap:
    """Meter string to class id, with a catch-all class for the tail.

    The most frequent ``n_top`` meters (by poem count, lexicographic
    tie-break) receive ids 0..n_top-1 in that order; every other meter,
    including strings unseen at fit time, maps to the final "other" class.
    The one-hot width is always ``n_top + 1`` so the model input size does
    not depend on how many meters happened to survive filtering.
    """

    class_of_meter: dict[str, int]
    n_top: int = DEFAULT_TOP_METERS

    @property
    def n_classes(self) -> int:
        return self.n_top + 1

    @property
    def other_class(self) -> int:
        return self.n_top

    def class_of(self, meter: str) -> int:
        return self.class_of_meter.get(meter, self.other_class)

    def to_dict(self) -> dict:
        return {"n_top": self.n_top, "class_of_meter": self.class_of_meter}

    @classmethod
    def from_dict(cls, d: dict) -> "MeterClassMap":
        return cls(class_of_meter=dict(d["class_of_meter"]), n_top=int(d["n_top"]))


def build_meter_classes(corpus: Corpus, n_top: int = DEFAULT_TOP_METERS) -> MeterClassMap:
    """Rank meters by poem count and keep the top ``n_top`` as named classes.

    Deterministic under poem reordering: ranking sorts by (count desc,
    meter asc).

    Raises:
        ValueError: if the corpus has no meters.
    """
    counts: dict[str, int] = {}
    for r in corpus.records:
        counts[r.meter] = counts.get(r.meter, 0) + 1
    if not counts:
        raise ValueError("cannot build meter classes: corpus has no meters")
    ranked = sorted(counts, key=lambda m: (-counts[m], m))
    mapping = {m: i for i, m in enumerate(ranked[:n_top])}
    return MeterClassMap(mapping, n_top)


def one_hot_form(forms: list[str], form_index: dict[str, int]) -> np.ndarray:
    """(n, len(form_index) + 1) one-hots over known forms plus a trailing
    unknown slot."""
    unknown = len(form_index)
    ids = [form_index.get(f, unknown) for f in forms]
    return np.eye(unknown + 1, dtype=np.float32)[ids]


def one_hot_meter(meters: list[str], meter_map: MeterClassMap) -> np.ndarray:
    """(n, meter_map.n_classes) one-hots of each meter's class."""
    ids = [meter_map.class_of(m) for m in meters]
    return np.eye(meter_map.n_classes, dtype=np.float32)[ids]
