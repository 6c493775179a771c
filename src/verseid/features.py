"""Hand-crafted verse features: stylometrics, scaling, and categorical one-hots.

Stylometrics are computed from a verse's normalized hemistich tokens, so the
same verse written with Arabic or Persian letter variants yields identical
features; the caller normalizes each verse once and passes the tokens in.
:func:`stylometric_rows` computes every verse of a ``TokenTable`` in array
passes, and :func:`stylometric_features` is its one-verse call. The one-hot
encoders take a whole dataset's labels and return one block.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .normalize import TokenTable

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


def stylometric_rows(table: TokenTable) -> np.ndarray:
    """The seven surface features of every verse of ``table``, one float64
    row per verse in ``FEATURE_NAMES`` order.

    Each feature is an integer count over an integer count, divided in
    float64; a ratio whose denominator is 0 is 0.0. Character and
    punctuation counts are taken once per distinct token. A verse's
    characters are its non-whitespace ones: ``str.split()`` and
    ``str.isspace()`` agree on what whitespace is, so no character is lost
    between the tokens.
    """
    n_verses = len(table.first)
    n = table.n_tokens

    def per_verse(per_type: list[int]) -> np.ndarray:
        """Exact integer sums, in float64, of a per-token count over each verse."""
        weights = np.asarray(per_type, dtype=np.float64)[table.local]
        return np.bincount(table.verse_of, weights, minlength=n_verses)

    chars = per_verse([len(t) for t in table.types])
    punct = per_verse([sum(map(_is_punct, t)) for t in table.types])
    # One key per (verse, distinct token) and how often that token occurs in it.
    width = max(1, len(table.types))
    keys, occurrences = np.unique(table.verse_of * width + table.local, return_counts=True)
    rows = np.empty((n_verses, len(FEATURE_NAMES)))
    rows[:, 0] = n
    rows[:, 1] = np.bincount(keys // width, minlength=n_verses)
    rows[:, 2] = chars / np.maximum(n, 1)
    rows[:, 3] = np.bincount(keys[occurrences == 1] // width, minlength=n_verses) / np.maximum(n, 1)
    rows[:, 4] = n / 2.0
    rows[:, 5] = punct / np.maximum(chars, 1)
    rows[:, 6] = table.first / np.maximum(table.second, 1)
    return rows


def stylometric_features(t1: list[str], t2: list[str]) -> tuple[float, ...]:
    """The seven surface features of one verse, in ``FEATURE_NAMES`` order,
    from the whitespace tokens of its two normalized hemistichs; the
    one-verse call of :func:`stylometric_rows`."""
    return tuple(stylometric_rows(TokenTable.of([(t1, t2)]))[0].tolist())


@dataclass(frozen=True)
class Scaler:
    """Per-dimension z-scoring fitted on training data only.

    Dimensions with zero variance keep their mean but divide by 1 so the
    transform stays finite.
    """

    mean_: np.ndarray
    std_: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Scaler":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError("Scaler.fit expects a non-empty 2-D array")
        std = x.std(axis=0)
        return cls(x.mean(axis=0), np.where(std == 0.0, 1.0, std))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean_) / self.std_

    def to_dict(self) -> dict:
        return {"mean": self.mean_.tolist(), "std": self.std_.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        """The scaler ``d`` records; a ``ValueError`` names the key of any value
        that no fitted scaler holds, as a hand-edited checkpoint may."""
        mean, std = np.asarray(d["mean"], dtype=np.float64), np.asarray(d["std"], dtype=np.float64)
        if mean.ndim != 1 or std.shape != mean.shape:
            raise ValueError(f"scaler 'mean' {mean.shape} and 'std' {std.shape} differ or are not 1-D")
        if not np.isfinite(mean).all():
            raise ValueError("scaler 'mean' holds a value that is not finite")
        if not (np.isfinite(std) & (std > 0)).all():
            raise ValueError("scaler 'std' holds a value that is not finite and positive")
        return cls(mean, std)


# The meters that get a class of their own; every other meter shares one more.
TOP_METERS = 14


def checked_ids(d: dict, key: str, n: int) -> dict[str, int]:
    """``d[key]`` with int ids, which must be distinct and in 0..n-1."""
    index = {k: int(v) for k, v in d[key].items()}
    seen: set[int] = set()
    for k, v in index.items():
        if v in seen or not 0 <= v < n:
            raise ValueError(f"{key} gives {k!r} the id {v}, "
                             + ("which another key has" if v in seen else f"outside 0..{n - 1}"))
        seen.add(v)
    return index


@dataclass
class MeterClassMap:
    """Meter string to class id, with a catch-all class for the tail.

    The most frequent ``TOP_METERS`` meters (by poem count, lexicographic
    tie-break) receive ids 0..TOP_METERS-1 in that order; every other meter,
    including strings unseen at fit time, maps to the final "other" class,
    ``TOP_METERS``. The one-hot width is always ``TOP_METERS + 1`` so the
    model input size does not depend on how many meters happened to survive
    filtering. Files record ``TOP_METERS`` as ``n_top``; :meth:`from_dict`
    reads no other value.
    """

    class_of_meter: dict[str, int]
    n_classes = TOP_METERS + 1
    other_class = TOP_METERS

    def class_of(self, meter: str) -> int:
        return self.class_of_meter.get(meter, self.other_class)

    def to_dict(self) -> dict:
        return {"n_top": TOP_METERS, "class_of_meter": self.class_of_meter}

    @classmethod
    def from_dict(cls, d: dict) -> "MeterClassMap":
        if d["n_top"] != TOP_METERS:
            raise ValueError(f"meter map 'n_top' is {d['n_top']!r}; only {TOP_METERS} is supported")
        return cls(checked_ids(d, "class_of_meter", TOP_METERS))


def build_meter_classes(corpus: Corpus) -> MeterClassMap:
    """Rank meters by poem count and keep the top ``TOP_METERS`` as named classes.

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
    return MeterClassMap({m: i for i, m in enumerate(ranked[:TOP_METERS])})


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
