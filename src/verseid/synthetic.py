"""Synthetic Persian-like corpora with controllable authorship signal.

Each poet owns a private core vocabulary; a shared pool forms half of the
overall vocabulary. A configurable fraction of verses is "formulaic",
drawing only on the shared pool, so those verses are textually ambiguous
and only poem metadata (each poet strongly prefers a few signature meters)
can resolve them. Token spellings occasionally use Arabic letter variants
so the normalization path is exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, PoemRecord, Verse

CONSONANTS = "بپتجچخدرزسشغفقکگلمنهو"
VOWELS = "اویه"
FORMS = ("ghazal", "qasideh", "masnavi", "robai")

# Raw-text noise: Persian -> Arabic letter variants the normalizer undoes.
VARIANT_OF = {"ی": "ي", "ک": "ك"}
VARIANT_RATE = 0.05  # share of tokens respelled with a variant
CORE_TOKEN_RATE = 0.45  # share of a non-formulaic verse's tokens from the poet's core
METER_LOYALTY = 0.85  # share of a poet's poems in one of its signature meters
SIGNATURE_METERS, EXTRA_METERS = 3, 3  # meters per poet; meters no poet owns


@dataclass(frozen=True)
class SyntheticConfig:
    n_poets: int = 5
    poems_per_poet: int = 200
    min_verses: int = 4
    max_verses: int = 12
    core_size: int = 40
    shared_size: int | None = None  # defaults to n_poets * core_size (50% shared)
    formulaic_rate: float = 0.25
    contested_rate: float = 0.0
    zipf_s: float = 1.05
    seed: int = 0


def _make_word(rng: np.random.Generator, length: int) -> str:
    parts = []
    for _ in range(length):
        parts.append(CONSONANTS[rng.integers(len(CONSONANTS))])
        parts.append(VOWELS[rng.integers(len(VOWELS))])
    return "".join(parts)


def _word_pool(rng: np.random.Generator, size: int, taken: set[str]) -> list[str]:
    pool: list[str] = []
    while len(pool) < size:
        w = _make_word(rng, int(rng.integers(1, 4)))
        if w not in taken:
            taken.add(w)
            pool.append(w)
    return pool


def _zipf_weights(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
    return w / w.sum()


def make_synthetic_corpus(cfg: SyntheticConfig = SyntheticConfig()) -> Corpus:
    """Generate a corpus; deterministic for a fixed config."""
    rng = np.random.default_rng(cfg.seed)
    shared_size = cfg.shared_size or cfg.n_poets * cfg.core_size
    taken: set[str] = set()
    shared = _word_pool(rng, shared_size, taken)
    cores = [_word_pool(rng, cfg.core_size, taken) for _ in range(cfg.n_poets)]
    shared_w = _zipf_weights(len(shared), cfg.zipf_s)
    core_w = _zipf_weights(cfg.core_size, cfg.zipf_s)

    n_meters = cfg.n_poets * SIGNATURE_METERS + EXTRA_METERS
    meters = [f"bahr_{i:02d}" for i in range(n_meters)]

    def emit_token(word: str) -> str:
        if rng.random() < VARIANT_RATE:
            for persian, arabic in VARIANT_OF.items():
                if persian in word:
                    return word.replace(persian, arabic, 1)
        return word

    def hemistich(poet: int, formulaic: bool, length: int) -> str:
        words = []
        for _ in range(length):
            if formulaic or rng.random() >= CORE_TOKEN_RATE:
                words.append(shared[rng.choice(len(shared), p=shared_w)])
            else:
                words.append(cores[poet][rng.choice(cfg.core_size, p=core_w)])
        return " ".join(emit_token(w) for w in words)

    records = []
    for poet in range(cfg.n_poets):
        poet_name = f"poet_{poet:02d}"
        sig = meters[poet * SIGNATURE_METERS : (poet + 1) * SIGNATURE_METERS]
        base_len = 3 + poet % 3  # mild per-poet stylometric signal
        for k in range(cfg.poems_per_poet):
            if rng.random() < METER_LOYALTY:
                meter = sig[rng.integers(len(sig))]
            else:
                meter = meters[rng.integers(n_meters)]
            if rng.random() < 0.6:
                form = FORMS[poet % len(FORMS)]
            else:
                form = FORMS[rng.integers(len(FORMS))]
            n_verses = int(rng.integers(cfg.min_verses, cfg.max_verses + 1))
            verses = []
            for _ in range(n_verses):
                formulaic = rng.random() < cfg.formulaic_rate
                l1 = base_len + int(rng.integers(0, 3))
                l2 = base_len + int(rng.integers(0, 3))
                verses.append(Verse(hemistich(poet, formulaic, l1), hemistich(poet, formulaic, l2)))
            status = "disputed" if rng.random() < cfg.contested_rate else "confirmed"
            records.append(
                PoemRecord(
                    poem_id=f"{poet_name}-{k:04d}",
                    poet=poet_name,
                    form=form,
                    meter=meter,
                    attribution_status=status,
                    verses=verses,
                )
            )
    return Corpus(records)
