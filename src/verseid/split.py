"""Poem-level train/validation/test splitting, stratified by poet.

All verses of a poem land in the same split by construction; stratification
shuffles each poet's poems with a seeded generator and apportions them by
largest remainder, so per-poet counts stay within one poem of the exact
ratios whenever the ratios allow it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, csv_text, reading

SPLIT_NAMES = ("train", "valid", "test")
DEFAULT_RATIOS = (0.8, 0.1, 0.1)
CSV_HEADER = ("poem_id", "split", "poet")


def valid_ratios(ratios) -> bool:
    """Whether ``ratios`` are three positive numbers summing to 1."""
    return len(ratios) == 3 and abs(sum(ratios) - 1.0) <= 1e-9 and min(ratios) > 0


class LeakageError(ValueError):
    """Raised when a split assignment lets poems cross split boundaries."""


@dataclass
class SplitAssignment:
    """Rows of (poem_id, split, poet) plus the provenance of the split."""

    rows: list[tuple[str, str, str]]
    seed: int
    ratios: tuple[float, float, float]
    warnings: list[str] = field(default_factory=list)

    def split_of(self) -> dict[str, str]:
        return {pid: split for pid, split, _ in self.rows}

    def counts(self) -> dict[str, int]:
        out = {name: 0 for name in SPLIT_NAMES}
        for _, s, _ in self.rows:
            out[s] += 1
        return out

    def to_csv(self) -> str:
        return csv_text((CSV_HEADER, *self.rows))

    def meta_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "ratios": list(self.ratios), "warnings": self.warnings},
            sort_keys=True,
            indent=2,
        )

    def save(self, csv_path: str | Path, meta_path: str | Path) -> None:
        Path(csv_path).write_text(self.to_csv(), encoding="utf-8")
        Path(meta_path).write_text(self.meta_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, csv_path: str | Path, meta_path: str | Path) -> "SplitAssignment":
        """Read the files written by :meth:`save`; a missing or damaged one,
        or metadata with a key :meth:`save` does not write or a value it
        cannot have written (a seed that is not a non-negative integer,
        ratios that ``valid_ratios`` rejects, warnings that are not a list
        of strings), raises StaleArtifactError naming the file and the line
        or key."""
        with reading(csv_path, "split assignment"), open(csv_path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != list(CSV_HEADER):
                raise ValueError("not a split assignment file")
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"line {reader.line_num}: expected {len(CSV_HEADER)} "
                                     f"fields, got {len(row)}")
                rows.append(tuple(row))
        with reading(meta_path, "split metadata"):
            meta = json.loads(Path(meta_path).read_text(encoding="utf-8"))
            unknown = sorted(set(meta) - {"seed", "ratios", "warnings"})
            if unknown:
                raise ValueError(f"split metadata has unknown key {unknown[0]!r}")
            seed, ratios, notes = meta["seed"], meta["ratios"], meta.get("warnings", [])
            for key, ok in (
                ("seed", _is_int(seed) and seed >= 0),
                ("ratios", isinstance(ratios, list)
                 and all(isinstance(r, float) or _is_int(r) for r in ratios)
                 and valid_ratios(ratios)),
                ("warnings", isinstance(notes, list) and all(isinstance(w, str) for w in notes)),
            ):
                if not ok:
                    raise ValueError(f"split metadata key {key!r} has an invalid value "
                                     f"{meta[key]!r}")
            return cls(rows, seed=seed, ratios=tuple(ratios), warnings=notes)


def _is_int(x) -> bool:
    """Whether ``x`` is an int but not a bool (JSON ``true`` loads as one)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _largest_remainder(n: int, ratios: tuple[float, ...]) -> list[int]:
    """Apportion n items to len(ratios) buckets, |alloc - n*ratio| < 1."""
    quotas = [n * r for r in ratios]
    alloc = [int(q) for q in quotas]
    remainders = [q - a for q, a in zip(quotas, alloc)]
    short = n - sum(alloc)
    # Ties go to the earlier bucket (train before valid before test).
    order = sorted(range(len(ratios)), key=lambda i: (-remainders[i], i))
    for i in order[:short]:
        alloc[i] += 1
    return alloc


def stratified_poem_split(
    corpus: Corpus,
    ratios: tuple[float, float, float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> SplitAssignment:
    """Assign every poem to train/valid/test, stratified per poet.

    Poets with fewer poems than splits fill train, then valid, then test,
    with a warning. Poets with at least three poems are guaranteed a poem in
    every split; when the largest-remainder allocation leaves a split empty
    the overfullest split donates one (also warned, since it bends the exact
    ratios).
    """
    if not valid_ratios(ratios):
        raise ValueError(f"ratios must be three positive numbers summing to 1, got {ratios}")
    rng = np.random.default_rng(seed)

    by_poet: dict[str, list[str]] = {}
    for r in corpus.records:
        by_poet.setdefault(r.poet, []).append(r.poem_id)

    rows: list[tuple[str, str, str]] = []
    warns: list[str] = []
    for poet in sorted(by_poet):
        poems = sorted(by_poet[poet])
        perm = rng.permutation(len(poems))
        poems = [poems[i] for i in perm]
        n = len(poems)
        if n < len(SPLIT_NAMES):
            warns.append(f"poet {poet!r} has {n} poem(s); filling splits in priority order")
            for pid, split in zip(poems, SPLIT_NAMES):
                rows.append((pid, split, poet))
            continue
        alloc = _largest_remainder(n, ratios)
        while min(alloc) == 0:
            empty = alloc.index(0)
            # Only splits holding at least two poems may donate, so a repair
            # never empties another split and the loop ends in <= 2 moves.
            donors = [i for i in range(3) if alloc[i] >= 2]
            over = max(donors, key=lambda i: alloc[i] - n * ratios[i])
            alloc[over] -= 1
            alloc[empty] += 1
            warns.append(
                f"poet {poet!r}: moved one poem from {SPLIT_NAMES[over]} to "
                f"{SPLIT_NAMES[empty]} so every split is populated"
            )
        pos = 0
        for split, k in zip(SPLIT_NAMES, alloc):
            for pid in poems[pos : pos + k]:
                rows.append((pid, split, poet))
            pos += k
    return SplitAssignment(rows, seed=seed, ratios=tuple(ratios), warnings=warns)


def verify_no_leakage(assignment: SplitAssignment, corpus: Corpus) -> dict[str, dict[str, int]]:
    """Check the assignment covers the corpus exactly once per poem, under
    the poem's poet.

    Returns per-poet split counts on success.

    Raises:
        LeakageError: listing the offending poem ids if any poem appears in
            more than one split, is missing, is unknown to the corpus, or is
            assigned under another poet than the corpus gives it.
    """
    poet_of = {r.poem_id: r.poet for r in corpus.records}
    seen: dict[str, str] = {}
    duplicated: set[str] = set()
    unknown: set[str] = set()
    misattributed: set[str] = set()
    for pid, split, poet in assignment.rows:
        if split not in SPLIT_NAMES:
            raise LeakageError(f"poem {pid!r} has unknown split {split!r}")
        if pid in seen:
            duplicated.add(pid)
        seen[pid] = split
        if pid not in poet_of:
            unknown.add(pid)
        elif poet != poet_of[pid]:
            misattributed.add(pid)
    missing = poet_of.keys() - seen.keys()
    problems = [f"{what}: {sorted(ids)[:10]}" for what, ids in (
        ("poems assigned to multiple splits", duplicated),
        ("poems missing from the assignment", missing),
        ("assigned poems not in the corpus", unknown),
        ("poems assigned under another poet than in the corpus", misattributed)) if ids]
    if problems:
        raise LeakageError("; ".join(problems))

    per_poet: dict[str, dict[str, int]] = {}
    for pid, split, _ in assignment.rows:
        counts = per_poet.setdefault(poet_of[pid], {name: 0 for name in SPLIT_NAMES})
        counts[split] += 1
    return per_poet


def split_records(corpus: Corpus, assignment: SplitAssignment):
    """Materialize (train, valid, test) record lists in corpus order."""
    verify_no_leakage(assignment, corpus)
    split_of = assignment.split_of()
    out = {name: [] for name in SPLIT_NAMES}
    for r in corpus.records:
        out[split_of[r.poem_id]].append(r)
    return out["train"], out["valid"], out["test"]
