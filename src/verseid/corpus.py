"""Corpus model: poem records, JSONL ingestion, filtering, and statistics.

A corpus file is JSON Lines, one poem per line::

    {"poem_id": "p1", "poet": "hafez", "title": "...", "form": "ghazal",
     "meter": "ramal", "status": "confirmed",
     "verses": [["hemistich 1a", "hemistich 1b"], ...]}

``title`` is optional; prediction input may also omit the label keys. Every
key but ``verses`` holds a string. Each verse is a pair of hemistichs; the
second may be an empty string for irregular trailing lines.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

ATTRIBUTION_STATUSES = ("confirmed", "attributed", "disputed", "apocryphal")


class CorpusError(ValueError):
    """Raised for malformed corpus files or empty filter results."""


class StaleArtifactError(ValueError):
    """Raised when an artifact file is damaged, or is paired with artifacts
    it was not built with."""


class NumericalError(RuntimeError):
    """Raised when training encounters non-finite losses, gradients or weights."""


@contextmanager
def reading(path: str | Path, what: str, error: type[Exception] = StaleArtifactError):
    """Read and parse ``path`` (a ``what``, e.g. "vocabulary") in this block.

    Any failure to read or parse it becomes ``error``, its message naming
    the file: a missing file, a missing key, and any ``ValueError``,
    ``TypeError`` or ``AttributeError``, which covers undecodable bytes,
    unparseable JSON and a ``StaleArtifactError`` raised inside.
    """
    try:
        yield
    except FileNotFoundError:
        raise error(f"missing {what}: {path}") from None
    except KeyError as exc:
        raise error(f"{path}: {what} lacks key {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise error(f"{path}: {exc}") from None


class Settings:
    """A config dataclass that artifact headers record.

    ``FIXED`` maps each setting that no option changes to the one value
    every file holds. :meth:`to_dict` writes the fields and ``FIXED``;
    :meth:`from_dict` checks ``FIXED`` and drops it.
    """

    FIXED: dict = {}

    def to_dict(self) -> dict:
        return {**asdict(self), **self.FIXED}

    @classmethod
    def from_dict(cls, d: dict):
        """Raises StaleArtifactError, naming the key, if ``d`` holds any
        other value for a fixed setting, and TypeError, naming the key, if
        it holds a setting that is not a field."""
        for key, value in cls.FIXED.items():
            if d.get(key, value) != value:
                raise StaleArtifactError(f"setting {key!r} is {d[key]!r}; "
                                         f"only {value!r} is supported")
        return cls(**{k: v for k, v in d.items() if k not in cls.FIXED})


@dataclass(frozen=True)
class Verse:
    """One verse as a pair of hemistichs."""

    hemistich_1: str
    hemistich_2: str = ""


@dataclass
class PoemRecord:
    poem_id: str
    poet: str
    form: str
    meter: str
    attribution_status: str
    verses: list[Verse]
    title: str = ""

    def __post_init__(self) -> None:
        if self.attribution_status not in ATTRIBUTION_STATUSES:
            raise CorpusError(
                f"poem {self.poem_id!r}: unknown attribution status "
                f"{self.attribution_status!r} (expected one of {ATTRIBUTION_STATUSES})"
            )
        if not self.verses:
            raise CorpusError(f"poem {self.poem_id!r}: no verses")

    @property
    def n_verses(self) -> int:
        return len(self.verses)


@dataclass
class Corpus:
    """An ordered list of poem records."""

    records: list[PoemRecord]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_verses(self) -> int:
        return sum(r.n_verses for r in self.records)


def _parse_record(obj: dict, lineno: int, labelled: bool = True) -> PoemRecord:
    if "poem_id" not in obj or "verses" not in obj:
        raise CorpusError(f"line {lineno}: need at least poem_id and verses")
    if labelled:
        for key in ("poet", "form", "meter", "status"):
            if key not in obj:
                raise CorpusError(f"line {lineno}: missing required key {key!r}")
    for key in ("poem_id", "poet", "form", "meter", "status", "title"):
        if not isinstance(obj.get(key, ""), str):
            raise CorpusError(f"line {lineno}: {key!r} must be a string")
    raw_verses = obj["verses"]
    if not isinstance(raw_verses, list) or not raw_verses:
        raise CorpusError(f"line {lineno}: 'verses' must be a non-empty list")
    verses = []
    for i, pair in enumerate(raw_verses):
        if not isinstance(pair, list) or not 1 <= len(pair) <= 2:
            raise CorpusError(
                f"line {lineno}: verse {i} must be a list of one or two hemistichs"
            )
        h1 = pair[0]
        h2 = pair[1] if len(pair) == 2 else ""
        if not isinstance(h1, str) or not isinstance(h2, str):
            raise CorpusError(f"line {lineno}: verse {i} hemistichs must be strings")
        verses.append(Verse(h1, h2))
    try:
        return PoemRecord(
            poem_id=obj["poem_id"],
            poet=obj.get("poet", ""),
            form=obj.get("form", ""),
            meter=obj.get("meter", ""),
            attribution_status=obj.get("status", "confirmed"),
            verses=verses,
            title=obj.get("title", ""),
        )
    except CorpusError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from None


@contextmanager
def _text_lines(path: str | Path | None):
    """The lines of ``path``, or of the process's stdin for ``None``, decoded
    as strict UTF-8 while they are read.

    Stdin's bytes are decoded by a wrapper that is detached, not closed, at
    the end, so stdin stays open; Python's own ``sys.stdin`` would let
    undecodable bytes through as surrogates.
    """
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            yield fh
        return
    fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
    try:
        yield fh
    finally:
        fh.detach()


def read_records(path: str | Path | None, labelled: bool = True) -> Iterator[PoemRecord]:
    """The records of a JSONL corpus file, or of stdin for ``path=None``, one
    at a time as they are read, skipping blank lines; ``labelled=False``
    reads prediction input, where only poem_id and verses are required. The
    set of poem ids seen is all it keeps.

    Raises:
        CorpusError: naming the file or stdin (and the line, if any) when it
            is missing, undecodable, malformed or empty, or repeats a poem id,
            once the reader reaches the fault.
    """
    seen: set[str] = set()
    with reading("stdin" if path is None else path, "corpus", CorpusError), _text_lines(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise CorpusError(f"line {lineno}: expected a JSON object")
            record = _parse_record(obj, lineno, labelled)
            if record.poem_id in seen:
                raise CorpusError(f"line {lineno}: duplicate poem_id {record.poem_id!r}")
            seen.add(record.poem_id)
            yield record
        if not seen:
            raise CorpusError("no poems")


def load_corpus(path: str | Path | None, labelled: bool = True) -> Corpus:
    """Every record of :func:`read_records`, as one corpus."""
    return Corpus(list(read_records(path, labelled)))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back to JSONL (inverse of :func:`load_corpus`)."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in corpus.records:
            obj = {
                "poem_id": r.poem_id,
                "poet": r.poet,
                "title": r.title,
                "form": r.form,
                "meter": r.meter,
                "status": r.attribution_status,
                "verses": [[v.hemistich_1, v.hemistich_2] for v in r.verses],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def csv_text(rows: Iterable[Sequence]) -> str:
    """CSV text of ``rows``, each line ended by ``"\n"``.

    With ``"\n"`` as its terminator the csv writer leaves a bare ``"\r"``
    unquoted, and a reader would end the row there; a row holding one in a
    string field is quoted whole.
    """
    rows = list(rows)
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    plain.writerows(rows)
    if "\r" not in buf.getvalue():  # no field holds one: the common case
        return buf.getvalue()
    buf.seek(0)
    buf.truncate()
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if any(isinstance(f, str) and "\r" in f for f in row) else plain).writerow(row)
    return buf.getvalue()


def filter_corpus(corpus: Corpus, min_verses_per_poet: int = 50) -> Corpus:
    """Keep confirmed attributions from poets with enough total verses.

    Records whose status is not ``confirmed`` are dropped first; a poet's
    verse total is counted over the remaining records.

    Raises:
        CorpusError: if no poets survive filtering.
    """
    confirmed = [r for r in corpus.records if r.attribution_status == "confirmed"]
    verse_totals: dict[str, int] = {}
    for r in confirmed:
        verse_totals[r.poet] = verse_totals.get(r.poet, 0) + r.n_verses
    kept_poets = {p for p, n in verse_totals.items() if n >= min_verses_per_poet}
    kept = [r for r in confirmed if r.poet in kept_poets]
    if not kept:
        raise CorpusError(
            f"no poets survive filtering (min_verses_per_poet={min_verses_per_poet})"
        )
    return Corpus(kept)


@dataclass
class StatsReport:
    """Descriptive corpus statistics with JSON and aligned-text renderings."""

    n_poems: int
    n_verses: int
    n_poets: int
    poems_per_poet: dict[str, int]
    verses_per_poem: dict[str, float]
    form_distribution: dict[str, int]
    meter_distribution: dict[str, int]
    meters_per_poet: dict[str, int]

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"poems:  {self.n_poems}",
            f"verses: {self.n_verses}",
            f"poets:  {self.n_poets}",
            "",
            "verses per poem: "
            + "  ".join(f"{k}={self.verses_per_poem[k]:.2f}" for k in ("mean", "median", "max", "std")),
            "",
        ]
        for header, dist in (
            ("poems per poet", self.poems_per_poet),
            ("form distribution", self.form_distribution),
            ("meter distribution", self.meter_distribution),
            ("distinct meters per poet", self.meters_per_poet),
        ):
            lines.append(header)
            if dist:
                width = max(len(k) for k in dist)
                for key in sorted(dist, key=lambda k: (-dist[k], k)):
                    lines.append(f"  {key:<{width}}  {dist[key]}")
            lines.append("")
        return "\n".join(lines)


def corpus_stats(corpus: Corpus) -> StatsReport:
    """Compute descriptive statistics for a corpus."""
    counts = [r.n_verses for r in corpus.records]
    n = len(counts)
    mean = sum(counts) / n
    ordered = sorted(counts)
    median = (
        float(ordered[n // 2])
        if n % 2
        else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    )
    std = math.sqrt(sum((c - mean) ** 2 for c in counts) / n)

    poems_per_poet: dict[str, int] = {}
    form_dist: dict[str, int] = {}
    meter_dist: dict[str, int] = {}
    poet_meters: dict[str, set[str]] = {}
    for r in corpus.records:
        poems_per_poet[r.poet] = poems_per_poet.get(r.poet, 0) + 1
        form_dist[r.form] = form_dist.get(r.form, 0) + 1
        meter_dist[r.meter] = meter_dist.get(r.meter, 0) + 1
        poet_meters.setdefault(r.poet, set()).add(r.meter)

    return StatsReport(
        n_poems=len(corpus.records),
        n_verses=corpus.n_verses,
        n_poets=len(poems_per_poet),
        poems_per_poet=poems_per_poet,
        verses_per_poem={"mean": mean, "median": median, "max": float(max(counts)), "std": std},
        form_distribution=form_dist,
        meter_distribution=meter_dist,
        meters_per_poet={p: len(ms) for p, ms in poet_meters.items()},
    )
