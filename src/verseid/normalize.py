"""Orthographic normalization, vocabulary construction, and tokenization.

Classical Persian text mixes Arabic and Persian code points for the same
letters and carries combining marks that are editorial rather than
authorial. Normalization maps letter variants to their Persian forms, strips
diacritics and decoration, and canonicalizes whitespace so that downstream
token counts compare like with like. Stripping the zero-width non-joiner is
its one option.

Every consumer of tokens reads many verses at once through a
:class:`TokenTable`, which holds every token of them in one flat array of
per-call type ids, so that the work done per token string (the counting and
vocabulary lookup here, and the stylometric counts in ``features``) runs once
per distinct token. :func:`table_vocab` builds a vocabulary from a table's
token counts (:func:`build_vocab` is its token-list call), :func:`table_ids`
maps a table's tokens to vocabulary ids, the skip-gram input, and
:func:`encoder_ids` lays those ids out as the encoder's padded id matrix.
"""

from __future__ import annotations

import hashlib
import json
import re
from array import array
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Settings, Verse, reading

# Letter variants.
ARABIC_YEH = "ي"
ALEF_MAKSURA = "ى"
PERSIAN_YEH = "ی"
ARABIC_KAF = "ك"
PERSIAN_KAF = "ک"

# Decoration.
TATWEEL = "ـ"
ZWNJ = "‌"
# Arabic harakat and related combining marks: fathatan through sukun.
DIACRITICS = "".join(chr(cp) for cp in range(0x064B, 0x0653))

_MARKUP_RE = re.compile(r"<[^<>]*>")

PAD_TOKEN, PAD_ID = "<pad>", 0
UNK_TOKEN, UNK_ID = "<unk>", 1
CLS_TOKEN, CLS_ID = "<cls>", 2
RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN)
N_RESERVED = len(RESERVED_TOKENS)


@dataclass(frozen=True)
class NormalizationConfig(Settings):
    """The one normalization recipe, whose only option is ZWNJ stripping.

    Every config maps the yeh and kaf variants, strips diacritics, tatweel
    and markup, and collapses whitespace. ZWNJ is retained by default: it is
    linguistically meaningful in Persian (it separates morphemes inside a
    word) and stripping it merges distinct tokens.
    """

    # Steps every config runs. ``vocab.tsv`` headers name each one, set to
    # true, so that vocabulary hashes, and the checkpoints holding them, stay valid.
    FIXED = dict.fromkeys(("map_yeh", "map_kaf", "strip_diacritics", "strip_tatweel",
                           "strip_markup", "collapse_whitespace"), True)

    strip_zwnj: bool = False


# Maps the letter variants and deletes diacritics and tatweel in one pass.
_TABLE = str.maketrans({
    ARABIC_YEH: PERSIAN_YEH, ALEF_MAKSURA: PERSIAN_YEH, ARABIC_KAF: PERSIAN_KAF,
    TATWEEL: None, **dict.fromkeys(DIACRITICS),
})
_TABLE_STRIP_ZWNJ = {**_TABLE, ord(ZWNJ): None}


def normalize_text(text: str, cfg: NormalizationConfig = NormalizationConfig()) -> str:
    """Normalize one string. Idempotent for either config."""
    text = text.translate(_TABLE_STRIP_ZWNJ if cfg.strip_zwnj else _TABLE)
    return " ".join(_MARKUP_RE.sub(" ", text).split())


def normalize_verse(
    verse: Verse, cfg: NormalizationConfig = NormalizationConfig()
) -> tuple[list[str], list[str]]:
    """The whitespace tokens of each normalized hemistich; the one tokenizer."""
    return normalize_text(verse.hemistich_1, cfg).split(), normalize_text(verse.hemistich_2, cfg).split()


@dataclass
class Vocabulary:
    """Token-to-id mapping with fixed reserved slots.

    Ids 0..2 are reserved for padding, unknown, and the sequence-start
    token; real tokens start at 3 ordered by descending corpus frequency
    with lexicographic tie-break. ``file_sha256`` is the SHA-256 of the file
    :meth:`load` parsed, and None for a vocabulary built in memory.
    """

    token_to_id: dict[str, int]
    config: NormalizationConfig = field(default_factory=NormalizationConfig)
    file_sha256: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.id_to_token = [""] * len(self.token_to_id)
        for tok, i in self.token_to_id.items():
            self.id_to_token[i] = tok

    def __len__(self) -> int:
        return len(self.token_to_id)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def serialize(self) -> str:
        header = "# config " + json.dumps(self.config.to_dict(), sort_keys=True)
        lines = [header]
        lines += [f"{tok}\t{i}" for i, tok in enumerate(self.id_to_token)]
        return "\n".join(lines) + "\n"

    def content_hash(self) -> str:
        """``file_sha256``, or for a vocabulary built in memory the SHA-256 of
        :meth:`serialize`, which is the digest of the file :meth:`save` writes."""
        return self.file_sha256 or hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.serialize(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a file written by :meth:`save`, whose ids count up from 0 in
        line order; a damaged file raises StaleArtifactError naming the line."""
        with reading(path, "vocabulary"):
            data = Path(path).read_bytes()
            lines = data.decode("utf-8").splitlines()
            if not lines or not lines[0].startswith("# config "):
                raise ValueError("line 1: missing vocabulary config header")
            try:
                cfg = NormalizationConfig.from_dict(json.loads(lines[0][len("# config "):]))
            except (ValueError, TypeError, AttributeError) as exc:
                raise ValueError(f"line 1: unreadable vocabulary config ({exc})") from None
            token_to_id: dict[str, int] = {}
            for lineno, line in enumerate(lines[1:], start=2):
                tok, tab, idx = line.rpartition("\t")
                if not tab or idx != str(len(token_to_id)):
                    raise ValueError(f"line {lineno}: expected "
                                     f"'<token>\\t{len(token_to_id)}', got {line!r}")
                if tok in token_to_id:
                    raise ValueError(f"line {lineno}: duplicate token {tok!r}")
                token_to_id[tok] = len(token_to_id)
            vocab = cls(token_to_id, cfg, hashlib.sha256(data).hexdigest())
            for tok, want in zip(RESERVED_TOKENS, range(N_RESERVED)):
                if vocab.token_to_id.get(tok) != want:
                    raise ValueError(f"reserved token {tok!r} missing or misplaced")
        return vocab


@dataclass(frozen=True)
class TokenTable:
    """The whitespace tokens of many verses, each verse's two hemistichs in
    reading order, as one flat array.

    ``types`` lists each distinct token once, in order of first occurrence,
    and ``local[k]`` is the index in ``types`` of the ``k``-th token;
    ``verse_of[k]`` is the verse it belongs to. ``first[i]`` and ``second[i]``
    count the tokens of verse ``i``'s two hemistichs.
    """

    types: list[str]
    local: np.ndarray
    verse_of: np.ndarray
    first: np.ndarray
    second: np.ndarray

    @classmethod
    def of(cls, verses: Iterable[tuple[list[str], list[str]]]) -> "TokenTable":
        """The table of each verse's ``(hemistich 1, hemistich 2)`` tokens.

        ``verses`` may be a generator: each verse's strings are dropped once
        its ids are recorded, so only the distinct tokens stay in memory.
        """
        # A missing token gets the next id: the factory runs before the insert.
        index: defaultdict[str, int] = defaultdict()
        index.default_factory = index.__len__
        local, first, second = array("q"), array("q"), array("q")
        for t1, t2 in verses:
            local.extend(map(index.__getitem__, t1))
            local.extend(map(index.__getitem__, t2))
            first.append(len(t1))
            second.append(len(t2))
        # The factory refers to the dict: a cycle that only the garbage
        # collector would free, with every token string in it.
        index.default_factory = None
        first, second = np.frombuffer(first, np.int64), np.frombuffer(second, np.int64)
        verse_of = np.repeat(np.arange(len(first)), first + second)
        return cls(list(index), np.frombuffer(local, np.int64), verse_of, first, second)

    @property
    def n_tokens(self) -> np.ndarray:
        """The token count of each verse."""
        return self.first + self.second


def table_vocab(table: TokenTable, cfg: NormalizationConfig = NormalizationConfig(),
                min_freq: int = 1) -> Vocabulary:
    """The vocabulary of the tokens of ``table`` seen at least ``min_freq`` times."""
    counts = np.bincount(table.local, minlength=len(table.types)).tolist()
    ranked = sorted((-c, tok) for tok, c in zip(table.types, counts) if c >= min_freq)
    tokens = [*RESERVED_TOKENS, *(tok for _, tok in ranked)]
    return Vocabulary({tok: i for i, tok in enumerate(tokens)}, cfg)


def build_vocab(verse_tokens: Iterable[list[str]], cfg: NormalizationConfig = NormalizationConfig(),
                min_freq: int = 1) -> Vocabulary:
    """The vocabulary of each verse's token list; the token-list call of :func:`table_vocab`."""
    return table_vocab(TokenTable.of((tokens, []) for tokens in verse_tokens), cfg, min_freq)


def table_ids(table: TokenTable, vocab: Vocabulary) -> np.ndarray:
    """The vocabulary id of every token of ``table``, in table order."""
    type_ids = np.fromiter(map(vocab.id_of, table.types), np.int64, len(table.types))
    return type_ids[table.local]


def encoder_ids(table: TokenTable, vocab: Vocabulary, max_len: int = 64) -> np.ndarray:
    """Encoder input ids of every verse of ``table``: ``[CLS] + tokens``,
    truncated to ``max_len``, as rows of one matrix padded with ``PAD_ID``.

    A verse with no tokens gets the row ``[CLS]``; the matrix is as wide as
    its longest row.
    """
    n = table.n_tokens
    # The column of each token: one past its position in its verse.
    col = np.arange(1, len(table.local) + 1) - (np.cumsum(n) - n)[table.verse_of]
    keep = col < max_len
    ids = np.zeros((len(n), min(max_len, int(n.max(initial=0)) + 1)), np.int64)
    ids[:, 0] = CLS_ID
    ids[table.verse_of[keep], col[keep]] = table_ids(table, vocab)[keep]
    return ids
