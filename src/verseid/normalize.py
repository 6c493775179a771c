"""Orthographic normalization, vocabulary construction, and tokenization.

Classical Persian text mixes Arabic and Persian code points for the same
letters and carries combining marks that are editorial rather than
authorial. Normalization maps letter variants to their Persian forms, strips
diacritics and decoration, and canonicalizes whitespace so that downstream
token counts compare like with like.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .corpus import StaleArtifactError, Verse

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
class NormalizationConfig:
    """Switchboard for the normalization steps.

    ZWNJ is retained by default: it is linguistically meaningful in Persian
    (it separates morphemes inside a word) and stripping it merges distinct
    tokens.
    """

    map_yeh: bool = True
    map_kaf: bool = True
    strip_diacritics: bool = True
    strip_tatweel: bool = True
    strip_markup: bool = True
    collapse_whitespace: bool = True
    strip_zwnj: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationConfig":
        return cls(**d)


_YEH_TABLE = str.maketrans({ARABIC_YEH: PERSIAN_YEH, ALEF_MAKSURA: PERSIAN_YEH})
_KAF_TABLE = str.maketrans({ARABIC_KAF: PERSIAN_KAF})


def normalize_text(text: str, cfg: NormalizationConfig = NormalizationConfig()) -> str:
    """Normalize one string. Idempotent for any fixed config."""
    if cfg.map_yeh:
        text = text.translate(_YEH_TABLE)
    if cfg.map_kaf:
        text = text.translate(_KAF_TABLE)
    if cfg.strip_diacritics:
        text = "".join(ch for ch in text if ch not in DIACRITICS)
    if cfg.strip_tatweel:
        text = text.replace(TATWEEL, "")
    if cfg.strip_zwnj:
        text = text.replace(ZWNJ, "")
    if cfg.strip_markup:
        text = _MARKUP_RE.sub(" ", text)
    if cfg.collapse_whitespace:
        text = " ".join(text.split())
    return text


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
    with lexicographic tie-break.
    """

    token_to_id: dict[str, int]
    config: NormalizationConfig = field(default_factory=NormalizationConfig)

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
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.serialize(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a file written by :meth:`save`, whose ids count up from 0 in
        line order; a damaged file raises StaleArtifactError naming the line."""
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines or not lines[0].startswith("# config "):
            raise StaleArtifactError(f"{path}: line 1: missing vocabulary config header")
        try:
            cfg = NormalizationConfig.from_dict(json.loads(lines[0][len("# config "):]))
        except (ValueError, TypeError) as exc:
            raise StaleArtifactError(f"{path}: line 1: unreadable vocabulary config ({exc})") from None
        token_to_id: dict[str, int] = {}
        for lineno, line in enumerate(lines[1:], start=2):
            tok, tab, idx = line.rpartition("\t")
            if not tab or idx != str(len(token_to_id)):
                raise StaleArtifactError(f"{path}: line {lineno}: expected "
                                         f"'<token>\\t{len(token_to_id)}', got {line!r}")
            if tok in token_to_id:
                raise StaleArtifactError(f"{path}: line {lineno}: duplicate token {tok!r}")
            token_to_id[tok] = len(token_to_id)
        vocab = cls(token_to_id, cfg)
        for tok, want in zip(RESERVED_TOKENS, range(N_RESERVED)):
            if vocab.token_to_id.get(tok) != want:
                raise StaleArtifactError(f"{path}: reserved token {tok!r} missing or misplaced")
        return vocab


def build_vocab(
    verse_tokens: Iterable[list[str]],
    cfg: NormalizationConfig = NormalizationConfig(),
    min_freq: int = 1,
) -> Vocabulary:
    """Build a vocabulary over each verse's tokens, normalized with ``cfg``."""
    counts: dict[str, int] = {}
    for tokens in verse_tokens:
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    token_to_id = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
    for offset, tok in enumerate(ordered):
        token_to_id[tok] = N_RESERVED + offset
    return Vocabulary(token_to_id, cfg)


def tokenize_verse(tokens: list[str], vocab: Vocabulary, max_len: int = 64) -> tuple[int, ...]:
    """Encoder input ids for a verse's normalized tokens (both hemistichs in
    reading order): ``[CLS] + tokens``, truncated to ``max_len``.

    Raises:
        ValueError: if the verse has no tokens after normalization.
    """
    if not tokens:
        raise ValueError("empty verse: no tokens after normalization")
    ids = [CLS_ID] + [vocab.id_of(t) for t in tokens]
    return tuple(ids[:max_len])
