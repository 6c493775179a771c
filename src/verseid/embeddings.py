"""Skip-gram embeddings with negative sampling, trained on verse tokens.

The trainer maximizes, for each (center, context) pair within a symmetric
window, ``log sigmoid(u_ctx . v_center) + sum_k log sigmoid(-u_neg_k . v_center)``
with negatives drawn from the unigram distribution raised to 0.75. Updates
are plain SGD with a linearly decaying learning rate, applied in
deterministic minibatches (gather/scatter) so training is fast and exactly
reproducible for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import struct
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .corpus import StaleArtifactError
from .normalize import N_RESERVED

_MAGIC = b"VEMB"
_HEADER = struct.Struct("<4sIII")


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int = 100
    window: int = 4
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.025
    min_lr_factor: float = 1e-4
    batch_pairs: int = 512
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EmbeddingConfig":
        return cls(**d)


@dataclass
class EmbeddingMatrix:
    """Input and output vectors for every vocabulary id."""

    w_in: np.ndarray
    w_out: np.ndarray
    config: EmbeddingConfig

    @property
    def dim(self) -> int:
        return self.w_in.shape[1]

    def to_bytes(self) -> bytes:
        cfg = json.dumps(self.config.to_dict(), sort_keys=True).encode("utf-8")
        head = _HEADER.pack(_MAGIC, self.w_in.shape[0], self.dim, len(cfg))
        body = (
            np.ascontiguousarray(self.w_in, dtype="<f4").tobytes()
            + np.ascontiguousarray(self.w_out, dtype="<f4").tobytes()
        )
        return head + cfg + body

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingMatrix":
        """Read a file written by :meth:`save`.

        Raises:
            StaleArtifactError: if the magic is wrong, the file is not exactly
                header + config + two float32 (V, D) matrices long, or the
                config is unreadable.
        """
        blob = Path(path).read_bytes()
        if len(blob) < _HEADER.size or blob[:4] != _MAGIC:
            raise StaleArtifactError(
                f"{path}: not an embedding file (bad magic or truncated header)"
            )
        _, vocab_size, dim, cfg_len = _HEADER.unpack_from(blob)
        off = _HEADER.size + cfg_len
        n = vocab_size * dim
        if len(blob) != off + 8 * n:
            raise StaleArtifactError(f"{path}: embedding file is {len(blob)} bytes, but its "
                                     f"header describes {off + 8 * n}")
        try:
            cfg = EmbeddingConfig.from_dict(json.loads(blob[_HEADER.size : off]))
        except (ValueError, TypeError) as exc:
            raise StaleArtifactError(f"{path}: unreadable embedding config ({exc})") from None
        w_in, w_out = np.frombuffer(blob, dtype="<f4", offset=off).reshape(2, vocab_size, dim)
        return cls(w_in.astype(np.float32), w_out.astype(np.float32), cfg)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_bytes()).hexdigest()


def _skipgram_pairs(sequences: list[list[int]], window: int) -> np.ndarray:
    """All (center, context) id pairs within the window, reserved ids dropped."""
    pairs: list[tuple[int, int]] = []
    for seq in sequences:
        toks = [t for t in seq if t >= N_RESERVED]
        for i, center in enumerate(toks):
            lo = max(0, i - window)
            hi = min(len(toks), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((center, toks[j]))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def train_sgns(
    sequences: list[list[int]],
    vocab_size: int,
    cfg: EmbeddingConfig = EmbeddingConfig(),
) -> tuple[EmbeddingMatrix, list[float]]:
    """Train embeddings; returns the matrix and mean per-pair loss by epoch.

    ``sequences`` are token-id lists (reserved ids are ignored). With no
    usable pairs the initialization is returned unchanged with a warning.
    """
    rng = np.random.default_rng(cfg.seed)
    w_in = ((rng.random((vocab_size, cfg.dim)) - 0.5) / cfg.dim).astype(np.float32)
    w_out = np.zeros((vocab_size, cfg.dim), dtype=np.float32)

    pairs = _skipgram_pairs(sequences, cfg.window)
    if len(pairs) == 0:
        warnings.warn("no skip-gram pairs in corpus; embeddings left at initialization")
        return EmbeddingMatrix(w_in, w_out, cfg), []

    counts = np.zeros(vocab_size, dtype=np.float64)
    for seq in sequences:
        for t in seq:
            if t >= N_RESERVED:
                counts[t] += 1
    noise = counts**0.75
    noise /= noise.sum()
    cum_noise = np.cumsum(noise)

    total_updates = cfg.epochs * len(pairs)
    done = 0
    losses: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for start in range(0, len(pairs), cfg.batch_pairs):
            batch = pairs[order[start : start + cfg.batch_pairs]]
            centers, contexts = batch[:, 0], batch[:, 1]
            b = len(batch)
            negs = np.searchsorted(cum_noise, rng.random((b, cfg.negatives)))
            targets = np.concatenate([contexts[:, None], negs], axis=1)
            labels = np.zeros((b, cfg.negatives + 1), dtype=np.float32)
            labels[:, 0] = 1.0

            v = w_in[centers]  # (b, d)
            u = w_out[targets]  # (b, k+1, d)
            scores = np.einsum("bd,bkd->bk", v, u)
            sig = 1.0 / (1.0 + np.exp(-np.clip(scores, -30.0, 30.0)))
            signed = np.where(labels > 0, scores, -scores).astype(np.float64)
            epoch_loss += float(-_log_sigmoid(signed).sum())

            alpha = cfg.lr * max(cfg.min_lr_factor, 1.0 - done / total_updates)
            g = ((labels - sig) * alpha).astype(np.float32)
            d_v = np.einsum("bk,bkd->bd", g, u)
            d_u = g[:, :, None] * v[:, None, :]
            np.add.at(w_in, centers, d_v)
            np.add.at(w_out, targets.reshape(-1), d_u.reshape(-1, cfg.dim))
            done += b
        losses.append(epoch_loss / len(pairs))
    return EmbeddingMatrix(w_in, w_out, cfg), losses


def verse_semantic_vector(token_ids, emb: EmbeddingMatrix) -> np.ndarray:
    """Mean input vector of the verse's non-reserved tokens (zeros if none)."""
    ids = [t for t in token_ids if t >= N_RESERVED]
    if not ids:
        return np.zeros(emb.dim, dtype=np.float32)
    return emb.w_in[ids].mean(axis=0)
