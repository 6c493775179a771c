"""Skip-gram embeddings with negative sampling, trained on verse tokens.

The trainer maximizes, for each (center, context) pair within a symmetric
window, ``log sigmoid(u_ctx . v_center) + sum_k log sigmoid(-u_neg_k . v_center)``
with negatives drawn from the unigram distribution raised to 0.75. Updates
are plain SGD with a linearly decaying learning rate, applied in
deterministic minibatches (gather/scatter) so training is fast and exactly
reproducible for a fixed seed with the same numpy and BLAS.

The negatives come from an exact bucket table over the noise CDF
(:func:`_noise_sampler`).

The pair list is built without any (tokens x 2 window) index matrix: one
boolean mask per offset marks the centers whose context at that offset is
in their verse, the masks count each center's contexts, and each offset then
writes its pairs into a preallocated array at each center's running slot
(:func:`_skipgram_pairs`).

Each minibatch updates ``w_out`` with one GEMM. Every row of one center has
the same ``v``, gathered before any update, so a (touched ids, distinct
centers) coefficient matrix holds the gradient scales summed per center, and
it times the distinct center vectors is each touched row's whole update. That
is the same sum as a row-wise ``np.add.at`` of the outer products, rounded
differently, and several times faster. ``w_in`` gets one gradient row per
pair, where a GEMM gains nothing, so it keeps a 1-D ``np.add.at`` over
element indices (``row * dim + column``), which adds in order of occurrence
and so matches a row-wise ``np.add.at`` bit for bit.

A verse's semantic vector is the mean ``w_in`` row of its non-reserved ids.
:func:`semantic_vectors` computes it for every row of a padded id matrix,
adding one column at a time so that each verse sums its tokens in token
order; :func:`verse_semantic_vector` is its one-verse call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import NumericalError, Settings, reading
from .normalize import N_RESERVED

_MAGIC = b"VEMB"
_HEADER = struct.Struct("<4sIII")
# The floor of SGNS's linearly decaying lr, as a share of ``lr``. No flag sets it;
# EmbeddingConfig.FIXED records it in the header of embeddings.bin.
MIN_LR_FACTOR = 1e-4


@dataclass(frozen=True)
class EmbeddingConfig(Settings):
    FIXED = {"min_lr_factor": MIN_LR_FACTOR}

    dim: int = 100
    window: int = 4
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.025
    batch_pairs: int = 512
    seed: int = 0


@dataclass
class EmbeddingMatrix:
    """Input and output vectors for every vocabulary id.

    ``file_sha256`` is the SHA-256 of the file :meth:`load` parsed, and None
    for a matrix built in memory.
    """

    w_in: np.ndarray
    w_out: np.ndarray
    config: EmbeddingConfig
    file_sha256: str | None = field(default=None, repr=False, compare=False)

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
            StaleArtifactError: naming the file, if it is missing, the magic
                is wrong, the file is not exactly header + config + two float32
                (V, D) matrices long, or the config is not UTF-8 JSON with dim D.
        """
        with reading(path, "embeddings"):
            blob = Path(path).read_bytes()
            if len(blob) < _HEADER.size or blob[:4] != _MAGIC:
                raise ValueError("not an embedding file (bad magic or truncated header)")
            _, vocab_size, dim, cfg_len = _HEADER.unpack_from(blob)
            off = _HEADER.size + cfg_len
            n = vocab_size * dim
            if len(blob) != off + 8 * n:
                raise ValueError(f"embedding file is {len(blob)} bytes, but its header "
                                 f"describes {off + 8 * n}")
            cfg = EmbeddingConfig.from_dict(json.loads(blob[_HEADER.size : off].decode("utf-8")))
            if cfg.dim != dim:
                raise ValueError(f"config 'dim' {cfg.dim} disagrees with the header's dim {dim}")
        w_in, w_out = np.frombuffer(blob, dtype="<f4", offset=off).reshape(2, vocab_size, dim)
        return cls(w_in.astype(np.float32), w_out.astype(np.float32), cfg,
                   hashlib.sha256(blob).hexdigest())

    def content_hash(self) -> str:
        """``file_sha256``, or for a matrix built in memory the SHA-256 of
        :meth:`to_bytes`, which is the digest of the file :meth:`save` writes."""
        return self.file_sha256 or hashlib.sha256(self.to_bytes()).hexdigest()


def _real_tokens(sequences) -> tuple[np.ndarray, np.ndarray]:
    """The non-reserved ids of all sequences in one flat array, with the
    index of the sequence each one came from."""
    ids = np.fromiter(itertools.chain.from_iterable(sequences), dtype=np.int64)
    seq_of = np.repeat(np.arange(len(sequences)), [len(s) for s in sequences])
    keep = ids >= N_RESERVED
    return ids[keep], seq_of[keep]


def _skipgram_pairs(sequences: list[list[int]], window: int) -> np.ndarray:
    """All (center, context) id pairs within the window, reserved ids dropped.

    Rows come center by center in sequence order, and each center's contexts
    from the leftmost to the rightmost, skipping the center itself. No offset
    reaches past the longest sequence, so the window is clamped to it: the
    offsets are bounded by the corpus, whatever window is asked for.

    ``masks[j, i]`` is True when token ``i`` has a context at ``offsets[j]``
    in its own sequence. Each center's rows start at the running total of the
    contexts before it, and the offsets fill them left to right.
    """
    ids, seq_of = _real_tokens(sequences)
    window = min(window, np.bincount(seq_of).max(initial=1) - 1)
    offsets = [*range(-window, 0), *range(1, window + 1)]
    masks = np.zeros((len(offsets), len(ids)), dtype=bool)
    for mask, o in zip(masks, offsets):  # the sequences are runs of seq_of
        if o < 0:
            mask[-o:] = seq_of[-o:] == seq_of[:o]
        else:
            mask[:-o] = seq_of[:-o] == seq_of[o:]
    counts = masks.sum(axis=0)
    slot = np.cumsum(counts) - counts  # each center's next row
    pairs = np.empty((int(counts.sum()), 2), dtype=np.int64)
    for mask, o in zip(masks, offsets):
        at = np.flatnonzero(mask)
        rows = slot[at]
        pairs[rows, 0] = ids[at]
        pairs[rows, 1] = ids[at + o]
        slot[at] += 1
    return pairs


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _scatter_rows(flat: np.ndarray, rows: np.ndarray, grads: np.ndarray, cols: np.ndarray) -> None:
    """``flat.reshape(-1, dim)[rows[i]] += grads[i]`` for each ``i`` in order.

    One 1-D ``np.add.at`` over element indices; repeated rows accumulate in
    order of occurrence, so the bits match a row-wise ``np.add.at``.
    """
    np.add.at(flat, (rows[:, None] * len(cols) + cols).reshape(-1), grads.reshape(-1))


def _distinct(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``ids`` (each below ``size``) in ascending
    order, and the position of each element's value among them."""
    hit = np.bincount(ids.reshape(-1), minlength=size) > 0
    return np.flatnonzero(hit), (np.cumsum(hit) - 1)[ids]


def _add_outer(w: np.ndarray, targets: np.ndarray, g: np.ndarray, rows: np.ndarray,
               x: np.ndarray) -> None:
    """``w[targets[i, k]] += g[i, k] * x[rows[i]]`` for every ``i`` and ``k``,
    as one GEMM.

    ``coef[j, c]`` sums ``g[i, k]`` over the ``(i, k)`` whose target is the
    ``j``-th id the batch touches and whose row is ``c``, so ``coef @ x``
    holds each touched row's whole update. Its size is bounded by the batch,
    not by the vocabulary.
    """
    touched, col = _distinct(targets, len(w))  # col: the coef row of each target
    coef = np.zeros(len(touched) * len(x), dtype=w.dtype)
    np.add.at(coef, (col * len(x) + rows[:, None]).reshape(-1), g.reshape(-1))
    w[touched] += coef.reshape(len(touched), -1) @ x


# Noise-table buckets per real id, rounded up to a power of two. At the desk
# vocabulary (400 real ids) 16 per id leaves 4.9% of the draws to search and
# 64 per id 1.2%, 1 ms less per 163,840 draws for four times the table.
_BUCKETS_PER_ID = 16


def _noise_sampler(counts: np.ndarray):
    """A function mapping uniform draws in [0, 1) to negative-sample ids,
    drawn by the unigram counts raised to 0.75.

    A draw ``u`` gets the first real id whose cumulative noise reaches ``u``:
    ``np.searchsorted(cum, u)`` over the noise CDF of every id, whose reserved
    ids count 0. Two draws are mended: ``u = 0`` gets the first real id, not
    ``PAD_ID``, and a draw above the CDF's last entry, which rounds below 1.0
    for about half of all count vectors, gets the last id with a count
    instead of ``vocab_size``. Every other draw gets the same id.

    The table is word2vec's unigram table made exact: ``[0, 1)`` is cut into
    a power of two of buckets, and ``edge[j]`` holds the search result at
    ``j / buckets``. The search is monotone in ``u``, so a draw in a bucket
    whose two edges agree takes that id, and only draws in the buckets that
    hold a CDF step are searched.
    """
    noise = counts**0.75
    cum = np.cumsum(noise / noise.sum())[N_RESERVED:]
    cum[cum >= cum[-1]] = 1.0
    buckets = 1 << (len(cum) * _BUCKETS_PER_ID - 1).bit_length()
    edge = N_RESERVED + np.searchsorted(cum, np.arange(buckets + 1) / buckets)

    def sample(u: np.ndarray) -> np.ndarray:
        j = (u * buckets).astype(np.intp)  # exact: buckets is a power of two
        ids = edge[j]
        split = ids != edge[j + 1]
        ids[split] = N_RESERVED + np.searchsorted(cum, u[split])
        return ids

    return sample


def train_sgns(
    sequences: list[list[int]],
    vocab_size: int,
    cfg: EmbeddingConfig = EmbeddingConfig(),
) -> tuple[EmbeddingMatrix, list[float]]:
    """Train embeddings; returns the matrix and mean per-pair loss by epoch.

    ``sequences`` holds each verse's vocabulary ids (reserved ids are
    ignored). With no usable pairs the initialization is returned unchanged
    with a warning.

    Raises:
        NumericalError: if an epoch ends with a non-finite loss or weight.
    """
    rng = np.random.default_rng(cfg.seed)
    w_in = ((rng.random((vocab_size, cfg.dim)) - 0.5) / cfg.dim).astype(np.float32)
    w_out = np.zeros((vocab_size, cfg.dim), dtype=np.float32)

    pairs = _skipgram_pairs(sequences, cfg.window)
    if len(pairs) == 0:
        warnings.warn("no skip-gram pairs in corpus; embeddings left at initialization")
        return EmbeddingMatrix(w_in, w_out, cfg), []

    sample_noise = _noise_sampler(np.bincount(_real_tokens(sequences)[0], minlength=vocab_size))
    labels = np.zeros((cfg.batch_pairs, cfg.negatives + 1), dtype=np.float32)
    labels[:, 0] = 1.0

    flat_in = w_in.reshape(-1)  # a view
    cols = np.arange(cfg.dim)
    total_updates = cfg.epochs * len(pairs)
    done = 0
    losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for start in range(0, len(pairs), cfg.batch_pairs):
            batch = pairs[order[start : start + cfg.batch_pairs]]
            centers = batch[:, 0]
            b = len(centers)
            negs = sample_noise(rng.random((b, cfg.negatives)))
            targets = np.concatenate([batch[:, 1:], negs], axis=1)
            label = labels[:b]

            center_ids, center_row = _distinct(centers, vocab_size)
            x = w_in[center_ids]  # (distinct centers, d)
            v = x[center_row]  # (b, d)
            u = w_out[targets]  # (b, k+1, d)
            scores = np.einsum("bd,bkd->bk", v, u)
            sig = 1.0 / (1.0 + np.exp(-np.clip(scores, -30.0, 30.0)))
            signed = np.where(label > 0, scores, -scores).astype(np.float64)
            epoch_loss += float(-_log_sigmoid(signed).sum())

            alpha = cfg.lr * max(MIN_LR_FACTOR, 1.0 - done / total_updates)
            g = ((label - sig) * alpha).astype(np.float32)
            d_v = np.einsum("bk,bkd->bd", g, u)
            _scatter_rows(flat_in, centers, d_v, cols)
            _add_outer(w_out, targets, g, center_row, x)
            done += b
        del order  # the next permutation is drawn without this one alive
        losses.append(epoch_loss / len(pairs))
        if not (math.isfinite(losses[-1]) and np.isfinite(w_in).all() and np.isfinite(w_out).all()):
            raise NumericalError(f"non-finite skip-gram loss or weights at epoch {epoch}, "
                                 f"lr {cfg.lr:.3g}")
    return EmbeddingMatrix(w_in, w_out, cfg), losses


# Vector elements gathered at once (1 MiB of float32), whatever the batch.
_SEMANTIC_BLOCK = 1 << 18


def semantic_vectors(ids: np.ndarray, emb: EmbeddingMatrix, out: np.ndarray | None = None) -> np.ndarray:
    """Mean input vector of the non-reserved ids of each row of the padded
    (n, T) id matrix ``ids``, as float32 rows (zeros for a row with none).

    The rows are written into ``out``, an (n, dim) float32 array or view (a
    column block of a wider array, say), if it is given, and returned.

    Each block of rows gathers its (rows, T, dim) vectors, with zeros for
    reserved ids, and adds them one column at a time, so each row sums its
    tokens in token order, as a row-wise ``mean`` over its gathered vectors
    does. A zero changes no sum: the sums start at +0.0, and a sum is -0.0
    only if both its terms are.
    """
    n, width = ids.shape
    if out is None:
        out = np.empty((n, emb.dim), dtype=np.float32)
    # A row with no such ids is zeros, and zeros over 1 stay zeros.
    counts = np.maximum(np.count_nonzero(ids >= N_RESERVED, axis=1), 1)[:, None].astype(np.float32)
    step = max(1, _SEMANTIC_BLOCK // max(1, width * emb.dim))
    for start in range(0, n, step):
        block = ids[start : start + step]
        vectors = emb.w_in[block]
        vectors[block < N_RESERVED] = 0.0
        # Summed in a contiguous buffer: adding into a strided ``out`` is slower.
        sums = np.zeros((len(block), emb.dim), dtype=np.float32)
        for col in range(width):
            sums += vectors[:, col]
        np.divide(sums, counts[start : start + step], out=out[start : start + step])
    return out


def verse_semantic_vector(token_ids, emb: EmbeddingMatrix) -> np.ndarray:
    """Mean input vector of the verse's non-reserved tokens (zeros if none);
    the one-verse call of :func:`semantic_vectors`."""
    return semantic_vectors(np.asarray(token_ids, dtype=np.int64).reshape(1, -1), emb)[0]
