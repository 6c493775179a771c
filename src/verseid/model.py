"""Fused verse classifier: feature assembly, head, losses, and training.

The classifier consumes a fixed-order concatenation of per-verse inputs
(encoder state, semantic vector, scaled stylometrics, form one-hot, meter
one-hot) and produces a distribution over poets through a single hidden
layer with ReLU and dropout. Training runs AdamW with linear warmup, cosine
decay, global-norm gradient clipping, class-weighted cross-entropy, and
early stopping on validation verse accuracy.

:func:`build_dataset` (and :meth:`FeatureSpace.fit`, for the train split)
normalizes each verse once into one ``TokenTable``, builds the encoder ids,
stylometrics and semantic vectors of every verse from it in array passes
(bit for bit the per-verse formulas), then fills the non-text inputs of the
whole dataset into one preallocated float32 array, one block at a time. The
dataset keeps the encoder ids as that padded matrix; each batch is its rows
cut to the longest of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .aggregate import poem_index
from .corpus import Corpus, NumericalError, PoemRecord, StaleArtifactError, Settings, csv_text, reading
from .embeddings import EmbeddingMatrix, semantic_vectors
from .encoder import (
    EncoderConfig,
    Params,
    _linear_backward,
    _linear_forward,
    encoder_backward,
    encoder_forward,
    encoder_shapes,
    init_params,
    softmax,
)
from .features import (
    FEATURE_NAMES,
    MeterClassMap,
    Scaler,
    build_meter_classes,
    checked_ids,
    one_hot_form,
    one_hot_meter,
    stylometric_rows,
)
from .normalize import PAD_ID, TokenTable, Vocabulary, encoder_ids, normalize_verse
from .split import LeakageError

CHECKPOINT_FORMAT_VERSION = 2
LOG_EPS = 1e-12
# Rows per predict_proba batch; a batch's distributions depend on which rows share it.
PREDICT_BATCH = 64
# Every run warms up over 10% of the planned steps and clips gradients to a global
# norm of 1.0. No flag sets either; TrainConfig.FIXED records both in every artifact.
WARMUP_FRAC = 0.1
CLIP_NORM = 1.0


# ---------------------------------------------------------------------------
# Losses and class weights
# ---------------------------------------------------------------------------


def class_weights(labels, n_classes: int) -> np.ndarray:
    """Inverse-frequency weights w_c = N / (C * count_c).

    Raises:
        ValueError: if any class has zero training examples.
    """
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=n_classes)
    if (counts == 0).any():
        missing = np.flatnonzero(counts == 0).tolist()
        raise ValueError(f"classes with no training examples: {missing}")
    return len(labels) / (n_classes * counts.astype(np.float64))


def weighted_cross_entropy(y_hat: np.ndarray, y: int, w: np.ndarray) -> float:
    """Loss of a single predicted distribution, ``-w[y] * log(y_hat[y])`` with
    the probability clamped below at 1e-12: :func:`batch_weighted_ce` on one row."""
    return batch_weighted_ce(np.asarray(y_hat)[None], np.array([y]), np.asarray(w))[0]


def batch_weighted_ce(probs: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Mean weighted CE over a batch plus the matching logit gradient.

    Returns:
        (loss, d_logits, n_clamped): d_logits is the gradient of the mean
        loss with respect to the pre-softmax logits.
    """
    b = probs.shape[0]
    picked = probs[np.arange(b), y]
    n_clamped = int((picked < LOG_EPS).sum())
    wy = w[y]
    loss = float(-(wy * np.log(np.maximum(picked, LOG_EPS))).mean())
    d_logits = probs.copy()
    d_logits[np.arange(b), y] -= 1.0
    d_logits *= (wy / b)[:, None]
    return loss, d_logits.astype(probs.dtype), n_clamped


# ---------------------------------------------------------------------------
# Classification head
# ---------------------------------------------------------------------------


def head_shapes(d_in: int, hidden: int, n_classes: int) -> dict[str, tuple[int, ...]]:
    """The shape of every head parameter, in the order they are drawn."""
    return {"W1": (d_in, hidden), "b1": (hidden,), "W2": (hidden, n_classes), "b2": (n_classes,)}


def init_head_params(d_in: int, hidden: int, n_classes: int, seed: int, dtype=np.float32) -> Params:
    return init_params(head_shapes(d_in, hidden, n_classes), np.random.default_rng(seed), dtype)


def head_forward(
    h: np.ndarray,
    params: Params,
    dropout: float = 0.0,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """softmax(W2 . dropout(relu(W1 h + b1)) + b2) for a batch of rows."""
    a, c1 = _linear_forward(h, params["W1"], params["b1"])
    np.maximum(a, 0.0, out=a)
    keep = None
    if train and dropout > 0.0:
        keep = (rng.random(a.shape) >= dropout).astype(a.dtype)
        keep /= 1.0 - dropout
        a *= keep
    logits, c2 = _linear_forward(a, params["W2"], params["b2"])
    return softmax(logits, out=logits), (c1, keep, c2)


def head_backward(d_logits: np.ndarray, cache, grads: Params | None = None) -> tuple[Params, np.ndarray]:
    """The head's parameter gradients and ``dh``; the former go into
    ``grads``, whose every element is overwritten, or new arrays when it is None."""
    c1, keep, c2 = cache
    if grads is None:
        (_, w1), (_, w2) = c1, c2
        grads = {"W1": np.empty_like(w1), "b1": np.empty_like(w1[0]),
                 "W2": np.empty_like(w2), "b2": np.empty_like(w2[0])}
    da = _linear_backward(d_logits, c2, grads["W2"], grads["b2"])
    if keep is not None:
        da *= keep
    da *= c2[0] > 0  # relu(z) > 0 exactly where z > 0, and a dropped unit's da is already 0
    return grads, _linear_backward(da, c1, grads["W1"], grads["b1"])


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019), updating
    one flat buffer in place: the decay shrinks the parameters directly and
    never enters the loss or the gradients."""

    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, weight_decay: float = 0.0):
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.B1**self.t
        bc2 = 1.0 - self.B2**self.t
        m, v = self.m, self.v
        m *= self.B1
        m += (1.0 - self.B1) * grads
        v *= self.B2
        v += (1.0 - self.B2) * grads * grads
        if self.weight_decay:
            params -= (lr * self.weight_decay) * params
        params -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)


def lr_at_step(step: int, total_steps: int, lr_max: float) -> float:
    """Linear warmup over the first ``WARMUP_FRAC`` of steps, then cosine decay.

    ``step`` is 1-based; the schedule horizon is the planned total step count
    (early stopping may end training before the horizon).
    """
    warmup = max(1, int(round(WARMUP_FRAC * total_steps)))
    if step <= warmup:
        return lr_max * step / warmup
    progress = (step - warmup) / max(1, total_steps - warmup)
    return lr_max * 0.5 * (1.0 + math.cos(math.pi * min(progress, 1.0)))


def clip_gradients(grads: np.ndarray) -> float:
    """Scale the flat gradient in place to an L2 norm of at most ``CLIP_NORM``;
    returns the pre-clip norm, which the caller must check is finite."""
    total = math.sqrt(float(np.square(grads, dtype=np.float64).sum()))
    if total > CLIP_NORM:
        grads *= CLIP_NORM / total
    return total


def param_manifest(enc: dict, head: dict) -> list[list]:
    """Layout of the one flat float32 parameter buffer as ``[name, shape]``
    pairs: sorted encoder names, then sorted head names. ``enc`` and ``head``
    map names to parameters or to their shapes."""
    groups = (("enc", enc), ("head", head))
    return [[f"{g}.{k}", list(getattr(d[k], "shape", d[k]))] for g, d in groups for k in sorted(d)]


def flatten_params(enc_params: Params, head_params: Params) -> np.ndarray:
    """Concatenate two dicts (parameters or their gradients) in buffer order."""
    return np.concatenate([d[k].ravel() for d in (enc_params, head_params) for k in sorted(d)])


def param_views(params: np.ndarray, manifest: list[list]) -> tuple[Params, Params]:
    """The encoder and head dicts of named views into the flat buffer."""
    groups: dict[str, Params] = {"enc": {}, "head": {}}
    ends = np.cumsum([math.prod(shape) for _, shape in manifest])
    for (name, shape), chunk in zip(manifest, np.split(params, ends[:-1])):
        group, key = name.split(".", 1)
        groups[group][key] = chunk.reshape(shape)
    return groups["enc"], groups["head"]


# ---------------------------------------------------------------------------
# Feature space and datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusionConfig(Settings):
    """Which inputs participate in the fused vector (fixed concatenation
    order: text, semantic, stylometric, form, meter)."""

    use_text: bool = True
    use_semantic: bool = True
    use_stylometric: bool = True
    use_form: bool = True
    use_meter: bool = True


@dataclass
class FeatureSpace:
    """Everything needed to turn a (record, verse) pair into model inputs.

    The scaler and meter map must be fitted on training data only; use
    :meth:`fit` to build a space from the training split.
    """

    vocab: Vocabulary
    embeddings: EmbeddingMatrix
    scaler: Scaler
    meter_map: MeterClassMap
    form_index: dict[str, int]
    poet_index: dict[str, int]
    fusion: FusionConfig = field(default_factory=FusionConfig)
    max_len: int = 64

    @classmethod
    def fit(
        cls,
        train_records: list[PoemRecord],
        vocab: Vocabulary,
        embeddings: EmbeddingMatrix,
        form_index: dict[str, int],
        poet_index: dict[str, int],
        fusion: FusionConfig = FusionConfig(),
        max_len: int = 64,
    ) -> tuple["FeatureSpace", "FeatureDataset"]:
        """Fit the scaler (on every train verse, empty ones included) and the
        meter map; returns the space and ``build_dataset(train_records, space)``,
        both from one normalization pass."""
        ids, stylo, verses = _scan(train_records, vocab, max_len)
        # Before the meter map and the scaler, which need a train verse.
        check_usable(len(stylo), len(verses), "the train split")
        meter_map = build_meter_classes(Corpus(list(train_records)))
        space = cls(vocab, embeddings, Scaler.fit(stylo), meter_map, form_index, poet_index,
                    fusion, max_len)
        return space, _dataset(ids, stylo, verses, space)

    @property
    def n_classes(self) -> int:
        return len(self.poet_index)

    @property
    def poet_names(self) -> list[str]:
        """Poet names in label-id order."""
        return sorted(self.poet_index, key=self.poet_index.__getitem__)

    @property
    def aux_dim(self) -> int:
        d = 0
        if self.fusion.use_semantic:
            d += self.embeddings.dim
        if self.fusion.use_stylometric:
            d += len(FEATURE_NAMES)
        if self.fusion.use_form:
            d += len(self.form_index) + 1
        if self.fusion.use_meter:
            d += self.meter_map.n_classes
        return d

    def concat_dim(self, d_model: int) -> int:
        return (d_model if self.fusion.use_text else 0) + self.aux_dim

    def to_dict(self) -> dict:
        """JSON-safe view, minus the vocab and embeddings (stored by hash)."""
        return {
            "scaler": self.scaler.to_dict(),
            "meter_map": self.meter_map.to_dict(),
            "form_index": self.form_index,
            "poet_index": self.poet_index,
            "fusion": self.fusion.to_dict(),
        }


@dataclass
class FeatureDataset:
    """Featurized verses ready for batching; ``ids`` is their padded encoder
    id matrix (``normalize.encoder_ids``), as wide as its longest row."""

    ids: np.ndarray
    aux: np.ndarray
    labels: np.ndarray
    poem_ids: list[str]
    verse_indices: list[int]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows: slice) -> "FeatureDataset":
        return FeatureDataset(self.ids[rows], self.aux[rows], self.labels[rows],
                              self.poem_ids[rows], self.verse_indices[rows])


def concat_datasets(first: FeatureDataset, then: FeatureDataset) -> FeatureDataset:
    """The rows of ``first``, then those of ``then``; the id matrix is padded
    to the wider of the two, which no batch sees (``_batch_ids``)."""
    ids = np.full((len(first) + len(then), max(first.ids.shape[1], then.ids.shape[1])), PAD_ID,
                  dtype=first.ids.dtype)
    ids[: len(first), : first.ids.shape[1]] = first.ids
    ids[len(first) :, : then.ids.shape[1]] = then.ids
    return FeatureDataset(ids, np.concatenate([first.aux, then.aux]),
                          np.concatenate([first.labels, then.labels]),
                          first.poem_ids + then.poem_ids, first.verse_indices + then.verse_indices)


def check_usable(n_verses: int, n_usable: int, source: str) -> None:
    """Warn of the verses skipped for having no tokens after normalization;
    none usable is an error that names ``source``."""
    if n_usable < n_verses:
        warnings.warn(f"skipped {n_verses - n_usable} verses with no tokens after normalization")
    if not n_usable:
        raise ValueError(f"no usable verses in {source}")


def _scan(records: list[PoemRecord], vocab: Vocabulary, max_len: int):
    """Normalize each verse once into one :class:`TokenTable`.

    Returns the encoder id matrix of the verses with tokens, the
    ``(n_verses, 7)`` stylometric rows of every verse, empty ones included,
    and a ``(record, verse index, stylometric row)`` triple per id row.
    """
    table = TokenTable.of(normalize_verse(v, vocab.config) for r in records for v in r.verses)
    kept = np.flatnonzero(table.n_tokens)
    everywhere = [(r, vi) for r in records for vi in range(r.n_verses)]
    verses = [(*everywhere[row], row) for row in kept.tolist()]
    return encoder_ids(table, vocab, max_len)[kept], stylometric_rows(table), verses


def _dataset(
    ids: np.ndarray,
    stylo: np.ndarray,
    verses: list[tuple[PoemRecord, int, int]],
    space: FeatureSpace,
) -> FeatureDataset:
    """The scanned verses that have tokens, with their aux inputs."""
    fusion = space.fusion
    records = [r for r, _, _ in verses]
    aux = np.empty((len(records), space.aux_dim), dtype=np.float32)
    col = 0
    if fusion.use_semantic:
        col = space.embeddings.dim
        semantic_vectors(ids, space.embeddings, out=aux[:, :col])
    if fusion.use_stylometric:
        rows = [i for _, _, i in verses]
        aux[:, col : col + len(FEATURE_NAMES)] = space.scaler.transform(stylo[rows])
        col += len(FEATURE_NAMES)
    if fusion.use_form:
        block = one_hot_form([r.form for r in records], space.form_index)
        aux[:, col : col + block.shape[1]] = block
        col += block.shape[1]
    if fusion.use_meter:
        aux[:, col:] = one_hot_meter([r.meter for r in records], space.meter_map)
    labels = np.asarray([space.poet_index.get(r.poet, -1) for r in records], dtype=np.int64)
    return FeatureDataset(ids, aux, labels, [r.poem_id for r in records], [vi for _, vi, _ in verses])


def build_dataset(records: list[PoemRecord], space: FeatureSpace, source: str | None = "dataset"
                  ) -> FeatureDataset:
    """Featurize every verse of every record.

    Verses that normalize to nothing are skipped with a warning, and none
    left is an error that names ``source`` (a file, stdin or a split); with
    ``source=None`` the dataset may be empty, and the caller, which reads a
    larger input a part at a time, runs :func:`check_usable` on its totals.
    Poems whose poet is missing from the index get label -1 (prediction-only
    data).
    """
    ids, stylo, verses = _scan(records, space.vocab, space.max_len)
    if source is not None:
        check_usable(len(stylo), len(verses), source)
    return _dataset(ids, stylo, verses, space)


def _batch_ids(ids: np.ndarray) -> np.ndarray:
    """Rows of a padded id matrix cut to the longest of them."""
    return ids[:, : np.count_nonzero(ids != PAD_ID, axis=1).max()]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig(Settings):
    """Optimization hyperparameters.

    Type defaults mirror the documented large-scale recipe; :meth:`desk`
    returns values sized for quick local runs on small corpora (the learning
    rate there is the one meaningful difference, since 2e-5 barely moves a
    freshly initialized model within 16 epochs).
    """

    FIXED = {"warmup_frac": WARMUP_FRAC, "clip_norm": CLIP_NORM}

    lr: float = 2e-5
    weight_decay: float = 0.01
    batch_size: int = 32
    max_epochs: int = 16
    patience: int = 3
    head_hidden: int = 512
    head_dropout: float = 0.3
    class_weighting: str = "inverse_frequency"  # or "none"
    seed: int = 0

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        return replace(cls(lr=2e-3), **overrides)


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    valid_accuracy: float
    lr: float


def training_log_csv(rows: list[EpochLog]) -> str:
    return csv_text([("epoch", "train_loss", "valid_accuracy", "lr")] + [
        (r.epoch, f"{r.train_loss:.6f}", f"{r.valid_accuracy:.6f}", f"{r.lr:.8g}") for r in rows])


@dataclass
class ModelBundle:
    """A trained model plus the feature space it expects (``*_params`` view ``params``)."""

    space: FeatureSpace
    enc_cfg: EncoderConfig
    params: np.ndarray
    manifest: list[list]
    train_cfg: TrainConfig
    log: list[EpochLog] = field(default_factory=list)
    log_summary: dict = field(default_factory=dict)
    enc_params: Params = field(init=False, repr=False)
    head_params: Params = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.enc_params, self.head_params = param_views(self.params, self.manifest)


def model_shapes(space: FeatureSpace, enc_cfg: EncoderConfig, cfg: TrainConfig) -> tuple[dict, dict]:
    """The encoder and head parameter shapes these configs imply. With text
    ablated the encoder is never run, so it gets no parameters."""
    return (encoder_shapes(enc_cfg) if space.fusion.use_text else {},
            head_shapes(space.concat_dim(enc_cfg.d_model), cfg.head_hidden, space.n_classes))


def _forward_probs(
    ids_batch: np.ndarray,
    aux_batch: np.ndarray,
    bundle: ModelBundle,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Shared forward path; returns probs and caches for backward."""
    if bundle.space.fusion.use_text:
        states, ecache = encoder_forward(ids_batch, bundle.enc_params, bundle.enc_cfg, train)
        h = np.concatenate([states[:, 0], aux_batch], axis=1)
    else:
        ecache = None
        h = aux_batch
    probs, hcache = head_forward(h, bundle.head_params, bundle.train_cfg.head_dropout, train, rng)
    return probs, (ecache, hcache)


def predict_proba(ds: FeatureDataset, bundle: ModelBundle) -> np.ndarray:
    """Class distributions for every verse in the dataset, in order, a batch
    of ``PREDICT_BATCH`` rows at a time from its first row."""
    out = []
    for start in range(0, len(ds), PREDICT_BATCH):
        ids = _batch_ids(ds.ids[start : start + PREDICT_BATCH])
        aux = ds.aux[start : start + PREDICT_BATCH]
        out.append(_forward_probs(ids, aux, bundle, train=False)[0])
    return np.concatenate(out, axis=0)


def poem_probability_groups(ds: FeatureDataset, probs: np.ndarray):
    """Group verse distributions by poem, preserving first-seen poem order.

    Returns (poem_ids, list of (n_verses_i, C) arrays, labels per poem).
    """
    poem_ids, poem_of = poem_index(ds.poem_ids)
    order = np.argsort(poem_of, kind="stable")
    matrices = np.split(probs[order], np.cumsum(np.bincount(poem_of))[:-1])
    return poem_ids, matrices, ds.labels[np.unique(poem_of, return_index=True)[1]]


def _gradient(bundle: ModelBundle, ds: FeatureDataset, sel: np.ndarray, w: np.ndarray,
              rng: np.random.Generator, where: str, grads: tuple[Params, Params]) -> tuple[float, int]:
    """Loss and clamp count of the training batch ``ds[sel]``, whose gradient
    overwrites every element of ``grads``, the encoder and head views of the
    flat gradient buffer.

    The caches and probabilities die at return, before the optimizer runs.
    A non-finite loss raises NumericalError naming ``where``.
    """
    ids, aux = _batch_ids(ds.ids[sel]), ds.aux[sel]
    probs, (ecache, hcache) = _forward_probs(ids, aux, bundle, train=True, rng=rng)
    loss, d_logits, n_clamped = batch_weighted_ce(probs, ds.labels[sel], w)
    if not math.isfinite(loss):
        raise NumericalError(f"non-finite loss at {where}")
    egrads, hgrads = grads
    _, dh = head_backward(d_logits, hcache, hgrads)
    if ecache is not None:
        d_states = dh[:, None, : bundle.enc_cfg.d_model]  # the [CLS] slice of the head input
        encoder_backward(d_states, ecache, bundle.enc_params, bundle.enc_cfg, egrads)
    return loss, n_clamped


def fit(
    train_ds: FeatureDataset,
    valid_ds: FeatureDataset,
    space: FeatureSpace,
    enc_cfg: EncoderConfig,
    cfg: TrainConfig,
) -> ModelBundle:
    """Train encoder and head jointly; returns the best-validation model.

    Raises:
        LeakageError: if the train and validation sets share poems.
        NumericalError: on a non-finite loss or gradient norm.
    """
    shared = set(train_ds.poem_ids) & set(valid_ds.poem_ids)
    if shared:
        raise LeakageError(f"poems in both train and validation: {sorted(shared)[:5]}")

    n = len(train_ds)
    n_classes = space.n_classes
    master = np.random.default_rng(cfg.seed)
    shuffle_rng, dropout_rng = master.spawn(2)

    enc_shapes, hd_shapes = model_shapes(space, enc_cfg, cfg)
    # The initial dicts die once copied into the flat buffer; encoder first,
    # as the layout is.
    params = flatten_params(init_params(enc_shapes, np.random.default_rng(enc_cfg.seed)),
                            init_params(hd_shapes, np.random.default_rng(cfg.seed + 1)))
    bundle = ModelBundle(space, enc_cfg, params, param_manifest(enc_shapes, hd_shapes), cfg)

    if cfg.class_weighting == "inverse_frequency":
        w = class_weights(train_ds.labels, n_classes)
    elif cfg.class_weighting == "none":
        w = np.ones(n_classes, dtype=np.float64)
    else:
        raise ValueError(f"unknown class_weighting {cfg.class_weighting!r}")

    opt = AdamW(params, weight_decay=cfg.weight_decay)
    grads = np.empty_like(params)  # each step's gradient, written in place
    grad_views = param_views(grads, bundle.manifest)
    steps_per_epoch = max(1, math.ceil(n / cfg.batch_size))
    total_steps = cfg.max_epochs * steps_per_epoch

    log: list[EpochLog] = []
    best_acc = -1.0
    best_epoch = 0
    best = params.copy()
    since_best = 0
    step = 0
    lr = 0.0
    clamp_events = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            step += 1
            lr = lr_at_step(step, total_steps, cfg.lr)
            where = f"epoch {epoch}, step {step}, lr {lr:.3g}"
            loss, n_clamped = _gradient(bundle, train_ds, sel, w, dropout_rng, where, grad_views)
            clamp_events += n_clamped
            if not math.isfinite(clip_gradients(grads)):
                raise NumericalError(f"non-finite gradient norm at {where}")
            opt.step(params, grads, lr)
            loss_sum += loss * len(sel)

        valid_probs = predict_proba(valid_ds, bundle)
        valid_acc = float((valid_probs.argmax(axis=1) == valid_ds.labels).mean())
        log.append(EpochLog(epoch, loss_sum / n, valid_acc, lr))

        if valid_acc > best_acc:
            best_acc = valid_acc
            best_epoch = epoch
            best = params.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    params[...] = best
    if clamp_events:
        warnings.warn(f"cross-entropy clamped {clamp_events} probabilities at {LOG_EPS}")

    bundle.log = log
    bundle.log_summary = {
        "epochs_run": len(log),
        "best_epoch": best_epoch,
        "best_valid_accuracy": best_acc,
        "final_train_loss": log[-1].train_loss if log else float("nan"),
    }
    return bundle


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------
#
# Layout: 4-byte magic, u32 format version, u32 metadata length, metadata
# JSON, then the flat parameter buffer as little-endian float32 in the layout
# the configs and the vocabulary imply (param_manifest). Metadata key
# ``sha256`` is the SHA-256 of the metadata JSON without that key, then the
# parameter bytes. Writing it by hand keeps the bytes deterministic (archive
# formats embed timestamps).

_CKPT_MAGIC = b"VCKP"


def _checksum(meta: dict, params) -> str:
    digest = hashlib.sha256(json.dumps(meta, sort_keys=True).encode("utf-8"))
    digest.update(params)  # fed in two parts: joining them would copy the body
    return digest.hexdigest()


def _checkpoint_bytes(bundle: ModelBundle) -> bytes:
    meta = {
        "encoder_config": bundle.enc_cfg.to_dict(),
        "train_config": bundle.train_cfg.to_dict(),
        "space": bundle.space.to_dict(),
        "vocab_hash": bundle.space.vocab.content_hash(),
        "embeddings_hash": bundle.space.embeddings.content_hash(),
        "log_summary": bundle.log_summary,
    }
    params = bundle.params.astype("<f4").tobytes()
    meta["sha256"] = _checksum(meta, params)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = _CKPT_MAGIC + struct.pack("<II", CHECKPOINT_FORMAT_VERSION, len(blob))
    return header + blob + params


def save_checkpoint(bundle: ModelBundle, path: str | Path) -> None:
    """Serialize the bundle; vocab and embeddings are recorded by hash only."""
    Path(path).write_bytes(_checkpoint_bytes(bundle))


def load_checkpoint(
    path: str | Path, vocab: Vocabulary, embeddings: EmbeddingMatrix
) -> ModelBundle:
    """Load a checkpoint and verify it matches the supplied artifacts.

    Raises:
        StaleArtifactError: naming the file, if it is missing or not a
            well-formed checkpoint of format 2 (wrong size, unreadable or
            incomplete metadata, a missing or failed checksum, poet, form or
            meter ids that repeat or fall outside their range, a feature
            scaler that is not seven finite values with positive spreads, a
            parameter layout other than the one its configs and the
            vocabulary imply, a setting that no config holds), holds a fixed
            setting at another value, or the vocab or embedding hashes
            disagree with the ones recorded at training time.
    """
    with reading(path, "checkpoint"):
        blob = Path(path).read_bytes()
        if len(blob) < 12 or blob[:4] != _CKPT_MAGIC:
            raise ValueError("not a checkpoint file (bad magic or truncated header)")
        version, meta_len = struct.unpack_from("<II", blob, 4)
        if version == 1:
            raise ValueError("checkpoint format 1 is no longer read; retrain it to write format 2")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version!r}")
        body = 12 + meta_len
        meta = json.loads(blob[12:body].decode("utf-8"))
        if meta.pop("sha256") != _checksum(meta, memoryview(blob)[body:]):
            raise ValueError("checksum mismatch: the file changed after it was written")
        if meta["vocab_hash"] != vocab.content_hash():
            raise ValueError("the vocabulary (vocab.tsv) is not the one this checkpoint was "
                             "trained with (stale artifact)")
        if meta["embeddings_hash"] != embeddings.content_hash():
            raise ValueError("the embeddings (embeddings.bin) are not the ones this checkpoint "
                             "was trained with (stale artifact)")
        return _bundle_from_meta(meta, blob, body, vocab, embeddings)


def _bundle_from_meta(
    meta: dict, blob: bytes, body: int, vocab: Vocabulary, embeddings: EmbeddingMatrix
) -> ModelBundle:
    """The bundle the metadata describes, with the parameters from
    ``blob[body:]``. The configs and the vocabulary imply the layout, from
    shapes alone (nothing is initialised), which must fill the file."""
    sp, enc_cfg = meta["space"], EncoderConfig.from_dict(meta["encoder_config"])
    if enc_cfg.vocab_size != len(vocab):
        raise ValueError(f"encoder_config vocab_size {enc_cfg.vocab_size} disagrees with the "
                         f"{len(vocab)} ids of the vocabulary")
    scaler = Scaler.from_dict(sp["scaler"])
    if len(scaler.mean_) != len(FEATURE_NAMES):
        raise ValueError(f"scaler 'mean' holds {len(scaler.mean_)} values, not {len(FEATURE_NAMES)}")
    space = FeatureSpace(
        vocab=vocab,
        embeddings=embeddings,
        scaler=scaler,
        meter_map=MeterClassMap.from_dict(sp["meter_map"]),
        form_index=checked_ids(sp, "form_index", len(sp["form_index"])),
        poet_index=checked_ids(sp, "poet_index", len(sp["poet_index"])),
        fusion=FusionConfig.from_dict(sp["fusion"]),
        max_len=enc_cfg.max_len,
    )
    train_cfg = TrainConfig.from_dict(meta["train_config"])
    manifest = param_manifest(*model_shapes(space, enc_cfg, train_cfg))
    n_values = sum(math.prod(shape) for _, shape in manifest)
    if len(blob) != body + 4 * n_values:
        raise ValueError(f"checkpoint is {len(blob)} bytes, but its header and configs "
                         f"describe {body + 4 * n_values}")
    return ModelBundle(
        space=space,
        enc_cfg=enc_cfg,
        params=np.frombuffer(blob, dtype="<f4", offset=body).astype(np.float32),
        manifest=manifest,
        train_cfg=train_cfg,
        log_summary=meta["log_summary"],
    )

