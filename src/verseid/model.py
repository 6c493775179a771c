"""Fused verse classifier: feature assembly, head, losses, and training.

The classifier consumes a fixed-order concatenation of per-verse inputs
(encoder state, semantic vector, scaled stylometrics, form one-hot, meter
one-hot) and produces a distribution over poets through a single hidden
layer with ReLU and dropout. Training runs AdamW with linear warmup, cosine
decay, global-norm gradient clipping, class-weighted cross-entropy, and
early stopping on validation verse accuracy.

:func:`build_dataset` (and :meth:`FeatureSpace.fit`, for the train split)
normalizes each verse once, then fills the non-text inputs of the whole
dataset into one preallocated float32 array, one block at a time.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import Corpus, PoemRecord, StaleArtifactError
from .embeddings import EmbeddingMatrix, verse_semantic_vector
from .encoder import (
    EncoderConfig,
    Params,
    encoder_backward,
    encoder_forward,
    init_encoder_params,
)
from .features import (
    FEATURE_NAMES,
    MeterClassMap,
    Scaler,
    build_meter_classes,
    one_hot_form,
    one_hot_meter,
    stylometric_features,
)
from .normalize import Vocabulary, normalize_verse, tokenize_verse
from .split import LeakageError

CHECKPOINT_FORMAT_VERSION = 1
LOG_EPS = 1e-12


class NumericalError(RuntimeError):
    """Raised when training encounters non-finite losses or gradients."""


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
    """Loss of a single predicted distribution: ``-w[y] * log(y_hat[y])``.

    The probability is clamped below at 1e-12 before the log.
    """
    p = max(float(y_hat[y]), LOG_EPS)
    return -float(w[y]) * math.log(p)


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


def l2_penalty(params: np.ndarray, lam: float) -> float:
    return lam * float(np.square(params, dtype=np.float64).sum())


# ---------------------------------------------------------------------------
# Classification head
# ---------------------------------------------------------------------------


def init_head_params(d_in: int, hidden: int, n_classes: int, seed: int, dtype=np.float32) -> Params:
    rng = np.random.default_rng(seed)
    return {
        "W1": (rng.standard_normal((d_in, hidden)) / np.sqrt(d_in)).astype(dtype),
        "b1": np.zeros(hidden, dtype=dtype),
        "W2": (rng.standard_normal((hidden, n_classes)) / np.sqrt(hidden)).astype(dtype),
        "b2": np.zeros(n_classes, dtype=dtype),
    }


def head_forward(
    h: np.ndarray,
    params: Params,
    dropout: float = 0.0,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """softmax(W2 . dropout(relu(W1 h + b1)) + b2) for a batch of rows."""
    z1 = h @ params["W1"] + params["b1"]
    a = np.maximum(z1, 0.0)
    if train and dropout > 0.0:
        keep = (rng.random(a.shape) >= dropout).astype(a.dtype) / (1.0 - dropout)
        a_drop = a * keep
    else:
        keep = None
        a_drop = a
    logits = a_drop @ params["W2"] + params["b2"]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    return probs, (h, z1, a_drop, keep, params)


def head_backward(d_logits: np.ndarray, cache) -> tuple[Params, np.ndarray]:
    h, z1, a_drop, keep, params = cache
    grads: Params = {
        "W2": a_drop.T @ d_logits,
        "b2": d_logits.sum(axis=0),
    }
    da = d_logits @ params["W2"].T
    if keep is not None:
        da = da * keep
    dz1 = da * (z1 > 0)
    grads["W1"] = h.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    dh = dz1 @ params["W1"].T
    return grads, dh


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay, updating one flat buffer in place.

    With ``decoupled=False`` no decay is applied here; the caller is expected
    to fold the L2 term into the loss and gradients instead.
    """

    def __init__(self, params: np.ndarray, weight_decay: float = 0.0, decoupled: bool = True,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        m, v = self.m, self.v
        m *= self.b1
        m += (1.0 - self.b1) * grads
        v *= self.b2
        v += (1.0 - self.b2) * grads * grads
        if self.decoupled and self.weight_decay:
            params -= (lr * self.weight_decay) * params
        params -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def lr_at_step(step: int, total_steps: int, warmup_frac: float, lr_max: float) -> float:
    """Linear warmup over the first ``warmup_frac`` of steps, then cosine decay.

    ``step`` is 1-based; the schedule horizon is the planned total step count
    (early stopping may end training before the horizon).
    """
    warmup = max(1, int(round(warmup_frac * total_steps)))
    if step <= warmup:
        return lr_max * step / warmup
    progress = (step - warmup) / max(1, total_steps - warmup)
    return lr_max * 0.5 * (1.0 + math.cos(math.pi * min(progress, 1.0)))


def clip_gradients(grads: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient in place to an L2 norm of at most max_norm;
    returns the pre-clip norm, which the caller must check is finite."""
    total = math.sqrt(float(np.square(grads, dtype=np.float64).sum()))
    if max_norm > 0.0 and total > max_norm:
        grads *= max_norm / total
    return total


def param_manifest(enc_params: Params, head_params: Params) -> list[list]:
    """Layout of the one flat float32 parameter buffer as ``[name, shape]``
    pairs: sorted encoder names, then sorted head names."""
    groups = (("enc", enc_params), ("head", head_params))
    return [[f"{g}.{k}", list(d[k].shape)] for g, d in groups for k in sorted(d)]


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
class FusionConfig:
    """Which inputs participate in the fused vector (fixed concatenation
    order: text, semantic, stylometric, form, meter)."""

    use_text: bool = True
    use_semantic: bool = True
    use_stylometric: bool = True
    use_form: bool = True
    use_meter: bool = True

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FusionConfig":
        return cls(**d)


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
        token_ids, stylo, verses = _scan(train_records, vocab, max_len)
        meter_map = build_meter_classes(Corpus(list(train_records)))
        space = cls(vocab, embeddings, Scaler().fit(stylo), meter_map, form_index, poet_index,
                    fusion, max_len)
        return space, _dataset(token_ids, stylo, verses, space)

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
            "max_len": self.max_len,
        }


@dataclass
class FeatureDataset:
    """Featurized verses ready for batching."""

    token_ids: list[tuple[int, ...]]
    aux: np.ndarray
    labels: np.ndarray
    poem_ids: list[str]
    verse_indices: list[int]
    n_classes: int

    def __len__(self) -> int:
        return len(self.token_ids)


def _scan(records: list[PoemRecord], vocab: Vocabulary, max_len: int):
    """Normalize each verse once (its tokens live only inside the loop).

    Returns the token ids of each verse with tokens, the ``(n_verses, 7)``
    stylometric rows of every verse, empty ones included, and a
    ``(record, verse index, stylometric row)`` triple per token id tuple.
    """
    stylo = np.empty((sum(r.n_verses for r in records), len(FEATURE_NAMES)))
    token_ids: list[tuple[int, ...]] = []
    verses: list[tuple[PoemRecord, int, int]] = []
    row = 0
    for r in records:
        for vi, verse in enumerate(r.verses):
            t1, t2 = normalize_verse(verse, vocab.config)
            stylo[row] = stylometric_features(t1, t2)
            if t1 or t2:
                token_ids.append(tokenize_verse(t1 + t2, vocab, max_len))
                verses.append((r, vi, row))
            row += 1
    return token_ids, stylo, verses


def _dataset(
    token_ids: list[tuple[int, ...]],
    stylo: np.ndarray,
    verses: list[tuple[PoemRecord, int, int]],
    space: FeatureSpace,
) -> FeatureDataset:
    """The scanned verses that have tokens, with their aux inputs."""
    if len(verses) < len(stylo):
        warnings.warn(f"skipped {len(stylo) - len(verses)} verses with no tokens after normalization")
    if not verses:
        raise ValueError("no usable verses in dataset")
    fusion = space.fusion
    records = [r for r, _, _ in verses]
    aux = np.empty((len(records), space.aux_dim), dtype=np.float32)
    col = 0
    if fusion.use_semantic:
        col = space.embeddings.dim
        for row, ids in zip(aux, token_ids):
            row[:col] = verse_semantic_vector(ids, space.embeddings)
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
    return FeatureDataset(
        token_ids, aux, labels, [r.poem_id for r in records], [vi for _, vi, _ in verses],
        space.n_classes,
    )


def build_dataset(records: list[PoemRecord], space: FeatureSpace) -> FeatureDataset:
    """Featurize every verse of every record.

    Verses that normalize to nothing are skipped with a warning; poems whose
    poet is missing from the index get label -1 (prediction-only data).
    """
    return _dataset(*_scan(records, space.vocab, space.max_len), space)


def _pad_batch(token_ids: list[tuple[int, ...]], dtype=np.int64) -> np.ndarray:
    width = max(len(t) for t in token_ids)
    out = np.zeros((len(token_ids), width), dtype=dtype)
    for i, ids in enumerate(token_ids):
        out[i, : len(ids)] = ids
    return out


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.

    Type defaults mirror the documented large-scale recipe; :meth:`desk`
    returns values sized for quick local runs on small corpora (the learning
    rate there is the one meaningful difference, since 2e-5 barely moves a
    freshly initialized model within 16 epochs).
    """

    lr: float = 2e-5
    weight_decay: float = 0.01
    coupled_l2: bool = False
    batch_size: int = 32
    max_epochs: int = 16
    patience: int = 3
    warmup_frac: float = 0.1
    clip_norm: float = 1.0
    head_hidden: int = 512
    head_dropout: float = 0.3
    class_weighting: str = "inverse_frequency"  # or "none"
    seed: int = 0

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        base = cls(lr=2e-3)
        return replace(base, **overrides) if overrides else base

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    valid_accuracy: float
    lr: float


def training_log_csv(rows: list[EpochLog]) -> str:
    lines = ["epoch,train_loss,valid_accuracy,lr"]
    lines += [
        f"{r.epoch},{r.train_loss:.6f},{r.valid_accuracy:.6f},{r.lr:.8g}" for r in rows
    ]
    return "\n".join(lines) + "\n"


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


def _forward_probs(
    ids_batch: np.ndarray,
    aux_batch: np.ndarray,
    bundle: ModelBundle,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Shared forward path; returns probs and caches for backward."""
    if bundle.space.fusion.use_text:
        states, ecache = encoder_forward(ids_batch, bundle.enc_params, bundle.enc_cfg, train, rng)
        h = np.concatenate([states[:, 0], aux_batch], axis=1)
    else:
        ecache = None
        h = aux_batch
    probs, hcache = head_forward(h, bundle.head_params, bundle.train_cfg.head_dropout, train, rng)
    return probs, (ecache, hcache)


def predict_proba(
    ds: FeatureDataset,
    bundle: ModelBundle,
    batch_size: int = 64,
) -> np.ndarray:
    """Class distributions for every verse in the dataset, in order."""
    out = []
    for start in range(0, len(ds), batch_size):
        ids = _pad_batch(ds.token_ids[start : start + batch_size])
        aux = ds.aux[start : start + batch_size]
        probs, _ = _forward_probs(ids, aux, bundle, train=False)
        out.append(probs)
    return np.concatenate(out, axis=0)


def poem_probability_groups(ds: FeatureDataset, probs: np.ndarray):
    """Group verse distributions by poem, preserving first-seen poem order.

    Returns (poem_ids, list of (n_verses_i, C) arrays, labels per poem).
    """
    order: list[str] = []
    groups: dict[str, list[int]] = {}
    label_of: dict[str, int] = {}
    for i, pid in enumerate(ds.poem_ids):
        if pid not in groups:
            groups[pid] = []
            order.append(pid)
            label_of[pid] = int(ds.labels[i])
        groups[pid].append(i)
    matrices = [probs[groups[pid]] for pid in order]
    labels = np.asarray([label_of[pid] for pid in order], dtype=np.int64)
    return order, matrices, labels


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
    n_classes = train_ds.n_classes
    master = np.random.default_rng(cfg.seed)
    shuffle_rng, dropout_rng = master.spawn(2)

    # With text ablated the encoder is never run, so it gets no parameters.
    enc_params = init_encoder_params(enc_cfg) if space.fusion.use_text else {}
    head_params = init_head_params(
        space.concat_dim(enc_cfg.d_model), cfg.head_hidden, n_classes, seed=cfg.seed + 1
    )
    params = flatten_params(enc_params, head_params)
    bundle = ModelBundle(space, enc_cfg, params, param_manifest(enc_params, head_params), cfg)

    if cfg.class_weighting == "inverse_frequency":
        w = class_weights(train_ds.labels, n_classes)
    elif cfg.class_weighting == "none":
        w = np.ones(n_classes, dtype=np.float64)
    else:
        raise ValueError(f"unknown class_weighting {cfg.class_weighting!r}")

    opt = AdamW(params, weight_decay=cfg.weight_decay, decoupled=not cfg.coupled_l2)
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
            ids = _pad_batch([train_ds.token_ids[i] for i in sel])
            aux = train_ds.aux[sel]
            y = train_ds.labels[sel]
            step += 1
            lr = lr_at_step(step, total_steps, cfg.warmup_frac, cfg.lr)

            probs, (ecache, hcache) = _forward_probs(ids, aux, bundle, train=True, rng=dropout_rng)
            loss, d_logits, n_clamped = batch_weighted_ce(probs, y, w)
            clamp_events += n_clamped
            if cfg.coupled_l2 and cfg.weight_decay:
                loss += l2_penalty(params, cfg.weight_decay)
            if not math.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, step {step}, lr {lr:.3g}"
                )

            hgrads, dh = head_backward(d_logits, hcache)
            egrads: Params = {}
            if space.fusion.use_text:
                d_states = np.zeros(
                    (ids.shape[0], ids.shape[1], enc_cfg.d_model), dtype=dh.dtype
                )
                d_states[:, 0] = dh[:, : enc_cfg.d_model]
                egrads = encoder_backward(d_states, ecache, bundle.enc_params, enc_cfg)
            grads = flatten_params(egrads, hgrads)
            if cfg.coupled_l2 and cfg.weight_decay:
                grads += 2.0 * cfg.weight_decay * params
            if not math.isfinite(clip_gradients(grads, cfg.clip_norm)):
                raise NumericalError(
                    f"non-finite gradient norm at epoch {epoch}, step {step}, lr {lr:.3g}"
                )
            opt.step(params, grads, lr)
            loss_sum += loss * len(sel)

        valid_probs = predict_proba(valid_ds, bundle, batch_size=max(cfg.batch_size, 64))
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
# JSON (includes the [name, shape] parameter manifest), then the flat
# parameter buffer as little-endian float32, so the file has exactly
# 12 + metadata length + 4 * (manifest sizes) bytes. Writing it by hand keeps
# the bytes deterministic (archive formats embed timestamps).

_CKPT_MAGIC = b"VCKP"


def _checkpoint_bytes(bundle: ModelBundle) -> bytes:
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "encoder_config": bundle.enc_cfg.to_dict(),
        "train_config": bundle.train_cfg.to_dict(),
        "space": bundle.space.to_dict(),
        "norm_config": bundle.space.vocab.config.to_dict(),
        "vocab_hash": bundle.space.vocab.content_hash(),
        "embeddings_hash": bundle.space.embeddings.content_hash(),
        "manifest": bundle.manifest,
        "log_summary": bundle.log_summary,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = _CKPT_MAGIC + struct.pack("<II", CHECKPOINT_FORMAT_VERSION, len(blob))
    return header + blob + bundle.params.astype("<f4").tobytes()


def save_checkpoint(bundle: ModelBundle, path: str | Path) -> None:
    """Serialize the bundle; vocab and embeddings are recorded by hash only."""
    Path(path).write_bytes(_checkpoint_bytes(bundle))


def load_checkpoint(
    path: str | Path, vocab: Vocabulary, embeddings: EmbeddingMatrix
) -> ModelBundle:
    """Load a checkpoint and verify it matches the supplied artifacts.

    Raises:
        StaleArtifactError: if the file is not a well-formed checkpoint of a
            known format version (wrong size, unreadable or incomplete
            metadata), or the vocab or embedding hashes disagree with the
            ones recorded at training time.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != _CKPT_MAGIC:
        raise StaleArtifactError(f"{path}: not a checkpoint file (bad magic or truncated header)")
    version, meta_len = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_FORMAT_VERSION:
        raise StaleArtifactError(f"{path}: unsupported checkpoint format version {version!r}")
    body = 12 + meta_len
    try:
        meta = json.loads(blob[12:body].decode("utf-8"))
        n_values = sum(math.prod(shape) for _, shape in meta["manifest"])
    except (ValueError, KeyError, TypeError) as exc:
        raise StaleArtifactError(f"{path}: unreadable checkpoint metadata ({exc})") from None
    if len(blob) != body + 4 * n_values:
        raise StaleArtifactError(f"{path}: checkpoint is {len(blob)} bytes, but its "
                                 f"header and manifest describe {body + 4 * n_values}")
    params = np.frombuffer(blob, dtype="<f4", offset=body).astype(np.float32)
    try:
        hashes = meta["vocab_hash"], meta["embeddings_hash"]
        bundle = _bundle_from_meta(meta, params, vocab, embeddings)
    except KeyError as exc:
        raise StaleArtifactError(f"{path}: checkpoint metadata lacks key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise StaleArtifactError(f"{path}: malformed checkpoint metadata ({exc})") from None
    if hashes[0] != vocab.content_hash():
        raise StaleArtifactError("vocabulary does not match the checkpoint (stale artifact)")
    if hashes[1] != embeddings.content_hash():
        raise StaleArtifactError("embeddings do not match the checkpoint (stale artifact)")
    return bundle


def _bundle_from_meta(
    meta: dict, params: np.ndarray, vocab: Vocabulary, embeddings: EmbeddingMatrix
) -> ModelBundle:
    sp = meta["space"]
    space = FeatureSpace(
        vocab=vocab,
        embeddings=embeddings,
        scaler=Scaler.from_dict(sp["scaler"]),
        meter_map=MeterClassMap.from_dict(sp["meter_map"]),
        form_index={k: int(v) for k, v in sp["form_index"].items()},
        poet_index={k: int(v) for k, v in sp["poet_index"].items()},
        fusion=FusionConfig.from_dict(sp["fusion"]),
        max_len=int(sp["max_len"]),
    )
    return ModelBundle(
        space=space,
        enc_cfg=EncoderConfig.from_dict(meta["encoder_config"]),
        params=params,
        manifest=meta["manifest"],
        train_cfg=TrainConfig.from_dict(meta["train_config"]),
        log_summary=meta["log_summary"],
    )

