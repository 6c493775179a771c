"""Transformer verse encoder implemented from scratch in numpy.

The encoder has one shape: post-norm layers (Vaswani et al., 2017) over
token embeddings plus the fixed sinusoidal position table, with no dropout.
Forward and backward passes are written by hand so gradients can be
checked analytically against finite differences and training is bit-for-bit
reproducible. Parameters come as a ``dict[str, np.ndarray]`` of any float
dtype (in training, views into the model's one flat float32 buffer); backward
returns a gradient dict with the same keys.

A batch of token-id matrices ``(B, T)`` becomes hidden states ``(B, T, D)``
in every layer but the last. The verse representation is the state at
position 0, which always holds the sequence-start ([CLS]) token, and nothing
else is read from the last layer. So the last layer runs the same layer code
with only row 0 as its queries: its keys and values still cover every
position, but its attention output, ``Wo``, both layer norms and the FFN are
computed for position 0 alone, and the encoder returns states ``(B, 1, D)``.
This is exact in the math; the rounding differs from a full-sequence last
layer.

A training forward (``train=True``) keeps every layer's intermediates in a
cache for :func:`encoder_backward`, which frees each layer's part once it has
used it. An eval forward (``train=False``) keeps no cache, so a layer's
intermediates are freed as soon as the next layer has its input, and its
memory does not grow with the layer count.

Each numerical block is written once: ``softmax``, the scaled dot-product
``attention_weights`` and the linear map ``_linear_forward``/``_linear_backward``,
which folds the leading axes into one 2-D matrix product, so a batch costs
one GEMM rather than one per verse. The layers, the public ``attention`` and
``ffn``, and the classifier head in ``model.py`` all run these blocks, in
training and in evaluation alike.

A block computes in the arrays it has just created, with ``out=`` and
in-place operators, rather than allocating a new array per operation; the
same ufuncs run in the same order, so the bits are those of the plain
expressions. A bias adds into its product, a layer norm turns its input
(the residual sum, which the layer created) into ``xhat``, attention scales,
masks and softmaxes its scores in place with one key-mask bias per forward,
a residual adds into the block output, and a ReLU runs in place, its
backward mask read from its output (``relu(z) > 0`` exactly where ``z > 0``).
The backward passes update their own gradient temporaries and write each
parameter gradient into the array they are given (in training, views into
one flat buffer). No block writes into a parameter, a caller's input (ids,
rows, an upstream gradient), the read-only position table, or an array it
has already put into a cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from .corpus import Settings
from .embeddings import _scatter_rows
from .normalize import PAD_ID

LN_EPS = 1e-5
MASK_BIAS = -1e9


@dataclass(frozen=True)
class EncoderConfig(Settings):
    vocab_size: int
    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 128
    max_len: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ff", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} is below 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )


Params = dict[str, np.ndarray]


def encoder_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every encoder parameter, in the order they are drawn."""
    d, f = cfg.d_model, cfg.d_ff
    shapes = {"tok_emb": (cfg.vocab_size, d)}
    for i in range(cfg.n_layers):
        p = f"l{i}."
        shapes |= {p + name: (d, d) for name in ("Wq", "Wk", "Wv", "Wo")}
        shapes |= {p + name: (d,) for name in ("bq", "bk", "bv", "bo", "ln1_g", "ln1_b")}
        shapes |= {p + "W1": (d, f), p + "b1": (f,), p + "W2": (f, d)}
        shapes |= {p + name: (d,) for name in ("b2", "ln2_g", "ln2_b")}
    return shapes


def init_params(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator,
                dtype=np.float32) -> Params:
    """Parameters of the given shapes, drawn in their order; the last part
    of a name picks the draw.

    ``tok_emb`` is uniform(-0.05, 0.05), a ``W*`` matrix is zero-mean normal
    scaled by 1/sqrt(fan_in), a ``*_g`` layer-norm gain is one and every
    other parameter (the biases) is zero.
    """
    params: Params = {}
    for name, shape in shapes.items():
        key = name.rsplit(".", 1)[-1]
        if key == "tok_emb":
            params[name] = rng.uniform(-0.05, 0.05, shape).astype(dtype)
        elif key.startswith("W"):
            params[name] = (rng.standard_normal(shape) / np.sqrt(shape[0])).astype(dtype)
        else:
            params[name] = (np.ones if key.endswith("_g") else np.zeros)(shape, dtype=dtype)
    return params


def init_encoder_params(cfg: EncoderConfig, dtype=np.float32) -> Params:
    """Seeded initialization of :func:`encoder_shapes`, by :func:`init_params`."""
    return init_params(encoder_shapes(cfg), np.random.default_rng(cfg.seed), dtype)


# One table per batch width, d_model and dtype; 128 holds every width up to
# the default max_len in both float dtypes.
@lru_cache(maxsize=128)
def sinusoidal_positions(length: int, d_model: int, dtype=np.float32) -> np.ndarray:
    """Fixed sin/cos position table, shape (length, d_model), whose row t does
    not depend on ``length``; cached, read-only."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (idx - idx % 2) / d_model)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle)).astype(dtype)
    table.flags.writeable = False
    return table


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """``exp(x - max) / sum`` along ``axis``; ``out=x`` computes it in place."""
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _mask_bias(key_mask: np.ndarray, dtype) -> np.ndarray:
    """``MASK_BIAS`` where ``key_mask`` is False (a masked key), else 0."""
    return np.where(key_mask, 0.0, MASK_BIAS).astype(dtype)


def attention_weights(q: np.ndarray, k: np.ndarray, key_mask: np.ndarray | None = None) -> np.ndarray:
    """Attention weights ``softmax(q k^T / sqrt(d_k))`` over any leading batch axes.

    ``key_mask`` (broadcastable to the score matrix, True = attend) adds
    ``MASK_BIAS`` to masked keys' scores, so their weights are exact zeros.
    """
    return _attention_weights(q, k, None if key_mask is None else _mask_bias(key_mask, q.dtype))


def _attention_weights(q, k, bias):
    """:func:`attention_weights` with the key mask given as its additive bias;
    the scores are scaled, biased and softmaxed in place."""
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= 1.0 / np.sqrt(np.asarray(q.shape[-1], dtype=q.dtype))
    if bias is not None:
        scores += bias
    return softmax(scores, out=scores)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, key_mask: np.ndarray | None = None) -> np.ndarray:
    """Scaled dot-product attention: ``softmax(q k^T / sqrt(d_k)) v``."""
    return attention_weights(q, k, key_mask) @ v


def ffn(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Position-wise feed-forward: ``relu(x w1 + b1) w2 + b2``."""
    return _ffn_forward(x, {"W1": w1, "b1": b1, "W2": w2, "b2": b2}, "")[0]


# ---------------------------------------------------------------------------
# Differentiable building blocks. Each *_forward returns (output, cache) and
# each *_backward consumes the upstream gradient plus that cache, writes its
# parameter gradients into the arrays it is given and returns the gradient
# of its input.
# ---------------------------------------------------------------------------


def _linear_forward(x, w, b):
    y = x.reshape(-1, x.shape[-1]) @ w
    y += b
    return y.reshape(*x.shape[:-1], w.shape[1]), (x, w)


def _linear_backward(dy, cache, dw, db):
    x, w = cache
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    np.matmul(x2.T, dy2, out=dw)
    np.add.reduce(dy2, axis=0, out=db)
    return (dy2 @ w.T).reshape(x.shape)


def _mean_last(x):
    """``x.mean(axis=-1, keepdims=True)``, bit for bit, without the wrapper:
    the same sum, divided by the count."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def _layernorm_forward(x, g, b):
    """``g * xhat + b``; ``x``, which the caller gives up, becomes ``xhat``."""
    x -= _mean_last(x)
    y = np.multiply(x, x)  # the squares, then the output
    inv = _mean_last(y)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    x *= inv
    np.multiply(g, x, out=y)
    y += b
    return y, (x, inv, g)


def _layernorm_backward(dy, cache, dg, db):
    xhat, inv, g = cache
    d = dy.shape[-1]
    prod = dy * xhat
    np.add.reduce(prod.reshape(-1, d), axis=0, out=dg)
    np.add.reduce(dy.reshape(-1, d), axis=0, out=db)
    dx = dy * g  # dxhat, then dx
    m1 = _mean_last(dx)
    m2 = _mean_last(np.multiply(dx, xhat, out=prod))
    dx -= m1
    dx -= np.multiply(xhat, m2, out=prod)
    dx *= inv
    return dx


def _softmax_backward(da, a):
    """The gradient of the softmax input, computed in ``da``."""
    da -= (da * a).sum(axis=-1, keepdims=True)
    da *= a
    return da


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merged_matmul(a, b):
    """``a @ b`` over (B, H) heads, written straight into the merged (B, T, H * dk) layout."""
    batch, h, t, _ = a.shape
    out = np.empty((batch, t, h, b.shape[-1]), dtype=np.result_type(a, b))
    np.matmul(a, b, out=out.transpose(0, 2, 1, 3))
    return out.reshape(batch, t, -1)


def _mha_forward(xq, x, params, prefix, n_heads, bias):
    q, cq = _linear_forward(xq, params[prefix + "Wq"], params[prefix + "bq"])
    k, ck = _linear_forward(x, params[prefix + "Wk"], params[prefix + "bk"])
    v, cv = _linear_forward(x, params[prefix + "Wv"], params[prefix + "bv"])
    qh, kh, vh = (_split_heads(a, n_heads) for a in (q, k, v))
    attn_w = _attention_weights(qh, kh, bias)
    ctx = _merged_matmul(attn_w, vh)
    out, co = _linear_forward(ctx, params[prefix + "Wo"], params[prefix + "bo"])
    return out, (cq, ck, cv, qh, kh, vh, attn_w, co, n_heads)


def _mha_backward(dout, cache, grads, prefix):
    cq, ck, cv, qh, kh, vh, attn_w, co, n_heads = cache
    dctx = _linear_backward(dout, co, grads[prefix + "Wo"], grads[prefix + "bo"])
    dctxh = _split_heads(dctx, n_heads)
    dscores = _softmax_backward(dctxh @ np.swapaxes(vh, -1, -2), attn_w)
    dv = _merged_matmul(np.swapaxes(attn_w, -1, -2), dctxh)
    dscores *= 1.0 / np.sqrt(np.asarray(qh.shape[-1], dtype=qh.dtype))
    dq = _merged_matmul(dscores, kh)
    dk = _merged_matmul(np.swapaxes(dscores, -1, -2), qh)
    dx_q = _linear_backward(dq, cq, grads[prefix + "Wq"], grads[prefix + "bq"])
    dx = _linear_backward(dk, ck, grads[prefix + "Wk"], grads[prefix + "bk"])
    dx += _linear_backward(dv, cv, grads[prefix + "Wv"], grads[prefix + "bv"])
    return dx_q, dx


def _ffn_forward(x, params, prefix):
    h, c1 = _linear_forward(x, params[prefix + "W1"], params[prefix + "b1"])
    np.maximum(h, 0.0, out=h)
    out, c2 = _linear_forward(h, params[prefix + "W2"], params[prefix + "b2"])
    return out, (c1, c2)


def _ffn_backward(dout, cache, grads, prefix):
    c1, c2 = cache
    dh = _linear_backward(dout, c2, grads[prefix + "W2"], grads[prefix + "b2"])
    dh *= c2[0] > 0  # relu(z) > 0 exactly where z > 0
    return _linear_backward(dh, c1, grads[prefix + "W1"], grads[prefix + "b1"])


def _layer_forward(xq, x, params, cfg, i, bias):
    """Post-norm layer ``i`` for the query rows ``xq``, attending over ``x``.

    ``xq`` is ``x`` itself, or its leading rows; the output has ``xq``'s shape.
    """
    p = f"l{i}."
    cache: dict[str, Any] = {}
    a, cache["mha"] = _mha_forward(xq, x, params, p, cfg.n_heads, bias)
    a += xq
    x1, cache["ln1"] = _layernorm_forward(a, params[p + "ln1_g"], params[p + "ln1_b"])
    f, cache["ffn"] = _ffn_forward(x1, params, p)
    f += x1
    out, cache["ln2"] = _layernorm_forward(f, params[p + "ln2_g"], params[p + "ln2_b"])
    return out, cache


def _layer_backward(dout, cache, grads, i):
    """Returns the gradients ``(dxq, dx)`` for ``_layer_forward``'s two inputs."""
    p = f"l{i}."
    dr2 = _layernorm_backward(dout, cache["ln2"], grads[p + "ln2_g"], grads[p + "ln2_b"])
    dx1 = _ffn_backward(dr2, cache["ffn"], grads, p)
    dx1 += dr2
    dr1 = _layernorm_backward(dx1, cache["ln1"], grads[p + "ln1_g"], grads[p + "ln1_b"])
    dxq, dx = _mha_backward(dr1, cache["mha"], grads, p)
    dxq += dr1
    return dxq, dx


def encoder_forward(ids: np.ndarray, params: Params, cfg: EncoderConfig, train: bool = True):
    """Run the encoder over a padded id batch.

    Args:
        ids: int array (B, T), T <= ``cfg.max_len``; padding id 0 marks unused keys.
        train: keep the cache that :func:`encoder_backward` needs; an eval
            forward (False) keeps none. The encoder has no dropout, so the
            states are the same bits either way.

    Returns:
        (states, cache): states is (B, 1, D), the position-0 states; the verse
        representation is ``states[:, 0]``. The cache is None when not ``train``.
    """
    ids = np.asarray(ids)
    if ids.shape[1] > cfg.max_len:
        raise ValueError(f"a batch of {ids.shape[1]} positions is wider than max_len {cfg.max_len}")
    x = params["tok_emb"][ids]
    x += sinusoidal_positions(ids.shape[1], cfg.d_model, x.dtype)
    bias = _mask_bias(ids != PAD_ID, x.dtype)[:, None, None, :]  # every layer's key mask
    layers: list[dict[str, Any]] = []
    for i in range(cfg.n_layers):
        xq = x if i < cfg.n_layers - 1 else x[:, :1]
        x, lcache = _layer_forward(xq, x, params, cfg, i, bias)
        if train:
            layers.append(lcache)
        del xq, lcache  # nothing of a finished layer is bound during the next one
    return x, ({"ids": ids, "layers": layers} if train else None)


def encoder_backward(d_states: np.ndarray, cache: dict, params: Params, cfg: EncoderConfig,
                     grads: Params | None = None) -> Params:
    """Backpropagate ``d_states`` (B, 1, D) through the encoder.

    Consumes the cache of a training :func:`encoder_forward`: each layer's
    part is dropped once it has been used, so the cache cannot be used twice.

    Returns grads keyed like params: ``grads``, whose every element is
    overwritten, or new arrays when it is None.
    """
    if grads is None:
        grads = {name: np.empty(p.shape, p.dtype) for name, p in params.items()}
    dx = d_states
    layers = cache["layers"]
    for i in reversed(range(cfg.n_layers)):
        dxq, dx = _layer_backward(dx, layers.pop(), grads, i)
        dx[:, : dxq.shape[1]] += dxq
    d_emb = grads["tok_emb"]
    d_emb.fill(0)
    _scatter_rows(d_emb.reshape(-1), cache["ids"].reshape(-1), dx, np.arange(dx.shape[-1]))
    return grads
