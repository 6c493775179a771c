"""Transformer verse encoder implemented from scratch in numpy.

Forward and backward passes are written by hand so gradients can be
checked analytically against finite differences and training is bit-for-bit
reproducible. Parameters come as a ``dict[str, np.ndarray]`` of any float
dtype (in training, views into the model's one flat float32 buffer); backward
returns a gradient dict with the same keys.

Shapes follow the usual convention: a batch of token-id matrices ``(B, T)``
becomes hidden states ``(B, T, D)``; the verse representation is the state
at position 0, which always holds the sequence-start token.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .normalize import PAD_ID

LN_EPS = 1e-5
MASK_BIAS = -1e9

POSITIONAL_KINDS = ("sinusoidal", "learned", "none")
NORM_ORDERS = ("post", "pre")


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 128
    max_len: int = 64
    dropout: float = 0.0
    positional: str = "sinusoidal"
    norm: str = "post"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.positional not in POSITIONAL_KINDS:
            raise ValueError(f"positional must be one of {POSITIONAL_KINDS}")
        if self.norm not in NORM_ORDERS:
            raise ValueError(f"norm must be one of {NORM_ORDERS}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        return cls(**d)


Params = dict[str, np.ndarray]


def init_encoder_params(cfg: EncoderConfig, dtype=np.float32) -> Params:
    """Seeded initialization.

    Embeddings (token and learned positional) are uniform(-0.05, 0.05);
    projection matrices are zero-mean normal scaled by 1/sqrt(fan_in);
    biases start at zero and layer-norm gains at one.
    """
    rng = np.random.default_rng(cfg.seed)
    d, f = cfg.d_model, cfg.d_ff

    def uniform(shape):
        return rng.uniform(-0.05, 0.05, shape).astype(dtype)

    def fan_in_normal(shape):
        return (rng.standard_normal(shape) / np.sqrt(shape[0])).astype(dtype)

    params: Params = {"tok_emb": uniform((cfg.vocab_size, d))}
    if cfg.positional == "learned":
        params["pos_emb"] = uniform((cfg.max_len, d))
    for i in range(cfg.n_layers):
        p = f"l{i}."
        for name in ("Wq", "Wk", "Wv", "Wo"):
            params[p + name] = fan_in_normal((d, d))
        for name in ("bq", "bk", "bv", "bo"):
            params[p + name] = np.zeros(d, dtype=dtype)
        params[p + "ln1_g"] = np.ones(d, dtype=dtype)
        params[p + "ln1_b"] = np.zeros(d, dtype=dtype)
        params[p + "W1"] = fan_in_normal((d, f))
        params[p + "b1"] = np.zeros(f, dtype=dtype)
        params[p + "W2"] = fan_in_normal((f, d))
        params[p + "b2"] = np.zeros(d, dtype=dtype)
        params[p + "ln2_g"] = np.ones(d, dtype=dtype)
        params[p + "ln2_b"] = np.zeros(d, dtype=dtype)
    return params


def sinusoidal_positions(max_len: int, d_model: int, dtype=np.float32) -> np.ndarray:
    """Fixed sin/cos position table, shape (max_len, d_model)."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (idx - idx % 2) / d_model)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(dtype)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, key_mask: np.ndarray | None = None
) -> np.ndarray:
    """Scaled dot-product attention: ``softmax(q k^T / sqrt(d_k)) v``.

    Works on any leading batch dimensions; ``key_mask`` (broadcastable to the
    score matrix's key axis, True = attend) turns masked keys' weights into
    exact zeros via a large negative score bias.
    """
    dk = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(np.asarray(dk, dtype=q.dtype))
    if key_mask is not None:
        scores = np.where(key_mask, scores, np.asarray(MASK_BIAS, dtype=scores.dtype))
    return softmax(scores, axis=-1) @ v


def ffn(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Position-wise feed-forward: ``relu(x w1 + b1) w2 + b2``."""
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


# ---------------------------------------------------------------------------
# Differentiable building blocks. Each *_forward returns (output, cache) and
# each *_backward consumes the upstream gradient plus that cache.
# ---------------------------------------------------------------------------


def _linear_forward(x, w, b):
    return x @ w + b, (x, w)


def _linear_backward(dy, cache):
    x, w = cache
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dw = x2.T @ dy2
    db = dy2.sum(axis=0)
    dx = dy @ w.T
    return dx, dw, db


def _layernorm_forward(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return g * xhat + b, (xhat, inv, g)


def _layernorm_backward(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).reshape(-1, dy.shape[-1]).sum(axis=0)
    db = dy.reshape(-1, dy.shape[-1]).sum(axis=0)
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dg, db


def _softmax_backward(da, a):
    return (da - (da * a).sum(axis=-1, keepdims=True)) * a


def _dropout_forward(x, rate, train, rng):
    if not train or rate <= 0.0:
        return x, None
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * keep, keep


def _dropout_backward(dy, keep):
    return dy if keep is None else dy * keep


def _split_heads(x, n_heads):
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dk)


def _mha_forward(x, params, prefix, n_heads, key_mask):
    q, cq = _linear_forward(x, params[prefix + "Wq"], params[prefix + "bq"])
    k, ck = _linear_forward(x, params[prefix + "Wk"], params[prefix + "bk"])
    v, cv = _linear_forward(x, params[prefix + "Wv"], params[prefix + "bv"])
    qh, kh, vh = (_split_heads(a, n_heads) for a in (q, k, v))
    scale = 1.0 / np.sqrt(np.asarray(qh.shape[-1], dtype=x.dtype))
    scores = (qh @ np.swapaxes(kh, -1, -2)) * scale
    if key_mask is not None:
        bias = np.where(key_mask, 0.0, MASK_BIAS).astype(x.dtype)
        scores = scores + bias[:, None, None, :]
    attn_w = softmax(scores, axis=-1)
    ctx = _merge_heads(attn_w @ vh)
    out, co = _linear_forward(ctx, params[prefix + "Wo"], params[prefix + "bo"])
    return out, (cq, ck, cv, qh, kh, vh, attn_w, scale, co, n_heads)


def _mha_backward(dout, cache, grads, prefix):
    cq, ck, cv, qh, kh, vh, attn_w, scale, co, n_heads = cache
    dctx, grads[prefix + "Wo"], grads[prefix + "bo"] = _linear_backward(dout, co)
    dctxh = _split_heads(dctx, n_heads)
    dattn = dctxh @ np.swapaxes(vh, -1, -2)
    dvh = np.swapaxes(attn_w, -1, -2) @ dctxh
    dscores = _softmax_backward(dattn, attn_w) * scale
    dqh = dscores @ kh
    dkh = np.swapaxes(dscores, -1, -2) @ qh
    dq, dk, dv = (_merge_heads(a) for a in (dqh, dkh, dvh))
    dx_q, grads[prefix + "Wq"], grads[prefix + "bq"] = _linear_backward(dq, cq)
    dx_k, grads[prefix + "Wk"], grads[prefix + "bk"] = _linear_backward(dk, ck)
    dx_v, grads[prefix + "Wv"], grads[prefix + "bv"] = _linear_backward(dv, cv)
    return dx_q + dx_k + dx_v


def _ffn_forward(x, params, prefix):
    z1, c1 = _linear_forward(x, params[prefix + "W1"], params[prefix + "b1"])
    h = np.maximum(z1, 0.0)
    out, c2 = _linear_forward(h, params[prefix + "W2"], params[prefix + "b2"])
    return out, (c1, z1, c2)


def _ffn_backward(dout, cache, grads, prefix):
    c1, z1, c2 = cache
    dh, grads[prefix + "W2"], grads[prefix + "b2"] = _linear_backward(dout, c2)
    dz1 = dh * (z1 > 0)
    dx, grads[prefix + "W1"], grads[prefix + "b1"] = _linear_backward(dz1, c1)
    return dx


def _layer_forward(x, params, cfg, i, key_mask, train, rng):
    p = f"l{i}."
    cache: dict[str, Any] = {}
    if cfg.norm == "post":
        a, cache["mha"] = _mha_forward(x, params, p, cfg.n_heads, key_mask)
        a, cache["drop1"] = _dropout_forward(a, cfg.dropout, train, rng)
        x1, cache["ln1"] = _layernorm_forward(x + a, params[p + "ln1_g"], params[p + "ln1_b"])
        f, cache["ffn"] = _ffn_forward(x1, params, p)
        f, cache["drop2"] = _dropout_forward(f, cfg.dropout, train, rng)
        out, cache["ln2"] = _layernorm_forward(x1 + f, params[p + "ln2_g"], params[p + "ln2_b"])
    else:
        n1, cache["ln1"] = _layernorm_forward(x, params[p + "ln1_g"], params[p + "ln1_b"])
        a, cache["mha"] = _mha_forward(n1, params, p, cfg.n_heads, key_mask)
        a, cache["drop1"] = _dropout_forward(a, cfg.dropout, train, rng)
        x1 = x + a
        n2, cache["ln2"] = _layernorm_forward(x1, params[p + "ln2_g"], params[p + "ln2_b"])
        f, cache["ffn"] = _ffn_forward(n2, params, p)
        f, cache["drop2"] = _dropout_forward(f, cfg.dropout, train, rng)
        out = x1 + f
    return out, cache


def _layer_backward(dout, cache, params, cfg, i, grads):
    p = f"l{i}."
    if cfg.norm == "post":
        dr2, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layernorm_backward(dout, cache["ln2"])
        df = _dropout_backward(dr2, cache["drop2"])
        dx1 = dr2 + _ffn_backward(df, cache["ffn"], grads, p)
        dr1, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layernorm_backward(dx1, cache["ln1"])
        da = _dropout_backward(dr1, cache["drop1"])
        dx = dr1 + _mha_backward(da, cache["mha"], grads, p)
    else:
        dx1 = dout
        df = _dropout_backward(dout, cache["drop2"])
        dn2 = _ffn_backward(df, cache["ffn"], grads, p)
        dln2, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layernorm_backward(dn2, cache["ln2"])
        dx1 = dx1 + dln2
        da = _dropout_backward(dx1, cache["drop1"])
        dn1 = _mha_backward(da, cache["mha"], grads, p)
        dln1, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layernorm_backward(dn1, cache["ln1"])
        dx = dx1 + dln1
    return dx


def encoder_forward(
    ids: np.ndarray,
    params: Params,
    cfg: EncoderConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Run the encoder over a padded id batch.

    Args:
        ids: int array (B, T); padding id 0 marks unused key positions.

    Returns:
        (states, cache): states is (B, T, D); the verse representation is
        ``states[:, 0]``.
    """
    ids = np.asarray(ids)
    key_mask = ids != PAD_ID
    x = params["tok_emb"][ids]
    if cfg.positional == "sinusoidal":
        x = x + sinusoidal_positions(cfg.max_len, cfg.d_model, x.dtype)[: ids.shape[1]]
    elif cfg.positional == "learned":
        x = x + params["pos_emb"][: ids.shape[1]]
    cache: dict[str, Any] = {"ids": ids, "layers": []}
    for i in range(cfg.n_layers):
        x, lcache = _layer_forward(x, params, cfg, i, key_mask, train, rng)
        cache["layers"].append(lcache)
    return x, cache


def encoder_backward(d_states: np.ndarray, cache: dict, params: Params, cfg: EncoderConfig) -> Params:
    """Backpropagate through the encoder; returns grads keyed like params."""
    grads: Params = {}
    dx = d_states
    for i in reversed(range(cfg.n_layers)):
        dx = _layer_backward(dx, cache["layers"][i], params, cfg, i, grads)
    ids = cache["ids"]
    d_emb = np.zeros_like(params["tok_emb"])
    np.add.at(d_emb, ids, dx)
    grads["tok_emb"] = d_emb
    if cfg.positional == "learned":
        d_pos = np.zeros_like(params["pos_emb"])
        d_pos[: ids.shape[1]] = dx.sum(axis=0)
        grads["pos_emb"] = d_pos
    return grads
