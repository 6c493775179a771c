"""Encoder math: attention, FFN, positions, masking, and gradients.

Gradient checks compare the hand-written backward pass against central
finite differences in float64. The relative-error denominator is floored
(|a| + |fd| or 1e-4, whichever is larger) because some gradients are
structurally zero (a shared key bias shifts every score in a softmax row
equally), where a pure ratio would only measure finite-difference noise.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseid import encoder
from verseid.encoder import (
    LN_EPS,
    MASK_BIAS,
    EncoderConfig,
    attention,
    attention_weights,
    encoder_backward,
    encoder_forward,
    ffn,
    init_encoder_params,
    sinusoidal_positions,
    softmax,
)

from conftest import read_only

GRAD_TOL = 1e-4


def tiny_cfg(**kw):
    defaults = dict(
        vocab_size=9, d_model=8, n_heads=2, n_layers=2, d_ff=12, max_len=6, seed=1
    )
    defaults.update(kw)
    return EncoderConfig(**defaults)


class TestAttentionOp:
    def test_hand_case(self):
        # Independent recomputation with explicit loops.
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        k = np.array([[1.0, 1.0], [0.0, 2.0]])
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = attention(q, k, v)
        scale = np.sqrt(2.0)
        for i in range(2):
            scores = [q[i] @ k[0] / scale, q[i] @ k[1] / scale]
            m = max(scores)
            exps = [np.exp(s - m) for s in scores]
            weights = [e / sum(exps) for e in exps]
            expected = weights[0] * v[0] + weights[1] * v[1]
            np.testing.assert_allclose(got[i], expected, rtol=1e-12)

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 1000))
    @settings(max_examples=50)
    def test_rows_are_distributions(self, t, dk, seed):
        rng = np.random.default_rng(seed)
        q, k, v = (rng.normal(size=(t, dk)) for _ in range(3))
        scores = q @ k.T / np.sqrt(dk)
        weights = softmax(scores)
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones(t), atol=1e-6)
        assert (weights >= 0).all()
        np.testing.assert_allclose(attention(q, k, v), weights @ v, rtol=1e-12)

    def test_masked_keys_get_zero_weight(self):
        rng = np.random.default_rng(0)
        q, k, v = (rng.normal(size=(3, 4)) for _ in range(3))
        mask = np.array([True, True, False])
        out = attention(q, k, v, key_mask=mask)
        expected = attention(q[:, :], k[:2], v[:2], key_mask=None)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_batched_float32_bits_match_explicit_formula(self, rng):
        # The encoder's per-head weights, (B, H, T, T) with a (B, 1, 1, T)
        # key mask, to the bit of the explicit scaled, biased softmax.
        q, k = (rng.normal(size=(3, 2, 5, 8)).astype(np.float32) for _ in range(2))
        mask = np.ones((3, 5), dtype=bool)
        mask[0, 3:] = mask[2, 1:] = False
        got = attention_weights(q, k, mask[:, None, None, :])
        scale = 1.0 / np.sqrt(np.float32(8))
        bias = np.where(mask, 0.0, MASK_BIAS).astype(np.float32)
        scores = (q @ np.swapaxes(k, -1, -2)) * scale + bias[:, None, None, :]
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, e / e.sum(axis=-1, keepdims=True))
        assert (got[0, :, :, 3:] == 0).all() and (got[2, :, :, 0] == 1).all()


class TestFFNOp:
    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(3, 4))
        w1, b1 = rng.normal(size=(4, 5)), rng.normal(size=5)
        w2, b2 = rng.normal(size=(5, 2)), rng.normal(size=2)
        got = ffn(x, w1, b1, w2, b2)
        for i in range(3):
            hidden = [max(0.0, x[i] @ w1[:, j] + b1[j]) for j in range(5)]
            out = [sum(hidden[j] * w2[j, o] for j in range(5)) + b2[o] for o in range(2)]
            np.testing.assert_allclose(got[i], out, rtol=1e-12)

    def test_negative_preactivations_blocked(self):
        x = np.array([[-5.0]])
        out = ffn(x, np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.array([7.0]))
        assert out[0, 0] == 7.0


class TestPositions:
    def test_first_row_alternates_zero_one(self):
        pe = sinusoidal_positions(4, 6, dtype=np.float64)
        np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=1e-12)

    def test_bounded(self):
        pe = sinusoidal_positions(64, 32)
        assert np.abs(pe).max() <= 1.0 + 1e-6

    def test_known_entry(self):
        pe = sinusoidal_positions(8, 4, dtype=np.float64)
        assert pe[3, 0] == pytest.approx(np.sin(3.0))
        assert pe[3, 1] == pytest.approx(np.cos(3.0))
        assert pe[3, 2] == pytest.approx(np.sin(3.0 / 100.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d_model", [8, 64, 100])
    def test_short_table_is_a_prefix_of_a_long_one(self, dtype, d_model):
        long = sinusoidal_positions(512, d_model, dtype)
        for length in (1, 2, 7, 63, 64, 65, 512):
            assert sinusoidal_positions(length, d_model, dtype).tobytes() == long[:length].tobytes()

    def test_encoder_asks_for_the_batch_width_only(self, rng, monkeypatch):
        # The table is as long as the batch is wide, whatever max_len allows,
        # and states and gradients are the same bits for every max_len.
        asked = []

        def spy(length, d_model, dtype=np.float32):
            asked.append(length)
            return sinusoidal_positions(length, d_model, dtype)

        monkeypatch.setattr(encoder, "sinusoidal_positions", spy)
        ids = rng.integers(2, 9, size=(3, 5))
        ids[1, 2:] = 0
        d_states = rng.normal(size=(3, 1, 8))
        outputs = []
        for max_len in (5, 64, 10_000):
            cfg = tiny_cfg(max_len=max_len)
            params = init_encoder_params(cfg, dtype=np.float64)
            states, cache = encoder_forward(ids, params, cfg)
            grads = encoder_backward(d_states, cache, params, cfg)
            outputs.append([states.tobytes(), *(grads[k].tobytes() for k in sorted(grads))])
        assert asked == [5, 5, 5]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_batch_wider_than_max_len_rejected(self):
        cfg = tiny_cfg(max_len=4)
        with pytest.raises(ValueError, match="wider than max_len 4"):
            encoder_forward(np.ones((2, 5), dtype=np.int64), init_encoder_params(cfg), cfg)


class TestInit:
    def test_shapes_and_constants(self):
        cfg = tiny_cfg()
        params = init_encoder_params(cfg)
        assert params["tok_emb"].shape == (9, 8)
        np.testing.assert_array_equal(params["l0.bq"], np.zeros(8))
        np.testing.assert_array_equal(params["l1.ln2_g"], np.ones(8))
        assert np.abs(params["tok_emb"]).max() <= 0.05

    def test_seeded(self):
        a = init_encoder_params(tiny_cfg())
        b = init_encoder_params(tiny_cfg())
        np.testing.assert_array_equal(a["l0.Wq"], b["l0.Wq"])

    @pytest.mark.parametrize("field, value", [
        ("vocab_size", 0), ("d_model", 0), ("n_heads", 0), ("n_heads", -2), ("d_ff", 0),
        ("max_len", 0), ("n_layers", 0), ("n_layers", -1),
    ])
    def test_sizes_it_cannot_run_with_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field}={value} is below"):
            EncoderConfig(**{"vocab_size": 5, field: value})

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(vocab_size=5, d_model=10, n_heads=3)


class TestForward:
    def test_padding_does_not_change_verse_state(self):
        cfg = tiny_cfg()
        params = init_encoder_params(cfg, dtype=np.float64)
        short = np.array([[2, 4, 5]])
        padded = np.array([[2, 4, 5, 0, 0]])
        s1, _ = encoder_forward(short, params, cfg)
        s2, _ = encoder_forward(padded, params, cfg)
        np.testing.assert_allclose(s1[0, 0], s2[0, 0], atol=1e-12)

    def test_outputs_finite(self, rng):
        cfg = tiny_cfg()
        params = init_encoder_params(cfg)
        ids = rng.integers(2, 9, size=(4, 5))
        states, _ = encoder_forward(ids, params, cfg)
        assert np.isfinite(states).all()


class TestEvalForward:
    def test_keeps_no_cache_and_gives_the_training_states(self, rng):
        cfg = tiny_cfg(n_layers=3)
        params = init_encoder_params(cfg)
        ids = rng.integers(2, 9, size=(4, 5))
        ids[1, 3:] = 0
        states, cache = encoder_forward(ids, params, cfg, train=False)
        trained, train_cache = encoder_forward(ids, params, cfg)  # train by default
        assert cache is None
        assert len(train_cache["layers"]) == 3
        assert states.tobytes() == trained.tobytes()

    def test_backward_consumes_the_cache(self, rng):
        cfg = tiny_cfg(n_layers=3)
        params = init_encoder_params(cfg)
        states, cache = encoder_forward(rng.integers(2, 9, size=(2, 4)), params, cfg)
        encoder_backward(np.ones_like(states), cache, params, cfg)
        assert cache["layers"] == []

    def test_peak_does_not_grow_with_the_layers(self, rng):
        # One 64 x 20 batch at the default width: each layer's intermediates
        # are freed once the next layer has its input.
        ids = rng.integers(3, 400, size=(64, 20))

        def peak(n_layers):
            cfg = EncoderConfig(vocab_size=400, n_layers=n_layers)
            params = init_encoder_params(cfg)
            tracemalloc.start()
            try:
                encoder_forward(ids, params, cfg, train=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= 1.05 * peak(4)

    def test_peak_is_a_few_of_its_largest_activations(self, rng):
        # Each block computes in the temporaries it creates, so one eval
        # forward of a 64 x 20 batch holds at most 7 times its largest
        # activation, the (B, T, d_ff) FFN hidden state of 0.66 MB (3.86 MB,
        # 5.9 times, with numpy 2.4).
        cfg = EncoderConfig(vocab_size=400)
        params = init_encoder_params(cfg)
        ids = rng.integers(3, 400, size=(64, 20))
        tracemalloc.start()
        try:
            encoder_forward(ids, params, cfg, train=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * ids.size * cfg.d_ff * 4


class TestOwnership:
    def test_blocks_write_into_nothing_they_did_not_create(self, rng):
        # Parameters, ids, the upstream gradient and, before the backward,
        # every cached array are read-only, so a write into one would raise.
        cfg = tiny_cfg(n_layers=3)
        params = read_only(init_encoder_params(cfg))
        ids = rng.integers(2, 9, size=(4, 5))
        ids[1, 3:] = 0
        read_only(ids)
        evaluated, _ = encoder_forward(ids, params, cfg, train=False)
        states, cache = encoder_forward(ids, params, cfg, train=True)
        d_states = read_only(rng.normal(size=states.shape).astype(np.float32))
        grads = encoder_backward(d_states, read_only(cache), params, cfg)
        assert evaluated.tobytes() == states.tobytes()
        assert all(np.isfinite(g).all() for g in grads.values())


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return g * (x - mu) / np.sqrt(var + LN_EPS) + b


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 5, 8), (4, 1, 64), (7, 3)])
    def test_bits_match_explicit_formula(self, rng, dtype, shape):
        # Forward and backward, to the bit of the formula written with
        # ``mean`` and a second ``x - mu``, in the dtype training runs in.
        x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
        g, b = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
        dy = rng.normal(size=shape).astype(dtype)
        # The forward turns its input into xhat, and the backward writes dg
        # and db into the arrays it is given.
        y, cache = encoder._layernorm_forward(x.copy(), g, b)
        dg, db = np.empty_like(g), np.empty_like(b)
        dx = encoder._layernorm_backward(dy, cache, dg, db)

        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (x - mu) * inv
        dxhat = dy * g
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        expected = {
            "y": g * xhat + b,
            "dx": inv * (dxhat - m1 - xhat * m2),
            "dg": (dy * xhat).reshape(-1, shape[-1]).sum(axis=0),
            "db": dy.reshape(-1, shape[-1]).sum(axis=0),
        }
        for name, got in {"y": y, "dx": dx, "dg": dg, "db": db}.items():
            assert got.dtype == dtype, name
            assert got.tobytes() == expected[name].tobytes(), name


def full_sequence_states(ids, params, cfg):
    """Brute-force post-norm stack over every position of every verse, one verse at a time."""
    pe = sinusoidal_positions(cfg.max_len, cfg.d_model, np.float64)
    dk = cfg.d_model // cfg.n_heads
    out = []
    for row in ids:
        x = params["tok_emb"][row] + pe[: len(row)]
        for i in range(cfg.n_layers):
            p = f"l{i}."
            q, k, v = (x @ params[p + "W" + n] + params[p + "b" + n] for n in "qkv")
            heads = [
                attention(q[:, h * dk : (h + 1) * dk], k[:, h * dk : (h + 1) * dk],
                          v[:, h * dk : (h + 1) * dk], key_mask=row != 0)
                for h in range(cfg.n_heads)
            ]
            a = np.concatenate(heads, axis=1) @ params[p + "Wo"] + params[p + "bo"]
            x1 = _layer_norm(x + a, params[p + "ln1_g"], params[p + "ln1_b"])
            f = ffn(x1, params[p + "W1"], params[p + "b1"], params[p + "W2"], params[p + "b2"])
            x = _layer_norm(x1 + f, params[p + "ln2_g"], params[p + "ln2_b"])
        out.append(x)
    return np.stack(out)


class TestClsOnlyLastLayer:
    def test_matches_full_sequence_stack(self, rng):
        cfg = tiny_cfg(n_layers=2)
        params = init_encoder_params(cfg, dtype=np.float64)
        for p in params.values():  # move biases and gains off their constants
            p += rng.normal(scale=0.2, size=p.shape)
        ids = np.array([[2, 4, 5, 0, 0], [2, 6, 7, 8, 3], [2, 3, 0, 0, 0]])
        states, _ = encoder_forward(ids, params, cfg)
        assert states.shape == (3, 1, cfg.d_model)
        expected = full_sequence_states(ids, params, cfg)[:, 0]
        np.testing.assert_allclose(states[:, 0], expected, rtol=0, atol=1e-12)

    def test_token_gradient_equals_rowwise_add_at(self, rng, monkeypatch):
        # float32, as in training: the order of the additions decides the bits.
        cfg = tiny_cfg()
        params = init_encoder_params(cfg)
        ids = np.array([[2, 4, 4, 5, 0], [2, 5, 4, 8, 8], [2, 3, 3, 3, 0]])
        seen = {}
        real_scatter = encoder._scatter_rows

        def spy(flat, rows, grads, cols):
            seen["dx"] = np.array(grads)
            real_scatter(flat, rows, grads, cols)

        monkeypatch.setattr(encoder, "_scatter_rows", spy)
        states, cache = encoder_forward(ids, params, cfg, train=True)
        d_states = rng.normal(size=states.shape).astype(np.float32)
        grads = encoder_backward(d_states, cache, params, cfg)
        assert seen["dx"].shape == (*ids.shape, cfg.d_model)
        expected = np.zeros_like(params["tok_emb"])
        np.add.at(expected, ids, seen["dx"])
        assert grads["tok_emb"].dtype == np.float32
        assert grads["tok_emb"].tobytes() == expected.tobytes()


def numeric_grad(loss_fn, tensor, idx, eps=1e-6):
    flat = tensor.reshape(-1)
    orig = flat[idx]
    flat[idx] = orig + eps
    lp = loss_fn()
    flat[idx] = orig - eps
    lm = loss_fn()
    flat[idx] = orig
    return (lp - lm) / (2 * eps)


# The id names the encoder's one shape: post-norm, sinusoidal positions.
@pytest.mark.parametrize("cfg", [tiny_cfg()], ids=["post-sinusoidal"])
def test_encoder_gradients_match_finite_differences(cfg):
    params = init_encoder_params(cfg, dtype=np.float64)
    ids = np.array([[2, 4, 5, 0], [2, 6, 7, 8]])
    rng = np.random.default_rng(7)
    target = rng.normal(size=(2, cfg.d_model))

    def loss_fn():
        states, _ = encoder_forward(ids, params, cfg)
        return float((states[:, 0] * target).sum())

    states, cache = encoder_forward(ids, params, cfg)
    d_states = np.zeros_like(states)
    d_states[:, 0] = target
    grads = encoder_backward(d_states, cache, params, cfg)

    assert set(grads) == set(params)
    for name, p in params.items():
        gflat = grads[name].reshape(-1)
        idxs = rng.choice(p.size, size=min(10, p.size), replace=False)
        for i in idxs:
            fd = numeric_grad(loss_fn, p, i)
            rel = abs(fd - gflat[i]) / max(abs(fd) + abs(gflat[i]), GRAD_TOL)
            assert rel <= GRAD_TOL, f"{name}[{i}]: analytic {gflat[i]}, fd {fd}"
