"""Encoder math: attention, FFN, positions, masking, and gradients.

Gradient checks compare the hand-written backward pass against central
finite differences in float64. The relative-error denominator is floored
(|a| + |fd| or 1e-4, whichever is larger) because some gradients are
structurally zero (a shared key bias shifts every score in a softmax row
equally), where a pure ratio would only measure finite-difference noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseid.encoder import (
    EncoderConfig,
    attention,
    encoder_backward,
    encoder_forward,
    ffn,
    init_encoder_params,
    sinusoidal_positions,
    softmax,
)

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


class TestInit:
    def test_shapes_and_constants(self):
        cfg = tiny_cfg(positional="learned")
        params = init_encoder_params(cfg)
        assert params["tok_emb"].shape == (9, 8)
        assert params["pos_emb"].shape == (6, 8)
        np.testing.assert_array_equal(params["l0.bq"], np.zeros(8))
        np.testing.assert_array_equal(params["l1.ln2_g"], np.ones(8))
        assert np.abs(params["tok_emb"]).max() <= 0.05

    def test_seeded(self):
        a = init_encoder_params(tiny_cfg())
        b = init_encoder_params(tiny_cfg())
        np.testing.assert_array_equal(a["l0.Wq"], b["l0.Wq"])

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(vocab_size=5, d_model=10, n_heads=3)


class TestForward:
    def test_zero_layers_is_embedding_plus_position(self):
        cfg = tiny_cfg(n_layers=0)
        params = init_encoder_params(cfg)
        ids = np.array([[2, 4, 5]])
        states, _ = encoder_forward(ids, params, cfg)
        pe = sinusoidal_positions(cfg.max_len, cfg.d_model, states.dtype)
        np.testing.assert_allclose(states[0, 0], params["tok_emb"][2] + pe[0], rtol=1e-6)

    def test_padding_does_not_change_verse_state(self):
        cfg = tiny_cfg()
        params = init_encoder_params(cfg, dtype=np.float64)
        short = np.array([[2, 4, 5]])
        padded = np.array([[2, 4, 5, 0, 0]])
        s1, _ = encoder_forward(short, params, cfg)
        s2, _ = encoder_forward(padded, params, cfg)
        np.testing.assert_allclose(s1[0, 0], s2[0, 0], atol=1e-12)

    def test_permutation_equivariance_without_positions(self):
        cfg = tiny_cfg(positional="none")
        params = init_encoder_params(cfg, dtype=np.float64)
        ids = np.array([[2, 4, 5, 6]])
        perm = [0, 2, 3, 1]
        states, _ = encoder_forward(ids, params, cfg)
        states_p, _ = encoder_forward(ids[:, perm], params, cfg)
        np.testing.assert_allclose(states_p[0], states[0][perm], atol=1e-10)

    def test_outputs_finite(self, rng):
        cfg = tiny_cfg()
        params = init_encoder_params(cfg)
        ids = rng.integers(2, 9, size=(4, 5))
        states, _ = encoder_forward(ids, params, cfg)
        assert np.isfinite(states).all()


def numeric_grad(loss_fn, tensor, idx, eps=1e-6):
    flat = tensor.reshape(-1)
    orig = flat[idx]
    flat[idx] = orig + eps
    lp = loss_fn()
    flat[idx] = orig - eps
    lm = loss_fn()
    flat[idx] = orig
    return (lp - lm) / (2 * eps)


@pytest.mark.parametrize("norm,positional", [("post", "sinusoidal"), ("pre", "learned")])
def test_encoder_gradients_match_finite_differences(norm, positional):
    cfg = tiny_cfg(norm=norm, positional=positional)
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
