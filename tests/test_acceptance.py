"""Acceptance gate: one test per criterion, summary lines via conftest.

Each ``test_criterion_*`` function is one acceptance criterion. Oracles here
are independent brute-force reimplementations (explicit Python loops), not
calls back into the library.
"""

import math
import time

import numpy as np
import pytest

from verseid.aggregate import majority_vote, thresholded_vote, weighted_vote
from verseid.corpus import Corpus
from verseid.embeddings import EmbeddingConfig, train_sgns
from verseid.encoder import (
    EncoderConfig,
    attention,
    encoder_backward,
    encoder_forward,
    ffn,
    init_encoder_params,
    softmax,
)
from verseid.metrics import classification_report
from verseid.model import (
    FeatureSpace,
    FusionConfig,
    TrainConfig,
    batch_weighted_ce,
    build_dataset,
    class_weights,
    fit,
    head_backward,
    head_forward,
    init_head_params,
    poem_probability_groups,
    predict_proba,
    weighted_cross_entropy,
)
from verseid.normalize import build_vocab
from verseid.split import split_records, stratified_poem_split, verify_no_leakage
from verseid.synthetic import SyntheticConfig, make_synthetic_corpus

from conftest import make_poem, token_lists

TAUS = [0.5, 0.6, 0.7, 0.8, 0.9]


# ---------------------------------------------------------------------------
# Criterion 1: numerical core
# ---------------------------------------------------------------------------


def test_criterion_1_numerical_core(rng):
    t0 = time.perf_counter()

    # Attention rows sum to one (within 1e-6) and softmax outputs are valid
    # distributions, including under extreme logits.
    for _ in range(20):
        q = rng.normal(size=(3, 5, 8))
        k = rng.normal(size=(3, 5, 8))
        v = rng.normal(size=(3, 5, 8))
        scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(8.0)
        weights = softmax(scores)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)
        assert (weights >= 0).all()
        np.testing.assert_allclose(attention(q, k, v), weights @ v, atol=1e-6)
    extreme = softmax(np.array([[1e4, 0.0, -1e4], [5.0, 5.0, 5.0]]))
    assert np.isfinite(extreme).all()
    np.testing.assert_allclose(extreme.sum(axis=1), 1.0, atol=1e-12)

    # End-to-end gradient check at d_model 8: encoder -> [CLS] state ++ aux
    # -> head -> weighted cross-entropy, against central finite differences.
    enc_cfg = EncoderConfig(
        vocab_size=25, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_len=10, seed=3
    )
    enc_params = init_encoder_params(enc_cfg, dtype=np.float64)
    aux_dim, n_classes = 5, 3
    head_params = init_head_params(8 + aux_dim, 6, n_classes, seed=4, dtype=np.float64)
    ids = np.array([[2, 5, 9, 3, 0, 0], [2, 7, 11, 12, 13, 4]])
    aux = rng.normal(size=(2, aux_dim))
    y = np.array([0, 2])
    w = np.array([1.0, 0.5, 2.0])

    def forward_loss():
        states, _ = encoder_forward(ids, enc_params, enc_cfg)
        h = np.concatenate([states[:, 0], aux], axis=1)
        probs, _ = head_forward(h, head_params)
        loss, _, _ = batch_weighted_ce(probs, y, w)
        return loss

    states, ecache = encoder_forward(ids, enc_params, enc_cfg)
    h = np.concatenate([states[:, 0], aux], axis=1)
    probs, hcache = head_forward(h, head_params)
    _, d_logits, _ = batch_weighted_ce(probs, y, w)
    hgrads, dh = head_backward(d_logits, hcache)
    d_states = np.zeros_like(states)
    d_states[:, 0] = dh[:, :8]
    egrads = encoder_backward(d_states, ecache, enc_params, enc_cfg)

    eps = 1e-6
    worst = 0.0
    for params, grads in ((enc_params, egrads), (head_params, hgrads)):
        for name, p in params.items():
            flat = p.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = forward_loss()
                flat[i] = orig - eps
                lm = forward_loss()
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                rel = abs(fd - gflat[i]) / max(abs(fd) + abs(gflat[i]), 1e-4)
                worst = max(worst, rel)
                assert rel <= 1e-4, f"{name}[{i}]: analytic {gflat[i]}, fd {fd}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"numerical core took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 2: formula oracles (independent brute-force recomputation)
# ---------------------------------------------------------------------------


def test_criterion_2_formula_oracles(rng):
    # Weighted cross-entropy on one verse.
    for _ in range(120):
        c = int(rng.integers(2, 7))
        y_hat = rng.dirichlet(np.ones(c))
        y = int(rng.integers(0, c))
        w = rng.uniform(0.1, 3.0, size=c)
        expected = -float(w[y]) * math.log(max(float(y_hat[y]), 1e-12))
        assert abs(weighted_cross_entropy(y_hat, y, w) - expected) <= 1e-9

    # Inverse-frequency class weights w_i = N / (C * count_i).
    for _ in range(120):
        c = int(rng.integers(2, 6))
        labels = rng.integers(0, c, size=int(rng.integers(c, 60))).tolist()
        labels += list(range(c))  # every class occurs
        got = class_weights(labels, c)
        n = len(labels)
        for i in range(c):
            count = sum(1 for lab in labels if lab == i)
            assert abs(got[i] - n / (c * count)) <= 1e-9

    # Position-wise feed-forward relu(x W1 + b1) W2 + b2, by explicit loops.
    for _ in range(100):
        nrow, d, f = (int(rng.integers(1, 4)) for _ in range(3))
        d, f = d + 1, f + 1
        x = rng.normal(size=(nrow, d))
        w1 = rng.normal(size=(d, f))
        b1 = rng.normal(size=f)
        w2 = rng.normal(size=(f, d))
        b2 = rng.normal(size=d)
        got = ffn(x, w1, b1, w2, b2)
        for r in range(nrow):
            hidden = [max(sum(x[r][i] * w1[i][j] for i in range(d)) + b1[j], 0.0) for j in range(f)]
            for o in range(d):
                want = sum(hidden[j] * w2[j][o] for j in range(f)) + b2[o]
                assert abs(got[r][o] - want) <= 1e-9

    # Weighted vote: argmax of summed verse distributions, mean confidence.
    for _ in range(120):
        n, c = int(rng.integers(1, 7)), int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(c), size=n)
        label, conf = weighted_vote(probs)
        sums = [sum(float(probs[i][j]) for i in range(n)) for j in range(c)]
        assert abs(sums[label] - max(sums)) <= 1e-9
        assert abs(conf - max(sums) / n) <= 1e-9


# ---------------------------------------------------------------------------
# Criterion 3: split safety over 50 seeds on a 1,000-poem corpus
# ---------------------------------------------------------------------------


def test_criterion_3_split_safety():
    t0 = time.perf_counter()
    sizes = {"p1": 313, "p2": 257, "p3": 190, "p4": 140, "p5": 100}
    records = [
        make_poem(f"{poet}-{i}", poet, [("الف ب", "ج د")])
        for poet, n in sizes.items()
        for i in range(n)
    ]
    corpus = Corpus(records)
    assert len(corpus) == 1000
    for seed in range(50):
        assignment = stratified_poem_split(corpus, seed=seed)
        counts = verify_no_leakage(assignment, corpus)  # raises on violation
        for poet, n in sizes.items():
            for split, ratio in zip(("train", "valid", "test"), (0.8, 0.1, 0.1)):
                assert abs(counts[poet][split] - n * ratio) < 1.0, (seed, poet, split)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"split safety took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 4: aggregation semantics
# ---------------------------------------------------------------------------


def test_criterion_4_aggregation_semantics(rng):
    for _ in range(10):
        c = int(rng.integers(2, 6))
        poems = [rng.dirichlet(np.ones(c), size=int(rng.integers(1, 7))) for _ in range(30)]

        # Coverage is non-increasing across the sweep thresholds.
        coverages = []
        for tau in TAUS:
            kept = sum(1 for p in poems if weighted_vote(p)[1] >= tau)
            coverages.append(kept / len(poems))
        assert all(a >= b for a, b in zip(coverages, coverages[1:]))

        # At tau -> 0+ the thresholded vote never abstains and equals the
        # weighted vote on every poem.
        for p in poems:
            assert thresholded_vote(p, tau=1e-12) == weighted_vote(p)

        # Single-verse poems: all three strategies agree.
        for p in poems:
            single = p[:1]
            label = int(single[0].argmax())
            assert majority_vote([label]) == label
            assert weighted_vote(single)[0] == label
            assert thresholded_vote(single, tau=1e-12)[0] == label


# ---------------------------------------------------------------------------
# Criteria 5-7: desk-scale experiment on the bundled synthetic corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_env():
    """Synthetic corpus, split, vocabulary, and embeddings (fusion-agnostic)."""
    t0 = time.perf_counter()
    corpus = make_synthetic_corpus(SyntheticConfig())  # 5 poets x 200 poems
    assignment = stratified_poem_split(corpus, seed=0)
    train_recs, valid_recs, test_recs = split_records(corpus, assignment)
    tokens = token_lists(train_recs)
    vocab = build_vocab(tokens)
    sequences = [[vocab.id_of(t) for t in toks] for toks in tokens]
    emb, _ = train_sgns(sequences, len(vocab), EmbeddingConfig())
    poet_index = {p: i for i, p in enumerate(sorted({r.poet for r in corpus.records}))}
    form_index = {f: i for i, f in enumerate(sorted({r.form for r in corpus.records}))}
    return {
        "corpus": corpus,
        "records": (train_recs, valid_recs, test_recs),
        "vocab": vocab,
        "emb": emb,
        "poet_index": poet_index,
        "form_index": form_index,
        "elapsed": time.perf_counter() - t0,
    }


def train_desk(env, fusion: FusionConfig):
    """Desk-default training run; returns (bundle, test accuracies, elapsed)."""
    t0 = time.perf_counter()
    train_recs, valid_recs, test_recs = env["records"]
    space, train_ds = FeatureSpace.fit(
        train_recs, env["vocab"], env["emb"], env["form_index"], env["poet_index"], fusion
    )
    enc_cfg = EncoderConfig(vocab_size=len(env["vocab"]))
    bundle = fit(
        train_ds,
        build_dataset(valid_recs, space),
        space,
        enc_cfg,
        TrainConfig.desk(),
    )
    test_ds = build_dataset(test_recs, space)
    probs = predict_proba(test_ds, bundle)
    verse_acc = float((probs.argmax(axis=1) == test_ds.labels).mean())
    _, matrices, truth = poem_probability_groups(test_ds, probs)
    majority_acc = float(
        np.mean([majority_vote(m.argmax(axis=1), m.max(axis=1)) == t for m, t in zip(matrices, truth)])
    )
    weighted_acc = float(
        np.mean([weighted_vote(m)[0] == t for m, t in zip(matrices, truth)])
    )
    accs = {"verse": verse_acc, "majority": majority_acc, "weighted": weighted_acc}
    return bundle, probs, accs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_full(desk_env):
    return train_desk(desk_env, FusionConfig())


def test_criterion_5_desk_scale_learning(desk_env, desk_full):
    _, _, accs, train_elapsed = desk_full
    total = desk_env["elapsed"] + train_elapsed
    assert accs["verse"] >= 0.90, f"verse accuracy {accs['verse']:.4f}"
    assert accs["weighted"] >= accs["majority"], accs
    assert accs["majority"] >= accs["verse"] - 0.05, accs
    assert total < 300.0, f"desk pipeline took {total:.0f}s"


def test_criterion_6_meter_ablation(desk_env, desk_full):
    _, _, full_accs, _ = desk_full
    _, _, ablated_accs, _ = train_desk(desk_env, FusionConfig(use_meter=False))
    drop = full_accs["verse"] - ablated_accs["verse"]
    assert drop >= 0.03, (
        f"removing meter changed verse accuracy by {drop:+.4f} "
        f"({full_accs['verse']:.4f} -> {ablated_accs['verse']:.4f})"
    )


def test_criterion_7_reproducibility(desk_env, desk_full):
    _, first_probs, _, _ = desk_full
    _, second_probs, _, _ = train_desk(desk_env, FusionConfig())
    assert first_probs.dtype == second_probs.dtype
    np.testing.assert_array_equal(first_probs, second_probs)


# ---------------------------------------------------------------------------
# Criterion 8: metrics parity on a hand-built 3-class case
# ---------------------------------------------------------------------------


def test_criterion_8_metrics_parity():
    truth = [0, 0, 1, 1, 2, 2, 2]
    preds = [0, 1, 1, 1, 2, 2, 0]
    r = classification_report(truth, preds, 3)
    assert r.accuracy == pytest.approx(5 / 7, abs=1e-12)
    assert r.precision == pytest.approx([1 / 2, 2 / 3, 1.0], abs=1e-12)
    assert r.recall == pytest.approx([1 / 2, 1.0, 2 / 3], abs=1e-12)
    assert r.f1 == pytest.approx([1 / 2, 4 / 5, 4 / 5], abs=1e-12)
    assert r.macro_precision == pytest.approx(13 / 18, abs=1e-12)
    assert r.macro_recall == pytest.approx(13 / 18, abs=1e-12)
    assert r.macro_f1 == pytest.approx((1 / 2 + 4 / 5 + 4 / 5) / 3, abs=1e-12)
    assert r.support == [2, 2, 3]

    # Zero-support class stays in the macro mean instead of being dropped.
    r2 = classification_report([0, 0, 1, 1], [0, 0, 1, 1], 3)
    assert r2.support == [2, 2, 0]
    assert r2.macro_f1 == pytest.approx(2 / 3, abs=1e-12)
    assert r2.macro_precision == pytest.approx(2 / 3, abs=1e-12)
    assert 2 in r2.zero_division_classes
