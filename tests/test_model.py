"""Classifier head, losses, optimizer, schedule, and the training loop."""

import dataclasses
import math
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verseid.encoder
import verseid.model
from verseid.cli import main
from verseid.corpus import Corpus, save_corpus
from verseid.embeddings import (
    EmbeddingConfig,
    EmbeddingMatrix,
    semantic_vectors,
    train_sgns,
    verse_semantic_vector,
)
from verseid.encoder import EncoderConfig, init_encoder_params
from verseid.features import (
    Scaler,
    _is_punct,
    build_meter_classes,
    one_hot_form,
    one_hot_meter,
    stylometric_features,
)
from verseid.model import (
    AdamW,
    FeatureDataset,
    FeatureSpace,
    FusionConfig,
    ModelBundle,
    NumericalError,
    StaleArtifactError,
    TrainConfig,
    batch_weighted_ce,
    build_dataset,
    class_weights,
    clip_gradients,
    fit,
    flatten_params,
    head_backward,
    head_forward,
    init_head_params,
    load_checkpoint,
    lr_at_step,
    param_manifest,
    param_views,
    poem_probability_groups,
    predict_proba,
    save_checkpoint,
    training_log_csv,
    weighted_cross_entropy,
    _checkpoint_bytes,
    _scan,
)
from verseid.normalize import (
    CLS_ID,
    N_RESERVED,
    NormalizationConfig,
    build_vocab,
    normalize_verse,
)
from verseid.split import LeakageError, split_records, stratified_poem_split
from verseid.synthetic import SyntheticConfig, make_synthetic_corpus

from conftest import make_poem, read_only, token_lists


class TestClassWeights:
    def test_inverse_frequency(self):
        labels = [0] * 30 + [1] * 10
        w = class_weights(labels, 2)
        np.testing.assert_allclose(w, [40 / 60, 40 / 20])

    def test_balanced_gives_ones(self):
        w = class_weights([0] * 10 + [1] * 10, 2)
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="no training examples"):
            class_weights([0, 0, 0], 2)


class TestWeightedCE:
    def test_uniform_unit_weights(self):
        y_hat = np.full(4, 0.25)
        assert weighted_cross_entropy(y_hat, 2, np.ones(4)) == pytest.approx(math.log(4))

    def test_weight_scales_loss(self):
        y_hat = np.array([0.5, 0.5])
        w = np.array([1.0, 3.0])
        assert weighted_cross_entropy(y_hat, 1, w) == pytest.approx(3 * math.log(2))

    def test_clamp_at_epsilon(self):
        y_hat = np.array([1.0, 0.0])
        loss = weighted_cross_entropy(y_hat, 1, np.ones(2))
        assert loss == pytest.approx(-math.log(1e-12))

    def test_batch_mean_and_clamp_count(self):
        probs = np.array([[0.5, 0.5], [1.0, 0.0]])
        loss, d_logits, n_clamped = batch_weighted_ce(probs, np.array([0, 1]), np.ones(2))
        assert loss == pytest.approx((math.log(2) - math.log(1e-12)) / 2)
        assert n_clamped == 1
        assert d_logits.shape == probs.shape

    def test_balanced_weights_match_unweighted(self, rng):
        probs = rng.dirichlet(np.ones(3), size=8)
        y = rng.integers(0, 3, size=8)
        # Balanced labels: weights are all ones, so both calls must agree.
        w = class_weights(np.repeat([0, 1, 2], 4), 3)
        loss_w, _, _ = batch_weighted_ce(probs, y, w)
        loss_u, _, _ = batch_weighted_ce(probs, y, np.ones(3))
        assert loss_w == pytest.approx(loss_u)

    def test_logit_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=(4, 3))
        y = np.array([0, 2, 1, 1])
        w = np.array([1.5, 0.5, 2.0])

        def loss_of(z):
            e = np.exp(z - z.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            return float(-(w[y] * np.log(p[np.arange(4), y])).mean())

        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        _, d_logits, _ = batch_weighted_ce(probs, y, w)
        eps = 1e-6
        for i in range(4):
            for j in range(3):
                bumped = logits.copy()
                bumped[i, j] += eps
                fd = (loss_of(bumped) - loss_of(logits)) / eps
                assert d_logits[i, j] == pytest.approx(fd, abs=1e-5)


class TestHead:
    def test_zero_final_layer_gives_uniform(self):
        params = init_head_params(4, 6, 5, seed=0)
        params["W2"][...] = 0.0
        probs, _ = head_forward(np.ones((2, 4)), params)
        np.testing.assert_allclose(probs, np.full((2, 5), 0.2), atol=1e-7)

    def test_bias_only_softmax(self):
        params = init_head_params(3, 4, 3, seed=0)
        params["W1"][...] = 0.0
        params["W2"][...] = 0.0
        params["b2"][...] = np.array([10.0, 0.0, 0.0])
        probs, _ = head_forward(np.zeros((1, 3)), params)
        top = math.exp(10) / (math.exp(10) + 2)
        assert probs[0, 0] == pytest.approx(top, rel=1e-6)
        assert probs[0, 0] == pytest.approx(0.9999, abs=1e-4)

    def test_rows_are_distributions(self, rng):
        params = init_head_params(6, 8, 4, seed=1)
        probs, _ = head_forward(rng.normal(size=(10, 6)).astype(np.float32), params)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), atol=1e-6)
        assert (probs >= 0).all()

    def test_logit_shift_invariance(self, rng):
        params = init_head_params(5, 7, 3, seed=2, dtype=np.float64)
        shifted = {k: v.copy() for k, v in params.items()}
        shifted["b2"] = shifted["b2"] + 13.0
        x = rng.normal(size=(4, 5))
        p1, _ = head_forward(x, params)
        p2, _ = head_forward(x, shifted)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_dropout_only_in_training(self, rng):
        params = init_head_params(5, 16, 3, seed=3)
        x = rng.normal(size=(6, 5)).astype(np.float32)
        eval_1, _ = head_forward(x, params, dropout=0.5, train=False)
        eval_2, _ = head_forward(x, params, dropout=0.5, train=False)
        np.testing.assert_array_equal(eval_1, eval_2)
        train_p, _ = head_forward(x, params, dropout=0.5, train=True, rng=np.random.default_rng(0))
        assert not np.allclose(train_p, eval_1)

    def test_gradients_match_finite_differences(self, rng):
        params = init_head_params(4, 5, 3, seed=4, dtype=np.float64)
        x = rng.normal(size=(3, 4))
        y = np.array([0, 1, 2])
        w = np.array([1.0, 2.0, 0.5])

        def loss_fn():
            probs, _ = head_forward(x, params)
            picked = probs[np.arange(3), y]
            return float(-(w[y] * np.log(picked)).mean())

        probs, cache = head_forward(x, params)
        _, d_logits, _ = batch_weighted_ce(probs, y, w)
        grads, _ = head_backward(d_logits, cache)
        eps = 1e-6
        for name, p in params.items():
            flat = p.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 6)):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss_fn()
                flat[i] = orig - eps
                lm = loss_fn()
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                assert gflat[i] == pytest.approx(fd, abs=1e-6), name

    @pytest.mark.parametrize("train", [False, True])
    def test_writes_into_no_input(self, rng, train):
        # Parameters, rows, the logit gradient and, before the backward,
        # every cached array are read-only, so a write into one would raise.
        params = read_only(init_head_params(6, 8, 4, seed=1))
        h = read_only(rng.normal(size=(5, 6)).astype(np.float32))
        d_logits = read_only(rng.normal(size=(5, 4)).astype(np.float32))
        probs, cache = head_forward(h, params, 0.5, train, np.random.default_rng(0))
        grads, dh = head_backward(d_logits, read_only(cache))
        assert np.isfinite(probs).all() and np.isfinite(dh).all()
        assert all(np.isfinite(g).all() for g in grads.values())

    @pytest.mark.parametrize("train", [False, True])
    def test_float32_bits_match_explicit_formulas(self, rng, train):
        # The head runs the encoder's linear map and softmax; in float32 its
        # results must be the explicit formulas' to the bit, dropout included.
        params = init_head_params(12, 16, 5, seed=5)
        h = rng.normal(size=(9, 12)).astype(np.float32)
        d_logits = rng.normal(size=(9, 5)).astype(np.float32)
        probs, cache = head_forward(h, params, 0.3, train, np.random.default_rng(1))
        grads, dh = head_backward(d_logits, cache)

        a = np.maximum(h @ params["W1"] + params["b1"], 0.0)
        keep = None
        if train:
            keep = (np.random.default_rng(1).random(a.shape) >= 0.3).astype(np.float32) / 0.7
            a = a * keep
        logits = a @ params["W2"] + params["b2"]
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(probs, e / e.sum(axis=-1, keepdims=True))
        np.testing.assert_array_equal(grads["W2"], a.T @ d_logits)
        np.testing.assert_array_equal(grads["b2"], d_logits.sum(axis=0))
        da = d_logits @ params["W2"].T
        dz1 = (da if keep is None else da * keep) * (h @ params["W1"] + params["b1"] > 0)
        np.testing.assert_array_equal(grads["W1"], h.T @ dz1)
        np.testing.assert_array_equal(grads["b1"], dz1.sum(axis=0))
        np.testing.assert_array_equal(dh, dz1 @ params["W1"].T)
        assert probs.dtype == dh.dtype == np.float32


class TestOptimizerAndSchedule:
    def test_adamw_single_step_hand_computed(self):
        p = np.array([1.0], dtype=np.float64)
        opt = AdamW(p, weight_decay=0.0)
        opt.step(p, np.array([0.5]), lr=0.1)
        # m_hat = 0.5, v_hat = 0.25 -> update = 0.1 * 0.5 / (0.5 + 1e-8)
        assert p[0] == pytest.approx(1.0 - 0.1 * 0.5 / (0.5 + 1e-8))

    def test_decoupled_decay_shrinks_without_gradient(self):
        p = np.array([2.0], dtype=np.float64)
        opt = AdamW(p, weight_decay=0.01)
        opt.step(p, np.zeros(1), lr=0.5)
        assert p[0] == pytest.approx(2.0 * (1 - 0.5 * 0.01))

    def test_flat_step_matches_per_tensor_reference(self):
        # The flat update must give the same bits as updating each tensor on
        # its own, so checkpoints stay byte-identical.
        rng = np.random.default_rng(0)
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 2, 2)}
        tensors = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
        flat = np.concatenate([tensors[k].ravel() for k in sorted(tensors)])
        ref = {k: v.copy() for k, v in tensors.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v2 = {k: np.zeros_like(v) for k, v in ref.items()}
        opt = AdamW(flat, weight_decay=0.01)
        for t in range(1, 4):
            grads = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
            opt.step(flat, np.concatenate([grads[k].ravel() for k in sorted(grads)]), lr=0.1)
            for k, p in ref.items():
                m[k] *= 0.9
                m[k] += (1.0 - 0.9) * grads[k]
                v2[k] *= 0.999
                v2[k] += (1.0 - 0.999) * grads[k] * grads[k]
                p -= (0.1 * 0.01) * p
                p -= 0.1 * (m[k] / (1.0 - 0.9**t)) / (np.sqrt(v2[k] / (1.0 - 0.999**t)) + 1e-8)
        np.testing.assert_array_equal(flat, np.concatenate([ref[k].ravel() for k in sorted(ref)]))

    def test_warmup_then_cosine(self):
        lr = 3.0
        assert lr_at_step(1, 100, lr) == pytest.approx(lr / 10)
        assert lr_at_step(10, 100, lr) == pytest.approx(lr)
        assert lr_at_step(55, 100, lr) == pytest.approx(lr / 2)
        assert lr_at_step(100, 100, lr) == pytest.approx(0.0, abs=1e-12)
        after_warmup = [lr_at_step(s, 100, lr) for s in range(10, 101)]
        assert all(a >= b for a, b in zip(after_warmup, after_warmup[1:]))

    def test_clip_rescales_global_norm(self):
        grads = np.array([3.0, 4.0])
        norm = clip_gradients(grads)
        assert norm == pytest.approx(5.0)
        assert math.hypot(*grads) == pytest.approx(1.0)

    def test_clip_noop_below_threshold(self):
        grads = np.array([0.3])
        clip_gradients(grads)
        assert grads[0] == pytest.approx(0.3)


def build_pipeline(corpus, fusion=FusionConfig(), seed=0, emb_dim=12):
    assignment = stratified_poem_split(corpus, seed=seed)
    train_recs, valid_recs, test_recs = split_records(corpus, assignment)
    tokens = token_lists(train_recs)
    vocab = build_vocab(tokens)
    sequences = [[vocab.id_of(t) for t in toks] for toks in tokens]
    emb, _ = train_sgns(sequences, len(vocab), EmbeddingConfig(dim=emb_dim, epochs=2, seed=seed))
    poet_index = {p: i for i, p in enumerate(sorted({r.poet for r in corpus.records}))}
    form_index = {f: i for i, f in enumerate(sorted({r.form for r in corpus.records}))}
    space, _ = FeatureSpace.fit(train_recs, vocab, emb, form_index, poet_index, fusion)
    return space, train_recs, valid_recs, test_recs


class TestFeatureSpace:
    def test_aux_dim_and_order(self, small_synth):
        space, train_recs, _, _ = build_pipeline(small_synth)
        record = train_recs[0]
        aux = build_dataset([record], space).aux[0]
        d_sem = space.embeddings.dim
        assert aux.shape == (space.aux_dim,)
        assert space.aux_dim == d_sem + 7 + len(space.form_index) + 1 + 15
        # form one-hot occupies the slice right after semantic+stylometric
        form_slice = aux[d_sem + 7 : d_sem + 7 + len(space.form_index) + 1]
        assert form_slice.sum() == 1.0
        assert form_slice[space.form_index[record.form]] == 1.0
        meter_slice = aux[d_sem + 7 + len(space.form_index) + 1 :]
        assert meter_slice.sum() == 1.0
        assert meter_slice[space.meter_map.class_of(record.meter)] == 1.0

    def test_aux_matches_per_verse_reference(self, small_synth):
        space, train_recs, _, _ = build_pipeline(small_synth)
        records = train_recs[:5]
        rows = []
        for r in records:
            for v in r.verses:
                t1, t2 = normalize_verse(v, space.vocab.config)
                ids = per_verse_ids(t1 + t2, space.vocab, space.max_len)
                stylo = np.array([stylometric_features(t1, t2)])
                rows.append(np.concatenate([
                    verse_semantic_vector(ids, space.embeddings).astype(np.float64),
                    space.scaler.transform(stylo)[0],
                    one_hot_form([r.form], space.form_index)[0],
                    one_hot_meter([r.meter], space.meter_map)[0],
                ]))
        expected = np.stack(rows).astype(np.float32)
        np.testing.assert_array_equal(build_dataset(records, space).aux, expected)

    def test_fusion_flags_shrink_aux(self, small_synth):
        fusion = FusionConfig(use_meter=False, use_form=False)
        space, _, _, _ = build_pipeline(small_synth, fusion=fusion)
        assert space.aux_dim == space.embeddings.dim + 7

    def test_one_normalization_pass_per_verse(self, small_synth, monkeypatch, tmp_path):
        import verseid.model
        import verseid.normalize

        space, train_recs, _, _ = build_pipeline(small_synth)
        calls = {}

        def count(module, name, weight=lambda *args: 1):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += weight(*args)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count(verseid.normalize, "normalize_text")
        # The verses whose stylometrics are computed, a whole table per call.
        count(verseid.model, "stylometric_rows", lambda table: len(table.first))
        calls.update(normalize_text=0, stylometric_rows=0)
        build_dataset(train_recs, space)
        # normalize_verse calls normalize_text once per hemistich.
        assert calls["normalize_text"] == 2 * sum(r.n_verses for r in train_recs)

        # The desk corpus: 6,511 train and 810 valid verses at split seed 0.
        save_corpus(make_synthetic_corpus(SyntheticConfig()), tmp_path / "desk.jsonl")
        data, split, emb = (str(tmp_path / name) for name in ("desk.jsonl", "split", "emb"))
        assert main(["split", "--corpus", data, "--seed", "0", "--out", split]) == 0
        calls.update(normalize_text=0, stylometric_rows=0)
        assert main(["train-embeddings", "--corpus", data, "--split", split, "--out", emb,
                     "--dim", "8", "--epochs", "1", "--window", "1"]) == 0
        assert calls == {"normalize_text": 13_022, "stylometric_rows": 0}
        calls.update(normalize_text=0, stylometric_rows=0)
        assert main(["train", "--corpus", data, "--split", split, "--embeddings", emb,
                     "--out", str(tmp_path / "model"), "--epochs", "1", "--d-model", "8",
                     "--n-heads", "2", "--n-layers", "1", "--d-ff", "8",
                     "--head-hidden", "8"]) == 0
        assert calls == {"normalize_text": 14_642, "stylometric_rows": 7_321}

    def test_fit_returns_the_train_dataset(self, small_synth):
        space, train_recs, _, _ = build_pipeline(small_synth)
        # The first verse is a lone tatweel, which normalizes to nothing.
        records = [make_poem("blank", train_recs[0].poet, [("ـ", ""), ("a b", "c")])] + train_recs
        with pytest.warns(UserWarning, match="skipped 1 verses"):
            fitted, train_ds = FeatureSpace.fit(
                records, space.vocab, space.embeddings, space.form_index, space.poet_index
            )
        with pytest.warns(UserWarning, match="skipped 1 verses"):
            rebuilt = build_dataset(records, fitted)
        np.testing.assert_array_equal(train_ds.ids, rebuilt.ids)
        want = [per_verse_ids(t1 + t2, fitted.vocab, fitted.max_len)
                for t1, t2 in (normalize_verse(v) for r in records for v in r.verses) if t1 or t2]
        assert strip_padding(train_ds.ids) == want
        assert train_ds.ids.shape[1] == max(map(len, want))
        np.testing.assert_array_equal(train_ds.aux, rebuilt.aux)
        np.testing.assert_array_equal(train_ds.labels, rebuilt.labels)
        assert train_ds.poem_ids == rebuilt.poem_ids
        assert train_ds.verse_indices == rebuilt.verse_indices
        assert (train_ds.poem_ids[0], train_ds.verse_indices[0]) == ("blank", 1)
        # The scaler is fitted on every verse, the empty one included.
        stylo = np.array([stylometric_features(*normalize_verse(v)) for r in records for v in r.verses])
        np.testing.assert_array_equal(fitted.scaler.mean_, stylo.mean(axis=0))

    def test_dataset_alignment(self, small_synth):
        space, train_recs, _, _ = build_pipeline(small_synth)
        ds = build_dataset(train_recs, space)
        assert len(ds) == sum(r.n_verses for r in train_recs)
        assert ds.aux.shape == (len(ds), space.aux_dim)
        first = train_recs[0]
        assert ds.poem_ids[: first.n_verses] == [first.poem_id] * first.n_verses
        assert ds.labels[0] == space.poet_index[first.poet]


# Pieces of hemistich text: letters and their Arabic variants, diacritics,
# tatweel and ZWNJ, Arabic, Persian and Latin punctuation, markup (whole and
# broken) and whitespace, so drawn verses can be markup only or empty.
TEXT_PIECES = ["گل", "باغ", "دل", "بلبل", "ي", "ك", "ى", "ـ", "\u200c", "\u064e", "،", "؛",
               "؟", "٫", "«", "»", "!", ".", "-", "…", "<b>", "</b>", "<br/>", "<", ">",
               " ", " ", "\t", "a", "Bc"]
hemistich_text = st.lists(st.sampled_from(TEXT_PIECES), max_size=10).map("".join)


def per_verse_stylometrics(t1, t2):
    """The per-verse stylometric formulas that the batch code replaced."""
    tokens = t1 + t2
    n = len(tokens)
    counts = {}
    for t in tokens:
        counts[t] = counts.get(t, 0) + 1
    hapaxes = sum(1 for c in counts.values() if c == 1)
    chars = "".join(tokens)
    punct = sum(map(_is_punct, chars))
    return (
        float(n),
        float(len(counts)),
        (sum(len(t) for t in tokens) / n) if n else 0.0,
        (hapaxes / n) if n else 0.0,
        (len(t1) + len(t2)) / 2.0,
        (punct / len(chars)) if chars else 0.0,
        len(t1) / max(1, len(t2)),
    )


def per_verse_ids(tokens, vocab, max_len):
    return tuple(([CLS_ID] + [vocab.id_of(t) for t in tokens])[:max_len])


def strip_padding(ids):
    """Each row of a padded id matrix without its trailing ``PAD_ID`` entries."""
    return [tuple(np.trim_zeros(row, "b").tolist()) for row in ids]


def zero_pad(rows):
    """The rows padded with zeros to the longest of them, one row at a time."""
    out = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def per_verse_semantic(ids, emb):
    ids = [t for t in ids if t >= N_RESERVED]
    return emb.w_in[ids].mean(axis=0) if ids else np.zeros(emb.dim, dtype=np.float32)


class TestBatchFeaturization:
    @settings(max_examples=150, deadline=None)
    @given(poems=st.lists(st.lists(st.tuples(hemistich_text, hemistich_text), min_size=1,
                                   max_size=4), min_size=1, max_size=5),
           strip_zwnj=st.booleans(), max_len=st.integers(1, 8), seed=st.integers(0, 2**16))
    def test_matches_per_verse_formulas(self, poems, strip_zwnj, max_len, seed):
        records = [make_poem(f"p{i}", "a", verses) for i, verses in enumerate(poems)]
        cfg = NormalizationConfig(strip_zwnj=strip_zwnj)
        verses = [normalize_verse(v, cfg) for r in records for v in r.verses]
        # Every other verse's tokens, so the rest meet tokens the vocabulary lacks.
        vocab = build_vocab([t1 + t2 for t1, t2 in verses[::2]], cfg)
        rng = np.random.default_rng(seed)
        w_in = rng.normal(size=(len(vocab), 3)).astype(np.float32)
        w_in[rng.random(w_in.shape) < 0.2] = -0.0
        emb = EmbeddingMatrix(w_in, np.zeros_like(w_in), EmbeddingConfig(dim=3))

        stylo = np.array([per_verse_stylometrics(*v) for v in verses])
        assert _scan(records, vocab, max_len)[1].tobytes() == stylo.tobytes()
        ids = [per_verse_ids(t1 + t2, vocab, max_len) for t1, t2 in verses if t1 or t2]
        semantic = np.array([per_verse_semantic(t, emb) for t in ids]).reshape(-1, 3)
        for v, row in zip(verses, stylo):
            assert stylometric_features(*v) == tuple(row)
        for t, row in zip(ids, semantic):
            assert verse_semantic_vector(t, emb).tobytes() == row.tobytes()

        space = FeatureSpace(vocab, emb, Scaler.fit(stylo), build_meter_classes(Corpus(records)),
                             {"ghazal": 0}, {"a": 0}, max_len=max_len)
        skipped = len(verses) - len(ids)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if not ids:
                with pytest.raises(ValueError, match="no usable verses"):
                    build_dataset(records, space)
            else:
                ds = build_dataset(records, space)
        assert [str(w.message) for w in caught] == (
            [f"skipped {skipped} verses with no tokens after normalization"] if skipped else [])
        if ids:
            assert strip_padding(ds.ids) == ids
            assert ds.ids.shape[1] == max(map(len, ids))
            assert ds.aux[:, :3].tobytes() == semantic.tobytes()
            # Blocks of as few as two rows give the same bits.
            with mock.patch("verseid.embeddings._SEMANTIC_BLOCK", 2 * 3 * max_len):
                blocks = semantic_vectors(_scan(records, vocab, max_len)[0], emb)
            assert blocks.tobytes() == semantic.tobytes()


WORDS = ["گل", "باغ", "دل", "بلبل", "می", "رود"]


class TestEncoderBatches:
    @settings(max_examples=40, deadline=None)
    @given(poems=st.lists(st.lists(st.tuples(st.lists(st.sampled_from(WORDS), min_size=1, max_size=9),
                                             st.lists(st.sampled_from(WORDS), max_size=9)),
                                   min_size=1, max_size=4), min_size=3, max_size=6),
           max_len=st.integers(1, 8), data=st.data())
    def test_each_batch_is_its_rows_zero_padded_to_the_longest(self, poems, max_len, data):
        records = [make_poem(f"p{i}", "ab"[i % 2], [(" ".join(a), " ".join(b)) for a, b in verses])
                   for i, verses in enumerate(poems)]
        valid = [dataclasses.replace(r, poem_id=f"v{r.poem_id}") for r in records]
        vocab = build_vocab(token_lists(records[::2]))
        rows = [per_verse_ids(a + b, vocab, max_len) for verses in poems for a, b in verses]
        n = len(rows)
        # At least one full batch and a short last one.
        batch_size = data.draw(st.integers(2, n - 1).filter(lambda b: n % b), "batch_size")
        # predict_proba's batch, which fit's validation uses too, whatever batch_size is.
        predict_batch = data.draw(st.integers(1, n), "predict_batch")
        emb = EmbeddingMatrix(np.ones((len(vocab), 2), np.float32), np.zeros((len(vocab), 2), np.float32),
                              EmbeddingConfig(dim=2))
        space, train_ds = FeatureSpace.fit(records, vocab, emb, {"ghazal": 0}, {"a": 0, "b": 1},
                                           max_len=max_len)
        enc_cfg = EncoderConfig(vocab_size=len(vocab), d_model=4, n_heads=1, n_layers=1, d_ff=4,
                                max_len=max_len)
        cfg = TrainConfig.desk(batch_size=batch_size, max_epochs=2, patience=2, head_hidden=4)
        seen = []
        real = verseid.model.encoder_forward

        def recording(ids, params, enc, train=False):
            seen.append((np.array(ids), train))
            return real(ids, params, enc, train)

        with mock.patch("verseid.model.encoder_forward", recording), \
                mock.patch("verseid.model.PREDICT_BATCH", predict_batch):
            bundle = fit(train_ds, build_dataset(valid, space), space, enc_cfg, cfg)
            steps = [ids for ids, train in seen if train]
            validation = [ids for ids, train in seen if not train]
            seen.clear()
            predict_proba(train_ds, bundle)

        # fit: each epoch's batches hold every row once, each batch padded to its longest row.
        assert len(steps) == 2 * math.ceil(n / batch_size)
        for epoch in (steps[: len(steps) // 2], steps[len(steps) // 2 :]):
            assert len(epoch[-1]) == n % batch_size
            assert sorted(row for ids in epoch for row in strip_padding(ids)) == sorted(rows)
            for ids in epoch:
                want = zero_pad(strip_padding(ids))
                assert ids.shape == want.shape and (ids == want).all()
        # predict_proba, and each epoch's validation: the rows in dataset order,
        # predict_batch at a time.
        batches = [zero_pad(rows[k : k + predict_batch]) for k in range(0, n, predict_batch)]
        assert [train for _, train in seen] == [False] * len(batches)
        for got in ([ids for ids, _ in seen], validation[: len(batches)], validation[len(batches) :]):
            assert len(got) == len(batches)
            for ids, want in zip(got, batches):
                assert ids.shape == want.shape and (ids == want).all()


class TestFit:
    def test_leakage_rejected(self, small_synth):
        space, train_recs, valid_recs, _ = build_pipeline(small_synth)
        train_ds = build_dataset(train_recs, space)
        leaky_ds = build_dataset(train_recs[:2], space)
        cfg = TrainConfig.desk(max_epochs=1)
        enc = EncoderConfig(vocab_size=len(space.vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8)
        with pytest.raises(LeakageError, match="train and validation"):
            fit(train_ds, leaky_ds, space, enc, cfg)

    def test_zero_lr_keeps_parameters_and_stops_early(self, small_synth):
        from verseid.encoder import init_encoder_params

        space, train_recs, valid_recs, _ = build_pipeline(small_synth)
        train_ds = build_dataset(train_recs, space)
        valid_ds = build_dataset(valid_recs, space)
        enc = EncoderConfig(
            vocab_size=len(space.vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8, seed=0
        )
        cfg = TrainConfig.desk(lr=0.0, max_epochs=10, patience=3, seed=0)
        bundle = fit(train_ds, valid_ds, space, enc, cfg)
        # Accuracy can never improve after epoch 1, so patience ends training
        # at epoch 1 + patience and the retained parameters equal the init.
        assert bundle.log_summary["epochs_run"] == 4
        assert bundle.log_summary["best_epoch"] == 1
        init = init_encoder_params(enc)
        for k, v in init.items():
            np.testing.assert_array_equal(bundle.enc_params[k], v)

    @pytest.mark.parametrize("weighting", ["inverse_frequency", "none"])
    def test_class_weighting_sets_the_loss_weights(self, small_synth, weighting):
        space, train_recs, valid_recs, _ = build_pipeline(small_synth)
        train_ds = build_dataset(train_recs, space)
        enc = EncoderConfig(vocab_size=len(space.vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8)
        cfg = TrainConfig.desk(max_epochs=1, class_weighting=weighting)
        seen, real = [], verseid.model.batch_weighted_ce

        def recording(probs, y, w):
            seen.append(w)
            return real(probs, y, w)

        with mock.patch("verseid.model.batch_weighted_ce", recording):
            fit(train_ds, build_dataset(valid_recs, space), space, enc, cfg)
        want = (class_weights(train_ds.labels, space.n_classes) if weighting == "inverse_frequency"
                else np.ones(space.n_classes))
        assert seen and all(np.array_equal(w, want) for w in seen)

    def test_unknown_class_weighting_rejected(self, small_synth):
        space, train_recs, valid_recs, _ = build_pipeline(small_synth)
        enc = EncoderConfig(vocab_size=len(space.vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8)
        with pytest.raises(ValueError, match="unknown class_weighting 'balanced'"):
            fit(build_dataset(train_recs, space), build_dataset(valid_recs, space), space, enc,
                TrainConfig.desk(max_epochs=1, class_weighting="balanced"))

    def test_clamped_probabilities_are_warned(self, small_synth, monkeypatch):
        # At a floor of 1.0 every row's picked probability is clamped.
        monkeypatch.setattr(verseid.model, "LOG_EPS", 1.0)
        space, train_recs, valid_recs, _ = build_pipeline(small_synth)
        train_ds = build_dataset(train_recs, space)
        enc = EncoderConfig(vocab_size=len(space.vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8)
        cfg = TrainConfig.desk(max_epochs=2, patience=2)
        with pytest.warns(UserWarning, match=f"clamped {2 * len(train_ds)} probabilities at 1.0$"):
            fit(train_ds, build_dataset(valid_recs, space), space, enc, cfg)

    def test_training_improves_and_logs(self, small_synth):
        space, train_recs, valid_recs, _ = build_pipeline(small_synth)
        train_ds = build_dataset(train_recs, space)
        valid_ds = build_dataset(valid_recs, space)
        enc = EncoderConfig(vocab_size=len(space.vocab), d_model=16, n_heads=2, n_layers=1, d_ff=32)
        cfg = TrainConfig.desk(max_epochs=5, seed=1)
        bundle = fit(train_ds, valid_ds, space, enc, cfg)
        assert bundle.log[0].train_loss > bundle.log[-1].train_loss
        assert bundle.log_summary["best_valid_accuracy"] > 1.5 / len(space.poet_index)
        csv = training_log_csv(bundle.log)
        assert csv.splitlines()[0] == "epoch,train_loss,valid_accuracy,lr"
        assert len(csv.splitlines()) == len(bundle.log) + 1

    def test_no_step_array_outlives_its_step(self, small_synth):
        # Every array a training forward cached, parameters aside, is freed
        # before the epoch's validation pass starts.
        space, train_recs, valid_recs, _ = build_pipeline(small_synth)
        train_ds = build_dataset(train_recs, space)
        valid_ds = build_dataset(valid_recs, space)
        enc = EncoderConfig(vocab_size=len(space.vocab), d_model=8, n_heads=2, n_layers=2, d_ff=8)
        cfg = TrainConfig.desk(max_epochs=2, patience=2, seed=0)
        cached, alive_at_validation = [], []
        real_forward, real_predict = verseid.model.encoder_forward, verseid.model.predict_proba

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    yield from arrays(item)
            elif isinstance(obj, dict):
                yield from arrays(list(obj.values()))

        def recording_forward(ids, params, enc_cfg, train=True):
            states, cache = real_forward(ids, params, enc_cfg, train)
            if train:
                kept = {id(p) for p in params.values()}
                cached.extend(weakref.ref(a) for a in arrays(cache) if id(a) not in kept)
            return states, cache

        def checking_predict(*args, **kwargs):
            alive_at_validation.append(sum(ref() is not None for ref in cached))
            return real_predict(*args, **kwargs)

        with mock.patch("verseid.model.encoder_forward", recording_forward), \
                mock.patch("verseid.model.predict_proba", checking_predict):
            fit(train_ds, valid_ds, space, enc, cfg)
        assert cached
        assert alive_at_validation == [0, 0]

    def test_numerical_blowup_raises(self, small_synth):
        space, train_recs, valid_recs, _ = build_pipeline(small_synth)
        train_ds = build_dataset(train_recs, space)
        valid_ds = build_dataset(valid_recs, space)
        enc = EncoderConfig(vocab_size=len(space.vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8)
        cfg = TrainConfig.desk(lr=1e12, max_epochs=2, seed=0)
        with pytest.raises(NumericalError, match="non-finite"), np.errstate(all="ignore"):
            fit(train_ds, valid_ds, space, enc, cfg)


@pytest.fixture(scope="module")
def trained_bundle(small_synth):
    space, train_recs, valid_recs, test_recs = build_pipeline(small_synth)
    train_ds = build_dataset(train_recs, space)
    valid_ds = build_dataset(valid_recs, space)
    enc = EncoderConfig(vocab_size=len(space.vocab), d_model=16, n_heads=2, n_layers=1, d_ff=32)
    bundle = fit(train_ds, valid_ds, space, enc, TrainConfig.desk(max_epochs=3, seed=2))
    test_ds = build_dataset(test_recs, space)
    return bundle, test_ds, test_recs


class TestCheckpoint:
    def test_round_trip_predictions_bitwise(self, trained_bundle, tmp_path):
        bundle, test_ds, _ = trained_bundle
        before = predict_proba(test_ds, bundle)
        path = tmp_path / "model.bin"
        save_checkpoint(bundle, path)
        again = load_checkpoint(path, bundle.space.vocab, bundle.space.embeddings)
        after = predict_proba(test_ds, again)
        np.testing.assert_array_equal(before, after)
        assert again.space.poet_index == bundle.space.poet_index
        assert again.train_cfg == bundle.train_cfg
        assert again.enc_cfg == bundle.enc_cfg

    def test_load_initialises_nothing_and_draws_no_random_numbers(self, trained_bundle, tmp_path,
                                                                 monkeypatch):
        bundle, _, _ = trained_bundle
        path = tmp_path / "model.bin"
        save_checkpoint(bundle, path)

        def forbidden(*args, **kwargs):
            raise AssertionError("loading a checkpoint drew random numbers or initialised parameters")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        for module in (verseid.model, verseid.encoder):
            for name in ("init_params", "init_encoder_params", "init_head_params"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        again = load_checkpoint(path, bundle.space.vocab, bundle.space.embeddings)
        np.testing.assert_array_equal(again.params, bundle.params)
        assert again.manifest == bundle.manifest

    def test_load_then_save_is_byte_identical(self, trained_bundle, tmp_path):
        bundle, _, _ = trained_bundle
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(bundle, first)
        save_checkpoint(load_checkpoint(first, bundle.space.vocab, bundle.space.embeddings), second)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(
        heads=st.integers(1, 3),
        head_dim=st.integers(1, 4),
        n_layers=st.integers(1, 2),
        d_ff=st.integers(1, 9),
        max_len=st.integers(1, 80),
        head_hidden=st.integers(1, 12),
        use_text=st.booleans(),
        bits_seed=st.integers(0, 2**32 - 1),
        log_summary=st.dictionaries(
            st.text(max_size=6), st.one_of(st.integers(), st.floats(allow_nan=False)), max_size=3
        ),
    )
    def test_round_trip_of_drawn_sizes(self, trained_bundle, tmp_path_factory, heads, head_dim,
                                       n_layers, d_ff, max_len, head_hidden, use_text,
                                       bits_seed, log_summary):
        base = trained_bundle[0]
        space = dataclasses.replace(base.space, fusion=FusionConfig(use_text=use_text),
                                    max_len=max_len)
        enc_cfg = EncoderConfig(vocab_size=len(space.vocab), d_model=heads * head_dim,
                                n_heads=heads, n_layers=n_layers, d_ff=d_ff, max_len=max_len)
        train_cfg = TrainConfig.desk(head_hidden=head_hidden)
        enc_params = init_encoder_params(enc_cfg) if use_text else {}
        head_params = init_head_params(space.concat_dim(enc_cfg.d_model), head_hidden,
                                       space.n_classes, seed=0)
        manifest = param_manifest(enc_params, head_params)
        n = sum(math.prod(shape) for _, shape in manifest)
        # Arbitrary float32 bit patterns, NaN payloads and infinities included.
        bits = np.random.default_rng(bits_seed).integers(0, 2**32, n, dtype=np.uint32)
        bundle = ModelBundle(space, enc_cfg, bits.view(np.float32), manifest, train_cfg,
                             log_summary=log_summary)
        path = tmp_path_factory.mktemp("ckpt") / "model.bin"
        path.write_bytes(_checkpoint_bytes(bundle))
        again = load_checkpoint(path, space.vocab, space.embeddings)
        np.testing.assert_array_equal(again.params.view(np.uint32), bits)
        assert again.manifest == manifest
        assert again.enc_cfg == enc_cfg
        assert again.train_cfg == train_cfg
        assert again.space.to_dict() == space.to_dict()
        assert again.space.max_len == max_len
        assert again.log_summary == log_summary

    def test_stale_vocab_rejected(self, trained_bundle, tmp_path, small_synth):
        bundle, _, _ = trained_bundle
        path = tmp_path / "model.bin"
        save_checkpoint(bundle, path)
        other_vocab = build_vocab(token_lists(small_synth.records), min_freq=3)
        with pytest.raises(StaleArtifactError, match="vocabulary") as info:
            load_checkpoint(path, other_vocab, bundle.space.embeddings)
        assert str(path) in str(info.value)

    def test_stale_embeddings_rejected(self, trained_bundle, tmp_path):
        bundle, _, _ = trained_bundle
        path = tmp_path / "model.bin"
        save_checkpoint(bundle, path)
        other = train_sgns([[3, 4]], len(bundle.space.vocab), EmbeddingConfig(dim=4, epochs=1))[0]
        with pytest.raises(StaleArtifactError, match="embeddings") as info:
            load_checkpoint(path, bundle.space.vocab, other)
        assert str(path) in str(info.value)

    def test_poem_grouping(self, trained_bundle):
        bundle, test_ds, test_recs = trained_bundle
        probs = predict_proba(test_ds, bundle)
        poem_ids, matrices, labels = poem_probability_groups(test_ds, probs)
        assert len(poem_ids) == len({p for p in test_ds.poem_ids})
        assert sum(m.shape[0] for m in matrices) == len(test_ds)
        first = test_recs[0]
        assert poem_ids[0] == first.poem_id
        assert labels[0] == bundle.space.poet_index[first.poet]


class TestTrainingStep:
    def test_flat_gradient_is_the_per_block_gradients(self, trained_bundle):
        # _gradient overwrites every element of the flat buffer with the bits
        # the backward passes give when they allocate their own arrays.
        bundle, ds, _ = trained_bundle
        sel, w = np.arange(1, 17), np.linspace(0.5, 2.0, bundle.space.n_classes)
        flat = np.full_like(bundle.params, np.nan)
        verseid.model._gradient(bundle, ds, sel, w, np.random.default_rng(5), "a test",
                                param_views(flat, bundle.manifest))

        probs, (ecache, hcache) = verseid.model._forward_probs(
            verseid.model._batch_ids(ds.ids[sel]), ds.aux[sel], bundle, True, np.random.default_rng(5))
        _, d_logits, _ = batch_weighted_ce(probs, ds.labels[sel], w)
        hgrads, dh = head_backward(d_logits, hcache)
        d_states = dh[:, None, : bundle.enc_cfg.d_model]
        egrads = verseid.model.encoder_backward(d_states, ecache, bundle.enc_params, bundle.enc_cfg)
        assert flat.tobytes() == flatten_params(egrads, hgrads).tobytes()

    def test_step_and_predict_write_into_no_input(self, trained_bundle):
        # Every parameter view and dataset row is read-only, so a block that
        # wrote into one would raise.
        bundle, ds, _ = trained_bundle
        frozen = ModelBundle(bundle.space, bundle.enc_cfg, read_only(bundle.params.copy()),
                             bundle.manifest, bundle.train_cfg)
        assert not any(p.flags.writeable for p in (*frozen.enc_params.values(),
                                                   *frozen.head_params.values()))
        rows = FeatureDataset(*read_only([ds.ids.copy(), ds.aux.copy(), ds.labels.copy()]),
                              ds.poem_ids, ds.verse_indices)
        flat = np.full_like(bundle.params, np.nan)
        w = np.ones(bundle.space.n_classes)
        verseid.model._gradient(frozen, rows, np.arange(16), w, np.random.default_rng(0), "a test",
                                param_views(flat, bundle.manifest))
        assert np.isfinite(flat).all()
        np.testing.assert_array_equal(predict_proba(rows, frozen), predict_proba(ds, bundle))
