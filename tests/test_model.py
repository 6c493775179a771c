"""Classifier head, losses, optimizer, schedule, and the training loop."""

import math

import numpy as np
import pytest

from verseid.cli import main
from verseid.corpus import save_corpus
from verseid.embeddings import EmbeddingConfig, train_sgns, verse_semantic_vector
from verseid.encoder import EncoderConfig
from verseid.features import one_hot_form, one_hot_meter, stylometric_features
from verseid.model import (
    AdamW,
    FeatureSpace,
    FusionConfig,
    NumericalError,
    StaleArtifactError,
    TrainConfig,
    batch_weighted_ce,
    build_dataset,
    class_weights,
    clip_gradients,
    fit,
    head_backward,
    head_forward,
    init_head_params,
    l2_penalty,
    load_checkpoint,
    lr_at_step,
    poem_probability_groups,
    predict_proba,
    save_checkpoint,
    training_log_csv,
    weighted_cross_entropy,
)
from verseid.normalize import build_vocab, normalize_verse, tokenize_verse
from verseid.split import LeakageError, split_records, stratified_poem_split
from verseid.synthetic import SyntheticConfig, make_synthetic_corpus

from conftest import make_poem, token_lists


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


class TestOptimizerAndSchedule:
    def test_adamw_single_step_hand_computed(self):
        p = np.array([1.0], dtype=np.float64)
        opt = AdamW(p, weight_decay=0.0)
        opt.step(p, np.array([0.5]), lr=0.1)
        # m_hat = 0.5, v_hat = 0.25 -> update = 0.1 * 0.5 / (0.5 + 1e-8)
        assert p[0] == pytest.approx(1.0 - 0.1 * 0.5 / (0.5 + 1e-8))

    def test_decoupled_decay_shrinks_without_gradient(self):
        p = np.array([2.0], dtype=np.float64)
        opt = AdamW(p, weight_decay=0.01, decoupled=True)
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

    def test_l2_penalty_value(self):
        assert l2_penalty(np.array([1.0, 2.0, 3.0], dtype=np.float32), 0.1) == pytest.approx(0.1 * 14.0)

    def test_warmup_then_cosine(self):
        lr = 3.0
        assert lr_at_step(1, 100, 0.1, lr) == pytest.approx(lr / 10)
        assert lr_at_step(10, 100, 0.1, lr) == pytest.approx(lr)
        assert lr_at_step(55, 100, 0.1, lr) == pytest.approx(lr / 2)
        assert lr_at_step(100, 100, 0.1, lr) == pytest.approx(0.0, abs=1e-12)
        after_warmup = [lr_at_step(s, 100, 0.1, lr) for s in range(10, 101)]
        assert all(a >= b for a, b in zip(after_warmup, after_warmup[1:]))

    def test_clip_rescales_global_norm(self):
        grads = np.array([3.0, 4.0])
        norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert math.hypot(*grads) == pytest.approx(1.0)

    def test_clip_noop_below_threshold(self):
        grads = np.array([0.3])
        clip_gradients(grads, 1.0)
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
                ids = tokenize_verse(t1 + t2, space.vocab, space.max_len)
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

        def count(module, name):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count(verseid.normalize, "normalize_text")
        count(verseid.model, "stylometric_features")
        calls.update(normalize_text=0, stylometric_features=0)
        build_dataset(train_recs, space)
        # normalize_verse calls normalize_text once per hemistich.
        assert calls["normalize_text"] == 2 * sum(r.n_verses for r in train_recs)

        # The desk corpus: 6,511 train and 810 valid verses at split seed 0.
        save_corpus(make_synthetic_corpus(SyntheticConfig()), tmp_path / "desk.jsonl")
        data, split, emb = (str(tmp_path / name) for name in ("desk.jsonl", "split", "emb"))
        assert main(["split", "--corpus", data, "--seed", "0", "--out", split]) == 0
        calls.update(normalize_text=0, stylometric_features=0)
        assert main(["train-embeddings", "--corpus", data, "--split", split, "--out", emb,
                     "--dim", "8", "--epochs", "1", "--window", "1"]) == 0
        assert calls == {"normalize_text": 13_022, "stylometric_features": 0}
        calls.update(normalize_text=0, stylometric_features=0)
        assert main(["train", "--corpus", data, "--split", split, "--embeddings", emb,
                     "--out", str(tmp_path / "model"), "--epochs", "1", "--d-model", "8",
                     "--n-heads", "2", "--n-layers", "1", "--d-ff", "8",
                     "--head-hidden", "8"]) == 0
        assert calls == {"normalize_text": 14_642, "stylometric_features": 7_321}

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
        assert train_ds.token_ids == rebuilt.token_ids
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

    def test_numerical_blowup_raises(self, small_synth):
        space, train_recs, valid_recs, _ = build_pipeline(small_synth)
        train_ds = build_dataset(train_recs, space)
        valid_ds = build_dataset(valid_recs, space)
        enc = EncoderConfig(vocab_size=len(space.vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8)
        cfg = TrainConfig.desk(lr=1e12, max_epochs=2, seed=0)
        with pytest.raises(NumericalError, match="non-finite"), np.errstate(all="ignore"):
            fit(train_ds, valid_ds, space, enc, cfg)

    def test_coupled_l2_increases_loss_but_trains(self, small_synth):
        space, train_recs, valid_recs, _ = build_pipeline(small_synth)
        train_ds = build_dataset(train_recs, space)
        valid_ds = build_dataset(valid_recs, space)
        enc = EncoderConfig(vocab_size=len(space.vocab), d_model=8, n_heads=2, n_layers=1, d_ff=8)
        plain = fit(train_ds, valid_ds, space, enc, TrainConfig.desk(max_epochs=1, weight_decay=0.0))
        coupled = fit(
            train_ds, valid_ds, space, enc,
            TrainConfig.desk(max_epochs=1, weight_decay=0.01, coupled_l2=True),
        )
        assert coupled.log[0].train_loss > plain.log[0].train_loss


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

    def test_load_then_save_is_byte_identical(self, trained_bundle, tmp_path):
        bundle, _, _ = trained_bundle
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(bundle, first)
        save_checkpoint(load_checkpoint(first, bundle.space.vocab, bundle.space.embeddings), second)
        assert first.read_bytes() == second.read_bytes()

    def test_stale_vocab_rejected(self, trained_bundle, tmp_path, small_synth):
        bundle, _, _ = trained_bundle
        path = tmp_path / "model.bin"
        save_checkpoint(bundle, path)
        other_vocab = build_vocab(token_lists(small_synth.records), min_freq=3)
        with pytest.raises(StaleArtifactError, match="vocabulary"):
            load_checkpoint(path, other_vocab, bundle.space.embeddings)

    def test_stale_embeddings_rejected(self, trained_bundle, tmp_path):
        bundle, _, _ = trained_bundle
        path = tmp_path / "model.bin"
        save_checkpoint(bundle, path)
        other = train_sgns([[3, 4]], len(bundle.space.vocab), EmbeddingConfig(dim=4, epochs=1))[0]
        with pytest.raises(StaleArtifactError, match="embeddings"):
            load_checkpoint(path, bundle.space.vocab, other)

    def test_poem_grouping(self, trained_bundle):
        bundle, test_ds, test_recs = trained_bundle
        probs = predict_proba(test_ds, bundle)
        poem_ids, matrices, labels = poem_probability_groups(test_ds, probs)
        assert len(poem_ids) == len({p for p in test_ds.poem_ids})
        assert sum(m.shape[0] for m in matrices) == len(test_ds)
        first = test_recs[0]
        assert poem_ids[0] == first.poem_id
        assert labels[0] == bundle.space.poet_index[first.poet]
