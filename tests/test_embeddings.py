"""Skip-gram embedding training and serialization."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseid import embeddings
from verseid.corpus import NumericalError
from verseid.embeddings import (
    MIN_LR_FACTOR,
    EmbeddingConfig,
    EmbeddingMatrix,
    semantic_vectors,
    train_sgns,
    verse_semantic_vector,
    _add_outer,
    _log_sigmoid,
    _noise_sampler,
    _skipgram_pairs,
)
from verseid.normalize import CLS_ID, N_RESERVED, PAD_ID, UNK_ID


def toy_sequences():
    # Tokens 3 and 4 always co-occur; 5 and 6 always co-occur; never across.
    return [[3, 4], [4, 3], [5, 6], [6, 5]] * 30


def reference_pairs(sequences, window):
    """The pair list as a plain loop builds it; ``_skipgram_pairs`` must match
    it row for row, since the training permutation indexes into it."""
    pairs = []
    for seq in sequences:
        toks = [t for t in seq if t >= N_RESERVED]
        for i, center in enumerate(toks):
            lo = max(0, i - window)
            hi = min(len(toks), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    pairs.append((center, toks[j]))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def reference_train_sgns(sequences, vocab_size, cfg, batch_pairs):
    """The trainer, in minibatches of ``batch_pairs`` pairs, with a per-token
    count loop, one ``searchsorted`` draw of negatives per batch, and row-wise
    ``np.add.at`` scatters of every pair's outer products. ``train_sgns`` draws
    the same negatives from a bucket table, and sums the ``w_out`` update per
    distinct center in one GEMM, so it follows this reference up to float32
    rounding."""
    rng = np.random.default_rng(cfg.seed)
    w_in = ((rng.random((vocab_size, cfg.dim)) - 0.5) / cfg.dim).astype(np.float32)
    w_out = np.zeros((vocab_size, cfg.dim), dtype=np.float32)
    pairs = reference_pairs(sequences, cfg.window)
    counts = np.zeros(vocab_size, dtype=np.float64)
    for seq in sequences:
        for t in seq:
            if t >= N_RESERVED:
                counts[t] += 1
    noise = counts**0.75
    noise /= noise.sum()
    cum_noise = np.cumsum(noise)
    total_updates = cfg.epochs * len(pairs)
    done = 0
    losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for start in range(0, len(pairs), batch_pairs):
            batch = pairs[order[start : start + batch_pairs]]
            centers, contexts = batch[:, 0], batch[:, 1]
            b = len(batch)
            negs = np.searchsorted(cum_noise, rng.random((b, cfg.negatives)))
            targets = np.concatenate([contexts[:, None], negs], axis=1)
            labels = np.zeros((b, cfg.negatives + 1), dtype=np.float32)
            labels[:, 0] = 1.0
            v = w_in[centers]
            u = w_out[targets]
            scores = np.einsum("bd,bkd->bk", v, u)
            sig = 1.0 / (1.0 + np.exp(-np.clip(scores, -30.0, 30.0)))
            signed = np.where(labels > 0, scores, -scores).astype(np.float64)
            epoch_loss += float(-_log_sigmoid(signed).sum())
            alpha = cfg.lr * max(MIN_LR_FACTOR, 1.0 - done / total_updates)
            g = ((labels - sig) * alpha).astype(np.float32)
            d_v = np.einsum("bk,bkd->bd", g, u)
            d_u = g[:, :, None] * v[:, None, :]
            np.add.at(w_in, centers, d_v)
            np.add.at(w_out, targets.reshape(-1), d_u.reshape(-1, cfg.dim))
            done += b
        losses.append(epoch_loss / len(pairs))
    return EmbeddingMatrix(w_in, w_out, cfg), losses


# Sequences of few distinct ids, reserved ones among them, with empty,
# one-token and short sequences.
ID_SEQUENCES = st.lists(st.lists(st.integers(0, N_RESERVED + 5), max_size=7), max_size=8)


class TestPairs:
    def test_window_and_reserved_filtering(self):
        pairs = _skipgram_pairs([[CLS_ID, 3, PAD_ID, 4, UNK_ID, 5]], window=1)
        as_set = {tuple(p) for p in pairs}
        assert as_set == {(3, 4), (4, 3), (4, 5), (5, 4)}

    def test_window_width(self):
        pairs = _skipgram_pairs([[3, 4, 5, 6]], window=2)
        assert (3, 5) in {tuple(p) for p in pairs}
        assert (3, 6) not in {tuple(p) for p in pairs}

    def test_huge_window_is_clamped_to_the_longest_sequence(self):
        sequences = [[3, 4, 5, 6, 7], [CLS_ID, 8, 9, 3], [4]]
        np.testing.assert_array_equal(_skipgram_pairs(sequences, 10**12),
                                      _skipgram_pairs(sequences, 4))

    @settings(max_examples=200, deadline=None)
    @given(sequences=ID_SEQUENCES, window=st.integers(1, 9))
    def test_matches_reference_loop_in_order(self, sequences, window):
        pairs = _skipgram_pairs(sequences, window)
        want = reference_pairs(sequences, window)
        assert pairs.dtype == np.int64
        assert pairs.shape == want.shape  # (0, 2) when there are no pairs
        np.testing.assert_array_equal(pairs, want)


    def test_peak_is_at_most_twice_the_pairs(self):
        # About 20k tokens in verses of 0 to 15 ids, reserved ones among them:
        # no (tokens x 2 window) int64 matrix is built on the way.
        rng = np.random.default_rng(0)
        sequences = [rng.integers(0, 400, rng.integers(0, 16)).tolist() for _ in range(2600)]
        tracemalloc.start()
        try:
            pairs = _skipgram_pairs(sequences, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * pairs.nbytes


class TestTraining:
    def test_zero_lr_keeps_initialization(self):
        cfg = EmbeddingConfig(dim=8, epochs=2, lr=0.0, seed=3)
        ref_cfg = EmbeddingConfig(dim=8, epochs=0, lr=0.5, seed=3)
        trained, _ = train_sgns(toy_sequences(), 7, cfg)
        init, _ = train_sgns(toy_sequences(), 7, ref_cfg)
        np.testing.assert_array_equal(trained.w_in, init.w_in)
        np.testing.assert_array_equal(trained.w_out, init.w_out)

    def test_cooccurring_pair_scores_higher(self):
        cfg = EmbeddingConfig(dim=16, window=2, negatives=3, epochs=10, lr=0.05, seed=0)
        emb, _ = train_sgns(toy_sequences(), 7, cfg)
        together = float(emb.w_in[3] @ emb.w_out[4])
        apart = float(emb.w_in[3] @ emb.w_out[5])
        assert together > apart

    def test_loss_decreases(self):
        cfg = EmbeddingConfig(dim=16, window=2, negatives=3, epochs=5, lr=0.05, seed=0)
        _, losses = train_sgns(toy_sequences(), 7, cfg)
        assert len(losses) == 5
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        cfg = EmbeddingConfig(dim=8, epochs=2, seed=9)
        a, _ = train_sgns(toy_sequences(), 7, cfg)
        b, _ = train_sgns(toy_sequences(), 7, cfg)
        np.testing.assert_array_equal(a.w_in, b.w_in)
        np.testing.assert_array_equal(a.w_out, b.w_out)

    @staticmethod
    def check_follows_reference():
        # 40 real ids: the run converges (with 7 ids at this rate it diverges
        # and the drift grows with the weights). Measured: weights differ by
        # at most 3.3e-6 on magnitudes near 1, losses by 1.7e-9 relative.
        rng = np.random.default_rng(5)
        vocab_size = N_RESERVED + 40
        sequences = [list(rng.integers(0, vocab_size, rng.integers(0, 12))) for _ in range(300)]
        cfg = EmbeddingConfig(dim=8, window=3, epochs=3, lr=0.05, seed=4)
        got, got_losses = train_sgns(sequences, vocab_size, cfg)
        want, want_losses = reference_train_sgns(sequences, vocab_size, cfg, embeddings.BATCH_PAIRS)
        assert np.abs(want.w_out).max() > 0.5  # trained, not near the zero init
        np.testing.assert_allclose(got.w_in, want.w_in, rtol=0, atol=2e-5)
        np.testing.assert_allclose(got.w_out, want.w_out, rtol=0, atol=2e-5)
        np.testing.assert_allclose(got_losses, want_losses, rtol=1e-7)
        return len(_skipgram_pairs(sequences, cfg.window))

    def test_follows_row_wise_reference(self):
        self.check_follows_reference()

    def test_follows_reference_across_batch_boundaries(self, monkeypatch):
        # Batches of 11 pairs: each epoch ends on a short batch, whose draws
        # and targets must line up with the reference's.
        monkeypatch.setattr(embeddings, "BATCH_PAIRS", 11)
        n_pairs = self.check_follows_reference()
        assert n_pairs % 11

    def test_each_minibatch_draws_only_its_own_negatives(self, monkeypatch):
        draws = []
        make_sampler = embeddings._noise_sampler

        def counting_sampler(counts):
            sample = make_sampler(counts)

            def counted(u):
                draws.append(u.shape)
                return sample(u)

            return counted

        monkeypatch.setattr(embeddings, "_noise_sampler", counting_sampler)
        monkeypatch.setattr(embeddings, "BATCH_PAIRS", 7)
        cfg = EmbeddingConfig(dim=4, window=2, negatives=3, epochs=2, seed=1)
        n_pairs = len(_skipgram_pairs(toy_sequences(), cfg.window))
        assert n_pairs > 7 * 4 and n_pairs % 7  # several batches, a short last one
        train_sgns(toy_sequences(), 7, cfg)
        assert all(rows <= 7 and k == cfg.negatives for rows, k in draws)
        assert sum(rows * k for rows, k in draws) == cfg.epochs * n_pairs * cfg.negatives

    def test_no_pairs_warns(self):
        cfg = EmbeddingConfig(dim=4, epochs=1)
        with pytest.warns(UserWarning, match="no skip-gram pairs"):
            emb, losses = train_sgns([[3], [4]], 5, cfg)
        assert losses == []
        assert emb.w_in.shape == (5, 4)


class TestNoiseSampler:
    @staticmethod
    def full_cdf(counts):
        noise = counts**0.75
        return np.cumsum(noise / noise.sum())

    def test_draws_match_searchsorted_and_stay_in_the_real_ids(self):
        # Random count vectors with zero counts inside and at the end; in
        # about half of them the CDF's last entry rounds below 1.0.
        rng = np.random.default_rng(11)
        short_total = 0
        edges = np.arange(1 << 16) / (1 << 16)  # every bucket edge of these tables
        for _ in range(60):
            real = rng.integers(0, 40, rng.integers(1, 50)).astype(np.float64)
            real[0] = 1.0 + rng.integers(0, 40)
            counts = np.concatenate([np.zeros(N_RESERVED), real])
            cum = self.full_cdf(counts)
            short_total += cum[-1] < 1.0
            sample = _noise_sampler(counts)
            last = np.flatnonzero(counts)[-1]

            inside = cum[(cum > 0.0) & (cum <= cum[-1])]
            u = np.concatenate([rng.random(5000), inside, np.nextafter(inside, 0.0),
                                edges[1:], np.nextafter(edges[1:], 0.0)])
            u = u[(u <= cum[-1]) & (u < 1.0)]
            np.testing.assert_array_equal(sample(u), np.searchsorted(cum, u))

            # The largest draw, and the smallest past the CDF's last entry,
            # where searchsorted returns len(cum), one past the vocabulary.
            tail = np.array([np.nextafter(1.0, 0.0), np.nextafter(cum[-1], 1.0)])
            tail = tail[tail < 1.0]
            np.testing.assert_array_equal(sample(tail), np.full(len(tail), last))
            assert sample(np.zeros(3)).tolist() == [N_RESERVED] * 3
        assert short_total > 0

    def test_two_dimensional_draws_keep_their_shape(self):
        counts = np.array([0, 0, 0, 5, 1, 0, 9], dtype=np.float64)
        u = np.random.default_rng(0).random((50, 5))
        got = _noise_sampler(counts)(u)
        assert got.shape == (50, 5)
        np.testing.assert_array_equal(got, np.searchsorted(self.full_cdf(counts), u))
        assert not np.isin(got, [PAD_ID, CLS_ID, UNK_ID, 5]).any()


class TestOutputUpdate:
    @staticmethod
    def check_one_minibatch(n_centers):
        # 512 rows of six targets over 30 ids: ids repeat within a row (the
        # context is drawn again as a negative) and across rows; ids 30-33
        # are never drawn and must keep their bits. Rows of one center share
        # its vector.
        rng = np.random.default_rng(2)
        b, k, dim, vocab_size = 512, 6, 16, 34
        targets = rng.integers(0, 30, (b, k))
        targets[::3, 1] = targets[::3, 0]
        g = rng.standard_normal((b, k)).astype(np.float32)
        rows = np.arange(b) if n_centers == b else rng.integers(0, n_centers, b)
        x = rng.standard_normal((n_centers, dim)).astype(np.float32)
        w = rng.standard_normal((vocab_size, dim)).astype(np.float32)

        want = w.astype(np.float64)
        scale = np.abs(want)
        for i in range(b):
            for j in range(k):
                term = np.float64(g[i, j]) * x[rows[i]].astype(np.float64)
                want[targets[i, j]] += term
                scale[targets[i, j]] += np.abs(term)
        got = w.copy()
        _add_outer(got, targets, g, rows, x)
        assert got.dtype == np.float32
        # float32 rounding of each row's sum: measured at most 0.94 eps of
        # the summed magnitudes over the three tests.
        assert (np.abs(got - want) <= 16 * np.finfo(np.float32).eps * scale).all()
        np.testing.assert_array_equal(got[30:], w[30:])

    def test_one_minibatch_matches_float64_sum(self):
        self.check_one_minibatch(40)  # centers repeat

    def test_every_center_distinct(self):
        self.check_one_minibatch(512)

    def test_one_center_fills_the_batch(self):
        self.check_one_minibatch(1)


class TestNumericalFailure:
    def test_divergent_run_raises_naming_the_epoch(self):
        # The toy corpus is one minibatch, and its first update cannot
        # overflow (w_out starts at zero), so the second epoch is the first
        # to end non-finite.
        cfg = EmbeddingConfig(dim=8, epochs=3, lr=1e30, seed=0)
        with pytest.raises(NumericalError, match="at epoch 2,"), np.errstate(all="ignore"):
            train_sgns(toy_sequences(), 7, cfg)


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = EmbeddingConfig(dim=8, epochs=1, seed=2)
        emb, _ = train_sgns(toy_sequences(), 7, cfg)
        path = tmp_path / "emb.bin"
        emb.save(path)
        again = EmbeddingMatrix.load(path)
        np.testing.assert_array_equal(again.w_in, emb.w_in)
        np.testing.assert_array_equal(again.w_out, emb.w_out)
        assert again.config == emb.config
        assert again.content_hash() == emb.content_hash()

    def test_loaded_hash_is_the_digest_of_the_file(self, tmp_path, monkeypatch):
        emb, _ = train_sgns(toy_sequences(), 7, EmbeddingConfig(dim=8, epochs=1, seed=2))
        assert emb.content_hash() == hashlib.sha256(emb.to_bytes()).hexdigest()
        path = tmp_path / "emb.bin"
        emb.save(path)
        again = EmbeddingMatrix.load(path)
        monkeypatch.setattr(EmbeddingMatrix, "to_bytes", None)  # not re-serialized
        assert again.content_hash() == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            EmbeddingMatrix.load(path)


class TestVerseVector:
    def emb(self):
        w_in = np.arange(20, dtype=np.float32).reshape(5, 4)
        return EmbeddingMatrix(w_in, np.zeros_like(w_in), EmbeddingConfig(dim=4))

    def test_mean_of_content_tokens(self):
        vec = verse_semantic_vector([CLS_ID, 3, 4], self.emb())
        np.testing.assert_allclose(vec, self.emb().w_in[[3, 4]].mean(axis=0))

    def test_reserved_only_is_zero(self):
        vec = verse_semantic_vector([CLS_ID, UNK_ID, UNK_ID], self.emb())
        np.testing.assert_array_equal(vec, np.zeros(4, dtype=np.float32))

    def test_empty_is_zero(self):
        np.testing.assert_array_equal(
            verse_semantic_vector([], self.emb()), np.zeros(4, dtype=np.float32)
        )

    def test_out_block_gets_the_returned_bytes(self, rng):
        emb = EmbeddingMatrix(rng.normal(size=(9, 4)).astype(np.float32),
                              np.zeros((9, 4), np.float32), EmbeddingConfig(dim=4))
        ids = rng.integers(0, 9, size=(6, 5))
        ids[2] = PAD_ID  # a row of reserved ids only
        wide = np.full((6, 7), np.nan, dtype=np.float32)
        got = semantic_vectors(ids, emb, out=wide[:, 1:5])  # a strided column block
        assert got.base is wide
        assert np.ascontiguousarray(wide[:, 1:5]).tobytes() == semantic_vectors(ids, emb).tobytes()
        assert np.isnan(wide[:, [0, 5, 6]]).all()  # nothing outside the block is written
