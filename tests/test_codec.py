import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_lm import _kernels, codec, corpus, formats, pipeline
from codec_lm.corpus import Waveform
from codec_lm.errors import ValidationError


def _random_codebooks(rng, *, sample_rate=8000, stride=80, q=4, k=16):
    cfg = codec.CodecConfig(sample_rate=sample_rate, stride=stride, quantizers=q, codebook_size=k)
    cs = codec.initial_codebooks(cfg, rng)
    books = rng.normal(size=cs.books.shape)
    books[1:, 0, :] = 0.0
    return codec.CodebookSet(books=books, sample_rate=sample_rate)


def _dct_basis(dim, stride):
    """First `dim` rows of the orthonormal type-II DCT on `stride` points:
    the frame transform the codec once applied, kept here as a reference."""
    n = np.arange(stride)
    k = np.arange(dim)[:, None]
    basis = np.cos(np.pi * (2 * n[None, :] + 1) * k / (2 * stride))
    scale = np.full((dim, 1), math.sqrt(2.0 / stride))
    scale[0, 0] = math.sqrt(1.0 / stride)
    return scale * basis


def test_a_square_dct_changes_no_stage_1_fit(tiny_corpus_dir):
    """Why the codec has no frame transform: k-means++, Lloyd and the
    nearest-codeword search read only L2 distances, which an orthonormal
    rotation keeps. On the tiny corpus's stage-1 frames, fitting the raw
    frames and their square DCT from one seed gives the same assignment of
    every row, and centers related by the basis."""
    cfg = codec.CodecConfig()
    data = corpus.load_corpus(tiny_corpus_dir)
    frames = np.concatenate([codec.frame_encode(corpus.read_waveform(r.path), cfg)
                             for r in data.split_records("train")])
    basis = _dct_basis(cfg.stride, cfg.stride)
    np.testing.assert_allclose(basis @ basis.T, np.eye(cfg.stride), atol=1e-12)
    rotated = frames @ basis.T
    raw_centers = codec.kmeans_fit(frames, 64, 8, np.random.default_rng(3))
    rot_centers = codec.kmeans_fit(rotated, 64, 8, np.random.default_rng(3))
    np.testing.assert_allclose(rot_centers, raw_centers @ basis.T, rtol=0, atol=1e-9)
    codes = _kernels.nearest_codeword(frames, raw_centers)
    assert np.array_equal(_kernels.nearest_codeword(rotated, rot_centers), codes)
    assert np.unique(codes).size == 64


class TestFrameEncode:
    def test_paper_scale_shape(self, rng):
        cfg = codec.CodecConfig(sample_rate=24000, stride=320, quantizers=8, codebook_size=1024)
        cs = codec.initial_codebooks(cfg, rng)
        w = Waveform(samples=rng.uniform(-0.5, 0.5, 240000), sample_rate=24000)
        frames = codec.frame_encode(w, cs)
        assert frames.shape == (750, 320)

    def test_zero_in_zero_out(self, rng):
        cs = _random_codebooks(rng)
        w = Waveform(samples=np.zeros(800), sample_rate=8000)
        assert not codec.frame_encode(w, cs).any()

    def test_frames_are_a_copy_of_the_samples(self, rng):
        cs = _random_codebooks(rng)
        w = Waveform(samples=rng.uniform(-1, 1, 8050), sample_rate=8000)
        frames = codec.frame_encode(w, cs)
        assert np.array_equal(frames, w.samples[:8000].reshape(100, 80))
        frames[0, 0] = 7.0  # a copy: writing into the frames leaves the waveform as it was
        assert w.samples[0] != 7.0

    def test_sample_rate_mismatch(self, rng):
        cs = _random_codebooks(rng)
        with pytest.raises(ValidationError):
            codec.frame_encode(Waveform(np.zeros(1000), 16000), cs)

    def test_too_short(self, rng):
        cs = _random_codebooks(rng)
        with pytest.raises(ValidationError):
            codec.frame_encode(Waveform(np.zeros(79), 8000), cs)


class TestRvq:
    def test_exact_codeword_match_uses_zero_tail(self, rng):
        cs = _random_codebooks(rng)
        frames = cs.books[0][[7]].copy()
        cm = codec.rvq_encode(frames, cs)
        assert cm.codes[0, 0] == 7
        np.testing.assert_array_equal(cm.codes[0, 1:], 0)

    def test_greedy_matches_bruteforce(self, rng):
        """Oracle: exhaustive per-stage argmin with smallest-index ties."""
        for _ in range(50):
            d = int(rng.integers(2, 9))
            k = int(rng.integers(2, 17))
            q = int(rng.integers(1, 5))
            cfg = codec.CodecConfig(sample_rate=8000, stride=d, quantizers=q, codebook_size=k)
            cs = codec.initial_codebooks(cfg, rng)
            books = rng.normal(size=cs.books.shape)
            books[1:, 0, :] = 0.0
            cs = codec.CodebookSet(books=books, sample_rate=8000)
            frames = rng.normal(size=(3, d))
            cm = codec.rvq_encode(frames, cs)
            for t in range(3):
                resid = frames[t].copy()
                for j in range(q):
                    dists = ((books[j] - resid) ** 2).sum(axis=1)
                    choice = int(np.argmin(dists))
                    assert cm.codes[t, j] == choice
                    resid = resid - books[j][choice]

    def test_paper_shape_750x8(self, rng):
        cfg = codec.CodecConfig(sample_rate=24000, stride=320, quantizers=8, codebook_size=1024)
        cs = codec.initial_codebooks(cfg, rng)
        w = Waveform(samples=rng.uniform(-0.5, 0.5, 240000), sample_rate=24000)
        cm = codec.rvq_encode(codec.frame_encode(w, cs), cs)
        assert cm.codes.shape == (750, 8)

    def test_decode_single_stage(self, rng):
        cs = _random_codebooks(rng)
        cm = codec.CodeMatrix(
            codes=rng.integers(0, 16, size=(5, 4)), codebook_size=16
        )
        frames = codec.rvq_decode(cm, cs, stages=1)
        np.testing.assert_array_equal(frames, cs.books[0][cm.codes[:, 0]])

    def test_zero_codewords_are_inert(self, rng):
        cs = _random_codebooks(rng)
        codes = np.zeros((6, 4), dtype=np.int64)
        codes[:, 0] = rng.integers(0, 16, size=6)
        cm = codec.CodeMatrix(codes=codes, codebook_size=16)
        full = codec.rvq_decode(cm, cs, stages=4)
        first = codec.rvq_decode(cm, cs, stages=1)
        np.testing.assert_array_equal(full, first)

    def test_exact_sum_round_trip(self, rng):
        """Oracle: build the frame as an explicit sum of one codeword per book."""
        cs = _random_codebooks(rng)
        picks = [3, 5, 0, 9]
        frame = sum(cs.books[j][picks[j]] for j in range(4))[None, :]
        cm = codec.rvq_encode(frame, cs)
        recon = codec.rvq_decode(cm, cs)
        np.testing.assert_allclose(recon, frame, atol=1e-9)

    def test_stage_out_of_range(self, rng):
        cs = _random_codebooks(rng)
        cm = codec.CodeMatrix(codes=np.zeros((2, 4), dtype=int), codebook_size=16)
        with pytest.raises(ValidationError):
            codec.rvq_decode(cm, cs, stages=0)
        with pytest.raises(ValidationError):
            codec.rvq_decode(cm, cs, stages=5)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_monotone_refinement(self, seed):
        rng = np.random.default_rng(seed)
        cs = _random_codebooks(rng, stride=6, q=4, k=8)
        frames = rng.normal(size=(10, 6))
        cm = codec.rvq_encode(frames, cs)
        errs = []
        for j in range(1, 5):
            recon = codec.rvq_decode(cm, cs, stages=j)
            errs.append(((frames - recon) ** 2).mean())
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12


class TestFrameDecode:
    def test_zero_frames_zero_waveform(self, rng):
        cs = _random_codebooks(rng)
        w = codec.frame_decode(np.zeros((7, 80)), cs)
        assert not w.samples.any()
        assert w.samples.size == 7 * 80

    def test_orthonormal_round_trip(self, rng):
        """Framing is the identity transform, so the round trip is exact."""
        cs = _random_codebooks(rng)
        w = Waveform(samples=rng.uniform(-1, 1, 8000), sample_rate=8000)
        back = codec.frame_decode(codec.frame_encode(w, cs), cs)
        assert np.array_equal(back.samples, w.samples)

    def test_length_law(self, rng):
        cfg = codec.CodecConfig(sample_rate=24000, stride=320, quantizers=2, codebook_size=4)
        cs = codec.initial_codebooks(cfg, rng)
        w = codec.frame_decode(np.zeros((750, 320)), cs)
        assert w.samples.size == 240000

    def test_linearity(self, rng):
        cs = _random_codebooks(rng)
        a = rng.uniform(-0.4, 0.4, 800)
        b = rng.uniform(-0.4, 0.4, 800)
        wa = Waveform(a, 8000)
        wb = Waveform(b, 8000)
        wab = Waveform(a + b, 8000)
        fa, fb, fab = (codec.frame_encode(w, cs) for w in (wa, wb, wab))
        np.testing.assert_allclose(fab, fa + fb, atol=1e-12)
        np.testing.assert_allclose(
            codec.frame_decode(fa + fb, cs).samples,
            np.clip(codec.frame_decode(fa, cs).samples + codec.frame_decode(fb, cs).samples, -1, 1),
            atol=1e-12,
        )


class TestSnr:
    def test_identical_is_infinite(self):
        w = Waveform(np.ones(100) * 0.5, 8000)
        assert codec.reconstruction_snr(w, w) == math.inf

    def test_zero_reconstruction_is_zero_db(self):
        w = Waveform(np.ones(100) * 0.5, 8000)
        z = Waveform(np.zeros(100), 8000)
        assert codec.reconstruction_snr(w, z) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_sine_is_20db(self):
        """Oracle: closed form 10*log10(1/0.01)."""
        t = np.arange(8000) / 8000
        x = np.sin(2 * np.pi * 100 * t)
        w = Waveform(x, 8000)
        w9 = Waveform(0.9 * x, 8000)
        assert codec.reconstruction_snr(w, w9) == pytest.approx(20.0, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            codec.reconstruction_snr(Waveform(np.zeros(5), 8000), Waveform(np.zeros(6), 8000))


# -- k-means oracles: the direct-distance k-means++ loop and the fixed-iteration
# Lloyd loop with np.add.at, as the codec first fitted them ----------------------

def _oracle_kmeans_plusplus(data, k, rng):
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = data[rng.integers(n)]
            continue
        probs = d2 / total
        centers[i] = data[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((data - centers[i]) ** 2).sum(axis=1))
    return centers


def _oracle_kmeans_fit(data, k, iters, rng):
    data = np.asarray(data, dtype=np.float64)
    distinct = np.unique(data, axis=0)
    if distinct.shape[0] < k:
        centers = np.zeros((k, data.shape[1]))
        centers[: distinct.shape[0]] = distinct
        return centers
    centers = _oracle_kmeans_plusplus(data, k, rng)
    for _ in range(iters):
        codes = _kernels.nearest_codeword(data, centers)
        sums = np.zeros((k, data.shape[1]))
        counts = np.zeros(k, dtype=np.int64)
        np.add.at(sums, codes, data)
        np.add.at(counts, codes, 1)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
    return centers


class TestKmeansOracles:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_weighted_row_draws_as_rng_choice(self, seed):
        """Same pick and same stream as rng.choice, zero weights included."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        d2 = rng.exponential(size=n) * (rng.random(n) < 0.6)
        d2[rng.integers(n)] = rng.exponential() + 1e-3  # a positive total
        total = d2.sum()
        for s in range(20):
            got_rng, want_rng = np.random.default_rng([seed, s]), np.random.default_rng([seed, s])
            got = codec._weighted_row(d2, total, got_rng)
            assert got == want_rng.choice(n, p=d2 / total)
            assert d2[got] > 0
            assert got_rng.random() == want_rng.random()

    def test_plusplus_refuses_non_finite_distances(self):
        data = np.zeros((10, 3))
        data[4, 1] = np.inf
        with pytest.raises(ValidationError, match="not finite"):
            codec._kmeans_plusplus(data, 4, np.random.default_rng(0))

    def test_distinct_rows_counted_only_when_init_runs_out(self, make_rows, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called")

        data = make_rows(np.random.default_rng(3))
        want = _oracle_kmeans_fit(data, 32, 2, np.random.default_rng(7))
        monkeypatch.setattr(np, "unique", refuse)
        got = codec.kmeans_fit(data, 32, 2, np.random.default_rng(7))
        np.testing.assert_array_equal(got, want)

    def test_underflowing_distinct_rows_fall_back_to_random_rows(self, caplog):
        """Distinct rows whose squared distances underflow to 0: the init
        runs out, counts k or more distinct rows and draws random ones."""
        data = np.random.default_rng(2).normal(size=(50, 3)) * 1e-170
        with caplog.at_level("WARNING"):
            got = codec.kmeans_fit(data, 8, 2, np.random.default_rng(9))
        assert "padding" not in caplog.text
        want = _oracle_kmeans_fit(data, 8, 2, np.random.default_rng(9))
        np.testing.assert_array_equal(got, want)

    def test_plusplus_matches_direct_distance_loop(self, make_rows):
        for seed in range(60):
            data = make_rows(np.random.default_rng(seed))
            got, _ = codec._kmeans_plusplus(data, 32, np.random.default_rng(seed + 1000))
            want = _oracle_kmeans_plusplus(data, 32, np.random.default_rng(seed + 1000))
            np.testing.assert_array_equal(got, want)

    def test_near_is_the_nearest_codeword(self, make_rows):
        """The init's `near` is the direct-distance argmin over its centers,
        the smallest index on ties, which the first Lloyd iteration uses."""
        for seed in range(20):
            data = make_rows(np.random.default_rng(seed))
            centers, near = codec._kmeans_plusplus(data, 32, np.random.default_rng(seed + 1000))
            np.testing.assert_array_equal(near, _kernels.nearest_codeword(data, centers))

    def test_near_with_duplicate_rows_and_centers(self):
        """Exact duplicate rows, and rows 1e-170 apart whose distances
        underflow to 0: the init runs out after three picks and draws the
        rest as random rows, so centers repeat and every row ties several."""
        rng = np.random.default_rng(4)
        points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        data = points[rng.integers(0, 3, size=300)]
        data[:150] += 1e-170 * rng.normal(size=(150, 3))
        tiny = rng.normal(size=(50, 3)) * 1e-170
        for rows, k in ((data, 16), (tiny, 8)):
            centers, near = codec._kmeans_plusplus(rows, k, np.random.default_rng(9))
            np.testing.assert_array_equal(
                centers, _oracle_kmeans_plusplus(rows, k, np.random.default_rng(9)))
            np.testing.assert_array_equal(near, _kernels.nearest_codeword(rows, centers))
            if k == 16:
                assert np.unique(centers, axis=0).shape[0] < k

    @staticmethod
    def _shrunk_rows(monkeypatch):
        """A list that gets the row count of every later `shrink_sq_dist` call."""
        seen = []
        shrink = _kernels.shrink_sq_dist

        def counted(data, *args):
            seen.append(data.shape[0])
            return shrink(data, *args)

        monkeypatch.setattr(_kernels, "shrink_sq_dist", counted)
        return seen

    def test_isotropic_rows_score_every_row(self, monkeypatch):
        """In D=80 an isotropic Gaussian row is about as far from every
        center, so the bound rules out no row and each pick scores them all."""
        seen = self._shrunk_rows(monkeypatch)
        data = np.random.default_rng(5).normal(size=(1000, 80))
        centers, near = codec._kmeans_plusplus(data, 32, np.random.default_rng(6))
        assert seen == [1000] * 31
        np.testing.assert_array_equal(centers,
                                      _oracle_kmeans_plusplus(data, 32, np.random.default_rng(6)))
        np.testing.assert_array_equal(near, _kernels.nearest_codeword(data, centers))

    def test_clustered_rows_are_pruned(self, monkeypatch):
        """Eight well-separated clusters and 32 centers: once each cluster has
        a center, a pick in one cluster scores none of the others' rows."""
        seen = self._shrunk_rows(monkeypatch)
        rng = np.random.default_rng(7)
        means = rng.normal(size=(8, 8)) * 10.0
        data = means[rng.integers(0, 8, size=2000)] + rng.normal(size=(2000, 8)) * 0.1
        centers, near = codec._kmeans_plusplus(data, 32, np.random.default_rng(8))
        assert len(seen) == 31 and sum(seen) < 2000 * 31 / 2
        assert max(seen[8:]) < 2000 / 4  # about one cluster's rows per pick
        np.testing.assert_array_equal(centers,
                                      _oracle_kmeans_plusplus(data, 32, np.random.default_rng(8)))
        np.testing.assert_array_equal(near, _kernels.nearest_codeword(data, centers))

    @pytest.mark.parametrize("iters", [1, 2, 20])
    def test_fit_matches_fixed_iteration_loop(self, make_rows, iters):
        for seed in range(5):
            data = make_rows(np.random.default_rng(seed))
            got = codec.kmeans_fit(data, 32, iters, np.random.default_rng(seed + 1000))
            want = _oracle_kmeans_fit(data, 32, iters, np.random.default_rng(seed + 1000))
            np.testing.assert_array_equal(got, want)

    def test_fit_stops_at_fixed_point(self, rng, monkeypatch):
        """The known centroids of test_recovers_known_centroids (exact and
        jittered) settle in a few updates; the later ones are skipped."""
        calls = []
        accumulate = _kernels.cluster_accumulate

        def counted(*args):
            calls.append(1)
            return accumulate(*args)

        monkeypatch.setattr(_kernels, "cluster_accumulate", counted)
        centroids = np.array(
            [[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0], [0.0, 0.0, -3.0, 0.0]]
        )
        for jitter in (0.0, 0.01):
            data = centroids[rng.integers(0, 3, size=300)] + jitter * rng.normal(size=(300, 4))
            calls.clear()
            got = codec.kmeans_fit(data, 3, 50, np.random.default_rng(5))
            assert 0 < len(calls) < 50
            want = _oracle_kmeans_fit(data, 3, 50, np.random.default_rng(5))
            np.testing.assert_array_equal(got, want)


class TestTrainCodebooks:
    def test_recovers_known_centroids(self, rng):
        """Oracle: dataset built from K known centroids -> stage-1 error 0."""
        cfg = codec.CodecConfig(sample_rate=8000, stride=4, quantizers=1, codebook_size=3,
                                kmeans_iters=15, seed=5, pitch_augment=0.0)
        centroids = np.array(
            [[1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0], [0.0, 0.0, -3.0, 0.0]]
        )
        # a waveform whose frames are these centroids, scaled into [-1, 1]
        samples = centroids[rng.integers(0, 3, size=300)].reshape(-1) * 0.1
        cs = codec.train_codebooks([Waveform(samples, 8000)], cfg)
        cm = codec.rvq_encode(codec.frame_encode(Waveform(samples, 8000), cs), cs)
        recon = codec.rvq_decode(cm, cs, stages=1)
        got = codec.frame_encode(Waveform(samples, 8000), cs)
        np.testing.assert_allclose(recon, got, atol=1e-9)

    def test_single_quantizer_keeps_index_zero_live(self, rng):
        cfg = codec.CodecConfig(sample_rate=8000, stride=4, quantizers=1, codebook_size=4,
                                kmeans_iters=5, seed=1, pitch_augment=0.0)
        samples = rng.uniform(-0.5, 0.5, 4000)
        cs = codec.train_codebooks([Waveform(samples, 8000)], cfg)
        # no reserved zero codeword for Q = 1
        assert np.any(cs.books[0][0] != 0.0)

    def test_determinism(self, rng):
        cfg = codec.CodecConfig(sample_rate=8000, stride=8, quantizers=3, codebook_size=5,
                                kmeans_iters=6, seed=11)  # augment on: still deterministic
        samples = rng.uniform(-0.5, 0.5, 4000)
        a = codec.train_codebooks([Waveform(samples, 8000)], cfg)
        b = codec.train_codebooks([Waveform(samples, 8000)], cfg)
        np.testing.assert_array_equal(a.books, b.books)

    def test_pads_when_too_few_distinct_frames(self, rng, caplog):
        cfg = codec.CodecConfig(sample_rate=8000, stride=4, quantizers=1, codebook_size=16,
                                kmeans_iters=3, seed=2, pitch_augment=0.0)
        frames = np.array([[0.5, 0, 0, 0], [0, 0.25, 0, 0]])[rng.integers(0, 2, size=100)]
        samples = frames.reshape(-1)
        with caplog.at_level("WARNING"):
            cs = codec.train_codebooks([Waveform(samples, 8000)], cfg)
        assert "padding" in caplog.text
        assert cs.books.shape == (1, 16, 4)
        distinct = np.unique(codec.frame_encode(Waveform(samples, 8000), cs), axis=0)
        m = distinct.shape[0]
        assert m < 16
        # the books are fitted at the float32 precision `save` stores
        np.testing.assert_array_equal(cs.books[0, :m], distinct.astype(np.float32))
        assert not cs.books[0, m:].any()

    def test_stage_past_the_residual_floor_gets_the_zero_book(self, rng, caplog):
        """Frames a, b and one c = b + delta; stage 1 (K=2) merges b and c.
        Stage 2's input has one row above the floor, c's, so it is fitted;
        stage 3's has none, so it gets the zero book and a warning, and adds
        nothing to the reconstruction."""
        cfg = codec.CodecConfig(sample_rate=8000, stride=4, quantizers=3, codebook_size=2,
                                kmeans_iters=5, seed=4, pitch_augment=0.0)
        a = np.array([0.5, 0.125, 0.0, -0.25])
        b = np.array([-0.125, 0.25, 0.1875, 0.0625])  # float32-exact, as is a
        frames = np.stack([a] * 600 + [b] * 399 + [b + [0.0, 4e-6, 0.0, 0.0]])
        order = rng.permutation(len(frames))
        c_row = int(np.flatnonzero(order == len(frames) - 1)[0])
        w = Waveform(frames[order].reshape(-1), 8000)
        with caplog.at_level("WARNING"):
            cs = codec.train_codebooks([w], cfg)
        x = codec.frame_encode(w, cs)
        floor = _kernels._rounding_slack(4) * np.median((x**2).sum(axis=1))
        resid = x - cs.books[0][_kernels.nearest_codeword(x, cs.books[0])]
        assert np.flatnonzero((resid**2).sum(axis=1) > floor).tolist() == [c_row]
        assert cs.books[1].any() and not cs.books[2].any()
        assert cs.live_stages == (1, 2)
        assert "stage 3: no residual above the rounding floor" in caplog.text
        assert "stage 2" not in caplog.text
        cm = codec.encode(w, cs)
        assert cm.codes[c_row, 1] != 0
        snr = [codec.reconstruction_snr(w, codec.decode(cm, cs, stages=j)) for j in (1, 2, 3)]
        assert snr[1] > snr[0] and snr[2] == snr[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_audio_rejected(self, rng, bad):
        cfg = codec.CodecConfig(sample_rate=8000, stride=4, quantizers=2, codebook_size=4,
                                kmeans_iters=2)
        samples = rng.uniform(-0.5, 0.5, 400)
        samples[123] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            codec.train_codebooks([Waveform(samples, 8000)], cfg)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            codec.train_codebooks([], codec.CodecConfig())

    def test_reserved_zero_codeword_after_training(self, tiny_codec):
        for j in range(1, tiny_codec.quantizers):
            assert not tiny_codec.books[j, 0].any()
        tiny_codec.validate()


class TestCodebookIO:
    def test_save_load_round_trip(self, tmp_path, tiny_codec):
        path = tmp_path / "books.cbk"
        tiny_codec.save(path)
        back = codec.CodebookSet.load(path)
        assert back.stride == tiny_codec.stride
        assert back.sample_rate == tiny_codec.sample_rate
        np.testing.assert_array_equal(back.books, tiny_codec.books.astype(np.float32))

    @pytest.mark.parametrize("cfg", [codec.CodecConfig(seed=1, pitch_augment=0.0),
                                     codec.CodecConfig(seed=1)], ids=["no_augment", "default"])
    def test_fitted_and_loaded_codecs_encode_alike(self, tmp_path, tiny_corpus_dir, cfg):
        """The books are fitted at the float32 precision `save` stores, so the
        fitted set and the one read back give equal codes at every stage, on
        both splits."""
        data = corpus.load_corpus(tiny_corpus_dir)
        cs = codec.train_codebooks(
            [corpus.read_waveform(r.path) for r in data.split_records("train")], cfg)
        path = tmp_path / "books.cbk"
        cs.save(path)
        back = codec.CodebookSet.load(path)
        np.testing.assert_array_equal(back.books, cs.books)
        for split in ("train", "eval"):
            for fitted, loaded in zip(pipeline.tokenize_split(data, cs, split),
                                      pipeline.tokenize_split(data, back, split), strict=True):
                np.testing.assert_array_equal(loaded.codes, fitted.codes)

    def test_loaded_codec_transforms_bit_for_bit(self, tmp_path, rng):
        """A loaded codec frames and unframes a waveform bit for bit as the
        in-memory one, and its round trip is exact."""
        cs = _random_codebooks(rng, q=3, k=16)
        path = tmp_path / "books.cbk"
        cs.save(path)
        back = codec.CodebookSet.load(path)
        w = Waveform(samples=rng.uniform(-1, 1, 8000), sample_rate=8000)
        frames = codec.frame_encode(w, cs)
        assert np.array_equal(codec.frame_encode(w, back), frames)
        assert np.array_equal(codec.frame_decode(frames, back).samples,
                              codec.frame_decode(frames, cs).samples)
        assert np.array_equal(codec.frame_decode(frames, back).samples, w.samples)

    def test_load_validates(self, tmp_path, rng):
        """A stage-2 book whose index-0 codeword is not zero is refused."""
        cs = _random_codebooks(rng, q=3, k=16)
        cs.books[1, 0, 0] = 0.5
        path = tmp_path / "books.cbk"
        cs.save(path)
        with pytest.raises(ValidationError, match="codebook 2 must reserve index 0"):
            codec.CodebookSet.load(path)

    def test_load_refuses_the_dct_layout(self, tmp_path, rng):
        """A file of the older layout, books of DCT coefficients with a
        `stride` header field, would decode to noise: it is refused, naming
        the path and its kind."""
        cs = _random_codebooks(rng, q=3, k=16)
        path = tmp_path / "old.cbk"
        formats.write_artifact(path, "codebooks", {"stride": 80, "sample_rate": 8000},
                               {"books": cs.books})
        with pytest.raises(ValidationError) as err:
            codec.CodebookSet.load(path)
        assert str(err.value) == f"{path}: kind is 'codebooks', expected 'frame_codebooks'"
