"""Trainable residual-vector-quantization codec.

A frame is `stride` consecutive samples and a codeword is a frame: there is
no frame transform. An orthonormal one would change only rounding, because
nearest-codeword search, k-means++, Lloyd and the residual floor read only L2
distances and norms, which a rotation keeps. A codebook file holds the fitted
books and the sample rate. Each frame is quantized by a stack of residually
trained k-means codebooks; stages 2..Q reserve index 0 as the all-zero
codeword, which makes reconstruction error provably non-increasing in the
number of stages. Books are fitted at the float32 precision a codebook file
stores, and a stage left no residual above the rounding floor gets the
all-zero book instead of a fit.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, formats
from .corpus import Waveform, resample_waveform
from .errors import ValidationError

log = logging.getLogger("codec_lm.codec")


@dataclass(frozen=True)
class CodecConfig:
    sample_rate: int = 8000
    stride: int = 80
    quantizers: int = 8
    codebook_size: int = 256
    # Lloyd iterations per stage; 2 fit the held-out voices better than 20
    # (higher eval-split SNR at Q=8 on corpus seeds 1-3) in about a quarter of the time
    kmeans_iters: int = 2
    seed: int = 0
    # pitch-resampling spread applied to the training audio before fitting
    # (stand-in for a universally pretrained codec; 0 disables)
    pitch_augment: float = 0.02

    def __post_init__(self):
        if self.stride < 1 or self.quantizers < 1 or self.codebook_size < 1:
            raise ValidationError("codec stride/quantizers/codebook_size must be positive")
        if self.sample_rate < 1:
            raise ValidationError("codec.sample_rate must be positive")
        if self.kmeans_iters < 1:
            raise ValidationError("codec.kmeans_iters must be >= 1")
        if not 0 <= self.pitch_augment < 1:
            raise ValidationError("codec.pitch_augment must lie in [0, 1)")
        if self.seed < 0:
            raise ValidationError("codec.seed must be >= 0")

    @property
    def frame_rate(self) -> float:
        return self.sample_rate / self.stride


@dataclass(frozen=True)
class CodeMatrix:
    codes: np.ndarray  # (T, Q) integers in [0, K-1]
    codebook_size: int

    def __post_init__(self):
        codes = self.codes
        if codes.ndim != 2:
            raise ValidationError(f"code matrix must be 2-D, got shape {codes.shape}")
        if codes.size and (codes.min() < 0 or codes.max() >= self.codebook_size):
            raise ValidationError("code entries out of [0, K-1]")

    @property
    def num_frames(self) -> int:
        return self.codes.shape[0]

    @property
    def quantizers(self) -> int:
        return self.codes.shape[1]


@dataclass(frozen=True)
class CodebookSet:
    """Q residual books of K codewords; a codeword is a frame of `stride`
    samples at `sample_rate`, so the stride is the books' last axis."""
    books: np.ndarray  # (Q, K, stride)
    sample_rate: int

    @property
    def quantizers(self) -> int:
        return self.books.shape[0]

    @property
    def codebook_size(self) -> int:
        return self.books.shape[1]

    @property
    def stride(self) -> int:
        return self.books.shape[2]

    @property
    def frame_rate(self) -> float:
        return self.sample_rate / self.stride

    @property
    def live_stages(self) -> tuple:
        """The stages j in 1..Q whose book is not all zero. A zero book (a
        stage past the residual floor, see `train_codebooks`) codes every
        frame 0, so its codes carry nothing to predict."""
        return tuple(j + 1 for j in range(self.quantizers) if self.books[j].any())

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.books.ndim != 3 or 0 in self.books.shape:
            raise ValidationError(f"books of shape {self.books.shape} are not (Q, K, stride)")
        for j in range(1, self.quantizers):
            if np.any(self.books[j, 0] != 0.0):
                raise ValidationError(f"codebook {j + 1} must reserve index 0 as the zero vector")

    def save(self, path):
        formats.write_artifact(path, "frame_codebooks", {"sample_rate": self.sample_rate},
                               {"books": self.books})

    @classmethod
    def load(cls, path):
        """The codebooks saved at `path`, which must hold valid books. A file of
        the older `codebooks` kind holds DCT coefficients and is refused."""
        fields, blocks = formats.read_artifact(path, "frame_codebooks", {"sample_rate": int})
        formats.check_blocks(path, blocks, {"books": (None, None, None)})
        return cls(books=blocks["books"].astype(np.float64), sample_rate=fields["sample_rate"])


def initial_codebooks(cfg: CodecConfig, rng: np.random.Generator | None = None) -> CodebookSet:
    """Untrained CodebookSet of small random codewords.

    Only tests and `perfbench/tests` use it (`kmeans_fit` seeds by k-means++
    and never reads it); stages >= 2 already carry the reserved zero codeword.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    books = 0.01 * rng.standard_normal((cfg.quantizers, cfg.codebook_size, cfg.stride))
    books[1:, 0, :] = 0.0
    return CodebookSet(books=books, sample_rate=cfg.sample_rate)


def frame_encode(w: Waveform, cs: CodebookSet | CodecConfig) -> np.ndarray:
    """The waveform's stride-sized frames, as a new (T, stride) float64 array
    with T = floor(num_samples / stride); trailing samples short of a full
    frame are dropped. `cs` gives the stride and the sample rate.
    """
    if w.sample_rate != cs.sample_rate:
        raise ValidationError(
            f"sample rate mismatch: waveform {w.sample_rate} vs codec {cs.sample_rate}"
        )
    n = w.samples.size
    if n < cs.stride:
        raise ValidationError(f"waveform has {n} samples, shorter than one frame ({cs.stride})")
    t = n // cs.stride
    return np.array(w.samples[: t * cs.stride], dtype=np.float64).reshape(t, cs.stride)


def _check_frames(frames, cs: CodebookSet) -> np.ndarray:
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != cs.stride:
        raise ValidationError(f"frames shape {frames.shape} does not match stride {cs.stride}")
    return frames


def frame_decode(frames: np.ndarray, cs: CodebookSet) -> Waveform:
    """Inverse of frame_encode: the frames concatenated, clamped to [-1, 1]
    (quantization error can overshoot slightly)."""
    samples = _check_frames(frames, cs).reshape(-1)
    return Waveform(samples=np.clip(samples, -1.0, 1.0), sample_rate=cs.sample_rate)


def rvq_encode(frames: np.ndarray, cs: CodebookSet) -> CodeMatrix:
    """Greedy stagewise residual quantization (smallest-index tie-break)."""
    frames = _check_frames(frames, cs)
    t = frames.shape[0]
    codes = np.empty((t, cs.quantizers), dtype=np.int64)
    resid = frames
    for j in range(cs.quantizers):
        codes[:, j] = _kernels.nearest_codeword(resid, cs.books[j])
        resid = resid - cs.books[j][codes[:, j]]
    return CodeMatrix(codes=codes, codebook_size=cs.codebook_size)


def rvq_decode(cm: CodeMatrix, cs: CodebookSet, stages: int | None = None) -> np.ndarray:
    """Sum the selected codewords of the first `stages` quantizers per frame."""
    if stages is None:
        stages = cs.quantizers
    if not 1 <= stages <= cs.quantizers:
        raise ValidationError(f"stages must lie in [1, {cs.quantizers}], got {stages}")
    if cm.quantizers < stages:
        raise ValidationError("code matrix has fewer stages than requested")
    if cm.codes.size and cm.codes.max() >= cs.codebook_size:
        raise ValidationError("code entry out of range for this codebook set")
    frames = np.zeros((cm.num_frames, cs.stride))
    for j in range(stages):
        frames += cs.books[j][cm.codes[:, j]]
    return frames


def encode(w: Waveform, cs: CodebookSet) -> CodeMatrix:
    return rvq_encode(frame_encode(w, cs), cs)


def decode(cm: CodeMatrix, cs: CodebookSet, stages: int | None = None) -> Waveform:
    return frame_decode(rvq_decode(cm, cs, stages), cs)


def reconstruction_snr(original: Waveform, reconstructed: Waveform) -> float:
    """10*log10(signal power / error power); +inf for exact reconstruction."""
    if original.samples.size != reconstructed.samples.size:
        raise ValidationError(
            f"length mismatch: {original.samples.size} vs {reconstructed.samples.size}"
        )
    if original.sample_rate != reconstructed.sample_rate:
        raise ValidationError("sample rate mismatch")
    err = original.samples - reconstructed.samples
    signal = float(original.samples @ original.samples)
    noise = float(err @ err)
    if noise == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / noise)


# -- codebook training ----------------------------------------------------------

def _weighted_row(d2: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """The row `rng.choice(d2.size, p=d2 / total)` draws, from the same stream,
    without its check of p: `total` must be the finite, positive sum of d2."""
    cdf = np.cumsum(d2 / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_plusplus(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k centers drawn by k-means++ seeding, or, when `data` has fewer than k
    distinct rows, those rows in `np.unique` order.

    Each pick is a row at positive distance from every center so far, so with
    m < k distinct rows the distances sum to 0 at pick m: only then are the
    distinct rows counted. With k or more (some distances underflow to 0),
    the remaining centers are random rows."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    data_sq = np.einsum("nd,nd->n", data, data)
    counted = False
    for i in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise ValidationError("k-means++ squared distances are not finite")
        if total <= 0:
            if not counted:
                distinct = np.unique(data, axis=0)
                if distinct.shape[0] < k:
                    return distinct
                counted = True
            centers[i] = data[rng.integers(n)]
            continue
        centers[i] = data[_weighted_row(d2, total, rng)]
        _kernels.shrink_sq_dist(data, data_sq, centers[i], d2)
    return centers


def kmeans_fit(data: np.ndarray, k: int, iters: int, rng: np.random.Generator) -> np.ndarray:
    """At most `iters` Lloyd iterations with k-means++ init; empty clusters keep
    their previous centroid. Pads with zero vectors (and warns) when data has
    fewer than k distinct rows. The distinct rows are counted only when the
    k-means++ distances sum to 0 before the k-th pick, which they always do
    in that case.

    Stops early at a fixed point: once an iteration assigns every row as the
    one before did, its sums, counts and so its centroids equal the current
    ones bit for bit, and so would every later iteration's. The result is the
    same as running all `iters`."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    centers = _kmeans_plusplus(data, k, rng)
    if centers.shape[0] < k:
        log.warning(
            "only %d distinct vectors for %d clusters; padding codebook with zeros",
            centers.shape[0],
            k,
        )
        return np.concatenate([centers, np.zeros((k - centers.shape[0], data.shape[1]))])
    prev = None
    for _ in range(iters):
        codes = _kernels.nearest_codeword(data, centers)
        if prev is not None and np.array_equal(codes, prev):
            break
        sums, counts = _kernels.cluster_accumulate(data, codes, k)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        prev = codes
    return centers


def train_codebooks(waveforms, cfg: CodecConfig) -> CodebookSet:
    """Stagewise residual k-means over the frames of `waveforms`.

    Stage 1 fits the frames; each later stage fits the residual left by all
    previous stages and then has index 0 overwritten with the zero vector.
    Each book is rounded to float32 before its residual is formed.

    A later stage with no input row whose squared norm exceeds the floor,
    `_kernels._rounding_slack(stride)` times the median squared norm of the stage-1
    frames, holds only rounding noise: it gets the all-zero book, runs no
    k-means and logs a warning. The test is on every row, not the median: on
    the benchmark corpus (seed 1, no augment) the median stage-5 input is
    8e-16 of the stage-1 scale, under the floor, yet 41-43% of its rows lie
    above it, and stage 5 adds 4.8-8.6 dB of SNR on new utterances.
    """
    waveforms = list(waveforms)
    if not waveforms:
        raise ValidationError("training dataset is empty")
    if cfg.pitch_augment > 0:
        p = cfg.pitch_augment
        waveforms = waveforms + [
            resample_waveform(w, f) for w in waveforms for f in (1.0 - p, 1.0 + p)
        ]
    frames = np.concatenate([frame_encode(w, cfg) for w in waveforms], axis=0)
    log.info("training %d codebooks on %d frames", cfg.quantizers, frames.shape[0])

    scale = float(np.median(np.einsum("nd,nd->n", frames, frames)))
    floor = _kernels._rounding_slack(cfg.stride) * scale
    books = []
    resid = frames
    for j in range(cfg.quantizers):
        if j > 0 and not np.any(np.einsum("nd,nd->n", resid, resid) > floor):
            log.warning("stage %d: no residual above the rounding floor; zero book", j + 1)
            book = np.zeros((cfg.codebook_size, cfg.stride))
        else:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 23, j]))
            book = kmeans_fit(resid, cfg.codebook_size, cfg.kmeans_iters, rng)
            if j > 0:
                book[0] = 0.0
        book = book.astype(np.float32).astype(np.float64)  # the precision `save` stores
        books.append(book)
        resid = resid - book[_kernels.nearest_codeword(resid, book)]
        log.info("stage %d fitted, residual rms %.6f", j + 1, float(np.sqrt((resid**2).mean())))
    return CodebookSet(books=np.stack(books), sample_rate=cfg.sample_rate)
