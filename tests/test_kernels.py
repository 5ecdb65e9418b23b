"""Kernel contract: nearest row by direct L2 distance (smallest index on
ties), the k-means++ distance update and per-cluster sums, checked against
`_brute_nearest`, `np.minimum` of direct distances and `np.bincount`.
"""

import numpy as np
import pytest

from codec_lm import _kernels


def _brute_nearest(frames, book):
    codes = np.empty(frames.shape[0], dtype=np.int64)
    for t in range(frames.shape[0]):
        d = ((book - frames[t]) ** 2).sum(axis=1)
        codes[t] = int(np.argmin(d))
    return codes


def _near_duplicate_book(seed):
    """Small codewords with row 7 within 1e-13 of row 4: the expanded form
    cannot tell them apart."""
    rng = np.random.default_rng(seed)
    book = rng.normal(size=(9, 5)) * 1e-3
    book[7] = book[4] + rng.normal(size=5) * 1e-13
    return book


def _check_exact_match(book):
    frames = book[[4, 7]].copy()
    codes = _kernels.nearest_codeword(frames, book)
    np.testing.assert_array_equal(codes, [4, 7])
    np.testing.assert_array_equal(frames - book[codes], np.zeros((2, book.shape[1])))


def test_backends_agree_on_random_data(rng):
    frames = rng.normal(size=(257, 12))
    book = rng.normal(size=(33, 12))
    codes = _kernels.nearest_codeword(frames, book)
    np.testing.assert_array_equal(codes, _brute_nearest(frames, book))
    assert codes.dtype == np.int64 and codes.shape == (257,)


def test_smallest_index_tie_break():
    frames = np.array([[1.0, 0.0]])
    book = np.array([[1.0, 0.5], [1.0, -0.5], [9.0, 9.0]])  # rows 0/1 equidistant
    codes = _kernels.nearest_codeword(frames, book)
    assert codes[0] == 0
    # Direct distances tie at 1.78; the expanded form ||r||^2 - 2 r.c + ||c||^2
    # rounds them apart and picks row 1.
    frames = np.array([[0.3, 0.8]])
    book = np.array([[0.6, -0.5], [0.0, 2.1]])
    assert _brute_nearest(frames, book)[0] == 0
    codes = _kernels.nearest_codeword(frames, book)
    assert codes[0] == 0


def test_exact_match_gives_zero_residual(rng):
    _check_exact_match(rng.normal(size=(9, 5)))
    for seed in range(200):
        _check_exact_match(_near_duplicate_book(seed))


class _NoRescoring:
    """Stands in for the re-scoring block size: sizing a block fails."""

    def __floordiv__(self, other):
        raise AssertionError("nearest_codeword sized a re-scoring block")


def test_zero_book_gives_code_zero_without_rescoring(make_rows, rng, monkeypatch):
    """Every codeword of an all-zero book ties, so the oracle gives index 0
    for every row; the kernel returns that without re-scoring a row."""
    frames = make_rows(rng)
    book = np.zeros((16, frames.shape[1]))
    want = _brute_nearest(frames, book)
    monkeypatch.setattr(_kernels, "_RESCORE_BLOCK", _NoRescoring())
    codes = _kernels.nearest_codeword(frames, book)
    np.testing.assert_array_equal(codes, want)
    assert codes.dtype == np.int64


def test_shrink_sq_dist_matches_minimum_oracle(make_rows, rng):
    data = make_rows(rng)
    data_sq = np.einsum("nd,nd->n", data, data)
    d2 = ((data - data[0]) ** 2).sum(axis=1)
    centers = [data[i] for i in rng.integers(0, data.shape[0], size=40)]
    centers += [np.zeros(data.shape[1]), data[0], rng.normal(size=data.shape[1]) * 1e-13]
    for center in centers:
        want = np.minimum(d2, ((data - center) ** 2).sum(axis=1))
        _kernels.shrink_sq_dist(data, data_sq, center, d2)
        np.testing.assert_array_equal(d2, want)


def test_cluster_accumulate_matches_bincount(rng):
    frames = rng.normal(size=(100, 4))
    codes = rng.integers(0, 7, size=100)
    sums, counts = _kernels.cluster_accumulate(frames, codes, 7)
    np.testing.assert_array_equal(counts, np.bincount(codes, minlength=7))
    for j in range(4):
        np.testing.assert_array_equal(
            sums[:, j], np.bincount(codes, weights=frames[:, j], minlength=7)
        )


@pytest.mark.parametrize("bad", [-1, 7])
def test_cluster_accumulate_rejects_codes_out_of_range(bad, rng):
    codes = rng.integers(0, 7, size=100)
    codes[37] = bad
    with pytest.raises(ValueError):
        _kernels.cluster_accumulate(rng.normal(size=(100, 4)), codes, 7)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        _kernels.nearest_codeword(np.zeros((3, 4)), np.zeros((5, 6)))
