"""Hot numeric kernels: nearest-codeword search and cluster accumulation.

One numpy implementation of each. `nearest_codeword` returns, for each row,
the index of the book row at the smallest direct L2 distance
sum((r - c)**2), the smallest such index on ties, and the residual
r - book[code]. `cluster_accumulate` returns per-cluster row sums and
counts equal to `np.bincount` of the codes. `tests/test_kernels.py` holds
both to this contract; the traced run of `perfbench/run.py` (`--trace 1`)
reports the time of `kernels.nearest_codeword` and
`kernels.cluster_accumulate`.
"""

import numpy as np

# Elements of the (rows, K, D) difference array one re-scoring block may hold.
_RESCORE_BLOCK = 1 << 20


def nearest_codeword(frames: np.ndarray, book: np.ndarray):
    """Per row of `frames`, find the nearest row of `book` (L2, smallest-index
    ties) and the residual. Returns (codes, residuals)."""
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    book = np.ascontiguousarray(book, dtype=np.float64)
    if frames.ndim != 2 or book.ndim != 2 or frames.shape[1] != book.shape[1]:
        raise ValueError(
            f"shape mismatch: frames {frames.shape} vs codebook {book.shape}"
        )
    # Score ||c||^2 - 2 r.c, which is ||r - c||^2 less the row term ||r||^2
    # and has the same argmin. Each computed score is off by at most about
    # (D+2)*eps*(||c||^2 + 2||r|| ||c||), so a row whose runner-up lies within
    # 20*(D+2)*eps*(||r||^2 + ||c_best||^2) of its best may rank differently
    # by direct distance (the factor covers the runner-up's larger norm and
    # the rounding of the direct distances). Those rows are re-scored by
    # direct differences, as the oracle in the contract does.
    n, dim = frames.shape
    k = book.shape[0]
    codes = np.empty(n, dtype=np.int64)
    book_sq = np.einsum("kd,kd->k", book, book)
    scores = frames @ book.T
    scores *= -2.0
    scores += book_sq
    np.argmin(scores, axis=1, out=codes)
    best = scores[np.arange(n), codes]
    slack = 20.0 * (dim + 2) * np.finfo(np.float64).eps
    limit = best + slack * (np.einsum("nd,nd->n", frames, frames) + book_sq[codes])
    close = np.count_nonzero(scores <= limit[:, None], axis=1) > 1
    rows = np.flatnonzero(close)
    step = max(1, _RESCORE_BLOCK // max(1, k * dim))
    for i in range(0, rows.size, step):
        blk = rows[i : i + step]
        dist = ((frames[blk, None, :] - book[None, :, :]) ** 2).sum(axis=-1)
        codes[blk] = np.argmin(dist, axis=1)  # first index of the minimum
    return codes, frames - book[codes]


def cluster_accumulate(frames: np.ndarray, codes: np.ndarray, k: int):
    """Sum rows of `frames` by assigned cluster. Returns (sums (k,D), counts (k,))."""
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    sums = np.zeros((k, frames.shape[1]), dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    np.add.at(sums, codes, frames)
    np.add.at(counts, codes, 1)
    return sums, counts
