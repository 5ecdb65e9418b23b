"""Hot numeric kernels: nearest-codeword search, the k-means++ distance
update and cluster accumulation.

One numpy implementation of each. `nearest_codeword` returns, for each row,
the index of the book row at the smallest direct L2 distance
sum((r - c)**2), the smallest such index on ties, and the residual
r - book[code]. `shrink_sq_dist` updates `d2` in place to a result bitwise
equal to `np.minimum(d2, ((data - center)**2).sum(axis=1))`.
`cluster_accumulate` returns per-cluster row sums and counts bitwise equal to
`np.bincount` of the codes (weighted by each column for the sums), and
rejects codes outside [0, k).

The first two score rows by the expanded form ||x||^2 - 2 x.c + ||c||^2,
one GEMM or GEMV, and re-score by direct differences every row the expanded
form cannot decide: one whose expanded score lies within
`_rounding_slack(D) * (||x||^2 + ||c||^2)` of the decision. That bound,
20*(D+2)*eps, is several times the worst-case rounding of the expanded form
and of the direct distance together (about 4*(D+3)*eps), so the results are
those of the direct formula even where the expanded form goes negative
(residuals of about 1e-13). `tests/test_kernels.py` holds the kernels to
these contracts; the traced run of `perfbench/run.py` (`--trace 1`) reports
the time of `kernels.nearest_codeword` and `kernels.cluster_accumulate`.
"""

import numpy as np

# Elements of the (rows, K, D) difference array one re-scoring block may hold.
_RESCORE_BLOCK = 1 << 20


def _rounding_slack(dim: int) -> float:
    """Relative rounding bound for comparing expanded-form scores of
    `dim`-dimensional rows with direct distances."""
    return 20.0 * (dim + 2) * np.finfo(np.float64).eps


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
    # _rounding_slack(D)*(||r||^2 + ||c_best||^2) of its best may rank
    # differently by direct distance (the factor covers the runner-up's larger
    # norm and the rounding of the direct distances). Those rows are re-scored
    # by direct differences, as the oracle in the contract does.
    n, dim = frames.shape
    k = book.shape[0]
    codes = np.empty(n, dtype=np.int64)
    book_sq = np.einsum("kd,kd->k", book, book)
    scores = frames @ book.T
    scores *= -2.0
    scores += book_sq
    np.argmin(scores, axis=1, out=codes)
    best = scores[np.arange(n), codes]
    limit = best + _rounding_slack(dim) * (np.einsum("nd,nd->n", frames, frames) + book_sq[codes])
    close = np.count_nonzero(scores <= limit[:, None], axis=1) > 1
    rows = np.flatnonzero(close)
    step = max(1, _RESCORE_BLOCK // max(1, k * dim))
    for i in range(0, rows.size, step):
        blk = rows[i : i + step]
        dist = ((frames[blk, None, :] - book[None, :, :]) ** 2).sum(axis=-1)
        codes[blk] = np.argmin(dist, axis=1)  # first index of the minimum
    return codes, frames - book[codes]


def shrink_sq_dist(data: np.ndarray, data_sq: np.ndarray, center: np.ndarray,
                   d2: np.ndarray) -> None:
    """Lower each `d2[i]` to the squared distance from `data[i]` to `center`
    where that is smaller, in place; bitwise equal to
    `np.minimum(d2, ((data - center)**2).sum(axis=1))`. `data` is C-contiguous
    float64 (N, D), `data_sq` its squared row norms and `d2` float64 (N,);
    the bound holds while the squared entries do not underflow (|x| above
    about 1e-150, or exactly 0).

    A row whose expanded-form distance exceeds `d2` by more than the rounding
    slack has a direct distance above `d2`, which `np.minimum` would discard;
    only the other rows (and any NaN) are scored by direct differences."""
    c_sq = float(center @ center)
    approx = data @ center
    approx *= -2.0
    approx += data_sq
    approx += c_sq
    limit = data_sq + c_sq
    limit *= _rounding_slack(data.shape[1])
    limit += d2
    rows = np.flatnonzero(~(approx > limit))
    d2[rows] = np.minimum(d2[rows], ((data[rows] - center) ** 2).sum(axis=1))


def cluster_accumulate(frames: np.ndarray, codes: np.ndarray, k: int):
    """Sum rows of `frames` by assigned cluster. Returns (sums (k,D), counts (k,)).

    Each sum adds its rows in row order, as `np.bincount` does."""
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        raise ValueError(f"codes outside [0, {k})")
    sums = np.empty((k, frames.shape[1]), dtype=np.float64)
    for j in range(frames.shape[1]):
        sums[:, j] = np.bincount(codes, weights=frames[:, j], minlength=k)
    return sums, np.bincount(codes, minlength=k)
