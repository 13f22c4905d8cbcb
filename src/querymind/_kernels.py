"""Hot numeric kernels: pairwise feedback tables and bucket counting.

Feedback ids: a (black, white) response is packed as ``black * (n+1) + white``
for black+white configs, or just ``black`` for black-only configs, giving a
dense integer range suitable for bincount-style bucket sizing.
"""
from __future__ import annotations

import numpy as np

# read by perfbench/envinfo.py for its environment record
USING_NUMBA = False

_CHUNK = 256  # query rows per matrix product, bounds peak memory
CHUNK_CELLS = 1 << 18  # table cells per max_bucket_sizes chunk


def _features(codes: np.ndarray, k: int, black_white: bool, scale: int) -> np.ndarray:
    """Rows [scale * E | T] (or E alone) as float32: E is the one-hot n*k
    encoding of encode01, T the k*n thresholds [count_c >= t], t = 1..n."""
    rows, n = codes.shape
    onehot = codes[:, :, None] == np.arange(1, k + 1)
    e = onehot.reshape(rows, n * k)
    if not black_white:
        return e.astype(np.float32)
    above = onehot.sum(axis=1)[:, :, None] >= np.arange(1, n + 1)
    return np.hstack([np.float32(scale) * e, above.reshape(rows, k * n)], dtype=np.float32)


def feedback_ids(
    queries: np.ndarray, codes: np.ndarray, k: int, black_white: bool
) -> np.ndarray:
    """Packed feedback ids for every (query, code) pair; shape (Q, H) int16.

    One float32 matrix product per block of query rows. E(q)·E(x) is the
    black count, and T(q)·T(x) = sum_c min(count_c(q), count_c(x)) is the
    matched count, since min(a, b) = sum_t [a >= t][b >= t]; so
    [n*E | T](q)·[E | T](x) = n*black + matched = black*(n+1) + white.
    The product is exact: every term and partial sum is a non-negative
    integer no larger than the final id, and ids stay below 2**15
    (CodeSpace.fid_table checks this), far below float32's 2**24, so no
    summation order or BLAS thread count can round.
    """
    a = _features(queries, k, black_white, queries.shape[1])
    b = _features(codes, k, black_white, 1).T
    out = np.empty((len(a), len(codes)), dtype=np.int16)
    buf = np.empty((min(_CHUNK, len(a)), len(codes)), dtype=np.float32)
    for lo in range(0, len(a), _CHUNK):
        block = buf[: len(a) - lo]
        np.matmul(a[lo : lo + _CHUNK], b, out=block)
        out[lo : lo + len(block)] = block
    return out


def max_bucket_sizes(fids: np.ndarray, n_fids: int) -> np.ndarray:
    """For each row of feedback ids, the largest bucket size; shape (Q,) int64.

    Rows are counted in chunks of at most CHUNK_CELLS cells, through one
    int64 buffer reused by every chunk, so the temporaries stay within
    CHUNK_CELLS cells whatever the input.
    """
    q_rows, s_cols = fids.shape
    if s_cols == 0:
        return np.zeros(q_rows, dtype=np.int64)
    out = np.empty(q_rows, dtype=np.int64)
    rows_per_chunk = max(1, min(q_rows, CHUNK_CELLS // max(s_cols, n_fids)))
    offsets = np.arange(rows_per_chunk, dtype=np.int64)[:, None] * n_fids
    flat = np.empty((rows_per_chunk, s_cols), dtype=np.int64)
    for lo in range(0, q_rows, rows_per_chunk):
        hi = min(lo + rows_per_chunk, q_rows)
        chunk = flat[: hi - lo]
        np.add(fids[lo:hi], offsets[: hi - lo], out=chunk)
        counts = np.bincount(chunk.ravel(), minlength=(hi - lo) * n_fids)
        out[lo:hi] = counts.reshape(hi - lo, n_fids).max(axis=1)
    return out
