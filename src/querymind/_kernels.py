"""Hot numeric kernels: pairwise feedback tables and bucket counting.

Feedback ids: a (black, white) response is packed as ``black * (n+1) + white``
for black+white configs, or just ``black`` for black-only configs, giving a
dense integer range suitable for bincount-style bucket sizing.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

# read by perfbench/envinfo.py for its environment record
USING_NUMBA = False

_CHUNK = 256  # query rows per matrix product, bounds peak memory
CHUNK_CELLS = 1 << 16  # table cells per column_max_buckets block


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


def feedback_bytes(rows: int, cols: int, n: int, k: int, black_white: bool) -> int:
    """Upper bound on the peak bytes of feedback_ids for rows queries and
    cols codes: the int16 table, the float32 product buffer, and per code
    every array of _features (bool one-hot and thresholds, float32 copies)."""
    per_code = (14 if black_white else 5) * n * k
    return 2 * rows * cols + 4 * min(_CHUNK, rows) * cols + per_code * (rows + cols)


def code_features(codes: np.ndarray, k: int, black_white: bool) -> np.ndarray:
    """Rows [E | T] (or E alone) of every code, the code side of
    feedback_ids; shape (len(codes), width) float32. A caller that builds
    many blocks over one code space computes them once and passes them as
    sides, the query rows as query_features of its rows."""
    return _features(codes, k, black_white, 1)


def query_features(rows: np.ndarray, n: int, k: int, black_white: bool) -> np.ndarray:
    """code_features rows as the query side of feedback_ids: E scaled by n
    with white pegs. Scales rows in place and returns them."""
    if black_white:
        rows[:, : n * k] *= n
    return rows


def feedback_ids(
    queries: np.ndarray,
    codes: np.ndarray,
    k: int,
    black_white: bool,
    sides: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Packed feedback ids for every (query, code) pair; shape (Q, H) int16.

    One float32 matrix product per block of query rows. E(q)·E(x) is the
    black count, and T(q)·T(x) = sum_c min(count_c(q), count_c(x)) is the
    matched count, since min(a, b) = sum_t [a >= t][b >= t]; so
    [n*E | T](q)·[E | T](x) = n*black + matched = black*(n+1) + white.
    The product is exact: every term and partial sum is a non-negative
    integer no larger than the final id, and ids stay below 2**15
    (CodeSpace.feedback_rows checks this), far below float32's 2**24, so no
    summation order or BLAS thread count can round.

    sides, if given, is the queries' query_features and the codes'
    code_features, so neither is built here.
    """
    if sides is None:
        a = _features(queries, k, black_white, queries.shape[1])
        b = code_features(codes, k, black_white)
    else:
        a, b = sides
    out = np.empty((len(a), len(codes)), dtype=np.int16)
    buf = np.empty((min(_CHUNK, len(a)), len(codes)), dtype=np.float32)
    for lo in range(0, len(a), _CHUNK):
        block = buf[: len(a) - lo]
        np.matmul(a[lo : lo + _CHUNK], b.T, out=block)
        out[lo : lo + len(block)] = block
    return out


def column_max_buckets(
    table: np.ndarray,
    rows: Optional[np.ndarray],
    n_fids: int,
    cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Largest bucket of each column of table over the rows at `rows`, or
    over every row if rows is None; with cols, of the columns at cols
    only; shape (table.shape[1] or len(cols),) int64.

    Feedback is symmetric: black counts matching positions, and the matched
    count sum_c min(count_c(q), count_c(x)) is symmetric in q and x. So the
    columns [:, S] of the query-by-code ids that minimax scoring needs
    equal the rows of S, which CodeSpace.feedback_rows computes. Rows are
    read CHUNK_CELLS cells at a time (slices when rows and cols are None,
    so no gather) into one reused int64 buffer of flat ids
    f * width + column, counted into one (n_fids, width) array.
    """
    width = table.shape[1] if cols is None else len(cols)
    n_rows = len(table) if rows is None else len(rows)
    block = max(1, min(n_rows, CHUNK_CELLS // max(width, 1)))
    columns = np.arange(width, dtype=np.int64)
    flat = np.empty((block, width), dtype=np.int64)
    counts = np.zeros(n_fids * width, dtype=np.int64)
    for lo in range(0, n_rows, block):
        if rows is None:
            part = table[lo : lo + block] if cols is None else table[lo : lo + block, cols]
        else:
            at = rows[lo : lo + block]
            part = table[at] if cols is None else table[np.ix_(at, cols)]
        chunk = flat[: len(part)]
        np.multiply(part, np.int64(width), out=chunk)
        chunk += columns
        counts += np.bincount(chunk.ravel(), minlength=n_fids * width)
    return counts.reshape(n_fids, width).max(axis=0)


def max_bucket_sizes(fids: np.ndarray, n_fids: int) -> np.ndarray:
    """For each row of feedback ids, the largest bucket size; shape (Q,) int64."""
    return column_max_buckets(fids.T, None, n_fids)
