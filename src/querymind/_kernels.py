"""Hot numeric kernels: pairwise feedback tables and bucket counting.

Feedback ids: a (black, white) response is packed as ``black * (n+1) + white``
for black+white configs, or just ``black`` for black-only configs, giving a
dense integer range in which buckets are counted per id. Tables hold them in
the narrowest dtype that holds the largest (id_dtype), which no other module
names.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError

# read by perfbench/envinfo.py for its environment record
USING_NUMBA = False

PRODUCT_CELLS = 1 << 18  # float32 cells per matrix product, bounds peak memory
COMPARE_CELLS = 1 << 20  # bool cells of column_max_buckets' compare buffer
BLOCK_ROWS = 255  # rows per column_max_buckets block: a uint8 count holds them


def _product_rows(cols: int) -> int:
    """Query rows per matrix product of feedback_ids against cols codes."""
    return max(1, PRODUCT_CELLS // max(cols, 1))


def _largest_id(n: int, black_white: bool) -> int:
    """The largest packed id of length-n codes: n black pegs, no white."""
    return n * (n + 1) if black_white else n


def id_dtype(n: int, black_white: bool) -> np.dtype:
    """dtype of the packed feedback ids of length-n codes, the narrowest
    that holds the largest: uint8 while it is below 256 (n <= 15
    black+white, n <= 255 black-only), else int16, past which feedback_ids
    refuses the ids."""
    return np.dtype(np.uint8 if _largest_id(n, black_white) < 256 else np.int16)


def feedback_bytes(rows: int, cols: int, n: int, k: int, black_white: bool) -> int:
    """Upper bound on the peak bytes of feedback_ids for rows queries and
    cols codes: the table (id_dtype, one byte per id up to n = 15
    black+white), the float32 product buffer, and per code every array of
    code_features (bool one-hot and thresholds, float32 copies)."""
    per_code = (14 if black_white else 5) * n * k
    buffer = 4 * min(_product_rows(cols), rows) * cols
    table = id_dtype(n, black_white).itemsize * rows * cols
    return table + buffer + per_code * (rows + cols)


def code_features(codes: np.ndarray, k: int, black_white: bool) -> np.ndarray:
    """Rows [E | T] (or E alone) of every code, the code side of
    feedback_ids; shape (len(codes), width) float32. A caller that builds
    many blocks over one code space computes them once and passes them as
    sides, the query rows as query_features of its rows.

    E is the one-hot n*k encoding of encode01, T the k*n thresholds
    [count_c >= t], t = 1..n."""
    rows, n = codes.shape
    onehot = codes[:, :, None] == np.arange(1, k + 1)
    e = onehot.reshape(rows, n * k)
    if not black_white:
        return e.astype(np.float32)
    above = onehot.sum(axis=1)[:, :, None] >= np.arange(1, n + 1)
    return np.hstack([e, above.reshape(rows, k * n)], dtype=np.float32)


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
    """Packed feedback ids for every (query, code) pair; shape (Q, H),
    dtype id_dtype(n, black_white).

    One float32 matrix product per block of query rows, at most
    PRODUCT_CELLS cells each. E(q)·E(x) is the black count, and
    T(q)·T(x) = sum_c min(count_c(q), count_c(x)) is the matched count,
    since min(a, b) = sum_t [a >= t][b >= t]; so
    [n*E | T](q)·[E | T](x) = n*black + matched = black*(n+1) + white.
    The product is exact: every term and partial sum is a non-negative
    integer no larger than the final id, and ids past int16's 32767 are
    refused with CapacityError before anything is allocated (only k = 1
    spaces with n >= 181 black+white, or n >= 32768 black-only, get there),
    so they stay far below float32's 2**24 and no summation order or BLAS
    thread count can round. Casting the product to the table dtype is
    then exact too.

    sides, if given, is the queries' query_features and the codes'
    code_features, so neither is built here.
    """
    n = codes.shape[1]
    largest = _largest_id(n, black_white)
    if largest > np.iinfo(np.int16).max:
        raise CapacityError(f"feedback ids up to {largest} do not fit an int16 table")
    if sides is None:
        a = query_features(code_features(queries, k, black_white), n, k, black_white)
        b = code_features(codes, k, black_white)
    else:
        a, b = sides
    step = _product_rows(len(codes))
    out = np.empty((len(a), len(codes)), dtype=id_dtype(n, black_white))
    buf = np.empty((min(step, len(a)), len(codes)), dtype=np.float32)
    for lo in range(0, len(a), step):
        block = buf[: len(a) - lo]
        np.matmul(a[lo : lo + step], b.T, out=block)
        out[lo : lo + len(block)] = block
    return out


def column_max_buckets(
    table: np.ndarray,
    rows: Optional[np.ndarray],
    ids: Sequence[int],
    cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Largest bucket of each column of table over the rows at `rows`, or
    over every row if rows is None; with cols, of the columns at cols
    only; shape (table.shape[1] or len(cols),) int64. Only the feedback
    ids in ids are counted, so ids must hold every id those cells hold.

    Feedback is symmetric: black counts matching positions, and the matched
    count sum_c min(count_c(q), count_c(x)) is symmetric in q and x. So the
    columns [:, S] of the query-by-code ids that minimax scoring needs
    equal the rows of S, which CodeSpace.feedback_rows computes.

    Rows are read a block of at most BLOCK_ROWS at a time (slices when rows
    is None, else gathered with take, which is faster than fancy indexing
    with np.ix_), compared with every id at once into one reused bool
    buffer of at most about COMPARE_CELLS cells, and the matches of each
    (id, column) summed as uint8, which BLOCK_ROWS rows cannot overflow;
    with more than one block the sums add into int32 counts.
    """
    width = table.shape[1] if cols is None else len(cols)
    n_rows = len(table) if rows is None else len(rows)
    if n_rows == 0 or width == 0:
        return np.zeros(width, dtype=np.int64)
    wanted = np.asarray(ids, dtype=table.dtype)[:, None, None]
    step = max(1, min(n_rows, BLOCK_ROWS, COMPARE_CELLS // (len(wanted) * width)))
    eq = np.empty((len(wanted), step, width), dtype=bool)
    counts = None if step == n_rows else np.zeros((len(wanted), width), dtype=np.int32)
    for lo in range(0, n_rows, step):
        if rows is None:
            part = table[lo : lo + step]
        else:
            part = table.take(rows[lo : lo + step], axis=0)
        if cols is not None:
            part = part.take(cols, axis=1)
        e = eq[:, : len(part)]
        np.equal(part, wanted, out=e)
        sums = e.view(np.uint8).sum(axis=1, dtype=np.uint8)
        if counts is None:
            counts = sums
        else:
            counts += sums
    return counts.max(axis=0).astype(np.int64)


def max_bucket_sizes(fids: np.ndarray, n_fids: int) -> np.ndarray:
    """For each row of feedback ids, the largest bucket size; shape (Q,) int64."""
    return column_max_buckets(fids.T, None, range(n_fids))
