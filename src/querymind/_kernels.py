"""Hot numeric kernels: pairwise feedback tables and bucket counting.

Feedback ids: a (black, white) response is packed as ``black * (n+1) + white``
for black+white configs, or just ``black`` for black-only configs, giving a
dense integer range suitable for bincount-style bucket sizing.
"""
from __future__ import annotations

import numpy as np

# read by perfbench/envinfo.py for its environment record
USING_NUMBA = False

_CHUNK = 256  # query rows per broadcast chunk, bounds peak memory
CHUNK_CELLS = 1 << 18  # table cells per max_bucket_sizes chunk


def black_counts(queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Black-peg counts for every (query, code) pair; shape (Q, H) int16."""
    q_rows = queries.shape[0]
    out = np.empty((q_rows, codes.shape[0]), dtype=np.int16)
    for lo in range(0, q_rows, _CHUNK):
        hi = min(lo + _CHUNK, q_rows)
        eq = queries[lo:hi, None, :] == codes[None, :, :]
        out[lo:hi] = eq.sum(axis=2, dtype=np.int16)
    return out


def _color_counts(codes: np.ndarray, k: int) -> np.ndarray:
    """Per-code histogram of colors 1..k; shape (H, k) int16."""
    rows, n = codes.shape
    counts = np.zeros((rows, k), dtype=np.int16)
    for c in range(1, k + 1):
        counts[:, c - 1] = (codes == c).sum(axis=1, dtype=np.int16)
    return counts


def feedback_ids(
    queries: np.ndarray, codes: np.ndarray, k: int, black_white: bool
) -> np.ndarray:
    """Packed feedback ids for every (query, code) pair; shape (Q, H) int16."""
    n = queries.shape[1]
    black = black_counts(queries, codes)
    if not black_white:
        return black
    qc = _color_counts(queries, k)
    hc = _color_counts(codes, k)
    out = np.empty_like(black)
    for lo in range(0, queries.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, queries.shape[0])
        matched = np.minimum(qc[lo:hi, None, :], hc[None, :, :]).sum(
            axis=2, dtype=np.int16
        )
        out[lo:hi] = black[lo:hi] * np.int16(n + 1) + (matched - black[lo:hi])
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
    rows_per_chunk = max(1, CHUNK_CELLS // max(s_cols, n_fids))
    offsets = np.arange(rows_per_chunk, dtype=np.int64)[:, None] * n_fids
    flat = np.empty((min(rows_per_chunk, q_rows), s_cols), dtype=np.int64)
    for lo in range(0, q_rows, rows_per_chunk):
        hi = min(lo + rows_per_chunk, q_rows)
        chunk = flat[: hi - lo]
        np.add(fids[lo:hi], offsets[: hi - lo], out=chunk)
        counts = np.bincount(chunk.ravel(), minlength=(hi - lo) * n_fids)
        out[lo:hi] = counts.reshape(hi - lo, n_fids).max(axis=1)
    return out
