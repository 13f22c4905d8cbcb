import tracemalloc

import numpy as np
import pytest

from querymind import _kernels
from querymind.codespace import CodeSpace, FeedbackMode, Repeats, VariantConfig, feedback


def _random_codes(rng, rows, n, k):
    return rng.integers(1, k + 1, size=(rows, n)).astype(np.int16)


@pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (4, 6), (5, 3)])
def test_black_counts_match_scalar(n, k):
    rng = np.random.default_rng(11)
    q = _random_codes(rng, 40, n, k)
    h = _random_codes(rng, 40, n, k)
    out = _kernels.black_counts(q, h)
    cfg = VariantConfig(n, k, feedback=FeedbackMode.BLACK_ONLY)
    for i in range(5):
        for j in range(5):
            expected = feedback(tuple(map(int, q[i])), tuple(map(int, h[j])), cfg)
            assert out[i, j] == expected.black


def test_max_bucket_sizes_against_counter():
    rng = np.random.default_rng(5)
    fids = rng.integers(0, 9, size=(20, 137)).astype(np.int16)
    out = _kernels.max_bucket_sizes(fids, 9)
    for i in range(20):
        counts = np.bincount(fids[i], minlength=9)
        assert out[i] == counts.max()


def test_max_bucket_sizes_memory_bounded_by_cells():
    # perm-7's first minimax query counts 5040 rows of 5040 columns; the
    # int64 temporaries must stay chunked, not grow with rows * columns
    rng = np.random.default_rng(7)
    fids = rng.integers(0, 8, size=(2000, 5040)).astype(np.int16)
    tracemalloc.start()
    try:
        out = _kernels.max_bucket_sizes(fids, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    for i in (0, 999, 1999):
        assert out[i] == np.bincount(fids[i], minlength=8).max()


def test_fid_table_matches_scalar_feedback():
    cfg = VariantConfig(3, 3, repeats=Repeats.FORBIDDEN)
    space = CodeSpace.enumerate(cfg)
    table = space.fid_table()
    for i, q in enumerate(space):
        for j, h in enumerate(space):
            assert table[i, j] == space.fid_of(feedback(q, h, cfg))
            fb = space.feedback_of_fid(int(table[i, j]))
            assert fb == feedback(q, h, cfg)
