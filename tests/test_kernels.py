import tracemalloc

import numpy as np
import pytest

from querymind import _kernels
from querymind.codespace import CodeSpace, FeedbackMode, Repeats, VariantConfig, feedback
from querymind.strategies import SolutionSet


def _random_codes(rng, rows, n, k):
    return rng.integers(1, k + 1, size=(rows, n)).astype(np.int16)


BW, B = FeedbackMode.BLACK_WHITE, FeedbackMode.BLACK_ONLY
ID_CASES = [
    *(
        pytest.param(n, k, mode, id=f"{n}-{k}-{mode.value}")
        for n, k in [(1, 1), (3, 2), (4, 6), (5, 3), (2, 7)]
        for mode in FeedbackMode
    ),
    # the widths' boundaries: largest ids 240 and 272, 255 and 256
    pytest.param(15, 3, BW, id="15-3-bw"),
    pytest.param(16, 3, BW, id="16-3-bw"),
    pytest.param(255, 2, B, id="255-2-b"),
    pytest.param(256, 2, B, id="256-2-b"),
]


@pytest.mark.parametrize("n,k,feedback_mode", ID_CASES)
def test_feedback_ids_match_scalar(n, k, feedback_mode):
    rng = np.random.default_rng(11)
    q = _random_codes(rng, 40, n, k)
    h = _random_codes(rng, 40, n, k)
    h[:4] = q[:4]  # equal codes give the largest id, n black pegs
    black_white = feedback_mode is FeedbackMode.BLACK_WHITE
    out = _kernels.feedback_ids(q, h, k, black_white)
    # one byte per id exactly when the largest id fits one
    largest = n * (n + 1) if black_white else n
    assert out.shape == (40, 40) and out.max() == largest
    assert out.dtype == (np.uint8 if largest < 256 else np.int16)
    cfg = VariantConfig(n, k, feedback=feedback_mode)
    for i in range(40):
        for j in range(40):
            fb = feedback(tuple(map(int, q[i])), tuple(map(int, h[j])), cfg)
            assert out[i, j] == (fb.black * (n + 1) + fb.white if black_white else fb.black)


def test_feedback_bytes_count_one_byte_per_id():
    # perm-7's 5040 x 5040 ids: 54_321_120 bytes when they took two bytes
    assert _kernels.feedback_bytes(5040, 5040, 7, 7, False) == 54_321_120 - 5040**2


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


def test_max_bucket_sizes_memory_bounded_by_rows():
    # the exact solver scores a space's worth of rows per node, 120 on
    # perm-5: few rows must not pay for the offsets of a full chunk
    fids = np.zeros((3, 10), dtype=np.int16)
    tracemalloc.start()
    try:
        out = _kernels.max_bucket_sizes(fids, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**14
    assert out.tolist() == [10, 10, 10]


@pytest.mark.parametrize(
    "cfg",
    [
        VariantConfig(4, 4, feedback=FeedbackMode.BLACK_ONLY, repeats=Repeats.FORBIDDEN),
        VariantConfig(2, 4),
        VariantConfig(3, 3, repeats=Repeats.FORBIDDEN),
        VariantConfig(3, 3),
        VariantConfig(3, 1),
    ],
    ids=["perm4-b", "2-4-bw", "3-3-norep-bw", "3-3-bw", "3-1-bw"],
)
def test_fid_table_matches_scalar_feedback(cfg):
    space = CodeSpace.enumerate(cfg)
    table = space.feedback_rows(np.arange(space.size))
    # symmetric, so column_max_buckets may read the rows of S for table[:, S]
    assert np.array_equal(table, table.T)
    blacks = space.black_rows(np.arange(space.size))
    for i, q in enumerate(space):
        for j, h in enumerate(space):
            assert table[i, j] == space.fid_of(feedback(q, h, cfg))
            fb = space.feedback_of_fid(int(table[i, j]))
            assert fb == feedback(q, h, cfg)
            assert blacks[i, j] == fb.black


def test_black_white_table_built_in_one_array():
    # the black+white ids are packed into the black-count array in place:
    # a second size**2 array would put the peak above twice the table
    space = CodeSpace.enumerate(VariantConfig(5, 5))
    tracemalloc.start()
    try:
        table = space.feedback_rows(np.arange(space.size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * table.nbytes
    for i in (0, 1234, space.size - 1):
        q = space.decode(i)
        for j in (0, 777, space.size - 1):
            assert table[i, j] == space.fid_of(feedback(q, space.decode(j), space.config))


@pytest.mark.parametrize(
    "rows",
    [[5, 0, 17, 3], [4, 4, 9, 4, 0, 9], [], list(range(60))[::-1]],
    ids=["unsorted", "repeated", "zero-rows", "all-reversed"],
)
@pytest.mark.parametrize("width", [0, 1, 137, 5000])
def test_column_max_buckets_against_bincount(rows, width):
    rng = np.random.default_rng(width)
    table = rng.integers(0, 9, size=(60, width)).astype(np.int16)
    rows = np.array(rows, dtype=np.int64)
    out = _kernels.column_max_buckets(table, rows, range(9))
    assert out.dtype == np.int64 and out.shape == (width,)
    want = [np.bincount(table[rows, j], minlength=9).max() if len(rows) else 0
            for j in range(width)]
    assert out.tolist() == want


@pytest.mark.parametrize("rows", [None, [5, 0, 17, 3, 5]], ids=["every-row", "some-rows"])
@pytest.mark.parametrize("width", [0, 1, 137, 5000])
def test_column_max_buckets_of_some_columns(rows, width):
    rng = np.random.default_rng(width)
    table = rng.integers(0, 9, size=(60, width)).astype(np.int16)
    # every third column from the last, then the first one again
    cols = np.array([*range(width - 1, -1, -3), 0][:width], dtype=np.int64)
    at = np.arange(60) if rows is None else np.array(rows, dtype=np.int64)
    out = _kernels.column_max_buckets(table, None if rows is None else at, range(9), cols)
    assert out.dtype == np.int64 and out.shape == (len(cols),)
    assert out.tolist() == [np.bincount(table[at, j], minlength=9).max() for j in cols]


@pytest.mark.parametrize(
    "cfg",
    [
        VariantConfig(5, 5, feedback=FeedbackMode.BLACK_ONLY, repeats=Repeats.FORBIDDEN),
        VariantConfig(4, 4),
    ],
    ids=["perm5-b", "4-4-bw"],
)
def test_minimax_scores_against_column_reference(cfg):
    space = CodeSpace.enumerate(cfg)
    table = space.feedback_rows(np.arange(space.size))
    rng = np.random.default_rng(3)
    for m in (1, 2, 7, 40, space.size):
        indices = rng.choice(space.size, size=m, replace=False)
        for s in (indices, np.sort(indices)):
            want = [np.bincount(table[q, s]).max() for q in range(space.size)]
            assert SolutionSet(space, s).minimax_scores().tolist() == want


@pytest.mark.parametrize("n_rows", [0, 254, 255, 256, 511, 600])
@pytest.mark.parametrize("layout", ["slices", "gathered", "transposed"])
def test_column_max_buckets_past_one_uint8_block(n_rows, layout):
    # column 0 holds one id in every row: its count reaches 255 within one
    # block and passes it only by adding blocks
    rng = np.random.default_rng(n_rows)
    table = rng.integers(0, 9, size=(n_rows, 40)).astype(np.int16)
    table[:, 0] = 4
    if layout == "slices":
        out = _kernels.column_max_buckets(table, None, range(9))
    elif layout == "gathered":
        order = rng.permutation(n_rows)
        out = _kernels.column_max_buckets(table[order], np.argsort(order), range(9))
    else:
        # max_bucket_sizes reads its rows of ids as the columns of a view
        out = _kernels.max_bucket_sizes(np.ascontiguousarray(table.T), 9)
    assert out.dtype == np.int64 and out.shape == (40,)
    want = [np.bincount(table[:, j], minlength=9).max() if n_rows else 0 for j in range(40)]
    assert out.tolist() == want
    assert n_rows == 0 or out[0] == n_rows


@pytest.mark.parametrize("n_rows", [7, 300])
def test_column_max_buckets_of_the_ids_that_occur(n_rows):
    # counting only the ids that occur gives the same maxima
    rng = np.random.default_rng(n_rows)
    ids = [0, 2, 5, 7]
    table = rng.choice(np.array(ids, dtype=np.int16), size=(n_rows, 137))
    rows = rng.permutation(n_rows)[: n_rows - 3]
    out = _kernels.column_max_buckets(table, rows, ids)
    want = [np.bincount(table[rows, j]).max() for j in range(137)]
    assert out.tolist() == want
