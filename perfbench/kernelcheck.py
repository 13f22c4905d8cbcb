"""Bit-equality of querymind's scoring kernels with a pure-numpy reference.

Usage: python3 kernelcheck.py   (with querymind importable)

Checks ``_kernels.feedback_ids`` over the full code space, and
``_kernels.max_bucket_sizes`` over the full table and over a column subset,
on the permutation game n = 7 (black pegs) and on classic Mastermind (4,6)
(black and white pegs). Codes are enumerated here with ``itertools``; the
reference counts pegs by broadcasting and buckets by one ``bincount`` per
row. Prints one JSON line: ``{"ok": bool, "cases": [...]}``.
"""
import itertools
import json
import sys

import numpy as np

from querymind import _kernels

CASES = (
    ("perm-7 b", 7, 7, False, False),
    ("(4,6) bw", 4, 6, True, True),
)
ROWS_PER_CHUNK = 128


def codes_of(n: int, k: int, repeats: bool) -> np.ndarray:
    colors = range(1, k + 1)
    it = itertools.product(colors, repeat=n) if repeats else itertools.permutations(colors, n)
    return np.array(list(it), dtype=np.int16)


def reference_fids(q: np.ndarray, h: np.ndarray, k: int, bw: bool) -> np.ndarray:
    n = q.shape[1]
    black = (q[:, None, :] == h[None, :, :]).sum(axis=2)
    if not bw:
        return black
    matched = np.zeros_like(black)
    for c in range(1, k + 1):
        qc = (q == c).sum(axis=1)
        hc = (h == c).sum(axis=1)
        matched += np.minimum(qc[:, None], hc[None, :])
    return black * (n + 1) + (matched - black)


def reference_max_buckets(fids: np.ndarray, n_fids: int) -> np.ndarray:
    return np.array([np.bincount(row, minlength=n_fids).max() for row in fids])


def check_case(name: str, n: int, k: int, repeats: bool, bw: bool) -> dict:
    codes = codes_of(n, k, repeats)
    n_fids = (n + 1) ** 2 if bw else n + 1
    table = _kernels.feedback_ids(codes, codes, k, bw)
    fids_equal = table.shape == (len(codes), len(codes)) and all(
        np.array_equal(
            table[lo : lo + ROWS_PER_CHUNK],
            reference_fids(codes[lo : lo + ROWS_PER_CHUNK], codes, k, bw),
        )
        for lo in range(0, len(codes), ROWS_PER_CHUNK)
    )
    buckets_equal = fids_equal
    if fids_equal:
        rng = np.random.default_rng(0)
        cols = np.sort(rng.choice(len(codes), size=len(codes) // 10, replace=False))
        for sub in (table, np.ascontiguousarray(table[:, cols])):
            got = _kernels.max_bucket_sizes(sub, n_fids)
            want = reference_max_buckets(sub.astype(np.int64), n_fids)
            buckets_equal = buckets_equal and np.array_equal(got, want)
    return {
        "case": name,
        "codes": len(codes),
        "feedback_ids_equal": bool(fids_equal),
        "max_bucket_sizes_equal": bool(buckets_equal),
    }


def main() -> int:
    cases = [check_case(*case) for case in CASES]
    ok = all(c["feedback_ids_equal"] and c["max_bucket_sizes_equal"] for c in cases)
    print(json.dumps({"ok": ok, "cases": cases}, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
