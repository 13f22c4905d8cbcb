"""Machine and environment record printed next to the benchmark's numbers.

Usage: python3 envinfo.py   (with querymind importable)

Prints one JSON object: CPU count and model, Python, numpy and its BLAS,
whether numba imports and whether querymind uses it, and the default that
the CLI resolves for ``--threads``.
"""
import json
import os
import platform
import sys

import numpy as np


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def numpy_blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def numba_imports() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def main() -> None:
    from querymind import _kernels
    from querymind.cli import build_parser

    args = build_parser().parse_args(["worst-case", "--n", "1", "--k", "1"])
    print(
        json.dumps(
            {
                "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "cpu_model": cpu_model(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "numpy_blas": numpy_blas(),
                "numba_imports": numba_imports(),
                "querymind_uses_numba": bool(_kernels.USING_NUMBA),
                "cli_threads_default": args.threads,
            },
            sort_keys=True,
        )
    )


if __name__ == "__main__":
    main()
