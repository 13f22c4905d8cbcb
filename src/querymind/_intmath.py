"""Exact integer helpers shared by the solver and the bound calculators.

Kept apart from ``combinatorics``, which imports ``fractions``, so that the
exact solver does not load the bound calculators.
"""
from .errors import DomainError


def ceil_log(base: int, m: int) -> int:
    """Smallest t >= 0 with base**t >= m, i.e. ceil(log_base(m)) for m >= 1.

    Compared in exact integers so the ceiling never suffers float rounding.
    """
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    t, power = 0, 1
    while power < m:
        power *= base
        t += 1
    return t
