"""Exhaustive xor-vs-arithmetic oracles and top-bit case classifiers.

For n-bit pairs (x, y), xor agrees with one of x+y, x-y, y-x exactly when
the corresponding per-column condition holds:

    sum       x ^ y == x + y   iff no column (x_i, y_i) = (1, 1)
    diff      x ^ y == x - y   iff no column (0, 1)
    rev_diff  x ^ y == y - x   iff no column (1, 0)

The module enumerates all 4**n pairs to verify these equivalences and the
resulting counts, evaluates the same conditions on word arrays for the case
census, and carries the case-to-plane coefficient bookkeeping used by the
experiments.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
import warnings

import numpy as np

from .bitlin import WIDTH

# 4**n pairs are enumerated in memory; 12 keeps that at ~17M pairs.
MAX_ENUM_BITS = 12


class Combine(Enum):
    """How xor can match integer arithmetic on a pair (x, y)."""

    SUM = "sum"            # x ^ y == x + y
    DIFF = "diff"          # x ^ y == x - y
    REV_DIFF = "rev_diff"  # x ^ y == y - x


COMBINE_ORDER = (Combine.SUM, Combine.DIFF, Combine.REV_DIFF)


@dataclass(frozen=True)
class CaseLabel:
    """Which of the three arithmetic matches hold for one pair."""

    is_sum: bool
    is_diff: bool
    is_rev_diff: bool

    def kinds(self) -> tuple[Combine, ...]:
        return tuple(
            k
            for k, hit in zip(COMBINE_ORDER, (self.is_sum, self.is_diff, self.is_rev_diff))
            if hit
        )

    @property
    def any(self) -> bool:
        return self.is_sum or self.is_diff or self.is_rev_diff


def _check_width(n: int, limit: int = WIDTH) -> None:
    if not 1 <= n <= limit:
        raise ValueError(f"bit width must be in 1..{limit}, got {n}")


def classify(x: int, y: int, n: int) -> CaseLabel:
    """Column-wise case label of an n-bit pair."""
    _check_width(n)
    mask = (1 << n) - 1
    if not (0 <= x <= mask and 0 <= y <= mask):
        raise ValueError(f"x and y must be {n}-bit values")
    return CaseLabel(
        is_sum=(x & y) == 0,
        is_diff=(~x & y) & mask == 0,
        is_rev_diff=(x & ~y) & mask == 0,
    )


@dataclass(frozen=True)
class CaseCounts:
    """Exhaustive tallies of the three match sets over all n-bit pairs."""

    n: int
    total: int
    n_sum: int
    n_diff: int
    n_rev_diff: int
    n_sum_diff: int
    n_diff_rev_diff: int
    n_rev_diff_sum: int
    n_all_three: int
    n_any: int

    def union_by_inclusion_exclusion(self) -> int:
        return (
            self.n_sum + self.n_diff + self.n_rev_diff
            - self.n_sum_diff - self.n_diff_rev_diff - self.n_rev_diff_sum
            + self.n_all_three
        )


def _pair_grids(n: int):
    # int32 is exact here: values stay below 2**(MAX_ENUM_BITS+1)
    vals = np.arange(1 << n, dtype=np.int32)
    return vals[:, None], vals[None, :]


def column_cases(x, y):
    """The three column conditions on arrays of pairs: (sum, diff, rev_diff) masks.

    x and y are non-negative integer arrays (or ints) of a common width;
    elementwise this agrees with classify.
    """
    return (x & y) == 0, (~x & y) == 0, (x & ~y) == 0


def count_cases(n: int) -> CaseCounts:
    """Enumerate all 4**n pairs and tally the match sets and their overlaps."""
    _check_width(n, MAX_ENUM_BITS)
    in_sum, in_diff, in_rev = column_cases(*_pair_grids(n))
    return CaseCounts(
        n=n,
        total=1 << (2 * n),
        n_sum=int(in_sum.sum()),
        n_diff=int(in_diff.sum()),
        n_rev_diff=int(in_rev.sum()),
        n_sum_diff=int((in_sum & in_diff).sum()),
        n_diff_rev_diff=int((in_diff & in_rev).sum()),
        n_rev_diff_sum=int((in_rev & in_sum).sum()),
        n_all_three=int((in_sum & in_diff & in_rev).sum()),
        n_any=int((in_sum | in_diff | in_rev).sum()),
    )


def verify_xor_sum(n: int) -> bool:
    """Check x^y <= x+y over all pairs, with equality exactly on the sum condition."""
    _check_width(n, MAX_ENUM_BITS)
    x, y = _pair_grids(n)
    xor = x ^ y
    total = x + y  # no modulus
    if not bool((xor <= total).all()):
        return False
    return bool(((xor == total) == column_cases(x, y)[0]).all())


def verify_xor_diff(n: int) -> bool:
    """Check x^y >= x-y (signed) over all pairs, with equality exactly on the diff condition."""
    _check_width(n, MAX_ENUM_BITS)
    x, y = _pair_grids(n)
    xor = x ^ y
    diff = x - y  # signed, no modulus
    if not bool((xor >= diff).all()):
        return False
    return bool(((xor == diff) == column_cases(x, y)[1]).all())


def inner_multiplier(kind: Combine, a: int) -> int:
    """Integer multiplier m with s ^ (s << a) ~ m * s for the given inner case."""
    if kind is Combine.SUM:
        return (1 << a) + 1
    if kind is Combine.DIFF:
        return 1 - (1 << a)
    return (1 << a) - 1


def plane_coefficients(outer: Combine, inner: Combine, a: int) -> tuple[int, int]:
    """Coefficients (cx, cy) with z ~ cx*x + cy*y for a compound case.

    Writing m for the inner multiplier, the two xor operand pairs combine as

        outer SUM       (s1 + m*s0) + (s2 + m*s1) =  m*x + y
        outer DIFF      (s1 - m*s0) + (s2 - m*s1) = -m*x + y
        outer REV_DIFF  (m*s0 - s1) + (m*s1 - s2) =  m*x - y

    where x = s0 + s1 and y = s1 + s2.
    """
    m = inner_multiplier(inner, a)
    cx = -m if outer is Combine.DIFF else m
    cy = -1 if outer is Combine.REV_DIFF else 1
    return cx, cy


def compound_probability(n: int) -> tuple[Fraction, float]:
    """Chance that one inner and one outer compound case hold at n bits,
    for independent uniform words: (((3/4)**n)**2 * 3)**2.

    Returns the exact rational and its float value.  n = 0 is accepted but
    degenerate (the value exceeds 1) and raises a warning.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        warnings.warn("compound_probability(0) is degenerate (value 9)", stacklevel=2)
    single = Fraction(3, 4) ** n
    value = (single**2 * 3) ** 2
    return value, float(value)
