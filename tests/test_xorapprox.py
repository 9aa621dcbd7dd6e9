import math
import random
from fractions import Fraction

import numpy as np
import pytest

from xsplanes.xorapprox import (
    Combine,
    classify,
    column_cases,
    compound_probability,
    count_cases,
    inner_multiplier,
    plane_coefficients,
    verify_xor_diff,
    verify_xor_sum,
)


def test_classify_sum_only():
    label = classify(0b100, 0b010, 3)
    assert label.kinds() == (Combine.SUM,)


def test_classify_zero_pair_all_three():
    for n in (1, 3, 8):
        label = classify(0, 0, n)
        assert label.is_sum and label.is_diff and label.is_rev_diff


def test_classify_rev_diff_only():
    label = classify(0b001, 0b111, 3)
    assert label.kinds() == (Combine.REV_DIFF,)
    assert (0b001 ^ 0b111) == 6 == 7 - 1  # xor equals y - x here


def test_classify_validates():
    with pytest.raises(ValueError):
        classify(1, 1, 0)
    with pytest.raises(ValueError):
        classify(8, 0, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_classify_matches_arithmetic_definitions(n):
    # column conditions against the raw arithmetic, exhaustively
    for x in range(1 << n):
        for y in range(1 << n):
            label = classify(x, y, n)
            assert label.is_sum == ((x ^ y) == x + y)
            assert label.is_diff == ((x ^ y) == x - y)
            assert label.is_rev_diff == ((x ^ y) == y - x)


def test_classify_swap_symmetry():
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randrange(1, 9)
        x = rng.getrandbits(n)
        y = rng.getrandbits(n)
        a = classify(x, y, n)
        b = classify(y, x, n)
        assert a.is_sum == b.is_sum
        assert a.is_diff == b.is_rev_diff
        assert a.is_rev_diff == b.is_diff


def test_count_cases_n1():
    c = count_cases(1)
    assert (c.n_sum, c.n_diff, c.n_rev_diff) == (3, 3, 3)
    assert c.n_sum_diff == 2 and c.n_all_three == 1
    assert c.n_any == 4


def test_count_cases_example_widths():
    c3 = count_cases(3)
    assert c3.total == 64 and c3.n_any == 58  # 6 exceptional pairs
    c4 = count_cases(4)
    assert c4.total == 256 and c4.n_any == 196


@pytest.mark.parametrize("n", range(1, 7))
def test_count_cases_closed_forms(n):
    c = count_cases(n)
    assert c.total == 4**n
    assert c.n_sum == c.n_diff == c.n_rev_diff == 3**n
    assert c.n_sum_diff == c.n_diff_rev_diff == c.n_rev_diff_sum == 2**n
    assert c.n_all_three == 1
    assert c.n_any == 3 * 3**n - 3 * 2**n + 1
    assert c.n_any == c.union_by_inclusion_exclusion()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_count_cases_against_arithmetic_brute_force(n):
    # independent tally straight from the arithmetic definitions
    n_sum = n_diff = n_rev = n_any = 0
    for x in range(1 << n):
        for y in range(1 << n):
            s = (x ^ y) == x + y
            d = (x ^ y) == x - y
            r = (x ^ y) == y - x
            n_sum += s
            n_diff += d
            n_rev += r
            n_any += s or d or r
    c = count_cases(n)
    assert (c.n_sum, c.n_diff, c.n_rev_diff, c.n_any) == (n_sum, n_diff, n_rev, n_any)


def test_count_cases_width_cap():
    with pytest.raises(ValueError):
        count_cases(13)


@pytest.mark.parametrize("n", range(1, 9))
def test_inequality_checks(n):
    assert verify_xor_sum(n)
    assert verify_xor_diff(n)


def test_equality_pair_counts_n3():
    sum_eq = sum(
        (x ^ y) == x + y for x in range(8) for y in range(8)
    )
    diff_eq = sum(
        (x ^ y) == x - y for x in range(8) for y in range(8)
    )
    assert sum_eq == 27
    assert diff_eq == 27


def test_sum_strict_when_overlap():
    assert (1 ^ 1) == 0 < 1 + 1


def test_modular_sum_has_more_equalities():
    # x = y = 0b100: xor is 0 and (x + y) mod 8 is 0, yet a column is (1,1)
    x = y = 0b100
    assert (x ^ y) == (x + y) % 8
    assert not classify(x, y, 3).is_sum


def test_diff_equality_example():
    x, y = 0b110, 0b010
    assert (x ^ y) == 4 == x - y


def test_diff_strict_example():
    assert (0 ^ 1) == 1 >= 0 - 1


def _tops(words, n):
    return words >> np.uint64(64 - n)


def test_classify_inner_zero_top():
    # both s and s << a have zero top bits
    label = column_cases(np.zeros(4, dtype=np.uint64), np.zeros(4, dtype=np.uint64))
    assert all(mask.all() for mask in label)


def test_classify_inner_msb_pair():
    # s = 2^40, a = 23: top 3 of s are 000, top 3 of s << 23 = 2^63 are 100.
    # Column one is (0, 1), which kills the diff case and keeps sum and
    # rev_diff (pair order is (s, s << a)).
    s = np.array([1 << 40], dtype=np.uint64)
    is_sum, is_diff, is_rev_diff = column_cases(_tops(s, 3), _tops(s << np.uint64(23), 3))
    assert is_sum[0]
    assert not is_diff[0]
    assert is_rev_diff[0]


def test_classify_inner_sum_label_tracks_multiplier():
    # when the sum label holds, the top bits of s ^ (s << a) agree with the
    # top bits of (1 + 2^a)*s in a majority of cases; disagreements come
    # from low-bit carries crawling into the window
    rng = np.random.default_rng(41)
    a, n = np.uint64(23), 3
    s = rng.integers(0, 1 << 64, size=40000, dtype=np.uint64, endpoint=False)
    is_sum = column_cases(_tops(s, n), _tops(s << a, n))[0]
    xor_top = _tops(s ^ (s << a), n)[is_sum]
    mul_top = _tops((np.uint64(1) + (np.uint64(1) << a)) * s, n)[is_sum]
    assert is_sum.sum() > 10000
    assert (xor_top == mul_top).mean() > 0.5


def test_classify_outer_matches_classify():
    # the array conditions agree with scalar classify on every pair
    for n in (1, 3, 5):
        vals = np.arange(1 << n, dtype=np.uint64)
        x, y = np.meshgrid(vals, vals, indexing="ij")
        masks = column_cases(x, y)
        for i in range(1 << n):
            for j in range(1 << n):
                label = classify(i, j, n)
                assert tuple(bool(m[i, j]) for m in masks) == (
                    label.is_sum, label.is_diff, label.is_rev_diff
                )
    assert classify(0b001, 0b010, 3).kinds() == (Combine.SUM,)


def test_classify_outer_sum_frequency():
    # fraction of uniform pairs with the sum label at n=3 approaches 27/64
    rng = np.random.default_rng(42)
    trials = 100000
    words = rng.integers(0, 1 << 64, size=(2, trials), dtype=np.uint64, endpoint=False)
    frac = column_cases(_tops(words[0], 3), _tops(words[1], 3))[0].mean()
    expect = 27 / 64
    sigma = math.sqrt(expect * (1 - expect) / trials)
    assert abs(frac - expect) <= 3 * sigma


def test_compound_probability_n3():
    exact, value = compound_probability(3)
    assert exact == Fraction(4782969, 16777216)
    assert round(value, 6) == 0.285087


def test_compound_probability_degenerate_zero():
    with pytest.warns(UserWarning):
        exact, value = compound_probability(0)
    assert exact == 9
    with pytest.raises(ValueError):
        compound_probability(-1)


def test_inner_multipliers():
    assert inner_multiplier(Combine.SUM, 23) == (1 << 23) + 1
    assert inner_multiplier(Combine.DIFF, 23) == 1 - (1 << 23)
    assert inner_multiplier(Combine.REV_DIFF, 23) == (1 << 23) - 1


def test_plane_coefficients_all_nine():
    a = 23
    m_plus = (1 << a) + 1   # multiplier for the sum case
    m_minus = 1 - (1 << a)  # multiplier for the diff case
    m_rev = (1 << a) - 1    # multiplier for the rev_diff case
    expected = {
        (Combine.SUM, Combine.SUM): (m_plus, 1),
        (Combine.SUM, Combine.DIFF): (m_minus, 1),
        (Combine.SUM, Combine.REV_DIFF): (m_rev, 1),
        (Combine.DIFF, Combine.SUM): (-m_plus, 1),
        (Combine.DIFF, Combine.DIFF): (m_rev, 1),      # -(1-2^a) = 2^a-1
        (Combine.DIFF, Combine.REV_DIFF): (m_minus, 1),
        (Combine.REV_DIFF, Combine.SUM): (m_plus, -1),
        (Combine.REV_DIFF, Combine.DIFF): (m_minus, -1),
        (Combine.REV_DIFF, Combine.REV_DIFF): (m_rev, -1),
    }
    for (outer, inner), want in expected.items():
        assert plane_coefficients(outer, inner, a) == want


def _outer_expansion(outer, m, s0, s1, s2):
    if outer is Combine.SUM:
        return (s1 + m * s0) + (s2 + m * s1)
    if outer is Combine.DIFF:
        return (s1 - m * s0) + (s2 - m * s1)
    return (m * s0 - s1) + (m * s1 - s2)


def test_plane_coefficients_integer_identity():
    # cx*x + cy*y with x = s0+s1, y = s1+s2 must equal the case-substituted
    # expansion of the two xor operand pairs, as exact integers
    rng = random.Random(51)
    for _ in range(1000):
        a = rng.randrange(1, 63)
        outer = rng.choice(list(Combine))
        inner = rng.choice(list(Combine))
        s0, s1, s2 = (rng.getrandbits(64) for _ in range(3))
        cx, cy = plane_coefficients(outer, inner, a)
        x, y = s0 + s1, s1 + s2
        m = inner_multiplier(inner, a)
        assert cx * x + cy * y == _outer_expansion(outer, m, s0, s1, s2)
