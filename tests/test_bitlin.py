"""The word shifts of the step, and the GF(2) row-matrix core at widths 64 and 128."""

import random

import pytest

from xsplanes.engine import (
    DEFAULT_PARAMS,
    MASK64,
    Params,
    act,
    mat_mul,
    mat_pow,
    matrix_of,
    step_words,
    transition_rows,
)


def _xorshift_left(width, a):
    return lambda v: v ^ ((v << a) & ((1 << width) - 1))


def _xorshift_right(b):
    return lambda v: v ^ (v >> b)


# a left and a right xorshift per width; the pair step's own matrix is
# tested in test_engine
OPS = [
    (64, _xorshift_left(64, 23), _xorshift_right(17)),
    (128, _xorshift_left(128, 45), _xorshift_right(70)),
]


def test_shl_single_bit():
    # with b = c = 63 the right shifts vanish: a unit s0 gains bit a
    for a in (1, 23, 62):
        assert step_words(1, 0, Params(a, 63, 63)) == (0, 1 | 1 << a)


def test_shl_drops_msb():
    # the left shift drops the top bit for every a; only the right shift
    # by 63 moves it, down to bit 0
    for a in (1, 23, 63):
        assert step_words(1 << 63, 0, Params(a, 63, 63)) == (0, (1 << 63) | 1)


def test_shl_is_doubling_mod_2_64():
    # step_words against the recursion written with arithmetic shifts
    rng = random.Random(101)
    for _ in range(500):
        s0, s1 = rng.getrandbits(64), rng.getrandbits(64)
        a, b, c = rng.randrange(1, 64), rng.randrange(4, 64), rng.randrange(4, 64)
        t = s0 ^ (s0 * 2**a) % 2**64
        t ^= t // 2**b
        assert step_words(s0, s1, Params(a, b, c)) == (s1, t ^ s1 ^ s1 // 2**c)


def test_shr_known_value():
    # 0x800001 = 2^23 + 1; shifting right 17 leaves 2^6 = 0x40
    assert step_words(0, 0x800001, Params(23, 17, 17)) == (0x800001, 0x800041)


def test_shr_drops_lsb():
    for c in (4, 26, 63):
        assert step_words(0, 1, Params(23, 17, c)) == (1, 1)


@pytest.mark.parametrize("count", [-1, 64, 100])
def test_shift_range_rejected(count):
    # range checking lives in Params, for each of the three shifts
    for shifts in ((count, 17, 26), (23, count, 26), (23, 17, count)):
        with pytest.raises(ValueError):
            Params(*shifts)


def test_xform_left_known():
    # row 63 is the image of s0 = 1: 1 ^ (1 << 23) = 0x800001, then
    # 0x800001 ^ (0x800001 >> 17) = 0x800041 lands in s1
    assert transition_rows(DEFAULT_PARAMS)[63] == 0x800041


def test_xform_right_known():
    # row 0 is the image of s0 = 2^63 (the left shift drops it, the right
    # shift by 17 copies it to bit 46); row 127 that of s1 = 1 (-> (1, 1))
    rows = transition_rows(DEFAULT_PARAMS)
    assert rows[0] == (1 << 63) | (1 << 46)
    assert rows[127] == (1 << 64) | 1


def test_xform_zero_fixed():
    for shifts in ((1, 4, 4), (23, 17, 26), (63, 63, 63)):
        assert step_words(0, 0, Params(*shifts)) == (0, 0)
    for width, op, _ in OPS:
        assert act(matrix_of(op, width), 0) == 0


def test_xform_is_linear():
    rng = random.Random(202)
    for _ in range(300):
        p = Params(*(rng.randrange(4, 64) for _ in range(3)))
        u0, u1, v0, v1 = (rng.getrandbits(64) for _ in range(4))
        su, sv = step_words(u0, u1, p), step_words(v0, v1, p)
        assert step_words(u0 ^ v0, u1 ^ v1, p) == (su[0] ^ sv[0], su[1] ^ sv[1])


def test_matrix_of_identity():
    for width, op, _ in OPS:
        ident = matrix_of(lambda v: v, width)
        assert ident[0] == 1 << (width - 1)
        assert ident[-1] == 1
        m = matrix_of(op, width)
        assert mat_pow(m, 0) == ident
        assert mat_mul(ident, m) == mat_mul(m, ident) == m


def test_matrix_row_convention():
    # the lowest basis vector shifted left by one lands one position up
    for width in (64, 128):
        assert act(matrix_of(lambda v: (v << 1) & ((1 << width) - 1), width), 1) == 2


def test_matrix_action_matches_op():
    rng = random.Random(303)
    for width, op, _ in OPS:
        m = matrix_of(op, width)
        for _ in range(500):
            v = rng.getrandbits(width)
            assert act(m, v) == op(v)


def test_matrix_composition_order():
    # applying f then g equals acting with mat_mul(matrix_of(f), matrix_of(g))
    rng = random.Random(404)
    for width, f, g in OPS:
        m, n = matrix_of(f, width), matrix_of(g, width)
        assert mat_mul(m, n) == matrix_of(lambda v: g(f(v)), width)
        assert mat_mul(m, n) != mat_mul(n, m)
        for _ in range(100):
            v = rng.getrandbits(width)
            assert act(mat_mul(m, n), v) == act(n, act(m, v))


def test_matrix_action_linear():
    rng = random.Random(505)
    for width, op, _ in OPS:
        m = matrix_of(op, width)
        for _ in range(200):
            v, w = rng.getrandbits(width), rng.getrandbits(width)
            assert act(m, v ^ w) == act(m, v) ^ act(m, w)


def test_matrix_shape_checked():
    # a matrix's width is its row count, and every operation keeps it
    for width, f, g in OPS:
        m, n = matrix_of(f, width), matrix_of(g, width)
        assert len(m) == len(mat_mul(m, n)) == len(mat_pow(m, 5)) == width
    assert len(transition_rows(DEFAULT_PARAMS)) == 128


@pytest.mark.parametrize("width, f, g", OPS, ids=("64", "128"))
def test_mat_pow_matches_iteration(width, f, g):
    op = lambda v: g(f(v))
    m = matrix_of(op, width)
    rng = random.Random(width)
    for k in (0, 1, 2, 7, 100):
        jump = mat_pow(m, k)
        v = rng.getrandbits(width)
        w = v
        for _ in range(k):
            w = op(w)
        assert act(jump, v) == w
    with pytest.raises(ValueError):
        mat_pow(m, -1)


def test_mask64():
    assert MASK64 == (1 << 64) - 1
