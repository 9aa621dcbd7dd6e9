"""The word shifts of the step, and the tests' GF(2) core on uint64 word arrays against Python-int rows."""

import random

import numpy as np
import pytest

import helpers as ref
from helpers import act, identity, mat_mul, mat_pow, transition_rows
from xsplanes.engine import DEFAULT_PARAMS, MASK64, Params, step_words

MASK128 = (1 << 128) - 1


def _xorshift_left(a):
    return lambda v: v ^ ((v << a) & MASK128)


def _xorshift_right(b):
    return lambda v: v ^ (v >> b)


# a left and a right xorshift on packed pairs; the pair step's own matrix
# is tested in test_engine
F, G = _xorshift_left(45), _xorshift_right(70)


def _random_rows(rng):
    """A random linear map on packed pairs, as Python-int rows."""
    return [rng.getrandbits(128) for _ in range(128)]


def _maps(rng):
    """Python-int rows of the xorshifts and of two random maps, each with its (2, 128) array."""
    rows = [ref.matrix_of(F), ref.matrix_of(G), _random_rows(rng), _random_rows(rng)]
    return [(r, ref.words(r)) for r in rows]


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
    # column 63 is the image of s0 = 1: 1 ^ (1 << 23) = 0x800001, then
    # 0x800001 ^ (0x800001 >> 17) = 0x800041 lands in s1
    assert ref.ints(transition_rows(DEFAULT_PARAMS))[63] == 0x800041


def test_xform_right_known():
    # column 0 is the image of s0 = 2^63 (the left shift drops it, the right
    # shift by 17 copies it to bit 46); column 127 that of s1 = 1 (-> (1, 1))
    images = ref.ints(transition_rows(DEFAULT_PARAMS))
    assert images[0] == (1 << 63) | (1 << 46)
    assert images[127] == (1 << 64) | 1


def test_xform_zero_fixed():
    for shifts in ((1, 4, 4), (23, 17, 26), (63, 63, 63)):
        assert step_words(0, 0, Params(*shifts)) == (0, 0)
        zero = np.zeros((2, 3), dtype=np.uint64)
        assert not act(transition_rows(Params(*shifts)), zero).any()
    assert not act(ref.words(ref.matrix_of(F)), np.zeros((2, 1), dtype=np.uint64)).any()


def test_xform_is_linear():
    rng = random.Random(202)
    for _ in range(300):
        p = Params(*(rng.randrange(4, 64) for _ in range(3)))
        u0, u1, v0, v1 = (rng.getrandbits(64) for _ in range(4))
        su, sv = step_words(u0, u1, p), step_words(v0, v1, p)
        assert step_words(u0 ^ v0, u1 ^ v1, p) == (su[0] ^ sv[0], su[1] ^ sv[1])


def test_matrix_of_identity():
    ident = identity()
    assert ident.shape == (2, 128) and ident.dtype == np.uint64
    assert ref.ints(ident) == ref.matrix_of(lambda v: v)
    for _, m in _maps(random.Random(606)):
        assert np.array_equal(mat_pow(m, 0), ident)
        assert np.array_equal(mat_mul(ident, m), m)
        assert np.array_equal(mat_mul(m, ident), m)


def test_matrix_row_convention():
    # the lowest basis vector shifted left by one lands one position up,
    # and bit 63 of s1 moves into bit 0 of s0
    shl = ref.words(ref.matrix_of(lambda v: (v << 1) & MASK128))
    assert ref.ints(act(shl, ref.words([1, 1 << 63]))) == [2, 1 << 64]


def test_matrix_action_matches_op():
    # the word-array action equals the Python-int rows' action, and the op itself
    rng = random.Random(303)
    for rows, m in _maps(rng):
        vs = [rng.getrandbits(128) for _ in range(500)]
        assert ref.ints(act(m, ref.words(vs))) == [ref.act_rows(rows, v) for v in vs]
    vs = [rng.getrandbits(128) for _ in range(500)]
    assert ref.ints(act(ref.words(ref.matrix_of(F)), ref.words(vs))) == [F(v) for v in vs]


def test_matrix_composition_order():
    # applying f then g equals acting with mat_mul(m, n) of their matrices
    rng = random.Random(404)
    m, n = ref.words(ref.matrix_of(F)), ref.words(ref.matrix_of(G))
    assert np.array_equal(mat_mul(m, n), ref.words(ref.matrix_of(lambda v: G(F(v)))))
    assert not np.array_equal(mat_mul(m, n), mat_mul(n, m))
    (r1, m1), (r2, m2) = _maps(rng)[2:]
    assert ref.ints(mat_mul(m1, m2)) == [ref.act_rows(r2, row) for row in r1]
    vs = ref.words([rng.getrandbits(128) for _ in range(100)])
    assert np.array_equal(act(mat_mul(m1, m2), vs), act(m2, act(m1, vs)))


def test_matrix_action_linear():
    rng = random.Random(505)
    for _, m in _maps(rng):
        v = ref.words([rng.getrandbits(128) for _ in range(200)])
        w = ref.words([rng.getrandbits(128) for _ in range(200)])
        assert np.array_equal(act(m, v ^ w), act(m, v) ^ act(m, w))


def test_act_matches_reference_on_edge_batches():
    # act reads a vector a byte at a time through tables: check empty and
    # single-vector batches, all ones, a full byte at each of the 16 byte
    # positions, and every single set bit, so each table entry's bit order
    # and each byte's shift are exercised in both words
    edges = [(1 << 128) - 1] + [0xFF << (8 * k) for k in range(16)] + [1 << i for i in range(128)]
    rng = random.Random(707)
    for rows, m in _maps(rng):
        assert act(m, np.zeros((2, 0), dtype=np.uint64)).shape == (2, 0)
        v = rng.getrandbits(128)
        assert ref.ints(act(m, ref.words([v]))) == [ref.act_rows(rows, v)]
        assert ref.ints(act(m, ref.words(edges))) == [ref.act_rows(rows, e) for e in edges]


def test_matrix_shape_checked():
    # a matrix is a (2, 128) uint64 array, a batch of n vectors a (2, n) one,
    # and every operation keeps the shape
    m, n = ref.words(ref.matrix_of(F)), ref.words(ref.matrix_of(G))
    for out in (mat_mul(m, n), mat_pow(m, 5), transition_rows(DEFAULT_PARAMS)):
        assert out.shape == (2, 128) and out.dtype == np.uint64
    for k in (1, 7):
        assert act(m, np.ones((2, k), dtype=np.uint64)).shape == (2, k)


@pytest.mark.parametrize("seed", [64, 128])
def test_mat_pow_matches_iteration(seed):
    # a random linear map and random vectors drawn from the seed
    rng = random.Random(seed)
    rows = _random_rows(rng)
    m = ref.words(rows)
    vs = [rng.getrandbits(128) for _ in range(20)]
    for k in (0, 1, 2, 7, 100):
        want = list(vs)
        for _ in range(k):
            want = [ref.act_rows(rows, w) for w in want]
        assert ref.ints(act(mat_pow(m, k), ref.words(vs))) == want
    with pytest.raises(ValueError):
        mat_pow(m, -1)


def test_mask64():
    assert MASK64 == (1 << 64) - 1
