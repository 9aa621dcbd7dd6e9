from itertools import islice
import math
import random
import warnings

import numpy as np
import pytest

from helpers import act, identity, mat_pow, step, transition_rows
from xsplanes.engine import (
    DEFAULT_PARAMS,
    MASK64,
    GenState,
    Params,
    iter_outputs,
    seed_state,
    splitmix64,
    step_words,
    to_unit,
)


def scaled_step(s0, s1, a, b, c, width):
    """Reference recursion on width-bit words, written independently of step_words."""
    mask = (1 << width) - 1
    t = s0 ^ ((s0 << a) & mask)
    t ^= t >> b
    return s1, t ^ s1 ^ (s1 >> c)


def test_params_range_checked():
    with pytest.raises(ValueError):
        Params(0, 17, 26)
    with pytest.raises(ValueError):
        Params(23, 64, 26)


def test_params_small_bc_warns():
    with pytest.warns(UserWarning):
        Params(23, 2, 26)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Params(23, 17, 26)  # defaults are quiet


def test_params_small_bc_warning_names_the_caller():
    # the warning points at the line that made the Params, not at the
    # dataclass's generated __init__ (filename "<string>")
    with pytest.warns(UserWarning) as record:
        Params(23, 17, 3)
    assert [w.filename for w in record] == [__file__]


def test_state_rejects_zero_pair():
    with pytest.raises(ValueError):
        GenState(0, 0)
    with pytest.raises(ValueError):
        GenState(-1, 5)
    with pytest.raises(ValueError):
        GenState(1 << 64, 5)


def test_step_known_answer_s0_only():
    # hand trace for state (1, 0) with shifts (23, 17, 26):
    #   1 ^ (1 << 23)                 = 0x800001
    #   0x800001 ^ (0x800001 >> 17)   = 0x800001 ^ 0x40 = 0x800041
    #   s1 term is zero, so s2 = 0x800041; output = 1 + 0 = 1
    nxt, out = step(GenState(1, 0))
    assert out == 1
    assert (nxt.s0, nxt.s1) == (0, 0x800041)


def test_step_known_answer_s1_only():
    # state (0, 1): s0 term vanishes; s2 = 1 ^ (1 >> 26) = 1; output = 1
    nxt, out = step(GenState(0, 1))
    assert out == 1
    assert (nxt.s0, nxt.s1) == (1, 1)


def test_step_output_wraps():
    _, out = step(GenState(1 << 63, 1 << 63))
    assert out == 0


def test_step_words_matches_scaled_at_64():
    rng = random.Random(11)
    p = DEFAULT_PARAMS
    for _ in range(300):
        s0 = rng.getrandbits(64)
        s1 = rng.getrandbits(64)
        assert step_words(s0, s1, p) == scaled_step(s0, s1, p.a, p.b, p.c, 64)


def test_state_map_is_linear():
    rng = random.Random(12)
    p = DEFAULT_PARAMS
    for _ in range(200):
        u = (rng.getrandbits(64), rng.getrandbits(64))
        v = (rng.getrandbits(64), rng.getrandbits(64))
        su = step_words(*u, p)
        sv = step_words(*v, p)
        sx = step_words(u[0] ^ v[0], u[1] ^ v[1], p)
        assert sx == (su[0] ^ sv[0], su[1] ^ sv[1])


def _splitmix_reference(seed):
    # independent restatement of the documented two-round expansion
    mask = (1 << 64) - 1
    outs = []
    x = seed
    for _ in range(2):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        outs.append(z ^ (z >> 31))
    return outs


def test_seed_state_is_documented_expansion():
    for seed in (0, 1, 42, 0xFFFFFFFFFFFFFFFF):
        st = seed_state(seed)
        ref = _splitmix_reference(seed)
        assert (st.s0, st.s1) == (ref[0], ref[1])
        assert (st.s0, st.s1) != (0, 0)


def test_seed_state_deterministic():
    assert seed_state(7) == seed_state(7)


def test_seed_state_rejects_oversize():
    with pytest.raises(ValueError):
        seed_state(1 << 64)


def test_splitmix_advances_counter():
    ctr, out = splitmix64(0)
    assert ctr == 0x9E3779B97F4A7C15
    assert 0 <= out <= MASK64


def test_to_unit_values():
    assert to_unit(0) == 0.0
    assert to_unit(1 << 63) == 0.5
    assert to_unit(1 << 11) == 2.0**-53
    assert 0.0 <= to_unit(MASK64) < 1.0


def test_triples_single_window():
    # hand trace continued: state (0, 0x800041) outputs 0x800041 and steps
    # to (0x800041, 0x800041), which outputs 0x1000082
    assert list(islice(iter_outputs(GenState(1, 0)), 3)) == [1, 0x800041, 0x1000082]


def test_triples_match_explicit_steps():
    state = seed_state(99)
    s, outs = state, []
    for _ in range(5):
        s, o = step(s)
        outs.append(o)
    assert list(islice(iter_outputs(state), 5)) == outs


def test_stream_depends_only_on_seed_and_params():
    a = list(islice(iter_outputs(seed_state(5)), 100))
    b = list(islice(iter_outputs(seed_state(5)), 100))
    assert a == b
    assert a != list(islice(iter_outputs(seed_state(5, Params(23, 17, 25))), 100))


def test_transition_rows_match_step():
    rng = random.Random(13)
    p = DEFAULT_PARAMS
    s0 = np.array([rng.getrandbits(64) for _ in range(100)], dtype=np.uint64)
    s1 = np.array([rng.getrandbits(64) for _ in range(100)], dtype=np.uint64)
    nxt = act(transition_rows(p), np.stack([s0, s1]))
    for j in range(100):
        assert (int(nxt[0, j]), int(nxt[1, j])) == step_words(int(s0[j]), int(s1[j]), p)


def test_transition_pow_matches_iteration():
    p = DEFAULT_PARAMS
    rows = transition_rows(p)
    for k in (0, 1, 2, 7, 100):
        jump = mat_pow(rows, k)
        s0, s1 = 1, 2
        for _ in range(k):
            s0, s1 = step_words(s0, s1, p)
        assert act(jump, np.array([[1], [2]], dtype=np.uint64)).ravel().tolist() == [s0, s1]


# 2^128 - 1 and its prime factors
PERIOD = (1 << 128) - 1
PERIOD_PRIMES = (3, 5, 17, 257, 65537, 641, 6700417, 274177, 67280421310721)


def test_full_period():
    # the step has order exactly 2^128 - 1, so every nonzero state lies on
    # one cycle through all of them
    assert math.prod(PERIOD_PRIMES) == PERIOD
    ident = identity()
    rows = transition_rows(Params(23, 17, 26))
    assert np.array_equal(mat_pow(rows, PERIOD), ident)
    for p in PERIOD_PRIMES:
        assert not np.array_equal(mat_pow(rows, PERIOD // p), ident)


def test_short_period_shifts_fail_full_period():
    p = Params(62, 17, 26)
    assert not np.array_equal(mat_pow(transition_rows(p), PERIOD), identity())
    # the stream from seed 1 cycles after 24 outputs
    outs = list(islice(iter_outputs(seed_state(1, p)), 48))
    assert len(set(outs)) == 24
    assert outs[24:] == outs[:24]
