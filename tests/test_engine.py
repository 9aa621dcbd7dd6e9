import random
import warnings

import pytest

from xsplanes.bitlin import MASK64
from xsplanes.engine import (
    DEFAULT_PARAMS,
    GenState,
    Params,
    apply_transition,
    iter_outputs,
    scaled_step,
    seed_state,
    splitmix64,
    step,
    step_words,
    to_unit,
    transition_pow,
    transition_rows,
    triples,
)


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


def test_scaled_step_validates():
    with pytest.raises(ValueError):
        scaled_step(1, 0, 8, 1, 2, 8)  # shift == width
    with pytest.raises(ValueError):
        scaled_step(1, 0, 1, 1, 1, 0)


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


def test_triples_requires_positive_count():
    with pytest.raises(ValueError):
        triples(GenState(1, 0), 0)


def test_triples_single_window():
    # hand trace continued: state (0, 0x800041) outputs 0x800041 and steps
    # to (0x800041, 0x800041), which outputs 0x1000082
    words = [o for o, _ in zip(iter_outputs(GenState(1, 0)), range(3))]
    assert words == [1, 0x800041, 0x1000082]
    got = triples(GenState(1, 0), 1)
    assert got == [(to_unit(1), to_unit(0x800041), to_unit(0x1000082))]


def test_triples_match_explicit_steps():
    state = seed_state(99)
    s, outs = state, []
    for _ in range(5):
        s, o = step(s)
        outs.append(to_unit(o))
    got = triples(state, 3)
    assert got == [tuple(outs[i : i + 3]) for i in range(3)]


def test_stream_depends_only_on_seed_and_params():
    a = [o for o, _ in zip(iter_outputs(seed_state(5)), range(100))]
    b = [o for o, _ in zip(iter_outputs(seed_state(5)), range(100))]
    assert a == b


def test_transition_rows_match_step():
    rng = random.Random(13)
    p = DEFAULT_PARAMS
    rows = transition_rows(p)
    for _ in range(100):
        s0 = rng.getrandbits(64)
        s1 = rng.getrandbits(64)
        packed = apply_transition(rows, (s0 << 64) | s1)
        assert (packed >> 64, packed & MASK64) == step_words(s0, s1, p)


def test_transition_pow_matches_iteration():
    p = DEFAULT_PARAMS
    rows = transition_rows(p)
    for k in (0, 1, 2, 7, 100):
        jump = transition_pow(rows, k)
        s0, s1 = 1, 2
        for _ in range(k):
            s0, s1 = step_words(s0, s1, p)
        packed = apply_transition(jump, (1 << 64) | 2)
        assert (packed >> 64, packed & MASK64) == (s0, s1)
