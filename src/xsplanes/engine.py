"""The xorshift128+ generator: recursion, seeding, streams, unit conversion.

State is a pair of 64-bit words (s0, s1).  One step emits
(s0 + s1) mod 2**64 and replaces the pair with (s1, s2) where

    s2 = ((s0 ^ (s0 << a)) ^ ((s0 ^ (s0 << a)) >> b)) ^ (s1 ^ (s1 >> c))

i.e. the shift-count triple (a, b, c) drives one left xorshift of s0,
one right xorshift of the result, and one right xorshift of s1.  A word is
read as a GF(2) row vector with its most significant bit first; the step is
linear in the packed pair (s0 << 64) | s1, and the matrix helpers at the end
of the module raise it to a power, on uint64 word arrays, to start scans at
exact offsets.
"""

from dataclasses import dataclass
import warnings

import numpy as np

WIDTH = 64
MASK64 = (1 << WIDTH) - 1

# SplitMix64 constants (Weyl increment plus the two finalizer multipliers);
# used only for deterministic seed expansion, documented in README.
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB

DEFAULT_SHIFTS = (23, 17, 26)


@dataclass(frozen=True)
class Params:
    """Shift counts (a, b, c), each in 1..63.

    The top-bit analysis needs b and c comfortably above the inspected
    width; tiny values are accepted but flagged.
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not 1 <= v <= 63:
                raise ValueError(f"shift {name} must be in 1..63, got {v}")
        if self.b <= 3 or self.c <= 3:
            warnings.warn(
                f"shifts b={self.b}, c={self.c}: top-bit approximation "
                "analysis assumes b and c larger than 3",
                stacklevel=2,
            )


DEFAULT_PARAMS = Params(*DEFAULT_SHIFTS)


@dataclass(frozen=True)
class GenState:
    """Generator state (s0, s1) plus its shift parameters.

    The all-zero pair is a fixed point of the linear recursion and is
    rejected; every reachable successor of a valid state is valid.
    """

    s0: int
    s1: int
    params: Params = DEFAULT_PARAMS

    def __post_init__(self):
        for name, v in (("s0", self.s0), ("s1", self.s1)):
            if not 0 <= v <= MASK64:
                raise ValueError(f"{name} must be a 64-bit word, got {v}")
        if self.s0 == 0 and self.s1 == 0:
            raise ValueError("state (0, 0) is invalid (fixed point of the recursion)")


def step_words(s0, s1, params: Params):
    """One state update on raw words or uint64 word arrays: (s0, s1) -> (s1, s2)."""
    t = s0 ^ ((s0 << params.a) & MASK64)
    t ^= t >> params.b
    return s1, t ^ s1 ^ (s1 >> params.c)


def splitmix64(x: int) -> tuple[int, int]:
    """One SplitMix64 round: returns (next_counter, output)."""
    x = (x + SPLITMIX_GAMMA) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * _SPLITMIX_MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _SPLITMIX_MUL2) & MASK64
    return x, z ^ (z >> 31)


def seed_state(seed: int, params: Params = DEFAULT_PARAMS) -> GenState:
    """Expand a 64-bit seed into a state via two SplitMix64 rounds.

    s0 is the first round's output, s1 the second's.  The (unreachable in
    practice) all-zero result is replaced by (1, 0).
    """
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be a 64-bit word, got {seed}")
    ctr, s0 = splitmix64(seed)
    _, s1 = splitmix64(ctr)
    if s0 == 0 and s1 == 0:
        s0 = 1
    return GenState(s0, s1, params)


def to_unit(out: int) -> float:
    """Map a 64-bit output to [0, 1) using its top 53 bits; exact in binary64."""
    return (out >> 11) * 2.0**-53


def iter_outputs(state: GenState):
    """Yield the raw 64-bit output stream from state onward."""
    s0, s1, params = state.s0, state.s1, state.params
    while True:
        yield (s0 + s1) & MASK64
        s0, s1 = step_words(s0, s1, params)


# -- GF(2) matrices on uint64 words --------------------------------------------
#
# A batch of n state vectors is a (2, n) uint64 array: row 0 holds the s0
# words and row 1 the s1 words of the packed pairs (s0 << 64) | s1.  A
# linear map is the batch of its 128 basis images, a (2, 128) array whose
# column i is the image of the vector with only the i-th bit from the top
# set.  Vectors act as row vectors, so act(mat_mul(m, n), v) equals
# act(n, act(m, v)): m first, then n.  act reads a vector a byte at a
# time through tables, 32 lookups per vector instead of 128 bit
# selections; the bytes are taken with shifts and masks, not a uint8 view,
# so nothing depends on the machine's byte order.


def act(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply m to every column of v: the xor of the basis images selected by its set bits.

    Byte k of a vector (k = 0..15 from the top) indexes a table whose 256
    entries are the xors of every subset of basis images 8k..8k+7, built
    by eight doubling xors.
    """
    images = m.reshape(2, 16, 8)  # [row, k, bit of byte k from its top]
    tables = np.zeros((2, 16, 256), dtype=np.uint64)
    for j in range(8):  # byte values with highest set bit 1 << j
        tables[:, :, 1 << j : 2 << j] = tables[:, :, : 1 << j] ^ images[:, :, 7 - j, None]
    out = np.zeros_like(v)
    byte = np.uint64(255)
    for k in range(16):
        index = (v[k // 8] >> np.uint64(56 - 8 * (k % 8))) & byte
        out[0] ^= tables[0, k].take(index)
        out[1] ^= tables[1, k].take(index)
    return out


def mat_mul(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The map that applies m, then n: n acting on m's basis images."""
    return act(n, m)


def identity() -> np.ndarray:
    """The identity map: column i has only the i-th bit from the top set."""
    bits = np.uint64(1) << np.arange(WIDTH - 1, -1, -1, dtype=np.uint64)
    zero = np.zeros_like(bits)
    return np.block([[bits, zero], [zero, bits]])


def mat_pow(m: np.ndarray, k: int) -> np.ndarray:
    """k-fold composition of m (k >= 0), by repeated squaring."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    result = identity()
    while k:
        if k & 1:
            result = mat_mul(result, m)
        k >>= 1
        if k:
            m = mat_mul(m, m)
    return result


def transition_rows(params: Params) -> np.ndarray:
    """One step as a (2, 128) matrix: step_words applied to every basis vector."""
    return np.array(step_words(*identity(), params))
