"""The xorshift128+ generator: recursion, seeding, streams, unit conversion.

State is a pair of 64-bit words (s0, s1).  One step emits
(s0 + s1) mod 2**64 and replaces the pair with (s1, s2) where

    s2 = ((s0 ^ (s0 << a)) ^ ((s0 ^ (s0 << a)) >> b)) ^ (s1 ^ (s1 >> c))

i.e. the shift-count triple (a, b, c) drives one left xorshift of s0,
one right xorshift of the result, and one right xorshift of s1.  A word is
read as a GF(2) row vector with its most significant bit first; the step is
linear in the packed pair (s0 << 64) | s1, and the stage library
(_stages.c) raises its matrix to a power to start scans at exact offsets.
"""

from dataclasses import dataclass
import warnings

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
                stacklevel=3,  # past the generated __init__, to the caller that made the Params
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
