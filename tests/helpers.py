"""Reference code that only the tests use.

reference_scan, the slab scan one Python-int step at a time, is the
reference for experiment.slab_sample's lane scans.  The scalar mesh loop
and the per-vertex mesh writer are the references for planes.mesh and
experiment.write_mesh_csv, and classify, the case label of one pair, is
the reference for xorapprox.column_cases.  The GF(2) row matrices are the
Python-int reference for the package's uint64 word-array core: a linear
map on 128-bit packed pairs (s0 << 64) | s1 is the list of its basis
images, row i the image of the vector whose only set bit is the i-th from
the top.  text_paths lists the CSV formatters a test runs.
"""

from dataclasses import dataclass
import math

import numpy as np

from xsplanes import experiment
from xsplanes.engine import MASK64, WIDTH, GenState, step_words
from xsplanes.planes import MeshStrip
from xsplanes.xorapprox import COMBINE_ORDER, Combine

BITS = 128


def step(state: GenState) -> tuple[GenState, int]:
    """Advance one step; returns (next_state, output)."""
    out = (state.s0 + state.s1) & MASK64
    s1, s2 = step_words(state.s0, state.s1, state.params)
    return GenState(s1, s2, state.params), out


def reference_scan(state: GenState, spec, cap: int) -> tuple[np.ndarray, int, bool]:
    """slab_sample's (points, n_triples_scanned, truncated) for an explicit cap, by stepping one state at a time."""
    params = state.params
    e = spec.e
    target = spec.target_points
    last_in = (1 << (64 - e)) - 1
    s0, s1 = state.s0, state.s1
    o0 = (s0 + s1) & MASK64
    s0, s1 = step_words(s0, s1, params)
    o1 = (s0 + s1) & MASK64
    s0, s1 = step_words(s0, s1, params)
    o2 = (s0 + s1) & MASK64
    words = []
    for k in range(cap):
        if o0 <= last_in:
            words += [(o0 >> 11) << e, o1 >> 11, o2 >> 11]
            if len(words) == 3 * target:
                break
        s0, s1 = step_words(s0, s1, params)
        o0, o1, o2 = o1, o2, (s0 + s1) & MASK64
    return np.array(words, dtype=np.uint64).reshape(-1, 3), k + 1, len(words) < 3 * target


def height(plane, x: float, y: float) -> float:
    """z of the plane at (x, y), folded into [0, 1)."""
    f = plane.sign_x * plane.m * x + plane.sign_y * y
    return f - math.floor(f)


def reference_mesh(plane, x_max: float, magnify: float, grid: int) -> list[MeshStrip]:
    """The scalar mesh loop that planes.mesh vectorizes, vertex by vertex in Python floats."""
    strips = []
    steps = grid - 1
    for j in range(grid):
        x = (j / steps) * x_max
        x_mag = magnify * x
        run_branch = None
        run = []
        for k in range(grid):
            y = k / steps
            f = plane.sign_x * plane.m * x + plane.sign_y * y
            branch = math.floor(f)
            vertex = (x_mag, y, f - branch)
            if branch != run_branch:
                if len(run) >= 2:
                    strips.append(MeshStrip(run_branch, tuple(run)))
                run_branch = branch
                run = []
            run.append(vertex)
        if len(run) >= 2:
            strips.append(MeshStrip(run_branch, tuple(run)))
    return strips


def text_paths():
    """The CSV formatters to test: the compiled one where it can be built, then Python's (None)."""
    fmt = experiment._text_kernel()
    return ([fmt] if fmt is not None else []) + [None]


def reference_mesh_csv(strips) -> str:
    """The text of experiment.write_mesh_csv, formatting every coordinate of every vertex."""
    blocks = ("\n".join("%.17g,%.17g,%.17g" % tuple(v) for v in strip.vertices) for strip in strips)
    return "\n\n".join(blocks) + "\n"


def component_count(strips) -> int:
    """Number of connected sheets in a sampled mesh (distinct branch indices)."""
    return len({s.branch for s in strips})


def union_by_inclusion_exclusion(c) -> int:
    """The size of the union of a CaseCounts' three match sets, from its intersections."""
    return (
        c.n_sum + c.n_diff + c.n_rev_diff
        - c.n_sum_diff - c.n_diff_rev_diff - c.n_rev_diff_sum
        + c.n_all_three
    )


@dataclass(frozen=True)
class CaseLabel:
    """Which of the three arithmetic matches hold for one pair."""

    is_sum: bool
    is_diff: bool
    is_rev_diff: bool

    def kinds(self) -> tuple[Combine, ...]:
        return tuple(k for k, hit in zip(COMBINE_ORDER, (self.is_sum, self.is_diff, self.is_rev_diff)) if hit)


def classify(x: int, y: int, n: int) -> CaseLabel:
    """Column-wise case label of an n-bit pair."""
    if not 1 <= n <= WIDTH:
        raise ValueError(f"bit width must be in 1..{WIDTH}, got {n}")
    mask = (1 << n) - 1
    if not (0 <= x <= mask and 0 <= y <= mask):
        raise ValueError(f"x and y must be {n}-bit values")
    return CaseLabel(
        is_sum=(x & y) == 0,
        is_diff=(~x & y) & mask == 0,
        is_rev_diff=(x & ~y) & mask == 0,
    )


def matrix_of(op) -> list[int]:
    """A GF(2)-linear map on 128-bit ints as its basis-image rows."""
    return [op(1 << (BITS - 1 - i)) for i in range(BITS)]


def act(rows: list[int], v: int) -> int:
    """Row vector times matrix: xor of the rows selected by v's set bits."""
    acc = 0
    while v:
        low = v & -v
        acc ^= rows[BITS - low.bit_length()]
        v ^= low
    return acc


def words(vectors) -> np.ndarray:
    """128-bit ints as a (2, n) uint64 array of their high and low words."""
    return np.array([[v >> 64 for v in vectors], [v & MASK64 for v in vectors]], dtype=np.uint64)


def ints(batch: np.ndarray) -> list[int]:
    """The 128-bit ints of a (2, n) uint64 array's columns."""
    return [(int(h) << 64) | int(l) for h, l in zip(*batch)]
