"""Reference code that only the tests use.

reference_scan, the slab scan one Python-int step at a time, is the
reference for experiment.slab_sample's lane scans.  The scalar mesh loop
and the per-vertex mesh writer are the references for planes.mesh and
experiment.write_mesh_csv, and classify, the case label of one pair, is
the reference for xorapprox.column_cases.

Each compiled stage has a numpy or Python reference here, which the tests
run in its place: numpy_scan (scan_block with the kernel's calling
convention) for the lane scan, lane_starts (GF(2) jump-ahead by repeated
doubling) for xs_lane_starts, numpy_finish_hits (an argsort) for
xs_finish_hits, nearest_plane (numpy_hit_counts in the kernel's calling
convention) for the plane scorer, array_stations (the array mesh at some
x stations) for xs_mesh_stations, reference_census for the case census,
reference_control (numpy's Philox) for the control count and python_rows
for the CSV formatter.  reference_stages puts all of them in place at
once.

The GF(2) matrices come twice.  The uint64 word-array core (act, mat_mul,
identity, mat_pow, transition_rows) starts lane_starts' lanes and checks
the step's period; the Python-int rows are its reference.  A linear map on
128-bit packed pairs (s0 << 64) | s1 is the list of its basis images, row
i the image of the vector whose only set bit is the i-th from the top.
"""

import contextlib
import ctypes
from dataclasses import dataclass
import math
from types import SimpleNamespace

import numpy as np
import pytest

from xsplanes import cli, experiment
from xsplanes.engine import MASK64, WIDTH, GenState, Params, step_words
from xsplanes.experiment import CaseCensus
from xsplanes.planes import MeshStrip, epsilon_threshold
from xsplanes.xorapprox import COMBINE_ORDER, Combine, column_cases, compound_probability, plane_coefficients

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


def reference_mesh_csv(strips) -> str:
    """The text of experiment.write_mesh_csv, formatting every coordinate of every vertex."""
    rows = (np.asarray(strip.vertices, dtype=np.float64).reshape(-1, 3).tolist() for strip in strips)
    blocks = ("\n".join("%.17g,%.17g,%.17g" % tuple(v) for v in block) for block in rows)
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


def act_rows(rows: list[int], v: int) -> int:
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


# -- GF(2) matrices on uint64 words --------------------------------------------
#
# A batch of n state vectors is a (2, n) uint64 array: row 0 holds the s0
# words and row 1 the s1 words of the packed pairs (s0 << 64) | s1.  A
# linear map is the batch of its 128 basis images, a (2, 128) array whose
# column i is the image of the vector with only the i-th bit from the top
# set.  Vectors act as row vectors, so act(mat_mul(m, n), v) equals
# act(n, act(m, v)): m first, then n.  act reads a vector a byte at a
# time through tables, 32 lookups per vector instead of 128 bit
# selections, as xs_lane_starts does; the bytes are taken with shifts and
# masks, not a uint8 view, so nothing depends on the machine's byte order.


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


# -- numpy and Python references for the compiled stages -----------------------


def lane_starts(params, start, lanes, seg_len):
    """experiment._lane_starts in numpy: the (2, lanes) starts, and the next block's start, by repeated doubling.

    start, and the next start returned, are buffers of the two words s0,
    s1.  Each round maps the first block of starts forward by the squared
    segment transition.  A block's 65,536 starts take 12-22 ms (2-core
    AVX-512 Xeon).
    """
    seg = mat_pow(transition_rows(params), seg_len)
    starts = np.empty((2, lanes), dtype=np.uint64)
    starts[:, 0] = np.frombuffer(start, dtype=np.uint64)
    filled = 1
    jump = seg
    while filled < lanes:
        chunk = min(filled, lanes - filled)
        starts[:, filled : filled + chunk] = act(jump, starts[:, :chunk])
        filled += chunk
        if filled < lanes:
            jump = mat_mul(jump, jump)
    return starts, act(seg, starts[:, -1:]).ravel()


def scan_block(hi, lo, params, seg_len, base, last_in):
    """The lane scan in numpy: advance all lanes seg_len steps; the hits where a triple enters the slab.

    The hits are the same (3, n) uint64 arrays of rows offset, s0, s1 as
    the compiled kernel's, by t, then lane, where the kernel's come by
    group, then t, then lane.  hi and lo are overwritten.
    """
    s0, s1 = hi, lo
    out, t1, t2 = (np.empty_like(hi) for _ in range(3))
    ua, ub, uc = np.uint64(params.a), np.uint64(params.b), np.uint64(params.c)
    last_in, seg = np.uint64(last_in), np.uint64(seg_len)
    hits = []
    for t in range(seg_len):
        np.add(s0, s1, out=out)
        if out.min() <= last_in:
            lane = np.flatnonzero(out <= last_in)
            hits.append(np.stack([lane.astype(np.uint64) * seg + np.uint64(base + t), s0[lane], s1[lane]]))
        np.left_shift(s0, ua, out=t1)
        np.bitwise_xor(t1, s0, out=t1)
        np.right_shift(t1, ub, out=t2)
        np.bitwise_xor(t1, t2, out=t1)
        np.right_shift(s1, uc, out=t2)
        np.bitwise_xor(t1, t2, out=t1)
        np.bitwise_xor(t1, s1, out=t1)
        s0, s1, t1 = s1, t1, s0
    return hits


def _words(address, n):
    """The n uint64 words at address, as an array over that memory."""
    return np.ctypeslib.as_array((ctypes.c_uint64 * n).from_address(address))


def numpy_scan(params):
    """scan_block for params with xs_scan_lanes' calling convention, to stand in for experiment._scan_kernel.

    The kernel it returns takes the addresses of the lanes' hi and lo words
    and of a cap x 3 hit buffer, leaves the lanes unchanged, stores the
    first cap hits as the buffer's rows and returns how many it found.
    """

    def kernel(hi, lo, lanes, seg_len, base, last_in, hits, cap):
        words = [_words(address, lanes).copy() for address in (hi, lo)]
        found = np.concatenate([np.empty((3, 0), dtype=np.uint64),
                                *scan_block(*words, params, seg_len, base, last_in)], axis=1)
        n = min(found.shape[1], cap)
        _words(hits, 3 * cap).reshape(cap, 3)[:n] = found[:, :n].T
        return found.shape[1]

    return kernel


def numpy_finish_hits(a, b, c, e, rows, tmp, n, keep):
    """xs_finish_hits in numpy, with its calling convention: an argsort of the n hit rows at address rows by offset.

    The first keep rows become the points' words (X << e, Y, Z), stepped
    out of the rows' states; tmp is not used.  Returns the last kept
    row's offset, or 0.
    """
    if not keep:
        return 0
    hits = _words(rows, 3 * n).reshape(n, 3)
    offset, s0, s1 = hits[np.argsort(hits[:, 0])[:keep]].T
    params = SimpleNamespace(a=a, b=b, c=c)
    o0 = s0 + s1
    s0, s1 = step_words(s0, s1, params)
    o1 = s0 + s1
    s0, s1 = step_words(s0, s1, params)
    hits[:keep] = np.stack([(o0 >> 11) << e, o1 >> 11, (s0 + s1) >> 11], axis=1)
    return int(offset[-1])


# The numpy census runs min(CENSUS_LANES, n) lanes of ceil(n / CENSUS_LANES) steps.
CENSUS_LANES = 1 << 11


def census_lanes(state, n_steps, n_bits, coeffs):
    """The census's (cell counts, compound steps, leaks) in numpy, given the nine cells' (cx, cy) mod 2**64.

    xs_census's walk on lanes side by side: lane j walks steps [j*seg_len,
    (j+1)*seg_len), up to step n_steps, from its jump-ahead start.  A step
    where no lane holds a cell skips the nine cells.
    """
    params = state.params
    lanes = min(CENSUS_LANES, n_steps)
    seg_len = -(-n_steps // lanes)
    w0, w1 = lane_starts(params, np.array([state.s0, state.s1], np.uint64), lanes, seg_len)[0]
    w2 = step_words(w0, w1, params)[1]
    w3 = step_words(w1, w2, params)[1]
    a, drop = np.uint64(params.a), np.uint64(64 - n_bits)
    cx, cy = (np.array(column, dtype=np.uint64)[:, None] for column in zip(*coeffs))
    steps_left = n_steps - seg_len * np.arange(lanes)
    inner = np.array(column_cases(w0 >> drop, (w0 << a) >> drop))
    outer = np.array(column_cases(w1 >> drop, (w0 ^ (w0 << a)) >> drop))
    counts, compound, leaks = np.zeros(len(coeffs), dtype=np.int64), 0, 0
    for t in range(seg_len):
        shifted = w1 << a
        inner1 = np.array(column_cases(w1 >> drop, shifted >> drop))
        outer1 = np.array(column_cases(w2 >> drop, (w1 ^ shifted) >> drop))
        cells = ((outer & outer1)[:, None] & (inner & inner1)[None]).reshape(-1, lanes) & (steps_left > t)
        if cells.any():
            # the plane values in place: a fresh (9, lanes) array a term made the census up to twice as slow
            plane = cx * (w0 + w1)
            plane += cy * (w1 + w2)
            plane ^= w2 + w3
            counts += np.count_nonzero(cells, axis=1)
            leaks += np.count_nonzero(cells & (plane >= np.uint64(1) << drop))
            compound += np.count_nonzero(cells.any(axis=0))
        inner, outer, w0, w1, w2, w3 = inner1, outer1, w1, w2, w3, step_words(w2, w3, params)[1]
    return counts.tolist(), compound, leaks


def reference_census(state, n_steps, n_bits) -> CaseCensus:
    """experiment.case_census's result from census_lanes."""
    pairs = [(o, i) for o in COMBINE_ORDER for i in COMBINE_ORDER]
    coeffs = [[c & MASK64 for c in plane_coefficients(o, i, state.params.a)] for o, i in pairs]
    counts, compound, leaks = census_lanes(state, n_steps, n_bits, coeffs)
    checks = sum(counts)
    grid = {f"{o.value}|{i.value}": c / n_steps for (o, i), c in zip(pairs, counts)}
    return CaseCensus(n_steps, n_bits, grid, compound / n_steps, (leaks / checks) if checks else 0.0,
                      compound_probability(n_bits)[1])


ONE = 1 << 53


def nearest_plane(points: np.ndarray, fam) -> tuple[np.ndarray, np.ndarray]:
    """Exact torus distance to the nearest family plane, and that plane's index, in numpy.

    points is an (n, 3) uint64 array of 53-bit coordinates (X, Y, Z), the
    point (X, Y, Z) / 2**53.  For each plane T = (Z - sign_x*m*X - sign_y*Y)
    mod 2**53 is computed with uint64 wraparound, and the distance is
    min(T, 2**53 - T) in units of 2**-53.  Ties keep the earliest plane in
    the family's fixed order.
    """
    return nearest_words(points, *experiment._plane_words(fam))


def nearest_words(points, c, sy):
    """nearest_plane for the planes' words c = sign_x*m and sy = sign_y, mod 2**64, as the scorer takes them."""
    points = np.asarray(points, dtype=np.uint64)
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    best = np.full(len(points), ONE, dtype=np.uint64)
    idx = np.zeros(len(points), dtype=np.intp)
    for k, (cx, cy) in enumerate(zip(c, sy)):
        t = (z - x * np.uint64(cx) - y * np.uint64(cy)) & np.uint64(ONE - 1)
        d = np.minimum(t, ONE - t)
        idx[d < best] = k
        np.minimum(best, d, out=best)
    return best, idx


def numpy_hit_counts(points, n, e, c, sy, thr, counts) -> int:
    """nearest_words with xs_hit_counts' calling convention, to stand in for it.

    It takes the address of n rows of words (X << e, Y, Z) and the planes'
    words, writes each plane's hits within thr to counts and returns their
    sum.
    """
    rows = _words(points, 3 * n).reshape(n, 3) >> np.array([e, 0, 0], dtype=np.uint64)
    d, which = nearest_words(rows, c, sy)
    counts[:8] = np.bincount(which[d <= thr], minlength=8).tolist()
    return sum(counts)


def compiled_nearest(points, fam) -> tuple[np.ndarray, np.ndarray]:
    """nearest_plane by the compiled scorer, xs_hit_counts, one point a call.

    A point's distance is the least threshold at which the scorer counts
    it, found by bisection, and its plane the one it is counted for there.
    """
    kernel = experiment._stages().xs_hit_counts
    c, sy = experiment._plane_words(fam)
    counts = (ctypes.c_int64 * 8)()
    rows = np.ascontiguousarray(points, dtype=np.uint64)
    d, which = np.empty(len(rows), dtype=np.uint64), np.empty(len(rows), dtype=np.intp)
    for i in range(len(rows)):
        lo, hi = -1, ONE // 2  # no point is within lo, every point within hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if kernel(rows[i].ctypes.data, 1, 0, c, sy, mid, counts) else (mid, hi)
        kernel(rows[i].ctypes.data, 1, 0, c, sy, hi, counts)
        d[i], which[i] = hi, list(counts).index(1)
    return d, which


def scorers():
    """The nearest-plane scorers to test: the compiled one, by bisection, then the numpy reference."""
    return [compiled_nearest, nearest_plane]


def array_vertices(coef, sign_y, x_max, magnify, grid, stations):
    """The array mesh's vertices and branches at the given x stations, (len(stations), grid, 3) and (len(stations), grid).

    The heights are computed and folded inside the vertex array.
    """
    steps = grid - 1
    x = np.asarray(stations) / steps * x_max
    y = np.arange(grid) / steps
    vertices = np.empty((len(x), grid, 3))
    vertices[..., 0] = (magnify * x)[:, None]
    vertices[..., 1] = y
    z = np.add(coef * x[:, None], sign_y * y, out=vertices[..., 2])
    branch = np.floor(z)
    z -= branch
    return vertices, branch


def array_stations(j0, j1, grid, x_max, magnify, coef, sign_y, v, at, ends, branches) -> int:
    """array_vertices at stations j0..j1-1 with xs_mesh_stations' calling convention, to stand in for it.

    A strip is a run of at least two vertices of one station and one
    branch.  It packs the strips' vertices into the float64 rows at address
    v from row at on, one strip after another, writes each strip's end row
    (counted from v) to ends and its branch to branches, and returns the
    number of strips.
    """
    vertices, branch = array_vertices(coef, sign_y, x_max, magnify, grid, range(j0, j1))
    vertices, branch = vertices.reshape(-1, 3), branch.ravel()
    # a fragment starts at every x station and wherever the branch changes along y
    new = np.ones(len(branch), dtype=bool)
    new[1:] = branch[1:] != branch[:-1]
    new[::grid] = True
    starts = np.flatnonzero(new)
    lengths = np.diff(np.append(starts, len(branch)))
    keep = lengths >= 2
    packed = vertices[np.repeat(keep, lengths)]
    np.ctypeslib.as_array((ctypes.c_double * packed.size).from_address(v + 24 * at))[:] = packed.ravel()
    n = int(keep.sum())
    ends[:n] = (at + np.cumsum(lengths[keep])).tolist()
    branches[:n] = branch[starts[keep]].astype(np.int64).tolist()
    return n


def station_paths():
    """The mesh station fillers to test: the compiled xs_mesh_stations, then array_stations in its place."""
    return [experiment._stages().xs_mesh_stations, array_stations]


def use_station(mp, station):
    """Have planes.mesh fill its stations with station, one of station_paths(), until mp is undone."""
    mp.setattr(experiment._stages(), "xs_mesh_stations", station)


# numpy's Philox draws the control's points this many at a time
CONTROL_CHUNK = 1 << 15


def reference_control(n_points, fam, epsilon, control_seed) -> float:
    """experiment.control_baseline's hit fraction, numpy's Philox(key=control_seed) drawing the points."""
    thr = epsilon_threshold(epsilon)
    bitgen = np.random.Philox(key=control_seed)
    hits = 0
    for start in range(0, n_points, CONTROL_CHUNK):
        k = min(CONTROL_CHUNK, n_points - start)
        d, _ = nearest_plane((bitgen.random_raw(3 * k) >> np.uint64(11)).reshape(k, 3), fam)
        hits += int((d <= thr).sum())
    return hits / n_points


def python_rows(values: np.ndarray, breaks) -> str:
    """The text experiment._format_rows writes for an (n, 3) float64 array and breaks, in Python's '%.17g'.

    Each distinct bit pattern of the call is formatted once, so -0.0 and
    0.0 stay apart, and a mesh's x and y values, which repeat along and
    across strips, are formatted once a call.
    """
    bits, index = np.unique(values.view(np.uint64), return_inverse=True)
    texts = ("%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist())).split("\n")
    rows = ["%s,%s,%s\n"] * len(values) + [""]
    for i in breaks:
        rows[i] = "\n" + rows[i]
    return "".join(rows) % tuple(map(texts.__getitem__, index.ravel().tolist()))


def python_format_rows(values, first, end, words, breaks, n_breaks, buf) -> int:
    """python_rows with the compiled formatter's calling convention, to stand in for it.

    It takes the address of rows of three doubles, or with words set of
    three uint64 words each the value w * 2**-53, of which it formats rows
    first..end-1, the address of the n_breaks int64 breaks, row indices
    from first to end, and the buffer's address, writes the text there and
    returns its length.
    """
    n = end - first
    rows = np.frombuffer((ctypes.c_double * (3 * n)).from_address(values + 24 * first),
                         dtype=np.uint64 if words else np.float64).reshape(n, 3)
    marks = [b - first for b in (ctypes.c_int64 * n_breaks).from_address(breaks)]
    text = python_rows(rows * 2.0**-53 if words else rows, marks).encode()
    ctypes.memmove(buf, text, len(text))
    return len(text)


GUARD = b"\xa5" * 16


def guarded(nbytes: int):
    """A ctypes char array of nbytes, then the 16 bytes of GUARD, which a kernel writing inside its arrays leaves as they are."""
    return (ctypes.c_char * (nbytes + len(GUARD))).from_buffer_copy(GUARD[:1] * nbytes + GUARD)


def text_paths():
    """The CSV formatters to test: the compiled one, then python_format_rows in its place."""
    return [experiment._stages().xs_format_rows, python_format_rows]


def use_formatter(mp, fmt):
    """Have experiment write CSV text with fmt, one of text_paths(), until mp is undone."""
    mp.setattr(experiment._stages(), "xs_format_rows", fmt)


@contextlib.contextmanager
def reference_stages():
    """Every compiled stage of a planes or census command run by its reference here, in the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "_scan_kernel", numpy_scan)
        mp.setattr(experiment, "_lane_starts", lane_starts)
        for name, stand_in in (("xs_finish_hits", numpy_finish_hits), ("xs_hit_counts", numpy_hit_counts)):
            mp.setattr(experiment._stages(), name, stand_in)
        use_station(mp, array_stations)
        use_formatter(mp, python_format_rows)
        for module in (experiment, cli):
            mp.setattr(module, "control_baseline", reference_control)
            mp.setattr(module, "case_census", reference_census)
        yield
