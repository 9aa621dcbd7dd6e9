import ctypes
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import (GUARD, component_count, guarded, height, nearest_plane, python_format_rows, reference_mesh, scorers,
                     station_paths, use_station)
from xsplanes import experiment
from xsplanes.planes import (
    MeshStrip,
    Plane,
    check_grid,
    epsilon_threshold,
    family,
    mesh,
)


def test_family_a23_coefficients():
    fam = family(23)
    assert len(fam.planes) == 8
    assert {p.m for p in fam.planes} == {8388607, 8388609}


def test_family_a1_coefficients():
    assert {p.m for p in family(1).planes} == {1, 3}


@pytest.mark.parametrize("a", [1, 8, 23, 62])
def test_family_always_eight_unique(a):
    fam = family(a)
    assert len(set(fam.planes)) == 8


def test_family_enumeration_order():
    fam = family(3)
    names = [p.name for p in fam.planes]
    assert names == [
        "m7_pp", "m7_pn", "m7_np", "m7_nn",
        "m9_pp", "m9_pn", "m9_np", "m9_nn",
    ]


def test_family_range():
    with pytest.raises(ValueError):
        family(0)
    with pytest.raises(ValueError):
        family(63)


def test_plane_validates_signs():
    with pytest.raises(ValueError):
        Plane(3, 2, 1)
    with pytest.raises(ValueError):
        Plane(0, 1, 1)


ONE = 1 << 53


def _pts(*rows):
    return np.array(rows, dtype=np.uint64).reshape(-1, 3)


def _reference_nearest(point, fam):
    """Distance (in units of 2**-53) and index of the nearest plane, by Fractions."""
    x, y, z = (Fraction(c, ONE) for c in point)
    best = best_k = None
    for k, plane in enumerate(fam.planes):
        t = (z - plane.sign_x * plane.m * x - plane.sign_y * y) % 1
        d = min(t, 1 - t)
        if best is None or d < best:
            best, best_k = d, k
    return best * ONE, best_k


def test_epsilon_threshold():
    assert epsilon_threshold(0.0) == 0
    assert epsilon_threshold(2.0**-10) == 1 << 43
    assert epsilon_threshold(1e-20) == 0
    # any finite epsilon from 1/2 up covers the whole torus
    for eps in (0.5, 0.75, 1.0, 1e300):
        assert epsilon_threshold(eps) == ONE // 2
    for eps in (-0.1, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError):
            epsilon_threshold(eps)


# Each nearest-plane case runs on scorers(): the compiled scorer, read
# one point at a time by bisection of its threshold, and the numpy reference.


def test_torus_dist_on_plane_at_x0():
    # at x = 0 any (+,+) plane degenerates to z = y; the first one wins
    for nearest in scorers():
        for a in (1, 23):
            d, k = nearest(_pts(0, ONE // 4, ONE // 4), family(a))
            assert d[0] == 0 and k[0] == 0


def test_torus_dist_folds():
    # residue 0.75 folds to distance 0.25
    for nearest in scorers():
        d, _ = nearest(_pts(0, 0, 3 * ONE // 4), family(1))
        assert d[0] == ONE // 4


def test_torus_dist_extended_precision_point():
    # points exactly on z = -(2^23+1)x + y (mod 1), at slab x
    fam = family(23)
    m = (1 << 23) + 1
    rng = random.Random(61)
    rows = []
    for _ in range(50):
        x, y = rng.getrandbits(30), rng.getrandbits(53)
        rows.append((x, y, (-m * x + y) % ONE))
    for nearest in scorers():
        d, k = nearest(_pts(*rows), fam)
        assert (d == 0).all()
        assert {fam.planes[i] for i in k} == {Plane(m, -1, 1)}


def test_torus_dist_periodic_in_z():
    # whole turns of z (multiples of 2**53) do not move the point
    rng = random.Random(62)
    fam = family(9)
    pts = _pts(*[tuple(rng.getrandbits(53) for _ in range(3)) for _ in range(200)])
    turned = pts.copy()
    turned[:, 2] += np.uint64(3 * ONE)
    for nearest in scorers():
        for got, want in zip(nearest(turned, fam), nearest_plane(pts, fam)):
            assert (got == want).all()


def test_min_dist_on_plane():
    fam = family(23)
    plane = fam.planes[5]
    x, y = 1 << 28, 3 * ONE // 8
    z = (plane.sign_x * plane.m * x + plane.sign_y * y) % ONE
    for nearest in scorers():
        d, k = nearest(_pts(x, y, z), fam)
        assert d[0] == 0 and k[0] == 5


def test_min_dist_codomain():
    fam = family(5)
    rng = random.Random(63)
    pts = _pts(*[tuple(rng.getrandbits(53) for _ in range(3)) for _ in range(500)])
    for nearest in scorers():
        d, k = nearest(pts, fam)
        assert d.dtype == np.uint64 and d.shape == (500,)
        assert (d <= ONE // 2).all()
        assert ((0 <= k) & (k < 8)).all()


def test_min_dist_tie_break_is_first_in_order():
    fam = family(23)
    # at (0, 0, 1/2) every plane is at the max distance 1/2;
    # the arg-min must be the first plane in enumeration order
    for nearest in scorers():
        d, k = nearest(_pts(0, 0, ONE // 2), fam)
        assert d[0] == ONE // 2
        assert k[0] == 0


@pytest.mark.parametrize("a", [1, 8, 23, 40, 50, 62])
def test_nearest_plane_matches_fraction_reference(a):
    fam = family(a)
    rng = random.Random(1000 + a)
    rows = [tuple(rng.getrandbits(53) for _ in range(3)) for _ in range(300)]
    # ties: every plane at 1/2, four planes through (0, y, y), and a point
    # halfway between the m = 2^a -/+ 1 pair of (+,+) planes
    x, y = rng.getrandbits(20), rng.getrandbits(53)
    rows += [(0, 0, ONE // 2), (0, y, y), (x, y, ((1 << a) * x + y) % ONE)]
    want = [_reference_nearest(row, fam) for row in rows]
    for nearest in scorers():
        d, k = nearest(_pts(*rows), fam)
        assert [(int(dist), int(which)) for dist, which in zip(d, k)] == want


def test_uniform_hit_rate_respects_union_bound():
    # Monte Carlo fraction within eps of the family stays under the
    # 16*eps union bound plus binomial noise
    fam = family(23)
    thr = epsilon_threshold(2.0**-8)
    rng = random.Random(64)
    trials = 20000
    pts = _pts(*[tuple(rng.getrandbits(53) for _ in range(3)) for _ in range(trials)])
    hits = int((nearest_plane(pts, fam)[0] <= thr).sum())
    bound = 16 * 2.0**-8
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert hits / trials <= bound + 3 * sigma


def test_coefficient_pair_planes_close_on_slab():
    # on the slab x <= 2^-23 the two coefficient choices differ vertically
    # by exactly 2x: a point halfway between the (+,+) pair is x from each,
    # and the tie goes to the first, m = 2^23 - 1
    fam = family(23)
    xs = [(1 << 30) * j // 100 for j in range(101)]
    for nearest in scorers():
        d, k = nearest(_pts(*[(x, ONE // 2, ((1 << 23) * x + ONE // 2) % ONE) for x in xs]), fam)
        assert d.tolist() == xs
        assert (k == 0).all()


@pytest.mark.parametrize("plane_idx", range(8))
def test_mesh_two_components_per_plane(plane_idx):
    fam = family(23)
    strips = mesh(fam.planes[plane_idx], 2.0**-23, 2.0**23, 64)
    assert component_count(strips) == 2


def test_mesh_vertices_accounting():
    strips = mesh(Plane(9, 1, 1), 2.0**-3, 2.0**3, 32)
    total = sum(len(s.vertices) for s in strips)
    # every grid vertex appears at most once; wrap splits may drop a few
    assert 32 * 32 - 2 * 32 <= total <= 32 * 32
    for s in strips:
        assert len(s.vertices) >= 2
        for x_mag, y, z in s.vertices.tolist():
            assert 0.0 <= x_mag <= 1.0
            assert 0.0 <= y <= 1.0
            assert 0.0 <= z < 1.0


def test_mesh_y0_row_spans_unit_interval():
    # along y = 0 the (+,-) plane reduces to z = frac(m*x), which sweeps
    # [0, 1) once across the slab and wraps to 2^-23 at x = 2^-23
    plane = Plane((1 << 23) + 1, 1, -1)
    heights = [height(plane, (j / 63) * 2.0**-23, 0.0) for j in range(64)]
    assert heights[0] == 0.0
    assert max(heights) > 0.95
    assert height(plane, 2.0**-23, 0.0) == pytest.approx(2.0**-23, abs=1e-18)
    wraps = sum(heights[i + 1] < heights[i] - 0.5 for i in range(63))
    assert wraps == 1


def test_mesh_strip_geometry():
    strips = mesh(Plane(3, 1, 1), 0.5, 2.0, 8)
    # strips are vertical in x_mag and ordered by y
    for s in strips:
        xs = {v[0] for v in s.vertices.tolist()}
        assert len(xs) == 1
        ys = [v[1] for v in s.vertices.tolist()]
        assert ys == sorted(ys)


@pytest.mark.parametrize("grid", [2, 17, 256])
@pytest.mark.parametrize("e", [1, 10, 23])
@pytest.mark.parametrize("a", [3, 23, 51, 62])
def test_mesh_matches_scalar_reference(monkeypatch, a, e, grid):
    # the compiled station filler and the array mesh in its place do the
    # scalar loop's IEEE operations in the same order, so vertices agree
    # bit for bit
    paths = station_paths()  # before the filler is patched
    for plane in family(a).planes:
        want = reference_mesh(plane, 2.0**-e, 2.0**e, grid)
        want_v = np.array([v for s in want for v in s.vertices]).reshape(-1, 3)
        for station in paths:
            use_station(monkeypatch, station)
            got = mesh(plane, 2.0**-e, 2.0**e, grid)
            assert [(s.branch, len(s.vertices)) for s in got] == [(s.branch, len(s.vertices)) for s in want]
            got_v = np.concatenate([s.vertices for s in got] + [np.empty((0, 3))])
            assert (got_v.view(np.uint64) == want_v.view(np.uint64)).all()


def test_mesh_peak_holds_vertices_and_branches_only(monkeypatch):
    # the heights are computed and folded inside the vertex buffer; building
    # them beside it, and the fold in a temporary, peaked at twice its size.
    # The compiled station filler holds no branch array; the array mesh in
    # its place holds one station's
    grid = 1024
    paths = station_paths()  # before the filler is patched
    for station in paths:
        use_station(monkeypatch, station)
        mesh(Plane(3, 1, 1), 0.5, 2.0, 8)  # first-use allocations outside the measure
        tracemalloc.start()
        try:
            strips = mesh(family(23).planes[0], 2.0**-23, 2.0**23, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(s.vertices) for s in strips) > grid * (grid - 2)
        assert peak <= 1.6 * grid * grid * 24, peak / (grid * grid * 24)


def test_mesh_reads_as_a_sequence_of_strip_views():
    # a packed mesh has a length, indexes from either end, iterates more than
    # once and gives each strip's branch and a read-only view of its rows,
    # each strip's rows directly after the one before
    plane = Plane(3, 1, 1)
    m, want = mesh(plane, 0.5, 2.0, 8), reference_mesh(plane, 0.5, 2.0, 8)
    assert len(m) == len(want) > 2
    for _ in range(2):
        assert [(s.branch, s.vertices.tolist()) for s in m] == [(s.branch, list(map(list, s.vertices))) for s in want]
    assert m[-1].vertices.tolist() == m[len(m) - 1].vertices.tolist()
    assert m[-len(m)].branch == m[0].branch
    for i in (len(m), -len(m) - 1):
        with pytest.raises(IndexError):
            m[i]
    assert m[0].vertices.readonly and m[0].vertices.shape == (len(want[0].vertices), 3)
    assert list(m.ends) == np.cumsum([len(s.vertices) for s in m]).tolist() and m.ends[-1] == len(m.rows)


STATION_CASES = {
    # grid, first and end station, coef, sign_y
    "grid 2": (2, 0, 2, 8.0, 1.0),
    "single station": (17, 5, 6, 9.0, 1.0),
    "last station": (17, 16, 17, -9.0, -1.0),
    # f steps by 1.5 along y, so the branch changes at every k
    "every fragment dropped": (9, 0, 3, 1.0, 12.0),
    # f steps by 40/63 along y: strips of two vertices and dropped single ones
    "many strips": (64, 0, 40, -255.0, 40.0),
}


@pytest.mark.parametrize("case", STATION_CASES)
def test_stations_and_their_text_stay_inside_exact_size_arrays(case):
    # the compiled station filler and the formatter after it, on arrays of
    # exactly the size their contracts ask, each followed by a guard that
    # must stay as it was; the array mesh and the Python formatter in their
    # place write the same rows, strips and text
    grid, j0, j1, coef, sign_y = STATION_CASES[case]
    at, rows, room = 3, (j1 - j0) * grid, (j1 - j0) * (grid // 2)
    fmt = experiment._stages().xs_format_rows
    results = []
    for station, text in zip(station_paths(), (fmt, python_format_rows)):
        v, ends, branches = guarded(24 * (at + rows)), guarded(8 * room), guarded(8 * room)
        ends_view, branches_view = ((ctypes.c_int64 * room).from_buffer(a) for a in (ends, branches))
        n = station(j0, j1, grid, 0.125, 8.0, coef, sign_y, ctypes.addressof(v), at, ends_view, branches_view)
        assert 0 <= n <= room
        end = ends_view[n - 1] if n else at
        assert v.raw[: 24 * at] == GUARD[:1] * 24 * at and v.raw[24 * (at + rows) :] == GUARD
        assert ends.raw[8 * n :] == GUARD[:1] * 8 * (room - n) + GUARD
        assert branches.raw[8 * n :] == GUARD[:1] * 8 * (room - n) + GUARD
        marks = ends_view[: n - 1] if n else [at]  # a blank line between strips, or one for no strip
        breaks = (ctypes.c_int64 * len(marks))(*marks)
        out = guarded(experiment._ROW_BYTES * (end - at) + len(marks))
        size = text(ctypes.addressof(v), at, end, 0, ctypes.addressof(breaks), len(marks), ctypes.addressof(out))
        assert out.raw[len(out) - len(GUARD) :] == GUARD
        results.append((n, v.raw[24 * at : 24 * end], ends_view[:n], branches_view[:n], out.raw[:size]))
    assert results[0] == results[1]
    if case in ("grid 2", "every fragment dropped"):
        assert results[0][0] == 0 and results[0][4] == b"\n"


def test_mesh_validates():
    with pytest.raises(ValueError):
        mesh(Plane(3, 1, 1), 0.0, 2.0, 8)
    for magnify in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mesh(Plane(3, 1, 1), 0.5, magnify, 8)
    # one plane's vertices take grid**2 * 24 bytes: 0.4 GB at the limit of 4096
    check_grid(4096)
    for grid in (1, 4097, 100_000):
        with pytest.raises(ValueError, match=r"grid must be in 2\.\.4096"):
            mesh(Plane(3, 1, 1), 0.5, 2.0, grid)


def test_component_count_helper():
    strips = [
        MeshStrip(0, ((0.0, 0.0, 0.1), (0.0, 0.5, 0.6))),
        MeshStrip(1, ((0.0, 0.6, 0.1), (0.0, 1.0, 0.5))),
        MeshStrip(0, ((0.5, 0.0, 0.3), (0.5, 0.5, 0.8))),
    ]
    assert component_count(strips) == 2
