import math
import random
from fractions import Fraction

import numpy as np
import pytest

from xsplanes.planes import (
    MeshStrip,
    Plane,
    component_count,
    epsilon_threshold,
    family,
    mesh,
    nearest_plane,
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
    # anything from 1/2 up covers the whole torus, inf included
    for eps in (0.5, 0.75, 1.0, math.inf):
        assert epsilon_threshold(eps) == ONE // 2
    for eps in (-0.1, -math.inf, math.nan):
        with pytest.raises(ValueError):
            epsilon_threshold(eps)


def test_torus_dist_on_plane_at_x0():
    # at x = 0 any (+,+) plane degenerates to z = y; the first one wins
    for a in (1, 23):
        d, k = nearest_plane(_pts(0, ONE // 4, ONE // 4), family(a))
        assert d[0] == 0 and k[0] == 0


def test_torus_dist_folds():
    # residue 0.75 folds to distance 0.25
    d, _ = nearest_plane(_pts(0, 0, 3 * ONE // 4), family(1))
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
    d, k = nearest_plane(_pts(*rows), fam)
    assert (d == 0).all()
    assert {fam.planes[i] for i in k} == {Plane(m, -1, 1)}


def test_torus_dist_periodic_in_z():
    # whole turns of z (multiples of 2**53) do not move the point
    rng = random.Random(62)
    fam = family(9)
    pts = _pts(*[tuple(rng.getrandbits(53) for _ in range(3)) for _ in range(200)])
    turned = pts.copy()
    turned[:, 2] += np.uint64(3 * ONE)
    for got, want in zip(nearest_plane(turned, fam), nearest_plane(pts, fam)):
        assert (got == want).all()


def test_min_dist_on_plane():
    fam = family(23)
    plane = fam.planes[5]
    x, y = 1 << 28, 3 * ONE // 8
    z = (plane.sign_x * plane.m * x + plane.sign_y * y) % ONE
    d, k = nearest_plane(_pts(x, y, z), fam)
    assert d[0] == 0 and k[0] == 5


def test_min_dist_codomain():
    fam = family(5)
    rng = random.Random(63)
    pts = _pts(*[tuple(rng.getrandbits(53) for _ in range(3)) for _ in range(500)])
    d, k = nearest_plane(pts, fam)
    assert d.dtype == np.uint64 and d.shape == (500,)
    assert (d <= ONE // 2).all()
    assert ((0 <= k) & (k < 8)).all()


def test_min_dist_tie_break_is_first_in_order():
    fam = family(23)
    # at (0, 0, 1/2) every plane is at the max distance 1/2;
    # the arg-min must be the first plane in enumeration order
    d, k = nearest_plane(_pts(0, 0, ONE // 2), fam)
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
    d, k = nearest_plane(_pts(*rows), fam)
    for row, dist, which in zip(rows, d, k):
        assert (int(dist), int(which)) == _reference_nearest(row, fam)


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
    d, k = nearest_plane(_pts(*[(x, ONE // 2, ((1 << 23) * x + ONE // 2) % ONE) for x in xs]), fam)
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
        for x_mag, y, z in s.vertices:
            assert 0.0 <= x_mag <= 1.0
            assert 0.0 <= y <= 1.0
            assert 0.0 <= z < 1.0


def test_mesh_y0_row_spans_unit_interval():
    # along y = 0 the (+,-) plane reduces to z = frac(m*x), which sweeps
    # [0, 1) once across the slab and wraps to 2^-23 at x = 2^-23
    plane = Plane((1 << 23) + 1, 1, -1)
    heights = [plane.height((j / 63) * 2.0**-23, 0.0) for j in range(64)]
    assert heights[0] == 0.0
    assert max(heights) > 0.95
    assert plane.height(2.0**-23, 0.0) == pytest.approx(2.0**-23, abs=1e-18)
    wraps = sum(heights[i + 1] < heights[i] - 0.5 for i in range(63))
    assert wraps == 1


def test_mesh_strip_geometry():
    strips = mesh(Plane(3, 1, 1), 0.5, 2.0, 8)
    # strips are vertical in x_mag and ordered by y
    for s in strips:
        xs = {v[0] for v in s.vertices}
        assert len(xs) == 1
        ys = [v[1] for v in s.vertices]
        assert ys == sorted(ys)


def test_mesh_validates():
    with pytest.raises(ValueError):
        mesh(Plane(3, 1, 1), 0.0, 2.0, 8)
    with pytest.raises(ValueError):
        mesh(Plane(3, 1, 1), 0.5, -1.0, 8)
    with pytest.raises(ValueError):
        mesh(Plane(3, 1, 1), 0.5, 2.0, 1)


def test_component_count_helper():
    strips = [
        MeshStrip(0, ((0.0, 0.0, 0.1), (0.0, 0.5, 0.6))),
        MeshStrip(1, ((0.0, 0.6, 0.1), (0.0, 1.0, 0.5))),
        MeshStrip(0, ((0.5, 0.0, 0.3), (0.5, 0.5, 0.8))),
    ]
    assert component_count(strips) == 2
