"""The eight predicted planes z = +-m*x +- y (mod 1) and their geometry.

For shift count a the coefficients are m = 2**a - 1 and m = 2**a + 1; with
both signs on x and y that makes eight planes.  Distances are vertical on
the torus (z folded mod 1), which is well defined for graphs z = f(x, y)
mod 1 and cheap.  They are computed exactly on 53-bit integer coordinates,
the resolution of the generator's unit-interval outputs.  Meshes sample the
slab region used for the magnified plots, split at the mod-1 wrap so each
surface piece is a clean sheet.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np


@dataclass(frozen=True)
class Plane:
    """One surface z = sign_x*m*x + sign_y*y (mod 1)."""

    m: int
    sign_x: int
    sign_y: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"coefficient m must be positive, got {self.m}")
        if self.sign_x not in (1, -1) or self.sign_y not in (1, -1):
            raise ValueError("sign_x and sign_y must be +1 or -1")

    @property
    def name(self) -> str:
        sx = "p" if self.sign_x == 1 else "n"
        sy = "p" if self.sign_y == 1 else "n"
        return f"m{self.m}_{sx}{sy}"


@dataclass(frozen=True)
class PlaneFamily:
    """All eight planes for one shift count, in fixed enumeration order."""

    a: int
    planes: tuple[Plane, ...]

    def __post_init__(self):
        if len(self.planes) != 8:
            raise ValueError(f"expected 8 planes, got {len(self.planes)}")


def family(a: int) -> PlaneFamily:
    """The eight planes for shift count a.

    Order is fixed for reproducible tie-breaks: m ascending, then sign_x
    with + before -, then sign_y with + before -.
    """
    if not 1 <= a <= 62:
        raise ValueError(f"shift count must be in 1..62, got {a}")
    planes = tuple(
        Plane(m, sx, sy)
        for m in ((1 << a) - 1, (1 << a) + 1)
        for sx in (1, -1)
        for sy in (1, -1)
    )
    return PlaneFamily(a, planes)


_ONE = 1 << 53
_MASK53 = np.uint64(_ONE - 1)


def epsilon_threshold(epsilon: float) -> int:
    """Largest 53-bit distance within epsilon: floor(epsilon * 2**53).

    Any finite epsilon >= 1/2 covers the whole torus and is clamped there;
    negative, infinite and NaN values are rejected (inf would also reach
    the JSON reports, which cannot encode it).
    """
    if not 0.0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    return math.floor(Fraction(min(epsilon, 0.5)) * _ONE)


def union_rate(fam: PlaneFamily, epsilon: float) -> float:
    """Union bound on the uniform hit rate: 2*epsilon per plane distinct on the 53-bit grid.

    For a >= 52, -(2**a - 1) = 2**a + 1 mod 2**53, so the two coefficient
    families coincide on the grid, four planes remain and the bound is
    8*epsilon rather than 16*epsilon.
    """
    distinct = {(p.sign_x * p.m % _ONE, p.sign_y) for p in fam.planes}
    return min(2 * len(distinct) * epsilon, 1.0)


def nearest_plane(points: np.ndarray, fam: PlaneFamily) -> tuple[np.ndarray, np.ndarray]:
    """Exact torus distance to the nearest family plane, and that plane's index.

    points is an (n, 3) uint64 array of 53-bit coordinates (X, Y, Z), the
    point (X, Y, Z) / 2**53.  For each plane T = (Z - sign_x*m*X - sign_y*Y)
    mod 2**53 is computed with uint64 wraparound, and the distance is
    min(T, 2**53 - T) in units of 2**-53.  Ties keep the earliest plane in
    the family's fixed order.
    """
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    best = np.full(len(points), _ONE, dtype=np.uint64)
    idx = np.zeros(len(points), dtype=np.intp)
    for k, plane in enumerate(fam.planes):
        mx = x * np.uint64(plane.m)
        t = z - mx if plane.sign_x == 1 else z + mx
        t = (t - y if plane.sign_y == 1 else t + y) & _MASK53
        d = np.minimum(t, _ONE - t)
        idx[d < best] = k
        np.minimum(best, d, out=best)
    return best, idx


@dataclass(frozen=True, eq=False)
class MeshStrip:
    """One polyline of the sampled surface, constant x, ordered by y.

    vertices is a read-only (n, 3) float64 array of (x_mag, y, z) rows.
    branch is the integer k with k <= sign_x*m*x + sign_y*y < k+1 along the
    strip; strips sharing a branch belong to the same connected sheet.
    eq=False because a frozen dataclass holding an array can neither
    compare nor hash.
    """

    branch: int
    vertices: np.ndarray


# At 4096 stations a plane's vertex array is 4096**2 * 24 bytes, 0.4 GB; the
# meshes are built one at a time, and a planes run at that grid peaks at
# 578 MB RSS (2-core AVX-512 Xeon).  A grid of 10**5 would need 240 GB.
MAX_GRID = 4096


def check_grid(grid: int) -> None:
    """Reject a mesh with fewer than two or more than MAX_GRID stations per axis."""
    if not 2 <= grid <= MAX_GRID:
        raise ValueError(f"grid must be in 2..{MAX_GRID}, got {grid}")


def mesh(plane: Plane, x_max: float, magnify: float, grid: int) -> list[MeshStrip]:
    """Sample z = plane height over [0, x_max] x [0, 1] as strips along y.

    Emits `grid` stations per axis; vertices are (magnify*x, y, z) with
    x = (j/(grid-1))*x_max, y = k/(grid-1), f = sign_x*m*x + sign_y*y and
    z = f - floor(f).  Each strip is split where the mod-1 wrap crosses it
    (the branch index changes); fragments with fewer than two vertices are
    dropped, so the vertex total is grid*grid minus those wrap losses.
    """
    if not 0.0 < x_max <= 1.0:
        raise ValueError(f"x_max must be in (0, 1], got {x_max}")
    if not 0.0 < magnify < math.inf:
        raise ValueError(f"magnify must be positive and finite, got {magnify}")
    check_grid(grid)
    steps = grid - 1
    x = np.arange(grid) / steps * x_max
    y = np.arange(grid) / steps
    vertices = np.empty((grid, grid, 3))
    vertices[..., 0] = (magnify * x)[:, None]
    vertices[..., 1] = y
    # f, folded in place; float() rounds the coefficient exactly as Python's int * float does
    z = np.add(float(plane.sign_x * plane.m) * x[:, None], plane.sign_y * y, out=vertices[..., 2])
    branch = np.floor(z)
    z -= branch
    vertices = vertices.reshape(-1, 3)
    vertices.flags.writeable = False
    branch = branch.ravel()
    # a strip starts at every x station and wherever the branch changes along y
    new = np.ones(grid * grid, dtype=bool)
    new[1:] = branch[1:] != branch[:-1]
    new[::grid] = True
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], grid * grid)
    keep = ends - starts >= 2
    return [
        MeshStrip(int(branch[s]), vertices[s:e])
        for s, e in zip(starts[keep].tolist(), ends[keep].tolist())
    ]
