"""The eight predicted planes z = +-m*x +- y (mod 1) and their geometry.

For shift count a the coefficients are m = 2**a - 1 and m = 2**a + 1; with
both signs on x and y that makes eight planes.  Distances are vertical on
the torus (z folded mod 1), which is well defined for graphs z = f(x, y)
mod 1 and cheap.  They are computed exactly on 53-bit integer coordinates,
the resolution of the generator's unit-interval outputs, by the stage
library's scorer (experiment.hit_stats).  Meshes sample the slab region
used for the magnified plots, split at the mod-1 wrap so each surface piece
is a clean sheet; the stage library fills them an x station at a time,
packing each plane's strips into one buffer.
"""

import ctypes
from dataclasses import dataclass
from fractions import Fraction
import math


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


@dataclass(frozen=True, eq=False)
class MeshStrip:
    """One polyline of the sampled surface, constant x, ordered by y.

    vertices is a read-only (n, 3) memoryview of float64 (x_mag, y, z) rows;
    numpy reads it without a copy.  branch is the integer k with k <=
    sign_x*m*x + sign_y*y < k+1 along the strip; strips sharing a branch
    belong to the same connected sheet.  eq=False because a frozen
    dataclass holding a memoryview can neither compare nor hash.
    """

    branch: int
    vertices: memoryview


class Mesh:
    """A plane's strips, packed: strip i is the rows ends[i-1] to ends[i] - 1 of rows (from row 0 for i = 0).

    buffer is the bytearray of float64 (x_mag, y, z) rows that rows, a
    read-only (n, 3) memoryview, views; ends and branches are int64
    memoryviews, one entry a strip.  The mesh reads as a sequence of
    MeshStrip views of its rows, each made as it is asked for (len,
    indexing, and iteration, which indexing gives); the CSV writer takes
    the rows and the ends whole.
    """

    def __init__(self, buffer: bytearray, ends: memoryview, branches: memoryview):
        self.buffer, self.ends, self.branches = buffer, ends, branches
        rows = memoryview(buffer).toreadonly().cast("d", (len(buffer) // 24, 3))
        self.rows = rows[: ends[-1] if len(ends) else 0]

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i: int) -> MeshStrip:
        i = range(len(self))[i]  # negative indices count from the end; IndexError past either end
        return MeshStrip(self.branches[i], self.rows[self.ends[i - 1] if i else 0 : self.ends[i]])


# At 4096 stations a plane's vertices take 4096**2 * 24 bytes, 0.4 GB; the
# meshes are built one at a time, and a planes run at that grid peaks at
# 405 MB RSS (2-core AVX-512 Xeon).  A grid of 10**5 would need 240 GB.
MAX_GRID = 4096
# A call of the mesh kernel fills about this many vertices, whole x stations.
_CALL_VERTICES = 1 << 13


def check_grid(grid: int) -> None:
    """Reject a mesh with fewer than two or more than MAX_GRID stations per axis."""
    if not 2 <= grid <= MAX_GRID:
        raise ValueError(f"grid must be in 2..{MAX_GRID}, got {grid}")


def mesh(plane: Plane, x_max: float, magnify: float, grid: int) -> Mesh:
    """Sample z = plane height over [0, x_max] x [0, 1] as strips along y.

    Emits `grid` stations per axis; vertices are (magnify*x, y, z) with
    x = (j/(grid-1))*x_max, y = k/(grid-1), f = sign_x*m*x + sign_y*y and
    z = f - floor(f), each operation rounded once, as Python floats round
    them.  Each strip is split where the mod-1 wrap crosses it (the branch
    index changes); fragments with fewer than two vertices are dropped, so
    the vertex total is grid*grid minus those wrap losses.  The stage
    library's xs_mesh_stations fills whole x stations, about _CALL_VERTICES
    vertices a call, packing the strips one after another into the plane's
    one vertex buffer.
    """
    if not 0.0 < x_max <= 1.0:
        raise ValueError(f"x_max must be in (0, 1], got {x_max}")
    if not 0.0 < magnify < math.inf:
        raise ValueError(f"magnify must be positive and finite, got {magnify}")
    check_grid(grid)
    from .experiment import _address, _stages  # experiment, which loads the library, imports this module

    fill = _stages().xs_mesh_stations
    vertices = bytearray(24 * grid * grid)
    per = -(-_CALL_VERTICES // grid)  # stations a call
    call_ends, call_branches = ((ctypes.c_int64 * (per * (grid // 2)))() for _ in range(2))  # a call's strips
    # float() rounds the coefficient exactly as Python's int * float does
    coef, sign_y = float(plane.sign_x * plane.m), float(plane.sign_y)
    at, ends, branches, packed = _address(vertices), bytearray(), bytearray(), 0  # packed: rows filled so far
    for j in range(0, grid, per):
        n = fill(j, min(j + per, grid), grid, x_max, magnify, coef, sign_y, at, packed, call_ends, call_branches)
        ends += memoryview(call_ends)[:n]
        branches += memoryview(call_branches)[:n]
        packed = call_ends[n - 1] if n else packed
    return Mesh(vertices, memoryview(ends).cast("q"), memoryview(branches).cast("q"))
