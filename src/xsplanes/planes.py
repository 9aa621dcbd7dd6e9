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

    def height(self, x: float, y: float) -> float:
        """z of the plane at (x, y), folded into [0, 1)."""
        f = self.sign_x * self.m * x + self.sign_y * y
        return f - math.floor(f)


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

    Any epsilon >= 1/2 covers the whole torus and is clamped there (which
    also keeps inf out of Fraction); negative and NaN values are rejected.
    """
    if not epsilon >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return math.floor(Fraction(min(epsilon, 0.5)) * _ONE)


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


@dataclass(frozen=True)
class MeshStrip:
    """One polyline of the sampled surface, constant x, ordered by y.

    branch is the integer k with k <= sign_x*m*x + sign_y*y < k+1 along the
    strip; strips sharing a branch belong to the same connected sheet.
    """

    branch: int
    vertices: tuple[tuple[float, float, float], ...]


def mesh(plane: Plane, x_max: float, magnify: float, grid: int) -> list[MeshStrip]:
    """Sample z = plane height over [0, x_max] x [0, 1] as strips along y.

    Emits `grid` stations per axis; vertices are (magnify*x, y, z).  Each
    strip is split where the mod-1 wrap crosses it (the branch index
    changes); fragments with fewer than two vertices are dropped, so the
    vertex total is grid*grid minus those wrap losses.
    """
    if not 0.0 < x_max <= 1.0:
        raise ValueError(f"x_max must be in (0, 1], got {x_max}")
    if magnify <= 0.0:
        raise ValueError(f"magnify must be positive, got {magnify}")
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
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


def component_count(strips: list[MeshStrip]) -> int:
    """Number of connected sheets in a sampled mesh (distinct branch indices)."""
    return len({s.branch for s in strips})
