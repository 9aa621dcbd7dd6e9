"""Independent checks of one `xsplanes planes` output directory.

Nothing here imports xsplanes.  The generator, the plane scorer, the
uniform null rate and the case census are derived again from the
definitions in the top-level README and the paper, so a fault in the
program cannot pass by being shared with its checker.  Scoring uses exact
integer arithmetic on the 53-bit values the CSV rows encode, where the
program uses float64.
"""

from dataclasses import dataclass
from fractions import Fraction
import json
import math
from pathlib import Path

import numpy as np

MASK64 = (1 << 64) - 1
UNIT_BITS = 53  # an output maps to [0, 1) through its top 53 bits
ONE = 1 << UNIT_BITS
COMBINE = ("sum", "diff", "rev_diff")
CONTROL_SIGMAS = 5.0
MESH_TOLERANCE = 2.0**-30
# The first slab point lies about 2**e triples into the stream; the
# reference gives up after this many times that (chance e**-16).
REFERENCE_SCAN_FACTOR = 16


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Flags:
    """The `planes` flags a workload passes, as the checks need them."""

    seed: int
    a: int = 23
    b: int = 17
    c: int = 26
    magnify_exp: int = 23
    target_points: int = 1000
    epsilon: float = 2.0**-10
    control_points: int = 1 << 17
    control_seed: int = 271828
    census_steps: int = 50000
    n_bits: int = 3
    grid: int = 64
    min_ratio: float = 10.0

    def argv(self) -> list[str]:
        return [
            "--a", str(self.a), "--b", str(self.b), "--c", str(self.c),
            "--seed", f"{self.seed:x}",
            "--magnify-exp", str(self.magnify_exp),
            "--target-points", str(self.target_points),
            "--epsilon", repr(self.epsilon),
            "--control-points", str(self.control_points),
            "--control-seed", f"{self.control_seed:x}",
            "--census-steps", str(self.census_steps),
            "--n-bits", str(self.n_bits),
            "--grid", str(self.grid),
            "--min-ratio", repr(self.min_ratio),
        ]


# -- reference xorshift128+ ---------------------------------------------------


def splitmix64(x: int) -> tuple[int, int]:
    """One SplitMix64 round: (next counter, output)."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return x, z ^ (z >> 31)


def seed_state(seed: int) -> tuple[int, int]:
    ctr, s0 = splitmix64(seed)
    _, s1 = splitmix64(ctr)
    return (1, 0) if s0 == s1 == 0 else (s0, s1)


def next_word(s0: int, s1: int, a: int, b: int, c: int) -> int:
    """s2 = ((s0 ^ (s0 << a)) ^ ((s0 ^ (s0 << a)) >> b)) ^ (s1 ^ (s1 >> c))."""
    t = s0 ^ ((s0 << a) & MASK64)
    return t ^ (t >> b) ^ s1 ^ (s1 >> c)


def outputs(s0: int, s1: int, a: int, b: int, c: int, count: int) -> list[int]:
    """The first `count` outputs s_k + s_{k+1} of the stream."""
    out = []
    for _ in range(count):
        out.append((s0 + s1) & MASK64)
        s0, s1 = s1, next_word(s0, s1, a, b, c)
    return out


def first_slab_triples(flags: Flags, count: int) -> list[tuple[int, int, int]]:
    """The first `count` overlapping output triples whose x lies below 2**-e."""
    a, b, c = flags.a, flags.b, flags.c
    limit = 1 << (64 - flags.magnify_exp)  # x < 2**-e  iff  (o >> 11) < 2**(53-e)
    budget = REFERENCE_SCAN_FACTOR * count << flags.magnify_exp
    s0, s1 = seed_state(flags.seed)
    o0, o1 = outputs(s0, s1, a, b, c, 2)
    s0, s1 = s1, next_word(s0, s1, a, b, c)
    found = []
    for _ in range(budget):
        # one step of the recursion, inlined: this loop runs ~2**e times per point
        t = s0 ^ ((s0 << a) & MASK64)
        s0, s1 = s1, t ^ (t >> b) ^ s1 ^ (s1 >> c)
        o2 = (s0 + s1) & MASK64
        if o0 < limit:
            found.append((o0, o1, o2))
            if len(found) == count:
                return found
        o0, o1 = o1, o2
    raise CheckFailed(f"reference scan found {len(found)}/{count} slab triples in {budget} steps")


# -- planes and exact scoring -------------------------------------------------


def planes(a: int) -> list[tuple[str, int, int, int]]:
    """(name, m, sign_x, sign_y) in the program's tie-break order."""
    return [
        (f"m{m}_{'p' if sx > 0 else 'n'}{'p' if sy > 0 else 'n'}", m, sx, sy)
        for m in ((1 << a) - 1, (1 << a) + 1)
        for sx in (1, -1)
        for sy in (1, -1)
    ]


def score(points53, a: int, epsilon: float) -> tuple[int, dict]:
    """Hits and arg-min per-plane counts, all in units of 2**-53.

    A point (X, Y, Z) is at vertical torus distance min(T, 2**53 - T) from
    a plane, T = (Z - sx*m*X - sy*Y) mod 2**53; ties keep the first plane.
    """
    fam = planes(a)
    eps53 = Fraction(epsilon) * ONE
    per = {name: 0 for name, *_ in fam}
    hits = 0
    for x, y, z in points53:
        best, best_name = None, None
        for name, m, sx, sy in fam:
            t = (z - sx * m * x - sy * y) % ONE
            d = min(t, ONE - t)
            if best is None or d < best:
                best, best_name = d, name
        if best <= eps53:
            hits += 1
            per[best_name] += 1
    return hits, per


def uniform_union_rate(epsilon: float) -> Fraction:
    """Chance that a uniform cube point lies within epsilon of one of the planes.

    Each neighbourhood has measure 2*eps.  Every pairwise height difference
    is a non-zero integer combination of x and y, hence uniform mod 1, so
    each of the 28 pairs overlaps by 4*eps**2.  Triple overlaps are O(eps**3),
    far below the sampling error of any control size used here.
    """
    eps = Fraction(epsilon)
    return 16 * eps - 28 * 4 * eps * eps


# -- census -------------------------------------------------------------------


def _labels(u, v, mask):
    """Column conditions of top-bit pairs (u, v): sum, diff, rev_diff."""
    return ((u & v) == 0, (~u & v & mask) == 0, (u & ~v & mask) == 0)


def census(flags: Flags) -> tuple[dict, float, float]:
    """Case grid, compound frequency and carry-leak frequency over the stream.

    At step i with words s0..s3 the inner pairs are (s_k, s_k << a) and the
    outer pairs (s_{k+1}, s_k ^ (s_k << a)) for k = 0, 1.  A cell
    (outer, inner) holds when both pairs of each kind satisfy its column
    condition on the top n bits; its plane z ~ cx*x + cy*y mod 2**64 is
    checked against the top n bits of z.
    """
    a, n, steps = flags.a, flags.n_bits, flags.census_steps
    s0, s1 = seed_state(flags.seed)
    words = [s0, s1]
    for _ in range(steps + 1):
        words.append(next_word(words[-2], words[-1], flags.a, flags.b, flags.c))
    w = np.array(words, dtype=np.uint64)
    mask = np.uint64((1 << n) - 1)
    top = np.uint64(64 - n)
    shifted = w << np.uint64(a)
    t = w ^ shifted
    inner = _labels(w >> top, shifted >> top, mask)
    outer = _labels(w[1:] >> top, t[:-1] >> top, mask)
    x, y, z = w[:-3] + w[1:-2], w[1:-2] + w[2:-1], w[2:-1] + w[3:]
    grid = {}
    compound = np.zeros(steps, dtype=bool)
    checks = leaks = 0
    for oi, outer_kind in enumerate(COMBINE):
        o_both = outer[oi][:steps] & outer[oi][1 : steps + 1]
        for ii, inner_kind in enumerate(COMBINE):
            cell = o_both & inner[ii][:steps] & inner[ii][1 : steps + 1]
            grid[f"{outer_kind}|{inner_kind}"] = int(cell.sum()) / steps
            compound |= cell
            m = {"sum": (1 << a) + 1, "diff": 1 - (1 << a), "rev_diff": (1 << a) - 1}[inner_kind]
            cx = -m if outer_kind == "diff" else m
            cy = -1 if outer_kind == "rev_diff" else 1
            pred = np.uint64(cx % (1 << 64)) * x[cell] + np.uint64(cy % (1 << 64)) * y[cell]
            checks += int(cell.sum())
            leaks += int(((pred >> top) != (z[cell] >> top)).sum())
    return grid, int(compound.sum()) / steps, (leaks / checks) if checks else 0.0


# -- file readers -------------------------------------------------------------


def _scaled(value: float, bits: int, what: str) -> int:
    """value * 2**bits, which must be an integer."""
    num, den = value.as_integer_ratio()
    require((1 << bits) % den == 0, f"{what} {value!r} is not a multiple of 2**-{bits}")
    return num * ((1 << bits) // den)


def read_points(path: Path, flags: Flags) -> tuple[list, list]:
    """points.csv as 53-bit integer triples (unmagnified x) plus the floats."""
    lines = path.read_text().split("\n")
    header = (
        f"# magnify={1 << flags.magnify_exp} params={flags.a},{flags.b},{flags.c} "
        f"seed=0x{flags.seed:016x}"
    )
    require(lines[0] == header, f"points.csv header {lines[0]!r}, expected {header!r}")
    require(lines[-1] == "", "points.csv does not end with a newline")
    rows53, floats = [], []
    for i, line in enumerate(lines[1:-1], start=2):
        fields = line.split(",")
        require(len(fields) == 3, f"points.csv line {i}: {len(fields)} fields")
        vals = [float(f) for f in fields]
        require(
            [format(v, ".17g") for v in vals] == fields,
            f"points.csv line {i}: {line!r} does not round-trip at 17 digits",
        )
        require(all(0.0 <= v < 1.0 for v in vals), f"points.csv line {i}: {line!r} outside [0,1)^3")
        xm, y, z = vals
        rows53.append((
            _scaled(xm, UNIT_BITS - flags.magnify_exp, f"line {i} x"),
            _scaled(y, UNIT_BITS, f"line {i} y"),
            _scaled(z, UNIT_BITS, f"line {i} z"),
        ))
        floats.append(tuple(vals))
    return rows53, floats


def check_mesh(path: Path, flags: Flags, m: int, sx: int, sy: int) -> int:
    """Vertices lie on z = sx*m*x + sy*y mod 1; returns the number of sheets.

    Strips run along y at the stations x_mag = j/(grid-1), each a single
    sheet (one branch k of the fold), with at most two wrap losses per
    station.  Heights are exact integers in units of 2**-(64+e).
    """
    steps = flags.grid - 1
    shift = 64 + flags.magnify_exp
    grid = [k / steps for k in range(flags.grid)]
    text_of = [format(v, ".17g") for v in grid]
    index = {t: k for k, t in enumerate(text_of)}
    y_term = [sy * _scaled(v, 64, "y") << flags.magnify_exp for v in grid]
    stations = {}
    branches = set()
    text = path.read_text()
    require(text.endswith("\n"), f"{path.name} does not end with a newline")
    for s, block in enumerate(text[:-1].split("\n\n")):
        rows = [r.split(",") for r in block.split("\n")]
        require(len(rows) >= 2, f"{path.name} strip {s} has one vertex")
        j, k0 = index.get(rows[0][0]), index.get(rows[0][1])
        require(j is not None and k0 is not None, f"{path.name} strip {s} does not start on a grid vertex")
        x_term = sx * m * _scaled(grid[j], 64, "x")
        strip_branch = set()
        for k, (xs, ys, zs) in enumerate(rows, start=k0):
            require(k < flags.grid and xs == text_of[j] and ys == text_of[k],
                    f"{path.name} strip {s}: vertex {xs},{ys} off the grid")
            f = x_term + y_term[k]
            floor = f >> shift
            frac = float(f - (floor << shift)) * 2.0**-shift
            z = float(zs)
            wrap = round(frac - z)
            require(0.0 <= z < 1.0 and abs(frac - z - wrap) <= MESH_TOLERANCE,
                    f"{path.name} strip {s}: vertex {xs},{ys},{zs} is off the plane")
            strip_branch.add(floor + wrap)
        require(len(strip_branch) == 1, f"{path.name} strip {s} crosses a fold")
        branches |= strip_branch
        stations[j] = stations.get(j, 0) + len(rows)
    require(sorted(stations) == list(range(flags.grid)), f"{path.name}: stations missing")
    require(min(stations.values()) >= flags.grid - 2, f"{path.name}: a station lost vertices")
    return len(branches)


# -- the whole directory ------------------------------------------------------


def check_output(out_dir, stdout_text: str, flags: Flags, reference_points: int) -> dict:
    """Check one output directory and the report the command printed.

    Returns the parsed report.  Raises CheckFailed at the first mismatch.
    """
    out = Path(out_dir)
    report = json.loads(stdout_text)
    require((out / "report.json").read_text() == stdout_text, "report.json differs from stdout")

    fam = planes(flags.a)
    require(report["params"] == {"a": flags.a, "b": flags.b, "c": flags.c}, "params")
    require(report["seed"] == f"0x{flags.seed:016x}", "seed")
    require(report["epsilon"] == flags.epsilon, "epsilon")
    require(report["magnify"] == float(1 << flags.magnify_exp), "magnify")
    require(report["target_points"] == flags.target_points, "target_points")
    require(report["n_in_slab"] == flags.target_points, f"n_in_slab {report['n_in_slab']}")
    require(report["truncated"] is False, "truncated")
    require(report["control_points"] == flags.control_points, "control_points")

    rows53, floats = read_points(out / "points.csv", flags)
    require(len(rows53) == flags.target_points, f"points.csv has {len(rows53)} rows")
    require(report["n_triples_scanned"] >= len(rows53), "n_triples_scanned below the point count")

    hits, per = score(rows53, flags.a, flags.epsilon)
    require(list(report["per_plane_hits"].items()) == list(per.items()),
            f"per_plane_hits {report['per_plane_hits']}, recomputed {per}")
    require(report["hit_fraction"] == hits / len(rows53),
            f"hit_fraction {report['hit_fraction']}, recomputed {hits}/{len(rows53)}")

    control = report["control_hit_fraction"]
    rate = float(uniform_union_rate(flags.epsilon))
    sigma = math.sqrt(rate * (1.0 - rate) / flags.control_points)
    require(abs(control - rate) <= CONTROL_SIGMAS * sigma,
            f"control_hit_fraction {control} vs uniform rate {rate:.6f} +- {sigma:.2e}")
    ratio = report["concentration_ratio"]
    require(ratio == report["hit_fraction"] / control, "concentration_ratio is not hit/control")
    require(ratio >= flags.min_ratio, f"concentration ratio {ratio} below {flags.min_ratio}")

    scale = 2.0 ** flags.magnify_exp
    for i, (o0, o1, o2) in enumerate(first_slab_triples(flags, reference_points)):
        expect = ((o0 >> 11) * 2.0**-UNIT_BITS * scale, (o1 >> 11) * 2.0**-UNIT_BITS,
                  (o2 >> 11) * 2.0**-UNIT_BITS)
        require(floats[i] == expect, f"point {i}: {floats[i]} but the reference gives {expect}")

    grid, compound, leak = census(flags)
    cases = dict(grid, compound=compound)
    require(list(report["case_frequencies"].items()) == list(cases.items()),
            f"case_frequencies {report['case_frequencies']}, reference {cases}")
    require(report["carry_leak_frequency"] == leak,
            f"carry_leak_frequency {report['carry_leak_frequency']}, reference {leak}")

    meshes = [f"mesh_{name}.csv" for name, *_ in fam]
    files = {"points": "points.csv", "meshes": meshes, "overlay": "overlay.json", "report": "report.json"}
    require(report["files"] == files, "files")
    overlay = json.loads((out / "overlay.json").read_text())
    require(overlay == {"points": "points.csv", "meshes": meshes, "magnify": report["magnify"],
                        "epsilon": flags.epsilon}, "overlay.json")
    require(sorted(p.name for p in out.iterdir()) == sorted(["points.csv", "overlay.json", "report.json"] + meshes),
            "unexpected or missing files")
    for (name, m, sx, sy), fname in zip(fam, meshes):
        sheets = check_mesh(out / fname, flags, m, sx, sy)
        if flags.magnify_exp == flags.a:
            require(sheets == 2, f"{fname} has {sheets} sheets, expected 2 on the x < 2**-a slab")
    return report


def same_files(dir_a, dir_b) -> None:
    """Both directories hold the same file names with byte-identical contents."""
    a, b = Path(dir_a), Path(dir_b)
    names = sorted(p.name for p in a.iterdir())
    require(names == sorted(p.name for p in b.iterdir()), f"{a} and {b} hold different files")
    for name in names:
        require((a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs between {a} and {b}")
