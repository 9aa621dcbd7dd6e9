"""Slab sampling, plane-hit statistics, control baseline, and case census.

The pipeline scans consecutive overlapping output triples (x, y, z), keeps
those whose x falls in the slab x < x_max, magnifies x for plotting, and
measures how the kept points concentrate near the eight predicted planes.
A counter-based control generator (Philox) supplies the null statistic on
the full unit cube, where the eight plane neighborhoods are essentially
disjoint and the uniform hit rate is close to 16*epsilon.

Scanning a slab at x_max = 2**-23 needs billions of triples per thousand
kept points, so besides the plain sequential scan there is a fast path
that uses the packed-pair transition map to start many lane segments at
exact stream offsets and advances all lanes with vectorized word ops, in
one contiguous lane range per usable CPU.  The two paths produce
bit-identical results.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
import json
import math
import os
import threading

import numpy as np

from .engine import (
    DEFAULT_PARAMS,
    MASK64,
    GenState,
    Params,
    act,
    mat_mul,
    mat_pow,
    seed_state,
    step_words,
    to_unit,
    transition_rows,
)
from .planes import PlaneFamily, epsilon_threshold, family, nearest_plane
from .xorapprox import COMBINE_ORDER, column_cases, compound_probability, plane_coefficients

DEFAULT_SCAN_CAP = 1 << 32
# Without an explicit scan cap, an expected scan longer than this many
# triples is refused before it starts (about 14 minutes on two cores).
MAX_DEFAULT_WORK = 1 << 38
# The fast scan runs one lane range per usable CPU.  Numpy ufuncs release
# the GIL, so the ranges advance in parallel; 2**15 lanes keep one worker's
# five scratch arrays (1.25 MB) in its core's L2 cache, and fewer lanes
# lose more time to GIL hand-offs between steps.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_LANES_PER_WORKER = 1 << 15
# Control points and census steps are processed in chunks of these sizes,
# which bounds their memory independently of the requested counts.
_CONTROL_CHUNK = 1 << 15
_CENSUS_CHUNK = 1 << 13


@dataclass(frozen=True)
class SlabSpec:
    """Slab filter and magnification for triple sampling."""

    a: int
    x_max: float
    magnify: float
    target_points: int

    def __post_init__(self):
        if not 0.0 < self.x_max <= 1.0:
            raise ValueError(f"x_max must be in (0, 1], got {self.x_max}")
        if abs(self.magnify * self.x_max - 1.0) > 1e-9:
            raise ValueError("magnify must be the reciprocal of x_max")
        if self.target_points < 1:
            raise ValueError(f"target_points must be >= 1, got {self.target_points}")


def slab_spec(a: int, magnify_exp: int | None = None, target_points: int = 1000) -> SlabSpec:
    """Slab x < 2**-e with magnification 2**e; e defaults to the shift count a."""
    e = a if magnify_exp is None else magnify_exp
    if not 1 <= e <= 53:
        raise ValueError(f"magnify exponent must be in 1..53, got {e}")
    return SlabSpec(a=a, x_max=2.0**-e, magnify=float(1 << e), target_points=target_points)


@dataclass
class SlabSample:
    """Accepted (magnified) points plus scan accounting."""

    points: list
    n_triples_scanned: int
    truncated: bool

    @property
    def n_in_slab(self) -> int:
        return len(self.points)


def resolve_scan_cap(spec: SlabSpec, scan_cap: int | None) -> int:
    """Default cap, sized so the target is reachable at the expected acceptance rate.

    The baseline cap is 2**32 triples; when the expected scan for the
    requested target exceeds it, four times the expectation is allowed.
    An expected scan beyond MAX_DEFAULT_WORK triples is refused with a
    ValueError.  An explicit scan_cap is honored as given.
    """
    if scan_cap is not None:
        if scan_cap < 1:
            raise ValueError(f"scan_cap must be >= 1, got {scan_cap}")
        return scan_cap
    expected = int(spec.target_points / spec.x_max)
    if expected > MAX_DEFAULT_WORK:
        raise ValueError(
            f"{spec.target_points} points at x < {spec.x_max:.3g} need about {expected:.3g} triples, "
            f"over the default budget of 2**38; pass --scan-cap to run it anyway"
        )
    return max(DEFAULT_SCAN_CAP, 4 * expected)


def _accept_threshold(x_max: float) -> int:
    """Smallest T with: to_unit(o) < x_max  iff  (o >> 11) < T."""
    return math.ceil(Fraction(x_max) * (1 << 53))


def slab_sample(
    state: GenState,
    spec: SlabSpec,
    scan_cap: int | None = None,
    method: str = "auto",
) -> SlabSample:
    """Scan overlapping triples, keeping (magnify*x, y, z) for x < x_max.

    Stops at target_points, or at the scan cap with the truncated flag set.
    method is "sequential", "fast", or "auto" (fast for large scans); both
    paths yield identical samples.
    """
    cap = resolve_scan_cap(spec, scan_cap)
    if method == "auto":
        method = "fast" if cap > 200_000 else "sequential"
    thr53 = _accept_threshold(spec.x_max)
    if method == "sequential":
        points, scanned, truncated = _scan_sequential(state, spec, cap, thr53)
    elif method == "fast":
        points, scanned, truncated = _scan_fast(state, spec, cap, thr53)
    else:
        raise ValueError(f"method must be 'sequential', 'fast' or 'auto', got {method!r}")
    return SlabSample(points, scanned, truncated)


def _scan_sequential(state, spec, cap, thr53):
    params = state.params
    magnify = spec.magnify
    target = spec.target_points
    s0, s1 = state.s0, state.s1
    o0 = (s0 + s1) & MASK64
    s0, s1 = step_words(s0, s1, params)
    o1 = (s0 + s1) & MASK64
    s0, s1 = step_words(s0, s1, params)
    o2 = (s0 + s1) & MASK64
    points = []
    for k in range(cap):
        if (o0 >> 11) < thr53:
            points.append((to_unit(o0) * magnify, to_unit(o1), to_unit(o2)))
            if len(points) >= target:
                return points, k + 1, False
        s0, s1 = step_words(s0, s1, params)
        o0, o1, o2 = o1, o2, (s0 + s1) & MASK64
    return points, cap, True


def _rows_to_arrays(rows):
    hi = np.array([r >> 64 for r in rows], dtype=np.uint64)
    lo = np.array([r & MASK64 for r in rows], dtype=np.uint64)
    return hi, lo


def _apply_rows_batch(mh, ml, vh, vl):
    """Apply a packed-pair transition to many pairs at once (row-vector action)."""
    ah = np.zeros_like(vh)
    al = np.zeros_like(vl)
    one = np.uint64(1)
    for i in range(64):
        sel = (vh >> np.uint64(63 - i)) & one
        ah ^= mh[i] * sel
        al ^= ml[i] * sel
    for i in range(64):
        sel = (vl >> np.uint64(63 - i)) & one
        ah ^= mh[64 + i] * sel
        al ^= ml[64 + i] * sel
    return ah, al


def _lane_starts(one_step, packed, lanes, seg_len):
    """States at stream offsets 0, seg_len, 2*seg_len, ... as uint64 pairs.

    Built by repeated doubling: each round maps the first block of starts
    forward by the squared segment transition.  Returns the packed state at
    offset lanes*seg_len as well, for chaining blocks.
    """
    seg = mat_pow(one_step, seg_len)
    hi = np.empty(lanes, dtype=np.uint64)
    lo = np.empty(lanes, dtype=np.uint64)
    hi[0] = packed >> 64
    lo[0] = packed & MASK64
    filled = 1
    jump = seg
    while filled < lanes:
        chunk = min(filled, lanes - filled)
        mh, ml = _rows_to_arrays(jump)
        h2, l2 = _apply_rows_batch(mh, ml, hi[:chunk], lo[:chunk])
        hi[filled : filled + chunk] = h2
        lo[filled : filled + chunk] = l2
        filled += chunk
        if filled < lanes:
            jump = mat_mul(jump, jump)
    last = (int(hi[-1]) << 64) | int(lo[-1])
    return hi, lo, act(seg, last)


def _scan_block(hi, lo, scratch, params, seg_len, thr53):
    """Advance all lanes seg_len steps; return (lane, t, s0, s1) where a triple enters the slab.

    Lane j covers triple offsets [j*seg_len, (j+1)*seg_len) of the stream.
    A hit is recorded as its state, from which the caller steps out the
    triple's other two outputs.  hi, lo and the three scratch arrays are
    overwritten.
    """
    s0, s1 = hi, lo
    out, t1, t2 = scratch
    ua, ub, uc = np.uint64(params.a), np.uint64(params.b), np.uint64(params.c)
    # o >> 11 < thr53  iff  o <= (thr53 << 11) - 1, which fits in uint64 for thr53 <= 2**53
    last_in = np.uint64((thr53 << 11) - 1)
    hits = []
    for t in range(seg_len):
        np.add(s0, s1, out=out)
        if out.min() <= last_in:
            hits.extend((int(j), t, int(s0[j]), int(s1[j])) for j in np.flatnonzero(out <= last_in))
        np.left_shift(s0, ua, out=t1)
        np.bitwise_xor(t1, s0, out=t1)
        np.right_shift(t1, ub, out=t2)
        np.bitwise_xor(t1, t2, out=t1)
        np.right_shift(s1, uc, out=t2)
        np.bitwise_xor(t1, t2, out=t1)
        np.bitwise_xor(t1, s1, out=t1)
        s0, s1, t1 = s1, t1, s0
    return hits


def _scan_lanes(hi, lo, params, seg_len, thr53):
    """_scan_block over contiguous lane ranges, one per worker; hits carry block lane numbers.

    The calling thread scans range 0 itself, so one worker starts no
    thread.  A worker's exception is re-raised here.  The scratch arrays
    are allocated here too, since memory a worker thread allocates stays
    in its own malloc arena after the block.  They are no larger than hi
    and lo: freeing a larger one would raise glibc's mmap threshold, and
    later arrays of that size would then stay on the heap.  Both cost
    about 1-2 MB of peak RSS.
    """
    n = hi.shape[0]
    k = min(_WORKERS, n)
    bounds = [n * i // k for i in range(k + 1)]
    scratch = [np.empty(n, dtype=np.uint64) for _ in range(3)]
    found = [None] * k

    def scan(i):
        r = slice(bounds[i], bounds[i + 1])
        return _scan_block(hi[r], lo[r], [a[r] for a in scratch], params, seg_len, thr53)

    def work(i):
        try:
            found[i] = scan(i)
        except BaseException as exc:  # handed to the calling thread
            found[i] = exc

    # daemon: an interrupt of the calling thread need not wait for the block
    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(1, k)]
    for th in threads:
        th.start()
    found[0] = scan(0)
    for th in threads:
        th.join()
    hits = []
    for start, part in zip(bounds, found):
        if isinstance(part, BaseException):
            raise part
        hits.extend((start + lane, t, s0, s1) for lane, t, s0, s1 in part)
    return hits


def _scan_fast(state, spec, cap, thr53):
    params = state.params
    magnify = spec.magnify
    target = spec.target_points
    one_step = transition_rows(params)
    packed = (state.s0 << 64) | state.s1
    hits = []
    base = 0
    # each block is sized to the expected remaining work, so the scan stops
    # at most one small follow-up block past the target
    while base < cap and len(hits) < target:
        remaining = cap - base
        block = min(remaining, int((target - len(hits)) / spec.x_max) + 4096)
        lanes = max(1, min(_WORKERS * _LANES_PER_WORKER, block // 64))
        seg_len = (block + lanes - 1) // lanes
        if lanes * seg_len > remaining:
            seg_len = remaining // lanes
        hi, lo, packed = _lane_starts(one_step, packed, lanes, seg_len)
        for lane, t, s0, s1 in _scan_lanes(hi, lo, params, seg_len, thr53):
            hits.append((base + lane * seg_len + t, s0, s1))
        base += lanes * seg_len
    hits.sort(key=lambda h: h[0])
    if len(hits) < target:
        scanned, truncated = cap, True
    else:
        hits = hits[:target]
        scanned, truncated = hits[-1][0] + 1, False
    points = []
    for _, s0, s1 in hits:
        o0 = (s0 + s1) & MASK64
        s0, s1 = step_words(s0, s1, params)
        o1 = (s0 + s1) & MASK64
        s0, s1 = step_words(s0, s1, params)
        points.append((to_unit(o0) * magnify, to_unit(o1), to_unit((s0 + s1) & MASK64)))
    return points, scanned, truncated


@dataclass
class HitStats:
    """Plane-proximity counts for one point set."""

    n_points: int
    n_hits: int
    hit_fraction: float
    per_plane_hits: dict


def hit_stats(points, fam: PlaneFamily, epsilon: float, spec: SlabSpec) -> HitStats:
    """Fraction of points within epsilon of some family plane, attributed by arg-min.

    Points carry magnified x; distances are computed on unmagnified
    coordinates, scaled to the 53-bit grid (exact for generator points).
    Per-plane counts use the arg-min plane only, so they sum to the total
    hit count.
    """
    if not points:
        raise ValueError("empty point list")
    thr = epsilon_threshold(epsilon)
    scale = np.array([(1 << 53) / spec.magnify, 1 << 53, 1 << 53])
    d, which = nearest_plane((np.array(points) * scale).astype(np.uint64), fam)
    hit = d <= thr
    per = np.bincount(which[hit], minlength=len(fam.planes))
    hits = int(hit.sum())
    per_plane = {p.name: int(c) for p, c in zip(fam.planes, per)}
    return HitStats(len(points), hits, hits / len(points), per_plane)


def control_baseline(n_points: int, fam: PlaneFamily, epsilon: float, control_seed: int) -> float:
    """Hit fraction of uniform cube points from a counter-based generator.

    Philox (counter-based, unrelated to the xorshift family) drives the
    points: each coordinate is the top 53 bits of one raw word, the same
    value Generator.random would give.  On the full cube the eight plane
    neighborhoods are nearly disjoint so the expected value is a bit under
    16*epsilon.  For a = 52 - k the two coefficient families coincide on
    the grid points with X = 0 mod 2**k, which lowers it to about
    (16 - 8/2**k)*epsilon: 14*epsilon at a = 50, 12*epsilon at a = 51.
    For a >= 52 they coincide on the whole 53-bit grid, which halves it
    to 8*epsilon.  planes.union_rate gives the union bound.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    thr = epsilon_threshold(epsilon)
    bitgen = np.random.Philox(key=control_seed)
    hits = 0
    for start in range(0, n_points, _CONTROL_CHUNK):
        k = min(_CONTROL_CHUNK, n_points - start)
        d, _ = nearest_plane((bitgen.random_raw(3 * k) >> np.uint64(11)).reshape(k, 3), fam)
        hits += int((d <= thr).sum())
    return hits / n_points


@dataclass
class CaseCensus:
    """Empirical compound-case frequencies over a generator stream."""

    n_steps: int
    n_bits: int
    grid: dict
    compound_frequency: float
    carry_leak_frequency: float
    uniform_model_estimate: float


def case_census(state: GenState, n_steps: int, n_bits: int = 3) -> CaseCensus:
    """Tally the 3x3 compound-case grid over n_steps consecutive steps.

    Step i sees the state words s0..s3 = w[i..i+3].  Its inner cases are
    the column conditions on the top n_bits of (s, s << a), held by both
    s0 and s1; its outer cases those of (s_next, s ^ (s << a)), held by
    both (s1, s0) and (s2, s1).  A step may satisfy several cells; every
    satisfied cell is tallied and compound_frequency counts steps
    satisfying at least one.  The carry leak frequency is the share of
    satisfied cells whose predicted plane value cx*x + cy*y misses the top
    n_bits of the actual output z.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not 1 <= n_bits <= 16:
        raise ValueError(f"n_bits must be in 1..16, got {n_bits}")
    params = state.params
    drop = np.uint64(64 - n_bits)
    pairs = [(o, i) for o in COMBINE_ORDER for i in COMBINE_ORDER]
    coeffs = [[np.uint64(c & MASK64) for c in plane_coefficients(o, i, params.a)] for o, i in pairs]
    counts = np.zeros(len(pairs), dtype=np.int64)
    compound = leaks = 0
    w0, w1 = state.s0, state.s1
    for start in range(0, n_steps, _CENSUS_CHUNK):
        k = min(_CENSUS_CHUNK, n_steps - start)
        words = [w0, w1]
        while len(words) < k + 3:
            words.append(step_words(words[-2], words[-1], params)[1])
        w0, w1 = words[k], words[k + 1]
        w = np.array(words, dtype=np.uint64)
        s, s_next = w[: k + 1], w[1 : k + 2]
        shifted = s << np.uint64(params.a)
        inner = np.array(column_cases(s >> drop, shifted >> drop))
        outer = np.array(column_cases(s_next >> drop, (s ^ shifted) >> drop))
        # one row per (outer, inner) cell: both cases hold at both words
        both_outer, both_inner = outer[:, :-1] & outer[:, 1:], inner[:, :-1] & inner[:, 1:]
        cells = (both_outer[:, None] & both_inner[None]).reshape(len(pairs), k)
        out = w[:-1] + w[1:]
        x, y, z = out[:k], out[1 : k + 1], out[2:]
        for cell, (cx, cy) in zip(cells, coeffs):
            leaks += int((cell & (((cx * x + cy * y) ^ z) >> drop != 0)).sum())
        counts += cells.sum(axis=1)
        compound += int(cells.any(axis=0).sum())
    checks = int(counts.sum())
    grid = {f"{o.value}|{i.value}": int(c) / n_steps for (o, i), c in zip(pairs, counts)}
    return CaseCensus(
        n_steps=n_steps,
        n_bits=n_bits,
        grid=grid,
        compound_frequency=compound / n_steps,
        carry_leak_frequency=(leaks / checks) if checks else 0.0,
        uniform_model_estimate=compound_probability(n_bits)[1],
    )


@dataclass
class ExperimentConfig:
    """Everything a full experiment run depends on; all fields deterministic."""

    params: Params = DEFAULT_PARAMS
    seed: int = 1
    epsilon: float = 2.0**-10
    magnify_exp: int | None = None
    target_points: int = 1000
    scan_cap: int | None = None
    method: str = "auto"
    control_points: int = 1 << 17
    control_seed: int = 271828
    census_steps: int = 50000
    n_bits: int = 3
    grid: int = 64
    output_dir: str | None = None


@dataclass
class HitReport:
    """Full experiment result; to_dict() fixes the JSON field order."""

    params: Params
    seed: int
    epsilon: float
    magnify: float
    target_points: int
    n_triples_scanned: int
    n_in_slab: int
    truncated: bool
    hit_fraction: float
    per_plane_hits: dict
    control_points: int
    control_hit_fraction: float
    concentration_ratio: float | None
    case_frequencies: dict
    carry_leak_frequency: float
    files: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "params": {"a": self.params.a, "b": self.params.b, "c": self.params.c},
            "seed": f"0x{self.seed:016x}",
            "epsilon": self.epsilon,
            "magnify": self.magnify,
            "target_points": self.target_points,
            "n_triples_scanned": self.n_triples_scanned,
            "n_in_slab": self.n_in_slab,
            "truncated": self.truncated,
            "hit_fraction": self.hit_fraction,
            "per_plane_hits": self.per_plane_hits,
            "control_points": self.control_points,
            "control_hit_fraction": self.control_hit_fraction,
            "concentration_ratio": self.concentration_ratio,
            "case_frequencies": self.case_frequencies,
            "carry_leak_frequency": self.carry_leak_frequency,
            "files": self.files,
        }


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_points_csv(path, points, magnify: float, params: Params, seed: int) -> None:
    """Point cloud as `x_mag,y,z` rows under a reproducibility header line."""
    lines = [f"# magnify={int(magnify)} params={params.a},{params.b},{params.c} seed=0x{seed:016x}"]
    for x, y, z in points:
        lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(z)}")
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_mesh_csv(path, strips) -> None:
    """Mesh strips as `x_mag,y,z` rows, blank line between strips."""
    blocks = []
    for strip in strips:
        blocks.append("\n".join(f"{_fmt(x)},{_fmt(y)},{_fmt(z)}" for x, y, z in strip.vertices))
    _atomic_write_text(Path(path), "\n\n".join(blocks) + "\n")


def run_experiment(cfg: ExperimentConfig) -> HitReport:
    """Run the full pipeline and, if an output directory is set, write data files.

    Emits one point-cloud CSV, one mesh CSV per plane, an overlay manifest
    and the report JSON.  Every output is a pure function of the config.
    """
    from .planes import mesh  # local import to keep module init light

    spec = slab_spec(cfg.params.a, cfg.magnify_exp, cfg.target_points)
    # reject a bad epsilon or shift count before the scan
    epsilon_threshold(cfg.epsilon)
    fam = family(cfg.params.a)
    state = seed_state(cfg.seed, cfg.params)
    sample = slab_sample(state, spec, scan_cap=cfg.scan_cap, method=cfg.method)
    if sample.points:
        stats = hit_stats(sample.points, fam, cfg.epsilon, spec)
    else:
        stats = HitStats(0, 0, 0.0, {p.name: 0 for p in fam.planes})
    control = control_baseline(cfg.control_points, fam, cfg.epsilon, cfg.control_seed)
    census = case_census(seed_state(cfg.seed, cfg.params), cfg.census_steps, cfg.n_bits)
    if control > 0.0:
        ratio = stats.hit_fraction / control
    else:
        ratio = None
    case_frequencies = dict(census.grid)
    case_frequencies["compound"] = census.compound_frequency
    report = HitReport(
        params=cfg.params,
        seed=cfg.seed,
        epsilon=cfg.epsilon,
        magnify=spec.magnify,
        target_points=cfg.target_points,
        n_triples_scanned=sample.n_triples_scanned,
        n_in_slab=sample.n_in_slab,
        truncated=sample.truncated,
        hit_fraction=stats.hit_fraction,
        per_plane_hits=stats.per_plane_hits,
        control_points=cfg.control_points,
        control_hit_fraction=control,
        concentration_ratio=ratio,
        case_frequencies=case_frequencies,
        carry_leak_frequency=census.carry_leak_frequency,
    )
    if cfg.output_dir is not None:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        points_file = out / "points.csv"
        write_points_csv(points_file, sample.points, spec.magnify, cfg.params, cfg.seed)
        mesh_files = []
        for plane in fam.planes:
            strips = mesh(plane, spec.x_max, spec.magnify, cfg.grid)
            mesh_file = out / f"mesh_{plane.name}.csv"
            write_mesh_csv(mesh_file, strips)
            mesh_files.append(mesh_file.name)
        report.files = {
            "points": points_file.name,
            "meshes": mesh_files,
            "overlay": "overlay.json",
            "report": "report.json",
        }
        overlay = {
            "points": points_file.name,
            "meshes": mesh_files,
            "magnify": spec.magnify,
            "epsilon": cfg.epsilon,
        }
        _atomic_write_text(out / "overlay.json", json.dumps(overlay, indent=2) + "\n")
        _atomic_write_text(out / "report.json", json.dumps(report.to_dict(), indent=2) + "\n")
    return report
