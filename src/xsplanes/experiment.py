"""Slab sampling, plane-hit statistics, control baseline, and case census.

The pipeline scans consecutive overlapping output triples (x, y, z), keeps
the 53-bit words of those whose x falls in the slab x < 2**-e, magnifies
x for plotting by an exact shift, and measures how the kept points
concentrate near the eight predicted planes.
A counter-based control generator (numpy's Philox stream) supplies the
null statistic on the full unit cube, where the eight plane neighborhoods
are essentially disjoint and the uniform hit rate is close to 16*epsilon.

Scanning a slab at x_max = 2**-23 needs billions of triples per thousand
kept points, so the scan uses the packed-pair transition map to start
many lane segments at exact stream offsets and advances the lanes in one
contiguous lane range per usable CPU.  A small C kernel (_lanes.c),
compiled on first use and loaded with ctypes, advances them; where it
cannot be built, vectorized numpy word ops do.  Both give bit-identical
results; the tests hold the reference, a plain sequential scan one
Python-int step at a time.

The CSV files hold each coordinate as Python's '%.17g' text.  One writer
passes the rows of points.csv and of each mesh to a formatter, a buffer's
worth a call.  A second C kernel (_text.c), built and cached the same way,
formats them with exact integer arithmetic, byte for byte as Python does;
where it cannot be built, a Python formatter takes the same calls and
writes the same text, formatting each distinct value of a call once.
A third (_control.c) draws the control's Philox stream and counts its
hits without allocating; where it cannot be built, numpy.random's Philox
draws the stream, and only then is numpy.random imported.

With an output directory, run_experiment writes points.csv, the eight
mesh files, overlay.json and report.json, in that order, once the sample
is scored and the control and the census have run; a failed write stops
the run, so a run that fails leaves no report.  Every file goes through
a temp file of its own, <name>.<pid>.<n>.tmp, renamed into place.
"""

from dataclasses import asdict, dataclass, field
from pathlib import Path
import ctypes
import functools
import itertools
import json
import os
import threading
import zlib

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
    transition_rows,
)
from .planes import PlaneFamily, check_grid, epsilon_threshold, family, mesh, nearest_plane
from .xorapprox import COMBINE_ORDER, column_cases, compound_probability, plane_coefficients

DEFAULT_SCAN_CAP = 1 << 32
# Without an explicit scan cap, an expected scan longer than this many
# triples is refused before it starts: on two cores it takes about 35 s
# with the compiled kernel, about 12 minutes with the numpy scan.
MAX_DEFAULT_WORK = 1 << 38
# The lane scan runs one lane range per usable CPU.  The lanes per worker
# are sized for the numpy fallback, whose ufuncs release the GIL so the
# ranges advance in parallel: 2**15 lanes keep one worker's five scratch
# arrays (1.25 MB) in its core's L2 cache, and fewer lanes lose more time
# to GIL hand-offs between steps.  The compiled kernel keeps that size.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_LANES_PER_WORKER = 1 << 15
# The compiled lane scan.  One call covers at most about 2**28 triples
# (about 0.1 s), so the calling thread serves an interrupt between calls,
# and about 2**11 expected hits.  The hit buffer holds 1.5 times that (22
# sigma above the mean), which keeps it under glibc's 128 KB mmap
# threshold: a buffer for a worker's whole range raised wide-slab's peak
# RSS by 1 MB.  A call's lanes are a multiple of the kernel's group of 32
# interleaved lanes.  Each shift triple has its own library, compiled with
# the counts as constants on the triple's first scan.  On x86-64 a library
# holds AVX-512, AVX2 and plain builds of the scan and picks one by the
# CPU's features at each call, so a cached library runs on any x86-64 CPU;
# other targets build the plain scan alone.
_LANES_SOURCE = Path(__file__).with_name("_lanes.c")
_CFLAGS = ("-O3", "-shared", "-fPIC")
_CALL_TRIPLES = 1 << 28
_CALL_HITS = 1 << 11
_GROUP = 32
# xs_scan_lanes(hi, lo, lanes, seg_len, base, last_in, hits, cap) -> number of hits
_LANES_ARGTYPES = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_uint64,
                   ctypes.c_uint64, ctypes.c_void_p, ctypes.c_int64)
# The compiled control count (_control.c) allocates nothing.  Without it,
# control points are processed in chunks, as census words always are, of
# these sizes, which bounds their memory independently of the requested
# counts.
_CONTROL_SOURCE = Path(__file__).with_name("_control.c")
_CONTROL_CHUNK = 1 << 15
_CENSUS_CHUNK = 1 << 13
# The hit rows and points grow with the target, not with the triples scanned:
# a planes run of 2**22 points at x < 2**-1 peaks at 470-490 MB RSS (510-515
# MB without the compiled kernels; 2-core AVX-512 Xeon).
MAX_TARGET_POINTS = 1 << 22
# The control and census counts are bounded by time, as the scan is (so the
# control's count also fits the kernel's int64).  On a 2-core AVX-512 Xeon
# 2**32 control points take about 2 minutes with the compiled kernel (7-10
# minutes with numpy's Philox), and 2**32 census steps 12-15 minutes.
MAX_CONTROL_POINTS = 1 << 32
MAX_CENSUS_STEPS = 1 << 32


@dataclass(frozen=True)
class SlabSpec:
    """Slab x < 2**-e with magnification 2**e, and the number of points to collect."""

    e: int
    target_points: int

    def __post_init__(self):
        if not 1 <= self.e <= 53:
            raise ValueError(f"magnify exponent must be in 1..53, got {self.e}")
        if not 1 <= self.target_points <= MAX_TARGET_POINTS:
            raise ValueError(f"target_points must be in 1..{MAX_TARGET_POINTS}, got {self.target_points}")

    @property
    def x_max(self) -> float:
        return 2.0**-self.e

    @property
    def magnify(self) -> float:
        return float(1 << self.e)


def slab_spec(a: int, magnify_exp: int | None, target_points: int) -> SlabSpec:
    """Slab x < 2**-e with magnification 2**e; e is magnify_exp, or the shift count a where that is None."""
    return SlabSpec(a if magnify_exp is None else magnify_exp, target_points)


@dataclass
class SlabSample:
    """Accepted points, an (n, 3) uint64 array of words (X << e, Y, Z), plus scan accounting."""

    points: np.ndarray
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
    expected = spec.target_points << spec.e
    if expected > MAX_DEFAULT_WORK:
        raise ValueError(
            f"{spec.target_points} points at x < {spec.x_max:.3g} need about {expected:.3g} triples, "
            f"over the default budget of 2**38; pass --scan-cap to run it anyway"
        )
    return max(DEFAULT_SCAN_CAP, 4 * expected)


def slab_sample(
    state: GenState,
    spec: SlabSpec,
    scan_cap: int | None = None,
    method: str = "fast",
) -> SlabSample:
    """Scan overlapping triples with the lane scan, keeping the words (X << e, Y, Z) for x < 2**-e.

    Stops at target_points, or at the scan cap with the truncated flag set.
    method must be "fast".
    """
    cap = resolve_scan_cap(spec, scan_cap)
    if method != "fast":  # only perfbench/layers.py passes it; goes with that file's pipeline copy (ROADMAP item 2)
        raise ValueError(f"method must be 'fast', got {method!r}")
    last_in = (1 << (64 - spec.e)) - 1  # x < 2**-e  iff  output o <= last_in
    return SlabSample(*_scan_fast(state, spec, cap, last_in))


def _lane_starts(one_step, start, lanes, seg_len):
    """The (2, lanes) states at stream offsets 0, seg_len, 2*seg_len, ... from the (2, 1) start.

    Built by repeated doubling: each round maps the first block of starts
    forward by the squared segment transition.  Returns the (2, 1) state at
    offset lanes*seg_len as well, for chaining blocks.
    """
    seg = mat_pow(one_step, seg_len)
    starts = np.empty((2, lanes), dtype=np.uint64)
    starts[:, :1] = start
    filled = 1
    jump = seg
    while filled < lanes:
        chunk = min(filled, lanes - filled)
        starts[:, filled : filled + chunk] = act(jump, starts[:, :chunk])
        filled += chunk
        if filled < lanes:
            jump = mat_mul(jump, jump)
    return starts, act(seg, starts[:, -1:])


def _scan_block(hi, lo, scratch, params, seg_len, base, last_in):
    """Advance all lanes seg_len steps; return the hits where a triple enters the slab.

    Lane j covers triple offsets [base + j*seg_len, base + (j+1)*seg_len) of
    the stream.  The hits are a list of (3, n) uint64 arrays with rows offset,
    s0, s1, the layout of the compiled kernel's buffer: a hit's stream offset
    and its state, from which the caller steps out the triple's other two
    outputs.  hi, lo and the three scratch arrays are overwritten.
    """
    s0, s1 = hi, lo
    out, t1, t2 = scratch
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


def _load_kernel(cache_dir: Path, source: Path, defines: tuple[str, ...] = ()):
    """The ctypes library built from source with the -D flags defines into cache_dir on a miss; None if it cannot be.

    The library is named by the source's stem and a crc32 of the source,
    the compiler flags, defines included, and the machine type.  It is
    compiled under a name of its own and then renamed into place, so
    concurrent first runs each load a whole file.
    """
    flags = (*_CFLAGS, *defines)
    try:
        key = zlib.crc32(b"\0".join([source.read_bytes(), " ".join(flags).encode(), os.uname().machine.encode()]))
        path = cache_dir / f"{source.stem.lstrip('_')}-{key:08x}.so"
        if not path.exists():
            import subprocess  # only on a miss: it adds about 0.4 MB of peak RSS

            cache_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
            try:
                cmd = ["gcc", *flags, "-o", str(tmp), str(source)]
                if subprocess.run(cmd, capture_output=True).returncode != 0:
                    return None
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        return ctypes.CDLL(str(path))
    except OSError:  # no compiler, cache or loadable library
        return None


def _compiled(source: Path, defines: tuple[str, ...], name: str, restype, argtypes):
    """Function name of source's library from $XDG_CACHE_HOME/xsplanes, typed for ctypes, or None.

    As the XDG spec asks, a relative XDG_CACHE_HOME is ignored for
    ~/.cache.  Without a home directory there is no cache, and the caller
    runs its Python code.
    """
    cache_home = Path(os.environ.get("XDG_CACHE_HOME", ""))
    if not cache_home.is_absolute():
        try:
            cache_home = Path.home() / ".cache"
        except RuntimeError:  # no HOME and no passwd entry
            return None
    library = _load_kernel(cache_home / "xsplanes", source, defines)
    if library is None:
        return None
    function = getattr(library, name)
    function.restype = restype
    function.argtypes = argtypes
    return function


@functools.cache
def _kernel(params: Params):
    """The compiled lane scan for params, loaded once per triple, or None."""
    defines = (f"-DSHIFT_A={params.a}", f"-DSHIFT_B={params.b}", f"-DSHIFT_C={params.c}")
    return _compiled(_LANES_SOURCE, defines, "xs_scan_lanes", ctypes.c_int64, _LANES_ARGTYPES)


def _scan_compiled(kernel, hi, lo, seg_len, base, last_in):
    """_scan_block through the compiled kernel: the same hits, and hi and lo left unchanged.

    A call that finds more hits than the buffer holds reports how many, and
    is rerun with a buffer of that size, so no hit is dropped.
    """
    if not (hi.dtype == lo.dtype == np.uint64 and hi.shape == lo.shape and hi.flags.c_contiguous
            and lo.flags.c_contiguous):
        raise ValueError("lane starts must be two contiguous uint64 arrays of one length")
    call = min(_CALL_TRIPLES, (_CALL_HITS << 64) // (last_in + 1))
    step = max(_GROUP, call // seg_len // _GROUP * _GROUP)
    buf = np.empty((3, _CALL_HITS * 3 // 2), dtype=np.uint64)
    hits = []
    for start in range(0, hi.shape[0], step):
        h, l = hi[start : start + step], lo[start : start + step]
        while (found := kernel(h.ctypes.data, l.ctypes.data, h.shape[0], seg_len, base + start * seg_len, last_in,
                               buf.ctypes.data, buf.shape[1])) > buf.shape[1]:
            buf = np.empty((3, found), dtype=np.uint64)
        hits.append(buf[:, :found].copy())
    return hits


def _scan_lanes(hi, lo, params, seg_len, base, last_in):
    """Scan contiguous lane ranges, one per worker, from stream offset base; the hit list of _scan_block.

    Each worker runs the compiled kernel, or _scan_block where none could
    be built.  The calling thread scans range 0 itself, so one worker
    starts no thread.  A worker's exception is re-raised here.  The numpy
    scan's scratch arrays are allocated here too, since memory a worker
    thread allocates stays in its own malloc arena after the block.  They
    are no larger than hi and lo: freeing a larger one would raise glibc's
    mmap threshold, and later arrays of that size would then stay on the
    heap.  Both cost about 1-2 MB of peak RSS.
    """
    n = hi.shape[0]
    k = min(_WORKERS, n)
    bounds = [n * i // k for i in range(k + 1)]
    kernel = _kernel(params)
    if kernel is None:
        scratch = [np.empty(n, dtype=np.uint64) for _ in range(3)]
    found = [None] * k

    def scan(i):
        r, at = slice(bounds[i], bounds[i + 1]), base + bounds[i] * seg_len
        if kernel is not None:
            return _scan_compiled(kernel, hi[r], lo[r], seg_len, at, last_in)
        return _scan_block(hi[r], lo[r], [a[r] for a in scratch], params, seg_len, at, last_in)

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
    for part in found:
        if isinstance(part, BaseException):
            raise part
    return [hit for part in found for hit in part]


def _scan_fast(state, spec, cap, last_in):
    params = state.params
    target = spec.target_points
    one_step = transition_rows(params)
    start = np.array([[state.s0], [state.s1]], dtype=np.uint64)
    hits = [np.empty((3, 0), dtype=np.uint64)]  # (3, n) arrays with rows offset, s0, s1
    base = 0
    # each block is sized to the expected remaining work, so the scan stops
    # at most one small follow-up block past the target
    while base < cap and (n_hits := sum(h.shape[1] for h in hits)) < target:
        remaining = cap - base
        block = min(remaining, ((target - n_hits) << spec.e) + 4096)
        lanes = max(1, min(_WORKERS * _LANES_PER_WORKER, block // 64))
        seg_len = (block + lanes - 1) // lanes
        if lanes * seg_len > remaining:
            seg_len = remaining // lanes
        # the next block's start is taken before the numpy scan overwrites the lane starts
        starts, start = _lane_starts(one_step, start, lanes, seg_len)
        hits += _scan_lanes(*starts, params, seg_len, base, last_in)
        base += lanes * seg_len
        # freed now, not when the next block's are built beside them, which
        # added about 2 MB to the peak RSS of a seed that needs two blocks
        del starts
    offset, s0, s1 = np.concatenate(hits, axis=1)
    del hits  # so each hit row is held once, in the concatenation
    first = np.argsort(offset)[:target]
    offset, s0, s1 = offset[first], s0[first], s1[first]
    if len(offset) < target:
        scanned, truncated = cap, True
    else:
        scanned, truncated = int(offset[-1]) + 1, False
    o0 = s0 + s1
    s0, s1 = step_words(s0, s1, params)
    o1 = s0 + s1
    s0, s1 = step_words(s0, s1, params)
    points = np.stack([(o0 >> 11) << spec.e, o1 >> 11, (s0 + s1) >> 11], axis=1)
    return points, scanned, truncated


@dataclass
class HitStats:
    """Plane-proximity counts for one point set."""

    n_points: int
    n_hits: int
    hit_fraction: float | None
    per_plane_hits: dict


def hit_stats(points, fam: PlaneFamily, epsilon: float, spec: SlabSpec) -> HitStats:
    """Fraction of points within epsilon of some family plane, attributed by arg-min.

    points is a slab sample's (n, 3) uint64 array of words (X << e, Y, Z);
    distances are computed exactly on the unmagnified words (X, Y, Z).
    Per-plane counts use the arg-min plane only, so they sum to the total
    hit count.
    """
    if len(points) == 0:
        raise ValueError("empty point list")
    thr = epsilon_threshold(epsilon)
    d, which = nearest_plane(points >> np.array([spec.e, 0, 0], dtype=np.uint64), fam)
    hit = d <= thr
    per = np.bincount(which[hit], minlength=len(fam.planes))
    hits = int(hit.sum())
    per_plane = {p.name: int(c) for p, c in zip(fam.planes, per)}
    return HitStats(len(points), hits, hits / len(points), per_plane)


def _check_control(n_points: int, control_seed: int) -> None:
    if not 1 <= n_points <= MAX_CONTROL_POINTS:
        raise ValueError(f"n_points must be in 1..{MAX_CONTROL_POINTS}, got {n_points}")
    # ctypes would wrap a key out of range silently, where Philox rejects it
    if not 0 <= control_seed < 1 << 128:
        raise ValueError(f"control_seed must be in 0..2**128-1, got {control_seed}")


@functools.cache
def _control_kernel():
    """The compiled Philox control count, loaded once per process, or None where it cannot be built."""
    ptr, i64, u64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
    return _compiled(_CONTROL_SOURCE, (), "xs_control_hits", i64, [u64, u64, i64, ptr, ptr, u64])


def control_baseline(n_points: int, fam: PlaneFamily, epsilon: float, control_seed: int) -> float:
    """Hit fraction of uniform cube points from a counter-based generator.

    numpy's Philox(key=control_seed) stream (counter-based, unrelated to
    the xorshift family) drives the points: each coordinate is the top 53
    bits of one raw word, the same value Generator.random would give.  The
    compiled kernel draws the stream and counts the hits in one call;
    without it, numpy's Philox draws it in chunks.  On the full cube the
    eight plane neighborhoods are nearly disjoint so the expected value is
    a bit under 16*epsilon.  For a = 52 - k the two coefficient families coincide on
    the grid points with X = 0 mod 2**k, which lowers it to about
    (16 - 8/2**k)*epsilon: 14*epsilon at a = 50, 12*epsilon at a = 51.
    For a >= 52 they coincide on the whole 53-bit grid, which halves it
    to 8*epsilon.  planes.union_rate gives the union bound.
    """
    _check_control(n_points, control_seed)
    thr = epsilon_threshold(epsilon)
    kernel = _control_kernel()
    if kernel is not None:
        c = (ctypes.c_uint64 * 8)(*(p.sign_x * p.m & MASK64 for p in fam.planes))
        sy = (ctypes.c_uint64 * 8)(*(p.sign_y & MASK64 for p in fam.planes))
        return kernel(control_seed & MASK64, control_seed >> 64, n_points, c, sy, thr) / n_points
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


def _check_census(n_steps: int, n_bits: int) -> None:
    if not 1 <= n_steps <= MAX_CENSUS_STEPS:
        raise ValueError(f"n_steps must be in 1..{MAX_CENSUS_STEPS}, got {n_steps}")
    if not 1 <= n_bits <= 16:
        raise ValueError(f"n_bits must be in 1..16, got {n_bits}")


def case_census(state: GenState, n_steps: int, n_bits: int) -> CaseCensus:
    """Tally the 3x3 compound-case grid over n_steps consecutive steps.

    Step i sees the state words s0..s3 = w[i..i+3].  Its inner cases are
    the column conditions on the top n_bits of (s, s << a), held by both
    s0 and s1; its outer cases those of (s_next, s ^ (s << a)), held by
    both (s1, s0) and (s2, s1).  A step may satisfy several cells; every
    satisfied cell is tallied and compound_frequency counts steps
    satisfying at least one.  The carry leak frequency is the share of
    satisfied cells whose predicted plane value cx*x + cy*y misses the top
    n_bits of the actual output z.

    A chunk's k steps read the k + 3 words w[i..i+k+2].  They are the s0
    words of 64 lanes that start _CENSUS_CHUNK // 64 steps apart and
    advance together; one jump moves every lane to the next chunk, which
    starts _CENSUS_CHUNK - 3 steps later and so rereads the last 3 words.
    """
    _check_census(n_steps, n_bits)
    params = state.params
    drop = np.uint64(64 - n_bits)
    pairs = [(o, i) for o in COMBINE_ORDER for i in COMBINE_ORDER]
    coeffs = [[np.uint64(c & MASK64) for c in plane_coefficients(o, i, params.a)] for o, i in pairs]
    counts = np.zeros(len(pairs), dtype=np.int64)
    compound = leaks = 0
    lanes, seg_len, chunk = 64, _CENSUS_CHUNK // 64, _CENSUS_CHUNK - 3
    one_step = transition_rows(params)
    starts = _lane_starts(one_step, np.array([[state.s0], [state.s1]], dtype=np.uint64), lanes, seg_len)[0]
    jump = mat_pow(one_step, chunk)
    words = np.empty((lanes, seg_len), dtype=np.uint64)
    for start in range(0, n_steps, chunk):
        k = min(chunk, n_steps - start)
        s0, s1 = starts
        for t in range(seg_len):
            words[:, t] = s0
            s0, s1 = step_words(s0, s1, params)
        starts = act(jump, starts)
        w = words.reshape(-1)[: k + 3]
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full experiment run depends on; all fields deterministic.

    Every setting but output_dir is checked on construction, so a config
    that exists is a run that can start: no bad setting waits for the scan
    or leaves partial output.
    """

    params: Params = DEFAULT_PARAMS
    seed: int = 1
    epsilon: float = 2.0**-10
    magnify_exp: int | None = None
    target_points: int = 1000
    scan_cap: int | None = None
    control_points: int = 1 << 17
    control_seed: int = 271828
    census_steps: int = 50000
    n_bits: int = 3
    grid: int = 64
    output_dir: str | None = None

    def __post_init__(self):
        # each check raises ValueError on a bad setting
        epsilon_threshold(self.epsilon)
        family(self.params.a)
        _check_control(self.control_points, self.control_seed)
        _check_census(self.census_steps, self.n_bits)
        check_grid(self.grid)
        seed_state(self.seed, self.params)
        resolve_scan_cap(self.spec, self.scan_cap)

    @property
    def spec(self) -> SlabSpec:
        return slab_spec(self.params.a, self.magnify_exp, self.target_points)


@dataclass
class HitReport:
    """Full experiment result; to_dict() gives its JSON form, in field order."""

    params: Params
    seed: int
    epsilon: float
    magnify: float
    target_points: int
    n_triples_scanned: int
    n_in_slab: int
    truncated: bool
    hit_fraction: float | None
    per_plane_hits: dict
    control_points: int
    control_hit_fraction: float
    concentration_ratio: float | None
    case_frequencies: dict
    carry_leak_frequency: float
    files: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(asdict(self), seed=f"0x{self.seed:016x}")


_TMP_IDS = itertools.count()
# The compiled CSV formatter (_text.c) writes at most _ROW_BYTES bytes a
# row and one a blank line.  A file is formatted a call at a time into one
# buffer of _ROW_BYTES * _TEXT_ROWS bytes, a call's rows and blank lines
# filling at most that, so the buffer, and the float64 rows of a call,
# stay small however many points or strips are written.
_TEXT_SOURCE = Path(__file__).with_name("_text.c")
_ROW_BYTES = 75
_TEXT_ROWS = 1 << 11


@functools.cache
def _text_kernel():
    """The compiled %.17g row formatter, loaded once per process, or None where it cannot be built."""
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    return _compiled(_TEXT_SOURCE, (), "xs_format_rows", i64, [ptr, i64, ptr, i64, ptr])


def _format_rows(fmt, values, buf: np.ndarray, breaks=()) -> memoryview:
    """The rows of an (n, 3) float64 array as %.17g CSV text in buf, written by fmt: a view of buf.

    A blank line goes before row i for each i in breaks, ascending, and
    after the last row for each i equal to n.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    breaks = np.ascontiguousarray(breaks, dtype=np.int64)
    if (values.ndim != 2 or values.shape[1] != 3 or breaks.ndim != 1 or buf.dtype != np.uint8
            or buf.size < _ROW_BYTES * len(values) + len(breaks)):
        raise ValueError(f"need (n, 3) rows and a uint8 buffer of {_ROW_BYTES} bytes a row and one a break")
    n = fmt(values.ctypes.data, len(values), breaks.ctypes.data, len(breaks), buf.ctypes.data)
    if n < 0:
        raise OSError("no C numeric locale for the CSV text")
    return memoryview(buf)[:n]


def _python_rows(values: np.ndarray, breaks) -> str:
    """The text _format_rows writes for an (n, 3) float64 array and breaks, in Python's '%.17g'.

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


def _atomic_write(path: Path, chunks) -> None:
    """Write the strings or bytes of an iterable to path through a temp file renamed into place.

    Each chunk is written before the next is asked for, so a chunk may be a
    view of a buffer that the iterable then reuses.  The temp file is named
    by the process id and a per-process counter, so two writers of one
    path, in one process or in two, never share it, and the last to finish
    leaves its whole file.  The temp file is removed if writing or renaming
    fails, so an existing file at path is either replaced whole or left as
    it was.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_rows(path: Path, head: str, blocks) -> None:
    """Write head, then for each (blank, rows) of blocks that many blank lines and the (n, 3) rows as %.17g CSV.

    Consecutive blocks go to the formatter together, their blank lines as
    breaks, as many rows as fit in one buffer a call, a longer block going
    on in the next call; each call's text is one write.  Blocks are taken
    one at a time as the file is written.
    """
    fmt = _text_kernel()
    size = _ROW_BYTES * _TEXT_ROWS
    text = _python_rows if fmt is None else functools.partial(_format_rows, fmt, buf=np.empty(size, dtype=np.uint8))

    def calls():
        yield head
        pending, n, breaks = [], 0, []
        for blank, rows in blocks:
            if _ROW_BYTES * n + len(breaks) + blank > size:
                yield text(np.concatenate(pending), breaks=breaks)
                pending, n, breaks = [], 0, []
            breaks += [n] * blank
            while True:
                take = (size - len(breaks)) // _ROW_BYTES - n
                pending.append(rows[:take])
                n += len(pending[-1])
                rows = rows[take:]
                if not len(rows):
                    break
                yield text(np.concatenate(pending), breaks=breaks)
                pending, n, breaks = [], 0, []
        if n or breaks:
            yield text(np.concatenate(pending), breaks=breaks)

    _atomic_write(path, calls())


def write_points_csv(path, points, magnify: float, params: Params, seed: int) -> None:
    """Slab words as `x_mag,y,z` unit-interval rows under a reproducibility header line.

    The words become floats _TEXT_ROWS rows at a time, one block each.
    """
    header = f"# magnify={int(magnify)} params={params.a},{params.b},{params.c} seed=0x{seed:016x}\n"
    blocks = ((0, points[i : i + _TEXT_ROWS] * 2.0**-53) for i in range(0, len(points), _TEXT_ROWS))
    _write_rows(Path(path), header, blocks)


def write_mesh_csv(path, strips) -> None:
    """Mesh strips as `x_mag,y,z` rows, blank line between strips.

    An empty strip writes one blank line of its own, and no strip at all
    writes as one empty strip, so the text is the strips' rows,
    "\n\n"-joined strip by strip, and a final newline.
    """
    blocks = ((bool(i) + (len(s.vertices) == 0), s.vertices) for i, s in enumerate(strips))
    first = next(blocks, (1, np.empty((0, 3))))
    _write_rows(Path(path), "", itertools.chain([first], blocks))


def run_experiment(cfg: ExperimentConfig) -> HitReport:
    """Run the full pipeline and, if an output directory is set, write data files.

    Emits one point-cloud CSV, one mesh CSV per plane, an overlay manifest
    and the report JSON.  Every output is a pure function of the config.
    """
    spec = cfg.spec
    fam = family(cfg.params.a)
    state = seed_state(cfg.seed, cfg.params)
    sample = slab_sample(state, spec, scan_cap=cfg.scan_cap)
    if sample.n_in_slab:
        stats = hit_stats(sample.points, fam, cfg.epsilon, spec)
    else:  # a hit fraction over no points is undefined
        stats = HitStats(0, 0, None, {p.name: 0 for p in fam.planes})
    control = control_baseline(cfg.control_points, fam, cfg.epsilon, cfg.control_seed)
    census = case_census(seed_state(cfg.seed, cfg.params), cfg.census_steps, cfg.n_bits)
    if stats.hit_fraction is not None and control > 0.0:
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
        write_points_csv(out / "points.csv", sample.points, spec.magnify, cfg.params, cfg.seed)
        mesh_files = [f"mesh_{plane.name}.csv" for plane in fam.planes]
        for plane, name in zip(fam.planes, mesh_files):
            write_mesh_csv(out / name, mesh(plane, spec.x_max, spec.magnify, cfg.grid))
        report.files = {
            "points": "points.csv",
            "meshes": mesh_files,
            "overlay": "overlay.json",
            "report": "report.json",
        }
        overlay = {
            "points": "points.csv",
            "meshes": mesh_files,
            "magnify": spec.magnify,
            "epsilon": cfg.epsilon,
        }
        _atomic_write(out / "overlay.json", [json.dumps(overlay, indent=2), "\n"])
        _atomic_write(out / "report.json", [json.dumps(report.to_dict(), indent=2), "\n"])
    return report
