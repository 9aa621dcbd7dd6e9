"""Slab sampling, plane-hit statistics, control baseline, and case census.

The pipeline scans consecutive overlapping output triples (x, y, z), keeps
the 53-bit words of those whose x falls in the slab x < 2**-e, magnifies
x for plotting by an exact shift, and measures how the kept points
concentrate near the eight predicted planes.
A counter-based control generator (the Philox stream numpy's Philox draws)
supplies the null statistic on the full unit cube, where the eight plane
neighborhoods are essentially disjoint and the uniform hit rate is close to
16*epsilon.

Scanning a slab at x_max = 2**-23 needs billions of triples per thousand
kept points, so the scan starts many lane segments at exact stream
offsets, jumping ahead by a power of the packed-pair transition map, and
advances the lanes in kernel calls that one thread per usable CPU takes in
turn.  Each stage has one implementation, in one of two small C libraries
compiled with gcc on first use into $XDG_CACHE_HOME/xsplanes and loaded
with ctypes.  The scan library (_lanes.c), built once per shift triple
with the shifts as constants, advances the lanes.  The stage library
(_stages.c), built once per machine, starts the lanes, sorts the hits and
steps out their points, and walks the case census from the seed state,
taking the shifts as arguments; it scores the slab points and the
control's Philox stream against the planes without allocating, builds the
plane meshes (planes.mesh) and formats the CSV text.  The buffers between
the stages are bytearrays and ctypes arrays, so a run imports no numpy.
The tests hold a plain sequential scan, one Python-int step at a time,
and numpy versions of each stage as references.  Where gcc or the cache
directory is missing, or a library cannot be built or loaded, the stage
that needs it raises KernelError, and the planes and census commands exit
2 before any output.

The CSV files hold each coordinate as Python's '%.17g' text.  One writer
cuts the rows of points.csv and of each packed mesh into calls of the
formatter, which formats them with exact integer arithmetic, byte for
byte as Python does.  As many threads as the scan has format the calls
in turn, each into a buffer of its own, and the calling thread writes
their text in call order, so the files do not depend on the number of
threads.

With an output directory, run_experiment makes the directory before the
scan, so an unusable one stops the run at once, and writes points.csv,
the eight mesh files, overlay.json and report.json, in that order, once
the sample is scored and the control and the census have run; a failed
write stops the run, so a run that fails leaves no report, and a run that
fails removes the directories it made where they are still empty.  Every
file goes through a temp file of its own, <name>.<pid>.<n>.tmp, renamed
into place.
"""

from dataclasses import asdict, dataclass, field
from pathlib import Path
import contextlib
import ctypes
import functools
import itertools
import json
import os
import threading
import zlib

from .engine import DEFAULT_PARAMS, MASK64, GenState, Params, seed_state
from .planes import Mesh, PlaneFamily, check_grid, epsilon_threshold, family, mesh
from .xorapprox import COMBINE_ORDER, compound_probability, plane_coefficients

DEFAULT_SCAN_CAP = 1 << 32
# Without an explicit scan cap, an expected scan longer than this many
# triples is refused before it starts: it takes about 35 s on two cores.
MAX_DEFAULT_WORK = 1 << 38
# A scan block at x < 2**-e has a lane for each 2**min(max(e, 6), 15) triples
# (about one expected hit a lane for 6 <= e <= 15) and at most 2**15 lanes per
# usable CPU, 16 bytes of lane starts a lane: xs_lane_starts builds 65,536 (1 MB)
# in 1.2-2.5 ms (2-core AVX-512 Xeon).  Blocks are capped so that a segment is
# at most call // _GROUP steps, and a kernel call of one group stays within call.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_LANES_PER_WORKER = 1 << 15
# The compiled lane scan.  One call covers at most about 2**28 triples
# (about 0.1 s), so the calling thread serves an interrupt between calls,
# and about 2**11 expected hits.  The hit buffer holds 1.5 times that (22
# sigma above the mean), which keeps it under glibc's 128 KB mmap
# threshold: a buffer for a worker's whole range raised wide-slab's peak
# RSS by 1 MB.  A hit is a row of three words, its offset and state.  A
# call's lanes are a multiple of the kernel's group of 32 interleaved lanes.  Each shift triple has its own scan library, compiled
# with the counts as constants on the triple's first scan; run-time shifts
# made the scan about 30% slower.  On x86-64 a scan library holds AVX-512,
# AVX2 and plain builds and picks one by the CPU's features at each call,
# so a cached library runs on any x86-64 CPU; other targets build the
# plain scan alone.  The other stages take the shifts as arguments and
# share one library for every triple; so the lane starts run as fast as
# with constant shifts, and the census about 4% slower.  No multiply-add is
# fused, so a mesh vertex is rounded as Python rounds it on every target.
_LANES_SOURCE = Path(__file__).with_name("_lanes.c")
_STAGES_SOURCE = Path(__file__).with_name("_stages.c")
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
_CALL_TRIPLES = 1 << 28
_CALL_HITS = 1 << 11
_GROUP = 32
# xs_scan_lanes(hi, lo, lanes, seg_len, base, last_in, hits, cap) -> number of hits
_LANES_ARGTYPES = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_uint64,
                   ctypes.c_uint64, ctypes.c_void_p, ctypes.c_int64)
# The compiled control count and census allocate nothing.  A call runs at
# most _CALL_POINTS points (a multiple of Philox's 4 points in 3 blocks) or
# _CALL_STEPS steps, about 0.1 s, and carries its counter or state on, so
# the calling thread serves an interrupt between calls.
_CALL_POINTS = _CALL_STEPS = 1 << 22
# The hit rows and points grow with the target, not with the triples scanned:
# a planes run of 2**22 points at x < 2**-1 peaks at 208-210 MB RSS (2-core
# AVX-512 Xeon).
MAX_TARGET_POINTS = 1 << 22
# The control and census counts are bounded by time, as the scan is (so the
# control's count also fits the kernel's int64).  On a 2-core AVX-512 Xeon
# 2**32 control points take about 2 minutes and 2**32 census steps about 1.5
# minutes.
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
    """Accepted points, an (n, 3) memoryview of uint64 words (X << e, Y, Z), plus scan accounting."""

    points: memoryview
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
    method must be "fast".  The scan runs in blocks, each sized to the
    expected remaining work, so it stops at most one small follow-up block
    past the target.  A block that finds no hit doubles the next, so a
    stream that seldom or never enters the slab reaches the cap in a few
    dozen blocks.
    """
    cap = resolve_scan_cap(spec, scan_cap)
    if method != "fast":  # only perfbench/layers.py passes it; goes with that file's pipeline copy (ROADMAP item 2)
        raise ValueError(f"method must be 'fast', got {method!r}")
    params, target = state.params, spec.target_points
    last_in = (1 << (64 - spec.e)) - 1  # x < 2**-e  iff  output o <= last_in
    start = (ctypes.c_uint64 * 2)(state.s0, state.s1)
    hits = bytearray()  # the (offset, s0, s1) rows, in the order the calls end
    base, n_hits, grow = 0, 0, 1  # grow doubles the block after a block that finds no hit
    call = min(_CALL_TRIPLES, _CALL_HITS << spec.e)  # a kernel call's triples
    while base < cap and n_hits < target:
        remaining = cap - base
        block = min(remaining, (((target - n_hits) << spec.e) + 4096) * grow,
                    _WORKERS * _LANES_PER_WORKER * max(1, call // _GROUP))
        lanes = max(1, min(_WORKERS * _LANES_PER_WORKER, block >> min(max(spec.e, 6), 15)))
        seg_len = min((block + lanes - 1) // lanes, remaining // lanes)
        # the next block's start comes with the lane starts
        starts, start = _lane_starts(params, start, lanes, seg_len)
        _scan_block(params, starts, seg_len, base, last_in, call, hits)
        base += lanes * seg_len
        # freed now, not when the next block's are built beside them, which
        # added about 2 MB to the peak RSS of a seed that needs two blocks
        del starts
        n_found = len(hits) // 24 - n_hits
        n_hits, grow = n_hits + n_found, 1 if n_found else 2 * grow
    # sorted by offset and cut to the target, so the points do not depend on
    # the blocks or the calls; the points take the place of their hit rows
    keep = min(n_hits, target)
    tmp = bytearray(len(hits))
    last = _stages().xs_finish_hits(params.a, params.b, params.c, spec.e, _address(hits), _address(tmp), n_hits, keep)
    del tmp, hits[24 * keep :]
    if keep < target:
        scanned, truncated = cap, True
    else:
        scanned, truncated = last + 1, False
    # cast cannot give a view no rows; the first 0 rows of one row can
    points = memoryview(hits or bytearray(24)).cast("Q", (max(keep, 1), 3))[:keep]
    return SlabSample(points, scanned, truncated)


def _address(buf) -> int:
    """The address of a writable C-contiguous buffer's first byte: a bytearray, a memoryview of one, or an array."""
    return ctypes.addressof((ctypes.c_char * 0).from_buffer(buf))


def _lane_starts(params, start, lanes, seg_len):
    """The (2, lanes) states at stream offsets 0, seg_len, 2*seg_len, ... from start, a buffer of the words s0, s1.

    The starts are a memoryview of uint64 words, the s0 words in row 0 and
    the s1 words in row 1.  Returns the state at offset lanes*seg_len as
    well, as a ctypes array of two words, for chaining blocks.  The compiled
    xs_lane_starts chains the starts, each the jump of the one before.
    65,536 starts take 1.2-2.5 ms (2-core AVX-512 Xeon).
    """
    s = (ctypes.c_uint64 * 2).from_buffer_copy(start)
    starts = bytearray(16 * lanes)
    hi = _address(starts)
    _stages().xs_lane_starts(params.a, params.b, params.c, s, lanes, seg_len, hi, hi + 8 * lanes)
    return memoryview(starts).cast("Q", (2, lanes)), s


class KernelError(RuntimeError):
    """A C kernel library that cannot be built or loaded; the message names gcc and the cache directory."""


def _need_gcc(where: str, cause) -> KernelError:
    return KernelError(f"planes and census need gcc: cannot build {where}: {' '.join(str(cause).split())}")


def _load_kernel(cache_dir: Path, source: Path, defines: tuple[str, ...] = ()):
    """The ctypes library built from source with the -D flags defines into cache_dir on a miss.

    The library is named by the source's stem and a crc32 of the source,
    the compiler flags, defines included, and the machine type.  It is
    compiled under a name of its own and then renamed into place, so
    concurrent first runs each load a whole file.  A failed build removes
    the directories it made, where they are still empty (made_dirs).  Raises
    KernelError where gcc is missing or fails, or the library cannot be
    written or loaded.
    """
    flags = (*_CFLAGS, *defines)
    where = f"{source.name} into {cache_dir}"
    try:
        key = zlib.crc32(b"\0".join([source.read_bytes(), " ".join(flags).encode(), os.uname().machine.encode()]))
        path = cache_dir / f"{source.stem.lstrip('_')}-{key:08x}.so"
        if not path.exists():
            import subprocess  # only on a miss: it adds about 0.4 MB of peak RSS

            tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
            with made_dirs(cache_dir):
                try:
                    cmd = ["gcc", *flags, "-o", str(tmp), str(source)]
                    if (code := subprocess.run(cmd, capture_output=True).returncode) != 0:
                        raise _need_gcc(where, f"gcc exited with status {code}")
                    os.replace(tmp, path)
                finally:
                    tmp.unlink(missing_ok=True)
        return ctypes.CDLL(str(path))
    except OSError as exc:  # no compiler, cache or loadable library
        raise _need_gcc(where, exc) from exc


@contextlib.contextmanager
def made_dirs(directory):
    """Make the directory path and its missing parents for the block; if the block raises, remove those still empty.

    Raises OSError, before the block, where the directory cannot be made.
    """
    directory = Path(directory)
    made = [d for d in (directory, *directory.parents) if not d.exists()]  # innermost first
    directory.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        for d in made:
            with contextlib.suppress(OSError):  # not empty
                d.rmdir()
        raise


def _compiled(source: Path, defines: tuple[str, ...], signatures: dict):
    """source's library from $XDG_CACHE_HOME/xsplanes, its functions typed for ctypes.

    signatures maps each function's name to its (restype, argtypes).  As
    the XDG spec asks, a relative XDG_CACHE_HOME is ignored for ~/.cache.
    Raises KernelError where the library cannot be built or loaded, or
    there is no home directory for the cache.
    """
    cache_home = Path(os.environ.get("XDG_CACHE_HOME", ""))
    if not cache_home.is_absolute():
        try:
            cache_home = Path.home() / ".cache"
        except RuntimeError as exc:  # no HOME and no passwd entry
            raise _need_gcc(f"{source.name}: no cache directory ($XDG_CACHE_HOME/xsplanes or ~/.cache/xsplanes)",
                            exc) from exc
    library = _load_kernel(cache_home / "xsplanes", source, defines)
    for name, (restype, argtypes) in signatures.items():
        function = getattr(library, name)
        function.restype, function.argtypes = restype, argtypes
    return library


def _shift_defines(params: Params) -> tuple[str, ...]:
    return (f"-DSHIFT_A={params.a}", f"-DSHIFT_B={params.b}", f"-DSHIFT_C={params.c}")


@functools.cache
def _scan_kernel(params: Params):
    """xs_scan_lanes compiled for params, its library loaded once per triple."""
    library = _compiled(_LANES_SOURCE, _shift_defines(params), {"xs_scan_lanes": (ctypes.c_int64, _LANES_ARGTYPES)})
    return library.xs_scan_lanes


@functools.cache
def _stages():
    """The stage library, its functions typed, loaded once per process."""
    ptr, i32, i64, u64, f64 = ctypes.c_void_p, ctypes.c_int, ctypes.c_int64, ctypes.c_uint64, ctypes.c_double
    return _compiled(_STAGES_SOURCE, (), {
        "xs_lane_starts": (None, [i32, i32, i32, ptr, i64, i64, ptr, ptr]),
        "xs_finish_hits": (u64, [i32, i32, i32, i32, ptr, ptr, i64, i64]),
        "xs_census": (i64, [i32, i32, i32, ptr, i64, i64, ptr, ptr, ptr, ptr]),
        "xs_hit_counts": (i64, [ptr, i64, i32, ptr, ptr, u64, ptr]),
        "xs_control_hits": (i64, [u64, u64, ptr, i64, ptr, ptr, u64]),
        "xs_mesh_stations": (i64, [i64, i64, i64, f64, f64, f64, f64, ptr, i64, ptr, ptr]),
        "xs_format_rows": (i64, [ptr, i64, i64, i32, ptr, i64, ptr]),
    })


def _scan_block(params, starts, seg_len, base, last_in, call, hits: bytearray) -> None:
    """Advance the lanes of starts seg_len steps with params' kernel; add the hits where a triple enters the slab.

    starts is a (2, lanes) buffer of uint64 words, row 0 the lanes' s0 and
    row 1 their s1.  Lane j covers triple offsets [base + j*seg_len, base +
    (j+1)*seg_len) of the stream.  Each hit goes to hits as a row of three
    words, offset, s0, s1: its stream offset and its state, from which
    xs_finish_hits steps out the triple's other two outputs.  starts is left
    unchanged.  The lanes are cut once into kernel calls of at most call
    triples and ceil(lanes / _WORKERS) lanes, each rounded down to the
    kernel's group but at least one group, so every worker gets work.  Of k
    workers, thread w makes calls w, w + k, w + 2k, ...; the calling thread
    is w = 0, so one worker starts no thread, and a worker's exception is
    re-raised here.  A call that finds more hits than its thread's buffer
    holds reports how many, and is rerun with a buffer of that size, so no
    hit is dropped.
    """
    kernel = _scan_kernel(params)
    lanes = starts.shape[1]
    step = max(_GROUP, min(call // seg_len, -(-lanes // _WORKERS)) // _GROUP * _GROUP)
    k = min(_WORKERS, -(-lanes // step))
    failed = [None] * k  # the exception each thread raised

    def scan(w):
        # each thread holds starts: a worker runs on where an interrupt ends the caller's scan
        hi, buf = _address(starts), bytearray(24 * (_CALL_HITS * 3 // 2))
        lo = hi + 8 * lanes
        for i in range(w * step, lanes, k * step):
            m = min(step, lanes - i)
            while (n := kernel(hi + 8 * i, lo + 8 * i, m, seg_len, base + i * seg_len, last_in, _address(buf),
                               len(buf) // 24)) > len(buf) // 24:
                buf = bytearray(24 * n)
            hits.extend(memoryview(buf)[: 24 * n])

    def work(w):
        try:
            scan(w)
        except BaseException as exc:  # handed to the calling thread
            failed[w] = exc

    # daemon: an interrupt of the calling thread need not wait for the block
    threads = [threading.Thread(target=work, args=(w,), daemon=True) for w in range(1, k)]
    for th in threads:
        th.start()
    scan(0)
    for th in threads:
        th.join()
    for exc in failed:
        if exc is not None:
            raise exc


@dataclass
class HitStats:
    """Plane-proximity counts for one point set."""

    n_points: int
    n_hits: int
    hit_fraction: float | None
    per_plane_hits: dict


def _plane_words(fam: PlaneFamily):
    """The planes' sign_x * m and sign_y, mod 2**64, as two ctypes arrays: the scoring kernels' plane arguments."""
    c = (ctypes.c_uint64 * 8)(*(p.sign_x * p.m & MASK64 for p in fam.planes))
    sy = (ctypes.c_uint64 * 8)(*(p.sign_y & MASK64 for p in fam.planes))
    return c, sy


def hit_stats(points, fam: PlaneFamily, epsilon: float, spec: SlabSpec) -> HitStats:
    """Fraction of points within epsilon of some family plane, attributed by arg-min.

    points is a slab sample's (n, 3) buffer of uint64 words (X << e, Y, Z),
    writable and C-contiguous; distances are computed exactly on the
    unmagnified words (X, Y, Z) by the compiled scorer, xs_hit_counts.  Each
    point counts for its nearest plane only, the earliest on a tie, so the
    per-plane counts sum to the total hit count.
    """
    if len(points) == 0:
        raise ValueError("empty point list")
    if memoryview(points).nbytes != 24 * len(points):
        raise ValueError("points must be rows of three 64-bit words")
    thr = epsilon_threshold(epsilon)
    counts = (ctypes.c_int64 * 8)()
    hits = _stages().xs_hit_counts(_address(points), len(points), spec.e, *_plane_words(fam), thr, counts)
    per_plane = {p.name: c for p, c in zip(fam.planes, counts)}
    return HitStats(len(points), hits, hits / len(points), per_plane)


def _check_control(n_points: int, control_seed: int) -> None:
    if not 1 <= n_points <= MAX_CONTROL_POINTS:
        raise ValueError(f"n_points must be in 1..{MAX_CONTROL_POINTS}, got {n_points}")
    # ctypes would wrap a key out of range silently, where Philox rejects it
    if not 0 <= control_seed < 1 << 128:
        raise ValueError(f"control_seed must be in 0..2**128-1, got {control_seed}")


def control_baseline(n_points: int, fam: PlaneFamily, epsilon: float, control_seed: int) -> float:
    """Hit fraction of uniform cube points from a counter-based generator.

    numpy's Philox(key=control_seed) stream (counter-based, unrelated to
    the xorshift family) drives the points: each coordinate is the top 53
    bits of one raw word, the same value Generator.random would give.  The
    compiled kernel draws the stream and scores it with hit_stats' scorer,
    _CALL_POINTS points a call.  On the full cube the eight plane
    neighborhoods are nearly disjoint so the expected value is a bit under
    16*epsilon.  For
    a = 52 - k the two coefficient families coincide on the grid points
    with X = 0 mod 2**k, lowering it to about (16 - 8/2**k)*epsilon:
    14*epsilon at a = 50, 12*epsilon at a = 51.  For a >= 52 they coincide
    on the whole 53-bit grid, halving it to 8*epsilon.  planes.union_rate
    gives the union bound.
    """
    _check_control(n_points, control_seed)
    thr = epsilon_threshold(epsilon)
    kernel = _stages().xs_control_hits
    c, sy = _plane_words(fam)
    ctr, k0, k1 = (ctypes.c_uint64 * 4)(), control_seed & MASK64, control_seed >> 64
    return sum(kernel(k0, k1, ctr, min(_CALL_POINTS, n_points - i), c, sy, thr)
               for i in range(0, n_points, _CALL_POINTS)) / n_points


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

    The compiled census (xs_census in _stages.c) walks the stream from the
    state, _CALL_STEPS steps a call.
    """
    _check_census(n_steps, n_bits)
    params = state.params
    kernel = functools.partial(_stages().xs_census, params.a, params.b, params.c)
    pairs = [(o, i) for o in COMBINE_ORDER for i in COMBINE_ORDER]
    coeffs = [[c & MASK64 for c in plane_coefficients(o, i, params.a)] for o, i in pairs]
    cx, cy = ((ctypes.c_uint64 * 9)(*column) for column in zip(*coeffs))
    s, cells, leaked = (ctypes.c_uint64 * 2)(state.s0, state.s1), (ctypes.c_int64 * 9)(), ctypes.c_int64()
    compound = sum(kernel(s, min(_CALL_STEPS, n_steps - i), n_bits, cx, cy, cells, ctypes.byref(leaked))
                   for i in range(0, n_steps, _CALL_STEPS))
    counts, leaks = list(cells), leaked.value
    checks = sum(counts)
    grid = {f"{o.value}|{i.value}": c / n_steps for (o, i), c in zip(pairs, counts)}
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
# The compiled CSV formatter (xs_format_rows) writes at most _ROW_BYTES
# bytes a row and one a blank line.  A file is formatted a call at a time,
# each call at most _TEXT_ROWS rows and _TEXT_ROWS blank lines, into one
# buffer of _CALL_BYTES a thread, so the buffers stay small however many
# points or strips are written.
_ROW_BYTES = 75
_TEXT_ROWS = 1 << 11
_CALL_BYTES = (_ROW_BYTES + 1) * _TEXT_ROWS


def _flat(rows) -> memoryview:
    """The bytes of a C-contiguous buffer, which cast cannot give for an empty one of (0, 3) rows."""
    view = memoryview(rows)
    return view.cast("B") if view.nbytes else memoryview(bytearray())


def _format_rows(fmt, values, buf, breaks=(), words=False, first=0, end=None) -> memoryview:
    """Rows first..end-1 of values, all of them by default, as %.17g CSV text in buf, written by fmt: a view of buf.

    values is a writable C-contiguous buffer of (n, 3) float64 values, or
    with words set of uint64 words, each the value w * 2**-53; buf is a
    writable buffer.  breaks is a sequence of row indices of values, or a
    writable buffer of them as int64, ascending from first to end: a blank
    line goes before row i for each i in breaks, and after the last row for
    each i equal to end.
    """
    values, out = _flat(values), _flat(buf)
    n = len(values) // 24
    end = n if end is None else end
    if len(values) != 24 * n or not 0 <= first <= end <= n or len(out) < _ROW_BYTES * (end - first) + len(breaks):
        raise ValueError(f"need (n, 3) rows and a buffer of {_ROW_BYTES} bytes a row and one a break")
    if not isinstance(breaks, memoryview):
        breaks = (ctypes.c_int64 * len(breaks))(*breaks)
    size = fmt(_address(values), first, end, words, _address(breaks), len(breaks), _address(out))
    if size < 0:
        raise OSError("no C numeric locale for the CSV text")
    return out[:size]


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


def _write_rows(path: Path, head: str, calls, words: bool = False) -> None:
    """Write head, then the %.17g CSV text of each call of calls, in order.

    A call is (values, first, end, breaks), as _format_rows takes them, of
    at most _TEXT_ROWS rows and _TEXT_ROWS breaks.  The calling thread
    takes the calls as the file is written, k = _WORKERS at a time: thread
    w formats calls w, w + k, w + 2k, ... into a buffer of its own, the
    calling thread being w = 0, and the calling thread writes each call's
    text in call order through _atomic_write.  A file of one call starts no
    thread.  A helper's exception is raised on the calling thread when its
    call is due.  When the calling thread stops, the helpers stop after
    their current call, and they are joined before this returns or raises.
    """
    # Each helper has a slot, [call, its text or exception], and two locks
    # used as signals: the calling thread releases todo when it has put a
    # call in the slot, and the helper releases done when the call's result
    # is there.  A call is handed over only once the result before it is
    # taken and written, so the helper's buffer is free again.
    fmt, calls, helpers = _stages().xs_format_rows, iter(calls), []  # (slot, todo, done, thread) of each helper

    def text(buf, call):
        values, first, end, breaks = call
        return _format_rows(fmt, values, buf, breaks, words, first, end)

    def serve(slot, todo, done):
        buf = bytearray(_CALL_BYTES)
        while todo.acquire() and (call := slot[0]) is not None:
            try:
                slot[1] = text(buf, call)
            except BaseException as exc:  # handed to the calling thread
                slot[1] = exc
            done.release()

    def chunks():
        yield head
        buf = bytearray(_CALL_BYTES)
        while batch := list(itertools.islice(calls, _WORKERS)):
            while len(helpers) < len(batch) - 1:
                slot, todo, done = [None, None], threading.Lock(), threading.Lock()
                todo.acquire()
                done.acquire()
                # daemon: an interrupt of the calling thread need not wait for a call
                thread = threading.Thread(target=serve, args=(slot, todo, done), daemon=True)
                thread.start()
                helpers.append((slot, todo, done, thread))
            for (slot, todo, _, _), call in zip(helpers, batch[1:]):
                slot[0] = call
                todo.release()
            yield text(buf, batch[0])
            for slot, _, done, _ in helpers[: len(batch) - 1]:
                done.acquire()
                if isinstance(slot[1], BaseException):
                    raise slot[1]
                yield slot[1]

    try:
        _atomic_write(path, chunks())
    finally:
        for slot, todo, _, _ in helpers:
            # todo unlocked: the helper has yet to take its call, and finds None instead
            slot[0] = None
            if todo.locked():
                todo.release()
        for *_, thread in helpers:
            thread.join()


def _row_calls(values, rows: int, breaks):
    """The calls of rows 0..rows-1 of values, _TEXT_ROWS rows a call, each with the breaks among its rows.

    breaks is an ascending sequence of row indices, with no more than
    _TEXT_ROWS among any call's rows.
    """
    from bisect import bisect_left  # here, not at the top: a run's start-up imports nothing for the writer

    b = 0
    for first in range(0, rows, _TEXT_ROWS):
        end = min(first + _TEXT_ROWS, rows)
        b_end = bisect_left(breaks, end, b)
        yield values, first, end, breaks[b:b_end]
        b = b_end


def _strip_calls(strips):
    """The calls of any iterable of strips, taken one at a time, their rows copied into a fresh buffer a call.

    Strip i's rows go after one blank line if i > 0 and one more if it has
    no vertex, so the text is the strips' rows "\n\n"-joined strip by
    strip; no strip at all writes as one empty strip.
    """
    blocks = ((bool(i) + (len(s.vertices) == 0), s.vertices) for i, s in enumerate(strips))
    staged, n, breaks = bytearray(24 * _TEXT_ROWS), 0, []
    for blank, rows in itertools.chain([next(blocks, (1, b""))], blocks):
        rows = _flat(rows)
        while True:  # until the block is staged, a call whenever the breaks or the rows fill one
            take = min(blank, _TEXT_ROWS - len(breaks))
            breaks += [n] * take  # a list of its own for each call: a new one follows each yield
            blank -= take
            if not blank:
                m = min(len(rows) // 24, _TEXT_ROWS - n)
                staged[24 * n : 24 * (n + m)] = rows[: 24 * m]
                n, rows = n + m, rows[24 * m :]
                if not rows:
                    break
            yield staged, 0, n, breaks
            staged, n, breaks = bytearray(24 * _TEXT_ROWS), 0, []
    if n or breaks:
        yield staged, 0, n, breaks


def write_points_csv(path, points, magnify: float, params: Params, seed: int) -> None:
    """Slab words as `x_mag,y,z` unit-interval rows under a reproducibility header line.

    points is a C-contiguous buffer of (n, 3) uint64 words, each coordinate
    the word times 2**-53.
    """
    header = f"# magnify={int(magnify)} params={params.a},{params.b},{params.c} seed=0x{seed:016x}\n"
    _write_rows(Path(path), header, _row_calls(points, len(memoryview(points)), ()), words=True)


def write_mesh_csv(path, strips) -> None:
    """Mesh strips as `x_mag,y,z` rows, blank line between strips.

    strips is a Mesh, whose packed rows go to the formatter whole, or any
    iterable of strips, taken one at a time as the file is written.  An
    empty strip writes one blank line of its own, and no strip at all
    writes as one empty strip, so the text is the strips' rows,
    "\n\n"-joined strip by strip, and a final newline.
    """
    if not isinstance(strips, Mesh):
        calls = _strip_calls(strips)
    elif len(strips):  # a blank line before each strip but the first; a strip holds at least two rows
        calls = _row_calls(strips.buffer, len(strips.rows), strips.ends[:-1])
    else:
        calls = [(strips.buffer, 0, 0, (0,))]
    _write_rows(Path(path), "", calls)


def load_kernels(params: Params) -> None:
    """Load, building on a miss, the scan library for params and the stage library that run_experiment uses.

    Raises KernelError where one cannot be built or loaded, so a caller can
    check them before it starts a run.
    """
    _scan_kernel(params)
    _stages()


def run_experiment(cfg: ExperimentConfig) -> HitReport:
    """Run the full pipeline and, if an output directory is set, write data files.

    Emits one point-cloud CSV, one mesh CSV per plane, an overlay manifest
    and the report JSON.  Every output is a pure function of the config.
    The output directory is made before the scan (made_dirs), so one that
    cannot be made raises OSError before any work, and a run that fails
    removes the directories it made where they are still empty.
    """
    with contextlib.nullcontext() if cfg.output_dir is None else made_dirs(cfg.output_dir):
        return _run_experiment(cfg)


def _run_experiment(cfg: ExperimentConfig) -> HitReport:
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
