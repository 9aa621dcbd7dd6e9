import ast
import ctypes
import dataclasses
import fnmatch
import json
import math
import os
from pathlib import Path
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from helpers import classify, height, reference_mesh, reference_mesh_csv, reference_scan, text_paths
from xsplanes import experiment
from xsplanes.engine import (
    DEFAULT_PARAMS,
    MASK64,
    GenState,
    Params,
    iter_outputs,
    seed_state,
    step_words,
    to_unit,
    transition_rows,
)
from xsplanes.experiment import (
    _CENSUS_CHUNK,
    DEFAULT_SCAN_CAP,
    ExperimentConfig,
    SlabSample,
    SlabSpec,
    _scan_block,
    case_census,
    control_baseline,
    hit_stats,
    resolve_scan_cap,
    run_experiment,
    slab_sample,
    slab_spec,
    write_mesh_csv,
)
from xsplanes.planes import MeshStrip, Plane, epsilon_threshold, family, mesh, nearest_plane, union_rate
from xsplanes.xorapprox import COMBINE_ORDER, plane_coefficients

P8 = Params(8, 17, 26)


def assert_same_sample(sample, ref):
    """Equal samples, each holding its points as an (n, 3) uint64 array of words."""
    for s in (sample, ref):
        assert s.points.dtype == np.uint64
        assert s.points.shape == (s.n_in_slab, 3)
    assert np.array_equal(sample.points, ref.points)
    assert sample.n_triples_scanned == ref.n_triples_scanned
    assert sample.truncated == ref.truncated


def reference_sample(state, spec, cap):
    """The sequential reference scan's result as a SlabSample."""
    return SlabSample(*reference_scan(state, spec, cap))


def slab_words(points, e):
    """Unit-interval points (x, y, z) as the 53-bit slab words (X << e, Y, Z)."""
    return (np.array(points) * 2.0**53).astype(np.uint64) << np.array([e, 0, 0], dtype=np.uint64)


def test_slab_spec_reciprocal_invariant():
    spec = slab_spec(23, None, 1000)
    assert spec.magnify * spec.x_max == 1.0
    assert spec.x_max == 2.0**-23
    spec22 = slab_spec(23, 22, 1000)
    assert spec22.magnify == float(1 << 22)


def test_slab_spec_validates():
    with pytest.raises(ValueError):
        slab_spec(23, 0, 1000)
    with pytest.raises(ValueError):
        slab_spec(23, 54, 1000)
    with pytest.raises(ValueError):
        slab_spec(54, None, 1000)
    for e, target in ((0, 10), (54, 10), (2, 0), (1, experiment.MAX_TARGET_POINTS + 1)):
        with pytest.raises(ValueError):
            SlabSpec(e, target)
    assert SlabSpec(1, experiment.MAX_TARGET_POINTS).target_points == 1 << 22


def test_resolve_scan_cap():
    spec8 = slab_spec(8, None, 1000)
    assert resolve_scan_cap(spec8, None) == DEFAULT_SCAN_CAP
    spec23 = slab_spec(23, None, 1000)
    assert resolve_scan_cap(spec23, None) == 4 * 1000 * (1 << 23)
    assert resolve_scan_cap(spec8, 12345) == 12345
    with pytest.raises(ValueError):
        resolve_scan_cap(spec8, 0)
    # the full-scale run fits the default budget; a = 30 does not, unless capped
    assert resolve_scan_cap(slab_spec(23, None, 10_000), None) == 4 * 10_000 * (1 << 23)
    spec30 = slab_spec(30, None, 1000)
    with pytest.raises(ValueError, match="--scan-cap"):
        resolve_scan_cap(spec30, None)
    assert resolve_scan_cap(spec30, 1 << 40) == 1 << 40


def lane_kernels(params):
    """The lane scans to test: params' compiled kernel where it can be built, then the numpy fallback."""
    kernel = experiment._kernel(params)
    return ([kernel] if kernel is not None else []) + [None]


def test_accept_threshold_matches_float_compare(monkeypatch):
    # every scan keeps a triple iff (o0 >> 11) < 2**(53 - e), which must agree with
    # the float slab test to_unit(o0) < 2**-e at the boundary; the state (o0, 0)
    # has o0 as its first output, and the low 11 bits are set to catch a
    # threshold taken on the full word
    for e in range(1, 54):
        spec = slab_spec(8, magnify_exp=e, target_points=1)
        thr = 1 << (53 - e)
        for u53 in {0, thr - 1, thr, thr + 1, (1 << 53) - 1}:
            o0 = (u53 << 11) | 0x7FF
            inside = to_unit(o0) < spec.x_max
            for kernel in lane_kernels(P8):
                monkeypatch.setattr(experiment, "_kernel", lambda params: kernel)
                state = GenState(o0, 0, P8)
                for sample in (reference_sample(state, spec, 1), slab_sample(state, spec, scan_cap=1)):
                    assert sample.n_in_slab == inside
                    if inside:
                        assert sample.points[0, 0] == u53 << e < 1 << 53


def test_slab_sample_paths_agree(monkeypatch):
    spec = slab_spec(8, None, 400)
    state = seed_state(3, P8)
    seq = reference_sample(state, spec, 500_000)
    for kernel in lane_kernels(P8):
        monkeypatch.setattr(experiment, "_kernel", lambda params: kernel)
        fast = slab_sample(state, spec, scan_cap=500_000)
        assert_same_sample(fast, seq)
    assert seq.truncated is False
    assert seq.n_in_slab == 400
    # small caps and those either side of 200,000 too; 1000 points need
    # about 256,000 triples, so each of these caps truncates
    spec = slab_spec(8, None, 1000)
    refs = {cap: reference_sample(state, spec, cap) for cap in (10_000, 199_999, 200_000, 200_001)}
    for kernel in lane_kernels(P8):
        monkeypatch.setattr(experiment, "_kernel", lambda params: kernel)
        for cap, seq in refs.items():
            assert seq.truncated and seq.n_triples_scanned == cap
            assert_same_sample(slab_sample(state, spec, scan_cap=cap), seq)


def test_lane_scans_match_reference_at_caps_1_to_65(monkeypatch):
    # A cap of at most 65 triples is scanned as one lane of cap steps.  On the
    # dense slab e = 2 the kernel tests every step; seed 2 reaches its 8
    # points at offset 39, so the caps below 40 truncate.  On the sparse slab
    # e = 13 it runs 64-step chunks and then the segment's partial last
    # chunk step by step.  Seeds 505, 3411 and 5976, found by searching with
    # reference_scan, have their first slab triple at offset 62, 63 and 64, so
    # caps 63-65 put it on either side of the chunk's end.
    cases = [(SlabSpec(2, 8), 2, 39)] + [(SlabSpec(13, 1), seed, t) for seed, t in ((505, 62), (3411, 63), (5976, 64))]
    refs = {}
    for spec, seed, last in cases:
        state = seed_state(seed, P8)
        refs[spec, seed] = [(cap, state, reference_sample(state, spec, cap)) for cap in range(1, 66)]
        assert [ref.truncated for _, _, ref in refs[spec, seed]] == [cap <= last for cap in range(1, 66)]
        assert refs[spec, seed][-1][2].n_triples_scanned == last + 1
    for kernel in lane_kernels(P8):
        monkeypatch.setattr(experiment, "_kernel", lambda params: kernel)
        for (spec, seed), runs in refs.items():
            for cap, state, ref in runs:
                got = slab_sample(state, spec, scan_cap=cap)
                case = (kernel is None, spec.e, seed, cap)
                assert got.points.dtype == np.uint64 and np.array_equal(got.points, ref.points), case
                assert (got.n_triples_scanned, got.truncated) == (ref.n_triples_scanned, ref.truncated), case


def test_lane_starts_are_stepped_states():
    # lane j starts j*seg_len steps into the stream, and the returned start
    # lies lanes*seg_len steps in; seg_len values are not powers of two
    state = seed_state(5, P8)
    one_step = transition_rows(P8)
    start = np.array([[state.s0], [state.s1]], dtype=np.uint64)
    for lanes, seg_len in ((1, 5), (7, 3), (7, 100), (100, 13)):
        states = [(state.s0, state.s1)]
        s0, s1 = states[0]
        for _ in range(lanes * seg_len):
            s0, s1 = step_words(s0, s1, P8)
            states.append((s0, s1))
        starts, nxt = experiment._lane_starts(one_step, start, lanes, seg_len)
        assert starts.shape == (2, lanes) and starts.dtype == np.uint64
        assert list(zip(*starts.tolist())) == states[::seg_len][:lanes]
        assert nxt.shape == (2, 1)
        assert tuple(nxt.ravel().tolist()) == states[-1]


def test_fast_scan_independent_of_workers_and_blocks(monkeypatch):
    # Five lanes per worker give uneven splits (3 workers over 11 lanes).
    # At x < 2**-12 the first block often falls short of the target: seed
    # 16 needs three blocks, and the cap of the second case truncates the
    # run in a last block of fewer lanes than workers.  The compiled kernel
    # pads each five-lane range to its group of 32.
    monkeypatch.setattr(experiment, "_LANES_PER_WORKER", 5)
    blocks = []

    def counted_starts(one_step, start, lanes, seg_len):
        blocks.append(lanes)
        return real_starts(one_step, start, lanes, seg_len)

    real_starts = experiment._lane_starts
    monkeypatch.setattr(experiment, "_lane_starts", counted_starts)
    spec = slab_spec(8, magnify_exp=12, target_points=60)
    state = seed_state(16, P8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # frequent GIL hand-offs between the workers
    try:
        for cap in (1_000_000, 250_575):
            seq = reference_sample(state, spec, cap)
            assert seq.truncated == (cap == 250_575)
            for kernel in lane_kernels(P8):
                monkeypatch.setattr(experiment, "_kernel", lambda params: kernel)
                for workers in (1, 2, 3):
                    monkeypatch.setattr(experiment, "_WORKERS", workers)
                    blocks.clear()
                    fast = slab_sample(state, spec, scan_cap=cap)
                    assert_same_sample(fast, seq)
                    assert len(blocks) >= 2
                    if seq.truncated and workers > 1:
                        assert blocks[-1] < workers
    finally:
        sys.setswitchinterval(interval)


def test_fast_scan_worker_exception_propagates(monkeypatch):
    # a failure in a worker thread's lane range reaches the caller, on either lane scan
    monkeypatch.setattr(experiment, "_WORKERS", 2)
    spec = slab_spec(8, None, 50)
    for kernel in lane_kernels(P8):
        name = "_scan_block" if kernel is None else "_scan_compiled"
        real_block = getattr(experiment, name)

        def failing_block(*args):
            if threading.current_thread() is not threading.main_thread():
                raise ZeroDivisionError("worker failed")
            return real_block(*args)

        with monkeypatch.context() as mp:
            mp.setattr(experiment, "_kernel", lambda params: kernel)
            mp.setattr(experiment, name, failing_block)
            with pytest.raises(ZeroDivisionError, match="worker failed"):
                slab_sample(seed_state(3, P8), spec, scan_cap=500_000)


def test_every_kernel_source_is_package_data():
    # an installed package without a kernel's source runs its Python fallback without a word
    root = Path(__file__).resolve().parents[1]
    section = (root / "pyproject.toml").read_text().split("[tool.setuptools.package-data]")[1].split("\n[")[0]
    patterns = [p for line in section.splitlines() if line.startswith("xsplanes")
                for p in ast.literal_eval(line.split("=", 1)[1].strip())]
    sources = sorted(p.name for p in (root / "src" / "xsplanes").glob("_*.c"))
    assert {"_lanes.c", "_text.c", "_control.c"} <= set(sources)
    assert [s for s in sources if not any(fnmatch.fnmatchcase(s, p) for p in patterns)] == []


def test_compiled_kernel_in_use_where_gcc_is_found(monkeypatch):
    # a silent fallback would hide a fivefold slowdown
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    assert experiment._kernel(P8) is not None

    def numpy_block(*args):
        raise AssertionError("numpy lane scan used")

    monkeypatch.setattr(experiment, "_scan_block", numpy_block)
    slab_sample(seed_state(3, P8), slab_spec(8, None, 50), scan_cap=500_000)


@pytest.mark.parametrize("cflags", [("-shared", "-fno-such-option"), ("-c",)], ids=["compile", "load"])
def test_kernel_build_failure_falls_back_to_numpy(monkeypatch, tmp_path, cflags):
    # an unknown flag fails the compile; -c builds an object file that cannot be loaded
    spec = slab_spec(8, magnify_exp=12, target_points=60)
    state = seed_state(16, P8)
    default = slab_sample(state, spec, scan_cap=1_000_000)
    monkeypatch.setattr(experiment, "_CFLAGS", cflags)
    defines = tuple(f"-DSHIFT_{k}={v}" for k, v in zip("ABC", (P8.a, P8.b, P8.c)))
    kernel = experiment._load_kernel(tmp_path, experiment._LANES_SOURCE, defines)
    assert kernel is None
    if cflags == ("-c",) and shutil.which("gcc"):
        assert [p.suffix for p in tmp_path.iterdir()] == [".so"]
    monkeypatch.setattr(experiment, "_kernel", lambda params: kernel)
    assert_same_sample(slab_sample(state, spec, scan_cap=1_000_000), default)


def test_compiled_scan_reruns_on_hit_overflow(monkeypatch):
    # calls of 32 lanes and a first buffer of one hit: at x < 2**-4 the first call overflows
    # and is rerun with a buffer of the size it reports
    real = experiment._kernel(P8)
    if real is None:
        pytest.skip("the lane-scan kernel cannot be built here")
    calls = []  # (thread, lanes, base, overflowed) per call

    def counted(hi, lo, lanes, seg_len, base, last_in, hits, cap):
        found = real(hi, lo, lanes, seg_len, base, last_in, hits, cap)
        calls.append((threading.get_ident(), lanes, base, found > cap))
        return found

    monkeypatch.setattr(experiment, "_kernel", lambda params: counted)
    monkeypatch.setattr(experiment, "_CALL_HITS", 1)
    spec = slab_spec(8, magnify_exp=4, target_points=3000)
    state = seed_state(5, P8)
    seq = reference_sample(state, spec, 1_000_000)
    assert_same_sample(slab_sample(state, spec, scan_cap=1_000_000), seq)
    assert max(lanes for _, lanes, _, _ in calls) == experiment._GROUP
    assert any(over for *_, over in calls)
    # the rerun is its thread's next call, on the same lanes from the same stream offset
    for i, (thread, lanes, base, over) in enumerate(calls):
        if over:
            assert next(c for c in calls[i + 1 :] if c[0] == thread) == (thread, lanes, base, False)


def _unstep(s1, s2, params):
    """The state (s0, s1) that step_words takes to (s1, s2)."""
    y = s2 ^ s1 ^ (s1 >> params.c)  # = x ^ (x >> b)
    x = y
    for _ in range(64 // params.b + 1):
        x = y ^ (x >> params.b)
    s0 = x  # x = s0 ^ (s0 << a)
    for _ in range(64 // params.a + 1):
        s0 = x ^ ((s0 << params.a) & MASK64)
    return s0, s1


def _kernel_hits(kernel, hi, lo, seg_len, base, last_in, cap):
    """One direct kernel call: the hit count and the stored (3, min(count, cap)) hits (offset, s0, s1)."""
    buf = np.zeros((3, cap), dtype=np.uint64)
    found = kernel(hi.ctypes.data, lo.ctypes.data, len(hi), seg_len, base, last_in, buf.ctypes.data, cap)
    return found, buf[:, : min(found, cap)]


def kernel_builds(tmp_path, params):
    """The kernel's AVX-512, AVX2 and plain builds for params that this CPU can run, by name.

    The library calls the one build the CPU's features select, so a C file
    that includes _lanes.c exports each build under a name of its own.
    "plain-only" is the library as other targets than x86-64 compile it,
    its xs_scan_lanes the plain scan with no dispatch.
    """
    if platform.machine() != "x86_64":
        pytest.skip("the kernel's builds are x86-64 builds")
    cpuinfo = Path("/proc/cpuinfo")
    flags = set(cpuinfo.read_text().split()) if cpuinfo.exists() else set()
    scans = {"avx512f": "scan_avx512f", "avx2": "scan_avx2", "plain": "scan"}
    source = tmp_path / "builds.c"
    source.write_text(f'#include "{experiment._LANES_SOURCE}"\n'
                      + "".join(f"int64_t build_{n}(PARAMS) {{ return {f}(ARGS); }}\n" for n, f in scans.items()))
    shifts = [f"-DSHIFT_{k}={v}" for k, v in zip("ABC", (params.a, params.b, params.c))]
    libraries = {}
    for name, src, defines in [("builds", source, []), ("plain-only", experiment._LANES_SOURCE, ["-DPLAIN_SCAN_ONLY"])]:
        lib = tmp_path / f"{name}-{params.a}-{params.b}-{params.c}.so"
        subprocess.run(["gcc", *experiment._CFLAGS, *shifts, *defines, "-o", str(lib), str(src)], check=True)
        libraries[name] = ctypes.CDLL(str(lib))
    builds = {n: getattr(libraries["builds"], f"build_{n}") for n in scans if n == "plain" or n in flags}
    builds["plain-only"] = libraries["plain-only"].xs_scan_lanes
    for build in builds.values():
        build.restype = ctypes.c_int64
        build.argtypes = experiment._LANES_ARGTYPES
    return builds


def test_compiled_kernel_matches_numpy_scan(tmp_path):
    # The kernel tests every step on dense slabs (e <= 12) and 64-step chunks
    # on sparse ones, rerunning a chunk step by step when its lowest output is
    # in the slab.  States planted to enter the slab at t = 0, 63, 64 and the
    # segment's last step (one of them at the slab's last output) sit at chunk
    # edges, in a segment's partial last chunk, and in a padded last group;
    # one planted at t = seg_len lies one step past the segment.  The kernel
    # stores hits by group, then t, then lane; _scan_block by t, then lane.
    # Both record a hit's stream offset base + lane*seg_len + t, checked at
    # base 0 and at a base past 2**32.
    # Each triple has a library of its own, (26, 19, 5) one with a small c;
    # besides the library's choice, every build the CPU supports is checked,
    # and the library other targets than x86-64 build.
    for params in (DEFAULT_PARAMS, Params(26, 19, 5)):
        kernel = experiment._kernel(params)
        if kernel is None:
            pytest.skip("the lane-scan kernel cannot be built here")
        kernels = {"library": kernel, **kernel_builds(tmp_path, params)}
        rng = np.random.default_rng(11)
        for e in (12, 13, 14, 23, 40):
            last_in = (1 << (64 - e)) - 1
            for seg_len in (1, 63, 64, 65, 1000):
                times = sorted({t for t in (0, 63, 64, seg_len - 1, seg_len) if t <= seg_len})
                for lanes in (1, 31, 33, 100):
                    for run in range(0, len(times), lanes):
                        hi = rng.integers(0, 1 << 64, lanes, dtype=np.uint64)
                        lo = rng.integers(0, 1 << 64, lanes, dtype=np.uint64)
                        for j, t in enumerate(times[run : run + lanes]):
                            lane = (lanes - 1 - 37 * j) % lanes
                            out = last_in if j == 0 else int(rng.integers(0, last_in, endpoint=True))
                            s0 = int(rng.integers(0, 1 << 64, dtype=np.uint64))
                            s = (s0, (out - s0) & MASK64)
                            for _ in range(t):
                                s = _unstep(*s, params)
                            hi[lane], lo[lane] = s
                        for base in (0, (1 << 40) + 5):
                            scratch = [np.empty(lanes, dtype=np.uint64) for _ in range(3)]
                            ref = np.concatenate([np.empty((3, 0), dtype=np.uint64),
                                                  *_scan_block(hi.copy(), lo.copy(), scratch, params, seg_len,
                                                               base, last_in)], axis=1)
                            hit_lane, hit_t = np.divmod(ref[0] - np.uint64(base), np.uint64(seg_len))
                            ref = ref[:, np.lexsort((hit_lane, hit_t, hit_lane // np.uint64(32)))]
                            assert ref.shape[1] >= sum(t < seg_len for t in times[run : run + lanes])
                            for name, kernel in kernels.items():
                                case = (params, name, e, seg_len, lanes, run, base)
                                found, hits = _kernel_hits(kernel, hi, lo, seg_len, base, last_in,
                                                           lanes * seg_len)
                                assert found == ref.shape[1], case
                                assert np.array_equal(hits, ref), case
                                # an overflowing buffer: the total, and the first hit stored
                                found, hits = _kernel_hits(kernel, hi, lo, seg_len, base, last_in, 1)
                                assert found == ref.shape[1], case
                                assert np.array_equal(hits, ref[:, :1]), case


@pytest.fixture
def fresh_kernel():
    """_kernel looked up afresh in the test, and again after it."""
    experiment._kernel.cache_clear()
    yield
    experiment._kernel.cache_clear()


def test_kernels_of_different_triples_never_mix(monkeypatch, tmp_path, fresh_kernel):
    # one process scans with two triples and returns to the first: each
    # scan runs its own triple's library, and the cache holds one per triple
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    spec = slab_spec(8, magnify_exp=12, target_points=60)
    for params in (DEFAULT_PARAMS, P8, DEFAULT_PARAMS):
        state = seed_state(16, params)
        seq = reference_sample(state, spec, 1_000_000)
        assert experiment._kernel(params) is not None
        assert_same_sample(slab_sample(state, spec, scan_cap=1_000_000), seq)
    assert [p.suffix for p in (tmp_path / "xsplanes").iterdir()] == [".so", ".so"]


@pytest.mark.parametrize("xdg", ["", "relative/cache", "absolute"])
def test_kernel_cache_ignores_relative_xdg_cache_home(monkeypatch, tmp_path, fresh_kernel, xdg):
    # the XDG spec ignores a relative XDG_CACHE_HOME, which would otherwise
    # put a cache under whatever directory a run starts in
    home, work = tmp_path / "home", tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("HOME", str(home))
    absolute = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(absolute) if xdg == "absolute" else xdg)
    dirs = []
    monkeypatch.setattr(experiment, "_load_kernel", lambda cache_dir, source, defines: dirs.append(cache_dir))
    experiment._kernel(P8)
    cache = absolute if xdg == "absolute" else home / ".cache"
    assert dirs == [cache / "xsplanes"]


def test_kernel_without_home_falls_back_to_numpy(monkeypatch, fresh_kernel):
    # with no HOME and no passwd entry the home directory cannot be found;
    # the scan then runs in numpy instead of failing
    import pwd

    def no_entry(uid):
        raise KeyError(f"getpwuid(): uid not found: {uid}")

    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.delenv("HOME", raising=False)
    monkeypatch.setattr(pwd, "getpwuid", no_entry)
    assert experiment._kernel(P8) is None
    spec = slab_spec(8, magnify_exp=12, target_points=60)
    state = seed_state(16, P8)
    seq = reference_sample(state, spec, 1_000_000)
    assert_same_sample(slab_sample(state, spec, scan_cap=1_000_000), seq)


def test_concurrent_first_compiles_both_load(tmp_path):
    # two first runs at once share one empty cache; each must load a whole library
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=src)
    code = ("from xsplanes.experiment import DEFAULT_PARAMS, _kernel; "
            "assert _kernel(DEFAULT_PARAMS) is not None")
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(2)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    assert [p.suffix for p in (tmp_path / "xsplanes").iterdir()] == [".so"]


def test_slab_sample_magnified_coordinates():
    spec = slab_spec(8, None, 200)
    sample = slab_sample(seed_state(4, P8), spec, scan_cap=200_000)
    assert sample.n_in_slab == 200
    assert sample.points.dtype == np.uint64
    # X < 2**45 in the slab, so the magnified X << 8 is a 53-bit word like Y and Z
    assert (sample.points < 1 << 53).all()
    assert (sample.points[:, 0] % 256 == 0).all()


def test_slab_sample_truncation():
    spec = slab_spec(8, None, 10_000)
    sample = reference_sample(seed_state(5, P8), spec, 2_000)
    assert sample.truncated
    assert sample.n_triples_scanned == 2_000
    assert sample.n_in_slab < 10_000
    fast = slab_sample(seed_state(5, P8), spec, scan_cap=2_000)
    assert_same_sample(fast, sample)


def test_slab_sample_holds_each_hit_row_once(monkeypatch):
    # the (offset, s0, s1) hit rows are copied out of the lane scan once, into
    # one array; a second copy of every row took 120 bytes a target point
    spec, state = SlabSpec(4, 1 << 16), seed_state(1)
    for kernel in lane_kernels(DEFAULT_PARAMS):
        monkeypatch.setattr(experiment, "_kernel", lambda params: kernel)
        want = slab_sample(state, spec)  # loads the kernel outside the measure
        tracemalloc.start()
        try:
            got = slab_sample(state, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_sample(got, want)
        assert peak <= 100 * spec.target_points, (kernel, peak / spec.target_points)


def test_slab_sample_acceptance_rate_consistency():
    # the scan length needed for the target should be binomially consistent
    # with acceptance rate x_max; generator outputs are near uniform (6 sigma)
    spec = slab_spec(8, None, 500)
    sample = slab_sample(seed_state(6, P8), spec, scan_cap=5_000_000)
    n = sample.n_triples_scanned
    expect = n * spec.x_max
    assert abs(500 - expect) <= 6 * math.sqrt(expect)


def test_slab_sample_method_validated():
    spec = slab_spec(8, None, 10)
    for method in ("warp", "auto", "sequential"):
        with pytest.raises(ValueError):
            slab_sample(seed_state(1, P8), spec, scan_cap=100, method=method)


def test_control_generator_slab_acceptance():
    # the counter-based control stream enters the slab at rate x_max (4 sigma)
    x_max = 2.0**-8
    gen = np.random.Generator(np.random.Philox(key=99))
    xs = gen.random(200_000)
    hits = int((xs < x_max).sum())
    expect = 200_000 * x_max
    assert abs(hits - expect) <= 4 * math.sqrt(expect)


def test_hit_stats_points_on_planes():
    fam = family(8)
    spec = slab_spec(8, None, 10)
    pts = []
    for k, plane in enumerate(fam.planes):
        x = (k + 1) * 2.0**-12
        y = 0.25 + k / 16
        pts.append((x, y, height(plane, x, y)))
    stats = hit_stats(slab_words(pts, 8), fam, 2.0**-30, spec)
    assert stats.hit_fraction == 1.0
    assert sum(stats.per_plane_hits.values()) == stats.n_hits == len(pts)


def test_hit_stats_epsilon_half_catches_all():
    fam = family(8)
    spec = slab_spec(8, None, 10)
    pts = slab_words([(0.1, 0.2, 0.3), (0.9, 0.8, 0.7), (0.5, 0.5, 0.5)], 0)
    stats = hit_stats(pts, fam, 0.5, spec)
    assert stats.hit_fraction == 1.0


def test_hit_stats_empty_rejected():
    with pytest.raises(ValueError):
        hit_stats(np.empty((0, 3), dtype=np.uint64), family(8), 0.01, slab_spec(8, None, 1000))
    for eps in (-0.1, math.nan):
        with pytest.raises(ValueError):
            hit_stats(slab_words([(0.001, 0.2, 0.3)], 8), family(8), eps, slab_spec(8, None, 1000))


def test_hit_stats_matches_raw_word_scoring():
    # slab points scored through hit_stats equal the 53-bit words of the
    # same triples scored directly
    spec = slab_spec(8, None, 300)
    state = seed_state(3, P8)
    sample = slab_sample(state, spec)
    outs = iter_outputs(state)
    o0, o1 = next(outs) >> 11, next(outs) >> 11
    rows = []
    while len(rows) < 300:
        o2 = next(outs) >> 11
        if o0 < 1 << 45:
            rows.append((o0, o1, o2))
        o0, o1 = o1, o2
    fam = family(8)
    eps = 2.0**-9
    d, which = nearest_plane(np.array(rows, dtype=np.uint64), fam)
    hit = d <= epsilon_threshold(eps)
    stats = hit_stats(sample.points, fam, eps, spec)
    words = np.array(rows, dtype=np.uint64)
    words[:, 0] <<= np.uint64(8)
    assert np.array_equal(sample.points, words)
    assert stats.n_hits == int(hit.sum()) > 0
    assert list(stats.per_plane_hits.values()) == np.bincount(which[hit], minlength=8).tolist()


def test_hit_stats_unmagnifies_x():
    # a point on a plane only after dividing x_mag by the magnification
    fam = family(8)
    spec = slab_spec(8, None, 10)
    plane = fam.planes[4]
    x = 2.0**-10
    z = height(plane, x, 0.5)
    stats = hit_stats(slab_words([(x, 0.5, z)], 8), fam, 2.0**-30, spec)
    assert stats.n_hits == 1
    assert stats.per_plane_hits[plane.name] == 1


def test_control_baseline_zero_epsilon():
    assert control_baseline(2000, family(8), 0.0, 7) == 0.0


def test_control_baseline_deterministic():
    fam = family(23)
    a = control_baseline(5000, fam, 2.0**-10, 11)
    b = control_baseline(5000, fam, 2.0**-10, 11)
    assert a == b


@pytest.mark.parametrize("a, planes", [(40, 16), (45, 16), (50, 16), (51, 16), (52, 8), (62, 8)])
def test_control_baseline_exact_at_large_a(a, planes):
    # For a = 52 - k the two families' planes coincide on the grid points
    # with X = 0 mod 2^k, so the uniform rate is (16 - 8/2^k)*eps; from
    # a = 52 on, -(2^a - 1) = 2^a + 1 mod 2^53 and only 8*eps remain.
    # union_rate stays the union bound, 2*eps per distinct plane.
    eps = 2.0**-10
    n = 1 << 18
    frac = control_baseline(n, family(a), eps, 271828)
    expect = (16 - 8 / 2 ** max(52 - a, 0)) * eps
    assert union_rate(family(a), eps) == planes * eps >= expect
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(frac - expect) <= 4 * sigma


def test_control_baseline_matches_generator_random():
    # the raw-word points are the points Generator.random draws
    fam = family(8)
    eps = 2.0**-7
    pts = np.random.Generator(np.random.Philox(key=5)).random((3000, 3))
    ints = (pts * 2.0**53).astype(np.uint64)
    expect = (nearest_plane(ints, fam)[0] <= epsilon_threshold(eps)).mean()
    assert control_baseline(3000, fam, eps, 5) == expect


def test_control_baseline_near_uniform_union_measure():
    fam = family(23)
    eps = 2.0**-10
    n = 40_000
    frac = control_baseline(n, fam, eps, 271828)
    expect = 16 * eps
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(frac - expect) <= 4 * sigma


def compiled_control():
    """The compiled control count; the test is skipped where it cannot be built."""
    kernel = experiment._control_kernel()
    if kernel is None:
        pytest.skip("no compiled control kernel")
    return kernel


@pytest.mark.parametrize("a", [1, 8, 23, 50, 51, 52, 62])
def test_control_kernel_matches_numpy_philox(monkeypatch, a):
    # the kernel draws numpy's Philox stream across the 4-word block edges
    # and the numpy path's 32,768-point chunk edges, for keys at both ends
    # of both key words
    kernel = compiled_control()
    fam = family(a)
    for n in (1, 2, 3, 4, 5, 32767, 32768, 32769, 100001):
        for key in (0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1):
            for eps in (0.0, 2.0**-10, 0.5):
                monkeypatch.setattr(experiment, "_control_kernel", lambda: kernel)
                got = control_baseline(n, fam, eps, key)
                monkeypatch.setattr(experiment, "_control_kernel", lambda: None)
                assert got == control_baseline(n, fam, eps, key), (n, key, eps)


def test_control_kernel_matches_numpy_philox_across_keys(monkeypatch):
    # about 2,000 hits a key: a wrong word anywhere in the stream would move the count
    kernel = compiled_control()
    fam = family(23)
    keys = [271828 + 7919 * i for i in range(40)] + [(1 << 127) + 12345 * i for i in range(10)]
    for key in keys:
        monkeypatch.setattr(experiment, "_control_kernel", lambda: kernel)
        got = control_baseline(1 << 17, fam, 2.0**-10, key)
        monkeypatch.setattr(experiment, "_control_kernel", lambda: None)
        assert got == control_baseline(1 << 17, fam, 2.0**-10, key), key


def test_control_baseline_rejects_values_ctypes_would_wrap(monkeypatch):
    # ctypes would wrap key 2**128 to 0, key -1 to 2**64 - 1 and 2**64 + 3
    # points to 3; both paths refuse them, the keys as Philox does
    for kernel in (experiment._control_kernel(), None):
        monkeypatch.setattr(experiment, "_control_kernel", lambda: kernel)
        for key in (1 << 128, -1):
            with pytest.raises(ValueError, match="control_seed"):
                control_baseline(100, family(8), 2.0**-10, key)
        for n in (1 << 63, (1 << 64) + 3):
            with pytest.raises(ValueError, match="n_points"):
                control_baseline(n, family(8), 2.0**-10, 1)


def test_compiled_run_never_imports_numpy_random():
    # with the compiled control count, numpy.random (and the OpenSSL
    # modules it pulls in) stays out of a planes run
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    code = """
import contextlib, io, sys
from xsplanes.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(["planes", "--a", "8", "--target-points", "50", "--control-points", "1000", "--census-steps", "1000",
          "--grid", "8"])
assert "numpy.random" not in sys.modules
"""
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)


def test_census_step_degenerate_tops_fill_grid():
    # from state (1, 1) the first words are small, so every relevant top
    # bit is zero and every column condition holds: all nine cells tally
    census = case_census(GenState(1, 1, Params(23, 17, 26)), 1, 3)
    assert set(census.grid.values()) == {1.0}
    assert census.compound_frequency == 1.0
    assert 0.0 <= census.carry_leak_frequency <= 1.0


def test_census_frequencies_consistent():
    state = seed_state(8)
    census = case_census(state, 400, 3)
    assert set(census.grid) == {
        f"{o.value}|{i.value}" for o in COMBINE_ORDER for i in COMBINE_ORDER
    }
    top_cell = max(census.grid.values())
    assert 0.0 <= top_cell <= 1.0
    assert census.compound_frequency >= top_cell
    assert 0.0 <= census.carry_leak_frequency <= 1.0
    assert census.uniform_model_estimate == pytest.approx(0.285087, abs=1e-6)


def _recount(state, n_steps, n_bits):
    """(grid, compound, leak) recomputed step by step with scalar classify."""
    params = state.params
    a = params.a

    def tops(w):
        return w >> (64 - n_bits)

    words = [state.s0, state.s1]
    while len(words) < n_steps + 3:
        words.append(step_words(words[-2], words[-1], params)[1])
    counts = {(o, i): 0 for o in COMBINE_ORDER for i in COMBINE_ORDER}
    compound = checks = leaks = 0
    for j in range(n_steps):
        s0, s1, s2, s3 = words[j : j + 4]
        shifted0 = (s0 << a) & MASK64
        shifted1 = (s1 << a) & MASK64
        inner = [
            classify(tops(s0), tops(shifted0), n_bits),
            classify(tops(s1), tops(shifted1), n_bits),
        ]
        outer = [
            classify(tops(s1), tops(s0 ^ shifted0), n_bits),
            classify(tops(s2), tops(s1 ^ shifted1), n_bits),
        ]
        x, y, z = (s0 + s1) & MASK64, (s1 + s2) & MASK64, (s2 + s3) & MASK64
        any_cell = False
        for o in COMBINE_ORDER:
            for i in COMBINE_ORDER:
                if all(o in lab.kinds() for lab in outer) and all(i in lab.kinds() for lab in inner):
                    counts[o, i] += 1
                    any_cell = True
                    cx, cy = plane_coefficients(o, i, a)
                    checks += 1
                    leaks += tops((cx * x + cy * y) & MASK64) != tops(z)
        compound += any_cell
    grid = {f"{o.value}|{i.value}": v / n_steps for (o, i), v in counts.items()}
    return grid, compound / n_steps, (leaks / checks) if checks else 0.0


def test_census_against_independent_recount():
    # recompute the grid over a short stream with the raw column conditions
    state = seed_state(9, Params(23, 17, 26))
    census = case_census(state, 200, 3)
    grid, compound, leak = _recount(state, 200, 3)
    assert census.grid == grid
    assert census.compound_frequency == compound
    assert census.carry_leak_frequency == leak


_SEAM = _CENSUS_CHUNK - 3  # the steps of one census chunk


@pytest.mark.parametrize(
    "params, n_bits, n_steps",
    [
        # more than two chunks, ending in a partial one
        pytest.param(Params(23, 17, 26), 3, 2 * _CENSUS_CHUNK + 1001, id="params0-3"),
        pytest.param(Params(5, 9, 11), 2, 2 * _CENSUS_CHUNK + 1001, id="params1-2"),
        # the seams between chunks, where the lanes jump and 3 words are reread
        *(pytest.param(Params(23, 17, 26), 3, n, id=f"seam-{n}")
          for n in (1, _SEAM - 1, _SEAM, _SEAM + 1, 2 * _SEAM, 2 * _SEAM + 1)),
        pytest.param(Params(26, 19, 5), 3, 2 * _SEAM + 1, id="small-c"),
    ],
)
def test_census_recount_across_chunks(params, n_bits, n_steps):
    state = seed_state(10, params)
    census = case_census(state, n_steps, n_bits)
    grid, compound, leak = _recount(state, n_steps, n_bits)
    assert census.grid == grid
    assert census.compound_frequency == compound
    assert census.carry_leak_frequency == leak


def test_case_census_validates():
    with pytest.raises(ValueError):
        case_census(seed_state(1), 0, 3)
    for n_bits in (0, 17, 64):
        with pytest.raises(ValueError):
            case_census(seed_state(1), 10, n_bits)


def _small_config(tmp_path, subdir):
    return ExperimentConfig(
        params=P8,
        seed=2,
        epsilon=2.0**-10,
        target_points=300,
        control_points=20_000,
        control_seed=271828,
        census_steps=1_000,
        grid=24,
        output_dir=str(tmp_path / subdir),
    )


def test_run_experiment_small_scale(tmp_path):
    cfg = _small_config(tmp_path, "run")
    report = run_experiment(cfg)
    assert report.n_in_slab == 300
    assert not report.truncated
    assert report.magnify == 256.0
    assert 0.0 <= report.hit_fraction <= 1.0
    assert sum(report.per_plane_hits.values()) == round(report.hit_fraction * 300)
    assert report.concentration_ratio == report.hit_fraction / report.control_hit_fraction
    assert set(report.case_frequencies) == {
        f"{o.value}|{i.value}" for o in COMBINE_ORDER for i in COMBINE_ORDER
    } | {"compound"}

    out = tmp_path / "run"
    assert (out / "points.csv").exists()
    assert (out / "overlay.json").exists()
    assert (out / "report.json").exists()
    meshes = sorted(p.name for p in out.glob("mesh_*.csv"))
    assert len(meshes) == 8

    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk == report.to_dict()

    header = (out / "points.csv").read_text().splitlines()[0]
    assert header == "# magnify=256 params=8,17,26 seed=0x0000000000000002"


def test_experiment_config_validates():
    # every bad setting is refused on construction, before any run can start
    for bad in [
        {"epsilon": -1.0}, {"epsilon": math.nan}, {"params": Params(63, 17, 26), "magnify_exp": 10},
        {"magnify_exp": 0}, {"magnify_exp": 54}, {"target_points": 0}, {"scan_cap": 0},
        {"magnify_exp": 40}, {"control_points": 0}, {"census_steps": 0},
        {"n_bits": 0}, {"n_bits": 17}, {"grid": 1}, {"grid": 4097}, {"seed": -1}, {"control_seed": 1 << 128},
        {"control_points": (1 << 32) + 1}, {"census_steps": (1 << 32) + 1},
    ]:
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    ExperimentConfig(control_points=1 << 32, census_steps=1 << 32)
    cfg = ExperimentConfig(magnify_exp=10)
    assert cfg.spec == slab_spec(23, 10, 1000)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.grid = 0


def test_run_experiment_checks_shift_before_scan(monkeypatch, tmp_path):
    # a = 63 has no plane family; the scan toward its cap would take hours
    def no_scan(*args, **kwargs):
        raise AssertionError("slab_sample called")

    monkeypatch.setattr("xsplanes.experiment.slab_sample", no_scan)
    with pytest.raises(ValueError, match="shift count"):
        run_experiment(ExperimentConfig(params=Params(63, 17, 26), magnify_exp=10, target_points=10,
                                        output_dir=str(tmp_path / "o")))
    assert not (tmp_path / "o").exists()


def test_run_experiment_deterministic(tmp_path):
    r1 = run_experiment(_small_config(tmp_path, "a"))
    r2 = run_experiment(_small_config(tmp_path, "b"))
    assert r1.to_dict() == r2.to_dict()
    for name in ["points.csv", "report.json", "overlay.json"] + [
        f"mesh_{p.name}.csv" for p in family(8).planes
    ]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("a, e, grid", [(3, 1, 2), (23, 10, 17), (51, 23, 17), (62, 1, 17), (23, 10, 256)])
def test_write_mesh_csv_matches_reference(monkeypatch, tmp_path, a, e, grid):
    # array mesh and streaming writer, with either formatter, against the
    # scalar mesh and the per-vertex writer; at grid 2 every fragment is dropped
    for fmt in text_paths():
        monkeypatch.setattr(experiment, "_text_kernel", lambda: fmt)
        for plane in family(a).planes:
            path = tmp_path / f"mesh_{plane.name}.csv"
            write_mesh_csv(path, mesh(plane, 2.0**-e, 2.0**e, grid))
            assert path.read_text() == reference_mesh_csv(reference_mesh(plane, 2.0**-e, 2.0**e, grid))


def test_write_mesh_csv_keeps_negative_zero(monkeypatch, tmp_path):
    # formatted values are shared by bit pattern, so -0.0 still prints as -0
    # beside 0.0, in every column, and repeated y values print alike; the
    # compiled formatter prints them alike too
    strips = [
        MeshStrip(0, np.array([[0.5, 0.0, -0.0], [0.5, -0.0, 0.0], [0.5, 0.0, 0.25], [0.5, 0.25, -0.0]])),
        MeshStrip(1, np.array([[-0.0, 0.25, 1e-300], [0.0, 0.25, 0.1], [0.75, -0.0, 2.0**-53]])),
    ]
    path = tmp_path / "mesh.csv"
    for fmt in text_paths():
        monkeypatch.setattr(experiment, "_text_kernel", lambda: fmt)
        write_mesh_csv(path, strips)
        assert path.read_text() == reference_mesh_csv(strips)
        assert path.read_text().startswith("0.5,0,-0\n0.5,-0,0\n")


def batched_strips() -> list[list[MeshStrip]]:
    """Strip lists that exercise the writer's calls and the formatters' reuse of repeated text."""
    rng = np.random.default_rng(5)
    rows = experiment._TEXT_ROWS

    def strip(x, ys):
        v = np.empty((len(ys), 3))
        v[:, 0], v[:, 1], v[:, 2] = x, ys, rng.random(len(ys))
        return MeshStrip(0, v)

    stations = np.arange(300) / 299
    empty = MeshStrip(1, np.empty((0, 3)))
    # ten 200-row strips and their blank lines leave 47 rows in the first
    # call: strips end before, on and after that boundary, with empty
    # strips at it, then one straddles the second call
    straddle = [
        [strip(0.25, stations[:200]) for _ in range(10)] + [strip(0.5, stations[:end]), empty]
        + [strip(0.75, stations) for _ in range(8)] + [empty, strip(1.0, stations[:10])]
        for end in (46, 47, 48)
    ]
    # one strip of more rows than a call, between short ones
    long = [strip(0.0, stations[:5]), strip(0.5, rng.random(2 * rows + 7)), strip(1.0, stations[:5])]
    # -0.0 and 0.0, two NaN payloads and neighbours in every column, repeated across strips
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(np.float64)
    values = np.array([0.0, -0.0, *nans, 0.5, np.nextafter(0.5, 1.0)])
    zeros_nans = [MeshStrip(j, values[rng.integers(0, len(values), (600, 3))]) for j in range(5)]
    # 1000 distinct x and y values a call, each repeated, but not in the row above
    xs = rng.random(1000)
    many_values = [MeshStrip(0, np.column_stack([xs, xs[::-1], rng.random(1000)])) for _ in range(5)]
    # more blank lines than fit in a call, after most of a call's rows
    many_empty = [strip(0.5, rng.random(rows - 8))] + [empty] * (rows + 5) + [strip(0.5, stations[:3])]
    return [*straddle, long, zeros_nans, many_values, many_empty]


def test_write_mesh_csv_empty_strips_on_both_paths(monkeypatch, tmp_path):
    # no strip at all, and strips with no vertex, as "\n\n".join of the
    # strips' row blocks; also strips across the writer's calls
    one = MeshStrip(0, np.array([[0.5, 0.0, 0.25]]))
    empty = MeshStrip(1, np.empty((0, 3)))
    path = tmp_path / "mesh.csv"
    paths = text_paths()  # before _text_kernel is patched
    for strips in ([], [empty], [one, empty, one], [empty, one], *batched_strips()):
        for fmt in paths:
            monkeypatch.setattr(experiment, "_text_kernel", lambda: fmt)
            write_mesh_csv(path, strips)
            assert path.read_text() == reference_mesh_csv(strips)


@pytest.mark.parametrize("failure", ["replace", "strips"])
def test_atomic_write_failure_leaves_target_and_no_temp(monkeypatch, tmp_path, failure):
    target = tmp_path / "mesh.csv"
    target.write_text("old\n")
    whole = mesh(Plane(3, 1, 1), 0.5, 2.0, 8)

    def broken_replace(src, dst):
        raise OSError("rename failed")

    def broken_strips():
        # strips are taken as the file is written, not all before it opens
        yield whole[0]
        assert list(tmp_path.glob("mesh.csv.*.tmp"))
        raise OSError("strip source failed")

    if failure == "replace":
        monkeypatch.setattr(os, "replace", broken_replace)
        strips = whole
    else:
        strips = broken_strips()
    with pytest.raises(OSError, match="failed"):
        write_mesh_csv(target, strips)
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["mesh.csv"]


def test_atomic_write_of_one_path_inside_another(tmp_path):
    # two writes of one path overlap: each has a temp file of its own, and
    # the one that finishes last leaves its whole file
    target = tmp_path / "report.json"

    def outer():
        yield "outer "
        experiment._atomic_write(target, ["inner\n"])
        assert target.read_text() == "inner\n"
        yield "done\n"

    experiment._atomic_write(target, outer())
    assert target.read_text() == "outer done\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def assert_no_writer_left(out):
    # the run starts no process of its own and leaves no temp file
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("seed, fork", [(1, True), (3, True), (16, True), (2, False)])
def test_run_experiment_meshes_match_in_process_writer(monkeypatch, tmp_path, seed, fork):
    # the run's mesh files, in family order, are write_mesh_csv's bytes
    # whatever the scan's seed, and also where os.fork does not exist
    if not fork:
        monkeypatch.delattr(os, "fork")
    cfg = dataclasses.replace(_small_config(tmp_path, "run"), seed=seed)
    report = run_experiment(cfg)
    planes = family(cfg.params.a).planes
    assert report.files["meshes"] == [f"mesh_{p.name}.csv" for p in planes]
    for plane, name in zip(planes, report.files["meshes"]):
        write_mesh_csv(tmp_path / name, mesh(plane, cfg.spec.x_max, cfg.spec.magnify, cfg.grid))
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()
    assert_no_writer_left(tmp_path / "run")


@pytest.mark.parametrize("fork", [True, False])
def test_run_experiment_mesh_writer_failure(monkeypatch, tmp_path, fork):
    # every mesh write fails halfway through its file, with or without
    # os.fork; the first mesh's message is raised, and neither overlay.json
    # nor report.json is written
    def failing(path, strips):
        def chunks():
            yield "partial"
            raise OSError(f"disk full at {Path(path).name}")

        experiment._atomic_write(Path(path), chunks())

    monkeypatch.setattr(experiment, "write_mesh_csv", failing)
    if not fork:
        monkeypatch.delattr(os, "fork")
    cfg = _small_config(tmp_path, "run")
    first = family(cfg.params.a).planes[0]
    with pytest.raises(OSError) as info:
        run_experiment(cfg)
    assert str(info.value) == f"disk full at mesh_{first.name}.csv"
    out = tmp_path / "run"
    assert not (out / "report.json").exists() and not (out / "overlay.json").exists()
    assert_no_writer_left(out)


@pytest.mark.parametrize("exc", [RuntimeError("census failed"), KeyboardInterrupt()], ids=["error", "interrupt"])
def test_run_experiment_parent_failure_stops_writers(monkeypatch, tmp_path, exc):
    # the census fails before any file is written, so the mesh writes,
    # which would hang mid-file, never start: the call returns at once,
    # with that exception and no temp file
    def hanging(path, strips):
        def chunks():
            yield "partial"
            time.sleep(60)

        experiment._atomic_write(Path(path), chunks())

    def failing_census(*args):
        raise exc

    monkeypatch.setattr(experiment, "write_mesh_csv", hanging)
    monkeypatch.setattr(experiment, "case_census", failing_census)
    start = time.monotonic()
    with pytest.raises(type(exc)) as info:
        run_experiment(_small_config(tmp_path, "run"))
    assert info.value is exc
    assert time.monotonic() - start < 30
    out = tmp_path / "run"
    assert not (out / "report.json").exists()
    assert not list(out.glob("*.tmp"))


HANG_IN_MESH = """
import sys, time
from pathlib import Path
from xsplanes import experiment
from xsplanes.engine import Params

def hanging(path, strips):
    def chunks():
        yield "partial"
        time.sleep(60)
    experiment._atomic_write(Path(path), chunks())

experiment.write_mesh_csv = hanging
experiment.run_experiment(experiment.ExperimentConfig(
    params=Params(8, 17, 26), seed=2, target_points=300, control_points=20_000, census_steps=1_000,
    grid=24, output_dir=sys.argv[1]))
"""


def test_ctrl_c_stops_run_and_writers(tmp_path):
    # a terminal's Ctrl-C sends SIGINT to the whole process group while a
    # mesh file is half written: the run ends by the interrupt, with no
    # process left in its group, no temp file and no report
    out = tmp_path / "o"
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    proc = subprocess.Popen([sys.executable, "-c", HANG_IN_MESH, str(out)], env=dict(os.environ, PYTHONPATH=src),
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        deadline = time.monotonic() + 120
        while not list(out.glob("mesh_*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == -signal.SIGINT, err.decode()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert not list(out.glob("*.tmp"))
    assert (out / "points.csv").exists() and not (out / "report.json").exists()
