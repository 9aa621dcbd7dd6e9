import json
import math
import sys
import threading

import numpy as np
import pytest

from xsplanes import experiment
from xsplanes.engine import MASK64, GenState, Params, iter_outputs, seed_state, step_words, to_unit
from xsplanes.experiment import (
    _CENSUS_CHUNK,
    DEFAULT_SCAN_CAP,
    ExperimentConfig,
    SlabSpec,
    _accept_threshold,
    case_census,
    control_baseline,
    hit_stats,
    resolve_scan_cap,
    run_experiment,
    slab_sample,
    slab_spec,
)
from xsplanes.planes import epsilon_threshold, family, nearest_plane, union_rate
from xsplanes.xorapprox import COMBINE_ORDER, classify, plane_coefficients

P8 = Params(8, 17, 26)


def test_slab_spec_reciprocal_invariant():
    spec = slab_spec(23)
    assert spec.magnify * spec.x_max == 1.0
    assert spec.x_max == 2.0**-23
    spec22 = slab_spec(23, magnify_exp=22)
    assert spec22.magnify == float(1 << 22)


def test_slab_spec_validates():
    with pytest.raises(ValueError):
        slab_spec(23, magnify_exp=0)
    with pytest.raises(ValueError):
        slab_spec(23, magnify_exp=54)
    with pytest.raises(ValueError):
        SlabSpec(a=23, x_max=0.25, magnify=2.0, target_points=10)
    with pytest.raises(ValueError):
        SlabSpec(a=23, x_max=0.25, magnify=4.0, target_points=0)


def test_resolve_scan_cap():
    spec8 = slab_spec(8, target_points=1000)
    assert resolve_scan_cap(spec8, None) == DEFAULT_SCAN_CAP
    spec23 = slab_spec(23, target_points=1000)
    assert resolve_scan_cap(spec23, None) == 4 * 1000 * (1 << 23)
    assert resolve_scan_cap(spec8, 12345) == 12345
    with pytest.raises(ValueError):
        resolve_scan_cap(spec8, 0)
    # the full-scale run fits the default budget; a = 30 does not, unless capped
    assert resolve_scan_cap(slab_spec(23, target_points=10_000), None) == 4 * 10_000 * (1 << 23)
    spec30 = slab_spec(30, target_points=1000)
    with pytest.raises(ValueError, match="--scan-cap"):
        resolve_scan_cap(spec30, None)
    assert resolve_scan_cap(spec30, 1 << 40) == 1 << 40


def test_accept_threshold_matches_float_compare():
    for e in (1, 8, 23, 53):
        x_max = 2.0**-e
        thr = _accept_threshold(x_max)
        # boundary outputs around the threshold
        for u53 in (0, thr - 1, thr, thr + 1, (1 << 53) - 1):
            if u53 < 0 or u53 >= 1 << 53:
                continue
            out = u53 << 11
            assert (u53 < thr) == (to_unit(out) < x_max)


def test_slab_sample_paths_agree():
    spec = slab_spec(8, target_points=400)
    state = seed_state(3, P8)
    seq = slab_sample(state, spec, scan_cap=500_000, method="sequential")
    fast = slab_sample(state, spec, scan_cap=500_000, method="fast")
    assert seq.points == fast.points
    assert seq.n_triples_scanned == fast.n_triples_scanned
    assert seq.truncated == fast.truncated is False
    assert seq.n_in_slab == 400


def test_fast_scan_independent_of_workers_and_blocks(monkeypatch):
    # Five lanes per worker give uneven splits (3 workers over 11 lanes).
    # At x < 2**-12 the first block often falls short of the target: seed
    # 16 needs three blocks, and the cap of the second case truncates the
    # run in a last block of fewer lanes than workers.
    monkeypatch.setattr(experiment, "_LANES_PER_WORKER", 5)
    blocks = []

    def counted_starts(one_step, packed, lanes, seg_len):
        blocks.append(lanes)
        return real_starts(one_step, packed, lanes, seg_len)

    real_starts = experiment._lane_starts
    monkeypatch.setattr(experiment, "_lane_starts", counted_starts)
    spec = slab_spec(8, magnify_exp=12, target_points=60)
    state = seed_state(16, P8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # frequent GIL hand-offs between the workers
    try:
        for cap in (1_000_000, 250_575):
            seq = slab_sample(state, spec, scan_cap=cap, method="sequential")
            assert seq.truncated == (cap == 250_575)
            for workers in (1, 2, 3):
                monkeypatch.setattr(experiment, "_WORKERS", workers)
                blocks.clear()
                fast = slab_sample(state, spec, scan_cap=cap, method="fast")
                assert fast.points == seq.points
                assert fast.n_triples_scanned == seq.n_triples_scanned
                assert fast.truncated == seq.truncated
                assert len(blocks) >= 2
                if seq.truncated and workers > 1:
                    assert blocks[-1] < workers
    finally:
        sys.setswitchinterval(interval)


def test_fast_scan_worker_exception_propagates(monkeypatch):
    # a failure in a worker thread's lane range reaches the caller
    def failing_block(*args):
        if threading.current_thread() is not threading.main_thread():
            raise ZeroDivisionError("worker failed")
        return real_block(*args)

    real_block = experiment._scan_block
    monkeypatch.setattr(experiment, "_scan_block", failing_block)
    monkeypatch.setattr(experiment, "_WORKERS", 2)
    spec = slab_spec(8, target_points=50)
    with pytest.raises(ZeroDivisionError, match="worker failed"):
        slab_sample(seed_state(3, P8), spec, scan_cap=500_000, method="fast")


def test_slab_sample_magnified_coordinates():
    spec = slab_spec(8, target_points=200)
    sample = slab_sample(seed_state(4, P8), spec, scan_cap=200_000)
    assert sample.n_in_slab == 200
    for x_mag, y, z in sample.points:
        assert 0.0 <= x_mag < 1.0  # x < x_max implies magnify*x < 1
        assert 0.0 <= y < 1.0
        assert 0.0 <= z < 1.0


def test_slab_sample_truncation():
    spec = slab_spec(8, target_points=10_000)
    sample = slab_sample(seed_state(5, P8), spec, scan_cap=2_000, method="sequential")
    assert sample.truncated
    assert sample.n_triples_scanned == 2_000
    assert sample.n_in_slab < 10_000
    fast = slab_sample(seed_state(5, P8), spec, scan_cap=2_000, method="fast")
    assert fast.points == sample.points
    assert fast.truncated and fast.n_triples_scanned == 2_000


def test_slab_sample_acceptance_rate_consistency():
    # the scan length needed for the target should be binomially consistent
    # with acceptance rate x_max; generator outputs are near uniform (6 sigma)
    spec = slab_spec(8, target_points=500)
    sample = slab_sample(seed_state(6, P8), spec, scan_cap=5_000_000)
    n = sample.n_triples_scanned
    expect = n * spec.x_max
    assert abs(500 - expect) <= 6 * math.sqrt(expect)


def test_slab_sample_method_validated():
    spec = slab_spec(8, target_points=10)
    with pytest.raises(ValueError):
        slab_sample(seed_state(1, P8), spec, scan_cap=100, method="warp")


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
    spec = slab_spec(8, target_points=10)
    pts = []
    for k, plane in enumerate(fam.planes):
        x = (k + 1) * 2.0**-12
        y = 0.25 + k / 16
        pts.append((x * spec.magnify, y, plane.height(x, y)))
    stats = hit_stats(pts, fam, 2.0**-30, spec)
    assert stats.hit_fraction == 1.0
    assert sum(stats.per_plane_hits.values()) == stats.n_hits == len(pts)


def test_hit_stats_epsilon_half_catches_all():
    fam = family(8)
    spec = slab_spec(8, target_points=10)
    pts = [(0.1, 0.2, 0.3), (0.9, 0.8, 0.7), (0.5, 0.5, 0.5)]
    stats = hit_stats(pts, fam, 0.5, spec)
    assert stats.hit_fraction == 1.0


def test_hit_stats_empty_rejected():
    with pytest.raises(ValueError):
        hit_stats([], family(8), 0.01, slab_spec(8))
    for eps in (-0.1, math.nan):
        with pytest.raises(ValueError):
            hit_stats([(0.1, 0.2, 0.3)], family(8), eps, slab_spec(8))


def test_hit_stats_matches_raw_word_scoring():
    # slab points scored through hit_stats equal the 53-bit words of the
    # same triples scored directly
    spec = slab_spec(8, target_points=300)
    state = seed_state(3, P8)
    sample = slab_sample(state, spec, method="sequential")
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
    assert stats.n_hits == int(hit.sum()) > 0
    assert list(stats.per_plane_hits.values()) == np.bincount(which[hit], minlength=8).tolist()


def test_hit_stats_unmagnifies_x():
    # a point on a plane only after dividing x_mag by the magnification
    fam = family(8)
    spec = slab_spec(8, target_points=10)
    plane = fam.planes[4]
    x = 2.0**-10
    z = plane.height(x, 0.5)
    stats = hit_stats([(x * spec.magnify, 0.5, z)], fam, 2.0**-30, spec)
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
    return grid, compound / n_steps, leaks / checks


def test_census_against_independent_recount():
    # recompute the grid over a short stream with the raw column conditions
    state = seed_state(9, Params(23, 17, 26))
    census = case_census(state, 200, 3)
    grid, compound, leak = _recount(state, 200, 3)
    assert census.grid == grid
    assert census.compound_frequency == compound
    assert census.carry_leak_frequency == leak


@pytest.mark.parametrize("params, n_bits", [(Params(23, 17, 26), 3), (Params(5, 9, 11), 2)])
def test_census_recount_across_chunks(params, n_bits):
    # more than two chunks, ending in a partial one
    n_steps = 2 * _CENSUS_CHUNK + 1001
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


def test_run_experiment_checks_shift_before_scan(monkeypatch, tmp_path):
    # a = 63 has no plane family; the scan toward its cap would take hours
    def no_scan(*args, **kwargs):
        raise AssertionError("slab_sample called")

    monkeypatch.setattr("xsplanes.experiment.slab_sample", no_scan)
    cfg = ExperimentConfig(params=Params(63, 17, 26), magnify_exp=10, target_points=10,
                           output_dir=str(tmp_path / "o"))
    with pytest.raises(ValueError, match="shift count"):
        run_experiment(cfg)
    assert not (tmp_path / "o").exists()


def test_run_experiment_deterministic(tmp_path):
    r1 = run_experiment(_small_config(tmp_path, "a"))
    r2 = run_experiment(_small_config(tmp_path, "b"))
    assert r1.to_dict() == r2.to_dict()
    for name in ["points.csv", "report.json", "overlay.json"] + [
        f"mesh_{p.name}.csv" for p in family(8).planes
    ]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
