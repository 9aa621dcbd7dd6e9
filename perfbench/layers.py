"""Traced run of `xsplanes planes`: its layers called one at a time.

Usage: python3 perfbench/layers.py <planes flags> --output-dir DIR

Calls the public functions in the order `run_experiment` does, times each
call, writes the same files `xsplanes planes` writes, and prints one JSON
object of per-layer metrics.  The files must be byte-identical to the
command's; the benchmark checks that.

The timing pass runs without tracemalloc, which slows the Python loops of
the control baseline and the census about sevenfold.  An allocation pass
then repeats the two calls whose peaks are reported, `slab_sample` and
`control_baseline`, under tracemalloc.
"""

import json
import sys
import time
import tracemalloc
from pathlib import Path


def timed(fn, *args, **kwargs):
    """(result, seconds)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def alloc_peak(fn, *args, **kwargs) -> int:
    """Bytes the call allocated at its peak, above those in use before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def write_text(path: Path, text: str) -> float:
    start = time.perf_counter()
    path.write_text(text)
    return time.perf_counter() - start


def main(argv: list[str]) -> None:
    from xsplanes.cli import build_parser
    from xsplanes.engine import Params, seed_state
    from xsplanes.experiment import (
        HitReport,
        case_census,
        control_baseline,
        hit_stats,
        slab_sample,
        slab_spec,
        write_mesh_csv,
        write_points_csv,
    )
    from xsplanes.planes import family, mesh

    args = build_parser().parse_args(["planes", *argv])
    if args.target_points is None or args.control_only:
        raise SystemExit("layers.py needs --target-points and a full run")
    params = Params(args.a, args.b, args.c)

    spec = slab_spec(params.a, args.magnify_exp, args.target_points)
    state = seed_state(args.seed, params)
    sample, scan_s = timed(slab_sample, state, spec, scan_cap=args.scan_cap, method=args.method)
    fam = family(params.a)
    stats, hits_s = timed(hit_stats, sample.points, fam, args.epsilon, spec)
    control, control_s = timed(
        control_baseline, args.control_points, fam, args.epsilon, args.control_seed
    )
    census, census_s = timed(case_census, seed_state(args.seed, params), args.census_steps, args.n_bits)
    ratio = stats.hit_fraction / control if control > 0.0 else None
    report = HitReport(
        params=params,
        seed=args.seed,
        epsilon=args.epsilon,
        magnify=spec.magnify,
        target_points=args.target_points,
        n_triples_scanned=sample.n_triples_scanned,
        n_in_slab=sample.n_in_slab,
        truncated=sample.truncated,
        hit_fraction=stats.hit_fraction,
        per_plane_hits=stats.per_plane_hits,
        control_points=args.control_points,
        control_hit_fraction=control,
        concentration_ratio=ratio,
        case_frequencies=dict(census.grid, compound=census.compound_frequency),
        carry_leak_frequency=census.carry_leak_frequency,
    )

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    points_file = out / "points.csv"
    _, points_s = timed(write_points_csv, points_file, sample.points, spec.magnify, params, args.seed)
    mesh_s = mesh_write_s = 0.0
    vertices = 0
    mesh_files = []
    for plane in fam.planes:
        strips, s = timed(mesh, plane, spec.x_max, spec.magnify, args.grid)
        mesh_s += s
        vertices += sum(len(strip.vertices) for strip in strips)
        mesh_file = out / f"mesh_{plane.name}.csv"
        _, s = timed(write_mesh_csv, mesh_file, strips)
        mesh_write_s += s
        mesh_files.append(mesh_file.name)
    report.files = {
        "points": points_file.name,
        "meshes": mesh_files,
        "overlay": "overlay.json",
        "report": "report.json",
    }
    overlay = {"points": points_file.name, "meshes": mesh_files, "magnify": spec.magnify, "epsilon": args.epsilon}
    overlay_s = write_text(out / "overlay.json", json.dumps(overlay, indent=2) + "\n")
    report_s = write_text(out / "report.json", json.dumps(report.to_dict(), indent=2) + "\n")
    written = sum(p.stat().st_size for p in out.iterdir())
    scan_peak = alloc_peak(slab_sample, state, spec, scan_cap=args.scan_cap, method=args.method)
    control_peak = alloc_peak(control_baseline, args.control_points, fam, args.epsilon, args.control_seed)

    metrics = {
        "experiment.slab_sample.s": scan_s,
        "experiment.slab_sample.triples_per_s": sample.n_triples_scanned / scan_s,
        "experiment.slab_sample.points_per_s": sample.n_in_slab / scan_s,
        "experiment.slab_sample.alloc_peak_mb": scan_peak / 1e6,
        "experiment.hit_stats.s": hits_s,
        "experiment.hit_stats.points_per_s": stats.n_points / hits_s,
        "experiment.control_baseline.s": control_s,
        "experiment.control_baseline.points_per_s": args.control_points / control_s,
        "experiment.control_baseline.alloc_peak_mb": control_peak / 1e6,
        "experiment.case_census.s": census_s,
        "experiment.case_census.steps_per_s": census.n_steps / census_s,
        "planes.mesh.s": mesh_s,
        "planes.mesh.vertices_per_s": vertices / mesh_s,
        "experiment.write_points_csv.s": points_s,
        "experiment.write_mesh_csv.s": mesh_write_s,
        "experiment.output.mb_per_s": written / 1e6 / (points_s + mesh_write_s + overlay_s + report_s),
    }
    print(json.dumps(metrics))


if __name__ == "__main__":
    main(sys.argv[1:])
