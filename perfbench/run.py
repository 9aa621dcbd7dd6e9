"""Benchmark of `xsplanes planes`, run from the root of a source checkout.

Usage:
    python3 perfbench/run.py --workload slab-scan --seed 7 --seconds 30 --trace 0

Each timed round is one fresh `python3 -m xsplanes planes` process with the
workload's flags, the workload seed passed as `--seed` and `--control-seed`.
Rounds run one at a time until `--seconds` have passed and at least two
processes have run, so that reruns can be compared byte for byte.  Set-up is
timed separately with fresh probe interpreters.  With `--trace 1` each round
is instead one traced run of the layers (perfbench/layers.py) plus one plain
command run with the same flags, and the per-layer metrics are reported.

Every output is checked after the timing by perfbench/checks.py, which does
not import the program.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics.
"""

import argparse
from dataclasses import dataclass
import json
import os
from pathlib import Path
import shutil
import statistics
import subprocess
import sys
import time

from checks import CheckFailed, Flags, check_output, require, same_files

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
RUNS = HERE / "_runs"

# Why these sizes: see README.md in this directory.
WORKLOADS = {
    "slab-scan": dict(magnify_exp=23, target_points=200, min_ratio=5.0),
    "wide-slab": dict(magnify_exp=10, target_points=50000, control_points=1 << 18,
                      census_steps=200000, grid=256),
}
# Leading points.csv rows the pure-Python reference generator reproduces.
REFERENCE_POINTS = {"slab-scan": 1, "wide-slab": 100}

SETUP_WARMUP = 2  # compiles .pyc files and fills the file cache
SETUP_PROBES = 9

END_TO_END = {"wall_s": "s", "setup_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "experiment.slab_sample.s": "s",
    "experiment.slab_sample.triples_per_s": "1/s",
    "experiment.slab_sample.points_per_s": "1/s",
    "experiment.slab_sample.alloc_peak_mb": "MB",
    "experiment.hit_stats.s": "s",
    "experiment.hit_stats.points_per_s": "1/s",
    "experiment.control_baseline.s": "s",
    "experiment.control_baseline.points_per_s": "1/s",
    "experiment.control_baseline.alloc_peak_mb": "MB",
    "experiment.case_census.s": "s",
    "experiment.case_census.steps_per_s": "1/s",
    "planes.mesh.s": "s",
    "planes.mesh.vertices_per_s": "1/s",
    "experiment.write_points_csv.s": "s",
    "experiment.write_mesh_csv.s": "s",
    "experiment.output.mb_per_s": "MB/s",
}


def child_env() -> dict:
    """The program from this checkout's sources, with .pyc files cached as an installed one has them."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probes(flags: Flags, env: dict) -> tuple[list[float], list[float]]:
    """Seconds from spawn to ready, and import seconds, of each probe after the warm-up."""
    ready, imports = [], []
    for i in range(SETUP_WARMUP + SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), *flags.argv()], stdout=subprocess.PIPE, env=env
        )
        with proc.stdout:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        require(proc.wait() == 0 and line, "set-up probe failed")
        if i >= SETUP_WARMUP:
            ready.append(elapsed)
            imports.append(float(line))
    return ready, imports


@dataclass
class Run:
    """One process run to its end."""

    kind: str  # "planes" (the command) or "layers" (the traced run)
    out: Path  # its output directory; stdout goes to out.out
    code: int
    wall_s: float
    rss_mb: float

    @property
    def stdout(self) -> str:
        return self.out.with_suffix(".out").read_text()


def spawn(kind: str, argv: list[str], out: Path, env: dict) -> Run:
    """Run `python3 <argv> --output-dir out`, timing it from spawn to exit."""
    argv = [sys.executable, *argv, "--output-dir", str(out)]
    with open(out.with_suffix(".out"), "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
        actions = [(os.POSIX_SPAWN_DUP2, stdout.fileno(), 1), (os.POSIX_SPAWN_DUP2, stderr.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return Run(kind, out, os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss * 1024 / 1e6)


def check_runs(runs: list[Run], flags: Flags, reference_points: int) -> dict:
    """Check the first command run in full, and every other run against it byte for byte."""
    first = next(r for r in runs if r.kind == "planes")
    report = check_output(first.out, first.stdout, flags, reference_points)
    for run in runs:
        if run is not first:
            same_files(first.out, run.out)
        if run.kind == "planes":
            require(run.stdout == first.stdout, f"{run.out.name} printed another report")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 1 << 64 or args.seconds < 1:
        parser.error("--seed must fit in 64 bits and --seconds be positive")
    if not (SRC / "xsplanes" / "cli.py").is_file():
        print(f"no xsplanes sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    flags = Flags(seed=args.seed, control_seed=args.seed, **WORKLOADS[args.workload])
    env = child_env()
    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    ready, imports = setup_probes(flags, env)
    runs = []
    start = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - start < args.seconds:
        i = len(runs)
        if args.trace:
            runs.append(spawn("layers", [str(HERE / "layers.py"), *flags.argv()], work / f"layers{i}", env))
        runs.append(spawn("planes", ["-m", "xsplanes", "planes", *flags.argv()], work / f"planes{i}", env))

    failed = sum(run.code != 0 for run in runs)
    try:
        report = check_runs(runs, flags, REFERENCE_POINTS[args.workload])
        correct = failed == 0
    except (CheckFailed, KeyError, OSError, ValueError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if not correct:
        print(f"outputs kept in {work}", file=sys.stderr)
        metrics = {}
    elif args.trace:
        layers = [json.loads(run.stdout) for run in runs if run.kind == "layers"]
        values = {name: statistics.median(m[name] for m in layers) for name in PER_LAYER if name in layers[0]}
        values["cli.import_s"] = statistics.median(imports)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(run.wall_s for run in runs),
            "setup_s": statistics.median(ready),
            "points_per_s": statistics.median(report["n_in_slab"] / run.wall_s for run in runs),
            "peak_rss_mb": statistics.median(run.rss_mb for run in runs),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    if correct:
        shutil.rmtree(work)
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
