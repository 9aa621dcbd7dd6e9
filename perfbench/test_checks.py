"""Tests of the benchmark's own checks.

Run from the repository root:  python3 -m pytest perfbench -q

The reference generator must give the known answers, a clean small run of
the command must pass every check, and each corruption of its files must be
rejected.
"""

import json
import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

import checks
from checks import CheckFailed, Flags, check_output, same_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FLAGS = Flags(seed=2, a=8, magnify_exp=8, target_points=200, control_points=20000,
              census_steps=2000, grid=24, min_ratio=2.0)
REFERENCE_POINTS = 20


def test_reference_step_known_answer():
    # hand trace from (1, 0): 1 ^ (1 << 23) = 0x800001, ^ (0x800001 >> 17) = 0x800041
    assert checks.next_word(1, 0, 23, 17, 26) == 0x800041
    # the third output is 2 * 0x800041; the engine tests' 0x10000A2 differs
    # from it only below the 53 bits that reach the unit interval
    assert checks.outputs(1, 0, 23, 17, 26, 3) == [1, 0x800041, 0x1000082]
    assert 0x1000082 >> 11 == 0x10000A2 >> 11


def test_reference_splitmix64_known_answer():
    ctr, out = checks.splitmix64(0)
    assert ctr == 0x9E3779B97F4A7C15
    assert out == 0xE220A8397B1DCDAF
    assert checks.seed_state(0) == (0xE220A8397B1DCDAF, checks.splitmix64(ctr)[1])


def test_uniform_union_rate_is_below_the_union_bound():
    eps = 2.0**-10
    rate = checks.uniform_union_rate(eps)
    assert 15 * eps < rate < 16 * eps


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """One small `xsplanes planes` run: (output dir, stdout)."""
    out = tmp_path_factory.mktemp("clean") / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "xsplanes", "planes", *FLAGS.argv(), "--output-dir", str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    return out, proc.stdout


@pytest.fixture
def run_copy(clean_run, tmp_path):
    src, stdout = clean_run
    dst = tmp_path / "out"
    shutil.copytree(src, dst)
    return dst, stdout


def test_clean_run_passes(clean_run):
    out, stdout = clean_run
    report = check_output(out, stdout, FLAGS, REFERENCE_POINTS)
    assert report["n_in_slab"] == FLAGS.target_points


def _edit_points(out: Path, edit) -> None:
    path = out / "points.csv"
    lines = path.read_text().split("\n")
    rows = [line.split(",") for line in lines[1:-1]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows] + [""]))


def _row_on_plane(rows):
    """Move z of the first row that misses every plane onto the first plane."""
    pts53 = [(checks._scaled(float(x), 53 - FLAGS.magnify_exp, "x"), checks._scaled(float(y), 53, "y"),
              checks._scaled(float(z), 53, "z")) for x, y, z in rows]
    for i, p in enumerate(pts53):
        if checks.score([p], FLAGS.a, FLAGS.epsilon)[0] == 0:
            _, m, sx, sy = checks.planes(FLAGS.a)[0]
            z = (sx * m * p[0] + sy * p[1]) % checks.ONE
            rows[i][2] = format(z * 2.0**-53, ".17g")
            return
    raise AssertionError("every point is a hit")


POINT_EDITS = {  # name: (edit, the check that must reject it)
    "row outside the cube": (lambda rows: rows[3].__setitem__(0, "1"), "outside"),
    "row not at 17 digits": (lambda rows: rows[3].__setitem__(1, rows[3][1] + "1"), "round-trip"),
    "x not from a 53-bit output": (lambda rows: rows[3].__setitem__(0, "0.50000000000000011"), "multiple of"),
    "row dropped": (lambda rows: rows.pop(5), "rows"),
    "rows swapped": (lambda rows: rows.insert(0, rows.pop(1)), "reference gives"),
    "point moved onto a plane": (_row_on_plane, "per_plane_hits"),
}


@pytest.mark.parametrize("edit", sorted(POINT_EDITS))
def test_corrupted_points_rejected(run_copy, edit):
    out, stdout = run_copy
    change, message = POINT_EDITS[edit]
    _edit_points(out, change)
    with pytest.raises(CheckFailed, match=message):
        check_output(out, stdout, FLAGS, REFERENCE_POINTS)


def _move_hit(report):
    per = report["per_plane_hits"]
    src = next(k for k, v in per.items() if v > 0)
    dst = next(k for k in per if k != src)
    per[src] -= 1
    per[dst] += 1


def _bump(key, delta):
    return lambda r: r["case_frequencies"].__setitem__(key, r["case_frequencies"][key] + delta)


REPORT_EDITS = {  # name: (edit, the check that must reject it)
    "hit_fraction": (lambda r: r.__setitem__("hit_fraction", r["hit_fraction"] + 1 / FLAGS.target_points),
                     "hit_fraction"),
    "per_plane_hits": (_move_hit, "per_plane_hits"),
    "control_hit_fraction": (lambda r: r.__setitem__("control_hit_fraction", 2 * r["control_hit_fraction"]),
                             "uniform rate"),
    "concentration_ratio": (lambda r: r.__setitem__("concentration_ratio", r["concentration_ratio"] * 1.001),
                            "concentration_ratio"),
    "case cell": (_bump("sum|diff", 1 / FLAGS.census_steps), "case_frequencies"),
    "compound": (_bump("compound", -1 / FLAGS.census_steps), "case_frequencies"),
    "carry_leak_frequency": (lambda r: r.__setitem__("carry_leak_frequency", 0.0), "carry_leak"),
    "n_in_slab": (lambda r: r.__setitem__("n_in_slab", r["n_in_slab"] - 1), "n_in_slab"),
    "truncated": (lambda r: r.__setitem__("truncated", True), "truncated"),
    "seed": (lambda r: r.__setitem__("seed", "0x0000000000000003"), "seed"),
}


@pytest.mark.parametrize("edit", sorted(REPORT_EDITS))
def test_corrupted_report_rejected(run_copy, edit):
    out, stdout = run_copy
    change, message = REPORT_EDITS[edit]
    report = json.loads(stdout)
    change(report)
    text = json.dumps(report, indent=2) + "\n"
    (out / "report.json").write_text(text)
    with pytest.raises(CheckFailed, match=message):
        check_output(out, text, FLAGS, REFERENCE_POINTS)


def test_report_file_must_match_stdout(run_copy):
    out, stdout = run_copy
    (out / "report.json").write_text(stdout.replace('"truncated": false', '"truncated": true'))
    with pytest.raises(CheckFailed, match="differs from stdout"):
        check_output(out, stdout, FLAGS, REFERENCE_POINTS)


def test_mesh_vertex_off_plane_rejected(run_copy):
    out, stdout = run_copy
    path = out / "mesh_m255_pp.csv"
    lines = path.read_text().split("\n")
    x, y, z = lines[3].split(",")
    lines[3] = f"{x},{y},{format(float(z) + 1e-6, '.17g')}"
    path.write_text("\n".join(lines))
    with pytest.raises(CheckFailed, match="off the plane"):
        check_output(out, stdout, FLAGS, REFERENCE_POINTS)


def test_same_files_detects_one_byte(clean_run, run_copy):
    out, _ = run_copy
    same_files(clean_run[0], out)
    path = out / "overlay.json"
    path.write_text(path.read_text().replace("points.csv", "points.csw"))
    with pytest.raises(CheckFailed, match="overlay.json differs"):
        same_files(clean_run[0], out)


def test_metric_table_matches_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slab-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
