import dataclasses
import json
import os
import subprocess
import sys

import pytest

from xsplanes import experiment
from xsplanes.cli import build_parser, main
from xsplanes.engine import DEFAULT_PARAMS, Params, iter_outputs, seed_state
from xsplanes.experiment import ExperimentConfig, slab_sample, slab_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_hex_matches_engine(capsys):
    code, out, _ = run_cli(capsys, "gen", "--seed", "5", "--count", "4")
    assert code == 0
    got = [int(line, 16) for line in out.splitlines()]
    stream = iter_outputs(seed_state(5))
    assert got == [next(stream) for _ in range(4)]


def test_gen_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "gen", "--seed", "ab", "--count", "6")
    _, out2, _ = run_cli(capsys, "gen", "--seed", "AB", "--count", "6")
    assert out1 == out2


def test_gen_unit_format(capsys):
    code, out, _ = run_cli(capsys, "gen", "--seed", "7", "--count", "20", "--format", "unit")
    assert code == 0
    values = [float(line) for line in out.splitlines()]
    assert len(values) == 20
    assert all(0.0 <= v < 1.0 for v in values)


def test_gen_respects_params(capsys):
    code, out, _ = run_cli(capsys, "gen", "--seed", "5", "--count", "3",
                           "--a", "8", "--b", "17", "--c", "26")
    stream = iter_outputs(seed_state(5, Params(8, 17, 26)))
    assert [int(line, 16) for line in out.splitlines()] == [next(stream) for _ in range(3)]


def test_gen_bad_seed_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--seed", "zz"])
    assert exc.value.code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_passes_and_prints_examples(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
    assert code == 0
    lines = out.splitlines()
    row3 = next(line for line in lines if line.split()[0] == "3")
    assert "58" in row3 and "64" in row3
    row4 = next(line for line in lines if line.split()[0] == "4")
    assert "196" in row4 and "256" in row4


def test_verify_rejects_oversize_width(capsys):
    code, _, err = run_cli(capsys, "verify", "--n-max", "13")
    assert code == 2


@pytest.mark.parametrize("argv", [("gen", "--count", "-1"), ("verify", "--n-max", "13")], ids=" ".join)
def test_gen_verify_usage_error_reported_by_main(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_census_json(capsys):
    code, out, _ = run_cli(capsys, "census", "--seed", "3", "--steps", "500")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_steps"] == 500
    assert payload["n_bits"] == 3
    assert len(payload["grid"]) == 9
    assert payload["uniform_model_exact"] == "4782969/16777216"
    assert 0.0 <= payload["compound_frequency"] <= 1.0


def test_census_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "census", "--seed", "3", "--steps", "300")
    _, out2, _ = run_cli(capsys, "census", "--seed", "3", "--steps", "300")
    assert out1 == out2


@pytest.mark.parametrize("n_bits", ["0", "17"])
def test_census_n_bits_range_exits_2(capsys, n_bits):
    code, out, err = run_cli(capsys, "census", "--steps", "100", "--n-bits", n_bits)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# the parser attributes that perfbench/layers.py reads
LAYERS_ATTRIBUTES = (
    "a b c seed epsilon target_points scan_cap magnify_exp grid control_points control_seed "
    "census_steps n_bits method output_dir control_only"
).split()


def test_planes_defaults_are_the_config_defaults():
    # each setting's default is defined once, in ExperimentConfig; output_dir
    # is the exception, since the command writes its files where the config
    # defaults to writing none
    args = build_parser().parse_args(["planes"])
    config = ExperimentConfig()
    assert Params(args.a, args.b, args.c) == config.params == DEFAULT_PARAMS
    for field in dataclasses.fields(ExperimentConfig):
        if field.name not in ("params", "output_dir"):
            assert getattr(args, field.name) == getattr(config, field.name), field.name
    assert all(hasattr(args, name) for name in LAYERS_ATTRIBUTES)


def test_census_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["census"])
    config = ExperimentConfig()
    assert (args.steps, args.n_bits, args.seed) == (config.census_steps, config.n_bits, config.seed)
    assert Params(args.a, args.b, args.c) == DEFAULT_PARAMS


@pytest.mark.parametrize(
    "flags", [("--method", "auto"), ("--full-scale",), ("--method", "sequential"), ("--method", "fast")],
    ids=" ".join,
)
def test_planes_removed_settings_exit_2(capsys, flags):
    # parsed only: a parser that took them would start the run
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["planes", *flags])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_planes_method_default_runs_the_one_scan():
    # the package holds one scan; the parser keeps a method default without a
    # flag, which perfbench/layers.py passes to slab_sample
    assert "method" not in {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert not hasattr(experiment, "_scan_sequential")
    method = build_parser().parse_args(["planes"]).method
    sample = slab_sample(seed_state(1, Params(8, 17, 26)), slab_spec(8, None, 10), scan_cap=100_000, method=method)
    assert (sample.n_in_slab, sample.truncated) == (10, False)


PLANES_ARGS = [
    "planes", "--a", "8", "--seed", "2", "--target-points", "150",
    "--control-points", "8000", "--census-steps", "500", "--grid", "16",
]


def test_planes_small_run(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, *PLANES_ARGS, "--output-dir", str(out_dir), "--min-ratio", "0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["n_in_slab"] == 150
    assert report["params"] == {"a": 8, "b": 17, "c": 26}
    assert (out_dir / "points.csv").exists()
    assert (out_dir / "report.json").exists()
    assert len(list(out_dir.glob("mesh_*.csv"))) == 8


def test_planes_threshold_failure_exit_1(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, *PLANES_ARGS, "--output-dir", str(tmp_path / "t"), "--min-ratio", "1e9",
    )
    assert code == 1
    assert "below threshold" in err


def test_planes_reruns_byte_identical(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    code_a, out_a, _ = run_cli(
        capsys, *PLANES_ARGS, "--output-dir", str(dir_a), "--min-ratio", "0",
    )
    code_b, out_b, _ = run_cli(
        capsys, *PLANES_ARGS, "--output-dir", str(dir_b), "--min-ratio", "0",
    )
    assert code_a == code_b == 0
    assert out_a == out_b
    for name in sorted(p.name for p in dir_a.iterdir()):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_planes_control_only(capsys):
    code, out, _ = run_cli(
        capsys, "planes", "--control-only", "--control-points", "5000",
        "--epsilon", str(2.0**-9),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["control_points"] == 5000
    assert payload["uniform_union_rate"] == 16 * 2.0**-9
    assert 0.0 <= payload["control_hit_fraction"] <= 1.0


@pytest.mark.parametrize("eps", ["-0.1", "nan", "inf"])
@pytest.mark.parametrize("control_only", [True, False])
def test_planes_bad_epsilon_exits_2(tmp_path, capsys, eps, control_only):
    extra = ["--control-only"] if control_only else ["--output-dir", str(tmp_path / "o")]
    code, out, err = run_cli(capsys, *PLANES_ARGS, "--epsilon", eps, *extra)
    assert code == 2
    assert out == ""
    assert "epsilon" in err


@pytest.mark.parametrize("eps", ["0.5"])
def test_planes_wide_epsilon_counts_every_point(tmp_path, capsys, eps):
    code, out, _ = run_cli(capsys, *PLANES_ARGS, "--epsilon", eps, "--control-only")
    assert code == 0
    assert json.loads(out)["control_hit_fraction"] == 1.0
    code, out, _ = run_cli(
        capsys, *PLANES_ARGS, "--epsilon", eps, "--output-dir", str(tmp_path / eps), "--min-ratio", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["hit_fraction"] == report["control_hit_fraction"] == 1.0


def test_planes_control_only_large_a(capsys):
    # float scoring reported 0.315 here; the uniform rate is (16 - 8/2^2)*eps,
    # since the two families coincide where X = 0 mod 4
    code, out, _ = run_cli(capsys, "planes", "--control-only", "--a", "50", "--control-points", "32768")
    assert code == 0
    frac = json.loads(out)["control_hit_fraction"]
    expect = 14 * 2.0**-10
    assert abs(frac - expect) <= 4 * (expect * (1 - expect) / 32768) ** 0.5


def test_planes_control_only_union_rate_at_a_62(capsys):
    # for a >= 52 the two coefficient families coincide on the 53-bit grid:
    # four distinct planes, so the union rate is 8*eps, not 16*eps
    code, out, _ = run_cli(capsys, "planes", "--control-only", "--a", "62", "--control-points", "32768")
    assert code == 0
    payload = json.loads(out)
    expect = 8 * 2.0**-10
    assert payload["uniform_union_rate"] == expect
    assert abs(payload["control_hit_fraction"] - expect) <= 4 * (expect * (1 - expect) / 32768) ** 0.5


@pytest.mark.parametrize("flags", [("--a", "30"), ("--magnify-exp", "40")])
def test_planes_over_default_budget_exits_2(tmp_path, capsys, monkeypatch, flags):
    # about 1e12 and 1e15 expected triples: refused before any scan
    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr("xsplanes.experiment._scan_fast", no_scan)
    code, out, err = run_cli(capsys, "planes", *flags, "--output-dir", str(tmp_path / "o"))
    assert code == 2
    assert out == ""
    assert "--scan-cap" in err
    assert "scanning" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flags",
    [("--grid", "0"), ("--grid", "1"), ("--grid", "4097"), ("--grid", "100000"), ("--control-points", "0"),
     ("--census-steps", "0"),
     ("--n-bits", "0"), ("--n-bits", "17"), ("--magnify-exp", "0"), ("--magnify-exp", "54"),
     ("--scan-cap", "0"), ("--epsilon", "-1"), ("--a", "63"), ("--min-ratio", "nan"),
     ("--target-points", "4194305"), ("--magnify-exp", "1", "--target-points", "1000000000"),
     ("--control-points", "4294967297"), ("--census-steps", "4294967297")],
    ids=" ".join,
)
def test_planes_bad_setting_exits_2_before_scan(tmp_path, capsys, monkeypatch, flags):
    # each used to exit 2 only after the full scan; --grid 1 also left a lone points.csv,
    # --grid 100000 a lone points.csv and a MemoryError in every mesh writer, and
    # --min-ratio nan passed every ratio.  A target over 2**22 points fits the
    # triple budget at a wide slab, but its hit rows and points outgrow memory.
    # Over 2**32 control points or census steps, the run takes from minutes to
    # millennia.  Nothing is printed before the error.
    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr("xsplanes.experiment._scan_fast", no_scan)
    out_dir = tmp_path / "o"
    code, out, err = run_cli(
        capsys, "planes", "--magnify-exp", "10", "--target-points", "100", *flags,
        "--output-dir", str(out_dir),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "scanning" not in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize(
    "argv",
    [("census", "--steps", "4294967297"), ("census", "--steps", "1000000000000"),
     ("planes", "--control-only", "--control-points", "4294967297")],
    ids=" ".join,
)
def test_count_over_its_cap_exits_2_before_work(capsys, monkeypatch, argv):
    # 10**12 census steps would run for about two days, 2**63 control points for millennia
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr("xsplanes.experiment._lane_starts", no_work)
    monkeypatch.setattr("xsplanes.experiment._control_kernel", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_planes_no_control_hit_says_so(tmp_path, capsys):
    out_dir = tmp_path / "z"
    code, out, err = run_cli(
        capsys, *PLANES_ARGS, "--control-points", "2", "--epsilon", "1e-9", "--output-dir", str(out_dir),
    )
    assert code == 1
    assert json.loads(out)["concentration_ratio"] is None
    assert json.loads((out_dir / "report.json").read_text())["concentration_ratio"] is None
    assert err.splitlines()[-1] == (
        "no concentration ratio: none of the 2 control points fell within epsilon 1e-09 of a plane"
    )


def test_planes_no_slab_point_says_so(tmp_path, capsys):
    # a hit fraction over zero points is undefined, so neither it nor the ratio is reported
    out_dir = tmp_path / "z"
    code, out, err = run_cli(
        capsys, "planes", "--target-points", "5", "--magnify-exp", "4", "--scan-cap", "10",
        "--control-points", "1000", "--census-steps", "10", "--output-dir", str(out_dir),
    )
    assert code == 1
    for report in (json.loads(out), json.loads((out_dir / "report.json").read_text())):
        assert report["n_in_slab"] == 0
        assert report["control_hit_fraction"] > 0.0
        assert report["hit_fraction"] is None
        assert report["concentration_ratio"] is None
    assert err.splitlines()[-2:] == [
        "scan cap reached with 0/5 points",
        "no concentration ratio: the scan found no slab point",
    ]


def test_planes_magnify_exp_variant(tmp_path, capsys):
    # the wider-slab plot variant: magnification decoupled from a
    code, out, _ = run_cli(
        capsys, "planes", "--a", "8", "--seed", "2", "--target-points", "60",
        "--magnify-exp", "7", "--control-points", "4000", "--census-steps", "200",
        "--grid", "12", "--output-dir", str(tmp_path / "m"), "--min-ratio", "0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["magnify"] == 128.0
    header = (tmp_path / "m" / "points.csv").read_text().splitlines()[0]
    assert "magnify=128" in header


def test_planes_io_error_exit_2(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    code, _, err = run_cli(
        capsys, *PLANES_ARGS, "--output-dir", str(blocker), "--min-ratio", "0",
    )
    assert code == 2
    assert "error" in err.lower()


def test_planes_mesh_writer_failure_exits_2(tmp_path, capsys, monkeypatch):
    def failing(path, strips):
        raise OSError("disk full")

    monkeypatch.setattr(experiment, "write_mesh_csv", failing)
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, *PLANES_ARGS, "--output-dir", str(out_dir), "--min-ratio", "0")
    assert code == 2
    assert out == ""
    assert err.splitlines()[1:] == ["i/o error: disk full"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["points.csv"]


def test_planes_process_prints_one_report(tmp_path):
    # stdout and stderr go to files, so they are block-buffered: the one
    # report and the two stderr lines reach them once each, whole
    out_dir = tmp_path / "o"
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with open(tmp_path / "stdout", "w") as stdout, open(tmp_path / "stderr", "w") as stderr:
        proc = subprocess.run(
            [sys.executable, "-m", "xsplanes", *PLANES_ARGS, "--output-dir", str(out_dir), "--min-ratio", "0"],
            stdout=stdout, stderr=stderr, env=env, timeout=120,
        )
    assert proc.returncode == 0
    report = json.loads((tmp_path / "stdout").read_text())
    assert report == json.loads((out_dir / "report.json").read_text())
    assert (tmp_path / "stderr").read_text() == (
        "scanning slab x < 2**-8 for 150 points\n"
        f"concentration ratio {report['concentration_ratio']:.2f} (threshold 0.0)\n"
    )
