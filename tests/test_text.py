"""The compiled CSV formatter and its Python reference against '%.17g', and the files of both text paths."""

import ctypes
from decimal import Decimal
import locale
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from helpers import GUARD, guarded, python_format_rows, text_paths, use_formatter
from xsplanes import experiment
from xsplanes.engine import DEFAULT_PARAMS
from xsplanes.experiment import ExperimentConfig, run_experiment, write_points_csv


def format_rows(fmt, values, breaks=()) -> str:
    """The text formatter fmt (one of text_paths()) writes for values, three to a row, and breaks."""
    v = np.asarray(values, dtype=np.float64).reshape(-1, 3)
    buf = np.empty(experiment._ROW_BYTES * len(v) + len(breaks), dtype=np.uint8)
    return bytes(experiment._format_rows(fmt, v, buf, breaks)).decode()


def compiled_rows(values) -> list[str]:
    """The rows the compiled formatter writes for values, three to a row."""
    return format_rows(experiment._stages().xs_format_rows, values).splitlines(keepends=True)


def assert_python_text(values):
    """The compiled rows of values, padded to whole rows, are Python's '%.17g' rows."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, np.full(-len(values) % 3, 0.5)])
    got = compiled_rows(values)
    want = ["%.17g,%.17g,%.17g\n" % tuple(row) for row in values.reshape(-1, 3).tolist()]
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:5]
    assert max(map(len, got)) <= experiment._ROW_BYTES


def neighbours(x: float, n: int = 5) -> list[float]:
    """x and the n doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


def test_random_bit_patterns():
    rng = np.random.default_rng(20)
    words = rng.integers(0, 1 << 64, 1_050_000, dtype=np.uint64)
    values = words.view(np.float64)
    values = values[np.isfinite(values)][:1_000_000]
    assert len(values) == 1_000_000
    assert_python_text(values)
    # and random mantissas over the exponents of the exact integer path,
    # 2**-14 (whose binade holds 1e-4) to 2**51
    exponents = rng.integers(1023 - 14, 1023 + 52, len(words), dtype=np.uint64)
    assert_python_text((words & np.uint64((1 << 52) - 1 | 1 << 63) | exponents << np.uint64(52)).view(np.float64))


def test_uniform_unit_values():
    assert_python_text(np.random.default_rng(21).random(300_000))


def test_powers_of_ten_and_neighbours():
    values = [s * v for k in range(-8, 41) for v in neighbours(float(f"1e{k}")) for s in (1, -1)]
    assert len(values) == 49 * 11 * 2
    assert_python_text(values)


def test_exact_path_bounds():
    # the integer path takes 1e-4 <= |v| < 2**52; its neighbours outside go
    # through snprintf, as do those of the bounds it once had, 1e-5 and 2**120
    values = [s * v for x in (1e-4, 2.0**52, 1e-5, 2.0**120) for v in neighbours(x) for s in (1, -1)]
    assert_python_text(values)
    # 16 - E = 22 at the old low bound: a first draft that allowed 23 overflowed here
    assert_python_text([9.9999999999999995e-07, 9.9999999999999995e-06, 1.0000000000000001e-05])


def is_tie(x: float) -> bool:
    """x lies halfway between two 17-digit decimals, so %.17g rounds it to the even one."""
    digits = Decimal(x).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def test_half_even_ties():
    assert compiled_rows([1 + 2**-17, 1 + 3 * 2**-17, -(1 + 2**-17)]) == [
        "1.0000076293945312,1.0000228881835938,-1.0000076293945312\n"
    ]
    ties = [s * 2.0**p * (1 + j * 2**-17) for j in range(1, 64, 2) for p in (-16, -3, 0, 5, 40) for s in (1, -1)]
    ties = [x for x in ties if is_tie(x)]
    assert len(ties) >= 20
    assert_python_text(ties)


def test_zeros_subnormals_and_extremes():
    assert_python_text([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                        -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                        1e-300, 1.5e-300, 1e300, 2.0**-1074 * 3, 1e-6, 9.99999e-6, 1e36, 2.0**121])


def test_inf_and_nan():
    # on the compiled formatter and its Python reference
    negative_nan = np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0]
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64).view(np.float64)
    values = [np.inf, -np.inf, np.nan, negative_nan, 1.0, -1.0]
    for fmt in text_paths():
        assert format_rows(fmt, [np.inf, -np.inf, np.nan]) == "inf,-inf,nan\n"
        assert format_rows(fmt, [negative_nan, 0.0, -0.0]) == "nan,0,-0\n"
        # -0.0, 0.0 and two NaN payloads in one call, each repeated in and
        # across rows: every bit pattern keeps the text of its own
        assert format_rows(fmt, [-0.0, 0.0, nans[0], nans[1], -0.0, 0.0, nans[1], nans[0], 0.0]) == (
            "-0,0,nan\nnan,-0,0\nnan,nan,0\n"
        )
        assert format_rows(fmt, values) == "%.17g,%.17g,%.17g\n%.17g,%.17g,%.17g\n" % tuple(values)


def test_longest_row_meets_the_row_bound():
    # the longest text of a value is a negative subnormal's 24 bytes
    longest = -2.2250738585072009e-308
    row = compiled_rows([longest] * 3)
    assert row == ["-2.2250738585072009e-308,-2.2250738585072009e-308,-2.2250738585072009e-308\n"]
    assert len(row[0]) == experiment._ROW_BYTES == 75


def test_longest_row_stays_inside_exact_size_arrays():
    # rows of the longest text, from row 0 and from row 1 of two, with no,
    # one and two blank lines after them, into an output array of exactly
    # the bound followed by a guard; the Python formatter writes the same
    longest = -2.2250738585072009e-308
    row = b"%.17g,%.17g,%.17g\n" % ((longest,) * 3)
    values = (ctypes.c_double * 6)(*(longest,) * 6)
    for first in (0, 1):
        for n in (0, 1, 2):
            breaks = (ctypes.c_int64 * n)(*[2] * n)
            texts = []
            for fmt in (experiment._stages().xs_format_rows, python_format_rows):
                out = guarded(experiment._ROW_BYTES * (2 - first) + n)
                size = fmt(ctypes.addressof(values), first, 2, 0, ctypes.addressof(breaks), n, ctypes.addressof(out))
                assert size == len(out) - len(GUARD) and out.raw[size:] == GUARD
                texts.append(out.raw[:size])
            assert texts[0] == texts[1] == row * (2 - first) + b"\n" * n


def test_breaks_fill_a_buffer_of_the_bound_and_no_more():
    # worst-case rows, a blank line before every row, into a buffer of
    # exactly the bound: the copies of each row's repeated text stay inside
    fmt = experiment._stages().xs_format_rows
    longest, rows = -2.2250738585072009e-308, 40
    size = experiment._ROW_BYTES * rows + rows
    buf = np.full(size + 32, 0xA5, dtype=np.uint8)
    text = experiment._format_rows(fmt, np.full((rows, 3), longest), buf[:size], np.arange(rows))
    assert bytes(text) == (("\n" + "%.17g,%.17g,%.17g\n" % ((longest,) * 3)) * rows).encode()
    assert len(text) == size
    assert (buf[size:] == 0xA5).all()
    with pytest.raises(ValueError, match="one a break"):
        experiment._format_rows(fmt, np.full((rows, 3), longest), buf[: size - 1], np.arange(rows))


def test_breaks_go_before_their_rows():
    # repeated breaks write one blank line each, and breaks equal to the
    # row count go after the last row, on both formatters
    rows = [[0.5, 0.0, 0.25], [0.5, 1.0, 0.75]]
    for fmt in text_paths():
        assert format_rows(fmt, rows, [0, 1, 1, 2]) == "\n0.5,0,0.25\n\n\n0.5,1,0.75\n\n"
        assert format_rows(fmt, np.empty((0, 3)), [0, 0]) == "\n\n"


def test_text_ignores_callers_locale(tmp_path, monkeypatch):
    # a caller's LC_NUMERIC with a decimal comma must not reach the text
    # snprintf writes for small, subnormal and large values (1.5e-300, 5e-324,
    # 2.0**200, 1e-5); zeros and the integer path's values never reach snprintf
    if shutil.which("localedef") is None:
        pytest.skip("no localedef")
    (tmp_path / "comma").write_text(
        'LC_NUMERIC\ndecimal_point "<U002C>"\nthousands_sep ""\ngrouping -1\nEND LC_NUMERIC\n'
    )
    # exit 1 warns of the categories the definition leaves out
    subprocess.run(["localedef", "-c", "-i", str(tmp_path / "comma"), "-f", "UTF-8", str(tmp_path / "comma.UTF-8")],
                   capture_output=True)
    monkeypatch.setenv("LOCPATH", str(tmp_path))
    saved = locale.setlocale(locale.LC_NUMERIC)
    try:
        try:
            locale.setlocale(locale.LC_NUMERIC, "comma.UTF-8")
        except locale.Error:
            pytest.skip("the decimal-comma locale could not be built")
        assert locale.localeconv()["decimal_point"] == ","
        assert_python_text([1.5e-300, 5e-324, 2.0**200, 0.25, -0.0, 1e-5])
    finally:
        locale.setlocale(locale.LC_NUMERIC, saved)


@pytest.mark.parametrize("n", [0, 1, 5000])
def test_write_points_csv_same_bytes_on_both_paths(monkeypatch, tmp_path, n):
    # 5000 rows span several formatter calls
    assert 5000 > 2 * experiment._TEXT_ROWS
    points = np.random.default_rng(n).integers(0, 1 << 53, (n, 3), dtype=np.uint64)
    points[:1] = 0
    header = "# magnify=1024 params=23,17,26 seed=0x0000000000000007\n"
    want = header + "".join("%.17g,%.17g,%.17g\n" % tuple(row) for row in (points * 2.0**-53).tolist())
    for i, fmt in enumerate(text_paths()):
        use_formatter(monkeypatch, fmt)
        path = tmp_path / f"points-{i}.csv"
        write_points_csv(path, points, 1024.0, DEFAULT_PARAMS, 7)
        assert path.read_text() == want


WORKLOADS = {
    # the two benchmark workloads' flags, scaled down
    "slab-scan": dict(magnify_exp=23, target_points=20),
    "wide-slab": dict(magnify_exp=10, target_points=2000, control_points=1 << 12, census_steps=2000, grid=256),
    # every strip splits into single-vertex fragments: meshes of no strip
    "grid-2": dict(magnify_exp=10, target_points=2000, control_points=1 << 12, census_steps=2000, grid=2),
    # a scan that finds no slab point: points.csv of no row
    "no-slab-point": dict(magnify_exp=23, target_points=20, scan_cap=1000),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_experiment_same_files_on_both_text_paths(monkeypatch, tmp_path, workload):
    outputs = []
    for i, fmt in enumerate(text_paths()):
        use_formatter(monkeypatch, fmt)
        out = tmp_path / f"{i}"
        run_experiment(ExperimentConfig(seed=7, control_seed=7, output_dir=str(out), **WORKLOADS[workload]))
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 11
    assert all(files == outputs[0] for files in outputs)
    if workload == "grid-2":
        assert all(text == b"\n" for name, text in outputs[0].items() if name.startswith("mesh_"))
    if workload == "no-slab-point":
        assert outputs[0]["points.csv"] == b"# magnify=8388608 params=23,17,26 seed=0x0000000000000007\n"


def test_text_library_built_once_by_fresh_cache(tmp_path):
    # a run from an empty cache compiles the formatter's stage library once,
    # for all nine CSV files, builds one scan library beside it, and leaves
    # no temp file in the cache or the output directory
    code = """
import subprocess, sys
from xsplanes import experiment
from xsplanes.engine import Params
run = subprocess.run
def logged(cmd, **kwargs):
    if str(experiment._STAGES_SOURCE) in cmd:
        with open(sys.argv[1], "a") as log:
            log.write("built\\n")
    return run(cmd, **kwargs)
subprocess.run = logged
experiment.run_experiment(experiment.ExperimentConfig(
    params=Params(8, 17, 26), seed=2, target_points=300, control_points=20_000, census_steps=1_000,
    grid=24, output_dir=sys.argv[2]))
"""
    log, out, cache = tmp_path / "log", tmp_path / "out", tmp_path / "cache"
    src = os.path.dirname(os.path.dirname(experiment.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code, str(log), str(out)], env=env, check=True, timeout=120)
    assert log.read_text() == "built\n"
    assert sorted(p.name.split("-")[0] for p in (cache / "xsplanes").iterdir()) == ["lanes", "stages"]
    assert len(list(out.iterdir())) == 11
    assert not list(out.glob("*.tmp"))
