"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The plane-concentration run (criteria 7 and 8) scans ~8e9 triples at the
production shift parameters; it is the long pole of the suite, well inside
its ten-minute budget: about 3 s on two cores with the compiled lane
kernel.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from helpers import component_count, step
from xsplanes.cli import main as cli_main
from xsplanes.engine import GenState, Params
from xsplanes.experiment import ExperimentConfig, run_experiment
from xsplanes.planes import family, mesh
from xsplanes.xorapprox import (
    Combine,
    compound_probability,
    count_cases,
    inner_multiplier,
    plane_coefficients,
    verify_xor_diff,
    verify_xor_sum,
)

EPSILON = 2.0**-10
CONTROL_POINTS = 1 << 17
BIG_RUN_BUDGET_SECONDS = 600.0


def _criterion(num, description, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def big_run():
    """Criteria 7/8 pipeline: (23,17,26), seed 1, 1000 slab points, lane scan."""
    cfg = ExperimentConfig(
        params=Params(23, 17, 26),
        seed=1,
        epsilon=EPSILON,
        target_points=1000,
        control_points=CONTROL_POINTS,
        control_seed=271828,
        census_steps=50_000,
    )
    start = time.monotonic()
    report = run_experiment(cfg)
    elapsed = time.monotonic() - start
    return report, elapsed


def test_criterion_01_exhaustive_counts():
    start = time.monotonic()
    ok = True
    for n in range(1, 11):
        c = count_cases(n)
        ok = ok and c.total == 4**n
        ok = ok and c.n_sum == c.n_diff == c.n_rev_diff == 3**n
        ok = ok and c.n_sum_diff == c.n_diff_rev_diff == c.n_rev_diff_sum == 2**n
        ok = ok and c.n_all_three == 1
        ok = ok and c.n_any == 3 * 3**n - 3 * 2**n + 1
    ok = ok and count_cases(3).n_any == 58 and count_cases(3).total == 64
    ok = ok and count_cases(4).n_any == 196 and count_cases(4).total == 256
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _criterion(1, f"exhaustive case counts match closed forms for n=1..10 ({elapsed:.1f}s)", ok)


def test_criterion_02_xor_inequalities():
    ok = all(verify_xor_sum(n) and verify_xor_diff(n) for n in range(1, 11))
    _criterion(2, "xor<=sum and xor>=diff with exact equality conditions, n=1..10", ok)


def test_criterion_03_coefficient_table():
    a = 23
    plus, minus, rev = (1 << a) + 1, 1 - (1 << a), (1 << a) - 1
    table = {
        (Combine.SUM, Combine.SUM): (plus, 1),
        (Combine.SUM, Combine.DIFF): (minus, 1),
        (Combine.SUM, Combine.REV_DIFF): (rev, 1),
        (Combine.DIFF, Combine.SUM): (-plus, 1),
        (Combine.DIFF, Combine.DIFF): (rev, 1),
        (Combine.DIFF, Combine.REV_DIFF): (minus, 1),
        (Combine.REV_DIFF, Combine.SUM): (plus, -1),
        (Combine.REV_DIFF, Combine.DIFF): (minus, -1),
        (Combine.REV_DIFF, Combine.REV_DIFF): (rev, -1),
    }
    ok = all(plane_coefficients(o, i, a) == want for (o, i), want in table.items())

    import random

    rng = random.Random(2024)
    for _ in range(1000):
        aa = rng.randrange(1, 63)
        outer = rng.choice(list(Combine))
        inner = rng.choice(list(Combine))
        s0, s1, s2 = (rng.getrandbits(64) for _ in range(3))
        cx, cy = plane_coefficients(outer, inner, aa)
        m = inner_multiplier(inner, aa)
        if outer is Combine.SUM:
            expanded = (s1 + m * s0) + (s2 + m * s1)
        elif outer is Combine.DIFF:
            expanded = (s1 - m * s0) + (s2 - m * s1)
        else:
            expanded = (m * s0 - s1) + (m * s1 - s2)
        ok = ok and cx * (s0 + s1) + cy * (s1 + s2) == expanded
    _criterion(3, "all nine case coefficients exact plus 1000 integer-identity checks", ok)


def test_criterion_04_probability_arithmetic():
    exact, value = compound_probability(3)
    ok = exact == Fraction(4782969, 16777216)
    ok = ok and round(value, 6) == 0.285087
    _criterion(4, "compound probability 4782969/16777216 ~ 0.285087", ok)


def test_criterion_05_generator_known_answer():
    # documented hand trace: 1 ^ (1<<23) = 0x800001; then xor with its
    # right-shift by 17 (0x40) gives 0x800041; the s1 term is zero
    nxt, out = step(GenState(1, 0, Params(23, 17, 26)))
    ok = out == 1 and (nxt.s0, nxt.s1) == (0, 0x800041)
    _criterion(5, "step from (1,0) yields output 1 and state (0, 0x800041)", ok)


def scaled_step(s0, s1, a, b, c, width):
    """The xorshift128+ recursion on width-bit words, for exhaustive small-word checks."""
    mask = (1 << width) - 1
    t = s0 ^ ((s0 << a) & mask)
    t ^= t >> b
    return s1, t ^ s1 ^ (s1 >> c)


def test_criterion_06_scaled_bijectivity():
    start = time.monotonic()
    a, b, c = 23 % 8, 17 % 8, 26 % 8  # (7, 1, 2)
    seen = set()
    fixed = []
    for s0 in range(256):
        for s1 in range(256):
            nxt = scaled_step(s0, s1, a, b, c, 8)
            seen.add(nxt)
            if nxt == (s0, s1):
                fixed.append((s0, s1))
    elapsed = time.monotonic() - start
    ok = len(seen) == 65536 and fixed == [(0, 0)] and elapsed < 5.0
    _criterion(6, f"8-bit variant is a permutation of 2^16 states fixing only (0,0) ({elapsed:.1f}s)", ok)


def test_criterion_07_plane_concentration(big_run):
    report, elapsed = big_run
    expect = 16 * EPSILON
    sigma = math.sqrt(expect * (1 - expect) / CONTROL_POINTS)
    ok = report.n_in_slab >= 1000 and not report.truncated
    ok = ok and abs(report.control_hit_fraction - expect) <= 4 * sigma
    ok = ok and report.concentration_ratio is not None
    ok = ok and report.concentration_ratio >= 10.0
    ok = ok and elapsed < BIG_RUN_BUDGET_SECONDS
    _criterion(
        7,
        f"hit fraction {report.hit_fraction:.4f} vs control "
        f"{report.control_hit_fraction:.6f}: ratio "
        f"{report.concentration_ratio:.2f} >= 10 ({elapsed:.0f}s)",
        ok,
    )


def test_criterion_08_null_model_sanity(big_run):
    report, _ = big_run
    expect = 16 * EPSILON
    sigma = math.sqrt(expect * (1 - expect) / CONTROL_POINTS)
    ok = report.control_hit_fraction <= expect + 4 * sigma
    _criterion(
        8,
        f"control hit fraction {report.control_hit_fraction:.6f} <= 16*eps + 4 sigma",
        ok,
    )


def test_criterion_09_byte_identical_reruns(tmp_path, capsys):
    args = [
        "planes", "--a", "8", "--seed", "2", "--target-points", "200",
        "--control-points", "10000", "--census-steps", "1000", "--grid", "24",
        "--min-ratio", "0",
    ]
    code_a = cli_main(args + ["--output-dir", str(tmp_path / "a")])
    out_a = capsys.readouterr().out
    code_b = cli_main(args + ["--output-dir", str(tmp_path / "b")])
    out_b = capsys.readouterr().out
    ok = code_a == code_b == 0 and out_a == out_b
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    ok = ok and names_a == names_b and len(names_a) == 11  # points+overlay+report+8 meshes
    for name in names_a:
        ok = ok and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    ok = ok and json.loads(out_a)["n_in_slab"] == 200
    _criterion(9, "two identical planes runs emit byte-identical CSV and JSON", ok)


def test_criterion_10_mesh_topology():
    fam = family(23)
    ok = True
    for plane in fam.planes:
        if plane.m != (1 << 23) + 1:
            continue
        strips = mesh(plane, 2.0**-23, 2.0**23, 64)
        ok = ok and component_count(strips) == 2
    _criterion(10, "each 2^23+1 plane mesh has exactly 2 connected components on the slab", ok)
