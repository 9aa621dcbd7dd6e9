"""Command-line front end: generation, exhaustive checks, plane test, case census.

Reports go to stdout (JSON for `planes` and `census`, a plain table for
`verify`), progress notes to stderr, data files to the output directory.
Exit codes: 0 pass, 1 verification or threshold failure, 2 usage or I/O
error.  Every command is deterministic given its flags; seeds are given in
hex to keep 64-bit values unambiguous.
"""

import argparse
from dataclasses import fields
from itertools import islice
import json
import math
import sys

from .engine import DEFAULT_PARAMS, Params, iter_outputs, seed_state, to_unit
from .experiment import (MAX_CENSUS_STEPS, MAX_CONTROL_POINTS, MAX_TARGET_POINTS, ExperimentConfig, case_census,
                         control_baseline, run_experiment)
from .planes import MAX_GRID, family, union_rate
from .xorapprox import compound_probability, count_cases, verify_xor_diff, verify_xor_sum


def _hex_word(text: str) -> int:
    value = int(text, 16)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return value


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=int, default=DEFAULT_PARAMS.a,
                        help="left-shift count (default %(default)s)")
    parser.add_argument("--b", type=int, default=DEFAULT_PARAMS.b,
                        help="first right-shift count (default %(default)s)")
    parser.add_argument("--c", type=int, default=DEFAULT_PARAMS.c,
                        help="second right-shift count (default %(default)s)")


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=_hex_word, default=ExperimentConfig.seed, metavar="HEX",
        help=f"64-bit seed in hex (default {ExperimentConfig.seed:#x})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsplanes",
        description="xorshift128+ outputs, exhaustive xor-arithmetic checks, and plane-structure experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="print raw or unit-interval outputs")
    _add_params(p_gen)
    _add_seed(p_gen)
    p_gen.add_argument("--count", type=int, default=10, help="number of outputs (default 10)")
    p_gen.add_argument(
        "--format", choices=("hex", "unit"), default="hex",
        help="hex 64-bit words or unit-interval reals (default hex)",
    )

    p_verify = sub.add_parser("verify", help="exhaustive xor-vs-arithmetic checks")
    p_verify.add_argument(
        "--n-max", type=int, default=10,
        help="check widths 1..n_max (default 10, limit 12)",
    )

    p_planes = sub.add_parser("planes", help="slab sampling, hit statistics, plot data")
    _add_params(p_planes)
    _add_seed(p_planes)
    p_planes.add_argument("--epsilon", type=float, default=ExperimentConfig.epsilon,
                          help="plane-proximity tolerance (default %(default)s)")
    p_planes.add_argument("--target-points", type=int, default=ExperimentConfig.target_points,
                          help=f"slab points to collect (default %(default)s, at most {MAX_TARGET_POINTS})")
    p_planes.add_argument("--scan-cap", type=int, default=ExperimentConfig.scan_cap,
                          help="hard cap on triples scanned (default: sized to the target)")
    p_planes.add_argument("--magnify-exp", type=int, default=ExperimentConfig.magnify_exp,
                          help="slab/magnification exponent e: x < 2**-e, x-axis scaled by 2**e (default a)")
    p_planes.add_argument("--grid", type=int, default=ExperimentConfig.grid,
                          help=f"mesh stations per axis (default %(default)s, at most {MAX_GRID})")
    p_planes.add_argument("--control-points", type=int, default=ExperimentConfig.control_points,
                          help=f"control sample size (default %(default)s, at most {MAX_CONTROL_POINTS}, "
                               "about 2 minutes with the compiled kernel)")
    p_planes.add_argument("--control-seed", type=_hex_word, default=ExperimentConfig.control_seed, metavar="HEX",
                          help=f"control generator key in hex (default {ExperimentConfig.control_seed:#x})")
    p_planes.add_argument("--census-steps", type=int, default=ExperimentConfig.census_steps,
                          help=f"steps for the case census (default %(default)s, at most {MAX_CENSUS_STEPS}, "
                               "about 15 minutes)")
    p_planes.add_argument("--n-bits", type=int, default=ExperimentConfig.n_bits,
                          help="top-bit width for the census (default %(default)s)")
    p_planes.add_argument("--min-ratio", type=float, default=10.0,
                          help="pass threshold on hit/control ratio (default 10)")
    p_planes.add_argument("--output-dir", default="planes_out",
                          help="directory for CSV/JSON data files (default planes_out)")
    p_planes.add_argument("--control-only", action="store_true",
                          help="compute only the control baseline")
    p_planes.set_defaults(method="fast")  # read by perfbench/layers.py; goes with its pipeline copy (ROADMAP item 2)

    p_census = sub.add_parser("census", help="compound-case frequencies over a stream")
    _add_params(p_census)
    _add_seed(p_census)
    p_census.add_argument("--steps", type=int, default=ExperimentConfig.census_steps,
                          help=f"steps to tally (default %(default)s, at most {MAX_CENSUS_STEPS}, about 15 minutes)")
    p_census.add_argument("--n-bits", type=int, default=ExperimentConfig.n_bits,
                          help="top-bit width (default %(default)s)")

    return parser


def cmd_gen(args) -> int:
    if args.count < 0:
        raise ValueError(f"count must be >= 0, got {args.count}")
    state = seed_state(args.seed, Params(args.a, args.b, args.c))
    for out in islice(iter_outputs(state), args.count):
        if args.format == "hex":
            print(f"0x{out:016x}")
        else:
            print(format(to_unit(out), ".17g"))
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.n_max <= 12:
        raise ValueError(f"--n-max must be in 1..12, got {args.n_max}")
    header = f"{'n':>3} {'pairs':>10} {'sum':>8} {'diff':>8} {'rdiff':>8} {'union':>9} {'expected':>9} {'ineq':>5} {'ok':>3}"
    print(header)
    all_ok = True
    for n in range(1, args.n_max + 1):
        counts = count_cases(n)
        expected_union = 3 * 3**n - 3 * 2**n + 1
        counts_ok = (
            counts.total == 4**n
            and counts.n_sum == counts.n_diff == counts.n_rev_diff == 3**n
            and counts.n_sum_diff == counts.n_diff_rev_diff == counts.n_rev_diff_sum == 2**n
            and counts.n_all_three == 1
            and counts.n_any == expected_union
        )
        ineq_ok = verify_xor_sum(n) and verify_xor_diff(n)
        ok = counts_ok and ineq_ok
        all_ok = all_ok and ok
        print(
            f"{n:>3} {counts.total:>10} {counts.n_sum:>8} {counts.n_diff:>8} "
            f"{counts.n_rev_diff:>8} {counts.n_any:>9} {expected_union:>9} "
            f"{'yes' if ineq_ok else 'NO':>5} {'yes' if ok else 'NO':>3}"
        )
    return 0 if all_ok else 1


def cmd_planes(args) -> int:
    if not math.isfinite(args.min_ratio):
        raise ValueError(f"--min-ratio must be finite, got {args.min_ratio}")
    params = Params(args.a, args.b, args.c)
    if args.control_only:
        fam = family(params.a)
        fraction = control_baseline(args.control_points, fam, args.epsilon, args.control_seed)
        payload = {
            "control_points": args.control_points,
            "epsilon": args.epsilon,
            "control_hit_fraction": fraction,
            "uniform_union_rate": union_rate(fam, args.epsilon),
        }
        print(json.dumps(payload, indent=2))
        return 0
    settings = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if f.name != "params"}
    cfg = ExperimentConfig(params=params, **settings)
    print(f"scanning slab x < 2**-{cfg.spec.e} for {cfg.target_points} points", file=sys.stderr)
    report = run_experiment(cfg)
    print(json.dumps(report.to_dict(), indent=2))
    if report.truncated:
        print(f"scan cap reached with {report.n_in_slab}/{cfg.target_points} points", file=sys.stderr)
    ratio = report.concentration_ratio
    if report.n_in_slab == 0:
        print("no concentration ratio: the scan found no slab point", file=sys.stderr)
        return 1
    if ratio is None:
        print(
            f"no concentration ratio: none of the {args.control_points} control points "
            f"fell within epsilon {args.epsilon} of a plane",
            file=sys.stderr,
        )
        return 1
    if ratio < args.min_ratio:
        print(f"concentration ratio {ratio} below threshold {args.min_ratio}", file=sys.stderr)
        return 1
    print(f"concentration ratio {ratio:.2f} (threshold {args.min_ratio})", file=sys.stderr)
    return 0


def cmd_census(args) -> int:
    params = Params(args.a, args.b, args.c)
    state = seed_state(args.seed, params)
    census = case_census(state, args.steps, args.n_bits)
    payload = {
        "params": {"a": params.a, "b": params.b, "c": params.c},
        "seed": f"0x{args.seed:016x}",
        "n_steps": census.n_steps,
        "n_bits": census.n_bits,
        "grid": census.grid,
        "compound_frequency": census.compound_frequency,
        "uniform_model_estimate": census.uniform_model_estimate,
        "uniform_model_exact": str(compound_probability(census.n_bits)[0]),
        "carry_leak_frequency": census.carry_leak_frequency,
    }
    print(json.dumps(payload, indent=2))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "verify": cmd_verify,
        "planes": cmd_planes,
        "census": cmd_census,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
