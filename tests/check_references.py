"""Full-size checks of the compiled stages against their references in helpers.py.

Each check runs one xsplanes command twice in this process: once as
shipped, and once with every compiled stage replaced by its numpy or
Python reference (helpers.reference_stages): the lane scan kernel, whose
numpy stand-in runs each call of the scan's whole driver, the lane
starts, the hit finishing (an argsort), the census, the plane scorer
(nearest_plane), the control count, the mesh stations (the array mesh)
and the CSV formatter.  The exit codes, stdout, stderr and every output
file must agree byte for byte.

- wide-slab: the benchmark workload at full size.  Its 50,000 points at
  x < 2**-10 are the first 50,000 hits by stream offset, so they check the
  kernel's (offset, s0, s1) hit records and their sorting, and the scorer
  on each of them.  It also runs 262,144 control points, a 200,000-step
  census and 4,072 mesh strips at --grid 256.
- sparse-slab: seed 3 at x < 2**-23 takes four scan blocks, the first of
  51,200 lanes 32,769 steps apart, so the compiled and the numpy lane
  starts meet in a first block and in three follow-up blocks of 768, 256
  and 512 lanes, the last doubled after a block that found no hit.
- census at --n-bits 1, 3 and 16 and at shifts (26, 19, 5), each over
  4,000,000 steps, 1,954 steps a lane of the numpy census.

Run from the root of a checkout, with gcc on PATH:

    PYTHONPATH=src python3 tests/check_references.py

It prints one line a check, naming what differs, and exits 1 if any
check differs.  The checks take about 17 s on a 2-core AVX-512 Xeon,
13 s of it in sparse-slab, where the numpy scan stands in for each of
the block's kernel calls; the tier-1 tests run the same comparisons
scaled down.
"""

import contextlib
import io
from pathlib import Path
import sys
import tempfile
import time

from helpers import reference_stages
from xsplanes.cli import build_parser, main

CHECKS = {
    "wide-slab": ["planes", "--seed", "1", "--magnify-exp", "10", "--target-points", "50000",
                  "--control-points", "262144", "--control-seed", "1", "--census-steps", "200000",
                  "--grid", "256", "--min-ratio", "10.0"],
    "sparse-slab": ["planes", "--seed", "3", "--control-seed", "3", "--magnify-exp", "23", "--target-points", "200"],
    **{f"census {' '.join(flags)}": ["census", "--steps", "4000000", *flags]
       for flags in (["--n-bits", "1"], ["--n-bits", "3"], ["--n-bits", "16"], ["--a", "26", "--b", "19", "--c", "5"])},
}


def run(argv, out_dir: Path):
    """The exit code, stdout, stderr and output files, by name, of the command argv."""
    if argv[0] == "planes":
        argv = [*argv, "--output-dir", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
    return code, stdout.getvalue(), stderr.getvalue(), files


def main_checks() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CHECKS.items():
            args = build_parser().parse_args(argv)
            start = time.perf_counter()
            shipped = run(argv, Path(tmp, name, "shipped"))
            with reference_stages():
                reference = run(argv, Path(tmp, name, "reference"))
            differ = [part for part, a, b in zip(("exit code", "stdout", "stderr"), shipped, reference) if a != b]
            differ += sorted(f for f in shipped[3].keys() | reference[3].keys()
                             if shipped[3].get(f) != reference[3].get(f))
            if shipped[0] != 0 or len(shipped[3]) != (11 if args.command == "planes" else 0):
                differ.append(f"shipped run: exit {shipped[0]}, {len(shipped[3])} files")
            failed += bool(differ)
            verdict = f"DIFFERENT {', '.join(differ)}" if differ else "same"
            print(f"{verdict}: {name} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_checks())
