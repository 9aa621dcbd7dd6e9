"""Set-up probe: a fresh interpreter made ready to scan.

Usage: python3 perfbench/probe.py <planes flags>

Imports the program (and numpy with it), parses the flags as `xsplanes
planes` does, seeds the generator and builds the plane family, then prints
the seconds the imports took and exits.  The caller times the process from
start to that line.
"""

import sys
import time


def main(argv: list[str]) -> None:
    start = time.perf_counter()
    from xsplanes.cli import build_parser
    from xsplanes.engine import Params, seed_state
    from xsplanes.planes import family

    import_s = time.perf_counter() - start
    args = build_parser().parse_args(["planes", *argv])
    seed_state(args.seed, Params(args.a, args.b, args.c))
    family(args.a)
    print(repr(import_s), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
