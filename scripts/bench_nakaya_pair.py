#!/usr/bin/env python3
"""Time the nakaya sweep's per-prime work alone on two trees, alternately,
and write both BENCH files as `bench_counts.py --paired` does, with no hasse
rows and no CLI rows.

`bench_counts.py --primes` gives the hasse and the nakaya rows one list of
primes, and near 5 10^4 a hasse row builds the Hasse polynomial with direct
products (tens of minutes a row), so a nakaya pair there is timed here:

    PYTHONPATH=src python scripts/bench_nakaya_pair.py --primes 50023,49919,50053,49991,49999,50021 --out-dir bench OTHER/src
"""

import argparse
import sys
from pathlib import Path

import fricke7
from bench_counts import checked_primes, timed_rows, write_files


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", metavar="OTHER_SRC", help="the src/ directory of the second tree")
    ap.add_argument("--primes", required=True, help="comma list of primes")
    ap.add_argument("--repeats", type=int, default=3, help="alternations per prime (k)")
    ap.add_argument("--out-dir", default=".", help="directory for the BENCH files")
    args = ap.parse_args()
    primes = checked_primes(args.primes, args.repeats)
    srcs = (Path(fricke7.__file__).resolve().parents[1], Path(args.other).resolve())
    rows = timed_rows(srcs, [("nakaya", (p,)) for p in primes], args.repeats)
    write_files([(srcs[t], [], rows[t], []) for t in (0, 1)], primes, args.out_dir, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
