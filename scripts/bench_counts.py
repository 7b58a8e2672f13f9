#!/usr/bin/env python3
"""Time the hasse sweep's per-prime work, `verify_count_formulas(count_factors)`,
and write BENCH_count_factors_<sha>.json: the median of k runs at each prime,
by default one prime per class l mod 7 near 2000, in (2048, 2200] (where
the square of the Hasse polynomial, of degree about 2l, first passes 2^13
coefficients) and near 10^4, with the machine and the git sha of the
checkout `fricke7` was imported from.

    PYTHONPATH=src python scripts/bench_counts.py [--primes 2003,1997] [--repeats 3] [--out-dir .]

Point PYTHONPATH at another checkout's src/ to time that checkout; compare two
files only when they come from the same machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import fricke7
from fricke7.ffpoly import PrimeContext
from fricke7.hasse7 import count_factors, verify_count_formulas

# one prime per class l mod 7 = 1..6, near 2000, in (2048, 2200] and near 10^4
PRIMES = (
    2003, 1997, 1949, 1999, 1993, 1987,
    2087, 2179, 2131, 2083, 2161, 2113,
    9941, 9949, 9901, 9923, 9973, 9967,
)


def git_state(root: Path):
    """(short sha, whether src/ differs from it), or ("unknown", None) outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, check=True).stdout

    try:
        return git("rev-parse", "--short=12", "HEAD").strip(), bool(git("status", "--porcelain", "--", "src").strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def machine():
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def time_prime(p: int, repeats: int):
    ctx = PrimeContext.make(p)
    runs = []
    for _ in range(repeats):
        t = time.perf_counter()
        rep = verify_count_formulas(ctx, count_factors(ctx))
        runs.append(time.perf_counter() - t)
    return {
        "p": p,
        "class": p % 7,
        "median_s": round(statistics.median(runs), 4),
        "runs_s": [round(t, 4) for t in runs],
        "counts": {k: getattr(rep, k) for k in ("N1", "N2", "N3", "N6", "L")},
        "verdicts": rep.verdicts,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--primes", default=",".join(map(str, PRIMES)), help="comma list of primes")
    ap.add_argument("--repeats", type=int, default=3, help="runs per prime (k)")
    ap.add_argument("--out-dir", default=".", help="directory for the BENCH file")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    root = Path(fricke7.__file__).resolve().parents[2]
    sha, dirty = git_state(root)
    rows = []
    for p in map(int, args.primes.split(",")):
        rows.append(time_prime(p, args.repeats))
        print(f"l={p}: {rows[-1]['median_s']:.3f} s", file=sys.stderr)
    out = Path(args.out_dir) / f"BENCH_count_factors_{sha}.json"
    payload = {
        "what": "verify_count_formulas(count_factors) per prime, median of k runs",
        "sha": sha,
        "src_dirty": dirty,
        "repeats": args.repeats,
        "machine": machine(),
        "total_median_s": round(sum(r["median_s"] for r in rows), 4),
        "rows": rows,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
