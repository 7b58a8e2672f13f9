#!/usr/bin/env python3
"""Time the per-prime work of both sweeps and write BENCH_count_factors_<sha>.json:
the median of k runs at each prime of the hasse sweep,
`verify_count_formulas(count_factors)`, by default one prime per class l mod 7
near 2000, in (2048, 2200] (where the square of the Hasse polynomial, of
degree about 2l, first passes 2^13 coefficients) and near 10^4; and of the
nakaya sweep's worker with the count consistency (`sweep._nakaya_worker`), by
default one prime per class p mod 7 in each half of the `nakaya-mix`
benchmark, (11, 300] (where the ss^(7*) oracle runs) and (300, 1000]; with
the machine and the git sha of the checkout `fricke7` was imported from.

    PYTHONPATH=src python scripts/bench_counts.py [--primes 2003,1997] [--repeats 3] [--out-dir .]

`--primes` replaces both default lists.  Point PYTHONPATH at another
checkout's src/ to time that checkout; compare two files only when they come
from the same machine.
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
from fricke7.sweep import _nakaya_worker

# one prime per class l mod 7 = 1..6, near 2000, in (2048, 2200] and near 10^4
PRIMES = (
    2003, 1997, 1949, 1999, 1993, 1987,
    2087, 2179, 2131, 2083, 2161, 2113,
    9941, 9949, 9901, 9923, 9973, 9967,
)
# one prime per class p mod 7 = 1..6, the largest in (11, 300] and in (300, 1000]
NAKAYA_PRIMES = (
    281, 233, 283, 277, 271, 293,
    967, 947, 997, 991, 971, 937,
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


def medians(run, repeats: int):
    """The last result of `run()` over `repeats` calls, and the timing fields."""
    runs = []
    for _ in range(repeats):
        t = time.perf_counter()
        out = run()
        runs.append(time.perf_counter() - t)
    return out, {"median_s": round(statistics.median(runs), 4), "runs_s": [round(t, 4) for t in runs]}


def time_prime(p: int, repeats: int):
    ctx = PrimeContext.make(p)
    rep, timing = medians(lambda: verify_count_formulas(ctx, count_factors(ctx)), repeats)
    return {
        "p": p,
        "class": p % 7,
        **timing,
        "counts": {k: getattr(rep, k) for k in ("N1", "N2", "N3", "N6", "L")},
        "verdicts": rep.verdicts,
    }


def time_nakaya(p: int, repeats: int):
    row, timing = medians(lambda: _nakaya_worker((p, False, True)), repeats)
    if row.failure:
        raise SystemExit(f"p={p}: {row.failure.stage}: {row.failure.error}")
    return {
        "p": p,
        "class": p % 7,
        **timing,
        "L": row.report.L,
        "L7star": row.report.L7star,
        "oracle_match": row.report.oracle_match,
        "nakaya_ok": row.report.nakaya_ok,
        "consistency_ok": row.consistency["ok"] if row.consistency else None,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--primes", help="comma list of primes for both timings (default: PRIMES and NAKAYA_PRIMES)")
    ap.add_argument("--repeats", type=int, default=3, help="runs per prime (k)")
    ap.add_argument("--out-dir", default=".", help="directory for the BENCH file")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    given = [int(p) for p in args.primes.split(",")] if args.primes else None

    root = Path(fricke7.__file__).resolve().parents[2]
    sha, dirty = git_state(root)
    rows, nakaya_rows = [], []
    for p in given or PRIMES:
        rows.append(time_prime(p, args.repeats))
        print(f"l={p}: {rows[-1]['median_s']:.3f} s", file=sys.stderr)
    for p in given or NAKAYA_PRIMES:
        nakaya_rows.append(time_nakaya(p, args.repeats))
        print(f"nakaya p={p}: {nakaya_rows[-1]['median_s']:.3f} s", file=sys.stderr)
    out = Path(args.out_dir) / f"BENCH_count_factors_{sha}.json"
    payload = {
        "what": "verify_count_formulas(count_factors) per prime (rows) and "
                "sweep._nakaya_worker with the count consistency (nakaya_rows), median of k runs",
        "sha": sha,
        "src_dirty": dirty,
        "repeats": args.repeats,
        "machine": machine(),
        "total_median_s": round(sum(r["median_s"] for r in rows), 4),
        "rows": rows,
        "nakaya_total_median_s": round(sum(r["median_s"] for r in nakaya_rows), 4),
        "nakaya_rows": nakaya_rows,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
