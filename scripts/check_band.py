#!/usr/bin/env python3
"""Record a band of the sweep record, or check a fresh run against one.

A record is one JSON file: the band (`A..B`), the machine, the wall time,
CPU time (the CLI process and its sweep workers) and peak resident set of
each sweep, each run in a fresh child process, and the payload rows of `fricke7 hasse` and `fricke7 nakaya` over
the band with `--jobs 2` (`JOBS`), as the CLI writes them.

    PYTHONPATH=src python scripts/check_band.py --band 29000..30000 tests/count_reports_29000_30000.json
    PYTHONPATH=src python scripts/check_band.py tests/count_reports_29000_30000.json

With `--band` it runs the band and writes the record; without, it checks.

Checking reruns both sweeps over the record's band and compares every row
with the recorded one.  Either way the per-class verdict table goes to
standard output, and the exit code is 1 when a row differs from the record,
a verdict is FAIL (a counterexample stays a hard FAIL) or a prime failed,
else 0.  It runs for minutes (about ten at 3 10^4 on two cores), so it is not
part of the test suite.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from fricke7.cli import main as cli_main

SWEEPS = ("hasse", "nakaya")
JOBS = 2  # sweep workers, as in every recorded band


def run_sweep(command: str, band: str):
    """One CLI sweep over `band` in this process: its exit code, its payload
    rows, and its wall time, CPU time (this process and its reaped
    workers) and peak resident set (the larger of the two)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rows.json"
        t = time.perf_counter()
        code = cli_main([command, "--primes", band, "--jobs", str(JOBS), "--format", "json", "--out", str(out)])
        wall = time.perf_counter() - t
        rows = json.loads(out.read_text())["rows"]
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"code": code, "rows": rows, "run": {
        "wall_s": round(wall, 1),
        "cpu_s": round(me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime, 1),
        "peak_rss_mb": round(max(me.ru_maxrss, kids.ru_maxrss) / 1024, 1),
    }}


def child_sweep(command: str, band: str):
    """`run_sweep` in a fresh child process, so that its CPU time and peak
    resident set are this sweep's alone."""
    proc = subprocess.run([sys.executable, __file__, "--child", command, "--band", band, "-"],
                          capture_output=True, text=True, check=True)
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout)


def _passes(row) -> bool:
    """No error, and no verdict FAIL (SKIP is a verdict by design)."""
    verdicts = row.get("verdicts", {})
    flat = [row.get(k) for k in ("nakaya", "consistency")] + list(verdicts.values())
    return "error" not in row and "FAIL" not in flat


def verdict_table(rows) -> str:
    """Rows whose verdicts all pass, by class l mod 7, per sweep."""
    lines = ["| sweep | " + " | ".join(f"l = {c} (7)" for c in range(1, 7)) + " |", "|---" * 7 + "|"]
    for command in SWEEPS:
        cells = []
        for c in range(1, 7):
            mine = [r for r in rows[command] if r["p"] % 7 == c and "skipped" not in r]
            cells.append(f"{sum(map(_passes, mine))} of {len(mine)}")
        lines.append(f"| {command} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("record", help="the record's JSON file")
    ap.add_argument("--band", metavar="A..B", help="run this band and write the record")
    ap.add_argument("--child", choices=SWEEPS, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:  # one sweep, its result as JSON on stdout
        print(json.dumps(run_sweep(args.child, args.band)))
        return 0
    path = Path(args.record)
    old = None if args.band else json.loads(path.read_text())
    band = args.band or old["band"]
    rows, runs, bad = {}, {}, False
    for command in SWEEPS:
        done = child_sweep(command, band)
        rows[command], runs[command] = done["rows"], done["run"]
        print(f"{command} --primes {band} --jobs {JOBS}: exit {done['code']}, {runs[command]}", file=sys.stderr)
        bad |= done["code"] != 0
    if old is not None:
        for command in SWEEPS:
            want = {r["p"]: r for r in old["rows"][command]}
            got = {r["p"]: r for r in rows[command]}
            for p in sorted(set(want) | set(got)):
                if want.get(p) != got.get(p):
                    bad = True
                    print(f"{command} p={p}: recorded {want.get(p)}, now {got.get(p)}", file=sys.stderr)
    else:
        import platform

        path.write_text(json.dumps({
            "band": band,
            "jobs": JOBS,
            "machine": {"platform": platform.platform(), "cpus": os.cpu_count(), "python": platform.python_version()},
            "runs": runs,
            "rows": rows,
        }, indent=1) + "\n")
    print(verdict_table(rows))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
