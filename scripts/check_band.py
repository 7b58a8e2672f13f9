#!/usr/bin/env python3
"""Record a band of the sweep record, or check a fresh run against one.

A record is one JSON file: the band (`A..B`), the machine
(`bench_counts.machine`), the run of each sweep, each in a fresh child
process and timed by `bench_counts.cli_call` (wall time, the CPU of the call
with its sweep workers, peak resident set), and the payload rows of
`fricke7 hasse` and `fricke7 nakaya` over the band with `--jobs 2` (`JOBS`),
as the CLI writes them.

    PYTHONPATH=src python scripts/check_band.py --band 29000..30000 tests/count_reports_29000_30000.json
    PYTHONPATH=src python scripts/check_band.py tests/count_reports_29000_30000.json

With `--band` it runs the band and writes the record; without, it checks.

Checking reruns both sweeps over the record's band and compares every row
with the recorded one.  Either way the per-class verdict table goes to
standard output, and the exit code is 1 when a row differs from the record,
a verdict is FAIL (a counterexample stays a hard FAIL) or a prime failed,
else 0.  A band the CLI refuses (an empty range, say) exits non-zero after
the CLI's usage message.  It runs for minutes (about ten at 3 10^4 on two
cores), so it is not part of the test suite.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from bench_counts import child_json, cli_call, machine

SWEEPS = ("hasse", "nakaya")
JOBS = 2  # sweep workers, as in every recorded band


def run_sweep(command: str, band: str):
    """One CLI sweep over `band` in this process: its exit code, its payload
    rows and its run (`cli_call`).  A call the CLI refuses writes no rows,
    and this process exits with its code."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rows.json"
        code, run = cli_call([command, "--primes", band, "--jobs", str(JOBS), "--format", "json", "--out", str(out)])
        if not out.exists():
            sys.exit(code)
        return {"code": code, "rows": json.loads(out.read_text())["rows"], "run": run}


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
        done = child_json(__file__, ["--child", command, "--band", band, "-"])
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
        path.write_text(json.dumps({
            "band": band,
            "jobs": JOBS,
            "machine": machine(),
            "runs": runs,
            "rows": rows,
        }, indent=1) + "\n")
    print(verdict_table(rows))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
