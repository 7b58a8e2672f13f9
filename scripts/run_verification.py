#!/usr/bin/env python3
"""Run the complete verification battery end to end and print a summary.

This drives the same code paths as the CLI subcommands, with the sweep ranges
used by the acceptance suite.  Expect a few minutes of runtime; pass --quick
for a reduced sweep.
"""

import argparse
import sys
import time

from fricke7.cli import main as cli_main


def run(label: str, argv) -> bool:
    t0 = time.time()
    code = cli_main(argv)
    print(f"== {label}: exit {code} ({time.time()-t0:.0f}s)", file=sys.stderr)
    return code == 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="smaller sweep ranges")
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args()

    hi_hasse = "200" if args.quick else "1999"  # criterion 4 checks N1/N3 for every l < 2000
    hi_nakaya = "200" if args.quick else "1000"
    jobs = str(args.jobs)

    checks = [
        ("exact identities", ["identities", "--format", "json", "--out", "/dev/null"]),
        ("q-series identities", ["qseries", "--prec", "200", "--format", "json", "--out", "/dev/null"]),
        ("CM validation", ["cm", "--bits", "300", "--format", "json", "--out", "/dev/null"]),
        (
            "hasse sweep",
            ["hasse", "--primes", f"5..{hi_hasse}", "--jobs", jobs, "--format", "json", "--out", "/dev/null"],
        ),
        (
            "nakaya sweep",
            ["nakaya", "--primes", f"5..{hi_nakaya}", "--jobs", jobs, "--format", "json", "--out", "/dev/null"],
        ),
        ("ss7star spot check", ["ss7star", "--primes", "41,53,97", "--format", "json", "--out", "/dev/null"]),
    ]
    ok = True
    for label, argv in checks:
        ok = run(label, argv) and ok
    print("ALL PASS" if ok else "FAILURES PRESENT", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
