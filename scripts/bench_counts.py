#!/usr/bin/env python3
"""Time the per-prime work of both sweeps and write BENCH_count_factors_<sha>.json:
the median of k runs at each prime of the hasse sweep's per-prime work
(`hasse_sweep([p])`: ss_l, `count_factors` and `verify_count_formulas`), by
default one prime per class l mod 7 near 2000, in (2048, 2200] (where the square of the Hasse polynomial, of
degree about 2l, first passes 2^13 coefficients) and near 10^4; and of the
nakaya sweep's per-prime work (`nakaya_sweep([p])`: `counts_and_nakaya` and
`count_consistency` on its report), by default one prime per class p mod 7 in
each half of the `nakaya-mix` benchmark, (11, 300] (where the ss^(7*) oracle
runs) and (300, 1000]; of
whole CLI sweep calls (`cli_rows`), one `hasse --jobs 2` call on two primes
near 2000, and one `nakaya --jobs 2` and one `ss7star --jobs 2` call on three
primes of each of those halves, each run in a fresh child process with its
wall time, CPU including the sweep's worker processes, and peak resident set
(the larger of the call's process and its largest worker), so that the cost
of starting, feeding and stopping the workers shows; with the machine and
the git sha of the checkout `fricke7` was imported from.

    PYTHONPATH=src python scripts/bench_counts.py [--primes 2003,1997] [--repeats 3] [--out-dir .]
    PYTHONPATH=src python scripts/bench_counts.py --paired OTHER/src [--primes ...] [--repeats 5]

`--primes` replaces the per-prime lists (the hasse and the nakaya rows); the
three CLI calls keep their perfbench-shaped primes.  A `--primes` run names
its files with the suffix -p<min>-<max>-n<count> of its primes after the
sha, so it cannot overwrite a default run's files.  Point PYTHONPATH
at another checkout's src/ to time that checkout; compare two files only when
they come from the same machine.  `--paired OTHER_SRC` times this src/ tree
and OTHER_SRC together: at each prime or CLI call it runs k = `--repeats`
alternations, each one child process per tree (the first tree alternating),
so both trees see the same drift of the machine.  It writes both BENCH files,
and each row gains `paired_ratio`, the median over the alternations of its
tree's time over the other tree's (for a CLI row, one ratio per metric); two
trees with the same sha (copies outside git, say) get the names
BENCH_count_factors_<sha>[-p...]-this.json and -other.json.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import fricke7
from fricke7.sweep import hasse_sweep, nakaya_sweep

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
# one CLI call per sweep, as perfbench's workloads make them: two primes near
# 2000 (one per worker), and three primes of each half of nakaya-mix, which
# the ss7star call takes too (its workers also factor ss_p^(7*))
CLI_CALLS = (
    ("hasse", (1901, 2083)),
    ("nakaya", (31, 139, 229, 499, 659, 907)),
    ("ss7star", (31, 139, 229, 499, 659, 907)),
)
CLI_METRICS = ("wall_s", "cpu_s", "peak_rss_mb")


# subprocess, platform and importlib.metadata are imported where they are
# used, so that the child process of a CLI row loads little beyond what the
# CLI loads, and its peak RSS is the CLI's.


def git_state(root: Path):
    """(short sha, whether src/ differs from it), or ("unknown", None) outside git."""
    import subprocess

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, check=True).stdout

    try:
        return git("rev-parse", "--short=12", "HEAD").strip(), bool(git("status", "--porcelain", "--", "src").strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def machine():
    import platform
    from importlib import metadata

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
    (row,), timing = medians(lambda: hasse_sweep([p]), repeats)
    if "error" in row:
        raise SystemExit(f"hasse at p={p}: {row['error']} (in {row['stage']})")
    return {
        "p": p,
        "class": p % 7,
        **timing,
        "counts": {k: row[k] for k in ("N1", "N2", "N3", "N6", "L")},
        "verdicts": row["verdicts"],
    }


def time_nakaya(p: int, repeats: int):
    (row,), timing = medians(lambda: nakaya_sweep([p]), repeats)
    if "error" in row:
        raise SystemExit(f"nakaya at p={p}: {row['error']} (in {row['stage']})")
    return {
        "p": p,
        "class": p % 7,
        **timing,
        "L": row["L"],
        "L7star": row["L7star"],
        "oracle_match": row["oracle_match"],
        "nakaya_ok": row["nakaya"] == "PASS",
        "consistency_ok": row["consistency"] == "PASS" if "consistency" in row else None,
    }


def time_cli(command: str, primes):
    """One `fricke7 <command> --jobs 2` call on `primes` in this process: its
    wall time, the CPU of this process and of its reaped children (the
    sweep's workers), and the larger of their peak resident sets."""
    from fricke7.cli import main as cli_main

    argv = [command, "--primes", ",".join(map(str, primes)), "--jobs", "2", "--format", "json", "--out", os.devnull]
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    t = time.perf_counter()
    code = cli_main(argv)
    wall = time.perf_counter() - t
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    if code:
        raise SystemExit(f"{command} --primes {argv[2]} exited {code}")
    return {
        "wall_s": round(wall, 4),
        "cpu_s": round(self1.ru_utime + self1.ru_stime - self0.ru_utime - self0.ru_stime
                       + kids.ru_utime + kids.ru_stime, 4),
        "peak_rss_mb": round(max(self1.ru_maxrss, kids.ru_maxrss) / 1024, 2),
    }


TIMERS = {"hasse": time_prime, "nakaya": time_nakaya}


def payload(sha, dirty, repeats: int, rows, nakaya_rows, cli):
    return {
        "what": "the per-prime work of the hasse sweep (rows) and of the nakaya sweep "
                "(nakaya_rows), and whole CLI sweep calls in child processes (cli_rows), "
                "median of k runs",
        "sha": sha,
        "src_dirty": dirty,
        "repeats": repeats,
        "machine": machine(),
        "total_median_s": round(sum(r["median_s"] for r in rows), 4),
        "rows": rows,
        "nakaya_total_median_s": round(sum(r["median_s"] for r in nakaya_rows), 4),
        "nakaya_rows": nakaya_rows,
        "cli_rows": cli,
    }


def child_run(src: Path, kind: str, primes: str):
    """One run of `kind` on the comma list `primes` in a child process that
    imports fricke7 from src."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--child", kind, "--primes", primes],
                          capture_output=True, text=True, env=env)
    if proc.returncode:
        raise SystemExit(f"{src}: {kind} --primes {primes} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def paired_rows(srcs, kind: str, primes, repeats: int):
    """Rows of `kind` for both trees of `srcs`, k = repeats alternations per
    prime, each with its `paired_ratio`."""
    out = ([], [])
    for p in primes:
        runs = ([], [])
        for i in range(repeats):
            for t in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[t].append(child_run(srcs[t], kind, str(p)))
        times = [[r["runs_s"][0] for r in runs[t]] for t in (0, 1)]
        for t in (0, 1):
            row = dict(runs[t][-1], median_s=round(statistics.median(times[t]), 4), runs_s=times[t])
            row["paired_ratio"] = round(statistics.median(a / b for a, b in zip(times[t], times[1 - t])), 4)
            out[t].append(row)
        print(f"{kind} p={p}: {out[0][-1]['median_s']:.3f} s vs {out[1][-1]['median_s']:.3f} s,"
              f" paired ratio {out[0][-1]['paired_ratio']:.3f}", file=sys.stderr)
    return out


def cli_rows(srcs, calls, repeats: int):
    """A row per CLI call of `calls` for each tree of `srcs`: k = repeats runs,
    each one child process per tree (the first tree alternating), with the
    median of each metric; with two trees each row gains `paired_ratio`, the
    median over the runs of its tree's value over the other tree's, per
    metric."""
    out = tuple([] for _ in srcs)
    for command, primes in calls:
        runs = tuple([] for _ in srcs)
        for i in range(repeats):
            for t in (range(len(srcs)) if i % 2 == 0 else reversed(range(len(srcs)))):
                runs[t].append(child_run(srcs[t], f"{command}-cli", ",".join(map(str, primes))))
        for t, mine in enumerate(runs):
            row = {"command": command, "primes": list(primes), "jobs": 2, "runs": mine}
            row.update({m: round(statistics.median(r[m] for r in mine), 4) for m in CLI_METRICS})
            if len(srcs) == 2:
                row["paired_ratio"] = {m: round(statistics.median(a[m] / b[m] for a, b in zip(mine, runs[1 - t])), 4)
                                       for m in CLI_METRICS}
            out[t].append(row)
        print(f"{command} --jobs 2 on {len(primes)} primes: "
              + " vs ".join(f"{r[-1]['wall_s']:.3f} s, {r[-1]['peak_rss_mb']:.2f} MB" for r in out), file=sys.stderr)
    return out


def write_files(tagged, given, out_dir, repeats: int):
    """One BENCH file per (src, rows, nakaya_rows, cli) of `tagged`, named by
    the sha of its tree and, for the primes `given`, the suffix of their
    range; with two trees each file gains `paired`, the other file's name and
    the ratio of each total that has rows."""
    states = [git_state(s.parent) for s, _, _, _ in tagged]
    suffix = f"-p{min(given)}-{max(given)}-n{len(given)}" if given else ""
    names = [sha + suffix for sha, _ in states]
    if len(names) == 2 and names[0] == names[1]:
        names = [f"{names[0]}-this", f"{names[1]}-other"]
    outs = [Path(out_dir) / f"BENCH_count_factors_{name}.json" for name in names]
    for t, ((_, rows, nakaya_rows, cli), (sha, dirty), out) in enumerate(zip(tagged, states, outs)):
        bench = payload(sha, dirty, repeats, rows, nakaya_rows, cli)
        if len(tagged) == 2:
            other = tagged[1 - t]
            bench["paired"] = {
                "with": outs[1 - t].name,
                "order": "per prime, k alternations of one child process per tree, the first tree alternating",
            }
            for key, mine, theirs in (("total", rows, other[1]), ("nakaya_total", nakaya_rows, other[2])):
                if mine:
                    bench["paired"][f"{key}_ratio"] = round(bench[f"{key}_median_s"] / sum(r["median_s"] for r in theirs), 4)
        out.write_text(json.dumps(bench, indent=2) + "\n")
        print(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--primes", help="comma list of primes for the per-prime rows (default: PRIMES, NAKAYA_PRIMES)")
    ap.add_argument("--repeats", type=int, default=3, help="runs per prime or CLI call (k)")
    ap.add_argument("--out-dir", default=".", help="directory for the BENCH file")
    ap.add_argument("--paired", metavar="OTHER_SRC", help="the src/ directory of a second tree to time alternately")
    ap.add_argument("--child", choices=sorted(TIMERS) + [f"{c}-cli" for c, _ in CLI_CALLS], help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    given = [int(p) for p in args.primes.split(",")] if args.primes else None
    if args.child:  # one run, at one prime or of one CLI call, as a row on stdout
        kind, _, cli = args.child.partition("-")
        print(json.dumps(time_cli(kind, given) if cli else TIMERS[kind](given[0], 1)))
        return 0

    src = Path(fricke7.__file__).resolve().parents[1]
    calls = CLI_CALLS
    if not args.paired:
        rows, nakaya_rows = [], []
        for p in given or PRIMES:
            rows.append(time_prime(p, args.repeats))
            print(f"l={p}: {rows[-1]['median_s']:.3f} s", file=sys.stderr)
        for p in given or NAKAYA_PRIMES:
            nakaya_rows.append(time_nakaya(p, args.repeats))
            print(f"nakaya p={p}: {nakaya_rows[-1]['median_s']:.3f} s", file=sys.stderr)
        (cli,) = cli_rows((src,), calls, args.repeats)
        tagged = [(src, rows, nakaya_rows, cli)]
    else:
        srcs = (src, Path(args.paired).resolve())
        rows = paired_rows(srcs, "hasse", given or PRIMES, args.repeats)
        nakaya_rows = paired_rows(srcs, "nakaya", given or NAKAYA_PRIMES, args.repeats)
        cli = cli_rows(srcs, calls, args.repeats)
        tagged = [(srcs[t], rows[t], nakaya_rows[t], cli[t]) for t in (0, 1)]
    write_files(tagged, given, args.out_dir, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
