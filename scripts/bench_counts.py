#!/usr/bin/env python3
"""Time the per-prime work of both sweeps and whole CLI sweep calls, each call
in a fresh child process, and write BENCH_count_factors_<sha>.json.

Three kinds of row, each from k = `--repeats` runs, every run one fresh child
process that imports fricke7 from the tree's src/ and times one call:
- `rows`: the hasse sweep's per-prime work (`hasse_sweep([p])`: ss_l,
  `count_factors` and `verify_count_formulas`), by default one prime per class
  l mod 7 near 2000, in (2048, 2200] (where the square of the Hasse
  polynomial, of degree about 2l, first passes 2^13 coefficients) and near
  10^4; the median and the k times;
- `nakaya_rows`: the nakaya sweep's per-prime work (`nakaya_sweep([p])`:
  `counts_and_nakaya` and `count_consistency` on its report), by default one
  prime per class p mod 7 in each half of the `nakaya-mix` benchmark,
  (11, 300] (where the ss^(7*) oracle runs) and (300, 1000];
- `cli_rows`: one `hasse --jobs 2` call on two primes near 2000, and one
  `nakaya --jobs 2` and one `ss7star --jobs 2` call on three primes of each
  of those halves, timed by `cli_call`: wall time, the CPU of the call
  (the child's and its reaped sweep workers') and peak resident set (the
  larger of the child's and its largest worker's), so that the cost of
  starting, feeding and stopping the workers shows; the median of each
  metric and the k runs.
Each file also holds the machine and the git sha of the tree.

    PYTHONPATH=src python scripts/bench_counts.py [--primes 2003,1997] [--repeats 3] [--out-dir .]
    PYTHONPATH=src python scripts/bench_counts.py --paired OTHER/src [--primes ...] [--repeats 5]

`--primes` replaces the per-prime lists (the hasse and the nakaya rows); the
three CLI calls keep their perfbench-shaped primes.  A prime the sweeps give
no counts for (one `PrimeContext.admits` refuses), a token that is not an
integer, or `--repeats` below 1 ends the run with a one-line message before
any child starts.  A `--primes` run names its files with the suffix
-p<min>-<max>-n<count> of its primes after the sha, so it cannot overwrite a
default run's files.  The tree timed is the
src/ that PYTHONPATH points at; compare two files only when they come from
the same machine.  `--paired OTHER_SRC` times this src/ tree and OTHER_SRC
together: each of the k runs of a row starts one child per tree, the first
tree alternating, so both trees see the same drift of the machine.  It
writes both BENCH files, and each row gains `paired_ratio`, the median over
the runs of its tree's time over the other tree's (for a CLI row, one ratio
per metric); two trees with the same sha (copies outside git, say) get the
names BENCH_count_factors_<sha>[-p...]-this.json and -other.json.

The CLI rows last 0.05-0.2 s a call and cannot carry a claim: at the default
k = 3 a pair read the `hasse` call 24% slower where 20 alternations read it
8% faster, and at k = 10 the `nakaya` and `ss7star` rows of one pair read
paired wall ratios of 1.153 and 0.913 on paths the change under test did not
touch.  Cite the per-prime rows.

A one-tree file times the first call in a fresh process, as a paired file
does.  The older one-tree files in bench/ (those without a `paired` key)
timed k calls in one process, warm after the first, and are not comparable
with it.
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
from fricke7.ffpoly import PRIME_LIMIT, PrimeContext
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


def cli_call(argv):
    """One `fricke7` CLI call with `argv` in this process: its exit code, and
    its run: the wall time, the CPU of the call (this process's and its
    reaped children's, the sweep's workers, since the call began) and the
    peak resident set (the larger of this process's and its largest reaped
    child's)."""
    from fricke7.cli import main as cli_main

    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    before = [resource.getrusage(w) for w in who]
    t = time.perf_counter()
    code = cli_main(argv)
    wall = time.perf_counter() - t
    after = [resource.getrusage(w) for w in who]
    return code, {
        "wall_s": round(wall, 4),
        "cpu_s": round(sum(a.ru_utime + a.ru_stime - b.ru_utime - b.ru_stime for a, b in zip(after, before)), 4),
        "peak_rss_mb": round(max(a.ru_maxrss for a in after) / 1024, 2),
    }


def child_json(script, args, src=None):
    """Run `script` with `args` in a fresh Python process, importing fricke7
    from `src` if given, and return the JSON it prints.  The child's standard
    error passes through, so a child that fails has shown why when this
    process exits after it."""
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(src)) if src else None
    proc = subprocess.run([sys.executable, str(script), *args], stdout=subprocess.PIPE, text=True, env=env)
    if proc.returncode:
        raise SystemExit(f"{Path(script).name} {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout)


def checked_primes(spec, repeats: int):
    """The primes of the comma list `spec` (None for no list).  Before any
    child starts, a one-line message ends the run on --repeats below 1, on a
    token that is not an integer, or on a prime the sweeps give no counts for
    (one that `PrimeContext.admits` refuses)."""
    name = Path(sys.argv[0]).name
    if repeats < 1:
        sys.exit(f"{name}: --repeats must be at least 1, got {repeats}")
    if spec is None:
        return None
    try:
        primes = [int(p) for p in spec.split(",")]
    except ValueError:
        sys.exit(f"{name}: --primes takes a comma list of primes, got {spec!r}")
    refused = [p for p in primes if not PrimeContext.admits(p)]
    if refused:
        sys.exit(f"{name}: the sweeps count only primes 5 <= l <= {PRIME_LIMIT:,}, l != 7, "
                 f"got {','.join(map(str, refused))}")
    return primes


def timed(run):
    """The result of one `run()` and its timing fields."""
    t = time.perf_counter()
    out = run()
    s = round(time.perf_counter() - t, 4)
    return out, {"median_s": s, "runs_s": [s]}


def time_prime(p: int):
    (row,), timing = timed(lambda: hasse_sweep([p]))
    if "error" in row:
        raise SystemExit(f"hasse at p={p}: {row['error']} (in {row['stage']})")
    return {
        "p": p,
        "class": p % 7,
        **timing,
        "counts": {k: row[k] for k in ("N1", "N2", "N3", "N6", "L")},
        "verdicts": row["verdicts"],
    }


def time_nakaya(p: int):
    (row,), timing = timed(lambda: nakaya_sweep([p]))
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
    """One `fricke7 <command> --jobs 2` call on `primes`, timed by `cli_call`."""
    code, run = cli_call([command, "--primes", ",".join(map(str, primes)), "--jobs", "2",
                          "--format", "json", "--out", os.devnull])
    if code:
        raise SystemExit(f"{command} --primes {primes} exited {code}")
    return run


TIMERS = {"hasse": time_prime, "nakaya": time_nakaya}


def payload(sha, dirty, repeats: int, rows, nakaya_rows, cli):
    return {
        "what": "the per-prime work of the hasse sweep (rows) and of the nakaya sweep "
                "(nakaya_rows), and whole CLI sweep calls (cli_rows), median of k runs, "
                "each one call in a fresh child process",
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


def timed_rows(srcs, cases, repeats: int):
    """A row per (kind, primes) of `cases` for each tree of `srcs`: k =
    repeats runs, each one child process per tree (the first tree
    alternating) that times one call; kind "hasse" or "nakaya" times the
    per-prime work at one prime, kind "<command>-cli" one CLI call on the
    primes.  With two trees each row gains `paired_ratio`, the median over
    the runs of its tree's value over the other tree's (per metric for a CLI
    row)."""
    out = tuple([] for _ in srcs)
    for kind, primes in cases:
        arg = ",".join(map(str, primes))
        runs = tuple([] for _ in srcs)
        for i in range(repeats):
            for t in (range(len(srcs)) if i % 2 == 0 else reversed(range(len(srcs)))):
                runs[t].append(child_json(__file__, ["--child", kind, "--primes", arg], srcs[t]))
        cli = kind.endswith("-cli")
        # the metrics of each run: a CLI run's own, or a per-prime run's time
        metrics = [mine if cli else [{"s": r["runs_s"][0]} for r in mine] for mine in runs]
        for t, mine in enumerate(metrics):
            med = {m: round(statistics.median(v[m] for v in mine), 4) for m in mine[0]}
            if cli:
                row = {"command": kind[:-4], "primes": list(primes), "jobs": 2, "runs": mine, **med}
            else:
                row = dict(runs[t][-1], median_s=med["s"], runs_s=[v["s"] for v in mine])
            if len(srcs) == 2:
                ratio = {m: round(statistics.median(a[m] / b[m] for a, b in zip(mine, metrics[1 - t])), 4) for m in med}
                row["paired_ratio"] = ratio if cli else ratio["s"]
            out[t].append(row)
        last = [r[-1] for r in out]
        shown = " vs ".join(f"{r['wall_s']:.3f} s, {r['peak_rss_mb']:.2f} MB" if cli else f"{r['median_s']:.3f} s"
                            for r in last)
        paired = f", paired ratio {last[0]['paired_ratio']}" if len(srcs) == 2 else ""
        print(f"{kind} --primes {arg}: {shown}{paired}", file=sys.stderr)
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
    given = checked_primes(args.primes, args.repeats)
    if args.child:  # one run, at one prime or of one CLI call, as a row on stdout
        kind, _, cli = args.child.partition("-")
        print(json.dumps(time_cli(kind, given) if cli else TIMERS[kind](given[0])))
        return 0

    srcs = (Path(fricke7.__file__).resolve().parents[1],)
    if args.paired:
        srcs += (Path(args.paired).resolve(),)
    rows = timed_rows(srcs, [("hasse", (p,)) for p in given or PRIMES], args.repeats)
    nakaya_rows = timed_rows(srcs, [("nakaya", (p,)) for p in given or NAKAYA_PRIMES], args.repeats)
    cli = timed_rows(srcs, [(f"{c}-cli", primes) for c, primes in CLI_CALLS], args.repeats)
    tagged = [(srcs[t], rows[t], nakaya_rows[t], cli[t]) for t in range(len(srcs))]
    write_files(tagged, given, args.out_dir, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
