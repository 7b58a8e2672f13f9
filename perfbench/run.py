"""fricke7 benchmark: how long a user waits for a verified sweep, and where
the time goes.

    python3 perfbench/run.py --workload hasse-band --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Run from the root of a fricke7 checkout; the program is imported from
``src/``.  With ``--trace 0`` one generator runs the workload as a closed
loop, one operation at a time, each CLI invocation in a fresh Python process
(what a CLI user pays), until ``--seconds`` have passed, and reports medians
over the operations.  With ``--trace 1`` it makes the traced run of
``traced.py`` instead, which covers all workloads whatever ``--workload`` says.
Every payload is checked against ``expected.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A summary with every
metric by name and unit, the failure rate and the machine goes to standard
error.  The exit code is 0 when every check passed, 1 when one failed and 2
when the program or the expected values are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_PROBES = 5  # before the first operation; one more follows each
CHILD_TIMEOUT_S = 150


class SetupError(RuntimeError):
    """The program could not be started; no operation was measured."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(args):
    """Run child.py in a fresh interpreter; its last stdout line as a dict, or
    None with the reason when it crashed or timed out."""
    # Its own process group, so that a timeout or an interrupt of the benchmark
    # also stops the sweep's pool workers.
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as e:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(e, subprocess.TimeoutExpired):
            raise
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    lines = out.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1]), ""
    except ValueError:
        pass
    return None, f"child exited {proc.returncode}: {err.strip()[-500:]}"


def setup_probe() -> float:
    """Seconds from interpreter start until every fricke7 module is imported
    and the constants self-check has run, in one fresh process."""
    t0 = time.time()
    res, why = run_child(["--setup"])
    if res is None or not res["self_check"]:
        raise SetupError(f"setup failed: {why or 'constants self-check failed'}")
    return res["ready"] - t0


def run_operation(op, out_dir: Path):
    """One operation: its CLI invocations in turn, each in a fresh process.
    Times and CPU add up over the invocations; memory is the largest peak."""
    res = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "attempted": 0, "failed": 0, "reasons": []}
    for label, argv, keys in op:
        out = out_dir / f"{label}.json"
        if out.exists():
            out.unlink()
        child, why = run_child(argv + ["--format", "json", "--out", str(out)])
        code = child["exit"] if child else why
        nfail, reasons = W.check_payload(label, keys, out.read_text() if out.exists() else "", code)
        res["attempted"] += len(keys)
        res["failed"] += nfail
        res["reasons"] += reasons
        if child:
            res["wall_s"] += child["wall_s"]
            res["cpu_s"] += child["cpu_s"]
            res["peak_rss_mb"] = max(res["peak_rss_mb"], child["peak_rss_mb"])
    return res


def closed_loop(workload: str, seed: int, seconds: float, out_dir: Path):
    """Operations one at a time until ``seconds`` have passed, with a set-up
    probe after each, so that set-up is sampled over the whole run.  One
    untimed start first writes the bytecode caches, then come
    ``SETUP_PROBES`` set-up probes.  Returns (operation samples, set-up
    seconds)."""
    run_child(["--setup"])
    setup = [setup_probe() for _ in range(SETUP_PROBES)]
    ops = W.operations(workload, seed)
    samples = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        samples.append(run_operation(next(ops), out_dir))
        setup.append(setup_probe())
        print(f"  operation {len(samples)}: wall {samples[-1]['wall_s']:.4f} s, "
              f"cpu {samples[-1]['cpu_s']:.4f} s, set-up {setup[-1]:.4f} s", file=sys.stderr)
    return samples, setup


def _quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def machine():
    from importlib.metadata import version  # not import: the traced run times the import

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True).stdout.strip() or sha
        except OSError:
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"), "git_sha": sha,
            "platform": platform.platform()}


def untraced(workload: str, seed: int, seconds: float, out_dir: Path):
    samples, setup = closed_loop(workload, seed, seconds, out_dir)
    series = {"setup_s": (setup, "s")}
    for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
        series[name] = ([s[name] for s in samples], unit)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    reasons = [r for s in samples for r in s["reasons"]]
    print(f"{workload}: {len(samples)} operations, {attempted} checked "
          f"(primes or registry checks), fresh process per CLI call", file=sys.stderr)
    metrics = {}
    for name, (xs, unit) in series.items():
        q1, q2, q3 = _quartiles(xs)
        metrics[name] = {"value": statistics.median(xs), "unit": unit}
        print(f"  {name:<12} {q2:12.4f} {unit:<3} median of {len(xs)}, "
              f"quartiles {q1:.4f}..{q3:.4f}", file=sys.stderr)
    print(f"  {'fail_rate':<12} {failed / attempted:12.4f} 1   {failed} of {attempted}", file=sys.stderr)
    return attempted, failed, reasons, metrics


def _measure(args, work_dir: Path, tmp: Path):
    if args.trace:
        from traced import traced_run

        attempted, failed, reasons, metrics = traced_run(
            args.seed, lambda op: run_operation(op, tmp), tmp,
            work_dir / f"trace-seed{args.seed}.json")
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
        return attempted, failed, reasons, metrics
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    reasons, metrics = [], {}
    for w in names:
        a, f, r, m = untraced(w, args.seed, args.seconds, tmp)
        attempted, failed, reasons = attempted + a, failed + f, reasons + r
        metrics.update({(f"{w}.{k}" if args.workload == "all" else k): v for k, v in m.items()})
    return attempted, failed, reasons, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds, stopping children

    if not (ROOT / "src" / "fricke7" / "cli.py").is_file() or not W.EXPECTED_PATH.is_file():
        print("perfbench: run from a fricke7 checkout with src/fricke7 and "
              "perfbench/expected.json", file=sys.stderr)
        return 2
    info = machine()
    print(f"machine: {json.dumps(info)}", file=sys.stderr)
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        try:
            attempted, failed, reasons, metrics = _measure(args, work_dir, Path(tmp))
        except SetupError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
    for r in reasons[:20]:
        print(f"FAILED {r}", file=sys.stderr)
    print(json.dumps({"machine": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
