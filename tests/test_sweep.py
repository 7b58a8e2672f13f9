"""The fork runner behind `sweep.run_parallel`.  Each case runs in a fresh
interpreter under a timeout, so that a sweep that hangs fails its test
instead of blocking the suite, and each script ends by checking that the
sweep left no child process behind."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from fricke7.cli import main

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

# Make the pieces of the Hasse polynomial, and with them both sweeps' counts
# (on the Hasse polynomial and on its fibres), do ACTION at l = 13; forked
# workers inherit the patch.
PRELUDE = """
import json, os, signal, sys
from fricke7 import cli, hasse7, sweep

real = hasse7._hasse_pieces

def at_13(ctx):
    if ctx.l == 13:
        ACTION
    return real(ctx)

hasse7._hasse_pieces = at_13
"""
NO_CHILD_LEFT = """
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child process is left", file=sys.stderr)
except ChildProcessError:
    print("no child process left", file=sys.stderr)
"""


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=TIMEOUT_S, env=env)


def run_script(action: str, body: str) -> subprocess.CompletedProcess:
    proc = run_python(PRELUDE.replace("ACTION", action) + textwrap.dedent(body) + NO_CHILD_LEFT)
    assert "no child process left" in proc.stderr, proc.stderr
    return proc


@pytest.mark.parametrize("command", ["hasse", "nakaya"])
def test_killed_worker_becomes_a_failure_row(command, capsys):
    """A worker SIGKILLed at p = 13 (as the OOM killer would): p = 13 gets the
    row {p, stage: "worker", error}, the other rows are those of a clean run,
    a new worker takes the last prime, and the exit code is 3."""
    proc = run_script(
        "os.kill(os.getpid(), signal.SIGKILL)",
        f"""
        code = cli.main(["{command}", "--primes", "11,13,17", "--format", "json", "--jobs", "2"])
        print(f"exit {{code}}", file=sys.stderr)
        """,
    )
    assert "exit 3" in proc.stderr and "worker process died: p=13: killed by signal 9" in proc.stderr
    assert "structural error" not in proc.stderr
    rows = json.loads(proc.stdout)["rows"]
    assert rows[1] == {"p": 13, "stage": "worker", "error": "killed by signal 9"}
    assert main([command, "--primes", "11,17", "--format", "json"]) == 0
    assert [rows[0], rows[2]] == json.loads(capsys.readouterr().out)["rows"]


@pytest.mark.parametrize("command", ["hasse", "nakaya"])
def test_unpicklable_exception_ends_its_worker(command, capsys):
    """An exception at p = 13 that cannot be pickled (it holds a lambda) ends
    its worker process with status 1: p = 13 gets the row {p, stage:
    "worker", error}, and the other rows are those of a clean run."""
    proc = run_script(
        "raise RuntimeError(lambda: None)",
        f"""
        code = cli.main(["{command}", "--primes", "11,13,17", "--format", "json", "--jobs", "2"])
        print(f"exit {{code}}", file=sys.stderr)
        """,
    )
    assert "exit 3" in proc.stderr and "worker process died: p=13: exited with status 1" in proc.stderr
    rows = json.loads(proc.stdout)["rows"]
    assert rows[1] == {"p": 13, "stage": "worker", "error": "exited with status 1"}
    assert main([command, "--primes", "11,17", "--format", "json"]) == 0
    assert [rows[0], rows[2]] == json.loads(capsys.readouterr().out)["rows"]


def test_result_larger_than_a_pipe_buffer_comes_back_whole():
    """A 3 MiB result, far past a pipe's buffer, reaches the parent intact
    alongside a small one."""
    proc = run_script(
        "pass",
        """
        out = sweep.run_parallel(lambda n: bytes(n), [1, 3 << 20], jobs=2)
        print(json.dumps(out == [bytes(1), bytes(3 << 20)]))
        """,
    )
    assert json.loads(proc.stdout) is True


def test_worker_exception_is_raised_with_its_prime():
    """An exception a worker raises is raised in the parent, caused by one
    that names the item and holds the worker's traceback."""
    proc = run_script(
        'raise RuntimeError("injected")',
        """
        try:
            sweep.hasse_sweep([11, 13, 17], jobs=2)
        except RuntimeError as e:
            print(json.dumps({"error": str(e), "cause": str(e.__cause__)}))
        """,
    )
    out = json.loads(proc.stdout)
    assert out["error"] == "injected"
    assert out["cause"].startswith("in the sweep worker for (13,):\nTraceback")
    assert "RuntimeError: injected" in out["cause"]


@pytest.mark.parametrize("command", ["hasse", "nakaya"])
def test_jobs_give_identical_bytes(command):
    """--jobs 1, 2 and 64 (more workers than primes or cores) write the same
    JSON."""
    outs = []
    for jobs in ("1", "2", "64"):
        proc = run_python(
            f"import os, sys; from fricke7 import cli\n"
            f"code = cli.main(['{command}', '--primes', '11..200', '--format', 'json', '--jobs', '{jobs}'])\n"
            + NO_CHILD_LEFT + "sys.exit(code)\n"
        )
        assert proc.returncode == 0 and "no child process left" in proc.stderr, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]
    assert len(json.loads(outs[0])["rows"]) == 42


# A worker of run_parallel that answers n with n * n, except at n = 13, where
# it writes the first CUT bytes of a pickled (True, 64 KiB) result to its
# results pipe (the one write-only pipe above stderr) and exits with status 0.
PARTIAL_WORKER = """
import fcntl, pickle, stat

def results_pipe():
    for fd in range(3, 256):
        try:
            if stat.S_ISFIFO(os.fstat(fd).st_mode) and fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_WRONLY:
                return fd
        except OSError:
            pass

def work(n):
    if n == 13:
        data = pickle.dumps((True, bytes(1 << 16)), pickle.HIGHEST_PROTOCOL)
        os.write(results_pipe(), data[:CUT])
        os._exit(0)
    return n * n
"""


@pytest.mark.parametrize("cut", ["1", "len(data) // 2", "len(data) - 1"])
def test_worker_that_dies_mid_result_becomes_a_worker_row(cut):
    """A worker that exits after writing only part of its result (its first
    byte, half of it, all but its last byte) gives that item the row
    Failure("worker", ...); a new worker takes the items left, and the other
    items keep their results."""
    proc = run_script(
        "pass",
        PARTIAL_WORKER.replace("CUT", cut)
        + "out = sweep.run_parallel(work, [11, 13, 17, 19, 23], jobs=2)\n"
        + "print(json.dumps([r if isinstance(r, int) else [r.stage, r.error] for r in out]))\n",
    )
    assert json.loads(proc.stdout) == [121, ["worker", "exited with status 0"], 289, 361, 529], proc.stderr


def test_results_larger_than_a_pipe_buffer_come_back_whole_and_in_order():
    """Six results of about 1 MiB each, several pipe buffers apiece, written
    by two workers at once: each reaches the parent intact and in its item's
    place."""
    proc = run_script(
        "pass",
        """
        big = lambda i: bytes([i]) * (1 << 20) + bytes(i)
        out = sweep.run_parallel(big, list(range(6)), jobs=2)
        print(json.dumps({"lengths": [len(b) for b in out], "intact": out == [big(i) for i in range(6)]}))
        """,
    )
    assert json.loads(proc.stdout) == {"lengths": [(1 << 20) + i for i in range(6)], "intact": True}


def test_unpicklable_exception_is_a_worker_row_of_the_runner():
    """At the runner itself: an exception that cannot be pickled, but only
    after 1 MiB that can (a worker streaming its pickle would have sent part
    of a message), ends its worker with status 1, its item gets
    Failure("worker", ...) and the other items keep their results."""
    proc = run_script(
        "pass",
        """
        def work(n):
            if n == 13:
                raise RuntimeError(bytes(1 << 20), lambda: None)
            return n * n

        out = sweep.run_parallel(work, [11, 13, 17, 19], jobs=2)
        print(json.dumps([r if isinstance(r, int) else [r.stage, r.error] for r in out]))
        """,
    )
    assert json.loads(proc.stdout) == [121, ["worker", "exited with status 1"], 289, 361], proc.stderr
