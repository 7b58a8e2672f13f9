"""Parallel prime sweeps: pure per-prime workers, deterministic merge order.

Each sweep worker returns the payload row that the CLI writes for its prime,
so this module owns the rows of the `hasse`, `nakaya` and `ss7star`
commands: which primes get one, and their schema (`Fraction` values stay in
the rows; the CLI's writer converts them).  Workers are module-level
functions that forked worker processes inherit; rows come back in ascending
prime order, so parallel and serial runs produce identical reports.  A prime
the paper's hypotheses exclude (one that `PrimeContext.admits` refuses) gets
the row {p, skipped} in the `hasse` and `ss7star` sweeps and no row in the
`nakaya` sweep; a prime whose work raises a `StructuralError` gets the row
{p, stage, error} instead, so one bad prime neither ends the sweep nor loses
the rows of the others; a worker process that dies (a signal, the OOM killer)
gives its prime that row with the stage "worker".
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import StructuralError
from .ffpoly import PrimeContext, factorize, is_prime
from .hasse7 import count_factors, ss_poly, verify_count_formulas
from .ss7star import counts_and_nakaya, count_consistency


def primes_in(lo: int, hi: int) -> List[int]:
    """Primes in the closed range [lo, hi]."""
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


@dataclass(frozen=True)
class Failure:
    """The stage of a prime's work that raised a `StructuralError`, and its
    message."""

    stage: str
    error: str


# -- the fork runner
#
# Indices and results cross the pipes as plain pickles, read by `pickle.load`
# from buffered readers, on two conditions.  At most one message is in flight
# per pipe (the parent gives a worker its next index only after reading its
# result), so no reader buffers the start of a next message, unseen by `poll`.
# A forked child never closes a file object whose fd it closed by number (its
# copies of the other workers' readers): it leaves by `os._exit`.


def _serve(worker, args: Sequence, tasks, results) -> None:
    """A worker process: for each index i loaded from `tasks` until it closes,
    write the pickled (True, worker(args[i])) or (False, (exception,
    traceback)) to `results`; an exception that cannot be pickled ends it."""
    while tasks.peek(1):  # empty at end of file
        i = pickle.load(tasks)
        try:
            data = pickle.dumps((True, worker(args[i])), pickle.HIGHEST_PROTOCOL)
        except Exception as e:
            import traceback

            data = pickle.dumps((False, (e, traceback.format_exc())))
        results.write(data)
        results.flush()


class _Worker:
    """A forked worker process and the parent's ends of its two pipes: item
    indices go down `tasks`, results come up `results`, read through
    `reader`.  `item` is the index it is working on, set by `give`."""

    def __init__(self, worker, args: Sequence, inherited: Sequence[int]):
        task_r, self.tasks = os.pipe()
        self.results, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (task_r, self.tasks, self.results, result_w):
                os.close(fd)
            raise
        if self.pid == 0:  # the worker leaves by os._exit, never into the caller
            code = 1
            try:
                for fd in (*inherited, self.tasks, self.results):
                    os.close(fd)
                with os.fdopen(task_r, "rb") as tasks, os.fdopen(result_w, "wb") as results:
                    _serve(worker, args, tasks, results)
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        self.reader = os.fdopen(self.results, "rb")

    def give(self, i: int) -> None:
        self.item = i
        try:  # a pickled index is far below PIPE_BUF, so one write sends it whole
            os.write(self.tasks, pickle.dumps(i))
        except BrokenPipeError:  # it died idle: its results pipe is at end of file
            pass

    def stop(self, kill: bool) -> int:
        """Close the pipes (an idle worker reads end of file and exits),
        SIGKILL the worker if `kill`, reap it and return its wait status."""
        os.close(self.tasks)
        self.reader.close()
        if kill:  # not reaped yet, so the pid is still the worker's
            os.kill(self.pid, signal.SIGKILL)
        return os.waitpid(self.pid, 0)[1]


def run_parallel(worker, args: Sequence, jobs: int) -> List:
    """worker(a) for each a, in the order of args, on min(jobs, len(args))
    forked worker processes (serially for jobs <= 1, a single item, or where
    os.fork is missing).

    Each worker is handed one item at a time, from the last of args back: a
    sweep's args ascend by prime and the work grows with the prime, so the
    costliest items start first and the cheap ones fill in behind them,
    instead of one costly item starting last while the other workers idle.
    An exception raised by worker(a) is raised here, caused by one that names
    a and holds the worker's traceback.  An item whose worker process died
    gets Failure("worker", how it died) in its place, a new worker is forked
    for the items left, and the sweep goes on.  Every worker is reaped before
    this returns or raises."""
    if jobs <= 1 or len(args) <= 1 or not hasattr(os, "fork"):
        return [worker(a) for a in args]
    out: List = [None] * len(args)
    todo = list(range(len(args)))  # handed out from the end
    busy: Dict[int, _Worker] = {}  # by the fd of its results pipe
    poller = select.poll()

    def start() -> None:
        w = _Worker(worker, args, [fd for v in busy.values() for fd in (v.tasks, v.results)])
        busy[w.results] = w
        poller.register(w.results, select.POLLIN)
        w.give(todo.pop())

    def retire(w: _Worker, kill: bool = False) -> int:
        poller.unregister(w.results)
        del busy[w.results]
        return w.stop(kill)

    try:
        for _ in range(min(jobs, len(args))):
            start()
        while busy:
            for fd, _ in poller.poll():
                w = busy[fd]
                try:
                    ok, value = pickle.load(w.reader)
                except (EOFError, pickle.UnpicklingError):  # end of file, perhaps mid-result: it died
                    code = os.waitstatus_to_exitcode(retire(w))
                    out[w.item] = Failure("worker", f"killed by signal {-code}" if code < 0
                                          else f"exited with status {code}")
                    if todo:
                        start()
                    continue
                if not ok:
                    exc, tb = value
                    raise exc from RuntimeError(f"in the sweep worker for {args[w.item]!r}:\n{tb}")
                out[w.item] = value
                if todo:
                    w.give(todo.pop())
                else:
                    retire(w)
    finally:
        for w in list(busy.values()):  # only when raising: the others are stopped
            retire(w, kill=True)
    return out


def _bare_row(p: int, failure: Optional[Failure] = None) -> Dict[str, object]:
    """The row of a prime without a result: {p, skipped} for a prime
    `PrimeContext` does not admit, or {p, stage, error} for one whose `failure`
    is given."""
    if failure is None:
        return {"p": p, "skipped": "excluded by hypothesis"}
    return {"p": p, "stage": failure.stage, "error": failure.error}


def _sweep(worker, args: Sequence[Tuple], jobs: int) -> List[Dict[str, object]]:
    """run_parallel over (p, ...) args, with the Failure of an item whose
    worker process died as its failure row."""
    return [_bare_row(a[0], r) if isinstance(r, Failure) else r
            for a, r in zip(args, run_parallel(worker, args, jobs))]


# -- hasse sweep


def _hasse_worker(args: Tuple[int]) -> Dict[str, object]:
    """The row of the full count and its verdicts at one prime; args is (p,),
    the (p, ...) tuple every sweep worker takes."""
    (p,) = args
    if not PrimeContext.admits(p):
        return _bare_row(p)
    ctx = PrimeContext.make(p)
    stage = "count_factors"
    try:
        ss = ss_poly(ctx)
        rep = count_factors(ctx, ss=ss)
        stage = "verify_count_formulas"
        formulas = verify_count_formulas(ctx, rep, ss)
    except StructuralError as e:
        return _bare_row(p, Failure(stage, str(e)))
    return {
        "p": p,
        "p_mod_3": p % 3,
        "p_mod_4": p % 4,
        "p_mod_7": p % 7,
        "p_mod_8": p % 8,
        "N1": rep.N1,
        "N2": rep.N2,
        "N3": rep.N3,
        "N6": rep.N6,
        **formulas,
    }


def hasse_sweep(primes: Sequence[int], jobs: int = 1) -> List[Dict[str, object]]:
    return _sweep(_hasse_worker, [(p,) for p in sorted(primes)], jobs)


# -- nakaya and ss7star sweeps


def _nakaya_worker(args: Tuple[int, bool]) -> Dict[str, object]:
    """The row of ss_p^(7*)'s counts, the Nakaya verdict and, from p = 11 on,
    the count consistency; args is (p, check_oracle)."""
    p, check_oracle = args
    ctx = PrimeContext.make(p)
    stage = "counts_and_nakaya"
    try:
        rep = counts_and_nakaya(ctx, check_oracle=check_oracle)
        row = {
            "p": p,
            "L": rep.L,
            "L7star": rep.L7star,
            "predicted": rep.nakaya_predicted,
            "oracle_match": rep.oracle_match,
            "nakaya": "PASS" if rep.nakaya_ok else "FAIL",
        }
        stage = "count_consistency"
        consistent = count_consistency(ctx, rep)
        if consistent is not None:
            row["consistency"] = "PASS" if consistent else "FAIL"
    except StructuralError as e:
        return _bare_row(p, Failure(stage, str(e)))
    return row


def nakaya_sweep(primes: Sequence[int], jobs: int = 1, check_oracle: bool = False) -> List[Dict[str, object]]:
    """The rows of the primes `PrimeContext` admits; the others get none."""
    return _sweep(_nakaya_worker, [(p, check_oracle) for p in sorted(primes) if PrimeContext.admits(p)], jobs)


def _ss7star_worker(args: Tuple[int, bool]) -> Dict[str, object]:
    """The row of ss_p^(7*), its counts and its factored display, so that the
    sweep's workers factor, not its parent; args is (p, check_oracle)."""
    p, check_oracle = args
    if not PrimeContext.admits(p):
        return _bare_row(p)
    stage = "counts_and_nakaya"
    try:
        rep = counts_and_nakaya(PrimeContext.make(p), check_oracle=check_oracle)
        stage = "factorize"
        factored = factorize(rep.ss7star).pretty("Y")
    except StructuralError as e:
        return _bare_row(p, Failure(stage, str(e)))
    return {
        "p": p,
        "degree": rep.ss7star.degree,
        "L": rep.L,
        "L7star": rep.L7star,
        "oracle_match": rep.oracle_match,
        "nakaya": "PASS" if rep.nakaya_ok else "FAIL",
        "coeffs": list(rep.ss7star.coeffs),
        "factored": factored,
    }


def ss7star_sweep(primes: Sequence[int], jobs: int = 1, check_oracle: bool = False) -> List[Dict[str, object]]:
    return _sweep(_ss7star_worker, [(p, check_oracle) for p in sorted(primes)], jobs)
