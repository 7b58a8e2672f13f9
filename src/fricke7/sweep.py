"""Parallel prime sweeps: pure per-prime workers, deterministic merge order.

Workers are module-level functions so multiprocessing can pickle them; results
come back keyed by prime and are always emitted in ascending prime order, so
parallel and serial runs produce identical reports.  A worker whose prime
raises a `StructuralError` returns a row carrying a `Failure` (the stage and
the message) instead, so one bad prime neither ends the sweep nor loses the
rows of the others.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import StructuralError
from .ffpoly import PrimeContext, is_prime
from .hasse7 import FactorCountReport, count_factors, verify_count_formulas
from .ss7star import SS7StarReport, counts_and_nakaya, count_consistency


def primes_in(lo: int, hi: int) -> List[int]:
    """Primes in the closed range [lo, hi]."""
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def run_parallel(worker, args: Sequence, jobs: int) -> List:
    """worker(a) for each a, in the order of args.  A pool hands out one item
    at a time (imap), from the last of args back: a sweep's args ascend by
    prime and the work grows with the prime, so the costliest items start
    first and the cheap ones fill in behind them, instead of one costly item
    starting last while the other workers idle."""
    if jobs <= 1 or len(args) <= 1:
        return [worker(a) for a in args]
    with multiprocessing.Pool(processes=min(jobs, len(args))) as pool:
        return list(pool.imap(worker, args[::-1]))[::-1]


@dataclass(frozen=True)
class Failure:
    """The stage of a prime's work that raised a `StructuralError`, and its
    message."""

    stage: str
    error: str


# -- hasse sweep


@dataclass(frozen=True)
class HasseRow:
    p: int
    report: Optional[FactorCountReport]
    skipped: Optional[str] = None
    failure: Optional[Failure] = None


def _hasse_worker(args: Tuple[int]) -> HasseRow:
    """The full count and its verdicts at one prime; args is (p,), the
    (p, ...) tuple every sweep worker takes."""
    (p,) = args
    if p in (2, 3, 7):
        return HasseRow(p=p, report=None, skipped="excluded by hypothesis")
    ctx = PrimeContext.make(p)
    stage = "count_factors"
    try:
        rep = count_factors(ctx)
        stage = "verify_count_formulas"
        rep = verify_count_formulas(ctx, rep)
    except StructuralError as e:
        return HasseRow(p=p, report=None, failure=Failure(stage, str(e)))
    return HasseRow(p=p, report=rep)


def hasse_sweep(primes: Sequence[int], jobs: int = 1) -> List[HasseRow]:
    return run_parallel(_hasse_worker, [(p,) for p in sorted(primes)], jobs)


# -- ss7star / nakaya sweep


@dataclass(frozen=True)
class NakayaRow:
    p: int
    report: Optional[SS7StarReport]
    consistency: Optional[Dict[str, object]]
    failure: Optional[Failure] = None


def _nakaya_worker(args: Tuple[int, bool, bool]) -> NakayaRow:
    p, check_oracle, with_consistency = args
    ctx = PrimeContext.make(p)
    stage, sec3 = "counts_and_nakaya", None
    try:
        rep = counts_and_nakaya(ctx, check_oracle=check_oracle)
        if with_consistency and p >= 11:
            stage = "count_consistency"
            sec3 = count_consistency(ctx, report=rep)
    except StructuralError as e:
        return NakayaRow(p=p, report=None, consistency=None, failure=Failure(stage, str(e)))
    return NakayaRow(p=p, report=rep, consistency=sec3)


def nakaya_sweep(
    primes: Sequence[int],
    jobs: int = 1,
    check_oracle: bool = False,
    with_consistency: bool = False,
) -> List[NakayaRow]:
    return run_parallel(
        _nakaya_worker,
        [(p, check_oracle, with_consistency) for p in sorted(primes)],
        jobs,
    )
