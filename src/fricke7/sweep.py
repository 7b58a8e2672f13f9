"""Parallel prime sweeps: pure per-prime workers, deterministic merge order.

Workers are module-level functions so multiprocessing can pickle them; results
come back keyed by prime and are always emitted in ascending prime order, so
parallel and serial runs produce identical reports.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
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
    if jobs <= 1 or len(args) <= 1:
        return [worker(a) for a in args]
    with multiprocessing.Pool(processes=min(jobs, len(args))) as pool:
        return pool.map(worker, args)


@contextmanager
def _naming_prime(p: int):
    """Prefix a structural error with its prime; pool.map re-raises it bare."""
    try:
        yield
    except StructuralError as e:
        raise StructuralError(f"p={p}: {e}") from e


# -- hasse sweep


@dataclass(frozen=True)
class HasseRow:
    p: int
    report: FactorCountReport
    skipped: Optional[str] = None


def _hasse_worker(args: Tuple[int, Tuple[str, ...], bool]) -> HasseRow:
    p, need, with_histogram = args
    if p in (2, 3, 7):
        return HasseRow(p=p, report=None, skipped="excluded by hypothesis")
    ctx = PrimeContext.make(p)
    with _naming_prime(p):
        rep = verify_count_formulas(
            ctx, count_factors(ctx, need=need, with_histogram=with_histogram)
        )
    return HasseRow(p=p, report=rep)


def hasse_sweep(
    primes: Sequence[int],
    jobs: int = 1,
    need: Sequence[str] = ("N1", "N2", "N3", "N6"),
    with_histogram: bool = True,
) -> List[HasseRow]:
    rows = run_parallel(
        _hasse_worker, [(p, tuple(need), with_histogram) for p in sorted(primes)], jobs
    )
    return sorted(rows, key=lambda r: r.p)


# -- ss7star / nakaya sweep


@dataclass(frozen=True)
class NakayaRow:
    p: int
    report: Optional[SS7StarReport]
    consistency: Optional[Dict[str, object]]
    skipped: Optional[str] = None


def _nakaya_worker(args: Tuple[int, bool, bool]) -> NakayaRow:
    p, check_oracle, with_consistency = args
    if p in (2, 3, 7):
        return NakayaRow(p=p, report=None, consistency=None, skipped="excluded by hypothesis")
    ctx = PrimeContext.make(p)
    with _naming_prime(p):
        rep = counts_and_nakaya(ctx, check_oracle=check_oracle)
        sec3 = None
        if with_consistency and p >= 11:
            sec3 = count_consistency(ctx, report=rep)
    return NakayaRow(p=p, report=rep, consistency=sec3)


def nakaya_sweep(
    primes: Sequence[int],
    jobs: int = 1,
    check_oracle: bool = False,
    with_consistency: bool = False,
) -> List[NakayaRow]:
    rows = run_parallel(
        _nakaya_worker,
        [(p, check_oracle, with_consistency) for p in sorted(primes)],
        jobs,
    )
    return sorted(rows, key=lambda r: r.p)
