"""Workload definitions: seeded input draws, CLI argument lists, and the
output check against the expected values stored in ``expected.json``.

This module imports nothing from fricke7, so the runner can generate inputs
and check payloads without loading the program into its own process.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

JOBS = 2
HASSE_PER_CALL = JOBS  # primes per hasse-band call: one per pool worker
HASSE_RANGE = (1800, 2200)
NAKAYA_LOW = (11, 300)      # the brute-force F_{p^2} oracle runs beside the resultant
NAKAYA_HIGH = (301, 1000)   # resultant route only; the consistency recount dominates

# Mathematical fields compared against the expected values.  Schema fields
# such as "route", "version" or "p_mod_*" are not compared, so a schema
# change is not a failure.
HASSE_FIELDS = ("N1", "N2", "N3", "N6", "L", "h_minus_l", "h_minus_7l",
                "formula_N1", "formula_N3", "formula_N6", "formula_N2", "verdicts")
NAKAYA_FIELDS = ("L", "L7star", "predicted", "oracle_match", "nakaya", "consistency")
REGISTRY_COMMANDS = (
    ("identities", ["identities"], "id"),
    ("qseries", ["qseries", "--prec", "200"], "id"),
    ("cm", ["cm", "--bits", "300"], "check"),
)

WORKLOADS = ("hasse-band", "nakaya-mix", "registries")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def primes_in(lo: int, hi: int) -> List[int]:
    return [p for p in range(lo, hi + 1) if is_prime(p) and p != 7]


def draw_stratified(rng: random.Random, lo: int, hi: int, per_class: int) -> List[int]:
    """``per_class`` primes of every class l mod 7 (1..6) from [lo, hi].

    The range is cut into 6 * per_class equal bins and a shuffled list of the
    classes gives each bin one class; the prime of that class nearest a random
    point of the bin is taken.  The class picks the counting route (N2
    families for 1 and 6, N6 division for 2..5) and the size sets the degree,
    so fixing both spreads keeps the work of a draw close to constant across
    seeds while every route runs.
    """
    pool = primes_in(lo, hi)
    classes = list(range(1, 7)) * per_class
    rng.shuffle(classes)
    width = (hi - lo) / len(classes)
    out: List[int] = []
    for k, c in enumerate(classes):
        target = lo + (k + rng.random()) * width
        out.append(min((p for p in pool if p % 7 == c and p not in out),
                       key=lambda p: (abs(p - target), p)))
    return sorted(out)


def draw_hasse_band(rng: random.Random) -> List[List[int]]:
    """Six primes of HASSE_RANGE, one per class l mod 7, in a random order
    and cut into three pairs: one CLI call per pair, so each pool worker
    gets one prime."""
    ps = draw_stratified(rng, *HASSE_RANGE, per_class=1)
    rng.shuffle(ps)
    return [sorted(ps[i:i + HASSE_PER_CALL]) for i in range(0, len(ps), HASSE_PER_CALL)]


def _split_balanced(ps: List[int]) -> Tuple[List[int], List[int]]:
    """Six sorted primes into two halves of near-equal size sums (ranks
    0, 3, 4 and 1, 2, 5), so that two calls carry similar work."""
    return [ps[0], ps[3], ps[4]], [ps[1], ps[2], ps[5]]


def draw_nakaya_mix(rng: random.Random) -> List[List[int]]:
    """Six primes of each half, one per class p mod 7 in each, in two calls
    of three primes from each half."""
    low = _split_balanced(draw_stratified(rng, *NAKAYA_LOW, per_class=1))
    high = _split_balanced(draw_stratified(rng, *NAKAYA_HIGH, per_class=1))
    return [sorted(a + b) for a, b in zip(low, high)]


def rounds(workload: str, seed: int):
    """Yield the workload's rounds forever.  A round is a list of operations
    that together cover every class mod 7 of the workload's ranges once; an
    operation is a list of (label, cli_argv, expected_keys) invocations, each
    run in a fresh process.

    The draws come from ``random.Random(seed)`` in order, so a seed fixes the
    whole sequence.  ``registries`` ignores the seed: its inputs are fixed.
    """
    rng = random.Random(seed)
    while True:
        if workload == "hasse-band":
            yield [[("hasse", sweep_argv("hasse", ps), ps)] for ps in draw_hasse_band(rng)]
        elif workload == "nakaya-mix":
            yield [[("nakaya", sweep_argv("nakaya", ps), ps)] for ps in draw_nakaya_mix(rng)]
        elif workload == "registries":
            exp = load_expected()
            yield [[(label, argv, list(exp[label])) for label, argv, _ in REGISTRY_COMMANDS]]
        else:
            raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, seed: int):
    """The operations of ``rounds`` one after another, forever."""
    for ops in rounds(workload, seed):
        yield from ops


def sweep_argv(command: str, primes: List[int]) -> List[str]:
    return [command, "--primes", ",".join(map(str, primes)), "--jobs", str(JOBS)]


# ---------------------------------------------------------------------------
# output check


@functools.cache
def load_expected() -> Dict[str, Dict[str, object]]:
    return json.loads(EXPECTED_PATH.read_text())


def extract(label: str, rows: List[Dict]) -> Dict[str, object]:
    """The compared fields of a payload, keyed by prime or registry id."""
    if label == "hasse":
        return {str(r["p"]): {k: r.get(k) for k in HASSE_FIELDS} for r in rows}
    if label == "nakaya":
        return {str(r["p"]): {k: r.get(k) for k in NAKAYA_FIELDS} for r in rows}
    key = dict((lab, k) for lab, _, k in REGISTRY_COMMANDS)[label]
    return {str(r[key]): r["verdict"] for r in rows}


def check_payload(label: str, keys: List, payload_text: str, exit_code: int) -> Tuple[int, List[str]]:
    """Number of failed operations among ``keys`` and a reason for each.

    An operation is one prime or one registry check.  It fails when its row
    is missing or unreadable or a compared field differs from the expected
    value.  When the invocation exited non-zero (1 verification failure,
    3 structural error, a crash) and no row differs, every operation of the
    invocation fails.
    """
    try:
        got = extract(label, json.loads(payload_text)["rows"])
    except (ValueError, KeyError, TypeError) as e:
        return len(keys), [f"{label}: exit code {exit_code}, unreadable payload ({e})"]
    want = load_expected()[label]
    reasons = []
    for k in map(str, keys):
        if k not in want:
            reasons.append(f"{label} {k}: no expected value stored")
        elif got.get(k) != want[k]:
            reasons.append(f"{label} {k}: got {got.get(k)!r}, expected {want[k]!r}")
    if exit_code != 0 and not reasons:  # the failure cannot be pinned on one row
        return len(keys), [f"{label}: exit code {exit_code}"]
    return len(reasons), reasons
