"""Command-line driver: one command function for the prime sweeps (`hasse`,
`nakaya`, `ss7star`), whose sweep in `sweep` decides which primes get rows,
and one runner for the registry suites (`identities`, `qseries`, `cm`).
Human tables, CSV (RFC 4180) and JSON output.

Standard output carries only the machine-readable payload; progress and
summaries go to standard error.  Identical configuration produces
byte-identical output (fixed seeds, fixed orderings, no timestamps).

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error,
3 internal structural error.  In a prime sweep, a prime whose work raised a
structural error, or whose worker process died (stage "worker"), gets the row
{p, stage, error}; the other rows are still written, and the exit code is 3.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import StructuralError, UsageError
from .ffpoly import PRIME_LIMIT, is_prime

JSON_VERSION = "fricke7/2"


def _check_limit(p: int) -> None:
    if p > PRIME_LIMIT:
        raise UsageError(f"primes must be at most {PRIME_LIMIT:,} (the sweeps' feasibility limit), got {p}")


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be a file, before any work starts."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"--out {path!r} is not a file in an existing directory")


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def parse_primes(spec: str) -> List[int]:
    """Either 'A..B' (primes in range) or a comma-separated explicit list."""
    spec = spec.strip()
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as e:
            raise UsageError(f"bad prime range {spec!r}") from e
        if lo > hi:
            raise UsageError(f"empty prime range {spec!r}")
        _check_limit(hi)
        from .sweep import primes_in

        out = primes_in(lo, hi)
    else:
        out = []
        for tok in spec.split(","):
            try:
                p = int(tok)
            except ValueError as e:
                raise UsageError(f"bad prime {tok!r}") from e
            _check_limit(p)
            if not is_prime(p):
                raise UsageError(f"{p} is not prime")
            out.append(p)
        out = sorted(set(out))
    return out


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def emit(rows: List[Dict], fmt: str, out_path: Optional[str], command: str) -> None:
    if fmt == "json":
        doc = {"version": JSON_VERSION, "command": command, "rows": _jsonable(rows)}
        payload = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        if rows:
            keys = _columns(rows)
            w = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
            w.writeheader()
            for r in rows:
                w.writerow({k: _csv_cell(r.get(k)) for k in keys})
        payload = buf.getvalue()
    else:  # table
        payload = _table(rows)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _columns(rows: List[Dict]) -> List[str]:
    """The CSV and table columns: every key of the rows that hold a result
    (their prime neither failed nor was skipped), in order of first
    appearance, then a failure row's stage and error if a prime failed, and
    the reason a prime was skipped if one was."""
    results = [r for r in rows if "error" not in r and "skipped" not in r] or rows[:1]
    keys = list(dict.fromkeys(k for r in results for k in r))
    if any("error" in r for r in rows):
        keys += [k for k in ("stage", "error") if k not in keys]
    if any("skipped" in r for r in rows) and "skipped" not in keys:
        keys.append("skipped")
    return keys


def _csv_cell(v):
    v = _jsonable(v)
    if isinstance(v, (dict, list)):
        return json.dumps(v)
    return v


def _table(rows: List[Dict]) -> str:
    """Aligned columns; a key the row lacks is an empty cell, as in CSV, and a
    null value reads None."""
    if not rows:
        return "(no rows)\n"
    keys = _columns(rows)
    cells = [[str(_csv_cell(r[k])) if k in r else "" for k in keys] for r in rows]
    widths = [max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
    lines = ["  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip()]
    for c in cells:
        lines.append("  ".join(x.ljust(w) for x, w in zip(c, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _verdict_fail(rows: List[Dict]) -> bool:
    def scan(v) -> bool:
        if isinstance(v, str) and v == "FAIL":
            return True
        if isinstance(v, dict):
            return any(scan(x) for x in v.values())
        if isinstance(v, (list, tuple)):
            return any(scan(x) for x in v)
        return False

    return any(scan(r) for r in rows)


def _exit_code(rows: List[Dict]) -> int:
    """3 if a prime failed (each is named on stderr), 1 on a FAIL verdict, else 0."""
    failed = [r for r in rows if "error" in r]
    for r in failed:
        if r["stage"] == "worker":
            _progress(f"worker process died: p={r['p']}: {r['error']}")
        else:
            _progress(f"structural error: p={r['p']}: {r['error']} (in {r['stage']})")
    if failed:
        return 3
    return 1 if _verdict_fail(rows) else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_sweep(args) -> int:
    """The `hasse`, `nakaya` and `ss7star` commands: the command's sweep over
    the primes, which decides which primes get rows.  The sweep is looked up
    on `sweep` as the command runs, so that a wrapper set on the module takes
    effect; only the sweeps that take `check_oracle` are given it."""
    from . import sweep

    run = {"hasse": sweep.hasse_sweep, "nakaya": sweep.nakaya_sweep, "ss7star": sweep.ss7star_sweep}[args.command]
    options = {"check_oracle": args.check_oracle} if "check_oracle" in args else {}
    primes = parse_primes(args.primes)
    _progress(f"{args.command} sweep over {len(primes)} primes (jobs={args.jobs})")
    rows = run(primes, jobs=args.jobs, **options)
    emit(rows, args.format, args.out, args.command)
    return _exit_code(rows)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _run_suite(args, checks: Iterable[Tuple[Dict, Optional[str]]], summary: str = "") -> int:
    """A registry suite: `checks` yields each check's row, with its
    `verdict`, and its progress line (None for none) as the check runs.
    Under --fail-fast the suite stops at the first FAIL.  The count of PASS
    rows, then `summary`, goes to stderr; the exit code is 1 unless every row
    passed."""
    rows: List[Dict] = []
    for row, line in checks:
        rows.append(row)
        if line is not None:
            _progress(line)
        if getattr(args, "fail_fast", False) and row["verdict"] == "FAIL":
            break
    n_ok = sum(r["verdict"] == "PASS" for r in rows)
    _progress(f"{args.command}: {n_ok}/{len(rows)} PASS{summary}")
    emit(rows, args.format, args.out, args.command)
    return 0 if n_ok == len(rows) else 1


def cmd_identities(args) -> int:
    from .exactalg import REGISTRY, verify_identity

    def checks():
        for case_id in REGISTRY:
            res = verify_identity(case_id)
            verdict = _verdict(res.ok)
            yield ({"id": case_id, "verdict": verdict, "detail": res.detail},
                   f"{case_id}: {verdict} ({res.seconds:.2f}s)")

    return _run_suite(args, checks())


def cmd_qseries(args) -> int:
    from .qseries import MIN_PREC, REGISTRY, verify_series_identity

    if args.prec < MIN_PREC:
        raise UsageError(f"--prec must be at least {MIN_PREC}, got {args.prec}")

    def checks():
        for case_id in REGISTRY:
            res = verify_series_identity(case_id, args.prec)
            verdict = _verdict(res.ok)
            row = {"id": case_id, "verdict": verdict, "checked_terms": res.checked_terms,
                   "first_failing_exponent": res.first_failing_exponent}
            yield row, f"{case_id}: {verdict} through {res.checked_terms} terms"

    return _run_suite(args, checks(), f" at prec {args.prec}")


def cmd_cm(args) -> int:
    from . import cmeval, constants as C

    if args.bits < cmeval.MIN_BITS:
        raise UsageError(f"--bits must be at least {cmeval.MIN_BITS}, got {args.bits}")

    def row(check, ok, residual="", v=""):
        """A check's row, with no progress line."""
        return {"check": check, "verdict": _verdict(ok), "residual": residual, "v": v}, None

    def checks():
        for d in sorted(C.PD_TABLE):
            r = cmeval.verify_pd_root(d, bits=args.bits)
            yield row(f"P_{d} root", r.ok, f"{r.residual:.3e}", r.v)
        r = cmeval.verify_psi7_root(bits=args.bits)
        yield row("Psi7 root (d=164)", r.ok, f"{r.residual:.3e}", r.v)
        for d, l in sorted(C.PD_FACTORIZATION_REF):
            r = cmeval.verify_pd_factorization(d, l)
            yield row(f"P_{d} mod {l}", r["reference_ok"] and r["pattern_ok"])
        yield row("Psi7 mod 41", cmeval.verify_psi7_factorization())

    return _run_suite(args, checks(), f" at {args.bits} bits")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fricke7",
        description="Verification toolkit for the Tate normal form E_7 and the "
        "level-7 Fricke supersingular polynomials.",
        epilog="CSV columns match the JSON row keys of each subcommand; "
        "polynomials are serialized as low-to-high coefficient lists plus a "
        "factored display string.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, run, primes=False, fail_fast=False, prec=False, bits=False, oracle=False):
        p.set_defaults(run=run)
        p.add_argument("--format", choices=("table", "csv", "json"), default="table")
        p.add_argument("--out", default=None, help="write payload to a file instead of stdout")
        if primes:
            p.add_argument("--primes", required=True, help="A..B or comma list")
            p.add_argument("--jobs", type=int, default=1, help="worker processes for the sweep")
        if fail_fast:
            p.add_argument("--fail-fast", action="store_true", help="stop at the first FAIL")
        if prec:
            p.add_argument("--prec", type=int, default=200)
        if bits:
            p.add_argument("--bits", type=int, default=300)
        if oracle:
            p.add_argument("--check-oracle", action="store_true")

    common(sub.add_parser("hasse", help="Hasse-invariant factor counts and count-formula verdicts"),
           cmd_sweep, primes=True)
    common(sub.add_parser("ss7star", help="ss_p^(7*) polynomials and counts"), cmd_sweep, primes=True, oracle=True)
    common(sub.add_parser("nakaya", help="Nakaya linear-factor formula sweep"), cmd_sweep, primes=True, oracle=True)
    common(sub.add_parser("identities", help="exact polynomial identity suite"), cmd_identities, fail_fast=True)
    common(sub.add_parser("qseries", help="q-series identity suite"), cmd_qseries, fail_fast=True, prec=True)
    common(sub.add_parser("cm", help="CM-point and P_d validation"), cmd_cm, bits=True)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.out:
            _check_out(args.out)
        return args.run(args)
    except UsageError as e:
        _progress(f"usage error: {e}")
        return 2
    except StructuralError as e:
        _progress(f"structural error: {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
