"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Expensive sweeps are shared through session fixtures (conftest): the full
factor-count reports for 5 <= l < 1000 and the Nakaya reports for the same
range.  All tolerances are pinned here; nothing is deferred to calibration.
"""

import json
import random
import time

import oracles
from oracles import resultant
from paper_checks import restricted_hasse_sweep, run_all_identities, run_all_series_identities
from fricke7 import constants as C
from fricke7.classnum import class_number, field_discriminant, is_squarefree
from fricke7.cli import main as cli_main
from fricke7.cmeval import (
    verify_pd_factorization,
    verify_pd_root,
    verify_psi7_factorization,
    verify_psi7_root,
)
from fricke7.ffpoly import (
    FpPoly,
    PrimeContext,
    factorize,
)
from fricke7.hasse7 import linear_count_formula, cubic_count_formula
from fricke7.qseries import (
    eta_quotient4,
    j7star_series,
    verify_series_identity,
)
from fricke7.ss7star import l7star_from_counts, ss7star_bruteforce, ss7star_resultant, ss_poly
from fricke7.sweep import primes_in

SS41_REF = (
    "Y(Y + 1)(Y + 8)(Y + 12)(Y + 13)(Y + 14)(Y + 17)(Y + 29)"
    "(Y + 31)(Y + 33)(Y + 39)(Y^2 + Y + 18)(Y^2 + 37Y + 26)"
)


def _report(n: int, ok: bool, msg: str) -> None:
    print(f"ACCEPTANCE {n:2d}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, f"criterion {n}: {msg}"


def test_criterion_01_ss41_exact(capsys):
    """ss7star --primes 41 reproduces the reference factorization, < 1 s."""
    t0 = time.perf_counter()
    code = cli_main(["ss7star", "--primes", "41", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    row = json.loads(out)["rows"][0]
    ok = code == 0 and row["factored"] == SS41_REF and elapsed < 1.0
    with capsys.disabled():
        _report(1, ok, f"ss_41^(7*) factorization exact, {elapsed:.2f}s")


def test_criterion_02_psi7_mod_41(capsys):
    ok = verify_psi7_factorization()
    with capsys.disabled():
        _report(2, ok, "Psi_7 mod 41 = (x+1)(x+14)(x+8)^2(x+29)^2(x+31)^2")


def test_criterion_03_pd_factorizations(capsys):
    ok = True
    for d, l in ((20, 5), (52, 13), (68, 17), (83, 83)):
        r = verify_pd_factorization(d, l)
        ok = ok and r["reference_ok"] and r["pattern_ok"]
    with capsys.disabled():
        _report(3, ok, "P_20/P_52/P_68/P_83 reference mod-l factorizations and square patterns")


def test_criterion_04_linear_cubic_counts(jobs, capsys):
    """N1 (l = 6 mod 7) and N3 (l = 3,5 mod 7) match the class-number formulas
    and 6L/2L for all l < 2000, within 2 minutes at the configured job count."""
    primes = [p for p in primes_in(5, 1999) if p % 7 in (3, 5, 6) and p not in (2, 3, 7)]
    t0 = time.perf_counter()
    reports = restricted_hasse_sweep(primes, ("N1", "N3"), jobs)
    elapsed = time.perf_counter() - t0
    ok = True
    for l, (rep, formulas) in reports.items():
        h, L = formulas["h_minus_l"], formulas["L"]
        if l % 7 == 6:
            ok = ok and rep.N1 == linear_count_formula(l, h) == 6 * L
        else:
            ok = ok and rep.N3 == cubic_count_formula(l, h) == 2 * L
    ok = ok and elapsed < 120.0
    with capsys.disabled():
        _report(4, ok, f"N1/N3 class-number formulas for {len(reports)} primes < 2000 in {elapsed:.0f}s")


def test_criterion_05_sextic_quadratic_counts(reports_1000, capsys):
    """Measured N6/N2 equal the conjectured class-number formulas for
    11 <= l < 1000.  A counterexample surfaces as a hard FAIL."""
    checked = 0
    ok = True
    bad = []
    for l, (rep, formulas) in sorted(reports_1000.items()):
        if l < 11:
            continue
        if l % 7 in (2, 3, 4, 5):
            checked += 1
            if rep.N6 != formulas["formula_N6"]:
                ok = False
                bad.append((l, "N6", rep.N6, formulas["formula_N6"]))
        if l % 7 in (1, 6):
            checked += 1
            if rep.N2 != formulas["formula_N2"]:
                ok = False
                bad.append((l, "N2", rep.N2, formulas["formula_N2"]))
    with capsys.disabled():
        _report(5, ok, f"conjectured N6/N2 formulas on {checked} (prime, class) cases" + (f"; counterexamples {bad}" if bad else ""))


def test_criterion_06_nakaya_and_count_consistency(nakaya_reports_1000, reports_1000, capsys):
    ok = True
    bad = []
    for p, rep in sorted(nakaya_reports_1000.items()):
        if not rep.nakaya_ok:
            ok = False
            bad.append((p, "nakaya", rep.L7star, rep.nakaya_predicted))
        if p >= 11:
            formula = l7star_from_counts(PrimeContext.make(p), reports_1000[p][0])
            if formula != rep.L7star:
                ok = False
                bad.append((p, "consistency", rep.L7star, formula))
    with capsys.disabled():
        _report(
            6,
            ok,
            f"Nakaya formula and count-consistency identities for {len(nakaya_reports_1000)} primes < 1000"
            + (f"; failures {bad}" if bad else ""),
        )


def test_criterion_07_oracle_equivalence(nakaya_reports_1000, capsys):
    ok = True
    n = 0
    for p, rep in sorted(nakaya_reports_1000.items()):
        if 11 <= p <= 300:
            n += 1
            ok = ok and rep.oracle_match is True
    # the fixture covers 11..300 through counts_and_nakaya; also hit both
    # routes directly at p = 149 for good measure
    ctx = PrimeContext.make(149)
    ok = ok and ss7star_resultant(ctx, ss_poly(ctx)) == ss7star_bruteforce(ctx, ss_poly(ctx))
    with capsys.disabled():
        _report(7, ok, f"resultant route = brute-force route for {n} primes in [11, 300]")


def test_criterion_08_identity_suite(capsys):
    t0 = time.perf_counter()
    results = run_all_identities()
    elapsed = time.perf_counter() - t0
    n_ok = sum(r.ok for r in results)
    ok = n_ok == len(results) == 17 and elapsed < 60.0
    with capsys.disabled():
        _report(8, ok, f"exact identities {n_ok}/17 in {elapsed:.1f}s")


def test_criterion_09_qseries_suite(capsys):
    results = {r.id: r for r in run_all_series_identities(200)}
    ok = all(r.ok for r in results.values())
    zero_ids = ("ETA_H", "KLEIN", "ST2H", "HM1_PROD", "H_A_RATIO", "Z_DEF", "F7_VANISH")
    ok = ok and all(results[i].checked_terms >= 200 for i in zero_ids)
    # reference coefficients
    j7 = j7star_series(10)
    ok = ok and [j7.coefficient(k) for k in range(0, 6)] == [9, 51, 204, 681, 1956, 5135]
    e = eta_quotient4(12)
    ok = ok and [e.coefficient(k) for k in range(0, 10)] == [-4, 2, 8, -5, -4, -10, 12, -7, 8, 46]
    # independent j-series agreement through 50 terms
    ok = ok and verify_series_identity("J_TAU", 50).checked_terms >= 50
    ok = ok and verify_series_identity("J_7TAU", 50).checked_terms >= 50
    with capsys.disabled():
        _report(9, ok, "q-series suite at precision 200 incl. E4^3/Delta oracles")


def test_criterion_10_cm_validation(capsys):
    ok = True
    for d in (20, 52, 68, 83):
        v = verify_pd_root(d, bits=300)
        ok = ok and v.ok and v.residual < 1e-30
    p = verify_psi7_root(bits=300)
    ok = ok and p.ok and p.residual < 1e-30 and (p.d, p.v) == (164, 58)
    with capsys.disabled():
        _report(10, ok, "|P_d(h(w/7))| < 1e-30 at 300 bits for d in {20,52,68,83} and Psi_7 at w=29+sqrt(-41)")


def test_criterion_11_property_suites(capsys):
    ok = True
    rng = random.Random(20240545)
    primes = [5, 13, 41, 97, 1009]

    # ffpoly round-trip + irreducibility certificates, >= 100 cases
    certified = 0
    for i in range(100):
        l = primes[i % len(primes)]
        deg = rng.randint(1, 40)
        f = FpPoly.make(l, [rng.randrange(l) for _ in range(deg)] + [rng.randrange(1, l)])
        fac = factorize(f)
        ok = ok and oracles.expand(fac) == f
        for g, _ in fac.factors:
            ok = ok and oracles.is_irreducible(g)
            certified += 1
    ok = ok and certified >= 100

    # resultant multiplicativity, >= 100 cases
    for _ in range(100):
        l = rng.choice(primes)
        mk = lambda d: FpPoly.make(
            l, [rng.randrange(l) for _ in range(d)] + [rng.randrange(1, l)]
        )
        f, g, h = mk(rng.randint(1, 7)), mk(rng.randint(1, 7)), mk(rng.randint(1, 7))
        ok = ok and resultant(f, g * h) == resultant(f, g) * resultant(f, h) % l

    # class numbers vs the truncated L-series oracle, all squarefree m <= 500
    for m in range(1, 501):
        if is_squarefree(m):
            D = field_discriminant(m)
            ok = ok and class_number(D) == oracles.dirichlet_class_number(D)

    # determinism: parallel and serial CLI runs are byte-identical
    import io
    from contextlib import redirect_stdout

    outs = []
    for j in ("1", "2"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["nakaya", "--primes", "5..80", "--format", "json", "--jobs", j])
        ok = ok and code == 0
        outs.append(buf.getvalue())
    ok = ok and outs[0] == outs[1]
    repeat = io.StringIO()
    with redirect_stdout(repeat):
        cli_main(["nakaya", "--primes", "5..80", "--format", "json", "--jobs", "1"])
    ok = ok and repeat.getvalue() == outs[0]

    with capsys.disabled():
        _report(11, ok, "property suites: round-trip, certificates, resultants, class numbers, determinism")
