import csv
import io
import json
import re
import subprocess
import sys

import pytest

from fricke7.cli import main, parse_primes
from fricke7.errors import UsageError


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_rows(out):
    """The rows of a table as dicts, each cell cut at its column's offset in
    the header, so that empty cells and cells with spaces keep their place."""
    header, *lines = out.splitlines()
    starts = [(m.group(), m.start()) for m in re.finditer(r"\S+", header)]
    ends = [s for _, s in starts[1:]] + [None]
    return [{k: line[s:e].strip() for (k, s), e in zip(starts, ends)} for line in lines]


class TestParsePrimes:
    def test_range(self):
        assert parse_primes("10..20") == [11, 13, 17, 19]

    def test_list(self):
        assert parse_primes("41,13,5") == [5, 13, 41]

    def test_non_prime_rejected(self):
        with pytest.raises(UsageError):
            parse_primes("4")

    def test_bad_range(self):
        with pytest.raises(UsageError):
            parse_primes("20..10")


class TestOptions:
    """Each option is registered only on the subcommands that act on it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cm", "--jobs", "2"],
            ["cm", "--fail-fast"],
            ["identities", "--jobs", "2"],
            ["qseries", "--jobs", "2"],
            ["nakaya", "--primes", "13", "--fail-fast"],
            ["hasse", "--primes", "13", "--fail-fast"],
        ],
    )
    def test_inert_option_is_usage_error(self, argv, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["qseries", "--prec", "5"],
            ["cm", "--bits", "100"],
            ["hasse", "--primes", "9223372036854775837"],  # a prime above 2^63
        ],
    )
    def test_out_of_range_value_is_usage_error(self, argv, capsys):
        """Checked before any work starts: exit 2 is a usage error, not the
        verification failure that exit 1 reports."""
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and "usage error:" in err


    @pytest.mark.parametrize(
        "argv",
        [
            ["hasse", "--primes", "1000003"],
            ["ss7star", "--primes", "9223372036854775783"],  # the largest prime below 2^63
            ["nakaya", "--primes", "999000..1000100"],
        ],
    )
    def test_prime_past_the_feasibility_limit(self, argv, capsys):
        """Primes above 10^6 cannot finish (J_l alone has l/12 + 1
        coefficients), so they are refused before the sweep starts."""
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "usage error:" in err and "1,000,000" in err and "sweep over" not in err


class TestCommands:
    def test_ss7star_41_matches_reference(self, capsys):
        code, out, _ = run_cli(["ss7star", "--primes", "41", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == "fricke7/2"
        row = doc["rows"][0]
        assert row["factored"] == (
            "Y(Y + 1)(Y + 8)(Y + 12)(Y + 13)(Y + 14)(Y + 17)(Y + 29)"
            "(Y + 31)(Y + 33)(Y + 39)(Y^2 + Y + 18)(Y^2 + 37Y + 26)"
        )
        assert row["L7star"] == 11 and row["nakaya"] == "PASS"

    def test_ss7star_non_prime_usage_error(self, capsys):
        code, _, err = run_cli(["ss7star", "--primes", "4"], capsys)
        assert code == 2 and "not prime" in err

    def test_hasse_excluded_prime_skipped(self, capsys):
        code, out, _ = run_cli(["hasse", "--primes", "7", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["skipped"] == "excluded by hypothesis"

    def test_hasse_13(self, capsys):
        code, out, _ = run_cli(["hasse", "--primes", "13", "--format", "json"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["N1"] == 6 and row["verdicts"]["count_formula"] == "PASS"

    def test_hasse_csv_has_header_and_rows(self, capsys):
        code, out, _ = run_cli(
            ["hasse", "--primes", "11..31", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("p,")
        assert len(lines) == 1 + len(parse_primes("11..31"))

    def test_identities_pass(self, capsys):
        code, out, err = run_cli(["identities", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 17
        assert all(r["verdict"] == "PASS" for r in doc["rows"])
        assert "17/17 PASS" in err

    def test_qseries_pass(self, capsys):
        code, out, _ = run_cli(["qseries", "--prec", "40", "--format", "json"], capsys)
        assert code == 0
        assert all(r["verdict"] == "PASS" for r in json.loads(out)["rows"])

    def test_nakaya_small_range(self, capsys):
        code, out, _ = run_cli(
            ["nakaya", "--primes", "5..31", "--format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(r["nakaya"] == "PASS" for r in rows)
        assert all(r.get("consistency", "PASS") == "PASS" for r in rows)
        assert not any(r["p"] == 7 for r in rows)


    @pytest.mark.parametrize("jobs", [1, 2])
    def test_nakaya_sweep_decides_the_rows(self, jobs, capsys):
        """The sweep drops the primes `PrimeContext` does not admit, in a
        serial and in a forked run alike, and its rows are those the CLI
        writes: 5 and 11 of 2..11."""
        from fricke7 import cli, sweep

        rows = sweep.nakaya_sweep([2, 3, 5, 7, 11], jobs=jobs)
        code, out, _ = run_cli(["nakaya", "--primes", "2..11", "--format", "json"], capsys)
        assert code == 0 and [r["p"] for r in rows] == [5, 11]
        assert cli._jsonable(rows) == json.loads(out)["rows"]


    @pytest.mark.parametrize("command", ["identities", "qseries"])
    @pytest.mark.parametrize("fail_fast", [True, False])
    def test_suite_stops_at_the_first_fail_under_fail_fast(self, command, fail_fast, monkeypatch, capsys):
        """A suite whose second check FAILs: --fail-fast writes the rows up to
        it and no further, without the flag every row is written; the exit
        code is 1 and the summary counts the rows written."""
        from types import SimpleNamespace

        from fricke7 import exactalg, qseries

        module, name = {"identities": (exactalg, "verify_identity"),
                        "qseries": (qseries, "verify_series_identity")}[command]
        first, second = list(module.REGISTRY)[:2]

        def fake(case_id, *args):
            return SimpleNamespace(ok=case_id != second, seconds=0.0, detail="", checked_terms=1,
                                   first_failing_exponent=None)

        monkeypatch.setattr(module, name, fake)
        code, out, err = run_cli([command, "--format", "json"] + ["--fail-fast"] * fail_fast, capsys)
        rows = json.loads(out)["rows"]
        n = 2 if fail_fast else len(module.REGISTRY)
        assert code == 1 and [r["id"] for r in rows] == list(module.REGISTRY)[:n]
        assert [r["verdict"] for r in rows[:2]] == ["PASS", "FAIL"]
        assert f"{second}: FAIL" in err and f"{command}: {n - 1}/{n} PASS" in err


class TestDeterminism:
    def test_repeat_run_byte_identical(self, capsys):
        a = run_cli(["hasse", "--primes", "11..60", "--format", "json"], capsys)
        b = run_cli(["hasse", "--primes", "11..60", "--format", "json"], capsys)
        assert a == b

    def test_parallel_equals_serial(self, capsys):
        a = run_cli(["nakaya", "--primes", "5..60", "--format", "csv", "--jobs", "1"], capsys)
        b = run_cli(["nakaya", "--primes", "5..60", "--format", "csv", "--jobs", "4"], capsys)
        assert a[1] == b[1]


def test_out_file_round_trip(tmp_path, capsys):
    path = tmp_path / "rows.json"
    code, out, _ = run_cli(
        ["ss7star", "--primes", "13", "--format", "json", "--out", str(path)], capsys
    )
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["version"] == "fricke7/2"
    # round trip: serialized coeffs reconstruct the polynomial
    row = doc["rows"][0]
    assert row["coeffs"][-1] == 1


def test_structural_error_exit_code(monkeypatch, capsys):
    from fricke7 import cli, sweep
    from fricke7.errors import StructuralError

    def boom(*a, **k):
        raise StructuralError("injected")

    monkeypatch.setattr(sweep, "ss7star_sweep", boom)
    code, _, err = run_cli(["ss7star", "--primes", "13"], capsys)
    assert code == 3 and "structural error" in err


def _fail_at_13(monkeypatch):
    """Make the pieces of the Hasse polynomial, and with them count_factors
    on the Hasse polynomial and on its fibres alike, raise at l = 13 (forked
    sweep workers inherit the patch)."""
    from fricke7 import hasse7
    from fricke7.errors import StructuralError

    real = hasse7._hasse_pieces

    def fails_at_13(ctx):
        if ctx.l == 13:
            raise StructuralError("injected")
        return real(ctx)

    monkeypatch.setattr(hasse7, "_hasse_pieces", fails_at_13)


def test_structural_error_names_its_prime(monkeypatch, capsys):
    _fail_at_13(monkeypatch)
    code, out, err = run_cli(["hasse", "--primes", "11,13", "--format", "json"], capsys)
    assert code == 3
    assert "structural error: p=13: injected (in count_factors)" in err
    rows = json.loads(out)["rows"]
    assert [r["p"] for r in rows] == [11, 13] and rows[0]["verdicts"]
    assert rows[1] == {"p": 13, "stage": "count_factors", "error": "injected"}


def test_failed_ss_poly_is_a_count_factors_row(monkeypatch, capsys):
    """The hasse worker certifies ss_l under the stage count_factors: a
    structural error there names that stage."""
    from fricke7 import sweep
    from fricke7.errors import StructuralError

    def fails(ctx):
        raise StructuralError(f"injected at l={ctx.l}")

    monkeypatch.setattr(sweep, "ss_poly", fails)
    code, out, err = run_cli(["hasse", "--primes", "13", "--format", "json"], capsys)
    assert code == 3 and "(in count_factors)" in err
    assert json.loads(out)["rows"] == [{"p": 13, "stage": "count_factors", "error": "injected at l=13"}]


@pytest.mark.parametrize("command", ["hasse", "nakaya"])
def test_failed_prime_keeps_the_other_rows(command, monkeypatch, capsys):
    """One failing prime of three: the other two rows are written, the
    failure is a row {p, stage, error}, the exit code is 3, and serial and
    parallel runs write the same bytes."""
    _fail_at_13(monkeypatch)
    argv = [command, "--primes", "11,13,17", "--format", "json"]
    serial = run_cli([*argv, "--jobs", "1"], capsys)
    parallel = run_cli([*argv, "--jobs", "2"], capsys)
    assert serial[0] == parallel[0] == 3
    assert serial[1] == parallel[1]
    rows = json.loads(serial[1])["rows"]
    assert [r["p"] for r in rows] == [11, 13, 17]
    stage = "count_factors" if command == "hasse" else "count_consistency"
    assert rows[1] == {"p": 13, "stage": stage, "error": "injected"}
    assert "error" not in rows[0] and "error" not in rows[2]


@pytest.mark.parametrize("primes", ["13,17", "11,13"])
def test_failure_row_in_csv_and_table(primes, monkeypatch, capsys):
    """CSV and table columns hold every row's fields whether the failing
    prime comes first or not: the normal row keeps its verdicts, and the
    failure row its stage and error, in columns appended at the end."""
    _fail_at_13(monkeypatch)
    code, out, _ = run_cli(["hasse", "--primes", primes, "--format", "csv"], capsys)
    assert code == 3
    rows = {r["p"]: r for r in csv.DictReader(io.StringIO(out))}
    good = rows[primes.replace("13", "").strip(",")]
    assert list(good)[-2:] == ["stage", "error"]
    assert "PASS" in good["verdicts"] and good["stage"] == good["error"] == ""
    assert rows["13"]["stage"] == "count_factors" and rows["13"]["error"] == "injected"
    assert rows["13"]["verdicts"] == ""
    code, out, _ = run_cli(["hasse", "--primes", primes], capsys)
    assert code == 3
    header, *lines = out.splitlines()
    assert header.split()[-3:] == ["verdicts", "stage", "error"]
    by_p = {line.split()[0]: line for line in lines}
    assert "PASS" in by_p[good["p"]] and "injected" not in by_p[good["p"]]
    assert by_p["13"].split()[-2:] == ["count_factors", "injected"]


@pytest.mark.parametrize("command", ["hasse", "ss7star"])
@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_skipped_first_row_keeps_the_columns(command, fmt, capsys):
    """A range that starts at the excluded prime 7 still writes every field
    of the rows after it, and the skipped row keeps its reason in a last
    column."""
    code, out, _ = run_cli([command, "--primes", "7,11", "--format", fmt], capsys)
    assert code == 0
    if fmt == "table":
        header, *lines = out.splitlines()
        row = dict(zip(header.split(), lines[-1].split()))  # cells up to the first with spaces
        assert header.split()[-1] == "skipped"
        assert lines[0].split()[0] == "7" and lines[0].endswith("  excluded by hypothesis")
    else:
        skipped, row = list(csv.DictReader(io.StringIO(out)))
        assert skipped["p"] == "7" and skipped["skipped"] == "excluded by hypothesis"
        assert row["skipped"] == ""
    assert row["p"] == "11" and row["L"] == "2"


@pytest.mark.parametrize("command", ["hasse", "ss7star"])
def test_excluded_primes_are_skipped_rows(command, capsys):
    """The primes 2, 3 and 7 get the row {p, skipped}, in prime order among
    the rows with a result."""
    code, out, _ = run_cli([command, "--primes", "2..13", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["p"] for r in rows] == [2, 3, 5, 7, 11, 13]
    skipped = {"skipped": "excluded by hypothesis"}
    assert [rows[i] for i in (0, 1, 3)] == [{"p": p, **skipped} for p in (2, 3, 7)]
    assert all("L" in rows[i] for i in (2, 4, 5))


def test_nakaya_drops_excluded_primes(capsys):
    """nakaya writes no row for 2, 3 and 7."""
    code, out, _ = run_cli(["nakaya", "--primes", "2..13", "--format", "json"], capsys)
    assert code == 0
    assert [r["p"] for r in json.loads(out)["rows"]] == [5, 11, 13]


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_columns_hold_every_result_key(fmt, capsys):
    """p = 5 has no count consistency (the case derivations start at 11):
    the `consistency` column still comes from the rows after it, and p = 5
    leaves it empty, as every row leaves a key it lacks."""
    code, out, _ = run_cli(["nakaya", "--primes", "5..13", "--format", fmt], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out))) if fmt == "csv" else table_rows(out)
    assert list(rows[0])[-1] == "consistency"
    assert [r["p"] for r in rows] == ["5", "11", "13"]
    assert [r["consistency"] for r in rows] == ["", "PASS", "PASS"]


def test_table_tells_a_missing_key_from_a_null_value(capsys):
    """The skipped rows 2, 3 and 7 lack the counts, so their cells are empty;
    a row's null formula (N1's at l = 11, which is 4 mod 7) reads None."""
    code, out, _ = run_cli(["hasse", "--primes", "2..13", "--format", "table"], capsys)
    assert code == 0
    rows = {r["p"]: r for r in table_rows(out)}
    assert list(rows) == ["2", "3", "5", "7", "11", "13"]
    assert [rows[p]["N1"] for p in ("2", "3", "7")] == ["", "", ""]
    assert rows["7"]["skipped"] == "excluded by hypothesis" and rows["11"]["skipped"] == ""
    assert rows["11"]["formula_N1"] == "None" and rows["11"]["N1"] not in ("", "None")


@pytest.mark.parametrize("target", ["missing/rows.json", "."])
def test_unwritable_out_is_refused_before_the_sweep(target, tmp_path, capsys):
    """An --out in a directory that does not exist, or naming a directory,
    is a usage error before any prime is worked on."""
    code, out, err = run_cli(["hasse", "--primes", "11..60", "--out", str(tmp_path / target)], capsys)
    assert code == 2 and out == ""
    assert "usage error: --out" in err and "sweep over" not in err
    assert list(tmp_path.iterdir()) == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fricke7.cli", "identities", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["version"] == "fricke7/2"



def test_pool_never_larger_than_the_prime_list(monkeypatch, capsys):
    """The fork runner starts min(jobs, len(args)) workers, hands them the
    last (largest) item first and returns the rows in order; one prime runs
    serially, with no fork."""
    import os

    from fricke7 import sweep

    calls = []  # per run_parallel call: its args, the forks made, the items handed out
    real_run, real_fork, real_give = sweep.run_parallel, os.fork, sweep._Worker.give

    def run(worker, args, jobs):
        calls.append({"args": args, "forks": 0, "handed": []})
        return real_run(worker, args, jobs)

    def fork():
        calls[-1]["forks"] += 1
        return real_fork()

    def give(self, i):
        calls[-1]["handed"].append(calls[-1]["args"][i])
        real_give(self, i)

    monkeypatch.setattr(sweep, "run_parallel", run)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(sweep._Worker, "give", give)
    assert sweep.run_parallel(abs, [-1, -2, -3], jobs=64) == [1, 2, 3]
    assert sweep.run_parallel(abs, [-1, -2, -3], jobs=2) == [1, 2, 3]
    assert [c["forks"] for c in calls] == [3, 2]
    # the largest prime of a sorted sweep first; the rows come back in order
    assert [c["handed"] for c in calls] == [[-3, -2, -1]] * 2

    serial = run_cli(["hasse", "--primes", "13,17", "--format", "json"], capsys)
    parallel = run_cli(["hasse", "--primes", "13,17", "--format", "json", "--jobs", "64"], capsys)
    assert parallel[:2] == serial[:2]
    assert [c["forks"] for c in calls] == [3, 2, 0, 2]
    assert [a[0] for a in calls[3]["handed"]] == [17, 13]
    # one prime runs serially: no fork at all
    run_cli(["hasse", "--primes", "13", "--jobs", "64"], capsys)
    assert [c["forks"] for c in calls] == [3, 2, 0, 2, 0]


def test_ss7star_workers_factor(tmp_path, monkeypatch, capsys):
    """The ss7star sweep's workers build the factored display of ss_p^(7*):
    --jobs 1 and --jobs 2 write the same bytes, and with two workers every
    factorize call runs in a worker, none in the parent."""
    import os

    from fricke7 import sweep

    log = tmp_path / "factorize.pids"
    real = sweep.factorize

    def spy(f):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(f)

    monkeypatch.setattr(sweep, "factorize", spy)
    argv = ["ss7star", "--primes", "5..60", "--format", "json"]
    serial = run_cli([*argv, "--jobs", "1"], capsys)
    assert log.read_text().split() == [str(os.getpid())] * 14  # the primes up to 60 but 2, 3, 7
    log.unlink()
    parallel = run_cli([*argv, "--jobs", "2"], capsys)
    assert parallel[:2] == serial[:2] and serial[0] == 0
    pids = log.read_text().split()
    assert len(pids) == 14 and str(os.getpid()) not in pids
    assert all(r["factored"] for r in json.loads(serial[1])["rows"] if "skipped" not in r)


def test_ss7star_factorize_failure_is_a_row(monkeypatch, capsys):
    """A structural error while a worker factors ss_p^(7*) gives that prime
    the row {p, stage: "factorize", error}; the other rows are written and
    the exit code is 3."""
    from fricke7 import sweep
    from fricke7.errors import StructuralError

    real = sweep.factorize

    def fails_at_13(f):
        if f.modulus == 13:
            raise StructuralError("injected")
        return real(f)

    monkeypatch.setattr(sweep, "factorize", fails_at_13)
    code, out, err = run_cli(["ss7star", "--primes", "11,13,17", "--format", "json", "--jobs", "2"], capsys)
    assert code == 3 and "structural error: p=13: injected (in factorize)" in err
    rows = json.loads(out)["rows"]
    assert rows[1] == {"p": 13, "stage": "factorize", "error": "injected"}
    assert rows[0]["factored"] and rows[2]["factored"]
