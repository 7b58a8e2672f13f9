import json
import subprocess
import sys

import pytest

from fricke7.cli import main, parse_primes
from fricke7.errors import UsageError


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    monkeypatch.setattr(sweep, "nakaya_sweep", boom)
    code, _, err = run_cli(["ss7star", "--primes", "13"], capsys)
    assert code == 3 and "structural error" in err


def test_structural_error_names_its_prime(monkeypatch, capsys):
    from fricke7 import hasse7
    from fricke7.errors import StructuralError

    real = hasse7.hasse_poly

    def fails_at_13(ctx):
        if ctx.l == 13:
            raise StructuralError("injected")
        return real(ctx)

    monkeypatch.setattr(hasse7, "hasse_poly", fails_at_13)
    code, out, err = run_cli(["hasse", "--primes", "11,13"], capsys)
    assert code == 3 and out == ""
    assert "structural error: p=13: injected" in err


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
    from fricke7 import sweep

    sizes = []

    class SerialPool:
        """Stands in for multiprocessing.Pool: records `processes`, maps in-process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return [fn(a) for a in args]

    monkeypatch.setattr(sweep.multiprocessing, "Pool", SerialPool)
    assert sweep.run_parallel(abs, [-1, -2, -3], jobs=64) == [1, 2, 3]
    assert sweep.run_parallel(abs, [-1, -2, -3], jobs=2) == [1, 2, 3]
    assert sizes == [3, 2]

    serial = run_cli(["hasse", "--primes", "13,17", "--format", "json"], capsys)
    parallel = run_cli(["hasse", "--primes", "13,17", "--format", "json", "--jobs", "64"], capsys)
    assert parallel[:2] == serial[:2]
    assert sizes == [3, 2, 2]
    # one prime runs serially: no pool at all
    run_cli(["hasse", "--primes", "13", "--jobs", "64"], capsys)
    assert sizes == [3, 2, 2]
