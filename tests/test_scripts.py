import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the keys of the BENCH rows, one tree or two (two add only `paired_ratio`),
# and the metrics of a CLI run, which a band record's runs share
ROW_KEYS = {"p", "class", "median_s", "runs_s", "counts", "verdicts"}
NAKAYA_ROW_KEYS = {"p", "class", "median_s", "runs_s", "L", "L7star", "oracle_match", "nakaya_ok", "consistency_ok"}
CLI_ROW_KEYS = {"command", "primes", "jobs", "runs", "wall_s", "cpu_s", "peak_rss_mb"}
METRICS = {"wall_s", "cpu_s", "peak_rss_mb"}


def _load(name, monkeypatch):
    """The script `name` as a module, with scripts/ on sys.path as when it
    runs as a script (check_band imports bench_counts)."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_show_reference_tables_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "show_reference_tables.py")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ss_41^(7*)(Y) =")


def test_bench_counts_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_counts.py"),
         "--primes", "41,59", "--repeats", "2", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    (out,) = tmp_path.glob("BENCH_count_factors_*.json")
    assert out.name.endswith("-p41-59-n2.json")
    bench = json.loads(out.read_text())
    assert [r["p"] for r in bench["rows"]] == [41, 59]
    assert all(len(r["runs_s"]) == 2 and r["verdicts"]["factor_types"] == "PASS" for r in bench["rows"])
    assert [r["p"] for r in bench["nakaya_rows"]] == [41, 59]
    assert all(
        len(r["runs_s"]) == 2 and r["oracle_match"] and r["nakaya_ok"] and r["consistency_ok"]
        for r in bench["nakaya_rows"]
    )
    # --primes replaces the per-prime rows only: the CLI calls keep their primes
    nakaya_mix = [31, 139, 229, 499, 659, 907]
    assert [(r["command"], r["primes"], r["jobs"]) for r in bench["cli_rows"]] == [
        ("hasse", [1901, 2083], 2), ("nakaya", nakaya_mix, 2), ("ss7star", nakaya_mix, 2)]
    assert all(len(r["runs"]) == 2 and all(r[m] > 0 for m in METRICS) and all(set(run) == METRICS for run in r["runs"])
               for r in bench["cli_rows"])
    assert bench["machine"]["cpus"] and bench["sha"]
    # the rows of a one-tree run have the keys of a paired run's, less `paired_ratio`
    assert all(set(r) == ROW_KEYS for r in bench["rows"])
    assert all(set(r) == NAKAYA_ROW_KEYS for r in bench["nakaya_rows"])
    assert all(set(r) == CLI_ROW_KEYS for r in bench["cli_rows"])


def test_bench_counts_paired_runs(tmp_path):
    """Two copies of the tree, timed alternately: both BENCH files, each row
    with k runs and a paired ratio near 1."""
    for name in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / name / "src", ignore=shutil.ignore_patterns("__pycache__"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tmp_path / "a" / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_counts.py"), "--primes", "41,59", "--repeats", "3",
         "--out-dir", str(out_dir), "--paired", str(tmp_path / "b" / "src")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    files = {p.name: json.loads(p.read_text()) for p in out_dir.glob("BENCH_count_factors_*.json")}
    assert sorted(files) == ["BENCH_count_factors_unknown-p41-59-n2-other.json",
                             "BENCH_count_factors_unknown-p41-59-n2-this.json"]
    for name, bench in files.items():
        assert bench["paired"]["with"] in files and bench["paired"]["with"] != name
        rows = bench["rows"] + bench["nakaya_rows"]
        assert [r["p"] for r in rows] == [41, 59, 41, 59]
        assert all(len(r["runs_s"]) == 3 and 0.5 < r["paired_ratio"] < 2 for r in rows), rows
        assert all(r["verdicts"]["factor_types"] == "PASS" for r in bench["rows"])
        assert all(r["consistency_ok"] for r in bench["nakaya_rows"])
        assert [r["command"] for r in bench["cli_rows"]] == ["hasse", "nakaya", "ss7star"]
        assert all(len(r["runs"]) == 3 and set(r["paired_ratio"]) == METRICS
                   and 0.5 < r["paired_ratio"]["peak_rss_mb"] < 2 for r in bench["cli_rows"])
        assert all(set(r) == ROW_KEYS | {"paired_ratio"} for r in bench["rows"])
        assert all(set(r) == NAKAYA_ROW_KEYS | {"paired_ratio"} for r in bench["nakaya_rows"])
        assert all(set(r) == CLI_ROW_KEYS | {"paired_ratio"} for r in bench["cli_rows"])


def test_bench_nakaya_pair_runs(tmp_path):
    """Two copies of the tree, nakaya rows alone: both BENCH files, with no
    hasse or CLI rows and only the nakaya total's ratio."""
    for name in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / name / "src", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "a" / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_nakaya_pair.py"), "--primes", "41,59", "--repeats", "2",
         "--out-dir", str(tmp_path), str(tmp_path / "b" / "src")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    files = {p.name: json.loads(p.read_text()) for p in tmp_path.glob("BENCH_count_factors_*.json")}
    assert sorted(files) == ["BENCH_count_factors_unknown-p41-59-n2-other.json",
                             "BENCH_count_factors_unknown-p41-59-n2-this.json"]
    for bench in files.values():
        assert bench["rows"] == [] and bench["cli_rows"] == []
        assert [r["p"] for r in bench["nakaya_rows"]] == [41, 59]
        assert all(len(r["runs_s"]) == 2 and r["consistency_ok"] for r in bench["nakaya_rows"])
        assert set(bench["paired"]) == {"with", "order", "nakaya_total_ratio"}


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("bench_counts", ["--primes", "7", "--repeats", "1"], "l != 7, got 7"),
        ("bench_counts", ["--primes", "2,41", "--repeats", "1"], "l != 7, got 2"),
        ("bench_counts", ["--primes", "41", "--repeats", "0"], "--repeats must be at least 1, got 0"),
        ("bench_counts", ["--primes", "41,x", "--repeats", "1"], "--primes takes a comma list of primes, got '41,x'"),
        ("bench_nakaya_pair", ["--primes", "5,7", "--repeats", "1", "OTHER"], "l != 7, got 7"),
        ("bench_nakaya_pair", ["--primes", "41", "--repeats", "0", "OTHER"], "--repeats must be at least 1, got 0"),
    ],
)
def test_bench_scripts_refuse_bad_inputs(script, args, message, tmp_path):
    """A prime the sweeps give no counts for, a token that is not an integer
    or --repeats below 1 ends the run before any child starts: a non-zero exit, one line on stderr naming
    it, no traceback and no BENCH file."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{script}.py"), *args, "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode != 0
    assert proc.stderr.splitlines() == [proc.stderr.strip()] and message in proc.stderr
    assert "Traceback" not in proc.stderr and not list(tmp_path.iterdir())


def test_check_band_records_and_checks(tmp_path, monkeypatch):
    """A small band recorded, then checked: exit 0 on the same rows, 1 when a
    recorded count differs.  The record's runs have the metrics of a BENCH
    file's CLI runs, and its machine the keys of a BENCH file's."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    record = tmp_path / "band.json"

    def run(*args):
        return subprocess.run([sys.executable, str(ROOT / "scripts" / "check_band.py"), *args, str(record)],
                              capture_output=True, text=True, timeout=120, env=env)

    proc = run("--band", "11..23")
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert rec["band"] == "11..23" and rec["jobs"] == 2
    assert [r["p"] for r in rec["rows"]["nakaya"]] == [11, 13, 17, 19, 23]
    assert set(rec["runs"]["hasse"]) == set(rec["runs"]["nakaya"]) == METRICS
    assert set(rec["machine"]) == set(_load("bench_counts", monkeypatch).machine())
    assert "| nakaya |" in proc.stdout
    proc = run()
    assert proc.returncode == 0, proc.stderr

    (row,) = [r for r in rec["rows"]["nakaya"] if r["p"] == 13]
    row["L7star"] += 1
    record.write_text(json.dumps(rec))
    proc = run()
    assert proc.returncode == 1 and "nakaya p=13: recorded" in proc.stderr


def test_check_band_refuses_an_empty_band(tmp_path):
    """A band the CLI refuses ends with a non-zero exit, the CLI's usage
    message on stderr and no traceback, and writes no record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    record = tmp_path / "band.json"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "check_band.py"), "--band", "30..20", str(record)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode != 0
    assert "usage error: empty prime range '30..20'" in proc.stderr
    assert "Traceback" not in proc.stderr and not record.exists()


def test_check_band_verdict_table(monkeypatch):
    """A row passes with no error and no FAIL verdict (SKIP passes); the
    table counts them per class l mod 7 and sweep, skipped primes left out."""
    check_band = _load("check_band", monkeypatch)
    rows = {
        "hasse": [
            {"p": 29, "verdicts": {"count_formula": "SKIP", "factor_types": "PASS"}},
            {"p": 43, "verdicts": {"count_formula": "FAIL", "factor_types": "PASS"}},
            {"p": 71, "skipped": "not admissible"},
        ],
        "nakaya": [
            {"p": 29, "nakaya": "PASS", "consistency": "PASS"},
            {"p": 43, "nakaya": "PASS", "consistency": "FAIL"},
            {"p": 71, "error": "boom"},
        ],
    }
    assert not check_band._passes({"p": 43, "error": "boom"})
    table = check_band.verdict_table(rows).splitlines()
    assert table[2] == "| hasse | 1 of 2 | 0 of 0 | 0 of 0 | 0 of 0 | 0 of 0 | 0 of 0 |"
    assert table[3] == "| nakaya | 1 of 3 | 0 of 0 | 0 of 0 | 0 of 0 | 0 of 0 | 0 of 0 |"


@pytest.mark.parametrize("options", [[], ["--quick"], ["--jobs", "3"]])
def test_run_verification_calls_parse_and_a_failure_exits_1(options, monkeypatch, capsys):
    """With the CLI's `main` replaced, so that no check runs: every argv
    run_verification would run parses under the CLI's own parser, each
    command once; the run exits 0 when every call passes, and 1 (having
    still made every call) when one call fails."""
    from fricke7 import cli

    run_verification = _load("run_verification", monkeypatch)
    monkeypatch.setattr(sys, "argv", ["run_verification.py", *options])
    calls = []
    monkeypatch.setattr(run_verification, "cli_main", lambda argv: calls.append(argv) or 0)
    assert run_verification.main() == 0
    parser = cli.build_parser()
    parsed = [parser.parse_args(argv) for argv in calls]
    assert [a.command for a in parsed] == ["identities", "qseries", "cm", "hasse", "nakaya", "ss7star"]
    assert all(a.jobs == (3 if "--jobs" in options else 2) for a in parsed[3:5])
    assert "ALL PASS" in capsys.readouterr().err

    failing = []
    monkeypatch.setattr(run_verification, "cli_main",
                        lambda argv: failing.append(argv) or (1 if argv[0] == "nakaya" else 0))
    assert run_verification.main() == 1
    assert failing == calls
    assert "== nakaya sweep: exit 1" in capsys.readouterr().err
