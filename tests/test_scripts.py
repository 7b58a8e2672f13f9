import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    bench = json.loads(out.read_text())
    assert [r["p"] for r in bench["rows"]] == [41, 59]
    assert all(len(r["runs_s"]) == 2 and r["verdicts"]["factor_types"] == "PASS" for r in bench["rows"])
    assert [r["p"] for r in bench["nakaya_rows"]] == [41, 59]
    assert all(
        len(r["runs_s"]) == 2 and r["oracle_match"] and r["nakaya_ok"] and r["consistency_ok"]
        for r in bench["nakaya_rows"]
    )
    assert bench["machine"]["cpus"] and bench["sha"]


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
    assert sorted(files) == ["BENCH_count_factors_unknown-other.json", "BENCH_count_factors_unknown-this.json"]
    for name, bench in files.items():
        assert bench["paired"]["with"] in files and bench["paired"]["with"] != name
        rows = bench["rows"] + bench["nakaya_rows"]
        assert [r["p"] for r in rows] == [41, 59, 41, 59]
        assert all(len(r["runs_s"]) == 3 and 0.5 < r["paired_ratio"] < 2 for r in rows), rows
        assert all(r["verdicts"]["factor_types"] == "PASS" for r in bench["rows"])
        assert all(r["consistency_ok"] for r in bench["nakaya_rows"])
