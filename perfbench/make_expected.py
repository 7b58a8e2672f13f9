"""Regenerate ``expected.json``: the compared fields of every prime a workload
can draw and the verdict of every registry check.

    python3 perfbench/make_expected.py

It runs the fricke7 CLI over the whole of each drawing range, so it takes a
few minutes on two cores.  Rerun it only when the mathematics is meant to
change; a refactor must leave the file as it is.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads as W

ROOT = W.HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from fricke7.cli import main as cli_main  # noqa: E402


def run(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "payload.json"
        code = cli_main(argv + ["--format", "json", "--out", str(out)])
        if code != 0:
            raise SystemExit(f"fricke7 {' '.join(argv)} exited {code}")
        return json.loads(out.read_text())["rows"]


def main() -> None:
    expected = {
        "hasse": W.extract("hasse", run(W.sweep_argv("hasse", W.primes_in(*W.HASSE_RANGE)))),
        "nakaya": W.extract(
            "nakaya",
            run(W.sweep_argv("nakaya", W.primes_in(W.NAKAYA_LOW[0], W.NAKAYA_HIGH[1]))),
        ),
    }
    for label, argv, _ in W.REGISTRY_COMMANDS:
        expected[label] = W.extract(label, run(argv))
    W.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
