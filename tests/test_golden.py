"""Golden payloads: sha256 digests of the JSON rows of the CLI commands.

The digest covers `json.dumps(rows, sort_keys=True)` of each command's
`--format json` output, so any change to a count, a verdict, a polynomial or a
row key shows up here.  Regenerate only for an intended change of results.
"""

import hashlib
import json

import pytest

from fricke7.cli import main

SWEEPS = {
    "hasse": (["--primes", "5..200"], "168a215dcb3ff48a5ee339a43f9fb276e310ca5a472be200ec5bd46409dd22c9"),
    "nakaya": (["--primes", "5..200"], "3880c3559d54449be0d8764d6b326ede6d55d064e07c82907728a10e40cb3630"),
    "ss7star": (["--primes", "41,53,97"], "1ed81e4ba4492caab81863365241c06d080b9bc7faf6c09463c647e02d8c2408"),
}

SUITES = {
    "identities": "e3bafef8fd83564132b7310e8187f0b526bd741ec5ea6fabce37a82458530f65",
    "qseries": "bfb3e721d0d2a4270c66a247be4417e9f7cf9750a64821af8a42c928c7fac55a",
    "cm": "dcf4d0da8dcc0f028c960fbc09f36ed4fc183f8e7a67af28920bc4beafd9c7a9",
}


def _digest(argv, capsys) -> str:
    assert main([*argv, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_golden_payload(command, jobs, capsys):
    args, digest = SWEEPS[command]
    assert _digest([command, *args, "--jobs", str(jobs)], capsys) == digest


@pytest.mark.parametrize("command", sorted(SUITES))
def test_golden_suite_payload(command, capsys):
    assert _digest([command], capsys) == SUITES[command]
