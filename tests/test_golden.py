"""Golden payloads: sha256 digests of the CLI commands' standard output.

Each of the six golden runs is pinned twice: by the digest of
`json.dumps(rows, sort_keys=True)` of its `--format json` rows, so any change
to a count, a verdict, a polynomial or a row key shows up, and by the digest
of the raw `--format json` output, so a change of key order or of the JSON
layout shows up too.  One small sweep per command pins the raw `--format csv`
and `--format table` output, skipped rows included.  Regenerate only for an
intended change of results or of layout.
"""

import hashlib
import json

import pytest

from fricke7.cli import main

# the arguments, the digest of the sorted rows and the digest of the raw output
SWEEPS = {
    "hasse": (["--primes", "5..200"], "168a215dcb3ff48a5ee339a43f9fb276e310ca5a472be200ec5bd46409dd22c9",
              "83df3a247a66025e9ec8b1254abd934774b91624e0dce213237da13c03a3665a"),
    "nakaya": (["--primes", "5..200"], "3880c3559d54449be0d8764d6b326ede6d55d064e07c82907728a10e40cb3630",
               "eedd9825b8c1fc2630ba04a072def66a24c48de2aa50b131cef0f03d0daca04a"),
    "ss7star": (["--primes", "41,53,97"], "1ed81e4ba4492caab81863365241c06d080b9bc7faf6c09463c647e02d8c2408",
                "f50f71264f926bc162d2739130465c9faa1750e9cf65cc626aca6d270892350e"),
}

SUITES = {
    "identities": ("e3bafef8fd83564132b7310e8187f0b526bd741ec5ea6fabce37a82458530f65",
                   "79cceb388ff618a5acc16400fbd41551e4b82514c87dcc86c49e02601d435fcd"),
    "qseries": ("bfb3e721d0d2a4270c66a247be4417e9f7cf9750a64821af8a42c928c7fac55a",
                "4a98901109e40119ff0881dd92782caea37a882e35993c836489c412e3fb0adb"),
    "cm": ("dcf4d0da8dcc0f028c960fbc09f36ed4fc183f8e7a67af28920bc4beafd9c7a9",
           "f12c3a1806310c1d88dfaa949557c08d45eb505748cd5d41733fcae3b61f0e96"),
}

# the raw output of one small sweep per command, by format
LAYOUTS = {
    ("hasse", "csv"): (["--primes", "5..60"], "a686f36c6f4481d014bee4669f1914ba8ca883656cd76c584067b7c0e68f1637"),
    ("hasse", "table"): (["--primes", "5..60"], "0443be7c50972a8efedc10b2d4d9cbe80fde9aacbd71f42c5fe3f7a2224528f2"),
    ("nakaya", "csv"): (["--primes", "5..60"], "c9843fd3a406ea30881630ba04e0ccb416e62b322f615600386ca415c7cb4251"),
    ("nakaya", "table"): (["--primes", "5..60"], "ffc0eedd597805b898dbad35aee1b06eef80d4662810e75b5686d31f571ef3eb"),
    ("ss7star", "csv"): (["--primes", "41"], "4203b2457b885c6cc6adeb499d58fe26e5f5f2f52023c99c2574579847779700"),
    ("ss7star", "table"): (["--primes", "41"], "7bda616acf987e481bc86a6ba9271203154d8b8fd2661b4abe62be78e9489a26"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _output(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _digests(argv, capsys):
    """The digests of the sorted rows and of the raw output of a `--format
    json` run."""
    out = _output([*argv, "--format", "json"], capsys)
    return _sha256(json.dumps(json.loads(out)["rows"], sort_keys=True)), _sha256(out)


@pytest.mark.parametrize("command", sorted(SWEEPS))
def test_golden_payload(command, jobs, capsys):
    args, *digests = SWEEPS[command]
    assert list(_digests([command, *args, "--jobs", str(jobs)], capsys)) == digests


@pytest.mark.parametrize("command", sorted(SUITES))
def test_golden_suite_payload(command, capsys):
    assert _digests([command], capsys) == SUITES[command]


@pytest.mark.parametrize("command, fmt", sorted(LAYOUTS))
def test_golden_layout(command, fmt, capsys):
    args, digest = LAYOUTS[command, fmt]
    assert _sha256(_output([command, *args, "--format", fmt], capsys)) == digest
