"""Golden payloads: sha256 digests of the JSON rows of three CLI sweeps.

The digest covers `json.dumps(rows, sort_keys=True)` of each command's
`--format json` output, so any change to a count, a verdict, a polynomial or a
row key shows up here.  Regenerate only for an intended change of results.
"""

import hashlib
import json

import pytest

from fricke7.cli import main

GOLDEN = {
    "hasse": (["--primes", "5..200"], "168a215dcb3ff48a5ee339a43f9fb276e310ca5a472be200ec5bd46409dd22c9"),
    "nakaya": (["--primes", "5..200"], "3880c3559d54449be0d8764d6b326ede6d55d064e07c82907728a10e40cb3630"),
    "ss7star": (["--primes", "41,53,97"], "1ed81e4ba4492caab81863365241c06d080b9bc7faf6c09463c647e02d8c2408"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_payload(command, jobs, capsys):
    args, digest = GOLDEN[command]
    assert main([command, *args, "--format", "json", "--jobs", str(jobs)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == digest
