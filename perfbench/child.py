"""One fresh fricke7 process, started by ``run.py``.

    child.py --setup           import every fricke7 module, run the constants
                               self-check, print the time it finished
    child.py <fricke7 args>    import every module, then time one call of
                               fricke7.cli.main on the arguments

The last line of standard output is a JSON object.  For a CLI call it holds
``wall_s`` (call until the payload is written), ``cpu_s`` (user + system CPU
of this process during the call plus all its reaped children, which are the
sweep's pool workers), ``peak_rss_mb`` (the larger of this process's and its
largest child's peak resident set) and ``exit`` (the CLI's exit code, or
"exception").
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

MODULES = ("constants", "exactring", "exactalg", "ffpoly", "classnum", "hasse7",
           "ss7star", "qseries", "cmeval", "sweep", "cli")


def import_all():
    import importlib

    for m in MODULES:
        importlib.import_module(f"fricke7.{m}")


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main(argv) -> None:
    import_all()
    if argv == ["--setup"]:
        from fricke7 import constants

        ok = constants.self_check_ok()
        print(json.dumps({"ready": time.time(), "self_check": ok}))
        return
    from fricke7.cli import main as cli_main

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        code = cli_main(argv)
    except Exception:  # the benchmark counts it as a failure and goes on
        traceback.print_exc()
        code = "exception"
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids),
        "peak_rss_mb": max(self1.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "exit": code,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
