"""The traced run: one serial pass over every workload with spans at the
layer boundaries, plus ffpoly kernel points and hasse7 count probes.

Spans are recorded from the benchmark's side.  For the CLI passes, the
module-level names that fricke7 looks up at call time (``sweep.count_factors``,
``ss7star.resultant_in_X``, ``exactalg.verify_identity``, ...) are replaced by
wrappers for the length of the pass and restored afterwards; the program's
files are not changed.  Spans are kept in memory and written out as JSON at
the end.  Each span records name, id, parent, start, end and the CPU time
spent inside it; the spans of one prime share that prime as their id.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

import workloads as W

LAYERS = ("cli", "sweep", "hasse7", "ss7star", "classnum", "ffpoly",
          "exactalg", "qseries", "cmeval")
KERNEL_MODULUS = 9973
KERNEL_DEGREES = (1000, 4000, 16000)
KERNEL_REPEATS = {1000: 7, 4000: 3, 16000: 1}
ORACLE_LIMIT = 300  # counts_and_nakaya runs the brute-force oracle up to here


@dataclass
class Span:
    name: str
    id: object
    parent: Optional[int]
    root: str
    start: float
    end: float = 0.0
    cpu: float = 0.0  # CPU seconds of this process inside the span
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches = []

    @contextmanager
    def span(self, name: str, id=None):
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            up = self.spans[parent]
            id, root = (up.id if id is None else id), up.root
        else:
            root = name
        s = Span(name, id, parent, root, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(s)
        cpu0 = time.process_time()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.cpu = time.process_time() - cpu0
            self._stack.pop()

    def wrap(self, module, attr: str, name, id_of: Optional[Callable] = None,
             record: Optional[Callable] = None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.
        ``name`` is a span name or a function of the call's arguments.  A
        name the program no longer has is skipped, and its metrics read 0."""
        orig = getattr(module, attr, None)
        if orig is None:
            print(f"perfbench: {module.__name__}.{attr} not found, not traced", file=sys.stderr)
            return

        def wrapper(*args, **kwargs):
            span_name = name(*args) if callable(name) else name
            with self.span(span_name, id_of(*args) if id_of else None) as s:
                out = orig(*args, **kwargs)
                if record:
                    s.attrs.update(record(out))
                return out

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    # -- queries

    def self_seconds(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def select(self, root: str, name: str) -> List[Span]:
        return [s for s in self.spans if s.root == root and s.name == name]

    def total(self, root: str, name: str) -> float:
        return sum(s.seconds for s in self.select(root, name))

    def dump(self, path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def _wrap_program(tr: Tracer) -> None:
    from fricke7 import classnum, cli, cmeval, exactalg, hasse7, qseries, ss7star, sweep

    item_id = lambda args: args[0]  # noqa: E731  the worker's (p, ...) tuple
    tr.wrap(sweep, "_hasse_worker", "sweep.item", id_of=item_id)
    tr.wrap(sweep, "_nakaya_worker", "sweep.item", id_of=item_id)
    for fn in ("hasse_sweep", "nakaya_sweep"):
        tr.wrap(sweep, fn, "sweep.run")
    tr.wrap(sweep, "count_factors", "hasse7.count_factors")
    tr.wrap(sweep, "verify_count_formulas", "hasse7.verify_count_formulas")
    tr.wrap(sweep, "counts_and_nakaya", "ss7star.counts_and_nakaya")
    tr.wrap(sweep, "count_consistency", "ss7star.count_consistency")
    tr.wrap(hasse7, "hasse_poly", "hasse7.hasse_poly", record=lambda h: {"degree": h.degree})
    tr.wrap(hasse7, "_radical", "ffpoly.radical")
    tr.wrap(hasse7, "_ddf", "ffpoly.ddf")
    for mod in (hasse7, ss7star):
        tr.wrap(mod, "supersingular_j_in_fp", "hasse7.supersingular_j_in_fp")
    for mod in (hasse7, classnum):
        tr.wrap(mod, "class_number", "classnum.class_number")
    tr.wrap(ss7star, "ss_poly", "ss7star.ss_poly")
    tr.wrap(ss7star, "ss7star_resultant", "ss7star.resultant")
    tr.wrap(ss7star, "ss7star_bruteforce", "ss7star.bruteforce")
    tr.wrap(ss7star, "count_factors", "hasse7.count_factors")
    tr.wrap(ss7star, "resultant_in_X", "ffpoly.resultant_in_X")
    tr.wrap(ss7star, "roots_in_fp2", "ffpoly.roots_in_fp2")
    tr.wrap(cli, "emit", "cli.emit")
    tr.wrap(exactalg, "verify_identity", lambda case, *a: f"exactalg.{case}")
    tr.wrap(qseries, "verify_series_identity", lambda case, *a: f"qseries.{case}")
    for fn in ("verify_pd_root", "verify_psi7_root", "verify_pd_factorization",
               "verify_psi7_factorization"):
        tr.wrap(cmeval, fn, f"cmeval.{fn}")


def _serial(argv: List[str]) -> List[str]:
    return [("1" if prev == "--jobs" else a) for prev, a in zip([None] + argv, argv)]


# -- probes outside the CLI path


def _count_probes(tr: Tracer, primes: List[int], expected) -> List[str]:
    """The need-restricted count_factors calls, without histogram: N1/N3 (the
    partial DDF walk) on every prime, N6 (division route) on l = 2..5 mod 7
    and N2 (family route) on l = 1, 6 mod 7."""
    from fricke7.ffpoly import PrimeContext
    from fricke7.hasse7 import count_factors

    reasons = []
    for p in primes:
        ctx = PrimeContext.make(p)
        want = expected[str(p)]
        probes = [("count_n1n3", ("N1", "N3"))]
        probes.append(("count_n6", ("N6",)) if p % 7 in (2, 3, 4, 5) else ("count_n2", ("N2",)))
        for name, need in probes:
            with tr.span(f"hasse7.{name}", id=p):
                rep = count_factors(ctx, need=need, with_histogram=False)
            wrong = {k: getattr(rep, k) for k in need if getattr(rep, k) != want[k]}
            if wrong:
                reasons.append(f"probe {name} at {p}: got {wrong}, expected {[want[k] for k in need]}")
    return reasons


def powmod_exponent(d: int, l: int = KERNEL_MODULUS) -> int:
    """x^l mod f, or the first power x^(l^k) with l^k >= d when x^l would
    already be reduced (d = 16000 at l = 9973 uses x^(l^2))."""
    e = l
    while e < d:
        e *= l
    return e


def computed_ops(op: str, d: int) -> int:
    """Coefficient multiply-adds of the schoolbook F_l[x] kernel for a point,
    computed from the degrees (not counted while running).  gcd assumes the
    generic remainder sequence, whose degrees drop by one per step."""
    if op == "mul":
        return (d + 1) ** 2
    if op == "rem":
        return (d + 1) * d
    if op == "gcd":
        return d * d
    ops, out_deg, base_deg, e = 0, 0, 1, powmod_exponent(d)

    def mulmod(a: int, b: int):
        n = a + b
        return (a + 1) * (b + 1) + (max(0, n - d + 1) * d), min(n, d - 1)

    while e:
        if e & 1:
            c, out_deg = mulmod(out_deg, base_deg)
            ops += c
        e >>= 1
        if e:
            c, base_deg = mulmod(base_deg, base_deg)
            ops += c
    return ops


def _kernel_points(tr: Tracer, seed: int) -> List[str]:
    from fricke7.ffpoly import FpPoly

    l = KERNEL_MODULUS
    rng = random.Random(seed)
    reasons = []

    def dense(n: int, monic: bool) -> FpPoly:
        return FpPoly.make(l, [rng.randrange(l) for _ in range(n)] + [1 if monic else rng.randrange(1, l)])

    for d in KERNEL_DEGREES:
        f, g, a = dense(d, True), dense(d, False), dense(2 * d, False)
        x0 = rng.randrange(l)
        e = powmod_exponent(d)
        cases = (
            ("mul", lambda: f * g),
            ("rem", lambda: divmod(a, f)),
            ("powmod", lambda: FpPoly.x(l).powmod(e, f)),
            ("gcd", lambda: f.gcd(g)),
        )
        for op, call in cases:
            for _ in range(KERNEL_REPEATS[d]):
                with tr.span(f"ffpoly.{op}.d{d}", id=d):
                    out = call()
            if op == "mul" and out(x0) != f(x0) * g(x0) % l:
                reasons.append(f"kernel mul d{d}: wrong product")
            if op == "rem" and a(x0) != (out[0](x0) * f(x0) + out[1](x0)) % l:
                reasons.append(f"kernel rem d{d}: a != q f + r")
            if op == "gcd" and not ((f % out).is_zero and (g % out).is_zero):
                reasons.append(f"kernel gcd d{d}: does not divide both inputs")
    return reasons


# -- the run


def traced_run(seed: int, reference: Callable, out_dir, trace_path):
    """Run every workload once untraced (``reference``, fresh processes) and
    once traced (serial, in this process), then the probes and kernel points.
    Returns (attempted, failed, reasons, metrics)."""
    from child import import_all

    sys.path.insert(0, str(W.HERE.parent / "src"))
    tr = Tracer()
    with tr.span("import"):
        import_all()
    from fricke7 import constants
    from fricke7.cli import main as cli_main

    with tr.span("constants.self_check"):
        reasons = [] if constants.self_check_ok() else ["constants self-check failed"]
    attempted, failed = 1, len(reasons)

    # The first round of each workload, its invocations as one operation.
    ops = {w: [inv for op in next(W.rounds(w, seed)) for inv in op] for w in W.WORKLOADS}
    refs = {}
    for w in W.WORKLOADS:
        refs[w] = reference(ops[w])
        attempted += refs[w]["attempted"]
        failed += refs[w]["failed"]
        reasons += refs[w]["reasons"]

    _wrap_program(tr)
    try:
        for w in W.WORKLOADS:
            with tr.span(f"cli.{w}", id=w):
                for label, argv, keys in ops[w]:
                    out = out_dir / f"traced-{label}.json"
                    with tr.span("cli.main"):
                        try:
                            code = cli_main(_serial(argv) + ["--format", "json", "--out", str(out)])
                        except Exception as e:  # counted as failed, the run goes on
                            code = f"exception {e!r}"
                    nfail, why = W.check_payload(label, keys, out.read_text() if out.exists() else "", code)
                    attempted, failed, reasons = attempted + len(keys), failed + nfail, reasons + why
    finally:
        tr.unwrap_all()

    hasse_primes = sorted(p for _, _, keys in ops["hasse-band"] for p in keys)
    with tr.span("probe.hasse7"):
        why = _count_probes(tr, hasse_primes, W.load_expected()["hasse"])
    with tr.span("kernels"):
        why += _kernel_points(tr, seed)
    attempted += 2 * len(hasse_primes) + 3 * len(KERNEL_DEGREES)
    failed, reasons = failed + len(why), reasons + why

    tr.dump(trace_path)
    return attempted, failed, reasons, _metrics(tr, refs)


def _metrics(tr: Tracer, refs) -> Dict[str, object]:
    m: Dict[str, object] = {}

    def put(name, value, unit="s"):
        m[name] = {"value": value, "unit": unit}

    def ratio(a, b):  # 0 when a traced name is gone from the program
        return a / b if b else 0.0

    put("import.s", tr.total("import", "import"))
    put("constants.self_check.s", tr.total("constants.self_check", "constants.self_check"))
    for d in KERNEL_DEGREES:
        for op in ("mul", "rem", "powmod", "gcd"):
            name = f"ffpoly.{op}.d{d}"
            put(f"{name}.s", statistics.median(s.seconds for s in tr.select("kernels", name)))
            put(f"{name}.computed_ops", computed_ops(op, d), "count")

    hb, nm, rg = "cli.hasse-band", "cli.nakaya-mix", "cli.registries"
    put("ffpoly.radical.s", tr.total(hb, "ffpoly.radical"))
    put("ffpoly.ddf.s", tr.total(hb, "ffpoly.ddf"))
    put("ffpoly.resultant_in_X.s", tr.total(nm, "ffpoly.resultant_in_X"))
    put("ffpoly.roots_in_fp2.s", tr.total(nm, "ffpoly.roots_in_fp2"))
    for fn in ("hasse_poly", "count_factors", "verify_count_formulas", "supersingular_j_in_fp"):
        put(f"hasse7.{fn}.s", tr.total(hb, f"hasse7.{fn}"))
    for fn in ("count_n1n3", "count_n6", "count_n2"):
        put(f"hasse7.{fn}.s", tr.total("probe.hasse7", f"hasse7.{fn}"))
    put("hasse7.degree_total", sum(s.attrs["degree"] for s in tr.select(hb, "hasse7.hasse_poly")), "count")

    ss = {fn: tr.total(nm, f"ss7star.{fn}") for fn in
          ("ss_poly", "resultant", "bruteforce", "counts_and_nakaya", "count_consistency")}
    for fn, v in ss.items():
        put(f"ss7star.{fn}.s", v)
    put("ss7star.consistency_share",
        ratio(ss["count_consistency"], ss["counts_and_nakaya"] + ss["count_consistency"]), "ratio")
    small = sum(s.seconds for s in tr.select(nm, "ss7star.counts_and_nakaya") if s.id <= ORACLE_LIMIT)
    put("ss7star.oracle_share", ratio(ss["bruteforce"], small), "ratio")
    put("ss7star.oracle_items", len(tr.select(nm, "ss7star.bruteforce")), "count")
    put("classnum.class_number.s", tr.total(hb, "classnum.class_number") + tr.total(nm, "classnum.class_number"))

    for w, root in (("hasse-band", hb), ("nakaya-mix", nm)):
        items = [s.seconds for s in tr.select(root, "sweep.item")]
        put(f"sweep.{w}.busy_s", sum(items))
        put(f"sweep.{w}.parallel_eff", ratio(sum(items), refs[w]["wall_s"] * W.JOBS), "ratio")
        put(f"sweep.{w}.max_item_s", max(items, default=0.0))
        put(f"sweep.{w}.items", len(items), "count")

    self_s = tr.self_seconds()
    roots = (hb, nm, rg)
    for w, root in zip(W.WORKLOADS, roots):
        put(f"cli.{w}.overhead_s",
            sum(t for s, t in zip(tr.spans, self_s) if s.root == root and s.layer == "cli"))
        put(f"trace.{w}.overhead_s", sum(s.cpu for s in tr.select(root, root)) - refs[w]["cpu_s"])
    for layer in LAYERS:
        put(f"self.{layer}.s",
            sum(t for s, t in zip(tr.spans, self_s) if s.root in roots and s.layer == layer))

    for s in tr.spans:
        if s.root == rg and s.layer in ("exactalg", "qseries", "cmeval"):
            put(f"{s.name}.s", tr.total(rg, s.name))
    return m
