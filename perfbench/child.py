"""One benchmark pass inside a fresh interpreter.

    python3 perfbench/child.py pass SPEC.json RESULT.json
    python3 perfbench/child.py cli SPANS.json [rydpack CLI arguments ...]

`pass` runs the in-process scan or sweep pass that SPEC describes (nbar
values and the time points run.py generated) and writes its timings, its
ops and, when SPEC asks for tracing, its spans to RESULT.  `cli` runs the
rydpack command line with tracing on, writes the spans to SPANS and exits
with the command line's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks
from tracer import Tracer


def timed(ops, op, nbar, fn):
    """Run one op; a raised exception makes it a failed op, recorded by type.
    The op records its wall and its CPU seconds (all threads of this process)."""
    start, cpu = time.perf_counter(), time.process_time()
    error, value = None, None
    try:
        value = fn()
    except Exception as exc:  # any failure of the program under test is counted, not fatal
        error = type(exc).__name__
    ops.append(
        {
            "op": op,
            "nbar": nbar,
            "error": error,
            "s": time.perf_counter() - start,
            "cpu": time.process_time() - cpu,
        }
    )
    return error is None, value


def skipped(ops, op, nbar):
    ops.append({"op": op, "nbar": nbar, "error": "UpstreamFailed", "s": 0.0, "cpu": 0.0})


def check(ops, op, nbar, fn):
    ok, passed = timed(ops, op, nbar, fn)
    if ok and not passed:
        ops[-1]["error"] = "CheckFailed"


def set_up(rp, ops, nbar, spec):
    """fit -> decompose -> BasisTable build on the CLI's default grid."""
    grid = rp.RadialGrid.uniform(spec["r_max_factor"] * nbar**2, spec["grid_points"])
    steps = ("fit", "decompose", "basis")
    ok, state = timed(ops, "fit", nbar, lambda: rp.fit_parameters(rp.QuantumNumbers(nbar=nbar)))
    if ok:
        ok, exp = timed(ops, "decompose", nbar, lambda: rp.decompose(state, center=nbar))
    if ok:
        ok, basis = timed(ops, "basis", nbar, lambda: rp.BasisTable.for_expansion(exp, grid))
    if not ok:
        for op in steps[steps.index(ops[-1]["op"]) + 1 :]:
            skipped(ops, op, nbar)
        return None
    return SimpleNamespace(state=state, exp=exp, grid=grid, basis=basis)


def scan_pass(rp, spec, ops):
    ready, setup_s = {}, 0.0
    for nbar in spec["nbars"]:
        start = time.process_time()
        ready[nbar] = set_up(rp, ops, nbar, spec)
        setup_s += time.process_time() - start
    answered = 0
    start = time.process_time()
    for nbar in spec["nbars"]:
        s = ready[nbar]
        for t in spec["times"][str(nbar)]:
            if s is None:
                skipped(ops, "point", nbar)
                continue
            ok, _ = timed(
                ops,
                "point",
                nbar,
                lambda: (rp.observables(s.exp, t, s.grid, s.basis), rp.autocorrelation(s.exp, t)),
            )
            answered += ok
    loop_s = time.process_time() - start
    timings = {"setup_s": setup_s, "work_s": setup_s + loop_s, "points": answered, "points_s": loop_s}
    return timings, ready, {}


def sweep_pass(rp, spec, ops):
    ready, counts = {}, {}
    work_s = 0.0
    answered = 0
    for nbar in spec["nbars"]:
        start = time.process_time()
        s = ready[nbar] = set_up(rp, ops, nbar, spec)
        if s is not None:
            # envelope scale for packet counting: a third of the closed-form
            # initial width, so this workload makes no observables call
            smooth = rp.uncertainties_rp(s.state)[0] / 3.0
        counts[nbar] = []
        for t in spec["times"][str(nbar)]:
            if s is None:
                skipped(ops, "snapshot", nbar)
                continue
            ok, report = timed(
                ops,
                "snapshot",
                nbar,
                lambda: rp.count_packets(
                    s.grid.points, rp.density(s.exp, s.grid, t, s.basis), t=t, smooth=smooth
                ),
            )
            answered += ok
            counts[nbar].append(report.peak_count if ok else None)
        work_s += time.process_time() - start
    # snapshots per second of the pipelines that made them, as a user of the
    # sweep sees them; the snapshot calls alone are too short to time steadily
    timings = {"work_s": work_s, "points": answered, "points_s": work_s}
    return timings, ready, counts


def nbar_checks(rp, ready, counts, ops):
    """Checks at nbar = 85, run untraced and untimed after the pass."""
    nbar = checks.CHECK_NBAR
    s = ready.get(nbar)
    names = ["check.fit", "check.product"] + (["check.packets"] if nbar in counts else [])
    if s is None:
        for op in names:
            skipped(ops, op, nbar)
        return None
    check(ops, "check.fit", nbar, lambda: checks.fit_ok(s.state.alpha, s.state.gamma0))
    err = []

    def product():
        dr, dpr = rp.uncertainties_rp(s.state)
        err.append(checks.product_rel_err(rp.observables(s.exp, 0.0, s.grid, s.basis).product, dr * dpr))
        return err[0] <= checks.PRODUCT_REL_TOL

    check(ops, "check.product", nbar, product)
    if nbar in counts:
        check(ops, "check.packets", nbar, lambda: checks.packets_ok(counts[nbar]))
    return err[0] if err else None


def run_pass(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    tracer = Tracer()
    span = tracer.begin("import.rydpack")
    cpu = time.process_time()
    import rydpack as rp

    import_cpu = time.process_time() - cpu
    tracer.finish(span)
    uninstall = tracer.install() if spec["trace"] else None
    ops = []
    run = {"scan": scan_pass, "sweep": sweep_pass}[spec["kind"]]
    timings, ready, counts = run(rp, spec, ops)
    if uninstall is not None:
        uninstall()
    product_err = nbar_checks(rp, ready, counts, ops)
    result = {
        "import_s": import_cpu,
        **timings,
        "product_rel_err": product_err,
        "counts": {str(k): v for k, v in counts.items()},
        "ops": ops,
        "spans": tracer.spans if spec["trace"] else [],
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


def run_cli(spans_path, argv):
    tracer = Tracer()
    span = tracer.begin("import.rydpack")
    import rydpack.cli

    tracer.finish(span)
    tracer.install()
    try:
        return rydpack.cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    mode, path, *rest = sys.argv[1:]
    if mode == "pass":
        sys.exit(run_pass(path, rest[0]))
    sys.exit(run_cli(path, rest))
