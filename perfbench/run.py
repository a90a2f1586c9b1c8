#!/usr/bin/env python3
"""rydpack benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cli-85 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads, metrics and the layer-to-metric map
are described in perfbench/README.md; metric names and units come from
BENCHMARK.json.  All load comes from this process: it starts every workload
pass in fresh child interpreters, one at a time, with one BLAS thread, and
runs as many passes as fit in --seconds on a machine of nominal speed.
Timings are CPU seconds (user + system) of the children, which leave out the
time the host runs other tenants in their place.  The last line of
standard output is the result; the line before it, and
.perfbench_out/<workload>/result.json, hold the full record (seed,
environment, failures by op and error, per-pass values).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from tracer import graft, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PY = sys.executable

MIN_PASSES = 3
# Pass length in seconds at nominal speed.  A run makes seconds / this many
# passes (at least MIN_PASSES), a count that depends on nothing measured, so
# that the same seed always attempts, and fails, the same operations.
NOMINAL_PASS_S = {"cli-85": 12.0, "scan-85-150": 5.0, "sweep-20-300": 7.0}
BLAS_THREADS = 1
IMPORTS_PER_PASS = 2  # cold imports before each cli-85 pass; setup_s is their median
RUN_LIMIT_S = 165.0  # every child of a run is stopped by then
CHILD_LIMIT_S = 120.0
GRID_POINTS, R_MAX_FACTOR = 16000, 4.0  # the rydpack CLI's default grid
SCAN_NBARS, SCAN_POINTS = (85, 150), 250  # points per nbar per pass
SWEEP_NBARS = (20, 85, 150, 230, 300)
# Snapshot times move by up to this many T_cl either way.  At nbar = 85 the
# packet counts 1, 3, 2 hold for offsets from -0.01 to +0.0045 T_cl.
JITTER_TCL = 0.003
VERSIONS = (
    "import json, platform, numpy, scipy, rydpack; print(json.dumps({"
    "'python': platform.python_version(), 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__, 'rydpack': getattr(rydpack, '__version__', 'unknown')}))"
)


def t_cl(nbar):
    return 2.0 * math.pi * nbar**3


def t_rev(nbar):
    return nbar * t_cl(nbar) / 3.0


def acceptance_times(nbar):
    return [0.0, t_rev(nbar) / 3.0 - t_cl(nbar) / 3.0, t_rev(nbar) / 2.0 - 0.05 * t_cl(nbar)]


def jittered(rng, nbar, times):
    return [abs(t + rng.uniform(-JITTER_TCL, JITTER_TCL) * t_cl(nbar)) for t in times]


def median(values, default=0.0):
    return statistics.median(values) if values else default


def tail(values):
    """Highest percentile with at least ten samples beyond it (the maximum below 11 samples)."""
    values = sorted(values)
    return values[-11] if len(values) > 10 else (values[-1] if values else 0.0)


@dataclass
class Child:
    code: int
    start: float
    end: float
    cpu: float  # user + system seconds
    rss_mb: float
    stdout: Path

    @property
    def wall(self):
        return self.end - self.start


class Bench:
    """One run: its arguments, its children, its ops and its checks."""

    def __init__(self, args, workdir):
        self.seed, self.trace = args.seed, bool(args.trace)
        self.n_passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.ops = []
        self.children = 0
        self.product_errs = []

    def spawn(self, op, argv, nbar=None):
        """Run one child interpreter to its end; its exit code decides the op."""
        self.children += 1
        log = self.workdir / "logs" / f"{self.children:03d}-{op}"
        log.parent.mkdir(exist_ok=True)
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err, env=self.env, cwd=ROOT)
            # wait4, not Popen.wait, so that this child's own peak RSS comes back
            killer = threading.Timer(min(CHILD_LIMIT_S, self.deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        error = None if proc.returncode == 0 else f"exit {proc.returncode}"
        cpu = usage.ru_utime + usage.ru_stime
        self.ops.append({"op": op, "nbar": nbar, "error": error, "s": end - start, "cpu": cpu})
        return Child(proc.returncode, start, end, cpu, usage.ru_maxrss / 1024.0, Path(f"{log}.out"))

    def check(self, op, nbar, fn):
        """An output check is an op; it fails when fn returns False or raises."""
        try:
            error = None if fn() else "CheckFailed"
        except Exception as exc:  # a missing or malformed artifact fails the check
            error = type(exc).__name__
        self.ops.append({"op": op, "nbar": nbar, "error": error, "s": 0.0, "cpu": 0.0})

    def passes(self, run_pass):
        """Run the run's passes; traced runs alternate untraced and traced
        passes, starting untraced.  A pass that would start less than 20 s
        before the run's time limit is left out."""
        done = []
        for i in range(self.n_passes):
            if time.perf_counter() > self.deadline - 20.0:
                print(f"perfbench: out of time after {i} of {self.n_passes} passes", file=sys.stderr)
                break
            traced = self.trace and i % 2 == 1
            p = run_pass(i, traced)
            p["traced"] = traced
            done.append(p)
            print(
                f"pass {i}{' traced' if traced else ''}: cpu {p['cpu']:.3f} s, wall {p['wall']:.3f} s",
                file=sys.stderr,
            )
        return done


def run_cli(b):
    nbar = checks.CHECK_NBAR
    rng = random.Random(b.seed)
    times = jittered(rng, nbar, acceptance_times(nbar) + [t_rev(nbar)])
    imports = []
    reference = {}

    def one_pass(i, traced):
        # set-up samples are spread over the run rather than taken in one burst
        imports.extend(b.spawn("import", [PY, "-c", "import rydpack"]) for _ in range(IMPORTS_PER_PASS))
        out = b.workdir / f"pass-{i:02d}"
        spans_dir = b.workdir / f"spans-{i:02d}"
        spans_dir.mkdir()
        steps = [
            ("fit", ["fit"]),
            ("decompose", ["decompose", "--state", out / "state.json"]),
            ("scan", ["scan", "--expansion", out / "expansion.csv", "--t-stop", "Tcl", "--t-steps", "201"]),
            ("density", ["density", "--expansion", out / "expansion.csv", "--times", ",".join(map(repr, times))]),
        ]
        spans = [{"name": "pass", "start": time.perf_counter(), "end": None, "parent": None, "attrs": {}}]
        walls, cpus, rss = {}, {}, []
        for name, args in steps:
            argv = [*args, "--nbar", nbar, "-o", out]
            spans_file = spans_dir / f"{name}.json"
            cmd = [PY, HERE / "child.py", "cli", spans_file, *argv] if traced else [PY, "-m", "rydpack", *argv]
            c = b.spawn(f"cli.{name}", cmd, nbar)
            walls[name] = c.wall
            cpus[name] = c.cpu
            rss.append(c.rss_mb)
            spans.append({"name": f"cli.{name}", "start": c.start, "end": c.end, "parent": 0, "attrs": {}})
            if traced and spans_file.exists():
                graft(spans, json.loads(spans_file.read_text()), len(spans) - 1)
        spans[0]["end"] = time.perf_counter()
        cli_checks(b, out, reference)
        files = [f for f in out.iterdir() if f.is_file()] if out.exists() else []
        try:
            points = len((out / "scan.csv").read_text().splitlines()) - 1
        except OSError:
            points = 0
        return {
            "wall": sum(walls.values()),
            "cpu": sum(cpus.values()),
            "cli": cpus,
            "rss_mb": max(rss),
            "points_per_s": points / cpus["scan"],
            "io_bytes": sum(f.stat().st_size for f in files),
            "spans": spans,
        }

    done = b.passes(one_pass)
    cpus = [p["cpu"] for p in done if not p["traced"]]
    e2e = {
        "setup_s": median([c.cpu for c in imports]),
        "pipeline_s": median(cpus),
        "scan_points_per_s": median([p["points_per_s"] for p in done if not p["traced"]]),
        # one nbar: its per-nbar pipeline is the four subcommands themselves
        "sweep_s": median(cpus),
        "peak_rss_mb": median([p["rss_mb"] for p in done if not p["traced"]]),
    }
    layers = {"import.rydpack_s": median([c.cpu for c in imports])}
    traced = [p for p in done if p["traced"]]
    for step in ("fit", "decompose", "scan", "density"):
        layers[f"cli.{step}_s"] = median([p["cli"][step] for p in traced])
    layers["io.bytes_written"] = median([p["io_bytes"] for p in traced])
    return done, e2e, layers


def cli_checks(b, out, reference):
    nbar = checks.CHECK_NBAR

    def fit():
        state = json.loads((out / "state.json").read_text())
        return checks.fit_ok(state["alpha"], state["gamma0"])

    def product():
        closed = json.loads((out / "fit_report.json").read_text())["product"]
        header, first = (out / "scan.csv").read_text().splitlines()[:2]
        grid = float(first.split(",")[header.split(",").index("product")])
        b.product_errs.append(checks.product_rel_err(grid, closed))
        return b.product_errs[-1] <= checks.PRODUCT_REL_TOL

    def packets():
        snapshots = json.loads((out / "packets.json").read_text())["snapshots"]
        return checks.packets_ok([s["peak_count"] for s in snapshots])

    def identical():
        # the first pass's artifacts are the reference for the later ones
        artifacts = {name: (out / name).read_bytes() for name in ("state.json", "expansion.csv", "scan.csv")}
        return artifacts == reference.setdefault("artifacts", artifacts)

    for op, fn in (
        ("check.fit", fit),
        ("check.product", product),
        ("check.packets", packets),
        ("check.identical", identical),
    ):
        b.check(op, nbar, fn)


def run_child_passes(b, kind, nbars, times):
    def one_pass(i, traced):
        spec_path = b.workdir / f"spec-{i:02d}.json"
        result_path = b.workdir / f"result-{i:02d}.json"
        spec = {
            "kind": kind,
            "nbars": list(nbars),
            "times": {str(n): t for n, t in times.items()},
            "grid_points": GRID_POINTS,
            "r_max_factor": R_MAX_FACTOR,
            "trace": traced,
        }
        spec_path.write_text(json.dumps(spec))
        c = b.spawn("pass", [PY, HERE / "child.py", "pass", spec_path, result_path])
        spans = [{"name": "pass", "start": c.start, "end": c.end, "parent": None, "attrs": {}}]
        p = {"wall": c.wall, "cpu": c.cpu, "rss_mb": c.rss_mb, "spans": spans, "ok": False}
        if c.code == 0 and result_path.exists():
            r = json.loads(result_path.read_text())
            b.ops.extend(r.pop("ops"))
            graft(spans, r.pop("spans"), 0)
            if r["product_rel_err"] is not None:
                b.product_errs.append(r["product_rel_err"])
            p.update(r, ok=True)
        return p

    done = b.passes(one_pass)
    plain = [p for p in done if not p["traced"] and p["ok"]]
    e2e = {
        "pipeline_s": median([p["cpu"] for p in done if not p["traced"]]),
        "scan_points_per_s": median([p["points"] / p["points_s"] for p in plain if p["points_s"] > 0]),
        "sweep_s": median([p["work_s"] for p in plain]),
        "peak_rss_mb": median([p["rss_mb"] for p in done if not p["traced"]]),
    }
    layers = {"import.rydpack_s": median([p["import_s"] for p in done if p["traced"] and p["ok"]])}
    layers.update({f"cli.{s}_s": 0.0 for s in ("fit", "decompose", "scan", "density")})
    layers["io.bytes_written"] = 0
    return done, e2e, layers


def run_scan(b):
    rng = random.Random(b.seed)
    times = {}
    for nbar in SCAN_NBARS:
        # one point in each of SCAN_POINTS equal strata of [0, 4 T_cl]
        width = 4.0 * t_cl(nbar) / SCAN_POINTS
        times[nbar] = [(j + rng.random()) * width for j in range(SCAN_POINTS)]
    done, e2e, layers = run_child_passes(b, "scan", SCAN_NBARS, times)
    e2e["setup_s"] = median([p["setup_s"] for p in done if not p["traced"] and p["ok"]])
    return done, e2e, layers


def run_sweep(b):
    rng = random.Random(b.seed)
    times = {nbar: jittered(rng, nbar, acceptance_times(nbar)) for nbar in SWEEP_NBARS}
    done, e2e, layers = run_child_passes(b, "sweep", SWEEP_NBARS, times)
    # the only once-per-pass work here is the import; the per-nbar set-up is sweep_s
    e2e["setup_s"] = median([p["import_s"] for p in done if not p["traced"] and p["ok"]])
    return done, e2e, layers


WORKLOADS = {"cli-85": run_cli, "scan-85-150": run_scan, "sweep-20-300": run_sweep}


def layer_metrics(traced_passes):
    """Per-layer metrics from the spans of the traced passes.

    Per-call timings pool every call of every traced pass; counts are per pass
    (median over traced passes).  A layer the workload never calls reads 0.
    """
    durations = {}
    per_pass = []
    for p in traced_passes:
        spans = p["spans"]
        counts = dict.fromkeys(
            ("projections", "levels", "needed", "decompose_failed", "steps", "bytes", "obs_failed"), 0
        )
        in_decompose = []
        for s in spans:
            durations.setdefault(s["name"], []).append(s["end"] - s["start"])
            parent = s["parent"]
            inside = parent is not None and (spans[parent]["name"] == "spectral.decompose" or in_decompose[parent])
            in_decompose.append(inside)
            a = s["attrs"]
            if s["name"] == "specfun.laguerre":
                counts["steps"] += a.get("steps", 0)
                counts["projections"] += inside
            elif s["name"] == "spectral.decompose":
                counts["levels"] += a.get("levels", 0)
                counts["needed"] += a.get("needed", 0)
                counts["decompose_failed"] += "error" in a
            elif s["name"] == "evolution.basis_build":
                counts["bytes"] += a.get("bytes", 0)
            elif s["name"] == "evolution.observables":
                counts["obs_failed"] += "error" in a
        per_pass.append(counts)

    def ms(name):
        return 1e3 * median(durations.get(name, []))

    def count(key):
        return median([c[key] for c in per_pass])

    projected = count("projections") / 2.0  # each level is projected on both quadrature rules
    return {
        "squeezed.fit_parameters_ms": ms("squeezed.fit_parameters"),
        "spectral.decompose_ms": ms("spectral.decompose"),
        "spectral.levels": count("levels"),
        "spectral.projections": count("projections"),
        "spectral.useful_level_frac": count("needed") / projected if projected else 0.0,
        "spectral.decompose_failed": count("decompose_failed"),
        "specfun.radial_ms_per_level": ms("specfun.hydrogen_radial"),
        "specfun.radial_pr_ms_per_level": ms("specfun.hydrogen_radial_pr"),
        "specfun.recurrence_steps": count("steps"),
        "evolution.basis_build_ms": ms("evolution.basis_build"),
        "evolution.basis_bytes": count("bytes"),
        "evolution.observables_ms": ms("evolution.observables"),
        "evolution.observables_tail_ms": 1e3 * tail(durations.get("evolution.observables", [])),
        "evolution.observables_failed": count("obs_failed"),
        "evolution.autocorrelation_us": 1e6 * median(durations.get("evolution.autocorrelation", [])),
        "evolution.density_ms": ms("evolution.density"),
        "analysis.count_packets_ms": ms("analysis.count_packets"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rydpack" / "__init__.py").is_file():
        print(f"perfbench: no rydpack sources under {ROOT / 'src'}; nothing to run", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    b = Bench(args, workdir)
    probe = b.spawn("versions", [PY, "-c", VERSIONS])  # also warms the page cache and bytecode
    try:
        versions = json.loads(probe.stdout.read_text())
    except (OSError, ValueError):
        versions = {}
    done, e2e, layers = WORKLOADS[args.workload](b)

    attempted = len(b.ops)
    failed = sum(op["error"] is not None for op in b.ops)
    # correct: some output was checked, every check passed and no pass child crashed
    vital = [op for op in b.ops if op["op"] == "pass" or op["op"].startswith("check.")]
    correct = any(op["op"].startswith("check.") for op in vital) and all(op["error"] is None for op in vital)
    # an unmeasurable product counts as a 100% error
    e2e["product_rel_err"] = median(b.product_errs, default=1.0)
    e2e["answered_frac"] = 1.0 - failed / attempted
    traced = [p for p in done if p["traced"]]
    if b.trace:
        layers.update(layer_metrics(traced))
        untraced = [p["cpu"] for p in done if not p["traced"]]
        layers["trace.overhead_frac"] = median([p["cpu"] for p in traced]) / median(untraced, 1.0) - 1.0
    values = layers if b.trace else e2e
    group = spec["per_layer"] if b.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}

    failures = {}
    for op in b.ops:
        if op["error"] is not None:
            key = f"{op['op']}@{op['nbar']}" if op["nbar"] is not None else op["op"]
            failures.setdefault(key, {}).setdefault(op["error"], 0)
            failures[key][op["error"]] += 1
    spans = []
    for p in traced:
        graft(spans, p["spans"], None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "timing": "CPU seconds (user + system)",
        "trace": args.trace,
        "environment": {**versions, "nproc": b.nproc, "blas_threads": BLAS_THREADS},
        "passes": len(done),
        "pass_cpu_s": [p["cpu"] for p in done],
        "pass_walls_s": [p["wall"] for p in done],
        "failed_frac": failed / attempted,
        "failures": failures,
        "metrics": {**e2e, **layers} if b.trace else e2e,
        "self_s": self_times(spans),
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    if b.trace:
        (workdir / "trace.json").write_text(json.dumps(spans))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
