"""Spans around rydpack's public functions, recorded in memory.

`Tracer.install` wraps the public functions named in TARGETS wherever a loaded
rydpack module binds them, so calls the package makes internally are seen as
well.  Nothing in rydpack is changed on disk.  A span is a dict with `name`,
`start`, `end` (time.perf_counter seconds, which is CLOCK_MONOTONIC and so
comparable across processes), `parent` (index into the same list, or None)
and `attrs` (counts recorded at the boundary, and `error` when the call
raised).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def _laguerre_steps(args, kwargs, result):
    # laguerre(n, a, x) takes n - 1 three-term steps, each over every point of x
    degree = args[0] if args else kwargs["n"]
    return {"steps": max(int(degree) - 1, 0) * int(getattr(result, "size", 1))}


def _levels_needed(bind, args, kwargs, expansion):
    # fewest levels, largest |c_n|^2 first, whose weight meets the stop rule
    # decompose itself applies: 1 - weight < deficit_tol
    bound = bind(*args, **kwargs)
    bound.apply_defaults()
    tol = bound.arguments["deficit_tol"]
    weights = sorted((abs(c) ** 2 for c in expansion.coeffs), reverse=True)
    total = 0.0
    for i, w in enumerate(weights, start=1):
        total += w
        if 1.0 - total < tol:
            return {"levels": len(weights), "needed": i}
    return {"levels": len(weights), "needed": len(weights)}


def _table_bytes(args, kwargs, table):
    return {"bytes": sum(int(v.nbytes) for v in vars(table).values() if hasattr(v, "ndim"))}


# (module, attribute, span name, counter); missing targets are skipped
TARGETS = (
    ("rydpack.squeezed", "fit_parameters", "squeezed.fit_parameters", None),
    ("rydpack.spectral", "decompose", "spectral.decompose", "levels"),
    ("rydpack.specfun", "laguerre", "specfun.laguerre", _laguerre_steps),
    ("rydpack.specfun", "hydrogen_radial", "specfun.hydrogen_radial", None),
    ("rydpack.specfun", "hydrogen_radial_pr", "specfun.hydrogen_radial_pr", None),
    ("rydpack.evolution", "observables", "evolution.observables", None),
    ("rydpack.evolution", "autocorrelation", "evolution.autocorrelation", None),
    ("rydpack.evolution", "density", "evolution.density", None),
    ("rydpack.analysis", "count_packets", "analysis.count_packets", None),
) + tuple(
    ("rydpack.io", name, f"io.{name}", None)
    for name in (
        "write_state",
        "read_state",
        "write_expansion",
        "read_expansion",
        "write_series",
        "write_density",
    )
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "attrs": {}}
        )
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def finish(self, span, error=None):
        span["end"] = time.perf_counter()
        self._open.pop()
        if error is not None:
            span["attrs"]["error"] = error

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.finish(span, type(exc).__name__)
                raise
            self.finish(span)
            if count is not None:
                span["attrs"].update(count(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every target in every loaded rydpack module; return an undo function."""
        modules = [m for n, m in list(sys.modules.items()) if n == "rydpack" or n.startswith("rydpack.")]
        undo = []
        for module, attr, name, count in TARGETS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                continue
            if count == "levels":
                count = functools.partial(_levels_needed, inspect.signature(original).bind)
            traced = self.wrap(name, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
                        undo.append((m, key, original))
        table = getattr(sys.modules.get("rydpack.evolution"), "BasisTable", None)
        build = vars(table).get("build") if table is not None else None
        if isinstance(build, classmethod):
            traced = self.wrap("evolution.basis_build", build.__func__, _table_bytes)
            table.build = classmethod(traced)
            undo.append((table, "build", build))

        def uninstall():
            for obj, key, value in reversed(undo):
                setattr(obj, key, value)

        return uninstall


def graft(spans, children, parent):
    """Append `children` (one process's span list) to `spans` under `parent`."""
    offset = len(spans)
    for s in children:
        spans.append({**s, "parent": parent if s["parent"] is None else s["parent"] + offset})


def self_times(spans):
    """Total self time per span name: duration minus the time its children cover.

    Children of one span run one after another inside it, so their durations
    add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    totals = {}
    for s, c in zip(spans, covered):
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"] - c)
    return totals
