"""Tracing from outside the program: wrappers around each layer's public
functions, installed where the callers look the names up.

A *span* wrapper records (id, name, start, end, parent id) for every call;
a *leaf* wrapper is for hot functions (ring multiplication, scaled
coordinates, span-builder insert/contains/basis) and only adds to a count
and a time.  Both keep a stack of open calls so that the self time of a
call is its duration minus the time of the wrapped calls inside it.

Names are ``layer.function``; the layer is the part before the first dot.
A hook whose target no longer exists is skipped and reported in
``Tracer.missing``, so the traced run still starts after a refactor.
"""

import importlib
import itertools
import time
from collections import Counter, defaultdict

clock = time.perf_counter

class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class Tracer:
    def __init__(self):
        self.spans = []                   # (id, name, start, end, parent id)
        self.calls = Counter()
        self.total = defaultdict(float)   # outermost duration per name
        self.self_time = defaultdict(float)
        self.extra = Counter()            # counts the after-hooks add
        self.missing = []
        self._stack = [[None, 0.0]]       # open calls: [span id, child time]
        self._depth = Counter()
        self._ids = itertools.count()
        self.origin = clock()

    def span(self, fn, name, after=None):
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1][0]
            frame = [sid, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                stack[-1][1] += dur
                depth[name] -= 1
                if not depth[name]:
                    self.total[name] += dur
                self.calls[name] += 1
                self.self_time[name] += dur - frame[1]
                self.spans.append((sid, name, start, end, parent))
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def leaf(self, fn, name):
        stack, calls, total, self_time = (self._stack, self.calls, self.total,
                                          self.self_time)

        def wrapper(*args):
            frame = [None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][1] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[1]
        return wrapper

    def counter(self, fn, name):
        """Wrap a generator function; counts the items it yields."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                calls[name] += 1
                yield item
        return wrapper

    def layer_self(self, layer):
        return sum(t for n, t in self.self_time.items()
                   if n.split(".", 1)[0] == layer)

    def span_records(self):
        """Spans sorted by start, times in seconds since the tracer began."""
        o = self.origin
        return [{"id": sid, "name": name, "start": round(s - o, 9),
                 "end": round(e - o, 9), "parent": parent}
                for sid, name, s, e, parent in sorted(self.spans, key=lambda r: r[2])]


# -- after-hooks: counts read off arguments and results ---------------------------

def _kernel_cells(tracer, args, kwargs, result):
    m = args[0]
    tracer.extra["znlinalg.kernel_cells"] += m.rows * m.cols


def _resolution_shape(tracer, args, kwargs, res):
    for kind in res.structure:
        tracer.extra[f"modules.steps_{kind}"] += 1
    tracer.extra["modules.betti_total"] += sum(res.betti)


def _mingens_ratio(tracer, args, kwargs, chosen):
    gens = kwargs.get("gens", args[2] if len(args) > 2 else None)
    if gens is None:
        gens = args[0].generators
    tracer.extra["modules.mingens_candidates"] += len(gens)
    tracer.extra["modules.mingens_kept"] += len(chosen)


# (modules holding the name, attribute, span name, after-hook); the module
# list is every place a caller looks the name up at call time.
SPANS = (
    (("modules", "spectrum"), "kernel", "znlinalg.kernel", _kernel_cells),
    (("znlinalg",), "howell_from_rows", "znlinalg.howell", None),
    (("modules", "checks", "cli"), "minimal_resolution",
     "modules.minimal_resolution", _resolution_shape),
    (("modules.Resolution",), "validate", "modules.validate", None),
    (("modules", "spectrum", "checks"), "syzygy", "modules.syzygy", None),
    (("modules", "checks"), "minimal_generators", "modules.minimal_generators",
     _mingens_ratio),
    (("spectrum",), "is_local", "spectrum.is_local", None),
    (("spectrum",), "maximal_ideals", "spectrum.maximal_ideals", None),
    (("spectrum",), "nilradical", "spectrum.nilradical", None),
    (("amalgam.AmalgamObjects",), "__init__", "amalgam.build", None),
    (("checks",), "check_hypotheses", "checks.hypotheses", None),
    (("cli",), "run_job", "checks.job", None),
    (("cli",), "main", "cli.main", None),
    (("cli.Builder",), "construct", "cli.build", None),
    (("dsl",), "parse", "dsl.parse", None),
    (("report.Report",), "to_json", "report.render", None),
    (("report.Report",), "to_text", "report.render", None),
)

LEAVES = (
    ("rings.FiniteRing", "mul_coords", "rings.mul"),
    ("rings.FiniteRing", "scaled", "rings.scaled"),
    ("rings.FiniteRing", "unscaled", "rings.unscaled"),
    ("znlinalg._Gf2Builder", "insert", "znlinalg.gf2_insert"),
    ("znlinalg._GenericBuilder", "insert", "znlinalg.zn_insert"),
    ("znlinalg._Gf2Builder", "contains", "znlinalg.contains"),
    ("znlinalg._GenericBuilder", "contains", "znlinalg.contains"),
    ("znlinalg._Gf2Builder", "basis", "znlinalg.basis"),
    ("znlinalg._GenericBuilder", "basis", "znlinalg.basis"),
)

COUNTERS = (("rings.FiniteRing", "elements", "rings.elements"),)


def _resolve(path):
    """'modules.Resolution' -> the object amalgam.modules.Resolution."""
    mod, _, attr = path.partition(".")
    obj = importlib.import_module(f"amalgam.{mod}")
    return getattr(obj, attr) if attr else obj


def install(tracer, only=None):
    """Install the wrappers (or only the spans named in `only`); returns
    the Patches that undo them."""
    patches = Patches()

    def targets(paths, attr):
        found = []
        for path in paths:
            try:
                owner = _resolve(path)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                tracer.missing.append(f"{path}.{attr}")
                continue
            found.append(owner)
        return found

    wrapped = {}
    for paths, attr, name, after in SPANS:
        if only is not None and name not in only:
            continue
        for owner in targets(paths, attr):
            orig = getattr(owner, attr)
            if orig not in wrapped:
                wrapped[orig] = tracer.span(orig, name, after)
            patches.set(owner, attr, wrapped[orig])
    if only is not None:
        return patches
    for path, attr, name in LEAVES:
        for owner in targets((path,), attr):
            patches.set(owner, attr, tracer.leaf(getattr(owner, attr), name))
    for path, attr, name in COUNTERS:
        for owner in targets((path,), attr):
            patches.set(owner, attr, tracer.counter(getattr(owner, attr), name))
    return patches


def layer_metrics(tr):
    """Per-layer metrics of one traced run as {name: (value, unit)}."""
    c, t, x = tr.calls, tr.total, tr.extra
    cand = x["modules.mingens_candidates"]
    return {
        "znlinalg.gf2_insert_calls": (c["znlinalg.gf2_insert"], "count"),
        "znlinalg.zn_insert_calls": (c["znlinalg.zn_insert"], "count"),
        "znlinalg.insert_s": (t["znlinalg.gf2_insert"] + t["znlinalg.zn_insert"], "s"),
        "znlinalg.kernel_calls": (c["znlinalg.kernel"], "count"),
        "znlinalg.kernel_cells": (x["znlinalg.kernel_cells"], "count"),
        "znlinalg.kernel_s": (t["znlinalg.kernel"], "s"),
        "znlinalg.basis_s": (t["znlinalg.basis"], "s"),
        "znlinalg.contains_calls": (c["znlinalg.contains"], "count"),
        "znlinalg.self_s": (tr.layer_self("znlinalg"), "s"),
        "rings.mul_calls": (c["rings.mul"], "count"),
        "rings.mul_s": (t["rings.mul"], "s"),
        "rings.scale_calls": (c["rings.scaled"] + c["rings.unscaled"], "count"),
        "rings.elements_enumerated": (c["rings.elements"], "count"),
        "rings.self_s": (tr.layer_self("rings"), "s"),
        "modules.steps_block": (x["modules.steps_block"], "count"),
        "modules.steps_generic": (x["modules.steps_generic"], "count"),
        "modules.betti_total": (x["modules.betti_total"], "count"),
        "modules.syzygy_calls": (c["modules.syzygy"], "count"),
        "modules.syzygy_s": (t["modules.syzygy"], "s"),
        "modules.mingens_calls": (c["modules.minimal_generators"], "count"),
        "modules.mingens_keep_ratio": (
            x["modules.mingens_kept"] / cand if cand else 0.0, "ratio"),
        "modules.resolve_self_s": (tr.self_time["modules.minimal_resolution"], "s"),
        "modules.validate_s": (t["modules.validate"], "s"),
        "spectrum.is_local_calls": (c["spectrum.is_local"], "count"),
        "spectrum.is_local_s": (t["spectrum.is_local"], "s"),
        "spectrum.maximal_ideals_s": (t["spectrum.maximal_ideals"], "s"),
        "spectrum.nilradical_s": (t["spectrum.nilradical"], "s"),
        "spectrum.self_s": (tr.layer_self("spectrum"), "s"),
        "amalgam.build_calls": (c["amalgam.build"], "count"),
        "amalgam.build_s": (t["amalgam.build"], "s"),
        "checks.job_calls": (c["checks.job"], "count"),
        "checks.hypotheses_calls": (c["checks.hypotheses"], "count"),
        "checks.self_s": (tr.layer_self("checks"), "s"),
        "dsl.parse_s": (t["dsl.parse"], "s"),
        "cli.build_s": (t["cli.build"], "s"),
        "report.render_s": (t["report.render"], "s"),
    }
