"""Tracing for the traced benchmark run, installed from outside the library.

`Tracer.install()` rebinds the entry points of `sunlab` wherever a module
holds them by name (each module imports the functions it uses directly, so
one function object can sit in several module dicts) and `uninstall()`
puts the originals back.  The library itself carries no instrumentation;
with no tracer installed it runs untouched.

Two kinds of boundary are recorded:

* spans, for public entries into a layer (a generation, an extraction, a
  CLI job) and for the benchmark's own ops: name, start, end, parent and
  op id, kept in memory and written out when the run ends;
* hot boundaries, which fire up to millions of times per op (the
  embedding kernel, its candidate filters, the `Structure` constructor,
  class checks, canonical forms, JSON codecs): a call counter plus busy
  time, which also counts as covered time of the enclosing span.

A span's self time is its duration minus the time covered by its child
spans and by the outermost hot calls made directly inside it.  Busy time
of a name counts only its outermost active call, so recursion and nested
calls of the same category are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter

# (module, attribute) -> span name
SPANS = {
    ("sunlab.cli", "run"): "cli.run",
    ("sunlab.ramsey", "gen_witness_hypergraph"): "ramsey.generate",
    ("sunlab.ramsey", "find_short_cycle"): "ramsey.short_cycle",
    ("sunlab.ramsey", "hypergraph_girth"): "ramsey.girth",
    ("sunlab.ramsey", "witness_adversary"): "ramsey.adversary",
    ("sunlab.witness", "extract_sunflower"): "witness.extract",
    ("sunlab.witness", "build_witness_chain"): "witness.build_chain",
    ("sunlab.witness", "paste"): "witness.paste",
    ("sunlab.witness", "replay_trace"): "witness.replay",
    ("sunlab.ksets", "verify_witness"): "ksets.verify",
    ("sunlab.ksets", "verify_sunflower_cert"): "ksets.cert_check",
    ("sunlab.structures", "check_3dap_over_empty"): "structures.3dap",
    ("sunlab.generators", "gen_generic"): "generators.gen_generic",
    ("sunlab.generators", "gen_named"): "generators.gen_named",
    ("sunlab.generators", "extension_defects"): "generators.extension_defects",
    ("sunlab.partitionlab", "partition_report"): "partitionlab.report",
}

# (module, attribute) -> hot category; every public jsonio function is added
# under "jsonio" at install time
HOT = {
    ("sunlab.structures", "canonical_form"): "structures.canonical_form",
    ("sunlab.structures", "satisfies_class"): "structures.satisfies_class",
    ("sunlab.structures", "satisfies_class_at"): "structures.satisfies_class",
    ("sunlab.structures", "are_isomorphic"): "structures.isomorphism",
    ("sunlab.structures", "automorphisms"): "structures.isomorphism",
    ("sunlab.ksets", "find_sunflower_copies"): "ksets.sunflower_search",
    ("sunlab.ksets", "canonical_sets"): "ksets.canonical_sets",
}

# (module, class, method, category, counted)
METHODS = (
    ("sunlab.structures", "Structure", "__init__", "structures.construct", True),
    ("sunlab.structures", "Structure", "induced", "structures.construct", False),
    ("sunlab.ksets", "Presentation", "__init__", "ksets.presentation", True),
)

KERNEL = ("sunlab.structures", "_iter_embedding_maps")
SEARCH = "structures.search"
FILTER = "structures.filter"

# span fields
_NAME, _START, _END, _PARENT, _OP, _COVERED = range(6)


def _extract_case(trace) -> str:
    cases = [step.case for step in trace.steps]
    return "fallback" if "fallback" in cases else cases[0]


class Tracer:
    """Counters, busy times and spans of one traced stretch of a run."""

    def __init__(self, label: str):
        self.label = label
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._active: Counter = Counter()
        self._hot_depth: Counter = Counter()
        self._hot = 0
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def open_span(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, _perf(), None, parent, self.op, 0.0]
        self.spans.append(rec)
        self._stack.append(rec)
        self._active[name] += 1
        self.calls[name] += 1
        return rec

    def close_span(self, rec: list) -> None:
        rec[_END] = _perf()
        popped = self._stack.pop()
        if popped is not rec:
            raise RuntimeError(f"span {rec[_NAME]!r} closed out of order")
        dur = rec[_END] - rec[_START]
        self._active[rec[_NAME]] -= 1
        if not self._active[rec[_NAME]]:
            self.busy[rec[_NAME]] += dur
        if rec[_PARENT] is not None:
            rec[_PARENT][_COVERED] += dur

    def self_time(self, name: str) -> float:
        return sum(r[_END] - r[_START] - r[_COVERED]
                   for r in self.spans if r[_NAME] == name)

    # -- hot boundaries ------------------------------------------------------

    def _hot_enter(self, cat: str):
        """Start timing `cat` unless it is already active; returns the state
        `_hot_exit` needs, or None for a nested call."""
        if self._hot_depth[cat]:
            return None
        self._hot_depth[cat] = 1
        self._hot += 1
        top = self._stack[-1]
        return (top, top[_COVERED], _perf())

    def _hot_exit(self, cat: str, state) -> None:
        top, covered, t0 = state
        dt = _perf() - t0
        self._hot_depth[cat] = 0
        self._hot -= 1
        self.busy[cat] += dt
        if not self._hot:
            # overrides what child spans opened inside the call added
            top[_COVERED] = covered + dt

    def _wrap_hot(self, cat: str, fn, counted: bool = True, after=None):
        calls = self.calls
        enter, leave = self._hot_enter, self._hot_exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted:
                calls[cat] += 1
            state = enter(cat)
            try:
                result = fn(*args, **kwargs)
            finally:
                if state is not None:
                    leave(cat, state)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _wrap_span(self, name: str, fn, after=None):
        open_span, close_span = self.open_span, self.close_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(rec)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def _wrap_filter(self, flt):
        calls, busy = self.calls, self.busy

        def wrapped(depth, v, partial):
            t0 = _perf()
            ok = flt(depth, v, partial)
            busy[FILTER] += _perf() - t0
            calls[FILTER] += 1
            if ok:
                calls[FILTER + ".accepted"] += 1
            return ok

        return wrapped

    def _timed_search(self, it):
        """Time every step of the kernel generator; stays lazy, and closing
        this generator closes the kernel's."""
        calls = self.calls
        try:
            while True:
                state = self._hot_enter(SEARCH)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if state is not None:
                        self._hot_exit(SEARCH, state)
                calls[SEARCH + ".yielded"] += 1
                yield item
        finally:
            it.close()

    def _wrap_kernel(self, fn):
        calls = self.calls
        wrap_filter, timed = self._wrap_filter, self._timed_search

        @functools.wraps(fn)
        def search(A, B, candidate_filter=None, candidates=None):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            site = caller.rpartition(".")[2]
            calls[SEARCH] += 1
            if site != "structures":
                calls[site + ".search"] += 1
            if candidate_filter is not None:
                candidate_filter = wrap_filter(candidate_filter)
            return timed(fn(A, B, candidate_filter, candidates))

        return search

    # -- counters read off results -------------------------------------------

    def _after_short_cycle(self, result, args, kwargs):
        if self._active["ramsey.generate"]:
            key = "ramsey.attempts" if result is None else "ramsey.removed_edges"
            self.calls[key] += 1

    def _after_verify(self, result, args, kwargs):
        self.calls["ksets.verify.nodes"] += result.checked

    def _after_3dap(self, result, args, kwargs):
        self.calls["structures.3dap.families"] += result.families_checked

    def _after_extract(self, result, args, kwargs):
        self.calls["witness.case." + _extract_case(result[1])] += 1

    def _after_gen_generic(self, result, args, kwargs):
        self.calls["generators.gen_generic.vertices"] += result.size

    def _after_dumps(self, result, args, kwargs):
        self.calls["jsonio.bytes_out"] += len(result.encode())

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace `original` in every sunlab module that binds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "sunlab" and not modname.startswith("sunlab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self) -> None:
        """Wrap the library's boundaries and open this tracer's root span."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = sys.modules
        after = {
            "ramsey.short_cycle": self._after_short_cycle,
            "ksets.verify": self._after_verify,
            "structures.3dap": self._after_3dap,
            "witness.extract": self._after_extract,
            "generators.gen_generic": self._after_gen_generic,
        }
        for (mod, attr), name in SPANS.items():
            fn = getattr(mods[mod], attr)
            self._rebind(fn, self._wrap_span(name, fn, after.get(name)))
        hot = dict(HOT)
        jsonio = mods["sunlab.jsonio"]
        for attr, fn in vars(jsonio).items():
            if (inspect.isfunction(fn) and fn.__module__ == "sunlab.jsonio"
                    and not attr.startswith("_")):
                hot[("sunlab.jsonio", attr)] = "jsonio"
        for (mod, attr), cat in hot.items():
            fn = getattr(mods[mod], attr)
            extra = self._after_dumps if (mod, attr) == ("sunlab.jsonio", "dumps") else None
            self._rebind(fn, self._wrap_hot(cat, fn, after=extra))
        for mod, cls_name, meth, cat, counted in METHODS:
            cls = getattr(mods[mod], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap_hot(cat, fn, counted))
            self._patches.append((cls, meth, fn))
        kernel = getattr(mods[KERNEL[0]], KERNEL[1])
        self._rebind(kernel, self._wrap_kernel(kernel))
        self.open_span(self.label)

    def uninstall(self) -> None:
        """Restore every original binding and close the root span."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        self.close_span(self._stack[0])
        if self._stack:
            raise RuntimeError("spans left open at uninstall")

    def export_spans(self, offset: float) -> list:
        index = {id(r): i for i, r in enumerate(self.spans)}
        return [{"name": r[_NAME], "start": r[_START] - offset,
                 "end": r[_END] - offset,
                 "parent": None if r[_PARENT] is None else index[id(r[_PARENT])],
                 "op": r[_OP],
                 "self": r[_END] - r[_START] - r[_COVERED]}
                for r in self.spans]


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, end-to-end metrics and workloads it should
# move; "none: ..." names workloads where no change is predicted)

LAYER_METRICS = (
    ("structures.search.calls", "count", "extract ops_per_s, op_p50_ms, op_tail_ms; verify ops_per_s; none: hypergraph"),
    ("structures.search.self_s", "s", "extract ops_per_s, op_p50_ms, op_tail_ms; verify ops_per_s; none: hypergraph"),
    ("structures.search.yielded", "count", "extract ops_per_s, op_p50_ms, op_tail_ms; verify ops_per_s; none: hypergraph"),
    ("witness.search.calls", "count", "extract ops_per_s, op_p50_ms, op_tail_ms"),
    ("ksets.search.calls", "count", "verify ops_per_s; extract op_tail_ms"),
    ("generators.search.calls", "count", "classes ops_per_s"),
    ("partitionlab.search.calls", "count", "classes ops_per_s"),
    ("structures.filter.calls", "count", "extract ops_per_s, op_p50_ms, op_tail_ms; verify ops_per_s; none: hypergraph"),
    ("structures.filter.accept_ratio", "ratio", "extract ops_per_s, op_p50_ms, op_tail_ms; verify ops_per_s; none: hypergraph"),
    ("structures.construct.calls", "count", "classes ops_per_s, verify ops_per_s, peak_rss_mb"),
    ("structures.construct.busy_s", "s", "classes ops_per_s, verify ops_per_s, peak_rss_mb"),
    ("structures.canonical_form.calls", "count", "classes ops_per_s; none: hypergraph"),
    ("structures.canonical_form.busy_s", "s", "classes ops_per_s; none: hypergraph"),
    ("structures.satisfies_class.calls", "count", "classes ops_per_s; none: hypergraph"),
    ("structures.satisfies_class.busy_s", "s", "classes ops_per_s; none: hypergraph"),
    ("structures.isomorphism.calls", "count", "classes ops_per_s; none: hypergraph"),
    ("structures.isomorphism.busy_s", "s", "classes ops_per_s; none: hypergraph"),
    ("structures.3dap.families", "count", "classes ops_per_s; none: hypergraph"),
    ("structures.3dap.busy_s", "s", "classes ops_per_s; none: hypergraph"),
    ("ramsey.generate.calls", "count", "hypergraph ops_per_s; extract setup_s; none: verify, classes"),
    ("ramsey.generate.busy_s", "s", "hypergraph ops_per_s; extract setup_s; none: verify, classes"),
    ("ramsey.short_cycle.calls", "count", "hypergraph ops_per_s; extract setup_s; none: verify, classes"),
    ("ramsey.short_cycle.busy_s", "s", "hypergraph ops_per_s; extract setup_s; none: verify, classes"),
    ("ramsey.removed_edges", "count", "hypergraph ops_per_s; extract setup_s; none: verify, classes"),
    ("ramsey.attempts", "count", "hypergraph ops_per_s; extract setup_s; none: verify, classes"),
    ("ramsey.girth.busy_s", "s", "hypergraph ops_per_s"),
    ("ramsey.adversary.busy_s", "s", "hypergraph ops_per_s"),
    ("ksets.verify.nodes", "count", "verify ops_per_s; none: classes, hypergraph"),
    ("ksets.verify.busy_s", "s", "verify ops_per_s; none: classes, hypergraph"),
    ("ksets.sunflower_search.calls", "count", "verify ops_per_s; none: classes, hypergraph"),
    ("ksets.sunflower_search.busy_s", "s", "verify ops_per_s; none: classes, hypergraph"),
    ("ksets.presentation.calls", "count", "verify ops_per_s; none: classes, hypergraph"),
    ("ksets.canonical_sets.calls", "count", "verify ops_per_s; none: classes, hypergraph"),
    ("ksets.canonical_sets.busy_s", "s", "verify ops_per_s; none: classes, hypergraph"),
    ("ksets.cert_check.busy_s", "s", "extract ops_per_s (one check per extraction); none: verify, classes, hypergraph"),
    ("witness.extract.calls", "count", "extract ops_per_s, op_tail_ms"),
    ("witness.extract.self_s", "s", "extract ops_per_s, op_tail_ms"),
    ("witness.case.mono", "count", "extract ops_per_s, op_tail_ms"),
    ("witness.case.transversal", "count", "extract ops_per_s, op_tail_ms"),
    ("witness.case.fallback", "count", "extract ops_per_s, op_tail_ms"),
    ("witness.fallback_ratio", "ratio", "extract ops_per_s, op_tail_ms"),
    ("witness.build_chain.busy_s", "s", "extract setup_s"),
    ("witness.paste.busy_s", "s", "hypergraph ops_per_s"),
    ("witness.replay.busy_s", "s", "none: replay runs only in the extract output checks, off the op clock"),
    ("generators.gen_generic.busy_s", "s", "classes ops_per_s"),
    ("generators.gen_generic.vertices", "count", "classes ops_per_s"),
    ("generators.gen_named.busy_s", "s", "classes ops_per_s"),
    ("generators.extension_defects.busy_s", "s", "classes ops_per_s"),
    ("partitionlab.report.busy_s", "s", "classes ops_per_s"),
    ("jsonio.calls", "count", "small share of hypergraph, verify, classes ops_per_s; none from kernel changes"),
    ("jsonio.busy_s", "s", "small share of hypergraph, verify, classes ops_per_s; none from kernel changes"),
    ("jsonio.bytes_out", "bytes", "small share of hypergraph, verify, classes ops_per_s; none from kernel changes"),
    ("cli.run.calls", "count", "small share of hypergraph, verify, classes ops_per_s; none from kernel changes"),
    ("cli.run.self_s", "s", "small share of hypergraph, verify, classes ops_per_s; none from kernel changes"),
    ("trace.overhead_ratio", "ratio", "traced over untraced op time of the same cycle; not a prediction"),
)


# Counters that legitimately differ between repeats of the same work.
TIMING_DEPENDENT = {
    "jsonio.bytes_out": "every CLI manifest records the job's wall time, so "
                        "its JSON length varies by a few bytes",
}


def counters(tracers) -> dict:
    """Summed call counters of a list of tracers."""
    total: Counter = Counter()
    for t in tracers:
        total.update(t.calls)
    return dict(total)


def layer_values(setup: Tracer, cycles: list, overhead: float) -> dict:
    """Per-layer metric values: set-up plus one cycle of ops and checks.

    Counts come from the first traced cycle (the caller checks that every
    cycle repeats them); times are the median over cycles."""
    calls = Counter(setup.calls)
    calls.update(cycles[0].calls)

    def timed(fn) -> float:
        return fn(setup) + statistics.median(fn(c) for c in cycles)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    values = {}
    for name, _unit, _pred in LAYER_METRICS:
        stem, _, kind = name.rpartition(".")
        if name == "trace.overhead_ratio":
            values[name] = overhead
        elif name == "structures.search.self_s":
            values[name] = timed(lambda t: t.busy[SEARCH] - t.busy[FILTER])
        elif name == "structures.filter.accept_ratio":
            values[name] = ratio(calls[FILTER + ".accepted"], calls[FILTER])
        elif name == "witness.fallback_ratio":
            values[name] = ratio(calls["witness.case.fallback"],
                                 calls["witness.extract"])
        elif kind == "busy_s":
            values[name] = timed(lambda t, s=stem: t.busy[s])
        elif kind == "self_s":
            values[name] = timed(lambda t, s=stem: t.self_time(s))
        elif kind == "calls":
            values[name] = calls[stem]
        else:
            values[name] = calls[name]
    return values
