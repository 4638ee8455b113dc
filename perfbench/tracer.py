"""Per-layer tracing of latkit, done from outside the package.

A layer is one latkit module. The tracer wraps every public function of
each layer at every binding it has in the package (the module attribute,
the `from ... import` copies other modules hold, and the package
re-export), and the public methods of the classes each layer defines.
Generator functions (`core.bits`) are left alone: a wrapper around one
times only the creation of the generator, not the work.

Each wrapped call is counted, and timed into the groups of GROUPS it
belongs to. A call whose layer differs from its caller's opens a span (op id, span id, parent span id, function,
start, end); calls inside one layer add to counts and per-function times
but open no span, which bounds the span count. A layer's self time is the
sum over its spans of the span's duration minus its child spans'.
Spans stay in memory and are written out by `write_spans`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("core", "equiv", "congruence", "filters", "construct", "verify",
          "expr", "dot", "cli")

# Timed groups: metric name -> wrapped functions whose outermost
# activation adds to it. Members may call each other (`prime_filters`
# calls `all_filters`), so time is added only when the group's depth
# returns to zero.
GROUPS = {
    "core.build_s": ("core.Lattice.__init__", "core.Lattice.from_covers",
                     "core.Lattice.from_dict", "core.Lattice.from_json"),
    "core.named_s": ("core.named",),
    "equiv.join_s": ("equiv.Partition.join", "equiv.eq_join"),
    "equiv.leq_s": ("equiv.Partition.leq", "equiv.eq_leq"),
    "equiv.is_congruence_s": ("equiv.is_congruence",),
    "congruence.principal_s": ("congruence.principal_congruence",),
    "congruence.all_s": ("congruence.all_congruences",),
    "congruence.is_simple_s": ("congruence.is_simple",),
    "congruence.order_s": ("congruence.ConLattice.order",),
    "filters.family_s": ("filters.all_filters", "filters.all_ideals",
                         "filters.prime_filters", "filters.prime_ideals"),
    "filters.prime_s": ("filters.is_prime_filter", "filters.is_prime_ideal"),
    "construct.s": ("construct.ordinal_sum", "construct.horizontal_sum",
                    "construct.interval_hsum", "construct.dilate"),
    "verify.check_s": ("verify.check_prime_equivalences",
                       "verify.check_irreducibility", "verify.check_hsum_counts",
                       "verify.check_spechsum", "verify.check_cghsum",
                       "verify.check_multi_hsum", "verify.check_dilate",
                       "verify.check_b2_hsum_simple"),
    "verify.iso_s": ("verify.isomorphic",),
    "verify.census_s": ("verify.enumerate_lattices",),
    "expr.parse_s": ("expr.parse",),
    "expr.evaluate_s": ("expr.evaluate",),
    "dot.con_dot_s": ("dot.con_dot",),
    "cli.main_s": ("cli.main",),
}


def _defined_in(fn, module) -> bool:
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def _public_callables(module):
    """(qualified name, owner, attribute, kind, function) for one layer."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and _defined_in(obj, module):
            if not inspect.isgeneratorfunction(obj):
                yield f"{layer}.{name}", module, name, "function", obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__ \
                and not issubclass(obj, BaseException):
            for attr, val in list(vars(obj).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                qual = f"{layer}.{name}.{attr}"
                if isinstance(val, (classmethod, staticmethod)):
                    if _defined_in(val.__func__, module):
                        yield qual, obj, attr, type(val).__name__, val.__func__
                elif isinstance(val, functools.cached_property):
                    yield qual, obj, attr, "cached_property", val.func
                elif inspect.isfunction(val) and _defined_in(val, module):
                    yield qual, obj, attr, "function", val


class Tracer:
    """Counts, per-function times and layer-boundary spans for latkit."""

    def __init__(self):
        self.modules = [importlib.import_module(f"latkit.{layer}")
                        for layer in LAYERS]
        self.bindings = [sys.modules["latkit"]] + self.modules
        self.names = []
        self.layer_ix = []
        self.fid = {}
        self._originals = []
        for module in self.modules:
            for qual, owner, attr, kind, fn in _public_callables(module):
                self.fid[qual] = len(self.names)
                self.names.append(qual)
                self.layer_ix.append(LAYERS.index(qual.split(".", 1)[0]))
                self._originals.append((qual, owner, attr, kind, fn))
        n = len(self.names)
        self.group_names = list(GROUPS)
        self.groups_of = [[] for _ in range(n)]
        for g, members in enumerate(GROUPS.values()):
            for qual in members:
                self.groups_of[self.fid[qual]].append(g)
        self.groups_of = [tuple(gs) for gs in self.groups_of]
        self.op = -1
        self._patches = []
        self.reset()

    # -- state ---------------------------------------------------------------

    def reset(self):
        """Forget everything recorded so far (one traced rep each)."""
        n = len(self.names)
        self.calls = [0] * n
        self.raised = [0] * n
        self.group_time = [0.0] * len(self.group_names)
        self.group_depth = [0] * len(self.group_names)
        self.frames = []        # (fid, layer) of every open wrapped call
        self.span_stack = []    # ids of open spans
        self.next_span = 0
        self.sp_id = array("q")
        self.sp_parent = array("q")
        self.sp_op = array("q")
        self.sp_fid = array("l")
        self.sp_t0 = array("d")
        self.sp_t1 = array("d")
        self.extra = {}
        self.principal_keys = set()

    def bump(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount

    def caller(self):
        """Qualified name of the innermost open wrapped call, or None."""
        return self.names[self.frames[-1][0]] if self.frames else None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fid, fn):
        tracer = self
        layer = self.layer_ix[fid]
        groups = self.groups_of[fid]
        probe = PROBES.get(self.names[fid])
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = tracer
            t.calls[fid] += 1
            frames = t.frames
            boundary = not frames or frames[-1][1] != layer
            if boundary:
                sid = t.next_span
                t.next_span = sid + 1
                stack = t.span_stack
                parent = stack[-1] if stack else -1
                stack.append(sid)
            frames.append((fid, layer))
            for g in groups:
                t.group_depth[g] += 1
            exc = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf()
                frames.pop()
                for g in groups:
                    t.group_depth[g] -= 1
                    if not t.group_depth[g]:
                        t.group_time[g] += t1 - t0
                if boundary:
                    t.span_stack.pop()
                    t.sp_id.append(sid)
                    t.sp_parent.append(parent)
                    t.sp_op.append(t.op)
                    t.sp_fid.append(fid)
                    t.sp_t0.append(t0)
                    t.sp_t1.append(t1)
                if exc is not None:
                    t.raised[fid] += 1
                    if probe is not None:
                        probe(t, args, None, exc)
            if probe is not None:
                probe(t, args, result, None)
            return result

        return wrapper

    def install(self):
        """Replace every binding of every public function by its wrapper."""
        if self._patches:
            return
        for fid, (qual, owner, attr, kind, fn) in enumerate(self._originals):
            wrapped = self._wrap(fid, fn)
            if kind == "function" and inspect.ismodule(owner):
                for module in self.bindings:
                    for name, val in list(vars(module).items()):
                        if val is fn:
                            self._patch(module, name, wrapped)
                continue
            if kind == "classmethod":
                wrapped = classmethod(wrapped)
            elif kind == "staticmethod":
                wrapped = staticmethod(wrapped)
            elif kind == "cached_property":
                wrapped = functools.cached_property(wrapped)
                wrapped.__set_name__(owner, attr)
            self._patch(owner, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    # -- results -------------------------------------------------------------

    def calls_of(self, *quals):
        return sum(self.calls[self.fid[q]] for q in quals)

    def raised_of(self, *quals):
        return sum(self.raised[self.fid[q]] for q in quals)

    def group(self, name):
        return self.group_time[self.group_names.index(name)]

    def layer_self_times(self):
        """layer -> seconds of self time, over all recorded spans."""
        child = [0.0] * self.next_span
        dur = [b - a for a, b in zip(self.sp_t0, self.sp_t1)]
        for parent, d in zip(self.sp_parent, dur):
            if parent >= 0:
                child[parent] += d
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, fid, d in zip(self.sp_id, self.sp_fid, dur):
            out[LAYERS[self.layer_ix[fid]]] += d - child[sid]
        return out

    def write_spans(self, path):
        """Spans as gzip'd TSV: op, span, parent, layer, function, start, end."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("op\tspan\tparent\tlayer\tfunction\tstart_s\tend_s\n")
            for row in zip(self.sp_op, self.sp_id, self.sp_parent,
                           self.sp_fid, self.sp_t0, self.sp_t1):
                op, sid, parent, fid, t0, t1 = row
                fh.write(f"{op}\t{sid}\t{parent}\t"
                         f"{LAYERS[self.layer_ix[fid]]}\t{self.names[fid]}\t"
                         f"{t0:.9f}\t{t1:.9f}\n")


# -- probes: counts that need a call's arguments, result or caller -------------

def _candidate(t, args, result, exc):
    if t.caller() == "verify.enumerate_lattices":
        t.bump("census_candidates")


def _principal(t, args, result, exc):
    if exc is None:
        lat, a, b = args[:3]
        t.principal_keys.add(hash((lat, a, b)))


def _join(t, args, result, exc):
    if t.caller() == "congruence.all_congruences":
        t.bump("all_joins")


def _refusal(t, args, result, exc):
    caller = t.caller()
    if type(exc).__name__ == "SizeCapExceeded" and not (
            caller and caller.startswith("congruence.")):
        t.bump("refusals")


def _all_congruences(t, args, result, exc):
    _refusal(t, args, result, exc)
    if exc is None:
        t.bump("members", len(result.members))


def _check(t, args, result, exc):
    if exc is None and result.skipped:
        t.bump("skipped")


def _iso(t, args, result, exc):
    if result is not None:
        t.bump("iso_found")


def _census(t, args, result, exc):
    if exc is None:
        t.bump("census_classes", len(result))


def _construct(t, args, result, exc):
    if exc is None:
        t.bump("elements_out", result[0].n)


def _con_dot(t, args, result, exc):
    if exc is None:
        t.bump("edges", result.count('" -> "'))


def _main(t, args, result, exc):
    t.bump("uncaught" if exc is not None else f"exit.{result}")


PROBES = {
    "core.Lattice.__init__": _candidate,
    "congruence.principal_congruence": _principal,
    "equiv.Partition.join": _join,
    "congruence.all_congruences": _all_congruences,
    "verify.isomorphic": _iso,
    "verify.enumerate_lattices": _census,
    "dot.con_dot": _con_dot,
    "cli.main": _main,
}
for _name in ("is_simple", "con01", "mu_con01", "maximal_congruences",
              "prime_congruences", "two_class_congruences",
              "is_subdirectly_irreducible"):
    PROBES[f"congruence.{_name}"] = _refusal
for _name in GROUPS["verify.check_s"]:
    PROBES[_name] = _check
for _name in GROUPS["construct.s"]:
    PROBES[_name] = _construct


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t):
    """Every per-layer metric of one traced rep: name -> (value, unit).

    A ratio whose base is zero (its layer was idle) reads 0.
    """
    x = t.extra.get
    principal = t.calls_of("congruence.principal_congruence")
    isos = t.calls_of("verify.isomorphic")
    init = "core.Lattice.__init__"
    out = {
        "core.built": (t.calls_of(init) - t.raised_of(init), "count"),
        "core.rejected": (t.raised_of(init), "count"),
        "core.build_s": (t.group("core.build_s"), "s"),
        "core.named_s": (t.group("core.named_s"), "s"),
        "equiv.partitions": (t.calls_of("equiv.Partition.__init__"), "count"),
        "equiv.join_calls": (t.calls_of("equiv.Partition.join"), "count"),
        "equiv.join_s": (t.group("equiv.join_s"), "s"),
        "equiv.leq_calls": (t.calls_of("equiv.Partition.leq"), "count"),
        "equiv.leq_s": (t.group("equiv.leq_s"), "s"),
        "equiv.is_congruence_s": (t.group("equiv.is_congruence_s"), "s"),
        "congruence.principal_calls": (principal, "count"),
        "congruence.principal_s": (t.group("congruence.principal_s"), "s"),
        "congruence.principal_distinct_ratio": (
            _ratio(len(t.principal_keys), principal), "ratio"),
        "congruence.all_calls": (
            t.calls_of("congruence.all_congruences"), "count"),
        "congruence.all_s": (t.group("congruence.all_s"), "s"),
        "congruence.members": (x("members", 0), "count"),
        "congruence.join_yield": (
            _ratio(x("members", 0), x("all_joins", 0)), "ratio"),
        "congruence.is_simple_calls": (
            t.calls_of("congruence.is_simple"), "count"),
        "congruence.is_simple_s": (t.group("congruence.is_simple_s"), "s"),
        "congruence.order_s": (t.group("congruence.order_s"), "s"),
        "congruence.refusals": (x("refusals", 0), "count"),
        "filters.family_calls": (
            t.calls_of("filters.all_filters", "filters.all_ideals"), "count"),
        "filters.family_s": (t.group("filters.family_s"), "s"),
        "filters.prime_tests": (
            t.calls_of(*GROUPS["filters.prime_s"]), "count"),
        "filters.prime_s": (t.group("filters.prime_s"), "s"),
        "construct.calls": (t.calls_of(*GROUPS["construct.s"]), "count"),
        "construct.s": (t.group("construct.s"), "s"),
        "construct.elements_out": (x("elements_out", 0), "count"),
        "verify.check_calls": (t.calls_of(*GROUPS["verify.check_s"]), "count"),
        "verify.check_s": (t.group("verify.check_s"), "s"),
        "verify.skipped": (x("skipped", 0), "count"),
        "verify.iso_calls": (isos, "count"),
        "verify.iso_found_ratio": (_ratio(x("iso_found", 0), isos), "ratio"),
        "verify.iso_s": (t.group("verify.iso_s"), "s"),
        "verify.census_candidates": (x("census_candidates", 0), "count"),
        "verify.census_yield": (
            _ratio(x("census_classes", 0), x("census_candidates", 0)), "ratio"),
        "verify.census_s": (t.group("verify.census_s"), "s"),
        "expr.parse_s": (t.group("expr.parse_s"), "s"),
        "expr.evaluate_s": (t.group("expr.evaluate_s"), "s"),
        "dot.con_dot_s": (t.group("dot.con_dot_s"), "s"),
        "dot.edges": (x("edges", 0), "count"),
        "cli.main_s": (t.group("cli.main_s"), "s"),
    }
    for code in range(4):
        out[f"cli.exit.{code}"] = (x(f"exit.{code}", 0), "count")
    out["cli.uncaught"] = (x("uncaught", 0), "count")
    for layer, seconds in t.layer_self_times().items():
        out[f"{layer}.self_s"] = (seconds, "s")
    return out
