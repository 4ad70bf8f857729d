"""Spans and call counts recorded around calls into the lparams modules.

Tracing lives in the benchmark, not in the library: `install` replaces every
public function of the ten lparams modules, in every lparams namespace that
holds the same object, with a recording wrapper. Calls made inside the package
go through module globals, so they are caught too.

Most wrappers record a span: name, start, end, parent span and op id. The
hot leaf calls in COUNT_ONLY (and GaussQ arithmetic) record a count only, so
that wrapper cost does not swamp the self times; their time is charged to the
calling span. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("gaussian", "intlinalg", "rootdata", "weyl", "tits", "torus",
           "lgroup", "lparam", "weilrep", "cli")

# Called tens to thousands of times per op, each call a few microseconds.
COUNT_ONLY = frozenset({
    "gaussian.as_gauss", "gaussian.gvec", "gaussian.gvec_add", "gaussian.gvec_sub",
    "gaussian.gvec_neg", "gaussian.gvec_conj",
    "intlinalg.ident", "intlinalg.mat_from_rows", "intlinalg.transpose",
    "intlinalg.mat_mul", "intlinalg.mat_neg", "intlinalg.mat_vec", "intlinalg.vadd",
    "intlinalg.vsub", "intlinalg.vneg", "intlinalg.vscale", "intlinalg.vdot",
    "intlinalg.is_integral",
    "rootdata.xstar_reflections", "rootdata.xcostar_reflections", "rootdata.all_roots",
    "rootdata.all_coroots", "rootdata.positive_roots", "rootdata.positive_coroots",
    "rootdata.rho_check", "rootdata.rho", "rootdata.coaction", "rootdata.cartan_matrix",
    "rootdata.is_positive_root", "rootdata.expand_in_simples",
    "weyl.length", "weyl.weyl_identity", "weyl.simple_reflection", "weyl.weyl_mul",
    "weyl.weyl_inv", "weyl.weyl_act", "weyl.descent", "weyl.apply_aut_to_weyl",
    "tits.torus_part", "tits.torus_part_zero", "tits.act_on_torus_part",
    "tits.torus_elem", "tits.sigma", "tits.delta_elem", "tits.tits_identity",
    "lgroup.lgroup_tits_context",
})

GAUSS_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__")

# Prefix of the stderr line on which cli_shim.py hands its spans to the runner.
SHIM_MARK = "@@lparams-spans@@"

# functools caches whose statistics the benchmark reads from outside.
CACHES = {"weyl.canon_cache": ("weyl", "_elem_from_matrix"),
          "lgroup.tits_context_cache": ("lgroup", "lgroup_tits_context")}


class Tracer:
    """In-memory span and counter store; one per traced process."""

    def __init__(self):
        self.names = []      # name table; spans and counts refer to it by index
        self.ids = {}
        self.counts = []     # calls through count-only wrappers, by name id
        self.spans = []      # [name id, start, end, parent span index, op id]
        self.stack = []
        self.op = -1         # -1 marks set-up work
        self.on = True

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
        return self.ids[name]

    def span_wrapper(self, name, fn):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def count_wrapper(self, name, fn):
        nid = self.name_id(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                counts[nid] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self) -> dict:
        return {"names": self.names, "counts": self.counts, "spans": self.spans,
                "caches": cache_stats()}


def _modules():
    return {m: importlib.import_module(f"lparams.{m}") for m in MODULES}


def cache_stats() -> dict:
    mods = _modules()
    out = {}
    for key, (mod, attr) in CACHES.items():
        info = getattr(mods[mod], attr)
        info = getattr(info, "traced_original", info).cache_info()
        out[key] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out


def clear_caches() -> None:
    """Empty every functools cache in lparams, so that the next set-up is cold."""
    for mod in _modules().values():
        for obj in list(vars(mod).values()):
            obj = getattr(obj, "traced_original", obj)
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def install(tracer: Tracer) -> None:
    """Wrap every public lparams function, in every lparams namespace holding it."""
    mods = _modules()
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            name = f"{short}.{attr}"
            make = tracer.count_wrapper if name in COUNT_ONLY else tracer.span_wrapper
            wrapper = make(name, obj)
            wrapper.traced_original = obj
            wrapped[id(obj)] = (obj, wrapper)
    for ns in [*mods.values(), importlib.import_module("lparams")]:
        for attr, obj in list(vars(ns).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
    gauss = mods["gaussian"].GaussQ
    for meth in GAUSS_ARITH:
        setattr(gauss, meth, tracer.count_wrapper("gaussian.arith", getattr(gauss, meth)))


class Aggregate:
    """Per-name and per-module totals over dumps from one or more processes."""

    def __init__(self):
        self.calls = {}    # name -> calls
        self.incl = {}     # name -> inclusive seconds, outermost spans of a name only
        self.self_s = {}   # name -> span time not covered by child spans
        self.nested = {}   # (ancestor name, name) -> calls of name below ancestor
        self.caches = {}

    def add(self, dump: dict) -> None:
        names, spans = dump["names"], dump["spans"]
        for name, n in zip(names, dump["counts"]):
            if n:
                self.calls[name] = self.calls.get(name, 0) + n
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (nid, t0, t1, parent, _) in enumerate(spans):
            name = names[nid]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (t1 - t0 - child[i])
            outer = True
            seen = set()
            while parent >= 0:
                pname = names[spans[parent][0]]
                if pname == name:
                    outer = False
                if pname not in seen:
                    seen.add(pname)
                    self.nested[(pname, name)] = self.nested.get((pname, name), 0) + 1
                parent = spans[parent][3]
            if outer:
                self.incl[name] = self.incl.get(name, 0.0) + (t1 - t0)
        for key, st in dump["caches"].items():
            acc = self.caches.setdefault(key, {"hits": 0, "misses": 0, "size": 0})
            acc["hits"] += st["hits"]
            acc["misses"] += st["misses"]
            acc["size"] = max(acc["size"], st["size"])

    def module_calls(self, mod: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(mod + "."))

    def module_self(self, mod: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.startswith(mod + "."))

    def per_call(self, ancestor: str, name: str) -> float:
        base = self.calls.get(ancestor, 0)
        return self.nested.get((ancestor, name), 0) / base if base else 0.0

    def hit_ratio(self, key: str) -> float:
        st = self.caches.get(key, {"hits": 0, "misses": 0})
        total = st["hits"] + st["misses"]
        return st["hits"] / total if total else 0.0

    def table(self) -> dict:
        return {name: {"calls": self.calls[name], "s": self.incl.get(name),
                       "self_s": self.self_s.get(name)} for name in sorted(self.calls)}
