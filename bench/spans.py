"""Tracing from outside the program: wrappers around latclass's public
functions record one span per call, kept in memory until the run ends.

A wrapper replaces the module attribute or class attribute that callers look
up, in the defining module and in every latclass module that imported the
same function by name, so calls made inside the package are seen too.  A
span is (name, start, end, parent span, request id); a layer's self time is
its span's duration minus the time its direct child spans cover and the time
the benchmark's own observers (the counts read from arguments and results)
take while it is open.  The wrapped functions are those the per-layer
metrics of BENCHMARK.json name.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
OVERHEAD = "trace.overhead_ratio"
REQUEST = "bench.request"
# candidates = spans of this name under the searching span
CANDIDATES = {"classes.principal_unit_witness": "algebra.Algebra.is_unit",
              "families.orders_between": "lattice.FullLattice.__init__"}


def metric_specs():
    """(name, unit, better) of every per-layer metric, as BENCHMARK.json
    lists them.  A name is `<span>.<stat>`, the span `<module>.<attribute
    path>` of a wrapped function."""
    return [(m["name"], m["unit"], m["better"])
            for m in json.loads(SPEC.read_text())["per_layer"]]


def targets():
    """(module, attribute path) of every wrapped function: the spans the
    per-layer metrics name, and the candidates counted under searches."""
    names = {name.rpartition(".")[0] for name, _, _ in metric_specs()
             if name != OVERHEAD}
    names |= set(CANDIDATES.values())
    return sorted(tuple(name.split(".", 1)) for name in names)


def _bits(m) -> int:
    return max((abs(x).bit_length() for row in m for x in row), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self.stack: list[int] = []
        self.aside: dict[int, float] = {}   # span -> time spent in observers
        self.request = -1
        self.counts: dict[str, int] = {}    # result-derived counts
        self.maxima: dict[str, int] = {}
        self._saved: list[tuple] = []

    # -- span recording ------------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.req.append(self.request)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def set_aside(self, seconds: float):
        """Keep `seconds` of benchmark work out of the open span's self time."""
        if self.stack:
            idx = self.stack[-1]
            self.aside[idx] = self.aside.get(idx, 0.0) + seconds

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        observe = _OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                t0 = perf_counter()
                observe(tracer, args, result)
                tracer.set_aside(perf_counter() - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing wrappers ---------------------------------------------------------
    def install(self):
        wanted = targets()
        for modname, _ in wanted:   # a workload need not have loaded them all
            importlib.import_module(f"latclass.{modname}")
        mods = {k: m for k, m in sys.modules.items()
                if k == "latclass" or k.startswith("latclass.")}
        for modname, path in wanted:
            mod = mods[f"latclass.{modname}"]
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(f"{modname}.{path}", original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if owner is mod:   # re-exports: `from .x import f` elsewhere
                for other in mods.values():
                    for key, val in list(vars(other).items()):
                        if val is original:
                            self._saved.append((other, key, original))
                            setattr(other, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-name calls and self time, and the counts derived from spans."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i in range(n):
            rec = out.setdefault(self.names[self.span_name[i]],
                                 {"calls": 0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i] - self.aside.get(i, 0.0)
        for searcher, cand in CANDIDATES.items():
            sid, cid = self.name_ids.get(searcher), self.name_ids.get(cand)
            count = 0
            for i in range(n):
                if self.span_name[i] == cid and self._under(i, sid):
                    count += 1
            out.setdefault(searcher, {"calls": 0, "self_s": 0.0})["candidates"] = count
        for key, val in list(self.counts.items()) + list(self.maxima.items()):
            span, _, stat = key.rpartition(".")
            out.setdefault(span, {"calls": 0, "self_s": 0.0})[stat] = val
        return out

    def _under(self, i: int, sid) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.span_name[p] == sid:
                return True
            p = self.parent[p]
        return False

    def metrics(self, overhead: float) -> dict:
        st = self.stats()
        out = {}
        for name, unit, _ in metric_specs():
            if name == OVERHEAD:
                out[name] = {"value": overhead, "unit": unit}
                continue
            span, _, stat = name.rpartition(".")
            out[name] = {"value": st.get(span, {}).get(stat, 0), "unit": unit}
        return out

    def dump(self, path):
        """One JSON header line naming the spans, then one line per span:
        [name id, start s, end s, parent index, request id]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start", "end", "parent",
                                            "request"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.span_name[i]},{self.start[i]:.7f},{self.end[i]:.7f},"
                         f"{self.parent[i]},{self.req[i]}]\n")


# -- counts read from arguments and results ---------------------------------------------

def _bump(tracer, key, by=1):
    tracer.counts[key] = tracer.counts.get(key, 0) + by


def _hnf(tracer, args, result):
    a = args[0]
    bits = max(_bits(a), _bits(result))
    for key, val in (("exactnum.hnf.max_bits", bits),
                     ("exactnum.hnf.max_cols", len(a[0]))):
        tracer.maxima[key] = max(tracer.maxima.get(key, 0), val)


_OBSERVERS = {
    "exactnum.hnf": _hnf,
    "classes.principal_unit_witness":
        lambda t, a, r: _bump(t, "classes.principal_unit_witness.found", r is not None),
    "families.orders_between":
        lambda t, a, r: _bump(t, "families.orders_between.found", len(r)),
    "conjugacy.same_class":
        lambda t, a, r: _bump(t, "conjugacy.same_class.undecided", r is None),
}
