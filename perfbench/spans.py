"""Outside-in span recording around the public functions of each layer.

The layers are the ``equilib`` modules, plus ``sympy`` (its ``solve``,
``simplify`` and ``expand`` entry points) and ``bench`` (the root span of
each job).  ``Tracer.install`` replaces every public module-level function
with a recording wrapper, in its defining module and in every ``equilib``
module that imported it by name, so ``from .linalg import
vertex_enumeration`` in ``solver`` and linalg's own ``solve_unique`` ->
``matrix_rank`` call both record.  ``Triangulation.validate`` is wrapped
on the class.  Private helpers and methods are not wrapped: their time
counts as self time of the public function that called them.

Spans live in flat in-memory arrays (function, parent, start, end, and
one outcome number) and are written out once, by ``dump``, after the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

MODULES = (
    "rational", "linalg", "games", "solver", "indices", "equivalence",
    "geometry", "perturb", "examples", "cli",
)

# Outcome recorded per span, for the ratio metrics.
OUTCOMES = {
    "linalg.solve_unique": lambda r: r is not None,
    "linalg.vertex_enumeration": lambda r: len(r) == 0,
    "linalg.linprog": lambda r: r.status == "optimal",
    "solver.support_enumeration": lambda r: len(r.isolated) + len(r.subsets),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("i")
        self.stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._job_fid = self._fid("bench.job")

    def _open(self, fid: int) -> int:
        sid = len(self.fn)
        self.fn.append(fid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.outcome.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def _fid(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrapper(self, name: str, fn):
        fid = self._fid(name)
        outcome = OUTCOMES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if outcome is not None:
                tracer.outcome[sid] = int(outcome(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def job(self, fn, *args):
        """Run ``fn(*args)`` under a root ``bench.job`` span."""
        sid = self._open(self._job_fid)
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"equilib.{m}") for m in MODULES}
        targets = []
        for m, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    targets.append((f"{m}.{attr}", obj))
        wrapped = {id(fn): self._wrapper(name, fn) for name, fn in targets}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        tri = mods["geometry"].Triangulation
        self._patch(tri, "validate", self._wrapper("geometry.validate", tri.validate))
        import sympy

        for attr in ("solve", "simplify", "expand"):
            self._patch(sympy, attr, self._wrapper(f"sympy.{attr}", getattr(sympy, attr)))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, total and self time, outcome sums, and ancestry.

        Self time is a span's duration minus the time its child spans cover;
        spans nest (one thread), so the children of a span never overlap.
        """
        n = len(self.fn)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "total": 0.0, "self": 0.0, "outcome": 0} for name in self.names}
        # ancestors[i]: names of the functions open around span i
        watch = {"geometry.validate", "solver.support_enumeration", "indices.component_index"}
        under = [frozenset()] * n
        for i in range(n):
            name = self.names[self.fn[i]]
            s = stats[name]
            s["calls"] += 1
            s["total"] += dur[i]
            s["self"] += dur[i] - child[i]
            s["outcome"] += self.outcome[i]
            p = self.parent[i]
            if p >= 0:
                pname = self.names[self.fn[p]]
                under[i] = under[p] | {pname} if pname in watch else under[p]
        nested = {}
        for i in range(n):
            for anc in under[i]:
                key = (anc, self.names[self.fn[i]])
                nested[key] = nested.get(key, 0) + 1
        roots = sum(dur[i] for i in range(n) if self.parent[i] < 0)
        return {"functions": stats, "nested": nested, "wall": roots, "spans": n}

    def dump(self, path: str) -> None:
        """Write all spans; times are microseconds from the first span's start."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "functions": self.names,
                    "fn": list(self.fn),
                    "parent": list(self.parent),
                    "start_us": [round((t - t0) * 1e6) for t in self.start],
                    "end_us": [round((t - t0) * 1e6) for t in self.end],
                    "outcome": list(self.outcome),
                },
                fh,
                separators=(",", ":"),
            )
