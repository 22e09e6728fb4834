"""Per-layer tracing of hotring from outside the package.

The tracer replaces functions and methods of the already imported
``hotring`` modules by wrappers.  It never edits a program file: it
rebinds names in module namespaces and attributes on classes.  A name
imported with ``from .x import f`` is a separate binding in every module
that imports it, so each wrapper is installed in every module (and the
package namespace) that binds the original object.

Three kinds of wrapper keep the traced run close to the untraced one:

* a *span* counts calls and records busy time (outermost activation only,
  so recursion is not counted twice) and self time (busy time minus the
  time covered by nested spans and leaves);
* a *leaf* counts and times calls but opens no span; its time is taken
  out of the enclosing span's self time (``FiniteRing.mul``);
* a *counter* only counts calls (``FiniteRing.add`` and the small
  integer-polynomial and matrix helpers that run millions of times).

Everything is kept in memory; ``snapshot`` returns the totals so that the
caller can diff them around a query and write them out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
from time import perf_counter

# hottest primitives: counted, never timed
COUNT_ONLY = {
    "rings.FiniteRing.add",
    "rings.FiniteRing.neg",
    "rings.FiniteRing.scalar",
    "rings.FiniteRing.zero",
    "poly.iconst", "poly.ivar", "poly.iadd", "poly.isub", "poly.imul",
    "poly.ipow", "poly.const_poly", "poly.monomial", "poly.poly_neg",
    "poly.poly_sub", "poly.poly_scalar", "poly.constant_of", "poly.slices",
    "poly.shift_poly",
    "glk.mat_zero", "glk.mat_add", "glk.mat_neg", "glk.mat_mul",
    "glk.is_circle_witness",
    "intlin.identity_matrix", "intlin.mat_vec", "intlin.mat_mul",
    "intlin.transpose",
}

# timed, but without a span of their own
LEAVES = {"rings.FiniteRing.mul"}

# methods worth a span; module-level public functions are wrapped wholesale
METHODS = {
    "rings": {"FiniteRing": ("mul", "add", "neg", "scalar", "zero",
                             "nilpotency_class"),
              "RingHom": ("validate",)},
    "glk": {"CircleGroup": ("subgroup_closure", "is_normal")},
    "intlin": {"LinearSolver": ("__init__", "solve")},
    "triangle": {"Factorization": ("__init__", "verify"),
                 "PuppeSequence": ("__init__", "verify"),
                 "TruncatedPuppe": ("__init__", "verify_kernel_exactness",
                                    "pointed_set_exactness"),
                 "MappingPath": ("__init__", "null_homotopy")},
    "store": {"ResultStore": ("load", "save")},
}


class Tracer:
    """Installs wrappers on the hotring package and accumulates totals."""

    def __init__(self, package):
        self.package = package
        self.prefix = package.__name__ + "."
        self.stats = {}          # name -> [calls, busy_s, self_s, depth]
        self.counters = {}       # derived counts (store hits, qi statuses...)
        self.stack = [[0.0]]     # child-time accumulators; [0] is the root
        self.hooks = self._after_hooks()

    # -- bookkeeping -------------------------------------------------------

    def _cell(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self):
        out = {name: (st[0], st[1], st[2]) for name, st in self.stats.items()}
        out.update({name: (n, 0.0, 0.0) for name, n in self.counters.items()})
        return out

    # -- wrapper factories -------------------------------------------------

    def _span(self, name, fn, after=None):
        cell = self._cell(name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            cell[0] += 1
            cell[3] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                cell[3] -= 1
                if cell[3] == 0:
                    cell[1] += d
                cell[2] += d - frame[0]
                stack[-1][0] += d
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _leaf(self, name, fn):
        cell = self._cell(name)
        stack = self.stack

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            d = perf_counter() - t0
            cell[0] += 1
            cell[1] += d
            cell[2] += d
            stack[-1][0] += d
            return result

        return wrapper

    def _counter(self, name, fn):
        cell = self._cell(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _make(self, name, fn):
        if name in COUNT_ONLY:
            return self._counter(name, fn)
        if name in LEAVES:
            return self._leaf(name, fn)
        return self._span(name, fn, self.hooks.get(name))

    # -- result inspection -------------------------------------------------

    def _after_hooks(self):
        def qi(result, args):
            self.count("glk.qi." + result.status)

        def search(result, args):
            searched = getattr(result, "searched", None)
            if searched is None:
                self.count("homotopy.search_hits")
            else:
                self.count("homotopy.candidates_searched", searched)

        saved = []

        def load(result, args):
            # cli.main reads each record back right after writing it;
            # that read is not a cache hit
            if saved and saved.pop() == args[1]:
                self.count("store.reads_after_write")
            else:
                self.count("store.hits" if result is not None
                           else "store.misses")

        def save(result, args):
            store, key = args[0], args[1]
            saved[:] = [key]
            self.count("store.bytes_written",
                       os.path.getsize(store.path_for(key)))

        return {"glk.quasi_inverse": qi,
                "homotopy.search_elementary": search,
                "store.ResultStore.load": load,
                "store.ResultStore.save": save}

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function and the listed methods, in every
        hotring namespace that binds them."""
        modules = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            modules.append(importlib.import_module(self.prefix + info.name))
        replacements = {}      # id(original) -> wrapper
        for mod in modules:
            short = mod.__name__[len(self.prefix):]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                replacements[id(obj)] = (obj, self._make(f"{short}.{attr}",
                                                         obj))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    setattr(cls, meth,
                            self._make(f"{short}.{cls_name}.{meth}", fn))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
