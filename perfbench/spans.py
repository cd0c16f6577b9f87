"""Span recording around the library's module-level functions.

The traced run replaces every public module-level function of the
wrapped modules with a wrapper that records one span per call: name,
start, end, parent span and pass id.  The library source is not
edited; because the modules call each other (and themselves) through
module attributes, the wrappers see the cli -> sieve -> dde nesting.

Spans are held in flat arrays while passes run and analysed or written
out only at the end.  Wrappers are installed for traced passes only, so
untraced passes run the unmodified functions.
"""

from __future__ import annotations

import array
import inspect
import threading
import time
from collections import defaultdict

import numpy as np


def public_functions(module) -> dict[str, object]:
    """Public callables defined in (not imported into) a module."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        out[name] = obj
    return out


class Recorder:
    """Flat in-memory span store plus per-pass counters."""

    def __init__(self, modules: dict[str, object],
                 extra: dict[str, tuple[object, str]], counters: dict[str, tuple]):
        """Wrap the public functions of ``modules`` (short name -> module)
        and the ``extra`` functions (qualified name -> (module, attr))."""
        # qualified name "<module>.<function>" -> (module object, attr, original)
        self.targets: dict[str, tuple[object, str, object]] = {}
        for short, mod in modules.items():
            for name, fn in public_functions(mod).items():
                self.targets[f"{short}.{name}"] = (mod, name, fn)
        for qual, (mod, name) in extra.items():
            if hasattr(mod, name):
                self.targets[qual] = (mod, name, getattr(mod, name))
        self.names = list(self.targets)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        # qual name -> (counter names, fn(arguments, result, exc) -> dict);
        # counters of functions that no longer exist are left out
        self.counters = {q: c for q, c in counters.items() if q in self.targets}
        self.counter_keys = [k for keys, _ in self.counters.values() for k in keys]
        self._signatures = {q: inspect.signature(self.targets[q][2])
                            for q in self.counters}
        self.name_ids = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self.pass_ids = array.array("i")
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._local = threading.local()
        self.pass_id = -1

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, qual: str, fn):
        name_id = self._name_id[qual]
        counter = self.counters.get(qual, (None, None))[1]
        sig = self._signatures.get(qual)
        rec = self

        def wrapper(*args, **kwargs):
            stack = rec._stack()
            idx = len(rec.starts)
            rec.name_ids.append(name_id)
            rec.starts.append(0.0)
            rec.ends.append(0.0)
            rec.parents.append(stack[-1] if stack else -1)
            rec.pass_ids.append(rec.pass_id)
            stack.append(idx)
            exc = None
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec.starts[idx] = t0
                rec.ends[idx] = t1
                if counter is not None:
                    try:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        counted = counter(bound.arguments, result, exc)
                    except (KeyError, AttributeError, TypeError):
                        counted = {}        # renamed parameter or field
                    for key, val in counted.items():
                        rec.counts[rec.pass_id][key] += val

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        return wrapper

    def install(self, pass_id: int) -> None:
        self.pass_id = pass_id
        for qual, (mod, name, fn) in self.targets.items():
            setattr(mod, name, self._wrap(qual, fn))

    def uninstall(self) -> None:
        for mod, name, fn in self.targets.values():
            setattr(mod, name, fn)
        self.pass_id = -1

    # ---- analysis (after all passes) ----

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "pass_id": np.frombuffer(self.pass_ids, dtype=np.int32).copy(),
        }

    def per_pass(self, pass_ids: list[int], pass_walls: dict[int, float]
                 ) -> dict[int, dict[str, float]]:
        """Per-pass metrics: calls, inclusive and self seconds per function,
        self seconds per module, benchmark counters and the part of each
        pass that no top-level span covers.

        Self time is a span's duration minus its child spans' durations.
        Children of one span run nested on the same thread, so they do
        not overlap and their durations add up to the time they cover.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        child_sum = np.bincount(a["parent"][child], weights=dur[child],
                                minlength=dur.size)
        self_s = np.maximum(dur - child_sum, 0.0)
        n_names = len(self.names)
        solve_id = self._name_id.get("dde.solve")
        fz_id = self._name_id.get("dde.first_zero")
        out = {}
        for pid in pass_ids:
            sel = a["pass_id"] == pid
            ids = a["name_id"][sel]
            calls = np.bincount(ids, minlength=n_names)
            incl = np.bincount(ids, weights=dur[sel], minlength=n_names)
            excl = np.bincount(ids, weights=self_s[sel], minlength=n_names)
            m: dict[str, float] = {}
            modules: dict[str, float] = defaultdict(float)
            for i, qual in enumerate(self.names):
                m[f"{qual}.calls"] = int(calls[i])
                m[f"{qual}.s"] = float(incl[i])
                m[f"{qual}.self_s"] = float(excl[i])
                modules[qual.split(".")[0]] += float(excl[i])
            for mod, v in modules.items():
                m[f"{mod}.self_s"] = v
            if solve_id is not None and fz_id is not None:
                par = a["parent"][sel]
                is_solve = ids == solve_id
                parents_of_solves = par[is_solve]
                m["dde.first_zero.solves"] = int(np.count_nonzero(
                    a["name_id"][parents_of_solves[parents_of_solves >= 0]]
                    == fz_id))
            top = sel & (a["parent"] < 0)
            covered = float(np.sum(dur[top]))
            m["trace.top_level_s"] = covered
            m["trace.remainder_s"] = pass_walls[pid] - covered
            for key in self.counter_keys:
                m[key] = self.counts.get(pid, {}).get(key, 0)
            out[pid] = m
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
