"""In-memory call spans for the benchmark's traced pass.

The tracer replaces, in each nilorbit module's namespace, every function
that module imports from another nilorbit module (plus a few module-internal
names listed by the caller), and the benchmark wraps its own calls into the
package the same way.  Each call through a wrapper records one span: name,
start, end and the enclosing span.  Spans stay in flat arrays until the pass
ends; ``summary`` then folds them into calls, busy time and self time.

A span's self time is its duration minus the durations of its direct
children.  A layer's busy time counts only its outermost spans, so a layer
that re-enters itself through another layer is not counted twice.
"""
from __future__ import annotations

import functools
import time
import types
from array import array


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")

    def wrap(self, fn, name: str):
        """Return ``fn`` recording a span called ``name`` per call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        depth = self._depth.setdefault(name.split(".", 1)[0], [0])
        stack, names, parents, outer = self._stack, self.name, self.parent, self.outer
        starts, ends, clock = self.start, self.end, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[0] == 0)
            ends.append(0.0)
            depth[0] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[0] -= 1

        return traced

    def install(self, modules, internal: dict[str, set[str]]) -> None:
        """Wrap cross-module imports in each module, and the names in
        ``internal[module]`` that the module calls on itself."""
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("nilorbit."):
                    continue
                if home == mod.__name__ and attr not in internal.get(mod.__name__, ()):
                    continue
                layer = home.rsplit(".", 1)[-1].lstrip("_")  # nilorbit._linalg -> linalg
                setattr(mod, attr, self.wrap(obj, f"{layer}.{obj.__name__}"))
                self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def summary(self, ticks: list[tuple[float, float]]) -> dict:
        """Per span name: calls, total time and self time; per layer: calls,
        busy time and self time.  ``ticks`` are (start, duration) of
        interruptions that ran inside spans without calling a traced name
        (the speed probe); their time is taken out of every enclosing span."""
        import numpy as np

        count = len(self.start)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        tick_start = np.array([t for t, _ in ticks])
        before = np.concatenate([[0.0], np.cumsum([d for _, d in ticks])])
        inside = before[np.searchsorted(tick_start, end)] - before[np.searchsorted(tick_start, start)]
        dur = end - start - inside
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=count)
        own = dur - children
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_t = np.bincount(name, weights=own, minlength=k)
        busy = np.bincount(name, weights=dur * outer, minlength=k)
        per_name = {
            n: {"calls": int(calls[i]), "time_s": float(total[i]), "self_s": float(self_t[i])}
            for i, n in enumerate(self.names)
        }
        per_layer: dict[str, dict] = {}
        for i, n in enumerate(self.names):
            agg = per_layer.setdefault(n.split(".", 1)[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += int(calls[i])
            agg["busy_s"] += float(busy[i])
            agg["self_s"] += float(self_t[i])
        return {"spans": count, "names": per_name, "layers": per_layer}

    def save(self, path, ticks: list[tuple[float, float]]) -> None:
        import numpy as np

        np.savez(
            path,
            ticks=np.array(ticks).reshape(-1, 2),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
