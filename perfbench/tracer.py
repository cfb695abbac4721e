"""Span tracer that wraps a package's functions from outside.

`Tracer.install` replaces a function at every module attribute bound to
it, so callers that imported it by name are traced as well.  Spans
(name, start, end, parent) live in compact in-memory arrays and are
written once by `Tracer.dump`.  A target that does not exist is recorded
in `Tracer.absent` instead of raising, so a later refactor that moves a
function only drops its metrics.
"""

from __future__ import annotations

import functools
import json
import time
from array import array


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # 1 when no span of the same name was open, so inclusive times of
        # re-entrant functions are not counted twice
        self.outer = array("b")
        self._open: list[int] = []
        self._depth: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._open.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()
        self._depth[self.name_id[idx]] -= 1

    def span(self, name: str):
        """Context manager recording one span called ``name``."""
        tracer = self
        nid = self._id(name)

        class _Span:
            def __enter__(self):
                self.idx = tracer._enter(nid)

            def __exit__(self, *exc):
                tracer._exit(self.idx)
                return False

        return _Span()

    def wrap(self, func, name: str, counter=None):
        """Traced version of ``func``; ``counter(result)`` yields ``{count_name: n}``."""
        nid = self._id(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._enter(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit(idx)
            if counter is not None:
                try:
                    added = counter(result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    added = {}
                for key, value in added.items():
                    self.counts[key] = self.counts.get(key, 0) + int(value)
            return result

        return traced

    def install(self, modules: dict, targets: list) -> None:
        """Wrap ``targets`` of ``(module_name, attr, counter)`` in ``modules``.

        Every attribute of every module in ``modules`` that is bound to
        the original function is replaced by the traced one.
        """
        for module_name, attr, counter in targets:
            home = modules.get(module_name)
            func = getattr(home, attr, None) if home is not None else None
            if not callable(func):
                self.absent.append(f"{module_name}.{attr}")
                continue
            traced = self.wrap(func, f"{module_name}.{attr}", counter)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._patched.append((module, key, func))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for module, key, func in reversed(self._patched):
            setattr(module, key, func)
        self._patched.clear()

    def dump(self, path: str) -> None:
        """Write all spans, counts and absent targets to ``path`` as JSON."""
        with open(path, "w") as f:
            json.dump(
                {
                    "names": self.names,
                    "name_id": self.name_id.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "outer": self.outer.tolist(),
                    "counts": self.counts,
                    "absent": self.absent,
                },
                f,
            )


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
    start, end, parent = trace["start"], trace["end"], trace["parent"]
    own = self_times(start, end, parent)
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in trace["names"]}
    for i, nid in enumerate(trace["name_id"]):
        entry = out[trace["names"][nid]]
        entry["calls"] += 1
        entry["self_s"] += own[i]
        if trace["outer"][i]:
            entry["total_s"] += end[i] - start[i]
    return out
