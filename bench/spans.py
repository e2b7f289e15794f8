"""In-memory span recorder for the traced benchmark run.

`Tracer.wrap` replaces a module or class attribute with a wrapper that records
one span per call: name, start, end, the span that was open when the call
began (its parent) and the id of the certified path being computed.  The
wrappers live only in the benchmark process and `Tracer.restore` puts the
original attributes back; the library source is never modified.

Self time is derived afterwards: a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index or -1, path id, info]
        self.spans: list[list] = []
        self.path_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.path_id, None])
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = start, end

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Record a `name` span around every call of `owner.attr`.

        `info(args, kwargs, result)` may extract a value (an iteration count,
        a byte count) that is stored on the span; it runs after the span has
        closed.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if info is not None:
                spans[idx][5] = info(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def by_path(self) -> dict:
        """{path id: {span name: {"n", "total", "self", "infos"}}}: call
        count, total and self seconds, and the stored infos."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict] = {}
        for i, (name, start, end, _, pid, info) in enumerate(self.spans):
            per_name = out.setdefault(pid, {})
            entry = per_name.setdefault(name, {"n": 0, "total": 0.0, "self": 0.0, "infos": []})
            entry["n"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child[i]
            if info is not None:
                entry["infos"].append(info)
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line:
        name, start, end, parent index, path id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tpath\n")
            for name, start, end, parent, pid, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{pid}\n")
