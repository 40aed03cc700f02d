"""In-memory spans around calls into the engine's layers.

The benchmark records spans from its own files only: ``Tracer.install``
wraps public engine functions (and the query-plan function the reader
calls by name) for the life of a traced run and restores them on exit.
Each span has a name, start, end, parent span and request id; spans stay
in memory and are written out when the run ends. The self time of a span
is its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = True
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()

    def stack(self) -> list[int]:
        """This thread's open spans, innermost last."""
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def set_stack(self, stack: list[int]) -> None:
        """Continue another thread's open spans in this thread."""
        self._local.stack = list(stack)

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None, **attrs):
        """Record one span; a span opened inside another becomes its child
        and inherits its request id."""
        if not self.enabled:
            yield None
            return
        st = self.stack()
        parent = st[-1] if st else None
        if request is None and parent is not None:
            request = self.spans[parent]["request"]
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            rec = {"id": sid, "name": name, "parent": parent, "request": request, "start": time.perf_counter(), "end": None, **attrs}
            self.spans.append(rec)
        st.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            st.pop()

    def _wrap(self, name: str, fn, result_attr=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if rec is not None and result_attr is not None:
                    rec.update(result_attr(out))
                return out

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap the engine's layer entry points for the duration of the block."""
        from probe_ray.search import searcher

        patches = [
            (searcher, "create_query_plan", self._wrap("query.plan", searcher.create_query_plan)),
            (searcher.IndexReader, "df_lookup", self._wrap("searcher.df_lookup", searcher.IndexReader.df_lookup)),
            (
                searcher.IndexReader,
                "special_candidate_keys",
                self._wrap(
                    "hybrid.discover",
                    searcher.IndexReader.special_candidate_keys,
                    lambda t: {"rows": t.num_rows},
                ),
            ),
            (
                searcher.IndexReader,
                "candidate_stage_fanout",
                self._wrap("hybrid.fanout", searcher.IndexReader.candidate_stage_fanout),
            ),
        ]
        saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        try:
            yield self
        finally:
            for obj, attr, old in saved:
                setattr(obj, attr, old)

    # ---- analysis ------------------------------------------------------
    def children(self) -> dict[int, list[dict]]:
        out: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                out.setdefault(s["parent"], []).append(s)
        return out

    def self_time(self, span: dict, kids: dict[int, list[dict]]) -> float:
        """Duration minus the union of the child spans' intervals."""
        iv = sorted((c["start"], c["end"]) for c in kids.get(span["id"], []) if c["end"] is not None)
        covered = 0.0
        cur_s = cur_e = None
        for s, e in iv:
            s, e = max(s, span["start"]), min(e, span["end"])
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return (span["end"] - span["start"]) - covered

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"] is not None]

    def self_times_by_name(self) -> dict[str, dict]:
        kids = self.children()
        acc: dict[str, list[float]] = {}
        for s in self.spans:
            if s["end"] is not None:
                acc.setdefault(s["name"], []).append(self.self_time(s, kids))
        return {
            n: {"count": len(v), "self_ms_p50": 1000 * statistics.median(v), "self_ms_sum": 1000 * sum(v)}
            for n, v in sorted(acc.items())
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
