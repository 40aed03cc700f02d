"""Engine benchmark: index build, append, upsert and BM25 top-k query.

    python3 perfbench/run.py --workload query_hot --seed 1 --seconds 20 --trace 0

Each run starts its own Ray session (3 logical CPUs) and generates its
inputs from ``--seed``. Set-up: one build of the base corpus (the index
the queries are served from), reader set-up rounds and a correctness
gate. Then ``--seconds`` of closed-loop queries (one client; the next
query starts when the previous one returns), split into bursts; between
two bursts runs one write-side operation on a scratch index: a fresh
build, a +5% append, or a chain of two upserts, each made visible through
a federated reader. So every metric draws its samples from the whole
run, not from one stretch of it. The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Earlier ``host:`` and ``detail:`` lines carry the host context, sample
counts, tail percentiles, bases of ratios and self times. See
perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import gc
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170.0  # the whole run, including Ray start and shutdown
K = 10
# The warm reader stays open for the whole run (up to 1 CPU: 2 actors of
# 0.5) while the write side runs next to it; a federated reader over a
# base and 2 deltas reserves up to 2 more. 1 logical CPU deadlocks hybrid
# queries (README, defect A).
RAY_CPUS = 3
READER_CPUS = 1.0  # held by a placeholder during the set-up build
UPSERT_CHAIN = 2  # a third delta deadlocks the federated reader (README, defect B)
UPSERT_DOCS = 64
SETUP_ROUNDS = 3

WORKLOADS = {
    # corpus shape, base docs, base files, IndexConfig kwargs, write
    # operations between the query bursts, in order: B = fresh build of
    # the base corpus into the scratch index, A = +5% append to it, C = the
    # upsert chain on it (which tombstones it, so a B comes next).
    "query_hot": ("code", 3000, 8, {}, "BAABAABAACBAABAABAAC"),
    "query_zipf": ("zipf", 9500, 4, {"num_waves": 1, "subshards": 1}, "BAABAAC"),
}
# Tail percentile per workload, (index path, hybrid): the highest that
# still has 10 samples beyond it when a run completes a third fewer
# queries than usual. Fixed, so that a run with a few more queries does
# not move up to the next percentile.
TAIL_PCT = {"query_hot": (95, 95), "query_zipf": (75, 75)}

E2E_UNITS = {
    "setup_s": "s",
    "build_docs_per_s": "docs/s",
    "append_s": "s",
    "upsert_visible_s": "s",
    "index_bytes_per_input_byte": "ratio",
    "indexpath_p50_ms": "ms",
    "indexpath_tail_ms": "ms",
    "hybrid_p50_ms": "ms",
    "hybrid_tail_ms": "ms",
    "queries_per_s": "q/s",
    "ok_frac": "ratio",
}
LAYER_UNITS = {
    "tokenize.docs_per_s": "docs/s",
    "build.tokenize_write_s": "s",
    "build.finalize_max_s": "s",
    "build.finalize_sum_s": "s",
    "build.rest_s": "s",
    "build.exchange_bytes": "bytes",
    "build.postings_bytes": "bytes",
    "codec.postings_per_s": "postings/s",
    "upsert.segment_s": "s",
    "query.plan_us": "us",
    "searcher.open_s": "s",
    "searcher.df_lookup_ms": "ms",
    "searcher.rest_ms": "ms",
    "searcher.hot_blocks_decoded_frac": "ratio",
    "searcher.hot_blocks_total": "count",
    "searcher.hot_terms": "count",
    "searcher.anchored_refined": "count",
    "hybrid.discover_ms": "ms",
    "hybrid.candidates": "rows",
    "hybrid.candidates_frac": "ratio",
    "hybrid.fanout_ms": "ms",
    "hybrid.cold_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}
DEADLINE_S = {"build": 90, "append": 60, "open": 60, "query": 30, "upsert": 60, "gate": 60}


class Stall(Exception):
    """An operation passed its deadline."""


class Failed(Exception):
    """A lifecycle step raised or returned a wrong result."""


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def _dir_bytes(path: str, sub: str | None = None) -> int:
    total = 0
    for dp, _dn, fn in os.walk(path):
        if sub is None or sub in dp.split(os.sep):
            total += sum(os.path.getsize(os.path.join(dp, f)) for f in fn)
    return total


def _pct(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(0, min(len(s) - 1, -(-int(p * len(s)) // 100) - 1))]


def tail(samples: list[float], p: int) -> tuple[int, float]:
    """(percentile, value) at percentile ``p``, or, when fewer than 10
    samples lie beyond it, at the highest of p90/p75/p50 that has 10."""
    n = len(samples)
    for q in (p, 90, 75, 50):
        if q <= p and n * (100 - q) / 100 >= 10:
            return q, _pct(samples, q)
    return 50, _pct(samples, 50)


def _host_speed() -> float:
    """SHA-256 rounds per millisecond over 0.2 s: host speed beside the
    query bursts, to tell a slower host from a slower engine."""
    import hashlib

    h, n = b"x", 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        for _ in range(1000):
            h = hashlib.sha256(h).digest()
        n += 1000
    return n / (1000 * (time.perf_counter() - t0))


def _cpu_times() -> list[int]:
    """The host's aggregate CPU times (user, nice, system, idle, iowait,
    irq, softirq, steal, ...) from /proc/stat, in clock ticks."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return []


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.t_start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.detail: dict = {"workload": workload, "seed": seed}
        self.pool = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        self.layer: dict[str, float] = {}
        self.report_lock = threading.Lock()
        self.reported = False
        self.tracer = None
        if trace:
            from tracing import Tracer

            self.tracer = Tracer()

    # ---- operations with deadlines -------------------------------------
    def submit(self, fn) -> concurrent.futures.Future:
        """Start one engine operation; its future gives ``(result, seconds)``."""
        stack = list(self.tracer.stack()) if self.tracer else None

        def timed():
            if stack is not None:
                # spans opened inside the engine call nest under the caller's
                self.tracer.set_stack(stack)
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0

        return self.pool.submit(timed)

    def wait(self, kind: str, name: str, fut: concurrent.futures.Future, critical: bool = True):
        """Wait for an operation within its deadline; returns
        ``(result, seconds)`` or ``(None, None)`` for a non-critical failure.
        A stall raises Stall (the run stops); a critical failure raises Failed."""
        self.attempted += 1
        left = RUN_BUDGET_S - (time.monotonic() - self.t_start)
        timeout = max(1.0, min(DEADLINE_S[kind], left))
        try:
            return fut.result(timeout=timeout)
        except concurrent.futures.TimeoutError:
            self.failed += 1
            raise Stall(f"workload {self.workload}: operation {name} passed its {timeout:.0f} s deadline") from None
        except Exception as e:  # any engine error is a counted failure
            self.failed += 1
            self.errors.append(f"{name}: {type(e).__name__}: {e}")
            _log(f"operation {name} failed:\n{traceback.format_exc()}")
            if critical:
                raise Failed(f"workload {self.workload}: operation {name} raised {type(e).__name__}: {e}") from None
            return None, None

    def op(self, kind: str, name: str, fn, critical: bool = True):
        return self.wait(kind, name, self.submit(fn), critical)

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else contextlib.nullcontext()

    def check(self, ok: bool, msg: str) -> None:
        if not ok:
            self.errors.append(msg)
            raise Failed(f"workload {self.workload}: {msg}")

    def settle(self, free: float) -> None:
        """Wait, untimed, until ``free`` logical CPUs are unreserved: a
        closed reader's actors give theirs back asynchronously."""
        import ray

        t_end = time.monotonic() + 10
        while ray.available_resources().get("CPU", 0.0) < free - 1e-6 and time.monotonic() < t_end:
            time.sleep(0.02)

    # ---- lifecycle -------------------------------------------------------
    def run(self) -> None:
        from probe_ray.index.build import IndexConfig

        shape, n_base, self.n_files, cfg_kw, self.plan = WORKLOADS[self.workload]
        self.shape, self.cfg, self.n_base = shape, IndexConfig(**cfg_kw), n_base
        self.n_app = n_base // 20
        self.corpus = os.path.join(self.work, "corpus")
        self.scratch = os.path.join(self.work, "scratch")
        self.times: dict[str, list[float]] = {"build": [], "append": [], "upsert_visible": [], "upsert_segment": []}
        idx = os.path.join(self.work, "index")
        steps = [
            ("inputs", self.phase_inputs),
            ("build", lambda: self.phase_build(idx)),
            ("setup", lambda: self.phase_setup(idx)),
            ("gate", self.phase_gate),
            ("measure", self.phase_measure),
        ]
        if self.tracer:
            steps.append(("probes", lambda: self.phase_probes(idx)))
        phases = self.detail["phase_s"] = {}
        for name, fn in steps:
            t0 = time.perf_counter()
            fn()
            phases[name] = time.perf_counter() - t0
        if self.tracer:
            self._overhead_probe(self.reader)
        self.reader.close()

    def phase_inputs(self) -> None:
        """Generate the inputs and the oracle's answers for the gate while
        the warm-up runs: a placeholder actor takes the CPUs the warm
        reader will hold, and an untimed build of half the base corpus
        starts the session's Ray Data, imports the engine in its workers
        and touches the object store, so the first timed build pays none
        of it."""
        import gate
        import inputs

        self.base_files = inputs.write_corpus(self.shape, self.seed, self.corpus, self.n_base, self.n_files)
        warm = self.submit(self._warm_up)
        n_apps = max(len(run) for run in re.split("[BC]", self.plan))
        self.appends = [
            inputs.write_rows(
                inputs.make_rows(self.shape, self.seed, self.n_base + j * self.n_app, self.n_app),
                os.path.join(self.work, "appends", f"append-{j:02d}.parquet"),
            )
            for j in range(n_apps)
        ]
        self.frags = []
        for u in range(UPSERT_CHAIN):
            frag, marker = inputs.upsert_fragment(self.shape, self.seed, self.n_base, u, UPSERT_DOCS)
            path = inputs.write_rows(frag, os.path.join(self.work, "upserts", f"frag-{u}.parquet"))
            want = set(zip(frag.column("repo").to_pylist(), frag.column("path").to_pylist()))
            self.frags.append((path, marker, want))
        if self.shape == "code":
            self.queries = list(inputs.HOT_QUERIES.items())
            gate_qs = [q for _n, q in self.queries]
        else:
            cold = inputs.ZipfStream(self.seed, stream=1)
            self.queries = [cold.next() for _ in range(6)]
            # the oracle tokenizes the whole corpus once per query context,
            # so the sample is small: the cold pass's two index-path
            # queries and one hybrid query, quoted on even seeds and
            # -excluded on odd ones
            index_qs = [q for n, q in self.queries if n in ("and", "or", "required")]
            gate_qs = index_qs[:2] + [dict(self.queries)["excluded" if self.seed % 2 else "quoted"]]
        self.detail["n_base_docs"] = self.n_base
        t0 = time.perf_counter()
        self.oracle = gate.expected(self.base_files, gate_qs, K)
        self.detail["oracle_s"] = time.perf_counter() - t0
        self.placeholder, _ = self.wait("build", "warm-up", warm)
        shutil.rmtree(os.path.join(self.work, "warm"), ignore_errors=True)

    def _warm_up(self):
        import ray

        from probe_ray.index.build import build_index

        @ray.remote(num_cpus=READER_CPUS)
        class Placeholder:
            def ready(self) -> bool:
                return True

        holder = Placeholder.remote()
        ray.get(holder.ready.remote())
        half = self.base_files[: len(self.base_files) // 2]
        build_index(half, os.path.join(self.work, "warm"), self.cfg)
        return holder

    def _build(self, idx: str, label: str) -> dict:
        """One fresh build of the base corpus, timed; checks n_docs."""
        from probe_ray.index.build import build_index

        shutil.rmtree(idx, ignore_errors=True)
        with self.span("build", request=label):
            manifest, secs = self.op("build", f"build_index ({label})", lambda: build_index([self.corpus], idx, self.cfg))
        self.check(manifest["n_docs"] == self.n_base, f"{label}: n_docs {manifest['n_docs']} != {self.n_base}")
        self.times["build"].append(secs)
        return manifest

    def phase_build(self, idx: str) -> None:
        """The served index: the run's first timed build, made while the
        placeholder holds the warm reader's CPUs, as every later build runs
        next to the warm reader. The size ratio and the per-layer build
        figures come from this build."""
        import ray

        manifest = self._build(idx, "build0")
        ray.kill(self.placeholder)
        self.placeholder = None
        in_bytes = sum(os.path.getsize(f) for f in self.base_files)
        idx_bytes = _dir_bytes(idx)
        self.metrics["index_bytes_per_input_byte"] = idx_bytes / in_bytes
        self.detail["index_bytes"] = idx_bytes
        self.detail["input_bytes"] = in_bytes
        steps = [wm["steps"] for wm in manifest["waves"]]
        tok = sum(s.get("tokenize_s", 0.0) for s in steps)
        self.layer.update({
            "build.tokenize_write_s": tok,
            "build.finalize_max_s": max(s.get("finalize_task_s_max", 0.0) for s in steps),
            "build.finalize_sum_s": sum(s.get("finalize_task_s_sum", 0.0) for s in steps),
            "build.rest_s": self.times["build"][0] - tok,
            "build.exchange_bytes": _dir_bytes(idx, "tokenized"),
            "build.postings_bytes": _dir_bytes(idx, "postings"),
        })

    def phase_setup(self, idx: str):
        """Set-up rounds: open a reader, answer a first query, then
        the cold pass over the workload's query set. setup_s is their
        median; the last round's reader (the warm reader) serves the
        queries for the rest of the run."""
        import ray

        from probe_ray.search.searcher import IndexReader

        rounds, rd = [], None
        self.cold: dict[str, list[float]] = {}
        for r in range(SETUP_ROUNDS):
            if rd is not None:
                rd.close()
            self.settle(RAY_CPUS)
            t0 = time.perf_counter()
            with self.span("searcher.open", request=f"open{r}"):
                rd, _ = self.op("open", f"open reader (round {r})", lambda: IndexReader(idx))
                self.op("query", f"first search (round {r})", lambda: rd.search(self.queries[0][1], k=K))
            for name, q in self.queries:
                with self.span("search", request=f"cold{r}:{name}", cold=True, hybrid=self._is_hybrid(q)):
                    _, secs = self.op("query", f"cold search {name!r} (round {r})", lambda q=q: rd.search(q, k=K))
                self.cold.setdefault(f"{name}|{q}", []).append(secs)
            rounds.append(time.perf_counter() - t0)
        self.metrics["setup_s"] = statistics.median(rounds)
        self.detail["setup_rounds_s"] = rounds
        self.detail["cold_s"] = self.cold
        self.n_docs = rd.n_docs
        self.reader = rd
        # what the write side finds free next to the warm reader
        self.free_cpus = ray.available_resources().get("CPU", 0.0)

    def _is_hybrid(self, q: str) -> bool:
        from probe_ray.query.bm25 import create_query_plan

        return bool(create_query_plan(q).special_terms)

    def phase_gate(self) -> None:
        """Top-k of the warm reader against the oracle's answers."""
        import gate

        rd = self.reader
        got = {}
        for q in self.oracle:
            t, _ = self.op("query", f"gate search {q!r}", lambda q=q: rd.search(q, k=K))
            got[q] = list(zip(t.column("repo").to_pylist(), t.column("path").to_pylist(), t.column("score").to_pylist()))
        bad = gate.compare(got, self.oracle)
        self.detail["gate"] = {"queries": len(got), "mismatches": bad}
        self.check(not bad, f"rank identity failed for {len(bad)} queries: {bad[:3]}")

    # ---- the measured part: query bursts and write operations --------------
    def phase_measure(self) -> None:
        """``--seconds`` of queries in equal bursts, one write operation
        of the workload's plan between each two."""
        import numpy as np

        import inputs

        self.rng = np.random.default_rng([self.seed, 0x10AD])
        self.stream = inputs.ZipfStream(self.seed, stream=2)
        self.order: list = []
        self.last = self.queries[0]
        self.lat: dict[str, list[float]] = {"index": [], "hybrid": []}
        self.by_shape: dict[str, list[float]] = {}
        self.hybrid_of: dict[str, bool] = {}
        self.window_s = 0.0
        self.n_q = 0
        if self.tracer:
            self.reader.prune_stats(reset=True)
        writes = {"B": self.write_build, "A": self.write_append, "C": self.write_chain}
        per_burst = self.seconds / (len(self.plan) + 1)
        self.detail["host_speed_before"] = _host_speed()
        cpu0 = _cpu_times()
        for b in range(len(self.plan) + 1):
            self.burst(b, per_burst)
            if b < len(self.plan):
                writes[self.plan[b]](b)
        cpu1 = _cpu_times()
        if len(cpu0) > 7 and len(cpu1) > 7:
            # the share of CPU time the host's other tenants took from this
            # machine's CPUs during the measured part
            d = [b - a for a, b in zip(cpu0, cpu1)]
            self.detail["cpu_steal_frac"] = d[7] / max(1, sum(d))
        self.detail["host_speed_after"] = _host_speed()
        shutil.rmtree(self.scratch, ignore_errors=True)
        if self.tracer:
            st = self.reader.prune_stats(reset=True)
            tot = st.get("hot_blocks_total", 0)
            self.layer.update(
                {
                    "searcher.hot_blocks_decoded_frac": st.get("hot_blocks_decoded", 0) / tot if tot else 0.0,
                    "searcher.hot_blocks_total": tot,
                    "searcher.hot_terms": st.get("hot_terms", 0),
                    "searcher.anchored_refined": st.get("anchored_refined", 0),
                }
            )

    def _next_query(self) -> tuple[str, str]:
        if self.shape == "code":
            # the 15 queries in a fresh seeded order each cycle
            if not self.order:
                self.order = [self.queries[i] for i in self.rng.permutation(len(self.queries))]
            return self.order.pop()
        return self.stream.next()

    def burst(self, b: int, seconds: float) -> None:
        """Closed loop, one client, for ``seconds``. It starts with an
        untimed repeat of the previous query: the warm reader's actors sat
        idle through the write operation."""
        rd = self.reader
        gc.collect()  # the write side's garbage is the harness's, not the queries'
        name, q = self.last
        with self.span("search", request=f"burst{b}", shape=name):
            self.op("query", f"burst {b} warm-up search {q!r}", lambda: rd.search(q, k=K), critical=False)
        t_begin = time.perf_counter()
        t_end = t_begin + seconds
        while time.perf_counter() < t_end:
            name, q = self.last = self._next_query()
            hyb = self.hybrid_of.get(q)
            if hyb is None:
                hyb = self.hybrid_of[q] = self._is_hybrid(q)
            with self.span("search", request=f"q{self.n_q}", shape=name, hybrid=hyb, window=True):
                _, secs = self.op("query", f"search {q!r}", lambda q=q: rd.search(q, k=K), critical=False)
            self.n_q += 1
            if secs is None:
                continue
            self.lat["hybrid" if hyb else "index"].append(1000 * secs)
            self.by_shape.setdefault(name, []).append(1000 * secs)
        self.window_s += time.perf_counter() - t_begin

    def write_build(self, b: int) -> None:
        self._build(self.scratch, f"build{len(self.times['build'])}")
        self.n_appended = 0

    def write_append(self, b: int) -> None:
        """Add the next +5% file to the scratch index's inputs and build
        again (build_index appends the new fragment)."""
        from probe_ray.index.build import build_index

        j = self.n_appended
        paths = [self.corpus] + self.appends[: j + 1]
        want = self.n_base + (j + 1) * self.n_app
        with self.span("append", request=f"append{len(self.times['append'])}"):
            manifest, secs = self.op("append", f"append {j} (burst {b})", lambda: build_index(paths, self.scratch, self.cfg))
        self.check(manifest["n_docs"] == want, f"append {j}: n_docs {manifest['n_docs']} != {want}")
        self.times["append"].append(secs)
        self.n_appended = j + 1

    def write_chain(self, b: int) -> None:
        """The upsert chain on the scratch index. Each upsert is visible
        when a federated reader over the scratch index and every delta
        answers the upsert's marker query with exactly the fragment's
        documents; the reader is closed before the next link."""
        from probe_ray.index.upsert import upsert_segment
        from probe_ray.search.searcher import FederatedReader

        c = len(self.times["upsert_visible"])
        members, visible = [self.scratch], []
        for u, (path, marker, want) in enumerate(self.frags):
            delta = os.path.join(self.work, f"delta-{u}")
            shutil.rmtree(delta, ignore_errors=True)
            self.settle(self.free_cpus)
            t0 = time.perf_counter()
            with self.span("upsert", request=f"upsert{c}.{u}"):
                _, secs = self.op("upsert", f"upsert_segment {u} (chain {c})", lambda: upsert_segment(members, path, delta))
            self.times["upsert_segment"].append(secs)
            members = members + [delta]
            with self.span("searcher.open", request=f"fedopen{c}.{u}"):
                fr, _ = self.op("open", f"open federated reader {u} (chain {c})", lambda: FederatedReader(members, tombstone_scope="member"))
                with self.span("search", request=f"marker{c}.{u}", hybrid=False):
                    res, _ = self.op("upsert", f"marker query {u} (chain {c})", lambda: fr.search(marker, k=UPSERT_DOCS + K))
            visible.append(time.perf_counter() - t0)
            got = set(zip(res.column("repo").to_pylist(), res.column("path").to_pylist()))
            fr.close()
            self.check(got == want and res.num_rows == len(want), f"chain {c} upsert {u}: marker returned {res.num_rows} docs, want the fragment's {len(want)}")
        self.settle(self.free_cpus)
        self.times["upsert_visible"].append(statistics.mean(visible))
        self.detail.setdefault("upsert_visible_s_links", []).append(visible)

    def report_metrics(self) -> None:
        """End-to-end metrics from the samples of the whole run (of the
        part that ran, when the run stopped early)."""
        t = getattr(self, "times", {})
        if t.get("build"):
            self.metrics["build_docs_per_s"] = self.n_base / statistics.median(t["build"])
            self.detail["build_s_all"] = t["build"]
        for key, metric in (("append", "append_s"), ("upsert_visible", "upsert_visible_s")):
            if t.get(key):
                self.metrics[metric] = statistics.median(t[key])
                self.detail[f"{metric}_all"] = t[key]
        if self.tracer and t.get("upsert_segment"):
            self.layer["upsert.segment_s"] = statistics.median(t["upsert_segment"])
        lat = getattr(self, "lat", None)
        if lat is None or not self.window_s:
            return
        self.metrics["queries_per_s"] = (len(lat["index"]) + len(lat["hybrid"])) / self.window_s
        for cls, pre, pct in zip(("index", "hybrid"), ("indexpath", "hybrid"), TAIL_PCT[self.workload]):
            s = lat[cls]
            if not s:
                continue
            p, v = tail(s, pct)
            self.metrics[f"{pre}_p50_ms"] = statistics.median(s)
            self.metrics[f"{pre}_tail_ms"] = v
            self.detail[f"{pre}_tail"] = {"percentile": p, "samples": len(s), "beyond": len(s) - int(p * len(s) / 100)}
        self.detail.update(
            window_s=self.window_s,
            bursts=len(self.plan) + 1,
            distinct_queries=len(self.hybrid_of),
            shape_p50_ms={n: statistics.median(v) for n, v in sorted(self.by_shape.items())},
            window_ms=lat,
        )

    def _overhead_probe(self, rd) -> None:
        """Tracing overhead: the warm cold-pass queries, each run traced
        and untraced back to back (order alternating), three passes."""
        for _name, q in self.queries:  # refill the caches the bursts evicted
            self.op("query", f"overhead warm-up {q!r}", lambda q=q: rd.search(q, k=K))
        lat = {True: [], False: []}
        for p in range(3):
            for j, (name, q) in enumerate(self.queries):
                for on in ((True, False) if (p + j) % 2 else (False, True)):
                    self.tracer.enabled = on
                    with self.span("search", request=f"overhead{p}:{name}", overhead=True):
                        _, secs = self.op("query", f"overhead search {q!r}", lambda q=q: rd.search(q, k=K))
                    lat[on].append(1000 * secs)
        self.tracer.enabled = True
        base = statistics.median(lat[False])
        self.layer["trace.overhead_frac"] = statistics.median(lat[True]) / base - 1
        self.detail["trace_overhead_base"] = {"untraced_p50_ms": base, "traced_p50_ms": statistics.median(lat[True]), "pairs": len(lat[True])}

    def phase_probes(self, idx: str) -> None:
        """Layer probes timed outside the engine's pipelines."""
        import numpy as np
        import pyarrow.dataset as pads
        import pyarrow.parquet as pq

        from probe_ray.index.build import _postings_path
        from probe_ray.index.codec import decode_varint_deltas
        from probe_ray.tokenize.tokenizer import tokenize

        rng = np.random.default_rng([self.seed, 0x70C])
        t = pads.dataset(self.base_files[0]).to_table(columns=["content"])
        docs = [t.column("content")[int(i)].as_py() for i in rng.choice(t.num_rows, size=min(400, t.num_rows), replace=False)]
        reps = []
        for _ in range(3):
            with self.span("tokenize.probe"):
                t0 = time.perf_counter()
                for d in docs:
                    tokenize(d)
                reps.append(time.perf_counter() - t0)
        self.layer["tokenize.docs_per_s"] = len(docs) / statistics.median(reps)

        post = pq.read_table(_postings_path(idx, 0, 0), columns=["payload", "df"])
        pick = rng.choice(post.num_rows, size=min(2000, post.num_rows), replace=False)
        payloads = [post.column("payload")[int(i)].as_py() for i in pick]
        dfs = [int(post.column("df")[int(i)].as_py()) for i in pick]
        reps = []
        for _ in range(3):
            with self.span("codec.probe"):
                t0 = time.perf_counter()
                for p, n in zip(payloads, dfs):
                    decode_varint_deltas(p, n)
                reps.append(time.perf_counter() - t0)
        self.layer["codec.postings_per_s"] = sum(dfs) / statistics.median(reps)
        self.detail["codec_probe"] = {"rows": len(pick), "postings": sum(dfs)}

    def report(self, status: str) -> bool:
        """Print the detail line and the result line once, with every
        metric gathered so far; returns whether the run was correct."""
        with self.report_lock:
            if self.reported:
                return False
            self.reported = True
            try:
                self.report_metrics()
            except Exception as e:  # report what was gathered
                self.errors.append(f"end-to-end metrics: {type(e).__name__}: {e}")
                _log(traceback.format_exc())
            if self.tracer and status == "ok":
                try:
                    self.layer_metrics()
                except Exception as e:  # report what was gathered
                    self.errors.append(f"per-layer metrics: {type(e).__name__}: {e}")
                    _log(traceback.format_exc())
            units = LAYER_UNITS if self.tracer else E2E_UNITS
            if self.attempted:
                self.metrics["ok_frac"] = 1 - self.failed / self.attempted
            source = self.layer if self.tracer else self.metrics
            metrics = {k: {"value": source[k], "unit": u} for k, u in units.items() if k in source}
            correct = status == "ok" and not self.errors and len(metrics) == len(units)
            self.detail.update(status=status, errors=self.errors, run_s=time.monotonic() - self.t_start)
            if self.tracer:
                out = os.path.join(ROOT, ".perfbench_out")
                os.makedirs(out, exist_ok=True)
                self.tracer.dump(os.path.join(out, f"{self.workload}-seed{self.seed}-spans.jsonl"))
            print("detail: " + json.dumps(self.detail, default=str), flush=True)
            result = {"correct": correct, "attempted": max(1, self.attempted), "failed": self.failed, "metrics": metrics}
            print(json.dumps(result), flush=True)
            return correct

    # ---- per-layer metrics from the spans ---------------------------------
    def layer_metrics(self) -> None:
        tr = self.tracer
        med = lambda v: statistics.median(v) if v else 0.0  # noqa: E731
        kids = tr.children()
        plan, dfl, rest = [], [], []
        for s in tr.spans:
            if not s.get("window") or s["hybrid"] or s["end"] is None:
                continue
            ch = kids.get(s["id"], [])
            plan += [c["end"] - c["start"] for c in ch if c["name"] == "query.plan"]
            dfl += [c["end"] - c["start"] for c in ch if c["name"] == "searcher.df_lookup"]
            rest.append(tr.self_time(s, kids))
        self.layer["query.plan_us"] = 1e6 * med(plan)
        self.layer["searcher.df_lookup_ms"] = 1000 * med(dfl)
        self.layer["searcher.rest_ms"] = 1000 * med(rest)
        self.layer["searcher.open_s"] = med(tr.durations("searcher.open"))
        disc = [s for s in tr.spans if s["name"] == "hybrid.discover" and s["end"] is not None]
        rows = [s.get("rows", 0) for s in disc]
        self.layer["hybrid.discover_ms"] = 1000 * med([s["end"] - s["start"] for s in disc])
        self.layer["hybrid.candidates"] = med(rows)
        self.layer["hybrid.candidates_frac"] = med(rows) / self.n_docs
        self.layer["hybrid.fanout_ms"] = 1000 * med(tr.durations("hybrid.fanout"))
        cold_h = {k: v for k, v in self.cold.items() if self._is_hybrid(k.split("|", 1)[1])}
        self.layer["hybrid.cold_ms"] = 1000 * med([sum(v[r] for v in cold_h.values()) for r in range(SETUP_ROUNDS)])
        self.layer["trace.spans"] = len(tr.spans)
        self.detail["hybrid_cold_ms_by_shape"] = {k: 1000 * statistics.median(v) for k, v in cold_h.items()}
        self.detail["hybrid_candidates_base_n_docs"] = self.n_docs
        self.detail["self_times"] = tr.self_times_by_name()
        self.detail["layer_samples"] = {"plan": len(plan), "df_lookup": len(dfl), "rest": len(rest), "discover": len(disc)}


def host_context(seed: int) -> dict:
    import numpy
    import pyarrow
    import ray

    import probe_ray

    mem = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem = int(line.split()[1]) * 1024
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": nproc,  # honours OMP_NUM_THREADS, unlike the affinity count
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "ray_logical_cpus": RAY_CPUS,
        "ram_bytes": mem,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "engine_version": probe_ray.ENGINE_VERSION,
        "commit": commit,
        "seed": seed,
    }


def _ray_temp_dir(work: str) -> tuple[str, bool]:
    """Ray's session directory holds unix sockets, whose paths are capped at
    107 bytes; use the checkout unless its path is too long."""
    d = os.path.join(work, "ray")
    if len(d) <= 40:
        os.makedirs(d, exist_ok=True)
        return d, False
    return tempfile.mkdtemp(prefix="pb"), True


def _stop_children() -> None:
    """Kill and reap any process this run started that is still alive."""
    try:
        import psutil
    except ImportError:
        from ray.thirdparty_files import psutil
    me = psutil.Process()
    procs = me.children(recursive=True)
    for p in procs:
        try:
            p.kill()
        except psutil.NoSuchProcess:
            pass
    psutil.wait_procs(procs, timeout=10)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "probe_ray", "__init__.py")):
        _log(f"no probe_ray package next to {HERE}: run from a full checkout of the repository")
        return 2
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)
    work = os.path.join(ROOT, ".perfbench_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    import ray

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    ray_tmp, ray_tmp_outside = _ray_temp_dir(work)

    def abandon() -> None:
        # a stuck operation holds a Ray call: stop every process without
        # waiting on it
        _stop_children()
        if ray_tmp_outside:
            shutil.rmtree(ray_tmp, ignore_errors=True)
        os._exit(1)

    def watchdog() -> None:
        bench.errors.append(f"workload {args.workload}: the run passed its {RUN_BUDGET_S:.0f} s budget")
        _log(f"STALL: {bench.errors[-1]}")
        bench.report("stall")
        abandon()

    timer = threading.Timer(RUN_BUDGET_S + 3, watchdog)
    timer.daemon = True
    timer.start()
    status = "ok"
    try:
        ray.init(
            address="local",
            num_cpus=RAY_CPUS,
            include_dashboard=False,
            log_to_driver=False,
            object_store_memory=400 * 2**20,
            _temp_dir=ray_tmp,
            # Ray starts its workers at niceness 15, so any other process
            # on the host would take their CPU before them: the
            # benchmark's builds and query actors run at the default
            # priority, like the process that drives them
            _system_config={"worker_niceness": 0},
            # workers import probe_ray from the repository root, whatever
            # this process's working directory
            runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
        )
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        print("host: " + json.dumps(host_context(args.seed)), flush=True)
        if bench.tracer:
            with bench.tracer.install():
                bench.run()
        else:
            bench.run()
    except Stall as e:
        status = "stall"
        bench.errors.append(str(e))
        _log(f"STALL: {e}")
    except Failed as e:
        status = "failed"
        _log(f"FAILED: {e}")
    except Exception as e:  # still report and stop every process
        status = "failed"
        bench.errors.append(f"{type(e).__name__}: {e}")
        _log(f"FAILED:\n{traceback.format_exc()}")

    correct = bench.report(status)
    if status == "stall":
        abandon()
    bench.pool.shutdown(wait=True)
    ray.shutdown()
    _stop_children()
    timer.cancel()
    shutil.rmtree(work, ignore_errors=True)
    if ray_tmp_outside:
        shutil.rmtree(ray_tmp, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
