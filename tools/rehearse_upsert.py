"""Upsert-at-scale rehearsal: against a 1.5M-doc index, updating K
documents must cost O(K) — tombstone write + a K-doc delta build —
not a rebuild, and federated member-scope search must (a) return the
new versions, (b) keep warm query latency in the same band as the
base index alone.

Usage: python tools/rehearse_upsert.py [n_changed] [corpus_dir]
"""

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_CHANGED = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
CORPUS = (
    sys.argv[2]
    if len(sys.argv) > 2
    else "/tmp/probe_ray_bench/corpus_1500000_x8"
)
ROOT = "/tmp/probe_ray_upsert_rehearsal"
MARK = "upsertrehearsalmarker"


def main():
    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray

    ray.init(
        address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
        include_dashboard=False, log_to_driver=False,
    )
    from probe_ray.index.build import IndexConfig, build_index
    from probe_ray.index.upsert import upsert_segment
    from probe_ray.search.searcher import IndexReader

    base_dir = os.path.join(ROOT, "base")
    out = {"n_changed": N_CHANGED, "corpus": CORPUS}

    t0 = time.time()
    m = build_index([CORPUS], base_dir, IndexConfig(num_waves=4, subshards=8))
    out["base_docs"] = m["n_docs"]
    out["base_build_s"] = round(time.time() - t0, 1)

    # delta fragment: the first N_CHANGED docs of the first fragment,
    # contents rewritten around a unique marker token
    frag_src = sorted(
        os.path.join(CORPUS, f)
        for f in os.listdir(CORPUS)
        if f.endswith(".parquet")
    )[0]
    t = pads.dataset(frag_src).to_table().slice(0, N_CHANGED)
    rows = t.to_pylist()
    for i, r in enumerate(rows):
        r["content"] = f"fn rewritten_{i}() {{ return {MARK}; }}\n"
        r["commit"] = "upsert-rehearsal"
    frag = os.path.join(ROOT, "delta.parquet")
    pq.write_table(pa.Table.from_pylist(rows, schema=t.schema), frag)

    delta_dir = os.path.join(ROOT, "delta_idx")
    shutil.rmtree(delta_dir, ignore_errors=True)
    t0 = time.time()
    upsert_segment([base_dir], frag, delta_dir)
    out["upsert_s"] = round(time.time() - t0, 2)

    fed = IndexReader([base_dir, delta_dir], tombstone_scope="member")
    hits = fed.search(MARK, k=N_CHANGED + 5)
    out["marker_hits"] = hits.num_rows
    out["marker_commits"] = sorted(set(hits.column("commit").to_pylist()))

    # warm latency band: federation vs base alone, same query set
    qs = ["error AND handler", "database", "(auth OR login) AND handler"]
    base_rd = IndexReader(base_dir)
    for name, rd in (("base", base_rd), ("fed", fed)):
        for q in qs:
            rd.search(q, k=10)  # warm
        lat = []
        for _ in range(20):
            for q in qs:
                t0 = time.time()
                rd.search(q, k=10)
                lat.append(time.time() - t0)
        lat.sort()
        out[f"{name}_p50_ms"] = round(lat[len(lat) // 2] * 1000, 1)
    base_rd.close()
    fed.close()
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
