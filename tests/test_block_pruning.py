"""Block-max pruning regression suite (round 5).

Covers the r5 pruning stack end to end, in-process (the actor pool would
not see a monkeypatched HOT_DF):

- impact-ordered local doc ids: docstats doc_len non-decreasing
- per-block MIN doc_len sidecar: written, exact, and a valid upper-bound
  ingredient (every posting's impact <= its block's bound)
- seeded Phase-B pruning (HOT_DF=1 -> every term hot, theta seeded from
  best-bound blocks) returns results identical to the exact all-rare path
  across AND/OR/NOT shapes, while actually skipping blocks (non-vacuous)
"""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def seg_index(ray_session, tmp_path_factory):
    """2400-doc single-segment index over a Zipf-vocabulary corpus, so
    hot terms span many 128-posting blocks and doc lengths vary."""
    from probe_ray.data.synth import make_rows
    from probe_ray.index.build import IndexConfig, build_index

    d = str(tmp_path_factory.mktemp("prune_corpus"))
    for f in range(4):
        pq.write_table(
            make_rows(f * 600, 600, zipf_vocab=3000),
            os.path.join(d, f"part-{f:05d}.parquet"),
        )
    idx = str(tmp_path_factory.mktemp("prune_index"))
    build_index([d], idx, IndexConfig(num_waves=1, subshards=1))
    return idx


def _mk_specs(rd, queries: dict[str, str]):
    import probe_ray.search.searcher as se
    from probe_ray.query.bm25 import create_query_plan, idf as idf_fn
    from probe_ray.query.parser import is_only_excluded_terms

    plans = {n: create_query_plan(q) for n, q in queries.items()}
    all_terms = sorted({t for p in plans.values() for t in p.term_indices})
    dfg = rd.df_lookup(all_terms)
    return [
        se._QuerySpec(
            name=n,
            plan=p,
            idfs={
                t: idf_fn(rd.n_docs, dfg[t])
                for t in p.term_indices
                if dfg.get(t, 0) > 0
            },
            need_fill=is_only_excluded_terms(p.ast),
        )
        for n, p in plans.items()
    ]


def _canon(t: pa.Table) -> pa.Table:
    return t.sort_by(
        [
            ("query", "ascending"),
            ("score", "descending"),
            ("repo", "ascending"),
            ("path", "ascending"),
        ]
    )


QUERIES = {
    "or2": "qzb OR qzc",
    "and2": "qzb AND qzc",
    "and_mid": "qzb AND qzbnd",
    "not_mid": "qzb -qzbnd",
    "or_mix": "qzc qzd qzknd",
    "single_hot": "qzb",
}


def test_seeded_pruning_identical_and_nonvacuous(seg_index):
    """HOT_DF=1 (all hot, seeded Phase B) must be row-identical to the
    exact path (HOT_DF=inf, all terms fully decoded) and must actually
    skip posting blocks on this corpus."""
    import probe_ray.search.searcher as se

    rd = se.IndexReader(seg_index)
    try:
        parts = rd._parts()
        specs = _mk_specs(rd, QUERIES)
        worker = se.SegmentWorker([seg_index], parts, rd.avgdl)
        old = se.HOT_DF
        try:
            se.HOT_DF = 10**9
            exact = worker.search(specs, k=10)
            se.HOT_DF = 1
            for key in se.PRUNE_STATS:
                se.PRUNE_STATS[key] = 0
            pruned = worker.search(specs, k=10)
            stats = dict(se.PRUNE_STATS)
        finally:
            se.HOT_DF = old
        assert _canon(exact).equals(_canon(pruned))
        assert stats["hot_blocks_total"] > 0
        assert stats["hot_blocks_decoded"] < stats["hot_blocks_total"], (
            "pruning never skipped a block — the seeded Phase B is "
            f"vacuous on this corpus: {stats}"
        )
    finally:
        rd.close()


def test_docstats_impact_ordered(seg_index):
    """Local ids are assigned by (doc_len asc, doc_hash asc)."""
    for f in glob.glob(
        os.path.join(seg_index, "waves", "*", "docstats", "*.parquet")
    ):
        t = pq.read_table(f, columns=["doc_len", "doc_hash"])
        dl = t.column("doc_len").to_numpy()
        assert (np.diff(dl) >= 0).all()
        h = t.column("doc_hash").to_numpy()
        ties = np.flatnonzero(np.diff(dl) == 0)
        assert (h[ties + 1] > h[ties]).all()


def test_blk_mindl_exact_and_bounds_hold(seg_index):
    """blk_mindl is the exact per-block min doc_len, and the block bound
    impact(blk_maxtf, blk_mindl) dominates every posting's impact."""
    from probe_ray.index.codec import BLOCK, decode_varint_deltas, unpack_tf
    from probe_ray.search.scoring import impact

    pfile = glob.glob(
        os.path.join(seg_index, "waves", "*", "postings", "*.parquet")
    )[0]
    dfile = glob.glob(
        os.path.join(seg_index, "waves", "*", "docstats", "*.parquet")
    )[0]
    doc_len = pq.read_table(dfile, columns=["doc_len"]).column(
        "doc_len"
    ).to_numpy().astype(np.float64)
    avgdl = float(doc_len.mean())
    post = pq.read_table(pfile)
    assert "blk_mindl" in post.column_names
    checked_multiblock = 0
    for row in post.slice(0, 4000).to_pylist():
        n = int(row["df"])
        ids = decode_varint_deltas(row["payload"], n)
        tfs = unpack_tf(row["tf_bits"], n).astype(np.float64)
        mindl = np.frombuffer(row["blk_mindl"], dtype=np.uint32)
        maxtf = np.frombuffer(row["blk_maxtf"], dtype=np.uint8)
        assert len(mindl) == len(maxtf) == (n + BLOCK - 1) // BLOCK
        dls = doc_len[ids.astype(np.int64)]
        for j in range(len(mindl)):
            seg = slice(j * BLOCK, min((j + 1) * BLOCK, n))
            assert mindl[j] == dls[seg].min()
            bound = impact(
                np.float64(maxtf[j]), np.float64(mindl[j]), avgdl
            )
            assert (impact(tfs[seg], dls[seg], avgdl) <= bound + 1e-12).all()
        if len(mindl) > 1:
            checked_multiblock += 1
    assert checked_multiblock > 0  # corpus produced multi-block terms


def test_anchored_refinement_identical(seg_index):
    """Force the anchored-refinement branch (small HOT_DF makes qzb hot;
    tiny ANCHOR_REFINE_BATCH activates batching) and pin row identity
    against the exact all-rare path."""
    import probe_ray.search.searcher as se

    rd = se.IndexReader(seg_index)
    try:
        # find a mid-df anchor term: rare under the patched HOT_DF (500)
        # but with enough postings to exceed 2 * the patched batch (16)
        from probe_ray.data.synth import zipf_word

        probe = [zipf_word(r) for r in range(5, 120, 5)]
        dfs = rd.df_lookup(probe)
        anchor = max(
            (f for f in probe if 30 <= dfs.get(f, 0) <= 450),
            key=lambda f: dfs[f],
            default=None,
        )
        assert anchor is not None, dfs
        queries = {
            "anch_and": f"qzb AND {anchor}",
            "anch_mix": f"qzb qzc {anchor}",
        }
        parts = rd._parts()
        specs = _mk_specs(rd, queries)
        worker = se.SegmentWorker([seg_index], parts, rd.avgdl)
        old_df, old_batch = se.HOT_DF, se.ANCHOR_REFINE_BATCH
        try:
            se.HOT_DF = 10**9
            exact = worker.search(specs, k=10)
            se.HOT_DF = 500
            se.ANCHOR_REFINE_BATCH = 8
            for key in se.PRUNE_STATS:
                se.PRUNE_STATS[key] = 0
            refined = worker.search(specs, k=10)
            stats = dict(se.PRUNE_STATS)
        finally:
            se.HOT_DF, se.ANCHOR_REFINE_BATCH = old_df, old_batch
        assert _canon(exact).equals(_canon(refined))
        assert stats["anchored_refined"] > 0  # the branch really engaged
    finally:
        rd.close()
