"""End-to-end conformance: distributed index engine vs scalar oracle.

The contract (BASELINE.json north_rule): rank-identical top-k — same doc
identities in the same order with bit-equal f64 BM25 scores — against the
pure-Python rank_documents clone over the same corpus, on the reference
query set (FIXTURES.md SS5). Plus the per-row sha256 invariant and
checkpoint/resume behavior (FIXTURES.md SS6)."""

import glob
import hashlib
import json
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from probe_ray.query.bm25 import rank_files

QUERIES = [
    "setTools",
    "error AND handling",
    "login OR authentication OR auth",
    "(error OR exception) AND (handle OR process)",
    "database -sqlite",
    "+api +process load",
    "ip AND whitelist",
    '"JWTMiddleware"',
    "RPCStorageHandler",
    "enableFirewallWhitelist",
    "yaml workflow agent multi-agent user input",
    "keyword",
    "nonexistent_xyz",
    # quoted term with negative keyword (both special-term paths at once,
    # tests/quoted_term_with_negative_keyword_tests.rs)
    '"setTools" -database',
    'apiClient -"yamlLoader"',
    # stem-identity quoted terms — the non-vacuous exact path (quoted
    # camelCase like "JWTMiddleware" above pins the reference's 0-result
    # verbatim-vs-stemmed behavior; these pin the hit path)
    '"whitelist"',
    '"hashmap" -database',
]


@pytest.fixture(scope="module")
def engine_results(built_index, corpus_rows):
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(built_index[0])
    return rd.search_many({f"q{i}": q for i, q in enumerate(QUERIES)}, k=10)


@pytest.fixture(scope="module")
def oracle_results(corpus_rows):
    t = corpus_rows
    rows = list(zip(t.column("path").to_pylist(), t.column("content").to_pylist()))
    keys = list(zip(t.column("repo").to_pylist(), t.column("path").to_pylist()))
    out = {}
    for i, q in enumerate(QUERIES):
        ranked = rank_files(rows, q)[:10]
        out[f"q{i}"] = [(keys[d][0], keys[d][1], s) for d, s in ranked]
    return out


@pytest.mark.parametrize("qi", range(len(QUERIES)))
def test_rank_identity(qi, engine_results, oracle_results):
    o = oracle_results[f"q{qi}"]
    got = engine_results[f"q{qi}"]
    g = list(
        zip(
            got.column("repo").to_pylist(),
            got.column("path").to_pylist(),
            got.column("score").to_pylist(),
        )
    )
    assert len(o) == len(g), (QUERIES[qi], len(o), len(g))
    for a, b in zip(o, g):
        assert a[0] == b[0] and a[1] == b[1], (QUERIES[qi], a, b)
        assert a[2] == b[2], (QUERIES[qi], a, b)  # bit-equal f64


def test_determinism(built_index):
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(built_index[0])
    r1 = rd.search("error AND handling", k=10)
    r2 = rd.search("error AND handling", k=10)
    assert r1.equals(r2)


def test_sha256_invariant(built_index, corpus_rows):
    """Per-row invariant: sha256(content) in docstats == source table."""
    expected = {}
    t = corpus_rows
    for repo, path, content in zip(
        t.column("repo").to_pylist(),
        t.column("path").to_pylist(),
        t.column("content").to_pylist(),
    ):
        expected[(repo, path)] = hashlib.sha256(content.encode()).hexdigest()
    seen = 0
    for f in glob.glob(os.path.join(built_index[0], "waves", "*", "docstats", "*.parquet")):
        d = pq.read_table(f)
        for repo, path, sha in zip(
            d.column("repo").to_pylist(),
            d.column("path").to_pylist(),
            d.column("sha256").to_pylist(),
        ):
            assert expected[(repo, path)] == sha
            seen += 1
    assert seen == t.num_rows


def test_manifest_metrics(built_index, corpus_rows):
    manifest = built_index[1]
    assert manifest["n_docs"] == corpus_rows.num_rows
    assert manifest["avgdl"] > 0
    # per-wave doc counts sum to total (lineage metrics)
    assert sum(w["n_docs"] for w in manifest["waves"]) == manifest["n_docs"]
    for w in manifest["waves"]:
        assert w["status"] == "done" and w["fragments"]
    # the dictionary stage is timed into the manifest, not printed
    assert 0 <= manifest["dictionary_s"] <= manifest["build_seconds"]


def test_resume_skips_done_waves(ray_session, small_corpus, tmp_path):
    """Kill the build after 1 wave; re-run; index must match a clean build
    (FIXTURES.md SS6)."""
    from probe_ray.index.build import IndexConfig, build_index

    cfg = IndexConfig(num_waves=2, subshards=2)
    d1 = str(tmp_path / "idx_resume")
    with pytest.raises(RuntimeError, match="injected failure"):
        build_index([small_corpus], d1, cfg, fail_after_wave=1)
    # wave 0 done, wave 1 missing
    wm0 = json.load(open(os.path.join(d1, "waves", "w0000", "wave_manifest.json")))
    assert wm0["status"] == "done"
    assert not os.path.exists(os.path.join(d1, "manifest.json"))
    # mark wave-0 postings mtimes to prove they are not rebuilt
    pfiles = glob.glob(os.path.join(d1, "waves", "w0000", "postings", "*.parquet"))
    mtimes = {f: os.path.getmtime(f) for f in pfiles}
    m1 = build_index([small_corpus], d1, cfg)
    for f, t0 in mtimes.items():
        assert os.path.getmtime(f) == t0, "done wave was rebuilt"
    d2 = str(tmp_path / "idx_clean")
    m2 = build_index([small_corpus], d2, cfg)
    assert m1["n_docs"] == m2["n_docs"] and m1["n_tokens"] == m2["n_tokens"]
    # posting payloads byte-identical between resumed and clean builds
    for w in ("w0000", "w0001"):
        t1 = _postings_sorted(os.path.join(d1, "waves", w, "postings"))
        t2 = _postings_sorted(os.path.join(d2, "waves", w, "postings"))
        assert t1.equals(t2)


def test_index_files_match_loop_tokenize(ray_session, small_corpus, tmp_path, monkeypatch):
    """An index built through the flat-array TokenizePartial is byte-
    identical, file for file, to one built through the per-(doc, term)
    list loop it replaced (2 waves x 3 subshards, several batches per
    read block, so terms carry runs from many batches)."""
    from legacy_tokenize import legacy_tokenize_partial

    from probe_ray.index import build

    cfg = build.IndexConfig(num_waves=2, subshards=3, tokenize_batch_size=64)
    new_dir, old_dir = str(tmp_path / "new"), str(tmp_path / "old")
    build.build_index([small_corpus], new_dir, cfg)
    monkeypatch.setattr(build, "TokenizePartial", legacy_tokenize_partial())
    build.build_index([small_corpus], old_dir, cfg)

    def index_files(root):
        pats = [
            os.path.join("waves", "*", sub, "*")
            for sub in ("docstats", "postings", "units", "units_grams", "docs")
        ] + [os.path.join("dict", "*")]
        return sorted(
            os.path.relpath(f, root)
            for pat in pats
            for f in glob.glob(os.path.join(root, pat))
        )

    files = index_files(new_dir)
    assert files == index_files(old_dir)
    assert len(files) == 2 * 3 * 5 + 2  # every segment file + dict + marker
    for rel in files:
        with open(os.path.join(new_dir, rel), "rb") as a, open(
            os.path.join(old_dir, rel), "rb"
        ) as b:
            assert a.read() == b.read(), rel


def _postings_sorted(d):
    import pyarrow.dataset as pads

    t = pads.dataset(sorted(glob.glob(os.path.join(d, "*.parquet")))).to_table()
    return t.sort_by([("subshard", "ascending"), ("term", "ascending")])


def test_block_max_pruning_exact(built_index, corpus_rows):
    """Force the hot-term path (HOT_DF=1 -> every term hot) and check
    results stay identical to the default path."""
    import probe_ray.search.searcher as se

    rd = se.IndexReader(built_index[0])
    base = rd.search("error handling process data", k=10)
    old = se.HOT_DF
    se.HOT_DF = 1
    try:
        pruned = rd.search("error handling process data", k=10)
    finally:
        se.HOT_DF = old
    assert base.equals(pruned)
