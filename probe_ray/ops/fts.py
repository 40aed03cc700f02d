"""Fulltext pipelines over the testdata ``documents`` table.

Maps documents into the canonical code-table shape
(repo, path, commit, lang, content) per BASELINE.json input_hint, builds
the inverted index once per sf_dir (cached under /tmp), and exposes
search + index-introspection operators for the driver's correctness gate."""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pyarrow as pa

from probe_ray.index.build import IndexConfig, build_index, doc_hash64
from probe_ray.search.searcher import IndexReader

CACHE_ROOT = "/tmp/probe_ray_cache"


def _cache_dir(sf_dir: str) -> str:
    key = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
    return os.path.join(CACHE_ROOT, key)


def corpus_parquet(sf_dir: str) -> str:
    """documents -> (repo, path, commit, lang, content) parquet, cached."""
    import ray.data

    out = os.path.join(_cache_dir(sf_dir), "corpus")
    marker = os.path.join(out, "_done")
    if os.path.exists(marker):
        return out

    def fn(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        sources = batch.column("source").to_pylist()
        langs = batch.column("lang").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "repo": pa.array(sources, pa.string()),
                "path": pa.array(
                    [f"{s}/doc_{d:08d}.txt" for s, d in zip(sources, doc_ids)],
                    pa.string(),
                ),
                "commit": pa.array(
                    [hashlib.sha1(s.encode()).hexdigest() for s in sources],
                    pa.string(),
                ),
                "lang": pa.array(langs, pa.string()),
                "content": pa.array(texts, pa.string()),
            }
        )

    os.makedirs(out, exist_ok=True)
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet").map_batches(
        fn, batch_format="pyarrow"
    )
    # small row groups => the scan path's reads split across CPUs
    ds.write_parquet(out, row_group_size=2048)
    open(marker, "w").close()
    return out


def code_corpus_parquet(sf_dir: str) -> str:
    """Deterministic synthetic source-code table in the BASELINE.json
    input_hint shape (repo, path, commit, lang, content), scaled to the
    sf_dir's documents row count and cached under /tmp.

    The code-flavored reference query set (camelCase identifiers, stop
    words as syntax, quoted exacts) is vacuous against the documents
    table's 31-word English vocabulary; this corpus — the same generator
    the in-repo bit-equal rank-identity suite uses — gives every
    reference query shape real hits in driver-visible results."""
    import shutil

    import pyarrow.parquet as pq

    from probe_ray.data.synth import CORPUS_VERSION, write_corpus

    out = os.path.join(_cache_dir(sf_dir), f"code_corpus_v{CORPUS_VERSION}")
    marker = os.path.join(out, "_done")
    if os.path.exists(marker):
        return out
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    from probe_ray.ops.dedup import _n_docs

    n_docs = _n_docs(sf_dir)
    write_corpus(out, max(1000, 4 * n_docs), num_files=8)
    with open(marker, "w") as f:
        f.write(str(CORPUS_VERSION))
    return out


def _ensure_index_at(corpus: str, idx: str) -> str:
    import json
    import shutil

    from probe_ray import ENGINE_VERSION

    mpath = os.path.join(idx, "manifest.json")
    if os.path.exists(mpath):
        with open(mpath) as f:
            m = json.load(f)
        if m.get("version") == 2 and m.get("engine_version") == ENGINE_VERSION:
            return idx
        shutil.rmtree(idx, ignore_errors=True)
    build_index([corpus], idx, IndexConfig(num_waves=2, subshards=4))
    return idx


def ensure_index(sf_dir: str) -> str:
    return _ensure_index_at(
        corpus_parquet(sf_dir), os.path.join(_cache_dir(sf_dir), "index")
    )


def ensure_code_index(sf_dir: str) -> str:
    from probe_ray.data.synth import CORPUS_VERSION

    return _ensure_index_at(
        code_corpus_parquet(sf_dir),
        os.path.join(_cache_dir(sf_dir), f"code_index_v{CORPUS_VERSION}"),
    )


REFERENCE_QUERIES = {
    "single_term": "setTools",
    "and": "error AND handling",
    "or_chain": "login OR authentication OR auth",
    "grouped": "(error OR exception) AND (handle OR process)",
    "excluded": "database -sqlite",
    "required": "+api +process load",
    "and_pair": "ip AND whitelist",
    # quoted terms are kept verbatim and matched against stemmed tokens
    # (reference query.rs:81-199 + file_processing.rs:202-279), so only
    # stem-identity words can hit — quoted camelCase with a divergent stem
    # (e.g. "JWTMiddleware") returns 0 by reference semantics and is
    # pinned in tests/test_engine_e2e.py instead of here
    "quoted_exact": '"whitelist"',
    # two hot special terms: most of the corpus holds a unit that
    # re-tokenizes under them, so this is the hybrid path's largest
    # candidate fan-out (the exhaustive scan only past SCAN_FALLBACK_ABS)
    "quoted_with_negative": '"hashmap" -database',
    # realistic-selectivity DYNAMIC quoted term (a RARE corpus marker,
    # ~0.5% of docs): candidate discovery via unit postings + a small
    # doc-store fan-out on the warm actors — the path a real user's
    # quoted identifier takes
    "quoted_rare_dynamic": '"karatsuba"',
    "camel_compound": "RPCStorageHandler",
    "camel_exception": "enableFirewallWhitelist",
    "determinism_stressor": "yaml workflow agent multi-agent user input",
    "generic": "keyword",
    "empty_result": "nonexistent_xyz",
}

# documents-table-flavored queries: every query shape again, phrased in
# the documents table's known vocabulary so each (except the negative
# control) returns rows in driver-visible results
DOC_QUERIES = {
    "docs_single": "vector",
    "docs_and": "hash AND join",
    "docs_or": "scan OR filter OR sort",
    "docs_grouped": "(hash OR merge) AND (join OR sort)",
    "docs_required": "+table +row merge",
    "docs_excluded": "customer -window",
    "docs_quoted_exact": '"batch"',
    "docs_quoted_with_negative": '"batch" -dup',
    "docs_rare_idf": "dup",
}


_READER_CACHE: dict[str, IndexReader] = {}


def _reader(idx: str) -> IndexReader:
    """One IndexReader (and its persistent query actor pool) per index —
    repeated queries() calls reuse warm actors instead of paying pool
    startup per query."""
    rd = _READER_CACHE.get(idx)
    if rd is None:
        rd = IndexReader(idx)
        _READER_CACHE[idx] = rd
    return rd


def close_readers() -> None:
    """Kill the cached readers' actor pools, releasing their reserved
    CPUs back to Dataset jobs. Call when done querying (tests, tools) —
    each cached pool holds up to max(2, cpus // 2) actors of 0.5 CPU."""
    for rd in _READER_CACHE.values():
        rd.close()
    _READER_CACHE.clear()


def fts_search(sf_dir: str, name: str, k: int = 10) -> pa.Table:
    """REFERENCE_QUERIES run against the synthetic code-table index
    (their vocabulary), DOC_QUERIES against the documents-table index."""
    if name in REFERENCE_QUERIES:
        return _reader(ensure_code_index(sf_dir)).search(
            REFERENCE_QUERIES[name], k=k
        )
    return _reader(ensure_index(sf_dir)).search(DOC_QUERIES[name], k=k)


def fts_search_all(sf_dir: str, k: int = 10) -> dict[str, pa.Table]:
    out = _reader(ensure_code_index(sf_dir)).search_many(REFERENCE_QUERIES, k=k)
    out.update(_reader(ensure_index(sf_dir)).search_many(DOC_QUERIES, k=k))
    return out


# block-granularity search over the code corpus (search/blocks.py —
# line-heuristic context windows + node-type boosts); rows-only checks
BLOCK_QUERIES = {
    "blocks_single": "setTools",
    "blocks_and": "error AND handling",
    "blocks_camel": "RPCStorageHandler",
    "blocks_quoted": '"whitelist"',
    "blocks_excluded": "database -sqlite",
}


def fts_search_blocks(sf_dir: str, name: str, k: int = 10) -> pa.Table:
    import glob as _glob

    from probe_ray.search.blocks import search_blocks

    idx = ensure_code_index(sf_dir)
    corpus = code_corpus_parquet(sf_dir)
    files = sorted(_glob.glob(os.path.join(corpus, "*.parquet")))
    t = search_blocks(_reader(idx), files, BLOCK_QUERIES[name], k=k)
    return t.drop_columns(["code"])  # stable, compact driver surface


def fts_search_blocks_merged(sf_dir: str, k: int = 10) -> pa.Table:
    """Block search with the reference's post-rank merge pass
    (block_merging.rs:18-168 — search/blocks.py merge_ranked_blocks):
    overlapping / within-threshold blocks of the same file collapse with
    score = max and gap fill from the file content. Rows-only; merge
    semantics pinned by tests/test_block_merging.py."""
    import glob as _glob

    from probe_ray.search.blocks import search_blocks

    idx = ensure_code_index(sf_dir)
    corpus = code_corpus_parquet(sf_dir)
    files = sorted(_glob.glob(os.path.join(corpus, "*.parquet")))
    t = search_blocks(
        _reader(idx), files, BLOCK_QUERIES["blocks_and"], k=k,
        merge_threshold=5,
    )
    return t.drop_columns(["code"])


def fts_search_blocks_balanced(sf_dir: str, k: int = 10) -> pa.Table:
    """Block search with opt-in balanced node extents (the AST-path
    approximation — search/blocks.py _balanced_extent): matched windows
    widen to their enclosing declaration's balanced extent. Rows-only;
    extent semantics pinned by tests/test_blocks.py."""
    import glob as _glob

    from probe_ray.search.blocks import search_blocks

    idx = ensure_code_index(sf_dir)
    corpus = code_corpus_parquet(sf_dir)
    files = sorted(_glob.glob(os.path.join(corpus, "*.parquet")))
    t = search_blocks(
        _reader(idx), files, BLOCK_QUERIES["blocks_and"], k=k,
        node_extent="balanced",
    )
    return t.drop_columns(["code"])


def fts_search_blocks_reranked(sf_dir: str, k: int = 10) -> pa.Table:
    """Block search re-scored by the cross-encoder actor-pool stage
    (deterministic stand-in model — search/rerank.py)."""
    import glob as _glob

    from probe_ray.search.blocks import search_blocks
    from probe_ray.search.rerank import rerank

    idx = ensure_code_index(sf_dir)
    corpus = code_corpus_parquet(sf_dir)
    files = sorted(_glob.glob(os.path.join(corpus, "*.parquet")))
    q = BLOCK_QUERIES["blocks_and"]
    t = search_blocks(_reader(idx), files, q, k=k)
    return rerank(t, q).drop_columns(["code"])


def fts_pattern_query(sf_dir: str) -> pa.Table:
    """Pattern-query lite over the code corpus (search/pattern.py):
    `fn $NAME` — rows-only; semantics pinned by tests/test_pattern.py."""
    from probe_ray.search.pattern import query_pattern

    corpus = code_corpus_parquet(sf_dir)
    files = sorted(glob.glob(os.path.join(corpus, "*.parquet")))
    return query_pattern(files, "fn $NAME", max_results=200)


def fts_extract(sf_dir: str) -> pa.Table:
    """`probe extract` analog (search/extract.py) over the code corpus:
    whole-file, line-range, line+context and #symbol specs against the
    three lexicographically-first corpus paths — deterministic, rows-only
    (line extraction semantics are pinned by tests/test_extract.py)."""
    import pyarrow.dataset as pads

    from probe_ray.search.extract import extract

    corpus = code_corpus_parquet(sf_dir)
    files = sorted(glob.glob(os.path.join(corpus, "*.parquet")))
    first = (
        pads.dataset(files)
        .to_table(columns=["repo", "path"])
        .sort_by([("repo", "ascending"), ("path", "ascending")])
        .column("path")
        .to_pylist()[:3]
    )
    specs = [
        first[0],  # whole file
        f"{first[1]}:2-4",  # line range
        f"{first[2]}:3",  # single line + context
        f"{first[0]}#salt",  # symbol text-search (every doc has a salt token)
    ]
    return extract(files, specs, context_lines=2)


def fts_extract_docs(sf_dir: str) -> pa.Table:
    """Extract over the documents-derived corpus — SQL-expressible, so
    this entry carries a DuckDB value-hash oracle: whole-file, line-1
    context, and #symbol (first doc containing 'dup') specs."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from probe_ray.search.extract import extract

    corpus = corpus_parquet(sf_dir)
    files = sorted(glob.glob(os.path.join(corpus, "*.parquet")))
    dset = pads.dataset(files)
    t = dset.to_table(columns=["path", "content"])
    paths = sorted(t.column("path").to_pylist())
    p0, p1 = paths[0], paths[1]
    # first (lexicographically, == lowest doc_id per source formatting)
    # doc whose content contains 'dup'
    has_dup = t.filter(
        pc.match_substring(t.column("content"), "dup")
    ).column("path").to_pylist()
    specs = [p0, f"{p1}:1"]
    if has_dup:
        specs.append(f"{min(has_dup)}#dup")
    return extract(files, specs, context_lines=0)


def corpus_sha256(sf_dir: str) -> pa.Table:
    """Per-row invariant surface: (path, sha256) straight from the index's
    docstats — compared by the driver against sha256(text) in SQL."""
    import pyarrow.parquet as pq

    idx = ensure_index(sf_dir)
    tables = []
    for f in sorted(
        glob.glob(os.path.join(idx, "waves", "*", "docstats", "*.parquet"))
    ):
        tables.append(pq.read_table(f, columns=["path", "sha256"]))
    t = pa.concat_tables(tables)
    return t.sort_by([("path", "ascending")])


def index_doc_stats(sf_dir: str) -> pa.Table:
    """(n_docs, n_distinct_sha) from the index — SQL-checkable."""
    import pyarrow.parquet as pq

    idx = ensure_index(sf_dir)
    shas = []
    n = 0
    for f in sorted(
        glob.glob(os.path.join(idx, "waves", "*", "docstats", "*.parquet"))
    ):
        t = pq.read_table(f, columns=["sha256"])
        n += t.num_rows
        shas.extend(t.column("sha256").to_pylist())
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "n_distinct_sha": pa.array([len(set(shas))], pa.int64()),
        }
    )


def term_df_topk(sf_dir: str, k: int = 20) -> pa.Table:
    """Top-k document-frequency terms over the documents-table index."""
    return term_df_topk_from_index(ensure_index(sf_dir), k)


def term_df_topk_from_index(idx: str, k: int = 20) -> pa.Table:
    """Top-k document-frequency terms: (term, df), ties broken by term asc.

    Reads the build's global sorted dictionary (``dict/*.parquet``,
    columns term+df already aggregated — index/build.py:603) one row
    group at a time, keeping a running vectorized top-k: bounded memory
    regardless of vocabulary size, and no postings file is touched."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    best: pa.Table | None = None
    for f in sorted(glob.glob(os.path.join(idx, "dict", "*.parquet"))):
        pf = pq.ParquetFile(f)
        for rg in range(pf.num_row_groups):
            t = pf.read_row_group(rg, columns=["term", "df"])
            cand = t if best is None else pa.concat_tables([best, t])
            order = pc.sort_indices(
                cand,
                sort_keys=[("df", "descending"), ("term", "ascending")],
            )
            best = cand.take(order.slice(0, k))
    if best is None:
        return pa.table(
            {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
        )
    return pa.table(
        {
            "term": best.column("term"),
            "df": best.column("df").cast(pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# Hybrid retrieval: BM25 (inverted index) + embedding cosine (brute-force
# over the aligned embeddings table), fused with Reciprocal Rank Fusion
# (RRF, Cormack et al. 2009: score = sum 1/(C + rank)). The dense side's
# query vector is the embedding of the BM25 top hit, so the whole pipeline
# is deterministic with no model in the environment. doc_id <-> vec_id are
# aligned by construction of the testdata tables.

RRF_C = 60


def _doc_id_from_path(path: str) -> int:
    # corpus_parquet writes path = f"{source}/doc_{doc_id:08d}.txt"
    return int(path.rsplit("doc_", 1)[1].split(".")[0])


def _cosine_topk_single(sf_dir: str, query_vec_id: int, k: int) -> list[int]:
    """vec_ids of the k nearest (cosine) embeddings to one stored vector —
    pushdown read for the query row, streaming per-batch matmul + top-k,
    bounded driver merge (<= k rows per block)."""
    import pyarrow.dataset as pads

    from probe_ray.ops.ann import _list_matrix, _read_embeddings

    qt = pads.dataset(f"{sf_dir}/embeddings.parquet").to_table(
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id") == query_vec_id,
    )
    q = _list_matrix(qt.column("embedding"))[0]
    q = q / np.linalg.norm(q)

    def fn(batch: pa.Table) -> pa.Table:
        vec_ids = batch.column("vec_id").to_numpy().astype(np.int64)
        m = _list_matrix(batch.column("embedding"))
        sims = (m / np.linalg.norm(m, axis=1, keepdims=True)) @ q
        kk = min(k, sims.size)
        part = np.argpartition(-sims, kk - 1)[:kk]
        return pa.table(
            {
                "vec_id": pa.array(vec_ids[part], pa.int64()),
                "sim": pa.array(sims[part], pa.float64()),
            }
        )

    rows = (
        _read_embeddings(sf_dir)
        .map_batches(fn, batch_format="pyarrow")
        .take_all()
    )
    ranked = sorted(rows, key=lambda r: (-r["sim"], r["vec_id"]))[:k]
    return [int(r["vec_id"]) for r in ranked]


def hybrid_rrf_search(
    sf_dir: str, query: str = "hash AND join", k: int = 10, fetch_k: int = 50
) -> pa.Table:
    """Top-k documents by RRF over (BM25 rank, cosine rank). Output
    (rank, doc_id, rrf_milli, in_bm25, in_ann); rrf in integer milli-units
    so the row hash is float-format independent. Ties break on doc_id."""
    bm25 = _reader(ensure_index(sf_dir)).search(query, k=fetch_k)
    bm_ids = [_doc_id_from_path(p) for p in bm25.column("path").to_pylist()]
    if not bm_ids:
        return pa.table(
            {
                "rank": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "rrf_milli": pa.array([], pa.int64()),
                "in_bm25": pa.array([], pa.int8()),
                "in_ann": pa.array([], pa.int8()),
            }
        )
    ann_ids = _cosine_topk_single(sf_dir, bm_ids[0], fetch_k)
    # integer micro-unit RRF partials keep the fused score exact and
    # platform-independent: 10^9 // (C + rank)
    score: dict[int, int] = {}
    flags: dict[int, list] = {}
    for rank, d in enumerate(bm_ids, 1):
        score[d] = score.get(d, 0) + 1_000_000_000 // (RRF_C + rank)
        flags.setdefault(d, [0, 0])[0] = 1
    for rank, d in enumerate(ann_ids, 1):
        score[d] = score.get(d, 0) + 1_000_000_000 // (RRF_C + rank)
        flags.setdefault(d, [0, 0])[1] = 1
    fused = sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return pa.table(
        {
            "rank": pa.array(range(1, len(fused) + 1), pa.int64()),
            "doc_id": pa.array([d for d, _ in fused], pa.int64()),
            "rrf_milli": pa.array([s // 1000 for _, s in fused], pa.int64()),
            "in_bm25": pa.array([flags[d][0] for d, _ in fused], pa.int8()),
            "in_ann": pa.array([flags[d][1] for d, _ in fused], pa.int8()),
        }
    )


# ---------------------------------------------------------------------------
# Index-lifecycle pipelines (rows-only driver entries): the sharded-build
# federation and the document-update (upsert) flow. Both are the index
# MAINTENANCE story at 100 TB — build shards independently, never rebuild
# the world to add a tenant or update a document.
# ---------------------------------------------------------------------------

# non-special-term query subset: FederatedReader covers the full
# boolean/BM25 surface but special-term (quoted/excluded) queries are
# per-index candidate machinery and raise by contract
FEDERATED_QUERIES = ("single_term", "and", "or_chain", "grouped", "required")


def _hash_parity_keep(batch: pa.Table, part: int) -> pa.Table:
    """The rows of ``batch`` whose (repo, path) hash has parity ``part``
    — one member's shard of the two-way federated corpus."""
    m = [
        doc_hash64(r, p) % 2 == part
        for r, p in zip(
            batch.column("repo").to_pylist(), batch.column("path").to_pylist()
        )
    ]
    return batch.filter(pa.array(m, pa.bool_()))


def fts_federated_search(sf_dir: str, k: int = 10) -> pa.Table:
    """Shard the code corpus into two member indexes by doc-hash parity,
    build each INDEPENDENTLY, then search through ``FederatedReader``
    with federation-global statistics — and assert the merged top-k is
    bit-identical to the monolithic index over the union corpus (the
    invariant tests/test_federated.py pins at unit scale). Output: one
    (qname, rank, score, repo, path, sha256) row per result.

    Reference analog: probe searches one repo root per invocation
    (src/search/search_runner.rs); multi-root = multiple invocations.
    Here the shard layout is a first-class reader."""
    import shutil

    import ray

    from probe_ray.data.synth import CORPUS_VERSION
    from probe_ray.search.searcher import FederatedReader

    corpus = code_corpus_parquet(sf_dir)
    members = []
    for part in (0, 1):
        frag = os.path.join(
            _cache_dir(sf_dir), f"fed_corpus{part}_v{CORPUS_VERSION}"
        )
        member = os.path.join(_cache_dir(sf_dir), f"fed_m{part}_v{CORPUS_VERSION}")
        marker = os.path.join(frag, "_done")
        if not os.path.exists(marker):
            # a fragment without its marker is a partial write: redo it,
            # and the member index that may have been built over it
            shutil.rmtree(frag, ignore_errors=True)
            shutil.rmtree(member, ignore_errors=True)
            ray.data.read_parquet(corpus).map_batches(
                _hash_parity_keep,
                fn_kwargs={"part": part},
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).write_parquet(frag)
            open(marker, "w").close()
        members.append(_ensure_index_at(frag, member))

    mono = _reader(ensure_code_index(sf_dir))
    fed = FederatedReader(members)
    try:
        out = []
        for qname in FEDERATED_QUERIES:
            got = fed.search(REFERENCE_QUERIES[qname], k=k)
            want = mono.search(REFERENCE_QUERIES[qname], k=k)
            if not got.equals(want):  # the federation invariant, live
                raise AssertionError(
                    f"federated != monolithic for {qname!r}"
                )
            out.append(
                got.append_column(
                    "qname", pa.array([qname] * got.num_rows)
                )
            )
    finally:
        fed.close()
    return pa.concat_tables(out)


UPSERT_MARKER = "upsertmarkeralpha"


def _upsert_workspace(sf_dir: str) -> tuple[str, str, str, list[str]]:
    """Build the upsert scenario: a private copy of the cached base
    index (tombstones mutate their member), a deterministic delta
    fragment rewriting two existing documents plus one insert, and the
    delta index via ``upsert_segment`` (delta built FIRST, tombstones
    second — crash-safe ordering). Returns (work, base, delta,
    expected_marker_paths)."""
    import shutil

    import pyarrow.dataset as pads
    import pyarrow.parquet as _pq

    from probe_ray.index.upsert import upsert_segment

    work = os.path.join(_cache_dir(sf_dir), "upsert_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    base = os.path.join(work, "base")
    shutil.copytree(ensure_code_index(sf_dir), base)

    # deterministic fragment: keys only (content is replaced), no
    # content-column read of the corpus
    corpus = code_corpus_parquet(sf_dir)
    keys = (
        pads.dataset(corpus)
        .to_table(columns=["repo", "path", "commit", "lang"])
        .sort_by([("repo", "ascending"), ("path", "ascending")])
    )
    rows = [keys.slice(3, 1).to_pylist()[0], keys.slice(17, 1).to_pylist()[0]]
    frag_rows = []
    for r in rows:
        r = dict(r)
        r["content"] = f"def rewritten_handler():\n    return {UPSERT_MARKER}\n"
        r["commit"] = "upsert1"
        frag_rows.append(r)
    insert = dict(keys.slice(0, 1).to_pylist()[0])
    insert["path"] = "brand/new_upserted.py"
    insert["content"] = f"class BrandNew:\n    flag = {UPSERT_MARKER}\n"
    insert["commit"] = "upsert1"
    frag_rows.append(insert)
    frag = os.path.join(work, "delta.parquet")
    _pq.write_table(pa.Table.from_pylist(frag_rows), frag)

    delta = os.path.join(work, "delta_idx")
    upsert_segment([base], frag, delta)
    return work, base, delta, sorted(r["path"] for r in frag_rows)


def _marker_search(members: list[str], scope: str, k: int) -> pa.Table:
    from probe_ray.search.searcher import FederatedReader

    fed = FederatedReader(members, tombstone_scope=scope)
    try:
        return fed.search(UPSERT_MARKER, k=k)
    finally:
        fed.close()


def fts_upsert_lifecycle(sf_dir: str, k: int = 10) -> pa.Table:
    """The full document-update lifecycle as one driver-visible
    pipeline (index/upsert.py): see ``_upsert_workspace``; then search
    the federation with member-scoped tombstones. Exactly the three new
    versions must be visible under the marker term; the result table is
    the proof."""
    _work, base, delta, want_paths = _upsert_workspace(sf_dir)
    got = _marker_search([base, delta], "member", max(k, 10))
    if sorted(got.column("path").to_pylist()) != want_paths:
        raise AssertionError(
            f"upsert visibility mismatch: {got.column('path').to_pylist()}"
        )
    return got


def fts_compact_lifecycle(sf_dir: str, k: int = 10) -> pa.Table:
    """Segment-merge maintenance, the second half of the update
    lifecycle: after the upsert, ``compact_index`` rebuilds the base
    member from its recorded corpus with the tombstoned old versions
    dropped at tokenize time (exact stats over survivors, no tombstones
    file left). The marker search over [compacted, delta] must show the
    same three documents as the tombstone-masked federation — deletes
    reclaimed, visibility unchanged."""
    from probe_ray.index.build import compact_index

    work, base, delta, want_paths = _upsert_workspace(sf_dir)
    masked = _marker_search([base, delta], "member", max(k, 10))
    compacted = os.path.join(work, "base_compacted")
    compact_index(base, compacted)
    got = _marker_search([compacted, delta], "member", max(k, 10))
    if sorted(got.column("path").to_pylist()) != want_paths:
        raise AssertionError(
            f"post-compaction visibility mismatch: "
            f"{got.column('path').to_pylist()}"
        )
    if got.column("path").to_pylist() != masked.column("path").to_pylist():
        raise AssertionError("compaction changed result ordering")
    return got
