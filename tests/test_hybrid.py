"""Hybrid special-term path vs exhaustive scan path: bit-equal results.

The hybrid path (search/hybrid.py) must return tables identical to
scan.scan_search_many for every special-term query shape, including the
edge cases that make naive candidate generation unsound:

  - stem collision WITHOUT substring: "happy" stems to "happi", so a doc
    containing only "happy" has token "happi" but not the substring —
    it must be served by the index side (posting tf), not assumed tf=0.
  - in-document negation: "--whitelist" suppresses the stem from the
    token list in BOTH tokenization contexts.
  - camel-part specials: "MyWhitelistThing" fires the special check on a
    camel part, changing that doc's tokenization.
  - avgdl/df shift: a special term that keeps a compound word whole
    changes doc_len for candidate docs, which shifts avgdl/idf for every
    OTHER doc's score in the same query.
  - inactive specials: quoted phrases with spaces/underscores can never
    match an alnum unit; the query runs as a pure index query.
"""

import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


ROWS = [
    ("r1", "a/happy.py", "py", "the happy developer wrote happy code quickly"),
    ("r1", "a/wl.py", "py", "whitelist logic for stream processing pipeline"),
    ("r1", "b/camel.rs", "rs", "MyWhitelistThing handles WhiteList and stream input"),
    ("r1", "b/flag.rs", "rs", "--whitelist flag enables Whitelist mode for admin"),
    ("r2", "c/stream.py", "py", "stream stream join merge window batch"),
    ("r2", "c/many.py", "py", "whitelists are whitelisted everywhere in filter"),
    ("r2", "d/misc.rs", "rs", "alpha beta gamma delta merge"),
    ("r2", "d/uscore.rs", "rs", "hash map foo_bar baz stream"),
]

QUERIES = {
    "stem_collision": '"happi"',
    "quoted_hit": '"whitelist"',
    "quoted_or": '"whitelist" OR stream',
    "quoted_and": 'stream AND "whitelist"',
    "excluded": "stream -whitelist",
    "only_excluded": "-whitelist",
    "quoted_neg": '"whitelist" -stream',
    "quoted_case": '"WhiteList"',
    "quoted_plural": '"whitelists"',
    "underscore": '"foo_bar"',
    "phrase_space": '"whitelist stream"',
    "quoted_merge": '"merge" OR alpha',
}


@pytest.fixture(scope="module")
def edge_index(ray_session, tmp_path_factory):
    from probe_ray.index.build import IndexConfig, build_index

    d = tmp_path_factory.mktemp("hybrid_corpus")
    t = pa.table(
        {
            "repo": pa.array([r[0] for r in ROWS]),
            "path": pa.array([r[1] for r in ROWS]),
            "commit": pa.array(["c0"] * len(ROWS)),
            "lang": pa.array([r[2] for r in ROWS]),
            "content": pa.array([r[3] for r in ROWS]),
        }
    )
    pq.write_table(t.slice(0, 4), str(d / "part0.parquet"), row_group_size=2)
    pq.write_table(t.slice(4), str(d / "part1.parquet"), row_group_size=2)
    idx = str(tmp_path_factory.mktemp("hybrid_index"))
    shutil.rmtree(idx, ignore_errors=True)
    build_index([str(d)], idx, IndexConfig(num_waves=2, subshards=2))
    return idx


def _as_rows(t: pa.Table):
    return list(
        zip(
            t.column("rank").to_pylist(),
            t.column("score").to_pylist(),
            t.column("repo").to_pylist(),
            t.column("path").to_pylist(),
            t.column("sha256").to_pylist(),
        )
    )


@pytest.mark.parametrize("qname", sorted(QUERIES))
def test_hybrid_equals_scan(qname, edge_index):
    from probe_ray.search.scan import scan_search_many
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(edge_index)
    try:
        q = QUERIES[qname]
        got = rd.search_many({qname: q}, k=10)[qname]
        want = scan_search_many(
            rd.manifest["input_files"], {qname: q}, k=10
        )[qname]
        assert _as_rows(got) == _as_rows(want), qname
        # non-vacuity: every shape except the verbatim-unmatchable ones
        # must return hits on this corpus (quoted_plural: "whitelists"
        # stems to "whitelist", so the verbatim keyword never matches —
        # reference stem-divergence semantics; quoted_case: the keyword
        # keeps its verbatim case while doc tokens are lowercased, so
        # "WhiteList" matches nothing — scalar oracle agrees)
        if qname not in (
            "phrase_space", "underscore", "quoted_case", "quoted_plural"
        ):
            assert got.num_rows > 0, qname
    finally:
        rd.close()


def test_hybrid_batched_queries_equal_scan(edge_index):
    """All shapes in ONE search_many call (shared candidate pass)."""
    from probe_ray.search.scan import scan_search_many
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(edge_index)
    try:
        got = rd.search_many(dict(QUERIES), k=10)
        want = scan_search_many(
            rd.manifest["input_files"], dict(QUERIES), k=10
        )
        for qname in QUERIES:
            assert _as_rows(got[qname]) == _as_rows(want[qname]), qname
    finally:
        rd.close()


def test_scan_fallback_threshold(edge_index, monkeypatch):
    """Degenerate candidate sets route to the exhaustive scan and still
    return identical results."""
    import probe_ray.search.hybrid as H
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(edge_index)
    try:
        base = rd.search_many({"q": '"whitelist" OR stream'}, k=10)["q"]
        monkeypatch.setattr(H, "SCAN_FALLBACK_ABS", 0)
        fb = rd.search_many({"q": '"whitelist" OR stream'}, k=10)["q"]
        assert _as_rows(base) == _as_rows(fb)
    finally:
        rd.close()


def test_exact_mode_whole_query_term(edge_index):
    """--exact (cli.rs:43, update_ast_exact query.rs:230-245): the whole
    query becomes ONE verbatim (case-insensitively lowercased) term."""
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(edge_index)
    try:
        # exact 'whitelist' == quoted '"whitelist"': same dynamic special
        # term, same ranking
        exact = rd.search("whitelist", k=10, exact=True)
        quoted = rd.search('"whitelist"', k=10)
        assert exact.num_rows > 0
        assert _as_rows(exact) == _as_rows(quoted)
        # divergent-stem exact query: the verbatim keyword
        # 'MyWhitelistThing' never equals the stemmed whole token
        # 'mywhitelistth' (reference: verbatim keyword vs stemmed tokens,
        # special-case fallback checks term.lower() in tokens) -> 0 rows,
        # while the tokenized query matches
        assert rd.search("MyWhitelistThing", k=10).num_rows > 0
        assert rd.search("MyWhitelistThing", k=10, exact=True).num_rows == 0
        # a multi-word exact term contains a space -> can never match a
        # tokenizer unit (reference: verbatim keyword vs alnum-run tokens)
        assert rd.search("whitelist stream", k=10, exact=True).num_rows == 0
    finally:
        rd.close()


def test_exclude_filenames(edge_index):
    """--exclude-filenames (cli.rs:31): path tokens contribute neither
    matches nor scores; routed to the content-only scan path."""
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(edge_index)
    try:
        # "misc" occurs ONLY in the path d/misc.rs
        assert rd.search("misc", k=10).num_rows == 1
        assert rd.search("misc", k=10, exclude_filenames=True).num_rows == 0
        # content terms still match without filename tokens
        got = rd.search("alpha", k=10, exclude_filenames=True)
        assert got.column("path").to_pylist() == ["d/misc.rs"]
        # special-term queries run the same content-only path
        sp = rd.search('"whitelist"', k=10, exclude_filenames=True)
        assert sp.num_rows > 0
        assert "a/wl.py" in sp.column("path").to_pylist()
    finally:
        rd.close()


def test_scan_fallback_keeps_filters_and_budget(edge_index, monkeypatch):
    """The degenerate-candidate fallback must honor field filters and the
    max_total_tokens budget exactly like the hybrid path."""
    import probe_ray.search.hybrid as H
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(edge_index)
    try:
        q = '"whitelist" OR stream'
        want = rd.search_many(
            {"q": q}, k=10, filters={"q": {"lang": "py"}}
        )["q"]
        assert want.num_rows > 0
        monkeypatch.setattr(H, "SCAN_FALLBACK_ABS", 0)
        got = rd.search_many(
            {"q": q}, k=10, filters={"q": {"lang": "py"}}
        )["q"]
        assert _as_rows(got) == _as_rows(want)
        # budget of 1 token: the first result alone exceeds it
        tiny = rd.search(q, k=10, max_total_tokens=1)
        assert tiny.num_rows == 0
        big = rd.search(q, k=10, max_total_tokens=10**9)
        assert _as_rows(big) == _as_rows(rd.search(q, k=10))
    finally:
        rd.close()


def test_unit_candidates_equal_substring_scan(edge_index):
    """The unit-postings candidate set must equal the corpus substring
    mask exactly (a special term is alnum-only, so every occurrence lies
    inside a maximal alnum run => unit containment == text containment)."""
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(edge_index)
    try:
        for term in ("whitelist", "stream", "happi", "ream", "wl", "zzz"):
            got = sorted(
                zip(*[
                    rd.special_candidate_keys([term]).column(c).to_pylist()
                    for c in ("repo", "path")
                ])
            )
            want = sorted(
                (r, p)
                for r, p, _l, c in ROWS
                if term in c.lower() or term in p.lower()
            )
            assert got == want, term
    finally:
        rd.close()


def test_hybrid_field_filters(edge_index):
    """Field filters now apply to special-term queries (the old scan path
    ignored them): lang filter narrows the corpus-wide ranking."""
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(edge_index)
    try:
        got = rd.search_many(
            {"q": '"whitelist" OR stream'}, k=10,
            filters={"q": {"lang": "py"}},
        )["q"]
        assert got.num_rows > 0
        unfiltered = rd.search_many({"q": '"whitelist" OR stream'}, k=10)["q"]
        assert got.num_rows < unfiltered.num_rows
        # filtered results are a subsequence of the corpus-wide ranking
        # (stats stay corpus-global), restricted to lang==py paths
        want = [
            r for r in _as_rows(unfiltered) if r[3].endswith(".py")
        ]
        assert [r[1:] for r in _as_rows(got)] == [r[1:] for r in want]
    finally:
        rd.close()


def test_unit_vocab_trigram_pruning_sublinear(ray_session, tmp_path_factory):
    """With an inflated unit vocabulary, a rare special term must touch
    only the row groups selected by its trigram intersection — not the
    whole vocabulary — and return exactly the full-scan result."""
    import os as _os

    import pyarrow.parquet as _pq

    from probe_ray.index.build import (
        IndexConfig,
        _units_grams_path,
        _units_path,
        build_index,
    )
    from probe_ray.search.searcher import SegmentWorker

    d = tmp_path_factory.mktemp("bigvocab_corpus")
    n = 400
    rows = {
        "repo": [f"r{i % 3}" for i in range(n)],
        "path": [f"p/f{i:04d}.py" for i in range(n)],
        "commit": ["c0"] * n,
        "lang": ["py"] * n,
        # ~20 distinct units per doc -> ~8k distinct units >> one
        # POSTINGS_ROW_GROUP (2048), so the units file has several RGs
        "content": [
            " ".join(f"uniqtok{i:04d}x{j:02d}" for j in range(20))
            + (" zzrarezz" if i == 137 else "")
            for i in range(n)
        ],
    }
    pq.write_table(pa.table(rows), str(d / "part0.parquet"))
    idx = str(tmp_path_factory.mktemp("bigvocab_index"))
    shutil.rmtree(idx, ignore_errors=True)
    build_index([str(d)], idx, IndexConfig(num_waves=1, subshards=1))

    assert _os.path.exists(_units_grams_path(idx, 0, 0))
    total_rgs = _pq.ParquetFile(_units_path(idx, 0, 0)).num_row_groups
    assert total_rgs >= 3  # vocabulary really is inflated

    w = SegmentWorker(idx, [(0, 0)], avgdl=20.0)
    touched: list[int] = []
    orig = _pq.ParquetFile.read_row_group

    def spy(self, rg, *a, **kw):
        touched.append(rg)
        return orig(self, rg, *a, **kw)

    _pq.ParquetFile.read_row_group = spy
    try:
        pruned = w._matching_units(0, 0, ["zzrarezz"])
    finally:
        _pq.ParquetFile.read_row_group = orig
    # sublinear: the rare term's trigrams select far fewer RGs than exist
    assert len(set(touched)) < total_rgs
    # identity: the pruned result equals a substring pass over the whole
    # unit vocabulary
    vocab = _pq.read_table(_units_path(idx, 0, 0), columns=["term"])
    full = sorted(
        u for u in vocab.column("term").to_pylist() if "zzrarezz" in u.lower()
    )
    assert pruned == full == ["zzrarezz"]
    # a substring-of-many term stays correct through the pruned path too
    assert w._matching_units(0, 0, ["x01"]) == sorted(
        f"uniqtok{i:04d}x01" for i in range(n)
    )


def test_exact_change_filter_drops_inert_units(edge_index):
    """special_candidate_keys with ctx_sets keeps
    only docs whose tokenization can actually change. 'stream' tokenizes
    to itself whole in every casing present ('stream' lowercase runs),
    so registering it as a special term changes nothing — zero
    candidates — while 'whitelist' has camel-part occurrences
    (MyWhitelistThing, WhiteList, Whitelist) whose expansion flips."""
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(edge_index)
    try:
        # substring-matched (no ctx filter): every doc containing "stream"
        raw = rd.special_candidate_keys(["stream"])
        assert raw.num_rows > 0
        # exact filter: "stream" is inert (expands to itself whole)
        got = rd.special_candidate_keys(
            ["stream"], [frozenset({"stream"})]
        )
        assert got.num_rows == 0
        # "whitelist" is a STATIC special-case word — dynamic
        # registration changes nothing anywhere: globally inert
        assert (
            rd.special_candidate_keys(
                ["whitelist"], [frozenset({"whitelist"})]
            ).num_rows
            == 0
        )
        # "whitelists": the unit 'whitelists' expands (whitelist, s) by
        # default but stays whole under the ctx — exactly the doc that
        # holds it is a candidate; substring-matching docs that only
        # contain 'whitelist' (no plural unit) drop
        wl = rd.special_candidate_keys(
            ["whitelists"], [frozenset({"whitelists"})]
        )
        assert set(wl.column("path").to_pylist()) == {"c/many.py"}
    finally:
        rd.close()


def test_hybrid_ctx_cache_reuse(edge_index, monkeypatch):
    """Repeated special-term queries against one warm reader reuse the
    cached per-context candidate tables: the second call must not touch
    candidate discovery or tokenization at all, and must return tables
    identical to the first. A new keyword set under the same special
    term is a different cache key and recomputes (correctness first)."""
    from probe_ray.search import hybrid
    from probe_ray.search.scan import scan_search_many
    from probe_ray.search.searcher import IndexReader

    rd = IndexReader(edge_index)
    try:
        qs = {"a": '"whitelists" OR stream', "b": '"happi"'}
        first = rd.search_many(qs, k=10)
        cache = rd._hybrid_ctx_cache
        assert len(cache) == 2  # one entry per special-term context

        def boom(*a, **kw):
            raise AssertionError("candidate recomputation on cache hit")

        monkeypatch.setattr(hybrid._CandidateStage, "__call__", boom)
        monkeypatch.setattr(
            rd, "special_candidate_keys", boom, raising=False
        )
        second = rd.search_many(qs, k=10)
        for name in qs:
            assert _as_rows(first[name]) == _as_rows(second[name]), name
        monkeypatch.undo()

        # different keywords, same special term -> distinct key, fresh
        # computation, still scan-identical
        q3 = {"c": '"whitelists" AND merge'}
        got = rd.search_many(q3, k=10)["c"]
        want = scan_search_many(rd.manifest["input_files"], q3, k=10)["c"]
        assert _as_rows(got) == _as_rows(want)
        assert len(rd._hybrid_ctx_cache) == 3
    finally:
        rd.close()


def test_hybrid_ctx_cache_concurrent_and_eviction(edge_index, monkeypatch):
    """The MCP/agent shape drives ONE reader from many threads. The
    check->move_to_end->read and store->evict sequences are guarded by a
    per-reader lock; with the LRU capacity forced to 1 (maximum eviction
    pressure) concurrent mixed special-term queries must neither raise
    nor diverge from their serial results."""
    from concurrent.futures import ThreadPoolExecutor

    from probe_ray.search import hybrid
    from probe_ray.search.searcher import IndexReader

    monkeypatch.setattr(hybrid, "_CTX_CACHE_MAX", 1)
    rd = IndexReader(edge_index)
    try:
        qs = ['"whitelists" OR stream', '"happi"', '"whitelists" AND merge']
        serial = {q: _as_rows(rd.search(q, k=10)) for q in qs}
        work = [qs[i % len(qs)] for i in range(30)]
        with ThreadPoolExecutor(max_workers=6) as ex:
            results = list(ex.map(lambda q: (q, rd.search(q, k=10)), work))
        for q, t in results:
            assert _as_rows(t) == serial[q], q
        assert len(rd._hybrid_ctx_cache) <= 1
    finally:
        rd.close()


def test_hybrid_ctx_cache_shared_across_batch_shapes(edge_index, monkeypatch):
    """A context's cached candidate table is keyed by its own special set
    and its own keywords: after a solo search(q), a search_many batch
    that holds q next to a different context computes candidates only
    for the other context, and q's rows stay bit-equal."""
    from probe_ray.query.bm25 import create_query_plan
    from probe_ray.search import hybrid
    from probe_ray.search.scan import scan_search_many
    from probe_ray.search.searcher import IndexReader

    q, other = '"whitelists" OR stream', '"happi" AND merge'
    sp_q = create_query_plan(q).special_terms
    sp_other = create_query_plan(other).special_terms
    rd = IndexReader(edge_index)
    try:
        solo = _as_rows(rd.search(q, k=10))
        staged: list[frozenset] = []
        key_ctxs: list[frozenset] = []
        orig_init = hybrid._CandidateStage.__init__
        orig_keys = rd.special_candidate_keys

        def init(self, ctxs, keywords):
            staged.extend(sp for _, sp, _ in ctxs)
            orig_init(self, ctxs, keywords)

        def keys(terms, ctx_sets=None):
            key_ctxs.extend(ctx_sets or [])
            return orig_keys(terms, ctx_sets)

        monkeypatch.setattr(hybrid._CandidateStage, "__init__", init)
        monkeypatch.setattr(rd, "special_candidate_keys", keys, raising=False)
        both = rd.search_many({"q": q, "o": other}, k=10)
        assert staged == [sp_other]
        assert sp_q not in key_ctxs and sp_other in key_ctxs
        assert _as_rows(both["q"]) == solo
        want = scan_search_many(rd.manifest["input_files"], {"o": other}, k=10)
        assert _as_rows(both["o"]) == _as_rows(want["o"])
    finally:
        rd.close()
