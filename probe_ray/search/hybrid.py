"""Index-assisted answering of special-term queries (quoted / excluded).

Special terms change *document* tokenization (hazard H2 — reference:
elastic_query.rs:768-773 -> tokenization.rs:843-851), so the pre-built
index (default tokenization) cannot serve those queries directly. The
original answer was an exhaustive re-tokenize of the whole corpus per
query (search/scan.py — the reference's own architecture: it re-scans
every file on every search, search_runner.rs:215-1560). This module
replaces that with an exact two-sided split:

AFFECTED docs — docs whose tokenization under the query's special-term
set can differ from default. A special term only alters tokenization
where a whole alphanumeric unit (raw token, camel part, or split
remainder — tokenizer.py split_camel_case and
split_compound_word_for_filtering) lowercases to it, and every such
unit is a contiguous substring of content or path. Hence
``match_substring(content|path, term, ignore_case=True)`` is a *sound*
over-approximation. (TERM-postings-based discovery would NOT be sound:
stem collisions — "whitelists" stems to "whitelist" — put the
keyword's token into docs that never contain the special unit, and
in-document negation tokens like "--flag" can suppress the marker
stems entirely.) Candidates are discovered from the index's UNIT
postings (index/build.py UNIT_PREFIX: per-doc distinct alnum runs;
"term substring of text" == "term substring of some unit" because an
alnum-only term cannot cross a run boundary, and per-codepoint
str.lower() preserves substring containment) — one substring pass over
each segment's unit vocabulary inside the persistent actor pool,
O(vocabulary + candidates) per query instead of O(corpus). Only the
candidates are then read back — by segment-local id from the index's
doc stores (build.py docs/), on the workers owning their segments — and
re-tokenized (default ctx + query ctx) for exact tf/doc_len both ways,
and scored exactly on the driver.

UNAFFECTED docs — tokenization identical to default, so the quoted /
excluded keyword behaves there as an ordinary index term (its tf is
whatever default tokenization produced, e.g. via stem collisions).
They are served by the normal block-max index path (persistent actor
pool) with overridden global stats and the candidates masked out by
their segment-local ids — a (repo, path) key may repeat across the
reader's index dirs (an upsert's tombstoned old version and its live
new one), so the mask never goes by key. Tombstoned candidates count in
the stat deltas, like every tombstoned doc, and are never returned.

Global BM25 stats under the query context are derived exactly, in
integer arithmetic, from the reader's summed stats + candidate deltas::

    sum_dlen' = n_tokens + sum_C(ctx_dlen - default_dlen)
    avgdl'    = sum_dlen' / N
    df'(t)    = df_dict(t) - |{C: default tf>0}| + |{C: ctx tf>0}|

so every score is bit-equal to the exhaustive scan path
(tests/test_hybrid.py asserts table equality against scan_search_many,
and the engine-vs-scalar-oracle e2e suite keeps covering this route).

Scale shape: discovery is a trigram-pruned substring pass over each
segment's unit vocabulary, and each owning worker reads and
re-tokenizes its candidates one doc-store row group at a time, so the
cost follows the candidates, not the corpus, and no stage needs a CPU
beyond those the actor pool already holds. Re-tokenizing a candidate
under the query context costs about one default tokenization:
tokenize() re-expands only the raw tokens whose lowercase holds a
special term and takes all others from its cached default expansion.
Only past SCAN_FALLBACK_ABS candidate (doc, ctx) rows (a special term
that matches most of a large corpus, e.g. a quoted stop word) does the
query fall back to the exhaustive scan path.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from probe_ray.query.bm25 import QueryPlan, idf as idf_fn
from probe_ray.query.parser import is_only_excluded_terms
from probe_ray.search.scoring import eval_mask, score_ast
from probe_ray.tokenize.tables import SPECIAL_CASE_WORDS
from probe_ray.tokenize.tokenizer import preprocess_text_with_filename

# Candidate (doc, ctx) rows above which a query falls back to the
# exhaustive scan (scan.py): the driver holds the candidate table and
# builds one exclusion set per context from it, so this bounds both.
SCAN_FALLBACK_ABS = 200_000

# Reader-scoped LRU of per-context candidate tables. A reader's corpus
# view is immutable after open (segments, tombstones — searcher.py
# IndexReader contract; upserts open a NEW reader), so the candidate
# discovery + double-tokenization product for a given special-term
# context can be reused verbatim across calls. This is the dominant
# cost of a REPEATED special-term query — the agent/MCP usage shape,
# where the same quoted/excluded queries recur against one warm reader.
# Entries are keyed by (full special set, that context's own sorted
# keywords) and hold one tf column pair per own keyword, named by the
# keyword, so a context hits whether it comes alone or inside any
# search_many batch. The LRU and its lock are IndexReader fields.
# Oversized candidate sets are not cached (recomputing beats pinning
# tens of MB per entry).
_CTX_CACHE_MAX = 16
_CTX_CACHE_MAX_ROWS = 65_536

# A special term can only match a tokenizer unit if it is one alnum run
# (units are produced by [^\W_]+ — tokenizer.py:_ALNUM_RUNS); terms with
# spaces/underscores/punctuation can never fire and need no candidates.
_UNIT_RE = re.compile(r"[^\W_]+\Z", re.UNICODE)


# candidate-row columns passed through from the worker's batch: the
# docstats metadata, plus the segment, local id and deleted flag that
# SegmentWorker.candidate_stage adds
_PASS_COLS = [
    "member", "wave", "subshard", "local", "deleted",
    "repo", "path", "commit", "lang", "sha256",
]
_CAND_COLS = ["ctx", *_PASS_COLS, "d_dlen", "c_dlen"]


class _CandidateStage:
    """Batch callable that the workers owning the candidates apply to
    their doc-store reads (SegmentWorker.candidate_stage): per context,
    substring-prefilter, then double-tokenize only the matching rows.
    Emits one row per (candidate doc, ctx) with the _PASS_COLS of the
    doc, default/ctx doc_len and, per keyword t, tf under both
    tokenizations in columns ``d_tf:t`` / ``c_tf:t``."""

    def __init__(self, ctxs: list[tuple[int, frozenset, list[str]]], keywords: list[str]):
        self.ctxs = ctxs  # (ci, full special set, active alnum specials)
        self.keywords = keywords

    def __call__(self, batch: pa.Table) -> pa.Table:
        content, path = batch.column("content"), batch.column("path")
        conts, paths = content.to_pylist(), path.to_pylist()
        rows: list[np.ndarray] = [np.empty(0, np.int64)]
        out: dict[str, list[int]] = {"ctx": [], "d_dlen": [], "c_dlen": []}
        d_tf: dict[str, list[int]] = {t: [] for t in self.keywords}
        c_tf: dict[str, list[int]] = {t: [] for t in self.keywords}
        for ci, specials_full, active in self.ctxs:
            mask = None
            for s in active:
                m = pc.or_(
                    pc.match_substring(content, s, ignore_case=True),
                    pc.match_substring(path, s, ignore_case=True),
                )
                mask = m if mask is None else pc.or_(mask, m)
            if mask is None:
                continue
            idxs = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
            rows.append(idxs)
            for i in idxs:
                d_toks = preprocess_text_with_filename(conts[i], paths[i])
                c_toks = preprocess_text_with_filename(
                    conts[i], paths[i], specials_full
                )
                out["ctx"].append(ci)
                out["d_dlen"].append(len(d_toks))
                out["c_dlen"].append(len(c_toks))
                for tf_out, toks in ((d_tf, d_toks), (c_tf, c_toks)):
                    tf: dict[str, int] = {}
                    for t in toks:
                        if t in tf_out:
                            tf[t] = tf.get(t, 0) + 1
                    for t, col in tf_out.items():
                        col.append(tf.get(t, 0))
        sub = batch.take(pa.array(np.concatenate(rows)))
        tbl = {
            "ctx": pa.array(out["ctx"], pa.int32()),
            **{c: sub.column(c) for c in _PASS_COLS},
            "d_dlen": pa.array(out["d_dlen"], pa.int64()),
            "c_dlen": pa.array(out["c_dlen"], pa.int64()),
        }
        for t in self.keywords:
            tbl[f"d_tf:{t}"] = pa.array(d_tf[t], pa.int32())
            tbl[f"c_tf:{t}"] = pa.array(c_tf[t], pa.int32())
        return pa.table(tbl)


def _candidate_filter_mask(
    cand: pa.Table, filters: dict[str, str]
) -> np.ndarray | None:
    """Same semantics as searcher._filter_mask, over candidate rows."""
    if not filters:
        return None
    mask = None
    for fld, val in filters.items():
        if fld == "lang":
            m = pc.equal(cand.column("lang"), val)
        else:
            m = pc.match_substring(cand.column(fld), val)
        arr = m.to_numpy(zero_copy_only=False)
        mask = arr if mask is None else (mask & arr)
    return mask


def _locals_by_segment(cand: pa.Table) -> dict[tuple[int, int, int], np.ndarray]:
    """The candidate rows' local ids per (member, wave, subshard)
    segment: what the index path must not score again."""
    seg = np.stack(
        [cand.column(c).to_numpy() for c in ("member", "wave", "subshard")], 1
    )
    local = cand.column("local").to_numpy()
    keys, inv = np.unique(seg, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    return {tuple(int(v) for v in key): local[inv == i] for i, key in enumerate(keys)}


def hybrid_search_many(
    reader,
    queries: dict[str, tuple[str, QueryPlan]],
    k: int = 10,
    filters: dict[str, dict[str, str]] | None = None,
    exact: bool = False,
    max_total_tokens: int | None = None,
) -> dict[str, pa.Table]:
    """Answer special-term queries via candidate-prefilter + stat-adjusted
    index search. ``reader`` is an IndexReader; ``queries`` maps name ->
    (raw query string, parsed plan). Results are bit-equal to
    scan.scan_search_many (which remains the fallback)."""
    from probe_ray.search.scan import scan_search_many
    from probe_ray.search.searcher import (
        _QuerySpec,
        _empty_result,
        _finalize,
        RESULT_COLS,
    )

    filters = filters or {}
    results: dict[str, pa.Table] = {}

    # group queries by tokenization context (= their special-term set)
    ctx_of: dict[frozenset, int] = {}
    ctx_specs: list[tuple[int, frozenset, list[str]]] = []
    ctx_kws: list[set[str]] = []  # per context: its queries' keywords
    per_query: list[tuple[str, QueryPlan, int]] = []
    for name, (_q, plan) in queries.items():
        sp = plan.special_terms
        if sp not in ctx_of:
            ctx_kws.append(set())
            ci = len(ctx_of)
            ctx_of[sp] = ci
            # inactive specials need no candidates: non-unit terms
            # (spaces/punct) can never match an alnum run, and STATIC
            # special-case words (tokenization.rs:1105-1146) are already
            # in every tokenizer table — adding them to the dynamic set
            # changes no document's tokenization, so the index is exact
            # for them (their verbatim keyword == the indexed token).
            active = sorted(
                s
                for s in sp
                if _UNIT_RE.match(s) and s not in SPECIAL_CASE_WORDS
            )
            ctx_specs.append((ci, sp, active))
        per_query.append((name, plan, ctx_of[sp]))
        ctx_kws[ctx_of[sp]].update(plan.term_indices)
    ctx_key = [(sp, tuple(sorted(ctx_kws[ci]))) for ci, sp, _ in ctx_specs]

    keywords = sorted(set().union(*ctx_kws))

    n_docs = reader.n_docs
    n_tokens = reader.n_tokens
    df_global = reader.df_lookup(keywords)

    def _scan_fallback():
        # more than SCAN_FALLBACK_ABS candidate rows: the driver-side
        # candidate table and exclusion sets would stop being small.
        # It scans one index's corpus (reader.manifest), so a reader over
        # several index dirs refuses it.
        return scan_search_many(
            reader.manifest["input_files"],
            {name: q for name, (q, _p) in queries.items()},
            k,
            filters=filters,
            exact=exact,
            max_total_tokens=max_total_tokens,
            exclude_keys=reader.tombstones or None,
        )

    cache: OrderedDict = reader._hybrid_ctx_cache
    # One reader serves concurrent threads (the MCP/agent shape): guard
    # the check→move_to_end→read / store→evict sequences, which are not
    # atomic as a group — an eviction between them raises KeyError. Two
    # threads missing the same key both compute and store bit-equal
    # tables; that duplicate work is benign.
    cache_lock: threading.Lock = reader._hybrid_ctx_lock
    ctx_sub: dict[int, pa.Table | None] = {}
    pending: list[tuple[int, frozenset, list[str]]] = []
    with cache_lock:
        for ci, sp, active in ctx_specs:
            if not active:
                ctx_sub[ci] = None
                continue
            key = ctx_key[ci]
            if key in cache:
                cache.move_to_end(key)
                ctx_sub[ci] = cache[key]
            else:
                pending.append((ci, sp, active))

    cand_tbl = None
    if pending:
        stage = _CandidateStage(
            pending, sorted(set().union(*(ctx_kws[ci] for ci, _, _ in pending)))
        )
        # Index-served candidate discovery: one substring pass over each
        # segment's unit VOCABULARY inside the persistent actor pool,
        # keeping only the units whose expansion changes under some
        # pending context (exact). The owning workers then read those
        # docs from their doc stores and _CandidateStage's per-ctx mask
        # refines the selection, so results stay bit-equal to the scan.
        keys = reader.special_candidate_keys(
            sorted({s for _, _, act in pending for s in act}),
            [sp for _, sp, _ in pending],
        )
        # an upper bound on candidate (doc, ctx) rows, known before any
        # doc is read
        if keys.num_rows * len(pending) > SCAN_FALLBACK_ABS:
            return _scan_fallback()
        if keys.num_rows:
            cand_tbl = reader.candidate_stage_fanout(keys, stage)

    # split the freshly computed contexts out of cand_tbl, keep each
    # one's own keyword columns and cache them
    for ci, _sp, _active in pending:
        sub = None
        if cand_tbl is not None:
            sub = cand_tbl.filter(pc.equal(cand_tbl.column("ctx"), ci))
            own = [f"{c}:{t}" for t in ctx_key[ci][1] for c in ("d_tf", "c_tf")]
            if sub.num_rows:
                sub = sub.select(_CAND_COLS + own).combine_chunks()
            else:
                sub = None
        ctx_sub[ci] = sub
        if sub is None or sub.num_rows <= _CTX_CACHE_MAX_ROWS:
            with cache_lock:
                cache[ctx_key[ci]] = sub
                while len(cache) > _CTX_CACHE_MAX:
                    cache.popitem(last=False)

    # per-ctx candidate arrays + stat deltas
    ctx_data: dict[int, dict] = {}
    for ci, _sp, _active in ctx_specs:
        sub = ctx_sub.get(ci)
        if sub is None:
            ctx_data[ci] = None
            continue
        d_dlen = sub.column("d_dlen").to_numpy()
        c_dlen = sub.column("c_dlen").to_numpy()
        ctx_data[ci] = {
            "table": sub,
            "d_dlen": d_dlen,
            "c_dlen": c_dlen,
            "d_tf": {
                t: sub.column(f"d_tf:{t}").to_numpy().astype(np.int64)
                for t in ctx_kws[ci]
            },
            "c_tf": {
                t: sub.column(f"c_tf:{t}").to_numpy().astype(np.int64)
                for t in ctx_kws[ci]
            },
            "exclude": _locals_by_segment(sub),
            "sum_delta": int(c_dlen.sum() - d_dlen.sum()),
        }

    # per-query adjusted stats -> index specs
    specs: list[_QuerySpec] = []
    q_stats: dict[str, tuple[float, dict[str, float]]] = {}
    for name, plan, ci in per_query:
        cd = ctx_data[ci]
        if cd is None:
            sum_dlen = n_tokens
            dfs = {t: df_global.get(t, 0) for t in plan.term_indices}
        else:
            sum_dlen = n_tokens + cd["sum_delta"]
            dfs = {
                t: df_global.get(t, 0)
                - int((cd["d_tf"][t] > 0).sum())
                + int((cd["c_tf"][t] > 0).sum())
                for t in plan.term_indices
            }
        avgdl = sum_dlen / n_docs if n_docs else 0.0
        idfs = {
            t: idf_fn(n_docs, df) for t, df in dfs.items() if df > 0
        }
        q_stats[name] = (avgdl, idfs)
        specs.append(
            _QuerySpec(
                name=name,
                plan=plan,
                idfs=idfs,
                need_fill=is_only_excluded_terms(plan.ast),
                filters=filters.get(name, {}),
                avgdl=avgdl,
                exclude_locals=cd["exclude"] if cd else None,
            )
        )

    merged = reader._run_specs(specs, k)

    # driver-side exact scoring of the candidates under the query ctx
    for name, plan, ci in per_query:
        cd = ctx_data[ci]
        avgdl, idfs = q_stats[name]
        rows = merged.filter(pc.equal(merged.column("query"), name))
        if cd is not None:
            sub = cd["table"]
            tfs = {t: cd["c_tf"][t] for t in plan.term_indices}
            dlen = cd["c_dlen"].astype(np.float64)
            scores, included = score_ast(plan.ast, tfs, dlen, avgdl, idfs)
            present = {t: v > 0 for t, v in tfs.items()}
            gate = eval_mask(plan.ast, present, sub.num_rows)
            anym = np.zeros(sub.num_rows, dtype=bool)
            for t in plan.term_indices:
                anym |= tfs[t] > 0
            keep = included & gate & (
                anym | is_only_excluded_terms(plan.ast)
            )
            fm = _candidate_filter_mask(sub, filters.get(name, {}))
            if fm is not None:
                keep = keep & fm
            # tombstoned candidates count in the stat deltas above but
            # are never returned
            keep = keep & ~sub.column("deleted").to_numpy(zero_copy_only=False)
            idxs = np.flatnonzero(keep)
            if len(idxs):
                take = sub.take(pa.array(idxs))
                crow = pa.table(
                    {
                        "query": pa.array([name] * len(idxs), pa.string()),
                        "score": pa.array(scores[idxs], type=pa.float64()),
                        "repo": take.column("repo"),
                        "path": take.column("path"),
                        "commit": take.column("commit"),
                        "lang": take.column("lang"),
                        "sha256": take.column("sha256"),
                        "doc_len": pc.cast(take.column("c_dlen"), pa.int32()),
                    }
                )
                rows = pa.concat_tables(
                    [rows.select(RESULT_COLS), crow.select(RESULT_COLS)]
                )
        if rows.num_rows == 0:
            results[name] = _empty_result()
            continue
        idx = pc.sort_indices(
            rows,
            sort_keys=[
                ("score", "descending"),
                ("repo", "ascending"),
                ("path", "ascending"),
            ],
        )[:k]
        top = rows.take(idx)
        if max_total_tokens is not None:
            # same K2 budget rule as the index path (searcher.search_many)
            cum = np.cumsum(top.column("doc_len").to_numpy())
            top = top.slice(
                0, int(np.searchsorted(cum, max_total_tokens, "right"))
            )
        results[name] = _finalize(top)
    return results
