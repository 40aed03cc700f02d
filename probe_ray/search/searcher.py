"""Distributed top-k BM25 query engine over the built index.

Query flow (SURVEY.md SS4.2 "query job"):
  driver: parse -> QueryPlan(s); queries whose plans register dynamic
  special terms (quoted/excluded keywords — they change *document*
  tokenization, hazard H2) are answered by the index-assisted hybrid path
  (probe_ray.search.hybrid: substring-prefiltered candidate re-tokenize +
  stat-adjusted index query; exhaustive scan fallback for degenerate
  candidate sets).

  index path (stateful actor pool — the "shared index" case where raw Ray
  actors beat a per-query Dataset: segment state persists across queries):
    driver: df for the query terms from the sorted term dictionaries
            (parquet row-group pruning; no postings scan) -> global idfs
    -> ONE SegmentWorker actor pool per IndexReader, over the segments of
       one or more index dirs (members: a sharded corpus, or a base index
       plus upsert deltas); each actor owns a static set of
       (member, wave, subshard) segments, holds their docstats and
       deleted-doc masks in memory and keeps one open SortedParquet handle
       per segment file
    -> per segment: the handle maps the query terms to the postings row
       groups whose footer term range can hold them and reads only those
       (through a byte-bounded LRU of decoded row groups) -> exact
       block-max top-k scoring with the members' summed statistics
    -> driver merges every segment's top-k table (tiny) in one round by
       (score desc, repo, path).

Exactness optimizations inside a segment:
  - required-term narrowing: candidates = intersection of required-term
    postings (cheap sorted-array intersect) — other docs are excluded by
    score_expr anyway.
  - block-max pruning: candidates appearing ONLY in "hot" postings are
    kept only if their block upper bound (idf * impact(block max_tf,
    min doc_len)) summed with the other hot terms' global upper bounds can
    reach the segment-local threshold established by scoring the rare-term
    candidates first. Skipped blocks are never varint-decoded
    (block-aligned codec). Both steps discard only provably sub-threshold
    docs => results identical to exhaustive scoring.

Result ordering: (score desc, repo asc, path asc) — the distributed
equivalent of the reference's (score desc, doc index asc) over its sorted
file walk (ranking.rs:406-418).

Field filters: `filters={"lang": ..., "repo": ..., "path": ...}` narrow the
result set by document metadata (lang = exact match, repo/path =
substring). Scoring statistics (N, df, avgdl) stay corpus-global — filters
select from the corpus-wide ranking, mirroring how the reference's
filename/language CLI flags pre-filter its file walk without changing BM25
stats scope (file_list_cache.rs:461-556). The reference *parses* field
prefixes in queries but ignores them during evaluation
(elastic_query.rs:357-364); parity mode does the same, so field filtering
is exposed only through this explicit API.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from probe_ray.index.build import (
    DOCS_ROW_GROUP,
    _docs_path,
    _docstats_path,
    _postings_path,
    _units_grams_path,
    _units_path,
)
from probe_ray.index.codec import (
    BLOCK as CODEC_BLOCK,
    decode_selected_blocks,
    decode_varint_deltas,
    unpack_tf,
)
from probe_ray.query.bm25 import MAX_QUERY_TERMS, QueryPlan, create_query_plan, idf as idf_fn
from probe_ray.query.parser import (
    is_only_excluded_terms,
    necessary_keywords,
    walk_terms,
)
from probe_ray.search.scoring import eval_mask, impact, score_ast

# Segment-local candidate count above which a term is treated as "hot"
# (block-max pruned) when it is not required/excluded.
HOT_DF = 8192

# Anchored-path refinement batch: candidates are processed in descending
# optimistic-score order in batches of this size; anchors with fewer
# candidates than one batch just decode everything up front.
ANCHOR_REFINE_BATCH = 512

# Block-max pruning effectiveness counters, accumulated per worker
# process (two int adds per hot term per query — negligible). Read /
# reset through SegmentWorker.prune_stats() / IndexReader.prune_stats();
# the Zipfian-corpus rehearsal (tools/rehearse_zipf.py) reports
# decoded/total as the WAND-path evidence at scale.
PRUNE_STATS = {
    "hot_blocks_total": 0,
    "hot_blocks_decoded": 0,
    "hot_terms": 0,
    "anchored_refined": 0,
}

# Decoded row groups a SegmentWorker keeps across queries (postings,
# units, unit grams and doc stores of all its segments), bounded by
# Arrow buffer bytes. A postings row group holds POSTINGS_ROW_GROUP terms.
ROW_GROUP_CACHE_BYTES = 32 << 20

# Per-segment files a SegmentWorker reads by key: (path fn, sort column).
_SEGMENT_FILES = {
    "postings": (_postings_path, "term"),
    "units": (_units_path, "term"),
    "units_grams": (_units_grams_path, "gram"),
    "docs": (_docs_path, "local"),
}

MIN_ENGINE_VERSION = 9  # oldest index a reader serves: 9 has units/ everywhere

RESULT_COLS = [
    "query", "score", "repo", "path", "commit", "lang", "sha256", "doc_len",
]


class _RowGroupLRU:
    """Decoded parquet row groups, evicted least recently used first once
    their summed ``Table.nbytes`` passes ``max_bytes``. A row group larger
    than the bound is never kept, so a bound of 0 caches nothing."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._tables: OrderedDict[tuple, pa.Table] = OrderedDict()

    def get(self, key: tuple) -> pa.Table | None:
        t = self._tables.get(key)
        if t is not None:
            self._tables.move_to_end(key)
        return t

    def put(self, key: tuple, table: pa.Table) -> None:
        if table.nbytes > self.max_bytes:
            return
        self._tables[key] = table
        self.nbytes += table.nbytes
        while self.nbytes > self.max_bytes:
            _, old = self._tables.popitem(last=False)
            self.nbytes -= old.nbytes


class SortedParquet:
    """Read handle over one parquet file sorted by its ``key`` column
    (a file whose row-group key ranges are out of order is refused).

    The file is memory-mapped and its footer parsed once; each row
    group's key min/max comes from the footer statistics. ``read(keys)``
    bisects every key to the row groups whose range can hold it, reads
    only those (through the owner's row-group LRU) and keeps the rows
    whose key is in ``keys`` — the rows, in file order, of
    ``pq.read_table(path, filters=[(key, "in", keys)])`` without building
    a dataset per call. Row groups without key statistics are read for
    every non-empty lookup. The handle belongs to one reader or worker:
    an index rebuilt in place at the same path needs a new handle."""

    def __init__(self, path: str, key: str, cache: _RowGroupLRU | None = None):
        self.path = path
        self.key = key
        self._cache = cache if cache is not None else _RowGroupLRU(0)
        self._pf = pq.ParquetFile(path, memory_map=True)
        md = self._pf.metadata
        col = [md.schema.column(i).path for i in range(md.num_columns)].index(key)
        self._always: list[int] = []
        self._rgs: list[int] = []
        self._mins: list = []
        self._maxs: list = []
        for rg in range(md.num_row_groups):
            meta = md.row_group(rg)
            if meta.num_rows == 0:
                continue
            st = meta.column(col).statistics
            if st is None or not st.has_min_max:
                self._always.append(rg)
            else:
                self._rgs.append(rg)
                self._mins.append(st.min)
                self._maxs.append(st.max)
        if self._mins != sorted(self._mins) or self._maxs != sorted(self._maxs):
            raise ValueError(f"{path}: row groups are not sorted by {key!r}")

    def _row_groups_for(self, keys: list) -> list[int]:
        rgs = set(self._always) if keys else set()
        for k in keys:
            lo = bisect.bisect_left(self._maxs, k)
            rgs.update(self._rgs[lo : bisect.bisect_right(self._mins, k)])
        return sorted(rgs)

    def row_group(self, rg: int, columns: list[str] | None = None) -> pa.Table:
        ck = (self.path, rg, None if columns is None else tuple(columns))
        t = self._cache.get(ck)
        if t is None:
            t = self._pf.read_row_group(rg, columns=columns)
            self._cache.put(ck, t)
        return t

    def read_all(self, columns: list[str] | None = None) -> pa.Table:
        return self._concat(range(self._pf.num_row_groups), columns)

    def read(self, keys, columns: list[str] | None = None) -> pa.Table:
        want = sorted(set(keys))
        cols = None if columns is None else list(dict.fromkeys([self.key, *columns]))
        rgs = self._row_groups_for(want)
        t = self._concat(rgs, cols)
        if rgs:
            kcol = t.column(self.key)
            t = t.filter(pc.is_in(kcol, value_set=pa.array(want, kcol.type)))
        return t if columns is None else t.select(columns)

    def _concat(self, rgs, columns: list[str] | None) -> pa.Table:
        tables = [self.row_group(rg, columns) for rg in rgs]
        if not tables:
            schema = self._pf.schema_arrow
            if columns is not None:
                schema = pa.schema([schema.field(c) for c in columns], schema.metadata)
            return schema.empty_table()
        return tables[0] if len(tables) == 1 else pa.concat_tables(tables)

    def close(self) -> None:
        self._pf.close()


@dataclass
class _QuerySpec:
    name: str
    plan: QueryPlan
    idfs: dict[str, float]
    need_fill: bool
    filters: dict[str, str] = field(default_factory=dict)
    # Hybrid special-term path (search/hybrid.py): a per-query override
    # of the corpus-global avgdl (the query ctx shifts it), plus the
    # local ids, per (member, wave, subshard) segment, of the candidates
    # that the driver scores exactly under the query's tokenization
    # context.
    avgdl: float | None = None
    exclude_locals: dict[tuple[int, int, int], np.ndarray] | None = None


def _intersect_sorted(arrays: list[np.ndarray]) -> np.ndarray:
    out = arrays[0]
    for a in arrays[1:]:
        out = out[np.isin(out, a, assume_unique=True)]
        if len(out) == 0:
            break
    return out


def _filter_mask(
    stats: pa.Table,
    filters: dict[str, str],
    exclude_keys: frozenset[str] | None = None,
) -> np.ndarray | None:
    """Boolean mask over docstats (or corpus) rows for metadata field
    filters and a "repo\\x00path" exclusion set (the scan path's and the
    workers' tombstones)."""
    if not filters and not exclude_keys:
        return None
    mask = None
    for fld, val in filters.items():
        if fld == "lang":
            m = pc.equal(stats.column("lang"), val)
        else:
            m = pc.match_substring(stats.column(fld), val)
        arr = m.to_numpy(zero_copy_only=False)
        mask = arr if mask is None else (mask & arr)
    if exclude_keys:
        key = pc.binary_join_element_wise(
            stats.column("repo"), stats.column("path"), "\x00"
        )
        arr = pc.invert(
            pc.is_in(key, value_set=pa.array(sorted(exclude_keys)))
        ).to_numpy(zero_copy_only=False)
        mask = arr if mask is None else (mask & arr)
    return mask


def score_segment(
    postings: pa.Table,
    *,
    stats: pa.Table,
    specs: list[_QuerySpec],
    k: int,
    avgdl: float,
    seg: tuple[int, int, int] | None = None,
    deleted: np.ndarray | None = None,
) -> pa.Table:
    """Score one segment ``seg`` for every query; return its top-k rows
    per query (comparator: -score, repo, path), plus zero-match fill rows
    for specs whose AST includes empty docs at score 0. ``stats`` is the
    segment's docstats table; rows set in ``deleted`` and the spec's
    ``exclude_locals`` for ``seg`` are never returned."""
    doc_len_all = stats.column("doc_len").to_numpy().astype(np.float64)

    terms = postings.column("term").to_pylist()
    by_term: dict[str, int] = {t: i for i, t in enumerate(terms)}
    dfs = postings.column("df").to_numpy()
    max_tfs = postings.column("max_tf").to_numpy(zero_copy_only=False)
    payloads = postings.column("payload").to_pylist()
    tf_bits = postings.column("tf_bits").to_pylist()
    blk_last = postings.column("blk_last").to_pylist()
    blk_maxtf = postings.column("blk_maxtf").to_pylist()
    blk_mindl = postings.column("blk_mindl").to_pylist()

    decoded: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def full_decode(t: str) -> tuple[np.ndarray, np.ndarray]:
        hit = decoded.get(t)
        if hit is None:
            i = by_term[t]
            n = int(dfs[i])
            ids = decode_varint_deltas(payloads[i], n)
            tfs = unpack_tf(tf_bits[i], n)
            hit = (ids, tfs)
            decoded[t] = hit
        return hit

    out_rows = {c: [] for c in RESULT_COLS}

    def emit(name: str, scores: np.ndarray, cand: np.ndarray):
        take = stats.take(pa.array(cand.astype(np.int64)))
        out_rows["query"].extend([name] * len(cand))
        out_rows["score"].extend(scores.tolist())
        for col in ("repo", "path", "commit", "lang", "sha256"):
            out_rows[col].extend(take.column(col).to_pylist())
        out_rows["doc_len"].extend(take.column("doc_len").to_numpy().tolist())

    for spec in specs:
        plan = spec.plan
        s_avgdl = spec.avgdl if spec.avgdl is not None else avgdl
        fmask = _filter_mask(stats, spec.filters)
        drop = deleted
        excluded_ids = (spec.exclude_locals or {}).get(seg)
        if excluded_ids is not None:
            drop = np.zeros(stats.num_rows, bool) if deleted is None else deleted.copy()
            drop[excluded_ids] = True
        if drop is not None:
            fmask = ~drop if fmask is None else fmask & ~drop
        q_terms = [t for t in plan.term_indices if t in by_term]
        required_kws: set[str] = set()
        for tnode in walk_terms(plan.ast):
            if tnode.required and not tnode.excluded:
                required_kws.update(tnode.keywords)
        if required_kws and any(t not in by_term for t in required_kws):
            # a required keyword has no posting in this segment => no doc
            # here can match; zero-match fill impossible (required => None)
            continue

        anchored = False
        if required_kws:
            req_ids = [full_decode(t)[0] for t in sorted(required_kws)]
            cand = _intersect_sorted(sorted(req_ids, key=len))
            hot_terms: list[str] = []
            rare_terms = [t for t in q_terms if t not in required_kws]
        else:
            excluded = plan.excluded_terms
            rare_terms = [
                t
                for t in q_terms
                if t in excluded or int(dfs[by_term[t]]) <= HOT_DF
            ]
            hot_terms = [t for t in q_terms if t not in rare_terms]
            # Conjunctive anchor: a keyword the AST makes NECESSARY
            # (present in every matching doc) bounds the candidate set by
            # its own postings, so the other hot terms never need a full
            # decode — only targeted blocks (Phase A) — and Phase B's
            # hot-only candidate expansion is provably empty. This is the
            # WAND-path win on realistic (Zipfian) corpora: 'common AND
            # mid-rank' decodes the mid-rank postings, not the common.
            necessary = (
                necessary_keywords(plan.ast) if not spec.need_fill else set()
            )
            if necessary and any(t not in by_term for t in necessary):
                # a necessary keyword has no posting here => no match in
                # this segment (mirrors the required-keyword early-out)
                continue
            anchored = False
            if hot_terms and necessary:
                anchor = min(necessary, key=lambda t: int(dfs[by_term[t]]))
                if int(dfs[by_term[anchor]]) <= HOT_DF:
                    # the anchor's postings bound the candidate set
                    # cheaply only when the anchor is genuinely rare; a
                    # hot anchor (e.g. `hot AND hot`) would full-decode
                    # millions of postings that Phase B's seeded
                    # block-max pruning skips almost entirely
                    cand = full_decode(anchor)[0]
                    anchored = True
            if not anchored:
                # excluded terms gate candidates (tf_for supplies their
                # presence) but never SOURCE them: a doc reachable only
                # through an excluded term fails evaluate() by
                # construction, and seeding it would drag the other hot
                # terms' targeted decodes across its scattered blocks
                # (`hot -mid` at 10M docs: ~21% of the hot term's blocks
                # decoded just to score docs the NOT gate then dropped)
                cand_parts = [
                    full_decode(t)[0] for t in rare_terms if t not in excluded
                ]
                cand = (
                    np.unique(np.concatenate(cand_parts))
                    if cand_parts
                    else np.empty(0, dtype=np.uint64)
                )

        def tf_for(t: str, cand_arr: np.ndarray) -> np.ndarray:
            ids, tfs = full_decode(t)
            pos = np.searchsorted(ids, cand_arr)
            pos_c = np.minimum(pos, len(ids) - 1) if len(ids) else pos
            arr = np.zeros(len(cand_arr), dtype=np.int64)
            if len(ids):
                hit = ids[pos_c] == cand_arr
                arr[hit] = tfs[pos_c[hit]]
            return arr

        if spec.need_fill:
            # zero-match docs are included at score 0: decode everything
            # (these queries — only-excluded / field-only — are rare and
            # inherently corpus-wide)
            for t in hot_terms:
                full_decode(t)
            hot_terms, rare_terms = [], q_terms
            cand_parts = [full_decode(t)[0] for t in q_terms]
            cand = (
                np.unique(np.concatenate(cand_parts))
                if cand_parts
                else np.empty(0, dtype=np.uint64)
            )

        def gate(tf_arrays_: dict, scores_: np.ndarray, inc_: np.ndarray):
            """Reference-CLI composition: boolean evaluate() gates the
            candidates, scoring ranks the survivors."""
            present = {t: (a > 0) for t, a in tf_arrays_.items()}
            return scores_, inc_ & eval_mask(plan.ast, present, len(inc_))

        def _block_bounds():
            """(blk_lasts, blk_self, blk_mdl) for every hot term:
            per-block last doc id, idf * impact(blk_max_tf, blk_min_dlen)
            upper bound, and the per-block min doc_len itself."""
            bl: dict[str, np.ndarray] = {}
            bs: dict[str, np.ndarray] = {}
            bm: dict[str, np.ndarray] = {}
            for t in hot_terms:
                i = by_term[t]
                bl[t] = np.frombuffer(blk_last[i], dtype=np.uint64)
                maxtf_f = np.frombuffer(blk_maxtf[i], dtype=np.uint8)
                maxtf_f = maxtf_f.astype(np.float64)
                mindl_f = np.maximum(
                    np.frombuffer(blk_mindl[i], dtype=np.uint32), 1
                ).astype(np.float64)
                bm[t] = mindl_f
                if s_avgdl <= 0:
                    bs[t] = np.zeros(len(maxtf_f))
                else:
                    bs[t] = spec.idfs.get(t, 0.0) * impact(
                        maxtf_f, mindl_f, s_avgdl
                    )
            return bl, bs, bm

        if required_kws or not hot_terms:
            tf_arrays = {t: tf_for(t, cand) for t in q_terms}
            scores, included = gate(
                tf_arrays,
                *score_ast(
                    plan.ast, tf_arrays, doc_len_all[cand], s_avgdl, spec.idfs
                ),
            )
        elif anchored and k > 0 and len(cand) > 2 * ANCHOR_REFINE_BATCH:
            # Anchored refinement: a near-HOT_DF anchor has thousands of
            # candidates scattered across most of the hot terms' blocks,
            # so decoding "the blocks the candidates touch" up front is
            # a near-full decode. Instead process candidates in
            # descending OPTIMISTIC-score order — exact rare/anchor
            # contributions plus each hot term's per-block upper bound —
            # and stop once every remaining candidate's optimistic score
            # is below theta (the kth exact gated score): those
            # candidates are provably outside the top-k and the hot
            # blocks only they touch are never decoded.
            blk_lasts, blk_self, _ = _block_bounds()
            dl_cand = doc_len_all[cand]
            tf_rare = {t: tf_for(t, cand) for t in rare_terms}
            rare_part, _ = score_ast(
                plan.ast, tf_rare, dl_cand, s_avgdl, spec.idfs
            )
            opt = rare_part.copy()
            blk_of: dict[str, np.ndarray] = {}
            for t in hot_terms:
                b = np.searchsorted(blk_lasts[t], cand)
                blk_of[t] = b
                inside = b < len(blk_lasts[t])
                opt[inside] += blk_self[t][b[inside]]
            order = np.argsort(-opt, kind="stable")
            theta = -np.inf
            parts_s: list[np.ndarray] = []
            parts_i: list[np.ndarray] = []
            parts_p: list[np.ndarray] = []
            decoded: dict[str, np.ndarray] = {
                t: np.empty(0, dtype=np.int64) for t in hot_terms
            }
            p0 = 0
            while p0 < len(order):
                if theta > -np.inf and opt[order[p0]] < theta:
                    break
                bidx = order[p0 : p0 + ANCHOR_REFINE_BATCH]
                p0 += len(bidx)
                bc = cand[bidx]
                tf_b = {t: tf_rare[t][bidx] for t in rare_terms}
                for t in hot_terms:
                    i = by_term[t]
                    n = int(dfs[i])
                    need = np.unique(blk_of[t][bidx])
                    need = need[need < len(blk_lasts[t])]
                    decoded[t] = np.union1d(decoded[t], need)
                    ids_sel, pos_sel = decode_selected_blocks(
                        payloads[i], n, decoded[t]
                    )
                    tfs_sel = unpack_tf(tf_bits[i], n)[pos_sel]
                    arr = np.zeros(len(bc), dtype=np.int64)
                    if len(ids_sel):
                        p2 = np.searchsorted(ids_sel, bc)
                        p2c = np.minimum(p2, len(ids_sel) - 1)
                        hit = ids_sel[p2c] == bc
                        arr[hit] = tfs_sel[p2c[hit]]
                    tf_b[t] = arr
                s_b, inc_b = gate(
                    tf_b,
                    *score_ast(
                        plan.ast, tf_b, dl_cand[bidx], s_avgdl, spec.idfs
                    ),
                )
                if fmask is not None:
                    inc_b = inc_b & fmask[bc.astype(np.int64)]
                parts_s.append(s_b)
                parts_i.append(inc_b)
                parts_p.append(bidx)
                vals = np.concatenate(parts_s)[np.concatenate(parts_i)]
                if len(vals) >= k:
                    theta = np.partition(vals, -k)[-k]
            for t in hot_terms:
                PRUNE_STATS["hot_blocks_total"] += len(blk_lasts[t])
                PRUNE_STATS["hot_blocks_decoded"] += len(decoded[t])
                PRUNE_STATS["hot_terms"] += 1
            PRUNE_STATS["anchored_refined"] += 1
            cand = cand[np.concatenate(parts_p)]
            scores = np.concatenate(parts_s)
            included = np.concatenate(parts_i)
        else:
            # Phase A: rare candidates exact (hot tf via targeted blocks).
            hot_blocks_needed: dict[str, np.ndarray] = {}
            hot_data: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for t in hot_terms:
                i = by_term[t]
                n = int(dfs[i])
                last = np.frombuffer(blk_last[i], dtype=np.uint64)
                need = (
                    np.unique(np.searchsorted(last, cand))
                    if len(cand)
                    else np.empty(0, dtype=np.int64)
                )
                need = need[need < len(last)]
                hot_blocks_needed[t] = need
                ids_sel, pos_sel = decode_selected_blocks(payloads[i], n, need)
                tf_all = unpack_tf(tf_bits[i], n)
                hot_data[t] = (ids_sel, tf_all[pos_sel])
                if anchored:
                    # Phase B is skipped on the anchor path — these
                    # targeted decodes ARE the term's total block cost
                    PRUNE_STATS["hot_blocks_total"] += len(last)
                    PRUNE_STATS["hot_blocks_decoded"] += len(need)
                    PRUNE_STATS["hot_terms"] += 1

            def tf_hot(t: str, cand_arr: np.ndarray) -> np.ndarray:
                ids_sel, tfs_sel = hot_data[t]
                arr = np.zeros(len(cand_arr), dtype=np.int64)
                if len(ids_sel):
                    pos = np.searchsorted(ids_sel, cand_arr)
                    pos_c = np.minimum(pos, len(ids_sel) - 1)
                    hit = ids_sel[pos_c] == cand_arr
                    arr[hit] = tfs_sel[pos_c[hit]]
                return arr

            tf_arrays = {t: tf_for(t, cand) for t in rare_terms}
            tf_arrays.update({t: tf_hot(t, cand) for t in hot_terms})
            scores, included = gate(
                tf_arrays,
                *score_ast(
                    plan.ast, tf_arrays, doc_len_all[cand], s_avgdl, spec.idfs
                ),
            )
            if not anchored:
                # Phase B: hot-only candidates via block-max pruning.
                # Skipped entirely on the anchor path: every matching doc
                # contains the anchor keyword, so cand is already a
                # complete candidate superset.
                inc = (
                    included
                    if fmask is None
                    else (included & fmask[cand.astype(np.int64)])
                )
                inc_scores = scores[inc]
                if len(inc_scores) >= k:
                    theta = np.partition(inc_scores, -k)[-k]
                else:
                    theta = -np.inf
                # Per-term block bounds: TF is capped at 2 so
                # blk_max_tf saturates on hot terms, leaving doc_len as
                # the only lever, and impact() is monotone decreasing in
                # it — the blk_mindl sidecar makes the bound sharp under
                # impact-ordered ids.
                blk_lasts, blk_self, blk_mdls = _block_bounds()
                ub_global = {
                    t: (float(b.max()) if len(b) else 0.0)
                    for t, b in blk_self.items()
                }

                def _others_vec(t: str, mindl_arr: np.ndarray) -> np.ndarray:
                    """Cross-term bound per block of ``t``: every term
                    shares the impact-ordered id axis, so a doc in one of
                    t's blocks has doc_len >= that block's min and every
                    OTHER term's contribution is bounded by
                    idf_u * impact(max_tf_u, blk_mindl) — take the min
                    with u's own max block bound (both are valid). This
                    is what lets a low-idf hot term's blocks prune on a
                    high-idf partner: the partner's bound DROPS along the
                    long-doc tail instead of staying at its global max."""
                    tot = np.zeros(len(mindl_arr))
                    for u in hot_terms:
                        if u == t:
                            continue
                        if s_avgdl <= 0:
                            tot += ub_global[u]
                            continue
                        cross = spec.idfs.get(u, 0.0) * impact(
                            float(max_tfs[by_term[u]]), mindl_arr, s_avgdl
                        )
                        tot += np.minimum(ub_global[u], cross)
                    return tot

                def _tf_from_blocks(
                    t: str, blocks: np.ndarray, cand_arr: np.ndarray
                ) -> np.ndarray:
                    i2 = by_term[t]
                    n2 = int(dfs[i2])
                    ids_sel, pos_sel = decode_selected_blocks(
                        payloads[i2], n2, blocks
                    )
                    tfs_sel = unpack_tf(tf_bits[i2], n2)[pos_sel]
                    arr = np.zeros(len(cand_arr), dtype=np.int64)
                    if len(ids_sel):
                        pos = np.searchsorted(ids_sel, cand_arr)
                        pos_c = np.minimum(pos, len(ids_sel) - 1)
                        hit = ids_sel[pos_c] == cand_arr
                        arr[hit] = tfs_sel[pos_c[hit]]
                    return arr

                if theta == -np.inf and k > 0:
                    # WAND-style theta seeding for hot-only queries: no
                    # rare/anchor candidates means no threshold, and
                    # Phase B would decode every block of every hot
                    # term. Instead, decode the best-BOUND blocks of one
                    # hot term first, score those docs exactly (targeted
                    # decodes for the other hot terms), and seed theta
                    # with their gated kth score. With impact-ordered
                    # local ids the best-bound blocks are the short-doc
                    # prefix — where the final top-k lives — so the
                    # seeded theta lands near the true kth score and the
                    # long-doc tail of every hot term is skipped below.
                    t0 = min(hot_terms, key=lambda u: len(blk_lasts[u]))
                    i0 = by_term[t0]
                    n0 = int(dfs[i0])
                    nblk0 = len(blk_lasts[t0])
                    order0 = np.argsort(
                        -(blk_self[t0] + _others_vec(t0, blk_mdls[t0])),
                        kind="stable",
                    )
                    m = max(1, -(-4 * k // CODEC_BLOCK))
                    taken = 0
                    seed_blocks = np.empty(0, dtype=np.int64)
                    while theta == -np.inf and taken < nblk0:
                        seed_blocks = np.union1d(
                            seed_blocks, order0[taken : taken + m]
                        )
                        taken += m
                        m *= 2
                        sids, spos = decode_selected_blocks(
                            payloads[i0], n0, seed_blocks
                        )
                        if not len(sids):
                            continue
                        tf_seed = {
                            t0: unpack_tf(tf_bits[i0], n0)[spos].astype(
                                np.int64
                            )
                        }
                        for t in hot_terms:
                            if t == t0:
                                continue
                            lastt = blk_lasts[t]
                            need2 = np.unique(
                                np.searchsorted(lastt, sids)
                            )
                            need2 = need2[need2 < len(lastt)]
                            hot_blocks_needed[t] = np.union1d(
                                hot_blocks_needed[t], need2
                            )
                            tf_seed[t] = _tf_from_blocks(t, need2, sids)
                        for t in rare_terms:
                            tf_seed[t] = tf_for(t, sids)
                        s3, inc3 = gate(
                            tf_seed,
                            *score_ast(
                                plan.ast,
                                tf_seed,
                                doc_len_all[sids],
                                s_avgdl,
                                spec.idfs,
                            ),
                        )
                        if fmask is not None:
                            inc3 = inc3 & fmask[sids.astype(np.int64)]
                        sc3 = s3[inc3]
                        if len(sc3) >= k:
                            theta = np.partition(sc3, -k)[-k]
                    hot_blocks_needed[t0] = np.union1d(
                        hot_blocks_needed[t0], seed_blocks
                    )
                extra_parts = []
                for t in hot_terms:
                    i = by_term[t]
                    n = int(dfs[i])
                    last = blk_lasts[t]
                    ub_blocks = blk_self[t] + _others_vec(t, blk_mdls[t])
                    keep = (
                        np.flatnonzero(ub_blocks >= theta)
                        if theta > -np.inf
                        else np.arange(len(last))
                    )
                    keep = np.union1d(keep, hot_blocks_needed[t])
                    PRUNE_STATS["hot_blocks_total"] += len(last)
                    PRUNE_STATS["hot_blocks_decoded"] += len(keep)
                    PRUNE_STATS["hot_terms"] += 1
                    ids_sel, pos_sel = decode_selected_blocks(
                        payloads[i], n, keep
                    )
                    tf_all = unpack_tf(tf_bits[i], n)
                    hot_data[t] = (ids_sel, tf_all[pos_sel])
                    extra_parts.append(ids_sel)
                extra = (
                    np.unique(np.concatenate(extra_parts))
                    if extra_parts
                    else np.empty(0, np.uint64)
                )
                if len(cand):
                    extra = extra[~np.isin(extra, cand, assume_unique=True)]
                if len(extra):
                    tf2 = {t: tf_for(t, extra) for t in rare_terms}
                    tf2.update({t: tf_hot(t, extra) for t in hot_terms})
                    s2, inc2 = gate(
                        tf2,
                        *score_ast(
                            plan.ast,
                            tf2,
                            doc_len_all[extra],
                            s_avgdl,
                            spec.idfs,
                        ),
                    )
                    cand = np.concatenate([cand, extra])
                    scores = np.concatenate([scores, s2])
                    included = np.concatenate([included, inc2])

        if fmask is not None and len(cand):
            included = included & fmask[cand.astype(np.int64)]
        kept = cand[included]
        kept_scores = scores[included]
        if len(kept):
            # top-k by (-score, repo, path): cut to the tie-window at the
            # k-th score, then break ties with strings.
            if len(kept) > k:
                order = np.argsort(-kept_scores, kind="stable")
                kth = kept_scores[order[k - 1]]
                s_sorted = kept_scores[order]
                cnt = int(np.searchsorted(-s_sorted, -kth, side="right"))
                sel = order[:cnt]
                kept, kept_scores = kept[sel], kept_scores[sel]
            take = stats.take(pa.array(kept.astype(np.int64)))
            repo_arr = np.asarray(take.column("repo").to_pylist(), dtype=object)
            path_arr = np.asarray(take.column("path").to_pylist(), dtype=object)
            order = np.lexsort((path_arr, repo_arr, -kept_scores))[:k]
            emit(spec.name, kept_scores[order], kept[order])

        if spec.need_fill:
            # zero-match docs (no query term present) => score 0, included.
            nloc = len(doc_len_all)
            in_cand = np.zeros(nloc, dtype=bool)
            if len(cand):
                in_cand[cand.astype(np.int64)] = True
            fill_ids = np.flatnonzero(~in_cand)
            if fmask is not None:
                fill_ids = fill_ids[fmask[fill_ids]]
            if len(fill_ids):
                take = stats.take(pa.array(fill_ids))
                repo_arr = np.asarray(
                    take.column("repo").to_pylist(), dtype=object
                )
                path_arr = np.asarray(
                    take.column("path").to_pylist(), dtype=object
                )
                order = np.lexsort((path_arr, repo_arr))[:k]
                emit(
                    spec.name,
                    np.zeros(len(order), dtype=np.float64),
                    fill_ids[order].astype(np.uint64),
                )

    return pa.table(
        {
            "query": pa.array(out_rows["query"], pa.string()),
            "score": pa.array(out_rows["score"], pa.float64()),
            "repo": pa.array(out_rows["repo"], pa.string()),
            "path": pa.array(out_rows["path"], pa.string()),
            "commit": pa.array(out_rows["commit"], pa.string()),
            "lang": pa.array(out_rows["lang"], pa.string()),
            "sha256": pa.array(out_rows["sha256"], pa.string()),
            "doc_len": pa.array(out_rows["doc_len"], pa.int32()),
        }
    )


class SegmentWorker:
    """Stateful query actor owning a static set of (member, wave,
    subshard) segments, ``member`` indexing ``index_dirs``. Docstats are
    held in memory, with each segment's deleted-doc mask: its docs whose
    key is in ``tombstones[member]`` (given once, at construction).
    Postings, units, unit grams and doc stores (the hybrid path's
    candidate reads) go through one SortedParquet handle per segment
    file, opened on first use and sharing the worker's row-group LRU
    (ROW_GROUP_CACHE_BYTES)."""

    def __init__(self, index_dirs: list[str], parts: list[tuple[int, int, int]],
                 avgdl: float, tombstones: list[frozenset[str]] | None = None):
        self.index_dirs = index_dirs
        self.parts = parts
        self.avgdl = avgdl
        self._row_groups = _RowGroupLRU(ROW_GROUP_CACHE_BYTES)
        self._files: dict[tuple[str, int, int, int], SortedParquet] = {}
        self._docstats = {
            (m, w, s): pq.read_table(_docstats_path(index_dirs[m], w, s))
            for m, w, s in parts
        }
        # per segment: its tombstoned rows, None when it has none
        self._deleted: dict[tuple[int, int, int], np.ndarray | None] = {}
        for seg, stats in self._docstats.items():
            live = _filter_mask(stats, {}, tombstones[seg[0]] if tombstones else None)
            self._deleted[seg] = None if live is None or live.all() else ~live

    def _file(self, kind: str, m: int, w: int, s: int) -> SortedParquet:
        h = self._files.get((kind, m, w, s))
        if h is None:
            path_fn, key = _SEGMENT_FILES[kind]
            h = SortedParquet(path_fn(self.index_dirs[m], w, s), key, self._row_groups)
            self._files[(kind, m, w, s)] = h
        return h

    def close(self) -> None:
        """Release the open segment files and the row-group cache."""
        for h in self._files.values():
            h.close()
        self._files.clear()
        self._row_groups = _RowGroupLRU(ROW_GROUP_CACHE_BYTES)

    def _postings_for(self, w: int, s: int, terms: list[str],
                      member: int = 0) -> pa.Table:
        return self._file("postings", member, w, s).read(terms)

    def candidate_stage(self, locals_by_seg: dict, stage) -> pa.Table:
        """Apply ``stage`` (a picklable batch callable) to the given docs
        ({(member, wave, subshard): distinct local ids}) of this worker's
        segments and concatenate its outputs: metadata from the docstats
        held here, the segment key, local id and deleted flag of each doc,
        and content from each segment's doc store — the hybrid path's
        candidate fan-out. ``stage`` is applied to at most DOCS_ROW_GROUP
        docs at a time (as many as one doc-store row group holds), which
        bounds the worker's heap whatever the candidate count."""
        parts = []
        for seg, ids in sorted(locals_by_seg.items()):
            m, w, s = seg
            ids = np.asarray(sorted(ids), np.int64)
            stats, store = self._docstats[seg], self._file("docs", m, w, s)
            dead = self._deleted[seg]
            for i in range(0, len(ids), DOCS_ROW_GROUP):
                chunk = ids[i : i + DOCS_ROW_GROUP]
                n = len(chunk)
                meta = stats.take(pa.array(chunk))
                docs = dict(zip(meta.column_names, meta.columns)) | {
                    "member": np.full(n, m, np.int32),
                    "wave": np.full(n, w, np.int32),
                    "subshard": np.full(n, s, np.int32),
                    "local": chunk.astype(np.int32),
                    "deleted": np.zeros(n, bool) if dead is None else dead[chunk],
                    "content": store.read(chunk.tolist(), ["content"]).column("content"),
                }
                parts.append(stage(pa.table(docs)))
        return pa.concat_tables(parts)

    def _matching_units(self, w: int, s: int, terms: list[str],
                        member: int = 0) -> list[str]:
        """Vocabulary terms of segment (member, w, s) containing any query term
        as a substring. Terms of >= 3 chars go through the build's
        trigram sidecar (units_grams/): the intersection of a term's
        trigrams' row-group sets is a no-false-negative candidate set,
        so only those row groups of the unit vocabulary are read and
        substring-verified — sublinear in vocabulary size. Shorter terms
        take a substring pass over the whole vocabulary (its row groups go
        through the worker's row-group LRU)."""
        pruned = [t for t in terms if len(t) >= 3]
        full = [t for t in terms if t not in pruned]
        matched: set[str] = set()
        if pruned:
            grams = sorted({t[j : j + 3] for t in pruned for j in range(len(t) - 2)})
            gt = self._file("units_grams", member, w, s).read(grams)
            g2rg: dict[str, set[int]] = {}
            for g, rg in zip(
                gt.column("gram").to_pylist(), gt.column("rg").to_pylist()
            ):
                g2rg.setdefault(g, set()).add(rg)
            need_rgs: dict[int, list[str]] = {}
            for t in pruned:
                sets = [
                    g2rg.get(t[j : j + 3], set()) for j in range(len(t) - 2)
                ]
                cand = set.intersection(*sets) if sets else set()
                for rg in cand:
                    need_rgs.setdefault(rg, []).append(t)
            units = self._file("units", member, w, s)
            for rg in sorted(need_rgs):
                vocab_rg = units.row_group(rg, ["term"]).column(
                    "term"
                ).combine_chunks()
                mask = None
                for t in need_rgs[rg]:
                    m = pc.match_substring(vocab_rg, t, ignore_case=True)
                    mask = m if mask is None else pc.or_(mask, m)
                idxs = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
                if len(idxs):
                    matched.update(vocab_rg.take(pa.array(idxs)).to_pylist())
        if full:
            vocab = (
                self._file("units", member, w, s)
                .read_all(["term"])
                .column("term")
                .combine_chunks()
            )
            mask = None
            for t in full:
                m = pc.match_substring(vocab, t, ignore_case=True)
                mask = m if mask is None else pc.or_(mask, m)
            idxs = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
            if len(idxs):
                matched.update(vocab.take(pa.array(idxs)).to_pylist())
        return sorted(matched)

    def unit_candidates(
        self,
        terms: list[str],
        ctx_sets: list[frozenset] | None = None,
    ) -> pa.Table:
        """Distinct docs (member, wave, subshard, local, repo, path,
        doc_len) of this worker's segments whose content or path contains
        any of ``terms`` (lowercased alnum-only special terms) as a case-
        insensitive substring — answered from the build's unit-postings
        files (index/build.py UNIT_PREFIX), no corpus read. Per segment:
        a trigram-pruned (or, for terms under 3 chars, full) pass over the
        unit vocabulary (_matching_units), then a term-pruned parquet read
        of just the matching units' payloads.

        ``ctx_sets``: the queries' special-term tokenization contexts.
        Units are case-preserved raw tokens, so ``_expand_token(unit, ctx) != default`` decides
        EXACTLY whether docs holding the unit can re-tokenize under a
        context — substring-matched units whose expansion is identical
        under every context are dropped before any payload/doc read
        (e.g. an excluded term that tokenizes to itself whole matches
        thousands of docs as a substring but changes none of them)."""
        changed_cache: dict[str, bool] = {}

        def changes(u: str) -> bool:
            hit = changed_cache.get(u)
            if hit is None:
                from probe_ray.tokenize.tokenizer import (
                    _expand_token,
                    _expand_token_default,
                )

                d = _expand_token_default(u)
                hit = changed_cache[u] = any(
                    _expand_token(u, cs) != d for cs in ctx_sets
                )
            return hit

        out: list[pa.Table] = []
        for m, w, s in self.parts:
            matched = self._matching_units(w, s, terms, m)
            if matched and ctx_sets is not None:
                matched = [u for u in matched if changes(u)]
            # every segment adds a (possibly empty) typed table
            got = self._file("units", m, w, s).read(matched, ["df", "payload"])
            dfs = got.column("df").to_numpy()
            locals_: list[np.ndarray] = [np.empty(0, np.uint64)] + [
                decode_varint_deltas(p, int(n))
                for p, n in zip(got.column("payload").to_pylist(), dfs)
            ]
            ids = np.unique(np.concatenate(locals_)).astype(np.int32)
            take = self._docstats[(m, w, s)].take(pa.array(ids))
            out.append(pa.table({
                "member": np.full(len(ids), m, np.int32),
                "wave": np.full(len(ids), w, np.int32),
                "subshard": np.full(len(ids), s, np.int32),
                "local": ids,
                **{c: take.column(c) for c in ("repo", "path", "doc_len")},
            }))
        return pa.concat_tables(out)

    def prune_stats(self, reset: bool = False) -> dict:
        """This worker process' accumulated block-max pruning counters."""
        out = dict(PRUNE_STATS)
        if reset:
            for key in PRUNE_STATS:
                PRUNE_STATS[key] = 0
        return out

    def search(self, specs: list[_QuerySpec], k: int) -> pa.Table:
        all_terms = sorted({t for sp in specs for t in sp.plan.term_indices})
        tables = []
        for seg in self.parts:
            m, w, s = seg
            tables.append(
                score_segment(
                    self._postings_for(w, s, all_terms, m),
                    stats=self._docstats[seg],
                    specs=specs,
                    k=k,
                    avgdl=self.avgdl,
                    seg=seg,
                    deleted=self._deleted[seg],
                )
            )
        return pa.concat_tables(tables)


class _DfDict:
    """Cached df lookups over the sorted term dictionary.

    The dictionary is written by a SORTED Dataset as N sharded parquet
    files whose term ranges partition the key space; the generic
    ``lookup_df`` opens every shard per call, which measured 1.3 s/query
    at 20M terms / 200 shards (the 10M-doc rehearsal's bottleneck #1).
    Here each shard is one SortedParquet handle, opened on the first
    lookup: its footer bounds send every term to the row groups that can
    hold it, in at most one or two shards. Entries are cached positive
    AND negative (the index is immutable, so they never invalidate)."""

    CACHE_MAX = 65536

    def __init__(self, dict_dir: str):
        self._dir = dict_dir
        self._shards: list[SortedParquet] | None = None
        self._cache: dict[str, int] = {}
        # the shard handles are not safe to read from two threads at once
        self._lock = threading.Lock()

    def lookup(self, terms: list[str]) -> dict[str, int]:
        # answered from values read here, never re-read from the cache,
        # which another thread may clear meanwhile
        df = {t: self._cache.get(t) for t in terms}
        missing = [t for t, v in df.items() if v is None]
        if missing:
            with self._lock:
                if self._shards is None:
                    self._shards = [
                        SortedParquet(os.path.join(self._dir, f), "term")
                        for f in sorted(os.listdir(self._dir))
                        if f.endswith(".parquet")
                    ]
                got = [sh.read(missing, ["term", "df"]) for sh in self._shards]
            found = {
                term: int(n)
                for t in got
                for term, n in zip(
                    t.column("term").to_pylist(), t.column("df").to_pylist()
                )
            }
            if len(self._cache) > self.CACHE_MAX:
                self._cache.clear()
            for t in missing:
                df[t] = self._cache[t] = found.get(t, 0)  # 0: negative entry
        return {t: n for t, n in df.items() if n > 0}

    def close(self) -> None:
        with self._lock:
            for sh in self._shards or []:
                sh.close()
            self._shards = None


class IndexReader:
    """Driver-side handle over one built index dir, or a list of them
    (members), served by one persistent query actor pool over every
    member's segments (created lazily on first search).

    Scoring statistics are the members' sums (N, token count, df), with
    avgdl from the sums, so every result is bit-identical to a single
    index built over the union corpus (pinned in tests/test_federated.py)
    — the per-tenant / per-shard layout, where each shard is built
    independently and nothing is rebuilt to add one.

    ``tombstone_scope`` decides which deletes mask a member's segments:
    - "global" (default): the union of all members' tombstones — a
      delete in one member deletes everywhere (disjoint-shard layout);
    - "member": only the member's own — the Lucene-segment upsert layout
      (index/upsert.py): an update tombstones the old version in the
      member that holds it and appends a delta member with the new one,
      so the same (repo, path) may exist in two members with exactly
      one visible.
    Tombstones are loaded once, at open. Outside the upsert layout the
    members are assumed to hold disjoint (repo, path) keys: a key live in
    two members is returned once per member."""

    def __init__(
        self,
        index_dirs: str | list[str],
        num_workers: int | None = None,
        tombstone_scope: str = "global",
    ):
        from probe_ray.index.tombstones import load_tombstones

        dirs = [index_dirs] if isinstance(index_dirs, str) else list(index_dirs)
        if not dirs:
            raise ValueError("IndexReader needs at least one index dir")
        if tombstone_scope not in ("global", "member"):
            raise ValueError(
                f"tombstone_scope must be 'global' or 'member', "
                f"got {tombstone_scope!r}"
            )
        self.index_dirs = dirs
        self.tombstone_scope = tombstone_scope
        self.manifests = []
        for d in dirs:
            with open(os.path.join(d, "manifest.json")) as f:
                m = json.load(f)
            built = m.get("engine_version", 0)
            if built < MIN_ENGINE_VERSION:
                raise ValueError(
                    f"{d} was built by engine {built}; this reader "
                    f"needs engine {MIN_ENGINE_VERSION} or later — rebuild it"
                )
            self.manifests.append(m)
        self.n_docs = sum(m["n_docs"] for m in self.manifests)
        self.n_tokens = sum(int(m["n_tokens"]) for m in self.manifests)
        self.avgdl = (self.n_tokens / self.n_docs) if self.n_docs else 0.0
        self._num_workers = num_workers
        self._workers: list | None = None
        self._df_dicts = [_DfDict(os.path.join(d, "dict")) for d in dirs]
        # deleted (repo, path) keys, per member; each worker masks its
        # segments with them. Stats stay corpus-global (tombstones.py).
        own = [load_tombstones(d) for d in dirs]
        self.tombstones: frozenset[str] = frozenset().union(*own)
        self._masks = own if tombstone_scope == "member" else [self.tombstones] * len(dirs)
        # hybrid.py's per-context candidate tables (an LRU) and its lock
        self._hybrid_ctx_cache: OrderedDict = OrderedDict()
        self._hybrid_ctx_lock = threading.Lock()

    @property
    def manifest(self) -> dict:
        return self.manifests[self._single()]

    @property
    def index_dir(self) -> str:
        return self.index_dirs[self._single()]

    def _single(self) -> int:
        """0 for a reader over one index dir. ``manifest`` and
        ``index_dir`` go through it, and so do the routes that read the
        raw corpus through ``manifest["input_files"]`` (the
        ``exclude_filenames`` scan, the hybrid scan fallback): they
        refuse a reader over several dirs."""
        if len(self.index_dirs) > 1:
            raise ValueError(
                f"this reader spans {len(self.index_dirs)} index dirs; a route "
                "that reads the raw corpus needs a reader over one index dir"
            )
        return 0

    def df_lookup(self, terms: list[str]) -> dict[str, int]:
        """Cached per-term document frequencies (see _DfDict), summed
        over the members."""
        out: dict[str, int] = {}
        for dd in self._df_dicts:
            for t, n in dd.lookup(terms).items():
                out[t] = out.get(t, 0) + n
        return out

    def special_candidate_keys(
        self,
        terms: list[str],
        ctx_sets: list[frozenset] | None = None,
    ) -> pa.Table:
        """Distinct docs (rows of SegmentWorker.unit_candidates) whose
        content/path contains any of the given lowercased special terms —
        from the unit postings via the persistent actor pool. With
        ``ctx_sets``, only docs whose tokenization can actually CHANGE
        under some context are returned (exact per-unit filter; see
        SegmentWorker.unit_candidates)."""
        import ray

        self._ensure_workers()
        futs = [w.unit_candidates.remote(terms, ctx_sets) for w in self._workers]
        return pa.concat_tables(ray.get(futs))

    def candidate_stage_fanout(self, keys: pa.Table, stage) -> pa.Table:
        """Run ``stage`` over the candidate docs ``keys`` (rows of
        special_candidate_keys) on the workers that own their segments:
        each owning worker gets one call with its segments' local ids and
        reads the docs from the index (SegmentWorker.candidate_stage).
        Latency is the slowest worker's share + one RPC round — no
        Dataset pipeline launch, no corpus read, and no CPU needed beyond
        those the pool already holds."""
        import ray

        self._ensure_workers()
        n = len(self._workers)
        owner = {p: i % n for i, p in enumerate(self._parts())}
        calls: dict[int, dict[tuple[int, int, int], list[int]]] = {}
        for *seg, loc in zip(*(keys.column(c).to_pylist()
                               for c in ("member", "wave", "subshard", "local"))):
            seg = tuple(seg)
            calls.setdefault(owner[seg], {}).setdefault(seg, []).append(loc)
        futs = [
            self._workers[i].candidate_stage.remote(segs, stage)
            for i, segs in sorted(calls.items())
        ]
        return pa.concat_tables(ray.get(futs))

    def _parts(self) -> list[tuple[int, int, int]]:
        """Every (member, wave, subshard) segment of the reader."""
        return [
            (m, int(wm["wave"]), int(sm["subshard"]))
            for m, manifest in enumerate(self.manifests)
            for wm in manifest["waves"]
            for sm in wm.get("subshards", [])
        ]

    def _ensure_workers(self):
        if self._workers is not None:
            return
        import ray

        parts = self._parts()
        n = self._num_workers
        if n is None:
            n = max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)
        n = max(1, min(n, len(parts)))
        # Fractional reservation: query actors are bursty, and a pool that
        # pins whole CPUs can starve concurrent Dataset jobs (index builds)
        # on the same cluster. One pool however many members: its size
        # never grows with the member count.
        Remote = ray.remote(num_cpus=0.5)(SegmentWorker)
        self._workers = [
            Remote.remote(self.index_dirs, parts[i::n], self.avgdl, self._masks)
            for i in range(n)
        ]

    def _send_specs(self, specs: list[_QuerySpec], k: int) -> list:
        """Send one round of query specs to the persistent actor pool
        (one ray.put, one search task per worker); returns the tasks'
        refs, each resolving to per-segment top-k rows (RESULT_COLS)."""
        import ray

        self._ensure_workers()
        specs_ref = ray.put(specs)
        return [w.search.remote(specs_ref, k) for w in self._workers]

    def _run_specs(self, specs: list[_QuerySpec], k: int) -> pa.Table:
        """Run query specs through the persistent actor pool; returns the
        concatenated per-segment top-k rows (columns RESULT_COLS)."""
        import ray

        return pa.concat_tables(ray.get(self._send_specs(specs, k)))

    def prune_stats(self, reset: bool = False) -> dict:
        """Aggregate block-max pruning counters across the actor pool
        (plus this process, for the scalar paths). ``reset`` zeroes the
        counters after reading — the rehearsal harness brackets a query
        batch with reset/read to report per-batch skipped-block ratios."""
        import ray

        totals = dict(PRUNE_STATS)
        if reset:
            for key in PRUNE_STATS:
                PRUNE_STATS[key] = 0
        if self._workers:
            for st in ray.get(
                [w.prune_stats.remote(reset) for w in self._workers]
            ):
                for key, v in st.items():
                    totals[key] = totals.get(key, 0) + v
        return totals

    def explain(self, query: str, with_candidates: bool = True) -> dict:
        """Query EXPLAIN: which execution path the query takes and the
        statistics that drive it — no scoring work is done (except the
        optional unit-candidate count for special-term queries, which is
        the hybrid path's own cheap first stage).

        Keys: path ("index" | "hybrid" | "invalid" | "too_many_terms"),
        terms, special_terms, only_excluded_fill, per-term df/idf (summed
        over the members), n_docs/avgdl/segments/tombstones,
        federated_members (the number of index dirs), tombstone_scope,
        and for hybrid queries the unit-candidate count: the docs whose
        content or path holds a special term, an upper bound on the docs
        the hybrid path reads from the doc stores and re-tokenizes (it
        drops those whose tokenization the special terms leave unchanged,
        and falls back to the exhaustive scan past SCAN_FALLBACK_ABS
        candidate rows)."""
        out: dict = {
            "query": query,
            "n_docs": self.n_docs,
            "avgdl": self.avgdl,
            "segments": len(self._parts()),
            "tombstones": len(self.tombstones),
            "federated_members": len(self.index_dirs),
            "tombstone_scope": self.tombstone_scope,
        }
        try:
            plan = create_query_plan(query)
        except Exception as e:
            out.update(path="invalid", error=str(e))
            return out
        terms = sorted(plan.term_indices)
        out["terms"] = terms
        out["special_terms"] = sorted(plan.special_terms)
        out["only_excluded_fill"] = is_only_excluded_terms(plan.ast)
        if len(plan.term_indices) > MAX_QUERY_TERMS:
            out["path"] = "too_many_terms"
            return out
        df = self.df_lookup(terms)
        out["df"] = df
        out["idf"] = {
            t: idf_fn(self.n_docs, df[t]) for t in terms if df.get(t, 0) > 0
        }
        if plan.special_terms:
            out["path"] = "hybrid"
            if with_candidates:
                cand = self.special_candidate_keys(
                    [t.lower() for t in plan.special_terms]
                )
                out["unit_candidates"] = cand.num_rows
        else:
            out["path"] = "index"
        return out

    def search_dataset(self, query: str, k: int = 10, **kw):
        """search() returning a ray.data.Dataset — for composing results
        into downstream Dataset pipelines (write_parquet, joins, ...)."""
        import ray.data

        return ray.data.from_arrow(self.search(query, k=k, **kw))

    def close(self):
        """Kill the query actor pool (frees its reserved resources) and
        close the dictionaries' file handles."""
        import ray

        for w in self._workers or []:
            ray.kill(w)
        self._workers = None
        for dd in self._df_dicts:
            dd.close()

    def search(self, query: str, k: int = 10,
               filters: dict[str, str] | None = None,
               max_total_tokens: int | None = None,
               exact: bool = False,
               exclude_filenames: bool = False) -> pa.Table:
        return self.search_many(
            {"q": query}, k, filters={"q": filters or {}},
            max_total_tokens=max_total_tokens,
            exact=exact, exclude_filenames=exclude_filenames,
        )["q"]

    def search_many(
        self,
        queries: dict[str, str],
        k: int = 10,
        filters: dict[str, dict[str, str]] | None = None,
        max_total_tokens: int | None = None,
        exact: bool = False,
        exclude_filenames: bool = False,
    ) -> dict[str, pa.Table]:
        from probe_ray.search.hybrid import hybrid_search_many

        filters = filters or {}
        for fname, fs in filters.items():
            bad = set(fs) - {"repo", "path", "lang"}
            if bad:
                raise ValueError(
                    f"unknown filter field(s) {sorted(bad)} for query "
                    f"{fname!r}; valid: repo, path, lang"
                )
        plans: dict[str, QueryPlan] = {}
        special: dict[str, tuple[str, QueryPlan]] = {}
        results: dict[str, pa.Table] = {}
        valid: dict[str, str] = {}
        for name, q in queries.items():
            try:
                plan = create_query_plan(q, exact)
            except Exception:
                results[name] = _empty_result()
                continue
            if len(plan.term_indices) > MAX_QUERY_TERMS:
                results[name] = _empty_result()
            elif plan.special_terms:
                special[name] = (q, plan)
                valid[name] = q
            else:
                plans[name] = plan
                valid[name] = q

        if exclude_filenames:
            # reference --exclude-filenames (cli.rs:31): path tokens are
            # folded into the index postings (SURVEY J4 absorption), so
            # content-only matching cannot be answered from the index —
            # route every query to the exact scan path with filename
            # tokenization disabled (rare-flag queries pay corpus cost,
            # the same H2-style trade as quoted/excluded terms). It reads
            # one index's corpus, so a reader over several dirs refuses it.
            from probe_ray.search.scan import scan_search_many

            if valid:
                results.update(
                    scan_search_many(
                        self.manifest["input_files"], valid, k,
                        filters=filters, exact=exact,
                        include_filenames=False,
                        max_total_tokens=max_total_tokens,
                        exclude_keys=self.tombstones or None,
                    )
                )
            return results

        if special:
            # index-assisted special-term path (falls back to the
            # exhaustive scan only for degenerate candidate sets)
            results.update(
                hybrid_search_many(
                    self, special, k, filters=filters, exact=exact,
                    max_total_tokens=max_total_tokens,
                )
            )
        if not plans:
            return results

        all_terms = sorted({t for p in plans.values() for t in p.term_indices})
        df_global = self.df_lookup(all_terms)

        specs = []
        for name, plan in plans.items():
            idfs = {
                t: idf_fn(self.n_docs, df_global[t])
                for t in plan.term_indices
                if df_global.get(t, 0) > 0
            }
            specs.append(
                _QuerySpec(
                    name=name,
                    plan=plan,
                    idfs=idfs,
                    # zero-match docs survive evaluate() ONLY for
                    # only-excluded queries (elastic_query.rs:311 — empty
                    # matched set fails unless every term is excluded)
                    need_fill=is_only_excluded_terms(plan.ast),
                    filters=filters.get(name, {}),
                )
            )

        merged = self._run_specs(specs, k)

        for spec in specs:
            use = merged.filter(pc.equal(merged.column("query"), spec.name))
            idx = pc.sort_indices(
                use,
                sort_keys=[
                    ("score", "descending"),
                    ("repo", "ascending"),
                    ("path", "ascending"),
                ],
            )[:k]
            top = use.take(idx)
            if max_total_tokens is not None:
                # reference K2 (search_limiter.rs:22-226): stop emitting
                # results once the cumulative token budget is exhausted;
                # doc_len is the engine's token count per document
                cum = np.cumsum(top.column("doc_len").to_numpy())
                top = top.slice(0, int(np.searchsorted(cum, max_total_tokens, "right")))
            results[spec.name] = _finalize(top)
        return results


def _empty_result() -> pa.Table:
    return pa.table(
        {
            "rank": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
            "repo": pa.array([], pa.string()),
            "path": pa.array([], pa.string()),
            "commit": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "sha256": pa.array([], pa.string()),
        }
    )


def _finalize(top: pa.Table) -> pa.Table:
    return pa.table(
        {
            "rank": pa.array(np.arange(1, top.num_rows + 1), pa.int64()),
            "score": top.column("score"),
            "repo": top.column("repo"),
            "path": top.column("path"),
            "commit": top.column("commit"),
            "lang": top.column("lang"),
            "sha256": top.column("sha256"),
        }
    )


FederatedReader = IndexReader  # the name perfbench/run.py imports
