"""Distributed inverted-index build over Ray Data.

Architecture (SURVEY.md SS4.2, re-thought Ray-Data-first rather than a port
of the reference's per-query rayon scan, search_runner.rs:215-1560):

  input parquet fragments
    -> split deterministically into WAVES (the checkpoint/lineage unit)
    -> per wave:
       read_parquet(fragments, override_num_blocks≈2xCPUs)
         -> map_batches(TokenizePartial, batch_format="pyarrow")  # stateless
              per batch emits PARTIAL POSTING RUNS — one row per
              (subshard, term): sorted doc-hash ids + tf bytes — and doc
              rows (subshard, doc_hash, repo, path, commit, lang, sha256,
              doc_len, content) — content raw, as the corpus holds it
              (never the max_content_bytes-capped text)
         -> write_parquet(tokenized/, partition_cols=["subshard"])
              the Hive-partitioned intermediate IS the exchange (shuffle
              via storage) AND the wave's resume artifact until finalize
              is recorded; tokenize runs ONCE
       -> one raw Ray task per subshard: finalize_subshard
              - doc rows: impact order -> docstats file
                (row position = dense local id) and, in the same row
                order, the doc store docs/ (local, content), zstd, in
                row groups of DOCS_ROW_GROUP — the hybrid special-term
                path reads candidates' content from it by local id
              - partial runs: ordered merge of ALL terms' sorted runs at
                once (one packed-key argsort over the exploded postings)
                -> delta+varint payload + tf bitmap + block-max metadata
                via the vectorized multi-term codec -> postings file
                sorted by term
              (these tasks overlap the NEXT wave's tokenize Dataset job;
               each reserves cpus//16 CPUs — they are memory-bandwidth
               bound, and full-width concurrency raises wall time)
       wave manifest {fragments, engine_version, n_docs, n_tokens,
                      per-subshard metrics, steps, status} written
                      atomically -> re-runs skip done waves; once it
                      records "finalized" the tokenized/ exchange is
                      deleted (nothing reads it after that).
    -> global (term, df) dictionary sorted by term (driver-side pyarrow
       aggregate under 20M rows, Ray groupby(term) above) — row-group-
       prunable idf lookups at query time; no postings scan per query.

Layout of a finished index: manifest.json, dict/, and per wave
waves/wNNNN/wave_manifest.json plus one sub-NNNN.parquet per subshard
in each of docstats/, postings/, units/, units_grams/ and docs/.

Skew: hot terms ("return", "fn", ... appear in ~every doc) never form a
shuffle group of their own — the shuffle key is the *subshard* (uniform by
doc hash), and a hot term is just a long pre-sorted run per input batch,
merged vectorized. This is the salted-partial-postings design with
salt = source batch: partial aggregation happens inside map_batches, as
one sort per batch rather than a per-key hash — the batch's (doc, term)
keys are dictionary-encoded into dense ranks, packed with subshard and
doc position into int64s, and one np.unique yields every run at once (the
term string stored once per run, ids pre-sorted, tf as the count). The
single groupby performs the ordered merge. Any one group's size is bounded
by wave_bytes / subshards — both knobs in IndexConfig, scaled so a group
fits a worker's heap at 100 TB (more waves = less memory, same total work).

Doc ids: doc_hash = first 8 bytes of sha256(repo NUL path) masked to 63
bits; dense local id = rank of doc_hash within its (wave, subshard). Final
result ordering uses (score desc, repo asc, path asc), the distributed
equivalent of the reference's (score desc, doc index asc) over its sorted
file walk (ranking.rs:406-418, search_runner.rs:1697-1741).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from probe_ray.tokenize.tokenizer import _raw_tokens, tokenize
from .codec import block_meta_multi, encode_varint_deltas_multi, pack_tf_multi

# Terms prefixed with this byte in the partial-run stream are UNIT
# postings: verbatim case-preserved maximal-alnum-run vocabulary used by the
# hybrid special-term path for index-served candidate generation (a
# dynamic special term can only change a document's tokenization if it
# is a case-insensitive substring of one of the document's alnum units —
# search/hybrid.py). Real tokens are alnum and can never start with it,
# so the prefix is collision-free and unit rows sort first.
UNIT_PREFIX = "\x00"

# Parquet row-group size for postings files: small groups => the query
# stage's term-filtered reads prune to a few row groups per term.
POSTINGS_ROW_GROUP = 2048
# Rows per row group of the per-segment doc store: a candidate read
# decodes the content of at most this many docs per candidate.
DOCS_ROW_GROUP = 256
DICT_ROW_GROUP = 16384


@dataclass
class IndexConfig:
    num_waves: int = 2
    subshards: int = 4  # per wave
    # Docs per tokenize batch. Partial-run rows per batch ~ subshards x
    # vocab, so the batch must be LARGE relative to subshards or the runs
    # degenerate to near-singletons and the shuffle carries per-row
    # overhead instead of payload. ~1k docs x ~10 KB ~ 10 MB per batch.
    tokenize_batch_size: int = 1024
    # Read-task count per wave. Default: 2x cluster CPUs. Without this, the
    # fused read->tokenize stage is capped at one task per input FILE,
    # which under-parallelizes waves with few large fragments.
    read_blocks: int | None = None
    # Mirrors the reference's 1 MB file cap (search_runner.rs:1774) when
    # set: a doc whose content is longer than this in UTF-8 bytes indexes
    # only its path tokens. Its units and doc store keep the raw content.
    max_content_bytes: int | None = None
    # Compaction support: '{repo}\x00{path}' keys dropped at tokenize time
    # (rows never enter the index). Set by compact_index from the source
    # index's tombstones; ships once per task with the config object.
    exclude_keys: frozenset[str] | None = None


def doc_hash64(repo: str, path: str) -> int:
    h = hashlib.sha256(f"{repo}\x00{path}".encode()).digest()
    return int.from_bytes(h[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


class TokenizePartial:
    """Stateless-per-batch tokenizer stage emitting partial posting runs.

    One output row per (subshard, term) per batch, in (subshard, term)
    order, with ids sorted by doc_hash (so the finalize stage's merge is an
    ordered merge of sorted runs), plus one doc row per input document
    carrying its raw content for the segment's doc store.

    The per-doc Python loop only tokenizes: it walks the docs in doc_hash
    order and appends each doc's tokens and distinct units to two flat
    lists, recording the counts per doc. The runs are then built with
    array operations over the whole batch: the keys (units prefixed with
    UNIT_PREFIX) are dictionary-encoded and ranked by one sort of the
    dictionary, each (doc, key) becomes one packed int64
    (subshard, rank, doc position), and one np.unique over those yields
    the runs in output order, each posting's tf as its count, and the run
    boundaries; the ids/tfs columns are one buffer plus offsets each.
    """

    def __init__(self, cfg: IndexConfig):
        self.cfg = cfg
        # value-set built once (sorting millions of tombstone keys per
        # batch would be pure per-batch waste during compaction)
        self._exclude_set = (
            pa.array(sorted(cfg.exclude_keys)) if cfg.exclude_keys else None
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        if self._exclude_set is not None:
            key = pc.binary_join_element_wise(
                batch.column("repo"), batch.column("path"), "\x00"
            )
            batch = batch.filter(
                pc.invert(pc.is_in(key, value_set=self._exclude_set))
            )
        repos = batch.column("repo").to_pylist()
        paths = batch.column("path").to_pylist()
        contents = batch.column("content").to_pylist()
        n = len(repos)

        doc_hashes = np.fromiter(
            (doc_hash64(r, p) for r, p in zip(repos, paths)),
            dtype=np.int64,
            count=n,
        )
        subs = ((doc_hashes >> 32) % cfg.subshards).astype(np.int32)
        # docs in doc_hash order: a doc's position is its rank in every run
        order = np.argsort(doc_hashes, kind="stable")
        terms: list[str] = []
        units: list[str] = []
        n_terms = np.empty(n, dtype=np.int64)
        n_units = np.empty(n, dtype=np.int64)
        for j, i in enumerate(order.tolist()):
            content = contents[i]
            # ONE alnum-run pass per string, shared between tokenization
            # and unit extraction — _raw_tokens' token list equals
            # _ALNUM_RUNS.findall(text) in both its branches
            raw_c = _raw_tokens(content)
            raw_p = _raw_tokens(paths[i])
            if (
                cfg.max_content_bytes is not None
                and len(content.encode("utf-8")) > cfg.max_content_bytes
            ):
                toks = []
            else:
                toks = tokenize(content, precomputed_raw=raw_c)
            # content and path token lists are each deduplicated, so a
            # term repeats at most twice: tf ∈ {1, 2}
            toks.extend(tokenize(paths[i], precomputed_raw=raw_p))
            n_terms[j] = len(toks)
            terms += toks
            # distinct CASE-PRESERVED alnum units of RAW content + path —
            # raw (pre-cap), because the hybrid path's candidate mask
            # substring-matches the raw corpus text (case-insensitively
            # at query time). Preserving case makes tokenization-change
            # detection EXACT per unit: the tokenizer operates on raw
            # tokens, so _expand_token(unit, ctx) != _expand_token(unit,
            # {}) decides precisely whether a doc holding that unit can
            # re-tokenize under a special-term context (hybrid.py)
            doc_units = set(raw_c[0])
            doc_units.update(raw_p[0])
            units += doc_units
            n_units[j] = len(doc_units)
        shas = [hashlib.sha256(c.encode()).hexdigest() for c in contents]
        doc_lens = np.empty(n, dtype=np.int32)
        doc_lens[order] = n_terms

        # one key per (doc, term) and (doc, unit) occurrence; rank = the
        # key's position in sorted order (UTF-8 byte order is code-point
        # order, so UNIT_PREFIX-keyed units rank first)
        keys = pa.concat_arrays([
            pa.array(terms, pa.string()),
            pc.binary_join_element_wise(
                UNIT_PREFIX, pa.array(units, pa.string()), ""
            ),
        ])
        doc_pos = np.arange(n, dtype=np.int64)
        pos = np.concatenate(
            [np.repeat(doc_pos, n_terms), np.repeat(doc_pos, n_units)]
        )
        enc = keys.dictionary_encode()
        by_rank = pc.sort_indices(enc.dictionary)
        nkeys = len(by_rank)
        rank = np.empty(nkeys, dtype=np.int64)
        rank[by_rank.to_numpy()] = np.arange(nkeys)
        ranked_keys = enc.dictionary.take(by_rank)
        assert cfg.subshards * max(nkeys, 1) * max(n, 1) < 2**63, "packed key"
        packed = (
            subs[order][pos].astype(np.int64) * nkeys
            + rank[enc.indices.to_numpy()]
        ) * n + pos
        # a (doc, term) pair seen in both content and path counts tf=2
        packed, tf = np.unique(packed, return_counts=True)
        run_key, pos = np.divmod(packed, max(n, 1))
        first = np.flatnonzero(np.diff(run_key, prepend=-1))
        bounds = np.r_[first, len(packed)].astype(np.int64)
        assert bounds[-1] * 8 < 2**31, "ids offsets overflow int32"
        run_sub, run_rank = np.divmod(run_key[first], max(nkeys, 1))
        npart = len(first)
        ids = doc_hashes[order][pos].astype(np.uint64)
        nulls_str = pa.nulls(npart, pa.string())
        partial = pa.table(
            {
                "subshard": pa.array(run_sub.astype(np.int32)),
                "is_doc": pa.array(np.zeros(npart, dtype=bool)),
                "term": ranked_keys.take(pa.array(run_rank)),
                "n": pa.array(np.diff(bounds)),
                "ids": _binary_from(ids.view(np.uint8), bounds * 8),
                "tfs": _binary_from(tf.astype(np.uint8), bounds),
                "doc_hash": pa.array(np.zeros(npart, dtype=np.int64)),
                "repo": nulls_str,
                "path": nulls_str,
                "commit": nulls_str,
                "lang": nulls_str,
                "sha256": nulls_str,
                "doc_len": pa.nulls(npart, pa.int32()),
                "content": nulls_str,
            }
        )
        empty_bin = pa.array([b""] * n, pa.binary())
        docs = pa.table(
            {
                "subshard": pa.array(subs),
                "is_doc": pa.array(np.ones(n, dtype=bool)),
                "term": pa.array([""] * n, pa.string()),
                "n": pa.array(np.zeros(n, dtype=np.int64)),
                "ids": empty_bin,
                "tfs": empty_bin,
                "doc_hash": pa.array(doc_hashes),
                "repo": batch.column("repo").cast(pa.string()),
                "path": batch.column("path").cast(pa.string()),
                "commit": batch.column("commit").cast(pa.string()),
                "lang": batch.column("lang").cast(pa.string()),
                "sha256": pa.array(shas, pa.string()),
                "doc_len": pa.array(doc_lens),
                "content": batch.column("content").cast(pa.string()),
            }
        )
        return pa.concat_tables([partial, docs])


def _binary_from(data: np.ndarray, offsets: np.ndarray) -> pa.Array:
    """Binary array over one contiguous uint8 buffer split at ``offsets``."""
    return pa.Array.from_buffers(
        pa.binary(),
        len(offsets) - 1,
        [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(data)],
    )


def _docstats_path(out_dir: str, wave: int, subshard: int) -> str:
    return os.path.join(
        out_dir, "waves", f"w{wave:04d}", "docstats", f"sub-{subshard:04d}.parquet"
    )


def _postings_path(out_dir: str, wave: int, subshard: int) -> str:
    return os.path.join(
        out_dir, "waves", f"w{wave:04d}", "postings", f"sub-{subshard:04d}.parquet"
    )


def _units_path(out_dir: str, wave: int, subshard: int) -> str:
    return os.path.join(
        out_dir, "waves", f"w{wave:04d}", "units", f"sub-{subshard:04d}.parquet"
    )


def _units_grams_path(out_dir: str, wave: int, subshard: int) -> str:
    return os.path.join(
        out_dir, "waves", f"w{wave:04d}", "units_grams", f"sub-{subshard:04d}.parquet"
    )


def _docs_path(out_dir: str, wave: int, subshard: int) -> str:
    return os.path.join(
        out_dir, "waves", f"w{wave:04d}", "docs", f"sub-{subshard:04d}.parquet"
    )


def _unit_trigram_sidecar(terms: list[str]) -> pa.Table:
    """(gram, rg) rows: which units-file row groups (POSTINGS_ROW_GROUP
    terms each, in term order) contain each character trigram. A term
    containing substring t contains every trigram of t, so at query time
    the intersection of t's grams' rg-sets is a no-false-negative
    candidate set — the special-term vocabulary scan reads only those
    row groups instead of the whole vocabulary (searcher.unit_candidates)."""
    gram_rg: set[tuple[str, int]] = set()
    for i, term in enumerate(terms):
        rg = i // POSTINGS_ROW_GROUP
        lt = term.lower()  # query-side match is case-insensitive
        for j in range(len(lt) - 2):
            gram_rg.add((lt[j : j + 3], rg))
    rows = sorted(gram_rg)
    return pa.table(
        {
            "gram": pa.array([g for g, _ in rows], pa.string()),
            "rg": pa.array([r for _, r in rows], pa.int32()),
        }
    )


def _write_atomic(
    table: pa.Table,
    path: str,
    row_group_size: int | None = None,
    compression: str = "snappy",
):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(
        table, tmp, row_group_size=row_group_size, compression=compression
    )
    os.replace(tmp, path)


def _flat_binary(col) -> np.ndarray:
    """Concatenated payload bytes of a (chunked) non-null binary column as
    one uint8 array — reads the Arrow offsets/values buffers directly
    instead of materializing one Python bytes object per row."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out = []
    for a in chunks:
        if len(a) == 0:
            continue
        otype = np.int64 if pa.types.is_large_binary(a.type) else np.int32
        offs = np.frombuffer(a.buffers()[1], dtype=otype)[
            a.offset : a.offset + len(a) + 1
        ]
        data = np.frombuffer(a.buffers()[2], dtype=np.uint8)
        out.append(data[offs[0] : offs[-1]])
    if not out:
        return np.empty(0, dtype=np.uint8)
    return np.concatenate(out) if len(out) > 1 else out[0].copy()


def _merge_runs(
    parts: pa.Table,
    terms: list[str],
    docmap: np.ndarray,
    perm: np.ndarray | None = None,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ordered merge of term-sorted partial runs: returns (uniq_terms,
    term_lens, term_starts, local_ids_sorted, tfs_sorted) with postings
    grouped by term and sorted by dense local id within each term.

    ``perm`` maps hash-rank (position in the sorted ``docmap``) to the
    dense local id — identity when docstats rows are hash-sorted, the
    impact-order permutation when they are (doc_len, hash)-sorted."""
    ns = parts.column("n").to_numpy()

    # unique terms + per-row term ids (rows are term-sorted): vectorized
    # run-boundary detection over the object array
    if terms:
        tarr = np.asarray(terms, dtype=object)
        new_run = np.r_[True, tarr[1:] != tarr[:-1]]
        row_tid = np.cumsum(new_run) - 1
        uniq_terms: list[str] = tarr[new_run].tolist()
    else:
        row_tid = np.empty(0, dtype=np.int64)
        uniq_terms = []
    nt = len(uniq_terms)

    exploded_ids = _flat_binary(parts.column("ids")).view(np.uint64)
    exploded_tfs = _flat_binary(parts.column("tfs"))
    val_tid = np.repeat(row_tid, ns)
    # doc_hash -> dense local id FIRST (searchsorted on the sorted docmap,
    # then the optional impact-order permutation), then pack (tid, local)
    # into one int64 key: a single argsort halves the memory traffic of a
    # two-pass lexsort — finalize tasks are memory-bandwidth-bound when
    # all CPUs run one.
    local_all = np.searchsorted(docmap, exploded_ids.astype(np.int64))
    if perm is not None:
        local_all = perm[local_all]
    local_all = local_all.astype(np.uint64)
    shift = max(1, len(docmap)).bit_length()
    if nt <= 1 or (nt - 1).bit_length() + shift <= 63:
        key = (val_tid.astype(np.uint64) << np.uint64(shift)) | local_all
        order2 = np.argsort(key)  # (tid, local) pairs are unique
    else:  # astronomically wide subshard: fall back to two-key sort
        order2 = np.lexsort((local_all, val_tid))
    local = local_all[order2]
    sorted_tfs = exploded_tfs[order2]
    term_lens = np.bincount(val_tid, minlength=nt).astype(np.int64)
    term_starts = np.zeros(nt, dtype=np.int64)
    np.cumsum(term_lens[:-1], out=term_starts[1:])
    return uniq_terms, term_lens, term_starts, local, sorted_tfs


def finalize_subshard(
    group: pa.Table, *, out_dir: str, wave: int, sub: int | None = None
) -> pa.Table:
    """All rows of one (wave, subshard): write docstats + merged postings,
    return a metrics row. Atomic file writes make re-runs idempotent."""
    if sub is None:
        sub = int(group.column("subshard")[0].as_py())

    is_doc = group.column("is_doc").to_numpy(zero_copy_only=False)
    docs = group.filter(pa.array(is_doc))
    parts = group.filter(pa.array(~is_doc))

    # --- docstats: impact-ordered; row position = dense local id ----------
    # Local ids are assigned by (doc_len asc, doc_hash asc), not hash
    # order: posting blocks then hold length-adjacent docs, so the
    # per-block MIN doc_len written alongside blk_maxtf carries real
    # spread (impact() decreases in doc_len), and Phase-B block-max
    # pruning can skip the long-doc tail of hot terms. With hash
    # (i.e. random) ordering, min over a 128-doc block ~= the global
    # min and the bound never tightens. Standard document-reordering /
    # impact-sorted-index technique; ids stay deterministic (hash ties).
    order = pc.sort_indices(
        docs, sort_keys=[("doc_len", "ascending"), ("doc_hash", "ascending")]
    )
    docs = docs.take(order)
    hashes = docs.column("doc_hash").to_numpy()
    hash_rank = np.argsort(hashes)  # kth-smallest hash -> its local id
    docmap = hashes[hash_rank]  # sorted int64, for searchsorted
    if len(np.unique(docmap)) != len(docmap):
        raise RuntimeError(
            f"doc_hash collision in wave {wave} subshard {sub}; "
            "widen the hash before indexing at this scale"
        )
    _write_atomic(
        docs.select(
            ["doc_hash", "repo", "path", "commit", "lang", "sha256", "doc_len"]
        ),
        _docstats_path(out_dir, wave, sub),
    )
    # doc store: same row order, so row = local id = the "local" key
    _write_atomic(
        pa.table(
            {
                "local": pa.array(np.arange(len(docs), dtype=np.int32)),
                "content": docs.column("content"),
            }
        ),
        _docs_path(out_dir, wave, sub),
        DOCS_ROW_GROUP,
        compression="zstd",
    )

    # --- postings: ordered merge of partial runs per term -----------------
    # Fully vectorized across ALL terms of the subshard: explode the runs
    # into flat (term_id, doc_hash, tf) arrays, one lexsort = the ordered
    # merge of every term's runs at once, one searchsorted for the
    # hash->local-id mapping, and multi-term codec calls. Per-term Python
    # loops here were the build's hot spot (one numpy-call set per term).
    t_order = pc.sort_indices(parts, sort_keys=[("term", "ascending")])
    parts = parts.take(t_order)
    all_terms = parts.column("term").to_pylist()
    # unit rows (UNIT_PREFIX-keyed) sort before every real (alnum) term;
    # both unit files are written for every segment, empty ones included
    import bisect

    split = bisect.bisect_left(all_terms, "\x01")
    u_terms, u_lens, _, u_local, _ = _merge_runs(
        parts.slice(0, split), all_terms[:split], docmap, hash_rank
    )
    unit_strs = [t[len(UNIT_PREFIX):] for t in u_terms]
    unit_tbl = pa.table(
        {
            "term": pa.array(unit_strs, pa.string()),
            "df": pa.array(u_lens, pa.int64()),
            "payload": pa.array(
                encode_varint_deltas_multi(u_local, u_lens), pa.binary()
            ),
        }
    )
    _write_atomic(unit_tbl, _units_path(out_dir, wave, sub), POSTINGS_ROW_GROUP)
    _write_atomic(
        _unit_trigram_sidecar(unit_strs),
        _units_grams_path(out_dir, wave, sub),
        POSTINGS_ROW_GROUP,
    )
    parts = parts.slice(split)
    all_terms = all_terms[split:]

    uniq_terms, term_lens, term_starts, local, sorted_tfs = _merge_runs(
        parts, all_terms, docmap, hash_rank
    )
    nt = len(uniq_terms)
    payloads = encode_varint_deltas_multi(local, term_lens)
    # per-block MIN doc_len rides along with the block metadata: local ids
    # index docstats rows (docmap order == docstats row order), so one
    # gather gives every posting its doc_len
    dl = docs.column("doc_len").to_numpy()
    blasts, bmaxtfs, bmindls = block_meta_multi(
        local, sorted_tfs, term_lens, dl[local.astype(np.int64)]
    )
    maxtf_per_term = (
        np.maximum.reduceat(sorted_tfs, term_starts).astype(np.int32)
        if len(sorted_tfs)
        else np.zeros(nt, dtype=np.int32)
    )
    tfbits = pack_tf_multi(sorted_tfs, term_lens)
    n_postings = int(term_lens.sum())

    posting_tbl = pa.table(
        {
            "wave": pa.array([wave] * nt, pa.int32()),
            "subshard": pa.array([sub] * nt, pa.int32()),
            "term": pa.array(uniq_terms, pa.string()),
            "df": pa.array(term_lens),
            "max_tf": pa.array(maxtf_per_term),
            "payload": pa.array(payloads, pa.binary()),
            "tf_bits": pa.array(tfbits, pa.binary()),
            "blk_last": pa.array(blasts, pa.binary()),
            "blk_maxtf": pa.array(bmaxtfs, pa.binary()),
            "blk_mindl": pa.array(bmindls, pa.binary()),
        }
    )
    _write_atomic(
        posting_tbl, _postings_path(out_dir, wave, sub), POSTINGS_ROW_GROUP
    )

    return pa.table(
        {
            "subshard": pa.array([sub], pa.int32()),
            "n_docs": pa.array([len(docs)], pa.int64()),
            "n_tokens": pa.array([int(dl.sum())], pa.int64()),
            "min_dlen": pa.array([int(dl.min()) if len(dl) else 0], pa.int64()),
            "n_terms": pa.array([nt], pa.int64()),
            "n_postings": pa.array([n_postings], pa.int64()),
        }
    )


# --- driver ----------------------------------------------------------------


def _wave_dir(out_dir: str, wave: int) -> str:
    return os.path.join(out_dir, "waves", f"w{wave:04d}")


def _read_json(path: str):
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return None


def _write_json_atomic(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1)
    os.replace(tmp, path)


def list_fragments(input_paths: list[str]) -> list[str]:
    files: list[str] = []
    for p in input_paths:
        if os.path.isdir(p):
            files.extend(
                os.path.join(dp, f)
                for dp, _, fs in os.walk(p)
                for f in fs
                if f.endswith(".parquet")
            )
        else:
            files.append(p)
    return sorted(files)


def _existing_wave_manifests(out_dir: str) -> list[dict | None]:
    out: list[dict | None] = []
    w = 0
    while True:
        wm = _read_json(os.path.join(_wave_dir(out_dir, w), "wave_manifest.json"))
        if wm is None and not os.path.isdir(_wave_dir(out_dir, w)):
            break
        out.append(wm)
        w += 1
    return out


def _plan_waves(
    files: list[str], out_dir: str, cfg: "IndexConfig"
) -> list[list[str]]:
    """Wave assignment with INCREMENTAL APPEND support.

    Fresh build (or clean resume of the same file set): deterministic
    round-robin striping — identical plans for identical inputs, so a
    resumed build is byte-identical to a clean one.

    Append (every existing wave done, its fragments a disjoint subset of
    the current file set, but striping no longer matches because new
    files arrived): done waves are KEPT AS RECORDED — history is the
    assignment — and only the new files are chunked into additional
    waves (sized like the existing ones), so indexing N new files costs
    O(N), not a full rebuild.

    Anything else (fragments deleted, overlapping or corrupt manifests,
    or a wave built by another engine version — an index never mixes
    wave formats): the waves/ and dict/ trees are cleared for a full
    rebuild."""
    import shutil

    from probe_ray import ENGINE_VERSION

    striped = [files[w :: cfg.num_waves] for w in range(cfg.num_waves)]
    striped = [w for w in striped if w]
    existing = _existing_wave_manifests(out_dir)
    if not existing:
        return striped
    ok = all(
        wm is None or wm.get("engine_version") == ENGINE_VERSION
        for wm in existing
    )
    # exact-resume case: recorded waves agree with striping (a wave dir
    # with no manifest yet — crash mid-tokenize — is simply rebuilt)
    if ok and len(existing) <= len(striped) and all(
        wm is None or wm.get("fragments") == striped[w]
        for w, wm in enumerate(existing)
    ):
        return striped
    # append case
    fileset = set(files)
    indexed: set[str] = set()
    for wm in existing if ok else []:
        frs = wm.get("fragments") if wm else None
        if (
            wm is None
            or wm.get("status") != "done"
            or not frs
            or not set(frs) <= fileset
            or indexed & set(frs)
        ):
            ok = False
            break
        indexed |= set(frs)
    if ok:
        new_files = [f for f in files if f not in indexed]
        plan = [wm["fragments"] for wm in existing]
        if new_files:
            per = max(
                1, round(sum(len(p) for p in plan) / len(plan))
            )
            plan.extend(
                new_files[i : i + per] for i in range(0, len(new_files), per)
            )
        return plan
    # incompatible history: full rebuild
    shutil.rmtree(os.path.join(out_dir, "waves"), ignore_errors=True)
    shutil.rmtree(_dict_dir(out_dir), ignore_errors=True)
    return striped


def build_index(
    input_paths: list[str],
    out_dir: str,
    cfg: IndexConfig | None = None,
    fail_after_wave: int | None = None,
) -> dict:
    """Build (or resume, or incrementally APPEND to) the index.
    ``fail_after_wave`` injects a failure after N completed waves
    (resume tests, FIXTURES.md SS6)."""
    cfg = cfg or IndexConfig()
    files = list_fragments(input_paths)
    # An out_dir nested inside an input dir must never sweep its own
    # (possibly partial) output back in as corpus fragments — a resumed
    # build would otherwise index its own docstats/postings parquet.
    # Symlinks are resolved on both sides: an input reaching out_dir
    # through a link is still the build's own output.
    out_prefix = os.path.realpath(out_dir) + os.sep
    files = [
        f for f in files if not os.path.realpath(f).startswith(out_prefix)
    ]
    if not files:
        raise ValueError(f"no parquet fragments under {input_paths}")
    # Fail fast with a usable message when pointed at a non-corpus table
    # (footer-only read of the first fragment; the full read happens
    # per-wave inside the Dataset job where the error would be buried in
    # a worker traceback).
    import pyarrow.parquet as _pq

    _need = {"repo", "path", "commit", "lang", "content"}
    _have = set(_pq.ParquetFile(files[0]).schema_arrow.names)
    if not _need <= _have:
        raise ValueError(
            f"{files[0]} is not a corpus table: missing columns "
            f"{sorted(_need - _have)} (need repo/path/commit/lang/content; "
            "see probe_ray.ops.fts.corpus_parquet to derive a corpus from "
            "a documents table)"
        )
    os.makedirs(out_dir, exist_ok=True)
    waves = _plan_waves(files, out_dir, cfg)
    t0 = time.time()
    done = 0
    # Pipelined waves: wave w's finalize tasks (raw Ray futures) run WHILE
    # wave w+1's tokenize Dataset job executes — the driver thread is busy
    # with the Dataset job, the cluster interleaves both. Completion (and
    # the wave manifest's "done") is committed in wave order.
    pending: tuple | None = None
    for w, wave_files in enumerate(waves):
        wm_path = os.path.join(_wave_dir(out_dir, w), "wave_manifest.json")
        wm = _read_json(wm_path)
        if wm and wm.get("status") == "done" and wm.get("fragments") == wave_files:
            continue
        wm = _tokenize_wave(wave_files, out_dir, w, cfg)
        if pending is not None:
            _collect_finalize(out_dir, *pending)
            pending = None
            done += 1
            if fail_after_wave is not None and done >= fail_after_wave:
                raise RuntimeError(f"injected failure after {done} waves")
        pending = _submit_finalize(out_dir, w, wm)
    if pending is not None:
        _collect_finalize(out_dir, *pending)
        done += 1
        if fail_after_wave is not None and done >= fail_after_wave:
            raise RuntimeError(f"injected failure after {done} waves")

    t_dict = time.time()
    _build_dictionary(out_dir, len(waves))
    dictionary_s = time.time() - t_dict

    # Global manifest from wave manifests.
    n_docs = n_tokens = 0
    min_dlen = None
    wave_entries = []
    for w in range(len(waves)):
        wm = _read_json(os.path.join(_wave_dir(out_dir, w), "wave_manifest.json"))
        assert wm and wm["status"] == "done"
        n_docs += wm["n_docs"]
        n_tokens += wm["n_tokens"]
        wmin = wm.get("min_dlen")
        if wmin is not None:
            min_dlen = wmin if min_dlen is None else min(min_dlen, wmin)
        wave_entries.append(wm)
    from probe_ray import ENGINE_VERSION

    cfg_json = asdict(cfg)
    # JSON-safe: frozenset -> sorted list (compaction's exclude_keys)
    if cfg_json.get("exclude_keys") is not None:
        cfg_json["exclude_keys"] = sorted(cfg_json["exclude_keys"])
    manifest = {
        "version": 2,
        "engine_version": ENGINE_VERSION,
        "input_files": files,
        "config": cfg_json,
        "n_docs": n_docs,
        "n_tokens": n_tokens,
        "avgdl": (n_tokens / n_docs) if n_docs else 0.0,
        "min_dlen": min_dlen or 0,
        "num_waves": len(waves),
        "waves": wave_entries,
        "build_seconds": time.time() - t0,
        "dictionary_s": round(dictionary_s, 3),
    }
    _write_json_atomic(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _finalize_task_impl(tok_dir: str, out_dir: str, wave: int, sub: int) -> dict:
    t0 = time.time()
    part_dir = os.path.join(tok_dir, f"subshard={sub}")
    group = pq.read_table(part_dir)
    m = finalize_subshard(group, out_dir=out_dir, wave=wave, sub=sub)
    row = m.to_pylist()[0]
    row["seconds"] = round(time.time() - t0, 3)
    return row


def _tokenize_wave(
    wave_files: list[str], out_dir: str, wave: int, cfg: IndexConfig
) -> dict:
    """Blocking Dataset job: tokenize the wave into the Hive-partitioned
    (by subshard) intermediate — the exchange happens via storage; the
    finalize stage reads each partition independently with no second
    in-memory all-to-all. The intermediate doubles as the resume artifact
    until the wave records "finalized"; a wave that has not, and whose
    exchange is gone, is tokenized again."""
    import ray
    import ray.data

    from probe_ray import ENGINE_VERSION

    wdir = _wave_dir(out_dir, wave)
    wm_path = os.path.join(wdir, "wave_manifest.json")
    tok_dir = os.path.join(wdir, "tokenized")
    wm = _read_json(wm_path)
    if wm is None or wm.get("fragments") != wave_files:
        wm = {
            "wave": wave,
            "fragments": wave_files,
            "engine_version": ENGINE_VERSION,
            "status": "building",
            "steps": {},
        }
    steps = wm["steps"]
    if steps.get("finalized") != "done" and not os.path.isdir(tok_dir):
        steps.pop("tokenized", None)  # exchange gone: tokenize again

    if steps.get("tokenized") != "done":
        nblocks = cfg.read_blocks or max(
            len(wave_files), int(ray.cluster_resources().get("CPU", 8)) * 2
        )
        ds = ray.data.read_parquet(
            wave_files,
            columns=["repo", "path", "commit", "lang", "content"],
            override_num_blocks=nblocks,
        )
        out = ds.map_batches(
            TokenizePartial(cfg),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=cfg.tokenize_batch_size,
        )
        import shutil

        shutil.rmtree(tok_dir, ignore_errors=True)
        t_tok = time.time()
        out.write_parquet(tok_dir, partition_cols=["subshard"])
        steps["tokenized"] = "done"
        steps["tokenize_s"] = round(time.time() - t_tok, 3)
        _write_json_atomic(wm_path, wm)
    return wm


def _submit_finalize(out_dir: str, wave: int, wm: dict) -> tuple:
    """Launch per-subshard finalize tasks (raw Ray futures) — they run
    concurrently with the next wave's tokenize Dataset job."""
    import ray

    if wm["steps"].get("finalized") == "done":
        return (wave, wm, None)
    tok_dir = os.path.join(_wave_dir(out_dir, wave), "tokenized")
    subs = sorted(
        int(d.split("=", 1)[1])
        for d in os.listdir(tok_dir)
        if d.startswith("subshard=")
    )
    # Finalize is memory-bandwidth-bound (giant argsort + varint passes):
    # one task per core saturates DRAM and RAISES wall time on wide nodes.
    # Reserve ~2 cores' worth of bandwidth per task on 32-core nodes.
    cpus = int(ray.cluster_resources().get("CPU", 8))
    task = ray.remote(num_cpus=max(1, cpus // 16))(_finalize_task_impl)
    futs = [task.remote(tok_dir, out_dir, wave, s) for s in subs]
    return (wave, wm, futs)


def _collect_finalize(out_dir: str, wave: int, wm: dict, futs) -> None:
    import shutil

    import ray

    wdir = _wave_dir(out_dir, wave)
    wm_path = os.path.join(wdir, "wave_manifest.json")
    tok_dir = os.path.join(wdir, "tokenized")
    if futs is not None:
        rows = ray.get(futs)
        wm["n_docs"] = int(sum(r["n_docs"] for r in rows))
        wm["n_tokens"] = int(sum(r["n_tokens"] for r in rows))
        wm["min_dlen"] = int(min((r["min_dlen"] for r in rows), default=0))
        wm["subshards"] = sorted(
            (
                {
                    "subshard": int(r["subshard"]),
                    "n_docs": int(r["n_docs"]),
                    "n_tokens": int(r["n_tokens"]),
                    "n_terms": int(r["n_terms"]),
                    "n_postings": int(r["n_postings"]),
                    "seconds": float(r.get("seconds", 0.0)),
                }
                for r in rows
            ),
            key=lambda x: x["subshard"],
        )
        wm["steps"]["finalized"] = "done"
        # task-internal walls (overlap-independent): max ≈ the wave's
        # finalize critical path, sum ≈ its total compute
        secs = [float(r.get("seconds", 0.0)) for r in rows]
        wm["steps"]["finalize_task_s_max"] = round(max(secs, default=0.0), 3)
        wm["steps"]["finalize_task_s_sum"] = round(sum(secs), 3)
        wm["steps"]["exchange_bytes"] = _dir_bytes(tok_dir)
        wm["steps"]["docs_bytes"] = _dir_bytes(os.path.join(wdir, "docs"))
        _write_json_atomic(wm_path, wm)
    # "finalized" is on disk: nothing reads the exchange any more
    shutil.rmtree(tok_dir, ignore_errors=True)
    wm["status"] = "done"
    _write_json_atomic(wm_path, wm)


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dp, f))
        for dp, _, fs in os.walk(path)
        for f in fs
    )


def _dict_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "dict")


# Above this many (term, df) rows across segments the dictionary is built
# with a Ray groupby(term) shuffle; below it, a driver-side pyarrow
# aggregate is faster than two distributed barriers.
DICT_DRIVER_MAX_ROWS = 20_000_000


def _build_dictionary(out_dir: str, num_waves: int) -> None:
    """Global (term, df) dictionary, sorted by term, for query-time idf
    lookups with parquet row-group pruning (no postings scan per query).
    The done-marker records the wave set it was built from — an
    incremental APPEND (new waves) invalidates and rebuilds it."""
    import hashlib

    ddir = _dict_dir(out_dir)
    marker = os.path.join(ddir, "_done")
    paths = []
    total_terms = 0
    frag_sig = hashlib.sha1()
    for w in range(num_waves):
        wm = _read_json(os.path.join(_wave_dir(out_dir, w), "wave_manifest.json"))
        total_terms += sum(s.get("n_terms", 0) for s in (wm or {}).get("subshards", []))
        frag_sig.update(json.dumps((wm or {}).get("fragments")).encode())
        d = os.path.join(_wave_dir(out_dir, w), "postings")
        paths.extend(
            os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".parquet")
        )
    sig = f"{num_waves}:{frag_sig.hexdigest()}"
    if os.path.exists(marker) and open(marker).read() == sig:
        return

    import shutil

    shutil.rmtree(ddir, ignore_errors=True)
    if total_terms and total_terms <= DICT_DRIVER_MAX_ROWS:
        t = pq.ParquetDataset(paths).read(columns=["term", "df"])
        agg = (
            t.group_by("term")
            .aggregate([("df", "sum")])
            .rename_columns(["term", "df"])
            .sort_by([("term", "ascending")])
        )
        agg = agg.set_column(
            1, "df", agg.column("df").cast(pa.int64())
        )
        os.makedirs(ddir, exist_ok=True)
        pq.write_table(
            agg, os.path.join(ddir, "dict.parquet"), row_group_size=DICT_ROW_GROUP
        )
    else:
        import ray.data

        ds = ray.data.read_parquet(paths, columns=["term", "df"])
        agg_ds = ds.groupby("term").sum("df").sort("term")

        def rename(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "term": batch.column("term"),
                    "df": batch.column("sum(df)").cast(pa.int64()),
                }
            )

        agg_ds.map_batches(rename, batch_format="pyarrow").write_parquet(
            ddir, row_group_size=DICT_ROW_GROUP
        )
    with open(marker, "w") as f:
        f.write(sig)


def lookup_df(index_dir: str, terms: list[str]) -> dict[str, int]:
    """df for the given terms from the sorted dictionary (row-group pruned)."""
    import pyarrow.dataset as pads

    if not terms:
        return {}
    dset = pads.dataset(
        [
            os.path.join(_dict_dir(index_dir), f)
            for f in sorted(os.listdir(_dict_dir(index_dir)))
            if f.endswith(".parquet")
        ]
    )
    t = dset.to_table(filter=pads.field("term").isin(terms))
    return {
        term: int(df)
        for term, df in zip(t.column("term").to_pylist(), t.column("df").to_pylist())
    }


def compact_index(
    index_dir: str, out_dir: str, cfg: IndexConfig | None = None
) -> dict:
    """Compaction: rebuild the index from its recorded input corpus with
    every tombstoned document dropped AT THE TOKENIZE STAGE — the output
    index has exact corpus-global stats (N, avgdl, df) over the
    surviving documents and carries no tombstones file.

    This is the second half of the delete lifecycle
    (index/tombstones.py): tombstones give O(1) deletes that mask
    results; compaction is the full-cost rebuild that reclaims the
    statistics and the storage. cfg defaults to the source index's wave
    geometry."""
    import json as _json

    from probe_ray.index.tombstones import load_tombstones

    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = _json.load(f)
    src_cfg = manifest.get("config", {})
    if cfg is None:
        # restore EVERY build-semantics field from the source index —
        # compaction must differ only by the dropped documents (a default
        # here for, say, max_content_bytes would change what gets
        # indexed, not just which docs)
        fields = {
            f: src_cfg[f]
            for f in (
                "num_waves",
                "subshards",
                "tokenize_batch_size",
                "read_blocks",
                "max_content_bytes",
            )
            if f in src_cfg
        }
        cfg = IndexConfig(**fields)
    cfg = replace(cfg, exclude_keys=load_tombstones(index_dir) or None)
    return build_index(manifest["input_files"], out_dir, cfg)
