"""The per-(doc, term) Python-list TokenizePartial that preceded the
flat-array run construction, kept as a reference: the rewrite must emit
the same partial table, bit for bit. It is verbatim but for the two
changes that engine 9 made to both: the content cap counts UTF-8 bytes,
and units are always emitted.

``legacy_tokenize_partial()`` defines the class inside a function, so
cloudpickle ships it by value to Ray Data workers, which do not import
this tests directory."""

from __future__ import annotations


def legacy_tokenize_partial() -> type:
    import hashlib
    from collections import Counter

    import numpy as np
    import pyarrow as pa

    from probe_ray.index.build import UNIT_PREFIX, IndexConfig, doc_hash64
    from probe_ray.tokenize.tokenizer import _ALNUM_RUNS, _raw_tokens, tokenize

    class LegacyTokenizePartial:
        """Stateless-per-batch tokenizer stage emitting partial posting runs.

        One output row per (subshard, term) per batch (ids sorted by doc_hash,
        so the finalize stage's merge is an ordered merge of sorted runs), plus
        one doc row per input document carrying its raw content for the
        segment's doc store.
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
                import pyarrow.compute as _pc

                key = _pc.binary_join_element_wise(
                    batch.column("repo"), batch.column("path"), "\x00"
                )
                batch = batch.filter(
                    _pc.invert(_pc.is_in(key, value_set=self._exclude_set))
                )
            repos = batch.column("repo").to_pylist()
            paths = batch.column("path").to_pylist()
            commits = batch.column("commit").to_pylist()
            langs = batch.column("lang").to_pylist()
            contents = batch.column("content").to_pylist()
            n = len(repos)

            doc_hashes = np.fromiter(
                (doc_hash64(repos[i], paths[i]) for i in range(n)),
                dtype=np.int64,
                count=n,
            )
            # sort docs by doc_hash so per-term id runs are sorted by construction
            order = np.argsort(doc_hashes, kind="stable")

            doc_lens = np.empty(n, dtype=np.int32)
            shas: list[str] = []
            runs: dict[tuple[int, str], tuple[list[int], list[int]]] = {}
            sub_arr = np.empty(n, dtype=np.int32)
            for j in range(n):
                i = int(order[j])
                content = contents[i]
                if (
                    cfg.max_content_bytes is not None
                    and len(content.encode("utf-8")) > cfg.max_content_bytes
                ):
                    content = ""
                # ONE alnum-run pass per string, shared between tokenization
                # and (below) unit extraction — _raw_tokens' token list equals
                # _ALNUM_RUNS.findall(text) in both its branches
                raw_c = _raw_tokens(content)
                raw_p = _raw_tokens(paths[i])
                toks = tokenize(content, precomputed_raw=raw_c)
                toks.extend(tokenize(paths[i], precomputed_raw=raw_p))
                tf = Counter(toks)  # C-accelerated; TF∈{1,2} by construction
                dh = int(doc_hashes[i])
                s = (dh >> 32) % cfg.subshards
                sub_arr[i] = s
                doc_lens[i] = len(toks)
                for t, f in tf.items():
                    run = runs.get((s, t))
                    if run is None:
                        run = ([], [])
                        runs[(s, t)] = run
                    run[0].append(dh)
                    run[1].append(f)
                # distinct CASE-PRESERVED alnum units of RAW content +
                # path — raw (pre-cap), because the hybrid path's
                # candidate mask substring-matches the raw corpus text
                # (case-insensitively at query time). Preserving case
                # makes tokenization-change detection EXACT per unit:
                # the tokenizer operates on raw tokens, so
                # _expand_token(unit, ctx) != _expand_token(unit, {})
                # decides precisely whether a doc holding that unit can
                # re-tokenize under a special-term context (hybrid.py)
                if content is contents[i]:
                    units = set(raw_c[0])
                else:  # content was capped; units come from RAW text
                    units = set(_ALNUM_RUNS.findall(contents[i]))
                units.update(raw_p[0])
                for u in units:
                    key = (s, UNIT_PREFIX + u)
                    run = runs.get(key)
                    if run is None:
                        run = ([], [])
                        runs[key] = run
                    run[0].append(dh)
                    run[1].append(1)
            for i in range(n):
                shas.append(hashlib.sha256(contents[i].encode()).hexdigest())

            keys = sorted(runs.keys())
            r_sub = np.empty(len(keys), dtype=np.int32)
            r_term: list[str] = []
            r_n = np.empty(len(keys), dtype=np.int64)
            r_ids: list[bytes] = []
            r_tfs: list[bytes] = []
            for idx, (s, t) in enumerate(keys):
                ids, tfs = runs[(s, t)]
                r_sub[idx] = s
                r_term.append(t)
                r_n[idx] = len(ids)
                r_ids.append(np.asarray(ids, dtype=np.uint64).tobytes())
                r_tfs.append(np.asarray(tfs, dtype=np.uint8).tobytes())

            npart = len(keys)
            nulls_str = pa.nulls(npart, pa.string())
            partial = pa.table(
                {
                    "subshard": pa.array(r_sub),
                    "is_doc": pa.array(np.zeros(npart, dtype=bool)),
                    "term": pa.array(r_term, pa.string()),
                    "n": pa.array(r_n),
                    "ids": pa.array(r_ids, pa.binary()),
                    "tfs": pa.array(r_tfs, pa.binary()),
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
                    "subshard": pa.array(sub_arr),
                    "is_doc": pa.array(np.ones(n, dtype=bool)),
                    "term": pa.array([""] * n, pa.string()),
                    "n": pa.array(np.zeros(n, dtype=np.int64)),
                    "ids": empty_bin,
                    "tfs": empty_bin,
                    "doc_hash": pa.array(doc_hashes),
                    "repo": pa.array(repos, pa.string()),
                    "path": pa.array(paths, pa.string()),
                    "commit": pa.array(commits, pa.string()),
                    "lang": pa.array(langs, pa.string()),
                    "sha256": pa.array(shas, pa.string()),
                    "doc_len": pa.array(doc_lens),
                    "content": batch.column("content").cast(pa.string()),
                }
            )
            return pa.concat_tables([partial, docs])

    return LegacyTokenizePartial
