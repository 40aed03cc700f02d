"""Document UPDATE support: the Lucene-segment upsert composition.

The index's docIDs are content-independent hashes of (repo, path)
(build.py:doc_hash64) and postings are immutable after finalize, so an
in-place update is impossible by design — exactly the situation
segment-based engines solve with per-segment deletes plus fresh
segments. ``upsert_segment`` composes the repo's existing primitives
that way:

1. build a fresh delta index over just the fragment
   (O(changed docs), the same resumable wave build as any index),
2. then tombstone the fragment's (repo, path) keys in EVERY existing
   member index (masks the old versions; O(changed docs), touches no
   postings),
3. search through ``IndexReader(members + [delta],
   tombstone_scope="member")`` — one reader and one actor pool over
   every member's segments; each member masks only its own deletes, so
   the delta's new versions stay visible while the old versions vanish.

Repeated upserts chain: each round tombstones the keys in all prior
members (including earlier deltas) and appends one more delta segment.
When the segment list grows long or the delete load gets heavy, fold
everything back into one index with ``build.compact_index`` per member
and a fresh federated build — the standard segment-merge maintenance
story.

Statistics contract (same as tombstones.py): corpus-global stats are
NOT adjusted by deletes — an updated document is counted once by its
old version's segment stats and once by the delta's until compaction.
BM25 ranks stay deterministic; absolute scores drift only as much as
the delete load.

Reference analog: probe's session cache re-scans changed files per
query (src/search/cache.rs) — re-expressed here as persistent-index
segment maintenance instead of per-query re-scanning.
"""

from __future__ import annotations

import pyarrow.parquet as pq

from probe_ray.index.build import IndexConfig, build_index
from probe_ray.index.tombstones import add_tombstones


def fragment_keys(fragment: str) -> list[tuple[str, str]]:
    """The (repo, path) keys of one corpus fragment — a column-pruned
    read of just the two key columns."""
    t = pq.read_table(fragment, columns=["repo", "path"])
    return list(
        zip(t.column("repo").to_pylist(), t.column("path").to_pylist())
    )


def upsert_segment(
    member_dirs: list[str],
    fragment: str,
    delta_dir: str,
    cfg: IndexConfig | None = None,
) -> dict:
    """Upsert one corpus fragment (new + changed documents) against the
    federation ``member_dirs``: tombstone the fragment's keys in every
    member, build the delta index at ``delta_dir``, and return the
    delta's build manifest. The caller then searches via
    ``IndexReader(member_dirs + [delta_dir], tombstone_scope="member")``
    — open readers must be re-opened to see the new tombstones (they
    load once at open).

    Cost is O(changed docs) for both steps; no existing posting file is
    rewritten. Keys that are brand-new (inserts) get tombstoned in
    members that never held them — a no-op by construction (tombstones
    mask result keys; absent keys match nothing).

    Crash-safety ordering: the delta index is built FIRST, tombstones
    second. A crash after the delta build but before (or mid-way
    through) tombstoning leaves some old versions still visible next to
    the new ones — transient duplicates, never invisible documents. The
    reverse order had a window where a failed delta build masked the old
    versions with nothing to replace them. Either way a failed upsert is
    converged by re-running with the same fragment: build_index resumes
    finished waves and add_tombstones is idempotent (key sets union).
    """
    keys = fragment_keys(fragment)
    manifest = build_index(
        [fragment], delta_dir, cfg or IndexConfig(num_waves=1, subshards=1)
    )
    for d in member_dirs:
        add_tombstones(d, keys)
    return manifest
