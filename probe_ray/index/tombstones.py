"""Document tombstones: delete files from a built index without
re-indexing.

A tombstone is a ``(repo, path)`` key stored in ``tombstones.parquet``
at the index root. Readers load the set once at open and hand it to
their query actors once, which turn it into one deleted-doc mask per
segment, so tombstoned documents vanish from every result path — index
top-k, hybrid special-term, exhaustive scan, fill — for readers opened
after the delete.

Semantics (standard tombstone design): only RESULT SETS are masked;
corpus-global BM25 statistics (N, avgdl, df) remain those of the built
index until the next re-index/compaction. Incremental appends of new
paths are unaffected; re-adding a tombstoned path requires clearing its
tombstone first (`clear_tombstones`).

Scale: the set ships once per actor, at reader open; at millions of
tombstones compaction (re-index without the dead docs) is the intended
path — deletion volume that large is a rebuild, not a mask.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

import pyarrow as pa
import pyarrow.parquet as pq

_FILE = "tombstones.parquet"


def _path(index_dir: str) -> str:
    return os.path.join(index_dir, _FILE)


def load_tombstones(index_dir: str) -> frozenset[str]:
    """The index's tombstone set as '{repo}\\x00{path}' keys."""
    p = _path(index_dir)
    if not os.path.exists(p):
        return frozenset()
    t = pq.read_table(p)
    return frozenset(
        f"{r}\x00{pth}"
        for r, pth in zip(
            t.column("repo").to_pylist(), t.column("path").to_pylist()
        )
    )


def _write(index_dir: str, keys: set[str]) -> int:
    rows = sorted(keys)
    t = pa.table(
        {
            "repo": pa.array([k.split("\x00", 1)[0] for k in rows]),
            "path": pa.array([k.split("\x00", 1)[1] for k in rows]),
        }
    )
    tmp = _path(index_dir) + ".tmp"
    pq.write_table(t, tmp)
    os.replace(tmp, _path(index_dir))  # atomic, crash-safe
    return len(rows)


def add_tombstones(
    index_dir: str, keys: Iterable[tuple[str, str]]
) -> int:
    """Delete (repo, path) documents from the index's visible result
    set. Returns the total tombstone count after the union."""
    cur = set(load_tombstones(index_dir))
    cur.update(f"{r}\x00{p}" for r, p in keys)
    return _write(index_dir, cur)


def clear_tombstones(
    index_dir: str, keys: Iterable[tuple[str, str]] | None = None
) -> int:
    """Remove specific tombstones (or all, when keys is None) — e.g.
    before re-adding a previously deleted path. Returns the remaining
    count."""
    if keys is None:
        p = _path(index_dir)
        if os.path.exists(p):
            os.remove(p)
        return 0
    cur = set(load_tombstones(index_dir))
    cur.difference_update(f"{r}\x00{p}" for r, p in keys)
    return _write(index_dir, cur)
