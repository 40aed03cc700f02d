"""Tombstone deletes: documents removed from every result path without
re-indexing; scores of surviving docs unchanged (corpus-global stats
contract, index/tombstones.py)."""

from __future__ import annotations

import pytest


def _paths(t):
    return {
        (r, p)
        for r, p in zip(
            t.column("repo").to_pylist(), t.column("path").to_pylist()
        )
    }


@pytest.fixture()
def clean_tombstones(built_index):
    from probe_ray.index.tombstones import clear_tombstones

    idx = built_index[0]
    clear_tombstones(idx)
    yield idx
    clear_tombstones(idx)


def test_tombstone_masks_all_paths(ray_session, clean_tombstones):
    from probe_ray.index.tombstones import add_tombstones, clear_tombstones
    from probe_ray.search.searcher import IndexReader

    idx = clean_tombstones
    rd = IndexReader(idx)
    try:
        base = rd.search("error AND handler", k=10)
        assert base.num_rows > 0
        victim = (
            base.column("repo")[0].as_py(),
            base.column("path")[0].as_py(),
        )
        base_rest = {
            (r["repo"], r["path"]): r["score"]
            for r in base.to_pylist()
            if (r["repo"], r["path"]) != victim
        }
        # quoted query (hybrid path) and only-excluded (fill path)
        base_q = rd.search('"error"', k=10)
        base_x = rd.search("-zzzmissing", k=10)
    finally:
        rd.close()

    add_tombstones(idx, [victim])
    rd2 = IndexReader(idx)
    try:
        after = rd2.search("error AND handler", k=10)
        assert victim not in _paths(after)
        # surviving docs keep their exact scores (stats corpus-global)
        after_scores = {
            (r["repo"], r["path"]): r["score"] for r in after.to_pylist()
        }
        for key, score in base_rest.items():
            assert after_scores.get(key) == score
        # hybrid special-term path
        after_q = rd2.search('"error"', k=10)
        assert victim not in _paths(after_q)
        assert base_q.num_rows > 0
        # only-excluded fill path
        after_x = rd2.search("-zzzmissing", k=10)
        assert victim not in _paths(after_x)
        assert base_x.num_rows > 0
        # scan path (--exclude-filenames routes to the exhaustive scan)
        after_s = rd2.search("error", k=50, exclude_filenames=True)
        assert victim not in _paths(after_s)
    finally:
        rd2.close()

    # clearing restores the doc
    clear_tombstones(idx, [victim])
    rd3 = IndexReader(idx)
    try:
        restored = rd3.search("error AND handler", k=10)
        assert victim in _paths(restored)
        assert restored.equals(base)  # byte-identical to pre-delete
    finally:
        rd3.close()


def test_tombstone_cli_roundtrip(ray_session, clean_tombstones):
    from probe_ray.cli import main
    from probe_ray.index.tombstones import load_tombstones

    idx = clean_tombstones
    assert main(["delete", "--index", idx, "src1:a/b.py"]) == 0
    assert load_tombstones(idx) == frozenset(["src1\x00a/b.py"])
    assert main(["delete", "--index", idx, "--clear", "src1:a/b.py"]) == 0
    assert load_tombstones(idx) == frozenset()


def test_compact_index_drops_tombstoned_docs(
    ray_session, clean_tombstones, tmp_path
):
    """Compaction rebuilds WITHOUT the tombstoned docs: exact stats over
    the survivors (n_docs shrinks), victim absent, no tombstones file in
    the output."""
    import os

    from probe_ray.index.build import compact_index
    from probe_ray.index.tombstones import add_tombstones, load_tombstones
    from probe_ray.search.searcher import IndexReader

    idx = clean_tombstones
    rd = IndexReader(idx)
    try:
        base = rd.search("error AND handler", k=10)
        victim = (
            base.column("repo")[0].as_py(),
            base.column("path")[0].as_py(),
        )
        n_before = rd.n_docs
    finally:
        rd.close()

    add_tombstones(idx, [victim])
    out = str(tmp_path / "compacted")
    m = compact_index(idx, out)
    assert m["n_docs"] == n_before - 1
    assert load_tombstones(out) == frozenset()
    assert not os.path.exists(os.path.join(out, "tombstones.parquet"))
    rd2 = IndexReader(out)
    try:
        after = rd2.search("error AND handler", k=10)
        assert victim not in _paths(after)
        assert after.num_rows > 0
    finally:
        rd2.close()


def test_compact_index_preserves_build_config(
    ray_session, small_corpus, tmp_path
):
    """Compaction restores every build-semantics field from the source
    manifest — an index built with a content cap must compact with the
    same cap (review finding: defaults here would change what gets
    indexed, not just which docs)."""
    import json

    from probe_ray.index.build import IndexConfig, build_index, compact_index

    src = str(tmp_path / "src_idx")
    build_index(
        [small_corpus],
        src,
        IndexConfig(num_waves=2, subshards=2, max_content_bytes=500),
    )
    out = str(tmp_path / "compacted")
    compact_index(src, out)
    with open(f"{out}/manifest.json") as f:
        cfg = json.load(f)["config"]
    assert cfg["max_content_bytes"] == 500
    assert cfg["subshards"] == 2
