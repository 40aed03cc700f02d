"""Incremental append: indexing N new files costs O(N), not a rebuild.

History-based wave planning (index/build.py:_plan_waves): done waves
keep their recorded fragment lists; only new files form new waves; the
global dictionary is invalidated by its wave-set signature. Search
results after an append must be bit-equal to a fresh build over the
full file set (scores depend only on corpus-global stats, not wave
layout)."""

from __future__ import annotations

import glob
import os
import shutil

import pytest

from probe_ray.data.synth import write_corpus
from probe_ray.index.build import IndexConfig, build_index
from probe_ray.search.searcher import IndexReader

QUERIES = ["error AND handling", "setTools", "login OR auth", "keyword"]


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    src = str(tmp_path_factory.mktemp("src"))
    write_corpus(src, 240, num_files=4)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    grow = str(tmp_path_factory.mktemp("grow"))
    for f in files[:3]:
        shutil.copy(f, grow)
    return src, grow, files


def test_incremental_append(ray_session, corpora, tmp_path_factory):
    src, grow, files = corpora
    idx = str(tmp_path_factory.mktemp("idx_inc"))
    cfg = IndexConfig(num_waves=2, subshards=2)

    m1 = build_index([grow], idx, cfg)
    assert m1["num_waves"] == 2
    old_postings = sorted(
        glob.glob(os.path.join(idx, "waves", "*", "postings", "*.parquet"))
    )
    mtimes = {f: os.path.getmtime(f) for f in old_postings}

    # append the 4th file
    shutil.copy(files[3], grow)
    m2 = build_index([grow], idx, cfg)
    # existing waves untouched — append is O(new files)
    for f, t0 in mtimes.items():
        assert os.path.getmtime(f) == t0, "append rebuilt a done wave"
    assert m2["num_waves"] == 3
    assert m2["n_docs"] == 240
    # dictionary was invalidated and rebuilt for the new wave set
    assert m2["n_tokens"] > m1["n_tokens"]

    # fresh build over the full set: search results must be bit-equal
    idx_fresh = str(tmp_path_factory.mktemp("idx_fresh"))
    build_index([src], idx_fresh, cfg)
    rd_a = IndexReader(idx)
    rd_b = IndexReader(idx_fresh)
    for q in QUERIES + ['"whitelist"', "database -sqlite"]:
        got = rd_a.search(q, k=10)
        want = rd_b.search(q, k=10)
        assert got.equals(want), q
    rd_a.close()
    rd_b.close()


def test_deleted_fragment_triggers_full_rebuild(ray_session, tmp_path_factory):
    src = str(tmp_path_factory.mktemp("src2"))
    write_corpus(src, 120, num_files=3)
    idx = str(tmp_path_factory.mktemp("idx_del"))
    cfg = IndexConfig(num_waves=2, subshards=2)
    build_index([src], idx, cfg)
    files = sorted(glob.glob(os.path.join(src, "*.parquet")))
    os.remove(files[0])
    m = build_index([src], idx, cfg)
    # rebuilt over the remaining files only
    assert m["n_docs"] == 80
    rd = IndexReader(idx)
    t = rd.search("error", k=5)
    assert t.num_rows > 0
    rd.close()
