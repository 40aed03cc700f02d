"""Per-segment doc stores and the build's exchange lifetime.

Finalize writes one doc store per segment (waves/wNNNN/docs/): the raw
corpus content in docstats row order, keyed by the dense local id. The
hybrid path's small-candidate fan-out reads candidates from it on the
worker that owns their segment, so a quoted or excluded query needs no
corpus. The tokenized/ exchange is deleted once a wave records
"finalized", and indexes built by an older engine are refused by the
reader and rebuilt, never appended to.
"""

import glob
import json
import os
import shutil

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
from test_hybrid import ROWS

# quoted, excluded and quoted+excluded shapes whose special terms change
# some edge-corpus doc's tokenization, so each one reaches the fan-out
SHAPES = {
    "quoted": '"whitelists" OR stream',
    "excluded": "stream -whitelists",
    "quoted_excluded": '"stream" -whitelists',
}


def _write_rows(d, rows):
    t = pa.table(
        {
            "repo": pa.array([r[0] for r in rows]),
            "path": pa.array([r[1] for r in rows]),
            "commit": pa.array(["c0"] * len(rows)),
            "lang": pa.array([r[2] for r in rows]),
            "content": pa.array([r[3] for r in rows]),
        }
    )
    os.makedirs(d, exist_ok=True)
    half = len(rows) // 2
    pq.write_table(t.slice(0, half), os.path.join(d, "part0.parquet"))
    pq.write_table(t.slice(half), os.path.join(d, "part1.parquet"))


def _parquet_files(root):
    return sorted(
        os.path.relpath(f, root)
        for f in glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True)
    )


def test_fanout_reads_only_the_index(ray_session, tmp_path, monkeypatch):
    """Answer the quoted, excluded and quoted+excluded shapes, move the
    corpus away, and answer them again from the same reader and from a
    fresh one: the tables are bit-equal, and every answer went through
    the fan-out with candidates."""
    from probe_ray.index.build import IndexConfig, build_index
    from probe_ray.search.searcher import IndexReader

    corpus, idx = str(tmp_path / "corpus"), str(tmp_path / "idx")
    _write_rows(corpus, ROWS)
    build_index([corpus], idx, IndexConfig(num_waves=2, subshards=2))
    # every special-term call recomputes its candidates (no ctx cache)
    monkeypatch.setenv("PROBE_RAY_HYBRID_CACHE", "0")
    fanned: list[int] = []
    orig = IndexReader.candidate_stage_fanout

    def spy(self, keys, stage):
        fanned.append(keys.num_rows)
        return orig(self, keys, stage)

    monkeypatch.setattr(IndexReader, "candidate_stage_fanout", spy)
    rd = IndexReader(idx)
    fresh = None
    try:
        before = rd.search_many(SHAPES, k=10)  # one shared fan-out
        assert fanned and fanned[0] > 0
        assert all(t.num_rows > 0 for t in before.values())
        shutil.move(corpus, str(tmp_path / "corpus_moved"))
        fresh = IndexReader(idx)
        for reader in (rd, fresh):
            for name, q in SHAPES.items():
                fanned.clear()
                got = reader.search(q, k=10)
                assert fanned and fanned[0] > 0, name
                assert got.equals(before[name]), name
    finally:
        rd.close()
        if fresh is not None:
            fresh.close()


@pytest.mark.parametrize("cap", [None, 40])
def test_docs_file_is_raw_content_in_docstats_order(
    ray_session, small_corpus, tmp_path, cap
):
    """Each segment's doc store holds the corpus content of its docstats
    rows, row for row, keyed by local id — the raw text even when the
    build caps what it tokenizes (max_content_bytes)."""
    from probe_ray.index.build import (
        DOCS_ROW_GROUP,
        IndexConfig,
        _docs_path,
        _docstats_path,
        build_index,
    )

    idx = str(tmp_path / "idx")
    m = build_index(
        [small_corpus], idx,
        IndexConfig(num_waves=2, subshards=2, max_content_bytes=cap),
    )
    corpus = pads.dataset(small_corpus).to_table()
    raw = {
        (r, p): c
        for r, p, c in zip(
            corpus.column("repo").to_pylist(),
            corpus.column("path").to_pylist(),
            corpus.column("content").to_pylist(),
        )
    }
    if cap is not None:  # non-vacuous: some doc really was capped
        assert any(len(c) > cap for c in raw.values())
    seen = 0
    for wm in m["waves"]:
        for sm in wm["subshards"]:
            w, s = wm["wave"], sm["subshard"]
            stats = pq.read_table(_docstats_path(idx, w, s))
            pf = pq.ParquetFile(_docs_path(idx, w, s))
            docs = pf.read()
            assert docs.column("local").to_pylist() == list(range(stats.num_rows))
            want = [
                raw[(r, p)]
                for r, p in zip(
                    stats.column("repo").to_pylist(),
                    stats.column("path").to_pylist(),
                )
            ]
            assert docs.column("content").to_pylist() == want
            md = pf.metadata
            for rg in range(md.num_row_groups):
                assert md.row_group(rg).num_rows <= DOCS_ROW_GROUP
                assert md.row_group(rg).column(1).compression == "ZSTD"
            seen += stats.num_rows
    assert seen == corpus.num_rows
    assert not glob.glob(os.path.join(idx, "waves", "*", "tokenized"))


def test_fanout_one_call_per_owning_worker(ray_session, tmp_path, monkeypatch):
    """2 workers over 4 segments: the fan-out calls each owning worker
    once, with local ids of that worker's own segments only, and the
    answer equals the exhaustive scan."""
    from probe_ray.index.build import IndexConfig, build_index
    from probe_ray.search.scan import scan_search_many
    from probe_ray.search.searcher import IndexReader

    rows = [
        ("r%d" % (i % 3), f"src/m{i:03d}.py", "py",
         f"whitelists guard module{i} stream" + (" merge" if i % 4 else ""))
        for i in range(48)
    ]
    corpus, idx = str(tmp_path / "corpus"), str(tmp_path / "idx")
    _write_rows(corpus, rows)
    build_index([corpus], idx, IndexConfig(num_waves=2, subshards=2))
    monkeypatch.setenv("PROBE_RAY_HYBRID_CACHE", "0")
    rd = IndexReader(idx, num_workers=2)
    rd._ensure_workers()
    handles = rd._workers
    assert len(handles) == 2 and len(rd._parts()) == 4
    calls: list[tuple[int, dict]] = []

    class Spy:
        def __init__(self, i, h):
            self._h = h
            self.candidate_stage = self

            def remote(segs, stage):
                calls.append((i, segs))
                return h.candidate_stage.remote(segs, stage)

            self.remote = remote

        def __getattr__(self, name):
            return getattr(self._h, name)

    rd._workers = [Spy(i, h) for i, h in enumerate(handles)]
    try:
        q = '"whitelists" OR merge'
        got = rd.search(q, k=10)
        want = scan_search_many(rd.manifest["input_files"], {"q": q}, k=10)["q"]
        assert got.equals(want) and got.num_rows > 0
        assert sorted(i for i, _ in calls) == [0, 1]
        n_ids = 0
        for i, segs in calls:
            own = set(rd._parts()[i::2])
            assert segs and set(segs) <= own, (i, segs)
            n_ids += sum(len(v) for v in segs.values())
        assert n_ids == len(rows)
    finally:
        rd._workers = handles
        rd.close()


def test_kill_after_finalize_before_done_resumes(
    ray_session, small_corpus, tmp_path, monkeypatch
):
    """A build killed after its wave manifest records "finalized" but
    before "done" keeps its exchange on disk; the resumed build matches
    a clean one file for file and leaves no tokenized/ behind."""
    from probe_ray.index import build as B

    cfg = B.IndexConfig(num_waves=1, subshards=2)
    clean, idx = str(tmp_path / "clean"), str(tmp_path / "idx")
    B.build_index([small_corpus], clean, cfg)
    orig = B._write_json_atomic

    def killed(path, obj):
        orig(path, obj)
        steps = obj.get("steps", {}) if isinstance(obj, dict) else {}
        if steps.get("finalized") == "done" and obj["status"] != "done":
            raise RuntimeError("killed after finalize")

    monkeypatch.setattr(B, "_write_json_atomic", killed)
    with pytest.raises(RuntimeError, match="killed after finalize"):
        B.build_index([small_corpus], idx, cfg)
    monkeypatch.undo()
    wdir = os.path.join(idx, "waves", "w0000")
    wm = json.load(open(os.path.join(wdir, "wave_manifest.json")))
    assert wm["status"] == "building" and wm["steps"]["finalized"] == "done"
    assert os.path.isdir(os.path.join(wdir, "tokenized"))
    assert wm["steps"]["exchange_bytes"] > 0 and wm["steps"]["docs_bytes"] > 0

    B.build_index([small_corpus], idx, cfg)  # resume
    assert not glob.glob(os.path.join(idx, "waves", "*", "tokenized"))
    files = _parquet_files(clean)
    assert files == _parquet_files(idx)
    assert any(f.split(os.sep)[-2] == "docs" for f in files)
    for rel in files:
        a = pq.read_table(os.path.join(clean, rel))
        assert a.equals(pq.read_table(os.path.join(idx, rel))), rel


def _patch_to_engine_7(idx):
    mpath = os.path.join(idx, "manifest.json")
    m = json.load(open(mpath))
    m["engine_version"] = 7
    for wm in m["waves"]:
        wm.pop("engine_version", None)
    json.dump(m, open(mpath, "w"))
    for p in glob.glob(os.path.join(idx, "waves", "*", "wave_manifest.json")):
        wm = json.load(open(p))
        wm.pop("engine_version")  # engine 7 did not record it
        json.dump(wm, open(p, "w"))


def test_reader_refuses_older_engine(ray_session, built_index, tmp_path):
    from probe_ray.search.searcher import IndexReader

    idx = str(tmp_path / "old")
    shutil.copytree(built_index[0], idx)
    _patch_to_engine_7(idx)
    with pytest.raises(ValueError, match="built by engine 7.*rebuild"):
        IndexReader(idx)


def test_append_onto_older_engine_rebuilds_every_wave(
    ray_session, small_corpus, tmp_path
):
    """New fragments arriving at an engine-7 index rebuild every wave
    (the plan is the striping of the whole file set) instead of keeping
    the old waves and appending new ones."""
    from probe_ray import ENGINE_VERSION
    from probe_ray.index.build import IndexConfig, build_index, list_fragments

    files = list_fragments([small_corpus])
    assert len(files) == 4
    cfg = IndexConfig(num_waves=2, subshards=2)
    idx, clean = str(tmp_path / "idx"), str(tmp_path / "clean")
    build_index(files[:2], idx, cfg)
    _patch_to_engine_7(idx)
    m = build_index(files, idx, cfg)
    assert m["engine_version"] == ENGINE_VERSION
    assert [wm["fragments"] for wm in m["waves"]] == [files[0::2], files[1::2]]
    assert all(wm["engine_version"] == ENGINE_VERSION for wm in m["waves"])
    build_index(files, clean, cfg)
    assert _parquet_files(idx) == _parquet_files(clean)
    for rel in _parquet_files(clean):
        a = pq.read_table(os.path.join(clean, rel))
        assert a.equals(pq.read_table(os.path.join(idx, rel))), rel
