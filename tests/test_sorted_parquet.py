"""SortedParquet, the reader's per-file read handle: ``read(keys)`` must
return exactly the rows of ``pq.read_table(path, filters=[(key, "in",
keys)])``, in file order, whatever the row-group layout, statistics or
cache bound. The handle tests use pyarrow only; the last test rebuilds an
index in place and checks that a new reader sees only the new data."""

import os
import shutil
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

from probe_ray.search.searcher import SortedParquet, _RowGroupLRU

_KEY = st.text(alphabet="abcd", max_size=3)


def _expected(path: str, keys: list, columns=None) -> pa.Table:
    if not keys:  # pyarrow's "in" filter rejects an empty value list
        t = pq.read_table(path, columns=columns)
        return t.slice(0, 0)
    return pq.read_table(path, columns=columns, filters=[("k", "in", keys)])


def _write(d: str, keys: list, rg_size: int, stats: bool) -> str:
    path = os.path.join(d, "f.parquet")
    pq.write_table(
        pa.table({"k": pa.array(keys, pa.string()), "v": list(range(len(keys)))}),
        path,
        row_group_size=rg_size,
        write_statistics=stats,
    )
    return path


@settings(max_examples=150, deadline=None)
@given(
    file_keys=st.lists(_KEY, max_size=40),
    n_null=st.integers(0, 3),
    rg_size=st.integers(1, 6),
    stats=st.booleans(),
    picks=st.lists(st.integers(0, 39), max_size=6),
    absent=st.lists(st.text(alphabet="abcde", max_size=4), max_size=4),
    cache_bytes=st.sampled_from([0, 200, 1 << 20]),
)
def test_read_equals_filtered_read_table(
    file_keys, n_null, rg_size, stats, picks, absent, cache_bytes
):
    """Absent keys, duplicate keys, the empty key list, keys at row-group
    edges, files without statistics and all-null row groups (no min/max)
    all give the filtered read_table rows."""
    keys = sorted(file_keys) + [None] * n_null  # nulls last, as a sort puts them
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, keys, rg_size, stats)
        h = SortedParquet(path, "k", _RowGroupLRU(cache_bytes))
        try:
            want = [file_keys[i] for i in picks if i < len(file_keys)]
            want = want + want[:1] + absent  # duplicates and absentees
            for _ in range(2):  # second pass reads through the cache
                assert h.read(want).equals(_expected(path, want))
                assert h.read(want, ["v"]).equals(_expected(path, want, ["v"]))
        finally:
            h.close()


def test_row_group_edges_and_missing_statistics():
    """Every row group's min and max key is found; a file written
    without statistics is read whole for any non-empty lookup and not at
    all for an empty one."""
    keys = [f"t{i:03d}" for i in range(50)]
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, keys, 7, True)
        h = SortedParquet(path, "k")
        md = pq.ParquetFile(path).metadata
        for rg in range(md.num_row_groups):
            st_ = md.row_group(rg).column(0).statistics
            for k in (st_.min, st_.max):
                assert h.read([k]).column("k").to_pylist() == [k]
                assert h._row_groups_for([k]) == [rg]
        assert h._row_groups_for(["t0005x"]) == [0]  # inside rg 0's range
        assert h._row_groups_for(["zzz", "a"]) == []
        h.close()

        path = _write(d, keys, 7, False)
        h = SortedParquet(path, "k")
        assert h._row_groups_for(["t010"]) == list(range(md.num_row_groups))
        assert h._row_groups_for([]) == []
        assert h.read(["t010", "nope"]).column("v").to_pylist() == [10]
        assert h.read([]).num_rows == 0
        h.close()


def test_unsorted_file_is_refused():
    with tempfile.TemporaryDirectory() as d:
        path = _write(d, ["b", "c", "a"], 1, True)
        with pytest.raises(ValueError, match="not sorted"):
            SortedParquet(path, "k")


def test_row_group_lru_stays_within_its_byte_bound():
    t = pa.table({"x": list(range(100))})  # 800 bytes
    lru = _RowGroupLRU(2000)
    for i in range(5):
        lru.put((i,), t)
        assert lru.nbytes <= 2000
    assert lru.get((0,)) is None and lru.get((4,)) is t
    lru.get((3,))
    lru.put((5,), t)  # evicts the least recently used: 4 was touched first
    assert lru.get((4,)) is None and lru.get((3,)) is t
    none = _RowGroupLRU(0)
    none.put((0,), t)
    assert none.get((0,)) is None and none.nbytes == 0


def test_df_dict_serves_concurrent_threads():
    """One _DfDict (shared shard handles) answers lookups from more
    threads than cores, with frequent switches, exactly."""
    import sys
    import threading

    from probe_ray.search.searcher import _DfDict

    terms = [f"t{i:05d}" for i in range(6000)]
    truth = {t: i % 97 + 1 for i, t in enumerate(terms)}
    with tempfile.TemporaryDirectory() as d:
        for j in range(3):  # shards partition the sorted key space
            part = terms[j * 2000 : (j + 1) * 2000]
            pq.write_table(
                pa.table({"term": part, "df": [truth[t] for t in part]}),
                os.path.join(d, f"part-{j}.parquet"),
                row_group_size=256,
            )
        dd = _DfDict(d)
        dd.CACHE_MAX = 50  # clears often: every call races a clear
        errors: list = []

        def work(seed: int):
            for r in range(40):
                ask = terms[(seed * 131 + r * 17) % 6000 :: 1500][:4] + ["zz"]
                got = dd.lookup(ask)
                if got != {t: truth[t] for t in ask if t in truth}:
                    errors.append((ask, got))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        dd.close()


def _corpus(d: str, word: str, n: int) -> str:
    os.makedirs(d, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "repo": [f"r{word}"] * n,
                "path": [f"src/{word}_{i}.py" for i in range(n)],
                "commit": ["c0"] * n,
                "lang": ["py"] * n,
                "content": [f"def f{i}(): return {word} + common" for i in range(n)],
            }
        ),
        os.path.join(d, "part0.parquet"),
    )
    return d


def test_index_rebuilt_in_place_is_read_fresh(ray_session, tmp_path_factory):
    """Build, read and close an index; rebuild it at the same path from a
    different corpus. A new reader — pool and in-process worker alike —
    must see only the new corpus: no footer, docstats or cached row
    group of the old files may survive under the reused path."""
    from probe_ray.index.build import IndexConfig, build_index
    from probe_ray.query.bm25 import create_query_plan
    from probe_ray.search.searcher import IndexReader, SegmentWorker, _QuerySpec

    root = tmp_path_factory.mktemp("rebuild")
    idx = str(root / "idx")
    cfg = IndexConfig(num_waves=1, subshards=1)

    def open_and_read():
        rd = IndexReader(idx)
        worker = SegmentWorker(idx, rd._parts(), rd.avgdl)
        try:
            hits = {
                q: rd.search(q, k=50).column("path").to_pylist()
                for q in ("zqxvk", "kwpjd", "common", '"zqxvk"')
            }
            spec = _QuerySpec(
                name="q",
                plan=create_query_plan("common"),
                idfs={"common": 1.0},
                need_fill=False,
            )
            local = worker.search([spec], k=50).column("path").to_pylist()
            assert sorted(local) == sorted(hits["common"])
            post = worker._postings_for(0, 0, ["zqxvk", "kwpjd", "common"])
            units = worker._matching_units(0, 0, ["zqxvk", "kwpjd"])
            return rd.n_docs, rd.df_lookup(["zqxvk", "kwpjd"]), hits, post, units
        finally:
            worker.close()
            rd.close()

    build_index([_corpus(str(root / "a"), "zqxvk", 12)], idx, cfg)
    n, df, hits, post, units = open_and_read()
    assert n == 12 and df == {"zqxvk": 12}
    assert len(hits["zqxvk"]) == 12 and hits["kwpjd"] == []
    assert sorted(post.column("term").to_pylist()) == ["common", "zqxvk"]

    shutil.rmtree(idx)
    build_index([_corpus(str(root / "b"), "kwpjd", 5)], idx, cfg)
    n, df, hits, post, units = open_and_read()
    assert n == 5 and df == {"kwpjd": 5}
    assert hits["zqxvk"] == [] and hits['"zqxvk"'] == []
    assert sorted(hits["common"]) == [f"src/kwpjd_{i}.py" for i in range(5)]
    assert sorted(post.column("term").to_pylist()) == ["common", "kwpjd"]
    assert post.column("df").to_pylist() == [5, 5]
    assert units == ["kwpjd"]
