"""Driver-visible index-lifecycle pipelines (ops/fts.py): the sharded
federation entry re-asserts merged-top-k == monolithic live inside the
op; the upsert entry re-asserts exactly-the-new-versions visibility.
These tests drive both at sf0.001 and pin output shape + determinism."""

import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _cleanup(ray_session):
    yield
    from probe_ray.ops import fts

    fts.close_readers()


def test_federated_search_op(ray_session):
    from probe_ray.ops import fts

    t = fts.fts_federated_search(SF)
    assert t.num_rows > 0
    assert set(t.column_names) >= {"qname", "rank", "score", "repo", "path"}
    assert set(t.column("qname").to_pylist()) == set(fts.FEDERATED_QUERIES)
    # repeat is deterministic (cached member indexes, warm readers)
    assert t.equals(fts.fts_federated_search(SF))


def test_federated_fragment_without_marker_is_rewritten(ray_session):
    """A shard fragment left without its _done marker (a write_parquet
    cut short) is rewritten, and its member index rebuilt, instead of
    being served as complete."""
    import glob
    import os
    import shutil

    import pyarrow.parquet as pq

    from probe_ray.data.synth import CORPUS_VERSION
    from probe_ray.ops import fts

    want = fts.fts_federated_search(SF)
    fts.close_readers()
    cache = fts._cache_dir(SF)
    frag = os.path.join(cache, f"fed_corpus0_v{CORPUS_VERSION}")
    whole = pq.read_table(frag)
    shutil.rmtree(frag)
    shutil.rmtree(os.path.join(cache, f"fed_m0_v{CORPUS_VERSION}"))
    os.makedirs(frag)
    pq.write_table(whole.slice(0, whole.num_rows // 2), os.path.join(frag, "p.parquet"))
    assert fts.fts_federated_search(SF).equals(want)
    assert os.path.exists(os.path.join(frag, "_done"))
    assert pq.read_table(glob.glob(os.path.join(frag, "*.parquet"))).num_rows == (
        whole.num_rows
    )


@pytest.mark.parametrize("typ", [pa.string(), pa.null()])
def test_parity_keep_passes_empty_batch(typ):
    from probe_ray.ops.fts import _hash_parity_keep

    empty = pa.table({"repo": pa.array([], typ), "path": pa.array([], typ)})
    for part in (0, 1):
        assert _hash_parity_keep(empty, part).equals(empty)


def test_upsert_lifecycle_op(ray_session):
    from probe_ray.ops import fts

    t = fts.fts_upsert_lifecycle(SF)
    assert t.num_rows == 3  # two rewrites + one insert, nothing else
    assert "brand/new_upserted.py" in t.column("path").to_pylist()
    assert t.equals(fts.fts_upsert_lifecycle(SF))


def test_compact_lifecycle_op(ray_session):
    from probe_ray.ops import fts

    t = fts.fts_compact_lifecycle(SF)
    assert t.num_rows == 3
    # identical visibility to the tombstone-masked federation is
    # asserted inside the op; here pin the shape and determinism
    assert t.equals(fts.fts_compact_lifecycle(SF))
