"""FederatedReader: multi-index search with federation-global stats must
be bit-identical to a single index built over the union corpus."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

QUERIES = [
    "error AND handler",
    "(error OR exception) AND +handler",
    "database",
    "setTools OR parse",
]


@pytest.fixture(scope="module")
def federation(ray_session, small_corpus, built_index, tmp_path_factory):
    from probe_ray.index.build import IndexConfig, build_index

    t = pads.dataset(small_corpus).to_table()
    half = t.num_rows // 2
    root = tmp_path_factory.mktemp("fed")
    dirs = []
    for i, part in enumerate([t.slice(0, half), t.slice(half)]):
        cdir = os.path.join(str(root), f"corpus{i}")
        os.makedirs(cdir)
        pq.write_table(part, os.path.join(cdir, "part.parquet"))
        idir = os.path.join(str(root), f"index{i}")
        build_index([cdir], idir, IndexConfig(num_waves=2, subshards=2))
        dirs.append(idir)
    return dirs, built_index[0]


def test_federated_equals_union_index(ray_session, federation):
    from probe_ray.search.searcher import FederatedReader, IndexReader

    (a, b), union_dir = federation
    fed = FederatedReader([a, b])
    union = IndexReader(union_dir)
    try:
        assert fed.n_docs == union.n_docs
        assert fed.n_tokens == int(union.manifest.get("n_tokens", 0))
        for q in QUERIES:
            ft = fed.search(q, k=10)
            ut = union.search(q, k=10)
            assert ft.equals(ut), f"federated != union for {q!r}"
        # field filters ride through unchanged
        ff = fed.search("error", k=20, filters={"lang": "en"})
        uf = union.search("error", k=20, filters={"lang": "en"})
        assert ff.equals(uf)
        # special-term queries are per-index machinery
        with pytest.raises(ValueError):
            fed.search('"error"', k=5)
    finally:
        fed.close()
        union.close()


def test_federated_union_tombstones(ray_session, federation):
    from probe_ray.index.tombstones import add_tombstones, clear_tombstones
    from probe_ray.search.searcher import FederatedReader

    (a, b), _ = federation
    fed = FederatedReader([a, b])
    try:
        base = fed.search("error AND handler", k=10)
        victim = (
            base.column("repo")[0].as_py(),
            base.column("path")[0].as_py(),
        )
    finally:
        fed.close()
    add_tombstones(a, [victim])
    try:
        fed2 = FederatedReader([a, b])
        try:
            after = fed2.search("error AND handler", k=10)
            got = {
                (r, p)
                for r, p in zip(
                    after.column("repo").to_pylist(),
                    after.column("path").to_pylist(),
                )
            }
            assert victim not in got
        finally:
            fed2.close()
    finally:
        clear_tombstones(a)


def test_federated_parse_failure_degrades(ray_session, federation):
    """Parse failures return empty results (no traceback), matching the
    single-index path."""
    from probe_ray.search.searcher import FederatedReader

    (a, b), _ = federation
    fed = FederatedReader([a, b])
    try:
        t = fed.search("AND", k=5)  # genuinely unparseable
        assert t.num_rows == 0  # degraded to empty, no traceback
        e = fed.explain("error AND handler")
        assert e["path"] == "index" and e["n_docs"] == fed.n_docs
        assert e["federated_members"] == 2
    finally:
        fed.close()


def test_federated_search_many_matches_per_query(
    ray_session, federation, monkeypatch
):
    """Batched federated search must be bit-identical per query to both
    the one-at-a-time federated path and the union-index batch path,
    and a batch of n queries makes one actor-pool round per member."""
    from probe_ray.search.searcher import FederatedReader, IndexReader

    (a, b), union_dir = federation
    fed = FederatedReader([a, b])
    union = IndexReader(union_dir)
    try:
        named = {f"q{i}": q for i, q in enumerate(QUERIES)}
        rounds: list[int] = []
        send_specs = IndexReader._send_specs

        def counting(self, specs, k):
            rounds.append(len(specs))
            return send_specs(self, specs, k)

        monkeypatch.setattr(IndexReader, "_send_specs", counting)
        batch = fed.search_many(named, k=10)
        monkeypatch.undo()
        assert rounds == [len(named)] * len(fed.readers)
        ubatch = union.search_many(named, k=10)
        for name, q in named.items():
            assert batch[name].equals(fed.search(q, k=10)), name
            assert batch[name].equals(ubatch[name]), name
        # per-query filters ride through
        fb = fed.search_many(
            {"f": "error"}, k=20, filters={"f": {"lang": "en"}}
        )
        assert fb["f"].equals(fed.search("error", k=20, filters={"lang": "en"}))
        # special terms raise, parse failures degrade per query
        import pytest as _pytest

        with _pytest.raises(ValueError):
            fed.search_many({"s": '"error"'}, k=5)
        deg = fed.search_many({"bad": "(((", "ok": "error"}, k=5)
        assert deg["bad"].num_rows == 0 and deg["ok"].num_rows > 0
    finally:
        fed.close()
