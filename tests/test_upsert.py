"""Document updates via segment upsert (index/upsert.py): per-member
tombstones + a delta index must make exactly the new versions visible,
with O(changed docs) work and no posting rewrite."""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

MARK1 = "upsertmarkeralpha"
MARK2 = "upsertmarkerbeta"


@pytest.fixture(scope="module")
def upsert_env(ray_session, small_corpus, tmp_path_factory):
    """A PRIVATE base index (tombstones mutate it — the shared
    built_index fixture must stay untouched) plus two prepared delta
    fragments: round 1 rewrites two existing docs and inserts one new
    doc, round 2 rewrites one of round 1's docs again."""
    from probe_ray.index.build import IndexConfig, build_index

    root = str(tmp_path_factory.mktemp("upsert"))
    base_dir = os.path.join(root, "base")
    build_index([small_corpus], base_dir, IndexConfig(num_waves=2, subshards=2))

    t = pads.dataset(small_corpus).to_table().sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    rows = t.to_pylist()
    upd = [rows[3], rows[17]]
    new_rows = []
    for r in upd:
        r = dict(r)
        r["content"] = f"def rewritten_handler():\n    return {MARK1}\n"
        r["commit"] = "upsert1"
        new_rows.append(r)
    insert = dict(rows[0])
    insert["path"] = "brand/new_file.py"
    insert["content"] = f"class BrandNew:\n    flag = {MARK1}\n"
    insert["commit"] = "upsert1"
    new_rows.append(insert)
    frag1 = os.path.join(root, "delta1.parquet")
    pq.write_table(pa.Table.from_pylist(new_rows, schema=t.schema), frag1)

    again = dict(new_rows[0])
    again["content"] = f"def rewritten_twice():\n    return {MARK2}\n"
    again["commit"] = "upsert2"
    frag2 = os.path.join(root, "delta2.parquet")
    pq.write_table(pa.Table.from_pylist([again], schema=t.schema), frag2)

    return {
        "root": root,
        "base": base_dir,
        "frag1": frag1,
        "frag2": frag2,
        "rows": rows,
        "updated": upd,
        "new_rows": new_rows,
        "again": again,
    }


def _sha(content: str) -> str:
    return hashlib.sha256(content.encode()).hexdigest()


def test_upsert_round1_visibility(ray_session, upsert_env):
    from probe_ray.index.upsert import upsert_segment
    from probe_ray.search.searcher import FederatedReader

    env = upsert_env
    delta1 = os.path.join(env["root"], "delta1_idx")
    m = upsert_segment([env["base"]], env["frag1"], delta1)
    assert m["n_docs"] == 3
    env["delta1"] = delta1

    fed = FederatedReader(
        [env["base"], delta1], num_workers=1, tombstone_scope="member"
    )
    try:
        # exactly the three round-1 versions carry the marker
        got = fed.search(MARK1, k=10)
        assert got.num_rows == 3
        want = {
            (r["repo"], r["path"]): _sha(r["content"])
            for r in env["new_rows"]
        }
        for r in got.to_pylist():
            assert want[(r["repo"], r["path"])] == r["sha256"]
        # the old versions are masked: searching for each updated doc
        # with a repo+path filter must return only the NEW sha
        for old, new in zip(env["updated"], env["new_rows"][:2]):
            hits = fed.search(
                MARK1,
                k=10,
                filters={"repo": old["repo"], "path": old["path"]},
            )
            assert hits.num_rows == 1
            assert hits.column("sha256")[0].as_py() == _sha(new["content"])
        # an untouched document is still retrievable through the fed
        untouched = env["rows"][50]
        hits = fed.search(
            "error OR handler OR login OR auth",
            k=5,
            filters={"repo": untouched["repo"], "path": untouched["path"]},
        )
        assert hits.num_rows == 1
        assert hits.column("sha256")[0].as_py() == _sha(untouched["content"])
        # stats stay corpus-global until compaction: N counts both sides
        assert fed.n_docs == 300 + 3
        assert fed.explain(MARK1)["tombstone_scope"] == "member"
    finally:
        fed.close()


def test_global_scope_masks_upserts_everywhere(ray_session, upsert_env):
    """The contrast case: with the default global scope a federated
    delete deletes everywhere, so the delta's fresh versions are masked
    by the very tombstones the upsert wrote — which is why the upsert
    layout requires tombstone_scope='member'."""
    from probe_ray.search.searcher import FederatedReader

    env = upsert_env
    fed = FederatedReader([env["base"], env["delta1"]], num_workers=1)
    try:
        assert fed.tombstone_scope == "global"
        assert fed.search(MARK1, k=10).num_rows == 0
    finally:
        fed.close()


def test_upsert_round2_chains(ray_session, upsert_env):
    from probe_ray.index.upsert import upsert_segment
    from probe_ray.search.searcher import FederatedReader

    env = upsert_env
    delta2 = os.path.join(env["root"], "delta2_idx")
    upsert_segment([env["base"], env["delta1"]], env["frag2"], delta2)

    # num_workers=1 keeps the actor-CPU footprint small: the suite's
    # shared 4-CPU session also hosts other fixtures' persistent query
    # actors. A reader holds one pool whatever its member count, and the
    # two readers below are opened one after the other, each closed
    # before the next opens.
    fed = FederatedReader(
        [env["base"], env["delta1"], delta2],
        num_workers=1,
        tombstone_scope="member",
    )
    try:
        again = env["again"]
        # the round-2 version is the only visible one for its key
        got = fed.search(MARK2, k=10)
        assert got.num_rows == 1
        r = got.to_pylist()[0]
        assert (r["repo"], r["path"]) == (again["repo"], again["path"])
        assert r["sha256"] == _sha(again["content"])
        # its round-1 version is gone from the MARK1 result set; the
        # other two round-1 docs survive
        got1 = fed.search(MARK1, k=10)
        keys = {(r["repo"], r["path"]) for r in got1.to_pylist()}
        assert (again["repo"], again["path"]) not in keys
        assert len(keys) == 2
    finally:
        fed.close()
    # determinism: a reopened federation returns the same tables
    fed2 = FederatedReader(
        [env["base"], env["delta1"], delta2],
        num_workers=1,
        tombstone_scope="member",
    )
    try:
        assert fed2.search(MARK2, k=10).equals(got)
        assert fed2.search(MARK1, k=10).equals(got1)
    finally:
        fed2.close()


def test_upsert_excludes_hybrid_candidates_per_segment(ray_session, tmp_path):
    """The old version of an upserted doc holds the excluded special
    term ``hashmap`` (so it is a hybrid candidate) and the new version
    does not. Over [base, delta] with member scope, ``handler -hashmap``
    returns the new version and never the old one, and the same
    (repo, path, sha256) set as an index rebuilt over the live corpus.
    Excluding the candidates from the index path by (repo, path) key
    would hide the live new version too: the key repeats across the two
    members."""
    from probe_ray.index.build import IndexConfig, build_index
    from probe_ray.index.upsert import upsert_segment
    from probe_ray.search.searcher import IndexReader

    def write(rows, path):
        pq.write_table(pa.table({
            "repo": [r[0] for r in rows],
            "path": [r[1] for r in rows],
            "commit": ["c0"] * len(rows),
            "lang": ["rs"] * len(rows),
            "content": [r[2] for r in rows],
        }), path)

    rows = [
        (f"r{i % 2}", f"src/h{i:02d}.rs", f"handler for request {i % 5}"
         + (" with hashmapStore" if i % 6 == 1 else ""))
        for i in range(24)
    ]
    old = ("r0", "src/h04.rs", "handler that builds a hashmapLoader")
    new = ("r0", "src/h04.rs", "handler that builds a treeLoader")
    rows[4] = old
    live = [new if r[:2] == new[:2] else r for r in rows]
    for name, rs in (("corpus", rows), ("live", live)):
        os.makedirs(tmp_path / name)
        write(rs, str(tmp_path / name / "part0.parquet"))
    base, delta, rebuilt = (str(tmp_path / n) for n in ("base", "delta", "rebuilt"))
    build_index([str(tmp_path / "corpus")], base, IndexConfig(num_waves=1, subshards=2))
    build_index([str(tmp_path / "live")], rebuilt, IndexConfig(num_waves=1, subshards=2))
    frag = str(tmp_path / "frag.parquet")
    write([new], frag)
    upsert_segment([base], frag, delta)

    q = "handler -hashmap"
    fed = IndexReader([base, delta], num_workers=1, tombstone_scope="member")
    want_rd = IndexReader(rebuilt, num_workers=1)
    try:
        assert fed.explain(q)["unit_candidates"] > 0
        got = fed.search(q, k=50)
        want = want_rd.search(q, k=50)
    finally:
        fed.close()
        want_rd.close()

    def key_sha(t):
        return set(zip(*(t.column(c).to_pylist() for c in ("repo", "path", "sha256"))))

    assert (*new[:2], _sha(new[2])) in key_sha(got)
    assert (*old[:2], _sha(old[2])) not in key_sha(got)
    assert key_sha(got) == key_sha(want) and 0 < got.num_rows < 50


def test_bad_scope_rejected(ray_session, upsert_env):
    from probe_ray.search.searcher import FederatedReader

    with pytest.raises(ValueError, match="tombstone_scope"):
        FederatedReader([upsert_env["base"]], tombstone_scope="segment")


def test_failed_delta_build_leaves_members_untombstoned(
    upsert_env, tmp_path, monkeypatch
):
    """Crash-safety ordering (ADVICE r4): the delta index builds BEFORE
    members are tombstoned, so a failed build leaves every old version
    visible (no tombstones written) instead of masking documents that
    have no replacement yet."""
    import probe_ray.index.upsert as upsert_mod
    from probe_ray.index.tombstones import load_tombstones

    member = tmp_path / "member_idx"
    member.mkdir()

    def boom(*a, **k):
        raise RuntimeError("injected delta build failure")

    monkeypatch.setattr(upsert_mod, "build_index", boom)
    with pytest.raises(RuntimeError, match="injected"):
        upsert_mod.upsert_segment(
            [str(member)], upsert_env["frag1"], str(tmp_path / "delta_idx")
        )
    assert load_tombstones(str(member)) == frozenset()
