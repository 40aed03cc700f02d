"""Mid-finalize crash resume: a wave whose tokenize completed but whose
finalize died partway (some subshard outputs missing, step not recorded
done) must rebuild to a state identical to a clean build — the
Hive-partitioned tokenized intermediate is the resume artifact and
finalize's atomic writes make re-runs idempotent."""

import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def clean_and_crashed(ray_session, small_corpus, tmp_path_factory):
    from probe_ray.index.build import IndexConfig, build_index

    cfg = IndexConfig(num_waves=1, subshards=3)
    a = str(tmp_path_factory.mktemp("fin_clean"))
    build_index([small_corpus], a, cfg)

    # simulate a crash between finalize tasks: copy the index, drop one
    # subshard's finalize outputs and the wave's finalized/done markers
    b = str(tmp_path_factory.mktemp("fin_crash")) + "/idx"
    shutil.copytree(a, b)
    wdir = os.path.join(b, "waves", "w0000")
    for sub in ("postings", "docstats", "units"):
        p = os.path.join(wdir, sub, "sub-0001.parquet")
        if os.path.exists(p):
            os.remove(p)
    wm_path = os.path.join(wdir, "wave_manifest.json")
    wm = json.load(open(wm_path))
    wm["steps"].pop("finalized", None)
    wm["status"] = "building"
    json.dump(wm, open(wm_path, "w"))
    os.remove(os.path.join(b, "manifest.json"))
    shutil.rmtree(os.path.join(b, "dict"), ignore_errors=True)

    build_index([small_corpus], b, cfg)  # resume
    return a, b


def test_resumed_index_identical(clean_and_crashed):
    a, b = clean_and_crashed
    files_a = sorted(
        os.path.relpath(f, a)
        for f in glob.glob(os.path.join(a, "**", "*.parquet"), recursive=True)
    )
    files_b = sorted(
        os.path.relpath(f, b)
        for f in glob.glob(os.path.join(b, "**", "*.parquet"), recursive=True)
    )
    assert files_a == files_b
    for rel in files_a:
        ta = pq.read_table(os.path.join(a, rel))
        tb = pq.read_table(os.path.join(b, rel))
        assert ta.equals(tb), rel


def test_nested_out_dir_resume_excludes_own_output(
    ray_session, tmp_path_factory
):
    """An out_dir nested inside the corpus dir (the rehearse_zipf layout)
    must not sweep its own partial parquet output back in as corpus
    fragments on resume — the resumed index must equal a clean build
    into a sibling dir."""
    from probe_ray.data.synth import write_corpus
    from probe_ray.index.build import IndexConfig, build_index

    corpus = str(tmp_path_factory.mktemp("nested_corpus"))
    write_corpus(corpus, 200, num_files=3)
    cfg = IndexConfig(num_waves=2, subshards=2)

    clean = str(tmp_path_factory.mktemp("nested_clean"))
    build_index([corpus], clean, cfg)

    nested = os.path.join(corpus, "idx")
    with pytest.raises(RuntimeError):
        build_index([corpus], nested, cfg, fail_after_wave=1)
    build_index([corpus], nested, cfg)  # resume; corpus dir now holds idx/

    from probe_ray.search.searcher import IndexReader

    for q in ("error AND handling", "+api +process load"):
        ra = IndexReader(clean).search(q, k=10)
        rb = IndexReader(nested).search(q, k=10)
        cols = ["rank", "score", "repo", "path"]
        assert ra.select(cols).equals(rb.select(cols)), q


def test_symlinked_input_resume_excludes_own_output(
    ray_session, tmp_path_factory
):
    """The input reaches out_dir through a symlink (the input path is a
    link to the corpus dir that holds out_dir): a resumed build must
    still recognise its own partial output and not index it."""
    from probe_ray.data.synth import write_corpus
    from probe_ray.index.build import IndexConfig, build_index, list_fragments
    from probe_ray.search.searcher import IndexReader

    corpus = str(tmp_path_factory.mktemp("link_corpus"))
    write_corpus(corpus, 200, num_files=3)
    cfg = IndexConfig(num_waves=2, subshards=2)
    clean = str(tmp_path_factory.mktemp("link_clean"))
    build_index([corpus], clean, cfg)

    link = str(tmp_path_factory.mktemp("link_dir")) + "/corpus"
    os.symlink(corpus, link)
    out = os.path.join(corpus, "idx")
    with pytest.raises(RuntimeError):
        build_index([link], out, cfg, fail_after_wave=1)
    # the partial output is visible through the link as parquet fragments
    assert any("/idx/" in f for f in list_fragments([link]))
    build_index([link], out, cfg)  # resume

    ra, rb = IndexReader(clean), IndexReader(out)
    try:
        assert rb.n_docs == ra.n_docs
        for q in ("error AND handling", "+api +process load"):
            cols = ["rank", "score", "repo", "path"]
            assert ra.search(q, k=10).select(cols).equals(
                rb.search(q, k=10).select(cols)
            ), q
    finally:
        ra.close()
        rb.close()


def test_resumed_search_identical(clean_and_crashed):
    from probe_ray.search.searcher import IndexReader

    a, b = clean_and_crashed
    for q in ("error AND handling", "setTools", "+api +process load"):
        ra = IndexReader(a).search(q, k=10)
        rb = IndexReader(b).search(q, k=10)
        cols = ["rank", "score", "repo", "path"]
        assert ra.select(cols).equals(rb.select(cols)), q
