"""Correctness gate: engine top-k against the whole-file BM25 oracle.

The oracle is ``probe_ray.query.bm25.rank_files`` over the full corpus in
``(repo, path)`` order, so its index tie-break equals the engine's
``(score desc, repo asc, path asc)`` order. While the oracle runs, the
pure tokenizer functions it calls per document and per token are memoized (same
results, one tokenization per document and query context instead of one
per query); the originals are restored afterwards.
"""

from __future__ import annotations

import contextlib
import functools


@contextlib.contextmanager
def _memoized_tokenizer():
    from probe_ray.query import bm25
    from probe_ray.tokenize import tokenizer

    orig_pre = bm25.preprocess_text_with_filename
    orig_expand = tokenizer._expand_token
    orig_stem = tokenizer.stem
    memo: dict = {}

    def pre(text, filename, special_terms=frozenset()):
        key = (filename, special_terms)
        hit = memo.get(key)
        if hit is None or hit[0] is not text:
            hit = memo[key] = (text, orig_pre(text, filename, special_terms))
        return list(hit[1])

    bm25.preprocess_text_with_filename = pre
    tokenizer._expand_token = functools.lru_cache(maxsize=None)(orig_expand)
    tokenizer.stem = functools.lru_cache(maxsize=None)(orig_stem)
    try:
        yield
    finally:
        bm25.preprocess_text_with_filename = orig_pre
        tokenizer._expand_token = orig_expand
        tokenizer.stem = orig_stem


def corpus_rows(files: list[str]):
    """(paths, repos, rows) in (repo, path) order; rows are (path, content)."""
    import pyarrow.dataset as pads

    t = (
        pads.dataset(files)
        .to_table(columns=["repo", "path", "content"])
        .sort_by([("repo", "ascending"), ("path", "ascending")])
    )
    paths = t.column("path").to_pylist()
    return paths, t.column("repo").to_pylist(), list(zip(paths, t.column("content").to_pylist()))


def expected(files: list[str], queries: list[str], k: int) -> dict[str, list[tuple]]:
    """The oracle's top-k ``[(repo, path, score)]`` for each query."""
    from probe_ray.query.bm25 import rank_files

    paths, repos, rows = corpus_rows(files)
    with _memoized_tokenizer():
        return {q: [(repos[i], paths[i], s) for i, s in rank_files(rows, q)[:k]] for q in queries}


def compare(got: dict[str, list[tuple]], want: dict[str, list[tuple]]) -> list[str]:
    """One message per query whose engine top-k differs from the oracle's
    (empty = pass)."""
    bad = []
    for q, w in want.items():
        g = got.get(q, [])
        if g != w:
            first = next((j for j, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
            bad.append(
                f"{q!r}: engine {len(g)} rows vs oracle {len(w)}; first difference at rank {first + 1}: "
                f"{g[first] if first < len(g) else None} vs {w[first] if first < len(w) else None}"
            )
    return bad
