"""Vectorized ES-bool BM25 scoring over candidate arrays.

Mirrors score_expr_bm25_optimized (ranking.rs:226-274) elementwise over
numpy float64 arrays; identical IEEE-754 operation order to the scalar
oracle in probe_ray.query.bm25 (expression shape and keyword summation
order match), so scores are bit-identical.
"""

from __future__ import annotations

import numpy as np

from probe_ray.query.bm25 import B, K1
from probe_ray.query.parser import And, Expr, Term


def impact(tf: np.ndarray, doc_len: np.ndarray, avgdl: float) -> np.ndarray:
    """BM25 tf part: tf*(k1+1)/(tf + k1*(1-b+b*doc_len/avgdl))."""
    return (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * (doc_len / avgdl)))


def score_ast(
    expr: Expr,
    tf_arrays: dict[str, np.ndarray],
    doc_len: np.ndarray,
    avgdl: float,
    idfs: dict[str, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (scores, included) arrays over the candidate axis."""
    n = len(doc_len)
    if isinstance(expr, Term):
        s = np.zeros(n, dtype=np.float64)
        for kw in expr.keywords:
            tf = tf_arrays.get(kw)
            if tf is None:
                continue
            kw_idf = idfs.get(kw, 0.0)
            hit = tf > 0
            if hit.any():
                part = np.zeros(n, dtype=np.float64)
                part[hit] = kw_idf * impact(
                    tf[hit].astype(np.float64), doc_len[hit], avgdl
                )
                s += part
        if expr.excluded:
            return np.zeros(n, dtype=np.float64), ~(s > 0.0)
        if expr.required:
            return s, s > 0.0
        return s, np.ones(n, dtype=bool)
    if isinstance(expr, And):
        ls, li = score_ast(expr.left, tf_arrays, doc_len, avgdl, idfs)
        rs, ri = score_ast(expr.right, tf_arrays, doc_len, avgdl, idfs)
        return ls + rs, li & ri
    ls, li = score_ast(expr.left, tf_arrays, doc_len, avgdl, idfs)
    rs, ri = score_ast(expr.right, tf_arrays, doc_len, avgdl, idfs)
    return np.where(li, ls, 0.0) + np.where(ri, rs, 0.0), li | ri


def eval_mask(
    expr: Expr, present: dict[str, np.ndarray], n: int
) -> np.ndarray:
    """Vectorized evaluate() (elastic_query.rs:365-443 / parser.evaluate):
    the reference CLI GATES results with boolean evaluation before ranking
    (filter_tokenized_block, file_processing.rs:202-355), so the engine
    applies the same gate to scored candidates. ``present[kw]`` is a bool
    array over the candidate axis; missing keywords count as absent.

    The caller handles the zero-match rule (docs matching nothing are kept
    only for only-excluded queries) — candidates here have >=1 match by
    construction."""
    from probe_ray.query.parser import walk_terms

    has_req = any(t.required and not t.excluded for t in walk_terms(expr))

    def falses():
        return np.zeros(n, dtype=bool)

    def trues():
        return np.ones(n, dtype=bool)

    def rec(e: Expr) -> np.ndarray:
        if isinstance(e, Term):
            if not e.keywords:
                return trues() if e.excluded else falses()
            arrs = [present.get(kw, None) for kw in e.keywords]
            any_p = falses()
            all_p = trues()
            for a in arrs:
                if a is None:
                    all_p = falses()
                else:
                    any_p |= a
                    all_p &= a
            if e.excluded:
                return ~any_p
            if e.required:
                return all_p
            if has_req:
                return trues()  # optional auto-true when a required exists
            return all_p  # needs at least one AND then all => all
        if isinstance(e, And):
            return rec(e.left) & rec(e.right)
        return rec(e.left) | rec(e.right)

    mask = rec(expr)
    if has_req:
        # Lucene-style global rule: every required term (anywhere in the
        # AST) must be fully present
        for t in walk_terms(expr):
            if t.required and not t.excluded:
                for kw in t.keywords:
                    a = present.get(kw)
                    mask &= a if a is not None else falses()
    return mask
