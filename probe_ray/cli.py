"""CLI entrypoints — the `ray job submit` surface (north rule).

  python -m probe_ray build  --input DIR [DIR...] --out INDEX_DIR
                             [--waves N] [--subshards N] [--max-content-bytes N]
  python -m probe_ray search --index INDEX_DIR "QUERY" [...]
                             [-k N] [--filter field=value ...] [--json]

Both own their Ray session: `ray.init(address="local")` is guarded so the
same commands work under `ray job submit` (Ray already initialised in the
job driver) and standalone.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init():
    """Returns (ray, owns_session): shutdown only a session we started —
    under `ray job submit` (or tests) Ray is already initialised."""
    import ray

    if ray.is_initialized():
        return ray, False
    ray.init(address="local", include_dashboard=False)
    return ray, True


def cmd_build(args) -> int:
    ray, owns = _ray_init()
    from probe_ray.index.build import IndexConfig, build_index

    cfg = IndexConfig(
        num_waves=args.waves,
        subshards=args.subshards,
        max_content_bytes=args.max_content_bytes,
    )
    manifest = build_index(args.input, args.out, cfg)
    print(
        json.dumps(
            {
                "out": args.out,
                "n_docs": manifest["n_docs"],
                "n_tokens": manifest["n_tokens"],
                "avgdl": round(manifest["avgdl"], 3),
                "num_waves": manifest["num_waves"],
                "build_seconds": round(manifest["build_seconds"], 3),
            }
        )
    )
    if owns:
        ray.shutdown()
    return 0


def _corpus_files(corpus: str) -> list[str]:
    import glob
    import os

    if os.path.isdir(corpus):
        return sorted(glob.glob(os.path.join(corpus, "*.parquet")))
    return [corpus]


def _attach_code(t, corpus: str):
    """Fetch each result's file content from the corpus table (pushdown
    read of only the result paths) and attach it as a `code` column —
    the index stores no content, formatters that print code need it."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    paths = t.column("path").to_pylist()
    if not paths:
        return t.append_column("code", pa.array([], pa.string()))
    tbl = pads.dataset(_corpus_files(corpus)).to_table(
        columns=["path", "content"], filter=pads.field("path").isin(paths)
    )
    by_path = dict(
        zip(tbl.column("path").to_pylist(), tbl.column("content").to_pylist())
    )
    return t.append_column(
        "code", pa.array([by_path.get(p, "") for p in paths], pa.string())
    )


def cmd_search(args) -> int:
    ray, owns = _ray_init()
    from probe_ray.search.format import (
        apply_limits,
        format_json,
        format_markdown,
        format_plain,
        format_terminal,
        format_xml,
        rows_from_table,
    )
    from probe_ray.search.searcher import IndexReader

    filters = {}
    for f in args.filter or []:
        if "=" not in f:
            print(f"error: --filter expects field=value, got {f!r}", file=sys.stderr)
            return 2
        fld, val = f.split("=", 1)
        if fld not in ("repo", "path", "lang"):
            print(f"error: filter field must be repo|path|lang, got {fld!r}", file=sys.stderr)
            return 2
        filters[fld] = val

    if args.explain:
        import json as _json

        rd0 = IndexReader(args.index.split(","))
        try:
            print(_json.dumps(rd0.explain(" AND ".join(args.query)), indent=2))
        finally:
            rd0.close()
        if owns:
            ray.shutdown()
        return 0
    # one or more independently built indexes (per-tenant/shard layout,
    # comma-separated); global stats, bit-identical to a union build —
    # see searcher.IndexReader
    rd = IndexReader(args.index.split(","))
    # multiple query args are ANDed into one query, mirroring the
    # reference CLI (search_runner.rs:358-364)
    joined = " AND ".join(args.query)
    if args.blocks:
        if not args.corpus:
            print("error: --blocks requires --corpus DIR", file=sys.stderr)
            return 2
        from probe_ray.search.blocks import search_blocks

        t = search_blocks(
            rd, _corpus_files(args.corpus), joined, k=args.k,
            allow_tests=not args.exclude_tests,
        )
        if args.reranker and args.reranker != "bm25":
            from probe_ray.search.rerank import rerank

            # reference --question (cli.rs:92): natural-language rerank
            # context; the BM25 query still drives retrieval
            t = rerank(t, args.question or joined, args.reranker)
    else:
        try:
            t = rd.search_many(
                {"q0": joined}, k=args.k, filters={"q0": filters},
                max_total_tokens=args.max_tokens,
                exact=args.exact, exclude_filenames=args.exclude_filenames,
            )["q0"]
        except ValueError as e:
            # corpus-reading modes (exclude_filenames) over several indexes
            print(f"error: {e}", file=sys.stderr)
            rd.close()
            if owns:
                ray.shutdown()
            return 2
        if args.corpus:
            t = _attach_code(t, args.corpus)
    if args.files_only:
        # reference --files-only (cli.rs:23): unique files, no content
        seen: set[tuple[str, str]] = set()
        for r in t.select(["repo", "path"]).to_pylist():
            key = (r["repo"], r["path"])
            if key not in seen:
                seen.add(key)
                print(f"{r['repo']}/{r['path']}")
        rd.close()
        if owns:
            ray.shutdown()
        return 0
    if args.out:
        import os

        import pyarrow.parquet as pq

        os.makedirs(args.out, exist_ok=True)
        pq.write_table(t, os.path.join(args.out, "results.parquet"))

    fmt = "json" if args.json else args.format
    rows = rows_from_table(t)
    rows, skipped, limits = apply_limits(
        rows, max_results=args.max_results, max_bytes=args.max_bytes,
        max_tokens=args.max_tokens if args.blocks else None,
    )
    if fmt == "json":
        print(format_json(rows))
    elif fmt == "xml":
        print(format_xml(rows))
    elif fmt == "plain":
        print(format_plain(rows))
    elif fmt == "markdown":
        print(f"# {joined}")
        print(format_markdown(rows, dry_run=args.dry_run))
    else:
        print(format_terminal(rows, color=(fmt == "color")))
    if limits is not None and skipped:
        print(
            f"(limits applied: {len(skipped)} results skipped, "
            f"{limits['total_bytes']} bytes / {limits['total_tokens']} "
            "tokens kept)",
            file=sys.stderr,
        )
    rd.close()
    if owns:
        ray.shutdown()
    return 0


def cmd_extract(args) -> int:
    ray, owns = _ray_init()
    from probe_ray.search.extract import (
        extract,
        is_git_diff_format,
        parse_specs_from_git_diff,
        parse_specs_from_text,
    )
    from probe_ray.search.format import format_results

    specs: list = list(args.spec)
    for src, parser in ((args.diff, parse_specs_from_git_diff),
                        (args.from_text, parse_specs_from_text)):
        if src:
            text = sys.stdin.read() if src == "-" else open(src).read()
            if parser is parse_specs_from_text and is_git_diff_format(text):
                parser = parse_specs_from_git_diff
            specs.extend(parser(text, allow_tests=not args.exclude_tests))
    if not specs:
        print("error: no extraction specs (args, --diff or --from-text)",
              file=sys.stderr)
        return 2
    t = extract(
        _corpus_files(args.corpus),
        specs,
        context_lines=args.context,
        allow_tests=not args.exclude_tests,
    )
    print(format_results(t, "json" if args.json else args.format))
    if owns:
        ray.shutdown()
    return 0


def cmd_query(args) -> int:
    ray, owns = _ray_init()
    from probe_ray.search.pattern import query_pattern

    t = query_pattern(
        _corpus_files(args.corpus),
        args.pattern,
        language=args.language,
        allow_tests=not args.exclude_tests,
        max_results=args.max_results,
    )
    if args.json:
        print(json.dumps({"matches": t.to_pylist(), "count": t.num_rows}))
    else:
        for r in t.to_pylist():
            text = r["matched_text"].split("\n", 1)[0][:120]
            print(
                f"{r['repo']}/{r['path']}:{r['line_start']}:"
                f"{r['column_start']}: {text}"
            )
    if owns:
        ray.shutdown()
    return 0


def cmd_serve(args) -> int:
    from probe_ray.server import serve_stdio

    return serve_stdio(args.cache_dir)


def cmd_delete(args) -> int:
    from probe_ray.index.tombstones import add_tombstones, clear_tombstones

    pairs = []
    for key in args.keys:
        repo, _, path = key.partition(":")
        if not path:
            print(f"bad key {key!r}: expected repo:path", flush=True)
            return 2
        pairs.append((repo, path))
    if args.clear:
        n = clear_tombstones(args.index, pairs or None)
    else:
        n = add_tombstones(args.index, pairs)
    print(f"tombstones: {n}")
    return 0


def cmd_upsert(args) -> int:
    ray, owns = _ray_init()
    from probe_ray.index.build import IndexConfig
    from probe_ray.index.upsert import upsert_segment

    cfg = IndexConfig(num_waves=args.waves, subshards=args.subshards)
    manifest = upsert_segment(args.members, args.fragment, args.delta, cfg)
    print(
        json.dumps(
            {
                "delta": args.delta,
                "members": args.members,
                "n_docs": manifest["n_docs"],
                "search_with": "IndexReader(members + [delta], "
                "tombstone_scope='member')",
            }
        )
    )
    if owns:
        ray.shutdown()
    return 0


def cmd_stats(args) -> int:
    import json as _json
    import os

    from probe_ray.index.tombstones import load_tombstones

    out = []
    for idx in args.index.split(","):
        with open(os.path.join(idx, "manifest.json")) as f:
            m = _json.load(f)
        segs = sum(len(w.get("subshards", [])) for w in m.get("waves", []))
        out.append(
            {
                "index": idx,
                "n_docs": m["n_docs"],
                "n_tokens": m.get("n_tokens"),
                "avgdl": round(m.get("avgdl", 0.0), 3),
                "num_waves": m.get("num_waves"),
                "segments": segs,
                "engine_version": m.get("engine_version"),
                "tombstones": len(load_tombstones(idx)),
                "config": m.get("config", {}),
            }
        )
    print(_json.dumps(out if len(out) > 1 else out[0], indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="probe_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build (or resume) an inverted index")
    b.add_argument("--input", nargs="+", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--waves", type=int, default=2)
    b.add_argument("--subshards", type=int, default=4)
    b.add_argument("--max-content-bytes", type=int, default=None)
    b.set_defaults(fn=cmd_build)

    s = sub.add_parser("search", help="top-k BM25 boolean search")
    s.add_argument("--index", required=True)
    s.add_argument("query", nargs="+")
    s.add_argument("-k", type=int, default=10)
    s.add_argument(
        "--max-tokens", type=int, default=None,
        help="truncate results once their cumulative token count exceeds this",
    )
    s.add_argument(
        "--max-bytes", type=int, default=None,
        help="truncate results once their cumulative code bytes exceed this",
    )
    s.add_argument("--max-results", type=int, default=None)
    s.add_argument("--filter", action="append", metavar="FIELD=VALUE")
    s.add_argument(
        "-o", "--format", default="terminal",
        choices=["terminal", "markdown", "plain", "json", "xml", "color"],
    )
    s.add_argument("--json", action="store_true", help="alias for --format json")
    s.add_argument(
        "--corpus", help="corpus parquet dir — attach file content to results"
    )
    s.add_argument(
        "--blocks", action="store_true",
        help="block-granularity results (line-ranged context windows); needs --corpus",
    )
    s.add_argument("--exclude-tests", action="store_true")
    s.add_argument(
        "-f", "--files-only", action="store_true",
        help="output unique repo/path lines only (reference --files-only)",
    )
    s.add_argument(
        "-e", "--exact", action="store_true",
        help="whole query as one exact (untokenized, case-insensitive) term",
    )
    s.add_argument(
        "-n", "--exclude-filenames", action="store_true",
        help="path tokens contribute neither matches nor scores "
             "(routes to the exact scan path)",
    )
    s.add_argument(
        "--question", default=None,
        help="natural-language rerank context (with --reranker, --blocks)",
    )
    s.add_argument("--dry-run", action="store_true", help="names/lines only")
    s.add_argument(
        "--reranker", default="bm25",
        help="bm25 (default) or ms-marco-stub (actor-pool cross-encoder "
             "stand-in; --blocks only)",
    )
    s.add_argument("--out", help="also write results as parquet (one file per query)")
    s.add_argument("--explain", action="store_true",
                   help="print the query plan/path JSON and exit")
    s.set_defaults(fn=cmd_search)

    e = sub.add_parser(
        "extract", help="extract file / file:line / file:a-b / file#symbol"
    )
    e.add_argument("spec", nargs="*")
    e.add_argument("--corpus", required=True)
    e.add_argument("--diff", help="parse specs from a git diff (file or '-')")
    e.add_argument(
        "--from-text",
        help="parse file references out of free text (file or '-'); "
             "auto-detects git diffs",
    )
    e.add_argument("-c", "--context", type=int, default=0)
    e.add_argument(
        "-o", "--format", default="terminal",
        choices=["terminal", "markdown", "plain", "json", "xml", "color"],
    )
    e.add_argument("--json", action="store_true", help="alias for --format json")
    e.add_argument("--exclude-tests", action="store_true")
    e.set_defaults(fn=cmd_extract)

    pq = sub.add_parser(
        "query",
        help="structural pattern search ($NAME / $$$ metavariables; "
             "text-level ast-grep approximation)",
    )
    pq.add_argument("pattern")
    pq.add_argument("--corpus", required=True)
    pq.add_argument("--language")
    pq.add_argument("--max-results", type=int, default=None)
    pq.add_argument("--exclude-tests", action="store_true")
    pq.add_argument("--json", action="store_true")
    pq.set_defaults(fn=cmd_query)

    sv = sub.add_parser(
        "serve",
        help="MCP-analog stdio server (JSON-RPC: search_code / "
             "query_code / extract_code over a corpus)",
    )
    sv.add_argument("--cache-dir", default=None)
    sv.set_defaults(fn=cmd_serve)

    st = sub.add_parser(
        "stats",
        help="print index manifest summary (docs/tokens/segments/"
             "tombstones); comma-separated indexes print a list",
    )
    st.add_argument("--index", required=True)
    st.set_defaults(fn=cmd_stats)

    u = sub.add_parser(
        "upsert",
        help="update/insert documents: tombstone the fragment's keys in "
             "every member index and build a delta segment (search via "
             "federated member-scope tombstones)",
    )
    u.add_argument("--members", nargs="+", required=True,
                   help="existing index dirs (base + earlier deltas)")
    u.add_argument("--fragment", required=True,
                   help="corpus parquet fragment with the new doc versions")
    u.add_argument("--delta", required=True, help="output dir for the delta index")
    u.add_argument("--waves", type=int, default=1)
    u.add_argument("--subshards", type=int, default=1)
    u.set_defaults(fn=cmd_upsert)

    d = sub.add_parser(
        "delete",
        help="tombstone documents (repo/path) out of a built index "
             "without re-indexing; --clear restores",
    )
    d.add_argument("--index", required=True)
    d.add_argument(
        "keys", nargs="*",
        help="repo:path document keys (e.g. src3:lib/utils.py)",
    )
    d.add_argument("--clear", action="store_true",
                   help="remove the given tombstones (all when no keys)")
    d.set_defaults(fn=cmd_delete)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
