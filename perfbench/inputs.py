"""Seeded inputs for the engine benchmark: corpora, append and upsert
fragments, and query streams.

The benchmark owns these generators, so a change to the program's own
synthetic-data module cannot change a workload. Rows have the shape of
the program's code-table corpus: ``(repo, path, commit, lang, content)``,
one statement per line, built from syntax words, code identifiers and
common words, with rare markers in a few documents and a unique salt
line per document.

Two corpus shapes:

- ``code``: common words come from a 35-word pool, so every common word
  has a document frequency close to N (the engine's caches hold the
  whole working set).
- ``zipf``: common words come from a Zipf(1.07) vocabulary of synthetic
  words (``qz`` + base-20 consonants, vowel-free so the stemmer leaves
  them whole); a tenth of the draws appear as camelCase identifiers
  ``get<Word>``, which a quoted query keeps whole, so quoting one gives
  the hybrid special-term path a real, moderate candidate set.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

LANGS = [
    "rust", "javascript", "typescript", "python", "go", "c", "cpp",
    "java", "ruby", "php", "swift", "csharp",
]
EXT = {
    "rust": "rs", "javascript": "js", "typescript": "ts", "python": "py",
    "go": "go", "c": "c", "cpp": "cpp", "java": "java", "ruby": "rb",
    "php": "php", "swift": "swift", "csharp": "cs",
}
IDENTIFIERS = [
    "camelCase", "PascalCase", "parseJSONToHTML5", "APIDefinition",
    "OAuth2Provider", "RPCStorageHandler", "migrateEndpointMetaByType",
    "enableFirewallWhitelist", "httpHandler", "blackmail", "whitelist",
    "firewall", "hashmap", "database", "keyword", "ip_whitelist",
    "snake_case_value", "sha256", "base64", "html5", "JWTMiddleware",
    "setTools", "errorHandler", "loginService", "authenticationToken",
    "processData", "loadConfig", "apiClient", "jsonParser", "yamlLoader",
    "workflowEngine", "multiAgentRunner", "userInputValidator", "sqliteDriver",
]
COMMON_WORDS = [
    "error", "handling", "login", "authentication", "auth", "exception",
    "handle", "process", "api", "load", "data", "config", "ip", "port",
    "server", "client", "request", "response", "cache", "queue", "token",
    "user", "input", "yaml", "workflow", "agent", "multi", "search",
    "index", "query", "result", "stream", "batch", "write", "read",
]
SYNTAX = [
    "fn", "return", "struct", "impl", "let", "const", "if", "else", "for",
    "while", "func", "var", "class", "public", "static", "async", "await",
]
RARE = [
    "fibonacci", "quaternion", "levenshtein", "mandelbrot", "voronoi",
    "bresenham", "karatsuba", "hilbert", "chebyshev", "lagrange",
    "sqlite", "kafka", "zookeeper", "raft", "paxos", "gossip",
]
DIRS = ["src", "lib", "core", "internal", "pkg", "api", "util"]
STEMS = ["main", "handler", "service", "parser", "config", "auth", "index", "worker"]
NUM_REPOS = 8

# The 15 reference queries (index-path and hybrid shapes) that the
# query_hot client cycles through.
HOT_QUERIES = {
    "single_term": "setTools",
    "and": "error AND handling",
    "or_chain": "login OR authentication OR auth",
    "grouped": "(error OR exception) AND (handle OR process)",
    "excluded": "database -sqlite",
    "required": "+api +process load",
    "and_pair": "ip AND whitelist",
    "quoted_exact": '"whitelist"',
    "quoted_with_negative": '"hashmap" -database',
    "quoted_rare_dynamic": '"karatsuba"',
    "camel_compound": "RPCStorageHandler",
    "camel_exception": "enableFirewallWhitelist",
    "determinism_stressor": "yaml workflow agent multi-agent user input",
    "generic": "keyword",
    "empty_result": "nonexistent_xyz",
}

ZIPF_VOCAB = 50_000
ZIPF_S = 1.07
CAMEL_FRAC = 0.1
_CONS = "bcdfghjklmnpqrstvwxz"
_ZIPF_W = 1.0 / np.arange(1, len(COMMON_WORDS) + 1) ** 0.9
_CODE_CDF = np.cumsum(_ZIPF_W / _ZIPF_W.sum())


def zipf_word(rank: int) -> str:
    """Vocabulary word of 0-based ``rank``: 'qz' + base-20 consonants."""
    s = []
    r = rank
    while True:
        s.append(_CONS[r % 20])
        r //= 20
        if r == 0:
            break
    return "qz" + "".join(s)


def camel_word(rank: int) -> str:
    """The camelCase identifier form of vocabulary word ``rank``."""
    return "get" + zipf_word(rank).capitalize()


_ZIPF_CDF: np.ndarray | None = None


def _zipf_cdf() -> np.ndarray:
    global _ZIPF_CDF
    if _ZIPF_CDF is None:
        w = 1.0 / np.arange(1, ZIPF_VOCAB + 1, dtype=np.float64) ** ZIPF_S
        _ZIPF_CDF = np.cumsum(w / w.sum())
    return _ZIPF_CDF


def _commit(repo: str) -> str:
    return hashlib.sha1(f"{repo}@snapshot".encode()).hexdigest()


def make_rows(shape: str, seed: int, start: int, count: int, extra_line: str | None = None):
    """Rows ``[start, start + count)`` of corpus ``shape`` for ``seed``.
    Each row is generated from its own seeded stream, so any slice is
    reproducible on its own. ``extra_line`` is appended to every
    document (upsert fragments carry their marker word this way)."""
    import pyarrow as pa

    zipf = shape == "zipf"
    cdf = _zipf_cdf() if zipf else _CODE_CDF
    repos, paths, commits, langs, contents = [], [], [], [], []
    for i in range(start, start + count):
        rng = np.random.default_rng([seed, i])
        repo = f"org{i % NUM_REPOS // 4}/repo{i % NUM_REPOS}"
        lang = LANGS[int(rng.integers(len(LANGS)))]
        dirs = "/".join(DIRS[j] for j in rng.integers(len(DIRS), size=int(rng.integers(1, 4))))
        path = f"{dirs}/{STEMS[int(rng.integers(len(STEMS)))]}_{i}.{EXT[lang]}"
        n_stmts = int(rng.integers(5, 40))
        syn = rng.integers(len(SYNTAX), size=n_stmts)
        ident = rng.integers(len(IDENTIFIERS), size=n_stmts)
        ncom = rng.integers(1, 5, size=n_stmts)
        com = np.searchsorted(cdf, rng.random(int(ncom.sum())))
        if zipf:
            camel = rng.random(len(com)) < CAMEL_FRAC
            words = [camel_word(int(r)) if c else zipf_word(int(r)) for r, c in zip(com, camel)]
        else:
            words = [COMMON_WORDS[int(r)] for r in com]
        stmts = []
        ci = 0
        for k in range(n_stmts):
            n = int(ncom[k])
            stmts.append(" ".join([SYNTAX[syn[k]], IDENTIFIERS[ident[k]], *words[ci : ci + n]]))
            ci += n
        if rng.random() < 0.08:
            stmts.append(RARE[int(rng.integers(len(RARE)))])
        if extra_line is not None:
            stmts.append(extra_line)
        stmts.append(f"salt_{seed}_{i}_{int(rng.integers(2**31))}")
        repos.append(repo)
        paths.append(path)
        commits.append(_commit(repo))
        langs.append(lang)
        contents.append("\n".join(stmts))
    return pa.table(
        {
            "repo": pa.array(repos, pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": pa.array(commits, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "content": pa.array(contents, pa.string()),
        }
    )


def write_rows(table, path: str) -> str:
    import pyarrow.parquet as pq

    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path, row_group_size=2048)
    return path


def write_corpus(shape: str, seed: int, out_dir: str, n_docs: int, n_files: int) -> list[str]:
    """The base corpus as ``n_files`` parquet files."""
    per = -(-n_docs // n_files)
    files = []
    for f in range(n_files):
        start = f * per
        count = min(per, n_docs - start)
        if count > 0:
            files.append(
                write_rows(make_rows(shape, seed, start, count), os.path.join(out_dir, f"part-{f:05d}.parquet"))
            )
    return files


def upsert_fragment(shape: str, seed: int, n_base: int, u: int, size: int):
    """Fragment ``u`` of the upsert chain and its marker word: ``size // 2``
    updates of distinct base documents (same repo and path, new content)
    and ``size - size // 2`` inserts of new documents. Every document
    carries the marker, which nothing else in the corpus contains."""
    import pyarrow as pa

    marker = "qxvmrk" + _CONS[u % 20] + _CONS[(seed // 20) % 20] + _CONS[seed % 20]
    rng = np.random.default_rng([seed, 0x5AFE, u])
    n_upd = size // 2
    # links of the chain update disjoint documents: link u uses stride u mod 4
    picks = rng.choice(n_base // 4, size=n_upd, replace=False) * 4 + u
    old = pa.concat_tables([make_rows(shape, seed, int(i), 1) for i in picks])
    new = make_rows(shape, seed + 1, 0, n_upd, extra_line=marker)
    updated = old.set_column(4, "content", new.column("content"))
    inserts = make_rows(shape, seed, 10_000_000 + u * 100_000, size - n_upd, extra_line=marker)
    return pa.concat_tables([updated, inserts]), marker


class ZipfStream:
    """Mostly-distinct queries over the zipf vocabulary's df ladder.

    Ranks and their document frequency in a 9.5k-doc corpus: hot 0-4
    (df ~9,300-5,600; ranks 0 and 1 exceed the engine's HOT_DF of 8192 in
    the single base segment), mid 30-300 (df ~1,500-150), rare 400-8000
    (df ~110-5). Shapes repeat in a
    fixed cycle, three on the index path (AND, OR, +required) and three
    on the hybrid special-term path (two quoted camelCase identifiers,
    one -excluded word). Within a shape, word ranks follow an additive
    golden-ratio sequence from a seeded start on a log scale, so every
    run covers the ladder evenly and the seed only moves which words
    are drawn."""

    SHAPES = ("and", "quoted", "or", "excluded", "required", "quoted")

    def __init__(self, seed: int, stream: int) -> None:
        self.start = np.random.default_rng([seed, stream]).random(3)
        self.k = 0

    def _rank(self, dim: int, lo: float, hi: float) -> int:
        # one irrational step per dimension keeps the three draws uncorrelated
        u = (self.start[dim] + self.k * (0.6180339887498949, 0.41421356237309515, 0.7548776662466927)[dim]) % 1.0
        return int(10 ** (np.log10(lo) + u * (np.log10(hi) - np.log10(lo))))

    def next(self) -> tuple[str, str]:
        shape = self.SHAPES[self.k % len(self.SHAPES)]
        hot = zipf_word(self.k % 5)
        mid = zipf_word(self._rank(0, 30, 300))
        rare = zipf_word(self._rank(1, 400, 8000))
        camel = camel_word(self._rank(2, 30, 1000)).lower()
        self.k += 1
        return shape, {
            "and": f"{hot} AND {mid}",
            "or": f"{mid} OR {rare}",
            "required": f"+{hot} {rare}",
            "excluded": f"{hot} -{rare}",
            "quoted": f'"{camel}" {hot}',
        }[shape]
