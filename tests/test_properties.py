"""Property tests (hypothesis) mirroring the reference's proptest suite
(tests/property_tests.rs: tokenizer totality, query robustness, avgdl) plus
codec round-trip invariants. No Ray needed — pure kernels."""

from __future__ import annotations

import re

import numpy as np
from hypothesis import example, given, settings, strategies as st

# derandomized: the driver's correctness gate runs this suite; example
# generation must not vary between runs
settings.register_profile("stable", derandomize=True)
settings.load_profile("stable")

from probe_ray.index.codec import (
    BLOCK,
    block_meta,
    decode_selected_blocks,
    decode_varint_deltas,
    encode_varint_deltas,
    encode_varint_deltas_multi,
    pack_tf,
    unpack_tf,
)
from probe_ray.query.bm25 import create_query_plan
from probe_ray.query.parser import parse_query
from probe_ray.tokenize.tables import SPECIAL_CASE_WORDS
from probe_ray.tokenize.tokenizer import preprocess_text_with_filename, tokenize

text_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=400
)


@settings(max_examples=300, deadline=None)
@given(text_st)
def test_tokenizer_total_and_deduped(text):
    """tokenize() never raises, never emits duplicates or empty strings,
    and is deterministic."""
    toks = tokenize(text)
    assert len(toks) == len(set(toks))
    assert all(isinstance(t, str) and t for t in toks)
    assert toks == tokenize(text)


@settings(max_examples=150, deadline=None)
@given(text_st, text_st)
def test_preprocess_tf_bounded(code, path):
    """TF of any term in content++path tokens is at most 2 (SURVEY H1)."""
    toks = preprocess_text_with_filename(code, path)
    counts: dict[str, int] = {}
    for t in toks:
        counts[t] = counts.get(t, 0) + 1
    assert all(v <= 2 for v in counts.values())


@settings(max_examples=300, deadline=None)
@given(text_st)
def test_query_parser_total(q):
    """Any input either parses (fallbacks included,
    elastic_query.rs:913-963) or raises ParseError — never any other
    exception — and deterministically so. The search layer maps
    ParseError to an empty result (searcher.py:search_many)."""
    from probe_ray.query.parser import ParseError

    def attempt():
        try:
            return repr(parse_query(q)), None
        except ParseError as e:
            return None, str(e)

    a1 = attempt()
    a2 = attempt()
    assert a1 == a2
    if a1[0] is not None:
        plan = create_query_plan(q)
        assert list(plan.term_indices) == sorted(plan.term_indices)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=2**40), min_size=1, max_size=700
    )
)
def test_codec_roundtrip(ids):
    arr = np.unique(np.asarray(ids, dtype=np.uint64))
    payload = encode_varint_deltas(arr)
    assert np.array_equal(decode_varint_deltas(payload, len(arr)), arr)
    # selected-block decode agrees with full decode
    nblocks = (len(arr) + BLOCK - 1) // BLOCK
    sel = np.arange(0, nblocks, 2)
    got_ids, got_pos = decode_selected_blocks(payload, len(arr), sel)
    assert np.array_equal(got_ids, np.concatenate(
        [arr[b * BLOCK : (b + 1) * BLOCK] for b in sel]
    ) if len(sel) else np.empty(0, np.uint64))
    assert np.array_equal(arr[got_pos], got_ids)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=0, max_value=2**40),
            min_size=1,
            max_size=300,
        ),
        min_size=1,
        max_size=8,
    )
)
def test_multi_codec_matches_single(groups):
    arrays = [np.unique(np.asarray(g, dtype=np.uint64)) for g in groups]
    vals = np.concatenate(arrays)
    lens = np.array([len(a) for a in arrays])
    assert encode_varint_deltas_multi(vals, lens) == [
        encode_varint_deltas(a) for a in arrays
    ]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=600))
def test_tf_bitmap_roundtrip(tfs):
    arr = np.asarray(tfs)
    assert np.array_equal(unpack_tf(pack_tf(arr), len(arr)), arr)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=70),
        min_size=0,
        max_size=8,
    )
)
def test_pack_tf_multi_matches_single(groups):
    from probe_ray.index.codec import pack_tf_multi

    arrays = [np.asarray(g, dtype=np.uint8) for g in groups]
    flat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.uint8)
    lens = np.array([len(a) for a in arrays], dtype=np.int64)
    assert pack_tf_multi(flat, lens) == [pack_tf(a) for a in arrays]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=2**40), min_size=1, max_size=600
    ),
    st.data(),
)
def test_block_meta_invariants(ids, data):
    arr = np.unique(np.asarray(ids, dtype=np.uint64))
    tfs = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=1, max_value=2),
                min_size=len(arr),
                max_size=len(arr),
            )
        ),
        dtype=np.uint8,
    )
    last_b, maxtf_b = block_meta(arr, tfs)
    last = np.frombuffer(last_b, np.uint64)
    maxtf = np.frombuffer(maxtf_b, np.uint8)
    nblocks = (len(arr) + BLOCK - 1) // BLOCK
    assert len(last) == len(maxtf) == nblocks
    assert last[-1] == arr[-1]
    assert np.all(np.diff(last.astype(np.int64)) > 0) or nblocks == 1
    for b in range(nblocks):
        blk = tfs[b * BLOCK : (b + 1) * BLOCK]
        assert maxtf[b] == blk.max()


# a term the hybrid path treats as an ACTIVE special (alnum-only unit);
# include case-folding trouble: dotted/dotless I, sharp s, Kelvin sign
_tricky_chars = st.characters(
    whitelist_categories=("Lu", "Ll", "Nd"),
    whitelist_characters="İıßẞK",
)
_term_st = st.text(alphabet=_tricky_chars, min_size=1, max_size=8)
_body_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=300
)


@settings(max_examples=300, deadline=None)
@given(_body_st, _body_st, _term_st)
@example(content="oauthΣ1x", path="p.py", term="Σ1x")
def test_unit_candidate_soundness(content, path, term):
    """The unit-postings candidate rule (search/hybrid.py): if a dynamic
    special term changes a document's tokenization, the lowercased term
    must be a substring of one of the doc's lowercased alnum units, with
    final ς folded to σ on both sides (the engine's case-insensitive
    match folds them alike) — otherwise the index-served candidate set
    would silently miss a doc whose score shifts under the query context."""
    from probe_ray.search.hybrid import _UNIT_RE
    from probe_ray.tokenize.tables import SPECIAL_CASE_WORDS
    from probe_ray.tokenize.tokenizer import _ALNUM_RUNS

    t = term.lower()
    if not _UNIT_RE.match(t) or t in SPECIAL_CASE_WORDS:
        return  # inactive special: hybrid asserts tokenization is unchanged
    sp = frozenset({t})
    d = preprocess_text_with_filename(content, path)
    c = preprocess_text_with_filename(content, path, sp)
    if d != c:
        units = {_fold(u.lower()) for u in _ALNUM_RUNS.findall(content)}
        units.update(_fold(u.lower()) for u in _ALNUM_RUNS.findall(path))
        assert any(_fold(t) in u for u in units), (t, content, path)


_UNIT_RE_T = re.compile(r"[^\W_]+\Z", re.UNICODE)
_nonunit_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=10
).filter(lambda s: not _UNIT_RE_T.match(s.lower()))


@settings(max_examples=200, deadline=None)
@given(_body_st, _nonunit_st)
def test_inactive_special_changes_nothing(content, term):
    """Non-unit special terms (spaces/punct/underscore) can never match an
    alnum run, so the hybrid path runs those queries as pure index
    queries — valid only if they truly never alter tokenization."""
    d = preprocess_text_with_filename(content, "p.py")
    c = preprocess_text_with_filename(content, "p.py", frozenset({term.lower()}))
    assert d == c, (term,)


@settings(max_examples=200, deadline=None)
@given(_body_st, st.sampled_from(sorted(SPECIAL_CASE_WORDS)))
def test_static_special_case_changes_nothing(content, word):
    """STATIC special-case words are in every tokenizer table already —
    adding them as dynamic specials must be a tokenization no-op (the
    hybrid answers those quoted terms from the index alone)."""
    d = preprocess_text_with_filename(content, "p.py")
    c = preprocess_text_with_filename(content, "p.py", frozenset({word}))
    assert d == c, (word,)


# --- pattern matcher totality + match invariants ---------------------------

_pat_piece = st.sampled_from(
    ["fn ", "$NAME", "$$$", "$$$ARGS", "(", ")", "{", "}", " ", "foo",
     "= ", ";", "$A", "->"]
)
_src_st = st.text(
    alphabet="abfnoparens(){};=$->_ \n", min_size=0, max_size=200
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_pat_piece, min_size=1, max_size=6), _src_st)
def test_pattern_matcher_total_and_sound(pieces, src):
    """compile_pattern/finditer never crash; matches are in-bounds,
    non-overlapping, ordered, and non-empty; every literal word of the
    pattern appears (case-sensitively) inside its match."""
    from probe_ray.search.pattern import _META, compile_pattern

    pattern = "".join(pieces)
    p = compile_pattern(pattern)
    prev_end = 0
    words = [w for w in _META.sub(" ", pattern).split() if w.isalnum()]
    for m in p.finditer(src):
        assert 0 <= m.start() < m.end() <= len(src)
        assert m.start() >= prev_end  # non-overlapping, ordered
        prev_end = m.end()
        assert src[m.start():m.end()] == m.group(0)
        for w in words:
            assert w in m.group(0)


_word_st = st.text(alphabet="ab ", min_size=0, max_size=12)
_docs_st = st.lists(_word_st, min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(_docs_st)
def test_strip_dup_windows_property(texts):
    """dedup_spans' rewrite kernel vs a scalar reference on random tiny
    corpora (alphabet chosen to force shared n-grams): identical
    covered-word masks, span counts and rebuilt text for n=2."""
    import hashlib

    import numpy as np
    import pyarrow as pa

    from probe_ray.ops import text as textmod

    n = 2
    batch = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    # shared-gram set from the scalar definition
    prime = 1099511628211

    def wh(w):
        return int.from_bytes(
            hashlib.blake2b(w.encode(), digest_size=8).digest(), "big"
        )

    def words_of(s):
        s2 = s.strip()
        return s2.split() if s2 else [""]

    gram_docs = {}
    for did, tx in enumerate(texts):
        ws = words_of(tx)
        hs = [wh(w) for w in ws]
        for i in range(len(ws) - n + 1):
            g = 0
            for k in range(n):
                g = (g * prime + hs[i + k]) % (1 << 64)
            gram_docs.setdefault(g & ((1 << 63) - 1), set()).add(did)
    shared = {g for g, d in gram_docs.items() if len(d) >= 2}

    def is_dup(gh, _doc):
        return np.array([int(g) in shared for g in gh], dtype=bool)

    got = textmod._strip_dup_windows(batch, n, is_dup).to_pylist()

    for did, tx in enumerate(texts):
        ws = words_of(tx)
        hs = [wh(w) for w in ws]
        cov = [False] * len(ws)
        for i in range(len(ws) - n + 1):
            g = 0
            for k in range(n):
                g = (g * prime + hs[i + k]) % (1 << 64)
            if (g & ((1 << 63) - 1)) in shared:
                for j in range(i, i + n):
                    cov[j] = True
        row = got[did]
        assert row["doc_id"] == did
        assert row["n_words"] == len(ws)
        assert row["n_dup_words"] == sum(cov)
        assert row["n_spans"] == sum(
            1 for i, c in enumerate(cov) if c and (i == 0 or not cov[i - 1])
        )
        assert row["clean_text"] == " ".join(
            w for w, c in zip(ws, cov) if not c
        )


# --- special-term tokenization through the cached default expansion --------
#
# tokenize(text, sp) re-expands only the raw tokens whose lowercase holds a
# special term and serves every other token, negated texts included, from
# _expand_token_default. The oracle below is a test-local copy of the
# tokenizer's entry points as they were before that fast path (one uncached
# per-token expansion under sp, its own negated loop), so a fault in the
# fast path cannot hide behind code the oracle shares with it.

from probe_ray.tokenize.tables import EXCEPTION_TERMS_SET  # noqa: E402
from probe_ray.tokenize.tokenizer import (  # noqa: E402
    _ALNUM_RUNS,
    _EMPTY,
    _NON_ALNUM_TO_SPACE,
    is_stop_word,
    split_camel_case,
    split_compound_word_for_filtering,
    stem,
)


def _ref_raw_tokens(text):
    if text.isascii():
        tokens = text.translate(_NON_ALNUM_TO_SPACE).split()
        if "-" not in text:
            return tokens, set()
        negated = set()
        for word in text.split():
            if word.startswith("-"):
                for tok in word[1:].translate(_NON_ALNUM_TO_SPACE).split():
                    negated.add(tok.lower())
        return tokens, negated
    if "-" not in text:
        return _ALNUM_RUNS.findall(text), set()
    tokens = []
    negated = set()
    for word in text.split():
        if word.startswith("-"):
            runs = _ALNUM_RUNS.findall(word[1:])
            for tok in runs:
                negated.add(tok.lower())
            tokens.extend(runs)
        else:
            tokens.extend(_ALNUM_RUNS.findall(word))
    return tokens, negated


def _ref_expand_token(token, special_terms):
    out = []
    for part in split_camel_case(token, special_terms):
        if is_stop_word(part):
            continue
        for cp in split_compound_word_for_filtering(part, special_terms):
            if is_stop_word(cp):
                continue
            out.append((cp, stem(cp), cp in EXCEPTION_TERMS_SET))
    return tuple(out)


def _ref_tokenize(text, special_terms=_EMPTY):
    tokens, negated = _ref_raw_tokens(text)
    expand = lambda t: _ref_expand_token(t, special_terms)  # noqa: E731
    seen = set()
    result = []
    tokens = dict.fromkeys(tokens)
    if negated:
        for token in tokens:
            for part in split_camel_case(token, special_terms):
                if is_stop_word(part) or part in negated:
                    continue
                for cp in split_compound_word_for_filtering(part, special_terms):
                    if is_stop_word(cp) or cp in negated:
                        continue
                    if cp in EXCEPTION_TERMS_SET and cp not in seen:
                        seen.add(cp)
                        result.append(cp)
                    stemmed = stem(cp)
                    if stemmed in negated:
                        continue
                    if stemmed not in seen:
                        seen.add(stemmed)
                        result.append(stemmed)
        return result
    for token in tokens:
        for cp, stemmed, is_exc in expand(token):
            if is_exc and cp not in seen:
                seen.add(cp)
                result.append(cp)
            if stemmed not in seen:
                seen.add(stemmed)
                result.append(stemmed)
    return result


def _ref_preprocess(text, filename, special_terms=_EMPTY):
    tokens = _ref_tokenize(text, special_terms)
    tokens.extend(_ref_tokenize(filename, special_terms))
    return tokens


def _fold(s):
    # str.lower() writes Σ as final ς or as σ depending on its neighbours,
    # so a camel piece can lowercase differently from the same span of its
    # token ("oauthΣ1x" → "oauthς1x", rest after "oauth" → "σ1x")
    return s.replace("ς", "σ")


_sigma_chars = st.one_of(_tricky_chars, st.sampled_from("Σσς"))
_word_pool = sorted(SPECIAL_CASE_WORDS | EXCEPTION_TERMS_SET) + [
    "the", "get", "set", "stream", "whitelists", "happy", "0", "10", "42",
    # compound words: one camel part, several compound parts
    "hashmap", "arraylist", "prefilter", "tokenizer", "filesystem",
    "databasehandler",
]


@st.composite
def _camel_pieces(draw):
    """Camel/word pieces: special-case, exception and compound words
    (random case), stop words, digits and runs over the case-folding
    trouble alphabet."""
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            w = draw(st.sampled_from(_word_pool))
            w = draw(st.sampled_from([w, w.upper(), w.capitalize()]))
        else:
            w = draw(st.text(alphabet=_sigma_chars, min_size=1, max_size=5))
        pieces.append(w)
    return pieces


def _special_set(draw, pieces):
    """1-3 terms, mostly lowercased pieces / adjacent-piece joins of the
    text (so they touch some tokens), sometimes unrelated."""
    pool = [p.lower() for p in pieces]
    pool += [(a + b).lower() for a, b in zip(pieces, pieces[1:])]
    pool += [p[1:].lower() for p in pieces if len(p) > 1]
    terms = draw(
        st.lists(
            st.one_of(
                st.sampled_from(pool),
                st.text(alphabet=_sigma_chars, min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return frozenset(t for t in terms if t)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_untouched_token_expands_as_default(data):
    """Per token: when no special term is a span of the token's lowercase
    (ς folded to σ), its expansion under the special set equals the cached
    default one — the rule tokenize() relies on to skip re-expansion."""
    from probe_ray.tokenize.tokenizer import _expand_token, _expand_token_default

    pieces = data.draw(_camel_pieces())
    token = "".join(pieces)
    sp = _special_set(data.draw, pieces) or frozenset({"x"})
    low = _fold(token.lower())
    if any(_fold(t) in low for t in sp):
        return
    assert _expand_token(token, sp) == _expand_token_default(token), (token, sp)


def test_final_sigma_piece_counts_as_touched():
    """'σ1x' is not a span of 'oauthς1x' (final sigma), yet it equals the
    lowercase of the piece after the 'oauth' prefix and so changes the
    expansion: the touched-token test must fold ς to σ."""
    sp = frozenset({"σ1x"})
    assert "σ1x" not in "oauthΣ1x".lower()
    assert tokenize("oauthΣ1x", sp) == _ref_tokenize("oauthΣ1x", sp)
    assert tokenize("oauthΣ1x", sp) != tokenize("oauthΣ1x")


_sep_st = st.sampled_from([" ", "  ", "\n", ".", "(", ", ", "_", "::", "-"])


@st.composite
def _mixed_text(draw):
    """Words of camel pieces, some '-'-prefixed, joined by separators;
    returns (text, all pieces)."""
    out, all_pieces = [], []
    for _ in range(draw(st.integers(1, 6))):
        pieces = draw(_camel_pieces())
        all_pieces += pieces
        word = "".join(pieces)
        if draw(st.integers(0, 3)) == 0:
            word = "-" + word
        out.append(word + draw(_sep_st))
    return "".join(out), all_pieces


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tokenize_matches_uncached_reference(data):
    """Whole text: tokenize() and preprocess_text_with_filename() equal the
    uncached pre-fast-path reference, under an empty and a non-empty
    special set, over texts mixing '-'-prefixed words, camelCase,
    special-case prefixes, exception terms and non-ASCII."""
    text, pieces = data.draw(_mixed_text())
    path, path_pieces = data.draw(_mixed_text())
    sp = _special_set(data.draw, pieces + path_pieces)
    for ctx in (_EMPTY, sp):
        assert tokenize(text, ctx) == _ref_tokenize(text, ctx), (text, ctx)
        assert preprocess_text_with_filename(
            text, path, ctx
        ) == _ref_preprocess(text, path, ctx), (text, path, ctx)


def test_special_context_reexpands_only_touched_tokens(monkeypatch):
    """Guard for the fast path: under {term}, the uncached expansion runs
    only for raw tokens whose lowercase contains the term, and a text with
    '-'-prefixed words is served from the default cache rather than from a
    second, uncached split loop."""
    from probe_ray.tokenize import tokenizer

    calls: list[str] = []
    orig = tokenizer._expand_token

    def counting(token, special_terms):
        if special_terms:  # default-cache misses pass the empty set
            calls.append(token)
        return orig(token, special_terms)

    monkeypatch.setattr(tokenizer, "_expand_token", counting)
    doc = (
        "class JWTMiddleware(BaseMiddleware):\n"
        "    def parse(self, header): return decodeJwt(header) or jwtish\n"
        "    # handles the OAuth2Provider and getHttpStream helpers\n"
    )
    for term in ("jwt", "middleware", "stream", "absent"):
        calls.clear()
        got = tokenize(doc, frozenset({term}))
        raw = dict.fromkeys(tokenizer._raw_tokens(doc)[0])
        assert calls == [t for t in raw if term in t.lower()], term
        assert got == _ref_tokenize(doc, frozenset({term}))

    # "-hashmap": camel part negated whole, its compound parts are not
    neg = "run the tool --verbose -skipTests -hashmap getValue parseJSON -q"
    raw = dict.fromkeys(tokenizer._raw_tokens(neg)[0])
    assert tokenizer._raw_tokens(neg)[1]  # the negated branch runs
    tokenize(neg)  # warm the default cache
    info = tokenizer._expand_token_default.cache_info
    for sp in (_EMPTY, frozenset({"value"})):
        calls.clear()
        hits = info().hits
        if not sp:  # a warm negated text splits nothing anew
            monkeypatch.setattr(tokenizer, "split_camel_case", None)
        got = tokenize(neg, sp)
        monkeypatch.setattr(tokenizer, "split_camel_case", split_camel_case)
        touched = [t for t in raw if any(s in t.lower() for s in sp)]
        assert calls == touched
        assert info().hits - hits == len(raw) - len(touched)
        assert got == _ref_tokenize(neg, sp)


# --- tokenize stage: flat-array runs == the per-(doc, term) loop ----------

import pyarrow as pa  # noqa: E402
from legacy_tokenize import legacy_tokenize_partial  # noqa: E402

from probe_ray.index.build import IndexConfig, TokenizePartial  # noqa: E402

_CORPUS_COLS = ("repo", "path", "commit", "lang", "content")
_NULL_BATCH = pa.table({c: pa.nulls(0) for c in _CORPUS_COLS})
_ONE_ROW = pa.table(
    {
        "repo": ["r0"],
        "path": ["src/getUser.py"],
        "commit": ["c0"],
        "lang": ["en"],
        "content": ["getUser -database ΣΟΦΙΑ σοφίας oauthΣ1x getUser"],
    }
)


@st.composite
def _tokenize_case(draw):
    """A 0-30 row corpus batch, with repeated (repo, path) pairs, texts of
    camel pieces over the case-folding and sigma alphabets and
    '-'-prefixed words, sometimes a null-typed lang column; and a config
    over subshards, unit postings, the content cap and exclusion keys."""
    n = draw(st.integers(0, 30))
    # texts over one small per-batch vocabulary, so runs span many docs
    vocab = draw(
        st.lists(
            st.tuples(st.sampled_from(["", "-"]), _camel_pieces()).map(
                lambda wp: wp[0] + "".join(wp[1])
            ),
            min_size=1,
            max_size=8,
        )
    )
    text = st.lists(
        st.tuples(st.sampled_from(vocab), _sep_st), max_size=12
    ).map(lambda ws: "".join(w + sep for w, sep in ws))
    repos = draw(st.lists(st.sampled_from(["r0", "r1"]), min_size=n, max_size=n))
    paths = draw(
        st.lists(
            st.one_of(st.sampled_from(["a.py", "src/Σx.rs", "-x/y.go"]), text),
            min_size=n,
            max_size=n,
        )
    )
    contents = draw(
        st.lists(st.one_of(st.just(""), text), min_size=n, max_size=n)
    )
    langs = (
        pa.nulls(n)
        if draw(st.booleans())
        else pa.array(draw(st.lists(st.sampled_from(["en", None]), min_size=n, max_size=n)), pa.string())
    )
    batch = pa.table(
        {
            "repo": pa.array(repos, pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": pa.array([f"c{i % 3}" for i in range(n)], pa.string()),
            "lang": langs,
            "content": pa.array(contents, pa.string()),
        }
    )
    hit = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=3)) if n else set()
    exclude = frozenset(f"{repos[i]}\x00{paths[i]}" for i in hit)
    cfg = IndexConfig(
        subshards=draw(st.sampled_from([1, 3, 4])),
        max_content_bytes=draw(st.one_of(st.none(), st.integers(0, 40))),
        exclude_keys=(exclude | {"r9\x00nowhere"}) if exclude else None,
    )
    return batch, cfg


@settings(max_examples=150, deadline=None)
@given(_tokenize_case())
@example(case=(_NULL_BATCH, IndexConfig()))
@example(case=(_ONE_ROW, IndexConfig(subshards=3)))
def test_tokenize_partial_matches_loop_reference(case):
    """The flat-array TokenizePartial emits the partial table of the
    per-(doc, term) list loop it replaced, bit for bit: same schema, row
    order, ids/tfs bytes and doc rows."""
    batch, cfg = case
    want = legacy_tokenize_partial()(cfg)(batch)
    got = TokenizePartial(cfg)(batch)
    assert got.schema.equals(want.schema)
    assert got.equals(want)


def test_max_content_bytes_counts_utf8_bytes():
    """The content cap counts UTF-8 bytes, not characters: a 10-character,
    20-byte Greek content is over a 12-byte cap, so its doc indexes only
    its path tokens; a 20-byte cap keeps the content."""
    from probe_ray.index.build import UNIT_PREFIX

    content, path = "αβγδεζηθικ", "src/lib.rs"
    assert len(content) == 10 and len(content.encode("utf-8")) == 20
    batch = pa.table(
        {
            "repo": ["r0"], "path": [path], "commit": ["c0"], "lang": ["rs"],
            "content": [content],
        }
    )
    path_toks = tokenize(path)

    def indexed(cap):
        out = TokenizePartial(IndexConfig(subshards=1, max_content_bytes=cap))(batch)
        is_doc = out.column("is_doc").to_pylist()
        terms = {
            t
            for t, d in zip(out.column("term").to_pylist(), is_doc)
            if not d and not t.startswith(UNIT_PREFIX)
        }
        doc_len = out.filter(out.column("is_doc")).column("doc_len")[0].as_py()
        return terms, doc_len

    assert indexed(12) == (set(path_toks), len(path_toks))
    terms, doc_len = indexed(20)
    assert terms > set(path_toks) and doc_len > len(path_toks)
