"""Code-aware tokenizer with probe-parity semantics.

Reimplements (from behavior, not code) the reference tokenizer pipeline of
/root/reference/src/search/tokenization.rs:
  - tokenize()                         :2651-2764
  - split_camel_case_with_config()     :1866-2004
  - split_compound_word_cached()       :757-811  (the variant tokenize() uses;
    note it does NOT apply the should_skip heuristic of :1800-1852)
  - stop-word predicates               :2007-2026
  - dynamic special terms              :839-851 (here: explicit ``special_terms``
    argument instead of a process-global — hazard H2 in SURVEY.md SS7)

The ``decompound`` fallback reimplements the public decompound crate's
greedy left-to-right prefix decomposition with backtracking
(DecompositionOptions::empty() semantics): a word is compound iff it can be
written as a concatenation of >=2 vocabulary words; single vocabulary words
are not compounds. Where the reference's iteration order over Rust HashSets
is nondeterministic across processes (exception-term containment splits,
tokenization.rs:1929-1948), this implementation fixes the declaration order
of term_exceptions.rs:6-62, which is deterministic and covers all pinned
fixtures.

Special terms are consulted only where a lowercased piece of a raw token
(the token, its rest after a special-case prefix, a camel or compound part)
equals one, and each such piece is a span of the token's lowercase once
final ς is folded to σ. So tokenize() re-expands under the special set only
the tokens whose lowercase contains a special term; every other token,
negated texts included, comes from the one cached default expansion (pinned
per token and per text by tests/test_properties.py).

TF consequence (SURVEY H1): output is deduplicated, first-appearance order;
document tokens for ranking = tokenize(content) ++ tokenize(path), so term
frequency per document is in {0, 1, 2}.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .stemmer import stem
from .tables import (
    ENGLISH_STOP_WORDS,
    EXCEPTION_TERMS,
    EXCEPTION_TERMS_SET,
    FILTERING_COMPOUND_CACHE,
    PRECOMPUTED_COMPOUND_SPLITS,
    PROGRAMMING_STOP_WORDS,
    SPECIAL_CASE_BY_LENGTH,
    SPECIAL_CASE_WORDS,
    VOCABULARY,
)

_EMPTY: frozenset[str] = frozenset()


def is_stop_word(word: str) -> bool:
    # numbers 0-10 are stop words (tokenization.rs:2007-2016)
    return (
        word in ENGLISH_STOP_WORDS
        or word in PROGRAMMING_STOP_WORDS
        or (word.isdigit() and _as_small_int(word))
    )


def _as_small_int(word: str) -> bool:
    # parse::<u32>() accepts arbitrarily long digit strings <= u32::MAX;
    # values 0..=10 are stop words, incl. forms like "007" or "0010".
    try:
        return int(word) <= 10
    except ValueError:
        return False


def is_special_case(word: str, special_terms: frozenset[str] = _EMPTY) -> bool:
    lw = word.lower()
    return lw in SPECIAL_CASE_WORDS or lw in special_terms


@lru_cache(maxsize=262144)
def _camel_state_machine(token: str) -> tuple[str, ...]:
    """Char-scan split: lower->upper, digit boundaries, upper-upper-lower."""
    out: list[str] = []
    cur: list[str] = []
    prev_lower = prev_upper = prev_digit = False
    n = len(token)
    for i, c in enumerate(token):
        is_upper = "A" <= c <= "Z"
        is_lower = "a" <= c <= "z"
        is_digit = c.isascii() and c.isdigit()
        if cur and (
            (prev_lower and is_upper)
            or (prev_digit != is_digit)
            or (
                prev_upper
                and is_upper
                and i + 1 < n
                and "a" <= token[i + 1] <= "z"
            )
        ):
            out.append("".join(cur))
            cur = []
        cur.append(c)
        prev_lower, prev_upper, prev_digit = is_lower, is_upper, is_digit
    if cur:
        out.append("".join(cur))
    return tuple(w.lower() for w in out)


def split_camel_case(
    token: str, special_terms: frozenset[str] = _EMPTY
) -> list[str]:
    if not token:
        return []
    lower = token.lower()
    if lower in SPECIAL_CASE_WORDS or lower in special_terms:
        return [lower]
    # Special-case prefixes, longest first (tokenization.rs:1896-1915).
    for sc in SPECIAL_CASE_BY_LENGTH:
        if lower.startswith(sc):
            remaining = token[len(sc) :]
            if remaining:
                return [sc, *split_camel_case(remaining, special_terms)]
    # All-lowercase identifiers > 3 chars: split around embedded exception
    # terms (tokenization.rs:1917-1948), first match in declaration order.
    if token == lower and "_" not in token and len(token) > 3:
        for term in EXCEPTION_TERMS:
            if term in token and term != token:
                parts = token.split(term)
                result: list[str] = []
                for i, part in enumerate(parts):
                    if part:
                        result.append(part)
                    if i < len(parts) - 1:
                        result.append(term)
                return result
    return list(_camel_state_machine(token))


@lru_cache(maxsize=262144)
def _decompound_default(word: str) -> tuple[str, ...] | None:
    """Decompose into >=2 vocabulary words; None if not possible."""
    if word.lower() in VOCABULARY:
        return None
    parts: list[str] = []
    if _decompose(word, parts):
        return tuple(parts)
    return None


def _decompose(word: str, parts: list[str]) -> bool:
    for i in range(1, len(word)):
        left = word[:i]
        if left.lower() in VOCABULARY:
            right = word[i:]
            parts.append(left)
            if right.lower() in VOCABULARY:
                parts.append(right)
                return True
            if _decompose(right, parts):
                return True
            parts.pop()
    return False


def split_compound_word_for_filtering(
    word: str, special_terms: frozenset[str] = _EMPTY
) -> list[str]:
    """split_compound_word_cached parity (tokenization.rs:757-811)."""
    lw = word.lower()
    if lw in SPECIAL_CASE_WORDS or lw in special_terms:
        return [lw]
    if lw in EXCEPTION_TERMS_SET:
        return [word]
    if lw in VOCABULARY:
        return [word]
    hit = FILTERING_COMPOUND_CACHE.get(lw)
    if hit is not None:
        return list(hit)
    hit = PRECOMPUTED_COMPOUND_SPLITS.get(lw)
    if hit is not None:
        return list(hit)
    parts = _decompound_default(word)
    return list(parts) if parts else [word]


# [^\W_] == "isalnum() run": Python re defines \w as isalnum() plus
# underscore, so its complement-minus-underscore is exactly the Unicode
# alphanumeric runs the reference splits on (char-level is_alphanumeric,
# tokenization.rs:2679-2700) — one C-level findall instead of a Python
# per-character loop (was 60% of tokenizer time).
_ALNUM_RUNS = re.compile(r"[^\W_]+", re.UNICODE)

# ASCII fast path: mapping every non-alphanumeric ASCII char to space makes
# translate+split() return exactly _ALNUM_RUNS.findall() on ASCII text
# (runs of [A-Za-z0-9] separated by anything else), ~4x faster than the
# regex scan. Non-ASCII text falls back to the regex (unicode alnum).
_NON_ALNUM_TO_SPACE = str.maketrans(
    {chr(c): " " for c in range(128) if not chr(c).isalnum()}
)


def _raw_tokens(text: str) -> tuple[list[str], set[str]]:
    """The alnum runs of ``text`` (``_ALNUM_RUNS.findall``; ASCII takes the
    translate fast path) and, lowercased, the runs of its '-'-prefixed
    whitespace-separated words: the negated set."""
    if text.isascii():
        tokens = text.translate(_NON_ALNUM_TO_SPACE).split()
    else:
        tokens = _ALNUM_RUNS.findall(text)
    if "-" not in text:
        return tokens, set()
    return tokens, {
        tok.lower()
        for word in text.split()
        if word.startswith("-")
        for tok in _ALNUM_RUNS.findall(word)
    }


@lru_cache(maxsize=524288)
def _expand_token_default(
    token: str,
) -> tuple[tuple[str, str, str, bool], ...]:
    """_expand_token with no dynamic terms: the one expansion cache."""
    return _expand_token(token, _EMPTY)


def _expand_token(
    token: str, special_terms: frozenset[str]
) -> tuple[tuple[str, str, str, bool], ...]:
    """(camel_part, compound_part, stemmed, is_exception) per kept piece,
    stop words dropped; the camel part lets tokenize() apply a text's
    negation filter to cached expansions."""
    out: list[tuple[str, str, str, bool]] = []
    for part in split_camel_case(token, special_terms):
        if is_stop_word(part):
            continue
        for cp in split_compound_word_for_filtering(part, special_terms):
            if is_stop_word(cp):
                continue
            out.append((part, cp, stem(cp), cp in EXCEPTION_TERMS_SET))
    return tuple(out)


def tokenize(
    text: str,
    special_terms: frozenset[str] = _EMPTY,
    *,
    precomputed_raw: tuple[list[str], set[str]] | None = None,
) -> list[str]:
    """Deduplicated token list, first-appearance order (tokenize() parity).

    Each distinct raw token goes through the cached default expansion;
    only a token whose lowercase contains a special term is re-expanded
    under ``special_terms`` (exactness: module docstring). Texts with
    '-'-prefixed words filter the same cached expansions.

    ``precomputed_raw`` lets a caller that already ran ``_raw_tokens(text)``
    (the index build shares one alnum-run pass between tokenization and
    unit-posting extraction) skip the second regex pass."""
    tokens, negated = (
        precomputed_raw if precomputed_raw is not None else _raw_tokens(text)
    )
    expand = _expand_token_default
    if special_terms:
        # ς folded to σ: lower() picks final sigma by context, so a piece
        # may lowercase Σ differently from its token. A term absent from
        # the whole text touches none of its tokens.
        low = text.lower().replace("ς", "σ")
        terms = [t.replace("ς", "σ") for t in special_terms]
        terms = [t for t in terms if t in low]
        if terms:

            def expand(token):
                low = token.lower().replace("ς", "σ")
                for t in terms:
                    if t in low:
                        return _expand_token(token, special_terms)
                return _expand_token_default(token)

    seen: set[str] = set()
    result: list[str] = []
    # the output list is deduplicated, so a repeated raw token can never
    # contribute a new entry (same expansion, every part already seen) —
    # process each distinct raw token once, in first-appearance order
    tokens = dict.fromkeys(tokens)
    if negated:
        for token in tokens:
            for part, cp, stemmed, is_exc in expand(token):
                if part in negated or cp in negated:
                    continue
                if is_exc and cp not in seen:
                    seen.add(cp)
                    result.append(cp)
                if stemmed not in negated and stemmed not in seen:
                    seen.add(stemmed)
                    result.append(stemmed)
        return result
    for token in tokens:
        for _, cp, stemmed, is_exc in expand(token):
            if is_exc and cp not in seen:
                seen.add(cp)
                result.append(cp)
            if stemmed not in seen:
                seen.add(stemmed)
                result.append(stemmed)
    return result


def preprocess_text_with_filename(
    text: str, filename: str, special_terms: frozenset[str] = _EMPTY
) -> list[str]:
    """Document tokens for ranking: content tokens ++ path tokens
    (two independently deduplicated lists; ranking.rs:56-61)."""
    tokens = tokenize(text, special_terms)
    tokens.extend(tokenize(filename, special_terms))
    return tokens
