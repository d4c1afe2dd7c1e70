"""Pure text functions: HTML→text extraction, tokenization, term hashing.

These are the web-text analog of the reference's per-record transform
chain — raw GPS points → canonical edge sequence (map matching,
/root/reference/src/main/java/au/edu/rmit/bdm/Torch/mapMatching/algorithm/
PrecomputedHiddenMarkovModel.java:119-281).  The per-row invariant mandated
by BASELINE.json: ``extract_text(html) == text`` byte-identical per url.

Everything here is a pure, deterministic function of its input bytes —
no locale, no wall clock, no randomness — so Ray task retries reproduce
identical output (SURVEY.md §4 stragglers row).
"""

from __future__ import annotations

import hashlib
import re

# --- HTML → text extraction -------------------------------------------------

_HEAD = re.compile(rb"<head\b[^>]*>.*?</head\s*>", re.IGNORECASE | re.DOTALL)
_SCRIPT_STYLE = re.compile(
    rb"<(script|style)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL
)
_COMMENT = re.compile(rb"<!--.*?-->", re.DOTALL)
_TAG = re.compile(rb"<[^>]*>")
_WS = re.compile(rb"\s+")
# &amp; decoded LAST: decoding it first would double-decode escaped
# entities ("&amp;lt;" must yield "&lt;", not "<")
_ENTITIES = [
    (b"&lt;", b"<"),
    (b"&gt;", b">"),
    (b"&quot;", b'"'),
    (b"&#39;", b"'"),
    (b"&nbsp;", b" "),
    (b"&amp;", b"&"),
]


def extract_text(html: bytes) -> str:
    """Deterministic tag-stripping extraction of body text from HTML bytes.

    Pinned algorithm (never changes without a version bump): drop the
    <head> subtree, <script>/<style> subtrees and comments, strip tags,
    decode the six common entities, collapse whitespace runs to single
    spaces, strip.  UTF-8 decode with replacement so arbitrary bytes
    never raise.
    """
    t = _HEAD.sub(b" ", html)
    t = _SCRIPT_STYLE.sub(b" ", t)
    t = _COMMENT.sub(b" ", t)
    t = _TAG.sub(b" ", t)
    for ent, ch in _ENTITIES:
        t = t.replace(ent, ch)
    t = _WS.sub(b" ", t).strip()
    return t.decode("utf-8", errors="replace")


# --- tokenization -----------------------------------------------------------

_TOKEN = re.compile(r"[0-9a-z_]+(?:'[0-9a-z_]+)?")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokenizer: maximal runs of [0-9a-z_] with an optional
    internal apostrophe.  On the synthetic corpora (single-spaced lowercase
    words, underscores allowed) this is exactly ``text.split(' ')``, which
    keeps the DuckDB oracle (`string_split(text, ' ')`) in lockstep.
    """
    return _TOKEN.findall(text.lower())


def tokenize_ws(text: str) -> list[str]:
    """Plain lowercase whitespace tokenizer (punctuation stays attached) —
    the alternate mapper behind the plug point (the analog of the
    reference's Mappers factory choosing between matcher implementations,
    Torch/mapMatching/algorithm/Mappers.java:22-44)."""
    return text.lower().split()


# Tokenizer registry: IndexConfig.tokenizer names an entry; the SAME name
# travels in the index manifest so the query engine prepares queries with
# the tokenizer the index was built with (query prep == build prep, the
# map-matching-the-query rule, QueryImpl.java:21-32).
TOKENIZERS: dict = {"default": tokenize, "ws": tokenize_ws}


def get_tokenizer(name: str):
    try:
        return TOKENIZERS[name]
    except KeyError:
        raise ValueError(
            f"unknown tokenizer {name!r}; registered: {sorted(TOKENIZERS)}"
        ) from None


def glob_to_regex(pattern: str) -> str:
    """Translate a shell-style wildcard pattern (``*`` = any run, ``?`` =
    any one char) into an un-anchored regex using only constructs with
    identical semantics in Python ``re.fullmatch`` and DuckDB/RE2
    ``regexp_full_match`` — so the engine's dictionary scan and the SQL
    oracle compile the SAME translated pattern.  (``fnmatch.translate``
    is avoided: its ``(?s:...)\\Z`` wrapper is Python-specific.)"""
    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


# --- term hashing -----------------------------------------------------------
# Analog of the reference keying vertices by geohash strings
# (Torch/mapMatching/model/TorVertex.java:16-22): a stable content hash is
# the id, so ids never depend on arrival order (unlike the reference's
# order-dependent global idGenerator++, Torch/base/model/TorEdge.java:17).


def term_hash(term: str) -> int:
    """Stable 63-bit positive term id from the term string."""
    h = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(h, "little") & 0x7FFF_FFFF_FFFF_FFFF


class TermHasher:
    """Memoizing term→id hasher (vocabularies are small relative to corpus)."""

    def __init__(self) -> None:
        self._cache: dict[str, int] = {}

    def __call__(self, term: str) -> int:
        tid = self._cache.get(term)
        if tid is None:
            tid = term_hash(term)
            self._cache[term] = tid
        return tid
