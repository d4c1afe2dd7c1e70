"""The engine's columnar term dictionary (``TermDict``, in term_id
order) and ``DictScanIndex``, its term-sorted view with trigram +
sorted-prefix acceleration for dictionary scans.

``QueryEngine.regex_terms`` / ``wildcard_terms`` / ``prefix_terms`` are
the reference's name→ids dictionary lookups (Torch/base/db/
NameEdgeIdLookup.java:17-27) generalized to pattern comparators.  The
naive implementation visits every dictionary term per query — fine for
a test vocabulary, untenable at a web-corpus vocabulary (10^8–10^9
distinct terms).  This module makes the scan sub-linear with two
LOSSLESS candidate pruners, both from public designs:

1. **Anchored-prefix bisect** — the dictionary is kept sorted once, and
   a pattern whose match must *start* with a literal prefix reduces to
   one ``bisect`` range (the Lucene TermsEnum.seekCeil shape).

2. **Required-trigram intersection** — every literal run of ≥3 chars
   that a match must *contain* contributes its character trigrams; the
   candidate set is the intersection of those trigrams' posting lists
   over the dictionary (the Google Code Search design, Russ Cox,
   "Regular Expression Matching with a Trigram Index", 2012 — public).

Both pruners are necessary conditions, so the compiled pattern is still
verified on every candidate: results are bit-identical to the full
scan by construction, and a pattern that yields neither a prefix nor a
trigram (e.g. ``[st]..``) simply falls back to the full scan.

Pattern analysis is deliberately conservative: alternation, groups and
backreferences bail to the full scan rather than risk an unsound
required-literal claim.  Glob patterns (``*`` / ``?``) are analyzed
natively — their literal runs are exact by construction.

Scale note: the trigram index is itself an inverted index over the
dictionary (term = document, trigram = term), so at a 10^9-term
vocabulary it is built by the ordinary distributed build pipeline and
salt-sharded exactly like the postings; the in-memory build here
mirrors the engine's memory mode and costs one pass over the
dictionary, amortized over every pattern query.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from torchtrajectory_ray.functions.text import term_hash


class TermDict:
    """The term dictionary as columns in term_id order: ``ids`` and
    ``df`` (int64) and the Arrow ``term`` column, from the table
    ``pipelines.build.read_dictionary`` returns.  Each dict shard is
    sorted by term_id but the shards interleave, so construction is one
    argsort; a lookup is a ``searchsorted`` (the reference's one
    dictionary probe per query term, InvertedIndex.java:150-153)."""

    def __init__(self, table: pa.Table):
        tid = table["term_id"].to_numpy()
        order = np.argsort(tid, kind="stable")
        self.ids: np.ndarray = tid[order]
        self.df: np.ndarray = table["df"].to_numpy()[order]
        self.term: pa.ChunkedArray = table["term"].take(order)

    def rows(self, tids) -> np.ndarray:
        """Row of each term_id, -1 where the dictionary has none."""
        tids = np.asarray(tids, dtype=np.int64)
        if not len(self.ids):  # an empty corpus
            return np.full(len(tids), -1)
        pos = np.searchsorted(self.ids, tids)
        return np.where(self.ids.take(pos, mode="clip") == tids, pos, -1)

    def df_of(self, tids) -> np.ndarray:
        """df of each term_id, 0 where the dictionary has none."""
        r = self.rows(tids)
        if not len(self.df):  # an empty corpus
            return np.zeros(len(r), np.int64)
        return np.where(r >= 0, self.df.take(r), 0)

    def lookup(self, terms) -> tuple[list[int], list[int]]:
        """(term_id, df) of each term as Python ints, df 0 where the
        dictionary has none."""
        tids = [term_hash(t) for t in terms]
        return tids, self.df_of(tids).tolist()


@dataclass(frozen=True)
class PatternPlan:
    """What a pattern analysis proved about every possible match.

    ``prefix``: a literal string every match must START with ("" = none).
    ``runs``: literal substrings every match must CONTAIN (contiguously).
    ``exhaustive``: analysis understood the whole pattern (informational;
    pruning soundness never depends on it).
    """

    prefix: str
    runs: tuple[str, ...]
    exhaustive: bool


_FULL_SCAN = PatternPlan("", (), False)


def analyze_glob(pattern: str) -> PatternPlan:
    """Required literals of a shell-style glob (``*`` any run, ``?`` any
    one char).  Exact: runs between wildcards must appear contiguously
    and in order; the leading run (if any) is start-anchored."""
    runs: list[str] = []
    cur: list[str] = []
    anchored = pattern[:1] not in ("*", "?")
    for ch in pattern:
        if ch in ("*", "?"):
            if cur:
                runs.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        runs.append("".join(cur))
    prefix = runs[0] if runs and anchored else ""
    return PatternPlan(prefix, tuple(runs), True)


# Escape handling must be exact or absent: an escaped NON-alphanumeric
# is a plain literal (the re.escape output shape); the named control
# escapes map to their one known character; the class shorthands /
# anchors match unknown text and just break the run.  EVERY other
# alphanumeric escape (\x41, A, \N{...}, backrefs \1) consumes a
# variable number of FOLLOWING characters this scanner does not parse —
# continuing would misread those characters as literals, so the whole
# analysis bails to the full scan instead.
_CONTROL_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "v": "\v", "f": "\f", "a": "\a"}
_SHORTHAND_ESCAPES = set("dDsSwWbBAZ")


def analyze_regex(pattern: str) -> PatternPlan:
    """Conservative required-literal extraction from a regex used with
    ``fullmatch``.  Understands literal chars, ``\\``-escaped
    punctuation, ``.``, ``[...]`` classes, quantifiers ``* + ? {..}``
    and anchors.  Bails to the full-scan plan on alternation, groups,
    or class-shorthand escapes (``\\d`` …) — their obligations are not
    tracked, so claiming a required literal could be unsound."""
    if "|" in pattern or "(" in pattern:
        return _FULL_SCAN

    runs: list[str] = []
    cur: list[str] = []
    prefix_val: str | None = None  # None = still inside the leading run

    def close_prefix(trim_last: bool) -> None:
        # the start-anchored prefix is whatever literal run was collected
        # before the FIRST non-literal token; a quantifier on the run's
        # last char makes that char optional, so it is trimmed from the
        # prefix claim (the rest still must lead every match)
        nonlocal prefix_val
        if prefix_val is None:
            p = "".join(cur)
            prefix_val = p[:-1] if trim_last and p else p

    def flush() -> None:
        if cur:
            runs.append("".join(cur))
            cur.clear()

    i, n = 0, len(pattern)
    while i < n:
        ch = pattern[i]
        if ch == "\\":
            if i + 1 >= n:
                return _FULL_SCAN  # trailing backslash: not a valid regex
            nxt = pattern[i + 1]
            if nxt in _CONTROL_ESCAPES:
                cur.append(_CONTROL_ESCAPES[nxt])  # the one known char
                i += 2
                continue
            if nxt in _SHORTHAND_ESCAPES:
                # matches unknown text: breaks the run, contributes
                # nothing
                close_prefix(False)
                flush()
                i += 2
                continue
            if nxt.isalnum():
                # variable-length escape (\x.., \u...., \N{..}, backref):
                # see the escape note above — unparseable here, bail
                return _FULL_SCAN
            cur.append(nxt)  # escaped punctuation is a literal char
            i += 2
            continue
        if ch == "[":
            close_prefix(False)
            flush()
            # skip the class: handle leading ^ / ] literals and escapes
            j = i + 1
            if j < n and pattern[j] == "^":
                j += 1
            if j < n and pattern[j] == "]":
                j += 1
            while j < n and pattern[j] != "]":
                j += 2 if pattern[j] == "\\" else 1
            if j >= n:
                return _FULL_SCAN  # unterminated class
            i = j + 1
            continue
        if ch in ("*", "?"):
            # quantifier on the previous atom: a quantified literal is
            # no longer required
            close_prefix(True)
            if cur:
                cur.pop()
            flush()
            i += 1
            continue
        if ch == "+":
            # one-or-more: the atom IS required once (so it may stay in
            # the prefix/run), but contiguity with what follows breaks
            close_prefix(False)
            flush()
            i += 1
            continue
        if ch == "{":
            # {m,n} counted repeat: treat like '*' (the literal may be
            # required when m>=1, but parsing m is not worth the risk)
            close_prefix(True)
            if cur:
                cur.pop()
            flush()
            j = pattern.find("}", i)
            if j < 0:
                return _FULL_SCAN
            i = j + 1
            continue
        if ch in ("^", "$", "."):
            close_prefix(False)
            flush()
            i += 1
            continue
        if ch in (")", "]", "}"):
            return _FULL_SCAN  # unbalanced — let re.compile complain
        # plain literal char
        cur.append(ch)
        i += 1
    close_prefix(False)
    flush()
    return PatternPlan(prefix_val or "", tuple(runs), True)


def _trigrams(s: str) -> set[str]:
    return {s[i : i + 3] for i in range(len(s) - 2)}


def _trigram_postings(
    terms: list[str], base: int
) -> dict[str, np.ndarray]:
    """trigram → sorted GLOBAL ordinal array for one slice of the sorted
    dictionary starting at ordinal ``base``."""
    post: dict[str, list[int]] = {}
    for off, t in enumerate(terms):
        for g in _trigrams(t):
            post.setdefault(g, []).append(base + off)
    # ordinals were appended in ascending order: arrays arrive sorted
    return {g: np.asarray(o, dtype=np.int64) for g, o in post.items()}


def _trigram_postings_parallel(
    terms: list[str], slice_size: int = 250_000
) -> dict[str, np.ndarray]:
    """The same postings built as Ray tasks, one per dictionary slice —
    slices of a SORTED list carry disjoint ascending ordinal ranges, so
    the per-gram merge is a plain concatenate in slice order (already
    sorted).  Identical output to the in-process loop by construction;
    used when the vocabulary is large enough that the one-time build
    would otherwise dominate the first pattern query."""
    import ray

    @ray.remote
    def build_slice(slice_terms: list[str], base: int):
        return _trigram_postings(slice_terms, base)

    parts = ray.get(
        [
            build_slice.remote(terms[i : i + slice_size], i)
            for i in range(0, len(terms), slice_size)
        ]
    )
    merged: dict[str, list[np.ndarray]] = {}
    for part in parts:  # slice order == ascending ordinal ranges
        for g, arr in part.items():
            merged.setdefault(g, []).append(arr)
    return {
        g: (arrs[0] if len(arrs) == 1 else np.concatenate(arrs))
        for g, arrs in merged.items()
    }


class DictScanIndex:
    """Sorted dictionary + trigram postings for sub-linear pattern scans.

    Built once per engine open from ``terms`` (a list, or the engine's
    ``TermDict.term`` column): ``terms_arr`` / ``lens_arr`` in term
    order, ``order[i]`` the position in ``terms`` of ``terms_arr[i]``.
    The trigram postings (~one entry per (term, distinct trigram) pair)
    are built on first use."""

    # above this vocabulary size the trigram pass fans out as Ray tasks
    # (one per ~250k-term slice); below it the in-process loop wins
    PARALLEL_THRESHOLD = 500_000

    def __init__(self, terms, *, parallel: bool | None = None):
        col = terms if isinstance(terms, pa.ChunkedArray) else pa.chunked_array(
            [pa.array(terms, pa.string())]
        )
        # Arrow sorts strings by UTF-8 bytes, which is code point order
        # (Python's str order)
        self.order: np.ndarray = pc.sort_indices(col).to_numpy().astype(np.int64)
        col = col.take(self.order)
        self.terms_arr: np.ndarray = col.to_numpy()
        self.lens_arr: np.ndarray = pc.utf8_length(col).to_numpy().astype(np.int64)
        if parallel is None:
            # auto-parallel only inside an ACTIVE Ray session: this
            # constructor must stay pure in-process for non-Ray callers
            # (implicit ray.init() here would be a surprise contract)
            import ray

            parallel = (
                len(self.terms_arr) >= self.PARALLEL_THRESHOLD
                and ray.is_initialized()
            )
        self._parallel = parallel

    @cached_property
    def _post(self) -> dict[str, np.ndarray]:
        """trigram → sorted ordinals into ``terms_arr``, built on first use."""
        if self._parallel:
            return _trigram_postings_parallel(self.terms_arr)
        return _trigram_postings(self.terms_arr, 0)

    # -- candidate generation (lossless) ----------------------------------
    def prefix_range(self, prefix: str) -> tuple[int, int]:
        """Ordinal range [lo, hi) of terms starting with ``prefix``."""
        lo = bisect_left(self.terms_arr, prefix)
        # upper bound = the string SUCCESSOR of the prefix (increment
        # its last incrementable code point): every extension of prefix
        # sorts strictly below it.  Appending chr(0x10FFFF) instead
        # would wrongly exclude terms whose next char IS U+10FFFF.
        succ = None
        for i in range(len(prefix) - 1, -1, -1):
            c = ord(prefix[i])
            if c < 0x10FFFF:
                succ = prefix[:i] + chr(c + 1)
                break
        terms = self.terms_arr
        hi = bisect_left(terms, succ, lo) if succ else len(terms)
        return lo, hi

    def candidates(self, plan: PatternPlan) -> np.ndarray | None:
        """Sorted candidate ordinals, or None when the plan prunes
        nothing (caller full-scans)."""
        grams: set[str] = set()
        for run in plan.runs:
            grams |= _trigrams(run)
        if not plan.prefix and not grams:
            return None
        cand: np.ndarray | None = None
        if grams:
            arrs = sorted(
                (self._post.get(g, _EMPTY) for g in grams), key=len
            )
            cand = arrs[0]
            for a in arrs[1:]:
                if len(cand) == 0:
                    break
                cand = np.intersect1d(cand, a, assume_unique=True)
        if plan.prefix:
            lo, hi = self.prefix_range(plan.prefix)
            if cand is None:
                cand = np.arange(lo, hi, dtype=np.int64)
            else:
                cand = cand[(cand >= lo) & (cand < hi)]
        return cand

    def fuzzy_candidates(self, term: str, k: int = 1) -> np.ndarray | None:
        """Sorted candidate ordinals for edit-distance-``k`` matches of
        ``term``, or None when no sound pruning exists.  The q-gram
        count filter (Gravano et al., "Approximate String Joins in a
        Database (Almost) for Free", VLDB 2001 — public): strings within
        edit distance k share at least max(|s|,|t|)−q+1−k·q q-grams, so
        for q=3 and |term| >= 3 + 3k every match shares >= 1 trigram
        with the query (k=1: len >= 6; k=2: len >= 9) — candidates = the
        UNION of the query's trigram postings.  Shorter queries (bound
        <= 0) full-scan; terms of length < 3 have no trigrams but also
        can't be within k edits of a length >= 3+3k query (length gap
        > k), so the union loses nothing."""
        if len(term) < 3 + 3 * k:
            return None
        # len >= 3+3k guarantees >= 1+3k trigrams, so arrs is never empty
        arrs = [self._post.get(g, _EMPTY) for g in _trigrams(term)]
        return np.unique(np.concatenate(arrs))

    # -- full scans (verification always runs the compiled pattern) -------
    def scan_regex(self, rx, plan: PatternPlan) -> list[str]:
        """All dictionary terms fully matching compiled ``rx``, term-
        ascending; candidates from ``plan``, full scan if it prunes
        nothing.  Bit-identical to the naive scan by construction."""
        cand = self.candidates(plan)
        terms = self.terms_arr if cand is None else self.terms_arr[cand]
        return [t for t in terms if rx.fullmatch(t)]

    def scan_prefix(self, prefix: str) -> list[str]:
        lo, hi = self.prefix_range(prefix)
        return self.terms_arr[lo:hi].tolist()


_EMPTY = np.empty(0, dtype=np.int64)
