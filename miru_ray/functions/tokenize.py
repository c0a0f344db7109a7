"""Deterministic tokenizer — the single code path for index AND query sides.

The reference tokenizes with per-locale Lucene analyzer chains
(miru-plugin/.../query/TermTokenizer.java:34-54, TermAnalyzers.java:45-138).
Bit-stability between the index build and the query parser is what matters
for rank-identical results, so we fix ONE pure function used everywhere,
including the DuckDB oracle:

    tokens(text) == regexp_extract_all(lower(text), '[a-z0-9]+')   (ANSI SQL)

No stopword removal at index time (terms stay queryable; quality scoring
has its own stopword list in ``textstats``).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["TOKEN_RE", "tokenize", "tokenize_column",
           "STOPWORDS", "tokenize_lang", "tokenize_column_lang",
           "phrase_occurrences", "near_pair_counts"]

TOKEN_RE = re.compile(r"[a-z0-9]+")
# SQL-equivalent pattern for oracle parity (DuckDB regexp_extract_all).
TOKEN_RE_SQL = "[a-z0-9]+"

# Per-language stopword sets for the ``per_lang`` analyzer — the
# reference's per-locale analyzer chains with language stopword filters
# (miru-plugin/.../query/TermAnalyzers.java:45-138, EnStopwords.java et
# al), reduced to the [a-z0-9]+ grammar (accented forms tokenize into
# fragments under this grammar and are deliberately excluded). ONE table
# shared by index build, query analysis and the SQL oracle.
# NOTE: pipelines/textstats.py carries a SEPARATE (smaller) English list
# for quality scoring with its own oracle mirror — the two intentionally
# differ and must not be "unified".
STOPWORDS: dict[str, frozenset] = {
    "en": frozenset(("a", "an", "and", "are", "as", "at", "be", "by",
                     "for", "from", "in", "is", "it", "of", "on", "or",
                     "that", "the", "to", "with")),
    "de": frozenset(("der", "die", "das", "und", "ist", "nicht", "ein",
                     "eine", "zu", "den", "von", "mit", "im", "auf",
                     "des", "sich", "auch")),
    "fr": frozenset(("le", "la", "les", "des", "est", "une", "un", "et",
                     "de", "du", "en", "que", "qui", "dans", "pour",
                     "sur", "pas", "ne")),
    "es": frozenset(("el", "los", "las", "es", "una", "un", "y", "de",
                     "del", "en", "que", "se", "por", "con", "para",
                     "no", "al")),
}


def tokenize_lang(text: str, lang: str) -> list[str]:
    """Per-language analyzer: base tokenizer then the language's stopword
    filter (unknown languages pass through unfiltered). Pure — the query
    parser and SQL oracle use this exact function/table."""
    stop = STOPWORDS.get(lang)
    toks = tokenize(text)
    return [t for t in toks if t not in stop] if stop else toks


def tokenize_column_lang(texts: pa.Array | pa.ChunkedArray,
                         langs: np.ndarray) -> pa.ListArray:
    """Vectorized per-language tokenize: base ``tokenize_column`` then one
    ``isin`` mask pass per language present in the batch (4 passes max,
    never per-row Python) — value-identical to tokenize_lang row-wise."""
    base = tokenize_column(texts)
    offsets = base.offsets.to_numpy(zero_copy_only=False)
    flat = base.flatten()
    doclens = np.diff(offsets)
    tok_lang = np.repeat(np.asarray(langs, dtype=object), doclens)
    keep = np.ones(len(flat), dtype=bool)
    flat_np = flat.to_numpy(zero_copy_only=False)
    for lg, stop in STOPWORDS.items():
        sel = tok_lang == lg
        if sel.any():
            keep[sel] &= ~np.isin(flat_np[sel], list(stop))
    kept_cum = np.concatenate([[0], np.cumsum(keep)])
    new_offsets = kept_cum[offsets]
    return pa.ListArray.from_arrays(pa.array(new_offsets, type=pa.int32()),
                                    flat.filter(pa.array(keep)))


def tokenize(text: str) -> list[str]:
    """Lowercase alnum-run tokenizer. Pure; used by oracle and query parser."""
    return TOKEN_RE.findall(text.lower())


def tokenize_column(texts: pa.Array | pa.ChunkedArray) -> pa.ListArray:
    """Vectorized tokenize of a string column → list<string>.

    Uses Arrow kernels: utf8_lower + split on the complement pattern.
    ``extract_regex`` has no "all" variant in pyarrow, so we split on
    non-token runs and drop empty strings — equivalent for this grammar.
    """
    lowered = pc.utf8_lower(texts)
    # split_pattern_regex splits on every [^a-z0-9]+ run; leading/trailing
    # separators produce empty strings which we strip per-list below.
    split = pc.split_pattern_regex(lowered, "[^a-z0-9]+")
    # Drop empty tokens: flatten, mask, rebuild list array with corrected offsets.
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    flat = split.flatten()
    keep = pc.not_equal(flat, "")
    keep_np = keep.to_numpy(zero_copy_only=False)
    offsets = split.offsets.to_numpy(zero_copy_only=False)
    # new offsets = cumulative count of kept tokens at each old offset
    kept_cum = np.concatenate([[0], np.cumsum(keep_np)])
    new_offsets = kept_cum[offsets]
    new_flat = flat.filter(keep)
    return pa.ListArray.from_arrays(pa.array(new_offsets, type=pa.int32()), new_flat)


def phrase_occurrences(texts: pa.Array | pa.ChunkedArray,
                       terms: list[str] | tuple) -> np.ndarray:
    """Count CONTIGUOUS occurrences of the analyzed token sequence
    ``terms`` in each text's analyzed token sequence — the phrase-match
    verify kernel, fully vectorized: one ``tokenize_column`` per batch,
    then a rolling equality over the FLAT token values with a
    doc-boundary mask (a window is valid only when its first and last
    token fall in the same doc), folded per doc with ``bincount``.
    Shared by the positional query paths, the Phrase filter node and
    the pytest oracle, so phrase identity has one definition."""
    toks = tokenize_column(texts)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    n_docs = len(toks)
    offs = toks.offsets.to_numpy()
    flat = toks.values.to_numpy(zero_copy_only=False)
    span = len(terms)
    n = len(flat)
    if n < span or span == 0:
        return np.zeros(n_docs, dtype=np.int64)
    m = flat[: n - span + 1] == terms[0]
    for j in range(1, span):
        m &= flat[j: n - span + 1 + j] == terms[j]
    lens = np.diff(offs)
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    # boundary mask: window [i, i+span) must not straddle two docs
    same_doc = doc_of[: n - span + 1] == doc_of[span - 1:]
    hits = m & same_doc
    return np.bincount(doc_of[: n - span + 1][hits],
                       minlength=n_docs).astype(np.int64)


def near_pair_counts(texts: pa.Array | pa.ChunkedArray, term_a: str,
                     term_b: str, slop: int) -> np.ndarray:
    """Ordered-proximity verify kernel: per text, the number of analyzed
    token position pairs (i, j) with token[i] == term_a,
    token[j] == term_b and 0 < j - i <= slop + 1, both positions inside
    the same doc (slop = extra tokens allowed between the two; slop 0 =
    adjacent = the bigram phrase). Vectorized like
    :func:`phrase_occurrences`: one tokenize_column, position arrays on
    the flat values, a searchsorted window count per a-position clamped
    to the doc's end."""
    toks = tokenize_column(texts)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    n_docs = len(toks)
    offs = toks.offsets.to_numpy()
    flat = toks.values.to_numpy(zero_copy_only=False)
    lens = np.diff(offs)
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    pa_idx = np.nonzero(flat == term_a)[0]
    pb_idx = np.nonzero(flat == term_b)[0]
    if len(pa_idx) == 0 or len(pb_idx) == 0:
        return np.zeros(n_docs, dtype=np.int64)
    # inclusive window end per a-position: min(i + slop + 1, last index
    # of i's doc) — the clamp is what keeps pairs from straddling docs
    doc_a = doc_of[pa_idx]
    hi = np.minimum(pa_idx + slop + 1, offs[1:][doc_a] - 1)
    n_pairs = (np.searchsorted(pb_idx, hi, side="right")
               - np.searchsorted(pb_idx, pa_idx, side="right"))
    return np.bincount(doc_a, weights=n_pairs,
                       minlength=n_docs).astype(np.int64)
