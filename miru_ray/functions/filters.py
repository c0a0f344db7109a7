"""Boolean filter tree + query-string parser.

Reference semantics reimplemented:

- ``MiruFilter{operation ∈ and|or|pButNotQ, fieldFilters, subFilters}``
  evaluated recursively over posting bitmaps
  (miru-plugin/.../solution/MiruAggregateUtil.java:1098-1241);
  ``pButNotQ`` = first operand AND NOT (OR of the rest)
  (miru-api/.../query/filter/MiruFilterOperation.java:10-22).
- AND short-circuits to the empty set when any term has no postings
  (MiruAggregateUtil.java:1175-1177).
- Wildcard (prefix) values expand via a term-range scan capped by
  ``max_wildcard_expansion`` (MiruAggregateUtil.java:1154-1167).
- Query strings parse with AND as the default operator like the
  reference's Lucene parser config (miru-plugin/.../query/
  LuceneBackedQueryParser.java:48-144): bare terms are MUST, ``OR``
  makes a SHOULD group, ``-term`` is MUST_NOT, ``term*`` is a prefix.

The tree is evaluated against a ``PostingsProvider`` protocol —
implemented by both the distributed IndexReader and the brute-force
oracle, so semantics are tested once and shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from miru_ray.functions.postings import diff_sorted, intersect_sorted
from miru_ray.functions.tokenize import tokenize

__all__ = [
    "Term", "Prefix", "TermRange", "Phrase", "And", "Or", "PButNotQ",
    "Filter", "parse_query", "field_names", "evaluate", "query_terms",
    "MAX_WILDCARD_EXPANSION",
]

MAX_WILDCARD_EXPANSION = 100  # cap like MiruAggregateUtil.java:1154-1167

import re as _re

# quoted-phrase syntax: optional '-' negation and optional field: prefix,
# both only at a token boundary (start or after whitespace)
_PHRASE_RE = _re.compile(r'(?:^|(?<=\s))(-?)([A-Za-z0-9_]+:)?"([^"]*)"')

# Phrase verification gathers stored text — batch it so a hot phrase
# (hundreds of thousands of AND candidates x ~KB text) never
# materializes the whole candidate text set at once
PHRASE_VERIFY_BATCH = 8192


@dataclass(frozen=True)
class Term:
    term: str


@dataclass(frozen=True)
class Prefix:
    prefix: str
    max_expansion: int = MAX_WILDCARD_EXPANSION


@dataclass(frozen=True)
class TermRange:
    """Inclusive term range [lo, hi] — the numeric-field range scan
    (order-preserving fixed-width encoding makes numeric ranges term
    ranges, MiruFieldDefinition.java:129-198 rangeScan)."""
    lo: str
    hi: str


@dataclass(frozen=True)
class Phrase:
    """Exact contiguous token sequence (quoted-phrase query syntax,
    LuceneBackedQueryParser's PhraseQuery). Evaluation is
    candidate-then-verify since postings carry no positions: postings
    AND over the distinct terms, then the provider's stored text
    confirms contiguity via the shared phrase kernel — INSIDE the node
    evaluation, so a Phrase composes correctly under Or/PButNotQ."""
    terms: tuple = ()


@dataclass(frozen=True)
class And:
    children: tuple = ()


@dataclass(frozen=True)
class Or:
    children: tuple = ()


@dataclass(frozen=True)
class PButNotQ:
    """children[0] AND NOT (children[1] OR children[2] …)."""
    children: tuple = ()


Filter = Term | Prefix | TermRange | Phrase | And | Or | PButNotQ


def field_names(q: str) -> set[str]:
    """Names written with ``name:`` field syntax in query ``q`` — on bare
    and quoted values alike, never inside a quoted phrase body —
    whether or not a schema declares them."""
    q = _PHRASE_RE.sub(lambda m: f" {m.group(2) or ''} ", q)
    out = set()
    for tok in q.split():
        name, colon, _ = tok.lstrip("-").partition(":")
        if colon and name:
            out.add(name)
    return out


def parse_query(q: str, schema=None, stop: frozenset = frozenset()) -> Filter:
    """Query string → filter tree. AND-default; ``OR`` flips the current
    group to a union; ``-tok`` excludes; trailing ``*`` is a prefix.

    ``field:value`` targets a secondary indexed field (state/schema.py),
    like the reference's per-field Lucene syntax
    (LuceneBackedQueryParser.java:48-144). Field syntax applies ONLY to
    fields DECLARED on the schema: with no schema, or when ``field`` is
    not a schema field, the whole token (colon included) is tokenized as
    primary text — so ``http://example.com`` or ``error:timeout`` in an
    AND query match text instead of fabricating an unknown-field term
    that can never hit. ``tokenized`` fields normalize the value through
    the text tokenizer; keyword/composite match RAW. Combines with
    ``-``/``*``: ``-source:src3``, ``site:exa*``.

    ``"quoted phrases"`` parse to :class:`Phrase` nodes (the Lucene
    parser's PhraseQuery): the quoted text analyzes through the one
    tokenizer and must appear CONTIGUOUSLY; ``-"..."`` excludes docs
    containing the phrase. Phrases are MUST/MUST_NOT regardless of an
    ``OR`` elsewhere in the query (AND-default operator). A quoted
    keyword/composite field value (``site:"Example Com"``) is one RAW
    term, like the unquoted keyword syntax.

    ``stop``: a per-language index's stopword set for the query locale.
    Plain text tokens shed stopword sub-tokens AFTER tokenization,
    exactly like the index side (tokenize_column_lang): 'the.' or
    'the-merge' must not sneak a zero-posting Term('the') into an AND.
    Grammar stays unanalyzed, like the reference's Lucene parser: the
    OR operator (en 'or' IS a stopword!), field tokens, prefixes, and
    quoted spans (the Phrase kernel matches the stored text's
    plain-tokenizer sequence, so '"state of the art"' keeps 'of the').
    """
    from miru_ray.state.schema import COMPOSE_SEP, field_ns
    phrase_must: list[Filter] = []
    phrase_not: list[Filter] = []
    raw_values: dict[str, str] = {}

    def take_phrase(m) -> str:
        neg, fld, body = m.group(1), m.group(2), m.group(3)
        fd = schema.field(fld[:-1]) if fld and schema is not None else None
        if fd is not None and fd.kind not in ("tokenized", "numeric") \
                and body:
            # quoted keyword/composite value (site:"Example Com"): keep it
            # RAW — spaces and case intact — behind a whitespace-free
            # placeholder, so the main loop's keyword branch builds the
            # term and places it under -/OR like the unquoted form
            key = f"\x00{len(raw_values)}\x00"
            raw_values[key] = body
            return f" {neg}{fld}{key} "
        toks = tokenize(body)
        if not toks:
            return " "
        if fld:
            # other fielded phrase (tokenized site:"example com"):
            # route through the normal field:value path — field values
            # carry no stored text to verify contiguity against, so the
            # tokenized-field AND semantics apply ('.' rejoins tokens;
            # any non-alnum separator splits identically)
            return f" {neg}{fld}{'.'.join(toks)} "
        node = Term(toks[0]) if len(toks) == 1 else Phrase(tuple(toks))
        (phrase_not if neg else phrase_must).append(node)
        return " "

    # the boundary anchor keeps a hyphenated prefix (well-"known x")
    # from binding as negation — unanchored quotes fall through to the
    # plain tokenizer like before quoted syntax existed
    q = _PHRASE_RE.sub(take_phrase, q)
    raw = q.split()
    must: list[Filter] = []
    should: list[Filter] = []
    must_not: list[Filter] = []
    use_or = False
    for tok in raw:
        if tok.upper() == "OR":
            use_or = True
            continue
        neg = tok.startswith("-")
        if neg:
            tok = tok[1:]
        is_prefix = tok.endswith("*")
        if is_prefix:
            tok = tok[:-1]
        node: Filter
        fname, _, fval = tok.partition(":")
        fd = (schema.field(fname) if (schema is not None and _ and fname and fval)
              else None)
        if fd is not None:
            ns = field_ns(fname)
            if fd.kind == "numeric":
                from miru_ray.state.schema import encode_numeric_one
                try:
                    if ".." in fval:   # inclusive range lo..hi (either open)
                        lo_s, hi_s = fval.split("..", 1)
                        lo = encode_numeric_one(int(lo_s)) if lo_s \
                            else encode_numeric_one(-(1 << 63))
                        hi = encode_numeric_one(int(hi_s)) if hi_s \
                            else encode_numeric_one((1 << 63) - 1)
                        node = TermRange(ns + lo, ns + hi)
                    else:
                        node = Term(ns + encode_numeric_one(int(fval)))
                except ValueError:
                    continue   # malformed numeric: drop like other garbage
            elif fd.kind == "tokenized":
                ftoks = tokenize(fval)
                if not ftoks:
                    continue
                if is_prefix:
                    # '*' binds to the LAST token; earlier tokens AND in
                    # as plain terms (site:exa-mple* = exa AND mple*)
                    parts = tuple(Term(ns + t) for t in ftoks[:-1]) \
                        + (Prefix(ns + ftoks[-1]),)
                    node = parts[0] if len(parts) == 1 else And(parts)
                elif len(ftoks) == 1:
                    node = Term(ns + ftoks[0])
                else:
                    node = And(tuple(Term(ns + t) for t in ftoks))
            else:   # keyword/composite fields match the RAW value
                fval = raw_values.get(fval, fval)
                if fd.kind == "composite":
                    fval = fval.replace("|", COMPOSE_SEP)
                node = Prefix(ns + fval) if is_prefix else Term(ns + fval)
            (must_not if neg else (should if use_or else must)).append(node)
            continue
        toks = tokenize(tok)   # normalize through the ONE tokenizer
        if stop and not is_prefix and ":" not in tok:
            toks = [t for t in toks if t not in stop]
        if not toks:
            continue
        if is_prefix:
            # '*' binds to the LAST token of the (possibly punctuated or
            # undeclared-field) token: 'site:exa*' = site AND exa*, never
            # a prefix on the first token with the rest dropped
            parts = tuple(Term(t) for t in toks[:-1]) + (Prefix(toks[-1]),)
            node = parts[0] if len(parts) == 1 else And(parts)
        elif len(toks) == 1:
            node = Term(toks[0])
        else:
            node = And(tuple(Term(t) for t in toks))
        (must_not if neg else (should if use_or else must)).append(node)
    pos: Filter
    if use_or:
        # with phrases present, an OR with no term operands ('"a b" OR
        # "c d"') must not contribute an empty-union base that ANDs the
        # whole query to nothing — fall back to the match-all base
        pos = Or(tuple(must + should)) if (must or should) else \
            (And(()) if phrase_must else Or(()))
    else:
        pos = And(tuple(must)) if must else And(())
    if phrase_must:
        if isinstance(pos, And) and not pos.children:
            # match-all base: the phrase AND stands alone (tighter than
            # intersecting with all_ids)
            pos = phrase_must[0] if len(phrase_must) == 1 \
                else And(tuple(phrase_must))
        else:
            pos = And((pos, *phrase_must))
    all_not = must_not + phrase_not
    if all_not:
        return PButNotQ((pos, *all_not))
    return pos


def query_terms(f: Filter) -> list[str]:
    """All positive PRIMARY-field Term leaves, sorted — the BM25 scoring
    terms. Namespaced secondary-field terms (``\\x00field\\x00value``)
    filter candidates but never score (filter fields vs scored fields)."""
    out: set[str] = set()

    def walk(node: Filter, positive: bool) -> None:
        if isinstance(node, Term):
            if positive and not node.term.startswith("\x00"):
                out.add(node.term)
        elif isinstance(node, Phrase):
            if positive:   # phrase terms score like plain terms (Lucene)
                out.update(node.terms)
        elif isinstance(node, (Prefix, TermRange)):
            pass  # filter-only nodes contribute no BM25 terms
        elif isinstance(node, PButNotQ):
            if node.children:
                walk(node.children[0], positive)
                for c in node.children[1:]:
                    walk(c, False)
        else:
            for c in node.children:
                walk(c, positive)

    walk(f, True)
    return sorted(out)


def evaluate(f: Filter, provider, domain=None) -> np.ndarray:
    """Evaluate a filter tree → sorted uint64 docID array.

    ``provider`` must expose:
        ids(term) -> sorted uint64 array (empty if absent)
        expand_prefix(prefix, cap) -> list[str] of matching terms
        all_ids() -> sorted uint64 array of every live doc (for pure-NOT)
    ``domain`` optionally restricts the result: either a sorted uint64 id
    array (the brute-force oracle's eager form) or an object exposing
    ``filter_ids(ids)`` (state.domain.DomainMask — packed per-partition
    bitmaps, never an explicit id list of the matching domain).
    """
    res = _eval(f, provider)
    if domain is not None:
        if hasattr(domain, "filter_ids"):
            res = domain.filter_ids(res)
        else:
            res = intersect_sorted(res, domain)
    return res


def _bulk_union(arrs: list[np.ndarray]) -> np.ndarray:
    """Union of many sorted id arrays in one pass (concat + unique) — the
    reference's multi-term OR, MiruBitmapsRoaring.orMultiTx:207-219."""
    arrs = [a for a in arrs if len(a)]
    if not arrs:
        return np.empty(0, dtype=np.uint64)
    if len(arrs) == 1:
        return arrs[0]
    return np.unique(np.concatenate(arrs))


def _eval(f: Filter, provider) -> np.ndarray:
    if isinstance(f, Term):
        return provider.ids(f.term)
    if isinstance(f, Prefix):
        if hasattr(provider, "prefix_union_ids"):   # cached fast path
            return provider.prefix_union_ids(f.prefix, f.max_expansion)
        terms = provider.expand_prefix(f.prefix, f.max_expansion)
        arrs = [provider.ids(t) for t in terms]
        return _bulk_union(arrs)
    if isinstance(f, TermRange):
        if hasattr(provider, "range_union_ids"):   # bulk segment-scan path
            return provider.range_union_ids(f.lo, f.hi)
        terms = provider.expand_range(f.lo, f.hi)
        arrs = [provider.ids(t) for t in terms]
        return _bulk_union(arrs)
    if isinstance(f, Phrase):
        if not f.terms:
            return np.empty(0, dtype=np.uint64)
        cand = _eval(And(tuple(Term(t) for t in sorted(set(f.terms)))),
                     provider)
        if len(cand) == 0:
            return cand
        if len(f.terms) == 1:
            return cand   # single-term phrase == the term itself
        from miru_ray.functions.tokenize import phrase_occurrences
        terms = list(f.terms)
        keep = [cand[lo: lo + PHRASE_VERIFY_BATCH][
                    phrase_occurrences(
                        provider.stored_texts(
                            cand[lo: lo + PHRASE_VERIFY_BATCH]),
                        terms) > 0]
                for lo in range(0, len(cand), PHRASE_VERIFY_BATCH)]
        return np.concatenate(keep) if keep else cand[:0]
    if isinstance(f, And):
        if not f.children:
            return provider.all_ids()
        parts = []
        for c in f.children:
            ids = _eval(c, provider)
            if len(ids) == 0:
                return np.empty(0, dtype=np.uint64)  # AND short-circuit (:1175)
            parts.append(ids)
        parts.sort(key=len)  # intersect smallest-first (list-intersection opt)
        acc = parts[0]
        for p in parts[1:]:
            acc = intersect_sorted(acc, p)
            if len(acc) == 0:
                return acc
        return acc
    if isinstance(f, Or):
        return _bulk_union([_eval(c, provider) for c in f.children])
    if isinstance(f, PButNotQ):
        if not f.children:
            return np.empty(0, dtype=np.uint64)
        acc = _eval(f.children[0], provider)
        for c in f.children[1:]:
            if len(acc) == 0:
                return acc
            acc = diff_sorted(acc, _eval(c, provider))
        return acc
    raise TypeError(f"unknown filter node: {f!r}")
