"""Single-node brute-force oracle — the correctness reference for tests.

Independent implementation strategy (dict-of-lists index, per-doc loops)
but the SAME pure kernels for tokenize/extract/BM25 math, mirroring how
the reference tests assert semantics against randomized fixtures
(miru-stream-plugins-test/.../MiruFullTextNGTest.java:191-224). The
pipeline must match the oracle rank-identically (FIXTURES.md §4).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

from miru_ray.functions.bm25 import bm25_term_scores, topk_order
from miru_ray.functions.extract import extract_column
from miru_ray.functions.filters import Filter, evaluate, parse_query, query_terms
from miru_ray.functions.hashing import part_for
from miru_ray.functions.tokenize import tokenize

__all__ = ["OracleIndex"]


class OracleIndex:
    """Brute-force in-memory index over a pages table.

    Replays the engine's documented semantics step by step in plain
    Python: hash-partition by url, latest-wins dedup, (warc_ts, url) sort
    within partition, prefix-sum docIDs, whole-doc tokenize.
    """

    def __init__(self, pages: pa.Table, num_parts: int = 16, schema=None):
        from miru_ray.state.schema import field_ns
        urls = pages["url"].to_pylist()
        ts = pages["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        if "text" in pages.schema.names and pages["text"].null_count == 0:
            texts = pages["text"].to_pylist()
        else:
            texts = extract_column(pages["html"]).to_pylist()
        langs = pages["lang"].to_pylist()
        parts = part_for(urls, num_parts)
        self.schema = schema
        sfields = [f for f in (schema.fields if schema else ())
                   if (all(c in pages.schema.names for c in f.source)
                       if f.kind == "composite" else f.name in pages.schema.names)]
        fcols = {}
        for f in sfields:
            if f.kind == "composite":
                from miru_ray.state.schema import COMPOSE_SEP
                comps = [pages[c].to_pylist() for c in f.source]
                fcols[f.name] = [
                    COMPOSE_SEP.join(str(v) for v in row)
                    if all(v is not None for v in row) else None
                    for row in zip(*comps)]
            else:
                fcols[f.name] = pages[f.name].to_pylist()

        # latest-wins dedup + per-partition (ts, url) sort + prefix-sum ids
        per_part: dict[int, dict[str, tuple]] = {}
        for i in range(len(urls)):
            best = per_part.setdefault(int(parts[i]), {})
            key = urls[i]
            cand = (int(ts[i]), texts[i], langs[i],
                    {n: c[i] for n, c in fcols.items()})
            if key not in best or cand[:2] > best[key][:2]:
                best[key] = cand
        self.docs: list[tuple] = []   # (doc_id, url, ts, text, lang, fields)
        for p in sorted(per_part):
            rows = sorted(((v[0], u, v[1], v[2], v[3])
                           for u, v in per_part[p].items()),
                          key=lambda r: (r[0], r[1]))
            for t, u, text, lang, fv in rows:
                self.docs.append((len(self.docs), u, t, text, lang, fv))

        self.n_docs = len(self.docs)
        self.postings: dict[str, dict[int, int]] = {}
        self.doclen = np.zeros(self.n_docs, dtype=np.int64)
        for doc_id, _u, _t, text, _l, fv in self.docs:
            toks = tokenize(text)
            self.doclen[doc_id] = len(toks)
            for term, tf in Counter(toks).items():
                self.postings.setdefault(term, {})[doc_id] = tf
            for f in sfields:
                ns = field_ns(f.name)
                val = fv.get(f.name)
                if val is None:
                    continue
                if f.kind in ("keyword", "composite"):
                    self.postings.setdefault(ns + str(val), {})[doc_id] = 1
                elif f.kind == "numeric":
                    from miru_ray.state.schema import encode_numeric_one
                    self.postings.setdefault(
                        ns + encode_numeric_one(int(val)), {})[doc_id] = 1
                elif f.kind == "keyword_list":
                    for v in val:
                        self.postings.setdefault(ns + str(v), {})[doc_id] = 1
                else:   # tokenized secondary field
                    for term, tf in Counter(tokenize(str(val))).items():
                        self.postings.setdefault(ns + term, {})[doc_id] = tf
        self.avgdl = float(self.doclen.sum() / self.n_docs) if self.n_docs else 0.0

    # --- PostingsProvider protocol ---

    def ids(self, term: str) -> np.ndarray:
        p = self.postings.get(term)
        if not p:
            return np.empty(0, dtype=np.uint64)
        return np.array(sorted(p), dtype=np.uint64)

    def expand_range(self, lo: str, hi: str) -> list[str]:
        return sorted(t for t in self.postings if lo <= t <= hi)

    def expand_prefix(self, prefix: str, cap: int) -> list[str]:
        hits = (t for t in self.postings if t.startswith(prefix))
        if not prefix.startswith("\x00"):   # bare scans skip field namespaces
            hits = (t for t in hits if not t.startswith("\x00"))
        return sorted(hits)[:cap]

    def all_ids(self) -> np.ndarray:
        return np.arange(self.n_docs, dtype=np.uint64)

    def stored_texts(self, doc_ids: np.ndarray):
        """Stored text per docID (the Phrase filter node's verify hook)."""
        import pyarrow as _pa
        return _pa.array([self.docs[int(d)][3] for d in doc_ids],
                         _pa.string())

    # --- stats ---

    def df(self, term: str) -> int:
        return len(self.postings.get(term, {}))

    def cf(self, term: str) -> int:
        return sum(self.postings.get(term, {}).values())

    # --- search ---

    def domain(self, time_range=None, langs=None) -> np.ndarray | None:
        if time_range is None and not langs:
            return None
        keep = []
        lo, hi = time_range if time_range else (None, None)
        langset = set(langs) if langs else None
        for doc_id, _u, t, _text, lang, _fv in self.docs:
            if lo is not None and t < lo:
                continue
            if hi is not None and t >= hi:
                continue
            if langset is not None and lang not in langset:
                continue
            keep.append(doc_id)
        return np.array(keep, dtype=np.uint64)

    def search(self, query: str, k: int = 10, time_range=None,
               langs=None, k1: float = 1.2, b: float = 0.75):
        """Top-k (doc_id, score) by (score desc, docID desc)."""
        tree: Filter = parse_query(query, self.schema)
        candidates = evaluate(tree, self, self.domain(time_range, langs))
        terms = query_terms(tree)
        scores = np.zeros(len(candidates), dtype=np.float64)
        for term in sorted(set(terms)):
            p = self.postings.get(term)
            if not p:
                continue
            df = len(p)
            tf = np.array([p.get(int(d), 0) for d in candidates], dtype=np.int64)
            mask = tf > 0
            scores[mask] += bm25_term_scores(
                tf[mask], self.doclen[candidates[mask].astype(np.int64)],
                df, self.n_docs, self.avgdl, k1, b)
        top = topk_order(scores, candidates, k)
        return candidates[top].astype(np.int64), scores[top]
