"""IndexSchema — multi-field indexing over ONE posting space.

The reference keys every posting on (fieldId, termId) with per-field
feature bundles (miru-api/.../schema/MiruFieldDefinition.java:59-127,
miru-plugin/.../index/MiruFieldIndex.java:12-43); every plugin test
declares multi-field schemas (user/doc/obj/text —
miru-stream-plugins-test/.../fulltext/MiruFullTextNGTest.java:52-60).

Here fields share the primary posting space via length-free namespacing —
the MiruTermComposer idea (miru-plugin/.../index/MiruTermComposer.java:39-62)
flattened to a prefix: field ``f``'s term ``v`` is stored as
``"\\x00f\\x00" + v``. ``\\x00`` cannot occur in ``[a-z0-9]+`` text tokens,
so field terms never collide with text terms, shard with the same hash,
merge with the same codec, and evaluate with the same filter algebra.
The primary ``text`` field stays un-namespaced (it is the BM25-scored
field); secondary fields are filter-only — their postings restrict the
candidate set but contribute no BM25 score, matching the reference where
fulltext scoring runs over designated fields while other fields filter
(FullText.java gather fields vs filter fields).

Field kinds (MiruFieldDefinition.Type analogues):
- ``keyword``       one exact term per doc from a string column
                    (singleTerm) — e.g. ``source``, ``site``;
- ``keyword_list``  exact terms from a list<string> column (multiTerm) —
                    e.g. ``authz``, tags;
- ``tokenized``     the text tokenizer applied to a string column, terms
                    namespaced — a secondary searchable field (e.g.
                    ``title``);
- ``numeric``       int64 column encoded as order-preserving fixed-width
                    hex terms (the reference's lexicographic 4/8-byte int
                    encoding, MiruFieldDefinition.java:129-198) — enables
                    query-time RANGE filters ``field:lo..hi`` resolved as
                    a term-range scan over the postings;
- ``composite``     SEVERAL source columns composed into one exact term
                    (MiruTermComposer.java:39-62 length-prefixed
                    composition, here "\\x1f"-joined — the unit separator
                    cannot occur in [a-z0-9]+ tokens or sane field
                    values). Declared with ``source=("colA", "colB")``;
                    queried as ``field:valA|valB`` ("|" maps to the
                    separator). Docs missing ANY component are not
                    indexed under the field.
``stored=True`` additionally keeps the raw column in docs.parquet for
gather (Feature.stored; composite stores the composed string).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["FieldDef", "IndexSchema", "field_ns", "field_term",
           "keyword_postings", "NS_CH"]

NS_CH = "\x00"
COMPOSE_SEP = "\x1f"
_KINDS = ("keyword", "keyword_list", "tokenized", "numeric", "composite")
_SIGN_OFFSET = np.uint64(1 << 63)


def encode_numeric(values) -> np.ndarray:
    """int64 value(s) → 16-hex order-preserving term string(s): hex of
    (v + 2^63), so lexicographic term order == numeric order incl.
    negatives. Vectorized (np.char over a fixed-width hex render)."""
    arr = np.asarray(values, dtype=np.int64).astype(np.uint64) + _SIGN_OFFSET
    return np.char.zfill(np.char.mod("%x", arr), 16).astype(object)


def encode_numeric_one(value: int) -> str:
    return format((int(value) + (1 << 63)) & ((1 << 64) - 1), "016x")


def field_ns(name: str) -> str:
    """Posting-space namespace prefix for a field."""
    return NS_CH + name + NS_CH


def field_term(name: str, value: str) -> str:
    return field_ns(name) + value


@dataclass(frozen=True)
class FieldDef:
    name: str
    kind: str = "keyword"  # keyword | keyword_list | tokenized | numeric | composite
    stored: bool = False
    source: tuple = ()     # composite only: the composed source columns

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}; one of {_KINDS}")
        if not self.name or NS_CH in self.name:
            raise ValueError(f"invalid field name {self.name!r}")
        if self.kind == "composite" and len(self.source) < 2:
            raise ValueError("composite fields need >= 2 source columns")
        if self.kind != "composite" and self.source:
            raise ValueError("source= is only valid for composite fields")


@dataclass(frozen=True)
class IndexSchema:
    """Secondary indexed fields (the primary tokenized ``text`` field is
    implicit and always present)."""
    fields: tuple[FieldDef, ...] = ()

    def __post_init__(self):
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in schema: {names}")
        if "text" in names:
            raise ValueError("'text' is the implicit primary field")

    def field(self, name: str) -> FieldDef | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def to_meta(self) -> list[dict]:
        return [{"name": f.name, "kind": f.kind, "stored": f.stored,
                 "source": list(f.source)}
                for f in self.fields]

    @staticmethod
    def from_meta(rows: list[dict] | None) -> "IndexSchema":
        return IndexSchema(tuple(FieldDef(r["name"], r["kind"],
                                          bool(r.get("stored", False)),
                                          tuple(r.get("source", ())))
                                 for r in (rows or [])))


def keyword_postings(ns: str, flat_values: np.ndarray,
                     flat_doc_ids: np.ndarray) -> pa.Table:
    """Vectorized exact-term postings: (value, doc) pairs → one posting row
    per distinct value, ids sorted ascending, tf = 1 (set semantics — a doc
    carrying a value twice indexes once, MiruFieldIndex set-bit idempotence).

    ``flat_values``: object array of raw values (one per (doc, value) pair;
    list columns pre-flattened by the caller); ``flat_doc_ids``: aligned
    int64 local ids (need not be grouped).
    """
    from miru_ray.functions.postings import encode_many_ids, encode_many_tfs

    empty = pa.table({
        "term": pa.array([], pa.string()), "df": pa.array([], pa.int64()),
        "cf": pa.array([], pa.int64()), "docids": pa.array([], pa.binary()),
        "tfs": pa.array([], pa.binary()),
    })
    if len(flat_values) == 0:
        return empty
    mask = pd.notna(flat_values)
    if not mask.all():
        flat_values = flat_values[mask]
        flat_doc_ids = flat_doc_ids[mask]
        if len(flat_values) == 0:
            return empty
    codes, uniques = pd.factorize(flat_values, sort=True)
    max_doc = int(flat_doc_ids.max()) + 1
    key = codes.astype(np.int64) * max_doc + flat_doc_ids.astype(np.int64)
    ukey = np.unique(key)              # dedups (value, doc) pairs; sorted
    u_code = ukey // max_doc
    u_doc = (ukey % max_doc).astype(np.uint64)
    change = np.flatnonzero(np.diff(u_code)) + 1
    starts = np.concatenate([[0], change])
    df = np.diff(np.append(starts, len(ukey)))
    ones = np.ones(len(ukey), dtype=np.int64)
    return pa.table({
        "term": pa.array([ns + str(uniques[c]) for c in u_code[starts]],
                         pa.string()),
        "df": pa.array(df, pa.int64()),
        "cf": pa.array(df, pa.int64()),
        "docids": encode_many_ids(u_doc, df),
        "tfs": encode_many_tfs(ones, df),
    })
