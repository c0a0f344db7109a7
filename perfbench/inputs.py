"""Seeded inputs: pages, query streams and sip batches.

Everything derives from the workload seed; the program only ever sees
the generated parquet files and query strings.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from miru_ray.sources.fixtures import generate_pages

# sub-seed streams: one generator per purpose, so adding draws to one
# stream never shifts another
WARMUP, TIMED, SCATTER, OVERLAY = range(4)


def pages(seed: int, lo: int, hi: int, unique_urls: bool = False) -> pa.Table:
    """Rows [lo, hi) of the pages fixture under ``seed``. The fixture
    re-fetches every 211th url one row later; ``unique_urls`` drops those
    re-fetches, for time-range indexes whose latest-wins dedup is
    partition-local while the hash-partitioned oracle's is global."""
    t = generate_pages(lo, hi, seed)
    if unique_urls:
        idx = np.arange(lo, hi)
        t = t.filter(pa.array(~((idx % 211 == 210) & (idx > 0))))
    return t


def write_files(table: pa.Table, out_dir: str, rows_per_file: int,
                prefix: str = "part") -> int:
    """Write ``table`` as numbered parquet files; returns bytes written."""
    os.makedirs(out_dir, exist_ok=True)
    total = 0
    for i, lo in enumerate(range(0, table.num_rows, rows_per_file)):
        path = os.path.join(out_dir, f"{prefix}-{i:05d}.parquet")
        pq.write_table(table.slice(lo, rows_per_file), path)
        total += os.path.getsize(path)
    return total


def _w(rank: int) -> str:
    return f"w{rank:05d}"


class QueryStream:
    """Endless seeded query mix over one pages table.

    Mix: hot, mid and rare terms; AND pairs and long ANDs; NOT; prefix;
    OR; time and lang domains; quoted phrases; and, about one query in
    five, a title token ``t########`` no earlier query of the run named
    (a postings-cache miss by construction). Apart from the title tokens
    the terms come from small fixed sets, which ``vocabulary()`` visits
    once, so after a warm-up the reader's caches hold them: the working
    set is hot postings that fit the cache plus title tokens that miss.
    ``title_ids`` is the shared pool of never-queried page indices,
    consumed in order.

    ``drop`` names kinds left out of the mix (and, for prefix and phrase,
    out of ``vocabulary()``): ``search_scattered`` takes no time or lang
    domain, and a warm-read stream leaves out the title tokens that miss
    by construction and the phrases that scan stored text.
    """

    KINDS = {"title": 20, "hot": 12, "mid": 10, "rare": 5, "and2": 10,
             "and_long": 5, "not": 5, "prefix": 5, "or": 5, "time": 8,
             "lang": 5, "phrase": 5}
    LANGS = (["de"], ["fr", "es"], ["th"])

    def __init__(self, table: pa.Table, seed: int, stream: int,
                 title_ids: list[int], phrases: list[str], *,
                 drop: tuple[str, ...] = ()):
        self.rng = np.random.default_rng([seed, stream])
        vocab = np.random.default_rng([seed, 97])
        self.hot = [_w(r) for r in range(20)]
        self.mid = [_w(r) for r in range(100, 200)]
        self.warm = [_w(r) for r in range(20, 40)]
        self.rare = [_w(int(r)) for r in vocab.choice(
            np.arange(3000, 10000), 30, replace=False)]
        self.prefixes = [f"w0{int(r):02d}*" for r in vocab.choice(
            np.arange(10, 100), 6, replace=False)]
        kinds = {k: w for k, w in self.KINDS.items() if k not in drop}
        self.kinds = list(kinds)
        p = np.array(list(kinds.values()), dtype=np.float64)
        self.p = p / p.sum()
        ts = table["warc_ts"].cast(pa.int64())
        self.ts_lo = pc.min(ts).as_py()
        self.ts_hi = pc.max(ts).as_py() + 1
        self.title_ids = title_ids
        self.phrases = phrases
        self.drop = drop

    def _pick(self, xs: list[str]) -> str:
        return xs[int(self.rng.integers(0, len(xs)))]

    def _query(self, q: str, time_range=None, langs=None,
               kind: str = "warmup") -> dict:
        return {"kind": kind, "q": q, "time_range": time_range,
                "langs": langs}

    def vocabulary(self) -> list[dict]:
        """One query per fixed term, prefix, phrase and lang set."""
        terms = self.hot + self.mid + self.warm + self.rare
        out = [self._query(t) for t in terms]
        if "prefix" not in self.drop:
            out += [self._query(f"{self.hot[0]} {p}") for p in self.prefixes]
        if "phrase" not in self.drop:
            out += [self._query(p) for p in self.phrases]
        out += [self._query(self.hot[0], langs=lg) for lg in self.LANGS]
        return out

    def next(self) -> dict:
        r = self.rng
        kind = self.kinds[int(r.choice(len(self.kinds), p=self.p))]
        hot, mid = self._pick(self.hot), self._pick(self.mid)
        tr = langs = None
        if kind == "title":
            q = f"t{self.title_ids.pop(0):08d}"
        elif kind == "hot":
            q = hot
        elif kind == "mid":
            q = mid
        elif kind == "rare":
            q = self._pick(self.rare)
        elif kind == "and2":
            q = f"{hot} {mid}"
        elif kind == "and_long":
            q = " ".join([hot, self._pick(self.hot), mid,
                          self._pick(self.warm)])
        elif kind == "not":
            q = f"{mid} -{hot}"
        elif kind == "prefix":
            q = f"{hot} {self._pick(self.prefixes)}"
        elif kind == "or":
            q = f"{mid} OR {self._pick(self.mid)}"
        elif kind == "time":
            span = self.ts_hi - self.ts_lo
            lo = self.ts_lo + int(r.integers(0, span * 7 // 10))
            q = hot if r.random() < 0.5 else mid
            tr = (lo, lo + span * 3 // 10)
        elif kind == "lang":
            q = hot if r.random() < 0.5 else mid
            langs = self.LANGS[int(r.integers(0, len(self.LANGS)))]
        else:
            q = self._pick(self.phrases)
        return self._query(q, tr, langs, kind)


def title_pool(n_pages: int, seed: int) -> list[int]:
    """Page indices in a seeded order: each title token is queried once."""
    return np.random.default_rng([seed, 99]).permutation(n_pages).tolist()


def phrase_pool(table: pa.Table, seed: int, n: int = 24) -> list[str]:
    """Quoted two-word phrases taken from the pages' own text, both words
    outside the 100 hottest (a phrase of two hot words makes the stored-
    text verify scan a large share of the corpus)."""
    rng = np.random.default_rng([seed, 98])
    texts = table["text"].to_pylist()
    out: list[str] = []
    while len(out) < n:
        toks = texts[int(rng.integers(0, len(texts)))].split()
        pairs = [(a, b) for a, b in zip(toks, toks[1:])
                 if a[0] == "w" and b[0] == "w"
                 and int(a[1:]) >= 100 and int(b[1:]) >= 100]
        if pairs:
            a, b = pairs[int(rng.integers(0, len(pairs)))]
            out.append(f'"{a} {b}"')
    return out
