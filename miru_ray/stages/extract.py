"""HTML→text extraction stage [A] (SURVEY.md §7.1).

``extract_batch`` is the ``map_batches`` body: it runs the column kernel
``functions.extract.extract_column`` over one Arrow batch and drops the
heavy ``html`` column straight after (SURVEY.md §7.5 "Wide docs").
``HtmlExtractor`` wraps it in the actor-pool shape the north rule names,
``pages.map_batches(HtmlExtractor, concurrency=N, ...)``, after the
reference's load-once-score-many pattern
(miru-stream-plugins/.../strut/StrutModelScorer.java — model in ctor, work
per call).

Batches stay small (html can be MBs/row); output schema is the pages
schema minus ``html``.
"""

from __future__ import annotations

import pyarrow as pa

from miru_ray.functions.extract import extract_column, extract_text

__all__ = ["HtmlExtractor", "EXTRACT_BATCH_SIZE"]

# html rows are KB–MB; keep batches modest so batch × concurrency fits heap.
EXTRACT_BATCH_SIZE = 256


def extract_batch(batch: pa.Table) -> pa.Table:
    """Stateless batch body: html:binary → text:string, html dropped."""
    texts = extract_column(batch["html"])
    names = [n for n in batch.schema.names if n != "html"]
    cols = [batch[n] for n in names]
    if "text" in names:
        cols[names.index("text")] = texts
    else:
        names.append("text")
        cols.append(texts)
    return pa.table(dict(zip(names, cols)))


class HtmlExtractor:
    """Actor-pool extraction stage: html:binary → text:string (byte-identical
    to the golden text per url — pytest-verified invariant).

    The class shape is for extractors with EXPENSIVE init (model load,
    parser tables): pay actor startup once, amortize over batches. Our
    default extractor is a compiled-regex pure function, so the build
    pipeline uses the stateless ``extract_batch`` unless
    ``BuildConfig.extract_actors`` asks for the pool (actor spin-up costs
    seconds per execution — pure overhead when ``__init__`` is trivial,
    the right trade when it is not)."""

    def __init__(self) -> None:
        self._extract = extract_text  # stand-in for heavy model/table load

    def __call__(self, batch: pa.Table) -> pa.Table:
        return extract_batch(batch)
