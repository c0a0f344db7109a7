"""HTML→text extraction stage [A] (SURVEY.md §7.1).

``extract_batch`` is the ``map_batches`` body: it runs the column kernel
``functions.extract.extract_column`` over one Arrow batch and drops the
heavy ``html`` column straight after (SURVEY.md §7.5 "Wide docs"). It is
stateless — the kernel holds no model or tables worth an actor's
start-up — so the build runs it as plain tasks (SURVEY.md §7.3).

Batches stay small (html can be MBs/row); output schema is the pages
schema minus ``html``.
"""

from __future__ import annotations

import pyarrow as pa

from miru_ray.functions.extract import extract_column

__all__ = ["extract_batch", "EXTRACT_BATCH_SIZE"]

# html rows are KB–MB; keep batches modest so batch × tasks fits heap.
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

