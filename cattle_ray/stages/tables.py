"""M7 glue: explode extracted ``tables`` column → row-oriented mini-tables
feeding the CSVW converter (M1).

Each embedded table becomes rows with columns named by its headers plus the
context columns the mapping templates need:

- ``_url``  — the page url (subject uniqueness across pages),
- ``_tbl``  — 0-based table index within the page,
- ``_row``  — 1-based row number within the table (the ``{_row}`` source;
  SURVEY.md §2.9 — derived from data, never from block order).

Tables are grouped per batch by header signature; each signature yields ONE
Arrow sub-table so the downstream converter stays columnar. Templates are
selected by header signature from a registry dict.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..model import TRIPLE_SCHEMA
from ..template import MappingTemplate
from .convert import convert_batch


def explode_tables_batch(batch: pa.Table) -> dict[tuple, pa.Table]:
    """→ {header_signature: row-table with header columns + _url/_tbl/_row}."""
    urls = batch["url"].to_pylist()
    tables_col = batch["tables"].to_pylist()
    buckets: dict[tuple, dict[str, list]] = {}
    for url, tables in zip(urls, tables_col):
        for tbl_idx, tbl in enumerate(tables or []):
            headers = tuple(tbl["headers"])
            if not headers:
                continue
            b = buckets.get(headers)
            if b is None:
                b = {h: [] for h in headers}
                b["_url"] = []
                b["_tbl"] = []
                b["_row"] = []
                buckets[headers] = b
            for r, row in enumerate(tbl["rows"], start=1):
                for h, cell in zip(headers, row):
                    b[h].append(cell)
                # ragged rows: pad missing cells with null
                for h in headers[len(row):]:
                    b[h].append(None)
                b["_url"].append(url)
                b["_tbl"].append(tbl_idx)
                b["_row"].append(r)
    return {sig: pa.table(cols) for sig, cols in buckets.items()}


class TableConvert:
    """Stage: extracted tables → CSVW triples; map one driver-built
    instance as tasks.

    ``templates`` maps header signature (tuple of header strings) → mapping
    template dict (compiled once, in the driver). Tables whose signature has no
    template are skipped. Citation: generalizes the reference's per-file
    COW convert (``/root/reference/src/cattle_process.py:14``) to per-embedded-
    table conversion over a page corpus (BASELINE.json north_star).
    """

    def __init__(self, templates: dict, graph: str):
        self.templates = {
            tuple(sig): (
                MappingTemplate.from_dict(t) if isinstance(t, dict) else t
            )
            for sig, t in templates.items()
        }
        self.graph = graph

    def __call__(self, batch: pa.Table) -> pa.Table:
        chunks = []
        for sig, rows in explode_tables_batch(batch).items():
            tmpl = self.templates.get(sig)
            if tmpl is None:
                continue
            chunks.append(convert_batch(rows, tmpl, graph=self.graph, src_url_col="_url"))
        if not chunks:
            return TRIPLE_SCHEMA.empty_table()
        out = pa.concat_tables(chunks)
        return out


def filter_lang(batch: pa.Table, langs: tuple = ("en",)) -> pa.Table:
    """M9: language filter + non-null text, vectorized (predicate also pushed
    into read_parquet where the caller can — see pipelines.kg)."""
    mask = pc.is_in(batch["lang"], value_set=pa.array(langs))
    mask = pc.and_(pc.fill_null(mask, False), pc.is_valid(batch["text"]))
    return batch.filter(mask)
