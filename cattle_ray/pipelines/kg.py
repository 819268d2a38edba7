"""The flagship KG-construction pipeline (SURVEY.md §3.4 / BASELINE.json
north_star):

    pages ──filter(lang)──► extract(text+tables)
          ├─► CSVW templates over embedded tables                  [M7→M1]
          └─► OpenIE pattern extraction over text                  [M8]
        union (D4) ─► entity linking ─► canonicalization ─► dedup (D2)
        ─► partitioned/sorted Parquet triples (S8/O1) + manifest (R3/G1)

Physical plan note (learned the hard way): a Dataset-level ``union`` of the
table/OpenIE channels re-executes the shared extraction ONCE PER BRANCH. So
the narrow stages are FUSED into one callable (:class:`KgStage`): per batch
it extracts, converts, pattern-extracts, links, and canonicalizes in a single
zero-copy pass — one read, no union operator. The stage runs as plain Ray
tasks, not an actor pool: Ray Data fuses read → ``KgStage`` → dedup's hash
maps into one task operator, with no pool to start, size, or leak (SURVEY.md
§7.2). The only wide op left is the dedup exchange (D2), exactly as the
shuffle budget in SURVEY.md §7.3 prescribes. The individual stage classes in
``stages/`` stay available for composing custom pipelines.
"""

from __future__ import annotations

import pyarrow as pa

from ..aliases import alias_table
from ..model import QUAD_KEY, TRIPLE_SCHEMA
from ..stages.convert import CsvwConvert
from ..stages.dedup import dedup_exact
from ..stages.extract import extract_batch
from ..stages.link import Canonicalizer, EntityLinker, build_alias_index
from ..stages.openie import OpenIEExtract
from ..stages.tables import TableConvert, filter_lang

#: mapping template for the imf-shaped embedded tables (FIXTURES.md §3,
#: "pages-table-metadata.json": aboutUrl templated on {url}+table idx+{_row})
PAGES_TABLE_TEMPLATE = {
    "@id": "https://example.org/pages-table",
    "aboutUrl": "{_url}#table{_tbl}/row/{_row}",
    "tableSchema": {
        "columns": [
            {"name": "Rank", "datatype": "xsd:integer",
             "propertyUrl": "https://example.org/def/rank"},
            {"name": "Country", "datatype": "xsd:string", "lang": "en",
             "propertyUrl": "https://example.org/def/country"},
            {"name": "Country", "virtual": True,
             "propertyUrl": "https://example.org/def/countryResource",
             "valueUrl": "https://example.org/id/country/{Country}"},
            {"name": "Int", "datatype": "xsd:decimal", "csvw:format": {"groupChar": ","},
             "propertyUrl": "https://example.org/def/gdpPerCapita"},
        ]
    },
}

KV_TABLE_TEMPLATE = {
    "@id": "https://example.org/pages-kv",
    "aboutUrl": "{_url}#table{_tbl}/row/{_row}",
    "tableSchema": {
        "columns": [
            {"name": "value", "datatype": "xsd:string",
             "propertyUrl": "https://example.org/def/{key}"},
        ]
    },
}

TEMPLATES_BY_SIGNATURE = {
    ("Rank", "Country", "Int"): PAGES_TABLE_TEMPLATE,
    ("key", "value"): KV_TABLE_TEMPLATE,
}


class KgStage:
    """Fused per-batch KG stage: lang-filter → extract →
    [table-convert ∪ OpenIE] → entity-link → canonicalize.

    All state (compiled templates, compiled rule regexes, the alias index)
    is built once, in the driver; the instance itself is the
    ``map_batches`` callable, so Ray ships it to each task pickled (about
    10 KB with the bundled alias index). One zero-copy Arrow pass per
    batch.
    """

    def __init__(self, templates, graph: str, alias_index=None, openie_rules=None,
                 langs: tuple = ("en",)):
        self.langs = tuple(langs)
        self.table_convert = TableConvert(templates, graph)
        # entity linking fused INTO extraction (alias_index given to OpenIE):
        # spans link via one dict hit instead of quote→mention-URI→unquote;
        # the standalone EntityLinker still covers mention URIs arriving from
        # other channels (none in this pipeline, so it is skipped).
        self.openie = OpenIEExtract(rules=openie_rules, graph=graph,
                                    alias_index=alias_index)
        self.canon = Canonicalizer()

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = filter_lang(extract_batch(batch), self.langs)
        parts = [self.table_convert(batch), self.openie(batch)]  # D4 union
        triples = pa.concat_tables([p for p in parts if p.num_rows] or
                                   [TRIPLE_SCHEMA.empty_table()])
        return self.canon(triples)


def build_triples(
    pages_ds,
    *,
    graph: str = "https://example.org/graph/run",
    langs: tuple = ("en",),
    templates: dict | None = None,
    openie_rules=None,
    link_entities: bool = True,
    batch_size: int | None = None,
    dedup: bool = True,
):
    """pages Dataset (input_hint schema) → deduplicated quad Dataset.

    One :class:`KgStage` is built here and mapped as plain Ray tasks. The
    alias index travels inside each task's pickled stage, which suits the
    bundled index (7.5 KB); a multi-GB alias dictionary would need a
    broadcast join instead.

    ``batch_size=None`` hands each task a WHOLE block: the per-call
    overhead (scheduling + Arrow slice + result serialization) at the old
    512-row default cost the 2M-page job ~2× wall at 32 cpus (29-35 s →
    15.8 s measured) — right-size blocks at the read instead; a block is
    the natural memory unit. Pass an explicit size only for payloads where
    a block exceeds worker heap (images/audio).
    """
    stage = KgStage(
        templates or TEMPLATES_BY_SIGNATURE, graph,
        alias_index=build_alias_index(alias_table()) if link_entities else None,
        openie_rules=openie_rules, langs=langs,
    )
    triples = pages_ds.map_batches(stage, batch_format="pyarrow",
                                   batch_size=batch_size)
    if dedup:
        triples = dedup_exact(triples, QUAD_KEY + ["graph"])
    return triples


def csv_to_nquads(csv_path: str, metadata: dict, graph: str):
    """The reference's own main path (§3.1: csv+json → .nq), Ray-Data-form:
    read_csv → convert → N-Quads lines Dataset."""
    from ..sources.csv_source import read_csv_dataset
    from ..sources.nquads import nquads_lines
    from ..template import MappingTemplate

    tmpl = MappingTemplate.from_dict(metadata)
    ds = read_csv_dataset(csv_path, tmpl.dialect)
    triples = ds.map_batches(CsvwConvert(tmpl, graph), batch_format="pyarrow")
    return triples, nquads_lines(triples)
