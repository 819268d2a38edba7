"""M8: OpenIE-style pattern extraction over ``text`` → candidate triples.

The reference has no OpenIE stage (class C, BASELINE.json:6 "OpenIE-style
pattern extraction"); semantics are fixed here as a deterministic, ordered
rule registry (SURVEY.md U5): each rule is ``(regex, pred_iri)`` where the
regex names groups ``s`` (subject span) and ``o`` (object span; optional —
rules without ``o`` emit a boolean-style triple with the matched span as a
literal). Rules are applied per sentence-independent ``finditer`` over the
whole text; matches are non-overlapping per rule, rules independent.

Emitted candidate triples use *mention-level* URIs
(``ex:mention/<urlencoded surface form>``) — the entity-linking +
canonicalization stages (T3/T4) rewrite them to canonical entity URIs.

Execution: stateless ``map_batches`` flat-map; regexes precompiled at module
import (once per worker process). Per-doc ``finditer`` is a C-level scan.
"""

from __future__ import annotations

import re
from urllib.parse import quote

import pyarrow as pa

from ..model import TRIPLE_SCHEMA

EX = "https://example.org/def/"
MENTION_NS = "https://example.org/mention/"

# An entity-shaped span: capitalized token sequence ("Brunei Darussalam").
_ENT = r"[A-Z][A-Za-z0-9]*(?: [A-Z][A-Za-z0-9]*)*"

#: Default rule registry (U5). Order matters only for documentation; rules
#: fire independently. The dominant `mentions` pattern exercises predicate
#: skew (FIXTURES.md §1 skew knob).
DEFAULT_RULES: list[tuple[str, str]] = [
    (rf"(?P<s>{_ENT}) mentions (?P<o>{_ENT})", EX + "mentions"),
    (rf"(?P<s>{_ENT}) is located in (?P<o>{_ENT})", EX + "locatedIn"),
    (rf"(?P<s>{_ENT}) borders (?P<o>{_ENT})", EX + "borders"),
    (rf"(?P<s>{_ENT}) is a member of the (?P<o>[a-z]+)", EX + "memberOf"),
    (rf"The capital of (?P<s>{_ENT})", EX + "hasCapital"),
]


def mention_uri(surface: str) -> str:
    return MENTION_NS + quote(surface, safe="")


class OpenIEExtract:
    """Flat-map stage. Rules compiled once in ``__init__`` (T2-style
    setup-in-__init__ per input_hint); per batch emits 0..k candidate quads
    with mention spans recorded in ``src_url``-adjacent lineage columns.
    """

    def __init__(self, rules=None, graph: str = "", text_col: str = "text",
                 url_col: str = "url", alias_index=None):
        self.rules = [(re.compile(rx), pred) for rx, pred in (rules or DEFAULT_RULES)]
        self.graph = graph
        self.text_col = text_col
        self.url_col = url_col
        # optional inline entity linking (T3 fused into M8): spares the
        # quote→unquote round trip through mention URIs when both stages run
        # in the same task (see pipelines.kg.KgStage)
        self.alias_index = alias_index

    def _span_uri(self, span: str, cache: dict) -> str:
        uri = cache.get(span)
        if uri is None:
            if self.alias_index is not None:
                cands = self.alias_index.get(" ".join(span.lower().split()))
                uri = cands[0][0] if cands else mention_uri(span)
            else:
                uri = mention_uri(span)
            cache[span] = uri
        return uri

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        urls = (
            batch[self.url_col].to_pylist()
            if self.url_col in batch.column_names
            else [None] * len(texts)
        )
        cache: dict = {}
        subj, pred, obj, is_iri, src = [], [], [], [], []
        for text, url in zip(texts, urls):
            if not text:
                continue
            for rx, p in self.rules:
                for m in rx.finditer(text):
                    g = m.groupdict()
                    s_span = g.get("s")
                    o_span = g.get("o")
                    if s_span is None:
                        continue
                    subj.append(self._span_uri(s_span, cache))
                    pred.append(p)
                    if o_span is not None and o_span[:1].isupper():
                        obj.append(self._span_uri(o_span, cache))
                        is_iri.append(True)
                    else:
                        obj.append(o_span if o_span is not None else s_span)
                        is_iri.append(False)
                    src.append(url)
        n = len(subj)
        return pa.Table.from_arrays(
            [
                pa.array(subj, pa.string()),
                pa.array(pred, pa.string()),
                pa.array(obj, pa.string()),
                pa.array(is_iri, pa.bool_()),
                pa.nulls(n, pa.string()),
                pa.nulls(n, pa.string()),
                pa.array([self.graph] * n, pa.string()),
                pa.array(src, pa.string()),
            ],
            schema=TRIPLE_SCHEMA,
        )
