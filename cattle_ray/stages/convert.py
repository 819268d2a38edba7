"""M1-M3: the CSVW row→triples flatMap — the engine's core transform.

Semantics (SURVEY.md §1.2, evidenced at ``/root/reference/src/templates/
ruminator.html:118-176`` and ``src/static/ruminator/js/ruminator.js:174,
200-261,317-363``; conversion entry ``src/cattle_process.py:14``):

For each input row *r* with row number ``{_row}``:

- row subject = ``aboutUrl`` rendered over *r*;
- each non-virtual column *c* with a non-null cell *v* emits
  ``(subject, render(propertyUrl_c), object)`` where object is
  ``render(valueUrl_c)`` as IRI when ``valueUrl`` is present, else the typed
  literal ``v`` (datatype/lang per spec);
- each virtual column emits ``(render(aboutUrl), render(propertyUrl),
  render(valueUrl) | literal(render(csvw:value)))`` independent of any cell;
- null/empty cells and cells listed in the column's ``null`` list are skipped
  (0 triples), ``default`` substitutes before the null check loses;
- ``separator`` splits a cell into multiple values → one triple each.

Shape: 1 row → 0..k triples, a flat-map — expressed as ``map_batches`` with
``batch_format="pyarrow"`` (output length ≠ input length is native). The
kernel is fully vectorized: per COLUMN of the template (not per row) it
renders subject/predicate/object arrays with pyarrow.compute and filters the
null mask; per-batch cost is O(#columns) kernel launches.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..model import RDF_NS, TRIPLE_SCHEMA, XSD, triples_table
from ..template import ColumnSpec, MappingTemplate, format_literal_array


def _nulls(n: int) -> pa.Array:
    return pa.nulls(n, pa.string())


def _const(v: str | None, n: int) -> pa.Array:
    if v is None:
        return _nulls(n)
    return pa.array([v] * n, pa.string())


def _cell_mask(arr: pa.Array, spec: ColumnSpec) -> pa.Array:
    """True where the cell yields a triple: non-null, non-empty, not in the
    column's null list (after ``default`` substitution)."""
    arr = pc.cast(arr, pa.string())
    mask = pc.and_(pc.is_valid(arr), pc.not_equal(arr, ""))
    for nv in spec.null_values:
        mask = pc.and_(mask, pc.not_equal(arr, nv))
    return pc.fill_null(mask, False)


def _apply_default(arr: pa.Array, spec: ColumnSpec) -> pa.Array:
    arr = pc.cast(arr, pa.string())
    if spec.default is not None:
        arr = pc.if_else(
            pc.or_(pc.is_null(arr), pc.equal(arr, "")), pa.scalar(spec.default), arr
        )
    return arr


def convert_batch(
    batch: pa.Table,
    template: MappingTemplate,
    *,
    graph: str,
    src_url_col: str | None = None,
) -> pa.Table:
    """Vectorized CSVW conversion of one Arrow batch → quad table.

    ``batch`` must carry every column the template references, including
    ``_row`` (stable row number — SURVEY.md §2.9: derived from data, never
    from block arrival order). ``src_url_col`` names a lineage column copied
    into ``src_url``.
    """
    n = len(batch)
    if n == 0:
        return TRIPLE_SCHEMA.empty_table()

    subj_default = template.about_url.render(batch)
    src = (
        pc.cast(batch[src_url_col], pa.string()).combine_chunks()
        if src_url_col and src_url_col in batch.column_names
        else _nulls(n)
    )
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    graph_arr = _const(graph, n)

    chunks: list[pa.Table] = []
    for spec in template.columns:
        subj = spec.about_url.render(batch) if spec.about_url is not None else subj_default
        pred = spec.property_url.render(batch)

        if spec.virtual:
            # virtual column: triple per row regardless of cells
            if spec.value_url is not None:
                obj = spec.value_url.render(batch)
                chunks.append(
                    triples_table(
                        subj, pred, obj,
                        pa.array([True] * n), _nulls(n), _nulls(n), graph_arr, src,
                    )
                )
            elif spec.csvw_value is not None:
                obj = spec.csvw_value.render(batch, encode=False)
                dt = spec.datatype if spec.datatype not in (None, XSD + "string") else None
                lang = spec.lang if dt is None else None
                chunks.append(
                    triples_table(
                        subj, pred, obj,
                        pa.array([False] * n), _const(dt, n), _const(lang, n), graph_arr, src,
                    )
                )
            continue

        if spec.name is None or spec.name not in batch.column_names:
            continue
        cells = batch[spec.name]
        if isinstance(cells, pa.ChunkedArray):
            cells = cells.combine_chunks()
        cells = _apply_default(cells, spec)
        mask = _cell_mask(cells, spec)

        if spec.separator and spec.collection:
            # csvw:collectionUrl: multi-valued cell → RDF list
            # (rdf:first / rdf:rest chain on deterministic blank nodes)
            idx = pc.indices_nonzero(mask)
            if len(idx) > 0:
                chunks.append(
                    _emit_collection(
                        spec, batch.take(idx), pc.cast(cells.take(idx), pa.string()),
                        subj.take(idx), pred.take(idx), graph, src.take(idx),
                    )
                )
            continue

        if spec.separator:
            # multi-valued cells: split → explode (one triple per element)
            idx = pc.indices_nonzero(mask)
            sub = batch.take(idx)
            sub_cells = pc.cast(cells.take(idx), pa.string())
            split = pc.split_pattern(sub_cells, spec.separator)
            parent = pc.list_parent_indices(split)
            flat_vals = pc.list_flatten(split)
            sub_rep = sub.take(parent)
            # {column} in valueUrl must substitute the SPLIT element, not the
            # raw multi-valued cell — replace the column in the exploded rows
            if spec.name in sub_rep.column_names:
                sub_rep = sub_rep.set_column(
                    sub_rep.column_names.index(spec.name), spec.name, flat_vals
                )
            _emit_column_chunk(
                chunks, spec, sub_rep, flat_vals,
                subj.take(idx).take(parent), pred.take(idx).take(parent),
                graph_arr.take(idx).take(parent), src.take(idx).take(parent),
            )
            continue

        idx = pc.indices_nonzero(mask)
        if len(idx) == 0:
            continue
        sub = batch.take(idx)
        _emit_column_chunk(
            chunks, spec, sub, pc.cast(cells.take(idx), pa.string()),
            subj.take(idx), pred.take(idx), graph_arr.take(idx), src.take(idx),
        )

    if not chunks:
        return TRIPLE_SCHEMA.empty_table()
    out = pa.concat_tables(chunks)
    # {{ }} expression templates render NULL to signal "skip this triple"
    # (COW conditional-skip); drop any triple with a null term
    valid = pc.and_(pc.and_(pc.is_valid(out["subj"]),
                            pc.is_valid(out["pred"])),
                    pc.is_valid(out["obj"]))
    if not pc.all(valid).as_py():
        out = out.filter(valid)
    return out


def _emit_collection(
    spec: ColumnSpec,
    rows: pa.Table,
    cells: pa.Array,
    subj: pa.Array,
    pred: pa.Array,
    graph: str,
    src: pa.Array,
) -> pa.Table:
    """csvw:collectionUrl semantics: the cell's separator-split values become
    an ordered RDF collection; one (subject, pred, head) triple plus the
    rdf:first/rdf:rest chain. Blank-node labels are content-hashed from
    (subject, pred, raw cell) — deterministic at any parallelism, stable
    across retries (SURVEY.md determinism contract). Rare-feature path:
    per-cell Python loop (lists are inherently sequential)."""
    import hashlib

    RDF_FIRST = RDF_NS + "first"
    RDF_REST = RDF_NS + "rest"
    RDF_NIL = RDF_NS + "nil"
    cols: dict[str, list] = {k: [] for k in TRIPLE_SCHEMA.names}

    def emit(s, p, o, is_iri, dt, lang, src_v):
        cols["subj"].append(s)
        cols["pred"].append(p)
        cols["obj"].append(o)
        cols["obj_is_iri"].append(is_iri)
        cols["obj_datatype"].append(dt)
        cols["obj_lang"].append(lang)
        cols["graph"].append(graph)
        cols["src_url"].append(src_v)

    dt = spec.datatype if spec.datatype not in (None, XSD + "string") else None
    lang = spec.lang if dt is None else None
    for i in range(len(rows)):
        s, p = subj[i].as_py(), pred[i].as_py()
        src_v = src[i].as_py()
        raw = cells[i].as_py() or ""
        values = raw.split(spec.separator)
        values = [v for v in values if v != ""]
        # hash includes the CELL CONTENT: two rows rendering the same
        # (aboutUrl, propertyUrl) — any aboutUrl not using {_row} — must get
        # distinct list chains unless their cells are identical (in which case
        # the emitted triples are identical and dedup merges them harmlessly)
        tag = hashlib.md5(f"{s}\x1f{p}\x1f{raw}".encode()).hexdigest()[:12]
        if not values:
            emit(s, p, RDF_NIL, True, None, None, src_v)
            continue
        heads = [f"_:c{tag}_{j}" for j in range(len(values))]
        emit(s, p, heads[0], True, None, None, src_v)
        for j, v in enumerate(values):
            if spec.value_url is not None:
                one = pa.table({spec.name: [v], **{
                    c: [rows[c][i].as_py()] for c in rows.column_names if c != spec.name
                }})
                obj_v = spec.value_url.render(one)[0].as_py()
                emit(heads[j], RDF_FIRST, obj_v, True, None, None, src_v)
            else:
                fv, _ok = format_literal_array(pa.array([v], pa.string()), spec)
                emit(heads[j], RDF_FIRST, fv[0].as_py(), False, dt, lang, src_v)
            rest = heads[j + 1] if j + 1 < len(values) else RDF_NIL
            emit(heads[j], RDF_REST, rest, True, None, None, src_v)
    return pa.Table.from_pydict(cols, schema=TRIPLE_SCHEMA)


def _emit_column_chunk(
    chunks: list,
    spec: ColumnSpec,
    rows: pa.Table,
    values: pa.Array,
    subj: pa.Array,
    pred: pa.Array,
    graph: pa.Array,
    src: pa.Array,
) -> None:
    k = len(values)
    if k == 0:
        return
    if spec.value_url is not None:
        # object-as-IRI: render valueUrl over the (filtered) rows
        obj = spec.value_url.render(rows, n=k)
        chunks.append(
            triples_table(subj, pred, obj, pa.array([True] * k), _nulls(k), _nulls(k), graph, src)
        )
    else:
        obj, _ok = format_literal_array(values, spec)
        dt = spec.datatype if spec.datatype not in (None, XSD + "string") else None
        lang = spec.lang if dt is None else None
        chunks.append(
            triples_table(
                subj, pred, obj, pa.array([False] * k), _const(dt, k), _const(lang, k), graph, src
            )
        )


class CsvwConvert:
    """Batch form of the conversion (SURVEY.md T1): the mapping template
    (a dict or a :class:`MappingTemplate`) is validated/compiled ONCE in
    ``__init__``, batches convert in ``__call__``. Build it in the driver
    and map the instance; Ray runs it as plain tasks.

    Usage::

        ds.map_batches(CsvwConvert(meta_dict, run_graph),
                       batch_format="pyarrow")
    """

    def __init__(self, template, graph: str, src_url_col: str | None = None):
        if isinstance(template, dict):
            template = MappingTemplate.from_dict(template)
        self.template = template
        self.graph = graph
        self.src_url_col = src_url_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        return convert_batch(
            batch, self.template, graph=self.graph, src_url_col=self.src_url_col
        )
