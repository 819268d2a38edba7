"""Store queries evaluate in process when their scans fit
``exchange.BUCKET_BYTES`` (driver-held Arrow tables, the batch and finish
functions called in the caller) and on Ray Data otherwise. Both sides must
give the same answer: a SPARQL battery runs as is (in process, the store is
a few KB) and again with ``BUCKET_BYTES`` patched to 1 byte (every scan a
``read_parquet``, every exchange a multi-reducer shuffle), and each query's
column names, column types and binding multiset must agree — a typed 0-row
result included. A second test pins the in-process side's cost: a serve
query or an index refresh starts at most one Ray Data execution and logs
no "different schema" warning."""

import logging
import math

import pyarrow as pa
import pytest

EX = "http://ex/"
P = f"PREFIX ex: <{EX}>\n"
G1, G2 = "http://g/1", "http://g/2"


def _rows():
    rows = []
    # a borders chain with a cycle and a branch: c0 → c1 → … → c5 → c2
    for i in range(5):
        rows.append((f"c{i}", "borders", f"c{i + 1}", G1))
    rows += [("c5", "borders", "c2", G1), ("c1", "borders", "c9", G2)]
    for i in range(10):
        rows.append((f"c{i}", "rank", str(i % 3), G1))
        rows.append((f"c{i}", "country", f"Country{i % 4}", G2))
        if i % 2 == 0:
            rows.append((f"c{i}", "score", str(i * 7 % 5), G1))
    for d in range(12):
        rows.append((f"d{d}", "mentions", f"c{d % 5}", G2))
        rows.append((f"d{d}", "mentions", f"c{(d * 3) % 7}", G2))
        rows.append((f"d{d}", "type", "Doc" if d % 3 else "Page", G1))
    rows += [("c3", "parent", "c0", G1), ("c4", "parent", "c3", G1),
             ("c0", "part", "c7", G2)]
    s, p, o, g = zip(*rows)
    return pa.table({"subj": list(s), "pred": [EX + x for x in p],
                     "obj": list(o), "graph": list(g)})


@pytest.fixture(scope="module")
def stores(tmp_path_factory, ray_session):
    import ray.data as rd

    from cattle_ray.sources.triple_sink import build_secondary_index, \
        write_triples_hash_partitioned

    root = tmp_path_factory.mktemp("parity")
    store, idx, other = (str(root / n) for n in ("store", "idx", "other"))
    write_triples_hash_partitioned(rd.from_arrow(_rows()).repartition(3),
                                   store, num_partitions=4)
    build_secondary_index(store, idx)
    write_triples_hash_partitioned(rd.from_arrow(pa.table({
        "subj": ["c1", "c2", "d1", "zz"],
        "pred": [EX + "rank", EX + "borders", EX + "mentions", EX + "rank"],
        "obj": ["7", "c8", "c3", "1"],
        "graph": [G2] * 4})), other, num_partitions=2)
    return store, idx, other


# (name, query) — the five serve shapes, then the algebra and every path
# form; ORDER BY + LIMIT/OFFSET orders on every projected column, so the
# chosen rows are one set on both sides
BATTERY = [
    ("lookup", "SELECT ?p ?o WHERE { <c3> ?p ?o }"),
    ("scan", "SELECT ?s WHERE { ?s ex:mentions <c2> } LIMIT 50"),
    ("join", 'SELECT ?r ?c WHERE { ?r ex:rank "1" . ?r ex:country ?c }'),
    ("path", "SELECT ?y WHERE { <c0> ex:borders+ ?y }"),
    ("agg", "SELECT ?o (COUNT(*) AS ?n) WHERE { ?s ex:mentions ?o } "
            "GROUP BY ?o"),
    ("optional", "SELECT ?c ?v WHERE { ?c ex:rank ?r . "
                 "OPTIONAL { ?c ex:score ?v } }"),
    ("minus", "SELECT ?c WHERE { ?c ex:rank ?r . MINUS { ?c ex:score ?v } }"),
    ("exists", "SELECT ?c ?r WHERE { ?c ex:rank ?r . "
               "FILTER EXISTS { ?c ex:borders ?x } }"),
    ("not_exists", "SELECT ?d WHERE { ?d ex:type ?t . "
                   "FILTER NOT EXISTS { ?d ex:mentions <c0> } }"),
    ("values", 'SELECT ?c ?r WHERE { ?c ex:rank ?r . '
               'VALUES ?r { "0" "2" } }'),
    ("union", "SELECT ?x ?v WHERE { { ?x ex:score ?v } UNION "
              "{ ?x ex:part ?v } }"),
    ("bind", 'SELECT ?c ?tag WHERE { ?c ex:rank ?r . '
             'BIND(CONCAT(?c, "#", ?r) AS ?tag) }'),
    ("filter", 'SELECT ?c ?r WHERE { ?c ex:rank ?r . FILTER(?r != "0") }'),
    ("p_star_obj", "SELECT ?x WHERE { ?x ex:borders* <c3> }"),
    ("p_opt", "SELECT ?y WHERE { <c1> ex:borders? ?y }"),
    ("p_quant", "SELECT ?y WHERE { <c0> ex:borders{1,3} ?y }"),
    ("p_inverse", "SELECT ?x WHERE { <c2> ^ex:borders ?x }"),
    ("p_unseeded", "SELECT ?x ?y WHERE { ?x ex:borders+ ?y }"),
    ("p_cycle", "SELECT ?x WHERE { ?x ex:borders+ ?x }"),
    ("p_seq", "SELECT ?x ?y WHERE { ?x (ex:parent/ex:part)+ ?y }"),
    ("p_alt", "SELECT ?y WHERE { <c4> (ex:parent|ex:part)* ?y }"),
    ("p_deferred", 'SELECT ?c ?y WHERE { ?c ex:rank "0" . '
                   "?c ex:borders* ?y }"),
    ("p_graph", "SELECT ?g ?y WHERE { GRAPH ?g { <c0> ex:borders+ ?y } }"),
    ("group_aggs", "SELECT ?r (COUNT(*) AS ?n) (COUNT(DISTINCT ?c) AS ?k) "
                   "(SUM(?v) AS ?t) WHERE { ?c ex:rank ?r . "
                   "?c ex:score ?v } GROUP BY ?r"),
    ("order_nulls", "SELECT ?c ?v WHERE { ?c ex:rank ?r . "
                    "OPTIONAL { ?c ex:score ?v } } "
                    "ORDER BY DESC(?v) ?c LIMIT 4 OFFSET 2"),
    ("distinct", "SELECT DISTINCT ?o WHERE { ?s ex:mentions ?o }"),
    ("subquery", "SELECT ?o ?n WHERE { ?o ex:rank ?r . "
                 "{ SELECT ?o (COUNT(*) AS ?n) WHERE { ?s ex:mentions ?o } "
                 "GROUP BY ?o } }"),
    ("no_match", "SELECT * WHERE { ?s ex:rank ?o . ?o ex:nope ?z }"),
]

#: no-match queries whose last step is a projection, an aggregate or a
#: top-k. In process each keeps its typed columns; the Dataset path loses
#: them (its maps drop empty blocks), so only the in-process side is
#: pinned for these
EMPTY_SHAPES = [
    ("SELECT ?s ?o WHERE { ?s ex:rank ?o . ?o ex:nope ?z }",
     ["s", "o"], ["string", "string"]),
    ("SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ex:nope ?o } GROUP BY ?s",
     ["s", "n"], ["string", "int64"]),
    ("SELECT ?s WHERE { ?s ex:nope ?o } ORDER BY ?s LIMIT 3",
     ["s"], ["string"]),
]


def _answer(ds):
    """(column names, Arrow column types, sorted binding rows)."""
    def norm(v):
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return None
        return v

    ds = ds.materialize()
    schema = ds.schema()
    rows = sorted((tuple(norm(v) for v in r) for r in
                   ds.to_pandas().itertuples(index=False, name=None)),
                  key=repr)
    return list(schema.names), [str(t) for t in schema.types], rows


def _battery(stores):
    from cattle_ray.stages.sparql import sparql

    store, idx, other = stores
    out = {n: _answer(sparql(store, P + q, obj_index_dir=idx))
           for n, q in BATTERY}
    out["federation"] = _answer(sparql(
        [store, other], P + "SELECT ?c ?r WHERE { ?c ex:rank ?r . "
        "?c ex:borders ?y }"))
    return out


def test_in_process_matches_dataset_path(stores, monkeypatch):
    from cattle_ray.stages import exchange

    local = _battery(stores)
    monkeypatch.setattr(exchange, "BUCKET_BYTES", 1)
    distributed = _battery(stores)
    for name, got in local.items():
        assert got == distributed[name], name
    # the battery means something: answers exist, and the no-match query
    # is a typed empty relation
    assert all(rows for n, (_c, _t, rows) in local.items()
               if n != "no_match"), local
    assert local["no_match"] == (["s", "o", "z"], ["string"] * 3, [])


def test_in_process_empty_results_are_typed(stores):
    from cattle_ray.stages.sparql import sparql

    for q, names, types in EMPTY_SHAPES:
        assert _answer(sparql(stores[0], P + q)) == (names, types, []), q


class _Counter(logging.Handler):
    """Ray Data executions started and schema-mismatch warnings, from the
    ``ray.data`` logger (perfbench's ``RayDataCounter`` reads the same
    two messages)."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.executions = self.schema_warnings = 0

    def emit(self, record):
        msg = record.getMessage()
        if msg.startswith("Starting execution of Dataset"):
            self.executions += 1
        elif "with a different schema" in msg:
            self.schema_warnings += 1


def test_small_store_ops_start_at_most_one_execution(ray_session, tmp_path):
    import ray.data as rd

    from cattle_ray.sources.triple_sink import build_secondary_index, \
        merge_triples_hash_partitioned, refresh_secondary_index
    from cattle_ray.stages.sparql import sparql

    store, idx = str(tmp_path / "store"), str(tmp_path / "idx")
    merge_triples_hash_partitioned(rd.from_arrow(_rows()), store,
                                   num_partitions=4, track_generations=True)
    build_secondary_index(store, idx)
    merge_triples_hash_partitioned(rd.from_arrow(pa.table({
        "subj": ["n1", "n2"], "pred": [EX + "rank"] * 2, "obj": ["5", "6"],
        "graph": [G1] * 2})), store, num_partitions=4,
        track_generations=True)

    log = logging.getLogger("ray.data")
    counter, level = _Counter(), log.level
    log.addHandler(counter)
    log.setLevel(logging.DEBUG)
    try:
        # the handler sees executions: a Ray Data job counts as one
        rd.from_arrow(_rows()).map_batches(
            lambda b: b, batch_format="pyarrow").to_pandas()
        assert counter.executions == 1
        for name, q in BATTERY[:5]:
            counter.executions = 0
            df = sparql(store, P + q).to_pandas()
            assert len(df) and counter.executions <= 1, (name, df)
        counter.executions = 0
        man = refresh_secondary_index(idx)
        assert len(man) and counter.executions <= 1
    finally:
        log.removeHandler(counter)
        log.setLevel(level)
    assert counter.schema_warnings == 0
