"""SPARQL UPDATE over the generation-tracked store: parsing, tracked
mutation semantics, time travel through updates."""

import pyarrow as pa
import pytest

from cattle_ray.stages.sparql import (SparqlSyntaxError,
                                      parse_sparql_update, sparql,
                                      sparql_update)

EX = "urn:ex:"
P = f"PREFIX ex: <{EX}> "

ROWS = [
    ("a", EX + "type", "Doc"), ("b", EX + "type", "Doc"),
    ("c", EX + "type", "Page"),
    ("a", EX + "rank", "3"), ("b", EX + "rank", "11"),
]


def _store(tmp_path, parts=4):
    import ray.data as rd

    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned

    s, p, o = zip(*ROWS)
    ds = rd.from_arrow(pa.table(
        {"subj": list(s), "pred": list(p), "obj": list(o)}))
    store = str(tmp_path / "store")
    write_triples_hash_partitioned(ds, store, num_partitions=parts)
    return store


def _triples(store):
    out = sparql(store, "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }").to_pandas()
    return set(out.itertuples(index=False, name=None))


# ------------------------------------------------------------- parsing

def test_parse_insert_data():
    u = parse_sparql_update(P + 'INSERT DATA { "x" ex:p "y" . }')
    assert u == [{"kind": "insert_data",
                  "triples": [("x", EX + "p", "y")]}]


def test_parse_delete_data_rejects_variables():
    with pytest.raises(SparqlSyntaxError, match="ground"):
        parse_sparql_update(P + "DELETE DATA { ?s ex:p \"y\" . }")


def test_parse_delete_where():
    [u] = parse_sparql_update(P + "DELETE WHERE { ?s ex:p ?o . }")
    assert u["kind"] == "modify"
    assert u["delete"] == [("?s", EX + "p", "?o")]
    assert u["insert"] is None


def test_parse_modify_both_templates():
    [u] = parse_sparql_update(P + """DELETE { ?s ex:old ?o . }
        INSERT { ?s ex:new ?o . } WHERE { ?s ex:old ?o . }""")
    assert u["delete"] == [("?s", EX + "old", "?o")]
    assert u["insert"] == [("?s", EX + "new", "?o")]
    assert u["where"]["patterns"] == [("?s", EX + "old", "?o")]


def test_parse_template_rejects_paths():
    with pytest.raises(SparqlSyntaxError, match="plain triples"):
        parse_sparql_update(
            P + "DELETE { ?s ex:p+ ?o . } WHERE { ?s ex:p+ ?o . }")
    with pytest.raises(SparqlSyntaxError, match="templates"):
        parse_sparql_update(P + "DELETE WHERE { ?s ex:p+ ?o . }")
    for path in ("ex:p*", "ex:p?", "ex:p{1,2}"):
        with pytest.raises(SparqlSyntaxError, match="plain triples"):
            parse_sparql_update(
                P + f"DELETE {{ ?s {path} ?o . }} WHERE {{ ?s ex:p ?o . }}")


def test_parse_rejects_trailing_and_non_update():
    with pytest.raises(SparqlSyntaxError, match="INSERT / DELETE"):
        parse_sparql_update(P + "SELECT ?s WHERE { ?s ex:p ?o . }")
    with pytest.raises(SparqlSyntaxError, match="trailing"):
        parse_sparql_update(P + 'INSERT DATA { "x" ex:p "y" . } nope')


# ----------------------------------------------------------- execution

def test_insert_data_lifecycle(ray_session, tmp_path):
    store = _store(tmp_path)
    out = sparql_update(
        store, P + 'INSERT DATA { "d" ex:type "Doc" . "d" ex:rank "7" . }')
    assert out["op"] == "insert_data" and out["inserted"] == 2
    assert out["generation"] == 1
    assert ("d", EX + "type", "Doc") in _triples(store)
    # RDF set semantics: re-inserting is a no-op and does NOT bump
    again = sparql_update(
        store, P + 'INSERT DATA { "d" ex:type "Doc" . "d" ex:rank "7" . }')
    assert again["inserted"] == 0


def test_delete_data_exact_rows(ray_session, tmp_path):
    store = _store(tmp_path)
    out = sparql_update(
        store, P + 'DELETE DATA { "a" ex:rank "3" . "zzz" ex:p "q" . }')
    assert out["removed"] == 1  # the non-existent row removes nothing
    got = _triples(store)
    assert ("a", EX + "rank", "3") not in got
    assert ("b", EX + "rank", "11") in got


def test_delete_where_pattern(ray_session, tmp_path):
    store = _store(tmp_path)
    out = sparql_update(store, P + "DELETE WHERE { ?s ex:rank ?r . }")
    assert out["removed"] == 2 and out["matched"] == 2
    assert {p for _s, p, _o in _triples(store)} == {EX + "type"}


def test_modify_rename_predicate_value(ray_session, tmp_path):
    store = _store(tmp_path)
    out = sparql_update(store, P + """DELETE { ?s ex:type "Doc" . }
        INSERT { ?s ex:type "Document" . } WHERE { ?s ex:type "Doc" . }""")
    assert out["removed"] == 2 and out["inserted"] == 2
    types = {(s, o) for s, p, o in _triples(store) if p == EX + "type"}
    assert types == {("a", "Document"), ("b", "Document"), ("c", "Page")}


def test_modify_with_filter_in_where(ray_session, tmp_path):
    store = _store(tmp_path)
    sparql_update(store, P + """DELETE { ?s ex:rank ?r . }
        WHERE { ?s ex:rank ?r . FILTER(?r > 5) }""")
    ranks = {(s, o) for s, p, o in _triples(store) if p == EX + "rank"}
    assert ranks == {("a", "3")}  # numeric filter: only 11 deleted


def test_updates_are_time_travelable(ray_session, tmp_path):
    from cattle_ray.sources.triple_sink import read_store_asof

    store = _store(tmp_path)
    sparql_update(store, P + 'INSERT DATA { "x" ex:type "Doc" . }')
    sparql_update(store, P + "DELETE WHERE { ?s ex:rank ?r . }")
    asof0 = set(read_store_asof(store, 0).select_columns(
        ["subj", "pred", "obj"]).to_pandas().itertuples(
        index=False, name=None))
    assert asof0 == set(ROWS)
    asof1 = set(read_store_asof(store, 1).select_columns(
        ["subj", "pred", "obj"]).to_pandas().itertuples(
        index=False, name=None))
    assert asof1 == set(ROWS) | {("x", EX + "type", "Doc")}


def test_insert_pads_annotation_columns(ray_session, tmp_path):
    """A store with annotation columns accepts a bare (s, p, o) insert —
    the pad fills typed nulls; extra columns are rejected."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        insert_rows, write_triples_hash_partitioned)

    s, p, o = zip(*ROWS)
    ds = rd.from_arrow(pa.table(
        {"subj": list(s), "pred": list(p), "obj": list(o),
         "obj_is_iri": pa.array([False] * len(ROWS)),
         "src_url": pa.array(["u"] * len(ROWS))}))
    store = str(tmp_path / "annot")
    write_triples_hash_partitioned(ds, store, num_partitions=2)
    sparql_update(store, P + 'INSERT DATA { "n" ex:p "v" . }')
    got = sparql(store, P + 'SELECT ?s WHERE { ?s ex:p "v" . }').to_pandas()
    assert list(got["s"]) == ["n"]
    with pytest.raises(ValueError, match="store lacks"):
        insert_rows(store, pa.table(
            {"subj": ["q"], "pred": ["p"], "obj": ["o"],
             "nope": ["x"]}))


def test_delete_exact_rows_requires_subj(ray_session, tmp_path):
    from cattle_ray.sources.triple_sink import delete_exact_rows

    store = _store(tmp_path)
    with pytest.raises(Exception, match="subj"):
        delete_exact_rows(store, pa.table(
            {"pred": [EX + "rank"]})).to_string()


def test_chained_update_request(ray_session, tmp_path):
    """A ;-chained request runs in order — the second op sees the
    first's effects — and returns the list of summaries."""
    store = _store(tmp_path)
    outs = sparql_update(store, P + '''
        INSERT DATA { "e" ex:type "Doc" . "e" ex:rank "9" . } ;
        DELETE WHERE { ?s ex:rank ?r . } ;
    ''')
    assert [o["op"] for o in outs] == ["insert_data", "modify"]
    assert outs[1]["removed"] == 3  # a, b AND the just-inserted e
    got = _triples(store)
    assert ("e", EX + "type", "Doc") in got
    assert not any(p == EX + "rank" for _s, p, _o in got)


def test_modify_matching_nothing_is_noop(ray_session, tmp_path):
    from cattle_ray.sources.triple_sink import store_generation

    store = _store(tmp_path)
    out = sparql_update(store, P + """DELETE { ?s ex:type ?t . }
        INSERT { ?s ex:was ?t . } WHERE { ?s ex:nosuch ?t . }""")
    assert out["matched"] == 0 and out["removed"] == 0
    assert out["inserted"] == 0
    assert store_generation(store) == 0  # nothing rewritten, no bump
    assert _triples(store) == set(ROWS)


def _graph_store(tmp_path, parts=4):
    import ray.data as rd

    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned

    s, p, o = zip(*ROWS)
    g = ["urn:g:1", "urn:g:1", "urn:g:2", "urn:g:2", "urn:g:1"]
    ds = rd.from_arrow(pa.table(
        {"subj": list(s), "pred": list(p), "obj": list(o), "graph": g}))
    store = str(tmp_path / "gstore")
    write_triples_hash_partitioned(ds, store, num_partitions=parts)
    return store


def test_clear_graph(ray_session, tmp_path):
    """CLEAR GRAPH <g> is a tracked graph-scoped delete: only that
    graph's rows go, a generation records them, time travel resurrects
    the pre-clear state."""
    from cattle_ray.sources.triple_sink import (read_store_asof,
                                                store_generation)

    store = _graph_store(tmp_path)
    out = sparql_update(store, "CLEAR GRAPH <urn:g:2>")
    assert out["op"] == "clear" and out["removed"] == 2
    assert store_generation(store) == 1
    # remaining rows are all g:1 (query the graph col via a quad pattern)
    got = sparql(store,
                 "SELECT ?s WHERE { GRAPH <urn:g:2> { ?s ?p ?o } }")
    assert got.count() == 0
    old = read_store_asof(store, 0).to_pandas()
    assert len(old) == len(ROWS)


def test_clear_graph_on_plain_store_raises(ray_session, tmp_path):
    store = _store(tmp_path)
    with pytest.raises(ValueError, match="no named-graph column"):
        sparql_update(store, "CLEAR GRAPH <urn:g:1>")


def test_clear_variants_rejected():
    with pytest.raises(SparqlSyntaxError, match="GRAPH"):
        parse_sparql_update("CLEAR ALL")
    with pytest.raises(SparqlSyntaxError, match="SILENT"):
        parse_sparql_update("CLEAR SILENT GRAPH <urn:g:1>")


def test_update_where_with_subquery(ray_session, tmp_path):
    """A subquery inside UPDATE WHERE evaluates against the PRE-update
    store and its bindings join the outer patterns."""
    store = _store(tmp_path)
    out = sparql_update(store, P + """
        DELETE { ?s ex:type ?t . }
        INSERT { ?s ex:wasType ?t . }
        WHERE {
          ?s ex:type ?t .
          { SELECT ?t (COUNT(*) AS ?n) WHERE { ?x ex:type ?t }
            GROUP BY ?t }
          FILTER(?n > 1)
        }""")
    assert out["matched"] == 2 and out["removed"] == 2
    assert out["inserted"] == 2
    got = _triples(store)
    assert ("a", EX + "wasType", "Doc") in got
    assert ("c", EX + "type", "Page") in got  # count 1 — untouched


def test_writes_in_caller_match_task_exchange(ray_session, tmp_path,
                                              monkeypatch):
    """The same tracked merge (with a min-``src_url`` representative
    change), ``DELETE DATA``, ``INSERT DATA`` and index refresh, run in
    the caller (default ``BUCKET_BYTES``) and on the task exchange
    (``BUCKET_BYTES`` = 1), leave identical partition files, generation
    deltas and manifests."""
    import glob
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        build_secondary_index, merge_triples_hash_partitioned,
        refresh_secondary_index)
    from cattle_ray.stages import exchange

    def rows(subjects, src):
        n = len(subjects)
        return pa.table({
            "subj": subjects,
            "pred": [EX + f"p{i % 3}" for i in range(n)],
            "obj": [f"v{i % 5}" for i in range(n)],
            "obj_is_iri": pa.array([i % 2 == 0 for i in range(n)]),
            "obj_lang": pa.array([None if i % 3 else "en"
                                  for i in range(n)], pa.string()),
            "src_url": [src] * n})

    base = rows([f"s{i % 7}" for i in range(30)], "http://z")
    # the first 10 base quads again with a smaller src_url, plus new ones
    delta = pa.concat_tables([base.slice(0, 10).set_column(
        5, "src_url", pa.array(["http://a"] * 10)),
        rows([f"n{i}" for i in range(8)], "http://m")])

    def run(root):
        store, idx = os.path.join(root, "store"), os.path.join(root, "idx")
        merge_triples_hash_partitioned(rd.from_arrow(base), store,
                                       num_partitions=4,
                                       track_generations=True)
        build_secondary_index(store, idx)
        with monkeypatch.context() as m:
            if root.endswith("tasks"):
                m.setattr(exchange, "BUCKET_BYTES", 1)
            out = [merge_triples_hash_partitioned(
                rd.from_arrow(delta), store, num_partitions=4,
                track_generations=True)]
            out.append(sparql_update(store, P + 'DELETE DATA { "s1" ex:p1 '
                                     '"v1" . "n2" ex:p2 "v2" . }'))
            out.append(sparql_update(store, P + 'INSERT DATA { "s1" ex:p1 '
                                     '"v9" . "x" ex:p0 "v0" . }'))
            out.append(refresh_secondary_index(idx))
        files = {os.path.relpath(f, root): pq.read_table(f) for f in glob.glob(
            os.path.join(root, "*", "part_id=*", "**", "*.parquet"),
            recursive=True)}
        for man in (out[0], out[3]):
            man["path"] = [os.path.relpath(p, root) for p in man["path"]]
        return out, files

    local, local_files = run(str(tmp_path / "caller"))
    tasks, task_files = run(str(tmp_path / "tasks"))
    assert int(local[0]["n_gen_removed"].sum()) == 10
    assert local[1]["removed"] == 2 and local[2]["inserted"] == 2
    assert local[0].equals(tasks[0]) and local[3].equals(tasks[3])
    assert local[1:3] == tasks[1:3]
    assert sorted(local_files) == sorted(task_files)
    assert any("/gen=" in f for f in local_files)
    for f, t in local_files.items():
        assert t.equals(task_files[f]), f
