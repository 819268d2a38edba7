"""RDFS forward-chaining materialization: driver-side schema closure +
one-pass vectorized entailment."""

import pyarrow as pa
import pytest

from cattle_ray.stages.reason import (RDF_TYPE, RDFS_DOMAIN, RDFS_RANGE,
                                      RDFS_SUBCLASS, RDFS_SUBPROP,
                                      RdfsSchema, extract_schema,
                                      rdfs_materialize)


def _schema():
    rows = [
        ("B", RDFS_SUBCLASS, "A"), ("C", RDFS_SUBCLASS, "B"),
        ("p", RDFS_SUBPROP, "q"),
        ("p", RDFS_DOMAIN, "B"), ("p", RDFS_RANGE, "C"),
        ("q", RDFS_DOMAIN, "D"),
    ]
    s, p, o = zip(*rows)
    return pa.table({"subj": list(s), "pred": list(p), "obj": list(o)})


def test_schema_closure_driver_side():
    sch = RdfsSchema(_schema())
    assert sch.class_anc == {"B": {"A"}, "C": {"A", "B"}}
    assert sch.prop_anc == {"p": {"q"}}
    # effective domain of p: own (B, + class closure A) plus super-prop
    # q's (D) — rdfs7 feeding rdfs2, folded driver-side
    assert sch.eff_dom["p"] == {"A", "B", "D"}
    assert sch.eff_rng["p"] == {"A", "B", "C"}
    assert sch.eff_dom["q"] == {"D"}


def test_schema_cycle_tolerated():
    t = pa.table({"subj": ["X", "Y"], "pred": [RDFS_SUBCLASS] * 2,
                  "obj": ["Y", "X"]})
    sch = RdfsSchema(t)
    assert sch.class_anc == {"X": {"Y"}, "Y": {"X"}}


def test_materialize_full_rule_set(ray_session):
    import ray.data as rd

    inst = pa.table({
        "subj": ["x", "s"],
        "pred": [RDF_TYPE, "p"],
        "obj": ["C", "o"],
        "obj_is_iri": [True, True],
    })
    out = rdfs_materialize(rd.from_arrow(inst).repartition(2),
                           _schema()).to_pandas()
    got = set(zip(out["subj"], out["pred"], out["obj"]))
    assert got == {
        ("x", RDF_TYPE, "C"),                       # asserted
        ("x", RDF_TYPE, "B"), ("x", RDF_TYPE, "A"),  # rdfs9
        ("s", "p", "o"),                             # asserted
        ("s", "q", "o"),                             # rdfs7
        ("s", RDF_TYPE, "B"), ("s", RDF_TYPE, "A"),  # rdfs2 (eff dom)
        ("s", RDF_TYPE, "D"),                        # dom via superprop
        ("o", RDF_TYPE, "C"), ("o", RDF_TYPE, "B"),  # rdfs3 (eff rng)
        ("o", RDF_TYPE, "A"),
    }
    # inferred rows inherit the evidence row's extra columns
    assert set(out.columns) == {"subj", "pred", "obj", "obj_is_iri"}


def test_range_skips_literal_objects(ray_session):
    import ray.data as rd

    inst = pa.table({
        "subj": ["s1", "s2"], "pred": ["p", "p"],
        "obj": ["r", "a literal"], "obj_is_iri": [True, False],
    })
    out = rdfs_materialize(rd.from_arrow(inst), _schema()).to_pandas()
    got = set(zip(out["subj"], out["pred"], out["obj"]))
    # range types fire for the IRI object only; domain fires for both
    assert ("r", RDF_TYPE, "C") in got
    assert not any(s == "a literal" for s, p, _o in got if p == RDF_TYPE)
    assert ("s2", RDF_TYPE, "B") in got


def test_extract_schema_and_drop(ray_session):
    import ray.data as rd

    mixed = pa.concat_tables([
        _schema(),
        pa.table({"subj": ["x"], "pred": [RDF_TYPE], "obj": ["C"]}),
    ])
    ds = rd.from_arrow(mixed)
    sch = extract_schema(ds)
    assert sch.num_rows == 6
    out = rdfs_materialize(ds, drop_schema_rows=True).to_pandas()
    preds = set(out["pred"])
    assert RDFS_SUBCLASS not in preds and RDFS_DOMAIN not in preds
    got = set(zip(out["subj"], out["pred"], out["obj"]))
    assert {("x", RDF_TYPE, "C"), ("x", RDF_TYPE, "B"),
            ("x", RDF_TYPE, "A")} <= got


def test_batch_local_dedup_and_layout_invariance(ray_session):
    """Asserted+inferred duplicates collapse inside a batch, and the
    result SET is independent of partitioning."""
    import ray.data as rd

    inst = pa.table({
        "subj": ["x", "x"], "pred": [RDF_TYPE, RDF_TYPE],
        "obj": ["C", "B"],  # (x type B) is also inferred from C
        "obj_is_iri": [True, True],
    })
    sets = []
    for parts in (1, 3):
        out = rdfs_materialize(rd.from_arrow(inst).repartition(parts),
                               _schema()).to_pandas()
        sets.append(set(zip(out["subj"], out["pred"], out["obj"])))
    assert sets[0] == sets[1] == {
        ("x", RDF_TYPE, "C"), ("x", RDF_TYPE, "B"), ("x", RDF_TYPE, "A")}
    # single-partition run holds both copies of (x type B) in one batch
    # → exactly one survives
    one = rdfs_materialize(rd.from_arrow(inst).repartition(1),
                           _schema()).to_pandas()
    assert len(one) == 3


def test_schema_size_guard():
    big = pa.table({
        "subj": pa.array([f"c{i}" for i in range(3)]),
        "pred": pa.array([RDFS_SUBCLASS] * 3),
        "obj": pa.array(["A"] * 3)})
    import cattle_ray.stages.reason as rs
    old = rs.MAX_SCHEMA_ROWS
    rs.MAX_SCHEMA_ROWS = 2
    try:
        with pytest.raises(ValueError, match="vocabulary-sized"):
            RdfsSchema(big)
    finally:
        rs.MAX_SCHEMA_ROWS = old


def test_sameas_rewrite_broadcast_and_join_paths(ray_session):
    """Transitive sameAs chains resolve to the min-string canonical and
    both subject and object positions rewrite — identically on the
    broadcast path and the join path."""
    import ray.data as rd

    from cattle_ray.stages.reason import OWL_SAMEAS, sameas_rewrite

    t = pa.table({
        "subj": ["b", "c", "a", "b", "c"],
        "pred": [OWL_SAMEAS, OWL_SAMEAS, "likes", "likes", "name"],
        "obj":  ["a", "b", "x", "c", "Bob"],
    })
    want = {("a", "likes", "x"), ("a", "likes", "a"), ("a", "name", "Bob")}
    for kw in ({}, {"broadcast_max": 1}):
        out = sameas_rewrite(rd.from_arrow(t).repartition(2),
                             **kw).to_pandas()
        assert set(zip(out["subj"], out["pred"], out["obj"])) == want


def test_sameas_rewrite_no_pairs_and_keep(ray_session):
    import ray.data as rd

    from cattle_ray.stages.reason import OWL_SAMEAS, sameas_rewrite

    plain = pa.table({"subj": ["a"], "pred": ["p"], "obj": ["b"]})
    out = sameas_rewrite(rd.from_arrow(plain)).to_pandas()
    assert out.values.tolist() == [["a", "p", "b"]]
    # drop_sameas=False keeps the (rewritten) sameAs rows
    t = pa.table({"subj": ["b", "a"], "pred": [OWL_SAMEAS, "p"],
                  "obj": ["a", "x"]})
    out2 = sameas_rewrite(rd.from_arrow(t), drop_sameas=False).to_pandas()
    got = set(zip(out2["subj"], out2["pred"], out2["obj"]))
    assert got == {("a", OWL_SAMEAS, "a"), ("a", "p", "x")}


def test_cli_reason(ray_session, tmp_path):
    """`cli reason`: parquet source + .ttl ontology → materialized
    closure written as parquet."""
    import glob

    import pyarrow.parquet as pq

    from cattle_ray.cli import main

    inst = pa.table({
        "subj": ["x"], "pred": [RDF_TYPE], "obj": ["https://ex.org/C"]})
    src = tmp_path / "inst.parquet"
    pq.write_table(inst, str(src))
    ttl = tmp_path / "schema.ttl"
    ttl.write_text("""
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    @prefix ex: <https://ex.org/> .
    ex:B rdfs:subClassOf ex:A . ex:C rdfs:subClassOf ex:B .
    """)
    out = tmp_path / "out"
    main(["reason", str(src), "--schema", str(ttl), "--out", str(out)])
    t = pq.read_table(glob.glob(f"{out}/*.parquet"))
    assert sorted(t["obj"].to_pylist()) == [
        "https://ex.org/A", "https://ex.org/B", "https://ex.org/C"]


def test_property_graph_tables(ray_session, tmp_path):
    """Edges = resource-to-resource triples only; nodes carry exact
    degrees; edges_out persists partitioned parquet."""
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

    from cattle_ray.stages.reason import property_graph_tables

    t = pa.table({
        "subj": ["a", "a", "b", "c"],
        "pred": ["knows", "name", "knows", "knows"],
        "obj": ["b", "Alice", "a", "a"],
        "obj_is_iri": [True, False, True, True]})
    out = str(tmp_path / "edges")
    nodes, edges = property_graph_tables(
        rd.from_arrow(t).repartition(2), edges_out=out)
    e = sorted(map(tuple, edges.to_pandas().values.tolist()))
    assert e == [("a", "knows", "b"), ("b", "knows", "a"),
                 ("c", "knows", "a")]
    n = sorted(map(tuple, nodes.to_pandas().values.tolist()))
    assert n == [("a", 1, 2), ("b", 1, 1), ("c", 1, 0)]
    assert pq.read_table(glob.glob(f"{out}/*.parquet")).num_rows == 3
    # no obj_is_iri column: IRI-shaped heuristic
    t2 = pa.table({"subj": ["x"], "pred": ["p"],
                   "obj": ["urn:y"]})
    _nodes2, edges2 = property_graph_tables(rd.from_arrow(t2))
    assert edges2.count() == 1


def test_negative_sampling_deterministic_and_filtered(ray_session):
    """Negatives are a pure function of edge content (layout-invariant),
    never equal the true dst or the src, come from the vocabulary, and
    positives carry label 1 / negatives 0."""
    import ray.data as rd

    from cattle_ray.stages.reason import negative_sample_edges

    edges = pa.table({
        "src": [f"s{i}" for i in range(50)],
        "rel": ["r"] * 50,
        "dst": [f"d{i % 7}" for i in range(50)],
    })
    outs = []
    for parts in (1, 4):
        got = negative_sample_edges(
            rd.from_arrow(edges).repartition(parts), k=2).to_pandas()
        outs.append(set(map(tuple, got.values.tolist())))
    assert outs[0] == outs[1]  # layout invariance
    df = negative_sample_edges(rd.from_arrow(edges), k=2).to_pandas()
    pos = df[df["label"] == 1]
    neg = df[df["label"] == 0]
    assert len(pos) == 50
    assert len(neg) >= 95  # a few may drop on double collision
    vocab = set(edges["src"].to_pylist()) | set(edges["dst"].to_pylist())
    for s, d in zip(neg["src"], neg["dst"]):
        assert d in vocab and d != s
    # the per-edge filter: a negative never reproduces ITS OWN positive
    # — (src, rel, TRUE dst) never appears with label 0 (src is unique
    # per edge here, so an inner merge detects exactly that)
    merged = neg.merge(pos[["src", "rel", "dst"]],
                       on=["src", "rel", "dst"], how="inner")
    assert len(merged) == 0


def test_negative_sampling_vocab_guard(ray_session):
    """mode='broadcast' keeps the hard guard; mode='auto' degrades to
    the sharded in-cluster path instead of raising."""
    import ray.data as rd

    from cattle_ray.stages.reason import negative_sample_edges

    edges = pa.table({"src": ["a", "b"], "rel": ["r", "r"],
                      "dst": ["c", "d"]})
    with pytest.raises(ValueError, match="entity_max"):
        negative_sample_edges(rd.from_arrow(edges), entity_max=2,
                              mode="broadcast").count()
    # auto: same inputs over the crossover → sharded path, no raise
    df = negative_sample_edges(rd.from_arrow(edges), entity_max=2,
                               k=1).to_pandas()
    assert (df["label"] == 1).sum() == 2


def test_negative_sampling_sharded(ray_session):
    """Forced-shard path: layout-invariant, filtered, vocabulary-drawn —
    and the per-edge no-own-positive guarantee holds with the entity
    pools sharded across the exchange (vocabulary never on the driver)."""
    import ray.data as rd

    from cattle_ray.stages.reason import negative_sample_edges

    edges = pa.table({
        "src": [f"s{i}" for i in range(120)],
        "rel": [f"r{i % 3}" for i in range(120)],
        "dst": [f"d{i % 11}" for i in range(120)],
    })
    outs = []
    for parts in (1, 4):
        got = negative_sample_edges(
            rd.from_arrow(edges).repartition(parts), k=2,
            mode="sharded", num_shards=4).to_pandas()
        outs.append(set(map(tuple, got.values.tolist())))
    assert outs[0] == outs[1]  # layout invariance
    df = negative_sample_edges(rd.from_arrow(edges), k=2, mode="sharded",
                               num_shards=4).to_pandas()
    pos = df[df["label"] == 1]
    neg = df[df["label"] == 0]
    assert len(pos) == 120
    assert len(neg) >= 0.95 * 240  # empty-shard / double-collision drops
    vocab = set(edges["src"].to_pylist()) | set(edges["dst"].to_pylist())
    for s, d in zip(neg["src"], neg["dst"]):
        assert d in vocab and d != s
    merged = neg.merge(pos[["src", "rel", "dst"]],
                       on=["src", "rel", "dst"], how="inner")
    assert len(merged) == 0


def test_owl_materialize_axioms(ray_session):
    """inverseOf (both directions), SymmetricProperty swap, and
    TransitiveProperty instance closure through the distributed
    path-doubling machinery."""
    import ray.data as rd

    from cattle_ray.stages.reason import (OWL_INVERSE_OF, OWL_SYMMETRIC,
                                          OWL_TRANSITIVE, owl_materialize)

    t = pa.table({
        "subj": ["hasPart", "married", "anc", "a", "x", "p1", "p2"],
        "pred": [OWL_INVERSE_OF, RDF_TYPE, RDF_TYPE,
                 "hasPart", "married", "anc", "anc"],
        "obj": ["partOf", OWL_SYMMETRIC, OWL_TRANSITIVE,
                "b", "y", "p2", "p3"],
    })
    sets = []
    for parts in (1, 3):
        out = owl_materialize(
            rd.from_arrow(t).repartition(parts)).to_pandas()
        sets.append(set(zip(out["subj"], out["pred"], out["obj"])))
    assert sets[0] == sets[1]
    got = sets[0]
    assert ("b", "partOf", "a") in got          # inverseOf forward
    assert ("y", "married", "x") in got         # symmetric
    assert ("p1", "anc", "p3") in got           # transitive closure
    # inverseOf is symmetric itself: a partOf fact would yield hasPart
    t2 = pa.table({
        "subj": ["hasPart", "c"],
        "pred": [OWL_INVERSE_OF, "partOf"],
        "obj": ["partOf", "d"]})
    out2 = owl_materialize(rd.from_arrow(t2)).to_pandas()
    got2 = set(zip(out2["subj"], out2["pred"], out2["obj"]))
    assert ("d", "hasPart", "c") in got2


def test_functional_violations(ray_session):
    """Subjects with >1 distinct value for a functional property are
    violations; duplicates of the SAME value are not; declarations
    extract from the stream."""
    import ray.data as rd

    from cattle_ray.stages.reason import (OWL_FUNCTIONAL,
                                          functional_violations)

    t = pa.table({
        "subj": ["birth", "a", "a", "b", "b", "c"],
        "pred": [RDF_TYPE, "birth", "birth", "birth", "birth", "birth"],
        "obj": [OWL_FUNCTIONAL, "1900", "1901", "1950", "1950", "1960"],
    })
    out = functional_violations(
        rd.from_arrow(t).repartition(2)).to_pandas()
    assert out.values.tolist() == [["a", "birth", 2]]
    # explicit pred list, conformant data → empty
    t2 = pa.table({"subj": ["x"], "pred": ["birth"], "obj": ["2000"]})
    out2 = functional_violations(rd.from_arrow(t2),
                                 preds=["birth"]).to_pandas()
    assert len(out2) == 0
    with pytest.raises(ValueError, match="no functional properties"):
        functional_violations(rd.from_arrow(t2)).to_pandas()


def test_owl_property_chain(ray_session):
    """owl:propertyChainAxiom via bounded composition joins — both the
    rdf:list schema encoding and the direct chains= dict; malformed
    lists raise instead of under-inferring."""
    import ray.data as rd

    from cattle_ray.stages.reason import (OWL_CHAIN, RDF_FIRST, RDF_NIL,
                                          RDF_REST, owl_materialize)

    EX = "urn:ex:"
    inst = pa.table({
        "subj": ["alice", "bob", "carol"],
        "pred": [EX + "parent"] * 3,
        "obj": ["bob", "carol", "dave"]})
    ds = rd.from_arrow(inst)
    empty = pa.table({"subj": pa.array([], pa.string()),
                      "pred": pa.array([], pa.string()),
                      "obj": pa.array([], pa.string())})
    out = owl_materialize(
        ds, empty, chains={EX + "grandparent": [EX + "parent",
                                                EX + "parent"]})
    got = sorted({(r["subj"], r["obj"]) for r in out.take_all()
                  if r["pred"] == EX + "grandparent"})
    assert got == [("alice", "carol"), ("bob", "dave")]
    lst = pa.table({
        "subj": [EX + "grandparent", "_:l1", "_:l1", "_:l2", "_:l2"],
        "pred": [OWL_CHAIN, RDF_FIRST, RDF_REST, RDF_FIRST, RDF_REST],
        "obj": ["_:l1", EX + "parent", "_:l2", EX + "parent", RDF_NIL]})
    out2 = owl_materialize(ds, lst)
    got2 = sorted({(r["subj"], r["obj"]) for r in out2.take_all()
                   if r["pred"] == EX + "grandparent"})
    assert got2 == got
    bad = pa.table({"subj": [EX + "g", "_:l1"],
                    "pred": [OWL_CHAIN, RDF_FIRST],
                    "obj": ["_:l1", EX + "parent"]})
    with pytest.raises(ValueError, match="malformed"):
        owl_materialize(ds, bad)


def test_owl_property_with_two_chains(ray_session):
    """A property declaring TWO ``owl:propertyChainAxiom`` lists
    materializes both chains' entailments (not only the last list)."""
    import ray.data as rd

    from cattle_ray.stages.reason import (OWL_CHAIN, RDF_FIRST, RDF_NIL,
                                          RDF_REST, owl_materialize)

    EX = "urn:ex:"
    ds = rd.from_arrow(pa.table({
        "subj": ["alice", "bob", "alice", "eve"],
        "pred": [EX + "parent", EX + "parent", EX + "spouse",
                 EX + "sibling"],
        "obj": ["bob", "carol", "eve", "frank"]}))
    schema = pa.table({
        "subj": [EX + "relative", "_:a1", "_:a1", "_:a2", "_:a2",
                 EX + "relative", "_:b1", "_:b1", "_:b2", "_:b2"],
        "pred": [OWL_CHAIN, RDF_FIRST, RDF_REST, RDF_FIRST, RDF_REST] * 2,
        "obj": ["_:a1", EX + "parent", "_:a2", EX + "parent", RDF_NIL,
                "_:b1", EX + "spouse", "_:b2", EX + "sibling", RDF_NIL]})
    got = sorted({(r["subj"], r["obj"])
                  for r in owl_materialize(ds, schema).take_all()
                  if r["pred"] == EX + "relative"})
    # parent∘parent gives (alice, carol); spouse∘sibling gives (alice, frank)
    assert got == [("alice", "carol"), ("alice", "frank")]
