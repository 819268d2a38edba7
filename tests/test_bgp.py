"""BGP evaluator — planning rules and binding semantics."""

import os

import pandas as pd
import pyarrow as pa
import pytest


def _triples(rows):
    s, p, o = zip(*rows)
    return pa.table({"subj": list(s), "pred": list(p), "obj": list(o)})


ROWS = [
    ("a", "type", "Doc"), ("b", "type", "Doc"), ("c", "type", "Page"),
    ("a", "about", "E1"), ("b", "about", "E2"), ("c", "about", "E1"),
    ("E1", "in", "X"), ("E2", "in", "Y"),
    ("loop", "self", "loop"),
]


def _eval(patterns, parts=3):
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(parts)
    return evaluate_bgp(ds, patterns).to_pandas()


def test_two_pattern_join(ray_session):
    out = _eval([("?d", "type", "Doc"), ("?d", "about", "?e")])
    got = set(zip(out["d"], out["e"]))
    assert got == {("a", "E1"), ("b", "E2")}


def test_three_pattern_chain(ray_session):
    """Chained variables across three patterns: doc → entity → region."""
    out = _eval([("?d", "type", "Doc"), ("?d", "about", "?e"),
                 ("?e", "in", "?r")])
    got = set(zip(out["d"], out["e"], out["r"]))
    assert got == {("a", "E1", "X"), ("b", "E2", "Y")}
    assert list(out.columns) == ["d", "e", "r"]


def test_object_to_subject_join(ray_session):
    """The join variable may appear in different POSITIONS per pattern."""
    out = _eval([("?e", "in", "X"), ("?d", "about", "?e")])
    got = set(zip(out["e"], out["d"]))
    assert got == {("E1", "a"), ("E1", "c")}


def test_repeated_variable_within_pattern(ray_session):
    out = _eval([("?x", "self", "?x")])
    assert list(out["x"]) == ["loop"]


def test_disconnected_pattern_raises(ray_session):
    with pytest.raises(ValueError, match="cartesian"):
        _eval([("?d", "type", "Doc"), ("?e", "in", "X")])


def test_no_variable_pattern_raises(ray_session):
    with pytest.raises(ValueError, match="binds no variable"):
        _eval([("a", "type", "Doc")])


def test_bag_semantics_and_partitions(ray_session):
    """Duplicate satisfying rows multiply (SPARQL bag semantics), at any
    partitioning."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    rows = ROWS + [("a", "about", "E1")]  # duplicate edge
    for parts in (1, 4):
        ds = rd.from_arrow(_triples(rows)).repartition(parts)
        out = evaluate_bgp(
            ds, [("?d", "type", "Doc"), ("?d", "about", "?e")]).to_pandas()
        assert sorted(zip(out["d"], out["e"])) == [
            ("a", "E1"), ("a", "E1"), ("b", "E2")]


def test_bgp_store_matches_in_memory(ray_session, tmp_path):
    """Store-backed BGP (read-pruned per-pattern scans, point read on the
    routing key) returns the same bindings as the in-memory evaluation."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import write_triples_hash_partitioned
    from cattle_ray.stages.bgp import evaluate_bgp, evaluate_bgp_store

    full = _triples(ROWS)
    quads = full.append_column(
        "obj_is_iri", pa.array([False] * full.num_rows)).append_column(
        "obj_datatype", pa.array([None] * full.num_rows, pa.string())
    ).append_column("obj_lang", pa.array([None] * full.num_rows, pa.string()))
    store = str(tmp_path / "bgpstore")
    write_triples_hash_partitioned(rd.from_arrow(quads), store,
                                   num_partitions=4)
    patterns = [("a", "about", "?e"),      # subj-bound → point read
                ("?d", "about", "?e"),     # pred-bound scan
                ("?e", "in", "?r")]
    got = evaluate_bgp_store(store, patterns).to_pandas()
    want = evaluate_bgp(rd.from_arrow(_triples(ROWS)), patterns).to_pandas()
    key = sorted(got.columns)
    assert sorted(map(tuple, got[key].itertuples(index=False))) == \
        sorted(map(tuple, want[key].itertuples(index=False)))
    assert len(got) > 0


def test_optional_left_join_nulls(ray_session):
    """OPTIONAL attaches matched bindings and leaves NULL where the group
    has no solution — one-to-one with a SQL LEFT JOIN."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    out = evaluate_bgp(
        ds, [("?d", "about", "?e")],
        optional=[[("?e", "in", "?where")]]).to_pandas()
    got = {(d, e): w for d, e, w in zip(out["d"], out["e"], out["where"])}
    assert got[("a", "E1")] == "X"
    assert got[("b", "E2")] == "Y"
    # multi-pattern optional group + a row with no group solution
    rows = ROWS + [("d1", "type", "Doc")]  # d1 has no 'about' → NULL w
    ds2 = rd.from_arrow(_triples(rows)).repartition(3)
    out2 = evaluate_bgp(
        ds2, [("?d", "type", "?t")],
        optional=[[("?d", "about", "?e"), ("?e", "in", "?w")]]).to_pandas()
    by_d = dict(zip(out2["d"], out2["w"]))
    assert by_d["a"] == "X" and by_d["b"] == "Y" and by_d["c"] == "X"
    assert pd.isna(by_d["d1"])


def test_optional_filter_semantics(ray_session):
    """FILTER over an OPTIONAL variable drops NULL rows (SQL WHERE over
    the LEFT JOIN); 'bound' keeps/drops by matchedness; constant and
    var-var comparisons work."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    rows = ROWS + [("d1", "type", "Doc")]  # d1 has no 'about'
    ds = rd.from_arrow(_triples(rows)).repartition(2)
    base = dict(patterns=[("?d", "type", "?t")],
                optional=[[("?d", "about", "?e")]])
    # comparison on optional var: NULL rows drop
    out = evaluate_bgp(ds, base["patterns"], optional=base["optional"],
                       filters=[("?e", "=", "E1")]).to_pandas()
    assert set(out["d"]) == {"a", "c"}
    # bound=False keeps only the unmatched rows
    out2 = evaluate_bgp(ds, base["patterns"], optional=base["optional"],
                        filters=[("?e", "bound", False)]).to_pandas()
    assert set(out2["d"]) == {"d1"}
    # contains + var-var comparison
    out3 = evaluate_bgp(
        ds, [("?d", "about", "?e"), ("?e", "in", "?w")],
        filters=[("?e", "contains", "E"), ("?d", "!=", "?w")]).to_pandas()
    assert len(out3) == 3  # all (a,E1,X),(b,E2,Y),(c,E1,X) pass


def test_optional_disconnected_raises(ray_session):
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS))
    with pytest.raises(ValueError, match="OPTIONAL"):
        evaluate_bgp(ds, [("?d", "type", "Doc")],
                     optional=[[("?x", "in", "?y")]]).to_pandas()


def test_minus_drops_agreeing_rows(ray_session):
    """MINUS removes bindings whose shared vars agree with any group
    solution (NOT EXISTS); disjoint groups raise; composite shared keys."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    out = evaluate_bgp(
        ds, [("?d", "about", "?e")],
        minus=[[("?e", "in", "?w")]]).to_pandas()
    assert len(out) == 0  # every about-target has an 'in' triple

    out2 = evaluate_bgp(
        ds, [("?d", "about", "?e")],
        minus=[[("?e", "in", "X")]]).to_pandas()
    assert set(zip(out2["d"], out2["e"])) == {("b", "E2")}  # E1→X removed

    # composite shared key: minus on BOTH (?d, ?e)
    out3 = evaluate_bgp(
        ds, [("?d", "about", "?e"), ("?d", "type", "?t")],
        minus=[[("?d", "type", "Doc"), ("?d", "about", "?e")]]).to_pandas()
    assert set(out3["d"]) == {"c"}

    with pytest.raises(ValueError, match="MINUS"):
        evaluate_bgp(ds, [("?d", "type", "Doc")],
                     minus=[[("?x", "in", "?y")]]).to_pandas()


def test_construct_templates(ray_session):
    import ray.data as rd

    from cattle_ray.stages.bgp import construct_triples, evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(2)
    b = evaluate_bgp(ds, [("?d", "type", "?t")],
                     optional=[[("?d", "about", "?e")]])
    out = construct_triples(b, [
        ("?e", "mentionedIn", "?d"),
        ("?d", "a", "Thing"),
    ]).to_pandas()
    # every ?e-referencing template row requires a non-null ?e
    m = out[out["pred"] == "mentionedIn"]
    assert set(zip(m["subj"], m["obj"])) == {
        ("E1", "a"), ("E2", "b"), ("E1", "c")}
    # constant template emits for every binding row (a, b, c)
    ty = out[out["pred"] == "a"]
    assert sorted(ty["subj"]) == ["a", "b", "c"]
    assert set(ty["obj"]) == {"Thing"}


def test_reorder_connects_and_preserves_columns(ray_session):
    """The greedy selectivity planner picks a CONNECTED join order (an
    order the user wrote as disconnected evaluates fine), results match
    the hand-connected order, and output columns stay in user order."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp, order_patterns

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    pats = [("?e", "in", "X"), ("?d", "type", "Doc"), ("?d", "about", "?e")]
    out = evaluate_bgp(ds, pats).to_pandas()
    assert list(out.columns) == ["e", "d", "t"] or \
        list(out.columns) == ["e", "d"]  # t only if bound
    want = evaluate_bgp(
        ds, [("?e", "in", "X"), ("?d", "about", "?e"),
             ("?d", "type", "Doc")]).to_pandas()
    assert sorted(zip(out["e"], out["d"])) == sorted(zip(want["e"], want["d"]))
    assert sorted(zip(out["e"], out["d"])) == [("E1", "a")]

    # reorder=False keeps the old strict left-to-right contract
    with pytest.raises(ValueError, match="cartesian"):
        evaluate_bgp(ds, pats, reorder=False).to_pandas()

    # planner determinism: constants-first, ties by position
    plan = order_patterns(pats)
    assert plan[0] == ("?e", "in", "X")


def test_select_modifiers(ray_session):
    """Solution modifiers in SPARQL order: projection, DISTINCT, ORDER BY
    (asc/desc), LIMIT/OFFSET; ORDER BY + LIMIT takes the per-block top-k
    path; unbound SELECT vars raise."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    pats = [("?d", "about", "?e"), ("?e", "in", "?r")]
    full = evaluate_bgp(ds, pats).to_pandas()
    # all three docs bind: a/c → E1 → X, b → E2 → Y

    got = evaluate_bgp(ds, pats, select=["?r"], distinct=True).to_pandas()
    assert sorted(got["r"]) == sorted(set(full["r"])) == ["X", "Y"]

    got2 = evaluate_bgp(ds, pats, select=["?d", "?e"],
                        order_by=[("?d", "descending"), "?e"],
                        limit=2).to_pandas()
    want = full[["d", "e"]].sort_values(
        ["d", "e"], ascending=[False, True]).head(2)
    assert got2.values.tolist() == want.values.tolist()

    got3 = evaluate_bgp(ds, pats, select=["?d"], order_by=["?d"],
                        limit=2, offset=1).to_pandas()
    assert got3["d"].tolist() == sorted(full["d"])[1:3]

    # plain LIMIT without ORDER BY: row count only (any 2 solutions)
    assert len(evaluate_bgp(ds, pats, limit=2).to_pandas()) == 2

    with pytest.raises(ValueError, match="not bound"):
        evaluate_bgp(ds, pats, select=["?zzz"]).to_pandas()


def test_select_modifiers_store(ray_session, tmp_path):
    """The same modifiers over the partitioned-store evaluator."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import write_triples_hash_partitioned
    from cattle_ray.stages.bgp import evaluate_bgp_store

    t = _triples(ROWS)
    n = t.num_rows
    t = t.append_column("obj_is_iri", pa.array([False] * n)) \
         .append_column("obj_datatype", pa.array([None] * n, pa.string())) \
         .append_column("obj_lang", pa.array([None] * n, pa.string()))
    out = str(tmp_path / "store")
    write_triples_hash_partitioned(
        rd.from_arrow(t).repartition(2), out, num_partitions=4)
    got = evaluate_bgp_store(
        out, [("?d", "about", "?e"), ("?e", "in", "?r")],
        select=["?e", "?r"], distinct=True, order_by=["?e"]).to_pandas()
    assert got.values.tolist() == [["E1", "X"], ["E2", "Y"]]


def test_filter_pushdown_preserves_semantics(ray_session):
    """Pushable filters run map-side on the binding streams AND at their
    algebra position — results must match the unpushed semantics across
    joins, OPTIONAL-null interplay, and var-to-var comparisons."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    # filter var bound by one of two joined patterns
    got = evaluate_bgp(
        ds, [("?d", "type", "Doc"), ("?d", "about", "?e")],
        filters=[("?e", "=", "E1")]).to_pandas()
    assert set(zip(got["d"], got["e"])) == {("a", "E1")}
    # !BOUND over an OPTIONAL var must NOT be affected by pushdown
    # (the var is not bound by any required pattern)
    got2 = evaluate_bgp(
        ds, [("?d", "about", "?e")],
        optional=[[("?e", "in", "?r")]],
        filters=[("?r", "bound", False)]).to_pandas()
    assert len(got2) == 0  # every entity here has a region
    # var-to-var comparison inside ONE pattern pushes; across patterns
    # it stays at the top — both must agree with the naive evaluation
    got3 = evaluate_bgp(
        ds, [("?s", "self", "?o")], filters=[("?s", "=", "?o")]).to_pandas()
    assert list(zip(got3["s"], got3["o"])) == [("loop", "loop")]
    # disjunction with all vars in one pattern (pushable) and numeric
    # comparison (excluded from pushdown — cast discipline)
    got4 = evaluate_bgp(
        ds, [("?d", "about", "?e")],
        filters=[("or", [("?e", "=", "E1"), ("?d", "=", "b")])]).to_pandas()
    assert set(zip(got4["d"], got4["e"])) == {
        ("a", "E1"), ("c", "E1"), ("b", "E2")}


def test_filter_in_and_regex(ray_session):
    """FILTER ?var IN (...) (inline VALUES) and REGEX — vectorized,
    conjunctive with the comparator ops; nulls/REGEX-misses drop."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    pats = [("?d", "about", "?e")]
    got = evaluate_bgp(ds, pats,
                       filters=[("?e", "in", ["E1", "E9"])]).to_pandas()
    assert set(zip(got["d"], got["e"])) == {("a", "E1"), ("c", "E1")}

    got2 = evaluate_bgp(ds, pats,
                        filters=[("?d", "regex", "^[ab]$")]).to_pandas()
    assert set(got2["d"]) == {"a", "b"}

    # conjunctive: IN + regex
    got3 = evaluate_bgp(
        ds, pats, filters=[("?e", "in", ["E1", "E2"]),
                           ("?d", "regex", "^a")]).to_pandas()
    assert set(zip(got3["d"], got3["e"])) == {("a", "E1")}


def test_ask(ray_session):
    import ray.data as rd

    from cattle_ray.stages.bgp import ask_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    assert ask_bgp(ds, [("?d", "type", "Doc"), ("?d", "about", "E1")])
    assert not ask_bgp(ds, [("?d", "type", "Doc"), ("?d", "about", "E7")])


def test_property_path(ray_session, tmp_path):
    """pred+ transitive paths: bound-subject ancestors, path⋈plain joins,
    pred* rejection, and the store-backed path (pred-pushdown scan)."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp, evaluate_bgp_store

    rows = ROWS + [("X", "in", "TOP")]  # E1 in X in TOP; E2 in Y
    ds = rd.from_arrow(_triples(rows)).repartition(3)

    out = evaluate_bgp(ds, [("E1", "in+", "?a")]).to_pandas()
    assert set(out["a"]) == {"X", "TOP"}

    out2 = evaluate_bgp(
        ds, [("?e", "in+", "TOP"), ("?d", "about", "?e")]).to_pandas()
    assert set(zip(out2["e"], out2["d"])) == {("E1", "a"), ("E1", "c")}

    # bound-endpoint ZeroOrMorePath: identity row + the reachable set
    star = evaluate_bgp(ds, [("E1", "in*", "?a")]).to_pandas()
    assert set(star["a"]) == {"E1", "X", "TOP"}
    # bound OBJECT traverses in reverse; a seed with no edges still
    # yields its identity row
    rev = evaluate_bgp(ds, [("?e", "in*", "TOP")]).to_pandas()
    assert set(rev["e"]) == {"TOP", "X", "E1"}
    lone = evaluate_bgp(ds, [("NOWHERE", "in*", "?a")]).to_pandas()
    assert set(lone["a"]) == {"NOWHERE"}
    # star joins with plain patterns like any binding stream
    j = evaluate_bgp(ds, [("?e", "in*", "X"), ("?d", "about", "?e")]) \
        .to_pandas()
    assert set(zip(j["e"], j["d"])) == {("E1", "a"), ("E1", "c")}
    with pytest.raises(NotImplementedError, match="ZeroOrMorePath"):
        evaluate_bgp(ds, [("?x", "in*", "?y")]).to_pandas()

    # ZeroOrOnePath: identity ∪ ONE hop (no traversal at all)
    opt = evaluate_bgp(ds, [("E1", "in?", "?a")]).to_pandas()
    assert set(opt["a"]) == {"E1", "X"}
    ropt = evaluate_bgp(ds, [("?e", "in?", "TOP")]).to_pandas()
    assert set(ropt["e"]) == {"TOP", "X"}
    lopt = evaluate_bgp(ds, [("NOWHERE", "in?", "?a")]).to_pandas()
    assert set(lopt["a"]) == {"NOWHERE"}
    jopt = evaluate_bgp(
        ds, [("?e", "in?", "X"), ("?d", "about", "?e")]).to_pandas()
    assert set(zip(jopt["e"], jopt["d"])) == {("E1", "a"), ("E1", "c")}
    with pytest.raises(NotImplementedError, match="ZeroOrOnePath"):
        evaluate_bgp(ds, [("?x", "in?", "?y")]).to_pandas()

    from cattle_ray.sources.triple_sink import write_triples_hash_partitioned

    t = _triples(rows)
    n = t.num_rows
    t = t.append_column("obj_is_iri", pa.array([False] * n)) \
         .append_column("obj_datatype", pa.array([None] * n, pa.string())) \
         .append_column("obj_lang", pa.array([None] * n, pa.string()))
    store = str(tmp_path / "store")
    write_triples_hash_partitioned(
        rd.from_arrow(t).repartition(2), store, num_partitions=4)
    got = evaluate_bgp_store(store, [("?e", "in+", "TOP")]).to_pandas()
    assert set(got["e"]) == {"E1", "X"}
    # store-backed star: pred-pushdown scan feeds the BFS
    gstar = evaluate_bgp_store(store, [("E1", "in*", "?a")]).to_pandas()
    assert set(gstar["a"]) == {"E1", "X", "TOP"}
    # inverse star: ^in* from TOP walks the same chain downward
    ginv = evaluate_bgp_store(store, [("TOP", "^in*", "?a")]).to_pandas()
    assert set(ginv["a"]) == {"TOP", "X", "E1"}
    # store-backed ZeroOrOne: pred-pushdown scan, one hop only
    gopt = evaluate_bgp_store(store, [("E1", "in?", "?a")]).to_pandas()
    assert set(gopt["a"]) == {"E1", "X"}
    ginvo = evaluate_bgp_store(store, [("TOP", "^in?", "?a")]).to_pandas()
    assert set(ginvo["a"]) == {"TOP", "X"}


def test_inverse_and_alternative_paths(ray_session, tmp_path):
    """^p inverse paths (subject/object swap, composing with +) and
    p1|p2 alternatives (a list predicate term), on both evaluators."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp, evaluate_bgp_store

    rows = ROWS + [("X", "in", "TOP")]
    ds = rd.from_arrow(_triples(rows)).repartition(3)

    # inverse: ?d about E1  ≡  E1 ^about ?d
    out = evaluate_bgp(ds, [("E1", "^about", "?d")]).to_pandas()
    assert set(out["d"]) == {"a", "c"}

    # inverse transitive: descendants of TOP via ^in+
    out2 = evaluate_bgp(ds, [("TOP", "^in+", "?x")]).to_pandas()
    assert set(out2["x"]) == {"X", "E1"}

    # alternatives: type|about edges from subject a
    out3 = evaluate_bgp(ds, [("a", ["type", "about"], "?v")]).to_pandas()
    assert set(out3["v"]) == {"Doc", "E1"}

    from cattle_ray.sources.triple_sink import write_triples_hash_partitioned

    t = _triples(rows)
    n = t.num_rows
    t = t.append_column("obj_is_iri", pa.array([False] * n)) \
         .append_column("obj_datatype", pa.array([None] * n, pa.string())) \
         .append_column("obj_lang", pa.array([None] * n, pa.string()))
    store = str(tmp_path / "store")
    write_triples_hash_partitioned(
        rd.from_arrow(t).repartition(2), store, num_partitions=4)
    got = evaluate_bgp_store(store, [("TOP", "^in+", "?x")]).to_pandas()
    assert set(got["x"]) == {"X", "E1"}
    got2 = evaluate_bgp_store(
        store, [("a", ["type", "about"], "?v")]).to_pandas()
    assert set(got2["v"]) == {"Doc", "E1"}


def test_spill_dir_path(ray_session, tmp_path):
    """spill_dir=: the multi-scan input goes through Parquet instead of
    an object-store materialize; results identical."""
    import os

    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    pats = [("?d", "type", "Doc"), ("?d", "about", "?e")]
    spill = str(tmp_path / "spill")
    got = evaluate_bgp(ds, pats, spill_dir=spill).to_pandas()
    assert set(zip(got["d"], got["e"])) == {("a", "E1"), ("b", "E2")}
    assert os.listdir(spill)  # really went through the parquet spill


def test_quad_patterns_named_graph(ray_session, tmp_path):
    """4-term QUAD patterns (SPARQL GRAPH g { … }): constant graph scope,
    graph variables, graph-scoped paths; plus the store-backed plain
    inverse (^p) whose scan must push the NORMALIZED pred."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp, evaluate_bgp_store

    rows = [
        ("a", "type", "Doc", "g1"), ("b", "type", "Doc", "g2"),
        ("a", "about", "E1", "g1"), ("b", "about", "E2", "g2"),
        ("E1", "in", "X", "g1"), ("E2", "in", "X", "g2"),
        ("X", "in", "TOP", "g1"),
    ]
    s, p, o, g = zip(*rows)
    t = pa.table({"subj": list(s), "pred": list(p), "obj": list(o),
                  "graph": list(g)})
    ds = rd.from_arrow(t).repartition(3)

    # constant graph scope
    out = evaluate_bgp(ds, [("?d", "type", "Doc", "g1")]).to_pandas()
    assert set(out["d"]) == {"a"}
    # graph variable binds
    out2 = evaluate_bgp(ds, [("?d", "about", "?e", "?g")]).to_pandas()
    assert set(zip(out2["d"], out2["g"])) == {("a", "g1"), ("b", "g2")}
    # graph-scoped transitive path: only g1 edges close
    out3 = evaluate_bgp(ds, [("E1", "in+", "?x", "g1")]).to_pandas()
    assert set(out3["x"]) == {"X", "TOP"}
    out4 = evaluate_bgp(ds, [("E2", "in+", "?x", "g2")]).to_pandas()
    assert set(out4["x"]) == {"X"}  # X→TOP lives in g1, not g2
    # graph-VARIABLE transitive path (round 5): every graph's closure
    # in one path-doubling run, ?g bound per pair
    out5 = evaluate_bgp(ds, [("E1", "in+", "?x", "?g")]).to_pandas()
    assert set(zip(out5["g"], out5["x"])) == {
        ("g1", "X"), ("g1", "TOP")}

    # store-backed: graph filter pushes into the scan; plain ^p works
    from cattle_ray.sources.triple_sink import write_triples_hash_partitioned

    n = t.num_rows
    full = t.append_column("obj_is_iri", pa.array([False] * n)) \
            .append_column("obj_datatype", pa.array([None] * n, pa.string())) \
            .append_column("obj_lang", pa.array([None] * n, pa.string()))
    store = str(tmp_path / "store")
    write_triples_hash_partitioned(
        rd.from_arrow(full).repartition(2), store, num_partitions=4)
    got = evaluate_bgp_store(store, [("?d", "type", "Doc", "g2")]).to_pandas()
    assert set(got["d"]) == {"b"}
    got2 = evaluate_bgp_store(store, [("E1", "^about", "?d")]).to_pandas()
    assert set(got2["d"]) == {"a"}


def test_review_fixes_modifiers_and_spill(ray_session, tmp_path):
    """Round-3 review fixes: ORDER BY on a non-projected variable sorts
    BEFORE projecting (SPARQL algebra order); DISTINCT + outside-order
    raises; a non-empty spill_dir is refused."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    pats = [("?d", "about", "?e"), ("?e", "in", "?r")]
    full = evaluate_bgp(ds, pats).to_pandas()

    got = evaluate_bgp(ds, pats, select=["?d"],
                       order_by=[("?e", "descending"), "?d"],
                       limit=2).to_pandas()
    want = full.sort_values(["e", "d"],
                            ascending=[False, True]).head(2)["d"].tolist()
    assert got["d"].tolist() == want

    with pytest.raises(ValueError, match="DISTINCT"):
        evaluate_bgp(ds, pats, select=["?d"], distinct=True,
                     order_by=["?e"]).to_pandas()

    spill = str(tmp_path / "spill")
    os.makedirs(spill)
    with open(os.path.join(spill, "junk.parquet"), "w") as f:
        f.write("x")
    with pytest.raises(ValueError, match="not empty"):
        evaluate_bgp(ds, pats, spill_dir=spill).to_pandas()


def test_offset_requires_limit(ray_session):
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    with pytest.raises(ValueError, match="OFFSET without LIMIT"):
        evaluate_bgp(ds, [("?d", "about", "?e")], offset=1).to_pandas()


def test_group_by_aggregation(ray_session):
    """GROUP BY in the query layer: count-only, sum+count, modifier
    composition (ORDER BY n DESC LIMIT), unbound/unknown-agg errors."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    rows = [("d1", "score", "3"), ("d1", "score", "4"),
            ("d2", "score", "10"), ("d1", "type", "Doc"),
            ("d2", "type", "Doc"), ("d3", "type", "Page")]
    ds = rd.from_arrow(_triples(rows)).repartition(3)

    out = evaluate_bgp(ds, [("?d", "type", "?t")],
                       group_by=["?t"]).to_pandas()
    assert dict(zip(out["t"], out["n"])) == {"Doc": 2, "Page": 1}

    out2 = evaluate_bgp(
        ds, [("?d", "score", "?s")], group_by=["?d"],
        agg={"total": ("sum", "?s"), "k": "count"}).to_pandas()
    got = {d: (t, k) for d, t, k in zip(out2["d"], out2["total"], out2["k"])}
    assert got == {"d1": (7, 2), "d2": (10, 1)}

    out3 = evaluate_bgp(
        ds, [("?d", "type", "?t")], group_by=["?t"],
        order_by=[("?n", "descending")], limit=1).to_pandas()
    assert out3["t"].tolist() == ["Doc"] and out3["n"].tolist() == [2]

    with pytest.raises(ValueError, match="not bound"):
        evaluate_bgp(ds, [("?d", "type", "?t")],
                     group_by=["?zzz"]).to_pandas()
    with pytest.raises(ValueError, match="unsupported aggregate"):
        evaluate_bgp(ds, [("?d", "type", "?t")], group_by=["?t"],
                     agg={"m": ("median", "?t")}).to_pandas()


def test_having_and_avg(ray_session):
    """HAVING filters the aggregated table; AVG = exact int sum / count
    in one float division; having without group_by raises."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    rows = [("d1", "score", "3"), ("d1", "score", "4"),
            ("d2", "score", "10"), ("d3", "score", "2")]
    ds = rd.from_arrow(_triples(rows)).repartition(3)

    out = evaluate_bgp(
        ds, [("?d", "score", "?s")], group_by=["?d"],
        agg={"n": "count", "m": ("avg", "?s")},
        having=[("n", ">=", 2)]).to_pandas()
    assert out["d"].tolist() == ["d1"] and out["m"].tolist() == [3.5]

    # SQL AVG semantics over an OPTIONAL-bound variable: nulls are
    # excluded from the denominator; an all-null group averages to NULL
    rows2 = rows + [("d1", "tag", "x"), ("d2", "tag", "x"),
                    ("d4", "tag", "x")]
    ds2 = rd.from_arrow(_triples(rows2)).repartition(3)
    out2 = evaluate_bgp(
        ds2, [("?d", "tag", "x")], optional=[[("?d", "score", "?s")]],
        group_by=["?d"], agg={"n": "count", "m": ("avg", "?s")}).to_pandas()
    got = dict(zip(out2["d"], out2["m"]))
    assert got["d1"] == 3.5 and got["d2"] == 10.0
    assert pd.isna(got["d4"])  # no score triples at all

    # SQL SUM semantics over the same shape: an all-null group sums to
    # NULL, not 0 (same defect class as AVG; fixed together)
    out3 = evaluate_bgp(
        ds2, [("?d", "tag", "x")], optional=[[("?d", "score", "?s")]],
        group_by=["?d"],
        agg={"total": ("sum", "?s"), "n": "count"}).to_pandas()
    got3 = dict(zip(out3["d"], out3["total"]))
    assert got3["d1"] == 7 and got3["d2"] == 10
    assert pd.isna(got3["d4"])  # all-null group → NULL, not 0

    with pytest.raises(ValueError, match="requires group_by"):
        evaluate_bgp(ds, [("?d", "score", "?s")],
                     having=[("n", ">", 1)]).to_pandas()


def test_planner_uses_store_statistics(ray_session, tmp_path):
    """The write-time predicate census upgrades the planner: two patterns
    tie on constants-count, but the census puts the RARE predicate first
    even when the user wrote the common one first; stats drop after a
    mutation (never stale); store evaluation stays correct either way."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        delete_triples, store_stats, write_triples_hash_partitioned)
    from cattle_ray.stages.bgp import evaluate_bgp_store, order_patterns

    rows = [(f"s{i}", "common", f"v{i}") for i in range(200)]
    rows += [("s5", "rare", "hit"), ("s7", "rare", "hit")]
    s, p, o = zip(*rows)
    n = len(rows)
    t = pa.table({"subj": list(s), "pred": list(p), "obj": list(o),
                  "obj_is_iri": pa.array([False] * n),
                  "obj_datatype": pa.array([None] * n, pa.string()),
                  "obj_lang": pa.array([None] * n, pa.string())})
    store = str(tmp_path / "store")
    write_triples_hash_partitioned(rd.from_arrow(t).repartition(2), store,
                                   num_partitions=4)
    stats = store_stats(store)
    assert stats["pred_counts"] == {"common": 200, "rare": 2}
    assert stats["n_triples"] == 202

    # constants tie (1 each); census must start with the rare pattern
    pats = [("?s", "common", "?v"), ("?s", "rare", "?h")]
    plan = order_patterns(pats, stats=stats)
    assert plan[0] == ("?s", "rare", "?h")
    # without stats, position breaks the tie the user's way
    assert order_patterns(pats)[0] == ("?s", "common", "?v")

    got = evaluate_bgp_store(store, pats).to_pandas()
    assert set(got["s"]) == {"s5", "s7"} and len(got) == 2

    # mutation drops the stats — the planner falls back, never stale
    delete_triples(store, pred="rare")
    assert store_stats(store) is None


def test_union_branches(ray_session):
    """SPARQL UNION: branch solutions concatenate with NULL padding for
    branch-only variables; union-as-root and union-joined-onto-required
    both work; a disconnected union block raises."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)

    # union as the whole query: Doc-typed ∪ Page-typed
    out = evaluate_bgp(ds, [], union=[[("?d", "type", "Doc")],
                                      [("?d", "type", "Page")]]).to_pandas()
    assert sorted(out["d"]) == ["a", "b", "c"]

    # branch-specific variable is NULL in the other branch's rows
    out2 = evaluate_bgp(
        ds, [],
        union=[[("?d", "type", "Doc"), ("?d", "about", "?e")],
               [("?d", "type", "Page")]]).to_pandas()
    got = {(d, e if pd.notna(e) else None)
           for d, e in zip(out2["d"], out2["e"])}
    assert got == {("a", "E1"), ("b", "E2"), ("c", None)}
    assert list(out2.columns) == ["d", "e"]

    # union joined onto required bindings on the shared variable
    out3 = evaluate_bgp(
        ds, [("?d", "about", "?e")],
        union=[[("?d", "type", "Doc")], [("?d", "type", "Page")]]
    ).to_pandas()
    assert sorted(zip(out3["d"], out3["e"])) == [
        ("a", "E1"), ("b", "E2"), ("c", "E1")]

    with pytest.raises(ValueError, match="UNION block shares no"):
        evaluate_bgp(ds, [("?d", "type", "Doc")],
                     union=[[("?x", "in", "?y")]]).to_pandas()
    with pytest.raises(ValueError, match="empty BGP"):
        evaluate_bgp(ds, [])


def test_union_store_path(ray_session, tmp_path):
    """UNION over the store path uses the same pruned per-pattern scans
    and matches the in-memory result."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import write_triples_hash_partitioned
    from cattle_ray.stages.bgp import evaluate_bgp, evaluate_bgp_store

    store = str(tmp_path / "ustore")
    write_triples_hash_partitioned(rd.from_arrow(_triples(ROWS)), store,
                                   num_partitions=4)
    kw = dict(union=[[("?d", "type", "Doc")], [("?d", "type", "Page")]])
    got = evaluate_bgp_store(store, [("?d", "about", "?e")],
                             **kw).to_pandas()
    want = evaluate_bgp(rd.from_arrow(_triples(ROWS)),
                        [("?d", "about", "?e")], **kw).to_pandas()
    assert sorted(zip(got["d"], got["e"])) == \
        sorted(zip(want["d"], want["e"])) and len(got) == 3


def test_bind_expressions(ray_session):
    """BIND: vectorized computed columns — concat, numeric cast +
    arithmetic, strlen, string case, later binds referencing earlier
    ones; rebinding an in-scope variable raises; null propagates from
    an unbound OPTIONAL variable."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    rows = [("d1", "score", "3"), ("d2", "score", "10"),
            ("d1", "lang", "en")]
    ds = rd.from_arrow(_triples(rows)).repartition(2)

    out = evaluate_bgp(
        ds, [("?d", "score", "?s")],
        bind=[("?iri", ("concat", "https://ex.org/", "?d")),
              ("?s2", ("mul", ("int", "?s"), 2)),
              ("?s4", ("mul", "?s2", 2)),        # references ?s2
              ("?len", ("strlen", "?d")),
              ("?up", ("ucase", "?d"))],
        order_by=["?d"]).to_pandas()
    assert out["iri"].tolist() == ["https://ex.org/d1", "https://ex.org/d2"]
    assert out["s2"].tolist() == [6, 20]
    assert out["s4"].tolist() == [12, 40]
    assert out["len"].tolist() == [2, 2]
    assert out["up"].tolist() == ["D1", "D2"]

    # filters see bound columns; select projects them
    out2 = evaluate_bgp(
        ds, [("?d", "score", "?s")],
        bind=[("?s2", ("mul", ("int", "?s"), 2))],
        filters=[("?s2", ">", 10)], select=["?d", "?s2"]).to_pandas()
    assert out2.values.tolist() == [["d2", 20]]

    # null propagation: ?l is unbound for d2 → concat result null
    out3 = evaluate_bgp(
        ds, [("?d", "score", "?s")], optional=[[("?d", "lang", "?l")]],
        bind=[("?tag", ("concat", "?d", "@", "?l"))],
        order_by=["?d"]).to_pandas()
    assert out3["tag"].tolist()[0] == "d1@en"
    assert pd.isna(out3["tag"].tolist()[1])

    with pytest.raises(ValueError, match="already in scope"):
        evaluate_bgp(ds, [("?d", "score", "?s")],
                     bind=[("?s", ("int", "?s"))]).to_pandas()
    with pytest.raises(ValueError, match="unknown BIND operator"):
        evaluate_bgp(ds, [("?d", "score", "?s")],
                     bind=[("?x", ("nope", "?s"))]).to_pandas()


def test_group_minmax_concat(ray_session):
    """MIN/MAX/GROUP_CONCAT aggregates: string min/max, numeric-ish
    lexicographic semantics left to the caller, sorted deterministic
    concat, all-null OPTIONAL group → NULL min/max and empty concat."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    rows = [("d1", "tag", "x"), ("d2", "tag", "x"), ("d4", "tag", "x"),
            ("d1", "label", "b"), ("d1", "label", "a"),
            ("d2", "label", "z")]
    ds = rd.from_arrow(_triples(rows)).repartition(3)

    out = evaluate_bgp(
        ds, [("?d", "tag", "x")], optional=[[("?d", "label", "?l")]],
        group_by=["?d"],
        agg={"lo": ("min", "?l"), "hi": ("max", "?l"),
             "all": ("group_concat", "?l", ","), "k": "count"}).to_pandas()
    got = {d: (lo if pd.notna(lo) else None, hi if pd.notna(hi) else None,
               al, k)
           for d, lo, hi, al, k in zip(out["d"], out["lo"], out["hi"],
                                       out["all"], out["k"])}
    assert got == {"d1": ("a", "b", "a,b", 2),
                   "d2": ("z", "z", "z", 1),
                   "d4": (None, None, "", 1)}

    # mixed with sum/avg in ONE aggregation pass
    rows2 = [("d1", "score", "3"), ("d1", "score", "4"),
             ("d2", "score", "10")]
    ds2 = rd.from_arrow(_triples(rows2)).repartition(2)
    out2 = evaluate_bgp(
        ds2, [("?d", "score", "?s")], group_by=["?d"],
        agg={"total": ("sum", "?s"), "m": ("avg", "?s"),
             "lo": ("min", "?s"), "hi": ("max", "?s")}).to_pandas()
    got2 = {d: (t, m, lo, hi) for d, t, m, lo, hi in zip(
        out2["d"], out2["total"], out2["m"], out2["lo"], out2["hi"])}
    # min/max ran AFTER the int64 cast (numeric, not lexicographic)
    assert got2 == {"d1": (7, 3.5, 3, 4), "d2": (10, 10.0, 10, 10)}


def test_eq_filter_constant_propagates_into_scan(ray_session, tmp_path):
    """FILTER(?v = "const") makes ?v a scan constant for required
    patterns: a routing-key equality collapses to the 1-partition point
    read (proven by deleting every OTHER partition's data file), and an
    obj equality routes to a fresh secondary index. Results match the
    unpushed in-memory evaluation."""
    import glob
    import os

    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        build_secondary_index, subj_partition_id,
        write_triples_hash_partitioned)
    from cattle_ray.stages.bgp import evaluate_bgp, evaluate_bgp_store

    store = str(tmp_path / "primary")
    write_triples_hash_partitioned(rd.from_arrow(_triples(ROWS)), store,
                                   num_partitions=4)
    pats = [("?s", "?p", "?o")]
    filt = [("?s", "=", "a")]
    want = evaluate_bgp(rd.from_arrow(_triples(ROWS)), pats,
                        filters=filt).to_pandas()
    got = evaluate_bgp_store(store, pats, filters=filt).to_pandas()
    assert sorted(got["p"]) == sorted(want["p"]) == ["about", "type"]

    # point-read proof: only subj="a"'s partition needs to exist
    keep = subj_partition_id("a", 4)
    for f in glob.glob(f"{store}/part_id=*/data.parquet"):
        if f"part_id={keep}/" not in f:
            os.remove(f)
    got2 = evaluate_bgp_store(store, pats, filters=filt).to_pandas()
    assert sorted(got2["p"]) == ["about", "type"]

    # obj-equality routes through a fresh secondary index
    store2 = str(tmp_path / "primary2")
    idx2 = str(tmp_path / "objidx2")
    write_triples_hash_partitioned(rd.from_arrow(_triples(ROWS)), store2,
                                   num_partitions=4)
    build_secondary_index(store2, idx2, key="obj")
    for f in glob.glob(f"{store2}/part_id=*/data.parquet"):
        os.remove(f)
    got3 = evaluate_bgp_store(store2, [("?d", "about", "?e")],
                              filters=[("?e", "=", "E1")],
                              obj_index_dir=idx2).to_pandas()
    assert sorted(got3["d"]) == ["a", "c"]


def test_obj_index_routing(ray_session, tmp_path):
    """A fresh obj-routed secondary index serves obj-bound patterns as a
    1/P point read — the primary's data files are NOT opened (proven by
    deleting them); a STALE index silently falls back to the primary."""
    import glob
    import os

    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        build_secondary_index, merge_triples_hash_partitioned,
        write_triples_hash_partitioned)
    from cattle_ray.stages.bgp import evaluate_bgp, evaluate_bgp_store

    store = str(tmp_path / "primary")
    idx = str(tmp_path / "objidx")
    write_triples_hash_partitioned(rd.from_arrow(_triples(ROWS)), store,
                                   num_partitions=4)
    build_secondary_index(store, idx, key="obj")

    pats = [("?d", "about", "E1")]
    want = evaluate_bgp(rd.from_arrow(_triples(ROWS)), pats).to_pandas()
    got = evaluate_bgp_store(store, pats, obj_index_dir=idx).to_pandas()
    assert sorted(got["d"]) == sorted(want["d"]) == ["a", "c"]

    # prove the primary is never opened: remove its data files (keep the
    # meta — freshness checks read meta + gen dirs, not data)
    for f in glob.glob(f"{store}/part_id=*/data.parquet"):
        os.remove(f)
    got2 = evaluate_bgp_store(store, pats, obj_index_dir=idx).to_pandas()
    assert sorted(got2["d"]) == ["a", "c"]

    # stale index falls back to the primary (fresh store here)
    store2 = str(tmp_path / "primary2")
    idx2 = str(tmp_path / "objidx2")
    write_triples_hash_partitioned(rd.from_arrow(_triples(ROWS)), store2,
                                   num_partitions=4)
    build_secondary_index(store2, idx2, key="obj")
    extra = pa.table({"subj": ["zz"], "pred": ["about"], "obj": ["E1"]})
    merge_triples_hash_partitioned(rd.from_arrow(extra), store2,
                                   num_partitions=4,
                                   track_generations=True)
    got3 = evaluate_bgp_store(store2, pats, obj_index_dir=idx2).to_pandas()
    assert sorted(got3["d"]) == ["a", "c", "zz"]  # primary sees the merge


def test_empty_pattern_stream_folds(ray_session, tmp_path):
    """A pattern whose constants match NOTHING folds through the joins as
    an empty relation (schema anchored by a 0-row seed block) — it must
    yield an empty result, not crash hash_join with a None schema; the
    same holds on the store path, in OPTIONAL and in UNION branches."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import write_triples_hash_partitioned
    from cattle_ray.stages.bgp import evaluate_bgp, evaluate_bgp_store

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    out = evaluate_bgp(ds, [("?d", "type", "Nope"),
                            ("?d", "about", "?e")]).to_pandas()
    assert len(out) == 0  # empty result, not a None-schema crash

    # OPTIONAL group that matches nothing → all rows survive with NULL
    out2 = evaluate_bgp(ds, [("?d", "type", "Doc")],
                        optional=[[("?d", "nope", "?x")]]).to_pandas()
    assert sorted(out2["d"]) == ["a", "b"] and out2["x"].isna().all()

    # UNION with one empty branch → the other branch's rows
    out3 = evaluate_bgp(ds, [], union=[[("?d", "type", "Doc")],
                                       [("?d", "type", "Nope")]]).to_pandas()
    assert sorted(out3["d"]) == ["a", "b"]

    # MINUS group that matches nothing → removes nothing
    out3b = evaluate_bgp(ds, [("?d", "type", "Doc")],
                         minus=[[("?d", "nope", "?x")]]).to_pandas()
    assert sorted(out3b["d"]) == ["a", "b"]

    store = str(tmp_path / "estore")
    write_triples_hash_partitioned(rd.from_arrow(_triples(ROWS)), store,
                                   num_partitions=4)
    out4 = evaluate_bgp_store(store, [("a", "about", "?e"),
                                      ("?e", "nope", "?r")]).to_pandas()
    assert len(out4) == 0


def test_exists_values_count_distinct(ray_session, tmp_path):
    """Round-4 additions: FILTER EXISTS (distinct-witness semi-join),
    VALUES (literal solution table join), COUNT(DISTINCT ?v)."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import write_triples_hash_partitioned
    from cattle_ray.stages.bgp import evaluate_bgp, evaluate_bgp_store

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)

    # EXISTS keeps only docs whose entity is in X — and the witness
    # having multiple solutions must NOT duplicate required rows
    out = evaluate_bgp(ds, [("?d", "about", "?e")],
                       exists=[[("?e", "in", "X")]]).to_pandas()
    assert sorted(zip(out["d"], out["e"])) == [("a", "E1"), ("c", "E1")]

    # EXISTS group matching nothing → empty (not a crash)
    out = evaluate_bgp(ds, [("?d", "about", "?e")],
                       exists=[[("?e", "nope", "?x")]]).to_pandas()
    assert len(out) == 0

    # EXISTS with no shared variable is rejected
    with pytest.raises(ValueError, match="shares no variable"):
        evaluate_bgp(ds, [("?d", "type", "Doc")],
                     exists=[[("?z", "in", "?w")]]).to_pandas()

    # VALUES pins ?e and appends ?tier; bag semantics (1 row per match)
    out = evaluate_bgp(ds, [("?d", "about", "?e")],
                       values=(["?e", "?tier"],
                               [("E1", "gold"), ("E9", "x")])).to_pandas()
    assert sorted(zip(out["d"], out["e"], out["tier"])) == [
        ("a", "E1", "gold"), ("c", "E1", "gold")]

    # UNDEF cell = row compatibility: ("E1", UNDEF) matches any tier,
    # which stays NULL; rows defining no shared var are rejected
    out_u = evaluate_bgp(ds, [("?d", "about", "?e")],
                         values=(["?e", "?t"],
                                 [("E1", None)])).to_pandas()
    assert sorted(out_u["d"]) == ["a", "c"]
    assert out_u["t"].isna().all()
    with pytest.raises(ValueError, match="no variable shared"):
        evaluate_bgp(ds, [("?d", "about", "?e")],
                     values=(["?z"], [("E1",)])).to_pandas()
    with pytest.raises(ValueError, match="no variable shared"):
        evaluate_bgp(ds, [("?d", "about", "?e")],
                     values=(["?e"], [(None,)])).to_pandas()

    # COUNT(DISTINCT): entity E1 is about-ed by a and c (2 distinct
    # docs); with an OPTIONAL var that's all-null the distinct counts 0
    out = evaluate_bgp(ds, [("?d", "about", "?e")],
                       optional=[[("?d", "nope", "?x")]],
                       group_by=["?e"],
                       agg={"n": "count",
                            "nd": ("count_distinct", "?d"),
                            "nx": ("count_distinct", "?x")}).to_pandas()
    got = {r["e"]: (r["n"], r["nd"], r["nx"])
           for _, r in out.iterrows()}
    assert got == {"E1": (2, 2, 0), "E2": (1, 1, 0)}

    # count_distinct-only aggregate (no other agg): keys still emerge
    out = evaluate_bgp(ds, [("?d", "about", "?e")], group_by=["?e"],
                       agg={"nd": ("count_distinct", "?d")}).to_pandas()
    assert sorted(zip(out["e"], out["nd"])) == [("E1", 2), ("E2", 1)]

    # the store evaluator threads all three through the same body
    store = str(tmp_path / "xstore")
    write_triples_hash_partitioned(rd.from_arrow(_triples(ROWS)), store,
                                   num_partitions=4)
    out = evaluate_bgp_store(store, [("?d", "about", "?e")],
                             exists=[[("?e", "in", "X")]],
                             values=(["?e", "?tier"], [("E1", "gold")]),
                             group_by=["?tier"],
                             agg={"nd": ("count_distinct", "?d")}
                             ).to_pandas()
    assert sorted(zip(out["tier"], out["nd"])) == [("gold", 2)]


def test_nested_boolean_filter_trees(ray_session):
    """("and"/"or" trees nest; outcomes match the flat equivalents."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples(ROWS)).repartition(3)
    # (type=Doc AND about=E1) OR type=Page → a, c
    got = evaluate_bgp(
        ds, [("?d", "type", "?t"), ("?d", "about", "?e")],
        filters=[("or", [
            ("and", [("?t", "=", "Doc"), ("?e", "=", "E1")]),
            ("?t", "=", "Page")])]).to_pandas()
    assert sorted(got["d"]) == ["a", "c"]


def test_federated_store_query(ray_session, tmp_path):
    """A LIST of stores: per-pattern pruned scans union before the
    joins; bag semantics over the union; merged planner stats; the
    sparql() text layer and CLI comma form route here too."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import write_triples_hash_partitioned
    from cattle_ray.stages.bgp import evaluate_bgp_store
    from cattle_ray.stages.sparql import sparql

    def mk(rows, d):
        s, p, o = zip(*rows)
        write_triples_hash_partitioned(
            rd.from_arrow(pa.table({"subj": list(s), "pred": list(p),
                                    "obj": list(o)})),
            str(d), num_partitions=4)

    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    mk([("a", "type", "Doc"), ("a", "about", "E1")], d1)
    mk([("b", "type", "Doc"), ("b", "about", "E2"),
        ("a", "about", "E1")], d2)
    out = evaluate_bgp_store(
        [str(d1), str(d2)],
        [("?d", "type", "Doc"), ("?d", "about", "?e")]).to_pandas()
    # duplicate (a about E1) across stores → bag duplicate
    assert sorted(zip(out["d"], out["e"])) == [
        ("a", "E1"), ("a", "E1"), ("b", "E2")]
    # the text layer takes the list directly
    txt = sparql([str(d1), str(d2)],
                 "SELECT DISTINCT ?d WHERE { ?d <about> ?e . }") \
        .to_pandas()
    assert sorted(txt["d"]) == ["a", "b"]
    # a single index dir can't say which store it serves — federation
    # takes a PER-store list (and it must align)
    import pytest as _pytest

    with _pytest.raises(ValueError, match="PER store"):
        evaluate_bgp_store([str(d1), str(d2)], [("?d", "type", "?t")],
                           obj_index_dir=str(d1))
    with _pytest.raises(ValueError, match="align"):
        evaluate_bgp_store([str(d1), str(d2)], [("?d", "type", "?t")],
                           obj_index_dir=[str(d1)])


def test_obj_index_routing_federated(ray_session, tmp_path):
    """Per-store obj indexes in a FEDERATED query: each store's
    obj-bound scan routes to ITS index's 1/P point read (proven by
    deleting both primaries' data files); None entries scan their
    primary; DESCRIBE rides the same path."""
    import glob
    import os

    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        build_secondary_index, write_triples_hash_partitioned)
    from cattle_ray.stages.bgp import evaluate_bgp_store
    from cattle_ray.stages.sparql import sparql

    stores, idxs = [], []
    for i, rows in enumerate(([("a", "about", "E1"),
                               ("c", "about", "E1")],
                              [("z", "about", "E1"),
                               ("z", "about", "E2")])):
        s = str(tmp_path / f"fed{i}")
        ix = str(tmp_path / f"fedidx{i}")
        write_triples_hash_partitioned(rd.from_arrow(_triples(rows)), s,
                                       num_partitions=4)
        build_secondary_index(s, ix, key="obj")
        stores.append(s)
        idxs.append(ix)
    pats = [("?d", "about", "E1")]
    got = evaluate_bgp_store(stores, pats,
                             obj_index_dir=idxs).to_pandas()
    assert sorted(got["d"]) == ["a", "c", "z"]
    # federated DESCRIBE through the text layer, same per-store routing
    # (its outgoing-arcs pattern still scans the primaries, so run it
    # before the deletion proof below)
    desc = sparql(stores, "DESCRIBE ?d WHERE { ?d <about> <E2> . }",
                  obj_index_dir=idxs).to_pandas()
    assert sorted(zip(desc["subj"], desc["obj"])) == [
        ("z", "E1"), ("z", "E2")]
    # both primaries' data files removed: only the indexes can answer
    for s in stores:
        for f in glob.glob(f"{s}/part_id=*/data.parquet"):
            os.remove(f)
    got2 = evaluate_bgp_store(stores, pats,
                              obj_index_dir=idxs).to_pandas()
    assert sorted(got2["d"]) == ["a", "c", "z"]
    # a None entry scans its primary: fresh index-less store 0 beside
    # the gutted-but-indexed store 1
    s0 = str(tmp_path / "fed_plain")
    write_triples_hash_partitioned(
        rd.from_arrow(_triples([("a", "about", "E1")])), s0,
        num_partitions=2)
    got3 = evaluate_bgp_store([s0, stores[1]], pats,
                              obj_index_dir=[None, idxs[1]]).to_pandas()
    assert sorted(got3["d"]) == ["a", "z"]


def test_star_unbound_seeded_by_sibling_pattern(ray_session):
    """Both-endpoints-variable pred* lowers to a seeded closure when a
    sibling pattern range-restricts an endpoint (subject OR object
    side); identity rows included. The forced-distributed run is in
    test_path_forms_local_vs_distributed."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    rows = [("c1", "broader", "c2"), ("c2", "broader", "c3"),
            ("c3", "broader", "c4"), ("x1", "broader", "x2"),
            ("c1", "type", "Concept"), ("c3", "type", "Concept"),
            ("c5", "type", "Concept")]
    ds = rd.from_arrow(_triples(rows)).repartition(3)
    exp = sorted([("c1", x) for x in ("c1", "c2", "c3", "c4")]
                 + [("c3", "c3"), ("c3", "c4"), ("c5", "c5")])
    out = evaluate_bgp(
        ds, [("?c", "type", "Concept"), ("?c", "broader*", "?r")],
    ).to_pandas()
    assert sorted(zip(out["c"], out["r"])) == exp
    # object-side restriction seeds a REVERSE traversal
    out2 = evaluate_bgp(
        ds, [("?r", "type", "Concept"), ("?x", "broader*", "?r")],
    ).to_pandas()
    assert sorted(zip(out2["r"], out2["x"])) == sorted(
        [("c1", "c1"), ("c3", "c3"), ("c3", "c2"), ("c3", "c1"),
         ("c5", "c5")])


def test_star_unbound_tautology_and_rejection(ray_session):
    """?x p* ?x over a restricted domain is the zero-length tautology
    (joins nothing away); a fully unrestricted both-unbound star still
    raises with the node-domain rationale."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    rows = [("c1", "broader", "c2"),
            ("c1", "type", "Concept"), ("c2", "type", "Concept")]
    ds = rd.from_arrow(_triples(rows))
    out = evaluate_bgp(
        ds, [("?c", "type", "Concept"), ("?c", "broader*", "?c")],
    ).to_pandas()
    assert sorted(out["c"]) == ["c1", "c2"]
    with pytest.raises(NotImplementedError, match="node domain"):
        evaluate_bgp(ds, [("?a", "broader*", "?b")]).count()


def test_star_unbound_over_store(ray_session, tmp_path):
    """The seeded-star lowering rides the store's pruned scans too (the
    edge stream is the base predicate's PLAIN pattern, so the scan keeps
    its pred pushdown)."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned
    from cattle_ray.stages.bgp import evaluate_bgp_store

    rows = [("c1", "broader", "c2"), ("c2", "broader", "c3"),
            ("c1", "type", "Concept"), ("c3", "type", "Concept")]
    t = _triples(rows)
    n = t.num_rows
    t = t.append_column("obj_is_iri", pa.array([True] * n)) \
         .append_column("obj_datatype", pa.array([None] * n, pa.string())) \
         .append_column("obj_lang", pa.array([None] * n, pa.string()))
    d = tmp_path / "store"
    write_triples_hash_partitioned(rd.from_arrow(t), str(d),
                                   num_partitions=2)
    out = evaluate_bgp_store(
        str(d), [("?c", "type", "Concept"), ("?c", "broader*", "?r")],
    ).to_pandas()
    assert sorted(zip(out["c"], out["r"])) == sorted(
        [("c1", "c1"), ("c1", "c2"), ("c1", "c3"), ("c3", "c3")])


def test_path_quantifier_bounds(ray_session):
    """p{n,m}: pairs connected by n..m hops, SET semantics per pair;
    constant subject pushes into level 1; {0,1} adds the identity row;
    inverse composes. The forced-distributed run is in
    test_path_forms_local_vs_distributed."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    rows = [("c1", "b", "c2"), ("c2", "b", "c3"), ("c3", "b", "c4"),
            ("c4", "b", "c5"), ("c2", "b", "c6"), ("c6", "b", "c4")]
    ds = rd.from_arrow(_triples(rows)).repartition(2)
    out = evaluate_bgp(ds, [("c1", "b{2,3}", "?x")]).to_pandas()
    assert sorted(out["x"]) == ["c3", "c4", "c6"]
    out2 = evaluate_bgp(ds, [("?a", "b{2,2}", "?x")]).to_pandas()
    assert sorted(zip(out2["a"], out2["x"])) == [
        ("c1", "c3"), ("c1", "c6"), ("c2", "c4"), ("c3", "c5"),
        ("c6", "c5")]
    out3 = evaluate_bgp(ds, [("c1", "b{0,1}", "?x")]).to_pandas()
    assert sorted(out3["x"]) == ["c1", "c2"]
    # inverse: ?x ^b{2,2} c4 ≡ c4 b{2,2} ?x — c4 has no 2-hop out-path
    assert evaluate_bgp(ds, [("?x", "^b{2,2}", "c4")]).count() == 0


def test_path_forms_local_vs_distributed(ray_session, ray_data_log):
    """Every path form lowers onto the one closure kernel, and its
    in-process and forced-distributed (SMALL_CLOSURE_EDGES=0) runs give
    the same answers: p+, p*, p?, {0,2}, {2,3}, (p|^q)+, (p/q)*, and a
    seeded both-unbound ?x p* ?y / ?x p? ?y. Two semantics pins ride
    along: ?x p+ ?x on a cycle keeps the self-pair, and {2,3} returns a
    pair reachable only at lengths 1 and 3 (levels are exact-length,
    not visited-pruned). The forced-distributed leg logs no Ray Data
    "different schema" warning: no 0-row block reaches a map."""
    import ray.data as rd

    import cattle_ray.stages.graph as graph
    from cattle_ray.stages.bgp import evaluate_bgp

    rows = [("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a"),
            ("x1", "p", "x2"), ("x2", "p", "x3"), ("x3", "p", "x4"),
            ("x1", "p", "x4"), ("e", "q", "a"), ("b", "q", "f"),
            ("a", "type", "T"), ("x1", "type", "T"), ("z", "type", "T")]
    ds = rd.from_arrow(_triples(rows)).repartition(2).materialize()
    cases = [
        ([("?x", "p+", "?x")], {("a",), ("b",), ("c",)}),
        ([("a", "p*", "?y")], {("a",), ("b",), ("c",)}),
        ([("?y", "p?", "x4")], {("x4",), ("x3",), ("x1",)}),
        ([("x1", "p{0,2}", "?y")], {("x1",), ("x2",), ("x3",), ("x4",)}),
        ([("?x", "p{2,3}", "?y")],
         {("a", "c"), ("b", "a"), ("c", "b"), ("a", "a"), ("b", "b"),
          ("c", "c"), ("x1", "x3"), ("x2", "x4"), ("x1", "x4")}),
        ([("a", ("palt", ["p", "^q"], "+"), "?y")],
         {("a",), ("b",), ("c",), ("e",)}),
        ([("?x", ("pseq", ["p", "q"], "*"), "f")], {("f",), ("a",)}),
        ([("?x", "type", "T"), ("?x", "p*", "?y")],
         {("a", "a"), ("a", "b"), ("a", "c"), ("x1", "x1"), ("x1", "x2"),
          ("x1", "x3"), ("x1", "x4"), ("z", "z")}),
        ([("?x", "type", "T"), ("?x", "p?", "?y")],
         {("a", "a"), ("a", "b"), ("x1", "x1"), ("x1", "x2"),
          ("x1", "x4"), ("z", "z")}),
    ]
    old = graph.SMALL_CLOSURE_EDGES
    try:
        for forced in (None, 0):
            if forced is not None:
                graph.SMALL_CLOSURE_EDGES = forced
            ray_data_log.schema_warnings = 0
            for pats, exp in cases:
                got = evaluate_bgp(ds, pats).to_pandas()
                cols = [c for c in ("x", "y") if c in got.columns]
                rows_got = [tuple(r) for r in got[cols].values.tolist()]
                assert len(rows_got) == len(exp), (forced, pats, rows_got)
                assert set(rows_got) == exp, (forced, pats, rows_got)
        assert ray_data_log.schema_warnings == 0
    finally:
        graph.SMALL_CLOSURE_EDGES = old


def test_seeded_plus_past_hop_bound(ray_session):
    """A constant-endpoint p+ (plain or grouped) and an unseeded
    ?x p+ ?y over a chain deeper than STAR_MAX_HOPS return the full
    reach — in process the level loop runs until its frontier empties,
    distributed the frontier gives way to the path-doubling closure —
    on both sides; p* still raises there."""
    import ray.data as rd

    import cattle_ray.stages.graph as graph
    from cattle_ray.stages.bgp import evaluate_bgp

    chain = [f"n{i}" for i in range(7)]
    ds = rd.from_arrow(_triples(
        [(a, "next", b) for a, b in zip(chain, chain[1:])]))
    cases = [
        (("n0", "next+", "?y"), set(chain[1:])),
        (("?y", "next+", "n6"), set(chain[:-1])),
        (("n0", ("pseq", ["next"], "+"), "?y"), set(chain[1:])),
    ]
    old = graph.SMALL_CLOSURE_EDGES, graph.STAR_MAX_HOPS
    try:
        graph.STAR_MAX_HOPS = 2
        for forced in (None, 0):
            if forced is not None:
                graph.SMALL_CLOSURE_EDGES = forced
            for pat, exp in cases:
                got = evaluate_bgp(ds, [pat]).to_pandas()["y"].tolist()
                assert sorted(got) == sorted(exp), (forced, pat, got)
            got = evaluate_bgp(ds, [("?x", "next+", "?y")]).to_pandas()
            assert sorted(zip(got["x"], got["y"])) == sorted(
                (a, b) for i, a in enumerate(chain) for b in chain[i + 1:]
            ), (forced, got)
            with pytest.raises(ValueError, match="hop bound"):
                evaluate_bgp(ds, [("n0", "next*", "?y")]).count()
    finally:
        graph.SMALL_CLOSURE_EDGES, graph.STAR_MAX_HOPS = old


def test_star_unbound_graph_variable_raises(ray_session):
    """A deferred both-unbound p* under a graph VARIABLE raises with the
    node-domain rationale instead of seeding one closure across graphs
    (which merged the graphs' reach)."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    rows = [("c1", "type", "Concept", "g1"), ("c1", "broader", "c2", "g1"),
            ("c2", "broader", "c3", "g2")]
    ds = rd.from_arrow(pa.table({
        "subj": [r[0] for r in rows], "pred": [r[1] for r in rows],
        "obj": [r[2] for r in rows], "graph": [r[3] for r in rows]}))
    with pytest.raises(NotImplementedError, match="node domain"):
        evaluate_bgp(ds, [("?c", "type", "Concept"),
                          ("?c", "broader*", "?r", "?g")]).count()


def test_path_quantifier_gates(ray_session):
    """{0,m} both-unbound raises the node-domain rationale; bad bounds
    raise; the textual layer parses p{n,m} and rejects {n,}."""
    import ray.data as rd
    from cattle_ray.stages.bgp import evaluate_bgp
    from cattle_ray.stages.sparql import SparqlSyntaxError, sparql

    ds = rd.from_arrow(_triples([("c1", "b", "c2")]))
    with pytest.raises(NotImplementedError, match="node domain"):
        evaluate_bgp(ds, [("?a", "b{0,2}", "?x")]).count()
    with pytest.raises(ValueError, match="max < min"):
        evaluate_bgp(ds, [("c1", "b{3,2}", "?x")]).count()
    out = sparql(ds, "SELECT ?x WHERE { <c1> <b>{1,2} ?x . }").to_pandas()
    assert sorted(out["x"]) == ["c2"]
    with pytest.raises(SparqlSyntaxError, match="unbounded"):
        sparql(ds, "SELECT ?x WHERE { <c1> <b>{1,} ?x . }")
    with pytest.raises(SparqlSyntaxError, match="plain IRIs"):
        sparql(ds, "SELECT ?x WHERE { <c1> <b>{1,2}|<c> ?x . }")


def test_graph_variable_path_closure(ray_session):
    """GRAPH-variable paths close every graph in ONE run — the graph
    embeds into the edge key, so same-graph pairs join and cross-graph
    pairs can't; ?g binds in the output; endpoint constants still
    filter; the textual layer parses it; p{n,m} and grouped paths key
    their edges the same way."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp
    from cattle_ray.stages.sparql import sparql

    rows = [("a", "p", "b", "g1"), ("b", "p", "c", "g1"),
            ("a", "p", "c", "g2"), ("c", "p", "d", "g2")]
    t = pa.table({"subj": [r[0] for r in rows],
                  "pred": [r[1] for r in rows],
                  "obj": [r[2] for r in rows],
                  "graph": [r[3] for r in rows]})
    ds = rd.from_arrow(t).repartition(2)
    out = evaluate_bgp(ds, [("?x", "p+", "?y", "?g")]).to_pandas()
    assert sorted(zip(out["g"], out["x"], out["y"])) == sorted(
        [("g1", "a", "b"), ("g1", "b", "c"), ("g1", "a", "c"),
         ("g2", "a", "c"), ("g2", "c", "d"), ("g2", "a", "d")])
    out2 = evaluate_bgp(ds, [("a", "p+", "?y", "?g")]).to_pandas()
    assert sorted(zip(out2["g"], out2["y"])) == sorted(
        [("g1", "b"), ("g1", "c"), ("g2", "c"), ("g2", "d")])
    txt = sparql(ds, """SELECT ?g ?y WHERE {
        GRAPH ?g { <a> <p>+ ?y . } }""").to_pandas()
    assert sorted(zip(txt["g"], txt["y"])) == sorted(
        [("g1", "b"), ("g1", "c"), ("g2", "c"), ("g2", "d")])
    # every lo ≥ 1 form keys its edge set the same way: a bounded
    # quantifier, and a grouped path whose hops stay in one graph
    out3 = evaluate_bgp(ds, [("?x", "p{1,2}", "?y", "?g")]).to_pandas()
    assert sorted(zip(out3["g"], out3["x"], out3["y"])) == sorted(
        zip(out["g"], out["x"], out["y"]))
    out4 = evaluate_bgp(
        ds, [("?x", ("pseq", ["p", "p"], "+"), "?y", "?g")]).to_pandas()
    assert sorted(zip(out4["g"], out4["x"], out4["y"])) == [
        ("g1", "a", "c"), ("g2", "a", "d")]


def test_path_forms_empty_edge_sets(ray_session):
    """Every path form survives a predicate that matches NOTHING (an
    empty Dataset loses its schema through to_pandas — each form must
    emit typed empty bindings instead): quant, grouped seq with one
    empty leg, seeded star with an empty restriction domain, and bare
    p+ (the latent transitive_closure local-path case). A bound
    ``p{0,m}`` still binds its zero-length row, as ``p?`` does."""
    import ray.data as rd

    ds = rd.from_arrow(_triples([("c1", "broader", "c2")]))
    from cattle_ray.stages.bgp import evaluate_bgp

    assert evaluate_bgp(ds, [("c1", "nope{1,2}", "?x")]).count() == 0
    assert evaluate_bgp(
        ds, [("?c", "missing_type", "?t"),
             ("?c", "broader*", "?r")]).count() == 0
    assert evaluate_bgp(
        ds, [("c1", ("pseq", ["broader", "nope"], "+"), "?x")]
    ).count() == 0
    assert evaluate_bgp(ds, [("c1", "broader{2,3}", "?x")]).count() == 0
    assert evaluate_bgp(
        ds, [("?a", "nope+", "?b"), ("?a", "broader", "?x")]
    ).count() == 0
    # zero-length forms keep the bound endpoint's identity row
    for form in ("nope{0,1}", "nope?", "nope{0,3}"):
        out = evaluate_bgp(ds, [("c1", form, "?x")]).take_all()
        assert out == [{"x": "c1"}], form
    out = evaluate_bgp(ds, [("?x", "nope{0,2}", "c2")]).take_all()
    assert out == [{"x": "c2"}]


def test_path_alternative_with_inverse_element(ray_session):
    """A ``palt`` group's ``^q`` element walks ``q`` backwards (it is not
    the literal predicate ``^q``): ``(p|^q)+`` from c1 equals the union of
    the single-element forms ``(p)+`` and ``(^q)+`` on a store where the
    two never chain into each other."""
    import ray.data as rd

    from cattle_ray.stages.bgp import evaluate_bgp

    ds = rd.from_arrow(_triples([
        ("c1", "p", "c2"), ("c2", "p", "c3"),
        ("c4", "q", "c1"), ("c5", "q", "c4"), ("c6", "r", "c1")]))

    def xs(path):
        return {r["x"] for r in evaluate_bgp(
            ds, [("c1", path, "?x")]).take_all()}

    union = xs(("pseq", ["p"], "+")) | xs(("pseq", ["^q"], "+"))
    assert union == {"c2", "c3", "c4", "c5"}
    assert xs(("palt", ["p", "^q"], "+")) == union
    assert xs(("palt", ["^q"], "+")) == {"c4", "c5"}


def test_path_family_interactions(ray_session, tmp_path):
    """Path forms inside group positions: quantifier inside EXISTS,
    grouped path inside OPTIONAL (NULL for unmatched), both-unbound
    star with only a UNION restriction still raises (the fold sees
    required patterns only), and a transitive path inside SERVICE."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned
    from cattle_ray.stages.bgp import evaluate_bgp
    from cattle_ray.stages.sparql import sparql

    rows = [("a", "type", "Doc"), ("b", "type", "Doc"),
            ("a", "broader", "m"), ("m", "broader", "top")]
    ds = rd.from_arrow(_triples(rows))
    out = evaluate_bgp(ds, [("?d", "type", "Doc")],
                       exists=[[("?d", "broader{2,2}", "top")]]) \
        .to_pandas()
    assert sorted(out["d"]) == ["a"]
    out2 = evaluate_bgp(
        ds, [("?d", "type", "Doc")],
        optional=[[("?d", ("pseq", ["broader", "broader"], "+"),
                    "?gp")]]).to_pandas()
    assert sorted(zip(out2["d"], out2["gp"].fillna("-"))) == [
        ("a", "top"), ("b", "-")]
    with pytest.raises((NotImplementedError, ValueError)):
        evaluate_bgp(ds, [("?x", "broader*", "?y")],
                     union=[[("?x", "type", "Doc")]]).count()
    d = str(tmp_path / "svc")
    t = _triples(rows)
    n = t.num_rows
    t = t.append_column("obj_is_iri", pa.array([True] * n)) \
         .append_column("obj_datatype", pa.array([None] * n, pa.string())) \
         .append_column("obj_lang", pa.array([None] * n, pa.string()))
    write_triples_hash_partitioned(rd.from_arrow(t), d, num_partitions=2)
    out3 = sparql(ds, f"""SELECT ?d ?anc WHERE {{
        ?d <type> <Doc> .
        SERVICE <store:{d}> {{ ?d <broader>+ ?anc . }}
        }} ORDER BY ?d ?anc""").to_pandas()
    assert out3.values.tolist() == [["a", "m"], ["a", "top"]]
