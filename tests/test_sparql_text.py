"""Textual SPARQL front-end: grammar → structured algebra, and
end-to-end parity with the structured evaluators."""

import pyarrow as pa
import pytest

from cattle_ray.stages.sparql import (SparqlSyntaxError, _lower,
                                      parse_sparql, sparql)

EX = "urn:ex:"
P = f"PREFIX ex: <{EX}> "


# ------------------------------------------------------------- parsing

def test_prefix_and_abbreviations():
    q = parse_sparql(P + """SELECT ?s WHERE {
        ?s ex:p "v" ; ex:q "w", "x" . }""")
    assert q["patterns"] == [
        ("?s", EX + "p", "v"), ("?s", EX + "q", "w"), ("?s", EX + "q", "x")]
    assert q["select"] == ["?s"]


def test_a_keyword_and_iri_terms():
    q = parse_sparql("SELECT * WHERE { <urn:s> a ?t . }")
    assert q["patterns"] == [
        ("urn:s", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", "?t")]
    assert q["select"] is None


def test_literal_annotations_drop_to_lexical():
    q = parse_sparql(P + """SELECT ?s WHERE {
        ?s ex:n "5"^^<http://www.w3.org/2001/XMLSchema#integer> ;
           ex:l "hi"@en . }""")
    assert q["patterns"] == [("?s", EX + "n", "5"), ("?s", EX + "l", "hi")]


def test_blank_nodes_become_variables():
    q = parse_sparql(P + "SELECT ?s WHERE { ?s ex:p _:b . _:b ex:q ?o . }")
    assert q["patterns"] == [
        ("?s", EX + "p", "?_bn_b"), ("?_bn_b", EX + "q", "?o")]


def test_property_paths():
    q = parse_sparql(P + """SELECT * WHERE {
        ?a ex:anc+ ?b . ?c ^ex:child ?d . ?e ex:p1|ex:p2 ?f . }""")
    assert q["patterns"][0] == ("?a", EX + "anc+", "?b")
    assert q["patterns"][1] == ("?c", "^" + EX + "child", "?d")
    assert q["patterns"][2] == ("?e", [EX + "p1", EX + "p2"], "?f")


def test_zero_or_more_path_parses_engine_gates():
    # p* PARSES; the engine accepts it only with a bound endpoint
    q = parse_sparql(P + "SELECT * WHERE { ?a ex:p* ?b . }")
    assert q["patterns"] == [("?a", EX + "p*", "?b")]


def test_text_star_path_bound_object(ray_session):
    # object-bound ZeroOrMorePath: identity row + reverse-reachable set
    out = sparql(_ds(), P + """SELECT ?e WHERE { ?e ex:in* "Y" . }
        ORDER BY ?e""").to_pandas()
    assert list(out["e"]) == ["E2", "Y"]


def test_text_star_path_both_unbound_rejected(ray_session):
    with pytest.raises(NotImplementedError, match="ZeroOrMorePath"):
        sparql(_ds(), P + "SELECT * WHERE { ?a ex:in* ?b . }").to_pandas()


def test_text_zero_or_one_path(ray_session):
    # object-bound p?: identity row + the direct one-hop sources
    out = sparql(_ds(), P + """SELECT ?e WHERE { ?e ex:in? "Y" . }
        ORDER BY ?e""").to_pandas()
    assert list(out["e"]) == ["E2", "Y"]
    # parses as a path term
    q = parse_sparql(P + "SELECT * WHERE { ?a ex:p? ?b . }")
    assert q["patterns"] == [("?a", EX + "p?", "?b")]
    with pytest.raises(NotImplementedError, match="ZeroOrOnePath"):
        sparql(_ds(), P + "SELECT * WHERE { ?a ex:in? ?b . }").to_pandas()


def test_path_alternative_modifiers_rejected():
    with pytest.raises(SparqlSyntaxError, match="plain IRIs"):
        parse_sparql(P + "SELECT * WHERE { ?a ex:p+|ex:q ?b . }")


def test_filters_lower_to_engine_tuples():
    q = parse_sparql(P + """SELECT * WHERE {
        ?s ex:v ?v ; ex:w ?w .
        FILTER(?v != "x" && CONTAINS(?w, "ab"))
        FILTER(REGEX(?v, "^a"))
        FILTER(?w IN ("p", "q"))
        FILTER(BOUND(?v))
        FILTER(!BOUND(?w))
        FILTER(?v > 5)
        FILTER(?v <= 2.5)
    }""")
    assert q["filters"] == [
        ("?v", "!=", "x"), ("?w", "contains", "ab"),
        ("?v", "regex", "^a"), ("?w", "in", ["p", "q"]),
        ("?v", "bound", True), ("?w", "bound", False),
        ("?v", ">", 5), ("?v", "<=", 2.5)]


def test_strstarts_lowers_to_anchored_regex():
    q = parse_sparql(P + """SELECT * WHERE {
        ?s ex:v ?v . FILTER(STRSTARTS(?v, "a.b")) }""")
    assert q["filters"] == [("?v", "regex", r"^a\.b")]


def test_exists_and_not_exists_groups():
    q = parse_sparql(P + """SELECT * WHERE {
        ?s ex:p ?o .
        FILTER EXISTS { ?s ex:q ?x . }
        FILTER NOT EXISTS { ?s ex:r ?y . } }""")
    assert q["exists"] == [[("?s", EX + "q", "?x")]]
    assert q["minus"] == [[("?s", EX + "r", "?y")]]


def test_or_in_filter_lowers_to_disjunction():
    q = parse_sparql(P + """SELECT * WHERE {
        ?s ex:v ?v . FILTER(?v = "a" || ?v = "b") }""")
    assert q["filters"] == [("or", [("?v", "=", "a"), ("?v", "=", "b")])]


def test_mixed_and_or_filter_precedence():
    # && binds tighter than || (SPARQL precedence); top-level && splits
    # into separate conjuncts for pushdown
    q = parse_sparql(P + """SELECT * WHERE {
        ?s ex:v ?v . FILTER(?v = "a" || ?v = "b" && ?v != "c") }""")
    assert q["filters"] == [
        ("or", [("?v", "=", "a"),
                ("and", [("?v", "=", "b"), ("?v", "!=", "c")])])]
    q2 = parse_sparql(P + """SELECT * WHERE {
        ?s ex:v ?v . FILTER(?v != "c" && ?v = "a" || ?v = "b") }""")
    assert q2["filters"] == [
        ("or", [("and", [("?v", "!=", "c"), ("?v", "=", "a")]),
                ("?v", "=", "b")])]


def test_parenthesized_filter_groups():
    q = parse_sparql(P + """SELECT * WHERE {
        ?s ex:v ?v ; ex:w ?w .
        FILTER((?v = "a" || ?v = "b") && CONTAINS(?w, "x")) }""")
    assert q["filters"] == [
        ("or", [("?v", "=", "a"), ("?v", "=", "b")]),
        ("?w", "contains", "x")]


def test_sequence_path_lowers_to_fresh_var_chain():
    q = parse_sparql(P + "SELECT ?n WHERE { ?s ex:p/ex:q/ex:r ?n . }")
    assert q["patterns"] == [
        ("?s", EX + "p", "?_anon_1"), ("?_anon_1", EX + "q", "?_anon_2"),
        ("?_anon_2", EX + "r", "?n")]


def test_sequence_path_with_inverse_and_plus_elements():
    q = parse_sparql(P + "SELECT * WHERE { ?s ^ex:p/ex:q+ ?o . }")
    assert q["patterns"] == [
        ("?s", "^" + EX + "p", "?_anon_1"), ("?_anon_1", EX + "q+", "?o")]


def test_mixing_seq_and_alt_rejected():
    with pytest.raises(SparqlSyntaxError, match="UNION"):
        parse_sparql(P + "SELECT * WHERE { ?s ex:p/ex:q|ex:r ?o . }")
    with pytest.raises(SparqlSyntaxError, match="UNION"):
        parse_sparql(P + "SELECT * WHERE { ?s ex:q|ex:r/ex:p ?o . }")


def test_negated_property_set_lowers_to_not_in_filter():
    q = parse_sparql(P + "SELECT * WHERE { ?s !(ex:p|ex:q) ?o . }")
    assert q["patterns"] == [("?s", "?_anon_1", "?o")]
    assert q["filters"] == [("?_anon_1", "not_in", [EX + "p", EX + "q"])]
    q2 = parse_sparql(P + "SELECT * WHERE { ?s !ex:p ?o . }")
    assert q2["filters"] == [("?_anon_1", "not_in", [EX + "p"])]


def test_negated_inverse_rejected():
    with pytest.raises(SparqlSyntaxError, match="forward"):
        parse_sparql(P + "SELECT * WHERE { ?s !(ex:p|^ex:q) ?o . }")


def test_sample_lowers_to_min():
    q = parse_sparql(P + """SELECT ?s (SAMPLE(?v) AS ?any) WHERE {
        ?s ex:p ?v } GROUP BY ?s""")
    assert q["agg"] == {"any": ("min", "?v")}


def test_bind_expressions():
    q = parse_sparql(P + """PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
      SELECT * WHERE {
        ?s ex:r ?r .
        BIND(CONCAT(?s, "#", ?r) AS ?tag)
        BIND(xsd:integer(?r) * 10 + 1 AS ?x) }""")
    assert q["bind"] == [
        ("?tag", ("concat", "?s", "#", "?r")),
        ("?x", ("add", ("mul", ("int", "?r"), 10), 1))]


def test_numeric_functions(ray_session):
    # XPath numeric fns over lexical ints: ranks a→3, b→11; h = r/2
    out = sparql(
        _ds(),
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> " + P +
        """SELECT ?s ?f ?c ?r WHERE {
        ?s ex:rank ?k .
        BIND(xsd:decimal(?k) / 2 AS ?h)
        BIND(FLOOR(?h) AS ?f) BIND(CEIL(?h) AS ?c)
        BIND(ROUND(?h) AS ?r) } ORDER BY ?s""").to_pandas()
    assert list(out["f"]) == [1.0, 5.0]
    assert list(out["c"]) == [2.0, 6.0]
    assert list(out["r"]) == [2.0, 6.0]  # fn:round — ties toward +inf


def test_abs_and_round_half_up(ray_session):
    from cattle_ray.stages.bgp import _eval_expr

    b = pa.table({"x": pa.array(["-2.5", "2.5", "-3.25"])})
    assert _eval_expr(b, ("abs", ("num", "?x"))).to_pylist() \
        == [2.5, 2.5, 3.25]
    # string input auto-casts; XPath fn:round(-2.5) = -2, NOT -3
    assert _eval_expr(b, ("round", "?x")).to_pylist() == [-2.0, 3.0, -3.0]


def test_strends_filter(ray_session):
    out = sparql(_ds(), P + """SELECT ?s WHERE {
        ?s ex:about ?e . FILTER(STRENDS(?e, "2")) }""").to_pandas()
    assert list(out["s"]) == ["b"]


def test_select_expression_becomes_bind():
    q = parse_sparql(P + """SELECT ?s (STRLEN(?v) AS ?n) WHERE {
        ?s ex:v ?v . }""")
    assert q["select_binds"] == [("?n", ("strlen", "?v"))]
    assert q["select"] == ["?s", "?n"]
    kw = _lower(q)
    assert kw["bind"] == [("?n", ("strlen", "?v"))]


def test_union_and_values():
    q = parse_sparql(P + """SELECT * WHERE {
        { ?s ex:rank ?r . } UNION { ?s ex:score ?v . }
        VALUES ?s { "a" "b" } }""")
    assert q["union"] == [[("?s", EX + "rank", "?r")],
                          [("?s", EX + "score", "?v")]]
    assert q["values"] == (["?s"], [("a",), ("b",)])


def test_multi_var_values():
    q = parse_sparql(P + """SELECT * WHERE {
        ?s ex:p ?o . VALUES (?s ?o) { ("a" "1") ("b" "2") } }""")
    assert q["values"] == (["?s", "?o"], [("a", "1"), ("b", "2")])


def test_values_undef_parses_to_none():
    q = parse_sparql(P + """SELECT * WHERE {
        ?s ex:p ?o . VALUES (?s ?o) { ("a" UNDEF) (UNDEF "b") } }""")
    assert q["values"] == (["?s", "?o"], [("a", None), (None, "b")])


def test_text_values_undef_row_compat(ray_session):
    """UNDEF = compatible-with-anything: each defined-mask group joins
    on its own defined variables and the groups' solutions concat."""
    out = sparql(_ds(), P + """SELECT ?d ?e WHERE {
        ?d ex:about ?e .
        VALUES (?d ?e) { ("a" UNDEF) (UNDEF "E2") }
    } ORDER BY ?d""").to_pandas()
    assert out.values.tolist() == [["a", "E1"], ["b", "E2"]]


def test_bare_nested_group_rejected():
    with pytest.raises(SparqlSyntaxError, match="UNION"):
        parse_sparql(P + "SELECT * WHERE { { ?s ex:p ?o . } ?s ex:q ?x . }")


def test_graph_scopes_to_quads():
    q = parse_sparql(P + """SELECT * WHERE {
        GRAPH <urn:g1> { ?s ex:p ?o . }
        GRAPH ?g { ?s ex:q ?x . } }""")
    assert q["patterns"] == [("?s", EX + "p", "?o", "urn:g1"),
                             ("?s", EX + "q", "?x", "?g")]


def test_aggregates_lower_to_engine_specs():
    q = parse_sparql(P + """SELECT ?k (COUNT(*) AS ?n) (SUM(?v) AS ?t)
        (AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi)
        (COUNT(DISTINCT ?v) AS ?d)
        (GROUP_CONCAT(?v; SEPARATOR="|") AS ?c)
      WHERE { ?s ex:k ?k ; ex:v ?v . } GROUP BY ?k
      HAVING(?n > 3)""")
    assert q["agg"] == {
        "n": "count", "t": ("sum", "?v"), "a": ("avg", "?v"),
        "lo": ("min", "?v"), "hi": ("max", "?v"),
        "d": ("count_distinct", "?v"), "c": ("group_concat", "?v", "|")}
    assert q["group_by"] == ["?k"]
    assert q["having"] == [("?n", ">", 3)]


def test_having_boolean_tree(ray_session):
    # HAVING shares FILTER's grammar: || / && / parens over aggregates
    q = parse_sparql(P + """SELECT ?k (COUNT(*) AS ?n) WHERE {
        ?s ex:k ?k . } GROUP BY ?k HAVING(?n > 3 || ?n = 1)""")
    assert q["having"] == [("or", [("?n", ">", 3), ("?n", "=", 1)])]
    # end-to-end: entity groups of size 1 OR > 1 — a disjunction
    # that actually prunes (about: E1 twice, E2 once)
    out = sparql(_ds(), P + """SELECT ?e (COUNT(*) AS ?n) WHERE {
        ?s ex:about ?e . } GROUP BY ?e HAVING(?n = 1 || ?n > 5)
        ORDER BY ?e""").to_pandas()
    assert out[["e", "n"]].values.tolist() == [["E2", 1]]


def test_group_by_expression(ray_session):
    # GroupCondition '(' expr AS ?var ')' lowers to a pre-group BIND
    out = sparql(_ds(), P + """SELECT ?k (COUNT(*) AS ?n) WHERE {
        ?s ex:about ?e . } GROUP BY (SUBSTR(?e, 2, 1) AS ?k)
        ORDER BY ?k""").to_pandas()
    assert out[["k", "n"]].values.tolist() == [["1", 2], ["2", 1]]
    # anonymous group keys get hidden _anon_g vars
    q = parse_sparql(P + """SELECT * WHERE { ?s ex:about ?e . }
        GROUP BY (STRLEN(?e))""")
    assert q["group_by"] == ["?_anon_g0"]
    assert q["group_binds"] == [("?_anon_g0", ("strlen", "?e"))]


def test_iri_fn_is_identity(ray_session):
    out = sparql(_ds(), P + """SELECT ?s ?u WHERE {
        ?s ex:about ?e . BIND(IRI(CONCAT("urn:ent:", ?e)) AS ?u) }
        ORDER BY ?s""").to_pandas()
    assert list(out["u"]) == ["urn:ent:E1", "urn:ent:E2", "urn:ent:E1"]


def test_count_var_lowers_to_count_when_required():
    q = parse_sparql(P + """SELECT ?k (COUNT(?v) AS ?n) WHERE {
        ?s ex:k ?k ; ex:v ?v . } GROUP BY ?k""")
    assert _lower(q)["agg"] == {"n": "count"}


def test_count_var_over_optional_rejected():
    q = parse_sparql(P + """SELECT ?k (COUNT(?v) AS ?n) WHERE {
        ?s ex:k ?k . OPTIONAL { ?s ex:v ?v . } } GROUP BY ?k""")
    with pytest.raises(SparqlSyntaxError, match="OPTIONAL"):
        _lower(q)


def test_implicit_group_lowering():
    q = parse_sparql(P + "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:p ?o . }")
    kw = _lower(q)
    assert kw["group_by"] == ["?_g"]
    assert ("?_g", "1") in kw["bind"]
    assert kw["select"] == ["?n"]


def test_modifiers_parse():
    q = parse_sparql(P + """SELECT ?s WHERE { ?s ex:p ?o . }
        ORDER BY DESC(?o) ?s LIMIT 7 OFFSET 3""")
    assert q["order_by"] == [("?o", "descending"), "?s"]
    assert q["limit"] == 7 and q["offset"] == 3
    q2 = parse_sparql(P + """SELECT ?s WHERE { ?s ex:p ?o . }
        OFFSET 1 LIMIT 2""")
    assert q2["limit"] == 2 and q2["offset"] == 1


def test_distinct_flag():
    assert parse_sparql(
        P + "SELECT DISTINCT ?s WHERE { ?s ex:p ?o . }")["distinct"]


def test_construct_templates():
    q = parse_sparql(P + """CONSTRUCT { ?s ex:out ?o ; ex:flag "y" . }
        WHERE { ?s ex:in ?o . }""")
    assert q["kind"] == "construct"
    assert q["templates"] == [("?s", EX + "out", "?o"),
                              ("?s", EX + "flag", "y")]


def test_ask_parses():
    assert parse_sparql(P + "ASK { ?s ex:p ?o . }")["kind"] == "ask"


def test_syntax_errors():
    for bad, msg in [
        ("SELECT ?s WHERE { ?s ex:p ?o . } extra", "undeclared prefix"),
        (P + "SELECT ?s WHERE { ?s ex:p ?o . } extra", "trailing"),
        ("BASE <urn:b> SELECT * WHERE { ?s ?p ?o . }", "BASE"),
        ("LOAD <urn:x>", "SELECT / ASK / CONSTRUCT"),
        (P + "SELECT WHERE { ?s ex:p ?o . }", "empty SELECT"),
    ]:
        with pytest.raises(SparqlSyntaxError, match=msg):
            parse_sparql(bad)


def test_comments_and_dollar_vars():
    q = parse_sparql(P + """SELECT $s WHERE {
        # a comment
        $s ex:p ?o .  # trailing comment
    }""")
    assert q["patterns"] == [("?s", EX + "p", "?o")]
    assert q["select"] == ["?s"]


# --------------------------------------------------------- end-to-end

ROWS = [
    ("a", EX + "type", "Doc"), ("b", EX + "type", "Doc"),
    ("c", EX + "type", "Page"),
    ("a", EX + "about", "E1"), ("b", EX + "about", "E2"),
    ("c", EX + "about", "E1"),
    ("E1", EX + "in", "X"), ("E2", EX + "in", "Y"),
    ("a", EX + "rank", "3"), ("b", EX + "rank", "11"),
]


def _ds(parts=3):
    import ray.data as rd

    s, p, o = zip(*ROWS)
    return rd.from_arrow(pa.table(
        {"subj": list(s), "pred": list(p), "obj": list(o)})) \
        .repartition(parts)


def test_text_select_matches_structured(ray_session):
    from cattle_ray.stages.bgp import evaluate_bgp

    text = sparql(_ds(), P + """SELECT ?d ?e WHERE {
        ?d ex:type "Doc" ; ex:about ?e . } ORDER BY ?d""").to_pandas()
    structured = evaluate_bgp(
        _ds(), [("?d", EX + "type", "Doc"), ("?d", EX + "about", "?e")],
        select=["?d", "?e"], order_by=["?d"]).to_pandas()
    assert text.values.tolist() == structured.values.tolist()
    assert list(text.columns) == ["d", "e"]


def test_text_numeric_filter(ray_session):
    out = sparql(_ds(), P + """SELECT ?d WHERE {
        ?d ex:rank ?r . FILTER(?r > 5) }""").to_pandas()
    assert list(out["d"]) == ["b"]  # lexicographic would keep "3" > "5"


def test_text_optional_and_bound(ray_session):
    out = sparql(_ds(), P + """SELECT ?d ?r WHERE {
        ?d ex:type "Doc" . OPTIONAL { ?d ex:missing ?r . } }""").to_pandas()
    assert sorted(out["d"]) == ["a", "b"]
    assert out["r"].isna().all()


def test_text_implicit_group_count(ray_session):
    out = sparql(_ds(), P + """SELECT (COUNT(*) AS ?n) WHERE {
        ?s ex:type ?t . }""").to_pandas()
    assert list(out.columns) == ["n"] and out["n"][0] == 3


def test_text_group_by_aggregate(ray_session):
    out = sparql(_ds(), P + """SELECT ?t (COUNT(*) AS ?n) WHERE {
        ?s ex:type ?t . } GROUP BY ?t ORDER BY DESC(?n) ?t""").to_pandas()
    assert out.values.tolist() == [["Doc", 2], ["Page", 1]]


def test_text_union(ray_session):
    out = sparql(_ds(), P + """SELECT ?s WHERE {
        { ?s ex:rank ?r . } UNION { ?s ex:in ?x . } }""").to_pandas()
    assert sorted(out["s"]) == ["E1", "E2", "a", "b"]


def test_text_values(ray_session):
    out = sparql(_ds(), P + """SELECT ?d ?e WHERE {
        ?d ex:about ?e . VALUES ?e { "E1" } } ORDER BY ?d""").to_pandas()
    assert out.values.tolist() == [["a", "E1"], ["c", "E1"]]


def test_text_ask(ray_session):
    assert sparql(_ds(), P + 'ASK { ?s ex:type "Doc" . }') is True
    assert sparql(_ds(), P + 'ASK { ?s ex:type "Nope" . }') is False


def test_text_sequence_path_end_to_end(ray_session):
    # ?d about/in ?x — two hops through the anonymous intermediate
    out = sparql(_ds(), P + """SELECT ?d ?x WHERE {
        ?d ex:about/ex:in ?x . } ORDER BY ?d""").to_pandas()
    assert out.values.tolist() == [["a", "X"], ["b", "Y"], ["c", "X"]]


def test_text_sequence_path_select_star_hides_anon(ray_session):
    out = sparql(_ds(), P + """SELECT * WHERE {
        ?d ex:about/ex:in ?x . } ORDER BY ?d""").to_pandas()
    assert list(out.columns) == ["d", "x"]
    assert out.values.tolist() == [["a", "X"], ["b", "Y"], ["c", "X"]]


def test_text_negated_property_set_end_to_end(ray_session):
    # every edge whose predicate is neither type nor about
    out = sparql(_ds(), P + """SELECT ?s ?o WHERE {
        ?s !(ex:type|ex:about) ?o . } ORDER BY ?s""").to_pandas()
    assert out.values.tolist() == [
        ["E1", "X"], ["E2", "Y"], ["a", "3"], ["b", "11"]]


def test_text_or_filter_end_to_end(ray_session):
    out = sparql(_ds(), P + """SELECT ?s WHERE {
        ?s ex:type ?t . FILTER(?t = "Page" || ?s = "a") }""").to_pandas()
    assert sorted(out["s"]) == ["a", "c"]


def test_subquery_parses_to_nested_ast():
    q = parse_sparql(P + """SELECT ?d ?n WHERE {
        ?d ex:about ?e .
        { SELECT ?e (COUNT(*) AS ?n) WHERE { ?x ex:about ?e } GROUP BY ?e }
    }""")
    assert len(q["subselects"]) == 1
    sub = q["subselects"][0]
    assert sub["select"] == ["?e", "?n"]
    assert sub["agg"] == {"n": "count"}
    assert sub["group_by"] == ["?e"]


def test_subquery_select_star_rejected():
    with pytest.raises(SparqlSyntaxError, match="explicit variable list"):
        parse_sparql(P + """SELECT ?d WHERE {
            { SELECT * WHERE { ?d ex:about ?e } } }""")


def test_subquery_inside_optional_rejected():
    with pytest.raises(SparqlSyntaxError, match="triple patterns"):
        parse_sparql(P + """SELECT ?d WHERE {
            ?d ex:about ?e .
            OPTIONAL { { SELECT ?e WHERE { ?x ex:in ?e } } } }""")


def test_text_subquery_end_to_end(ray_session):
    # per-entity mention count from a subquery, joined to the mentions
    out = sparql(_ds(), P + """SELECT ?d ?e ?n WHERE {
        ?d ex:about ?e .
        { SELECT ?e (COUNT(*) AS ?n) WHERE { ?x ex:about ?e }
          GROUP BY ?e }
    } ORDER BY ?d""").to_pandas()
    assert out.values.tolist() == [
        ["a", "E1", 2], ["b", "E2", 1], ["c", "E1", 2]]


def test_text_subquery_only_and_nested(ray_session):
    out = sparql(_ds(), P + """SELECT ?e ?n WHERE {
        { SELECT ?e (COUNT(*) AS ?n) WHERE { ?x ex:about ?e }
          GROUP BY ?e }
    } ORDER BY ?e""").to_pandas()
    assert out.values.tolist() == [["E1", 2], ["E2", 1]]
    nested = sparql(_ds(), P + """SELECT ?d ?e WHERE {
        ?d ex:about ?e .
        { SELECT ?e ?n WHERE {
            { SELECT ?e (COUNT(*) AS ?n) WHERE { ?x ex:about ?e }
              GROUP BY ?e }
            FILTER(?n > 1) } }
    } ORDER BY ?d""").to_pandas()
    assert nested.values.tolist() == [["a", "E1"], ["c", "E1"]]


def test_text_sample_end_to_end(ray_session):
    out = sparql(_ds(), P + """SELECT ?e (SAMPLE(?d) AS ?doc) WHERE {
        ?d ex:about ?e . } GROUP BY ?e ORDER BY ?e""").to_pandas()
    # SAMPLE is the deterministic min representative
    assert out.values.tolist() == [["E1", "a"], ["E2", "b"]]


def test_text_construct(ray_session):
    out = sparql(_ds(), P + """CONSTRUCT { ?e ex:docCount "x" . }
        WHERE { ?d ex:about ?e . }""").to_pandas()
    assert list(out.columns) == ["subj", "pred", "obj"]
    assert sorted(out["subj"]) == ["E1", "E1", "E2"]


def test_text_store_source(ray_session, tmp_path):
    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned

    store = str(tmp_path / "store")
    write_triples_hash_partitioned(_ds(), store, num_partitions=4)
    out = sparql(store, P + """SELECT ?d ?r WHERE {
        ?d ex:type "Doc" ; ex:rank ?r . } ORDER BY ?d""").to_pandas()
    assert out.values.tolist() == [["a", "3"], ["b", "11"]]


def test_text_store_empty_join_keeps_typed_columns(ray_session, tmp_path):
    # the second pattern matches nothing: the join's empty result still
    # carries the plan-known binding columns, not a schema-less Dataset
    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned

    store = str(tmp_path / "store")
    write_triples_hash_partitioned(_ds(), store, num_partitions=4)
    for q in ('SELECT ?d ?r WHERE { ?d ex:type "Doc" ; ex:nope ?r . }',
              'SELECT * WHERE { ?d ex:type "Doc" ; ex:nope ?r . }'):
        out = sparql(store, P + q)
        assert out.count() == 0
        assert out.schema().names == ["d", "r"]
        assert set(out.schema().types) == {pa.string()}


def test_text_select_expression_end_to_end(ray_session):
    out = sparql(_ds(), P + """SELECT ?d (STRLEN(?e) AS ?n) WHERE {
        ?d ex:about ?e . } ORDER BY ?d""").to_pandas()
    assert list(out.columns) == ["d", "n"]
    assert out["n"].tolist() == [2, 2, 2]


def test_describe_parses_and_lowers():
    q = parse_sparql("DESCRIBE <urn:x>")
    assert q["kind"] == "construct"
    assert q["templates"] == [("urn:x", "?_dp", "?_do")]
    assert q["patterns"] == [("urn:x", "?_dp", "?_do")]
    assert q["distinct"] and q["select"] == ["?_dp", "?_do"]
    with pytest.raises(SparqlSyntaxError, match="WHERE"):
        parse_sparql("DESCRIBE ?x")
    with pytest.raises(SparqlSyntaxError, match="no WHERE"):
        parse_sparql(P + "DESCRIBE <urn:x> WHERE { ?s ex:p ?o . }")


def test_describe_iri_end_to_end(ray_session):
    out = sparql(_ds(), "DESCRIBE <urn:ign:a>").to_pandas()
    assert len(out) == 0  # unknown subject: empty description
    out = sparql(_ds(), "DESCRIBE <a>").to_pandas()
    got = set(out.itertuples(index=False, name=None))
    assert got == {("a", EX + "type", "Doc"), ("a", EX + "about", "E1"),
                   ("a", EX + "rank", "3")}


def test_describe_var_where(ray_session):
    out = sparql(_ds(), P + """DESCRIBE ?e WHERE {
        ?d ex:about ?e . }""").to_pandas()
    # E1 is about'd twice — the description is still ONE graph (distinct)
    got = set(out.itertuples(index=False, name=None))
    assert got == {("E1", EX + "in", "X"), ("E2", EX + "in", "Y")}


def test_filter_inside_optional_parses():
    q = parse_sparql(P + """SELECT * WHERE {
        ?s ex:type ?t .
        OPTIONAL { ?s ex:rank ?r . FILTER(?r > 5) } }""")
    assert q["optional"] == [{
        "patterns": [("?s", EX + "rank", "?r")],
        "filters": [("?r", ">", 5)]}]


def test_filter_inside_optional_end_to_end(ray_session):
    # LeftJoin-condition semantics: a filtered-out optional match keeps
    # the required row with NULL, it does NOT drop it
    out = sparql(_ds(), P + """SELECT ?d ?r WHERE {
        ?d ex:type "Doc" .
        OPTIONAL { ?d ex:rank ?r . FILTER(?r > 5) } }""").to_pandas()
    got = {(d, None if r != r else r)
           for d, r in out.itertuples(index=False, name=None)}
    assert got == {("a", None), ("b", "11")}


def test_filter_inside_union_branch(ray_session):
    out = sparql(_ds(), P + """SELECT ?s WHERE {
        { ?s ex:rank ?r . FILTER(?r > 5) } UNION
        { ?s ex:in ?x . FILTER(?x = "X") } }""").to_pandas()
    assert sorted(out["s"]) == ["E1", "b"]


def test_filter_inside_not_exists(ray_session):
    out = sparql(_ds(), P + """SELECT ?d WHERE {
        ?d ex:type "Doc" .
        FILTER NOT EXISTS { ?d ex:rank ?r . FILTER(?r > 5) } }""") \
        .to_pandas()
    assert list(out["d"]) == ["a"]


def _annotated_ds(parts=2):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "subj": ["a", "a", "b", "b"],
        "pred": [EX + "label"] * 4,
        "obj": ["hello", "hallo", "42", "plain"],
        "obj_lang": ["en", "de", None, None],
        "obj_datatype": [None, None,
                         "http://www.w3.org/2001/XMLSchema#integer",
                         None],
        "obj_is_iri": [False, False, False, True]})).repartition(parts)


def test_lang_filter(ray_session):
    out = sparql(_annotated_ds(), P + """SELECT ?s ?l WHERE {
        ?s ex:label ?l . FILTER(LANG(?l) = "en") }""").to_pandas()
    assert out[["s", "l"]].values.tolist() == [["a", "hello"]]


def test_lang_empty_means_plain(ray_session):
    out = sparql(_annotated_ds(), P + """SELECT ?l WHERE {
        ?s ex:label ?l . FILTER(LANG(?l) = "") }""").to_pandas()
    assert sorted(out["l"]) == ["42", "plain"]
    out2 = sparql(_annotated_ds(), P + """SELECT ?l WHERE {
        ?s ex:label ?l . FILTER(LANG(?l) != "") }""").to_pandas()
    assert sorted(out2["l"]) == ["hallo", "hello"]


def test_datatype_filter(ray_session):
    out = sparql(_annotated_ds(), P + """
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?l WHERE {
        ?s ex:label ?l . FILTER(DATATYPE(?l) = xsd:integer) }""") \
        .to_pandas()
    assert list(out["l"]) == ["42"]
    plain = sparql(_annotated_ds(), P + """
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?l WHERE {
        ?s ex:label ?l . FILTER(DATATYPE(?l) = xsd:string) }""") \
        .to_pandas()
    assert sorted(plain["l"]) == ["hallo", "hello", "plain"]


def test_is_iri_filter(ray_session):
    out = sparql(_annotated_ds(), P + """SELECT ?s ?l WHERE {
        ?s ex:label ?l . FILTER(isIRI(?l)) }""").to_pandas()
    assert out[["s", "l"]].values.tolist() == [["b", "plain"]]
    lit = sparql(_annotated_ds(), P + """SELECT ?l WHERE {
        ?s ex:label ?l . FILTER(isLiteral(?l)) }""").to_pandas()
    assert sorted(lit["l"]) == ["42", "hallo", "hello"]


def test_lang_on_plain_stream_raises(ray_session):
    with pytest.raises(Exception, match="obj_lang"):
        sparql(_ds(), P + """SELECT ?e WHERE {
            ?d ex:about ?e . FILTER(LANG(?e) = "en") }""").to_pandas()


def test_lang_neq_value_rejected():
    with pytest.raises(SparqlSyntaxError, match="UNION"):
        parse_sparql(P + """SELECT ?l WHERE {
            ?s ex:label ?l . FILTER(LANG(?l) != "en") }""")


def test_text_string_functions_end_to_end(ray_session):
    out = sparql(_ds(), P + """SELECT ?d ?b ?afr ?rep WHERE {
        ?d ex:about ?e .
        BIND(STRBEFORE(?e, "1") AS ?b)
        BIND(STRAFTER(?e, "E") AS ?afr)
        BIND(REPLACE(?e, "E([0-9]+)", "ent-$1") AS ?rep)
    } ORDER BY ?d""").to_pandas()
    assert out.values.tolist() == [
        ["a", "E", "1", "ent-1"],
        ["b", "", "2", "ent-2"],   # no "1" in E2 → STRBEFORE = ""
        ["c", "E", "1", "ent-1"]]


def test_entailment_rdfs(ray_session):
    """entailment='rdfs' answers over the materialized closure: a
    subclass instance matches its superclass type pattern."""
    import ray.data as rd

    RDF_T = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    RDFS_SUB = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
    t = pa.table({
        "subj": ["x", "urn:C"],
        "pred": [RDF_T, RDFS_SUB],
        "obj": ["urn:C", "urn:A"]})
    ds = rd.from_arrow(t)
    plain = sparql(ds, "SELECT ?s WHERE { ?s a <urn:A> . }").to_pandas()
    assert len(plain) == 0
    closed = sparql(ds, "SELECT ?s WHERE { ?s a <urn:A> . }",
                    entailment="rdfs").to_pandas()
    assert list(closed["s"]) == ["x"]
    with pytest.raises(ValueError, match="entailment regime"):
        sparql(ds, "SELECT ?s WHERE { ?s a <urn:A> . }",
               entailment="owl")


def test_aggregate_over_expression(ray_session):
    """SUM(expr) lowers to a fresh pre-group BIND + SUM(?anon); the
    anon var never reaches the output."""
    q = parse_sparql(P + """SELECT ?s (SUM(?a * 2 + 1) AS ?t) WHERE {
        ?s ex:a ?a } GROUP BY ?s""")
    assert q["agg"] == {"t": ("sum", "?_anon_1")}
    assert q["agg_binds"] == [("?_anon_1", ("add", ("mul", "?a", 2), 1))]
    out = sparql(_ds(), P + """
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?d (SUM(xsd:integer(?r) * 10) AS ?t) WHERE {
          ?d ex:rank ?r . } GROUP BY ?d ORDER BY ?d""").to_pandas()
    assert out.values.tolist() == [["a", 30], ["b", 110]]
    assert list(out.columns) == ["d", "t"]


def test_construct_where_shorthand(ray_session):
    q = parse_sparql(P + "CONSTRUCT WHERE { ?d ex:about ?e . }")
    assert q["templates"] == [("?d", EX + "about", "?e")]
    assert q["patterns"] == q["templates"]
    out = sparql(_ds(), P + "CONSTRUCT WHERE { ?d ex:about ?e . }") \
        .to_pandas()
    assert sorted(zip(out["subj"], out["obj"])) == [
        ("a", "E1"), ("b", "E2"), ("c", "E1")]
    with pytest.raises(SparqlSyntaxError, match="template shorthand"):
        parse_sparql(P + """CONSTRUCT WHERE {
            ?d ex:about ?e . FILTER(?e = "E1") }""")
    with pytest.raises(SparqlSyntaxError, match="paths"):
        parse_sparql(P + "CONSTRUCT WHERE { ?d ex:about/ex:in ?x . }")


def test_cli_srj_output(ray_session, tmp_path, capsys):
    """--srj emits valid W3C SPARQL-results-JSON (select + ask)."""
    import json as _json

    import pyarrow.parquet as pq

    from cattle_ray.cli import main

    t = pa.table({"subj": ["a"], "pred": [EX + "p"], "obj": ["x"]})
    src = tmp_path / "t.parquet"
    pq.write_table(t, str(src))
    main(["sparql", str(src),
          "SELECT ?s ?o WHERE { ?s <" + EX + "p> ?o . }", "--srj"])
    d = _json.loads(capsys.readouterr().out)
    assert d["head"] == {"vars": ["s", "o"]}
    assert d["results"]["bindings"] == [
        {"s": {"type": "literal", "value": "a"},
         "o": {"type": "literal", "value": "x"}}]
    with pytest.raises(SystemExit) as e:
        main(["sparql", str(src),
              "ASK { ?s <" + EX + "p> ?o . }", "--srj"])
    assert e.value.code == 0
    d2 = _json.loads(capsys.readouterr().out)
    assert d2 == {"head": {}, "boolean": True}


# ------------------------------------------------ ORDER BY expressions

def test_order_by_expression_lowers_to_hidden_bind():
    q = parse_sparql(P + """SELECT ?s WHERE { ?s ex:rank ?r . }
        ORDER BY DESC(?r * 2) ?s""")
    assert q["order_binds"] == [("?_anon_ord0", ("mul", "?r", 2))]
    assert q["order_by"] == [("?_anon_ord0", "descending"), "?s"]
    kw = _lower(q)
    assert ("?_anon_ord0", ("mul", "?r", 2)) in kw["bind"]


def test_order_by_bare_function_and_parens():
    q = parse_sparql(P + """SELECT ?s WHERE { ?s ex:p ?o . }
        ORDER BY STRLEN(?o) (?o) LIMIT 2""")
    # a parenthesized plain variable simplifies to a direct sort key —
    # no hidden bind is synthesized for it
    assert q["order_by"] == [("?_anon_ord0", "ascending"),
                             ("?o", "ascending")]
    assert q["order_binds"] == [("?_anon_ord0", ("strlen", "?o"))]


def test_order_by_expression_over_group_rejected():
    q = parse_sparql(P + """SELECT ?k (COUNT(*) AS ?n) WHERE {
        ?s ex:k ?k . } GROUP BY ?k ORDER BY DESC(?n * 2)""")
    with pytest.raises(SparqlSyntaxError, match="alias the aggregate"):
        _lower(q)


def test_text_order_by_expression(ray_session):
    # rank "3" (len 1) vs "11" (len 2): DESC(STRLEN) puts b first —
    # a lexicographic plain-var sort would put "3" after "11"
    out = sparql(_ds(), P + """SELECT ?d WHERE { ?d ex:rank ?r . }
        ORDER BY DESC(STRLEN(?r)) ?d""").to_pandas()
    assert list(out["d"]) == ["b", "a"]
    assert list(out.columns) == ["d"]  # the hidden ord var is projected away


def test_text_order_by_numeric_cast_expression(ray_session):
    out = sparql(_ds(), """PREFIX ex: <urn:ex:>
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?d WHERE { ?d ex:rank ?r . }
        ORDER BY DESC(xsd:integer(?r)) LIMIT 1""").to_pandas()
    assert list(out["d"]) == ["b"]


def test_text_service_store_federation(ray_session, tmp_path):
    """SERVICE <store:dir> { … }: the group evaluates against THAT store
    and joins onto the outer bindings on the shared variable; SILENT on
    a missing store is the join identity; SERVICE in a subquery and in
    an UPDATE WHERE are rejected."""
    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned
    from cattle_ray.stages.sparql import SparqlSyntaxError, sparql_update

    main = str(tmp_path / "main")
    other = str(tmp_path / "other")
    write_triples_hash_partitioned(_ds(), main, num_partitions=2)
    import ray.data as rd

    write_triples_hash_partitioned(
        rd.from_arrow(pa.table({
            "subj": ["a", "b", "zz"],
            "pred": [EX + "score"] * 3,
            "obj": ["9", "3", "7"]})), other, num_partitions=2)
    out = sparql(main, P + f"""SELECT ?d ?s WHERE {{
        ?d ex:type "Doc" .
        SERVICE <store:{other}> {{ ?d ex:score ?s . }}
        }} ORDER BY ?d""").to_pandas()
    assert out.values.tolist() == [["a", "9"], ["b", "3"]]
    # SILENT missing store → join identity; non-SILENT raises
    out2 = sparql(main, P + """SELECT ?d WHERE {
        ?d ex:type "Doc" .
        SERVICE SILENT <store:/nonexistent/nope> { ?d ex:score ?s . }
        } ORDER BY ?d""").to_pandas()
    assert out2["d"].tolist() == ["a", "b"]
    with pytest.raises((FileNotFoundError, OSError)):
        sparql(main, P + """SELECT ?d WHERE {
            ?d ex:type "Doc" .
            SERVICE <store:/nonexistent/nope> { ?d ex:score ?s . }
            }""")
    # non-store endpoints rejected
    with pytest.raises(ValueError, match="store"):
        sparql(main, P + """SELECT ?d WHERE {
            ?d ex:type "Doc" .
            SERVICE <http://remote/sparql> { ?d ex:score ?s . }
            }""")
    with pytest.raises(SparqlSyntaxError, match="UPDATE WHERE"):
        sparql_update(main, P + f"""DELETE {{ ?d ex:type "Doc" . }}
            WHERE {{ SERVICE <store:{other}> {{ ?d ex:score ?s . }} }}""")


def test_text_grouped_paths(ray_session):
    """(p1/p2)+ / (p1|p2)+ / (seq)* / (seq){n,m} / inverse elements:
    the group lowers to ONE composite edge set, the modifier reuses the
    existing closure/BFS/level kernels."""
    import ray.data as rd

    rows = [("a", "p1", "b"), ("b", "p2", "c"), ("c", "p1", "d"),
            ("d", "p2", "e"), ("a", "q", "x")]
    ds = rd.from_arrow(pa.table(
        {"subj": [r[0] for r in rows], "pred": [r[1] for r in rows],
         "obj": [r[2] for r in rows]}))
    got = sparql(ds, "SELECT ?x WHERE { <a> (<p1>/<p2>)+ ?x . }") \
        .to_pandas()
    assert sorted(got["x"]) == ["c", "e"]
    got = sparql(ds, "SELECT ?x WHERE { <a> (<p1>|<p2>)+ ?x . }") \
        .to_pandas()
    assert sorted(got["x"]) == ["b", "c", "d", "e"]
    got = sparql(ds, "SELECT ?x WHERE { <a> (<p1>/<p2>)* ?x . }") \
        .to_pandas()
    assert sorted(got["x"]) == ["a", "c", "e"]
    got = sparql(ds, "SELECT ?x WHERE { <e> (^<p2>/^<p1>){1,2} ?x . }") \
        .to_pandas()
    assert sorted(got["x"]) == ["a", "c"]
    # a modifier-less group is just its sequence
    got = sparql(ds, "SELECT ?x WHERE { <a> (<p1>/<p2>) ?x . }") \
        .to_pandas()
    assert sorted(got["x"]) == ["c"]
    from cattle_ray.stages.sparql import SparqlSyntaxError

    with pytest.raises(SparqlSyntaxError, match="inverse of a path"):
        sparql(ds, "SELECT ?x WHERE { <a> ^(<p1>/<p2>)+ ?x . }")
    with pytest.raises(SparqlSyntaxError, match="mixing"):
        sparql(ds, "SELECT ?x WHERE { <a> (<p1>/<p2>|<q>)+ ?x . }")


def test_grouped_path_over_store(ray_session, tmp_path):
    """Grouped paths over a partitioned store: the scan unions one
    PRUNED read per base predicate."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned
    from cattle_ray.stages.bgp import evaluate_bgp_store

    rows = [("a", "p1", "b"), ("b", "p2", "c"), ("c", "p1", "d"),
            ("d", "p2", "e"), ("zz", "other", "w")]
    t = pa.table({"subj": [r[0] for r in rows],
                  "pred": [r[1] for r in rows],
                  "obj": [r[2] for r in rows]})
    n = t.num_rows
    t = t.append_column("obj_is_iri", pa.array([True] * n)) \
         .append_column("obj_datatype", pa.array([None] * n, pa.string())) \
         .append_column("obj_lang", pa.array([None] * n, pa.string()))
    d = str(tmp_path / "store")
    write_triples_hash_partitioned(rd.from_arrow(t), d, num_partitions=2)
    got = evaluate_bgp_store(
        d, [("a", ("pseq", ["p1", "p2"], "+"), "?x")]).to_pandas()
    assert sorted(got["x"]) == ["c", "e"]


def test_entailment_rdfs_plus_owl(ray_session):
    """entailment='rdfs+owl': OWL axioms (here inverseOf) materialize
    before the RDFS pass, so a query sees both the swapped edges and
    the class inferences from one mixed schema table."""
    import ray.data as rd

    from cattle_ray.stages.reason import (OWL_INVERSE_OF, RDF_TYPE,
                                          RDFS_RANGE)

    t = pa.table({
        "subj": ["d1", "teaches", "teaches"],
        "pred": ["teaches", OWL_INVERSE_OF, RDFS_RANGE],
        "obj": ["p1", "taughtBy", "Student"]})
    got = sparql(rd.from_arrow(t), """
        SELECT ?s ?o WHERE { ?s <taughtBy> ?o . }""",
        entailment="rdfs+owl").to_pandas()
    assert got.values.tolist() == [["p1", "d1"]]
    got2 = sparql(rd.from_arrow(t), f"""
        SELECT ?x WHERE {{ ?x <{RDF_TYPE}> <Student> . }}""",
        entailment="rdfs+owl").to_pandas()
    assert sorted(got2["x"]) == ["p1"]
    with pytest.raises(ValueError, match="regime"):
        sparql(rd.from_arrow(t), "SELECT ?s WHERE { ?s ?p ?o . }",
               entailment="owl2-rl")


def test_text_hash_uri_date_builtins(ray_session):
    """MD5/SHA256, ENCODE_FOR_URI (unreserved-set escaping, NULL
    propagation), YEAR/MONTH/SECONDS over xsd:dateTime lexicals
    (unparsable → unbound), and the non-deterministic-function
    rejection."""
    import hashlib

    import ray.data as rd

    from cattle_ray.stages.sparql import SparqlSyntaxError

    t = pa.table({"subj": ["a", "b", "c"], "pred": ["p"] * 3,
                  "obj": ["hello world/x", "2024-03-05T10:20:30",
                          "plain"]})
    ds = rd.from_arrow(t)
    out = sparql(ds, """SELECT ?o (ENCODE_FOR_URI(?o) AS ?e)
        (MD5(?o) AS ?h) (SHA256(?o) AS ?h2)
        WHERE { ?s <p> ?o . } ORDER BY ?o""").to_pandas()
    row = out[out.o == "hello world/x"].iloc[0]
    assert row["e"] == "hello%20world%2Fx"
    assert row["h"] == hashlib.md5(b"hello world/x").hexdigest()
    assert row["h2"] == hashlib.sha256(b"hello world/x").hexdigest()
    assert out[out.o == "plain"]["e"].iloc[0] == "plain"
    out2 = sparql(ds, """SELECT ?o (YEAR(?o) AS ?y) (MONTH(?o) AS ?m)
        (SECONDS(?o) AS ?sec) WHERE { ?s <p> ?o . } ORDER BY ?o""") \
        .to_pandas()
    row = out2[out2.o == "2024-03-05T10:20:30"].iloc[0]
    assert (row["y"], row["m"], row["sec"]) == (2024, 3, 30)
    assert out2[out2.o == "plain"]["y"].isna().all()
    for fn in ("NOW()", "RAND()", "UUID()"):
        with pytest.raises(SparqlSyntaxError, match="non-deterministic"):
            sparql(ds, f"SELECT ({fn} AS ?x) WHERE {{ ?s <p> ?o . }}")


def test_cli_sparql_out(ray_session, tmp_path):
    """`cli sparql --out`: CONSTRUCT graphs land as N-Quads parts,
    SELECT bindings as parquet."""
    import glob
    import json as _json

    import pyarrow.parquet as parquet

    from cattle_ray.cli import main as cli_main

    src = tmp_path / "triples.parquet"
    parquet.write_table(pa.table({
        "subj": ["urn:a", "urn:b"], "pred": ["urn:p"] * 2,
        "obj": ["urn:x", "urn:y"]}), str(src))
    import contextlib
    import io

    nq_out = tmp_path / "nq"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(["sparql", str(src),
                  "CONSTRUCT { ?s <urn:q> ?o . } WHERE "
                  "{ ?s <urn:p> ?o . }", "--out", str(nq_out)])
    assert _json.loads(buf.getvalue().splitlines()[-1])["format"] \
        == "nquads"
    lines = []
    for f in glob.glob(f"{nq_out}/*.nq"):
        lines += open(f).read().strip().splitlines()
    assert sorted(lines) == [
        "<urn:a> <urn:q> <urn:x> .", "<urn:b> <urn:q> <urn:y> ."]
    pq_out = tmp_path / "sel"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_main(["sparql", str(src),
                  "SELECT ?s ?o WHERE { ?s <urn:p> ?o . }",
                  "--out", str(pq_out)])
    t = parquet.read_table(glob.glob(f"{pq_out}/*.parquet"))
    assert sorted(t["s"].to_pylist()) == ["urn:a", "urn:b"]


def test_service_interaction_combos(ray_session, tmp_path):
    """Interaction battery: SERVICE joins compose with OPTIONAL,
    VALUES, DISTINCT/ORDER/OFFSET over federation, a store UPDATE is
    visible to a later SERVICE read, and aggregates run over
    SERVICE-joined bindings."""
    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned
    from cattle_ray.stages.sparql import sparql_update

    def store(rows, d):
        import ray.data as rd

        s, p, o = zip(*rows)
        n = len(rows)
        t = pa.table({
            "subj": list(s), "pred": list(p), "obj": list(o),
            "obj_is_iri": pa.array([True] * n),
            "obj_datatype": pa.array([None] * n, pa.string()),
            "obj_lang": pa.array([None] * n, pa.string())})
        write_triples_hash_partitioned(rd.from_arrow(t), d,
                                       num_partitions=2)

    d1, d2, d3 = (str(tmp_path / x) for x in ("d1", "d2", "d3"))
    store([("a", "type", "Doc"), ("b", "type", "Doc"),
           ("c", "type", "Doc")], d1)
    store([("a", "score", "3"), ("b", "score", "9")], d2)
    store([("b", "tag", "hot"), ("c", "tag", "cold")], d3)
    # SERVICE is a JOIN (docs without a tag drop); VALUES pins {a,b}
    out = sparql(d1, f"""SELECT ?d ?s ?t WHERE {{
        ?d <type> <Doc> .
        SERVICE <store:{d2}> {{ ?d <score> ?s . }}
        OPTIONAL {{ ?d <missing> ?m . }}
        SERVICE <store:{d3}> {{ ?d <tag> ?t . }}
        VALUES ?d {{ <a> <b> }} }} ORDER BY ?d""").to_pandas()
    assert out[["d", "s", "t"]].values.tolist() == [["b", "9", "hot"]]
    out2 = sparql([d1, d1], """SELECT DISTINCT ?d WHERE {
        ?d <type> <Doc> . } ORDER BY ?d LIMIT 2 OFFSET 1""").to_pandas()
    assert out2["d"].tolist() == ["b", "c"]
    sparql_update(d3, "INSERT DATA { <a> <tag> <warm> . }")
    out3 = sparql(d1, f"""SELECT ?d ?t WHERE {{
        ?d <type> <Doc> .
        SERVICE <store:{d3}> {{ ?d <tag> ?t . }} }} ORDER BY ?d""") \
        .to_pandas()
    assert out3.values.tolist() == [
        ["a", "warm"], ["b", "hot"], ["c", "cold"]]
    out4 = sparql(d1, f"""SELECT (COUNT(*) AS ?n) WHERE {{
        ?d <type> <Doc> .
        SERVICE <store:{d2}> {{ ?d <score> ?s . }} }}""").to_pandas()
    assert out4["n"].tolist() == [2]
