"""Basic-graph-pattern evaluation — the SPARQL SELECT core over the
triple Dataset.

A BGP is a list of ``(s, p, o)`` patterns whose terms are either constant
strings or variables (``"?name"``); the answer is one row per variable
binding satisfying EVERY pattern. This generalizes the hand-written
pattern queries (kg_pattern_join) into a small planner with the engine's
shuffle discipline baked in:

- each pattern's constants filter the triple stream BEFORE anything
  shuffles (pattern selectivity is the whole game at 10^12 triples), and
  only its variable columns survive the projection;
- patterns fold left-to-right through co-partitioned equi joins on ALL
  variables shared with the accumulated bindings (a composite key —
  ONE exchange per pattern, the same-key discipline as
  :func:`~.joins.cogroup_left`);
- a pattern sharing NO variable with the accumulated bindings would be a
  cartesian product — a corpus-scale bug, not a feature — and raises
  (reorder the patterns so each connects);
- a variable repeated WITHIN a pattern (``?x p ?x``) becomes an equality
  filter before projection.

- ``OPTIONAL`` pattern groups left-join onto the required bindings
  (unmatched rows carry NULL — mirrors a SQL LEFT JOIN one-to-one);
- ``FILTER`` constraints are vectorized pyarrow predicates over the final
  bindings; comparing an unbound OPTIONAL variable drops the row (SPARQL
  error-is-false ≙ SQL WHERE over the mirroring LEFT JOIN).

The input triple Dataset is materialized once when more than one pattern
consumes it. For store-backed evaluation, feed per-pattern
``match_triples(store, pred=…)`` streams instead — the same fold applies.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

_POS = ("subj", "pred", "obj")
_POS4 = ("subj", "pred", "obj", "graph")


def _pos_for(terms) -> tuple:
    """Pattern positions: 3 terms = a triple pattern, 4 = a QUAD pattern
    whose last term scopes the named graph (SPARQL GRAPH g { … })."""
    if len(terms) == 3:
        return _POS
    if len(terms) == 4:
        return _POS4
    raise ValueError(f"pattern must be (s, p, o) or (s, p, o, g), "
                     f"got {tuple(terms)!r}")


def _is_var(term: str) -> bool:
    return isinstance(term, str) and term.startswith("?")


def _path_bindings(triples_ds, terms):
    """Transitive property-path pattern ``(s, "pred+", o)`` — SPARQL 1.1
    OneOrMorePath: bindings are every (s, o) connected by 1+ ``pred``
    edges. The edge set filters map-side (only ``pred`` rows survive),
    then :func:`~.graph.transitive_closure` path-doubles it (⌈log₂ depth⌉
    co-partitioned self-join rounds); endpoint constants and repeated-
    variable equality filter the CLOSURE — sound because the closure of a
    hierarchy-shaped relation is near-linear in the input (the closure
    kernel's documented contract; a subject-bound path over a huge cyclic
    relation should use :func:`~.graph.bfs` instead). ``pred*``
    (ZeroOrMorePath) is rejected: its identity rows range over the whole
    node domain, which is corpus-sized by definition."""
    from .graph import transitive_closure

    s, p, o = terms[0], terms[1], terms[2]
    g = terms[3] if len(terms) == 4 else None
    g_var = g is not None and isinstance(g, str) and _is_var(g)
    if g is not None and not isinstance(g, str):
        raise NotImplementedError(
            "a path pattern's graph term must be a constant or a "
            "variable")
    base = p[:-1]

    if g_var:
        # GRAPH-variable closure in ONE pass: the graph embeds into the
        # closure key (``g\x1fs`` pairs can only join ``g\x1fo`` of the
        # SAME graph, so the per-graph closures compute simultaneously
        # inside one path-doubling run — no per-graph loop, no graph
        # enumeration on the driver); the key splits back afterwards.
        # \x1f never appears in IRIs/graph names (a control char)
        def edges_g(b: pa.Table) -> pa.Table:
            b = b.filter(pc.and_(pc.equal(b["pred"], base),
                                 pc.is_valid(b["graph"])))
            gs = pc.binary_join_element_wise(
                pc.cast(b["graph"], pa.string()),
                pc.cast(b["subj"], pa.string()), "\x1f")
            go = pc.binary_join_element_wise(
                pc.cast(b["graph"], pa.string()),
                pc.cast(b["obj"], pa.string()), "\x1f")
            return pa.table({"subj": gs, "obj": go})

        keyed_pairs = transitive_closure(
            triples_ds.map_batches(edges_g, batch_format="pyarrow"),
            src="subj", dst="obj")

        def split_keys(b: pa.Table) -> pa.Table:
            pat = r"(?s)^(?P<g>[^\x1f]*)\x1f(?P<v>.*)$"
            sm = pc.extract_regex(b["subj"], pattern=pat)
            om = pc.extract_regex(b["obj"], pattern=pat)
            return pa.table({
                "graph": pc.struct_field(sm, "g"),
                "subj": pc.struct_field(sm, "v"),
                "obj": pc.struct_field(om, "v")})

        pairs = keyed_pairs.map_batches(split_keys,
                                        batch_format="pyarrow")
    else:
        def edges(b: pa.Table) -> pa.Table:
            m = pc.equal(b["pred"], base)
            if g is not None:
                m = pc.and_(m, pc.equal(b["graph"], g))
            b = b.filter(m)
            return pa.table({"subj": b["subj"], "obj": b["obj"]})

        pairs = transitive_closure(
            triples_ds.map_batches(edges, batch_format="pyarrow"),
            src="subj", dst="obj")

    out_vars: list[str] = []
    for term in (s, o):
        if _is_var(term) and term[1:] not in out_vars:
            out_vars.append(term[1:])
    if g_var and g[1:] not in out_vars:
        out_vars.append(g[1:])
    if not out_vars:
        raise ValueError(f"pattern {terms!r} binds no variable")

    # NB: named `project`, not `g` — `g` is the graph term captured by
    # the `edges` closure above; rebinding it here would hand that
    # closure a function if anything deferred the edge scan
    def project(b: pa.Table) -> pa.Table:
        mask = None
        for col, term in (("subj", s), ("obj", o)):
            if not _is_var(term):
                c = (pc.is_in(b[col], value_set=pa.array(list(term)))
                     if isinstance(term, (list, tuple, set))
                     else pc.equal(b[col], term))
                mask = c if mask is None else pc.and_(mask, c)
        if _is_var(s) and s == o:  # ?x pred+ ?x — cycle membership
            c = pc.equal(b["subj"], b["obj"])
            mask = c if mask is None else pc.and_(mask, c)
        if mask is not None:
            b = b.filter(mask)
        cols = {}
        for col, term in (("subj", s), ("obj", o)):
            if _is_var(term) and term[1:] not in cols:
                cols[term[1:]] = b[col]
        if g_var and g[1:] not in cols:
            cols[g[1:]] = b["graph"]
        return pa.table(cols)

    return pairs.map_batches(project, batch_format="pyarrow"), out_vars


def _star_unbound_terms(pattern):
    """``(?x, "p*", ?y)`` with BOTH endpoints variable → the normalized
    term list (inverse ``^p*`` swaps endpoints), else None. These
    patterns don't evaluate standalone (their zero-length rows range
    over the whole node domain) — :func:`_evaluate_body` defers them and
    lowers to a SEEDED closure once another pattern has range-restricted
    an endpoint (see :func:`_fold_bindings`)."""
    terms = list(pattern)
    p = terms[1]
    if not (isinstance(p, str) and not _is_var(p)):
        return None
    if p.startswith("^"):
        terms = [terms[2], p[1:], terms[0]] + terms[3:]
        p = terms[1]
    if not p.endswith("*") or p.endswith("**"):
        return None
    s, o = terms[0], terms[2]
    if isinstance(s, str) and _is_var(s) and isinstance(o, str) \
            and _is_var(o):
        return terms
    return None


def _is_path(term) -> bool:
    return isinstance(term, str) and not _is_var(term) and term.endswith("+")


def _is_star(term) -> bool:
    return isinstance(term, str) and not _is_var(term) and term.endswith("*")


def _is_opt_path(term) -> bool:
    return isinstance(term, str) and not _is_var(term) and term.endswith("?")


#: BFS hop bound for bound-endpoint ``p*`` paths — frontier expansion
#: exits early when the frontier empties, so the bound only caps
#: pathological depth; reaching it raises rather than silently truncating
STAR_MAX_HOPS = 256


def _path_star_bindings(triples_ds, terms):
    """ZeroOrMorePath ``(s, "pred*", o)`` with a CONSTANT endpoint — the
    scale-safe case: SPARQL's zero-length rows range over the whole node
    domain in general, but with one end bound the bindings are exactly
    ``{seed(s)} ∪ reach(seed)``, which directed frontier-at-a-time BFS
    (:func:`~.graph.bfs`) computes in rounds proportional to the REAL
    path depth, visiting only the reachable neighbourhood — never the
    corpus. A LIST endpoint (alternative / inline VALUES) multi-seeds
    the same BFS. Identity rows come free: BFS emits seeds at dist 0,
    which is precisely SPARQL's zero-length path (it holds even when
    the seed has no ``pred`` edge at all). Both-variable (and
    ``?x pred* ?x``) stay rejected — their identity rows are the node
    domain. Reaching ``STAR_MAX_HOPS`` raises (a deeper-than-256-hop
    chain needs an explicit closure materialization, not a silent
    truncation)."""
    from .graph import bfs

    s, p, o = terms[0], terms[1], terms[2]
    g = terms[3] if len(terms) == 4 else None
    if g is not None and (_is_var(g) or not isinstance(g, str)):
        raise NotImplementedError(
            "a path pattern's graph term must be a constant: the "
            "traversal runs over ONE graph's edges")
    base = p[:-1]
    s_bound = not _is_var(s)
    o_bound = not _is_var(o)
    if s_bound and o_bound:
        raise ValueError(f"pattern {terms!r} binds no variable")
    if not s_bound and not o_bound:
        raise NotImplementedError(
            "ZeroOrMorePath (pred*) with BOTH endpoints unbound is not "
            "supported: its identity rows range over the whole node "
            "domain — bind one endpoint, or use pred+ and union the "
            "identity bindings you actually need")
    if s == o:  # both vars is already rejected; this is unreachable for
        # safety against future term forms
        raise NotImplementedError(
            "?x pred* ?x ranges over the whole node domain")

    def edges(b: pa.Table) -> pa.Table:
        m = pc.equal(b["pred"], base)
        if g is not None:
            m = pc.and_(m, pc.equal(b["graph"], g))
        b = b.filter(m)
        return pa.table({"subj": b["subj"], "obj": b["obj"]})

    edge_ds = triples_ds.map_batches(edges, batch_format="pyarrow")
    const, var = (s, o) if s_bound else (o, s)
    seeds = list(const) if isinstance(const, (list, tuple, set)) \
        else [const]
    src, dst = ("subj", "obj") if s_bound else ("obj", "subj")
    res = bfs(edge_ds, seeds, src=src, dst=dst, hops=STAR_MAX_HOPS,
              undirected=False).materialize()
    mx = res.map_batches(
        lambda b: pa.table({"m": [int(pc.max(b["dist"]).as_py() or 0)]}),
        batch_format="pyarrow").to_pandas()["m"].max()
    if int(mx) >= STAR_MAX_HOPS:
        raise ValueError(
            f"pred* traversal reached the {STAR_MAX_HOPS}-hop bound "
            "without converging — materialize the closure explicitly "
            "for chains this deep")
    name = var[1:]
    out = res.map_batches(lambda b, n=name: pa.table({n: b["node"]}),
                          batch_format="pyarrow")
    return out, [name]


_QUANT_RE = re.compile(r"^(.*)\{(\d+),(\d+)\}$")


def _is_quant(term) -> bool:
    return isinstance(term, str) and not _is_var(term) \
        and _QUANT_RE.match(term) is not None


def _path_quant_bindings(triples_ds, terms):
    """Bounded path quantifier ``(s, "pred{n,m}", o)`` — pairs connected
    by a ``pred`` chain of length k for some n ≤ k ≤ m, SET semantics
    per (s, o) pair (a pair reachable at two lengths binds once; the
    lowering would otherwise count hop decompositions). Evaluated as
    the bounded sequence-path expansion: level k's pairs are level
    k-1's co-partitioned-joined with the edge set, DISTINCT per level
    (bounds growth), answer = distinct union of levels n..m — exactly
    the n-hop SQL join chain, m is query-written and small. A constant
    SUBJECT pushes into level 1 (every level then holds only paths
    from it); a constant object filters the final union. ``n = 0``
    adds zero-length rows, which requires a bound endpoint (the same
    node-domain gate as ``p?``/``p*``); in a BGP a both-unbound
    ``p{0,m}`` can instead be written ``p{1,m}`` plus the seeded-star
    machinery. Below ``SMALL_CLOSURE_EDGES`` the expansion runs
    in-process (same crossover rationale as transitive_closure)."""
    import pandas as pd
    import ray.data as rd

    from .aggregates import distinct
    from .graph import SMALL_CLOSURE_EDGES
    from .joins import hash_join

    s, p, o = terms[0], terms[1], terms[2]
    g = terms[3] if len(terms) == 4 else None
    if g is not None and (_is_var(g) or not isinstance(g, str)):
        raise NotImplementedError(
            "a path pattern's graph term must be a constant: the "
            "expansion runs over ONE graph's edges")
    m_ = _QUANT_RE.match(p)
    base, lo, hi = m_.group(1), int(m_.group(2)), int(m_.group(3))
    if hi < lo:
        raise ValueError(f"path quantifier {{{lo},{hi}}}: max < min")
    if hi == 0 or (lo == 0 and hi > 0 and base == ""):
        raise ValueError(f"bad path quantifier in {p!r}")
    s_bound = not _is_var(s)
    o_bound = not _is_var(o)
    if s_bound and o_bound:
        raise ValueError(f"pattern {terms!r} binds no variable")
    if lo == 0 and not (s_bound or o_bound):
        raise NotImplementedError(
            "p{0,m} with both endpoints unbound: the zero-length rows "
            "range over the whole node domain — bind an endpoint or "
            "use p{1,m}")

    def edges(b: pa.Table) -> pa.Table:
        msk = pc.equal(b["pred"], base)
        if g is not None:
            msk = pc.and_(msk, pc.equal(b["graph"], g))
        b = b.filter(msk)
        return pa.table({"subj": b["subj"], "obj": b["obj"]})

    edge_ds = triples_ds.map_batches(edges, batch_format="pyarrow") \
        .materialize()

    out_vars_early: list[str] = []
    for term in (s, o):
        if _is_var(term) and term[1:] not in out_vars_early:
            out_vars_early.append(term[1:])
    if edge_ds.count() == 0:
        # no matching edges at all: an empty Dataset loses its schema
        # through to_pandas — emit the typed empty bindings directly
        empty = pa.table({v: pa.array([], pa.string())
                          for v in out_vars_early})
        return rd.from_arrow(empty), out_vars_early

    def lvl1(e):
        if s_bound:
            seeds = list(s) if isinstance(s, (list, tuple, set)) else [s]
            return e.filter(pc.is_in(e["subj"],
                                     value_set=pa.array(seeds)))
        return e

    if edge_ds.count() <= SMALL_CLOSURE_EDGES:
        e = pa.Table.from_pandas(edge_ds.to_pandas(),
                                 preserve_index=False)
        lv = lvl1(e).to_pandas().drop_duplicates()
        seen = []
        if lo == 0:
            const = s if s_bound else o
            seeds = sorted(set(
                const if isinstance(const, (list, tuple, set))
                else [const]))
            seen.append(pd.DataFrame({"subj": seeds, "obj": seeds}))
        ep = e.to_pandas()
        for k in range(1, hi + 1):
            if k >= max(lo, 1):
                seen.append(lv)
            if k == hi:
                break
            lv = lv.merge(ep, left_on="obj", right_on="subj",
                          suffixes=("", "_r"))[["subj", "obj_r"]] \
                .rename(columns={"obj_r": "obj"}).drop_duplicates()
        pairs_pd = pd.concat(seen, ignore_index=True).drop_duplicates()
        pairs = rd.from_pandas(pairs_pd.reset_index(drop=True))
    else:
        lv = distinct(edge_ds.map_batches(lvl1, batch_format="pyarrow"),
                      ["subj", "obj"]).materialize()
        levels = []
        if lo == 0:
            const = s if s_bound else o
            seeds = sorted(set(
                const if isinstance(const, (list, tuple, set))
                else [const]))
            levels.append(rd.from_arrow(pa.table(
                {"subj": pa.array(seeds, pa.string()),
                 "obj": pa.array(seeds, pa.string())})))
        for k in range(1, hi + 1):
            if k >= max(lo, 1):
                levels.append(lv)
            if k == hi:
                break
            stepped = hash_join(lv, edge_ds, "obj", "subj")
            lv = distinct(stepped.map_batches(
                lambda b: pa.table({"subj": b["subj"],
                                    "obj": b["obj_r"]}),
                batch_format="pyarrow"), ["subj", "obj"]).materialize()
        out = levels[0]
        for more in levels[1:]:
            out = out.union(more)
        pairs = distinct(out, ["subj", "obj"])

    out_vars: list[str] = []
    for term in (s, o):
        if _is_var(term) and term[1:] not in out_vars:
            out_vars.append(term[1:])

    def project(b: pa.Table) -> pa.Table:
        mask = None
        for col, term in (("subj", s), ("obj", o)):
            if not _is_var(term):
                c = (pc.is_in(b[col], value_set=pa.array(list(term)))
                     if isinstance(term, (list, tuple, set))
                     else pc.equal(b[col], term))
                mask = c if mask is None else pc.and_(mask, c)
        if _is_var(s) and s == o:
            c = pc.equal(b["subj"], b["obj"])
            mask = c if mask is None else pc.and_(mask, c)
        if mask is not None:
            b = b.filter(mask)
        cols = {}
        for col, term in (("subj", s), ("obj", o)):
            if _is_var(term) and term[1:] not in cols:
                cols[term[1:]] = b[col]
        return pa.table(cols)

    return pairs.map_batches(project, batch_format="pyarrow"), out_vars


def _is_group_path(term) -> bool:
    return isinstance(term, tuple) and len(term) == 3 \
        and term[0] in ("pseq", "palt")


def _path_group_bindings(triples_ds, terms):
    """Grouped property path ``(p1/p2)+`` / ``(p1|p2)*`` / ``(…){n,m}``:
    the parenthesized body becomes ONE composite edge set — a sequence
    chains per-element hops through co-partitioned joins (inverse ``^``
    elements swap their hop), an alternative is a single ``is_in``
    scan — and the modifier then reuses the EXISTING path machinery
    verbatim over a synthetic single-predicate triple stream (the
    closure/BFS/level-expansion kernels don't care where their edges
    came from). Elements must be plain or inverse IRIs (no nested
    modifiers — write the closure of a closure as two patterns).
    Both-unbound gates are the delegated form's own (``+``/``{n,m}``
    allow it; ``*``/``?`` demand a bound endpoint)."""
    from .joins import hash_join

    s, p, o = terms[0], terms[1], terms[2]
    kind, elems, mod = p
    g = terms[3] if len(terms) == 4 else None
    if g is not None and (_is_var(g) or not isinstance(g, str)):
        raise NotImplementedError(
            "a path pattern's graph term must be a constant: the "
            "composite edge set is computed over ONE graph's edges")

    def hop(b: pa.Table, pred, inv: bool) -> pa.Table:
        if isinstance(pred, (list, tuple)):
            m = pc.is_in(b["pred"], value_set=pa.array(list(pred)))
        else:
            m = pc.equal(b["pred"], pred)
        if g is not None:
            m = pc.and_(m, pc.equal(b["graph"], g))
        b = b.filter(m)
        if inv:
            return pa.table({"subj": b["obj"], "obj": b["subj"]})
        return pa.table({"subj": b["subj"], "obj": b["obj"]})

    if kind == "palt":
        edges = triples_ds.map_batches(
            lambda b: hop(b, list(elems), False), batch_format="pyarrow")
    else:
        if len(elems) > 1:
            # each sequence leg scans the stream once — pin the blocks
            # instead of re-running the upstream per leg (store scans
            # are already pruned to the union of base predicates)
            triples_ds = triples_ds.materialize()
        legs = []
        for e in elems:
            inv = e.startswith("^")
            base = e[1:] if inv else e
            legs.append(triples_ds.map_batches(
                lambda b, base=base, inv=inv: hop(b, base, inv),
                batch_format="pyarrow"))
        edges = legs[0]
        for leg in legs[1:]:
            stepped = hash_join(edges, leg, "obj", "subj")
            edges = stepped.map_batches(
                lambda b: pa.table({"subj": b["subj"],
                                    "obj": b["obj_r"]}),
                batch_format="pyarrow")

    synth = edges.map_batches(
        lambda b: pa.table({"subj": b["subj"],
                            "pred": pa.array(["__seq__"] * len(b)),
                            "obj": b["obj"]}),
        batch_format="pyarrow")
    sub_terms = (s, "__seq__" + mod, o)
    if _is_quant("__seq__" + mod):
        return _path_quant_bindings(synth, sub_terms)
    if mod == "+":
        return _path_bindings(synth, sub_terms)
    if mod == "*":
        return _path_star_bindings(synth, sub_terms)
    if mod == "?":
        return _path_opt_bindings(synth, sub_terms)
    raise ValueError(f"unknown group-path modifier {mod!r}")


def _path_opt_bindings(triples_ds, terms):
    """ZeroOrOnePath ``(s, "pred?", o)`` with a CONSTANT endpoint: the
    bindings are exactly ``{seed} ∪ one-hop(seed)`` — no traversal at
    all, just the plain pattern's vectorized scan (pred + endpoint
    constants filter BEFORE anything leaves the read) unioned with one
    identity row per seed, then DISTINCT (``?``/``*`` paths have set
    semantics per SPARQL 1.1 ALP). A LIST endpoint multi-seeds, same as
    the alternative-path form. Both-endpoints-unbound is rejected with
    the identity-rows scale rationale ``*`` established: zero-length
    rows would range over the whole node domain."""
    import ray.data

    from .aggregates import distinct

    s, p, o = terms[0], terms[1], terms[2]
    g = terms[3] if len(terms) == 4 else None
    if g is not None and (_is_var(g) or not isinstance(g, str)):
        raise NotImplementedError(
            "a path pattern's graph term must be a constant: the "
            "traversal runs over ONE graph's edges")
    base = p[:-1]
    s_bound = not _is_var(s)
    o_bound = not _is_var(o)
    if s_bound and o_bound:
        raise ValueError(f"pattern {terms!r} binds no variable")
    if not s_bound and not o_bound:
        raise NotImplementedError(
            "ZeroOrOnePath (pred?) with BOTH endpoints unbound is not "
            "supported: its identity rows range over the whole node "
            "domain — bind one endpoint, or use the plain predicate "
            "and union the identity bindings you actually need")
    if s == o:
        raise NotImplementedError(
            "?x pred? ?x ranges over the whole node domain")
    const, var = (s, o) if s_bound else (o, s)
    seeds = list(const) if isinstance(const, (list, tuple, set)) \
        else [const]
    src, dst = ("subj", "obj") if s_bound else ("obj", "subj")
    name = var[1:]

    def hop(b: pa.Table, seeds=tuple(seeds)) -> pa.Table:
        m = pc.equal(b["pred"], base)
        if g is not None:
            m = pc.and_(m, pc.equal(b["graph"], g))
        m = pc.and_(m, pc.is_in(b[src], value_set=pa.array(list(seeds))))
        return pa.table({name: b[dst].filter(m)})

    one = triples_ds.map_batches(hop, batch_format="pyarrow")
    ident = ray.data.from_arrow(
        pa.table({name: pa.array(seeds, pa.string())}))
    out = distinct(_anchor(one, [name]).union(ident), [name])
    return out, [name]


def _anchor(ds, out_vars):
    """Pin a binding stream's schema with a 0-row seed block: map_batches
    over an empty stream loses its schema (Ray Data skips empty blocks),
    and a pattern whose constants match NOTHING must still fold through
    the downstream groupby/sort/distinct machinery as an empty relation —
    not crash it with a None schema. Binding columns are always strings
    (RDF terms), so the seed types are exact; ``Dataset.union`` is
    metadata-level (no shuffle, no compute) BUT it breaks operator fusion
    (measured ~2× on whole-store evaluation when every pattern stream was
    anchored), so the algebra anchors only where a schema-less empty
    stream could actually crash: once before the modifier/aggregate tail
    and ahead of each ``distinct`` over group keys. The joins themselves
    never need anchors — every binding relation's schema is plan-known
    (its variable list, all strings) and threads through ``hash_join``'s
    ``left_schema``/``right_schema`` hints instead."""
    import ray.data as rd

    seed = pa.table({v: pa.array([], pa.string()) for v in out_vars})
    return rd.from_arrow(seed).union(ds)


def _sch(vars_) -> "pa.Schema":
    """The plan-known Arrow schema of a binding relation: one string
    column per variable (RDF terms are strings end-to-end)."""
    return pa.schema([pa.field(v, pa.string()) for v in vars_])


#: object-annotation kinds → the store's side column carrying them
_ANNOTATION_COLS = {"lang": "obj_lang", "datatype": "obj_datatype",
                    "is_iri": "obj_is_iri"}


def pattern_bindings(triples_ds, pattern, annotations=None):
    """One pattern → Dataset of its variable bindings (constants filtered
    out map-side, variable columns projected and renamed). Path forms on
    the predicate term: a constant ending in ``+`` is a transitive path
    (see :func:`_path_bindings`); a leading ``^`` is the inverse path
    (the pattern rewrites with subject and object swapped, composing
    with ``+``); a LIST of constants is the alternative path ``p1|p2``
    (vectorized ``is_in`` — a list in the subject/object position
    likewise acts as inline VALUES for that term). ``*`` paths
    (ZeroOrMorePath) run as directed BFS when an endpoint is bound
    (see :func:`_path_star_bindings`); both-unbound is rejected.

    ``annotations``: ``{"?var": ("lang"|"datatype", …)}`` — when the
    named variable binds in the OBJECT position, the triple row's
    annotation side columns (``obj_lang`` / ``obj_datatype``) project as
    extra binding variables ``var__lang`` / ``var__datatype``, so
    SPARQL ``LANG()`` / ``DATATYPE()`` filters run as ordinary column
    filters (the engine's term columns are lexical forms; the
    annotations ride beside them). Raises when the stream has no
    annotation columns (a plain (s, p, o) table has no lang to ask
    for). Path patterns don't support annotations — the closure
    composes edges and has no single source row."""
    terms = list(pattern)
    pos = _pos_for(terms)
    p = terms[1]
    if isinstance(p, str) and not _is_var(p) and p.startswith("^"):
        # inverse path: ^p (and ^p+) ≡ the pattern with s/o swapped
        terms = [terms[2], p[1:], terms[0]] + terms[3:]
        p = terms[1]
    if _is_group_path(p) or _is_star(p) or _is_opt_path(p) \
            or _is_quant(p):
        # bound-endpoint ZeroOrMorePath runs as directed BFS (ZeroOrOne
        # as identity ∪ one vectorized hop; p{n,m} as the bounded
        # level-join expansion; grouped (p1/p2)+ composes its edge set
        # first); the both-unbound zero-length cases raise inside with
        # the identity rationale
        obj_term = terms[2]
        if isinstance(obj_term, str) and _is_var(obj_term) \
                and (annotations or {}).get(obj_term):
            raise NotImplementedError(
                "LANG()/DATATYPE() over a property-path object is not "
                "supported: the traversal composes edges and has no "
                "single source row")
        if _is_group_path(p):
            return _path_group_bindings(triples_ds, terms)
        if _is_quant(p):
            return _path_quant_bindings(triples_ds, terms)
        if _is_star(p):
            return _path_star_bindings(triples_ds, terms)
        return _path_opt_bindings(triples_ds, terms)
    # annotations apply to THIS pattern only when its object is a
    # requested variable (subject-position vars have no literal side)
    obj_term = terms[2]
    ann_kinds = tuple((annotations or {}).get(obj_term, ())) \
        if isinstance(obj_term, str) and _is_var(obj_term) else ()
    if _is_path(p):
        if ann_kinds:
            raise NotImplementedError(
                "LANG()/DATATYPE() over a property-path object is not "
                "supported: the closure composes edges and has no "
                "single source row")
        return _path_bindings(triples_ds, terms)
    out_vars: list[str] = []
    for col, term in zip(pos, terms):
        if _is_var(term) and term[1:] not in out_vars:
            out_vars.append(term[1:])
    if not out_vars:
        raise ValueError(f"pattern {pattern!r} binds no variable")
    ann_out = [(_ANNOTATION_COLS[k], f"{obj_term[1:]}__{k}")
               for k in ann_kinds]
    out_vars += [name for _src, name in ann_out]

    def f(b: pa.Table) -> pa.Table:
        for src, _name in ann_out:
            if src not in b.column_names:
                raise ValueError(
                    f"stream has no {src!r} column — LANG()/DATATYPE() "
                    "need the annotation side columns the converters "
                    "emit; a plain (subj, pred, obj) table has none")
        mask = None
        for col, term in zip(pos, terms):
            if not _is_var(term):
                c = (pc.is_in(b[col], value_set=pa.array(list(term)))
                     if isinstance(term, (list, tuple, set))
                     else pc.equal(b[col], term))
                mask = c if mask is None else pc.and_(mask, c)
        # repeated variable inside the pattern = equality constraint
        seen: dict[str, str] = {}
        for col, term in zip(pos, terms):
            if _is_var(term):
                if term in seen:
                    c = pc.equal(b[col], b[seen[term]])
                    mask = c if mask is None else pc.and_(mask, c)
                else:
                    seen[term] = col
        if mask is not None:
            b = b.filter(mask)
        cols = {term[1:]: b[col] for term, col in
                ((t, c) for c, t in zip(pos, terms) if _is_var(t))}
        for src, name in ann_out:
            cols[name] = pc.cast(b[src], pa.string())
        return pa.table(cols)

    return triples_ds.map_batches(f, batch_format="pyarrow"), out_vars


def _apply_seeded_star(acc, bound, terms, edge_ds, num_buckets: int):
    """Lower a both-endpoints-unbound ``?x p* ?y`` against the bindings
    accumulated SO FAR: the already-joined patterns range-restrict one
    endpoint, so the pattern becomes ``reach*`` from that restriction's
    distinct values — a labeled multi-source BFS
    (:func:`~.graph.bfs_labeled`, frontier carries ``(root, node)``)
    over the pre-filtered ``p`` edges, visiting only the seeds'
    neighbourhoods, never the node domain (VERDICT r4 order #2; the
    common ontology-hierarchy query ``?c type Class . ?c broader* ?r``).
    Zero-length rows come out as the BFS's distance-0 identity pairs —
    exactly SPARQL semantics under the restriction. ``?x p* ?x`` is a
    tautology over the restricted domain (the zero-length path always
    holds), so it joins nothing. When BOTH endpoints are already bound
    the pairs join on both (a reachability filter)."""
    from .aggregates import distinct as _distinct
    from .graph import bfs_labeled
    from .joins import hash_join

    s, o = terms[0], terms[2]
    sv, ov = s[1:], o[1:]
    if sv == ov:
        if sv not in bound:
            raise NotImplementedError(
                "?x pred* ?x with ?x otherwise unrestricted ranges over "
                "the whole node domain")
        return acc, bound  # zero-length path holds for every binding
    if sv in bound:
        root_var, other_var, esrc, edst = sv, ov, "__ps", "__po"
    elif ov in bound:
        root_var, other_var, esrc, edst = ov, sv, "__po", "__ps"
    else:
        raise ValueError(
            f"pattern {tuple(terms)!r} shares no variable with the "
            f"bindings so far ({bound}) — an unrestricted pred* ranges "
            "over the whole node domain; restrict an endpoint with "
            "another pattern")
    seeds = _distinct(
        acc.map_batches(
            lambda b, v=root_var: pa.table({v: b[v]}),
            batch_format="pyarrow"),
        [root_var], num_buckets=num_buckets)
    pairs = bfs_labeled(edge_ds, seeds, src=esrc, dst=edst,
                        root_col=root_var, hops=STAR_MAX_HOPS,
                        num_buckets=num_buckets)
    pairs = pairs.map_batches(
        lambda b, rv=root_var, tv=other_var: pa.table(
            {rv: b["root"], tv: b["node"]}),
        batch_format="pyarrow")
    keys = [root_var] + ([other_var] if other_var in bound else [])
    acc = hash_join(acc, pairs, keys, keys, num_buckets=num_buckets,
                    left_schema=_sch(bound),
                    right_schema=_sch([root_var, other_var]))
    if other_var not in bound:
        bound = bound + [other_var]
    return acc, bound


def _fold_bindings(streams, num_buckets: int):
    """Join per-pattern binding streams left-to-right on shared variables.
    Returns ``(acc_dataset, bound_vars)``. A stream may be a deferred
    both-unbound ``p*`` marker ``("__star__", terms, edge_ds)`` — lowered
    against the accumulated bindings via :func:`_apply_seeded_star`."""
    from .joins import hash_join

    (acc, bound0), rest = streams[0], streams[1:]
    if isinstance(acc, tuple) and acc and acc[0] == "__star__":
        raise NotImplementedError(
            "ZeroOrMorePath (pred*) with BOTH endpoints unbound needs "
            "another pattern to range-restrict an endpoint first — its "
            "identity rows range over the whole node domain")
    bound = list(bound0)
    for stream, pvars, pattern in rest:
        if isinstance(stream, tuple) and stream and stream[0] == "__star__":
            acc, bound = _apply_seeded_star(acc, bound, stream[1],
                                            stream[2], num_buckets)
            continue
        shared = [v for v in pvars if v in bound]
        if not shared:
            raise ValueError(
                f"pattern {pattern!r} shares no variable with the bindings "
                f"so far ({bound}) — a cartesian product at corpus scale; "
                "reorder the patterns so each connects")
        # plan-known schemas thread through so the join never calls
        # ``ds.schema()`` (join output order = left cols + right's new
        # vars, which is exactly how ``bound`` is built — so the left
        # hint stays exact across iterations, empty results included)
        acc = hash_join(acc, stream, shared, shared,
                        num_buckets=num_buckets,
                        left_schema=_sch(bound), right_schema=_sch(pvars))
        bound += [v for v in pvars if v not in bound]
    return acc, bound


def _estimate_rows(p, stats) -> float:
    """Estimated matching rows for one pattern from a store's write-time
    predicate census: a constant predicate reads its exact count (paths
    strip ``^``/``+`` to the base predicate; alternative lists sum),
    a predicate variable scans everything, and every OTHER bound
    position (subj/obj/graph) divides by 1000 — a crude point-filter
    factor, but the predicate census carries the real mass."""
    counts = stats.get("pred_counts", {})
    n_total = float(stats.get("n_triples") or sum(counts.values()) or 1)
    n_preds = max(int(stats.get("n_preds", len(counts)) or 1), 1)
    avg = n_total / n_preds
    pr = p[1]
    if _is_group_path(pr):
        # grouped path: the scan unions one pruned read per base pred
        base = sum(float(counts.get(x.lstrip("^"), avg))
                   for x in pr[1])
    elif isinstance(pr, (list, tuple, set)):
        base = sum(float(counts.get(x, avg))
                   for x in pr if isinstance(x, str))
    elif isinstance(pr, str) and not _is_var(pr):
        stripped = pr.lstrip("^")
        qm = _QUANT_RE.match(stripped)
        if qm is not None:
            stripped = qm.group(1)
        base = float(counts.get(stripped.rstrip("+*?"), avg))
    else:
        base = n_total
    others = sum(1 for i, t in enumerate(p) if i != 1 and not _is_var(t))
    return base / (1000.0 ** others)


def order_patterns(patterns, stats=None):
    """Greedy selectivity ordering: start from the pattern with the MOST
    constants (constants filter before anything shuffles, so they are the
    selectivity signal available without statistics), then repeatedly take
    the CONNECTED pattern with the most constants. Inner joins commute
    under bag semantics, so any connected order is equivalent — this one
    keeps the accumulated binding set small early. Patterns that cannot
    connect in ANY order fall out at the end and raise in the fold, same
    as before. Ties break by original position (deterministic plans).

    With ``stats`` (a store's write-time predicate census, see
    ``triple_sink.store_stats``) the greedy signal upgrades from
    constants-count to ESTIMATED CARDINALITY (:func:`_estimate_rows`) —
    smallest estimate first, constants-count then position as
    tie-breaks."""
    rem = [(i, p) for i, p in enumerate(patterns)]

    def score(p):
        # a both-unbound pred* can't lead: it only evaluates SEEDED by
        # prior bindings (see _apply_seeded_star) — rank it below even
        # an all-variable scan so the greedy order defers it
        if _star_unbound_terms(p) is not None:
            return -1
        return sum(0 if _is_var(t) else 1 for t in p)

    if stats:
        def rank(ip):
            i, p = ip
            if _star_unbound_terms(p) is not None:
                return (-float("inf"), -1, -i)  # same deferral as score
            return (-_estimate_rows(p, stats), score(p), -i)
    else:
        def rank(ip):
            i, p = ip
            return (score(p), -i)

    def pvars(p):
        return {t[1:] for t in p if _is_var(t)}

    first = max(rem, key=rank)
    ordered = [first[1]]
    rem.remove(first)
    bound = pvars(first[1])
    while rem:
        conn = [ip for ip in rem if pvars(ip[1]) & bound]
        if not conn:
            ordered.extend(p for _i, p in rem)  # fold raises with context
            break
        nxt = max(conn, key=rank)
        ordered.append(nxt[1])
        rem.remove(nxt)
        bound |= pvars(nxt[1])
    return ordered


def _display_vars(patterns):
    """Output column order = first appearance in the USER's pattern order,
    independent of the join order the planner picks."""
    out: list[str] = []
    for p in patterns:
        for t in p:
            if _is_var(t) and t[1:] not in out:
                out.append(t[1:])
    return out


#: FILTER comparators — vectorized pyarrow kernels; a comparison against a
#: NULL optional binding yields null and the row drops (SQL WHERE / SPARQL
#: error-is-false semantics)
_FILTER_OPS = {
    "=": pc.equal, "!=": pc.not_equal,
    "<": pc.less, "<=": pc.less_equal,
    ">": pc.greater, ">=": pc.greater_equal,
}


def _constraint_mask(b: pa.Table, var, op, val):
    """One FILTER constraint → boolean mask over the batch. Ops:
    ``= != < <= > >= contains regex in not_in bound``; value a constant,
    another ``?var``, a regex pattern (``regex``), a value list
    (``in``/``not_in``), or (for ``bound``) True/False. Vectorized."""
    col = b[var[1:] if _is_var(var) else var]
    if op == "contains":
        return pc.match_substring(col, val)
    if op == "regex":  # SPARQL REGEX(?var, pattern) — RE2 kernel
        return pc.match_substring_regex(col, val)
    if op == "in":  # SPARQL ?var IN (...) / inline VALUES
        return pc.is_in(col, value_set=pa.array(list(val)))
    if op == "not_in":
        # negated property sets / NOT IN: invert membership. is_in is
        # never null (a null element is simply absent from the set), so
        # the inversion cannot smuggle nulls through — but a NULL term
        # must NOT match a negation (SPARQL error-is-false), so require
        # validity explicitly
        return pc.and_(pc.invert(pc.is_in(col, value_set=pa.array(list(val)))),
                       pc.is_valid(col))
    if op == "bound":
        return pc.is_valid(col) if val else pc.is_null(col)
    if op in _FILTER_OPS:
        rhs = b[val[1:]] if _is_var(val) else val
        if isinstance(val, (int, float)) and not isinstance(
                val, bool) and pa.types.is_string(col.type):
            # a NUMERIC constant against a STRING term column
            # compares numerically (SPARQL operator semantics):
            # the column casts first — SQL CAST discipline, a
            # non-numeric lexical raises rather than comparing
            # lexicographically. Non-string columns (aggregate
            # outputs in HAVING) compare natively — Arrow
            # promotes int/float without truncation.
            col = pc.cast(col, pa.int64() if isinstance(val, int)
                          else pa.float64())
        return _FILTER_OPS[op](col, rhs)
    raise ValueError(f"unknown FILTER op {op!r}")


def _bool_mask(b: pa.Table, entry):
    """One filter ENTRY → mask: a ``(?var, op, value)`` constraint, or a
    boolean tree ``("or", [entry, ...])`` / ``("and", [entry, ...])`` —
    entries nest arbitrarily (SPARQL ``FILTER(a && (b || c))``). OR uses
    Kleene three-valued semantics (null || true = true); AND's
    null-propagates — for row filtering the outcomes coincide with SQL
    (a null mask drops the row either way)."""
    if entry and entry[0] in ("or", "and") and len(entry) == 2 \
            and isinstance(entry[1], (list, tuple)):
        masks = [pc.cast(_bool_mask(b, c), pa.bool_()) for c in entry[1]]
        out = masks[0]
        for m in masks[1:]:
            out = pc.or_kleene(out, m) if entry[0] == "or" \
                else pc.and_(out, m)
        return out
    return _constraint_mask(b, *entry)


def _apply_filters(ds, filters):
    """``filters`` = list of entries, conjunctive at the top level. Each
    entry is a ``(?var, op, value)`` constraint (see
    :func:`_constraint_mask`) or a nested boolean tree (see
    :func:`_bool_mask`). All vectorized; no shuffle."""
    if not filters:
        return ds

    def f(b: pa.Table) -> pa.Table:
        mask = None
        for entry in filters:
            c = _bool_mask(b, entry)
            mask = c if mask is None else pc.and_(mask, c)
        return b.filter(mask)

    return ds.map_batches(f, batch_format="pyarrow")


def _filter_pushable(f, vars_) -> bool:
    """True when constraint ``f`` references ONLY variables/columns in
    ``vars_`` — then it can run map-side on that pattern's binding stream
    BEFORE any join (filters commute with inner joins, and with left /
    anti / semi joins when applied to the REQUIRED side, which is the
    only side the pushdown touches). The original filter stays in place
    after the fold — deterministic row predicates are idempotent, and
    keeping it covers variables a UNION branch also binds."""
    if f and f[0] in ("or", "and") and len(f) == 2 \
            and isinstance(f[1], (list, tuple)):
        return all(_filter_pushable(c, vars_) for c in f[1])
    var, op, val = f
    name = var[1:] if _is_var(var) else var
    if name not in vars_:
        return False
    if isinstance(val, str) and _is_var(val) and val[1:] not in vars_:
        return False
    if op in _FILTER_OPS and isinstance(val, (int, float)) \
            and not isinstance(val, bool):
        # a numeric comparison CASTS the term column (raising on
        # non-numeric lexicals — the engine's SQL-CAST discipline);
        # pushing it below the joins would raise on rows a join was
        # going to prune before the filter's algebra position, turning
        # working queries into errors — leave these at the top
        return False
    return True


def _group_parts(group):
    """Normalize a nested-group argument: a single pattern tuple, a list
    of patterns, or a dict ``{"patterns": [...], "filters": [...]}`` —
    the dict form carries the group's OWN FILTER constraints (SPARQL
    allows FILTER inside OPTIONAL/MINUS/EXISTS/UNION branches; they
    constrain the group's solutions BEFORE it meets the outer bindings —
    the LeftJoin-condition reading for OPTIONAL). Filters may reference
    only the group's own variables (an outer-variable reference raises
    at evaluation — the engine's bindings are columnar, not correlated
    row contexts)."""
    if isinstance(group, dict):
        return (list(group.get("patterns") or []),
                list(group.get("filters") or []))
    group = [group] if isinstance(group, tuple) else list(group)
    return group, []


def _fold_group(group, streams_for, num_buckets):
    """Fold one nested group (patterns + its own filters) → (ds, vars)."""
    patterns, gfilters = _group_parts(group)
    gstreams = [(*streams_for(p), p) for p in patterns]
    g_acc, g_vars = _fold_bindings(
        [gstreams[0][:2]] + gstreams[1:], num_buckets)
    if gfilters:
        g_acc = _apply_filters(g_acc, gfilters)
    return g_acc, g_vars


def _attach_optionals(acc, bound, optional_groups, streams_for, num_buckets):
    """Left-join each OPTIONAL pattern group onto the required bindings.
    A group is itself a small BGP (folded with the same discipline,
    including its own FILTERs — see :func:`_group_parts`); its bindings
    attach on the variables shared with ``bound`` — unmatched rows keep
    NULL for the group's new variables (SPARQL OPTIONAL)."""
    from .joins import hash_join

    for group in optional_groups or []:
        g_acc, g_vars = _fold_group(group, streams_for, num_buckets)
        shared = [v for v in g_vars if v in bound]
        if not shared:
            raise ValueError(
                f"OPTIONAL group {group!r} shares no variable with the "
                f"required bindings ({bound})")
        g_acc = g_acc.map_batches(
            lambda b, cols=tuple(g_vars): b.select(list(cols)),
            batch_format="pyarrow")
        acc = hash_join(acc, g_acc, shared, shared, how="left",
                        num_buckets=num_buckets,
                        left_schema=_sch(bound), right_schema=_sch(g_vars))
        bound += [v for v in g_vars if v not in bound]
    return acc, bound


def _apply_minus(acc, bound, minus_groups, streams_for, num_buckets):
    """SPARQL MINUS / FILTER NOT EXISTS: drop required bindings for which
    the group has a solution agreeing on the shared variables. One
    co-partitioned LEFT join per group against the group's DISTINCT
    shared-var keys + a null-marker filter — an anti join that supports
    COMPOSITE shared keys (semi_join is single-column)."""
    from .aggregates import distinct
    from .joins import hash_join

    for group in minus_groups or []:
        g_acc, g_vars = _fold_group(group, streams_for, num_buckets)
        shared = [v for v in g_vars if v in bound]
        if not shared:
            raise ValueError(
                f"MINUS group {group!r} shares no variable with the "
                f"required bindings ({bound}) — it would remove nothing "
                "(SPARQL disjoint-domain MINUS) or everything")
        keys = distinct(_anchor(g_acc.map_batches(
            lambda b, cols=tuple(shared): b.select(list(cols)),
            batch_format="pyarrow"), shared), shared)
        # string marker: unmatched rows come back ARROW-NULL on the
        # pandas left-join path (a numeric marker would surface as NaN)
        marked = keys.map_batches(
            lambda b: b.append_column(
                "_m", pa.array(["1"] * len(b), pa.string())),
            batch_format="pyarrow")
        j = hash_join(acc, marked, shared, shared, how="left",
                      num_buckets=num_buckets, left_schema=_sch(bound),
                      right_schema=_sch(list(shared) + ["_m"]))
        acc = j.map_batches(
            lambda b, cols=tuple(bound): b.filter(
                pc.is_null(b["_m"])).select(list(cols)),
            batch_format="pyarrow")
    return acc


def _apply_exists(acc, bound, exists_groups, streams_for, num_buckets):
    """SPARQL FILTER EXISTS: keep required bindings for which the group
    has at least one solution agreeing on the shared variables — the
    positive twin of :func:`_apply_minus` (same DISTINCT-keys + string
    marker left join; the final filter KEEPS matched rows instead of
    dropping them). The witness keys are distinct, so a many-solution
    witness can never duplicate a required row — semi-join semantics."""
    from .aggregates import distinct
    from .joins import hash_join

    for group in exists_groups or []:
        g_acc, g_vars = _fold_group(group, streams_for, num_buckets)
        shared = [v for v in g_vars if v in bound]
        if not shared:
            raise ValueError(
                f"EXISTS group {group!r} shares no variable with the "
                f"required bindings ({bound}) — it would keep everything "
                "or nothing; bind a shared variable")
        keys = distinct(_anchor(g_acc.map_batches(
            lambda b, cols=tuple(shared): b.select(list(cols)),
            batch_format="pyarrow"), shared), shared)
        marked = keys.map_batches(
            lambda b: b.append_column(
                "_m", pa.array(["1"] * len(b), pa.string())),
            batch_format="pyarrow")
        j = hash_join(acc, marked, shared, shared, how="left",
                      num_buckets=num_buckets, left_schema=_sch(bound),
                      right_schema=_sch(list(shared) + ["_m"]))
        acc = j.map_batches(
            lambda b, cols=tuple(bound): b.filter(
                pc.is_valid(b["_m"])).select(list(cols)),
            batch_format="pyarrow")
    return acc


def _apply_values(acc, bound, values, num_buckets):
    """SPARQL VALUES block: ``(["?x", "?y"], [("a", "b"), ...])`` — a
    literal solution table joined into the group pattern on the shared
    variables (pinning them to the listed combinations) and appending
    any variables the patterns don't bind. Bag semantics like SPARQL: a
    duplicated row multiplies matching solutions.

    UNDEF cells (``None``) get SPARQL's row-compatibility semantics: an
    unbound cell is compatible with ANY value, so rows group by their
    defined-cell mask and each group joins on ITS defined shared
    variables only (one equi-join per distinct mask — VALUES blocks are
    query-sized, so the fan-out is bounded by the block, never the
    data); the groups' solutions concatenate. A row (or block) whose
    defined cells share NO variable with the bindings is rejected (a
    cartesian product — same discipline as UNION)."""
    import ray.data as rd

    from .joins import hash_join

    vars_, rows = values
    names = [v[1:] if _is_var(v) else v for v in vars_]
    norm = []
    for r in rows:
        r = (r,) if isinstance(r, str) else tuple(r)
        if len(r) != len(names):
            raise ValueError(
                f"VALUES row {r!r} has {len(r)} cells for {len(names)} "
                f"variables {vars_!r}")
        norm.append(tuple(None if c is None else str(c) for c in r))
    groups: dict = {}
    for r in norm:
        mask = tuple(c is not None for c in r)
        groups.setdefault(mask, []).append(r)

    new_vars = [v for v in names if v not in bound]
    out_bound = bound + new_vars
    if len(groups) > 1:
        # acc feeds one join per mask group — pin it instead of
        # re-executing the upstream fold per group
        acc = acc.materialize()
    outs = []
    for mask, grp in groups.items():
        defined = [n for n, m in zip(names, mask) if m]
        d_shared = [v for v in defined if v in bound]
        if not d_shared:
            raise ValueError(
                f"VALUES rows {grp[:2]!r}… define no variable shared "
                f"with the required bindings ({bound}) — a cartesian "
                "product; bind at least one listed variable in the "
                "patterns")
        tbl = pa.table({
            n: pa.array([r[i] for r in grp], pa.string())
            for i, n in enumerate(names) if mask[i]})
        j = hash_join(acc, rd.from_arrow(tbl), d_shared, d_shared,
                      num_buckets=num_buckets, left_schema=_sch(bound),
                      right_schema=_sch(defined))
        undef_new = [v for v in new_vars if v not in defined]

        def align(b: pa.Table, undef=tuple(undef_new),
                  order=tuple(out_bound)) -> pa.Table:
            for v in undef:
                b = b.append_column(v, pa.nulls(len(b), pa.string()))
            return b.select(list(order))

        outs.append(j.map_batches(align, batch_format="pyarrow"))
    acc = outs[0]
    for more in outs[1:]:
        acc = acc.union(more)
    return acc, out_bound


def _union_bindings(streams_for, branches, num_buckets):
    """SPARQL UNION: evaluate each branch (a pattern group) as its own
    BGP fold, align the branches on the union of their variables (a
    variable missing from a branch is NULL in its rows — SPARQL's
    unbound), and concatenate the streams with ``Dataset.union`` — a
    metadata-level merge, no shuffle. Returns ``(acc, vars)`` with vars
    in first-appearance order across branches."""
    folded = []
    all_vars: list[str] = []
    for br in branches:
        a, v = _fold_group(br, streams_for, num_buckets)
        folded.append((a, list(v)))
        all_vars.extend(x for x in v if x not in all_vars)

    def pad(a, have):
        def f(b: pa.Table, have=tuple(have)) -> pa.Table:
            return pa.table({
                x: (b[x] if x in have else pa.nulls(len(b), pa.string()))
                for x in all_vars})

        return a.map_batches(f, batch_format="pyarrow")

    padded = [pad(a, v) for a, v in folded]
    out = padded[0].union(*padded[1:]) if len(padded) > 1 else padded[0]
    return out, all_vars


#: the BIND expression grammar's operator whitelist (driver-side
#: validation; evaluation is in :func:`_eval_expr`)
_BIND_OPS = frozenset({"concat", "add", "sub", "mul", "div", "strlen",
                       "ucase", "lcase", "substr", "coalesce", "if",
                       "int", "num", "replace", "strbefore", "strafter",
                       "abs", "ceil", "floor", "round", "encode_uri",
                       "md5", "sha1", "sha256", "year", "month", "day",
                       "hours", "minutes", "seconds"})


def _eval_expr(b: pa.Table, expr):
    """Evaluate one BIND expression against a binding batch. Grammar:
    ``"?var"`` (column ref), any non-tuple constant, or a tuple
    ``(op, arg...)`` with op in ``concat | add | sub | mul | div |
    strlen | ucase | lcase | substr | coalesce | if | int | num`` — all
    vectorized pyarrow kernels. NULL propagates (SPARQL: an error on an
    unbound argument leaves the BIND variable unbound): CONCAT with any
    null argument is null, arithmetic on null is null."""
    if isinstance(expr, str) and expr.startswith("?"):
        col = b[expr[1:]]
        return col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
    if not isinstance(expr, tuple):
        return pa.scalar(expr)
    op, raw = expr[0], expr[1:]
    args = [_eval_expr(b, a) for a in raw]
    if op == "concat":
        args = [a if pa.types.is_string(a.type) else pc.cast(a, pa.string())
                for a in args]
        return pc.binary_join_element_wise(*args, "")
    if op in ("add", "sub", "mul"):
        fn = {"add": pc.add, "sub": pc.subtract, "mul": pc.multiply}[op]
        return fn(args[0], args[1])
    if op == "div":  # SPARQL numeric division is decimal/double
        return pc.divide(pc.cast(args[0], pa.float64()),
                         pc.cast(args[1], pa.float64()))
    if op == "strlen":
        return pc.cast(pc.utf8_length(args[0]), pa.int64())
    if op == "ucase":
        return pc.utf8_upper(args[0])
    if op == "lcase":
        return pc.utf8_lower(args[0])
    if op == "substr":  # SPARQL SUBSTR is 1-based
        start = int(raw[1]) - 1
        stop = None if len(raw) < 3 else start + int(raw[2])
        return pc.utf8_slice_codeunits(args[0], start=start, stop=stop)
    if op == "replace":
        # SPARQL REPLACE(str, pattern, replacement) — regex; SPARQL's
        # $N group refs translate to RE2's \N. Pattern/replacement are
        # string CONSTANTS (a per-row pattern would defeat RE2 compile
        # caching and SPARQL queries never need it)
        if not (isinstance(raw[1], str) and isinstance(raw[2], str)):
            raise ValueError("REPLACE pattern/replacement must be "
                             "string constants")
        repl = re.sub(r"\$(\d)", r"\\\1", raw[2])
        return pc.replace_substring_regex(args[0], pattern=raw[1],
                                          replacement=repl)
    if op in ("strbefore", "strafter"):
        if not isinstance(raw[1], str):
            raise ValueError(f"{op.upper()} separator must be a string "
                             "constant")
        sep = re.escape(raw[1])
        pat = (f"(?s)^(?P<m>.*?){sep}" if op == "strbefore"
               else f"(?s){sep}(?P<m>.*)$")
        got = pc.struct_field(pc.extract_regex(args[0], pattern=pat), "m")
        # SPARQL: no-match → "", but a NULL input stays NULL
        return pc.if_else(pc.is_valid(args[0]),
                          pc.coalesce(got, pa.scalar("", pa.string())),
                          pa.nulls(len(args[0]), pa.string()))
    if op in ("abs", "ceil", "floor", "round"):
        # XPath numeric functions: lexical string inputs cast to double
        # first (like the explicit num constructor); ROUND is fn:round —
        # ties toward +∞ (pyarrow's half_up), NOT banker's rounding
        x = args[0]
        t = getattr(x, "type", None)
        if t is not None and not (pa.types.is_integer(t)
                                  or pa.types.is_floating(t)):
            x = pc.cast(x, pa.float64())
        if op == "abs":
            return pc.abs(x)
        if op == "ceil":
            return pc.ceil(x)
        if op == "floor":
            return pc.floor(x)
        return pc.round(x, ndigits=0, round_mode="half_up")
    if op == "coalesce":
        return pc.coalesce(*args)
    if op == "if":
        return pc.if_else(args[0], args[1], args[2])
    if op == "int":
        return pc.cast(args[0], pa.int64())
    if op == "num":
        return pc.cast(args[0], pa.float64())
    if op == "encode_uri":
        # SPARQL ENCODE_FOR_URI: percent-encode everything outside the
        # RFC 3986 unreserved set. Clean values pass vectorized; only
        # rows carrying reserved bytes go through Python (the
        # template-layer iri_encode discipline)
        from urllib.parse import quote

        x = args[0]
        if isinstance(x, pa.ChunkedArray):
            x = x.combine_chunks()
        dirty = pc.match_substring_regex(x, r"[^A-Za-z0-9\-_.~]")
        if not pc.any(dirty).as_py():
            return x
        vals = x.to_pylist()
        m = dirty.to_pylist()
        return pa.array(
            [None if v is None else
             (quote(v, safe="-_.~") if mm else v)
             for v, mm in zip(vals, m)], pa.string())
    if op in ("md5", "sha1", "sha256"):
        # SPARQL hash functions — hex digest of the UTF-8 lexical form;
        # per-row C-speed hashlib (no vectorized kernel exists), null
        # propagates. Mirrors DuckDB md5()/sha256() one-to-one
        import hashlib

        fn = getattr(hashlib, op)
        x = args[0]
        if isinstance(x, pa.ChunkedArray):
            x = x.combine_chunks()
        return pa.array(
            [None if v is None else fn(v.encode()).hexdigest()
             for v in x.to_pylist()], pa.string())
    if op in ("year", "month", "day", "hours", "minutes", "seconds"):
        # xsd:dateTime accessors over the lexical form: unparsable or
        # null lexicals yield NULL (SPARQL error → unbound), matching
        # the engine's error-is-false/unbound discipline. Fractional
        # seconds/timezones are out of this v1's lexical form
        x = args[0]
        if isinstance(x, pa.ChunkedArray):
            x = x.combine_chunks()
        ts = pc.strptime(x, format="%Y-%m-%dT%H:%M:%S", unit="s",
                         error_is_null=True)
        field = {"year": pc.year, "month": pc.month, "day": pc.day,
                 "hours": pc.hour, "minutes": pc.minute,
                 "seconds": pc.second}[op]
        return pc.cast(field(ts), pa.int64())
    raise ValueError(f"unknown BIND operator {op!r}")


def _apply_bind(acc, bound, binds):
    """SPARQL BIND(expr AS ?var): append computed columns to the binding
    stream — one vectorized map, no shuffle. ``binds`` is a list of
    ``("?var", expr)``; later binds may reference earlier ones. Binding
    an already-bound variable is a SPARQL syntax error and raises."""
    if not binds:
        return acc, bound
    binds = [(v[1:] if _is_var(v) else v, e) for v, e in binds]

    def check(expr):  # validate ops on the DRIVER, not inside a Ray task
        if isinstance(expr, tuple):
            if expr[0] not in _BIND_OPS:
                raise ValueError(f"unknown BIND operator {expr[0]!r}")
            for a in expr[1:]:
                check(a)

    for _v, e in binds:
        check(e)
    names = [v for v, _e in binds]
    dup = [v for v in names if v in bound] + \
        [v for i, v in enumerate(names) if v in names[:i]]
    if dup:
        raise ValueError(
            f"BIND target(s) already in scope: {sorted(set(dup))} — "
            "SPARQL forbids rebinding a bound variable")

    def f(b: pa.Table) -> pa.Table:
        for name, expr in binds:
            col = _eval_expr(b, expr)
            if isinstance(col, pa.Scalar):
                col = pa.array([col.as_py()] * len(b), type=col.type)
            b = b.append_column(name, col)
        return b

    return acc.map_batches(f, batch_format="pyarrow"), bound + names


def construct_triples(bindings_ds, templates):
    """SPARQL CONSTRUCT: each binding row instantiates every template
    ``(s, p, o)`` — terms are ``?var`` references into the binding columns
    or constants — emitting one (subj, pred, obj) row per (row, template).
    Fully vectorized (column gather or constant broadcast per term; one
    concat per batch); rows where any referenced variable is NULL (an
    OPTIONAL non-match) are skipped, per the SPARql construct contract."""
    templates = [tuple(t) for t in templates]
    for t in templates:
        if len(t) != 3:
            raise ValueError(f"CONSTRUCT template must be (s, p, o): {t!r}")

    def f(b: pa.Table) -> pa.Table:
        n = len(b)
        outs = []
        for tmpl in templates:
            cols = []
            valid = None
            for term in tmpl:
                if _is_var(term):
                    col = b[term[1:]]
                    if isinstance(col, pa.ChunkedArray):
                        col = col.combine_chunks()
                    col = pc.cast(col, pa.string())
                    v = pc.is_valid(col)
                    valid = v if valid is None else pc.and_(valid, v)
                    cols.append(col)
                else:
                    cols.append(pa.array([term] * n, pa.string()))
            t = pa.table({"subj": cols[0], "pred": cols[1], "obj": cols[2]})
            outs.append(t if valid is None else t.filter(valid))
        return pa.concat_tables(outs)

    return bindings_ds.map_batches(f, batch_format="pyarrow")


def _apply_modifiers(acc, bound, *, select=None, distinct=False,
                     order_by=None, limit=None, offset: int = 0,
                     num_buckets: int = 32):
    """SPARQL solution modifiers over a binding Dataset. Projection and
    DISTINCT are streaming (DISTINCT = the engine's bucketed distinct);
    ORDER BY is a real range sort ONLY when the caller asks for it —
    combined with ``limit`` the full sort is skipped in favor of a
    per-block top-k + one tiny final slice (the SPARQL ``ORDER BY …
    LIMIT k`` idiom never needs a global sort).

    ORDER BY may reference variables OUTSIDE the projection (SPARQL
    algebra runs OrderBy before Project): those queries sort the full
    bindings first and project after. The one unsupported combination is
    DISTINCT + ordering on a non-projected variable — the bucketed
    distinct does not preserve order, so it raises instead of silently
    returning unordered rows."""
    keys = []
    if order_by:
        keys = [(v[1:] if v.startswith("?") else v, d)
                for v, d in ([(o, "ascending") if isinstance(o, str) else o
                              for o in order_by])]

    def project(ds, cols):
        return ds.map_batches(lambda b, c=tuple(cols): b.select(list(c)),
                              batch_format="pyarrow")

    def ordered(ds):
        if limit is not None:
            k = int(limit) + int(offset)

            def topk(b: pa.Table, keys=tuple(keys), k=k) -> pa.Table:
                return b.sort_by(list(keys)).slice(0, k)

            return ds.map_batches(topk, batch_format="pyarrow") \
                     .repartition(1).map_batches(topk, batch_format="pyarrow")
        return ds.sort([k for k, _d in keys],
                       descending=[d == "descending" for _k, d in keys])

    if select is not None:
        vars_ = [v[1:] if v.startswith("?") else v for v in select]
        missing = [v for v in vars_ if v not in bound]
        if missing:
            raise ValueError(
                f"SELECT variables not bound by the pattern: {missing}")
        cols = vars_
    else:
        # SELECT *: project every USER variable — `_anon_*` variables are
        # parser plumbing (sequence-path intermediates, negated-property
        # predicates) and are never part of the solution per SPARQL (path
        # intermediates are existential)
        cols = [v for v in bound if not v.startswith("_anon_")] \
            or list(bound)

    outside = [k for k, _d in keys if k not in cols]
    if outside:
        if distinct:
            raise ValueError(
                f"ORDER BY on non-projected variables {outside} cannot "
                "combine with DISTINCT: the bucketed distinct does not "
                "preserve order — project the ordering variables too")
        acc = ordered(acc)  # SPARQL: OrderBy runs BEFORE Project
        acc = project(acc, cols)
        if offset or limit is not None:
            acc = _offset_limit(acc, offset, limit)
        return acc

    if cols != list(bound):
        # an identity projection is skipped, not mapped: Ray turns every
        # empty block a map_batches sees into a zero-column one, so the
        # extra map would drop an empty result's typed columns
        acc = project(acc, cols)
    if distinct:
        from .aggregates import distinct as _distinct

        acc = _distinct(acc, cols, num_buckets=num_buckets)
    if keys:
        acc = ordered(acc)
    if offset or limit is not None:
        acc = _offset_limit(acc, offset, limit)
    return acc


def _offset_limit(acc, offset: int, limit):
    """OFFSET n LIMIT k without a driver materialize: take the first
    n+k rows (streaming ``limit``), then drop the first n inside one
    single-block map — n+k is query-sized BECAUSE a limit is required:
    OFFSET without LIMIT would coalesce the full result into one block
    (corpus-sized), so it raises instead."""
    if not offset:
        return acc if limit is None else acc.limit(int(limit))
    if limit is None:
        raise ValueError(
            "OFFSET without LIMIT would coalesce the full result set "
            "into one block to drop the first rows — bound the query "
            "with a LIMIT")
    take = int(offset) + int(limit)
    acc = acc.limit(take)
    acc = acc.repartition(1)
    lim = int(limit)

    def drop(b: pa.Table) -> pa.Table:
        return b.slice(offset).slice(0, lim)

    return acc.map_batches(drop, batch_format="pyarrow")


def _apply_group_by(acc, bound, group_by, agg, num_buckets: int):
    """SPARQL ``GROUP BY`` over the bindings: ``agg`` maps output column
    → ``"count"``, ``("sum"|"avg"|"min"|"max", "?var")``,
    ``("count_distinct", "?var")`` (see :func:`_join_count_distinct`) or
    ``("group_concat", "?var"[, sep])``. COUNT-only delegates to the
    engine's map-side-combined :func:`~.aggregates.partial_count`;
    everything else to the generalized :func:`~.aggregates.grouped_agg`
    (one Arrow partial per batch covering EVERY aggregate, one exchange).
    Summed/averaged variables cast to int64 first (the engine-wide
    exact-integer determinism discipline; RDF numeric literals that don't
    parse raise, same as SQL CAST); an all-null group sums/avgs/mins to
    NULL (SQL semantics over OPTIONAL vars) and group_concats to ``""``
    (mirror with ``coalesce(string_agg(v, sep ORDER BY v), '')``; the
    concat is SORTED — SPARQL leaves the order unspecified and sorted is
    the only layout-invariant choice). Returns ``(acc, new_bound)``; the
    solution modifiers then run over the aggregated table, matching the
    SPARQL algebra (Group/Aggregate before Project/OrderBy/Slice)."""
    keys = [v[1:] if v.startswith("?") else v for v in group_by]
    missing = [k for k in keys if k not in bound]
    if missing:
        raise ValueError(f"GROUP BY variables not bound: {missing}")
    agg = dict(agg or {"n": "count"})
    # COUNT(DISTINCT ?v) runs as its own distinct→count pipeline (the
    # distinct is the irreducible extra exchange) and left-joins back
    # onto the main aggregate by the group keys — split it out first
    cdists = {out: (spec[1][1:] if _is_var(spec[1]) else spec[1])
              for out, spec in agg.items()
              if isinstance(spec, tuple) and spec[0] == "count_distinct"}
    for out in cdists:
        del agg[out]
    if cdists:
        # both the main aggregate and each distinct-count pipeline pull
        # from acc — pin it once instead of re-executing the upstream
        # joins per consumer
        acc = acc.materialize()
        if not agg:  # count_distinct-only: keys come from partial_count
            agg = {"_n_drop": "count"}
    sums, avgs, mins, maxs, concats = {}, {}, {}, {}, {}
    counts = []
    for out, spec in agg.items():
        if spec == "count":
            counts.append(out)
            continue
        if not (isinstance(spec, tuple) and len(spec) >= 2):
            raise ValueError(
                f"unsupported aggregate {spec!r} for {out!r} — use "
                "'count', ('sum'|'avg'|'min'|'max', '?var') or "
                "('group_concat', '?var'[, sep])")
        kind, v = spec[0], spec[1]
        v = v[1:] if _is_var(v) else v
        if kind == "sum":
            sums[out] = v
        elif kind == "avg":
            avgs[out] = v
        elif kind == "min":
            mins[out] = v
        elif kind == "max":
            maxs[out] = v
        elif kind == "group_concat":
            concats[out] = (v, spec[2] if len(spec) > 2 else " ")
        else:
            raise ValueError(
                f"unsupported aggregate kind {kind!r} for {out!r}")

    from .aggregates import grouped_agg, partial_count

    if not (sums or avgs or mins or maxs or concats):
        out_ds = partial_count(acc, keys, num_buckets=num_buckets)
        counts = [c for c in counts if c != "_n_drop"]

        def rename(b: pa.Table) -> pa.Table:
            cols = {k: b[k] for k in keys}
            for o in counts:
                cols[o] = b["n"]
            return pa.table(cols)

        return _join_count_distinct(
            out_ds.map_batches(rename, batch_format="pyarrow"),
            keys + counts, acc, keys, cdists, num_buckets)

    # AVG needs its own denominator: Arrow's grouped sum skips nulls but
    # the group count n counts ALL rows, so an OPTIONAL-bound variable
    # with nulls would divide by the wrong count — sum a 0/1 not-null
    # indicator per averaged variable. SUM's all-null→NULL comes free
    # from grouped_agg's min_count discipline.
    nn = {v: f"_nn_{v}" for v in set(avgs.values())}
    num_vars = set(sums.values()) | set(avgs.values())

    def pre(b: pa.Table) -> pa.Table:
        for v, ind in nn.items():
            b = b.append_column(ind, pc.cast(pc.is_valid(b[v]), pa.int64()))
        for v in num_vars:
            b = b.set_column(b.column_names.index(v), v,
                             pc.cast(b[v], pa.int64()))
        return b

    specs = {}
    for o, v in sums.items():
        specs[f"_s_{o}"] = ("sum", v, "int64")
    for o, v in avgs.items():
        specs[f"_s_{o}"] = ("sum", v, "int64")
    for v, ind in nn.items():
        specs[f"_nnsum_{v}"] = ("sum", ind, "int64")
    for o, v in mins.items():
        specs[f"_m_{o}"] = ("min", v)
    for o, v in maxs.items():
        specs[f"_x_{o}"] = ("max", v)
    for o, (v, sep) in concats.items():
        specs[f"_c_{o}"] = ("concat", v, sep)

    out_ds = grouped_agg(acc.map_batches(pre, batch_format="pyarrow"),
                         keys, specs, num_buckets=num_buckets)

    def rename(b: pa.Table) -> pa.Table:
        cols = {k: b[k] for k in keys}
        for o in sums:
            cols[o] = b[f"_s_{o}"]  # all-null group is already NULL
        for o, v in avgs.items():
            # the engine-wide ONE-mirrored-float-division discipline:
            # exact int64 sum and NOT-NULL count cross the shuffle, the
            # only float op is this division (SQL AVG semantics — an
            # all-null group divides 0/0 into null, like SQL)
            denom = pc.cast(b[f"_nnsum_{v}"], pa.float64())
            cols[o] = pc.if_else(
                pc.equal(denom, 0.0), pa.nulls(len(b), pa.float64()),
                pc.divide(pc.cast(b[f"_s_{o}"], pa.float64()), denom))
        for o in mins:
            cols[o] = b[f"_m_{o}"]
        for o in maxs:
            cols[o] = b[f"_x_{o}"]
        for o in concats:
            cols[o] = b[f"_c_{o}"]
        for o in counts:
            cols[o] = b["n"]
        return pa.table(cols)

    new_bound = (keys + list(sums) + list(avgs) + list(mins) + list(maxs)
                 + list(concats) + counts)
    return _join_count_distinct(
        out_ds.map_batches(rename, batch_format="pyarrow"), new_bound,
        acc, keys, cdists, num_buckets)


def _join_count_distinct(out_ds, new_bound, acc, keys, cdists,
                         num_buckets):
    """Attach COUNT(DISTINCT ?v) columns to an aggregated table: per
    output column, drop null ``v`` rows (SQL/SPARQL COUNT DISTINCT
    ignores nulls), DISTINCT over (keys, v), map-side-combined count per
    key, LEFT-join back by the group keys (groups whose ``v`` is
    all-null count 0, like SQL). Each distinct is one extra exchange —
    the irreducible cost of exact distinct-counting; approximate callers
    should use the HLL sketches instead."""
    if not cdists:
        return out_ds, new_bound
    from .aggregates import distinct, partial_count
    from .joins import hash_join

    for out, v in cdists.items():
        d = distinct(acc.map_batches(
            lambda b, v=v: b.filter(pc.is_valid(b[v])).select(keys + [v]),
            batch_format="pyarrow"), keys + [v])
        c = partial_count(d, keys, num_buckets=num_buckets).map_batches(
            lambda b, out=out: pa.table(
                {**{k: b[k] for k in keys}, out: b["n"]}),
            batch_format="pyarrow")
        out_ds = hash_join(out_ds, _anchor(c, keys + [out]), keys, keys,
                           how="left", num_buckets=num_buckets)
        out_ds = out_ds.map_batches(
            lambda b, out=out, cols=tuple(new_bound + [out]): pa.table(
                {c: (pc.fill_null(pc.cast(b[c], pa.int64()), 0)
                     if c == out else b[c]) for c in cols}),
            batch_format="pyarrow")
        new_bound = new_bound + [out]
    return out_ds, new_bound


def _display_for(patterns, union):
    pats = list(patterns)
    for br in (union or []):
        pats.extend([br] if isinstance(br, tuple) else list(br))
    return _display_vars(pats)


def _evaluate_body(streams_for, plan, display, *, optional, minus, union,
                   bind, filters, group_by, agg, having, select, distinct,
                   order_by, limit, offset, num_buckets,
                   exists=None, values=None, subselects=None):
    """The shared SPARQL-algebra pipeline over per-pattern binding
    streams: fold required patterns → join the UNION block → subquery
    joins → VALUES → EXISTS semi-joins → MINUS → OPTIONAL left-joins →
    BIND → FILTER → GROUP BY/HAVING → solution modifiers.
    ``streams_for(pattern) -> (Dataset, vars)`` abstracts the source
    (in-stream scan vs store-pruned scan). ``subselects``: list of
    ``(bindings_ds, ["?v", ...])`` — pre-evaluated sub-SELECT solution
    streams (SPARQL subqueries evaluate bottom-up, so they arrive as
    finished Datasets) joined onto the outer bindings on the shared
    variables, exactly like a UNION block."""
    from .joins import hash_join

    acc = bound = None
    if plan:
        # FILTER pushdown: a constraint whose variables are all bound by
        # one required pattern runs map-side on that pattern's stream —
        # selective filters then prune BEFORE the join shuffle instead of
        # after every join (the filter also stays in its algebra position
        # below; see _filter_pushable for why that is safe)
        streams = []
        for p in plan:
            star_terms = _star_unbound_terms(p)
            if star_terms is not None:
                # both-unbound pred*: defer — lowered to a seeded closure
                # in the fold once an endpoint is range-restricted. The
                # edge stream is the base predicate's PLAIN pattern, so
                # store scans keep their pred pushdown.
                edge_pat = ["?__ps", star_terms[1][:-1], "?__po"]
                if len(star_terms) == 4:
                    edge_pat.append(star_terms[3])
                edge_ds, _ev = streams_for(tuple(edge_pat))
                svars = [t[1:] for t in (star_terms[0], star_terms[2])]
                streams.append((("__star__", star_terms, edge_ds),
                                svars, p))
                continue
            ds, vars_ = streams_for(p)
            elig = [f for f in (filters or [])
                    if _filter_pushable(f, vars_)]
            if elig:
                ds = _apply_filters(ds, elig)
            streams.append((ds, vars_, p))
        acc, bound = _fold_bindings([streams[0][:2]] + streams[1:],
                                    num_buckets)
    if union:
        u_acc, u_vars = _union_bindings(streams_for, union, num_buckets)
        if acc is None:
            acc, bound = u_acc, list(u_vars)
        else:
            shared = [v for v in u_vars if v in bound]
            if not shared:
                raise ValueError(
                    f"UNION block shares no variable with the required "
                    f"bindings ({bound}) — a cartesian product at corpus "
                    "scale; bind a shared variable in every branch")
            acc = hash_join(acc, u_acc, shared, shared,
                            num_buckets=num_buckets,
                            left_schema=_sch(bound),
                            right_schema=_sch(u_vars))
            bound += [v for v in u_vars if v not in bound]
    for sub_ds, sub_vars in (subselects or []):
        s_vars = [v[1:] if _is_var(v) else v for v in sub_vars]
        if acc is None:
            acc, bound = sub_ds, list(s_vars)
            continue
        shared = [v for v in s_vars if v in bound]
        if not shared:
            raise ValueError(
                f"subquery projecting {s_vars} shares no variable with "
                f"the outer bindings ({bound}) — a cartesian product at "
                "corpus scale; project a shared variable")
        acc = hash_join(acc, sub_ds, shared, shared,
                        num_buckets=num_buckets,
                        left_schema=_sch(bound))
        bound += [v for v in s_vars if v not in bound]
    if values is not None:
        acc, bound = _apply_values(acc, bound, values, num_buckets)
    acc = _apply_exists(acc, bound, exists, streams_for, num_buckets)
    acc = _apply_minus(acc, bound, minus, streams_for, num_buckets)
    bound = display + [v for v in bound if v not in display]
    acc, bound = _attach_optionals(acc, bound, optional, streams_for,
                                   num_buckets)
    acc = _anchor(acc.map_batches(
        lambda b, cols=tuple(bound): b.select(list(cols)),
        batch_format="pyarrow"), bound)
    acc, bound = _apply_bind(acc, bound, bind)
    acc = _apply_filters(acc, filters)
    if group_by:
        acc, bound = _apply_group_by(acc, bound, group_by, agg, num_buckets)
        # HAVING = the same vectorized filter machinery over the
        # aggregated table (agg output columns referenced by bare name)
        acc = _apply_filters(acc, having)
    elif having:
        raise ValueError("having= requires group_by=")
    return _apply_modifiers(acc, bound, select=select, distinct=distinct,
                            order_by=order_by, limit=limit, offset=offset,
                            num_buckets=num_buckets)


def evaluate_bgp(triples_ds, patterns, *, optional=None, minus=None,
                 union=None, exists=None, values=None,
                 bind=None, filters=None, reorder: bool = True,
                 group_by=None, agg=None, having=None,
                 select=None, distinct: bool = False, order_by=None,
                 limit=None, offset: int = 0, spill_dir: str | None = None,
                 annotations=None, subselects=None, num_buckets: int = 32):
    """Evaluate a basic graph pattern; returns a Dataset with one column
    per variable (no ``?`` prefix), one row per satisfying binding
    (bag semantics, like SPARQL without DISTINCT).

    ``optional``: list of OPTIONAL pattern groups (each a list of
    patterns, or a single pattern tuple) left-joined onto the required
    bindings — unmatched rows carry NULL for the group's variables.
    ``minus``: list of MINUS / NOT-EXISTS groups — required bindings whose
    shared variables agree with ANY group solution are dropped.
    ``exists``: list of FILTER EXISTS groups — required bindings are KEPT
    only when the group has a solution agreeing on the shared variables
    (distinct-witness semi-join; see :func:`_apply_exists`).
    ``values``: ONE VALUES block ``(["?x", ...], [row, ...])`` — a
    literal solution table joined in on the shared variables
    (:func:`_apply_values`; UNDEF rejected).
    ``union``: ONE UNION block as a list of branches (each a pattern
    group): branch solutions concatenate with NULL for variables a branch
    doesn't bind, then join onto the required bindings on shared
    variables (``patterns=[]`` makes the union the whole query).
    ``bind``: list of ``("?var", expr)`` computed bindings (see
    :func:`_eval_expr` for the vectorized expression grammar), applied
    after OPTIONAL so expressions can reference optional variables.
    ``filters``: list of ``(?var, op, value)`` FILTER constraints
    (see :func:`_apply_filters`) applied after all joins — a comparison
    on an unbound OPTIONAL variable drops the row, exactly like SQL WHERE
    over the mirroring LEFT JOIN.

    Solution modifiers (applied in SPARQL's order, all streaming-shaped —
    see :func:`_apply_modifiers`): ``select`` projects to the given
    variables; ``distinct`` dedups projected rows; ``order_by`` is a list
    of ``"?var"`` or ``("?var", "descending")``; ``limit``/``offset``
    slice the (ordered) solutions — ``order_by`` + ``limit`` runs as
    per-block top-k, never a global sort.

    ``subselects``: list of ``(bindings_ds, ["?v", ...])`` pre-evaluated
    subquery solution streams, joined on shared variables (see
    :func:`_evaluate_body`)."""
    if not patterns and not union and not subselects:
        raise ValueError("empty BGP")

    def group_size(groups):
        return sum(1 if isinstance(g, tuple) else len(g)
                   for g in (groups or []))

    n_scans = (len(patterns) + group_size(optional) + group_size(minus)
               + group_size(union) + group_size(exists))
    if n_scans > 1:
        # one scan per pattern: pin in the object store (fast at query
        # scale) — or, with spill_dir, write the stream to Parquet ONCE
        # and re-read per pattern (the kmeans/IVF storage-backed pattern:
        # a corpus-sized derived triple stream must not pin in the object
        # store for the query's whole duration; a STORED corpus should
        # use evaluate_bgp_store, whose per-pattern scans prune at the
        # read instead)
        if spill_dir is not None:
            import os

            import ray.data as rd

            if os.path.isdir(spill_dir) and os.listdir(spill_dir):
                raise ValueError(
                    f"spill_dir {spill_dir!r} is not empty — write_parquet "
                    "appends uniquely-named files, so reuse would re-read "
                    "the previous contents and silently duplicate every "
                    "triple")
            triples_ds.write_parquet(spill_dir)
            triples_ds = rd.read_parquet(spill_dir)
        else:
            triples_ds = triples_ds.materialize()

    display = _display_for(patterns, union)
    plan = order_patterns(patterns) if reorder and patterns \
        else list(patterns)
    return _evaluate_body(
        lambda p: pattern_bindings(triples_ds, p, annotations),
        plan, display,
        optional=optional, minus=minus, union=union, exists=exists,
        values=values, bind=bind,
        filters=filters, group_by=group_by, agg=agg, having=having,
        select=select, distinct=distinct, order_by=order_by, limit=limit,
        offset=offset, num_buckets=num_buckets, subselects=subselects)


def ask_bgp(triples_ds, patterns, **kwargs) -> bool:
    """SPARQL ASK: does at least one solution exist? Evaluates the BGP
    with ``limit=1`` — the streaming executor stops pulling blocks once
    the limit is satisfied, so a match found early never scans the rest."""
    kwargs.pop("limit", None)
    kwargs.pop("offset", None)
    return evaluate_bgp(triples_ds, patterns, limit=1, **kwargs).count() > 0


def evaluate_bgp_store(store_dir: str, patterns, *, optional=None,
                       minus=None, union=None, exists=None, values=None,
                       bind=None, filters=None,
                       reorder: bool = True,
                       group_by=None, agg=None, having=None,
                       select=None, distinct: bool = False, order_by=None,
                       limit=None, offset: int = 0,
                       obj_index_dir: str | None = None,
                       annotations=None, subselects=None,
                       num_buckets: int = 32):
    """BGP over a hash-partitioned triple STORE with read-level pruning
    per pattern: each pattern's constants push into its own scan
    (pred/obj parquet row-group filters; a pattern binding the store's
    routing key collapses to a ONE-partition point read), so a selective
    pattern never reads the store's full width — the storage-layer
    complement of :func:`evaluate_bgp`'s in-stream filters. ``optional``,
    ``union``, ``bind`` and ``filters`` as in :func:`evaluate_bgp`
    (OPTIONAL/UNION patterns get the same pruned scans).

    ``obj_index_dir``: an object-routed secondary index built by
    ``triple_sink.build_secondary_index`` — obj-bound patterns (subj
    unbound) route their scan to its 1/P point read instead of scanning
    every primary partition. The index is consulted ONLY when fresh
    (``index_is_stale`` false); a stale index silently falls back to the
    primary, so results are always correct.

    FEDERATION: ``store_dir`` may be a LIST of store directories — each
    pattern's pruned scan runs against every store and the streams
    union BEFORE the joins (query a year of daily-crawl stores without
    merging them; each store prunes independently, point reads stay
    point reads per store). Bag semantics over the union: a triple
    asserted in two stores binds twice, exactly like querying their
    concatenation — use DISTINCT (or dedup the stores) when set
    semantics matter. ``obj_index_dir`` is single-store only."""
    import ray.data as rd

    from ..sources.triple_sink import index_is_stale, match_triples

    if not patterns and not union and not subselects:
        raise ValueError("empty BGP")
    stores = [store_dir] if isinstance(store_dir, str) else list(store_dir)
    if not stores:
        raise ValueError("no store directories")
    # obj_index_dir: one dir (single store), or a LIST aligned with the
    # store list (None entries allowed — an index-less store in a
    # federation just scans its primary), so the 1/P obj point read
    # survives multi-store queries. Each index is consulted only when
    # FRESH; a stale one silently falls back to its primary.
    if obj_index_dir is None:
        idx_dirs: "list[str | None]" = [None] * len(stores)
    elif isinstance(obj_index_dir, str):
        if len(stores) > 1:
            raise ValueError(
                "a federated query needs one obj_index_dir PER store "
                "(a list aligned with the store list, None where a "
                "store has no index) — a single directory cannot say "
                "which store it serves")
        idx_dirs = [obj_index_dir]
    else:
        idx_dirs = list(obj_index_dir)
        if len(idx_dirs) != len(stores):
            raise ValueError(
                f"obj_index_dir list has {len(idx_dirs)} entries for "
                f"{len(stores)} stores — align them (None where a "
                "store has no index)")
    use_index = [d if d is not None and not index_is_stale(d) else None
                 for d in idx_dirs]

    # constant propagation: a top-level FILTER(?v = "const") makes ?v a
    # constant for every REQUIRED pattern's SCAN — the equality pushes
    # into the parquet read like a pattern constant (row-group pruning;
    # a routing-key variable collapses to the 1-partition point read).
    # Top-level filters are conjunctive, so this is always sound for the
    # required fold; the filter itself stays in its algebra position
    # (group streams — OPTIONAL/MINUS/UNION — are not touched)
    eq_consts = {}
    for f in (filters or []):
        if f and f[0] not in ("or", "and"):
            var, op, val = f
            if op == "=" and _is_var(var) and isinstance(val, str) \
                    and not _is_var(val):
                eq_consts[var] = val
    required_pats = {id(p) for p in patterns}

    def one_store(sdir, pattern, idx=None):
        pos = _pos_for(pattern)
        p = pattern[1]
        if isinstance(p, str) and not _is_var(p) and p.startswith("^"):
            p = p[1:]  # inverse path scans the same predicate's rows
        if _is_group_path(p):
            # grouped path: union one pruned per-predicate scan per
            # DISTINCT base predicate (each keeps its pred pushdown)
            bases = sorted({e.lstrip("^") for e in p[1]})
            kw2 = {}
            if len(pattern) == 4 and isinstance(pattern[3], str) \
                    and not _is_var(pattern[3]):
                kw2["graph"] = pattern[3]
            scans = [match_triples(sdir, pred=b, **kw2) for b in bases]
            parts = [rd.from_arrow(x) if isinstance(x, pa.Table) else x
                     for x in scans]
            out = parts[0]
            for more in parts[1:]:
                out = out.union(more)
            return out
        if _is_path(p) or _is_star(p) or _is_opt_path(p) or _is_quant(p):
            # path pattern: scan ONLY the base predicate's rows (pred
            # pushdown, plus the graph scope when constant); endpoint
            # constants filter the closure/traversal, not the scan —
            # intermediate hops must all be present
            base_p = _QUANT_RE.match(p).group(1) if _is_quant(p) \
                else p[:-1]
            kw = {"pred": base_p}
            if len(pattern) == 4 and isinstance(pattern[3], str) \
                    and not _is_var(pattern[3]):
                kw["graph"] = pattern[3]
            return match_triples(sdir, **kw)
        # scalar constants push into the scan; list terms
        # (alternative paths / inline VALUES) filter map-side in
        # pattern_bindings instead. Inverse (^p) scans with the
        # NORMALIZED pred and swapped endpoints.
        s, o = pattern[0], pattern[2]
        if p != pattern[1]:
            s, o = o, s
        quad = [s, p, o] + list(pattern[3:])
        consts = {col: t for col, t in zip(pos, quad)
                  if not _is_var(t) and isinstance(t, str)}
        if eq_consts and id(pattern) in required_pats:
            for col, t in zip(pos, quad):
                if isinstance(t, str) and _is_var(t) \
                        and t in eq_consts:
                    consts.setdefault(col, eq_consts[t])
        # obj-bound, subj-unbound pattern + a FRESH obj-routed
        # secondary index → the 1/P point read it was built for
        # (subj-bound patterns already point-read the primary)
        src = sdir
        if idx is not None and "obj" in consts \
                and "subj" not in consts:
            src = idx
        return match_triples(src, **consts)

    def stream_for(pattern):
        parts = []
        for sdir, idx in zip(stores, use_index):
            got = one_store(sdir, pattern, idx)
            if isinstance(got, pa.Table):  # point read → tiny in-memory
                got = rd.from_arrow(got)
            parts.append(got)
        out = parts[0]
        for more in parts[1:]:
            out = out.union(more)
        return out

    display = _display_for(patterns, union)
    if reorder and patterns:
        from ..sources.triple_sink import store_stats

        # federated planning: sum the per-store predicate censuses when
        # EVERY store has one (a missing census would silently bias the
        # order toward the stores that have stats)
        merged: "dict | None" = None
        for sdir in stores:
            st = store_stats(sdir)
            if st is None:
                merged = None
                break
            if merged is None:
                merged = {"pred_counts": dict(st.get("pred_counts", {})),
                          "n_preds": st.get("n_preds", 0),
                          "n_triples": st.get("n_triples", 0)}
            else:
                for k, n in st.get("pred_counts", {}).items():
                    merged["pred_counts"][k] = \
                        merged["pred_counts"].get(k, 0) + int(n)
                merged["n_preds"] = max(merged["n_preds"],
                                        st.get("n_preds", 0))
                merged["n_triples"] += st.get("n_triples", 0)
        plan = order_patterns(patterns, stats=merged)
    else:
        plan = list(patterns)
    return _evaluate_body(
        lambda p: pattern_bindings(stream_for(p), p, annotations),
        plan, display,
        optional=optional, minus=minus, union=union, exists=exists,
        values=values, bind=bind,
        filters=filters, group_by=group_by, agg=agg, having=having,
        select=select, distinct=distinct, order_by=order_by, limit=limit,
        offset=offset, num_buckets=num_buckets, subselects=subselects)
