"""Textual SPARQL front-end: compile a SPARQL 1.1 query STRING onto the
engine's structured algebra (:func:`~.bgp.evaluate_bgp` /
:func:`~.bgp.evaluate_bgp_store` kwargs), so a user can query a triple
stream or a partitioned store with real SPARQL text instead of Python
pattern tuples. The reference system exposes no query layer at all
(``/root/reference/src/cattle.py`` converts CSV→RDF and stops), so this
whole surface is beyond-reference; the text layer adds NOTHING to the
execution semantics — every construct lowers to the already
oracle-checked evaluators, and parsing is driver-side, query-sized work
(never per batch, never inside a Ray task).

Supported grammar (the engine's implemented algebra, no more):

* ``SELECT [DISTINCT] (* | vars | (expr AS ?v) | (AGG(...) AS ?v))``,
  ``ASK``, ``CONSTRUCT { template } WHERE``
* ``PREFIX`` prologue, ``a`` ≡ ``rdf:type``, ``;``/``,`` triple
  abbreviations, blank nodes ``_:b`` as non-projected variables
* graph patterns: conjunction, ``OPTIONAL``, ``MINUS``, subqueries
  ``{ SELECT ... }`` (bottom-up evaluation, joined on shared variables;
  explicit projection required), one
  ``UNION`` chain, one ``VALUES`` block (incl. ``UNDEF`` —
  row-compatibility: one equi-join per defined-cell mask group),
  ``GRAPH term { … }`` (quad patterns), ``BIND(expr AS ?v)``
* property paths on the predicate: ``p+``, ``^p``, ``p1|p2`` (and
  ``^p+``), SequencePath ``e1/e2/…`` (lowered to the spec's
  fresh-variable chain; intermediates are hidden from ``SELECT *``),
  negated property sets ``!p`` / ``!(p1|p2)`` (a fresh predicate
  variable + a vectorized ``not_in`` filter); ``p*``, ``p?``,
  ``p{n,m}`` and grouped ``(p1/p2)+`` (one closure kernel; a
  zero-length form needs a bound endpoint or a sibling pattern to seed
  its identity rows, else raises the identity-rows scale rationale);
  mixing ``/``
  with ``|`` in one path (needs grouping parens) is rejected with the
  UNION workaround
* ``FILTER``: ``= != < <= > >=`` (numeric RHS compares numerically —
  the column casts, SQL CAST discipline), ``CONTAINS``, ``REGEX``,
  ``STRSTARTS``/``STRENDS``, ``IN``, ``BOUND``/``!BOUND``,
  ``isIRI``/``isURI``/``isLiteral`` (over the converters' ``obj_is_iri``
  side column, like LANG/DATATYPE), full boolean
  expressions — ``&&`` / ``||`` with SPARQL precedence and
  parenthesized groups nesting freely — and ``EXISTS`` / ``NOT
  EXISTS`` groups
* expression functions (``BIND``, ``SELECT (expr AS ?v)``, ``ORDER BY``
  keys): ``CONCAT STRLEN UCASE LCASE SUBSTR REPLACE STRBEFORE STRAFTER
  STR COALESCE IF ABS CEIL FLOOR ROUND`` (XPath fn:round — ties toward
  +∞), arithmetic ``+ - * /``, and xsd constructor casts
* aggregates: ``COUNT(*)``, ``COUNT(DISTINCT ?v)``, ``SUM/AVG/MIN/MAX``,
  ``SAMPLE`` (deterministic: lowers to MIN),
  ``GROUP_CONCAT(?v; SEPARATOR="…")``; ``GROUP BY`` over variables or
  ``(expr AS ?v)`` group conditions (pre-group BINDs) + ``HAVING``
  (FILTER's full boolean grammar — ``&&``/``||``/parens);
  aggregates WITHOUT ``GROUP BY`` group over a synthetic constant key
  (SPARQL's single implicit group)
* solution modifiers: ``ORDER BY`` (``ASC``/``DESC``, over variables
  OR expressions — an expression lowers to a hidden pre-projection
  ``BIND``; grouped queries must alias the aggregate and order by the
  alias), ``LIMIT``, ``OFFSET``

Literal terms lower to their LEXICAL FORM — the engine's triple tables
carry plain strings with datatype/lang in side columns, so
``"119719"^^xsd:decimal`` matches the stored ``119719`` regardless of
annotation (consistent with the structured query layer).

Anything outside the engine's algebra raises ``SparqlSyntaxError`` with
the reason, never silently mis-evaluates.
"""
from __future__ import annotations

import re

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
_XSD = "http://www.w3.org/2001/XMLSchema#"

#: xsd constructor functions usable as BIND casts → engine expr op
_XSD_CASTS = {
    _XSD + "integer": "int", _XSD + "int": "int", _XSD + "long": "int",
    _XSD + "double": "num", _XSD + "decimal": "num", _XSD + "float": "num",
}


class SparqlSyntaxError(ValueError):
    """Raised for text the grammar (or the engine's algebra) rejects."""


# ---------------------------------------------------------------- tokens

_TOKEN_RE = re.compile(r"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<IRI><[^<>"{}|^`\\\s]*>)
  | (?P<VAR>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<BNODE>_:[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<LANG>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
  | (?P<NUM>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<PNAME>[A-Za-z_][A-Za-z0-9_.-]*?:(?:[A-Za-z0-9_.%-]*[A-Za-z0-9_%-])?)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>&&|\|\||!=|<=|>=|\^\^|[{}()\[\].;,*+|^/=<>!?])
""", re.VERBOSE)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "'": "'",
            "\\": "\\", "b": "\b", "f": "\f"}


def _unescape(s: str) -> str:
    out, i = [], 0
    while i < len(s):
        c = s[i]
        if c == "\\" and i + 1 < len(s):
            nxt = s[i + 1]
            if nxt == "u" and i + 5 < len(s):
                out.append(chr(int(s[i + 2:i + 6], 16)))
                i += 6
                continue
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def _tokenize(text: str):
    """→ list of (kind, value) with whitespace/comments dropped. The
    IRI alternative wins over ``<``-as-less-than by regex order; a bare
    ``<`` not opening a valid IRIREF tokenizes as OP."""
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SparqlSyntaxError(
                f"cannot tokenize at offset {pos}: {text[pos:pos+20]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "WS":
            continue
        toks.append((kind, m.group()))
    toks.append(("EOF", ""))
    return toks


# ---------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.prefixes: dict[str, str] = {}
        self._bn = 0  # fresh anonymous-variable counter
        #: pre-group BINDs synthesized for aggregate-over-expression
        #: forms (SUM(?a * ?b) → BIND(?a * ?b AS ?_anon_N) + SUM(?_anon_N))
        self._agg_binds: list = []
        #: "?var" → {"lang", "datatype"} — annotation side columns the
        #: FILTERs need projected (collected while parsing constraints)
        self.annotations: dict[str, set] = {}

    # -- token helpers ----------------------------------------------
    def peek(self, k=0):
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def at_kw(self, *words) -> bool:
        k, v = self.peek()
        return k == "NAME" and v.upper() in words

    def eat_kw(self, word):
        if not self.at_kw(word):
            raise SparqlSyntaxError(
                f"expected {word}, got {self.peek()[1]!r}")
        return self.next()

    def eat_op(self, op):
        k, v = self.peek()
        if k != "OP" or v != op:
            raise SparqlSyntaxError(f"expected {op!r}, got {v!r}")
        return self.next()

    def at_op(self, *ops) -> bool:
        k, v = self.peek()
        return k == "OP" and v in ops

    # -- terms ------------------------------------------------------
    def _expand_pname(self, pname: str) -> str:
        pfx, _, local = pname.partition(":")
        if pfx not in self.prefixes:
            raise SparqlSyntaxError(f"undeclared prefix {pfx!r}:")
        return self.prefixes[pfx] + local

    def iri(self) -> str:
        k, v = self.peek()
        if k == "IRI":
            self.next()
            return v[1:-1]
        if k == "PNAME":
            self.next()
            return self._expand_pname(v)
        if k == "NAME" and v == "a":
            self.next()
            return RDF_TYPE
        raise SparqlSyntaxError(f"expected an IRI, got {v!r}")

    def literal(self) -> str:
        """A literal's LEXICAL FORM (datatype/lang annotations consumed
        and dropped — the engine matches plain strings)."""
        k, v = self.next()
        assert k == "STRING"
        lex = _unescape(v[1:-1])
        nk, nv = self.peek()
        if nk == "OP" and nv == "^^":
            self.next()
            self.iri()
        elif nk == "LANG":
            self.next()
        return lex

    def term(self):
        """subject/object position: var, iri, literal, number, bnode."""
        k, v = self.peek()
        if k == "VAR":
            self.next()
            return "?" + v[1:]
        if k == "BNODE":
            self.next()
            return "?_bn_" + v[2:]
        if k in ("IRI", "PNAME") or (k == "NAME" and v == "a"):
            return self.iri()
        if k == "STRING":
            return self.literal()
        if k == "NUM":
            self.next()
            return v  # lexical form — terms are strings end-to-end
        if k == "NAME" and v.lower() in ("true", "false"):
            self.next()
            return v.lower()
        raise SparqlSyntaxError(f"expected a term, got {v!r}")

    def fresh_var(self) -> str:
        self._bn += 1
        return f"?_anon_{self._bn}"

    # -- predicate path ---------------------------------------------
    def _path_elt(self):
        """ONE sequence element: ``iri``, ``^iri``, ``iri+``, ``^iri+``,
        or a negated property set ``!iri`` / ``!(iri1|iri2|…)`` (returned
        as ``("neg", [iris])`` — lowered to a fresh predicate variable +
        a ``not_in`` filter by the triples block)."""
        if self.at_op("!"):
            self.next()
            if self.at_op("("):
                self.next()
                preds = [self.iri()]
                while self.at_op("|"):
                    self.next()
                    if self.at_op("^"):
                        raise SparqlSyntaxError(
                            "^ inside a negated property set is not "
                            "supported — negate forward predicates only")
                    preds.append(self.iri())
                self.eat_op(")")
            else:
                if self.at_op("^"):
                    raise SparqlSyntaxError(
                        "^ inside a negated property set is not "
                        "supported — negate forward predicates only")
                preds = [self.iri()]
            if self.at_op("+", "*", "?"):
                raise SparqlSyntaxError(
                    "path modifiers on a negated property set are not "
                    "supported")
            return ("neg", preds)
        if self.at_op("("):
            return self._path_group()
        inv = False
        if self.at_op("^"):
            self.next()
            inv = True
        if self.at_op("("):
            raise SparqlSyntaxError(
                "inverse of a path group (^(…)) is not supported — "
                "invert the elements instead: (^p2/^p1)")
        p = self.iri()
        if self.at_op("+"):
            self.next()
            p += "+"
        elif self.at_op("*"):
            # ZeroOrMorePath parses; the ENGINE seeds its closure from a
            # bound endpoint (or a sibling pattern's bindings) and raises
            # the identity-rows rationale when nothing restricts it
            self.next()
            p += "*"
        elif self.at_op("?"):
            # ZeroOrOnePath: identity ∪ one hop — same seeding gate as *
            # (zero-length rows range over the node domain)
            self.next()
            p += "?"
        elif self.at_op("{"):
            p += self._quantifier()
        if inv:
            p = "^" + p
        return p

    def _quantifier(self) -> str:
        """``{n,m}`` / ``{n}`` after a path element or group (a
        widely-used extension — dropped from the final SPARQL 1.1
        grammar but common in practice): lowers to the engine's bounded
        level-join expansion with SET semantics per (s, o) pair.
        ``{n,}`` (unbounded) is rejected — that's p+ / p* territory."""
        self.eat_op("{")
        k, v = self.next()
        if k != "NUM" or not v.isdigit():
            raise SparqlSyntaxError(
                f"path quantifier expects a non-negative integer, "
                f"got {v!r}")
        lo = int(v)
        hi = lo
        if self.at_op(","):
            self.next()
            if self.at_op("}"):
                raise SparqlSyntaxError(
                    "unbounded path quantifier {n,} is not supported — "
                    "use p+ (or p* with a bound endpoint)")
            k, v = self.next()
            if k != "NUM" or not v.isdigit():
                raise SparqlSyntaxError(
                    f"path quantifier expects a non-negative integer, "
                    f"got {v!r}")
            hi = int(v)
        self.eat_op("}")
        if hi < lo:
            raise SparqlSyntaxError(
                f"path quantifier {{{lo},{hi}}}: max < min")
        if hi == 0:
            raise SparqlSyntaxError(
                "path quantifier {0,0} is the empty path")
        return f"{{{lo},{hi}}}"

    def _path_group(self):
        """Parenthesized path group ``(p1/p2)`` / ``(p1|p2)`` followed
        by a REQUIRED modifier (``+``/``*``/``?``/``{n,m}``) — lowers
        to the engine's composite-edge form ``("pseq"|"palt", elems,
        mod)`` (read by bgp._parse_path; one composite edge set closed
        by the path kernel). Elements are plain or
        inverse IRIs; a group without a modifier is just its sequence
        (use ``p1/p2`` directly); mixing ``/`` and ``|`` inside one
        group still needs a UNION."""
        self.eat_op("(")
        inv = False
        if self.at_op("^"):
            self.next()
            inv = True
        first = ("^" if inv else "") + self.iri()
        elems = [first]
        kind = None
        while self.at_op("/", "|"):
            op = self.peek()[1]
            if kind is None:
                kind = "pseq" if op == "/" else "palt"
            elif (op == "/") != (kind == "pseq"):
                raise SparqlSyntaxError(
                    "mixing | and / inside one path group is not "
                    "supported — split into a UNION")
            self.next()
            inv = False
            if self.at_op("^"):
                if kind == "palt":
                    raise SparqlSyntaxError(
                        "^ inside a path alternative group is not "
                        "supported")
                self.next()
                inv = True
            elems.append(("^" if inv else "") + self.iri())
        self.eat_op(")")
        if kind is None:
            kind = "pseq"  # single-element group: sequence of one
        if kind == "palt" and any(e.startswith("^") for e in elems):
            raise SparqlSyntaxError(
                "^ inside a path alternative group is not supported")
        if self.at_op("+", "*", "?"):
            mod = self.next()[1]
        elif self.at_op("{"):
            mod = self._quantifier()
        else:
            if kind == "palt":
                return list(elems)  # plain alternative — engine list form
            return ("seq", list(elems))  # plain sequence — fresh-var chain
        return (kind, list(elems), mod)

    def path(self):
        """Predicate position: ``?p``, ``iri``, ``^iri``, ``iri+``,
        ``^iri+``, ``iri1|iri2|…`` (alternatives must be plain IRIs —
        the engine's list form carries no per-branch modifiers),
        ``!iri`` / ``!(iri1|iri2)`` negated property sets, and
        SequencePath ``e1/e2/…`` (each element any of the non-alternative
        forms; returned as ``("seq", [elements])`` and lowered to a
        fresh-variable chain per the SPARQL 1.1 path translation —
        bag semantics preserved)."""
        k, v = self.peek()
        if k == "VAR":
            self.next()
            return "?" + v[1:]
        p = self._path_elt()
        if self.at_op("|"):
            from .bgp import _parse_path

            if not isinstance(p, str) or p.startswith("^") \
                    or _parse_path(p) is not None:
                raise SparqlSyntaxError(
                    "path alternatives must be plain IRIs (no ^/+/! "
                    "inside p1|p2)")
            alts = [p]
            while self.at_op("|"):
                self.next()
                alts.append(self.iri())
                if self.at_op("+", "^", "*"):
                    raise SparqlSyntaxError(
                        "path alternatives must be plain IRIs")
            if self.at_op("/"):
                raise SparqlSyntaxError(
                    "mixing | and / in one path needs grouping parens, "
                    "which are not supported — split the query into a "
                    "UNION of sequence paths")
            return alts
        if self.at_op("/"):
            elems = [p]
            while self.at_op("/"):
                self.next()
                elems.append(self._path_elt())
                if self.at_op("|"):
                    raise SparqlSyntaxError(
                        "mixing / and | in one path needs grouping parens, "
                        "which are not supported — split the query into a "
                        "UNION of sequence paths")
            return ("seq", elems)
        return p

    # -- query top level ----------------------------------------------
    def parse(self) -> dict:
        while self.at_kw("PREFIX"):
            self.next()
            k, v = self.next()
            if k != "PNAME" or not v.endswith(":"):
                raise SparqlSyntaxError(f"bad PREFIX name {v!r}")
            kk, vv = self.next()
            if kk != "IRI":
                raise SparqlSyntaxError(f"bad PREFIX iri {vv!r}")
            self.prefixes[v[:-1]] = vv[1:-1]
        if self.at_kw("BASE"):
            raise SparqlSyntaxError("BASE is not supported — use full IRIs")
        if self.at_kw("SELECT"):
            return self._select()
        if self.at_kw("ASK"):
            return self._ask()
        if self.at_kw("CONSTRUCT"):
            return self._construct()
        if self.at_kw("DESCRIBE"):
            return self._describe()
        raise SparqlSyntaxError(
            f"expected SELECT / ASK / CONSTRUCT / DESCRIBE, "
            f"got {self.peek()[1]!r}")

    def _finish(self, q: dict):
        if self.peek()[0] != "EOF":
            raise SparqlSyntaxError(
                f"unexpected trailing input: {self.peek()[1]!r}")
        if self.annotations:
            q["annotations"] = {k: tuple(sorted(v))
                                for k, v in self.annotations.items()}
        return q

    def _select(self, nested: bool = False) -> dict:
        self.eat_kw("SELECT")
        q: dict = {"kind": "select", "distinct": False, "select": None,
                   "agg": {}, "select_binds": []}
        if self.at_kw("DISTINCT"):
            self.next()
            q["distinct"] = True
        if self.at_kw("REDUCED"):
            self.next()  # REDUCED permits-but-does-not-require dedup
        if self.at_op("*"):
            self.next()
        else:
            sel: list[str] = []
            while True:
                k, v = self.peek()
                if k == "VAR":
                    self.next()
                    sel.append("?" + v[1:])
                elif self.at_op("("):
                    self.next()
                    self._select_expr(q, sel)
                else:
                    break
            if not sel:
                raise SparqlSyntaxError("empty SELECT clause")
            q["select"] = sel
        if self._agg_binds:
            # synthesized aggregate-argument binds apply PRE-group like
            # any user BIND; collected per query (subqueries snapshot)
            q["agg_binds"] = list(self._agg_binds)
            self._agg_binds = []
        if nested and q["select"] is None:
            raise SparqlSyntaxError(
                "subqueries must project an explicit variable list "
                "(SELECT * in a subquery hides which variables join "
                "outward)")
        self._where(q)
        self._modifiers(q)
        if nested:
            return q
        return self._finish(q)

    def _select_expr(self, q: dict, sel: list):
        """``( AGG(...) AS ?v )`` or ``( expr AS ?v )`` in SELECT."""
        k, v = self.peek()
        agg = None
        if k == "NAME" and v.upper() in (
                "COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT",
                "SAMPLE"):
            agg = self._aggregate(v.upper())
        else:
            agg = None
            expr = self.expr()
        self.eat_kw("AS")
        kk, vv = self.next()
        if kk != "VAR":
            raise SparqlSyntaxError(f"expected ?var after AS, got {vv!r}")
        out = vv[1:]
        self.eat_op(")")
        if agg is not None:
            q["agg"][out] = agg
        else:
            q["select_binds"].append(("?" + out, expr))
        sel.append("?" + out)

    def _aggregate(self, fn: str):
        self.next()  # the function name
        self.eat_op("(")
        if fn == "COUNT":
            if self.at_op("*"):
                self.next()
                self.eat_op(")")
                return "count"
            if self.at_kw("DISTINCT"):
                self.next()
                k, v = self.next()
                if k != "VAR":
                    raise SparqlSyntaxError("COUNT(DISTINCT ?var) expected")
                self.eat_op(")")
                return ("count_distinct", "?" + v[1:])
            k, v = self.next()
            if k != "VAR":
                raise SparqlSyntaxError("COUNT(*) or COUNT(?var) expected")
            self.eat_op(")")
            # COUNT(?v) counts non-null ?v — the engine's count counts
            # rows; expressible exactly only when ?v is required-bound
            return ("count_var", "?" + v[1:])
        expr = self.expr()
        if isinstance(expr, str) and expr.startswith("?"):
            var = expr
        else:
            # aggregate over an EXPRESSION — SUM(?a * ?b) — lowers to a
            # fresh pre-group BIND of the expression, aggregated by name
            var = self.fresh_var()
            self._agg_binds.append((var, expr))
        if fn == "GROUP_CONCAT":
            sep = " "
            if self.at_op(";"):
                self.next()
                self.eat_kw("SEPARATOR")
                self.eat_op("=")
                kk, vv = self.next()
                if kk != "STRING":
                    raise SparqlSyntaxError("SEPARATOR expects a string")
                sep = _unescape(vv[1:-1])
            self.eat_op(")")
            return ("group_concat", var, sep)
        self.eat_op(")")
        if fn == "SAMPLE":
            # SPARQL leaves SAMPLE's pick unspecified; MIN is the only
            # layout-invariant (deterministic, partition-independent)
            # choice, and any value the group contains is a valid sample
            return ("min", var)
        return (fn.lower(), var)

    def _describe(self) -> dict:
        """``DESCRIBE <iri>`` / ``DESCRIBE ?x WHERE { … }`` lowers to a
        CONSTRUCT: the target's outgoing triples ``(target, ?_dp, ?_do)``
        join the (optional) WHERE group — on a store source the
        subject-bound pattern is the adjacency layout's 1-partition
        point read. The description is the SUBJECT's concise view
        (outgoing arcs; SPARQL leaves DESCRIBE's extent
        implementation-defined). Result triples are DISTINCT — a
        description is a graph, not a bag."""
        self.eat_kw("DESCRIBE")
        k, v = self.peek()
        if k == "VAR":
            self.next()
            target = "?" + v[1:]
        else:
            target = self.iri()
        q: dict = {"kind": "construct", "distinct": True, "select": None,
                   "agg": {}, "select_binds": [],
                   "templates": [(target, "?_dp", "?_do")]}
        if self.at_kw("WHERE") or self.at_op("{"):
            if target.startswith("?") is False:
                raise SparqlSyntaxError(
                    "DESCRIBE <iri> takes no WHERE clause — bind a "
                    "?variable to describe pattern results")
            self._where(q)
        elif target.startswith("?"):
            raise SparqlSyntaxError(
                "DESCRIBE ?var needs a WHERE clause binding it")
        else:
            q.update({"patterns": [], "optional": [], "minus": [],
                      "exists": [], "union": None, "values": None,
                      "bind": [], "filters": []})
        q["patterns"] = list(q["patterns"]) + [(target, "?_dp", "?_do")]
        # DISTINCT over exactly the triple projection (group variables
        # outside it must not preserve duplicate descriptions)
        q["select"] = ([target] if target.startswith("?") else []) \
            + ["?_dp", "?_do"]
        self._modifiers(q)
        return self._finish(q)

    def _ask(self) -> dict:
        self.eat_kw("ASK")
        q: dict = {"kind": "ask", "distinct": False, "select": None,
                   "agg": {}, "select_binds": []}
        self._where(q)
        return self._finish(q)

    def _construct(self) -> dict:
        self.eat_kw("CONSTRUCT")
        q: dict = {"kind": "construct", "distinct": False, "select": None,
                   "agg": {}, "select_binds": []}
        if self.at_kw("WHERE"):
            # CONSTRUCT WHERE { … } shorthand: the WHERE patterns double
            # as the template (SPARQL 1.1 §10.2.2) — plain triples only,
            # so paths/quads/groups in the body are rejected
            self.next()
            body = self.group()
            extra = [k for k in ("optional", "minus", "exists", "bind",
                                 "filters", "subselects") if body[k]]
            if extra or body["union"] is not None \
                    or body["values"] is not None:
                raise SparqlSyntaxError(
                    "CONSTRUCT WHERE is the template shorthand — the "
                    "body must be plain triple patterns (found "
                    f"{extra or 'union/values'}); use the full "
                    "CONSTRUCT { … } WHERE { … } form")
            bad = [p for p in body["patterns"]
                   if not _is_template_pattern(p)
                   or any(isinstance(t, str) and t.startswith("?_anon_")
                          for t in p)]
            if bad:
                raise SparqlSyntaxError(
                    f"CONSTRUCT WHERE patterns double as templates — "
                    f"paths/quads not allowed: {bad[0]!r}")
            q.update(body)
            q["templates"] = list(body["patterns"])
            self._modifiers(q)
            return self._finish(q)
        self.eat_op("{")
        templates = []
        while not self.at_op("}"):
            s = self.term()
            while True:
                k, v = self.peek()
                if k == "VAR":
                    self.next()
                    p = "?" + v[1:]
                else:
                    p = self.iri()
                o = self.term()
                templates.append((s, p, o))
                if self.at_op(","):
                    self.next()
                    while True:
                        templates.append((s, p, self.term()))
                        if self.at_op(","):
                            self.next()
                            continue
                        break
                if self.at_op(";"):
                    self.next()
                    if self.at_op(".", "}"):
                        break
                    continue
                break
            if self.at_op("."):
                self.next()
        self.eat_op("}")
        q["templates"] = templates
        self._where(q)
        self._modifiers(q)
        return self._finish(q)

    # -- WHERE clause --------------------------------------------------
    def _where(self, q: dict):
        if self.at_kw("WHERE"):
            self.next()
        body = self.group()
        q.update(body)

    def group(self) -> dict:
        """One GroupGraphPattern ``{ … }`` → the engine's kwargs shape:
        patterns / optional / minus / exists / union / values / bind /
        filters."""
        self.eat_op("{")
        out: dict = {"patterns": [], "optional": [], "minus": [],
                     "exists": [], "union": None, "values": None,
                     "bind": [], "filters": [], "subselects": [],
                     "services": []}
        while not self.at_op("}"):
            if self.at_kw("SERVICE"):
                # SERVICE [SILENT] <store:dir> { … } — federation to
                # another partitioned STORE (the engine's multi-store
                # machinery; remote HTTP endpoints are out of scope).
                # The group evaluates against that store and joins onto
                # the outer bindings on shared variables; SILENT turns a
                # failed/missing store into the join identity (SPARQL's
                # one-empty-solution semantics)
                self.next()
                silent = False
                if self.at_kw("SILENT"):
                    self.next()
                    silent = True
                k, v = self.next()
                if k != "IRI":
                    raise SparqlSyntaxError(
                        "SERVICE expects an <iri> endpoint (use the "
                        "full <store:dir> form)")
                out["services"].append(
                    (v[1:-1],
                     self._subpatterns("SERVICE", allow_filters=True),
                     silent))
            elif self.at_kw("OPTIONAL"):
                self.next()
                out["optional"].append(
                    self._subpatterns("OPTIONAL", allow_filters=True))
            elif self.at_kw("MINUS"):
                self.next()
                out["minus"].append(
                    self._subpatterns("MINUS", allow_filters=True))
            elif self.at_kw("FILTER"):
                self.next()
                self._filter(out)
            elif self.at_kw("BIND"):
                self.next()
                self.eat_op("(")
                expr = self.expr()
                self.eat_kw("AS")
                k, v = self.next()
                if k != "VAR":
                    raise SparqlSyntaxError("BIND(expr AS ?var) expected")
                self.eat_op(")")
                out["bind"].append(("?" + v[1:], expr))
            elif self.at_kw("VALUES"):
                self.next()
                if out["values"] is not None:
                    raise SparqlSyntaxError(
                        "only one VALUES block per group is supported")
                out["values"] = self._values()
            elif self.at_kw("GRAPH"):
                self.next()
                g = self.term()
                sub = self._subpatterns("GRAPH")
                out["patterns"].extend(tuple(p) + (g,) for p in sub)
            elif self.at_op("{") and self.peek(1)[0] == "NAME" and \
                    self.peek(1)[1].upper() == "SELECT":
                # SPARQL subquery: { SELECT ... } — evaluated bottom-up
                # and joined onto the outer bindings on shared variables.
                # Annotation (LANG/DATATYPE) scope is per-query: snapshot
                # the collector so the subquery's annotations attach to
                # ITS ast, not the outer query's
                self.next()
                saved, self.annotations = self.annotations, {}
                sub = self._select(nested=True)
                if self.annotations:
                    sub["annotations"] = {k: tuple(sorted(v))
                                          for k, v in
                                          self.annotations.items()}
                self.annotations = saved
                self.eat_op("}")
                out["subselects"].append(sub)
            elif self.at_op("{"):
                # a braced subgroup: only meaningful here as a UNION chain
                first = self._subpatterns("UNION branch", allow_filters=True)
                if not self.at_kw("UNION"):
                    raise SparqlSyntaxError(
                        "a bare nested group has no engine meaning — "
                        "inline its triples, or follow it with UNION")
                if out["union"] is not None:
                    raise SparqlSyntaxError(
                        "only one UNION chain per group is supported")
                branches = [first]
                while self.at_kw("UNION"):
                    self.next()
                    branches.append(
                        self._subpatterns("UNION branch", allow_filters=True))
                out["union"] = branches
            else:
                self._triples_block(out["patterns"], out["filters"])
            if self.at_op("."):
                self.next()
        self.eat_op("}")
        return out

    def _subpatterns(self, ctx: str, allow_filters: bool = False):
        """A nested group restricted to triples (+ its own FILTERs when
        the engine's group form supports them — OPTIONAL/MINUS/EXISTS/
        UNION branches take ``{"patterns", "filters"}`` dicts; the
        filters constrain the group's solutions before they meet the
        outer bindings, SPARQL's LeftJoin-condition reading)."""
        sub = self.group()
        banned = ["optional", "minus", "exists", "bind", "subselects",
                  "services"]
        if not allow_filters:
            banned.append("filters")
        extra = [k for k in banned if sub[k]]
        if extra or sub["union"] is not None or sub["values"] is not None:
            raise SparqlSyntaxError(
                f"{ctx} groups support triple patterns"
                f"{' and FILTER' if allow_filters else ''} only "
                f"(found {extra or 'nested union/values'})")
        if not sub["patterns"]:
            raise SparqlSyntaxError(f"empty {ctx} group")
        if sub["filters"]:
            return {"patterns": sub["patterns"], "filters": sub["filters"]}
        return sub["patterns"]

    def _emit_triple(self, patterns: list, filters, s, p, o):
        """Lower one parsed (s, path, o) into engine patterns: sequence
        paths become a fresh-variable chain (the SPARQL 1.1 translation —
        intermediates are ``?_anon_N``, hidden from SELECT *), negated
        property sets become a fresh predicate variable + a ``not_in``
        filter."""
        if isinstance(p, tuple) and p[0] == "neg":
            if filters is None:
                raise SparqlSyntaxError(
                    "negated property sets are not supported in this "
                    "context (the group carries no FILTER slot)")
            pv = self.fresh_var()
            patterns.append((s, pv, o))
            filters.append((pv, "not_in", list(p[1])))
            return
        if isinstance(p, tuple) and p[0] == "seq":
            cur = s
            for i, elem in enumerate(p[1]):
                nxt = o if i == len(p[1]) - 1 else self.fresh_var()
                self._emit_triple(patterns, filters, cur, elem, nxt)
                cur = nxt
            return
        patterns.append((s, p, o))

    def _triples_block(self, patterns: list, filters=None):
        s = self.term()
        while True:
            p = self.path()
            while True:
                o = self.term()
                self._emit_triple(patterns, filters, s, p, o)
                if self.at_op(","):
                    self.next()
                    continue
                break
            if self.at_op(";"):
                self.next()
                if self.at_op(".", "}") or self.peek()[0] == "EOF":
                    break
                continue
            break

    # -- VALUES ---------------------------------------------------------
    def _values(self):
        k, v = self.peek()
        if k == "VAR":  # single-variable form: VALUES ?x { "a" "b" }
            self.next()
            names = ["?" + v[1:]]
            self.eat_op("{")
            rows = []
            while not self.at_op("}"):
                if self.at_kw("UNDEF"):
                    self.next()
                    rows.append((None,))
                else:
                    rows.append((self.term(),))
            self.eat_op("}")
            return (names, rows)
        self.eat_op("(")
        names = []
        while not self.at_op(")"):
            kk, vv = self.next()
            if kk != "VAR":
                raise SparqlSyntaxError("VALUES (?x ?y) expected")
            names.append("?" + vv[1:])
        self.eat_op(")")
        self.eat_op("{")
        rows = []
        while not self.at_op("}"):
            self.eat_op("(")
            row = []
            while not self.at_op(")"):
                if self.at_kw("UNDEF"):
                    self.next()
                    row.append(None)
                else:
                    row.append(self.term())
            self.eat_op(")")
            rows.append(tuple(row))
        self.eat_op("}")
        return (names, rows)

    # -- FILTER ---------------------------------------------------------
    def _filter(self, out: dict):
        if self.at_kw("EXISTS"):
            self.next()
            out["exists"].append(
                self._subpatterns("EXISTS", allow_filters=True))
            return
        if self.at_kw("NOT"):
            self.next()
            self.eat_kw("EXISTS")
            out["minus"].append(
                self._subpatterns("NOT EXISTS", allow_filters=True))
            return
        self.eat_op("(")
        e = self._bool_or()
        self.eat_op(")")
        if isinstance(e, tuple) and e[0] == "and" and len(e) == 2:
            # top-level && splits into separate conjuncts — each is then
            # independently eligible for map-side pushdown
            out["filters"].extend(e[1])
        else:
            out["filters"].append(e)

    def _bool_or(self):
        """Boolean filter expression with SPARQL precedence: ``||`` over
        ``&&`` over a parenthesized group or a single constraint —
        ``a || b && c`` means ``a || (b && c)``; parens nest freely."""
        left = self._bool_and()
        if not self.at_op("||"):
            return left
        branches = [left]
        while self.at_op("||"):
            self.next()
            branches.append(self._bool_and())
        return ("or", branches)

    def _bool_and(self):
        left = self._bool_primary()
        if not self.at_op("&&"):
            return left
        parts = [left]
        while self.at_op("&&"):
            self.next()
            parts.append(self._bool_primary())
        return ("and", parts)

    def _bool_primary(self):
        # a grouped sub-expression — constraints themselves never start
        # with '(' (they start with ?var / BOUND / LANG / CONTAINS / …)
        if self.at_op("("):
            self.next()
            e = self._bool_or()
            self.eat_op(")")
            return e
        return self._constraint()

    def _constraint(self):
        if self.at_op("!"):
            self.next()
            self.eat_kw("BOUND")
            self.eat_op("(")
            k, v = self.next()
            if k != "VAR":
                raise SparqlSyntaxError("!BOUND(?var) expected")
            self.eat_op(")")
            return ("?" + v[1:], "bound", False)
        if self.at_kw("BOUND"):
            self.next()
            self.eat_op("(")
            k, v = self.next()
            if k != "VAR":
                raise SparqlSyntaxError("BOUND(?var) expected")
            self.eat_op(")")
            return ("?" + v[1:], "bound", True)
        if self.at_kw("LANG", "DATATYPE"):
            return self._annotation_constraint()
        if self.at_kw("ISIRI", "ISURI", "ISLITERAL"):
            # lowers to an equality filter over the converter's
            # obj_is_iri side column (projected via annotations= like
            # LANG/DATATYPE; cast to "true"/"false" strings by the
            # binding projection's all-strings discipline). isLiteral
            # is the complement — the stored flag is never NULL for
            # converter output, and an unbound OPTIONAL object drops
            # the row either way (SPARQL error-is-false).
            fn = self.next()[1].upper()
            self.eat_op("(")
            k, v = self.next()
            if k != "VAR":
                raise SparqlSyntaxError(f"{fn}(?var) expected")
            self.eat_op(")")
            var = "?" + v[1:]
            self.annotations.setdefault(var, set()).add("is_iri")
            return (f"{var}__is_iri", "=",
                    "false" if fn == "ISLITERAL" else "true")
        if self.at_kw("CONTAINS", "REGEX", "STRSTARTS", "STRENDS"):
            fn = self.next()[1].upper()
            self.eat_op("(")
            k, v = self.next()
            if k != "VAR":
                raise SparqlSyntaxError(f"{fn}(?var, \"…\") expected")
            self.eat_op(",")
            kk, vv = self.next()
            if kk != "STRING":
                raise SparqlSyntaxError(f"{fn} expects a string constant")
            self.eat_op(")")
            s = _unescape(vv[1:-1])
            if fn == "CONTAINS":
                return ("?" + v[1:], "contains", s)
            if fn == "STRSTARTS":
                return ("?" + v[1:], "regex", "^" + re.escape(s))
            if fn == "STRENDS":
                return ("?" + v[1:], "regex", re.escape(s) + "$")
            return ("?" + v[1:], "regex", s)
        k, v = self.next()
        if k != "VAR":
            raise SparqlSyntaxError(
                f"FILTER constraints must start with ?var, BOUND, LANG, "
                f"DATATYPE, CONTAINS, REGEX or [NOT] EXISTS — got {v!r}")
        var = "?" + v[1:]
        if self.at_kw("IN"):
            self.next()
            self.eat_op("(")
            vals = []
            while not self.at_op(")"):
                vals.append(self.term())
                if self.at_op(","):
                    self.next()
            self.eat_op(")")
            return (var, "in", vals)
        kk, op = self.peek()
        if kk != "OP" or op not in ("=", "!=", "<", "<=", ">", ">="):
            raise SparqlSyntaxError(f"expected a comparator, got {op!r}")
        self.next()
        tk, tv = self.peek()
        if tk == "NUM":
            self.next()
            rhs = float(tv) if any(c in tv for c in ".eE") else int(tv)
        else:
            rhs = self.term()
        return (var, op, rhs)

    def _annotation_constraint(self):
        """``LANG(?v) = "en"`` / ``DATATYPE(?v) = xsd:decimal`` — lowers
        to an equality filter over the pattern's annotation side column
        (projected as ``v__lang`` / ``v__datatype`` via the evaluators'
        ``annotations=``). SPARQL's LANG() of a plain literal is ``""``
        and DATATYPE() is xsd:string, but the STORED annotation is NULL
        — those two comparisons lower to a BOUND test so they match the
        spec. ``!=`` against any other value would need null-is-""
        three-valued handling the filter tuples don't carry; it raises
        with the UNION workaround."""
        fn = self.next()[1].lower()
        self.eat_op("(")
        k, v = self.next()
        if k != "VAR":
            raise SparqlSyntaxError(f"{fn.upper()}(?var) expected")
        self.eat_op(")")
        var = "?" + v[1:]
        kk, op = self.peek()
        if kk != "OP" or op not in ("=", "!="):
            raise SparqlSyntaxError(
                f"{fn.upper()}() supports = and != comparisons only")
        self.next()
        tk, tv = self.peek()
        if fn == "lang":
            if tk != "STRING":
                raise SparqlSyntaxError("LANG() compares to a string")
            val = _unescape(self.next()[1][1:-1])
            plain = val == ""
        else:
            val = self.iri()
            plain = val == _XSD + "string"
        self.annotations.setdefault(var, set()).add(fn)
        col = f"{var}__{fn}"
        if plain:
            # stored annotation NULL ≙ plain literal (lang "" /
            # datatype xsd:string)
            return (col, "bound", op == "!=")
        if op == "!=":
            raise SparqlSyntaxError(
                f"{fn.upper()}() != non-plain value needs null-is-plain "
                "three-valued semantics — express it as a UNION of the "
                "= branches you want")
        return (col, "=", val)

    # -- expressions (BIND / SELECT exprs) --------------------------------
    def expr(self):
        left = self._mult()
        while self.at_op("+", "-"):
            op = self.next()[1]
            right = self._mult()
            left = ("add" if op == "+" else "sub", left, right)
        return left

    def _mult(self):
        left = self._unary()
        while self.at_op("*", "/"):
            op = self.next()[1]
            right = self._unary()
            left = ("mul" if op == "*" else "div", left, right)
        return left

    def _unary(self):
        k, v = self.peek()
        if k == "VAR":
            self.next()
            return "?" + v[1:]
        if k == "NUM":
            self.next()
            return float(v) if any(c in v for c in ".eE") else int(v)
        if k == "STRING":
            return self.literal()
        if self.at_op("("):
            self.next()
            e = self.expr()
            self.eat_op(")")
            return e
        if k == "PNAME" or k == "IRI":
            # xsd:integer(?x)-style constructor cast
            iri = self.iri()
            if iri in _XSD_CASTS and self.at_op("("):
                self.next()
                e = self.expr()
                self.eat_op(")")
                return (_XSD_CASTS[iri], e)
            return iri
        if k == "NAME":
            fn = v.upper()
            fns = {"CONCAT": "concat", "STRLEN": "strlen",
                   "UCASE": "ucase", "LCASE": "lcase",
                   "SUBSTR": "substr", "COALESCE": "coalesce", "IF": "if",
                   "REPLACE": "replace", "STRBEFORE": "strbefore",
                   "STRAFTER": "strafter", "ABS": "abs", "CEIL": "ceil",
                   "FLOOR": "floor", "ROUND": "round", "STR": None,
                   "IRI": None, "URI": None,
                   "ENCODE_FOR_URI": "encode_uri", "MD5": "md5",
                   "SHA1": "sha1", "SHA256": "sha256",
                   "YEAR": "year", "MONTH": "month", "DAY": "day",
                   "HOURS": "hours", "MINUTES": "minutes",
                   "SECONDS": "seconds"}
            if fn in ("NOW", "RAND", "UUID", "STRUUID", "BNODE"):
                raise SparqlSyntaxError(
                    f"{fn}() is non-deterministic — results would "
                    "depend on when/where a block executed, which "
                    "breaks the engine's layout-invariance contract; "
                    "compute it driver-side and pass it as a constant")
            if fn not in fns:
                raise SparqlSyntaxError(f"unsupported function {v!r}")
            self.next()
            self.eat_op("(")
            args = []
            while not self.at_op(")"):
                args.append(self.expr())
                if self.at_op(","):
                    self.next()
            self.eat_op(")")
            if fn in ("STR", "IRI", "URI"):
                # terms are lexical strings already; IRI()/URI() over
                # the engine's absolute IRIs is the identity (no base
                # resolution — the converters emit absolute IRIs only)
                if len(args) != 1:
                    raise SparqlSyntaxError(f"{fn} takes one argument")
                return args[0]
            return (fns[fn], *args)
        raise SparqlSyntaxError(f"unsupported expression at {v!r}")

    # -- solution modifiers ----------------------------------------------
    def _modifiers(self, q: dict):
        q.setdefault("group_by", [])
        q.setdefault("having", [])
        q.setdefault("order_by", [])
        q.setdefault("limit", None)
        q.setdefault("offset", 0)
        if self.at_kw("GROUP"):
            self.next()
            self.eat_kw("BY")
            q.setdefault("group_binds", [])
            while True:
                if self.peek()[0] == "VAR":
                    q["group_by"].append("?" + self.next()[1][1:])
                elif self.at_op("("):
                    # GroupCondition '(' Expression ('AS' Var)? ')' —
                    # group keys compute per-solution BEFORE grouping,
                    # so the expression lowers to a pre-group BIND
                    # (anonymous keys get a hidden _anon_g var, excluded
                    # from SELECT * like all parser-plumbing vars)
                    self.next()
                    e = self.expr()
                    if self.at_kw("AS"):
                        self.next()
                        k, v = self.next()
                        if k != "VAR":
                            raise SparqlSyntaxError(
                                "GROUP BY (expr AS ?var) expected")
                        name = "?" + v[1:]
                    else:
                        name = f"?_anon_g{len(q['group_binds'])}"
                    self.eat_op(")")
                    q["group_binds"].append((name, e))
                    q["group_by"].append(name)
                else:
                    break
            if not q["group_by"]:
                raise SparqlSyntaxError("GROUP BY expects ?vars")
        if self.at_kw("HAVING"):
            # full boolean trees, same grammar as FILTER — top-level &&
            # splits into separate conjuncts (each independently applied
            # over the aggregated table); || / parens nest freely
            self.next()
            self.eat_op("(")
            e = self._bool_or()
            self.eat_op(")")
            if isinstance(e, tuple) and e[0] == "and" and len(e) == 2:
                q["having"].extend(e[1])
            else:
                q["having"].append(e)
        if self.at_kw("ORDER"):
            self.next()
            self.eat_kw("BY")
            q.setdefault("order_binds", [])

            def add_key(term, direction):
                # a plain variable orders directly; an EXPRESSION lowers
                # to a hidden pre-projection BIND of a `_anon_ord*` var
                # (excluded from SELECT * like every parser-plumbing var;
                # the evaluator's order-before-project path sorts on it)
                if isinstance(term, str) and term.startswith("?"):
                    q["order_by"].append((term, direction))
                    return
                name = f"?_anon_ord{len(q['order_binds'])}"
                q["order_binds"].append((name, term))
                q["order_by"].append((name, direction))

            _ORD_FNS = ("CONCAT", "STRLEN", "UCASE", "LCASE", "SUBSTR",
                        "COALESCE", "IF", "REPLACE", "STRBEFORE",
                        "STRAFTER", "ABS", "CEIL", "FLOOR", "ROUND",
                        "STR", "IRI", "URI", "ENCODE_FOR_URI", "MD5",
                        "SHA1", "SHA256", "YEAR", "MONTH", "DAY",
                        "HOURS", "MINUTES", "SECONDS")
            while True:
                k, v = self.peek()
                if k == "VAR":
                    self.next()
                    q["order_by"].append("?" + v[1:])
                elif k == "NAME" and v.upper() in ("ASC", "DESC"):
                    direction = ("descending" if v.upper() == "DESC"
                                 else "ascending")
                    self.next()
                    self.eat_op("(")
                    add_key(self.expr(), direction)
                    self.eat_op(")")
                elif (k == "OP" and v == "(") or (
                        k == "NAME" and v.upper() in _ORD_FNS):
                    add_key(self.expr(), "ascending")
                else:
                    break
            if not q["order_by"]:
                raise SparqlSyntaxError("ORDER BY expects ?vars")
            if not q["order_binds"]:
                q.pop("order_binds")
        # LIMIT / OFFSET in either order
        for _ in range(2):
            if self.at_kw("LIMIT"):
                self.next()
                k, v = self.next()
                if k != "NUM" or not v.isdigit():
                    raise SparqlSyntaxError("LIMIT expects an integer")
                q["limit"] = int(v)
            elif self.at_kw("OFFSET"):
                self.next()
                k, v = self.next()
                if k != "NUM" or not v.isdigit():
                    raise SparqlSyntaxError("OFFSET expects an integer")
                q["offset"] = int(v)


# ------------------------------------------------------------- updates

def _is_template_pattern(p) -> bool:
    """A pattern usable as a ground-instantiation template: 3 terms,
    no path forms, no alternative lists."""
    from .bgp import _parse_path

    if len(p) != 3:
        return False
    for i, t in enumerate(p):
        if isinstance(t, (list, tuple, set)):
            return False
        if i == 1 and (_parse_path(t) is not None or t.startswith("^")):
            return False
    return True


class _UpdateParser(_Parser):
    def parse_update(self) -> list:
        """→ list of operation dicts: a SPARQL update REQUEST is a
        ``;``-separated sequence of operations, executed in order (each
        sees the previous one's effects). PREFIX declarations may appear
        before any operation and scope to the rest of the request."""
        ops = []
        while True:
            self._prologue()
            ops.append(self._one_update())
            if self.at_op(";"):
                self.next()
                if self.peek()[0] == "EOF":  # trailing ; is fine
                    break
                continue
            break
        if self.peek()[0] != "EOF":
            raise SparqlSyntaxError(
                f"unexpected trailing input: {self.peek()[1]!r}")
        if self.annotations:
            ann = {k: tuple(sorted(v))
                   for k, v in self.annotations.items()}
            for op in ops:
                if op["kind"] == "modify":
                    op["annotations"] = ann
        return ops

    def _prologue(self):
        while self.at_kw("PREFIX"):
            self.next()
            k, v = self.next()
            if k != "PNAME" or not v.endswith(":"):
                raise SparqlSyntaxError(f"bad PREFIX name {v!r}")
            kk, vv = self.next()
            if kk != "IRI":
                raise SparqlSyntaxError(f"bad PREFIX iri {vv!r}")
            self.prefixes[v[:-1]] = vv[1:-1]

    def _one_update(self) -> dict:
        if self.at_kw("CLEAR"):
            self.next()
            if self.at_kw("SILENT"):
                raise SparqlSyntaxError(
                    "CLEAR SILENT is not supported — errors here mean "
                    "the store cannot express the op; silencing them "
                    "would hide real data-loss hazards")
            if self.at_kw("GRAPH"):
                self.next()
                return {"kind": "clear", "graph": self.iri()}
            raise SparqlSyntaxError(
                "CLEAR supports GRAPH <iri> only — DEFAULT/NAMED/ALL "
                "drop the whole store; do that with the store tooling "
                "(and lose time travel deliberately)")
        if self.at_kw("INSERT"):
            self.next()
            if self.at_kw("DATA"):
                self.next()
                return {"kind": "insert_data",
                        "triples": self._ground_block()}
            tmpl = self._template_block("INSERT")
            self.eat_kw("WHERE")
            return {"kind": "modify", "delete": None,
                    "insert": tmpl, "where": self.group()}
        if self.at_kw("DELETE"):
            self.next()
            if self.at_kw("DATA"):
                self.next()
                return {"kind": "delete_data",
                        "triples": self._ground_block()}
            if self.at_kw("WHERE"):
                self.next()
                g = self.group()
                bad = [p for p in g["patterns"]
                       if not _is_template_pattern(p)]
                if bad:
                    raise SparqlSyntaxError(
                        f"DELETE WHERE patterns double as delete templates "
                        f"— paths/alternatives/quads not allowed: {bad[0]!r}")
                return {"kind": "modify",
                        "delete": list(g["patterns"]),
                        "insert": None, "where": g}
            tmpl = self._template_block("DELETE")
            ins = None
            if self.at_kw("INSERT"):
                self.next()
                ins = self._template_block("INSERT")
            self.eat_kw("WHERE")
            return {"kind": "modify", "delete": tmpl,
                    "insert": ins, "where": self.group()}
        raise SparqlSyntaxError(
            f"expected INSERT / DELETE, got {self.peek()[1]!r}")

    def _template_block(self, ctx: str) -> list:
        self.eat_op("{")
        out: list = []
        while not self.at_op("}"):
            self._triples_block(out)
            if self.at_op("."):
                self.next()
        self.eat_op("}")
        if not out:
            raise SparqlSyntaxError(f"empty {ctx} template")
        bad = [p for p in out if not _is_template_pattern(p)]
        if bad:
            raise SparqlSyntaxError(
                f"{ctx} templates are plain triples (no paths / "
                f"alternatives / GRAPH): {bad[0]!r}")
        return out

    def _ground_block(self) -> list:
        tmpl = self._template_block("DATA")
        with_var = [p for p in tmpl
                    for t in p if isinstance(t, str) and t.startswith("?")]
        if with_var:
            raise SparqlSyntaxError(
                f"INSERT/DELETE DATA must be ground (no variables): "
                f"{with_var[0]!r}")
        return tmpl


def parse_sparql_update(text: str):
    """Parse a SPARQL UPDATE request → LIST of operation dicts
    (``;``-separated operations run in order), each ``{"kind":
    "insert_data" | "delete_data", "triples": [...]}`` or ``{"kind":
    "modify", "delete": templates|None, "insert": templates|None,
    "where": group}``. Driver-side, update-sized work."""
    return _UpdateParser(text).parse_update()


def sparql_update(store_dir: str, text: str, *, num_buckets: int = 32):
    """Execute a SPARQL UPDATE against a generation-tracked partitioned
    store — the text layer over the engine's tracked mutations, so every
    update is a GENERATION and time travel resurrects pre-update
    snapshots:

    * ``INSERT DATA { ground triples }`` → :func:`~..sources.triple_sink.
      insert_rows` (schema-padded tracked merge, routed partitions only)
    * ``DELETE DATA { ground triples }`` → :func:`…delete_exact_rows`
      (hash-routed anti-join, routed partitions only)
    * ``DELETE WHERE { patterns }`` / ``DELETE {t} INSERT {t} WHERE
      {group}`` → the WHERE group evaluates store-side (read-pruned
      scans), both templates instantiate from the PRE-update bindings
      (SPARQL's semantics: delete and insert see the same state), then
      delete applies before insert.

    Returns ``{"op", "matched", "removed", "inserted", "generation"}``.
    Delete matching is on (subj, pred, obj) — a triple delete removes
    the stored row carrying its annotations, any graph. A combined
    ``DELETE {} INSERT {} WHERE`` records TWO consecutive generations
    (delete then insert) — time travel can address the intermediate
    state; both halves instantiate from the pre-update bindings, so the
    result is still SPARQL's (the insert never sees the deletions).
    A ``;``-chained request runs its operations in order (each sees the
    previous one's effects) and returns the list of summaries."""
    ops = parse_sparql_update(text)
    outs = [_run_update_op(store_dir, u, num_buckets) for u in ops]
    # one op (the common case) returns its summary dict; a ;-chained
    # request returns the list, in execution order
    return outs[0] if len(outs) == 1 else outs


def _run_update_op(store_dir: str, u: dict, num_buckets: int):
    import pyarrow as pa

    from ..sources.triple_sink import (delete_exact_rows, insert_rows,
                                       store_generation)
    from .bgp import construct_triples, evaluate_bgp_store

    def ground_table(triples) -> pa.Table:
        s, p, o = zip(*triples)
        return pa.table({"subj": pa.array(list(s), pa.string()),
                         "pred": pa.array(list(p), pa.string()),
                         "obj": pa.array(list(o), pa.string())})

    if u["kind"] == "insert_data":
        m = insert_rows(store_dir, ground_table(u["triples"]))
        return {"op": "insert_data", "matched": len(u["triples"]),
                "removed": 0, "inserted": int(m["n_gen_added"].sum()),
                "generation": store_generation(store_dir)}
    if u["kind"] == "delete_data":
        m = delete_exact_rows(store_dir, ground_table(u["triples"]))
        return {"op": "delete_data", "matched": len(u["triples"]),
                "removed": int(m["n_removed"].sum()) if len(m) else 0,
                "inserted": 0, "generation": store_generation(store_dir)}
    if u["kind"] == "clear":
        from ..sources.triple_sink import delete_triples

        m = delete_triples(store_dir, graph=u["graph"])
        removed = int(m["n_removed"].sum()) if len(m) else 0
        return {"op": "clear", "matched": removed, "removed": removed,
                "inserted": 0, "generation": store_generation(store_dir)}

    g = u["where"]
    if g.get("services"):
        raise SparqlSyntaxError(
            "SERVICE in an UPDATE WHERE is not supported — updates "
            "mutate ONE store; query the federation first, then update")
    kw = {k: v for k, v in (("optional", g["optional"] or None),
                            ("minus", g["minus"] or None),
                            ("exists", g["exists"] or None),
                            ("union", g["union"]),
                            ("values", g["values"]),
                            ("bind", g["bind"] or None),
                            ("filters", g["filters"] or None),
                            ("annotations", u.get("annotations")))
          if v is not None}
    if g.get("subselects"):
        # subqueries in UPDATE WHERE evaluate bottom-up against the
        # PRE-update store, same discipline as the query path
        def eval_sub(ast):
            skw = _lower(ast)
            inner = [(eval_sub(i), list(i["select"]))
                     for i in ast.get("subselects") or []]
            if inner:
                skw["subselects"] = inner
            return evaluate_bgp_store(store_dir, ast["patterns"],
                                      num_buckets=num_buckets, **skw)

        kw["subselects"] = [(eval_sub(sq), list(sq["select"]))
                            for sq in g["subselects"]]
    bindings = evaluate_bgp_store(store_dir, g["patterns"],
                                  num_buckets=num_buckets, **kw)
    # both templates instantiate from the PRE-update state: materialize
    # the (delta-sized) instantiations before the first mutation — a lazy
    # stream would otherwise re-read partitions the delete just rewrote
    del_rows = ins_rows = None
    if u["delete"]:
        del_rows = construct_triples(bindings, u["delete"]).materialize()
    if u["insert"]:
        ins_rows = construct_triples(bindings, u["insert"]).materialize()
    removed = inserted = 0
    matched = None
    if del_rows is not None:
        matched = del_rows.count()
        m = delete_exact_rows(store_dir, del_rows)
        removed = int(m["n_removed"].sum()) if len(m) else 0
    if ins_rows is not None:
        if matched is None:
            matched = ins_rows.count()
        m = insert_rows(store_dir, ins_rows)
        inserted = int(m["n_gen_added"].sum())
    return {"op": "modify", "matched": int(matched or 0),
            "removed": removed, "inserted": inserted,
            "generation": store_generation(store_dir)}


def parse_sparql(text: str) -> dict:
    """Parse a SPARQL query string → the engine's structured form (a dict
    of :func:`~.bgp.evaluate_bgp` kwargs plus ``kind`` and, for
    CONSTRUCT, ``templates``). Driver-side, query-sized work."""
    return _Parser(text).parse()


def _lower(q: dict) -> dict:
    """AST → evaluate_bgp(_store) kwargs, applying the engine-level
    lowerings that need whole-query context: SELECT expressions become
    trailing BINDs; COUNT(?v) lowers to count-rows (exact when ?v is
    required-bound — it is unless ?v came from OPTIONAL, which raises);
    aggregates without GROUP BY group over a synthetic constant key."""
    agg = dict(q["agg"])
    group_by = list(q.get("group_by") or [])
    order_binds = list(q.get("order_binds") or [])
    if order_binds and (agg or group_by):
        raise SparqlSyntaxError(
            "ORDER BY expressions over a grouped query are not "
            "supported — BINDs apply pre-group, so the expression's "
            "inputs are gone after aggregation; alias the aggregate "
            "((AGG(...) AS ?v)) and ORDER BY ?v instead")
    bind = (list(q.get("bind") or []) + list(q.get("group_binds") or [])
            + list(q.get("agg_binds") or [])
            + list(q.get("select_binds") or []) + order_binds)
    select = q["select"]
    opt_vars = {t[1:] for g in (q.get("optional") or [])
                for p in (g["patterns"] if isinstance(g, dict)
                          else g if isinstance(g, list) else [g])
                for t in p if isinstance(t, str) and t.startswith("?")}
    for out, spec in list(agg.items()):
        if isinstance(spec, tuple) and spec[0] == "count_var":
            if spec[1][1:] in opt_vars:
                raise SparqlSyntaxError(
                    f"COUNT({spec[1]}) over an OPTIONAL variable is not "
                    "supported (the engine's count counts rows) — use "
                    "COUNT(*) with a FILTER(BOUND(...)) or make the "
                    "pattern required")
            agg[out] = "count"
    synthetic = None
    if agg and not group_by:
        # SPARQL's implicit single group: group on a constant
        synthetic = "_g"
        bind = bind + [("?_g", "1")]
        group_by = ["?_g"]
        if select is None:
            select = ["?" + o for o in agg]
    kw = {
        "optional": q.get("optional") or None,
        "minus": q.get("minus") or None,
        "exists": q.get("exists") or None,
        "union": q.get("union"),
        "values": q.get("values"),
        "bind": bind or None,
        "filters": q.get("filters") or None,
        "group_by": group_by or None,
        "agg": agg or None,
        "having": q.get("having") or None,
        "select": select,
        "distinct": q.get("distinct", False),
        "order_by": q.get("order_by") or None,
        "limit": q.get("limit"),
        "offset": q.get("offset", 0),
        "annotations": q.get("annotations"),
    }
    if synthetic and kw["select"] is not None:
        kw["select"] = [v for v in kw["select"] if v != "?_g"]
    return {k: v for k, v in kw.items() if v is not None}


def _is_store_source(source) -> bool:
    """A store path or a LIST of store paths (federation) — everything
    else is a triples Dataset."""
    return isinstance(source, str) or (
        isinstance(source, (list, tuple)) and bool(source)
        and all(isinstance(s, str) for s in source))


def sparql(source, text: str, *, num_buckets: int = 32,
           obj_index_dir: str | None = None, reorder: bool = True,
           entailment: str | None = None, schema=None):
    """Run a SPARQL query string against ``source`` — a triples
    ``Dataset`` (columns subj/pred/obj[/graph]) or a partitioned STORE
    directory (read-pruned per pattern, the storage path). Returns a
    bindings ``Dataset`` for SELECT, ``bool`` for ASK, and a
    (subj, pred, obj) ``Dataset`` for CONSTRUCT.

    ``entailment="rdfs"`` evaluates under the RDFS regime: the source
    stream materializes its rdfs2/3/5/7/9/11 closure first (one
    vectorized pass against the driver-closed broadcast ``schema`` —
    see :mod:`~.reason`; ``schema=None`` extracts the schema triples
    from the stream). A STORE source evaluates over its live stream in
    this mode — the per-pattern read pruning doesn't apply to inferred
    rows, so the closure pass sees everything once instead."""
    from .bgp import ask_bgp, construct_triples, evaluate_bgp, \
        evaluate_bgp_store

    if entailment is not None:
        if entailment not in ("rdfs", "rdfs+owl"):
            raise ValueError(
                f"unknown entailment regime {entailment!r} — "
                "supported: 'rdfs', 'rdfs+owl'")
        from ..sources.triple_sink import read_store_asof
        from .reason import owl_materialize, rdfs_materialize

        if isinstance(source, str):
            ds = read_store_asof(source)
        elif _is_store_source(source):
            parts = [read_store_asof(s) for s in source]
            ds = parts[0]
            for more in parts[1:]:
                ds = ds.union(more)
        else:
            ds = source
        if entailment == "rdfs+owl":
            # OWL axioms first (inverse/symmetric swaps, transitive
            # closures, property chains), then the RDFS pass over the
            # enlarged stream — the common vocabulary stack; iterate
            # materializations yourself when axiom families feed each
            # other deeper than one round
            ds = owl_materialize(ds, schema)
        source = rdfs_materialize(ds, schema)

    q = parse_sparql(text)
    kw = _lower(q)
    patterns = q["patterns"]
    kw.pop("kind", None)
    # a LIST of store dirs = federation (evaluate_bgp_store unions each
    # pattern's pruned per-store scans; bag semantics over the union)
    if not isinstance(source, str) and _is_store_source(source):
        source = list(source)
    # SPARQL subqueries evaluate bottom-up: run each { SELECT ... } ast
    # against the SAME source (recursively — a subquery may itself hold
    # subqueries) and pass the finished bindings streams to the engine,
    # which joins them on shared variables

    def eval_select(ast):
        if ast.get("services"):
            raise SparqlSyntaxError(
                "SERVICE inside a subquery is not supported — lift it "
                "to the outer group")
        skw = _lower(ast)
        inner = [(eval_select(i), list(i["select"]))
                 for i in ast.get("subselects") or []]
        if inner:
            skw["subselects"] = inner
        if _is_store_source(source):
            return evaluate_bgp_store(
                source, ast["patterns"], num_buckets=num_buckets,
                obj_index_dir=obj_index_dir, reorder=reorder, **skw)
        return evaluate_bgp(source, ast["patterns"],
                            num_buckets=num_buckets, reorder=reorder,
                            **skw)

    subs = [(eval_select(sq), list(sq["select"]))
            for sq in q.get("subselects") or []]
    for iri, grp, silent in q.get("services") or []:
        # SERVICE <store:dir> { … }: the group evaluates against THAT
        # store (read-pruned scans, its own stats-ordered plan) and the
        # finished bindings join onto the outer solutions on shared
        # variables — the same machinery as subqueries. SILENT failure
        # is the SPARQL join identity (one empty solution): skip the
        # join entirely
        if not iri.startswith("store:"):
            raise ValueError(
                f"SERVICE endpoint {iri!r}: only <store:dir> endpoints "
                "are supported — this engine federates partitioned "
                "triple stores, not remote HTTP endpoints")
        sdir = iri[len("store:"):]
        grp_pats = grp["patterns"] if isinstance(grp, dict) else grp
        grp_filters = grp.get("filters") if isinstance(grp, dict) \
            else None
        svars: list[str] = []
        for p_ in grp_pats:
            for t in p_:
                if isinstance(t, str) and t.startswith("?") \
                        and t not in svars:
                    svars.append(t)
        try:
            sbind = evaluate_bgp_store(
                sdir, grp_pats, filters=grp_filters,
                num_buckets=num_buckets, reorder=reorder)
        except (FileNotFoundError, OSError, ValueError):
            if silent:
                continue
            raise
        subs.append((sbind, svars))
    if subs:
        kw["subselects"] = subs
    if _is_store_source(source):
        def run(**extra):
            return evaluate_bgp_store(
                source, patterns, num_buckets=num_buckets,
                obj_index_dir=obj_index_dir, reorder=reorder,
                **kw, **extra)
    else:
        def run(**extra):
            return evaluate_bgp(source, patterns, num_buckets=num_buckets,
                                reorder=reorder, **kw, **extra)

    if q["kind"] == "ask":
        if _is_store_source(source):
            return evaluate_bgp_store(
                source, patterns, num_buckets=num_buckets,
                obj_index_dir=obj_index_dir, reorder=reorder,
                limit=1, **{k: v for k, v in kw.items()
                            if k not in ("limit", "offset")}).count() > 0
        return ask_bgp(source, patterns, num_buckets=num_buckets,
                       reorder=reorder,
                       **{k: v for k, v in kw.items()
                          if k not in ("limit", "offset")})
    bindings = run()
    if q["kind"] == "construct":
        return construct_triples(bindings, q["templates"])
    return bindings
