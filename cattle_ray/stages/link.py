"""T2/T3/T4 + J1/J2: mention detection, entity linking, URI canonicalization.

All three are stateful ``map_batches`` stages whose state (automaton /
alias dict) is read-only once ``__init__`` ends: the driver builds ONE
instance and maps it as plain Ray tasks, which Ray Data fuses with their
neighbours (no actor pool to start, size or leak); ``__call__`` is per
batch. :class:`cattle_ray.pipelines.kg.KgStage` runs the same way.

- :class:`MentionDetector` (T2): alias gazetteer → Aho-Corasick-style
  automaton (here: one compiled alternation regex with word boundaries —
  C-speed scan; a trie automaton drops in behind the same interface when the
  gazetteer outgrows regex compilation).
- :class:`EntityLinker` (T3, J1 broadcast form): mention surface →
  candidate ``(entity_uri, prior)`` list from the alias dictionary; picks the
  max-prior candidate (FIXTURES.md §4 ambiguity rule). The J2 shuffle-join
  form for alias tables too big to broadcast is `link_large_dict` below.
- :class:`Canonicalizer` (T4): pure URI normalization rules + optional
  broadcast canonical-id map, applied vectorized to subj/obj columns.

Scale note (J1 vs J2 switch, SURVEY.md §7.4): the broadcast dict travels
inside the mapped instance, which Ray Data puts in the object store once
per operator and each task unpickles — never per batch. Config threshold
`BROADCAST_MAX_ALIASES` guards the switch to the co-partitioned join.
"""

from __future__ import annotations

import re
from urllib.parse import quote, unquote

import pyarrow as pa
import pyarrow.compute as pc

from .openie import MENTION_NS

BROADCAST_MAX_ALIASES = 5_000_000  # ~hundreds of MB; beyond this use link_large_dict


def normalize_alias(s: str) -> str:
    return " ".join(s.lower().split())


class MentionDetector:
    """T2: find alias occurrences in ``text`` → one output row per mention
    ``(url, mention, alias_norm, begin, end)``. Flat-map shape; map one
    driver-built instance: ``map_batches(MentionDetector(aliases),
    batch_format="pyarrow")``. ``aliases`` is any iterable of surface
    forms (a dict contributes its keys)."""

    def __init__(self, aliases, text_col: str = "text", url_col: str = "url"):
        # longest-first alternation so "Brunei Darussalam" wins over "Brunei"
        pats = sorted({a for a in aliases if a}, key=len, reverse=True)
        self._rx = re.compile(
            r"(?<![\w])(?:" + "|".join(re.escape(a) for a in pats) + r")(?![\w])"
        )
        self.text_col = text_col
        self.url_col = url_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        urls = batch[self.url_col].to_pylist()
        out = {"url": [], "mention": [], "alias_norm": [], "begin": [], "end": []}
        for text, url in zip(texts, urls):
            if not text:
                continue
            for m in self._rx.finditer(text):
                out["url"].append(url)
                out["mention"].append(m.group(0))
                out["alias_norm"].append(normalize_alias(m.group(0)))
                out["begin"].append(m.start())
                out["end"].append(m.end())
        # url column keeps the id column's own type (string url or int id)
        url_type = batch.schema.field(self.url_col).type
        return pa.table(
            {
                "url": pa.array(out["url"], url_type),
                "mention": pa.array(out["mention"], pa.string()),
                "alias_norm": pa.array(out["alias_norm"], pa.string()),
                "begin": pa.array(out["begin"], pa.int32()),
                "end": pa.array(out["end"], pa.int32()),
            }
        )


def build_alias_index(alias_table: pa.Table) -> dict[str, list[tuple[str, float]]]:
    """aliases(alias, entity_uri, prior) → {alias_norm: [(uri, prior) desc]}.

    Driver-side; the result rides inside the mapped :class:`EntityLinker`
    (J1 broadcast join)."""
    idx: dict[str, list[tuple[str, float]]] = {}
    for alias, uri, prior in zip(
        alias_table["alias"].to_pylist(),
        alias_table["entity_uri"].to_pylist(),
        alias_table["prior"].to_pylist(),
    ):
        idx.setdefault(normalize_alias(alias), []).append((uri, float(prior)))
    for cands in idx.values():
        cands.sort(key=lambda t: (-t[1], t[0]))  # max prior, URI tiebreak
    return idx


class EntityLinker:
    """T3/J1: one driver-built instance holds the alias dict and is mapped
    as tasks; per batch, rewrite mention-URIs in triple subj/obj columns to
    canonical entity URIs (max-prior candidate). Unlinkable mentions pass
    through unchanged (stay mention-level)."""

    def __init__(self, alias_index, cols=("subj", "obj")):
        self.index = alias_index
        self.cols = cols
        self._prefix = MENTION_NS

    def _link_value(self, v: str) -> str:
        if v is None or not v.startswith(self._prefix):
            return v
        surface = unquote(v[len(self._prefix):])
        cands = self.index.get(normalize_alias(surface))
        return cands[0][0] if cands else v

    def __call__(self, batch: pa.Table) -> pa.Table:
        for col in self.cols:
            if col not in batch.column_names:
                continue
            arr = batch[col]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            # vectorized prefilter: only mention-URI rows need Python work
            mask = pc.fill_null(pc.starts_with(arr, self._prefix), False)
            if col == "obj" and "obj_is_iri" in batch.column_names:
                mask = pc.and_(mask, pc.fill_null(batch["obj_is_iri"].combine_chunks(), False))
            if not pc.any(mask).as_py():
                continue
            vals = arr.to_pylist()
            mk = mask.to_pylist()
            new = pa.array(
                [self._link_value(v) if m else v for v, m in zip(vals, mk)], pa.string()
            )
            batch = batch.set_column(batch.column_names.index(col), col, new)
        return batch


def candidates_batch(mentions: pa.Table, alias_index: dict) -> pa.Table:
    """Candidate generation (T3 proper): mention rows → one row per
    (mention, candidate) pair with prior, for downstream disambiguation."""
    out = {"url": [], "mention": [], "alias_norm": [], "entity_uri": [], "prior": []}
    for url, mention, norm in zip(
        mentions["url"].to_pylist(),
        mentions["mention"].to_pylist(),
        mentions["alias_norm"].to_pylist(),
    ):
        for uri, prior in alias_index.get(norm, []):
            out["url"].append(url)
            out["mention"].append(mention)
            out["alias_norm"].append(norm)
            out["entity_uri"].append(uri)
            out["prior"].append(prior)
    return pa.table(
        {
            "url": pa.array(out["url"], pa.string()),
            "mention": pa.array(out["mention"], pa.string()),
            "alias_norm": pa.array(out["alias_norm"], pa.string()),
            "entity_uri": pa.array(out["entity_uri"], pa.string()),
            "prior": pa.array(out["prior"], pa.float64()),
        }
    )


class CandidateGenerator:
    """T3 stage wrapper around :func:`candidates_batch`; map one
    driver-built instance as tasks."""

    def __init__(self, alias_index):
        self.index = alias_index

    def __call__(self, batch: pa.Table) -> pa.Table:
        return candidates_batch(batch, self.index)


def link_large_dict(mentions_ds, aliases_ds, num_buckets: int = 64):
    """J2: co-partitioned join for alias dictionaries too large to broadcast
    (the T3b scale path; switch at BROADCAST_MAX_ALIASES). Both sides are
    hash-partitioned on a numeric alias key and joined per bucket by the
    generic co-partitioned :func:`cattle_ray.stages.joins.hash_join` — ONE
    shuffle, neither side ever materialized on the driver. Hot aliases can
    be salted into sub-buckets by raising ``num_buckets``."""
    import pyarrow as _pa

    from .joins import hash_join

    def norm_mentions(batch: _pa.Table) -> _pa.Table:
        if "alias_norm" in batch.column_names:
            return batch
        norms = [normalize_alias(a) for a in batch["mention"].to_pylist()]
        return batch.append_column("alias_norm", _pa.array(norms, _pa.string()))

    def norm_aliases(batch: _pa.Table) -> _pa.Table:
        norms = [normalize_alias(a) for a in batch["alias"].to_pylist()]
        out = batch.append_column("alias_key", _pa.array(norms, _pa.string()))
        return out.append_column(
            "_akey", _pa.array([hash_bucket(n, 1 << 30) for n in norms], _pa.int64())
        )

    def add_mkey(batch: _pa.Table) -> _pa.Table:
        return batch.append_column(
            "_akey",
            _pa.array(
                [hash_bucket(n, 1 << 30) for n in batch["alias_norm"].to_pylist()],
                _pa.int64(),
            ),
        )

    m = mentions_ds.map_batches(norm_mentions, batch_format="pyarrow").map_batches(
        add_mkey, batch_format="pyarrow"
    )
    a = aliases_ds.map_batches(norm_aliases, batch_format="pyarrow")
    joined = hash_join(m, a, "_akey", "_akey", num_buckets=num_buckets)
    # crc collisions across distinct aliases: verify string equality
    return joined.map_batches(
        lambda b: b.filter(
            pc.equal(b["alias_norm"], b["alias_key"])
        ).drop_columns([c for c in ("_akey", "_akey_r", "alias_key") if c in b.column_names]),
        batch_format="pyarrow",
    )


def hash_bucket(s: str, num_buckets: int) -> int:
    import zlib

    return zlib.crc32(s.encode("utf-8")) % num_buckets


# ---------------------------------------------------------------------------
# T4: URI canonicalization

_CANON_STRIP_RE = re.compile(r"[^a-z0-9]+")


def canonical_uri(uri: str) -> str:
    """Pure normalization rules: lowercase scheme+host, strip trailing
    slashes, collapse duplicate slashes in the path."""
    if uri is None:
        return uri
    m = re.match(r"^(https?)://([^/]+)(/.*)?$", uri, re.IGNORECASE)
    if not m:
        return uri
    scheme, host, path = m.group(1).lower(), m.group(2).lower(), m.group(3) or ""
    path = re.sub(r"/{2,}", "/", path).rstrip("/")
    return f"{scheme}://{host}{path}"


# A URI needs rule-work iff: uppercase in scheme or host, double slash in the
# path, or a trailing slash. Checked vectorized; only flagged rows hit Python.
_NEEDS_CANON_PAT = (
    r"(^[a-zA-Z]*[A-Z][a-zA-Z]*://)|(^[a-zA-Z]+://[^/]*[A-Z])|(://[^/]*/.*//)|(/$)"
)


class Canonicalizer:
    """T4 stage, one driver-built instance mapped as tasks: rule-based
    normalization + optional ``{raw_uri: canonical_uri}`` map (J3
    semi-join, carried inside the instance) over subj/obj columns.

    Vectorized fast path: a regex mask (pyarrow kernel) selects the rows that
    can possibly change; already-canonical URIs are passed through zero-copy.
    """

    def __init__(self, canon_map=None, cols=("subj", "pred", "obj")):
        self.map = canon_map or {}
        self.cols = cols

    def _canon(self, v):
        if v is None:
            return v
        v2 = self.map.get(v)
        return v2 if v2 is not None else canonical_uri(v)

    def _apply(self, arr: pa.Array, extra_mask=None) -> pa.Array:
        mask = pc.fill_null(pc.match_substring_regex(arr, _NEEDS_CANON_PAT), False)
        if self.map:
            mask = pc.or_(mask, pc.fill_null(pc.is_in(arr, value_set=pa.array(list(self.map))), False))
        if extra_mask is not None:
            mask = pc.and_(mask, extra_mask)
        if not pc.any(mask).as_py():
            return arr
        vals = arr.to_pylist()
        mk = mask.to_pylist()
        return pa.array([self._canon(v) if m else v for v, m in zip(vals, mk)], pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        for col in self.cols:
            if col not in batch.column_names:
                continue
            arr = batch[col]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            extra = None
            if col == "obj" and "obj_is_iri" in batch.column_names:
                extra = pc.fill_null(batch["obj_is_iri"].combine_chunks(), False)
            new = self._apply(arr, extra)
            batch = batch.set_column(batch.column_names.index(col), col, new)
        return batch


def entity_resolution(ds, id_col: str, block_col, *, num_buckets: int = 32,
                      max_iters: int = 20, small_cc_pairs: int | None = None):
    """Blocking-based entity resolution: rows sharing a blocking-key value
    (normalized name, alias key, …) are candidate-same entities; the
    canonical representative of each resolved cluster is its
    lexicographically smallest ``id_col``.

    ``block_col`` may be a single column or a LIST of columns (multi-rule
    blocking): each rule contributes its own namespaced keys to ONE shared
    pair graph, so transitive chains resolve — A~B via name and B~C via
    alias puts A, B, C in one cluster even though A and C share no key.
    Null key values block nothing (a self-pair stream keeps every id in the
    label table regardless).

    Scale plan: one bucketed shuffle on the (namespaced) blocking key; per
    block the candidate pairs are a BINARY TREE over the sorted member ids —
    O(n) pairs per block instead of the O(n²) clique, with O(log n)
    propagation depth. The pair graph feeds the fused distributed
    connected-components loop (64-bit hashed ids); labels join back to the
    string ids, the canonical (min string id) is a component-sized
    aggregate, and one last co-partitioned join attaches it to every member.
    Nothing block- or cluster-sized ever lands on the driver.

    Returns a Dataset ``(id_col, canonical)``.
    """
    import pandas as pd

    from .exchange import bucket_shuffle
    from .joins import _key_buckets

    block_cols = [block_col] if isinstance(block_col, str) else list(block_col)
    # consumed twice: the self-pairs and the blocking-key expansion (every
    # shuffle downstream sizes its reducers to its own input's bytes)
    ds = ds.materialize()

    def expand_keys(batch: pa.Table) -> pa.Table:
        # one (id, rule-namespaced key) row per non-null blocking value
        ids, keys = [], []
        for i, c in enumerate(block_cols):
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            valid = pc.is_valid(col)
            idc = pc.cast(batch[id_col], pa.string())
            if isinstance(idc, pa.ChunkedArray):
                idc = idc.combine_chunks()
            ids.append(idc.filter(valid))
            keys.append(pc.binary_join_element_wise(
                f"{i}", pc.cast(col.filter(valid), pa.string()), "\x1f"))
        out = pa.table({id_col: pa.concat_arrays(ids),
                        "_bkey": pa.concat_arrays(keys)})
        return out.append_column(
            "_bucket", pa.array(_key_buckets(out["_bkey"], num_buckets)))

    def tree_pairs(g: pd.DataFrame) -> pa.Table:
        import numpy as np

        out_a, out_b = [np.array([], dtype=object)], [np.array([], dtype=object)]
        for _, grp in g.groupby("_bkey", sort=False):
            ids = np.sort(grp[id_col].unique())
            if len(ids) > 1:
                idx = np.arange(1, len(ids))
                out_a.append(ids[idx])
                out_b.append(ids[idx // 2])
        return pa.table({"id_a": pa.array(np.concatenate(out_a), pa.string()),
                         "id_b": pa.array(np.concatenate(out_b), pa.string())})

    # self-pairs keep every id (incl. all-null-key rows) in the label table
    selfs = ds.map_batches(
        lambda b: pa.table({"id_a": pc.cast(b[id_col], pa.string()),
                            "id_b": pc.cast(b[id_col], pa.string())}),
        batch_format="pyarrow")
    tree = bucket_shuffle(ds.map_batches(expand_keys, batch_format="pyarrow"),
                          tree_pairs, num_buckets, "pandas")
    pairs_str = selfs.union(tree)
    return pairs_to_canonical(pairs_str, id_col=id_col,
                              num_buckets=num_buckets,
                              max_iters=max_iters,
                              small_cc_pairs=small_cc_pairs)


def pairs_to_canonical(pairs_str, *, id_col: str = "id",
                       num_buckets: int = 32, max_iters: int = 20,
                       small_cc_pairs: int | None = None):
    """Shared resolution tail: an EXPLICIT same-entity pair graph
    ``(id_a, id_b)`` (string ids; self-pairs keep singletons in the
    output) → Dataset ``(id_col, canonical)`` where canonical is the
    lexicographically smallest member of each connected component. The
    distributed-CC + min-string-aggregate pipeline of
    :func:`entity_resolution`, reusable for owl:sameAs closures and any
    other precomputed equivalence edges. BOTH endpoint columns enter the
    id map (an id that only ever appears on the b side must still label
    itself)."""
    from .aggregates import grouped_minmax
    from .dedup import connected_components_distributed, dedup_exact
    from .graph import uri_ids64
    from .joins import hash_join

    pairs_str = pairs_str.materialize()  # consumed twice: CC + id map

    pairs64 = pairs_str.map_batches(
        lambda b: pa.table({"a": uri_ids64(b["id_a"]),
                            "b": uri_ids64(b["id_b"])}),
        batch_format="pyarrow")
    id_map = dedup_exact(
        pairs_str.map_batches(
            lambda b: pa.table(
                {"nid": pa.concat_arrays([
                    uri_ids64(b["id_a"]), uri_ids64(b["id_b"])]),
                 "sid": pa.concat_arrays([
                     _chunk(b["id_a"]), _chunk(b["id_b"])])}),
            batch_format="pyarrow"),
        ["nid"], num_buckets=num_buckets)
    cc_kwargs = {} if small_cc_pairs is None else {"small_cc_pairs": small_cc_pairs}
    labels = connected_components_distributed(pairs64, max_iters=max_iters,
                                              **cc_kwargs)

    # (hash id, label) → (string id, label); consumed twice (canonical
    # aggregate + the final join) → materialize, don't re-execute upstream
    named = hash_join(labels, id_map, "id", "nid", num_buckets=num_buckets).materialize()

    # canonical per component = min string id (component-sized aggregate)
    canon = grouped_minmax(named, ["label"], "sid", "min", num_buckets=8)
    out = hash_join(named, canon, "label", "label", num_buckets=num_buckets)
    return out.map_batches(  # the canonical is the right side's sid
        lambda b: pa.table({id_col: b["sid"], "canonical": b["sid_r"]}),
        batch_format="pyarrow")


def _chunk(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
