"""Iterative graph algorithms over the materialized triple/edge tables.

:func:`pagerank` — entity-importance power iteration expressed with the same
co-partitioned-bucket primitives as the rest of the engine. Fully
distributed at every step, with the per-round cost cut to the minimum the
Ray Data model allows:

- out-degrees are joined into the edge table ONCE before the loop;
- the padded, bucketed, union-ready edge table is built ONCE and
  materialized — per round it is only re-unioned with the (two-column) rank
  table, never re-padded or re-hashed;
- each round runs exactly TWO shuffles: one edge-sized groupby whose
  per-bucket UDF FUSES the src-join with a partial per-dst reduce (so the
  second shuffle moves node-sized partials, not edge-sized contributions —
  previously the contribution table crossed a second full shuffle), and one
  node-sized groupby that folds the partials onto the static node universe;
- the dangling mass needs no node-level scan: Σ_edges rank(src)/deg(src)
  summed per edge equals the total rank held by nodes WITH out-edges, so
  dangling = 1 − that sum (one distributed column sum over the partials).

Rank state lives in the object store between rounds (two columns); nothing
node- or edge-sized ever lands on the driver. Ray Data cannot yet PIN a
partitioning across stages, so the edge blocks still travel through the
per-round shuffle — when partition pinning lands, the bucketed edge dataset
built here is exactly the shape to pin.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def uri_ids64(col) -> pa.Array:
    """Vectorized 64-bit node ids for a string (URI) column
    (``hash_pandas_object`` — stable across processes, no per-row Python).
    Collision expectation at 64 bits is ~n²/2⁶⁵: negligible below ~10⁹
    distinct URIs (vs the 32-bit crc32 it replaces, which merges distinct
    entities from ~65k nodes). Above that, carry the string id instead."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    h = pd.util.hash_pandas_object(col.to_pandas(), index=False).to_numpy()
    return pa.array(h.astype(np.int64), pa.int64())


def _pad_bucket_tag(ds, schema: pa.Schema, key: str, side: int, num_buckets: int):
    """Pad batches to ``schema`` (missing columns as typed nulls), add
    ``_bucket = key % B`` and the ``_side`` tag — union-ready."""

    def f(t: pa.Table) -> pa.Table:
        n = len(t)
        arrays = []
        for field in schema:
            if field.name in t.column_names:
                col = t[field.name]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                arrays.append(col.cast(field.type))
            else:
                arrays.append(pa.nulls(n, field.type))
        out = pa.Table.from_arrays(arrays, schema=schema)
        k = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
        out = out.append_column("_bucket", pa.array(k % num_buckets))
        return out.append_column("_side", pa.array(np.full(n, side, dtype=np.int8)))

    return ds.map_batches(f, batch_format="pyarrow")


#: stage-1 union schema: edge rows carry (src, dst, deg), rank rows (node, rank)
_S1_SCHEMA = pa.schema([
    ("src", pa.int64()), ("dst", pa.int64()), ("deg", pa.float64()),
    ("node", pa.int64()), ("rank", pa.float64()),
])
#: stage-2 union schema: node rows carry (node), partial rows (node, in_sum)
_S2_SCHEMA = pa.schema([("node", pa.int64()), ("in_sum", pa.float64())])


def gather_block_refs(block_refs: list, empty_schema: pa.Schema) -> pa.Table:
    """Resolve a dataset's block refs into ONE pa.Table (pandas blocks
    converted, empty blocks dropped — they may carry degenerate null
    schemas — and the rest cast to a common schema). Shared by the
    small-graph solvers here and in ``dedup``."""
    import ray

    blocks = ray.get(block_refs)
    tables = [pa.Table.from_pandas(b, preserve_index=False)
              if isinstance(b, pd.DataFrame) else b for b in blocks]
    tables = [t for t in tables if t.num_rows > 0]
    if not tables:
        return empty_schema.empty_table()
    return pa.concat_tables([t.cast(tables[0].schema) for t in tables])


_PR_EMPTY = pa.schema([("node", pa.int64()), ("rank", pa.float64())])


def _pagerank_numpy_task(block_refs: list, iters: int, damping: float,
                         seeds: np.ndarray | None = None) -> pa.Table:
    """Single-worker exact solve for graphs below the distributed-overhead
    crossover (same math as the distributed rounds; vectorized bincount).
    Receives the edge BLOCK REFS (zero-copy reads from the object store).
    ``seeds`` switches to PERSONALIZED PageRank: the teleport distribution
    concentrates uniformly on the seed nodes (restricted to seeds present
    in the graph) instead of 1/n — rank(v) measures v's proximity to the
    seed set (recommendation / related-entity scoring)."""
    t = gather_block_refs(block_refs, _PR_EMPTY)
    if t.num_rows == 0:
        return _PR_EMPTY.empty_table()
    src = t["src"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    s_idx, d_idx = inv[: len(src)], inv[len(src):]
    n = len(nodes)
    deg = np.bincount(s_idx, minlength=n).astype(np.float64)
    if seeds is None:
        p = np.full(n, 1.0 / n)
    else:
        in_graph = np.isin(nodes, seeds)
        k = int(in_graph.sum())
        if k == 0:
            raise ValueError("personalized pagerank: no seed appears in "
                             "the graph")
        p = np.where(in_graph, 1.0 / k, 0.0)
    r = p.copy()
    for _ in range(iters):
        contrib = r[s_idx] / deg[s_idx]
        non_dangling = contrib.sum()
        coef = (1 - damping) + damping * (1.0 - non_dangling)
        r = coef * p + damping * np.bincount(d_idx, weights=contrib,
                                             minlength=n)
    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "rank": pa.array(r, pa.float64())})


#: below this edge count the per-round shuffle floor dominates useful work —
#: solve on ONE worker instead (broadcast-small-side principle applied to
#: iteration); the distributed path is the default above it. Sizing: an
#: edge is 16 B (2M ≈ 32 MB) and the numpy solve runs 2M edges × 10 iters
#: in ~2 s single-core vs ~8 s of distributed rounds at a quarter the size
#: — like the CC crossover, runtime-bound (tens of millions), not
#: memory-bound, on 100 GB-class workers
SMALL_GRAPH_EDGES = 2_000_000

# "no seed" marker for scc's backward root-reach — must not collide with a
# real node id (node ids span the full int64 range: hashed uris). Guarded
# with an explicit raise in scc() rather than silently mislabeling.
_SCC_SENTINEL = -(2 ** 63)


def pagerank(edges_ds, *, damping: float = 0.85, iters: int = 10,
             num_buckets: int | None = None,
             small_graph_edges: int = SMALL_GRAPH_EDGES,
             checkpoint_dir: str | None = None,
             seeds=None):
    """edges Dataset (src:int64, dst:int64) → Dataset (node, rank).

    ``seeds`` (iterable of int64 node ids) switches to PERSONALIZED
    PageRank: teleports land uniformly on the seed set instead of 1/n, so
    rank(v) scores proximity to the seeds (related-entity /
    recommendation queries). Seeds are a QUERY parameter — dimension-sized
    by definition — broadcast once; seeds absent from the graph are
    ignored (all absent raises). Identical math on both the numpy and
    distributed paths (parity-tested).

    Ranks sum to ~1.0 (dangling mass redistributed uniformly). Deterministic
    at any parallelism: every reduction is a sum of fixed values.
    Size-adaptive: graphs under ``small_graph_edges`` solve in one remote
    task (numpy — identical semantics, tested to 1e-9 against the
    distributed rounds); larger graphs run the fused distributed iteration.
    ``num_buckets=None`` auto-scales with the edge count (each shuffle
    launches tasks per bucket, so small graphs shouldn't pay 32-bucket
    fixed overhead per round; big graphs need buckets that fit a worker).

    ``checkpoint_dir``: per-round rank checkpoints (distributed path only —
    the small-graph solve is one task, retried whole by Ray). After round
    k the node-sized (node, rank) table lands in ``round_<k>/`` with a
    ``_DONE`` marker written LAST; a rerun resumes from the latest marked
    round instead of round 0 — at web scale a 10-round job that dies at
    round 7 restarts from 7. The resumed result matches an uninterrupted
    run within the same 1e-16-ulp envelope as any block re-layout (rank
    reductions are float sums whose partial order is layout-dependent —
    the reason the oracle rounds to 6 decimals); test-pinned at 1e-12.
    """
    import ray

    from .aggregates import add_key_bucket, coalesce_small
    from .dedup import dedup_exact
    from .joins import hash_join

    edges = edges_ds.map_batches(
        lambda t: pa.table(
            {"src": t["src"].combine_chunks().cast(pa.int64()),
             "dst": t["dst"].combine_chunks().cast(pa.int64())}
        ),
        batch_format="pyarrow",
    ).materialize()
    seeds_arr = None
    if seeds is not None:
        seeds_arr = np.unique(np.asarray(list(seeds), dtype=np.int64))
        if len(seeds_arr) == 0:
            raise ValueError("personalized pagerank: empty seed list")
    n_edges = edges.count()
    if n_edges <= small_graph_edges:
        import ray.data as rd

        task = ray.remote(num_cpus=1)(_pagerank_numpy_task)
        out = ray.get(task.remote(list(edges.to_arrow_refs()), iters, damping,
                                  seeds_arr))
        return rd.from_arrow(out)
    if num_buckets is None:
        num_buckets = int(min(64, max(8, n_edges // 100_000)))

    nodes_tbl = edges.map_batches(
        lambda t: pa.table({"node": pc.unique(pa.concat_arrays(
            [t["src"].combine_chunks(), t["dst"].combine_chunks()]))}),
        batch_format="pyarrow",
    )
    nodes = dedup_exact(nodes_tbl, ["node"]).map_batches(
        lambda t: pa.table({"node": t["node"].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow",
    ).materialize()
    n_nodes = nodes.count()

    # static: fold out-degree into the edge table (co-partitioned join, once)
    def local_deg(t: pa.Table) -> pa.Table:
        out = t.group_by(["src"]).aggregate([([], "count_all")])
        out = out.rename_columns(["dnode", "deg_p"])
        return add_key_bucket(out, ["dnode"], num_buckets)

    def sum_deg(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("dnode", sort=False)["deg_p"].sum().reset_index(name="deg")
        out["deg"] = out["deg"].astype("int64")
        return out

    deg = (
        coalesce_small(edges.map_batches(local_deg, batch_format="pyarrow"), 8)
        .groupby("_bucket")
        .map_groups(sum_deg, batch_format="pandas")
    )
    edges_deg = hash_join(edges, deg, "src", "dnode", num_buckets=num_buckets)
    edges_deg = edges_deg.map_batches(
        lambda t: t.select(["src", "dst", "deg"]), batch_format="pyarrow"
    )
    # padded + bucketed ONCE, reused every round
    edges_pre = coalesce_small(
        _pad_bucket_tag(edges_deg, _S1_SCHEMA, "src", 0, num_buckets), 16
    ).materialize()
    nodes_pre = coalesce_small(
        _pad_bucket_tag(nodes, _S2_SCHEMA, "node", 0, num_buckets), 8
    ).materialize()

    if seeds_arr is None:
        p_ref, inv_k = None, None

        def init_ranks(t: pa.Table) -> pa.Table:
            return pa.table({"node": t["node"],
                             "rank": pa.array(np.full(len(t), 1.0 / n_nodes))})
    else:
        # teleport vector: uniform over the seeds PRESENT in the graph —
        # seed list is query-sized, broadcast once, membership via
        # vectorized sorted-array searchsorted/isin
        p_ref = ray.put(seeds_arr)
        k_in = nodes.map_batches(
            lambda t: pa.table({"k": pa.array(
                [int(np.isin(t["node"].to_numpy(zero_copy_only=False),
                             seeds_arr).sum())], pa.int64())}),
            batch_format="pyarrow").sum("k") or 0
        if k_in == 0:
            raise ValueError("personalized pagerank: no seed appears in "
                             "the graph")
        inv_k = 1.0 / k_in

        def init_ranks(t: pa.Table, _ref=p_ref, _ik=inv_k) -> pa.Table:
            s = ray.get(_ref)
            m = np.isin(t["node"].to_numpy(zero_copy_only=False), s)
            return pa.table({"node": t["node"],
                             "rank": pa.array(np.where(m, _ik, 0.0))})

    ranks = nodes.map_batches(init_ranks, batch_format="pyarrow").materialize()

    def stage1(g: pa.Table) -> pd.DataFrame:
        """Fused per-bucket: join ranks onto edges by src, contribute
        rank/deg to each dst, PARTIAL-reduce by dst — the second shuffle
        then moves one row per (bucket, dst), not one per edge.
        Sides split IN ARROW before pandas (padding nulls would otherwise
        coerce int64 ids to float64, corrupting 64-bit hash ids)."""
        e = g.filter(pc.equal(g["_side"], 0)).select(["src", "dst", "deg"]).to_pandas()
        r = g.filter(pc.equal(g["_side"], 1)).select(["node", "rank"]).to_pandas()
        m = e.merge(r, left_on="src", right_on="node", how="inner")
        if m.empty:
            return pd.DataFrame({"node": pd.Series(dtype="int64"),
                                 "in_sum": pd.Series(dtype="float64")})
        contrib = m["rank"].to_numpy() / m["deg"].to_numpy()
        out = (
            pd.DataFrame({"node": m["dst"].to_numpy(), "in_sum": contrib})
            .groupby("node", sort=False)["in_sum"].sum().reset_index()
        )
        out["node"] = out["node"].astype("int64")
        return out

    start_round = 0
    if checkpoint_dir:
        import os

        import ray.data as rd

        done = sorted(
            int(d.split("_")[-1]) for d in os.listdir(checkpoint_dir)
            if d.startswith("round_")
            and os.path.exists(os.path.join(checkpoint_dir, d, "_DONE"))
        ) if os.path.isdir(checkpoint_dir) else []
        if done and done[-1] > iters:
            raise ValueError(
                f"checkpoint_dir has round_{done[-1]} but only {iters} "
                "iterations were requested — returning over-iterated ranks "
                "silently would be wrong; use a fresh checkpoint_dir")
        if done:
            start_round = done[-1]
            ranks = rd.read_parquet(
                os.path.join(checkpoint_dir, f"round_{start_round}")
            ).map_batches(
                lambda t: pa.table(
                    {"node": t["node"].combine_chunks().cast(pa.int64()),
                     "rank": t["rank"].combine_chunks().cast(pa.float64())}),
                batch_format="pyarrow").materialize()

    for round_k in range(start_round, iters):
        ranks_tag = coalesce_small(
            _pad_bucket_tag(ranks, _S1_SCHEMA, "node", 1, num_buckets), 8
        )
        partials = (
            edges_pre.union(ranks_tag)
            .groupby("_bucket")
            .map_groups(stage1, batch_format="pyarrow")
            .materialize()
        )
        # non-dangling mass = Σ_edges rank(src)/deg(src); dangling = 1 − it
        non_dangling = partials.sum("in_sum") or 0.0
        # uniform teleport: base(v) = coef/n ∀v; personalized: coef·p(v)
        coef = (1 - damping) + damping * (1.0 - non_dangling)
        base = coef / n_nodes

        def stage2(g: pa.Table, base=base, coef=coef) -> pd.DataFrame:
            nod = g.filter(pc.equal(g["_side"], 0)).select(["node"]).to_pandas()
            p = g.filter(pc.equal(g["_side"], 1)).select(["node", "in_sum"]).to_pandas()
            s = p.groupby("node", sort=False)["in_sum"].sum()
            in_sum = nod["node"].map(s).fillna(0.0).to_numpy()
            if p_ref is None:
                base_v = base
            else:
                m = np.isin(nod["node"].to_numpy(), ray.get(p_ref))
                base_v = coef * np.where(m, inv_k, 0.0)
            return pd.DataFrame({
                "node": nod["node"].to_numpy(),
                "rank": base_v + damping * in_sum,
            })

        partials_tag = coalesce_small(
            _pad_bucket_tag(partials, _S2_SCHEMA, "node", 1, num_buckets), 8
        )
        ranks = (
            nodes_pre.union(partials_tag)
            .groupby("_bucket")
            .map_groups(stage2, batch_format="pyarrow")
            .materialize()
        )
        if checkpoint_dir:
            import os

            d = os.path.join(checkpoint_dir, f"round_{round_k + 1}")
            if not os.path.exists(os.path.join(d, "_DONE")):
                if os.path.isdir(d):
                    # stale files from a crashed write: write_parquet only
                    # ADDS uuid-named parts — a polluted dir then marked
                    # _DONE would resume with duplicated rank rows
                    import shutil

                    shutil.rmtree(d)
                ranks.map_batches(
                    lambda t: t.select(["node", "rank"]),
                    batch_format="pyarrow").write_parquet(d)
                with open(os.path.join(d, "_DONE"), "w") as f:
                    f.write("")  # marker LAST: unmarked dirs are ignored
    return ranks


_HITS_EMPTY = pa.schema([("node", pa.int64()), ("auth", pa.float64()),
                         ("hub", pa.float64())])


def _hits_numpy_task(block_refs: list, iters: int) -> pa.Table:
    """Single-worker HITS solve (same math as the distributed rounds,
    vectorized bincount) for graphs below the shuffle-floor crossover."""
    t = gather_block_refs(block_refs, _PR_EMPTY)
    if t.num_rows == 0:
        return _HITS_EMPTY.empty_table()
    src = t["src"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    s_idx, d_idx = inv[: len(src)], inv[len(src):]
    n = len(nodes)
    h = np.ones(n)
    a = np.ones(n)
    for _ in range(iters):
        a = np.bincount(d_idx, weights=h[s_idx], minlength=n)
        a = a / a.sum()
        h = np.bincount(s_idx, weights=a[d_idx], minlength=n)
        h = h / h.sum()
    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "auth": pa.array(a), "hub": pa.array(h)})


def hits(edges_ds, *, iters: int = 3, num_buckets: int | None = None,
         small_graph_edges: int = SMALL_GRAPH_EDGES):
    """HITS hubs & authorities over an edge Dataset (src:int64, dst:int64)
    → Dataset (node, auth, hub); L1-normalized each half-round.

    Same execution discipline as :func:`pagerank`: size-adaptive (one
    remote numpy task under the crossover — iteration on a small graph is
    shuffle-floor-bound, not compute-bound), else distributed rounds where
    the edge table is padded + bucketed ONCE per direction (by src for the
    auth half-round, by dst for the hub half-round) and each half-round's
    first shuffle fuses the score join with a partial per-target reduce, so
    the second shuffle moves node-sized partials, not edge-sized
    contributions. Only the two-column score table moves per round.
    """
    import ray

    from .aggregates import coalesce_small

    edges = edges_ds.map_batches(
        lambda t: pa.table(
            {"src": t["src"].combine_chunks().cast(pa.int64()),
             "dst": t["dst"].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow",
    ).materialize()
    n_edges = edges.count()
    if n_edges <= small_graph_edges:
        import ray.data as rd

        task = ray.remote(num_cpus=1)(_hits_numpy_task)
        out = ray.get(task.remote(list(edges.to_arrow_refs()), iters))
        return rd.from_arrow(out)
    if num_buckets is None:
        num_buckets = int(min(64, max(8, n_edges // 100_000)))

    from .dedup import dedup_exact

    nodes_tbl = edges.map_batches(
        lambda t: pa.table({"node": pc.unique(pa.concat_arrays(
            [t["src"].combine_chunks(), t["dst"].combine_chunks()]))}),
        batch_format="pyarrow")
    nodes = dedup_exact(nodes_tbl, ["node"]).map_batches(
        lambda t: pa.table({"node": t["node"].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow").materialize()

    # padded + bucketed ONCE per direction, reused every round
    e_by_src = coalesce_small(
        _pad_bucket_tag(edges, _S1_SCHEMA, "src", 0, num_buckets), 16
    ).materialize()
    e_by_dst = coalesce_small(
        _pad_bucket_tag(edges, _S1_SCHEMA, "dst", 0, num_buckets), 16
    ).materialize()
    nodes_pre = coalesce_small(
        _pad_bucket_tag(nodes, _S2_SCHEMA, "node", 0, num_buckets), 8
    ).materialize()

    def init_scores(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"],
                         "rank": pa.array(np.ones(len(t)))})

    def half_round(scores, e_pre, join_key: str, out_key: str):
        """scores(node, rank) joined onto edges via ``join_key``, partial-
        summed per ``out_key``; returns (partials, total)."""

        def stage1(g: pa.Table) -> pd.DataFrame:
            e = g.filter(pc.equal(g["_side"], 0)).select(
                ["src", "dst"]).to_pandas()
            r = g.filter(pc.equal(g["_side"], 1)).select(
                ["node", "rank"]).to_pandas()
            m = e.merge(r, left_on=join_key, right_on="node", how="inner")
            if m.empty:
                return pd.DataFrame({"node": pd.Series(dtype="int64"),
                                     "in_sum": pd.Series(dtype="float64")})
            out = (pd.DataFrame({"node": m[out_key].to_numpy(),
                                 "in_sum": m["rank"].to_numpy()})
                   .groupby("node", sort=False)["in_sum"].sum().reset_index())
            out["node"] = out["node"].astype("int64")
            return out

        scores_tag = coalesce_small(
            _pad_bucket_tag(scores, _S1_SCHEMA, "node", 1, num_buckets), 8)
        partials = (e_pre.union(scores_tag).groupby("_bucket")
                    .map_groups(stage1, batch_format="pyarrow").materialize())
        total = partials.sum("in_sum") or 1.0

        def stage2(g: pa.Table, total=total) -> pd.DataFrame:
            nod = g.filter(pc.equal(g["_side"], 0)).select(["node"]).to_pandas()
            p = g.filter(pc.equal(g["_side"], 1)).select(
                ["node", "in_sum"]).to_pandas()
            s = p.groupby("node", sort=False)["in_sum"].sum()
            in_sum = nod["node"].map(s).fillna(0.0).to_numpy()
            return pd.DataFrame({"node": nod["node"].to_numpy(),
                                 "rank": in_sum / total})

        partials_tag = coalesce_small(
            _pad_bucket_tag(partials, _S2_SCHEMA, "node", 1, num_buckets), 8)
        return (nodes_pre.union(partials_tag).groupby("_bucket")
                .map_groups(stage2, batch_format="pyarrow").materialize())

    hub = nodes.map_batches(init_scores, batch_format="pyarrow").materialize()
    auth = None
    for _ in range(iters):
        auth = half_round(hub, e_by_src, "src", "dst")
        hub = half_round(auth, e_by_dst, "dst", "src")

    from .joins import hash_join

    j = hash_join(
        auth.map_batches(lambda t: t.rename_columns(["anode", "auth"]),
                         batch_format="pyarrow"),
        hub.map_batches(lambda t: t.rename_columns(["hnode", "hub"]),
                        batch_format="pyarrow"),
        "anode", "hnode", num_buckets=8)
    return j.map_batches(
        lambda t: pa.table({"node": t["anode"].combine_chunks().cast(pa.int64()),
                            "auth": t["auth"], "hub": t["hub"]}),
        batch_format="pyarrow")


def adjacency_lists(triples_ds, subj_col: str = "subj", pred_col: str = "pred",
                    obj_col: str = "obj", sep: str = "; ",
                    num_buckets: int = 64):
    """Adjacency-list materialization of the triple table (the north-star
    "adjacency tables sorted by subject" shape): one row per subject with
    its out-degree and a deterministically ordered ``pred obj`` adjacency
    string — the layout a downstream graph consumer reads instead of
    re-shuffling raw triples per query.

    One bucketed shuffle on a hash of the subject (key-type-aware: string
    URIs hash vectorized); per bucket a single vectorized sort +
    ``groupby.agg`` — no per-subject UDF calls. Hub subjects are bounded by
    their own edge count (the agg is linear in bucket rows), and the output
    is tiny (one row per distinct subject), so skew shows up only as one
    bucket with more input rows — at web scale raise ``num_buckets`` so the
    largest bucket's edges fit a worker's heap.
    """
    from .aggregates import coalesce_small
    from .joins import _key_buckets

    def add_bucket(batch: pa.Table) -> pa.Table:
        out = batch.select([subj_col, pred_col, obj_col])
        return out.append_column(
            "_bucket", pa.array(_key_buckets(out[subj_col], num_buckets))
        )

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([subj_col, pred_col, obj_col], kind="mergesort")
        entries = g[pred_col] + " " + g[obj_col]
        grp = entries.groupby(g[subj_col].to_numpy(), sort=False)
        adj = grp.agg(sep.join)
        deg = grp.size()
        return pd.DataFrame({
            subj_col: adj.index,
            "out_degree": deg.to_numpy().astype("int64"),
            "adj": adj.to_numpy(),
        })

    return (
        coalesce_small(triples_ds.map_batches(add_bucket, batch_format="pyarrow"))
        .groupby("_bucket")
        .map_groups(build, batch_format="pandas")
    )


def _pair_key16(a: np.ndarray, b: np.ndarray) -> pa.Array:
    """Two int64 columns → one fixed_size_binary(16) key (exact pair
    equality, 16 B/row instead of two joined strings)."""
    packed = np.column_stack([a, b]).astype("<i8")
    return pa.Array.from_buffers(
        pa.binary(16), len(a),
        [None, pa.py_buffer(np.ascontiguousarray(packed).tobytes())])


def triangles(edges_ds, u_col: str = "u", v_col: str = "v",
              num_buckets: int = 32, count_only: bool = False,
              deg_broadcast_max: int = 5_000_000):
    """Triangle enumeration by the degree-ordered (compact-forward)
    algorithm — the scale-safe formulation: every edge is oriented from its
    lower-(degree, id) endpoint, so a hub of degree d contributes
    O(sqrt(m)) out-neighbors instead of O(d²) wedges; total wedge volume is
    bounded by O(m^1.5) regardless of skew.

    Plan: canonicalize+distinct the edge set (exact, on the original
    values); then every join and closure key runs on VECTORIZED 64-bit node
    ids (``uri_ids64`` — int64 merges beat object-string merges several-fold
    and the wedge closure key is a 16-byte binary instead of two joined
    URIs; collision expectation n²/2⁶⁵ — negligible below ~10⁹ nodes, same
    caveat as PageRank). Degrees via map-side-combined
    :func:`partial_count`, then attached ADAPTIVELY: a node census at or
    under ``deg_broadcast_max`` (16 B/node — 5M ≈ 80 MB) broadcasts once
    and both endpoints' degrees come from two vectorized searchsorted
    gathers map-side (no edge-table shuffle at all); above it the two
    co-partitioned degree joins run. The wedge build is ONE self-join of
    the oriented edge list on its source; closure is an exact adaptive
    semi-join.

    Returns a Dataset of (a, b, c) triples, each row sorted a < b < c in
    the original value order; ``count_only=True`` returns the int count and
    never ships the node strings past the first map stage.
    """
    from .aggregates import distinct, partial_count
    from .joins import hash_join, semi_join

    def canon(b: pa.Table) -> pa.Table:
        u, v = b[u_col], b[v_col]
        t = pa.table({"u": pc.min_element_wise(u, v),
                      "v": pc.max_element_wise(u, v)})
        return t.filter(pc.not_equal(t["u"], t["v"]))

    # NOTE: e is consumed exactly once (by to64) — no materialize, the
    # URI-string edge list should not stay pinned in the object store
    e = distinct(edges_ds.map_batches(canon, batch_format="pyarrow"),
                 ["u", "v"], num_buckets=num_buckets)

    def to64(b: pa.Table) -> pa.Table:
        t = pa.table({"iu": uri_ids64(b["u"]), "iv": uri_ids64(b["v"])})
        if not count_only:  # enumeration carries the original values
            t = t.append_column("u", b["u"]).append_column("v", b["v"])
        return t

    e64 = e.map_batches(to64, batch_format="pyarrow").materialize()

    ends = e64.map_batches(
        lambda b: pa.table({"node": pa.concat_arrays(
            [b["iu"].combine_chunks(), b["iv"].combine_chunks()])}),
        batch_format="pyarrow")
    # deg is consumed twice on either path (or counted + gathered) —
    # materialize the node-sized table once instead of recomputing the
    # degree census per consumer
    deg = partial_count(ends, ["node"]).materialize()

    if deg.count() <= deg_broadcast_max:
        # degrees are a node-sized (int64, int64) table — 16 B/node —
        # broadcast once (ray.put, zero-copy numpy in every task) and
        # attach both endpoints' degrees map-side with two vectorized
        # searchsorted gathers: the two edge-table degree shuffles vanish
        import ray as _ray
        dd = deg.to_pandas()
        k = dd["node"].to_numpy().astype(np.int64)
        nv = dd["n"].to_numpy().astype(np.int64)
        o = np.argsort(k, kind="mergesort")
        deg_ref = _ray.put((k[o], nv[o]))

        def orient(b: pa.Table) -> pa.Table:
            keys, degs = _ray.get(deg_ref)  # local zero-copy read
            iu = b["iu"].to_numpy(zero_copy_only=False)
            iv = b["iv"].to_numpy(zero_copy_only=False)
            du_ = degs[np.searchsorted(keys, iu)]
            dv_ = degs[np.searchsorted(keys, iv)]
            u_first = pa.array((du_ < dv_) | ((du_ == dv_) & (iu < iv)))
            t = pa.table({"x": pc.if_else(u_first, b["iu"], b["iv"]),
                          "y": pc.if_else(u_first, b["iv"], b["iu"])})
            if not count_only:
                t = (t.append_column(
                        "xs", pc.if_else(u_first, b["u"], b["v"]))
                      .append_column(
                        "ys", pc.if_else(u_first, b["v"], b["u"])))
            return t

        oriented = e64.map_batches(orient,
                                   batch_format="pyarrow").materialize()
    else:
        du = deg.map_batches(lambda b: b.rename_columns(["nd_u", "deg_u"]),
                             batch_format="pyarrow")
        dv = deg.map_batches(lambda b: b.rename_columns(["nd_v", "deg_v"]),
                             batch_format="pyarrow")
        j = hash_join(e64, du, "iu", "nd_u", num_buckets=num_buckets)
        j = hash_join(j, dv, "iv", "nd_v", num_buckets=num_buckets)

        def orient(b: pa.Table) -> pa.Table:
            u_first = pc.or_(
                pc.less(b["deg_u"], b["deg_v"]),
                pc.and_(pc.equal(b["deg_u"], b["deg_v"]),
                        pc.less(b["iu"], b["iv"])))
            t = pa.table({"x": pc.if_else(u_first, b["iu"], b["iv"]),
                          "y": pc.if_else(u_first, b["iv"], b["iu"])})
            if not count_only:
                t = (t.append_column(
                        "xs", pc.if_else(u_first, b["u"], b["v"]))
                      .append_column(
                        "ys", pc.if_else(u_first, b["v"], b["u"])))
            return t

        oriented = j.map_batches(orient,
                                 batch_format="pyarrow").materialize()
    rcols = {"x": "x_r", "y": "y_r"} if count_only else \
        {"x": "x_r", "y": "y_r", "xs": "xs_r", "ys": "ys_r"}
    right = oriented.map_batches(
        lambda b: b.select(list(rcols)).rename_columns(list(rcols.values())),
        batch_format="pyarrow")
    wedges = hash_join(oriented, right, "x", "x_r", num_buckets=num_buckets)

    def wedge_key(b: pa.Table) -> pa.Table:
        t = b.filter(pc.less(b["y"], b["y_r"]))  # each unordered pair once
        y = t["y"].to_numpy(zero_copy_only=False)
        z = t["y_r"].to_numpy(zero_copy_only=False)
        k = _pair_key16(y, z)
        if count_only:
            return pa.table({"_k": k})
        return pa.table({"a": t["xs"], "b": t["ys"], "c": t["ys_r"], "_k": k})

    keyed = wedges.map_batches(wedge_key, batch_format="pyarrow")

    def edge_key(b: pa.Table) -> pa.Table:
        iu = b["iu"].to_numpy(zero_copy_only=False)
        iv = b["iv"].to_numpy(zero_copy_only=False)
        lo = np.minimum(iu, iv)
        hi = np.maximum(iu, iv)
        return pa.table({"_k": _pair_key16(lo, hi)})

    ekeys = e64.map_batches(edge_key, batch_format="pyarrow")
    closed = semi_join(keyed, ekeys, "_k", "_k", num_buckets=num_buckets)
    if count_only:
        return closed.count()

    def row_sort(b: pa.Table) -> pa.Table:
        # canonical per-row order a < b < c in original value order
        a, bb, c = b["a"], b["b"], b["c"]
        lo = pc.min_element_wise(a, pc.min_element_wise(bb, c))
        hi = pc.max_element_wise(a, pc.max_element_wise(bb, c))
        mid = pc.max_element_wise(
            pc.min_element_wise(a, bb),
            pc.min_element_wise(pc.max_element_wise(a, bb), c))
        return pa.table({"a": lo, "b": mid, "c": hi})

    return closed.map_batches(row_sort, batch_format="pyarrow")


def bfs(edges_ds, seeds, *, src: str = "s", dst: str = "o", hops: int = 2,
        undirected: bool = True, num_buckets: int = 32):
    """Multi-source BFS with exact hop distance (frontier-at-a-time).

    The k-hop-neighborhood primitive behind "expand this entity" KG queries
    and graph-local sampling. Per round exactly two adaptive semi-joins,
    both with the frontier/visited on the KEY side (broadcast while small,
    distributed when not — :func:`..stages.joins.semi_join` picks):

    1. ``edges ⋉ frontier`` on ``src`` → neighbor candidates,
    2. ``distinct(candidates) ▷ visited`` → the next frontier.

    The frontier is materialized each round (it is the next round's join
    input AND part of the output — re-deriving it would replay the whole
    lineage each round), and ``visited`` stays a Dataset throughout: no
    node-sized driver state. Seeds are a query parameter (bounded list).

    Returns a Dataset ``(node, dist)`` — min hop distance, seeds at 0.
    Rounds stop early when the frontier empties.
    """
    import ray.data as rd

    from .aggregates import distinct
    from .joins import semi_join

    def orient(b: pa.Table) -> pa.Table:
        fwd = pa.table({"_s": b[src], "_o": b[dst]})
        if not undirected:
            return fwd
        rev = pa.table({"_s": b[dst], "_o": b[src]})
        return pa.concat_tables([fwd, rev])

    edges = edges_ds.map_batches(orient, batch_format="pyarrow").materialize()

    seed_tbl = pa.table({"node": pa.array(sorted(set(seeds)), pa.string()),
                         "dist": pa.array([0] * len(set(seeds)), pa.int64())})
    frontier = rd.from_arrow(seed_tbl).materialize()
    layers = [frontier]
    visited = frontier

    for k in range(1, hops + 1):
        nbrs = semi_join(edges, frontier, "_s", "node",
                         num_buckets=num_buckets).map_batches(
            lambda b: pa.table({"node": b["_o"]}), batch_format="pyarrow")
        fresh = semi_join(distinct(nbrs, ["node"], num_buckets=num_buckets),
                          visited, "node", "node", anti=True,
                          num_buckets=num_buckets)
        frontier = fresh.map_batches(
            lambda b, _k=k: b.append_column(
                "dist", pa.array(np.full(len(b), _k), pa.int64())),
            batch_format="pyarrow",
        ).materialize()
        if frontier.count() == 0:
            break
        layers.append(frontier)
        visited = visited.union(frontier).materialize()

    out = layers[0]
    for layer in layers[1:]:
        out = out.union(layer)
    return out


def _bfs_labeled_local(edges: pa.Table, seeds: pa.Table,
                       hops: int) -> "pd.DataFrame":
    """In-process labeled BFS (same frontier semantics as the
    distributed path) — the small-input side of the crossover."""
    adj: "dict[str, list[str]]" = {}
    for s, o in zip(edges["_s"].to_pylist(), edges["_o"].to_pylist()):
        adj.setdefault(s, []).append(o)
    visited = {(r, r) for r in seeds["root"].to_pylist()}
    frontier = set(visited)
    for _ in range(hops):
        nxt = set()
        for root, node in frontier:
            for o in adj.get(node, ()):
                p = (root, o)
                if p not in visited:
                    visited.add(p)
                    nxt.add(p)
        if not nxt:
            break
        frontier = nxt
    else:
        if frontier:
            raise ValueError(
                f"labeled BFS reached the {hops}-hop bound without "
                "converging — materialize the closure explicitly for "
                "chains this deep")
    out = sorted(visited)
    return pd.DataFrame({"root": [p[0] for p in out],
                         "node": [p[1] for p in out]})


#: below this edge count the labeled BFS runs in-process — each
#: distributed round costs a join + distinct + anti semi-join of fixed
#: bucketed-shuffle floor (~2 s/round at toy scale), so a depth-6
#: hierarchy pays ~14 s before any real data moves; same crossover
#: rationale and sizing style as SMALL_CLOSURE_EDGES (runtime-bound,
#: the closure of a hierarchy is near-linear in its edges)
SMALL_LABELED_EDGES = 500_000


def bfs_labeled(edges_ds, seeds_ds, *, src: str = "s", dst: str = "o",
                root_col: str = "root", hops: int = 256,
                num_buckets: int = 32,
                small_edges: int = SMALL_LABELED_EDGES):
    """Per-root directed reachability — multi-source BFS whose frontier
    carries ``(root, node)`` so every root's reach stays separate. This
    is the seeded-property-path primitive: SPARQL ``?x p* ?y`` with
    ``?x`` range-restricted by the REST of the query lowers to this with
    the restriction's distinct values as roots (VERDICT r4 order #2 —
    the engine previously rejected both-unbound ``p*`` outright).

    Seeds arrive as a DATASET (column ``root_col``), never driver
    state. Identity rows ``(root, root)`` emit at distance 0 — exactly
    SPARQL's zero-length path (they hold even for roots with no edge).
    Per round: one co-partitioned :func:`~.joins.hash_join` of the
    frontier against the edges on ``node = src``, a distributed
    distinct, then an anti semi-join against the visited set on a
    synthesized ``root\\x1fnode`` key (composite anti in one exchange).
    Frontier and visited are materialized per round (each is the next
    round's join input); rounds stop when the frontier empties.
    Reaching ``hops`` without converging raises — a deeper chain needs
    an explicit closure materialization, not silent truncation.

    Output pairs are the size of the union of per-root reaches — the
    answer's own size; roots with overlapping reach each carry their
    copy (per-root labels are the point)."""
    from .aggregates import distinct
    from .joins import hash_join, semi_join

    import ray.data as rd

    edges = edges_ds.map_batches(
        lambda b: pa.table({"_s": b[src], "_o": b[dst]}),
        batch_format="pyarrow").materialize()

    seeds_named = seeds_ds.map_batches(
        lambda b: pa.table({"root": b[root_col]}), batch_format="pyarrow")
    if seeds_named.count() == 0:
        # empty seed domain: empty pairs WITH schema (an empty Dataset
        # loses its columns through to_pandas)
        return rd.from_arrow(pa.table({
            "root": pa.array([], pa.string()),
            "node": pa.array([], pa.string())}))
    if edges.count() <= small_edges:
        # in-process crossover: seeds are ≤ the restricted domain the
        # caller derived them from — with the edge set this small, the
        # per-root reach is too (hierarchy contract, see the constant)
        local = _bfs_labeled_local(
            pa.Table.from_pandas(edges.to_pandas(), preserve_index=False),
            pa.Table.from_pandas(seeds_named.to_pandas(),
                                 preserve_index=False), hops)
        return rd.from_pandas(local)

    def keyed(b: pa.Table) -> pa.Table:
        r, n = b["root"], b["node"]
        if isinstance(r, pa.ChunkedArray):
            r = r.combine_chunks()
        if isinstance(n, pa.ChunkedArray):
            n = n.combine_chunks()
        k = pc.binary_join_element_wise(
            pc.cast(r, pa.string()), pc.cast(n, pa.string()), "\x1f")
        return pa.table({"root": r, "node": n, "_k": k})

    seeds = distinct(
        seeds_ds.map_batches(
            lambda b: pa.table({"root": b[root_col], "node": b[root_col]}),
            batch_format="pyarrow"),
        ["root", "node"], num_buckets=num_buckets).map_batches(
        keyed, batch_format="pyarrow")
    frontier = seeds.materialize()
    visited = frontier
    converged = False
    for _k in range(hops):
        step = hash_join(
            frontier.map_batches(
                lambda b: b.select(["root", "node"]),
                batch_format="pyarrow"),
            edges, "node", "_s", num_buckets=num_buckets)
        nbrs = distinct(
            step.map_batches(
                lambda b: pa.table({"root": b["root"], "node": b["_o"]}),
                batch_format="pyarrow"),
            ["root", "node"], num_buckets=num_buckets).map_batches(
            keyed, batch_format="pyarrow")
        fresh = semi_join(nbrs, visited, "_k", "_k", anti=True,
                          num_buckets=num_buckets).materialize()
        if fresh.count() == 0:
            converged = True
            break
        frontier = fresh
        visited = visited.union(frontier).materialize()
    if not converged:
        raise ValueError(
            f"labeled BFS reached the {hops}-hop bound without "
            "converging — materialize the closure explicitly for chains "
            "this deep")
    return visited.map_batches(
        lambda b: b.select(["root", "node"]), batch_format="pyarrow")


#: below this edge count the closure is solved in-process: one driver-side
#: pandas doubling loop beats ~4 rounds × (join + distinct) of fixed
#: bucketed-shuffle floor (~5 s/round at toy scale; same rationale and
#: sizing style as SMALL_CC_PAIRS / SMALL_GRAPH_EDGES — runtime-bound,
#: 16 B/pair). NOTE the threshold gates the INPUT edge count; the closure
#: of a hierarchy/DAG is near-linear in it (the documented use case).
SMALL_CLOSURE_EDGES = 2_000_000


def _closure_local(df: "pd.DataFrame", src: str, dst: str,
                   max_rounds: int) -> "pd.DataFrame":
    """In-process path doubling (same algorithm as the distributed path)."""
    r = df.drop_duplicates()
    n = len(r)
    for _ in range(max_rounds):
        step = r.merge(r, left_on=dst, right_on=src, suffixes=("", "_r"))
        new = step[[src, f"{dst}_r"]].rename(columns={f"{dst}_r": dst})
        r = pd.concat([r, new], ignore_index=True).drop_duplicates()
        if len(r) == n:
            break
        n = len(r)
    return r


def transitive_closure(edges_ds, src: str = "s", dst: str = "o",
                       max_rounds: int = 16, num_buckets: int = 32,
                       small_edges: int = SMALL_CLOSURE_EDGES):
    """All reachable (src, dst) pairs — the RDFS-style inference primitive
    (subClassOf*/broader* closure over a taxonomy).

    Path DOUBLING, not single-step semi-naive: round k holds every path of
    length ≤ 2^k, so a taxonomy of depth d converges in ⌈log₂ d⌉ rounds —
    each round exactly ONE co-partitioned self-join (R.dst ⋈ R.src) plus a
    distributed distinct, with a count fixpoint check. The closure set R is
    materialized per round (it is both join sides and the union input).

    Intended for hierarchy/DAG-shaped relations whose closure is
    near-linear in the input (class trees, org charts, geo containment).
    On a dense cyclic graph the closure is Θ(n²) BY DEFINITION — use
    :func:`connected_components_distributed` (membership, linear) or
    :func:`bfs` (per-seed reachability) there instead. Cycles converge
    (reachability semantics, self-pairs included for cycle members).
    """
    from .aggregates import distinct
    from .joins import hash_join

    import ray.data as rd

    r = edges_ds.map_batches(
        lambda b: pa.table({src: b[src], dst: b[dst]}), batch_format="pyarrow"
    )
    r = distinct(r, [src, dst], num_buckets=num_buckets).materialize()
    n = r.count()
    if n == 0:
        # empty relation: typed empty pairs (an empty Dataset loses its
        # columns through to_pandas, which broke the local merge below)
        return rd.from_arrow(pa.table({src: pa.array([], pa.string()),
                                       dst: pa.array([], pa.string())}))
    if n <= small_edges:
        local = _closure_local(r.to_pandas(), src, dst, max_rounds)
        return rd.from_pandas(local.reset_index(drop=True))
    for _ in range(max_rounds):
        # R ∘ R: pandas suffix rules name the right side's cols s_r/o_r
        stepped = hash_join(r, r, dst, src, num_buckets=num_buckets)
        new = stepped.map_batches(
            lambda b: pa.table({src: b[src], dst: b[f"{dst}_r"]}),
            batch_format="pyarrow",
        )
        r = distinct(r.union(new), [src, dst],
                     num_buckets=num_buckets).materialize()
        n2 = r.count()
        if n2 == n:
            break
        n = n2
    return r


#: mixing multipliers for the deterministic walk-step choice — plain
#: integer arithmetic so the exact same expression runs in SQL
_WALK_A, _WALK_B, _WALK_C = 1000003, 7919, 104729


def random_walks(edges_ds, seeds_ds, *, src: str = "s", dst: str = "o",
                 seed_col: str = "seed", steps: int = 2,
                 walks_per_seed: int = 2, idx_pattern: str = r"^.*?(\d+)$",
                 num_buckets: int = 32):
    """Deterministic pseudo-random walks — the graph-sampling stage of
    DeepWalk/node2vec-style embedding pipelines, made reproducible and
    oracle-checkable: at step t, walk w standing on node u moves to the
    neighbor with rank ``(w·A + t·B + idx(u)·C) mod deg(u)`` among u's
    ``dst``-ascending neighbors, where ``idx(u)`` is the integer extracted
    from the node id by ``idx_pattern``. A pure function of the graph —
    identical output at any partitioning, any retry, AND expressible as
    plain SQL arithmetic (no RNG state, no engine-specific hash).

    Per step one union-bucket shuffle co-locates walk positions with their
    node's edges; the per-bucket choice is fully vectorized (np.unique
    offsets + one fancy-index gather — no fan-out: a walk row never
    materializes its node's whole neighbor list). Walks on nodes with no
    outgoing edge end early. Like PageRank, the edge table re-travels the
    per-step shuffle (Ray Data cannot pin a partitioning yet — same note
    as graph.pagerank).

    Returns (seed, w, step, node) trajectory rows, step 0 = the seed.
    """
    from .exchange import bucket_shuffle
    from .joins import _side_columns, _split_sides, _union_buckets

    edges = edges_ds.map_batches(
        lambda b: pa.table({"_es": b[src], "_eo": b[dst]}),
        batch_format="pyarrow").materialize()

    def start(b: pa.Table) -> pa.Table:
        s = b[seed_col]
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        n = len(s)
        reps = pa.concat_arrays([s] * walks_per_seed)
        ws = np.concatenate([np.full(n, k, np.int64)
                             for k in range(walks_per_seed)])
        return pa.table({"seed": reps, "w": pa.array(ws), "node": reps})

    cur = seeds_ds.map_batches(start, batch_format="pyarrow").materialize()
    layers = [cur.map_batches(
        lambda b: b.append_column("step", pa.array(np.zeros(len(b), np.int64))),
        batch_format="pyarrow")]

    for t in range(1, steps + 1):
        with_idx = cur.map_batches(
            lambda b: b.append_column("idx", pc.cast(
                pc.replace_substring_regex(b["node"], idx_pattern, r"\1"),
                pa.int64())),
            batch_format="pyarrow")
        lcols = _side_columns(with_idx)
        rcols = _side_columns(edges)
        unioned = _union_buckets(with_idx, edges, "node", "_es", num_buckets)

        def step_bucket(g: pa.Table, _t=t, _l=lcols, _r=rcols) -> pd.DataFrame:
            l, r = _split_sides(g, _l, _r)
            if len(l) == 0 or len(r) == 0:
                return pd.DataFrame({"seed": pd.Series([], dtype="object"),
                                     "w": pd.Series([], dtype="int64"),
                                     "node": pd.Series([], dtype="object")})
            r = r.sort_values(["_es", "_eo"], kind="mergesort")
            uniq, starts, cnts = np.unique(r["_es"].to_numpy(),
                                           return_index=True,
                                           return_counts=True)
            nodes = l["node"].to_numpy()
            j = np.searchsorted(uniq, nodes)
            j_c = np.clip(j, 0, len(uniq) - 1)
            ok = uniq[j_c] == nodes
            l = l[ok]
            j = j_c[ok]
            deg = cnts[j]
            ridx = ((l["w"].to_numpy() * _WALK_A + _t * _WALK_B
                     + l["idx"].to_numpy() * _WALK_C) % deg)
            nxt = r["_eo"].to_numpy()[starts[j] + ridx]
            return pd.DataFrame({"seed": l["seed"].to_numpy(),
                                 "w": l["w"].to_numpy(),
                                 "node": nxt})

        cur = bucket_shuffle(unioned, step_bucket, num_buckets)
        if cur.count() == 0:
            break  # every walk hit a dead end — nothing left to extend
        layers.append(cur.map_batches(
            lambda b, _t=t: b.append_column(
                "step", pa.array(np.full(len(b), _t, np.int64))),
            batch_format="pyarrow"))

    out = layers[0]
    for lay in layers[1:]:
        out = out.union(lay)
    return out


def kcore(edges_ds, k: int, *, src: str = "s", dst: str = "o",
          max_rounds: int = 30, num_buckets: int = 32):
    """k-core decomposition by distributed peeling: repeatedly drop nodes
    whose (current) degree is below ``k`` until a fixpoint — the classic
    maximal-subgraph-with-min-degree-k computation (dense-community
    extraction / graph cleaning before embedding training).

    Input is the SYMMETRIZED neighbor list of an undirected graph (each
    edge present in both directions; duplicates deduped here). Per round:

    - one map-side-combined degree count (:func:`~.aggregates.partial_count`
      — shuffle moves (node, partial) rows, never the edge list);
    - survivors (degree ≥ k) filter BOTH endpoint columns via the adaptive
      :func:`~.joins.semi_join` (broadcast ``pc.is_in`` while the survivor
      set is small, distributed bucketed anti/semi machinery when not);
    - the shrunken edge list is materialized so round r+1 reads blocks,
      not a replay of rounds 1..r (same per-round discipline as
      :func:`pagerank` / :func:`transitive_closure`).

    Rounds needed = peeling depth of the graph (typically ≤ ~10 even on
    web graphs — each round strips a whole "onion layer", not one node).
    Early exit when the survivor count stops shrinking. Returns
    (node, deg) for every node of the k-core; empty if none survives.
    """
    from .aggregates import distinct, partial_count
    from .joins import semi_join

    edges = distinct(
        edges_ds.map_batches(lambda b: b.select([src, dst]),
                             batch_format="pyarrow"),
        [src, dst], num_buckets=num_buckets).materialize()

    prev_nodes = None
    deg = None
    for _ in range(max_rounds):
        deg = partial_count(edges, [src], num_buckets=num_buckets)
        keep = deg.filter(expr=f"n >= {int(k)}").map_batches(
            lambda b: b.select([src]), batch_format="pyarrow").materialize()
        n_keep = keep.count()
        if n_keep == 0:
            import ray.data as rd

            node_t = _to_arrow_t(edges.schema(), src)
            return rd.from_arrow(pa.table({
                "node": pa.array([], node_t),
                "deg": pa.array([], pa.int64())}))
        if prev_nodes is not None and n_keep == prev_nodes:
            # fixpoint: every surviving node kept its edges this round, so
            # this round's deg IS the k-core degree table (all rows ≥ k —
            # equality of the keep counts forces it) — no extra pass
            return deg.map_batches(
                lambda b: pa.table({"node": b[src],
                                    "deg": pc.cast(b["n"], pa.int64())}),
                batch_format="pyarrow")
        prev_nodes = n_keep
        edges = semi_join(edges, keep, src, src, num_buckets=num_buckets)
        edges = semi_join(edges, keep, dst, src,
                          num_buckets=num_buckets).materialize()
    raise ValueError(
        f"kcore did not reach a fixpoint within max_rounds={max_rounds} "
        f"(graph peeling depth exceeds it — e.g. a long path peels two "
        f"nodes per round); raise max_rounds. Returning the intermediate "
        f"subgraph would silently include nodes below degree {k}.")


def _to_arrow_t(schema, name: str):
    """Arrow type of a schema column — pandas-block schemas carry numpy
    dtypes, which must convert (not default to string)."""
    for n, t in zip(schema.names, schema.types):
        if n == name:
            if isinstance(t, pa.DataType):
                return t
            try:
                return pa.from_numpy_dtype(t)
            except (pa.ArrowNotImplementedError, TypeError):
                return pa.string()
    raise KeyError(name)


def label_propagation(edges_ds, *, iters: int = 3,
                      node_broadcast_max: int = 2_000_000,
                      num_buckets: int | None = None):
    """Synchronous label-propagation community detection over an UNDIRECTED
    graph: edges Dataset ``(s, o)`` → Dataset ``(node, label)``.

    Semantics (deterministic — a pure function of the edge set and
    ``iters`` at any parallelism/retry): labels start as the node's own id;
    each round EVERY node simultaneously takes the most frequent label
    among its neighbors, ties broken by the smallest label
    (:func:`~.aggregates.grouped_mode`'s total order). Multi-edges collapse
    first (distinct symmetrized edge set) so neighbor votes are
    well-defined.

    Execution per round: attach the current node→label map to the edge
    list — node census ≤ ``node_broadcast_max`` broadcasts the map once
    via ``ray.put`` and gathers labels map-side through one vectorized
    pandas-Index lookup (the label table is node-sized strings, so the
    default bound is tighter than the triangles 16 B/node census); above
    the bound, the co-partitioned :func:`~.joins.hash_join` runs. Either
    way the round finishes with ONE map-side-combined (node, label) count
    whose bucket finish takes the per-node argmax — after the one-time
    symmetrize/dedup, only node-sized tables move per round. The label
    table is materialized per round (pagerank's discipline: round k+1
    reads blocks, not a replay of rounds 1..k).
    """
    import ray as _ray

    from .aggregates import add_key_bucket, coalesce_small, distinct
    from .joins import hash_join

    def symm(b: pa.Table) -> pa.Table:
        s = b["s"].combine_chunks() if isinstance(b["s"], pa.ChunkedArray) else b["s"]
        o = b["o"].combine_chunks() if isinstance(b["o"], pa.ChunkedArray) else b["o"]
        return pa.table({"s": pa.concat_arrays([s, o]),
                         "o": pa.concat_arrays([o, s])})

    und = distinct(edges_ds.map_batches(symm, batch_format="pyarrow"),
                   ["s", "o"], num_buckets=num_buckets or 32).materialize()
    if num_buckets is None:
        # pagerank's auto-scaling rationale: every shuffle launches tasks
        # per bucket, so a toy graph shouldn't pay 32-bucket fixed
        # overhead per round; big graphs need buckets that fit a worker
        num_buckets = int(max(4, min(32, und.count() // 50_000 + 4)))

    labels = distinct(
        und.map_batches(lambda b: pa.table({"node": b["s"]}),
                        batch_format="pyarrow"),
        ["node"], num_buckets=num_buckets,
    ).map_batches(lambda b: pa.table({"node": b["node"], "label": b["node"]}),
                  batch_format="pyarrow").materialize()
    n_nodes = labels.count()

    for _ in range(iters):
        if n_nodes <= node_broadcast_max:
            ldf = labels.to_pandas()
            idx = pd.Index(ldf["node"])
            ref = _ray.put((idx, ldf["label"].to_numpy()))

            lab_np = ldf["label"].to_numpy()
            lab_type = (pa.string() if lab_np.dtype == object
                        else pa.from_numpy_dtype(lab_np.dtype))

            def attach(b: pa.Table, ref=ref, lt=lab_type) -> pa.Table:
                idx_, lab_ = _ray.get(ref)  # local zero-copy read
                pos = idx_.get_indexer(pd.Index(b["o"].to_pandas()))
                return pa.table({"s": b["s"],
                                 "label": pa.array(lab_[pos], lt)})

            neigh = und.map_batches(attach, batch_format="pyarrow")
        else:
            neigh = hash_join(und, labels, "o", "node",
                              num_buckets=num_buckets).map_batches(
                lambda b: pa.table({"s": b["s"], "label": b["label"]}),
                batch_format="pyarrow")
        # fused mode round: ONE bucketed shuffle — map-side (s, label)
        # partial counts, bucket by s (a node's votes land together), the
        # finish collapses partials AND takes the per-node argmax
        # (count DESC, label ASC) in the same pandas pass. grouped_mode
        # would do this in two shuffles (count, then topk).
        def vote_partial(b: pa.Table) -> pa.Table:
            out = b.group_by(["s", "label"]).aggregate([([], "count_all")])
            return out.rename_columns(["s", "label", "pn"])

        partials = neigh.map_batches(vote_partial, batch_format="pyarrow") \
            .map_batches(lambda b: add_key_bucket(b, ["s"], num_buckets),
                         batch_format="pyarrow")
        partials = coalesce_small(partials, 16)

        def vote_finish(g: pd.DataFrame) -> pd.DataFrame:
            t = g.groupby(["s", "label"], sort=False)["pn"].sum() \
                .reset_index()
            t = t.sort_values(["s", "pn", "label"],
                              ascending=[True, False, True],
                              kind="mergesort")
            out = t.drop_duplicates("s", keep="first")[["s", "label"]]
            return out.rename(columns={"s": "node"})

        labels = partials.groupby("_bucket").map_groups(
            vote_finish, batch_format="pandas").materialize()
    return labels


def _scc_local(df: "pd.DataFrame", src: str, dst: str) -> pa.Table:
    """Iterative Tarjan over an in-memory edge list (the small-graph
    crossover path, one remote task). SCC label = MAX member id (matches
    the distributed coloring path, whose class roots are max-reaching
    ids). Emits every node that appears in an edge."""
    adj: dict = {}
    nodes: set = set()
    for u, v in zip(df[src].to_numpy(), df[dst].to_numpy()):
        u, v = int(u), int(v)
        adj.setdefault(u, []).append(v)
        nodes.add(u)
        nodes.add(v)
    index: dict = {}
    low: dict = {}
    onstk: set = set()
    stk: list = []
    out_id: list = []
    out_scc: list = []
    counter = 0
    for s0 in nodes:
        if s0 in index:
            continue
        work = [(s0, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stk.append(v)
                onstk.add(v)
            advanced = False
            nbrs = adj.get(v, ())
            i = pi
            while i < len(nbrs):
                w = nbrs[i]
                i += 1
                if w not in index:
                    work[-1] = (v, i)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in onstk:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stk.pop()
                    onstk.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                label = max(comp)
                out_id.extend(comp)
                out_scc.extend([label] * len(comp))
            if work:
                p = work[-1][0]
                low[p] = min(low[p], low[v])
    return pa.table({"node": pa.array(out_id, pa.int64()),
                     "scc": pa.array(out_scc, pa.int64())})


def _scc_small_task(refs: list) -> pa.Table:
    t = gather_block_refs(refs, pa.schema([("u", pa.int64()),
                                           ("v", pa.int64())]))
    return _scc_local(t.to_pandas(), "u", "v")


def _dir_max_fixpoint(edges_ds, labels_ds, num_buckets: int,
                      max_iters: int = 200):
    """Directed max-label propagation to fixpoint: per iteration
    ``label(v) = max(label(v), max_{u→v} label(u))`` over int64 edges
    ``(u, v)``. The same fused two-shuffle plan as distributed CC: stage 1
    joins labels onto edge SOURCES and reduces a PARTIAL per-dst max inside
    the bucket (node-sized partials cross the second shuffle, never
    edge-sized candidates); stage 2 folds partials onto own labels. The
    padded bucketed edge table is built ONCE. Monotone nondecreasing ⇒ the
    label-sum fixpoint test terminates in ≤ diameter iterations."""
    from .aggregates import coalesce_small

    s1_schema = pa.schema([("u", pa.int64()), ("v", pa.int64()),
                           ("id", pa.int64()), ("label", pa.int64())])
    s2_schema = pa.schema([("id", pa.int64()), ("label", pa.int64())])
    edges_pre = coalesce_small(
        _pad_bucket_tag(edges_ds, s1_schema, "u", 0, num_buckets), 16
    ).materialize()
    labels = labels_ds.materialize()

    def stage1(g: pa.Table) -> pd.DataFrame:
        e = g.filter(pc.equal(g["_side"], 0)).select(["u", "v"]).to_pandas()
        l = g.filter(pc.equal(g["_side"], 1)).select(["id", "label"]).to_pandas()
        m = e.merge(l, left_on="u", right_on="id", how="inner")
        if m.empty:
            return pd.DataFrame({"id": pd.Series(dtype="int64"),
                                 "label": pd.Series(dtype="int64")})
        out = (m[["v", "label"]].groupby("v", sort=False)["label"].max()
               .reset_index().rename(columns={"v": "id"}))
        return out.astype({"id": "int64", "label": "int64"})

    def stage2(g: pa.Table) -> pd.DataFrame:
        df = g.select(["id", "label"]).to_pandas()
        out = df.groupby("id", sort=False)["label"].max().reset_index()
        return out.astype({"id": "int64", "label": "int64"})

    for _ in range(max_iters):
        labels_tag = coalesce_small(
            _pad_bucket_tag(labels, s1_schema, "id", 1, num_buckets), 8)
        partials = (edges_pre.union(labels_tag).groupby("_bucket")
                    .map_groups(stage1, batch_format="pyarrow"))
        own = _pad_bucket_tag(labels, s2_schema, "id", 0, num_buckets)
        par = _pad_bucket_tag(partials, s2_schema, "id", 1, num_buckets)
        new_labels = (coalesce_small(own.union(par), 8).groupby("_bucket")
                      .map_groups(stage2, batch_format="pyarrow")
                      .materialize())
        old_sum, new_sum = labels.sum("label"), new_labels.sum("label")
        labels = new_labels
        if old_sum == new_sum:
            return labels
    raise RuntimeError(f"_dir_max_fixpoint did not converge in {max_iters} "
                       "iterations — diameter exceeds the bound")


def scc(edges_ds, *, src: str = "s", dst: str = "o", max_rounds: int = 30,
        small_graph_edges: int = SMALL_GRAPH_EDGES,
        num_buckets: int | None = None):
    """Strongly connected components of a DIRECTED int64 graph — the web
    bowtie decomposition (Broder et al. 2000). Returns a Dataset
    ``(node, scc)`` with scc = MAX member id, covering every node that
    appears in an edge. Deterministic at any partitioning/retry.

    Size-adaptive like pagerank/CC: at or under ``small_graph_edges``
    (16 B/edge, runtime-bound) one remote iterative-Tarjan task solves it;
    above, the FW-BW **coloring** algorithm (Orzan 2004; Slota et al.
    2014) runs distributed, each round:

    1. **Color** (forward max-label fixpoint): color(v) = max id that
       reaches v. Every color class is closed under "on a path from the
       root into the class" (proof: a path vertex w with color d > c would
       give v color ≥ d, contradiction) — so step 2 may restrict to
       intra-class edges.
    2. **Backward root-reach inside the class**: seed label = id at class
       roots (color == id), propagate over REVERSED intra-class edges to
       fixpoint; a node ends labeled c iff it reaches its root within the
       class ⟺ it is in SCC(root).
    3. Emit labeled nodes, anti-join their edges away, recurse on the rest.

    Each round settles at least every class root; web-shaped graphs settle
    the giant SCC + the DAG fringe in round 1 and finish in a handful of
    rounds (adversarial chains of descending ids degrade toward O(n) —
    ``max_rounds`` raises rather than returning a partial answer).
    Isolated singleton chains that lose all edges mid-algorithm are
    back-filled as singleton SCCs at the end."""
    import ray
    import ray.data as rd

    from .aggregates import distinct
    from .joins import hash_join, semi_join

    edges64 = distinct(edges_ds.map_batches(
        lambda t: pa.table({"u": t[src].combine_chunks().cast(pa.int64()),
                            "v": t[dst].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow"), ["u", "v"]).materialize()

    n_edges = edges64.count()
    if n_edges == 0:
        return rd.from_arrow(pa.table({"node": pa.array([], pa.int64()),
                                       "scc": pa.array([], pa.int64())}))
    if n_edges <= small_graph_edges:
        task = ray.remote(num_cpus=1)(_scc_small_task)
        return rd.from_arrow(ray.get(task.remote(
            list(edges64.to_arrow_refs()))))

    if num_buckets is None:
        num_buckets = int(min(64, max(8, n_edges // 100_000)))

    def node_census(es):
        return distinct(es.map_batches(
            lambda t: pa.table({"id": pa.concat_arrays(
                [t["u"].combine_chunks(), t["v"].combine_chunks()])}),
            batch_format="pyarrow"), ["id"])

    all_nodes = node_census(edges64).materialize()
    if all_nodes.min("id") == _SCC_SENTINEL:  # 2^-64 hash event, loud > wrong
        raise ValueError("scc: a node id equals INT64_MIN, the reserved "
                         "root-reach sentinel — remap that id")
    remaining = edges64
    assigned_parts = []

    for _ in range(max_rounds):
        if remaining.count() == 0:
            break
        # 1. forward coloring
        init = node_census(remaining).map_batches(
            lambda t: pa.table({"id": t["id"], "label": t["id"]}),
            batch_format="pyarrow")
        colors = _dir_max_fixpoint(remaining, init, num_buckets)
        # 2. intra-class edge filter (two co-partitioned joins, ONCE per
        # round, not per fixpoint iteration)
        cu = hash_join(remaining, colors.map_batches(
            lambda t: pa.table({"cid": t["id"], "cu": t["label"]}),
            batch_format="pyarrow"), "u", "cid", num_buckets=num_buckets)
        cuv = hash_join(cu, colors.map_batches(
            lambda t: pa.table({"cid": t["id"], "cv": t["label"]}),
            batch_format="pyarrow"), "v", "cid", num_buckets=num_buckets)
        e_cls = cuv.map_batches(
            lambda t: t.filter(pc.equal(t["cu"], t["cv"]))
                       .select(["u", "v"]),
            batch_format="pyarrow")
        # reversed intra-class edges: root-reach flows dst→src
        e_rev = e_cls.map_batches(
            lambda t: pa.table({"u": t["v"], "v": t["u"]}),
            batch_format="pyarrow").materialize()
        # 3. backward root-reach: seed = id at roots, INT64_MIN elsewhere
        # (NOT 0 — node ids are arbitrary int64, e.g. uri hashes, so half
        # of real roots are non-positive and a 0 sentinel would never let
        # them settle). Max-propagation floors non-reached nodes at the
        # sentinel; the only value a class can propagate is its own root
        # id, so any non-sentinel fixpoint label IS the scc id.
        seeds = colors.map_batches(
            lambda t: pa.table({
                "id": t["id"],
                "label": pc.if_else(pc.equal(t["id"], t["label"]),
                                    t["id"],
                                    pa.scalar(_SCC_SENTINEL, pa.int64()))}),
            batch_format="pyarrow")
        reach = _dir_max_fixpoint(e_rev, seeds, num_buckets)
        members = reach.map_batches(
            lambda t: t.filter(pc.not_equal(
                t["label"], pa.scalar(_SCC_SENTINEL, pa.int64()))),
            batch_format="pyarrow").map_batches(
            lambda t: pa.table({"node": t["id"], "scc": t["label"]}),
            batch_format="pyarrow").materialize()
        assigned_parts.append(members)
        done_ids = members.map_batches(
            lambda t: pa.table({"done": t["node"]}), batch_format="pyarrow")
        remaining = semi_join(
            semi_join(remaining, done_ids, "u", "done", anti=True,
                      num_buckets=num_buckets),
            done_ids, "v", "done", anti=True,
            num_buckets=num_buckets).materialize()
    else:
        if remaining.count() > 0:
            raise RuntimeError(
                f"scc did not settle in {max_rounds} rounds — descending-id "
                "chain? raise max_rounds")

    assigned = assigned_parts[0]
    for p in assigned_parts[1:]:
        assigned = assigned.union(p)
    assigned = assigned.materialize()
    leftovers = semi_join(
        all_nodes, assigned.map_batches(
            lambda t: pa.table({"done": t["node"]}), batch_format="pyarrow"),
        "id", "done", anti=True, num_buckets=num_buckets).map_batches(
        lambda t: pa.table({"node": t["id"], "scc": t["id"]}),
        batch_format="pyarrow")
    return assigned.union(leftovers)


def sample_neighbors(edges_ds, seeds, fanout: int, hops: int = 2, *,
                     src: str = "s", dst: str = "o", seed: int = 0,
                     num_buckets: int = 32):
    """Deterministic fanout-bounded neighbor sampling — the GNN
    minibatch primitive (GraphSAGE-style k-hop sampled subgraph around a
    seed batch). Per hop:

    1. ``edges ⋉ frontier`` on ``src`` (the adaptive
       :func:`~.joins.semi_join`: broadcast while the frontier is
       minibatch-sized, distributed when not);
    2. per-source top-``fanout`` by a CONTENT hash of (src, dst, hop,
       seed) — :func:`~.aggregates.grouped_topk`, one bucketed shuffle;
       the hash makes the sample a pure function of the graph, so it is
       layout/parallelism-invariant and reproducible without RNG state
       (vary ``seed`` for a different draw);
    3. the sampled targets (minus already-expanded nodes) become the
       next frontier.

    A hub node contributes its own edge count to ONE bucket during the
    top-k — bounded by the fanout on output, never collected on the
    driver. Returns a Dataset ``(src, dst, hop)`` — the union of sampled
    edges, hop = 1-based expansion round."""
    import ray.data as rd

    from .aggregates import distinct, grouped_topk
    from .joins import _col_hash64, semi_join

    if fanout < 1 or hops < 1:
        raise ValueError("fanout and hops must be >= 1")
    frontier = rd.from_arrow(pa.table(
        {"_n": pa.array(sorted(set(seeds)), pa.string())})).materialize()
    expanded = frontier
    out = []
    for hop in range(1, hops + 1):
        cand = semi_join(edges_ds, frontier, src, "_n",
                         num_buckets=num_buckets)

        def score(b: pa.Table, hop=hop) -> pa.Table:
            h = (_col_hash64(b[src]) * np.uint64(0x9E3779B97F4A7C15)
                 ^ _col_hash64(b[dst])
                 ^ np.uint64((hop * 1_000_003 + seed * 7919) & (2**64 - 1)))
            # splitmix64 finalizer: full avalanche so the seed/hop salt
            # reorders the whole ranking, not just low bits
            h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            h ^= h >> np.uint64(31)
            return pa.table({src: b[src], dst: b[dst],
                             "_h": pa.array(h.astype(np.int64))})

        scored = cand.map_batches(score, batch_format="pyarrow")
        samp = grouped_topk(scored, src, ["_h", dst], [True, True],
                            fanout, num_buckets=num_buckets)
        samp = samp.map_batches(
            lambda b, hop=hop: pa.table({
                src: b[src], dst: b[dst],
                "hop": pa.array(np.full(len(b), hop, np.int64))}),
            batch_format="pyarrow").materialize()
        if samp.count() == 0:
            break
        out.append(samp)
        nxt = distinct(samp.map_batches(
            lambda b: pa.table({"_n": b[dst]}), batch_format="pyarrow"),
            ["_n"])
        frontier = semi_join(nxt, expanded, "_n", "_n", anti=True,
                             num_buckets=num_buckets).materialize()
        expanded = expanded.union(frontier).materialize()
        if frontier.count() == 0:
            break
    if not out:
        return rd.from_arrow(pa.table({
            src: pa.array([], pa.string()), dst: pa.array([], pa.string()),
            "hop": pa.array([], pa.int64())}))
    acc = out[0]
    for d in out[1:]:
        acc = acc.union(d)
    return acc
