"""S8/O1: graph materialization — partitioned Parquet triple/adjacency tables
sorted by subject (BASELINE.json:6 "partitioned Parquet adjacency/triple
tables sorted by subject").

Two layouts, both resumable (one directory per partition):

- :func:`write_triples_sorted` — global range sort (``ds.sort('subj')``)
  then ``write_parquet``. Global order across files; one all-to-all shuffle.
- :func:`write_triples_hash_partitioned` — hash-partition on ``subj`` into
  ``num_partitions`` buckets, sort WITHIN each partition. No global order
  across buckets but co-locates each subject's adjacency in exactly one
  partition — the layout downstream graph queries want — and the shuffle is
  a bucketed repartition, cheaper and skew-tolerant (hub subjects stay one
  group but never straddle partitions).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def subj_partition_id(subj: str, num_partitions: int) -> int:
    """Routing hash for ONE subject — must agree with
    :func:`add_subj_partition` (both delegate to the engine-wide
    key-type-aware vectorized hash)."""
    from ..stages.joins import _key_buckets

    return int(_key_buckets(pa.array([subj or ""]), num_partitions)[0])


def add_subj_partition(batch: pa.Table, num_partitions: int,
                       key: str = "subj") -> pa.Table:
    """Vectorized partition routing (was a per-row crc32 Python loop — the
    write path's per-row hot spot at corpus scale). ``key`` selects the
    routing column — ``subj`` for the primary adjacency layout, ``obj``
    for the secondary (?, ?, o) index."""
    from ..stages.joins import _key_buckets

    col = batch[key]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    part = _key_buckets(col, num_partitions).astype(np.int32)
    return batch.append_column("part_id", pa.array(part))


def write_triples_sorted(triples_ds, out_dir: str):
    """Global subject sort → Parquet directory."""
    triples_ds.sort("subj").write_parquet(out_dir)
    return out_dir


def store_num_partitions(out_dir: str) -> int:
    """The store's write-time partition count, from its ``_meta.json``
    (authoritative — empty partitions leave no ``part_id=`` dir, so dir
    counting under-reports and would misroute point reads)."""
    import json
    import os

    with open(os.path.join(out_dir, "_meta.json")) as f:
        return int(json.load(f)["num_partitions"])


def read_triples_for_subject(out_dir: str, subj: str,
                             num_partitions: int | None = None):
    """Read-side counterpart of the hash-partitioned layout: a subject lookup
    opens exactly ONE partition file (``hash(subj) % P``) and row-filters it
    — at 100 TB this is a point read against 1/P of the data, and the
    per-partition subject sort makes the inner scan binary-searchable.
    ``num_partitions=None`` reads the store's recorded count; a missing
    partition file means no subject hashes there → empty result."""
    import glob
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    return read_triples_for_key(out_dir, subj, key="subj",
                                num_partitions=num_partitions)


def read_triples_for_key(out_dir: str, value: str, *, key: str | None = None,
                         num_partitions: int | None = None):
    """Point read by the store's routing column: opens exactly ONE
    partition file (``hash(value) % P``) and row-filters it. ``key=None``
    uses the store's recorded routing key; passing a key that doesn't
    match the store's raises — routing by the wrong column would silently
    return an empty/partial result."""
    import glob
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    recorded = store_key(out_dir)
    if key is None:
        key = recorded
    elif key != recorded:
        raise ValueError(
            f"store {out_dir!r} is routed by {recorded!r}, not {key!r} — "
            "a point read on the wrong column would miss rows")
    if num_partitions is None:
        num_partitions = store_num_partitions(out_dir)
    pid = subj_partition_id(value, num_partitions)
    path = f"{out_dir}/part_id={pid}/data.parquet"
    if not os.path.exists(path):  # empty partition was never written
        any_part = glob.glob(f"{out_dir}/part_id=*/data.parquet")
        if not any_part:
            raise FileNotFoundError(f"no partitions in {out_dir!r}")
        return pq.read_schema(any_part[0]).empty_table()
    tbl = pq.read_table(path)
    return tbl.filter(pc.equal(tbl[key], value))


# Manifest schemas for the partition-exchange finish fns: hash_exchange
# runs ONE reduce per bucket including empty ones, and from_arrow_refs
# needs every reduce's output to share a schema for the driver concat.
_WRITE_MANIFEST_SCHEMA = pa.schema([
    ("part_id", pa.int64()), ("n_triples", pa.int64()),
    ("path", pa.string()), ("pred_counts", pa.string())])
_MERGE_MANIFEST_SCHEMA = pa.schema([
    ("part_id", pa.int64()), ("n_total", pa.int64()),
    ("n_added", pa.int64()), ("n_gen_added", pa.int64()),
    ("n_gen_removed", pa.int64()), ("path", pa.string())])


def write_triples_hash_partitioned(triples_ds, out_dir: str,
                                   num_partitions: int = 16,
                                   key: str = "subj"):
    """Hash-partition by ``key`` (default subj — the adjacency layout;
    ``obj`` writes the secondary (?, ?, o) index), per-partition sort with
    the routing key leading, one Parquet dir per partition (resumable
    unit). The routing key and P are recorded in ``_meta.json`` —
    readers route point reads by them, and neither can be inferred from
    the layout. Returns the written partition manifest.

    The exchange is the manual :func:`~..stages.exchange.hash_exchange`,
    NOT Ray's sort-based groupby: part_id is a low-cardinality key over
    full triple rows — exactly the shape profiling showed funneling the
    whole table through one SortMap task (230 s CPU at 2M pages). One
    split per input block + one sorted-write reduce per partition keeps
    the exchange embarrassingly parallel at any block count."""
    import os

    from ..stages.exchange import hash_exchange

    os.makedirs(out_dir, exist_ok=True)
    with_part = triples_ds.map_batches(
        lambda b: add_subj_partition(b, num_partitions, key),
        batch_format="pyarrow"
    )
    sort_keys = [key] + [c for c in ("subj", "pred", "obj") if c != key]

    def write_group(g: pa.Table) -> pa.Table:
        # pure-Arrow path: zero pandas round-trip on the full triple payload
        import pyarrow.parquet as pq  # pa.parquet is NOT auto-imported by pyarrow

        if g.num_rows == 0:  # empty bucket: no dir, no manifest row
            return _WRITE_MANIFEST_SCHEMA.empty_table()
        pid = int(g["part_id"][0].as_py())
        g = g.drop_columns(["part_id"]).sort_by(
            [(c, "ascending") for c in sort_keys]
        )
        pdir = os.path.join(out_dir, f"part_id={pid}")
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(pdir, ".data.parquet.tmp")
        dst = os.path.join(pdir, "data.parquet")
        pq.write_table(g, tmp)
        os.replace(tmp, dst)
        # per-partition predicate census: RDF predicates are
        # vocabulary-sized (dozens, not millions), so one Arrow group_by
        # per partition costs noise and gives the BGP planner real
        # selectivity numbers instead of constants-count heuristics
        import json as _json

        pc_tbl = g.select(["pred"]).group_by(["pred"]).aggregate(
            [([], "count_all")])
        counts = dict(zip(pc_tbl["pred"].to_pylist(),
                          pc_tbl["count_all"].to_pylist()))
        return pa.table(
            {"part_id": pa.array([pid]), "n_triples": pa.array([g.num_rows]),
             "path": pa.array([dst]),
             "pred_counts": pa.array([_json.dumps(counts)])},
            schema=_WRITE_MANIFEST_SCHEMA,
        )

    manifest = hash_exchange(with_part, "part_id", write_group,
                             num_partitions)
    out = manifest.to_pandas()
    # record the partition count: readers route point reads by hash % P,
    # and P cannot be inferred from the layout (empty partitions leave no dir)
    import json

    total: dict = {}
    for blob in out.get("pred_counts", []):
        for p, n in json.loads(blob).items():
            total[p] = total.get(p, 0) + int(n)
    # cap the recorded stats: a pathological million-predicate corpus
    # must not bloat _meta.json; the tail folds into a rest-average
    top = dict(sorted(total.items(), key=lambda kv: -kv[1])[:256])
    stats = {"pred_counts": top, "n_preds": len(total),
             "n_triples": int(sum(total.values()))}
    tmp = os.path.join(out_dir, "._meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump({"num_partitions": num_partitions, "key": key,
                   "stats": stats}, f)
    os.replace(tmp, os.path.join(out_dir, "_meta.json"))
    return out


def store_key(out_dir: str) -> str:
    """The store's write-time routing column (``_meta.json``; stores
    written before the key was recorded are subject-routed)."""
    import json
    import os

    with open(os.path.join(out_dir, "_meta.json")) as f:
        return json.load(f).get("key", "subj")


def _load_meta(out_dir: str, missing_ok: bool = False) -> dict:
    """Shared atomic-meta reader (the stream sink reuses these helpers).
    ``missing_ok=True`` returns {} for a not-yet-initialized sink; the
    triple store's callers want the loud FileNotFoundError."""
    import json
    import os

    path = os.path.join(out_dir, "_meta.json")
    if missing_ok and not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def _save_meta(out_dir: str, meta: dict) -> None:
    import json
    import os

    tmp = os.path.join(out_dir, "._meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(out_dir, "_meta.json"))


def store_generation(out_dir: str) -> int:
    """The store's current generation (0 for stores that never had a
    tracked mutation — all pre-generation content IS generation 0)."""
    return int(_load_meta(out_dir).get("generation", 0))


def store_generations(out_dir: str) -> list:
    """Mutation history: one ``{gen, op, added, removed}`` entry per
    tracked merge/delete, oldest first."""
    return list(_load_meta(out_dir).get("history", []))


def store_stats(out_dir: str) -> "dict | None":
    """Write-time statistics (predicate census) from ``_meta.json``, or
    None for stores written before stats existed OR mutated since (merges
    and deletes drop the stats rather than serve stale selectivities)."""
    return _load_meta(out_dir).get("stats")


def _next_generation(out_dir: str) -> int:
    """The generation number for a NEW tracked mutation: one above the
    maximum of the recorded meta generation AND any ``gen=`` delta dir on
    disk. A mutation that rewrote partitions but died before its meta
    bump leaves debris dirs above the recorded generation — reusing that
    number would ``os.replace`` the debris deltas with the new op's and
    permanently corrupt the older snapshots they encode."""
    import glob
    import os

    gen = int(_load_meta(out_dir).get("generation", 0))
    for d in glob.glob(os.path.join(out_dir, "part_id=*", "gen=*")):
        gen = max(gen, int(d.rsplit("=", 1)[1]))
    return gen + 1


def _row_diff(a: "pa.Table | None", b: "pa.Table | None") -> "pa.Table":
    """Set difference a − b on FULL-row identity (nulls compare equal —
    two rows that are byte-identical including their null obj_lang are
    the same row; pandas merge's NaN↔NaN matching is exactly the
    semantics wanted here, unlike in a SQL join)."""
    if a is None or a.num_rows == 0:
        return a if a is not None else b.schema.empty_table()
    if b is None or b.num_rows == 0:
        return a
    cols = list(a.column_names)
    da = a.to_pandas().drop_duplicates()
    db = b.select(cols).to_pandas().drop_duplicates()
    m = da.merge(db, on=cols, how="left", indicator=True)
    out = m[m["_merge"] == "left_only"][cols]
    return pa.Table.from_pandas(out, schema=a.schema, preserve_index=False)


def _pattern_scan(out_dir: str, bound: dict):
    """The pruning of a pattern scan over every partition, defined once:
    the partition files, the pushed-down filter (an equality per bound
    column of ``bound``, ``None`` values skipped) and the named-graph
    check — a ``graph`` filter on a store written without the column
    raises instead of silently matching nothing. Returns
    ``(files, expr)``."""
    import glob

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    parts = sorted(glob.glob(f"{out_dir}/part_id=*/data.parquet"))
    if bound.get("graph") is not None and parts \
            and "graph" not in pq.read_schema(parts[0]).names:
        raise ValueError(
            f"store {out_dir!r} has no named-graph column — it was "
            "written from plain triples; a graph filter cannot match")
    expr = None
    for col, v in bound.items():
        if v is not None:
            e = pads.field(col) == v
            expr = e if expr is None else (expr & e)
    return parts, expr


def _files_fit(files) -> bool:
    """The in-process rule for reads: files totalling at most
    ``exchange.BUCKET_BYTES`` on disk (by ``os.stat``) would go through one
    reducer anyway, so they are read with pyarrow in the driver."""
    import os

    from ..stages import exchange

    return sum(os.stat(f).st_size for f in files) <= exchange.BUCKET_BYTES


def _match(out_dir: str, bound: dict, num_partitions, columns,
           in_process: bool):
    """Body of :func:`match_triples` / :func:`scan_triples`."""
    route = store_key(out_dir)
    if bound.get(route) is not None:
        if bound.get("graph") is not None:
            _pattern_scan(out_dir, bound)  # the named-graph check
        tbl = read_triples_for_key(out_dir, bound[route], key=route,
                                   num_partitions=num_partitions)
        for col, v in bound.items():
            if v is not None and col != route:
                tbl = tbl.filter(pc.equal(tbl[col], v))
        return tbl.select(columns) if columns else tbl

    parts, expr = _pattern_scan(out_dir, bound)
    if in_process and parts and _files_fit(parts):
        import pyarrow.dataset as pads
        import pyarrow.parquet as pq

        # each file keeps its own columns, as in read_parquet's blocks
        schema = pa.unify_schemas([pq.read_schema(p) for p in parts],
                                  promote_options="permissive")
        return pads.dataset(parts, schema=schema, format="parquet") \
            .to_table(columns=columns, filter=expr)
    import ray.data as rd

    return rd.read_parquet(parts, columns=columns, filter=expr)


def match_triples(out_dir: str, *, subj: str | None = None,
                  pred: str | None = None, obj: str | None = None,
                  graph: str | None = None,
                  num_partitions: int | None = None, columns=None):
    """Triple-pattern query over the hash-partitioned store (the SPARQL BGP
    primitive). Read-level pruning by pattern shape:

    - ``subj`` bound → open exactly ONE partition (``hash(subj) % P``) and
      row-filter it (the adjacency layout's point read);
    - subj unbound → a parallel ``read_parquet`` over all partitions with
      the pred/obj predicates pushed into the scan (row-group pruning +
      column projection), returning a streaming Dataset.

    When the store is OBJECT-routed (a secondary ``key="obj"`` index),
    the obj-bound pattern takes the point read instead and subj becomes a
    post-filter — so a (?, ?, o) lookup costs 1/P of the data too.

    Returns a pyarrow Table for a routing-key-bound point read (small by
    construction), else a Ray Dataset, whatever the store's size. The
    query engine reads through :func:`scan_triples` instead, which keeps
    a scan of a store within ``exchange.BUCKET_BYTES`` in process and
    returns the same rows as a Table; both share one pruning
    (:func:`_pattern_scan`). ``num_partitions=None``
    uses the store's recorded count (``_meta.json``).
    """
    return _match(out_dir, {"subj": subj, "pred": pred, "obj": obj,
                            "graph": graph}, num_partitions, columns,
                  in_process=False)


def scan_triples(out_dir: str, *, subj: str | None = None,
                 pred: str | None = None, obj: str | None = None,
                 graph: str | None = None):
    """:func:`match_triples` for the query engine, with the in-process
    rule: when the pruned scan's partition files total at most
    ``exchange.BUCKET_BYTES`` (by ``os.stat``), they are read with
    pyarrow in the driver and the result is a ``pa.Table`` — a store that
    small would go through one reducer anyway, so no Ray Data execution
    is started for it. A larger scan is the same streaming Dataset as
    :func:`match_triples`; a point read is a Table either way."""
    return _match(out_dir, {"subj": subj, "pred": pred, "obj": obj,
                            "graph": graph}, None, None, in_process=True)


def merge_triples_hash_partitioned(new_triples_ds, out_dir: str,
                                   num_partitions: int = 16,
                                   track_generations: bool = False):
    """Incremental KG update: merge a NEW batch of triples into an existing
    hash-partitioned store, touching ONLY the partitions the new subjects
    hash into (a day's crawl delta rewrites its affected partitions, not the
    100-TB store). Per affected partition, on a WORKER: read the existing
    file, concat, exact set-dedup (RDF set semantics over the full quad row),
    re-sort, atomic-replace. Idempotent: re-merging the same batch is a
    no-op content-wise, and a killed merge leaves every partition either old
    or fully-new (atomic rename), so reruns are safe.

    ``track_generations=True`` makes the merge a GENERATION: each touched
    partition also records its exact full-row delta under
    ``part_id=N/gen=G/{added,removed}.parquet`` (removed is non-empty when
    the min-src_url representative of an existing quad changes), and the
    store's ``_meta.json`` generation counter bumps once at the end —
    :func:`read_store_asof` replays these deltas backwards for time
    travel. Delta files are only written when non-empty, so a crashed
    tracked merge re-run converges (already-applied partitions diff to
    empty and leave the crashed attempt's correct delta in place). A
    store whose generation is > 0 REFUSES untracked merges — silently
    mutating data out from under the recorded history would corrupt
    every older snapshot.

    ``num_partitions`` must match the store's recorded count — merging into
    an EXISTING store validates against its ``_meta.json``; merging into a
    fresh directory records it."""
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    meta_path = os.path.join(out_dir, "_meta.json")
    if os.path.exists(meta_path):
        recorded = store_num_partitions(out_dir)
        if recorded != num_partitions:
            raise ValueError(
                f"store {out_dir!r} was written with num_partitions="
                f"{recorded}, merge requested {num_partitions} — rows would "
                "hash to the wrong partitions")
        rk = store_key(out_dir)
        if rk != "subj":
            raise ValueError(
                f"store {out_dir!r} is routed by {rk!r}; merge routes by "
                "subj — rows would land in the wrong partitions. Rebuild "
                "the secondary index from the merged primary instead.")
        if not track_generations and store_generation(out_dir) > 0:
            raise ValueError(
                f"store {out_dir!r} has tracked generations; an untracked "
                "merge would mutate data out from under the history and "
                "corrupt every older snapshot — pass track_generations=True")
    else:
        tmp = meta_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"num_partitions": num_partitions, "key": "subj"}, f)
        os.replace(tmp, meta_path)
    # drop the write-time planner stats BEFORE any partition rewrite: a
    # crash mid-merge must not leave pre-merge selectivities being served
    # against post-merge data (stats absent is always safe)
    meta0 = _load_meta(out_dir)
    if meta0.pop("stats", None) is not None:
        _save_meta(out_dir, meta0)
    gen = _next_generation(out_dir) if track_generations else None
    with_part = new_triples_ds.map_batches(
        lambda b: add_subj_partition(b, num_partitions), batch_format="pyarrow"
    )

    def merge_group(g: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        if g.num_rows == 0:  # untouched partition: no rewrite, no row
            return _MERGE_MANIFEST_SCHEMA.empty_table()
        pid = int(g["part_id"][0].as_py())
        g = g.drop_columns(["part_id"])
        pdir = os.path.join(out_dir, f"part_id={pid}")
        os.makedirs(pdir, exist_ok=True)
        dst = os.path.join(pdir, "data.parquet")
        n_old = 0
        old = None
        if os.path.exists(dst):
            old = pq.read_table(dst)
            n_old = old.num_rows
            g = pa.concat_tables([old, g.cast(old.schema)])
        # set semantics on the QUAD IDENTITY (everything except lineage):
        # the same fact extracted from two crawl generations' different
        # pages must collapse exactly as the one-shot D2 dedup collapses
        # it — src_url is provenance, not identity; keep min(src_url) as
        # the deterministic representative
        # PYARROW 16.1 HAZARD (reproduced + bisected here): multi-key
        # hash group_by with a bit-packed BOOL key ordered before NULLABLE
        # string keys mis-encodes rows — byte-identical quads land in
        # different groups (59 rows → 32 "unique" vs the true 27; pandas,
        # DuckDB and a bool→int64 cast all agree on 27). Casting bool keys
        # to int64 for the dedup (and back for the file) sidesteps it.
        orig_schema = g.schema
        safe = pa.schema([
            pa.field(f.name, pa.int64() if pa.types.is_boolean(f.type)
                     else f.type) for f in orig_schema])
        g = g.cast(safe)
        names = list(g.column_names)
        if "src_url" in names:
            quad_cols = [c for c in names if c != "src_url"]
            g = g.group_by(quad_cols).aggregate([("src_url", "min")])
            g = g.rename_columns(quad_cols + ["src_url"])
        else:
            g = g.group_by(names).aggregate([])
        g = g.select(names).cast(orig_schema)
        g = g.sort_by(
            [("subj", "ascending"), ("pred", "ascending"), ("obj", "ascending")]
        )
        n_d_add = n_d_rm = 0
        if gen is not None:
            d_add, d_rm = _row_diff(g, old), _row_diff(old, g)
            n_d_add, n_d_rm = d_add.num_rows, d_rm.num_rows
            gdir = os.path.join(pdir, f"gen={gen}")
            for name, t in (("added", d_add), ("removed", d_rm)):
                if t.num_rows:
                    os.makedirs(gdir, exist_ok=True)
                    dtmp = os.path.join(gdir, f".{name}.parquet.tmp")
                    pq.write_table(t, dtmp)
                    os.replace(dtmp, os.path.join(gdir, f"{name}.parquet"))
        tmp = os.path.join(pdir, ".data.parquet.tmp")
        pq.write_table(g, tmp)
        os.replace(tmp, dst)
        return pa.table(
            {"part_id": pa.array([pid]), "n_total": pa.array([g.num_rows]),
             "n_added": pa.array([g.num_rows - n_old]),
             "n_gen_added": pa.array([n_d_add]),
             "n_gen_removed": pa.array([n_d_rm]),
             "path": pa.array([dst])},
            schema=_MERGE_MANIFEST_SCHEMA,
        )

    from ..stages.exchange import hash_exchange

    manifest = hash_exchange(with_part, "part_id", merge_group,
                             num_partitions)
    out = manifest.to_pandas()
    if len(out) == 0:
        # empty delta (steady-state recrawl with nothing new): an empty
        # Dataset loses its schema through to_pandas — rebuild the
        # manifest columns so callers can still sum n_added etc.
        import pandas as pd

        out = pd.DataFrame({"part_id": pd.Series([], dtype="int64"),
                            "n_total": pd.Series([], dtype="int64"),
                            "n_added": pd.Series([], dtype="int64"),
                            "n_gen_added": pd.Series([], dtype="int64"),
                            "n_gen_removed": pd.Series([], dtype="int64"),
                            "path": pd.Series([], dtype="object")})
    if gen is not None:
        meta = _load_meta(out_dir)
        meta["generation"] = gen
        meta.setdefault("history", []).append({
            "gen": gen, "op": "merge",
            "added": int(out["n_gen_added"].sum()),
            "removed": int(out["n_gen_removed"].sum())})
        _save_meta(out_dir, meta)
    return out


def delete_triples(out_dir: str, *, subj: str | None = None,
                   pred: str | None = None, obj: str | None = None,
                   graph: str | None = None):
    """Tracked DELETE over the partitioned store (retractions are a real
    web-KG operation — takedowns, GDPR erasure, revoked facts): remove
    every triple matching the bound constants, rewriting only affected
    partitions (a pattern binding the store's ROUTING key touches exactly
    one partition; otherwise all). Always a generation: each touched
    partition records its removed rows under ``part_id=N/gen=G/`` and the
    meta generation bumps once — :func:`read_store_asof` can resurrect
    any pre-delete snapshot. Returns a small pandas manifest (one row per
    partition that actually lost rows). At least one constant must bind.
    ``graph`` scopes to a named graph (SPARQL ``CLEAR GRAPH`` when it is
    the only constant); like in :func:`match_triples` it is a filter,
    never a route, and raises on graph-less stores."""
    import glob
    import os

    import ray

    bound = {k: v for k, v in
             {"subj": subj, "pred": pred, "obj": obj,
              "graph": graph}.items() if v is not None}
    if not bound:
        raise ValueError("delete_triples with no bound constant would drop "
                         "the whole store — do that with shutil instead")
    if graph is not None:
        import pyarrow.parquet as _pq

        any_part = glob.glob(f"{out_dir}/part_id=*/data.parquet")
        if any_part and "graph" not in _pq.read_schema(any_part[0]).names:
            raise ValueError(
                f"store {out_dir!r} has no named-graph column — it was "
                "written from plain triples; a graph-scoped delete "
                "cannot match")
    route = store_key(out_dir)
    # drop planner stats BEFORE any partition rewrite (crash safety —
    # same rationale as in merge)
    meta0 = _load_meta(out_dir)
    if meta0.pop("stats", None) is not None:
        _save_meta(out_dir, meta0)
    gen = _next_generation(out_dir)
    if route in bound:
        pid = subj_partition_id(bound[route], store_num_partitions(out_dir))
        pdirs = [os.path.join(out_dir, f"part_id={pid}")]
        pdirs = [p for p in pdirs if os.path.isdir(p)]
    else:
        pdirs = sorted(glob.glob(f"{out_dir}/part_id=*"))

    @ray.remote
    def del_part(pdir: str):
        import pyarrow.parquet as pq

        dst = os.path.join(pdir, "data.parquet")
        t = pq.read_table(dst)
        mask = None
        for col, v in bound.items():
            e = pc.equal(t[col], v)
            mask = e if mask is None else pc.and_(mask, e)
        mask = pc.fill_null(mask, False)
        n_rm = int(pc.sum(pc.cast(mask, pa.int64())).as_py() or 0)
        if n_rm == 0:
            return None
        removed = t.filter(mask)
        kept = t.filter(pc.invert(mask))
        gdir = os.path.join(pdir, f"gen={gen}")
        os.makedirs(gdir, exist_ok=True)
        dtmp = os.path.join(gdir, ".removed.parquet.tmp")
        pq.write_table(removed, dtmp)
        os.replace(dtmp, os.path.join(gdir, "removed.parquet"))
        tmp = os.path.join(pdir, ".data.parquet.tmp")
        pq.write_table(kept, tmp)
        os.replace(tmp, dst)
        return {"part_id": int(pdir.rsplit("=", 1)[1]), "n_removed": n_rm,
                "n_total": kept.num_rows}

    rows = [r for r in ray.get([del_part.remote(p) for p in pdirs])
            if r is not None]
    out = pd.DataFrame(rows, columns=["part_id", "n_removed", "n_total"])
    if len(out) == 0:
        # nothing matched (typo'd constant / empty routed partition): no
        # partition was rewritten and no delta recorded — bumping the
        # generation would make every later asof replay walk a phantom
        # generation and give store_generation() diffing false positives
        return out
    meta = _load_meta(out_dir)
    meta["generation"] = gen
    meta.setdefault("history", []).append({
        "gen": gen, "op": "delete", "added": 0,
        "removed": int(out["n_removed"].sum())})
    _save_meta(out_dir, meta)
    return out


def delete_exact_rows(out_dir: str, rows, num_buckets: int | None = None):
    """Tracked BULK retraction: delete every store row whose identity
    agrees with a row of ``rows`` on ALL of ``rows``' columns — the
    engine half of SPARQL ``DELETE DATA`` / ``DELETE WHERE`` (each
    ground quad instantiated from the bindings is one delete row).
    ``rows`` is a pa.Table or a Dataset and MUST include ``subj``: the
    delete set hash-routes by the store's subject routing (the same
    :func:`hash_exchange` shape as the merge sink — never a driver
    loop, never a full-store scan: only partitions a delete row routes
    into are opened), and each touched partition anti-joins its file
    against its slice of the delete set (nulls compare equal, the delta
    writer's identity rule). Annotation columns absent from ``rows``
    (obj_datatype, src_url, …) don't constrain the match — deleting
    (s, p, o) removes the stored row carrying its provenance. Always a
    generation: removed rows land under ``part_id=N/gen=G/`` and the
    meta bumps once for the whole batch (not per row), so
    :func:`read_store_asof` resurrects the pre-delete snapshot; a
    no-match delete doesn't bump (same discipline as
    :func:`delete_triples`). Returns the per-partition manifest."""
    import os

    import ray.data as rd

    if isinstance(rows, pa.Table):
        rows = rd.from_arrow(rows)
    route = store_key(out_dir)
    if route != "subj":
        raise ValueError(
            f"store {out_dir!r} is routed by {route!r}; deletes route by "
            "subj — rebuild the secondary index from the mutated primary "
            "instead")
    num_partitions = store_num_partitions(out_dir)
    # drop planner stats BEFORE any partition rewrite (crash safety —
    # same rationale as merge/delete)
    meta0 = _load_meta(out_dir)
    if meta0.pop("stats", None) is not None:
        _save_meta(out_dir, meta0)
    gen = _next_generation(out_dir)

    with_part = rows.map_batches(
        lambda b: add_subj_partition(b, num_partitions),
        batch_format="pyarrow")

    manifest_schema = pa.schema([
        pa.field("part_id", pa.int64()), pa.field("n_removed", pa.int64()),
        pa.field("n_total", pa.int64())])

    def del_group(g: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        if g.num_rows == 0:
            return manifest_schema.empty_table()
        pid = int(g["part_id"][0].as_py())
        dels = g.drop_columns(["part_id"])
        dst = os.path.join(out_dir, f"part_id={pid}", "data.parquet")
        if not os.path.exists(dst):
            return manifest_schema.empty_table()
        t = pq.read_table(dst)
        match_cols = [c for c in dels.column_names if c in t.column_names]
        if "subj" not in match_cols:
            raise ValueError("delete rows must carry a subj column")
        # membership via pandas merge indicator: NaN↔NaN matches — the
        # same nulls-compare-equal identity as the delta writer
        dd = dels.select(match_cols).to_pandas().drop_duplicates()
        td = t.select(match_cols).to_pandas()
        m = td.merge(dd, on=match_cols, how="left", indicator=True)
        mask = pa.array((m["_merge"] == "both").to_numpy())
        n_rm = int(pc.sum(pc.cast(mask, pa.int64())).as_py() or 0)
        if n_rm == 0:
            return manifest_schema.empty_table()
        removed = t.filter(mask)
        kept = t.filter(pc.invert(mask))
        pdir = os.path.dirname(dst)
        gdir = os.path.join(pdir, f"gen={gen}")
        os.makedirs(gdir, exist_ok=True)
        dtmp = os.path.join(gdir, ".removed.parquet.tmp")
        pq.write_table(removed, dtmp)
        os.replace(dtmp, os.path.join(gdir, "removed.parquet"))
        tmp = os.path.join(pdir, ".data.parquet.tmp")
        pq.write_table(kept, tmp)
        os.replace(tmp, dst)
        return pa.table({"part_id": pa.array([pid]),
                         "n_removed": pa.array([n_rm]),
                         "n_total": pa.array([kept.num_rows])},
                        schema=manifest_schema)

    from ..stages.exchange import hash_exchange

    out = hash_exchange(with_part, "part_id", del_group,
                        num_partitions).to_pandas()
    if len(out) == 0 or int(out["n_removed"].sum()) == 0:
        return out.iloc[0:0] if len(out) else out
    meta = _load_meta(out_dir)
    meta["generation"] = gen
    meta.setdefault("history", []).append({
        "gen": gen, "op": "delete", "added": 0,
        "removed": int(out["n_removed"].sum())})
    _save_meta(out_dir, meta)
    return out


def insert_rows(out_dir: str, rows, num_buckets: int | None = None):
    """Tracked BULK insertion — the engine half of SPARQL ``INSERT
    DATA`` / ``INSERT … WHERE``. ``rows`` (pa.Table or Dataset) is
    padded to the store's stored schema (annotation columns the insert
    doesn't carry become typed nulls; extra columns are rejected), then
    merged through the generation-tracked sink — RDF set semantics, only
    routed partitions rewrite, one generation bump. Returns the merge
    manifest."""
    import glob
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    if isinstance(rows, pa.Table):
        in_cols = rows.column_names
        rows = rd.from_arrow(rows)
    else:
        in_schema = rows.schema()
        if in_schema is None:
            # a wholly-empty stream (e.g. INSERT … WHERE matching
            # nothing) has no schema to pad — and nothing to insert
            import pandas as pd

            return pd.DataFrame({
                "part_id": pd.Series([], dtype="int64"),
                "n_total": pd.Series([], dtype="int64"),
                "n_added": pd.Series([], dtype="int64"),
                "n_gen_added": pd.Series([], dtype="int64"),
                "n_gen_removed": pd.Series([], dtype="int64"),
                "path": pd.Series([], dtype="object")})
        in_cols = in_schema.names
    parts = sorted(glob.glob(f"{out_dir}/part_id=*/data.parquet"))
    if not parts:
        raise FileNotFoundError(f"no partitions in {out_dir!r}")
    schema = pq.read_schema(parts[0])
    extra = [c for c in in_cols if c not in schema.names]
    if extra:  # validate on the DRIVER, not inside a Ray task
        raise ValueError(
            f"insert rows carry columns {extra} the store lacks — "
            "the stored schema is the contract")

    def pad(b: pa.Table) -> pa.Table:
        n = len(b)
        return pa.table(
            {f.name: (pc.cast(b[f.name], f.type)
                      if f.name in b.column_names else pa.nulls(n, f.type))
             for f in schema}).cast(schema)

    return merge_triples_hash_partitioned(
        rows.map_batches(pad, batch_format="pyarrow"), out_dir,
        num_partitions=store_num_partitions(out_dir),
        track_generations=True)


def read_store_asof(out_dir: str, generation: int | None = None):
    """Time travel: the store's content AS OF ``generation`` as a Ray
    Dataset. Replay is PARTITION-LOCAL (zero shuffle): each partition task
    starts from the live file and walks its generation deltas backwards —
    current minus ``gen=g/added`` plus ``gen=g/removed`` for every
    ``g > generation`` — so the cost is proportional to the deltas
    crossed, not to store size × generations, and a 1/P-of-the-data
    partition replays independently of every other. ``generation=None``
    streams the live store directly; any NUMBERED generation — including
    the current one — always replays, because debris deltas above the
    recorded generation (a mutation that died before its meta bump) must
    be un-applied for the snapshot to be exact (do NOT "optimize"
    asof(current) to the live path — test_asof_correct_inside_crash_window
    pins this). Full-row identity, nulls compare equal (matching the
    delta writer); output is re-sorted per partition like the live
    layout."""
    import glob
    import os

    import ray
    import ray.data as rd

    cur = store_generation(out_dir)
    parts = sorted(glob.glob(f"{out_dir}/part_id=*/data.parquet"))
    if not parts:
        raise FileNotFoundError(f"no partitions in {out_dir!r}")
    if generation is None:
        # live view: read_parquet resurrects the hive dir as a part_id
        # column — drop it so both paths return the stored schema
        return rd.read_parquet(parts).map_batches(
            lambda b: b.drop_columns(["part_id"])
            if "part_id" in b.column_names else b,
            batch_format="pyarrow")
    if generation > cur:
        raise ValueError(f"store {out_dir!r} is at generation {cur}, "
                         f"asked for {generation}")
    if generation < 0:
        raise ValueError(f"generation must be >= 0, got {generation}")
    # only COMMITTED generations are addressable: {0} ∪ history. A crashed
    # tracked merge re-run leaves delta debris at gen G while the history
    # records only G+1 — asof(G) would pass the <=cur check yet return a
    # half-merged snapshot (partitions the crashed attempt rewrote are
    # merged, the rest are not), so phantom numbers are rejected here
    committed = {0} | {int(h["gen"]) for h in store_generations(out_dir)}
    if generation not in committed:
        raise ValueError(
            f"generation {generation} was never committed to {out_dir!r} "
            f"(a crashed mutation's retry skips over its debris number); "
            f"committed generations: {sorted(committed)}")
    # ALWAYS replay (even generation == cur): debris gen dirs above the
    # recorded generation — a mutation that rewrote partitions but died
    # before its meta bump — must be un-applied for the snapshot to be
    # exact; partitions without newer deltas stream unchanged

    @ray.remote
    def replay(data_path: str):
        import pyarrow.parquet as pq

        t = pq.read_table(data_path)
        cols = list(t.column_names)
        df = t.to_pandas()
        pdir = os.path.dirname(data_path)
        # walk every EXISTING generation dir above the target, descending
        # — including debris above the recorded meta generation from a
        # crashed mutation (its partitions may already be rewritten; for
        # partitions that were NOT yet rewritten the debris replay is a
        # set-semantics no-op: subtracting absent rows does nothing and
        # re-adding present rows dedups away), so the snapshot stays
        # correct inside the crash window, not just after the re-run
        gens = sorted((int(d.rsplit("=", 1)[1])
                       for d in glob.glob(os.path.join(pdir, "gen=*"))),
                      reverse=True)
        for g in gens:
            if g <= generation:
                continue
            gdir = os.path.join(pdir, f"gen={g}")
            ap = os.path.join(gdir, "added.parquet")
            rp = os.path.join(gdir, "removed.parquet")
            if os.path.exists(ap):
                ad = pq.read_table(ap).to_pandas().drop_duplicates()
                m = df.merge(ad[cols], on=cols, how="left", indicator=True)
                df = m[m["_merge"] == "left_only"][cols]
            if os.path.exists(rp):
                rm = pq.read_table(rp).to_pandas()
                df = pd.concat([df, rm[cols]], ignore_index=True)
                df = df.drop_duplicates()
        sort_cols = [c for c in ("subj", "pred", "obj") if c in cols]
        df = df.sort_values(sort_cols, kind="mergesort")
        return pa.Table.from_pandas(df, schema=t.schema, preserve_index=False)

    return rd.from_arrow_refs([replay.remote(p) for p in parts])


def join_stores_copartitioned(dir_a: str, dir_b: str, *, key: str = "subj",
                              columns_a=None, columns_b=None,
                              right_suffix: str = "_b"):
    """ZERO-SHUFFLE join of two hash-partitioned stores on their partition
    key: partition i of store A can only match partition i of store B
    (both were routed by the same key-type-aware hash at write time), so
    the join runs as one partition-local Arrow join task per partition —
    no exchange, no driver data. This is the "partition pinning" Ray Data
    can't express across stages (ROADMAP known-limitation #2), recovered
    from the STORAGE layout instead: write once partitioned, join any
    number of downstream times for free.

    Requires both stores' recorded ``num_partitions`` to match (their
    ``_meta.json``) — a mismatch means rows hash to different partitions
    and the partition-local join would silently drop matches, so it
    raises. Inner join; a partition missing on either side (no key hashed
    there at write time) contributes no rows. Column name collisions on
    the B side get ``right_suffix``. Returns a streaming Ray Dataset built
    from per-partition join results (lineage covers task retries)."""
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    pa_n = store_num_partitions(dir_a)
    pb_n = store_num_partitions(dir_b)
    if pa_n != pb_n:
        raise ValueError(
            f"co-partitioned join needs equal partition counts: "
            f"{dir_a!r} has {pa_n}, {dir_b!r} has {pb_n}")
    for d in (dir_a, dir_b):
        rk = store_key(d)
        if rk != key:
            raise ValueError(
                f"store {d!r} is routed by {rk!r} but the join key is "
                f"{key!r} — partition-local joins on a non-routing column "
                "would silently drop matches")

    @ray.remote
    def join_part(pid: int) -> pa.Table:
        fa = f"{dir_a}/part_id={pid}/data.parquet"
        fb = f"{dir_b}/part_id={pid}/data.parquet"
        ta = pq.read_table(fa, columns=columns_a)
        tb = pq.read_table(fb, columns=columns_b)
        return ta.join(tb, keys=[key], join_type="inner",
                       right_suffix=right_suffix).combine_chunks()

    pids = [i for i in range(pa_n)
            if os.path.exists(f"{dir_a}/part_id={i}/data.parquet")
            and os.path.exists(f"{dir_b}/part_id={i}/data.parquet")]
    if not pids:
        raise FileNotFoundError(
            f"no overlapping partitions between {dir_a!r} and {dir_b!r}")
    return rd.from_arrow_refs([join_part.remote(i) for i in pids])


def build_secondary_index(primary_dir: str, index_dir: str, *,
                          key: str = "obj",
                          num_partitions: int | None = None):
    """Build a ``key``-routed secondary index FROM a primary store, with
    PROVENANCE recorded: the index's ``_meta.json`` carries the primary's
    path and effective generation (including on-disk debris deltas), so
    :func:`index_is_stale` can flag every index built before a later
    tracked merge/delete on the primary — the silent trap of a
    secondary layout is answering point reads from data the primary no
    longer has. Rebuild = re-run (the index dir is replaced via the same
    temp-dir + rename-swap discipline as :func:`compact_store`)."""
    import glob
    import os
    import shutil

    import ray.data as rd

    crashed_old = index_dir.rstrip("/") + ".old"
    if not os.path.isdir(index_dir) and os.path.isdir(crashed_old):
        # a previous rebuild died between its two renames: no live index,
        # but the full pre-rebuild index sits at .old — restore it first
        # (same self-heal discipline as compact_store) so the rebuild
        # below replaces it atomically instead of orphaning it forever
        os.rename(crashed_old, index_dir)

    parts = sorted(glob.glob(f"{primary_dir}/part_id=*/data.parquet"))
    if not parts:
        raise FileNotFoundError(f"no partitions under {primary_dir!r}")
    # capture the generation BEFORE reading: a mutation landing during
    # the build must leave the index flagged stale, not fresh-looking
    # while serving pre-mutation rows
    src_gen = _next_generation(primary_dir) - 1
    ds = rd.read_parquet(parts).map_batches(
        lambda b: b.drop_columns(["part_id"])
        if "part_id" in b.column_names else b,
        batch_format="pyarrow")
    p = num_partitions or store_num_partitions(primary_dir)

    tmp_dir = index_dir.rstrip("/") + ".build.tmp"
    if os.path.isdir(tmp_dir):
        shutil.rmtree(tmp_dir)
    manifest = write_triples_hash_partitioned(ds, tmp_dir,
                                              num_partitions=p, key=key)
    meta = _load_meta(tmp_dir)
    meta["source_store"] = os.path.abspath(primary_dir)
    meta["source_generation"] = src_gen
    _save_meta(tmp_dir, meta)
    if os.path.isdir(index_dir):
        old = index_dir.rstrip("/") + ".old"
        if os.path.isdir(old):
            shutil.rmtree(old)
        os.rename(index_dir, old)
        os.rename(tmp_dir, index_dir)
        shutil.rmtree(old)
    else:
        os.rename(tmp_dir, index_dir)
    return manifest


def index_is_stale(index_dir: str) -> bool:
    """True when the primary this index was built from has mutated since
    (its effective generation — recorded meta OR on-disk debris — moved
    past the one captured at build time), or when the primary has
    VANISHED (a missing primary cannot prove the index fresh — monitors
    get a truthful flag instead of a FileNotFoundError). Indexes without
    recorded provenance (built directly from a Dataset) report False:
    there is nothing to compare against."""
    meta = _load_meta(index_dir)
    src = meta.get("source_store")
    if src is None:
        return False
    try:
        return (_next_generation(src) - 1) != int(meta["source_generation"])
    except FileNotFoundError:
        return True


_REFRESH_MANIFEST_SCHEMA = pa.schema([
    ("part_id", pa.int64()), ("n_total", pa.int64()),
    ("n_applied_added", pa.int64()), ("n_applied_removed", pa.int64()),
    ("path", pa.string())])


def refresh_secondary_index(index_dir: str, primary_dir: str | None = None):
    """Incrementally bring a STALE secondary index up to the primary's
    current generation by applying the tracked mutations' recorded
    per-partition deltas (``part_id=*/gen=G/{added,removed}.parquet``)
    instead of re-scanning the primary — the work is proportional to
    WHAT CHANGED (a day's crawl delta), not to the store (100 TB). The
    deltas are read, re-routed by the index's key (the rows
    hash to DIFFERENT partitions than in the subject-routed primary),
    and applied generation-by-generation per index partition:
    ``cur = (cur − removed_g) ∪ added_g`` on full-row identity, exactly
    the replay algebra of :func:`read_store_asof` run forward. Only the
    index partitions some changed row hashes into are rewritten.

    In-process rule: delta files that total at most
    ``exchange.BUCKET_BYTES`` (by ``os.stat``) are read with pyarrow in
    the driver — a delta that small would go through one reducer anyway —
    and handed to the per-partition exchange as one block; larger deltas
    are a distributed ``read_parquet``. Either way the same ``tag`` runs
    on them, and the index partitions are written by parallel tasks whose
    ``apply_group`` sees the same rows.

    Crash-safe and idempotent: partition writes are atomic replaces and
    the provenance bump is last, so a re-run re-applies the same deltas
    (removals diff to no-ops, re-adds collapse in the set dedup) and
    converges. Refuses primaries in a crashed-mutation window (effective
    generation not in the recorded history — same phantom discipline as
    :func:`read_store_asof`) and primaries whose generation went
    BACKWARDS (compacted/replaced): both need a full
    :func:`build_secondary_index` rebuild.

    Returns the refresh manifest (one row per rewritten index
    partition; empty when the index was already fresh)."""
    import glob
    import os
    import re

    import ray.data as rd

    meta = _load_meta(index_dir)
    src = primary_dir or meta.get("source_store")
    if src is None:
        raise ValueError(
            f"index {index_dir!r} has no recorded source_store provenance "
            "— it was not built by build_secondary_index; nothing to "
            "refresh against")
    if "source_generation" not in meta:
        raise ValueError(
            f"index {index_dir!r} records no source_generation — rebuild "
            "with build_secondary_index to establish provenance")
    g0 = int(meta["source_generation"])
    g1 = _next_generation(src) - 1

    def _bump_meta():
        m = _load_meta(index_dir)
        m.pop("stats", None)  # write-time census no longer matches content
        m["source_store"] = os.path.abspath(src)
        m["source_generation"] = g1
        _save_meta(index_dir, m)

    empty = _REFRESH_MANIFEST_SCHEMA.empty_table().to_pandas()
    if g1 == g0:
        return empty  # already fresh — nothing to apply, nothing to bump
    if g1 < g0:
        raise ValueError(
            f"primary {src!r} is at generation {g1} but the index was "
            f"built at {g0} — the primary was compacted or replaced, its "
            "deltas no longer describe this index's baseline; rebuild "
            "with build_secondary_index")
    hist = {int(h["gen"]) for h in _load_meta(src).get("history", [])}
    if g1 not in hist:
        raise ValueError(
            f"primary {src!r} has uncommitted delta debris at generation "
            f"{g1} (a tracked mutation crashed before its meta bump) — "
            "re-run that mutation to convergence, then refresh")

    files = [f for f in glob.glob(
                 os.path.join(src, "part_id=*", "gen=*", "*.parquet"))
             if g0 < int(re.search(r"gen=(\d+)", f).group(1)) <= g1]
    if not files:
        # tracked mutations that changed nothing (steady-state recrawl):
        # generation moved but there is no delta content — just re-pin
        _bump_meta()
        return empty

    idx_key = meta.get("key", "obj")
    p_idx = int(meta["num_partitions"])
    sort_keys = [idx_key] + [c for c in ("subj", "pred", "obj")
                             if c != idx_key]

    def tag(batch: pa.Table) -> pa.Table:
        # hive-style delta paths make read_parquet infer part_id/gen
        # columns; the inferred part_id is the PRIMARY's routing — drop
        # both (gen comes from the path, part_id from the index's key)
        batch = batch.drop_columns(
            [c for c in ("part_id", "gen") if c in batch.column_names])
        # path → (gen, op) vectorized through the dictionary: a batch
        # spans few distinct files, so decode once per unique path
        d = batch["path"]
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        d = d.dictionary_encode()
        gens, ops = [], []
        for s in d.dictionary.to_pylist():
            gens.append(int(re.search(r"gen=(\d+)", s).group(1)))
            ops.append(1 if os.path.basename(s).startswith("removed")
                       else 0)
        idx = d.indices.to_numpy(zero_copy_only=False)
        batch = batch.drop_columns(["path"])
        batch = batch.append_column(
            "_gen", pa.array(np.asarray(gens, np.int64)[idx]))
        batch = batch.append_column(
            "_rm", pa.array(np.asarray(ops, np.int64)[idx]))
        return add_subj_partition(batch, p_idx, idx_key)

    if _files_fit(files):
        # a delta that fits one reducer reads in the driver: no Ray Data
        # execution, the same tag, one block into the exchange below
        import pyarrow.parquet as pq

        parts = []
        for f in files:
            t = pq.read_table(f)
            parts.append(t.append_column(
                "path", pa.array([f] * t.num_rows, pa.string())))
        ds = rd.from_arrow(tag(pa.concat_tables(
            parts, promote_options="permissive")))
    else:
        ds = rd.read_parquet(files, include_paths=True).map_batches(
            tag, batch_format="pyarrow")

    def apply_group(g: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        if g.num_rows == 0:
            return _REFRESH_MANIFEST_SCHEMA.empty_table()
        pid = int(g["part_id"][0].as_py())
        g = g.drop_columns(["part_id"])
        data_cols = [c for c in g.column_names if c not in ("_gen", "_rm")]
        pdir = os.path.join(index_dir, f"part_id={pid}")
        dst = os.path.join(pdir, "data.parquet")
        if os.path.exists(dst):
            cur = pq.read_table(dst)
        else:  # partition nothing hashed into at build time
            cur = g.select(data_cols).schema.empty_table()
        n_add = n_rm = 0
        for gen in sorted(set(g["_gen"].to_pylist())):
            sub = g.filter(pc.equal(g["_gen"], gen))
            rm = sub.filter(pc.equal(sub["_rm"], 1)).select(data_cols)
            add = sub.filter(pc.equal(sub["_rm"], 0)).select(data_cols)
            if rm.num_rows:
                before = cur.num_rows
                cur = _row_diff(cur, rm.cast(cur.schema))
                n_rm += before - cur.num_rows
            if add.num_rows:
                cur = pa.concat_tables([cur, add.cast(cur.schema)])
                n_add += add.num_rows
        # full-row set dedup (idempotent re-runs re-add existing rows);
        # same bool→int64 cast as merge_group for the pyarrow 16.1
        # bit-packed-bool group_by hazard documented there
        orig_schema = cur.schema
        safe = pa.schema([
            pa.field(f.name, pa.int64() if pa.types.is_boolean(f.type)
                     else f.type) for f in orig_schema])
        cur = cur.cast(safe)
        cur = cur.group_by(cur.column_names).aggregate([])
        cur = cur.select(orig_schema.names).cast(orig_schema)
        cur = cur.sort_by([(c, "ascending") for c in sort_keys])
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(pdir, ".data.parquet.tmp")
        pq.write_table(cur, tmp)
        os.replace(tmp, dst)
        return pa.table(
            {"part_id": pa.array([pid]),
             "n_total": pa.array([cur.num_rows]),
             "n_applied_added": pa.array([n_add]),
             "n_applied_removed": pa.array([n_rm]),
             "path": pa.array([dst])},
            schema=_REFRESH_MANIFEST_SCHEMA)

    from ..stages.exchange import hash_exchange

    manifest = hash_exchange(ds, "part_id", apply_group, p_idx)
    out = manifest.to_pandas()
    if len(out) == 0:
        out = empty
    _bump_meta()
    return out


def compact_store(store_dir: str, num_partitions: int | None = None,
                  key: str | None = None, drop_history: bool = False):
    """Rebuild a hash-partitioned store at a new partition count and/or a
    new routing key — the maintenance op the ROADMAP flagged: partition
    counts are chosen at write time, and a store that grew 100× (or a
    workload that flipped from subject to object lookups) needs a
    re-layout without re-running the pipeline that produced it.

    Generation deltas are keyed to the OLD partitioning, so compaction
    cannot carry time travel across: a store with tracked generations
    refuses to compact unless ``drop_history=True``, and the rebuilt
    store restarts at generation 0 (live content becomes the new
    baseline).

    The rebuild is one streaming read → route → per-partition sorted
    write into a sibling temp dir (the exact write path of
    :func:`write_triples_hash_partitioned`, so the result IS a normal
    store: `_meta.json`, point reads, co-partitioned joins all work).
    The swap is two renames: old store → ``.old``, new → live, old
    removed. A crash BETWEEN the renames leaves no live dir but the full
    old store intact at ``.old`` — re-running compact_store self-heals
    by renaming it back first, so the recovery step is simply "run it
    again" (never a half-mixed layout). Returns the new partition
    manifest (one row per written partition)."""
    import glob
    import json
    import os
    import shutil

    import ray.data as rd

    crashed_old = store_dir.rstrip("/") + ".old"
    if not os.path.isdir(store_dir) and os.path.isdir(crashed_old):
        # a previous compaction died between its two renames: the live
        # dir is missing and the pre-compaction store sits at .old —
        # restore it and redo the compaction from that baseline
        os.rename(crashed_old, store_dir)

    meta_path = os.path.join(store_dir, "_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    new_p = num_partitions or meta["num_partitions"]
    new_key = key or meta.get("key", "subj")
    if int(meta.get("generation", 0)) > 0 and not drop_history:
        raise ValueError(
            f"store {store_dir!r} has {meta['generation']} tracked "
            "generations; compaction re-routes rows so the deltas cannot "
            "be carried over — pass drop_history=True to rebuild from the "
            "live content (time travel resets)")

    parts = sorted(glob.glob(f"{store_dir}/part_id=*/data.parquet"))
    if not parts:
        raise FileNotFoundError(f"no partitions under {store_dir!r}")
    # read_parquet resurrects the hive dir name as a part_id column —
    # drop it, the rewrite derives fresh routing
    ds = rd.read_parquet(parts).map_batches(
        lambda b: b.drop_columns(["part_id"])
        if "part_id" in b.column_names else b,
        batch_format="pyarrow")

    tmp_dir = store_dir.rstrip("/") + ".compact.tmp"
    if os.path.isdir(tmp_dir):
        shutil.rmtree(tmp_dir)  # debris from a crashed earlier compaction
    manifest = write_triples_hash_partitioned(
        ds, tmp_dir, num_partitions=new_p, key=new_key)

    old_dir = store_dir.rstrip("/") + ".old"
    if os.path.isdir(old_dir):
        shutil.rmtree(old_dir)
    os.rename(store_dir, old_dir)
    os.rename(tmp_dir, store_dir)
    shutil.rmtree(old_dir)
    return manifest
