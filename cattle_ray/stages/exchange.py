"""Manual hash exchange — the shuffle under the bucketed joins, aggregates
and dedup, in raw Ray tasks.

Ray Data's groupby runs on a SORT-based shuffle; for a wide-row exchange
keyed by a low-cardinality bucket column that machinery is pathological —
profiling the 2M-page flagship showed the dedup groupby funneling the
whole 6.9M-row / 1.6 GB triple table through ONE SortMap task (230 s of
CPU, the entire scaling bottleneck), and Ray 2.49's HASH_SHUFFLE strategy
wedges outright (ROADMAP item 1, retested). At serving scale the same
barrier costs the other way round: a 2,000-row SPARQL join paid ~0.7 s in
its Repartition + Sort stages (2 Ray CPUs on a shared 4-vCPU VM). Rows
co-located by a hash bucket don't need ORDER — they need a partition
exchange, which is embarrassingly parallel in plain Ray tasks:

- one ``split`` task per input block: one stable argsort of the int64
  bucket column + one Arrow ``take`` + ``num_buckets`` zero-copy slices —
  returned as ``num_buckets`` separate objects, so the object store holds
  per-(block, bucket) shards exactly like a shuffle's map output;
- one ``reduce`` task per bucket: concat its column of shards, apply the
  caller's finish function. Buckets with more shards than ``fan_in`` go
  through intermediate concat tasks (tree reduce) so no task ever takes
  an unbounded argument list at 100-TB block counts.

:func:`bucket_shuffle` is the entry point for bucketed joins, aggregates
and dedup: it sizes the reducer count to the bytes actually flowing
(:func:`_effective_buckets`, about :data:`BUCKET_BYTES` per reducer,
capped at the caller's bucket count). At ONE reducer there is no split at
all — a single task concatenates the input blocks and finishes them.
Either way a reducer sees a UNION of the caller's buckets, so ``finish``
must be correct over any union of buckets: it re-keys inside what it is
given (a join per key, a group-by on the keys, a drop_duplicates), never
treating its input as one bucket.

The input is materialized first (exactly what a sort-based shuffle does
internally); the output Dataset is built from the reduce tasks' object
refs — nothing flows through the driver. Determinism: the reduce sees
shards in input-block order, so a finish fn that (like dedup's) orders by
an explicit key before picking representatives is layout-independent.
Empty inputs and empty buckets still run ``finish`` on a typed 0-row
table, so no reducer emits a zero-column block.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

#: bytes one reducer is sized to take (about 32 MB): small enough for a
#: worker heap at corpus scale, large enough that toy-scale shuffles run
#: as ONE task instead of paying per-bucket scheduling
BUCKET_BYTES = 32 << 20


def _effective_buckets(n_bytes: int, cap: int) -> int:
    """Shared bucket-count crossover: enough buckets that each holds about
    :data:`BUCKET_BYTES`, at least 1, never more than ``cap``."""
    return int(max(1, min(cap, -(-(n_bytes or 0) // BUCKET_BYTES))))


def _as_arrow(out, in_schema: pa.Schema) -> pa.Table:
    """A finish result as an Arrow block. Pandas output converts here;
    a column pandas could not type (empty or all-null ``object``, which
    Arrow infers as ``null``) takes its input type back by name, so empty
    buckets and empty inputs leave typed blocks."""
    if isinstance(out, pa.Table):
        return out
    t = pa.Table.from_pandas(out, preserve_index=False)
    for i, f in enumerate(t.schema):
        if pa.types.is_null(f.type) and f.name in in_schema.names:
            typ = in_schema.field(f.name).type
            t = t.set_column(i, pa.field(f.name, typ), t[i].cast(typ))
    return t


def _arrow_block(block) -> pa.Table:
    """Arrow view of one input block (a pandas block from upstream
    converts here, inside the task that reads it)."""
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


def _concat(parts) -> pa.Table:
    # permissive promotion: a block whose column was all-null (Arrow
    # ``null`` type) joins its typed siblings instead of raising
    return pa.concat_tables([_arrow_block(p) for p in parts],
                            promote_options="permissive")


@functools.lru_cache(maxsize=None)
def _tasks():
    """The exchange's Ray tasks, defined once per process so each call
    ships only its arguments, never a freshly pickled function."""
    import ray

    @ray.remote
    def split(block, bucket_col, num_buckets, fold):
        t = _arrow_block(block)
        bk = t[bucket_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if fold:
            bk = bk % num_buckets
        elif len(bk) and (bk.min() < 0 or bk.max() >= num_buckets):
            # loud crash beats silent row loss: a bucket value outside
            # [0, num_buckets) would fall outside every slice below
            raise ValueError(
                f"{bucket_col} outside [0, {num_buckets}): "
                f"[{bk.min()}, {bk.max()}]")
        order = np.argsort(bk, kind="stable")
        srt = t.take(pa.array(order))
        bounds = np.searchsorted(bk[order], np.arange(num_buckets + 1))
        return tuple(
            srt.slice(bounds[k], bounds[k + 1] - bounds[k])
            for k in range(num_buckets)
        )

    @ray.remote
    def concat(*parts):
        return _concat(parts)

    @ray.remote
    def reduce(finish_fn, *parts):
        t = _concat(parts)
        return _as_arrow(finish_fn(t), t.schema)

    return split, concat, reduce


def _shuffle(ds, bucket_col, finish_fn, reducers, fan_in: int = 256,
             fold: bool = False):
    """Materialize ``ds`` and exchange its non-empty blocks over
    ``reducers(input bytes)`` reduce tasks. Empty blocks are skipped by
    METADATA — a stage that emits pa.table({}) for a no-candidate batch
    produces zero-row zero-COLUMN blocks that have no bucket column to
    split on (and contribute nothing anyway)."""
    import ray.data as rd

    mat = ds.materialize()
    refs, n_bytes = [], 0
    for bundle in mat.iter_internal_ref_bundles():
        for br, meta in bundle.blocks:
            if meta.num_rows is None or meta.num_rows > 0:
                refs.append(br)
                n_bytes += meta.size_bytes or 0
    if not refs:
        return _empty_result(mat, finish_fn, bucket_col)

    num_buckets = reducers(n_bytes)
    split, concat, reduce = _tasks()
    if num_buckets == 1:
        # nothing to route: the block refs go straight to one reduce
        shard_cols = [refs]
    else:
        per_block = [split.options(num_returns=num_buckets).remote(
            r, bucket_col, num_buckets, fold) for r in refs]
        shard_cols = [[pb[k] for pb in per_block]
                      for k in range(num_buckets)]

    out = []
    for col in shard_cols:
        while len(col) > fan_in:  # tree reduce: bound every arg list
            col = [concat.remote(*col[i:i + fan_in])
                   for i in range(0, len(col), fan_in)]
        out.append(reduce.remote(finish_fn, *col))
    return rd.from_arrow_refs(out)


def _empty_result(mat, finish_fn, bucket_col: str):
    """Wholly empty input: still deliver the FINISHED schema (the input
    schema carries caller-internal columns like ``_bucket`` that
    ``finish_fn`` strips) by finishing a 0-row table of the input schema
    — or NO block when the input has no schema to type from (its empty
    blocks are zero-column ones, which would only be passed along)."""
    import ray.data as rd

    schema = mat.schema()
    base = schema if isinstance(schema, pa.Schema) else \
        getattr(schema, "base_schema", None)
    if not isinstance(base, pa.Schema) or bucket_col not in base.names:
        return rd.from_blocks([])
    empty = base.empty_table()
    return rd.from_blocks([_as_arrow(finish_fn(empty), base)])


def hash_exchange(ds, bucket_col: str, finish_fn, num_buckets: int,
                  fan_in: int = 256):
    """ds (with int bucket column in ``[0, num_buckets)``) → Dataset of
    ``finish_fn`` outputs, one reduce per bucket. ``finish_fn``:
    ``pa.Table -> pa.Table`` (a pandas result converts to Arrow)."""
    return _shuffle(ds, bucket_col, finish_fn, lambda _: num_buckets,
                    fan_in)


def bucket_shuffle(ds, finish, num_buckets: int,
                   batch_format: str = "pyarrow"):
    """Co-locate ``ds``'s rows by their int ``_bucket`` column (values in
    ``[0, num_buckets)``) and apply ``finish`` to each reducer's rows —
    the replacement for ``groupby("_bucket").map_groups(finish)``.

    The reducer count is sized to the input's bytes from block metadata
    (:func:`_effective_buckets`, at most ``num_buckets``); ``_bucket``
    folds modulo that count, so a reducer holds a UNION of buckets and
    ``finish`` must be correct over any union (it re-keys inside its
    input). At one reducer a single task finishes all blocks at once.
    ``batch_format`` is what ``finish`` takes: ``"pyarrow"`` (a
    ``pa.Table``) or ``"pandas"``; it may return either, and the output
    Dataset holds Arrow blocks."""
    fn = finish
    if batch_format == "pandas":
        def fn(t: pa.Table):
            return finish(t.to_pandas())
    return _shuffle(ds, "_bucket", fn,
                    lambda n_bytes: _effective_buckets(n_bytes, num_buckets),
                    fold=True)
