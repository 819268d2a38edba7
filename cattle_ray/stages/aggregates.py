"""G1-G3: aggregations with explicit shuffle discipline.

- :func:`partial_count` — two-stage count: per-batch partial aggregation
  inside ``map_batches`` (Arrow ``Table.group_by`` — C++), then one
  :func:`~.exchange.bucket_shuffle` whose reducers sum the partials with a
  vectorized pandas ``groupby(keys).sum``. The shuffle moves one row per
  (key, batch) instead of one per input row; hub keys (skew) cost
  O(#batches), not O(rows).
- The other bucketed aggregates (:func:`grouped_sums`,
  :func:`grouped_minmax`, :func:`grouped_agg`, :func:`grouped_pivot`,
  :func:`grouped_topk`, :func:`distinct`) share that shape: a hash
  ``_bucket`` routes rows, the exchange sizes its reducer count to the
  data, and every finish re-keys inside its input, so it is correct over
  whatever union of buckets one reducer receives — or over a whole
  driver-held Table within ``exchange.BUCKET_BYTES``, which
  :func:`partial_count`, :func:`grouped_agg` and :func:`distinct` map and
  finish in the caller. No block coalescing precedes a shuffle: the
  exchange routes each non-empty input block once, whatever its size.
- :func:`top_k_counts` — O2: hot-predicate diagnostics.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .exchange import bucket_shuffle, map_rel


def _partial(batch: pa.Table, keys: list[str]) -> pa.Table:
    out = batch.group_by(keys).aggregate([([], "count_all")])
    return out.rename_columns(keys + ["partial_n"])


def _splitmix64(x: "np.ndarray") -> "np.ndarray":
    """Vectorized splitmix64 finalizer (public-domain constant mix) —
    uniform uint64 → uint64, no pandas detour."""
    import numpy as np

    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def add_key_bucket(batch: pa.Table, keys, num_buckets: int) -> pa.Table:
    """Low-cardinality shuffle bucket from a hash of the key columns.
    Buckets only ROUTE rows (grouping re-keys inside the bucket), so the
    hash needs uniformity + determinism, not injectivity: a single integer
    key takes the numpy splitmix64 fast path (nulls route with 0 — they
    still co-locate); anything else falls back to the vectorized
    ``hash_pandas_object``."""
    import numpy as np
    import pandas as pd

    keys = list(keys)
    if len(keys) == 1 and pa.types.is_integer(batch[keys[0]].type):
        col = batch[keys[0]]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        v = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
        h = _splitmix64(v.astype(np.uint64))
        return batch.append_column(
            "_bucket", pa.array((h % num_buckets).astype("int64")))
    # null/dtype-stable per-column hash: hashing the to_pandas sub-frame
    # let a batch-local NULL promote an int64 key to float64, giving the
    # SAME key different buckets in different batches (same defect class
    # as the composite-join bucketing fix in joins.py)
    from .joins import _key_buckets_multi

    bucket = _key_buckets_multi(batch, keys, num_buckets)
    return batch.append_column("_bucket", pa.array(bucket.astype("int64")))


def partial_count(ds, keys, num_buckets: int = 32):
    """groupby(keys).count() with map-side combine, finished by a bucketed
    sum: the per-batch partial counts cross one
    :func:`~.exchange.bucket_shuffle` and each reducer sums them with one
    vectorized pandas ``groupby(keys)["partial_n"].sum`` — Ray's
    sort-based aggregate pays seconds of overhead per 100k distinct keys,
    this is ~10× faster at identical semantics (skew-proof: partials
    already combined). Output columns: ``keys + ["n"]`` (int64)."""
    keys = list(keys)
    partials = map_rel(map_rel(ds, lambda b: _partial(b, keys)),
                       lambda b: add_key_bucket(b, keys, num_buckets))

    def finish(g):
        # dropna=False: SQL GROUP BY reports the NULL group; the Arrow
        # partials kept it, so silently discarding it here would both
        # waste the shuffle and diverge from every oracle
        out = g.groupby(keys, sort=False, dropna=False)["partial_n"] \
            .sum().reset_index(name="n")
        out["n"] = out["n"].astype("int64")
        return out

    return bucket_shuffle(partials, finish, num_buckets, "pandas")


def grouped_sums(ds, keys, sum_cols, num_buckets: int = 32):
    """Multi-column grouped SUM + COUNT with map-side combine — the
    generalization of :func:`partial_count` to several measures at once
    (feature stats, corpus report cards). Per batch one Arrow C++
    ``group_by`` emits partial (sum_c…, n) rows; the shuffle moves one row
    per (key, batch); a bucketed pandas sum finishes. Sum columns should be
    int64 (exact, order-independent — callers convert money/measures to
    fixed-point first, the engine-wide determinism discipline).

    Output columns: ``keys + [f"sum_{c}" for c in sum_cols] + ["n"]``.
    """
    keys = list(keys)
    sum_cols = list(sum_cols)
    out_names = keys + [f"sum_{c}" for c in sum_cols] + ["n"]

    def partial(batch: pa.Table) -> pa.Table:
        out = batch.group_by(keys).aggregate(
            [(c, "sum") for c in sum_cols] + [([], "count_all")])
        return out.rename_columns(out_names)

    partials = ds.map_batches(partial, batch_format="pyarrow").map_batches(
        lambda b: add_key_bucket(b, keys, num_buckets), batch_format="pyarrow"
    )

    def finish(g):
        cols = [f"sum_{c}" for c in sum_cols] + ["n"]
        out = g.groupby(keys, sort=False, dropna=False)[cols].sum().reset_index()
        for c in cols:
            out[c] = out[c].astype("int64")
        return out

    return bucket_shuffle(partials, finish, num_buckets, "pandas")


def top_k_counts(ds, keys, k: int = 10):
    """O2: top-k hot keys by count, deterministic tie-break on the key."""
    counts = partial_count(ds, keys)
    keys = list(keys)
    return counts.sort(["n"] + keys, descending=[True] + [False] * len(keys)).limit(k)


def grouped_head(ds, key: str, order_col: str, k: int, num_buckets: int = 32):
    """Per-key head-k in deterministic ``order_col`` order (e.g. domain-
    balanced corpus sampling: cap docs per source/domain so hot domains
    can't dominate the training mix). Single-order-column special case of
    :func:`grouped_topk`."""
    return grouped_topk(ds, key, [order_col], [True], k,
                        num_buckets=num_buckets)


def distinct(ds, cols, num_buckets: int = 64):
    """G3: distinct values — map-side local distinct, then a low-cardinality
    bucket shuffle with one vectorized drop_duplicates per reducer (one UDF
    call per reducer, not per distinct value)."""
    cols = list(cols)

    def local_distinct(batch: pa.Table) -> pa.Table:
        from .joins import _key_buckets_multi

        out = batch.select(cols).group_by(cols).aggregate([])
        # null/dtype-stable bucketing (see add_key_bucket): equal rows
        # MUST co-bucket or they survive the bucket-local dedup as
        # duplicate "distinct" rows
        bucket = _key_buckets_multi(out, cols, num_buckets)
        return out.append_column("_bucket", pa.array(bucket.astype("int64")))

    return bucket_shuffle(
        map_rel(ds, local_distinct),
        lambda g: g.drop_duplicates(subset=cols).drop(columns=["_bucket"]),
        num_buckets, "pandas")


def grouped_topk(ds, key: str, order_cols, ascending, k: int,
                 rank_col: str | None = None, num_buckets: int = 32):
    """Per-key top-k under a MULTI-column deterministic order (generalizes
    :func:`grouped_head`; e.g. keyword extraction: top terms per doc by
    (tf DESC, df ASC, term) — exact integer ranks, no float scores). One
    bucketed shuffle on the key; per reducer a single vectorized multi-key
    sort + ``groupby.head`` (+ optional ``cumcount`` rank column) — no
    per-key UDF calls. Hub keys cost their own row count, nothing more."""
    from .joins import _key_buckets

    order_cols = list(order_cols)
    ascending = list(ascending)

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket", pa.array(_key_buckets(batch[key], num_buckets)))

    def head(g):
        g = g.sort_values([key] + order_cols,
                          ascending=[True] + ascending, kind="mergesort")
        out = g.groupby(key, sort=False, dropna=False).head(k) \
            .drop(columns=["_bucket"])
        if rank_col is not None:
            out[rank_col] = out.groupby(key, sort=False,
                                        dropna=False).cumcount() + 1
        return out

    return bucket_shuffle(ds.map_batches(add_bucket, batch_format="pyarrow"),
                          head, num_buckets, "pandas")


def grouped_mode(ds, key: str, value_col: str, num_buckets: int = 32):
    """Most frequent value per key (grouped mode) with a deterministic
    tie-break (higher count first, then value ascending): ONE map-side-
    combined count — the shuffle moves (key, value, partial) rows, never
    the facts — then a per-key argmax over that tiny count table via
    :func:`grouped_topk` (k=1). The mode costs what the count costs.
    Output columns: (key, value_col, n)."""
    counts = partial_count(ds, [key, value_col], num_buckets=num_buckets)
    return grouped_topk(counts, key, ["n", value_col], [False, True], 1,
                        num_buckets=num_buckets)


def grouped_minmax(ds, keys, col: str, agg: str = "min",
                   num_buckets: int = 32):
    """Grouped MIN or MAX with map-side combine (the partial_count pattern
    for an idempotent reduce): per batch one Arrow C++ group_by emits one
    (keys, partial) row, the shuffle moves partials, a bucketed pandas
    min/max finishes. Output columns: keys + [col]."""
    assert agg in ("min", "max")
    keys = list(keys)

    def partial(batch: pa.Table) -> pa.Table:
        out = batch.group_by(keys).aggregate([(col, agg)])
        return out.rename_columns(keys + [col])

    partials = ds.map_batches(partial, batch_format="pyarrow").map_batches(
        lambda b: add_key_bucket(b, keys, num_buckets), batch_format="pyarrow"
    )

    def finish(g):
        f = getattr(g.groupby(keys, sort=False, dropna=False)[col], agg)
        return f().reset_index()

    return bucket_shuffle(partials, finish, num_buckets, "pandas")


def grouped_agg(ds, keys, specs, num_buckets: int = 32):
    """Generalized grouped aggregate with map-side combine: ``specs`` maps
    output column → ``(kind, col)`` with kind in ``sum | min | max |
    concat`` (``concat`` takes ``(kind, col, sep)``), plus the implicit
    group count ``n``. One Arrow C++ ``group_by`` per batch emits the
    partials for EVERY requested aggregate at once — sum/min/max move one
    row per (key, batch); ``concat`` lists every value (the irreducible
    cost of concatenation) — then one bucketed exchange and one pandas
    finish. Nulls are skipped by every kind (SQL/SPARQL aggregate
    semantics): an all-null group's sum/min/max is NULL (pass
    ``("sum", col, "int64")`` for a nullable-Int64 exact-integer sum),
    its concat is the empty string. ``concat`` values
    are SORTED before joining — SPARQL leaves GROUP_CONCAT order
    unspecified and sorted is the only layout-invariant deterministic
    choice (mirror with ``string_agg(v, sep ORDER BY v)`` in SQL)."""
    from itertools import chain

    keys = list(keys)
    specs = dict(specs)
    kind_map = {"sum": "sum", "min": "min", "max": "max", "concat": "list"}

    def partial(batch: pa.Table) -> pa.Table:
        cols = {k: batch[k] for k in keys}
        aggs = []
        for i, (out, spec) in enumerate(specs.items()):
            kind, col = spec[0], spec[1]
            c = batch[col]
            if kind == "concat":  # GROUP_CONCAT casts operands to string
                c = pc.cast(c, pa.string())
            cols[f"_a{i}"] = c
            aggs.append((f"_a{i}", kind_map[kind]))
        out = pa.table(cols).group_by(keys).aggregate(
            aggs + [([], "count_all")])
        return out.rename_columns(keys + list(specs) + ["n"])

    partials = map_rel(map_rel(ds, partial),
                       lambda b: add_key_bucket(b, keys, num_buckets))

    def finish(g):
        gb = g.groupby(keys, sort=False, dropna=False)
        parts = {}
        for out, spec in specs.items():
            kind = spec[0]
            if kind == "sum":
                s = gb[out].sum(min_count=1)  # all-null group → NULL, not 0
                # int64 partials with nulls reach pandas as float64, so the
                # exact-integer discipline needs the CALLER's type intent:
                # ("sum", col, "int64") restores a nullable Int64 result
                if len(spec) > 2 and spec[2] == "int64":
                    s = s.astype("Int64")
                parts[out] = s
            elif kind in ("min", "max"):
                parts[out] = getattr(gb[out], kind)()
            else:  # concat: merge the per-batch value lists, sort, join
                sep = spec[2] if len(spec) > 2 else " "
                parts[out] = gb[out].agg(
                    lambda s, sep=sep: sep.join(sorted(
                        x for x in chain.from_iterable(s) if x is not None)))
        parts["n"] = gb["n"].sum().astype("int64")
        import pandas as pd

        return pd.concat(parts, axis=1).reset_index()

    return bucket_shuffle(partials, finish, num_buckets, "pandas")


def grouped_pivot(ds, key: str, pred_col: str, val_col: str,
                  categories: dict[str, str], num_buckets: int = 32):
    """Pivot long (key, pred, value) rows into ONE wide row per key — the
    KG property-table materialization (triple store → entity table), SQL
    ``max(CASE WHEN pred = c THEN value END)`` per category.

    ``categories`` maps output column name → predicate value. Per batch,
    each category becomes a masked value column (``if_else`` keeps Arrow
    vectorized; rows with other predicates turn null) and one Arrow C++
    ``group_by(key).max`` collapses the batch to ≤1 wide partial row per
    key — so the single shuffle moves wide partials, never triples. A
    bucketed Arrow ``max`` finishes: when (key, pred) is unique (the
    property-table case) max IS the value; duplicate predicates tie-break
    deterministically and SQL-mirrorably. Keys missing a category emit a
    typed null, matching the SQL CASE."""
    import pyarrow.compute as pc

    names = list(categories)

    def partial(batch: pa.Table) -> pa.Table:
        cols = {key: batch[key]}
        for name in names:
            cols[name] = pc.if_else(
                pc.equal(batch[pred_col], categories[name]),
                batch[val_col], pa.scalar(None, batch[val_col].type))
        t = pa.table(cols)
        out = t.group_by([key]).aggregate([(n, "max") for n in names])
        # rebuild BY NAME — pyarrow's group_by column order (key first vs
        # aggregates first) has flipped across releases; a positional
        # rename would silently swap key and value columns on a bump
        return pa.table({key: out[key],
                         **{n: out[f"{n}_max"] for n in names}})

    partials = ds.map_batches(partial, batch_format="pyarrow").map_batches(
        lambda b: add_key_bucket(b, [key], num_buckets), batch_format="pyarrow"
    )

    def finish(g: pa.Table) -> pa.Table:
        # Arrow finish: pandas object-max raises on str/NaN mixes (a key
        # missing a category in one partial but not another); Arrow max
        # skips nulls with the value type preserved. Single key column →
        # no bool-before-string group_by hazard.
        out = g.drop_columns(["_bucket"]).group_by([key]).aggregate(
            [(n, "max") for n in names])
        return pa.table({key: out[key],  # by-name rebuild, see partial()
                         **{n: out[f"{n}_max"] for n in names}})

    return bucket_shuffle(partials, finish, num_buckets)


def unpivot_batch(batch: pa.Table, key: str, value_cols: dict[str, str],
                  pred_col: str = "pred", val_col: str = "obj") -> pa.Table:
    """Inverse of :func:`grouped_pivot` — wide→long (UNPIVOT): each wide
    row explodes into one (key, pred, value) row per NON-NULL category
    column. Stateless zero-shuffle map kernel, pure Arrow (concat of
    per-column slices — no per-row Python). ``value_cols`` maps wide
    column name → emitted predicate value."""
    import pyarrow.compute as pc

    keys_out, preds_out, vals_out = [], [], []
    for col, pred in value_cols.items():
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        mask = pc.is_valid(arr)
        k = batch[key]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        keys_out.append(k.filter(mask))
        n = int(pc.sum(mask).as_py() or 0)
        preds_out.append(pa.array([pred] * n, pa.string()))
        vals_out.append(arr.filter(mask))
    return pa.table({key: pa.concat_arrays(keys_out),
                     pred_col: pa.concat_arrays(preds_out),
                     val_col: pa.concat_arrays(vals_out)})
