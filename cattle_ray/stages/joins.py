"""J2 generalized: co-partitioned joins that need no broadcast side.

Pattern (ray_guide "Joins and lookups"): both sides gain
``_bucket = hash(key) % B``, are tagged and unioned, and one
:func:`~.exchange.bucket_shuffle` co-locates matching keys; the per-reducer
join (Arrow or pandas) is vectorized. One shuffle total, no driver-side
materialization of either side. The exchange sizes its reducer count to
the data (``num_buckets`` is the cap), so a reducer joins a UNION of
buckets — correct because equal keys always share a bucket. Skewed keys:
raise ``num_buckets`` (hot keys still co-locate, but a bucket holds fewer
cold keys alongside them).

- :func:`hash_join` — equi join (inner/left).
- :func:`asof_join` — per-key as-of (backward) join via ``pd.merge_asof``
  within buckets (the SURVEY.md §2 "custom operator" class: Ray Data has no
  native as-of join). Partitioning assumption: all rows of one key land in
  one bucket (guaranteed by hashing the key).

The two sides travel through ONE union Dataset (tag column ``_side``), so
the join costs a single shuffle; schemas are rectangularized by the
union (each side's missing columns are null) and re-split per bucket using
the sides' recorded column lists.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import as_dataset, bucket_shuffle, fits, map_rel

try:  # baked into the environment; pandas fallback keeps imports working
    import polars as _pl
except ImportError:  # pragma: no cover
    _pl = None


def _route_hash64(values) -> np.ndarray:
    """Vectorized 64-bit ROUTING hash (bucket assignment only — join
    equality is always re-checked on real key values downstream, so the
    hash family is free to vary per environment as long as it is
    consistent within one job). Arrow arrays go zero-copy into polars'
    parallel xxhash (~29× faster than ``hash_pandas_object``'s per-object
    path on strings); numpy object arrays convert first; pandas fallback
    when polars is absent."""
    if _pl is not None:
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        if isinstance(values, pa.Array):
            s = _pl.from_arrow(values)
        else:  # numpy / list of python objects
            s = _pl.Series(values)
        return s.hash(seed=0).to_numpy()
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = values.to_pandas()
    else:
        values = pd.Series(values, dtype="object")
    return pd.util.hash_pandas_object(
        values, index=False).to_numpy().astype(np.uint64)


def _key_buckets(col, num_buckets: int) -> np.ndarray:
    """Key-type-aware shuffle bucket: integer keys bucket by value (cheap,
    preserves the old behavior), everything else (string/binary/float/…) by a
    VECTORIZED 64-bit hash (``hash_pandas_object``) — so joining/sessionizing
    on e.g. a ``url`` column just works instead of raising a numpy cast
    error. Always returns non-negative int64."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type) or pa.types.is_boolean(col.type):
        # cast FIRST (fill_null(0) on a bool array raises ArrowInvalid),
        # then fill: the int-typed fill keeps to_numpy integer-typed —
        # with nulls present it would fall back to float64, where valid
        # values cast stably but the NULL rows' NaN cast is not defined
        k = pc.fill_null(pc.cast(col, pa.int64()), 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return k % num_buckets  # numpy % yields non-negative for positive divisor
    h = _route_hash64(col)
    return (h % np.uint64(num_buckets)).astype(np.int64)


def _as_keys(key) -> list:
    return [key] if isinstance(key, str) else list(key)


_HASH_NULL = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constant schedule)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _col_hash64(col) -> np.ndarray:
    """Per-column 64-bit hash that is stable under NULL-driven dtype
    promotion: an int64 Arrow column converts to float64 pandas when the
    batch happens to contain a null, so hashing the ``to_pandas`` frame
    directly gives the SAME key different buckets in different batches
    (1 hashes as int64 in one batch, as 1.0 float64 in another) — rows
    that should co-locate silently miss the join. Integers/bools hash
    from their int64 values (null-filled, then the mask overwrites);
    everything else through ``hash_pandas_object`` per column (dtype
    stable for string/float/binary); nulls always map to one constant."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    nulls = pc.is_null(col).to_numpy(zero_copy_only=False)
    if pa.types.is_integer(col.type) or pa.types.is_boolean(col.type):
        # cast before fill: fill_null(0) on a bool array raises
        v = pc.fill_null(pc.cast(col, pa.int64()), 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        h = _splitmix64(v.view(np.uint64))
    else:
        h = _route_hash64(col)
    if nulls.any():
        h = np.where(nulls, _HASH_NULL, h)
    return h


def _key_buckets_multi(batch: pa.Table, keys: list, num_buckets: int) -> np.ndarray:
    """Composite-key shuffle bucket: single keys keep the type-aware fast
    path; multi-column keys combine per-column :func:`_col_hash64` hashes
    positionally (name-independent, value+position dependent — so
    differently-named key lists on the two sides still co-bucket, and a
    batch-local null in one column cannot re-bucket other rows)."""
    if len(keys) == 1:
        return _key_buckets(batch[keys[0]], num_buckets)
    h = _col_hash64(batch[keys[0]])
    for k in keys[1:]:
        h = _splitmix64(h * np.uint64(0x100000001B3) + _col_hash64(batch[k]))
    return (h % np.uint64(num_buckets)).astype(np.int64)


def _with_bucket_and_tag(ds, key, tag: int, num_buckets: int,
                         combined: "pa.Schema"):
    """Pad this side's batches to the COMBINED schema (other side's columns
    as typed nulls) — Ray's union does not rectangularize differing schemas,
    so we make both sides schema-identical before it."""
    keys = _as_keys(key)

    def f(batch: pa.Table) -> pa.Table:
        bucket = _key_buckets_multi(batch, keys, num_buckets)
        n = len(batch)
        arrays = []
        for field in combined:
            if field.name in batch.column_names:
                col = batch[field.name]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                arrays.append(col)
            else:
                arrays.append(pa.nulls(n, field.type))
        out = pa.Table.from_arrays(arrays, schema=combined)
        return out.append_column("_bucket", pa.array(bucket)).append_column(
            "_side", pa.array(np.full(n, tag, dtype=np.int8))
        )

    return map_rel(ds, f)


def _combined_schema(left_ds, right_ds, left_schema=None,
                     right_schema=None) -> "pa.Schema":
    ls = _arrow_schema_of(left_ds, left_schema)
    rs = _arrow_schema_of(right_ds, right_schema)
    fields = [pa.field(n, _to_arrow_type(t)) for n, t in zip(ls.names, ls.types)]
    seen = set(ls.names)
    for n, t in zip(rs.names, rs.types):
        t = _to_arrow_type(t)
        if n not in seen:
            fields.append(pa.field(n, t))
        elif not any(f.name == n and f.type == t for f in fields):
            raise ValueError(
                f"join sides share column {n!r} with different types; rename first"
            )
    return pa.schema(fields)


_PY_TO_ARROW = {
    bytes: pa.binary(), str: pa.string(), int: pa.int64(),
    float: pa.float64(), bool: pa.bool_(),
    # pandas blocks report string columns as dtype('O') / object
    object: pa.string(),
}


def _to_arrow_type(t):
    """Ray ``Dataset.schema().types`` entries are Arrow DataTypes for Arrow
    blocks but numpy dtypes / Python types for pandas blocks — normalize."""
    if isinstance(t, pa.DataType):
        return t
    if isinstance(t, np.dtype):
        return pa.from_numpy_dtype(t)
    if t in _PY_TO_ARROW:
        return _PY_TO_ARROW[t]
    raise TypeError(f"cannot map column type {t!r} to Arrow")


def _arrow_schema_of(ds, schema=None) -> "pa.Schema":
    """The side's Arrow schema: the caller-provided one when given (a
    plan-known schema skips ``ds.schema()`` — which on a lazy, possibly
    EMPTY stream either executes upstream work or returns None and
    crashes the join; the BGP fold threads its all-string binding
    schemas this way instead of pinning every stream with a seed-union
    anchor, which measured ~2× on the whole store-eval at toy scale),
    else inferred from the dataset."""
    if schema is not None:
        return schema
    if isinstance(ds, pa.Table):
        return ds.schema
    s = ds.schema()
    return pa.schema(
        [pa.field(n, _to_arrow_type(t)) for n, t in zip(s.names, s.types)])


def _side_columns(ds, schema=None):
    """(column names, pandas dtype map) for one side — used to restore dtypes
    after the union pads the other side's rows with NaN (int64 → float64)."""
    arrow_schema = _arrow_schema_of(ds, schema)
    dtypes = arrow_schema.empty_table().to_pandas().dtypes.to_dict()
    return list(arrow_schema.names), dtypes


def _union_buckets(left_ds, right_ds, left_key, right_key, num_buckets,
                   left_schema=None, right_schema=None):
    """Both sides tagged, bucketed and unioned — plus a 0-row block of the
    tagged schema, so a join whose sides are BOTH empty still finishes on
    a typed table (``map_batches`` turns an empty block into a zero-column
    one) and returns its typed 0-row result. Two sides that both
    :func:`~.exchange.fits` stay one driver-held Table."""
    combined = _combined_schema(left_ds, right_ds, left_schema,
                                right_schema)
    l = _with_bucket_and_tag(left_ds, left_key, 0, num_buckets, combined)
    r = _with_bucket_and_tag(right_ds, right_key, 1, num_buckets, combined)
    seed = combined.append(pa.field("_bucket", pa.int64())) \
        .append(pa.field("_side", pa.int8())).empty_table()
    if fits(l) and fits(r):
        return pa.concat_tables([seed, l, r])
    import ray.data as rd

    return rd.from_blocks([seed]).union(as_dataset(l), as_dataset(r))


def _split_sides(g: pa.Table, left_side, right_side):
    """Split a union-bucket group back into its two sides IN ARROW, selecting
    each side's own columns BEFORE any pandas conversion. Converting the
    padded table first would turn int64 columns with padding nulls into
    float64 — silently corrupting keys above 2^53 (e.g. 64-bit hash ids):
    distinct ids collapse and joins misroute rows."""
    left_cols, _ = left_side
    right_cols, _ = right_side
    l = g.filter(pc.equal(g["_side"], 0)).select(left_cols).to_pandas()
    r = g.filter(pc.equal(g["_side"], 1)).select(right_cols).to_pandas()
    return l, r


class _BloomFilter:
    """Minimal double-hash Bloom filter over int/str keys (numpy bitset).
    For semi/anti joins whose key set is too large to broadcast exactly:
    false positives only (a semi join may keep, an anti join may drop, a
    stray row) — callers needing exactness use the exact-set path."""

    def __init__(self, n_items: int, fp_rate: float = 0.01):
        m = max(64, int(-n_items * np.log(fp_rate) / (np.log(2) ** 2)))
        self.m = m
        self.k = max(1, int(m / max(1, n_items) * np.log(2)))
        self.bits = np.zeros((m + 63) // 64, dtype=np.uint64)

    @staticmethod
    def _hash(keys: np.ndarray, seed: int) -> np.ndarray:
        h = keys.astype(np.uint64) ^ np.uint64(seed * 0x9E3779B97F4A7C15 & (2**64 - 1))
        h ^= h >> np.uint64(33)
        with np.errstate(over="ignore"):
            h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        return h

    def add(self, keys: np.ndarray):
        for s in range(self.k):
            idx = self._hash(keys, s + 1) % np.uint64(self.m)
            np.bitwise_or.at(self.bits, (idx >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (idx & np.uint64(63)))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        out = np.ones(len(keys), dtype=bool)
        for s in range(self.k):
            idx = self._hash(keys, s + 1) % np.uint64(self.m)
            word = self.bits[(idx >> np.uint64(6)).astype(np.int64)]
            out &= (word >> (idx & np.uint64(63))) & np.uint64(1) != 0
        return out


def _hash_keys_u64(arr: np.ndarray) -> np.ndarray:
    """64-bit key values for Bloom hashing. Object (string) arrays hash via
    vectorized ``hash_pandas_object`` — full 64-bit entropy (the previous
    crc32 path floored the Bloom fp-rate at n/2³² and saturated near 4B
    keys) and no per-row Python."""
    if arr.dtype == object:
        return _route_hash64(arr)
    return arr.astype(np.uint64)


def build_bloom(keys_ds, col: str, fp_rate: float, n_keys: int | None = None):
    """Streaming Bloom-filter build over a Dataset column: batches of 8-byte
    hashes flow through the driver, only the bitset stays resident. Shared
    by :func:`semi_join`'s approximate path and
    :func:`cattle_ray.stages.dedup.dedup_against_store`'s prefilter."""
    n = keys_ds.count() if n_keys is None else n_keys
    bf = _BloomFilter(max(n, 1), fp_rate)
    hashed = keys_ds.map_batches(
        lambda b: pa.table({"h": pa.array(_hash_keys_u64(
            b[col].to_numpy(zero_copy_only=False)))}),
        batch_format="pyarrow",
    )
    for chunk in hashed.iter_batches(batch_format="pyarrow", batch_size=65536):
        bf.add(chunk["h"].to_numpy(zero_copy_only=False))
    return bf


def semi_join(ds, keys_ds, left_on: str, right_on: str, *, anti: bool = False,
              use_bloom: bool = False, fp_rate: float = 0.01,
              max_broadcast_keys: int = 2_000_000, num_buckets: int = 32):
    """Semi (keep matches) / anti (keep non-matches) join.

    Path selection:

    - ``use_bloom=True``: approximate Bloom filter (false positives only:
      a semi join may keep / an anti join may drop a stray row). The filter
      is built STREAMING — ``iter_batches`` over pre-hashed uint64 keys, so
      driver memory is the filter's bitset, never the key set.
    - key side ≤ ``max_broadcast_keys``: the guide's broadcast pattern — keys
      collected ONCE as an Arrow array, ``ray.put``, filtered inside
      map_batches with vectorized ``pc.is_in``. No shuffle.
    - larger, exact: fully distributed — both sides tagged + bucketed on the
      key, one groupby shuffle, per-bucket vectorized ``isin`` filter
      (:func:`semi_join_distributed`). Use this when exactness matters at
      scale (e.g. corpus dedup drop-lists with billions of ids).
    """
    import ray

    keys_sel = keys_ds.map_batches(
        lambda b: b.select([right_on]), batch_format="pyarrow"
    ).materialize()  # consumed twice: count() for path selection + the build
    if use_bloom:
        bf = build_bloom(keys_sel, right_on, fp_rate)
        ref = ray.put(bf)

        def filt(batch: pa.Table) -> pa.Table:
            f = ray.get(ref)
            vals = _hash_keys_u64(batch[left_on].to_numpy(zero_copy_only=False))
            m = f.contains(vals)
            return batch.filter(pa.array(~m if anti else m))

        return ds.map_batches(filt, batch_format="pyarrow")

    n_keys = keys_sel.count()
    if n_keys == 0:
        # empty key side: anti keeps everything, semi keeps nothing —
        # (an empty Dataset also loses its schema through to_pandas, so
        # the broadcast build below would KeyError)
        if anti:
            return ds
        return ds.map_batches(lambda b: b.slice(0, 0), batch_format="pyarrow")

    if n_keys <= max_broadcast_keys:
        keys = pa.Table.from_pandas(keys_sel.to_pandas())[right_on].combine_chunks()
        ref = ray.put(keys)

        def filt(batch: pa.Table) -> pa.Table:
            m = pc.is_in(batch[left_on], value_set=ray.get(ref))
            return batch.filter(pc.invert(m) if anti else m)

        return ds.map_batches(filt, batch_format="pyarrow")

    return semi_join_distributed(ds, keys_sel, left_on, right_on, anti=anti,
                                 num_buckets=num_buckets)


def semi_join_distributed(ds, keys_ds, left_on: str, right_on: str, *,
                          anti: bool = False, num_buckets: int = 32):
    """Exact distributed semi/anti join: one bucketed shuffle, no
    driver-side key collection at any point. Per bucket the filter is a
    vectorized pandas ``isin`` of left keys against the bucket's right keys
    (all occurrences of a key land in one bucket by construction)."""
    keys_only = keys_ds.map_batches(
        lambda b: b.select([right_on]), batch_format="pyarrow"
    )
    unioned = _union_buckets(ds, keys_only, left_on, right_on, num_buckets)
    left_cols, _ = _side_columns(ds)

    def filter_bucket(g: pa.Table) -> pd.DataFrame:
        # Arrow-side split before pandas: see _split_sides (64-bit key safety)
        l = g.filter(pc.equal(g["_side"], 0)).select(left_cols).to_pandas()
        rkeys = g.filter(pc.equal(g["_side"], 1)).select([right_on]).to_pandas()[right_on].unique()
        m = l[left_on].isin(rkeys)
        return l[~m if anti else m]

    return bucket_shuffle(unioned, filter_bucket, num_buckets)


def hash_join(left_ds, right_ds, left_on, right_on, how: str = "inner",
              num_buckets: int = 32, left_schema=None, right_schema=None):
    """Co-partitioned equi join; ``left_on``/``right_on`` may be a single
    column or a LIST (composite key — the value tuple hashes to one bucket,
    so all machinery below is unchanged). Column collisions follow pandas
    suffix rules (left unsuffixed, right ``_r``). Output blocks carry an
    EXPLICIT Arrow schema (pandas merge results otherwise degrade bytes/str
    columns to ``object`` dtype, which breaks schema propagation into
    chained joins); with ``how="left"`` the right side's integer columns
    become float64 (NaN for unmatched rows).

    NULL-key contract (SQL semantics, uniform across BOTH execution
    paths): a NULL join key never matches anything. Inner joins drop
    null-keyed rows from both sides; ``how="left"``/``"right"`` drop them
    from the probe side only, so preserved-side rows with null keys come
    out unmatched (exactly like DuckDB). Without the explicit filter the
    pandas fallback would match NaN↔NaN, making results depend on which
    execution path the key-name shape selects. For SQL-correct FULL outer
    semantics use :func:`full_outer_join` (``how="outer"`` here inherits
    pandas NaN-matching).

    Either side may be a driver-held ``pa.Table``: when both
    :func:`~.exchange.fits`, the join runs in process (same tagging and
    ``join_bucket``) and returns a Table; otherwise both run as Datasets."""
    if not (fits(left_ds) and fits(right_ds)):
        left_ds, right_ds = as_dataset(left_ds), as_dataset(right_ds)
    left_side = _side_columns(left_ds, left_schema)
    right_side = _side_columns(right_ds, right_schema)
    out_schema = _join_out_schema(left_ds, right_ds, left_on, right_on, how,
                                  left_schema, right_schema)
    unioned = _union_buckets(left_ds, right_ds, left_on, right_on, num_buckets,
                             left_schema, right_schema)
    lkeys, rkeys = _as_keys(left_on), _as_keys(right_on)

    # INNER joins run pure Arrow per bucket (pyarrow Table.join): measured
    # 3-16× faster than the pandas merge on high-multiplicity int64 joins
    # (5M-row wedge bucket: 0.17 s vs 2.7-9 s incl. conversions), zero
    # pandas round-trip on the payload, typed nulls preserved. NULL join
    # keys don't match on this path — SQL/DuckDB semantics (pandas merge
    # matches NaN↔NaN, which no oracle-checked caller can have relied on
    # without already diverging from its oracle). Arrow's coalesce_keys is
    # all-or-nothing, so key lists that MIX equal and differing names fall
    # back to the pandas path (pandas merges per position).
    arrow_ok = how == "inner" and (
        lkeys == rkeys or not set(lkeys) & set(rkeys))

    if arrow_ok:
        left_cols, _ = left_side
        right_cols, _ = right_side
        coalesce = lkeys == rkeys

        def join_bucket(g: pa.Table) -> pa.Table:
            l = g.filter(pc.equal(g["_side"], 0)).select(left_cols) \
                .combine_chunks()
            r = g.filter(pc.equal(g["_side"], 1)).select(right_cols) \
                .combine_chunks()
            out = l.join(r, keys=lkeys, right_keys=rkeys, join_type="inner",
                         right_suffix="_r", coalesce_keys=coalesce)
            return out.select(list(out_schema.names)).cast(out_schema) \
                .combine_chunks()

        return bucket_shuffle(unioned, join_bucket, num_buckets)

    import functools

    # which sides get their null-keyed rows dropped (docstring contract)
    drop_left_nulls = how in ("inner", "right")
    drop_right_nulls = how in ("inner", "left")

    def join_bucket(g: pa.Table) -> pa.Table:
        # filter null keys IN ARROW, before _split_sides' to_pandas — a
        # genuinely-null int64 key column would otherwise land in pandas
        # as float64 and corrupt ids above 2^53
        side = g["_side"]
        keep = None
        if drop_left_nulls:
            lvalid = functools.reduce(
                pc.and_, [pc.is_valid(g[k]) for k in lkeys])
            keep = pc.or_(pc.not_equal(side, 0), lvalid)
        if drop_right_nulls:
            rvalid = functools.reduce(
                pc.and_, [pc.is_valid(g[k]) for k in rkeys])
            rkeep = pc.or_(pc.not_equal(side, 1), rvalid)
            keep = rkeep if keep is None else pc.and_(keep, rkeep)
        if keep is not None:
            g = g.filter(keep)
        l, r = _split_sides(g, left_side, right_side)
        out = l.merge(r, left_on=left_on, right_on=right_on, how=how,
                      suffixes=("", "_r"))
        return pa.Table.from_pandas(
            out[list(out_schema.names)], schema=out_schema, preserve_index=False
        )

    return bucket_shuffle(unioned, join_bucket, num_buckets)


def cogroup_left(sides, num_buckets: int = 32, post_fn=None):
    """K-way co-grouped LEFT join in ONE shuffle. Chaining N-1
    ``hash_join`` calls pays N-1 all-to-all exchanges over the SAME key;
    here every side is bucketed by its key and tagged into a single union
    Dataset, so all sides co-locate in one exchange — the "pick ONE
    partitioning key and reuse it across stages" discipline as an
    operator.

    ``sides`` = list of ``(ds, key, finish_fn | None)``. Side 0 is the
    dimension side kept in full (left-join semantics); each later side
    attaches its non-key columns (its key column is dropped after the
    merge when named differently; overlapping non-key names must be
    pre-renamed). ``finish_fn`` (pandas df → df), when given, collapses a
    side's MAP-SIDE PARTIALS inside the bucket (e.g. summing partial
    aggregates) — the partial-agg + cogroup combo means fact tables cross
    the shuffle as one row per (key, batch), never as facts. ``post_fn``
    runs on each bucket's merged frame (e.g. COALESCE fills), so output
    blocks leave with uniform dtypes. Keys on later sides should be
    unique after ``finish_fn`` (attachment semantics); unmatched left
    rows keep NaN attachments unless ``post_fn`` fills them."""
    from .aggregates import coalesce_small

    # combined schema across all sides (pairwise union of fields)
    fields, seen = [], {}
    for ds, _k, _f in sides:
        s = ds.schema()
        for n, t in zip(s.names, s.types):
            t = _to_arrow_type(t)
            if n not in seen:
                seen[n] = t
                fields.append(pa.field(n, t))
            elif seen[n] != t:
                raise ValueError(
                    f"cogroup sides share column {n!r} with different "
                    f"types; rename first")
    combined = pa.schema(fields)

    side_cols = [_side_columns(ds) for ds, _k, _f in sides]
    tagged = [_with_bucket_and_tag(ds, k, i, num_buckets, combined)
              for i, (ds, k, _f) in enumerate(sides)]
    unioned = tagged[0]
    for t in tagged[1:]:
        unioned = unioned.union(t)
    unioned = coalesce_small(unioned)

    keys = [_as_keys(k) for _ds, k, _f in sides]
    finishes = [f for _ds, _k, f in sides]

    def merge_bucket(g: pa.Table) -> pd.DataFrame:
        # Arrow-side split per side BEFORE pandas (64-bit key safety,
        # same rule as _split_sides)
        frames = []
        for i, (cols, _dt) in enumerate(side_cols):
            df = g.filter(pc.equal(g["_side"], i)).select(cols).to_pandas()
            if finishes[i] is not None:
                df = finishes[i](df)
            frames.append(df)
        out = frames[0]
        for i in range(1, len(frames)):
            out = out.merge(frames[i], left_on=keys[0], right_on=keys[i],
                            how="left", suffixes=("", f"_s{i}"))
            for kc in keys[i]:
                if kc not in keys[0] and kc in out.columns:
                    out = out.drop(columns=[kc])
        return post_fn(out) if post_fn is not None else out

    # stays on the sort shuffle: the caller's finish_fn/post_fn promise
    # per-bucket correctness only, not correctness over a union of buckets
    return unioned.groupby("_bucket").map_groups(
        merge_bucket, batch_format="pyarrow")


def full_outer_join(left_ds, right_ds, left_on, right_on,
                    num_buckets: int = 32):
    """Co-partitioned FULL OUTER equi join — the join type the pandas-merge
    path can't do safely: unmatched rows on EITHER side would null-pad int64
    columns through pandas and corrupt 64-bit ids (see :func:`_split_sides`).
    Here each bucket joins with ``pyarrow.Table.join("full outer")`` — pure
    Arrow end to end, unmatched rows carry typed nulls, int64 stays int64.

    Same single union-bucket shuffle as :func:`hash_join`; a key hashes to
    one bucket on both sides, so per-reducer full outer composes to the
    global full outer (a row unmatched in its reducer is unmatched
    globally).
    The key columns coalesce into ONE output column named after
    ``left_on`` (Arrow ``coalesce_keys``) — non-null for every row
    whichever side matched. Right-side name collisions get the ``_r``
    suffix."""
    left_cols, _ = _side_columns(left_ds)
    right_cols, _ = _side_columns(right_ds)
    lkeys, rkeys = _as_keys(left_on), _as_keys(right_on)
    unioned = _union_buckets(left_ds, right_ds, left_on, right_on, num_buckets)

    def join_bucket(g: pa.Table) -> pa.Table:
        l = g.filter(pc.equal(g["_side"], 0)).select(left_cols).combine_chunks()
        r = g.filter(pc.equal(g["_side"], 1)).select(right_cols).combine_chunks()
        return l.join(r, keys=lkeys, right_keys=rkeys,
                      join_type="full outer", right_suffix="_r",
                      coalesce_keys=True).combine_chunks()

    return bucket_shuffle(unioned, join_bucket, num_buckets)


def _join_out_schema(left_ds, right_ds, left_on, right_on,
                     how: str, left_schema=None,
                     right_schema=None) -> pa.Schema:
    """Output schema of a pandas-suffix-rule equi join (left unsuffixed,
    right ``_r``; equal-named keys merge; left-join ints become float64)."""
    lkeys, rkeys = _as_keys(left_on), _as_keys(right_on)
    merged_right = {r for l, r in zip(lkeys, rkeys) if l == r}
    l_schema = _arrow_schema_of(left_ds, left_schema)
    r_schema = _arrow_schema_of(right_ds, right_schema)
    l_schema = pa.schema(
        [pa.field(n, _to_arrow_type(t)) for n, t in
         zip(l_schema.names, l_schema.types)]
    )
    r_schema = pa.schema(
        [pa.field(n, _to_arrow_type(t)) for n, t in
         zip(r_schema.names, r_schema.types)]
    )
    out_fields = list(l_schema)
    left_names = set(l_schema.names)
    for f in r_schema:
        if f.name in merged_right:
            continue  # pandas merges equal-named keys into one column
        t = f.type
        if how == "left" and pa.types.is_integer(t):
            t = pa.float64()
        name = f.name if f.name not in left_names else f.name + "_r"
        out_fields.append(pa.field(name, t))
    return pa.schema(out_fields)


def skew_aware_join(left_ds, right_ds, left_on: str, right_on: str,
                    num_buckets: int = 32, hot_key_threshold: float = 0.05,
                    sample_size: int = 100_000):
    """Inner equi join with EXPLICIT hot-key handling: a plain co-partitioned
    join sends every row of a hot key to one bucket — at web scale one hub
    entity (a top domain, a mega-popular entity URI) can be 10%+ of the fact
    side and OOM its reducer. Plan:

    1. sample the left side (bounded ``sample_size`` rows) and mark keys
       whose sampled share ≥ ``hot_key_threshold`` as HOT;
    2. cold rows → the normal bucketed :func:`hash_join`;
    3. hot rows → the right side's matching rows (a small set: hot keys are
       FEW by definition) are broadcast via ``ray.put`` and map-side joined —
       no hot row ever crosses a shuffle;
    4. union of both results.

    Same output schema/columns as :func:`hash_join` (inner). With no hot
    keys detected this degrades to exactly ``hash_join``.
    """
    import ray

    # inputs are consumed by multiple branches (sample + cold + hot / cold +
    # hot-right): materialize once so upstream pipelines don't re-execute
    left_ds = left_ds.materialize()
    right_ds = right_ds.materialize()
    # SCATTERED sample — a head slice from EVERY block, not the first
    # sample_size rows: a dataset clustered by key would otherwise hide a
    # hot key living past the head and silently defeat the detection
    sample = left_ds.map_batches(
        lambda b: b.select([left_on]).slice(0, max(64, sample_size // 256)),
        batch_format="pyarrow",
    ).limit(sample_size).to_pandas()
    counts = sample[left_on].value_counts(normalize=True)
    hot = counts[counts >= hot_key_threshold].index.tolist()
    if not hot:
        return hash_join(left_ds, right_ds, left_on, right_on,
                         num_buckets=num_buckets)

    hot_arr = pa.array(hot)
    hot_ref = ray.put(hot_arr)

    def split(batch: pa.Table, keep_hot: bool) -> pa.Table:
        m = pc.is_in(batch[left_on], value_set=ray.get(hot_ref))
        return batch.filter(m if keep_hot else pc.invert(m))

    cold = left_ds.map_batches(lambda b: split(b, False), batch_format="pyarrow")
    cold_joined = hash_join(cold, right_ds, left_on, right_on,
                            num_buckets=num_buckets)

    # right rows for the hot keys: small by construction → broadcast
    hot_right = right_ds.map_batches(
        lambda b: b.filter(pc.is_in(b[right_on], value_set=ray.get(hot_ref))),
        batch_format="pyarrow",
    ).to_pandas()
    hr_ref = ray.put(hot_right)
    out_schema = _join_out_schema(left_ds, right_ds, left_on, right_on, "inner")

    def hot_join(batch: pa.Table) -> pa.Table:
        l = split(batch, True).to_pandas()
        r = ray.get(hr_ref)
        out = l.merge(r, left_on=left_on, right_on=right_on, how="inner",
                      suffixes=("", "_r"))
        return pa.Table.from_pandas(out[list(out_schema.names)],
                                    schema=out_schema, preserve_index=False)

    hot_joined = left_ds.map_batches(hot_join, batch_format="pyarrow")
    return cold_joined.union(hot_joined)


def asof_join(left_ds, right_ds, *, left_on: str, right_on: str, left_by: str,
              right_by: str, direction: str = "backward", num_buckets: int = 32):
    """Per-key as-of join: for each left row, the right row with the greatest
    ``right_on`` ≤ ``left_on`` (direction='backward') among rows with
    matching by-key. Right columns keep their names (``_r`` on collision)."""
    left_side, right_side = _side_columns(left_ds), _side_columns(right_ds)
    unioned = _union_buckets(left_ds, right_ds, left_by, right_by, num_buckets)

    def join_bucket(g: pa.Table) -> pd.DataFrame:
        l, r = _split_sides(g, left_side, right_side)
        if l.empty:
            out = pd.merge_asof(
                l.sort_values(left_on), r.sort_values(right_on).head(0),
                left_on=left_on, right_on=right_on, left_by=left_by,
                right_by=right_by, direction=direction, suffixes=("", "_r"),
            )
            return out
        l = l.sort_values(left_on, kind="mergesort")
        r = r.sort_values(right_on, kind="mergesort")
        return pd.merge_asof(
            l, r, left_on=left_on, right_on=right_on, left_by=left_by,
            right_by=right_by, direction=direction, suffixes=("", "_r"),
        )

    return bucket_shuffle(unioned, join_bucket, num_buckets)


def interval_join(ds, intervals, value_col: str, lo_col: str = "lo",
                  hi_col: str = "hi", how: str = "inner"):
    """Broadcast RANGE join: match each row's ``value_col`` to the single
    sorted, non-overlapping interval ``[lo, hi)`` containing it and attach
    that interval's payload columns (tiering, bucketing by SLA bands,
    calendar ranges). The classic non-equi join the equi machinery can't
    express — and precisely the case where a shuffle is WRONG: the interval
    table is dimension-sized, so it broadcasts once (``ray.put``) and every
    batch does one vectorized ``np.searchsorted`` (log m per row, zero
    shuffle). ``how="left"`` keeps non-matching rows with null payload.

    Intervals may be a pyarrow Table or pandas DataFrame. Overlapping
    intervals are rejected (ValueError) — with overlap "the" containing
    interval is ill-defined; disaggregate upstream instead.
    """
    import ray

    if isinstance(intervals, pa.Table):
        intervals = intervals.to_pandas()
    iv = intervals.sort_values(lo_col, kind="mergesort").reset_index(drop=True)
    lo = iv[lo_col].to_numpy()
    hi = iv[hi_col].to_numpy()
    if (hi[:-1] > lo[1:]).any() or (hi <= lo).any():
        raise ValueError("interval_join requires non-overlapping intervals "
                         "with lo < hi")
    payload_cols = [c for c in iv.columns if c not in (lo_col, hi_col)]
    payload = pa.Table.from_pandas(iv[payload_cols], preserve_index=False)
    ref = ray.put((lo, hi, payload))

    def attach(batch: pa.Table) -> pa.Table:
        lo_a, hi_a, pay = ray.get(ref)
        v = batch[value_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(lo_a, v, side="right") - 1
        ok = (idx >= 0) & (v < hi_a[np.clip(idx, 0, len(hi_a) - 1)])
        if how == "inner":
            batch = batch.filter(pa.array(ok))
            idx = idx[ok]
            take = pa.array(idx, pa.int64())
        else:  # left: null payload where unmatched
            take = pa.array(np.where(ok, idx, -1), pa.int64())
            take = pc.if_else(pc.equal(take, -1),
                              pa.array([None] * len(take), pa.int64()), take)
        out = batch
        for c in pay.column_names:
            out = out.append_column(c, pc.take(pay[c], take))
        return out

    return ds.map_batches(attach, batch_format="pyarrow")


def range_join_banded(left_ds, right_ds, *, left_key: str, right_key: str,
                      left_ts: str, right_ts: str, lo: int, hi: int,
                      num_buckets: int = 32):
    """Per-key temporal RANGE join: pair (l, r) matches when keys are equal
    and ``r[right_ts] - l[left_ts] ∈ (lo, hi]`` (int64 time units, ``0 ≤ lo
    < hi``) — event attribution, temporal co-occurrence, "followed within
    w" joins. A plain per-key equi join would cross-product every key's
    full history; here both sides band into width-``hi`` time buckets so a
    join group holds ONE (key, band) slice: the left row banded at
    ``⌊ts/hi⌋`` and ``⌊ts/hi⌋+1`` (a candidate at distance ≤ hi lands in
    one of the two), the right row at ``⌊ts/hi⌋`` only — each true pair
    meets in EXACTLY one band (the right band is a function of the right
    row), so no post-dedup. The exact range predicate filters inside the
    bucket. Group size is bounded by per-key traffic per ``hi``-window,
    never per-key history — skew-safe at corpus scale.

    Right columns keep their names (``_r`` suffix on collision, pandas
    rules via :func:`hash_join`'s machinery). Returns matching pairs only
    (inner).

    ``lo < 0`` (a window straddling zero, e.g. ``(-w, w]`` = "within w
    either way") widens the band to ``W = max(hi, -lo)`` and emits the
    left row into THREE bands (w−1, w, w+1): any pair with |Δ| ≤ W has
    band distance ∈ {−1, 0, +1}, and the right row still sits in exactly
    one band, so each true pair still meets exactly once."""
    if not (lo < hi and hi > 0):
        raise ValueError(f"range_join_banded needs lo < hi and hi > 0, "
                         f"got ({lo}, {hi})")
    band_w = max(hi, -lo)
    left_bands = (0, 1) if lo >= 0 else (-1, 0, 1)

    def _floor_band(ts: pa.Array) -> pa.Array:
        # FLOOR division, not Arrow's truncating int divide — a negative
        # timestamp (pre-epoch) truncates toward zero and lands one band
        # high, silently missing cross-epoch pairs
        v = ts.to_numpy(zero_copy_only=False)
        return pa.array(np.floor_divide(v, band_w), pa.int64())

    def band_left(b: pa.Table) -> pa.Table:
        ts = pc.cast(b[left_ts], pa.int64())
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        wk = _floor_band(ts)
        b = b.set_column(b.schema.get_field_index(left_ts), left_ts, ts)
        return pa.concat_tables([
            b.append_column("_wk", pc.add(wk, pa.scalar(d, pa.int64())))
            for d in left_bands
        ])

    def band_right(b: pa.Table) -> pa.Table:
        ts = pc.cast(b[right_ts], pa.int64())
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        b = b.set_column(b.schema.get_field_index(right_ts), right_ts, ts)
        return b.append_column("_wk", _floor_band(ts))

    lb = left_ds.map_batches(band_left, batch_format="pyarrow")
    rb = right_ds.map_batches(band_right, batch_format="pyarrow")
    joined = hash_join(lb, rb, [left_key, "_wk"], [right_key, "_wk"],
                       num_buckets=num_buckets)
    rts = right_ts if right_ts != left_ts else f"{right_ts}_r"

    def exact(b: pa.Table) -> pa.Table:
        delta = pc.subtract(b[rts], b[left_ts])
        keep = pc.and_(pc.greater(delta, pa.scalar(lo, pa.int64())),
                       pc.less_equal(delta, pa.scalar(hi, pa.int64())))
        return b.filter(keep).drop_columns(
            [c for c in ("_wk", "_wk_r") if c in b.column_names])

    return joined.map_batches(exact, batch_format="pyarrow")
