"""Mergeable sketches for corpus-scale approximate analytics.

:func:`approx_distinct` — HyperLogLog distinct-count over a column: exact
distinct of e.g. ``url`` at 10^12 rows is a full all-to-all shuffle, while
HLL is one streaming pass producing a fixed 2^p-byte register array per
block that merges by elementwise max. Driver memory = one register array;
no shuffle at all. Standard error ≈ 1.04/√(2^p) (~0.8% at p=14).

All per-batch work is vectorized numpy (hash → register index / rank →
``np.maximum.at``); no Python loop over rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _bit_length64(x: np.ndarray) -> np.ndarray:
    """Vectorized integer bit_length for uint64 (6 binary-search steps —
    exact, unlike float log2 which is off-by-ulp at powers of two)."""
    x = x.astype(np.uint64)
    n = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        m = x >= (np.uint64(1) << np.uint64(shift))
        n[m] += shift
        x = np.where(m, x >> np.uint64(shift), x)
    return n + (x > 0)


def hll_partial(batch: pa.Table, col: str, p: int = 14) -> pa.Table:
    """One batch → one row holding this batch's 2^p HLL registers."""
    m = 1 << p
    col_a = batch[col]
    if isinstance(col_a, pa.ChunkedArray):
        col_a = col_a.combine_chunks()
    h = pd.util.hash_pandas_object(col_a.to_pandas(), index=False).to_numpy()
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    suffix = h & np.uint64((1 << (64 - p)) - 1)
    rank = ((64 - p) - _bit_length64(suffix) + 1).astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})


def _hll_estimate(regs: np.ndarray, p: int) -> float:
    m = 1 << p
    est = (0.7213 / (1 + 1.079 / m)) * m * m / np.sum(2.0 ** -regs.astype(np.float64))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)  # linear counting for the small range
    return float(est)


def approx_distinct(ds, col: str, p: int = 14) -> int:
    """HLL distinct estimate. Per-block registers stream to the driver
    (2^p bytes each) and merge by elementwise max — constant driver memory,
    zero shuffle. Deterministic: the hash is seed-fixed."""
    m = 1 << p
    partials = ds.map_batches(lambda b: hll_partial(b, col, p),
                              batch_format="pyarrow")
    merged = np.zeros(m, dtype=np.uint8)
    for chunk in partials.iter_batches(batch_format="pyarrow", batch_size=64):
        for buf in chunk["regs"].to_pylist():
            np.maximum(merged, np.frombuffer(buf, dtype=np.uint8), out=merged)
    return int(round(_hll_estimate(merged, p)))


# ---------------------------------------------------------------------------
# Count-min sketch


def _mix64(h: np.ndarray, seed: int) -> np.ndarray:
    """Seeded 64-bit finalizer (splitmix-style) over pre-hashed keys —
    depth-many independent hash rows from ONE base hash pass."""
    x = h.astype(np.uint64) ^ np.uint64((seed * 0x9E3779B97F4A7C15) & (2**64 - 1))
    x ^= x >> np.uint64(33)
    with np.errstate(over="ignore"):
        x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    return x


def _base_hash(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pd.util.hash_pandas_object(col.to_pandas(), index=False).to_numpy()


def cms_partial(batch: pa.Table, col: str, width: int = 8192,
                depth: int = 4) -> pa.Table:
    """One batch → one row holding this batch's depth×width count matrix.
    Fully vectorized (``np.add.at`` per depth row); int64 counts."""
    h = _base_hash(batch[col])
    m = np.zeros((depth, width), dtype=np.int64)
    for d in range(depth):
        idx = (_mix64(h, d + 1) % np.uint64(width)).astype(np.int64)
        np.add.at(m[d], idx, 1)
    return pa.table({"cms": pa.array([m.tobytes()], pa.binary())})


def cms_merge(ds, col: str, width: int = 8192, depth: int = 4) -> np.ndarray:
    """Streaming CMS build: per-block matrices sum elementwise on the
    driver — driver memory is ONE depth×width matrix (a few 100 KB),
    zero shuffle, mergeable across corpora by the same elementwise sum."""
    partials = ds.map_batches(lambda b: cms_partial(b, col, width, depth),
                              batch_format="pyarrow")
    merged = np.zeros((depth, width), dtype=np.int64)
    for chunk in partials.iter_batches(batch_format="pyarrow", batch_size=64):
        for buf in chunk["cms"].to_pylist():
            merged += np.frombuffer(buf, dtype=np.int64).reshape(depth, width)
    return merged


def cms_estimate(matrix: np.ndarray, values) -> np.ndarray:
    """Point estimates (min over depth rows) for an array of values —
    overestimates only, error ≤ 2N/width with prob 1−(1/2)^depth."""
    depth, width = matrix.shape
    h = _base_hash(pa.array(list(values)))
    ests = np.empty((depth, len(h)), dtype=np.int64)
    for d in range(depth):
        idx = (_mix64(h, d + 1) % np.uint64(width)).astype(np.int64)
        ests[d] = matrix[d, idx]
    return ests.min(axis=0)


def heavy_hitters_exact(ds, col: str, k: int, *, width: int = 8192,
                        depth: int = 4, candidate_factor: int = 4,
                        verify_all_max: int = 100_000,
                        num_buckets: int = 32):
    """Top-k most frequent values with EXACT final counts at sketch cost:

    1. one streaming pass builds per-batch local top-m candidate values
       (m = candidate_factor·k — a true heavy hitter is a local heavy
       hitter in at least one batch unless adversarially spread across
       batches) and, if needed, a merged CMS (bounded driver memory);
    2. candidate handling: when the candidate union is ≤
       ``verify_all_max``, EVERY candidate gets an exact count — no sketch
       pruning, no eviction risk. Only above that does the CMS prune to
       m (CMS overestimates, so a true heavy hitter is dropped only if
       > m−k other candidates' estimates are inflated past it — possible
       on near-flat distributions, which by definition have no meaningful
       heavy hitters; a tighter bound needs a larger ``width``);
    3. the kept candidate set (broadcast) gets EXACT counts via one
       map-side-combined filtered count; final (n DESC, value) top-k.

    The pattern: sketches locate, exact aggregation verifies — estimates
    never appear in the output. Returns a Dataset (value, n)."""
    import ray

    from .aggregates import partial_count

    m_cand = candidate_factor * k
    ds = ds.materialize()  # consumed twice: sketch+candidates, exact verify

    def local_top(batch: pa.Table) -> pa.Table:
        t = batch.group_by([col]).aggregate([([], "count_all")])
        t = t.rename_columns([col, "n"])
        idx = np.argsort(t["n"].to_numpy(zero_copy_only=False))[::-1][:m_cand]
        return t.take(idx).select([col])

    cand = set()
    for chunk in ds.map_batches(local_top, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow", batch_size=4096):
        cand.update(chunk[col].to_pylist())
    cand = sorted(cand)
    if len(cand) <= verify_all_max:
        kept = pa.array(cand)  # exact-count everything nominated
    else:
        sk = cms_merge(ds, col, width, depth)
        est = cms_estimate(sk, cand)
        order = np.lexsort((np.array(cand, dtype=object), -est))[:m_cand]
        kept = pa.array([cand[i] for i in order])
    ref = ray.put(kept)

    def keep_cand(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.is_in(batch[col], value_set=ray.get(ref)))

    exact = partial_count(ds.map_batches(keep_cand, batch_format="pyarrow"),
                          [col])
    out = exact.map_batches(
        lambda b: b.rename_columns([col, "n"]), batch_format="pyarrow")
    return out.sort(["n", col], descending=[True, False]).limit(k)


# ---------------------------------------------------------------------------
# Grouped HyperLogLog (approx distinct per key)


def hll_partial_by_key(batch: pa.Table, key: str, col: str,
                       p: int = 12) -> pa.Table:
    """One batch → one row PER DISTINCT KEY holding that key's 2^p HLL
    registers. Fully vectorized: one hash pass, pandas factorize for key
    codes, ONE ``np.maximum.at`` into a (n_keys, m) register matrix."""
    m = 1 << p
    col_a = batch[col]
    if isinstance(col_a, pa.ChunkedArray):
        col_a = col_a.combine_chunks()
    h = pd.util.hash_pandas_object(col_a.to_pandas(), index=False).to_numpy()
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    suffix = h & np.uint64((1 << (64 - p)) - 1)
    rank = ((64 - p) - _bit_length64(suffix) + 1).astype(np.uint8)
    keys = batch[key]
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    codes, uniques = pd.factorize(keys.to_pandas(), use_na_sentinel=False)
    mat = np.zeros((len(uniques), m), dtype=np.uint8)
    np.maximum.at(mat, (codes, idx), rank)
    return pa.table({
        key: pa.array(uniques, keys.type),
        "regs": pa.array([mat[i].tobytes() for i in range(len(uniques))],
                         pa.binary()),
    })


def approx_distinct_by_key(ds, key: str, col: str, p: int = 12,
                           num_buckets: int = 32):
    """Per-key HLL distinct estimate (reach per domain / users per type at
    10^12 rows): the shuffle moves one 2^p-byte register blob per
    (key, block) — independent of row count — and a bucketed groupby merges
    blobs by elementwise max. Register memory is 2^p bytes per distinct key
    per block: sized for low-to-mid key cardinality (types, domains,
    languages); for millions of keys lower ``p`` or use exact
    :func:`~.aggregates.distinct` + count. Error ≈ 1.04/√2^p (~1.6% at
    p=12). Output: (key, approx_n:int64), deterministic (seed-fixed hash,
    max-merge is order-free)."""
    from .aggregates import add_key_bucket
    from .exchange import bucket_shuffle

    partials = ds.map_batches(lambda b: hll_partial_by_key(b, key, col, p),
                              batch_format="pyarrow")
    partials = partials.map_batches(
        lambda b: add_key_bucket(b, [key], num_buckets),
        batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out_k, out_n = [], []
        for k_val, grp in g.groupby(key, sort=False, dropna=False):
            mat = np.stack([np.frombuffer(b, dtype=np.uint8)
                            for b in grp["regs"]])
            merged = mat.max(axis=0)
            out_k.append(k_val)
            out_n.append(int(round(_hll_estimate(merged, p))))
        return pd.DataFrame({key: out_k, "approx_n": np.array(out_n, np.int64)})

    return bucket_shuffle(partials, merge, num_buckets, "pandas")


# ---------------------------------------------------------------------------
# DDSketch-style mergeable quantiles (relative-error guarantee)


def dd_partial(batch: pa.Table, col: str, alpha: float = 0.01,
               min_pos: float = 1e-9) -> pa.Table:
    """One batch → sparse (bucket, count) rows of a DDSketch-style
    log-bucket histogram: log index b(v) = ceil(log_γ v) with
    γ = (1+α)/(1−α), so any quantile reconstructs within relative error α.
    Zones are kept collision-free by a 4k+r encoding — pos → 4b+1,
    neg mirror → 4b+3, |v| < min_pos → 0 — because the log index itself
    ranges over ALL integers (b ≤ 0 for v < 1), so it cannot double as the
    zone tag. Fully vectorized; exactly mergeable by summing counts."""
    gamma = (1 + alpha) / (1 - alpha)
    v = batch[col]
    if isinstance(v, pa.ChunkedArray):
        v = v.combine_chunks()
    x = v.to_numpy(zero_copy_only=False).astype(np.float64)
    x = x[~np.isnan(x)]
    enc = np.zeros(len(x), dtype=np.int64)
    lg = np.log(gamma)
    pos = x >= min_pos
    neg = x <= -min_pos
    enc[pos] = 4 * np.ceil(np.log(x[pos]) / lg).astype(np.int64) + 1
    enc[neg] = 4 * np.ceil(np.log(-x[neg]) / lg).astype(np.int64) + 3
    ub, cnt = np.unique(enc, return_counts=True)
    return pa.table({"bucket": pa.array(ub, pa.int64()),
                     "n": pa.array(cnt.astype(np.int64), pa.int64())})


def _dd_value(enc: int, gamma: float) -> float:
    """Decode a 4k+r bucket to its γ-midpoint representative value."""
    r = enc % 4
    if r == 0:
        return 0.0
    b = (enc - r) // 4
    mid = 2 * gamma ** b / (1 + gamma)  # midpoint of (γ^(b−1), γ^b]
    return mid if r == 1 else -mid


def dd_quantiles(ds, col: str, qs, alpha: float = 0.01,
                 min_pos: float = 1e-9):
    """Mergeable one-pass approximate quantiles (α relative error — the
    10^12-row complement to the exact two-pass :mod:`quantiles`): per-batch
    sparse log-bucket histograms stream to the driver and merge by
    bucket-count sum — driver memory is the distinct-bucket count (a few
    hundred), zero shuffle, deterministic at any partitioning (bucketing
    is a pure function of the value). Buckets are ordered by their DECODED
    value (the 4k+r encoding is not value-ordered). Returns {q: estimate};
    each estimate is the γ-midpoint of the bucket holding the q-th rank."""
    gamma = (1 + alpha) / (1 - alpha)
    parts = ds.map_batches(lambda b: dd_partial(b, col, alpha, min_pos),
                           batch_format="pyarrow")
    acc: dict[int, int] = {}
    for chunk in parts.iter_batches(batch_format="pyarrow", batch_size=4096):
        for b, n in zip(chunk["bucket"].to_pylist(), chunk["n"].to_pylist()):
            acc[b] = acc.get(b, 0) + n
    if not acc:
        return {float(q): float("nan") for q in qs}
    vals = np.array([_dd_value(b, gamma) for b in acc], dtype=np.float64)
    counts = np.array(list(acc.values()), dtype=np.int64)
    order = np.argsort(vals)
    vals, counts = vals[order], counts[order]
    cum = np.cumsum(counts)
    total = int(cum[-1])
    out = {}
    for q in qs:
        rank = min(max(int(np.ceil(q * total)), 1), total)
        out[float(q)] = float(vals[int(np.searchsorted(cum, rank))])
    return out


def dd_partial_by_key(batch: pa.Table, key: str, col: str,
                      alpha: float = 0.01, min_pos: float = 1e-9) -> pa.Table:
    """One batch → sparse (key, bucket, n) histogram rows (the grouped form
    of :func:`dd_partial`): one log pass + one composite group count."""
    gamma = (1 + alpha) / (1 - alpha)
    v = batch[col]
    if isinstance(v, pa.ChunkedArray):
        v = v.combine_chunks()
    x = v.to_numpy(zero_copy_only=False).astype(np.float64)
    keys = batch[key]
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    ok = ~np.isnan(x)
    enc = np.zeros(len(x), dtype=np.int64)
    lg = np.log(gamma)
    pos = ok & (x >= min_pos)
    neg = ok & (x <= -min_pos)
    enc[pos] = 4 * np.ceil(np.log(x[pos]) / lg).astype(np.int64) + 1
    enc[neg] = 4 * np.ceil(np.log(-x[neg]) / lg).astype(np.int64) + 3
    t = pa.table({key: keys.filter(pa.array(ok)),
                  "bucket": pa.array(enc[ok], pa.int64())})
    out = t.group_by([key, "bucket"]).aggregate([([], "count_all")])
    return out.rename_columns([key, "bucket", "n"])


def dd_quantiles_by_key(ds, key: str, col: str, qs, alpha: float = 0.01,
                        min_pos: float = 1e-9, num_buckets: int = 32):
    """Per-key approximate quantiles with the α relative-error guarantee —
    grouped percentiles over 10^12 rows without a per-key sort: per batch
    sparse (key, bucket, n) rows (a few hundred per key at most), ONE
    map-side-combined count merges them (sum is the sketch merge), then a
    per-key decode + cumsum answers every requested quantile. The shuffle
    moves histogram rows, never values. Output: (key, q, est), one row per
    key × quantile; deterministic at any partitioning."""
    import pandas as pd

    from .aggregates import add_key_bucket, grouped_sums
    from .exchange import bucket_shuffle

    gamma = (1 + alpha) / (1 - alpha)
    qs = [float(q) for q in qs]
    hist = grouped_sums(
        ds.map_batches(lambda b: dd_partial_by_key(b, key, col, alpha,
                                                   min_pos),
                       batch_format="pyarrow"),
        [key, "bucket"], ["n"], num_buckets=num_buckets)
    hist = hist.map_batches(
        lambda b: b.select([key, "bucket", "sum_n"]).rename_columns(
            [key, "bucket", "n"]),
        batch_format="pyarrow")
    hist = hist.map_batches(
        lambda b: add_key_bucket(b, [key], num_buckets),
        batch_format="pyarrow")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out_k, out_q, out_e = [], [], []
        for k_val, grp in g.groupby(key, sort=False, dropna=False):
            vals = np.array([_dd_value(int(b), gamma) for b in grp["bucket"]])
            counts = grp["n"].to_numpy(dtype=np.int64)
            order = np.argsort(vals)
            vals, counts = vals[order], counts[order]
            cum = np.cumsum(counts)
            total = int(cum[-1])
            for q in qs:
                rank = min(max(int(np.ceil(q * total)), 1), total)
                out_k.append(k_val)
                out_q.append(q)
                out_e.append(float(vals[int(np.searchsorted(cum, rank))]))
        return pd.DataFrame({key: out_k, "q": out_q, "est": out_e})

    return bucket_shuffle(hist, finish, num_buckets, "pandas")
