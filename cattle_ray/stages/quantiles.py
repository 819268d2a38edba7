"""Distributed EXACT discrete quantiles without a global sort.

Streaming passes, all map-side-combined — no all-to-all shuffle and no
driver-side collection of the column:

1. min/max + count (tiny stats pass).
2. fixed-width histogram per batch (vectorized ``np.bincount``), merged into
   one small array on the driver → locate, for each requested quantile rank
   ``k = ceil(q·n) − 1`` (DuckDB ``quantile_disc`` semantics, verified
   empirically), the bin containing the k-th order statistic.
3. collect ONLY the values inside the needed bins (a ~n/num_bins sliver) and
   select exactly on the driver. A bin holding more than ``max_bin_collect``
   values (pathological skew) is recursively re-histogrammed over its own
   [lo, hi) range instead of being collected — one extra pass per level;
   massive duplicate runs terminate immediately via the lo==hi fast path.

At 10^12 rows with 8k bins, step 3 moves ~n/8k values per needed bin.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa


def _range_stats(ds, col, lo, hi, hi_inclusive: bool = True):
    """(count, min, max) of values within [lo, hi] or [lo, hi)
    (None = unbounded)."""

    def stats(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if lo is not None:
            v = v[(v >= lo) & ((v <= hi) if hi_inclusive else (v < hi))]
        if v.size == 0:
            return pa.table({"n": pa.array([0]), "lo": pa.array([np.inf]),
                             "hi": pa.array([-np.inf])})
        return pa.table({"n": pa.array([int(v.size)]), "lo": pa.array([float(v.min())]),
                         "hi": pa.array([float(v.max())])})

    st = ds.map_batches(stats, batch_format="pyarrow").to_pandas()
    return int(st["n"].sum()), float(st["lo"].min()), float(st["hi"].max())


def _select_ranks(ds, col, ranks, lo, hi, num_bins, max_bin_collect, depth):
    """{global_rank_within_range: value} for 0-based ranks over the values in
    [lo, hi] (inclusive)."""
    if lo == hi:
        return {r: lo for r in ranks}
    width = (hi - lo) / num_bins

    def hist(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        v = v[(v >= lo) & (v <= hi)]
        idx = np.minimum(((v - lo) / width).astype(np.int64), num_bins - 1)
        counts = np.bincount(idx, minlength=num_bins)
        return pa.table({"bin": pa.array(np.arange(num_bins, dtype=np.int64)),
                         "cnt": pa.array(counts)})

    hdf = ds.map_batches(hist, batch_format="pyarrow").to_pandas()
    counts = np.zeros(num_bins, dtype=np.int64)
    np.add.at(counts, hdf["bin"].to_numpy(), hdf["cnt"].to_numpy())
    cum = np.cumsum(counts)

    by_bin: dict[int, list[int]] = {}
    for r in ranks:
        b = int(np.searchsorted(cum, r + 1))
        by_bin.setdefault(b, []).append(r)

    out: dict[int, float] = {}
    small_bins = [b for b in by_bin if counts[b] <= max_bin_collect]
    if small_bins:
        small_set = set(small_bins)

        def sliver(batch: pa.Table) -> pa.Table:
            v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[~np.isnan(v)]
            v = v[(v >= lo) & (v <= hi)]
            idx = np.minimum(((v - lo) / width).astype(np.int64), num_bins - 1)
            m = np.isin(idx, list(small_set))
            return pa.table({"bin": pa.array(idx[m]), "val": pa.array(v[m])})

        sl = ds.map_batches(sliver, batch_format="pyarrow").to_pandas()
        for b in small_bins:
            before = int(cum[b - 1]) if b > 0 else 0
            within = np.sort(sl[sl["bin"] == b]["val"].to_numpy())
            for r in by_bin[b]:
                out[r] = float(within[r - before])

    for b in by_bin:
        if b in small_bins:
            continue
        if depth <= 0:
            raise ValueError(
                f"quantile bin overflow (> {max_bin_collect} values) after "
                f"refinement; raise num_bins or max_bin_collect"
            )
        before = int(cum[b - 1]) if b > 0 else 0
        bin_lo = lo + b * width
        last = b == num_bins - 1
        bin_hi = hi if last else lo + (b + 1) * width
        # exact sub-range bounds (the bin edges may not touch actual values);
        # non-last bins exclude their upper edge (it belongs to bin b+1)
        n_sub, sub_lo, sub_hi = _range_stats(ds, col, bin_lo, bin_hi,
                                             hi_inclusive=last)
        sub = _select_ranks(
            ds, col, [r - before for r in by_bin[b]], sub_lo, sub_hi,
            num_bins, max_bin_collect, depth - 1,
        )
        for r in by_bin[b]:
            out[r] = sub[r - before]
    return out


def quantile_disc(ds, col: str, qs, num_bins: int = 8192,
                  max_bin_collect: int = 5_000_000,
                  max_refine: int = 4) -> dict[float, float]:
    """Exact discrete quantiles of ``ds[col]`` → {q: value} (DuckDB
    ``quantile_disc`` rank semantics: element at ``ceil(q·n) − 1``)."""
    qs = list(qs)
    n, lo, hi = _range_stats(ds, col, None, None)
    if n == 0:
        return {q: float("nan") for q in qs}
    ranks = {q: min(max(math.ceil(q * n) - 1, 0), n - 1) for q in qs}
    got = _select_ranks(ds, col, sorted(set(ranks.values())), lo, hi,
                        num_bins, max_bin_collect, max_refine)
    return {q: got[r] for q, r in ranks.items()}


def grouped_quantile_disc(ds, key: str, col: str, qs, num_buckets: int = 32):
    """Per-key exact discrete quantiles (DuckDB ``quantile_disc`` rank
    semantics: element at ``ceil(q·n) − 1`` within each key's values).
    One bucketed shuffle on the key (key-type-aware); per reducer a single
    vectorized sort + per-key positional take — no per-key UDF calls.
    Returns one row per (key, q): ``(key, q, value)``.

    Scale note: unlike the global :func:`quantile_disc` (histogram
    selection, nothing key-sized collected anywhere), this co-locates each
    key's values in one bucket — right when per-key cardinality is bounded
    (per-user event values); for a single giant key use the global path on
    that key's filtered slice."""
    import math

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from .exchange import bucket_shuffle
    from .joins import _key_buckets

    qs = sorted(set(qs))

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket", pa.array(_key_buckets(batch[key], num_buckets))
        )

    def bucket_quantiles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, col], kind="mergesort")
        sizes = g.groupby(key, sort=False)[col].size()
        starts = np.concatenate([[0], np.cumsum(sizes.to_numpy())[:-1]])
        vals = g[col].to_numpy()
        out_k, out_q, out_v = [], [], []
        for q in qs:
            ranks = starts + np.minimum(
                np.maximum(np.ceil(q * sizes.to_numpy()).astype(np.int64) - 1, 0),
                sizes.to_numpy() - 1,
            )
            out_k.append(sizes.index.to_numpy())
            out_q.append(np.full(len(sizes), q))
            out_v.append(vals[ranks])
        return pd.DataFrame({key: np.concatenate(out_k),
                             "q": np.concatenate(out_q),
                             "value": np.concatenate(out_v)})

    return bucket_shuffle(ds.map_batches(add_bucket, batch_format="pyarrow"),
                          bucket_quantiles, num_buckets, "pandas")
