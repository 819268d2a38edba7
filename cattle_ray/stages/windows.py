"""Stream-shaped operators over the bounded events log (ray_guide
"Streaming-shaped workloads"): the input is an ordered, partitioned log;
windows are computed per key after ONE bucketed key shuffle
(:func:`_key_shuffle` over :func:`~.exchange.bucket_shuffle`, sized to the
input's bytes), finished with vectorized pandas. A reducer may hold a
union of buckets, so every finish re-keys inside its input (group by key,
sort by key then ts) and never treats its rows as one key's.

Ordering assumption (stated per the guide): rows of one key are sorted by
``ts`` inside the reducer before windowing; results are invariant to the
input order (sessionization uses only diffs over the sorted ts).

- :func:`sessionize` — gap-based sessions per key.
- :func:`tumbling_window` lives in ``__ray_entry__.q_events_hourly`` as the
  partial-aggregation form (floor_temporal + map-side combine).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _key_shuffle(ds, key, finish, num_buckets):
    """One bucketed shuffle on ``key`` (:func:`..joins._key_buckets` —
    type-aware, negative-safe): all of a key's rows reach one reducer,
    which runs the pandas ``finish`` over the union of buckets it holds."""
    from .exchange import bucket_shuffle
    from .joins import _key_buckets

    def add_bucket(b: pa.Table) -> pa.Table:
        return b.append_column(
            "_bucket", pa.array(_key_buckets(b[key], num_buckets)))

    return bucket_shuffle(ds.map_batches(add_bucket, batch_format="pyarrow"),
                          finish, num_buckets, "pandas")


def sliding_window_expand(batch: pa.Table, *, ts: str = "ts",
                          window: str = "1h", slide: str = "15min") -> pa.Table:
    """Flat-map each row to every sliding window containing it
    (window/slide ratio k → k output rows per input row). Adds
    ``window_start`` (timestamp). Fully vectorized: epoch arithmetic + tile.
    """
    w = int(pd.Timedelta(window).total_seconds() * 1_000_000)
    s = int(pd.Timedelta(slide).total_seconds() * 1_000_000)
    k = w // s
    t = batch[ts]
    if isinstance(t, pa.ChunkedArray):
        t = t.combine_chunks()
    epoch = t.cast(pa.int64()).to_numpy(zero_copy_only=False)
    # last window starting at or before t: floor(t/s)*s; windows going back k-1 slides
    base = (epoch // s) * s
    offsets = np.arange(k, dtype=np.int64) * s
    starts = np.repeat(base, k) - np.tile(offsets, len(base))
    keep = np.repeat(epoch, k) < starts + w  # event inside [start, start+w)
    idx = np.repeat(np.arange(len(batch), dtype=np.int64), k)[keep]
    out = batch.take(pa.array(idx))
    return out.append_column(
        "window_start", pa.array(starts[keep]).cast(pa.timestamp("us"))
    )


def sessionize(ds, *, key: str = "user_id", ts: str = "ts",
               gap: "pd.Timedelta | str" = "1h", num_buckets: int = 32):
    """Gap-based sessionization: a new session starts when the time since the
    key's previous event exceeds ``gap``. Returns one row per session:
    ``(key, session_id, session_start, session_end, n)`` with 1-based
    session numbering per key in ts order.

    Full event rows cross the one key shuffle (scale check:
    scripts/stress_r5_windows.py)."""
    gap = pd.Timedelta(gap)

    def bucket_sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts], kind="mergesort")
        brk = (g[ts].diff() > gap) | (g[key] != g[key].shift())
        g = g.assign(session_id=brk.groupby(g[key]).cumsum().astype("int64"))
        out = (
            g.groupby([key, "session_id"], sort=False)
            .agg(session_start=(ts, "min"), session_end=(ts, "max"), n=(ts, "size"))
            .reset_index()
        )
        out["n"] = out["n"].astype("int64")
        return out

    return _key_shuffle(ds, key, bucket_sessions, num_buckets)


def funnel(ds, steps, *, key: str = "user_id", ts: str = "ts",
           type_col: str = "event_type", num_buckets: int = 32):
    """Ordered-step funnel analysis: for each key, the first time of step 1,
    then the first step-2 event STRICTLY AFTER it, then the first step-3
    event after that, … Keys that never complete a step drop out from that
    step on. Returns one row per key that completed all steps, with one
    ``t_<step>`` timestamp column per step.

    One bucketed shuffle on the key (all of a key's events land in one
    reducer — same discipline as :func:`sessionize`); per reducer the step
    chain is a vectorized loop over STEPS (groupby-min + merge per step),
    never over keys or rows. Step-irrelevant events are projected away
    before the shuffle."""
    steps = list(steps)

    def project(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch[type_col], value_set=pa.array(steps))
        return batch.select([key, ts, type_col]).filter(keep)

    def chain(g: pd.DataFrame) -> pd.DataFrame:
        cur = (g[g[type_col] == steps[0]].groupby(key)[ts].min()
               .reset_index(name=f"t_{steps[0]}"))
        for s in steps[1:]:
            prev_col = cur.columns[-1]
            ev = g[g[type_col] == s].merge(cur[[key, prev_col]], on=key)
            ev = ev[ev[ts] > ev[prev_col]]
            nxt = ev.groupby(key)[ts].min().reset_index(name=f"t_{s}")
            cur = cur.merge(nxt, on=key)
        return cur

    return _key_shuffle(ds.map_batches(project, batch_format="pyarrow"),
                        key, chain, num_buckets)


def _per_key_ordered(ds, key, order, per_group_fn, num_buckets):
    """Shared scaffold of the per-key ordered window primitives: one
    bucketed shuffle on the key, per reducer sort by ``order`` (stable,
    key first) then a vectorized per-group body. A fix to bucketing/
    ordering lands here once for running-sum and lag alike."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        g = per_group_fn(g)
        return g.drop(columns=["_bucket"])

    return _key_shuffle(ds, key, body, num_buckets)


def grouped_running_sum(ds, *, key: str = "user_id", ts: str = "ts",
                        val: str = "val", out: str = "running",
                        order_tiebreak: str | None = None,
                        num_buckets: int = 32):
    """Per-key running (cumulative) sum in event-time order — the
    ``SUM(...) OVER (PARTITION BY key ORDER BY ts)`` window primitive. One
    bucketed shuffle on the key; per reducer a single vectorized sort +
    ``groupby.cumsum`` — no per-key UDF calls, hub keys cost their own row
    count. Use an INTEGER value column (e.g. cents) for bit-exact results;
    ``order_tiebreak`` breaks equal timestamps deterministically."""
    order = [key, ts] + ([order_tiebreak] if order_tiebreak else [])

    def cumsum(g: pd.DataFrame) -> pd.DataFrame:
        g[out] = g.groupby(key, sort=False)[val].cumsum()
        return g

    return _per_key_ordered(ds, key, order, cumsum, num_buckets)


def ordered_paths(ds, *, key: str = "user_id", ts: str = "ts",
                  val: str = "event_type", sep: str = ",",
                  order_tiebreak: str | None = None,
                  num_buckets: int = 32):
    """Per-key sequence assembly: each key's ``val`` values concatenated in
    exact (ts, tiebreak) order — ``string_agg(val, sep ORDER BY ts, tb)``,
    the training-sequence layout for behavior models. One bucketed key
    shuffle (see :func:`sessionize`); per reducer a single
    vectorized sort + groupby-join, no per-key UDFs. Path length is
    bounded by per-key row count: a bot key makes a long string, not a
    hot shuffle key."""
    order = [key, ts] + ([order_tiebreak] if order_tiebreak else [])

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort")
        grp = g.groupby(key, sort=False)
        path = grp[val].agg(sep.join)
        return pd.DataFrame({
            key: path.index.to_numpy(),
            "n_events": grp.size().to_numpy().astype("int64"),
            "path": path.to_numpy(),
        })

    return _key_shuffle(ds, key, build, num_buckets)


def grouped_moving_avg(ds, *, key: str = "user_id", ts: str = "ts",
                       val: str = "val", window: int = 3,
                       order_tiebreak: str | None = None,
                       num_buckets: int = 32):
    """Per-key moving average over the last ``window`` rows in event-time
    order — ``AVG(...) OVER (PARTITION BY key ORDER BY ts ROWS BETWEEN
    window-1 PRECEDING AND CURRENT ROW)`` — via cumsum-diff: one vectorized
    sort + groupby.cumsum + shift per reducer, no per-row window loop.

    Emits exact int64 ``win_sum``/``win_n`` plus ``mov_avg`` as their ONE
    float division (mirrors ``CAST(SUM(..) OVER w AS DOUBLE) / COUNT(*)
    OVER w`` bit-for-bit — never SQL AVG(), whose internal accumulator
    isn't spec'd). Value column must be integer (cents discipline)."""
    order = [key, ts] + ([order_tiebreak] if order_tiebreak else [])

    def mov(g: pd.DataFrame) -> pd.DataFrame:
        grp = g.groupby(key, sort=False)
        c = grp[val].cumsum()
        c_prev = c.groupby(g[key].to_numpy(), sort=False).shift(
            window).fillna(0).astype("int64")
        rn = grp.cumcount() + 1
        g["win_sum"] = (c - c_prev).astype("int64")
        g["win_n"] = rn.clip(upper=window).astype("int64")
        g["mov_avg"] = g["win_sum"].to_numpy().astype("float64") \
            / g["win_n"].to_numpy()
        return g

    return _per_key_ordered(ds, key, order, mov, num_buckets)


def grouped_time_window(ds, *, key: str = "user_id", ts: str = "ts",
                        val: str = "val", window_us: int,
                        num_buckets: int = 32):
    """Per-key trailing TIME-RANGE window — ``SUM/COUNT OVER (PARTITION BY
    key ORDER BY ts RANGE BETWEEN <interval> PRECEDING AND CURRENT ROW)`` —
    the time-based counterpart of :func:`grouped_moving_avg`'s ROWS window.

    Output granularity is one row per (key, ts): SQL's RANGE frame gives
    every peer row (same key+ts) the identical window value, so peers are
    collapsed FIRST — partial (key, ts) sums map-side in Arrow (the shuffle
    moves one row per (key, ts, batch), never events), the collapse
    finishing inside the single bucketed key shuffle. Window edges come
    from ONE vectorized merge-count per reducer (lexsort of data values
    against ``t - window`` queries + cumsum — no per-key searchsorted
    loop, no per-row Python); sums are exact int64 (cents discipline).

    Output columns: ``key, ts, v`` (collapsed sum at this ts), ``n_rows``
    (peer count), ``win_sum``, ``win_rows``, ``win_ts`` (distinct ts in
    the frame) — all exact int64.
    """
    def partial(b: pa.Table) -> pa.Table:
        out = b.group_by([key, ts]).aggregate([(val, "sum"),
                                               ([], "count_all")])
        return out.rename_columns([key, ts, "pv", "pn"])

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.groupby([key, ts], sort=False, dropna=False)[["pv", "pn"]]
             .sum().reset_index())
        g = g.sort_values([key, ts], kind="mergesort", ignore_index=True)
        n = len(g)
        if n == 0:
            return pd.DataFrame({key: g[key], ts: g[ts],
                                 "v": pd.Series([], dtype="int64"),
                                 "n_rows": pd.Series([], dtype="int64"),
                                 "win_sum": pd.Series([], dtype="int64"),
                                 "win_rows": pd.Series([], dtype="int64"),
                                 "win_ts": pd.Series([], dtype="int64")})
        codes = pd.factorize(g[key], use_na_sentinel=False)[0]  # contiguous
        tv = g[ts].to_numpy()
        if np.issubdtype(tv.dtype, np.integer):
            t = tv.astype(np.int64)  # integer event-time: window_us unit
        else:  # datetime64 OR object-dtype datetimes (e.g. tz-aware)
            t = tv.astype("datetime64[us]").astype(np.int64)
        v = g["pv"].to_numpy().astype(np.int64)
        pn = g["pn"].to_numpy().astype(np.int64)
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        counts = np.diff(np.r_[starts, n])
        gs = np.repeat(starts, counts)  # group-start index per row
        csum_v = np.cumsum(v)
        csum_n = np.cumsum(pn)
        # merge-count: within each group, lw[i] = #data rows with t < t_i-w.
        # Queries (flag 0) sort BEFORE equal data (flag 1), so an event at
        # exactly t_i - w stays INSIDE the frame (SQL's closed lower bound).
        K = np.concatenate([codes, codes])
        V = np.concatenate([t, t - np.int64(window_us)])
        F = np.concatenate([np.ones(n, np.int8), np.zeros(n, np.int8)])
        order = np.lexsort((F, V, K))
        cd = np.cumsum(F[order])
        inv = np.empty(2 * n, np.int64)
        inv[order] = np.arange(2 * n)
        lw = cd[inv[n:]] - gs  # in-group count of data strictly before q
        prev_idx = gs + lw - 1
        safe = np.maximum(prev_idx, 0)
        prev_v = np.where(prev_idx >= 0, csum_v[safe], 0)
        prev_n = np.where(prev_idx >= 0, csum_n[safe], 0)
        idx = np.arange(n)
        return pd.DataFrame({
            key: g[key], ts: g[ts], "v": v, "n_rows": pn,
            "win_sum": (csum_v - prev_v).astype("int64"),
            "win_rows": (csum_n - prev_n).astype("int64"),
            "win_ts": (idx - gs - lw + 1).astype("int64"),
        })

    return _key_shuffle(ds.map_batches(partial, batch_format="pyarrow"),
                        key, body, num_buckets)


def sequence_ngrams(ds, *, key: str = "user_id", ts: str = "ts",
                    val: str = "event_type", n: int = 3, sep: str = ">",
                    order_tiebreak: str | None = None,
                    num_buckets: int = 32):
    """Per-key ordered n-gram sequences (path mining): every run of ``n``
    consecutive ``val`` values in exact (ts, tiebreak) order within one
    key — the "common user journeys" primitive behind funnel discovery
    and behavior-model vocabularies. One bucketed key shuffle; per reducer
    a single sort, the n-gram join built by Arrow
    ``binary_join_element_wise`` over shifted array slices (no per-row
    Python), cross-key windows masked out vectorized. Emits one ``seq``
    row per n-gram occurrence; compose with ``partial_count``/
    ``top_k_counts`` for frequent-sequence mining."""
    order = [key, ts] + ([order_tiebreak] if order_tiebreak else [])

    def grams(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(order, kind="mergesort", ignore_index=True)
        m = len(g)
        if m < n:
            return pd.DataFrame({"seq": pd.Series([], dtype="object")})
        u = pd.factorize(g[key], use_na_sentinel=False)[0]
        # a window [i, i+n) is valid iff all n rows share the key
        mask = u[: m - n + 1] == u[n - 1:]
        vals = pa.array(g[val].astype(str).to_numpy())
        parts = [vals.slice(j, m - n + 1) for j in range(n)]
        seq = pc.binary_join_element_wise(*parts, sep)
        return pd.DataFrame({"seq": seq.to_pandas()[mask]})

    return _key_shuffle(ds, key, grams, num_buckets)


def grouped_window_dedup(ds, *, key: str = "user_id",
                         subkey: str | None = "event_type", ts: str = "ts",
                         window: "pd.Timedelta | str" = "30min",
                         order_tiebreak: str | None = "event_id",
                         num_buckets: int = 32):
    """Window-based duplicate suppression — the event-stream hygiene op
    (double-fired trackers, retried webhooks): keep a row iff the
    previous event of the same ``(key, subkey)`` in ts order is absent or
    STRICTLY more than ``window`` older. LAG semantics (each row compares
    to its immediate predecessor, kept or not), which mirrors one-to-one
    as ``lag(ts) OVER (PARTITION BY key, subkey ORDER BY ts, tiebreak)``
    in SQL — the sequential "last KEPT" variant is deliberately not the
    default (it has no closed-form SQL mirror). One bucketed shuffle on
    ``key``; all of a key's rows co-locate, the subkey split is local."""
    w = pd.Timedelta(window)
    grp = [key] + ([subkey] if subkey else [])
    order = grp + [ts] + ([order_tiebreak] if order_tiebreak else [])

    def body(g: pd.DataFrame) -> pd.DataFrame:
        prev = g.groupby(grp, sort=False)[ts].shift()
        keep = prev.isna() | ((g[ts] - prev) > w)
        return g[keep]

    return _per_key_ordered(ds, key, order, body, num_buckets)


def grouped_lag_delta(ds, *, key: str = "user_id", ts: str = "ts",
                      out: str = "delta_us",
                      order_tiebreak: str | None = None,
                      num_buckets: int = 32):
    """Per-key inter-arrival deltas — the ``ts - LAG(ts) OVER (PARTITION BY
    key ORDER BY ts)`` window primitive. Deltas are computed EXACTLY as
    integer microseconds (timedelta floor-div, no float rounding error at
    any gap size), then land as float64-with-NaN — the dtype a
    nullable-BIGINT SQL window takes in pandas, so oracle schemas align.
    Same one-shuffle vectorized shape as :func:`grouped_running_sum`."""
    order = [key, ts] + ([order_tiebreak] if order_tiebreak else [])

    def lag(g: pd.DataFrame) -> pd.DataFrame:
        prev = g.groupby(key, sort=False)[ts].shift()
        delta = (g[ts] - prev) // pd.Timedelta(1, "us")  # exact int µs
        g[out] = delta.astype("float64")
        return g

    return _per_key_ordered(ds, key, order, lag, num_buckets)
