"""Parallelism invariance for the round-2-continuation operators: the
result of a distributed op must not depend on the block layout (a reshaped
cluster, a different block size, or a retry-induced re-split must produce
identical output). Each op runs at 1, 3, and 8 partitions over the same
input and must return identical row sets."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest


def _docs(n=120):
    rng = np.random.RandomState(9)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(vocab[j] for j in rng.randint(0, 40, 25))
             for _ in range(n)]
    # plant duplicate windows
    for i in range(0, n, 7):
        texts[i] = "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9 " + texts[i]
    return pa.table({"doc_id": list(range(n)), "text": texts})


def _sorted_rows(df):
    return sorted(map(tuple, df.astype(str).itertuples(index=False)))


def _invariant(make_ds_fn, op, parts=(1, 3, 8)):
    outs = []
    for p in parts:
        outs.append(_sorted_rows(op(make_ds_fn(p)).to_pandas()))
    assert outs[0] == outs[1] == outs[2]
    return outs[0]


def test_chunk_dedup_invariant(ray_session):
    import ray.data as rd

    from cattle_ray.stages.dedup import chunk_exact_dedup

    t = _docs()
    rows = _invariant(
        lambda p: rd.from_arrow(t).repartition(p),
        lambda ds: chunk_exact_dedup(ds, chunk_words=5))
    assert rows  # non-degenerate


def test_adjacency_invariant(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(2)
    t = pa.table({
        "subj": [f"s{i}" for i in rng.randint(0, 30, 1000)],
        "pred": [f"p{i}" for i in rng.randint(0, 4, 1000)],
        "obj": [f"o{i}" for i in rng.randint(0, 20, 1000)],
    })
    from cattle_ray.stages.graph import adjacency_lists

    _invariant(lambda p: rd.from_arrow(t).repartition(p), adjacency_lists)


def test_entity_resolution_invariant(ray_session):
    import ray.data as rd

    rows = [{"uri": f"http://e/{i:03d}", "name": f"n{i % 9}"}
            for i in range(90)]
    t = pa.Table.from_pylist(rows)
    from cattle_ray.stages.link import entity_resolution

    _invariant(lambda p: rd.from_arrow(t).repartition(p),
               lambda ds: entity_resolution(ds, "uri", "name"))


def test_funnel_and_running_sum_invariant(ray_session):
    import ray.data as rd

    from cattle_ray.stages.windows import funnel, grouped_running_sum

    rng = np.random.RandomState(3)
    n = 2000
    base = pd.Timestamp("2024-01-01")
    t = pa.table({
        "event_id": list(range(n)),
        "user_id": rng.randint(0, 50, n).tolist(),
        "ts": [base + pd.Timedelta(seconds=int(s))
               for s in rng.randint(0, 100_000, n)],
        "event_type": [["view", "click", "error", "x"][k]
                       for k in rng.randint(0, 4, n)],
        "cents": rng.randint(1, 500, n).astype("int64").tolist(),
    })
    _invariant(lambda p: rd.from_arrow(t).repartition(p),
               lambda ds: funnel(ds, ["view", "click", "error"]))
    _invariant(lambda p: rd.from_arrow(t).repartition(p),
               lambda ds: grouped_running_sum(
                   ds, key="user_id", ts="ts", val="cents", out="run",
                   order_tiebreak="event_id"))


def test_collocation_invariant(ray_session):
    import ray.data as rd

    from cattle_ray.stages.textstats import collocation_lift

    t = _docs(80)
    _invariant(lambda p: rd.from_arrow(t).repartition(p),
               lambda ds: collocation_lift(ds, min_count=2, k=30))


def test_triangles_invariant(ray_session):
    import ray.data as rd

    from cattle_ray.stages.graph import triangles

    rng = np.random.RandomState(6)
    pairs = {(f"n{min(a, b)}", f"n{max(a, b)}")
             for a, b in rng.randint(0, 50, (500, 2)) if a != b}
    t = pa.table({"u": [p[0] for p in pairs], "v": [p[1] for p in pairs]})
    _invariant(lambda p: rd.from_arrow(t).repartition(p), triangles)


def test_editdist_pairs_invariant(ray_session):
    import ray.data as rd

    from cattle_ray.stages.dedup import editdist_neardup_pairs

    t = _docs()
    rows = _invariant(
        lambda p: rd.from_arrow(t).repartition(p),
        lambda ds: editdist_neardup_pairs(ds, max_dist=8, band_tokens=8))
    assert rows  # planted w0..w9 prefixes share band+tok0 → pairs exist


def test_moving_avg_invariant(ray_session):
    import ray.data as rd

    from cattle_ray.stages.windows import grouped_moving_avg

    rng = np.random.RandomState(4)
    n = 2000
    t = pa.table({
        "user_id": rng.randint(0, 37, n).astype(np.int64),
        "ts": rng.randint(0, 10**6, n).astype(np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "cents": rng.randint(-500, 500, n).astype(np.int64),
    })
    _invariant(
        lambda p: rd.from_arrow(t).repartition(p),
        lambda ds: grouped_moving_avg(ds, key="user_id", ts="ts",
                                      val="cents", window=4,
                                      order_tiebreak="event_id"))


def test_time_window_and_ngrams_invariant(ray_session):
    import ray.data as rd

    from cattle_ray.stages.windows import grouped_time_window, sequence_ngrams

    rng = np.random.RandomState(11)
    n = 3000
    base = pd.Timestamp("2024-01-01")
    t = pa.table({
        "event_id": list(range(n)),
        "user_id": rng.randint(0, 40, n).tolist(),
        "ts": [base + pd.Timedelta(seconds=int(s))
               for s in rng.randint(0, 5000, n)],  # dense -> many exact ties
        "v": rng.randint(-50, 500, n).astype("int64").tolist(),
        "et": [f"e{i}" for i in rng.randint(0, 6, n)],
    })
    _invariant(lambda p: rd.from_arrow(t).repartition(p),
               lambda ds: grouped_time_window(
                   ds, key="user_id", ts="ts", val="v",
                   window_us=60_000_000))
    _invariant(lambda p: rd.from_arrow(t).repartition(p),
               lambda ds: sequence_ngrams(
                   ds, key="user_id", ts="ts", val="et", n=3,
                   order_tiebreak="event_id"))


def _events(n=2000):
    rng = np.random.RandomState(5)
    base = pd.Timestamp("2024-01-01")
    return pa.table({
        "event_id": list(range(n)),
        "user_id": rng.randint(0, 60, n).tolist(),
        "ts": [base + pd.Timedelta(seconds=int(s))
               for s in rng.randint(0, 40_000, n)],
        "event_type": [f"e{k}" for k in rng.randint(0, 5, n)],
        "value": rng.randint(0, 1000, n).astype("int64").tolist(),
    })


def _dup_docs(n=120):
    """_docs with every doc past the first half an exact copy of one of
    the first ten, so near-dup operators have pairs to find."""
    t = _docs(n)
    texts = t["text"].to_pylist()
    texts[n // 2:] = [texts[i % 10] for i in range(n // 2, n)]
    return t.set_column(1, "text", pa.array(texts))


def _vecs(n=120, dim=8):
    rng = np.random.RandomState(21)
    return pa.table({"vec_id": np.arange(n, dtype=np.int64),
                     "embedding": [r.tolist() for r in rng.randn(n, dim)]})


def _moved_op(name):
    """(input table, op) for the operators whose key shuffle is one
    ``bucket_shuffle``."""
    from cattle_ray.stages import (dedup, graph, joins, link, quantiles,
                                   similarity, sketches, textstats, windows)

    if name == "minhash_dedup_pairs":
        return _dup_docs(), lambda ds: dedup.minhash_dedup_pairs(
            ds, threshold=0.7)
    if name == "jaccard_pairs":
        return _dup_docs(), lambda ds: dedup.jaccard_pairs(
            ds, min_jaccard=0.5)
    if name == "snapshot_diff":
        def diff(ds):
            def keep(bit):
                return lambda b: b.filter(pc.not_equal(
                    pc.bit_wise_and(b["doc_id"], bit), 0))
            return dedup.snapshot_diff(
                ds.map_batches(keep(1), batch_format="pyarrow"),
                ds.map_batches(keep(2), batch_format="pyarrow"),
                ["doc_id", "text"])
        return _docs(), diff
    if name == "chunk_exact_dedup":
        return _docs(), lambda ds: dedup.chunk_exact_dedup(ds, chunk_words=5)
    if name == "connected_components_distributed":
        rng = np.random.RandomState(8)
        ab = rng.randint(0, 300, (200, 2)).astype(np.int64)
        return pa.table({"a": ab[:, 0], "b": ab[:, 1]}), \
            lambda ds: dedup.connected_components_distributed(
                ds, small_cc_pairs=0)
    if name == "label_propagation":
        rng = np.random.RandomState(12)
        so = rng.randint(0, 80, (300, 2)).astype(np.int64)
        return pa.table({"s": so[:, 0], "o": so[:, 1]}), \
            graph.label_propagation
    if name == "knn_brute_force":
        q = np.random.RandomState(1).randn(4, 8)
        return _vecs(), lambda ds: similarity.knn_brute_force(ds, q, k=5)
    if name == "cogroup_left":
        def user_total(df):
            return df.groupby("uid", sort=False)[["v"]].sum().reset_index()
        return _events(), lambda ds: joins.cogroup_left([
            (ds.map_batches(lambda b: b.select(["event_id", "user_id"]),
                            batch_format="pyarrow"), "user_id", None),
            (ds.map_batches(lambda b: pa.table({"uid": b["user_id"],
                                                "v": b["value"]}),
                            batch_format="pyarrow"), "uid", user_total)])
    if name == "sessionize":
        return _events(), lambda ds: windows.sessionize(ds, gap="30min")
    if name == "ordered_paths":
        return _events(), lambda ds: windows.ordered_paths(
            ds, order_tiebreak="event_id")
    if name == "inverted_index":
        return _docs(), textstats.inverted_index
    if name == "approx_distinct_by_key":
        return _events(), lambda ds: sketches.approx_distinct_by_key(
            ds, "event_type", "user_id", p=6)
    if name == "grouped_quantile_disc":
        return _events(), lambda ds: quantiles.grouped_quantile_disc(
            ds, "user_id", "value", [0.25, 0.5, 0.9])
    rows = [{"uri": f"http://e/{i:03d}", "name": f"n{i % 9}"}
            for i in range(90)]
    return pa.Table.from_pylist(rows), lambda ds: link.entity_resolution(
        ds, "uri", "name")


@pytest.mark.parametrize("name", [
    "sessionize", "ordered_paths", "inverted_index",
    "approx_distinct_by_key", "grouped_quantile_disc", "entity_resolution",
    "minhash_dedup_pairs", "jaccard_pairs", "snapshot_diff",
    "chunk_exact_dedup", "connected_components_distributed",
    "label_propagation", "knn_brute_force", "cogroup_left"])
def test_bucket_shuffle_ops_one_vs_many_reducers(ray_session, monkeypatch,
                                                 name):
    """The same rows whether the key shuffle finishes at ONE reducer (the
    data-sized default at test scale) or at several (forced by a 1-byte
    per-reducer target): every finish re-keys inside the union of
    buckets it receives."""
    import ray.data as rd

    from cattle_ray.stages import exchange

    used = []
    real = exchange._effective_buckets

    def spy(n_bytes, cap):
        used.append(real(n_bytes, cap))
        return used[-1]

    monkeypatch.setattr(exchange, "_effective_buckets", spy)
    t, op = _moved_op(name)
    one = _sorted_rows(op(rd.from_arrow(t).repartition(3)).to_pandas())
    assert used and all(n == 1 for n in used), used
    used.clear()
    monkeypatch.setattr(exchange, "BUCKET_BYTES", 1)
    many = _sorted_rows(op(rd.from_arrow(t).repartition(3)).to_pandas())
    assert any(n > 1 for n in used), used
    assert one and one == many
