"""Semi/anti join: exact broadcast set and Bloom-filter scale path."""

import numpy as np
import pandas as pd


def test_semi_and_anti_exact(ray_session):
    import ray.data as rd

    from cattle_ray.stages.joins import semi_join

    left = rd.from_pandas(pd.DataFrame({"k": list(range(20)), "v": list(range(20))}))
    keys = rd.from_pandas(pd.DataFrame({"k2": [2, 4, 6, 99]}))
    semi = semi_join(left, keys, "k", "k2").to_pandas()
    anti = semi_join(left, keys, "k", "k2", anti=True).to_pandas()
    assert sorted(semi["k"]) == [2, 4, 6]
    assert sorted(anti["k"]) == sorted(set(range(20)) - {2, 4, 6})


def test_bloom_semi_superset_of_exact(ray_session):
    import ray.data as rd

    from cattle_ray.stages.joins import semi_join

    rng = np.random.RandomState(0)
    left = rd.from_pandas(pd.DataFrame({"k": rng.randint(0, 100000, 5000)}))
    keys = rd.from_pandas(pd.DataFrame({"k2": rng.randint(0, 100000, 500)}))
    exact = set(semi_join(left, keys, "k", "k2").to_pandas()["k"])
    bloom = set(semi_join(left, keys, "k", "k2", use_bloom=True).to_pandas()["k"])
    # Bloom has false positives only: never misses a true match
    assert exact <= bloom
    assert len(bloom - exact) <= max(5, int(0.05 * len(exact) + 50))


def test_bloom_string_keys(ray_session):
    import ray.data as rd

    from cattle_ray.stages.joins import semi_join

    left = rd.from_pandas(pd.DataFrame({"k": [f"u{i}" for i in range(100)]}))
    keys = rd.from_pandas(pd.DataFrame({"k2": ["u1", "u50"]}))
    out = semi_join(left, keys, "k", "k2", use_bloom=True).to_pandas()
    assert {"u1", "u50"} <= set(out["k"])


def test_distributed_path_matches_broadcast(ray_session):
    """Key side above the broadcast cap → fully distributed bucketed path,
    identical result to the broadcast path."""
    import ray.data as rd

    from cattle_ray.stages.joins import semi_join

    left = rd.from_pandas(pd.DataFrame({"k": list(range(50)), "v": range(50)}))
    keys = rd.from_pandas(pd.DataFrame({"k2": [1, 3, 5, 7, 200]}))
    bc = semi_join(left, keys, "k", "k2", anti=True).to_pandas()
    dist = semi_join(left, keys, "k", "k2", anti=True,
                     max_broadcast_keys=0).to_pandas()
    assert sorted(dist["k"]) == sorted(bc["k"])
    semi_d = semi_join(left, keys, "k", "k2", max_broadcast_keys=0).to_pandas()
    assert sorted(semi_d["k"]) == [1, 3, 5, 7]


def test_distributed_string_keys(ray_session):
    import ray.data as rd

    from cattle_ray.stages.joins import semi_join

    left = rd.from_pandas(pd.DataFrame(
        {"url": [f"https://ex.org/{i}" for i in range(40)]}))
    keys = rd.from_pandas(pd.DataFrame(
        {"u2": ["https://ex.org/3", "https://ex.org/7"]}))
    out = semi_join(left, keys, "url", "u2", max_broadcast_keys=0).to_pandas()
    assert sorted(out["url"]) == ["https://ex.org/3", "https://ex.org/7"]


def test_semi_join_empty_key_side(ray_session):
    """Empty key side: anti keeps everything, semi keeps nothing (used to
    KeyError in the broadcast build — empty Datasets lose their schema
    through to_pandas)."""
    import pyarrow as pa
    import ray.data as rd

    from cattle_ray.stages.joins import semi_join

    left = rd.from_arrow(pa.table({"k": [1, 2, 3]}))
    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    # force the empty set through a transform so the schema degrades the
    # same way a filtered-to-nothing pipeline does
    empty = empty.map_batches(lambda b: b, batch_format="pyarrow")
    assert sorted(r["k"] for r in
                  semi_join(left, empty, "k", "k", anti=True).take_all()) == [1, 2, 3]
    assert semi_join(left, empty, "k", "k").take_all() == []


def _rows(ds):
    """(sorted key values, key column Arrow type) of a join result, read in
    Arrow so 64-bit keys and NULLs come back exactly."""
    import ray

    from cattle_ray.stages.exchange import _concat, _nonempty_blocks

    refs, _ = _nonempty_blocks(ds.materialize())
    t = _concat(ray.get(refs))
    return sorted(t["k"].to_pylist(), key=lambda v: (v is None, v)), t["k"].type


BIG = 2 ** 60


def _null_key_sides():
    import pyarrow as pa
    import ray.data as rd

    left = rd.from_arrow(pa.table({"k": pa.array([BIG + 1, BIG + 2, 5], pa.int64()),
                                   "v": [1, 2, 3]}))
    keys = rd.from_arrow(pa.table({"k2": pa.array([BIG + 1, None, 5], pa.int64())}))
    return left, keys


def test_null_in_key_side_keeps_64bit_keys_exact(ray_session):
    """A NULL among the keys never matches and never turns the int64 keys
    into float64: keys above 2^53 stay distinct on both paths."""
    import pyarrow as pa

    from cattle_ray.stages.joins import semi_join

    for kw in ({}, {"max_broadcast_keys": 0}):
        left, keys = _null_key_sides()
        assert _rows(semi_join(left, keys, "k", "k2", **kw)) == \
            ([5, BIG + 1], pa.int64()), kw
        left, keys = _null_key_sides()
        assert _rows(semi_join(left, keys, "k", "k2", anti=True, **kw)) == \
            ([BIG + 2], pa.int64()), kw


def test_null_left_key_never_matches(ray_session):
    """hash_join's contract: a NULL key never matches, so semi drops the
    null-keyed left row and anti keeps it; the key column stays int64."""
    import pyarrow as pa
    import ray.data as rd

    from cattle_ray.stages.joins import semi_join

    for kw in ({}, {"max_broadcast_keys": 0}):
        left = rd.from_arrow(pa.table({
            "k": pa.array([BIG + 1, BIG + 2, 5, None], pa.int64()),
            "v": [1, 2, 3, 4]}))
        keys = rd.from_arrow(pa.table({"k2": pa.array([BIG + 1, None, 5],
                                                      pa.int64())}))
        assert _rows(semi_join(left, keys, "k", "k2", **kw)) == \
            ([5, BIG + 1], pa.int64()), kw
        assert _rows(semi_join(left, keys, "k", "k2", anti=True, **kw)) == \
            ([BIG + 2, None], pa.int64()), kw
