"""``bucket_shuffle`` parity: the bucketed joins and aggregates give the
same row multiset as a pandas reference whether the exchange runs as ONE
reducer (the data-sized default at test scale) or as several (forced by
shrinking the per-reducer byte target), on empty inputs and NULL keys
included."""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(params=["one", "many"])
def reducers(request, monkeypatch):
    """Run the test body at one reducer or at several; yields the list of
    reducer counts the exchange actually used, for the mode check."""
    from cattle_ray.stages import exchange

    used = []
    real = exchange._effective_buckets

    def spy(n_bytes, cap):
        used.append(real(n_bytes, cap))
        return used[-1]

    monkeypatch.setattr(exchange, "_effective_buckets", spy)
    if request.param == "many":
        # 1 byte per reducer: every non-empty shuffle runs at its cap
        monkeypatch.setattr(exchange, "BUCKET_BYTES", 1)
    yield request.param, used
    if used:
        assert all((n == 1) == (request.param == "one") for n in used), used


def _rows(df: pd.DataFrame, cols) -> list:
    """Order-free multiset of rows; NaN/None/NA all compare as None."""
    def norm(v):
        if v is None or v is pd.NA or (isinstance(v, float) and math.isnan(v)):
            return None
        return v

    return sorted((tuple(norm(v) for v in r) for r in
                   df[list(cols)].itertuples(index=False, name=None)),
                  key=repr)


def _ds(table: pa.Table, parts: int = 4):
    import ray.data as rd

    if len(table) == 0:
        return rd.from_arrow(table)
    step = -(-len(table) // parts)
    return rd.from_arrow([table.slice(i, step)
                          for i in range(0, len(table), step)])


@pytest.fixture(scope="module")
def sides():
    rng = np.random.RandomState(11)
    lk = [None if i % 13 == 0 else f"k{v}"
          for i, v in enumerate(rng.randint(0, 30, 300))]
    rk = [None if i % 7 == 0 else f"k{v}"
          for i, v in enumerate(rng.randint(0, 40, 120))]
    left = pa.table({"k": pa.array(lk, pa.string()),
                     "id": pa.array(np.arange(300), pa.int64())})
    right = pa.table({"k2": pa.array(rk, pa.string()),
                      "v": pa.array(rng.randint(0, 100, 120), pa.int64())})
    return left, right


def _ref_join(left: pa.Table, right: pa.Table, how: str) -> pd.DataFrame:
    # SQL rule: a NULL key never matches; left-join keeps its NULL rows
    l, r = left.to_pandas(), right.to_pandas()
    r = r[r["k2"].notna()]
    if how == "inner":
        l = l[l["k"].notna()]
    return l.merge(r, left_on="k", right_on="k2", how=how)


@pytest.mark.parametrize("how", ["inner", "left"])
def test_hash_join_parity(ray_session, reducers, sides, how):
    from cattle_ray.stages.joins import hash_join

    left, right = sides
    out = hash_join(_ds(left), _ds(right), "k", "k2", how=how,
                    num_buckets=8).to_pandas()
    cols = ["k", "id", "k2", "v"]
    assert _rows(out, cols) == _rows(_ref_join(left, right, how), cols)
    assert reducers[1], "the join did not shuffle"


@pytest.mark.parametrize("how", ["inner", "left"])
def test_hash_join_empty_side_typed(ray_session, reducers, sides, how):
    from cattle_ray.stages.joins import hash_join

    left, right = sides
    for lt, rt in ((left, right.slice(0, 0)), (left.slice(0, 0), right),
                   (left.slice(0, 0), right.slice(0, 0))):
        out = hash_join(_ds(lt), _ds(rt), "k", "k2", how=how,
                        num_buckets=8)
        want = _ref_join(lt, rt, how)
        if len(want):
            assert _rows(out.to_pandas(), ["k", "id", "k2", "v"]) == \
                _rows(want, ["k", "id", "k2", "v"])
        else:  # Ray's to_pandas of an empty Dataset has no columns at all
            assert out.count() == 0
        # the empty result still carries its typed columns
        assert out.schema().names == ["k", "id", "k2", "v"]
        for t in (_block(ref) for ref in out.to_arrow_refs()):
            assert t.num_columns == 4


def _block(ref) -> pa.Table:
    import ray

    return ray.get(ref)


@pytest.fixture(scope="module")
def facts():
    rng = np.random.RandomState(5)
    n = 400
    g = [None if i % 17 == 0 else f"g{v}"
         for i, v in enumerate(rng.randint(0, 25, n))]
    return pa.table({
        "g": pa.array(g, pa.string()),
        "h": pa.array(rng.randint(0, 3, n), pa.int64()),
        "v": pa.array(rng.randint(-50, 50, n), pa.int64()),
        "w": pa.array([f"w{x}" for x in rng.randint(0, 9, n)], pa.string()),
    })


def test_partial_count_parity(ray_session, reducers, facts):
    from cattle_ray.stages.aggregates import partial_count

    out = partial_count(_ds(facts), ["g", "h"], num_buckets=8).to_pandas()
    want = facts.to_pandas().groupby(["g", "h"], dropna=False).size() \
        .reset_index(name="n")
    assert _rows(out, ["g", "h", "n"]) == _rows(want, ["g", "h", "n"])
    assert reducers[1]


def test_distinct_parity(ray_session, reducers, facts):
    from cattle_ray.stages.aggregates import distinct

    out = distinct(_ds(facts), ["g", "w"], num_buckets=8).to_pandas()
    want = facts.to_pandas()[["g", "w"]].drop_duplicates()
    assert _rows(out, ["g", "w"]) == _rows(want, ["g", "w"])
    assert reducers[1]


def test_grouped_agg_parity(ray_session, reducers, facts):
    from cattle_ray.stages.aggregates import grouped_agg

    specs = {"s": ("sum", "v"), "lo": ("min", "v"), "hi": ("max", "v"),
             "c": ("concat", "w", ",")}
    out = grouped_agg(_ds(facts), ["g"], specs, num_buckets=8).to_pandas()
    df = facts.to_pandas()
    gb = df.groupby("g", dropna=False)
    want = pd.DataFrame({
        "s": gb["v"].sum(), "lo": gb["v"].min(), "hi": gb["v"].max(),
        "c": gb["w"].agg(lambda s: ",".join(sorted(s))),
        "n": gb.size()}).reset_index()
    cols = ["g", "s", "lo", "hi", "c", "n"]
    assert _rows(out, cols) == _rows(want, cols)
    assert reducers[1]


@pytest.mark.parametrize("op", ["partial_count", "distinct", "grouped_agg"])
def test_aggregates_empty_input(ray_session, reducers, facts, op):
    from cattle_ray.stages import aggregates

    empty = _ds(facts.slice(0, 0))
    if op == "partial_count":
        out = aggregates.partial_count(empty, ["g"], num_buckets=8)
    elif op == "distinct":
        out = aggregates.distinct(empty, ["g"], num_buckets=8)
    else:
        out = aggregates.grouped_agg(empty, ["g"], {"s": ("sum", "v")},
                                     num_buckets=8)
    assert out.count() == 0
    # no zero-column block is passed along for an empty result
    assert all(_block(r).num_columns > 0 for r in out.to_arrow_refs())
