"""Transitive closure: tree/DAG/cycle semantics, both execution paths."""

import pyarrow as pa
import pytest
import ray.data as rd

import cattle_ray.stages.graph as graph

#: graph constants patched per run: SMALL_CLOSURE_EDGES=0 forces the
#: distributed doubling loop; {} keeps the in-process crossover —
#: semantics must be identical
PATHS = [{"SMALL_CLOSURE_EDGES": 0}, {}]


def _edges(pairs, blocks=2):
    return rd.from_arrow(pa.table({
        "s": [p[0] for p in pairs], "o": [p[1] for p in pairs]
    })).repartition(blocks)


def _pairs(ds):
    return sorted((r["s"], r["o"]) for r in ds.take_all())


def _closure(pairs, kw):
    """``transitive_closure`` pairs with ``graph``'s constants set to
    ``kw`` for the run (restored in ``finally``)."""
    old = {k: getattr(graph, k) for k in kw}
    try:
        for k, v in kw.items():
            setattr(graph, k, v)
        return _pairs(graph.transitive_closure(_edges(pairs)))
    finally:
        for k, v in old.items():
            setattr(graph, k, v)


@pytest.mark.parametrize("kw", PATHS)
def test_chain_closure(ray_session, kw):
    got = _closure([("a", "b"), ("b", "c"), ("c", "d")], kw)
    assert got == [("a", "b"), ("a", "c"), ("a", "d"),
                   ("b", "c"), ("b", "d"), ("c", "d")]
    # a longer chain: the in-process loop runs until its frontier
    # empties, the Dataset side path-doubles to its fixpoint
    chain = [f"n{i}" for i in range(9)]
    got = _closure(list(zip(chain, chain[1:])), kw)
    assert got == sorted((a, b) for i, a in enumerate(chain)
                         for b in chain[i + 1:])


@pytest.mark.parametrize("kw", PATHS)
def test_diamond_dag_dedups_paths(ray_session, kw):
    # two distinct paths a→d collapse to ONE closure pair
    got = _closure([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], kw)
    assert got == [("a", "b"), ("a", "c"), ("a", "d"),
                   ("b", "d"), ("c", "d")]


@pytest.mark.parametrize("kw", PATHS)
def test_cycle_reaches_self(ray_session, kw):
    got = _closure([("a", "b"), ("b", "a")], kw)
    assert got == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


def test_paths_agree_on_random_dag(ray_session):
    # 60-node layered DAG: i → i//2 tree plus shortcut edges
    pairs = [(f"n{i}", f"n{i // 2}") for i in range(1, 60)]
    pairs += [(f"n{i}", f"n{max(0, i - 7)}") for i in range(7, 60, 11)]
    a = _closure(pairs, PATHS[0])
    b = _closure(pairs, PATHS[1])
    assert a == b and len(a) >= len(pairs)
