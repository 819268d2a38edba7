"""Frontier-at-a-time BFS: min distances, direction, early exit."""

import pyarrow as pa
import ray.data as rd

from cattle_ray.stages.graph import bfs

#       a - b - c - d     (chain)  +  a - c  (shortcut)
EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")]


def _edges(pairs, blocks=2):
    s = [p[0] for p in pairs]
    o = [p[1] for p in pairs]
    return rd.from_arrow(pa.table({"s": s, "o": o})).repartition(blocks)


def _dists(ds):
    return {r["node"]: r["dist"] for r in ds.take_all()}


def test_bfs_min_distance_wins(ray_session):
    # c is reachable at hop 2 (a→b→c) AND hop 1 (a→c): dist must be 1
    d = _dists(bfs(_edges(EDGES), ["a"], hops=3))
    assert d == {"a": 0, "b": 1, "c": 1, "d": 2}


def test_bfs_hop_cap(ray_session):
    d = _dists(bfs(_edges([("a", "b"), ("b", "c"), ("c", "d")]), ["a"], hops=2))
    assert d == {"a": 0, "b": 1, "c": 2}  # d is 3 hops out — capped


def test_bfs_directed(ray_session):
    d = _dists(bfs(_edges([("a", "b"), ("c", "b")]), ["a"], hops=3,
                   undirected=False))
    assert d == {"a": 0, "b": 1}  # c only reaches b, never reachable FROM a


def test_bfs_multi_seed_and_early_exit(ray_session):
    # two components; hops=10 must stop as soon as frontiers empty
    d = _dists(bfs(_edges([("a", "b"), ("x", "y")]), ["a", "x"], hops=10))
    assert d == {"a": 0, "x": 0, "b": 1, "y": 1}


def test_bfs_isolated_seed(ray_session):
    d = _dists(bfs(_edges([("a", "b")]), ["zzz"], hops=2))
    assert d == {"zzz": 0}


def _walk_edges(pairs, blocks=2):
    return _edges(pairs, blocks)


def test_random_walks_deterministic_and_layout_invariant(ray_session):
    import pyarrow as pa

    from cattle_ray.stages.graph import random_walks

    pairs = [(f"n{i}", f"n{j}") for i in range(8) for j in range(8) if i != j]
    seeds = rd.from_arrow(pa.table({"seed": [f"n{i}" for i in range(4)]}))

    def run(blocks):
        out = random_walks(_walk_edges(pairs, blocks), seeds, steps=3,
                           walks_per_seed=2)
        return sorted((r["seed"], r["w"], r["step"], r["node"])
                      for r in out.take_all())

    a, b = run(1), run(4)
    assert a == b
    # every walk has a full trajectory: 4 seeds × 2 walks × 4 levels
    assert len(a) == 4 * 2 * 4


def test_random_walks_chain_choice_matches_formula(ray_session):
    import pyarrow as pa

    from cattle_ray.stages.graph import random_walks

    # node n0 has neighbors [n1, n2] (dst-sorted); at step 1, walk w:
    # r = (w*1000003 + 1*7919 + 0*104729) % 2 → w=0: 1 → n2 ; w=1: 0 → n1
    edges = _walk_edges([("n0", "n1"), ("n0", "n2")])
    seeds = rd.from_arrow(pa.table({"seed": ["n0"]}))
    out = {(r["w"], r["step"]): r["node"]
           for r in random_walks(edges, seeds, steps=1,
                                 walks_per_seed=2).take_all()}
    assert out[(0, 1)] == "n2"
    assert out[(1, 1)] == "n1"


def test_random_walks_dead_end_terminates(ray_session):
    import pyarrow as pa

    from cattle_ray.stages.graph import random_walks

    # directed a→b, b has no out-edges: walk ends after step 1
    edges = _walk_edges([("a1", "b2")])
    seeds = rd.from_arrow(pa.table({"seed": ["a1"]}))
    rows = sorted((r["step"], r["node"]) for r in
                  random_walks(edges, seeds, steps=3,
                               walks_per_seed=1).take_all())
    assert rows == [(0, "a1"), (1, "b2")]


def test_bfs_labeled_local_vs_distributed(ray_session):
    """Per-root reach pairs of the seeded path kernel (``closure`` with
    a Dataset of roots, {0,∞}) are identical across the small-input
    in-process path and the forced-distributed path
    (SMALL_CLOSURE_EDGES=0); identity rows for every root, edge-less
    roots included."""
    import pyarrow as pa

    import cattle_ray.stages.graph as graph

    edges = rd.from_arrow(pa.table({
        "subj": ["a", "b", "c", "x"],
        "obj": ["b", "c", "d", "y"]}))
    seeds = rd.from_arrow(pa.table({"subj": ["a", "c", "z"]}))
    exp = sorted([("a", "a"), ("a", "b"), ("a", "c"), ("a", "d"),
                  ("c", "c"), ("c", "d"), ("z", "z")])
    old = graph.SMALL_CLOSURE_EDGES
    try:
        for forced in (None, 0):
            if forced is not None:
                graph.SMALL_CLOSURE_EDGES = forced
            got = sorted(
                (r["subj"], r["obj"])
                for r in graph.closure(edges, 0, None, seeds).take_all())
            assert got == exp, (forced, got)
    finally:
        graph.SMALL_CLOSURE_EDGES = old


def test_bfs_labeled_hop_bound_raises(ray_session):
    """An unbounded closure whose frontier is still non-empty at the
    STAR_MAX_HOPS level raises instead of truncating, on both paths."""
    import pyarrow as pa
    import pytest

    import cattle_ray.stages.graph as graph

    edges = rd.from_arrow(pa.table({
        "subj": ["a", "b", "c"], "obj": ["b", "c", "d"]}))
    seeds = rd.from_arrow(pa.table({"subj": ["a"]}))
    old = graph.SMALL_CLOSURE_EDGES, graph.STAR_MAX_HOPS
    try:
        graph.STAR_MAX_HOPS = 2
        for forced in (None, 0):
            if forced is not None:
                graph.SMALL_CLOSURE_EDGES = forced
            with pytest.raises(ValueError, match="hop bound"):
                graph.closure(edges, 0, None, seeds).take_all()
    finally:
        graph.SMALL_CLOSURE_EDGES, graph.STAR_MAX_HOPS = old
