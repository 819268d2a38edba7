"""Independent references the benchmark checks the package's outputs
against: plain pyarrow and Python over tables held in memory."""

from __future__ import annotations

import glob
from collections import Counter, deque

import pyarrow as pa
import pyarrow.parquet as pq

#: quad identity (FIXTURES.md §5): everything but the src_url lineage
QUAD_COLS = ["subj", "pred", "obj", "obj_is_iri", "obj_datatype", "obj_lang",
             "graph"]


def quad_set(tbl: pa.Table) -> frozenset:
    cols = [tbl[c].to_pylist() for c in QUAD_COLS]
    return frozenset(zip(*cols))


def read_store(store_dir: str) -> pa.Table:
    """Every partition file of a store, read with plain pyarrow."""
    parts = sorted(glob.glob(f"{store_dir}/part_id=*/data.parquet"))
    return pa.concat_tables([pq.read_table(p) for p in parts])


def kg_reference(pages: pa.Table, graph: str) -> frozenset:
    """The pipeline's fused per-batch kernel run once in this process over
    all pages, deduplicated as a Python set — no Ray, no exchange, no
    sink."""
    from cattle_ray.aliases import alias_table
    from cattle_ray.pipelines.kg import TEMPLATES_BY_SIGNATURE, KgStage
    from cattle_ray.stages.link import build_alias_index

    stage = KgStage(TEMPLATES_BY_SIGNATURE, graph,
                    alias_index=build_alias_index(alias_table()))
    return quad_set(stage(pages))


class StoreModel:
    """The store's rows, given as quad tuples in ``QUAD_COLS`` order, held
    in memory and answering each query op by plain dictionary and set
    evaluation."""

    def __init__(self, quads):
        self.rows = [q[:4] for q in quads]  # subj, pred, obj, obj_is_iri

    def subject(self, s: str) -> Counter:
        return Counter((p, o) for s2, p, o, _ in self.rows if s2 == s)

    def subjects_of(self, p: str, o: str) -> set:
        return {s for s, p2, o2, _ in self.rows if p2 == p and o2 == o}

    def star(self, p_key: str, key: str, p_val: str) -> Counter:
        """``?s p_key key . ?s p_val ?v`` → multiset of (s, v)."""
        by: dict = {}
        for s, p, o, _ in self.rows:
            by.setdefault((s, p), []).append(o)
        return Counter(
            (s, v)
            for (s, p), os_ in by.items() if p == p_key
            for _ in range(os_.count(key))
            for v in by.get((s, p_val), []))

    def reachable(self, seed: str, p: str) -> set:
        """``seed p+ ?y``: breadth-first search over IRI-object edges."""
        adj: dict = {}
        for s, p2, o, is_iri in self.rows:
            if p2 == p and is_iri:
                adj.setdefault(s, []).append(o)
        seen, todo = set(), deque([seed])
        while todo:
            for y in adj.get(todo.popleft(), []):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    def count_by_object(self, p: str) -> Counter:
        return Counter(o for _, p2, o, _ in self.rows if p2 == p)
