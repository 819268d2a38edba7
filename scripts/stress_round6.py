"""Scale-stress evidence for the sixth-continuation operators
(BASELINE.md "Stress" rows): distributed SCC over a 2M-edge directed
graph (forced onto the FW-BW coloring path), the banded temporal range
join over 5M events, the zero-shuffle co-partitioned store join over 1M
triples per store, the property-table pivot over 6M triples, and URL
canonicalization over 2M messy URLs. Fixture synthesis is untimed.
Fresh Ray session; prints one JSON line.

Run: python scripts/stress_round6.py  (from the repo root)
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    out = {}

    def timed(name, setup):
        run = setup()  # fixture synthesis untimed
        t0 = time.perf_counter()
        r = run()
        out[name] = {"sec": round(time.perf_counter() - t0, 2), **r}
        print(f"[{name}] {out[name]}", file=sys.stderr)

    # --- distributed SCC: 2.2M directed edges over 400k nodes -----------
    # web-ish: a dense 50k-node core (cyclic) + a DAG fringe in/out of it
    def setup_scc():
        rng = np.random.RandomState(7)
        core_n, fringe_n = 50_000, 350_000
        core_e = 1_200_000
        u = rng.randint(0, core_n, core_e).astype(np.int64)
        v = rng.randint(0, core_n, core_e).astype(np.int64)
        # fringe: IN nodes point into the core, core points at OUT nodes
        fin = rng.randint(core_n, core_n + fringe_n // 2, 500_000)
        fin_dst = rng.randint(0, core_n, 500_000)
        fout_src = rng.randint(0, core_n, 500_000)
        fout = rng.randint(core_n + fringe_n // 2, core_n + fringe_n,
                           500_000)
        s = np.concatenate([u, fin, fout_src]).astype(np.int64)
        o = np.concatenate([v, fin_dst, fout]).astype(np.int64)
        edges = rd.from_arrow(pa.table({"s": s, "o": o})) \
            .repartition(32).materialize()

        def run():
            from cattle_ray.stages.graph import scc

            labels = scc(edges, small_graph_edges=0, max_rounds=20)
            import pyarrow.compute as pc

            giant = labels.map_batches(
                lambda t: pa.table({"n": pa.array([t.num_rows], pa.int64()),
                                    "own": pa.array([int(pc.sum(
                                        pc.equal(t["node"], t["scc"])
                                    ).as_py() or 0)], pa.int64())}),
                batch_format="pyarrow")
            tot = giant.sum("n")
            n_sccs = giant.sum("own")
            return {"nodes": int(tot), "sccs": int(n_sccs)}

        return run

    timed("scc_2.2M_edges_distributed", setup_scc)

    # --- banded range join: 5M events, 15-min windows --------------------
    def setup_range_join():
        rng = np.random.RandomState(3)
        n = 5_000_000
        t = pa.table({
            "u": rng.randint(0, 50_000, n).astype(np.int64),
            "ts": rng.randint(0, 30 * 24 * 3600 * 1_000_000,
                              n).astype(np.int64),
        })
        left = rd.from_arrow(t.append_column(
            "tag", pa.array(np.arange(n), pa.int64()))) \
            .repartition(32).materialize()
        right = rd.from_arrow(t.rename_columns(["u", "ts2"])) \
            .repartition(32).materialize()

        def run():
            from cattle_ray.stages.joins import range_join_banded

            pairs = range_join_banded(
                left, right, left_key="u", right_key="u",
                left_ts="ts", right_ts="ts2", lo=0,
                hi=15 * 60 * 1_000_000)
            return {"pairs": int(pairs.count())}

        return run

    timed("range_join_5M_events", setup_range_join)

    # --- co-partitioned store join: 1M triples per store ----------------
    def setup_store_join():
        from cattle_ray.sources.triple_sink import (
            write_triples_hash_partitioned)

        def quads(n, pred, seed):
            rng = np.random.RandomState(seed)
            subj = np.char.add("https://example.org/s/",
                               rng.randint(0, 600_000, n).astype("U7"))
            return pa.table({
                "subj": pa.array(subj, pa.string()),
                "pred": pa.array([pred] * n, pa.string()),
                "obj": pa.array(rng.randint(0, 10**6, n).astype("U7")),
                "obj_is_iri": pa.array(np.zeros(n, bool)),
                "obj_datatype": pa.array([None] * n, pa.string()),
                "obj_lang": pa.array([None] * n, pa.string()),
            })

        da = tempfile.mkdtemp(prefix="stress_store_a_", dir="/tmp")
        db = tempfile.mkdtemp(prefix="stress_store_b_", dir="/tmp")
        write_triples_hash_partitioned(
            rd.from_arrow(quads(1_000_000, "p:a", 1)).repartition(16),
            da, num_partitions=32)
        write_triples_hash_partitioned(
            rd.from_arrow(quads(1_000_000, "p:b", 2)).repartition(16),
            db, num_partitions=32)

        def run():
            from cattle_ray.sources.triple_sink import (
                join_stores_copartitioned)

            j = join_stores_copartitioned(
                da, db, key="subj", columns_a=["subj", "obj"],
                columns_b=["subj", "obj"])
            return {"rows": int(j.count())}

        return run

    timed("copart_store_join_1Mx1M", setup_store_join)

    # --- property-table pivot: 6M triples → 2M wide rows -----------------
    def setup_pivot():
        n_subj = 2_000_000
        preds = ["rank", "name", "score"]
        parts = []
        for p in preds:
            parts.append(pa.table({
                "subj": pa.array(np.arange(n_subj), pa.int64()),
                "pred": pa.array([p] * n_subj, pa.string()),
                "val": pa.array((np.arange(n_subj) % 997).astype("U4")),
            }))
        ds = rd.from_arrow(pa.concat_tables(parts)) \
            .repartition(48).materialize()

        def run():
            from cattle_ray.stages.aggregates import grouped_pivot

            wide = grouped_pivot(ds, "subj", "pred", "val",
                                 {p: p for p in preds})
            return {"rows": int(wide.count())}

        return run

    timed("grouped_pivot_6M_triples", setup_pivot)

    # --- URL canonicalization: 2M messy urls -----------------------------
    def setup_urls():
        n = 2_000_000
        ids = np.arange(n)
        base = np.where(
            ids % 3 == 0,
            np.char.add("HTTPS://Example.ORG:443/Doc/", ids.astype("U8")),
            np.where(ids % 3 == 1,
                     np.char.add(np.char.add("http://example.org:80/doc/",
                                             ids.astype("U8")), "/#frag"),
                     np.char.add(np.char.add("https://example.org/doc/",
                                             ids.astype("U8")),
                                 "?utm_source=x&b=2&a=1")))
        ds = rd.from_arrow(pa.table({"url": pa.array(base, pa.string())})) \
            .repartition(32).materialize()

        def run():
            from cattle_ray.stages.urls import normalize_url_batch

            out = ds.map_batches(normalize_url_batch,
                                 batch_format="pyarrow")
            return {"rows": int(out.count())}

        return run

    timed("url_normalize_2M", setup_urls)

    # --- BGP: 3-pattern chain over 9M triples --------------------------
    def setup_bgp():
        n_subj = 3_000_000
        rng = np.random.RandomState(5)
        subj = np.char.add("s", np.arange(n_subj).astype("U8"))
        parts = [
            pa.table({"subj": pa.array(subj),
                      "pred": pa.array(["rank"] * n_subj),
                      "obj": pa.array((np.arange(n_subj) % 5)
                                      .astype("U2"))}),
            pa.table({"subj": pa.array(subj),
                      "pred": pa.array(["entity"] * n_subj),
                      "obj": pa.array(np.char.add(
                          "E", rng.randint(0, 50_000,
                                           n_subj).astype("U6")))}),
            pa.table({"subj": pa.array(subj),
                      "pred": pa.array(["score"] * n_subj),
                      "obj": pa.array(rng.randint(0, 1000, n_subj)
                                      .astype("U4"))}),
        ]
        ds = rd.from_arrow(pa.concat_tables(parts)) \
            .repartition(48).materialize()

        def run():
            from cattle_ray.stages.bgp import evaluate_bgp

            out = evaluate_bgp(ds, [("?s", "rank", "2"),
                                    ("?s", "entity", "?e"),
                                    ("?s", "score", "?v")])
            return {"bindings": int(out.count())}

        return run

    timed("bgp_3pattern_9M_triples", setup_bgp)

    # --- classifier scoring: 1M docs, one LinearScorer mapped as tasks -
    def setup_classifier():
        from cattle_ray.stages.classify import build_wordlist_model

        n = 1_000_000
        words = np.array(["science", "click", "alpha", "beta", "gamma",
                          "proof", "buy", "delta"])
        rng = np.random.RandomState(2)
        texts = np.char.add(
            np.char.add(words[rng.randint(0, 8, n)], " "),
            np.char.add(words[rng.randint(0, 8, n)],
                        np.char.add(" ", words[rng.randint(0, 8, n)])))
        ds = rd.from_arrow(pa.table({"text": pa.array(texts, pa.string())})) \
            .repartition(32).materialize()
        model = build_wordlist_model(
            1 << 18, positive={"science": 2.0}, negative={"click": 1.0})

        def run():
            from cattle_ray.stages.classify import LinearScorer

            out = ds.map_batches(LinearScorer(model=model),
                                 batch_format="pyarrow")
            return {"rows": int(out.count())}

        return run

    timed("classifier_score_1M_docs", setup_classifier)

    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
