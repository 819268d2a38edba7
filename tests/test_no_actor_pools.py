"""Stateless stages map one driver-built instance as plain Ray tasks: running
them starts no actor pool, and every Ray CPU comes back once they finish.
(``textstats.lm_score`` keeps its pool by a recorded A/B, so it is not
here.)"""

import pandas as pd


def _map_worker_ids() -> set:
    from ray._private import state

    return {aid for aid, a in state.actors().items()
            if a["ActorClassName"].startswith("MapWorker(")}


def test_migrated_stages_start_no_actor_pool(ray_session, free_cpus_settle):
    import gc

    import ray
    import ray.data as rd

    from cattle_ray.stages.classify import build_wordlist_model, classifier_filter
    from cattle_ray.stages.dedup import minhash_dedup_pairs

    base = "the quick brown fox jumps over the lazy dog near the river bank"
    docs = pd.DataFrame({
        "doc_id": range(6),
        "text": [base, base + " today", "science proof theorem data",
                 "click here to buy now", "a neutral line of words", ""],
    })
    model = build_wordlist_model(1 << 12, positive={"science": 2.0},
                                 negative={"click": 2.0})

    total = ray.cluster_resources()["CPU"]
    gc.collect()  # what earlier tests in this session left behind
    assert free_cpus_settle() == total
    before = _map_worker_ids()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ds = rd.from_pandas(docs).repartition(2)
        kept = classifier_filter(ds, model, threshold=0.5).to_pandas()
        assert list(kept["doc_id"]) == [2]
        pairs = minhash_dedup_pairs(ds, threshold=0.7).to_pandas()
        assert list(zip(pairs["a"], pairs["b"])) == [(0, 1)]
        assert _map_worker_ids() - before == set()
        assert free_cpus_settle() == total
    finally:
        if was_enabled:
            gc.enable()
