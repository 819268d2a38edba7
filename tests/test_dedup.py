"""Dedup family: exact, MinHash-LSH, SimHash, token Jaccard, embedding LSH."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from cattle_ray.stages.dedup import (
    connected_components,
    dedup_exact,
    embedding_neardup_pairs,
    jaccard_pairs,
    minhash_dedup_pairs,
    minhash_signature,
    shingle_hashes,
    simhash64,
    simhash_pairs,
)


def _docs_with_dups():
    base = (
        "the quick brown fox jumps over the lazy dog and runs far away "
        "through the green fields toward the old stone bridge every morning"
    )
    near = base.replace("green", "blue")  # 1-word change → high jaccard
    far = "completely different content about databases and query engines here"
    rows = []
    for i in range(30):
        if i % 3 == 0:
            rows.append({"doc_id": i, "text": base})
        elif i % 3 == 1:
            rows.append({"doc_id": i, "text": near})
        else:
            rows.append({"doc_id": i, "text": far + f" tail{i}"})
    return pd.DataFrame(rows)


def test_dedup_exact_keeps_min_id(ray_session):
    import ray.data as rd

    ds = rd.from_pandas(_docs_with_dups())
    out = dedup_exact(ds, ["text"], keep_col="doc_id").to_pandas()
    # base appears 10×, near 10×, far distinct per row (10 distinct)
    assert len(out) == 12
    kept_base = out[out["text"].str.contains("green fields")]["doc_id"].iloc[0]
    assert kept_base == 0  # min doc_id survives


def test_minhash_estimates_jaccard():
    a = shingle_hashes("the quick brown fox jumps over the lazy dog again today", 3)
    b = shingle_hashes("the quick brown fox jumps over the lazy cat again today", 3)
    sa, sb = minhash_signature(a), minhash_signature(b)
    est = (sa == sb).mean()
    inter = len(np.intersect1d(a, b))
    true_j = inter / (len(a) + len(b) - inter)
    assert abs(est - true_j) < 0.2


def test_minhash_lsh_finds_neardups(ray_session):
    import ray.data as rd

    ds = rd.from_pandas(_docs_with_dups())
    pairs = minhash_dedup_pairs(ds, threshold=0.7).to_pandas()
    # all 10 base copies pair with each other (est_jaccard=1), base~near too
    ids_base = set(range(0, 30, 3))
    got_pairs = set(zip(pairs["a"], pairs["b"]))
    assert (0, 3) in got_pairs
    comp = connected_components(pairs)
    roots = {comp.get(i, i) for i in ids_base}
    assert len(roots) == 1  # one cluster for all base copies


def test_minhash_join_verify_path(ray_session):
    """The at-scale verification path (co-partitioned sig joins, broadcast
    disabled) finds the same pairs as the broadcast path."""
    import ray.data as rd

    from cattle_ray.stages.dedup import minhash_dedup_pairs

    ds = rd.from_pandas(_docs_with_dups())
    broadcast = minhash_dedup_pairs(ds, threshold=0.7).to_pandas()
    joined = minhash_dedup_pairs(ds, threshold=0.7, sig_broadcast_max=0).to_pandas()
    key = lambda df: sorted(zip(df["a"], df["b"]))
    assert key(broadcast) == key(joined)


def test_simhash_hamming_zero_for_identical():
    assert simhash64("same text here") == simhash64("same text here")
    assert simhash64("") == 0


def test_simhash_pairs(ray_session):
    import ray.data as rd

    ds = rd.from_pandas(_docs_with_dups())
    pairs = simhash_pairs(ds, max_hamming=3).to_pandas()
    got = set(zip(pairs["a"], pairs["b"]))
    assert (0, 3) in got  # identical docs → hamming 0


def test_jaccard_pairs_exact(ray_session):
    import ray.data as rd

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["a b c d", "a b c e", "x y z w"],
        }
    )
    out = jaccard_pairs(rd.from_pandas(df), min_jaccard=0.1).to_pandas()
    row = out[(out["a"] == 1) & (out["b"] == 2)].iloc[0]
    assert row["intersection"] == 3
    assert abs(row["jaccard"] - 3 / 5) < 1e-12
    assert len(out[(out["a"] == 1) & (out["b"] == 3)]) == 0


def test_embedding_neardup(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(0)
    base = rng.randn(8)
    rows = []
    for i in range(20):
        if i < 10:
            v = base + rng.randn(8) * 0.01  # near-dups of base
        else:
            v = rng.randn(8)
        rows.append({"vec_id": i, "embedding": v.tolist()})
    ds = rd.from_pandas(pd.DataFrame(rows))
    pairs = embedding_neardup_pairs(ds, threshold=0.98, num_planes=6).to_pandas()
    got = set(zip(pairs["a"], pairs["b"]))
    # most near-dup pairs among ids 0..9 found (LSH recall < 1 by design)
    hits = sum(1 for a in range(10) for b in range(a + 1, 10) if (a, b) in got)
    assert hits >= 20
    assert all(p >= 0.98 for p in pairs["cosine"])


def test_embedding_neardup_pairs_only_within_lsh_bucket(ray_session):
    """Pairs equal a numpy reference that pairs only vectors sharing a
    hyperplane bucket. The fixture plants an above-threshold pair split
    across two buckets (mirrored through one plane): one reducer holds
    every bucket at this size, so the finish must loop per bucket."""
    import ray.data as rd

    from cattle_ray.stages.dedup import rng_planes

    dim, num_planes, thr = 8, 6, 0.95
    planes = rng_planes(dim, num_planes, 42)
    rng = np.random.RandomState(3)
    vecs = []
    for _ in range(12):  # near-dup groups, mostly within one bucket
        base = rng.randn(dim)
        vecs += [base, base + rng.randn(dim) * 0.01]
    p0 = planes[0] / np.linalg.norm(planes[0])
    x = rng.randn(dim)
    x -= (x @ p0) * p0  # on plane 0; ±eps along its normal splits the pair
    vecs += [x + 0.05 * p0, x - 0.05 * p0]
    vecs = np.array(vecs)

    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    bucket = ((unit @ planes.T > 0).astype(np.int64)
              << np.arange(num_planes)).sum(axis=1)
    sims = unit @ unit.T
    n = len(vecs)
    ref = {(i, j) for i in range(n) for j in range(i + 1, n)
           if bucket[i] == bucket[j] and sims[i, j] >= thr}
    split = (n - 2, n - 1)
    assert bucket[split[0]] != bucket[split[1]] and sims[split] >= thr
    assert ref  # the within-bucket pairs exist

    ds = rd.from_pandas(pd.DataFrame(
        {"vec_id": np.arange(n), "embedding": [v.tolist() for v in vecs]}))
    out = embedding_neardup_pairs(ds, threshold=thr,
                                  num_planes=num_planes).to_pandas()
    assert set(zip(out["a"], out["b"])) == ref


def test_minhash_sig_persistence_parity(ray_session, tmp_path):
    """sig_path= (extreme-scale Parquet signature persistence) must produce
    exactly the same pairs as the in-memory materialize path."""
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.dedup import minhash_dedup_pairs

    rows = [{"doc_id": i, "text": f"totally distinct text number {i} " * 4}
            for i in range(40)]
    rows += [{"doc_id": 200 + i, "text": rows[i]["text"]} for i in range(3)]
    ds = rd.from_pandas(pd.DataFrame(rows))
    mem = minhash_dedup_pairs(ds, threshold=0.9).to_pandas()
    ds2 = rd.from_pandas(pd.DataFrame(rows))
    disk = minhash_dedup_pairs(ds2, threshold=0.9,
                               sig_path=str(tmp_path / "sigs")).to_pandas()
    key = lambda df: sorted(zip(df["a"], df["b"], df["est_jaccard"].round(9)))
    assert key(mem) == key(disk)
    assert len(mem) >= 3
    import os
    assert any(f.endswith(".parquet") for f in os.listdir(tmp_path / "sigs"))


def test_latest_by_key_keeps_newest_per_key(ray_session):
    """Recrawl upsert: duplicated urls keep the max-ts capture; ts ties
    break deterministically on tie_cols; layout-invariant."""
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.dedup import latest_by_key

    df = pd.DataFrame({
        "url": ["u1", "u1", "u2", "u2", "u2", "u3", "u4", "u4"],
        "warc_ts": [5, 9, 3, 3, 1, 7, 2, 2],
        "body": ["a", "b", "c", "d", "e", "f", "g", "h"],
    })
    for parts in (1, 4):
        out = latest_by_key(rd.from_pandas(df).repartition(parts),
                            "url", "warc_ts", tie_cols=("body",)).to_pandas()
        got = dict(zip(out["url"], out["body"]))
        # u2: ts tie 3/3 → smaller body "c"; u4: tie 2/2 → "g"
        assert got == {"u1": "b", "u2": "c", "u3": "f", "u4": "g"}, parts


def test_grouped_mode_deterministic_tiebreak(ray_session):
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.aggregates import grouped_mode

    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 2, 2, 3],
        "v": ["x", "y", "x", "a", "b", "b", "a", "z"],
    })
    out = grouped_mode(rd.from_pandas(df).repartition(3), "k", "v").to_pandas()
    got = {r.k: (r.v, r.n) for r in out.itertuples()}
    # k=2 ties a:2 b:2 → value-ascending tie-break picks "a"
    assert got == {1: ("x", 2), 2: ("a", 2), 3: ("z", 1)}


def test_grouped_minmax_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.aggregates import grouped_minmax

    rng = np.random.RandomState(11)
    df = pd.DataFrame({"k": rng.randint(0, 40, 500),
                       "v": rng.randint(-1000, 1000, 500)})
    ds = rd.from_pandas(df).repartition(6)
    for agg, ref in (("min", df.groupby("k")["v"].min()),
                     ("max", df.groupby("k")["v"].max())):
        out = grouped_minmax(ds, ["k"], "v", agg).to_pandas()
        got = dict(zip(out["k"], out["v"]))
        assert got == ref.to_dict(), agg


def test_dup_span_stats_planted_overlap(ray_session):
    """Two docs share one exact 5-word span; a third is unique: shared
    windows (and only those) count as duplicated, fraction = dup/total."""
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.dedup import dup_span_stats

    shared = "the quick brown fox jumps"
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": [f"alpha beta {shared} gamma",
                 f"{shared} delta epsilon zeta",
                 "one two three four five six"],
    })
    out = dup_span_stats(rd.from_pandas(df).repartition(3), k=5).to_pandas()
    got = {r.doc_id: (r.n_grams, r.n_dup, r.dup_frac) for r in out.itertuples()}
    # doc1: 8 tokens → 4 windows, 1 is the shared span ("the quick brown
    # fox jumps" occurs at alignment [2..6]); doc2: likewise 4 windows,
    # 1 shared; doc3: 2 windows, none shared
    assert got[1] == (4, 1, 0.25)
    assert got[2] == (4, 1, 0.25)
    assert got[3] == (2, 0, 0.0)


def test_dup_span_stats_no_duplicates_anywhere(ray_session):
    """Corpus where no k-gram repeats: every doc reports 0 coverage (the
    empty-dup-census short-circuit, which used to crash on a schema-less
    empty join side)."""
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.dedup import dup_span_stats

    df = pd.DataFrame({"doc_id": [1, 2],
                       "text": ["a b c d e f", "q r s t u v"]})
    out = dup_span_stats(rd.from_pandas(df).repartition(2), k=5).to_pandas()
    assert sorted(out["n_grams"]) == [2, 2]
    assert (out["n_dup"] == 0).all() and (out["dup_frac"] == 0.0).all()


def test_partial_count_reports_null_group(ray_session):
    """SQL GROUP BY reports the NULL group — the engine's count/sum/minmax
    finishes must too (regression: pandas dropna used to silently discard
    rows whose key is null after they'd already paid the shuffle)."""
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.aggregates import (grouped_minmax, grouped_sums,
                                              partial_count)

    df = pd.DataFrame({"k": ["a", None, "a", None, "b"],
                       "v": [1, 2, 3, 4, 5]})
    ds = rd.from_pandas(df).repartition(2)
    def norm(k):
        return None if (k is None or (isinstance(k, float) and k != k)) else k

    pc_ = {norm(r["k"]): r["n"] for r in partial_count(ds, ["k"]).take_all()}
    assert pc_ == {"a": 2, None: 2, "b": 1}
    gs = {norm(r["k"]): r["sum_v"]
          for r in grouped_sums(ds, ["k"], ["v"]).take_all()}
    assert gs == {"a": 4, None: 6, "b": 5}
    mm = {norm(r["k"]): r["v"]
          for r in grouped_minmax(ds, ["k"], "v", "max").take_all()}
    assert mm == {"a": 3, None: 4, "b": 5}


def test_levenshtein_pairs_matches_duckdb_bytes():
    """Pair-axis-vectorized DP must equal DuckDB's (byte-based) levenshtein
    on random unicode pairs, including empty strings."""
    import random
    import string

    import duckdb

    from cattle_ray.stages.dedup import _levenshtein_pairs

    random.seed(11)
    sa, sb = [], []
    for _ in range(200):
        a = "".join(random.choices(string.ascii_lowercase + " üé",
                                   k=random.randint(0, 12)))
        b = (a[:max(0, len(a) - 2)] + "zz") if random.random() < 0.5 else \
            "".join(random.choices(string.ascii_lowercase,
                                   k=random.randint(0, 12)))
        sa.append(a)
        sb.append(b)
    eng = list(_levenshtein_pairs(sa, sb))
    con = duckdb.connect()
    ora = [con.sql("select levenshtein(?, ?)", params=[x, y]).fetchone()[0]
           for x, y in zip(sa, sb)]
    assert eng == ora


def test_editdist_neardup_planted(ray_session):
    """A planted 2-char-edit twin is found; unrelated docs of a different
    length band are never compared (no pair emitted)."""
    import ray.data as rd

    from cattle_ray.stages.dedup import editdist_neardup_pairs

    base = "the quick brown fox jumps over the lazy dog again and again ok"
    twin = base[:-2] + "xy"                      # same band, dist ≤ 2 in 40c
    other = "word " * 40                         # different length band
    ds = rd.from_items([
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": twin},
        {"doc_id": 3, "text": other.strip()},
        {"doc_id": 4, "text": ""},              # filtered out
    ])
    out = editdist_neardup_pairs(ds, max_dist=5).to_pandas()
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (1, 2) in pairs
    assert all(3 not in p and 4 not in p for p in pairs)


def test_dedup_exact_keep_col_min_within_batch(ray_session):
    """keep_col contract: the MINIMUM-id row survives even when the dup
    pair lands in ONE batch with the min listed second (the local
    pre-dedup used to keep first occurrence, making the representative
    block-layout-dependent)."""
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.dedup import dedup_exact

    df = pd.DataFrame({"doc_id": [5, 2, 9], "norm": ["same", "same", "x"]})
    out = dedup_exact(rd.from_pandas(df).repartition(1), ["norm"],
                      keep_col="doc_id").to_pandas()
    assert sorted(out["doc_id"]) == [2, 9]

    # and the representative is layout-invariant
    for blocks in (1, 3):
        o = dedup_exact(rd.from_pandas(df).repartition(blocks), ["norm"],
                        keep_col="doc_id").to_pandas()
        assert sorted(o["doc_id"]) == [2, 9]


def test_dedup_exact_empty_input_schema(ray_session):
    """A wholly-empty input yields an EMPTY result in the finished schema
    — no leaked _chash/_bucket helper columns."""
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.dedup import dedup_exact

    df = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                       "norm": pd.Series([], dtype="object")})
    out = dedup_exact(rd.from_pandas(df), ["norm"], keep_col="doc_id")
    t = out.to_pandas()
    assert len(t) == 0
    # Ray reports NO schema for a wholly-empty pandas-backed dataset, so
    # the exact finished schema is unrecoverable — the contract here is
    # that the internal helper columns never leak
    assert not {"_chash", "_bucket"} & set(t.columns)
