"""D2-D4 + training-data dedup family: exact, MinHash-LSH, SimHash,
n-gram Jaccard, embedding-cosine near-dup.

Shuffle discipline (SURVEY.md §7.3, ray_guide "Aggregation at scale"):
- Exact dedup: vectorized content hash inside ``map_batches`` → within-batch
  pre-dedup (shrinks the shuffle) → ``groupby(hash)`` → per-group first.
- MinHash-LSH: shingle→minhash per batch (numpy, no shuffle); signatures are
  emitted ONCE per doc and band rows carry no payload (the naive
  sig-per-band-row layout amplifies the shuffle 32×) → ONE bucket groupby →
  candidate pairs → verify by signature compare (broadcast dict when the
  corpus is small, co-partitioned sig joins at scale). Connected components
  by iterated min-label propagation — driver union-find only on the
  (provably small) candidate pair set.
- SimHash: 64-bit fingerprint per doc; near-dup candidates via 4×16-bit band
  buckets (Hamming ≤ 3 ⇒ at least one band identical — pigeonhole).
- Embedding near-dup: random-hyperplane LSH buckets → within-bucket cosine.

All per-batch kernels are numpy/pyarrow vectorized; ids, not text, flow
through every shuffle.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import bucket_shuffle

_SEP = "\x1f"

try:  # baked into the environment; fallback keeps the module importable
    import polars as _pl
except ImportError:  # pragma: no cover
    _pl = None


def hash_strings64(arr) -> np.ndarray:
    """Vectorized 64-bit hash of an Arrow string array → uint64 numpy.

    Zero-copy into polars' parallel xxhash when available (measured ~29×
    faster than ``pd.util.hash_pandas_object``'s per-object cython path at
    200k mixed-length strings: 13 ms vs 385 ms); hashes only ROUTE buckets
    in this module — every consumer guards collisions with full-key
    equality — so the exact hash family is free to differ per environment.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if _pl is not None:
        return _pl.from_arrow(arr).hash(seed=0).to_numpy()
    return pd.util.hash_pandas_object(
        arr.to_pandas(), index=False).to_numpy().astype(np.uint64)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — full-avalanche mix of a uint64 vector."""
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


# ---------------------------------------------------------------------------
# exact dedup


def add_content_hash(batch: pa.Table, cols, out_col: str = "_chash") -> pa.Table:
    """Vectorized 64-bit content hash over ``cols`` (join + hash per batch)."""
    parts = []
    for c in cols:
        arr = pc.cast(batch[c], pa.string())
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        parts.append(pc.fill_null(arr, "\x00"))
    parts.append(_SEP)
    joined = pc.binary_join_element_wise(*parts)
    h = hash_strings64(joined)
    return batch.append_column(out_col, pa.array(h.astype(np.uint64), pa.uint64()))


def within_batch_dedup(batch: pa.Table, hash_col: str = "_chash",
                       keep_col: str | None = None) -> pa.Table:
    """Local pre-dedup before the shuffle. With ``keep_col`` the LOCAL
    minimum-keep_col row survives per hash — required so the global
    min-representative contract holds at ANY block layout (keeping the
    first occurrence would let a non-min row eliminate the true min
    inside its own batch before the finish's keep_col sort ever runs;
    regression-pinned with a descending-id batch).

    Pure numpy over the already-computed hash column — the previous
    full-batch ``to_pandas()`` + ``drop_duplicates`` converted every
    triple payload per batch on the flagship hot path (measured ~3×
    slower at 1M rows); survivors are ``take``-n from the Arrow batch in
    original row order, payloads untouched. ``keep_col`` values must be
    non-null (they're ids by contract)."""
    h = batch[hash_col].to_numpy(zero_copy_only=False)
    if keep_col is None:
        _, first = np.unique(h, return_index=True)
        if len(first) == len(h):
            return batch
        first.sort()
        return batch.take(pa.array(first))
    keep = batch[keep_col].to_numpy(zero_copy_only=False)
    order = np.argsort(keep, kind="stable")  # ties → earliest row wins
    _, first = np.unique(h[order], return_index=True)
    sel = order[first]
    if len(sel) == len(h):
        return batch
    sel.sort()
    return batch.take(pa.array(sel))


def dedup_exact(ds, cols, keep_col: str | None = None, num_buckets: int = 64):
    """D2: hash-partitioned exact dedup. ``keep_col`` (e.g. an id) selects the
    minimum-valued row per duplicate group for determinism; otherwise first.

    Shuffle discipline: rows co-locate by a LOW-CARDINALITY bucket
    (``_chash % num_buckets``) through :func:`~.exchange.bucket_shuffle` —
    a manual partition exchange in raw Ray tasks. (The previous
    ``groupby(_bucket).map_groups`` rode Ray's SORT-based shuffle, which
    funneled the 2M-page flagship's whole 6.9M-row triple table through
    one SortMap task — 230 s of CPU and the measured scaling bottleneck;
    bucketed rows need co-location, not order.) Per bucket the dedup is
    one vectorized ``drop_duplicates``, correct over any union of buckets,
    so the exchange sizes its reducer count to the data with
    ``num_buckets`` as the cap. Buckets are uniform by construction (hash
    of content). Dedup compares FULL column values within bucket, so
    64-bit hash collisions (expected at 10^12 rows) cannot drop distinct
    rows.
    """
    cols = list(cols)

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = batch["_chash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        b = b % np.uint64(num_buckets)
        return batch.append_column("_bucket", pa.array(b.astype(np.int64)))

    def finish(t: pa.Table) -> pa.Table:
        target = pa.schema([f for f in t.schema
                            if f.name not in ("_chash", "_bucket")])
        if len(t) == 0:
            return target.empty_table()
        g = t.to_pandas()
        if keep_col is not None:
            g = g.sort_values(keep_col, kind="mergesort")
        g = g.drop_duplicates(subset=cols).drop(columns=["_chash", "_bucket"])
        return pa.Table.from_pandas(g, schema=target, preserve_index=False)

    prepared = (
        ds.map_batches(lambda b: add_content_hash(b, cols), batch_format="pyarrow")
        .map_batches(within_batch_dedup, fn_kwargs={"keep_col": keep_col},
                     batch_format="pyarrow")
        .map_batches(add_bucket, batch_format="pyarrow")
    )
    return bucket_shuffle(prepared, finish, num_buckets)


# ---------------------------------------------------------------------------
# MinHash-LSH

MINHASH_K = 128
LSH_BANDS = 32  # 32 bands × 4 rows; s-curve threshold ≈ (1/32)^(1/4) ≈ 0.42
_MERSENNE = (1 << 61) - 1


def _perm_params(k: int = MINHASH_K, seed: int = 42):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=k, dtype=np.int64).astype(np.uint64)
    a |= np.uint64(1)  # odd multiplier → bijection in the mod-2^64 ring
    b = rng.randint(0, _MERSENNE, size=k, dtype=np.int64).astype(np.uint64)
    return a, b


_PERM_A, _PERM_B = _perm_params()


_P1 = np.uint64(11400714819323198485)  # odd 64-bit mixing constants
_P2 = np.uint64(14029467366897019727)
_P3 = np.uint64(1609587929392839161)


def _token_hashes(toks: list, cache: dict | None = None) -> np.ndarray:
    """Per-token 64-bit hashes with an optional cross-call cache (vocabulary
    repeats heavily; the cache turns most lookups into dict hits)."""
    if cache is None:
        cache = {}
    out = np.empty(len(toks), dtype=np.uint64)
    for i, t in enumerate(toks):
        h = cache.get(t)
        if h is None:
            b = t.encode()
            h = zlib.crc32(b) | (zlib.crc32(b[::-1]) << 32)
            cache[t] = h
        out[i] = h
    return out


def shingle_hashes(text: str, n: int = 3, _cache: dict | None = None) -> np.ndarray:
    """Word n-gram shingles → uint64 hashes. Tokens are hashed once (cached),
    n-gram hashes are a vectorized positional mix of the token hashes —
    no per-gram string building or hashing."""
    toks = text.split()
    if not toks:
        return np.zeros(0, dtype=np.uint64)
    th = _token_hashes(toks, _cache)
    if len(toks) < n:
        combined = np.uint64(0)
        for i, h in enumerate(th):
            combined ^= h * (_P1 if i % 3 == 0 else _P2 if i % 3 == 1 else _P3)
        return np.unique(np.array([combined], dtype=np.uint64))
    # rolling positional mix over a sliding window of n token hashes
    k = len(toks) - n + 1
    acc = np.zeros(k, dtype=np.uint64)
    muls = (_P1, _P2, _P3)
    for j in range(n):
        acc ^= th[j : j + k] * muls[j % 3]
    return np.unique(acc)


def minhash_signature(sh: np.ndarray) -> np.ndarray:
    """(a*x+b) permutation minima (multiply-shift universal hashing in the
    implicit mod-2^64 ring — no expensive uint64 modulo), vectorized over
    shingles × k."""
    if sh.size == 0:
        return np.full(MINHASH_K, np.iinfo(np.uint64).max, dtype=np.uint64)
    with np.errstate(over="ignore"):
        v = _PERM_A[:, None] * sh[None, :] + _PERM_B[:, None]
    return v.min(axis=1)


class MinHashSignatures:
    """Per-batch: text → minhash signature, ONE row per doc
    ``(id, sig: fixed_size_list<uint64, K>)``. Band rows are derived from
    signatures downstream — the signature matrix is never duplicated
    per band (32× payload amplification measured as the dominant cost of
    the naive band-row layout)."""

    def __init__(self, id_col: str = "doc_id", text_col: str = "text", ngram: int = 3):
        self.id_col, self.text_col, self.ngram = id_col, text_col, ngram
        self._token_cache: dict = {}  # per-actor vocabulary hash cache

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(self._token_cache) > 2_000_000:
            self._token_cache.clear()  # bound actor heap on huge vocabularies
        ids = batch[self.id_col]
        texts = batch[self.text_col].to_pylist()
        n = len(texts)
        sigs = np.empty((n, MINHASH_K), dtype=np.uint64)
        for j, t in enumerate(texts):
            sigs[j] = minhash_signature(
                shingle_hashes(t or "", self.ngram, self._token_cache)
            )
        # binary payload (K×8 bytes) — avoids Ray's tensor-extension cast of
        # fixed-size lists, which breaks across the join path
        return pa.table(
            {
                "id": ids,
                "sig": pa.array([row.tobytes() for row in sigs], pa.binary()),
            }
        )


def bands_from_sigs(batch: pa.Table, num_buckets: int = 64) -> pa.Table:
    """(id, sig) → 32 tiny band rows per doc ``(id, band_id, band_hash,
    _bucket)`` — no signature payload in the shuffle."""
    n = len(batch)
    r = MINHASH_K // LSH_BANDS
    buf = b"".join(batch["sig"].to_pylist())
    sigs = np.frombuffer(buf, dtype=np.uint64).reshape(n, MINHASH_K)
    band_hash = np.empty((n, LSH_BANDS), dtype=np.uint32)
    for j in range(n):
        row = sigs[j]
        for b in range(LSH_BANDS):
            band_hash[j, b] = zlib.crc32(row[b * r : (b + 1) * r].tobytes())
    ids = np.asarray(batch["id"].to_pylist())
    out_id = np.tile(ids, LSH_BANDS)
    out_band = np.repeat(np.arange(LSH_BANDS, dtype=np.int32), n)
    out_bh = band_hash.T.reshape(-1).copy()
    bucket = (
        (out_bh.astype(np.uint64) ^ out_band.astype(np.uint64)) % num_buckets
    ).astype(np.int64)
    return pa.table(
        {
            "id": pa.array(out_id),
            "band_id": pa.array(out_band, pa.int32()),
            "band_hash": pa.array(out_bh, pa.uint32()),
            "_bucket": pa.array(bucket),
        }
    )


def _candidate_pairs_from_bucket(g: pd.DataFrame, num_buckets: int = 64) -> pd.DataFrame:
    """Candidate (a,b) pairs within one shuffle bucket: vectorized duplicate
    prefilter, loop only over collided (band_id, band_hash) groups. Output
    carries ``_bucket = hash(a,b) % B`` so the downstream uniquify(+verify)
    is ONE more groupby, not a dedup stage plus a verify stage."""
    g = g[g.duplicated(subset=["band_id", "band_hash"], keep=False)]
    if g.empty:
        return pd.DataFrame({"a": pd.Series(dtype="int64"),
                             "b": pd.Series(dtype="int64"),
                             "_bucket": pd.Series(dtype="int64")})
    a_out, b_out = [], []
    for _, grp in g.groupby(["band_id", "band_hash"], sort=False):
        ids = np.sort(grp["id"].unique())
        if len(ids) < 2:
            continue
        ii, jj = np.triu_indices(len(ids), k=1)
        a_out.extend(ids[ii].tolist())
        b_out.extend(ids[jj].tolist())
    out = pd.DataFrame({"a": a_out, "b": b_out})
    # local pre-dedup (same band colliding in-bucket) before the shuffle
    out = out.drop_duplicates(subset=["a", "b"])
    h = _mix64(out["a"].to_numpy().astype(np.uint64)
               ^ _mix64(out["b"].to_numpy().astype(np.uint64)))
    out["_bucket"] = (h % np.uint64(num_buckets)).astype("int64")
    return out


def _verify_pairs_batch(batch, sa: np.ndarray, sb: np.ndarray, threshold: float):
    est = (sa == sb).mean(axis=1)
    keep = est >= threshold
    return pa.table(
        {
            "a": pa.array(np.asarray(batch["a"].to_pylist())[keep]),
            "b": pa.array(np.asarray(batch["b"].to_pylist())[keep]),
            "est_jaccard": pa.array(est[keep], pa.float64()),
        }
    )


_EMPTY_PAIRS = pa.table(
    {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
     "est_jaccard": pa.array([], pa.float64())}
)


def minhash_dedup_pairs(ds, id_col="doc_id", text_col="text", threshold=0.8, ngram=3,
                        concurrency=4, num_buckets=64,
                        sig_broadcast_max: int = 100_000,
                        sig_path: str | None = None):
    """MinHash+LSH near-dup pairs (a<b) with estimated Jaccard.

    Plan (signature data never duplicated 32× across the shuffle):
      sigs  = one row per doc (id, sig bytes) — computed ONCE, then either
              MATERIALIZED in the object store (default; spills under
              pressure) or, with ``sig_path=``, written to partitioned
              Parquet and re-read by each consumer — the extreme-scale path:
              at 10^12 docs the 128×8 B signatures are ~1 PB, which belongs
              on storage, not in the object store (and the sig table doubles
              as a resumable checkpoint)
      bands = 32 payload-free rows per doc → ONE bucket groupby → candidate
              pairs → exact dedup on (a, b)
      verify: corpus ≤ ``sig_broadcast_max`` docs → sig dict broadcast via
              ``ray.put``, verification inside one map_batches (no join);
              bigger corpora → two co-partitioned joins pair↔sig.
    """
    import ray

    from .aggregates import coalesce_small
    from .joins import hash_join

    sigs = ds.map_batches(
        MinHashSignatures,
        fn_constructor_kwargs=dict(id_col=id_col, text_col=text_col, ngram=ngram),
        batch_format="pyarrow",
        # autoscaling pool: a fixed-size pool can pin every CPU and starve
        # the upstream read / downstream shuffle (see lm_score's Scorer)
        concurrency=(1, concurrency) if isinstance(concurrency, int)
        else concurrency,
    )
    if sig_path is not None:
        import os
        import shutil

        import ray.data as rd

        # wipe any previous generation first: write_parquet ADDS uuid-named
        # part files, so stale sigs from an earlier corpus would silently
        # re-enter the band/candidate stages
        if os.path.isdir(sig_path):
            shutil.rmtree(sig_path)
        sigs.write_parquet(sig_path)
        sigs = rd.read_parquet(sig_path)
    else:
        sigs = sigs.materialize()
    bands = sigs.map_batches(
        lambda b: bands_from_sigs(b, num_buckets), batch_format="pyarrow"
    )
    cand = coalesce_small(bands).groupby("_bucket").map_groups(
        lambda g: _candidate_pairs_from_bucket(g, num_buckets),
        batch_format="pandas",
    )

    if sigs.count() <= sig_broadcast_max:
        sig_df = sigs.to_pandas()
        sig_ref = ray.put(dict(zip(sig_df["id"], sig_df["sig"])))

        def uniq_verify(g: pd.DataFrame) -> pa.Table:
            """Fused per-bucket uniquify + signature verify (broadcast sigs):
            cross-band duplicate pairs land in the same (a,b)-hash bucket, so
            ONE drop_duplicates here is global — saving the separate
            dedup-stage shuffle the previous plan paid."""
            g = g.drop_duplicates(subset=["a", "b"])
            if g.empty:
                return _EMPTY_PAIRS
            sigs_d = ray.get(sig_ref)
            n = len(g)
            sa = np.frombuffer(b"".join(sigs_d[x] for x in g["a"]),
                               dtype=np.uint64).reshape(n, MINHASH_K)
            sb = np.frombuffer(b"".join(sigs_d[x] for x in g["b"]),
                               dtype=np.uint64).reshape(n, MINHASH_K)
            est = (sa == sb).mean(axis=1)
            keep = est >= threshold
            return pa.table(
                {"a": pa.array(g["a"].to_numpy()[keep]),
                 "b": pa.array(g["b"].to_numpy()[keep]),
                 "est_jaccard": pa.array(est[keep], pa.float64())}
            )

        return coalesce_small(cand, 8).groupby("_bucket").map_groups(
            uniq_verify, batch_format="pandas"
        )

    cand = dedup_exact(cand.map_batches(
        lambda t: t.select(["a", "b"]), batch_format="pyarrow"), ["a", "b"])

    sig_a = sigs.map_batches(
        lambda b: b.rename_columns(["a", "sig_a"]), batch_format="pyarrow"
    )
    sig_b = sigs.map_batches(
        lambda b: b.rename_columns(["b", "sig_b"]), batch_format="pyarrow"
    )
    withs = hash_join(hash_join(cand, sig_a, "a", "a"), sig_b, "b", "b")

    def verify(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _EMPTY_PAIRS
        n = len(batch)
        sa = np.frombuffer(b"".join(batch["sig_a"].to_pylist()), dtype=np.uint64).reshape(n, MINHASH_K)
        sb = np.frombuffer(b"".join(batch["sig_b"].to_pylist()), dtype=np.uint64).reshape(n, MINHASH_K)
        return _verify_pairs_batch(batch, sa, sb, threshold)

    return withs.map_batches(verify, batch_format="pyarrow")


def minhash_verified_pairs(ds, id_col="doc_id", text_col="text",
                           threshold=0.9, ngram=1, est_margin=0.15,
                           num_buckets=64, **kw):
    """MinHash+LSH candidates, then EXACT n-gram Jaccard verification —
    the checkable face of MinHash dedup: given the text, the output is a
    pure function (no signature noise in the result), so it mirrors
    one-to-one in SQL (all pairs with true Jaccard ≥ threshold) and joins
    the hash-checked oracle family, unlike the estimate-only
    :func:`minhash_dedup_pairs`.

    The LSH candidate filter runs at ``threshold - est_margin``: the
    128-hash estimator's binomial noise (σ ≈ 0.027 at j ≈ 0.9) would
    otherwise drop truly-above-threshold pairs; with the margin, a miss
    needs a 5σ+ estimate deviation AND banding recall failure (≈1e-15 at
    r=4, b=32) — deterministic in practice. Exact Jaccard is then
    recomputed ONLY over the candidate sub-corpus (semi-join of docs to
    candidate ids — the quadratic token join touches near-dup docs only,
    never the corpus), and pairs keep iff true jaccard ≥ threshold.
    Output: (a, b, intersection, jaccard), a < b."""
    from .aggregates import distinct
    from .joins import hash_join, semi_join

    cand = minhash_dedup_pairs(
        ds, id_col=id_col, text_col=text_col,
        threshold=max(0.0, threshold - est_margin), ngram=ngram,
        num_buckets=num_buckets, **kw).materialize()
    ids = distinct(cand.map_batches(
        lambda t: pa.table({"id": pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()])}),
        batch_format="pyarrow"), ["id"])
    sub = semi_join(ds, ids, id_col, "id", num_buckets=num_buckets)
    exact = jaccard_pairs(sub, id_col=id_col, text_col=text_col, n=ngram,
                          min_jaccard=threshold, num_buckets=num_buckets)
    # verified-candidate semantics: keep exact pairs that WERE candidates
    j = hash_join(exact, cand.map_batches(
        lambda t: t.select(["a", "b"]), batch_format="pyarrow"),
        ["a", "b"], ["a", "b"], num_buckets=num_buckets)
    return j.map_batches(
        lambda t: t.select(["a", "b", "intersection", "jaccard"]),
        batch_format="pyarrow")


_CC_EMPTY = pa.schema([("id", pa.int64()), ("label", pa.int64())])


def _cc_task(block_refs: list) -> pa.Table:
    """Single-worker union-find for pair sets below the distributed-overhead
    crossover; labels = numeric min id per component (same contract as the
    distributed min-label propagation)."""
    from .graph import gather_block_refs

    t = gather_block_refs(block_refs, _CC_EMPTY)
    if t.num_rows == 0:
        return _CC_EMPTY.empty_table()
    df = t.to_pandas()
    uf = connected_components(df)  # {id: root}; ROOT nodes are absent (map to self)
    all_ids = np.unique(np.concatenate(
        [df["a"].to_numpy(dtype=np.int64), df["b"].to_numpy(dtype=np.int64)]))
    root_of = {int(x): uf.get(int(x), int(x)) for x in all_ids}
    comp_min: dict = {}
    for x, r in root_of.items():
        if r not in comp_min or x < comp_min[r]:
            comp_min[r] = x
    ids = np.fromiter(root_of.keys(), dtype=np.int64, count=len(root_of))
    labels = np.fromiter((comp_min[r] for r in root_of.values()), dtype=np.int64,
                         count=len(root_of))
    return pa.table({"id": pa.array(ids), "label": pa.array(labels)})


#: below this pair count, per-round shuffles dominate — union-find on ONE
#: worker instead; distributed min-label propagation above. Sizing: a pair
#: is 16 B (2M ≈ 32 MB, trivially within a worker heap) and path-compressed
#: union-find runs 1.9M pairs in ~3.6 s single-core vs ~25 s of distributed
#: rounds — the crossover is runtime-bound (tens of millions), not
#: memory-bound, on 100 GB-class workers
SMALL_CC_PAIRS = 2_000_000


def connected_components_distributed(pairs_ds, max_iters: int = 20,
                                     num_buckets: int | None = None,
                                     small_cc_pairs: int = SMALL_CC_PAIRS):
    """Distributed connected components over a pair Dataset (a, b) by
    iterated min-label propagation — the scale path when the verified pair
    set is too large for driver union-find.

    Each round runs exactly TWO shuffles (same fused plan as
    ``graph.pagerank``): one edge-sized groupby whose per-bucket UDF fuses
    the neighbor-label join with a PARTIAL per-u min (so the second shuffle
    moves node-sized partials, not edge-sized candidates), and one
    node-sized groupby merging partials with each id's own label. The
    padded, bucketed edge table is built once outside the loop. Converges in
    O(diameter) rounds (near-dup clusters are shallow; ``max_iters`` bounds
    pathological chains). Returns a Dataset (id, label) with label = min id
    of the component.

    Size-adaptive: pair sets under ``small_cc_pairs`` solve by union-find in
    ONE remote task (the broadcast-small-side principle applied to
    iteration); the distributed propagation is the default above it.
    """
    import pandas as pd  # noqa: F811

    import ray

    from .aggregates import coalesce_small
    from .graph import _pad_bucket_tag

    pairs64 = pairs_ds.map_batches(
        lambda t: pa.table({"a": t["a"].combine_chunks().cast(pa.int64()),
                            "b": t["b"].combine_chunks().cast(pa.int64())}),
        batch_format="pyarrow",
    ).materialize()
    if pairs64.count() <= small_cc_pairs:
        import ray.data as rd

        task = ray.remote(num_cpus=1)(_cc_task)
        out = ray.get(task.remote(list(pairs64.to_arrow_refs())))
        return rd.from_arrow(out)
    pairs_ds = pairs64

    edges = pairs_ds.map_batches(
        lambda t: pa.table({"u": pa.concat_arrays(
            [t["a"].combine_chunks().cast(pa.int64()),
             t["b"].combine_chunks().cast(pa.int64())]),
            "v": pa.concat_arrays(
            [t["b"].combine_chunks().cast(pa.int64()),
             t["a"].combine_chunks().cast(pa.int64())])}),
        batch_format="pyarrow",
    ).materialize()
    if num_buckets is None:  # per-round shuffles launch tasks per bucket
        num_buckets = int(min(64, max(8, edges.count() // 100_000)))

    labels = edges.map_batches(
        lambda t: pa.table({"id": pc.unique(t["u"].combine_chunks())}),
        batch_format="pyarrow",
    )
    labels = dedup_exact(labels, ["id"]).map_batches(
        lambda t: pa.table({"id": t["id"], "label": t["id"]}), batch_format="pyarrow"
    ).materialize()

    s1_schema = pa.schema([("u", pa.int64()), ("v", pa.int64()),
                           ("id", pa.int64()), ("label", pa.int64())])
    s2_schema = pa.schema([("id", pa.int64()), ("label", pa.int64())])
    # padded + bucketed (on the join key v) ONCE, reused every round
    edges_pre = coalesce_small(
        _pad_bucket_tag(edges, s1_schema, "v", 0, num_buckets), 16
    ).materialize()

    def stage1(g: pa.Table) -> pd.DataFrame:
        """Fused per-bucket: neighbor-label join (labels on v) + PARTIAL
        per-u min of candidate labels. Sides split IN ARROW before pandas
        (padding nulls coerce int64→float64, corrupting 64-bit ids)."""
        e = g.filter(pc.equal(g["_side"], 0)).select(["u", "v"]).to_pandas()
        l = g.filter(pc.equal(g["_side"], 1)).select(["id", "label"]).to_pandas()
        m = e.merge(l, left_on="v", right_on="id", how="inner")
        if m.empty:
            return pd.DataFrame({"id": pd.Series(dtype="int64"),
                                 "label": pd.Series(dtype="int64")})
        out = (m[["u", "label"]].groupby("u", sort=False)["label"].min()
               .reset_index().rename(columns={"u": "id"}))
        out["id"] = out["id"].astype("int64")
        out["label"] = out["label"].astype("int64")
        return out

    def stage2(g: pa.Table) -> pd.DataFrame:
        """Per id: min(own label, neighbor partial mins)."""
        df = g.select(["id", "label"]).to_pandas()  # both sides fully typed
        out = df.groupby("id", sort=False)["label"].min().reset_index()
        out["id"] = out["id"].astype("int64")
        out["label"] = out["label"].astype("int64")
        return out

    for _ in range(max_iters):
        labels_tag = coalesce_small(
            _pad_bucket_tag(labels, s1_schema, "id", 1, num_buckets), 8
        )
        partials = (
            edges_pre.union(labels_tag)
            .groupby("_bucket")
            .map_groups(stage1, batch_format="pyarrow")
        )
        # node-sized merge: own labels ∪ partials, min per id
        own_tag = _pad_bucket_tag(labels, s2_schema, "id", 0, num_buckets)
        part_tag = _pad_bucket_tag(partials, s2_schema, "id", 1, num_buckets)
        new_labels = (
            coalesce_small(own_tag.union(part_tag), 8)
            .groupby("_bucket")
            .map_groups(stage2, batch_format="pyarrow")
            .materialize()
        )
        # fixpoint check: total label sum strictly decreases until converged
        old_sum = labels.sum("label")
        new_sum = new_labels.sum("label")
        labels = new_labels
        if old_sum == new_sum:
            break
    return labels


def dedup_corpus(ds, id_col="doc_id", text_col="text", threshold=0.85, ngram=3,
                 num_buckets=64, drop_broadcast_max: int = 2_000_000,
                 verify: bool = False):
    """End-to-end training-corpus near-dedup: MinHash-LSH pairs → connected
    components → drop every doc that is not its cluster's min-id
    representative. Returns the filtered Dataset (exact duplicates collapse
    too: identical texts have identical signatures → est_jaccard 1.0).

    Composition: minhash_dedup_pairs (bounded shuffles) + distributed CC +
    the ADAPTIVE anti-join of the corpus against the drop set (labels where
    id != label): a drop set under ``drop_broadcast_max`` ids broadcasts as
    an Arrow array and filters with vectorized ``is_in`` (the corpus — with
    its text payloads — never crosses a shuffle); a billions-of-ids drop set
    falls through to the fully distributed bucketed anti-join, so the driver
    can never OOM either way. ``drop_broadcast_max=0`` forces the
    distributed path (used by the no-driver-collection test).

    ``verify=True`` swaps the estimate-based pair set for
    :func:`minhash_verified_pairs` (LSH candidates re-checked by EXACT
    n-gram Jaccard): the clusters are then connected components of the
    true-Jaccard graph, so the kept set mirrors one-to-one in SQL
    (recursive-CTE components over the exact pair set) — the
    hash-checkable face of corpus dedup. Costs the verification pass's
    extra token join over candidate docs only.
    """
    from .joins import semi_join

    if verify:
        pairs = minhash_verified_pairs(
            ds, id_col=id_col, text_col=text_col, threshold=threshold,
            ngram=ngram, num_buckets=num_buckets).map_batches(
            lambda t: t.select(["a", "b"]), batch_format="pyarrow")
    else:
        pairs = minhash_dedup_pairs(ds, id_col=id_col, text_col=text_col,
                                    threshold=threshold, ngram=ngram,
                                    num_buckets=num_buckets)
    labels = connected_components_distributed(pairs)  # buckets auto-scale
    # drop set stays a Dataset end-to-end: every non-representative id
    drop = labels.map_batches(
        lambda t: t.filter(pc.not_equal(t["id"], t["label"])).select(["id"]),
        batch_format="pyarrow",
    )
    right_on = "id"
    if id_col != "id":  # avoid a same-name/different-role collision in unions
        drop = drop.map_batches(
            lambda t: t.rename_columns(["_drop_id"]), batch_format="pyarrow"
        )
        right_on = "_drop_id"
    return semi_join(ds, drop, id_col, right_on, anti=True,
                     max_broadcast_keys=drop_broadcast_max,
                     num_buckets=num_buckets)


def connected_components(pairs_df: pd.DataFrame) -> dict:
    """Driver-side union-find over the (small) verified pair set → {id: root}.
    Scale path: :func:`connected_components_distributed`."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs_df["a"], pairs_df["b"]):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if str(ra) <= str(rb) else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in parent}


# ---------------------------------------------------------------------------
# SimHash


_BIT_IDX = np.arange(64, dtype=np.uint64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR; numpy<2 lacks ``bitwise_count``)."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over="ignore"):
        return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def simhash64(text: str, _cache: dict | None = None) -> int:
    """64-bit SimHash of the whitespace token stream. Token hashes are
    computed once per distinct token (shared vocabulary cache) and the ±1
    bit-vote accumulation is ONE vectorized (n_tokens × 64) reduction —
    no per-token Python loop."""
    toks = text.split()
    if not toks:
        return 0
    th = _token_hashes(toks, _cache)  # reuses the minhash token-hash cache
    bits = ((th[:, None] >> _BIT_IDX[None, :]) & np.uint64(1)).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << _BIT_IDX).sum())


def add_simhash(batch: pa.Table, text_col="text", out_col="simhash") -> pa.Table:
    cache: dict = {}  # per-batch vocabulary cache
    vals = [simhash64(t or "", cache) for t in batch[text_col].to_pylist()]
    return batch.append_column(out_col, pa.array(np.array(vals, dtype=np.uint64)))


def add_simhash_md5(batch: pa.Table, text_col="text",
                    out_col="simhash") -> pa.Table:
    """SQL-CHECKABLE SimHash variant: DISTINCT whitespace tokens, token
    hash = little-endian bytes 8..16 of md5(token) — bit-identical to
    DuckDB's ``md5_number_lower(token)``, so the 64-bit signature (and
    every hamming distance over it) mirrors one-to-one in SQL. Bit b of
    the signature is 1 iff strictly more than half the doc's distinct
    tokens have bit b set (``2·ones > n``; ties → 0, same as SQL's
    ``SUM(±1) > 0``). The production path stays :func:`add_simhash`
    (polars-xxhash, count-weighted) — this variant trades hash speed
    for oracle checkability (VERDICT r4 order #5)."""
    import hashlib
    import struct

    cache: dict = {}
    shifts = np.arange(64, dtype=np.uint64)
    out = np.zeros(len(batch), np.uint64)
    for row, t in enumerate(batch[text_col].to_pylist()):
        toks = sorted(set((t or "").split()))
        if not toks:
            continue
        hs = np.empty(len(toks), np.uint64)
        for i, tok in enumerate(toks):
            h = cache.get(tok)
            if h is None:
                h = struct.unpack(
                    "<Q", hashlib.md5(tok.encode()).digest()[8:])[0]
                cache[tok] = h
            hs[i] = h
        ones = ((hs[:, None] >> shifts) & np.uint64(1)).sum(axis=0)
        bits = (2 * ones > len(toks))
        out[row] = np.bitwise_or.reduce(
            bits.astype(np.uint64) << shifts)
    return batch.append_column(out_col, pa.array(out))


def simhash_pairs(ds, id_col="doc_id", text_col="text", max_hamming=3,
                  num_buckets=64, hasher: str = "xxhash"):
    """Near-dup pairs by SimHash: 4×16-bit band buckets guarantee recall for
    Hamming ≤ 3 (pigeonhole); verify exact Hamming within band collision.
    Shuffle key is the low-cardinality ``_bucket`` (see dedup_exact).
    ``hasher="md5"`` switches to the SQL-checkable signature
    (:func:`add_simhash_md5`) — same banding/verify machinery, oracle-
    mirrorable output."""
    add_sig = {"xxhash": add_simhash, "md5": add_simhash_md5}[hasher]

    def bands(batch: pa.Table) -> pa.Table:
        batch = add_sig(batch, text_col)
        ids = np.asarray(batch[id_col].to_pylist())
        hs = np.asarray(batch["simhash"].to_pylist(), dtype=np.uint64)
        n = len(ids)
        band_id = np.tile(np.arange(4, dtype=np.uint64), n)
        hs_rep = np.repeat(hs, 4)
        band_hash = ((hs_rep >> (16 * band_id)) & np.uint64(0xFFFF)).astype(np.uint32)
        bucket = ((band_hash.astype(np.uint64) * np.uint64(2654435761) + band_id)
                  % num_buckets).astype(np.int64)
        return pa.table(
            {"id": pa.array(np.repeat(ids, 4)),
             "band_id": pa.array(band_id.astype(np.int32)),
             "band_hash": pa.array(band_hash),
             "_bucket": pa.array(bucket),
             "simhash": pa.array(hs_rep)}
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g.duplicated(subset=["band_id", "band_hash"], keep=False)]
        a_out, b_out, d_out = [], [], []
        for _, grp in g.groupby(["band_id", "band_hash"], sort=False):
            grp = grp.drop_duplicates(subset=["id"]).sort_values("id", kind="mergesort")
            if len(grp) < 2:
                continue
            ids = grp["id"].to_numpy()
            hs = grp["simhash"].to_numpy().astype(np.uint64)
            for i in range(len(grp) - 1):
                x = hs[i + 1 :] ^ hs[i]
                dist = _popcount64(x)  # vectorized Hamming distance
                for j in np.nonzero(dist <= max_hamming)[0]:
                    a_out.append(ids[i]); b_out.append(ids[i + 1 + j]); d_out.append(int(dist[j]))
        return pd.DataFrame({"a": a_out, "b": b_out, "hamming": d_out})

    from .aggregates import coalesce_small

    cand = coalesce_small(ds.map_batches(bands, batch_format="pyarrow")).groupby(
        "_bucket"
    ).map_groups(pairs, batch_format="pandas")
    return dedup_exact(cand, ["a", "b"])


# ---------------------------------------------------------------------------
# exact n-gram Jaccard (token-join form; oracle-checkable)


def token_set_batch(batch: pa.Table, id_col="doc_id", text_col="text", n=1,
                    num_buckets=64) -> pa.Table:
    """Explode each doc into its distinct token n-grams, carrying the doc's
    set size (each doc lives in exactly one batch, so sizes are exact) and a
    low-cardinality shuffle bucket keyed on the token."""
    ids, toks, szs, buckets = [], [], [], []
    for i, t in zip(batch[id_col].to_pylist(), batch[text_col].to_pylist()):
        ts = (t or "").split()
        grams = (
            set(ts) if n == 1 else {" ".join(ts[j : j + n]) for j in range(len(ts) - n + 1)}
        )
        sz = len(grams)
        for g in sorted(grams):
            ids.append(i)
            toks.append(g)
            szs.append(sz)
            buckets.append(zlib.crc32(g.encode()) % num_buckets)
    return pa.table(
        {
            "id": pa.array(ids),
            "token": pa.array(toks, pa.string()),
            "sz": pa.array(szs, pa.int64()),
            "_bucket": pa.array(buckets, pa.int64()),
        }
    )


def jaccard_pairs(ds, id_col="doc_id", text_col="text", n=1, min_jaccard=0.0,
                  num_buckets=64):
    """Exact token-set Jaccard for all co-occurring pairs via the token join:
    explode distinct tokens (+sizes) → per-bucket vectorized self-join →
    partial pair counts → one small final sum → jaccard from carried sizes.
    Quadratic in per-token doc frequency: intended for bounded subsets /
    verification, not the full corpus (use MinHash there)."""
    toks = ds.map_batches(
        lambda b: token_set_batch(b, id_col, text_col, n, num_buckets),
        batch_format="pyarrow",
    )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g.duplicated(subset=["token"], keep=False)]
        if g.empty:
            return pd.DataFrame(
                {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
                 "sa": pd.Series(dtype="int64"), "sb": pd.Series(dtype="int64"),
                 "cnt": pd.Series(dtype="int64")}
            )
        m = g.merge(g, on="token", suffixes=("_x", "_y"))
        m = m[m["id_x"] < m["id_y"]]
        out = (
            m.groupby(["id_x", "id_y", "sz_x", "sz_y"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return out.rename(columns={"id_x": "a", "id_y": "b", "sz_x": "sa", "sz_y": "sb"})

    from .aggregates import add_key_bucket, coalesce_small

    partials = coalesce_small(toks).groupby("_bucket").map_groups(
        bucket_pairs, batch_format="pandas"
    )
    # bucketed pandas finish, NOT Ray's sort-based groupby aggregate —
    # the native Aggregate paid ~10 s of sort-shuffle overhead on a
    # 77-doc verify subset (the engine-wide partial_count lesson applies
    # to pair keys too)
    bucketed = coalesce_small(
        partials.map_batches(
            lambda b: add_key_bucket(b, ["a", "b"], num_buckets),
            batch_format="pyarrow"), 8)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(["a", "b"], sort=False)
               .agg(intersection=("cnt", "sum"), sa=("sa", "max"),
                    sb=("sb", "max")).reset_index())
        inter = out["intersection"].to_numpy(dtype=np.float64)
        sa = out["sa"].to_numpy(dtype=np.float64)
        sb = out["sb"].to_numpy(dtype=np.float64)
        out = out[["a", "b", "intersection"]].copy()
        out["jaccard"] = inter / (sa + sb - inter)
        return out[out["jaccard"] >= min_jaccard]

    return bucketed.groupby("_bucket").map_groups(
        finish, batch_format="pandas")


# ---------------------------------------------------------------------------
# embedding-cosine near-dup


def embedding_neardup_pairs(ds, id_col="vec_id", vec_col="embedding",
                            threshold=0.95, num_planes=12, seed=42):
    """Random-hyperplane LSH: bucket = sign-bits of V·H (one groupby), then
    exact cosine within bucket. ``num_planes`` trades recall for bucket size."""
    from .similarity import vec_matrix

    def bucketize(batch: pa.Table) -> pa.Table:
        vecs = vec_matrix(batch[vec_col])
        dim = vecs.shape[1]
        planes = rng_planes(dim, num_planes, seed)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = vecs / norms
        bits = (unit @ planes.T > 0).astype(np.uint64)
        bucket = (bits << np.arange(num_planes, dtype=np.uint64)).sum(axis=1)
        return pa.table(
            {"id": batch[id_col], "bucket": pa.array(bucket),
             "vec": pa.array([v.tolist() for v in unit], pa.list_(pa.float64()))}
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=["id"]).sort_values("id", kind="mergesort")
        if len(g) < 2:
            return pd.DataFrame({"a": [], "b": [], "cosine": []})
        vecs = np.stack(g["vec"].to_numpy())
        ids = g["id"].to_numpy()
        sims = vecs @ vecs.T
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = sims[ii, jj] >= threshold
        return pd.DataFrame(
            {"a": ids[ii][keep], "b": ids[jj][keep], "cosine": sims[ii, jj][keep]}
        )

    from .aggregates import coalesce_small

    return (
        coalesce_small(ds.map_batches(bucketize, batch_format="pyarrow"))
        .groupby("bucket")
        .map_groups(pairs, batch_format="pandas")
    )


def rng_planes(dim: int, num_planes: int, seed: int) -> np.ndarray:
    return np.random.RandomState(seed).randn(num_planes, dim)


def md5_hex(s: str) -> str:
    """F1 content hash (generalizes /root/reference/src/hash_folder.py:10-32 —
    no partial-content fallback needed over clean Arrow buffers)."""
    return hashlib.md5(s.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Chunk-level exact dedup (fixed word windows) — sub-document granularity


def chunk_words_batch(batch: pa.Table, id_col="doc_id", text_col="text",
                      chunk_words: int = 10) -> pa.Table:
    """Segment each doc into fixed ``chunk_words``-word windows (the
    chunk-level counterpart of the per-doc content hash; whitespace
    tokenization matches :func:`textstats.token_count_batch`). Vectorized:
    split → explode → cumcount window index → one grouped join per chunk
    (pandas C-level groupby; empty docs drop out)."""
    import pandas as pd

    s = pd.Series(batch[text_col].to_pylist(), dtype="object").fillna("").str.strip()
    ids = batch[id_col].to_pandas()
    words = s.str.split()  # \s+ semantics, no empties
    e = pd.DataFrame({"_id": ids, "w": words}).explode("w")
    e = e.dropna(subset=["w"])
    if len(e) == 0:
        return pa.table({id_col: pa.array([], batch[id_col].type),
                         "chunk_idx": pa.array([], pa.int64()),
                         "chunk": pa.array([], pa.string())})
    e["ci"] = e.groupby(level=0).cumcount() // chunk_words
    g = e.groupby([e.index, "ci"], sort=False)
    out = g.agg(_id=("_id", "first"), chunk=("w", " ".join)).reset_index()
    return pa.table({
        id_col: pa.Array.from_pandas(out["_id"], type=batch[id_col].type),
        "chunk_idx": pa.array(out["ci"].to_numpy().astype("int64")),
        "chunk": pa.array(out["chunk"], pa.string()),
    })


def chunk_exact_dedup(ds, id_col="doc_id", text_col="text",
                      chunk_words: int = 10, num_buckets: int = 64):
    """Sub-document exact dedup: fixed-word-window chunks, keep the
    GLOBALLY FIRST occurrence of each distinct chunk (order = (id,
    chunk_idx)) — the exact-match member of the chunk/passage dedup family
    used on training corpora (boilerplate paragraphs, repeated headers).

    Scale shape: chunks hash-bucket on the chunk TEXT (all copies land in
    one bucket), within-batch pre-dedup shrinks the shuffle, per bucket one
    vectorized sort + ``drop_duplicates``. Nothing doc-sized crosses the
    shuffle except the chunks themselves (10 words each); the full text
    column never leaves the first map stage."""
    from .aggregates import coalesce_small
    from .joins import _key_buckets

    def chunks_with_bucket(batch: pa.Table) -> pa.Table:
        c = chunk_words_batch(batch, id_col, text_col, chunk_words)
        # within-batch keep-first pre-dedup (same idea as within_batch_dedup)
        df = c.to_pandas().sort_values([id_col, "chunk_idx"], kind="mergesort")
        df = df.drop_duplicates(subset=["chunk"])
        out = pa.Table.from_pandas(df, preserve_index=False, schema=c.schema)
        return out.append_column(
            "_bucket", pa.array(_key_buckets(out["chunk"], num_buckets)))

    def keep_first(g):
        g = g.sort_values([id_col, "chunk_idx"], kind="mergesort")
        return g.drop_duplicates(subset=["chunk"]).drop(columns=["_bucket"])

    chunked = ds.map_batches(chunks_with_bucket, batch_format="pyarrow")
    return (coalesce_small(chunked)
            .groupby("_bucket")
            .map_groups(keep_first, batch_format="pandas"))


# ---------------------------------------------------------------------------
# Incremental dedup against a persisted fingerprint store


def write_fingerprint_store(ds, path: str, fp_col: str = "fp"):
    """Persist a corpus' fingerprint column as a partitioned Parquet store
    (the artifact an INCREMENTAL ingest dedups new batches against)."""
    ds.map_batches(lambda b: b.select([fp_col]), batch_format="pyarrow") \
      .write_parquet(path)


def dedup_against_store(incoming_ds, store_path: str, fp_col: str = "fp", *,
                        fp_rate: float = 0.001, num_buckets: int = 32,
                        max_broadcast_keys: int = 2_000_000):
    """Incremental corpus dedup: keep incoming rows whose fingerprint is NOT
    already in the persisted store — EXACT result at Bloom cost.

    Two-phase: (1) a Bloom filter built STREAMING from the store (driver
    holds only the bitset) screens every incoming row — Bloom-MISS rows are
    definitely new and pass through untouched (the common case for fresh
    crawl data: no shuffle, no store lookup); (2) only Bloom-HIT suspects
    (true dups + the fp_rate sliver of false positives) go through the exact
    anti-join against the store via :func:`semi_join`'s adaptive
    broadcast/distributed paths. At 10^12 stored docs the store side streams
    once into the bitset and once into the suspects' bucketed anti-join —
    never into driver memory."""
    import ray
    import ray.data as rd

    from .joins import _hash_keys_u64, build_bloom, semi_join

    store = rd.read_parquet(store_path, columns=[fp_col])
    bf = build_bloom(store, fp_col, fp_rate)
    ref = ray.put(bf)

    def flag(batch: pa.Table) -> pa.Table:
        f = ray.get(ref)
        hit = f.contains(_hash_keys_u64(
            batch[fp_col].to_numpy(zero_copy_only=False)))
        return batch.append_column("_bloom_hit", pa.array(hit))

    flagged = incoming_ds.map_batches(flag, batch_format="pyarrow").materialize()
    certain_new = flagged.map_batches(
        lambda b: b.filter(pc.invert(b["_bloom_hit"])).drop_columns(["_bloom_hit"]),
        batch_format="pyarrow",
    )
    suspects = flagged.map_batches(
        lambda b: b.filter(b["_bloom_hit"]).drop_columns(["_bloom_hit"]),
        batch_format="pyarrow",
    )
    verified_new = semi_join(
        suspects, store, fp_col, fp_col, anti=True,
        max_broadcast_keys=max_broadcast_keys, num_buckets=num_buckets,
    )
    return certain_new.union(verified_new)


def rebuild_docs(kept_chunks, id_col="doc_id", num_buckets: int = 64):
    """Reassemble docs from kept (id, chunk_idx, chunk) rows in window
    order → (id, clean_text, n_kept). One bucketed shuffle on the doc id
    with a vectorized sort + grouped join per bucket — same shape as the
    adjacency materialization. Docs with zero kept chunks drop out."""
    from .joins import _key_buckets
    from .aggregates import coalesce_small

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket", pa.array(_key_buckets(batch[id_col], num_buckets)))

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "chunk_idx"], kind="mergesort")
        grp = g.groupby(id_col, sort=False)["chunk"]
        out = grp.agg(" ".join).reset_index(name="clean_text")
        out["n_kept"] = grp.size().to_numpy().astype("int64")
        return out

    return (
        coalesce_small(kept_chunks.map_batches(add_bucket,
                                               batch_format="pyarrow"))
        .groupby("_bucket")
        .map_groups(rebuild, batch_format="pandas")
    )


def chunk_dedup_rebuild(ds, id_col="doc_id", text_col="text",
                        chunk_words: int = 10, num_buckets: int = 64):
    """Chunk-level dedup producing a USABLE corpus: run
    :func:`chunk_exact_dedup` (keep the globally-first occurrence of each
    distinct chunk), then :func:`rebuild_docs`. Docs whose every chunk was
    a duplicate drop out entirely. Returns (id, clean_text, n_kept)."""
    kept = chunk_exact_dedup(ds, id_col, text_col, chunk_words, num_buckets)
    return rebuild_docs(kept, id_col, num_buckets)


def boilerplate_remove(ds, id_col="doc_id", text_col="text",
                       chunk_words: int = 10, min_repeats: int = 2,
                       num_buckets: int = 64):
    """CCNet-style boilerplate removal: drop EVERY occurrence of any chunk
    that appears ≥ ``min_repeats`` times corpus-wide (site menus, footers,
    cookie banners — content repeated across pages is boilerplate by
    definition), then reassemble the surviving chunks per doc.

    Differs from :func:`chunk_exact_dedup` (which KEEPS the first copy):
    boilerplate is noise in every copy, so the hot chunk is removed
    outright. Plan: chunk explode (text never leaves the first map stage)
    → map-side-combined count per chunk → hot set (count ≥ k) → adaptive
    anti-join of chunks against the hot set → :func:`rebuild_docs`. The
    hot set is the list of distinct boilerplate strings — orders of
    magnitude smaller than the corpus; the anti-join broadcasts it while
    small and goes distributed when not."""
    from .aggregates import partial_count
    from .joins import semi_join

    chunks = ds.map_batches(
        lambda b: chunk_words_batch(b, id_col, text_col, chunk_words),
        batch_format="pyarrow",
    ).materialize()  # consumed twice: hot-set count + the anti-join left side
    hot = partial_count(chunks, ["chunk"]).map_batches(
        lambda b: b.filter(pc.greater_equal(b["n"], min_repeats)).select(["chunk"]),
        batch_format="pyarrow",
    )
    kept = semi_join(chunks, hot, "chunk", "chunk", anti=True,
                     num_buckets=num_buckets)
    return rebuild_docs(kept, id_col, num_buckets)


# ---------------------------------------------------------------------------
# snapshot diff


def snapshot_diff(old_ds, new_ds, cols, num_buckets: int = 64,
                  change_col: str = "change"):
    """Exact set-difference of two dataset generations in ONE bucketed
    shuffle: rows only in ``old_ds`` come back tagged ``removed``, rows only
    in ``new_ds`` tagged ``added``.

    This is the reference's replace-on-reupload semantic
    (/root/reference/src/cattle.py:113-146 — a re-upload replaces the
    dataset's previous generation wholesale) turned into an auditable delta:
    at 100 TB you ship the diff downstream, not the new generation.

    Exactness: rows are compared on a null-sentinel join of ``cols`` (the
    same identity key construction as :func:`add_content_hash`, but the KEY
    string itself is compared — the 64-bit hash only routes the bucket, so
    collisions cannot fabricate or hide a change). Set semantics per side
    (duplicates within one snapshot collapse). Per bucket the diff is two
    vectorized ``isin`` passes; a key's rows from both sides land in the
    same bucket by construction.
    """
    cols = list(cols)

    def prep(side: int):
        def f(batch: pa.Table) -> pa.Table:
            b = batch.select(cols)
            parts = []
            for c in cols:
                arr = pc.cast(b[c], pa.string())
                if isinstance(arr, pa.ChunkedArray):
                    arr = arr.combine_chunks()
                parts.append(pc.fill_null(arr, "\x00"))
            parts.append(_SEP)
            key = pc.binary_join_element_wise(*parts)
            h = hash_strings64(key)
            b = b.append_column("_key", key)
            b = b.append_column("_side", pa.array(np.full(len(b), side, np.int8)))
            return b.append_column(
                "_bucket", pa.array((h % num_buckets).astype(np.int64)))
        return f

    from .aggregates import coalesce_small

    unioned = coalesce_small(
        old_ds.map_batches(prep(0), batch_format="pyarrow").union(
            new_ds.map_batches(prep(1), batch_format="pyarrow"))
    )

    def diff_bucket(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g["_side"] == 0].drop_duplicates(subset=["_key"])
        n = g[g["_side"] == 1].drop_duplicates(subset=["_key"])
        removed = o[~o["_key"].isin(n["_key"])].copy()
        removed[change_col] = "removed"
        added = n[~n["_key"].isin(o["_key"])].copy()
        added[change_col] = "added"
        out = pd.concat([removed, added], ignore_index=True)
        return out.drop(columns=["_key", "_side", "_bucket"])

    return unioned.groupby("_bucket").map_groups(diff_bucket,
                                                 batch_format="pandas")


def latest_by_key(ds, key: str, ts_col: str, tie_cols=(),
                  num_buckets: int = 64):
    """Keep the NEWEST row per key — recrawl upsert semantics: a url
    crawled many times keeps only its latest capture (the reference's
    replace-on-reupload, `src/cattle.py:113-146`, as a corpus-wide op).

    Payload-oblivious scale shape (the property that matters for html
    corpora): the winner per key is decided over the PROJECTED
    (key, ts, *tie) columns only — local per-batch argmax thins them to one
    row per (key, batch), then one small-row bucketed argmax — and the full
    rows are kept by the adaptive :func:`~.joins.semi_join` on a null-safe
    identity string over those same columns. Payload columns NEVER enter a
    shuffle: they are filtered where they sit, at the read. (A first cut
    shuffled whole rows through the argmax: 2M × 4 KB captures took 380 s;
    this shape does the same input in seconds.)

    Determinism: rows are ordered by (``ts_col`` DESC, *``tie_cols`` ASC).
    Rows equal on ALL of (key, ts, tie_cols) are exact ties — every such
    twin survives the identity filter; pass a discriminating tie column
    (e.g. a content hash via :func:`add_content_hash`) when
    one-row-per-key must be guaranteed."""
    from .aggregates import grouped_topk
    from .joins import semi_join

    meta_cols = [key, ts_col, *tie_cols]
    order = [ts_col] + list(tie_cols)
    asc = [False] + [True] * len(tie_cols)

    def add_ident(b: pa.Table) -> pa.Table:
        parts = []
        for c in meta_cols:
            arr = pc.cast(b[c], pa.string())
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            parts.append(pc.fill_null(arr, "\x00"))
        parts.append("\x1f")
        return b.append_column("_lk", pc.binary_join_element_wise(*parts))

    # identity is a PURE function of the meta columns, so each path
    # computes it independently — the corpus is never materialized (an
    # object-store copy of a 100-TB payload is worse than a second read)
    meta = ds.map_batches(
        lambda b: add_ident(b.select(meta_cols)), batch_format="pyarrow")

    def local_latest(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values([key] + order, ascending=[True] + asc,
                          kind="mergesort")
        return g.groupby(key, sort=False).head(1)

    thin = meta.map_batches(local_latest, batch_format="pandas")
    winners = grouped_topk(thin, key, order, asc, 1, num_buckets=num_buckets)
    win_ids = winners.map_batches(lambda b: b.select(["_lk"]),
                                  batch_format="pyarrow")
    ds_id = ds.map_batches(add_ident, batch_format="pyarrow")
    kept = semi_join(ds_id, win_ids, "_lk", "_lk", num_buckets=num_buckets)
    return kept.map_batches(lambda b: b.drop_columns(["_lk"]),
                            batch_format="pyarrow")


def dup_span_stats(ds, k: int = 10, id_col: str = "doc_id",
                   text_col: str = "text", min_count: int = 2,
                   num_buckets: int = 64):
    """Per-doc duplicated-span coverage — the exact-substring dedup metric
    (Lee et al. 2022 "Deduplicating Training Data Makes Language Models
    Better" shape): the fraction of a doc's sliding k-word windows that
    occur ≥ ``min_count`` times corpus-wide. High coverage ⇒ the doc is
    largely built from text that exists elsewhere (mirrors, templates,
    quotations) and is a dedup/downweight candidate.

    Scale shape: grams explode 1:1 with tokens (sliding, not chunked — the
    k× blowup is in bytes per row, not rows); the corpus-wide gram census
    is ONE map-side-combined count; duplicated grams filter back onto the
    per-doc gram stream through the adaptive semi-join; both per-doc
    counts are map-side-combined and meet in a pure-Arrow full outer join.
    Text payloads never shuffle — only (id, gram) rows do. Returns
    (id, n_grams, n_dup, dup_frac)."""
    from .aggregates import partial_count
    from .joins import full_outer_join, semi_join
    from .textstats import doc_kgram_batch

    grams = ds.map_batches(
        lambda b: doc_kgram_batch(b, k, id_col, text_col),
        batch_format="pyarrow").materialize()  # census + dup-filter passes
    census = partial_count(
        grams.map_batches(lambda b: b.select(["gram"]),
                          batch_format="pyarrow"),
        ["gram"], num_buckets=num_buckets)
    dup = census.filter(expr=f"n >= {int(min_count)}").map_batches(
        lambda b: b.select(["gram"]), batch_format="pyarrow")
    totals = partial_count(grams, [id_col], num_buckets=num_buckets)
    totals = totals.map_batches(
        lambda b: b.rename_columns([id_col, "n_grams"]),
        batch_format="pyarrow")
    dup = dup.materialize()
    if dup.count() == 0:
        # nothing repeats corpus-wide: every doc's coverage is 0 — an
        # empty count stream has no schema, so short-circuit before the
        # join instead of crashing on it
        return totals.map_batches(
            lambda b: pa.table({
                id_col: b[id_col],
                "n_grams": pc.cast(b["n_grams"], pa.int64()),
                "n_dup": pa.array([0] * len(b), pa.int64()),
                "dup_frac": pa.array([0.0] * len(b), pa.float64())}),
            batch_format="pyarrow")
    dup_grams = semi_join(grams, dup, "gram", "gram",
                          num_buckets=num_buckets)
    dups = partial_count(dup_grams, [id_col], num_buckets=num_buckets)
    dups = dups.map_batches(
        lambda b: b.rename_columns([id_col, "n_dup"]), batch_format="pyarrow")
    j = full_outer_join(totals, dups, id_col, id_col,
                        num_buckets=num_buckets)

    def finish(b: pa.Table) -> pa.Table:
        nd = pc.fill_null(b["n_dup"], 0)
        frac = pc.round(pc.divide(pc.cast(nd, pa.float64()),
                                  pc.cast(b["n_grams"], pa.float64())),
                        ndigits=6)
        return pa.table({id_col: b[id_col],
                         "n_grams": pc.cast(b["n_grams"], pa.int64()),
                         "n_dup": pc.cast(nd, pa.int64()),
                         "dup_frac": frac})

    return j.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# edit-distance near-dup (short noisy text: titles, OCR lines)


def _levenshtein_pairs(sa: list, sb: list) -> np.ndarray:
    """Exact Levenshtein over UTF-8 BYTES (DuckDB ``levenshtein``
    semantics), vectorized across the PAIR axis: pairs are grouped by
    (len_a, len_b) so the DP dims are exact, then each of the
    ``len_a × len_b`` DP cells is one C-level numpy op over every pair in
    the group at once — no per-pair Python DP."""
    enc_a = [s.encode("utf-8") for s in sa]
    enc_b = [s.encode("utf-8") for s in sb]
    out = np.zeros(len(sa), dtype=np.int64)
    groups: dict = {}
    for i, (a, b) in enumerate(zip(enc_a, enc_b)):
        groups.setdefault((len(a), len(b)), []).append(i)
    for (la, lb), idx in groups.items():
        if la == 0 or lb == 0:
            out[idx] = max(la, lb)
            continue
        ix = np.asarray(idx)
        A = np.frombuffer(b"".join(enc_a[i] for i in idx),
                          dtype=np.uint8).reshape(len(idx), la)
        B = np.frombuffer(b"".join(enc_b[i] for i in idx),
                          dtype=np.uint8).reshape(len(idx), lb)
        prev = np.broadcast_to(np.arange(lb + 1, dtype=np.int64),
                               (len(idx), lb + 1)).copy()
        cur = np.empty_like(prev)
        for i in range(1, la + 1):
            cur[:, 0] = i
            ai = A[:, i - 1]
            for j in range(1, lb + 1):
                cost = (ai != B[:, j - 1]).astype(np.int64)
                np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1,
                           out=cur[:, j])
                np.minimum(cur[:, j], prev[:, j - 1] + cost, out=cur[:, j])
            prev, cur = cur, prev
        out[ix] = prev[:, lb]
    return out


def editdist_neardup_pairs(ds, id_col="doc_id", text_col="text",
                           prefix_len: int = 40, max_dist: int = 5,
                           band_tokens: int = 16, num_buckets: int = 32):
    """Edit-distance near-dup pairs — the dedup family member for SHORT
    noisy text (titles, OCR lines, product names) where token-set Jaccard
    misfires on reorderings and MinHash shingles are too coarse.

    Blocking: docs sharing BOTH a whitespace-token-count band
    (``n_tokens // band_tokens``) AND their first token are candidates
    (near-identical titles/lines share their first word; a length band
    alone goes quadratic on any length-homogeneous corpus — measured 114 s
    for 5k docs vs 1–2 s with the composite key). Within a block every
    pair verifies exact Levenshtein over the first ``prefix_len``
    CHARACTERS (SQL ``left()``), distance counted over UTF-8 BYTES (DuckDB
    ``levenshtein`` semantics — verified byte-based). The verify kernel is
    vectorized across the pair axis (:func:`_levenshtein_pairs`).

    Scale note: cost is quadratic in the largest (band, first-token)
    block — a stopword-led corpus ("the …") needs a stronger key (first
    two tokens, simhash band); the block loop below is agnostic to what
    the block tuple contains.
    """
    import pyarrow.compute as pc

    from .aggregates import coalesce_small

    def prep(batch: pa.Table) -> pa.Table:
        # explicit trim charset: SQL trim() strips SPACES only, so the
        # oracle passes the same ' \t\n\r' set — a tab-padded doc must
        # land in the same (band, tok0) block on both sides
        t = pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
        trimmed = pc.utf8_trim(t, " \t\n\r")
        keep = pc.not_equal(trimmed, "")
        b = batch.filter(keep)
        t = pc.utf8_trim(pc.cast(b[text_col], pa.string()), " \t\n\r")
        toks = pc.split_pattern_regex(t, r"\s+")
        ntok = pc.list_value_length(toks)
        band = pc.divide(pc.cast(ntok, pa.int64()), band_tokens)
        tok0 = pc.list_element(toks, 0)
        from .joins import _key_buckets

        return pa.table({
            "id": b[id_col],
            "prefix": pc.utf8_slice_codeunits(pc.cast(b[text_col], pa.string()),
                                              0, prefix_len),
            "band": band,
            "tok0": tok0,
            "_bucket": pa.array(_key_buckets(tok0, num_buckets)),
        })

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        a_out, b_out, d_out = [], [], []
        for _, grp in g.groupby(["band", "tok0"], sort=False):
            grp = grp.drop_duplicates(subset=["id"]).sort_values(
                "id", kind="mergesort")
            n = len(grp)
            if n < 2:
                continue
            ids = grp["id"].to_numpy()
            pref = grp["prefix"].to_numpy()
            ai, bi = np.triu_indices(n, 1)
            d = _levenshtein_pairs(list(pref[ai]), list(pref[bi]))
            keep = d <= max_dist
            a_out.append(ids[ai[keep]])
            b_out.append(ids[bi[keep]])
            d_out.append(d[keep])
        if not a_out:
            return pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                                 "doc_b": pd.Series([], dtype="int64"),
                                 "dist": pd.Series([], dtype="int64")})
        return pd.DataFrame({"doc_a": np.concatenate(a_out),
                             "doc_b": np.concatenate(b_out),
                             "dist": np.concatenate(d_out)})

    return coalesce_small(
        ds.map_batches(prep, batch_format="pyarrow")
    ).groupby("_bucket").map_groups(pairs, batch_format="pandas")
