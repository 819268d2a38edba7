"""Approximate-nearest-neighbor similarity search over an embedding column.

- :func:`knn_brute_force` — baseline: per-batch numpy matmul against a
  broadcast query matrix (``ray.put`` once, fetched once per task via
  closure capture of the ObjectRef), emitting per-batch top-k; a single small
  ``groupby(query_id)`` reduce yields global top-k. The full corpus is
  streamed — never materialized.
- :func:`knn_ivf` — scale path: IVF-style coarse quantization. Centroids are
  learned on a driver-side sample (k-means, numpy), broadcast; each vector is
  assigned to its nearest centroid inside ``map_batches``; at query time only
  the ``nprobe`` closest centroid partitions are scanned. At 100 TB the
  assignment pass writes Parquet partitioned by ``centroid_id`` so queries
  prune at the read.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _unit(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def vec_matrix(col, dtype=np.float64) -> np.ndarray:
    """Arrow ``list<float>`` column → ``(n, d)`` numpy matrix WITHOUT the
    ``to_pylist()`` Python-object detour (one Python float object per
    component — the dominant cost of every embedding kernel at corpus
    scale). For the common case — no nulls, rectangular lists — the child
    values buffer is reshaped directly (zero-copy until the dtype cast);
    ragged or null-containing columns fall back to the object path."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype)
    if not (pa.types.is_list(col.type) or pa.types.is_large_list(col.type)
            or pa.types.is_fixed_size_list(col.type)):
        # Ray's ArrowTensorArray extension (numpy-column batches land as
        # tensors) and friends: to_numpy yields the (n, d) matrix directly
        arr = col.to_numpy(zero_copy_only=False)
        if arr.dtype == object:
            return np.stack(arr).astype(dtype)
        return np.asarray(arr, dtype=dtype)
    if col.null_count == 0:
        if pa.types.is_fixed_size_list(col.type):
            d = col.type.list_size
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(n, d).astype(dtype, copy=False)
        offs = col.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        if len(widths) and widths[0] > 0 and (widths == widths[0]).all():
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(n, int(widths[0])).astype(dtype, copy=False)
    return np.stack(col.to_pylist()).astype(dtype)


def quantize_embeddings_batch(batch: pa.Table, id_col: str = "vec_id",
                              vec_col: str = "embedding") -> pa.Table:
    """Symmetric per-vector int8 quantization (4× storage cut for a 100-TB
    embedding corpus): scale = 127 / max|x|, q = floor(x·scale + 0.5).
    Emits EXPLODED rows (vec_id, dim [1-based], q:int8) — scalar columns the
    oracle can reproduce exactly (all arithmetic is f32→f64 exact casts +
    identical f64 ops on both sides). Reassemble with a groupby(vec_id) or
    keep exploded for columnar scans; dequantize: x ≈ q · max|x| / 127."""
    if len(batch) == 0:  # empty blocks occur after upstream filters/splits
        return pa.table({id_col: pa.array([], pa.int64()),
                         "dim": pa.array([], pa.int64()),
                         "q": pa.array([], pa.int8())})
    vecs = vec_matrix(batch[vec_col])
    n, d = vecs.shape
    amax = np.maximum(np.abs(vecs).max(axis=1), 1e-30)
    scale = 127.0 / amax
    q = np.floor(vecs * scale[:, None] + 0.5).astype(np.int8)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            id_col: pa.array(np.repeat(ids, d)),
            "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), n)),
            "q": pa.array(q.reshape(-1), pa.int8()),
        }
    )


def knn_brute_force(ds, queries: np.ndarray, k: int = 10,
                    id_col: str = "vec_id", vec_col: str = "embedding"):
    """Exact cosine top-k: Dataset of (id, vec) × QxD query matrix → Dataset
    (query_id, vec_id, rank) with deterministic (-sim, vec_id) tie-break."""
    import ray

    q_unit = _unit(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(q_unit)

    def batch_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        if len(batch) == 0:  # empty blocks after upstream filters/splits
            return pa.table({"query_id": pa.array([], pa.int32()),
                             "vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        vecs = vec_matrix(batch[vec_col])
        ids = np.asarray(batch[id_col].to_pylist())
        sims = _unit(vecs) @ q.T  # (n, Q)
        kk = min(k, len(ids))
        out_q, out_id, out_sim = [], [], []
        for qi in range(q.shape[0]):
            col = sims[:, qi]
            # deterministic: sort by (-sim, id)
            order = np.lexsort((ids, -col))[:kk]
            out_q.extend([qi] * len(order))
            out_id.extend(ids[order].tolist())
            out_sim.extend(col[order].tolist())
        return pa.table(
            {"query_id": pa.array(out_q, pa.int32()),
             "vec_id": pa.array(out_id, batch[id_col].type),
             "sim": pa.array(out_sim, pa.float64())}
        )

    from .aggregates import grouped_topk

    cand = ds.map_batches(batch_topk, batch_format="pyarrow")
    return grouped_topk(cand, "query_id", ["sim", "vec_id"], [False, True], k,
                        rank_col="rank")


def kmeans_centroids(sample: np.ndarray, n_clusters: int, iters: int = 10,
                     seed: int = 42) -> np.ndarray:
    """Plain numpy Lloyd's k-means on a driver-side sample (deterministic)."""
    rng = np.random.RandomState(seed)
    x = _unit(np.asarray(sample, dtype=np.float64))
    cent = x[rng.choice(len(x), size=min(n_clusters, len(x)), replace=False)]
    for _ in range(iters):
        assign = (x @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = x[m].mean(axis=0)
        cent = _unit(cent)
    return cent


def deterministic_sample(ds, n: int, id_col: str):
    """Layout-invariant driver-side sample: the ``n`` rows with the
    SMALLEST 64-bit id hashes — a pure function of row content, so
    repartitioning the input cannot change which rows seed k-means
    (``ds.limit(n)``'s "first n" follows file/layout order and broke
    parallelism invariance: centroids differed between repartition(2)
    and repartition(5) of identical data). Two streaming passes, scale
    shape: pass 1 moves only per-batch k-smallest 8-byte hashes to the
    driver (threshold = global k-th smallest); pass 2 filters
    ``h <= threshold`` and collects the ~n surviving rows. Returns a
    pandas frame sorted by (hash, id), truncated to exactly ``n``."""
    from .joins import _col_hash64

    def _h(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"h": pa.array([], pa.uint64())})
        h = _col_hash64(batch[id_col])
        k = min(n, len(h))
        return pa.table({"h": pa.array(np.partition(h, k - 1)[:k])})

    hs = ds.map_batches(_h, batch_format="pyarrow").to_pandas()["h"].to_numpy()
    if len(hs) == 0:
        raise ValueError("deterministic_sample: input dataset is empty")
    hs = np.sort(hs.astype(np.uint64))
    thr = hs[min(n, len(hs)) - 1]

    def _take(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch.append_column("_h", pa.array([], pa.uint64()))
        h = _col_hash64(batch[id_col])
        t = batch.filter(pa.array(h <= thr))
        return t.append_column("_h", pa.array(h[h <= thr]))

    df = ds.map_batches(_take, batch_format="pyarrow").to_pandas()
    df = df.sort_values(["_h", id_col], kind="mergesort").head(n)
    return df.drop(columns=["_h"]).reset_index(drop=True)


# pin-vs-spill crossover for multi-pass consumers: a projection whose
# IN-MEMORY estimate stays under this bound is pinned in the object store
# (materialize — each of the iters+2 passes then reads shared-memory
# blocks, no storage round-trip); anything larger, or of unknown size,
# takes the Parquet-spill path so the run never holds the corpus resident
_PIN_MAX_BYTES = 1 << 30  # 1 GiB — small vs one worker node's store

# parquet-on-disk → in-memory Arrow expansion guess for float-list
# embedding tables (snappy + dict encoding): deliberately conservative so
# "pin" is only chosen when it is safely small
_PARQUET_EXPANSION = 4


def _estimate_input_bytes(ds) -> int | None:
    """Cheap (no-execution) input size estimate: sum of the plan's input
    file sizes × an expansion factor. None when the plan has no file
    inputs (from_arrow / derived in-memory) or the paths aren't local —
    callers treat unknown as too-big (the safe, spill path)."""
    import os

    try:
        files = ds.input_files()
    except Exception:
        return None
    if not files:
        return None
    total = 0
    for f in files:
        p = f[7:] if f.startswith("file://") else f
        if not os.path.isfile(p):
            return None
        total += os.path.getsize(p)
    return total * _PARQUET_EXPANSION


def _spill_if_derived(ds, spill_dir, id_col, vec_col):
    """Consumers below read their input SEVERAL times (two sampling
    passes + the main scan). When the input is a Parquet read that's
    free — re-reads stream from storage — but an expensive DERIVED
    pipeline would re-execute per pass; ``spill_dir`` writes the
    (id, vec) projection once and re-reads it (the kmeans pattern)."""
    if spill_dir is None:
        return ds
    import ray.data as rd

    ds.map_batches(lambda t: t.select([id_col, vec_col]),
                   batch_format="pyarrow").write_parquet(spill_dir)
    return rd.read_parquet(spill_dir)


def ivf_build(ds, out_dir: str, n_clusters: int = 16, sample_size: int = 2048,
              id_col: str = "vec_id", vec_col: str = "embedding", seed: int = 42,
              spill_dir: str | None = None):
    """Build a persisted IVF index: assign every vector to its nearest
    centroid inside ``map_batches`` and write Parquet partitioned by
    ``centroid_id`` (one directory per centroid). Queries then PRUNE AT THE
    READ: only the ``nprobe`` closest centroid directories are opened —
    at 100 TB this is the difference between scanning everything and
    scanning nprobe/n_clusters of it. Returns the centroid matrix (also
    persisted to ``centroids.npy``). The input is consumed three times
    (two sampling passes + the assignment scan) — pass ``spill_dir`` when
    it is an expensive derived pipeline rather than a Parquet read
    (see :func:`_spill_if_derived`)."""
    import os

    import ray

    ds = _spill_if_derived(ds, spill_dir, id_col, vec_col)
    sample = deterministic_sample(ds, sample_size, id_col)
    cent = kmeans_centroids(np.stack(sample[vec_col].to_numpy()), n_clusters, seed=seed)
    cent_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        vecs = _unit(vec_matrix(batch[vec_col]))
        a = (vecs @ c.T).argmax(axis=1).astype(np.int32)
        return batch.append_column("centroid_id", pa.array(a))

    os.makedirs(out_dir, exist_ok=True)
    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["centroid_id"]
    )
    np.save(os.path.join(out_dir, "centroids.npy"), cent)
    return cent


def ivf_query(index_dir: str, queries: np.ndarray, k: int = 10, nprobe: int = 4,
              id_col: str = "vec_id", vec_col: str = "embedding"):
    """Query a persisted IVF index reading ONLY the nprobe nearest centroid
    partitions (directory-level pruning — nothing else leaves storage)."""
    import os

    import ray.data as rd

    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    q_unit = _unit(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(q_unit @ cent.T), axis=1)[:, :nprobe]
    dirs = sorted({int(c) for row in probe for c in row})
    paths = []
    for c in dirs:
        pdir = os.path.join(index_dir, f"centroid_id={c}")
        if os.path.isdir(pdir):
            paths.extend(
                os.path.join(pdir, f)
                for f in sorted(os.listdir(pdir))
                if f.endswith(".parquet")
            )
    ds = rd.read_parquet(paths, columns=[id_col, vec_col])
    return knn_brute_force(ds, queries, k=k, id_col=id_col, vec_col=vec_col)


def knn_ivf(ds, queries: np.ndarray, k: int = 10, n_clusters: int = 16,
            nprobe: int = 4, sample_size: int = 2048,
            id_col: str = "vec_id", vec_col: str = "embedding", seed: int = 42,
            spill_dir: str | None = None):
    """IVF ANN: coarse-quantize, scan only ``nprobe`` nearest partitions.

    Recall < 1.0 by design; use :func:`knn_brute_force` as the ground-truth
    baseline when measuring it. The input is consumed three times — pass
    ``spill_dir`` for expensive derived inputs (see
    :func:`_spill_if_derived`).
    """
    import ray

    ds = _spill_if_derived(ds, spill_dir, id_col, vec_col)
    sample = deterministic_sample(ds, sample_size, id_col)
    cent = kmeans_centroids(np.stack(sample[vec_col].to_numpy()), n_clusters, seed=seed)
    q_unit = _unit(np.asarray(queries, dtype=np.float64))
    probe = np.argsort(-(q_unit @ cent.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    allowed = [set(row.tolist()) for row in probe]
    cent_ref = ray.put(cent)
    q_ref = ray.put(q_unit)
    allowed_ref = ray.put(allowed)

    def batch_topk(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        q = ray.get(q_ref)
        allow = ray.get(allowed_ref)
        vecs = _unit(vec_matrix(batch[vec_col]))
        ids = np.asarray(batch[id_col].to_pylist())
        assign = (vecs @ c.T).argmax(axis=1)
        out_q, out_id, out_sim = [], [], []
        for qi in range(q.shape[0]):
            m = np.isin(assign, list(allow[qi]))
            if not m.any():
                continue
            col = vecs[m] @ q[qi]
            sub_ids = ids[m]
            order = np.lexsort((sub_ids, -col))[: min(k, len(sub_ids))]
            out_q.extend([qi] * len(order))
            out_id.extend(sub_ids[order].tolist())
            out_sim.extend(col[order].tolist())
        return pa.table(
            {"query_id": pa.array(out_q, pa.int32()),
             "vec_id": pa.array(out_id, batch[id_col].type),
             "sim": pa.array(out_sim, pa.float64())}
        )

    from .aggregates import grouped_topk

    cand = ds.map_batches(batch_topk, batch_format="pyarrow")
    return grouped_topk(cand, "query_id", ["sim", "vec_id"], [False, True], k,
                        rank_col="rank")


def kmeans_distributed(ds, n_clusters: int = 16, iters: int = 5,
                       id_col: str = "vec_id", vec_col: str = "embedding",
                       sample_size: int = 2048, seed: int = 42,
                       keep_vec: bool = False, spill_dir: str | None = None):
    """Distributed Lloyd's k-means over the FULL embedding corpus (the
    SemDeDup-style clustering primitive: cluster-balanced sampling,
    semantic dedup, IVF refinement all start here).

    Scale shape per iteration: centroids broadcast once (``ray.put``,
    n_clusters × dim — tiny); each batch assigns vectors with one matmul
    and emits PARTIAL per-cluster (sum-vector, count) rows — the shuffle
    moves n_clusters rows per batch, never a vector; the driver folds the
    partials (n_clusters × #batches rows, sorted for deterministic float
    summation) into the next centroid matrix. Init = numpy Lloyd on a
    driver-side sample (same as IVF). Returns (centroids, assignments
    Dataset with one (id, cluster_id) row per vector).

    The input is consumed iters+2 times (sample, one partials pass per
    iteration, the final assign). Size crossover (``_PIN_MAX_BYTES``):
    when the input's no-execution estimate (:func:`_estimate_input_bytes`)
    is under the bound, the (id, vec) projection is ``materialize()``-d —
    pinned once in the object store, every pass reads shared-memory
    blocks; above the bound (or unknown — derived pipelines), the
    projection is written to Parquet once (``spill_dir``, default a fresh
    tmp dir) and each pass lazily re-reads it, so the run never holds the
    corpus resident — the :func:`ivf_build` pattern. An auto-created
    spill dir is REMOVED before returning when ``keep_vec`` is False (the
    (id, cluster) assignments are materialized first — they carry no
    vectors, so pinning them is cheap at any scale); with ``keep_vec``
    the assignments still reference the spilled vectors, so the dir must
    outlive this call — pass ``spill_dir`` explicitly to own cleanup."""
    import shutil
    import tempfile

    import ray
    import ray.data as rd

    made_spill = False
    est = _estimate_input_bytes(ds) if spill_dir is None else None
    if est is not None and est <= _PIN_MAX_BYTES:
        ds = ds.map_batches(
            lambda t: t.select([id_col, vec_col]), batch_format="pyarrow"
        ).materialize()
    else:
        if spill_dir is None:
            spill_dir = tempfile.mkdtemp(prefix="cattle_kmeans_")
            made_spill = True
        ds.map_batches(
            lambda t: t.select([id_col, vec_col]), batch_format="pyarrow"
        ).write_parquet(spill_dir)
        ds = rd.read_parquet(spill_dir)
    head = deterministic_sample(ds, sample_size, id_col)
    sample = np.stack(head[vec_col].to_numpy())
    cent = kmeans_centroids(sample, n_clusters, iters=3, seed=seed)

    for _ in range(iters):
        ref = ray.put(cent)

        def partials(batch: pa.Table, ref=ref) -> pa.Table:
            if len(batch) == 0:  # empty blocks occur after upstream filters
                return pa.table({"cluster_id": pa.array([], pa.int64()),
                                 "n": pa.array([], pa.int64()),
                                 "vsum": pa.array([], pa.list_(pa.float64())),
                                 "lo": pa.array([], pa.string())})
            c = ray.get(ref)
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            x = _unit(vec_matrix(batch[vec_col]))
            assign = (x @ c.T).argmax(axis=1)
            rows = {"cluster_id": [], "n": [], "vsum": [], "lo": []}
            for k in np.unique(assign):
                m = assign == k
                rows["cluster_id"].append(int(k))
                rows["n"].append(int(m.sum()))
                rows["vsum"].append(x[m].sum(axis=0).tolist())
                # deterministic fold key; str() keeps it id-type-generic
                rows["lo"].append(str(ids[m].min()))
            return pa.table({
                "cluster_id": pa.array(rows["cluster_id"], pa.int64()),
                "n": pa.array(rows["n"], pa.int64()),
                "vsum": pa.array(rows["vsum"], pa.list_(pa.float64())),
                "lo": pa.array(rows["lo"], pa.string()),
            })

        p = ds.map_batches(partials, batch_format="pyarrow").to_pandas()
        # deterministic fold: (cluster, min-member-id) fixes the float
        # summation order regardless of which worker finished first
        p = p.sort_values(["cluster_id", "lo"], kind="mergesort")
        new = cent.copy()
        for k, grp in p.groupby("cluster_id", sort=True):
            vs = np.stack(grp["vsum"].to_numpy()).sum(axis=0)
            n = grp["n"].sum()
            if n > 0:
                new[k] = vs / n
        cent = _unit(new)

    ref = ray.put(cent)

    def assign_batch(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            cols = {id_col: batch[id_col],
                    "cluster_id": pa.array([], pa.int64())}
            if keep_vec:
                cols[vec_col] = batch[vec_col]
            return pa.table(cols)
        c = ray.get(ref)
        x = _unit(vec_matrix(batch[vec_col]))
        a = (x @ c.T).argmax(axis=1)
        cols = {id_col: batch[id_col],
                "cluster_id": pa.array(a.astype(np.int64))}
        if keep_vec:  # semantic_dedup needs the vectors downstream
            cols[vec_col] = batch[vec_col]
        return pa.table(cols)

    assigns = ds.map_batches(assign_batch, batch_format="pyarrow")
    if made_spill and not keep_vec:
        # assignments are (id, cluster_id) only — tiny relative to the
        # vectors — so pin them and reclaim the auto-created spill dir now
        assigns = assigns.materialize()
        shutil.rmtree(spill_dir, ignore_errors=True)
    return cent, assigns


def semantic_dedup(ds, threshold: float = 0.95, n_clusters: int = 16,
                   iters: int = 3, id_col: str = "vec_id",
                   vec_col: str = "embedding", sample_size: int = 2048,
                   num_buckets: int = 32, seed: int = 42,
                   spill_dir: str | None = None):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023, public):
    cluster the corpus embeddings with :func:`kmeans_distributed`, then
    WITHIN each cluster drop every vector whose cosine similarity to any
    LOWER-id vector reaches ``threshold`` (keep-first greedy — the standard
    near-dup policy, deterministic given ids).

    Scale shape: the all-pairs similarity is confined to one cluster at a
    time (one bucketed shuffle on cluster_id; per cluster a single matmul +
    upper-triangle reduction — no Python pair loop). Cluster size bounds
    the quadratic term: raise ``n_clusters`` (or sub-cluster a giant
    cluster with a second kmeans pass) so n_c² stays in a worker's heap —
    the same knob SemDeDup itself exposes. Returns the kept
    (id, cluster_id) Dataset."""
    from .joins import _key_buckets

    _cent, assigns = kmeans_distributed(
        ds, n_clusters=n_clusters, iters=iters, id_col=id_col,
        vec_col=vec_col, sample_size=sample_size, seed=seed,
        keep_vec=True, spill_dir=spill_dir)

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bucket", pa.array(_key_buckets(batch["cluster_id"], num_buckets)))

    def drop_dups(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        out = []
        for cid, grp in g.groupby("cluster_id", sort=False):
            grp = grp.sort_values(id_col, kind="mergesort")
            x = _unit(np.stack(grp[vec_col].to_numpy()))
            sims = x @ x.T
            iu = np.triu_indices(len(grp), k=1)
            blocked = np.zeros(len(grp), dtype=bool)
            if len(iu[0]):
                hit = sims[iu] >= threshold
                # column j blocked if ANY earlier row i (i<j) is similar
                np.logical_or.at(blocked, iu[1][hit], True)
            out.append(grp.loc[~blocked, [id_col, "cluster_id"]])
        return pd.concat(out) if out else g.iloc[:0][[id_col, "cluster_id"]]

    # The one sort-shuffle site left: this shuffle carries the vectors, and
    # exchange.bucket_shuffle materializes its whole input before it
    # splits, which pins the embedding corpus in the object store
    # (test_kmeans_never_materializes_corpus forbids that). The
    # repartition merges the assignment blocks before the sort shuffle.
    return (assigns.map_batches(add_bucket, batch_format="pyarrow")
            .repartition(16)
            .groupby("_bucket")
            .map_groups(drop_dups, batch_format="pandas"))


# ---------------------------------------------------------------------------
# Distributed PCA (embedding whitening / dimensionality reduction)


def pca_fit(ds, n_components: int, vec_col: str = "embedding"):
    """Fit PCA over an embedding corpus in ONE streaming pass: each batch
    emits its (n, Σx, ΣxᵀX) moment partials — a d-vector and a d×d matrix,
    a few KB regardless of batch size — and the driver sums them (the same
    bounded-driver-memory merge as the CMS/HLL sketches; moments are exactly
    mergeable, so the result is corpus-order independent up to float
    summation ulps). The d×d covariance eigendecomposition runs on the
    driver (d ≤ a few thousand — never corpus-sized work).

    Sign convention: each component's largest-|loading| coordinate is made
    positive, so components are deterministic across BLAS builds/runs.

    Returns ``(mean [d], components [n_components×d], explained_ratio)``.
    """

    def moments(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:  # empty blocks occur after upstream filters
            return pa.table({"n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.binary()),
                             "xtx": pa.array([], pa.binary())})
        x = vec_matrix(batch[vec_col])
        return pa.table({
            "n": pa.array([x.shape[0]], pa.int64()),
            "s": pa.array([x.sum(axis=0).tobytes()], pa.binary()),
            "xtx": pa.array([(x.T @ x).tobytes()], pa.binary()),
        })

    n_tot, s, xtx = 0, None, None
    parts = ds.map_batches(moments, batch_format="pyarrow")
    for chunk in parts.iter_batches(batch_format="pyarrow", batch_size=64):
        for i in range(len(chunk)):
            n_tot += chunk["n"][i].as_py()
            sv = np.frombuffer(chunk["s"][i].as_py(), dtype=np.float64)
            xv = np.frombuffer(chunk["xtx"][i].as_py(), dtype=np.float64)
            s = sv if s is None else s + sv
            xtx = xv if xtx is None else xtx + xv
    if n_tot < 2:
        raise ValueError("pca_fit needs at least 2 vectors")
    d = len(s)
    mean = s / n_tot
    cov = (xtx.reshape(d, d) - n_tot * np.outer(mean, mean)) / (n_tot - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:n_components]
    comps = evecs[:, order].T  # k×d
    flip = np.sign(comps[np.arange(len(order)),
                         np.abs(comps).argmax(axis=1)])
    flip[flip == 0] = 1.0
    comps = comps * flip[:, None]
    ratio = evals[order] / max(evals.sum(), 1e-300)
    return mean, comps, ratio


def pca_transform(ds, mean: np.ndarray, components: np.ndarray,
                  id_col: str = "vec_id", vec_col: str = "embedding",
                  round_to: int | None = 6):
    """Project every vector onto the fitted components — model broadcast
    ONCE (``ray.put``), one numpy matmul per batch. Emits EXPLODED rows
    (id, dim [1-based], value) — scalar columns, scan-friendly. ``round_to``
    quantizes the projection so output is stable across batch layouts."""
    import ray

    ref = ray.put((np.asarray(mean), np.asarray(components)))

    def project(batch: pa.Table) -> pa.Table:
        m, c = ray.get(ref)
        k = c.shape[0]
        if len(batch) == 0:  # typed by the batch's OWN id column
            return pa.table({id_col: pa.array([], batch[id_col].type),
                             "dim": pa.array([], pa.int64()),
                             "value": pa.array([], pa.float64())})
        x = vec_matrix(batch[vec_col])
        p = (x - m) @ c.T
        if round_to is not None:
            p = np.round(p, round_to)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = len(ids)
        return pa.table({
            id_col: pa.array(np.repeat(ids, k)),
            "dim": pa.array(np.tile(np.arange(1, k + 1, dtype=np.int64), n)),
            "value": pa.array(p.reshape(-1), pa.float64()),
        })

    return ds.map_batches(project, batch_format="pyarrow")
