"""S5/S6/S8: N-Quads sink/source and partitioned sorted triple sink."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from cattle_ray.model import QUAD_KEY, triples_table
from cattle_ray.sources.nquads import nquads_lines, read_nquads, write_nquads
from cattle_ray.sources.triple_sink import write_triples_hash_partitioned


def _triples(n=50):
    return triples_table(
        pa.array([f"http://s{i % 7}" for i in range(n)]),
        pa.array([f"http://p{i % 3}" for i in range(n)]),
        pa.array([f"o{i}" for i in range(n)]),
        pa.array([False] * n),
        pa.array([None] * n, pa.string()),
        pa.array([None] * n, pa.string()),
        pa.array(["http://g"] * n),
        pa.array([None] * n, pa.string()),
    )


@pytest.fixture
def triples_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(_triples()).repartition(4)


def test_nquads_write_read_roundtrip(triples_ds, tmp_path):
    out = str(tmp_path / "nq")
    manifest = write_nquads(triples_ds, out)
    assert manifest["n_lines"].sum() == 50
    files = [os.path.join(out, f) for f in os.listdir(out) if f.endswith(".nq")]
    assert files
    back = read_nquads(files).to_pandas()
    assert len(back) == 50
    got = set(map(tuple, back[QUAD_KEY].fillna("∅").itertuples(index=False)))
    want_df = _triples().to_pandas()
    want = set(map(tuple, want_df[QUAD_KEY].fillna("∅").itertuples(index=False)))
    assert got == want


def test_nquads_write_idempotent(triples_ds, tmp_path):
    """Content-addressed part names → rerun adds no files (retry safety)."""
    out = str(tmp_path / "nq")
    write_nquads(triples_ds, out)
    first = sorted(os.listdir(out))
    write_nquads(triples_ds, out)
    assert sorted(os.listdir(out)) == first


def test_nquads_gzip_parts_roundtrip(triples_ds, tmp_path):
    """S9 distributed form: gzip parts, deterministic names, readable back."""
    import gzip

    out = str(tmp_path / "nqgz")
    manifest = write_nquads(triples_ds, out, gzip_parts=True)
    assert manifest["n_lines"].sum() == 50
    files = sorted(os.listdir(out))
    assert files and all(f.endswith(".nq.gz") for f in files)
    # bytes are deterministic (mtime=0) → rerun adds nothing
    write_nquads(triples_ds, out, gzip_parts=True)
    assert sorted(os.listdir(out)) == files
    # each part really is gzip of the lines its name addresses
    with open(os.path.join(out, files[0]), "rb") as f:
        raw = gzip.decompress(f.read())
    import hashlib
    assert files[0] == f"part-{hashlib.md5(raw).hexdigest()}.nq.gz"
    # transparent read-back
    back = read_nquads([os.path.join(out, f) for f in files]).to_pandas()
    assert len(back) == 50
    got = set(map(tuple, back[QUAD_KEY].fillna("∅").itertuples(index=False)))
    want_df = _triples().to_pandas()
    want = set(map(tuple, want_df[QUAD_KEY].fillna("∅").itertuples(index=False)))
    assert got == want


def test_hash_partitioned_sink(triples_ds, tmp_path):
    out = str(tmp_path / "triples")
    manifest = write_triples_hash_partitioned(triples_ds, out, num_partitions=4)
    assert manifest["n_triples"].sum() == 50
    # each partition sorted by subj, subjects never straddle partitions
    subj_to_part = {}
    for _, row in manifest.iterrows():
        t = pq.read_table(row["path"])
        subs = t["subj"].to_pylist()
        assert subs == sorted(subs)
        for s in set(subs):
            assert subj_to_part.setdefault(s, row["part_id"]) == row["part_id"]


def test_subject_point_read_prunes(triples_ds, tmp_path):
    """read_triples_for_subject opens exactly one partition file."""
    from cattle_ray.sources.triple_sink import read_triples_for_subject

    out = str(tmp_path / "t")
    write_triples_hash_partitioned(triples_ds, out, num_partitions=4)
    got = read_triples_for_subject(out, "http://s3", num_partitions=4)
    assert got.num_rows > 0
    assert set(got["subj"].to_pylist()) == {"http://s3"}


def test_nquads_lines_dataset(triples_ds):
    lines = nquads_lines(triples_ds).to_pandas()
    assert len(lines) == 50
    assert all(l.endswith(" .") for l in lines["line"])


def test_incremental_merge(ray_session, tmp_path):
    """merge_triples_hash_partitioned: only affected partitions rewritten,
    set semantics on re-merge (idempotent), untouched partitions preserved."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from cattle_ray.model import TRIPLE_SCHEMA
    from cattle_ray.sources.triple_sink import (
        merge_triples_hash_partitioned,
        write_triples_hash_partitioned,
    )

    def quads(subjects):
        rows = [{"subj": s, "pred": "http://p", "obj": f"o-{s}",
                 "obj_is_iri": False, "obj_datatype": None, "obj_lang": None,
                 "graph": "http://g", "src_url": None} for s in subjects]
        import pyarrow as pa
        return rd.from_arrow(pa.Table.from_pylist(rows, schema=TRIPLE_SCHEMA))

    out = str(tmp_path / "store")
    base_subjects = [f"http://s/{i}" for i in range(40)]
    write_triples_hash_partitioned(quads(base_subjects), out, num_partitions=4)
    parts = lambda: [p for p in os.listdir(out) if p.startswith("part_id=")]
    mtimes = {p: os.path.getmtime(os.path.join(out, p, "data.parquet"))
              for p in parts()}

    # merge: 1 duplicate subject + 1 new one
    import time
    time.sleep(0.05)
    man = merge_triples_hash_partitioned(
        quads(["http://s/0", "http://s/new"]), out, num_partitions=4)
    assert man["n_added"].sum() == 1  # s/0 row identical → set-dedup'd away

    def read_all():
        tbls = [pq.read_table(os.path.join(out, p, "data.parquet"))
                for p in parts()]
        import pyarrow as pa
        return pa.concat_tables(tbls)

    allq = read_all()
    assert allq.num_rows == 41
    # only the affected partitions were rewritten
    touched = set(f"part_id={p}" for p in man["part_id"])
    for p, m in mtimes.items():
        if p not in touched:
            assert os.path.getmtime(os.path.join(out, p, "data.parquet")) == m
    # idempotent re-merge
    man2 = merge_triples_hash_partitioned(
        quads(["http://s/0", "http://s/new"]), out, num_partitions=4)
    assert man2["n_added"].sum() == 0
    assert read_all().num_rows == 41
    # per-partition sort maintained
    for p in parts():
        t = pq.read_table(os.path.join(out, p, "data.parquet"))
        subs = t["subj"].to_pylist()
        assert subs == sorted(subs)


def test_match_triples_patterns(ray_session, tmp_path):
    """Triple-pattern reads: subject-bound point read opens one partition;
    predicate/object patterns push filters into the parallel scan."""
    import pandas as pd
    import ray.data as rd
    import pyarrow as pa

    from cattle_ray.model import TRIPLE_SCHEMA
    from cattle_ray.sources.triple_sink import (
        match_triples, write_triples_hash_partitioned)

    rows = []
    for i in range(30):
        rows.append({"subj": f"http://s/{i}", "pred": "http://p/type",
                     "obj": f"http://c/{i % 3}", "obj_is_iri": True,
                     "obj_datatype": None, "obj_lang": None,
                     "graph": "http://g", "src_url": None})
        rows.append({"subj": f"http://s/{i}", "pred": "http://p/name",
                     "obj": f"name{i}", "obj_is_iri": False,
                     "obj_datatype": None, "obj_lang": None,
                     "graph": "http://g", "src_url": None})
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=TRIPLE_SCHEMA))
    out = str(tmp_path / "store")
    write_triples_hash_partitioned(ds, out, num_partitions=4)

    # s ? ? → both triples of that subject
    t = match_triples(out, subj="http://s/7", num_partitions=4)
    assert t.num_rows == 2
    # s p ? → one
    t = match_triples(out, subj="http://s/7", pred="http://p/name", num_partitions=4)
    assert t.num_rows == 1 and t["obj"][0].as_py() == "name7"
    # ? p o → distributed scan with pushdown
    d = match_triples(out, pred="http://p/type", obj="http://c/1", num_partitions=4)
    got = d.to_pandas()
    assert len(got) == 10 and set(got["obj"]) == {"http://c/1"}


def test_pages_jsonl_roundtrip(ray_session, tmp_path):
    """JSONL pages sink → source roundtrip: binary html, µs timestamps and
    text survive byte-exact; parts are content-addressed (idempotent)."""
    import ray.data as rd

    from cattle_ray.pages import pages_table
    from cattle_ray.sources.jsonl import read_pages_jsonl, write_pages_jsonl

    pages = pages_table(40).select(["url", "warc_ts", "html", "text", "lang"])
    out = str(tmp_path / "jl")
    man = write_pages_jsonl(rd.from_arrow(pages).repartition(3), out)
    assert man["n_rows"].sum() == 40
    files = sorted(os.listdir(out))
    assert files and all(f.endswith(".jsonl") for f in files)
    write_pages_jsonl(rd.from_arrow(pages).repartition(3), out)
    assert sorted(os.listdir(out)) == files  # idempotent rerun

    back = (read_pages_jsonl([os.path.join(out, f) for f in files])
            .to_pandas().sort_values("url").reset_index(drop=True))
    want = pages.to_pandas().sort_values("url").reset_index(drop=True)
    import pandas as pd
    pd.testing.assert_frame_equal(back, want)

    # extractor invariant holds through the roundtrip
    from cattle_ray.stages.extract import extract_text_bytes
    assert all(extract_text_bytes(h) == t
               for h, t in zip(back["html"], back["text"]))


def test_sorted_range_partitioned_export(ray_session, tmp_path):
    """Global sort materialized: parts are disjoint ordered ranges, global
    order = file order; range reads open only intersecting parts."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from cattle_ray.sources.sorted_sink import (
        read_sorted_range, write_sorted_range_partitioned)

    rng = np.random.RandomState(5)
    vals = rng.permutation(20_000).astype("int64")
    ds = rd.from_arrow(pa.table({"value": vals, "tag": vals % 7})).repartition(8)
    out = str(tmp_path / "sorted")
    man = write_sorted_range_partitioned(ds, "value", out)
    assert man["n_rows"].sum() == 20_000 and len(man) > 1
    # disjoint, ordered ranges
    for i in range(1, len(man)):
        assert man["min"][i] > man["max"][i - 1]
    # concatenating parts in name order gives the total order
    got = []
    for p in sorted(os.listdir(out)):
        t = pq.read_table(os.path.join(out, p))
        col = t["value"].to_pylist()
        assert col == sorted(col)
        got.extend(col)
    assert got == sorted(vals.tolist())
    # pruned range read
    d = read_sorted_range(out, "value", lo=5000, hi=5999)
    picked = d.to_pandas()
    assert set(picked[(picked["value"] >= 5000) & (picked["value"] <= 5999)]
               ["value"]) == set(range(5000, 6000))
    # it opened fewer parts than exist (pruning happened)
    assert d.input_files() and len(d.input_files()) < len(man)


def test_funnel_steps(ray_session):
    """view→click→error ordered funnel vs a pandas reference."""
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.windows import funnel

    rows = []
    base = pd.Timestamp("2024-01-01")

    def ev(u, t, k):
        rows.append({"user_id": u, "ts": base + pd.Timedelta(seconds=t),
                     "event_type": k})

    # u1 completes all 3 in order; u2 clicks BEFORE viewing (no conversion
    # past step 1); u3 views+clicks, no error; u4 never views
    ev(1, 0, "view"); ev(1, 10, "click"); ev(1, 20, "error")
    ev(2, 5, "click"); ev(2, 6, "view")
    ev(3, 0, "view"); ev(3, 1, "click"); ev(3, 2, "click")
    ev(4, 0, "click"); ev(4, 1, "error")
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(3)

    full = funnel(ds, ["view", "click", "error"]).to_pandas()
    assert set(full["user_id"]) == {1}
    r = full.iloc[0]
    assert (r["t_view"], r["t_click"], r["t_error"]) == (
        base, base + pd.Timedelta(seconds=10), base + pd.Timedelta(seconds=20))

    two = funnel(ds, ["view", "click"]).to_pandas()
    assert set(two["user_id"]) == {1, 3}


def test_sorted_export_reexport_wipes_stale_parts(ray_session, tmp_path):
    """A re-export with fewer blocks must not leave stale higher-numbered
    parts; constant-key (duplicate-payload) inputs must not crash or lose
    rows."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from cattle_ray.sources.sorted_sink import write_sorted_range_partitioned

    out = str(tmp_path / "s")
    big = rd.from_arrow(pa.table({
        "value": np.random.RandomState(0).permutation(20_000).astype("int64"),
        "tag": np.zeros(20_000, dtype="int64")})).repartition(8)
    man1 = write_sorted_range_partitioned(big, "value", out)
    small = rd.from_arrow(pa.table({
        "value": np.arange(100, dtype="int64"),
        "tag": np.zeros(100, dtype="int64")})).repartition(2)
    man2 = write_sorted_range_partitioned(small, "value", out)
    assert len(man2) < len(man1)
    on_disk = [f for f in os.listdir(out) if f.startswith("part-")]
    assert len(on_disk) == len(man2)  # stale generation gone
    total = sum(pq.read_table(os.path.join(out, f)).num_rows for f in on_disk)
    assert total == 100

    # fully constant rows (byte-identical block risk): no crash, no loss
    const = rd.from_arrow(pa.table({
        "value": np.full(8000, 7, dtype="int64"),
        "tag": np.full(8000, 1, dtype="int64")})).repartition(4)
    man3 = write_sorted_range_partitioned(const, "value", out)
    on_disk = [f for f in os.listdir(out) if f.startswith("part-")]
    total = sum(pq.read_table(os.path.join(out, f)).num_rows for f in on_disk)
    assert total == 8000 and man3["n_rows"].sum() == 8000


def test_merge_validates_partition_count(ray_session, tmp_path):
    """Merging with a wrong partition count must refuse (rows would hash to
    wrong partitions); merging into a fresh dir records the count."""
    import json

    import pyarrow as pa
    import pytest
    import ray.data as rd

    from cattle_ray.model import TRIPLE_SCHEMA
    from cattle_ray.sources.triple_sink import (
        merge_triples_hash_partitioned, write_triples_hash_partitioned)

    def quads(subjects):
        rows = [{"subj": s, "pred": "http://p", "obj": "o",
                 "obj_is_iri": False, "obj_datatype": None, "obj_lang": None,
                 "graph": "http://g", "src_url": None} for s in subjects]
        return rd.from_arrow(pa.Table.from_pylist(rows, schema=TRIPLE_SCHEMA))

    out = str(tmp_path / "s")
    write_triples_hash_partitioned(quads([f"http://s/{i}" for i in range(10)]),
                                   out, num_partitions=4)
    with pytest.raises(ValueError, match="num_partitions"):
        merge_triples_hash_partitioned(quads(["http://s/x"]), out,
                                       num_partitions=8)
    # fresh dir: merge records the count
    fresh = str(tmp_path / "fresh")
    merge_triples_hash_partitioned(quads(["http://s/x"]), fresh,
                                   num_partitions=4)
    assert json.load(open(f"{fresh}/_meta.json"))["num_partitions"] == 4


def test_merge_dedup_immune_to_arrow_boolkey_groupby_bug(ray_session, tmp_path):
    """pyarrow 16.1 hash group_by mis-groups when a bit-packed BOOL key
    precedes nullable string keys (synthesized: 120 rows with 60 distinct
    → Arrow reports 88). The store merge dedups through an int64 cast, so
    re-merging identical quads must stay idempotent even on bool+nullable
    schemas. This test pins the workaround in ``_group_rows``; if the raw
    numbers below ever agree after a pyarrow upgrade, it may be
    removable."""
    import pyarrow as pa
    import ray.data as rd

    from cattle_ray.sources.triple_sink import merge_triples_hash_partitioned

    n = 60
    t = pa.table({
        "subj": [f"https://e/s{i % 10}" for i in range(n)],
        "pred": [f"https://e/p{i % 3}" for i in range(n)],
        "obj": [f"o{i % 7}" for i in range(n)],
        "obj_is_iri": pa.array([bool(i % 2) for i in range(n)], pa.bool_()),
        "obj_datatype": pa.array([None if i % 5 else "x" for i in range(n)],
                                 pa.string()),
        "obj_lang": pa.array([None] * n, pa.string()),
        "graph": ["g"] * n,
        "src_url": [f"https://site{i}" for i in range(n)],
    })
    # confirm the raw hazard exists on this data shape (informational —
    # a fixed pyarrow would make both numbers equal)
    doubled = pa.concat_tables([t, t]).combine_chunks()
    raw = doubled.group_by(
        [c for c in t.column_names if c != "src_url"]).aggregate([]).num_rows
    true_distinct = len(
        doubled.to_pandas().drop_duplicates(
            subset=[c for c in t.column_names if c != "src_url"]))

    store = str(tmp_path / "bstore")
    m1 = merge_triples_hash_partitioned(rd.from_arrow(t), store,
                                        num_partitions=2)
    assert int(m1["n_total"].sum()) == true_distinct
    m2 = merge_triples_hash_partitioned(rd.from_arrow(t), store,
                                        num_partitions=2)
    assert int(m2["n_added"].sum()) == 0, (
        f"merge not idempotent: arrow raw group gave {raw} vs true "
        f"{true_distinct} — bool-key workaround regressed")


def test_orc_roundtrip_and_pruning(ray_session, tmp_path):
    """Distributed ORC sink → source roundtrip: same rows back at any
    stripe/block layout; column pruning returns only requested columns;
    rerun of identical input is idempotent (content-addressed parts)."""
    import os

    import pandas as pd
    import ray.data as rd

    from cattle_ray.sources.orc_source import read_orc, write_orc

    df = pd.DataFrame({
        "k": list(range(500)),
        "v": [f"s{i % 7}" for i in range(500)],
    })
    out = str(tmp_path / "orc")
    n_parts = write_orc(rd.from_pandas(df).repartition(4), out)
    assert n_parts >= 1
    names = sorted(os.listdir(out))
    assert all(n.startswith("part-") and n.endswith(".orc") for n in names)

    back = read_orc(out).to_pandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(back, df)

    # column pruning: only the requested column comes back
    just_k = read_orc(out, columns=["k"]).to_pandas()
    assert list(just_k.columns) == ["k"]
    assert sorted(just_k["k"]) == list(range(500))

    # idempotent rerun: identical blocks → identical content-addressed
    # names, no duplicate parts
    write_orc(rd.from_pandas(df).repartition(4), out)
    assert sorted(os.listdir(out)) == names

    # multi-stripe single file still fans out: one block per stripe
    import pyarrow as pa
    import pyarrow.orc as orc

    big = pa.table({"x": list(range(100_000))})
    p = str(tmp_path / "one.orc")
    orc.write_table(big, p, stripe_size=64 * 1024)
    f = orc.ORCFile(p)
    ds = read_orc(p)
    if f.nstripes > 1:
        assert ds.count() == 100_000


def test_compact_store_repartitions_and_rekeys(triples_ds, tmp_path):
    """compact_store rebuilds the layout: new partition count (same rows,
    same point-read results, _meta updated), then a re-key to obj gives
    obj-routed point reads; debris dirs are cleaned up."""
    from cattle_ray.sources.triple_sink import (
        compact_store, match_triples, read_triples_for_key, store_key,
        store_num_partitions, write_triples_hash_partitioned)

    out = str(tmp_path / "store")
    write_triples_hash_partitioned(triples_ds, out, num_partitions=8)
    before = match_triples(out, subj="http://s3")
    assert before.num_rows > 0

    m = compact_store(out, num_partitions=3)
    assert store_num_partitions(out) == 3
    assert m["n_triples"].sum() == 50
    after = match_triples(out, subj="http://s3")
    key = ["subj", "pred", "obj"]
    assert sorted(zip(*[before[c].to_pylist() for c in key])) == \
        sorted(zip(*[after[c].to_pylist() for c in key]))
    assert not os.path.isdir(out + ".old")
    assert not os.path.isdir(out + ".compact.tmp")

    # re-key to the secondary-index layout: obj-bound point reads route
    compact_store(out, key="obj")
    assert store_key(out) == "obj"
    got = read_triples_for_key(out, "o7", key="obj")
    assert set(got["obj"].to_pylist()) == {"o7"}
    # full census intact through both rebuilds
    import glob

    import pyarrow.parquet as _pq

    n = sum(_pq.read_table(p).num_rows
            for p in glob.glob(f"{out}/part_id=*/data.parquet"))
    assert n == 50


def test_store_time_travel_lifecycle(ray_session, tmp_path):
    """Generation-aware store end to end: two tracked merges + a pattern
    delete + a routed (single-partition) delete, read_store_asof
    resurrects every intermediate snapshot, history is recorded, and the
    guards hold (untracked merge refused on a tracked store; compaction
    refuses to silently drop history, resets generations when forced)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        compact_store, delete_triples, merge_triples_hash_partitioned,
        read_store_asof, store_generation, store_generations)

    t = _triples()
    out = str(tmp_path / "store")

    def keys(tbl):
        return set(zip(tbl["subj"].to_pylist(), tbl["pred"].to_pylist(),
                       tbl["obj"].to_pylist()))

    def asof_keys(gen=None):
        df = read_store_asof(out, gen).to_pandas()
        if df.empty:  # Ray's to_pandas drops columns on all-empty datasets
            return set()
        return set(zip(df["subj"], df["pred"], df["obj"]))

    p01 = t.filter(pc.not_equal(t["pred"], "http://p2"))
    p2 = t.filter(pc.equal(t["pred"], "http://p2"))

    # gen 1: p0+p1 rows; gen 2: p2 rows; gen 3: delete pred=p0 (all
    # partitions); gen 4: delete subj=s3 (routing key bound → one part)
    merge_triples_hash_partitioned(rd.from_arrow(p01).repartition(3), out,
                                   num_partitions=4, track_generations=True)
    assert store_generation(out) == 1
    merge_triples_hash_partitioned(rd.from_arrow(p2).repartition(2), out,
                                   num_partitions=4, track_generations=True)
    m3 = delete_triples(out, pred="http://p0")
    assert m3["n_removed"].sum() == p01.filter(
        pc.equal(p01["pred"], "http://p0")).num_rows
    m4 = delete_triples(out, subj="http://s3")
    assert store_generation(out) == 4
    assert len(m4) <= 1  # routed delete touches at most one partition

    all_k, p01_k, p2_k = keys(t), keys(p01), keys(p2)
    p1p2_k = {k for k in all_k if k[1] != "http://p0"}
    live_k = {k for k in p1p2_k if k[0] != "http://s3"}
    assert asof_keys() == live_k
    assert asof_keys(3) == p1p2_k      # resurrect the s3 delete
    assert asof_keys(2) == all_k       # resurrect the p0 delete
    assert asof_keys(1) == p01_k       # un-apply the gen-2 merge
    assert asof_keys(0) == set()       # before any tracked content

    hist = store_generations(out)
    assert [h["op"] for h in hist] == ["merge", "merge", "delete", "delete"]
    assert hist[2]["removed"] == int(m3["n_removed"].sum())

    import pytest as _pytest
    with _pytest.raises(ValueError, match="track_generations"):
        merge_triples_hash_partitioned(rd.from_arrow(p2), out,
                                       num_partitions=4)
    with _pytest.raises(ValueError, match="drop_history"):
        compact_store(out, num_partitions=2)
    compact_store(out, num_partitions=2, drop_history=True)
    assert store_generation(out) == 0
    assert asof_keys() == live_k  # live content is the new baseline


def test_asof_correct_inside_crash_window(ray_session, tmp_path):
    """A mutation that rewrote partitions but died BEFORE the meta bump
    leaves debris gen dirs above the recorded generation; asof must
    replay them (set-semantics no-op where the rewrite hadn't happened)
    so the requested snapshot stays exact inside the window."""
    import json

    import pyarrow.compute as pc
    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        delete_triples, merge_triples_hash_partitioned, read_store_asof,
        store_generation)

    t = _triples()
    out = str(tmp_path / "store")
    merge_triples_hash_partitioned(rd.from_arrow(t).repartition(3), out,
                                   num_partitions=4, track_generations=True)
    delete_triples(out, pred="http://p1")
    # simulate the crash: partitions rewritten + gen=2 debris on disk,
    # but the meta generation bump "lost"
    meta_path = os.path.join(out, "_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta["generation"] = 1
    meta["history"] = meta["history"][:1]
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    assert store_generation(out) == 1

    df = read_store_asof(out, 1).to_pandas()
    want = t.filter(pc.equal(t["pred"], "http://p1")).num_rows
    assert len(df) == 50  # the p1 rows resurrected from the debris delta
    assert (df["pred"] == "http://p1").sum() == want


def test_review_fixes_generation_store(ray_session, tmp_path):
    """Round-3 review fixes, pinned: (a) a mutation after a crashed
    (pre-meta-bump) mutation takes a FRESH generation number instead of
    clobbering the debris deltas; (b) a no-op delete bumps nothing;
    (c) graph filters on a graph-less store raise a clear error;
    (d) compact_store self-heals the between-renames crash window."""
    import json
    import os as _os

    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        compact_store, delete_triples, match_triples,
        merge_triples_hash_partitioned, read_store_asof, store_generation)

    t = _triples()
    out = str(tmp_path / "store")
    merge_triples_hash_partitioned(rd.from_arrow(t).repartition(3), out,
                                   num_partitions=4, track_generations=True)
    delete_triples(out, pred="http://p1")  # gen 2
    # crash simulation: meta bump lost
    meta_path = os.path.join(out, "_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta["generation"], meta["history"] = 1, meta["history"][:1]
    with open(meta_path, "w") as f:
        json.dump(meta, f)

    # (a) the next mutation must NOT reuse gen 2 (debris on disk)
    m = delete_triples(out, pred="http://p2")
    assert store_generation(out) == 3
    # both deltas survive: asof(1) resurrects p1 AND p2 rows
    df = read_store_asof(out, 1).to_pandas()
    assert len(df) == 50

    # (b) no-op delete: nothing matched → no generation bump
    before = store_generation(out)
    m2 = delete_triples(out, pred="http://nope")
    assert len(m2) == 0 and store_generation(out) == before

    # (c) graph filter on a store whose rows DO have graph col works;
    # strip the column and it must raise clearly
    got = match_triples(out, graph="http://g")
    assert got.count() > 0
    import pyarrow.parquet as _pq
    for p in sorted(__import__("glob").glob(f"{out}/part_id=*/data.parquet")):
        tt = _pq.read_table(p)
        _pq.write_table(tt.drop_columns(["graph"]), p)
    with pytest.raises(ValueError, match="no named-graph column"):
        match_triples(out, graph="http://g")

    # (d) compact crash window: live dir renamed away, .old present
    _os.rename(out, out + ".old")
    compact_store(out, num_partitions=2, drop_history=True)
    assert store_generation(out) == 0
    n = sum(_pq.read_table(p).num_rows for p in
            __import__("glob").glob(f"{out}/part_id=*/data.parquet"))
    assert n == read_store_asof(out).count()


def test_secondary_index_provenance_and_staleness(ray_session, tmp_path):
    """build_secondary_index records the primary's effective generation;
    a later tracked mutation flags the index stale; rebuilding clears it;
    point reads route by obj through the index."""
    import pyarrow.compute as pc
    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        build_secondary_index, delete_triples, index_is_stale,
        merge_triples_hash_partitioned, read_triples_for_key, store_key)

    t = _triples()
    primary = str(tmp_path / "primary")
    idx = str(tmp_path / "obj_idx")
    merge_triples_hash_partitioned(rd.from_arrow(t).repartition(3), primary,
                                   num_partitions=4, track_generations=True)
    build_secondary_index(primary, idx)
    assert store_key(idx) == "obj"
    assert not index_is_stale(idx)
    got = read_triples_for_key(idx, "o7", key="obj")
    assert set(got["obj"].to_pylist()) == {"o7"}

    delete_triples(primary, pred="http://p1")
    assert index_is_stale(idx)

    build_secondary_index(primary, idx)  # rebuild replaces in place
    assert not index_is_stale(idx)
    # the rebuilt index no longer serves the deleted rows
    import glob

    import pyarrow.parquet as _pq

    n = sum(_pq.read_table(p).num_rows
            for p in glob.glob(f"{idx}/part_id=*/data.parquet"))
    assert n == t.filter(pc.not_equal(t["pred"], "http://p1")).num_rows


def test_round4_advice_fixes(ray_session, tmp_path, capsys):
    """Round-4 advisor fixes, pinned: (a) read_store_asof rejects phantom
    (uncommitted debris) generation numbers; (b) build_secondary_index
    self-heals the between-renames crash window like compact_store;
    (c) cli store --asof with a filter column the store lacks raises the
    same clear ValueError as the live match_triples path."""
    import glob
    import json
    import os as _os
    import shutil

    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        build_secondary_index, delete_triples, index_is_stale,
        merge_triples_hash_partitioned, read_store_asof,
        read_triples_for_key)

    t = _triples()
    out = str(tmp_path / "store")
    merge_triples_hash_partitioned(rd.from_arrow(t).repartition(3), out,
                                   num_partitions=4, track_generations=True)
    delete_triples(out, pred="http://p1")  # gen 2
    # crash simulation: gen-2 deltas on disk but meta bump lost
    meta_path = os.path.join(out, "_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta["generation"], meta["history"] = 1, meta["history"][:1]
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    delete_triples(out, pred="http://p2")  # retry lands as gen 3
    # (a) gen 2 exists only as debris — asof(2) would return a half-merged
    # snapshot, so it must be rejected; committed gens still replay
    with pytest.raises(ValueError, match="never committed"):
        read_store_asof(out, 2)
    assert read_store_asof(out, 1).count() == 50
    assert read_store_asof(out, 0).count() == 0

    # (b) index rebuild crash window: live index renamed away, .old present
    idx = str(tmp_path / "obj_idx")
    build_secondary_index(out, idx)
    n_before = sum(pq.read_table(p).num_rows
                   for p in glob.glob(f"{idx}/part_id=*/data.parquet"))
    _os.rename(idx, idx + ".old")
    build_secondary_index(out, idx)  # restores .old, then replaces it
    assert not _os.path.isdir(idx + ".old")
    assert not index_is_stale(idx)
    n_after = sum(pq.read_table(p).num_rows
                  for p in glob.glob(f"{idx}/part_id=*/data.parquet"))
    assert n_after == n_before
    got = read_triples_for_key(idx, "o3", key="obj")
    assert set(got["obj"].to_pylist()) == {"o3"}

    # (c) --asof + --graph on a triples-only store: clear error up front
    from cattle_ray.cli import main

    plain = str(tmp_path / "plain")
    write_triples_hash_partitioned(
        rd.from_arrow(t.drop_columns(["graph"])).repartition(2), plain,
        num_partitions=2)
    with pytest.raises(ValueError, match="no named-graph column"):
        main(["store", plain, "--asof", "0", "--graph", "http://g"])


@pytest.mark.parametrize("bucket_bytes", [None, 1],
                         ids=["in_process", "dataset"])
def test_refresh_secondary_index_incremental(ray_session, tmp_path,
                                             monkeypatch, bucket_bytes):
    """Round-4 order #10: a stale obj-index is brought current by applying
    the tracked mutations' deltas — WITHOUT reading the primary's data
    files (they are renamed away during the refresh to prove it), and the
    refreshed content is row-identical to a from-scratch rebuild. Runs
    with the deltas read in the driver (they fit ``BUCKET_BYTES``) and,
    with ``BUCKET_BYTES`` patched to 1, read by ``read_parquet``."""
    import glob
    import os as _os

    import pyarrow.compute as pc
    import ray.data as rd

    from cattle_ray.model import triples_table
    from cattle_ray.sources.triple_sink import (
        build_secondary_index, delete_triples, index_is_stale,
        merge_triples_hash_partitioned, read_triples_for_key,
        refresh_secondary_index)
    from cattle_ray.stages import exchange

    if bucket_bytes is not None:
        monkeypatch.setattr(exchange, "BUCKET_BYTES", bucket_bytes)
    t = _triples()
    primary = str(tmp_path / "primary")
    idx = str(tmp_path / "obj_idx")
    merge_triples_hash_partitioned(rd.from_arrow(t).repartition(3), primary,
                                   num_partitions=4, track_generations=True)
    build_secondary_index(primary, idx)
    assert not index_is_stale(idx)

    # gen 2: merge new rows (incl. a representative change: same quad,
    # smaller src_url wins) — then gen 3: a tracked delete
    n = 8
    extra = triples_table(
        pa.array([f"http://new{i}" for i in range(n)] + ["http://s1"]),
        pa.array([f"http://p{i % 3}" for i in range(n)] + ["http://p0"]),
        pa.array([f"extra{i}" for i in range(n)] + ["o15"]),
        pa.array([False] * (n + 1)),
        pa.array([None] * (n + 1), pa.string()),
        pa.array([None] * (n + 1), pa.string()),
        pa.array(["http://g"] * (n + 1)),
        pa.array([None] * n + ["http://a-src"], pa.string()),
    )
    merge_triples_hash_partitioned(rd.from_arrow(extra), primary,
                                   num_partitions=4, track_generations=True)
    delete_triples(primary, pred="http://p2")
    assert index_is_stale(idx)

    # hide the primary's data files: the refresh must need ONLY the deltas
    hidden = []
    for p in glob.glob(f"{primary}/part_id=*/data.parquet"):
        _os.rename(p, p + ".hidden")
        hidden.append(p)
    try:
        manifest = refresh_secondary_index(idx)
    finally:
        for p in hidden:
            _os.rename(p + ".hidden", p)
    assert not index_is_stale(idx)
    assert len(manifest) > 0 and manifest["n_applied_added"].sum() > 0

    # refreshed content == from-scratch rebuild content (full-row set)
    idx2 = str(tmp_path / "obj_idx_rebuilt")
    build_secondary_index(primary, idx2)

    def _rows(d):
        tt = pa.concat_tables([
            pq.read_table(p)
            for p in sorted(glob.glob(f"{d}/part_id=*/data.parquet"))])
        return set(map(tuple, tt.to_pandas().fillna("∅")
                       .itertuples(index=False)))

    assert _rows(idx) == _rows(idx2)
    # point reads: new obj routable, deleted pred's objects gone
    got = read_triples_for_key(idx, "extra3", key="obj")
    assert set(got["subj"].to_pylist()) == {"http://new3"}
    assert read_triples_for_key(idx, "o2", key="obj").num_rows == 0
    # representative change applied (src_url of the s1/p1/o15 quad)
    got = read_triples_for_key(idx, "o15", key="obj")
    assert got.num_rows == 1 and got["src_url"][0].as_py() == "http://a-src"

    # idempotent: a second refresh is a fresh-index no-op
    assert len(refresh_secondary_index(idx)) == 0

    # crashed-mutation window: debris gen beyond history is refused
    delete_triples(primary, pred="http://p0")  # gen 4 (committed)
    gdir = f"{primary}/part_id=0/gen=9"
    _os.makedirs(gdir)
    pq.write_table(t.slice(0, 1), _os.path.join(gdir, "added.parquet"))
    with pytest.raises(ValueError, match="uncommitted delta debris"):
        refresh_secondary_index(idx)
    import shutil
    shutil.rmtree(gdir)
    refresh_secondary_index(idx)  # debris cleared → refresh proceeds
    assert not index_is_stale(idx)
    assert read_triples_for_key(idx, "o0", key="obj").num_rows == 0

    # primary regressed (compacted → generation reset): refuse, demand rebuild
    from cattle_ray.sources.triple_sink import compact_store
    compact_store(primary, num_partitions=4, drop_history=True)
    with pytest.raises(ValueError, match="compacted or replaced"):
        refresh_secondary_index(idx)


def _random_table(rng, n_cols=None):
    """A random table over the column types the pyarrow 16.1 grouping
    hazard involves: int64, bool with nulls, strings with and without
    nulls, in random order, with half its rows repeated."""
    cols = {}
    for j in range(n_cols or rng.randint(2, 6)):
        kind, card = rng.choice(["int", "bool", "str", "strnull"]), \
            rng.randint(1, 6)
        n = len(next(iter(cols.values()))) if cols else rng.randint(5, 120)
        if kind == "int":
            vals = pa.array([rng.randrange(card) for _ in range(n)])
        elif kind == "bool":
            vals = pa.array([rng.random() < 0.5 if rng.random() > 0.2
                             else None for _ in range(n)], pa.bool_())
        elif kind == "str":
            vals = pa.array([f"s{rng.randrange(card)}" for _ in range(n)])
        else:
            vals = pa.array([None if rng.random() < 0.4
                             else f"s{rng.randrange(card)}"
                             for _ in range(n)], pa.string())
        cols[f"c{j}"] = vals
    t = pa.table(cols)
    return pa.concat_tables([t, t.slice(0, t.num_rows // 2)])


def _rows(t):
    return list(zip(*(c.to_pylist() for c in t.columns)))


def test_group_rows_matches_python_sets():
    """Every row-identity step of the sink groups through ``_group_rows``;
    over random bool/int/nullable-string schemas it must agree with
    Python set semantics (nulls equal) where a raw multi-key group_by in
    column order does not on pyarrow 16.1. ``_row_diff`` and
    ``_row_member`` are checked the same way, including ``_row_diff``'s
    first-occurrence order."""
    import random

    from cattle_ray.sources.triple_sink import (_group_rows, _row_diff,
                                                _row_member)

    rng = random.Random(15)
    for _ in range(300):
        t = _random_table(rng)
        got = _group_rows(t, t.column_names)
        assert got.schema == t.schema
        assert sorted(_rows(got), key=repr) == sorted(set(_rows(t)),
                                                      key=repr)
        b = t.filter(pa.array([rng.random() < 0.3
                               for _ in range(t.num_rows)]))
        in_b = set(_rows(b))
        want = list(dict.fromkeys(r for r in _rows(t) if r not in in_b))
        diff = _row_diff(t, b)
        assert diff.schema == t.schema and _rows(diff) == want
        assert _rows(_row_diff(t, None)) == list(dict.fromkeys(_rows(t)))
        mask = _row_member(t, b, t.column_names).to_pylist()
        assert mask == [r in in_b for r in _rows(t)]


def _store_rows(n, prefix="http://s", src="http://z-src"):
    from cattle_ray.model import triples_table

    return triples_table(
        pa.array([f"{prefix}{i % 9}" for i in range(n)]),
        pa.array([f"http://p{i % 3}" for i in range(n)]),
        pa.array([f"o{i}" for i in range(n)]),
        pa.array([i % 2 == 0 for i in range(n)]),
        pa.array([None] * n, pa.string()),
        pa.array([None if i % 4 else "en" for i in range(n)], pa.string()),
        pa.array(["http://g"] * n),
        pa.array([src] * n, pa.string()),
    )


def test_small_writes_run_in_caller(ray_session, tmp_path, monkeypatch):
    """A merge, an index refresh and a bulk delete whose rows and touched
    files fit ``exchange.BUCKET_BYTES`` never reach the task exchange."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        build_secondary_index, delete_exact_rows,
        merge_triples_hash_partitioned, read_triples_for_key,
        refresh_secondary_index)
    from cattle_ray.stages import exchange

    store, idx = str(tmp_path / "store"), str(tmp_path / "idx")
    merge_triples_hash_partitioned(rd.from_arrow(_store_rows(40)), store,
                                   num_partitions=4, track_generations=True)
    build_secondary_index(store, idx)

    def no_tasks(*a, **k):
        raise AssertionError("small write reached the task exchange")

    monkeypatch.setattr(exchange, "_shuffle", no_tasks)
    m = merge_triples_hash_partitioned(
        rd.from_arrow(_store_rows(12, "http://new")), store,
        num_partitions=4, track_generations=True)
    assert int(m["n_added"].sum()) == 12
    m = merge_triples_hash_partitioned(
        _store_rows(3, "http://tbl"), store, num_partitions=4,
        track_generations=True)
    assert int(m["n_added"].sum()) == 3
    d = delete_exact_rows(store, pa.table({"subj": ["http://s1"],
                                           "pred": ["http://p1"]}))
    assert int(d["n_removed"].sum()) > 0
    r = refresh_secondary_index(idx)
    assert int(r["n_applied_added"].sum()) == 15
    assert int(r["n_applied_removed"].sum()) == int(d["n_removed"].sum())
    assert read_triples_for_key(idx, "o19", key="obj").num_rows == 0


def test_touched_files_bound_sends_writes_to_tasks(ray_session, tmp_path,
                                                   monkeypatch):
    """A delta that fits ``exchange.BUCKET_BYTES`` on its own, routed into
    partition files that push it past the bound, is written by the task
    exchange; the same delta into a fresh store (no files) is not."""
    import ray.data as rd

    from cattle_ray.sources.triple_sink import (
        add_subj_partition, build_secondary_index, delete_exact_rows,
        merge_triples_hash_partitioned, refresh_secondary_index)
    from cattle_ray.stages import exchange

    store, idx = str(tmp_path / "store"), str(tmp_path / "idx")
    merge_triples_hash_partitioned(rd.from_arrow(_store_rows(400)), store,
                                   num_partitions=4, track_generations=True)
    build_secondary_index(store, idx)
    delta = _store_rows(6, "http://s", src="http://a-src")
    calls = []
    real = exchange._shuffle

    def counted(*a, **k):
        calls.append(1)
        return real(*a, **k)

    monkeypatch.setattr(exchange, "_shuffle", counted)
    monkeypatch.setattr(exchange, "BUCKET_BYTES",
                        add_subj_partition(delta, 4).nbytes + 1)
    merge_triples_hash_partitioned(rd.from_arrow(delta),
                                   str(tmp_path / "fresh"), num_partitions=4)
    assert not calls
    m = merge_triples_hash_partitioned(rd.from_arrow(delta), store,
                                       num_partitions=4,
                                       track_generations=True)
    assert len(calls) == 1 and int(m["n_gen_removed"].sum()) == 6
    delete_exact_rows(store, delta.select(["subj", "pred", "obj"]))
    assert len(calls) == 2
    refresh_secondary_index(idx)
    assert len(calls) == 3
