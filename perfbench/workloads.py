"""The two workloads. Each is one single-threaded closed loop: the next
call starts only after the previous one returned and its result was
checked against an independent reference (reference.py).

Every workload reports the same end-to-end metrics over its own calls;
see README.md for what each loop's iteration ("cycle") is and which
layers it loads.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import sys
import time
import traceback
from collections import Counter
from statistics import median

import corpus
import reference as ref
from tracing import RayDataCounter, Tracer, covered, percentile, \
    process_tree_hwm_mb

GRAPH = "https://example.org/graph/bench"
EX = "https://example.org/def/"
PARTITIONS = 16
ROWS_PER_FILE = 250
SETUP_REPEATS = 3

CONSTRUCT_PAGES = 2000
CONSTRUCT_POINTS = 5  # subject point reads per construct cycle
STORE_PAGES = 2000
DELTAS = 20           # more than a run's cycles; the loop stops at the last
DELTA_FRESH = 50      # new pages per delta
DELTA_RECRAWL = 15    # already-stored pages per delta (dedup work)
CHECKED_WRITES = 3    # added quads read back per update step

#: metric name → substring of the construct job's ray.data operator
#: names, first match wins; anything else is "other". Ray fuses the read
#: into the KgStage actor operator; the fused
#: ``<lambda>->within_batch_dedup`` operator is dedup's hashing pass; the
#: lone ``<lambda>`` is the sink's partition routing.
RAY_OPS = {"KgStage": "KgStage", "ReadParquet": "ReadParquet",
           "within_batch_dedup": "within_batch_dedup",
           "add_bucket": "add_bucket", "route": "<lambda>",
           "FromArrow": "FromArrow"}

PER_LAYER = (
    ["read.s", "extract.s", "extract.pages", "tables.triples", "tables.s",
     "openie.triples", "openie.s", "link.canon_s", "kg.pool_s",
     "kg.pool_overhead_s", "kg.triples_per_s", "dedup.s", "dedup.rows_in",
     "dedup.keep_ratio", "exchange.s", "exchange.buckets",
     "triple_sink.write_s", "triple_sink.bytes_per_triple",
     "triple_sink.merge_ms", "triple_sink.partitions_touched_frac",
     "triple_sink.bytes_rewritten", "triple_sink.refresh_ms",
     "triple_sink.refresh_rows_applied", "triple_sink.write_amp",
     "triple_sink.scan_ms", "triple_sink.scan_rows", "sparql.parse_ms",
     "bgp.plan_ms", "bgp.eval_ms", "bgp.self_ms", "bgp.rows_per_result",
     "ray.executions_per_op", "ray.schema_warnings", "driver.gap_s",
     "trace.overhead_s"]
    + [f"ray.op_{m}_s.{op}" for m in ("wall", "cpu")
       for op in [*RAY_OPS, "other"]]
    + [f"op.{k}_p50_ms" for k in ("construct", "point", "lookup", "scan",
                                   "join", "path", "agg", "update")]
    + ["op.p75_ms"]
)

PER_LAYER_UNITS = {"extract.pages": "count", "tables.triples": "count",
                   "openie.triples": "count", "dedup.rows_in": "count",
                   "exchange.buckets": "count", "kg.triples_per_s": "quads/s",
                   "dedup.keep_ratio": "ratio",
                   "triple_sink.bytes_per_triple": "B/quad",
                   "triple_sink.partitions_touched_frac": "ratio",
                   "triple_sink.bytes_rewritten": "B",
                   "triple_sink.refresh_rows_applied": "count",
                   "triple_sink.write_amp": "ratio",
                   "triple_sink.scan_rows": "count",
                   "bgp.rows_per_result": "ratio",
                   "ray.executions_per_op": "count",
                   "ray.schema_warnings": "count"}


def unit_of(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "ms" if name.endswith("_ms") else "s"


class Bench:
    """Run state shared by the workloads: the timed-call log, op
    accounting and the tracer."""

    def __init__(self, work: str, seed: int, seconds: float, trace: bool):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer(False)
        self.counter = RayDataCounter()
        self.calls: list[tuple[str, float]] = []
        self.untraced: list[tuple[str, float]] = []  # calls before tracing
        self.cycles: list[float] = []
        self.step = 0  # index of the next cycle
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_runs: list[float] = []

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def call(self, kind: str, fn, *args, **kwargs):
        """Time one public call (result consumed inside ``fn``)."""
        with self.tracer.span(kind):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.calls.append((kind, (time.perf_counter() - t0) * 1e3))
        return out

    def op(self, what: str, fn) -> None:
        """One attempted op: ``fn`` returns True when its output is right.
        A wrong result or an exception counts as failed; neither stops
        the run."""
        self.attempted += 1
        self.tracer.op += 1
        try:
            ok = fn()
        except Exception:  # a failing op is a measurement, not a crash
            self._fail(what, traceback.format_exc(limit=3))
            return
        if not ok:
            self._fail(what, "wrong result")

    def _fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {why}")
        print(f"perfbench: {what} FAILED: {why}", file=sys.stderr)

    def loop(self, cycle, seconds: float, n: int | None = None) -> float:
        """Run cycles until ``seconds`` have passed (or exactly ``n`` of
        them), or until one returns False; returns the loop's wall time.
        Cycle indices run on across loops."""
        t0 = time.perf_counter()
        done = 0
        while (done < n) if n is not None else \
                (time.perf_counter() - t0 < seconds):
            collect()
            c0 = len(self.calls)
            if cycle(self.step) is False:
                break
            self.step += 1
            done += 1
            # a cycle's time is its calls' time, not the checking between
            self.cycles.append(sum(t for _, t in self.calls[c0:]))
        return time.perf_counter() - t0

    def timed_loop(self, cycle, warmup: bool = True) -> dict:
        """The measured loop, after one unmeasured warm-up cycle (the
        session's first use of each call pays one-off costs). With
        tracing, half the time runs untraced and the same number of
        cycles then runs traced; the difference is the tracing
        overhead."""
        if warmup:
            self.loop(cycle, 0, 1)
            self.calls.clear()
            self.cycles.clear()
        if not self.trace:
            self.loop(cycle, self.seconds)
            return {}
        wall_u = self.loop(cycle, self.seconds / 2)
        n = len(self.cycles)
        self.untraced = self.calls[:]
        self.tracer.enabled = True
        wall_t = self.loop(cycle, 0, n)
        self.tracer.enabled = False
        return {"trace.overhead_s": wall_t - wall_u}

    def setup(self, fn):
        """Run ``fn`` SETUP_REPEATS times; median seconds and the last
        result (each repeat must leave a complete, fresh set-up)."""
        out = None
        for _ in range(SETUP_REPEATS):
            collect()
            t0 = time.perf_counter()
            out = fn()
            self.setup_runs.append(time.perf_counter() - t0)
        return median(self.setup_runs), out

    def end_to_end(self, setup_s: float) -> dict:
        pts = [t for k, t in self.calls if k == "point"]
        return {
            "setup_s": (setup_s, "s"),
            "cycle_p50_ms": (median(self.cycles), "ms"),
            "point_p50_ms": (median(pts), "ms"),
            "peak_rss_mb": (process_tree_hwm_mb(os.getpid()), "MB"),
        }

    def kind_p50(self, kind: str) -> float:
        return median([t for k, t in self.untraced if k == kind])

    def per_layer(self, values: dict) -> dict:
        for k in {k for k, _ in self.untraced}:
            values.setdefault(f"op.{k}_p50_ms", self.kind_p50(k))
        # the tail of the heavy calls; point reads would fill the low ranks
        values["op.p75_ms"] = percentile(
            [t for k, t in self.untraced if k != "point"], 75)
        values["ray.schema_warnings"] = self.counter.schema_warnings
        return {n: (float(values.get(n, 0.0)), unit_of(n)) for n in PER_LAYER}

    def print_self_times(self) -> None:
        print(f"{'span':<34}{'calls':>7}{'total_s':>10}{'self_s':>10}",
              file=sys.stderr)
        for name, (n, tot, slf) in sorted(self.tracer.self_times().items(),
                                          key=lambda kv: -kv[1][2]):
            print(f"{name:<34}{n:>7}{tot:>10.3f}{slf:>10.3f}",
                  file=sys.stderr)


def collect() -> None:
    """Collect the driver's garbage between jobs, outside any timing.

    A finished job's ``KgStage`` actor pool can stay referenced from a
    reference cycle in the driver until Python's next full collection, and
    each of its actors keeps holding a Ray CPU. With only ``num_cpus``
    CPUs, the next job's actors then cannot start until Ray itself asks
    the driver to collect, about 20 s later."""
    gc.collect()


def _rmtree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def write_corpus(b: Bench, name: str, ids) -> list:
    d = b.path(name)
    _rmtree(d)
    return corpus.write_pages(d, ids, b.seed, ROWS_PER_FILE)


def build_store(b: Bench, files: list, out: str) -> int:
    """The construct path (``cli pages``): read_parquet → build_triples →
    write_triples_hash_partitioned into a fresh store. Returns quads."""
    import ray.data as rd

    from cattle_ray.pipelines.kg import build_triples
    from cattle_ray.sources.triple_sink import write_triples_hash_partitioned

    _rmtree(out)
    t = b.tracer
    with t.span("read_parquet"):
        pages = rd.read_parquet(files)
    with t.span("build_triples"):
        quads = build_triples(pages, graph=GRAPH)
    with t.span("write_triples_hash_partitioned"):
        man = write_triples_hash_partitioned(quads, out,
                                             num_partitions=PARTITIONS)
    return int(man["n_triples"].sum())


def _by_subject(quads) -> dict:
    out: dict = {}
    for q in quads:
        out.setdefault(q[0], set()).add(q)
    return out


# ---------------------------------------------------------------------------
# construct


def construct(b: Bench) -> dict:
    from cattle_ray.sources.triple_sink import match_triples

    ids = range(CONSTRUCT_PAGES)
    out = b.path("store")

    def setup():
        # the corpus, and one job that starts the workers and imports
        files = write_corpus(b, "pages", ids)
        build_store(b, files, out)
        return files

    setup_s, files = b.setup(setup)
    expect = ref.kg_reference(corpus.pages_table(ids, b.seed), GRAPH)
    by_subj = _by_subject(expect)
    subjects = sorted(by_subj)
    rng = random.Random(b.seed)

    def cycle(i):
        b.op("construct", lambda: b.call(
            "construct", build_store, b, files, out) == len(expect)
            and ref.quad_set(ref.read_store(out)) == expect)
        for s in rng.sample(subjects, CONSTRUCT_POINTS):
            b.op("point", lambda: ref.quad_set(b.call(
                "point", match_triples, out, subj=s)) == by_subj[s])

    extra = b.timed_loop(cycle, warmup=False)  # set-up ran the same job
    if not b.trace:
        return b.end_to_end(setup_s)
    extra.update(construct_layers(b, files, len(expect)))
    return b.per_layer(extra)


def construct_layers(b: Bench, files: list, n_quads: int) -> dict:
    """Per-layer split of one construct job: each public kernel called on
    the same materialized blocks, then the pool, dedup, exchange and sink
    each timed on their own, then Ray's operator spans of one untraced
    job."""
    import glob

    import pyarrow as pa
    import ray
    import ray.data as rd

    from cattle_ray.aliases import alias_table
    from cattle_ray.model import QUAD_KEY
    from cattle_ray.pipelines.kg import TEMPLATES_BY_SIGNATURE, build_triples
    from cattle_ray.sources.triple_sink import add_subj_partition, \
        write_triples_hash_partitioned
    from cattle_ray.stages.dedup import dedup_exact
    from cattle_ray.stages.exchange import hash_exchange
    from cattle_ray.stages.extract import extract_batch
    from cattle_ray.stages.link import Canonicalizer, build_alias_index
    from cattle_ray.stages.openie import OpenIEExtract
    from cattle_ray.stages.tables import TableConvert, filter_lang

    v: dict = {}
    t = time.perf_counter
    t0 = t()
    blocks = ray.get(rd.read_parquet(files).materialize().to_arrow_refs())
    v["read.s"] = t() - t0
    tables = TableConvert(TEMPLATES_BY_SIGNATURE, GRAPH)
    openie = OpenIEExtract(graph=GRAPH,
                           alias_index=build_alias_index(alias_table()))
    canon = Canonicalizer()
    for k in ("extract.s", "tables.s", "openie.s", "link.canon_s",
              "extract.pages", "tables.triples", "openie.triples"):
        v[k] = 0
    for blk in blocks:
        t0 = t()
        pages = filter_lang(extract_batch(blk), ("en",))
        t1 = t()
        tb = tables(pages)
        t2 = t()
        oi = openie(pages)
        t3 = t()
        canon(pa.concat_tables([tb, oi]))
        t4 = t()
        v["extract.s"] += t1 - t0
        v["tables.s"] += t2 - t1
        v["openie.s"] += t3 - t2
        v["link.canon_s"] += t4 - t3
        v["extract.pages"] += blk.num_rows
        v["tables.triples"] += tb.num_rows
        v["openie.triples"] += oi.num_rows

    collect()
    t0 = t()
    pool = build_triples(rd.read_parquet(files), graph=GRAPH,
                         dedup=False).materialize()
    v["kg.pool_s"] = t() - t0
    collect()
    v["kg.pool_overhead_s"] = v["kg.pool_s"] - sum(
        v[k] for k in ("read.s", "extract.s", "tables.s", "openie.s",
                       "link.canon_s"))
    v["dedup.rows_in"] = pool.count()
    t0 = t()
    deduped = dedup_exact(pool, QUAD_KEY + ["graph"]).materialize()
    v["dedup.s"] = t() - t0
    v["dedup.keep_ratio"] = deduped.count() / max(1, v["dedup.rows_in"])
    routed = pool.map_batches(lambda x: add_subj_partition(x, PARTITIONS),
                              batch_format="pyarrow").materialize()
    t0 = t()
    hash_exchange(routed, "part_id", lambda g: g, PARTITIONS).materialize()
    v["exchange.s"] = t() - t0
    v["exchange.buckets"] = PARTITIONS
    out = b.path("layer-store")
    t0 = t()
    write_triples_hash_partitioned(deduped, out, num_partitions=PARTITIONS)
    v["triple_sink.write_s"] = t() - t0
    size = sum(os.path.getsize(f)
               for f in glob.glob(f"{out}/part_id=*/data.parquet"))
    v["triple_sink.bytes_per_triple"] = size / max(1, n_quads)

    # Ray Data's own operator spans for one whole untraced job
    b.counter.op_spans.clear()
    collect()
    t0 = t()
    build_store(b, files, b.path("store"))
    wall = t() - t0
    v["kg.triples_per_s"] = n_quads / wall
    spans = set(b.counter.op_spans)  # parents repeat in later summaries
    for name, a, e, cpu in spans:
        key = next((k for k, sub in RAY_OPS.items() if sub in name), "other")
        v[f"ray.op_wall_s.{key}"] = v.get(f"ray.op_wall_s.{key}", 0) + e - a
        v[f"ray.op_cpu_s.{key}"] = v.get(f"ray.op_cpu_s.{key}", 0) + cpu
    v["driver.gap_s"] = wall - covered((a, e) for _, a, e, _ in spans)
    return v


# ---------------------------------------------------------------------------
# serve


def query_texts(c: dict) -> dict:
    return {
        "lookup": f"SELECT ?p ?o WHERE {{ <{c['lookup']}> ?p ?o }}",
        "scan": (f"SELECT ?s WHERE {{ ?s <{EX}mentions> <{c['scan']}> }} "
                 "LIMIT 50"),
        "join": (f"SELECT ?r ?c WHERE {{ ?r <{EX}rank> \"1\" . "
                 f"?r <{EX}country> ?c }}"),
        "path": f"SELECT ?y WHERE {{ <{c['path']}> <{EX}borders>+ ?y }}",
        "agg": (f"SELECT ?o (COUNT(*) AS ?n) WHERE {{ ?s <{EX}mentions> ?o }} "
                "GROUP BY ?o"),
    }


def query_checks(model: ref.StoreModel, c: dict) -> dict:
    """kind → predicate over the op's bindings DataFrame."""
    lookup = model.subject(c["lookup"])
    scan = model.subjects_of(EX + "mentions", c["scan"])
    join = model.star(EX + "rank", "1", EX + "country")
    path = model.reachable(c["path"], EX + "borders")
    agg = model.count_by_object(EX + "mentions")
    return {
        "lookup": lambda df: Counter(zip(df["p"], df["o"])) == lookup,
        "scan": lambda df: (len(df) == min(50, len(scan))
                            and len(set(df["s"])) == len(df)
                            and set(df["s"]) <= scan),
        "join": lambda df: Counter(zip(df["r"], df["c"])) == join,
        "path": lambda df: (len(df) == len(path) and set(df["y"]) == path),
        "agg": lambda df: dict(zip(df["o"], df["n"])) == dict(agg),
    }


QUERY_MIX = ["lookup", "scan", "join", "path", "agg"]


def _files(*dirs) -> dict:
    out = {}
    for d in dirs:
        for root, _, names in os.walk(d):
            for n in names:
                p = os.path.join(root, n)
                st = os.stat(p)
                out[p] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def _written(before: dict, after: dict) -> int:
    """Bytes of files created or replaced between two snapshots."""
    return sum(s for p, (ino, mt, s) in after.items()
               if before.get(p) != (ino, mt, s))


def serve(b: Bench) -> dict:
    """A built store serving reads beside writes: each cycle merges one
    recrawl delta, refreshes the object index, reads its own writes back,
    deletes one added quad, then runs the SPARQL mix against the store as
    it now stands."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    from cattle_ray.pipelines.kg import build_triples
    from cattle_ray.sources.triple_sink import build_secondary_index, \
        match_triples, merge_triples_hash_partitioned, \
        refresh_secondary_index
    from cattle_ray.stages.sparql import sparql, sparql_update

    store, index = b.path("store"), b.path("index")
    delta_ids = [
        list(range(STORE_PAGES + d * DELTA_FRESH,
                   STORE_PAGES + (d + 1) * DELTA_FRESH))
        + list(range(d * DELTA_RECRAWL, (d + 1) * DELTA_RECRAWL))
        for d in range(DELTAS)]

    def setup():
        files = write_corpus(b, "pages", range(STORE_PAGES))
        build_store(b, files, store)
        _rmtree(index)
        build_secondary_index(store, index, key="obj")

    setup_s, _ = b.setup(setup)
    # the deltas' quads, prepared once: one job over every delta's pages,
    # split by source page
    dfiles = write_corpus(b, "delta-pages",
                          [i for ids in delta_ids for i in ids])
    quads = pa.concat_tables(ray.get(build_triples(
        rd.read_parquet(dfiles), graph=GRAPH, dedup=False).to_arrow_refs()))
    collect()
    deltas = []
    for ids in delta_ids:
        urls = pa.array([corpus.page_url(i, b.seed) for i in ids])
        deltas.append(quads.filter(pc.is_in(quads["src_url"], urls)))
    expect = set(ref.quad_set(ref.read_store(store)))
    c = corpus.query_constants(b.seed)
    texts = query_texts(c)
    rng = random.Random(b.seed)
    resource = EX + "countryResource"
    picks = []  # per delta: added (subj, obj) pairs to read back
    for ids, delta in zip(delta_ids, deltas):
        fresh = {corpus.page_url(j, b.seed) for j in ids if j >= STORE_PAGES}
        picks.append(rng.sample(sorted(
            (s, o) for s, p, o, u in zip(*(delta[col].to_pylist() for col in (
                "subj", "pred", "obj", "src_url")))
            if p == resource and u in fresh), CHECKED_WRITES))
    v = {"triple_sink.partitions_touched_frac": [],
         "triple_sink.bytes_rewritten": [],
         "triple_sink.refresh_rows_applied": [], "triple_sink.write_amp": []}

    def spo(tbl) -> set:
        return set(zip(*(tbl[col].to_pylist()
                         for col in ("subj", "pred", "obj"))))

    def merge(delta, snap0, added):
        man = b.call("merge", merge_triples_hash_partitioned,
                     rd.from_arrow(delta), store, num_partitions=PARTITIONS,
                     track_generations=True)
        v["triple_sink.partitions_touched_frac"].append(len(man) / PARTITIONS)
        v["triple_sink.bytes_rewritten"].append(
            _written(snap0, _files(store)))
        return int(man["n_added"].sum()) == added

    def refresh():
        man = b.call("refresh", refresh_secondary_index, index, store)
        v["triple_sink.refresh_rows_applied"].append(int(
            man["n_applied_added"].sum() + man["n_applied_removed"].sum()))
        return len(man) > 0

    def update_step(i):
        delta = deltas[i]
        snap0 = _files(store, index)
        before = len(expect)
        expect.update(ref.quad_set(delta))
        b.op("merge", lambda: merge(delta, snap0, len(expect) - before))
        b.op("refresh", refresh)
        for s, o in picks[i]:  # read your writes, by subject and by object
            b.op("read-subj", lambda: (s, resource, o) in spo(b.call(
                "point", match_triples, store, subj=s)))
            b.op("read-obj", lambda: (s, resource, o) in spo(b.call(
                "point", match_triples, index, obj=o)))
        s, o = picks[i][0]
        expect.difference_update(
            {q for q in expect if q[:3] == (s, resource, o)})
        b.op("update", lambda: b.call(
            "update", sparql_update, store,
            f"DELETE DATA {{ <{s}> <{resource}> <{o}> }}")["removed"] == 1)
        b.op("read-deleted", lambda: (s, resource, o) not in spo(b.call(
            "point", match_triples, store, subj=s)))
        v["triple_sink.write_amp"].append(
            _written(snap0, _files(store, index)) / delta.nbytes)

    def queries():
        # the references follow the store: base ∪ merged deltas − deletes
        checks = query_checks(ref.StoreModel(expect), c)
        by_subj = _by_subject(expect)
        subjects = sorted(by_subj)
        for kind in QUERY_MIX:
            s = rng.choice(subjects)
            b.op("point", lambda: ref.quad_set(b.call(
                "point", match_triples, store, subj=s)) == by_subj[s])
            b.op(kind, lambda: checks[kind](b.call(
                kind, lambda: sparql(store, texts[kind]).to_pandas())))

    def cycle(i):
        if i >= len(deltas):
            return False
        update_step(i)
        queries()

    extra = b.timed_loop(cycle)
    # the end state: the store holds base ∪ deltas − deletes, and the
    # refreshed index holds exactly the store's rows
    b.op("final-store", lambda: ref.quad_set(ref.read_store(store)) == expect)

    def final_index():  # not timed: the loop is over
        refresh_secondary_index(index, store)
        return ref.quad_set(ref.read_store(index)) == expect

    b.op("final-index", final_index)
    if not b.trace:
        return b.end_to_end(setup_s)
    extra.update({k: median(x) for k, x in v.items() if x})
    extra["triple_sink.merge_ms"] = b.kind_p50("merge")
    extra["triple_sink.refresh_ms"] = b.kind_p50("refresh")
    extra.update(query_layers(b, store, texts))
    return b.per_layer(extra)


def query_layers(b: Bench, store: str, texts: dict) -> dict:
    """Per-op split of each SPARQL op: parse, plan (join order from the
    store's census), each pattern's pruned scan on its own, and the whole
    evaluation; averaged over the mix."""
    import pyarrow as pa

    from cattle_ray.sources.triple_sink import match_triples, store_stats
    from cattle_ray.stages.bgp import order_patterns
    from cattle_ray.stages.sparql import parse_sparql, sparql

    t = time.perf_counter
    v = {k: 0.0 for k in ("sparql.parse_ms", "bgp.plan_ms", "bgp.eval_ms",
                          "triple_sink.scan_ms", "triple_sink.scan_rows")}
    results = execs = 0
    for kind in QUERY_MIX:
        t0 = t()
        q = parse_sparql(texts[kind])
        v["sparql.parse_ms"] += (t() - t0) * 1e3
        t0 = t()
        order_patterns(q["patterns"], stats=store_stats(store))
        v["bgp.plan_ms"] += (t() - t0) * 1e3
        for pat in q["patterns"]:
            pred = pat[1]
            consts = {} if pred.startswith("?") else {"pred": pred.rstrip("+")}
            for col, term in (("subj", pat[0]), ("obj", pat[2])):
                if not term.startswith("?") and not pred.endswith("+"):
                    consts[col] = term
            t0 = t()
            got = match_triples(store, **consts)
            n = got.num_rows if isinstance(got, pa.Table) else \
                got.materialize().count()
            v["triple_sink.scan_ms"] += (t() - t0) * 1e3
            v["triple_sink.scan_rows"] += n
        e0 = b.counter.executions
        t0 = t()
        results += len(sparql(store, texts[kind]).to_pandas())
        v["bgp.eval_ms"] += (t() - t0) * 1e3
        execs += b.counter.executions - e0
    n_ops = len(QUERY_MIX)
    v["bgp.self_ms"] = v["bgp.eval_ms"] - v["triple_sink.scan_ms"]
    v["bgp.rows_per_result"] = v["triple_sink.scan_rows"] / max(1, results)
    v = {k: x / n_ops if k.endswith("_ms") or k.endswith("_rows") else x
         for k, x in v.items()}
    v["ray.executions_per_op"] = execs / n_ops
    return v


WORKLOADS = {"construct": construct, "serve": serve}
