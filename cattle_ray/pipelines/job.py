"""R3: the resumable KG job — partitioned execution with checkpoint manifest.

This is the ``ray job submit`` driver shape (BASELINE.json: "resumes
idempotently mid-pipeline"): the input corpus is split into partitions (file
or row-range granularity); each partition runs the flagship pipeline and
commits an atomic manifest row with lineage + metrics
(FIXTURES.md §6 schema); a rerun anti-joins committed partitions and only
processes the remainder. Output Parquet files live one-directory-per-
partition so a partial run leaves no torn state.

Granularity note: at 100 TB a "partition" is a group of input files
(~a few GB); here it is a row-range of the test corpus. The manifest logic
is identical.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.exchange import bucket_shuffle
from ..state.manifest import Manifest, content_hash, run_partitioned, template_hash


def _partition_specs(n_rows: int, num_partitions: int) -> list[dict]:
    """Row-range partitions with content-addressed identity."""
    per = (n_rows + num_partitions - 1) // num_partitions
    parts = []
    for pid in range(num_partitions):
        lo, hi = pid * per, min((pid + 1) * per, n_rows)
        if lo >= hi:
            break
        parts.append(
            {
                "part_id": pid,
                "lo": lo,
                "hi": hi,
                "input_part_hash": content_hash(f"rows:{lo}-{hi}".encode()),
            }
        )
    return parts


def run_kg_job(
    n_pages: int,
    out_dir: str,
    *,
    num_partitions: int = 8,
    graph: str = "https://example.org/graph/job",
    manifest_path: str | None = None,
    fail_after: int | None = None,
):
    """Run (or resume) the flagship pipeline over the FIXTURES.md §1 corpus
    in ``num_partitions`` independently-committed partitions.

    ``fail_after`` kills the job after k newly-committed partitions (the
    SURVEY.md §5.2-4 resume test hook). Returns rows committed THIS run.
    """
    from ..pages import gen_pages_batch  # noqa: F401 (partition materializer)
    from .kg import build_triples

    os.makedirs(out_dir, exist_ok=True)
    manifest = Manifest(manifest_path or os.path.join(out_dir, "manifest.jsonl"))
    tmpl_h = template_hash({"pipeline": "kg", "graph": graph, "n_pages": n_pages})
    parts = _partition_specs(n_pages, num_partitions)

    done_count = 0

    def run_one(part: dict):
        nonlocal done_count
        if fail_after is not None and done_count >= fail_after:
            raise RuntimeError("injected failure (resume test)")
        import ray.data as rd

        ids = list(range(part["lo"], part["hi"]))
        from ..pages import gen_pages_batch

        pages = rd.from_arrow(gen_pages_batch(ids)).repartition(4)
        triples = build_triples(pages, graph=graph)
        pdir = os.path.join(out_dir, f"part_id={part['part_id']}")
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(pdir, ".data.parquet.tmp")
        dst = os.path.join(pdir, "data.parquet")

        def write_sorted(g: pa.Table) -> pa.Table:
            # sort + atomic write happen on a WORKER — the driver never
            # materializes partition payloads (on a cluster, out_dir is
            # shared storage); only this 1-row receipt comes back
            import pyarrow.parquet as _pq

            g = g.drop_columns(["_bucket"]).sort_by(
                [("subj", "ascending"), ("pred", "ascending"), ("obj", "ascending")]
            )
            _pq.write_table(g, tmp)
            os.replace(tmp, dst)
            return pa.table({"path": pa.array([dst]),
                             "n_rows": pa.array([g.num_rows], pa.int64())})

        # one bucket: the exchange's single reducer takes every block
        receipt = bucket_shuffle(
            triples.map_batches(
                lambda b: b.append_column(
                    "_bucket", pa.array([0] * len(b), pa.int64())),
                batch_format="pyarrow",
            ),
            write_sorted, 1,
        ).take_all()
        if receipt:
            n_triples = int(receipt[0]["n_rows"])
        else:  # zero-triple partition: commit an empty (schema-full) file
            from ..model import TRIPLE_SCHEMA

            pq.write_table(TRIPLE_SCHEMA.empty_table(), tmp)
            os.replace(tmp, dst)
            n_triples = 0
        done_count += 1
        return dst, len(ids), n_triples

    return run_partitioned(parts, run_one, manifest, tmpl_h)
