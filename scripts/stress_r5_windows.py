"""Window-shuffle scale check (BASELINE.md "Stress" rows): sessionize and
ordered_paths move FULL event rows through one key shuffle — the shape
that once funneled the dedup path through ONE SortMap task (230 s CPU)
when it ran on Ray's sort-based ``groupby(_bucket).map_groups``. Both ops
now run on the raw-task ``exchange.bucket_shuffle``; this times each one
once at 50M events (zipf-ish keys, the bot-key skew real event streams
have) in ONE Ray session with materialized input (synthesis untimed):

1. ``sessionize`` — gap-based sessions, 1h gap
2. ``paths``      — per-user ordered event paths

The earlier A/B against the sort path (exchange 0.85x/0.86x at 50M,
identical outputs) is recorded in BASELINE.md; the sort path is gone.

Prints one JSON line. Run: python scripts/stress_r5_windows.py
(``STRESS_EVENTS`` sets the event count, ``RAY_GRAFT_CPUS`` the Ray CPUs.)
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N = int(os.environ.get("STRESS_EVENTS", 50_000_000))
CHUNK = 2_000_000


def _events(n: int, start: int) -> pa.Table:
    rng = np.random.default_rng(start)
    # zipf-ish key skew: ~1.6M distinct users, hottest ~1% of rows
    u = (rng.zipf(1.3, n) % 1_600_000).astype(np.int64)
    ts = np.int64(1_700_000_000_000_000) + rng.integers(
        0, 30 * 86_400_000_000, n, dtype=np.int64)
    et = np.array(["view", "click", "cart", "buy"], dtype=object)[
        rng.integers(0, 4, n)]
    return pa.table({
        "user_id": pa.array(np.char.add("u", u.astype("U9"))),
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "event_type": pa.array(et.tolist(), pa.string()),
    })


def main() -> None:
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=int(os.environ.get(
        "RAY_GRAFT_CPUS", 32)), include_dashboard=False,
        logging_level="ERROR")
    from cattle_ray.stages.windows import ordered_paths, sessionize

    parts = [_events(CHUNK, i) for i in range(N // CHUNK)]
    ds = rd.from_arrow(parts).materialize()
    del parts
    out: dict = {"n_events": N, "cpus": int(os.environ.get(
        "RAY_GRAFT_CPUS", 32))}

    def run(tag, fn):
        t0 = time.perf_counter()
        n = fn().count()
        out[tag] = round(time.perf_counter() - t0, 2)
        out[tag + "_rows"] = n

    run("sessionize", lambda: sessionize(ds, gap="1h"))
    run("paths", lambda: ordered_paths(ds))
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
