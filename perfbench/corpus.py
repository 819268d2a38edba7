"""Seeded inputs: a FIXTURES.md §1-shaped pages corpus and the query
constants drawn from the same seed.

The generator lives here, not in the package, so the inputs stay fixed
when the package's own fixture code changes. Everything is a pure
function of ``(seed, page index)``: the same seed writes byte-identical
Parquet files.
"""

from __future__ import annotations

import html
import random

import pyarrow as pa
import pyarrow.parquet as pq

# The 64 surface names of the package's alias dictionary (FIXTURES.md §4):
# 8 imf countries + 56 synthetic entities. Linking resolves each to
# https://example.org/id/entity/{k:04d}.
COUNTRIES = ["Qatar", "Luxembourg", "Macau", "Singapore",
             "Brunei Darussalam", "Kuwait", "Ireland", "Norway"]
ENTITIES = COUNTRIES + [f"Entity{k:02d}" for k in range(8, 64)]
REGIONS = ["Asia", "Europe", "Oceania", "Africa"]

SENTENCES = (
    ["{A} mentions {B} in the latest report."] * 12
    + ["{A} is located in {R}."] * 6
    + ["{A} borders {B}."] * 5
    + ["{A} is a member of the council."] * 4
    + ["The capital of {A} is well known."] * 3
    + ["Trade between {A} and {B} grew last year.",
       "Analysts visited {A} twice.",
       "The weather in {A} was mild.",
       "Nothing notable happened today.",
       "A new survey covers {A} and {B}.",
       "{A} mentions {B} again.",
       "Researchers compared {A} with {B}.",
       "The data for {A} is incomplete.",
       "Officials from {A} met officials from {B}.",
       "This page has no entities at all."]
)

PAGES_SCHEMA = pa.schema([
    ("url", pa.string()), ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()), ("text", pa.string()), ("lang", pa.string()),
])

ENTITY_NS = "https://example.org/id/entity/"


def entity_uri(k: int) -> str:
    return f"{ENTITY_NS}{k:04d}"


def _entity(rng: random.Random) -> str:
    # hub skew: entity 0 fills ~30% of slots (FIXTURES.md §1 skew knob)
    return ENTITIES[0] if rng.random() < 0.30 \
        else ENTITIES[rng.randrange(1, len(ENTITIES))]


def _render(text: str, tables: list, title: str) -> bytes:
    parts = [f"<html><head><title>{html.escape(title)}</title></head><body>"]
    parts += [f"<p>{html.escape(line)}</p>" for line in text.split("\n")]
    for t in tables:
        parts.append("<table><tr>" + "".join(
            f"<th>{html.escape(h)}</th>" for h in t["headers"]) + "</tr>")
        for row in t["rows"]:
            parts.append("<tr>" + "".join(
                f"<td>{html.escape(c)}</td>" for c in row) + "</tr>")
        parts.append("</table>")
    parts.append("</body></html>")
    return "".join(parts).encode("utf-8")


def page_url(i: int, seed: int) -> str:
    return f"https://site{i % 57}.example.org/s{seed}/page/{i:08d}"


def page(i: int, seed: int) -> dict:
    """Page ``i`` of the corpus for ``seed``: 1-5 template sentences, an
    imf-shaped Rank/Country/Int table on every 4th page, a key/value
    table on every 20th, and a non-English page every 10th."""
    rng = random.Random(seed * 1_000_003 + i)
    text = "\n".join(
        rng.choice(SENTENCES).format(A=_entity(rng), B=_entity(rng),
                                     R=rng.choice(REGIONS))
        for _ in range(i % 5 + 1))
    tables = []
    if i % 4 == 0:
        tables.append({"headers": ["Rank", "Country", "Int"], "rows": [
            [str(r), ENTITIES[rng.randrange(len(ENTITIES))],
             f"{rng.randrange(1_000_000):,}"] for r in range(1, 4)]})
    if i % 20 == 0:
        tables.append({"headers": ["key", "value"],
                       "rows": [["k0", f"v{i}"], ["k1", f"v{rng.randrange(99)}"]]})
    return {"url": page_url(i, seed),
            "warc_ts": 1_704_067_200_000_000 + i * 37_000_000,
            "html": _render(text, tables, f"T{i}"), "text": text,
            "lang": "de" if i % 10 == 9 else "en"}


def pages_table(ids, seed: int) -> pa.Table:
    return pa.Table.from_pylist([page(i, seed) for i in ids],
                                schema=PAGES_SCHEMA)


def write_pages(path: str, ids, seed: int, rows_per_file: int) -> list:
    """Write pages ``ids`` as Parquet files of ``rows_per_file`` rows under
    directory ``path`` (one read block per file); returns the file list."""
    import os

    os.makedirs(path, exist_ok=True)
    ids = list(ids)
    files = []
    for n, lo in enumerate(range(0, len(ids), rows_per_file)):
        f = os.path.join(path, f"pages-{n:04d}.parquet")
        pq.write_table(pages_table(ids[lo:lo + rows_per_file], seed), f)
        files.append(f)
    return files


def query_constants(seed: int) -> dict:
    """Entities the query ops bind, drawn from the seed: a lookup subject,
    a scan object and a path seed. Entity 0 (the hub) is excluded so the
    ops have ordinary, not worst-case, selectivity."""
    rng = random.Random(seed ^ 0x5EED)
    ks = rng.sample(range(1, 8), 3)
    return {"lookup": entity_uri(ks[0]), "scan": entity_uri(ks[1]),
            "path": entity_uri(ks[2])}
