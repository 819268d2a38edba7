"""End-to-end flagship pipeline (SURVEY.md §5.2-3): pages → triples, golden
P/R via an independent pure-python re-derivation, parallelism invariance."""

import pyarrow as pa
import pytest

from cattle_ray.model import QUAD_KEY
from cattle_ray.pages import pages_dataset, pages_table

N = 200
GRAPH = "https://example.org/graph/testrun"


def quad_set(table: pa.Table) -> set:
    return set(zip(*[table[c].to_pylist() for c in QUAD_KEY]))


def expected_quads(n: int) -> set:
    """Independent derivation of the table-channel golden triples (no engine
    code: plain loops over the generated rows)."""
    import html as h
    import re
    from urllib.parse import quote

    from cattle_ray.aliases import alias_rows, entity_uri
    from cattle_ray.pages import gen_row

    XSD = "http://www.w3.org/2001/XMLSchema#"
    alias_idx = {}
    for r in alias_rows():
        alias_idx.setdefault(r["alias"].lower(), []).append((r["entity_uri"], r["prior"]))
    for v in alias_idx.values():
        v.sort(key=lambda t: (-t[1], t[0]))

    want = set()
    for i in range(n):
        row = gen_row(i)
        if row["lang"] != "en":
            continue
        url = row["url"]
        # tables channel
        tbl_idx = 0
        if i % 4 == 0:
            for r in range(1, 4):
                from cattle_ray.pages import ENTITIES

                ent = ENTITIES[(i // 4 + r) % len(ENTITIES)]
                val = (i * 7919 + r * 104729) % 1_000_000
                subj = f"{url}#table0/row/{r}"
                want.add((subj, "https://example.org/def/rank", str(r), False, XSD + "integer", None))
                want.add((subj, "https://example.org/def/country", ent, False, None, "en"))
                safe_chars = "-._~!$&'()*+,;=:@"
                enc_ent = quote(ent, safe=safe_chars)
                want.add(
                    (subj, "https://example.org/def/countryResource",
                     f"https://example.org/id/country/{enc_ent}",
                     True, None, None)
                )
                want.add((subj, "https://example.org/def/gdpPerCapita", str(val), False, XSD + "decimal", None))
            tbl_idx = 1
        if i % 20 == 0:
            subj1 = f"{url}#table{tbl_idx}/row/1"
            subj2 = f"{url}#table{tbl_idx}/row/2"
            want.add((subj1, "https://example.org/def/k0", f"v{i}", False, None, None))
            want.add((subj2, "https://example.org/def/k1", f"v{i+1}", False, None, None))
        # openie channel (entity-linked + canonicalized)
        ENT_PAT = r"[A-Z][A-Za-z0-9]*(?: [A-Z][A-Za-z0-9]*)*"

        def link(surface):
            cands = alias_idx.get(" ".join(surface.lower().split()))
            if cands:
                return cands[0][0]
            return "https://example.org/mention/" + quote(surface, safe="")

        for rx, pred, obj_kind in [
            (rf"(?P<s>{ENT_PAT}) mentions (?P<o>{ENT_PAT})", "mentions", "iri"),
            (rf"(?P<s>{ENT_PAT}) is located in (?P<o>{ENT_PAT})", "locatedIn", "iri"),
            (rf"(?P<s>{ENT_PAT}) borders (?P<o>{ENT_PAT})", "borders", "iri"),
            (rf"(?P<s>{ENT_PAT}) is a member of the (?P<o>[a-z]+)", "memberOf", "lit"),
            (rf"The capital of (?P<s>{ENT_PAT})", "hasCapital", "self"),
        ]:
            for m in re.finditer(rx, row["text"]):
                s_uri = link(m.group("s"))
                p = "https://example.org/def/" + pred
                if obj_kind == "iri":
                    want.add((s_uri, p, link(m.group("o")), True, None, None))
                elif obj_kind == "lit":
                    want.add((s_uri, p, m.group("o"), False, None, None))
                else:
                    want.add((s_uri, p, m.group("s"), False, None, None))
    return want


@pytest.fixture(scope="module")
def triples_df(ray_session):
    from cattle_ray.pipelines.kg import build_triples

    ds = pages_dataset(N, override_num_blocks=8)
    return build_triples(ds, graph=GRAPH).to_pandas()


def test_pipeline_pr_vs_independent_derivation(triples_df):
    got = set(
        zip(*[triples_df[c].where(triples_df[c].notna(), None) for c in QUAD_KEY])
    )
    want = expected_quads(N)
    tp = len(got & want)
    precision = tp / max(len(got), 1)
    recall = tp / max(len(want), 1)
    assert precision >= 0.95 and recall >= 0.95, (
        f"P={precision:.3f} R={recall:.3f} got={len(got)} want={len(want)} "
        f"missing={sorted(want - got)[:3]} extra={sorted(got - want)[:3]}"
    )
    # dedup (D2) must have removed exact duplicates
    assert len(got) == len(triples_df)


def test_parallelism_invariance(ray_session, triples_df):
    """Same input at different block counts → identical sorted quad set
    (the retry-safety/determinism property SURVEY.md §4.1 needs)."""
    from cattle_ray.pipelines.kg import build_triples

    ds2 = pages_dataset(N, override_num_blocks=2)
    df2 = build_triples(ds2, graph=GRAPH).to_pandas()
    a = sorted(map(tuple, triples_df[QUAD_KEY].fillna("∅").itertuples(index=False)))
    b = sorted(map(tuple, df2[QUAD_KEY].fillna("∅").itertuples(index=False)))
    assert a == b


def test_builds_hand_back_cpus_without_gc(ray_session, free_cpus_settle):
    """A finished build returns every Ray CPU by itself: with the driver's
    garbage collector off, nothing a job leaves behind (an idle worker
    pool held by a reference cycle, say) may keep CPUs from the next
    job."""
    import gc

    import ray

    from cattle_ray.pipelines.kg import build_triples

    total = ray.cluster_resources()["CPU"]
    gc.collect()  # what earlier tests in this session left behind
    assert free_cpus_settle() == total
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for build in range(2):
            n = build_triples(pages_dataset(N, override_num_blocks=8),
                              graph=GRAPH).count()
            assert n > 0
            assert free_cpus_settle() == total, f"after build {build + 1}"
    finally:
        if was_enabled:
            gc.enable()
