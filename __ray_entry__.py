"""Driver contract for the graft builder (Ray Data target).

``queries()`` exposes one entry per implemented operator/pipeline from
SURVEY.md §2 (+ the training-data ops); ``oracle_sql()`` gives the DuckDB
equivalent over the same parquet tables for every SQL-expressible one.
Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.

Column names and dtypes match the oracle exactly (driver sorts columns by
name and value-hashes). Float aggregates are rounded on BOTH sides to wash
out summation-order ulps; cosine top-k returns ids+rank only (DuckDB's
``list_cosine_similarity`` computes in float32).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
EX = "https://example.org/def/"

#: template for the deterministic embedded table in pages_from_documents
DOC_TABLE_TEMPLATE = {
    "@id": "https://example.org/doctable",
    "aboutUrl": "{_url}#t{_tbl}/r{_row}",
    "tableSchema": {
        "columns": [
            {"name": "rank", "datatype": "xsd:integer", "propertyUrl": EX + "rank"},
            {"name": "name", "datatype": "xsd:string", "propertyUrl": EX + "name"},
            {"name": "name", "virtual": True, "propertyUrl": EX + "entity",
             "valueUrl": "https://example.org/id/entity/{name}"},
            {"name": "score", "datatype": "xsd:integer", "propertyUrl": EX + "score"},
        ]
    },
}

DOC_TEMPLATES = {("rank", "name", "score"): DOC_TABLE_TEMPLATE}

#: word-salad OpenIE rule (oracle-parity verified vs DuckDB regexp_extract_all)
SALAD_RULES = [(r"(?P<s>\w+) join (?P<o>\w+)", EX + "joins")]

#: alias gazetteer for the mention-detection query (lowercase corpus words)
MENTION_ALIASES = ["spark", "join", "window", "hash", "stream", "customer"]

GRAPH = "https://example.org/graph/ci"

#: kg_link_prediction degree-census broadcast bound (rows); above it the
#: two co-partitioned degree joins run instead (tests pin path parity)
LINKPRED_DEG_BROADCAST_MAX = 5_000_000

QUAD_COLS = ["subj", "pred", "obj", "obj_is_iri", "obj_datatype", "obj_lang"]


def _read(sf_dir: str, table: str, columns=None, rows_per_block: int = 4000,
          filter=None):
    """read_parquet with column pruning, right-sized blocks, and optional
    row-group predicate pushdown (``filter`` = pyarrow dataset expression):
    tiny test files otherwise split into 2×cpus ~80-row blocks whose
    per-task scheduling overhead dwarfs compute; at real scale the same
    heuristic (rows-per-block target, capped at 4× cores) yields many large
    blocks, and the filter prunes row groups before bytes leave storage."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    path = f"{sf_dir}/{table}.parquet"
    nrows = pq.ParquetFile(path).metadata.num_rows
    cpus = int(ray.cluster_resources().get("CPU", 8))
    blocks = max(2, min(nrows // rows_per_block + 1, 4 * cpus))
    return rd.read_parquet(path, columns=columns, override_num_blocks=blocks,
                           filter=filter)


def _sorted_lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """Guarded searchsorted dimension lookup: returns ``(pos, matched)``
    where ``matched[i]`` is False when ``keys[i]`` is absent from
    ``sorted_keys`` (pos clipped in-bounds so the gather never raises and
    never silently reads an ADJACENT key's attributes). Mirrors inner-join
    semantics like ``pc.index_in``'s null — correct even when referential
    integrity does not hold."""
    if len(sorted_keys) == 0:
        return (np.zeros(len(keys), dtype=np.int64),
                np.zeros(len(keys), dtype=bool))
    pos = np.searchsorted(sorted_keys, keys)
    pos = np.minimum(pos, len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == keys


def _docs(sf_dir: str, columns=None):
    # text rows are wide; ~500 rows/block keeps tasks meaty but parallel
    return _read(sf_dir, "documents", columns, rows_per_block=500)


def _pages(sf_dir: str):
    from cattle_ray.pages import pages_from_documents

    return pages_from_documents(sf_dir)


# ---------------------------------------------------------------------------
# query implementations


def q_kg_extract_text(sf_dir: str):
    """M6: html→text extraction; byte-identical to the source text."""
    from cattle_ray.stages.extract import extract_batch

    return _pages(sf_dir).map_batches(
        lambda b: extract_batch(b, tables=False).select(["url", "text"]),
        batch_format="pyarrow",
    )


def q_kg_csvw_triples(sf_dir: str):
    """M7→M1-M3: embedded-table extraction + CSVW template conversion."""
    from cattle_ray.stages.extract import extract_batch
    from cattle_ray.stages.tables import TableConvert

    return (
        _pages(sf_dir)
        .map_batches(extract_batch, batch_format="pyarrow")
        .map_batches(TableConvert(DOC_TEMPLATES, GRAPH), batch_format="pyarrow")
        .map_batches(lambda b: b.select(QUAD_COLS), batch_format="pyarrow")
    )


def q_kg_openie(sf_dir: str):
    """M8: pattern extraction over text (rule registry U5)."""
    from cattle_ray.pages import DOC_URL_PREFIX
    from cattle_ray.stages.openie import OpenIEExtract

    def add_url(b: pa.Table) -> pa.Table:
        # vectorized url render (was a per-row f-string loop)
        u = pc.binary_join_element_wise(
            DOC_URL_PREFIX, pc.cast(b["doc_id"], pa.string()), "")
        return b.append_column("url", u)

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(add_url, batch_format="pyarrow")
        .map_batches(OpenIEExtract(rules=SALAD_RULES, graph=GRAPH),
                     batch_format="pyarrow")
        .map_batches(
            lambda b: b.select(["subj", "pred", "obj", "obj_is_iri", "src_url"]),
            batch_format="pyarrow",
        )
    )


def q_kg_mentions(sf_dir: str):
    """T2: gazetteer mention detection + per-(doc, alias) counts."""
    from cattle_ray.stages.aggregates import partial_count
    from cattle_ray.stages.link import MentionDetector

    mentions = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        MentionDetector(MENTION_ALIASES, url_col="doc_id"),
        batch_format="pyarrow")
    counts = partial_count(mentions, ["url", "alias_norm"])
    return counts.map_batches(
        lambda b: b.rename_columns(["doc_id", "alias", "n"]), batch_format="pyarrow"
    )


def q_kg_canonicalize(sf_dir: str):
    """T4: URI canonicalization rules over distinct sources."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.link import canonical_uri

    srcs = distinct(_docs(sf_dir, ["source"]), ["source"])

    def canon(b: pa.Table) -> pa.Table:
        raw = [f"HTTPS://Example.org/src/{s}/" for s in b["source"].to_pylist()]
        return pa.table(
            {
                "source": b["source"],
                "canonical_uri": pa.array([canonical_uri(u) for u in raw], pa.string()),
            }
        )

    return srcs.map_batches(canon, batch_format="pyarrow")


def q_kg_pred_freq(sf_dir: str):
    """G2: predicate frequency with map-side combine (a hot predicate
    crosses the shuffle as one partial row per batch)."""
    from cattle_ray.stages.aggregates import partial_count

    return partial_count(q_kg_csvw_triples(sf_dir), ["pred"])


def q_kg_subject_degree(sf_dir: str):
    """G2 hub-entity detection: per-subject triple counts (map-side
    combine, so a hub subject costs one partial row per batch)."""
    from cattle_ray.stages.aggregates import partial_count

    return partial_count(q_kg_csvw_triples(sf_dir), ["subj"])


def q_kg_entity_cooccurrence(sf_dir: str):
    """Graph query over the materialized triples: subjects sharing an entity
    (2-hop co-occurrence) via a self equi-join on the object column — the
    access pattern the subject-partitioned adjacency layout serves."""
    from cattle_ray.stages.joins import hash_join

    ent = q_kg_csvw_triples(sf_dir).map_batches(
        lambda b: b.filter(pc.equal(b["pred"], EX + "entity")).select(["subj", "obj"]),
        batch_format="pyarrow",
    )
    right = ent.map_batches(
        lambda b: b.rename_columns(["subj_b", "obj_b"]), batch_format="pyarrow"
    )
    joined = hash_join(ent, right, "obj", "obj_b", num_buckets=8)

    def finish(b: pa.Table) -> pa.Table:
        m = pc.less(b["subj"], b["subj_b"])
        t = b.filter(m)
        return pa.table(
            {"subj_a": t["subj"], "subj_b": t["subj_b"], "entity": t["obj"]}
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def q_kg_pipeline(sf_dir: str):
    """Flagship: full chain — extract → [CSVW tables ∪ OpenIE] → link →
    canonicalize → dedup (D2/D4). Oracle: DISTINCT over the SQL union of both
    channels (word-salad spans have no alias entry, so linking and
    canonicalization are identity on this corpus — which makes the END-TO-END
    pipeline SQL-checkable; the linking/canonicalization behaviors are
    oracle-checked separately via kg_mentions / kg_canonicalize and
    golden-tested in pytest)."""
    from cattle_ray.pipelines.kg import build_triples

    triples = build_triples(
        _pages(sf_dir),
        graph=GRAPH,
        templates=DOC_TEMPLATES,
        openie_rules=SALAD_RULES,
        langs=("en", "de", "fr", "es", "zh"),
    )
    return triples.map_batches(lambda b: b.select(QUAD_COLS), batch_format="pyarrow")


def q_doc_dedup(sf_dir: str):
    """D1/D2: exact dedup on (lang, source), min doc_id survives."""
    from cattle_ray.stages.dedup import dedup_exact

    out = dedup_exact(_docs(sf_dir, ["doc_id", "lang", "source"]),
                      ["lang", "source"], keep_col="doc_id")
    return out.map_batches(lambda b: b.select(["doc_id", "lang", "source"]),
                           batch_format="pyarrow")


def q_doc_token_count(sf_dir: str):
    from cattle_ray.stages.textstats import token_count_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: token_count_batch(b).select(["doc_id", "n_tokens"]),
        batch_format="pyarrow",
    )


def q_doc_quality(sf_dir: str):
    from cattle_ray.stages.textstats import quality_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: quality_batch(b).select(
            ["doc_id", "q_n_chars", "q_n_tokens", "stop_ratio", "punct_ratio"]
        ),
        batch_format="pyarrow",
    )


def q_doc_fingerprint(sf_dir: str):
    from cattle_ray.stages.textstats import fingerprint_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: fingerprint_batch(b).select(["doc_id", "md5"]),
        batch_format="pyarrow",
    )


def q_doc_dup_spans(sf_dir: str):
    """Exact-substring dedup metric (Lee et al. 2022 shape): per doc, the
    fraction of its sliding 5-word windows that occur >=2 times
    corpus-wide. One gram census + adaptive semi-join back; text never
    shuffles. Oracle mirrors the window explode with list slicing."""
    from cattle_ray.stages.dedup import dup_span_stats

    return dup_span_stats(_docs(sf_dir, ["doc_id", "text"]), k=5)


def q_doc_word_cooc(sf_dir: str):
    """Windowed word co-occurrence counts (the word2vec/GloVe training
    statistic): unordered pairs within a ±3 token window, top-100 by
    (count DESC, pair). Vectorized: per offset one C-level per-doc shift
    (no position self-join), pairs canonicalized (a<=b) before ONE
    map-side-combined count; the shuffle moves (pair, partial) rows."""
    from cattle_ray.stages.aggregates import top_k_counts

    W = 3

    def pairs(b: pa.Table) -> pa.Table:
        import pandas as pd

        s_ = b["text"].to_pandas().fillna("").str.strip()
        e = s_.str.split().explode().dropna()
        if e.empty:
            return pa.table({"wa": pa.array([], pa.string()),
                             "wb": pa.array([], pa.string())})
        g = e.groupby(level=0)
        was, wbs = [], []
        for off in range(1, W + 1):
            nxt = g.shift(-off)
            m = nxt.notna()
            a = e[m]
            bb = nxt[m]
            lo = np.minimum(a.to_numpy(dtype=object), bb.to_numpy(dtype=object))
            hi = np.maximum(a.to_numpy(dtype=object), bb.to_numpy(dtype=object))
            was.append(lo)
            wbs.append(hi)
        return pa.table({"wa": pa.array(np.concatenate(was), pa.string()),
                         "wb": pa.array(np.concatenate(wbs), pa.string())})

    top = top_k_counts(
        _docs(sf_dir, ["text"]).map_batches(pairs, batch_format="pyarrow"),
        ["wa", "wb"], 100)
    return top.map_batches(
        lambda b: pa.table({"wa": pa.array(b["wa"], pa.string()),
                            "wb": pa.array(b["wb"], pa.string()),
                            "n": pa.array(b["n"], pa.int64())}),
        batch_format="pandas")


def q_doc_bpe_vocab(sf_dir: str):
    """BPE tokenizer training (rows-only: iterative merge loop, no SQL):
    distributed word-frequency census (the only corpus-sized pass), then
    the textbook frequency-weighted merge loop on the vocab-bounded table.
    Returns the ranked merge table — the trained tokenizer."""
    from cattle_ray.stages.textstats import bpe_train

    merges = bpe_train(_docs(sf_dir, ["text"]), n_merges=50)
    return pa.table({
        "rank": pa.array(range(len(merges)), pa.int64()),
        "left": pa.array([a for a, _ in merges], pa.string()),
        "right": pa.array([b for _, b in merges], pa.string()),
    })


def q_doc_lm_score(sf_dir: str):
    """Corpus-trained bigram fluency score (CCNet-style LM quality signal)
    with EXACT integer arithmetic — floor-scaled conditional probabilities
    summed per doc, so no float log-prob order flake and the oracle is
    plain integer SQL. Count tables broadcast once; scoring is one
    vectorized index_in gather per batch."""
    from cattle_ray.stages.textstats import lm_score

    return lm_score(_docs(sf_dir, ["doc_id", "text"]))


def q_doc_normalize(sf_dir: str):
    """Canonical normalization fingerprint (the identity used by
    normalized exact dedup): NFC + lower + whitespace collapse + trim,
    all Arrow C++/RE2 kernels mirrored verbatim in SQL, then md5."""
    import hashlib

    from cattle_ray.stages.textstats import normalize_text_batch

    def f(b: pa.Table) -> pa.Table:
        b = normalize_text_batch(b)
        md5s = [None if t is None else hashlib.md5(t.encode()).hexdigest()
                for t in b["norm"].to_pylist()]  # md5(NULL) IS NULL, as SQL
        return pa.table({"doc_id": b["doc_id"],
                         "norm_md5": pa.array(md5s, pa.string())})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow")


def q_doc_sentence_stats(sf_dir: str):
    """Sentence segmentation stats (readability/chunking inputs): split on
    ``[.!?]+`` runs, count non-blank sentences + words per sentence — one
    stateless vectorized pass, zero shuffle, streams at read speed."""
    from cattle_ray.stages.textstats import sentence_stats_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        sentence_stats_batch, batch_format="pyarrow")


def q_doc_training_export(sf_dir: str):
    """The curation funnel end to end as ONE SQL-checkable pipeline — what
    a user actually runs to produce training data: language pushdown AT
    THE READ → canonical normalization → normalized exact dedup (min-id
    representative) → Gopher repetition thresholds → greedy fixed-budget
    sequence packing. Every stage is the engine's production operator;
    text crosses exactly one shuffle (the dedup), the packer sees only
    16 B/row metadata."""
    from cattle_ray.stages.dedup import dedup_exact
    from cattle_ray.stages.sampling import pack_sequences
    from cattle_ray.stages.textstats import (normalize_text_batch,
                                             repetition_batch)

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"],
                 rows_per_block=500,
                 filter=(pc.field("lang").isin(["en", "de"])))
    normed = docs.map_batches(normalize_text_batch, batch_format="pyarrow")
    kept = dedup_exact(normed, ["norm"], keep_col="doc_id")

    def qual(b: pa.Table) -> pa.Table:
        r = repetition_batch(b)
        n = r["rep_n_tokens"].to_numpy(zero_copy_only=False)
        dup = r["dup_token_frac"].to_numpy(zero_copy_only=False)
        return b.select(["doc_id", "text"]).filter(
            pa.array((n >= 45) & (dup <= 0.58)))

    filt = kept.map_batches(qual, batch_format="pyarrow")
    return pack_sequences(filt, "doc_id", "text", 512)


def q_doc_readability(sf_dir: str):
    """Flesch-style reading ease from exact integer counts: sentences +
    words from the sentence kernel, syllables ≈ vowel-group runs (the
    classic approximation, one RE2 count-matches pass). The score's float
    expression is evaluated in the identical op order both sides; docs
    with no sentences are excluded (division) on both sides."""
    from cattle_ray.stages.textstats import sentence_stats_batch

    def f(b: pa.Table) -> pa.Table:
        s = sentence_stats_batch(b)
        syl = pc.cast(pc.count_substring_regex(
            pc.fill_null(pc.cast(b["text"], pa.string()), ""),
            "[aeiouyAEIOUY]+"), pa.int64())
        t = pa.table({"doc_id": s["doc_id"],
                      "n_sentences": s["n_sentences"],
                      "n_words": s["n_words"], "syllables": syl})
        t = t.filter(pc.and_(pc.greater(t["n_sentences"], 0),
                             pc.greater(t["n_words"], 0)))
        w = t["n_words"].to_numpy(zero_copy_only=False).astype(np.float64)
        sent = t["n_sentences"].to_numpy(
            zero_copy_only=False).astype(np.float64)
        sy = t["syllables"].to_numpy(zero_copy_only=False).astype(np.float64)
        score = 206.835 - 1.015 * (w / sent) - 84.6 * (sy / w)
        return pa.table({"doc_id": t["doc_id"],
                         "n_sentences": t["n_sentences"],
                         "n_words": t["n_words"],
                         "syllables": t["syllables"],
                         "flesch": pa.array(score)})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        f, batch_format="pyarrow")


def q_doc_langid(sf_dir: str):
    """Heuristic language-ID (oracle: per-language stopword counts inlined
    in SQL, argmax with profile-order tie-break)."""
    from cattle_ray.stages.textstats import LangId

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        LangId(), batch_format="pyarrow"
    ).map_batches(lambda b: b.select(["doc_id", "lang_pred"]), batch_format="pyarrow")


def q_doc_editdist_pairs(sf_dir: str):
    """Edit-distance near-dup pairs (short noisy text): token-count-band
    blocking, exact byte-Levenshtein over 40-char prefixes verified by a
    pair-axis-vectorized DP. Oracle = the same blocking self-join with
    DuckDB's levenshtein()."""
    from cattle_ray.stages.dedup import editdist_neardup_pairs

    return editdist_neardup_pairs(_docs(sf_dir, ["doc_id", "text"]))


def q_doc_lm_buckets(sf_dir: str):
    """CCNet-style head/middle/tail corpus split: per-doc LM fluency
    (exact-integer bigram score, length-normalized by integer division)
    tertiled by the exact distributed quantile op — the canonical
    perplexity-bucket curation step, end to end with zero float
    summation."""
    from cattle_ray.stages.quantiles import quantile_disc
    from cattle_ray.stages.textstats import lm_score

    scores = lm_score(_docs(sf_dir, ["doc_id", "text"])).map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"],
            "norm_score": pc.divide(b["score"], b["n_bigrams"]),
        }), batch_format="pyarrow").materialize()  # quantile pass + bucket pass
    qd = quantile_disc(scores, "norm_score", [1.0 / 3, 2.0 / 3])
    b1, b2 = qd[1.0 / 3], qd[2.0 / 3]

    def bucket(b: pa.Table) -> pa.Table:
        v = b["norm_score"].to_numpy(zero_copy_only=False)
        lab = np.where(v <= b1, "tail", np.where(v <= b2, "middle", "head"))
        return pa.table({"doc_id": b["doc_id"],
                         "norm_score": pc.cast(b["norm_score"], pa.int64()),
                         "bucket": pa.array(lab.tolist(), pa.string())})

    return scores.map_batches(bucket, batch_format="pyarrow")


def q_doc_minhash_pairs(sf_dir: str):
    """MinHash+LSH near-dup candidates (rows-only; word-salad corpus has
    high baseline similarity, threshold set high)."""
    from cattle_ray.stages.dedup import minhash_dedup_pairs

    return minhash_dedup_pairs(_docs(sf_dir, ["doc_id", "text"]), threshold=0.9)


def q_doc_minhash_verified(sf_dir: str):
    """MinHash+LSH candidates exact-verified by true unigram Jaccard —
    the hash-checkable face of MinHash dedup (the SQL oracle computes the
    same exact-Jaccard pairs with no LSH at all; the LSH margin math in
    ``minhash_verified_pairs`` makes the two coincide deterministically).
    Subset doc_id < 100 bounds the oracle's all-pairs token join; the Ray
    side's quadratic term is already confined to candidate docs."""
    from cattle_ray.stages.dedup import minhash_verified_pairs
    from cattle_ray.stages.exchange import drop_empty_blocks

    # the subset leaves 0-row blocks; dropped, they cannot reach the
    # signature maps as zero-column blocks ("different schema" warnings)
    sub = drop_empty_blocks(_docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: b.filter(pc.less(b["doc_id"], 100)),
        batch_format="pyarrow"))
    return minhash_verified_pairs(sub, threshold=0.9, ngram=1)


def q_doc_simhash_pairs(sf_dir: str):
    from cattle_ray.stages.dedup import simhash_pairs

    return simhash_pairs(_docs(sf_dir, ["doc_id", "text"]), max_hamming=3)


def q_doc_simhash_exact(sf_dir: str):
    """The hash-CHECKABLE face of SimHash dedup (VERDICT r4 order #5):
    signatures use the md5 token hash (= DuckDB ``md5_number_lower``)
    over DISTINCT tokens, so signature AND pair set mirror one-to-one
    in SQL; banding recall is EXACT for hamming ≤ 3 by pigeonhole (4
    bands), so the banded engine result equals the oracle's all-pairs
    scan. Subset doc_id < 60 bounds the oracle's quadratic join; the
    engine side runs the real banded machinery."""
    from cattle_ray.stages.dedup import simhash_pairs
    from cattle_ray.stages.exchange import drop_empty_blocks

    sub = drop_empty_blocks(_docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: b.filter(pc.less(b["doc_id"], 60)),
        batch_format="pyarrow"))
    return simhash_pairs(sub, max_hamming=3, hasher="md5",
                         num_buckets=8)


def q_doc_jaccard(sf_dir: str):
    """Exact unigram Jaccard over the doc_id<60 subset (token-join form)."""
    from cattle_ray.stages.dedup import jaccard_pairs
    from cattle_ray.stages.exchange import drop_empty_blocks

    sub = drop_empty_blocks(_docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: b.filter(pc.less(b["doc_id"], 60)), batch_format="pyarrow"
    ))
    return jaccard_pairs(sub, min_jaccard=0.0)


def q_embed_knn(sf_dir: str):
    """ANN baseline: brute-force cosine top-10 for queries = vec_id 0..3."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from cattle_ray.stages.similarity import knn_brute_force

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    tbl = tbl.filter(pc.less(tbl["vec_id"], 4)).sort_by("vec_id")
    queries = np.stack(tbl["embedding"].to_pylist())
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"], rows_per_block=1000)
    out = knn_brute_force(ds, queries, k=10)
    return out.map_batches(
        lambda b: b.select(["query_id", "vec_id", "rank"]), batch_format="pyarrow"
    )


def q_embed_knn_ivf(sf_dir: str):
    """IVF ANN scale path (approximate → rows-only)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from cattle_ray.stages.similarity import knn_ivf

    tbl = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    tbl = tbl.filter(pc.less(tbl["vec_id"], 4)).sort_by("vec_id")
    queries = np.stack(tbl["embedding"].to_pylist())
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"], rows_per_block=1000)
    return knn_ivf(ds, queries, k=10, n_clusters=16, nprobe=4)


def q_embed_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs via hyperplane LSH (rows-only)."""
    import ray.data as rd

    from cattle_ray.stages.dedup import embedding_neardup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"], rows_per_block=1000)
    return embedding_neardup_pairs(ds, threshold=0.3, num_planes=8)


def q_embed_quantize(sf_dir: str):
    """int8 embedding quantization (exploded rows for exact oracle parity)."""
    from cattle_ray.stages.similarity import quantize_embeddings_batch

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"], rows_per_block=1000)
    return ds.map_batches(quantize_embeddings_batch, batch_format="pyarrow")


def q_embed_pca(sf_dir: str):
    """Distributed PCA (rows-only: eigendecomposition isn't SQL): fit from
    one streaming pass of mergeable (n, Σx, XᵀX) moment partials — driver
    holds one d×d matrix however large the corpus — then a broadcast
    projection onto the top-4 components, rounded for layout stability."""
    from cattle_ray.stages.similarity import pca_fit, pca_transform

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"],
               rows_per_block=1000).materialize()  # fit + transform passes
    mean, comps, _ = pca_fit(ds, 4)
    return pca_transform(ds, mean, comps)


def q_events_hourly(sf_dir: str):
    """Windowed aggregate: tumbling 1h per user (count + rounded sum)."""
    from cattle_ray.stages.aggregates import grouped_sums

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"], rows_per_block=20000)

    def cents(b: pa.Table) -> pa.Table:
        # ORDER-DETERMINISTIC revenue-style sum: per-row cents (half-up) are
        # summed as int64, so partial-sum order can never flip a rounded hash
        # (retry-safety; oracle uses the identical per-row cents expression)
        c = pc.cast(pc.floor(pc.add(pc.multiply(b["value"], 100.0), 0.5)), pa.int64())
        return pa.table({"user_id": b["user_id"],
                         "hour": pc.floor_temporal(b["ts"], unit="hour"),
                         "cents": c})

    sums = grouped_sums(ds.map_batches(cents, batch_format="pyarrow"),
                        ["user_id", "hour"], ["cents"], num_buckets=16)
    return sums.map_batches(
        lambda b: pa.table({
            "user_id": b["user_id"], "hour": b["hour"], "n": b["n"],
            # exact: int64 cents / 100
            "sum_value": pc.divide(pc.cast(b["sum_cents"], pa.float64()), 100.0),
        }), batch_format="pyarrow")


def q_events_top_users(sf_dir: str):
    """O2 top-k: 10 most active users, deterministic tie-break."""
    import ray.data as rd

    from cattle_ray.stages.aggregates import top_k_counts

    ds = _read(sf_dir, "events", ["user_id"], rows_per_block=20000)
    return top_k_counts(ds, ["user_id"], k=10)


def q_lineitem_agg(sf_dir: str):
    """TPC-H Q1-shaped grouped aggregate with map-side combine."""
    from cattle_ray.stages.aggregates import grouped_sums

    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
        rows_per_block=100000,
    )

    def _half_up(arr, scale: float):
        # per-row fixed-point units (half-up) → int64; summation becomes exact
        # integer arithmetic, deterministic at ANY partial-sum order
        return pc.cast(pc.floor(pc.add(pc.multiply(arr, scale), 0.5)), pa.int64())

    def fixed_point(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less_equal(b["l_shipdate"], pa.scalar(np.datetime64("1998-09-02", "us"))))
        disc_price = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "qty": _half_up(b["l_quantity"], 100.0),
                "price": _half_up(b["l_extendedprice"], 100.0),
                "disc_price": _half_up(disc_price, 100.0),
                "disc": _half_up(b["l_discount"], 1e6),
            }
        )

    agg = grouped_sums(ds.map_batches(fixed_point, batch_format="pyarrow"),
                       ["l_returnflag", "l_linestatus"],
                       ["qty", "price", "disc_price", "disc"])

    def finish(b: pa.Table) -> pa.Table:
        # int64 unit-sums / scale — exact, no post-sum rounding needed
        cnt = pc.cast(b["n"], pa.float64())
        return pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "sum_qty": pc.divide(pc.cast(b["sum_qty"], pa.float64()), 100.0),
                "sum_base_price": pc.divide(pc.cast(b["sum_price"], pa.float64()), 100.0),
                "sum_disc_price": pc.divide(pc.cast(b["sum_disc_price"], pa.float64()), 100.0),
                "avg_disc": pc.divide(
                    pc.divide(pc.cast(b["sum_disc"], pa.float64()), 1e6), cnt
                ),
                "count_order": b["n"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_orders_by_segment(sf_dir: str):
    """J1 broadcast join: orders × customer (small side via ray.put, looked
    up in a plain batch function mapped as tasks)."""
    import ray
    import pyarrow.parquet as pq

    from cattle_ray.stages.aggregates import partial_count

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    lookup_ref = ray.put(cust.combine_chunks())  # two aligned Arrow arrays

    def add_segment(b: pa.Table) -> pa.Table:
        t = ray.get(lookup_ref)  # zero-copy from object store
        # vectorized broadcast lookup: index_in + take (no Python loop)
        idx = pc.index_in(b["o_custkey"], value_set=t["c_custkey"].chunk(0))
        return b.append_column("c_mktsegment",
                               pc.take(t["c_mktsegment"].chunk(0), idx))

    orders = _read(sf_dir, "orders", ["o_custkey"], rows_per_block=50000)
    joined = orders.map_batches(add_segment, batch_format="pyarrow")
    return partial_count(joined, ["c_mktsegment"])


def q_nation_region(sf_dir: str):
    """Dim-dim broadcast join → (n_name, r_name)."""
    import ray
    import ray.data as rd
    import pyarrow.parquet as pq

    reg = pq.read_table(f"{sf_dir}/region.parquet").combine_chunks()
    lookup_ref = ray.put(reg)

    def join(b: pa.Table) -> pa.Table:
        lk = ray.get(lookup_ref)  # zero-copy from object store
        idx = pc.index_in(b["n_regionkey"], value_set=lk["r_regionkey"].chunk(0))
        return pa.table(
            {"n_name": b["n_name"], "r_name": pc.take(lk["r_name"].chunk(0), idx)}
        )

    return _read(sf_dir, "nation").map_batches(join, batch_format="pyarrow")


def q_events_sessionize(sf_dir: str):
    """Gap-based sessionization per user (custom windowed operator)."""
    from cattle_ray.stages.windows import sessionize

    ds = _read(sf_dir, "events", ["user_id", "ts"], rows_per_block=20000)
    return sessionize(ds, key="user_id", ts="ts", gap="1h")


def q_events_asof_orders(sf_dir: str):
    """As-of join: each event matched to the user's most recent prior order
    date (co-partitioned merge_asof — Ray Data has no native as-of join)."""
    from cattle_ray.stages.joins import asof_join

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"], rows_per_block=20000)
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"], rows_per_block=50000)
    out = asof_join(
        events, orders, left_on="ts", right_on="o_orderdate",
        left_by="user_id", right_by="o_custkey",
    )
    return out.map_batches(
        lambda b: b.select(["event_id", "user_id", "ts", "o_orderdate"]),
        batch_format="pyarrow",
    )


def q_events_attribution(sf_dir: str):
    """First-touch-style attribution: each purchase matched to the user's
    most recent prior (or simultaneous) click — a SELF as-of join on the
    event stream, the marketing-attribution / conversion-path primitive.
    Output carries the click's timestamp only, so equal-ts click ties
    cannot make the result nondeterministic."""
    from cattle_ray.stages.joins import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"],
               rows_per_block=20000)
    purchases = ev.filter(expr="event_type == 'purchase'")
    clicks = ev.filter(expr="event_type == 'click'").map_batches(
        lambda b: pa.table({"c_user": b["user_id"], "click_ts": b["ts"]}),
        batch_format="pyarrow")
    out = asof_join(purchases, clicks, left_on="ts", right_on="click_ts",
                    left_by="user_id", right_by="c_user")
    return out.map_batches(
        lambda b: b.select(["event_id", "user_id", "ts", "click_ts"]),
        batch_format="pyarrow")


def q_orders_customer_hashjoin(sf_dir: str):
    """Co-partitioned large-large hash join (J2): orders ⋈ customer."""
    from cattle_ray.stages.joins import hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"], rows_per_block=50000)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    out = hash_join(orders, cust, "o_custkey", "c_custkey")
    return out.map_batches(
        lambda b: b.select(["o_orderkey", "o_custkey", "c_mktsegment"]),
        batch_format="pyarrow",
    )


def q_doc_train_split(sf_dir: str):
    """Deterministic hash-based train/val split (O3-adjacent: reproducible
    sampling for training pipelines — split is a pure function of the id,
    stable at any parallelism, no RNG state)."""

    def split(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (ids * np.uint64(2654435761)) % np.uint64(4294967296) % np.uint64(100)
        lab = np.where(h < 90, "train", "val")
        return pa.table({"doc_id": b["doc_id"], "split": pa.array(lab.tolist(), pa.string())})

    return _docs(sf_dir, ["doc_id"]).map_batches(split, batch_format="pyarrow")


def q_events_top_per_user(sf_dir: str):
    """Per-key top-k (grouped window): each user's 3 highest-value events,
    deterministic tie-break on event_id. Bucketed shuffle + vectorized
    per-reducer head (no per-key UDF calls)."""
    from cattle_ray.stages.aggregates import grouped_topk

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"], rows_per_block=20000)
    return grouped_topk(ds, "user_id", ["value", "event_id"], [False, True], 3)


def q_events_value_quantiles(sf_dir: str):
    """Exact distributed quantiles (2-pass histogram selection, no global
    sort) — DuckDB quantile_disc semantics."""
    from cattle_ray.stages.quantiles import quantile_disc

    ds = _read(sf_dir, "events", ["value"], rows_per_block=20000)
    qd = quantile_disc(ds, "value", [0.25, 0.5, 0.75, 0.9])
    return pa.table(
        {
            "q": pa.array([0.25, 0.5, 0.75, 0.9], pa.float64()),
            "value": pa.array([qd[0.25], qd[0.5], qd[0.75], qd[0.9]], pa.float64()),
        }
    )


def q_lineitem_part_join(sf_dir: str):
    """Co-partitioned hash join on two fact-sized sides."""
    from cattle_ray.stages.joins import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_partkey"],
               rows_per_block=100000)
    part = _read(sf_dir, "part", ["p_partkey", "p_name"], rows_per_block=50000)
    out = hash_join(li, part, "l_partkey", "p_partkey", num_buckets=16)
    return out.map_batches(
        lambda b: b.select(["l_orderkey", "l_linenumber", "l_partkey", "p_name"]),
        batch_format="pyarrow",
    )


def q_users_without_orders(sf_dir: str):
    """Anti join (broadcast key-set): event users with no order history."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.joins import semi_join

    users = distinct(_read(sf_dir, "events", ["user_id"], rows_per_block=20000),
                     ["user_id"])
    # M9-style predicate pushdown: the o_custkey<10 filter prunes row groups
    # AT THE READ (pyarrow dataset expression), not in a downstream map
    orders = _read(sf_dir, "orders", ["o_custkey"], rows_per_block=50000,
                   filter=(pc.field("o_custkey") < 10))
    return semi_join(users, orders, "user_id", "o_custkey", anti=True)


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3-shaped star join: customer(filter) ⋈ orders ⋈ lineitem with
    grouped revenue — broadcast the dimension, co-partition the facts."""
    import pyarrow.parquet as pq
    import ray

    from cattle_ray.stages.aggregates import grouped_sums
    from cattle_ray.stages.joins import hash_join

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    bld = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))["c_custkey"].combine_chunks()
    bld_ref = ray.put(bld)  # broadcast as an Arrow array → vectorized is_in

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"],
                   rows_per_block=50000)

    def filter_orders(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b["o_custkey"], value_set=ray.get(bld_ref)))
        return t.filter(pc.less(t["o_orderdate"], pa.scalar(np.datetime64("1998-01-01", "us"))))

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
               rows_per_block=100000)

    def li_filter(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b["l_shipdate"], pa.scalar(np.datetime64("1995-01-01", "us"))))
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        # per-row integer cents (half-up): the downstream sum is exact int64
        # arithmetic — deterministic at any partial order (was: float sum +
        # round(2), whose run-to-run ulp noise flipped the value hash)
        cents = pc.cast(pc.floor(pc.add(pc.multiply(rev, 100.0), 0.5)), pa.int64())
        return pa.table({"l_orderkey": b["l_orderkey"], "rev_c": cents})

    joined = hash_join(
        orders.map_batches(filter_orders, batch_format="pyarrow"),
        li.map_batches(li_filter, batch_format="pyarrow"),
        "o_orderkey", "l_orderkey", num_buckets=16,
    )
    sums = grouped_sums(joined, ["o_orderkey", "o_orderdate"], ["rev_c"],
                        num_buckets=16)
    return sums.map_batches(
        lambda b: pa.table({
            "o_orderkey": b["o_orderkey"], "o_orderdate": b["o_orderdate"],
            # exact: int64 cents / 100
            "revenue": pc.divide(pc.cast(b["sum_rev_c"], pa.float64()), 100.0),
        }), batch_format="pyarrow")


def q_lineitem_basket_pairs(sf_dir: str):
    """Market-basket pair mining (association-rule support counts): top-20
    part pairs co-purchased in the same order. Distinct (order, part)
    first (a part twice in one order is one basket item), pairs generated
    INSIDE the order's join group (~k²/2 per order, never corpus²), one
    map-side-combined count, exact top-20 by (support DESC, pair) through
    the distributed sort."""
    from cattle_ray.stages.aggregates import distinct, top_k_counts
    from cattle_ray.stages.joins import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"],
               rows_per_block=100000)
    p = distinct(li, ["l_orderkey", "l_partkey"]).materialize()  # both sides
    right = p.map_batches(
        lambda b: pa.table({"ok2": b["l_orderkey"], "pb": b["l_partkey"]}),
        batch_format="pyarrow")
    pairs = hash_join(p, right, "l_orderkey", "ok2").map_batches(
        lambda b: b.filter(pc.less(b["l_partkey"], b["pb"])).select(
            ["l_partkey", "pb"]).rename_columns(["pa_", "pb"]),
        batch_format="pyarrow")
    top = top_k_counts(pairs, ["pa_", "pb"], k=20)
    return top.map_batches(
        lambda b: pa.table({"pa": pc.cast(b["pa_"], pa.int64()),
                            "pb": pc.cast(b["pb"], pa.int64()),
                            "support": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow")


def q_revenue_by_nation(sf_dir: str):
    """TPC-H-Q5-shaped 4-way join: lineitem ⋈ orders ⋈ customer ⋈ nation,
    revenue per nation. The scale discipline: revenue partials are
    pre-aggregated BEFORE each join so every shuffle moves one small row
    per key, not fact rows — lineitem collapses to per-order sums (~4×),
    the order⋈customer result collapses to per-customer sums before the
    customer join, and the 25-row nation dim is a broadcast lookup, never
    a shuffle. Revenue is exact int64 fixed-point (1e-4 dollars) until ONE
    final division — deterministic at any partial order."""
    import pyarrow.parquet as pq
    import ray

    from cattle_ray.stages.aggregates import grouped_sums
    from cattle_ray.stages.joins import hash_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"],
               rows_per_block=100000)

    def rev(b: pa.Table) -> pa.Table:
        # half_towards_infinity = DuckDB round() (positive prices)
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0),
                                 round_mode="half_towards_infinity"), pa.int64())
        dpct = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0),
                                round_mode="half_towards_infinity"), pa.int64())
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "rev_e4": pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()),
                                                     dpct)),
        })

    per_order = grouped_sums(li.map_batches(rev, batch_format="pyarrow"),
                             ["l_orderkey"], ["rev_e4"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                   rows_per_block=50000)
    j1 = hash_join(per_order, orders, "l_orderkey", "o_orderkey")
    per_cust = grouped_sums(
        j1.map_batches(lambda b: pa.table({"o_custkey": b["o_custkey"],
                                           "rev_e4": b["sum_rev_e4"]}),
                       batch_format="pyarrow"),
        ["o_custkey"], ["rev_e4"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j2 = hash_join(per_cust, cust, "o_custkey", "c_custkey")

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"]).combine_chunks()
    nat_ref = ray.put(nat)

    def add_name(b: pa.Table) -> pa.Table:
        lk = ray.get(nat_ref)
        idx = pc.index_in(pc.cast(b["c_nationkey"], pa.int32()),
                          value_set=lk["n_nationkey"].chunk(0))
        return pa.table({"n_name": pc.take(lk["n_name"].chunk(0), idx),
                         "rev_e4": b["sum_rev_e4"]})

    per_nat = grouped_sums(j2.map_batches(add_name, batch_format="pyarrow"),
                           ["n_name"], ["rev_e4"])
    return per_nat.map_batches(
        lambda b: pa.table({
            "n_name": b["n_name"],
            "n_customers": pc.cast(b["n"], pa.int64()),
            # single exact-int64 / constant division — bit-identical to the
            # oracle's BIGINT / 10000.0, no float summation anywhere
            "revenue": pc.divide(pc.cast(b["sum_rev_e4"], pa.float64()),
                                 pa.scalar(10000.0)),
        }), batch_format="pyarrow")


def q_events_sliding_window(sf_dir: str):
    """Sliding-window aggregate: 1h windows every 15min per user — each event
    flat-maps to the ≤4 windows containing it, then the bucketed count."""
    from cattle_ray.stages.aggregates import partial_count
    from cattle_ray.stages.windows import sliding_window_expand

    ds = _read(sf_dir, "events", ["user_id", "ts"], rows_per_block=20000)
    expanded = ds.map_batches(
        lambda b: sliding_window_expand(b, ts="ts", window="1h", slide="15min"),
        batch_format="pyarrow",
    )
    return partial_count(expanded, ["user_id", "window_start"], num_buckets=16)


def q_kg_hits(sf_dir: str):
    """HITS hubs & authorities over the doc→entity bipartite edges (docs
    citing many entities = hubs; entities cited by many strong hubs =
    authorities). Oracle: 3 iterations unrolled in SQL; both sides round
    to 6 decimals (iteration reorders float partial sums at 1e-16 —
    see q_kg_pagerank)."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.graph import hits, uri_ids64
    from cattle_ray.stages.joins import hash_join

    ent = q_kg_csvw_triples(sf_dir).map_batches(
        lambda b: b.filter(pc.equal(b["pred"], EX + "entity")),
        batch_format="pyarrow").materialize()

    def to_edges(b: pa.Table) -> pa.Table:
        return pa.table({"src": uri_ids64(b["subj"]),
                         "dst": uri_ids64(b["obj"])})

    def to_map(b: pa.Table) -> pa.Table:
        uris = pa.concat_arrays([b["subj"].combine_chunks(),
                                 b["obj"].combine_chunks()])
        ids = pa.concat_arrays([uri_ids64(b["subj"]), uri_ids64(b["obj"])])
        return pa.table({"nid": ids, "uri": uris})

    scores = hits(ent.map_batches(to_edges, batch_format="pyarrow"), iters=3)
    id_map = distinct(ent.map_batches(to_map, batch_format="pyarrow"),
                      ["nid", "uri"], num_buckets=8)
    joined = hash_join(scores, id_map, "node", "nid", num_buckets=8)
    return joined.map_batches(
        lambda b: pa.table({"node": b["uri"],
                            "auth": pc.round(b["auth"], 6),
                            "hub": pc.round(b["hub"], 6)}),
        batch_format="pyarrow")


def q_kg_pagerank(sf_dir: str):
    """Entity importance: PageRank power iteration over the doc→entity
    bipartite edges of the materialized triples. Oracle: the 5-iteration
    power method unrolled in SQL over the same edges; both sides round ranks
    to 6 decimals (iteration reorders float partial sums at the 1e-16 level;
    rounding at 1e-6 is 10 orders of magnitude away from the noise)."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.graph import pagerank, uri_ids64
    from cattle_ray.stages.joins import hash_join

    ent = q_kg_csvw_triples(sf_dir).map_batches(
        lambda b: b.filter(pc.equal(b["pred"], EX + "entity")), batch_format="pyarrow"
    ).materialize()

    def to_edges(b: pa.Table) -> pa.Table:
        # vectorized 64-bit ids (was: per-row crc32 — 32-bit ids birthday-
        # collide near 65k nodes, silently merging distinct entities at scale)
        return pa.table({"src": uri_ids64(b["subj"]), "dst": uri_ids64(b["obj"])})

    def to_map(b: pa.Table) -> pa.Table:
        # (id ↔ uri) mapping rows for BOTH endpoints — ranks join back to
        # URIs at the end so the output is hash-scheme-independent
        uris = pa.concat_arrays([b["subj"].combine_chunks(),
                                 b["obj"].combine_chunks()])
        ids = pa.concat_arrays([uri_ids64(b["subj"]), uri_ids64(b["obj"])])
        return pa.table({"nid": ids, "uri": uris})

    ranks = pagerank(ent.map_batches(to_edges, batch_format="pyarrow"), iters=5)
    id_map = distinct(ent.map_batches(to_map, batch_format="pyarrow"),
                      ["nid", "uri"], num_buckets=8)
    joined = hash_join(ranks, id_map, "node", "nid", num_buckets=8)
    return joined.map_batches(
        lambda b: pa.table({"node": b["uri"], "rank": pc.round(b["rank"], 6)}),
        batch_format="pyarrow",
    )


def q_doc_corpus_dedup(sf_dir: str):
    """End-to-end training-corpus near-dedup: LSH pairs → connected
    components → keep min-id representative per cluster (rows-only)."""
    from cattle_ray.stages.dedup import dedup_corpus

    out = dedup_corpus(_docs(sf_dir, ["doc_id", "text"]), threshold=0.9)
    return out.map_batches(lambda b: b.select(["doc_id"]), batch_format="pyarrow")


def q_doc_corpus_dedup_verified(sf_dir: str):
    """The hash-CHECKABLE face of corpus dedup (VERDICT r4 order #5):
    ``dedup_corpus(verify=True)`` re-checks every LSH candidate pair by
    EXACT unigram Jaccard, so the clusters are connected components of
    the true-Jaccard graph and the kept set (min-id representative per
    component + every untouched doc) mirrors one-to-one in SQL —
    recursive-CTE min-label components over the exact pair set. Subset
    doc_id < 100 bounds the oracle's all-pairs token join."""
    from cattle_ray.stages.dedup import dedup_corpus
    from cattle_ray.stages.exchange import drop_empty_blocks

    sub = drop_empty_blocks(_docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: b.filter(pc.less(b["doc_id"], 100)),
        batch_format="pyarrow"))
    out = dedup_corpus(sub, threshold=0.9, ngram=1, num_buckets=8,
                       verify=True)
    return out.map_batches(lambda b: b.select(["doc_id"]),
                           batch_format="pyarrow")


def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (dup-token / top-token
    fractions) — boilerplate & degenerate-repetition filter."""
    from cattle_ray.stages.textstats import repetition_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        repetition_batch, batch_format="pyarrow"
    )


def q_doc_domain_sample(sf_dir: str):
    """Domain-balanced sampling: cap docs per source (domain stand-in) at 20,
    deterministic doc_id order — hot domains can't dominate the mix."""
    from cattle_ray.stages.aggregates import grouped_head

    out = grouped_head(_docs(sf_dir, ["doc_id", "source"]), "source", "doc_id", 20)
    return out.map_batches(lambda b: b.select(["doc_id", "source"]),
                           batch_format="pyarrow")


def q_doc_decontaminate(sf_dir: str):
    """Benchmark decontamination: docs sharing a 5-token benchmark phrase
    (benchmark set = every 97th doc, a stand-in for the real fixed-size
    benchmark suite — in production the phrase list comes from external
    benchmark files and is bounded by construction, not corpus-proportional).
    Scan is one driver-built Decontaminator mapped as tasks + vectorized
    substring match."""
    from cattle_ray.stages.textstats import Decontaminator

    bench = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            lambda b: b.filter(pa.array(
                b["doc_id"].to_numpy(zero_copy_only=False) % 97 == 0)),
            batch_format="pyarrow",
        )
        .take_all()
    )
    phrases = [" ".join((r["text"] or "").split()[:5]) for r in bench]
    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(Decontaminator(phrases), batch_format="pyarrow")
        .map_batches(lambda b: b.select(["doc_id", "contaminated"]),
                     batch_format="pyarrow")
    )


def q_doc_pii_redact(sf_dir: str):
    """PII scrubbing: ordered RE2 rules (email→phone→IP) redact the text
    and report per-rule match counts. The synthetic corpus is PII-free, so
    the query first injects deterministic PII as a pure function of doc_id
    (mirrored verbatim in the oracle) — the redaction itself is what's
    under test. Zero shuffle; streams at read speed."""
    import pandas as pd

    from cattle_ray.stages.redact import redact_batch

    def inject(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False)
        ids = pd.Series(d).astype(str)
        em = np.where(d % 7 == 0, " contact user" + ids + "@example.com", "")
        ph = np.where(d % 11 == 0, " call 555-123-4567", "")
        ip = np.where(d % 13 == 0, " from 192.168.1.42", "")
        txt = pc.binary_join_element_wise(
            batch["text"], pa.array(em), pa.array(ph), pa.array(ip), "")
        return pa.table({"doc_id": batch["doc_id"], "text": txt})

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(inject, batch_format="pyarrow")
        .map_batches(redact_batch, batch_format="pyarrow")
        .map_batches(
            lambda b: b.select(["doc_id", "redacted", "n_email", "n_phone", "n_ip"]),
            batch_format="pyarrow",
        )
    )


#: conjunctive search query terms (all present in the synthetic corpus)
SEARCH_TERMS = ["spark", "join", "window"]


def q_doc_inverted_index(sf_dir: str):
    """Search-index build: term → (df, ascending comma-joined postings).
    One bucketed term shuffle; per-bucket build is all Arrow C++ (sort →
    ordered list-aggregate → binary_join)."""
    from cattle_ray.stages.textstats import inverted_index

    return inverted_index(_docs(sf_dir, ["doc_id", "text"]))


def q_doc_search(sf_dir: str):
    """Conjunctive term search: docs containing ALL query terms — explode
    is filtered to the query terms before any shuffle, then one map-side-
    combined count per doc."""
    from cattle_ray.stages.textstats import search_all_terms

    return search_all_terms(_docs(sf_dir, ["doc_id", "text"]), SEARCH_TERMS)


def q_doc_bm25(sf_dir: str):
    """BM25 ranked search (k1=1.2, b=0.75): top-20 docs for a 3-term query
    — the ranking layer over doc_search's boolean retrieval. One streaming
    pass builds (dl, tf…), constants come from tiny per-batch partials,
    the score is one mirrored float64 expression over exact ints, and the
    only shuffle is the final 20-row sort."""
    from cattle_ray.stages.textstats import bm25_rank

    return bm25_rank(_docs(sf_dir, ["doc_id", "text"]),
                     ["hash", "join", "filter"], k=20)


#: BFS seed for the k-hop neighborhood query (Entity0..49 all exist)
BFS_SEED = "https://example.org/id/entity/Entity0"


def q_kg_bfs(sf_dir: str):
    """2-hop neighborhood of one entity in the undirected doc-row↔entity
    graph, with exact hop distance — frontier-at-a-time BFS, two adaptive
    semi-joins per round, no node-sized driver state."""
    from cattle_ray.stages.graph import bfs

    edges = (
        q_kg_csvw_triples(sf_dir)
        .filter(expr=f"pred == '{EX}entity'")
        .map_batches(
            # doc-level graph: strip the #t0/rN row fragment so one doc node
            # links all entities its rows mention (degree 3, not 1)
            lambda b: pa.table({
                "s": pc.replace_substring_regex(b["subj"], "#.*$", ""),
                "o": b["obj"],
            }),
            batch_format="pyarrow",
        )
    )
    return bfs(edges, [BFS_SEED], hops=2)


ENTITY_PREFIX = "https://example.org/id/entity/Entity"


def q_kg_taxonomy_rollup(sf_dir: str):
    """RDFS-style inference: a synthetic subclass tree over the KG's
    entities (Entity<i> ⊑ Entity<i//2>, a pure function of the URI —
    mirrored in SQL), its transitive closure (graph.transitive_closure:
    the in-process level loop at this size, path doubling above
    SMALL_CLOSURE_EDGES), then instance counting WITH inheritance:
    docs per entity including all docs of its descendants."""
    import pandas as pd

    from cattle_ray.stages.aggregates import distinct, partial_count
    from cattle_ray.stages.graph import transitive_closure
    from cattle_ray.stages.joins import hash_join

    de = distinct(
        q_kg_csvw_triples(sf_dir)
        .filter(expr=f"pred == '{EX}entity'")
        .map_batches(
            lambda b: pa.table({
                "doc": pc.replace_substring_regex(b["subj"], "#.*$", ""),
                "ent": b["obj"],
            }),
            batch_format="pyarrow",
        ),
        ["doc", "ent"],
    ).materialize()  # consumed twice: entity universe + the rollup join

    ents = distinct(de, ["ent"])

    def parent_edges(b: pa.Table) -> pa.Table:
        ent = b["ent"]
        if isinstance(ent, pa.ChunkedArray):
            ent = ent.combine_chunks()
        i = pc.cast(pc.replace_substring_regex(
            ent, r"^.*Entity(\d+)$", r"\1"), pa.int64())
        keep = pc.greater_equal(i, 1)
        child = ent.filter(keep)
        par_i = pc.divide(i.filter(keep), 2)  # int64 floor division
        parent = pc.binary_join_element_wise(
            pa.array([ENTITY_PREFIX] * len(child)),
            pc.cast(par_i, pa.string()), "")
        return pa.table({"child": child, "parent": parent})

    par = ents.map_batches(parent_edges, batch_format="pyarrow")
    closure = transitive_closure(par, src="child", dst="parent")
    ident = ents.map_batches(
        lambda b: pa.table({"child": b["ent"], "parent": b["ent"]}),
        batch_format="pyarrow",
    )
    reach = closure.union(ident)
    pairs = hash_join(de, reach, "ent", "child").map_batches(
        lambda b: pa.table({"doc": b["doc"], "entity": b["parent"]}),
        batch_format="pyarrow",
    )
    counts = partial_count(distinct(pairs, ["doc", "entity"]), ["entity"])
    return counts.map_batches(
        lambda b: pa.table({"entity": b["entity"],
                            "n_docs": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow",
    )


def q_events_user_zscore(sf_dir: str):
    """Per-key feature standardization (z-score within user): exact int64
    cent/cent² sums via one map-side-combined grouped aggregate, then one
    co-partitioned join back to the events and a vectorized normalize.
    The float math (mean/var/z) runs on identical exact integers in both
    engines in the same expression order — deterministic hashes without a
    global sort."""
    from cattle_ray.stages.aggregates import grouped_sums
    from cattle_ray.stages.joins import hash_join

    def with_cents(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        c = np.floor(v * 100 + 0.5).astype(np.int64)
        return pa.table({
            "event_id": b["event_id"], "user_id": b["user_id"],
            "value": b["value"],
            "cents": pa.array(c), "cents2": pa.array(c * c),
        })

    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"],
               rows_per_block=20000).map_batches(with_cents,
                                                 batch_format="pyarrow")
    ev = ev.materialize()  # consumed twice: stats + the normalize join
    stats = grouped_sums(ev.map_batches(
        lambda b: b.select(["user_id", "cents", "cents2"]),
        batch_format="pyarrow"), ["user_id"], ["cents", "cents2"])
    joined = hash_join(
        ev.map_batches(lambda b: b.select(["event_id", "user_id", "value"]),
                       batch_format="pyarrow"),
        stats, "user_id", "user_id")

    def normalize(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False)
        sc = b["sum_cents"].to_numpy(zero_copy_only=False)
        scc = b["sum_cents2"].to_numpy(zero_copy_only=False)
        v = b["value"].to_numpy(zero_copy_only=False)
        eid = b["event_id"].to_numpy(zero_copy_only=False)
        keep = n > 1
        n, sc, scc, v, eid = n[keep], sc[keep], scc[keep], v[keep], eid[keep]
        mean = sc / n / 100.0
        var = (scc / 10000.0 - n * mean * mean) / (n - 1)
        z = (v - mean) / np.sqrt(var)
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "z": pc.round(pa.array(z), 4,
                          round_mode="half_towards_infinity"),
        })

    return joined.map_batches(normalize, batch_format="pyarrow")


def q_doc_corpus_report(sf_dir: str):
    """Corpus report card per source/domain: doc count, total whitespace
    tokens, total chars — one streaming pass, exact integers, one
    map-side-combined grouped aggregate (nothing doc-sized shuffles)."""
    from cattle_ray.stages.aggregates import grouped_sums
    from cattle_ray.stages.textstats import token_count_batch

    def prep(b: pa.Table) -> pa.Table:
        t = token_count_batch(b)
        return pa.table({"source": b["source"], "toks": t["n_tokens"],
                         "chars": pc.cast(b["n_chars"], pa.int64())})

    docs = _docs(sf_dir, ["source", "text", "n_chars"]).map_batches(
        prep, batch_format="pyarrow")
    out = grouped_sums(docs, ["source"], ["toks", "chars"])
    return out.map_batches(
        lambda b: pa.table({
            "source": b["source"],
            "n_docs": b["n"],
            "total_tokens": b["sum_toks"],
            "total_chars": b["sum_chars"],
        }),
        batch_format="pyarrow",
    )


def q_events_value_hist(sf_dir: str):
    """Fixed-width value histogram (distribution profiling): bin at the
    read, map-side-combined count — the zero-shuffle-ish shape every
    monitoring pass should have."""
    from cattle_ray.stages.aggregates import partial_count

    def bin_batch(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        return pa.table({"bin": pa.array(np.floor(v / 50.0).astype(np.int64))})

    ev = _read(sf_dir, "events", ["value"], rows_per_block=20000)
    counts = partial_count(ev.map_batches(bin_batch, batch_format="pyarrow"),
                           ["bin"])
    return counts.map_batches(
        lambda b: pa.table({"bin": b["bin"], "n": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow",
    )


#: value-tier dimension for the range join (non-overlapping [lo, hi))
VALUE_TIERS = [(0.0, 100.0, "low"), (100.0, 250.0, "mid"),
               (250.0, 500.0, "high")]


def q_events_cohort_retention(sf_dir: str):
    """Cohort retention matrix — the composition every product-analytics
    pipeline runs: cohort(user) = day of first event (ONE map-side-combined
    grouped min over day partials), cohort joined back onto the user's
    active days with the co-partitioned join (the cohort table is
    user-sized — at scale it shuffles, never broadcasts), then distinct +
    count per (cohort_day, active day). Facts cross exactly two bucketed
    shuffles; the raw event rows never do (days are pre-distincted per
    batch inside grouped_min's partial and the distinct's local pass)."""
    from cattle_ray.stages.aggregates import distinct, grouped_minmax, partial_count
    from cattle_ray.stages.joins import hash_join

    def to_day(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64())  # epoch micros
        return pa.table({"user_id": b["user_id"],
                         "day": pc.divide(us, 86_400_000_000)})

    days = distinct(
        _read(sf_dir, "events", ["ts", "user_id"], rows_per_block=20000)
        .map_batches(to_day, batch_format="pyarrow"),
        ["user_id", "day"]).materialize()  # consumed twice: cohort + join
    cohort = grouped_minmax(days, ["user_id"], "day", "min").map_batches(
        lambda b: b.rename_columns(["user_id", "cohort_day"]),
        batch_format="pyarrow")
    joined = hash_join(days, cohort, "user_id", "user_id")
    out = partial_count(joined, ["cohort_day", "day"])
    return out.map_batches(
        lambda b: pa.table({"cohort_day": pc.cast(b["cohort_day"], pa.int64()),
                            "day": pc.cast(b["day"], pa.int64()),
                            "n_users": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow")


def q_events_day_over_day(sf_dir: str):
    """Day-over-day per-user spend delta — a COMPOSITE-key self-join:
    daily (user, day) cent sums (one map-side-combined grouped_sums pass)
    joined to themselves on (user_id, day) = (user_id, day+1). The value
    tuple hashes to one bucket, so the composite join costs exactly one
    union shuffle of the already-aggregated daily rows."""
    from cattle_ray.stages.aggregates import grouped_sums
    from cattle_ray.stages.joins import hash_join

    def prep(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64())
        # half_towards_infinity = DuckDB round() (Arrow defaults to
        # half_to_even — only differs on exact .5 products)
        cents = pc.cast(pc.round(pc.multiply(b["value"], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        return pa.table({"user_id": b["user_id"],
                         "day": pc.divide(us, 86_400_000_000),
                         "cents": cents})

    daily = grouped_sums(
        _read(sf_dir, "events", ["ts", "user_id", "value"],
              rows_per_block=20000).map_batches(prep, batch_format="pyarrow"),
        ["user_id", "day"], ["cents"]).materialize()  # both join sides
    shifted = daily.map_batches(
        lambda b: pa.table({"uu": b["user_id"],
                            "day_next": pc.add(pc.cast(b["day"], pa.int64()), 1),
                            "prev_cents": b["sum_cents"]}),
        batch_format="pyarrow")
    j = hash_join(daily, shifted, ["user_id", "day"], ["uu", "day_next"])
    return j.map_batches(
        lambda b: pa.table({
            "user_id": pc.cast(b["user_id"], pa.int64()),
            "day": pc.cast(b["day"], pa.int64()),
            "cents": pc.cast(b["sum_cents"], pa.int64()),
            "prev_cents": pc.cast(b["prev_cents"], pa.int64()),
            "delta_cents": pc.subtract(pc.cast(b["sum_cents"], pa.int64()),
                                       pc.cast(b["prev_cents"], pa.int64())),
        }), batch_format="pyarrow")


def q_events_user_paths(sf_dir: str):
    """Behavioral-sequence assembly: each user's full event-type path in
    exact temporal order (the training-sequence layout for behavior
    models) — :func:`cattle_ray.stages.windows.ordered_paths`."""
    from cattle_ray.stages.windows import ordered_paths

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"],
               rows_per_block=20000)
    return ordered_paths(ev, key="user_id", ts="ts", val="event_type",
                         order_tiebreak="event_id")


def q_events_time_window(sf_dir: str):
    """Per-user trailing ONE-HOUR spend window — the time-RANGE window
    (``SUM OVER (... RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT
    ROW)``) the ROWS-window family can't express. Peer rows collapse
    map-side so one row per (user, ts) crosses the single key shuffle;
    window edges from one vectorized merge-count per bucket; all sums
    exact int64 cents."""
    from cattle_ray.stages.windows import grouped_time_window

    ds = _read(sf_dir, "events", ["ts", "user_id", "value"],
               rows_per_block=20000)

    def to_cents(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["value"], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        return pa.table({"ts": b["ts"], "user_id": b["user_id"],
                         "cents": cents})

    return grouped_time_window(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        key="user_id", ts="ts", val="cents", window_us=3_600_000_000)


def q_events_frequent_paths(sf_dir: str):
    """Frequent-sequence mining: the top-20 3-step event-type journeys
    across all users (funnel discovery) — per-user ordered trigrams built
    by Arrow joins over shifted slices inside one bucketed key shuffle,
    then a map-side-combined count and the deterministic distributed
    (count, seq) top-k. Pair volume is sum of per-user path lengths,
    never corpus²."""
    from cattle_ray.stages.aggregates import top_k_counts
    from cattle_ray.stages.windows import sequence_ngrams

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"],
               rows_per_block=20000)
    seqs = sequence_ngrams(ev, key="user_id", ts="ts", val="event_type",
                           n=3, sep=">", order_tiebreak="event_id")
    return top_k_counts(seqs, ["seq"], k=20)


def q_events_value_mad(sf_dir: str):
    """Robust dispersion: exact median + median-absolute-deviation via TWO
    passes of the distributed histogram-selection quantile (no global
    sort, no float summation — both statistics are actual data elements)."""
    from cattle_ray.stages.quantiles import quantile_disc

    ev = _read(sf_dir, "events", ["value"], rows_per_block=20000)
    med = quantile_disc(ev, "value", [0.5])[0.5]
    dev = ev.map_batches(
        lambda b: pa.table({"ad": pc.abs(pc.subtract(b["value"],
                                                     pa.scalar(med)))}),
        batch_format="pyarrow")
    mad = quantile_disc(dev, "ad", [0.5])[0.5]
    return pa.table({"median": pa.array([med], pa.float64()),
                     "mad": pa.array([mad], pa.float64())})


def q_doc_length_rank(sf_dir: str):
    """Global percent_rank() WITHOUT a global sort: token-count domain is
    bounded small ints, so one map-side-combined count per length + a
    driver cumsum gives every doc's exact strict-rank via one broadcast
    searchsorted — the window function as a cumulative histogram."""
    import ray

    from cattle_ray.stages.aggregates import partial_count
    from cattle_ray.stages.textstats import token_count_batch

    toks = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow").select_columns(
        ["doc_id", "n_tokens"]).materialize()  # counts pass + rank pass
    cnt = partial_count(toks, ["n_tokens"]).to_pandas()  # ≤ one row/length
    cnt = cnt.sort_values("n_tokens")
    lengths = cnt["n_tokens"].to_numpy().astype(np.int64)
    before = np.concatenate(([0], np.cumsum(cnt["n"].to_numpy())[:-1]))
    n_total = int(cnt["n"].sum())
    ref = ray.put((lengths, before.astype(np.int64)))

    def rank(b: pa.Table) -> pa.Table:
        ln, bf = ray.get(ref)
        v = b["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        lt = bf[np.searchsorted(ln, v)]
        pr = (lt.astype(np.float64) / (n_total - 1)) if n_total > 1 \
            else np.zeros(len(v))
        return pa.table({"doc_id": b["doc_id"],
                         "n_tokens": pa.array(v),
                         "pct_rank": pa.array(pr)})

    return toks.map_batches(rank, batch_format="pyarrow")


def q_events_gapfill(sf_dir: str):
    """Time-series densify/resample: daily event counts with missing days
    zero-filled across the observed [min, max] span. The corpus-sized work
    is ONE map-side-combined count; the day spine is calendar-bounded
    (rows = days, independent of corpus size), so the fill itself runs on
    the collected count table — bounded by construction, not by data."""
    from cattle_ray.stages.aggregates import partial_count

    ev = _read(sf_dir, "events", ["ts"], rows_per_block=20000)
    days = ev.map_batches(
        lambda b: pa.table({"day": pc.cast(
            pc.divide(pc.cast(b["ts"], pa.int64()), 86_400_000_000),
            pa.int64())}),
        batch_format="pyarrow")
    cnt = partial_count(days, ["day"]).to_pandas()  # ≤ one row per day
    if cnt.empty:  # oracle's generate_series over NULL bounds → no rows
        return pa.table({"day": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    lo, hi = int(cnt["day"].min()), int(cnt["day"].max())
    spine = np.arange(lo, hi + 1, dtype=np.int64)
    filled = np.zeros(len(spine), dtype=np.int64)
    filled[cnt["day"].to_numpy().astype(np.int64) - lo] = \
        cnt["n"].to_numpy().astype(np.int64)
    return pa.table({"day": pa.array(spine), "n": pa.array(filled)})


def q_lineitem_corr(sf_dir: str):
    """Grouped Pearson correlation (quantity vs discount-pct per return
    flag) from EXACT integer moment sums — one grouped_sums pass carries
    (Σx, Σy, Σxy, Σx², Σy², n) per group, the driver evaluates the final
    float expression in the same IEEE operation order as the oracle SQL
    (sqrt/division of exact ints — bit-identical, no partial-order flake)."""
    from cattle_ray.stages.aggregates import grouped_sums

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_discount"],
               rows_per_block=100000)

    def moments(b: pa.Table) -> pa.Table:
        # explicit half-away rounding = DuckDB round() (Arrow defaults to
        # banker's — a 2.5 quantity would corrupt every moment sum)
        x = pc.cast(pc.round(b["l_quantity"],
                             round_mode="half_towards_infinity"), pa.int64())
        y = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0),
                             round_mode="half_towards_infinity"), pa.int64())
        return pa.table({"l_returnflag": b["l_returnflag"], "x": x, "y": y,
                         "xy": pc.multiply(x, y), "x2": pc.multiply(x, x),
                         "y2": pc.multiply(y, y)})

    g = grouped_sums(li.map_batches(moments, batch_format="pyarrow"),
                     ["l_returnflag"], ["x", "y", "xy", "x2", "y2"])

    def corr(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        sx = b["sum_x"].to_numpy(zero_copy_only=False).astype(np.int64)
        sy = b["sum_y"].to_numpy(zero_copy_only=False).astype(np.int64)
        sxy = b["sum_xy"].to_numpy(zero_copy_only=False).astype(np.int64)
        sx2 = b["sum_x2"].to_numpy(zero_copy_only=False).astype(np.int64)
        sy2 = b["sum_y2"].to_numpy(zero_copy_only=False).astype(np.int64)
        num = n * sxy - sx * sy
        d1 = n * sx2 - sx * sx
        d2 = n * sy2 - sy * sy
        c = num.astype(np.float64) / (np.sqrt(d1.astype(np.float64))
                                      * np.sqrt(d2.astype(np.float64)))
        return pa.table({"l_returnflag": b["l_returnflag"],
                         "n": pa.array(n), "corr_qd": pa.array(c)})

    return g.map_batches(corr, batch_format="pyarrow")


def q_events_rolling_active(sf_dir: str):
    """Rolling 7-day active users (WAU) per day — the sliding-window
    DISTINCT that plain windowed aggregation can't do: the user-day table
    (already distinct, tiny vs the event stream) vectorized-explodes each
    row into the 7 window-end days it contributes to, one distinct dedupes
    the overlap, one map-side-combined count finishes. Events never cross
    a shuffle; only user-days do (×7)."""
    from cattle_ray.stages.aggregates import distinct, partial_count

    def to_day(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64())
        return pa.table({"user_id": b["user_id"],
                         "day": pc.divide(us, 86_400_000_000)})

    days = distinct(
        _read(sf_dir, "events", ["ts", "user_id"], rows_per_block=20000)
        .map_batches(to_day, batch_format="pyarrow"),
        ["user_id", "day"]).materialize()  # bounds + expand passes
    lo, hi = int(days.min("day")), int(days.max("day"))

    def expand(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False)
        d = b["day"].to_numpy(zero_copy_only=False).astype(np.int64)
        off = np.tile(np.arange(7, dtype=np.int64), len(u))
        return pa.table({"user_id": pa.array(np.repeat(u, 7)),
                         "wday": pa.array(np.repeat(d, 7) + off)})

    act = distinct(days.map_batches(expand, batch_format="pyarrow"),
                   ["user_id", "wday"])
    counts = partial_count(act, ["wday"])
    return counts.map_batches(
        lambda b: pa.table({"day": pc.cast(b["wday"], pa.int64()),
                            "active_users": pc.cast(b["n"], pa.int64())})
        .filter(pc.and_(pc.greater_equal(pc.cast(b["wday"], pa.int64()), lo),
                        pc.less_equal(pc.cast(b["wday"], pa.int64()), hi))),
        batch_format="pyarrow")


def q_events_cube(sf_dir: str):
    """GROUP BY CUBE(event_type, dow) in ONE corpus pass: the event stream
    shuffles only into the finest-level (type, dow) sums; all three coarser
    grouping sets re-aggregate that already-tiny table (the rollup
    optimization generalized to the full cube). Day-of-week is pure
    epoch arithmetic — identical on both sides, no calendar functions."""
    from cattle_ray.stages.aggregates import grouped_sums

    import ray.data as rd

    def prep(b: pa.Table) -> pa.Table:
        us = pc.cast(b["ts"], pa.int64())
        dow = pc.add(pc.divide(us, 86_400_000_000), 4)  # 1970-01-01 = Thu
        cents = pc.cast(pc.round(pc.multiply(b["value"], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        return pa.table({"event_type": b["event_type"],
                         "dow": pc.cast(pc.subtract(
                             dow, pc.multiply(pc.divide(dow, 7), 7)),
                             pa.int64()),
                         "cents": cents})

    ev = _read(sf_dir, "events", ["ts", "event_type", "value"],
               rows_per_block=20000)
    fine = grouped_sums(ev.map_batches(prep, batch_format="pyarrow"),
                        ["event_type", "dow"], ["cents"])
    base = fine.map_batches(
        lambda b: pa.table({"event_type": b["event_type"],
                            "dow": pc.cast(b["dow"], pa.int64()),
                            "cents": pc.cast(b["sum_cents"], pa.int64()),
                            "n_ev": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow").materialize()  # tiny; consumed 4×

    def tbl(et, dow, n, s) -> pa.Table:
        return pa.table({"event_type": pa.array(et, pa.string()),
                         "dow": pa.array(dow, pa.int64()),
                         "n_events": pa.array(n, pa.int64()),
                         "sum_cents": pa.array(s, pa.int64())})

    lvl_td = base.map_batches(
        lambda b: tbl(b["event_type"], b["dow"], b["n_ev"], b["cents"]),
        batch_format="pyarrow")
    lvl_t = grouped_sums(base, ["event_type"], ["cents", "n_ev"]).map_batches(
        lambda b: tbl(b["event_type"], [None] * len(b), b["sum_n_ev"],
                      b["sum_cents"]), batch_format="pyarrow")
    lvl_d = grouped_sums(base, ["dow"], ["cents", "n_ev"]).map_batches(
        lambda b: tbl([None] * len(b), pc.cast(b["dow"], pa.int64()),
                      b["sum_n_ev"], b["sum_cents"]),
        batch_format="pyarrow")
    tot_n = base.sum("n_ev")
    tot_c = base.sum("cents")
    # empty input: SQL CUBE still emits the () grouping-set row with
    # count 0 and a NULL sum — mirror it (Dataset.sum returns None)
    lvl_0 = rd.from_arrow(tbl(
        [None], [None], [int(tot_n) if tot_n is not None else 0],
        [int(tot_c) if tot_c is not None else None]))
    return lvl_td.union(lvl_t).union(lvl_d).union(lvl_0)


def q_events_dominant_type(sf_dir: str):
    """Grouped mode: each user's most frequent event type (deterministic
    tie-break) — one map-side-combined count, then a per-key argmax over
    the tiny count table. The mode costs what the count costs."""
    from cattle_ray.stages.aggregates import grouped_mode

    ev = _read(sf_dir, "events", ["user_id", "event_type"],
               rows_per_block=20000)
    return grouped_mode(ev, "user_id", "event_type")


def q_events_latest(sf_dir: str):
    """Latest row per key (recrawl/upsert semantics — a url crawled many
    times keeps its newest capture; here: each user's most recent event).
    Map-side local argmax thins every batch to one row per key BEFORE the
    shuffle, so payload columns never amplify."""
    from cattle_ray.stages.dedup import latest_by_key

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"],
               rows_per_block=20000)
    return latest_by_key(ev, "user_id", "ts", tie_cols=("event_id",))


def q_events_orders_outer(sf_dir: str):
    """FULL OUTER join of per-user event counts vs per-customer URGENT
    order counts — both sides aggregated to one row per key BEFORE the
    join (the shuffle moves counts, not raw facts), then one pure-Arrow
    co-partitioned full outer: unmatched users on either side survive
    with a typed-null count, int64 ids never coerce to float."""
    from cattle_ray.stages.aggregates import partial_count
    from cattle_ray.stages.joins import full_outer_join

    ev = partial_count(
        _read(sf_dir, "events", ["user_id"], rows_per_block=20000),
        ["user_id"]).map_batches(
        lambda b: b.rename_columns(["user_id", "n_events"]),
        batch_format="pyarrow")
    urg = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"],
                rows_per_block=20000).map_batches(
        lambda b: b.filter(
            pc.equal(b["o_orderpriority"], "1-URGENT")).select(["o_custkey"]),
        batch_format="pyarrow")
    od = partial_count(urg, ["o_custkey"]).map_batches(
        lambda b: b.rename_columns(["user_id", "n_orders"]),
        batch_format="pyarrow")
    return full_outer_join(ev, od, "user_id", "user_id")


def q_customer_360(sf_dir: str):
    """Customer-360 rollup: every customer joined to their order count /
    order revenue AND their event count in ONE shuffle — a 3-way cogroup
    over the shared custkey=user_id partitioning key instead of two
    chained hash joins (two all-to-alls). Both fact sides pre-aggregate
    map-side (the shuffle moves one partial row per key per batch, never
    facts); partials finish inside the cogroup bucket; revenue stays
    exact int64 cents."""
    from cattle_ray.stages.joins import cogroup_left

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"],
                 rows_per_block=5000)

    def orders_partial(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["o_totalprice"], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        t = pa.table({"o_custkey": b["o_custkey"], "pc": cents})
        out = t.group_by(["o_custkey"]).aggregate([("pc", "sum"),
                                                   ([], "count_all")])
        return out.rename_columns(["o_custkey", "p_cents", "p_n"])

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"],
                   rows_per_block=20000).map_batches(
        orders_partial, batch_format="pyarrow")

    def orders_finish(df):
        out = df.groupby("o_custkey", sort=False)[["p_cents", "p_n"]] \
            .sum().reset_index()
        return out.rename(columns={"p_cents": "order_cents",
                                   "p_n": "n_orders"})

    def events_partial(b: pa.Table) -> pa.Table:
        out = b.group_by(["user_id"]).aggregate([([], "count_all")])
        return out.rename_columns(["user_id", "p_ev"])

    events = _read(sf_dir, "events", ["user_id"],
                   rows_per_block=20000).map_batches(
        events_partial, batch_format="pyarrow")

    def events_finish(df):
        out = df.groupby("user_id", sort=False)[["p_ev"]].sum().reset_index()
        return out.rename(columns={"p_ev": "n_events"})

    def coalesce0(df):
        for c in ["n_orders", "order_cents", "n_events"]:
            df[c] = df[c].fillna(0).astype("int64")
        return df

    return cogroup_left(
        [(cust, "c_custkey", None),
         (orders, "o_custkey", orders_finish),
         (events, "user_id", events_finish)],
        post_fn=coalesce0)


def q_events_tier_join(sf_dir: str):
    """Non-equi range join: each event's value matched to its tier band —
    dimension broadcast once, one vectorized searchsorted per batch, zero
    shuffle (the shape any slowly-changing-dimension lookup should have)."""
    import pandas as pd

    from cattle_ray.stages.joins import interval_join

    tiers = pd.DataFrame(VALUE_TIERS, columns=["lo", "hi", "tier"])
    ev = _read(sf_dir, "events", ["event_id", "value"], rows_per_block=20000)
    out = interval_join(ev, tiers, "value")
    return out.map_batches(lambda b: b.select(["event_id", "tier"]),
                           batch_format="pyarrow")


def q_events_type_pivot(sf_dir: str):
    """Pivot event_type to per-user count columns: vectorized one-hot at
    the read + ONE map-side-combined grouped sum — the pivot costs exactly
    what the plain count costs (no per-type pass, no wide shuffle)."""
    from cattle_ray.stages.aggregates import grouped_sums

    types = ["click", "error", "purchase", "signup", "view"]

    def onehot(b: pa.Table) -> pa.Table:
        cols = {"user_id": b["user_id"]}
        for t in types:
            cols[t] = pc.cast(pc.equal(b["event_type"], t), pa.int64())
        return pa.table(cols)

    ev = _read(sf_dir, "events", ["user_id", "event_type"],
               rows_per_block=20000).map_batches(onehot, batch_format="pyarrow")
    out = grouped_sums(ev, ["user_id"], types)
    return out.map_batches(
        lambda b: pa.table({"user_id": b["user_id"],
                            **{f"n_{t}": b[f"sum_{t}"] for t in types},
                            "n_events": b["n"]}),
        batch_format="pyarrow",
    )


def q_doc_related_pairs(sf_dir: str):
    """Sparse similarity join: top-100 related doc pairs by Σ tf_a·tf_b
    over shared RARE bigrams (df ≤ n_docs/50 — corpus-relative, so the
    candidate bound holds at any scale). Exact int64 scores."""
    import pyarrow.parquet as pq

    from cattle_ray.stages.textstats import related_doc_pairs

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    return related_doc_pairs(_docs(sf_dir, ["doc_id", "text"]),
                             max_df=n_docs // 50, k=100)


def q_kg_walks(sf_dir: str):
    """Deterministic pseudo-random walks over the doc↔entity graph (the
    graph-sampling stage of a DeepWalk-style embedding pipeline): 2 walks ×
    2 steps from every entity, next-hop = plain-arithmetic rank over
    dst-sorted neighbors — reproducible at any partitioning and mirrored
    verbatim as SQL arithmetic."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.graph import random_walks

    edges = (
        q_kg_csvw_triples(sf_dir)
        .filter(expr=f"pred == '{EX}entity'")
        .map_batches(
            lambda b: pa.table({
                "s": pc.replace_substring_regex(b["subj"], "#.*$", ""),
                "o": b["obj"],
            }),
            batch_format="pyarrow",
        )
    ).materialize()  # consumed twice: both directions + the seed scan
    und = edges.union(edges.map_batches(
        lambda b: pa.table({"s": b["o"], "o": b["s"]}),
        batch_format="pyarrow"))
    seeds = distinct(
        edges.map_batches(lambda b: pa.table({"seed": b["o"]}),
                          batch_format="pyarrow"), ["seed"])
    return random_walks(und, seeds, steps=2, walks_per_seed=2)


def q_kg_kcore(sf_dir: str):
    """2-core of the doc↔entity graph (dense-community extraction /
    pendant pruning before embedding training): distributed peeling —
    per round one map-side-combined degree count + two adaptive
    semi-joins, early exit at the fixpoint. Oracle: the same peeling
    unrolled as SQL levels (extra levels past convergence are no-ops)."""
    from cattle_ray.stages.graph import kcore

    edges = (
        q_kg_csvw_triples(sf_dir)
        .filter(expr=f"pred == '{EX}entity'")
        .map_batches(
            lambda b: pa.table({
                "s": pc.replace_substring_regex(b["subj"], "#.*$", ""),
                "o": b["obj"],
            }),
            batch_format="pyarrow",
        )
    ).materialize()
    und = edges.union(edges.map_batches(
        lambda b: pa.table({"s": b["o"], "o": b["s"]}),
        batch_format="pyarrow"))
    return kcore(und, 2, src="s", dst="o")


#: must cover the test graph's peeling depth (engine runs to its true
#: fixpoint; converged extra SQL levels are no-ops, so headroom is cheap)
_KCORE_LEVELS = 16


def _kcore_oracle_sql(k: int, levels: int = _KCORE_LEVELS) -> str:
    """Peeling unrolled: level i filters e{i} to edges whose BOTH endpoints
    have degree >= k in e{i}; converged levels pass through unchanged."""
    parts = [f"""
            e0 AS MATERIALIZED (SELECT DISTINCT s, o FROM (
                SELECT regexp_replace(subj, '#.*$', '') AS s, obj AS o
                FROM triples WHERE pred = '{EX}entity'
                UNION ALL
                SELECT obj AS s, regexp_replace(subj, '#.*$', '') AS o
                FROM triples WHERE pred = '{EX}entity'))"""]
    for i in range(levels):
        parts.append(f"""
            k{i} AS MATERIALIZED (SELECT s FROM e{i} GROUP BY s
                                  HAVING count(*) >= {k}),
            e{i + 1} AS MATERIALIZED (SELECT e.s, e.o FROM e{i} e
                         JOIN k{i} a ON e.s = a.s
                         JOIN k{i} b ON e.o = b.s)""")
    return (_TRIPLE_BASE_CTE + "," + ",".join(parts) + f"""
            SELECT s AS node, CAST(count(*) AS BIGINT) AS deg
            FROM e{levels} GROUP BY s""")


def q_kg_negative_samples(sf_dir: str):
    """Deterministic negative sampling for KG-embedding training
    (TransE-style corrupted triples): each (doc, entity) positive gets 2
    corrupted objects chosen by plain-arithmetic rank over the SORTED
    entity universe — a pure function of the graph (identical at any
    partitioning/retry) that mirrors verbatim as SQL arithmetic, exactly
    like kg_walks. True-object collisions shift to the next entity (the
    standard rejection step, also mirrored). Entity list is
    dimension-sized and broadcast once; at web scale swap the gather for
    a co-partitioned join on the rank."""
    import ray

    from cattle_ray.stages.aggregates import distinct

    P1, P2, P3 = 1000003, 7919, 104729
    pos = q_kg_csvw_triples(sf_dir).filter(
        expr=f"pred == '{EX}entity'").map_batches(
        lambda b: b.select(["subj", "obj"]), batch_format="pyarrow"
    ).materialize()  # entity universe + corruption passes
    ents = distinct(pos.map_batches(lambda b: b.select(["obj"]),
                                    batch_format="pyarrow"), ["obj"])
    ent_sorted = pa.array(sorted(
        r["obj"] for r in ents.take_all()), pa.string())
    n_ent = len(ent_sorted)
    ref = ray.put(ent_sorted)

    def corrupt(b: pa.Table) -> pa.Table:
        ent = ray.get(ref)
        if len(b) == 0:
            return pa.table({"subj": pa.array([], pa.string()),
                             "obj": pa.array([], pa.string()),
                             "k": pa.array([], pa.int64()),
                             "neg_obj": pa.array([], pa.string())})
        ds_ = pc.extract_regex(b["subj"], r"(?P<d>\d+)$")
        do_ = pc.extract_regex(b["obj"], r"(?P<d>\d+)$")
        idx_s = pc.cast(pc.struct_field(ds_, "d"), pa.int64())             .to_numpy(zero_copy_only=False)
        idx_o = pc.cast(pc.struct_field(do_, "d"), pa.int64())             .to_numpy(zero_copy_only=False)
        subj = b["subj"].combine_chunks()
        obj = b["obj"].combine_chunks()
        outs = []
        for k in (0, 1):
            rank = (idx_s * P1 + idx_o * P2 + k * P3) % n_ent
            e1 = pc.take(ent, pa.array(rank))
            e2 = pc.take(ent, pa.array((rank + 1) % n_ent))
            neg = pc.if_else(pc.equal(e1, obj), e2, e1)
            outs.append(pa.table({
                "subj": subj, "obj": obj,
                "k": pa.array(np.full(len(b), k, np.int64)),
                "neg_obj": neg}))
        return pa.concat_tables(outs)

    return pos.map_batches(corrupt, batch_format="pyarrow")


def q_doc_heavy_terms(sf_dir: str):
    """Approximate-locate, exact-verify heavy hitters: a merged count-min
    sketch + per-batch local tops nominate candidates, then ONE filtered
    map-side-combined count produces EXACT top-20 term frequencies —
    estimates never reach the output, so the oracle is plain exact SQL."""
    from cattle_ray.stages.sketches import heavy_hitters_exact
    from cattle_ray.stages.textstats import _tokens_batch

    toks = _docs(sf_dir, ["text"]).map_batches(
        lambda b: _tokens_batch(b), batch_format="pyarrow")
    out = heavy_hitters_exact(toks, "w", 20)
    return out.map_batches(
        lambda b: pa.table({"term": b["w"], "n": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow",
    )


def q_events_profile(sf_dir: str):
    """Column profiler (the data-quality pass every ingest runs): per
    column null count, exact distinct, numeric min/max. The null/min/max
    partials for ALL columns come from ONE fused scan (one tiny partial
    row per (column, block) — previously 3 jobs per column), plus one
    bucketed distinct per column (those are genuine shuffles each)."""
    from cattle_ray.stages.aggregates import distinct

    cols = ["event_id", "user_id", "value", "event_type"]
    num_cols = ["event_id", "user_id", "value"]
    ev = _read(sf_dir, "events", cols, rows_per_block=20000).materialize()

    def partials(b: pa.Table) -> pa.Table:
        names, nulls, mns, mxs = [], [], [], []
        for c in cols:
            names.append(c)
            nulls.append(b[c].null_count)
            if c in num_cols and len(b) - b[c].null_count > 0:
                mm = pc.min_max(b[c]).as_py()
                mns.append(float(mm["min"]))
                mxs.append(float(mm["max"]))
            else:
                mns.append(None)
                mxs.append(None)
        return pa.table({"column": pa.array(names, pa.string()),
                         "nulls": pa.array(nulls, pa.int64()),
                         "mn": pa.array(mns, pa.float64()),
                         "mx": pa.array(mxs, pa.float64())})

    agg: dict[str, list] = {c: [0, None, None] for c in cols}
    for chunk in ev.map_batches(partials, batch_format="pyarrow") \
                   .iter_batches(batch_format="pyarrow", batch_size=4096):
        for c, nn, mn, mx in zip(chunk["column"].to_pylist(),
                                 chunk["nulls"].to_pylist(),
                                 chunk["mn"].to_pylist(),
                                 chunk["mx"].to_pylist()):
            a = agg[c]
            a[0] += nn
            if mn is not None:
                a[1] = mn if a[1] is None else min(a[1], mn)
                a[2] = mx if a[2] is None else max(a[2], mx)

    rows = []
    for c in cols:
        nd = int(distinct(ev.map_batches(
            lambda b, _c=c: b.select([_c]).filter(pc.is_valid(b[_c])),
            batch_format="pyarrow"),
            [c]).count())  # NULL excluded, = SQL count(DISTINCT)
        rows.append((c, agg[c][0], nd, agg[c][1], agg[c][2]))
    return pa.table({
        "column": pa.array([r[0] for r in rows], pa.string()),
        "n_nulls": pa.array([r[1] for r in rows], pa.int64()),
        "n_distinct": pa.array([r[2] for r in rows], pa.int64()),
        "min_v": pa.array([r[3] for r in rows], pa.float64()),
        "max_v": pa.array([r[4] for r in rows], pa.float64()),
    })


def q_doc_rollup(sf_dir: str):
    """Multi-level aggregate (GROUP BY ROLLUP(source, lang)) in ONE data
    pass: the full corpus shuffles only into the finest-level count; the
    coarser levels re-aggregate that already-tiny result — the standard
    rollup optimization, no second scan."""
    from cattle_ray.stages.aggregates import partial_count

    import ray.data as rd

    from cattle_ray.stages.aggregates import grouped_sums

    fine = partial_count(_docs(sf_dir, ["source", "lang"]),
                         ["source", "lang"]).materialize()

    def _tbl(src, lang, n) -> pa.Table:
        return pa.table({
            "source": pa.array(src, pa.string()),
            "lang": pa.array(lang, pa.string()),
            "n_docs": pa.array(n, pa.int64()),
        })

    lvl2 = fine.map_batches(
        lambda b: _tbl(b["source"], b["lang"],
                       pc.cast(b["n"], pa.int64())),
        batch_format="pyarrow")
    lvl1 = grouped_sums(fine, ["source"], ["n"]).map_batches(
        lambda b: _tbl(b["source"], [None] * len(b), b["sum_n"]),
        batch_format="pyarrow")
    total = fine.sum("n")  # small aggregate — scalar by design
    lvl0 = rd.from_arrow(_tbl([None], [None], [int(total)]))
    return lvl2.union(lvl1).union(lvl0)


def q_events_value_ntile(sf_dir: str):
    """Equi-depth quantile binning: exact distributed quartile boundaries
    (2-pass histogram selection, no global sort), broadcast once, one
    vectorized comparison pass to bucket every event."""
    from cattle_ray.stages.quantiles import quantile_disc

    ev = _read(sf_dir, "events", ["event_id", "value"], rows_per_block=20000)
    qd = quantile_disc(ev, "value", [0.25, 0.5, 0.75])
    b1, b2, b3 = qd[0.25], qd[0.5], qd[0.75]

    def bucket(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        bk = np.where(v <= b1, 1, np.where(v <= b2, 2,
                                           np.where(v <= b3, 3, 4)))
        return pa.table({"event_id": b["event_id"],
                         "bucket": pa.array(bk.astype(np.int64))})

    return ev.map_batches(bucket, batch_format="pyarrow")


def q_doc_boilerplate(sf_dir: str):
    """CCNet-style boilerplate removal: every occurrence of any 10-word
    chunk repeated ≥2× corpus-wide is dropped (not kept-first — repeated
    content is noise in every copy), docs rebuilt from surviving chunks."""
    from cattle_ray.stages.dedup import boilerplate_remove

    return boilerplate_remove(_docs(sf_dir, ["doc_id", "text"]),
                              min_repeats=2)


def q_kg_snapshot_diff(sf_dir: str):
    """Replace-on-reupload as an auditable delta: two crawl generations of
    the KG (old = docs not divisible by 5, new = docs not divisible by 7)
    diffed exactly in one bucketed shuffle — only added/removed quads come
    out. Mirrors the reference's dataset-replacement semantic
    (src/cattle.py:113-146) at a scale where shipping the full new
    generation downstream is not an option."""
    from cattle_ray.stages.dedup import snapshot_diff

    trip = q_kg_csvw_triples(sf_dir).map_batches(
        lambda b: b.append_column("_did", pc.cast(pc.replace_substring_regex(
            b["subj"], r"^.*?/doc/(\d+)#.*$", r"\1"), pa.int64())),
        batch_format="pyarrow",
    ).materialize()  # consumed by both snapshot filters
    def keep_mod(m: int):
        def f(b: pa.Table) -> pa.Table:
            did = b["_did"].to_numpy(zero_copy_only=False)
            return b.filter(pa.array(did % m != 0))
        return f

    old = trip.map_batches(keep_mod(5), batch_format="pyarrow")
    new = trip.map_batches(keep_mod(7), batch_format="pyarrow")
    return snapshot_diff(old, new, QUAD_COLS)


def q_kg_store_query(sf_dir: str):
    """S8/O1 end-to-end: materialize the triples into the subject-hash-
    partitioned sorted Parquet store, then answer a (?, pred, ?) pattern via
    :func:`match_triples` (filter pushed into the parallel scan). The oracle
    checks the WHOLE write→read→filter roundtrip."""
    import tempfile

    from cattle_ray.sources.triple_sink import (
        match_triples, write_triples_hash_partitioned)

    out_dir = tempfile.mkdtemp(prefix="kg_store_", dir="/tmp")
    write_triples_hash_partitioned(q_kg_csvw_triples(sf_dir), out_dir,
                                   num_partitions=8)
    d = match_triples(out_dir, pred=EX + "rank")
    return d.map_batches(lambda b: b.select(QUAD_COLS), batch_format="pyarrow")


def q_kg_store_timetravel(sf_dir: str):
    """Generation-aware store time travel end to end: three tracked
    mutations (merge the non-rank triples → gen 1, merge the rank triples
    → gen 2, DELETE the entity triples → gen 3), then read AS OF
    generation 1 — the partition-local replay must both subtract the
    gen-2 adds and resurrect the gen-3 deletes, reproducing exactly the
    non-rank triple set. Oracle-checkable because the snapshot is a pure
    function of the base tables."""
    import tempfile

    from cattle_ray.sources.triple_sink import (
        delete_triples, merge_triples_hash_partitioned, read_store_asof)

    out_dir = tempfile.mkdtemp(prefix="kg_tt_", dir="/tmp")
    triples = q_kg_csvw_triples(sf_dir)
    rank_p, ent_p = EX + "rank", EX + "entity"
    merge_triples_hash_partitioned(
        triples.filter(expr=f"pred != '{rank_p}'"), out_dir,
        num_partitions=8, track_generations=True)
    merge_triples_hash_partitioned(
        triples.filter(expr=f"pred == '{rank_p}'"), out_dir,
        num_partitions=8, track_generations=True)
    delete_triples(out_dir, pred=ent_p)
    d = read_store_asof(out_dir, 1)
    return d.map_batches(lambda b: b.select(QUAD_COLS), batch_format="pyarrow")


def q_kg_graph_stats(sf_dir: str):
    """G3 graph summary: triple count + exact distinct subjects/preds/objs
    of the materialized KG (bucketed distinct, no driver-side sets)."""
    from cattle_ray.stages.aggregates import distinct

    triples = q_kg_csvw_triples(sf_dir).materialize()
    return pa.table({
        "n_triples": pa.array([triples.count()], pa.int64()),
        "n_subjects": pa.array([distinct(triples, ["subj"]).count()], pa.int64()),
        "n_predicates": pa.array([distinct(triples, ["pred"]).count()], pa.int64()),
        "n_objects": pa.array([distinct(triples, ["obj"]).count()], pa.int64()),
    })


def q_events_users_approx(sf_dir: str):
    """HLL approximate distinct users (mergeable sketch, zero shuffle —
    rows-only: the estimate is approximate by design; accuracy is
    pytest-asserted at 3%)."""
    from cattle_ray.stages.sketches import approx_distinct

    ds = _read(sf_dir, "events", ["user_id"], rows_per_block=20000)
    return pa.table({"approx_users": pa.array([approx_distinct(ds, "user_id")],
                                              pa.int64())})


def q_events_quantiles_approx(sf_dir: str):
    """DDSketch-style mergeable quantiles (rows-only: approximate by
    design, 1% relative-error guarantee pytest-asserted): one streaming
    pass, sparse log-bucket partials sum-merge on the driver, zero
    shuffle — the 10^12-row complement to the exact two-pass path."""
    from cattle_ray.stages.sketches import dd_quantiles

    ds = _read(sf_dir, "events", ["value"], rows_per_block=20000)
    qs = [0.25, 0.5, 0.9, 0.99]
    est = dd_quantiles(ds, "value", qs)
    return pa.table({"q": pa.array(qs, pa.float64()),
                     "est": pa.array([est[q] for q in qs], pa.float64())})


def q_events_user_quantiles_approx(sf_dir: str):
    """Grouped DDSketch quantiles (rows-only, 1%-relative-error pytest-
    asserted): per-user p50/p90 of event values WITHOUT a per-key sort —
    sparse histogram rows shuffle once through the map-side-combined sum,
    never the values."""
    from cattle_ray.stages.sketches import dd_quantiles_by_key

    ds = _read(sf_dir, "events", ["user_id", "value"], rows_per_block=20000)
    return dd_quantiles_by_key(ds, "user_id", "value", [0.5, 0.9])


def q_events_reach_by_type(sf_dir: str):
    """Grouped HLL — approx distinct users PER event type (the per-domain
    reach query at 10^12 rows): the shuffle moves one 4 KB register blob
    per (type, block), never a row. Rows-only by design (the estimate has
    no SQL equal); accuracy pytest-asserted at 5%."""
    from cattle_ray.stages.sketches import approx_distinct_by_key

    ds = _read(sf_dir, "events", ["event_type", "user_id"],
               rows_per_block=20000)
    return approx_distinct_by_key(ds, "event_type", "user_id")


def q_events_user_quantiles(sf_dir: str):
    """Per-user exact median + p90 of event values (grouped quantiles)."""
    from cattle_ray.stages.quantiles import grouped_quantile_disc

    ds = _read(sf_dir, "events", ["user_id", "value"], rows_per_block=20000)
    return grouped_quantile_disc(ds, "user_id", "value", [0.5, 0.9])


def q_doc_term_stats(sf_dir: str):
    """TF/DF corpus statistics (TF-IDF building block) — exact integers,
    one string-key co-partitioned join tf ⋈ df."""
    from cattle_ray.stages.textstats import doc_term_stats

    return doc_term_stats(_docs(sf_dir, ["doc_id", "text"]))


def q_doc_tfidf(sf_dir: str):
    """True TF-IDF product ranking (not the lexicographic (tf, df) order of
    doc_top_terms): score = tf × ((10⁶·N) // df) — idf as an integer-scaled
    reciprocal-df, monotone in 1/df, exact int64 end to end, so the product
    ranking is deterministic and the oracle is plain integer SQL (no float
    log). One co-partitioned tf⋈df join + one bucketed per-doc top-k."""
    from cattle_ray.stages.aggregates import grouped_topk

    n = _docs(sf_dir, ["doc_id"]).count()
    scored = q_doc_term_stats(sf_dir).map_batches(
        lambda b: pa.table({
            "doc_id": b["doc_id"], "term": b["term"],
            "score": pc.multiply(
                pc.cast(b["tf"], pa.int64()),
                pc.divide(pa.scalar(1_000_000 * n, pa.int64()),
                          pc.cast(b["df"], pa.int64()))),
        }), batch_format="pyarrow")
    return grouped_topk(scored, "doc_id", ["score", "term"], [False, True],
                        5, rank_col="rank")


def q_multimodal_decode(sf_dir: str):
    """Multimodal plumbing: deterministic binary image column → decode by
    one driver-built ImageDecoder mapped as tasks → typed metadata (payload
    parse is real; codec is the CRIM stub)."""
    from cattle_ray.stages.multimodal import ImageDecoder, add_fake_images

    return (
        _docs(sf_dir, ["doc_id"])
        .map_batches(add_fake_images, batch_format="pyarrow")
        .map_batches(ImageDecoder(), batch_format="pyarrow", batch_size=256)
        .map_batches(
            lambda b: b.select(["doc_id", "width", "height", "channels", "n_bytes"]),
            batch_format="pyarrow",
        )
    )


def q_kg_link_graph(sf_dir: str):
    """Web-link-graph construction — the link-analysis precursor every
    crawled-corpus KG needs: parse ``<a href>`` anchors out of raw page html
    (per-doc precompiled-regex scan, same M6 extraction family) and rank
    pages by in-degree. The wide html payload never leaves the extraction
    kernel; only (src, dst) url pairs feed the map-side-combined count, and
    the shuffle moves one row per (dst, batch). Oracle: link targets are the
    fixture's pure doc_id arithmetic (pages.doc_link_dsts), re-derived in SQL
    with a lateral generate_series."""
    from cattle_ray.stages.aggregates import top_k_counts
    from cattle_ray.stages.extract import extract_links_batch

    links = _pages(sf_dir).map_batches(extract_links_batch,
                                       batch_format="pyarrow")
    top = top_k_counts(links, ["dst"], k=20)
    return top.map_batches(
        lambda b: pa.table({"dst": b["dst"],
                            "n": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow")


def q_lineitem_avg_qty(sf_dir: str):
    """TPC-H-Q17-shaped correlated-aggregate filter: total revenue of line
    items whose quantity is below 20% of their part's average quantity —
    the "join a fact table against its own per-group aggregate" pattern.
    Scale discipline: ONE shuffle. Quantity has a small integer domain, so
    map-side partials group by (partkey, qty-value) — at most |qty domain|
    rows per partkey per batch cross the exchange, never line items. The
    bucket finish collapses partials, forms each part's (sum_qty, n) from
    the same collapsed rows (Σ q·n / Σ n), applies the avg filter as exact
    integer cross-multiplication (q < 0.2·sq/n ⇔ 5·q·n < sq — no float
    threshold), and emits ONE partial-total row per reducer. Result =
    sum(price)/7.0 as the single mirrored float division."""
    import pandas as pd

    from cattle_ray.stages.aggregates import add_key_bucket
    from cattle_ray.stages.exchange import bucket_shuffle

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"],
               rows_per_block=100000)

    def prep(b: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(b["l_quantity"],
                             round_mode="half_towards_infinity"), pa.int64())
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        t = pa.table({"l_partkey": b["l_partkey"], "q": q, "pc_": cents})
        out = t.group_by(["l_partkey", "q"]).aggregate(
            [("pc_", "sum"), ([], "count_all")])
        return out.rename_columns(["l_partkey", "q", "pcs", "pn"])

    partials = li.map_batches(prep, batch_format="pyarrow").map_batches(
        lambda b: add_key_bucket(b, ["l_partkey"], 32),
        batch_format="pyarrow")

    def finish(g: "pd.DataFrame") -> "pd.DataFrame":
        t = g.groupby(["l_partkey", "q"], sort=False)[["pcs", "pn"]] \
            .sum().reset_index()
        per_part = t.assign(qn=t["q"] * t["pn"]) \
            .groupby("l_partkey", sort=False)[["qn", "pn"]].sum()
        sq = per_part["qn"].reindex(t["l_partkey"]).to_numpy()
        n = per_part["pn"].reindex(t["l_partkey"]).to_numpy()
        keep = 5 * t["q"].to_numpy() * n < sq
        return pd.DataFrame({"pt": [int(t.loc[keep, "pcs"].sum())]})

    parts = bucket_shuffle(partials, finish, 32, "pandas")
    total = parts.sum("pt") or 0
    return pd.DataFrame({"avg_yearly": [total / 700.0]})


def q_kg_link_prediction(sf_dir: str):
    """Link prediction over the doc→entity mention graph: top-20 entity
    pairs by Jaccard similarity of their neighbor (document) sets — the
    common-neighbors family of KG-completion scores. Neighbor sets come
    from the distinct (doc, entity) edges of the materialized triples;
    common counts are generated INSIDE each doc's join group (~k²/2 per
    doc, never |entities|²) and combined map-side; per-entity degrees are
    a vocabulary-bounded census broadcast once (the same adaptive pattern
    as triangles — above the broadcast bound, attach degrees with the
    co-partitioned join instead). Jaccard = c/(da+db−c): exact int64
    inputs, ONE float division mirrored op-for-op in SQL."""
    import ray

    from cattle_ray.stages.aggregates import distinct, partial_count
    from cattle_ray.stages.joins import hash_join

    def doc_ent(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["pred"], EX + "entity"))
        # neighbor-set key is the PAGE, not the per-table-row subject:
        # strip the '#t0/rN' fragment so one doc's entities co-occur
        doc = pc.replace_substring_regex(t["subj"], "#.*$", "")
        return pa.table({"subj": doc, "obj": t["obj"]})

    ent = q_kg_csvw_triples(sf_dir).map_batches(doc_ent,
                                                batch_format="pyarrow")
    edges = distinct(ent, ["subj", "obj"]).materialize()  # consumed twice

    right = edges.map_batches(
        lambda b: pa.table({"subj_b": b["subj"], "eb": b["obj"]}),
        batch_format="pyarrow")
    pairs = hash_join(edges, right, "subj", "subj_b").map_batches(
        lambda b: b.filter(pc.less(b["obj"], b["eb"]))
        .select(["obj", "eb"]).rename_columns(["ea", "eb"]),
        batch_format="pyarrow")
    common = partial_count(pairs, ["ea", "eb"])

    # per-entity degree census: usually |entity vocabulary| rows (bounded
    # by the alias dictionary, not the corpus) → broadcast once via
    # ray.put; above the bound, attach both degrees with two
    # co-partitioned joins instead (same adaptive pattern as triangles)
    deg_ds = partial_count(edges, ["obj"]).materialize()
    if deg_ds.count() <= LINKPRED_DEG_BROADCAST_MAX:
        deg = deg_ds.to_pandas()
        ents_np = deg["obj"].to_numpy()
        order = np.argsort(ents_np)  # sort the census ONCE, before put
        deg_ref = ray.put((ents_np[order], deg["n"].to_numpy()[order]))

        def score(b: pa.Table) -> pa.Table:
            import numpy as np

            se, sd = ray.get(deg_ref)
            c = pc.cast(b["n"], pa.int64()).to_numpy(zero_copy_only=False)
            da = sd[np.searchsorted(se,
                                    b["ea"].to_numpy(zero_copy_only=False))]
            db = sd[np.searchsorted(se,
                                    b["eb"].to_numpy(zero_copy_only=False))]
            union = da + db - c
            return pa.table({
                "ea": b["ea"], "eb": b["eb"],
                "common": pa.array(c),
                "jac": pa.array(c.astype(np.float64)
                                / union.astype(np.float64)),
            })

        scored = common.map_batches(score, batch_format="pyarrow")
    else:
        da_ds = deg_ds.map_batches(
            lambda b: pa.table({"ent_a": b["obj"],
                                "da": pc.cast(b["n"], pa.int64())}),
            batch_format="pyarrow")
        db_ds = deg_ds.map_batches(
            lambda b: pa.table({"ent_b": b["obj"],
                                "db": pc.cast(b["n"], pa.int64())}),
            batch_format="pyarrow")
        j = hash_join(hash_join(common, da_ds, "ea", "ent_a"),
                      db_ds, "eb", "ent_b")

        def score_joined(b: pa.Table) -> pa.Table:
            import numpy as np

            c = pc.cast(b["n"], pa.int64()).to_numpy(zero_copy_only=False)
            da = b["da"].to_numpy(zero_copy_only=False)
            db = b["db"].to_numpy(zero_copy_only=False)
            union = da + db - c
            return pa.table({
                "ea": b["ea"], "eb": b["eb"],
                "common": pa.array(c),
                "jac": pa.array(c.astype(np.float64)
                                / union.astype(np.float64)),
            })

        scored = j.map_batches(score_joined, batch_format="pyarrow")
    return scored.sort(["jac", "ea", "eb"],
                       descending=[True, False, False]).limit(20)


def q_kg_web_pagerank(sf_dir: str):
    """The web-centrality composition end to end: raw html → anchor
    extraction → PageRank over the REAL extracted page→page link graph
    (not the mention graph — this is the classic crawl ranking loop).
    Same execution discipline as kg_pagerank: vectorized 64-bit node ids,
    size-adaptive solve, ranks joined back to urls so the output is
    hash-scheme-independent. Oracle: the 5-iteration power method unrolled
    in SQL over the arithmetic-derived link edges; both sides round to 6
    decimals (float partial-sum order differs at the 1e-16 level)."""
    from cattle_ray.pipelines.web import rank_pages

    ranked = rank_pages(_pages(sf_dir), iters=5)
    return ranked.map_batches(
        lambda b: pa.table({"node": b["url"], "rank": pc.round(b["rank"], 6)}),
        batch_format="pyarrow")


def q_kg_dead_links(sf_dir: str):
    """Dead-link detection (crawl hygiene): anchors whose target page is
    not in the crawlable ('en') corpus, ranked by how many pages point at
    them — the anti-join of the extracted link stream against a
    corpus-derived key set (adaptive broadcast/distributed path inside
    semi_join). Only (src, dst) url pairs move; html never shuffles."""
    from cattle_ray.pages import DOC_URL_PREFIX
    from cattle_ray.stages.aggregates import top_k_counts
    from cattle_ray.stages.extract import extract_links_batch
    from cattle_ray.stages.joins import semi_join

    links = _pages(sf_dir).map_batches(extract_links_batch,
                                       batch_format="pyarrow")
    # lang predicate pushed to the READ (row-group pruning) — only the
    # crawlable subset's ids ever leave storage
    live = _read(sf_dir, "documents", ["doc_id"], rows_per_block=20000,
                 filter=(pc.field("lang") == "en")).map_batches(
        lambda b: pa.table({"url": pc.binary_join_element_wise(
            DOC_URL_PREFIX, pc.cast(b["doc_id"], pa.string()), "")}),
        batch_format="pyarrow")
    dead = semi_join(links, live, "dst", "url", anti=True)
    top = top_k_counts(dead, ["dst"], k=20)
    return top.map_batches(
        lambda b: pa.table({"dst": b["dst"],
                            "n": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow")


def q_embed_label_centroids(sf_dir: str):
    """Per-label exact centroids over the int8-QUANTIZED embedding corpus —
    the class-prototype statistic (nearest-centroid classification, drift
    monitoring), oracle-checkable because quantization makes every vector
    component an exact integer (same arithmetic as embed_quantize:
    f32→f64 exact casts, scale = 127/max|x|, floor(x·scale + 0.5)).
    Partial per batch: per-label (Σq, n) — one (label, dim) row per label
    per batch crosses the shuffle, never vectors; centroid = Σq/n is the
    ONE mirrored float division over exact int64 sums."""
    from cattle_ray.stages.aggregates import grouped_sums

    ds = _read(sf_dir, "embeddings", ["label", "embedding"],
               rows_per_block=1000)

    def partial(b: pa.Table) -> pa.Table:
        empty = pa.table({"label": pa.array([], pa.int64()),
                          "dim": pa.array([], pa.int64()),
                          "s": pa.array([], pa.int64()),
                          "c": pa.array([], pa.int64())})
        if len(b) == 0:
            return empty
        from cattle_ray.stages.similarity import vec_matrix

        vecs = vec_matrix(b["embedding"])
        amax = np.maximum(np.abs(vecs).max(axis=1), 1e-30)
        q = np.floor(vecs * (127.0 / amax)[:, None] + 0.5).astype(np.int64)
        labs = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        ul, inv = np.unique(labs, return_inverse=True)
        d = q.shape[1]
        sums = np.zeros((len(ul), d), np.int64)
        np.add.at(sums, inv, q)
        cnt = np.bincount(inv).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(ul, d)),
            "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64),
                                    len(ul))),
            "s": pa.array(sums.reshape(-1)),
            "c": pa.array(np.repeat(cnt, d)),
        })

    agg = grouped_sums(ds.map_batches(partial, batch_format="pyarrow"),
                       ["label", "dim"], ["s", "c"])
    return agg.map_batches(
        lambda b: pa.table({
            "label": b["label"], "dim": b["dim"],
            "centroid": pc.divide(pc.cast(b["sum_s"], pa.float64()),
                                  pc.cast(b["sum_c"], pa.float64()))}),
        batch_format="pyarrow")


def q_lineitem_q6_revenue(sf_dir: str):
    """TPC-H-Q6-shaped forecast scan: revenue delta from discounted small
    orders — the pure filter+sum whose entire cost should be the READ.
    Both predicates push into the parquet scan (row-group pruning); the
    per-batch kernel reduces to one exact int64 partial per block
    (price·discount in 1e-4-dollar fixed point), and the driver sees only
    those partials. ONE final mirrored float division."""
    import pandas as pd

    li = _read(sf_dir, "lineitem", ["l_extendedprice", "l_discount"],
               rows_per_block=100000,
               filter=((pc.field("l_discount") >= 0.05)
                       & (pc.field("l_discount") <= 0.07)
                       & (pc.field("l_quantity") < 24)))

    def part(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        dpct = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0),
                                round_mode="half_towards_infinity"),
                       pa.int64())
        e4 = pc.sum(pc.multiply(cents, dpct))
        return pa.table({"pe4": pa.array(
            [e4.as_py() if e4.is_valid else 0], pa.int64())})

    total = li.map_batches(part, batch_format="pyarrow").sum("pe4") or 0
    return pd.DataFrame({"revenue": [total / 10000.0]})


def q_kg_reciprocal_links(sf_dir: str):
    """Mutual-link detection (the reciprocity signal link-spam and
    community analyses start from): page pairs that link to EACH OTHER.
    One composite-key self-join of the distinct edge set against its
    reversal — both sides are (src, dst) url pairs, the join key is the
    value tuple, and the a<b filter keeps each mutual pair once."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.extract import extract_links_batch
    from cattle_ray.stages.joins import hash_join

    links = distinct(
        _pages(sf_dir).map_batches(extract_links_batch,
                                   batch_format="pyarrow"),
        ["src", "dst"]).materialize()  # consumed as both sides
    rev = links.map_batches(
        lambda b: pa.table({"r_src": b["dst"], "r_dst": b["src"]}),
        batch_format="pyarrow")
    j = hash_join(links, rev, ["src", "dst"], ["r_src", "r_dst"])
    return j.map_batches(
        lambda b: pa.table({"a": b["src"], "b": b["dst"]}).filter(
            pc.less(b["src"], b["dst"]).combine_chunks()),
        batch_format="pyarrow")


def q_doc_compression(sf_dir: str):
    """Per-doc zlib compression ratio (rows-only: zlib isn't SQL — the
    kernel is deterministic and pytest-pinned with planted repetitive vs
    random docs). One streaming pass, no shuffle."""
    from cattle_ray.stages.textstats import compression_ratio_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        compression_ratio_batch, batch_format="pyarrow")


def q_kg_path2_counts(sf_dir: str):
    """2-hop path counts over the extracted link graph (the A(G)² /
    co-citation precursor): for each (a, c) page pair, how many distinct
    intermediate pages b carry a→b→c. ONE co-partitioned self-join of the
    distinct edge set on the hop node, one map-side-combined count, exact
    top-20 by (paths DESC, a, c)."""
    from cattle_ray.stages.aggregates import distinct, top_k_counts
    from cattle_ray.stages.extract import extract_links_batch
    from cattle_ray.stages.joins import hash_join

    links = distinct(
        _pages(sf_dir).map_batches(extract_links_batch,
                                   batch_format="pyarrow"),
        ["src", "dst"]).materialize()  # both sides of the self-join
    right = links.map_batches(
        lambda b: pa.table({"mid": b["src"], "c": b["dst"]}),
        batch_format="pyarrow")
    hops = hash_join(links, right, "dst", "mid").map_batches(
        lambda b: pa.table({"a": b["src"], "c": b["c"]}),
        batch_format="pyarrow")
    top = top_k_counts(hops, ["a", "c"], k=20)
    return top.map_batches(
        lambda b: pa.table({"a": b["a"], "c": b["c"],
                            "paths": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow")


def q_kg_communities(sf_dir: str):
    """Community detection: 3 rounds of synchronous label propagation over
    the (undirected) doc↔entity mention graph — every node takes its
    neighbors' most frequent label, ties to the smallest. Deterministic by
    construction (count argmax with a total tie order), so the full
    (node, label) table oracle-checks against the SQL unroll."""
    from cattle_ray.stages.graph import label_propagation

    def to_edges(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["pred"], EX + "entity"))
        return pa.table({"s": t["subj"], "o": t["obj"]})

    edges = q_kg_csvw_triples(sf_dir).map_batches(to_edges,
                                                  batch_format="pyarrow")
    return label_propagation(edges, iters=3)


def q_orders_priority_exists(sf_dir: str):
    """TPC-H-Q4-shaped EXISTS semi-join: order count per priority class,
    counting only orders with at least one deeply-discounted line item.
    The key side (distinct discounted orderkeys) is built with the
    l_discount predicate pushed to the READ (row-group pruning), collapsed
    to distinct keys map-side, then orders flow through the adaptive
    semi-join (broadcast under the cap, distributed bucketed above) and
    one map-side-combined count per priority finishes. Exact integers
    everywhere — no float in the result."""
    from cattle_ray.stages.aggregates import distinct, partial_count
    from cattle_ray.stages.joins import semi_join

    disc = _read(sf_dir, "lineitem", ["l_orderkey"], rows_per_block=100000,
                 filter=(pc.field("l_discount") >= 0.05))
    keys = distinct(disc, ["l_orderkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"],
                   rows_per_block=50000)
    hit = semi_join(orders, keys, "o_orderkey", "l_orderkey")
    counts = partial_count(hit, ["o_orderpriority"])
    return counts.map_batches(
        lambda b: pa.table({"o_orderpriority": b["o_orderpriority"],
                            "n": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow").sort("o_orderpriority")


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001 (driver smoke check)."""
    return q_kg_pipeline("/root/testdata/sf0.001")


def q_kg_adjacency(sf_dir: str):
    """Adjacency-list materialization of the KG (north-star "adjacency
    tables" layout): one row per subject — out-degree + deterministically
    ordered 'pred obj' adjacency string. One bucketed subject shuffle."""
    from cattle_ray.stages.graph import adjacency_lists

    return adjacency_lists(q_kg_csvw_triples(sf_dir))


def q_doc_chunk_dedup(sf_dir: str):
    """Sub-document exact dedup: 10-word-window chunks, keep the globally
    first occurrence of each distinct chunk (passage/boilerplate dedup)."""
    from cattle_ray.stages.dedup import chunk_exact_dedup

    return chunk_exact_dedup(_docs(sf_dir, ["doc_id", "text"]), chunk_words=10)


def q_doc_incremental_dedup(sf_dir: str):
    """Incremental ingest dedup against a PERSISTED fingerprint store:
    the even-doc_id half plays the already-ingested corpus (its 8-word-
    prefix fingerprints written to a Parquet store), the odd half is the
    incoming batch — keep only rows whose fingerprint is new. Bloom
    prefilter (streamed from the store) + exact verify of suspects → the
    result is EXACT, so the whole write→bloom→verify roundtrip is
    SQL-checkable."""
    import tempfile

    from cattle_ray.stages.dedup import (
        dedup_against_store, md5_hex, write_fingerprint_store)

    def add_fp(b: pa.Table) -> pa.Table:
        import pandas as pd

        s = b["text"].to_pandas().fillna("").str.strip()
        pref = s.str.split().str[:8].str.join(" ")
        fp = pa.array([md5_hex(p) for p in pref], pa.string())
        return pa.table({"doc_id": b["doc_id"], "fp": fp})

    fps = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        add_fp, batch_format="pyarrow").materialize()
    store = fps.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 0)),
        batch_format="pyarrow")
    incoming = fps.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b["doc_id"], 1), 1)),
        batch_format="pyarrow")
    store_path = tempfile.mkdtemp(prefix="fp_store_", dir="/tmp")
    write_fingerprint_store(store, store_path)
    return dedup_against_store(incoming, store_path, fp_rate=0.01)


def q_doc_filter_pipeline(sf_dir: str):
    """Curation funnel (C4/Gopher-style): lang whitelist pushed into the
    Parquet read (row groups pruned before bytes move), then one streaming
    pass computing vectorized quality + repetition signals and applying the
    keep thresholds — no shuffle anywhere."""
    import pyarrow.dataset as pads

    from cattle_ray.stages.textstats import quality_batch, repetition_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"],
               rows_per_block=500, filter=pads.field("lang").isin(["en", "de"]))

    def funnel(b: pa.Table) -> pa.Table:
        q = quality_batch(b)
        r = repetition_batch(b)  # row-aligned with b by construction
        out = pa.table({
            "doc_id": b["doc_id"], "lang": b["lang"],
            "q_n_tokens": q["q_n_tokens"],
            "dup_token_frac": r["dup_token_frac"],
        })
        keep = pc.and_(pc.greater_equal(out["q_n_tokens"], 45),
                       pc.less_equal(out["dup_token_frac"], 0.58))
        return out.filter(keep)

    return ds.map_batches(funnel, batch_format="pyarrow")


def q_doc_collocations(sf_dir: str):
    """Corpus collocation mining: top-100 bigrams by lift (log-free PMI
    core — one IEEE division of exact int64 products, bit-deterministic)."""
    from cattle_ray.stages.textstats import collocation_lift

    return collocation_lift(_docs(sf_dir, ["doc_id", "text"]), min_count=3, k=100)


def q_kg_entity_resolution(sf_dir: str):
    """Entity resolution over the KG: subjects sharing a name literal are
    blocked together, candidate pairs form a binary tree per block, the
    fused distributed connected-components loop resolves clusters, and each
    subject maps to its cluster's lexicographically smallest member. The
    oracle (min(subj) per name group) checks the WHOLE blocking→pairs→CC→
    canonical chain end-to-end."""
    from cattle_ray.stages.link import entity_resolution

    named = q_kg_csvw_triples(sf_dir).map_batches(
        lambda b: b.filter(pc.equal(b["pred"], EX + "name")).select(["subj", "obj"]),
        batch_format="pyarrow",
    )
    return entity_resolution(named, "subj", "obj")


def q_embed_kmeans(sf_dir: str):
    """Distributed embedding clustering (SemDeDup-style primitive):
    full-corpus Lloyd refinement with map-side partial sums — per iteration
    the shuffle moves n_clusters rows per batch, never a vector. Rows-only:
    iterative float algorithm with no SQL equivalent; numpy-parity and
    layout-invariance are pytest-checked."""
    from cattle_ray.stages.aggregates import partial_count
    from cattle_ray.stages.similarity import kmeans_distributed

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"],
               rows_per_block=4000)
    _cent, assigns = kmeans_distributed(ds, n_clusters=8, iters=3)
    sizes = partial_count(assigns, ["cluster_id"])
    return sizes.sort("cluster_id")


def q_embed_semantic_dedup(sf_dir: str):
    """SemDeDup-style semantic dedup: distributed k-means clustering, then
    per-cluster keep-first cosine near-dup removal (all-pairs confined to
    one cluster per group — one matmul, no Python pair loop). Rows-only:
    iterative float clustering has no SQL equivalent; planted-dup recall
    and layout invariance are pytest-checked."""
    from cattle_ray.stages.similarity import semantic_dedup

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"],
               rows_per_block=4000)
    out = semantic_dedup(ds, threshold=0.99, n_clusters=8, iters=2)
    return out.map_batches(lambda b: b.select(["vec_id"]),
                           batch_format="pyarrow")


def q_doc_chunk_rebuild(sf_dir: str):
    """Chunk-level dedup producing a USABLE corpus: kept windows are
    reassembled per doc in order (fully-duplicated docs drop out)."""
    from cattle_ray.stages.dedup import chunk_dedup_rebuild

    return chunk_dedup_rebuild(_docs(sf_dir, ["doc_id", "text"]),
                               chunk_words=10)


def q_events_props_sum(sf_dir: str):
    """F7 JSON scalar kernel over the events ``props`` column: vectorized
    flat-JSON integer extraction (one RE2 pass) + map-side-combined
    per-type sum/count — no per-row json.loads anywhere."""
    from cattle_ray.stages.aggregates import grouped_sums
    from cattle_ray.stages.textstats import json_int_field_batch

    ds = _read(sf_dir, "events", ["event_type", "props"], rows_per_block=20000)

    def k_cols(b: pa.Table) -> pa.Table:
        # an absent k adds 0 to sum_k and is not counted in n_k (SQL count)
        k = json_int_field_batch(b, "props", "k")["k"]
        return pa.table({"event_type": b["event_type"],
                         "k": pc.fill_null(k, 0),
                         "has_k": pc.cast(pc.is_valid(k), pa.int64())})

    def finish(b: pa.Table) -> pa.Table:
        n_k = b["sum_has_k"]
        # SQL sum over no k at all is NULL, not 0
        sum_k = pc.if_else(pc.equal(n_k, 0), pa.scalar(None, pa.int64()),
                           b["sum_k"])
        return pa.table({"event_type": b["event_type"], "sum_k": sum_k,
                         "n_k": n_k})

    sums = grouped_sums(ds.map_batches(k_cols, batch_format="pyarrow"),
                        ["event_type"], ["k", "has_k"])
    return sums.map_batches(finish, batch_format="pyarrow")


def q_doc_mixture(sf_dir: str):
    """Training data mixture: English docs at epoch weight 2.5 (every row
    twice + deterministically-hashed half again), non-English at 0.25 —
    pure per-batch expansion, no shuffle, reproducible at any parallelism;
    the md5-hex threshold mirrors exactly in SQL."""
    import pyarrow.dataset as pads

    from cattle_ray.stages.sampling import mix_corpora

    en = _read(sf_dir, "documents", ["doc_id", "lang"], rows_per_block=2000,
               filter=pads.field("lang") == "en")
    rest = _read(sf_dir, "documents", ["doc_id", "lang"], rows_per_block=2000,
                 filter=pads.field("lang") != "en")
    out = mix_corpora([("en", en, 2.5), ("rest", rest, 0.25)], "doc_id")
    return out.map_batches(lambda b: b.select(["doc_id", "src", "rep"]),
                           batch_format="pyarrow")


def q_doc_pack_sequences(sf_dir: str):
    """Sequence packing: docs → 512-token training sequences by global
    prefix sum in doc_id order (text dropped before the scan — only 16 B/row
    metadata reaches the window)."""
    from cattle_ray.stages.sampling import pack_sequences

    return pack_sequences(_docs(sf_dir, ["doc_id", "text"]), "doc_id",
                          "text", 512)


def q_events_funnel(sf_dir: str):
    """Ordered-step funnel: per user the first view, the first click
    strictly after it, the first error after that — one bucketed user-key
    shuffle, per-step vectorized chain inside the bucket."""
    from cattle_ray.stages.windows import funnel

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"],
               rows_per_block=20000)
    return funnel(ds, ["view", "click", "error"])


def q_events_running_sum(sf_dir: str):
    """Per-user running total of event value (SUM OVER (PARTITION BY user
    ORDER BY ts, event_id)) — exact int64 cents both sides, so the window
    primitive is bit-deterministic and oracle-checkable."""
    from cattle_ray.stages.windows import grouped_running_sum

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"],
               rows_per_block=20000)

    def to_cents(b: pa.Table) -> pa.Table:
        # half_towards_infinity = half-away-from-zero = DuckDB round()
        # (Arrow defaults to half_to_even — only differs on exact .5)
        cents = pc.cast(pc.round(pc.multiply(b["value"], 100.0),
                                 round_mode="half_towards_infinity"), pa.int64())
        return pa.table({"event_id": b["event_id"], "ts": b["ts"],
                         "user_id": b["user_id"], "cents": cents})

    out = grouped_running_sum(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        key="user_id", ts="ts", val="cents", out="run_cents",
        order_tiebreak="event_id")
    return out.map_batches(
        lambda b: b.select(["event_id", "user_id", "run_cents"]),
        batch_format="pyarrow")


def q_events_moving_avg(sf_dir: str):
    """Per-user 3-row moving average of spend (AVG OVER ... ROWS BETWEEN 2
    PRECEDING AND CURRENT ROW) via cumsum-diff — exact int64 window sums +
    counts, the average as their one float division, mirrored bit-for-bit
    (never SQL AVG(): its internal accumulator isn't spec'd)."""
    from cattle_ray.stages.windows import grouped_moving_avg

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"],
               rows_per_block=20000)

    def to_cents(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["value"], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        return pa.table({"event_id": b["event_id"], "ts": b["ts"],
                         "user_id": b["user_id"], "cents": cents})

    out = grouped_moving_avg(
        ds.map_batches(to_cents, batch_format="pyarrow"),
        key="user_id", ts="ts", val="cents", window=3,
        order_tiebreak="event_id")
    return out.map_batches(
        lambda b: b.select(["event_id", "user_id", "win_sum", "win_n",
                            "mov_avg"]), batch_format="pyarrow")


def q_kg_degree_distribution(sf_dir: str):
    """Count-of-counts: the out-degree histogram of the KG (the power-law
    diagnostic) — two chained map-side-combined counts; the corpus shuffles
    once into per-subject degrees, degrees shuffle once into the tiny
    histogram."""
    from cattle_ray.stages.aggregates import partial_count

    deg = partial_count(q_kg_csvw_triples(sf_dir), ["subj"])
    hist = partial_count(deg.map_batches(
        lambda b: pa.table({"degree": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow"), ["degree"])
    return hist.map_batches(
        lambda b: pa.table({"degree": pc.cast(b["degree"], pa.int64()),
                            "n_subjects": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow")


def q_events_anomaly(sf_dir: str):
    """Hourly-volume anomaly scores: per-hour counts z-scored against the
    corpus of hours (exact integer count sums; mean/std/z evaluated in the
    identical float op order both sides), flagging |z| > 3. The hour table
    is calendar-bounded — the corpus-sized work is ONE count."""
    from cattle_ray.stages.aggregates import partial_count

    ev = _read(sf_dir, "events", ["ts"], rows_per_block=20000)
    hours = ev.map_batches(
        lambda b: pa.table({"hour": pc.cast(pc.divide(
            pc.cast(b["ts"], pa.int64()), 3_600_000_000), pa.int64())}),
        batch_format="pyarrow")
    cnt = partial_count(hours, ["hour"]).to_pandas()  # ≤ one row per hour
    if cnt.empty:  # no hours → no population to z-score against
        return pa.table({"hour": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64()),
                         "z": pa.array([], pa.float64())})
    n = cnt["n"].to_numpy().astype(np.int64)
    h = len(cnt)
    s, s2 = int(n.sum()), int((n * n).sum())
    mean = float(s) / h
    var = float(h * s2 - s * s) / (float(h) * float(h))
    std = np.sqrt(var)
    z = (n.astype(np.float64) - mean) / std
    keep = np.abs(z) > 3.0
    return pa.table({
        "hour": pa.array(cnt["hour"].to_numpy().astype(np.int64)[keep]),
        "n": pa.array(n[keep]),
        "z": pa.array(z[keep]),
    })


def q_events_inter_arrival(sf_dir: str):
    """Per-user inter-arrival time (ts − LAG(ts)) in exact µs int64."""
    from cattle_ray.stages.windows import grouped_lag_delta

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"],
               rows_per_block=20000)
    out = grouped_lag_delta(ds, key="user_id", ts="ts", out="delta_us",
                            order_tiebreak="event_id")
    return out.map_batches(
        lambda b: b.select(["event_id", "user_id", "delta_us"]),
        batch_format="pyarrow")


def _wm_ingest_events(sf_dir: str) -> str:
    """The deterministic 3-batch watermarked ingestion shared by the
    streaming-sink queries: the event stream splits into 3 ordered
    micro-batches (event_id mod 3); each batch's rows older than the
    PRE-batch watermark − 30 min divert to the late channel, everything
    else appends and advances the watermark. Returns the sink dir."""
    import tempfile

    from cattle_ray.sources.stream_sink import watermarked_append

    out = tempfile.mkdtemp(prefix="wm_ingest_", dir="/tmp")
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"],
               rows_per_block=20000)

    def third(i):
        def f(b: pa.Table, i=i) -> pa.Table:
            ids = b["event_id"]
            if isinstance(ids, pa.ChunkedArray):
                ids = ids.combine_chunks()
            m = ids.to_numpy(zero_copy_only=False) % 3 == i
            return b.filter(pa.array(m))
        return ev.map_batches(f, batch_format="pyarrow")

    for i in range(3):
        watermarked_append(third(i), out, batch_id=str(i), ts_col="ts",
                           allowed_lateness="30min")
    return out


def q_events_watermark_ingest(sf_dir: str):
    """Watermark-disciplined micro-batch ingestion (the streaming-sink
    contract, made deterministic so SQL can mirror it — see
    :func:`_wm_ingest_events`). The result is the accepted set — batch 0
    in full (empty watermark), only the ≥ wm−30min tail of batches 1
    and 2."""
    from cattle_ray.sources.stream_sink import read_accepted

    out = _wm_ingest_events(sf_dir)
    return read_accepted(out).map_batches(
        lambda b: b.select(["event_id", "user_id", "ts"]),
        batch_format="pyarrow")


def q_events_hopping_counts(sf_dir: str):
    """HOPPING (sliding) windows over the exactly-once streaming
    trigger: after the deterministic watermarked ingestion, one trigger
    call fires every 2h-wide window at 1h hops whose end + max_lateness
    lies at or below the final watermark — each accepted row is counted
    in width/hop = 2 windows, each window start emits exactly once
    behind the sink's single int64 fired boundary. SQL mirrors the
    row→{0,1}-offset expansion with a 2-row cross join."""
    from cattle_ray.sources.stream_sink import emit_closed_windows

    out = _wm_ingest_events(sf_dir)
    fired = emit_closed_windows(out, ts_col="ts", width="2h", hop="1h")
    return fired[["window_start_us", "n"]]


def q_events_session_stream(sf_dir: str):
    """GAP-BASED SESSION windows over the streaming sink (ROADMAP r5
    item 3, sources/stream_sink.emit_closed_sessions): after the
    deterministic watermarked ingestion, one trigger fires every
    session whose ``end + gap + max_lateness`` lies at or below the
    final watermark — per-session journal files give exactly-once, a
    single int64 boundary prunes history. Mirrored as the standard
    SQL lag/gap sessionization plus the closure predicate."""
    from cattle_ray.sources.stream_sink import emit_closed_sessions

    out = _wm_ingest_events(sf_dir)
    fired = emit_closed_sessions(out, ts_col="ts", key="user_id",
                                 gap="1h")
    return fired[["user_id", "session_start_us", "session_end_us", "n"]]


def q_events_window_dedup(sf_dir: str):
    """Event-stream duplicate suppression: keep an event iff the previous
    event of the same (user, type) is absent or > 30 min older — LAG
    semantics, SQL-mirrorable one-to-one (double-fired tracker hygiene)."""
    from cattle_ray.stages.windows import grouped_window_dedup

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"],
               rows_per_block=20000)
    out = grouped_window_dedup(ev, window="30min")
    return out.map_batches(
        lambda b: b.select(["event_id", "user_id", "event_type", "ts"]),
        batch_format="pyarrow")


def q_events_hourly_users(sf_dir: str):
    """Exact distinct users per hour: bucketed two-stage distinct on
    (hour, user) then a map-side-combined count per hour — the exact
    counterpart of the HLL approximate query."""
    from cattle_ray.stages.aggregates import distinct, partial_count

    ds = _read(sf_dir, "events", ["ts", "user_id"], rows_per_block=20000)

    def add_hour(b: pa.Table) -> pa.Table:
        return pa.table({"hour": pc.floor_temporal(b["ts"], unit="hour"),
                         "user_id": b["user_id"]})

    pairs = distinct(ds.map_batches(add_hour, batch_format="pyarrow"),
                     ["hour", "user_id"])
    counts = partial_count(pairs, ["hour"])
    return counts.map_batches(
        lambda b: b.rename_columns(["hour", "n_users"]), batch_format="pyarrow")


def q_events_sorted_export(sf_dir: str):
    """Global sort materialized: range-partitioned sorted Parquet export
    (sample-based range sort; parts are disjoint ordered ranges) + a
    footer-stats range-pruned read-back. The oracle checks the whole
    write→prune→read roundtrip against a plain range predicate."""
    import tempfile

    from cattle_ray.sources.sorted_sink import (
        read_sorted_range, write_sorted_range_partitioned)

    ds = _read(sf_dir, "events", ["event_id", "value"], rows_per_block=20000)
    out = tempfile.mkdtemp(prefix="sorted_", dir="/tmp")
    write_sorted_range_partitioned(ds, "value", out)
    d = read_sorted_range(out, "value", 5.0, 7.5)
    return d.map_batches(
        lambda b: b.filter(pc.and_(pc.greater_equal(b["value"], 5.0),
                                   pc.less_equal(b["value"], 7.5))),
        batch_format="pyarrow")


def q_doc_top_terms(sf_dir: str):
    """Keyword extraction: top-5 terms per doc by (tf DESC, df ASC, term) —
    TF-IDF's deterministic integer core (the idf log is a client-side
    monotone transform of df, so the ranking is identical), one bucketed
    doc-key shuffle over the term-stats join."""
    from cattle_ray.stages.aggregates import grouped_topk

    return grouped_topk(q_doc_term_stats(sf_dir), "doc_id",
                        ["tf", "df", "term"], [False, True, True], 5,
                        rank_col="rank")


def q_kg_triangle_count(sf_dir: str):
    """Graph analytics over the subject co-occurrence graph: triangle count
    via the degree-ordered (compact-forward) enumeration — wedge volume
    bounded O(m^1.5) regardless of hub skew."""
    from cattle_ray.stages.graph import triangles

    cooc = q_kg_entity_cooccurrence(sf_dir).map_batches(
        lambda b: pa.table({"u": b["subj_a"], "v": b["subj_b"]}),
        batch_format="pyarrow",
    )
    n = triangles(cooc, count_only=True)
    return pa.table({"n_triangles": pa.array([n], pa.int64())})


def q_kg_property_table(sf_dir: str):
    """KG property-table materialization — the wide "entity table" feature
    consumers want instead of the long triple store: one row per subject,
    one column per predicate (SQL ``max(CASE WHEN pred=… THEN obj END)``).
    ONE shuffle: each batch collapses to ≤1 wide partial row per subject
    map-side (:func:`grouped_pivot`), so wide partials cross the exchange,
    never triples."""
    from cattle_ray.stages.aggregates import grouped_pivot

    cats = {"v_rank": EX + "rank", "v_name": EX + "name",
            "v_entity": EX + "entity", "v_score": EX + "score"}
    wide = grouped_pivot(q_kg_csvw_triples(sf_dir), "subj", "pred", "obj",
                         cats)
    return wide.map_batches(
        lambda b: b.select(["subj", "v_rank", "v_name", "v_entity",
                            "v_score"]),
        batch_format="pyarrow")


def q_kg_pattern_join(sf_dir: str):
    """Basic-graph-pattern matching (the SPARQL join shape
    ``?s ex:rank "1" . ?s ex:entity ?e``): two predicate-filtered triple
    streams co-partitioned on subject, then a map-side-combined count per
    bound entity. Pattern selectivity applies BEFORE the shuffle, so the
    exchange moves only matching pattern rows — the discipline that makes
    BGP evaluation affordable over a 10^12-triple store."""
    from cattle_ray.stages.aggregates import partial_count
    from cattle_ray.stages.joins import hash_join

    t = q_kg_csvw_triples(sf_dir).materialize()  # two pattern scans
    rank1 = t.map_batches(
        lambda b: b.filter(pc.and_(pc.equal(b["pred"], EX + "rank"),
                                   pc.equal(b["obj"], "1")))
                   .select(["subj"]),
        batch_format="pyarrow")
    ent = t.map_batches(
        lambda b: b.filter(pc.equal(b["pred"], EX + "entity"))
                   .select(["subj", "obj"]),
        batch_format="pyarrow")
    j = hash_join(rank1, ent, "subj", "subj")
    counts = partial_count(j, ["obj"])
    return counts.map_batches(
        lambda b: pa.table({"entity": b["obj"],
                            "n": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow")


def q_kg_validate(sf_dir: str):
    """SHACL-style KG validation: per-constraint violation counts over the
    triple stream. The four row-local rules (object-is-IRI, value domain,
    numeric range, name format) are vectorized masks needing ZERO shuffle —
    each block emits one 4-row int64 partial; the graph-level completeness
    rule (every subject carries all 4 predicates) is a distinct +
    map-side-combined count. Violation counts, not violating rows, travel."""
    import ray.data as rd

    from cattle_ray.stages.aggregates import (distinct, grouped_sums,
                                              partial_count)

    t = q_kg_csvw_triples(sf_dir).materialize()  # rules + completeness
    p_rank, p_name, p_ent, p_score = (
        EX + p for p in ("rank", "name", "entity", "score"))

    def rule_partials(b: pa.Table) -> pa.Table:
        pred, obj = b["pred"], b["obj"]

        def cnt(mask) -> int:
            s = pc.sum(mask)
            return s.as_py() or 0

        ent_m = pc.equal(pred, p_ent)
        v_iri = cnt(pc.and_(ent_m, pc.invert(b["obj_is_iri"])))
        rank_m = pc.equal(pred, p_rank)
        v_rank = cnt(pc.and_(rank_m, pc.invert(
            pc.is_in(obj, value_set=pa.array(["1", "2", "3"])))))
        score_m = pc.equal(pred, p_score)
        # only score objects are numeric; neutralize the rest before cast
        nums = pc.cast(pc.if_else(score_m, obj, pa.scalar("0")), pa.int64())
        v_score = cnt(pc.and_(score_m, pc.greater_equal(nums, 500)))
        name_m = pc.equal(pred, p_name)
        v_name = cnt(pc.and_(name_m, pc.ends_with(obj, pattern="7")))
        return pa.table({
            "rule": pa.array(["entity_is_iri", "rank_in_domain",
                              "score_below_500", "name_no_7_suffix"]),
            "viol": pa.array([v_iri, v_rank, v_score, v_name], pa.int64()),
        })

    rules = grouped_sums(
        t.map_batches(rule_partials, batch_format="pyarrow"),
        ["rule"], ["viol"])
    rules = rules.map_batches(
        lambda b: pa.table({"rule": b["rule"],
                            "violations": pc.cast(b["sum_viol"], pa.int64())}),
        batch_format="pyarrow")

    per_subj = partial_count(distinct(t, ["subj", "pred"]), ["subj"])
    n_incomplete = per_subj.map_batches(
        lambda b: pa.table({"c": pa.array(
            [b.filter(pc.less(b["n"], 4)).num_rows], pa.int64())}),
        batch_format="pyarrow").sum("c") or 0
    comp = rd.from_arrow(pa.table({
        "rule": pa.array(["subject_complete"]),
        "violations": pa.array([int(n_incomplete)], pa.int64())}))
    return rules.union(comp)


def q_customer_order_dist(sf_dir: str):
    """TPC-H-Q13-shaped distribution: how many customers placed k orders,
    INCLUDING the zero-order group (the left join no inner join can give).
    Orders collapse to per-customer counts map-side, the left join moves
    one count row per customer, and the distribution is a second
    map-side-combined count over the small (customer, k) table."""
    from cattle_ray.stages.aggregates import partial_count
    from cattle_ray.stages.joins import hash_join

    per_cust = partial_count(
        _read(sf_dir, "orders", ["o_custkey"], rows_per_block=50000),
        ["o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey"])
    j = hash_join(cust, per_cust, "c_custkey", "o_custkey", how="left")

    def k_orders(b: pa.Table) -> pa.Table:
        # unmatched customers carry float64 NaN out of the left join;
        # counts are far below 2^53, so the round-trip is exact
        n = pc.cast(pc.coalesce(b["n"], pa.scalar(0.0)), pa.int64())
        return pa.table({"c_orders": n})

    dist = partial_count(j.map_batches(k_orders, batch_format="pyarrow"),
                         ["c_orders"])
    return dist.map_batches(
        lambda b: pa.table({"c_orders": b["c_orders"],
                            "custdist": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow")


def q_promo_revenue(sf_dir: str):
    """TPC-H-Q14-shaped promo share: % of 1995-09 revenue from PROMO-type
    parts. The date predicate pushes into the parquet scan (row-group
    pruning); the part dimension broadcasts ONCE (``ray.put`` of a sorted
    partkey array + promo bitmap, one searchsorted gather per batch — no
    shuffle for a dimension join); each block leaves as two int64 partials
    and the single percentage division is mirrored op-for-op in SQL."""
    import datetime

    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount"],
               rows_per_block=100000,
               filter=((pc.field("l_shipdate")
                        >= datetime.datetime(1995, 9, 1))
                       & (pc.field("l_shipdate")
                          < datetime.datetime(1995, 10, 1))))
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    pk = part["p_partkey"].to_numpy()
    promo = pc.equal(part["p_type"], "PROMO").to_numpy(zero_copy_only=False)
    order = np.argsort(pk)
    ref = ray.put((pk[order], promo[order]))

    def partials(b: pa.Table) -> pa.Table:
        pk_s, promo_s = ray.get(ref)
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        dpct = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0),
                                round_mode="half_towards_infinity"),
                       pa.int64())
        rev = pc.multiply(cents, pc.subtract(
            pa.scalar(100, pa.int64()), dpct)).to_numpy()
        pos, matched = _sorted_lookup(pk_s, b["l_partkey"].to_numpy())
        is_promo = promo_s[pos] & matched
        # inner-join mirror: lineitems without a part row join away from
        # BOTH sums (the SQL oracle is `li JOIN part`)
        return pa.table({"pe4": pa.array([int(rev[is_promo].sum())], pa.int64()),
                         "te4": pa.array([int(rev[matched].sum())], pa.int64())})

    agg = li.map_batches(partials, batch_format="pyarrow").materialize()
    p = agg.sum("pe4") or 0
    tt = agg.sum("te4") or 0
    # mirrored: (100.0 * CAST(p AS DOUBLE)) / CAST(t AS DOUBLE)
    return pd.DataFrame({"promo_revenue": [(100.0 * float(p)) / float(tt)]})


def q_large_orders(sf_dir: str):
    """TPC-H-Q18-shaped large-volume orders: orders whose total quantity
    exceeds 200, joined back to their customer. Lineitem collapses to one
    exact int64 per-order sum map-side; only qualifying keys (a few %)
    enter the order join."""
    from cattle_ray.stages.aggregates import grouped_sums
    from cattle_ray.stages.joins import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"],
               rows_per_block=100000)
    q = li.map_batches(
        lambda b: pa.table({
            "l_orderkey": b["l_orderkey"],
            "q": pc.cast(pc.round(b["l_quantity"],
                                  round_mode="half_towards_infinity"),
                         pa.int64())}),
        batch_format="pyarrow")
    per_order = grouped_sums(q, ["l_orderkey"], ["q"])
    big = per_order.map_batches(
        lambda b: b.filter(pc.greater(b["sum_q"], 200))
                   .select(["l_orderkey", "sum_q"]),
        batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                   rows_per_block=50000)
    j = hash_join(big, orders, "l_orderkey", "o_orderkey")
    return j.map_batches(
        lambda b: pa.table({"o_orderkey": b["o_orderkey"],
                            "o_custkey": b["o_custkey"],
                            "total_qty": pc.cast(b["sum_q"], pa.int64())}),
        batch_format="pyarrow")


def q_events_cooccurrence(sf_dir: str):
    """Temporal co-occurrence matrix (the banded range self-join): for each
    ordered pair of event types, how often a user fires type_b within 15
    minutes AFTER type_a. A naive per-user equi self-join cross-products
    each user's whole history; :func:`range_join_banded` bands both sides
    into 15-minute buckets so a join group holds one (user, window) slice —
    bounded by per-user traffic per window, never per-user history."""
    from cattle_ray.stages.aggregates import partial_count
    from cattle_ray.stages.joins import range_join_banded

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"],
               rows_per_block=20000)
    left = ev.map_batches(
        lambda b: pa.table({"user_id": b["user_id"], "ts": b["ts"],
                            "type_a": b["event_type"]}),
        batch_format="pyarrow")
    right = ev.map_batches(
        lambda b: pa.table({"user_id": b["user_id"], "ts": b["ts"],
                            "type_b": b["event_type"]}),
        batch_format="pyarrow")
    w_us = 15 * 60 * 1_000_000
    pairs = range_join_banded(left, right, left_key="user_id",
                              right_key="user_id", left_ts="ts",
                              right_ts="ts", lo=0, hi=w_us)
    counts = partial_count(pairs, ["type_a", "type_b"])
    return counts.map_batches(
        lambda b: pa.table({"type_a": b["type_a"], "type_b": b["type_b"],
                            "n": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow")


def q_kg_store_join(sf_dir: str):
    """Write→join roundtrip of the co-partitioned store layout: the entity
    pattern and the score pattern materialize into TWO subject-hash-
    partitioned stores (same partition count), then
    :func:`join_stores_copartitioned` joins them partition-locally with
    ZERO shuffle — partition pinning across jobs, recovered from the
    storage layout (column pruning pushed into each partition read). The
    oracle checks the whole write→copart-join→select roundtrip."""
    import tempfile

    from cattle_ray.sources.triple_sink import (
        join_stores_copartitioned, write_triples_hash_partitioned)

    t = q_kg_csvw_triples(sf_dir).materialize()  # feeds both stores
    ent = t.map_batches(
        lambda b: b.filter(pc.equal(b["pred"], EX + "entity")),
        batch_format="pyarrow")
    sco = t.map_batches(
        lambda b: b.filter(pc.equal(b["pred"], EX + "score")),
        batch_format="pyarrow")
    da = tempfile.mkdtemp(prefix="kg_store_ent_", dir="/tmp")
    db = tempfile.mkdtemp(prefix="kg_store_sco_", dir="/tmp")
    write_triples_hash_partitioned(ent, da, num_partitions=8)
    write_triples_hash_partitioned(sco, db, num_partitions=8)
    j = join_stores_copartitioned(da, db, key="subj",
                                  columns_a=["subj", "obj"],
                                  columns_b=["subj", "obj"])
    return j.map_batches(
        lambda b: pa.table({"subj": b["subj"], "entity": b["obj"],
                            "score": b["obj_b"]}),
        batch_format="pyarrow")


def q_kg_scc(sf_dir: str):
    """Web bowtie decomposition: strongly connected components of the REAL
    extracted page→page link graph (Broder et al. 2000 — the giant SCC vs
    IN/OUT fringe structure every crawl-frontier and spam analysis starts
    from). Vectorized 64-bit node ids; size-adaptive SCC (one Tarjan task
    under the crossover, FW-BW coloring rounds above — both paths
    parity-tested in test_scc). Output = the SCC size distribution
    (size, n_sccs), hash-scheme-independent. Rows-only: nested reachability
    fixpoints have no SQL unroll; the operator is pytest-verified against
    an independent Tarjan on random digraphs."""
    from cattle_ray.stages.aggregates import partial_count
    from cattle_ray.stages.extract import extract_links_batch
    from cattle_ray.stages.graph import scc, uri_ids64

    links = _pages(sf_dir).map_batches(extract_links_batch,
                                       batch_format="pyarrow")
    edges = links.map_batches(
        lambda b: pa.table({"s": uri_ids64(b["src"]),
                            "o": uri_ids64(b["dst"])}),
        batch_format="pyarrow")
    labels = scc(edges)
    sizes = partial_count(labels, ["scc"])
    dist = partial_count(
        sizes.map_batches(lambda b: pa.table(
            {"scc_size": pc.cast(b["n"], pa.int64())}),
            batch_format="pyarrow"),
        ["scc_size"])
    return dist.map_batches(
        lambda b: pa.table({"scc_size": b["scc_size"],
                            "n_sccs": pc.cast(b["n"], pa.int64())}),
        batch_format="pyarrow")


def q_doc_url_normalize(sf_dir: str):
    """URL canonicalization (the crawl-frontier/dedup-key primitive):
    syntactic variants of the same page URL — scheme/host case, default
    ports, fragments, tracking params, param order, trailing slashes —
    collapse to one canonical form BEFORE any url-keyed dedup or upsert.
    Messy inputs are synthesized deterministically from doc_id (three
    variant shapes), so the oracle states the expected canonical form as
    plain SQL arithmetic while the Ray side exercises the REAL kernel
    (vectorized head/path ops; per-row query rewrite only on rows that
    HAVE a query string)."""
    import pandas as pd

    from cattle_ray.stages.urls import normalize_url_batch

    def messy(df: "pd.DataFrame") -> "pd.DataFrame":
        i = df["doc_id"]
        r = i % 3
        s = i.astype(str)
        u = np.where(
            r == 0, "HTTPS://Example.ORG:443/Doc/" + s,
            np.where(r == 1, "http://example.org:80/doc/" + s + "/#frag",
                     "https://example.org/doc/" + s
                     + "?utm_source=x&b=2&a=1"))
        return pd.DataFrame({"doc_id": i, "url": u})

    ds = _docs(sf_dir, ["doc_id"]).map_batches(messy, batch_format="pandas")
    return ds.map_batches(
        lambda b: normalize_url_batch(b).select(["doc_id", "url_norm"]),
        batch_format="pyarrow")


def q_supplier_value(sf_dir: str):
    """TPC-H-Q15-shaped top suppliers by revenue: lineitem collapses to one
    exact int64 fixed-point partial per (supplier, batch) map-side, the
    supplier dimension broadcasts once (``ray.put`` + vectorized
    ``index_in`` gather — dimension joins never shuffle), and the final
    total order (revenue DESC, s_suppkey) sorts a supplier-sized table.
    ONE mirrored float division at the very end."""
    import pyarrow.parquet as pq
    import ray

    from cattle_ray.stages.aggregates import grouped_sums

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount"],
               rows_per_block=100000)

    def rev(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        dpct = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0),
                                round_mode="half_towards_infinity"),
                       pa.int64())
        return pa.table({
            "l_suppkey": b["l_suppkey"],
            "rev_e4": pc.multiply(cents, pc.subtract(
                pa.scalar(100, pa.int64()), dpct))})

    per_supp = grouped_sums(li.map_batches(rev, batch_format="pyarrow"),
                            ["l_suppkey"], ["rev_e4"])
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_name"]).combine_chunks()
    supp_ref = ray.put(supp)

    def add_name(b: pa.Table) -> pa.Table:
        lk = ray.get(supp_ref)
        idx = pc.index_in(b["l_suppkey"], value_set=lk["s_suppkey"].chunk(0))
        return pa.table({
            "s_suppkey": b["l_suppkey"],
            "s_name": pc.take(lk["s_name"].chunk(0), idx),
            "revenue": pc.divide(pc.cast(b["sum_rev_e4"], pa.float64()),
                                 pa.scalar(10000.0))})

    named = per_supp.map_batches(add_name, batch_format="pyarrow")
    return named.sort(["revenue", "s_suppkey"],
                      descending=[True, False]).limit(20)


def q_cheapest_part_by_brand(sf_dir: str):
    """TPC-H-Q2-shaped grouped argmin with the whole row kept: per brand,
    the single cheapest part (price ASC, partkey ASC tie-break) — the
    min-within-group join expressed as grouped_topk(k=1), so only
    projected rows cross the one bucketed shuffle. Prices pass through
    untouched (no arithmetic → bit-identical to the oracle's doubles)."""
    from cattle_ray.stages.aggregates import grouped_topk

    parts = _read(sf_dir, "part", ["p_brand", "p_partkey", "p_retailprice"],
                  rows_per_block=50000)
    top = grouped_topk(parts, "p_brand", ["p_retailprice", "p_partkey"],
                       [True, True], 1)
    return top.map_batches(
        lambda b: b.select(["p_brand", "p_partkey", "p_retailprice"]),
        batch_format="pyarrow")


#: kg_ppr teleport set — two entity URIs (query parameter, broadcast once)
PPR_SEEDS = ("https://example.org/id/entity/Entity7",
             "https://example.org/id/entity/Entity13")


def q_kg_ppr(sf_dir: str):
    """Personalized PageRank — related-entity scoring: teleports land
    uniformly on a 2-seed entity set instead of 1/n, so rank(v) measures
    proximity to the seeds over the doc→entity graph (the recommendation
    primitive on a KG). Same execution discipline as kg_pagerank
    (vectorized 64-bit ids, size-adaptive solve, ranks joined back to
    URIs); oracle = the 5-iteration personalized power method unrolled in
    SQL, both sides rounded to 6 decimals."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.graph import pagerank, uri_ids64
    from cattle_ray.stages.joins import hash_join

    ent = q_kg_csvw_triples(sf_dir).map_batches(
        lambda b: b.filter(pc.equal(b["pred"], EX + "entity")),
        batch_format="pyarrow").materialize()

    def to_edges(b: pa.Table) -> pa.Table:
        return pa.table({"src": uri_ids64(b["subj"]),
                         "dst": uri_ids64(b["obj"])})

    def to_map(b: pa.Table) -> pa.Table:
        uris = pa.concat_arrays([b["subj"].combine_chunks(),
                                 b["obj"].combine_chunks()])
        ids = pa.concat_arrays([uri_ids64(b["subj"]), uri_ids64(b["obj"])])
        return pa.table({"nid": ids, "uri": uris})

    seeds = uri_ids64(pa.array(list(PPR_SEEDS), pa.string())).to_pylist()
    ranks = pagerank(ent.map_batches(to_edges, batch_format="pyarrow"),
                     iters=5, seeds=seeds)
    id_map = distinct(ent.map_batches(to_map, batch_format="pyarrow"),
                      ["nid", "uri"], num_buckets=8)
    joined = hash_join(ranks, id_map, "node", "nid", num_buckets=8)
    return joined.map_batches(
        lambda b: pa.table({"node": b["uri"],
                            "rank": pc.round(b["rank"], 6)}),
        batch_format="pyarrow")


def q_kg_store_describe(sf_dir: str):
    """DESCRIBE-style point read: all triples of ONE subject out of the
    hash-partitioned store — opens exactly one partition file (hash(subj)
    % P routing, 1/P of the data at any corpus size) and row-filters it;
    the per-partition subject sort keeps the inner scan tight. The oracle
    checks the whole write→route→point-read roundtrip."""
    import tempfile

    from cattle_ray.sources.triple_sink import (
        match_triples, write_triples_hash_partitioned)

    out_dir = tempfile.mkdtemp(prefix="kg_store_desc_", dir="/tmp")
    write_triples_hash_partitioned(q_kg_csvw_triples(sf_dir), out_dir,
                                   num_partitions=8)
    subj = "https://example.org/doc/0#t0/r1"
    t = match_triples(out_dir, subj=subj)  # pyarrow Table (point read)
    return t.select(QUAD_COLS)


def q_returned_item_revenue(sf_dir: str):
    """TPC-H-Q10-shaped lost-revenue report: top-20 customers by revenue
    from RETURNED line items. The returnflag predicate pushes into the
    parquet scan (only 'R' rows leave storage); lineitem collapses to
    per-order exact-cent partials map-side; the customer dimension
    broadcasts once. Final total order (revenue DESC, custkey) over a
    customer-sized table."""
    import pyarrow.parquet as pq
    import ray

    from cattle_ray.stages.aggregates import grouped_sums
    from cattle_ray.stages.joins import hash_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount"],
               rows_per_block=100000,
               filter=(pc.field("l_returnflag") == "R"))

    def rev(b: pa.Table) -> pa.Table:
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        dpct = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0),
                                round_mode="half_towards_infinity"),
                       pa.int64())
        return pa.table({
            "l_orderkey": b["l_orderkey"],
            "rev_e4": pc.multiply(cents, pc.subtract(
                pa.scalar(100, pa.int64()), dpct))})

    per_order = grouped_sums(li.map_batches(rev, batch_format="pyarrow"),
                             ["l_orderkey"], ["rev_e4"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"],
                   rows_per_block=50000)
    j = hash_join(per_order, orders, "l_orderkey", "o_orderkey")
    per_cust = grouped_sums(
        j.map_batches(lambda b: pa.table({"o_custkey": b["o_custkey"],
                                          "rev_e4": b["sum_rev_e4"]}),
                      batch_format="pyarrow"),
        ["o_custkey"], ["rev_e4"])

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"]).combine_chunks()
    cust_ref = ray.put(cust)

    def add_name(b: pa.Table) -> pa.Table:
        lk = ray.get(cust_ref)
        idx = pc.index_in(b["o_custkey"], value_set=lk["c_custkey"].chunk(0))
        return pa.table({
            "c_custkey": b["o_custkey"],
            "c_name": pc.take(lk["c_name"].chunk(0), idx),
            "revenue": pc.divide(pc.cast(b["sum_rev_e4"], pa.float64()),
                                 pa.scalar(10000.0))})

    named = per_cust.map_batches(add_name, batch_format="pyarrow")
    return named.sort(["revenue", "c_custkey"],
                      descending=[True, False]).limit(20)


def q_discounted_brand_revenue(sf_dir: str):
    """TPC-H-Q19-shaped disjunctive-predicate scan: revenue over OR-ed
    (brand, size-range, quantity-range) arms. The part attributes
    broadcast once (sorted partkey + brand/size arrays, one searchsorted
    gather per batch); each block evaluates the whole disjunction
    vectorized and leaves as ONE int64 partial — a scan query whose cost
    is the read, like Q6, but with a dimension-dependent predicate."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
               rows_per_block=100000)
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_size"])
    pk = part["p_partkey"].to_numpy()
    order = np.argsort(pk)
    brand = part["p_brand"].to_pandas().to_numpy()[order]
    size = part["p_size"].to_numpy()[order]
    ref = ray.put((pk[order], brand, size))

    def partials(b: pa.Table) -> pa.Table:
        pk_s, brand_s, size_s = ray.get(ref)
        pos, matched = _sorted_lookup(pk_s, b["l_partkey"].to_numpy())
        br, sz = brand_s[pos], size_s[pos]
        q = pc.cast(pc.round(b["l_quantity"],
                             round_mode="half_towards_infinity"),
                    pa.int64()).to_numpy()
        keep = (((br == "Brand#1") & (sz <= 10) & (q >= 1) & (q <= 15))
                | ((br == "Brand#2") & (sz <= 20) & (q >= 10) & (q <= 25))
                | ((br == "Brand#3") & (sz <= 30) & (q >= 20) & (q <= 35)))
        keep &= matched  # inner-join mirror: partless lineitems drop
        cents = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        dpct = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0),
                                round_mode="half_towards_infinity"),
                       pa.int64())
        rev = pc.multiply(cents, pc.subtract(
            pa.scalar(100, pa.int64()), dpct)).to_numpy()
        return pa.table({"pe4": pa.array([int(rev[keep].sum())], pa.int64())})

    total = li.map_batches(partials, batch_format="pyarrow").sum("pe4") or 0
    return pd.DataFrame({"revenue": [total / 10000.0]})


def q_doc_classifier_score(sf_dir: str):
    """Model-scoring seam (fastText/DCLM-style quality classifier): a
    linear model over hashed token n-grams scores every document — the
    model is built once in the driver inside one LinearScorer, which is
    mapped as tasks, and batches score fully vectorized (hash → bincount →
    dot). Rows-only: feature hashing has no SQL mirror; exact-score
    recompute and planted-truth ordering are pytest-pinned
    (test_classify.py). A real trained model drops into the same seam as
    (weights, bias)."""
    from cattle_ray.stages.classify import LinearScorer, build_wordlist_model

    model = build_wordlist_model(
        1 << 18,
        positive={"science": 2.0, "data": 1.0, "join": 1.0, "window": 1.0},
        negative={"click": 2.0, "buy": 1.5}, bias=0.0)
    scored = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        LinearScorer(model=model), batch_format="pyarrow")
    return scored.map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"],
                            "score": pc.round(b["score"], 9)}),
        batch_format="pyarrow")


def q_kg_property_roundtrip(sf_dir: str):
    """Pivot→unpivot roundtrip: the wide property table explodes back into
    (subj, pred, obj) long rows — UNPIVOT as a stateless zero-shuffle
    Arrow kernel (non-null cells only). The oracle is the ORIGINAL triple
    pattern set, so the roundtrip identity itself is what's checked."""
    from cattle_ray.stages.aggregates import grouped_pivot, unpivot_batch

    cats = {"v_rank": EX + "rank", "v_name": EX + "name",
            "v_entity": EX + "entity", "v_score": EX + "score"}
    wide = grouped_pivot(q_kg_csvw_triples(sf_dir), "subj", "pred", "obj",
                         cats)
    return wide.map_batches(
        lambda b: unpivot_batch(b, "subj", cats),
        batch_format="pyarrow")


def q_kg_obj_lookup(sf_dir: str):
    """(?, ?, o) point read via the OBJECT-routed secondary index: the
    triple set also materializes hash-partitioned by object, so a
    reverse lookup ("which subjects say anything with value o?") opens
    exactly ONE partition file — 1/P of the index at any scale — instead
    of scanning every subject partition. The oracle checks the whole
    write→route→read roundtrip of the secondary index."""
    import tempfile

    from cattle_ray.sources.triple_sink import (
        match_triples, write_triples_hash_partitioned)

    out_dir = tempfile.mkdtemp(prefix="kg_obj_idx_", dir="/tmp")
    write_triples_hash_partitioned(q_kg_csvw_triples(sf_dir), out_dir,
                                   num_partitions=8, key="obj")
    t = match_triples(out_dir, obj="Entity7")  # point read (obj-routed)
    return t.select(QUAD_COLS)


def q_kg_index_refresh(sf_dir: str):
    """Incremental secondary-index maintenance end to end: build the
    obj-routed index when the primary holds only the NON-rank triples
    (gen 1), run two tracked mutations on the primary (merge the rank
    triples → gen 2, DELETE the entity triples → gen 3), then
    :func:`refresh_secondary_index` brings the index current by applying
    ONLY the recorded per-partition deltas — never rescanning the
    primary. The result is two point reads through the refreshed index:
    ``obj='2'`` must include the gen-2-ADDED rank rows (an unapplied add
    under-counts), and the deleted entity URI must return nothing (an
    unapplied remove over-counts) — both sides SQL-expressible, so the
    whole build→mutate→refresh→route roundtrip is hash-checked."""
    import tempfile

    from cattle_ray.sources.triple_sink import (
        build_secondary_index, delete_triples, index_is_stale,
        match_triples, merge_triples_hash_partitioned,
        refresh_secondary_index)

    primary = tempfile.mkdtemp(prefix="kg_irefresh_", dir="/tmp")
    idx = primary + "_idx"
    triples = q_kg_csvw_triples(sf_dir)
    rank_p, ent_p = EX + "rank", EX + "entity"
    merge_triples_hash_partitioned(
        triples.filter(expr=f"pred != '{rank_p}'"), out_dir=primary,
        num_partitions=8, track_generations=True)
    build_secondary_index(primary, idx)
    merge_triples_hash_partitioned(
        triples.filter(expr=f"pred == '{rank_p}'"), out_dir=primary,
        num_partitions=8, track_generations=True)
    delete_triples(primary, pred=ent_p)
    refresh_secondary_index(idx)
    if index_is_stale(idx):  # loud: a silent stale index would still
        raise RuntimeError("refresh did not clear index staleness")
    a = match_triples(idx, obj="2")
    b = match_triples(idx, obj="https://example.org/id/entity/Entity7")
    return pa.concat_tables([a.cast(b.schema), b]).select(QUAD_COLS)


def q_kg_bgp_chain(sf_dir: str):
    """Generic BGP evaluation (the SPARQL SELECT core): a 3-pattern graph
    pattern — ``?s rank "2" . ?s entity ?e . ?s score ?v`` — planned by
    :func:`~cattle_ray.stages.bgp.evaluate_bgp`: per-pattern constant
    filters BEFORE any shuffle, then one co-partitioned join per pattern
    on the shared variables. The hand-written kg_pattern_join shape,
    generalized to arbitrary patterns."""
    from cattle_ray.stages.bgp import evaluate_bgp

    return evaluate_bgp(q_kg_csvw_triples(sf_dir), [
        ("?s", EX + "rank", "2"),
        ("?s", EX + "entity", "?e"),
        ("?s", EX + "score", "?v"),
    ], num_buckets=8)  # pattern streams are selective; right-size the joins


def q_kg_bgp_optional(sf_dir: str):
    """BGP with OPTIONAL + FILTER (the SPARQL SELECT core beyond plain
    conjunctions): ``?s score ?v . OPTIONAL { ?s2 rank ?v } .
    FILTER contains(?v, "2")`` — score values only rarely coincide with a
    rank value, so the left join genuinely mixes matched rows and
    NULL-attached rows; the oracle mirrors it as a SQL LEFT JOIN, pinning
    the null semantics end-to-end."""
    from cattle_ray.stages.bgp import evaluate_bgp

    return evaluate_bgp(
        q_kg_csvw_triples(sf_dir),
        [("?s", EX + "score", "?v")],
        optional=[[("?s2", EX + "rank", "?v")]],
        filters=[("?v", "contains", "2")],
        num_buckets=8)


def q_kg_bgp_minus(sf_dir: str):
    """BGP MINUS (SPARQL negation): score values that coincide with NO
    rank value — the exact complement of kg_bgp_optional's matched rows,
    mirrored in SQL as NOT EXISTS. Composite-key-capable anti join
    (distinct minus keys + left join + null-marker filter)."""
    from cattle_ray.stages.bgp import evaluate_bgp

    return evaluate_bgp(
        q_kg_csvw_triples(sf_dir),
        [("?s", EX + "score", "?v")],
        minus=[[("?s2", EX + "rank", "?v")]],
        num_buckets=8)


def q_kg_construct(sf_dir: str):
    """SPARQL CONSTRUCT — the tier's namesake operation as a first-class
    operator: bindings of ``?s entity ?e`` instantiate two templates,
    the inverse edge ``(?e, mentionedIn, ?s)`` and a constant-type triple
    ``(?e, type, Entity)`` — new graph rows built from query results,
    fully vectorized, NULL bindings skipped."""
    from cattle_ray.stages.bgp import construct_triples, evaluate_bgp

    bindings = evaluate_bgp(
        q_kg_csvw_triples(sf_dir),
        [("?s", EX + "entity", "?e")],
        num_buckets=8)
    return construct_triples(bindings, [
        ("?e", EX + "mentionedIn", "?s"),
        ("?e", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
         EX + "Entity"),
    ])


def q_kg_bgp_agg(sf_dir: str):
    """Aggregation over BGP bindings (SPARQL ``SELECT ?e (COUNT(*) AS ?n)
    … GROUP BY ?e``): the query layer composes with the engine's
    map-side-combined counts — bindings stream straight into
    partial_count, no driver collection."""
    from cattle_ray.stages.aggregates import partial_count
    from cattle_ray.stages.bgp import evaluate_bgp

    bindings = evaluate_bgp(
        q_kg_csvw_triples(sf_dir),
        [("?s", EX + "entity", "?e"), ("?s", EX + "rank", "?r")],
        num_buckets=8)
    return partial_count(bindings.map_batches(
        lambda b: b.select(["e", "r"]), batch_format="pyarrow"),
        ["e", "r"], num_buckets=8)


def q_kg_bgp_select(sf_dir: str):
    """SPARQL solution modifiers end to end: SELECT DISTINCT + ORDER BY
    (desc, asc) + LIMIT over BGP bindings — projection and dedup stream,
    and ORDER BY + LIMIT runs as per-block top-k + one tiny final slice,
    never a global sort."""
    from cattle_ray.stages.bgp import evaluate_bgp

    return evaluate_bgp(
        q_kg_csvw_triples(sf_dir),
        [("?s", EX + "entity", "?e"), ("?s", EX + "rank", "?r")],
        select=["?e", "?r"], distinct=True,
        order_by=[("?e", "descending"), "?r"], limit=20, num_buckets=8)


def q_kg_sparql_text(sf_dir: str):
    """The TEXTUAL SPARQL front-end end to end (stages/sparql.py): a real
    query string — prefixes, ``;`` abbreviation, a numeric FILTER — parses
    to the engine's structured algebra and runs through the same
    oracle-checked evaluators. The numeric comparison casts the term
    column (SQL CAST discipline), mirrored as CAST(… AS BIGINT) in the
    oracle. Beyond-reference surface: the reference has no query layer at
    all (its scope ends at CSV→RDF conversion, reference src/cattle.py)."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        SELECT ?e ?r WHERE {{
          ?s ex:entity ?e ; ex:rank ?r .
          FILTER(?r >= 2)
        }}""", num_buckets=8)


def q_kg_sparql_agg(sf_dir: str):
    """Textual SPARQL aggregation: GROUP BY + COUNT(*)/MAX + HAVING +
    ORDER BY through the parser — the text layer drives the engine's
    map-side-combined grouped aggregates and the HAVING filter runs over
    the aggregated table, full SPARQL algebra order from a query
    string."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        SELECT ?e (COUNT(*) AS ?n) (MAX(?r) AS ?hi) WHERE {{
          ?s ex:entity ?e ; ex:rank ?r .
        }} GROUP BY ?e HAVING(?n > 1) ORDER BY DESC(?n) ?e LIMIT 30""",
        num_buckets=8)


def q_kg_rdfs_closure(sf_dir: str):
    """RDFS forward-chaining materialization (stages/reason.py): doc
    subjects typed by their entity, a subClassOf tree over the 50
    entities (Entity k ⊑ Entity k//2 — the same synthetic taxonomy as
    kg_bgp_path), one vectorized zero-shuffle inference pass against the
    driver-closed broadcast schema, then DISTINCT (instance, class)
    pairs. Mirrored as a 6-level unrolled ancestor union (k ≤ 49 needs
    ≤ 6 halvings to reach 0)."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.reason import (RDF_TYPE, RDFS_SUBCLASS,
                                          rdfs_materialize)

    schema = pa.table({
        "subj": [f"{ENTITY_PREFIX}{k}" for k in range(1, 50)],
        "pred": [RDFS_SUBCLASS] * 49,
        "obj": [f"{ENTITY_PREFIX}{k // 2}" for k in range(1, 50)],
    })

    def typed(b: pa.Table) -> pa.Table:
        return pa.table({
            "subj": b["subj"],
            "pred": pa.array([RDF_TYPE] * len(b), pa.string()),
            "obj": b["obj"],
        })

    inst = (q_kg_csvw_triples(sf_dir)
            .filter(expr=f"pred == '{EX}entity'")
            .map_batches(typed, batch_format="pyarrow"))
    closed = rdfs_materialize(inst, schema)
    pairs = closed.map_batches(
        lambda b: pa.table({"s": b["subj"], "c": b["obj"]}),
        batch_format="pyarrow")
    return distinct(pairs, ["s", "c"], num_buckets=8)


def q_kg_rdfs_incremental(sf_dir: str):
    """Incremental RDFS maintenance over tracked-store deltas
    (stages/reason.py build/refresh_entailment_store): materialize the
    closure of the doc→entity typed triples into an entailment STORE,
    then apply two tracked mutations to the primary — add a second type
    (Entity k+3) for every doc whose entity k % 5 == 0, retract every
    original row with k % 7 == 0 — and DRed-refresh the closure store
    (cost ∝ the deltas' neighbourhood, never the closure). Result =
    DISTINCT (instance, class) pairs of the refreshed store; the SQL
    mirror recomputes the closure of the final asserted set with the
    same 6-level halving union."""
    import tempfile

    from cattle_ray.sources.triple_sink import (
        delete_exact_rows, merge_triples_hash_partitioned, read_store_asof,
        write_triples_hash_partitioned)
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.reason import (RDF_TYPE, RDFS_SUBCLASS,
                                          build_entailment_store,
                                          refresh_entailment_store)

    schema = pa.table({
        "subj": [f"{ENTITY_PREFIX}{k}" for k in range(1, 50)],
        "pred": [RDFS_SUBCLASS] * 49,
        "obj": [f"{ENTITY_PREFIX}{k // 2}" for k in range(1, 50)],
    })

    def typed(b: pa.Table) -> pa.Table:
        return pa.table({
            "subj": b["subj"],
            "pred": pa.array([RDF_TYPE] * len(b), pa.string()),
            "obj": b["obj"],
        })

    inst = (q_kg_csvw_triples(sf_dir)
            .filter(expr=f"pred == '{EX}entity'")
            .map_batches(typed, batch_format="pyarrow")).materialize()

    def _k(b: pa.Table):
        import numpy as np

        o = b["obj"]
        if isinstance(o, pa.ChunkedArray):
            o = o.combine_chunks()
        tail = pc.utf8_slice_codeunits(o, start=len(ENTITY_PREFIX))
        return pc.cast(tail, pa.int64()).to_numpy(zero_copy_only=False)

    def mod_filter(m: int):
        def f(b: pa.Table) -> pa.Table:
            return b.filter(pa.array(_k(b) % m == 0))
        return f

    def shift3(b: pa.Table) -> pa.Table:
        k = _k(b)
        return pa.table({
            "subj": b["subj"], "pred": b["pred"],
            "obj": pa.array([f"{ENTITY_PREFIX}{v + 3}" for v in k],
                            pa.string())})

    pdir = tempfile.mkdtemp(prefix="rdfs_primary_", dir="/tmp")
    edir = tempfile.mkdtemp(prefix="rdfs_ent_", dir="/tmp") + "/store"
    write_triples_hash_partitioned(inst, pdir, num_partitions=8)
    build_entailment_store(pdir, edir, schema=schema)
    merge_triples_hash_partitioned(
        inst.map_batches(mod_filter(5), batch_format="pyarrow")
            .map_batches(shift3, batch_format="pyarrow"),
        pdir, num_partitions=8, track_generations=True)
    delete_exact_rows(
        pdir, inst.map_batches(mod_filter(7), batch_format="pyarrow"))
    refresh_entailment_store(edir)
    pairs = read_store_asof(edir).map_batches(
        lambda b: pa.table({"s": b["subj"], "c": b["obj"]}),
        batch_format="pyarrow")
    return distinct(pairs, ["s", "c"], num_buckets=8)


def q_kg_property_graph(sf_dir: str):
    """Property-graph export (stages/reason.py): resource-to-resource
    triples become the edges table, literal triples stay node
    attributes, and the nodes table carries exact in/out degrees via
    map-side-combined grouped sums (hub nodes cost one partial row per
    batch, never a hot group). The GNN-training layout. Mirrored as a
    degree aggregation over the IRI-object edges."""
    from cattle_ray.stages.reason import property_graph_tables

    nodes, _edges = property_graph_tables(q_kg_csvw_triples(sf_dir))
    return nodes


def q_kg_negative_samples_generic(sf_dir: str):
    """Filtered negative sampling over ARBITRARY ids
    (stages/reason.py): each resource-to-resource edge emits k=2
    corrupted (src, rel, dst') copies, dst' drawn from the broadcast
    entity vocabulary by a deterministic content hash — layout- and
    parallelism-invariant, so reruns and repartitions produce the SAME
    sample. No SQL oracle (the hash has no DuckDB mirror); determinism
    and the filtered guarantee are pytest-pinned."""
    from cattle_ray.stages.reason import (negative_sample_edges,
                                          property_graph_tables)

    _nodes, edges = property_graph_tables(q_kg_csvw_triples(sf_dir))
    return negative_sample_edges(edges, k=2)


def q_kg_negative_samples_sharded(sf_dir: str):
    """The SCALE path of filtered negative sampling, forced: entity
    pools hash-shard across a raw-task exchange and corruption ``i`` of
    edge ``e`` indexes the sorted pool of shard ``mix(h(e,i))`` — the
    vocabulary never reaches the driver (no ``take_all``, no broadcast;
    VERDICT r4 order #1). Rows-only (the xxhash sample has no SQL
    mirror); determinism, the filtered guarantee, and layout invariance
    are pytest-pinned (tests/test_reason.py sharded suite)."""
    from cattle_ray.stages.reason import (negative_sample_edges,
                                          property_graph_tables)

    _nodes, edges = property_graph_tables(q_kg_csvw_triples(sf_dir))
    return negative_sample_edges(edges, k=2, mode="sharded",
                                 num_shards=16)


def q_kg_transe_epoch(sf_dir: str):
    """ONE deterministic full-batch TransE epoch over the doc↔entity
    edge graph (stages/kgembed.py): hash-init embeddings, the filtered
    negative sampler's (positive, corruption) pairs, four co-partitioned
    vector gathers, int64 fixed-point gradient sums through one raw-task
    exchange — the trained table is a pure function of the edges, so
    reruns and repartitions agree bit-for-bit (pytest-pinned against an
    in-memory numpy reference). Rows-only (vector math has no SQL
    mirror); output = per-entity L2 norm of the trained vector in
    µ-units (exact int64 view of the float32 table)."""
    from cattle_ray.stages.kgembed import transe_epoch
    from cattle_ray.stages.reason import property_graph_tables

    _nodes, edges = property_graph_tables(q_kg_csvw_triples(sf_dir))
    out = transe_epoch(edges, dim=16, k=1, seed=5, num_buckets=8)

    def norms(b: pa.Table) -> pa.Table:
        import numpy as np

        emb = np.stack([np.frombuffer(x, np.float32)
                        for x in b["emb"].to_pylist()])
        n = np.sqrt((emb.astype(np.float64) ** 2).sum(1))
        return pa.table({"id": b["id"],
                         "norm_u": pa.array(
                             np.round(n * 1_000_000).astype(np.int64))})

    return out["entities"].map_batches(norms, batch_format="pyarrow")


def q_kg_embed_neighbors(sf_dir: str):
    """Composition: TransE-trained vectors feed the ANN machinery —
    one epoch over the doc↔entity graph, then exact cosine top-5 among
    the ENTITY vectors for queries Entity1..Entity3
    (stages/similarity.knn_brute_force over the trained table; vector
    ids are the entity numbers, so the output is deterministic).
    Rows-only (trained vectors have no SQL mirror); the epoch itself
    is parity-pinned in tests/test_kgembed.py."""
    import numpy as np
    import ray

    from cattle_ray.stages.kgembed import _vecs, transe_epoch
    from cattle_ray.stages.reason import property_graph_tables
    from cattle_ray.stages.similarity import knn_brute_force

    _nodes, edges = property_graph_tables(q_kg_csvw_triples(sf_dir))
    out = transe_epoch(edges, dim=16, k=1, seed=5, num_buckets=8)
    ents = out["entities"].materialize()

    def entity_rows(b: pa.Table) -> pa.Table:
        ids = b["id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        m = pc.starts_with(ids, ENTITY_PREFIX)
        t = b.filter(m)
        if len(t) == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "embedding": pa.array(
                                 [], pa.list_(pa.float64()))})
        n = pc.cast(pc.utf8_slice_codeunits(
            t["id"], start=len(ENTITY_PREFIX)), pa.int64())
        vec = _vecs(t["emb"], 16).astype(np.float64)
        return pa.table({"vec_id": n,
                         "embedding": pa.array(vec.tolist(),
                                               pa.list_(pa.float64()))})

    vec_ds = ents.map_batches(entity_rows, batch_format="pyarrow") \
        .materialize()
    qrows = vec_ds.filter(expr="vec_id <= 3").filter(
        expr="vec_id >= 1").to_pandas().sort_values("vec_id")
    queries = np.stack(qrows["embedding"].to_numpy())
    got = knn_brute_force(vec_ds, queries, k=5)
    return got.map_batches(
        lambda b: b.select(["query_id", "vec_id", "rank"]),
        batch_format="pyarrow")


def q_kg_embed_linkpred(sf_dir: str):
    """Sampled link-prediction evaluation over TWO chained TransE
    epochs (kgembed.link_prediction_eval): every doc↔entity edge's true
    dst ranked against 10 deterministic filtered corruptions —
    hits@1/3/10 numerators exact integers, MRR a per-bucket float
    partial; the whole eval is layout/parallelism-invariant (pytest
    parity + the trained-beats-init signal pinned). Rows-only."""
    import pandas as pd

    from cattle_ray.stages.kgembed import (link_prediction_eval,
                                           transe_epoch)
    from cattle_ray.stages.reason import property_graph_tables

    _nodes, edges = property_graph_tables(q_kg_csvw_triples(sf_dir))
    edges = edges.materialize()
    ents = rels = None
    for _ in range(2):
        out = transe_epoch(edges, ents, rels, dim=16, k=1, seed=5,
                           num_buckets=8)
        ents, rels = out["entities"].materialize(), out["relations"]
    m = link_prediction_eval(edges, ents, rels, dim=16, k=10, seed=5,
                             num_buckets=8)
    return pd.DataFrame([{
        "n_edges": m["n_edges"],
        "mrr_u": int(round(m["mrr"] * 1_000_000)),
        "hits1_u": int(round(m["hits@1"] * 1_000_000)),
        "hits10_u": int(round(m["hits@10"] * 1_000_000))}])


def q_kg_sample_neighbors(sf_dir: str):
    """GNN minibatch sampling (graph.sample_neighbors): 2-hop fanout-3
    sampled subgraph around the lexicographically first doc subject,
    over the UNDIRECTED doc↔entity graph (each direction emitted, so
    hop 2 fans back out from the entity to its other docs). The sample
    is a deterministic content hash — layout-invariant; rows-only (no
    SQL mirror for the hash), determinism pytest-pinned."""
    from cattle_ray.stages.graph import sample_neighbors
    from cattle_ray.stages.reason import property_graph_tables

    _nodes, edges = property_graph_tables(q_kg_csvw_triples(sf_dir))
    both = edges.map_batches(
        lambda b: pa.table({
            "s": pa.concat_arrays([
                b["src"].combine_chunks() if isinstance(
                    b["src"], pa.ChunkedArray) else b["src"],
                b["dst"].combine_chunks() if isinstance(
                    b["dst"], pa.ChunkedArray) else b["dst"]]),
            "o": pa.concat_arrays([
                b["dst"].combine_chunks() if isinstance(
                    b["dst"], pa.ChunkedArray) else b["dst"],
                b["src"].combine_chunks() if isinstance(
                    b["src"], pa.ChunkedArray) else b["src"]])}),
        batch_format="pyarrow").materialize()
    # seed = min subject — a query-parameter-sized derivation
    seed = min(r["m"] for r in both.map_batches(
        lambda b: pa.table({"m": pa.array(
            [pc.min(b["s"]).as_py()], pa.string())}),
        batch_format="pyarrow").take_all())
    return sample_neighbors(both, [seed], fanout=3, hops=2)


def q_kg_owl_inverse(sf_dir: str):
    """OWL-lite inverseOf materialization (reason.owl_materialize):
    declaring ``ex:entity owl:inverseOf ex:entityOf`` makes every
    (doc, entity, e) also yield (e, entityOf, doc) — one broadcast
    gather per batch, zero shuffle. Output = the DISTINCT inferred
    direction; mirrored as a projection swap."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.reason import OWL_INVERSE_OF, owl_materialize

    schema = pa.table({
        "subj": [f"{EX}entity"], "pred": [OWL_INVERSE_OF],
        "obj": [f"{EX}entityOf"]})
    base = q_kg_csvw_triples(sf_dir).map_batches(
        lambda b: b.select(["subj", "pred", "obj"]),
        batch_format="pyarrow")
    closed = owl_materialize(base, schema)
    inv = closed.map_batches(
        lambda b: b.filter(
            pc.equal(b["pred"], f"{EX}entityOf")).select(["subj", "obj"]),
        batch_format="pyarrow").map_batches(
        lambda b: pa.table({"e": b["subj"], "d": b["obj"]}),
        batch_format="pyarrow")
    return distinct(inv, ["e", "d"], num_buckets=8)


def q_kg_functional_check(sf_dir: str):
    """owl:FunctionalProperty conformance over a MERGED corpus: after
    the sameAs canonicalization collapses a doc's row-variants into one
    subject, each merged subject carries 3 distinct ex:entity values —
    exactly the post-merge integrity failure the check exists to catch.
    distinct → map-side-combined count → n > 1; mirrored with
    COUNT(DISTINCT) HAVING."""
    from cattle_ray.stages.reason import functional_violations

    merged = q_kg_sameas_rewrite(sf_dir).map_batches(
        lambda b: pa.table({"subj": b["s"], "pred": b["p"],
                            "obj": b["o"]}),
        batch_format="pyarrow")
    return functional_violations(merged, preds=[f"{EX}entity"],
                                 num_buckets=8)


def q_kg_federated(sf_dir: str):
    """Federated store query: the corpus split into TWO stores by rank
    parity (a daily-crawl layout), then one BGP evaluated over the LIST
    of stores — each pattern's pruned scan unions across stores before
    the joins, so the shards are queried without ever merging them.
    The split is a partition (no row in both stores), so the federation
    equals the query over the whole corpus — the mirror."""
    import tempfile

    import ray.data as rd

    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned
    from cattle_ray.stages.bgp import evaluate_bgp_store

    triples = q_kg_csvw_triples(sf_dir).materialize()
    dirs = []
    for parity in (0, 1):
        def pick(b: pa.Table, parity=parity) -> pa.Table:
            # subjects end …/r{1..3}: route by the digit's parity —
            # a deterministic split with no overlap
            last = pc.utf8_slice_codeunits(b["subj"], start=-1)
            d = pc.cast(last, pa.int64())
            return b.filter(pc.equal(pc.bit_wise_and(d, 1), parity))

        out_dir = tempfile.mkdtemp(prefix=f"kg_fed_{parity}_",
                                   dir="/tmp")
        import shutil

        shutil.rmtree(out_dir)
        write_triples_hash_partitioned(
            triples.map_batches(pick, batch_format="pyarrow"),
            out_dir, num_partitions=4)
        dirs.append(out_dir)
    return evaluate_bgp_store(
        dirs,
        [("?s", f"{EX}entity", "?e"), ("?s", f"{EX}rank", "?r")],
        select=["?s", "?e", "?r"], num_buckets=8)


def q_kg_sparql_service(sf_dir: str):
    """Textual SPARQL federation (VERDICT r4 order #9): the corpus
    split by PREDICATE into two stores (entity facts vs rank facts —
    a subject-vertical layout), then ``SERVICE <store:dir> {…}``
    evaluates its group against the OTHER store and joins the finished
    bindings onto the outer solutions on the shared variable — the
    engine's multi-store machinery driven from query text. The split
    is a partition, so the result equals the one-corpus join — the
    same mirror as kg_federated."""
    import shutil
    import tempfile

    import ray.data as rd

    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned
    from cattle_ray.stages.sparql import sparql

    triples = q_kg_csvw_triples(sf_dir).materialize()
    dirs = []
    for pred in ("entity", "rank"):
        out_dir = tempfile.mkdtemp(prefix=f"kg_svc_{pred}_", dir="/tmp")
        shutil.rmtree(out_dir)
        write_triples_hash_partitioned(
            triples.filter(expr=f"pred == '{EX}{pred}'"),
            out_dir, num_partitions=4)
        dirs.append(out_dir)
    return sparql(dirs[0], f"""
        PREFIX ex: <{EX}>
        SELECT ?s ?e ?r WHERE {{
          ?s ex:entity ?e .
          SERVICE <store:{dirs[1]}> {{ ?s ex:rank ?r . }}
        }}""", num_buckets=8)


def q_kg_sameas_rewrite(sf_dir: str):
    """owl:sameAs canonicalization (stages/reason.py): every doc subject
    has 3 row-variants ``…#t0/r{1,2,3}``; synthetic sameAs CHAIN edges
    (r2→r1, r3→r2) force a transitive resolution — distributed CC over
    the pair graph, min-string canonical (…/r1), then every triple's
    subject rewrites through the size-crossover mapping (broadcast at
    this scale). Mirrored as a regex rewrite of the subject suffix."""
    from cattle_ray.stages.reason import OWL_SAMEAS, sameas_rewrite

    base = q_kg_csvw_triples(sf_dir).map_batches(
        lambda b: b.select(["subj", "pred", "obj"]),
        batch_format="pyarrow")

    def chain_pairs(b: pa.Table) -> pa.Table:
        # rank rows carry r as the object: rows with r in (2, 3) emit
        # (subj, sameAs, subj-with-r-1) — vectorized suffix surgery
        # (r is a single digit by construction)
        m = pc.is_in(b["obj"], value_set=pa.array(["2", "3"]))
        t = b.filter(pc.and_(m, pc.equal(b["pred"], f"{EX}rank")))
        subj = t["subj"]
        if isinstance(subj, pa.ChunkedArray):
            subj = subj.combine_chunks()
        stem = pc.utf8_slice_codeunits(subj, start=0, stop=-1)
        prev = pc.cast(pc.subtract(pc.cast(t["obj"], pa.int64()), 1),
                       pa.string())
        return pa.table({
            "subj": subj,
            "pred": pa.array([OWL_SAMEAS] * len(t), pa.string()),
            "obj": pc.binary_join_element_wise(stem, prev, ""),
        })

    sameas = q_kg_csvw_triples(sf_dir).map_batches(
        chain_pairs, batch_format="pyarrow")
    out = sameas_rewrite(base.union(sameas), num_buckets=8)
    return out.map_batches(
        lambda b: pa.table({"s": b["subj"], "p": b["pred"],
                            "o": b["obj"]}),
        batch_format="pyarrow")


def q_kg_sparql_strfns(sf_dir: str):
    """SPARQL string functions in BIND (REPLACE with $N group refs →
    RE2, STRAFTER via anchored extract_regex — no-match lowers to ""
    per spec while NULL inputs stay NULL). Mirrored with
    regexp_replace/substr."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        SELECT ?s ?num ?tag WHERE {{
          ?s ex:name ?n .
          BIND(STRAFTER(?n, "Entity") AS ?num)
          BIND(REPLACE(?n, "Entity([0-9]+)", "E$1") AS ?tag)
        }}""", num_buckets=8)


def q_kg_sparql_numfns(sf_dir: str):
    """XPath numeric functions in BIND — FLOOR/CEIL/ROUND over a
    decimal division (ranks are positive, so DuckDB's
    ties-away-from-zero round agrees with fn:round's ties-toward-+inf).
    Mirrored with floor/ceil/round over CAST AS DOUBLE."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?s ?f ?c ?r2 WHERE {{
          ?s ex:rank ?r .
          BIND(xsd:decimal(?r) / 2 AS ?h)
          BIND(FLOOR(?h) AS ?f) BIND(CEIL(?h) AS ?c)
          BIND(ROUND(?h) AS ?r2)
        }}""", num_buckets=8)


def q_kg_sparql_groupexpr(sf_dir: str):
    """GROUP BY over an expression — ``GROUP BY (SUBSTR(?n, 7, 1) AS
    ?k)`` lowers to a pre-group BIND so the engine's map-side-combined
    count groups on a computed key. Mirrored as GROUP BY substr."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        SELECT ?k (COUNT(*) AS ?n) WHERE {{
          ?s ex:name ?nm .
        }} GROUP BY (SUBSTR(?nm, 7, 1) AS ?k)""", num_buckets=8)


def q_kg_sparql_aggexpr(sf_dir: str):
    """Aggregate over an expression — SUM(xsd:integer(?r) * ?w) where
    both factors are term columns: the parser lowers the argument to a
    fresh pre-group BIND, so the engine's map-side-combined grouped sum
    sees a plain column. Mirrored as SUM(CAST * CAST)."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?e (SUM(xsd:integer(?r) * xsd:integer(?v)) AS ?t) WHERE {{
          ?s ex:entity ?e ; ex:rank ?r ; ex:score ?v .
        }} GROUP BY ?e""", num_buckets=8)


def q_kg_sparql_seqpath(sf_dir: str):
    """SPARQL 1.1 SequencePath through the text layer:
    ``?d ex:entity/^ex:entity ?d2`` — a forward hop composed with an
    INVERSE hop via the spec's fresh-variable translation (the
    intermediate entity is an existential ``?_anon_`` column, hidden
    from the projection), giving co-mention pairs; the FILTER keeps one
    ordered copy per pair. Mirrored as a self-join on the entity
    object."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        SELECT ?d ?d2 WHERE {{
          ?d ex:entity/^ex:entity ?d2 .
          FILTER(?d < ?d2)
        }}""", num_buckets=8)


def q_kg_sparql_star_unbound(sf_dir: str):
    """ZeroOrMorePath with BOTH endpoints variable, range-restricted by
    a sibling pattern (VERDICT r4 order #2): ``?d ex:entity ?e . ?e
    ex:broader* ?a`` — the planner defers the star, the entity pattern
    restricts ``?e``, and the path lowers to the path kernel SEEDED
    with ``?e``'s distinct values (graph.closure at {0,∞}: each seed's
    reach stays separate; its (seed, seed) rows are SPARQL's zero-length
    path). The broader
    tree is the same synthetic Entity<i> → Entity<i//2> hierarchy as
    kg_bgp_path. Mirrored as a DuckDB RECURSIVE CTE."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.sparql import sparql

    ent_triples = q_kg_csvw_triples(sf_dir).filter(
        expr=f"pred == '{EX}entity'").map_batches(
        lambda b: b.select(["subj", "pred", "obj"]),
        batch_format="pyarrow")
    ents = distinct(
        ent_triples.map_batches(lambda b: pa.table({"ent": b["obj"]}),
                                batch_format="pyarrow"), ["ent"])

    def broader(b: pa.Table) -> pa.Table:
        ent = b["ent"]
        if isinstance(ent, pa.ChunkedArray):
            ent = ent.combine_chunks()
        i = pc.cast(pc.replace_substring_regex(
            ent, r"^.*Entity(\d+)$", r"\1"), pa.int64())
        keep = pc.greater_equal(i, 1)
        child = ent.filter(keep)
        parent = pc.binary_join_element_wise(
            pa.array([ENTITY_PREFIX] * len(child)),
            pc.cast(pc.divide(i.filter(keep), 2), pa.string()), "")
        return pa.table({"subj": child,
                         "pred": pa.array([EX + "broader"] * len(child)),
                         "obj": parent})

    tr = ent_triples.union(ents.map_batches(broader,
                                            batch_format="pyarrow"))
    return sparql(tr, f"""
        PREFIX ex: <{EX}>
        SELECT DISTINCT ?e ?a WHERE {{
          ?d ex:entity ?e .
          ?e ex:broader* ?a .
        }}""", num_buckets=8)


def q_kg_sparql_hashfns(sf_dir: str):
    """SPARQL hash / URI-escape / date-accessor builtins through the
    text layer: MD5(?e) (per-row hashlib, DuckDB md5 mirror),
    ENCODE_FOR_URI (RFC 3986 unreserved set, vectorized clean-row fast
    path), and YEAR over a BIND-constructed xsd:dateTime lexical
    (strptime both sides). NOW()/RAND()/UUID() are rejected with the
    layout-invariance rationale."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        SELECT ?s ?h ?u ?y WHERE {{
          ?s ex:entity ?e ; ex:name ?n ; ex:rank ?r .
          BIND(MD5(?e) AS ?h)
          BIND(ENCODE_FOR_URI(CONCAT(?n, " #", ?r)) AS ?u)
          BIND(YEAR(CONCAT("200", ?r, "-03-05T10:20:30")) AS ?y)
        }}""", num_buckets=8)


def q_kg_sparql_quant_path(sf_dir: str):
    """Bounded path quantifier ``p{n,m}`` through the text layer
    (VERDICT r4 order #3): ``?e ex:broader{1,2} ?a`` over the synthetic
    broader tree — pairs connected by exactly 1 or 2 hops, SET
    semantics per pair, evaluated by the path kernel's exact-length
    levels (level k = level k-1 ⋈ edges, distinct per level). Mirrored
    as the 1-hop ∪ 2-hop SQL join chain."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.sparql import sparql

    ents = distinct(
        q_kg_csvw_triples(sf_dir)
        .filter(expr=f"pred == '{EX}entity'")
        .map_batches(lambda b: pa.table({"ent": b["obj"]}),
                     batch_format="pyarrow"),
        ["ent"])

    def broader(b: pa.Table) -> pa.Table:
        ent = b["ent"]
        if isinstance(ent, pa.ChunkedArray):
            ent = ent.combine_chunks()
        i = pc.cast(pc.replace_substring_regex(
            ent, r"^.*Entity(\d+)$", r"\1"), pa.int64())
        keep = pc.greater_equal(i, 1)
        child = ent.filter(keep)
        parent = pc.binary_join_element_wise(
            pa.array([ENTITY_PREFIX] * len(child)),
            pc.cast(pc.divide(i.filter(keep), 2), pa.string()), "")
        return pa.table({"subj": child,
                         "pred": pa.array([EX + "broader"] * len(child)),
                         "obj": parent})

    tr = ents.map_batches(broader, batch_format="pyarrow")
    return sparql(tr, f"""
        PREFIX ex: <{EX}>
        SELECT DISTINCT ?e ?a WHERE {{
          ?e ex:broader{{1,2}} ?a .
        }}""", num_buckets=8)


def q_kg_sparql_group_path(sf_dir: str):
    """Grouped property path ``(p1/p2)+`` through the text layer
    (ROADMAP r5 item 1): ``?e (ex:broader/ex:broader)+ ?a`` over the
    synthetic broader tree — the parenthesized sequence becomes ONE
    composite grandparent edge set (i → i//4, built by a
    co-partitioned join of the two hops), then the path kernel closes
    it like any path. Mirrored as the unrolled grandparent-hop join
    chain."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.sparql import sparql

    ents = distinct(
        q_kg_csvw_triples(sf_dir)
        .filter(expr=f"pred == '{EX}entity'")
        .map_batches(lambda b: pa.table({"ent": b["obj"]}),
                     batch_format="pyarrow"),
        ["ent"])

    def broader(b: pa.Table) -> pa.Table:
        ent = b["ent"]
        if isinstance(ent, pa.ChunkedArray):
            ent = ent.combine_chunks()
        i = pc.cast(pc.replace_substring_regex(
            ent, r"^.*Entity(\d+)$", r"\1"), pa.int64())
        keep = pc.greater_equal(i, 1)
        child = ent.filter(keep)
        parent = pc.binary_join_element_wise(
            pa.array([ENTITY_PREFIX] * len(child)),
            pc.cast(pc.divide(i.filter(keep), 2), pa.string()), "")
        return pa.table({"subj": child,
                         "pred": pa.array([EX + "broader"] * len(child)),
                         "obj": parent})

    tr = ents.map_batches(broader, batch_format="pyarrow")
    return sparql(tr, f"""
        PREFIX ex: <{EX}>
        SELECT DISTINCT ?e ?a WHERE {{
          ?e (ex:broader/ex:broader)+ ?a .
        }}""", num_buckets=8)


def q_kg_owl_chain(sf_dir: str):
    """owl:propertyChainAxiom (ROADMAP r5 item 2): declaring
    ``ex:grandBroader owl:propertyChainAxiom (ex:broader ex:broader)``
    over the synthetic broader tree materializes the grandparent
    relation by one bounded composition join (reason.owl_materialize's
    chain path). Mirrored as the par-self-join."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.reason import (OWL_CHAIN, RDF_FIRST, RDF_NIL,
                                          RDF_REST, owl_materialize)

    ents = distinct(
        q_kg_csvw_triples(sf_dir)
        .filter(expr=f"pred == '{EX}entity'")
        .map_batches(lambda b: pa.table({"ent": b["obj"]}),
                     batch_format="pyarrow"),
        ["ent"])

    def broader(b: pa.Table) -> pa.Table:
        ent = b["ent"]
        if isinstance(ent, pa.ChunkedArray):
            ent = ent.combine_chunks()
        i = pc.cast(pc.replace_substring_regex(
            ent, r"^.*Entity(\d+)$", r"\1"), pa.int64())
        keep = pc.greater_equal(i, 1)
        child = ent.filter(keep)
        parent = pc.binary_join_element_wise(
            pa.array([ENTITY_PREFIX] * len(child)),
            pc.cast(pc.divide(i.filter(keep), 2), pa.string()), "")
        return pa.table({"subj": child,
                         "pred": pa.array([EX + "broader"] * len(child)),
                         "obj": parent})

    tr = ents.map_batches(broader, batch_format="pyarrow")
    schema = pa.table({
        "subj": [EX + "grandBroader", "_:l1", "_:l1", "_:l2", "_:l2"],
        "pred": [OWL_CHAIN, RDF_FIRST, RDF_REST, RDF_FIRST, RDF_REST],
        "obj": ["_:l1", EX + "broader", "_:l2", EX + "broader",
                RDF_NIL]})
    closed = owl_materialize(tr, schema, num_buckets=8)
    out = closed.filter(
        expr=f"pred == '{EX}grandBroader'").map_batches(
        lambda b: pa.table({"e": b["subj"], "g": b["obj"]}),
        batch_format="pyarrow")
    return distinct(out, ["e", "g"], num_buckets=8)


def q_kg_sparql_graph_path(sf_dir: str):
    """GRAPH-VARIABLE transitive path (``GRAPH ?g { ?e broader+ ?a }``)
    — previously rejected ("one closure per graph"): the graph now
    embeds into the edge key (``g\\x1fs`` pairs join only within
    their own graph), so EVERY graph's closure computes in ONE
    closure run with no per-graph loop or driver enumeration.
    Broader edges split across two parity graphs; mirrored as the
    unrolled join chain with per-hop graph equality."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.sparql import sparql

    ents = distinct(
        q_kg_csvw_triples(sf_dir)
        .filter(expr=f"pred == '{EX}entity'")
        .map_batches(lambda b: pa.table({"ent": b["obj"]}),
                     batch_format="pyarrow"),
        ["ent"])

    def broader(b: pa.Table) -> pa.Table:
        ent = b["ent"]
        if isinstance(ent, pa.ChunkedArray):
            ent = ent.combine_chunks()
        i = pc.cast(pc.replace_substring_regex(
            ent, r"^.*Entity(\d+)$", r"\1"), pa.int64())
        keep = pc.greater_equal(i, 1)
        child = ent.filter(keep)
        ik = i.filter(keep)
        parent = pc.binary_join_element_wise(
            pa.array([ENTITY_PREFIX] * len(child)),
            pc.cast(pc.divide(ik, 2), pa.string()), "")
        graph = pc.binary_join_element_wise(
            pa.array(["https://example.org/graph/"] * len(child)),
            pc.cast(pc.bit_wise_and(ik, 1), pa.string()), "")
        return pa.table({"subj": child,
                         "pred": pa.array([EX + "broader"] * len(child)),
                         "obj": parent, "graph": graph})

    tr = ents.map_batches(broader, batch_format="pyarrow")
    return sparql(tr, f"""
        PREFIX ex: <{EX}>
        SELECT DISTINCT ?g ?e ?a WHERE {{
          GRAPH ?g {{ ?e ex:broader+ ?a . }}
        }}""", num_buckets=8)


def q_kg_sparql_negprop(sf_dir: str):
    """Negated property set (``!(p1|p2|p3)``) through the text layer:
    edges whose predicate is NONE of the named ones — lowers to a fresh
    predicate variable + a vectorized ``not_in`` filter (NULL-safe:
    SPARQL error-is-false). Mirrored as ``pred NOT IN (...)``."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        SELECT ?s ?o WHERE {{
          ?s !(ex:rank|ex:score|ex:name) ?o .
        }}""", num_buckets=8)


def q_kg_sparql_or(sf_dir: str):
    """Disjunctive FILTER (``a || b``) through the text layer: branch
    masks OR with Kleene three-valued semantics, one vectorized map —
    never a UNION rewrite. The numeric branch casts the term column (SQL
    CAST discipline); mirrored as an SQL OR."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        SELECT ?s ?r ?v WHERE {{
          ?s ex:rank ?r ; ex:score ?v .
          FILTER(?r = "3" || ?v < 100)
        }}""", num_buckets=8)


def q_kg_sparql_sample(sf_dir: str):
    """SAMPLE aggregate through the text layer: SPARQL leaves the pick
    unspecified, the engine takes MIN — the only deterministic,
    layout-invariant choice — so the oracle mirrors with min(subj)."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        SELECT ?e (SAMPLE(?s) AS ?rep) (COUNT(*) AS ?n) WHERE {{
          ?s ex:entity ?e .
        }} GROUP BY ?e""", num_buckets=8)


def q_kg_sparql_subquery(sf_dir: str):
    """SPARQL subquery through the text layer: an aggregating
    ``{ SELECT ?e (COUNT(*) AS ?n) ... GROUP BY ?e }`` evaluates
    bottom-up to its own bindings stream, then joins onto the outer
    pattern's solutions on the shared variable (the engine's
    ``subselects`` join) — the classic "each mention with its entity's
    total mention count" shape. Mirrored as a windowless SQL
    join-to-grouped-CTE."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        SELECT ?s ?e ?n WHERE {{
          ?s ex:entity ?e .
          {{ SELECT ?e (COUNT(*) AS ?n) WHERE {{ ?x ex:entity ?e }}
             GROUP BY ?e }}
        }}""", num_buckets=8)


def q_kg_bgp_path(sf_dir: str):
    """SPARQL 1.1 property path (``pred+``) through the BGP layer: the
    synthetic subclass tree (Entity<i> broader Entity<i//2>) as real
    broader-triples, then ``?e broader+ ?a`` — unseeded {1,∞}, so the
    path kernel (graph.closure) closes the pattern's whole edge set (the
    in-process level loop with level 1 = every edge at this size, path
    doubling above SMALL_CLOSURE_EDGES), DISTINCT over the (descendant,
    ancestor) pairs."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.bgp import evaluate_bgp

    ents = distinct(
        q_kg_csvw_triples(sf_dir)
        .filter(expr=f"pred == '{EX}entity'")
        .map_batches(lambda b: pa.table({"ent": b["obj"]}),
                     batch_format="pyarrow"),
        ["ent"])

    def broader(b: pa.Table) -> pa.Table:
        ent = b["ent"]
        if isinstance(ent, pa.ChunkedArray):
            ent = ent.combine_chunks()
        i = pc.cast(pc.replace_substring_regex(
            ent, r"^.*Entity(\d+)$", r"\1"), pa.int64())
        keep = pc.greater_equal(i, 1)
        child = ent.filter(keep)
        parent = pc.binary_join_element_wise(
            pa.array([ENTITY_PREFIX] * len(child)),
            pc.cast(pc.divide(i.filter(keep), 2), pa.string()), "")
        return pa.table({"subj": child,
                         "pred": pa.array([EX + "broader"] * len(child)),
                         "obj": parent})

    tr = ents.map_batches(broader, batch_format="pyarrow")
    return evaluate_bgp(tr, [("?e", EX + "broader+", "?a")],
                        distinct=True, num_buckets=8)


def q_kg_bgp_star_path(sf_dir: str):
    """SPARQL 1.1 ZeroOrMorePath (``pred*``) with a bound endpoint: over
    the same synthetic broader-tree as kg_bgp_path, ``?e broader*
    Entity3`` runs as the path kernel seeded with the constant (a
    visited-pruned frontier over the reversed edges: rounds ∝ real depth,
    visits only the reachable neighbourhood) and includes the
    zero-length identity row. Mirrored as a 5-level
    unrolled downward join plus the identity literal."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.bgp import evaluate_bgp

    ents = distinct(
        q_kg_csvw_triples(sf_dir)
        .filter(expr=f"pred == '{EX}entity'")
        .map_batches(lambda b: pa.table({"ent": b["obj"]}),
                     batch_format="pyarrow"),
        ["ent"])

    def broader(b: pa.Table) -> pa.Table:
        ent = b["ent"]
        if isinstance(ent, pa.ChunkedArray):
            ent = ent.combine_chunks()
        i = pc.cast(pc.replace_substring_regex(
            ent, r"^.*Entity(\d+)$", r"\1"), pa.int64())
        keep = pc.greater_equal(i, 1)
        child = ent.filter(keep)
        parent = pc.binary_join_element_wise(
            pa.array([ENTITY_PREFIX] * len(child)),
            pc.cast(pc.divide(i.filter(keep), 2), pa.string()), "")
        return pa.table({"subj": child,
                         "pred": pa.array([EX + "broader"] * len(child)),
                         "obj": parent})

    tr = ents.map_batches(broader, batch_format="pyarrow")
    return evaluate_bgp(tr, [("?e", EX + "broader*",
                              f"{ENTITY_PREFIX}3")],
                        distinct=True, num_buckets=8)


def q_kg_bgp_opt_path(sf_dir: str):
    """SPARQL 1.1 ZeroOrOnePath (``pred?``) with a bound endpoint: over
    kg_bgp_star_path's broader-tree, ``?e broader? Entity3`` is exactly
    the identity row plus Entity3's direct children — the path kernel
    at {0,1}: the seed unioned with its one-hop level, DISTINCT per the
    spec's ALP set semantics. Mirrored as identity UNION one join."""
    from cattle_ray.stages.aggregates import distinct
    from cattle_ray.stages.bgp import evaluate_bgp

    ents = distinct(
        q_kg_csvw_triples(sf_dir)
        .filter(expr=f"pred == '{EX}entity'")
        .map_batches(lambda b: pa.table({"ent": b["obj"]}),
                     batch_format="pyarrow"),
        ["ent"])

    def broader(b: pa.Table) -> pa.Table:
        ent = b["ent"]
        if isinstance(ent, pa.ChunkedArray):
            ent = ent.combine_chunks()
        i = pc.cast(pc.replace_substring_regex(
            ent, r"^.*Entity(\d+)$", r"\1"), pa.int64())
        keep = pc.greater_equal(i, 1)
        child = ent.filter(keep)
        parent = pc.binary_join_element_wise(
            pa.array([ENTITY_PREFIX] * len(child)),
            pc.cast(pc.divide(i.filter(keep), 2), pa.string()), "")
        return pa.table({"subj": child,
                         "pred": pa.array([EX + "broader"] * len(child)),
                         "obj": parent})

    tr = ents.map_batches(broader, batch_format="pyarrow")
    return evaluate_bgp(tr, [("?e", EX + "broader?",
                              f"{ENTITY_PREFIX}3")],
                        distinct=True, num_buckets=8)


def q_kg_bgp_groupby(sf_dir: str):
    """SPARQL GROUP BY through the query layer proper (``SELECT ?e
    (COUNT(*) AS ?n) (SUM(?r) AS ?total) … GROUP BY ?e`` with ORDER BY +
    LIMIT): the aggregation delegates to the engine's map-side-combined
    grouped_sums, then the solution modifiers run over the aggregated
    table — the full SPARQL algebra order in one declarative call."""
    from cattle_ray.stages.bgp import evaluate_bgp

    return evaluate_bgp(
        q_kg_csvw_triples(sf_dir),
        [("?s", EX + "entity", "?e"), ("?s", EX + "rank", "?r")],
        group_by=["?e"], agg={"n": "count", "total": ("sum", "?r")},
        order_by=[("?total", "descending"), "?e"], limit=25,
        num_buckets=8)


def q_kg_bgp_obj_route(sf_dir: str):
    """Secondary-index-AWARE BGP planning: the primary store is
    subject-routed, a FRESH obj-routed secondary index sits beside it,
    and the obj-bound pattern ``?s entity "Entity7" . ?s rank ?r``
    routes its scan to the index's 1/P point read instead of scanning
    every primary partition (``evaluate_bgp_store(...,
    obj_index_dir=...)``); the rank pattern still scans the primary
    with pred pushdown. The oracle checks the whole
    build-index→route→join roundtrip."""
    import tempfile

    from cattle_ray.sources.triple_sink import (
        build_secondary_index, write_triples_hash_partitioned)
    from cattle_ray.stages.bgp import evaluate_bgp_store

    out_dir = tempfile.mkdtemp(prefix="kg_bgp_objroute_", dir="/tmp")
    idx_dir = out_dir.rstrip("/") + "_idx"
    write_triples_hash_partitioned(q_kg_csvw_triples(sf_dir), out_dir,
                                   num_partitions=8)
    build_secondary_index(out_dir, idx_dir, key="obj")
    ent = "https://example.org/id/entity/Entity7"
    return evaluate_bgp_store(
        out_dir, [("?s", EX + "entity", ent),
                  ("?s", EX + "rank", "?r")],
        obj_index_dir=idx_dir, num_buckets=4)


def q_kg_federated_obj_route(sf_dir: str):
    """Per-store obj-index routing in a FEDERATED query (VERDICT r4
    order #7): the corpus splits into two subject-parity stores, each
    gets its own obj-routed secondary index, and the obj-bound pattern
    routes EACH store's scan to ITS index's 1/P point read (the rank
    pattern still scans each primary with pred pushdown). The split is
    a partition, so the mirror is kg_bgp_obj_route's whole-corpus
    join; the partitions-not-opened proof lives in
    tests/test_bgp.py::test_obj_index_routing_federated."""
    import shutil
    import tempfile

    from cattle_ray.sources.triple_sink import (
        build_secondary_index, write_triples_hash_partitioned)
    from cattle_ray.stages.bgp import evaluate_bgp_store

    triples = q_kg_csvw_triples(sf_dir).materialize()
    dirs, idxs = [], []
    for parity in (0, 1):
        def pick(b: pa.Table, parity=parity) -> pa.Table:
            last = pc.utf8_slice_codeunits(b["subj"], start=-1)
            d = pc.cast(last, pa.int64())
            return b.filter(pc.equal(pc.bit_wise_and(d, 1), parity))

        out_dir = tempfile.mkdtemp(prefix=f"kg_fedidx_{parity}_",
                                   dir="/tmp")
        shutil.rmtree(out_dir)
        write_triples_hash_partitioned(
            triples.map_batches(pick, batch_format="pyarrow"),
            out_dir, num_partitions=4)
        idx_dir = out_dir + "_idx"
        build_secondary_index(out_dir, idx_dir, key="obj")
        dirs.append(out_dir)
        idxs.append(idx_dir)
    ent = "https://example.org/id/entity/Entity7"
    return evaluate_bgp_store(
        dirs, [("?s", EX + "entity", ent), ("?s", EX + "rank", "?r")],
        obj_index_dir=idxs, num_buckets=4)


def q_kg_bgp_union(sf_dir: str):
    """SPARQL UNION (``{ ?s rank ?r } UNION { ?s score ?v }``): branch
    solutions concatenate with NULL for the variable the other branch
    binds — a metadata-level ``Dataset.union``, no shuffle. The SQL
    mirror is UNION ALL with explicit NULL columns, pinning the padding
    semantics (bag union, not set)."""
    from cattle_ray.stages.bgp import evaluate_bgp

    return evaluate_bgp(
        q_kg_csvw_triples(sf_dir), [],
        union=[[("?s", EX + "rank", "?r")],
               [("?s", EX + "score", "?v")]],
        num_buckets=8)


def q_kg_bgp_bind(sf_dir: str):
    """SPARQL BIND (computed bindings): ``?s entity ?e . ?s rank ?r .
    BIND(CONCAT(?e, "#", ?r) AS ?tag) BIND(xsd:integer(?r)*10 AS ?r10)``
    — vectorized pyarrow expression columns appended to the binding
    stream, referenced by the projection. Exact int64 arithmetic
    (mirrored as CAST … AS BIGINT in SQL)."""
    from cattle_ray.stages.bgp import evaluate_bgp

    return evaluate_bgp(
        q_kg_csvw_triples(sf_dir),
        [("?s", EX + "entity", "?e"), ("?s", EX + "rank", "?r")],
        bind=[("?tag", ("concat", "?e", "#", "?r")),
              ("?r10", ("mul", ("int", "?r"), 10))],
        select=["?s", "?tag", "?r10"],
        num_buckets=8)


def q_kg_bgp_exists(sf_dir: str):
    """SPARQL FILTER EXISTS: ``?s score ?v . FILTER EXISTS { ?s rank "2"
    }`` — a distinct-witness SEMI-join (the positive twin of MINUS): the
    witness group's solutions never duplicate required rows, only gate
    them. SQL mirror is a correlated EXISTS subquery."""
    from cattle_ray.stages.bgp import evaluate_bgp

    return evaluate_bgp(
        q_kg_csvw_triples(sf_dir),
        [("?s", EX + "score", "?v")],
        exists=[[("?s", EX + "rank", "2")]],
        num_buckets=8)


def q_kg_bgp_values(sf_dir: str):
    """SPARQL VALUES (a literal solution table): ``?s name ?ent .
    VALUES (?ent ?tier) { ("Entity7" "gold") ("Entity11" "silver") }``
    — the block pins ?ent to the listed names AND binds the new ?tier
    column per row (a broadcast-small join, mirrored by DuckDB's VALUES
    derived table)."""
    from cattle_ray.stages.bgp import evaluate_bgp

    return evaluate_bgp(
        q_kg_csvw_triples(sf_dir),
        [("?s", EX + "name", "?ent")],
        values=(["?ent", "?tier"],
                [("Entity7", "gold"), ("Entity11", "silver")]),
        num_buckets=8)


def q_kg_bgp_count_distinct(sf_dir: str):
    """SPARQL COUNT(DISTINCT ?v) alongside COUNT(*): per entity name,
    the number of (name, score) solutions and the number of DISTINCT
    score values — the distinct runs as its own map-side-combined
    distinct→count exchange left-joined back by the group keys
    (all-null groups count 0, like SQL)."""
    from cattle_ray.stages.bgp import evaluate_bgp

    return evaluate_bgp(
        q_kg_csvw_triples(sf_dir),
        [("?s", EX + "name", "?e"), ("?s", EX + "score", "?v")],
        group_by=["?e"],
        agg={"n": "count", "n_scores": ("count_distinct", "?v")},
        num_buckets=8)


def q_kg_bgp_minmax(sf_dir: str):
    """SPARQL MIN/MAX/GROUP_CONCAT/SUM in ONE aggregation pass
    (``SELECT ?e (MIN(?r) …) (MAX(?r) …) (GROUP_CONCAT(?r; ",") …)
    (SUM(?r) …) GROUP BY ?e``) — the generalized grouped_agg emits every
    partial from one Arrow group_by per batch; the concat is SORTED
    (SPARQL leaves the order unspecified; sorted is the only
    layout-invariant choice, mirrored as string_agg ORDER BY)."""
    from cattle_ray.stages.bgp import evaluate_bgp

    return evaluate_bgp(
        q_kg_csvw_triples(sf_dir),
        [("?s", EX + "entity", "?e"), ("?s", EX + "rank", "?r")],
        group_by=["?e"],
        agg={"lo": ("min", "?r"), "hi": ("max", "?r"),
             "ranks": ("group_concat", "?r", ","),
             "total": ("sum", "?r"), "n": "count"},
        num_buckets=8)


def q_kg_sparql_update(sf_dir: str):
    """SPARQL UPDATE end to end (stages/sparql.sparql_update): write the
    csvw triples as a partitioned store, run ``DELETE { ?s rank ?r }
    INSERT { ?s hadRank ?r } WHERE { rank ?r, FILTER(?r >= 2) }`` — the
    WHERE evaluates store-side with read pruning, both templates
    instantiate from the PRE-update bindings, delete routes through the
    tracked hash-exchange anti-join and insert through the
    generation-tracked merge — then SELECT the final (s, p, o) state.
    The oracle recomputes the post-update state relationally."""
    import tempfile

    from cattle_ray.sources.triple_sink import \
        write_triples_hash_partitioned
    from cattle_ray.stages.sparql import sparql, sparql_update

    out_dir = tempfile.mkdtemp(prefix="kg_sparql_update_", dir="/tmp")
    write_triples_hash_partitioned(q_kg_csvw_triples(sf_dir), out_dir,
                                   num_partitions=8)
    sparql_update(out_dir, f"""
        PREFIX ex: <{EX}>
        DELETE {{ ?s ex:rank ?r . }}
        INSERT {{ ?s ex:hadRank ?r . }}
        WHERE {{ ?s ex:rank ?r . FILTER(?r >= 2) }}""", num_buckets=8)
    return sparql(out_dir,
                  "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }", num_buckets=8)


def q_kg_sparql_describe(sf_dir: str):
    """Textual ``DESCRIBE ?e WHERE { ?s entity ?e . ?s rank "3" }`` —
    describe every entity that carries rank 3: the DESCRIBE lowers to a
    DISTINCT CONSTRUCT over the group joined with the target's outgoing
    arcs, all through the oracle-checked algebra."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        DESCRIBE ?s WHERE {{ ?s ex:rank "3" . }}""", num_buckets=8)


def q_kg_sparql_datatype(sf_dir: str):
    """SPARQL DATATYPE() filter through the text layer: the converter's
    annotation side columns (obj_datatype) project as binding variables
    (``evaluate_bgp(annotations=)``) and the filter runs as an ordinary
    vectorized column comparison — xsd:integer-typed literals only,
    plain literals and IRIs drop."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        SELECT ?s ?v WHERE {{
          ?s ex:score ?v . FILTER(DATATYPE(?v) = xsd:integer)
        }}""", num_buckets=8)


def q_kg_sparql_isiri(sf_dir: str):
    """SPARQL isIRI() filter: the converter's obj_is_iri side column
    projects as an annotation binding (all-strings discipline — the
    bool casts to "true"/"false" at projection) and the filter is one
    vectorized equality. Only the entity triples' objects are IRIs, so
    the filter prunes 3/4 of the stream. Mirrored as WHERE obj_is_iri."""
    from cattle_ray.stages.sparql import sparql

    return sparql(q_kg_csvw_triples(sf_dir), f"""
        PREFIX ex: <{EX}>
        SELECT ?s ?p ?o WHERE {{
          ?s ?p ?o . FILTER(isIRI(?o))
        }}""", num_buckets=8)


def q_kg_bgp_graph(sf_dir: str):
    """Named-graph QUAD pattern (SPARQL ``GRAPH g { ?s rank ?r }``):
    each doc's triples land in a parity-derived graph, and the constant
    graph term filters map-side inside pattern_bindings — the reference's
    timestamped-graph discipline (F5) as a query surface."""
    import numpy as np

    from cattle_ray.stages.bgp import evaluate_bgp

    g0 = "https://example.org/graph/0"
    g1 = "https://example.org/graph/1"

    def with_graph(b: pa.Table) -> pa.Table:
        i = pc.cast(pc.replace_substring_regex(
            b["subj"], r"^.*doc/(\d+)#.*$", r"\1"), pa.int64())
        # fixture doc_ids are all ≡ 0 (mod 4) — parity of doc_id//4
        # actually splits the corpus across the two graphs
        par = (i.to_numpy(zero_copy_only=False) // 4) % 2
        return b.append_column(
            "graph", pa.array(np.where(par == 0, g0, g1).tolist()))

    tr = q_kg_csvw_triples(sf_dir).map_batches(with_graph,
                                               batch_format="pyarrow")
    return evaluate_bgp(tr, [("?s", EX + "rank", "?r", g0)], num_buckets=8)


def q_kg_bgp_store(sf_dir: str):
    """The same 3-pattern BGP as kg_bgp_chain, evaluated over the
    PARTITIONED STORE with per-pattern read pruning
    (:func:`~cattle_ray.stages.bgp.evaluate_bgp_store`): each pattern's
    constants push into its own parquet scan, so the rank pattern reads
    only rank row groups. The oracle checks the whole
    write→prune→match→join roundtrip."""
    import tempfile

    from cattle_ray.sources.triple_sink import write_triples_hash_partitioned
    from cattle_ray.stages.bgp import evaluate_bgp_store

    out_dir = tempfile.mkdtemp(prefix="kg_bgp_store_", dir="/tmp")
    write_triples_hash_partitioned(q_kg_csvw_triples(sf_dir), out_dir,
                                   num_partitions=8)
    return evaluate_bgp_store(out_dir, [
        ("?s", EX + "rank", "2"),
        ("?s", EX + "entity", "?e"),
        ("?s", EX + "score", "?v"),
    ], num_buckets=8)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "kg_extract_text": q_kg_extract_text,
        "kg_csvw_triples": q_kg_csvw_triples,
        "kg_openie": q_kg_openie,
        "kg_mentions": q_kg_mentions,
        "kg_canonicalize": q_kg_canonicalize,
        "kg_pred_freq": q_kg_pred_freq,
        "kg_subject_degree": q_kg_subject_degree,
        "kg_entity_cooccurrence": q_kg_entity_cooccurrence,
        "kg_pipeline": q_kg_pipeline,
        "doc_dedup": q_doc_dedup,
        "doc_token_count": q_doc_token_count,
        "doc_quality": q_doc_quality,
        "doc_fingerprint": q_doc_fingerprint,
        "doc_dup_spans": q_doc_dup_spans,
        "doc_bpe_vocab": q_doc_bpe_vocab,
        "doc_word_cooc": q_doc_word_cooc,
        "doc_lm_score": q_doc_lm_score,
        "doc_normalize": q_doc_normalize,
        "doc_sentence_stats": q_doc_sentence_stats,
        "doc_readability": q_doc_readability,
        "doc_training_export": q_doc_training_export,
        "doc_editdist_pairs": q_doc_editdist_pairs,
        "doc_lm_buckets": q_doc_lm_buckets,
        "doc_langid": q_doc_langid,
        "doc_minhash_pairs": q_doc_minhash_pairs,
        "doc_minhash_verified": q_doc_minhash_verified,
        "doc_simhash_pairs": q_doc_simhash_pairs,
        "doc_simhash_exact": q_doc_simhash_exact,
        "doc_corpus_dedup_verified": q_doc_corpus_dedup_verified,
        "doc_jaccard": q_doc_jaccard,
        "embed_knn": q_embed_knn,
        "embed_knn_ivf": q_embed_knn_ivf,
        "embed_neardup": q_embed_neardup,
        "events_hourly": q_events_hourly,
        "events_sessionize": q_events_sessionize,
        "events_asof_orders": q_events_asof_orders,
        "orders_customer_hashjoin": q_orders_customer_hashjoin,
        "revenue_by_nation": q_revenue_by_nation,
        "lineitem_basket_pairs": q_lineitem_basket_pairs,
        "lineitem_part_join": q_lineitem_part_join,
        "users_without_orders": q_users_without_orders,
        "shipping_priority": q_shipping_priority,
        "events_sliding_window": q_events_sliding_window,
        "kg_hits": q_kg_hits,
        "kg_pagerank": q_kg_pagerank,
        "doc_corpus_dedup": q_doc_corpus_dedup,
        "events_top_users": q_events_top_users,
        "events_top_per_user": q_events_top_per_user,
        "doc_train_split": q_doc_train_split,
        "events_value_quantiles": q_events_value_quantiles,
        "lineitem_agg": q_lineitem_agg,
        "orders_by_segment": q_orders_by_segment,
        "nation_region": q_nation_region,
        "multimodal_decode": q_multimodal_decode,
        "doc_repetition": q_doc_repetition,
        "doc_domain_sample": q_doc_domain_sample,
        "doc_decontaminate": q_doc_decontaminate,
        "embed_pca": q_embed_pca,
        "embed_quantize": q_embed_quantize,
        "doc_term_stats": q_doc_term_stats,
        "kg_graph_stats": q_kg_graph_stats,
        "events_users_approx": q_events_users_approx,
        "events_user_quantiles": q_events_user_quantiles,
        "kg_store_query": q_kg_store_query,
        "kg_adjacency": q_kg_adjacency,
        "doc_chunk_dedup": q_doc_chunk_dedup,
        "doc_incremental_dedup": q_doc_incremental_dedup,
        "doc_filter_pipeline": q_doc_filter_pipeline,
        "doc_collocations": q_doc_collocations,
        "kg_entity_resolution": q_kg_entity_resolution,
        "kg_triangle_count": q_kg_triangle_count,
        "doc_top_terms": q_doc_top_terms,
        "doc_tfidf": q_doc_tfidf,
        "events_funnel": q_events_funnel,
        "events_sorted_export": q_events_sorted_export,
        "events_running_sum": q_events_running_sum,
        "events_time_window": q_events_time_window,
        "customer_360": q_customer_360,
        "doc_bm25": q_doc_bm25,
        "events_frequent_paths": q_events_frequent_paths,
        "events_inter_arrival": q_events_inter_arrival,
        "events_window_dedup": q_events_window_dedup,
        "events_watermark_ingest": q_events_watermark_ingest,
        "events_hopping_counts": q_events_hopping_counts,
        "events_session_stream": q_events_session_stream,
        "events_attribution": q_events_attribution,
        "events_hourly_users": q_events_hourly_users,
        "embed_kmeans": q_embed_kmeans,
        "embed_semantic_dedup": q_embed_semantic_dedup,
        "doc_chunk_rebuild": q_doc_chunk_rebuild,
        "events_props_sum": q_events_props_sum,
        "doc_mixture": q_doc_mixture,
        "doc_pack_sequences": q_doc_pack_sequences,
        "doc_pii_redact": q_doc_pii_redact,
        "doc_inverted_index": q_doc_inverted_index,
        "doc_search": q_doc_search,
        "kg_bfs": q_kg_bfs,
        "kg_snapshot_diff": q_kg_snapshot_diff,
        "doc_boilerplate": q_doc_boilerplate,
        "kg_taxonomy_rollup": q_kg_taxonomy_rollup,
        "events_user_zscore": q_events_user_zscore,
        "events_tier_join": q_events_tier_join,
        "doc_related_pairs": q_doc_related_pairs,
        "doc_rollup": q_doc_rollup,
        "kg_walks": q_kg_walks,
        "kg_kcore": q_kg_kcore,
        "kg_negative_samples": q_kg_negative_samples,
        "doc_heavy_terms": q_doc_heavy_terms,
        "events_profile": q_events_profile,
        "events_quantiles_approx": q_events_quantiles_approx,
        "events_reach_by_type": q_events_reach_by_type,
        "events_user_quantiles_approx": q_events_user_quantiles_approx,
        "events_cohort_retention": q_events_cohort_retention,
        "events_cube": q_events_cube,
        "events_gapfill": q_events_gapfill,
        "events_user_paths": q_events_user_paths,
        "events_value_mad": q_events_value_mad,
        "events_moving_avg": q_events_moving_avg,
        "events_anomaly": q_events_anomaly,
        "kg_degree_distribution": q_kg_degree_distribution,
        "doc_length_rank": q_doc_length_rank,
        "lineitem_corr": q_lineitem_corr,
        "events_day_over_day": q_events_day_over_day,
        "events_rolling_active": q_events_rolling_active,
        "events_dominant_type": q_events_dominant_type,
        "events_latest": q_events_latest,
        "events_orders_outer": q_events_orders_outer,
        "events_value_ntile": q_events_value_ntile,
        "events_type_pivot": q_events_type_pivot,
        "doc_corpus_report": q_doc_corpus_report,
        "events_value_hist": q_events_value_hist,
        "kg_link_graph": q_kg_link_graph,
        "kg_link_prediction": q_kg_link_prediction,
        "lineitem_avg_qty": q_lineitem_avg_qty,
        "kg_web_pagerank": q_kg_web_pagerank,
        "kg_dead_links": q_kg_dead_links,
        "orders_priority_exists": q_orders_priority_exists,
        "kg_communities": q_kg_communities,
        "embed_label_centroids": q_embed_label_centroids,
        "lineitem_q6_revenue": q_lineitem_q6_revenue,
        "kg_reciprocal_links": q_kg_reciprocal_links,
        "kg_path2_counts": q_kg_path2_counts,
        "doc_compression": q_doc_compression,
        "kg_property_table": q_kg_property_table,
        "kg_pattern_join": q_kg_pattern_join,
        "kg_validate": q_kg_validate,
        "customer_order_dist": q_customer_order_dist,
        "promo_revenue": q_promo_revenue,
        "large_orders": q_large_orders,
        "events_cooccurrence": q_events_cooccurrence,
        "kg_store_join": q_kg_store_join,
        "kg_scc": q_kg_scc,
        "doc_url_normalize": q_doc_url_normalize,
        "supplier_value": q_supplier_value,
        "cheapest_part_by_brand": q_cheapest_part_by_brand,
        "kg_ppr": q_kg_ppr,
        "kg_store_describe": q_kg_store_describe,
        "returned_item_revenue": q_returned_item_revenue,
        "discounted_brand_revenue": q_discounted_brand_revenue,
        "doc_classifier_score": q_doc_classifier_score,
        "kg_property_roundtrip": q_kg_property_roundtrip,
        "kg_obj_lookup": q_kg_obj_lookup,
        "kg_index_refresh": q_kg_index_refresh,
        "kg_bgp_chain": q_kg_bgp_chain,
        "kg_bgp_optional": q_kg_bgp_optional,
        "kg_bgp_minus": q_kg_bgp_minus,
        "kg_construct": q_kg_construct,
        "kg_sparql_text": q_kg_sparql_text,
        "kg_sparql_agg": q_kg_sparql_agg,
        "kg_sparql_update": q_kg_sparql_update,
        "kg_sparql_describe": q_kg_sparql_describe,
        "kg_sparql_datatype": q_kg_sparql_datatype,
        "kg_sparql_isiri": q_kg_sparql_isiri,
        "kg_sparql_seqpath": q_kg_sparql_seqpath,
        "kg_sparql_subquery": q_kg_sparql_subquery,
        "kg_sparql_strfns": q_kg_sparql_strfns,
        "kg_sparql_numfns": q_kg_sparql_numfns,
        "kg_sparql_groupexpr": q_kg_sparql_groupexpr,
        "kg_sparql_aggexpr": q_kg_sparql_aggexpr,
        "kg_rdfs_closure": q_kg_rdfs_closure,
        "kg_rdfs_incremental": q_kg_rdfs_incremental,
        "kg_sameas_rewrite": q_kg_sameas_rewrite,
        "kg_property_graph": q_kg_property_graph,
        "kg_negative_samples_generic": q_kg_negative_samples_generic,
        "kg_negative_samples_sharded": q_kg_negative_samples_sharded,
        "kg_transe_epoch": q_kg_transe_epoch,
        "kg_embed_neighbors": q_kg_embed_neighbors,
        "kg_embed_linkpred": q_kg_embed_linkpred,
        "kg_sample_neighbors": q_kg_sample_neighbors,
        "kg_owl_inverse": q_kg_owl_inverse,
        "kg_federated": q_kg_federated,
        "kg_sparql_service": q_kg_sparql_service,
        "kg_federated_obj_route": q_kg_federated_obj_route,
        "kg_functional_check": q_kg_functional_check,
        "kg_sparql_negprop": q_kg_sparql_negprop,
        "kg_sparql_star_unbound": q_kg_sparql_star_unbound,
        "kg_sparql_quant_path": q_kg_sparql_quant_path,
        "kg_sparql_hashfns": q_kg_sparql_hashfns,
        "kg_sparql_graph_path": q_kg_sparql_graph_path,
        "kg_sparql_group_path": q_kg_sparql_group_path,
        "kg_owl_chain": q_kg_owl_chain,
        "kg_sparql_or": q_kg_sparql_or,
        "kg_sparql_sample": q_kg_sparql_sample,
        "kg_bgp_agg": q_kg_bgp_agg,
        "kg_bgp_select": q_kg_bgp_select,
        "kg_bgp_path": q_kg_bgp_path,
        "kg_bgp_star_path": q_kg_bgp_star_path,
        "kg_bgp_opt_path": q_kg_bgp_opt_path,
        "kg_bgp_groupby": q_kg_bgp_groupby,
        "kg_bgp_obj_route": q_kg_bgp_obj_route,
        "kg_bgp_union": q_kg_bgp_union,
        "kg_bgp_bind": q_kg_bgp_bind,
        "kg_bgp_exists": q_kg_bgp_exists,
        "kg_bgp_values": q_kg_bgp_values,
        "kg_bgp_count_distinct": q_kg_bgp_count_distinct,
        "kg_bgp_minmax": q_kg_bgp_minmax,
        "kg_bgp_graph": q_kg_bgp_graph,
        "kg_bgp_store": q_kg_bgp_store,
        "kg_store_timetravel": q_kg_store_timetravel,
    }


_TRIPLE_BASE_CTE = """
WITH r AS (SELECT range AS r FROM range(1, 4)),
     d AS (SELECT doc_id FROM documents WHERE doc_id % 4 = 0),
     base AS (
       SELECT 'https://example.org/doc/' || doc_id || '#t0/r' || r AS subj,
              CAST(r AS VARCHAR) AS rank_s,
              'Entity' || ((doc_id + r) % 50) AS ent,
              CAST((doc_id * 7 + r * 13) % 1000 AS VARCHAR) AS score_s
       FROM d, r),
     triples AS (
       SELECT subj, 'https://example.org/def/rank' AS pred, rank_s AS obj,
              FALSE AS obj_is_iri,
              'http://www.w3.org/2001/XMLSchema#integer' AS obj_datatype,
              CAST(NULL AS VARCHAR) AS obj_lang FROM base
       UNION ALL
       SELECT subj, 'https://example.org/def/name', ent, FALSE,
              CAST(NULL AS VARCHAR), CAST(NULL AS VARCHAR) FROM base
       UNION ALL
       SELECT subj, 'https://example.org/def/entity',
              'https://example.org/id/entity/' || ent, TRUE,
              CAST(NULL AS VARCHAR), CAST(NULL AS VARCHAR) FROM base
       UNION ALL
       SELECT subj, 'https://example.org/def/score', score_s, FALSE,
              'http://www.w3.org/2001/XMLSchema#integer',
              CAST(NULL AS VARCHAR) FROM base)
"""

_STOPLIST_SQL = "('the','and','of','to','a','in','is','it','that','for')"


def _pagerank_sql(iters: int = 5, graph_cte: str | None = None) -> str:
    """Unrolled PageRank power method, mirroring cattle_ray.stages.graph:
    init 1/n; per round non_dangling = Σ_edges rank(src)/deg(src),
    base = (1−d)/n + d·(1−non_dangling)/n, rank = base + d·in_sum.
    Both sides round to 6 decimals (float partial-sum order differs at the
    1e-16 level across engines; see q_kg_pagerank). ``graph_cte`` = a full
    WITH-prefix ending in an ``edges(s, o)`` CTE; default is the triple
    fixture's doc→entity edges."""
    ctes = ""
    prev = "r0"
    for k in range(1, iters + 1):
        ctes += f""",
            nd{k} AS (SELECT coalesce(sum(r.rank / dg.deg), 0) AS nd
                      FROM edges e JOIN deg dg ON e.s = dg.s
                      JOIN {prev} r ON r.node = e.s),
            ins{k} AS (SELECT e.o AS node, sum(r.rank / dg.deg) AS in_sum
                       FROM edges e JOIN deg dg ON e.s = dg.s
                       JOIN {prev} r ON r.node = e.s
                       GROUP BY e.o),
            r{k} AS (SELECT n.node,
                            (1 - 0.85)/cnt.n + 0.85*(1 - nd{k}.nd)/cnt.n
                            + 0.85*coalesce(i.in_sum, 0) AS rank
                     FROM nodes n CROSS JOIN cnt CROSS JOIN nd{k}
                     LEFT JOIN ins{k} i ON i.node = n.node)"""
        prev = f"r{k}"
    if graph_cte is None:
        graph_cte = _TRIPLE_BASE_CTE + f""",
            edges AS (SELECT subj AS s, obj AS o FROM triples
                      WHERE pred = '{EX}entity')"""
    return graph_cte + f""",
            nodes AS (SELECT DISTINCT node FROM
                      (SELECT s AS node FROM edges UNION SELECT o FROM edges)),
            cnt AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),
            deg AS (SELECT s, CAST(count(*) AS DOUBLE) AS deg
                    FROM edges GROUP BY s),
            r0 AS (SELECT node, 1.0/cnt.n AS rank FROM nodes CROSS JOIN cnt)
            {ctes}
        SELECT node, round(rank, 6) AS rank FROM {prev}
    """


def _ppr_sql(seed_list_sql: str, iters: int = 5) -> str:
    """Unrolled PERSONALIZED PageRank mirroring ``pagerank(seeds=...)``:
    p(v) = 1/k over the seed nodes present in the graph, r0 = p, per round
    coef = (1−d) + d·(1−nd) and rank = coef·p + d·in_sum — the same float
    expression order as stage2/the numpy task; both sides round to 6
    decimals (same ulp argument as kg_pagerank). Graph = the triple
    fixture's doc→entity edges."""
    ctes = ""
    prev = "r0"
    for k in range(1, iters + 1):
        ctes += f""",
            nd{k} AS (SELECT coalesce(sum(r.rank / dg.deg), 0) AS nd
                      FROM edges e JOIN deg dg ON e.s = dg.s
                      JOIN {prev} r ON r.node = e.s),
            ins{k} AS (SELECT e.o AS node, sum(r.rank / dg.deg) AS in_sum
                       FROM edges e JOIN deg dg ON e.s = dg.s
                       JOIN {prev} r ON r.node = e.s
                       GROUP BY e.o),
            r{k} AS (SELECT n.node,
                            ((1 - 0.85) + 0.85*(1 - nd{k}.nd)) * n.p
                            + 0.85*coalesce(i.in_sum, 0) AS rank
                     FROM pn n CROSS JOIN nd{k}
                     LEFT JOIN ins{k} i ON i.node = n.node)"""
        prev = f"r{k}"
    return _TRIPLE_BASE_CTE + f""",
            edges AS (SELECT subj AS s, obj AS o FROM triples
                      WHERE pred = '{EX}entity'),
            nodes AS (SELECT DISTINCT node FROM
                      (SELECT s AS node FROM edges UNION SELECT o FROM edges)),
            ks AS (SELECT CAST(count(*) AS DOUBLE) AS k FROM nodes
                   WHERE node IN {seed_list_sql}),
            deg AS (SELECT s, CAST(count(*) AS DOUBLE) AS deg
                    FROM edges GROUP BY s),
            pn AS (SELECT node,
                          CASE WHEN node IN {seed_list_sql}
                               THEN 1.0/ks.k ELSE 0.0 END AS p
                   FROM nodes CROSS JOIN ks),
            r0 AS (SELECT node, p AS rank FROM pn)
            {ctes}
        SELECT node, round(rank, 6) AS rank FROM {prev}
    """


def _lpa_sql(iters: int = 3) -> str:
    """Unrolled synchronous label propagation, mirroring
    cattle_ray.stages.graph.label_propagation: l0 = own id; per round every
    node takes the mode of its neighbors' labels, ties to the smallest
    label (row_number over c DESC, label ASC). Exact — no floats."""
    ctes = ""
    prev = "l0"
    for k in range(1, iters + 1):
        ctes += f""",
            c{k} AS (SELECT u.s AS node, l.label, count(*) AS c
                     FROM und u JOIN {prev} l ON l.node = u.o
                     GROUP BY u.s, l.label),
            l{k} AS (SELECT node, label FROM (
                       SELECT node, label,
                              row_number() OVER (PARTITION BY node
                                ORDER BY c DESC, label) AS rn
                       FROM c{k}) WHERE rn = 1)"""
        prev = f"l{k}"
    return _TRIPLE_BASE_CTE + f""",
            e AS (SELECT DISTINCT subj AS s, obj AS o FROM triples
                  WHERE pred = '{EX}entity'),
            und AS (SELECT s, o FROM e UNION SELECT o AS s, s AS o FROM e),
            l0 AS (SELECT DISTINCT s AS node, s AS label FROM und)
            {ctes}
        SELECT node, label FROM {prev}
    """


#: the fixture link graph (pages.doc_link_dsts arithmetic) as an edges CTE
_LINK_EDGES_CTE = """
WITH nn AS (SELECT count(*) AS c FROM documents),
     js AS (SELECT range AS j FROM range(1, 4)),
     edges AS (
       SELECT 'https://example.org/doc/' || d.doc_id AS s,
              'https://example.org/doc/' ||
              ((d.doc_id + 1 +
                ((d.doc_id * 2654435761 + j.j * 40503) % (nn.c - 1)))
               % nn.c) AS o
       FROM documents d CROSS JOIN nn CROSS JOIN js j
       WHERE j.j <= d.doc_id % 4)"""


def _hits_sql(iters: int = 3) -> str:
    """Unrolled HITS mirroring cattle_ray.stages.graph.hits: init 1.0,
    per half-round sum over edges then L1-normalize; round 6."""
    ctes = ""
    prev_h = "h0"
    for k in range(1, iters + 1):
        ctes += f""",
            ap{k} AS (SELECT e.o AS node, sum(h.score) AS s FROM edges e
                      JOIN {prev_h} h ON h.node = e.s GROUP BY e.o),
            at{k} AS (SELECT sum(s) AS t FROM ap{k}),
            a{k} AS (SELECT n.node, coalesce(p.s, 0) / at{k}.t AS score
                     FROM nodes n CROSS JOIN at{k}
                     LEFT JOIN ap{k} p ON p.node = n.node),
            hp{k} AS (SELECT e.s AS node, sum(a.score) AS s FROM edges e
                      JOIN a{k} a ON a.node = e.o GROUP BY e.s),
            ht{k} AS (SELECT sum(s) AS t FROM hp{k}),
            h{k} AS (SELECT n.node, coalesce(p.s, 0) / ht{k}.t AS score
                     FROM nodes n CROSS JOIN ht{k}
                     LEFT JOIN hp{k} p ON p.node = n.node)"""
        prev_h = f"h{k}"
    return _TRIPLE_BASE_CTE + f""",
            edges AS (SELECT subj AS s, obj AS o FROM triples
                      WHERE pred = '{EX}entity'),
            nodes AS (SELECT DISTINCT node FROM
                      (SELECT s AS node FROM edges UNION SELECT o FROM edges)),
            h0 AS (SELECT node, 1.0 AS score FROM nodes)
            {ctes}
        SELECT a.node, round(a.score, 6) AS auth, round(h.score, 6) AS hub
        FROM a{iters} a JOIN h{iters} h USING (node)
    """


def _langid_sql() -> str:
    """Mirror of LangId: lowercase-split tokens, per-language stopword hit
    counts, argmax with PROFILE-ORDER tie-break, all-zero → 'und'."""
    from cattle_ray.stages.textstats import LANG_PROFILES

    langs = list(LANG_PROFILES)  # en, de, fr, es — order IS the tie-break
    cnt = ", ".join(
        "CAST(len(list_filter(toks, x -> x IN ({}))) AS BIGINT) AS n_{}".format(
            ", ".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang])), lang)
        for lang in langs
    )
    zero = " AND ".join(f"n_{lang} = 0" for lang in langs)
    cases = []
    for i, lang in enumerate(langs):
        rest = [f"n_{lang} >= n_{other}" for other in langs[i + 1:]]
        cond = " AND ".join(rest) if rest else "TRUE"
        cases.append(f"WHEN {cond} THEN '{lang}'")
    return rf"""
        WITH t AS (
          SELECT doc_id, string_split_regex(lower(trim(text)), '\s+') AS toks
          FROM documents),
        c AS (SELECT doc_id, {cnt} FROM t)
        SELECT doc_id,
               CASE WHEN {zero} THEN 'und' {' '.join(cases)} END AS lang_pred
        FROM c
    """


def _pii_redact_sql() -> str:
    """Mirror of q_doc_pii_redact, generated from the SAME ruleset
    (cattle_ray.stages.redact.PII_RULES) so SQL and engine can't drift:
    the injection suffixes, then one CTE per rule counting matches on the
    text as that rule sees it and replacing in order."""
    from cattle_ray.stages.redact import PII_RULES

    sql = """
        WITH s0 AS (
          SELECT doc_id,
                 text
                 || CASE WHEN doc_id % 7 = 0
                         THEN ' contact user' || doc_id || '@example.com'
                         ELSE '' END
                 || CASE WHEN doc_id % 11 = 0 THEN ' call 555-123-4567' ELSE '' END
                 || CASE WHEN doc_id % 13 = 0 THEN ' from 192.168.1.42' ELSE '' END
                 AS t
          FROM documents)"""
    carried: list[str] = []
    for i, (name, pat, repl) in enumerate(PII_RULES):
        prev = ", ".join(carried) + ", " if carried else ""
        sql += f""",
        s{i + 1} AS (
          SELECT doc_id, {prev}
                 CAST(len(regexp_extract_all(t, '{pat}')) AS BIGINT) AS n_{name},
                 regexp_replace(t, '{pat}', '{repl}', 'g') AS t
          FROM s{i})"""
        carried.append(f"n_{name}")
    return sql + f"""
        SELECT doc_id, t AS redacted, {', '.join(carried)} FROM s{len(PII_RULES)}
    """


def oracle_sql() -> dict[str, str]:
    # the store-backed BGP answers the SAME pattern set as the in-memory one
    d = _oracle_sql_base()
    d["kg_bgp_store"] = d["kg_bgp_chain"]
    return d


def _oracle_sql_base() -> dict[str, str]:
    mention_union = "\nUNION ALL\n".join(
        f"SELECT doc_id, '{w}' AS alias, "
        f"CAST(len(regexp_extract_all(text, '\\b{w}\\b')) AS BIGINT) AS n "
        f"FROM documents"
        for w in MENTION_ALIASES
    )
    return {
        "kg_extract_text": (
            "SELECT 'https://example.org/doc/' || doc_id AS url, text FROM documents"
        ),
        "kg_csvw_triples": _TRIPLE_BASE_CTE + "SELECT * FROM triples",
        "kg_openie": r"""
            SELECT 'https://example.org/mention/' || pair[1] AS subj,
                   'https://example.org/def/joins' AS pred,
                   pair[2] AS obj,
                   FALSE AS obj_is_iri,
                   'https://example.org/doc/' || doc_id AS src_url
            FROM (
              SELECT doc_id,
                     unnest(list_zip(regexp_extract_all(text, '(\w+) join (\w+)', 1),
                                     regexp_extract_all(text, '(\w+) join (\w+)', 2))) AS pair
              FROM documents)
        """,
        "kg_mentions": (
            f"SELECT doc_id, alias, n FROM ({mention_union}) WHERE n > 0"
        ),
        "kg_canonicalize": (
            "SELECT DISTINCT source, "
            "'https://example.org/src/' || source AS canonical_uri FROM documents"
        ),
        "kg_pred_freq": _TRIPLE_BASE_CTE
        + "SELECT pred, count(*) AS n FROM triples GROUP BY pred",
        "kg_subject_degree": _TRIPLE_BASE_CTE
        + "SELECT subj, count(*) AS n FROM triples GROUP BY subj",
        "kg_pipeline": _TRIPLE_BASE_CTE + r"""
            , openie AS (
              SELECT 'https://example.org/mention/' || pair[1] AS subj,
                     'https://example.org/def/joins' AS pred,
                     pair[2] AS obj, FALSE AS obj_is_iri,
                     CAST(NULL AS VARCHAR) AS obj_datatype,
                     CAST(NULL AS VARCHAR) AS obj_lang
              FROM (
                SELECT unnest(list_zip(
                         regexp_extract_all(text, '(\w+) join (\w+)', 1),
                         regexp_extract_all(text, '(\w+) join (\w+)', 2))) AS pair
                FROM documents))
            SELECT DISTINCT subj, pred, obj, obj_is_iri, obj_datatype, obj_lang
            FROM (SELECT * FROM triples UNION ALL SELECT * FROM openie)
        """,
        "kg_entity_cooccurrence": _TRIPLE_BASE_CTE + """
            , ent AS (SELECT subj, obj FROM triples
                      WHERE pred = 'https://example.org/def/entity')
            SELECT a.subj AS subj_a, b.subj AS subj_b, a.obj AS entity
            FROM ent a JOIN ent b ON a.obj = b.obj AND a.subj < b.subj
        """,
        "doc_dedup": (
            "SELECT min(doc_id) AS doc_id, lang, source FROM documents "
            "GROUP BY lang, source"
        ),
        "doc_token_count": r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE CAST(len(string_split_regex(trim(text), '\s+')) AS BIGINT)
                   END AS n_tokens
            FROM documents
        """,
        "doc_quality": rf"""
            WITH t AS (
              SELECT doc_id,
                     CAST(length(text) AS BIGINT) AS q_n_chars,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE CAST(len(string_split_regex(trim(text), '\s+')) AS BIGINT)
                     END AS q_n_tokens,
                     CASE WHEN trim(text) = '' THEN CAST(0 AS BIGINT)
                          ELSE CAST(len(list_filter(string_split_regex(trim(text), '\s+'),
                                          x -> lower(x) IN {_STOPLIST_SQL})) AS BIGINT)
                     END AS n_stop,
                     CAST(len(regexp_extract_all(text, '[^\w\s]')) AS BIGINT) AS n_punct
              FROM documents)
            SELECT doc_id, q_n_chars, q_n_tokens,
                   CAST(n_stop AS DOUBLE) / greatest(q_n_tokens, 1) AS stop_ratio,
                   CAST(n_punct AS DOUBLE) / greatest(q_n_chars, 1) AS punct_ratio
            FROM t
        """,
        "doc_fingerprint": "SELECT doc_id, md5(text) AS md5 FROM documents",
        "doc_dup_spans": r"""
            WITH t AS (SELECT doc_id,
                              string_split_regex(trim(text), '\s+') AS toks
                       FROM documents WHERE trim(text) != ''),
                 u AS (SELECT doc_id, toks,
                              unnest(generate_series(1, len(toks) - 4)) AS i
                       FROM t WHERE len(toks) >= 5),
                 g AS (SELECT doc_id,
                              array_to_string(toks[i:i+4], ' ') AS gram
                       FROM u),
                 dup AS (SELECT gram FROM g GROUP BY gram
                         HAVING count(*) >= 2)
            SELECT g.doc_id,
                   CAST(count(*) AS BIGINT) AS n_grams,
                   CAST(count(dup.gram) AS BIGINT) AS n_dup,
                   round(CAST(count(dup.gram) AS DOUBLE) / count(*), 6)
                       AS dup_frac
            FROM g LEFT JOIN dup ON g.gram = dup.gram
            GROUP BY g.doc_id
        """,
        "doc_word_cooc": r"""
            WITH s AS (SELECT doc_id,
                              string_split_regex(trim(text), '\s+') AS toks
                       FROM documents WHERE trim(text) != ''),
                 u AS (SELECT doc_id, toks, len(toks) AS L,
                              unnest(generate_series(1, len(toks) - 1)) AS i
                       FROM s WHERE len(toks) >= 2),
                 pr AS (SELECT least(toks[i], toks[i + o.off]) AS wa,
                               greatest(toks[i], toks[i + o.off]) AS wb
                        FROM u, (SELECT unnest(generate_series(1, 3)) AS off) o
                        WHERE i + o.off <= L)
            SELECT wa, wb, CAST(count(*) AS BIGINT) AS n
            FROM pr GROUP BY wa, wb
            ORDER BY n DESC, wa, wb LIMIT 100
        """,
        "doc_lm_score": r"""
            WITH s AS (SELECT doc_id,
                              string_split_regex(trim(text), '\s+') AS toks
                       FROM documents WHERE trim(text) != ''),
                 u AS (SELECT doc_id, toks,
                              unnest(generate_series(1, len(toks) - 1)) AS i
                       FROM s WHERE len(toks) >= 2),
                 big AS (SELECT doc_id, toks[i] AS w1, toks[i+1] AS w2
                         FROM u),
                 c2 AS (SELECT w1, w2, count(*) AS c FROM big
                        GROUP BY w1, w2),
                 c1 AS (SELECT w1, count(*) AS c FROM big GROUP BY w1)
            SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
                   CAST(SUM((c2.c * 1000000) // c1.c) AS BIGINT) AS score
            FROM big b JOIN c2 USING (w1, w2) JOIN c1 USING (w1)
            GROUP BY b.doc_id
        """,
        "doc_normalize": r"""
            SELECT doc_id,
                   md5(trim(regexp_replace(lower(nfc_normalize(text)),
                                           '\s+', ' ', 'g'))) AS norm_md5
            FROM documents
        """,
        "doc_sentence_stats": r"""
            WITH s AS (SELECT doc_id, list_filter(list_transform(
                regexp_split_to_array(coalesce(text, ''), '[.!?]+'),
                x -> trim(x, ' ' || chr(9) || chr(10) || chr(13))),
                x -> x <> '') AS sents FROM documents),
            w AS (SELECT doc_id, list_transform(sents,
                x -> len(regexp_split_to_array(x, '\s+'))) AS ws FROM s)
            SELECT doc_id,
                   CAST(len(ws) AS BIGINT) AS n_sentences,
                   CAST(coalesce(list_sum(ws), 0) AS BIGINT) AS n_words,
                   CAST(coalesce(list_max(ws), 0) AS BIGINT)
                       AS max_sentence_words
            FROM w
        """,
        "doc_training_export": r"""
            WITH nrm AS (SELECT doc_id, text,
                   md5(trim(regexp_replace(lower(nfc_normalize(text)),
                                           '\s+', ' ', 'g'))) AS nmd5
                   FROM documents WHERE lang IN ('en', 'de')),
            keep1 AS (SELECT min(doc_id) AS doc_id FROM nrm GROUP BY nmd5),
            d AS (SELECT n.doc_id, n.text FROM nrm n
                  JOIN keep1 k USING (doc_id)),
            tok AS (SELECT doc_id,
                       unnest(string_split_regex(trim(text), '\s+')) AS tk
                    FROM d WHERE trim(text) != ''),
            cnts AS (SELECT doc_id, tk, count(*) AS c FROM tok GROUP BY 1, 2),
            agg AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n,
                           CAST(count(*) AS BIGINT) AS nd
                    FROM cnts GROUP BY 1),
            q AS (SELECT doc_id, n FROM agg
                  WHERE n >= 45 AND 1 - CAST(nd AS DOUBLE) / n <= 0.58),
            c AS (SELECT doc_id, n AS n_tokens,
                         SUM(n) OVER (ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) AS cum FROM q)
            SELECT doc_id, n_tokens,
                   CAST((cum - n_tokens) // 512 AS BIGINT) AS seq_id
            FROM c
        """,
        "doc_readability": r"""
            WITH s AS (SELECT doc_id, list_filter(list_transform(
                regexp_split_to_array(coalesce(text, ''), '[.!?]+'),
                x -> trim(x, ' ' || chr(9) || chr(10) || chr(13))),
                x -> x <> '') AS sents,
                CAST(len(regexp_extract_all(coalesce(text, ''),
                    '[aeiouyAEIOUY]+')) AS BIGINT) AS syllables
                FROM documents),
            w AS (SELECT doc_id, syllables,
                CAST(len(sents) AS BIGINT) AS n_sentences,
                CAST(coalesce(list_sum(list_transform(sents,
                    x -> len(regexp_split_to_array(x, '\s+')))), 0)
                    AS BIGINT) AS n_words
                FROM s)
            SELECT doc_id, n_sentences, n_words, syllables,
                   206.835 - 1.015 * (CAST(n_words AS DOUBLE) / n_sentences)
                           - 84.6 * (CAST(syllables AS DOUBLE) / n_words)
                       AS flesch
            FROM w WHERE n_sentences > 0 AND n_words > 0
        """,
        "doc_editdist_pairs": r"""
            WITH cs AS (SELECT ' ' || chr(9) || chr(10) || chr(13) AS c),
            t AS (SELECT doc_id, left(text, 40) AS p,
                len(string_split_regex(trim(text, c), '\s+')) // 16 AS band,
                string_split_regex(trim(text, c), '\s+')[1] AS tok0
                FROM documents, cs
                WHERE trim(coalesce(text, ''), c) <> '')
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(levenshtein(a.p, b.p) AS BIGINT) AS dist
            FROM t a JOIN t b ON a.band = b.band AND a.tok0 = b.tok0
                             AND a.doc_id < b.doc_id
            WHERE levenshtein(a.p, b.p) <= 5
        """,
        "doc_lm_buckets": r"""
            WITH s AS (SELECT doc_id,
                              string_split_regex(trim(text), '\s+') AS toks
                       FROM documents WHERE trim(text) != ''),
                 u AS (SELECT doc_id, toks,
                              unnest(generate_series(1, len(toks) - 1)) AS i
                       FROM s WHERE len(toks) >= 2),
                 big AS (SELECT doc_id, toks[i] AS w1, toks[i+1] AS w2
                         FROM u),
                 c2 AS (SELECT w1, w2, count(*) AS c FROM big
                        GROUP BY w1, w2),
                 c1 AS (SELECT w1, count(*) AS c FROM big GROUP BY w1),
                 sc AS (SELECT b.doc_id,
                            CAST(SUM((c2.c * 1000000) // c1.c) AS BIGINT)
                                // CAST(count(*) AS BIGINT) AS norm_score
                        FROM big b JOIN c2 USING (w1, w2) JOIN c1 USING (w1)
                        GROUP BY b.doc_id),
                 q AS (SELECT quantile_disc(norm_score, [1.0/3, 2.0/3]) AS qs
                       FROM sc)
            SELECT doc_id, norm_score,
                   CASE WHEN norm_score <= qs[1] THEN 'tail'
                        WHEN norm_score <= qs[2] THEN 'middle'
                        ELSE 'head' END AS bucket
            FROM sc, q
        """,
        "doc_langid": _langid_sql(),
        "doc_repetition": r"""
            WITH tok AS (
              SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS tk
              FROM documents WHERE trim(text) != ''),
            cnts AS (SELECT doc_id, tk, count(*) AS c FROM tok GROUP BY 1, 2),
            agg AS (
              SELECT doc_id, CAST(sum(c) AS BIGINT) AS n,
                     CAST(count(*) AS BIGINT) AS n_dist,
                     CAST(max(c) AS BIGINT) AS top
              FROM cnts GROUP BY doc_id)
            SELECT doc_id, n AS rep_n_tokens, n_dist AS rep_n_distinct,
                   1 - CAST(n_dist AS DOUBLE) / n AS dup_token_frac,
                   CAST(top AS DOUBLE) / n AS top_token_frac
            FROM agg
            UNION ALL
            SELECT doc_id, 0, 0, 0.0, 0.0 FROM documents WHERE trim(text) = ''
        """,
        "kg_degree_distribution": _TRIPLE_BASE_CTE + """
            , dgr AS (SELECT subj, CAST(count(*) AS BIGINT) AS degree
                      FROM triples GROUP BY subj)
            SELECT degree, CAST(count(*) AS BIGINT) AS n_subjects
            FROM dgr GROUP BY degree
        """,
        "kg_hits": _hits_sql(),
        "kg_pagerank": _pagerank_sql(),
        "kg_ppr": _ppr_sql(
            "('" + "', '".join(PPR_SEEDS) + "')"),
        "doc_collocations": r"""
            WITH tok AS (SELECT doc_id, string_split_regex(trim(text), '\s+') AS ws
                         FROM documents WHERE trim(text) != ''),
            t AS (SELECT doc_id, unnest(ws) AS w,
                         generate_subscripts(ws, 1) AS i FROM tok),
            big AS (SELECT a.w AS w1, b.w AS w2
                    FROM t a JOIN t b ON a.doc_id = b.doc_id AND b.i = a.i + 1),
            uni AS (SELECT w, CAST(count(*) AS BIGINT) AS c FROM t GROUP BY w),
            bc AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS c12
                   FROM big GROUP BY 1, 2),
            tot AS (SELECT (SELECT CAST(sum(c) AS BIGINT) FROM uni) AS nt,
                           (SELECT CAST(count(*) AS BIGINT) FROM big) AS nb)
            SELECT w1, w2, c12,
                   round(CAST(c12 * nt * nt AS DOUBLE)
                         / CAST(nb * u1.c * u2.c AS DOUBLE), 6) AS lift
            FROM bc
            CROSS JOIN tot
            JOIN uni u1 ON bc.w1 = u1.w
            JOIN uni u2 ON bc.w2 = u2.w
            WHERE c12 >= 3
            ORDER BY lift DESC, w1, w2 LIMIT 100
        """,
        "kg_entity_resolution": _TRIPLE_BASE_CTE + f"""
            SELECT subj, min(subj) OVER (PARTITION BY obj) AS canonical
            FROM triples WHERE pred = '{EX}name'
        """,
        "kg_triangle_count": _TRIPLE_BASE_CTE + f"""
            , ent AS (SELECT subj, obj FROM triples
                      WHERE pred = '{EX}entity'),
            e AS (SELECT DISTINCT a.subj AS u, b.subj AS v
                  FROM ent a JOIN ent b ON a.obj = b.obj AND a.subj < b.subj)
            SELECT CAST(count(*) AS BIGINT) AS n_triangles
            FROM e e1
            JOIN e e2 ON e2.u = e1.v
            JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v
        """,
        "kg_adjacency": _TRIPLE_BASE_CTE + """
            SELECT subj, CAST(count(*) AS BIGINT) AS out_degree,
                   string_agg(pred || ' ' || obj, '; ' ORDER BY pred, obj) AS adj
            FROM triples GROUP BY subj
        """,
        "doc_chunk_dedup": r"""
            WITH w AS (SELECT doc_id, string_split_regex(trim(text), '\s+') AS words
                       FROM documents WHERE trim(text) != ''),
            c AS (SELECT doc_id, unnest(words) AS wd,
                         generate_subscripts(words, 1) - 1 AS i FROM w),
            ch AS (SELECT doc_id, i // 10 AS chunk_idx,
                          string_agg(wd, ' ' ORDER BY i) AS chunk
                   FROM c GROUP BY doc_id, i // 10),
            r AS (SELECT *, row_number() OVER
                    (PARTITION BY chunk ORDER BY doc_id, chunk_idx) AS rn
                  FROM ch)
            SELECT doc_id, chunk_idx, chunk FROM r WHERE rn = 1
        """,
        "doc_chunk_rebuild": r"""
            WITH w AS (SELECT doc_id, string_split_regex(trim(text), '\s+') AS words
                       FROM documents WHERE trim(text) != ''),
            c AS (SELECT doc_id, unnest(words) AS wd,
                         generate_subscripts(words, 1) - 1 AS i FROM w),
            ch AS (SELECT doc_id, i // 10 AS chunk_idx,
                          string_agg(wd, ' ' ORDER BY i) AS chunk
                   FROM c GROUP BY doc_id, i // 10),
            r AS (SELECT *, row_number() OVER
                    (PARTITION BY chunk ORDER BY doc_id, chunk_idx) AS rn
                  FROM ch)
            SELECT doc_id,
                   string_agg(chunk, ' ' ORDER BY chunk_idx) AS clean_text,
                   CAST(count(*) AS BIGINT) AS n_kept
            FROM r WHERE rn = 1 GROUP BY doc_id
        """,
        "doc_boilerplate": r"""
            WITH w AS (SELECT doc_id, string_split_regex(trim(text), '\s+') AS words
                       FROM documents WHERE trim(text) != ''),
            c AS (SELECT doc_id, unnest(words) AS wd,
                         generate_subscripts(words, 1) - 1 AS i FROM w),
            ch AS (SELECT doc_id, i // 10 AS chunk_idx,
                          string_agg(wd, ' ' ORDER BY i) AS chunk
                   FROM c GROUP BY doc_id, i // 10),
            hot AS (SELECT chunk FROM ch GROUP BY chunk HAVING count(*) >= 2)
            SELECT doc_id,
                   string_agg(chunk, ' ' ORDER BY chunk_idx) AS clean_text,
                   CAST(count(*) AS BIGINT) AS n_kept
            FROM ch WHERE chunk NOT IN (SELECT chunk FROM hot)
            GROUP BY doc_id
        """,
        "doc_pack_sequences": r"""
            WITH t AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE CAST(len(string_split_regex(trim(text), '\s+'))
                               AS BIGINT) END AS n_tokens
              FROM documents),
            c AS (SELECT doc_id, n_tokens,
                         SUM(n_tokens) OVER (ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) AS cum
                  FROM t)
            SELECT doc_id, n_tokens,
                   CAST((cum - n_tokens) // 512 AS BIGINT) AS seq_id
            FROM c
        """,
        "doc_mixture": f"""
            WITH en AS (SELECT doc_id FROM documents WHERE lang = 'en'),
            rest AS (SELECT doc_id FROM documents WHERE lang != 'en'),
            frac_en AS (
              SELECT doc_id FROM en
              WHERE substr(md5('en|' || doc_id || '|2'), 1, 12)
                    < '{format(int(0.5 * 16**12), "012x")}'),
            frac_rest AS (
              SELECT doc_id FROM rest
              WHERE substr(md5('rest|' || doc_id || '|0'), 1, 12)
                    < '{format(int(0.25 * 16**12), "012x")}')
            SELECT doc_id, 'en' AS src, CAST(0 AS BIGINT) AS rep FROM en
            UNION ALL
            SELECT doc_id, 'en', CAST(1 AS BIGINT) FROM en
            UNION ALL
            SELECT doc_id, 'en', CAST(2 AS BIGINT) FROM frac_en
            UNION ALL
            SELECT doc_id, 'rest', CAST(0 AS BIGINT) FROM frac_rest
        """,
        "events_props_sum": """
            SELECT event_type,
                   CAST(sum(k) AS BIGINT) AS sum_k,
                   CAST(count(k) AS BIGINT) AS n_k
            FROM (SELECT event_type,
                         CAST(json_extract(props, '$.k') AS BIGINT) AS k
                  FROM events)
            GROUP BY event_type
        """,
        "doc_incremental_dedup": r"""
            WITH fp AS (
              SELECT doc_id,
                     md5(array_to_string(list_slice(
                         string_split_regex(trim(text), '\s+'), 1, 8), ' ')) AS fp
              FROM documents)
            SELECT doc_id, fp FROM fp i
            WHERE doc_id % 2 = 1
              AND fp NOT IN (SELECT fp FROM fp WHERE doc_id % 2 = 0)
        """,
        "doc_filter_pipeline": r"""
            WITH tok AS (
              SELECT doc_id, lang,
                     unnest(string_split_regex(trim(text), '\s+')) AS tk
              FROM documents WHERE trim(text) != '' AND lang IN ('en', 'de')),
            cnts AS (SELECT doc_id, lang, tk, count(*) AS c
                     FROM tok GROUP BY 1, 2, 3),
            agg AS (SELECT doc_id, lang, CAST(sum(c) AS BIGINT) AS n,
                           CAST(count(*) AS BIGINT) AS nd
                    FROM cnts GROUP BY 1, 2)
            SELECT doc_id, lang, n AS q_n_tokens,
                   1 - CAST(nd AS DOUBLE) / n AS dup_token_frac
            FROM agg
            WHERE n >= 45 AND 1 - CAST(nd AS DOUBLE) / n <= 0.58
        """,
        "kg_store_query": _TRIPLE_BASE_CTE + """
            SELECT subj, pred, obj, obj_is_iri, obj_datatype, obj_lang
            FROM triples WHERE pred = 'https://example.org/def/rank'
        """,
        "kg_graph_stats": _TRIPLE_BASE_CTE + """
            SELECT CAST(count(*) AS BIGINT) AS n_triples,
                   CAST(count(DISTINCT subj) AS BIGINT) AS n_subjects,
                   CAST(count(DISTINCT pred) AS BIGINT) AS n_predicates,
                   CAST(count(DISTINCT obj) AS BIGINT) AS n_objects
            FROM triples
        """,
        "embed_quantize": """
            -- identical arithmetic to the Ray side: f32→f64 exact casts,
            -- scale = 127/max|x| (eps-guarded), q = floor(x*scale + 0.5)
            WITH e AS (
              SELECT vec_id, embedding,
                     127.0 / greatest(list_max(list_transform(embedding,
                               x -> abs(CAST(x AS DOUBLE)))), 1e-30) AS scale
              FROM embeddings),
            x AS (
              SELECT vec_id, scale, unnest(embedding) AS v,
                     generate_subscripts(embedding, 1) AS i
              FROM e)
            SELECT vec_id, CAST(i AS BIGINT) AS dim,
                   CAST(floor(CAST(v AS DOUBLE) * scale + 0.5) AS TINYINT) AS q
            FROM x
        """,
        "doc_term_stats": r"""
            WITH tok AS (
              SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS term
              FROM documents WHERE trim(text) != ''),
            tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
                   FROM tok GROUP BY 1, 2),
            df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term)
            SELECT tf.doc_id, tf.term, tf.tf, df.df FROM tf JOIN df USING (term)
        """,
        "events_funnel": """
            WITH fv AS (SELECT user_id, min(ts) AS t_view FROM events
                        WHERE event_type = 'view' GROUP BY 1),
            fc AS (SELECT e.user_id, min(e.ts) AS t_click
                   FROM events e JOIN fv USING (user_id)
                   WHERE e.event_type = 'click' AND e.ts > fv.t_view
                   GROUP BY 1),
            fe AS (SELECT e.user_id, min(e.ts) AS t_error
                   FROM events e JOIN fc USING (user_id)
                   WHERE e.event_type = 'error' AND e.ts > fc.t_click
                   GROUP BY 1)
            SELECT fv.user_id, fv.t_view, fc.t_click, fe.t_error
            FROM fv JOIN fc USING (user_id) JOIN fe USING (user_id)
        """,
        "events_sorted_export": """
            SELECT event_id, value FROM events
            WHERE value >= 5.0 AND value <= 7.5
        """,
        "events_watermark_ingest": """
            WITH b0 AS (SELECT event_id, user_id, ts FROM events
                        WHERE event_id % 3 = 0),
                 w0 AS (SELECT max(ts) AS m FROM b0),
                 b1 AS (SELECT event_id, user_id, ts FROM events
                        WHERE event_id % 3 = 1),
                 a1 AS (SELECT * FROM b1
                        WHERE ts >= (SELECT m FROM w0)
                                    - INTERVAL 30 MINUTE),
                 w1 AS (SELECT greatest(
                          (SELECT m FROM w0),
                          coalesce((SELECT max(ts) FROM a1),
                                   (SELECT m FROM w0))) AS m),
                 b2 AS (SELECT event_id, user_id, ts FROM events
                        WHERE event_id % 3 = 2),
                 a2 AS (SELECT * FROM b2
                        WHERE ts >= (SELECT m FROM w1)
                                    - INTERVAL 30 MINUTE)
            SELECT * FROM b0
            UNION ALL SELECT * FROM a1
            UNION ALL SELECT * FROM a2
        """,
        "events_session_stream": """
            WITH b0 AS (SELECT user_id, ts FROM events
                        WHERE event_id % 3 = 0),
                 w0 AS (SELECT max(ts) AS m FROM b0),
                 b1 AS (SELECT user_id, ts FROM events
                        WHERE event_id % 3 = 1),
                 a1 AS (SELECT * FROM b1
                        WHERE ts >= (SELECT m FROM w0)
                                    - INTERVAL 30 MINUTE),
                 w1 AS (SELECT greatest(
                          (SELECT m FROM w0),
                          coalesce((SELECT max(ts) FROM a1),
                                   (SELECT m FROM w0))) AS m),
                 b2 AS (SELECT user_id, ts FROM events
                        WHERE event_id % 3 = 2),
                 a2 AS (SELECT * FROM b2
                        WHERE ts >= (SELECT m FROM w1)
                                    - INTERVAL 30 MINUTE),
                 acc AS (SELECT user_id, ts FROM b0
                         UNION ALL SELECT * FROM a1
                         UNION ALL SELECT * FROM a2),
                 wmf AS (SELECT epoch_us(max(ts)) AS wm FROM acc),
                 lagd AS (SELECT user_id, ts,
                          CASE WHEN lag(ts) OVER w IS NULL
                               OR ts - lag(ts) OVER w > INTERVAL 1 HOUR
                               THEN 1 ELSE 0 END AS brk
                          FROM acc
                          WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
                 sess AS (SELECT user_id, ts,
                          SUM(brk) OVER (PARTITION BY user_id
                                         ORDER BY ts
                                         ROWS UNBOUNDED PRECEDING) AS sid
                          FROM lagd),
                 agg AS (SELECT user_id,
                                epoch_us(min(ts)) AS session_start_us,
                                epoch_us(max(ts)) AS session_end_us,
                                CAST(count(*) AS BIGINT) AS n
                         FROM sess GROUP BY user_id, sid)
            SELECT user_id, session_start_us, session_end_us, n
            FROM agg, wmf
            WHERE session_end_us + 3600000000 + 1800000000 <= wm
            ORDER BY user_id, session_start_us
        """,
        "events_hopping_counts": """
            WITH b0 AS (SELECT event_id, ts FROM events
                        WHERE event_id % 3 = 0),
                 w0 AS (SELECT max(ts) AS m FROM b0),
                 b1 AS (SELECT event_id, ts FROM events
                        WHERE event_id % 3 = 1),
                 a1 AS (SELECT * FROM b1
                        WHERE ts >= (SELECT m FROM w0)
                                    - INTERVAL 30 MINUTE),
                 w1 AS (SELECT greatest(
                          (SELECT m FROM w0),
                          coalesce((SELECT max(ts) FROM a1),
                                   (SELECT m FROM w0))) AS m),
                 b2 AS (SELECT event_id, ts FROM events
                        WHERE event_id % 3 = 2),
                 a2 AS (SELECT * FROM b2
                        WHERE ts >= (SELECT m FROM w1)
                                    - INTERVAL 30 MINUTE),
                 acc AS (SELECT ts FROM b0
                         UNION ALL SELECT ts FROM a1
                         UNION ALL SELECT ts FROM a2),
                 wmf AS (SELECT epoch_us(max(ts)) AS wm FROM acc),
                 -- each row lands in width/hop = 2 hopping windows:
                 -- its hour start and the hour before
                 expd AS (SELECT epoch_us(date_trunc('hour', ts))
                                 - j.j * 3600000000 AS window_start_us
                          FROM acc
                          CROSS JOIN (SELECT 0 AS j
                                      UNION ALL SELECT 1) j),
                 -- a window fires iff end + max_lateness <= watermark
                 closed AS (SELECT window_start_us FROM expd, wmf
                            WHERE window_start_us + 2 * 3600000000
                                  + 30 * 60000000 <= wm)
            SELECT window_start_us, count(*) AS n
            FROM closed GROUP BY window_start_us
            ORDER BY window_start_us
        """,
        "events_window_dedup": """
            WITH x AS (
              SELECT event_id, user_id, event_type, ts,
                     LAG(ts) OVER (PARTITION BY user_id, event_type
                                   ORDER BY ts, event_id) AS pts
              FROM events)
            SELECT event_id, user_id, event_type, ts FROM x
            WHERE pts IS NULL OR ts - pts > INTERVAL 30 MINUTE
        """,
        "events_inter_arrival": """
            SELECT event_id, user_id,
                   CAST(date_diff('microseconds',
                        LAG(ts) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id), ts)
                   AS BIGINT) AS delta_us
            FROM events
        """,
        "events_hourly_users": """
            SELECT date_trunc('hour', ts) AS hour,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY 1
        """,
        "events_moving_avg": """
            WITH e AS (SELECT event_id, user_id, ts,
                   CAST(round(value * 100.0) AS BIGINT) AS cents FROM events)
            SELECT event_id, user_id,
                   CAST(SUM(cents) OVER w AS BIGINT) AS win_sum,
                   CAST(COUNT(*) OVER w AS BIGINT) AS win_n,
                   CAST(SUM(cents) OVER w AS DOUBLE) / (COUNT(*) OVER w)
                       AS mov_avg
            FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
        """,
        "events_anomaly": """
            WITH c AS (SELECT CAST(epoch_us(ts) // 3600000000 AS BIGINT)
                           AS hour, CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1),
            st AS (SELECT CAST(count(*) AS BIGINT) AS h,
                          CAST(sum(n) AS BIGINT) AS s,
                          CAST(sum(n * n) AS BIGINT) AS s2 FROM c),
            zz AS (SELECT hour, n,
                       (CAST(n AS DOUBLE) - CAST(s AS DOUBLE) / h)
                       / sqrt(CAST(h * s2 - s * s AS DOUBLE)
                              / (CAST(h AS DOUBLE) * CAST(h AS DOUBLE)))
                           AS z
                   FROM c, st)
            SELECT hour, n, z FROM zz WHERE abs(z) > 3.0
        """,
        "events_running_sum": """
            SELECT event_id, user_id,
                   CAST(SUM(CAST(round(value * 100.0) AS BIGINT)) OVER
                     (PARTITION BY user_id ORDER BY ts, event_id)
                   AS BIGINT) AS run_cents
            FROM events
        """,
        "events_time_window": """
            WITH cents AS (SELECT user_id, ts,
                   CAST(round(value * 100.0) AS BIGINT) AS c FROM events),
            g AS (SELECT user_id, ts, CAST(sum(c) AS BIGINT) AS v,
                         CAST(count(*) AS BIGINT) AS n_rows
                  FROM cents GROUP BY 1, 2)
            SELECT user_id, ts, v, n_rows,
                   CAST(SUM(v) OVER win AS BIGINT) AS win_sum,
                   CAST(SUM(n_rows) OVER win AS BIGINT) AS win_rows,
                   CAST(COUNT(*) OVER win AS BIGINT) AS win_ts
            FROM g WINDOW win AS (PARTITION BY user_id ORDER BY ts
              RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
        """,
        "doc_bm25": r"""
            WITH tok AS (SELECT doc_id,
                   unnest(string_split_regex(trim(text), '\s+')) AS t
                   FROM documents WHERE trim(text) != ''),
            d AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS dl,
                    CAST(count(*) FILTER (t = 'hash') AS BIGINT) AS tf1,
                    CAST(count(*) FILTER (t = 'join') AS BIGINT) AS tf2,
                    CAST(count(*) FILTER (t = 'filter') AS BIGINT) AS tf3
                  FROM tok GROUP BY 1),
            c AS (SELECT
                (SELECT CAST(count(*) AS BIGINT) FROM documents) AS n_docs,
                (SELECT CAST(sum(dl) AS BIGINT) FROM d) AS n_tok,
                (SELECT CAST(count(*) FILTER (tf1 > 0) AS BIGINT) FROM d)
                    AS df1,
                (SELECT CAST(count(*) FILTER (tf2 > 0) AS BIGINT) FROM d)
                    AS df2,
                (SELECT CAST(count(*) FILTER (tf3 > 0) AS BIGINT) FROM d)
                    AS df3),
            s AS (SELECT doc_id,
                ((n_docs - df1 + 0.5e0) / (df1 + 0.5e0))
                  * ((tf1 * (1.2e0 + 1.0e0)) / (tf1 + 1.2e0
                      * ((1.0e0 - 0.75e0) + 0.75e0 * (CAST(dl AS DOUBLE)
                          / (CAST(n_tok AS DOUBLE) / n_docs)))))
              + ((n_docs - df2 + 0.5e0) / (df2 + 0.5e0))
                  * ((tf2 * (1.2e0 + 1.0e0)) / (tf2 + 1.2e0
                      * ((1.0e0 - 0.75e0) + 0.75e0 * (CAST(dl AS DOUBLE)
                          / (CAST(n_tok AS DOUBLE) / n_docs)))))
              + ((n_docs - df3 + 0.5e0) / (df3 + 0.5e0))
                  * ((tf3 * (1.2e0 + 1.0e0)) / (tf3 + 1.2e0
                      * ((1.0e0 - 0.75e0) + 0.75e0 * (CAST(dl AS DOUBLE)
                          / (CAST(n_tok AS DOUBLE) / n_docs)))))
                AS score
                FROM d, c)
            SELECT doc_id, score FROM s WHERE score > 0.0e0
            ORDER BY score DESC, doc_id LIMIT 20
        """,
        "customer_360": """
            WITH oa AS (SELECT o_custkey,
                   CAST(sum(CAST(round(o_totalprice * 100.0) AS BIGINT))
                        AS BIGINT) AS order_cents,
                   CAST(count(*) AS BIGINT) AS n_orders
                   FROM orders GROUP BY 1),
            ea AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
                   FROM events GROUP BY 1)
            SELECT c_custkey, c_mktsegment,
                   COALESCE(order_cents, 0) AS order_cents,
                   COALESCE(n_orders, 0) AS n_orders,
                   COALESCE(n_events, 0) AS n_events
            FROM customer
            LEFT JOIN oa ON c_custkey = oa.o_custkey
            LEFT JOIN ea ON c_custkey = ea.user_id
        """,
        "events_frequent_paths": """
            WITH o AS (SELECT user_id, event_type,
                   lead(event_type, 1) OVER w AS e2,
                   lead(event_type, 2) OVER w AS e3
                   FROM events WINDOW w AS
                     (PARTITION BY user_id ORDER BY ts, event_id)),
            t AS (SELECT event_type || '>' || e2 || '>' || e3 AS seq
                  FROM o WHERE e2 IS NOT NULL AND e3 IS NOT NULL)
            SELECT seq, CAST(count(*) AS BIGINT) AS n
            FROM t GROUP BY 1 ORDER BY n DESC, seq LIMIT 20
        """,
        "doc_top_terms": r"""
            WITH tok AS (
              SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS term
              FROM documents WHERE trim(text) != ''),
            tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
                   FROM tok GROUP BY 1, 2),
            df AS (SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY term),
            ts AS (SELECT tf.doc_id, tf.term, tf.tf, df.df
                   FROM tf JOIN df USING (term)),
            r AS (SELECT *, row_number() OVER
                    (PARTITION BY doc_id ORDER BY tf DESC, df, term) AS rn
                  FROM ts)
            SELECT doc_id, term, tf, df, CAST(rn AS BIGINT) AS rank
            FROM r WHERE rn <= 5
        """,
        "doc_tfidf": r"""
            WITH tok AS (
              SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS term
              FROM documents WHERE trim(text) != ''),
            tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
                   FROM tok GROUP BY 1, 2),
            df AS (SELECT term, CAST(count(*) AS BIGINT) AS df
                   FROM tf GROUP BY term),
            nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
            sc AS (SELECT tf.doc_id, tf.term,
                          tf.tf * ((1000000 * nn.n) // df.df) AS score
                   FROM tf JOIN df USING (term) CROSS JOIN nn),
            r AS (SELECT *, row_number() OVER
                    (PARTITION BY doc_id ORDER BY score DESC, term) AS rn
                  FROM sc)
            SELECT doc_id, term, CAST(score AS BIGINT) AS score,
                   CAST(rn AS BIGINT) AS rank
            FROM r WHERE rn <= 5
        """,
        "doc_domain_sample": """
            SELECT doc_id, source FROM (
              SELECT doc_id, source,
                     row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
              FROM documents) WHERE rn <= 20
        """,
        "doc_decontaminate": r"""
            WITH bench AS (
              SELECT array_to_string(list_slice(
                       string_split_regex(trim(text), '\s+'), 1, 5), ' ') AS phrase
              FROM documents WHERE doc_id % 97 = 0 AND trim(text) != '')
            SELECT d.doc_id,
                   coalesce(bool_or(contains(d.text, b.phrase)), FALSE) AS contaminated
            FROM documents d LEFT JOIN bench b ON TRUE
            GROUP BY d.doc_id
        """,
        "doc_minhash_verified": r"""
            WITH toks AS (
              SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token
              FROM documents WHERE doc_id < 100),
            sizes AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS sz FROM toks GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS a, b.doc_id AS b, CAST(count(*) AS BIGINT) AS intersection
              FROM toks a JOIN toks b ON a.token = b.token AND a.doc_id < b.doc_id
              GROUP BY 1, 2)
            SELECT i.a, i.b, i.intersection,
                   CAST(i.intersection AS DOUBLE) / (sa.sz + sb.sz - i.intersection) AS jaccard
            FROM inter i JOIN sizes sa ON i.a = sa.doc_id JOIN sizes sb ON i.b = sb.doc_id
            WHERE CAST(i.intersection AS DOUBLE) / (sa.sz + sb.sz - i.intersection) >= 0.9
        """,
        "doc_corpus_dedup_verified": r"""
            WITH RECURSIVE toks AS (
              SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token
              FROM documents WHERE doc_id < 100),
            sizes AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS sz
                      FROM toks GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS a, b.doc_id AS b,
                     CAST(count(*) AS BIGINT) AS i
              FROM toks a JOIN toks b
                ON a.token = b.token AND a.doc_id < b.doc_id
              GROUP BY 1, 2),
            pairs AS (
              SELECT i.a, i.b FROM inter i
              JOIN sizes sa ON i.a = sa.doc_id
              JOIN sizes sb ON i.b = sb.doc_id
              WHERE CAST(i.i AS DOUBLE) / (sa.sz + sb.sz - i.i) >= 0.9),
            edges AS (SELECT a AS x, b AS y FROM pairs
                      UNION ALL SELECT b, a FROM pairs),
            reach(id, r) AS (
              SELECT x, x FROM (SELECT DISTINCT x FROM edges)
              UNION
              SELECT e.y, reach.r FROM reach
              JOIN edges e ON e.x = reach.id),
            lab AS (SELECT id, MIN(r) AS label FROM reach GROUP BY id)
            SELECT doc_id FROM documents
            WHERE doc_id < 100
              AND doc_id NOT IN (SELECT id FROM lab WHERE id <> label)
        """,
        "doc_simhash_exact": r"""
            WITH toks AS (
              SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS tok
              FROM documents WHERE doc_id < 60),
            th AS (SELECT doc_id, md5_number_lower(tok) AS h FROM toks),
            nsz AS (SELECT doc_id, count(*) AS n FROM th GROUP BY doc_id),
            bits AS (
              SELECT t.doc_id, b.bit,
                     SUM(CASE WHEN (t.h >> CAST(b.bit AS UBIGINT))
                              & 1 = 1 THEN 1 ELSE 0 END) AS ones
              FROM th t, (SELECT range AS bit FROM range(0, 64)) b
              GROUP BY t.doc_id, b.bit),
            sig AS (
              -- HUGEINT shift: DuckDB's UBIGINT << overflows at bit 63
              SELECT bits.doc_id,
                     CAST(SUM(CASE WHEN 2 * ones > n
                              THEN CAST(1 AS HUGEINT) << bit
                              ELSE CAST(0 AS HUGEINT) END)
                          AS UBIGINT) AS s
              FROM bits JOIN nsz ON bits.doc_id = nsz.doc_id
              GROUP BY bits.doc_id)
            SELECT x.doc_id AS a, y.doc_id AS b,
                   CAST(bit_count(xor(x.s, y.s)) AS BIGINT) AS hamming
            FROM sig x JOIN sig y ON x.doc_id < y.doc_id
            WHERE bit_count(xor(x.s, y.s)) <= 3
        """,
        "doc_jaccard": r"""
            WITH toks AS (
              SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token
              FROM documents WHERE doc_id < 60),
            sizes AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS sz FROM toks GROUP BY doc_id),
            inter AS (
              SELECT a.doc_id AS a, b.doc_id AS b, CAST(count(*) AS BIGINT) AS intersection
              FROM toks a JOIN toks b ON a.token = b.token AND a.doc_id < b.doc_id
              GROUP BY 1, 2)
            SELECT i.a, i.b, i.intersection,
                   CAST(i.intersection AS DOUBLE) / (sa.sz + sb.sz - i.intersection) AS jaccard
            FROM inter i JOIN sizes sa ON i.a = sa.doc_id JOIN sizes sb ON i.b = sb.doc_id
        """,
        "embed_knn": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 4),
            sims AS (
              SELECT CAST(q.qid AS INTEGER) AS query_id, e.vec_id,
                     list_cosine_similarity(e.embedding, q.qe) AS s
              FROM embeddings e, q),
            ranked AS (
              SELECT query_id, vec_id,
                     row_number() OVER (PARTITION BY query_id ORDER BY s DESC, vec_id) AS rnk
              FROM sims)
            SELECT query_id, vec_id, CAST(rnk AS BIGINT) AS rank FROM ranked WHERE rnk <= 10
        """,
        "events_sessionize": """
            WITH x AS (
              SELECT user_id, ts,
                     CASE WHEN lag(ts) OVER w IS NULL
                          OR ts - lag(ts) OVER w > INTERVAL 1 HOUR
                          THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts)),
            y AS (
              SELECT user_id, ts,
                     sum(brk) OVER (PARTITION BY user_id ORDER BY ts
                                    ROWS UNBOUNDED PRECEDING) AS sid
              FROM x)
            SELECT user_id, CAST(sid AS BIGINT) AS session_id,
                   min(ts) AS session_start, max(ts) AS session_end,
                   CAST(count(*) AS BIGINT) AS n
            FROM y GROUP BY user_id, sid
        """,
        "events_attribution": """
            SELECT p.event_id, p.user_id, p.ts, c.ts AS click_ts
            FROM (SELECT * FROM events WHERE event_type = 'purchase') p
            ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c
              ON p.user_id = c.user_id AND p.ts >= c.ts
        """,
        "events_asof_orders": """
            SELECT e.event_id, e.user_id, e.ts, o.o_orderdate
            FROM events e ASOF LEFT JOIN orders o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        """,
        "orders_customer_hashjoin": """
            SELECT o_orderkey, o_custkey, c_mktsegment
            FROM orders JOIN customer ON o_custkey = c_custkey
        """,
        "lineitem_part_join": """
            SELECT l_orderkey, l_linenumber, l_partkey, p_name
            FROM lineitem JOIN part ON l_partkey = p_partkey
        """,
        "lineitem_basket_pairs": """
            WITH p AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
            pr AS (SELECT a.l_partkey AS pa, b.l_partkey AS pb
                   FROM p a JOIN p b ON a.l_orderkey = b.l_orderkey
                                    AND a.l_partkey < b.l_partkey),
            c AS (SELECT pa, pb, CAST(count(*) AS BIGINT) AS support
                  FROM pr GROUP BY 1, 2)
            SELECT pa, pb, support FROM c
            ORDER BY support DESC, pa, pb LIMIT 20
        """,
        "revenue_by_nation": """
            -- revenue in exact 1e-4-dollar int64 units until one final
            -- division (engine mirrors bit-for-bit; no float summation)
            SELECT n_name,
                   CAST(count(DISTINCT o_custkey) AS BIGINT) AS n_customers,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                        AS BIGINT) / 10000.0 AS revenue
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        "users_without_orders": """
            SELECT DISTINCT user_id FROM events
            WHERE user_id NOT IN (SELECT o_custkey FROM orders WHERE o_custkey < 10)
        """,
        "shipping_priority": """
            -- revenue summed as per-row half-up CENTS (int64): exact integer
            -- arithmetic on both sides — order-deterministic, hash-stable
            SELECT o_orderkey, o_orderdate,
                   sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                            AS BIGINT)) / 100.0 AS revenue
            FROM customer
            JOIN orders ON c_custkey = o_custkey
            JOIN lineitem ON l_orderkey = o_orderkey
            WHERE c_mktsegment = 'BUILDING'
              AND o_orderdate < TIMESTAMP '1998-01-01'
              AND l_shipdate > TIMESTAMP '1995-01-01'
            GROUP BY o_orderkey, o_orderdate
        """,
        "events_sliding_window": """
            SELECT user_id, make_timestamp(ws) AS window_start,
                   CAST(count(*) AS BIGINT) AS n
            FROM (
              SELECT user_id, epoch_us(ts) AS e,
                     ((epoch_us(ts) // 900000000) - o.o) * 900000000 AS ws
              FROM events, (SELECT unnest([0, 1, 2, 3]) AS o) o)
            WHERE e < ws + 3600000000
            GROUP BY user_id, ws
        """,
        "events_hourly": """
            SELECT user_id, date_trunc('hour', ts) AS hour,
                   CAST(count(*) AS BIGINT) AS n,
                   sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_value
            FROM events GROUP BY 1, 2
        """,
        "events_top_users": """
            SELECT user_id, CAST(count(*) AS BIGINT) AS n FROM events
            GROUP BY user_id ORDER BY n DESC, user_id LIMIT 10
        """,
        "events_top_per_user": """
            SELECT event_id, user_id, value FROM (
              SELECT event_id, user_id, value,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY value DESC, event_id) AS rn
              FROM events) WHERE rn <= 3
        """,
        "events_user_quantiles": """
            SELECT user_id, 0.5 AS q, quantile_disc(value, 0.5) AS value
            FROM events GROUP BY user_id
            UNION ALL
            SELECT user_id, 0.9, quantile_disc(value, 0.9)
            FROM events GROUP BY user_id
        """,
        "events_value_quantiles": """
            SELECT 0.25 AS q, quantile_disc(value, 0.25) AS value FROM events
            UNION ALL SELECT 0.5, quantile_disc(value, 0.5) FROM events
            UNION ALL SELECT 0.75, quantile_disc(value, 0.75) FROM events
            UNION ALL SELECT 0.9, quantile_disc(value, 0.9) FROM events
        """,
        "doc_train_split": """
            SELECT doc_id,
                   CASE WHEN (doc_id * 2654435761) % 4294967296 % 100 < 90
                        THEN 'train' ELSE 'val' END AS split
            FROM documents
        """,
        "lineitem_agg": """
            -- fixed-point per-row units summed as int64: exact on both sides
            SELECT l_returnflag, l_linestatus,
                   sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_qty,
                   sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_base_price,
                   sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) / 100.0 AS sum_disc_price,
                   sum(CAST(floor(l_discount * 1000000 + 0.5) AS BIGINT)) / 1000000.0 / count(*) AS avg_disc,
                   CAST(count(*) AS BIGINT) AS count_order
            FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
        """,
        "orders_by_segment": """
            SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "nation_region": """
            SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey
        """,
        "multimodal_decode": """
            SELECT doc_id,
                   CAST(64 + doc_id % 64 AS INTEGER) AS width,
                   CAST(48 + doc_id % 48 AS INTEGER) AS height,
                   CAST(3 AS INTEGER) AS channels,
                   CAST(9 + 4096 AS INTEGER) AS n_bytes
            FROM documents
        """,
        # rules and injection mirror q_doc_pii_redact verbatim (both engines
        # run RE2, so the exact same pattern strings apply)
        "doc_pii_redact": _pii_redact_sql(),
        "doc_inverted_index": r"""
            WITH dt AS (
              SELECT DISTINCT doc_id,
                     unnest(string_split_regex(trim(text), '\s+')) AS term
              FROM documents)
            SELECT term, CAST(count(*) AS BIGINT) AS df,
                   string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
                     AS postings
            FROM dt WHERE term <> '' GROUP BY term
        """,
        "doc_search": r"""
            WITH dt AS (
              SELECT DISTINCT doc_id,
                     unnest(string_split_regex(trim(text), '\s+')) AS term
              FROM documents)
            SELECT doc_id FROM dt
            WHERE term IN ('join', 'spark', 'window')
            GROUP BY doc_id HAVING count(*) = 3
        """,
        # unrolled 2-hop BFS: per hop, neighbors of the frontier in the
        # undirected edge set minus every earlier layer — mirrors
        # graph.bfs round-for-round
        "kg_bfs": _TRIPLE_BASE_CTE + f""",
            edges AS (SELECT regexp_replace(subj, '#.*$', '') AS s, obj AS o
                      FROM triples WHERE pred = '{EX}entity'),
            und AS (SELECT s, o FROM edges UNION SELECT o, s FROM edges),
            d0 AS (SELECT '{BFS_SEED}' AS node),
            d1 AS (SELECT DISTINCT u.o AS node FROM und u
                   JOIN d0 ON u.s = d0.node
                   WHERE u.o NOT IN (SELECT node FROM d0)),
            d2 AS (SELECT DISTINCT u.o AS node FROM und u
                   JOIN d1 ON u.s = d1.node
                   WHERE u.o NOT IN (SELECT node FROM d0
                                     UNION SELECT node FROM d1))
            SELECT node, CAST(0 AS BIGINT) AS dist FROM d0
            UNION ALL SELECT node, CAST(1 AS BIGINT) FROM d1
            UNION ALL SELECT node, CAST(2 AS BIGINT) FROM d2
        """,
        # mean/var/z computed from identical exact int64 cent sums in the
        # same expression order on both sides (DuckDB / on BIGINT is float
        # division, matching numpy true division)
        "events_user_zscore": """
            WITH c AS (SELECT event_id, user_id, value,
                              CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
                       FROM events),
            s AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n,
                         sum(cents) AS sc, sum(cents * cents) AS scc
                  FROM c GROUP BY user_id)
            SELECT c.event_id,
                   round((c.value - sc / n / 100.0)
                         / sqrt((scc / 10000.0
                                 - n * (sc / n / 100.0) * (sc / n / 100.0))
                                / (n - 1)), 4) AS z
            FROM c JOIN s USING (user_id) WHERE n > 1
        """,
        "doc_heavy_terms": r"""
            WITH t AS (SELECT unnest(string_split_regex(trim(text), '\s+')) AS term
                       FROM documents WHERE trim(text) != '')
            SELECT term, CAST(count(*) AS BIGINT) AS n FROM t
            GROUP BY term ORDER BY n DESC, term LIMIT 20
        """,
        "events_cohort_retention": """
            WITH d AS (SELECT DISTINCT user_id,
                              CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day
                       FROM events),
                 c AS (SELECT user_id, min(day) AS cohort_day
                       FROM d GROUP BY user_id)
            SELECT c.cohort_day, d.day, CAST(count(*) AS BIGINT) AS n_users
            FROM d JOIN c USING (user_id)
            GROUP BY c.cohort_day, d.day
        """,
        "events_day_over_day": """
            WITH d AS (SELECT user_id,
                              CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day,
                              SUM(CAST(round(value * 100) AS BIGINT)) AS cents
                       FROM events GROUP BY user_id, day)
            SELECT a.user_id, a.day, a.cents, b.cents AS prev_cents,
                   a.cents - b.cents AS delta_cents
            FROM d a JOIN d b
              ON a.user_id = b.user_id AND a.day = b.day + 1
        """,
        "events_rolling_active": """
            WITH d AS (SELECT DISTINCT user_id,
                              CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day
                       FROM events),
                 e AS (SELECT user_id, day + o.off AS wday FROM d,
                       (SELECT unnest(generate_series(0, 6)) AS off) o),
                 a AS (SELECT DISTINCT user_id, wday FROM e),
                 b AS (SELECT min(day) AS lo, max(day) AS hi FROM d)
            SELECT wday AS day, CAST(count(*) AS BIGINT) AS active_users
            FROM a, b WHERE wday BETWEEN lo AND hi GROUP BY wday
        """,
        "events_dominant_type": """
            WITH c AS (SELECT user_id, event_type,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY user_id, event_type),
                 r AS (SELECT *, row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY n DESC, event_type) AS rk FROM c)
            SELECT user_id, event_type, n FROM r WHERE rk = 1
        """,
        "events_latest": """
            WITH r AS (SELECT event_id, ts, user_id, value,
                              row_number() OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts DESC, event_id) AS rk
                       FROM events)
            SELECT event_id, ts, user_id, value FROM r WHERE rk = 1
        """,
        "events_orders_outer": """
            WITH e AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
                       FROM events GROUP BY user_id),
                 o AS (SELECT o_custkey AS user_id,
                              CAST(count(*) AS BIGINT) AS n_orders
                       FROM orders WHERE o_orderpriority = '1-URGENT'
                       GROUP BY o_custkey)
            SELECT COALESCE(e.user_id, o.user_id) AS user_id,
                   e.n_events, o.n_orders
            FROM e FULL JOIN o ON e.user_id = o.user_id
        """,
        "events_profile": """
            SELECT 'event_id' AS column,
                   CAST(count(*) - count(event_id) AS BIGINT) AS n_nulls,
                   CAST(count(DISTINCT event_id) AS BIGINT) AS n_distinct,
                   CAST(min(event_id) AS DOUBLE) AS min_v,
                   CAST(max(event_id) AS DOUBLE) AS max_v FROM events
            UNION ALL
            SELECT 'user_id', CAST(count(*) - count(user_id) AS BIGINT),
                   CAST(count(DISTINCT user_id) AS BIGINT),
                   CAST(min(user_id) AS DOUBLE), CAST(max(user_id) AS DOUBLE)
            FROM events
            UNION ALL
            SELECT 'value', CAST(count(*) - count(value) AS BIGINT),
                   CAST(count(DISTINCT value) AS BIGINT),
                   min(value), max(value) FROM events
            UNION ALL
            SELECT 'event_type', CAST(count(*) - count(event_type) AS BIGINT),
                   CAST(count(DISTINCT event_type) AS BIGINT),
                   CAST(NULL AS DOUBLE), CAST(NULL AS DOUBLE) FROM events
        """,
        # walk-step arithmetic mirrors graph.random_walks verbatim
        "kg_kcore": _kcore_oracle_sql(2),
        "kg_negative_samples": _TRIPLE_BASE_CTE + rf"""
            , e0 AS (SELECT subj, obj FROM triples
                     WHERE pred = '{EX}entity'),
            ents AS (SELECT obj AS ent,
                            row_number() OVER (ORDER BY obj) - 1 AS r
                     FROM (SELECT DISTINCT obj FROM e0)),
            nn AS (SELECT count(*) AS c FROM ents),
            pos AS (SELECT subj, obj,
                           CAST(regexp_extract(subj, '(\d+)$', 1)
                                AS BIGINT) AS idx_s,
                           CAST(regexp_extract(obj, '(\d+)$', 1)
                                AS BIGINT) AS idx_o
                    FROM e0),
            cand AS (SELECT p.subj, p.obj, CAST(v.k AS BIGINT) AS k,
                            (p.idx_s * 1000003 + p.idx_o * 7919
                             + v.k * 104729) % nn.c AS rank, nn.c AS c
                     FROM pos p, (VALUES (0), (1)) v(k), nn)
            SELECT cand.subj, cand.obj, cand.k,
                   CASE WHEN e1.ent = cand.obj THEN e2.ent
                        ELSE e1.ent END AS neg_obj
            FROM cand
            JOIN ents e1 ON e1.r = cand.rank
            JOIN ents e2 ON e2.r = (cand.rank + 1) % cand.c
        """,
        "kg_walks": _TRIPLE_BASE_CTE + rf""",
            e0 AS (SELECT regexp_replace(subj, '#.*$', '') AS s, obj AS o
                   FROM triples WHERE pred = '{EX}entity'),
            und AS (SELECT s, o FROM e0 UNION ALL SELECT o, s FROM e0),
            er AS (SELECT s, o,
                          row_number() OVER (PARTITION BY s ORDER BY o) - 1 AS r,
                          count(*) OVER (PARTITION BY s) AS deg FROM und),
            seeds AS (SELECT DISTINCT o AS seed FROM e0),
            w0 AS (SELECT seed, CAST(v.w AS BIGINT) AS w, seed AS node
                   FROM seeds, (VALUES (0), (1)) v(w)),
            p0 AS (SELECT seed, w, node,
                          CAST(regexp_extract(node, '(\d+)$', 1) AS BIGINT) AS idx
                   FROM w0),
            w1 AS (SELECT p.seed, p.w, e.o AS node FROM p0 p
                   JOIN er e ON e.s = p.node
                    AND e.r = (p.w * 1000003 + 1 * 7919 + p.idx * 104729)
                              % e.deg),
            p1 AS (SELECT seed, w, node,
                          CAST(regexp_extract(node, '(\d+)$', 1) AS BIGINT) AS idx
                   FROM w1),
            w2 AS (SELECT p.seed, p.w, e.o AS node FROM p1 p
                   JOIN er e ON e.s = p.node
                    AND e.r = (p.w * 1000003 + 2 * 7919 + p.idx * 104729)
                              % e.deg)
            SELECT seed, w, CAST(0 AS BIGINT) AS step, node FROM w0
            UNION ALL SELECT seed, w, CAST(1 AS BIGINT), node FROM w1
            UNION ALL SELECT seed, w, CAST(2 AS BIGINT), node FROM w2
        """,
        "doc_rollup": """
            SELECT source, lang, CAST(count(*) AS BIGINT) AS n_docs
            FROM documents GROUP BY ROLLUP(source, lang)
        """,
        "events_cube": """
            WITH e AS (SELECT event_type,
                   CAST((epoch_us(ts) // 86400000000 + 4) % 7 AS BIGINT)
                       AS dow,
                   CAST(round(value * 100) AS BIGINT) AS cents FROM events)
            SELECT event_type, dow, CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(cents) AS BIGINT) AS sum_cents
            FROM e GROUP BY CUBE(event_type, dow)
        """,
        "events_gapfill": """
            WITH d AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                           AS day FROM events),
            c AS (SELECT day, CAST(count(*) AS BIGINT) AS n
                  FROM d GROUP BY day),
            b AS (SELECT min(day) AS lo, max(day) AS hi FROM d),
            s AS (SELECT unnest(generate_series(lo, hi)) AS day FROM b)
            SELECT s.day, CAST(coalesce(c.n, 0) AS BIGINT) AS n
            FROM s LEFT JOIN c USING (day)
        """,
        "events_user_paths": """
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
                   string_agg(event_type, ','
                              ORDER BY ts, event_id) AS path
            FROM events GROUP BY user_id
        """,
        "events_value_mad": """
            WITH m AS (SELECT quantile_disc(value, 0.5) AS med FROM events),
            d AS (SELECT abs(value - med) AS ad FROM events, m)
            SELECT (SELECT med FROM m) AS median,
                   quantile_disc(ad, 0.5) AS mad FROM d
        """,
        "doc_length_rank": r"""
            WITH t AS (SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE CAST(len(string_split_regex(trim(text), '\s+'))
                                  AS BIGINT) END AS n_tokens
                   FROM documents)
            SELECT doc_id, n_tokens,
                   CAST(percent_rank() OVER (ORDER BY n_tokens) AS DOUBLE)
                       AS pct_rank
            FROM t
        """,
        "lineitem_corr": """
            -- exact integer moments; final float expression mirrors the
            -- engine's IEEE op order exactly (sqrt+divide of exact ints)
            WITH m AS (SELECT l_returnflag,
                   CAST(round(l_quantity) AS BIGINT) AS x,
                   CAST(round(l_discount * 100) AS BIGINT) AS y
                   FROM lineitem),
            g AS (SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
                   CAST(sum(x * y) AS BIGINT) AS sxy,
                   CAST(sum(x * x) AS BIGINT) AS sx2,
                   CAST(sum(y * y) AS BIGINT) AS sy2
                   FROM m GROUP BY l_returnflag)
            SELECT l_returnflag, n,
                   CAST(n * sxy - sx * sy AS DOUBLE)
                   / (sqrt(CAST(n * sx2 - sx * sx AS DOUBLE))
                      * sqrt(CAST(n * sy2 - sy * sy AS DOUBLE))) AS corr_qd
            FROM g
        """,
        "events_value_ntile": """
            WITH q AS (SELECT quantile_disc(value, [0.25, 0.5, 0.75]) AS qs
                       FROM events)
            SELECT event_id,
                   CAST(CASE WHEN value <= qs[1] THEN 1
                             WHEN value <= qs[2] THEN 2
                             WHEN value <= qs[3] THEN 3
                             ELSE 4 END AS BIGINT) AS bucket
            FROM events, q
        """,
        "doc_related_pairs": r"""
            WITH tok AS (SELECT doc_id, string_split_regex(trim(text), '\s+') AS ws
                         FROM documents WHERE trim(text) != ''),
            t AS (SELECT doc_id, unnest(ws) AS w,
                         generate_subscripts(ws, 1) AS i FROM tok),
            big AS (SELECT a.doc_id, a.w || ' ' || b.w AS bg
                    FROM t a JOIN t b ON a.doc_id = b.doc_id AND b.i = a.i + 1),
            tf AS (SELECT doc_id, bg, CAST(count(*) AS BIGINT) AS tf
                   FROM big GROUP BY 1, 2),
            rare AS (SELECT bg FROM tf GROUP BY bg
                     HAVING count(*) <= (SELECT count(*) // 50 FROM documents)),
            p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                         CAST(sum(a.tf * b.tf) AS BIGINT) AS score
                  FROM tf a JOIN tf b
                    ON a.bg = b.bg AND a.doc_id < b.doc_id
                  WHERE a.bg IN (SELECT bg FROM rare)
                  GROUP BY 1, 2)
            SELECT doc_a, doc_b, score FROM p
            ORDER BY score DESC, doc_a, doc_b LIMIT 100
        """,
        "events_tier_join": """
            WITH tiers(lo, hi, tier) AS (VALUES
              (0.0, 100.0, 'low'), (100.0, 250.0, 'mid'),
              (250.0, 500.0, 'high'))
            SELECT event_id, tier FROM events
            JOIN tiers ON value >= lo AND value < hi
        """,
        "events_type_pivot": """
            SELECT user_id,
                   CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_click,
                   CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_error,
                   CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_purchase,
                   CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_signup,
                   CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_view,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM events GROUP BY user_id
        """,
        "doc_corpus_report": r"""
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(CASE WHEN trim(text) = '' THEN 0
                        ELSE CAST(len(string_split_regex(trim(text), '\s+'))
                             AS BIGINT) END) AS BIGINT) AS total_tokens,
                   CAST(sum(CAST(n_chars AS BIGINT)) AS BIGINT) AS total_chars
            FROM documents GROUP BY source
        """,
        "events_value_hist": """
            SELECT CAST(floor(value / 50.0) AS BIGINT) AS bin,
                   CAST(count(*) AS BIGINT) AS n
            FROM events GROUP BY 1
        """,
        # taxonomy closure unrolled semi-naively: a_k = paths of exactly k
        # hops; the deepest chain 49→24→12→6→3→1→0 is 6 hops
        "kg_taxonomy_rollup": _TRIPLE_BASE_CTE + rf""",
            de AS (SELECT DISTINCT regexp_replace(subj, '#.*$', '') AS doc,
                          obj AS ent
                   FROM triples WHERE pred = '{EX}entity'),
            ents AS (SELECT DISTINCT ent FROM de),
            ei AS (SELECT ent, CAST(regexp_extract(ent, 'Entity(\d+)$', 1)
                               AS BIGINT) AS i FROM ents),
            par AS (SELECT ent AS child,
                           '{ENTITY_PREFIX}' || CAST(i // 2 AS VARCHAR) AS parent
                    FROM ei WHERE i >= 1),
            a1 AS (SELECT child, parent AS anc FROM par),
            a2 AS (SELECT a1.child, p.parent AS anc FROM a1
                   JOIN par p ON a1.anc = p.child),
            a3 AS (SELECT a2.child, p.parent AS anc FROM a2
                   JOIN par p ON a2.anc = p.child),
            a4 AS (SELECT a3.child, p.parent AS anc FROM a3
                   JOIN par p ON a3.anc = p.child),
            a5 AS (SELECT a4.child, p.parent AS anc FROM a4
                   JOIN par p ON a4.anc = p.child),
            a6 AS (SELECT a5.child, p.parent AS anc FROM a5
                   JOIN par p ON a5.anc = p.child),
            reach AS (SELECT child, anc FROM
                        (SELECT * FROM a1 UNION SELECT * FROM a2
                         UNION SELECT * FROM a3 UNION SELECT * FROM a4
                         UNION SELECT * FROM a5 UNION SELECT * FROM a6)
                      UNION SELECT ent, ent FROM ents),
            pairs AS (SELECT DISTINCT de.doc, r.anc AS entity
                      FROM de JOIN reach r ON de.ent = r.child)
            SELECT entity, CAST(count(*) AS BIGINT) AS n_docs
            FROM pairs GROUP BY entity
        """,
        "kg_snapshot_diff": _TRIPLE_BASE_CTE + r""",
            ids AS (SELECT *, CAST(regexp_extract(subj, 'doc/(\d+)#', 1)
                               AS BIGINT) AS did FROM triples),
            oldt AS (SELECT subj, pred, obj, obj_is_iri, obj_datatype, obj_lang
                     FROM ids WHERE did % 5 != 0),
            newt AS (SELECT subj, pred, obj, obj_is_iri, obj_datatype, obj_lang
                     FROM ids WHERE did % 7 != 0)
            SELECT *, 'removed' AS change
            FROM (SELECT * FROM oldt EXCEPT SELECT * FROM newt)
            UNION ALL
            SELECT *, 'added' AS change
            FROM (SELECT * FROM newt EXCEPT SELECT * FROM oldt)
        """,
        # outlink targets re-derived from the fixture's doc_id arithmetic
        # (cattle_ray.pages.doc_link_dsts, _LINK_EDGES_CTE)
        "kg_link_graph": _LINK_EDGES_CTE + """
            SELECT o AS dst, count(*) AS n FROM edges
            GROUP BY o ORDER BY n DESC, dst LIMIT 20
        """,
        # Jaccard of neighbor (doc) sets over the entity edges; the one
        # float op is the final division over exact BIGINT inputs,
        # mirrored in the Ray kernel op-for-op
        "kg_link_prediction": _TRIPLE_BASE_CTE + """,
            ents AS (SELECT DISTINCT regexp_replace(subj, '#.*$', '') AS doc,
                            obj AS ent FROM triples
                     WHERE pred = 'https://example.org/def/entity'),
            deg AS (SELECT ent, count(*) AS d FROM ents GROUP BY ent),
            pairs AS (SELECT a.ent AS ea, b.ent AS eb,
                             CAST(count(*) AS BIGINT) AS c
                      FROM ents a JOIN ents b
                        ON a.doc = b.doc AND a.ent < b.ent
                      GROUP BY a.ent, b.ent)
            SELECT p.ea, p.eb, p.c AS common,
                   CAST(p.c AS DOUBLE) /
                   CAST(da.d + db.d - p.c AS DOUBLE) AS jac
            FROM pairs p
            JOIN deg da ON da.ent = p.ea
            JOIN deg db ON db.ent = p.eb
            ORDER BY jac DESC, p.ea, p.eb LIMIT 20
        """,
        # PageRank over the arithmetic-derived link graph; same 6-decimal
        # rounding envelope as kg_pagerank
        "kg_web_pagerank": _pagerank_sql(5, graph_cte=_LINK_EDGES_CTE),
        "kg_communities": _lpa_sql(3),
        "lineitem_q6_revenue": """
            SELECT coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                              * CAST(round(l_discount * 100) AS BIGINT)), 0)
                   / 10000.0e0 AS revenue
            FROM lineitem
            WHERE l_discount >= 0.05 AND l_discount <= 0.07
              AND l_quantity < 24
        """,
        "kg_reciprocal_links": _LINK_EDGES_CTE + """,
            dd AS (SELECT DISTINCT s, o FROM edges)
            SELECT d1.s AS a, d1.o AS b
            FROM dd d1 JOIN dd d2 ON d1.s = d2.o AND d1.o = d2.s
            WHERE d1.s < d1.o
        """,
        "kg_path2_counts": _LINK_EDGES_CTE + """,
            dd AS (SELECT DISTINCT s, o FROM edges)
            SELECT e1.s AS a, e2.o AS c, count(*) AS paths
            FROM dd e1 JOIN dd e2 ON e1.o = e2.s
            GROUP BY e1.s, e2.o
            ORDER BY paths DESC, a, c LIMIT 20
        """,
        # identical quantize arithmetic to embed_quantize; centroid =
        # CAST(sum) AS DOUBLE / count — the one mirrored float division
        "embed_label_centroids": """
            WITH e AS (
              SELECT label, embedding,
                     127.0 / greatest(list_max(list_transform(embedding,
                               x -> abs(CAST(x AS DOUBLE)))), 1e-30) AS scale
              FROM embeddings),
            x AS (
              SELECT label, scale, unnest(embedding) AS v,
                     generate_subscripts(embedding, 1) AS i
              FROM e)
            SELECT CAST(label AS BIGINT) AS label, CAST(i AS BIGINT) AS dim,
                   CAST(sum(CAST(floor(CAST(v AS DOUBLE) * scale + 0.5)
                                 AS BIGINT)) AS DOUBLE) / count(*) AS centroid
            FROM x GROUP BY label, i
        """,
        "kg_dead_links": _LINK_EDGES_CTE + """
            SELECT o AS dst, count(*) AS n FROM edges
            WHERE o NOT IN (
              SELECT 'https://example.org/doc/' || doc_id
              FROM documents WHERE lang = 'en')
            GROUP BY o ORDER BY n DESC, dst LIMIT 20
        """,
        "orders_priority_exists": """
            SELECT o_orderpriority, count(*) AS n
            FROM orders o
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_discount >= 0.05)
            GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        # q < 0.2·avg as exact integer cross-multiplication (5·q·n < sq);
        # fixed-point cents summed exactly, ONE mirrored float division
        "lineitem_avg_qty": """
            WITH li AS (SELECT l_partkey,
                               CAST(round(l_quantity) AS BIGINT) AS q,
                               CAST(round(l_extendedprice * 100)
                                    AS BIGINT) AS pcents
                        FROM lineitem),
            agg AS (SELECT l_partkey, sum(q) AS sq, count(*) AS n
                    FROM li GROUP BY l_partkey)
            SELECT coalesce(sum(li.pcents), 0) / 700.0e0 AS avg_yearly
            FROM li JOIN agg ON li.l_partkey = agg.l_partkey
            WHERE 5 * li.q * agg.n < agg.sq
        """,
        "kg_property_table": _TRIPLE_BASE_CTE + f"""
            SELECT subj,
                   max(CASE WHEN pred = '{EX}rank' THEN obj END) AS v_rank,
                   max(CASE WHEN pred = '{EX}name' THEN obj END) AS v_name,
                   max(CASE WHEN pred = '{EX}entity' THEN obj END) AS v_entity,
                   max(CASE WHEN pred = '{EX}score' THEN obj END) AS v_score
            FROM triples GROUP BY subj
        """,
        "kg_property_roundtrip": _TRIPLE_BASE_CTE + """
            SELECT subj, pred, obj FROM triples
        """,
        "kg_pattern_join": _TRIPLE_BASE_CTE + f""",
            r1 AS (SELECT subj FROM triples
                   WHERE pred = '{EX}rank' AND obj = '1'),
            e AS (SELECT subj, obj FROM triples
                  WHERE pred = '{EX}entity')
            SELECT e.obj AS entity, count(*) AS n
            FROM r1 JOIN e USING (subj) GROUP BY e.obj
        """,
        "kg_validate": _TRIPLE_BASE_CTE + f"""
            SELECT 'entity_is_iri' AS rule, count(*) AS violations
            FROM triples WHERE pred = '{EX}entity' AND NOT obj_is_iri
            UNION ALL
            SELECT 'rank_in_domain', count(*) FROM triples
            WHERE pred = '{EX}rank' AND obj NOT IN ('1', '2', '3')
            UNION ALL
            SELECT 'score_below_500', count(*) FROM triples
            WHERE pred = '{EX}score' AND CAST(obj AS BIGINT) >= 500
            UNION ALL
            SELECT 'name_no_7_suffix', count(*) FROM triples
            WHERE pred = '{EX}name' AND obj LIKE '%7'
            UNION ALL
            SELECT 'subject_complete', count(*) FROM (
              SELECT subj FROM (SELECT DISTINCT subj, pred FROM triples)
              GROUP BY subj HAVING count(*) < 4)
        """,
        "customer_order_dist": """
            WITH oc AS (SELECT o_custkey, count(*) AS n
                        FROM orders GROUP BY o_custkey)
            SELECT coalesce(oc.n, 0) AS c_orders, count(*) AS custdist
            FROM customer LEFT JOIN oc ON c_custkey = o_custkey
            GROUP BY coalesce(oc.n, 0)
        """,
        # mirrored float ops: (100.0 * CAST(p AS DOUBLE)) / CAST(t AS DOUBLE)
        "promo_revenue": """
            WITH li AS (SELECT l_partkey,
                               CAST(round(l_extendedprice * 100) AS BIGINT)
                               * (100 - CAST(round(l_discount * 100) AS BIGINT))
                               AS rev_e4
                        FROM lineitem
                        WHERE l_shipdate >= TIMESTAMP '1995-09-01'
                          AND l_shipdate < TIMESTAMP '1995-10-01')
            SELECT (100.0e0 * CAST(sum(CASE WHEN p_type = 'PROMO'
                                            THEN rev_e4 ELSE 0 END) AS DOUBLE))
                   / CAST(sum(rev_e4) AS DOUBLE) AS promo_revenue
            FROM li JOIN part ON l_partkey = p_partkey
        """,
        "large_orders": """
            SELECT o_orderkey, o_custkey,
                   CAST(sum(CAST(round(l_quantity) AS BIGINT))
                        AS BIGINT) AS total_qty
            FROM orders JOIN lineitem ON l_orderkey = o_orderkey
            GROUP BY o_orderkey, o_custkey
            HAVING sum(CAST(round(l_quantity) AS BIGINT)) > 200
        """,
        "kg_bgp_minus": _TRIPLE_BASE_CTE + f""",
            req AS (SELECT subj AS s, obj AS v FROM triples
                    WHERE pred = '{EX}score')
            SELECT r.s, r.v FROM req r
            WHERE NOT EXISTS (SELECT 1 FROM triples t
                              WHERE t.pred = '{EX}rank' AND t.obj = r.v)
        """,
        "kg_bgp_groupby": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            rk AS (SELECT subj, CAST(obj AS BIGINT) AS r FROM triples
                   WHERE pred = '{EX}rank')
            SELECT e, CAST(count(*) AS BIGINT) AS n,
                   CAST(SUM(r) AS BIGINT) AS total
            FROM en JOIN rk USING (subj) GROUP BY e
            ORDER BY total DESC, e LIMIT 25
        """,
        "kg_bgp_obj_route": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj AS s FROM triples
                   WHERE pred = '{EX}entity'
                     AND obj = 'https://example.org/id/entity/Entity7'),
            rk AS (SELECT subj AS s, obj AS r FROM triples
                   WHERE pred = '{EX}rank')
            SELECT s, r FROM en JOIN rk USING (s)
        """,
        "kg_federated_obj_route": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj AS s FROM triples
                   WHERE pred = '{EX}entity'
                     AND obj = 'https://example.org/id/entity/Entity7'),
            rk AS (SELECT subj AS s, obj AS r FROM triples
                   WHERE pred = '{EX}rank')
            SELECT s, r FROM en JOIN rk USING (s)
        """,
        "kg_bgp_union": _TRIPLE_BASE_CTE + f"""
            SELECT subj AS s, obj AS r, CAST(NULL AS VARCHAR) AS v
            FROM triples WHERE pred = '{EX}rank'
            UNION ALL
            SELECT subj, NULL, obj FROM triples WHERE pred = '{EX}score'
        """,
        "kg_bgp_bind": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj AS s, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            rk AS (SELECT subj AS s, obj AS r FROM triples
                   WHERE pred = '{EX}rank')
            SELECT s, e || '#' || r AS tag,
                   CAST(r AS BIGINT) * 10 AS r10
            FROM en JOIN rk USING (s)
        """,
        "kg_bgp_exists": _TRIPLE_BASE_CTE + f"""
            SELECT t.subj AS s, t.obj AS v FROM triples t
            WHERE t.pred = '{EX}score'
              AND EXISTS (SELECT 1 FROM triples r
                          WHERE r.subj = t.subj
                            AND r.pred = '{EX}rank' AND r.obj = '2')
        """,
        "kg_bgp_values": _TRIPLE_BASE_CTE + f"""
            SELECT t.subj AS s, t.obj AS ent, x.tier
            FROM triples t
            JOIN (VALUES ('Entity7', 'gold'), ('Entity11', 'silver'))
                 AS x(ent, tier) ON t.obj = x.ent
            WHERE t.pred = '{EX}name'
        """,
        "kg_bgp_count_distinct": _TRIPLE_BASE_CTE + f""",
            nm AS (SELECT subj AS s, obj AS e FROM triples
                   WHERE pred = '{EX}name'),
            sc AS (SELECT subj AS s, obj AS v FROM triples
                   WHERE pred = '{EX}score')
            SELECT e, count(*) AS n, count(DISTINCT v) AS n_scores
            FROM nm JOIN sc USING (s) GROUP BY e
        """,
        "kg_bgp_minmax": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj AS s, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            rk AS (SELECT subj AS s, obj AS r,
                          CAST(obj AS BIGINT) AS ri FROM triples
                   WHERE pred = '{EX}rank')
            SELECT e, CAST(min(ri) AS BIGINT) AS lo,
                   CAST(max(ri) AS BIGINT) AS hi,
                   coalesce(string_agg(r, ',' ORDER BY r), '') AS ranks,
                   CAST(sum(ri) AS BIGINT) AS total,
                   CAST(count(*) AS BIGINT) AS n
            FROM en JOIN rk USING (s) GROUP BY e
        """,
        "kg_bgp_graph": _TRIPLE_BASE_CTE + rf"""
            SELECT subj AS s, obj AS r FROM triples
            WHERE pred = '{EX}rank'
              AND (CAST(regexp_extract(subj, 'doc/(\d+)#', 1) AS BIGINT)
                   // 4) % 2 = 0
        """,
        "kg_bgp_path": _TRIPLE_BASE_CTE + rf""",
            ents AS (SELECT DISTINCT obj AS ent FROM triples
                     WHERE pred = '{EX}entity'),
            ei AS (SELECT ent, CAST(regexp_extract(ent, 'Entity(\d+)$', 1)
                               AS BIGINT) AS i FROM ents),
            par AS (SELECT ent AS child,
                           '{ENTITY_PREFIX}' || CAST(i // 2 AS VARCHAR)
                             AS parent
                    FROM ei WHERE i >= 1),
            a1 AS (SELECT child, parent AS anc FROM par),
            a2 AS (SELECT a1.child, p.parent AS anc FROM a1
                   JOIN par p ON a1.anc = p.child),
            a3 AS (SELECT a2.child, p.parent AS anc FROM a2
                   JOIN par p ON a2.anc = p.child),
            a4 AS (SELECT a3.child, p.parent AS anc FROM a3
                   JOIN par p ON a3.anc = p.child),
            a5 AS (SELECT a4.child, p.parent AS anc FROM a4
                   JOIN par p ON a4.anc = p.child),
            a6 AS (SELECT a5.child, p.parent AS anc FROM a5
                   JOIN par p ON a5.anc = p.child)
            SELECT DISTINCT child AS e, anc AS a FROM
              (SELECT * FROM a1 UNION SELECT * FROM a2
               UNION SELECT * FROM a3 UNION SELECT * FROM a4
               UNION SELECT * FROM a5 UNION SELECT * FROM a6)
        """,
        "kg_sparql_graph_path": _TRIPLE_BASE_CTE + rf""",
            ents AS (SELECT DISTINCT obj AS ent FROM triples
                     WHERE pred = '{EX}entity'),
            ei AS (SELECT ent, CAST(regexp_extract(ent, 'Entity(\d+)$', 1)
                               AS BIGINT) AS i FROM ents),
            par AS (SELECT ent AS child,
                           '{ENTITY_PREFIX}' || CAST(i // 2 AS VARCHAR)
                             AS parent,
                           'https://example.org/graph/'
                             || CAST(i % 2 AS VARCHAR) AS g
                    FROM ei WHERE i >= 1),
            a1 AS (SELECT g, child AS e, parent AS a FROM par),
            a2 AS (SELECT a1.g, a1.e, p.parent AS a FROM a1
                   JOIN par p ON a1.a = p.child AND a1.g = p.g),
            a3 AS (SELECT a2.g, a2.e, p.parent AS a FROM a2
                   JOIN par p ON a2.a = p.child AND a2.g = p.g),
            a4 AS (SELECT a3.g, a3.e, p.parent AS a FROM a3
                   JOIN par p ON a3.a = p.child AND a3.g = p.g),
            a5 AS (SELECT a4.g, a4.e, p.parent AS a FROM a4
                   JOIN par p ON a4.a = p.child AND a4.g = p.g)
            SELECT DISTINCT g, e, a FROM
              (SELECT * FROM a1 UNION SELECT * FROM a2
               UNION SELECT * FROM a3 UNION SELECT * FROM a4
               UNION SELECT * FROM a5)
        """,
        "kg_sparql_hashfns": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            nm AS (SELECT subj, obj AS n FROM triples
                   WHERE pred = '{EX}name'),
            rk AS (SELECT subj, obj AS r FROM triples
                   WHERE pred = '{EX}rank')
            SELECT en.subj AS s, md5(e) AS h,
                   replace(replace(n || ' #' || r, ' ', '%20'),
                           '#', '%23') AS u,
                   CAST(year(strptime('200' || r || '-03-05T10:20:30',
                        '%Y-%m-%dT%H:%M:%S')) AS BIGINT) AS y
            FROM en JOIN nm USING (subj) JOIN rk USING (subj)
        """,
        "kg_sparql_quant_path": _TRIPLE_BASE_CTE + rf""",
            ents AS (SELECT DISTINCT obj AS ent FROM triples
                     WHERE pred = '{EX}entity'),
            ei AS (SELECT ent, CAST(regexp_extract(ent, 'Entity(\d+)$', 1)
                               AS BIGINT) AS i FROM ents),
            par AS (SELECT ent AS child,
                           '{ENTITY_PREFIX}' || CAST(i // 2 AS VARCHAR)
                             AS parent
                    FROM ei WHERE i >= 1),
            h1 AS (SELECT child AS e, parent AS a FROM par),
            h2 AS (SELECT p1.child AS e, p2.parent AS a FROM par p1
                   JOIN par p2 ON p1.parent = p2.child)
            SELECT DISTINCT e, a FROM
              (SELECT * FROM h1 UNION SELECT * FROM h2)
        """,
        "kg_owl_chain": _TRIPLE_BASE_CTE + rf""",
            ents AS (SELECT DISTINCT obj AS ent FROM triples
                     WHERE pred = '{EX}entity'),
            ei AS (SELECT ent, CAST(regexp_extract(ent, 'Entity(\d+)$', 1)
                               AS BIGINT) AS i FROM ents),
            par AS (SELECT ent AS child,
                           '{ENTITY_PREFIX}' || CAST(i // 2 AS VARCHAR)
                             AS parent
                    FROM ei WHERE i >= 1)
            SELECT DISTINCT p1.child AS e, p2.parent AS g FROM par p1
            JOIN par p2 ON p1.parent = p2.child
        """,
        "kg_sparql_group_path": _TRIPLE_BASE_CTE + rf""",
            ents AS (SELECT DISTINCT obj AS ent FROM triples
                     WHERE pred = '{EX}entity'),
            ei AS (SELECT ent, CAST(regexp_extract(ent, 'Entity(\d+)$', 1)
                               AS BIGINT) AS i FROM ents),
            par AS (SELECT ent AS child,
                           '{ENTITY_PREFIX}' || CAST(i // 2 AS VARCHAR)
                             AS parent
                    FROM ei WHERE i >= 1),
            g2 AS (SELECT p1.child, p2.parent FROM par p1
                   JOIN par p2 ON p1.parent = p2.child),
            a1 AS (SELECT child AS e, parent AS a FROM g2),
            a2 AS (SELECT a1.e, g.parent AS a FROM a1
                   JOIN g2 g ON a1.a = g.child),
            a3 AS (SELECT a2.e, g.parent AS a FROM a2
                   JOIN g2 g ON a2.a = g.child),
            a4 AS (SELECT a3.e, g.parent AS a FROM a3
                   JOIN g2 g ON a3.a = g.child)
            SELECT DISTINCT e, a FROM
              (SELECT * FROM a1 UNION SELECT * FROM a2
               UNION SELECT * FROM a3 UNION SELECT * FROM a4)
        """,
        "kg_sparql_star_unbound": _TRIPLE_BASE_CTE.replace(
            "WITH ", "WITH RECURSIVE ", 1) + rf""",
            ents AS (SELECT DISTINCT obj AS ent FROM triples
                     WHERE pred = '{EX}entity'),
            ei AS (SELECT ent, CAST(regexp_extract(ent, 'Entity(\d+)$', 1)
                               AS BIGINT) AS i FROM ents),
            par AS (SELECT ent AS child,
                           '{ENTITY_PREFIX}' || CAST(i // 2 AS VARCHAR)
                             AS parent
                    FROM ei WHERE i >= 1),
            reach(e, a) AS (
              SELECT ent, ent FROM ents
              UNION
              SELECT r.e, p.parent FROM reach r
              JOIN par p ON p.child = r.a)
            SELECT DISTINCT e, a FROM reach
        """,
        "kg_bgp_star_path": _TRIPLE_BASE_CTE + rf""",
            ents AS (SELECT DISTINCT obj AS ent FROM triples
                     WHERE pred = '{EX}entity'),
            ei AS (SELECT ent, CAST(regexp_extract(ent, 'Entity(\d+)$', 1)
                               AS BIGINT) AS i FROM ents),
            par AS (SELECT ent AS child,
                           '{ENTITY_PREFIX}' || CAST(i // 2 AS VARCHAR)
                             AS parent
                    FROM ei WHERE i >= 1),
            d1 AS (SELECT child FROM par
                   WHERE parent = '{ENTITY_PREFIX}3'),
            d2 AS (SELECT p.child FROM d1 JOIN par p
                   ON p.parent = d1.child),
            d3 AS (SELECT p.child FROM d2 JOIN par p
                   ON p.parent = d2.child),
            d4 AS (SELECT p.child FROM d3 JOIN par p
                   ON p.parent = d3.child),
            d5 AS (SELECT p.child FROM d4 JOIN par p
                   ON p.parent = d4.child)
            SELECT DISTINCT e FROM (
              SELECT '{ENTITY_PREFIX}3' AS e
              UNION SELECT child FROM d1 UNION SELECT child FROM d2
              UNION SELECT child FROM d3 UNION SELECT child FROM d4
              UNION SELECT child FROM d5)
        """,
        "kg_bgp_opt_path": _TRIPLE_BASE_CTE + rf""",
            ents AS (SELECT DISTINCT obj AS ent FROM triples
                     WHERE pred = '{EX}entity'),
            ei AS (SELECT ent, CAST(regexp_extract(ent, 'Entity(\d+)$', 1)
                               AS BIGINT) AS i FROM ents),
            par AS (SELECT ent AS child,
                           '{ENTITY_PREFIX}' || CAST(i // 2 AS VARCHAR)
                             AS parent
                    FROM ei WHERE i >= 1)
            SELECT DISTINCT e FROM (
              SELECT '{ENTITY_PREFIX}3' AS e
              UNION SELECT child AS e FROM par
              WHERE parent = '{ENTITY_PREFIX}3')
        """,
        "kg_bgp_select": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            rk AS (SELECT subj, obj AS r FROM triples
                   WHERE pred = '{EX}rank')
            SELECT DISTINCT e, r FROM en JOIN rk USING (subj)
            ORDER BY e DESC, r LIMIT 20
        """,
        "kg_store_timetravel": _TRIPLE_BASE_CTE + f"""
            SELECT * FROM triples WHERE pred <> '{EX}rank'
        """,
        "kg_bgp_agg": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            rk AS (SELECT subj, obj AS r FROM triples
                   WHERE pred = '{EX}rank')
            SELECT e, r, CAST(count(*) AS BIGINT) AS n
            FROM en JOIN rk USING (subj) GROUP BY e, r
        """,
        "kg_sparql_text": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            rk AS (SELECT subj, obj AS r FROM triples
                   WHERE pred = '{EX}rank')
            SELECT e, r FROM en JOIN rk USING (subj)
            WHERE CAST(r AS BIGINT) >= 2
        """,
        "kg_sparql_datatype": _TRIPLE_BASE_CTE + f"""
            SELECT subj AS s, obj AS v FROM triples
            WHERE pred = '{EX}score' AND obj_datatype =
                  'http://www.w3.org/2001/XMLSchema#integer'
        """,
        "kg_sparql_isiri": _TRIPLE_BASE_CTE + """
            SELECT subj AS s, pred AS p, obj AS o FROM triples
            WHERE obj_is_iri
        """,
        "kg_sparql_describe": _TRIPLE_BASE_CTE + f""",
            tgt AS (SELECT DISTINCT subj FROM triples
                    WHERE pred = '{EX}rank' AND obj = '3')
            SELECT DISTINCT t.subj, t.pred, t.obj
            FROM triples t JOIN tgt USING (subj)
        """,
        "kg_sparql_update": _TRIPLE_BASE_CTE + f""",
            moved AS (SELECT subj, obj FROM triples
                      WHERE pred = '{EX}rank'
                        AND CAST(obj AS BIGINT) >= 2)
            SELECT subj AS s, pred AS p, obj AS o FROM triples
            WHERE NOT (pred = '{EX}rank' AND CAST(obj AS BIGINT) >= 2)
            UNION ALL
            SELECT subj, '{EX}hadRank', obj FROM moved
        """,
        "kg_sparql_agg": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            rk AS (SELECT subj, obj AS r FROM triples
                   WHERE pred = '{EX}rank')
            SELECT e, CAST(count(*) AS BIGINT) AS n, max(r) AS hi
            FROM en JOIN rk USING (subj) GROUP BY e
            HAVING count(*) > 1 ORDER BY n DESC, e LIMIT 30
        """,
        "kg_functional_check": _TRIPLE_BASE_CTE + f""",
            rw AS (SELECT regexp_replace(subj, '/r[23]$', '/r1') AS s,
                          pred, obj
                   FROM triples WHERE pred = '{EX}entity')
            SELECT s AS subj, pred,
                   CAST(count(DISTINCT obj) AS BIGINT) AS n_values
            FROM rw GROUP BY s, pred
            HAVING count(DISTINCT obj) > 1
        """,
        "kg_federated": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            rk AS (SELECT subj, obj AS r FROM triples
                   WHERE pred = '{EX}rank')
            SELECT subj AS s, e, r FROM en JOIN rk USING (subj)
        """,
        "kg_sparql_service": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            rk AS (SELECT subj, obj AS r FROM triples
                   WHERE pred = '{EX}rank')
            SELECT subj AS s, e, r FROM en JOIN rk USING (subj)
        """,
        "kg_owl_inverse": _TRIPLE_BASE_CTE + f"""
            SELECT DISTINCT obj AS e, subj AS d FROM triples
            WHERE pred = '{EX}entity'
        """,
        "kg_property_graph": _TRIPLE_BASE_CTE + """,
            e AS (SELECT subj AS src, obj AS dst FROM triples
                  WHERE obj_is_iri),
            dg AS (SELECT src AS node, 1 AS o, 0 AS i FROM e
                   UNION ALL SELECT dst, 0, 1 FROM e)
            SELECT node, CAST(sum(o) AS BIGINT) AS out_deg,
                   CAST(sum(i) AS BIGINT) AS in_deg
            FROM dg GROUP BY node
        """,
        "kg_sameas_rewrite": _TRIPLE_BASE_CTE + """
            SELECT regexp_replace(subj, '/r[23]$', '/r1') AS s,
                   pred AS p, obj AS o
            FROM triples
        """,
        "kg_rdfs_closure": _TRIPLE_BASE_CTE + """,
            kt AS (SELECT DISTINCT subj,
                          CAST(substr(ent, 7) AS BIGINT) AS k FROM base),
            lv AS (
              SELECT subj, k AS a FROM kt
              UNION SELECT subj, k // 2 FROM kt WHERE k >= 1
              UNION SELECT subj, k // 4 FROM kt WHERE k >= 2
              UNION SELECT subj, k // 8 FROM kt WHERE k >= 4
              UNION SELECT subj, k // 16 FROM kt WHERE k >= 8
              UNION SELECT subj, k // 32 FROM kt WHERE k >= 16
              UNION SELECT subj, k // 64 FROM kt WHERE k >= 32)
            SELECT DISTINCT subj AS s,
                   'https://example.org/id/entity/Entity'
                     || CAST(a AS VARCHAR) AS c
            FROM lv
        """,
        "kg_rdfs_incremental": _TRIPLE_BASE_CTE + """,
            kt AS (SELECT DISTINCT subj,
                          CAST(substr(ent, 7) AS BIGINT) AS k FROM base),
            -- final asserted set: base minus the k%7 retractions, plus
            -- the (k+3) second types for k%5 docs (k+3 <= 48 stays
            -- inside the 0..49 taxonomy)
            fin AS (
              SELECT subj, k FROM kt WHERE k % 7 <> 0
              UNION SELECT subj, k + 3 FROM kt WHERE k % 5 = 0),
            lv AS (
              SELECT subj, k AS a FROM fin
              UNION SELECT subj, k // 2 FROM fin WHERE k >= 1
              UNION SELECT subj, k // 4 FROM fin WHERE k >= 2
              UNION SELECT subj, k // 8 FROM fin WHERE k >= 4
              UNION SELECT subj, k // 16 FROM fin WHERE k >= 8
              UNION SELECT subj, k // 32 FROM fin WHERE k >= 16
              UNION SELECT subj, k // 64 FROM fin WHERE k >= 32)
            SELECT DISTINCT subj AS s,
                   'https://example.org/id/entity/Entity'
                     || CAST(a AS VARCHAR) AS c
            FROM lv
        """,
        "kg_sparql_seqpath": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj, obj AS e FROM triples
                   WHERE pred = '{EX}entity')
            SELECT a.subj AS d, b.subj AS d2
            FROM en a JOIN en b USING (e)
            WHERE a.subj < b.subj
        """,
        "kg_sparql_subquery": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            cnt AS (SELECT e, CAST(count(*) AS BIGINT) AS n
                    FROM en GROUP BY e)
            SELECT subj AS s, e, n FROM en JOIN cnt USING (e)
        """,
        "kg_sparql_aggexpr": _TRIPLE_BASE_CTE + f""",
            en AS (SELECT subj, obj AS e FROM triples
                   WHERE pred = '{EX}entity'),
            rk AS (SELECT subj, obj AS r FROM triples
                   WHERE pred = '{EX}rank'),
            sc AS (SELECT subj, obj AS v FROM triples
                   WHERE pred = '{EX}score')
            SELECT e, CAST(SUM(CAST(r AS BIGINT) * CAST(v AS BIGINT))
                           AS BIGINT) AS t
            FROM en JOIN rk USING (subj) JOIN sc USING (subj)
            GROUP BY e
        """,
        "kg_sparql_strfns": _TRIPLE_BASE_CTE + f"""
            SELECT subj AS s, substr(obj, 7) AS num,
                   regexp_replace(obj, 'Entity([0-9]+)', 'E\\1') AS tag
            FROM triples WHERE pred = '{EX}name'
        """,
        "kg_sparql_groupexpr": _TRIPLE_BASE_CTE + f"""
            SELECT substr(obj, 7, 1) AS k, CAST(count(*) AS BIGINT) AS n
            FROM triples WHERE pred = '{EX}name' GROUP BY 1
        """,
        "kg_sparql_numfns": _TRIPLE_BASE_CTE + f"""
            SELECT subj AS s,
                   floor(CAST(obj AS DOUBLE) / 2) AS f,
                   ceil(CAST(obj AS DOUBLE) / 2) AS c,
                   round(CAST(obj AS DOUBLE) / 2) AS r2
            FROM triples WHERE pred = '{EX}rank'
        """,
        "kg_sparql_negprop": _TRIPLE_BASE_CTE + f"""
            SELECT subj AS s, obj AS o FROM triples
            WHERE pred NOT IN ('{EX}rank', '{EX}score', '{EX}name')
        """,
        "kg_sparql_or": _TRIPLE_BASE_CTE + f""",
            rk AS (SELECT subj, obj AS r FROM triples
                   WHERE pred = '{EX}rank'),
            sc AS (SELECT subj, obj AS v FROM triples
                   WHERE pred = '{EX}score')
            SELECT subj AS s, r, v FROM rk JOIN sc USING (subj)
            WHERE r = '3' OR CAST(v AS BIGINT) < 100
        """,
        "kg_sparql_sample": _TRIPLE_BASE_CTE + f"""
            SELECT obj AS e, min(subj) AS rep,
                   CAST(count(*) AS BIGINT) AS n
            FROM triples WHERE pred = '{EX}entity' GROUP BY obj
        """,
        "kg_construct": _TRIPLE_BASE_CTE + f""",
            b AS (SELECT subj AS s, obj AS e FROM triples
                  WHERE pred = '{EX}entity')
            SELECT e AS subj, '{EX}mentionedIn' AS pred, s AS obj FROM b
            UNION ALL
            SELECT e, 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type',
                   '{EX}Entity' FROM b
        """,
        "kg_bgp_optional": _TRIPLE_BASE_CTE + f""",
            req AS (SELECT subj AS s, obj AS v FROM triples
                    WHERE pred = '{EX}score'),
            opt AS (SELECT subj AS s2, obj AS v FROM triples
                    WHERE pred = '{EX}rank')
            SELECT r.s, r.v, o.s2
            FROM req r LEFT JOIN opt o ON r.v = o.v
            WHERE r.v LIKE '%2%'
        """,
        "kg_bgp_chain": _TRIPLE_BASE_CTE + f""",
            rk AS (SELECT subj FROM triples
                   WHERE pred = '{EX}rank' AND obj = '2'),
            en AS (SELECT subj, obj FROM triples
                   WHERE pred = '{EX}entity'),
            sc AS (SELECT subj, obj FROM triples
                   WHERE pred = '{EX}score')
            SELECT rk.subj AS s, en.obj AS e, sc.obj AS v
            FROM rk JOIN en USING (subj) JOIN sc USING (subj)
        """,
        "kg_bgp_store": _TRIPLE_BASE_CTE + f""",
            rk AS (SELECT subj FROM triples
                   WHERE pred = '{EX}rank' AND obj = '2'),
            en AS (SELECT subj, obj FROM triples
                   WHERE pred = '{EX}entity'),
            sc AS (SELECT subj, obj FROM triples
                   WHERE pred = '{EX}score')
            SELECT rk.subj AS s, en.obj AS e, sc.obj AS v
            FROM rk JOIN en USING (subj) JOIN sc USING (subj)
        """,
        "kg_obj_lookup": _TRIPLE_BASE_CTE + """
            SELECT subj, pred, obj, obj_is_iri, obj_datatype, obj_lang
            FROM triples WHERE obj = 'Entity7'
        """,
        "kg_index_refresh": _TRIPLE_BASE_CTE + """
            SELECT subj, pred, obj, obj_is_iri, obj_datatype, obj_lang
            FROM triples
            WHERE (obj = '2'
                   OR obj = 'https://example.org/id/entity/Entity7')
              AND pred <> 'https://example.org/def/entity'
        """,
        "kg_store_describe": _TRIPLE_BASE_CTE + """
            SELECT subj, pred, obj, obj_is_iri, obj_datatype, obj_lang
            FROM triples WHERE subj = 'https://example.org/doc/0#t0/r1'
        """,
        "kg_store_join": _TRIPLE_BASE_CTE + f""",
            e AS (SELECT subj, obj FROM triples
                  WHERE pred = '{EX}entity'),
            s AS (SELECT subj, obj FROM triples
                  WHERE pred = '{EX}score')
            SELECT e.subj, e.obj AS entity, s.obj AS score
            FROM e JOIN s USING (subj)
        """,
        "returned_item_revenue": """
            WITH r AS (SELECT o_custkey,
                              CAST(sum(CAST(round(l_extendedprice * 100)
                                            AS BIGINT)
                                       * (100 - CAST(round(l_discount * 100)
                                                     AS BIGINT)))
                                   AS BIGINT) AS rev_e4
                       FROM lineitem JOIN orders ON l_orderkey = o_orderkey
                       WHERE l_returnflag = 'R'
                       GROUP BY o_custkey)
            SELECT c_custkey, c_name,
                   CAST(rev_e4 AS DOUBLE) / 10000.0e0 AS revenue
            FROM r JOIN customer ON o_custkey = c_custkey
            ORDER BY revenue DESC, c_custkey LIMIT 20
        """,
        "discounted_brand_revenue": """
            SELECT coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l_discount * 100) AS BIGINT))), 0)
                   / 10000.0e0 AS revenue
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE (p_brand = 'Brand#1' AND p_size <= 10
                   AND round(l_quantity) BETWEEN 1 AND 15)
               OR (p_brand = 'Brand#2' AND p_size <= 20
                   AND round(l_quantity) BETWEEN 10 AND 25)
               OR (p_brand = 'Brand#3' AND p_size <= 30
                   AND round(l_quantity) BETWEEN 20 AND 35)
        """,
        "supplier_value": """
            WITH r AS (SELECT l_suppkey,
                              CAST(sum(CAST(round(l_extendedprice * 100)
                                            AS BIGINT)
                                       * (100 - CAST(round(l_discount * 100)
                                                     AS BIGINT)))
                                   AS BIGINT) AS rev_e4
                       FROM lineitem GROUP BY l_suppkey)
            SELECT s_suppkey, s_name,
                   CAST(rev_e4 AS DOUBLE) / 10000.0e0 AS revenue
            FROM r JOIN supplier ON l_suppkey = s_suppkey
            ORDER BY revenue DESC, s_suppkey LIMIT 20
        """,
        "cheapest_part_by_brand": """
            SELECT p_brand, p_partkey, p_retailprice FROM (
              SELECT p_brand, p_partkey, p_retailprice,
                     row_number() OVER (PARTITION BY p_brand
                       ORDER BY p_retailprice, p_partkey) AS rn
              FROM part) WHERE rn = 1
        """,
        # the oracle states the EXPECTED canonical form by arithmetic (the
        # kg_negative_samples convention); the Ray side runs the real kernel
        "doc_url_normalize": """
            SELECT doc_id,
                   CASE CAST(doc_id % 3 AS INT)
                     WHEN 0 THEN 'https://example.org/Doc/' || doc_id
                     WHEN 1 THEN 'http://example.org/doc/' || doc_id
                     ELSE 'https://example.org/doc/' || doc_id || '?a=1&b=2'
                   END AS url_norm
            FROM documents
        """,
        # bounds mirror range_join_banded's (lo, hi]: strictly after, ≤ 15min
        "events_cooccurrence": """
            SELECT a.event_type AS type_a, b.event_type AS type_b,
                   count(*) AS n
            FROM events a JOIN events b
              ON b.user_id = a.user_id
             AND b.ts > a.ts
             AND b.ts <= a.ts + INTERVAL 15 MINUTE
            GROUP BY a.event_type, b.event_type
        """,
    }
