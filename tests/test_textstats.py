"""Text analysis: token counts, quality, lang-id, fingerprints."""

import pyarrow as pa

from cattle_ray.stages.textstats import (
    LangId,
    bpe_token_count_batch,
    fingerprint_batch,
    quality_batch,
    token_count_batch,
)


def _batch(texts):
    return pa.table({"doc_id": list(range(len(texts))), "text": texts})


def test_token_count_vectorized():
    out = token_count_batch(_batch(["a b c", "", None, "  x  y "]))
    assert out["n_tokens"].to_pylist() == [3, 0, 0, 2]


def test_bpe_token_count():
    out = bpe_token_count_batch(_batch(["hello, world42!"]))
    # hello | , | world | 42 | !
    assert out["n_bpe_tokens"].to_pylist() == [5]


def test_quality_signals():
    out = quality_batch(_batch(["the cat and the dog sat on the mat", "!!! ??? ..."]))
    q = out.to_pydict()
    assert q["q_n_tokens"] == [9, 3]
    assert q["stop_ratio"][0] > 0.3
    assert q["punct_ratio"][1] > 0.5
    assert q["quality"][0] > q["quality"][1]


def test_langid_heuristic():
    langid = LangId()
    out = langid(_batch([
        "the cat is in the house and it is warm",
        "der hund ist nicht in das haus und die katze",
        "le chat est dans la maison et les chiens",
        "",
    ]))
    assert out["lang_pred"].to_pylist() == ["en", "de", "fr", "und"]


def test_fingerprint_deterministic():
    a = fingerprint_batch(_batch(["same text"]))
    b = fingerprint_batch(_batch(["same text"]))
    assert a["md5"].to_pylist() == b["md5"].to_pylist()
    assert a["rolling_hash"].to_pylist() == b["rolling_hash"].to_pylist()
    assert a["md5"][0].as_py() == __import__("hashlib").md5(b"same text").hexdigest()


def test_fingerprint_vectorized_matches_horner():
    """The reduceat-vectorized polynomial equals the sequential Horner
    recurrence h = h·B + v(tok) under uint64 wraparound."""
    import numpy as np
    import pandas as pd

    texts = ["a b c", "x", "", "   ", None,
             "one two three four five", "a b c", "w " * 500]
    got = fingerprint_batch(_batch(texts))["rolling_hash"].to_pylist()

    B = np.uint64(1000003)

    def horner(t):
        ws = (t or "").strip().split()
        if not ws:
            return 0
        vals = pd.util.hash_pandas_object(
            pd.Series(ws, dtype="object"), index=False).to_numpy()
        h = np.uint64(0)
        with np.errstate(over="ignore"):
            for v in vals:
                h = h * B + v
        return int(h)

    assert got == [horner(t) for t in texts]
    assert got[0] == got[6] != got[1]


def test_token_counter_pluggable_backend(ray_session):
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.textstats import TokenCounter

    def _char_backend_factory():
        # stand-in for a real tokenizer factory (e.g. tiktoken loading
        # merges): built once per actor; counts 'tokens' as characters.
        # Defined INSIDE the test so cloudpickle ships it by value (test
        # modules are not importable from Ray workers).
        return lambda t: len(t)

    ds = rd.from_pandas(pd.DataFrame({"text": ["abc", "hello world", ""]}))
    # default backend: BPE-ish regex
    d = ds.map_batches(TokenCounter, batch_format="pyarrow",
                       concurrency=1).to_pandas()
    assert d["n_bpe_tokens"].tolist() == [1, 2, 0]
    # swapped backend: the factory runs in actor __init__ (vocab-load seam)
    c = ds.map_batches(
        TokenCounter,
        fn_constructor_kwargs=dict(backend_factory=_char_backend_factory,
                                   out_col="n_chars_t"),
        batch_format="pyarrow", concurrency=1,
    ).to_pandas()
    assert c["n_chars_t"].tolist() == [3, 11, 0]


def test_repetition_signals():
    import pyarrow as pa

    from cattle_ray.stages.textstats import repetition_batch

    b = pa.table({"doc_id": [1, 2, 3],
                  "text": ["a a a a", "w x y z", ""]})
    out = repetition_batch(b).to_pylist()
    assert out[0]["dup_token_frac"] == 0.75 and out[0]["top_token_frac"] == 1.0
    assert out[1]["dup_token_frac"] == 0.0 and out[1]["top_token_frac"] == 0.25
    assert out[2]["rep_n_tokens"] == 0 and out[2]["dup_token_frac"] == 0.0


def test_decontaminator_flags_substrings(ray_session):
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.textstats import Decontaminator

    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["the quick brown fox jumps", "nothing to see here", None]}))
    out = ds.map_batches(Decontaminator,
                         fn_constructor_kwargs=dict(phrases=["quick brown fox"]),
                         batch_format="pyarrow", concurrency=1).to_pandas()
    assert out.sort_values("doc_id")["contaminated"].tolist() == [True, False, False]


def test_grouped_head_caps_per_key(ray_session):
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.aggregates import grouped_head

    df = pd.DataFrame({"source": ["a"] * 5 + ["b"] * 2, "doc_id": range(7)})
    out = grouped_head(rd.from_pandas(df), "source", "doc_id", 3).to_pandas()
    got = out.groupby("source")["doc_id"].apply(lambda s: sorted(s)).to_dict()
    assert got == {"a": [0, 1, 2], "b": [5, 6]}


def test_json_int_field_batch():
    import pyarrow as pa

    from cattle_ray.stages.textstats import json_int_field_batch

    t = pa.table({"props": ['{"k": 69}', '{"j": 1, "k": -5}', '{}', None,
                            '{"kk": 3}']})
    out = json_int_field_batch(t, "props", "k")
    assert out["k"].to_pylist() == [69, -5, None, None, None]


def test_mix_corpora_weights_and_determinism(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from cattle_ray.stages.sampling import mix_corpora

    a = rd.from_arrow(pa.table({"doc_id": list(range(4000))})).repartition(4)
    b = rd.from_arrow(pa.table({"doc_id": list(range(4000))})).repartition(4)

    def run():
        out = mix_corpora([("a", a, 2.5), ("b", b, 0.3)], "doc_id").to_pandas()
        return out

    out = run()
    na = (out["src"] == "a").sum()
    nb = (out["src"] == "b").sum()
    # weight 2.5 → ~10000 rows; 0.3 → ~1200 (48-bit hash, generous margin)
    assert abs(na - 10000) < 300 and abs(nb - 1200) < 200
    # full epochs are exact copies; rep index dense per row
    assert (out[(out["src"] == "a") & (out["rep"] == 0)]["doc_id"].nunique()
            == 4000)
    assert (out[(out["src"] == "a") & (out["rep"] == 1)]["doc_id"].nunique()
            == 4000)
    # deterministic: identical row multiset on rerun and across layouts
    out2 = mix_corpora([("a", a.repartition(7), 2.5),
                        ("b", b.repartition(2), 0.3)], "doc_id").to_pandas()
    key = lambda d: sorted(map(tuple, d[["doc_id", "src", "rep"]]
                               .itertuples(index=False)))
    assert key(out) == key(out2)


def test_pack_sequences(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from cattle_ray.stages.sampling import pack_sequences

    texts = {0: "a " * 10, 1: "b " * 5, 2: "c " * 7, 3: "", 4: "d " * 3}
    ds = rd.from_arrow(pa.table({
        "doc_id": list(texts), "text": [t.strip() for t in texts.values()]
    })).repartition(3)
    out = pack_sequences(ds, "doc_id", "text", tokens_per_seq=12).to_pandas()
    got = dict(zip(out["doc_id"], out["seq_id"]))
    # cum starts: 0,10,15,22,22 → seq = start // 12 → 0,0,1,1,1
    assert got == {0: 0, 1: 0, 2: 1, 3: 1, 4: 1}
    # layout invariance
    out2 = pack_sequences(rd.from_arrow(pa.table({
        "doc_id": list(texts), "text": [t.strip() for t in texts.values()]
    })).repartition(5), "doc_id", "text", tokens_per_seq=12).to_pandas()
    assert dict(zip(out2["doc_id"], out2["seq_id"])) == got


def test_grouped_sums_exact(ray_session):
    import ray.data as rd

    from cattle_ray.stages.aggregates import grouped_sums

    t = pa.table({
        "k": ["a", "b", "a", "a", "b"],
        "x": [1, 2, 3, 4, 5],
        "y": [10, 20, 30, 40, 50],
    })
    out = {r["k"]: r for r in
           grouped_sums(rd.from_arrow(t).repartition(3), ["k"],
                        ["x", "y"]).take_all()}
    assert out["a"] == {"k": "a", "sum_x": 8, "sum_y": 80, "n": 3}
    assert out["b"] == {"k": "b", "sum_x": 7, "sum_y": 70, "n": 2}


def test_normalize_text_batch_unicode(ray_session):
    import pyarrow as pa

    from cattle_ray.stages.textstats import normalize_text_batch

    # decomposed e+combining-acute must NFC-fold to the composed \u00e9
    decomposed = "Cafe\u0301   du  Monde"
    out = normalize_text_batch(pa.table({"text": [
        decomposed, "  A\tB\nC  ", "", "\u00c0\u00c9\u00ce"]}))
    assert out["norm"].to_pylist() == [
        "caf\u00e9 du monde", "a b c", "", "\u00e0\u00e9\u00ee"]


def test_bpe_train_textbook_example(ray_session):
    """Sennrich's classic corpus: first merges must follow exact weighted
    pair counts (hand-checkable), encoding applies them greedily, and the
    result is identical at any partitioning."""
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.textstats import (bpe_counter_factory,
                                             bpe_encode_word, bpe_train)

    corpus = ["low low low low low", "lower lower", "newest newest newest",
              "newest newest newest", "widest widest widest"]
    ds = rd.from_pandas(pd.DataFrame({"text": corpus}))
    merges = bpe_train(ds.repartition(3), n_merges=10)
    # pair counts: ('e','s') appears in newest(6)+widest(3)=9 — the top
    # first merge; then ('es','t') 9, then ('est','</w>') 9 ...
    assert merges[0] == ("e", "s")
    assert merges[1] == ("es", "t")
    assert merges[2] == ("est", "</w>")
    merges2 = bpe_train(ds.repartition(1), n_merges=10)
    assert merges == merges2

    # frequent words fully merge with 10 rounds; partial ranks show the
    # greedy application order
    ranks3 = {p: i for i, p in enumerate(merges[:3])}
    assert bpe_encode_word("newest", ranks3)[-1] == "est</w>"
    ranks = {p: i for i, p in enumerate(merges)}
    assert bpe_encode_word("newest", ranks) == ["newest</w>"]
    # unseen word still roundtrips losslessly through whatever merges apply
    assert "".join(bpe_encode_word("lowest", ranks)).replace("</w>", "") == "lowest"

    count = bpe_counter_factory(merges)()
    n = count("newest widest")
    assert n == len(bpe_encode_word("newest", ranks)) + \
        len(bpe_encode_word("widest", ranks))


def test_lm_score_broadcast_and_join_paths_agree(ray_session):
    """Both lm_score execution paths (vocab broadcast vs composite
    co-partitioned joins) produce identical exact-integer scores."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.textstats import lm_score

    rng = np.random.RandomState(8)
    vocab = [f"t{i}" for i in range(30)]
    docs = [" ".join(rng.choice(vocab, 25)) for _ in range(60)]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(60), "text": docs})
                        ).repartition(4)
    a = lm_score(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = lm_score(ds, broadcast_max=0).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert (a["score"] == b["score"]).all()
    assert (a["n_bigrams"] == b["n_bigrams"]).all()


def test_lm_score_broadcast_cap_prunes(ray_session):
    """min_count / top_v bound the broadcast table; pruned pairs score 0
    while surviving pairs keep their EXACT conditional (context counts
    stay unpruned) — verified against a pandas reference, on BOTH
    execution paths, plus the degenerate everything-pruned case."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.textstats import lm_score

    rng = np.random.RandomState(17)
    vocab = [f"t{i}" for i in range(12)]
    docs = [" ".join(rng.choice(vocab, 20)) for _ in range(40)]
    ds = rd.from_pandas(pd.DataFrame({"doc_id": range(40), "text": docs})
                        ).repartition(3)

    # pandas reference with the same prune semantics
    pairs, ctx = {}, {}
    per_doc = []
    for d in docs:
        w = d.split()
        per_doc.append(list(zip(w, w[1:])))
        for p in per_doc[-1]:
            pairs[p] = pairs.get(p, 0) + 1
            ctx[p[0]] = ctx.get(p[0], 0) + 1
    MIN = 3
    kept = {p: c for p, c in pairs.items() if c >= MIN}

    def ref_score(doc_pairs):
        return sum((kept.get(p, 0) * 1_000_000) // ctx[p[0]]
                   for p in doc_pairs)

    want = [ref_score(dp) for dp in per_doc]
    for bmax in (5_000_000, 0):  # broadcast path, then join path
        got = lm_score(ds, min_count=MIN, broadcast_max=bmax).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert list(got["score"]) == want, f"broadcast_max={bmax}"
        assert list(got["n_bigrams"]) == [len(dp) for dp in per_doc]

    # top_v keeps exactly the v most frequent pairs (deterministic ties)
    V = 5
    order = sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[:V]
    kept = dict(order)
    want_v = [ref_score(dp) for dp in per_doc]
    got_v = lm_score(ds, top_v=V).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(got_v["score"]) == want_v

    # prune-to-empty: every doc still reported, all scores 0
    kept = {}
    got0 = lm_score(ds, min_count=10**9).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(got0) == 40 and (got0["score"] == 0).all()


def test_bpe_incremental_bookkeeping_matches_naive(ray_session):
    """The incremental pair-stats loop must pick the EXACT same merge
    sequence as a naive full-recount reference on a random corpus (the
    bookkeeping is exact, not approximate)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from cattle_ray.stages.textstats import bpe_train

    rng = np.random.RandomState(13)
    words = ["".join(rng.choice(list("abcd"), rng.randint(2, 7)))
             for _ in range(300)]
    docs = [" ".join(rng.choice(words, 20)) for _ in range(50)]
    ds = rd.from_pandas(pd.DataFrame({"text": docs}))
    merges = bpe_train(ds, n_merges=40)

    # naive reference: full pair recount every iteration
    from collections import Counter
    freq = {}
    for d in docs:
        for w in d.split():
            k = tuple(w) + ("</w>",)
            freq[k] = freq.get(k, 0) + 1
    ref = []
    for _ in range(40):
        pairs = Counter()
        for sym, n in freq.items():
            for j in range(len(sym) - 1):
                pairs[(sym[j], sym[j + 1])] += n
        pairs = {p: c for p, c in pairs.items() if c > 0}
        if not pairs:
            break
        bp = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        ref.append(bp)
        merged = bp[0] + bp[1]
        out = {}
        for sym, n in freq.items():
            res, j = [], 0
            while j < len(sym):
                if j < len(sym) - 1 and sym[j] == bp[0] and sym[j + 1] == bp[1]:
                    res.append(merged); j += 2
                else:
                    res.append(sym[j]); j += 1
            t = tuple(res)
            out[t] = out.get(t, 0) + n
        freq = out
    assert merges == ref


def test_sentence_stats_matches_duckdb():
    """Edge cases: empty, null, no punctuation, punctuation runs, trailing
    punctuation, multi-space — engine kernel must agree with the oracle's
    regexp_split_to_array/list_transform formulation exactly."""
    import duckdb
    import pandas as pd

    from cattle_ray.stages.textstats import sentence_stats_batch

    docs = ["Hello world. How are you? Fine!", "", "no punctuation here",
            "a.  b!!c?", "  trailing. ", None, "one.two.three.", "x",
            "A b c d. E f.", "tabs\tand\nnewlines. ok!"]
    b = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs, pa.string())})
    eng = sentence_stats_batch(b).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    ora = duckdb.sql(r"""
        WITH s AS (SELECT doc_id, list_filter(list_transform(
            regexp_split_to_array(coalesce(text, ''), '[.!?]+'),
            x -> trim(x, ' ' || chr(9) || chr(10) || chr(13))),
            x -> x <> '') AS sents FROM b),
        w AS (SELECT doc_id, list_transform(sents,
            x -> len(regexp_split_to_array(x, '\s+'))) AS ws FROM s)
        SELECT doc_id, CAST(len(ws) AS BIGINT) AS n_sentences,
               CAST(coalesce(list_sum(ws), 0) AS BIGINT) AS n_words,
               CAST(coalesce(list_max(ws), 0) AS BIGINT) AS max_sentence_words
        FROM w ORDER BY doc_id""").df()
    pd.testing.assert_frame_equal(eng, ora)


def test_bm25_rank_orders_and_scores(ray_session):
    """BM25 ranking against a hand-checkable corpus: a short doc dense in
    the query term outranks a long doc mentioning it once; docs without
    any query term are excluded; scores match the textbook formula."""
    import pyarrow as pa
    import ray.data as rd

    from cattle_ray.stages.textstats import bm25_rank

    docs = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": ["cat cat cat dog",                       # dense in 'cat'
                 "cat " + "filler " * 40,                 # one hit, long
                 "bird only here",                        # no hit
                 "dog dog"],                              # 'dog' only
    })
    out = bm25_rank(rd.from_arrow(docs).repartition(2), ["cat", "dog"],
                    k=10).to_pandas()
    assert out["doc_id"].tolist()[0] == 1          # best: dense short doc
    assert 3 not in set(out["doc_id"])             # zero-score excluded
    assert len(out) == 3
    # textbook recompute for doc 4 ('dog' tf=2, dl=2)
    n_docs, n_tok = 4, 4 + 41 + 3 + 2
    avgdl = n_tok / n_docs
    df_dog = 2
    idf = (n_docs - df_dog + 0.5) / (df_dog + 0.5)
    den = 1.2 * ((1.0 - 0.75) + 0.75 * (2 / avgdl))
    want = idf * ((2 * 2.2) / (2 + den))
    got = float(out.loc[out["doc_id"] == 4, "score"].iloc[0])
    assert abs(got - want) < 1e-12


def test_compression_ratio_planted():
    """Planted truth: a highly repetitive doc compresses far below a
    high-entropy doc; empty/null docs yield ratio 0; deterministic
    across calls."""
    import random

    import pyarrow as pa

    from cattle_ray.stages.textstats import compression_ratio_batch

    rng = random.Random(7)
    noisy = " ".join("".join(rng.choice("abcdefghijklmnop")
                             for _ in range(8)) for _ in range(200))
    boiler = "click here to subscribe now " * 60
    b = pa.table({"doc_id": [1, 2, 3, 4],
                  "text": [noisy, boiler, "", None]})
    out = compression_ratio_batch(b)
    r = dict(zip(out["doc_id"].to_pylist(), out["comp_ratio"].to_pylist()))
    assert r[2] < 0.1 < 0.4 < r[1] < 1.0   # boilerplate ≪ noisy prose
    assert r[3] == 0.0 and r[4] == 0.0
    assert out["raw_bytes"].to_pylist()[2:] == [0, 0]
    out2 = compression_ratio_batch(b)
    assert out.equals(out2)
