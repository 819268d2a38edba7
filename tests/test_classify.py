"""Linear classifier scoring seam — planted-truth + exact recompute."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _model(dim=1 << 16):
    from cattle_ray.stages.classify import build_wordlist_model

    return build_wordlist_model(
        dim, positive={"science": 2.0, "proof": 1.5, "theorem": 1.5},
        negative={"click": 2.0, "buy": 1.5}, bias=0.1)


def test_linear_scorer_planted_truth(ray_session):
    import ray.data as rd

    from cattle_ray.stages.classify import LinearScorer

    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [
            "the theorem has a proof grounded in science",
            "click here to buy now buy buy",
            "a neutral sentence about nothing in particular",
            "",
        ],
    })
    out = rd.from_pandas(docs).repartition(2).map_batches(
        LinearScorer, fn_constructor_kwargs=dict(model=_model()),
        batch_format="pyarrow", concurrency=1).to_pandas()
    s = dict(zip(out["doc_id"], out["score"]))
    assert s[0] > s[2] > s[1]          # edu > neutral > spam
    assert s[3] == 0.1                  # empty doc = bias only
    # neutral text has no listed vocab → bias (hash collisions at 2^16
    # over 7 words are possible but the fixture avoids them)
    assert abs(s[2] - 0.1) < 1e-12


def test_linear_scorer_matches_naive(ray_session):
    """Vectorized batch scoring == per-doc loop recompute, exactly."""
    import ray.data as rd

    from cattle_ray.stages.classify import (LinearScorer, _TOKEN_RE,
                                            hash_tokens)

    rng = np.random.RandomState(9)
    vocab = ["science", "click", "alpha", "beta", "gamma", "proof"]
    docs = pd.DataFrame({
        "doc_id": range(30),
        "text": [" ".join(rng.choice(vocab, rng.randint(1, 12)))
                 for _ in range(30)],
    })
    w, b = _model()
    out = rd.from_pandas(docs).repartition(3).map_batches(
        LinearScorer, fn_constructor_kwargs=dict(model=(w, b)),
        batch_format="pyarrow", concurrency=1).to_pandas()
    got = dict(zip(out["doc_id"], out["score"]))
    for r in docs.itertuples():
        toks = _TOKEN_RE.findall(r.text.lower())
        hs = hash_tokens(pd.Series(toks)) % len(w)
        want = b + (w[hs].sum() / max(len(toks), 1) if toks else 0.0)
        assert abs(got[r.doc_id] - want) < 1e-12


def test_classifier_filter_keeps_top_slice(ray_session):
    import ray.data as rd

    from cattle_ray.stages.classify import classifier_filter

    docs = pd.DataFrame({
        "doc_id": [0, 1],
        "text": ["science proof theorem", "click buy click buy"],
    })
    out = classifier_filter(
        rd.from_pandas(docs), _model(), threshold=0.5).to_pandas()
    assert list(out["doc_id"]) == [0]
    assert "score" not in out.columns
