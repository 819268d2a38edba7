"""Linear quality-classifier scoring — the fastText-style model-scoring
seam every modern curation pipeline has (DCLM / FineWeb-Edu style: a
cheap linear model over hashed token n-grams scores every document, and
a threshold keeps the top slice).

Architecture is the engine's stage discipline: the driver builds ONE
:class:`LinearScorer` around the model (a dense weight vector + bias)
and maps that instance as plain Ray tasks; ``__call__`` scores a batch
fully vectorized:

  tokens → 64-bit hashes (``hash_pandas_object`` over the exploded token
  array — one vectorized pass, no per-token Python) → bucket = hash % D
  → per-doc sparse counts → score = Σ count·w[bucket] + b, mean-pooled
  over the doc's tokens (the fastText average-of-embeddings shape with a
  1-dim output).

Deterministic: the hash is seed-stable, the reduction is
``np.bincount``-exact per doc, scores are reproducible at any
partitioning/retry. Rows-only at the driver contract (feature hashing
has no SQL mirror); correctness is pytest planted-truth (docs loaded
with positive-weight vocabulary outrank negative ones, exact-score
recompute vs a naive per-doc loop).

A REAL trained model drops in as ``(weights, bias)`` — same seam, no
code change; training itself is out of scope for the engine (models are
inputs, like the alias gazetteer).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

_TOKEN_RE = re.compile(r"[a-z0-9']+")


def hash_tokens(tokens: "pd.Series") -> np.ndarray:
    """Stable 64-bit token hashes, one vectorized pass (no per-token
    Python hashing)."""
    return pd.util.hash_pandas_object(tokens, index=False).to_numpy()


def build_wordlist_model(dim: int, positive: dict[str, float],
                         negative: dict[str, float] | None = None,
                         bias: float = 0.0):
    """Deterministic fixture model: a weight vector with the given
    vocabulary folded in at their hash buckets (the shape a trained
    fastText/logistic model would ship in). Collisions between listed
    words are resolved by summation — exactly how feature hashing
    behaves at inference."""
    w = np.zeros(dim, np.float64)
    items = dict(positive)
    for k, v in (negative or {}).items():
        items[k] = items.get(k, 0.0) - abs(v)
    if items:
        keys = pd.Series(list(items))
        buckets = hash_tokens(keys) % dim
        np.add.at(w, buckets, np.fromiter(items.values(), np.float64))
    return w, float(bias)


class LinearScorer:
    """Scoring stage, built once in the driver and mapped as tasks:
    ``map_batches(LinearScorer(model=(w, b)), batch_format="pyarrow")``.
    Ray Data puts the instance in the object store once per operator and
    each task unpickles it (the model is 2 MB at 2^18 buckets); batches
    score vectorized."""

    def __init__(self, model, text_col: str = "text", out_col: str = "score"):
        self.w, self.b = model
        self.dim = len(self.w)
        self.text_col = text_col
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = pc.utf8_lower(pc.fill_null(batch[self.text_col], ""))
        s = texts.to_pandas()
        s.index = pd.RangeIndex(len(s))
        toks = s.str.findall(_TOKEN_RE)
        lens = toks.str.len().to_numpy().astype(np.int64)
        # explode keeps the doc position as the index — no Python flatten
        flat = toks.explode().dropna()
        scores = np.full(len(s), self.b, np.float64)
        if len(flat):
            buckets = hash_tokens(flat) % self.dim
            doc_ids = flat.index.to_numpy(dtype=np.int64)
            contrib = self.w[buckets]
            sums = np.bincount(doc_ids, weights=contrib, minlength=len(s))
            scores = self.b + sums / np.maximum(lens, 1)
        return batch.append_column(self.out_col,
                                   pa.array(scores, pa.float64()))


def classifier_filter(ds, model, threshold: float, *, text_col: str = "text"):
    """The curation composition: score every doc with one driver-built
    :class:`LinearScorer` mapped as tasks and keep rows at or above
    ``threshold`` — the FineWeb-Edu-style top-slice filter as one
    streaming stage (score column dropped on the way out, text never
    shuffles)."""
    import pyarrow.compute as pc

    scored = ds.map_batches(LinearScorer(model=model, text_col=text_col),
                            batch_format="pyarrow")
    return scored.map_batches(
        lambda b: b.filter(pc.greater_equal(b["score"],
                                            threshold)).drop_columns(
            ["score"]),
        batch_format="pyarrow")
