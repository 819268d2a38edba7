"""Aho-Corasick automaton for large-gazetteer mention detection (T2 scale
path).

The regex-alternation :class:`~cattle_ray.stages.link.MentionDetector` is
C-fast up to ~10^4 aliases but regex compilation explodes beyond that; this
automaton builds goto/fail links in O(Σ pattern lengths) and matches a
document in O(len(text) + matches), independent of dictionary size — the
right curve for the 10^6-alias sharded dictionaries the north_star names.

Semantics match the regex detector (verified in tests):
- leftmost matches with word boundaries on both sides (``\\w``-style:
  ``[A-Za-z0-9_]``),
- longest match wins at any position; overlapping shorter matches inside a
  reported longer one are suppressed (regex alternation behavior).

Built once in ``__init__`` by the driver; the instance is mapped as tasks.
"""

from __future__ import annotations

from collections import deque

import pyarrow as pa

_WORD = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


class AhoCorasick:
    """Trie + BFS failure links; ``find(text)`` yields (begin, end, pattern)."""

    def __init__(self, patterns):
        self.goto: list[dict] = [{}]
        self.fail: list[int] = [0]
        self.out: list[list] = [[]]
        for p in patterns:
            if not p:
                continue
            node = 0
            for ch in p:
                nxt = self.goto[node].get(ch)
                if nxt is None:
                    nxt = len(self.goto)
                    self.goto[node][ch] = nxt
                    self.goto.append({})
                    self.fail.append(0)
                    self.out.append([])
                node = nxt
            self.out[node].append(p)
        # BFS failure links
        q = deque()
        for ch, nxt in self.goto[0].items():
            q.append(nxt)
        while q:
            node = q.popleft()
            for ch, nxt in self.goto[node].items():
                q.append(nxt)
                f = self.fail[node]
                while f and ch not in self.goto[f]:
                    f = self.fail[f]
                self.fail[nxt] = self.goto[f].get(ch, 0) if self.goto[f].get(ch, 0) != nxt else 0
                self.out[nxt] = self.out[nxt] + self.out[self.fail[nxt]]

    def _raw_matches(self, text: str):
        node = 0
        for i, ch in enumerate(text):
            while node and ch not in self.goto[node]:
                node = self.fail[node]
            node = self.goto[node].get(ch, 0)
            for p in self.out[node]:
                yield i - len(p) + 1, i + 1, p

    def find(self, text: str):
        """Word-boundary-filtered, longest-match-wins, non-overlapping —
        regex-alternation-equivalent match list."""
        cands = []
        n = len(text)
        for b, e, p in self._raw_matches(text):
            if b > 0 and text[b - 1] in _WORD and p[0] in _WORD:
                continue
            if e < n and text[e] in _WORD and p[-1] in _WORD:
                continue
            cands.append((b, e, p))
        # leftmost-longest, suppress overlaps (like one regex scan)
        cands.sort(key=lambda t: (t[0], -(t[1] - t[0])))
        out, last_end = [], -1
        for b, e, p in cands:
            if b >= last_end:
                out.append((b, e, p))
                last_end = e
        return out


class AutomatonMentionDetector:
    """Drop-in replacement for :class:`cattle_ray.stages.link.MentionDetector`
    backed by :class:`AhoCorasick` — same output schema."""

    def __init__(self, aliases, text_col: str = "text", url_col: str = "url"):
        self.ac = AhoCorasick(sorted({a for a in aliases if a}))
        self.text_col = text_col
        self.url_col = url_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .link import normalize_alias

        texts = batch[self.text_col].to_pylist()
        urls = batch[self.url_col].to_pylist()
        out = {"url": [], "mention": [], "alias_norm": [], "begin": [], "end": []}
        for text, url in zip(texts, urls):
            if not text:
                continue
            for b, e, p in self.ac.find(text):
                out["url"].append(url)
                out["mention"].append(text[b:e])
                out["alias_norm"].append(normalize_alias(p))
                out["begin"].append(b)
                out["end"].append(e)
        url_type = batch.schema.field(self.url_col).type
        return pa.table(
            {
                "url": pa.array(out["url"], url_type),
                "mention": pa.array(out["mention"], pa.string()),
                "alias_norm": pa.array(out["alias_norm"], pa.string()),
                "begin": pa.array(out["begin"], pa.int32()),
                "end": pa.array(out["end"], pa.int32()),
            }
        )
