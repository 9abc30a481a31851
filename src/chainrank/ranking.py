"""Serving a learned model: scoring, candidate generation, reranking.

A document's score is the learned weight vector dotted with its feature
vector: the suffix sum of rank weights over thresholds at or above its base
rank, plus the term/document weights of the query terms.  Candidates are the
base results plus every document carrying a nonzero term/document weight for
some query term, which is how documents absent from the base results can
enter (or be pushed out of) the final ranking.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .corpus import RankedList
from .features import RANK_THRESHOLDS
from .solver import Model

BASE_DEPTH = RANK_THRESHOLDS[-1]  # base results beyond this rank are feature-invisible


@dataclass
class RerankRequest:
    query_terms: list[str]
    base_rankings: dict[str, RankedList]
    model: Model
    k: int = 10

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass
class ScoredEntry:
    doc_id: str
    score: float
    origin: str  # "base_results" | "term_association"


@dataclass
class ScoredRanking:
    query_id: str
    entries: list[ScoredEntry] = field(default_factory=list)

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def _term_index(model: Model) -> dict[str, list[tuple[str, float]]]:
    """term -> [(doc, weight)] over nonzero term/document weights, cached."""
    cached = getattr(model, "_term_index_cache", None)
    if cached is None:
        cached = {}
        for term, doc, w in model.term_doc_items():
            if w != 0.0:
                cached.setdefault(term, []).append((doc, w))
        model._term_index_cache = cached
    return cached


def _rank_suffix_sums(model: Model) -> dict[str, np.ndarray]:
    """Per base function: suffix[i] = sum of weights at thresholds >= i-th."""
    cached = getattr(model, "_suffix_cache", None)
    if cached is None:
        cached = {
            fn: np.cumsum(model.rank_weights(fn)[::-1])[::-1].copy()
            for fn in model.space.base_functions
        }
        model._suffix_cache = cached
    return cached


def _rank_score(suffix: np.ndarray, rank: int | None) -> float:
    if rank is None:
        return 0.0
    i = bisect.bisect_left(RANK_THRESHOLDS, rank)
    return float(suffix[i]) if i < len(suffix) else 0.0


def score(
    doc_id: str,
    query_terms: list[str],
    base_rankings: dict[str, RankedList],
    model: Model,
) -> float:
    """Learned relevance score: exact sparse dot product of weights and features."""
    suffixes = _rank_suffix_sums(model)
    total = 0.0
    for fn in model.space.base_functions:
        ranking = base_rankings.get(fn)
        rank = ranking.rank_of(doc_id) if ranking is not None else None
        total += _rank_score(suffixes[fn], rank)
    for term in sorted(set(query_terms)):
        total += model.term_doc_weight(term, doc_id)
    return total


def candidates(
    query_terms: list[str],
    base_rankings: dict[str, RankedList],
    model: Model,
) -> set[str]:
    """Docs that can score nonzero: base top results plus term-weighted docs."""
    out: set[str] = set()
    for ranking in base_rankings.values():
        out.update(e.doc_id for e in ranking.entries[:BASE_DEPTH])
    index = _term_index(model)
    for term in set(query_terms):
        out.update(doc for doc, _ in index.get(term, ()))
    return out


def rerank(request: RerankRequest) -> ScoredRanking:
    """Score candidates and sort by score desc, then base rank asc, then doc_id.

    With a freshly initialized model (uniform rank weights, no term weights)
    the threshold buckets tie and the base-rank tie-break reproduces the
    base order exactly.
    """
    model = request.model
    base = request.base_rankings

    def base_rank(doc: str) -> int:
        best = None
        for ranking in base.values():
            r = ranking.rank_of(doc)
            if r is not None and (best is None or r < best):
                best = r
        return best if best is not None else 10**9

    query_id = next(iter(base.values())).query_id if base else ""
    scored = []
    for doc in sorted(candidates(request.query_terms, base, model)):
        s = score(doc, request.query_terms, base, model)
        origin = "base_results" if base_rank(doc) < 10**9 else "term_association"
        scored.append((doc, s, origin))
    scored.sort(key=lambda t: (-t[1], base_rank(t[0]), t[0]))
    return ScoredRanking(
        query_id,
        [ScoredEntry(d, s, o) for d, s, o in scored[: request.k]],
    )
