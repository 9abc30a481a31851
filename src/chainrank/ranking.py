"""Serving a learned model: scoring, candidate generation, reranking.

A document's score is the learned weight vector dotted with its feature
vector: the suffix sum of rank weights over thresholds at or above its base
rank, plus the term/document weights of the query terms.  Candidates are the
base results plus every document carrying a nonzero term/document weight for
some query term, which is how documents absent from the base results can
enter (or be pushed out of) the final ranking.

Scoring a candidate costs a few dict lookups.  Per model, and cached on it:
a table per base function mapping each base rank to its rank score, and a
term -> {doc: weight} map of the nonzero term/document weights.  Per
request: a doc -> rank map per base ranking, the best rank of each document
over all rankings, and the sorted distinct query terms.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import RankedList
from .features import RANK_THRESHOLDS
from .solver import Model

BASE_DEPTH = RANK_THRESHOLDS[-1]  # base results beyond this rank are feature-invisible
_UNRANKED = 10**9  # sort position of a document in no base ranking


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


def _rank_tables(model: Model) -> dict[str, list[float]]:
    """Per base function: entry r is the rank score of base rank r, cached.

    The rank score is the suffix sum of the rank weights over the thresholds
    at or above r.  Entry 0 stands for a document absent from the ranking.
    """
    cached = getattr(model, "_rank_table_cache", None)
    if cached is None:
        cached = {}
        for fn in model.space.base_functions:
            suffix = np.cumsum(model.rank_weights(fn)[::-1])[::-1].tolist()
            cached[fn] = [0.0] + [
                suffix[bisect.bisect_left(RANK_THRESHOLDS, r)] for r in range(1, BASE_DEPTH + 1)
            ]
        model._rank_table_cache = cached
    return cached


def _term_weights(model: Model) -> dict[str, dict[str, float]]:
    """term -> {doc: weight} over nonzero term/document weights, cached."""
    cached = getattr(model, "_term_weights_cache", None)
    if cached is None:
        cached = {}
        for term, doc, w in model.term_doc_items():
            if w != 0.0:
                cached.setdefault(term, {})[doc] = w
        model._term_weights_cache = cached
    return cached


def _scorer(
    query_terms: list[str],
    base_rankings: dict[str, RankedList],
    model: Model,
) -> Callable[[str], float]:
    """Per-request scoring function: rank maps and term maps built once."""
    tables = _rank_tables(model)
    rank_maps = [
        (tables[fn], {e.doc_id: e.rank for e in base_rankings[fn].entries[:BASE_DEPTH]})
        for fn in model.space.base_functions
        if fn in base_rankings
    ]
    weights = _term_weights(model)
    term_maps = [weights[t] for t in sorted(set(query_terms)) if t in weights]

    # a base function without a ranking, or a term without weights, would add
    # 0.0; the sum is never -0.0, so skipping it leaves every score bit-identical
    def score_doc(doc_id: str) -> float:
        total = 0.0
        for table, ranks in rank_maps:
            total += table[ranks.get(doc_id, 0)]
        for term_map in term_maps:
            total += term_map.get(doc_id, 0.0)
        return total

    return score_doc


def score(
    doc_id: str,
    query_terms: list[str],
    base_rankings: dict[str, RankedList],
    model: Model,
) -> float:
    """Learned relevance score: exact sparse dot product of weights and features."""
    return _scorer(query_terms, base_rankings, model)(doc_id)


def candidates(
    query_terms: list[str],
    base_rankings: dict[str, RankedList],
    model: Model,
) -> set[str]:
    """Docs that can score nonzero: base top results plus term-weighted docs."""
    out: set[str] = set()
    for ranking in base_rankings.values():
        out.update(e.doc_id for e in ranking.entries[:BASE_DEPTH])
    weights = _term_weights(model)
    for term in set(query_terms):
        out.update(weights.get(term, ()))
    return out


def rerank(request: RerankRequest) -> ScoredRanking:
    """Score candidates and sort by score desc, then base rank asc, then doc_id.

    The base rank is the best rank over all base rankings; documents in none
    of them come last on ties and carry origin "term_association".  With a
    freshly initialized model (uniform rank weights, no term weights) the
    threshold buckets tie and the base-rank tie-break reproduces the base
    order exactly.
    """
    model = request.model
    base = request.base_rankings
    score_doc = _scorer(request.query_terms, base, model)
    best: dict[str, int] = {}
    for ranking in base.values():
        for e in ranking.entries:
            if e.rank < best.get(e.doc_id, _UNRANKED):
                best[e.doc_id] = e.rank

    scored = [(doc, score_doc(doc)) for doc in candidates(request.query_terms, base, model)]
    scored.sort(key=lambda t: (-t[1], best.get(t[0], _UNRANKED), t[0]))
    query_id = next(iter(base.values())).query_id if base else ""
    return ScoredRanking(query_id, [
        ScoredEntry(d, s, "base_results" if d in best else "term_association")
        for d, s in scored[: request.k]
    ])
