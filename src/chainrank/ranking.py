"""Serving a learned model: scoring, candidate generation, reranking.

A document's score is the learned weight vector dotted with its feature
vector: the suffix sum of rank weights over thresholds at or above its rank
in the base ranking, plus the term/document weights of the query terms.
Candidates are the base results plus every document carrying a nonzero
term/document weight for some query term, which is how documents absent from
the base results can enter (or be pushed out of) the final ranking.  The
result is a `RankedList`, the type of the base ranking it reorders, so
interleaving merges the two as peers.

Scoring a candidate costs a few dict lookups.  Per model, and cached on it:
a rank-score table mapping each base rank to its rank score, and a
term -> {doc: weight} map of the nonzero term/document weights.  Per
request: one doc -> rank map of the base ranking, used for the score, the
tie-break and the origin, and the sorted distinct query terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import BASE_DEPTH, RESULTS_PER_QUERY, RankedList, RankEntry
from .features import BASE_FN, first_threshold
from .solver import Model

_UNRANKED = 10**9  # sort position of a document not in the base ranking


def _base_ranking(base_rankings: dict[str, RankedList]) -> RankedList:
    """The one base ranking, keyed BASE_FN; ValueError for any other keys."""
    if base_rankings.keys() != {BASE_FN}:
        raise ValueError(f"base_rankings must hold only {BASE_FN!r}, got {list(base_rankings)}")
    return base_rankings[BASE_FN]


@dataclass
class RerankRequest:
    query_terms: list[str]
    base_rankings: dict[str, RankedList]
    model: Model
    k: int = RESULTS_PER_QUERY

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        _base_ranking(self.base_rankings)


def _rank_table(model: Model) -> list[float]:
    """Entry r is the rank score of base rank r, cached on the model.

    The rank score is the suffix sum of the rank weights over the thresholds
    at or above r.  Entry 0 stands for a document absent from the ranking.
    """
    cached = getattr(model, "_rank_table_cache", None)
    if cached is None:
        suffix = np.cumsum(model.rank_weights()[::-1])[::-1].tolist()
        cached = [0.0] + [suffix[first_threshold(r)] for r in range(1, BASE_DEPTH + 1)]
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


def _ranks(base_rankings: dict[str, RankedList]) -> dict[str, int]:
    """doc -> rank in the base ranking, its position plus one."""
    return {e.doc_id: i for i, e in enumerate(_base_ranking(base_rankings).entries, start=1)}


def _scorer(query_terms: list[str], ranks: dict[str, int], model: Model) -> Callable[[str], float]:
    """Per-request scoring function over a doc -> base rank map."""
    table = _rank_table(model)
    if len(ranks) > BASE_DEPTH:  # ranks run 1..len(ranks); the deeper ones score 0
        table = table + [0.0] * (len(ranks) - BASE_DEPTH)
    weights = _term_weights(model)
    term_maps = [weights[t] for t in sorted(set(query_terms)) if t in weights]

    # the sum starts at 0.0, so it is never -0.0; a term without weights would
    # add 0.0, so skipping it leaves every score bit-identical
    def score_doc(doc_id: str) -> float:
        total = 0.0
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
    return _scorer(query_terms, _ranks(base_rankings), model)(doc_id)


def candidates(
    query_terms: list[str],
    base_rankings: dict[str, RankedList],
    model: Model,
) -> set[str]:
    """Docs that can score nonzero: base top results plus term-weighted docs."""
    out = {e.doc_id for e in _base_ranking(base_rankings).entries[:BASE_DEPTH]}
    weights = _term_weights(model)
    for term in set(query_terms):
        out.update(weights.get(term, ()))
    return out


def rerank(request: RerankRequest) -> RankedList:
    """Score candidates and sort by score desc, then base rank asc, then doc_id.

    Documents not in the base ranking come last on ties and carry origin
    "term_association".  With a freshly initialized model (uniform rank
    weights, no term weights) the threshold buckets tie and the base-rank
    tie-break reproduces the base order exactly.
    """
    model, terms = request.model, request.query_terms
    ranks = _ranks(request.base_rankings)
    score_doc = _scorer(terms, ranks, model)
    scored = [(doc, score_doc(doc)) for doc in candidates(terms, request.base_rankings, model)]
    scored.sort(key=lambda t: (-t[1], ranks.get(t[0], _UNRANKED), t[0]))
    return RankedList([
        RankEntry(d, s, "base_results" if d in ranks else "term_association")
        for d, s in scored[: request.k]
    ])
