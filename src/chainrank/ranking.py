"""Serving a learned model: scoring, candidate generation, reranking.

A document's score is the learned weight vector dotted with its feature
vector: the suffix sum of rank weights over thresholds at or above its rank
in the base ranking, plus the term/document weights of the query terms.
Candidates are the base results plus every document carrying a nonzero
term/document weight for some query term, which is how documents absent from
the base results can enter (or be pushed out of) the final ranking.  The
result is a `RankedList`, the type of the base ranking it reorders, so
interleaving merges the two as peers.

Per model, and cached on it: a rank-score table mapping each base rank to
its rank score, the base ranks 1..BASE_DEPTH ordered by (-rank score, rank),
and a term -> {doc: weight} map of the nonzero term/document weights.  A
request scores only the documents that carry a weight for a query term, one
dict lookup per query term each, and counts the base-ranked ones as it goes;
with a single weighted query term, that term's map is the set of them, so
nothing is copied.  Every other candidate is a base document whose score is
its rank score alone, so those candidates come in final order from walking
the cached rank order, and the walk stops after k of them.  A request thus
costs about k plus the term-weighted documents, however deep the base
ranking is.  Each score is summed as `score` sums it, rank score first, then
the query terms in sorted order, so the two agree to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .corpus import BASE_DEPTH, RESULTS_PER_QUERY, RankedList
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


def _rank_table(model: Model) -> tuple[list[float], list[int]]:
    """(table, order), cached on the model.

    Entry r of the table is the rank score of base rank r: the suffix sum of
    the rank weights over the thresholds at or above r.  Entry 0 stands for a
    document absent from the ranking.  The order lists the ranks
    1..BASE_DEPTH by (-rank score, rank), which is the order rerank gives
    base documents without term weights.
    """
    cached = getattr(model, "_rank_table_cache", None)
    if cached is None:
        suffix = np.cumsum(model.rank_weights()[::-1])[::-1].tolist()
        table = [0.0] + [suffix[first_threshold(r)] for r in range(1, BASE_DEPTH + 1)]
        order = sorted(range(1, BASE_DEPTH + 1), key=lambda r: (-table[r], r))
        cached = model._rank_table_cache = (table, order)
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


def _term_maps(query_terms: list[str], model: Model) -> list[dict[str, float]]:
    """The {doc: weight} maps of the distinct query terms that have any, by term.

    A term without weights would add 0.0 to every score, so skipping it
    leaves every score bit-identical.
    """
    weights = _term_weights(model)
    return [weights[t] for t in sorted(set(query_terms)) if t in weights]


def score(
    doc_id: str,
    query_terms: list[str],
    base_rankings: dict[str, RankedList],
    model: Model,
) -> float:
    """Learned relevance score: exact sparse dot product of weights and features."""
    table = _rank_table(model)[0]
    ids = _base_ranking(base_rankings).ids
    rank = ids.index(doc_id) + 1 if doc_id in ids else 0
    # the sum starts at 0.0, so it is never -0.0; ranks beyond BASE_DEPTH score 0
    total = 0.0
    total += table[rank] if rank <= BASE_DEPTH else 0.0
    for term_map in _term_maps(query_terms, model):
        total += term_map.get(doc_id, 0.0)
    return total


def candidates(
    query_terms: list[str],
    base_rankings: dict[str, RankedList],
    model: Model,
) -> set[str]:
    """Docs that can score nonzero: base top results plus term-weighted docs."""
    out = set(_base_ranking(base_rankings).ids[:BASE_DEPTH])
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
    model, ids = request.model, _base_ranking(request.base_rankings).ids
    n = len(ids)
    table, order = _rank_table(model)
    term_maps = _term_maps(request.query_terms, model)
    # one weighted term's map is already the set of its documents; no copy needed
    weighted = term_maps[0] if len(term_maps) == 1 else set().union(*term_maps)
    ranks = dict(zip(ids, range(1, n + 1))) if weighted else {}
    rows = []  # (-score, sort rank, doc_id) of each candidate scored
    ranked_weighted = 0  # weighted documents within the rank features' depth
    for doc in weighted:  # summed as `score` sums: rank score, then terms in sorted order
        rank = ranks.get(doc, 0)
        total = 0.0
        if 0 < rank <= BASE_DEPTH:
            ranked_weighted += 1
            total += table[rank]
        for term_map in term_maps:
            total += term_map.get(doc, 0.0)
        rows.append((-total, rank or _UNRANKED, doc))
    # Every other candidate is a base document scored by its rank alone, and
    # `order` lists those best first; the answer uses at most k of them.
    rank_scored = min(n, BASE_DEPTH) - ranked_weighted
    walk = ((-(0.0 + table[r]), r, ids[r - 1])
            for r in order if r <= n and ids[r - 1] not in weighted)
    rows.extend(islice(walk, min(request.k, rank_scored)))
    rows.sort()
    top = rows[:request.k]
    return RankedList._of(
        tuple([d for _, _, d in top]),
        tuple([-neg for neg, _, _ in top]),
        tuple(["base_results" if r != _UNRANKED else "term_association" for _, r, _ in top]),
    )
