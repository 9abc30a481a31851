"""Sparse feature construction for the learned retrieval function.

A document/query pair maps to the 28 rank-threshold indicators of its rank in
the one base ranking, ids 0..27, followed by term/document indicator
features.  The term/document feature ids are materialized lazily: only pairs
actually seen while building training constraints (or scoring requests) get
an id.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .corpus import BASE_DEPTH

# Threshold ranks 1..10 then 15,20,...,BASE_DEPTH.
RANK_THRESHOLDS: tuple[int, ...] = tuple(range(1, 11)) + tuple(range(15, BASE_DEPTH + 1, 5))
N_RANK_FEATURES = len(RANK_THRESHOLDS)
assert N_RANK_FEATURES == 28
BASE_FN = "base"  # the name of the one base ranking, in requests and model artifacts


def first_threshold(rank: int | None) -> int:
    """Index of the first threshold at or above `rank`, where its indicators
    start to fire; N_RANK_FEATURES (none fires) for `None` or a rank beyond
    the deepest threshold.  Training and serving both map ranks through this;
    `phi_rank` is the independent reference the tests compare it with.
    """
    return N_RANK_FEATURES if rank is None else bisect_left(RANK_THRESHOLDS, rank)


@dataclass(frozen=True)
class SparseVector:
    """Immutable sparse vector: unique sorted ids, nonzero values."""

    ids: tuple[int, ...]
    values: tuple[float, ...]

    @classmethod
    def from_items(cls, items: dict[int, float]) -> "SparseVector":
        pairs = sorted((i, v) for i, v in items.items() if v != 0.0)
        return cls(tuple(i for i, _ in pairs), tuple(v for _, v in pairs))

    def to_dict(self) -> dict[int, float]:
        return dict(zip(self.ids, self.values))

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        acc = self.to_dict()
        for i, v in zip(other.ids, other.values):
            acc[i] = acc.get(i, 0.0) - v
        return SparseVector.from_items(acc)

    def dot(self, w: np.ndarray) -> float:
        if self.ids and self.ids[-1] >= len(w):
            raise ValueError(
                f"dimension mismatch: feature id {self.ids[-1]} >= dim {len(w)}"
            )
        return float(sum(v * w[i] for i, v in zip(self.ids, self.values)))

    def nnz(self) -> int:
        return len(self.ids)


class FeatureSpace:
    """Feature id layout: the rank block first, then grown term/document ids.

    Growing the term/document map is single-writer; once frozen, unknown
    pairs simply contribute no feature.  `base_functions` names the base
    ranking the rank block is over; only `(BASE_FN,)` is accepted.
    """

    def __init__(self, base_functions: tuple[str, ...] = (BASE_FN,)):
        if tuple(base_functions) != (BASE_FN,):
            raise ValueError(f"base_functions must be [{BASE_FN!r}], got {list(base_functions)}")
        self._term_doc: dict[tuple[str, str], int] = {}
        self._pairs: list[tuple[str, str]] = []  # index i <-> id N_RANK_FEATURES + i
        self.frozen = False

    @property
    def dim(self) -> int:
        return N_RANK_FEATURES + len(self._pairs)

    def freeze(self) -> None:
        self.frozen = True

    def term_doc_id(self, term: str, doc_id: str) -> int | None:
        """Id for a (term, doc) pair; grows the map unless frozen."""
        key = (term, doc_id)
        fid = self._term_doc.get(key)
        if fid is None and not self.frozen:
            fid = N_RANK_FEATURES + len(self._pairs)
            self._term_doc[key] = fid
            self._pairs.append(key)
        return fid

    def term_doc_pairs(self) -> list[tuple[str, str]]:
        """Materialized (term, doc) pairs in feature-id order."""
        return list(self._pairs)


def phi_rank(rank: int | None) -> np.ndarray:
    """28 indicators, one per threshold: 1 iff rank <= threshold.

    `None` means the document is absent from the ranking (all zeros).
    """
    out = np.zeros(N_RANK_FEATURES)
    if rank is None:
        return out
    if rank < 1:
        raise ValueError(f"rank must be 1-based, got {rank}")
    for i, tau in enumerate(RANK_THRESHOLDS):
        if rank <= tau:
            out[i] = 1.0
    return out


def phi_terms(space: FeatureSpace, doc_id: str, query_terms: list[str]) -> SparseVector:
    """One indicator per distinct query term, at the (term, doc) feature id."""
    items: dict[int, float] = {}
    for term in sorted(set(query_terms)):
        fid = space.term_doc_id(term, doc_id)
        if fid is not None:
            items[fid] = 1.0
    return SparseVector.from_items(items)


def phi(
    space: FeatureSpace,
    doc_id: str,
    query_terms: list[str],
    rank: int | None,
) -> SparseVector:
    """Full feature vector: the rank block of `rank`, then term features."""
    items: dict[int, float] = {}
    for i, v in enumerate(phi_rank(rank)):
        if v:
            items[i] = float(v)
    items.update(phi_terms(space, doc_id, query_terms).to_dict())
    return SparseVector.from_items(items)
