"""Query-chain segmentation and features for an optional learned chain classifier.

Production segmentation is the time-window heuristic: consecutive queries
from one session whose gap is at most `window_seconds` share a chain.  The
16 pairwise features support training a linear classifier as an alternative
and as a weight-inspection tool; the heuristic remains the default path.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import tokenize
from .errors import DataError, json_lines, string, strings
from .logs import ClickEvent, Event, QueryEvent, SearchLog
from .solver import BinaryModel

DEFAULT_WINDOW_SECONDS = 1800  # half an hour

FEATURE_NAMES = (
    "cos_queries",
    "cos_docids_top10",
    "cos_abstracts_top10",
    "trigram_match",
    "share_one_word",
    "share_two_words",
    "share_phrase_two_words",
    "num_different_words",
    "dt_le_5",
    "dt_le_10",
    "dt_le_30",
    "dt_le_100",
    "dt_gt_100",
    "norm_clicks_r1",
    "norm_min_results",
    "norm_max_results",
)
N_FEATURES = len(FEATURE_NAMES)


@dataclass
class QueryChain:
    """Time-ordered queries of one session serving a single information need."""

    chain_id: str
    session_id: str
    queries: list[QueryEvent]
    clicks: list[list[ClickEvent]]  # parallel to queries

    def __post_init__(self):
        if not self.queries:
            raise DataError(f"chain {self.chain_id} has no queries")
        if len(self.clicks) != len(self.queries):
            raise DataError(f"chain {self.chain_id}: clicks not parallel to queries")

    def query_ids(self) -> list[str]:
        return [q.query_id for q in self.queries]


@dataclass
class ChainPairFeatures:
    cos_queries: float
    cos_docids_top10: float
    cos_abstracts_top10: float
    trigram_match: float
    share_one_word: float
    share_two_words: float
    share_phrase_two_words: float
    num_different_words: float
    dt_le_5: float
    dt_le_10: float
    dt_le_30: float
    dt_le_100: float
    dt_gt_100: float
    norm_clicks_r1: float
    norm_min_results: float
    norm_max_results: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=float)


def segment_heuristic(
    session_events: list[Event], window_seconds: int = DEFAULT_WINDOW_SECONDS
) -> list[QueryChain]:
    """Split one session's event stream into chains at query gaps > window.

    Every query lands in exactly one chain; a gap larger than the window
    starts a new chain, so adjacent chains always have a boundary gap above
    the window (the segmentation is maximal).
    """
    if window_seconds <= 0:
        raise DataError(f"window_seconds must be positive, got {window_seconds}")
    queries = [e for e in session_events if isinstance(e, QueryEvent)]
    clicks_by_qid: dict[str, list[ClickEvent]] = {}
    for e in session_events:
        if isinstance(e, ClickEvent):
            clicks_by_qid.setdefault(e.query_id, []).append(e)
    if not queries:
        return []
    sid = queries[0].session_id

    chains: list[QueryChain] = []
    current: list[QueryEvent] = [queries[0]]
    for prev, nxt in zip(queries, queries[1:]):
        if nxt.timestamp - prev.timestamp <= window_seconds:
            current.append(nxt)
        else:
            chains.append(_make_chain(sid, len(chains), current, clicks_by_qid))
            current = [nxt]
    chains.append(_make_chain(sid, len(chains), current, clicks_by_qid))
    return chains


def _make_chain(sid, idx, queries, clicks_by_qid) -> QueryChain:
    return QueryChain(
        chain_id=f"{sid}-c{idx}",
        session_id=sid,
        queries=list(queries),
        clicks=[clicks_by_qid.get(q.query_id, []) for q in queries],
    )


def segment_log(log: SearchLog, window_seconds: int = DEFAULT_WINDOW_SECONDS) -> list[QueryChain]:
    """Segment every session of a log; sessions in sorted order for determinism."""
    from .logs import group_sessions

    groups = group_sessions(log)
    chains: list[QueryChain] = []
    for sid in sorted(groups):
        chains.extend(segment_heuristic(groups[sid], window_seconds))
    return chains


def _cos(a: Counter, b: Counter) -> float:
    if not a or not b:
        return 0.0
    dot = sum(v * b.get(k, 0) for k, v in a.items())
    # sqrt of the product keeps identical inputs at exactly 1.0
    denom = (sum(v * v for v in a.values()) * sum(v * v for v in b.values())) ** 0.5
    return min(1.0, dot / denom)


def _trigrams(text: str) -> set[str]:
    return {text[i: i + 3] for i in range(len(text) - 2)}


def extract_pair_features(
    q1: QueryEvent, q2: QueryEvent, n_clicks_q1: int = 0
) -> ChainPairFeatures:
    """Features of an ordered query pair (q1 at t1 <= q2 at t2).

    Cosine and share features are symmetric in the two queries; the time
    indicators and the q1 click count are not.  Cosines are similarities in
    [0, 1]: term frequencies for the query strings, binary incidence over
    the top-10 result doc ids, and bags of words over the concatenated
    top-10 abstracts.  Empty inputs yield 0 for the derived feature.
    """
    if q2.timestamp < q1.timestamp:
        raise DataError("q1 must not be later than q2")
    t1 = [t.lower() for t in q1.terms]
    t2 = [t.lower() for t in q2.terms]
    set1, set2 = set(t1), set(t2)

    top1 = q1.results[:10]
    top2 = q2.results[:10]
    docs1 = Counter(d for d, _ in top1)
    docs2 = Counter(d for d, _ in top2)
    abs1 = Counter(tokenize(" ".join(a for _, a in top1)))
    abs2 = Counter(tokenize(" ".join(a for _, a in top2)))

    s1, s2 = " ".join(t1), " ".join(t2)
    tri1, tri2 = _trigrams(s1), _trigrams(s2)
    tri_union = tri1 | tri2
    trigram = len(tri1 & tri2) / len(tri_union) if tri_union else 0.0

    bigrams1 = {(a, b) for a, b in zip(t1, t1[1:])}
    bigrams2 = {(a, b) for a, b in zip(t2, t2[1:])}

    dt = q2.timestamp - q1.timestamp
    return ChainPairFeatures(
        cos_queries=_cos(Counter(t1), Counter(t2)),
        cos_docids_top10=_cos(docs1, docs2),
        cos_abstracts_top10=_cos(abs1, abs2),
        trigram_match=trigram,
        share_one_word=float(len(set1 & set2) >= 1),
        share_two_words=float(len(set1 & set2) >= 2),
        share_phrase_two_words=float(bool(bigrams1 & bigrams2)),
        num_different_words=float(len(set1 ^ set2)),
        dt_le_5=float(dt <= 5),
        dt_le_10=float(dt <= 10),
        dt_le_30=float(dt <= 30),
        dt_le_100=float(dt <= 100),
        dt_gt_100=float(dt > 100),
        norm_clicks_r1=min(n_clicks_q1, 10) / 10.0,
        norm_min_results=min(min(len(q1.results), len(q2.results)) / 100.0, 1.0),
        norm_max_results=min(max(len(q1.results), len(q2.results)) / 100.0, 1.0),
    )


def classify_pair(features: ChainPairFeatures | np.ndarray, model: BinaryModel) -> bool:
    """Predict whether the pair belongs to the same chain (score + bias > 0)."""
    x = features.as_array() if isinstance(features, ChainPairFeatures) else np.asarray(features)
    if x.shape != (N_FEATURES,):
        raise DataError(f"expected {N_FEATURES} features, got shape {x.shape}")
    if model.weights.shape != (N_FEATURES,):
        raise DataError(
            f"model dimension {model.weights.shape} does not match {N_FEATURES} features"
        )
    return model.predict(x)


def write_chains(chains: list[QueryChain]) -> str:
    """JSON-lines: {"chain_id":...,"session":...,"qids":[...]}."""
    lines = [
        json.dumps(
            {"chain_id": c.chain_id, "session": c.session_id, "qids": c.query_ids()},
            ensure_ascii=False,
            separators=(",", ":"),
        )
        for c in chains
    ]
    return "".join(line + "\n" for line in lines)


def read_chains(text: str, log: SearchLog) -> list[QueryChain]:
    """Rebuild chains against a log (queries and clicks resolved by qid)."""
    queries = log.queries()
    clicks_by_qid: dict[str, list[ClickEvent]] = {}
    for e in log.events:
        if isinstance(e, ClickEvent):
            clicks_by_qid.setdefault(e.query_id, []).append(e)

    def record(rec: dict) -> QueryChain:
        qids = strings(rec["qids"])
        for qid in qids:
            if qid not in queries:
                raise DataError(f"unknown query id {qid!r}")
        qs = [queries[qid] for qid in qids]
        return QueryChain(
            chain_id=string(rec["chain_id"]),
            session_id=string(rec["session"]),
            queries=qs,
            clicks=[list(clicks_by_qid.get(q.query_id, ())) for q in qs],
        )

    return json_lines(text, record)
