"""Query-chain segmentation by a time window.

Consecutive queries from one session whose gap is at most `window_seconds`
share a chain; a larger gap starts a new one.  The window is the only
segmenter.  It is exact whenever intent switches come with gaps above the
window, as they do at the simulator's `INTENT_GAP_SECONDS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring  # json.dumps of a str, ensure_ascii=False

from .errors import DataError, json_lines, string, strings
from .logs import ClickEvent, Event, QueryEvent, SearchLog, group_sessions

DEFAULT_WINDOW_SECONDS = 1800  # half an hour


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
    clicks_by_qid = _clicks_by_query(session_events)
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


def _clicks_by_query(events: list[Event]) -> dict[str, list[ClickEvent]]:
    """Each query id's clicks, in stream order."""
    clicks_by_qid: dict[str, list[ClickEvent]] = {}
    for e in events:
        if isinstance(e, ClickEvent):
            clicks_by_qid.setdefault(e.query_id, []).append(e)
    return clicks_by_qid


def _make_chain(sid, idx, queries, clicks_by_qid) -> QueryChain:
    return QueryChain(
        chain_id=f"{sid}-c{idx}",
        session_id=sid,
        queries=list(queries),
        clicks=[clicks_by_qid.get(q.query_id, []) for q in queries],
    )


def segment_log(log: SearchLog, window_seconds: int = DEFAULT_WINDOW_SECONDS) -> list[QueryChain]:
    """Segment every session of a log; sessions in sorted order for determinism."""
    groups = group_sessions(log)
    chains: list[QueryChain] = []
    for sid in sorted(groups):
        chains.extend(segment_heuristic(groups[sid], window_seconds))
    return chains


def write_chains(chains: list[QueryChain]) -> str:
    """JSON-lines: {"chain_id":...,"session":...,"qids":[...]}, as `json.dumps` writes them."""
    q = encode_basestring
    return "".join(
        f'{{"chain_id":{q(c.chain_id)},"session":{q(c.session_id)},'
        f'"qids":[{",".join(q(qid) for qid in c.query_ids())}]}}\n'
        for c in chains
    )


def read_chains(text: str, log: SearchLog) -> list[QueryChain]:
    """Rebuild chains against a log (queries and clicks resolved by qid).

    A chain id appears on one line only, a query id in one chain only, and a
    chain's queries all belong to the session it names; a line that breaks
    one of these raises LogParseError naming it.
    """
    queries = log.queries()
    clicks_by_qid = _clicks_by_query(log.events)
    chain_ids: set[str] = set()
    listed: set[str] = set()

    def record(rec: dict) -> QueryChain:
        chain_id, session = string(rec["chain_id"]), string(rec["session"])
        qids = strings(rec["qids"])
        if chain_id in chain_ids:
            raise DataError(f"chain id {chain_id!r} appears twice")
        chain_ids.add(chain_id)
        for qid in qids:
            if qid not in queries:
                raise DataError(f"unknown query id {qid!r}")
            if qid in listed:
                raise DataError(f"query id {qid!r} listed twice")
            listed.add(qid)
            if queries[qid].session_id != session:
                raise DataError(f"query {qid!r} is not in session {session!r}")
        qs = [queries[qid] for qid in qids]
        return QueryChain(
            chain_id=chain_id,
            session_id=session,
            queries=qs,
            clicks=[list(clicks_by_qid.get(q.query_id, ())) for q in qs],
        )

    return json_lines(text, record)
