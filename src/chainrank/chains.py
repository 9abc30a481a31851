"""Query-chain segmentation by a time window.

One pass over the log maps each query to its clicks; `segment_log` then
walks the queries in stream order.  Consecutive queries from one session
whose gap is at most `window_seconds` share a chain; a larger gap starts a
new one.  The window is the only segmenter.  It is exact whenever intent
switches come with gaps above the window, as they do at the simulator's
`INTENT_GAP_SECONDS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring  # json.dumps of a str, ensure_ascii=False

from .errors import DataError, json_lines, string, strings
from .logs import ClickEvent, QueryEvent, SearchLog

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


def _by_query(log: SearchLog) -> dict[str, tuple[QueryEvent, list[ClickEvent]]]:
    """Each query id's (query event, its clicks in stream order), queries in stream order.

    A click must follow its query in the stream, as `parse_log` requires;
    one that does not is a KeyError.
    """
    by_qid: dict[str, tuple[QueryEvent, list[ClickEvent]]] = {}
    for e in log.events:
        if isinstance(e, QueryEvent):
            by_qid[e.query_id] = (e, [])
        else:
            by_qid[e.query_id][1].append(e)
    return by_qid


def segment_log(log: SearchLog, window_seconds: int = DEFAULT_WINDOW_SECONDS) -> list[QueryChain]:
    """Split every session's queries into chains at gaps above the window.

    A session's first query starts its chain `{session}-c0`, and each query
    more than `window_seconds` after the session's previous query starts the
    next one; every other query, with its clicks, joins the session's open
    chain.  So every query lands in exactly one chain, and adjacent chains
    always have a boundary gap above the window (the segmentation is
    maximal).  Sessions come out in sorted order, for determinism.
    """
    if window_seconds <= 0:
        raise DataError(f"window_seconds must be positive, got {window_seconds}")
    sessions: dict[str, list[QueryChain]] = {}
    for q, clicks in _by_query(log).values():
        sid = q.session_id
        chains = sessions.setdefault(sid, [])
        if chains and q.timestamp - chains[-1].queries[-1].timestamp <= window_seconds:
            chains[-1].queries.append(q)
            chains[-1].clicks.append(clicks)
        else:
            chains.append(QueryChain(f"{sid}-c{len(chains)}", sid, [q], [clicks]))
    return [c for sid in sorted(sessions) for c in sessions[sid]]


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
    by_qid = _by_query(log)
    chain_ids: set[str] = set()
    listed: set[str] = set()

    def record(rec: dict) -> QueryChain:
        chain_id, session = string(rec["chain_id"]), string(rec["session"])
        qids = strings(rec["qids"])
        if chain_id in chain_ids:
            raise DataError(f"chain id {chain_id!r} appears twice")
        chain_ids.add(chain_id)
        queries, clicks = [], []
        for qid in qids:
            entry = by_qid.get(qid)
            if entry is None:
                raise DataError(f"unknown query id {qid!r}")
            if qid in listed:
                raise DataError(f"query id {qid!r} listed twice")
            listed.add(qid)
            query, query_clicks = entry
            if query.session_id != session:
                raise DataError(f"query {qid!r} is not in session {session!r}")
            queries.append(query)
            clicks.append(list(query_clicks))  # each query its own list, as from segmentation
        return QueryChain(chain_id=chain_id, session_id=session, queries=queries, clicks=clicks)

    return json_lines(text, record)
