"""Canonical query/click log schema, JSON-lines persistence, session grouping.

Wire format (log version LOG_VERSION) is one JSON object per line, UTF-8,
LF line endings:

    {"type":"query","qid":...,"session":...,"t":...,"terms":[...],
     "results":["d1","d2",...]}
    {"type":"click","qid":...,"doc":...,"rank":...,"t":...}

A query's "results" are the ids of the documents it showed, in rank order;
that, and which of them were clicked, is all the preference strategies
read.  The log's sidecar carries LOG_VERSION, and the pipeline refuses a
log of any other version.

Field order is canonical, so `write_log` is byte-deterministic and
`parse_log(write_log(log)) == log`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring  # json.dumps of a str, ensure_ascii=False
from typing import Union

from .corpus import BASE_DEPTH
from .errors import DataError, integer, json_lines, string, strings

LOG_VERSION = 2  # stamped in the log artifact's sidecar


@dataclass
class QueryEvent:
    query_id: str
    session_id: str
    timestamp: int
    terms: list[str]
    results: list[str] = field(default_factory=list)  # shown doc ids, in rank order

    def __post_init__(self):
        if self.timestamp < 0:
            raise DataError(f"query {self.query_id}: negative timestamp")
        if len(self.results) > BASE_DEPTH:
            raise DataError(f"query {self.query_id}: more than {BASE_DEPTH} results")
        if len(set(self.results)) != len(self.results):
            raise DataError(f"query {self.query_id}: duplicate doc in results")


@dataclass
class ClickEvent:
    query_id: str
    doc_id: str
    rank: int
    timestamp: int


Event = Union[QueryEvent, ClickEvent]


@dataclass
class SearchLog:
    """Time-ordered interleaved stream of query and click events."""

    events: list[Event] = field(default_factory=list)

    def queries(self) -> dict[str, QueryEvent]:
        return {e.query_id: e for e in self.events if isinstance(e, QueryEvent)}

    def __len__(self) -> int:
        return len(self.events)


def _check_click(click: ClickEvent, query: QueryEvent) -> None:
    docs = query.results
    if not 1 <= click.rank <= len(docs):
        raise DataError(
            f"click on {click.doc_id}: rank {click.rank} outside results of "
            f"query {query.query_id}"
        )
    if docs[click.rank - 1] != click.doc_id:
        raise DataError(
            f"click: doc {click.doc_id} is not at rank {click.rank} of query {query.query_id}"
        )


def parse_log(text: str) -> SearchLog:
    """Parse and validate a JSON-lines log in one pass.

    Each record is checked as it is read: field types (a timestamp or rank
    is a JSON integer, never a float, string or boolean), a query id not used
    by an earlier query, a click against the query it references (known,
    rank within its results, the document at that rank), and timestamps
    that never decrease within a session.  Any fault raises LogParseError
    with the line number.
    """
    queries: dict[str, QueryEvent] = {}
    last_t: dict[str, int] = {}

    def record(rec: dict) -> Event:
        kind = rec["type"]
        if kind == "query":
            ev = QueryEvent(
                query_id=string(rec["qid"]),
                session_id=string(rec["session"]),
                timestamp=integer(rec["t"]),
                terms=strings(rec["terms"]),
                results=strings(rec["results"]),
            )
            if ev.query_id in queries:
                raise DataError(f"query id {ev.query_id!r} repeats an earlier query record")
            queries[ev.query_id] = ev
            session = ev.session_id
        elif kind == "click":
            ev = ClickEvent(rec["qid"], rec["doc"], integer(rec["rank"]), integer(rec["t"]))
            q = queries.get(ev.query_id)
            if q is None:
                raise DataError(f"click references unknown query_id {ev.query_id}")
            _check_click(ev, q)
            session = q.session_id
        else:
            raise DataError(f"unknown record type {kind!r}")
        if ev.timestamp < last_t.get(session, 0):
            raise DataError(f"timestamps decrease within session {session}")
        last_t[session] = ev.timestamp
        return ev

    return SearchLog(json_lines(text, record))


def write_log(log: SearchLog) -> str:
    """Serialize to canonical JSON-lines. parse_log(write_log(x)) == x.

    Each line is the `json.dumps(rec, ensure_ascii=False, separators=(",", ":"))`
    of its record, written with json's own string and int encoders.
    """
    q, n = encode_basestring, int.__repr__
    out = []
    for ev in log.events:
        if isinstance(ev, QueryEvent):
            terms = ",".join(map(q, ev.terms))
            results = ",".join(map(q, ev.results))
            out.append(f'{{"type":"query","qid":{q(ev.query_id)},"session":{q(ev.session_id)},'
                       f'"t":{n(ev.timestamp)},"terms":[{terms}],"results":[{results}]}}\n')
        else:
            out.append(f'{{"type":"click","qid":{q(ev.query_id)},"doc":{q(ev.doc_id)},'
                       f'"rank":{n(ev.rank)},"t":{n(ev.timestamp)}}}\n')
    return "".join(out)


def group_sessions(log: SearchLog) -> dict[str, list[Event]]:
    """Partition events by session, preserving within-session stream order.

    Clicks belong to the session of the query they reference.
    """
    queries = log.queries()
    groups: dict[str, list[Event]] = {}
    for ev in log.events:
        session = ev.session_id if isinstance(ev, QueryEvent) else queries[ev.query_id].session_id
        groups.setdefault(session, []).append(ev)
    return groups
