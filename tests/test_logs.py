import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank.chains import read_chains, segment_log, write_chains
from chainrank.errors import DataError, LogParseError, json_lines
from chainrank.logs import (
    ClickEvent,
    QueryEvent,
    SearchLog,
    group_sessions,
    parse_log,
    write_log,
)
from helpers import (ANY_TEXT, make_click, make_query, reference_json_lines,
                     reference_write_chains, reference_write_log)

@st.composite
def search_logs(draw):
    """A valid log: each query followed by clicks on its own results, time never decreasing."""
    sessions = draw(st.lists(ANY_TEXT, min_size=1, max_size=3))
    events, t = [], draw(st.integers(0, 2**40))
    for i in range(draw(st.integers(0, 6))):
        results = draw(st.lists(ANY_TEXT, max_size=4, unique=True))
        q = QueryEvent(draw(ANY_TEXT) + f"#{i}", draw(st.sampled_from(sessions)), t,
                       draw(st.lists(ANY_TEXT, max_size=3)), results)
        events.append(q)
        for rank in draw(st.lists(st.integers(1, len(results)), max_size=3)) if results else []:
            t += draw(st.integers(0, 2**33))
            events.append(ClickEvent(q.query_id, results[rank - 1], rank, t))
        t += draw(st.integers(0, 2**33))
    return SearchLog(events)


def test_empty_stream():
    assert parse_log("").events == []
    assert write_log(SearchLog([])) == ""


def test_query_plus_click():
    q = make_query("q1", "s1", 10, ["rare", "books"], ["d1", "d2"])
    log = SearchLog([q, make_click(q, 2, 12)])
    text = write_log(log)
    parsed = parse_log(text)
    assert len(parsed) == 2
    click = parsed.events[1]
    assert isinstance(click, ClickEvent)
    assert (click.doc_id, click.rank) == ("d2", 2)


def test_canonical_field_order_and_bytes():
    q = make_query("q1", "s1", 10, ["a"], ["d1", "d2"])
    log = SearchLog([q, make_click(q, 1, 11)])
    text = write_log(log)
    assert text.splitlines()[0] == (
        '{"type":"query","qid":"q1","session":"s1","t":10,"terms":["a"],'
        '"results":["d1","d2"]}'
    )
    assert text.splitlines()[1] == '{"type":"click","qid":"q1","doc":"d1","rank":1,"t":11}'
    assert write_log(log) == text  # byte-identical across calls


def test_results_are_doc_ids_as_json_writes_them():
    docs = ['d"1', "dé", "a\u2028b", "😀"]
    q = make_query('q"1', "sé", 3, ["naïve"], docs)
    log = SearchLog([q, make_click(q, 3, 4)])
    text = write_log(log)
    assert text == reference_write_log(log)
    assert text.split("\n")[0] == (
        '{"type":"query","qid":"q\\"1","session":"sé","t":3,"terms":["naïve"],'
        '"results":["d\\"1","dé","a\u2028b","😀"]}'
    )
    assert parse_log(text) == log


def test_version_1_results_rejected_naming_the_line():
    v1 = ('{"type":"query","qid":"q1","session":"s1","t":0,"terms":["a"],'
          '"results":[{"doc":"d1","abstract":"about d1"}]}\n')
    with pytest.raises(LogParseError, match="line 1: bad record: TypeError expected a string"):
        parse_log(v1)


def _fixture_log(n_queries=25):
    events = []
    for i in range(n_queries):
        session = f"s{i % 3}"
        q = make_query(f"q{i}", session, 100 * i + (i % 3), ["term", f"t{i}"],
                       [f"d{i}a", f"d{i}b", f"d{i}c"])
        events.append(q)
        events.append(make_click(q, 1 + i % 3, q.timestamp + 1))
    return SearchLog(events)


def test_round_trip_50_records():
    log = _fixture_log()
    assert len(log) == 50
    text = write_log(log)
    assert parse_log(text) == log
    assert write_log(parse_log(text)) == text


def test_write_parse_canonicalizes_whitespace():
    q = make_query("q1", "s1", 10, ["a"], ["d1"])
    messy = '{"type": "query", "results": [ "d1" ], ' \
            '"qid": "q1", "session": "s1", "t": 10, "terms": ["a"]}\n'
    canon = write_log(parse_log(messy))
    assert canon == write_log(SearchLog([q]))
    assert write_log(parse_log(canon)) == canon  # idempotent on second pass


def test_malformed_json_reports_line():
    q = make_query("q1", "s1", 10, ["a"], ["d1"])
    text = write_log(SearchLog([q])) + "{not json\n"
    with pytest.raises(LogParseError, match="line 2"):
        parse_log(text)


# JSON whitespace, whitespace only to str.isspace, and neither
PADDING = ["", " ", "\t", "\r", " \r", "\x0b", "\x0c", "\x85", "\u2028", "\u3000", "\ufeff", "x"]
BODIES = ['{"a":1}', '{"a":[1,{"b":null}],"c":"\u2028"}', '{"a":NaN}', '{"a":-Infinity}', "[1]",
          "3", '"s"', '{"a":1}{"b":2}', '{"a":1} 2', '{"a":', "{", "", "nul", '{"a":1,}', "{}"]


def _json_lines_or_error(text):
    try:
        return json_lines(text, lambda rec: rec)
    except LogParseError as exc:
        return exc.line_no, str(exc)


def test_json_lines_agrees_with_decoding_each_whole_line():
    for pre, body, post in itertools.product(PADDING, BODIES, PADDING):
        text = '{"first":0}\n' + pre + body + post + '\n{"last":2}\n'
        assert _json_lines_or_error(text) == reference_json_lines(text), repr(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PADDING), st.sampled_from(BODIES) | ANY_TEXT,
                          st.sampled_from(PADDING)), max_size=4))
def test_json_lines_agrees_with_decoding_any_lines(lines):
    text = "\n".join(pre + body + post for pre, body, post in lines)
    assert _json_lines_or_error(text) == reference_json_lines(text)


def test_click_unknown_query_is_structural_error():
    with pytest.raises(DataError, match="unknown query_id"):
        parse_log('{"type":"click","qid":"nope","doc":"d","rank":1,"t":0}\n')


def test_click_rank_inconsistent():
    q = make_query("q1", "s1", 10, ["a"], ["d1", "d2"])
    text = write_log(SearchLog([q]))
    text += '{"type":"click","qid":"q1","doc":"d1","rank":2,"t":11}\n'
    with pytest.raises(DataError, match="rank 2"):
        parse_log(text)


def test_repeated_query_id_rejected_naming_the_line():
    q1 = make_query("q1", "s1", 10, ["a"], ["d1"])
    q2 = make_query("q1", "s2", 20, ["b"], ["d2"])
    with pytest.raises(LogParseError, match="^line 2: query id 'q1' repeats"):
        parse_log(write_log(SearchLog([q1, q2])))


def test_decreasing_timestamps_rejected():
    q1 = make_query("q1", "s1", 100, ["a"], ["d1"])
    q2 = make_query("q2", "s1", 50, ["b"], ["d2"])
    with pytest.raises(DataError, match="decrease"):
        parse_log(write_log(SearchLog([q1, q2])))


LOG_TEXT = ('{"type":"query","qid":"q1","session":"s1","t":10,"terms":["a"],"results":["d1","d2"]}\n'
            '{"type":"click","qid":"q1","doc":"d1","rank":1,"t":11}\n')


@pytest.mark.parametrize("line, field, spelling", [
    (1, "t", "1.9"), (1, "t", '"5"'), (1, "t", "true"), (1, "t", "1e3"), (1, "t", "10.0"),
    (2, "t", "11.5"), (2, "t", '"11"'), (2, "t", "true"),
    (2, "rank", "1.0"), (2, "rank", '"1"'), (2, "rank", "true"), (2, "rank", "1e0"),
])
def test_non_integer_time_or_rank_rejected_naming_the_line(line, field, spelling):
    # int() would read 1.9 as 1, "5" as 5, true as 1 and 1e3 as 1000, and the
    # parsed log would write back as other text
    assert write_log(parse_log(LOG_TEXT)) == LOG_TEXT
    lines = LOG_TEXT.splitlines(keepends=True)
    lines[line - 1] = re.sub(f'"{field}":[0-9]+', f'"{field}":{spelling}', lines[line - 1])
    with pytest.raises(LogParseError,
                       match=f"^line {line}: bad record: TypeError expected an integer, got"):
        parse_log("".join(lines))


def test_unknown_record_type():
    with pytest.raises(LogParseError, match="unknown record type"):
        parse_log('{"type":"visit","qid":"q"}\n')


def test_too_many_results_rejected():
    docs = [f"d{i}" for i in range(101)]
    with pytest.raises(DataError, match="more than 100"):
        make_query("q", "s", 0, ["a"], docs)


def test_group_sessions_single():
    log = SearchLog([make_query("q1", "s1", 0, ["a"], ["d1"])])
    groups = group_sessions(log)
    assert list(groups) == ["s1"]
    assert groups["s1"] == log.events


def test_group_sessions_interleaved_partition():
    qa = make_query("qa", "sa", 0, ["a"], ["d1"])
    qb = make_query("qb", "sb", 1, ["b"], ["d2"])
    ca = make_click(qa, 1, 2)
    cb = make_click(qb, 1, 3)
    log = SearchLog([qa, qb, ca, cb])
    groups = group_sessions(log)
    # brute-force partition: every event in exactly one group
    assert sorted(groups) == ["sa", "sb"]
    assert groups["sa"] == [qa, ca]
    assert groups["sb"] == [qb, cb]
    total = sum(len(v) for v in groups.values())
    assert total == len(log)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_group_sessions_stable_under_session_preserving_shuffle(data):
    # build two sessions then interleave them in a random order
    per_session = {}
    for sid in ("s0", "s1"):
        events = []
        t = 0
        for i in range(data.draw(st.integers(1, 4), label=f"n_{sid}")):
            q = make_query(f"{sid}q{i}", sid, t, ["w"], [f"{sid}d{i}"])
            events.append(q)
            if data.draw(st.booleans(), label=f"click_{sid}_{i}"):
                events.append(make_click(q, 1, t + 1))
            t += 10
        per_session[sid] = events
    merged = []
    cursors = {sid: 0 for sid in per_session}
    while any(cursors[s] < len(per_session[s]) for s in per_session):
        live = [s for s in per_session if cursors[s] < len(per_session[s])]
        sid = data.draw(st.sampled_from(live), label="pick")
        merged.append(per_session[sid][cursors[sid]])
        cursors[sid] += 1
    groups = group_sessions(SearchLog(merged))
    for sid, events in per_session.items():
        assert groups[sid] == events


@settings(max_examples=300, deadline=None)
@given(log=search_logs())
def test_writers_match_json_dumps_and_round_trip(log):
    text = write_log(log)
    assert text == reference_write_log(log)
    assert parse_log(text) == log
    chains = segment_log(log)
    chains_text = write_chains(chains)
    assert chains_text == reference_write_chains(chains)
    assert read_chains(chains_text, log) == chains
