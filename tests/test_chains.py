import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank.chains import read_chains, segment_log, write_chains
from chainrank.errors import DataError, LogParseError
from chainrank.logs import SearchLog
from helpers import make_click, make_query, reference_segment_log


def queries_at(gaps, session="s1"):
    events = []
    t = 0
    for i, gap in enumerate([0] + list(gaps)):
        t += gap
        events.append(make_query(f"q{i}", session, t, [f"w{i}"], [f"d{i}"]))
    return events


def test_two_queries_within_half_hour_share_chain():
    chains = segment_log(SearchLog(queries_at([600])), window_seconds=1800)
    assert len(chains) == 1
    assert chains[0].query_ids() == ["q0", "q1"]


def test_day_apart_queries_split():
    chains = segment_log(SearchLog(queries_at([86400])), window_seconds=1800)
    assert [c.query_ids() for c in chains] == [["q0"], ["q1"]]


def test_single_query_chain():
    chains = segment_log(SearchLog(queries_at([])), window_seconds=1800)
    assert len(chains) == 1 and chains[0].query_ids() == ["q0"]


def test_clicks_attached_to_their_query():
    q0 = make_query("q0", "s", 0, ["a"], ["d1", "d2"])
    q1 = make_query("q1", "s", 100, ["b"], ["d3"])
    c = make_click(q0, 2, 5)
    chains = segment_log(SearchLog([q0, c, q1]))
    assert chains[0].clicks[0] == [c]
    assert chains[0].clicks[1] == []


@settings(max_examples=200, deadline=None)
@given(gaps=st.lists(st.integers(1, 5000), max_size=8), window=st.integers(100, 3000))
def test_segmentation_partition_and_maximality(gaps, window):
    events = queries_at(gaps)
    chains = segment_log(SearchLog(events), window_seconds=window)
    # partition: concatenating chains reproduces the session's query sequence
    flat = [qid for c in chains for qid in c.query_ids()]
    assert flat == [q.query_id for q in events]
    # within-chain gaps obey the window; boundary gaps exceed it (maximality)
    for c in chains:
        for a, b in zip(c.queries, c.queries[1:]):
            assert b.timestamp - a.timestamp <= window
    for c1, c2 in zip(chains, chains[1:]):
        assert c2.queries[0].timestamp - c1.queries[-1].timestamp > window


@st.composite
def interleaved_sessions(draw):
    """1-4 sessions, each a query stream with clicks right after their query and
    gaps of 0-3600 s, and two interleavings of them that keep each session's order."""
    sids = draw(st.lists(st.sampled_from(["s10", "s2", "a", "s1", "z0"]), min_size=1,
                         max_size=4, unique=True))
    per_session = []
    for sid in sids:
        events, t = [], draw(st.integers(0, 10_000))
        for i in range(draw(st.integers(1, 5))):
            t += draw(st.integers(0, 3600)) if i else 0
            q = make_query(f"{sid}q{i}", sid, t, ["w"], [f"d{j}" for j in range(3)])
            events.append(q)
            for rank in draw(st.lists(st.integers(1, 3), max_size=3)):
                events.append(make_click(q, rank, t))
        per_session.append(events)

    def interleave():
        cursors, merged = [0] * len(per_session), []
        while live := [i for i, s in enumerate(per_session) if cursors[i] < len(s)]:
            i = draw(st.sampled_from(live))
            merged.append(per_session[i][cursors[i]])
            cursors[i] += 1
        return merged

    return interleave(), interleave()


@settings(max_examples=300, deadline=None)
@given(streams=interleaved_sessions(), window=st.integers(1, 3600))
def test_segment_log_matches_reference_and_ignores_session_interleaving(streams, window):
    one, other = (segment_log(SearchLog(events), window) for events in streams)
    assert [(c.chain_id, c.query_ids(), c.clicks) for c in one] == \
        reference_segment_log(SearchLog(streams[0]), window)
    assert one == other
    assert all(c.session_id == c.queries[0].session_id for c in one)


def test_invalid_window():
    with pytest.raises(DataError):
        segment_log(SearchLog(queries_at([])), window_seconds=0)


def test_chain_round_trip_jsonl():
    q0 = make_query("q0", "s", 0, ["a"], ["d1", "d2"])
    q1 = make_query("q1", "s", 60, ["b"], ["d3"])
    log = SearchLog([q0, make_click(q0, 1, 1), q1])
    chains = segment_log(log)
    text = write_chains(chains)
    back = read_chains(text, log)
    assert [c.chain_id for c in back] == [c.chain_id for c in chains]
    assert [c.query_ids() for c in back] == [c.query_ids() for c in chains]
    assert back[0].clicks[0][0].doc_id == "d1"
    with pytest.raises(DataError, match="unknown query"):
        read_chains(text.replace("q0", "zz"), log)


@pytest.mark.parametrize("second, message", [
    ('{"chain_id":"c0","session":"s1","qids":["q2"]}', "chain id 'c0' appears twice"),
    ('{"chain_id":"c1","session":"s1","qids":["q2","q1"]}', "query id 'q1' listed twice"),
    ('{"chain_id":"c1","session":"s1","qids":["q2","q2"]}', "query id 'q2' listed twice"),
    ('{"chain_id":"c1","session":"s2","qids":["q2"]}', "query 'q2' is not in session 's2'"),
], ids=["chain-id-twice", "qid-in-two-chains", "qid-twice-in-one-chain", "other-session"])
def test_read_chains_refuses_overlapping_chains_naming_the_line(second, message):
    log = SearchLog(queries_at([10, 10]))  # q0, q1 and q2, all in session s1
    text = '{"chain_id":"c0","session":"s1","qids":["q0","q1"]}\n' + second + "\n"
    with pytest.raises(LogParseError, match=f"^line 2: {message}$") as err:
        read_chains(text, log)
    assert err.value.line_no == 2


def test_read_chains_round_trips_simulated_log_with_clicks():
    from chainrank.corpus import base_retrieve, build_index
    from chainrank.fixtures import make_fixture
    from chainrank.simulate import UserBehavior, simulate

    docs, intents = make_fixture(300, 3)
    corpus = build_index(docs)
    log, _ = simulate(
        corpus, lambda terms, k: base_retrieve(corpus, terms, k),
        intents, UserBehavior(click_noise=0.1), n_sessions=25, seed=4,
        multi_intent_prob=0.5,
    )
    chains = segment_log(log)
    assert len({c.session_id for c in chains}) == 25 and len(chains) > 25
    assert sum(len(cs) for c in chains for cs in c.clicks) > 0
    back = read_chains(write_chains(chains), log)
    assert back == chains
    # every query gets its own clicks list, as from segmentation
    lists = [cs for c in back for cs in c.clicks]
    assert len({id(cs) for cs in lists}) == len(lists)
