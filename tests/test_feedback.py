import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank.chains import QueryChain, segment_log
from chainrank.corpus import base_retrieve, build_index
from chainrank.errors import DataError
from chainrank.feedback import (
    Preference,
    Strategy,
    prefs_cross_query,
    prefs_for_log,
    prefs_within_query,
    read_preferences,
    strategy_counts,
    write_preferences,
)
from chainrank.fixtures import make_fixture
from chainrank.logs import SearchLog
from chainrank.simulate import UserBehavior, simulate
from helpers import (ANY_TEXT, make_click, make_query, reference_prefs_for_log,
                     reference_write_preferences)


def pair_set(prefs, strategy=None):
    return {
        (p.preferred_doc, p.other_doc, p.wrt_query)
        for p in prefs
        if strategy is None or p.strategy is strategy
    }


def chain_of(queries_clicks, chain_id="c0"):
    queries = [q for q, _ in queries_clicks]
    clicks = [c for _, c in queries_clicks]
    return QueryChain(chain_id, queries[0].session_id, queries, clicks)


def test_click_rank1_only():
    q = make_query("q1", "s", 0, ["a"], ["d1", "d2", "d3"])
    prefs = prefs_within_query(q, [make_click(q, 1)])
    assert pair_set(prefs, Strategy.CLICK_SKIP_ABOVE) == set()
    assert pair_set(prefs, Strategy.CLICK_FIRST_NO_CLICK_SECOND) == {("d1", "d2", "q1")}


def test_click_rank3_only():
    q = make_query("q1", "s", 0, ["a"], ["d1", "d2", "d3"])
    prefs = prefs_within_query(q, [make_click(q, 3)])
    assert pair_set(prefs, Strategy.CLICK_SKIP_ABOVE) == {
        ("d3", "d1", "q1"), ("d3", "d2", "q1")
    }
    assert pair_set(prefs, Strategy.CLICK_FIRST_NO_CLICK_SECOND) == set()


def test_clicks_rank1_and_rank3():
    q = make_query("q1", "s", 0, ["a"], ["d1", "d2", "d3"])
    clicks = [make_click(q, 1), make_click(q, 3)]
    prefs = prefs_within_query(q, clicks)
    # brute force: for each clicked rank, unclicked docs above it
    clicked = {1, 3}
    expected = {
        (q.results[k - 1], q.results[j - 1], "q1")
        for k in clicked
        for j in range(1, k)
        if j not in clicked
    }
    assert expected == {("d3", "d2", "q1")}
    assert pair_set(prefs, Strategy.CLICK_SKIP_ABOVE) == expected


def test_no_clicks_no_prefs():
    q = make_query("q1", "s", 0, ["a"], ["d1", "d2"])
    assert prefs_within_query(q, []) == []


def test_cross_query_prev_unclicked():
    # earlier query had no clicks; later query clicked its rank 2
    e = make_query("qe", "s", 0, ["old"], ["e1", "e2", "e3"])
    q = make_query("qq", "s", 60, ["new"], ["d1", "d2", "d3"])
    chain = chain_of([(e, []), (q, [make_click(q, 2)])])
    prefs = prefs_cross_query(chain)
    assert pair_set(prefs, Strategy.CLICK_SKIP_ABOVE_PREV_QUERY) == {("d2", "d1", "qe")}
    assert pair_set(prefs, Strategy.CLICK_TOP_TWO_EARLIER_QUERY) == {
        ("d2", "e1", "qe"), ("d2", "e2", "qe")
    }
    assert pair_set(prefs, Strategy.CLICK_SKIP_EARLIER_QUERY) == set()
    assert pair_set(prefs, Strategy.CLICK_FIRST_NO_CLICK_SECOND_PREV_QUERY) == set()


def test_cross_query_prev_clicked():
    # earlier query clicked rank 1: viewed region is ranks 1..2, e2 unclicked
    e = make_query("qe", "s", 0, ["old"], ["e1", "e2", "e3"])
    q = make_query("qq", "s", 60, ["new"], ["dq1", "dq2", "dq3"])
    chain = chain_of([(e, [make_click(e, 1)]), (q, [make_click(q, 1)])])
    prefs = prefs_cross_query(chain)
    assert pair_set(prefs, Strategy.CLICK_SKIP_EARLIER_QUERY) == {("dq1", "e2", "qe")}
    assert pair_set(prefs, Strategy.CLICK_FIRST_NO_CLICK_SECOND_PREV_QUERY) == {
        ("dq1", "dq2", "qe")
    }
    assert pair_set(prefs, Strategy.CLICK_SKIP_ABOVE_PREV_QUERY) == set()


def test_s5_pads_when_last_click_is_last_result():
    e = make_query("qe", "s", 0, ["old"], ["e1", "e2"])
    q = make_query("qq", "s", 60, ["new"], ["d1"])
    chain = chain_of([(e, [make_click(e, 2)]), (q, [make_click(q, 1)])])
    prefs = prefs_cross_query(chain, padding_pool=["p1", "p2", "e1", "e2", "d1"],
                              rng=np.random.default_rng(0))
    s5 = [p for p in prefs if p.strategy is Strategy.CLICK_SKIP_EARLIER_QUERY]
    # e1 unclicked in region plus one padding doc for the missing rank 3
    others = {p.other_doc for p in s5}
    assert "e1" in others
    pads = others - {"e1"}
    assert len(s5) == 2 and len(pads) == 1
    assert pads <= {"p1", "p2"}  # never an existing result or the clicked doc


def test_s6_zero_result_earlier_query_pads_twice():
    e = make_query("qe", "s", 0, ["typo"], [])
    q = make_query("qq", "s", 60, ["fixed"], ["d1", "d2"])
    chain = chain_of([(e, []), (q, [make_click(q, 1)])])
    prefs = prefs_cross_query(chain, padding_pool=["p1", "p2", "p3", "d1"],
                              rng=np.random.default_rng(1))
    s6 = [p for p in prefs if p.strategy is Strategy.CLICK_TOP_TWO_EARLIER_QUERY]
    assert len(s6) == 2
    assert all(p.other_doc in {"p1", "p2", "p3"} for p in s6)
    assert all(p.wrt_query == "qe" for p in s6)


def test_s6_without_pool_emits_nothing_for_missing_slots():
    e = make_query("qe", "s", 0, ["typo"], [])
    q = make_query("qq", "s", 60, ["fixed"], ["d1"])
    chain = chain_of([(e, []), (q, [make_click(q, 1)])])
    assert prefs_cross_query(chain) == []


def test_s5_s6_reach_every_earlier_query():
    qs = [make_query(f"q{i}", "s", i * 60, [f"w{i}"], [f"d{i}a", f"d{i}b"])
          for i in range(3)]
    chain = chain_of([(qs[0], []), (qs[1], [make_click(qs[1], 1)]),
                      (qs[2], [make_click(qs[2], 1)])])
    prefs = prefs_cross_query(chain)
    wrt_s6 = {p.wrt_query for p in prefs if p.strategy is Strategy.CLICK_TOP_TWO_EARLIER_QUERY}
    wrt_s5 = {p.wrt_query for p in prefs if p.strategy is Strategy.CLICK_SKIP_EARLIER_QUERY}
    assert wrt_s6 == {"q0"}  # unclicked earlier query, seen from both q1 and q2
    assert wrt_s5 == {"q1"}  # clicked earlier query, seen from q2
    # S3/S4 only concern the immediate predecessor
    wrt_s4 = {p.wrt_query for p in prefs
              if p.strategy is Strategy.CLICK_FIRST_NO_CLICK_SECOND_PREV_QUERY}
    assert wrt_s4 == {"q0", "q1"}


def test_no_self_preference_when_doc_repeats_across_queries():
    e = make_query("qe", "s", 0, ["old"], ["shared", "e2"])
    q = make_query("qq", "s", 60, ["new"], ["shared", "d2"])
    chain = chain_of([(e, []), (q, [make_click(q, 1)])])
    prefs = prefs_cross_query(chain)
    assert all(p.preferred_doc != p.other_doc for p in prefs)
    # "shared" beats e2 but never itself
    assert pair_set(prefs, Strategy.CLICK_TOP_TWO_EARLIER_QUERY) == {("shared", "e2", "qe")}


@pytest.mark.parametrize("pool", [["d1", "d1", "d2", "d2"], ["p1", "d1", "p1", "d2", "p2", "p1"]])
def test_repeated_pool_ids_count_once(pool):
    # the pad for qe must avoid d2 (its result) and d1 (the clicked doc)
    e = make_query("qe", "s", 0, ["old"], ["d2"])
    q = make_query("qq", "s", 60, ["new"], ["d1"])
    log = SearchLog([e, q, make_click(q, 1, 61)])
    chains = segment_log(log)
    distinct = sorted(set(pool))
    assert prefs_for_log(log, chains, "qc", pool, 0) == prefs_for_log(log, chains, "qc", distinct, 0)
    assert (prefs_cross_query(chains[0], pool, np.random.default_rng(4))
            == prefs_cross_query(chains[0], distinct, np.random.default_rng(4)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefs_for_log_matches_eager_reference(seed):
    docs, intents = make_fixture(300, seed)
    corpus = build_index(docs)
    # three results per query: earlier queries often need pads for S5 and S6
    log, _ = simulate(corpus, lambda terms, k: base_retrieve(corpus, terms, k), intents,
                      UserBehavior(click_noise=0.2), n_sessions=60, seed=seed,
                      results_per_query=3, multi_intent_prob=0.5)
    chains = segment_log(log)
    pool = corpus.doc_ids()
    shown = {q.query_id: set(q.results) for q in log.queries().values()}
    qc = prefs_for_log(log, chains, "qc", pool, seed)
    assert qc == reference_prefs_for_log(log, chains, "qc", pool, seed)
    assert prefs_for_log(log, chains, "nc", pool, seed) == reference_prefs_for_log(
        log, chains, "nc", pool, seed)
    pads = [p for p in qc if p.other_doc not in shown[p.wrt_query]]
    assert len({p.chain_id for p in pads}) >= 5


def test_preference_rejects_self_pair():
    with pytest.raises(DataError):
        Preference("d", "d", "q", Strategy.CLICK_SKIP_ABOVE)


def test_preference_is_a_frozen_value():
    a = Preference("x", "y", "q1", Strategy.CLICK_SKIP_EARLIER_QUERY, "c3")
    same = Preference(preferred_doc="x", other_doc="y", wrt_query="q1",
                      strategy=Strategy.CLICK_SKIP_EARLIER_QUERY, chain_id="c3")
    assert a == same and hash(a) == hash(same)
    assert a != Preference("x", "y", "q1", Strategy.CLICK_SKIP_EARLIER_QUERY)
    assert Preference("x", "y", "q1", Strategy.CLICK_SKIP_ABOVE).chain_id == ""
    assert len({a, same, Preference("y", "x", "q1", Strategy.CLICK_SKIP_EARLIER_QUERY, "c3")}) == 2
    assert repr(a) == ("Preference(preferred_doc='x', other_doc='y', wrt_query='q1', "
                       "strategy=<Strategy.CLICK_SKIP_EARLIER_QUERY: 'S5'>, chain_id='c3')")
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.other_doc = "z"
    with pytest.raises(DataError, match="self-preference on d"):
        Preference("d", "d", "q", Strategy.CLICK_SKIP_ABOVE, "c")


def _three_chain_log():
    events = []
    # session A: misspelling-style chain (zero results then success)
    qa0 = make_query("a0", "sa", 0, ["typo"], [])
    qa1 = make_query("a1", "sa", 30, ["fixed"], ["a", "b", "c"])
    events += [qa0, qa1, make_click(qa1, 1, 31)]
    # session B: two-query chain, both clicked
    qb0 = make_query("b0", "sb", 0, ["one"], ["d", "e", "f"])
    qb1 = make_query("b1", "sb", 40, ["two"], ["g", "h"])
    events += [qb0, make_click(qb0, 2, 1), qb1, make_click(qb1, 1, 41)]
    # session C: single query, click at rank 3
    qc0 = make_query("c0", "sc", 0, ["solo"], ["i", "j", "k"])
    events += [qc0, make_click(qc0, 3, 2)]
    return SearchLog(events)


def test_per_strategy_counts_match_bruteforce_enumerator():
    log = _three_chain_log()
    chains = segment_log(log)
    pool = list("abcdefghijkpqrs")
    prefs = prefs_for_log(log, chains, "qc", padding_pool=pool, seed=3)
    counts = strategy_counts(prefs)

    # independent enumeration straight from the session structures:
    # chain A: q0 no results/no clicks, q1 click rank 1
    #   S1: 0; S2: 1 (a>b); S3: 0; S4: 1 (a>b wrt a0)
    #   S6: q0 unclicked with 0 results -> 2 padded prefs for the 1 click
    # chain B: q0 click rank 2, q1 click rank 1
    #   S1: q0 gives (e>d); S2: q1 gives (g>h); also q0: rank1 unclicked -> no S2
    #   S1 from q1: click rank 1 -> none.  So S1 = 1, S2 = 1
    #   S3: q1 click rank1, no skips -> 0; S4: 1 (g>h wrt b0)
    #   S5: q1's click vs q0 region ranks 1..3 minus clicked {e}: targets d,f -> 2
    # chain C: click rank 3: S1 = 2 (i over j? no: k over i,j) -> 2; S2: 0
    expected = {"S1": 1 + 2, "S2": 1 + 1, "S3": 0, "S4": 1 + 1, "S5": 2, "S6": 2}
    assert counts == expected


def test_nc_subset_of_qc_and_s1_s2_identical():
    log = _three_chain_log()
    chains = segment_log(log)
    pool = list("abcdefghijk")
    qc = prefs_for_log(log, chains, "qc", padding_pool=pool, seed=3)
    nc = prefs_for_log(log, chains, "nc", padding_pool=pool, seed=3)
    def multiset(prefs):
        from collections import Counter
        return Counter((p.preferred_doc, p.other_doc, p.wrt_query, p.strategy) for p in prefs)
    mq, mn = multiset(qc), multiset(nc)
    assert all(mq[k] >= v for k, v in mn.items())
    only_s12 = multiset([p for p in qc if p.strategy.value in ("S1", "S2")])
    assert only_s12 == mn


def test_mode_validation_and_empty_log():
    log = SearchLog([])
    assert prefs_for_log(log, [], "qc") == []
    for mode in ("bogus", "QC"):  # modes are exact names: no case folding
        with pytest.raises(DataError, match="mode must be one of"):
            prefs_for_log(log, [], mode)


def test_single_query_chains_make_qc_equal_nc():
    q = make_query("q0", "s", 0, ["a"], ["d1", "d2"])
    log = SearchLog([q, make_click(q, 2, 1)])
    chains = segment_log(log)
    assert prefs_for_log(log, chains, "qc", seed=1) == prefs_for_log(log, chains, "nc", seed=1)


def test_padding_deterministic_per_seed_and_canonical_order():
    log = _three_chain_log()
    chains = segment_log(log)
    pool = list("abcdefghijkpqrs")
    p1 = prefs_for_log(log, chains, "qc", padding_pool=pool, seed=9)
    p2 = prefs_for_log(log, chains, "qc", padding_pool=pool, seed=9)
    assert p1 == p2
    keys = [(p.chain_id, p.strategy.value) for p in p1]
    assert keys == sorted(keys)
    # padding draws move with the seed (individual seeds may collide by chance)
    variants = {
        write_preferences(prefs_for_log(log, chains, "qc", padding_pool=pool, seed=s))
        for s in range(9, 14)
    }
    assert len(variants) > 1


def test_preferences_jsonl_round_trip():
    log = _three_chain_log()
    chains = segment_log(log)
    prefs = prefs_for_log(log, chains, "qc", padding_pool=list("abcdefghijkpq"), seed=3)
    text = write_preferences(prefs)
    assert read_preferences(text) == prefs
    assert write_preferences(read_preferences(text)) == text


@settings(max_examples=300, deadline=None)
@given(prefs=st.lists(
    st.tuples(ANY_TEXT, ANY_TEXT, ANY_TEXT, st.sampled_from(list(Strategy)), ANY_TEXT)
    .filter(lambda f: f[0] != f[1]).map(lambda f: Preference(*f)),
    max_size=8,
))
def test_write_preferences_matches_json_dumps_and_round_trips(prefs):
    text = write_preferences(prefs)
    assert text == reference_write_preferences(prefs)
    assert read_preferences(text) == prefs
