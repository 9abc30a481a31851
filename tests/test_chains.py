import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank.chains import (
    FEATURE_NAMES,
    classify_pair,
    extract_pair_features,
    read_chains,
    segment_heuristic,
    segment_log,
    write_chains,
)
from chainrank.errors import DataError
from chainrank.logs import SearchLog
from chainrank.solver import BinaryModel, train_binary
from helpers import make_click, make_query


def queries_at(gaps, session="s1"):
    events = []
    t = 0
    for i, gap in enumerate([0] + list(gaps)):
        t += gap
        events.append(make_query(f"q{i}", session, t, [f"w{i}"], [f"d{i}"]))
    return events


def test_two_queries_within_half_hour_share_chain():
    chains = segment_heuristic(queries_at([600]), window_seconds=1800)
    assert len(chains) == 1
    assert chains[0].query_ids() == ["q0", "q1"]


def test_day_apart_queries_split():
    chains = segment_heuristic(queries_at([86400]), window_seconds=1800)
    assert [c.query_ids() for c in chains] == [["q0"], ["q1"]]


def test_single_query_chain():
    chains = segment_heuristic(queries_at([]), window_seconds=1800)
    assert len(chains) == 1 and chains[0].query_ids() == ["q0"]


def test_clicks_attached_to_their_query():
    q0 = make_query("q0", "s", 0, ["a"], ["d1", "d2"])
    q1 = make_query("q1", "s", 100, ["b"], ["d3"])
    c = make_click(q0, 2, 5)
    chains = segment_heuristic([q0, c, q1])
    assert chains[0].clicks[0] == [c]
    assert chains[0].clicks[1] == []


@settings(max_examples=200, deadline=None)
@given(gaps=st.lists(st.integers(1, 5000), max_size=8), window=st.integers(100, 3000))
def test_segmentation_partition_and_maximality(gaps, window):
    events = queries_at(gaps)
    chains = segment_heuristic(events, window_seconds=window)
    # partition: concatenating chains reproduces the session's query sequence
    flat = [qid for c in chains for qid in c.query_ids()]
    assert flat == [q.query_id for q in events]
    # within-chain gaps obey the window; boundary gaps exceed it (maximality)
    for c in chains:
        for a, b in zip(c.queries, c.queries[1:]):
            assert b.timestamp - a.timestamp <= window
    for c1, c2 in zip(chains, chains[1:]):
        assert c2.queries[0].timestamp - c1.queries[-1].timestamp > window


def test_invalid_window():
    with pytest.raises(DataError):
        segment_heuristic(queries_at([]), window_seconds=0)


def pair(terms1, terms2, t1=0, t2=3, docs1=("d1", "d2"), docs2=("d1", "d2"),
         abstracts1=None, abstracts2=None):
    q1 = make_query("q1", "s", t1, terms1, list(docs1), abstracts1)
    q2 = make_query("q2", "s", t2, terms2, list(docs2), abstracts2)
    return q1, q2


def test_identical_pair_features():
    f = extract_pair_features(*pair(["rare", "books"], ["rare", "books"]))
    assert f.cos_queries == 1.0
    assert f.cos_docids_top10 == 1.0
    assert f.cos_abstracts_top10 == 1.0
    assert (f.dt_le_5, f.dt_le_10, f.dt_le_30, f.dt_le_100) == (1, 1, 1, 1)
    assert f.dt_gt_100 == 0.0
    assert f.num_different_words == 0.0


def test_disjoint_pair_features():
    f = extract_pair_features(
        *pair(["rare", "books"], ["special", "collections"],
              docs1=("a", "b"), docs2=("c", "d"),
              abstracts1=["one", "two"], abstracts2=["three", "four"])
    )
    assert f.share_one_word == 0.0
    assert f.num_different_words == 4.0
    assert f.cos_queries == 0.0
    assert f.cos_docids_top10 == 0.0
    assert f.cos_abstracts_top10 == 0.0


def test_feature_vector_has_16_components():
    f = extract_pair_features(*pair(["a"], ["b"]))
    assert len(FEATURE_NAMES) == 16
    assert f.as_array().shape == (16,)


def test_time_bucket_edges():
    for dt, flags in ((5, (1, 1, 1, 1, 0)), (6, (0, 1, 1, 1, 0)),
                      (100, (0, 0, 0, 1, 0)), (101, (0, 0, 0, 0, 1))):
        f = extract_pair_features(*pair(["a"], ["a"], t1=0, t2=dt))
        assert (f.dt_le_5, f.dt_le_10, f.dt_le_30, f.dt_le_100, f.dt_gt_100) == flags


def test_shared_word_and_phrase_features():
    f = extract_pair_features(*pair(["rare", "books", "online"], ["rare", "books"]))
    assert f.share_one_word == 1.0
    assert f.share_two_words == 1.0
    assert f.share_phrase_two_words == 1.0  # "rare books" adjacent in both
    assert f.num_different_words == 1.0
    f2 = extract_pair_features(*pair(["books", "rare"], ["rare", "books"]))
    assert f2.share_phrase_two_words == 0.0  # no shared ordered bigram


def test_click_and_result_count_normalization():
    q1, q2 = pair(["a"], ["b"], docs1=tuple(f"x{i}" for i in range(20)), docs2=("y",))
    f = extract_pair_features(q1, q2, n_clicks_q1=25)
    assert f.norm_clicks_r1 == 1.0
    assert f.norm_min_results == 0.01
    assert f.norm_max_results == 0.2
    f0 = extract_pair_features(q1, q2)
    assert f0.norm_clicks_r1 == 0.0


def test_pair_order_validation():
    q1, q2 = pair(["a"], ["b"], t1=10, t2=0)
    with pytest.raises(DataError):
        extract_pair_features(q1, q2)


WORDS = ["red", "green", "blue", "cyan", "teal"]


@settings(max_examples=200, deadline=None)
@given(
    terms1=st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
    terms2=st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
    dt=st.integers(0, 300),
    n_clicks=st.integers(0, 15),
)
def test_feature_invariants_random_pairs(terms1, terms2, dt, n_clicks):
    q1, q2 = pair(terms1, terms2, t1=0, t2=dt)
    f = extract_pair_features(q1, q2, n_clicks_q1=n_clicks)
    for name in ("cos_queries", "cos_docids_top10", "cos_abstracts_top10",
                 "trigram_match", "norm_clicks_r1", "norm_min_results",
                 "norm_max_results"):
        assert 0.0 <= getattr(f, name) <= 1.0
    assert f.dt_le_5 <= f.dt_le_10 <= f.dt_le_30 <= f.dt_le_100
    assert f.dt_gt_100 == 1.0 - f.dt_le_100
    assert f.share_two_words <= f.share_one_word
    # symmetric features are insensitive to swapping the pair (same times)
    qa, qb = pair(terms1, terms2, t1=0, t2=0)
    fa = extract_pair_features(qa, qb)
    fb = extract_pair_features(qb, qa)
    for name in ("cos_queries", "cos_docids_top10", "cos_abstracts_top10",
                 "trigram_match", "share_one_word", "share_two_words",
                 "share_phrase_two_words", "num_different_words"):
        assert getattr(fa, name) == getattr(fb, name)


def test_classify_zero_model_negative():
    model = BinaryModel(weights=np.zeros(16), bias=0.0)
    f = extract_pair_features(*pair(["a"], ["a"]))
    assert classify_pair(f, model) is False


def test_classify_cosine_rule():
    w = np.zeros(16)
    w[FEATURE_NAMES.index("cos_queries")] = 1.0
    model = BinaryModel(weights=w, bias=-0.5)
    assert classify_pair(extract_pair_features(*pair(["a"], ["a"])), model) is True
    assert classify_pair(extract_pair_features(*pair(["a"], ["b"])), model) is False


def test_classify_dimension_mismatch():
    model = BinaryModel(weights=np.zeros(3), bias=0.0)
    with pytest.raises(DataError, match="dimension|features"):
        classify_pair(extract_pair_features(*pair(["a"], ["b"])), model)


def test_classifier_beats_always_positive_baseline():
    # simulator ground truth: sessions mixing two information needs within
    # the half-hour window, so "always same chain" is measurably wrong
    from chainrank.corpus import base_retrieve, build_index
    from chainrank.fixtures import make_fixture
    from chainrank.logs import group_sessions
    from chainrank.simulate import UserBehavior, simulate

    docs, intents = make_fixture(300, 13)
    corpus = build_index(docs)
    log, truth = simulate(
        corpus, lambda terms, k: base_retrieve(corpus, terms, k),
        intents, UserBehavior(click_noise=0.05), n_sessions=260, seed=5,
        multi_intent_prob=0.7, intent_gap=(60, 1200),
    )
    intent_of = {t.query_id: t.intent_id for t in truth}

    X, y = [], []
    for events in group_sessions(log).values():
        qs = [e for e in events if hasattr(e, "terms")]
        for a, b in zip(qs, qs[1:]):
            if b.timestamp - a.timestamp > 1800:
                continue
            clicks_a = sum(1 for e in events if getattr(e, "query_id", None) == a.query_id
                           and not hasattr(e, "terms"))
            X.append(extract_pair_features(a, b, n_clicks_q1=clicks_a).as_array())
            y.append(1.0 if intent_of[a.query_id] == intent_of[b.query_id] else -1.0)
    X, y = np.asarray(X), np.asarray(y)
    assert len(y) > 80 and 0.05 < np.mean(y == 1.0) < 0.95

    half = len(y) // 2
    model = train_binary(X[:half], y[:half], C=1.0, tolerance=1e-3, max_iters=40000)
    preds = np.array([classify_pair(x, model) for x in X[half:]])
    truth_bits = y[half:] == 1.0
    acc = np.mean(preds == truth_bits)
    baseline = np.mean(truth_bits)  # accuracy of predicting "same chain" always
    assert acc > baseline


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


def test_read_chains_round_trips_simulated_log_with_clicks():
    from chainrank.corpus import base_retrieve, build_index
    from chainrank.fixtures import make_fixture
    from chainrank.simulate import UserBehavior, simulate

    docs, intents = make_fixture(300, 3)
    corpus = build_index(docs)
    log, _ = simulate(
        corpus, lambda terms, k: base_retrieve(corpus, terms, k),
        intents, UserBehavior(click_noise=0.1), n_sessions=25, seed=4,
        multi_intent_prob=0.5, intent_gap=(60, 3600),
    )
    chains = segment_log(log)
    assert len({c.session_id for c in chains}) == 25 and len(chains) > 25
    assert sum(len(cs) for c in chains for cs in c.clicks) > 0
    back = read_chains(write_chains(chains), log)
    assert back == chains
    # every query gets its own clicks list, as from segmentation
    lists = [cs for c in back for cs in c.clicks]
    assert len({id(cs) for cs in lists}) == len(lists)
