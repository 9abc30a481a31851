import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainrank.simulate
from chainrank.chains import segment_log
from chainrank.corpus import RankedList, RankEntry, base_retrieve, build_index
from chainrank.errors import DataError
from chainrank.feedback import prefs_for_log
from chainrank.fixtures import make_fixture
from chainrank.logs import ClickEvent, QueryEvent, group_sessions, parse_log, write_log
from chainrank.pipeline import base_ranker
from chainrank.randomness import SharedUniforms
from chainrank.simulate import (
    Intent,
    TruthRecord,
    UserBehavior,
    interleaved_eval,
    interleaved_evals,
    read_intents,
    read_truth,
    scan_and_click,
    simulate,
    strategy_accuracy,
    write_intents,
    write_truth,
)
from helpers import ANY_TEXT, interleaved_eval_per_query, reference_write_truth, simulate_reference


@pytest.fixture(scope="module")
def small_world():
    docs, intents = make_fixture(300, 13)
    corpus = build_index(docs)
    ranker = lambda terms, k: base_retrieve(corpus, terms, k)
    return corpus, ranker, intents


def run_sim(small_world, n_sessions, seed, noise=0.0, **kw):
    corpus, ranker, intents = small_world
    return simulate(corpus, ranker, intents,
                    UserBehavior(click_noise=noise), n_sessions, seed, **kw)


def test_zero_sessions_empty(small_world):
    log, truth = run_sim(small_world, 0, 1)
    assert log.events == [] and truth == []


def test_same_seed_byte_identical(small_world):
    log1, t1 = run_sim(small_world, 12, 7, noise=0.2)
    log2, t2 = run_sim(small_world, 12, 7, noise=0.2)
    assert write_log(log1) == write_log(log2)
    assert write_truth(t1) == write_truth(t2)
    log3, _ = run_sim(small_world, 12, 8, noise=0.2)
    assert write_log(log1) != write_log(log3)


def test_log_is_valid_and_round_trips(small_world):
    log, _ = run_sim(small_world, 20, 3, noise=0.1)
    text = write_log(log)
    assert parse_log(text) == log  # parse validates all invariants


def test_sessions_are_a_day_apart_and_gaps_bounded(small_world):
    log, _ = run_sim(small_world, 6, 2)
    sessions = group_sessions(log)
    starts = {sid: events[0].timestamp for sid, events in sessions.items()}
    ordered = [starts[s] for s in sorted(starts)]
    assert all(b - a >= 86400 for a, b in zip(ordered, ordered[1:]))
    for events in sessions.values():
        queries = [e for e in events if isinstance(e, QueryEvent)]
        for a, b in zip(queries, queries[1:]):
            assert b.timestamp - a.timestamp <= 1800


def test_scan_never_clicks_unviewed():
    rng = np.random.default_rng(0)
    # persistence 0: ranks 1 and 2 are viewed, and rank 2 is not clicked, so
    # nothing forces rank 3 into view; the relevant ranks 3 and 4 go unclicked
    behavior = UserBehavior(scan_persistence=0.0)
    assert scan_and_click([1.0, 0.0, 1.0, 1.0], behavior, rng) == [0]


def test_one_below_click_extends_scan():
    rng = np.random.default_rng(0)
    behavior = UserBehavior(scan_persistence=0.0)
    # cascade: each click forces one more viewed rank
    clicks = scan_and_click([1.0, 1.0, 1.0, 0.0, 1.0], behavior, rng)
    assert clicks == [0, 1, 2]  # rank 4 viewed but irrelevant; rank 5 never viewed


def test_scan_views_are_prefix():
    rng = np.random.default_rng(5)
    behavior = UserBehavior(scan_persistence=0.6)
    for _ in range(200):
        clicks = scan_and_click([1.0] * 10, behavior, rng)
        # noiseless all-relevant list: every viewed rank is clicked, so the
        # clicked set must be a prefix of the ranks
        assert clicks == list(range(len(clicks)))


def test_noiseless_strategy_accuracy_is_one(small_world):
    corpus, ranker, intents = small_world
    log, truth = run_sim(small_world, 120, 11, noise=0.0)
    chains = segment_log(log)
    prefs = prefs_for_log(log, chains, "qc", corpus.doc_ids(), seed=1)
    accs = strategy_accuracy(prefs, truth)
    assert set(accs)  # at least one strategy emitted
    for s, acc in accs.items():
        if acc.strict_pairs:
            assert acc.accuracy == 1.0, s


def test_pure_noise_accuracy_near_half():
    # pure noise makes every viewed doc equally clickable and every page
    # read a coin flip; with relevance randomized per session no strategy
    # can beat chance
    from helpers import make_mixed_world

    docs, intents = make_mixed_world(n_intents=800, seed=0)
    corpus = build_index(docs)
    ranker = lambda terms, k: base_retrieve(corpus, terms, k)
    log, truth = simulate(corpus, ranker, intents, UserBehavior(click_noise=0.5),
                          800, 17)
    chains = segment_log(log)
    prefs = prefs_for_log(log, chains, "qc", corpus.doc_ids(), seed=1)
    accs = strategy_accuracy(prefs, truth)
    checked = 0
    for s, acc in accs.items():
        if acc.strict_pairs >= 60:
            sigma = (0.25 / acc.strict_pairs) ** 0.5
            assert abs(acc.accuracy - 0.5) < 3.75 * sigma, (s, acc.accuracy, acc.strict_pairs)
            checked += 1
    assert checked >= 3  # the CI check must actually bite on several strategies


def test_accuracy_monotone_in_noise_on_average(small_world):
    corpus, ranker, intents = small_world
    means = []
    for eps in (0.0, 0.15, 0.5):
        vals = []
        for seed in (1, 2, 3):
            log, truth = run_sim(small_world, 120, seed, noise=eps)
            chains = segment_log(log)
            prefs = prefs_for_log(log, chains, "qc", corpus.doc_ids(), seed=1)
            accs = strategy_accuracy(prefs, truth)
            pairs = sum(a.strict_pairs for a in accs.values())
            agree = sum(a.agreements for a in accs.values())
            vals.append(agree / pairs)
        means.append(np.mean(vals))
    assert means[0] >= means[1] >= means[2] - 1e-9


def test_strategy_accuracy_no_data():
    assert strategy_accuracy([], {}) == {}
    from chainrank.simulate import StrategyAccuracy
    assert StrategyAccuracy().accuracy is None


def test_strategy_accuracy_unknown_query():
    from chainrank.feedback import Preference, Strategy
    pref = Preference("a", "b", "missing", Strategy.CLICK_SKIP_ABOVE)
    with pytest.raises(DataError, match="missing"):
        strategy_accuracy([pref], {})


def test_chain_truth_alignment(small_world):
    # heuristic segmentation on simulator output: recall 1.0, precision high
    corpus, ranker, intents = small_world
    log, truth = run_sim(small_world, 150, 23, noise=0.1, multi_intent_prob=0.4)
    intent_of = {t.query_id: t.intent_id for t in truth}
    chains = segment_log(log, 1800)
    chain_of = {qid: c.chain_id for c in chains for qid in c.query_ids()}

    tp = fp = fn = 0
    for events in group_sessions(log).values():
        qids = [e.query_id for e in events if isinstance(e, QueryEvent)]
        for i in range(len(qids)):
            for j in range(i + 1, len(qids)):
                same_truth = intent_of[qids[i]] == intent_of[qids[j]]
                same_pred = chain_of[qids[i]] == chain_of[qids[j]]
                tp += same_truth and same_pred
                fp += same_pred and not same_truth
                fn += same_truth and not same_pred
    assert fn == 0  # recall 1.0: within-chain gaps never exceed the window
    assert tp > 0
    assert tp / (tp + fp) >= 0.9


def test_interleaved_eval_self_comparison_all_ties(small_world):
    corpus, ranker, intents = small_world
    res = interleaved_eval(ranker, ranker, intents, UserBehavior(click_noise=0.1),
                           n_sessions=40, seed=3)
    assert res.wins_a == res.wins_b == 0
    assert res.ties == res.impressions > 0


def _listing(docs):
    return RankedList([RankEntry(d, 0.0) for d in docs])


def _memoized(ranker):
    cache = {}

    def rank(terms, k):
        key = (tuple(terms), k)
        if key not in cache:
            cache[key] = ranker(terms, k)
        return cache[key]

    return rank


def _sometimes_reversed(ranker):
    """A ranker whose list for the same terms changes from call to call.

    A seeded coin decides each reversal; a fixed period could line up with
    the sessions' query cycle and reverse the same terms every time.
    """
    coin = random.Random(0)

    def rank(terms, k):
        docs = ranker(terms, k).doc_ids()
        return _listing(docs[::-1] if coin.random() < 0.5 else docs)

    return rank


@pytest.mark.parametrize("kind", ["memoizing", "fresh", "changing"])
def test_interleaved_eval_matches_per_query_reference(small_world, kind):
    corpus, fresh, intents = small_world
    reversed_base = lambda terms, k: _listing(fresh(terms, k).doc_ids()[::-1])

    def make():
        if kind == "memoizing":
            return base_ranker(corpus), _memoized(reversed_base)
        if kind == "fresh":
            return fresh, reversed_base
        return _sometimes_reversed(fresh), reversed_base

    behavior = UserBehavior(click_noise=0.1)
    got = interleaved_eval(*make(), intents, behavior, n_sessions=60, seed=9)
    want = interleaved_eval_per_query(*make(), intents, behavior, n_sessions=60, seed=9)
    assert got == want
    assert got.wins_a > 0 and got.wins_b > 0


def test_interleaved_eval_grades_each_intent_apart(small_world):
    # two intents share a query script but not their relevant docs: the memo
    # shares their interleavings, and each must still be judged by its own grades
    corpus, fresh, intents = small_world
    script = intents[0].query_script
    shown = [fresh(list(terms), 10).doc_ids() for terms in script]
    twins = [Intent("top", {d: 1.0 for docs in shown for d in docs[:3]}, script),
             Intent("bottom", {d: 1.0 for docs in shown for d in docs[-3:]}, script)]
    reversed_base = lambda terms, k: _listing(fresh(terms, k).doc_ids()[::-1])
    behavior = UserBehavior(click_noise=0.05)
    got = interleaved_eval(fresh, reversed_base, twins, behavior, n_sessions=40, seed=4)
    assert got == interleaved_eval_per_query(fresh, reversed_base, twins, behavior,
                                             n_sessions=40, seed=4)
    assert got.wins_a > 0 and got.wins_b > 0


def _eval_world(small_world, world):
    """(intents, behavior) of one evaluation world."""
    _, fresh, intents = small_world
    if world == "fixture":
        return intents, UserBehavior(click_noise=0.1)
    script = intents[0].query_script
    if world == "twins":  # two intents share a script but not their relevant docs
        shown = [fresh(list(terms), 10).doc_ids() for terms in script]
        return ([Intent("top", {d: 1.0 for docs in shown for d in docs[:3]}, script),
                 Intent("bottom", {d: 1.0 for docs in shown for d in docs[-3:]}, script)],
                UserBehavior(click_noise=0.05))
    # "long": every result viewed, every click and page read a coin flip, and
    # scripts of eight queries, so sessions read past one block of draws
    return ([Intent(it.intent_id, it.relevant_docs, (it.query_script * 8)[:8]) for it in intents],
            UserBehavior(scan_persistence=1.0, click_noise=0.5))


@pytest.mark.parametrize("world", ["fixture", "twins", "long"])
@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_one_pass_equals_separate_evaluations(small_world, monkeypatch, world, n_pairs):
    corpus, fresh, _ = small_world
    intents, behavior = _eval_world(small_world, world)
    reversed_base = lambda terms, k: _listing(fresh(terms, k).doc_ids()[::-1])
    shared = base_ranker(corpus)  # in the first two pairs of the one pass
    makers = [lambda: (shared, reversed_base),
              lambda: (_sometimes_reversed(fresh), shared),
              lambda: (fresh, _memoized(reversed_base))][:n_pairs]

    most = [0]  # the most draws any comparison read in one session

    class CountingUniforms(SharedUniforms):
        def random(self):
            most[0] = max(most[0], self._next + 1)
            return super().random()

    monkeypatch.setattr(chainrank.simulate, "SharedUniforms", CountingUniforms)
    got = interleaved_evals([make() for make in makers], intents, behavior, n_sessions=50, seed=12)
    want = [interleaved_eval_per_query(*make(), intents, behavior, n_sessions=50, seed=12)
            for make in makers]
    assert got == want
    assert all(res.wins_a > 0 and res.wins_b > 0 for res in got)
    if world == "long":
        assert most[0] > SharedUniforms.SIZE


@pytest.mark.parametrize("reformulate_prob", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("multi_intent_prob", [0.0, 0.5])
def test_simulate_matches_reference(small_world, reformulate_prob, multi_intent_prob):
    corpus, ranker, intents = small_world
    behavior = UserBehavior(click_noise=0.1, reformulate_prob=reformulate_prob)
    got = simulate(corpus, ranker, intents, behavior, 60, 5, multi_intent_prob=multi_intent_prob)
    want = simulate_reference(ranker, intents, behavior, 60, 5,
                              multi_intent_prob=multi_intent_prob)
    assert write_log(got[0]) == write_log(want[0])
    assert write_truth(got[1]) == write_truth(want[1])


def test_evaluation_users_abandon(small_world):
    # with reformulate_prob 0 an unsatisfied user leaves after the first query
    corpus, ranker, intents = small_world
    reversed_base = lambda terms, k: _listing(ranker(terms, k).doc_ids()[::-1])
    behavior = UserBehavior(click_noise=0.1, reformulate_prob=0.0)
    assert max(len(it.query_script) for it in intents) > 1
    res = interleaved_eval(ranker, reversed_base, intents, behavior, n_sessions=50, seed=2)
    assert res.impressions == 50


def test_interleaved_eval_needs_an_intent(small_world):
    _, ranker, _ = small_world
    with pytest.raises(DataError, match="at least one intent"):
        interleaved_eval(ranker, ranker, [], UserBehavior(), n_sessions=1, seed=0)
    assert interleaved_eval(ranker, ranker, [], UserBehavior(), n_sessions=0, seed=0).impressions == 0


def test_interleaved_eval_refuses_negative_sessions(small_world):
    _, ranker, intents = small_world
    for its in (intents, []):  # the sign is checked before the intents
        with pytest.raises(DataError, match="n_sessions must be non-negative"):
            interleaved_eval(ranker, ranker, its, UserBehavior(), n_sessions=-5, seed=0)


def test_intent_and_truth_serialization(small_world):
    _, _, intents = small_world
    text = write_intents(intents)
    back = read_intents(text)
    assert back == list(intents)
    assert write_intents(back) == text

    log, truth = run_sim(small_world, 3, 1)
    ttext = write_truth(truth)
    tback = read_truth(ttext)
    assert [(r.query_id, r.intent_id, r.relevance) for r in tback] == \
        [(r.query_id, r.intent_id, r.relevance) for r in truth]
    assert ttext == reference_write_truth(truth)
    assert write_truth(tback) == ttext


def test_write_truth_keeps_each_grade_spelling():
    """Equal maps whose grades differ in type or sign are encoded apart."""
    shared = {"dé": 1, "a\u2028b": 0.5, 'q"': 0}
    records = [
        TruthRecord("q1", "intent-ü", shared),
        TruthRecord("q2", "intent-ü", {"dé": 1.0, "a\u2028b": 0.5, 'q"': 0.0}),
        TruthRecord("q3", "intent-ü", shared),
        TruthRecord("😀", "z", {"x": -0.0, "y": True}),
        TruthRecord("q5", "z", {"x": 0.0, "y": 1}),
    ]
    text = write_truth(records)
    assert text == reference_write_truth(records)
    assert text.split("\n")[:2] == [
        '{"qid":"q1","intent":"intent-ü","relevance":{"a\u2028b":0.5,"dé":1,"q\\"":0}}',
        '{"qid":"q2","intent":"intent-ü","relevance":{"a\u2028b":0.5,"dé":1.0,"q\\"":0.0}}',
    ]


GRADES = st.one_of(st.sampled_from([0, 1, 0.0, 1.0, -0.0, True, False]), st.floats(0, 1))


@settings(max_examples=300, deadline=None)
@given(maps=st.lists(st.dictionaries(ANY_TEXT, GRADES, max_size=4), min_size=1, max_size=3),
       picks=st.lists(st.tuples(ANY_TEXT, ANY_TEXT, st.integers(0, 2)), max_size=8))
def test_write_truth_matches_json_dumps(maps, picks):
    # records share a map object when they pick the same index
    records = [TruthRecord(qid, intent, maps[i % len(maps)]) for qid, intent, i in picks]
    assert write_truth(records) == reference_write_truth(records)


def test_behavior_validation():
    with pytest.raises(DataError):
        UserBehavior(click_noise=1.5)


def test_intent_validation():
    with pytest.raises(DataError):
        Intent("bad", {"d": 2.0}, (("q",),))
    with pytest.raises(DataError):
        Intent("bad", {}, ())


@pytest.mark.parametrize("edit, message", [
    (lambda its: its[0].update(relevant_docs={"d1": True}),
     "malformed intent 'i0': TypeError expected a finite number, got True"),
    (lambda its: its[0].update(relevant_docs=[["d1", 1.0]]),
     "malformed intent 'i0': TypeError expected a JSON object of grades"),
    (lambda its: its[1].update(intent_id="i0"), "intent 'i0' is listed twice"),
    (lambda its: its[1].update(query_script=[["ok"], ["Spectrograf"]]),
     "intent 'i1': script term 'Spectrograf' is not one index token"),
    (lambda its: its[1].update(query_script=[["two words"]]),
     "intent 'i1': script term 'two words' is not one index token"),
    (lambda its: its[1].update(query_script=[[""]]),
     "intent 'i1': script term '' is not one index token"),
    (lambda its: its[1].update(query_script=[["b"], []]),
     "intent 'i1': a script query has no terms"),
], ids=["grade-bool", "docs-list", "duplicate-id", "capitalised-term", "two-word-term",
        "empty-term", "empty-query"])
def test_read_intents_refuses_what_the_simulator_cannot_use(edit, message):
    intents = [Intent("i0", {"d1": 1.0}, (("a1",),)), Intent("i1", {"d2": 0.5}, (("b", "c"),))]
    assert read_intents(write_intents(intents)) == intents
    payload = json.loads(write_intents(intents))
    edit(payload["intents"])
    with pytest.raises(DataError, match=re.escape(message)):
        read_intents(json.dumps(payload))


@pytest.mark.parametrize("relevance", ['{"d1":true}', '[["d1",1.0]]', '{"d1":"1"}'])
def test_read_truth_refuses_grades_that_are_not_numbers(relevance):
    assert read_truth('{"qid":"q","intent":"i","relevance":{"d1":1.0}}\n')[0].relevance == \
        {"d1": 1.0}
    with pytest.raises(DataError, match="^line 1: bad record: TypeError expected a"):
        read_truth(f'{{"qid":"q","intent":"i","relevance":{relevance}}}\n')
