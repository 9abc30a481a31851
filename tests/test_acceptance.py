"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The experiment-scale criteria share one full run (module fixture).
"""

import time
import warnings
from collections import Counter

import numpy as np
import pytest

from chainrank.chains import segment_log
from chainrank.corpus import Document, RankedList, RankEntry, base_retrieve, build_index
from chainrank.features import FeatureSpace, SparseVector, phi_rank, phi_terms
from chainrank.feedback import prefs_for_log, strategy_counts
from chainrank.fixtures import make_fixture
from chainrank.interleave import attribute, combine, sign_test
from chainrank.logs import QueryEvent, SearchLog, group_sessions, parse_log, write_log
from chainrank.pipeline import run_experiment
from chainrank.ranking import RerankRequest, rerank, score
from chainrank.simulate import (
    Intent,
    UserBehavior,
    simulate,
    strategy_accuracy,
)
from chainrank.solver import (
    PreferenceConstraint,
    fresh_model,
    model_to_json,
    objective,
    subgradient,
    train_ranking,
)
from helpers import densify, grid_minimize_hinge, make_click, make_query

SEED = 7


def ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


@pytest.fixture(scope="module")
def big_run():
    """Criterion-5 scale experiment, shared by criteria 5-7."""
    t0 = time.perf_counter()
    docs, intents = make_fixture(1000, 13)
    art = run_experiment(
        docs, intents, seed=SEED, sessions=2000, eval_sessions=1000,
        behavior=UserBehavior(click_noise=0.1),
    )
    elapsed = time.perf_counter() - t0
    return docs, intents, art, elapsed


def test_criterion_1_interleaving_golden():
    t0 = time.perf_counter()
    reps = 200
    for _ in range(reps):
        inter = combine(["d1", "d2", "d3", "d4"], ["d2", "d5", "d1", "d6"], first_r=True)
        att = attribute(inter, {"d1", "d5"})
    per_call = (time.perf_counter() - t0) / reps
    assert inter.combined == ["d1", "d2", "d5", "d3", "d4", "d6"]
    assert att.depth == 3
    assert att.clicks_r == 1 and att.clicks_r_prime == 1
    assert per_call < 1e-3
    ok(1, f"golden combine + attribution exact, {per_call * 1e6:.0f} us per call")


def test_criterion_2_rank_and_term_features():
    assert phi_rank(4).tolist() == [0, 0, 0] + [1] * 25
    assert phi_rank(None).tolist() == [0] * 28
    space = FeatureSpace(("base",))
    for terms in (["a"], ["a", "b"], ["a", "b", "c"], ["a", "a", "b"]):
        v = phi_terms(space, "doc", terms)
        assert v.nnz() == len(set(terms))
        assert all(x == 1.0 for x in v.values)
    ok(2, "threshold indicators and term features exact")


def test_criterion_3_hard_bound_score_inequality():
    for w_min in (1.0, 0.5):
        space = FeatureSpace(("base",))
        space.term_doc_id("t", "new")
        space.term_doc_id("t", "d1")
        space.freeze()
        base = {"base": RankedList([RankEntry("d1", 2.0), RankEntry("d2", 1.0)])}

        model = fresh_model(space, w_min=w_min)
        assert score("d1", ["t"], base, model) == 28.0 * w_min

        incumbent = 3.0
        bar = 28.0 * w_min + incumbent
        for delta, outranks in ((0.25, True), (-0.25, False)):
            m = fresh_model(space, w_min=w_min)
            m.weights[space.term_doc_id("t", "new")] = bar + delta
            m.weights[space.term_doc_id("t", "d1")] = incumbent
            s_new, s_d1 = score("new", ["t"], base, m), score("d1", ["t"], base, m)
            assert s_d1 == 28.0 * w_min + incumbent
            assert (s_new > s_d1) is outranks
    ok(3, "rank-1 score is 28*w_min; term weights must beat 28*w_min + incumbent")


def _random_instance(rng):
    dim = int(rng.integers(1, 6))
    n = int(rng.integers(1, 11))
    cons = []
    for _ in range(n):
        items = {j: float(rng.normal()) for j in range(dim) if rng.random() < 0.8}
        if not items:
            items[int(rng.integers(dim))] = 1.0
        cons.append(PreferenceConstraint(SparseVector.from_items(items)))
    C = float(rng.choice([0.3, 1.0, 3.0]))
    if rng.random() < 0.5:
        k = int(rng.integers(1, dim + 1))
        bounded = tuple(sorted(rng.choice(dim, size=k, replace=False).tolist()))
        w_min = float(rng.choice([0.0, 0.5, 1.0]))
    else:
        bounded, w_min = (), 0.0
    return cons, C, w_min, bounded, dim


def test_criterion_4_solver_oracle_gap():
    t0 = time.perf_counter()
    sol = train_ranking([PreferenceConstraint(SparseVector.from_items({0: 1.0}))], C=0.5)
    assert abs(sol.weights[0] - 0.5) < 1e-6 and abs(sol.objective - 0.375) < 1e-6
    sol = train_ranking([PreferenceConstraint(SparseVector.from_items({0: 1.0}))], C=2.0)
    assert abs(sol.weights[0] - 1.0) < 1e-6 and abs(sol.objective - 0.5) < 1e-6

    rng = np.random.default_rng(123)
    worst = 0.0
    n_bounded = 0
    for _ in range(24):
        cons, C, w_min, bounded, dim = _random_instance(rng)
        sol = train_ranking(cons, C=C, w_min=w_min, bounded_dims=bounded, dim=dim)
        _, f_oracle = grid_minimize_hinge(densify(cons, dim), C, w_min, bounded)
        worst = max(worst, sol.objective - f_oracle)
        assert sol.objective <= f_oracle + 1e-3
        if bounded:
            n_bounded += 1
            assert float(sol.weights[list(bounded)].min()) >= w_min  # exact feasibility
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert n_bounded >= 5
    ok(4, f"24 instances, worst solver-minus-oracle gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_directional_interleaving_win(big_run):
    _, _, art, elapsed = big_run
    pairs = {p["modes"]: p for p in art.report["pairs"]}
    qc_base = pairs["qc_vs_base"]
    qc_nc = pairs["qc_vs_nc"]
    assert qc_base["wins_a"] > qc_base["wins_b"] and qc_base["p"] < 0.01
    assert qc_nc["wins_a"] > qc_nc["wins_b"] and qc_nc["p"] < 0.05
    assert elapsed <= 300.0
    ok(5, (f"qc vs base {qc_base['wins_a']}/{qc_base['wins_b']}/{qc_base['ties']} "
           f"p={qc_base['p']:.2e}; qc vs nc {qc_nc['wins_a']}/{qc_nc['wins_b']}/"
           f"{qc_nc['ties']} p={qc_nc['p']:.2e}; {elapsed:.0f}s"))


def _graded_world(rng):
    """Noiseless world in which sub-threshold clicks keep sessions going, so
    the clicked-earlier-query strategy emits pairs even at zero noise."""
    docs = []
    for i in range(10):
        docs.append(Document(f"a-{i:02d}", f"alpha entry {i}", "alpha filler one two"))
        docs.append(Document(f"b-{i:02d}", f"beta entry {i}", "beta filler one two"))
    intents = []
    for k in range(60):
        rel = {}
        for side in ("a", "b"):
            for i in rng.choice(10, size=5, replace=False):
                rel[f"{side}-{i:02d}"] = 0.4
        intents.append(Intent(f"g{k:02d}", rel, (("alpha",), ("beta",))))
    return docs, intents


def test_criterion_6_strategy_accuracy(big_run):
    docs, intents, art, _ = big_run

    # zero noise on the experiment corpus: S1-S4 and S6 emit; exact accuracy
    corpus = build_index(docs)
    ranker = lambda terms, k: base_retrieve(corpus, terms, k)
    log0, truth0 = simulate(corpus, ranker, intents, UserBehavior(click_noise=0.0),
                            600, 31)
    prefs0 = prefs_for_log(log0, segment_log(log0), "qc", corpus.doc_ids(), seed=2)
    accs0 = strategy_accuracy(prefs0, truth0)
    seen = set()
    for s, acc in accs0.items():
        if acc.strict_pairs:
            assert acc.accuracy == 1.0, (s, acc)
            seen.add(s)

    # zero noise, graded world: covers the clicked-earlier-query strategy
    gdocs, gintents = _graded_world(np.random.default_rng(3))
    gcorpus = build_index(gdocs)
    granker = lambda terms, k: base_retrieve(gcorpus, terms, k)
    logg, truthg = simulate(gcorpus, granker, gintents, UserBehavior(click_noise=0.0),
                            400, 37)
    prefsg = prefs_for_log(logg, segment_log(logg), "qc", gcorpus.doc_ids(), seed=2)
    accsg = strategy_accuracy(prefsg, truthg)
    for s, acc in accsg.items():
        if acc.strict_pairs:
            assert acc.accuracy == 1.0, (s, acc)
            seen.add(s)
    assert seen == {"S1", "S2", "S3", "S4", "S5", "S6"}

    # noise 0.1 at experiment scale: every strategy clears 0.5 significantly
    emitted = strategy_counts(art.prefs["qc"])
    accs = strategy_accuracy(art.prefs["qc"], art.truth)
    checked = []
    for s, n_emitted in emitted.items():
        if n_emitted < 200:
            continue
        acc = accs[s]
        assert acc.agreements > acc.disagreements
        assert sign_test(acc.agreements, acc.disagreements) < 0.05, s
        checked.append(f"{s}:{acc.accuracy:.2f}/{n_emitted}")
    assert len(checked) == 6  # the fixture gives every strategy >= 200 pairs
    ok(6, "noiseless accuracy 1.0 on all six; at noise 0.1 " + " ".join(checked))


def test_criterion_7_chain_segmentation(big_run):
    docs, intents, _, _ = big_run
    corpus = build_index(docs)
    ranker = lambda terms, k: base_retrieve(corpus, terms, k)
    log, truth = simulate(corpus, ranker, intents, UserBehavior(click_noise=0.1),
                          500, 41, multi_intent_prob=0.5)
    intent_of = {t.query_id: t.intent_id for t in truth}
    chain_of = {
        qid: c.chain_id for c in segment_log(log, 1800) for qid in c.query_ids()
    }
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
    recall = tp / (tp + fn)
    precision = tp / (tp + fp)
    assert recall == 1.0
    assert precision >= 0.9
    ok(7, f"recall {recall:.3f}, precision {precision:.3f} on {tp + fn} true pairs")


def test_criterion_8_property_suites():
    n_cases = 10_000
    rng = np.random.default_rng(2024)
    docs = [f"d{i}" for i in range(16)]

    # seen-inequality at every depth, both coin outcomes
    for _ in range(n_cases):
        size = int(rng.integers(0, 9))
        r = list(rng.choice(docs, size=size, replace=False))
        rp = list(rng.choice(docs, size=int(rng.integers(0, 9)), replace=False))
        first = bool(rng.random() < 0.5)
        inter = combine(r, rp, first_r=first)
        for n in range(1, len(inter.combined) + 1):
            s_r, s_p = inter.seen(n)
            if s_r == len(r) or s_p == len(rp):
                continue
            lead, trail = (s_r, s_p) if first else (s_p, s_r)
            assert lead >= trail >= lead - 1

    # prefix monotonicity of the rank indicators
    ranks = rng.integers(1, 130, size=(n_cases, 2))
    for a, b in ranks:
        lo, hi = (int(a), int(b)) if a <= b else (int(b), int(a))
        assert np.all(phi_rank(lo) >= phi_rank(hi))

    # chain-strategy output contains the within-query output, pair for pair
    for case in range(n_cases):
        crng = np.random.default_rng([11, case])
        events = []
        t = 0
        for qi in range(int(crng.integers(1, 4))):
            n_res = int(crng.integers(0, 5))
            picks = list(crng.choice(docs, size=n_res, replace=False))
            q = make_query(f"q{qi}", "s", t, [f"w{int(crng.integers(3))}"], picks)
            events.append(q)
            for r_idx in range(n_res):
                if crng.random() < 0.35:
                    events.append(make_click(q, r_idx + 1, t + 1))
            t += int(crng.integers(5, 1800))
        log = SearchLog(events)
        chains = segment_log(log)
        qc = prefs_for_log(log, chains, "qc", docs, seed=case)
        nc = prefs_for_log(log, chains, "nc", docs, seed=case)
        key = lambda p: (p.preferred_doc, p.other_doc, p.wrt_query, p.strategy)
        qc_multi, nc_multi = Counter(map(key, qc)), Counter(map(key, nc))
        assert all(qc_multi[k] >= v for k, v in nc_multi.items())
        assert sum(1 for p in qc if p.strategy.value in ("S1", "S2")) == len(nc)

    # reranking with a fresh model reproduces the base order
    space = FeatureSpace(("base",))
    model = fresh_model(space, w_min=1.0)
    for case in range(n_cases):
        crng = np.random.default_rng([13, case])
        size = int(crng.integers(0, 12))
        base_docs = list(crng.choice(docs, size=size, replace=False))
        base = {"base": RankedList([
            RankEntry(d, float(size - i)) for i, d in enumerate(base_docs)
        ])}
        k = int(crng.integers(1, 14))
        out = rerank(RerankRequest(["w"], base, model, k=k))
        assert out.doc_ids() == base_docs[:k]

    # log round-trip: parse(write(x)) == x and write is canonical
    for case in range(n_cases):
        crng = np.random.default_rng([17, case])
        events = []
        t = int(crng.integers(0, 100))
        for qi in range(int(crng.integers(1, 4))):
            n_res = int(crng.integers(0, 4))
            picks = list(crng.choice(docs, size=n_res, replace=False))
            q = make_query(f"q{qi}", f"s{int(crng.integers(2))}", t,
                           [f"w{qi}"], picks)
            events.append(q)
            if n_res and crng.random() < 0.5:
                events.append(make_click(q, int(crng.integers(1, n_res + 1)), t))
            t += int(crng.integers(1, 50))
        log = SearchLog(events)
        text = write_log(log)
        assert parse_log(text) == log
        assert write_log(parse_log(text)) == text

    # full-pipeline determinism: same config and seed, identical report
    micro_docs = [
        Document(f"d{i}", f"topic word{i}", f"word{i} alpha beta target{i % 2}")
        for i in range(8)
    ]
    micro_intents = [
        Intent("i0", {"d0": 1.0, "d2": 1.0}, (("missing",), ("target0",))),
        Intent("i1", {"d1": 1.0, "d3": 1.0}, (("target1",),)),
    ]
    behavior = UserBehavior(click_noise=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # micro runs cap solver sweeps
        for case in range(n_cases):
            runs = [
                run_experiment(micro_docs, micro_intents, seed=case, sessions=2,
                               eval_sessions=2, behavior=behavior,
                               max_iters=60, tolerance=1e-3)
                for _ in range(2)
            ]
            assert runs[0].report == runs[1].report
            assert write_log(runs[0].log) == write_log(runs[1].log)
            assert model_to_json(runs[0].models["qc"]) == model_to_json(runs[1].models["qc"])

    ok(8, f"six property suites passed at {n_cases} randomized cases each")


def test_criterion_9_subgradient_finite_differences():
    rng = np.random.default_rng(55)
    checked = 0
    worst = 0.0
    while checked < 100:
        cons, C, _, _, dim = _random_instance(rng)
        w = rng.normal(size=dim)
        if any(abs(1.0 - c.delta.dot(w)) < 1e-3 for c in cons):
            continue
        g = subgradient(w, cons, C)
        h = 1e-6
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            fd = (objective(w + e, cons, C) - objective(w - e, cons, C)) / (2 * h)
            rel = abs(fd - g[j]) / max(1.0, abs(fd))
            worst = max(worst, rel)
            assert rel < 1e-4
        checked += 1
    ok(9, f"100 non-kink points, worst relative error {worst:.2e}")
