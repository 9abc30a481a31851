"""`serve` workload: uncached serving of a trained qc model.

Set-up indexes the fixture and trains a qc model on a small simulated log;
fixture and model are the same in every run, like a deployed system.  The
run seed draws the pool of 1-3-term queries: even ones from the terms that
carry learned term/doc weights, odd ones from the corpus vocabulary.  One client
then sends queries back to back, each `base_retrieve` at depth 100 followed
by `rerank` to k=10, called directly so no ranker memo applies.  Corpus and
ranking do all the work; the solver only moves set-up time.

A traced run times `base_retrieve` and `rerank` separately on every other
pair of queries and counts the candidates each of those queries scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from chainrank.chains import segment_log
from chainrank.corpus import base_retrieve, build_index
from chainrank.feedback import prefs_for_log, strategy_counts
from chainrank.fixtures import make_fixture
from chainrank.pipeline import BASE_DEPTH, BASE_FN, base_ranker, model_ranker
from chainrank.ranking import RerankRequest, candidates, rerank
from chainrank.simulate import UserBehavior, simulate
from common import Outcome, constraint_counts, quantile, sub_seed, train
from spans import CountingRanker, hit_rate, maybe_span

DOCS, FIXTURE_SEED = 1000, 13
TRAIN_SESSIONS, TRAIN_SEED, NOISE, WINDOW_SECONDS = 100, 7, 0.1, 1800
K = 10
POOL = 20000  # queries drawn in set-up; the loop cycles through them
CHECK_EVERY = 64  # every 64th query is also compared with model_ranker


@dataclass
class State:
    corpus: object
    model: object
    queries: list[list[str]]
    counters: dict


def setup(seed, tracer, scratch) -> State:
    docs, intents = make_fixture(DOCS, FIXTURE_SEED)
    with maybe_span(tracer, "corpus.build_index"):
        corpus = build_index(docs)
    rank0 = CountingRanker(base_ranker(corpus))
    with maybe_span(tracer, "simulate.simulate"):
        searchlog, _ = simulate(corpus, rank0, intents, UserBehavior(click_noise=NOISE),
                                TRAIN_SESSIONS, sub_seed(TRAIN_SEED, 0))
    with maybe_span(tracer, "chains.segment_log"):
        chain_list = segment_log(searchlog, WINDOW_SECONDS)
    with maybe_span(tracer, "feedback.prefs_qc"):
        prefs = prefs_for_log(searchlog, chain_list, "qc", corpus.doc_ids(),
                              sub_seed(TRAIN_SEED, 1))
    model, constraints = train(searchlog, prefs, "qc", tracer)

    learned = sorted({t for t, _, w in model.term_doc_items() if w != 0.0})
    vocabulary = sorted(corpus.vocabulary)
    rng = np.random.default_rng(seed)
    queries = []
    for j in range(POOL):
        pool = learned if j % 2 == 0 else vocabulary
        n = min(int(rng.integers(1, 4)), len(pool))
        queries.append([str(t) for t in rng.choice(pool, size=n, replace=False)])

    unique, nnz = constraint_counts(constraints)
    counters = {
        "solver.sweeps_qc": model.meta["iterations"],
        "solver.unique_constraints_qc": unique,
        "solver.nnz_qc": nnz,
        "solver.objective_qc": model.meta["objective"],
        "features.dim_qc": model.space.dim,
        "pipeline.base_ranker_hit_rate": hit_rate([rank0]),
        "logs.events": len(searchlog),
        "chains.n_chains": len(chain_list),
        **{f"feedback.prefs_{s}_count": n for s, n in strategy_counts(prefs).items()},
    }
    return State(corpus, model, queries, counters)


def _served_ok(entries) -> bool:
    """Duplicate-free, at most K long, scores non-increasing."""
    docs = [e.doc_id for e in entries]
    return (len(docs) <= K and len(set(docs)) == len(docs)
            and all(a.score >= b.score for a, b in zip(entries, entries[1:])))


def _same(entries, expected) -> bool:
    return [(e.doc_id, e.score, e.origin) for e in entries] == [
        (e.doc_id, e.score, e.origin) for e in expected.entries
    ]


def measure(state: State, seed, seconds, tracer) -> Outcome:
    """One client, closed loop, until `seconds` pass.  A failed check fails
    the query; an unconverged set-up solve counts as one failed operation."""
    corpus, model = state.corpus, state.model
    reference = model_ranker(corpus, model)
    out = Outcome(attempted=1, failed=int(model.meta["converged"] is not True))
    injected = 0
    n_candidates = []
    traced_times, plain_times = [], []
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds or i < 4:  # at least one traced pair
        terms = state.queries[i % POOL]
        traced = tracer is not None and i // 2 % 2 == 1  # pairs, so both pools get traced
        if traced:
            with tracer.span("op", i) as root:
                with tracer.span("corpus.base_retrieve"):
                    base = base_retrieve(corpus, terms, BASE_DEPTH)
                with tracer.span("ranking.rerank"):
                    ranked = rerank(RerankRequest(terms, {BASE_FN: base}, model, K))
            elapsed = root["end"] - root["start"]
            traced_times.append(elapsed)
            n_candidates.append(len(candidates(terms, {BASE_FN: base}, model)))
        else:
            t0 = perf_counter()
            base = base_retrieve(corpus, terms, BASE_DEPTH)
            ranked = rerank(RerankRequest(terms, {BASE_FN: base}, model, K))
            elapsed = perf_counter() - t0
            plain_times.append(elapsed)
        ok = _served_ok(ranked.entries)
        if i % CHECK_EVERY == 0:
            ok = ok and _same(ranked.entries, reference(terms, K))
        injected += any(e.origin == "term_association" for e in ranked.entries)
        out.record(elapsed, ok)
        i += 1

    if tracer is not None:
        retrieve_ms = [d * 1e3 for d in tracer.durations("corpus.base_retrieve")]
        rerank_ms = [d * 1e3 for d in tracer.durations("ranking.rerank")]
        out.layers.update(state.counters)
        out.layers.update({
            "corpus.build_index_s": tracer.median("corpus.build_index"),
            "simulate.simulate_s": tracer.median("simulate.simulate"),
            "chains.segment_log_s": tracer.median("chains.segment_log"),
            "feedback.prefs_qc_s": tracer.median("feedback.prefs_qc"),
            "pipeline.build_constraints_qc_s": tracer.median("pipeline.build_constraints_qc"),
            "solver.fit_qc_s": tracer.median("solver.fit_qc"),
            "corpus.base_retrieve_ms_p50": quantile(retrieve_ms, 0.5),
            "corpus.base_retrieve_ms_p99": quantile(retrieve_ms, 0.99),
            "ranking.rerank_ms_p50": quantile(rerank_ms, 0.5),
            "ranking.rerank_ms_p99": quantile(rerank_ms, 0.99),
            "ranking.candidates_per_query": sum(n_candidates) / len(n_candidates),
            "ranking.injected_share": injected / i,
        })
        out.overheads.append(quantile(traced_times, 0.5) - quantile(plain_times, 0.5))
    return out
