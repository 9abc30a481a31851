"""`experiment` workload: the whole in-memory pipeline, fixture to report.

Each operation is one `run_experiment` call on its own seed: simulate
training sessions, segment, mine qc and nc preferences, train both models,
and interleave qc against base and against nc.  The qc solve takes most of
the time.  There is no disk I/O, and base retrieval is served almost
entirely from the ranker memo, so log, corpus and rerank changes should not
move this workload.

A traced run repeats every operation step by step through the public
functions, with a span around each step, and requires the step-by-step
report and model weights to equal those of `run_experiment` exactly.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from chainrank.chains import segment_log
from chainrank.corpus import build_index
from chainrank.feedback import prefs_for_log, strategy_counts
from chainrank.fixtures import make_fixture
from chainrank.pipeline import _stage_seed, base_ranker, make_report, model_ranker, run_experiment
from chainrank.simulate import UserBehavior, interleaved_eval, simulate
from common import Outcome, beats, constraint_counts, margin, sub_seed, train
from spans import CountingRanker, hit_rate

DOCS, FIXTURE_SEED = 1000, 13
SESSIONS, EVAL_SESSIONS, NOISE = 30, 300, 0.1
RESULTS_PER_QUERY, WINDOW_SECONDS = 10, 1800
COMPARISONS = (("qc", "base"), ("qc", "nc"))
MODES = ("nc", "qc")  # run_experiment trains modes in sorted order


def setup(seed, tracer, scratch):
    return make_fixture(DOCS, FIXTURE_SEED)


def _ok(report: dict, models: dict) -> bool:
    """qc beats base at p < 0.01, qc beats nc at p < 0.05, every solve converged."""
    pairs = {p["modes"]: p for p in report["pairs"]}
    return (beats(pairs["qc_vs_base"], 0.01) and beats(pairs["qc_vs_nc"], 0.05)
            and all(m.meta["converged"] is True for m in models.values()))


def _untraced(docs, intents, seed):
    return run_experiment(
        docs, intents, seed=seed, sessions=SESSIONS, eval_sessions=EVAL_SESSIONS,
        behavior=UserBehavior(click_noise=NOISE), results_per_query=RESULTS_PER_QUERY,
        window_seconds=WINDOW_SECONDS, comparisons=COMPARISONS,
    )


def _traced(docs, intents, seed, tracer, op):
    """`run_experiment`, one public call at a time.

    Returns (report, text, models, counters, seconds inside the op span).
    """
    behavior = UserBehavior(click_noise=NOISE)
    with tracer.span("op", op) as root:
        with tracer.span("corpus.build_index"):
            corpus = build_index(docs)
        rank0 = CountingRanker(base_ranker(corpus))
        with tracer.span("simulate.simulate"):
            searchlog, _ = simulate(corpus, rank0, intents, behavior, SESSIONS,
                                    _stage_seed(seed, "simulate"), RESULTS_PER_QUERY)
        with tracer.span("chains.segment_log"):
            chain_list = segment_log(searchlog, WINDOW_SECONDS)
        prefs = {}
        for mode in MODES:
            with tracer.span(f"feedback.prefs_{mode}"):
                prefs[mode] = prefs_for_log(searchlog, chain_list, mode, corpus.doc_ids(),
                                            _stage_seed(seed, "prefs"))
        trained = {mode: train(searchlog, prefs[mode], mode, tracer) for mode in MODES}
        model_rankers = {m: CountingRanker(model_ranker(corpus, trained[m][0])) for m in MODES}
        rankers = {"base": rank0, **model_rankers}
        outcomes = []
        for a, b in COMPARISONS:
            with tracer.span(f"simulate.interleaved_eval_{a}_{b}"):
                res = interleaved_eval(rankers[a], rankers[b], intents, behavior, EVAL_SESSIONS,
                                       _stage_seed(seed, "interleave"), RESULTS_PER_QUERY)
            outcomes.append((a, b, res))
        report, text = make_report(outcomes)

    models = {m: trained[m][0] for m in MODES}
    unique, nnz = constraint_counts(trained["qc"][1])
    pairs = {p["modes"]: p for p in report["pairs"]}
    counters = {
        "solver.sweeps_qc": models["qc"].meta["iterations"],
        "solver.sweeps_nc": models["nc"].meta["iterations"],
        "solver.unique_constraints_qc": unique,
        "solver.nnz_qc": nnz,
        "solver.objective_qc": models["qc"].meta["objective"],
        "features.dim_qc": models["qc"].space.dim,
        "pipeline.base_ranker_hit_rate": hit_rate([rank0]),
        "pipeline.model_ranker_hit_rate": hit_rate(list(model_rankers.values())),
        "logs.events": len(searchlog),
        "chains.n_chains": len(chain_list),
        "interleave.qc_base_margin": margin(pairs["qc_vs_base"]),
        "interleave.qc_nc_margin": margin(pairs["qc_vs_nc"]),
    }
    for strategy, n in strategy_counts(prefs["qc"]).items():
        counters[f"feedback.prefs_{strategy}_count"] = n
    return report, text, models, counters, root["end"] - root["start"]


TIMED_SPANS = (
    "corpus.build_index", "simulate.simulate", "chains.segment_log",
    "feedback.prefs_qc", "feedback.prefs_nc",
    "pipeline.build_constraints_qc", "pipeline.build_constraints_nc",
    "solver.fit_qc", "solver.fit_nc",
    "simulate.interleaved_eval_qc_base", "simulate.interleaved_eval_qc_nc",
)


def measure(state, seed, seconds, tracer) -> Outcome:
    """Closed loop of experiments on seeds derived from `seed` until `seconds` pass.

    Traced, each seed also runs step by step, before or after the plain run
    in alternating order; the counters come from the first seed and the
    times are medians over all seeds.
    """
    docs, intents = state
    out = Outcome()
    start = perf_counter()
    while not out.op_times or perf_counter() - start < seconds:
        i = out.attempted
        s = sub_seed(seed, i)
        if tracer is not None and i % 2:
            traced = _traced(docs, intents, s, tracer, i)
        t0 = perf_counter()
        art = _untraced(docs, intents, s)
        elapsed = perf_counter() - t0
        ok = _ok(art.report, art.models)
        if tracer is not None:
            if not i % 2:
                traced = _traced(docs, intents, s, tracer, i)
            report, text, models, counters, wall = traced
            ok = (ok and report == art.report and text == art.report_text and _ok(report, models)
                  and all(np.array_equal(models[m].weights, art.models[m].weights) for m in MODES))
            out.overheads.append(wall - elapsed)
            if i == 0:
                out.layers.update(counters)
        out.record(elapsed, ok)
    if tracer is not None:
        out.layers.update({f"{name}_s": tracer.median(name) for name in TIMED_SPANS})
    return out
