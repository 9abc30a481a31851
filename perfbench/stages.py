"""`stages` workload: the on-disk pipeline, every stage through `cli.main`.

Each operation runs index, simulate, chains, prefs (qc and nc), train (nc),
interleave (nc against base) and report on its own seed in a fresh work
directory.  The 1.5 MB log is written once and parsed four times, and
`read_chains` dominates; the nc solve is small, so solver changes barely
move this workload.

A traced run gives every `cli.main` call a span and then times `parse_log`,
`write_log` and `read_chains` on the artifacts the operation produced.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from time import perf_counter

from chainrank import cli
from chainrank.chains import read_chains
from chainrank.fixtures import documents_to_jsonl, make_fixture
from chainrank.logs import parse_log, write_log
from chainrank.simulate import write_intents
from common import Outcome, beats, margin, sub_seed
from spans import maybe_span

DOCS, FIXTURE_SEED = 1000, 13
SESSIONS, EVAL_SESSIONS, NOISE = 1000, 1000, 0.1
STAGES = (
    ("index", []), ("simulate", []), ("chains", []),
    ("prefs_qc", ["prefs", "--mode", "qc"]), ("prefs_nc", ["prefs", "--mode", "nc"]),
    ("train_nc", ["train", "--mode", "nc"]), ("interleave", []), ("report", []),
)


def setup(seed, tracer, scratch):
    """Write the fixture corpus and intents where the stages' config points."""
    docs, intents = make_fixture(DOCS, FIXTURE_SEED)
    inputs = scratch / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "corpus.jsonl").write_text(documents_to_jsonl(docs), encoding="utf-8")
    (inputs / "intents.json").write_text(write_intents(intents), encoding="utf-8")
    return scratch


def _config(scratch, seed: int, name: str):
    opdir = scratch / name
    opdir.mkdir(parents=True)
    path = opdir / "experiment.json"
    path.write_text(json.dumps({
        "corpus": str(scratch / "inputs" / "corpus.jsonl"),
        "intents": str(scratch / "inputs" / "intents.json"),
        "workdir": str(opdir / "out"),
        "seed": seed, "sessions": SESSIONS, "eval_sessions": EVAL_SESSIONS, "noise": NOISE,
        "comparisons": [["nc", "base"]],
    }), encoding="utf-8")
    return path, opdir / "out"


def _run_stages(config, tracer, op) -> tuple[bool, float]:
    """All stages in order; (every exit code was 0, seconds taken)."""
    codes = []
    t0 = perf_counter()
    with maybe_span(tracer, "op", op), contextlib.redirect_stdout(io.StringIO()):
        for name, argv in STAGES:
            with maybe_span(tracer, f"cli.{name}"):
                codes.append(cli.main((argv or [name]) + ["--config", str(config)]))
    return all(c == 0 for c in codes), perf_counter() - t0


def _check(out_dir) -> bool:
    """nc beats base at p < 0.01 in report.json, and the nc solve converged."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    model = json.loads((out_dir / "model_nc.json").read_text(encoding="utf-8"))
    return beats(report["pairs"][0], 0.01) and model["meta"]["converged"] is True


def _inspect(out_dir, tracer, op) -> dict:
    """Time the log and chain layers on the produced artifacts; count what they hold."""
    log_path = out_dir / "log.jsonl"
    log_text = log_path.read_text(encoding="utf-8")
    chains_text = (out_dir / "chains.jsonl").read_text(encoding="utf-8")
    with tracer.span("inspect", op):
        with tracer.span("logs.parse_log"):
            searchlog = parse_log(log_text)
        with tracer.span("logs.write_log"):
            write_log(searchlog)
        with tracer.span("chains.read_chains"):
            chain_list = read_chains(chains_text, searchlog)
    prefs_meta = json.loads((out_dir / "prefs_qc.jsonl.meta.json").read_text(encoding="utf-8"))
    model = json.loads((out_dir / "model_nc.json").read_text(encoding="utf-8"))
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    counters = {
        "logs.events": len(searchlog),
        "logs.log_bytes": log_path.stat().st_size,
        "chains.n_chains": len(chain_list),
        "solver.sweeps_nc": model["meta"]["iterations"],
        "interleave.nc_base_margin": margin(report["pairs"][0]),
    }
    for strategy, n in prefs_meta["counts"].items():
        counters[f"feedback.prefs_{strategy}_count"] = n
    return counters


TIMED_SPANS = ("logs.parse_log", "logs.write_log", "chains.read_chains") + tuple(
    f"cli.{name}" for name, _ in STAGES
)


def measure(state, seed, seconds, tracer) -> Outcome:
    """Closed loop of full stage passes on seeds derived from `seed`.

    Traced, each seed runs twice, plain and with spans, in alternating
    order; the artifacts of the first seed are inspected for the log and
    chain timings and the counters, the stage times are medians.
    """
    scratch = state
    out = Outcome()
    start = perf_counter()
    while not out.op_times or perf_counter() - start < seconds:
        i = out.attempted
        s = sub_seed(seed, i)
        runs = [False] if tracer is None else [True, False] if i % 2 else [False, True]
        ok = True
        times = {}
        for traced in runs:
            tr = tracer if traced else None
            config, out_dir = _config(scratch, s, f"op{i}-{'traced' if traced else 'plain'}")
            codes_ok, times[traced] = _run_stages(config, tr, i)
            ok = ok and codes_ok and _check(out_dir)
            if traced and i == 0 and codes_ok:
                out.layers.update(_inspect(out_dir, tr, i))
            shutil.rmtree(config.parent)
        if tracer is not None:
            out.overheads.append(times[True] - times[False])
        out.record(times[False], ok)
    if tracer is not None:
        out.layers.update({f"{name}_s": tracer.median(name) for name in TIMED_SPANS})
    return out
