"""Golden digests: the sha256 of what the program writes and serves, pinned.

`golden.json` holds one digest per output, in four groups:

- `run/<file>`: each file `chainrank run` writes for the config of
  `test_pipeline.py` (fixture of 300 documents, seed 11, 80/40 sessions);
- `experiment/<seed>/...`: `run_experiment`'s report text and each model's
  JSON at the first three seeds of the `experiment` benchmark op;
- `serve/...`: `base_retrieve` at depth 100 and `rerank` to 10 of a fixed
  trained qc model, over a seeded pool of fixture queries; each list is
  hashed as its ids, `float.hex` scores and origins;
- `solver/block_instances`: `train_ranking` on seeded `block_instance`
  problems, some at a negative w_min, under sweep budgets of 1, 2, 5 and
  10,000; each solve is hashed as its weight bytes, `float.hex` gap and
  objective, iterations, rounds, components, converged and violations.
  Many of them release a bounded dim, a path the program's own runs
  never take.

A change that moves output on purpose rewrites the manifest in the same
commit (`PYTHONPATH=src:tests python tests/test_golden.py`) and says why;
the test names every entry that moved.  Models carry `meta["objective"]`
and `meta["gap"]`, which go through a BLAS dot product: if only those
entries move, and only on another CPU, that is a bit-determinism finding
about the solver, not a reason to drop them from the manifest.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from chainrank.corpus import BASE_DEPTH, base_retrieve
from chainrank.fixtures import documents_to_jsonl, make_fixture
from chainrank.pipeline import BASE_FN, ExperimentConfig, run_experiment, run_stage
from chainrank.ranking import RerankRequest, rerank
from chainrank.simulate import UserBehavior, write_intents
from chainrank.solver import model_to_json, train_ranking
from helpers import block_instance, serve_queries, trained_qc

MANIFEST = Path(__file__).with_name("golden.json")
GROUPS = ("run", "experiment", "serve", "solver")
SERVE_QUERIES, SERVE_SEED = 2000, 1
SOLVES, SOLVER_SEED = 300, 5


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests() -> dict[str, str]:
    docs, intents = make_fixture(300, 13)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "corpus.jsonl").write_text(documents_to_jsonl(docs), encoding="utf-8")
        (root / "intents.json").write_text(write_intents(intents), encoding="utf-8")
        cfg = ExperimentConfig(corpus=str(root / "corpus.jsonl"),
                               intents=str(root / "intents.json"), workdir=str(root / "out"),
                               seed=11, sessions=80, eval_sessions=40, max_iters=3000)
        run_stage("run", cfg)
        return {f"run/{p.name}": sha256(p.read_bytes())
                for p in sorted(Path(cfg.workdir).iterdir())}


def op_seed(i: int) -> int:
    """Seed of the i-th `experiment` benchmark op at run seed 1."""
    return int(np.random.SeedSequence([1, i]).generate_state(1)[0])


def experiment_digests() -> dict[str, str]:
    docs, intents = make_fixture(1000, 13)
    out = {}
    for i in range(3):
        seed = op_seed(i)
        art = run_experiment(docs, intents, seed=seed, sessions=30, eval_sessions=300,
                             behavior=UserBehavior(click_noise=0.1), results_per_query=10,
                             window_seconds=1800, comparisons=[["qc", "base"], ["qc", "nc"]])
        out[f"experiment/{seed}/report_text"] = sha256(art.report_text.encode("utf-8"))
        for mode, model in art.models.items():
            out[f"experiment/{seed}/model_{mode}.json"] = sha256(
                model_to_json(model).encode("utf-8"))
    return out


def _lines(ranking) -> bytes:
    return "".join(f"{d} {s.hex()} {o}\n" for d, s, o in
                   zip(ranking.ids, ranking.scores, ranking.origins)).encode("utf-8") + b"\n"


def serve_digests() -> dict[str, str]:
    docs, intents = make_fixture(1000, 13)
    corpus, model = trained_qc(docs, intents)
    retrieved, reranked = hashlib.sha256(), hashlib.sha256()
    for terms in serve_queries(corpus, model, SERVE_QUERIES, SERVE_SEED):
        base = base_retrieve(corpus, terms, BASE_DEPTH)
        retrieved.update(_lines(base))
        reranked.update(_lines(rerank(RerankRequest(terms, {BASE_FN: base}, model, 10))))
    return {"serve/base_retrieve": retrieved.hexdigest(), "serve/rerank": reranked.hexdigest()}


def solver_digests() -> dict[str, str]:
    rng, digest, released = np.random.default_rng(SOLVER_SEED), hashlib.sha256(), 0
    for i in range(SOLVES):
        cons, C, w_min, bounded, dim = block_instance(rng)
        if i % 3 == 2:
            w_min = -0.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the small budgets stop short
            sol = train_ranking(cons, C=C, w_min=w_min, bounded_dims=bounded, dim=dim,
                                max_iters=(1, 2, 5, 10_000)[i % 4])
        digest.update(sol.weights.tobytes())
        digest.update(f"{sol.gap.hex()} {sol.objective.hex()} {sol.iterations} {sol.rounds} "
                      f"{sol.components} {sol.converged} {sol.violations}\n".encode("utf-8"))
        released += sol.rounds >= 2
    assert released >= SOLVES // 5  # the digest covers the release path
    return {"solver/block_instances": digest.hexdigest()}


DIGESTS = {"run": run_digests, "experiment": experiment_digests, "serve": serve_digests,
           "solver": solver_digests}


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_match_the_golden_manifest(group):
    want = {k: v for k, v in json.loads(MANIFEST.read_text()).items()
            if k.startswith(group + "/")}
    got = DIGESTS[group]()
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (moved or missing or extra), f"moved {moved}, missing {missing}, new {extra}"
    assert len(want) == {"run": 22, "experiment": 9, "serve": 2, "solver": 1}[group]


if __name__ == "__main__":
    digests = {k: v for group in GROUPS for k, v in DIGESTS[group]().items()}
    MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
