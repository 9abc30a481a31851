import errno
import json
import math
import os
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from chainrank import pipeline
from chainrank.chains import DEFAULT_WINDOW_SECONDS, segment_log
from chainrank.cli import main as cli_main
from chainrank.corpus import BASE_DEPTH, RankedList, base_retrieve, build_index
from chainrank.errors import DataError, StageError
from chainrank.features import N_RANK_FEATURES, FeatureSpace, phi
from chainrank.feedback import MODES, Preference, Strategy, prefs_for_log
from chainrank.fixtures import documents_to_jsonl, make_fixture
from chainrank.fixtures import main as fixtures_main
from chainrank.logs import SearchLog
from chainrank.pipeline import (
    BASE_FN,
    SIDES,
    DiskStore,
    ExperimentConfig,
    base_ranker,
    build_constraints,
    make_report,
    run_experiment,
    run_stage,
    stage_index,
    stage_prefs,
    stage_simulate,
)
from chainrank.simulate import PairEvalResult, UserBehavior, simulate, write_intents
from chainrank.solver import _aggregate, fresh_model, model_to_json
from helpers import make_query


@pytest.fixture(scope="module")
def small_fixture():
    return make_fixture(300, 13)


@pytest.fixture
def cfg(tmp_path, small_fixture):
    docs, intents = small_fixture
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(documents_to_jsonl(docs), encoding="utf-8")
    intents_path = tmp_path / "intents.json"
    intents_path.write_text(write_intents(intents), encoding="utf-8")
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps({
        "corpus": str(corpus_path),
        "intents": str(intents_path),
        "workdir": str(tmp_path / "out"),
        "seed": 11,
        "sessions": 80,
        "eval_sessions": 40,
        "max_iters": 3000,
    }))
    config = ExperimentConfig.from_file(cfg_path)
    config.config_path = cfg_path
    return config


def run_all_stages(cfg):
    """The stages one at a time, each over a fresh DiskStore: the reference for `run`."""
    run_stage("index", cfg)
    run_stage("simulate", cfg)
    run_stage("chains", cfg)
    for mode in MODES:
        if any(mode in pair for pair in cfg.comparisons):
            run_stage("prefs", cfg, mode=mode)
            run_stage("train", cfg, mode=mode)
    run_stage("interleave", cfg)
    return run_stage("report", cfg)


def with_fields(cfg, path, **changes):
    """A copy of the test config's file at `path`, with `changes` applied."""
    path.write_text(json.dumps({**json.loads(cfg.config_path.read_text()), **changes}))
    return path


def workdir_bytes(workdir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in Path(workdir).iterdir()}


def test_full_pipeline_stages(cfg):
    report, text = run_all_stages(cfg)
    assert {p["modes"] for p in report["pairs"]} == {"qc_vs_base", "qc_vs_nc"}
    for p in report["pairs"]:
        assert p["wins_a"] + p["wins_b"] + p["ties"] == p["impressions"]
    assert "prefer qc" in text
    for name in ("index.json", "log.jsonl", "truth.jsonl", "chains.jsonl",
                 "prefs_qc.jsonl", "prefs_nc.jsonl", "model_qc.json",
                 "model_nc.json", "eval_qc_vs_base.json", "report.json"):
        assert cfg.path(name).exists(), name


@pytest.mark.parametrize("comparisons", [[["qc", "base"], ["qc", "nc"]], [["nc", "base"]]],
                         ids=["default", "nc-base"])
def test_cli_run_writes_the_workdir_of_the_single_stages(cfg, tmp_path, comparisons):
    path = with_fields(cfg, tmp_path / "experiment.json", comparisons=comparisons)
    run_all_stages(ExperimentConfig.from_file(path))
    assert cli_main(["run", "--config", str(path), "--workdir", str(tmp_path / "run")]) == 0
    want = workdir_bytes(cfg.workdir)
    assert workdir_bytes(tmp_path / "run") == want
    assert {name.endswith(".meta.json") for name in want} == {True, False}  # sidecars too
    assert any("qc" in name for name in want) == any("qc" in pair for pair in comparisons)


def test_cli_run_prints_what_report_prints(cfg, capsys):
    config_path = str(cfg.config_path)
    assert cli_main(["run", "--config", config_path]) == 0
    printed = capsys.readouterr().out
    assert cli_main(["report", "--config", config_path]) == 0
    assert capsys.readouterr().out == printed
    assert "qc vs base" in printed


def test_cli_run_failure_names_the_file_and_stops(cfg, tmp_path, capsys):
    run_stage("index", cfg)
    index = {name: cfg.path(name).read_bytes() for name in ("index.json", "index.json.meta.json")}
    Path(cfg.intents).write_text(write_intents([]), encoding="utf-8")
    workdir = tmp_path / "run"
    assert cli_main(["run", "--config", str(cfg.config_path), "--workdir", str(workdir)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg.intents}: malformed intent file: it lists no intents" in err
    assert "Traceback" not in err
    assert workdir_bytes(workdir) == index  # simulate wrote nothing


@pytest.mark.parametrize("field, value", [
    ("results_per_query", BASE_DEPTH + 50), ("noise", 2), ("scan_persistence", -0.1),
    ("reformulate_prob", 1.5), ("C", math.inf), ("w_min", math.inf), ("tolerance", math.inf),
    pytest.param("C", 10**400, id="C-10**400"),
])
def test_cli_run_refuses_a_config_field_out_of_range(cfg, tmp_path, capsys, field, value):
    path = with_fields(cfg, tmp_path / "bad.json", **{field: value})
    # json.dumps writes inf as Infinity, which the reader refuses; 1e400 is a JSON number
    path.write_text(path.read_text().replace("Infinity", "1e400"))
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config field {field} must be" in err and "Traceback" not in err
    assert not Path(cfg.workdir).exists()


def test_stage_rerun_byte_identical(cfg):
    run_all_stages(cfg)
    artifacts = ["log.jsonl", "chains.jsonl", "prefs_qc.jsonl", "model_qc.json",
                 "eval_qc_vs_base.json", "report.json"]
    before = {name: cfg.path(name).read_bytes() for name in artifacts}
    # delete a downstream artifact and rerun just its stage
    cfg.path("prefs_qc.jsonl").unlink()
    run_stage("prefs", cfg, mode="qc")
    run_stage("train", cfg, mode="qc")
    run_stage("interleave", cfg, pair=("qc", "base"))
    run_stage("report", cfg)
    for name in artifacts:
        assert cfg.path(name).read_bytes() == before[name], name


def test_only_retrieving_stages_build_the_index(cfg):
    store = DiskStore(cfg)
    stage_index(cfg, store)
    assert store["index"]._built is None
    store = DiskStore(cfg)
    stage_simulate(cfg, store)
    assert store["index"]._built is not None  # the probe sees a build
    run_stage("chains", cfg)
    for mode in ("qc", "nc"):
        store = DiskStore(cfg)
        stage_prefs(cfg, store, mode)
        assert store["index"]._built is None


def test_missing_artifact_named_error(cfg):
    run_stage("index", cfg)
    with pytest.raises(StageError, match="log.jsonl.*simulate"):
        run_stage("chains", cfg)


def test_version_mismatch_refused(cfg):
    run_stage("index", cfg)
    run_stage("simulate", cfg)
    meta = cfg.path("log.jsonl.meta.json")
    stamped = json.loads(meta.read_text())
    stamped["version"] = 99
    meta.write_text(json.dumps(stamped))
    with pytest.raises(StageError, match="version 99"):
        run_stage("chains", cfg)


def test_unknown_stage(cfg):
    with pytest.raises(StageError, match="unknown stage"):
        run_stage("compress", cfg)


def test_nc_prefs_subset_of_qc_and_weight_counts(cfg):
    run_stage("index", cfg)
    run_stage("simulate", cfg)
    run_stage("chains", cfg)
    run_stage("prefs", cfg, mode="qc")
    run_stage("prefs", cfg, mode="nc")
    qc_lines = cfg.path("prefs_qc.jsonl").read_text().splitlines()
    nc_lines = cfg.path("prefs_nc.jsonl").read_text().splitlines()
    from collections import Counter
    qc_multi, nc_multi = Counter(qc_lines), Counter(nc_lines)
    assert all(qc_multi[k] >= v for k, v in nc_multi.items())

    run_stage("train", cfg, mode="qc")
    run_stage("train", cfg, mode="nc")
    qc_model = json.loads(cfg.path("model_qc.json").read_text())
    nc_model = json.loads(cfg.path("model_nc.json").read_text())
    n_nonzero = lambda m: sum(1 for r in m["term_doc_weights"] if r["w"] != 0.0)
    assert n_nonzero(qc_model) >= n_nonzero(nc_model)


def test_rerank_stage_injects_learned_docs(cfg):
    run_all_stages(cfg)
    ranking = run_stage("rerank", cfg, query="spectrograf", mode="qc", k=5)
    assert any(e.origin == "term_association" for e in ranking.entries)
    base = run_stage("rerank", cfg, query="spectrograf", mode="base", k=5)
    assert len(base) == 0  # the misspelling matches nothing in the corpus


def test_rerank_stage_returns_a_ranked_list_on_every_side(cfg):
    for stage in ("index", "simulate", "chains"):
        run_stage(stage, cfg)
    for mode in MODES:
        run_stage("prefs", cfg, mode=mode)
        run_stage("train", cfg, mode=mode)
    k = 7
    for side in SIDES:
        assert isinstance(run_stage("rerank", cfg, query="sourdough", mode=side, k=k),
                          RankedList), side
    base = run_stage("rerank", cfg, query="sourdough", mode="base", k=k)
    expected = base_retrieve(DiskStore(cfg)["index"], ["sourdough"], BASE_DEPTH).entries[:k]
    assert expected and base.entries == expected
    assert all(e.origin == "base_results" for e in base.entries)


def test_cli_stages_match_run_experiment(cfg, small_fixture):
    run_all_stages(cfg)
    docs, intents = small_fixture
    art = run_experiment(docs, intents, seed=cfg.seed, sessions=cfg.sessions,
                         eval_sessions=cfg.eval_sessions, max_iters=cfg.max_iters)
    assert json.loads(cfg.path("report.json").read_text(encoding="utf-8")) == art.report
    for mode in ("qc", "nc"):
        text = cfg.path(f"model_{mode}.json").read_text(encoding="utf-8")
        assert text == model_to_json(art.models[mode]), mode


def test_run_experiment_carries_every_behavior_field(small_fixture, monkeypatch):
    behavior = UserBehavior(scan_persistence=0.5, click_noise=0.2, reformulate_prob=0.7)
    assert all(getattr(behavior, f.name) != f.default for f in fields(UserBehavior))
    seen = []
    stage_simulate = pipeline.stage_simulate

    def recording(cfg, store):
        seen.append(cfg.behavior())
        stage_simulate(cfg, store)

    monkeypatch.setattr(pipeline, "stage_simulate", recording)
    docs, intents = small_fixture
    run_experiment(docs, intents, sessions=2, eval_sessions=2, behavior=behavior)
    assert seen == [behavior]


def test_nc_prefs_run_without_the_index(cfg):
    run_stage("index", cfg)
    run_stage("simulate", cfg)
    run_stage("chains", cfg)
    run_stage("prefs", cfg, mode="nc")
    before = {name: cfg.path(name).read_bytes()
              for name in ("prefs_nc.jsonl", "prefs_nc.jsonl.meta.json")}
    for name in ("index.json", *before):
        cfg.path(name).unlink()
    assert cli_main(["prefs", "--mode", "nc", "--config", str(cfg.config_path)]) == 0
    for name, data in before.items():
        assert cfg.path(name).read_bytes() == data, name


def test_report_golden_counts():
    report, text = make_report([
        ("qc", "base", PairEvalResult(wins_a=392, wins_b=239, ties=579, impressions=1210)),
    ])
    pair = report["pairs"][0]
    assert pair["p"] < 0.01
    assert pair["verdict"] == "prefer qc, p < 0.01"
    assert "392 (32%)" in text and "239 (20%)" in text and "579 (48%)" in text


def test_report_indifferent_when_no_wins():
    report, _ = make_report([
        ("qc", "nc", PairEvalResult(wins_a=0, wins_b=0, ties=25, impressions=25)),
    ])
    assert report["pairs"][0]["verdict"] == "indifferent"
    assert report["pairs"][0]["p"] == 1.0


def test_run_experiment_deterministic(small_fixture):
    docs, intents = small_fixture
    kw = dict(seed=5, sessions=60, eval_sessions=30,
              behavior=UserBehavior(click_noise=0.1), max_iters=300)
    a = run_experiment(docs, intents, **kw)
    b = run_experiment(docs, intents, **kw)
    assert a.report == b.report
    assert model_to_json(a.models["qc"]) == model_to_json(b.models["qc"])
    assert all(m.meta["converged"] is True for m in (*a.models.values(), *b.models.values()))


def test_config_validation(tmp_path):
    with pytest.raises(DataError, match="positive"):
        ExperimentConfig(corpus="c", intents="i", sessions=0)
    with pytest.raises(DataError, match="comparison"):
        ExperimentConfig(corpus="c", intents="i", comparisons=[["qc", "qc"]])
    path = tmp_path / "cfg.json"
    path.write_text('{"corpus": "c", "intents": "i", "bogus_field": 1}')
    with pytest.raises(DataError, match="bogus_field"):
        ExperimentConfig.from_file(path)
    with pytest.raises(StageError, match="not found"):
        ExperimentConfig.from_file(tmp_path / "absent.json")


def test_missing_corpus_path_is_stage_error(tmp_path):
    cfg = ExperimentConfig(corpus=str(tmp_path / "nope"), intents="i",
                           workdir=str(tmp_path / "out"))
    with pytest.raises(StageError, match="corpus path"):
        run_stage("index", cfg)


def test_cli_exit_codes(cfg, capsys):
    config_path = str(cfg.config_path)
    assert cli_main(["index", "--config", config_path]) == 0
    # usage error: unknown stage
    assert cli_main(["frobnicate", "--config", config_path]) == 1
    # usage error: missing required option
    assert cli_main(["index"]) == 1
    # data error: chains before simulate
    assert cli_main(["chains", "--config", config_path]) == 2
    capsys.readouterr()



def test_cli_negative_seed_exits_2(cfg, tmp_path, capsys):
    raw = json.loads(cfg.config_path.read_text())
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({**raw, "seed": -1}))
    assert cli_main(["index", "--config", str(cfg.config_path)]) == 0
    assert cli_main(["simulate", "--config", str(path)]) == 2
    assert cli_main(["simulate", "--config", str(cfg.config_path), "--seed", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.count("seed must be non-negative") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["sessions", "seed", "noise"])
def test_cli_bool_config_value_exits_2(cfg, tmp_path, capsys, field):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({**json.loads(cfg.config_path.read_text()), field: True}))
    assert cli_main(["index", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config field {field} must be" in err
    assert "Traceback" not in err


def test_cli_comparison_listed_twice_exits_2(cfg, tmp_path, capsys):
    raw = json.loads(cfg.config_path.read_text())
    path = tmp_path / "twice.json"
    twice = [["qc", "base"], ["qc", "nc"], ["qc", "base"]]
    path.write_text(json.dumps({**raw, "comparisons": twice}))
    assert cli_main(["index", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "comparison ['qc', 'base'] is listed twice" in err
    assert "Traceback" not in err
    # the mirrored pair is a comparison of its own, with its own artifact
    path.write_text(json.dumps({**raw, "comparisons": [["qc", "base"], ["base", "qc"]]}))
    assert cli_main(["index", "--config", str(path)]) == 0


def test_cli_config_directory_exits_2(tmp_path, capsys):
    assert cli_main(["index", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "Traceback" not in err


@pytest.mark.parametrize("upstream, stage, file_of", [
    (["index"], "simulate", lambda cfg: Path(cfg.intents)),
    (["index", "simulate"], "prefs", lambda cfg: cfg.path("chains.jsonl")),
    (["index", "simulate", "chains"], "prefs", lambda cfg: cfg.path("chains.jsonl.meta.json")),
], ids=["intents", "chains-artifact", "chains-sidecar"])
def test_cli_directory_for_file_exits_2(cfg, capsys, upstream, stage, file_of):
    config_path = str(cfg.config_path)
    for name in upstream:
        assert cli_main([name, "--config", config_path]) == 0
    path = file_of(cfg)
    path.unlink(missing_ok=True)
    path.mkdir()
    capsys.readouterr()
    assert cli_main([stage, "--config", config_path]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_cli_version_1_log_refused_exits_2(cfg, capsys):
    config_path = str(cfg.config_path)
    for name in ("index", "simulate"):
        assert cli_main([name, "--config", config_path]) == 0
    meta = cfg.path("log.jsonl.meta.json")
    stamped = json.loads(meta.read_text(encoding="utf-8"))
    assert stamped["version"] == 2
    meta.write_text(json.dumps({**stamped, "version": 1}), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["chains", "--config", config_path]) == 2
    err = capsys.readouterr().err
    assert f"{cfg.path('log.jsonl')} has version 1, expected 2; refusing to use it" in err
    assert "Traceback" not in err


def _write_half_then_fail(write_text):
    def write(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")
    return write


def _refuse_rename(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


def _sidecar_only(fail, real):
    """`fail` when the first argument is a sidecar's temporary file, else `real`."""
    def call(path, *args, **kwargs):
        return (fail if ".meta.json." in Path(path).name else real)(path, *args, **kwargs)
    return call


@pytest.mark.parametrize("fail", ["write", "rename", "sidecar-write"])
def test_failed_put_leaves_previous_artifact_whole(cfg, monkeypatch, fail):
    run_stage("index", cfg)
    run_stage("simulate", cfg)
    workdir = Path(cfg.workdir)
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    shorter = SearchLog(DiskStore(cfg)["log"].events[:10])
    with monkeypatch.context() as patch:
        if fail == "write":
            patch.setattr(Path, "write_text", _write_half_then_fail(Path.write_text))
        elif fail == "rename":
            patch.setattr(os, "replace", _refuse_rename)
        else:  # the artifact's temporary is written, the sidecar's fails half way
            patch.setattr(Path, "write_text", _sidecar_only(
                _write_half_then_fail(Path.write_text), Path.write_text))
        with pytest.raises(StageError, match="cannot write artifact .*log.jsonl"):
            DiskStore(cfg).put("log", shorter, seed=1)
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before
    DiskStore(cfg).put("log", shorter, seed=1)  # unpatched, the same put goes through
    assert DiskStore(cfg)["log"] == shorter
    assert sorted(p.name for p in workdir.iterdir()) == sorted(before)


def test_failed_sidecar_rename_removes_the_new_artifact(cfg, monkeypatch):
    # the artifact is renamed into place, its sidecar is not: left as it
    # was, the new log would be read under the previous run's sidecar
    run_stage("index", cfg)
    run_stage("simulate", cfg)
    run_stage("chains", cfg)
    workdir = Path(cfg.workdir)
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    shorter = SearchLog(DiskStore(cfg)["log"].events[:10])
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", _sidecar_only(_refuse_rename, os.replace))
        with pytest.raises(StageError, match="cannot write artifact .*log.jsonl"):
            DiskStore(cfg).put("log", shorter, seed=1)
    del before["log.jsonl"]
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before
    with pytest.raises(StageError, match=r"missing artifact .*log\.jsonl; run the 'simulate' "
                                         r"stage first"):
        run_stage("chains", cfg)


def test_put_of_a_non_finite_number_is_stage_error(cfg):
    model = fresh_model(FeatureSpace((BASE_FN,)), C=math.inf)  # JSON has no inf
    with pytest.raises(StageError, match=r"cannot write artifact .*model_qc\.json: Out of range"):
        DiskStore(cfg).put("model_qc", model)
    assert not Path(cfg.workdir).exists()


def test_cli_workdir_is_file_exits_2(cfg, tmp_path, capsys):
    workdir = tmp_path / "not-a-dir"
    workdir.write_text("")
    args = ["index", "--config", str(cfg.config_path), "--workdir", str(workdir)]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert str(workdir) in err and "Traceback" not in err


def test_cli_empty_intents_exits_2(cfg, capsys):
    config_path = str(cfg.config_path)
    run_all_stages(cfg)
    Path(cfg.intents).write_text(write_intents([]), encoding="utf-8")
    assert cli_main(["simulate", "--config", config_path]) == 2
    assert cli_main(["interleave", "--config", config_path]) == 2
    err = capsys.readouterr().err
    assert err.count(f"{cfg.intents}: malformed intent file: it lists no intents") == 2
    assert "Traceback" not in err


def test_fixtures_main_too_few_docs_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "fixtures"
    assert fixtures_main([str(out_dir), "--docs", "50"]) == 2
    assert "need at least 300 docs" in capsys.readouterr().err
    assert not out_dir.exists()


def test_fixtures_main_negative_seed_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "fixtures"
    assert fixtures_main([str(out_dir), "--docs", "300", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative, got -1" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("out_name", ["file", "file/sub"])
def test_fixtures_main_unwritable_out_dir_exits_2(tmp_path, capsys, out_name):
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / out_name
    assert fixtures_main([str(out_dir), "--docs", "300"]) == 2
    err = capsys.readouterr().err
    assert str(out_dir) in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_cli_end_to_end(cfg, capsys):
    config_path = str(cfg.config_path)
    for args in (["index"], ["simulate"], ["chains"],
                 ["prefs", "--mode", "qc"], ["prefs", "--mode", "nc"],
                 ["train", "--mode", "qc"], ["train", "--mode", "nc"],
                 ["interleave"], ["report"]):
        assert cli_main(args + ["--config", config_path]) == 0, args
    out = capsys.readouterr().out
    assert "qc vs base" in out
    assert cli_main(["rerank", "--config", config_path,
                     "--query", "sourdough", "--mode", "qc"]) == 0
    out = capsys.readouterr().out
    assert "\t" in out  # doc, score, origin columns


def test_cli_rerank_base_mode(cfg, capsys):
    config_path = str(cfg.config_path)
    assert cli_main(["index", "--config", config_path]) == 0
    capsys.readouterr()
    assert cli_main(["rerank", "--config", config_path,
                     "--query", "sourdough", "--mode", "base"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert rows
    assert all(len(row) == 3 and row[2] == "base_results" for row in rows)


def test_cli_seed_override_changes_artifacts(cfg):
    config_path = str(cfg.config_path)
    assert cli_main(["index", "--config", config_path]) == 0
    assert cli_main(["simulate", "--config", config_path]) == 0
    first = cfg.path("log.jsonl").read_bytes()
    assert cli_main(["simulate", "--config", config_path, "--seed", "99"]) == 0
    assert cfg.path("log.jsonl").read_bytes() != first


def test_cli_log_verbosity_env(cfg, monkeypatch, caplog):
    monkeypatch.setenv("CHAINRANK_LOG", "info")
    import logging
    with caplog.at_level(logging.INFO, logger="chainrank.pipeline"):
        assert cli_main(["index", "--config", str(cfg.config_path)]) == 0
    assert any("indexed" in r.message for r in caplog.records)


@pytest.fixture(scope="module")
def trained_workdir(tmp_path_factory, small_fixture):
    """Config path and workdir after index, simulate, chains, prefs and train (qc)."""
    docs, intents = small_fixture
    root = tmp_path_factory.mktemp("trained")
    (root / "corpus.jsonl").write_text(documents_to_jsonl(docs), encoding="utf-8")
    (root / "intents.json").write_text(write_intents(intents), encoding="utf-8")
    cfg_path = root / "experiment.json"
    cfg_path.write_text(json.dumps({
        "corpus": str(root / "corpus.jsonl"), "intents": str(root / "intents.json"),
        "workdir": str(root / "out"), "seed": 11, "sessions": 80, "max_iters": 3000,
    }))
    cfg = ExperimentConfig.from_file(cfg_path)
    for stage in ("index", "simulate", "chains", "prefs", "train"):
        run_stage(stage, cfg)
    return cfg_path, root / "out"


def _edit_object(edit):
    def corrupt(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)
    return corrupt


def _drop_term_doc_weights(text):
    payload = json.loads(text)
    del payload["term_doc_weights"]
    return json.dumps(payload)


def _foreign_thresholds(text):
    payload = json.loads(text)
    payload["thresholds"] = list(range(2, 30))
    return json.dumps(payload)


def _foreign_base_functions(text):
    payload = json.loads(text)
    payload["base_functions"] = ["base", "alt"]
    payload["rank_weights"]["alt"] = payload["rank_weights"]["base"]
    return json.dumps(payload)


def _drop_first_title(text):
    payload = json.loads(text)
    del payload["documents"][0]["title"]
    return json.dumps(payload)


@pytest.mark.parametrize("artifact, corrupt, named", [
    ("model_qc.json", lambda text: text[: len(text) // 2], "model artifact"),
    ("model_qc.json", _drop_term_doc_weights, "model artifact"),
    ("model_qc.json", _foreign_thresholds, "model artifact"),
    ("model_qc.json", _foreign_base_functions, "model artifact"),
    ("model_qc.json", _edit_object(lambda p: p["term_doc_weights"][0].update(w="2.98e-08")),
     "model artifact"),
    ("model_qc.json", _edit_object(lambda p: p["rank_weights"]["base"].__setitem__(0, True)),
     "model artifact"),
    ("model_qc.json", _edit_object(lambda p: p.update(C="1.0")), "model artifact"),
    ("model_qc.json", _edit_object(lambda p: p.update(w_min="0.0")), "model artifact"),
    ("model_qc.json", _edit_object(lambda p: p["term_doc_weights"][0].update(term=5)),
     "model artifact"),
    ("index.json", _drop_first_title, "index artifact"),
], ids=["truncated-model", "model-without-term-weights", "model-with-foreign-thresholds",
        "model-with-foreign-base-functions", "model-weight-string", "model-rank-weight-bool",
        "model-C-string", "model-w_min-string", "model-term-not-string",
        "index-record-without-title"])
def test_cli_malformed_artifact_is_data_error(trained_workdir, tmp_path, capsys, artifact,
                                              corrupt, named):
    cfg_path, workdir = trained_workdir
    shutil.copytree(workdir, tmp_path / "out")
    path = tmp_path / "out" / artifact
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    code = cli_main(["rerank", "--config", str(cfg_path), "--workdir", str(tmp_path / "out"),
                     "--query", "sourdough", "--mode", "qc"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert named in err


def test_cli_rerank_rejects_k_below_one(trained_workdir, capsys):
    cfg_path, _ = trained_workdir
    capsys.readouterr()
    for k in ("0", "-3"):
        assert cli_main(["rerank", "--config", str(cfg_path), "--query", "sourdough",
                         "--k", k]) == 1
        err = capsys.readouterr().err
        assert "--k" in err and "Traceback" not in err


def test_build_constraints_match_phi_oracle(small_fixture):
    docs, intents = small_fixture
    corpus = build_index(docs)
    searchlog, _ = simulate(corpus, base_ranker(corpus), intents,
                            UserBehavior(click_noise=0.1), 60, 5)
    chain_list = segment_log(searchlog, DEFAULT_WINDOW_SECONDS)
    queries = searchlog.queries()
    for mode in ("qc", "nc"):
        prefs = prefs_for_log(searchlog, chain_list, mode, corpus.doc_ids(), 6)
        assert prefs
        space, oracle_space = FeatureSpace((BASE_FN,)), FeatureSpace((BASE_FN,))
        constraints = build_constraints(prefs, searchlog, space)
        assert len(constraints) == len(prefs)
        for p, c in zip(prefs, constraints):
            q = queries[p.wrt_query]
            ranks = q.results

            def rank(doc):
                return ranks.index(doc) + 1 if doc in ranks else None

            expected = (
                phi(oracle_space, p.preferred_doc, q.terms, rank(p.preferred_doc))
                - phi(oracle_space, p.other_doc, q.terms, rank(p.other_doc))
            )
            assert c.delta == expected
        assert space.term_doc_pairs() == oracle_space.term_doc_pairs()


def _two_term_log(rankings: list[list[str]]) -> SearchLog:
    """One session, one query per ranking, every query on the terms alpha and beta."""
    return SearchLog([make_query(f"q{i}", "s1", 10 * i, ["beta", "alpha"] if i % 2 else
                                 ["alpha", "beta"], docs) for i, docs in enumerate(rankings)])


def test_build_constraints_returns_a_repeated_constraint_itself():
    # d2 over d1 at the same ranks of two queries on the same terms is one constraint;
    # at other ranks it is another
    searchlog = _two_term_log([["d1", "d2", "d3"], ["d1", "d2", "d3"], ["d3", "d1", "d2"]])
    prefs = [Preference("d2", "d1", qid, Strategy.CLICK_SKIP_ABOVE) for qid in ("q0", "q1", "q2")]
    space = FeatureSpace((BASE_FN,))
    first, repeat, other = build_constraints(prefs, searchlog, space)
    assert repeat is first
    assert other is not first and other.delta != first.delta
    oracle = FeatureSpace((BASE_FN,))
    terms = ["alpha", "beta"]
    assert first.delta == phi(oracle, "d2", terms, 2) - phi(oracle, "d1", terms, 1)
    assert space.term_doc_pairs() == oracle.term_doc_pairs()


def test_equal_constraints_of_different_keys_merge_in_the_solver():
    # both documents absent, then both at ranks 11 and 12, which share a first
    # threshold: two keys, one delta (the term ids alone), one row of weight 2
    filler = [f"f{i}" for i in range(10)]
    searchlog = _two_term_log([["d3"], filler + ["d1", "d2"]])
    prefs = [Preference("d2", "d1", qid, Strategy.CLICK_SKIP_ABOVE) for qid in ("q0", "q1")]
    space = FeatureSpace((BASE_FN,))
    absent, same_threshold = build_constraints(prefs, searchlog, space)
    assert absent is not same_threshold
    assert absent.delta == same_threshold.delta
    assert all(fid >= N_RANK_FEATURES for fid in absent.delta.ids)
    rows, counts, dropped = _aggregate([absent, same_threshold], space.dim)
    assert len(rows) == 1 and counts == [2] and dropped == 0


@pytest.mark.parametrize("pair", ["qc", "qc,zz", "qc,qc"])
def test_cli_interleave_rejects_bad_pair(trained_workdir, capsys, pair):
    cfg_path, _ = trained_workdir
    capsys.readouterr()
    assert cli_main(["interleave", "--config", str(cfg_path), "--pair", pair]) == 1
    err = capsys.readouterr().err
    assert "--pair" in err and "Traceback" not in err


def _point_config_at(root):
    """Make root/experiment.json read its inputs from root and write under root/out."""
    path = root / "experiment.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw.update(corpus=str(root / "corpus.jsonl"), intents=str(root / "intents.json"),
               workdir=str(root / "out"))
    path.write_text(json.dumps(raw), encoding="utf-8")


@pytest.fixture(scope="module")
def evaluated_run(tmp_path_factory, trained_workdir):
    """A self-contained copy of the trained run directory plus eval_qc_vs_base.json."""
    cfg_path, _ = trained_workdir
    root = tmp_path_factory.mktemp("evaluated")
    shutil.copytree(cfg_path.parent, root, dirs_exist_ok=True)
    _point_config_at(root)
    cfg = ExperimentConfig.from_file(root / "experiment.json", {"eval_sessions": 40})
    run_stage("interleave", cfg, pair=("qc", "base"))
    return root


def _edit_line(n, edit):
    """Replace line n (1-based) of a JSON-lines text by edit(line)."""
    def corrupt(text):
        lines = text.splitlines()
        lines[n - 1] = edit(lines[n - 1])
        return "\n".join(lines) + "\n"
    return corrupt


def _edit_record(n, edit):
    """Apply edit(record) to the object on line n of a JSON-lines text."""
    def change(line):
        rec = json.loads(line)
        edit(rec)
        return json.dumps(rec)
    return _edit_line(n, change)


def _edit_records(edit):
    """Apply edit(records) to the list of objects of a JSON-lines text."""
    def corrupt(text):
        records = [json.loads(line) for line in text.splitlines()]
        edit(records)
        return "".join(json.dumps(rec) + "\n" for rec in records)
    return corrupt


def _edit_intents(edit):
    """Apply edit(intents) to the list of intent records of an intents file."""
    return _edit_object(lambda payload: edit(payload["intents"]))


def _truncate(text):
    return text[: len(text) // 2]


def _repeat_first_qid(records):
    """Give the second query record, and its clicks, the query id of the first."""
    first, second = [r["qid"] for r in records if r["type"] == "query"][:2]
    for r in records:
        if r["qid"] == second:
            r["qid"] = first


# (file in the run directory, corruption, the stage that reads the file)
FAULTS = {
    "log-session-not-string": ("out/log.jsonl", _edit_record(1, lambda r: r.update(session=5)),
                               ["chains"]),
    "log-truncated-line": ("out/log.jsonl", _edit_line(3, _truncate), ["chains"]),
    "log-infinite-time": ("out/log.jsonl", _edit_record(1, lambda r: r.update(t=float("inf"))),
                          ["chains"]),
    "log-repeated-qid": ("out/log.jsonl", _edit_records(_repeat_first_qid), ["chains"]),
    "chains-truncated-line": ("out/chains.jsonl", _edit_line(2, _truncate),
                              ["prefs", "--mode", "qc"]),
    "chains-array-line": ("out/chains.jsonl", _edit_line(2, lambda line: "[1]"),
                          ["prefs", "--mode", "qc"]),
    "chains-no-chain-id": ("out/chains.jsonl", _edit_record(1, lambda r: r.pop("chain_id")),
                           ["prefs", "--mode", "qc"]),
    "chains-repeated-chain-id": ("out/chains.jsonl",
                                 _edit_records(lambda rs: rs[1].update(chain_id=rs[0]["chain_id"])),
                                 ["prefs", "--mode", "qc"]),
    "chains-qid-in-two-chains": ("out/chains.jsonl",
                                 _edit_records(lambda rs: rs[1].update(session=rs[0]["session"],
                                                                       qids=rs[0]["qids"][:1])),
                                 ["prefs", "--mode", "qc"]),
    "chains-other-session": ("out/chains.jsonl",
                             _edit_record(1, lambda r: r.update(session=r["session"] + "x")),
                             ["prefs", "--mode", "qc"]),
    "prefs-array-line": ("out/prefs_qc.jsonl", _edit_line(4, lambda line: "[1]"),
                         ["train", "--mode", "qc"]),
    "log-meta-truncated": ("out/log.jsonl.meta.json", _truncate, ["chains"]),
    "log-meta-array": ("out/log.jsonl.meta.json", lambda text: "[]", ["chains"]),
    "eval-truncated": ("out/eval_qc_vs_base.json", _truncate, ["report"]),
    "eval-array": ("out/eval_qc_vs_base.json", lambda text: "[]", ["report"]),
    "eval-no-wins-a": ("out/eval_qc_vs_base.json", _edit_object(lambda p: p.pop("wins_a")),
                       ["report"]),
    "eval-wins-b-bool": ("out/eval_qc_vs_base.json", _edit_object(lambda p: p.update(wins_b=True)),
                         ["report"]),
    "eval-negative-wins-b": ("out/eval_qc_vs_base.json", _edit_object(lambda p: p.update(wins_b=-5)),
                             ["report"]),
    "eval-wrong-version": ("out/eval_qc_vs_base.json", _edit_object(lambda p: p.update(version=2)),
                           ["report"]),
    "intents-truncated": ("intents.json", _truncate, ["simulate"]),
    "intents-array": ("intents.json", lambda text: "[]", ["simulate"]),
    "intents-grade-bool": ("intents.json", _edit_intents(lambda its: its[0].update(
        relevant_docs=dict.fromkeys(its[0]["relevant_docs"], True))), ["simulate"]),
    "intents-docs-list": ("intents.json", _edit_intents(lambda its: its[0].update(
        relevant_docs=list(its[0]["relevant_docs"].items()))), ["simulate"]),
    "intents-duplicate-id": ("intents.json", _edit_intents(lambda its: its[1].update(
        intent_id=its[0]["intent_id"])), ["simulate"]),
    "intents-term-not-a-token": ("intents.json", _edit_intents(lambda its: its[0].update(
        query_script=[["Spectrograf"]] + its[0]["query_script"])), ["simulate"]),
    "corpus-title-not-string": ("corpus.jsonl", _edit_record(2, lambda r: r.update(title=5)),
                                ["index"]),
    "corpus-array-line": ("corpus.jsonl", _edit_line(2, lambda line: "[1]"), ["index"]),
    "config-array": ("experiment.json", lambda text: "[]", ["index"]),
    "config-sessions-string": ("experiment.json", _edit_object(lambda p: p.update(sessions="10")),
                               ["index"]),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_cli_corrupt_file_exits_2_naming_it(evaluated_run, tmp_path, capsys, fault):
    target, corrupt, stage = FAULTS[fault]
    root = tmp_path / "run"
    shutil.copytree(evaluated_run, root)
    _point_config_at(root)
    path = root / target
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    code = cli_main(stage + ["--config", str(root / "experiment.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert path.name in err, err


@pytest.mark.parametrize("artifact, stage, producer", [
    ("log.jsonl", ["chains"], "simulate"),
    ("index.json", ["simulate"], "index"),
    ("model_qc.json", ["interleave", "--pair", "qc,base"], "train"),
], ids=["log", "index", "model_qc"])
def test_cli_missing_sidecar_exits_2_naming_it(evaluated_run, tmp_path, capsys, artifact, stage,
                                               producer):
    root = tmp_path / "run"
    shutil.copytree(evaluated_run, root)
    _point_config_at(root)
    sidecar = root / "out" / f"{artifact}.meta.json"
    sidecar.unlink()
    capsys.readouterr()
    code = cli_main(stage + ["--config", str(root / "experiment.json")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert f"missing sidecar {sidecar}; run the '{producer}' stage again" in err, err


def test_cli_model_of_another_version_exits_2(evaluated_run, tmp_path, capsys):
    root = tmp_path / "run"
    shutil.copytree(evaluated_run, root)
    _point_config_at(root)
    sidecar = root / "out" / "model_qc.json.meta.json"
    assert json.loads(sidecar.read_text(encoding="utf-8")) == {"stage": "train", "version": 1}
    sidecar.write_text(json.dumps({"stage": "train", "version": 2}), encoding="utf-8")
    capsys.readouterr()
    code = cli_main(["rerank", "--config", str(root / "experiment.json"), "--query", "sourdough"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert f"{root / 'out' / 'model_qc.json'} has version 2, expected 1" in err, err
