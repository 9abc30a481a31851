"""Experiment orchestration: one staged pipeline over an artifact store.

Stages (index, simulate, chains, prefs, train, rerank, interleave, report)
are functions `(cfg, store, **kw)`: each reads its inputs from the store by
artifact name and puts its outputs back.  `run_all` holds their order, index
to report, once.  Two stores exist.  `MemoryStore` keeps live objects:
`run_experiment` is `run_all` over it.  `DiskStore` is a `MemoryStore` that
loads what it does not hold from the working directory and writes each `put`
through, every artifact as a file plus a versioned sidecar: the CLI runs one
stage over it, or `run_all` (`chainrank run`).  Every path runs the same stage
bodies, so their reports and models agree byte for byte.

Every stage is deterministic: a rerun with identical inputs reproduces each
artifact byte for byte.  Every stage draws randomness from a generator
derived from (config seed, stage number).
"""

from __future__ import annotations

import contextlib
import logging
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .chains import DEFAULT_WINDOW_SECONDS, read_chains, segment_log, write_chains
from .corpus import (BASE_DEPTH, INDEX_VERSION, RESULTS_PER_QUERY, Corpus, RankedList, base_retrieve,
                     build_index, index_from_json, index_to_json, load_documents, tokenize)
from .errors import DataError, StageError, canonical_json, integer, json_object, malformed
from .features import BASE_FN, N_RANK_FEATURES, FeatureSpace, SparseVector, first_threshold
from .feedback import MODES, Preference, prefs_for_log, read_preferences, strategy_counts, write_preferences
from .interleave import sign_test
from .logs import LOG_VERSION, SearchLog, parse_log, write_log
from .ranking import RerankRequest, rerank
from .simulate import (Intent, PairEvalResult, UserBehavior, interleaved_evals, read_intents,
                       read_truth, simulate, write_truth)
from .solver import (DEFAULT_C, DEFAULT_MAX_ITERS, DEFAULT_TOLERANCE, DEFAULT_W_MIN, MODEL_VERSION,
                     Model, PreferenceConstraint, fit_model, model_from_json, model_to_json)

log = logging.getLogger(__name__)

ARTIFACT_VERSION = 1
_STAGE_SEEDS = {"simulate": 1, "prefs": 2, "interleave": 3}


SIDES = ("base", *MODES)  # the rankers an interleaved comparison can name
_SCALAR_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real}


def is_comparison(pair) -> bool:
    """Two different sides, each one of SIDES."""
    return len(pair) == 2 and set(pair) <= set(SIDES) and pair[0] != pair[1]


@dataclass
class ExperimentConfig:
    corpus: str
    intents: str
    workdir: str = "out"
    seed: int = 7
    sessions: int = 2000
    eval_sessions: int = 1000
    results_per_query: int = RESULTS_PER_QUERY
    window_seconds: int = DEFAULT_WINDOW_SECONDS
    C: float = DEFAULT_C
    w_min: float = DEFAULT_W_MIN
    tolerance: float = DEFAULT_TOLERANCE
    max_iters: int = DEFAULT_MAX_ITERS
    noise: float = 0.1
    scan_persistence: float = UserBehavior.scan_persistence
    reformulate_prob: float = UserBehavior.reformulate_prob
    comparisons: list[list[str]] = field(
        default_factory=lambda: [["qc", "base"], ["qc", "nc"]]
    )

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's text, e.g. "int"
            v = getattr(self, f.name)  # a bool is an Integral, but no field takes one
            if isinstance(v, bool) or not isinstance(v, _SCALAR_TYPES.get(f.type, object)):
                raise TypeError(f"config field {f.name} must be {f.type}: {v!r}")
            # JSON's 1e400 reads as inf, and an int past the float range cannot become one
            if f.type == "float" and not abs(v) <= sys.float_info.max:
                raise DataError(f"config field {f.name} must be a finite float, got {v}")
        for name in ("sessions", "eval_sessions", "results_per_query", "window_seconds",
                     "C", "w_min", "tolerance", "max_iters"):
            if getattr(self, name) <= 0:
                raise DataError(f"config field {name} must be positive")
        if self.seed < 0:
            raise DataError(f"config field seed must be non-negative, got {self.seed}")
        if self.results_per_query > BASE_DEPTH:  # a logged query holds at most BASE_DEPTH results
            raise DataError(f"config field results_per_query must be at most {BASE_DEPTH}, "
                            f"got {self.results_per_query}")
        for name in ("noise", "scan_persistence", "reformulate_prob"):
            if not 0 <= getattr(self, name) <= 1:
                raise DataError(f"config field {name} must be in [0, 1], got {getattr(self, name)}")
        listed = set()
        for pair in self.comparisons:
            if not is_comparison(pair):
                raise DataError(f"bad comparison {pair}; sides must be two of {sorted(SIDES)}")
            if tuple(pair) in listed:  # it would write one eval artifact twice
                raise DataError(f"comparison {pair} is listed twice")
            listed.add(tuple(pair))

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            raise StageError(f"config file not found: {path}")
        except OSError as exc:
            raise StageError(f"cannot read config file {path}: {exc.strerror or exc}")
        raw = json_object(text, f"config file {path}")
        raw.update(overrides or {})
        with malformed(f"config file {path}"):  # an unknown field is a TypeError here
            return cls(**raw)

    def behavior(self) -> UserBehavior:
        return UserBehavior(
            scan_persistence=self.scan_persistence,
            click_noise=self.noise,
            reformulate_prob=self.reformulate_prob,
        )

    def path(self, name: str) -> Path:
        return Path(self.workdir) / name


def _stage_seed(seed: int, stage: str) -> int:
    return int(np.random.SeedSequence([seed, _STAGE_SEEDS[stage]]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Artifact stores


def _parse_eval(text: str) -> dict:
    raw = json_object(text, "eval artifact", ARTIFACT_VERSION)
    with malformed("eval artifact"):
        for key in ("wins_a", "wins_b", "ties", "impressions"):
            if integer(raw[key]) < 0:
                raise ValueError(f"{key} must be non-negative, got {raw[key]}")
    return raw


@dataclass(frozen=True)
class _Format:
    """How one kind of artifact lives on disk."""

    suffix: str
    producer: str  # the stage that writes it
    dump: Callable[[Any], str]
    parse: Callable[..., Any]  # artifact text, then the artifacts named in `needs`
    needs: tuple[str, ...] = ()
    version: int = ARTIFACT_VERSION  # the version its sidecar stamps and requires


# Keyed by the artifact name up to its first "_": prefs_qc, model_nc, eval_qc_vs_base, ...
_FORMATS = {
    "index": _Format(".json", "index", index_to_json, index_from_json, version=INDEX_VERSION),
    "log": _Format(".jsonl", "simulate", write_log, parse_log, version=LOG_VERSION),
    "truth": _Format(".jsonl", "simulate", write_truth, read_truth),
    "chains": _Format(".jsonl", "chains", write_chains, read_chains, needs=("log",)),
    "prefs": _Format(".jsonl", "prefs", write_preferences, read_preferences),
    "model": _Format(".json", "train", model_to_json, model_from_json, version=MODEL_VERSION),
    "eval": _Format(".json", "interleave", canonical_json, _parse_eval),
    "report": _Format(".json", "report", canonical_json,
                      lambda text: json_object(text, "report artifact")),
}

# Experiment inputs: config field holding the path, what it is, loader.
_INPUTS = {
    "docs": ("corpus", "corpus path", load_documents),
    "intents": ("intents", "intent fixture",
                lambda path: read_intents(path.read_text(encoding="utf-8"))),
}


def _read(path: Path, read: Callable[[], Any]):
    """`read()`, with its DataError naming `path` and an OSError as a StageError."""
    try:
        return read()
    except OSError as exc:  # say, a directory where the file should be
        raise StageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (DataError, UnicodeDecodeError) as exc:
        if str(path) in str(exc):  # the reader named the file already
            raise
        raise DataError(f"{path}: {exc}") from exc


def _write_atomic(files: list[tuple[Path, str]]) -> None:
    """Write each text to a temporary file beside its path, then rename them
    into place in order.

    Every temporary is written before any rename, so a failed write leaves
    every path as it was, and no temporary file.  If a rename fails, the
    files renamed before it are unlinked: none of them is left beside a file
    of the previous write.  A rename survives a crash of the process; nothing
    is fsynced, so it does not promise to survive a power loss.
    """
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path, _ in files]
    renamed = []
    try:
        for tmp, (_, text) in zip(temps, files):
            tmp.write_text(text, encoding="utf-8")
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
            renamed.append(path)
    except BaseException:  # the temporaries not renamed, and the new files that were
        for leftover in temps[len(renamed):] + renamed:
            with contextlib.suppress(OSError):
                leftover.unlink()
        raise


class MemoryStore(dict):
    """Artifacts as live objects keyed by name; `put` drops the provenance meta."""

    def put(self, name: str, value, **meta) -> None:
        self[name] = value


class DiskStore(MemoryStore):
    """A MemoryStore that loads a name it does not hold from the config's
    workdir (inputs from the paths it names), and writes through on `put`.

    Every artifact is a file plus a `.meta.json` sidecar of its producing
    stage and format version.  Loading one checks that both exist and that
    the sidecar carries the format's version, then parses the file.  Every
    DataError from reading an artifact or input names its file, and an
    OSError from that read is a StageError that names it.
    """

    def __init__(self, cfg: ExperimentConfig):
        super().__init__()
        self.cfg = cfg

    def _file(self, name: str) -> tuple[_Format, Path, Path]:
        """(format, artifact path, sidecar path) of a named artifact."""
        fmt = _FORMATS[name.partition("_")[0]]
        path = self.cfg.path(name + fmt.suffix)
        return fmt, path, path.with_name(path.name + ".meta.json")

    def __missing__(self, name: str):
        value = self[name] = self._load(name)
        return value

    def _load(self, name: str):
        if name in _INPUTS:
            key, what, load = _INPUTS[name]
            path = Path(getattr(self.cfg, key))
            if not path.exists():
                raise StageError(f"{what} does not exist: {path}")
            return _read(path, lambda: load(path))
        fmt, path, meta_path = self._file(name)
        if not path.exists():
            raise StageError(f"missing artifact {path}; run the '{fmt.producer}' stage first")
        if not meta_path.exists():
            raise StageError(f"missing sidecar {meta_path}; run the '{fmt.producer}' stage again")
        meta = _read(meta_path, lambda: json_object(meta_path.read_text(encoding="utf-8"),
                                                    f"sidecar {meta_path}"))
        if meta.get("version") != fmt.version:
            raise StageError(f"artifact {path} has version {meta.get('version')}, "
                             f"expected {fmt.version}; refusing to use it")
        upstream = [self[n] for n in fmt.needs]  # their errors name their own files
        return _read(path, lambda: fmt.parse(path.read_text(encoding="utf-8"), *upstream))

    def put(self, name: str, value, **meta) -> None:
        """Write `value`, plus a sidecar of version, producing stage and `meta`.

        A failed write leaves the previous artifact and sidecar whole.  If
        the sidecar cannot be renamed into place after the artifact was, the
        new artifact is removed, so the next stage stops on a missing
        artifact instead of reading it under the previous sidecar.  An
        OSError on the way (say, a workdir that is a file), or a value JSON
        cannot hold (a non-finite float), is a StageError.
        """
        fmt, path, meta_path = self._file(name)
        try:
            files = [(path, fmt.dump(value)), (meta_path, canonical_json(
                {"version": fmt.version, "stage": fmt.producer, **meta}))]
            path.parent.mkdir(parents=True, exist_ok=True)
            _write_atomic(files)
        except (OSError, ValueError) as exc:
            raise StageError(f"cannot write artifact {path}: {exc}") from exc
        super().put(name, value)
        log.debug("wrote %s", path)


def _memoized(rank: Callable[[list[str], int], RankedList]):
    """`rank` memoized per (terms, k): queries repeat heavily, and a repeat gets the same list."""
    cache: dict = {}

    def ranker(terms: list[str], k: int) -> RankedList:
        key = (tuple(terms), k)
        if key not in cache:
            cache[key] = rank(list(terms), k)
        return cache[key]

    return ranker


def base_ranker(corpus: Corpus):
    """Memoizing baseline ranker: the top k of `base_retrieve`."""
    return _memoized(lambda terms, k: base_retrieve(corpus, terms, k))


def model_ranker(corpus: Corpus, model: Model):
    """Memoizing ranker serving a learned model over a fresh base ranking."""
    return _memoized(lambda terms, k: rerank(
        RerankRequest(terms, {BASE_FN: base_retrieve(corpus, terms, BASE_DEPTH)}, model, k)))


def build_constraints(
    prefs: list[Preference], searchlog: SearchLog, space: FeatureSpace
) -> list[PreferenceConstraint]:
    """Turn preferences into feature-difference constraints over a log's rankings.

    Each delta equals `phi(preferred) - phi(other)`, written directly: the
    rank block is a +-1 run between the two documents' first firing
    thresholds (an absent document fires none), then the term/document ids,
    the preferred document's grown first, merged by id.  A delta depends
    only on (query terms, both thresholds, both documents), so each distinct
    one is built once, at its first occurrence, and a repeat is the same
    object.
    """
    queries = searchlog.queries()
    per_query: dict[str, tuple[dict[str, int], tuple[str, ...]]] = {}
    built: dict[tuple, PreferenceConstraint] = {}
    constraints = []
    for p in prefs:
        cached = per_query.get(p.wrt_query)
        if cached is None:
            q = queries.get(p.wrt_query)
            if q is None:
                raise DataError(f"preference references unknown query {p.wrt_query}")
            first = {doc: first_threshold(i) for i, doc in enumerate(q.results, start=1)}
            cached = per_query[p.wrt_query] = (first, tuple(sorted(set(q.terms))))
        first, terms = cached
        a = first.get(p.preferred_doc, N_RANK_FEATURES)
        b = first.get(p.other_doc, N_RANK_FEATURES)
        key = (terms, a, b, p.preferred_doc, p.other_doc)
        constraint = built.get(key)
        if constraint is None:
            ids = list(range(min(a, b), max(a, b)))
            values = [1.0 if a < b else -1.0] * len(ids)
            term_items = [(space.term_doc_id(t, p.preferred_doc), 1.0) for t in terms]
            term_items += [(space.term_doc_id(t, p.other_doc), -1.0) for t in terms]
            for fid, v in sorted(item for item in term_items if item[0] is not None):
                ids.append(fid)
                values.append(v)
            constraint = built[key] = PreferenceConstraint(SparseVector(tuple(ids), tuple(values)))
        constraints.append(constraint)
    return constraints


def make_report(outcomes: list[tuple[str, str, PairEvalResult]]) -> tuple[dict, str]:
    """Summarize interleaved comparisons: counts, sign-test p, 99% verdicts."""
    pairs = []
    lines = [f"{'comparison':<14} {'wins A':>10} {'wins B':>10} {'ties':>10} "
             f"{'p':>10}  verdict"]
    for name_a, name_b, res in outcomes:
        p = sign_test(res.wins_a, res.wins_b)
        total = res.wins_a + res.wins_b + res.ties
        if p < 0.01 and res.wins_a != res.wins_b:
            winner = name_a if res.wins_a > res.wins_b else name_b
            verdict = f"prefer {winner}, p < 0.01"
        else:
            verdict = "indifferent"

        def pct(n):
            return f"{n} ({round(100 * n / total)}%)" if total else f"{n}"

        pairs.append({
            "modes": f"{name_a}_vs_{name_b}",
            "wins_a": res.wins_a,
            "wins_b": res.wins_b,
            "ties": res.ties,
            "impressions": total,
            "p": p,
            "verdict": verdict,
        })
        lines.append(
            f"{name_a + ' vs ' + name_b:<14} {pct(res.wins_a):>10} {pct(res.wins_b):>10} "
            f"{pct(res.ties):>10} {p:>10.3g}  {verdict}"
        )
    return {"version": ARTIFACT_VERSION, "pairs": pairs}, "\n".join(lines)


@dataclass
class ExperimentArtifacts:
    corpus: Corpus
    log: SearchLog
    truth: list
    chains: list
    prefs: dict[str, list[Preference]]
    models: dict[str, Model]
    outcomes: list[tuple[str, str, PairEvalResult]]
    report: dict
    report_text: str


# ---------------------------------------------------------------------------
# Stages: (cfg, store, **kw) -> read inputs from the store, put outputs back


def stage_index(cfg: ExperimentConfig, store) -> None:
    corpus = build_index(store["docs"])
    store.put("index", corpus)
    log.info("indexed %d documents", len(corpus))


def stage_simulate(cfg: ExperimentConfig, store) -> None:
    corpus = store["index"]
    seed = _stage_seed(cfg.seed, "simulate")
    searchlog, truth = simulate(
        corpus, base_ranker(corpus), store["intents"], cfg.behavior(),
        cfg.sessions, seed, cfg.results_per_query,
    )
    store.put("log", searchlog, seed=seed, sessions=cfg.sessions)
    store.put("truth", truth, seed=seed)
    log.info("simulated %d sessions, %d events", cfg.sessions, len(searchlog))


def stage_chains(cfg: ExperimentConfig, store) -> None:
    chain_list = segment_log(store["log"], cfg.window_seconds)
    store.put("chains", chain_list, window_seconds=cfg.window_seconds, n_chains=len(chain_list))
    log.info("segmented %d chains", len(chain_list))


def stage_prefs(cfg: ExperimentConfig, store, mode: str = "qc") -> None:
    searchlog, chain_list = store["log"], store["chains"]
    seed = _stage_seed(cfg.seed, "prefs")
    pool = store["index"].doc_ids() if mode == "qc" else None  # only qc pads with documents
    prefs = prefs_for_log(searchlog, chain_list, mode, pool, seed)
    store.put(f"prefs_{mode}", prefs, mode=mode, seed=seed, counts=strategy_counts(prefs))
    log.info("generated %d %s preferences", len(prefs), mode)


def stage_train(cfg: ExperimentConfig, store, mode: str = "qc") -> None:
    searchlog, prefs = store["log"], store[f"prefs_{mode}"]
    space = FeatureSpace((BASE_FN,))
    model = fit_model(space, build_constraints(prefs, searchlog, space), C=cfg.C,
                      w_min=cfg.w_min, tolerance=cfg.tolerance, max_iters=cfg.max_iters)
    store.put(f"model_{mode}", model)
    log.info("trained %s model (%s constraints)", mode, model.meta.get("n_constraints"))


def _ranker(store, side: str):
    corpus = store["index"]
    return base_ranker(corpus) if side == "base" else model_ranker(corpus, store[f"model_{side}"])


def stage_rerank(cfg: ExperimentConfig, store, query: str, mode: str = "qc",
                 k: int | None = None) -> RankedList:
    return _ranker(store, mode)(tokenize(query), k if k is not None else cfg.results_per_query)


def stage_interleave(cfg: ExperimentConfig, store, pair: tuple[str, str] | None = None) -> None:
    intents = store["intents"]
    seed = _stage_seed(cfg.seed, "interleave")
    pairs = [pair] if pair else cfg.comparisons
    rankers = {side: _ranker(store, side) for side in sorted({s for p in pairs for s in p})}
    results = interleaved_evals([(rankers[a], rankers[b]) for a, b in pairs], intents,
                                cfg.behavior(), cfg.eval_sessions, seed, cfg.results_per_query)
    for (a, b), res in zip(pairs, results):
        payload = {"version": ARTIFACT_VERSION, "modes": f"{a}_vs_{b}", **asdict(res), "seed": seed}
        store.put(f"eval_{a}_vs_{b}", payload, seed=seed)
        log.info("interleaved %s vs %s: %d/%d/%d", a, b, res.wins_a, res.wins_b, res.ties)


def _outcomes(cfg: ExperimentConfig, store) -> list[tuple[str, str, PairEvalResult]]:
    out = []
    for a, b in cfg.comparisons:
        raw = store[f"eval_{a}_vs_{b}"]
        out.append((a, b, PairEvalResult(raw["wins_a"], raw["wins_b"], raw["ties"],
                                         raw["impressions"])))
    return out


def stage_report(cfg: ExperimentConfig, store) -> tuple[dict, str]:
    report, text = make_report(_outcomes(cfg, store))
    store.put("report", report)
    return report, text


def run_all(cfg: ExperimentConfig, store) -> tuple[dict, str]:
    """Every stage in order over one store, index to report; prefs and train
    run for each mode that `cfg.comparisons` names, in sorted order."""
    stage_index(cfg, store)
    stage_simulate(cfg, store)
    stage_chains(cfg, store)
    for mode in sorted({side for pair in cfg.comparisons for side in pair} - {"base"}):
        stage_prefs(cfg, store, mode)
        stage_train(cfg, store, mode)
    stage_interleave(cfg, store)
    return stage_report(cfg, store)


STAGES = {
    "index": stage_index,
    "simulate": stage_simulate,
    "chains": stage_chains,
    "prefs": stage_prefs,
    "train": stage_train,
    "rerank": stage_rerank,
    "interleave": stage_interleave,
    "report": stage_report,
    "run": run_all,
}


def run_stage(name: str, cfg: ExperimentConfig, **kwargs):
    """Run one named stage, or `run` for all of them, over one DiskStore of the
    config's working directory; unknown names raise StageError."""
    if name not in STAGES:
        raise StageError(f"unknown stage {name!r}; expected one of {sorted(STAGES)}")
    return STAGES[name](cfg, DiskStore(cfg), **kwargs)


def run_experiment(
    docs,
    intents: list[Intent],
    *,
    sessions: int = 200,
    eval_sessions: int = 100,
    behavior: UserBehavior | None = None,
    **config,
) -> ExperimentArtifacts:
    """`run_all` over a memory store that holds `docs` and `intents`.

    Keyword arguments are `ExperimentConfig` fields and take its defaults,
    except the smaller session counts.  `behavior` sets `noise`,
    `scan_persistence` and `reformulate_prob`, the three fields it has.
    """
    if behavior is not None:
        config.update(noise=behavior.click_noise, scan_persistence=behavior.scan_persistence,
                      reformulate_prob=behavior.reformulate_prob)
    # the inputs are in the store, so the config names no input paths
    cfg = ExperimentConfig(corpus="", intents="", sessions=sessions,
                           eval_sessions=eval_sessions, **config)
    store = MemoryStore(docs=docs, intents=intents)
    report, text = run_all(cfg, store)

    def by_mode(kind: str) -> dict:  # the store holds them in the order run_all trained them
        return {name.partition("_")[2]: v for name, v in store.items() if name.startswith(kind + "_")}

    return ExperimentArtifacts(
        corpus=store["index"], log=store["log"], truth=store["truth"], chains=store["chains"],
        prefs=by_mode("prefs"), models=by_mode("model"),
        outcomes=_outcomes(cfg, store), report=report, report_text=text,
    )
