"""Command-line entry point.

    chainrank <stage> --config experiment.json [overrides...]

Stages: index, simulate, chains, prefs, train, rerank, interleave, report;
`run` runs index to report in order, in one process.
Exit codes: 0 success, 1 usage error, 2 data error.  Set CHAINRANK_LOG to
debug/info/warning to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import DATA_EXIT, ChainrankError
from .feedback import MODES
from .pipeline import SIDES, ExperimentConfig, is_comparison, run_stage

USAGE_EXIT = 1
_OVERRIDES = ("seed", "workdir", "sessions", "eval_sessions")  # config fields every stage takes


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _pair(text: str) -> tuple[str, ...]:
    pair = tuple(text.split(","))
    if not is_comparison(pair):
        raise argparse.ArgumentTypeError(f"need two different sides of {'/'.join(SIDES)}: {text!r}")
    return pair


def _build_parser() -> _Parser:
    parser = _Parser(prog="chainrank", description=__doc__)
    sub = parser.add_subparsers(dest="stage", required=True)

    def add(name, **extra_help):
        p = sub.add_parser(name, **extra_help)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--workdir", help="override the artifact directory")
        p.add_argument("--sessions", type=int, help="override training session count")
        p.add_argument("--eval-sessions", type=int, dest="eval_sessions",
                       help="override evaluation session count")
        return p

    add("index", help="build the document index")
    add("simulate", help="generate a click log with ground truth")
    add("chains", help="segment the log into query chains")
    p = add("prefs", help="generate preference judgments")
    p.add_argument("--mode", choices=MODES, default="qc")
    p = add("train", help="train a ranking model from preferences")
    p.add_argument("--mode", choices=MODES, default="qc")
    p = add("rerank", help="rank a query with a trained model")
    p.add_argument("--query", required=True)
    p.add_argument("--mode", choices=SIDES, default="qc")
    p.add_argument("--k", type=_positive_int, help="number of results (at least 1)")
    p = add("interleave", help="run interleaved evaluation")
    p.add_argument("--pair", type=_pair,
                   help="e.g. qc,base (default: all configured comparisons)")
    add("report", help="summarize interleaved evaluations")
    add("run", help="run every stage in order, index to report")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CHAINRANK_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT

    # every option left is a keyword of the stage function: mode, pair, query, k
    kwargs = vars(args)
    stage, config = kwargs.pop("stage"), kwargs.pop("config")
    overrides = {key: value for key in _OVERRIDES if (value := kwargs.pop(key)) is not None}
    try:
        cfg = ExperimentConfig.from_file(config, overrides)
        result = run_stage(stage, cfg, **kwargs)
        if stage == "rerank":
            for e in result.entries:
                print(f"{e.doc_id}\t{e.score:.6f}\t{e.origin}")
        elif stage in ("report", "run"):
            report, text = result
            print(text)
            print(json.dumps(report, sort_keys=True))
    except ChainrankError as exc:
        print(f"chainrank: {exc}", file=sys.stderr)
        return DATA_EXIT
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
