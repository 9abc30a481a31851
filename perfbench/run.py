"""chainrank benchmark runner.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports chainrank from `src/`.
It sets the workload up at least SETUP_MIN_REPS times and until
SETUP_MIN_SECONDS have passed, reporting the median, then runs the
workload's closed measuring loop for `--seconds`.  With `--trace 0` it
reports the end-to-end metrics named in BENCHMARK.json, with `--trace 1` the
per-layer ones; a layer the workload never enters reads 0.  Spans of a
traced run are written to `.perfbench/trace-<workload>-<seed>.jsonl`.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("experiment", "stages", "serve")
# Set-up is timed repeatedly so that its median is steady even when one
# set-up takes only milliseconds.
SETUP_MIN_REPS, SETUP_MIN_SECONDS, SETUP_MAX_REPS = 3, 1.0, 25


def _end_to_end(setup_times, out) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(out.op_times) * 1e3,
        "ops_per_s": len(out.op_times) / sum(out.op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(out, declared) -> dict[str, float]:
    unknown = set(out.layers) - set(declared)
    if unknown:
        raise KeyError(f"workload reported undeclared metrics {sorted(unknown)}")
    values = {name: 0.0 for name in declared}
    values.update(out.layers)
    values["trace.overhead_ms"] = statistics.median(out.overheads) * 1e3
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chainrank" / "__init__.py").is_file():
        print(f"perfbench: no chainrank sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = importlib.import_module(args.workload)
    tracer = Tracer() if args.trace else None
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        setup_times = []
        while len(setup_times) < SETUP_MAX_REPS and (
            len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_SECONDS
        ):
            t0 = perf_counter()
            state = workload.setup(args.seed, tracer if not setup_times else None, scratch)
            setup_times.append(perf_counter() - t0)
        out = workload.measure(state, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer is not None:
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl")
        values = _per_layer(out, declared)
    else:
        values = _end_to_end(setup_times, out)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    for name, m in metrics.items():
        print(f"{args.workload} seed={args.seed} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} seed={args.seed} operations: {out.attempted} attempted, "
          f"{out.failed} failed")
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
