"""What the workloads share: the result of a measuring loop, and pipeline
steps called one at a time through public chainrank functions so that each
gets its own span."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from chainrank.features import FeatureSpace
from chainrank.pipeline import BASE_FN, build_constraints
from chainrank.solver import fit_model
from spans import maybe_span


@dataclass
class Outcome:
    op_times: list[float] = field(default_factory=list)  # seconds per untraced operation
    attempted: int = 0
    failed: int = 0
    overheads: list[float] = field(default_factory=list)  # traced minus untraced seconds
    layers: dict[str, float] = field(default_factory=dict)  # per-layer metrics, traced runs

    def record(self, seconds: float, ok: bool) -> None:
        self.op_times.append(seconds)
        self.attempted += 1
        self.failed += not ok


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sub_seed(seed: int, i: int) -> int:
    """Seed of the i-th operation of a run seeded with `seed`."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def train(searchlog, prefs, mode: str, tracer=None):
    """Featurize and solve as `train_from_log` does; returns (model, constraints)."""
    space = FeatureSpace((BASE_FN,))
    with maybe_span(tracer, f"pipeline.build_constraints_{mode}"):
        constraints = build_constraints(prefs, searchlog, space)
    with maybe_span(tracer, f"solver.fit_{mode}"):
        model = fit_model(space, constraints)
    return model, constraints


def constraint_counts(constraints) -> tuple[int, int]:
    """(unique constraints, their total nnz), merging duplicates as the solver does."""
    unique = {(c.delta.ids, c.delta.values) for c in constraints if c.delta.ids}
    return len(unique), sum(len(ids) for ids, _ in unique)


def margin(pair: dict) -> float:
    """(wins_a - wins_b) / impressions of one report pair."""
    return (pair["wins_a"] - pair["wins_b"]) / pair["impressions"]


def beats(pair: dict, alpha: float) -> bool:
    """Side A wins the pair with sign-test p below alpha."""
    return pair["wins_a"] > pair["wins_b"] and pair["p"] < alpha
