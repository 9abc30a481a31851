"""Pairwise ranking optimization with hard lower bounds on rank-feature weights.

Minimizes, over weight vectors w,

    0.5 * ||w||^2 + C * sum_i max(0, 1 - w . delta_i)

subject to w[j] >= w_min for every bounded dimension j (the rank-feature
block).  Each delta_i is the feature-vector difference of a preferred and a
non-preferred document for the same query, so `w . delta_i >= 1` means the
preference is satisfied with margin.

The minimizer runs deterministic dual coordinate ascent (Hsieh et al., 2008)
with a fixed sweep order: each preference constraint owns a dual variable in
[0, C] and each bounded dimension a nonnegative multiplier.  Coordinate steps
are exact, so small instances solve to machine precision; duplicate
constraints are aggregated into one dual variable with upper bound
(count * C), which leaves the objective unchanged.

The sweep runs on the problem's structure, as decomposition SVM solvers do
(Joachims, 1999).  Every bounded dimension starts held at w_min and its share
of each row moves into that row's margin offset.  Without the held dims the
rows fall into connected components over their remaining feature ids; each
is swept on its own, in order of its smallest row index, and rows with no
free feature get their dual variable in closed form.  A held dim d whose
(D^T alpha)_d exceeds w_min violates its bound's optimality condition, so it
is released into the sweep with its multiplier, which merges the components
it touches, and the rows are solved again.  The sweep runs over native
Python lists built once per round, since each row has only a handful of
nonzeros; objective, violations and the relative primal-dual gap of the full
problem are then computed with numpy, and the gap is recorded as
`meta["gap"]` on every trained model.  `fit_model` is the one entry point
the pipeline trains through.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, canonical_json, json_object, malformed, number, string
from .features import BASE_FN, N_RANK_FEATURES, RANK_THRESHOLDS, FeatureSpace, SparseVector

DEFAULT_C = 1.0
DEFAULT_W_MIN = 1.0
DEFAULT_TOLERANCE = 1e-6
DEFAULT_MAX_ITERS = 10000
# Unbounded (term/doc) weights below this magnitude are float cancellation,
# not learned signal, and are returned as exactly 0.0.
ROUNDOFF = 1e-12


@dataclass(frozen=True)
class PreferenceConstraint:
    """One pairwise preference, stored as delta = phi(preferred) - phi(other)."""

    delta: SparseVector


@dataclass
class SlackReport:
    """Induced slack per constraint: xi_i = max(0, 1 - w . delta_i)."""

    xi: np.ndarray
    total: float
    violations: int  # constraints with xi >= 1, i.e. actually misordered


@dataclass
class RankingSolution:
    weights: np.ndarray
    iterations: int
    objective: float
    violations: int
    converged: bool
    gap: float  # relative primal-dual gap (P - D) / max(1, |P|) at return
    rounds: int  # active-set rounds: 1 + the number of times held dims were released
    components: int  # connected components swept in the last round


def objective(w: np.ndarray, constraints: list[PreferenceConstraint], C: float) -> float:
    """Exact value of 0.5*||w||^2 + C * sum max(0, 1 - w . delta)."""
    w = np.asarray(w, dtype=float)
    hinge = 0.0
    for c in constraints:
        hinge += max(0.0, 1.0 - c.delta.dot(w))
    return 0.5 * float(w @ w) + C * hinge


def subgradient(w: np.ndarray, constraints: list[PreferenceConstraint], C: float) -> np.ndarray:
    """Analytic subgradient of `objective`; at hinge kinks takes the inactive side."""
    w = np.asarray(w, dtype=float)
    g = w.copy()
    for c in constraints:
        if c.delta.dot(w) < 1.0:
            for i, v in zip(c.delta.ids, c.delta.values):
                g[i] -= C * v
    return g


def slack_report(model_or_w, constraints: list[PreferenceConstraint]) -> SlackReport:
    """Per-constraint slack for a Model or a raw weight vector."""
    w = model_or_w.weights if isinstance(model_or_w, Model) else np.asarray(model_or_w, float)
    xi = np.array([max(0.0, 1.0 - c.delta.dot(w)) for c in constraints])
    return SlackReport(xi=xi, total=float(xi.sum()), violations=int((xi >= 1.0).sum()))


def _aggregate(constraints: list[PreferenceConstraint], dim: int):
    """Collapse duplicate deltas: (rows of (id, value) pairs, counts, dropped).

    Rows and their multiplicities come in order of first occurrence.  Zero
    deltas are dropped with a warning; the last value returned is how many.
    """
    counts: dict[tuple, int] = {}
    n_zero = 0
    for c in constraints:
        if not c.delta.ids:
            warnings.warn("dropping constraint with zero delta (identical feature vectors)")
            n_zero += 1
            continue
        if c.delta.ids[-1] >= dim:
            raise DataError(
                f"constraint feature id {c.delta.ids[-1]} outside dimension {dim}"
            )
        key = (c.delta.ids, c.delta.values)
        counts[key] = counts.get(key, 0) + 1
    rows = [tuple(zip(ids, values)) for ids, values in counts]
    return rows, list(counts.values()), n_zero


def _split(row_pairs, ub, held, released, w_min):
    """Group the rows into connected components over their free feature ids.

    A row is (index, free (id, value) pairs, upper bound, 1/|free part|^2,
    1 - its margin from the held dims).  Two rows are connected when they
    share a free feature.  Components come in order of their smallest row
    index, rows in index order, each with the released dims it touches.
    Rows with no free feature are returned apart as (index, target).
    """
    parent: dict[int, int] = {}

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    rows, closed = [], []
    for i, pairs in enumerate(row_pairs):
        free = tuple((j, v) for j, v in pairs if j not in held)
        target = 1.0 - w_min * sum(v for j, v in pairs if j in held)
        if not free:
            closed.append((i, target))
            continue
        for j, _ in free:
            parent.setdefault(j, j)
        root = find(free[0][0])
        for j, _ in free[1:]:
            other = find(j)
            if other != root:
                parent[other] = root
        rows.append((i, free, ub[i], 1.0 / sum(v * v for _, v in free), target))
    components: dict[int, tuple[list, list]] = {}
    for row in rows:
        components.setdefault(find(row[1][0][0]), ([], []))[0].append(row)
    for d in released:
        if d in parent:  # a released dim no row touches keeps beta = 0
            components[find(d)][1].append(d)
    return list(components.values()), closed


def _sweep(rows, dims, w, alpha, beta, w_min, tolerance, max_iters) -> tuple[int, bool]:
    """Dual coordinate ascent on one component until max |pg| < tolerance.

    Each sweep takes an exact clipped step on every row's alpha in [0, ub],
    then on the multiplier beta of every released bounded dim.  Runs on
    Python lists: rows hold a handful of nonzeros, too few for numpy's
    per-call overhead to pay off.  Returns (sweeps, tolerance met).
    """
    for sweeps in range(1, max_iters + 1):
        max_pg = 0.0
        for i, pairs, ub, inv_sq, target in rows:
            g = 0.0
            for j, v in pairs:
                g += v * w[j]
            g -= target
            a = alpha[i]
            # pg is the projected gradient; where it is zero the step is too
            if a <= 0.0:
                if g >= 0.0:
                    continue
                pg = -g
            elif a >= ub:
                if g <= 0.0:
                    continue
                pg = g
            elif g == 0.0:
                continue
            else:
                pg = abs(g)
            if pg > max_pg:
                max_pg = pg
            new_a = a - g * inv_sq
            if new_a < 0.0:
                new_a = 0.0
            elif new_a > ub:
                new_a = ub
            if new_a != a:
                step = new_a - a
                for j, v in pairs:
                    w[j] += step * v
                alpha[i] = new_a
        for d in dims:
            b = beta[d]
            g = w[d] - w_min
            pg = min(g, 0.0) if b <= 0.0 else g
            max_pg = max(max_pg, abs(pg))
            new_b = max(0.0, b - g)
            if new_b != b:
                w[d] += new_b - b
                beta[d] = new_b
        if max_pg < tolerance:
            return sweeps, True
    return max_iters, False


def train_ranking(
    constraints: list[PreferenceConstraint],
    C: float = DEFAULT_C,
    w_min: float = DEFAULT_W_MIN,
    bounded_dims: tuple[int, ...] = (),
    dim: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RankingSolution:
    """Solve the bounded ranking problem; bound feasibility is exact on return.

    `dim` defaults to the smallest dimension covering all constraint ids and
    bounded dims.  `tolerance` bounds the worst per-coordinate optimality
    violation within each component; `max_iters` caps `iterations`, the
    sweeps of the slowest component summed over the active-set rounds.
    Hitting the cap returns a result flagged `converged=False` with a
    warning, never silently.
    """
    if C <= 0:
        raise DataError(f"C must be positive, got {C}")
    bounded = sorted(set(bounded_dims))
    if dim is None:
        dim = 0
        if bounded:
            dim = bounded[-1] + 1
        for c in constraints:
            if c.delta.ids:
                dim = max(dim, c.delta.ids[-1] + 1)
    if bounded and bounded[-1] >= dim:
        raise DataError("bounded dim outside dimension")

    row_pairs, counts, n_zero = _aggregate(constraints, dim)
    n = len(row_pairs)
    ub = [float(c) * C for c in counts]

    # Active set: every bounded dim starts held at w_min.  A held dim whose
    # (D^T alpha)_d exceeds w_min would need beta_d < 0, so it is released
    # into the sweep for good and the rows are solved again from the same
    # alpha.  Each round releases at least one dim, so the loop ends.  The
    # rounds share one budget of max_iters sweeps.  A round counts the sweeps
    # of its slowest component, and at least one: it always passes over the
    # rows to set the closed-form alphas and to check the held dims.
    alpha = [0.0] * n
    beta = dict.fromkeys(bounded, 0.0)
    held = set(bounded)
    w = [0.0] * dim  # D^T alpha + beta off the held dims, w_min on them
    for d in bounded:
        w[d] = w_min
    rounds = iterations = 0
    while True:
        rounds += 1
        released = [d for d in bounded if d not in held]
        components, closed = _split(row_pairs, ub, held, released, w_min)
        for i, target in closed:  # margin fixed by the held dims: alpha is 0 or its bound
            alpha[i] = ub[i] if target > 0.0 else 0.0
        budget, slowest, met = max_iters - iterations, 0, True
        for rows, dims in components:
            sweeps, ok = _sweep(rows, dims, w, alpha, beta, w_min, tolerance, budget)
            slowest, met = max(slowest, sweeps), met and ok
        iterations += max(slowest, 1)
        u = dict.fromkeys(sorted(held), 0.0)
        for i, pairs in enumerate(row_pairs):
            if alpha[i]:
                for j, v in pairs:
                    if j in u:
                        u[j] += alpha[i] * v
        violating = [d for d, s in u.items() if s > w_min]
        if not violating or iterations >= max_iters:
            break
        for d in violating:  # released with beta_d = 0
            w[d] = u[d]
        held.difference_update(violating)
    converged = met and not violating
    for d in held:  # clipped, so the dual point stays feasible if the budget ran out
        beta[d] = max(0.0, w_min - u[d])

    w = np.array(w, dtype=float)
    free = np.ones(dim, dtype=bool)
    if bounded:
        w[bounded] = np.maximum(w[bounded], w_min)  # exact feasibility, no-op at optimum
        free[bounded] = False
    w[free & (np.abs(w) < ROUNDOFF)] = 0.0
    if not converged:
        warnings.warn(
            f"ranking solver hit max_iters={max_iters} before reaching tolerance {tolerance}"
        )

    # Objective, violations and duality gap of the full problem over the
    # aggregated rows.  Each dropped zero-delta constraint still costs hinge 1
    # and one violation.  P = 0.5|w|^2 + C sum count_i hinge_i;  D = sum alpha
    # + w_min sum beta - 0.5|D^T alpha + beta|^2, with beta placed on the
    # bounded dims (w_min - (D^T alpha)_d for a held dim).
    indices = np.array([j for pairs in row_pairs for j, _ in pairs], dtype=np.int64)
    data = np.array([v for pairs in row_pairs for _, v in pairs], dtype=float)
    row_of = np.repeat(np.arange(n), np.array([len(pairs) for pairs in row_pairs], dtype=np.int64))
    counts_v = np.array(counts, dtype=float)
    margins = np.bincount(row_of, weights=data * w[indices], minlength=n)
    hinge = np.maximum(0.0, 1.0 - margins)
    primal = 0.5 * float(w @ w) + C * float(counts_v @ hinge)
    alpha_v = np.array(alpha, dtype=float)
    beta_v = np.array([beta[d] for d in bounded], dtype=float)
    v = np.bincount(indices, weights=data * alpha_v[row_of], minlength=dim).astype(float)
    v[bounded] += beta_v
    dual = float(alpha_v.sum()) + w_min * float(beta_v.sum()) - 0.5 * float(v @ v)
    return RankingSolution(
        weights=w,
        iterations=iterations,
        objective=primal + C * n_zero,
        violations=int(counts_v[hinge >= 1.0].sum()) + n_zero,
        converged=converged,
        gap=(primal - dual) / max(1.0, abs(primal)),
        rounds=rounds,
        components=len(components),
    )


MODEL_VERSION = 1


@dataclass
class Model:
    """Learned retrieval model: dense rank-feature block + sparse term/doc map."""

    space: FeatureSpace
    weights: np.ndarray
    C: float
    w_min: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.weights) != self.space.dim:
            raise DataError(
                f"weight dim {len(self.weights)} != feature space dim {self.space.dim}"
            )
        low = self.weights[:N_RANK_FEATURES]
        if len(low) and low.min() < self.w_min:
            raise DataError("rank-feature weight below w_min")

    def rank_weights(self) -> np.ndarray:
        return self.weights[:N_RANK_FEATURES]

    def term_doc_weight(self, term: str, doc_id: str) -> float:
        fid = self.space._term_doc.get((term, doc_id))
        return float(self.weights[fid]) if fid is not None else 0.0

    def term_doc_items(self) -> list[tuple[str, str, float]]:
        return [
            (t, d, float(self.weights[N_RANK_FEATURES + i]))
            for i, (t, d) in enumerate(self.space.term_doc_pairs())
        ]


def fit_model(
    space: FeatureSpace,
    constraints: list[PreferenceConstraint],
    C: float = DEFAULT_C,
    w_min: float = DEFAULT_W_MIN,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> Model:
    """Train over a feature space, bounding every rank-feature dimension."""
    space.freeze()
    sol = train_ranking(
        constraints,
        C=C,
        w_min=w_min,
        bounded_dims=tuple(range(N_RANK_FEATURES)),
        dim=space.dim,
        tolerance=tolerance,
        max_iters=max_iters,
    )
    meta = {
        "iterations": sol.iterations,
        "objective": sol.objective,
        "violations": sol.violations,
        "converged": sol.converged,
        "gap": sol.gap,
        "rounds": sol.rounds,
        "components": sol.components,
        "n_constraints": len(constraints),
    }
    return Model(space=space, weights=sol.weights, C=C, w_min=w_min, meta=meta)


def fresh_model(space: FeatureSpace, w_min: float = DEFAULT_W_MIN, C: float = DEFAULT_C) -> Model:
    """Untrained model: every rank weight at w_min, term/doc weights zero."""
    w = np.zeros(space.dim)
    w[:N_RANK_FEATURES] = w_min
    return Model(space=space, weights=w, C=C, w_min=w_min, meta={"fresh": True})


def model_to_json(model: Model) -> str:
    """Canonical JSON text; re-serializing a loaded model is byte-identical."""
    payload = {
        "version": MODEL_VERSION,
        "C": model.C,
        "w_min": model.w_min,
        "thresholds": list(RANK_THRESHOLDS),
        "base_functions": [BASE_FN],
        "rank_weights": {BASE_FN: [float(v) for v in model.rank_weights()]},
        "term_doc_weights": [
            {"term": t, "doc": d, "w": w} for t, d, w in model.term_doc_items()
        ],
        "meta": model.meta,
    }
    return canonical_json(payload)


def model_from_json(text: str) -> Model:
    """Parse a model artifact; malformed text or fields raise DataError."""
    payload = json_object(text, "model artifact", MODEL_VERSION)
    with malformed("model artifact"):
        if payload["thresholds"] != list(RANK_THRESHOLDS):  # the rank weights would mean other ranks
            raise DataError(f"malformed model artifact: thresholds must be {list(RANK_THRESHOLDS)}")
        space = FeatureSpace(tuple(payload["base_functions"]))  # refuses all but [BASE_FN]
        weights = [number(v) for v in payload["rank_weights"][BASE_FN]]
        for rec in payload["term_doc_weights"]:
            space.term_doc_id(string(rec["term"]), string(rec["doc"]))
            weights.append(number(rec["w"]))
        space.freeze()
        return Model(space=space, weights=np.array(weights, dtype=float),
                     C=number(payload["C"]), w_min=number(payload["w_min"]), meta=payload["meta"])
