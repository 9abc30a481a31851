import warnings

import numpy as np
import pytest

from chainrank.errors import DataError
from chainrank.features import FeatureSpace, SparseVector, phi
from chainrank.solver import (
    DEFAULT_MAX_ITERS,
    Model,
    PreferenceConstraint,
    fit_model,
    fresh_model,
    model_from_json,
    model_to_json,
    objective,
    slack_report,
    subgradient,
    train_ranking,
)
from helpers import densify, dual_ascent_dense, grid_minimize_hinge


def sv(items):
    return SparseVector.from_items(items)


def constraint(*pairs):
    return PreferenceConstraint(sv(dict(pairs)))


def test_objective_margin_met():
    assert objective(np.array([1.0]), [constraint((0, 1.0))], C=1.0) == 0.5


def test_objective_zero_weights():
    assert objective(np.array([0.0]), [constraint((0, 1.0))], C=1.0) == 1.0


def test_objective_matches_naive_summation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        dim = 4
        cons = [
            constraint(*((j, float(rng.normal())) for j in range(dim)))
            for _ in range(5)
        ]
        w = rng.normal(size=dim)
        # naive per-constraint oracle
        total = 0.5 * float(w @ w)
        for c in cons:
            total += 1.0 * max(0.0, 1.0 - sum(v * w[i] for i, v in zip(c.delta.ids, c.delta.values)))
        assert objective(w, cons, 1.0) == pytest.approx(total, rel=1e-12)


def test_closed_form_1d_small_c():
    # min 0.5 w^2 + 0.5 max(0, 1 - w): interior optimum w = C = 0.5
    sol = train_ranking([constraint((0, 1.0))], C=0.5)
    assert sol.weights[0] == pytest.approx(0.5, abs=1e-6)
    assert sol.objective == pytest.approx(0.375, abs=1e-6)


def test_closed_form_1d_large_c():
    # optimum pinned at the hinge kink w = 1
    sol = train_ranking([constraint((0, 1.0))], C=2.0)
    assert sol.weights[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.objective == pytest.approx(0.5, abs=1e-6)


def test_no_constraints_bounded_dim():
    sol = train_ranking([], C=1.0, w_min=1.0, bounded_dims=(0,))
    assert sol.weights.tolist() == [1.0]
    assert sol.converged


def test_bound_feasibility_exact_even_unconverged():
    rng = np.random.default_rng(5)
    cons = [
        constraint(*((j, float(rng.normal())) for j in range(3)))
        for _ in range(8)
    ]
    with pytest.warns(UserWarning, match="max_iters"):
        sol = train_ranking(cons, C=2.0, w_min=0.5, bounded_dims=(0, 1), max_iters=1)
    assert not sol.converged
    assert sol.weights[0] >= 0.5 and sol.weights[1] >= 0.5


def random_instance(rng):
    dim = int(rng.integers(1, 6))
    n = int(rng.integers(1, 11))
    cons = []
    for _ in range(n):
        items = {}
        for j in range(dim):
            if rng.random() < 0.8:
                items[j] = float(rng.normal())
        if not items:
            items[int(rng.integers(dim))] = 1.0
        cons.append(PreferenceConstraint(sv(items)))
    C = float(rng.choice([0.3, 1.0, 3.0]))
    if rng.random() < 0.5:
        n_bounded = int(rng.integers(1, dim + 1))
        bounded = tuple(sorted(rng.choice(dim, size=n_bounded, replace=False).tolist()))
        w_min = float(rng.choice([0.0, 0.5, 1.0]))
    else:
        bounded, w_min = (), 0.0
    return cons, C, w_min, bounded, dim


def test_solver_vs_grid_oracle():
    rng = np.random.default_rng(42)
    for _ in range(8):
        cons, C, w_min, bounded, dim = random_instance(rng)
        sol = train_ranking(cons, C=C, w_min=w_min, bounded_dims=bounded, dim=dim)
        _, f_oracle = grid_minimize_hinge(densify(cons, dim), C, w_min, bounded)
        assert sol.objective <= f_oracle + 1e-3
        if bounded:
            assert min(sol.weights[list(bounded)]) >= w_min


def test_returned_point_beats_random_feasible_points():
    rng = np.random.default_rng(11)
    for _ in range(5):
        cons, C, w_min, bounded, dim = random_instance(rng)
        sol = train_ranking(cons, C=C, w_min=w_min, bounded_dims=bounded, dim=dim)
        for _ in range(200):
            w = rng.normal(scale=2.0, size=dim)
            if bounded:
                w[list(bounded)] = np.maximum(w[list(bounded)], w_min)
            assert sol.objective <= objective(w, cons, C) + 1e-9


def test_duplicate_constraints_aggregate_exactly():
    # k copies of one constraint behave like one with weight k*C
    base = [constraint((0, 1.0))] * 6
    sol_dup = train_ranking(base, C=0.25)
    sol_w = train_ranking([constraint((0, 1.0))], C=1.5)
    assert sol_dup.weights[0] == pytest.approx(sol_w.weights[0], abs=1e-9)


def test_zero_delta_dropped_with_warning():
    with pytest.warns(UserWarning, match="zero delta"):
        sol = train_ranking([PreferenceConstraint(sv({})), constraint((0, 1.0))], C=0.5)
    assert sol.weights[0] == pytest.approx(0.5, abs=1e-6)


def test_determinism():
    rng = np.random.default_rng(9)
    cons, C, w_min, bounded, dim = random_instance(rng)
    a = train_ranking(cons, C=C, w_min=w_min, bounded_dims=bounded, dim=dim)
    b = train_ranking(cons, C=C, w_min=w_min, bounded_dims=bounded, dim=dim)
    assert np.array_equal(a.weights, b.weights)
    assert a.iterations == b.iterations


def test_scaling_leaves_violation_set_unchanged():
    rng = np.random.default_rng(21)
    for s in (0.5, 2.0, 4.0):
        cons, C, w_min, bounded, dim = random_instance(rng)
        scaled = [
            PreferenceConstraint(sv({i: v * s for i, v in zip(c.delta.ids, c.delta.values)}))
            for c in cons
        ]
        sol = train_ranking(cons, C=C, w_min=w_min, bounded_dims=bounded, dim=dim)
        sol_s = train_ranking(scaled, C=C / s**2, w_min=w_min / s,
                              bounded_dims=bounded, dim=dim)
        viol = set(np.flatnonzero(slack_report(sol.weights, cons).xi >= 1.0).tolist())
        viol_s = set(np.flatnonzero(slack_report(sol_s.weights, scaled).xi >= 1.0).tolist())
        assert viol == viol_s


def test_slack_report_all_margins_met():
    cons = [constraint((0, 1.0)), constraint((1, 2.0))]
    rep = slack_report(np.array([1.0, 0.5]), cons)
    assert rep.total == 0.0 and rep.violations == 0


def test_slack_report_zero_weights():
    cons = [constraint((0, 1.0))] * 4
    rep = slack_report(np.zeros(1), cons)
    assert rep.xi.tolist() == [1.0] * 4
    assert rep.violations == 4


def test_slack_decomposition_identity():
    rng = np.random.default_rng(2)
    cons, C, _, _, dim = random_instance(rng)
    w = rng.normal(size=dim)
    rep = slack_report(w, cons)
    assert objective(w, cons, C) == pytest.approx(
        0.5 * float(w @ w) + C * rep.total, abs=1e-12
    )


def test_subgradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 30:
        cons, C, _, _, dim = random_instance(rng)
        w = rng.normal(size=dim)
        margins = [c.delta.dot(w) for c in cons]
        if any(abs(1.0 - m) < 1e-3 for m in margins):
            continue  # too close to a kink
        g = subgradient(w, cons, C)
        h = 1e-6
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            fd = (objective(w + e, cons, C) - objective(w - e, cons, C)) / (2 * h)
            denom = max(1.0, abs(fd))
            assert abs(fd - g[j]) / denom < 1e-4
        checked += 1


def _small_model():
    space = FeatureSpace(("base",))
    cons = []
    for doc, rank, other, other_rank in (("da", 1, "db", 3), ("dc", None, "da", 1)):
        pa = phi(space, doc, ["t1", "t2"], rank)
        pb = phi(space, other, ["t1", "t2"], other_rank)
        cons.append(PreferenceConstraint(pa - pb))
    return fit_model(space, cons, C=1.0, w_min=1.0)


def test_fit_model_bounds_and_meta():
    model = _small_model()
    assert model.weights[:28].min() >= 1.0
    assert model.meta["converged"]
    assert model.meta["n_constraints"] == 2


def test_model_json_round_trip_bit_exact(tmp_path):
    model = _small_model()
    text = model_to_json(model)
    again = model_to_json(model_from_json(text))
    assert again == text
    path = tmp_path / "model.json"
    path.write_text(model_to_json(model), encoding="utf-8")
    loaded = model_from_json(path.read_text(encoding="utf-8"))
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.space.term_doc_pairs() == model.space.term_doc_pairs()
    # a reloaded space produces identical feature vectors
    for doc, rank in (("da", 2), ("db", None), ("dc", 7)):
        assert phi(loaded.space, doc, ["t1", "t2"], rank) == \
            phi(model.space, doc, ["t1", "t2"], rank)


def test_model_version_mismatch():
    with pytest.raises(DataError, match="version"):
        model_from_json('{"version": 7}')


def test_model_rejects_weights_below_bound():
    space = FeatureSpace(("base",))
    w = np.zeros(space.dim)
    with pytest.raises(DataError, match="w_min"):
        Model(space=space, weights=w, C=1.0, w_min=1.0)


def test_fresh_model_uniform():
    space = FeatureSpace(("base",))
    model = fresh_model(space, w_min=1.0)
    assert model.weights[:28].tolist() == [1.0] * 28


def repeated_instance(rng):
    """`random_instance` plus duplicated and zero-delta constraints, shuffled."""
    cons, C, w_min, bounded, dim = random_instance(rng)
    cons = cons + [cons[int(rng.integers(len(cons)))] for _ in range(int(rng.integers(0, 4)))]
    cons = cons + [PreferenceConstraint(sv({}))] * int(rng.integers(0, 3))
    return [cons[i] for i in rng.permutation(len(cons))], C, w_min, bounded, dim


def test_solution_objective_and_violations_match_evaluators():
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(60):
        cons, C, w_min, bounded, dim = repeated_instance(rng)
        max_iters = int(rng.choice([1, 3, DEFAULT_MAX_ITERS]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = train_ranking(cons, C=C, w_min=w_min, bounded_dims=bounded, dim=dim,
                                max_iters=max_iters)
        assert sol.objective == pytest.approx(objective(sol.weights, cons, C), rel=1e-9)
        assert sol.violations == slack_report(sol.weights, cons).violations
        seen.add(("bounded" if bounded else "free",
                  any(not c.delta.ids for c in cons),
                  len({c.delta for c in cons}) < len(cons)))
    assert {b for b, _, _ in seen} == {"bounded", "free"}
    assert {z for _, z, _ in seen} == {True, False}
    assert any(dup for _, _, dup in seen)


def test_duality_gap_certifies_convergence():
    rng = np.random.default_rng(13)
    compared = 0
    for _ in range(30):
        cons, C, w_min, bounded, dim = random_instance(rng)
        sol = train_ranking(cons, C=C, w_min=w_min, bounded_dims=bounded, dim=dim)
        assert sol.converged
        assert -1e-12 <= sol.gap < 1e-6
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            early = train_ranking(cons, C=C, w_min=w_min, bounded_dims=bounded, dim=dim,
                                  max_iters=1)
        assert early.gap >= -1e-12
        if sol.iterations > 2:  # sweep 2 still moved, so sweep 1 stopped short
            assert early.gap > sol.gap
            compared += 1
    assert compared >= 20


def test_fit_model_records_gap():
    model = _small_model()
    assert -1e-12 <= model.meta["gap"] < 1e-6


def block_instance(rng):
    """Rows over a shared bounded block plus one of several blocks of free dims.

    The free blocks are disjoint, so with the bounded block held the rows
    fall into several components; rows with only bounded entries have no
    free feature, and a few rows repeat.  Small w_min and large C push some bounded dims above
    their bound.
    """
    n_bounded = int(rng.integers(1, 4))
    blocks, dim = [], n_bounded
    for _ in range(int(rng.integers(2, 5))):
        size = int(rng.integers(1, 4))
        blocks.append(range(dim, dim + size))
        dim += size
    cons = []
    for _ in range(int(rng.integers(4, 16))):
        items = {}
        if rng.random() < 0.85:
            for j in blocks[int(rng.integers(len(blocks)))]:
                if rng.random() < 0.7:
                    items[j] = float(rng.normal())
        for d in range(n_bounded):
            if rng.random() < 0.4:
                items[d] = float(rng.choice([-1.0, 1.0, 2.0]))
        if not items:
            items[int(rng.integers(dim))] = 1.0
        cons.append(PreferenceConstraint(sv(items)))
    cons += [cons[int(rng.integers(len(cons)))] for _ in range(int(rng.integers(0, 3)))]
    C = float(rng.choice([0.3, 1.0, 3.0]))
    w_min = float(rng.choice([0.0, 0.25, 1.0]))
    return cons, C, w_min, tuple(range(n_bounded)), dim


def test_decomposed_solve_matches_dense_dual_ascent():
    rng = np.random.default_rng(61)
    released = split = 0
    for _ in range(40):
        cons, C, w_min, bounded, dim = block_instance(rng)
        sol = train_ranking(cons, C=C, w_min=w_min, bounded_dims=bounded, dim=dim)
        w_oracle, oracle_gap = dual_ascent_dense(densify(cons, dim), C, w_min, bounded)
        assert oracle_gap < 1e-10
        assert sol.converged
        assert np.abs(sol.weights - w_oracle).max() <= 1e-5
        assert sol.gap <= 1e-6
        assert min(sol.weights[list(bounded)]) >= w_min
        released += sol.rounds >= 2
        split += sol.components >= 2
    assert released >= 10  # the release path ran
    assert split >= 10
