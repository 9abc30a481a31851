import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank.features import (
    N_RANK_FEATURES,
    RANK_THRESHOLDS,
    FeatureSpace,
    SparseVector,
    first_threshold,
    phi,
    phi_rank,
    phi_terms,
)


def test_threshold_list():
    assert RANK_THRESHOLDS[:10] == tuple(range(1, 11))
    assert RANK_THRESHOLDS[10:] == tuple(range(15, 101, 5))
    assert N_RANK_FEATURES == 28


def test_phi_rank_4():
    assert phi_rank(4).tolist() == [0, 0, 0] + [1] * 25


def test_phi_rank_absent_all_zero():
    assert phi_rank(None).tolist() == [0] * 28
    assert phi_rank(101).tolist() == [0] * 28


def test_phi_rank_12():
    v = phi_rank(12)
    assert v[:10].tolist() == [0] * 10
    assert v[10:].tolist() == [1] * 18


def test_phi_rank_invalid():
    with pytest.raises(ValueError):
        phi_rank(0)


@settings(max_examples=200, deadline=None)
@given(
    a=st.one_of(st.none(), st.integers(1, 130)),
    b=st.one_of(st.none(), st.integers(1, 130)),
)
def test_phi_rank_prefix_monotone(a, b):
    # better (smaller) rank dominates elementwise; absent counts as worst
    ra = a if a is not None else 10**9
    rb = b if b is not None else 10**9
    lo, hi = (a, b) if ra <= rb else (b, a)
    assert np.all(phi_rank(lo) >= phi_rank(hi))


def test_phi_terms_counts():
    space = FeatureSpace(("base",))
    v = phi_terms(space, "doc", ["rare", "books"])
    assert v.nnz() == 2
    assert set(v.values) == {1.0}
    assert phi_terms(space, "doc", []).nnz() == 0
    assert phi_terms(space, "doc", ["rare", "rare"]).nnz() == 1


def test_phi_combined_counts():
    space = FeatureSpace(("base",))
    v = phi(space, "d", ["t"], 1)
    assert v.nnz() == 29
    v2 = phi(space, "d2", ["t"], None)
    assert v2.nnz() == 1


def test_phi_delta_matches_dense_oracle():
    # independent dense construction on a small space
    space = FeatureSpace(("base",))
    terms = ["x", "y"]
    pa = phi(space, "da", terms, 2)
    pb = phi(space, "db", terms, 5)
    dim = space.dim

    def dense(doc, rank):
        out = np.zeros(dim)
        for i, tau in enumerate(RANK_THRESHOLDS):
            out[i] = 1.0 if rank <= tau else 0.0
        for t in terms:
            out[space.term_doc_id(t, doc)] = 1.0
        return out

    expected = dense("da", 2) - dense("db", 5)
    delta = pa - pb
    got = np.zeros(dim)
    for fid, v in zip(delta.ids, delta.values):
        got[fid] = v
    assert np.array_equal(got, expected)
    # only rank-block and term-block positions differ
    assert all(
        fid < N_RANK_FEATURES or fid in
        {space.term_doc_id(t, d) for t in terms for d in ("da", "db")}
        for fid in delta.ids
    )


def test_sparse_vector_ops():
    a = SparseVector.from_items({3: 1.0, 1: 2.0})
    assert a.ids == (1, 3)
    b = SparseVector.from_items({3: 1.0})
    assert (a - b).to_dict() == {1: 2.0}
    assert SparseVector.from_items({2: 0.0}).nnz() == 0
    w = np.array([0.0, 10.0, 0.0, 5.0])
    assert a.dot(w) == 25.0
    with pytest.raises(ValueError, match="dimension"):
        a.dot(np.zeros(2))


def test_id_stability_under_interleaving():
    requests = [("d1", ["a", "b"]), ("d2", ["b"]), ("d3", ["c", "a"])]
    s1 = FeatureSpace(("base",))
    for doc, terms in requests:
        phi_terms(s1, doc, terms)
    s2 = FeatureSpace(("base",))
    for doc, terms in reversed(requests):
        phi_terms(s2, doc, terms)
    assert set(s1.term_doc_pairs()) == set(s2.term_doc_pairs())


def test_frozen_space_does_not_grow():
    space = FeatureSpace(("base",))
    phi_terms(space, "d", ["a"])
    space.freeze()
    v = phi_terms(space, "d", ["a", "new"])
    assert v.nnz() == 1
    assert ("new", "d") not in set(space.term_doc_pairs())


@settings(max_examples=200, deadline=None)
@given(
    terms=st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=6),
    rank=st.one_of(st.none(), st.integers(1, 120)),
)
def test_sparsity_bound(terms, rank):
    space = FeatureSpace(("base",))
    v = phi(space, "doc", terms, rank)
    assert v.nnz() <= N_RANK_FEATURES + len(set(terms))


def test_first_threshold_is_first_firing_phi_rank_indicator():
    # the program's one rank -> threshold mapping against the reference loop
    for rank in [*range(1, 102), None]:
        fired = np.flatnonzero(phi_rank(rank))
        expected = int(fired[0]) if len(fired) else N_RANK_FEATURES
        assert first_threshold(rank) == expected, rank


@pytest.mark.parametrize("base_functions", [(), ("f1",), ("base", "alt"), "base"])
def test_feature_space_refuses_other_base_functions(base_functions):
    with pytest.raises(ValueError, match="base_functions"):
        FeatureSpace(base_functions)
