import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank.corpus import Document, RankedList, RankEntry, base_retrieve, build_index
from chainrank.features import N_RANK_FEATURES, FeatureSpace, SparseVector, phi
from chainrank.fixtures import make_fixture
from chainrank.ranking import RerankRequest, candidates, rerank, score
from chainrank.solver import Model, PreferenceConstraint, fit_model, fresh_model
from helpers import serve_queries, trained_qc


def ranked(docs):
    return RankedList([RankEntry(d, float(len(docs) - i)) for i, d in enumerate(docs)])


def model_with_terms(term_weights: dict, w_min=1.0):
    """Model with uniform rank weights at w_min and given (term, doc) weights."""
    space = FeatureSpace(("base",))
    for (term, doc) in term_weights:
        space.term_doc_id(term, doc)
    space.freeze()
    w = np.zeros(space.dim)
    w[:28] = w_min
    for (term, doc), value in term_weights.items():
        w[space.term_doc_id(term, doc)] = value
    return Model(space=space, weights=w, C=1.0, w_min=w_min, meta={})


def test_score_rank1_is_28_w_min():
    model = model_with_terms({})
    base = {"base": ranked(["d1", "d2"])}
    assert score("d1", ["t"], base, model) == 28.0
    assert score("d2", ["t"], base, model) == 27.0


def test_score_unretrieved_doc_single_term_weight():
    model = model_with_terms({("t", "new"): 30.0})
    base = {"base": ranked(["d1"])}
    assert score("new", ["t"], base, model) == 30.0


def test_new_doc_outranks_rank1_iff_terms_exceed_bar():
    # the incumbent at rank 1 scores 28*w_min plus its own term contribution
    incumbent_terms = 2.0
    bar = 28.0 + incumbent_terms
    base = {"base": ranked(["d1", "d2"])}
    for delta, expect_outrank in ((0.5, True), (-0.5, False)):
        model = model_with_terms({("t", "new"): bar + delta, ("t", "d1"): incumbent_terms})
        s_new = score("new", ["t"], base, model)
        s_d1 = score("d1", ["t"], base, model)
        assert (s_new > s_d1) is expect_outrank


def test_rank_beyond_top100_scores_zero():
    model = model_with_terms({})
    docs = [f"d{i}" for i in range(120)]
    base = {"base": ranked(docs)}
    assert score("d99", ["t"], base, model) == 1.0  # only the <=100 threshold fires
    assert score("d100", ["t"], base, model) == 0.0


def test_candidates_zero_term_weights():
    model = model_with_terms({})
    base = {"base": ranked(["d1", "d2"])}
    assert candidates(["t"], base, model) == {"d1", "d2"}


def test_candidates_include_term_associated_doc():
    model = model_with_terms({("t", "new"): 5.0})
    base = {"base": ranked(["d1"])}
    assert "new" in candidates(["t"], base, model)
    assert "new" not in candidates(["other"], base, model)


def test_candidates_match_full_scan_oracle():
    docs = [Document(f"d{i:02d}", f"title {i}", "alpha beta gamma") for i in range(50)]
    corpus = build_index(docs)
    base_list = base_retrieve(corpus, ["alpha"], 100)
    model = model_with_terms({("alpha", "d07"): 4.0, ("alpha", "d99x"): -2.0})
    base = {"base": base_list}
    got = candidates(["alpha"], base, model)
    scan = {
        d.doc_id for d in docs
        if score(d.doc_id, ["alpha"], base, model) != 0.0
    } | {"d99x"} | set(base_list.doc_ids())
    assert got == scan
    # completeness: anything outside candidates scores zero
    for d in docs:
        if d.doc_id not in got:
            assert score(d.doc_id, ["alpha"], base, model) == 0.0


def test_rerank_identity_at_initialization():
    docs = [f"d{i:03d}" for i in range(30)]
    base = {"base": ranked(docs)}
    model = fresh_model(FeatureSpace(("base",)), w_min=1.0)
    out = rerank(RerankRequest(["t"], base, model, k=30))
    assert out.doc_ids() == docs
    assert all(e.origin == "base_results" for e in out.entries)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 60), k=st.integers(1, 80), w_min=st.floats(0.25, 4.0))
def test_rerank_identity_property(n, k, w_min):
    docs = [f"d{i:03d}" for i in range(n)]
    base = {"base": ranked(docs)}
    model = fresh_model(FeatureSpace(("base",)), w_min=w_min)
    out = rerank(RerankRequest(["q"], base, model, k=k))
    assert out.doc_ids() == docs[:k]


def test_rerank_empty_base_no_terms():
    model = model_with_terms({})
    out = rerank(RerankRequest(["t"], {"base": ranked([])}, model, k=5))
    assert out.doc_ids() == []


def test_rerank_demotes_negatively_weighted_docs():
    # strong negative term weights push matching docs below unweighted ones
    base = {"base": ranked(["m1", "m2", "good1", "good2"])}
    model = model_with_terms({("ndlf", "m1"): -21.0, ("ndlf", "m2"): -20.6})
    out = rerank(RerankRequest(["ndlf"], base, model, k=4))
    assert out.doc_ids() == ["good1", "good2", "m1", "m2"]


def test_rerank_injects_term_associated_doc():
    base = {"base": ranked(["d1", "d2"])}
    model = model_with_terms({("lex", "target"): 40.0})
    out = rerank(RerankRequest(["lex"], base, model, k=3))
    assert out.doc_ids()[0] == "target"
    assert out.entries[0].origin == "term_association"


def test_monotonicity_in_term_weight():
    base = {"base": ranked(["d1", "d2", "d3"])}
    positions = []
    for w in (0.0, 2.0, 30.0):
        model = model_with_terms({("t", "d3"): w})
        out = rerank(RerankRequest(["t"], base, model, k=3))
        positions.append(out.doc_ids().index("d3"))
    assert positions[0] >= positions[1] >= positions[2]


def test_rerank_k_validation():
    model = model_with_terms({})
    with pytest.raises(ValueError):
        RerankRequest(["t"], {"base": ranked([])}, model, k=0)


@pytest.mark.parametrize("keys", [(), ("alt",), ("base", "alt")])
def test_rerank_request_takes_only_the_base_ranking(keys):
    model = model_with_terms({})
    with pytest.raises(ValueError, match="base_rankings"):
        RerankRequest(["t"], {key: ranked(["d1"]) for key in keys}, model)


def test_cancelled_term_weight_is_exact_zero_and_injects_nothing():
    # ("t", "new") enters one constraint with +1 and the other with -1; the
    # sweep's float updates leave a ~1e-16 residue there unless it is zeroed
    space = FeatureSpace(("base",))
    new, x, y = (space.term_doc_id(t, d) for t, d in (("t", "new"), ("u", "x"), ("v", "y")))
    a = {i: -1.0 for i in range(18)} | {new: 1.0, x: 1.0}
    b = {i: -1.0 for i in range(6)} | {new: -1.0, y: 1.0}
    cons = [PreferenceConstraint(SparseVector.from_items(d)) for d in (a, b)]
    model = fit_model(space, cons, C=1.0, w_min=1.0)
    assert model.term_doc_weight("t", "new") == 0.0
    assert model.term_doc_weight("u", "x") != 0.0
    base = {"base": ranked(["d1", "d2"])}
    assert "new" not in candidates(["t"], base, model)
    out = rerank(RerankRequest(["t"], base, model, k=10))
    assert [e.origin for e in out.entries] == ["base_results", "base_results"]


@st.composite
def rerank_worlds(draw):
    """A small model with dyadic weights, a base ranking and a query.

    Every weight is a multiple of 1/8 of modest size, so every sum of them is
    exact and any summation order gives the same float.  Pools of 104 docs
    rank some documents beyond the deepest rank threshold, and term weights
    favour those, so deep base documents also enter by term association:
    they score no rank weight but stay "base_results" on origin and tie-break.
    """
    pool = [f"d{i:03d}" for i in range(draw(st.sampled_from([8, 104])))]
    order = draw(st.permutations(pool))
    depth = draw(st.one_of(st.integers(0, len(pool)), st.integers(len(pool) - 6, len(pool))))
    base = {"base": ranked(order[:depth])}
    deep = base["base"].doc_ids()[96:]
    terms = ["t0", "t1", "t2"]
    term_docs = deep + pool[:8] + ["x0", "x1"]
    pairs = draw(st.lists(st.tuples(st.sampled_from(terms), st.sampled_from(term_docs)),
                          unique=True, max_size=12))
    space = FeatureSpace(("base",))
    for term, doc in pairs:
        space.term_doc_id(term, doc)
    space.freeze()
    w_min = draw(st.integers(-16, 8)) / 8  # negative too: rank scores need not fall with rank
    eighths = st.integers(-24, 24).map(lambda n: n / 8)
    w = np.array(
        [w_min + draw(st.integers(0, 24)) / 8 for _ in range(N_RANK_FEATURES)]
        + [draw(eighths) for _ in pairs]
    )
    model = Model(space=space, weights=w, C=1.0, w_min=w_min, meta={})
    query_terms = draw(st.lists(st.sampled_from(terms + ["t9"]), max_size=4))
    k = draw(st.one_of(st.integers(1, 15), st.just(250)))  # 250 returns every candidate
    return model, base, query_terms, k


def base_rank(base, doc):
    """1-based rank of `doc` in the base ranking, or None, by linear search."""
    doc_ids = base["base"].doc_ids()
    return doc_ids.index(doc) + 1 if doc in doc_ids else None


def dense_phi(model, doc, query_terms, base):
    """Dense feature vector of one document through the training featurizer."""
    vec = phi(model.space, doc, query_terms, base_rank(base, doc))
    out = np.zeros(model.space.dim)
    out[list(vec.ids)] = vec.values
    return out


@settings(max_examples=200, deadline=None)
@given(world=rerank_worlds())
def test_rerank_matches_dense_oracle(world):
    model, base, query_terms, k = world
    out = rerank(RerankRequest(query_terms, base, model, k))

    def sort_rank(doc):
        rank = base_rank(base, doc)
        return float("inf") if rank is None else rank

    oracle = {d: float(model.weights @ dense_phi(model, d, query_terms, base))
              for d in candidates(query_terms, base, model)}
    expected = sorted(oracle, key=lambda d: (-oracle[d], sort_rank(d), d))[:k]
    assert out.doc_ids() == expected
    for e in out.entries:
        assert e.score == oracle[e.doc_id]
        assert e.score == score(e.doc_id, query_terms, base, model)
        in_base = base_rank(base, e.doc_id) is not None
        assert e.origin == ("base_results" if in_base else "term_association")


def test_rerank_is_exact_on_a_trained_model():
    # the dyadic worlds above sum exactly in any order; a trained model's
    # weights do not, so only score's own order of summation gives its bits
    docs, intents = make_fixture(300, 13)
    corpus, model = trained_qc(docs, intents, sessions=80)
    queries = serve_queries(corpus, model, 500, seed=5)
    assert sum(len(set(q)) < len(q) for q in queries) > 5  # some repeat a term
    injected = 0
    for i, terms in enumerate(queries):
        base = {"base": base_retrieve(corpus, terms, 100)}
        k = 10 if i % 2 else 1000  # every other query reranks its whole candidate set
        out = rerank(RerankRequest(terms, base, model, k))
        scores = {d: score(d, terms, base, model) for d in candidates(terms, base, model)}
        expected = sorted(scores, key=lambda d: (-scores[d], base_rank(base, d) or 10**9, d))
        assert out.doc_ids() == expected[:k]
        assert [e.score for e in out.entries] == [scores[d] for d in out.doc_ids()]
        injected += "term_association" in out.origins
    assert injected > 20
