import concurrent.futures
import math
import sys
import threading
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank.corpus import (
    BASE_DEPTH,
    Document,
    RankedList,
    RankEntry,
    base_retrieve,
    build_index,
    index_from_json,
    index_to_json,
    load_documents,
    tokenize,
)
from chainrank.errors import DataError
from chainrank.fixtures import make_fixture
from chainrank.pipeline import base_ranker
from helpers import naive_index, naive_retrieve, split_tokenize


def dense_tfidf_scores(docs, query_terms):
    """Dense re-implementation of the documented scoring formula (oracle)."""
    n = len(docs)
    df = Counter()
    per_doc = {}
    for d in docs:
        tt, bt = tokenize(d.title), tokenize(d.body)
        per_doc[d.doc_id] = (tt, bt)
        df.update(set(tt + bt))

    def idf(t):
        return 1.0 + math.log((1 + n) / (1 + df[t]))

    scores = {}
    q = Counter(query_terms)
    for d in docs:
        tt, bt = per_doc[d.doc_id]
        counts = Counter(tt + bt)
        title_counts = Counter(tt)
        vec = {
            t: (1.0 + math.log(counts[t] + title_counts[t])) * idf(t) for t in counts
        }
        norm = math.sqrt(sum(v * v for v in vec.values()))
        if not any(t in counts for t in q):
            continue
        s = sum(
            (1.0 + math.log(q[t])) * idf(t) * vec.get(t, 0.0) for t in q if t in df
        )
        scores[d.doc_id] = s / norm
    return scores


def test_empty_document_set():
    corpus = build_index([])
    assert corpus.vocabulary == set()
    assert len(corpus) == 0


def test_single_doc_vocabulary():
    corpus = build_index([Document("d1", "rare books", "")])
    assert corpus.vocabulary == {"rare", "books"}
    assert corpus._index()[1] == {"rare": {"d1": 2}, "books": {"d1": 2}}  # title counts double


def test_duplicate_doc_id_rejected():
    docs = [Document("dup", "a", "b"), Document("dup", "c", "d")]
    with pytest.raises(DataError, match="dup"):
        build_index(docs)


def test_postings_match_linear_scan(toy_docs, toy_corpus):
    # the weighted postings: title + body count, plus one per title occurrence
    counts = Counter()
    for d in toy_docs:
        for tok in tokenize(d.title) * 2 + tokenize(d.body):
            counts[(tok, d.doc_id)] += 1
    seen = set()
    for term, plist in toy_corpus._index()[1].items():
        assert list(plist) == sorted(plist)
        for doc_id, wtf in plist.items():
            assert wtf == counts[(term, doc_id)]
            seen.add((term, doc_id))
    assert seen == set(counts)


def test_vocabulary_is_token_union(toy_docs, toy_corpus):
    expected = set()
    for d in toy_docs:
        expected |= set(tokenize(d.title) + tokenize(d.body))
    assert toy_corpus.vocabulary == expected


def test_retrieve_unknown_term_empty(toy_corpus):
    assert base_retrieve(toy_corpus, ["zzzz"], 10).entries == []


def test_retrieve_empty_query(toy_corpus):
    assert base_retrieve(toy_corpus, [], 10).entries == []


def test_retrieve_single_match(toy_corpus):
    result = base_retrieve(toy_corpus, ["archives"], 10)
    assert result.doc_ids() == ["doc-b"]


def test_ranked_list_rejects_rising_score_and_repeated_doc():
    tied = RankedList([RankEntry("a", 1.0), RankEntry("b", 1.0)])
    assert tied.doc_ids() == ["a", "b"]
    assert {e.origin for e in tied.entries} == {"base_results"}
    with pytest.raises(DataError, match="non-increasing"):
        RankedList([RankEntry("a", 1.0), RankEntry("b", 2.0)])
    with pytest.raises(DataError, match="duplicate doc_id in ranking: a"):
        RankedList([RankEntry("a", 2.0), RankEntry("b", 1.5), RankEntry("a", 1.0)])
    # with both faults, the one earlier in the list is reported
    with pytest.raises(DataError, match="^duplicate doc_id in ranking: a$"):
        RankedList([RankEntry("a", 2.0), RankEntry("a", 1.0), RankEntry("b", 3.0)])
    with pytest.raises(DataError, match="^scores must be non-increasing$"):
        RankedList([RankEntry("a", 1.0), RankEntry("b", 3.0), RankEntry("a", 0.5)])


def test_ranked_list_accepts_nan_score():
    # no comparison with NaN is true, so NaN never counts as a rising score
    nan = float("nan")
    ranking = RankedList([RankEntry("a", 2.0), RankEntry("b", nan), RankEntry("c", 3.0)])
    assert ranking.doc_ids() == ["a", "b", "c"]
    assert math.isnan(ranking.entries[1].score)


def test_ranked_list_entries_round_trip_and_equality_by_content():
    entries = [RankEntry("a", 2.0), RankEntry("b", 1.0, "term_association"), RankEntry("c", 1.0)]
    ranking = RankedList(entries)
    assert ranking.entries == entries
    assert ranking.entries is not ranking.entries  # a fresh list on each read
    assert len(ranking) == 3
    assert ranking == RankedList([RankEntry(e.doc_id, e.score, e.origin) for e in entries])
    assert ranking != RankedList(entries[:2])
    assert ranking != RankedList([RankEntry("a", 2.0), RankEntry("b", 1.0), RankEntry("c", 1.0)])
    assert RankedList([]) == RankedList([]) and RankedList([]).entries == []


def test_mutating_doc_ids_changes_no_ranking(toy_corpus):
    ranker = base_ranker(toy_corpus)
    first = ranker(["rare", "collections"], 10)
    expected = list(first.entries)
    ids = first.doc_ids()
    ids.reverse()
    ids.append("intruder")
    assert first.doc_ids() != ids
    assert first.entries == expected
    again = ranker(["rare", "collections"], 10)
    assert again is first and again.doc_ids() == [e.doc_id for e in expected]


def test_document_is_frozen(toy_corpus):
    doc = next(iter(toy_corpus.documents.values()))
    with pytest.raises(FrozenInstanceError):
        doc.title = "banana"
    assert doc.title != "banana" and "banana" not in doc.term_counts


def test_retrieve_k_validation(toy_corpus):
    with pytest.raises(ValueError):
        base_retrieve(toy_corpus, ["rare"], 0)


def test_retrieve_matches_dense_oracle(toy_docs, toy_corpus):
    for query in (["rare"], ["rare", "books"], ["the", "room"], ["collections", "hours"]):
        got = base_retrieve(toy_corpus, query, 10)
        oracle = dense_tfidf_scores(toy_docs, query)
        expected = sorted(oracle, key=lambda d: (-oracle[d], d))
        assert got.doc_ids() == expected
        for e in got.entries:
            assert e.score == pytest.approx(oracle[e.doc_id], abs=1e-12)


def test_every_hit_contains_a_query_term(toy_docs, toy_corpus):
    result = base_retrieve(toy_corpus, ["rare", "hours"], 10)
    for e in result.entries:
        doc = next(d for d in toy_docs if d.doc_id == e.doc_id)
        assert {"rare", "hours"} & set(split_tokenize(doc.title) + split_tokenize(doc.body))


def test_deterministic_across_builds_and_threads(toy_docs):
    c1, c2 = build_index(toy_docs), build_index(toy_docs)
    assert c1._index() == c2._index()
    query = ["rare", "collections"]
    expected = base_retrieve(c1, query, 10).doc_ids()
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: base_retrieve(c1, query, 10).doc_ids(), range(32)))
    assert all(r == expected for r in results)


def test_first_build_races_safely():
    # a corpus is built on its first read; eight threads make that read at once
    docs, intents = make_fixture(300, 13)
    queries = [list(terms) for it in intents for terms in it.query_script] + [["guide", "absent"]]
    serial = build_index(docs)
    expected = [[(e.doc_id, e.score) for e in base_retrieve(serial, q, 20).entries]
                for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            corpus = build_index(docs)
            assert corpus._built is None
            start = threading.Barrier(8, timeout=30)

            def run(_):
                start.wait()
                built = corpus._index()
                got = [[(e.doc_id, e.score) for e in base_retrieve(corpus, q, 20).entries]
                       for q in queries]
                return got, built

            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, i) for i in range(8)]
                results = [f.result(timeout=60) for f in futures]
            assert all(got == expected for got, _ in results)
            assert all(built is corpus._index() for _, built in results)  # built once
            assert corpus._index() == serial._index()
    finally:
        sys.setswitchinterval(interval)


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


@settings(max_examples=100, deadline=None)
@given(
    bodies=st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12),
                    min_size=1, max_size=5),
    query=st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
    target=st.integers(0, 4),
)
def test_score_monotone_in_added_unique_term(bodies, query, target):
    # appending a query term that occurs only in one document never lowers
    # that document's score
    target %= len(bodies)
    docs = [
        Document(f"d{i}", "", " ".join(b) + (" uniquetoken" if i == target else ""))
        for i, b in enumerate(bodies)
    ]
    corpus = build_index(docs)
    before = {e.doc_id: e.score for e in base_retrieve(corpus, query, 10).entries}
    after = {e.doc_id: e.score for e in base_retrieve(corpus, query + ["uniquetoken"], 10).entries}
    tid = f"d{target}"
    if tid in before:
        assert after[tid] >= before[tid] - 1e-12


# shared with titles so title terms also occur in bodies; non-ASCII words
# lowercase into several tokens ("İ" becomes "i" plus a combining dot)
INDEX_WORDS = WORDS[:4] + ["x1", "42", "Alpha", "naïve", "İSTANBUL", "straße", "ǅemal"]
_texts = st.one_of(
    st.lists(st.sampled_from(INDEX_WORDS), max_size=10).map(" ".join),
    st.text(max_size=30),
)


@settings(max_examples=150, deadline=None)
@given(
    fields=st.lists(st.tuples(_texts, _texts), min_size=1, max_size=6),
    queries=st.lists(st.lists(st.sampled_from(INDEX_WORDS + ["absent"]), max_size=4),
                     min_size=1, max_size=4),
)
def test_index_matches_naive_builder(fields, queries):
    docs = [Document(f"d{i:02d}", title, body) for i, (title, body) in enumerate(fields)]
    corpus = build_index(docs[::-1])
    oracle = naive_index(docs)
    idf, weighted, norms, log_tf = corpus._index()
    assert corpus.vocabulary == set(oracle["postings"])
    assert idf == oracle["idf"]
    assert weighted == oracle["weighted"]
    assert norms == oracle["norms"]  # float ==: equal to the bit
    top = max((n for counts in oracle["weighted"].values() for n in counts.values()), default=0)
    assert log_tf == [0.0] + [1.0 + math.log(n) for n in range(1, top + 1)]
    for query in queries + [[term] for term in oracle["postings"]]:
        terms = [t for w in query for t in split_tokenize(w)]
        got = base_retrieve(corpus, terms, 5)
        assert [(e.doc_id, e.score) for e in got.entries] == naive_retrieve(oracle, terms, 5)
    # a second build over the same documents reuses their cached term counts
    assert build_index(docs)._index() == (oracle["idf"], oracle["weighted"], oracle["norms"],
                                          log_tf)
    for doc in docs:
        title, body = split_tokenize(doc.title), split_tokenize(doc.body)
        assert doc.term_counts == Counter(title + title + body)  # title tokens count double
        assert list(doc.term_counts) == list(dict.fromkeys(title + body))  # first-seen order
        assert all(term is sys.intern(term) for term in doc.term_counts)  # one string per term


def test_full_depth_retrieve_matches_naive_on_the_fixture():
    # every term alone, each with its sorted-order neighbour, and twice over:
    # the most common terms have over 500 postings, so depth 100 cuts deep lists
    docs, _ = make_fixture(1000, 13)
    corpus = build_index(docs)
    oracle = naive_index(docs)
    vocabulary = sorted(oracle["postings"])
    assert max(len(p) for p in oracle["postings"].values()) > 500
    queries = ([[t] for t in vocabulary] + [list(p) for p in zip(vocabulary, vocabulary[1:])]
               + [[t, t] for t in vocabulary[::7]])
    for terms in queries:
        got = base_retrieve(corpus, terms, BASE_DEPTH)
        assert list(zip(got.ids, got.scores)) == naive_retrieve(oracle, terms, BASE_DEPTH)
        assert set(got.origins) <= {"base_results"}
    # three terms with one repeated, in each position, cut at depths 1, 10 and
    # 100; and a term repeated more often than any document holds one
    repeats = [[t, u, t] for t, u in zip(vocabulary[::11], vocabulary[5::11])]
    repeats += [[u, t, t] for t, u in zip(vocabulary[3::17], vocabulary[9::17])]
    repeats += [[t, t, t] for t in vocabulary[::53]]
    most = max(n for counts in oracle["weighted"].values() for n in counts.values())
    repeats += [[t] * (most + 2) for t in vocabulary[::97]]
    for terms in repeats:
        for k in (1, 10, BASE_DEPTH):
            got = base_retrieve(corpus, terms, k)
            assert list(zip(got.ids, got.scores)) == naive_retrieve(oracle, terms, k)


@settings(max_examples=300, deadline=None)
@given(text=st.text())
def test_tokenize_matches_split_definition(text):
    assert tokenize(text) == split_tokenize(text)


def test_index_round_trip(tmp_path, toy_docs, toy_corpus):
    path = tmp_path / "index.json"
    path.write_text(index_to_json(toy_corpus), encoding="utf-8")
    loaded = index_from_json(path.read_text(encoding="utf-8"))
    for query in (["rare"], ["collections"], ["hours", "room"]):
        assert base_retrieve(loaded, query, 10).doc_ids() == \
            base_retrieve(toy_corpus, query, 10).doc_ids()
    first = path.read_bytes()
    path.write_text(index_to_json(loaded), encoding="utf-8")
    assert path.read_bytes() == first


def test_index_version_mismatch(tmp_path):
    path = tmp_path / "index.json"
    path.write_text('{"version": 99, "documents": []}')
    with pytest.raises(DataError, match="version"):
        index_from_json(path.read_text(encoding="utf-8"))


def test_load_documents_directory(tmp_path):
    (tmp_path / "alpha.txt").write_text("First Title\nbody text here\n")
    (tmp_path / "beta.txt").write_text("Second\nmore body\n")
    docs = load_documents(tmp_path)
    assert [d.doc_id for d in docs] == ["alpha", "beta"]
    assert docs[0].title == "First Title"
    assert "body text" in docs[0].body


def test_load_documents_jsonl(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id":"x","title":"t","body":"b"}\n')
    docs = load_documents(path)
    assert docs[0].doc_id == "x"
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id":"x"}\n')
    with pytest.raises(DataError, match="bad.jsonl:1"):
        load_documents(bad)
