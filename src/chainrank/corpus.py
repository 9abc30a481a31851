"""Document corpus, inverted index, the baseline retrieval function, and rankings.

The baseline scorer is a tf-idf cosine variant: ln-scaled term frequencies,
smoothed idf, title tokens counted twice, and scores normalized by the
document vector norm only.  Dropping the query-norm constant does not change
the ranking for a fixed query and keeps scores monotone in added matching
query terms.  The index tabulates 1 + ln n for every count n it stores; the
document norms and each posting's weight at query time both read that table,
so a query takes one logarithm per query term, not one per posting.

`RankedList` is the one ranking type: base retrieval, a learned model's
reranking and the CLI's `rerank` stage all return it.  An entry's rank is its
position plus one.  Its origin is "base_results", or "term_association" for a
document a reranking brought in from outside the base ranking.  The list is
stored as three tuples, doc ids, scores and origins, so serving a query builds
no object per document; the `RankEntry` view is made only when read.
"""

from __future__ import annotations

import math
import operator
import re
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import DataError, canonical_json, json_lines, json_object, malformed, string

INDEX_VERSION = 1
_DOCUMENT_FIELDS = {"doc_id", "title", "body"}
BASE_DEPTH = 100  # base results retrieved per query, and the deepest rank feature
RESULTS_PER_QUERY = 10  # results shown per query, and the default depth of a reranking

_TOKEN = re.compile(r"[0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercase, then keep the maximal alphanumeric runs. No stemming, no stopwords."""
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class Document:
    """One indexed document.

    `term_counts` maps each term to its weighted count: its count in the
    title + body plus one per title occurrence (title tokens count double),
    in the order of first occurrence in title then body.  It is computed on
    first use and kept, so a second index over the same documents reuses it;
    the fields are frozen, so the counts cannot go stale.
    """

    doc_id: str
    title: str
    body: str

    @cached_property
    def term_counts(self) -> dict[str, int]:
        title = tokenize(self.title)
        counts = Counter(title + title + tokenize(self.body))
        # interned, so documents share one string per term instead of each
        # keeping its own copy for as long as the index lives
        return dict(zip(map(sys.intern, counts), counts.values()))


@dataclass
class RankEntry:
    doc_id: str
    score: float
    origin: str = "base_results"  # or "term_association": reranked in from outside the base


class RankedList:
    """Ordered ranking: non-increasing scores, each doc once; rank is position + 1.

    `RankedList(entries)` builds one from `RankEntry` objects.  The ranking
    is held as the tuples `ids`, `scores` and `origins`; `entries` rebuilds
    the `RankEntry` list on each read.  A NaN score passes the order check,
    as no comparison with it is true.
    """

    __slots__ = ("ids", "scores", "origins")

    def __init__(self, entries: list[RankEntry]):
        self._set(tuple(e.doc_id for e in entries), tuple(e.score for e in entries),
                  tuple(e.origin for e in entries))

    @classmethod
    def _of(cls, ids: tuple[str, ...], scores: tuple[float, ...],
            origins: tuple[str, ...]) -> RankedList:
        """A ranking from its columns, checked as the constructor checks entries."""
        ranking = cls.__new__(cls)
        ranking._set(ids, scores, origins)
        return ranking

    def _set(self, ids, scores, origins) -> None:
        if any(map(operator.lt, scores, scores[1:])) or len(set(ids)) != len(ids):
            seen = set()
            for i, doc_id in enumerate(ids):  # report the first fault in list order
                if i and scores[i] > scores[i - 1]:
                    raise DataError("scores must be non-increasing")
                if doc_id in seen:
                    raise DataError(f"duplicate doc_id in ranking: {doc_id}")
                seen.add(doc_id)
        self.ids, self.scores, self.origins = ids, scores, origins

    @property
    def entries(self) -> list[RankEntry]:
        return [RankEntry(*e) for e in zip(self.ids, self.scores, self.origins)]

    def doc_ids(self) -> list[str]:
        return list(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return (self.ids, self.scores, self.origins) == (other.ids, other.scores, other.origins)

    def __repr__(self) -> str:
        return f"RankedList({self.entries!r})"


class Corpus:
    """Immutable document collection with an inverted index.

    The index maps each term to {doc_id: weighted term frequency}, the
    count of the term in title + body plus one per title occurrence (title
    tokens count double), with doc_ids in sorted order.  It is built with
    the idf, the 1 + ln n table and the document norms on the first
    retrieval, so a stage that never retrieves never pays for it.  Instances
    are safe for concurrent reads, the first one included: one thread
    builds, the others wait for it.
    """

    def __init__(self, documents: list[Document]):
        self._build_lock = threading.Lock()
        self._built = None
        self.documents: dict[str, Document] = {}
        for doc in sorted(documents, key=lambda d: d.doc_id):
            if doc.doc_id in self.documents:
                raise DataError(f"duplicate doc_id: {doc.doc_id}")
            self.documents[doc.doc_id] = doc

    @property
    def vocabulary(self):
        """The indexed terms: a keys view, which compares equal to a set."""
        return self._index()[1].keys()

    def _index(self) -> tuple[dict[str, float], dict[str, dict[str, int]], dict[str, float],
                              list[float]]:
        """(idf, weighted index, norms, log_tf), built on the first call and the same
        object after; log_tf[n] is 1 + ln n for each count n up to the largest stored."""
        built = self._built  # read without the lock: once set, it never changes
        if built is not None:
            return built
        with self._build_lock:
            if self._built is not None:  # another thread built it while this one waited
                return self._built
            weighted: dict[str, dict[str, int]] = defaultdict(dict)
            for doc_id, doc in self.documents.items():
                for term, n in doc.term_counts.items():
                    weighted[term][doc_id] = n

            n_docs = len(self.documents)
            idf = {
                t: 1.0 + math.log((1 + n_docs) / (1 + len(weighted[t])))
                for t in sorted(weighted)
            }
            top = max((max(counts.values()) for counts in weighted.values()), default=0)
            log_tf = [0.0] + [1.0 + math.log(n) for n in range(1, top + 1)]  # one log per count
            # Terms in sorted order, so each document's squares add up in the
            # order of its own sorted terms.
            norm_sq = dict.fromkeys(self.documents, 0.0)
            for term, t_idf in idf.items():
                for doc_id, wtf in weighted[term].items():
                    w = log_tf[wtf] * t_idf
                    norm_sq[doc_id] += w * w
            norms = {doc_id: math.sqrt(acc) for doc_id, acc in norm_sq.items()}
            self._built = (idf, dict(weighted), norms, log_tf)
            return self._built

    def __len__(self) -> int:
        return len(self.documents)

    def doc_ids(self) -> list[str]:
        return list(self.documents)


def build_index(documents: list[Document]) -> Corpus:
    """Build an index; rejects duplicate doc_ids. Deterministic for a given input set."""
    return Corpus(documents)


def base_retrieve(corpus: Corpus, query_terms: list[str], k: int = BASE_DEPTH) -> RankedList:
    """Rank documents containing at least one query term by the tf-idf baseline.

    Empty queries and queries matching nothing yield an empty list. Ties
    break by doc_id ascending: one sort of (-score, doc_id) pairs orders the
    matches, and the first k become the list's columns.  Query terms are
    counted in a plain dict, and the first matching term, in sorted order,
    fills the scores in one pass.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts: dict[str, int] = {}
    for t in query_terms:
        if t:
            counts[t] = counts.get(t, 0) + 1
    idf, weighted, norms, log_tf = corpus._index()
    scores: dict[str, float] = {}
    for term in sorted(counts):
        t_weighted = weighted.get(term)  # doc_id -> weighted count, by doc_id
        if t_weighted is None:
            continue
        t_idf = idf[term]
        # log_tf stops at the largest count a document holds; a query may repeat a term more
        q_w = (1.0 + math.log(counts[term])) * t_idf
        if not scores:  # the first matching term fills the scores in one pass
            scores = {d: 0.0 + q_w * (log_tf[wtf] * t_idf) for d, wtf in t_weighted.items()}
            continue
        for doc_id, wtf in t_weighted.items():
            scores[doc_id] = scores.get(doc_id, 0.0) + q_w * (log_tf[wtf] * t_idf)
    top = sorted([(-(s / norms[d]), d) for d, s in scores.items()])[:k]
    ids = tuple([d for _, d in top])
    return RankedList._of(ids, tuple([-neg for neg, _ in top]), ("base_results",) * len(ids))


def index_to_json(corpus: Corpus) -> str:
    """Versioned JSON document store; round-trips byte-exactly through parse + dump."""
    payload = {
        "version": INDEX_VERSION,
        "documents": [
            {"doc_id": d.doc_id, "title": d.title, "body": d.body}
            for d in corpus.documents.values()
        ],
    }
    return canonical_json(payload)


def _document(rec: dict) -> Document:
    """A document from a record's string doc_id, title and body."""
    return Document(string(rec["doc_id"]), string(rec["title"]), string(rec["body"]))


def index_from_json(text: str) -> Corpus:
    """Parse an index artifact; malformed text or records raise DataError."""
    payload = json_object(text, "index artifact", INDEX_VERSION)
    with malformed("index artifact"):
        docs = []
        for i, rec in enumerate(payload["documents"]):
            if not isinstance(rec, dict) or set(rec) != _DOCUMENT_FIELDS:
                raise DataError(f"malformed index artifact: document {i} must have exactly "
                                f"the fields {sorted(_DOCUMENT_FIELDS)}")
            docs.append(_document(rec))
    return build_index(docs)


def load_documents(path: str | Path) -> list[Document]:
    """Load a corpus from a directory of text files or a JSON-lines file.

    Directory: each UTF-8 file becomes one document; the file stem is the
    doc_id, the first line the title, the remainder the body.  JSON-lines:
    one {"doc_id","title","body"} object per line.
    """
    path = Path(path)
    if not path.is_dir():
        return json_lines(path.read_text(encoding="utf-8"), _document, source=str(path))
    docs = []
    for p in sorted(path.iterdir()):
        if p.is_file():
            first, _, rest = p.read_text(encoding="utf-8").partition("\n")
            docs.append(Document(p.stem, first.strip(), rest.strip()))
    return docs
