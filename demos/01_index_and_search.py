# Build an inverted index over a handful of documents and run the tf-idf
# baseline retrieval function.

from chainrank import Document, base_retrieve, build_index


def header(msg):
    print("-" * len(msg))
    print(msg)
    print("-" * len(msg))


docs = [
    Document("catalog", "library catalog", "search the catalog for books and journals"),
    Document("rare", "rare books room", "the rare books room holds manuscripts and maps"),
    Document("hours", "opening hours", "reading room hours and holiday closings"),
    Document("archives", "special collections", "special collections and university archives"),
]

header("Index")
corpus = build_index(docs)
print(f"{len(corpus)} documents, {len(corpus.vocabulary)} distinct terms")
print("terms:", " ".join(sorted(corpus.vocabulary)))

header("Queries")
for query in (["rare", "books"], ["special", "collections"], ["tea"]):
    ranking = base_retrieve(corpus, query, k=3)
    print(f"\nquery {' '.join(query)!r}:")
    if not ranking.entries:
        print("  (no results)")
    for rank, e in enumerate(ranking.entries, start=1):
        print(f"  {rank}. {e.doc_id:<10} score {e.score:.4f}")

# Title terms count double, so 'rare books room' dominates the first query,
# and a query matching nothing returns an empty ranking rather than an error.
