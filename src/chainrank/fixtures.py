"""Synthetic corpus and intent fixtures for experiments and tests.

The corpus is built from ten disjoint topic vocabularies plus shared filler
words.  Intents come in five shapes that exercise different learning paths:

  * misspelling: the first scripted query is a token that occurs in no
    document (zero results), the reformulation hits the target docs;
  * vocabulary mismatch: the first query's words occur only in a couple of
    off-topic documents, the reformulation hits the targets;
  * refine: the first query is a broad topic word matching a whole topic
    (nothing relevant), the reformulation narrows to the targets;
  * easy: a single query that already ranks the targets on top;
  * deep: decoy documents outscore the single relevant one, so it sits low
    in the baseline ranking and only persistent scanners find it.

Each marker term occurs in three relevant target documents and three
irrelevant same-topic distractors, so marker queries return mixed-relevance
lists and clicks genuinely discriminate.
"""

from __future__ import annotations

from json.encoder import encode_basestring  # json.dumps of a str, ensure_ascii=False

import numpy as np

from .corpus import Document
from .errors import DATA_EXIT, ChainrankError, DataError
from .simulate import Intent

_TOPICS: dict[str, list[str]] = {
    "astronomy": ["telescope", "nebula", "galaxy", "orbit", "comet", "stellar",
                  "eclipse", "meteor", "planet", "cosmos"],
    "baking": ["dough", "oven", "yeast", "flour", "crust", "knead", "pastry",
               "loaf", "crumb", "proofing"],
    "gardening": ["seedling", "mulch", "pruning", "perennial", "trellis", "bloom",
                  "weeding", "shrub", "greenhouse", "bulbs"],
    "cycling": ["pedal", "saddle", "handlebar", "sprocket", "helmet", "tire",
                "chainring", "commute", "gears", "frame"],
    "databases": ["table", "rows", "transaction", "schema", "replication", "storage",
                  "latency", "backup", "partition", "cursor"],
    "sailing": ["rudder", "keel", "mast", "harbor", "regatta", "mooring", "tide",
                "knots", "hull", "jib"],
    "pottery": ["kiln", "glaze", "clay", "wheel", "ceramic", "firing", "slip",
                "stoneware", "bisque", "throwing"],
    "chess": ["opening", "endgame", "gambit", "castling", "tactics", "checkmate",
              "knight", "bishop", "tempo", "blunder"],
    "weather": ["forecast", "humidity", "cyclone", "rainfall", "frost", "thunder",
                "visibility", "gust", "drizzle", "overcast"],
    "coffee": ["espresso", "grinder", "roast", "brewing", "crema", "portafilter",
               "beans", "tamper", "latte", "aroma"],
}

_FILLER = ["the", "of", "and", "a", "to", "in", "for", "with", "notes", "guide",
           "basics", "overview", "introduction", "series", "handbook", "tips",
           "common", "general", "article", "reference"]
_BODY_FILLER = 15  # filler words per body, alternating with as many topic words

# (topic, marker, first query)        -> zero-result misspelling chains
_MISSPELL = [
    ("astronomy", "spectrograph", ("spectrograf",)),
    ("baking", "sourdough", ("sourdouh",)),
    ("databases", "sharding", ("shardng",)),
    ("coffee", "arabica", ("arabika",)),
]
# (topic, marker, first query, foreign topic hosting the first query's words)
_MISMATCH = [
    ("gardening", "compost", ("soil", "enrichment"), "pottery"),
    ("sailing", "spinnaker", ("canvas", "rigging"), "weather"),
    ("chess", "zugzwang", ("stuck", "position"), "cycling"),
]
_REFINE = ("pottery", "raku")  # first query: the bare topic word
_EASY = ("weather", "barometer")
_DEEP = ("cycling", "derailleur")

N_TARGETS = 3
N_DISTRACTORS = 3
_FOREIGN_DOC_IDX = (7, 8)
_DECOY_IDX = (10, 11, 12, 13, 14, 15)
_DEEP_TARGET_IDX = 20
DEFAULT_DOCS, DEFAULT_SEED = 1000, 13  # the fixture of the experiments and benchmarks


def make_fixture(n_docs: int = DEFAULT_DOCS, seed: int = DEFAULT_SEED) -> tuple[list[Document], list[Intent]]:
    """Build the synthetic corpus and its ten intents. Deterministic per seed.

    Documents are created topic by topic, in `_TOPICS` order, and within a
    topic by index j.  Each body is 30 words: topic words in the even slots,
    filler words in the odd ones.  The filler is one array draw,
    `rng.integers(len(_FILLER), size=_BODY_FILLER * n_docs)`, and each document
    takes the next _BODY_FILLER values in creation order.  The fixture's bytes
    depend on that order and on numpy's bounded-integer stream for the seed.
    """
    n_topics = len(_TOPICS)
    if n_docs < 30 * n_topics:
        raise DataError(f"need at least {30 * n_topics} docs, got {n_docs}")
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    filler = [_FILLER[k] for k in rng.integers(len(_FILLER), size=_BODY_FILLER * n_docs).tolist()]
    per_topic = n_docs // n_topics
    extra = n_docs - per_topic * n_topics

    titles: dict[str, str] = {}
    bodies: dict[str, str] = {}
    topic_docs: dict[str, list[str]] = {}
    tokens = [""] * (2 * _BODY_FILLER)
    drawn = 0
    for t_idx, (topic, words) in enumerate(_TOPICS.items()):
        count = per_topic + (1 if t_idx < extra else 0)
        topic_docs[topic] = []
        for j in range(count):
            doc_id = f"{topic}-{j:03d}"
            topic_docs[topic].append(doc_id)
            titles[doc_id] = f"{topic} {words[j % len(words)]} {j}"
            tokens[0::2] = [words[(j + i) % len(words)] for i in range(0, 2 * _BODY_FILLER, 2)]
            tokens[1::2] = filler[drawn:drawn + _BODY_FILLER]
            drawn += _BODY_FILLER
            bodies[doc_id] = " ".join(tokens)

    intents: list[Intent] = []

    def add_targets(topic: str, marker: str) -> dict[str, float]:
        # marker goes into three relevant docs and three same-topic
        # distractors; only the first three are graded relevant
        rel = {}
        for j in range(N_TARGETS + N_DISTRACTORS):
            doc_id = topic_docs[topic][j]
            titles[doc_id] += f" {marker}"
            bodies[doc_id] += f" {marker}"
            if j < N_TARGETS:
                rel[doc_id] = 1.0
        return rel

    for topic, marker, wrong in _MISSPELL:
        rel = add_targets(topic, marker)
        intents.append(Intent(f"misspell-{topic}", rel, (tuple(wrong), (marker,))))

    for topic, marker, syn, foreign in _MISMATCH:
        rel = add_targets(topic, marker)
        for idx in _FOREIGN_DOC_IDX:
            doc_id = topic_docs[foreign][idx]
            bodies[doc_id] += " " + " ".join(syn)
        intents.append(Intent(f"mismatch-{topic}", rel, (tuple(syn), (marker,))))

    topic, marker = _REFINE
    rel = add_targets(topic, marker)
    intents.append(Intent(f"refine-{topic}", rel, ((topic,), (marker,))))

    topic, marker = _EASY
    rel = add_targets(topic, marker)
    intents.append(Intent(f"easy-{topic}", rel, ((marker,),)))

    topic, marker = _DEEP
    for idx in _DECOY_IDX:
        doc_id = topic_docs[topic][idx]
        titles[doc_id] += f" {marker}"
    deep_target = topic_docs[topic][_DEEP_TARGET_IDX]
    bodies[deep_target] += f" {marker}"
    intents.append(Intent(f"deep-{topic}", {deep_target: 1.0}, ((marker,),)))

    docs = [Document(doc_id, titles[doc_id], bodies[doc_id]) for doc_id in sorted(titles)]
    return docs, intents


def documents_to_jsonl(docs: list[Document]) -> str:
    """One line per document, each the `json.dumps(rec, ensure_ascii=False,
    separators=(",", ":"))` of {"doc_id","title","body"}, written with json's
    own string encoder."""
    q = encode_basestring
    return "".join(f'{{"doc_id":{q(d.doc_id)},"title":{q(d.title)},"body":{q(d.body)}}}\n'
                   for d in docs)


def main(argv: list[str] | None = None) -> int:
    """Write a fixture corpus (JSON-lines) and intent file to a directory."""
    import argparse
    import sys
    from pathlib import Path

    from .simulate import write_intents

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--docs", type=int, default=DEFAULT_DOCS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)

    try:
        docs, intents = make_fixture(args.docs, args.seed)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        (args.out_dir / "corpus.jsonl").write_text(documents_to_jsonl(docs), encoding="utf-8")
        (args.out_dir / "intents.json").write_text(write_intents(intents), encoding="utf-8")
    except (ChainrankError, OSError) as exc:  # an OSError's text names its path
        print(f"chainrank.fixtures: {exc}", file=sys.stderr)
        return DATA_EXIT
    print(f"wrote {len(docs)} docs and {len(intents)} intents to {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
