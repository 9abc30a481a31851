"""Behavioral click simulator with known ground truth.

Synthetic users pursue an information need (an Intent) by walking a scripted
sequence of query reformulations against a live ranker.  Scanning is strictly
top-down: the first two results and the one just below a click are always
assessed, any other one with probability `scan_persistence`, and the scan
stops at the first result not assessed.  A viewed document is clicked with
probability

    relevance * (1 - noise) + (1 - relevance) * noise

so at zero noise and binary relevance grades, clicks identify exactly the
relevant viewed documents.  The same confusion rate applies to the user's
read of a clicked page: a session ends once some clicked document is judged
relevant (truly relevant with probability 1 - noise, irrelevant with
probability noise), or when the script is abandoned.  One user model serves
both populations: `simulate`'s users, who write the training log, and
`interleaved_evals`'s, who judge the rankers, take the same step per query.

Every query is recorded with its presented results, and a sidecar stream
maps each query to its intent and true relevance grades, so chain detection,
preference strategies, and interleaved evaluation can all be scored against
ground truth.  Each session draws from its own generator, that of (seed,
session index), from `randomness.session_streams`: generation order cannot
change the output.  Interleaved evaluation takes each session's generator
once for all the comparisons it runs, and every comparison reads that
session's draws from the first, as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from json.encoder import encode_basestring  # json.dumps of a str, ensure_ascii=False
from typing import Callable

from .corpus import RESULTS_PER_QUERY, Corpus, RankedList, tokenize
from .errors import (DataError, canonical_json, json_lines, json_object, malformed, number, string,
                     strings)
from .feedback import Preference
from .interleave import attribute, combine
from .logs import ClickEvent, QueryEvent, SearchLog
from .randomness import SharedUniforms, Uniforms, session_streams

Ranker = Callable[[list[str], int], RankedList]

INTENTS_VERSION = 1
SESSION_GAP_SECONDS = 86400  # distinct sessions sit at least a day apart
REFORMULATE_GAP_SECONDS = (5, 300)  # pause before the next query of a script
INTENT_GAP_SECONDS = (1900, 3600)  # pause before a new need: above the default chain window


@dataclass(frozen=True)
class Intent:
    """One information need: graded relevant docs and a reformulation script."""

    intent_id: str
    relevant_docs: dict[str, float]
    query_script: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.query_script:
            raise DataError(f"intent {self.intent_id}: empty query script")
        for grade in self.relevant_docs.values():
            if not 0.0 <= grade <= 1.0:
                raise DataError(f"intent {self.intent_id}: grade {grade} outside [0,1]")

    def grade(self, doc_id: str) -> float:
        return self.relevant_docs.get(doc_id, 0.0)


@dataclass(frozen=True)
class UserBehavior:
    """The simulated user's probabilities; the viewing rules and pauses are fixed."""

    scan_persistence: float = 0.85
    click_noise: float = 0.0
    reformulate_prob: float = 0.95

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{f.name} must be in [0,1], got {v}")


@dataclass
class TruthRecord:
    """Sidecar entry: which intent a query served and its true relevance map.

    `simulate` gives every record of an intent that intent's own map.
    """

    query_id: str
    intent_id: str
    relevance: dict[str, float]


def scan_and_click(grades: list[float], behavior: UserBehavior, rng: Uniforms) -> list[int]:
    """Simulate one top-down scan; returns clicked 0-based positions in order.

    `rng` is anything with `random()`: a numpy Generator, or a SharedUniforms.
    """
    eps = behavior.click_noise
    clicked: list[int] = []
    for i in range(len(grades)):
        forced = i < 2 or (clicked and clicked[-1] == i - 1)
        if not forced and rng.random() >= behavior.scan_persistence:
            break
        p_click = grades[i] * (1.0 - eps) + (1.0 - grades[i]) * eps
        if rng.random() < p_click:
            clicked.append(i)
    return clicked


def _view(
    grades: list[float], last: bool, behavior: UserBehavior, rng: Uniforms,
) -> tuple[list[int], bool]:
    """One user's turn on one query, whose shown results have true relevance
    `grades`: scan and click, then read the clicked pages in click order
    until one looks relevant (with the confusion rate of clicking).
    Unsatisfied, the user goes on to the next query with probability
    `reformulate_prob`, unless this is the script's `last` query.  Returns
    the clicked 0-based positions, in click order, and whether the user goes on."""
    clicked = scan_and_click(grades, behavior, rng)
    eps = behavior.click_noise
    for pos in clicked:
        if rng.random() < ((1.0 - eps) if grades[pos] >= 0.5 else eps):
            return clicked, False
    return clicked, not last and rng.random() < behavior.reformulate_prob


def _check_sessions(intents: list[Intent], n_sessions: int) -> None:
    if n_sessions < 0:
        raise DataError("n_sessions must be non-negative")
    if not intents and n_sessions > 0:
        raise DataError("need at least one intent")


def simulate(
    corpus: Corpus,
    ranker: Ranker,
    intents: list[Intent],
    behavior: UserBehavior,
    n_sessions: int,
    seed: int,
    results_per_query: int = RESULTS_PER_QUERY,
    multi_intent_prob: float = 0.0,
) -> tuple[SearchLog, list[TruthRecord]]:
    """Generate a log plus ground-truth sidecar; byte-deterministic per seed.

    Sessions cycle through the intents.  With probability `multi_intent_prob`
    a session continues with another information need (never one it already
    pursued, so the intent id is a valid chain label) after a pause drawn
    from INTENT_GAP_SECONDS, which is above the default chain window, so
    heuristic segmentation stays exact.

    `corpus` is the collection `ranker` serves.  The log names documents by
    id only, so nothing here reads it.
    """
    _check_sessions(intents, n_sessions)
    events = []
    truth: list[TruthRecord] = []
    # scalar draws from each session's stream: `integers` calls share it
    for s, rng in enumerate(session_streams(seed, n_sessions)):
        session_id = f"s{s:06d}"
        t = s * SESSION_GAP_SECONDS
        intent_idx = s % len(intents)
        used = {intent_idx}
        n_queries = 0
        while True:
            intent = intents[intent_idx]
            script = intent.query_script
            for qi, terms in enumerate(script):
                qid = f"{session_id}q{n_queries}"
                n_queries += 1
                ranking = ranker(list(terms), results_per_query)
                results = ranking.doc_ids()
                events.append(QueryEvent(qid, session_id, t, list(terms), results))
                truth.append(TruthRecord(qid, intent.intent_id, intent.relevant_docs))
                grades = [intent.grade(d) for d in results]
                clicked, goes_on = _view(grades, qi == len(script) - 1, behavior, rng)
                for pos in clicked:
                    t += 1
                    events.append(ClickEvent(qid, results[pos], pos + 1, t))
                if not goes_on:
                    break
                t += int(rng.integers(REFORMULATE_GAP_SECONDS[0], REFORMULATE_GAP_SECONDS[1] + 1))
            unused = [i for i in range(len(intents)) if i not in used]
            if unused and rng.random() < multi_intent_prob:
                intent_idx = unused[int(rng.integers(len(unused)))]
                used.add(intent_idx)
                t += int(rng.integers(INTENT_GAP_SECONDS[0], INTENT_GAP_SECONDS[1] + 1))
            else:
                break
    return SearchLog(events), truth


@dataclass
class StrategyAccuracy:
    agreements: int = 0
    disagreements: int = 0

    @property
    def strict_pairs(self) -> int:
        return self.agreements + self.disagreements

    @property
    def accuracy(self) -> float | None:
        """None when no strict ground-truth pair was seen (no data)."""
        if not self.strict_pairs:
            return None
        return self.agreements / self.strict_pairs


def strategy_accuracy(
    preferences: list[Preference], truth: list[TruthRecord] | dict[str, TruthRecord]
) -> dict[str, StrategyAccuracy]:
    """Score each strategy against ground truth, skipping equal-relevance pairs."""
    if not isinstance(truth, dict):
        truth = {rec.query_id: rec for rec in truth}
    out: dict[str, StrategyAccuracy] = {}
    for p in preferences:
        rec = truth.get(p.wrt_query)
        if rec is None:
            raise DataError(f"no ground truth for query {p.wrt_query}")
        acc = out.setdefault(p.strategy.value, StrategyAccuracy())
        ga = rec.relevance.get(p.preferred_doc, 0.0)
        gb = rec.relevance.get(p.other_doc, 0.0)
        if ga > gb:
            acc.agreements += 1
        elif ga < gb:
            acc.disagreements += 1
    return out


@dataclass
class PairEvalResult:
    """Interleaved comparison outcome over simulated sessions (per query)."""

    wins_a: int = 0
    wins_b: int = 0
    ties: int = 0
    impressions: int = 0


def interleaved_eval(
    ranker_a: Ranker,
    ranker_b: Ranker,
    intents: list[Intent],
    behavior: UserBehavior,
    n_sessions: int,
    seed: int,
    results_per_query: int = RESULTS_PER_QUERY,
) -> PairEvalResult:
    """`interleaved_evals` of the one comparison (`ranker_a`, `ranker_b`)."""
    return interleaved_evals([(ranker_a, ranker_b)], intents, behavior, n_sessions, seed,
                             results_per_query)[0]


class _Case:
    """One interleaving as the users of one intent see it.

    It holds the combined list, its shown top, the shown documents' grades,
    and the winner of each set of clicked positions met so far, found by
    `attribute` on its first occurrence.
    """

    __slots__ = ("inter", "shown", "grades", "winners")

    def __init__(self, ranking_a: RankedList, ranking_b: RankedList, a_first: bool,
                 intent: Intent, results_per_query: int):
        self.inter = combine(list(ranking_a.ids), list(ranking_b.ids), first_r=a_first)
        self.shown = self.inter.combined[:results_per_query]
        self.grades = [intent.grade(d) for d in self.shown]
        self.winners: dict[tuple[int, ...], str] = {}

    def winner(self, clicked: list[int]) -> str:
        key = tuple(clicked)
        won = self.winners.get(key)
        if won is None:
            won = self.winners[key] = attribute(self.inter, {self.shown[p] for p in clicked}).winner
        return won


def interleaved_evals(
    pairs: list[tuple[Ranker, Ranker]],
    intents: list[Intent],
    behavior: UserBehavior,
    n_sessions: int,
    seed: int,
    results_per_query: int = RESULTS_PER_QUERY,
) -> list[PairEvalResult]:
    """Present combined rankings to simulated users and tally per-query
    winners, one result per (ranker A, ranker B) of `pairs`, in one pass.

    Each session is one `simulate` user on its intent's script: it stops once
    satisfied, abandons the script with probability 1 - `reformulate_prob`
    after each unsatisfied query, and reads its clicks in click order.  The
    leading side is drawn once per session (the user keeps one blend for the
    whole session).  A session's generator is taken from `session_streams`
    once and shared by every comparison: each reads the session's draws from
    the first, so a comparison's result is the one it gets alone.  Each
    distinct (both rankings, leading side, intent) is interleaved and graded
    once per call; the rankings key the memo, so a ranker may return
    different lists for the same terms.
    """
    _check_sessions(intents, n_sessions)
    results = [PairEvalResult() for _ in pairs]
    cases: dict[tuple, _Case] = {}
    for s, stream in enumerate(session_streams(seed, n_sessions)):
        draws: list[float] = []  # the session's draws, read by every comparison
        intent_idx = s % len(intents)
        intent = intents[intent_idx]
        script = intent.query_script
        for (ranker_a, ranker_b), result in zip(pairs, results):
            rng = SharedUniforms(stream, draws)  # this loop only draws `random()`
            a_first = bool(rng.random() < 0.5)  # session-sticky coin
            for qi, terms in enumerate(script):
                ranking_a = ranker_a(list(terms), results_per_query)
                ranking_b = ranker_b(list(terms), results_per_query)
                key = (ranking_a.ids, ranking_b.ids, a_first, intent_idx)
                case = cases.get(key)
                if case is None:
                    case = cases[key] = _Case(ranking_a, ranking_b, a_first, intent,
                                              results_per_query)
                clicked, goes_on = _view(case.grades, qi == len(script) - 1, behavior, rng)
                winner = case.winner(clicked)
                result.impressions += 1
                if winner == "r":
                    result.wins_a += 1
                elif winner == "r_prime":
                    result.wins_b += 1
                else:
                    result.ties += 1
                if not goes_on:
                    break
    return results


def write_truth(records: list[TruthRecord]) -> str:
    """Sidecar JSON-lines: {"qid":...,"intent":...,"relevance":{doc:grade}}.

    Each line is the `json.dumps` of its record (ensure_ascii=False, no
    spaces, relevance keys sorted), written with json's own string encoder.
    A relevance map shared by several records, as `simulate` shares each
    intent's, is encoded once.
    """
    q = encode_basestring
    encoded: dict[int, str] = {}  # id(relevance map) -> its JSON; `records` keeps each alive
    out = []
    for r in records:
        relevance = encoded.get(id(r.relevance))
        if relevance is None:
            relevance = encoded[id(r.relevance)] = canonical_json(r.relevance)
        out.append(f'{{"qid":{q(r.query_id)},"intent":{q(r.intent_id)},"relevance":{relevance}}}\n')
    return "".join(out)


def _grades(value) -> dict[str, float]:
    """`value` itself if it is a JSON object whose values are JSON numbers; a TypeError otherwise.

    `dict()` would also take a list of pairs, and a grade of true would pass
    the [0, 1] range check and be written back as true.
    """
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object of grades, got {value!r}")
    for grade in value.values():
        number(grade)
    return value


def read_truth(text: str) -> list[TruthRecord]:
    return json_lines(text, lambda rec: TruthRecord(
        string(rec["qid"]), string(rec["intent"]), _grades(rec["relevance"])
    ))


def write_intents(intents: list[Intent]) -> str:
    payload = {
        "version": INTENTS_VERSION,
        "intents": [
            {
                "intent_id": it.intent_id,
                "relevant_docs": it.relevant_docs,
                "query_script": [list(q) for q in it.query_script],
            }
            for it in intents
        ],
    }
    return canonical_json(payload)


def read_intents(text: str) -> list[Intent]:
    """The intents of an intents file, as the simulator can use them.

    Intent ids are unique, `relevant_docs` is a JSON object of numbers, and
    each script query is one or more terms, each one index token
    (`tokenize(term) == [term]`), since the index holds nothing else; a fault
    is a DataError naming the intent.
    """
    payload = json_object(text, "intent file", INTENTS_VERSION)
    intents: dict[str, Intent] = {}
    with malformed("intent file"):
        for rec in payload["intents"]:
            intent_id = string(rec["intent_id"])
            if intent_id in intents:
                raise DataError(f"intent {intent_id!r} is listed twice")
            with malformed(f"intent {intent_id!r}"):
                script = tuple(tuple(strings(q)) for q in rec["query_script"])
                for query in script:
                    if not query:
                        raise DataError(f"intent {intent_id!r}: a script query has no terms")
                    for term in query:
                        if tokenize(term) != [term]:
                            raise DataError(f"intent {intent_id!r}: script term {term!r} "
                                            "is not one index token")
                intents[intent_id] = Intent(intent_id, _grades(rec["relevant_docs"]), script)
    if not intents:
        raise DataError("malformed intent file: it lists no intents")
    return list(intents.values())
