"""Shared builders and independent oracles used across test modules."""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np
from hypothesis import strategies as st

from chainrank.corpus import Document
from chainrank.feedback import prefs_cross_query, prefs_within_query
from chainrank.fixtures import _FILLER, _TOPICS
from chainrank.interleave import attribute, combine
from chainrank.logs import ClickEvent, QueryEvent, SearchLog
from chainrank.pipeline import (ExperimentConfig, MemoryStore, stage_chains, stage_index,
                                stage_prefs, stage_simulate, stage_train)
from chainrank.simulate import (INTENT_GAP_SECONDS, REFORMULATE_GAP_SECONDS, SESSION_GAP_SECONDS,
                                Intent, PairEvalResult, TruthRecord, scan_and_click)


def make_query(qid, session, t, terms, docs):
    return QueryEvent(qid, session, t, list(terms), list(docs))


def make_click(query: QueryEvent, rank: int, t: int | None = None) -> ClickEvent:
    doc = query.results[rank - 1]
    return ClickEvent(query.query_id, doc, rank, query.timestamp if t is None else t)


# Any code point, lone surrogates included, plus the characters json treats
# specially or writes unescaped although str.splitlines breaks lines at them.
ANY_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.sampled_from(['"', "\\", "\n", "\r\n", "\x00", "\x1f", "\x7f", "\x85", "\u2028",
                     "\u2029", "\ud800", "\udfff", "naïve", "😀", "\\u0041"]),
)


def reference_filler(n_docs: int, seed: int) -> dict[str, list[str]]:
    """Each fixture document's 15 filler words, by doc id, drawn one scalar
    `rng.integers` call at a time: topics in order, then each topic's
    documents by index."""
    rng = np.random.default_rng(seed)
    per_topic, extra = divmod(n_docs, len(_TOPICS))
    out = {}
    for t_idx, topic in enumerate(_TOPICS):
        for j in range(per_topic + (1 if t_idx < extra else 0)):
            out[f"{topic}-{j:03d}"] = [_FILLER[int(rng.integers(len(_FILLER)))] for _ in range(15)]
    return out


def _refuse_constant(constant: str):
    raise ValueError(f"{constant} is not JSON")


def reference_json_lines(text: str):
    """Each non-blank line through json's whole-string decode, NaN and Infinity refused.

    Returns the records, or (line number, message) for the first line that is
    not a JSON object, the message as `errors.json_lines` words it.
    """
    decoder = json.JSONDecoder(parse_constant=_refuse_constant)
    out = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = decoder.decode(line)
        except json.JSONDecodeError as exc:
            return line_no, f"line {line_no}: invalid JSON at col {exc.colno}: {exc.msg}"
        except ValueError as exc:
            return line_no, f"line {line_no}: bad record: ValueError {exc}"
        if not isinstance(rec, dict):
            return line_no, f"line {line_no}: not a JSON object"
        out.append(rec)
    return out


def json_line(rec: dict) -> str:
    """One JSON-lines record as the standard library writes it: no spaces, non-ASCII kept."""
    return json.dumps(rec, ensure_ascii=False, separators=(",", ":")) + "\n"


def reference_write_log(log: SearchLog) -> str:
    """The log's wire format by its definition: one json.dumps per event, fields in order."""
    out = []
    for ev in log.events:
        if isinstance(ev, QueryEvent):
            out.append(json_line({"type": "query", "qid": ev.query_id, "session": ev.session_id,
                                  "t": ev.timestamp, "terms": ev.terms,
                                  "results": ev.results}))
        else:
            out.append(json_line({"type": "click", "qid": ev.query_id, "doc": ev.doc_id,
                                  "rank": ev.rank, "t": ev.timestamp}))
    return "".join(out)


def reference_write_truth(records) -> str:
    """The truth wire format by its definition: one json.dumps per record, relevance keys sorted."""
    return "".join(json_line({"qid": r.query_id, "intent": r.intent_id,
                              "relevance": {d: r.relevance[d] for d in sorted(r.relevance)}})
                   for r in records)


def reference_write_preferences(prefs) -> str:
    """The preference wire format by its definition: one json.dumps per preference."""
    return "".join(json_line({"pref": p.preferred_doc, "over": p.other_doc, "wrt": p.wrt_query,
                              "strategy": p.strategy.value, "chain": p.chain_id})
                   for p in prefs)


def reference_write_chains(chains) -> str:
    """The chain wire format by its definition: one json.dumps per chain."""
    return "".join(json_line({"chain_id": c.chain_id, "session": c.session_id,
                              "qids": c.query_ids()})
                   for c in chains)


def reference_segment_log(log: SearchLog, window: int) -> list[tuple]:
    """`segment_log` by its definition, as (chain id, query ids, click lists):
    each session's queries, sessions in sorted order, cut at every gap above
    the window; each query carries the clicks that name it, in stream order."""
    queries = [e for e in log.events if isinstance(e, QueryEvent)]
    out = []
    for sid in sorted({q.session_id for q in queries}):
        mine = [q for q in queries if q.session_id == sid]
        cuts = [i for i in range(1, len(mine))
                if mine[i].timestamp - mine[i - 1].timestamp > window]
        for n, (a, b) in enumerate(zip([0] + cuts, cuts + [len(mine)])):
            part = mine[a:b]
            out.append((f"{sid}-c{n}", [q.query_id for q in part],
                        [[e for e in log.events
                          if isinstance(e, ClickEvent) and e.query_id == q.query_id]
                         for q in part]))
    return out


def reference_prefs_for_log(log, chains, mode, padding_pool, seed):
    """`prefs_for_log` without its savings: every chain's generator built up front,
    the pool sorted once per chain by `prefs_cross_query`."""
    out = []
    for chain in sorted(chains, key=lambda c: c.chain_id):
        for i, q in enumerate(chain.queries):
            out.extend(prefs_within_query(q, chain.clicks[i], chain.chain_id))
        if mode == "qc":
            digest = hashlib.sha256(chain.chain_id.encode("utf-8")).digest()
            rng = np.random.default_rng([seed, int.from_bytes(digest[:8], "big")])
            out.extend(prefs_cross_query(chain, padding_pool, rng))
    out.sort(key=lambda p: (p.chain_id, p.strategy.value))
    return out


def hinge_objective_dense(W: np.ndarray, deltas: np.ndarray, C: float) -> np.ndarray:
    """Vectorized objective over rows of W; the grid oracle's evaluator."""
    margins = W @ deltas.T
    hinge = np.maximum(0.0, 1.0 - margins).sum(axis=1)
    return 0.5 * (W * W).sum(axis=1) + C * hinge


def grid_minimize_hinge(
    deltas: np.ndarray,
    C: float,
    w_min: float | None = None,
    bounded: tuple[int, ...] = (),
    rounds: int = 30,
    shrink: float = 0.6,
) -> tuple[np.ndarray, float]:
    """Projected zooming grid search over the hinge objective.

    Independent of the package solver: evaluates the objective on a dense
    grid, re-centers on the incumbent, and shrinks the box.  Bounded dims are
    projected onto [w_min, inf) before evaluation.
    """
    n, d = deltas.shape if deltas.size else (0, len(bounded))
    pts = 21 if d <= 2 else (13 if d == 3 else 9)
    radius = np.sqrt(2.0 * C * max(n, 1)) + 1.0 + (abs(w_min) if w_min is not None else 0.0)

    center = np.zeros(d)
    if bounded:
        center[list(bounded)] = w_min
    best_w = center.copy()
    best_f = hinge_objective_dense(best_w[None, :], deltas, C)[0] if n else 0.5 * best_w @ best_w

    half = radius
    for _ in range(rounds):
        axes = [np.linspace(center[j] - half, center[j] + half, pts) for j in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        W = np.stack([m.ravel() for m in mesh], axis=1)
        if bounded:
            W[:, list(bounded)] = np.maximum(W[:, list(bounded)], w_min)
        if n:
            fv = hinge_objective_dense(W, deltas, C)
        else:
            fv = 0.5 * (W * W).sum(axis=1)
        i = int(np.argmin(fv))
        if fv[i] < best_f:
            best_f = float(fv[i])
            best_w = W[i].copy()
        center = W[i]
        half *= shrink
    return best_w, float(best_f)


def densify(constraints, dim: int) -> np.ndarray:
    """Constraint deltas as a dense (n, dim) matrix."""
    out = np.zeros((len(constraints), dim))
    for i, c in enumerate(constraints):
        for fid, v in zip(c.delta.ids, c.delta.values):
            out[i, fid] = v
    return out


def make_mixed_world(n_intents: int = 12, seed: int = 0):
    """Tiny corpus whose result lists interleave relevant and irrelevant docs.

    Two query words each hit ten structurally identical documents (ties break
    by doc id, so rankings are fixed).  Each intent marks a random half of
    either list relevant, so across intents every rank position is relevant
    half the time: under pure click noise no preference strategy can beat
    chance, which the noise-sensitivity tests rely on.
    """
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(10):
        docs.append(Document(f"a-{i:02d}", f"alpha entry {i}", "alpha filler one two"))
        docs.append(Document(f"b-{i:02d}", f"beta entry {i}", "beta filler one two"))
    intents = []
    for k in range(n_intents):
        rel = {}
        for side in ("a", "b"):
            for i in rng.choice(10, size=5, replace=False):
                rel[f"{side}-{i:02d}"] = 1.0
        script = (("alpha",), ("beta",)) if k % 2 == 0 else (("beta",), ("alpha",))
        intents.append(Intent(f"need-{k:02d}", rel, script))
    return docs, intents


def dual_ascent_dense(
    deltas: np.ndarray,
    C: float,
    w_min: float = 0.0,
    bounded: tuple[int, ...] = (),
    tolerance: float = 1e-13,
    max_sweeps: int = 200_000,
) -> tuple[np.ndarray, float]:
    """Plain projected dual coordinate ascent on the whole bounded problem.

    Independent of the package solver: dense rows, no merging of duplicates,
    no held dims and no components.  One multiplier alpha_i in [0, C] per
    row and beta_d >= 0 per bounded dim; w = D^T alpha + beta.  Returns
    (w, absolute primal-dual gap), so a caller can check the oracle itself.
    """
    n, dim = deltas.shape
    bounded = list(bounded)
    alpha, beta = np.zeros(n), np.zeros(len(bounded))
    w = np.zeros(dim)
    sq = (deltas * deltas).sum(axis=1)
    for _ in range(max_sweeps):
        worst = 0.0
        for i in range(n):
            if sq[i] == 0.0:
                continue
            g = deltas[i] @ w - 1.0
            new = min(C, max(0.0, alpha[i] - g / sq[i]))
            worst = max(worst, abs(new - alpha[i]) * sq[i])
            w += (new - alpha[i]) * deltas[i]
            alpha[i] = new
        for k, d in enumerate(bounded):
            new = max(0.0, beta[k] - (w[d] - w_min))
            worst = max(worst, abs(new - beta[k]))
            w[d] += new - beta[k]
            beta[k] = new
        if worst < tolerance:
            break
    primal = 0.5 * w @ w + C * np.maximum(0.0, 1.0 - deltas @ w).sum()
    dual = alpha.sum() + w_min * beta.sum() - 0.5 * w @ w
    return w, float(primal - dual)


def split_tokenize(text: str) -> list[str]:
    """The tokenizer by its definition: lowercase, split on non-alphanumeric runs, drop empties."""
    return [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]


def naive_index(docs: list[Document]) -> dict:
    """Every index structure recomputed from the definition, one term at a time.

    postings: term -> [(doc_id, raw count in title + body)] by doc_id;
    idf: 1 + ln((1 + N) / (1 + df)); weighted: term -> {doc_id: raw count +
    title count}; norms: sqrt of the sum, over the document's terms in sorted
    order, of ((1 + ln wtf) * idf)^2.
    """
    toks = {d.doc_id: (split_tokenize(d.title), split_tokenize(d.body)) for d in docs}
    ids = sorted(toks)
    vocab = sorted({t for title, body in toks.values() for t in title + body})
    postings, weighted = {}, {}
    for term in vocab:
        postings[term] = [(d, (toks[d][0] + toks[d][1]).count(term)) for d in ids
                          if term in toks[d][0] + toks[d][1]]
        weighted[term] = {d: n + toks[d][0].count(term) for d, n in postings[term]}
    idf = {t: 1.0 + math.log((1 + len(ids)) / (1 + len(postings[t]))) for t in vocab}
    norms = {}
    for d in ids:
        acc = 0.0
        for term in sorted(set(toks[d][0] + toks[d][1])):
            w = (1.0 + math.log(weighted[term][d])) * idf[term]
            acc += w * w
        norms[d] = math.sqrt(acc)
    return {"postings": postings, "idf": idf, "weighted": weighted, "norms": norms}


def naive_retrieve(index: dict, query_terms: list[str], k: int) -> list[tuple[str, float]]:
    """(doc_id, score) of the top k by the baseline's documented formula, over `naive_index`."""
    counts = {t: query_terms.count(t) for t in query_terms if t}
    scores: dict[str, float] = {}
    for term in sorted(counts):
        if term not in index["postings"]:
            continue
        q_w = (1.0 + math.log(counts[term])) * index["idf"][term]
        for doc_id, _ in index["postings"][term]:
            d_w = (1.0 + math.log(index["weighted"][term][doc_id])) * index["idf"][term]
            scores[doc_id] = scores.get(doc_id, 0.0) + q_w * d_w
    scored = [(d, s / index["norms"][d]) for d, s in scores.items()]
    return sorted(scored, key=lambda p: (-p[1], p[0]))[:k]


def reference_sign_test(wins_a: int, wins_b: int) -> float:
    """`sign_test` by its formula: each tail term `math.comb(n, i)` computed on its own."""
    n = wins_a + wins_b
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(max(wins_a, wins_b), n + 1))
    return min(1.0, (2 * tail) / (2 ** n))


def interleaved_eval_per_query(ranker_a, ranker_b, intents, behavior, n_sessions, seed,
                               results_per_query=10) -> PairEvalResult:
    """Interleaved evaluation with no memo: combine and attribute on every query.

    The user's step is written out here as it was first written: a scan with
    `scan_and_click` over the shown documents' grades, then the page reads in
    click order, then the reformulation draw.
    """
    result = PairEvalResult()
    for s in range(n_sessions):
        rng = np.random.default_rng([seed, s])
        a_first = bool(rng.random() < 0.5)
        intent = intents[s % len(intents)]
        for qi, terms in enumerate(intent.query_script):
            ra = ranker_a(list(terms), results_per_query)
            rb = ranker_b(list(terms), results_per_query)
            inter = combine(ra.doc_ids(), rb.doc_ids(), first_r=a_first)
            shown = inter.combined[:results_per_query]
            clicked_pos = scan_and_click([intent.grade(d) for d in shown], behavior, rng)
            eps = behavior.click_noise
            satisfied = any(rng.random() < ((1.0 - eps) if intent.grade(shown[p]) >= 0.5 else eps)
                            for p in clicked_pos)
            last = qi == len(intent.query_script) - 1
            goes_on = not satisfied and not last and rng.random() < behavior.reformulate_prob
            clicked_docs = {shown[p] for p in clicked_pos}
            winner = attribute(inter, clicked_docs).winner
            result.impressions += 1
            result.wins_a += winner == "r"
            result.wins_b += winner == "r_prime"
            result.ties += winner == "tie"
            if not goes_on:
                break
    return result


def simulate_reference(ranker, intents, behavior, n_sessions, seed, results_per_query=10,
                       multi_intent_prob=0.0):
    """`simulate`'s session loop as first written, with the page reads inline.

    Scalar draws from `np.random.default_rng([seed, s])`, one generator per
    session; returns (log, truth) like `simulate`.
    """
    events, truth = [], []
    for s in range(n_sessions):
        rng = np.random.default_rng([seed, s])
        session_id = f"s{s:06d}"
        t = s * SESSION_GAP_SECONDS
        intent_idx = s % len(intents)
        used = {intent_idx}
        n_queries = 0
        while True:
            intent = intents[intent_idx]
            for qi, terms in enumerate(intent.query_script):
                qid = f"{session_id}q{n_queries}"
                n_queries += 1
                ranking = ranker(list(terms), results_per_query)
                results = ranking.doc_ids()
                events.append(QueryEvent(qid, session_id, t, list(terms), results))
                truth.append(TruthRecord(qid, intent.intent_id, intent.relevant_docs))
                grades = [intent.grade(d) for d in results]
                clicked = scan_and_click(grades, behavior, rng)
                for pos in clicked:
                    t += 1
                    events.append(ClickEvent(qid, results[pos], pos + 1, t))
                eps = behavior.click_noise
                if any(rng.random() < ((1.0 - eps) if intent.grade(results[p]) >= 0.5 else eps)
                       for p in clicked):
                    break
                if qi < len(intent.query_script) - 1:
                    if rng.random() >= behavior.reformulate_prob:
                        break
                    t += int(rng.integers(REFORMULATE_GAP_SECONDS[0],
                                          REFORMULATE_GAP_SECONDS[1] + 1))
            unused = [i for i in range(len(intents)) if i not in used]
            if unused and rng.random() < multi_intent_prob:
                intent_idx = unused[int(rng.integers(len(unused)))]
                used.add(intent_idx)
                t += int(rng.integers(INTENT_GAP_SECONDS[0], INTENT_GAP_SECONDS[1] + 1))
            else:
                break
    return SearchLog(events), truth


def trained_qc(docs, intents, seed: int = 7, sessions: int = 100):
    """(corpus, qc model): the program's index, simulate, chains, prefs and
    train stages over a memory store, as `run_experiment` runs them."""
    cfg = ExperimentConfig(corpus="", intents="", seed=seed, sessions=sessions, eval_sessions=1)
    store = MemoryStore(docs=docs, intents=intents)
    for stage in (stage_index, stage_simulate, stage_chains, stage_prefs, stage_train):
        stage(cfg, store)  # prefs and train default to the qc mode
    return store["index"], store["model_qc"]


def serve_queries(corpus, model, n: int, seed: int) -> list[list[str]]:
    """`n` queries of 1-3 terms.  Each term is, by an even draw, one the model
    weights for some document or any vocabulary term; a query may repeat one."""
    learned = sorted({t for t, _, w in model.term_doc_items() if w != 0.0})
    vocabulary = sorted(corpus.vocabulary)
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(n):
        size = int(rng.integers(1, 4))
        picks = rng.random(size) < 0.5
        queries.append([learned[int(rng.integers(len(learned)))] if p
                        else vocabulary[int(rng.integers(len(vocabulary)))] for p in picks])
    return queries
