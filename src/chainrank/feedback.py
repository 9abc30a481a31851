"""Relative preference judgments mined from clicks, within and across queries.

Six strategies turn a query chain into "doc A is preferred over doc B for
query q" statements:

  S1  clicked doc beats every unclicked doc ranked above it (same query)
  S2  clicked first result beats an unclicked second result (same query)
  S3  like S1, but the judgment is relative to the immediately preceding query
  S4  like S2, relative to the immediately preceding query
  S5  a clicked doc beats the unclicked docs a user plausibly viewed in an
      earlier query of the chain that received clicks: ranks 1 through one
      past its last clicked rank
  S6  a clicked doc beats the top two results of an earlier query of the
      chain that received no clicks

S3/S4 look only at the immediate predecessor; S5/S6 pair each clicking query
with every earlier query in its chain.  When an earlier query has fewer
results than S5/S6 need, random corpus documents stand in as if ranked at
the end of its results, drawn from the corpus ids, each counted once.  The
draws come from a generator seeded per chain and built when the chain draws
its first pad, so output is reproducible and independent of chain
processing order.

Duplicate judgments are kept: the output is a multiset, canonically ordered
by (chain, strategy, generation order).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import partial
from json.encoder import encode_basestring  # json.dumps of a str, ensure_ascii=False
from typing import Callable

import numpy as np

from .chains import QueryChain
from .errors import DataError, json_lines, string
from .logs import ClickEvent, QueryEvent, SearchLog


class Strategy(str, Enum):
    CLICK_SKIP_ABOVE = "S1"
    CLICK_FIRST_NO_CLICK_SECOND = "S2"
    CLICK_SKIP_ABOVE_PREV_QUERY = "S3"
    CLICK_FIRST_NO_CLICK_SECOND_PREV_QUERY = "S4"
    CLICK_SKIP_EARLIER_QUERY = "S5"
    CLICK_TOP_TWO_EARLIER_QUERY = "S6"


MODES = ("qc", "nc")  # mining modes: with the chain strategies S3-S6, or without
WITHIN_QUERY_STRATEGIES = (Strategy.CLICK_SKIP_ABOVE, Strategy.CLICK_FIRST_NO_CLICK_SECOND)
PREV_QUERY_STRATEGIES = (
    Strategy.CLICK_SKIP_ABOVE_PREV_QUERY, Strategy.CLICK_FIRST_NO_CLICK_SECOND_PREV_QUERY,
)


_setattr = object.__setattr__  # how a frozen dataclass sets its own fields


@dataclass(frozen=True, init=False, slots=True)
class Preference:
    """preferred_doc beats other_doc with respect to wrt_query."""

    preferred_doc: str
    other_doc: str
    wrt_query: str
    strategy: Strategy
    chain_id: str = ""

    def __init__(self, preferred_doc: str, other_doc: str, wrt_query: str, strategy: Strategy,
                 chain_id: str = ""):
        # Written out: the generated __init__ looks up object.__setattr__ for
        # each field and then calls __post_init__, near twice the cost, and
        # mining builds thousands per log.
        if preferred_doc == other_doc:
            raise DataError(f"self-preference on {preferred_doc}")
        _setattr(self, "preferred_doc", preferred_doc)
        _setattr(self, "other_doc", other_doc)
        _setattr(self, "wrt_query", wrt_query)
        _setattr(self, "strategy", strategy)
        _setattr(self, "chain_id", chain_id)


def prefs_within_query(
    q: QueryEvent,
    clicks: list[ClickEvent],
    chain_id: str = "",
    wrt_query: str | None = None,
    strategies: tuple[Strategy, Strategy] = WITHIN_QUERY_STRATEGIES,
) -> list[Preference]:
    """S1 and S2 for a single query. No clicks means no output.

    With `wrt_query` and `PREV_QUERY_STRATEGIES` the same judgments become
    S3 and S4, stated relative to that (preceding) query.
    """
    skip_above, first_not_second = strategies
    wrt = wrt_query if wrt_query is not None else q.query_id
    docs = q.results
    clicked_ranks = {c.rank for c in clicks}
    out: list[Preference] = []
    for c in clicks:
        for rank_above in range(1, c.rank):
            if rank_above not in clicked_ranks:
                out.append(
                    Preference(c.doc_id, docs[rank_above - 1], wrt, skip_above, chain_id)
                )
    if 1 in clicked_ranks and 2 not in clicked_ranks and len(docs) >= 2:
        out.append(Preference(docs[0], docs[1], wrt, first_not_second, chain_id))
    return out


def _earlier_query_targets(
    q_earlier: QueryEvent, clicks_earlier: list[ClickEvent]
) -> tuple[Strategy, list[str], int]:
    """Unclicked target docs in the earlier query, plus how many pads are owed."""
    docs = q_earlier.results
    if clicks_earlier:
        last = max(c.rank for c in clicks_earlier)
        clicked = {c.doc_id for c in clicks_earlier}
        region = docs[: last + 1]  # viewed region: ranks 1..last+1
        targets = [d for d in region if d not in clicked]
        n_pad = 1 if last == len(docs) else 0
        return Strategy.CLICK_SKIP_EARLIER_QUERY, targets, n_pad
    targets = docs[:2]
    return Strategy.CLICK_TOP_TWO_EARLIER_QUERY, targets, max(0, 2 - len(docs))


def _draw_pad(rng: np.random.Generator, pool: list[str], excluded: set[str]) -> str | None:
    """Uniform draw from the pool minus excluded ids; None when impossible."""
    if not pool:
        return None
    if len(excluded) >= len(pool):
        allowed = [d for d in pool if d not in excluded]
        return allowed[int(rng.integers(len(allowed)))] if allowed else None
    while True:
        d = pool[int(rng.integers(len(pool)))]
        if d not in excluded:
            return d


def _padding(padding_pool: list[str] | None) -> list[str]:
    """The ids pads are drawn from: each once, sorted."""
    return sorted(set(padding_pool)) if padding_pool else []


def _cross_query(
    chain: QueryChain, pool: list[str], make_rng: Callable[[], np.random.Generator]
) -> list[Preference]:
    """S3-S6 for one chain, pads from `pool`; `make_rng()` is called at the first pad."""
    rng = None
    out: list[Preference] = []
    for i, q in enumerate(chain.queries):
        clicks_q = chain.clicks[i]
        if not clicks_q:
            continue
        clicked_docs = [c.doc_id for c in clicks_q]

        if i >= 1:
            out.extend(prefs_within_query(q, clicks_q, chain.chain_id,
                                          chain.queries[i - 1].query_id, PREV_QUERY_STRATEGIES))

        for j in range(i):
            q_e = chain.queries[j]
            strategy, targets, n_pad = _earlier_query_targets(q_e, chain.clicks[j])
            for cd in clicked_docs:
                for t in targets:
                    if t != cd:
                        out.append(Preference(cd, t, q_e.query_id, strategy, chain.chain_id))
                for _ in range(n_pad):
                    if rng is None:
                        rng = make_rng()
                    pad = _draw_pad(rng, pool, set(q_e.results) | {cd})
                    if pad is not None:
                        out.append(Preference(cd, pad, q_e.query_id, strategy, chain.chain_id))
    return out


def prefs_cross_query(
    chain: QueryChain,
    padding_pool: list[str] | None = None,
    rng: np.random.Generator | None = None,
) -> list[Preference]:
    """S3-S6 for one chain.

    `padding_pool` is the corpus doc-id universe used for stand-in documents;
    without it, judgments that would need padding are simply not emitted.
    """
    make_rng = (lambda: rng) if rng is not None else partial(np.random.default_rng, 0)
    return _cross_query(chain, _padding(padding_pool), make_rng)


def _chain_rng(seed: int, chain_id: str) -> np.random.Generator:
    digest = hashlib.sha256(chain_id.encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "big")])


def prefs_for_log(
    log: SearchLog,
    chains: list[QueryChain],
    mode: str = "qc",
    padding_pool: list[str] | None = None,
    seed: int = 0,
) -> list[Preference]:
    """All preferences for a log. mode "nc" keeps S1/S2 only; "qc" adds S3-S6.

    The S1/S2 subset is identical across modes, so the "nc" output is always
    contained in the "qc" output for the same seed.
    """
    if mode not in MODES:
        raise DataError(f"mode must be one of {MODES}, got {mode!r}")
    pool = _padding(padding_pool) if mode == "qc" else []
    out: list[Preference] = []
    for chain in sorted(chains, key=lambda c: c.chain_id):
        for i, q in enumerate(chain.queries):
            out.extend(prefs_within_query(q, chain.clicks[i], chain.chain_id))
        if mode == "qc":
            out.extend(_cross_query(chain, pool, partial(_chain_rng, seed, chain.chain_id)))
    out.sort(key=lambda p: (p.chain_id, p.strategy))
    return out


def strategy_counts(prefs: list[Preference]) -> dict[str, int]:
    counts = Counter(p.strategy for p in prefs)
    return {s.value: counts[s] for s in Strategy}


def write_preferences(prefs: list[Preference]) -> str:
    """JSON-lines: {"pref":...,"over":...,"wrt":...,"strategy":"S1".."S6","chain":...}.

    Each line is the `json.dumps` of its record (ensure_ascii=False, no
    spaces), written with json's own string encoder.
    """
    q = encode_basestring
    return "".join(
        f'{{"pref":{q(p.preferred_doc)},"over":{q(p.other_doc)},"wrt":{q(p.wrt_query)},'
        f'"strategy":{q(p.strategy)},"chain":{q(p.chain_id)}}}\n'
        for p in prefs
    )


_STRATEGY_OF = {s.value: s for s in Strategy}


def _strategy(value) -> Strategy:
    try:
        return _STRATEGY_OF[value]
    except (KeyError, TypeError):  # not "S1".."S6": the enum raises its ValueError
        return Strategy(value)


def read_preferences(text: str) -> list[Preference]:
    return json_lines(text, lambda rec: Preference(
        string(rec["pref"]), string(rec["over"]), string(rec["wrt"]),
        _strategy(rec["strategy"]), string(rec["chain"]),
    ))
