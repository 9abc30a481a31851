# Segment a session into query chains and mine the six kinds of relative
# preference judgments from its clicks.

from chainrank import (
    ClickEvent,
    QueryEvent,
    SearchLog,
    prefs_for_log,
    segment_log,
)
from chainrank.feedback import strategy_counts

# One session: a failing query (typo, zero results), its correction with a
# click, then an unrelated query an hour later.
q_typo = QueryEvent("q1", "alice", 0, ["spectrograf"], [])
q_fixed = QueryEvent("q2", "alice", 45, ["spectrograph"], ["astro-1", "astro-2", "astro-3"])
click = ClickEvent("q2", "astro-1", 1, 46)
q_later = QueryEvent("q3", "alice", 45 + 7200, ["opening", "hours"], ["hours"])
log = SearchLog([q_typo, q_fixed, click, q_later])

chains = segment_log(log, window_seconds=1800)
print("chains:", [(c.chain_id, c.query_ids()) for c in chains])

prefs = prefs_for_log(log, chains, mode="qc",
                      padding_pool=q_fixed.results + ["misc-1", "misc-2"],
                      seed=1)
print("\npreferences (all six strategies considered):")
for p in prefs:
    print(f"  [{p.strategy.value}] {p.preferred_doc} beats {p.other_doc} "
          f"for query {p.wrt_query}")
print("\nper-strategy counts:", strategy_counts(prefs))

# The S4/S6 judgments attach the clicked document to the FAILED query's
# terms; that is the signal that lets training route 'spectrograf' to the
# right documents even though no document contains the typo.
nc = prefs_for_log(log, chains, mode="nc")
print("without chain strategies only", len(nc), "judgments remain")
