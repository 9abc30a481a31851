# Train the hard-constrained pairwise ranking model on a toy preference set
# and inspect what it learned.

import numpy as np

from chainrank import FeatureSpace, PreferenceConstraint, fit_model, phi, slack_report
from chainrank.ranking import RerankRequest, rerank
from chainrank.corpus import RankedList, RankEntry

space = FeatureSpace(("base",))

# The base ranking for query "ndlf" puts two meeting-notes pages on top;
# users kept clicking a document that is not even in the results.
base_docs = ["notes-97", "notes-96", "misc-1", "misc-2"]
wanted = "foundation-home"
query = ["ndlf"]

ranks = {doc: i + 1 for i, doc in enumerate(base_docs)}
constraints = []
for skipped in base_docs:
    delta = phi(space, wanted, query, None) - phi(space, skipped, query, ranks[skipped])
    # repeated observations of the same judgment strengthen it
    constraints.extend([PreferenceConstraint(delta)] * 40)

model = fit_model(space, constraints, C=1.0, w_min=1.0)
print("converged:", model.meta["converged"], "objective:", round(model.meta["objective"], 3))
print("rank weights stay clamped at w_min:", model.rank_weights().min())
print("\nlearned term/document weights:")
for term, doc, w in model.term_doc_items():
    print(f"  ({term!r}, {doc}) = {w:+.2f}")

report = slack_report(model, constraints)
print("\nconstraints still violated:", report.violations, "of", len(constraints))

base = {"base": RankedList([
    RankEntry(d, float(len(base_docs) - i)) for i, d in enumerate(base_docs)
])}
out = rerank(RerankRequest(query, base, model, k=5))
print("\nserved ranking for 'ndlf':")
for e in out.entries:
    print(f"  {e.doc_id:<16} {e.score:8.2f}  ({e.origin})")

# The clicked document enters above the old results: its term weight had to
# exceed 28 * w_min plus the incumbents' term contribution, which is exactly
# the bar the hard lower bounds impose.
