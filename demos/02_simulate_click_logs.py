# Generate a synthetic click log with known ground truth.  Simulated users
# scan results top-down, click noisily on relevant documents, and reformulate
# their query when a search fails.

from chainrank import UserBehavior, base_retrieve, build_index, write_log
from chainrank.fixtures import make_fixture
from chainrank.simulate import simulate, write_truth

docs, intents = make_fixture(n_docs=300, seed=13)
corpus = build_index(docs)
ranker = lambda terms, k: base_retrieve(corpus, terms, k)

print(f"{len(docs)} documents, {len(intents)} intents, e.g.:")
for intent in intents[:3]:
    script = " -> ".join(" ".join(q) for q in intent.query_script)
    print(f"  {intent.intent_id:<22} {script}")

behavior = UserBehavior(click_noise=0.1, scan_persistence=0.85)
log, truth = simulate(corpus, ranker, intents, behavior, n_sessions=5, seed=42)

print("\nfirst log lines:")
for line in write_log(log).splitlines()[:6]:
    print(" ", line[:110])

print("\nmatching ground-truth sidecar lines:")
for line in write_truth(truth).splitlines()[:3]:
    print(" ", line[:110])

# Same seed, same bytes: the log is fully reproducible.
log2, _ = simulate(corpus, ranker, intents, behavior, n_sessions=5, seed=42)
print("\ndeterministic:", write_log(log) == write_log(log2))
