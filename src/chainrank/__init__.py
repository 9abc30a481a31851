"""chainrank: learning ranked retrieval functions from click logs with query chains.

The toolkit covers the full loop: index a corpus, record (or simulate)
query/click logs, segment them into query chains, mine relative preference
judgments from clicks, train a hard-constrained pairwise ranking model, and
compare retrieval functions with balanced interleaving and a sign test.
"""

from .chains import QueryChain, segment_log
from .corpus import Corpus, Document, RankedList, base_retrieve, build_index
from .errors import ChainrankError, DataError, LogParseError, StageError
from .features import FeatureSpace, SparseVector, phi, phi_rank, phi_terms
from .feedback import Preference, Strategy, prefs_cross_query, prefs_for_log, prefs_within_query
from .interleave import Attribution, Interleaving, attribute, combine, sign_test
from .logs import ClickEvent, QueryEvent, SearchLog, group_sessions, parse_log, write_log
from .pipeline import ExperimentConfig, run_experiment, run_stage
from .ranking import RerankRequest, candidates, rerank, score
from .simulate import Intent, UserBehavior, interleaved_eval, interleaved_evals, strategy_accuracy
from .solver import (
    Model,
    PreferenceConstraint,
    SlackReport,
    fit_model,
    fresh_model,
    objective,
    slack_report,
    subgradient,
    train_ranking,
)

__version__ = "0.1.0"
