"""Solvers, adversaries, and exact bound calculators for Mastermind variants."""

from .codespace import (
    Code,
    CodeSpace,
    Feedback,
    FeedbackMode,
    Mode,
    Repeats,
    VariantConfig,
    encode01,
    feedback,
)
from .combinatorics import (
    BoundReport,
    bound_report,
    bucket_size,
    bucket_tail_sum,
    derangement,
    entropy_lower_bound,
    exact_match_count,
    harmonic,
    lemma2_bound,
    shannon_entropy,
    theorem1_report,
    trivial_lower_bound,
)
from .engine import (
    ExactGameValue,
    GameTranscript,
    WorstCaseResult,
    adversary_feedback,
    exact_game_value,
    play_adversarial,
    play_honest,
    worst_case_queries,
)
from .errors import (
    CapacityError,
    ContradictionError,
    DomainError,
    InvalidCodeError,
    ProtocolError,
    QuerymindError,
)
from .nonadaptive import (
    IdentifiabilityReport,
    QuerySet,
    entropy_audit,
    is_identifiable,
    min_nonadaptive_size,
)
from .strategies import (
    SolutionSet,
    Strategy,
    filter_consistent,
    get_strategy,
    minimax_next,
)

__version__ = "0.1.0"
