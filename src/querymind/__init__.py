"""Solvers, adversaries, and exact bound calculators for Mastermind variants.

The public names below are loaded on first access (PEP 562), so importing
the package, or one of its modules, loads only the layers that are used.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "codespace": (
        "Code",
        "CodeSpace",
        "Feedback",
        "FeedbackMode",
        "Mode",
        "Repeats",
        "VariantConfig",
        "encode01",
        "feedback",
    ),
    "combinatorics": (
        "BoundReport",
        "bound_report",
        "bucket_size",
        "bucket_tail_sum",
        "derangement",
        "entropy_lower_bound",
        "exact_match_count",
        "harmonic",
        "lemma2_bound",
        "shannon_entropy",
        "theorem1_report",
        "trivial_lower_bound",
    ),
    "engine": (
        "ExactGameValue",
        "GameTranscript",
        "WorstCaseResult",
        "adversary_feedback",
        "exact_game_value",
        "play_adversarial",
        "play_honest",
        "worst_case_queries",
    ),
    "errors": (
        "CapacityError",
        "ContradictionError",
        "DomainError",
        "InvalidCodeError",
        "ProtocolError",
        "QuerymindError",
    ),
    "nonadaptive": (
        "IdentifiabilityReport",
        "QuerySet",
        "entropy_audit",
        "is_identifiable",
        "min_nonadaptive_size",
    ),
    "strategies": (
        "SolutionSet",
        "Strategy",
        "filter_consistent",
        "get_strategy",
        "minimax_next",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
