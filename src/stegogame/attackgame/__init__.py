"""Four-tier detection/recovery game harness with reference adversaries."""

from .adversaries import (
    ADVERSARIES, CCAReplay, KCAMembership, KeyedRecovery, RandomGuesser, SCOAHistogram,
    make_adversary,
)
from .game import (
    VERDICT_BROKEN, VERDICT_RESISTS, Adversary, AttackLevel, Challenge, GameResult, Knowledge,
    acca_loop, message_recovery_game, run_game,
)
from .scenario import Scenario, load_scenario, synthetic_corpus, synthetic_scenario

__all__ = [
    "ADVERSARIES", "Adversary", "AttackLevel", "CCAReplay", "Challenge", "GameResult",
    "KCAMembership", "KeyedRecovery", "Knowledge", "RandomGuesser", "SCOAHistogram", "Scenario",
    "VERDICT_BROKEN", "VERDICT_RESISTS", "acca_loop", "load_scenario", "make_adversary",
    "message_recovery_game", "run_game", "synthetic_corpus", "synthetic_scenario",
]
