"""Detection and recovery games against a pluggable adversary.

Each trial runs a learning phase (level-scoped knowledge, budgeted oracle
handles that close when it ends) and a challenge phase (fair coin: fresh
stego sequence or natural draw from the world pool).  The ">50% success"
criterion is judged with a one-sided exact binomial test, never a raw rate
comparison.

All three games run on one serial trial engine.  Every random draw flows
from a generator keyed by sha256 over (seed, labelled path), so results are
byte-identical across runs and platforms.  A learning phase draws its
observation payloads eagerly, keeping every later draw in place, but embeds
them only when the adversary first reads ``Knowledge.observed``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from numbers import Real
from typing import Callable, Protocol

import numpy as np

from ..bits import validate_bits
from ..errors import InvalidConfig, OracleBudgetExceeded
from ..library import CoverId
from ..permcodec import capacity
from ..stego import Message, SeededEntropy, StegoKey, StegoSequence, embed, extract, keygen
from .scenario import Scenario

MIN_TRIALS = 100
DEFAULT_ALPHA = 0.01

VERDICT_RESISTS = "resists"
VERDICT_BROKEN = "broken"

LABEL_STEGO = "stego"
LABEL_NATURAL = "natural"


class AttackLevel(IntEnum):
    """Adversary strength, ordered; higher levels know everything below."""

    SCOA = 1  # sees channel traffic only
    KCA = 2  # plus a leaked subset of the secret library
    CCA = 3  # plus budgeted embed/extract oracle handles
    ACCA = 4  # plus repeated learn/challenge rounds

    @classmethod
    def parse(cls, name: str) -> "AttackLevel":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise InvalidConfig(
                f"unknown level {name!r}; choose from {[m.name.lower() for m in cls]}"
            ) from None


@dataclass(frozen=True, eq=False)
class Knowledge:
    """What one learning phase hands the adversary.  Level-scoped: fields
    above the adversary's level are empty/None, never absent.  ``observed``
    (past stego traffic) is drawn eagerly but embedded on first read."""

    level: AttackLevel
    N: int
    payload_bits: int
    world_ids: tuple[CoverId, ...]
    leaked_ids: tuple[CoverId, ...]
    leaked_key: str | None
    embed_oracle: Callable[[str], StegoSequence] | None
    extract_oracle: Callable[[StegoSequence], str] | None
    rounds: int
    rng: np.random.Generator
    content: Callable[[CoverId], bytes]
    _observe: Callable[[], tuple[StegoSequence, ...]] = field(repr=False)

    @cached_property
    def observed(self) -> tuple[StegoSequence, ...]:
        return self._observe()


@dataclass(frozen=True)
class Challenge:
    """What the adversary must label; carries no ground truth."""

    ids: tuple[CoverId, ...]


@dataclass(frozen=True)
class GameResult:
    level: str
    kind: str
    trials: int
    successes: int
    success_rate: float
    p_value: float
    alpha: float
    verdict: str
    seed: int
    stego_challenges: int | None = None
    sequences: int | None = None
    round_index: int | None = None


class Adversary(Protocol):
    name: str

    def learn(self, knowledge: Knowledge, state: object | None = None) -> object: ...

    def guess(self, challenge: Challenge, state: object) -> str: ...

    def recover(self, sequence: StegoSequence, state: object) -> str: ...


# ---------------------------------------------------------------------------
# deterministic stream derivation

def _derive_key(seed: int, *path: object) -> int:
    h = hashlib.sha256(b"stegogame.attackgame")
    h.update(str(seed).encode())
    for part in path:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:16], "big")


def _generator(seed: int, *path: object) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_derive_key(seed, *path)))


def _random_bits(gen: np.random.Generator, n: int) -> str:
    return (gen.integers(0, 2, size=n) + 48).astype(np.uint8).tobytes().decode("ascii")


class _BudgetedOracle:
    """Counts calls; raising once the per-learning-phase budget is spent, and
    on every call after :meth:`close`, when the learning phase is over."""

    def __init__(self, fn: Callable, budget: int, name: str):
        self._fn = fn
        self.remaining = budget
        self.name = name
        self.closed = False

    def close(self) -> None:
        self.closed = True

    def __call__(self, *args):
        if self.closed:
            raise OracleBudgetExceeded(f"{self.name} oracle closed after learning")
        if self.remaining <= 0:
            raise OracleBudgetExceeded(f"{self.name} oracle budget exhausted")
        self.remaining -= 1
        return self._fn(*args)


# ---------------------------------------------------------------------------
# game plumbing

def _validate(trials: int, seed: int, alpha: float) -> None:
    if trials < MIN_TRIALS:
        raise InvalidConfig(f"trials must be >= {MIN_TRIALS}, got {trials}")
    if not isinstance(seed, int) or seed < 0:
        raise InvalidConfig("seed must be a non-negative integer")
    if isinstance(alpha, bool) or not isinstance(alpha, Real) or not 0 < alpha < 1:
        raise InvalidConfig(f"alpha must be a real number in (0, 1), got {alpha!r}")


def _leak_ids(scenario: Scenario, seed: int, level: AttackLevel, round_index: int) -> tuple[CoverId, ...]:
    """Fixed shuffled prefix of the library: what has leaked so far.  The
    shuffle depends only on the game seed, so later rounds extend earlier
    leaks instead of replacing them."""
    if level < AttackLevel.KCA:
        return ()
    size = scenario.leak_size(round_index)
    if size == 0:
        return ()
    gen = _generator(seed, "leak")
    order = gen.permutation(scenario.library.T)
    all_ids = scenario.library.ids()
    return tuple(all_ids[i] for i in order[:size])


def _leaked_key(scenario: Scenario, session_key: StegoKey) -> str | None:
    if scenario.key_leak is None:
        return None
    if scenario.key_leak == "full":
        return session_key.bits
    flipped = ("1" if session_key.bits[0] == "0" else "0") + session_key.bits[1:]
    return flipped


def _knowledge(
    scenario: Scenario,
    level: AttackLevel,
    session_key: StegoKey,
    leaked: tuple[CoverId, ...],
    observe_gen: np.random.Generator,
    adversary_gen: np.random.Generator,
    faults: list[Exception],
) -> Knowledge:
    lib, n, l = scenario.library, scenario.N, session_key.l
    # one draw for all payloads: the same bits and stream state as one draw each
    payloads = _random_bits(observe_gen, scenario.observations * l)

    def observe() -> tuple[StegoSequence, ...]:
        try:
            return tuple(
                embed(Message(payloads[i * l : (i + 1) * l]), session_key, lib, n)
                for i in range(scenario.observations)
            )
        except Exception as exc:  # a harness fault, even where the adversary swallows it
            faults.append(exc)
            raise

    embed_oracle = extract_oracle = None
    if level >= AttackLevel.CCA:
        embed_oracle = _BudgetedOracle(
            lambda bits: embed(Message(bits), session_key, lib, n),
            scenario.oracle_embed_budget,
            "embed",
        )
        extract_oracle = _BudgetedOracle(
            lambda seq: extract(seq, session_key, lib).bits,
            scenario.oracle_extract_budget,
            "extract",
        )
    return Knowledge(
        level=level,
        N=n,
        payload_bits=l,
        world_ids=scenario.world.ids(),
        leaked_ids=leaked,
        leaked_key=_leaked_key(scenario, session_key),
        embed_oracle=embed_oracle,
        extract_oracle=extract_oracle,
        rounds=scenario.rounds if level >= AttackLevel.ACCA else 1,
        rng=adversary_gen,
        content=scenario.content_for,
        _observe=observe,
    )


def _natural_ids(scenario: Scenario, gen: np.random.Generator) -> tuple[CoverId, ...]:
    world = scenario.world.ids()
    picks = gen.choice(len(world), size=scenario.N, replace=False)
    return tuple(world[i] for i in picks)


def _challenge(
    scenario: Scenario, session_key: StegoKey, gen: np.random.Generator
) -> tuple[bool, Challenge]:
    """Fair coin, then a fresh stego sequence or a natural draw."""
    is_stego = bool(gen.integers(0, 2))
    if is_stego:
        m = Message(_random_bits(gen, session_key.l))
        return True, Challenge(ids=embed(m, session_key, scenario.library, scenario.N).ids)
    return False, Challenge(ids=_natural_ids(scenario, gen))


# The state a trial scores with when its learning phase raised.
_UNLEARNED = object()

# score(scenario, session_key, adversary, harness, state) -> (points, stego)
_Scorer = Callable[[Scenario, StegoKey, Adversary, np.random.Generator, object], tuple[int, bool]]


def _score_detection(scenario, session_key, adversary, harness, state) -> tuple[int, bool]:
    """One point for the right label.  The challenge is drawn even after a
    failed learn, so it still counts towards the stego challenges."""
    is_stego, challenge = _challenge(scenario, session_key, harness)
    if state is _UNLEARNED:
        return 0, is_stego
    try:
        answer = adversary.guess(challenge, state)
    except Exception:
        return 0, is_stego
    return int(answer == (LABEL_STEGO if is_stego else LABEL_NATURAL)), is_stego


def _score_recovery(scenario, session_key, adversary, harness, state) -> tuple[int, bool]:
    """One point per payload bit guessed right; a malformed guess scores 0."""
    if state is _UNLEARNED:
        return 0, False
    m = Message(_random_bits(harness, session_key.l))
    seq = embed(m, session_key, scenario.library, scenario.N)
    try:
        guess_bits = validate_bits(adversary.recover(seq, state))
    except Exception:
        return 0, True
    if len(guess_bits) != m.l:
        return 0, True
    return m.l - (int(guess_bits or "0", 2) ^ m.value).bit_count(), True


def _play(
    scenario: Scenario,
    adversary: Adversary,
    level: AttackLevel,
    seed: int,
    trials: int,
    score: _Scorer,
    round_index: int | None = None,
    state: object | None = None,
) -> tuple[int, int, object | None]:
    """The trial engine: a block of trials against one session key and one leak.

    Without ``round_index`` each trial learns afresh from its own
    ("trial", t, "harness"|"adversary") streams, and the harness stream then
    draws the challenge.  With it, one learning phase on the
    ("round", r, "observe"|"adversary") streams serves the whole block and
    each trial draws from ("round", r, "trial", t); ``state`` carries the
    adversary state in and out, and a failed learn keeps the old state but
    scores the block's trials as unlearned.  The oracle handles close once
    ``learn`` returns.  Any adversary exception, a budget overrun or a call
    to a closed oracle included, scores as a miss; a fault of the harness
    itself raises, by the end of its trial even when it happens inside an
    adversary call.

    Returns (points, stego challenges, adversary state).
    """
    path = ("game",) if round_index is None else ("round", round_index)
    l = capacity(scenario.library.T, scenario.N).l
    session_key = keygen(l, SeededEntropy(_derive_key(seed, *path, "session-key")))
    leaked = _leak_ids(scenario, seed, level, round_index or 0)
    faults: list[Exception] = []  # harness faults raised inside adversary calls

    def learn(observe_gen, adversary_gen, prior):
        knowledge = _knowledge(
            scenario, level, session_key, leaked, observe_gen, adversary_gen, faults
        )
        try:
            return adversary.learn(knowledge, prior)
        except Exception:
            return _UNLEARNED
        finally:  # the oracles answer the learning phase only, never a challenge
            for oracle in (knowledge.embed_oracle, knowledge.extract_oracle):
                if oracle is not None:
                    oracle.close()

    if round_index is not None:
        learned = learn(
            _generator(seed, *path, "observe"), _generator(seed, *path, "adversary"), state
        )
        if learned is not _UNLEARNED:
            state = learned
    points = stego = 0
    for t in range(trials):
        if round_index is None:
            harness = _generator(seed, "trial", t, "harness")
            learned = learn(harness, _generator(seed, "trial", t, "adversary"), None)
        else:
            harness = _generator(seed, *path, "trial", t)
        p, is_stego = score(scenario, session_key, adversary, harness, learned)
        if faults:
            raise faults[0]
        points += p
        stego += is_stego
    return points, stego, state


def _result(
    level: AttackLevel, kind: str, successes: int, trials: int, alpha: float, seed: int, **extra
) -> GameResult:
    """GameResult with a one-sided exact binomial verdict against p = 0.5."""
    from scipy.stats import binomtest  # deferred: importing scipy.stats costs ~0.7 s

    rate = successes / trials
    p_value = float(binomtest(successes, trials, 0.5, alternative="greater").pvalue)
    broken = p_value < alpha and rate > 0.5
    return GameResult(
        level=level.name,
        kind=kind,
        trials=trials,
        successes=successes,
        success_rate=rate,
        p_value=p_value,
        alpha=alpha,
        verdict=VERDICT_BROKEN if broken else VERDICT_RESISTS,
        seed=seed,
        **extra,
    )


def run_game(
    scenario: Scenario,
    adversary: Adversary,
    level: AttackLevel,
    trials: int,
    seed: int,
    alpha: float = DEFAULT_ALPHA,
    max_workers: int | None = None,
) -> GameResult:
    """Detection game: can the adversary tell stego sequences from natural
    traffic better than a fair coin?

    Trials run serially; ``max_workers`` is accepted for compatibility and
    has no effect.
    """
    _validate(trials, seed, alpha)
    successes, stego, _ = _play(scenario, adversary, level, seed, trials, _score_detection)
    return _result(level, "detection", successes, trials, alpha, seed, stego_challenges=stego)


def message_recovery_game(
    scenario: Scenario,
    adversary: Adversary,
    level: AttackLevel,
    trials: int,
    seed: int,
    alpha: float = DEFAULT_ALPHA,
) -> GameResult:
    """Recovery game: the adversary sees fresh stego sequences and guesses
    the hidden bits; judged on per-bit agreement over all sequences."""
    _validate(trials, seed, alpha)
    agreed, _, _ = _play(scenario, adversary, level, seed, trials, _score_recovery)
    total_bits = trials * capacity(scenario.library.T, scenario.N).l
    return _result(level, "recovery", agreed, total_bits, alpha, seed, sequences=trials)


def acca_loop(
    scenario: Scenario,
    adversary: Adversary,
    trials_per_round: int,
    seed: int,
    rounds: int | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> list[GameResult]:
    """Adaptive game: repeated (learning, challenge-block) rounds.

    Adversary state persists across rounds and each round gets a fresh
    oracle budget, a fresh session key, and a leak grown per the scenario
    schedule.  Stops early once a round's verdict is broken.  Rounds run
    sequentially; adversary state makes them order-dependent by design.
    """
    _validate(trials_per_round, seed, alpha)
    n_rounds = rounds if rounds is not None else scenario.rounds
    if n_rounds < 1:
        raise InvalidConfig(f"rounds must be >= 1, got {n_rounds}")
    results: list[GameResult] = []
    state: object | None = None
    for r in range(n_rounds):
        successes, stego, state = _play(
            scenario, adversary, AttackLevel.ACCA, seed, trials_per_round, _score_detection,
            round_index=r, state=state,
        )
        results.append(
            _result(
                AttackLevel.ACCA, "detection", successes, trials_per_round, alpha, seed,
                stego_challenges=stego, round_index=r,
            )
        )
        if results[-1].verdict == VERDICT_BROKEN:
            break
    return results
