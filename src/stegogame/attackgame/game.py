"""Detection and recovery games against a pluggable adversary.

Each trial runs a learning phase (level-scoped knowledge, budgeted oracle
handles that close when it ends) and a challenge phase (fair coin: fresh
stego sequence or natural draw from the world pool, read from raw Philox
words).  The ">50% success" criterion is judged with a one-sided exact
binomial test, never a raw rate comparison.

All three games run on one serial trial engine over integer payloads, which
``stego._codec`` pads and ranks as it does the CLI's.  Every draw flows from
a Philox generator keyed by sha256 over (seed, labelled path), and a trial's
streams are addressed by the Philox counter, so results are byte-identical
across runs and platforms.  Observations open a learning phase's stream: the
harness skips them; ``Knowledge.observed`` draws and embeds them on first read.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from decimal import Decimal, localcontext
from enum import IntEnum
from fractions import Fraction
from functools import cache, cached_property, partial
from math import comb
from typing import Callable, Protocol

import numpy as np

from ..errors import (
    InvalidConfig, NotInLibrary, OracleBudgetExceeded, check_choice, check_int, check_real, check_width, show,
)
from ..library import CoverId
from ..permcodec import capacity
# embed, extract and keygen are not called here; perfbench/tracer.py looks
# them up in this module by name.
from ..stego import StegoSequence, _Codec, _codec, embed, extract, keygen  # noqa: F401
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
        name = name.strip().lower() if isinstance(name, str) else name
        check_choice("level", name, [m.name.lower() for m in cls], InvalidConfig)
        return cls[name.upper()]


@dataclass(frozen=True, eq=False)
class Knowledge:
    """What one learning phase hands the adversary.  Level-scoped: fields
    above the adversary's level are empty/None, never absent.  ``observed``
    (past stego traffic) is drawn and embedded on first read.

    Payloads and the leaked key are ints in ``[0, 2**payload_bits)``.
    ``rng`` is this trial's adversary stream (this round's, in an ACCA
    round).  The harness moves it to the next trial's counter in place, so
    an adversary must not keep drawing from it past its trial."""

    level: AttackLevel
    N: int
    payload_bits: int
    world_ids: tuple[CoverId, ...]
    leaked_ids: tuple[CoverId, ...]
    leaked_key: int | None
    embed_oracle: Callable[[int], StegoSequence] | None
    extract_oracle: Callable[[StegoSequence], int] | None
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
    """Learns from a :class:`Knowledge`, then labels challenges or recovers
    payloads from the state it returned.  ``recover`` returns an int in
    ``[0, 2**payload_bits)``; anything else scores 0 bits.  Its only
    randomness is ``Knowledge.rng``, that trial's stream, which moves to the
    next trial's counter when that trial starts: state kept past the trial
    must not draw from it.  None of the reference adversaries does."""

    name: str

    def learn(self, knowledge: Knowledge, state: object | None = None) -> object: ...

    def guess(self, challenge: Challenge, state: object) -> str: ...

    def recover(self, sequence: StegoSequence, state: object) -> int: ...


# ---------------------------------------------------------------------------
# deterministic streams and payloads

_KEY_PREFIX = hashlib.sha256(b"stegogame.attackgame")
_WORD, _HALF = (1 << 64) - 1, (1 << 32) - 1
_FLOYD_N = 14  # the most picks read from raw words: from about 15, numpy's choice, handoff included, is as fast


def _derive_key(seed: int, *path: object) -> int:
    h = _KEY_PREFIX.copy()
    h.update("/".join([str(seed), *map(str, path)]).encode())
    return int.from_bytes(h.digest()[:16], "big")


def _stream(key: int, skip: int = 0) -> Callable[[int], np.random.Generator]:
    """``at(trial)``: this stream's one generator, set in place to ``Philox(key=key, counter=trial
    << 128)`` (Salmon et al., SC 2011) ``skip`` raw words in, by writing the counter into one state
    dict; a new ``Philox`` costs several times more, as it pulls OS entropy first."""
    counter = [skip >> 2, 0, 0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": (key & _WORD, key >> 64)},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    gen = np.random.Generator(np.random.Philox(key=0))
    bit_generator = gen.bit_generator

    def at(trial: int) -> np.random.Generator:
        counter[2:] = trial & _WORD, trial >> 64
        bit_generator.state = state
        if skip & 3:  # a counter step gives 4 words
            bit_generator.random_raw(skip & 3)
        return gen

    return at


def _random_values(gen: np.random.Generator, l: int, count: int) -> list[int]:
    """``count`` uniform l-bit payloads, each the top l bits of its ceil(l / 64)
    raw words read big-endian, from one ``random_raw`` call (scalar for one
    word).  k payloads in one call draw what k calls do; l = 0 draws nothing."""
    w = -(-l // 64)
    if count * w == 1:
        return [gen.bit_generator.random_raw() >> 64 - l]
    words = gen.bit_generator.random_raw(count * w).tolist()
    values = words[::w] if w else [0] * count
    for j in range(1, w):  # each later word of a payload is less significant
        values = [v << 64 | word for v, word in zip(values, words[j::w])]
    return [v >> 64 * w - l for v in values]


def _challenge(harness: np.random.Generator, l: int, W: int, N: int) -> tuple[bool, int | list[int]]:
    """(stego, payload or picks) of one detection challenge, drawn as numpy 2.4's ``integers(0, 2)``,
    then ``_random_values(harness, l, 1)`` or ``choice(W, N, replace=False)`` draw them.  The coin is
    bit 31 of the first raw word.  Up to ``_FLOYD_N`` picks, numpy's Floyd steps and shuffle of the
    picks take bounded draws (Lemire, ACM TOMACS 2019) from raw 32-bit halves, that word's high half
    first; W < 2**32 (no larger pool fits in memory) keeps them 32-bit.  One pass over the bounds
    plays both: Floyd's step j appends its draw, or j, which is above every earlier pick, if the draw
    is picked already; a shuffle step swaps two picks in place.  Past it ``choice`` draws them."""
    raw = harness.bit_generator.random_raw
    first = raw()
    if first >> 31 & 1:
        return True, _random_values(harness, l, 1)[0]
    if N > _FLOYD_N:  # numpy's own choice, handed the unread high half
        harness.bit_generator.state = {**harness.bit_generator.state, "has_uint32": 1, "uinteger": first >> 32}
        return False, harness.choice(W, N, replace=False).tolist()
    halves = [first >> 32, *raw(N).astype("<u8", copy=False).view("<u4").tolist()]  # 2N + 1 halves
    half = iter(halves).__next__
    picks = list(range(W == N))  # Floyd's step at a bound of 0 (W = N) draws nothing and picks 0
    for rng in (*range(max(W - N, 1), W), *range(N - 1, 0, -1)):  # Floyd's steps, then the shuffle's
        while (m := half() * (rng + 1)) & _HALF <= rng and m & _HALF < (_HALF - rng) % (rng + 1):
            halves += divmod(raw(), 1 << 32)[::-1]  # rejected: draw again, a word's low half first
        v = m >> 32
        if len(picks) < N:
            picks.append(rng if v in picks else v)
        else:
            picks[rng], picks[v] = picks[v], picks[rng]
    return False, picks


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

    def __call__(self, arg):
        if self.remaining <= 0 or self.closed:
            why = "closed after learning" if self.closed else "budget exhausted"
            raise OracleBudgetExceeded(f"{self.name} oracle {why}")
        self.remaining -= 1
        return self._fn(arg)


# ---------------------------------------------------------------------------
# game plumbing

def _validate(level: AttackLevel, trials: int, seed: int, alpha: float) -> None:
    if not isinstance(level, AttackLevel):
        raise InvalidConfig(f"level must be an AttackLevel, got {show(level)}")
    check_int("trials", trials, MIN_TRIALS, InvalidConfig)
    check_int("seed", seed, 0, InvalidConfig)
    if show(seed)[0] == "<":  # past the str limit, so _derive_key cannot key the game's streams with it
        raise InvalidConfig(f"seed must fit Python's int-to-str digit limit, got {show(seed)}")
    check_real("alpha", alpha, 0, 1, InvalidConfig, closed=False)


def _leak_order(scenario: Scenario, seed: int) -> np.ndarray:
    """The library's indices in leak order: one shuffle that depends only on
    the game seed, so each round's leak, its prefix, extends the last."""
    return _stream(_derive_key(seed, "leak"))(0).permutation(scenario.library.T)


def _leaked_key(scenario: Scenario, codec: _Codec) -> int | None:
    if scenario.key_leak is None:
        return None
    if scenario.key_leak == "full" or not codec.l:
        return codec.key
    return codec.key ^ 1 << (codec.l - 1)  # "flip1": the first bit flipped


def _harness_call(fn: Callable, faults: list[Exception]) -> Callable:
    """``fn``, recording its faults as the harness's even where the adversary
    swallows them; an id outside the scenario is the adversary's own error."""

    def call(*args):
        try:
            return fn(*args)
        except Exception as exc:
            if not isinstance(exc, NotInLibrary):
                faults.append(exc)
            raise

    return call


# The state a trial scores with when its learning phase raised.
_UNLEARNED = object()


def _learning(scenario: Scenario, level: AttackLevel, codec: _Codec, leaked: tuple[CoverId, ...],
              faults: list[Exception], adversary: Adversary) -> Callable[..., object]:
    """A block's learning phase, per trial or per round: ``learn(key, trial, rng, prior)`` hands
    ``adversary.learn`` a Knowledge whose observations open the stream ``(key, trial)`` and are drawn
    and embedded when ``observed`` is first read.  It returns the state, or ``_UNLEARNED`` if learn
    raised; the oracles close when it ends, as they answer the learning phase only."""
    l, count, oracles = codec.l, scenario.observations, level >= AttackLevel.CCA
    streams = cache(_stream)  # one per key

    def observe(key: int, trial: int) -> tuple[StegoSequence, ...]:
        return tuple(map(codec.embed, _random_values(streams(key)(trial), l, count))) if count else ()

    observe = _harness_call(observe, faults)
    block = {
        "level": level, "N": scenario.N, "payload_bits": l, "world_ids": scenario.world.ids(),
        "leaked_ids": leaked, "leaked_key": _leaked_key(scenario, codec),
        "embed_oracle": None, "extract_oracle": None,
        "rounds": scenario.rounds if level >= AttackLevel.ACCA else 1,
        "content": _harness_call(scenario.content_for, faults),
    }

    def learn(key: int, trial: int, rng: np.random.Generator, prior: object | None) -> object:
        knowledge = object.__new__(Knowledge)  # built valid: no __init__, no setattr per field
        fields = knowledge.__dict__
        fields.update(block)
        fields["rng"], fields["_observe"] = rng, partial(observe, key, trial)
        if oracles:
            fields["embed_oracle"] = _BudgetedOracle(codec.embed, scenario.oracle_embed_budget, "embed")
            fields["extract_oracle"] = _BudgetedOracle(codec.extract, scenario.oracle_extract_budget, "extract")
        try:
            return adversary.learn(knowledge, prior)
        except Exception:
            return _UNLEARNED
        finally:
            if oracles:
                fields["embed_oracle"].close()
                fields["extract_oracle"].close()

    return learn


def _score_detection(scenario, codec, adversary, harness, state) -> tuple[int, bool]:
    """One point for the right label of a fair coin's challenge: a fresh
    stego sequence or N distinct covers of the world pool.  The challenge is
    drawn even after a failed learn, so it still counts towards the stego
    challenges."""
    world = scenario.world.ids()
    is_stego, drawn = _challenge(harness, codec.l, len(world), scenario.N)
    ids = codec.embed(drawn).ids if is_stego else tuple(map(world.__getitem__, drawn))
    if state is _UNLEARNED:
        return 0, is_stego
    label = LABEL_STEGO if is_stego else LABEL_NATURAL
    challenge = object.__new__(Challenge)  # built valid, as a Knowledge is
    challenge.__dict__["ids"] = ids
    try:  # str's own ==, which refuses a non-str answer: the answer's == could match any label
        return int(str.__eq__(adversary.guess(challenge, state), label)), is_stego
    except Exception:
        return 0, is_stego


def _score_recovery(scenario, codec, adversary, harness, state) -> tuple[int, bool]:
    """One point per payload bit guessed right; a guess that is not an int
    in [0, 2**l) scores 0."""
    if state is _UNLEARNED:
        return 0, False
    l = codec.l
    (m,) = _random_values(harness, l, 1)
    seq = codec.embed(m)
    try:
        guess = adversary.recover(seq, state)
        if type(guess) is not int or guess < 0 or guess >> l:
            check_width("payload", guess, l, InvalidConfig)
    except Exception:
        return 0, True
    return l - (guess ^ m).bit_count(), True


def _play(scenario: Scenario, adversary: Adversary, level: AttackLevel, seed: int, trials: int,
          score: Callable[..., tuple[int, bool]], round_index: int | None = None,
          state: object | None = None, order: np.ndarray | None = None) -> tuple[int, int, object | None]:
    """The trial engine: a block of trials against one session key and one leak.

    The block's path, ("game",) or ("round", r), keys its session key, codec
    and one ``_stream`` per role ("harness", "adversary"), on which trial t
    runs at Philox counter t << 128.  From KCA up, the leak is the first
    ``leak_size(r)`` covers in ``order``, drawn by ``_leak_order`` if not
    given.  Without ``round_index`` each trial learns afresh, and the harness
    skips its observations' words.  With it, one learning phase on the
    block's "observe" and "adversary" streams serves the block; ``state``
    carries the adversary state in and out, and a failed learn keeps the old
    state but scores the block as unlearned.  Oracles close once ``learn``
    returns.  An adversary exception (a budget overrun or a closed oracle's
    call too) scores as a miss; a harness fault raises by the end of its
    trial, even from inside an adversary call.

    ``score(scenario, codec, adversary, harness, state)`` gives a trial's
    (points, stego).  Returns (points, stego challenges, adversary state).
    """
    path = ("game",) if round_index is None else ("round", round_index)
    l = capacity(scenario.library.T, scenario.N).l
    # the draw keygen makes from random.Random(seed); getrandbits also serves l = 0
    session_key = random.Random(_derive_key(seed, *path, "session-key")).getrandbits(l)
    codec = _codec(scenario.library, scenario.N, session_key)
    size = scenario.leak_size(round_index or 0) if level >= AttackLevel.KCA else 0
    if size and order is None:
        order = _leak_order(scenario, seed)
    leaked = tuple(map(scenario.library.ids().__getitem__, order[:size].tolist())) if size else ()
    faults: list[Exception] = []  # harness faults raised inside adversary calls
    learn = _learning(scenario, level, codec, leaked, faults, adversary)
    harness_key, adversary_key = (_derive_key(seed, *path, r) for r in ("harness", "adversary"))
    skip = scenario.observations * -(-l // 64) if round_index is None else 0  # a trial's observations
    harness, adversary_gen = _stream(harness_key, skip), _stream(adversary_key)
    if round_index is not None:  # no trial moves adversary_gen, so it serves the whole block
        learned = learn(_derive_key(seed, *path, "observe"), 0, adversary_gen(0), state)
        if learned is not _UNLEARNED:
            state = learned
    points = stego = 0
    for t in range(trials):
        if round_index is None:
            learned = learn(harness_key, t, adversary_gen(t), None)
        p, is_stego = score(scenario, codec, adversary, harness(t), learned)
        if faults:
            raise faults[0]
        points += p
        stego += is_stego
    return points, stego, state


# ---------------------------------------------------------------------------
# the verdict: an exact binomial tail, rounded once

_LN2 = Decimal("0.693147180559945309417232121458176568075500134360255254120680009")
_HALF_LN_2PI = Decimal("0.918938533204672741780329736405617639861397473637783412817151540")
# B_2i / (2i (2i - 1)), i = 1..5: Stirling's series for ln x!.  Its remainder
# lies below the next term, 691/360360 / x**11, so under 2e-36 at x >= 1000.
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188))
_SLACK = Decimal("1e-30")  # relative: over that remainder and every rounding


def _ln_factorial(x: int) -> Decimal:
    """ln x! less ln(2 pi) / 2, by Stirling's series; for x >= 1000."""
    d = Decimal(x)
    series = sum(Decimal(a) / (b * x ** (2 * i + 1)) for i, (a, b) in enumerate(_STIRLING))
    return (d + Decimal("0.5")) * d.ln() - d + series


def _first_term(m: int, n: int, exact: bool) -> tuple[int, int, int]:
    """(lo, hi, e) with lo <= C(n, m) * 2**(e - n) <= hi, lo of 159 bits or
    more: by ``comb`` where it is cheap or asked for, else in 50-digit decimals."""
    if exact or n - m < 1000:
        c = comb(n, m) << 160
        return c, c, n + 160
    with localcontext(prec=50):
        ln_t = _ln_factorial(n) - _ln_factorial(m) - _ln_factorial(n - m) - _HALF_LN_2PI - n * _LN2
        e = 160 - int(ln_t / _LN2)
        t = (ln_t + e * _LN2).exp()
        return int(t * (1 - _SLACK)), int(t * (1 + _SLACK)) + 1, e


def p_value_greater(k: int, n: int, alpha: float = 0.0, exact: bool = False) -> tuple[float, bool]:
    """The one-sided exact binomial p-value P(X >= k), X ~ Binomial(n, 1/2),
    correctly rounded, and whether it lies below ``alpha``'s exact value.

    It sums the smaller side, from m = k, or from m = n - k + 1 to return
    1 - P(X >= m), so each ratio (n - j)/(j + 1) to the next term is below 1
    and falls.  Terms are floored from the first term's low end, each short
    by under one unit per step; past term j the rest is below a geometric
    series in the ratio at j.  Every 32 terms, once both ends of the returned
    quantity round to one float and lie on one side of alpha, it returns:
    after a few hundred terms at n = 24,000.  Ends that still differ at
    j = n sum again from the exact first term, which ends with lo == hi."""
    if not 0 < k <= n:
        p = float(k <= 0)
        return p, p < alpha
    upper = 2 * k >= n
    m = k if upper else n - k + 1
    t_lo, t_hi, e = _first_term(m, n, exact)
    one, floored = 1 << e, int(t_lo != t_hi)
    a, b = Fraction(alpha).as_integer_ratio()
    a <<= e
    q = s = t_lo
    j = m
    while True:
        c = j - m + 1
        rest = -(-(q + floored * c) * (n - j) // (2 * j + 1 - n)) + floored * c * c
        lo, hi = s, s + rest - (-(t_hi - t_lo) * (s + rest) // t_lo)
        if not upper:
            lo, hi = one - hi, one - lo
        if lo / one == hi / one and (hi * b < a) == (lo * b < a):
            return lo / one, hi * b < a
        if j == n:
            return p_value_greater(k, n, alpha, exact=True)
        for j in range(j + 1, min(j + 33, n + 1)):
            q = q * (n - j + 1) // j
            s += q


def _result(level: AttackLevel, kind: str, successes: int, trials: int, alpha: float, seed: int,
            **extra) -> GameResult:
    """GameResult with a one-sided exact binomial verdict against p = 0.5."""
    rate = successes / trials
    p_value, below = p_value_greater(successes, trials, alpha)
    broken = below and rate > 0.5
    return GameResult(
        level=level.name, kind=kind, trials=trials, successes=successes, success_rate=rate,
        p_value=p_value, alpha=alpha, verdict=VERDICT_BROKEN if broken else VERDICT_RESISTS,
        seed=seed, **extra,
    )


def run_game(scenario: Scenario, adversary: Adversary, level: AttackLevel, trials: int, seed: int,
             alpha: float = DEFAULT_ALPHA, max_workers: int | None = None) -> GameResult:
    """Detection game: can the adversary tell stego sequences from natural
    traffic better than a fair coin?

    Trials run serially; ``max_workers`` is accepted for compatibility and
    has no effect.
    """
    _validate(level, trials, seed, alpha)
    successes, stego, _ = _play(scenario, adversary, level, seed, trials, _score_detection)
    return _result(level, "detection", successes, trials, alpha, seed, stego_challenges=stego)


def message_recovery_game(scenario: Scenario, adversary: Adversary, level: AttackLevel, trials: int,
                          seed: int, alpha: float = DEFAULT_ALPHA) -> GameResult:
    """Recovery game: the adversary sees fresh stego sequences and guesses
    the hidden bits; judged on per-bit agreement over all sequences."""
    _validate(level, trials, seed, alpha)
    l = capacity(scenario.library.T, scenario.N).l
    if not l:
        raise InvalidConfig(f"no payload bits to recover at T={scenario.library.T}, N={scenario.N}")
    agreed, _, _ = _play(scenario, adversary, level, seed, trials, _score_recovery)
    return _result(level, "recovery", agreed, trials * l, alpha, seed, sequences=trials)


def acca_loop(scenario: Scenario, adversary: Adversary, trials_per_round: int, seed: int,
              rounds: int | None = None, alpha: float = DEFAULT_ALPHA) -> list[GameResult]:
    """Adaptive game: repeated (learning, challenge-block) rounds.

    Adversary state persists across rounds and each round gets a fresh
    oracle budget, a fresh session key, and a leak grown per the scenario
    schedule: the loop draws one leak order, and round r leaks its first
    ``leak_size(r)`` covers.  Stops early once a round's verdict is broken.
    Rounds run sequentially; adversary state makes them order-dependent by
    design.

    ``alpha`` is the family-wise level over all rounds: each round is tested
    at ``alpha / rounds`` (Bonferroni) and reports the family ``alpha``.
    """
    _validate(AttackLevel.ACCA, trials_per_round, seed, alpha)
    n_rounds = rounds if rounds is not None else scenario.rounds
    check_int("rounds", n_rounds, 1, InvalidConfig)
    results: list[GameResult] = []
    state: object | None = None
    order = _leak_order(scenario, seed)
    for r in range(n_rounds):
        successes, stego, state = _play(
            scenario, adversary, AttackLevel.ACCA, seed, trials_per_round, _score_detection,
            round_index=r, state=state, order=order,
        )
        result = _result(
            AttackLevel.ACCA, "detection", successes, trials_per_round, alpha / n_rounds, seed,
            stego_challenges=stego, round_index=r,
        )
        results.append(replace(result, alpha=alpha))
        if results[-1].verdict == VERDICT_BROKEN:
            break
    return results
