"""Open breaks of the scheme and its games, pinned as they read today.

Each test reproduces a finding that ``ROADMAP.md`` records, at the sizes and
seeds its item gives, and asserts today's reading.  The change that fixes an
item flips its test here: that change turns the test into the item's gate and
lists the move in ``CHANGES.md``.  Until then a test failing here means a
change made the break worse, or fixed it by accident.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from math import sqrt

import pytest

from helpers import best_detection_rate, challenge_laws, order_pattern, seen_count_rate
from stegogame.attackgame import (
    VERDICT_BROKEN,
    VERDICT_RESISTS,
    AttackLevel,
    CCAReplay,
    KCAMembership,
    message_recovery_game,
    run_game,
    synthetic_scenario,
)
from stegogame.attackgame.game import LABEL_NATURAL, LABEL_STEGO
from stegogame.cli import dispatch
from stegogame.library import build_library, save_manifest
from stegogame.permcodec import Arrangement, capacity, rank
from stegogame.stego import _decode


def full_leak_kca():
    """Criterion 6's full-leak KCA scenario: the whole library leaked and a
    world pool disjoint from it, so the id-set test is exact."""
    return synthetic_scenario(
        T=16, N=4, world_size=48, disjoint_world=True, seed=102, leak_fraction=1.0, observations=0,
    )


class SwappedMembership(KCAMembership):
    """``kca-membership`` with its two labels swapped: always wrong, and so
    as strong a distinguisher as the original."""

    name = "kca-membership-swapped"

    def guess(self, challenge, state):
        return LABEL_NATURAL if super().guess(challenge, state) == LABEL_STEGO else LABEL_STEGO


class RaisingMembership(KCAMembership):
    """``kca-membership`` whose every guess raises."""

    name = "kca-membership-raising"

    def guess(self, challenge, state):
        raise RuntimeError("guess fails")


class KCARank:
    """A scratch ``kca-rank``: with the whole library leaked, it ranks a
    challenge's ids in the library's public order, the sorted ids, and says
    stego iff every id is leaked and the rank is below 2**l."""

    name = "kca-rank"

    def learn(self, knowledge, state=None):
        index = {cid: i for i, cid in enumerate(sorted(knowledge.leaked_ids))}
        return {"index": index, "l": knowledge.payload_bits}

    def guess(self, challenge, state):
        index = state["index"]
        if not all(cid in index for cid in challenge.ids):
            return LABEL_NATURAL
        value = rank(Arrangement(tuple(map(index.__getitem__, challenge.ids)), len(index)))
        return LABEL_STEGO if value < 2 ** state["l"] else LABEL_NATURAL


class CCAKeyRecovery:
    """A scratch key-recovery warden: it collects the library ids that the
    leak, the observations and the embed oracle's answers show, asks the
    oracle for payload 0, whose answer sits at rank ``key``, and decodes
    every later sequence over the sorted known ids, the library's public
    order once they cover it."""

    name = "cca-key-recovery"

    def learn(self, knowledge, state=None):
        oracle, l = knowledge.embed_oracle, knowledge.payload_bits
        zero = oracle(0)
        known = {*knowledge.leaked_ids, *zero.ids}
        known.update(*(seq.ids for seq in knowledge.observed))
        known.update(*(oracle(p).ids for p in knowledge.rng.integers(1 << l, size=oracle.remaining).tolist()))
        index = {cid: i for i, cid in enumerate(sorted(known))}.__getitem__
        return index, len(known), _decode(zero, index, len(known), 0)[0]

    def recover(self, sequence, state):
        return _decode(sequence, *state)[0]


def test_full_leak_kca_membership_is_broken():
    """The shipped detector on criterion 6's full-leak scenario reads 1.0,
    ``broken``: the baseline both breaks below are measured against."""
    result = run_game(full_leak_kca(), KCAMembership(), AttackLevel.KCA, trials=1000, seed=202)
    assert (result.success_rate, result.verdict) == (1.0, VERDICT_BROKEN)


def test_swapped_labels_read_as_resistance():
    """ROADMAP item 14 (verdicts on advantage): a verdict tests only
    rate > 1/2, so the detector that is always wrong reads 0.0, ``resists``,
    though its advantage |rate - 1/2| is the largest there is.  Item 14's
    two-sided test flips this to ``broken``."""
    result = run_game(full_leak_kca(), SwappedMembership(), AttackLevel.KCA, trials=1000, seed=202)
    assert (result.success_rate, result.verdict) == (0.0, VERDICT_RESISTS)


def test_a_raising_adversary_reads_as_resistance():
    """ROADMAP item 14 (faults that cannot read as resistance): every faulted
    guess scores as a miss, so an adversary that raises on every call reads
    0.0, ``resists``.  Item 14 scores a fault as a fair coin, which moves the
    rate to about 1/2 and keeps the verdict, so this test's 0.0 flips."""
    result = run_game(full_leak_kca(), RaisingMembership(), AttackLevel.KCA, trials=1000, seed=202)
    assert (result.success_rate, result.verdict) == (0.0, VERDICT_RESISTS)


def test_cca_replay_breaks_scoa():
    """ROADMAP item 15 (a detection budget): on criterion 6's SCOA scenario,
    where ``scoa-histogram`` stays at chance, the shipped ``cca-replay``
    played at SCOA, with no oracle, remembers the ids of the 16 observed
    sequences and reads 0.961, ``broken``.  Stego traffic keeps returning to
    the T library covers of a larger world pool.  Item 15's detection budget,
    or a library that is the whole world pool (T = W), flips this."""
    scenario = synthetic_scenario(T=16, N=4, world_size=64, seed=101)
    result = run_game(scenario, CCAReplay(), AttackLevel.SCOA, trials=1000, seed=201)
    assert (result.success_rate, result.verdict) == (0.961, VERDICT_BROKEN)
    assert result.p_value < 1e-200


def test_equal_blocks_embed_to_equal_sequence_files(tmp_path, make_covers, capsys):
    """ROADMAP item 13 (a fresh pad per block): ``embed`` pads every block of
    a message with the one key, a many-time pad, so equal blocks become equal
    sequences.  At (16, 4), l = 15, the message below splits into six blocks,
    four of them zero padding and two equal: ``seq.000`` to ``seq.003`` are
    byte-identical, and so are ``seq.004`` and ``seq.005``.  A natural draw
    repeats one ordered 4-tuple of 16 covers with probability 1/43,680, so
    a warden who sees the channel alone flags the message."""
    save_manifest(build_library(make_covers(16, size=200)), tmp_path / "lib.json")
    assert dispatch(["keygen", "-T", "16", "-N", "4", "--seed", "1", "-o", str(tmp_path / "key.txt")]) == 0
    assert dispatch(["embed", "-m", "000000000000000012341234", "-k", str(tmp_path / "key.txt"),
                     "-x", str(tmp_path / "lib.json"), "-N", "4", "-o", str(tmp_path / "seq.json")]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (report["blocks"], report["l"]) == (6, 15)
    files = [(tmp_path / f"seq.{i:03d}.json").read_bytes() for i in range(6)]
    assert len(set(files[:4])) == len(set(files[4:])) == 1
    assert files[3] != files[4]


def test_the_rank_rule_wins_its_exact_rate():
    """ROADMAP item 12 (the rank leak at KCA): with the whole library leaked
    and the world pool the library itself, a stego rank is always below 2**l
    and a natural one falls there with probability 2**l/r.  So the best
    detector of the ids, by enumeration, wins exactly 0.5 + (1 - 2**l/r)/2:
    0.6249 at (16, 4).  Item 13's Z_r pad with a per-message key flips this
    to 0.5."""
    cap = capacity(16, 4)
    rate = best_detection_rate(*challenge_laws(16, 4))
    assert rate == Fraction(1, 2) + (1 - Fraction(2**cap.l, cap.r)) / 2
    assert round(float(rate), 4) == 0.6249


def test_kca_rank_breaks_kca_at_the_exact_rate():
    """ROADMAP item 12: on that scenario, where ``kca-membership`` is blind
    (every id is leaked, stego or natural), the scratch ``kca-rank`` reads
    ``broken`` over 2,000 trials, within 2.576 sigma of the exact rate.  Item
    13's Z_r pad with a per-message key flips this to ``resists``."""
    scenario = synthetic_scenario(
        T=16, N=4, world_size=16, seed=5, leak_fraction=1.0, observations=0, cover_size=64,
    )
    result = run_game(scenario, KCARank(), AttackLevel.KCA, trials=2000, seed=3)
    p = float(best_detection_rate(*challenge_laws(16, 4)))
    assert result.verdict == VERDICT_BROKEN and result.p_value < 1e-6
    assert abs(result.success_rate - p) <= 2.576 * sqrt(p * (1 - p) / 2000)


@pytest.mark.parametrize("T, N, tv", [(12, 3, 0.142), (16, 4, 0.159)])
def test_the_order_pattern_leaks(T, N, tv):
    """ROADMAP item 2 (uniform cover order): a stego challenge's ranks lie
    below 2**l, so the relative order of its ids in the public hash order,
    which a warden with no library, leak or oracle can compare, is not the
    uniform order of a natural draw.  By enumeration the total variation
    between the two is 0.142 at (12, 3) and 0.159 at (16, 4), and the best
    order-only detector wins 0.5 + TV/2.  Item 13's Z_r pad with a
    per-message key flips this to 0."""
    rate = best_detection_rate(*challenge_laws(T, N, order_pattern))
    assert round(float(2 * rate - 1), 3) == tv


def test_a_chosen_payload_recovers_the_key():
    """ROADMAP item 1 (key recovery at CCA): one session key pads every
    message, so the embed oracle's answer to payload 0 sits at rank ``key``.
    The scratch ``cca-key-recovery`` reads that rank over the sorted ids it
    has seen and decodes every challenge: per-bit 1.0, ``broken``, at
    (16, 4) with an embed budget of 64, where the shipped ``cca-replay``
    stays near 1/2.  Item 13's fresh pad per block flips this to ``resists``:
    the oracle's answer then shows only that message's pad."""
    scenario = synthetic_scenario(16, 4, seed=7, world_size=64, cover_size=64, oracle_embed_budget=64)
    result = message_recovery_game(scenario, CCAKeyRecovery(), AttackLevel.CCA, trials=200, seed=3)
    assert (result.success_rate, result.verdict) == (1.0, VERDICT_BROKEN)
    assert result.p_value < 1e-6


@pytest.mark.parametrize("x", [0, 1, 2])
def test_seen_count_referee_matches_enumeration(x):
    """The exact seen-count rate of ROADMAP item 15, against every use
    sequence at (T, N, W) = (5, 2, 8): x uses of N-subsets of the library
    range(5), then a challenge that is an N-subset of the library (stego) or
    of the world pool range(8) (natural), each K counted over every case."""
    T, N, W = 5, 2, 8
    uses = list(itertools.combinations(range(T), N))
    stego, natural = Counter(), Counter()
    for draw in itertools.product(uses, repeat=x):
        seen = set(itertools.chain.from_iterable(draw))
        stego.update(len(seen.intersection(c)) for c in uses)
        natural.update(len(seen.intersection(c)) for c in itertools.combinations(range(W), N))
    assert seen_count_rate(x, N, T, W) == best_detection_rate(stego, natural)


@pytest.mark.parametrize("T, N, W, x, rate", [
    (16, 4, 64, 1, 0.74775), (16, 4, 64, 2, 0.77423), (16, 4, 64, 4, 0.89404),
    (16, 4, 64, 8, 0.96042), (64, 8, 256, 1, 0.72599),
])
def test_counting_seen_covers_wins_after_one_use(T, N, W, x, rate):
    """ROADMAP item 15 (a detection budget): a warden who counts how many of
    a challenge's ids it saw in x earlier uses wins, at best, 0.74775 at
    (16, 4, 64) after one use, and 0.96042 after eight, where
    ``max_safe_uses`` at zeta = 0.4 allows ten; 0.72599 at (64, 8, 256).
    Item 15's detection budget bounds x by this rate, not by coverage."""
    assert round(float(seen_count_rate(x, N, T, W)), 5) == rate


@pytest.mark.parametrize("x", [1, 2, 8])
def test_a_library_that_is_the_world_hides_its_uses(x):
    """ROADMAP item 15: with the library the whole world pool (T = W), every
    challenge's ids are library ids, stego or natural, and the seen-count
    warden wins exactly 1/2 at every x."""
    assert seen_count_rate(x, 4, 16, 16) == Fraction(1, 2)
