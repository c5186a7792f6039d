"""Open breaks of the scheme and its games, pinned as they read today.

Each test reproduces a finding that ``ROADMAP.md`` records, at the sizes and
seeds its item gives, and asserts today's reading.  The change that fixes an
item flips its test here: that change turns the test into the item's gate and
lists the move in ``CHANGES.md``.  Until then a test failing here means a
change made the break worse, or fixed it by accident.
"""

from __future__ import annotations

import json

from stegogame.attackgame import (
    VERDICT_BROKEN,
    VERDICT_RESISTS,
    AttackLevel,
    CCAReplay,
    KCAMembership,
    run_game,
    synthetic_scenario,
)
from stegogame.attackgame.game import LABEL_NATURAL, LABEL_STEGO
from stegogame.cli import dispatch
from stegogame.library import build_library, save_manifest


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
