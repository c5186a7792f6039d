import json
import math
from dataclasses import asdict

import pytest

from stegogame.attackgame import (
    AttackLevel,
    CCAReplay,
    KCAMembership,
    KeyedRecovery,
    RandomGuesser,
    SCOAHistogram,
    VERDICT_BROKEN,
    VERDICT_RESISTS,
    acca_loop,
    load_scenario,
    make_adversary,
    message_recovery_game,
    run_game,
    synthetic_scenario,
)
from stegogame.attackgame.game import _BudgetedOracle
from stegogame.errors import (
    InvalidConfig,
    MalformedFile,
    NotInLibrary,
    OracleBudgetExceeded,
)
from stegogame.library import save_manifest
from stegogame.permcodec import capacity


class FailingAdversary:
    name = "failing"

    def learn(self, knowledge, state=None):
        return None

    def guess(self, challenge, state):
        raise RuntimeError("boom")

    def recover(self, sequence, state):
        raise RuntimeError("boom")


class FlakyAdversary:
    """Learn fails on about half its phases; recover answers with the wrong
    length, with non-bits, or with a real guess, by turns of its rng."""

    name = "flaky"

    def learn(self, knowledge, state=None):
        if knowledge.rng.integers(0, 2):
            raise RuntimeError("learn failed")
        if knowledge.embed_oracle is not None:
            bits = "1" * knowledge.payload_bits
            assert knowledge.extract_oracle(knowledge.embed_oracle(bits)) == bits
        count = state["count"] + 1 if state else 1
        return {"knowledge": knowledge, "count": count}

    def guess(self, challenge, state):
        # the learn count makes the answers depend on state kept across rounds
        flip = state["knowledge"].rng.integers(0, 2) + state["count"]
        return "stego" if flip % 2 else "natural"

    def recover(self, sequence, state):
        knowledge = state["knowledge"]
        l = knowledge.payload_bits
        kind = knowledge.rng.integers(0, 3)
        if kind == 0:
            return "0" * (l + 1)
        if kind == 1:
            return "2" * l
        return "".join("1" if b else "0" for b in knowledge.rng.integers(0, 2, size=l))


class TestScenario:
    def test_synthetic_shapes(self):
        sc = synthetic_scenario(T=8, N=3, world_size=24, seed=1)
        assert sc.library.T == 8
        assert sc.world.T == 24
        assert set(sc.library.ids()) <= set(sc.world.ids())

    def test_disjoint_world(self):
        sc = synthetic_scenario(T=8, N=3, world_size=24, disjoint_world=True, seed=1)
        assert not set(sc.library.ids()) & set(sc.world.ids())

    def test_content_resolves_and_hashes_back(self):
        import hashlib

        sc = synthetic_scenario(T=4, N=2, world_size=8, seed=2)
        cid = sc.library.id_at(0)
        assert hashlib.sha256(sc.content_for(cid)).hexdigest() == cid
        with pytest.raises(NotInLibrary):
            sc.content_for("0" * 64)

    def test_leak_schedule(self):
        sc = synthetic_scenario(
            T=10, N=2, world_size=20, seed=3, leak_fraction=0.2, leak_growth=0.3
        )
        assert [sc.leak_size(r) for r in range(4)] == [2, 5, 8, 10]

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            synthetic_scenario(T=4, N=5, world_size=8, seed=0)
        with pytest.raises(InvalidConfig):
            synthetic_scenario(T=4, N=2, world_size=8, seed=0, leak_fraction=1.5)
        with pytest.raises(InvalidConfig):
            synthetic_scenario(T=4, N=2, world_size=8, seed=0, key_leak="partial")
        with pytest.raises(InvalidConfig):
            synthetic_scenario(T=4, N=2, world_size=8, seed=0, rounds=0)

    def test_load_scenario_file(self, tmp_path, make_covers):
        from stegogame.library import build_library

        paths = make_covers(8)
        lib = build_library(paths[:4])
        world = build_library(paths)
        save_manifest(lib, tmp_path / "lib.json")
        save_manifest(world, tmp_path / "world.json")
        (tmp_path / "scen.json").write_text(
            json.dumps(
                {
                    "library": "lib.json",
                    "world_pool": "world.json",
                    "N": 2,
                    "leak_fraction": 0.5,
                    "rounds": 3,
                }
            )
        )
        sc = load_scenario(tmp_path / "scen.json")
        assert sc.library == lib and sc.world == world
        assert sc.N == 2 and sc.rounds == 3
        # real files resolve through the manifest path
        assert sc.content_for(lib.id_at(0)) == (
            next(p for p in paths if str(p) == sc.library.lookup_entry(lib.id_at(0)).path).read_bytes()
        )

    def test_load_scenario_missing_field(self, tmp_path):
        (tmp_path / "scen.json").write_text(json.dumps({"library": "x.json"}))
        with pytest.raises(MalformedFile):
            load_scenario(tmp_path / "scen.json")


class TestBudgetedOracle:
    def test_exhausts(self):
        oracle = _BudgetedOracle(lambda v: v, budget=2, name="embed")
        assert oracle(1) == 1 and oracle(2) == 2
        with pytest.raises(OracleBudgetExceeded):
            oracle(3)
        assert oracle.remaining == 0


class TestDetectionGame:
    def test_reproducible_byte_for_byte(self):
        sc = synthetic_scenario(T=8, N=3, world_size=16, seed=4, leak_fraction=0.5)
        a = run_game(sc, KCAMembership(), AttackLevel.KCA, trials=120, seed=5)
        b = run_game(sc, KCAMembership(), AttackLevel.KCA, trials=120, seed=5)
        assert json.dumps(asdict(a)) == json.dumps(asdict(b))

    def test_worker_partition_invariance(self):
        sc = synthetic_scenario(T=8, N=3, world_size=16, seed=4, leak_fraction=0.5)
        a = run_game(sc, KCAMembership(), AttackLevel.KCA, trials=200, seed=5, max_workers=1)
        b = run_game(sc, KCAMembership(), AttackLevel.KCA, trials=200, seed=5, max_workers=8)
        assert asdict(a) == asdict(b)

    def test_seed_changes_outcome_details(self):
        sc = synthetic_scenario(T=8, N=3, world_size=16, seed=4)
        a = run_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=150, seed=1)
        b = run_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=150, seed=2)
        assert (a.successes, a.stego_challenges) != (b.successes, b.stego_challenges)

    def test_trials_floor_enforced(self):
        sc = synthetic_scenario(T=6, N=2, world_size=12, seed=0)
        with pytest.raises(InvalidConfig):
            run_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=50, seed=0)

    def test_challenge_fairness(self):
        sc = synthetic_scenario(T=6, N=2, world_size=12, seed=0)
        res = run_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=1000, seed=3)
        se = math.sqrt(0.25 / res.trials)
        assert abs(res.stego_challenges / res.trials - 0.5) <= 3 * se

    def test_random_guesser_resists(self):
        sc = synthetic_scenario(T=6, N=2, world_size=12, seed=0)
        res = run_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=1000, seed=8)
        assert 0.45 <= res.success_rate <= 0.55
        assert res.verdict == VERDICT_RESISTS

    def test_full_leak_membership_breaks(self):
        sc = synthetic_scenario(
            T=12, N=4, world_size=36, disjoint_world=True, seed=6, leak_fraction=1.0
        )
        res = run_game(sc, KCAMembership(), AttackLevel.KCA, trials=300, seed=9)
        assert res.success_rate >= 0.99
        assert res.verdict == VERDICT_BROKEN
        assert res.p_value < 1e-20

    def test_membership_at_scoa_sees_no_leak(self):
        sc = synthetic_scenario(
            T=12, N=4, world_size=36, disjoint_world=True, seed=6, leak_fraction=1.0
        )
        res = run_game(sc, KCAMembership(), AttackLevel.SCOA, trials=300, seed=9)
        # without the leak every answer is "natural": exactly the natural count
        assert res.successes == res.trials - res.stego_challenges
        assert res.verdict == VERDICT_RESISTS

    def test_level_monotonicity_for_membership(self):
        sc = synthetic_scenario(
            T=12, N=4, world_size=36, disjoint_world=True, seed=6, leak_fraction=1.0
        )
        rates = {}
        for level in (AttackLevel.SCOA, AttackLevel.KCA, AttackLevel.CCA):
            rates[level] = run_game(sc, KCAMembership(), level, trials=200, seed=9).success_rate
        se = math.sqrt(0.25 / 200)
        assert rates[AttackLevel.KCA] >= rates[AttackLevel.SCOA] - 3 * se
        assert rates[AttackLevel.CCA] >= rates[AttackLevel.KCA] - 3 * se

    def test_cca_replay_breaks_without_leak(self):
        sc = synthetic_scenario(
            T=10, N=4, world_size=30, disjoint_world=True, seed=2,
            leak_fraction=0.0, observations=8,
        )
        res = run_game(sc, CCAReplay(), AttackLevel.CCA, trials=200, seed=4)
        assert res.verdict == VERDICT_BROKEN
        assert res.success_rate > 0.9

    def test_failing_adversary_scores_zero(self):
        sc = synthetic_scenario(T=6, N=2, world_size=12, seed=0)
        res = run_game(sc, FailingAdversary(), AttackLevel.SCOA, trials=120, seed=1)
        assert res.successes == 0
        assert res.verdict == VERDICT_RESISTS

    def test_oracle_budget_starves_replay(self):
        # with zero oracle budget and no observations or leak, the replay
        # adversary knows nothing and cannot beat the coin
        sc = synthetic_scenario(
            T=10, N=4, world_size=30, disjoint_world=True, seed=2,
            leak_fraction=0.0, observations=0,
            oracle_embed_budget=0, oracle_extract_budget=0,
        )
        res = run_game(sc, CCAReplay(), AttackLevel.CCA, trials=200, seed=4)
        assert res.verdict == VERDICT_RESISTS


class TestRecoveryGame:
    def test_keyless_agreement_near_half(self):
        sc = synthetic_scenario(T=6, N=4, world_size=18, seed=1)
        res = message_recovery_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=300, seed=7)
        assert res.kind == "recovery"
        assert 0.45 <= res.success_rate <= 0.55
        assert res.verdict == VERDICT_RESISTS

    def test_full_key_leak_is_ceiling(self):
        sc = synthetic_scenario(
            T=6, N=4, world_size=18, seed=1, leak_fraction=1.0, key_leak="full"
        )
        res = message_recovery_game(sc, KeyedRecovery(), AttackLevel.KCA, trials=150, seed=7)
        assert res.success_rate == 1.0
        assert res.verdict == VERDICT_BROKEN

    def test_flipped_key_bit_costs_exactly_one_bit(self):
        sc = synthetic_scenario(
            T=6, N=4, world_size=18, seed=1, leak_fraction=1.0, key_leak="flip1"
        )
        res = message_recovery_game(sc, KeyedRecovery(), AttackLevel.KCA, trials=150, seed=7)
        l = capacity(6, 4).l
        assert res.success_rate == pytest.approx((l - 1) / l)
        assert res.successes == res.sequences * (l - 1)

    def test_failing_recovery_scores_zero(self):
        sc = synthetic_scenario(T=6, N=4, world_size=18, seed=1)
        res = message_recovery_game(sc, FailingAdversary(), AttackLevel.SCOA, trials=120, seed=3)
        assert res.successes == 0


class TestAccaLoop:
    def test_random_guesser_never_breaks(self):
        sc = synthetic_scenario(T=8, N=3, world_size=16, seed=5, rounds=3)
        results = acca_loop(sc, RandomGuesser(), trials_per_round=150, seed=2)
        assert len(results) == 3
        assert all(r.verdict == VERDICT_RESISTS for r in results)
        assert [r.round_index for r in results] == [0, 1, 2]

    def test_growing_leak_breaks_eventually(self):
        sc = synthetic_scenario(
            T=16, N=4, world_size=48, disjoint_world=True, seed=5,
            leak_fraction=0.0, leak_growth=0.34, rounds=6,
        )
        results = acca_loop(sc, KCAMembership(), trials_per_round=150, seed=2)
        assert results[-1].verdict == VERDICT_BROKEN
        assert len(results) < 6  # early stop
        rates = [r.success_rate for r in results]
        assert rates[-1] > rates[0]

    def test_reproducible(self):
        sc = synthetic_scenario(T=8, N=3, world_size=16, seed=5, rounds=2)
        a = acca_loop(sc, KCAMembership(), trials_per_round=120, seed=2)
        b = acca_loop(sc, KCAMembership(), trials_per_round=120, seed=2)
        assert [asdict(r) for r in a] == [asdict(r) for r in b]


class TestRegistry:
    def test_known_names(self):
        for name in ("random", "kca-membership", "scoa-histogram", "cca-replay", "keyed-recovery"):
            assert make_adversary(name).name == name

    def test_unknown_name(self):
        with pytest.raises(InvalidConfig):
            make_adversary("oracle-of-delphi")

    def test_level_parse(self):
        assert AttackLevel.parse("kca") is AttackLevel.KCA
        assert AttackLevel.parse("ACCA") is AttackLevel.ACCA
        with pytest.raises(InvalidConfig):
            AttackLevel.parse("quantum")
        assert AttackLevel.SCOA < AttackLevel.KCA < AttackLevel.CCA < AttackLevel.ACCA


class TestSCOAHistogram:
    def test_matched_world_stays_at_chance(self):
        sc = synthetic_scenario(T=8, N=3, world_size=40, seed=11, observations=4)
        res = run_game(sc, SCOAHistogram(), AttackLevel.SCOA, trials=120, seed=13)
        se = math.sqrt(0.25 / res.trials)
        assert abs(res.success_rate - 0.5) <= 4 * se
        assert res.verdict == VERDICT_RESISTS


GOLDEN_FIELDS = (
    "level", "kind", "trials", "successes", "success_rate", "p_value", "alpha",
    "verdict", "seed", "stego_challenges", "sequences", "round_index",
)

# asdict(GameResult) of every case below, as rows of GOLDEN_FIELDS values.
# Any change to seed paths, draw order or scoring shows up here.
GOLDEN = {
    'detection/random-scoa': [
        ('SCOA', 'detection', 100, 61, 0.61, 0.017600100108852428, 0.01, 'resists', 7, 51, None, None),
    ],
    'detection/membership-kca': [
        ('KCA', 'detection', 100, 53, 0.53, 0.3086497067946262, 0.01, 'resists', 7, 51, None, None),
    ],
    'detection/membership-acca-level': [
        ('ACCA', 'detection', 100, 41, 0.41, 0.9715560331795096, 0.01, 'resists', 8, 60, None, None),
    ],
    'detection/histogram-scoa': [
        ('SCOA', 'detection', 100, 45, 0.45, 0.8643734879630823, 0.01, 'resists', 9, 51, None, None),
    ],
    'detection/replay-cca': [
        ('CCA', 'detection', 100, 99, 0.99, 7.967495142732219e-29, 0.01, 'broken', 4, 49, None, None),
    ],
    'detection/keyed-kca': [
        ('KCA', 'detection', 100, 99, 0.99, 7.967495142732219e-29, 0.01, 'broken', 5, 61, None, None),
    ],
    'detection/flaky-cca': [
        ('CCA', 'detection', 100, 22, 0.22, 0.9999999978313167, 0.01, 'resists', 6, 55, None, None),
    ],
    'detection/failing-scoa': [
        ('SCOA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 1, 56, None, None),
    ],
    'recovery/random-scoa': [
        ('SCOA', 'recovery', 800, 390, 0.4875, 0.7710857501621271, 0.01, 'resists', 7, None, 100, None),
    ],
    'recovery/membership-kca': [
        ('KCA', 'recovery', 800, 390, 0.4875, 0.7710857501621271, 0.01, 'resists', 7, None, 100, None),
    ],
    'recovery/histogram-scoa': [
        ('SCOA', 'recovery', 800, 403, 0.50375, 0.4298489168642772, 0.01, 'resists', 9, None, 100, None),
    ],
    'recovery/replay-cca': [
        ('CCA', 'recovery', 1200, 598, 0.49833333333333335, 0.5573791631549593, 0.01, 'resists', 4, None, 100, None),
    ],
    'recovery/keyed-full': [
        ('KCA', 'recovery', 800, 800, 1.0, 1.499696813895631e-241, 0.01, 'broken', 7, None, 100, None),
    ],
    'recovery/keyed-flip1': [
        ('KCA', 'recovery', 800, 700, 0.875, 5.964990537578589e-112, 0.01, 'broken', 7, None, 100, None),
    ],
    'recovery/keyed-no-key': [
        ('KCA', 'recovery', 800, 0, 0.0, 1.0, 0.01, 'resists', 3, None, 100, None),
    ],
    'recovery/flaky-cca': [
        ('CCA', 'recovery', 1200, 83, 0.06916666666666667, 1.0, 0.01, 'resists', 6, None, 100, None),
    ],
    'recovery/failing-scoa': [
        ('SCOA', 'recovery', 800, 0, 0.0, 1.0, 0.01, 'resists', 3, None, 100, None),
    ],
    'acca/membership-growing': [
        ('ACCA', 'detection', 100, 54, 0.54, 0.24205920680364573, 0.01, 'resists', 2, 46, None, 0),
        ('ACCA', 'detection', 100, 55, 0.55, 0.18410080866334808, 0.01, 'resists', 2, 45, None, 1),
        ('ACCA', 'detection', 100, 59, 0.59, 0.04431304005703379, 0.01, 'resists', 2, 41, None, 2),
        ('ACCA', 'detection', 100, 100, 1.0, 7.888609052210118e-31, 0.01, 'broken', 2, 52, None, 3),
    ],
    'acca/replay': [
        ('ACCA', 'detection', 100, 81, 0.81, 1.3513812610243942e-10, 0.01, 'broken', 3, 47, None, 0),
    ],
    'acca/flaky': [
        ('ACCA', 'detection', 100, 38, 0.38, 0.9939835121373183, 0.01, 'resists', 18, 45, None, 0),
        ('ACCA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 18, 53, None, 1),
        ('ACCA', 'detection', 100, 49, 0.49, 0.6178232827986663, 0.01, 'resists', 18, 56, None, 2),
        ('ACCA', 'detection', 100, 50, 0.5, 0.5397946186935889, 0.01, 'resists', 18, 58, None, 3),
    ],
    'acca/flaky-first-round': [
        ('ACCA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 13, 57, None, 0),
        ('ACCA', 'detection', 100, 45, 0.45, 0.8643734879630823, 0.01, 'resists', 13, 49, None, 1),
        ('ACCA', 'detection', 100, 43, 0.43, 0.9333946903963932, 0.01, 'resists', 13, 51, None, 2),
        ('ACCA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 13, 37, None, 3),
    ],
    'acca/random': [
        ('ACCA', 'detection', 100, 45, 0.45, 0.8643734879630823, 0.01, 'resists', 2, 46, None, 0),
        ('ACCA', 'detection', 100, 57, 0.57, 0.09667395224782122, 0.01, 'resists', 2, 45, None, 1),
        ('ACCA', 'detection', 100, 47, 0.47, 0.7579407931963542, 0.01, 'resists', 2, 41, None, 2),
    ],
    'acca/failing': [
        ('ACCA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 1, 47, None, 0),
        ('ACCA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 1, 47, None, 1),
    ],
}


def _golden_cases():
    small = synthetic_scenario(T=8, N=3, world_size=16, seed=4, leak_fraction=0.5, observations=2)
    disjoint = synthetic_scenario(
        T=10, N=4, world_size=30, disjoint_world=True, seed=2, leak_fraction=0.3,
        observations=4, oracle_embed_budget=6, oracle_extract_budget=2,
    )
    keyed = synthetic_scenario(T=6, N=4, world_size=18, seed=1, leak_fraction=1.0, key_leak="full")
    flip = synthetic_scenario(T=6, N=4, world_size=18, seed=1, leak_fraction=1.0, key_leak="flip1")
    growing = synthetic_scenario(
        T=16, N=4, world_size=48, disjoint_world=True, seed=5,
        leak_fraction=0.0, leak_growth=0.34, rounds=6,
    )
    rounds = synthetic_scenario(T=8, N=3, world_size=16, seed=5, rounds=4, observations=2)
    hist = lambda: SCOAHistogram(model_sample=8, null_draws=8)  # noqa: E731
    S, K, C, A = AttackLevel.SCOA, AttackLevel.KCA, AttackLevel.CCA, AttackLevel.ACCA
    detection = [
        ("random-scoa", small, RandomGuesser(), S, 7),
        ("membership-kca", small, KCAMembership(), K, 7),
        ("membership-acca-level", small, KCAMembership(), A, 8),
        ("histogram-scoa", small, hist(), S, 9),
        ("replay-cca", disjoint, CCAReplay(oracle_calls=3), C, 4),
        ("keyed-kca", keyed, KeyedRecovery(), K, 5),
        ("flaky-cca", disjoint, FlakyAdversary(), C, 6),
        ("failing-scoa", small, FailingAdversary(), S, 1),
    ]
    for name, sc, adv, level, seed in detection:
        yield "detection/" + name, [run_game(sc, adv, level, trials=100, seed=seed)]
    recovery = [
        ("random-scoa", small, RandomGuesser(), S, 7),
        ("membership-kca", small, KCAMembership(), K, 7),
        ("histogram-scoa", small, hist(), S, 9),
        ("replay-cca", disjoint, CCAReplay(oracle_calls=3), C, 4),
        ("keyed-full", keyed, KeyedRecovery(), K, 7),
        ("keyed-flip1", flip, KeyedRecovery(), K, 7),
        ("keyed-no-key", small, KeyedRecovery(), K, 3),
        ("flaky-cca", disjoint, FlakyAdversary(), C, 6),
        ("failing-scoa", small, FailingAdversary(), S, 3),
    ]
    for name, sc, adv, level, seed in recovery:
        yield "recovery/" + name, [message_recovery_game(sc, adv, level, trials=100, seed=seed)]
    adaptive = [
        ("membership-growing", growing, KCAMembership(), None, 2),
        ("replay", rounds, CCAReplay(oracle_calls=2), 2, 3),
        ("flaky", rounds, FlakyAdversary(), None, 18),
        ("flaky-first-round", rounds, FlakyAdversary(), None, 13),
        ("random", rounds, RandomGuesser(), 3, 2),
        ("failing", rounds, FailingAdversary(), 2, 1),
    ]
    for name, sc, adv, n_rounds, seed in adaptive:
        yield "acca/" + name, acca_loop(sc, adv, trials_per_round=100, seed=seed, rounds=n_rounds)


def test_golden_game_results():
    """Seeded results of all three games are pinned field for field: every
    reference adversary, every level, failed learns (including a failed ACCA
    round that keeps the previous state) and failed guesses and recovers."""
    got = {name: [asdict(r) for r in results] for name, results in _golden_cases()}
    assert list(got) == list(GOLDEN)
    for name, rows in GOLDEN.items():
        assert got[name] == [dict(zip(GOLDEN_FIELDS, row)) for row in rows], name
