import inspect
import itertools
import json
import math
import random
import traceback
from collections import Counter
from dataclasses import asdict, replace
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    OneCoverLibrary,
    bits_of,
    cca_replay_reference,
    kca_membership_reference,
    leak_reference,
    observations_reference,
    payload_bits_reference,
)
from stegogame import permcodec
from stegogame.attackgame import (
    ADVERSARIES,
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
from stegogame.attackgame import adversaries, game
from stegogame.attackgame.game import Challenge, _BudgetedOracle
from stegogame.attackgame.scenario import MAX_OBSERVATIONS, Scenario
from stegogame.divergence import EmpiricalDistribution, js
from stegogame.errors import (
    CoverReadError,
    EmptySamples,
    InvalidConfig,
    MalformedFile,
    NotInLibrary,
    OracleBudgetExceeded,
    StegogameError,
    UnreachableArrangement,
)
from stegogame.library import build_library, save_manifest
from stegogame.permcodec import capacity
from stegogame.stego import Message, StegoSequence, embed, keygen


# Variants of the reference presets, each one more class that overrides the
# attributes it reads: the presets take no constructor arguments.
class _Hist8(SCOAHistogram):
    model_sample = null_draws = 8


class _Replay3(CCAReplay):
    oracle_calls = 3


class _Replay2(CCAReplay):
    oracle_calls = 2


class FailingAdversary:
    name = "failing"

    def learn(self, knowledge, state=None):
        return None

    def guess(self, challenge, state):
        raise RuntimeError("boom")

    def recover(self, sequence, state):
        raise RuntimeError("boom")


class FlakyAdversary:
    """Learn fails on about half its phases; recover answers with a payload
    one bit too wide, with a bitstring, or with a real guess, by turns of
    its rng."""

    name = "flaky"

    def learn(self, knowledge, state=None):
        if knowledge.rng.integers(0, 2):
            raise RuntimeError("learn failed")
        if knowledge.embed_oracle is not None:
            value = (1 << knowledge.payload_bits) - 1
            assert knowledge.extract_oracle(knowledge.embed_oracle(value)) == value
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
            return 1 << l
        if kind == 1:
            return "1" * l
        return int(knowledge.rng.integers(0, 1 << l))


class LateReader:
    """Reads the observations only when guessing or recovering, and carries
    on whatever the read raises."""

    name = "late-reader"

    def learn(self, knowledge, state=None):
        return knowledge

    def _read(self, knowledge):
        try:
            return len(knowledge.observed)
        except Exception:
            return 0

    def guess(self, challenge, state):
        return "stego" if self._read(state) else "natural"

    def recover(self, sequence, state):
        return 0 if self._read(state) else (1 << state.payload_bits) - 1


class ScriptedRecovery:
    """Answers every recovery with one fixed guess."""

    name = "scripted"

    def __init__(self, guess: str):
        self.guess = guess

    def recover(self, sequence, state):
        return self.guess


class ScriptedDetection:
    """Answers every detection challenge with one fixed answer."""

    name = "scripted-detection"

    def __init__(self, answer):
        self.answer = answer

    def learn(self, knowledge, state=None):
        return None

    def guess(self, challenge, state):
        return self.answer


class Incomparable:
    """An answer whose comparison with a label raises."""

    __hash__ = None

    def __eq__(self, other):
        raise ValueError("cannot compare")


# Not an int in [0, 2**15): what the embed oracle refuses and a recovery scores 0 for.
BAD_PAYLOADS = pytest.mark.parametrize(
    "payload", [True, False, np.int64(3), -1, 1 << 15, "010101010101010", 3.0, None],
    ids=["true", "false", "numpy-int", "negative", "2**l", "bitstring", "float", "none"],
)


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
        cid = sc.library.ids()[0]
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
        for bad in (dict(T=-1), dict(world_size=-1, disjoint_world=True), dict(cover_size=0),
                    dict(seed=-1), dict(seed=2**128)):
            with pytest.raises(InvalidConfig, match=next(iter(bad))):
                synthetic_scenario(**{"T": 4, "N": 2, "world_size": 8, **bad})

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
        assert sc.content_for(lib.ids()[0]) == (
            next(p for p in paths if str(p) == sc.library.lookup_entry(lib.ids()[0]).path).read_bytes()
        )

    def test_load_scenario_missing_field(self, tmp_path):
        (tmp_path / "scen.json").write_text(json.dumps({"library": "x.json"}))
        with pytest.raises(MalformedFile):
            load_scenario(tmp_path / "scen.json")

    @pytest.mark.parametrize("key", ["leak_fracton", "content_map", "world"])
    def test_unknown_field_refused(self, tmp_path, make_covers, key):
        paths = make_covers(6)
        save_manifest(build_library(paths[:3]), tmp_path / "lib.json")
        save_manifest(build_library(paths), tmp_path / "world.json")
        doc = {"library": "lib.json", "world_pool": "world.json", "N": 2, key: 1.0}
        (tmp_path / "scen.json").write_text(json.dumps(doc))
        with pytest.raises(MalformedFile, match=f"unknown scenario field '{key}'"):
            load_scenario(tmp_path / "scen.json")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("N", "2"), ("N", True), ("N", 2.0), ("rounds", None), ("rounds", 2.5),
            ("rounds", True), ("oracle_embed_budget", "5"), ("oracle_extract_budget", 1.0),
            ("observations", 1.5), ("observations", True), ("leak_fraction", True),
            ("leak_fraction", "0.5"), ("leak_fraction", math.nan), ("leak_growth", math.inf),
            ("leak_growth", math.nan), ("leak_growth", None), ("leak_growth", False),
        ],
    )
    def test_wrong_field_types_refused(self, field, value):
        kwargs = {"T": 4, "N": 2, "world_size": 8, "seed": 0, field: value}
        with pytest.raises(InvalidConfig, match=field):
            synthetic_scenario(**kwargs)

    def test_int_and_float_reals_accepted(self):
        sc = synthetic_scenario(T=4, N=2, world_size=8, seed=0, leak_fraction=1, leak_growth=0)
        assert sc.leak_size(0) == 4 and sc.leak_size(3) == 4

    @pytest.mark.parametrize("growth", [1.5, 1e308, 10**400])
    def test_large_leak_growth_leaks_everything(self, growth):
        sc = synthetic_scenario(T=10, N=2, world_size=20, seed=3, leak_fraction=0.2,
                                leak_growth=growth)
        assert [sc.leak_size(r) for r in range(3)] == [2, 10, 10]

    @pytest.mark.parametrize("field", ["library", "world_pool"])
    @pytest.mark.parametrize("value", [5, None, ["lib.json"], {"path": "lib.json"}])
    def test_non_string_manifest_path_refused(self, tmp_path, make_covers, field, value):
        save_manifest(build_library(make_covers(4)), tmp_path / "lib.json")
        doc = {"library": "lib.json", "world_pool": "lib.json", "N": 2, field: value}
        (tmp_path / "scen.json").write_text(json.dumps(doc))
        with pytest.raises(MalformedFile, match="manifest paths"):
            load_scenario(tmp_path / "scen.json")

    @pytest.mark.parametrize("field", ["library", "world_pool"])
    def test_unreadable_manifest_refused(self, tmp_path, make_covers, field):
        save_manifest(build_library(make_covers(4)), tmp_path / "lib.json")
        (tmp_path / "bytes.bin").write_bytes(b"\xff\xfe{")
        for bad in ("bytes.bin", "nul\x00.json", ""):
            doc = {"library": "lib.json", "world_pool": "lib.json", "N": 2, field: bad}
            (tmp_path / "scen.json").write_text(json.dumps(doc))
            with pytest.raises(StegogameError):
                load_scenario(tmp_path / "scen.json")

    @pytest.mark.parametrize("observations", [MAX_OBSERVATIONS + 1, 10**15])
    def test_observations_bounded(self, tmp_path, make_covers, observations):
        """An observation count over the limit is refused when the scenario
        loads, naming the limit, before any game draws a payload; the limit
        itself loads."""
        save_manifest(build_library(make_covers(6)), tmp_path / "lib.json")
        doc = {"library": "lib.json", "world_pool": "lib.json", "N": 2}
        (tmp_path / "scen.json").write_text(json.dumps({**doc, "observations": observations}))
        with pytest.raises(InvalidConfig, match=f"observations must be at most {MAX_OBSERVATIONS}, got"):
            load_scenario(tmp_path / "scen.json")
        (tmp_path / "scen.json").write_text(json.dumps({**doc, "observations": MAX_OBSERVATIONS}))
        assert load_scenario(tmp_path / "scen.json").observations == MAX_OBSERVATIONS

    def test_undecodable_scenario_refused(self, tmp_path):
        (tmp_path / "scen.json").write_bytes(b"\xff\xfe{}")
        with pytest.raises(MalformedFile, match="not UTF-8 text"):
            load_scenario(tmp_path / "scen.json")


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
_manifest_field = st.sampled_from(["lib.json", "world.json"]) | _json_values
_scenario_docs = st.fixed_dictionaries(
    {},
    optional={
        "library": _manifest_field,
        "world_pool": _manifest_field,
        "N": st.integers(1, 4) | _json_values,
        "leak_fraction": st.floats(0, 1) | _json_values,
        "leak_growth": st.floats(0, 2) | _json_values,
        "oracle_embed_budget": st.integers(0, 8) | _json_values,
        "oracle_extract_budget": st.integers(0, 8) | _json_values,
        "rounds": st.integers(1, 4) | _json_values,
        "observations": st.integers(0, 4) | _json_values,
        "key_leak": st.sampled_from([None, "full", "flip1"]) | _json_values,
    },
)


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenario-fuzz")
    covers = []
    for i in range(12):
        covers.append(root / f"c{i}.bin")
        covers[-1].write_bytes(f"fuzz cover {i}".encode())
    save_manifest(build_library(covers[:4]), root / "lib.json")
    save_manifest(build_library(covers[4:]), root / "world.json")
    return root


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_scenario_docs)
def test_scenario_parser_fuzz(manifest_dir, doc):
    """Whatever JSON values the fields hold, the parser either returns a
    scenario whose leak schedule stays in [0, T] or raises a domain error."""
    path = manifest_dir / "scen.json"
    path.write_text(json.dumps(doc))
    try:
        sc = load_scenario(path)
    except StegogameError:
        return
    assert all(0 <= sc.leak_size(r) <= sc.library.T for r in range(3))


class TestBudgetedOracle:
    def test_exhausts(self):
        oracle = _BudgetedOracle(lambda v: v, budget=2, name="embed")
        assert oracle(1) == 1 and oracle(2) == 2
        with pytest.raises(OracleBudgetExceeded):
            oracle(3)
        assert oracle.remaining == 0

    def test_closed_refuses_within_budget(self):
        oracle = _BudgetedOracle(lambda v: v, budget=2, name="extract")
        oracle.close()
        with pytest.raises(OracleBudgetExceeded, match="closed after learning"):
            oracle(1)
        assert oracle.remaining == 2


class ChallengeDecrypter:
    """Keeps the extract oracle from learning and decodes the challenge with
    it, which the CCA game forbids: a stego challenge decodes, a natural
    draw from outside the library does not."""

    name = "challenge-decrypter"

    def learn(self, knowledge, state=None):
        return {"extract": knowledge.extract_oracle}

    def guess(self, challenge, state):
        try:
            state["extract"](StegoSequence(ids=challenge.ids))
        except (NotInLibrary, UnreachableArrangement):
            return "natural"
        return "stego"

    def recover(self, sequence, state):
        return state["extract"](sequence)


class TestDetectionGame:
    def test_oracles_closed_after_learning(self):
        """A call to an oracle from ``guess`` or ``recover`` raises and
        scores as a miss, so decoding the challenge buys nothing."""
        sc = synthetic_scenario(16, 4, seed=5)
        res = run_game(sc, ChallengeDecrypter(), AttackLevel.CCA, trials=200, seed=1)
        assert (res.successes, res.verdict) == (0, VERDICT_RESISTS)
        res = message_recovery_game(sc, ChallengeDecrypter(), AttackLevel.CCA, trials=100, seed=1)
        assert (res.successes, res.verdict) == (0, VERDICT_RESISTS)
        (res,) = acca_loop(sc, ChallengeDecrypter(), trials_per_round=100, seed=1, rounds=1)
        assert (res.successes, res.verdict) == (0, VERDICT_RESISTS)

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

    @pytest.mark.parametrize("answer", [np.array(["stego", "natural"]), Incomparable(), mock.ANY],
                             ids=["array", "raising-eq", "equal-to-all"])
    def test_malformed_guess_scores_zero(self, answer):
        """An answer that is not a str scores 0, as a guess that raises does,
        in both detection games, also one whose == claims every label;
        answering "stego" scores every stego challenge."""
        sc = synthetic_scenario(T=6, N=2, world_size=12, seed=0)
        assert run_game(sc, ScriptedDetection(answer), AttackLevel.SCOA, trials=120, seed=1).successes == 0
        results = acca_loop(sc, ScriptedDetection(answer), trials_per_round=120, seed=1, rounds=2)
        assert [r.successes for r in results] == [0, 0]
        res = run_game(sc, ScriptedDetection("stego"), AttackLevel.SCOA, trials=120, seed=1)
        assert res.successes == res.stego_challenges > 0

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

    def test_capacity_product_once_per_shape(self, monkeypatch):
        """Over a 1600-sequence game (1,600 embeds, one per challenge) the
        falling factorial behind capacity runs at most once per distinct
        (T, N)."""
        products: Counter = Counter()
        perm = permcodec.perm

        def counting_perm(T, N):
            products[(T, N)] += 1
            return perm(T, N)

        permcodec._capacity.cache_clear()
        monkeypatch.setattr(permcodec, "perm", counting_perm)
        sc = synthetic_scenario(T=16, N=4, seed=3)
        res = message_recovery_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=1600, seed=7)
        assert res.sequences == 1600
        assert products == {(16, 4): 1}

    @pytest.mark.parametrize(
        "adversary, embeds",
        [(RandomGuesser(), 1600), (CCAReplay(), 1600 * 17)],
        ids=["random", "cca-replay"],
    )
    def test_observations_embedded_only_when_read(self, monkeypatch, adversary, embeds):
        """Each sequence costs one challenge embed; the 16 observations of
        its learning phase are embedded only for an adversary that reads
        them.  Built eagerly, both games made 27,200 embeds."""
        calls = Counter()
        monkeypatch.setattr(game, "_codec", _wrapping_embed(game._codec, lambda: calls.update(["embed"])))
        sc = synthetic_scenario(T=16, N=4, seed=3)
        assert sc.observations == 16
        res = message_recovery_game(sc, adversary, AttackLevel.SCOA, trials=1600, seed=7)
        assert res.sequences == 1600
        assert calls["embed"] == embeds

    @pytest.mark.parametrize("T, N", [(16, 4), (2, 1), (1, 1)])
    def test_score_counts_agreeing_bits(self, T, N):
        """The XOR popcount score equals a per-character count of agreeing
        bits, for random, equal, complementary and constant guesses, and at
        l = 0, where the only payload is 0."""
        sc = (
            SimpleNamespace(library=OneCoverLibrary(), N=1)
            if T == 1
            else synthetic_scenario(T=T, N=N, world_size=16, seed=2)
        )
        l = capacity(T, N).l
        rng = np.random.default_rng(4)
        codec = game._codec(sc.library, sc.N, game._random_values(rng, l, 1)[0])
        mask = (1 << l) - 1
        guesses = [
            lambda truth: truth,
            lambda truth: truth ^ mask,
            lambda truth: 0,
            lambda truth: mask,
            lambda truth: game._random_values(rng, l, 1)[0],
        ]
        for draw, guess_of in itertools.product(range(8), guesses):
            harness, twin = (np.random.Generator(np.random.Philox(key=draw)) for _ in range(2))
            (truth,) = game._random_values(twin, l, 1)
            guess = guess_of(truth)
            points, stego = game._score_recovery(sc, codec, ScriptedRecovery(guess), harness, None)
            assert stego
            assert points == sum(a == b for a, b in zip(bits_of(guess, l), bits_of(truth, l)))

    @BAD_PAYLOADS
    def test_malformed_guess_scores_zero(self, payload):
        """A recovered value that is not an int in [0, 2**l) scores 0 bits,
        as a malformed bitstring did; a plain int in range scores."""
        sc = synthetic_scenario(T=16, N=4, seed=3)
        codec = game._codec(sc.library, sc.N, 12345)
        harness = np.random.Generator(np.random.Philox(key=1))
        assert game._score_recovery(sc, codec, ScriptedRecovery(payload), harness, None) == (0, True)
        harness = np.random.Generator(np.random.Philox(key=1))
        (truth,) = game._random_values(np.random.Generator(np.random.Philox(key=1)), 15, 1)
        assert game._score_recovery(sc, codec, ScriptedRecovery(truth), harness, None) == (15, True)


class _Keep:
    """Learns the Knowledge it is handed, so that a test can read one learning phase."""

    def learn(self, knowledge, state=None):
        return knowledge


def knowledge_of(sc, level, codec, rng, key=0, trial=0, leaked=()):
    """The Knowledge that ``game._learning`` hands an adversary in the learning phase
    of ``(key, trial)``, its oracles opened again for the test's own calls."""
    knowledge = game._learning(sc, level, codec, leaked, [], _Keep())(key, trial, rng, None)
    for oracle in (knowledge.embed_oracle, knowledge.extract_oracle):
        if oracle is not None:
            assert oracle.closed  # the phase is over
            oracle.closed = False
    return knowledge


def _wrapping_embed(make_codec, before):
    """``game._codec`` whose embed direction calls ``before()`` first."""

    def codec(*args):
        inner = make_codec(*args)

        def embed_value(value):
            before()
            return inner.embed(value)

        return inner._replace(embed=embed_value)

    return codec


@BAD_PAYLOADS
def test_embed_oracle_refuses_a_payload_outside_the_codec(payload):
    """The embed oracle takes an int in [0, 2**l) and refuses anything else
    with a typed error, where a bool or numpy int would have embedded."""
    sc = synthetic_scenario(T=16, N=4, seed=3)
    codec = game._codec(sc.library, sc.N, 12345)
    gen = np.random.default_rng(0)
    knowledge = knowledge_of(sc, AttackLevel.CCA, codec, gen)
    with pytest.raises(StegogameError, match="payload must be an int"):
        knowledge.embed_oracle(payload)
    assert knowledge.embed_oracle((1 << 15) - 1) == codec.embed((1 << 15) - 1)


class OracleAsker:
    """Asks the embed oracle for one fixed payload while learning, then
    labels every challenge stego."""

    name = "oracle-asker"

    def __init__(self, payload):
        self.payload = payload

    def learn(self, knowledge, state=None):
        return knowledge.embed_oracle(self.payload)

    def guess(self, challenge, state):
        return "stego"


@BAD_PAYLOADS
def test_refused_oracle_payload_is_the_adversarys_miss(payload):
    """A refused payload fails the learn, which scores as a miss: the game
    plays on instead of raising a harness fault."""
    sc = synthetic_scenario(T=16, N=4, seed=3)
    res = run_game(sc, OracleAsker(payload), AttackLevel.CCA, trials=100, seed=2)
    assert res.successes == 0 and res.verdict == VERDICT_RESISTS
    res = run_game(sc, OracleAsker(7), AttackLevel.CCA, trials=100, seed=2)
    assert res.successes == res.stego_challenges > 0


@pytest.mark.parametrize("leak, expected", [(None, None), ("full", 0b0101), ("flip1", 0b1101)])
def test_leaked_key_is_an_int(leak, expected):
    """The leaked key is the session key as an int, with its first (most
    significant) bit flipped under "flip1", the bit that the earlier
    bitstring's first character held."""
    sc = synthetic_scenario(T=6, N=2, world_size=12, seed=0, key_leak=leak)
    assert capacity(6, 2).l == 4
    codec = game._codec(sc.library, sc.N, 0b0101)
    assert game._leaked_key(sc, codec) == expected


def _one_cover_scenario(**kwargs) -> Scenario:
    """T = N = 1, where the payload is 0 bits wide."""
    world = synthetic_scenario(T=4, N=1, world_size=8, seed=1)
    return Scenario(library=OneCoverLibrary(), world=world.world, N=1,
                    content_map=world.content_map, **kwargs)


def test_zero_bit_games():
    """At l = 0 the only payload is 0: the oracle embeds it and refuses 1,
    detection plays (the one library cover against a world draw), a leaked
    key is 0 either way, and the recovery game, with no bits to score, is
    refused with a typed error."""
    for leak in ("full", "flip1"):
        sc = _one_cover_scenario(key_leak=leak, leak_fraction=1.0)
        codec = game._codec(sc.library, sc.N, 0)
        gen = np.random.default_rng(0)
        knowledge = knowledge_of(sc, AttackLevel.CCA, codec, gen)
        assert knowledge.leaked_key == 0 and knowledge.payload_bits == 0
        assert knowledge.embed_oracle(0).ids == (OneCoverLibrary.cid,)
        assert knowledge.extract_oracle(StegoSequence(ids=(OneCoverLibrary.cid,))) == 0
        with pytest.raises(StegogameError, match="payload must be an int"):
            knowledge.embed_oracle(1)
    sc = _one_cover_scenario(leak_fraction=1.0)
    res = run_game(sc, KCAMembership(), AttackLevel.KCA, trials=100, seed=3)
    assert res.successes == 100 and res.verdict == VERDICT_BROKEN
    assert run_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=100, seed=3).verdict == VERDICT_RESISTS
    (res,) = acca_loop(sc, CCAReplay(), trials_per_round=100, seed=3, rounds=1)
    assert res.verdict == VERDICT_BROKEN
    with pytest.raises(InvalidConfig, match="no payload bits to recover"):
        message_recovery_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=100, seed=3)


L_VALUES = [0, 1, 15, 64, 65, 127]


@pytest.mark.parametrize("count", [0, 1, 16, 32])
@pytest.mark.parametrize("l", L_VALUES)
def test_random_values_one_call_matches_single_calls(l, count):
    """One call for k payloads gives the values of, and leaves the stream
    where, k calls for one payload do, also after an earlier draw that left
    half a word in the generator's 32-bit buffer.  Every value is a plain
    int in [0, 2**l)."""
    batched, single = (np.random.Generator(np.random.Philox(key=21)) for _ in range(2))
    batched.integers(0, 2, size=5)
    single.integers(0, 2, size=5)
    values = game._random_values(batched, l, count)
    assert values == [v for _ in range(count) for v in game._random_values(single, l, 1)]
    assert all(type(v) is int and 0 <= v < 1 << l for v in values)
    assert repr(batched.bit_generator.state) == repr(single.bit_generator.state)
    assert batched.integers(0, 2**62, size=3).tolist() == single.integers(0, 2**62, size=3).tolist()


@pytest.mark.parametrize("l", L_VALUES)
def test_random_values_are_the_top_bits_of_raw_words(l):
    """Each payload is the first l binary digits of its ceil(l / 64) raw
    words, built here as a string; l = 0 draws nothing."""
    gen, ref = (np.random.Generator(np.random.Philox(key=7)) for _ in range(2))
    expected = [int(payload_bits_reference(ref, l) or "0", 2) for _ in range(40)]
    assert game._random_values(gen, l, 40) == expected
    assert repr(gen.bit_generator.state) == repr(ref.bit_generator.state)
    if l == 0:
        assert repr(gen.bit_generator.state) == repr(np.random.Philox(key=7).state)


def test_random_values_bits_are_fair():
    """At l = 127 every bit position is set in half of 8,000 payloads,
    within 5 standard errors (a bit taken from the wrong end of a word, or
    left at 0, misses by 89)."""
    values = game._random_values(np.random.Generator(np.random.Philox(key=31)), 127, 8000)
    ones = [sum(v >> i & 1 for v in values) for i in range(127)]
    assert max(abs(k - 4000) for k in ones) <= 5 * math.sqrt(8000 / 4)


def test_random_values_uniform_over_16_cells():
    """At l = 4 the 16 payload values are uniform (chi-square, 16,000 draws)."""
    from scipy.stats import chisquare

    values = game._random_values(np.random.Generator(np.random.Philox(key=32)), 4, 16_000)
    counts = np.bincount(values, minlength=16)
    assert counts.size == 16
    assert chisquare(counts).pvalue >= 0.01


def test_observed_matches_eager_oracle():
    """Observations drawn and embedded on first read are the tuple an eager
    build gives, in the same order, and later reads return the cached
    tuple; the harness stream that skipped their words stands where the
    eager draw left it."""
    sc = synthetic_scenario(T=8, N=3, world_size=16, seed=4, observations=5)
    session_key = keygen(capacity(8, 3).l, random.Random(11))
    codec = game._codec(sc.library, sc.N, session_key.value)
    # the harness stream of trial 3 after its learning phase: the observations' words skipped
    lazy = game._stream(5, skip=5)(3)
    eager = np.random.Generator(np.random.Philox(key=5, counter=3 << 128))
    knowledge = knowledge_of(sc, AttackLevel.CCA, codec, np.random.default_rng(0), key=5, trial=3)
    expected = observations_reference(sc, session_key, eager)
    assert repr(lazy.bit_generator.state) == repr(eager.bit_generator.state)
    observed = knowledge.observed
    assert type(observed) is tuple and len(observed) == 5
    assert observed == expected
    assert knowledge.observed is observed


def _live_state(gen) -> str:
    """A Philox's state less the buffered words already read, which no later
    draw can see."""
    state = gen.bit_generator.state
    pos = state["buffer_pos"]
    return repr({**state, "buffer": [None] * pos + state["buffer"].tolist()[pos:]})


@pytest.mark.parametrize("l", [15, 127])
@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 16, 17, 63])
def test_skip_stands_where_the_observations_draw_leaves(count, l):
    """A harness stream that skips ``count`` observations by the counter is
    where drawing them leaves it, one raw word per payload at l = 15 and two
    at l = 127, and draws what it would next."""
    key, trial = game._derive_key(3, "game", "harness"), 7
    skipped = game._stream(key, count * -(-l // 64))(trial)
    drawn = np.random.Generator(np.random.Philox(key=key, counter=trial << 128))
    game._random_values(drawn, l, count)
    assert _live_state(skipped) == _live_state(drawn)
    assert skipped.bit_generator.random_raw(9).tolist() == drawn.bit_generator.random_raw(9).tolist()
    assert skipped.integers(0, 2**40, size=5).tolist() == drawn.integers(0, 2**40, size=5).tolist()


def test_unread_observations_are_never_drawn(monkeypatch):
    """A recovery game whose adversary never reads ``observed`` draws no
    observation payload, even at ``MAX_OBSERVATIONS`` per learning phase:
    each trial draws one challenge payload and one guess."""
    counts = []
    real = game._random_values
    monkeypatch.setattr(game, "_random_values", lambda gen, l, count: counts.append(count) or real(gen, l, count))
    monkeypatch.setattr(adversaries, "_random_values", game._random_values)
    sc = synthetic_scenario(T=16, N=4, seed=12345, observations=MAX_OBSERVATIONS)
    res = message_recovery_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=100, seed=99)
    assert res.sequences == 100
    assert counts == [1] * 200


def test_harness_built_records_behave_as_public_ones():
    """A sequence from the int codec and a learning phase's Knowledge, built
    without ``__init__``, compare, hash and print as publicly built ones
    with the same fields, and stay frozen."""
    from dataclasses import FrozenInstanceError, fields

    sc = synthetic_scenario(T=16, N=4, seed=3, observations=2)
    codec = game._codec(sc.library, sc.N, 12345)
    seq = codec.embed(777)
    public = StegoSequence(ids=list(seq.ids))
    assert type(seq.ids) is tuple and seq == public and hash(seq) == hash(public)
    assert repr(seq) == repr(public) and seq != StegoSequence(ids=seq.ids[::-1])
    knowledge = knowledge_of(sc, AttackLevel.CCA, codec, np.random.default_rng(0))
    twin = game.Knowledge(**{f.name: getattr(knowledge, f.name) for f in fields(game.Knowledge)})
    assert repr(knowledge) == repr(twin)
    assert knowledge == knowledge and knowledge != twin  # eq=False: identity, as for a public one
    assert hash(knowledge) == object.__hash__(knowledge)
    assert knowledge.observed == twin.observed == replace(knowledge).observed
    for record, name in ((seq, "ids"), (knowledge, "N"), (knowledge, "observed")):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)


@pytest.mark.parametrize("trial", [0, 1, 17, 2**64 + 3])
def test_rekey_gives_a_fresh_philox(trial):
    """A stream's generator moved to a trial after arbitrary draws on an
    earlier one, with half of a 64-bit word left in its 32-bit buffer, is in
    the state a new Philox with that key at counter ``trial << 128`` starts
    in, and draws the same next 1,000 values."""
    key = game._derive_key(9, "game", "harness")
    at = game._stream(key)
    gen = at(trial + 5)
    gen.integers(0, 2, size=7)
    gen.random(3)
    gen.choice(11, size=4, replace=False)
    gen.integers(0, 2, size=1)
    state = gen.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    fresh = np.random.Generator(np.random.Philox(key=key, counter=trial << 128))
    assert at(trial) is gen
    assert repr(gen.bit_generator.state) == repr(fresh.bit_generator.state)
    for draw in (
        lambda g: g.integers(0, 2, size=333),
        lambda g: g.random(333),
        lambda g: g.choice(50, size=334),
    ):
        assert draw(gen).tolist() == draw(fresh).tolist()


@pytest.mark.parametrize("skip", [0, 1, 3, 4, 5, 17])
def test_stream_template_gives_a_fresh_philox_skip_included(skip):
    """Moved to a trial, after draws that left half a word buffered at an
    earlier one, a stream stands where a new Philox at counter ``trial <<
    128`` stands after ``skip`` raw words, and draws what it draws next."""
    key = game._derive_key(9, "game", "harness")
    at = game._stream(key, skip)
    for trial in (3, 0, 2**64 + 1, 3):
        gen = at(trial)
        fresh = np.random.Generator(np.random.Philox(key=key, counter=trial << 128))
        fresh.bit_generator.random_raw(skip)
        assert _live_state(gen) == _live_state(fresh)
        assert gen.integers(0, 2**40, size=5).tolist() == fresh.integers(0, 2**40, size=5).tolist()
        gen.integers(0, 2, size=3)
        assert gen.bit_generator.state["has_uint32"] == 1


def test_alternated_streams_keep_their_own_counters():
    """Two streams, one with a skip, moved in turn to different trials: each
    then draws its own key's stream at its own counter, so moving one never
    moves the other."""
    keys, skips = (game._derive_key(9, "game", "harness"), game._derive_key(9, "game", "adversary")), (6, 0)
    streams = [game._stream(key, skip) for key, skip in zip(keys, skips)]
    for trial in (0, 5, 1, 2**70):
        gens = [at(trial + i) for i, at in enumerate(streams)]
        for i, gen in enumerate(gens):
            fresh = np.random.Philox(key=keys[i], counter=(trial + i) << 128)
            fresh.random_raw(skips[i])
            assert gen.bit_generator.random_raw(5).tolist() == fresh.random_raw(5).tolist()


@pytest.mark.parametrize("path", [("leak",), ("round", 3, "observe")])
def test_generator_is_a_fresh_philox(path):
    """A path's own stream at trial 0 is a new Philox on its derived key, at counter 0."""
    fresh = np.random.Philox(key=game._derive_key(9, *path))
    assert repr(game._stream(game._derive_key(9, *path))(0).bit_generator.state) == repr(fresh.state)


@pytest.mark.parametrize(
    "play, keys",
    [
        (lambda sc: run_game(sc, RandomGuesser(), AttackLevel.KCA, trials=300, seed=1), 4),
        (lambda sc: message_recovery_game(sc, CCAReplay(), AttackLevel.CCA, 300, 1), 4),
        (lambda sc: acca_loop(sc, KCAMembership(), trials_per_round=150, seed=1), 1 + 3 * 4),
    ],
    ids=["detection", "recovery", "acca"],
)
def test_stream_keys_derived_once_per_block(monkeypatch, play, keys):
    """One hash per key: the session key, the leak and each role's stream,
    per game or per ACCA round (whose learning phase adds its "observe"
    stream), however many trials it plays; an ACCA loop hashes its leak key
    once, for the one leak order all its rounds share."""
    derived = []
    real = game._derive_key
    monkeypatch.setattr(game, "_derive_key", lambda *args: derived.append(args) or real(*args))
    sc = synthetic_scenario(T=8, N=3, world_size=16, seed=5, rounds=3, leak_fraction=0.25)
    play(sc)
    assert len(derived) == keys


def test_acca_rounds_leak_prefixes_of_one_order():
    """Each ACCA round hands the adversary the leak a fresh per-round draw of
    the leak permutation gives: the loop's one order serves every round."""
    leaks = []

    class Recorder:
        name = "recorder"

        def learn(self, knowledge, state=None):
            leaks.append(knowledge.leaked_ids)
            return {}

        def guess(self, challenge, state):
            return "natural"

    sc = synthetic_scenario(T=12, N=3, world_size=24, seed=5, rounds=4, leak_fraction=0.25, leak_growth=0.25)
    for seed in (1, 9):
        leaks.clear()
        results = acca_loop(sc, Recorder(), trials_per_round=100, seed=seed)
        assert len(results) == len(leaks) == 4
        assert [len(leak) for leak in leaks] == [3, 6, 9, 12]
        assert leaks == [leak_reference(sc, seed, r) for r in range(4)]


def test_trial_streams_follow_the_counter():
    """Trial t's harness and adversary streams are each role's Philox at
    counter t << 128: the first raw word a trial's learn sees on each."""
    seen = []

    class Recorder:
        name = "recorder"

        def learn(self, knowledge, state=None):
            seen.append(knowledge.rng.bit_generator.random_raw())
            return {}

        def guess(self, challenge, state):
            return "stego"

    sc = synthetic_scenario(T=8, N=3, world_size=16, seed=5, observations=0)
    run_game(sc, Recorder(), AttackLevel.SCOA, trials=100, seed=4)
    key = game._derive_key(4, "game", "adversary")
    assert seen == [np.random.Philox(key=key, counter=t << 128).random_raw() for t in range(100)]


def test_cca_replay_asks_the_drawn_payloads():
    """CCAReplay asks the oracle for the payloads one ``_random_values``
    call draws on its stream, also after an earlier draw, and learns the ids
    that the public ``embed`` gives them under the session key."""
    sc = synthetic_scenario(T=16, N=4, world_size=32, seed=3, observations=0)
    l = capacity(16, 4).l
    assert l == 15
    session_key = keygen(l, random.Random(4))
    codec = game._codec(sc.library, sc.N, session_key.value)
    batched, single = (np.random.Generator(np.random.Philox(key=21)) for _ in range(2))
    batched.integers(0, 2, size=5)
    single.integers(0, 2, size=5)
    knowledge = knowledge_of(sc, AttackLevel.CCA, codec, batched)
    asked = []

    def oracle(value):
        asked.append(value)
        return knowledge.embed_oracle(value)

    learned = CCAReplay().learn(replace(knowledge, embed_oracle=oracle))
    assert asked == [v for _ in range(32) for v in game._random_values(single, l, 1)]
    assert repr(batched.bit_generator.state) == repr(single.bit_generator.state)
    assert learned["known"] == {
        cid for v in asked for cid in embed(Message(v, l), session_key, sc.library, 4).ids
    }


@pytest.mark.parametrize("budget", [0, 5, 40])
@pytest.mark.parametrize("level", [AttackLevel.CCA, AttackLevel.ACCA])
@pytest.mark.parametrize("make, replays", [(KCAMembership, False), (CCAReplay, True),
                                           (KeyedRecovery, False)],
                         ids=["kca-membership", "cca-replay", "keyed-recovery"])
def test_only_cca_replay_reads_traffic_and_the_oracle(make, replays, level, budget):
    """Of the id presets, only cca-replay reads the observations, once, and
    asks the embed oracle, min(oracle_calls, remaining) times; the other two
    know the leak alone, also where the level hands them both.  Each keeps
    the ids it knew when it learns again."""
    sc = synthetic_scenario(T=16, N=4, world_size=32, seed=3, observations=3,
                            oracle_embed_budget=budget)
    codec = game._codec(sc.library, sc.N, 12345)
    reads = []

    def observe():
        reads.append(None)
        if not replays:
            raise AssertionError("the observations were read")
        return tuple(map(codec.embed, range(3)))

    knowledge = knowledge_of(sc, level, codec, np.random.default_rng(0), leaked=sc.library.ids()[:5])
    knowledge = replace(knowledge, _observe=observe)
    known = make().learn(knowledge)["known"]
    assert len(reads) == replays
    assert budget - knowledge.embed_oracle.remaining == (min(32, budget) if replays else 0)
    assert set(knowledge.leaked_ids) <= set(known)
    assert bool(set(known) - set(knowledge.leaked_ids)) == replays
    # what a preset knew, it still knows after the next round's learn
    assert set(known) <= make().learn(replace(knowledge, leaked_ids=()), {"known": known})["known"]


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

    @pytest.mark.parametrize("n, rounds", [(100, 20), (100, 5), (150, 4)])
    def test_false_break_rate_at_most_family_alpha(self, monkeypatch, n, rounds):
        """A coin-flipper's per-round successes are exactly Binomial(n, 1/2).
        With k the fewest successes that read broken, it breaks some round
        with probability 1 - (1 - P(X >= k))**rounds, which must not exceed
        the family alpha."""
        alpha = 0.01
        sc = synthetic_scenario(T=6, N=2, world_size=12, seed=0)

        def verdicts(k):
            monkeypatch.setattr(game, "_play", lambda *args, **kwargs: (k, 0, None))
            results = acca_loop(
                sc, RandomGuesser(), trials_per_round=n, seed=0, rounds=rounds, alpha=alpha
            )
            assert {r.alpha for r in results} == {alpha}
            return [r.verdict for r in results]

        k = next(k for k in range(n + 1) if VERDICT_BROKEN in verdicts(k))
        assert verdicts(k) == [VERDICT_BROKEN]
        assert verdicts(k - 1) == [VERDICT_RESISTS] * rounds
        tail = Fraction(sum(math.comb(n, j) for j in range(k, n + 1)), 2**n)
        assert 1 - (1 - tail) ** rounds <= alpha


@pytest.mark.parametrize(
    "play",
    [
        lambda sc: run_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=100, seed=1),
        lambda sc: message_recovery_game(sc, RandomGuesser(), AttackLevel.SCOA, trials=100, seed=1),
        lambda sc: acca_loop(sc, RandomGuesser(), trials_per_round=100, seed=1),
    ],
    ids=["detection", "recovery", "acca"],
)
def test_harness_fault_raises(monkeypatch, play):
    """A fault while the harness builds the knowledge is not the adversary's
    miss: it propagates instead of scoring as a failed learn."""

    def fault(*args):
        raise RuntimeError("harness fault")

    monkeypatch.setattr(game, "_leaked_key", fault)
    sc = synthetic_scenario(T=6, N=2, world_size=12, seed=0)
    with pytest.raises(RuntimeError, match="harness fault"):
        play(sc)


@pytest.mark.parametrize("adversary", [CCAReplay, LateReader], ids=["cca-replay", "late-reader"])
@pytest.mark.parametrize(
    "play",
    [
        lambda sc, adv: run_game(sc, adv, AttackLevel.SCOA, trials=100, seed=1),
        lambda sc, adv: message_recovery_game(sc, adv, AttackLevel.SCOA, trials=100, seed=1),
        lambda sc, adv: acca_loop(sc, adv, trials_per_round=100, seed=1),
    ],
    ids=["detection", "recovery", "acca"],
)
def test_observation_fault_raises(monkeypatch, play, adversary):
    """A fault while the observations are embedded on first read is the
    harness's: it propagates out of the game instead of scoring as a failed
    learn or guess, also when the adversary catches it."""

    def fault_in_observe():
        if any(frame.name == "observe" for frame in traceback.extract_stack()):
            raise RuntimeError("observation fault")

    monkeypatch.setattr(game, "_codec", _wrapping_embed(game._codec, fault_in_observe))
    sc = synthetic_scenario(T=6, N=2, world_size=12, seed=0)
    with pytest.raises(RuntimeError, match="observation fault"):
        play(sc, adversary())


def _file_scenario(tmp_path, paths) -> Scenario:
    save_manifest(build_library(paths[:4]), tmp_path / "lib.json")
    save_manifest(build_library(paths[4:]), tmp_path / "world.json")
    doc = {"library": "lib.json", "world_pool": "world.json", "N": 2}
    (tmp_path / "scen.json").write_text(json.dumps(doc))
    return load_scenario(tmp_path / "scen.json")


def test_unreadable_cover_raises(tmp_path, make_covers):
    """A cover file that cannot be read while the adversary learns is the
    harness's fault, not the adversary's miss."""
    paths = make_covers(12)
    sc = _file_scenario(tmp_path, paths)
    for p in paths[4:]:
        p.unlink()
    with pytest.raises(CoverReadError):
        run_game(sc, SCOAHistogram(), AttackLevel.SCOA, trials=100, seed=1)


def test_empty_world_cover_fails_the_histogram_learn(tmp_path, make_covers):
    """A zero-byte world cover has no byte histogram: every learn raises
    ``EmptySamples`` and scores as a miss, where a nan distance would have
    compared false with every threshold and played on."""
    paths = make_covers(12)
    paths[-1].write_bytes(b"")
    sc = _file_scenario(tmp_path, paths)
    res = run_game(sc, SCOAHistogram(), AttackLevel.SCOA, trials=100, seed=1)
    assert res.successes == 0 and res.verdict == VERDICT_RESISTS


class ForeignContentReader:
    """Asks for the content of a cover outside the scenario."""

    name = "foreign-content"

    def learn(self, knowledge, state=None):
        return knowledge.content("0" * 64)

    def guess(self, challenge, state):
        return "stego"


def test_foreign_cover_content_is_the_adversarys_error(tmp_path, make_covers):
    sc = _file_scenario(tmp_path, make_covers(12))
    result = run_game(sc, ForeignContentReader(), AttackLevel.SCOA, trials=100, seed=1)
    assert result.successes == 0 and result.verdict == VERDICT_RESISTS


class TestRegistry:
    def test_methods_in_own_dict(self):
        """perfbench/tracer.py wraps each class's own learn, guess and recover."""
        for cls in ADVERSARIES.values():
            assert cls.__bases__ == (object,)
            for method in ("learn", "guess", "recover"):
                assert method in cls.__dict__, (cls.name, method)

    def test_presets_take_no_arguments(self):
        """Every preset constructs with no arguments and states what it reads as
        class attributes, so a variant is one more class, not an option."""
        for cls in ADVERSARIES.values():
            assert not inspect.signature(cls).parameters, cls.name
            cls()
        stated = {
            SCOAHistogram: {"model_sample": 64, "null_draws": 64, "percentile": 99.0},
            CCAReplay: {"oracle_calls": 32},
        }
        for cls, values in stated.items():
            for attr, value in values.items():
                assert type(cls.__dict__[attr]) is type(value) and cls.__dict__[attr] == value, (cls.name, attr)
                assert attr not in vars(cls()), (cls.name, attr)

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
    @pytest.mark.parametrize("N", [4, 7, 8, 9, 64])
    def test_guess_mean_is_numpys(self, N):
        """A challenge's mean per-cover distance is ``np.mean``'s bit for bit: at a
        threshold equal to that mean the guess is natural, one ulp below it stego.
        From 8 values on numpy sums in pairwise blocks, not left to right."""
        gen = np.random.Generator(np.random.Philox(key=N))
        ids = tuple(f"cover{i}" for i in range(N))
        for _ in range(300):
            scores = gen.random(N) * 10.0 ** gen.integers(-3, 4, size=N)
            memo = {"row_of": {cid: i for i, cid in enumerate(ids)}, "scores": scores, "missing": 0}
            mean = float(np.mean(list(scores)))
            for threshold, label in ((mean, "natural"), (np.nextafter(mean, -1.0), "stego")):
                assert SCOAHistogram().guess(Challenge(ids), {"memo": memo, "threshold": threshold}) == label

    def test_matched_world_stays_at_chance(self):
        sc = synthetic_scenario(T=8, N=3, world_size=40, seed=11, observations=4)
        res = run_game(sc, SCOAHistogram(), AttackLevel.SCOA, trials=120, seed=13)
        se = math.sqrt(0.25 / res.trials)
        assert abs(res.success_rate - 0.5) <= 4 * se
        assert res.verdict == VERDICT_RESISTS

    def test_each_cover_read_and_normalized_once(self, monkeypatch):
        """Over 100 trials one instance reads each cover once and builds no
        histogram object: every cover, in the world pool or not, and every
        pooled model is scored straight from its byte counts."""
        reads: Counter = Counter()
        built = 0
        read, check = Scenario.content_for, EmpiricalDistribution.__post_init__

        def counting_read(self, cid):
            reads[cid] += 1
            return read(self, cid)

        def counting_check(self):
            nonlocal built
            built += 1
            check(self)

        monkeypatch.setattr(Scenario, "content_for", counting_read)
        monkeypatch.setattr(EmpiricalDistribution, "__post_init__", counting_check)
        for disjoint in (False, True):
            reads.clear()
            built = 0
            sc = synthetic_scenario(T=16, N=4, seed=3, disjoint_world=disjoint)
            res = run_game(sc, SCOAHistogram(), AttackLevel.SCOA, trials=100, seed=5)
            assert res.successes > 0  # every learn got as far as scoring
            assert max(reads.values()) == 1
            assert set(sc.world.ids()) <= set(reads)
            assert built == 0

    def test_each_cover_scored_once_per_model(self, monkeypatch):
        """No cover's distance to one model is computed twice in a game, over
        the null draws and the challenges of every trial, counted per row of
        the kernel that scores every cover.  On a world pool no larger than
        ``model_sample`` every trial samples the whole pool, so the game
        computes at most one distance per world and library cover."""
        pairs: Counter = Counter()
        kernel = adversaries._js

        def counting_kernel(pm, qm):
            for p_row, q_row in zip(pm, qm):  # a (cover, model) pair is its two mass rows
                pairs[p_row.tobytes(), q_row.tobytes()] += 1
            return kernel(pm, qm)

        monkeypatch.setattr(adversaries, "_js", counting_kernel)
        for world_size, disjoint in ((64, False), (64, True), (200, True)):
            pairs.clear()
            sc = synthetic_scenario(T=16, N=4, world_size=world_size, seed=3, disjoint_world=disjoint)
            adversary = SCOAHistogram()
            res = run_game(sc, adversary, AttackLevel.SCOA, trials=100, seed=5)
            assert res.successes > 0
            assert max(pairs.values()) == 1
            if sc.world.T <= adversary.model_sample:
                assert 0 < sum(pairs.values()) <= sc.world.T + sc.library.T

    def test_byte_distribution(self):
        """A cover's byte counts, 256 categories; a zero-byte cover has none."""
        knowledge = SimpleNamespace(content={"a": bytes([0, 0, 255, 1]), "e": b""}.__getitem__)
        adversary = SCOAHistogram()
        counts = adversary._byte_counts("a", knowledge)
        assert counts.shape == (256,) and counts.sum() == 4
        assert counts[[0, 1, 255]].tolist() == [2, 1, 1]
        with pytest.raises(EmptySamples):
            adversary._byte_counts("e", knowledge)

    def test_byte_counts_pool_before_normalizing(self):
        """The model pools its sample's byte counts and normalizes once: on a
        world no larger than ``model_sample`` its masses are those of every
        world cover's bytes joined."""
        sc = synthetic_scenario(T=6, N=2, world_size=12, seed=4)
        codec = game._codec(sc.library, sc.N, 1)
        knowledge = knowledge_of(sc, AttackLevel.SCOA, codec, np.random.default_rng(0))
        memo = SCOAHistogram().learn(knowledge)["memo"]
        joined = b"".join(map(sc.content_for, sc.world.ids()))
        counts = np.bincount(np.frombuffer(joined, dtype=np.uint8), minlength=256)
        assert np.array_equal(memo["model_counts"], counts)
        assert memo["model"].tobytes() == (counts / len(joined)).tobytes()

    def test_outside_cover_score_is_public_js(self):
        """A cover outside the world pool scores, bit for bit, what public
        ``js`` gives on its byte histogram against the model's."""
        sc = synthetic_scenario(T=10, N=4, world_size=30, disjoint_world=True, seed=2)
        codec = game._codec(sc.library, sc.N, 1)
        edges = np.arange(257) - 0.5
        for seed in range(3):
            knowledge = knowledge_of(sc, AttackLevel.SCOA, codec, np.random.default_rng(seed))
            adversary = _Hist8()
            state = adversary.learn(knowledge)
            model = state["memo"]["model_counts"]
            model_dist = EmpiricalDistribution(edges, model / model.sum(), int(model.sum()))
            for cid in sc.library.ids():
                counts = np.bincount(np.frombuffer(sc.content_for(cid), dtype=np.uint8), minlength=256)
                total = int(counts.sum())
                expected = js(EmpiricalDistribution(edges, counts / total, total), model_dist)
                assert adversary._outside_score(cid, state).hex() == expected.hex(), (seed, cid)

    def test_empty_library_cover_fails_the_guess(self, tmp_path, make_covers):
        """On a world pool disjoint from the library, a zero-byte library
        cover has no byte histogram: a guess on a challenge that holds it
        raises ``EmptySamples``, and the trial scores a miss, as a natural
        label on that (always stego) challenge would."""
        paths = make_covers(12)
        paths[0].write_bytes(b"")
        sc = _file_scenario(tmp_path, paths)
        (empty,) = [cid for cid in sc.library.ids() if not sc.content_for(cid)]
        raised = []

        def play(on_empty):
            adversary = SCOAHistogram()

            def guess(challenge, state):
                try:
                    return SCOAHistogram.guess(adversary, challenge, state)
                except EmptySamples:
                    raised.append(challenge.ids)
                    return on_empty()

            adversary.guess = guess
            return asdict(run_game(sc, adversary, AttackLevel.SCOA, trials=100, seed=1))

        def reraise():
            raise EmptySamples("no bytes")

        missed = play(reraise)
        assert raised and all(empty in ids for ids in raised)
        assert play(lambda: game.LABEL_NATURAL) == missed

    @pytest.mark.parametrize("world_size", [48, 200])
    def test_memo_never_changes_an_answer(self, world_size):
        """One instance reused across scenarios and seeds answers as fresh
        instances do, whether every trial shares its model (a world pool no
        larger than ``model_sample``) or the model changes every trial."""
        scenarios = [
            synthetic_scenario(T=8, N=3, world_size=world_size, seed=21),
            synthetic_scenario(T=12, N=4, world_size=world_size, seed=22),
        ]
        shared = SCOAHistogram()
        for sc in scenarios:
            for seed in (1, 2):
                reused = run_game(sc, shared, AttackLevel.SCOA, trials=100, seed=seed)
                fresh = run_game(sc, SCOAHistogram(), AttackLevel.SCOA, trials=100, seed=seed)
                assert asdict(reused) == asdict(fresh)

    @pytest.mark.parametrize("W, N, seed", [(6, 2, 61), (7, 3, 62)])
    def test_null_draw_is_uniform_over_subsets(self, W, N, seed):
        """Every null row holds N distinct world indices, and the rows are
        uniform over all C(W, N) subsets (chi-square, 20,000 rows)."""
        from scipy.stats import chisquare

        picks = SCOAHistogram._null_picks(np.random.default_rng(seed), W, N, 20_000)
        assert picks.shape == (20_000, N)
        assert 0 <= picks.min() and picks.max() < W
        rows = [tuple(sorted(row)) for row in picks.tolist()]
        assert all(len(set(row)) == N for row in rows)
        index = {subset: i for i, subset in enumerate(itertools.combinations(range(W), N))}
        counts = np.bincount([index[row] for row in rows], minlength=len(index))
        assert chisquare(counts).pvalue >= 0.01

    @pytest.mark.parametrize("W, N, draws", [(64, 4, 64), (20, 7, 33), (5, 5, 10), (300, 16, 64), (3, 1, 5)])
    def test_null_draw_in_one_call_matches_one_call_per_step(self, W, N, draws):
        """The Floyd steps drawn in one call are those of one call per step
        and leave the generator where they do, also after a draw that left
        half a word buffered."""
        for seed in range(40):
            one, per_step = (np.random.default_rng(seed) for _ in range(2))
            one.integers(0, 2, size=seed % 3)
            per_step.integers(0, 2, size=seed % 3)
            picks = np.empty((draws, N), dtype=np.intp)
            for c, j in enumerate(range(W - N, W)):
                t = per_step.integers(0, j + 1, size=draws)
                picks[:, c] = np.where((picks[:, :c] == t[:, None]).any(axis=1), j, t)
            assert np.array_equal(SCOAHistogram._null_picks(one, W, N, draws), picks)
            assert repr(one.bit_generator.state) == repr(per_step.bit_generator.state)

    @pytest.mark.parametrize("N", range(1, 10))
    def test_null_picks_match_the_column_loop(self, N):
        """The Floyd steps taken in the draw's own (N, draws) rows give the
        picks, the C layout and the mean null scores, to the byte, of the
        column loop they replaced, for every W from N to 64.  From N = 8
        numpy's mean sums in 8 accumulators, so the layout decides the sum."""
        scores = np.random.default_rng(N).random(64)
        for W in range(N, 65):
            for seed in range(2):
                reference, gen = (np.random.default_rng(seed) for _ in range(2))
                steps = reference.integers(0, np.arange(W - N + 1, W + 1)[:, None], size=(N, 64))
                expected = np.empty((64, N), dtype=np.intp)
                for c, t in enumerate(steps):
                    expected[:, c] = np.where((expected[:, :c] == t[:, None]).any(axis=1), W - N + c, t)
                picks = SCOAHistogram._null_picks(gen, W, N, 64)
                assert picks.dtype == expected.dtype and picks.flags.c_contiguous
                assert np.array_equal(picks, expected)
                assert scores[picks].mean(axis=1).tobytes() == scores[expected].mean(axis=1).tobytes()

    def test_percentile_is_numpys_bit_for_bit(self):
        """The threshold's percentile equals ``np.percentile`` to the last
        bit at n = 1..200, at 0, 50, 99 and 100 and at random percentiles,
        on distinct values and on values with many ties (signed zeros among them)."""
        gen = np.random.Generator(np.random.Philox(key=41))
        for n in range(1, 201):
            distinct = gen.random(n)
            tied = gen.choice([-0.0, 0.0, 0.25, 1 / 3, 0.5], size=n)
            for values in (distinct, tied):
                for q in (0.0, 50.0, 99.0, 100.0, *(gen.random(4) * 100).tolist()):
                    expected = float(np.percentile(values, q))
                    assert adversaries._percentile(values, q).hex() == expected.hex(), (n, q)

    def test_no_in_sample_bias_on_a_small_disjoint_world(self):
        """On an 18-cover world pool disjoint from the library, every world
        cover sits in the model sample.  Scored in sample, the null's covers
        looked closer to the model than a stego challenge's library covers
        and the detector read 0.6825 (p = 1.1e-13, broken) at game seed 0;
        scored leave-one-out it stays at chance."""
        sc = synthetic_scenario(6, 2, world_size=18, disjoint_world=True, seed=4)
        results = [run_game(sc, SCOAHistogram(), AttackLevel.SCOA, trials=400, seed=s) for s in range(8)]
        assert results[0].verdict == VERDICT_RESISTS
        rate = sum(r.successes for r in results) / (8 * 400)
        assert abs(rate - 0.5) <= 3 * math.sqrt(0.25 / (8 * 400))


GOLDEN_FIELDS = (
    "level", "kind", "trials", "successes", "success_rate", "p_value", "alpha",
    "verdict", "seed", "stego_challenges", "sequences", "round_index",
)

# asdict(GameResult) of every case below, as rows of GOLDEN_FIELDS values.
# Any change to seed paths, draw order or scoring shows up here.
GOLDEN = {
    'detection/random-scoa': [
        ('SCOA', 'detection', 100, 55, 0.55, 0.18410080866334813, 0.01, 'resists', 7, 50, None, None),
    ],
    'detection/membership-kca': [
        ('KCA', 'detection', 100, 55, 0.55, 0.18410080866334813, 0.01, 'resists', 7, 50, None, None),
    ],
    'detection/membership-acca-level': [
        ('ACCA', 'detection', 100, 53, 0.53, 0.308649706794626, 0.01, 'resists', 8, 53, None, None),
    ],
    'detection/histogram-scoa': [
        ('SCOA', 'detection', 100, 38, 0.38, 0.9939835121373183, 0.01, 'resists', 9, 62, None, None),
    ],
    'detection/histogram-disjoint': [
        ('SCOA', 'detection', 100, 55, 0.55, 0.18410080866334813, 0.01, 'resists', 9, 47, None, None),
    ],
    'detection/replay-cca': [
        ('CCA', 'detection', 100, 95, 0.95, 6.26162256269268e-23, 0.01, 'broken', 4, 51, None, None),
    ],
    'detection/keyed-kca': [
        ('KCA', 'detection', 100, 100, 1.0, 7.888609052210118e-31, 0.01, 'broken', 5, 55, None, None),
    ],
    'detection/flaky-cca': [
        ('CCA', 'detection', 100, 28, 0.28, 0.9999976537936937, 0.01, 'resists', 6, 54, None, None),
    ],
    'detection/failing-scoa': [
        ('SCOA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 1, 56, None, None),
    ],
    'recovery/random-scoa': [
        ('SCOA', 'recovery', 800, 408, 0.51, 0.29795534269699137, 0.01, 'resists', 7, None, 100, None),
    ],
    'recovery/membership-kca': [
        ('KCA', 'recovery', 800, 408, 0.51, 0.29795534269699137, 0.01, 'resists', 7, None, 100, None),
    ],
    'recovery/histogram-scoa': [
        ('SCOA', 'recovery', 800, 401, 0.50125, 0.48589966745264385, 0.01, 'resists', 9, None, 100, None),
    ],
    'recovery/replay-cca': [
        ('CCA', 'recovery', 1200, 616, 0.5133333333333333, 0.18542549435061792, 0.01, 'resists', 4, None, 100, None),
    ],
    'recovery/keyed-full': [
        ('KCA', 'recovery', 800, 800, 1.0, 1.499696813895631e-241, 0.01, 'broken', 7, None, 100, None),
    ],
    'recovery/keyed-flip1': [
        ('KCA', 'recovery', 800, 700, 0.875, 5.964990537578753e-112, 0.01, 'broken', 7, None, 100, None),
    ],
    'recovery/keyed-no-key': [
        ('KCA', 'recovery', 800, 0, 0.0, 1.0, 0.01, 'resists', 3, None, 100, None),
    ],
    'recovery/flaky-cca': [
        ('CCA', 'recovery', 1200, 128, 0.10666666666666667, 1.0, 0.01, 'resists', 6, None, 100, None),
    ],
    'recovery/failing-scoa': [
        ('SCOA', 'recovery', 800, 0, 0.0, 1.0, 0.01, 'resists', 3, None, 100, None),
    ],
    'acca/membership-growing': [
        ('ACCA', 'detection', 100, 58, 0.58, 0.06660530960360667, 0.01, 'resists', 2, 42, None, 0),
        ('ACCA', 'detection', 100, 51, 0.51, 0.46020538130641064, 0.01, 'resists', 2, 49, None, 1),
        ('ACCA', 'detection', 100, 49, 0.49, 0.6178232827986666, 0.01, 'resists', 2, 55, None, 2),
        ('ACCA', 'detection', 100, 100, 1.0, 7.888609052210118e-31, 0.01, 'broken', 2, 46, None, 3),
    ],
    'acca/replay': [
        ('ACCA', 'detection', 100, 80, 0.8, 5.579544528625976e-10, 0.01, 'broken', 3, 44, None, 0),
    ],
    'acca/keyed': [
        ('ACCA', 'detection', 100, 56, 0.56, 0.13562651203691736, 0.01, 'resists', 3, 44, None, 0),
        ('ACCA', 'detection', 100, 51, 0.51, 0.46020538130641064, 0.01, 'resists', 3, 49, None, 1),
        ('ACCA', 'detection', 100, 50, 0.5, 0.5397946186935894, 0.01, 'resists', 3, 56, None, 2),
        ('ACCA', 'detection', 100, 100, 1.0, 7.888609052210118e-31, 0.01, 'broken', 3, 52, None, 3),
    ],
    'acca/flaky': [
        ('ACCA', 'detection', 100, 46, 0.46, 0.8158991913366519, 0.01, 'resists', 18, 45, None, 0),
        ('ACCA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 18, 57, None, 1),
        ('ACCA', 'detection', 100, 43, 0.43, 0.9333946903963933, 0.01, 'resists', 18, 52, None, 2),
        ('ACCA', 'detection', 100, 47, 0.47, 0.7579407931963542, 0.01, 'resists', 18, 43, None, 3),
    ],
    'acca/flaky-first-round': [
        ('ACCA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 13, 61, None, 0),
        ('ACCA', 'detection', 100, 49, 0.49, 0.6178232827986666, 0.01, 'resists', 13, 47, None, 1),
        ('ACCA', 'detection', 100, 49, 0.49, 0.6178232827986666, 0.01, 'resists', 13, 51, None, 2),
        ('ACCA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 13, 50, None, 3),
    ],
    'acca/random': [
        ('ACCA', 'detection', 100, 43, 0.43, 0.9333946903963933, 0.01, 'resists', 2, 42, None, 0),
        ('ACCA', 'detection', 100, 55, 0.55, 0.18410080866334813, 0.01, 'resists', 2, 49, None, 1),
        ('ACCA', 'detection', 100, 51, 0.51, 0.46020538130641064, 0.01, 'resists', 2, 55, None, 2),
    ],
    'acca/failing': [
        ('ACCA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 1, 45, None, 0),
        ('ACCA', 'detection', 100, 0, 0.0, 1.0, 0.01, 'resists', 1, 43, None, 1),
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
    S, K, C, A = AttackLevel.SCOA, AttackLevel.KCA, AttackLevel.CCA, AttackLevel.ACCA
    detection = [
        ("random-scoa", small, RandomGuesser(), S, 7),
        ("membership-kca", small, KCAMembership(), K, 7),
        ("membership-acca-level", small, KCAMembership(), A, 8),
        ("histogram-scoa", small, _Hist8(), S, 9),
        ("histogram-disjoint", disjoint, _Hist8(), S, 9),
        ("replay-cca", disjoint, _Replay3(), C, 4),
        ("keyed-kca", keyed, KeyedRecovery(), K, 5),
        ("flaky-cca", disjoint, FlakyAdversary(), C, 6),
        ("failing-scoa", small, FailingAdversary(), S, 1),
    ]
    for name, sc, adv, level, seed in detection:
        yield "detection/" + name, [run_game(sc, adv, level, trials=100, seed=seed)]
    recovery = [
        ("random-scoa", small, RandomGuesser(), S, 7),
        ("membership-kca", small, KCAMembership(), K, 7),
        ("histogram-scoa", small, _Hist8(), S, 9),
        ("replay-cca", disjoint, _Replay3(), C, 4),
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
        ("replay", rounds, _Replay2(), 2, 3),
        ("keyed", growing, KeyedRecovery(), None, 3),
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


def test_golden_rows_keep_their_meaning():
    """The pinned rows say what the reference adversaries are for: the coin
    flipper and the histogram detector resist, a full library leak breaks
    detection, a leaked key recovers every bit and a key with its first bit
    flipped exactly l - 1 of l."""
    row = {name: [dict(zip(GOLDEN_FIELDS, r)) for r in rows] for name, rows in GOLDEN.items()}
    for name in ("random-scoa", "histogram-scoa"):
        for kind in ("detection", "recovery"):
            assert row[f"{kind}/{name}"][0]["verdict"] == VERDICT_RESISTS, (kind, name)
    assert row["detection/histogram-disjoint"][0]["verdict"] == VERDICT_RESISTS
    assert {r["verdict"] for r in row["acca/random"]} == {VERDICT_RESISTS}
    assert row["detection/keyed-kca"][0]["verdict"] == VERDICT_BROKEN
    assert row["acca/membership-growing"][-1]["verdict"] == VERDICT_BROKEN
    assert row["acca/membership-growing"][-1]["success_rate"] == 1.0
    l = capacity(6, 4).l
    full, flip = row["recovery/keyed-full"][0], row["recovery/keyed-flip1"][0]
    assert (full["success_rate"], full["successes"], full["verdict"]) == (1.0, 100 * l, VERDICT_BROKEN)
    assert (flip["success_rate"], flip["successes"]) == ((l - 1) / l, 100 * (l - 1))


def test_golden_rows_under_the_binomtest_float_rule(monkeypatch):
    """The verdict's earlier rule, binomtest's float against alpha as a
    float, gives the same golden rows but for p-values within 1e-12
    relative: the exact tail moved no success count and no verdict."""
    from scipy.stats import binomtest

    def float_rule(k, n, alpha=0.0):
        p = binomtest(k, n, 0.5, alternative="greater").pvalue
        return p, p < alpha

    monkeypatch.setattr(game, "p_value_greater", float_rule)
    got = {name: [asdict(r) for r in results] for name, results in _golden_cases()}
    for name, rows in GOLDEN.items():
        for row, old in zip(rows, got[name], strict=True):
            new = dict(zip(GOLDEN_FIELDS, row))
            assert old["p_value"] == pytest.approx(new["p_value"], rel=1e-12, abs=0), name
            assert {**old, "p_value": None} == {**new, "p_value": None}, name


def _exact_tails(n: int) -> list[int]:
    """sum(C(n, j) for j >= k), for k = 0 .. n + 1."""
    terms = [1]
    for j in range(n):
        terms.append(terms[-1] * (n - j) // (j + 1))
    tails = [0] * (n + 2)
    for k in range(n, -1, -1):
        tails[k] = tails[k + 1] + terms[k]
    return tails


def _exact_p(tails: list[int], k: int, n: int) -> Fraction:
    return Fraction(tails[min(max(k, 0), n + 1)], 2**n)


@pytest.mark.parametrize("sizes", [range(1, 301), (800, 1200)])
def test_p_value_is_the_correctly_rounded_tail(sizes):
    """Every k, outside the support too: the exact tail, rounded once (a
    Fraction's float rounds correctly)."""
    for n in sizes:
        tails = _exact_tails(n)
        for k in range(-1, n + 3):
            assert game.p_value_greater(k, n)[0] == float(_exact_p(tails, k, n)), (k, n)


# trials x l of a 1,600-sequence recovery game at l = 15
LARGE_N = 24000


@pytest.fixture(scope="module")
def large_tails():
    return _exact_tails(LARGE_N)


def test_p_value_at_large_n_without_the_exact_fallback(large_tails, monkeypatch):
    """k = 0, n, n + 1 and a stride of k on both sides of n/2, denser near
    it: each is the correctly rounded tail, and none sums from the exact
    first term, whose ``comb`` alone takes milliseconds here."""
    first_term = game._first_term

    def bounded_only(m, n, exact):
        assert not exact, (m, n)
        return first_term(m, n, exact)

    monkeypatch.setattr(game, "_first_term", bounded_only)
    n = LARGE_N
    for k in [0, *range(1, n, 89), *range(11_800, 12_201, 3), n, n + 1]:
        assert game.p_value_greater(k, n)[0] == float(_exact_p(large_tails, k, n)), k


@pytest.mark.parametrize("n", [100, 150, 800, 1200, LARGE_N])
def test_p_value_within_binomtest_tolerance(n):
    """binomtest as an oracle, within 1e-12 relative wherever its float is
    normal.  Its route underflows early: at n = 1,200 it reads 0 from
    k = 1,162, where the tail is 6.5e-290."""
    from scipy.stats import binomtest

    for k in [*range(0, n, 1 if n <= 1200 else 41), n]:
        want = binomtest(k, n, 0.5, alternative="greater").pvalue
        got = game.p_value_greater(k, n)[0]
        if want >= np.finfo(float).tiny:
            assert got == pytest.approx(want, rel=1e-12, abs=0), k
        else:
            assert got < 1e-280, k


@pytest.mark.parametrize("n", [100, 1200, LARGE_N])
def test_verdict_decided_on_exact_values(n, large_tails):
    """With alpha at the rounded p-value and at the floats either side of it,
    ``p < alpha`` follows the exact tail against alpha's exact value, also
    where alpha lies inside the bounds and only the exact sum can tell."""
    tails = large_tails if n == LARGE_N else _exact_tails(n)
    ks = range(n // 2 - 60, n // 2 + 61, 3 if n == LARGE_N else 1)
    for k in [1, *ks, n - 3]:
        exact = _exact_p(tails, k, n)
        p = float(exact)
        for alpha in (math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)):
            if 0 < alpha < 1:
                assert game.p_value_greater(k, n, alpha) == (p, exact < Fraction(alpha)), (k, alpha)
    for k in (n // 2 - 40, n // 2 + 1, n // 2 + 40):
        exact = _exact_p(tails, k, n)  # alpha inside every bound but the exact sum's
        assert game.p_value_greater(k, n, exact) == (float(exact), False), k
        assert game.p_value_greater(k, n, exact * (1 + Fraction(1, 2**200))) == (float(exact), True), k


@pytest.mark.parametrize("n", [2000, 2001, LARGE_N, 60001])
def test_first_term_brackets_the_exact_term(n):
    """Stirling's series in decimals bounds C(n, m) / 2**n from both sides,
    within 2**-90 relative, from the smallest n - m it serves (1000) on."""
    for m in sorted({(n + 1) // 2, n // 2 + 7, (3 * n) // 5, n - 1000} & set(range(n - 999))):
        lo, hi, e = game._first_term(m, n, False)
        assert lo * 2**n <= math.comb(n, m) * 2**e <= hi * 2**n, m
        assert lo.bit_length() >= 159 and lo < hi < lo + (lo >> 90), m


_ids = st.sampled_from([format(i, "064x") for i in range(10)])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_membership_guess_matches_earlier_rules(data):
    """The shared membership test gives the earlier KCA rule and the earlier
    CCA outputs-or-all rule, for known sets that hold every output's ids."""
    outputs = data.draw(st.sets(st.lists(_ids, min_size=1, max_size=4, unique=True).map(tuple),
                                max_size=4))
    known = data.draw(st.sets(_ids)) | {cid for ids in outputs for cid in ids}
    drawn = st.lists(_ids, min_size=1, max_size=4, unique=True).map(tuple)
    ids = data.draw(st.sampled_from(sorted(outputs)) | drawn if outputs else drawn)
    expected = kca_membership_reference(ids, known)
    assert cca_replay_reference(ids, known, outputs) == expected
    for cls in (KCAMembership, CCAReplay, KeyedRecovery):
        assert cls().guess(Challenge(ids=ids), {"known": known}) == expected


@pytest.mark.parametrize(
    "play",
    [
        lambda sc, alpha: run_game(sc, RandomGuesser(), AttackLevel.SCOA, 100, 1, alpha=alpha),
        lambda sc, alpha: message_recovery_game(
            sc, RandomGuesser(), AttackLevel.SCOA, 100, 1, alpha=alpha
        ),
        lambda sc, alpha: acca_loop(sc, RandomGuesser(), 100, 1, alpha=alpha),
    ],
    ids=["detection", "recovery", "acca"],
)
@pytest.mark.parametrize("alpha", [0, 1, 2, -0.5, math.nan, math.inf, True, "0.01", None])
def test_alpha_outside_unit_interval_refused(play, alpha):
    sc = synthetic_scenario(T=6, N=2, world_size=12, seed=1)
    with pytest.raises(InvalidConfig, match="alpha"):
        play(sc, alpha)


def _play_game(kind: str, sc, trials=100, seed=1, level=AttackLevel.SCOA, rounds=None):
    """One of the three games with RandomGuesser, each argument replaceable."""
    if kind == "acca":
        return acca_loop(sc, RandomGuesser(), trials, seed, rounds=rounds)
    play = run_game if kind == "detection" else message_recovery_game
    return play(sc, RandomGuesser(), level, trials, seed)


@pytest.mark.parametrize("kind", ["detection", "recovery", "acca"])
@pytest.mark.parametrize(
    "arg, value",
    [("trials", 100.5), ("trials", "100"), ("trials", np.int64(100)), ("seed", True)],
)
def test_games_refuse_non_int_trials_and_seed(kind, arg, value):
    sc = synthetic_scenario(T=6, N=2, world_size=12, seed=1)
    with pytest.raises(InvalidConfig, match=arg):
        _play_game(kind, sc, **{arg: value})


@pytest.mark.parametrize("rounds", [2.5, True, 0])
def test_acca_refuses_bad_rounds(rounds):
    sc = synthetic_scenario(T=6, N=2, world_size=12, seed=1)
    with pytest.raises(InvalidConfig, match="rounds"):
        _play_game("acca", sc, rounds=rounds)


@pytest.mark.parametrize("kind", ["detection", "recovery"])
@pytest.mark.parametrize("level", [2, "kca", None])
def test_games_refuse_a_level_that_is_not_an_attack_level(kind, level):
    sc = synthetic_scenario(T=6, N=2, world_size=12, seed=1)
    with pytest.raises(InvalidConfig, match="level"):
        _play_game(kind, sc, level=level)
