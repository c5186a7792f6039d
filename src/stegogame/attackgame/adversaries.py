"""Reference adversaries, one per knowledge tier.

These are calibration points for the harness, not serious steganalysis:
a coin-flipper (floor), a histogram modeler (what channel statistics alone
can see), a leak-membership checker (what a leaked library subset buys),
an oracle replayer (what embed access buys), and a key-holding decoder
(the recovery ceiling).  Each is pure given (knowledge, challenge, the
harness-supplied rng); instance attributes are only content-addressed
caches that never change an answer.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

# xor_bits and arrangement_to_bits are not called here; perfbench/tracer.py
# looks them up in this module by name.
from ..bits import xor_bits  # noqa: F401
from ..divergence import EmpiricalDistribution, byte_counts, js, normalize_byte_counts
from ..errors import InvalidConfig
from ..library import CoverId
from ..permcodec import Arrangement, arrangement_to_bits  # noqa: F401
from ..stego import StegoKey, StegoSequence, decode
from .game import Challenge, Knowledge, LABEL_NATURAL, LABEL_STEGO, _random_bits

# The rules several adversaries share are plain functions assigned as class
# attributes, never inherited: perfbench/tracer.py wraps learn, guess and
# recover in each class's own __dict__.


def _keyless_recover(self, sequence: StegoSequence, state) -> str:
    """Uniform bits: without the key the sequence says nothing of them."""
    knowledge: Knowledge = state["knowledge"]
    return _random_bits(knowledge.rng, knowledge.payload_bits)


def _membership_guess(self, challenge: Challenge, state) -> str:
    """Stego when every id of the challenge is a known library id."""
    known = state["known"]
    if known and all(cid in known for cid in challenge.ids):
        return LABEL_STEGO
    return LABEL_NATURAL


class RandomGuesser:
    """Fair coin on detection, uniform bits on recovery; the floor."""

    name = "random"

    def learn(self, knowledge: Knowledge, state: object | None = None):
        return {"knowledge": knowledge}

    def guess(self, challenge: Challenge, state) -> str:
        return LABEL_STEGO if state["knowledge"].rng.integers(0, 2) else LABEL_NATURAL

    recover = _keyless_recover


class KCAMembership:
    """Flags a challenge as stego when all of its ids sit in the leak.

    With the full library leaked and a world pool disjoint from it, the
    id-set test is exact: true-positive 1, false-positive 0.
    """

    name = "kca-membership"

    def learn(self, knowledge: Knowledge, state: object | None = None):
        known: set[CoverId] = set(state["known"]) if isinstance(state, dict) else set()
        known.update(knowledge.leaked_ids)
        return {"known": known, "knowledge": knowledge}

    guess = _membership_guess
    recover = _keyless_recover


class SCOAHistogram:
    """Channel-statistics detector: byte-histogram distance to a world model.

    Learns a pooled byte distribution from a world-pool sample, calibrates a
    null of sequence scores on self-drawn natural sequences, and flags a
    challenge whose mean per-cover distance exceeds the null's upper
    percentile.  Against selection-based hiding the challenge covers are
    themselves natural, so this stays at chance level by design.

    Each cover's distance to a model is memoised by the model's content (its
    pooled byte counts), across learns: trials whose model samples cover the
    same bytes, as every trial does once the world pool has no more than
    ``model_sample`` covers, score each cover once between them.  Only the
    last model's scores are kept, so memory stays bounded when the model
    changes from trial to trial.
    """

    name = "scoa-histogram"

    def __init__(self, model_sample: int = 64, null_draws: int = 64, percentile: float = 99.0):
        self.model_sample = model_sample
        self.null_draws = null_draws
        self.percentile = percentile
        self._covers: dict[CoverId, tuple[np.ndarray, EmpiricalDistribution]] = {}
        self._model_key: bytes | None = None  # the last model's byte counts
        self._scores: dict[CoverId, float] = {}  # each cover's distance to it

    def _cover(self, cid: CoverId, knowledge: Knowledge) -> tuple[np.ndarray, EmpiricalDistribution]:
        """Byte counts and histogram of a cover, read and validated once."""
        cached = self._covers.get(cid)
        if cached is None:
            counts = byte_counts(knowledge.content(cid))
            cached = self._covers[cid] = (counts, normalize_byte_counts(counts))
        return cached

    def _cover_scores(self, ids: Iterable[CoverId], state) -> list[float]:
        """Each cover's distance to the learned model, computed on first use."""
        scores, model, knowledge = state["scores"], state["model"], state["knowledge"]
        per_cover = []
        for cid in ids:
            score = scores.get(cid)
            if score is None:
                score = scores[cid] = js(self._cover(cid, knowledge)[1], model)
            per_cover.append(score)
        return per_cover

    def learn(self, knowledge: Knowledge, state: object | None = None):
        rng = knowledge.rng
        world = knowledge.world_ids
        k = min(self.model_sample, len(world))
        sample = [world[i] for i in rng.choice(len(world), size=k, replace=False)]
        model_counts = np.sum([self._cover(cid, knowledge)[0] for cid in sample], axis=0)
        key = model_counts.tobytes()
        if key != self._model_key:
            self._model_key, self._scores = key, {}
        learned = {
            "model": normalize_byte_counts(model_counts),
            "scores": self._scores,
            "knowledge": knowledge,
        }
        null_picks = [
            rng.choice(len(world), size=knowledge.N, replace=False) for _ in range(self.null_draws)
        ]
        null_scores = np.array(
            [self._cover_scores((world[i] for i in picks), learned) for picks in null_picks]
        ).mean(axis=1)
        learned["threshold"] = float(np.percentile(null_scores, self.percentile))
        return learned

    def guess(self, challenge: Challenge, state) -> str:
        score = float(np.mean(self._cover_scores(challenge.ids, state)))
        return LABEL_STEGO if score > state["threshold"] else LABEL_NATURAL

    recover = _keyless_recover


class CCAReplay:
    """Maps the library through the embed oracle, then tests membership.

    Every observed sequence and oracle output exposes N library ids, which
    join the leaked ones; a challenge is stego when all of its ids are
    known, so a replayed output always is.  A modest call budget recovers
    most of the secret library; this strictly subsumes what the leak alone
    provides.
    """

    name = "cca-replay"

    def __init__(self, oracle_calls: int = 32):
        self.oracle_calls = oracle_calls

    def learn(self, knowledge: Knowledge, state: object | None = None):
        known: set[CoverId] = set(state["known"]) if isinstance(state, dict) else set()
        known.update(knowledge.leaked_ids)
        for seq in knowledge.observed:
            known.update(seq.ids)
        oracle = knowledge.embed_oracle
        if oracle is not None:
            budget = min(self.oracle_calls, getattr(oracle, "remaining", self.oracle_calls))
            for _ in range(budget):
                known.update(oracle(_random_bits(knowledge.rng, knowledge.payload_bits)).ids)
        return {"known": known, "knowledge": knowledge}

    guess = _membership_guess
    recover = _keyless_recover


class KeyedRecovery:
    """Recovery ceiling: rebuilds the public decode path from a full library
    leak plus a leaked key.  With the exact key, agreement is 1; with one
    key bit flipped, exactly one payload bit inverts per message."""

    name = "keyed-recovery"

    def learn(self, knowledge: Knowledge, state: object | None = None):
        key = knowledge.leaked_key
        return {
            "known": {cid: i for i, cid in enumerate(sorted(knowledge.leaked_ids))},
            "key": None if key is None else StegoKey(key),
        }

    guess = _membership_guess

    def recover(self, sequence: StegoSequence, state) -> str:
        known = state["known"]
        if state["key"] is None or not known:
            raise ValueError("no leaked key or library to decode with")
        indices = tuple(known[cid] for cid in sequence.ids)
        return decode(Arrangement(indices=indices, T=len(known)), state["key"]).bits


ADVERSARIES = {
    cls.name: cls
    for cls in (RandomGuesser, KCAMembership, SCOAHistogram, CCAReplay, KeyedRecovery)
}


def make_adversary(name: str):
    try:
        return ADVERSARIES[name]()
    except KeyError:
        raise InvalidConfig(
            f"unknown adversary {name!r}; choose from {sorted(ADVERSARIES)}"
        ) from None
