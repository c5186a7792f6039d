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

from ..divergence import EmpiricalDistribution, js
from ..errors import InvalidConfig
from ..library import CoverId
from ..permcodec import Arrangement, arrangement_to_bits
from ..bits import xor_bits
from ..stego import StegoSequence
from .game import Challenge, Knowledge, LABEL_NATURAL, LABEL_STEGO, _random_bits


class RandomGuesser:
    """Fair coin on detection, uniform bits on recovery; the floor."""

    name = "random"

    def learn(self, knowledge: Knowledge, state: object | None = None):
        return knowledge

    def guess(self, challenge: Challenge, state) -> str:
        knowledge: Knowledge = state
        return LABEL_STEGO if knowledge.rng.integers(0, 2) else LABEL_NATURAL

    def recover(self, sequence: StegoSequence, state) -> str:
        knowledge: Knowledge = state
        return _random_bits(knowledge.rng, knowledge.payload_bits)


class KCAMembership:
    """Flags a challenge as stego when enough of its ids sit in the leak.

    With the full library leaked and a world pool disjoint from it, the
    id-set test is exact: true-positive 1, false-positive 0.
    """

    name = "kca-membership"

    def __init__(self, threshold: float = 1.0):
        self.threshold = threshold

    def learn(self, knowledge: Knowledge, state: object | None = None):
        known: set[CoverId] = set(state["known"]) if isinstance(state, dict) else set()
        known.update(knowledge.leaked_ids)
        return {"known": known, "knowledge": knowledge}

    def guess(self, challenge: Challenge, state) -> str:
        known = state["known"]
        if not challenge.ids:
            return LABEL_NATURAL
        inside = sum(1 for cid in challenge.ids if cid in known)
        return LABEL_STEGO if inside / len(challenge.ids) >= self.threshold else LABEL_NATURAL

    def recover(self, sequence: StegoSequence, state) -> str:
        knowledge: Knowledge = state["knowledge"]
        return _random_bits(knowledge.rng, knowledge.payload_bits)


def _byte_counts(blob: bytes) -> np.ndarray:
    return np.bincount(np.frombuffer(blob, dtype=np.uint8), minlength=256)


_BYTE_EDGES = np.arange(257, dtype=float) - 0.5


def _dist_from_counts(counts: np.ndarray) -> EmpiricalDistribution:
    total = int(counts.sum())
    return EmpiricalDistribution(edges=_BYTE_EDGES, masses=counts / total, n_samples=total)


class SCOAHistogram:
    """Channel-statistics detector: byte-histogram distance to a world model.

    Learns a pooled byte distribution from a world-pool sample, calibrates a
    null of sequence scores on self-drawn natural sequences, and flags a
    challenge whose mean per-cover distance exceeds the null's upper
    percentile.  Against selection-based hiding the challenge covers are
    themselves natural, so this stays at chance level by design.
    """

    name = "scoa-histogram"

    def __init__(self, model_sample: int = 64, null_draws: int = 64, percentile: float = 99.0):
        self.model_sample = model_sample
        self.null_draws = null_draws
        self.percentile = percentile
        self._count_cache: dict[CoverId, np.ndarray] = {}

    def _counts(self, cid: CoverId, knowledge: Knowledge) -> np.ndarray:
        cached = self._count_cache.get(cid)
        if cached is None:
            cached = _byte_counts(knowledge.content(cid))
            self._count_cache[cid] = cached
        return cached

    def _sequence_score(self, ids: Iterable[CoverId], model: EmpiricalDistribution, knowledge: Knowledge) -> float:
        scores = [
            js(_dist_from_counts(self._counts(cid, knowledge)), model) for cid in ids
        ]
        return float(np.mean(scores))

    def learn(self, knowledge: Knowledge, state: object | None = None):
        rng = knowledge.rng
        world = knowledge.world_ids
        k = min(self.model_sample, len(world))
        sample = [world[i] for i in rng.choice(len(world), size=k, replace=False)]
        model = _dist_from_counts(
            np.sum([self._counts(cid, knowledge) for cid in sample], axis=0)
        )
        null_scores = []
        for _ in range(self.null_draws):
            picks = rng.choice(len(world), size=knowledge.N, replace=False)
            null_scores.append(
                self._sequence_score((world[i] for i in picks), model, knowledge)
            )
        threshold = float(np.percentile(null_scores, self.percentile))
        return {"model": model, "threshold": threshold, "knowledge": knowledge}

    def guess(self, challenge: Challenge, state) -> str:
        knowledge: Knowledge = state["knowledge"]
        score = self._sequence_score(challenge.ids, state["model"], knowledge)
        return LABEL_STEGO if score > state["threshold"] else LABEL_NATURAL

    def recover(self, sequence: StegoSequence, state) -> str:
        knowledge: Knowledge = state["knowledge"]
        return _random_bits(knowledge.rng, knowledge.payload_bits)


class CCAReplay:
    """Maps the library through the embed oracle, then tests membership.

    Every oracle output exposes N library ids, so a modest call budget
    recovers most of the secret library; this strictly subsumes what the
    leak alone provides.
    """

    name = "cca-replay"

    def __init__(self, oracle_calls: int = 32):
        self.oracle_calls = oracle_calls

    def learn(self, knowledge: Knowledge, state: object | None = None):
        known: set[CoverId] = set(state["known"]) if isinstance(state, dict) else set()
        outputs: set[tuple[CoverId, ...]] = (
            set(state["outputs"]) if isinstance(state, dict) else set()
        )
        known.update(knowledge.leaked_ids)
        for seq in knowledge.observed:
            known.update(seq.ids)
            outputs.add(seq.ids)
        oracle = knowledge.embed_oracle
        if oracle is not None:
            budget = min(self.oracle_calls, getattr(oracle, "remaining", self.oracle_calls))
            for _ in range(budget):
                seq = oracle(_random_bits(knowledge.rng, knowledge.payload_bits))
                known.update(seq.ids)
                outputs.add(seq.ids)
        return {"known": known, "outputs": outputs, "knowledge": knowledge}

    def guess(self, challenge: Challenge, state) -> str:
        known, outputs = state["known"], state["outputs"]
        if challenge.ids in outputs:
            return LABEL_STEGO
        if known and all(cid in known for cid in challenge.ids):
            return LABEL_STEGO
        return LABEL_NATURAL

    def recover(self, sequence: StegoSequence, state) -> str:
        knowledge: Knowledge = state["knowledge"]
        return _random_bits(knowledge.rng, knowledge.payload_bits)


class KeyedRecovery:
    """Recovery ceiling: rebuilds the public decode path from a full library
    leak plus a leaked key.  With the exact key, agreement is 1; with one
    key bit flipped, exactly one payload bit inverts per message."""

    name = "keyed-recovery"

    def learn(self, knowledge: Knowledge, state: object | None = None):
        order = tuple(sorted(knowledge.leaked_ids))
        return {
            "index": {cid: i for i, cid in enumerate(order)},
            "T": len(order),
            "key": knowledge.leaked_key,
            "l": knowledge.payload_bits,
            "knowledge": knowledge,
        }

    def guess(self, challenge: Challenge, state) -> str:
        index = state["index"]
        if index and all(cid in index for cid in challenge.ids):
            return LABEL_STEGO
        return LABEL_NATURAL

    def recover(self, sequence: StegoSequence, state) -> str:
        if state["key"] is None or not state["index"]:
            raise ValueError("no leaked key or library to decode with")
        indices = tuple(state["index"][cid] for cid in sequence.ids)
        payload = arrangement_to_bits(Arrangement(indices=indices, T=state["T"]))
        return xor_bits(payload, state["key"])


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
