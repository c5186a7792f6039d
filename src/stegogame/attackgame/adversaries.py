"""Reference adversaries, one per knowledge tier.

These are calibration points for the harness, not serious steganalysis:
a coin-flipper (floor), a histogram modeler (what channel statistics alone
can see), and an id-membership family that differs only in what it knows:
a leaked library subset, plus traffic and embed access, or plus a leaked key
that it decodes with (the recovery ceiling).  Each is pure given (knowledge,
challenge, the harness-supplied rng); instance attributes are only
content-addressed caches that never change an answer.
"""

from __future__ import annotations

import numpy as np

# xor_bits, js and arrangement_to_bits are not called here; perfbench/tracer.py
# looks them up in this module by name.
from ..bits import xor_bits  # noqa: F401
from ..divergence import _js, _percentile, js  # noqa: F401
from ..errors import EmptySamples, InvalidConfig, check_choice
from ..library import CoverId
from ..permcodec import arrangement_to_bits  # noqa: F401
from ..stego import StegoSequence, _decode
from .game import Challenge, Knowledge, LABEL_NATURAL, LABEL_STEGO, _random_values

# The rules several adversaries share are plain functions assigned as class
# attributes, never inherited: perfbench/tracer.py wraps learn, guess and
# recover in each class's own __dict__.  Every preset constructs with no arguments
# and says in class attributes what it reads, so a variant is one more class.


def _learn_ids(self, knowledge: Knowledge, state: object | None = None):
    """The last state's ids and the leak's; a replaying preset adds every observed
    sequence's and those of up to ``oracle_calls`` embed-oracle answers."""
    known: set[CoverId] = set(state["known"]) if isinstance(state, dict) else set()
    known.update(knowledge.leaked_ids)
    if self.replays:
        known.update(*(seq.ids for seq in knowledge.observed))
        oracle = knowledge.embed_oracle
        if oracle is not None:
            budget = min(self.oracle_calls, getattr(oracle, "remaining", self.oracle_calls))
            known.update(*(oracle(p).ids for p in _random_values(knowledge.rng, knowledge.payload_bits, budget)))
    return {"known": known, "knowledge": knowledge}


def _keyless_recover(self, sequence: StegoSequence, state) -> int:
    """A uniform payload: without the key the sequence says nothing of it."""
    knowledge: Knowledge = state["knowledge"]
    return _random_values(knowledge.rng, knowledge.payload_bits, 1)[0]


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
    """Knows the leak alone.  With the full library leaked and a world pool
    disjoint from it, the id-set test is exact: true-positive 1, false-positive 0."""

    name = "kca-membership"
    replays = False

    learn, guess, recover = _learn_ids, _membership_guess, _keyless_recover


class SCOAHistogram:
    """Channel-statistics detector: byte-histogram distance to a world model.

    Pools the byte counts of up to ``model_sample`` world covers into a
    model, calibrates a null of sequence scores on self-drawn natural
    sequences, and flags a challenge whose mean per-cover distance exceeds
    the null's upper percentile.  Every cover is scored out of sample: a
    sampled one against the model less its own counts (leave-one-out), any
    other against the whole model; scored in sample, the null's covers sat
    closer to the model than a stego challenge's library covers.  Against
    selection-based hiding the challenge covers are themselves natural, so
    this stays at chance level by design.

    Each cover is read once into its byte counts, the world's into a W x 256
    matrix.  Every distance, to a world cover or any other, is one row of the
    batch kernel ``_js``, which rounds as ``js`` does; distances are memoised
    by the last sample's membership, the null's Floyd steps are one draw and
    its percentile is numpy's without ``np.percentile``: none changes an answer.
    """

    name = "scoa-histogram"
    model_sample = 64  # at least 2: leave-one-out needs two
    null_draws = 64
    percentile = 99.0

    def __init__(self):
        self._counts: dict[CoverId, np.ndarray] = {}  # each cover's byte counts, read once
        self._world: dict = {}  # the last world pool's ids, row of each id, counts and totals
        self._memo: dict = {}  # that pool, the last model on it and distances to that model

    def _byte_counts(self, cid: CoverId, knowledge: Knowledge) -> np.ndarray:
        if cid not in self._counts:
            counts = np.bincount(np.frombuffer(knowledge.content(cid), dtype=np.uint8), minlength=256)
            if not counts.any():
                raise EmptySamples(f"cover {cid} holds no bytes")
            self._counts[cid] = counts
        return self._counts[cid]

    def _world_matrix(self, knowledge: Knowledge) -> dict:
        ids = knowledge.world_ids
        if self._world.get("ids") != ids:
            counts = np.array([self._byte_counts(cid, knowledge) for cid in ids])
            self._counts.update(zip(ids, counts))  # rows of the matrix, not copies of them
            row_of = {cid: i for i, cid in enumerate(ids)}
            self._world = {"ids": ids, "row_of": row_of, "counts": counts, "totals": counts.sum(axis=1)}
        return self._world

    @staticmethod
    def _null_picks(rng: np.random.Generator, W: int, N: int, draws: int) -> np.ndarray:
        """``draws`` uniform N-subsets of range(W), one per row, by Floyd's algorithm (Bentley &
        Floyd, 1987): step c, for every row at once, is row c of one draw, as one call per step."""
        picks = rng.integers(0, np.arange(W - N + 1, W + 1)[:, None], size=(N, draws))
        for c in range(1, N):
            np.copyto(picks[c], W - N + c, where=(picks[:c] == picks[c]).any(axis=0))
        return np.ascontiguousarray(picks.T)  # C order: mean(axis=1) then sums as before

    @staticmethod
    def _world_scores(rows, memo: dict) -> None:
        """Fills the memo's distances of ``rows`` not in it by one kernel call."""
        scores, counts, todo = memo["scores"], memo["counts"], np.zeros(len(memo["scores"]), bool)
        todo[rows] = True
        todo = np.flatnonzero(todo & np.isnan(scores))  # sorted, as np.unique was
        if todo.size:
            model = memo["model_counts"] - counts[todo] * memo["member"][todo, None]
            model = model / model.sum(axis=1, keepdims=True)  # drops the int rows before the kernel
            scores[todo] = _js(counts[todo] / memo["totals"][todo, None], model)
            memo["missing"] -= todo.size

    def learn(self, knowledge: Knowledge, state: object | None = None):
        rng, world = knowledge.rng, self._world_matrix(knowledge)
        W = len(world["ids"])
        member = np.zeros(W, dtype=bool)
        member[rng.choice(W, size=min(self.model_sample, W), replace=False)] = True
        key = (world["ids"], member.tobytes())
        if self._memo.get("key") != key:
            model_counts = world["counts"][member].sum(axis=0)
            self._memo = {
                **world, "key": key, "member": member, "model_counts": model_counts,
                "model": model_counts / model_counts.sum(),  # masses of the whole sample
                "scores": np.full(W, np.nan),  # each world cover's distance, once computed
                "missing": W,  # how many of them are not
                "outside": {},  # distances of covers outside the world pool
            }
        picks = self._null_picks(rng, W, knowledge.N, self.null_draws)
        if self._memo["missing"]:
            self._world_scores(picks, self._memo)
        threshold = _percentile(self._memo["scores"][picks].mean(axis=1), self.percentile)
        return {"memo": self._memo, "threshold": threshold, "knowledge": knowledge}

    def _outside_score(self, cid: CoverId, state) -> float:
        """Distance of a cover outside the world pool to the whole model."""
        outside = state["memo"]["outside"]
        if cid not in outside:
            counts = self._byte_counts(cid, state["knowledge"])
            outside[cid] = _js((counts / counts.sum())[None], state["memo"]["model"][None])[0]
        return outside[cid]

    def guess(self, challenge: Challenge, state) -> str:
        ids, memo = challenge.ids, state["memo"]
        row_of, scores = memo["row_of"], memo["scores"]
        if memo["missing"]:
            self._world_scores([row_of[c] for c in ids if c in row_of], memo)
        per_cover = [scores[row_of[c]] if c in row_of else self._outside_score(c, state) for c in ids]
        mean = float(np.add.reduce(per_cover)) / len(per_cover)  # np.mean's sum and division, bit for bit
        return LABEL_STEGO if mean > state["threshold"] else LABEL_NATURAL

    recover = _keyless_recover


class CCAReplay:
    """Knows the leak, the observed traffic and the embed oracle's answers: each
    sequence exposes N library ids, so a replayed output always reads stego and
    a modest call budget recovers most of the secret library."""

    name = "cca-replay"
    replays = True
    oracle_calls = 32

    learn, guess, recover = _learn_ids, _membership_guess, _keyless_recover


class KeyedRecovery:
    """Recovery ceiling: the public decode over the known ids in their sorted,
    canonical order, under a leaked key.  From a full leak and the exact key,
    agreement is 1; with one key bit flipped, one payload bit inverts per message."""

    name = "keyed-recovery"
    replays = False

    learn, guess = _learn_ids, _membership_guess

    def recover(self, sequence: StegoSequence, state) -> int:
        known, key = state["known"], state["knowledge"].leaked_key
        if key is None or not known:
            raise ValueError("no leaked key or library to decode with")
        index = {cid: i for i, cid in enumerate(sorted(known))}
        return _decode(sequence, index.__getitem__, len(index), key)[0]


ADVERSARIES = {
    cls.name: cls
    for cls in (RandomGuesser, KCAMembership, SCOAHistogram, CCAReplay, KeyedRecovery)
}


def make_adversary(name: str):
    check_choice("adversary", name, sorted(ADVERSARIES), InvalidConfig)
    return ADVERSARIES[name]()
