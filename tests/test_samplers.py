"""Sampler canary: a few pinned draws of each numpy ``Generator`` sampler
that a seeded output passes through.

numpy keeps its bit generators' raw streams fixed between releases, but
``Generator``'s distribution algorithms may change (NEP 19).  The goldens
and the ``ACCEPTANCE`` numbers were taken under numpy 2.4.6.  If a numpy
release draws one of these samplers differently, many goldens fail at once
and none of them says why; this test names the sampler that moved and the
goldens that depend on it.  It explains such a failure and skips nothing.

Each draw has the shape of a call in ``src/``, at a fixed Philox key, and is
pinned by the first 16 hex digits of the SHA-256 of its dtype, shape and
bytes.

A detection challenge reads its coin from a raw Philox word as numpy's
``integers(0, 2)`` would.  Up to ``game._FLOYD_N`` natural picks,
``game._challenge`` reads them from raw words too, as numpy's
``choice(W, N, replace=False)`` would; past it, numpy's own ``choice``
draws them, handed the coin word's unread high half.  The tests at the end
hold both paths to numpy's own draws, the referee, at many trial counters.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from stegogame.attackgame import game

NUMPY_OF_THE_GOLDENS = "2.4.6"

# sampler -> (Philox key, its draws, the digest of their bytes, the goldens that depend on it)
SAMPLERS = {
    "integers": (
        101,
        lambda gen: [
            gen.integers(0, 2),  # the game's fair coin, read from raw words by game._challenge
            gen.integers(0, 256, size=24, dtype=np.uint8),  # synthetic cover bytes (scenario)
            gen.integers(0, np.arange(45, 49)[:, None], size=(4, 6)),  # Floyd steps (SCOAHistogram)
            gen.integers(0, 16, size=12),  # criterion 5's key values
        ],
        "498ee56ed3c34460",
        "the game's fair coin and every synthetic scenario's covers: the golden game rows "
        "(tests/test_attackgame.py GOLDEN), GOLDEN_ATTACK and ACCEPTANCE 5 and 6",
    ),
    "choice": (
        102,
        # the SCOA world model, and the natural challenges of more than game._FLOYD_N picks
        # (game._challenge reads smaller ones from raw words)
        lambda gen: [gen.choice(48, size=4, replace=False), gen.choice(200, size=64, replace=False)],
        "c55aa3951220ec7f",
        "SCOAHistogram's world model: the golden game rows (tests/test_attackgame.py GOLDEN), "
        "GOLDEN_ATTACK and ACCEPTANCE 6; and every natural challenge of more than "
        f"{game._FLOYD_N} picks, which no golden plays",
    ),
    "permutation": (
        103,
        lambda gen: [gen.permutation(16), gen.permutation(64)],
        "6f6776dae26c4381",
        "the scenario order and the leak order: the golden game rows (tests/test_attackgame.py GOLDEN), "
        "GOLDEN_ATTACK and ACCEPTANCE 6",
    ),
    "multinomial": (
        104,
        lambda gen: [gen.multinomial(150_000, [0.1, 0.25, 0.3, 0.35]), gen.multinomial(7, [0.5, 0.5])],
        "c61efafec2df5592",
        "the Monte-Carlo budget route: GOLDEN_BUDGET's p_mc and mc_se, the budget MC tests "
        "and ACCEPTANCE 3",
    ),
    "hypergeometric": (
        105,
        # one state's single trials, as budget._occupancy draws them, then the
        # array form of the tests' reference chain (tests/helpers.py occupancy_reference)
        lambda gen: [gen.hypergeometric(13, 7, 4, size=5), gen.hypergeometric(0, 20, 4, size=1),
                     gen.hypergeometric(5000, 5000, 5000, size=3),
                     gen.hypergeometric(np.array([20, 17, 9, 3]), np.array([0, 3, 11, 17]), 4)],
        "04a43a1cc7193b91",
        "the Monte-Carlo budget route: GOLDEN_BUDGET's p_mc and mc_se, the budget MC tests "
        "and ACCEPTANCE 3",
    ),
    "multivariate_hypergeometric": (
        106,
        lambda gen: [gen.multivariate_hypergeometric(np.array([30, 20, 11, 5, 1]), 40, size=3, method="marginals")],
        "fe06119c96738f8d",
        "every permutation null: GOLDEN_DIVERGENCE's auto rows and the README example "
        "(tests/test_cli.py), GOLDEN_4000_RUNS (tests/test_divergence.py) and ACCEPTANCE 4",
    ),
}


def digest(sampler: str) -> str:
    """The first 16 hex digits of the SHA-256 of ``sampler``'s pinned draws."""
    key, draws, _, _ = SAMPLERS[sampler]
    h = hashlib.sha256()
    for draw in draws(np.random.Generator(np.random.Philox(key=key))):
        arr = np.asarray(draw)
        h.update(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())
    return h.hexdigest()[:16]


def check(sampler: str) -> None:
    """AssertionError, naming the sampler and its goldens, when its draws moved."""
    _, _, pinned, goldens = SAMPLERS[sampler]
    got = digest(sampler)
    assert got == pinned, (
        f"numpy {np.__version__}'s Generator.{sampler} draws differently from numpy "
        f"{NUMPY_OF_THE_GOLDENS}, where the goldens were taken (digest {got}, pinned {pinned}); "
        f"these goldens depend on it: {goldens}"
    )


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_sampler_draws_as_when_the_goldens_were_taken(sampler):
    check(sampler)


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_a_changed_sampler_is_named(monkeypatch, sampler):
    """A sampler that draws differently, here one that skips a Philox word
    first, fails the canary with a message that names it and its goldens,
    and no other sampler's check."""
    real = np.random.Generator

    def skipping(self, *args, **kwargs):
        self.bit_generator.advance(1)
        return getattr(real, sampler)(self, *args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", type("Changed", (real,), {sampler: skipping}))
    with pytest.raises(AssertionError, match=f"Generator.{sampler} draws differently") as failure:
        check(sampler)
    assert SAMPLERS[sampler][3] in str(failure.value)
    for other in set(SAMPLERS) - {sampler}:
        check(other)


# (W, N) pairs: W = N, W = 1 and the game's own shapes, read from raw words;
# the last shape read from raw words and the first that numpy's choice draws,
# at _FLOYD_N and _FLOYD_N + 1 picks; and, in numpy's choice, both of its
# branches around its switch to a tail shuffle (W > 10000 and N > W // 50)
CHALLENGE_SHAPES = [(1, 1), (4, 4), (16, 4), (64, 4), (64, game._FLOYD_N), (64, game._FLOYD_N + 1),
                    (10000, 300), (10001, 200), (20000, 400), (20000, 401)]
CHALLENGE_KEY = 2024


def numpy_challenge(gen: np.random.Generator, l: int, W: int, N: int):
    """The challenge as numpy draws it: the coin by ``integers(0, 2)``, then
    the payload's raw words or ``choice(W, N, replace=False)``."""
    if gen.integers(0, 2):
        return True, game._random_values(gen, l, 1)[0]
    return False, gen.choice(W, size=N, replace=False).tolist()


def at_counter(trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=CHALLENGE_KEY, counter=trial << 128))


@pytest.mark.parametrize("W, N", CHALLENGE_SHAPES)
def test_challenge_draws_as_numpy(W, N):
    """At 1,000 trial counters the raw-word challenge is numpy's, coin,
    payload and picks alike; the picks are plain ints, distinct and below W."""
    sides = set()
    for trial in range(1000):
        l = (15, 0, 130)[trial % 3]  # one raw word per payload, none, and three
        got = game._challenge(at_counter(trial), l, W, N)
        assert got == numpy_challenge(at_counter(trial), l, W, N), (W, N, trial)
        sides.add(got[0])
        if not got[0]:
            assert all(type(i) is int for i in got[1]) and len(set(got[1])) == N and max(got[1]) < W
    assert sides == {True, False}


@pytest.mark.parametrize("W, N, trials", [(game._FLOYD_N, game._FLOYD_N, 1000), (64, 64, 1000),
                                           (10001, 10001, 20)])
def test_challenge_draws_as_numpy_where_w_equals_n(W, N, trials):
    """A pool of exactly N covers: on the raw-word path, Floyd's first step
    has a bound of 0 and draws no half; numpy's choice, handed the coin
    word's high half, draws the larger pools, and past W = 10000 takes the
    tail shuffle even though N is the whole pool."""
    for trial in range(trials):
        assert game._challenge(at_counter(trial), 15, W, N) == numpy_challenge(at_counter(trial), 15, W, N)


@pytest.mark.parametrize("W, N", [(2**31 + 1, 4), (2**31 + 1, game._FLOYD_N), (2**32 - 1, 3)])
def test_challenge_draws_as_numpy_at_32_bit_bounds(W, N):
    """The raw-word path's rejections: bounds near 2**31, where Lemire's
    method rejects about half of its draws, up to the most picks that path
    reads, and bounds up to 2**32 - 2, the largest a 32-bit draw serves."""
    for trial in range(200):
        assert game._challenge(at_counter(trial), 15, W, N) == numpy_challenge(at_counter(trial), 15, W, N)


def halves_drawn(gen: np.random.Generator, trial: int) -> int:
    """The 32-bit halves numpy has drawn from trial ``trial``'s stream: twice
    the raw words read, less a buffered half."""
    state, probe, words = gen.bit_generator.state, at_counter(trial).bit_generator, 0
    while repr(probe.state["state"]) != repr(state["state"]) or probe.state["buffer_pos"] != state["buffer_pos"]:
        probe.random_raw()
        words += 1
    return 2 * words - state["has_uint32"]


@pytest.mark.parametrize("W, N, trial", [(10000, 300, 1408), (20000, 401, 3475)])
def test_challenge_follows_lemires_rejections(W, N, trial):
    """Pinned counters, found offline, on which one of numpy's bounded draws
    is rejected and drawn again: Floyd's branch at (10000, 300), the tail
    shuffle at (20000, 401).  numpy reads more halves there than one per
    draw (one for the coin, 2N - 1 for Floyd and its shuffle, N for the tail
    shuffle).  Both shapes lie past ``_FLOYD_N``, so numpy's own choice draws
    them from the coin word's high half on, and the challenge still equals
    numpy's picks.  The raw-word path's rejections are covered by the
    32-bit-bound cases above."""
    gen = at_counter(trial)
    expected = numpy_challenge(gen, 15, W, N)
    assert expected[0] is False
    draws = 2 * N - 1 if W <= 10000 or N <= W // 50 else N
    assert halves_drawn(gen, trial) > 1 + draws
    assert game._challenge(at_counter(trial), 15, W, N) == expected
