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
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

NUMPY_OF_THE_GOLDENS = "2.4.6"

# sampler -> (Philox key, its draws, the digest of their bytes, the goldens that depend on it)
SAMPLERS = {
    "integers": (
        101,
        lambda gen: [
            gen.integers(0, 2),  # the game's fair coin (game._score_detection)
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
        lambda gen: [gen.choice(48, size=4, replace=False), gen.choice(200, size=64, replace=False)],
        "c55aa3951220ec7f",
        "the natural challenges and SCOAHistogram's world model: the golden game rows "
        "(tests/test_attackgame.py GOLDEN), GOLDEN_ATTACK and ACCEPTANCE 6",
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
        lambda gen: [gen.hypergeometric(np.array([20, 17, 9, 3]), np.array([0, 3, 11, 17]), 4)],
        "3a6c8f9264cfb26d",
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
