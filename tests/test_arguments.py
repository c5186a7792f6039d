"""One rule per argument kind, across the public API.

An integer argument is exactly an ``int``: a float, a bool, a string, None
or a numpy int is refused.  A real argument is a finite ``numbers.Real``
other than a bool.  Every refusal is a StegogameError, never a TypeError,
ValueError or AttributeError escaping from deeper in the code: an int past
Python's 4,300-digit ``str`` limit, below an argument's lower bound or above
its upper one, is refused with a message that can print it.  A name from a
fixed set (a metric, a level, an adversary) is refused unless it is one, as a
``str``: a list, a dict or a numpy array too, not hashed or compared into a
TypeError.
"""

import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stegogame import divergence
from stegogame.attackgame import (
    AttackLevel, RandomGuesser, acca_loop, make_adversary, message_recovery_game, run_game,
    synthetic_corpus, synthetic_scenario,
)
from stegogame.attackgame.scenario import MAX_OBSERVATIONS
from stegogame.bits import bits_to_int
from stegogame.budget import coverage_report, max_safe_uses, pr_coverage_mc
from stegogame.divergence import (
    MAX_BINS, MAX_RUNS, calibrate_epsilon, distinguishability_test, estimate_distribution,
)
from stegogame.errors import InvalidConfig, InvalidParams, StegogameError
from stegogame.library import library_from_manifest
from stegogame.permcodec import capacity
from stegogame.stego import Message, StegoKey, keygen, sequence_from_json

NOT_INTS = st.one_of(
    st.floats(), st.booleans(), st.text(max_size=3), st.none(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
NOT_REALS = st.one_of(
    st.booleans(), st.text(max_size=3), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
HUGE = 10**5000  # past the str limit; every int argument here has a lower bound above -HUGE
# each kind's strategy, and values it must always include
KINDS = {
    "int": (NOT_INTS, (2.0, True, "2", None, np.int64(2), math.nan, -HUGE)),
    # None asks for a default: a scenario's rounds, no Monte Carlo
    "int or None": (NOT_INTS.filter(lambda v: v is not None), (2.0, True, "2", np.int64(2), -HUGE)),
    "real": (NOT_REALS, (True, "0.5", None, math.nan, math.inf)),
    "level": (NOT_INTS | st.integers(), (2, "kca", None, True, np.int64(2), HUGE)),
    # not a str, unhashable, an array of valid names (whose == is an array), or no name
    "choice": (
        st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.binary(max_size=3),
            st.lists(st.text(max_size=3), max_size=2), st.dictionaries(st.text(max_size=3), st.none()),
            st.lists(st.sampled_from(["js", "kca", "random"]), min_size=1, max_size=2).map(np.array),
            st.text(max_size=3).map("?".__add__),
        ),
        (None, 2, HUGE, b"js", ["js"], {"kca": 1}, np.array(["js"]), np.array(["kca", "random"]), ""),
    ),
    # a pair of reals finite as floats, or None for the samples' range
    "support": (
        st.tuples(NOT_REALS, FINITE) | st.tuples(FINITE, NOT_REALS) | st.tuples(FINITE)
        | st.lists(FINITE, min_size=3, max_size=3) | st.floats() | st.text(max_size=3),
        ((0, HUGE), (-HUGE, 0.0), ("a", 3), (0.0, math.inf), (True, 3.0), (1.0,), 2.0, "ab"),
    ),
}

SCENARIO = synthetic_scenario(T=4, N=2, world_size=8, seed=0)
GAME = dict(scenario=SCENARIO, adversary=RandomGuesser(), level=AttackLevel.SCOA, trials=100,
            seed=1, alpha=0.01)
SAMPLES = dict(samples_a=[1.0, 2.0], samples_b=[3.0])

# (name, call, valid keyword arguments, {argument: kind})
CALLS = [
    ("capacity", capacity, dict(T=8, N=3), {"T": "int", "N": "int"}),
    ("keygen", keygen, dict(l=8), {"l": "int"}),
    *((cls.__name__, cls, dict(value=1, l=4), {"value": "int", "l": "int"})
      for cls in (Message, StegoKey)),
    ("max_safe_uses", max_safe_uses, dict(N=2, T=4, zeta=0.4),
     {"N": "int", "T": "int", "zeta": "real"}),
    ("coverage_report", coverage_report, dict(x=2, N=2, T=4, mc_trials=10, seed=0),
     {"x": "int", "N": "int", "T": "int", "mc_trials": "int or None", "seed": "int",
      "max_workers": "int or None"}),
    ("pr_coverage_mc", pr_coverage_mc, dict(x=2, N=2, T=4, trials=10, seed=0),
     {"x": "int", "N": "int", "T": "int", "trials": "int", "seed": "int"}),
    ("estimate_distribution", estimate_distribution, dict(samples=[1.0, 2.0], bins=4),
     {"bins": "int", "support": "support"}),
    ("calibrate_epsilon", calibrate_epsilon,
     dict(SAMPLES, bins=4, runs=4, percentile=99.0, seed=0),
     {"bins": "int", "runs": "int", "percentile": "real", "seed": "int", "metric": "choice"}),
    ("distinguishability_test", distinguishability_test, dict(SAMPLES, epsilon=0.1, bins=4),
     {"epsilon": "real", "bins": "int", "metric": "choice"}),
    ("AttackLevel.parse", AttackLevel.parse, dict(name="kca"), {"name": "choice"}),
    ("make_adversary", make_adversary, dict(name="random"), {"name": "choice"}),
    *((game.__name__, game, GAME,
       {"level": "level", "trials": "int", "seed": "int", "alpha": "real"})
      for game in (run_game, message_recovery_game)),
    ("acca_loop", acca_loop,
     dict(scenario=SCENARIO, adversary=RandomGuesser(), trials_per_round=100, seed=1, rounds=1,
          alpha=0.01),
     {"trials_per_round": "int", "seed": "int", "rounds": "int or None", "alpha": "real"}),
    ("synthetic_corpus", synthetic_corpus, dict(count=2, size=8, seed=0),
     {"count": "int", "size": "int", "seed": "int"}),
    ("synthetic_scenario", synthetic_scenario, dict(T=4, N=2, world_size=8, cover_size=8, seed=0),
     {"T": "int", "world_size": "int", "cover_size": "int", "seed": "int"}),
    ("Scenario", lambda **kw: replace(SCENARIO, **kw), {},
     {**dict.fromkeys(("N", "oracle_embed_budget", "oracle_extract_budget", "rounds",
                       "observations"), "int"),
      "leak_fraction": "real", "leak_growth": "real"}),
]
# more values that one argument must refuse: a huge int above its upper bound,
# a Fraction on one outside zeta's interval, and runs past MAX_RUNS
PAST_UPPER_BOUND = {
    **dict.fromkeys(("capacity-N", "Scenario-observations", "estimate_distribution-bins",
                     "calibrate_epsilon-bins", "distinguishability_test-bins", "pr_coverage_mc-trials",
                     "pr_coverage_mc-T", "coverage_report-mc_trials", "coverage_report-T"), (HUGE,)),
    "max_safe_uses-zeta": (Fraction(HUGE, 3),),
    # numpy's _ArrayMemoryError at 10**12 runs and its ValueError at 2**63, without MAX_RUNS
    "calibrate_epsilon-runs": (MAX_RUNS + 1, 10**12, 2**63, HUGE),
}
ARGUMENTS = [
    pytest.param(call, valid, arg, kind, PAST_UPPER_BOUND.get(f"{name}-{arg}", ()), id=f"{name}-{arg}")
    for name, call, valid, kinds in CALLS
    for arg, kind in kinds.items()
]


@pytest.mark.parametrize("call, valid, arg, kind, more", ARGUMENTS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_argument_refuses_the_wrong_kind_with_a_typed_error(call, valid, arg, kind, more, data):
    strategy, always = KINDS[kind]
    for bad in (*always, *more, data.draw(strategy, label=arg)):
        with pytest.raises(StegogameError):
            call(**{**valid, arg: bad})


@pytest.mark.parametrize("call", [
    lambda: bits_to_int(HUGE),
    lambda: sequence_from_json({"version": HUGE, "N": 0, "ids": []}),
    lambda: sequence_from_json({"version": 1, "N": 1, "ids": [HUGE]}),
    lambda: library_from_manifest({"version": HUGE, "T": 0, "covers": []}),
    lambda: distinguishability_test(**SAMPLES, epsilon=0.1, metric=HUGE),
    lambda: make_adversary(HUGE),
    lambda: estimate_distribution([1.0, 2.0], 4, support=(0, HUGE)),
], ids=["bitstring", "sequence-version", "cover-id", "manifest-version", "metric", "adversary", "support"])
def test_a_huge_int_where_another_kind_belongs_prints_its_size(call):
    with pytest.raises(StegogameError, match=f"<int of {HUGE.bit_length()} bits>"):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: distinguishability_test(**SAMPLES, epsilon=0.1, metric=["js"]), InvalidParams),
    (lambda: AttackLevel.parse(None), InvalidConfig),
    (lambda: make_adversary(["x"]), InvalidConfig),
], ids=["metric-list", "level-none", "adversary-list"])
def test_a_choice_that_is_not_a_name_is_refused_with_the_callers_error(call, error):
    with pytest.raises(error, match=r"^unknown \w+ .*; choose from \["):
        call()


@pytest.mark.parametrize("call, text", [
    (lambda: distinguishability_test(**SAMPLES, epsilon=0.1, metric="JS"),
     "unknown metric 'JS'; choose from ['js', 'kl', 'tv', 'w1']"),
    (lambda: AttackLevel.parse(" Nessie "), "unknown level 'nessie'; choose from ['scoa', 'kca', 'cca', 'acca']"),
    (lambda: make_adversary("nessie"),
     "unknown adversary 'nessie'; choose from ['cca-replay', 'kca-membership', 'keyed-recovery', "
     "'random', 'scoa-histogram']"),
    (lambda: replace(SCENARIO, key_leak="half"), "unknown key_leak 'half'; choose from [None, 'full', 'flip1']"),
], ids=["metric", "level", "adversary", "key_leak"])
def test_an_unknown_name_is_refused_with_one_text(call, text):
    with pytest.raises(StegogameError, match=f"^{re.escape(text)}$"):
        call()


def test_a_str_subclass_passes_as_its_name():
    class Name(str):
        pass

    assert AttackLevel.parse(Name(" KCA")) is AttackLevel.KCA
    assert make_adversary(Name("random")).name == "random"
    assert distinguishability_test(**SAMPLES, epsilon=0.1, metric=Name("tv")).metric == "tv"


# (call, valid keyword arguments, argument, its upper bound); runs against a lowered MAX_RUNS,
# as 2**24 runs would take seconds
BOUNDED = [
    pytest.param(estimate_distribution, dict(samples=[1.0, 2.0]), "bins", MAX_BINS, id="bins"),
    pytest.param(calibrate_epsilon, SAMPLES, "runs", 5, id="runs"),
    pytest.param(lambda **kw: replace(SCENARIO, **kw), {}, "observations", MAX_OBSERVATIONS,
                 id="observations"),
    pytest.param(pr_coverage_mc, dict(x=1, N=2, T=3, seed=0), "trials", 2**63 - 1, id="trials"),
    pytest.param(pr_coverage_mc, dict(x=1, N=1, trials=3, seed=0), "T", 10**9 - 1, id="T"),
]


@pytest.mark.parametrize("call, valid, arg, high", BOUNDED)
def test_a_bounded_int_is_taken_at_its_bound_and_refused_past_it_with_one_text(
    call, valid, arg, high, monkeypatch
):
    monkeypatch.setattr(divergence, "MAX_RUNS", 5)
    call(**valid, **{arg: high})
    for past, shown in ((high + 1, str(high + 1)), (HUGE, f"<int of {HUGE.bit_length()} bits>")):
        with pytest.raises(StegogameError, match=f"^{arg} must be at most {high}, got {shown}$"):
            call(**valid, **{arg: past})
