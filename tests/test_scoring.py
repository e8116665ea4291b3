from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransomlab.errors import ValidationError, replace
from ransomlab.scoring import (
    ScoreSet,
    TraitProfile,
    disinfection_payoff,
    disinfection_probability,
    score_all,
    severity,
    spreadability_score,
)

# Expected values below are frozen from hand evaluation of the three
# weighted sums and the payoff branches on the two stock company profiles.


def _profile(**overrides) -> TraitProfile:
    values = dict(a=50, b=50, c=50, d=50, e=50, f=50, g=50, h=50, i=50)
    values.update(overrides)
    return TraitProfile(**values)


def test_spreadability_company_a(company_a):
    assert spreadability_score(company_a) == pytest.approx(83.0, abs=1e-9)


def test_spreadability_company_b(company_b):
    assert spreadability_score(company_b) == pytest.approx(11.5, abs=1e-9)


def test_spreadability_vanishes_at_max_awareness_zero_infection():
    assert spreadability_score(_profile(a=100, f=0)) == 0.0


def test_severity_company_a(company_a):
    assert severity(company_a) == pytest.approx(59.75, abs=1e-9)


def test_severity_company_b(company_b):
    assert severity(company_b) == pytest.approx(23.375, abs=1e-9)


def test_severity_maximal_inputs():
    p = _profile(c=100, e=100, f=100, g=100, a=0)
    assert spreadability_score(p) == pytest.approx(100.0)
    assert severity(p) == pytest.approx(100.0, abs=1e-9)


def test_severity_requires_positive_g():
    with pytest.raises(ValidationError, match="G"):
        severity(_profile(g=0))


def test_disinfection_probability_company_a(company_a):
    assert disinfection_probability(company_a) == pytest.approx(31.0, abs=1e-9)


def test_disinfection_probability_company_b(company_b):
    assert disinfection_probability(company_b) == pytest.approx(72.75, abs=1e-9)


def test_disinfection_probability_maximal():
    p = _profile(a=100, b=100, e=0, f=0, h=100, i=100)
    assert disinfection_probability(p) == pytest.approx(100.0, abs=1e-9)


def test_payoff_midband_multiplies_criticality_and_severity():
    assert disinfection_payoff(25, 59.75) == pytest.approx(14.9375, abs=1e-9)


def test_payoff_high_criticality_returns_criticality():
    assert disinfection_payoff(90, 23.375) == pytest.approx(90.0, abs=1e-9)


def test_payoff_low_criticality_is_zero():
    assert disinfection_payoff(10, 90) == 0.0


def test_payoff_low_severity_zeroes_even_high_criticality():
    # The first branch must win over the high-criticality branch.
    assert disinfection_payoff(90, 10) == 0.0


def test_payoff_branch_boundaries():
    assert disinfection_payoff(20, 50) == 0.0  # c/100 == 0.2 is inside the zero branch
    assert disinfection_payoff(50, 20) == pytest.approx(10.0)  # s/100 == 0.2 is not
    assert disinfection_payoff(80, 50) == pytest.approx(40.0)  # c/100 == 0.8 multiplies
    assert disinfection_payoff(81, 50) == pytest.approx(81.0)  # c/100 > 0.8 returns c
    assert disinfection_payoff(50, 80) == pytest.approx(40.0)  # s/100 == 0.8 multiplies
    assert disinfection_payoff(50, 81) == pytest.approx(50.0)  # s/100 > 0.8 returns c


def test_payoff_rejects_out_of_range():
    with pytest.raises(ValidationError):
        disinfection_payoff(120, 50)
    with pytest.raises(ValidationError):
        disinfection_payoff(50, -1)


def test_score_all_company_a(company_a):
    scores = score_all(company_a)
    assert scores == ScoreSet(83.0, 59.75, 31.0, 14.9375)


def test_score_all_company_b(company_b):
    scores = score_all(company_b)
    assert scores.sps == pytest.approx(11.5, abs=1e-9)
    assert scores.severity == pytest.approx(23.375, abs=1e-9)
    assert scores.disinfection_probability == pytest.approx(72.75, abs=1e-9)
    assert scores.disinfection_payoff == pytest.approx(90.0, abs=1e-9)


def test_score_all_zero_profile_with_unit_g():
    scores = score_all(TraitProfile(a=0, b=0, c=0, d=0, e=0, f=0, g=1, h=0, i=0))
    assert scores.sps == pytest.approx(70.0, abs=1e-9)
    assert scores.severity == pytest.approx(17.8, abs=1e-9)
    assert scores.disinfection_probability == pytest.approx(25.0, abs=1e-9)
    assert scores.disinfection_payoff == 0.0


@pytest.mark.parametrize("field", ["a", "b", "c", "d", "e", "f", "g", "h", "i"])
def test_profile_rejects_out_of_range_naming_field(field):
    with pytest.raises(ValidationError, match=field.upper()):
        _profile(**{field: 100.5})
    with pytest.raises(ValidationError, match=field.upper()):
        _profile(**{field: -0.5})


def test_profile_rejects_non_numbers():
    with pytest.raises(ValidationError):
        _profile(a="20")
    with pytest.raises(ValidationError):
        _profile(b=float("nan"))
    with pytest.raises(ValidationError):
        _profile(c=True)


def _random_profile(rng: random.Random) -> TraitProfile:
    values = {name: rng.uniform(0, 100) for name in "abcdefhi"}
    values["g"] = rng.uniform(0.001, 100)
    return TraitProfile(**values)


def test_scores_stay_in_range_on_random_profiles():
    rng = random.Random(0xC0FFEE)
    for _ in range(2000):
        scores = score_all(_random_profile(rng))
        for value in (
            scores.sps,
            scores.severity,
            scores.disinfection_probability,
            scores.disinfection_payoff,
        ):
            assert 0.0 <= value <= 100.0


# score_all checks the profile once, in severity, and takes the plain formulas
# for the other scores. These pin that they give the checked functions' floats
# and that the checks skipped cannot fire: the severity of a valid profile lies
# in [0, 100]. Severity rises with C, E, F and G and falls with A (through SPS),
# and float rounding keeps that order, so the corner profiles bound the rest.
def _assert_payoff_inputs_in_range(p: TraitProfile) -> None:
    scores = score_all(p)
    assert 0.0 <= scores.severity <= 100.0
    checked = (spreadability_score(p), severity(p), disinfection_probability(p), disinfection_payoff(p.c, severity(p)))
    assert repr(scores.values()) == repr(checked)


def test_severity_of_every_corner_profile_lies_in_range():
    for corner in itertools.product((0, 100), repeat=8):
        for g in (5e-324, 100.0):  # G must be > 0
            _assert_payoff_inputs_in_range(TraitProfile(**dict(zip("abcdefhi", corner)), g=g))


_variable = st.floats(0, 100) | st.integers(0, 100) | st.sampled_from([-0.0, 5e-324, 100.0])


@settings(max_examples=300, deadline=None)
@given(
    values=st.fixed_dictionaries(dict.fromkeys("abcdefhi", _variable)),
    g=st.floats(5e-324, 100) | st.integers(1, 100) | st.sampled_from([5e-324, 100.0]),
)
def test_severity_of_valid_profiles_lies_in_range(values, g):
    _assert_payoff_inputs_in_range(TraitProfile(**values, g=g))


def test_spreadability_monotonicity_on_random_profiles():
    rng = random.Random(7)
    for _ in range(2000):
        p = _random_profile(rng)
        lo, hi = sorted(rng.uniform(0, 100) for _ in range(2))
        if lo == hi:
            continue
        assert spreadability_score(replace(p, a=hi)) < spreadability_score(
            replace(p, a=lo)
        )
        assert spreadability_score(replace(p, f=hi)) > spreadability_score(
            replace(p, f=lo)
        )


def test_severity_monotonicity_on_random_profiles():
    rng = random.Random(8)
    for _ in range(2000):
        p = _random_profile(rng)
        lo, hi = sorted(rng.uniform(0.001, 100) for _ in range(2))
        for name in "cefg":
            assert severity(replace(p, **{name: hi})) >= severity(
                replace(p, **{name: lo})
            )
        assert severity(replace(p, a=lo)) >= severity(replace(p, a=hi))


def test_disinfection_probability_monotonicity_on_random_profiles():
    rng = random.Random(9)
    for _ in range(2000):
        p = _random_profile(rng)
        lo, hi = sorted(rng.uniform(0, 100) for _ in range(2))
        for name in "abhi":
            assert disinfection_probability(
                replace(p, **{name: hi})
            ) >= disinfection_probability(replace(p, **{name: lo}))
        for name in "ef":
            assert disinfection_probability(
                replace(p, **{name: hi})
            ) <= disinfection_probability(replace(p, **{name: lo}))


def test_payoff_never_exceeds_criticality():
    rng = random.Random(10)
    for _ in range(5000):
        c = rng.uniform(0, 100)
        s = rng.uniform(0, 100)
        dc = disinfection_payoff(c, s)
        assert dc <= c + 1e-12
        if c / 100 <= 0.2 or s / 100 < 0.2:
            assert dc == 0.0


def test_payoff_ignores_awareness(company_a):
    # For a fixed (c, s) pair the payoff cannot vary with any other trait.
    c, s = company_a.c, severity(company_a)
    reference = disinfection_payoff(c, s)
    for a in (0, 20, 55, 80, 100):
        p = replace(company_a, a=a)
        assert disinfection_payoff(p.c, s) == reference
