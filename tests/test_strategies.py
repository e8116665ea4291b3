from __future__ import annotations

import json

import pytest

from ransomlab import strategies
from ransomlab.errors import ValidationError, replace
from ransomlab.scoring import TraitProfile, disinfection_payoff
from ransomlab.strategies import (
    Level,
    Step,
    Strategy,
    StrategyCatalog,
    catalog_from_dict,
    catalog_to_dict,
    default_catalog,
    rank_strategies,
)

# Expected ranking scores below are frozen from hand evaluation of the
# documented blend on the stock company-B profile with equal weights:
# payoff term 90 for every strategy, literacy discount 0.55, so each
# strategy scores 0.25*(eff + (100 - 5.5*complexity) + (100 - risk) + 90).


def test_default_catalog_table_values():
    cat = default_catalog()
    rows = {
        s.name: (s.overall_complexity, s.effectiveness, s.reinfection_risk) for s in cat.strategies
    }
    assert rows == {
        "Ransom payment": (1, Level.LOW, Level.HIGH),
        "Decrypt taking advantage of VirLock's flaw": (5, Level.MEDIUM, Level.HIGH),
        "Recover using shadow volume copies": (4, Level.HIGH, Level.MEDIUM),
        "Malware removal with antivirus": (6, Level.HIGH, Level.LOW),
        "Recover using antivirus + cleaner": (8, Level.HIGH, Level.LOW),
    }


def test_default_catalog_step_complexities():
    cat = default_catalog()
    by_name = {s.name: s for s in cat.strategies}
    assert [st.complexity for st in by_name["Decrypt taking advantage of VirLock's flaw"].steps] == [1, 8]
    assert [st.complexity for st in by_name["Recover using shadow volume copies"].steps] == [2, 4, 4]
    assert [st.complexity for st in by_name["Malware removal with antivirus"].steps] == [4, 4, 2]
    assert [st.complexity for st in by_name["Recover using antivirus + cleaner"].steps] == [4, 4, 4, 5, 2]


def test_default_catalog_carries_caveat_notes():
    by_name = {s.name: s for s in default_catalog().strategies}
    flaw = by_name["Decrypt taking advantage of VirLock's flaw"]
    assert flaw.steps[1].complexity == 8
    assert flaw.steps[1].note is not None
    assert by_name["Recover using shadow volume copies"].note is not None
    assert by_name["Ransom payment"].steps == ()


def test_default_catalog_names_unique():
    names = [s.name for s in default_catalog().strategies]
    assert len(names) == 5
    assert len(set(names)) == 5


def test_catalog_rejects_duplicate_names():
    s = Strategy("X", (), 1, Level.LOW, Level.LOW)
    with pytest.raises(ValidationError, match="duplicate"):
        StrategyCatalog(strategies=(s, s))


def test_step_and_strategy_reject_bad_complexity():
    with pytest.raises(ValidationError):
        Step("too hard", 11)
    with pytest.raises(ValidationError):
        Strategy("X", (), -1, Level.LOW, Level.LOW)


def test_rank_company_b_equal_weights(company_b):
    ranking = rank_strategies(default_catalog(), company_b)
    names = [s.name for s, _ in ranking]
    scores = [score for _, score in ranking]
    assert names == [
        "Malware removal with antivirus",
        "Recover using antivirus + cleaner",
        "Recover using shadow volume copies",
        "Decrypt taking advantage of VirLock's flaw",
        "Ransom payment",
    ]
    assert scores == pytest.approx([84.25, 81.5, 77.0, 58.125, 54.875], abs=1e-9)
    assert names[-1] == "Ransom payment"


def test_rank_effectiveness_only_weights(company_b):
    ranking = rank_strategies(default_catalog(), company_b, weights=(1.0, 0.0, 0.0, 0.0))
    names = [s.name for s, _ in ranking]
    # High strategies first (ties broken by ascending complexity), then Medium, then Low.
    assert names == [
        "Recover using shadow volume copies",
        "Malware removal with antivirus",
        "Recover using antivirus + cleaner",
        "Decrypt taking advantage of VirLock's flaw",
        "Ransom payment",
    ]
    assert [score for _, score in ranking] == [90.0, 90.0, 90.0, 60.0, 25.0]


def test_rank_scores_in_range_and_deterministic(company_a, company_b):
    for profile in (company_a, company_b):
        first = rank_strategies(default_catalog(), profile, weights=(0.4, 0.3, 0.2, 0.1))
        second = rank_strategies(default_catalog(), profile, weights=(0.4, 0.3, 0.2, 0.1))
        assert first == second
        assert all(0.0 <= score <= 100.0 for _, score in first)


def test_rank_takes_the_plain_payoff_whose_checks_cannot_fire(company_a, company_b, monkeypatch):
    profiles = [company_a, company_b]
    profiles += [TraitProfile(*[x] * 9) for x in (5e-324, 0.5, 20, 80, 100)]
    profiles += [TraitProfile(a=0, b=0, c=100, d=0, e=100, f=100, g=100, h=0, i=0)]  # the highest severity, 100
    plain = [rank_strategies(default_catalog(), p) for p in profiles]
    monkeypatch.setattr(strategies, "disinfection_payoff_of", disinfection_payoff)  # the checked payoff
    assert [rank_strategies(default_catalog(), p) for p in profiles] == plain


def test_rank_empty_catalog(company_a):
    assert rank_strategies(StrategyCatalog(), company_a) == []


def test_rank_rejects_bad_weights(company_a):
    cat = default_catalog()
    with pytest.raises(ValidationError):
        rank_strategies(cat, company_a, weights=(0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValidationError):
        rank_strategies(cat, company_a, weights=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValidationError):
        rank_strategies(cat, company_a, weights=(1.0, 0.0, 0.0))


def test_raising_effectiveness_never_lowers_rank(company_a):
    cat = default_catalog()
    bumps = {Level.LOW: Level.MEDIUM, Level.MEDIUM: Level.HIGH, Level.HIGH: Level.HIGH}
    weights = (0.4, 0.2, 0.2, 0.2)
    base = rank_strategies(cat, company_a, weights)
    for target in cat.strategies:
        bumped = StrategyCatalog(
            strategies=tuple(
                replace(s, effectiveness=bumps[s.effectiveness]) if s.name == target.name else s
                for s in cat.strategies
            )
        )
        after = rank_strategies(bumped, company_a, weights)
        old_pos = [s.name for s, _ in base].index(target.name)
        new_pos = [s.name for s, _ in after].index(target.name)
        assert new_pos <= old_pos


def test_catalog_round_trip_is_bit_identical():
    cat = default_catalog()
    first = json.dumps(catalog_to_dict(cat), indent=2)
    reloaded = catalog_from_dict(json.loads(first))
    assert reloaded == cat
    assert json.dumps(catalog_to_dict(reloaded), indent=2) == first


def test_catalog_from_dict_rejects_bad_documents():
    good = catalog_to_dict(default_catalog())
    with pytest.raises(ValidationError, match="strategies"):
        catalog_from_dict({})
    with pytest.raises(ValidationError, match="unknown"):
        catalog_from_dict({**good, "extra": []})
    broken = json.loads(json.dumps(good))
    del broken["strategies"][0]["effectiveness"]
    with pytest.raises(ValidationError, match="effectiveness"):
        catalog_from_dict(broken)
    broken = json.loads(json.dumps(good))
    broken["strategies"][0]["effectiveness"] = "Extreme"
    with pytest.raises(ValidationError, match="Low/Medium/High"):
        catalog_from_dict(broken)
