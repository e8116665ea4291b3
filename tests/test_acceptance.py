"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion (the printed PASS lines plus pytest's own verdict per test).
"""

from __future__ import annotations

import json
import random
import time
from importlib import resources
from pathlib import Path

import pytest

from ransomlab.errors import replace
from ransomlab.games import (
    BimatrixGame,
    expected_payoffs,
    mixed_nash_2x2,
    pure_nash,
)
from ransomlab.ingest import (
    load_catalog,
    load_network,
    load_profile_document,
    parse_profile_document,
    profile_document_to_dict,
)
from ransomlab.report import SweepSpec, compare_profiles, sweep
from ransomlab.scoring import (
    TraitProfile,
    disinfection_probability,
    score_all,
    spreadability_score,
)
from ransomlab.simnet import (
    SimConfig,
    monte_carlo_f,
    network_from_dict,
    network_to_dict,
    run,
)
from ransomlab.strategies import Level, catalog_from_dict, catalog_to_dict, default_catalog

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample_data"

COMPANY_A = TraitProfile(a=20, b=25, c=25, d=100, e=80, f=90, g=25, h=60, i=15)
COMPANY_B = TraitProfile(a=90, b=60, c=90, d=100, e=10, f=15, g=25, h=60, i=75)

# Hand-derived expectations, frozen before implementation:
#   company A: SPS = 0.7*80 + 0.3*90                          = 83
#              S   = 2.5 + 20 + 9 + 0.25*83 + 7.5             = 59.75
#              DP  = 3 + 5 + 2 + 1.5 + 18 + 1.5               = 31
#              DC  = 100 * 0.25 * 0.5975                      = 14.9375
#   company B: SPS = 0.7*10 + 0.3*15                          = 11.5
#              S   = 9 + 2.5 + 1.5 + 0.25*11.5 + 7.5          = 23.375
#              DP  = 13.5 + 12 + 9 + 12.75 + 18 + 7.5         = 72.75
#              DC  = 100 * 0.9 (criticality branch)           = 90
EXPECTED_A = (83.0, 59.75, 31.0, 14.9375)
EXPECTED_B = (11.5, 23.375, 72.75, 90.0)


def _report(criterion: int, label: str) -> None:
    print(f"criterion {criterion}: PASS - {label}")


def test_criterion_1_stock_profile_reproduction():
    start = time.perf_counter()
    for profile, expected in ((COMPANY_A, EXPECTED_A), (COMPANY_B, EXPECTED_B)):
        scores = score_all(profile)
        got = (
            scores.sps,
            scores.severity,
            scores.disinfection_probability,
            scores.disinfection_payoff,
        )
        for value, target in zip(got, expected):
            assert abs(value - target) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    _report(1, "both stock profiles reproduce the hand-derived score quadruples within 1e-9")


def test_criterion_2_comparison_orderings():
    cmp = compare_profiles(COMPANY_A, COMPANY_B)
    by_metric = {m.metric: m for m in cmp.metrics}
    assert by_metric["SPS"].first > by_metric["SPS"].second
    assert by_metric["S"].first > by_metric["S"].second
    assert by_metric["DP"].second > by_metric["DP"].first
    assert by_metric["DC"].second > by_metric["DC"].first
    _report(2, "company A strictly higher on SPS and S, company B strictly higher on DP and DC")


def test_criterion_3_awareness_sweeps_share_payoff_column():
    a20 = sweep(SweepSpec("A", 20))
    a80 = sweep(SweepSpec("A", 80))
    dc20 = a20.column("DC")
    dc80 = a80.column("DC")
    assert len(dc20) == len(dc80) == 101
    for x, y in zip(dc20, dc80):
        assert x == y
    for x, y in zip(a20.column("SPS"), a80.column("SPS")):
        assert x > y
    _report(3, "A=20 and A=80 sweeps have element-wise identical DC columns and ordered SPS")


def test_criterion_4_criticality_sweeps_follow_payoff_branches():
    c10 = sweep(SweepSpec("C", 10))
    assert all(value == 0.0 for value in c10.column("DC"))
    c90 = sweep(SweepSpec("C", 90))
    for t, payoff in enumerate(c90.column("DC")):
        normalized_severity = t / 100.0  # severity input of the payoff on a sweep
        if 0.2 < normalized_severity <= 1.0:
            assert abs(payoff - 90.0) <= 1e-9
        elif normalized_severity < 0.2:
            assert payoff == 0.0
    _report(4, "C=10 zeroes DC everywhere; C=90 yields DC=90/0 per the severity-input branches")


def test_criterion_5_scoring_property_suite():
    rng = random.Random(0xACCE55)
    violations = 0
    for _ in range(10_000):
        values = {name: rng.uniform(0, 100) for name in "abcdefhi"}
        values["g"] = rng.uniform(1e-6, 100)
        p = TraitProfile(**values)
        scores = score_all(p)
        for value in (
            scores.sps,
            scores.severity,
            scores.disinfection_probability,
            scores.disinfection_payoff,
        ):
            if not 0.0 <= value <= 100.0:
                violations += 1

        lo, hi = sorted((rng.uniform(0, 100), rng.uniform(0, 100)))
        if lo < hi:
            if not (
                spreadability_score(replace(p, a=hi))
                < spreadability_score(replace(p, a=lo))
            ):
                violations += 1
            if not (
                spreadability_score(replace(p, f=hi))
                > spreadability_score(replace(p, f=lo))
            ):
                violations += 1
            for name, direction in (
                ("a", 1),
                ("b", 1),
                ("h", 1),
                ("i", 1),
                ("e", -1),
                ("f", -1),
            ):
                low_dp = disinfection_probability(replace(p, **{name: lo}))
                high_dp = disinfection_probability(replace(p, **{name: hi}))
                if direction > 0 and high_dp < low_dp:
                    violations += 1
                if direction < 0 and high_dp > low_dp:
                    violations += 1
    assert violations == 0
    _report(5, "10,000 random profiles: scores in range, SPS/DP monotonicity with zero violations")


def _oracle_pure_nash(g) -> list[tuple[int, int]]:
    row_best_per_col = []
    for j in range(g.n_cols):
        column = [g.row_payoff(i, j) for i in range(g.n_rows)]
        best = max(column)
        row_best_per_col.append({i for i, v in enumerate(column) if v == best})
    col_best_per_row = []
    for i in range(g.n_rows):
        row = [g.col_payoff(i, j) for j in range(g.n_cols)]
        best = max(row)
        col_best_per_row.append({j for j, v in enumerate(row) if v == best})
    return [
        (i, j)
        for i in range(g.n_rows)
        for j in range(g.n_cols)
        if i in row_best_per_col[j] and j in col_best_per_row[i]
    ]


def test_criterion_6_game_oracle_equivalence():
    rng = random.Random(0x6A3E)
    mixed_checked = 0
    for _ in range(1_000):
        n_rows = rng.randint(2, 4)
        n_cols = rng.randint(2, 4)
        integral = rng.random() < 0.5

        def draw() -> float:
            return float(rng.randint(-3, 3)) if integral else rng.uniform(-10, 10)

        g = BimatrixGame(
            [f"r{i}" for i in range(n_rows)],
            [f"c{j}" for j in range(n_cols)],
            [[(draw(), draw()) for _ in range(n_cols)] for _ in range(n_rows)],
        )
        got = [(eq.row_mix.index(1.0), eq.col_mix.index(1.0)) for eq in pure_nash(g)]
        assert got == _oracle_pure_nash(g)

        if n_rows == 2 and n_cols == 2:
            eq = mixed_nash_2x2(g)
            if eq is not None:
                mixed_checked += 1
                value_row, value_col = expected_payoffs(g, eq.row_mix, eq.col_mix)
                for i in range(2):
                    unit = tuple(1.0 if k == i else 0.0 for k in range(2))
                    assert expected_payoffs(g, unit, eq.col_mix)[0] <= value_row + 1e-9
                    assert expected_payoffs(g, eq.row_mix, unit)[1] <= value_col + 1e-9

    pennies = BimatrixGame(
        ["Heads", "Tails"], ["Heads", "Tails"], [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]]
    )
    eq = mixed_nash_2x2(pennies)
    assert eq is not None
    assert eq.row_mix == pytest.approx((0.5, 0.5), abs=1e-12)
    assert eq.col_mix == pytest.approx((0.5, 0.5), abs=1e-12)
    assert mixed_checked > 0
    _report(6, "1,000 random games match the enumeration oracle; mixed equilibria pass deviation checks")


def test_criterion_7_simulator_properties():
    ring = load_network(SAMPLE_DIR / "ring8.json")
    star = load_network(SAMPLE_DIR / "star4.json")

    config = SimConfig(
        ticks=30, base_infection_prob=0.4, clean_prob_per_tick=0.2, reinfection_allowed=True, seed=97
    )
    assert run(ring, config) == run(ring, config)

    quiet = run(
        star,
        SimConfig(ticks=30, base_infection_prob=0.0, clean_prob_per_tick=0.0, reinfection_allowed=False, seed=5),
    )
    assert quiet.final_f == pytest.approx(25.0)
    assert all(c.infected == 1 for c in quiet.counts)

    # star4 is fully connected through one cloud: hop distance 1 from the
    # seed host, so certain transmission saturates within 2 ticks.
    certain = run(
        star,
        SimConfig(ticks=2, base_infection_prob=1.0, clean_prob_per_tick=0.0, reinfection_allowed=False, seed=5),
    )
    assert certain.final_f == 100.0

    for seed in range(5):
        traj = run(
            ring,
            SimConfig(
                ticks=40,
                base_infection_prob=0.5,
                clean_prob_per_tick=0.3,
                reinfection_allowed=True,
                seed=seed,
            ),
        )
        for c in traj.counts:
            assert c.susceptible + c.infected + c.cleaned == len(ring.hosts)

    start = time.perf_counter()
    summary = monte_carlo_f(
        ring,
        SimConfig(ticks=20, base_infection_prob=0.3, clean_prob_per_tick=0.1, reinfection_allowed=False, seed=1),
        runs=1_000,
    )
    elapsed = time.perf_counter() - start
    assert len(summary.final_fs) == 1_000
    assert elapsed < 10.0
    _report(7, f"determinism, zero/certain spread, conservation hold; 1,000-run MC in {elapsed:.2f}s")


def test_criterion_8_round_trips_and_catalog_fidelity():
    profile_docs = sorted(SAMPLE_DIR.glob("company_*.json"))
    network_docs = sorted(p for p in SAMPLE_DIR.glob("*.json") if p not in profile_docs)
    assert profile_docs and network_docs

    for path in profile_docs:
        doc = load_profile_document(path)
        assert parse_profile_document(json.loads(json.dumps(profile_document_to_dict(doc)))) == doc

    for path in network_docs:
        net = load_network(path)
        assert network_from_dict(json.loads(json.dumps(network_to_dict(net)))) == net

    catalog_resource = resources.files("ransomlab").joinpath("data/default_catalog.json")
    with resources.as_file(catalog_resource) as path:
        cat = load_catalog(path)
    assert cat == default_catalog()
    assert catalog_from_dict(json.loads(json.dumps(catalog_to_dict(cat)))) == cat

    rows = {s.name: (s.overall_complexity, s.effectiveness, s.reinfection_risk) for s in cat.strategies}
    assert rows == {
        "Ransom payment": (1, Level.LOW, Level.HIGH),
        "Decrypt taking advantage of VirLock's flaw": (5, Level.MEDIUM, Level.HIGH),
        "Recover using shadow volume copies": (4, Level.HIGH, Level.MEDIUM),
        "Malware removal with antivirus": (6, Level.HIGH, Level.LOW),
        "Recover using antivirus + cleaner": (8, Level.HIGH, Level.LOW),
    }
    steps = {s.name: [st.complexity for st in s.steps] for s in cat.strategies}
    assert steps["Ransom payment"] == []
    assert steps["Decrypt taking advantage of VirLock's flaw"] == [1, 8]
    assert steps["Recover using shadow volume copies"] == [2, 4, 4]
    assert steps["Malware removal with antivirus"] == [4, 4, 2]
    assert steps["Recover using antivirus + cleaner"] == [4, 4, 4, 5, 2]
    _report(8, "all shipped documents round-trip to equal values; catalog matches the stock tables")
