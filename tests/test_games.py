from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransomlab.errors import ValidationError
from ransomlab.games import (
    BimatrixGame,
    RANSOM_USER_DEFAULTS,
    RANSOM_VIRUS_DEFAULTS,
    dominant_strategies,
    expected_payoffs,
    game_from_dict,
    game_to_dict,
    make_game,
    mixed_nash_2x2,
    pd_game,
    pure_nash,
    ransom_game,
    replicator_step,
    snowdrift_game,
)


def brute_force_pure_nash(g: BimatrixGame) -> list[tuple[int, int]]:
    """Oracle: best-response correspondences computed independently via max()."""
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


def pure_profiles(equilibria) -> list[tuple[int, int]]:
    return [(eq.row_mix.index(1.0), eq.col_mix.index(1.0)) for eq in equilibria]


def matching_pennies() -> BimatrixGame:
    return make_game(
        ["Heads", "Tails"],
        ["Heads", "Tails"],
        [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]],
    )


def all_zero_2x2() -> BimatrixGame:
    return make_game(["r0", "r1"], ["c0", "c1"], [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])


def random_game(rng: random.Random, n_rows: int, n_cols: int, integral: bool) -> BimatrixGame:
    def draw() -> float:
        return float(rng.randint(-3, 3)) if integral else rng.uniform(-10, 10)

    return make_game(
        [f"r{i}" for i in range(n_rows)],
        [f"c{j}" for j in range(n_cols)],
        [[(draw(), draw()) for _ in range(n_cols)] for _ in range(n_rows)],
    )


# -- construction and templates ------------------------------------------


def test_game_rejects_mismatched_dimensions():
    with pytest.raises(ValidationError):
        BimatrixGame(("r0",), ("c0", "c1"), (((0.0, 0.0),),))


def test_game_rejects_non_finite_payoffs():
    with pytest.raises(ValidationError):
        make_game(["r0"], ["c0"], [[(float("inf"), 0.0)]])


def test_ransom_game_anchor_cells():
    g = ransom_game()
    assert g.row_labels == ("NotPay", "Pay")
    assert g.col_labels == ("Decrypt", "NotDecrypt")
    assert g.row_payoff(0, 0) == 100.0
    assert g.payoffs[1][1] == (-100.0, 100.0)


def test_ransom_game_brute_force_equilibria():
    g = ransom_game((100, -30, 20, -100), (0, 0, 100, 100))
    expected = brute_force_pure_nash(g)
    assert pure_profiles(pure_nash(g)) == expected
    assert (0, 1) in expected  # (NotPay, NotDecrypt) is an equilibrium here


def test_ransom_defaults_make_not_paying_dominant():
    rows, cols = dominant_strategies(ransom_game())
    assert rows == ["NotPay"]
    assert cols == []


def test_all_zero_game_every_profile_is_nash():
    g = all_zero_2x2()
    assert pure_profiles(pure_nash(g)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert dominant_strategies(g) == ([], [])


def test_pd_template_single_defect_defect_nash():
    g = pd_game(5, 3, 1, 0)
    assert brute_force_pure_nash(g) == [(1, 1)]
    assert pure_profiles(pure_nash(g)) == [(1, 1)]
    assert dominant_strategies(g) == (["Defect"], ["Defect"])


def test_pd_rejects_broken_ordering():
    with pytest.raises(ValidationError):
        pd_game(3, 3, 1, 0)


def test_snowdrift_has_no_dominant_strategy():
    assert dominant_strategies(snowdrift_game(2, 1)) == ([], [])


def test_snowdrift_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        snowdrift_game(1, 2)
    with pytest.raises(ValidationError):
        snowdrift_game(2, 0)


# -- solution concepts -----------------------------------------------------


def test_matching_pennies_has_no_pure_nash():
    assert pure_nash(matching_pennies()) == []


def test_matching_pennies_uniform_mixed_nash():
    eq = mixed_nash_2x2(matching_pennies())
    assert eq is not None
    assert eq.row_mix == pytest.approx((0.5, 0.5))
    assert eq.col_mix == pytest.approx((0.5, 0.5))


def test_mixed_nash_snowdrift_indifference():
    g = snowdrift_game(3, 1)
    eq = mixed_nash_2x2(g)
    assert eq is not None
    # Each pure strategy must earn the same against the opponent mix.
    row_c, _ = expected_payoffs(g, (1.0, 0.0), eq.col_mix)
    row_d, _ = expected_payoffs(g, (0.0, 1.0), eq.col_mix)
    assert row_c == pytest.approx(row_d, abs=1e-9)
    _, col_c = expected_payoffs(g, eq.row_mix, (1.0, 0.0))
    _, col_d = expected_payoffs(g, eq.row_mix, (0.0, 1.0))
    assert col_c == pytest.approx(col_d, abs=1e-9)
    assert eq.row_mix[0] == pytest.approx(0.8)


def test_mixed_nash_none_for_prisoners_dilemma():
    g = pd_game(5, 3, 1, 0)
    # Defect strictly dominates, so no interior mixing can exist.
    assert g.row_payoff(1, 0) > g.row_payoff(0, 0)
    assert g.row_payoff(1, 1) > g.row_payoff(0, 1)
    assert mixed_nash_2x2(g) is None


def test_mixed_nash_requires_2x2():
    g = random_game(random.Random(1), 3, 2, integral=False)
    with pytest.raises(ValidationError):
        mixed_nash_2x2(g)


def test_expected_payoffs_degenerate_mix_recovers_cells():
    g = ransom_game()
    for i in range(2):
        for j in range(2):
            row_mix = tuple(1.0 if k == i else 0.0 for k in range(2))
            col_mix = tuple(1.0 if k == j else 0.0 for k in range(2))
            assert expected_payoffs(g, row_mix, col_mix) == g.payoffs[i][j]


def test_expected_payoffs_uniform_is_cell_mean():
    g = ransom_game()
    row_value, col_value = expected_payoffs(g, (0.5, 0.5), (0.5, 0.5))
    assert row_value == pytest.approx(sum(RANSOM_USER_DEFAULTS) / 4)
    assert col_value == pytest.approx(sum(RANSOM_VIRUS_DEFAULTS) / 4)
    assert expected_payoffs(all_zero_2x2(), (0.5, 0.5), (0.5, 0.5)) == (0.0, 0.0)


def test_expected_payoffs_rejects_bad_mixes():
    g = ransom_game()
    with pytest.raises(ValidationError):
        expected_payoffs(g, (0.5, 0.5, 0.0), (0.5, 0.5))
    with pytest.raises(ValidationError):
        expected_payoffs(g, (0.7, 0.7), (0.5, 0.5))
    with pytest.raises(ValidationError):
        expected_payoffs(g, (-0.5, 1.5), (0.5, 0.5))


def test_pure_nash_matches_oracle_on_random_games():
    rng = random.Random(424242)
    for _ in range(300):
        g = random_game(rng, rng.randint(2, 4), rng.randint(2, 4), integral=rng.random() < 0.5)
        assert pure_profiles(pure_nash(g)) == brute_force_pure_nash(g)


def unit_mix(n: int, k: int) -> tuple[float, ...]:
    return tuple(1.0 if idx == k else 0.0 for idx in range(n))


def definitional_pure_nash(g: BimatrixGame) -> list[tuple]:
    """Oracle: cells where no unilateral deviation pays more, checked against every alternative."""
    return [
        (unit_mix(g.n_rows, i), unit_mix(g.n_cols, j), g.row_payoff(i, j), g.col_payoff(i, j), "pure")
        for i in range(g.n_rows)
        for j in range(g.n_cols)
        if all(g.row_payoff(k, j) <= g.row_payoff(i, j) for k in range(g.n_rows))
        and all(g.col_payoff(i, l) <= g.col_payoff(i, j) for l in range(g.n_cols))
    ]


def definitional_dominant(g: BimatrixGame) -> tuple[list[str], list[str]]:
    """Oracle: a strategy beats every other one of its player's against every opposing strategy."""
    rows = [
        g.row_labels[i]
        for i in range(g.n_rows)
        if all(g.row_payoff(i, j) > g.row_payoff(k, j) for k in range(g.n_rows) if k != i for j in range(g.n_cols))
    ]
    cols = [
        g.col_labels[j]
        for j in range(g.n_cols)
        if all(g.col_payoff(i, j) > g.col_payoff(i, l) for l in range(g.n_cols) if l != j for i in range(g.n_rows))
    ]
    return rows, cols


# Small integers tie often; -0.0 and 0.0 compare equal but must each come back as stored.
tie_heavy_payoffs = st.sampled_from([-2, -1, 0, 1, 2, 0.0, -0.0])


@st.composite
def tie_heavy_games(draw) -> BimatrixGame:
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 8))
    cells = st.tuples(tie_heavy_payoffs, tie_heavy_payoffs)
    payoffs = draw(st.lists(st.lists(cells, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    return make_game([f"r{i}" for i in range(n_rows)], [f"c{j}" for j in range(n_cols)], payoffs)


@settings(max_examples=500, deadline=None)
@given(g=tie_heavy_games())
def test_solution_concepts_match_definitional_oracles(g):
    got = [(eq.row_mix, eq.col_mix, eq.row_value, eq.col_value, eq.kind) for eq in pure_nash(g)]
    # repr tells -0.0 from 0.0, so each equilibrium value must be its own cell's, sign included.
    assert repr(got) == repr(definitional_pure_nash(g))
    assert dominant_strategies(g) == definitional_dominant(g)


def test_mixed_nash_passes_deviation_check_on_random_games():
    rng = random.Random(99)
    found = 0
    for _ in range(500):
        g = random_game(rng, 2, 2, integral=False)
        eq = mixed_nash_2x2(g)
        if eq is None:
            continue
        found += 1
        value_row, value_col = expected_payoffs(g, eq.row_mix, eq.col_mix)
        for i in range(2):
            deviated, _ = expected_payoffs(g, tuple(1.0 if k == i else 0.0 for k in range(2)), eq.col_mix)
            assert deviated <= value_row + 1e-9
        for j in range(2):
            _, deviated = expected_payoffs(g, eq.row_mix, tuple(1.0 if k == j else 0.0 for k in range(2)))
            assert deviated <= value_col + 1e-9
    assert found > 50  # mixing should not be vanishingly rare


def test_pure_nash_passes_deviation_check_on_random_games():
    rng = random.Random(123)
    for _ in range(200):
        g = random_game(rng, rng.randint(2, 4), rng.randint(2, 4), integral=True)
        for eq in pure_nash(g):
            value_row, value_col = expected_payoffs(g, eq.row_mix, eq.col_mix)
            for i in range(g.n_rows):
                mix = tuple(1.0 if k == i else 0.0 for k in range(g.n_rows))
                assert expected_payoffs(g, mix, eq.col_mix)[0] <= value_row + 1e-9
            for j in range(g.n_cols):
                mix = tuple(1.0 if k == j else 0.0 for k in range(g.n_cols))
                assert expected_payoffs(g, eq.row_mix, mix)[1] <= value_col + 1e-9


def test_affine_transform_preserves_equilibrium_structure():
    rng = random.Random(77)
    for _ in range(100):
        g = random_game(rng, 2, 2, integral=False)
        scaled = make_game(
            g.row_labels,
            g.col_labels,
            [
                [(2.0 * g.row_payoff(i, j) + 3.0, g.col_payoff(i, j)) for j in range(2)]
                for i in range(2)
            ],
        )
        assert pure_profiles(pure_nash(g)) == pure_profiles(pure_nash(scaled))
        eq, eq_scaled = mixed_nash_2x2(g), mixed_nash_2x2(scaled)
        if eq is None:
            assert eq_scaled is None
        else:
            assert eq_scaled is not None
            # Scaling the row player's payoffs moves only the column mix condition,
            # so both mixes must be unchanged.
            assert eq_scaled.row_mix == pytest.approx(eq.row_mix, abs=1e-9)
            assert eq_scaled.col_mix == pytest.approx(eq.col_mix, abs=1e-9)


# -- replicator dynamics ----------------------------------------------------


def test_replicator_monomorphic_population_is_fixed():
    g = pd_game(5, 3, 1, 0)
    assert replicator_step(g, (1.0, 0.0), 0.1) == (1.0, 0.0)
    assert replicator_step(g, (0.0, 1.0), 0.1) == (0.0, 1.0)


def test_replicator_defectors_gain_in_prisoners_dilemma():
    out = replicator_step(pd_game(5, 3, 1, 0), (0.5, 0.5), 0.1)
    assert out[1] > 0.5
    assert out == pytest.approx((0.4625, 0.5375), abs=1e-12)


def test_replicator_uniform_on_zero_game_unchanged():
    g = make_game(["x", "y"], ["x", "y"], [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
    assert replicator_step(g, (0.5, 0.5), 1.0) == (0.5, 0.5)


def test_replicator_preserves_simplex_under_random_steps():
    rng = random.Random(5)
    g = snowdrift_game(4, 1)
    pop = (0.3, 0.7)
    for _ in range(500):
        pop = replicator_step(g, pop, rng.uniform(0.001, 2.0))
        assert all(x >= 0 for x in pop)
        assert sum(pop) == pytest.approx(1.0, abs=1e-12)


def test_replicator_rejects_asymmetric_games():
    g = make_game(["a", "b"], ["a", "b"], [[(1, 0), (0, 0)], [(0, 0), (0, 0)]])
    with pytest.raises(ValidationError):
        replicator_step(g, (0.5, 0.5), 0.1)
    with pytest.raises(ValidationError):
        replicator_step(ransom_game(), (0.5, 0.5), 0.1)


def test_replicator_rejects_bad_population():
    g = pd_game(5, 3, 1, 0)
    with pytest.raises(ValidationError):
        replicator_step(g, (0.4, 0.4), 0.1)
    with pytest.raises(ValidationError):
        replicator_step(g, (0.5, 0.5), 0.0)


# -- serialization -----------------------------------------------------------


def test_game_json_round_trip():
    g = ransom_game()
    assert game_from_dict(game_to_dict(g)) == g


def test_game_document_shape():
    doc = game_to_dict(pd_game(5, 3, 1, 0))
    assert doc["row_labels"] == ["Cooperate", "Defect"]
    assert doc["payoffs"][0][1] == [0.0, 5.0]


def test_game_from_dict_rejects_bad_documents():
    good = game_to_dict(ransom_game())
    with pytest.raises(ValidationError, match="payoffs"):
        game_from_dict({k: v for k, v in good.items() if k != "payoffs"})
    with pytest.raises(ValidationError, match="unknown"):
        game_from_dict({**good, "extra": 1})
    bad = game_to_dict(ransom_game())
    bad["payoffs"][0][0] = [1.0]
    with pytest.raises(ValidationError):
        game_from_dict(bad)
