from __future__ import annotations

import copy
import pickle
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ransomlab import report
from ransomlab.errors import ValidationError, replace
from ransomlab.report import (
    SweepResult,
    SweepSpec,
    compare_profiles,
    render_csv,
    render_svg,
    sweep,
    sweep_csv,
    sweep_svg,
)
from ransomlab.scoring import (
    VARIABLE_KEYS, ScoreSet, TraitProfile, disinfection_payoff, disinfection_probability, severity, spreadability_score,
)

# Spot values below are frozen from hand evaluation of the weighted sums on
# the diagonal profile (all free variables equal to t) and of the payoff
# branches on (C, t).


def test_compare_companies_orderings(company_a, company_b):
    cmp = compare_profiles(company_a, company_b)
    by_metric = {m.metric: m for m in cmp.metrics}
    assert by_metric["SPS"].first == pytest.approx(83.0)
    assert by_metric["SPS"].second == pytest.approx(11.5)
    assert by_metric["S"].first == pytest.approx(59.75)
    assert by_metric["S"].second == pytest.approx(23.375)
    assert by_metric["DP"].first == pytest.approx(31.0)
    assert by_metric["DP"].second == pytest.approx(72.75)
    assert by_metric["DC"].first == pytest.approx(14.9375)
    assert by_metric["DC"].second == pytest.approx(90.0)
    assert by_metric["SPS"].higher == "first"
    assert by_metric["S"].higher == "first"
    assert by_metric["DP"].higher == "second"
    assert by_metric["DC"].higher == "second"


def test_compare_profile_with_itself_has_no_flags(company_a):
    cmp = compare_profiles(company_a, company_a)
    assert cmp.first == cmp.second
    assert all(m.higher is None for m in cmp.metrics)


def test_compare_rejects_zero_g(company_a):
    with pytest.raises(ValidationError, match="G"):
        compare_profiles(replace(company_a, g=0), company_a)


def test_sweep_spec_validation():
    with pytest.raises(ValidationError, match="fixed_variable"):
        SweepSpec(fixed_variable="X", fixed_value=10)
    with pytest.raises(ValidationError, match="fixed_value"):
        SweepSpec(fixed_variable="A", fixed_value=120)


def test_sweep_full_range_has_101_rows():
    result = sweep(SweepSpec("A", 20))
    assert [len(column) for column in result.scores] == [101] * 4
    assert [line.split(",")[0] for line in sweep_csv(result).splitlines()[1:4]] == ["0", "1", "2"]


def test_sweep_a20_spot_values():
    sps, s, dp, dc = (column[50] for column in sweep(SweepSpec("A", 20)).scores)
    assert sps == pytest.approx(71.0, abs=1e-9)
    assert s == pytest.approx(55.25, abs=1e-9)
    assert dp == pytest.approx(45.5, abs=1e-9)
    assert dc == pytest.approx(25.0, abs=1e-9)


def test_sweep_dc_column_independent_of_fixed_a():
    a20 = sweep(SweepSpec("A", 20))
    a80 = sweep(SweepSpec("A", 80))
    assert a20.column("DC") == a80.column("DC")
    assert all(x > y for x, y in zip(a20.column("SPS"), a80.column("SPS")))


def test_sweep_c10_zeroes_the_payoff():
    result = sweep(SweepSpec("C", 10))
    assert set(result.column("DC")) == {0.0}


def test_sweep_c90_follows_the_payoff_branches():
    result = sweep(SweepSpec("C", 90))
    for t, payoff in enumerate(result.column("DC")):
        severity_input = t / 100.0
        if severity_input < 0.2:
            assert payoff == 0.0
        else:
            assert payoff == pytest.approx(90.0)
    assert result.column("S")[50] == pytest.approx(54.0, abs=1e-9)
    assert result.column("DC")[50] == pytest.approx(90.0)


def test_sweep_floors_g_at_one_on_the_diagonal():
    result = sweep(SweepSpec("A", 20))
    # At t=0 the diagonal profile would carry G=0; the floor keeps the
    # severity evaluable: S = 0.25*SPS(20, 0) + 0.3*1 = 14 + 0.3.
    assert result.column("S")[0] == pytest.approx(14.3, abs=1e-9)


def test_sweep_with_fixed_g_zero_is_floored_too():
    result = sweep(SweepSpec("G", 0))
    assert result.column("S")[50] == pytest.approx(0.45 * 50 + 0.25 * 50 + 0.3, abs=1e-9)


fixed_values = st.floats(0, 100) | st.sampled_from([0, 0.0, -0.0, 100, 100.0, 5e-324]) | st.integers(0, 100)


@settings(max_examples=150, deadline=None)
@given(variable=st.sampled_from(VARIABLE_KEYS), value=fixed_values)
def test_sweep_rows_match_the_scores_of_each_diagonal_profile(variable, value):
    points = list(zip(*sweep(SweepSpec(variable, value)).scores))
    assert len(points) == 101
    for t, scores in enumerate(points):
        values = {key: float(value) if key == variable else float(t) for key in VARIABLE_KEYS}
        if values["G"] == 0.0:
            values["G"] = 1.0
        p = TraitProfile(**{key.lower(): x for key, x in values.items()})  # every point is a valid profile
        expected = ScoreSet(
            spreadability_score(p), severity(p), disinfection_probability(p), disinfection_payoff(p.c, t)
        )
        assert repr(ScoreSet(*scores)) == repr(expected)


def _assert_same_text(got: str, expected: str) -> None:
    """``got == expected``, reported at the first line that differs.

    A failing ``==`` on two ~10 KB texts has pytest diff them whole for every
    example hypothesis shrinks, which takes minutes; one line takes no time.
    Splitting on "\n" keeps the final newline in the comparison.
    """
    for number, (line, expected_line) in enumerate(zip_longest(got.split("\n"), expected.split("\n"))):
        assert line == expected_line, f"line {number}"


def _csv_per_row(result: SweepResult) -> str:
    """The CSV written one point at a time: the oracle for the one-template body."""
    lines = ["t,SPS,S,DP,DC"]
    lines.extend("%d,%.4f,%.4f,%.4f,%.4f" % (t, *scores) for t, scores in enumerate(zip(*result.scores)))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(variable=st.sampled_from(VARIABLE_KEYS), value=fixed_values)
def test_sweep_csv_matches_the_per_row_oracle(variable, value):
    result = sweep(SweepSpec(variable, value))
    _assert_same_text(sweep_csv(result), _csv_per_row(result))


def test_a_sweep_result_is_computed_from_its_spec():
    spec = SweepSpec("A", 20)
    result = SweepResult(spec)
    assert result == sweep(spec) and hash(result) == hash(sweep(spec)) == hash((spec,))
    assert repr(result) == "SweepResult(spec=SweepSpec(fixed_variable='A', fixed_value=20))"
    # Equal specs give equal results, whatever number type holds the value.
    assert SweepResult(SweepSpec("A", 20.0)) == result and hash(SweepResult(SweepSpec("A", 20.0))) == hash(result)
    assert SweepResult(SweepSpec("A", 20.0)).scores == result.scores
    assert result != SweepResult(SweepSpec("A", 21)) and result != SweepResult(SweepSpec("B", 20))
    assert [type(column) for column in result.scores] == [tuple] * 4
    assert all(type(x) is float for column in result.scores for x in column)
    assert result.column("DC") == list(result.scores[3])
    for metric in ("X", ["S"], None):
        with pytest.raises(ValidationError, match="unknown metric"):
            result.column(metric)
    with pytest.raises(TypeError):
        SweepResult(spec, result.scores)  # the columns come only from the spec


def test_a_sweep_result_keeps_its_scores_through_pickle_copies_and_replace():
    result = sweep(SweepSpec("G", 0))
    for clone in (pickle.loads(pickle.dumps(result)), copy.copy(result), copy.deepcopy(result)):
        assert clone == result and clone.scores == result.scores
        assert sweep_csv(clone) == sweep_csv(result) and sweep_svg(clone) == sweep_svg(result)
    other = SweepSpec("C", 90)
    moved = replace(result, spec=other)
    assert moved == sweep(other) and moved.scores == sweep(other).scores
    assert sweep_csv(moved) == sweep_csv(sweep(other))


def test_sweep_and_rendering_build_no_per_point_object(monkeypatch):
    def refuse(*args):
        raise AssertionError("a per-point object was built")

    monkeypatch.setattr(report, "ScoreSet", refuse)
    monkeypatch.setattr(report, "TraitProfile", refuse)
    for spec in (SweepSpec("C", 90), SweepSpec("H", 12.5)):
        result = sweep(spec)
        assert sweep_csv(result).count("\n") == 102
        assert sweep_svg(result).count("<polyline") == 4


def test_fixing_b_changes_only_dp():
    b10 = sweep(SweepSpec("B", 10))
    b90 = sweep(SweepSpec("B", 90))
    assert b10.column("SPS") == b90.column("SPS")
    assert b10.column("S") == b90.column("S")
    assert b10.column("DC") == b90.column("DC")
    assert b10.column("DP") != b90.column("DP")
    # The columns that do not read B are computed once and shared by both sweeps.
    assert [x is y for x, y in zip(b10.scores, b90.scores)] == [True, True, False, True]


def test_sweeps_share_exactly_the_columns_that_do_not_read_the_fixed_variable():
    # No formula reads D, so every D sweep has the same four column objects.
    d = sweep(SweepSpec("D", 37.5))
    assert all(x is y for x, y in zip(d.scores, sweep(SweepSpec("D", 0)).scores))
    # A is read by SPS, S (through SPS) and DP; only DC is shared, with D's.
    a = sweep(SweepSpec("A", 20))
    assert [x is y for x, y in zip(a.scores, d.scores)] == [False, False, False, True]
    assert [x is y for x, y in zip(a.scores, sweep(SweepSpec("A", 80)).scores)] == [False, False, False, True]


_ALL_OWN = (False,) * 4  # the templates with no shared column: every value is filled in


@settings(max_examples=150, deadline=None)
@given(variable=st.sampled_from(VARIABLE_KEYS), value=fixed_values)
@example(variable="G", value=0)
@example(variable="A", value=-0.0)
@example(variable="D", value=100)
def test_rendering_a_sweep_matches_the_all_own_templates(variable, value):
    result = sweep(SweepSpec(variable, value))
    points = list(zip(*result.scores))
    assert len(points) == 101
    cells = [x for point in points for x in point]
    _assert_same_text(sweep_csv(result), report._csv_template(_ALL_OWN) % tuple(cells))
    # The plot spans y = 550 (score 0) to y = 40 (score 100), one series per metric.
    ys = [550.0 - x / 100.0 * 510.0 for column in result.scores for x in column]
    _assert_same_text(sweep_svg(result), report._svg_frame(_ALL_OWN) % ("%s=%g" % (variable, value), *ys))


def test_csv_output_shape_and_determinism(tmp_path):
    result = sweep(SweepSpec("A", 20))
    text = sweep_csv(result)
    lines = text.splitlines()
    assert lines[0] == "t,SPS,S,DP,DC"
    assert len(lines) == 102
    assert lines[1].startswith("0,")
    assert sweep_csv(result) == text
    path = render_csv(result, tmp_path / "out.csv")
    assert path.read_bytes() == text.encode("utf-8")
    assert b"\r" not in path.read_bytes()


def test_csv_formats_four_decimals():
    result = sweep(SweepSpec("A", 20))
    line = sweep_csv(result).splitlines()[51]
    assert line == "50,71.0000,55.2500,45.5000,25.0000"


def test_svg_determinism_and_structure(tmp_path):
    result = sweep(SweepSpec("A", 20))
    first = sweep_svg(result)
    second = sweep_svg(result)
    assert first == second
    assert first.count("<polyline") == 4
    assert 'viewBox="0 0 800 600"' in first
    for label in ("SPS", "S", "DP", "DC"):
        assert f">{label}</text>" in first
    path = render_svg(result, tmp_path / "chart.svg")
    assert path.read_text(encoding="utf-8") == first
    # Identical sweeps rendered twice are byte-identical on disk.
    again = render_svg(sweep(SweepSpec("A", 20)), tmp_path / "chart2.svg")
    assert again.read_bytes() == path.read_bytes()

