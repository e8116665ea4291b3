from __future__ import annotations

import dataclasses

import pytest

from ransomlab.errors import ValidationError
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
        compare_profiles(dataclasses.replace(company_a, g=0), company_a)


def test_sweep_spec_validation():
    with pytest.raises(ValidationError, match="fixed_variable"):
        SweepSpec(fixed_variable="X", fixed_value=10)
    with pytest.raises(ValidationError, match="fixed_value"):
        SweepSpec(fixed_variable="A", fixed_value=120)


def test_sweep_full_range_has_101_rows():
    result = sweep(SweepSpec("A", 20))
    assert len(result.rows) == 101
    assert [row.t for row in result.rows[:3]] == [0, 1, 2]


def test_sweep_a20_spot_values():
    row = sweep(SweepSpec("A", 20)).rows[50]
    assert row.scores.sps == pytest.approx(71.0, abs=1e-9)
    assert row.scores.severity == pytest.approx(55.25, abs=1e-9)
    assert row.scores.disinfection_probability == pytest.approx(45.5, abs=1e-9)
    assert row.scores.disinfection_payoff == pytest.approx(25.0, abs=1e-9)


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
    for row in result.rows:
        severity_input = row.t / 100.0
        if severity_input < 0.2:
            assert row.scores.disinfection_payoff == 0.0
        else:
            assert row.scores.disinfection_payoff == pytest.approx(90.0)
    assert result.rows[50].scores.severity == pytest.approx(54.0, abs=1e-9)
    assert result.rows[50].scores.disinfection_payoff == pytest.approx(90.0)


def test_sweep_floors_g_at_one_on_the_diagonal():
    result = sweep(SweepSpec("A", 20))
    # At t=0 the diagonal profile would carry G=0; the floor keeps the
    # severity evaluable: S = 0.25*SPS(20, 0) + 0.3*1 = 14 + 0.3.
    assert result.rows[0].scores.severity == pytest.approx(14.3, abs=1e-9)


def test_sweep_with_fixed_g_zero_is_floored_too():
    result = sweep(SweepSpec("G", 0))
    assert result.rows[50].scores.severity == pytest.approx(0.45 * 50 + 0.25 * 50 + 0.3, abs=1e-9)


def test_fixing_b_changes_only_dp():
    b10 = sweep(SweepSpec("B", 10))
    b90 = sweep(SweepSpec("B", 90))
    assert b10.column("SPS") == b90.column("SPS")
    assert b10.column("S") == b90.column("S")
    assert b10.column("DC") == b90.column("DC")
    assert b10.column("DP") != b90.column("DP")


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


def test_svg_of_a_single_point_result_centres_the_point():
    full = sweep(SweepSpec("A", 20))
    svg = sweep_svg(SweepResult(spec=full.spec, rows=full.rows[50:51]))
    assert svg.count("<polyline") == 4
    assert 'points="350.00,' in svg
    assert svg.count(">50</text>") == 2  # the y-axis label 50 and the single x tick at t=50


def test_rendering_rejects_empty_results(tmp_path):
    empty = SweepResult(spec=SweepSpec("A", 20), rows=())
    with pytest.raises(ValidationError):
        sweep_csv(empty)
    with pytest.raises(ValidationError):
        sweep_svg(empty)
    with pytest.raises(ValidationError):
        render_csv(empty, tmp_path / "x.csv")
