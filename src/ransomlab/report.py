"""Scenario reports: two-profile comparisons and fixed-variable sweeps.

A sweep holds one variable fixed and drives every other scenario variable
together along the diagonal t = 0..100 (single-parameter sweeps are what
the score charts display: one curve per metric). The emitted columns are:

* ``SPS``, ``S``, ``DP`` evaluated on the diagonal profile;
* ``DC`` evaluated on the diagonal's raw inputs, i.e. the payoff branch fed
  with the profile's criticality C and the sweep parameter t as the
  severity input. Feeding the composed severity instead would leak the
  fixed A into DC through the spreadability term, and the DC curve is
  defined to be identical across A choices.

G is floored at 1 wherever the constructed profile would carry G = 0, so
the severity precondition holds at every sweep point.

Rendering is deterministic: fixed four-decimal CSV (LF line endings) and a
hand-assembled 800x600 SVG with one polyline per metric; identical results
produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ValidationError, check_number
from .scoring import (
    METRICS, VARIABLE_KEYS, ScoreSet, TraitProfile, disinfection_payoff, disinfection_probability, score_all, severity,
    spreadability_score,
)

__all__ = [
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "MetricComparison",
    "ProfileComparison",
    "compare_profiles",
    "sweep",
    "sweep_csv",
    "sweep_svg",
    "render_csv",
    "render_svg",
]

@dataclass(frozen=True)
class MetricComparison:
    """One metric side by side, with an ordering flag when values differ."""

    metric: str
    first: float
    second: float
    higher: str | None  # "first" | "second" | None on a tie


@dataclass(frozen=True)
class ProfileComparison:
    first: ScoreSet
    second: ScoreSet
    metrics: tuple[MetricComparison, ...]


def compare_profiles(p1: TraitProfile, p2: TraitProfile) -> ProfileComparison:
    """Score both profiles and flag, per metric, which side is strictly higher."""
    s1 = score_all(p1)
    s2 = score_all(p2)
    metrics = []
    for name, a, b in zip(METRICS, s1.values(), s2.values()):
        higher = "first" if a > b else "second" if b > a else None
        metrics.append(MetricComparison(metric=name, first=a, second=b, higher=higher))
    return ProfileComparison(first=s1, second=s2, metrics=tuple(metrics))


@dataclass(frozen=True)
class SweepSpec:
    """One variable held fixed; all others walk t = 0..100 together."""

    fixed_variable: str
    fixed_value: float

    def __post_init__(self) -> None:
        if self.fixed_variable not in VARIABLE_KEYS:
            raise ValidationError(f"fixed_variable must be one of A..I, got {self.fixed_variable!r}")
        check_number(self.fixed_value, "fixed_value", 0, 100)


@dataclass(frozen=True)
class SweepRow:
    t: int
    scores: ScoreSet


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...] = field(default_factory=tuple)

    def column(self, metric: str) -> list[float]:
        attr = METRICS.get(metric)
        if attr is None:
            raise ValidationError(f"unknown metric {metric!r}")
        return [getattr(row.scores, attr) for row in self.rows]


def _diagonal_profile(spec: SweepSpec, t: int) -> TraitProfile:
    values = dict.fromkeys(VARIABLE_KEYS, float(t))
    values[spec.fixed_variable] = float(spec.fixed_value)
    if values["G"] == 0.0:
        values["G"] = 1.0
    return TraitProfile(*values.values())


def sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the four metrics at every point t = 0..100 of the sweep."""
    rows = []
    for t in range(101):
        p = _diagonal_profile(spec, t)
        scores = ScoreSet(
            sps=spreadability_score(p),
            severity=severity(p),
            disinfection_probability=disinfection_probability(p),
            disinfection_payoff=disinfection_payoff(p.c, float(t)),
        )
        rows.append(SweepRow(t=t, scores=scores))
    return SweepResult(spec=spec, rows=tuple(rows))


_CSV_HEADER = ",".join(("t", *METRICS))
_CSV_ROW = "%d" + ",%.4f" * len(METRICS)


def sweep_csv(result: SweepResult) -> str:
    """CSV text with header ``t,SPS,S,DP,DC``, four decimals, LF endings."""
    if not result.rows:
        raise ValidationError("cannot render an empty sweep result")
    lines = [_CSV_HEADER]
    for row in result.rows:
        lines.append(_CSV_ROW % (row.t, *row.scores.values()))
    return "\n".join(lines) + "\n"


def render_csv(result: SweepResult, path: str | Path) -> Path:
    """Write the sweep as CSV and return the path."""
    path = Path(path)
    path.write_text(sweep_csv(result), encoding="utf-8", newline="")
    return path


_SVG_WIDTH = 800
_SVG_HEIGHT = 600
_PLOT_LEFT = 60.0
_PLOT_RIGHT = 640.0
_PLOT_TOP = 40.0
_PLOT_BOTTOM = 550.0
_SERIES_COLORS = {
    "SPS": "#1f77b4",
    "S": "#d62728",
    "DP": "#2ca02c",
    "DC": "#9467bd",
}


def _x_position(t: float, t_min: float, t_max: float) -> float:
    span = t_max - t_min
    if span == 0:
        return (_PLOT_LEFT + _PLOT_RIGHT) / 2.0
    return _PLOT_LEFT + (t - t_min) / span * (_PLOT_RIGHT - _PLOT_LEFT)


def _y_position(score: float) -> float:
    return _PLOT_BOTTOM - score / 100.0 * (_PLOT_BOTTOM - _PLOT_TOP)


def sweep_svg(result: SweepResult) -> str:
    """SVG 1.1 line chart: four polylines, axes, gridlines, and a legend.

    Output bytes are a pure function of the sweep result.
    """
    if not result.rows:
        raise ValidationError("cannot render an empty sweep result")
    spec = result.spec
    t_min = float(result.rows[0].t)
    t_max = float(result.rows[-1].t)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{(_PLOT_LEFT + _PLOT_RIGHT) / 2:.2f}" y="25" font-size="16" text-anchor="middle" '
        f'font-family="sans-serif">{spec.fixed_variable}={_format_value(spec.fixed_value)}</text>',
    ]

    for score in (0, 25, 50, 75, 100):
        y = _y_position(score)
        parts.append(
            f'<line x1="{_PLOT_LEFT:.2f}" y1="{y:.2f}" x2="{_PLOT_RIGHT:.2f}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_PLOT_LEFT - 8:.2f}" y="{y + 4:.2f}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{score}</text>'
        )

    tick_count = 5 if t_max > t_min else 1
    for k in range(tick_count):
        t = t_min + (t_max - t_min) * k / max(1, tick_count - 1)
        x = _x_position(t, t_min, t_max)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_PLOT_BOTTOM:.2f}" x2="{x:.2f}" y2="{_PLOT_BOTTOM + 5:.2f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_PLOT_BOTTOM + 20:.2f}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{t:.0f}</text>'
        )

    parts.append(
        f'<line x1="{_PLOT_LEFT:.2f}" y1="{_PLOT_TOP:.2f}" x2="{_PLOT_LEFT:.2f}" y2="{_PLOT_BOTTOM:.2f}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_PLOT_LEFT:.2f}" y1="{_PLOT_BOTTOM:.2f}" x2="{_PLOT_RIGHT:.2f}" y2="{_PLOT_BOTTOM:.2f}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{(_PLOT_LEFT + _PLOT_RIGHT) / 2:.2f}" y="{_PLOT_BOTTOM + 40:.2f}" font-size="14" '
        'text-anchor="middle" font-family="sans-serif">t</text>'
    )
    parts.append(
        f'<text x="20" y="{(_PLOT_TOP + _PLOT_BOTTOM) / 2:.2f}" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 20 {(_PLOT_TOP + _PLOT_BOTTOM) / 2:.2f})">score</text>'
    )

    for metric in METRICS:
        color = _SERIES_COLORS[metric]
        points = " ".join(
            f"{_x_position(row.t, t_min, t_max):.2f},{_y_position(value):.2f}"
            for row, value in zip(result.rows, result.column(metric))
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>')

    legend_x = _PLOT_RIGHT + 20.0
    for idx, metric in enumerate(METRICS):
        y = _PLOT_TOP + 20.0 + idx * 22.0
        color = _SERIES_COLORS[metric]
        parts.append(
            f'<line x1="{legend_x:.2f}" y1="{y:.2f}" x2="{legend_x + 24:.2f}" y2="{y:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 30:.2f}" y="{y + 4:.2f}" font-size="13" '
            f'font-family="sans-serif">{metric}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _format_value(value: float) -> str:
    return f"{value:g}"


def render_svg(result: SweepResult, path: str | Path) -> Path:
    """Write the sweep chart as SVG and return the path."""
    path = Path(path)
    path.write_text(sweep_svg(result), encoding="utf-8", newline="")
    return path
