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

G is floored at 1 wherever the diagonal profile would carry G = 0, so the
severity precondition holds at every sweep point.

A sweep is evaluated by column. Each variable is one 101-entry column (the
diagonal t, or the fixed value), and each score formula from
:mod:`ransomlab.scoring` is mapped over those columns. The
:class:`SweepSpec` is the only input and is validated on construction;
every point derived from it lies in [0, 100] by construction, so no
per-point :class:`~ransomlab.scoring.TraitProfile` is built. The formulas
are the functions the profile scores delegate to, so each row equals the
scores of its diagonal profile exactly. Every unfixed variable's column is
one module-level object, so a formula none of whose input columns reads the
fixed variable gives the same column in every sweep: that column is
computed once per process and shared, and only the formulas that read the
fixed variable are mapped.

Every sweep has the same axis, the 101 points t = 0..100, so a sweep is
its :class:`SweepSpec`: ``SweepResult(spec)`` is the one way to build a
:class:`SweepResult`, and it computes the four score columns, in
:data:`~ransomlab.scoring.METRICS` order, one value per point. The sweep
and both renderers build no per-point object.

Rendering is deterministic: fixed four-decimal CSV (LF line endings) and a
hand-assembled 800x600 SVG with one polyline per metric; identical results
produce byte-identical files. Each renderer fills a template built once per
set of shared score columns (at most 16). The template holds every cell
that depends only on that set: the t cells, the SVG frame and each point's
x, and the CSV cells and SVG y values of the shared columns. A column is
shared only if it *is* the shared object; equality is not enough, as
``-0.0 == 0.0`` but the two format differently. So a call formats only
the columns that read the fixed variable.
"""

from __future__ import annotations

import functools
from itertools import chain
from operator import is_
from pathlib import Path
from typing import Iterable

from .errors import Record, ValidationError, check_number, check_path, check_type
from .scoring import (
    METRICS, VARIABLE_KEYS, ScoreSet, TraitProfile, disinfection_payoff_of, disinfection_probability_of, score_all,
    severity_of, spreadability_of,
)

__all__ = [
    "SweepSpec",
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

class MetricComparison(Record):
    """One metric side by side; ``higher`` is "first" or "second" when values differ, None on a tie."""

    def __init__(self, metric: str, first: float, second: float, higher: str | None) -> None:
        self._store(metric, first, second, higher)


class ProfileComparison(Record):
    def __init__(self, first: ScoreSet, second: ScoreSet, metrics: tuple[MetricComparison, ...]) -> None:
        self._store(first, second, metrics)


def compare_profiles(p1: TraitProfile, p2: TraitProfile) -> ProfileComparison:
    """Score both profiles and flag, per metric, which side is strictly higher."""
    check_type(p1, TraitProfile, "first profile")
    check_type(p2, TraitProfile, "second profile")
    s1 = score_all(p1)
    s2 = score_all(p2)
    metrics = []
    for name, a, b in zip(METRICS, s1.values(), s2.values()):
        higher = "first" if a > b else "second" if b > a else None
        metrics.append(MetricComparison(metric=name, first=a, second=b, higher=higher))
    return ProfileComparison(first=s1, second=s2, metrics=tuple(metrics))


class SweepSpec(Record):
    """One variable held fixed; all others walk t = 0..100 together."""

    def __init__(self, fixed_variable: str, fixed_value: float) -> None:
        if fixed_variable not in VARIABLE_KEYS:
            raise ValidationError(f"fixed_variable must be one of A..I, got {fixed_variable!r}")
        check_number(fixed_value, 0, 100, "fixed_value")
        self._store(fixed_variable, fixed_value)


class SweepResult(Record):
    """A sweep: its spec, and one score column per metric, in :data:`METRICS` order, over the points t = 0..100.

    ``SweepResult(spec)`` checks ``spec`` and computes :attr:`scores` by column, as the module docstring describes:
    four tuples of 101 floats, one value per point. They are a pure function of the spec, so ``spec`` is the one
    field: equality, hashing and ``repr`` read it alone.
    """

    def __init__(self, spec: SweepSpec) -> None:
        check_type(spec, SweepSpec, "sweep spec")
        value = float(spec.fixed_value)
        if spec.fixed_variable == "G" and value == 0.0:
            value = 1.0
        columns = dict(_DIAGONAL_COLUMNS)
        columns[spec.fixed_variable] = (value,) * len(_POINTS)
        self._store(spec, scores=_mapped_scores(columns.values(), _diagonal_scores()))

    def column(self, metric: str) -> list[float]:
        k = _COLUMN_INDEX.get(metric) if isinstance(metric, str) else None
        if k is None:
            raise ValidationError(f"unknown metric {metric!r}")
        return list(self.scores[k])


_COLUMN_INDEX = {metric: k for k, metric in enumerate(METRICS)}
_POINTS = tuple(range(101))  # the sweep axis t, the same in every sweep
_DIAGONAL = tuple(map(float, _POINTS))
_DIAGONAL_G = (1.0, *_DIAGONAL[1:])  # G floored at 1 where the diagonal is 0
# Each unfixed variable's column, the same object in every sweep.
_DIAGONAL_COLUMNS = dict.fromkeys(VARIABLE_KEYS, _DIAGONAL) | {"G": _DIAGONAL_G}


def sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the four metrics at every point t = 0..100 of the sweep: ``SweepResult(spec)``."""
    return SweepResult(spec)


def _mapped_scores(variables: Iterable[tuple[float, ...]], shared: tuple) -> tuple[tuple[float, ...], ...]:
    """Map each score formula over the nine variable columns; return the score columns in :data:`METRICS` order.

    A formula whose inputs are all shared columns (the diagonals, or columns
    of ``shared``, the scores with no variable fixed) would map to the same
    values every time, so its column is the one in ``shared``, by identity.
    """
    a, b, c, _, e, f, g, h, i = variables
    shared_ids = {id(_DIAGONAL), id(_DIAGONAL_G), *map(id, shared)}

    def mapped(k: int, formula, *inputs: tuple[float, ...]) -> tuple[float, ...]:
        if shared and all(id(column) in shared_ids for column in inputs):
            return shared[k]
        return tuple(map(formula, *inputs))

    sps = mapped(0, spreadability_of, a, f)
    return (
        sps,
        mapped(1, severity_of, c, e, f, sps, g),
        mapped(2, disinfection_probability_of, a, b, e, f, h, i),
        mapped(3, disinfection_payoff_of, c, _DIAGONAL),
    )


@functools.cache
def _diagonal_scores() -> tuple[tuple[float, ...], ...]:
    """The score columns with every variable on its diagonal: the columns sweeps share, built on first use."""
    return _mapped_scores(_DIAGONAL_COLUMNS.values(), ())


def _split(result: SweepResult) -> tuple[tuple[bool, ...], list[tuple[float, ...]]]:
    """Which of ``result``'s score columns are the shared ones, and the others.

    Shared means the very object (``is``): ``-0.0 == 0.0``, but the two format differently.
    """
    shared = tuple(map(is_, result.scores, _diagonal_scores()))
    return shared, [column for column, is_shared in zip(result.scores, shared) if not is_shared]


_CSV_HEADER = ",".join(("t", *METRICS))


def sweep_csv(result: SweepResult) -> str:
    """CSV text with header ``t,SPS,S,DP,DC``, four decimals, LF endings."""
    check_type(result, SweepResult, "sweep result")
    # The template from _csv_template, filled from a flat row-major list of the cells not already in it.
    shared, own = _split(result)
    width = len(own)
    cells = [None] * (len(_POINTS) * width)
    for k, column in enumerate(own):
        cells[k::width] = column
    return _csv_template(shared) % tuple(cells)


@functools.cache
def _csv_template(shared: tuple[bool, ...]) -> str:
    """The CSV as a template: ``%.4f`` for each cell of a column not shared.

    The t cells and the shared columns' cells are already formatted.
    """
    fields = [["%d" % x for x in _POINTS]]
    for is_shared, column in zip(shared, _diagonal_scores()):
        fields.append(["%.4f" % x for x in column] if is_shared else ["%.4f"] * len(_POINTS))
    return "\n".join((_CSV_HEADER, *map(",".join, zip(*fields)), ""))


def render_csv(result: SweepResult, path: str | Path) -> Path:
    """Write the sweep as CSV and return the path."""
    return _write(sweep_csv(result), path)


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


_TICKS = (0, 25, 50, 75, 100)  # the gridline scores and the x-axis ticks


def _x_positions(ts: Iterable[int]) -> list[float]:
    width = _PLOT_RIGHT - _PLOT_LEFT
    return [_PLOT_LEFT + t / 100.0 * width for t in ts]


def _y_positions(scores: Iterable[float]) -> list[float]:
    height = _PLOT_BOTTOM - _PLOT_TOP
    return [_PLOT_BOTTOM - score / 100.0 * height for score in scores]


def sweep_svg(result: SweepResult) -> str:
    """SVG 1.1 line chart: four polylines, axes, gridlines, and a legend.

    Output bytes are a pure function of the sweep result. The frame comes
    from :func:`_svg_frame`; each call fills in the title and the y values
    of the series that are not shared.
    """
    check_type(result, SweepResult, "sweep result")
    spec = result.spec
    title = f"{spec.fixed_variable}={_format_value(spec.fixed_value)}"
    shared, own = _split(result)
    return _svg_frame(shared) % (title, *_y_positions(chain.from_iterable(own)))


@functools.cache
def _svg_frame(shared: tuple[bool, ...]) -> str:
    """The chart as a template: ``%s`` for the title, then ``%.2f`` for each y of a series not shared.

    Everything else depends only on the shared columns: the header,
    gridlines, ticks, axes, labels, legend, each point's x and the shared
    series' y values.
    """
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{(_PLOT_LEFT + _PLOT_RIGHT) / 2:.2f}" y="25" font-size="16" text-anchor="middle" '
        'font-family="sans-serif">%s</text>',
    ]

    for score, y in zip(_TICKS, _y_positions(_TICKS)):
        parts.append(
            f'<line x1="{_PLOT_LEFT:.2f}" y1="{y:.2f}" x2="{_PLOT_RIGHT:.2f}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_PLOT_LEFT - 8:.2f}" y="{y + 4:.2f}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{score}</text>'
        )

    for tick, x in zip(_TICKS, _x_positions(_TICKS)):
        parts.append(
            f'<line x1="{x:.2f}" y1="{_PLOT_BOTTOM:.2f}" x2="{x:.2f}" y2="{_PLOT_BOTTOM + 5:.2f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_PLOT_BOTTOM + 20:.2f}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{tick}</text>'
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

    # Each x is formatted once; a series not shared leaves its y values to the caller.
    xs = [f"{x:.2f}," for x in _x_positions(_POINTS)]
    for metric, is_shared, column in zip(METRICS, shared, _diagonal_scores()):
        ys = [f"{y:.2f}" for y in _y_positions(column)] if is_shared else ["%.2f"] * len(_POINTS)
        points = " ".join(map(str.__add__, xs, ys))
        color = _SERIES_COLORS[metric]
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
    return _write(sweep_svg(result), path)


def _write(text: str, path: str | Path) -> Path:
    check_path(path, "output path")
    path = Path(path)
    path.write_text(text, encoding="utf-8", newline="")
    return path
