"""Two-player normal-form games and elementary solution concepts.

Covers the ransom-payment game (pay or not vs. decrypt or not), the
classic prisoner's dilemma and snowdrift templates, pure Nash enumeration,
the 2x2 interior mixed equilibrium, strict dominance, and a single
explicit-Euler replicator step for symmetric games. Pure Nash and strict
dominance read best responses: each column's best row payoff and each
row's best column payoff, computed once per game.

Everything operates on immutable, non-empty :class:`BimatrixGame` values
(at least one row and one column) and is thread-safe. Games serialize
to/from JSON documents of the form
``{"row_labels": [...], "col_labels": [...], "payoffs": [[[r, c], ...], ...]}``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ValidationError, check_keys, check_number, check_type

__all__ = [
    "BimatrixGame",
    "Equilibrium",
    "make_game",
    "ransom_game",
    "pd_game",
    "snowdrift_game",
    "pure_nash",
    "mixed_nash_2x2",
    "dominant_strategies",
    "expected_payoffs",
    "replicator_step",
    "game_to_dict",
    "game_from_dict",
    "RANSOM_USER_DEFAULTS",
    "RANSOM_VIRUS_DEFAULTS",
]

Cell = tuple[float, float]

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class BimatrixGame:
    """A two-player game: ``payoffs[i][j]`` is ``(row_payoff, col_payoff)``.

    Payoffs may be given as finite ints or floats in nested lists or tuples;
    the game stores them as tuples of float pairs.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    payoffs: tuple[tuple[Cell, ...], ...]

    def __post_init__(self) -> None:
        for k, label in enumerate(self.row_labels):
            check_type(label, str, f"row label {k}")
        for k, label in enumerate(self.col_labels):
            check_type(label, str, f"column label {k}")
        if not self.row_labels or not self.col_labels:
            raise ValidationError("a game needs at least one row and one column")
        if len(self.payoffs) != len(self.row_labels):
            raise ValidationError(
                f"payoff matrix has {len(self.payoffs)} rows, expected {len(self.row_labels)}"
            )
        payoffs = []
        for i, row in enumerate(self.payoffs):
            if not isinstance(row, (list, tuple)):
                raise ValidationError(f"payoff row {i} must be a list")
            if len(row) != len(self.col_labels):
                raise ValidationError(
                    f"payoff row {i} has {len(row)} cells, expected {len(self.col_labels)}"
                )
            cells = []
            for j, cell in enumerate(row):
                if not (isinstance(cell, (list, tuple)) and len(cell) == 2):
                    raise ValidationError(f"payoff cell ({i}, {j}) must be a [row, col] pair")
                what = f"payoff cell ({i}, {j})"
                check_number(cell[0], what, -_FLOAT_MAX, _FLOAT_MAX)
                check_number(cell[1], what, -_FLOAT_MAX, _FLOAT_MAX)
                cells.append((float(cell[0]), float(cell[1])))
            payoffs.append(tuple(cells))
        object.__setattr__(self, "payoffs", tuple(payoffs))  # frozen: store the normalized form

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)

    def row_payoff(self, i: int, j: int) -> float:
        return self.payoffs[i][j][0]

    def col_payoff(self, i: int, j: int) -> float:
        return self.payoffs[i][j][1]


@dataclass(frozen=True)
class Equilibrium:
    """A solution point: mixed strategies, the value to each player, and kind."""

    row_mix: tuple[float, ...]
    col_mix: tuple[float, ...]
    row_value: float
    col_value: float
    kind: str  # "pure" | "mixed"

    def __post_init__(self) -> None:
        if self.kind not in ("pure", "mixed"):
            raise ValidationError(f"equilibrium kind must be 'pure' or 'mixed', got {self.kind!r}")
        _check_mix(self.row_mix, len(self.row_mix), "row")
        _check_mix(self.col_mix, len(self.col_mix), "column")


def make_game(
    row_labels: list[str] | tuple[str, ...],
    col_labels: list[str] | tuple[str, ...],
    payoffs: list[list[tuple[float, float]]],
) -> BimatrixGame:
    """Build a game from plain lists, normalizing to the immutable form."""
    return BimatrixGame(row_labels=tuple(row_labels), col_labels=tuple(col_labels), payoffs=tuple(payoffs))


# Ransom game cell order (row-major): (NotPay, Decrypt), (NotPay, NotDecrypt),
# (Pay, Decrypt), (Pay, NotDecrypt). Only two cells are anchored by the model:
# the user gets 100 when the attack is defeated without paying, and loses
# everything (-100, with the virus taking 100) when paying buys nothing.
# The remaining defaults are configuration, not ground truth: a moderate loss
# for unrecovered data without payment, a small residual benefit when paying
# does get the data back, and the full ransom for the virus whenever it is paid.
RANSOM_USER_DEFAULTS: tuple[float, float, float, float] = (100.0, -40.0, 10.0, -100.0)
RANSOM_VIRUS_DEFAULTS: tuple[float, float, float, float] = (0.0, 0.0, 100.0, 100.0)


def ransom_game(
    user_payoffs: tuple[float, float, float, float] = RANSOM_USER_DEFAULTS,
    virus_payoffs: tuple[float, float, float, float] = RANSOM_VIRUS_DEFAULTS,
) -> BimatrixGame:
    """The ransom-payment game: user rows {NotPay, Pay}, virus columns {Decrypt, NotDecrypt}.

    Payoff quadruples are row-major over the four cells.
    """
    if len(user_payoffs) != 4 or len(virus_payoffs) != 4:
        raise ValidationError("ransom_game expects 4 user payoffs and 4 virus payoffs")
    u = user_payoffs
    v = virus_payoffs
    return make_game(
        ["NotPay", "Pay"],
        ["Decrypt", "NotDecrypt"],
        [[(u[0], v[0]), (u[1], v[1])], [(u[2], v[2]), (u[3], v[3])]],
    )


def pd_game(t: float, r: float, p: float, s: float) -> BimatrixGame:
    """Symmetric prisoner's dilemma with temptation/reward/punishment/sucker payoffs.

    Requires the canonical ordering T > R > P > S.
    """
    if not (t > r > p > s):
        raise ValidationError(f"prisoner's dilemma requires T > R > P > S, got ({t}, {r}, {p}, {s})")
    return make_game(
        ["Cooperate", "Defect"],
        ["Cooperate", "Defect"],
        [[(r, r), (s, t)], [(t, s), (p, p)]],
    )


def snowdrift_game(b: float, c: float) -> BimatrixGame:
    """Symmetric snowdrift (chicken) game with benefit ``b`` and cost ``c``, b > c > 0.

    Cooperators split the cost: (b - c/2) each when both shovel, (b - c) for a
    lone shoveler whose free-riding partner gets b, and 0 for mutual defection.
    """
    if not (b > c > 0):
        raise ValidationError(f"snowdrift requires b > c > 0, got (b={b}, c={c})")
    return make_game(
        ["Cooperate", "Defect"],
        ["Cooperate", "Defect"],
        [[(b - c / 2.0, b - c / 2.0), (b - c, b)], [(b, b - c), (0.0, 0.0)]],
    )


def _unit_mix(n: int, k: int) -> tuple[float, ...]:
    return tuple(1.0 if idx == k else 0.0 for idx in range(n))


def _best_payoffs(g: BimatrixGame) -> tuple[list[float], list[float]]:
    """Each column's best row payoff and each row's best column payoff."""
    col_best = [max(row_payoff for row_payoff, _ in column) for column in zip(*g.payoffs)]
    row_best = [max(col_payoff for _, col_payoff in row) for row in g.payoffs]
    return col_best, row_best


def pure_nash(g: BimatrixGame) -> list[Equilibrium]:
    """All pure-strategy Nash equilibria, in row-major order.

    A profile qualifies when each player's strategy is a (weak) best response
    to the other's: its row payoff is its column's best and its column payoff
    is its row's best.
    """
    col_best, row_best = _best_payoffs(g)
    return [
        Equilibrium(_unit_mix(g.n_rows, i), _unit_mix(g.n_cols, j), row_payoff, col_payoff, "pure")
        for i, row in enumerate(g.payoffs)
        for j, (row_payoff, col_payoff) in enumerate(row)
        if row_payoff == col_best[j] and col_payoff == row_best[i]
    ]


def mixed_nash_2x2(g: BimatrixGame) -> Equilibrium | None:
    """The strictly interior mixed equilibrium of a 2x2 game, if one exists.

    Solves the standard indifference conditions: the row player mixes so the
    column player is indifferent between columns, and vice versa. Returns
    ``None`` when the indifference system is degenerate or the solution is
    not strictly inside the simplex.
    """
    if g.n_rows != 2 or g.n_cols != 2:
        raise ValidationError(f"mixed_nash_2x2 requires a 2x2 game, got {g.n_rows}x{g.n_cols}")
    a = [[g.row_payoff(i, j) for j in range(2)] for i in range(2)]
    b = [[g.col_payoff(i, j) for j in range(2)] for i in range(2)]

    denom_p = b[0][0] - b[0][1] - b[1][0] + b[1][1]
    denom_q = a[0][0] - a[0][1] - a[1][0] + a[1][1]
    if denom_p == 0 or denom_q == 0:
        return None
    p = (b[1][1] - b[1][0]) / denom_p  # weight on row 0
    q = (a[1][1] - a[0][1]) / denom_q  # weight on column 0
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        return None
    row_mix = (p, 1.0 - p)
    col_mix = (q, 1.0 - q)
    row_value, col_value = expected_payoffs(g, row_mix, col_mix)
    return Equilibrium(row_mix=row_mix, col_mix=col_mix, row_value=row_value, col_value=col_value, kind="mixed")


def dominant_strategies(g: BimatrixGame) -> tuple[list[str], list[str]]:
    """Strictly dominant strategies per player (each list holds at most one name).

    A strategy is strictly dominant when it is the unique best response
    against every opposing strategy.
    """
    col_best, row_best = _best_payoffs(g)
    best_rows = {
        tuple(i for i, (row_payoff, _) in enumerate(column) if row_payoff == best)
        for column, best in zip(zip(*g.payoffs), col_best)
    }
    best_cols = {
        tuple(j for j, (_, col_payoff) in enumerate(row) if col_payoff == best)
        for row, best in zip(g.payoffs, row_best)
    }
    return (
        [label for i, label in enumerate(g.row_labels) if best_rows == {(i,)}],
        [label for j, label in enumerate(g.col_labels) if best_cols == {(j,)}],
    )


def _check_mix(mix: tuple[float, ...], n: int, which: str) -> None:
    if len(mix) != n:
        raise ValidationError(f"{which} mix has length {len(mix)}, expected {n}")
    if any(x < 0 or not math.isfinite(x) for x in mix):
        raise ValidationError(f"{which} mix must be nonnegative and finite")
    if abs(sum(mix) - 1.0) > 1e-9:
        raise ValidationError(f"{which} mix must sum to 1, got {sum(mix)}")


def expected_payoffs(
    g: BimatrixGame, row_mix: tuple[float, ...], col_mix: tuple[float, ...]
) -> tuple[float, float]:
    """Bilinear expected payoff for each player under the given mixes."""
    row_mix = tuple(row_mix)
    col_mix = tuple(col_mix)
    _check_mix(row_mix, g.n_rows, "row")
    _check_mix(col_mix, g.n_cols, "column")
    row_value = 0.0
    col_value = 0.0
    for i, pi in enumerate(row_mix):
        if pi == 0.0:
            continue
        for j, qj in enumerate(col_mix):
            if qj == 0.0:
                continue
            row_value += pi * qj * g.row_payoff(i, j)
            col_value += pi * qj * g.col_payoff(i, j)
    return row_value, col_value


def replicator_step(g: BimatrixGame, pop: tuple[float, ...], dt: float) -> tuple[float, ...]:
    """One explicit-Euler replicator step on a symmetric game.

    Applies x_i' = x_i + dt * x_i * (f_i - mean fitness), where f_i is the
    payoff of strategy i against the population, then projects back onto the
    simplex (negative Euler overshoots are clamped to zero before
    renormalizing).
    """
    if g.row_labels != g.col_labels:
        raise ValidationError("replicator_step requires matching row and column strategy labels")
    for i in range(g.n_rows):
        for j in range(g.n_cols):
            if g.row_payoff(i, j) != g.col_payoff(j, i):
                raise ValidationError("replicator_step requires a symmetric game")
    pop = tuple(pop)
    _check_mix(pop, g.n_rows, "population")
    if not (dt > 0 and math.isfinite(dt)):
        raise ValidationError(f"dt must be positive and finite, got {dt}")

    fitness = [sum(g.row_payoff(i, j) * pop[j] for j in range(g.n_rows)) for i in range(g.n_rows)]
    mean_fitness = sum(x * f for x, f in zip(pop, fitness))
    raw = [max(0.0, x * (1.0 + dt * (f - mean_fitness))) for x, f in zip(pop, fitness)]
    total = sum(raw)
    if total == 0.0:
        raise ValidationError("replicator step collapsed the population to zero mass")
    return tuple(x / total for x in raw)


def game_to_dict(g: BimatrixGame) -> dict:
    """JSON-ready document for a game."""
    return {
        "row_labels": list(g.row_labels),
        "col_labels": list(g.col_labels),
        "payoffs": [[[rp, cp] for rp, cp in row] for row in g.payoffs],
    }


def game_from_dict(data: dict) -> BimatrixGame:
    """Parse and validate a game document produced by :func:`game_to_dict`."""
    check_keys(data, "game document", ("row_labels", "col_labels", "payoffs"))
    for key in ("row_labels", "col_labels", "payoffs"):
        check_type(data[key], list, f"'{key}'")
    return make_game(data["row_labels"], data["col_labels"], data["payoffs"])
