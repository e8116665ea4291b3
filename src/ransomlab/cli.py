"""Command-line front door.

Subcommands::

    ransomlab score    --profile <file> [--json]
    ransomlab compare  --a <file> --b <file>
    ransomlab sweep    --fix <VAR>=<value> [--out <csv>] [--svg <file>]
    ransomlab game     {ransom|pd|snowdrift} [payoff flags] [--solve]
    ransomlab rank     --profile <file> [--weights w1,w2,w3,w4]
    ransomlab simulate --network <file> --ticks N --p <prob> --seed S
                       [--runs R] [--clean <prob>] [--reinfect]

All scores print with four decimal places and identical invocations produce
byte-identical output. Exit codes: 0 success, 2 usage or validation
failure, 1 runtime failure (for example an unwritable output path). Every
error path writes a single line starting with ``error:`` to stderr.

Each handler imports the modules it runs, so a ``ransomlab`` process loads
only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Sequence

from .errors import ValidationError

if TYPE_CHECKING:
    from . import games

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_score(args: argparse.Namespace) -> int:
    from .ingest import load_profile
    from .scoring import METRICS, score_all

    scores = dict(zip(METRICS, score_all(load_profile(args.profile)).values()))
    if args.json:
        print(json.dumps(scores))
    else:
        print(" ".join(f"{name}={value:.4f}" for name, value in scores.items()))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from . import report
    from .ingest import load_profile_document

    doc_a = load_profile_document(args.a)
    doc_b = load_profile_document(args.b)
    comparison = report.compare_profiles(doc_a.profile, doc_b.profile)
    print(f"a: {doc_a.name}")
    print(f"b: {doc_b.name}")
    flags = {"first": "a", "second": "b", None: "equal"}
    for m in comparison.metrics:
        print(f"{m.metric}: a={m.first:.4f} b={m.second:.4f} higher={flags[m.higher]}")
    return 0


def _parse_fix(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise ValidationError(f"--fix expects VAR=value, got {text!r}")
    var, _, raw = text.partition("=")
    var = var.strip()
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"--fix value must be a number, got {raw!r}") from None
    return var, value


def _cmd_sweep(args: argparse.Namespace) -> int:
    from . import report

    var, value = _parse_fix(args.fix)
    result = report.sweep(report.SweepSpec(fixed_variable=var, fixed_value=value))
    if args.out:
        report.render_csv(result, args.out)
    else:
        sys.stdout.write(report.sweep_csv(result))
    if args.svg:
        report.render_svg(result, args.svg)
    return 0


def _parse_quad(text: str, what: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError(f"{what} expects 4 comma-separated numbers, got {text!r}")
    try:
        a, b, c, d = (float(x) for x in parts)
    except ValueError:
        raise ValidationError(f"{what} expects numbers, got {text!r}") from None
    return (a, b, c, d)


def _build_game(args: argparse.Namespace) -> games.BimatrixGame:
    from . import games

    if args.kind == "ransom":
        user = _parse_quad(args.user, "--user") if args.user else games.RANSOM_USER_DEFAULTS
        virus = _parse_quad(args.virus, "--virus") if args.virus else games.RANSOM_VIRUS_DEFAULTS
        return games.ransom_game(user, virus)
    if args.kind == "pd":
        return games.pd_game(args.t, args.r, args.p, args.s)
    return games.snowdrift_game(args.b, args.c)


def _cmd_game(args: argparse.Namespace) -> int:
    from . import games

    game = _build_game(args)
    if not args.solve:
        print(json.dumps(games.game_to_dict(game), indent=2))
        return 0
    pure = games.pure_nash(game)
    if pure:
        for eq in pure:
            i = eq.row_mix.index(1.0)
            j = eq.col_mix.index(1.0)
            print(f"pure Nash: ({game.row_labels[i]}, {game.col_labels[j]})")
    else:
        print("pure Nash: none")
    mixed = games.mixed_nash_2x2(game)
    if mixed is None:
        print("mixed Nash: none")
    else:
        row = ", ".join(f"{x:.4f}" for x in mixed.row_mix)
        col = ", ".join(f"{x:.4f}" for x in mixed.col_mix)
        print(f"mixed Nash: row=({row}) col=({col})")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    from .ingest import load_profile
    from .strategies import default_catalog, rank_strategies

    profile = load_profile(args.profile)
    weights = _parse_quad(args.weights, "--weights") if args.weights else (0.25, 0.25, 0.25, 0.25)
    ranking = rank_strategies(default_catalog(), profile, weights)
    for position, (strategy, score) in enumerate(ranking, start=1):
        print(f"{position}. {strategy.name} score={score:.4f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import simnet
    from .ingest import load_network

    network = load_network(args.network)
    cfg = simnet.SimConfig(
        ticks=args.ticks,
        base_infection_prob=args.p,
        clean_prob_per_tick=args.clean,
        reinfection_allowed=args.reinfect,
        seed=args.seed,
    )
    summary = simnet.monte_carlo_f(network, cfg, args.runs)
    print(f"mean_f={summary.mean_f:.4f} stddev_f={summary.stddev_f:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ransomlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_score = sub.add_parser("score", help="score a trait profile")
    p_score.add_argument("--profile", required=True, help="profile document (JSON)")
    p_score.add_argument("--json", action="store_true", help="emit a JSON score document")
    p_score.set_defaults(handler=_cmd_score)

    p_compare = sub.add_parser("compare", help="compare two trait profiles")
    p_compare.add_argument("--a", required=True, help="first profile document")
    p_compare.add_argument("--b", required=True, help="second profile document")
    p_compare.set_defaults(handler=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="sweep all variables with one held fixed")
    p_sweep.add_argument("--fix", required=True, metavar="VAR=VALUE", help="variable to hold fixed, e.g. A=20")
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    p_sweep.add_argument("--svg", help="also write an SVG chart here")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_game = sub.add_parser("game", help="build and optionally solve a game")
    game_sub = p_game.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    g_ransom = game_sub.add_parser("ransom", help="the ransom-payment game")
    g_ransom.add_argument("--user", help="user payoffs: NotPay/Decrypt, NotPay/NotDecrypt, Pay/Decrypt, Pay/NotDecrypt")
    g_ransom.add_argument("--virus", help="virus payoffs in the same cell order")
    g_pd = game_sub.add_parser("pd", help="prisoner's dilemma")
    g_pd.add_argument("--t", type=float, required=True, help="temptation payoff")
    g_pd.add_argument("--r", type=float, required=True, help="reward payoff")
    g_pd.add_argument("--p", type=float, required=True, help="punishment payoff")
    g_pd.add_argument("--s", type=float, required=True, help="sucker payoff")
    g_snow = game_sub.add_parser("snowdrift", help="snowdrift (chicken) game")
    g_snow.add_argument("--b", type=float, required=True, help="benefit")
    g_snow.add_argument("--c", type=float, required=True, help="cost")
    for sp in (g_ransom, g_pd, g_snow):
        sp.add_argument("--solve", action="store_true", help="print equilibria instead of the game document")
        sp.set_defaults(handler=_cmd_game)

    p_rank = sub.add_parser("rank", help="rank recovery strategies for a profile")
    p_rank.add_argument("--profile", required=True, help="profile document (JSON)")
    p_rank.add_argument("--weights", help="effectiveness,ease,safety,payoff weights (default equal)")
    p_rank.set_defaults(handler=_cmd_rank)

    p_sim = sub.add_parser("simulate", help="run the spread simulator")
    p_sim.add_argument("--network", required=True, help="network document (JSON)")
    p_sim.add_argument("--ticks", type=int, required=True, help="number of ticks per run")
    p_sim.add_argument("--p", type=float, required=True, help="base infection probability")
    p_sim.add_argument("--seed", type=int, required=True, help="base RNG seed")
    p_sim.add_argument("--runs", type=int, default=1, help="independent runs (default 1)")
    p_sim.add_argument("--clean", type=float, default=0.0, help="per-tick cleaning probability (default 0)")
    p_sim.add_argument("--reinfect", action="store_true", help="allow cleaned hosts to be reinfected")
    p_sim.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
