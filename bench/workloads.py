"""The three benchmark workloads.

Each workload is built once (set-up: generate seeded inputs, write them to a
work directory, load what set-up needs through ``ransomlab.ingest``) and then
driven as a closed loop with one client. Per op the runner calls
``prepare(i)`` (untimed: per-op inputs), ``op(args, tracer)`` (timed) and
``check(args, out, tracer)`` (untimed: returns a problem string or None).

The ``ransomlab`` package must be importable before this module is imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
from ransomlab import games, ingest, report, scoring, simnet, strategies

# The seed whose spread_mc scenario has a golden digest (see SpreadMC.golden_digest).
DEFAULT_SEED = 1


def write_files(directory: Path, files: dict[str, bytes]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)


def run_child(argv: list[str], env: dict[str, str], stdout: Path, stderr: Path) -> tuple[int, int]:
    """Run ``argv`` to completion; return (exit code, the child's peak RSS in KiB).

    ``os.wait4`` gives the resource usage of exactly this child, so the peak
    RSS of one command is not mixed with that of any other.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


def child_env(src: Path) -> dict[str, str]:
    """The environment for ``python -m ransomlab.cli`` with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# Independent oracles used by the checks.


def closed_form_scores(v: dict[str, float]) -> tuple[float, float, float, float]:
    """SPS, S, DP, DC straight from the published formulas."""
    sps = 0.7 * (100.0 - v["A"]) + 0.3 * v["F"]
    s = 0.1 * v["C"] + 0.25 * v["E"] + 0.1 * v["F"] + 0.25 * sps + 0.3 * v["G"]
    dp = 0.15 * v["A"] + 0.2 * v["B"] + 0.1 * (100.0 - v["E"]) + 0.15 * (100.0 - v["F"]) + 0.3 * v["H"] + 0.1 * v["I"]
    ch, sh = v["C"] / 100.0, s / 100.0
    if ch <= 0.2 or sh < 0.2:
        dc = 0.0
    elif ch > 0.8 or sh > 0.8:
        dc = 100.0 * ch
    else:
        dc = 100.0 * ch * sh
    return sps, s, dp, dc


def _score_tuple(scores) -> tuple[float, float, float, float]:
    return (scores.sps, scores.severity, scores.disinfection_probability, scores.disinfection_payoff)


def _close(a, b, tol: float = 1e-9) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def brute_pure_nash(payoffs: list[list[list[float]]]) -> list[tuple[int, int]]:
    """Every cell where both players play a weak best response, row-major."""
    n, m = len(payoffs), len(payoffs[0])
    best_row = [max(payoffs[i][j][0] for i in range(n)) for j in range(m)]
    best_col = [max(payoffs[i][j][1] for j in range(m)) for i in range(n)]
    return [
        (i, j)
        for i in range(n)
        for j in range(m)
        if payoffs[i][j][0] >= best_row[j] and payoffs[i][j][1] >= best_col[i]
    ]


def _pure_cells(equilibria) -> list[tuple[int, int]]:
    return [(eq.row_mix.index(1.0), eq.col_mix.index(1.0)) for eq in equilibria]


def _game_payoffs(game) -> list[list[list[float]]]:
    return [[list(cell) for cell in row] for row in game.payoffs]


def check_2x2_solution(game, pure, mixed, dominant) -> str | None:
    """Check the three 2x2 solution concepts against the payoff table."""
    cells = _game_payoffs(game)
    if _pure_cells(pure) != brute_pure_nash(cells):
        return f"pure_nash {_pure_cells(pure)} != brute force {brute_pure_nash(cells)}"
    if mixed is not None:
        (p, _), (q, _) = mixed.row_mix, mixed.col_mix
        row0 = q * cells[0][0][0] + (1 - q) * cells[0][1][0]
        row1 = q * cells[1][0][0] + (1 - q) * cells[1][1][0]
        col0 = p * cells[0][0][1] + (1 - p) * cells[1][0][1]
        col1 = p * cells[0][1][1] + (1 - p) * cells[1][1][1]
        if abs(row0 - row1) > 1e-9 or abs(col0 - col1) > 1e-9:
            return "mixed equilibrium leaves a player not indifferent"
    rows = [game.row_labels[i] for i in range(2) if all(cells[i][j][0] > cells[1 - i][j][0] for j in range(2))]
    cols = [game.col_labels[j] for j in range(2) if all(cells[i][j][1] > cells[i][1 - j][1] for i in range(2))]
    if list(dominant[0]) != rows or list(dominant[1]) != cols:
        return f"dominant strategies {dominant} != brute force {(rows, cols)}"
    return None


def solve_2x2(game):
    return games.pure_nash(game), games.mixed_nash_2x2(game), games.dominant_strategies(game)


# ---------------------------------------------------------------------------


class Workload:
    """Defaults for the work counts a workload does not have."""

    edge_ticks_per_call = 0
    rng_draws_per_call = 0
    check_runs = 0
    pure_nash_cells = 0
    network_ms = 0.0

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def final_checks(self) -> list[str | None]:
        """Extra untimed checks after the loop; each counts as one attempted op."""
        return []


class SpreadMC(Workload):
    """One op is one ``simnet.monte_carlo_f`` call on a 2,000-host network."""

    RUNS = 4
    TICKS = 30
    P = 0.3
    CLEAN = 0.05
    # sha256 of the final_fs of op 0 at DEFAULT_SEED, captured with the
    # library as it stood when this benchmark was added (see golden_digest()).
    GOLDEN_SHA256 = "4c1a5435473f337202f5b8d60ac2300ed3a0c317bed15d4fe19d97b535ee606c"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        write_files(workdir, gen.spread_network(seed))
        start = time.perf_counter_ns()
        self.net = ingest.load_network(workdir / "network.json")
        self.network_ms = (time.perf_counter_ns() - start) / 1e6
        hosts, edges = len(self.net.hosts), len(self.net.edges)
        self.min_f = 100.0 * sum(h.state is simnet.HostState.INFECTED for h in self.net.hosts) / hosts
        self.edge_ticks_per_call = self.RUNS * self.TICKS * edges
        self.rng_draws_per_call = self.RUNS * self.TICKS * (2 * edges + hosts)

    @classmethod
    def _config(cls, base_seed: int) -> simnet.SimConfig:
        return simnet.SimConfig(
            ticks=cls.TICKS,
            base_infection_prob=cls.P,
            clean_prob_per_tick=cls.CLEAN,
            reinfection_allowed=True,
            seed=base_seed,
        )

    def prepare(self, i: int) -> simnet.SimConfig:
        return self._config(gen.spread_base_seed(self.seed, i))

    def op(self, cfg: simnet.SimConfig, tr):
        return tr.call("simnet.monte_carlo_f", simnet.monte_carlo_f, self.net, cfg, self.RUNS)

    def check(self, cfg, out, tr) -> str | None:
        fs = out.final_fs
        if len(fs) != self.RUNS:
            return f"final_fs has {len(fs)} values, expected {self.RUNS}"
        if not all(self.min_f <= f <= 100.0 for f in fs):
            return f"final_fs out of [{self.min_f}, 100]: {fs}"
        mean = sum(fs) / len(fs)
        std = math.sqrt(sum((f - mean) ** 2 for f in fs) / len(fs))
        if abs(mean - out.mean_f) > 1e-9 or abs(std - out.stddev_f) > 1e-9:
            return f"mean/stddev ({out.mean_f}, {out.stddev_f}) disagree with final_fs ({mean}, {std})"
        return None

    @classmethod
    def golden_digest(cls) -> str:
        """Digest of op 0's final_fs at DEFAULT_SEED, whatever seed this run uses."""
        doc = json.loads(gen.spread_network(DEFAULT_SEED)["network.json"])
        net = simnet.network_from_dict(doc)
        cfg = cls._config(gen.spread_base_seed(DEFAULT_SEED, 0))
        fs = simnet.monte_carlo_f(net, cfg, cls.RUNS).final_fs
        return hashlib.sha256(",".join(repr(f) for f in fs).encode()).hexdigest()

    def final_checks(self) -> list[str | None]:
        digest = self.golden_digest()
        if digest != self.GOLDEN_SHA256:
            return [f"golden final_fs digest {digest} != {self.GOLDEN_SHA256}"]
        return [None]


@dataclass
class TriageArgs:
    incident: int
    whatif: dict[str, float]
    weights: tuple[float, ...]
    fix: tuple[str, float]
    game: int


class TriageBatch(Workload):
    """One op is one incident triage across ingest, scoring, strategies, games and report."""

    def __init__(self, seed: int, workdir: Path) -> None:
        files = gen.triage_inputs(seed)
        write_files(workdir, files)
        names = sorted(n for n in files if n.startswith("incident-"))
        self.paths = [workdir / n for n in names]
        self.sizes = [len(files[n]) for n in names]
        self.docs = [json.loads(files[n]) for n in names]
        self.plan = json.loads(files["plan.json"])
        game_docs = [json.loads(files[n]) for n in sorted(n for n in files if n.startswith("game-"))]
        self.games = [games.game_from_dict(doc) for doc in game_docs]
        self.game_payoffs = [doc["payoffs"] for doc in game_docs]
        self.pure_nash_cells = sum(len(p) * len(p[0]) for p in self.game_payoffs)
        # The incident before op 0 is the last one of the cycle.
        self.previous = (len(self.paths) - 1, ingest.load_profile_document(self.paths[-1]))

    def prepare(self, i: int) -> TriageArgs:
        k = i % len(self.paths)
        variables = self.docs[k]["variables"]
        whatif = {name.lower(): value for name, value in variables.items()}
        whatif["f"] = self.plan[k]["whatif_f"]
        # Sweep with the incident's largest variable held at its value.
        fix_var = max(gen.VARIABLES, key=lambda v: (variables[v], v))
        return TriageArgs(
            incident=k,
            whatif=whatif,
            weights=tuple(self.plan[k]["weights"]),
            fix=(fix_var, variables[fix_var]),
            game=i % len(self.games),
        )

    def op(self, a: TriageArgs, tr) -> dict:
        doc = tr.call("ingest.load_profile_document", ingest.load_profile_document, self.paths[a.incident])
        scores = tr.call("scoring.score_all", scoring.score_all, doc.profile)
        whatif = tr.call("scoring.TraitProfile", scoring.TraitProfile, **a.whatif)
        whatif_scores = tr.call("scoring.score_all", scoring.score_all, whatif)
        catalog = tr.call("strategies.default_catalog", strategies.default_catalog)
        ranking = tr.call("strategies.rank_strategies", strategies.rank_strategies, catalog, doc.profile, a.weights)
        previous, previous_doc = self.previous
        comparison = tr.call("report.compare_profiles", report.compare_profiles, previous_doc.profile, doc.profile)
        # Ransom game from the incident: unrecovered data costs the severity,
        # a paid decryption is worth the payoff minus the ransom (economic state B).
        p = doc.profile
        user = (100.0, -scores.severity, scores.disinfection_payoff - p.b, -100.0)
        virus = (0.0, 0.0, p.b, 100.0)
        ransom = tr.call("games.ransom_game", games.ransom_game, user, virus)
        solved = tr.call("games.solve2x2", solve_2x2, ransom)
        equilibria = tr.call("games.pure_nash", games.pure_nash, self.games[a.game])
        spec = tr.call("report.SweepSpec", report.SweepSpec, fixed_variable=a.fix[0], fixed_value=a.fix[1])
        result = tr.call("report.sweep", report.sweep, spec)
        csv = tr.call("report.sweep_csv", report.sweep_csv, result)
        svg = tr.call("report.sweep_svg", report.sweep_svg, result)
        self.previous = (a.incident, doc)
        return dict(
            doc=doc, scores=scores, whatif_scores=whatif_scores, catalog=catalog, ranking=ranking,
            previous=previous, comparison=comparison, ransom=ransom, solved=solved,
            equilibria=equilibria, csv=csv, svg=svg,
        )

    def check(self, a: TriageArgs, out: dict, tr) -> str | None:
        tr.count("ingest.bytes", self.sizes[a.incident])
        tr.count("report.svg_bytes", len(out["svg"].encode("utf-8")))
        tr.distinct("strategies.default_catalog", out["catalog"])
        raw = self.docs[a.incident]
        variables = raw["variables"]
        if out["doc"].name != raw["name"]:
            return f"incident {a.incident} name {out['doc'].name!r} != {raw['name']!r}"
        expected = closed_form_scores(variables)
        if not _close(_score_tuple(out["scores"]), expected):
            return f"incident {a.incident} scores {_score_tuple(out['scores'])} != closed form {expected}"
        whatif_vars = dict(variables, F=a.whatif["f"])
        if not _close(_score_tuple(out["whatif_scores"]), closed_form_scores(whatif_vars)):
            return f"incident {a.incident} what-if scores disagree with the closed form"
        ranking = out["ranking"]
        values = [score for _, score in ranking]
        if len(ranking) != 5 or any(x < y for x, y in zip(values, values[1:])):
            return f"ranking is not five strategies in non-increasing order: {values}"
        pairs = zip(closed_form_scores(self.docs[out["previous"]]["variables"]), expected)
        for m, (first, second) in zip(out["comparison"].metrics, pairs):
            higher = "first" if first > second else "second" if second > first else None
            if abs(m.first - first) > 1e-9 or abs(m.second - second) > 1e-9 or m.higher != higher:
                return f"comparison {m.metric} ({m.first}, {m.second}, {m.higher}) != ({first}, {second}, {higher})"
        problem = check_2x2_solution(out["ransom"], *out["solved"])
        if problem:
            return f"ransom game: {problem}"
        found = _pure_cells(out["equilibria"])
        expected_cells = brute_pure_nash(self.game_payoffs[a.game])
        if found != expected_cells:
            return f"game {a.game}: pure_nash {found} != brute force {expected_cells}"
        csv = out["csv"]
        if csv.count("\n") != 102 or not csv.startswith("t,SPS,S,DP,DC\n"):
            return f"sweep CSV has {csv.count(chr(10))} lines, expected 102"
        if not (out["svg"].startswith("<?xml") and out["svg"].endswith("</svg>\n")):
            return "sweep SVG is not a complete document"
        return None


@dataclass
class Session:
    index: int
    directory: Path
    params: dict
    simulate: dict
    argvs: list[tuple[str, list[str]]]


class CliSession(Workload):
    """One op is one analyst session: six sequential ``ransomlab`` subprocesses."""

    def __init__(self, seed: int, workdir: Path, src: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.env = child_env(src)
        self.peak_child_kb = 0
        self.check_runs = gen.CLI_RUNS
        # Expected simulate line per scenario, computed once per tracer so a
        # traced run times the in-process simulate too (simnet.run_overhead_us).
        self._simulate_tracer = None
        self._simulate_expected: dict[int, bytes] = {}

    def prepare(self, i: int) -> Session:
        # A fresh directory per session: rewriting a file in place makes ext4
        # flush it on truncate, which costs milliseconds per file.
        d = self.workdir / "session"
        shutil.rmtree(d, ignore_errors=True)
        files = gen.cli_session(self.seed, i)
        write_files(d, files)
        params = json.loads(files["session.json"])
        sim = json.loads(files["simulate.json"])
        base = [sys.executable, "-m", "ransomlab.cli"]
        a, b, net = str(d / "a.json"), str(d / "b.json"), str(d / "network.json")
        var, value = params["fix"]
        simulate = [
            "simulate", "--network", net, "--ticks", str(sim["ticks"]), "--p", repr(sim["p"]),
            "--seed", str(sim["seed"]), "--runs", str(sim["runs"]), "--clean", repr(sim["clean"]),
        ] + (["--reinfect"] if sim["reinfect"] else [])
        argvs = [
            ("score", ["score", "--profile", a, "--json"]),
            ("compare", ["compare", "--a", a, "--b", b]),
            ("sweep", ["sweep", f"--fix={var}={value!r}", "--out", str(d / "sweep.csv"), "--svg", str(d / "sweep.svg")]),
            ("rank", ["rank", "--profile", a, "--weights", ",".join(repr(w) for w in params["weights"])]),
            ("game", ["game", *params["game"], "--solve"]),
            ("simulate", simulate),
        ]
        return Session(i, d, params, sim, [(name, base + argv) for name, argv in argvs])

    def op(self, s: Session, tr):
        codes = []
        for name, argv in s.argvs:
            start = time.perf_counter_ns()
            code, rss_kb = run_child(argv, self.env, s.directory / f"{name}.out", s.directory / f"{name}.err")
            tr.record(f"cli.{name}", start, time.perf_counter_ns())
            codes.append((name, code, rss_kb))
        return codes

    def peak_rss_kb(self) -> int:
        return self.peak_child_kb

    def _expected(self, s: Session, tr) -> dict[str, bytes]:
        """The library's own output for this session's inputs, per command."""
        p = s.params
        d = s.directory
        a = ingest.load_profile_document(d / "a.json")
        b = ingest.load_profile_document(d / "b.json")
        sc = scoring.score_all(a.profile)
        out = {"score": json.dumps({"SPS": sc.sps, "S": sc.severity, "DP": sc.disinfection_probability,
                                    "DC": sc.disinfection_payoff}) + "\n"}
        flags = {"first": "a", "second": "b", None: "equal"}
        lines = [f"a: {a.name}", f"b: {b.name}"] + [
            f"{m.metric}: a={m.first:.4f} b={m.second:.4f} higher={flags[m.higher]}"
            for m in report.compare_profiles(a.profile, b.profile).metrics
        ]
        out["compare"] = "\n".join(lines) + "\n"
        result = report.sweep(report.SweepSpec(fixed_variable=p["fix"][0], fixed_value=float(p["fix"][1])))
        out["sweep"] = ""
        out["sweep.csv"] = report.sweep_csv(result)
        out["sweep.svg"] = report.sweep_svg(result)
        ranking = strategies.rank_strategies(strategies.default_catalog(), a.profile, tuple(p["weights"]))
        out["rank"] = "".join(f"{n}. {st.name} score={score:.4f}\n" for n, (st, score) in enumerate(ranking, 1))
        kind, *flags_ = p["game"]
        kv = dict(f[2:].split("=", 1) for f in flags_)
        if kind == "ransom":
            game = games.ransom_game(*(tuple(float(x) for x in kv[k].split(",")) for k in ("user", "virus")))
        elif kind == "pd":
            game = games.pd_game(*(float(kv[k]) for k in ("t", "r", "p", "s")))
        else:
            game = games.snowdrift_game(float(kv["b"]), float(kv["c"]))
        pure = games.pure_nash(game)
        lines = [f"pure Nash: ({game.row_labels[i]}, {game.col_labels[j]})" for i, j in _pure_cells(pure)]
        mixed = games.mixed_nash_2x2(game)
        if mixed is None:
            lines = (lines or ["pure Nash: none"]) + ["mixed Nash: none"]
        else:
            row = ", ".join(f"{x:.4f}" for x in mixed.row_mix)
            col = ", ".join(f"{x:.4f}" for x in mixed.col_mix)
            lines = (lines or ["pure Nash: none"]) + [f"mixed Nash: row=({row}) col=({col})"]
        out["game"] = "\n".join(lines) + "\n"
        out = {k: v.encode("utf-8") for k, v in out.items()}
        out["simulate"] = self._expected_simulate(s, tr)
        return out

    def _expected_simulate(self, s: Session, tr) -> bytes:
        if tr is not self._simulate_tracer:
            self._simulate_tracer, self._simulate_expected = tr, {}
        scenario = s.params["scenario"]
        if scenario not in self._simulate_expected:
            sim = s.simulate
            net = ingest.load_network(s.directory / "network.json")
            cfg = simnet.SimConfig(
                ticks=sim["ticks"], base_infection_prob=sim["p"], clean_prob_per_tick=sim["clean"],
                reinfection_allowed=sim["reinfect"], seed=sim["seed"],
            )
            summary = tr.call("check.simnet.monte_carlo_f", simnet.monte_carlo_f, net, cfg, sim["runs"])
            line = f"mean_f={summary.mean_f:.4f} stddev_f={summary.stddev_f:.4f}\n"
            self._simulate_expected[scenario] = line.encode("utf-8")
        return self._simulate_expected[scenario]

    def check(self, s: Session, codes, tr) -> str | None:
        self.peak_child_kb = max([self.peak_child_kb] + [rss for _, _, rss in codes])
        for name, code, _ in codes:
            err = (s.directory / f"{name}.err").read_bytes()
            if code != 0 or err:
                return f"session {s.index} {name}: exit {code}, stderr {err[:200]!r}"
        expected = self._expected(s, tr)
        for key, want in expected.items():
            path = s.directory / (key if "." in key else f"{key}.out")
            if path.read_bytes() != want:
                return f"session {s.index} {key}: output differs from the library's"
        return None


def make(name: str, seed: int, workdir: Path, src: Path) -> Workload:
    if name == "spread_mc":
        return SpreadMC(seed, workdir)
    if name == "triage_batch":
        return TriageBatch(seed, workdir)
    if name == "cli_session":
        return CliSession(seed, workdir, src)
    raise ValueError(f"unknown workload {name!r}")

