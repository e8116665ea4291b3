"""Seeded input generators for the benchmark workloads.

Every generator returns a mapping of file name to the exact bytes to write,
so the same seed always gives byte-identical inputs. Each generator draws
from its own ``random.Random`` stream, seeded with a string that names the
stream and the seed (string seeds hash deterministically, unlike ``hash()``).
"""

from __future__ import annotations

import json
import random

VARIABLES = "ABCDEFGHI"

# spread_mc network shape: about 2,000 hosts, 200 clouds, 3 clouds per host.
SPREAD_HOSTS = 2000
SPREAD_CLOUDS = 200
SPREAD_CLOUDS_PER_HOST = 3

# triage_batch set sizes. The game set holds each size N from 2 to 24 the
# same number of times, so every seed carries the same game-solving work;
# only the payoffs and the order are seeded. 101 and 69 are coprime, so an
# op index meets every (incident, game) pairing before the cycle repeats.
TRIAGE_INCIDENTS = 101
GAME_SIZES = tuple(range(2, 25)) * 3

# Ranking weight vectors (effectiveness, ease, safety, payoff). Each sums to
# 1 within the 1e-9 the library demands.
WEIGHT_CHOICES = (
    (0.25, 0.25, 0.25, 0.25),
    (0.4, 0.3, 0.2, 0.1),
    (0.1, 0.2, 0.3, 0.4),
    (0.5, 0.0, 0.25, 0.25),
    (0.0, 0.5, 0.5, 0.0),
)


def _rng(stream: str, seed: int) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def dumps(doc: object) -> bytes:
    """Canonical JSON bytes: sorted keys, no spaces, trailing newline."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _network(rng: random.Random, hosts: int, clouds: int, per_host: int, infected: int) -> dict:
    seeds = set(rng.sample(range(hosts), infected))
    host_docs = [
        {
            "id": h,
            "state": "Infected" if h in seeds else "Susceptible",
            "awareness": rng.randint(0, 100),
            "protection": rng.randint(0, 90),
        }
        for h in range(hosts)
    ]
    edges = [
        {"host": h, "cloud": c, "prob": round(rng.uniform(0.05, 0.5), 3)}
        for h in range(hosts)
        for c in sorted(rng.sample(range(clouds), per_host))
    ]
    return {
        "hosts": host_docs,
        "clouds": [{"id": c, "contaminated": False} for c in range(clouds)],
        "edges": edges,
    }


def spread_network(seed: int) -> dict[str, bytes]:
    """The spread_mc network: 2,000 hosts, 200 clouds, 6,000 edges, 1% infected."""
    rng = _rng("spread_mc", seed)
    net = _network(rng, SPREAD_HOSTS, SPREAD_CLOUDS, SPREAD_CLOUDS_PER_HOST, SPREAD_HOSTS // 100)
    return {"network.json": dumps(net)}


def spread_base_seed(seed: int, op: int) -> int:
    """A fresh Monte Carlo base seed for spread_mc op number ``op``."""
    return _rng(f"spread_mc.op{op}", seed).randrange(2**31)


def _profile(rng: random.Random, name: str) -> dict:
    variables = {k: round(rng.uniform(0, 100), 2) for k in VARIABLES}
    # Severity is only defined for G > 0.
    variables["G"] = round(rng.uniform(1, 100), 2)
    return {"name": name, "variables": variables}


def _game(rng: random.Random, n: int) -> dict:
    # Small integer payoffs make ties, and so several pure equilibria, common.
    return {
        "row_labels": [f"r{i}" for i in range(n)],
        "col_labels": [f"c{j}" for j in range(n)],
        "payoffs": [[[rng.randint(0, 9), rng.randint(0, 9)] for _ in range(n)] for _ in range(n)],
    }


def triage_inputs(seed: int) -> dict[str, bytes]:
    """Incident profiles, N x N games and a plan of per-incident parameters.

    ``plan.json`` holds, per incident, the ranking weights and a what-if
    infected share ``F`` (the quantity the simulator estimates).
    """
    rng = _rng("triage_batch", seed)
    files = {}
    for k in range(TRIAGE_INCIDENTS):
        files[f"incident-{k:03d}.json"] = dumps(_profile(rng, f"Incident {seed}-{k}"))
    sizes = list(GAME_SIZES)
    rng.shuffle(sizes)
    for g, n in enumerate(sizes):
        files[f"game-{g:03d}.json"] = dumps(_game(rng, n))
    plan = [
        {"weights": list(rng.choice(WEIGHT_CHOICES)), "whatif_f": round(rng.uniform(0, 100), 2)}
        for _ in range(TRIAGE_INCIDENTS)
    ]
    files["plan.json"] = dumps(plan)
    return files


def _game_args(rng: random.Random) -> list[str]:
    kind = rng.choice(("ransom", "pd", "snowdrift"))
    if kind == "ransom":
        user = [100, rng.randint(-80, 0), rng.randint(-20, 40), -100]
        virus = [0, rng.randint(0, 20), rng.randint(40, 100), 100]
        return ["ransom", "--user=" + ",".join(map(str, user)), "--virus=" + ",".join(map(str, virus))]
    if kind == "pd":
        s = rng.randint(-5, 0)
        p = s + rng.randint(1, 3)
        r = p + rng.randint(1, 3)
        t = r + rng.randint(1, 3)
        return ["pd", f"--t={t}", f"--r={r}", f"--p={p}", f"--s={s}"]
    c = rng.randint(1, 5)
    return ["snowdrift", f"--b={c + rng.randint(1, 5)}", f"--c={c}"]


# cli_session simulate scenarios: a fixed shape keeps every session's
# simulate cost alike, and a small pool per seed lets the benchmark compute
# each scenario's expected output in-process once rather than every session.
CLI_HOSTS = 12
CLI_CLOUDS = 3
CLI_CLOUDS_PER_HOST = 2
CLI_TICKS = 15
CLI_RUNS = 1000
CLI_SCENARIOS = 8


def cli_scenario(seed: int, scenario: int) -> dict[str, bytes]:
    """One simulate scenario: ``network.json`` and ``simulate.json`` (its flags)."""
    rng = _rng(f"cli_session.scenario{scenario}", seed)
    net = _network(rng, CLI_HOSTS, CLI_CLOUDS, CLI_CLOUDS_PER_HOST, rng.randint(1, 2))
    params = {
        "ticks": CLI_TICKS,
        "p": round(rng.uniform(0.1, 0.5), 2),
        "clean": round(rng.uniform(0.0, 0.1), 2),
        "reinfect": rng.random() < 0.5,
        "seed": rng.randrange(2**31),
        "runs": CLI_RUNS,
    }
    return {"network.json": dumps(net), "simulate.json": dumps(params)}


def cli_session(seed: int, session: int) -> dict[str, bytes]:
    """Inputs for one cli_session op: two profiles, parameters, a simulate scenario.

    ``session.json`` holds the sweep variable and value, the ranking weights,
    the game arguments and the index of the simulate scenario, whose files
    are included.
    """
    rng = _rng(f"cli_session.{session}", seed)
    scenario = session % CLI_SCENARIOS
    params = {
        "fix": [rng.choice(VARIABLES), rng.randint(0, 200) / 2],
        "weights": list(rng.choice(WEIGHT_CHOICES)),
        "game": _game_args(rng),
        "scenario": scenario,
    }
    return {
        "a.json": dumps(_profile(rng, f"Session {seed}-{session} A")),
        "b.json": dumps(_profile(rng, f"Session {seed}-{session} B")),
        "session.json": dumps(params),
        **cli_scenario(seed, scenario),
    }
