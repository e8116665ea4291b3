"""Discrete-time stochastic spread of an infection through cloud-linked hosts.

Hosts never infect each other directly: an infected host contaminates the
cloud stores it interacts with, and susceptible hosts pick the infection up
from contaminated clouds. Cloud contamination never clears during a run.

Every tick is synchronous (all three phases read the state at tick start)
and consumes the seeded RNG on a fixed, state-independent schedule so that
runs are bit-reproducible and probability dominance is testable per draw:

1. one uniform draw per edge, ascending (host id, cloud id): an infected
   host contaminates the cloud when the draw falls below the edge's
   interaction probability;
2. one uniform draw per edge, same order: an eligible host (susceptible, or
   cleaned when reinfection is allowed) on a cloud contaminated at tick
   start becomes infected when the draw falls below
   ``edge.prob * base_infection_prob * (1 - protection/100) * (1 - awareness/200)``;
3. one uniform draw per host, ascending id: a host infected at tick start
   becomes cleaned when the draw falls below ``clean_prob_per_tick``.

Draws are consumed for every edge and host even when the outcome cannot
apply (the threshold is then zero), which keeps the draw sequence aligned
across configurations that share a seed. When phase 1 cannot change state
(every cloud is contaminated or no host is infected) the compiled kernel
consumes its draws through one ``getrandbits(64 * n)`` call, which advances
the Mersenne Twister by exactly the words of ``n`` ``random()`` calls, and
compares none.

:func:`run` and :func:`monte_carlo_f` flatten the network once per call into
per-edge lists and run this schedule over them. :func:`step` spells the same
schedule out over ``Network`` objects; it is the reference oracle the tests
compare the compiled kernel against, draw for draw.

:func:`monte_carlo_f` splits its runs into contiguous seed ranges over forked
processes when the work pays for it, at most one per CPU the process may use
(see :func:`_jobs`). Each child inherits the compiled kernel and sends its
``final_f`` values back as raw doubles, so the summary is the same floats for
every split. The runs stay in the calling process when the work is small,
without ``os.fork``, or while a second thread is alive.

The work of one :func:`run` or :func:`monte_carlo_f` call is capped before any
draw: ``runs * (ticks * (2 * edges + hosts + 1) + 1)`` may be at most
:data:`WORK_CAP` (``runs`` is 1 for :func:`run`; the inner ``+ 1`` counts a tick
on a network with no hosts or edges, the outer one a run, which seeds a generator
and stores its result). Over the cap, :class:`ValidationError` names the cap.
"""

from __future__ import annotations

import math
import os
import random
import sys
from array import array
from enum import Enum
from itertools import repeat, starmap
from typing import BinaryIO

from .errors import Record, ValidationError, check_items, check_number, check_type, from_dict, is_kind, replace, to_dict

__all__ = [
    "HostState",
    "Host",
    "CloudStore",
    "Edge",
    "Network",
    "SimConfig",
    "TickCounts",
    "Trajectory",
    "MonteCarloSummary",
    "step",
    "run",
    "monte_carlo_f",
    "trajectory_csv",
    "network_to_dict",
    "network_from_dict",
    "WORK_CAP",
]

# The most ``runs * (ticks * (2 * edges + hosts + 1) + 1)`` one simulation call may schedule.
WORK_CAP = 10**10
# The least work (as _check_work counts it) worth one more process in monte_carlo_f. On a 2-CPU Linux VM
# a fork and reap took 1-2 ms, and splitting ring8 runs in two broke even at 30,000-45,000 work per
# process (medians of 31 rounds); this is over twice that.
_JOB_WORK = 100_000


class HostState(Enum):
    SUSCEPTIBLE = "Susceptible"
    INFECTED = "Infected"
    CLEANED = "Cleaned"


class Host(Record):
    """A machine on the network; awareness and protection damp infection."""

    def __init__(
        self, id: int, state: HostState = HostState.SUSCEPTIBLE, awareness: float = 0.0, protection: float = 0.0
    ) -> None:
        check_type(id, int, "host id")
        check_type(state, HostState, "host state")
        check_number(awareness, 0, 100, "host %s awareness", id)
        check_number(protection, 0, 100, "host %s protection", id)
        self._store(id, state, awareness, protection)


class CloudStore(Record):
    """A shared store; once contaminated it stays contaminated for the run."""

    def __init__(self, id: int, contaminated: bool = False) -> None:
        check_type(id, int, "cloud id")
        check_type(contaminated, bool, "cloud %s contaminated", id)
        self._store(id, contaminated)


class Edge(Record):
    """A host-cloud interaction pair with a per-tick interaction probability."""

    def __init__(self, host: int, cloud: int, prob: float) -> None:
        check_type(host, int, "edge host")
        check_type(cloud, int, "edge cloud")
        check_number(prob, 0, 1, "edge (%s, %s) prob", host, cloud)
        self._store(host, cloud, prob)


class Network(Record):
    """Hosts, cloud stores, and the bipartite interaction edges between them."""

    def __init__(self, hosts: tuple[Host, ...], clouds: tuple[CloudStore, ...], edges: tuple[Edge, ...]) -> None:
        # Stored as tuples, so equal networks hash equal.
        hosts = check_items(hosts, Host, "network %ss", "network %s", "host")
        clouds = check_items(clouds, CloudStore, "network %ss", "network %s", "cloud")
        edges = check_items(edges, Edge, "network %ss", "network %s", "edge")
        host_ids = [h.id for h in hosts]
        cloud_ids = [c.id for c in clouds]
        if len(host_ids) != len(set(host_ids)):
            raise ValidationError("duplicate host ids")
        if len(cloud_ids) != len(set(cloud_ids)):
            raise ValidationError("duplicate cloud ids")
        host_set = set(host_ids)
        cloud_set = set(cloud_ids)
        seen: set[tuple[int, int]] = set()
        for e in edges:
            if e.host not in host_set:
                raise ValidationError(f"edge references unknown host id {e.host}")
            if e.cloud not in cloud_set:
                raise ValidationError(f"edge references unknown cloud id {e.cloud}")
            if (e.host, e.cloud) in seen:
                raise ValidationError(f"duplicate edge ({e.host}, {e.cloud})")
            seen.add((e.host, e.cloud))
        self._store(hosts, clouds, edges)


class SimConfig(Record):
    """Run parameters. The seed is mandatory and nonnegative, as ``Random(-k)`` draws like ``Random(k)``."""

    def __init__(
        self, ticks: int, base_infection_prob: float, clean_prob_per_tick: float, reinfection_allowed: bool, seed: int
    ) -> None:
        check_type(ticks, int, "ticks")
        if ticks < 0:
            raise ValidationError(f"ticks must be nonnegative, got {ticks}")
        check_number(base_infection_prob, 0, 1, "base_infection_prob")
        check_number(clean_prob_per_tick, 0, 1, "clean_prob_per_tick")
        check_type(reinfection_allowed, bool, "reinfection_allowed")
        check_type(seed, int, "seed")
        if seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {seed}")
        self._store(ticks, base_infection_prob, clean_prob_per_tick, reinfection_allowed, seed)


class TickCounts(Record):
    def __init__(self, tick: int, susceptible: int, infected: int, cleaned: int, contaminated_clouds: int) -> None:
        self._store(tick, susceptible, infected, cleaned, contaminated_clouds)


class Trajectory(Record):
    """Per-tick population counts plus the final ever-infected percentage."""

    def __init__(self, counts: tuple[TickCounts, ...], final_f: float) -> None:
        self._store(counts, final_f)


class MonteCarloSummary(Record):
    """Aggregate over independent runs of the same scenario."""

    def __init__(self, mean_f: float, stddev_f: float, final_fs: tuple[float, ...]) -> None:
        self._store(mean_f, stddev_f, final_fs)


_S, _I, _C = 0, 1, 2
_STATE_CODE = {HostState.SUSCEPTIBLE: _S, HostState.INFECTED: _I, HostState.CLEANED: _C}


def _sorted_edges(net: Network) -> list[Edge]:
    return sorted(net.edges, key=lambda e: (e.host, e.cloud))


def step(net: Network, cfg: SimConfig, rng: random.Random) -> Network:
    """Advance the network by one synchronous tick, consuming ``rng`` in place.

    See the module docstring for the three phases and the exact draw order.
    This is the readable reference for the schedule: :func:`run` and
    :func:`monte_carlo_f` use a compiled kernel that must agree with repeated
    ``step`` calls bit for bit, and the tests check that it does.
    """
    _check_args(net, cfg)
    check_type(rng, random.Random, "rng")
    states = {h.id: h.state for h in net.hosts}
    hosts_by_id = {h.id: h for h in net.hosts}
    contaminated_start = {c.id for c in net.clouds if c.contaminated}
    edges = _sorted_edges(net)

    contaminated_next = set(contaminated_start)
    for e in edges:
        u = rng.random()
        if states[e.host] is HostState.INFECTED and u < e.prob:
            contaminated_next.add(e.cloud)

    newly_infected: set[int] = set()
    for e in edges:
        u = rng.random()
        host = hosts_by_id[e.host]
        eligible = states[e.host] is HostState.SUSCEPTIBLE or (
            cfg.reinfection_allowed and states[e.host] is HostState.CLEANED
        )
        if eligible and e.cloud in contaminated_start:
            threshold = (
                e.prob
                * cfg.base_infection_prob
                * (1.0 - host.protection / 100.0)
                * (1.0 - 0.5 * host.awareness / 100.0)
            )
        else:
            threshold = 0.0
        if u < threshold:
            newly_infected.add(e.host)

    newly_cleaned: set[int] = set()
    for h in sorted(net.hosts, key=lambda h: h.id):
        u = rng.random()
        if states[h.id] is HostState.INFECTED and u < cfg.clean_prob_per_tick:
            newly_cleaned.add(h.id)

    new_hosts = []
    for h in net.hosts:
        if h.id in newly_infected:
            new_hosts.append(replace(h, state=HostState.INFECTED))
        elif h.id in newly_cleaned:
            new_hosts.append(replace(h, state=HostState.CLEANED))
        else:
            new_hosts.append(h)
    new_clouds = tuple(
        replace(c, contaminated=True) if c.id in contaminated_next else c for c in net.clouds
    )
    return Network(hosts=tuple(new_hosts), clouds=new_clouds, edges=net.edges)


class _Kernel:
    """The network flattened once for one configuration, run many times.

    Hosts are indexed in ascending id and edges held in the draw order of
    :func:`step`, as flat per-edge lists of host index, cloud index, ``prob``
    and phase-2 threshold. Each run keeps host states (``_S``/``_I``/``_C``)
    and cloud contamination in a ``bytearray`` and makes exactly the draws of
    :func:`step`, in the same order. Each tick it tests phase 1 with a
    C-level ``in`` on those arrays: when no host is infected or every cloud
    is contaminated, phase 1 cannot change state and skips its draws with
    ``getrandbits(64 * n)``, leaving the generator in the same state.
    """

    def __init__(self, net: Network, cfg: SimConfig) -> None:
        hosts = sorted(net.hosts, key=lambda h: h.id)
        host_index = {h.id: i for i, h in enumerate(hosts)}
        cloud_index = {c.id: i for i, c in enumerate(net.clouds)}
        edges = _sorted_edges(net)
        self.edge_host = [host_index[e.host] for e in edges]
        self.edge_cloud = [cloud_index[e.cloud] for e in edges]
        self.edge_prob = [e.prob for e in edges]
        # step()'s threshold expression, operand for operand, so every float matches.
        self.edge_threshold = [
            e.prob * cfg.base_infection_prob * (1.0 - h.protection / 100.0) * (1.0 - 0.5 * h.awareness / 100.0)
            for e, h in zip(edges, (hosts[i] for i in self.edge_host))
        ]
        self.hosts = bytes(_STATE_CODE[h.state] for h in hosts)
        self.clouds = bytes(c.contaminated for c in net.clouds)
        self.ticks = cfg.ticks
        self.clean = cfg.clean_prob_per_tick
        self.eligible = (1, 0, 1 if cfg.reinfection_allowed else 0)  # indexed by state code

    def run(self, seed: int, counts: list[tuple[int, int, int, int]] | None = None) -> float:
        """Run ``ticks`` ticks from a fresh RNG seeded ``seed``; return ``final_f``.

        When ``counts`` is a list, the (susceptible, infected, cleaned,
        contaminated clouds) counts of the initial state and of every tick
        are appended to it.
        """
        rng = random.Random(seed)
        draw, skip = rng.random, rng.getrandbits
        hosts, clouds = bytearray(self.hosts), bytearray(self.clouds)
        edge_host, edge_cloud, eligible, clean = self.edge_host, self.edge_cloud, self.eligible, self.clean
        edge_prob, edge_threshold = self.edge_prob, self.edge_threshold
        n_edges, n_hosts = len(edge_host), len(hosts)
        ever = {i for i, s in enumerate(hosts) if s == _I}
        for tick in range(self.ticks + 1):
            if counts is not None:
                counts.append((hosts.count(_S), hosts.count(_I), hosts.count(_C), clouds.count(1)))
            if tick == self.ticks:
                break
            # Each phase makes all of its draws before the next starts; phase 1
            # takes them in one getrandbits call when it cannot change state.
            if _I in hosts and 0 in clouds:
                contaminate = [
                    c
                    for h, c, prob, u in zip(edge_host, edge_cloud, edge_prob, starmap(draw, repeat((), n_edges)))
                    if u < prob and hosts[h] == _I
                ]
            else:
                contaminate = ()
                skip(64 * n_edges)
            infect = [
                h
                for h, c, threshold, u in zip(edge_host, edge_cloud, edge_threshold, starmap(draw, repeat((), n_edges)))
                if u < threshold and clouds[c] and eligible[hosts[h]]
            ]
            cleaned = [
                i
                for i, s, u in zip(range(n_hosts), hosts, starmap(draw, repeat((), n_hosts)))
                if u < clean and s == _I
            ]
            for c in contaminate:
                clouds[c] = 1
            for i in cleaned:
                hosts[i] = _C
            for i in infect:
                hosts[i] = _I
            ever.update(infect)
        return 100.0 * len(ever) / n_hosts if n_hosts else 0.0


def _check_args(net: Network, cfg: SimConfig) -> None:
    check_type(net, Network, "network")
    check_type(cfg, SimConfig, "config")


def _check_work(net: Network, cfg: SimConfig, runs: int) -> int:
    """Return the work count of ``runs`` runs; over :data:`WORK_CAP`, raise :class:`ValidationError`."""
    work = runs * (cfg.ticks * (2 * len(net.edges) + len(net.hosts) + 1) + 1)
    if work > WORK_CAP:
        raise ValidationError(f"runs * (ticks * (2 * edges + hosts + 1) + 1) must be at most the work cap {WORK_CAP}")
    return work


def _jobs(runs: int, work: int) -> int:
    """The number of processes to split ``runs`` runs of ``work`` work over; below 2, none is forked.

    Forking with a second thread alive is unsafe: the child would inherit the locks it holds.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    return min(runs, len(_cpus()), work // _JOB_WORK)


def _cpus() -> set[int]:
    """The CPUs this process may run on: its affinity, or ``os.cpu_count()`` of them where that is unknown."""
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity(0) if affinity else set(range(os.cpu_count() or 1))


def _move_to(cpu: int, cpus: set[int]) -> None:
    """Move this process onto ``cpu`` now, then let it run on any of ``cpus`` again; where refused, stay.

    A forked child starts on its parent's CPU, and on a 2-CPU Linux VM the
    two shared it for up to a second while the other CPU idled.
    """
    try:
        os.sched_setaffinity(0, (cpu,))
    except (AttributeError, OSError):
        return
    os.sched_setaffinity(0, cpus)


def _fork(kernel: _Kernel, seeds: range, cpu: int, cpus: set[int]) -> tuple[int, BinaryIO] | None:
    """Fork a child on ``cpu`` that writes the ``final_f`` of each of ``seeds`` as a raw double to a pipe.

    Returns its pid and the pipe's read end, or None when no child could be
    started. The child leaves through ``os._exit``, so it never returns into
    the caller, flushes no inherited buffer and runs no ``atexit`` hook.
    """
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            _move_to(cpu, cpus)
            with open(write, "wb") as pipe:
                pipe.write(array("d", map(kernel.run, seeds)))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _split_runs(kernel: _Kernel, seeds: range, jobs: int) -> tuple[float, ...]:
    """``kernel.run`` over ``seeds``, split into ``jobs`` contiguous ranges, in seed order.

    This process runs the first range and any whose child could not be
    started. A child that exits non-zero or sends the wrong number of bytes
    raises :class:`ChildProcessError`. No child outlives the call.
    """
    ranges = [seeds[k * len(seeds) // jobs : (k + 1) * len(seeds) // jobs] for k in range(jobs)]
    cpus = _cpus()
    order = sorted(cpus)
    pids: dict[int, int] = {}  # range index -> pid of its child, until reaped
    pipes: dict[int, BinaryIO] = {}  # range index -> read end of its child's pipe
    try:
        _move_to(order[0], cpus)
        for k in range(1, jobs):
            child = _fork(kernel, ranges[k], order[k % len(order)], cpus)
            if child:
                pids[k], pipes[k] = child
        parts = {k: array("d", map(kernel.run, part)) for k, part in enumerate(ranges) if k not in pids}
        for k, pipe in pipes.items():
            data = pipe.read()
            try:
                code = os.waitstatus_to_exitcode(os.waitpid(pids[k], 0)[1])
            except ChildProcessError:  # reaped already, as where SIGCHLD is ignored: only its bytes tell
                code = None
            del pids[k]
            if code or len(data) != 8 * len(ranges[k]):
                raise ChildProcessError(
                    f"simulation worker for seeds {ranges[k].start}..{ranges[k].stop - 1} exited with code {code}"
                    f" after sending {len(data)} of {8 * len(ranges[k])} bytes"
                )
            parts[k] = array("d", data)
    finally:
        for pipe in pipes.values():
            pipe.close()
        if pids:  # children left by an error: stop and reap them
            import signal

            for pid in pids.values():
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):  # reaped already
                    pass
    return tuple(f for k in range(jobs) for f in parts[k])


def run(net: Network, cfg: SimConfig) -> Trajectory:
    """Simulate ``cfg.ticks`` ticks from ``cfg.seed`` and record per-tick counts.

    The trajectory includes the initial state as tick 0, so it always holds
    ``cfg.ticks + 1`` entries. ``final_f`` is the percentage of hosts that
    were infected at any recorded tick (initially infected hosts included).
    """
    _check_args(net, cfg)
    _check_work(net, cfg, 1)
    counts: list[tuple[int, int, int, int]] = []
    final_f = _Kernel(net, cfg).run(cfg.seed, counts)
    return Trajectory(
        counts=tuple(TickCounts(tick, *c) for tick, c in enumerate(counts)),
        final_f=final_f,
    )


def monte_carlo_f(net: Network, cfg: SimConfig, runs: int) -> MonteCarloSummary:
    """Aggregate ``final_f`` over independent runs seeded ``cfg.seed + i``.

    Run ``i`` uses a fresh RNG seeded with ``cfg.seed + i``, so the runs may
    execute in any order or in parallel, and ``final_fs`` lists them in seed
    order. Reports the population standard deviation (zero for a single run).

    When the work pays for it, the runs are split into contiguous seed ranges
    over forked processes (see :func:`_jobs`); the results are the same
    floats for every split. A child that fails raises
    :class:`ChildProcessError`, an :class:`OSError`.
    """
    _check_args(net, cfg)
    if not is_kind(runs, int) or runs < 1:
        raise ValidationError(f"runs must be a positive integer, got {runs!r}")
    work = _check_work(net, cfg, runs)
    kernel = _Kernel(net, cfg)
    seeds = range(cfg.seed, cfg.seed + runs)
    jobs = _jobs(runs, work)
    final_fs = _split_runs(kernel, seeds, jobs) if jobs > 1 else tuple(map(kernel.run, seeds))
    mean = sum(final_fs) / runs
    variance = sum((f - mean) ** 2 for f in final_fs) / runs
    return MonteCarloSummary(mean_f=mean, stddev_f=math.sqrt(variance), final_fs=final_fs)


def trajectory_csv(traj: Trajectory) -> str:
    """CSV export with header ``tick,susceptible,infected,cleaned,contaminated_clouds``."""
    check_type(traj, Trajectory, "trajectory")
    lines = ["tick,susceptible,infected,cleaned,contaminated_clouds"]
    for c in traj.counts:
        lines.append(f"{c.tick},{c.susceptible},{c.infected},{c.cleaned},{c.contaminated_clouds}")
    return "\n".join(lines) + "\n"


def network_to_dict(net: Network) -> dict:
    """JSON-ready document for a network."""
    check_type(net, Network, "network")
    return to_dict(net)


def network_from_dict(data: dict) -> Network:
    """Parse and validate a network document produced by :func:`network_to_dict`."""
    return from_dict(Network, data, "network document")
