"""The compiled kernel behind run/monte_carlo_f against the step() reference.

``step`` spells the three-phase draw schedule out over ``Network`` objects.
Every trajectory ``run`` returns must equal the one built by iterating
``step`` from the same seed, count for count and bit for bit in ``final_f``,
on networks whose hosts and edges come in any order and whose ids are not
contiguous.

When phase 1 cannot change state the kernel takes its draws with one
``getrandbits`` call instead of comparing them. The tests force each such
case, and check that every run leaves its generator where the documented
``random()`` calls would.

``monte_carlo_f`` splits its runs over forked processes when the work pays
for it. The split tests force it on small networks and check that the
summary is the in-process one, float for float, that a failing child or
fork is handled, and that no child is left behind.
"""

from __future__ import annotations

import math
import os
import random
import signal
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransomlab import simnet
from ransomlab.cli import main
from ransomlab.errors import replace
from ransomlab.ingest import load_network
from ransomlab.simnet import (
    CloudStore,
    Edge,
    Host,
    HostState,
    Network,
    SimConfig,
    TickCounts,
    Trajectory,
    monte_carlo_f,
    run,
    step,
)

ids = st.integers(-1000, 1000)
percent = st.integers(0, 100) | st.floats(0, 100)
unit = st.sampled_from([0, 1]) | st.floats(0, 1)


@st.composite
def networks(draw) -> Network:
    host_ids = draw(st.lists(ids, unique=True, max_size=8))
    cloud_ids = draw(st.lists(ids, unique=True, max_size=4))
    hosts = [
        Host(id=i, state=draw(st.sampled_from(HostState)), awareness=draw(percent), protection=draw(percent))
        for i in host_ids
    ]
    clouds = [CloudStore(id=i, contaminated=draw(st.booleans())) for i in cloud_ids]
    pairs = [(h, c) for h in host_ids for c in cloud_ids]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [Edge(host=h, cloud=c, prob=draw(unit)) for h, c in chosen]
    return Network(
        hosts=tuple(draw(st.permutations(hosts))),
        clouds=tuple(draw(st.permutations(clouds))),
        edges=tuple(draw(st.permutations(edges))),
    )


configs = st.builds(
    SimConfig,
    ticks=st.integers(0, 12),
    base_infection_prob=unit,
    clean_prob_per_tick=unit,
    reinfection_allowed=st.booleans(),
    seed=st.integers(0, 2**40),
)


def _infected(net: Network) -> set[int]:
    return {h.id for h in net.hosts if h.state is HostState.INFECTED}


def _tally(net: Network, tick: int) -> TickCounts:
    states = [h.state for h in net.hosts]
    return TickCounts(
        tick=tick,
        susceptible=states.count(HostState.SUSCEPTIBLE),
        infected=states.count(HostState.INFECTED),
        cleaned=states.count(HostState.CLEANED),
        contaminated_clouds=sum(c.contaminated for c in net.clouds),
    )


def reference(net: Network, cfg: SimConfig) -> Trajectory:
    """The trajectory of ``cfg.ticks`` calls to ``step`` on one RNG seeded ``cfg.seed``."""
    rng = random.Random(cfg.seed)
    ever = _infected(net)
    counts = [_tally(net, 0)]
    for tick in range(1, cfg.ticks + 1):
        net = step(net, cfg, rng)
        ever |= _infected(net)
        counts.append(_tally(net, tick))
    final_f = 100.0 * len(ever) / len(net.hosts) if net.hosts else 0.0
    return Trajectory(counts=tuple(counts), final_f=final_f)


@settings(max_examples=300, deadline=None)
@given(net=networks(), cfg=configs)
def test_run_equals_iterated_step(net, cfg):
    traj = run(net, cfg)
    expected = reference(net, cfg)
    assert traj == expected
    assert traj.final_f.hex() == expected.final_f.hex()


@settings(deadline=None)
@given(net=networks(), cfg=configs, runs=st.integers(1, 4))
def test_monte_carlo_runs_are_the_seeded_single_runs(net, cfg, runs):
    summary = monte_carlo_f(net, cfg, runs)
    assert summary.final_fs == tuple(run(net, replace(cfg, seed=cfg.seed + i)).final_f for i in range(runs))


def test_run_equals_iterated_step_on_a_larger_shuffled_network():
    rng = random.Random("kernel")
    host_ids = rng.sample(range(10_000), 300)
    cloud_ids = rng.sample(range(10_000), 40)
    hosts = [
        Host(
            id=i,
            state=HostState.INFECTED if rng.random() < 0.05 else HostState.SUSCEPTIBLE,
            awareness=rng.randint(0, 100),
            protection=rng.uniform(0, 90),
        )
        for i in host_ids
    ]
    edges = [Edge(host=h, cloud=c, prob=rng.uniform(0.05, 0.5)) for h in host_ids for c in rng.sample(cloud_ids, 3)]
    rng.shuffle(edges)
    net = Network(hosts=tuple(hosts), clouds=tuple(CloudStore(id=c) for c in cloud_ids), edges=tuple(edges))
    for reinfection in (False, True):
        cfg = SimConfig(
            ticks=25, base_infection_prob=0.4, clean_prob_per_tick=0.1, reinfection_allowed=reinfection, seed=11
        )
        traj = run(net, cfg)
        assert traj == reference(net, cfg)
        # Every cloud is contaminated mid-run; from then on phase 1 skips its draws each tick.
        saturated = [c.contaminated_clouds for c in traj.counts].index(len(cloud_ids))
        assert 0 < saturated < cfg.ticks - 5
        assert _skips(net, cfg) == [(tick, 1) for tick in range(saturated, cfg.ticks)]


# Other groupings of step()'s threshold product, each a plausible way to
# precompute part of it; a kernel using one would differ in the last bit.
REGROUPINGS = {
    "prob*p*(a*b)": lambda prob, p, a, b: prob * p * (a * b),
    "prob*(p*a)*b": lambda prob, p, a, b: prob * (p * a) * b,
    "prob*(p*a*b)": lambda prob, p, a, b: prob * (p * a * b),
}


def _knife_edge(regrouped, infects: bool) -> tuple[int, float, int, int]:
    """(seed, prob, protection, awareness) for one edge whose phase-2 draw lies
    between step()'s threshold and ``regrouped``, on the side of step() that
    gives ``infects``."""
    p = 0.3
    for seed in range(200):
        draws = random.Random(seed)
        draws.random()
        u = draws.random()
        for protection in range(0, 100, 7):
            for awareness in range(0, 100, 11):
                a, b = 1.0 - protection / 100.0, 1.0 - 0.5 * awareness / 100.0
                prob = math.nextafter(u / (p * a * b), 0.0)
                for _ in range(8):
                    documented = prob * p * a * b
                    if prob <= 1 and (u < documented) == infects != (u < regrouped(prob, p, a, b)):
                        return seed, prob, protection, awareness
                    prob = math.nextafter(prob, 1.0)
    raise AssertionError("no knife-edge case found")


@pytest.mark.parametrize("infects", [True, False])
@pytest.mark.parametrize("regrouped", REGROUPINGS.values(), ids=REGROUPINGS.keys())
def test_threshold_is_steps_expression_to_the_last_bit(regrouped, infects):
    seed, prob, protection, awareness = _knife_edge(regrouped, infects)
    net = Network(
        hosts=(Host(id=0, awareness=awareness, protection=protection),),
        clouds=(CloudStore(id=0, contaminated=True),),
        edges=(Edge(host=0, cloud=0, prob=prob),),
    )
    cfg = SimConfig(ticks=1, base_infection_prob=0.3, clean_prob_per_tick=0.0, reinfection_allowed=False, seed=seed)
    assert run(net, cfg).counts[1].infected == infects
    assert monte_carlo_f(net, cfg, 1).final_fs == (100.0 if infects else 0.0,)


@settings(deadline=None)
@given(net=networks(), cfg=configs)
def test_population_is_conserved_and_clouds_never_clear(net, cfg):
    counts = run(net, cfg).counts
    assert [c.tick for c in counts] == list(range(cfg.ticks + 1))
    for c in counts:
        assert c.susceptible + c.infected + c.cleaned == len(net.hosts)
        assert 0 <= c.contaminated_clouds <= len(net.clouds)
    clouds = [c.contaminated_clouds for c in counts]
    assert clouds == sorted(clouds)


def _ever_infected_by_tick(net: Network, cfg: SimConfig) -> list[float]:
    # A run of t ticks makes the first draws of a longer run from the same
    # seed, so its final_f is the ever-infected share after tick t.
    return [run(net, replace(cfg, ticks=t)).final_f for t in range(cfg.ticks + 1)]


@settings(deadline=None)
@given(net=networks(), cfg=configs)
def test_ever_infected_never_decreases(net, cfg):
    ever = _ever_infected_by_tick(net, cfg)
    assert ever == sorted(ever)


@settings(deadline=None)
@given(net=networks(), cfg=configs, lo=st.floats(0, 1), hi=st.floats(0, 1))
def test_raising_p_never_shrinks_the_ever_infected_share(net, cfg, lo, hi):
    # Without cleaning, the hosts infected under the higher p are a superset
    # at every tick, so their share is never smaller.
    lo, hi = sorted((lo, hi))
    cfg = replace(cfg, clean_prob_per_tick=0.0)
    ever_lo = _ever_infected_by_tick(net, replace(cfg, base_infection_prob=lo))
    ever_hi = _ever_infected_by_tick(net, replace(cfg, base_infection_prob=hi))
    assert all(a <= b for a, b in zip(ever_lo, ever_hi))


def _documented_draws(net: Network, cfg: SimConfig) -> int:
    return cfg.ticks * (2 * len(net.edges) + len(net.hosts))


@settings(deadline=None)
@given(net=networks(), cfg=configs, runs=st.integers(1, 3))
def test_monte_carlo_makes_exactly_the_documented_draws(net, cfg, runs):
    # Phase 1, when it cannot change state, takes its n draws as one getrandbits(64 * n).
    draws = []

    class CountingRandom(random.Random):
        def random(self):
            draws.append(1)
            return super().random()

        def getrandbits(self, k):
            assert k % 64 == 0
            draws.append(k // 64)
            return super().getrandbits(k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet.random, "Random", CountingRandom)
        monte_carlo_f(net, cfg, runs)
    assert sum(draws) == runs * _documented_draws(net, cfg)


@settings(deadline=None)
@given(net=networks(), cfg=configs, runs=st.integers(1, 3))
def test_each_run_leaves_its_generator_where_the_documented_random_calls_do(net, cfg, runs):
    made = []

    class CapturedRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet.random, "Random", CapturedRandom)
        monte_carlo_f(net, cfg, runs)
    assert len(made) == runs
    for i, rng in enumerate(made):
        expected = random.Random(cfg.seed + i)
        for _ in range(_documented_draws(net, cfg)):
            expected.random()
        assert rng.getstate() == expected.getstate()


@pytest.mark.parametrize("n", [0, 1, 2, 7, 6000])
@pytest.mark.parametrize("seed", [0, 1, 7, -3, 2**40])
def test_getrandbits_of_64n_bits_advances_the_generator_as_n_random_calls(seed, n):
    # The kernel's phase skip rests on this property of CPython's Mersenne Twister.
    drawn, skipped = random.Random(seed), random.Random(seed)
    for _ in range(n):
        drawn.random()
    skipped.getrandbits(64 * n)
    assert skipped.getstate() == drawn.getstate()
    assert skipped.random() == drawn.random()


def _skip_network(states: str, contaminated: str) -> Network:
    """Hosts in ``states`` (S/I/C per host) on the clouds flagged in ``contaminated``
    (0/1 per cloud), each host on two random clouds."""
    rng = random.Random(0)
    state = {"S": HostState.SUSCEPTIBLE, "I": HostState.INFECTED, "C": HostState.CLEANED}
    hosts = tuple(
        Host(id=i, state=state[code], awareness=rng.randint(0, 100), protection=rng.randint(0, 80))
        for i, code in enumerate(states)
    )
    clouds = tuple(CloudStore(id=j, contaminated=flag == "1") for j, flag in enumerate(contaminated))
    edges = tuple(
        Edge(host=i, cloud=j, prob=rng.uniform(0.2, 0.9))
        for i in range(len(hosts))
        for j in rng.sample(range(len(clouds)), 2)
    )
    return Network(hosts=hosts, clouds=clouds, edges=edges)


def _config(clean: float = 0.2, reinfect: bool = False) -> SimConfig:
    return SimConfig(ticks=15, base_infection_prob=0.5, clean_prob_per_tick=clean, reinfection_allowed=reinfect, seed=0)


# Networks and configurations with the phases the kernel must skip on tick 0.
# Phase 1 cannot change state when every cloud is contaminated or no host is
# infected; phases 2 and 3 always compare their draws, as step() does.
SKIP_CASES = {
    "every cloud contaminated": (_skip_network("ISSSSISSSSCS", "1111"), _config(), {1}),
    "no infected host": (_skip_network("SSSSSSSSCSSS", "0010"), _config(reinfect=True), {1}),
    # Phases 2 and 3 cannot change state either, yet run.
    "no infected host, no contaminated cloud, no cleaning": (
        _skip_network("SSSSSSSSCSSS", "0000"),
        _config(clean=0.0),
        {1},
    ),
    "an infected host and an uncontaminated cloud": (_skip_network("SSISSSSSSSSI", "0100"), _config(), set()),
}


def _skips(net: Network, cfg: SimConfig) -> list[tuple[int, int]]:
    """Run ``net`` and return the (tick, phase) of every skip the kernel made, in order.

    A skip's tick and phase follow from how many draws came before it.
    """
    n_edges, per_tick = len(net.edges), 2 * len(net.edges) + len(net.hosts)
    drawn = 0
    skips = []

    class SkipRecordingRandom(random.Random):
        def random(self):
            nonlocal drawn
            drawn += 1
            return super().random()

        def getrandbits(self, k):
            nonlocal drawn
            tick, at = divmod(drawn, per_tick)
            skips.append((tick, 1 if at < n_edges else 2 if at < 2 * n_edges else 3))
            drawn += k // 64
            return super().getrandbits(k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet.random, "Random", SkipRecordingRandom)
        run(net, cfg)
    return skips


@pytest.mark.parametrize("case", SKIP_CASES)
def test_run_equals_iterated_step_when_phase_1_cannot_change_state(case):
    net, cfg, skipped = SKIP_CASES[case]
    assert {phase for tick, phase in _skips(net, cfg) if tick == 0} == skipped
    for seed in range(5):
        cfg = replace(cfg, seed=seed)
        traj = run(net, cfg)
        expected = reference(net, cfg)
        assert traj == expected
        assert traj.final_f.hex() == expected.final_f.hex()
        assert monte_carlo_f(net, cfg, 2).final_fs == (traj.final_f, run(net, replace(cfg, seed=seed + 1)).final_f)


# ---------------------------------------------------------------------------
# monte_carlo_f's runs split over forked processes.

SAMPLE_DIR = Path(__file__).resolve().parent.parent / "sample_data"
RING8 = load_network(SAMPLE_DIR / "ring8.json")
STAR4 = load_network(SAMPLE_DIR / "star4.json")
SPLIT_CONFIG = SimConfig(ticks=15, base_infection_prob=0.3, clean_prob_per_tick=0.05, reinfection_allowed=True, seed=7)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def split_every_call(cpus: int = 4):
    """Make every ``monte_carlo_f`` call in the block split, over up to ``cpus`` processes.

    One unit of work pays for a process, and the process may use ``cpus``
    CPUs, whatever this host has. Yields the list of pids forked.
    """
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet, "_JOB_WORK", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(os, "fork", fork)
        yield forked
    _assert_no_child_left()


def in_process(net: Network, cfg: SimConfig, runs: int) -> simnet.MonteCarloSummary:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet, "_JOB_WORK", simnet.WORK_CAP + 1)
        return monte_carlo_f(net, cfg, runs)


# Each example forks up to three children.
@settings(max_examples=100, deadline=None)
@given(net=st.sampled_from([RING8, STAR4]) | networks(), cfg=configs, ticks=st.integers(0, 20), runs=st.integers(1, 9))
def test_split_runs_are_the_seeded_single_runs(net, cfg, ticks, runs):
    cfg = replace(cfg, ticks=ticks)
    expected = in_process(net, cfg, runs)
    with split_every_call() as forked:
        summary = monte_carlo_f(net, cfg, runs)
    assert len(forked) == min(runs, 4) - 1
    assert summary.final_fs == tuple(run(net, replace(cfg, seed=cfg.seed + i)).final_f for i in range(runs))
    assert repr(summary) == repr(expected)


def test_the_split_leaves_the_affinity_of_this_process_as_it_was():
    # Each process moves to its own CPU by narrowing its affinity to that CPU, then widening it again.
    before = os.sched_getaffinity(0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet, "_JOB_WORK", 1)
        monte_carlo_f(RING8, SPLIT_CONFIG, 9)
    assert os.sched_getaffinity(0) == before
    _assert_no_child_left()


@pytest.mark.parametrize(
    "cpus, runs, work, jobs",
    [
        (64, 1000, 10**9, 64),
        (64, 3, 10**9, 3),
        (64, 1000, 5 * simnet._JOB_WORK + 1, 5),
        (2, 1000, 10**9, 2),
        (64, 1000, 2 * simnet._JOB_WORK - 1, 1),
        (64, 1000, simnet._JOB_WORK - 1, 0),
    ],
)
def test_jobs_are_the_least_of_runs_cpus_and_work_per_job(cpus, runs, work, jobs):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert simnet._jobs(runs, work) == jobs
        patch.delattr(os, "sched_getaffinity")
        patch.setattr(os, "cpu_count", lambda: cpus)
        assert simnet._jobs(runs, work) == jobs
        patch.delattr(os, "fork")
        assert simnet._jobs(runs, work) == 1


def test_the_split_reads_the_work_count_the_cap_bounds():
    hosts, edges = len(RING8.hosts), len(RING8.edges)
    assert simnet._check_work(RING8, SPLIT_CONFIG, 1000) == 1000 * (15 * (2 * edges + hosts + 1) + 1)


def _failing_from(seed: int, how: str):
    """``_Kernel.run``, except that a run seeded ``seed`` or higher raises, or kills its process."""
    real_run = simnet._Kernel.run

    def run_or_fail(self, run_seed, counts=None):
        if run_seed >= seed:
            if how == "raises":
                raise RuntimeError("a failing run")
            os.kill(os.getpid(), signal.SIGKILL)
        return real_run(self, run_seed, counts)

    return run_or_fail


@pytest.mark.parametrize(
    "how, code, sent", [("raises", 1, 0), ("is killed", -signal.SIGKILL, 0), ("exits 3 after sending", 3, 16)]
)
def test_a_failing_child_raises_child_process_error(how, code, sent):
    real_exit = os._exit
    with split_every_call(cpus=2) as forked, pytest.MonkeyPatch.context() as patch:
        # Of 4 runs over 2 processes, the child runs seeds 9 and 10.
        if how == "exits 3 after sending":
            patch.setattr(os, "_exit", lambda status: real_exit(status or 3))
        else:
            patch.setattr(simnet._Kernel, "run", _failing_from(SPLIT_CONFIG.seed + 2, how))
        message = f"seeds 9..10 exited with code {code} after sending {sent} of 16 bytes"
        with pytest.raises(ChildProcessError, match=message):
            monte_carlo_f(RING8, SPLIT_CONFIG, 4)
    assert len(forked) == 1


def test_a_failing_fork_runs_its_range_in_process():
    calls = []

    def no_fork():
        calls.append(1)
        raise BlockingIOError("fork: resource temporarily unavailable")

    with split_every_call() as forked, pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        summary = monte_carlo_f(RING8, SPLIT_CONFIG, 9)
    assert (len(calls), forked) == (3, [])
    assert repr(summary) == repr(in_process(RING8, SPLIT_CONFIG, 9))


def test_the_split_works_where_sigchld_is_ignored():
    # The kernel then reaps each child itself, so waitpid finds none; the bytes a child sent still tell.
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with split_every_call() as forked:
            summary = monte_carlo_f(RING8, SPLIT_CONFIG, 9)
        with split_every_call(cpus=2), pytest.MonkeyPatch.context() as patch:
            patch.setattr(simnet._Kernel, "run", _failing_from(SPLIT_CONFIG.seed + 2, "raises"))
            message = "seeds 9..10 exited with code None after sending 0 of 16 bytes"
            with pytest.raises(ChildProcessError, match=message):
                monte_carlo_f(RING8, SPLIT_CONFIG, 4)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forked) == 3
    assert repr(summary) == repr(in_process(RING8, SPLIT_CONFIG, 9))


def test_no_fork_while_another_thread_is_alive():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        with split_every_call() as forked:
            summary = monte_carlo_f(RING8, SPLIT_CONFIG, 9)
    finally:
        release.set()
        thread.join(60)
    assert not thread.is_alive()
    assert forked == []
    assert repr(summary) == repr(in_process(RING8, SPLIT_CONFIG, 9))


SIMULATE = ["simulate", "--network", str(SAMPLE_DIR / "ring8.json"), "--ticks", "15", "--p", "0.3", "--seed", "7"]


def test_simulate_prints_the_same_bytes_split_or_not(capsys):
    # 1,000 runs of ring8 are over the work that pays for a second process.
    assert simnet._check_work(RING8, SPLIT_CONFIG, 1000) >= 2 * simnet._JOB_WORK
    with split_every_call() as forked:
        split = main([*SIMULATE, "--runs", "1000"]), *capsys.readouterr()
    assert len(forked) == 3
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet, "_JOB_WORK", simnet.WORK_CAP + 1)
        assert (main([*SIMULATE, "--runs", "1000"]), *capsys.readouterr()) == split
    assert split[0] == 0 and split[2] == ""


def test_simulate_with_a_failing_child_exits_1_with_one_error_line(capsys):
    with split_every_call(cpus=2), pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet._Kernel, "run", _failing_from(SPLIT_CONFIG.seed + 2, "raises"))
        code = main([*SIMULATE, "--runs", "4"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: simulation worker for seeds 9..10 exited with code 1 after sending 0 of 16 bytes\n"
