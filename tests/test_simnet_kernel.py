"""The compiled kernel behind run/monte_carlo_f against the step() reference.

``step`` spells the three-phase draw schedule out over ``Network`` objects.
Every trajectory ``run`` returns must equal the one built by iterating
``step`` from the same seed, count for count and bit for bit in ``final_f``,
on networks whose hosts and edges come in any order and whose ids are not
contiguous.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransomlab import simnet
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
    seed=st.integers(-(2**40), 2**40),
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
        assert run(net, cfg) == reference(net, cfg)


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


@settings(deadline=None)
@given(net=networks(), cfg=configs, runs=st.integers(1, 3))
def test_monte_carlo_makes_exactly_the_documented_draws(net, cfg, runs):
    draws = []

    class CountingRandom(random.Random):
        def random(self):
            draws.append(None)
            return super().random()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simnet.random, "Random", CountingRandom)
        monte_carlo_f(net, cfg, runs)
    assert len(draws) == runs * cfg.ticks * (2 * len(net.edges) + len(net.hosts))
