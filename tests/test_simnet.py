from __future__ import annotations

import random

import pytest

from ransomlab.errors import ValidationError
from ransomlab.simnet import (
    WORK_CAP,
    CloudStore,
    Edge,
    Host,
    HostState,
    Network,
    SimConfig,
    monte_carlo_f,
    network_from_dict,
    network_to_dict,
    _check_work,
    run,
    step,
    trajectory_csv,
)


def star(n_hosts: int, prob: float = 1.0, infected: int = 0, contaminated: bool = False) -> Network:
    return Network(
        hosts=tuple(
            Host(id=i, state=HostState.INFECTED if i == infected else HostState.SUSCEPTIBLE)
            for i in range(n_hosts)
        ),
        clouds=(CloudStore(id=0, contaminated=contaminated),),
        edges=tuple(Edge(host=i, cloud=0, prob=prob) for i in range(n_hosts)),
    )


def chain(n_hosts: int, prob: float = 1.0) -> Network:
    # Hosts 0..n-1 joined in a line through clouds: host i shares cloud i with host i+1.
    return Network(
        hosts=tuple(
            Host(id=i, state=HostState.INFECTED if i == 0 else HostState.SUSCEPTIBLE)
            for i in range(n_hosts)
        ),
        clouds=tuple(CloudStore(id=i) for i in range(n_hosts - 1)),
        edges=tuple(
            Edge(host=i, cloud=c, prob=prob)
            for i in range(n_hosts)
            for c in (i - 1, i)
            if 0 <= c < n_hosts - 1
        ),
    )


def ring8(prob: float = 0.8) -> Network:
    return Network(
        hosts=tuple(
            Host(id=i, state=HostState.INFECTED if i == 0 else HostState.SUSCEPTIBLE)
            for i in range(8)
        ),
        clouds=tuple(CloudStore(id=i) for i in range(8)),
        edges=tuple(
            Edge(host=i, cloud=c, prob=prob) for i in range(8) for c in sorted({i, (i - 1) % 8})
        ),
    )


def cfg(**overrides) -> SimConfig:
    values = dict(ticks=10, base_infection_prob=0.5, clean_prob_per_tick=0.0, reinfection_allowed=False, seed=7)
    values.update(overrides)
    return SimConfig(**values)


def infected_ids(net: Network) -> set[int]:
    return {h.id for h in net.hosts if h.state is HostState.INFECTED}


# -- validation ---------------------------------------------------------------


def test_network_rejects_duplicate_and_dangling_references():
    h = Host(id=0, state=HostState.SUSCEPTIBLE)
    with pytest.raises(ValidationError, match="duplicate host"):
        Network(hosts=(h, h), clouds=(), edges=())
    with pytest.raises(ValidationError, match="unknown cloud"):
        Network(hosts=(h,), clouds=(), edges=(Edge(0, 5, 0.5),))
    with pytest.raises(ValidationError, match="unknown host"):
        Network(hosts=(h,), clouds=(CloudStore(0),), edges=(Edge(3, 0, 0.5),))
    with pytest.raises(ValidationError, match="duplicate edge"):
        Network(hosts=(h,), clouds=(CloudStore(0),), edges=(Edge(0, 0, 0.5), Edge(0, 0, 0.2)))


def test_edge_and_config_reject_out_of_range_probabilities():
    with pytest.raises(ValidationError):
        Edge(0, 0, 1.5)
    with pytest.raises(ValidationError):
        SimConfig(ticks=1, base_infection_prob=-0.1, clean_prob_per_tick=0, reinfection_allowed=False, seed=1)
    with pytest.raises(ValidationError):
        SimConfig(ticks=-1, base_infection_prob=0, clean_prob_per_tick=0, reinfection_allowed=False, seed=1)


def test_config_rejects_a_negative_seed():
    # Random(-k) and Random(k) give the same stream, so runs seeded -k and k would be one run twice.
    assert random.Random(-3).random() == random.Random(3).random()
    assert cfg(seed=0).seed == 0
    with pytest.raises(ValidationError) as err:
        cfg(seed=-1)
    assert str(err.value) == "seed must be nonnegative, got -1"


# -- single-step behavior ------------------------------------------------------


def test_zero_probability_never_spreads():
    traj = run(star(4), cfg(base_infection_prob=0.0, ticks=50))
    assert traj.final_f == pytest.approx(25.0)
    assert all(c.infected == 1 for c in traj.counts)


def test_certain_transmission_from_contaminated_cloud_in_one_tick():
    net = star(4, prob=1.0, contaminated=True)
    out = step(net, cfg(base_infection_prob=1.0), random.Random(1))
    assert infected_ids(out) == {0, 1, 2, 3}


def test_contamination_needs_a_tick_before_infection():
    # The cloud starts clean: tick 1 contaminates it, tick 2 infects the rest.
    net = star(4, prob=1.0)
    rng = random.Random(1)
    config = cfg(base_infection_prob=1.0)
    after_one = step(net, config, rng)
    assert infected_ids(after_one) == {0}
    assert all(c.contaminated for c in after_one.clouds)
    after_two = step(after_one, config, rng)
    assert infected_ids(after_two) == {0, 1, 2, 3}


def test_star_reaches_everyone_within_two_ticks():
    traj = run(star(4), cfg(base_infection_prob=1.0, ticks=2))
    assert traj.final_f == 100.0


def test_protection_and_awareness_block_certain_infection():
    net = Network(
        hosts=(
            Host(id=0, state=HostState.INFECTED),
            Host(id=1, state=HostState.SUSCEPTIBLE, protection=100),
            Host(id=2, state=HostState.SUSCEPTIBLE, awareness=100, protection=0),
        ),
        clouds=(CloudStore(0, contaminated=True),),
        edges=(Edge(0, 0, 1.0), Edge(1, 0, 1.0), Edge(2, 0, 1.0)),
    )
    # Full protection forces the threshold to zero; full awareness only halves it.
    counts = []
    for seed in range(50):
        out = step(net, cfg(base_infection_prob=1.0), random.Random(seed))
        assert 1 not in infected_ids(out)
        counts.append(2 in infected_ids(out))
    assert 0 < sum(counts) < 50


def test_cleaning_and_reinfection_rules():
    net = star(2, prob=1.0, contaminated=True)
    config = cfg(base_infection_prob=0.0, clean_prob_per_tick=1.0)
    out = step(net, config, random.Random(3))
    assert {h.id: h.state for h in out.hosts}[0] is HostState.CLEANED
    # Without reinfection the cleaned host stays cleaned forever.
    traj = run(net, cfg(base_infection_prob=1.0, clean_prob_per_tick=1.0, ticks=6))
    assert traj.counts[-1].cleaned == 2
    # With reinfection allowed, cleaned hosts can flip back to infected.
    traj_re = run(net, cfg(base_infection_prob=1.0, clean_prob_per_tick=1.0, ticks=6, reinfection_allowed=True))
    assert any(c.infected > 0 for c in traj_re.counts[2:])


def test_state_transitions_only_follow_the_allowed_arcs():
    allowed = {
        (HostState.SUSCEPTIBLE, HostState.SUSCEPTIBLE),
        (HostState.SUSCEPTIBLE, HostState.INFECTED),
        (HostState.INFECTED, HostState.INFECTED),
        (HostState.INFECTED, HostState.CLEANED),
        (HostState.CLEANED, HostState.CLEANED),
        (HostState.CLEANED, HostState.INFECTED),
    }
    rng = random.Random(11)
    net = ring8(0.7)
    config = cfg(base_infection_prob=0.6, clean_prob_per_tick=0.3, reinfection_allowed=True)
    for _ in range(40):
        nxt = step(net, config, rng)
        before = {h.id: h.state for h in net.hosts}
        after = {h.id: h.state for h in nxt.hosts}
        for hid in before:
            assert (before[hid], after[hid]) in allowed
        net = nxt


def test_clouds_never_self_clear():
    rng = random.Random(2)
    net = ring8()
    config = cfg(base_infection_prob=0.9, clean_prob_per_tick=0.5, reinfection_allowed=True)
    contaminated: set[int] = set()
    for _ in range(30):
        net = step(net, config, rng)
        now = {c.id for c in net.clouds if c.contaminated}
        assert contaminated <= now
        contaminated = now


# -- whole runs ----------------------------------------------------------------


def test_zero_ticks_reports_initial_state_only():
    traj = run(star(4), cfg(ticks=0))
    assert len(traj.counts) == 1
    assert traj.counts[0].tick == 0
    assert traj.final_f == pytest.approx(25.0)


def test_no_infection_source_means_zero_f():
    net = Network(
        hosts=tuple(Host(id=i) for i in range(4)),
        clouds=(CloudStore(0),),
        edges=tuple(Edge(i, 0, 1.0) for i in range(4)),
    )
    traj = run(net, cfg(base_infection_prob=1.0, ticks=20))
    assert traj.final_f == 0.0


def test_fixed_seed_gives_bit_identical_trajectories():
    net = ring8()
    config = cfg(base_infection_prob=0.4, clean_prob_per_tick=0.2, ticks=30, seed=123)
    assert run(net, config) == run(net, config)


def test_different_seeds_usually_differ():
    net = ring8()
    a = run(net, cfg(base_infection_prob=0.4, clean_prob_per_tick=0.2, ticks=30, seed=1))
    b = run(net, cfg(base_infection_prob=0.4, clean_prob_per_tick=0.2, ticks=30, seed=2))
    assert a != b


def test_population_conservation_every_tick():
    net = ring8()
    traj = run(net, cfg(base_infection_prob=0.5, clean_prob_per_tick=0.3, ticks=40, reinfection_allowed=True))
    for c in traj.counts:
        assert c.susceptible + c.infected + c.cleaned == 8


def test_cumulative_infection_never_decreases():
    net = ring8()
    config = cfg(base_infection_prob=0.6, clean_prob_per_tick=0.4, ticks=40)
    rng = random.Random(config.seed)
    ever = infected_ids(net)
    current = net
    for _ in range(config.ticks):
        current = step(current, config, rng)
        new_ever = ever | infected_ids(current)
        assert len(new_ever) >= len(ever)
        ever = new_ever


def test_reachability_bound_on_a_chain():
    # With certain interaction and no cleaning, each cloud hop costs two
    # ticks: one to contaminate the cloud, one to cross it.
    net = chain(5)
    config = cfg(base_infection_prob=1.0, ticks=8)
    rng = random.Random(0)
    current = net
    infected_at = {0: 0}
    for tick in range(1, 9):
        current = step(current, config, rng)
        for hid in infected_ids(current):
            infected_at.setdefault(hid, tick)
    assert infected_at == {0: 0, 1: 2, 2: 4, 3: 6, 4: 8}


def test_raising_infection_probability_infects_a_superset():
    # Same seed, no cleaning: every draw is compared against a threshold
    # monotone in the base probability, so the ever-infected set can only grow.
    for seed in range(10):
        net = ring8(0.9)
        lo = run(net, cfg(base_infection_prob=0.2, ticks=25, seed=seed))
        hi = run(net, cfg(base_infection_prob=0.7, ticks=25, seed=seed))
        lo_net, hi_net = net, net
        rng_lo, rng_hi = random.Random(seed), random.Random(seed)
        ever_lo, ever_hi = infected_ids(net), infected_ids(net)
        for _ in range(25):
            lo_net = step(lo_net, cfg(base_infection_prob=0.2, ticks=25, seed=seed), rng_lo)
            hi_net = step(hi_net, cfg(base_infection_prob=0.7, ticks=25, seed=seed), rng_hi)
            ever_lo |= infected_ids(lo_net)
            ever_hi |= infected_ids(hi_net)
            assert ever_lo <= ever_hi
        assert lo.final_f <= hi.final_f


# -- monte carlo ----------------------------------------------------------------


def test_monte_carlo_zero_probability_collapses_to_initial_fraction():
    summary = monte_carlo_f(star(4), cfg(base_infection_prob=0.0), runs=25)
    assert summary.mean_f == pytest.approx(25.0)
    assert summary.stddev_f == 0.0
    assert summary.final_fs == (25.0,) * 25


def test_monte_carlo_certain_transmission_saturates():
    summary = monte_carlo_f(star(4), cfg(base_infection_prob=1.0, ticks=3), runs=25)
    assert summary.mean_f == 100.0
    assert summary.stddev_f == 0.0


def test_monte_carlo_seeds_derive_from_base_seed():
    net = ring8()
    config = cfg(base_infection_prob=0.3, ticks=15, seed=100)
    summary = monte_carlo_f(net, config, runs=5)
    for i in range(5):
        single = run(net, cfg(base_infection_prob=0.3, ticks=15, seed=100 + i))
        assert summary.final_fs[i] == single.final_f


def test_monte_carlo_two_base_seeds_statistically_consistent():
    net = ring8()
    runs = 1000
    a = monte_carlo_f(net, cfg(base_infection_prob=0.3, ticks=15, seed=101), runs=runs)
    b = monte_carlo_f(net, cfg(base_infection_prob=0.3, ticks=15, seed=202), runs=runs)
    stderr = (a.stddev_f**2 / runs + b.stddev_f**2 / runs) ** 0.5
    assert abs(a.mean_f - b.mean_f) <= 3 * stderr


def test_monte_carlo_rejects_zero_runs():
    with pytest.raises(ValidationError):
        monte_carlo_f(star(2), cfg(), runs=0)


# -- work cap: checked through validation only, no test starts a run near it ----


def test_work_cap_admits_exactly_the_cap():
    empty = Network(hosts=(), clouds=(), edges=())  # one slot per tick, and one per run
    _check_work(empty, cfg(ticks=WORK_CAP - 1), 1)
    _check_work(star(2), cfg(ticks=WORK_CAP // 7), 1)  # 2 * 2 edges + 2 hosts + 1 = 7 slots a tick
    _check_work(ring8(), cfg(ticks=0), WORK_CAP)  # a run with no ticks still counts one
    over = ((empty, cfg(ticks=WORK_CAP), 1), (ring8(), cfg(ticks=0), WORK_CAP + 1), (empty, cfg(ticks=0), 10**12))
    for network, config, runs in over:
        with pytest.raises(ValidationError, match=f"work cap {WORK_CAP}"):
            _check_work(network, config, runs)


@pytest.mark.parametrize(
    "call",
    [
        lambda: monte_carlo_f(star(2), cfg(ticks=10), runs=10**400),
        lambda: monte_carlo_f(star(2), cfg(ticks=WORK_CAP // 7), runs=2),
        lambda: run(star(2), cfg(ticks=WORK_CAP // 7 + 1)),
        lambda: run(Network(hosts=(), clouds=(), edges=()), cfg(ticks=10**400)),
    ],
    ids=["runs", "runs-times-ticks", "run-ticks", "empty-network"],
)
def test_calls_over_the_work_cap_raise_before_any_draw(call):
    with pytest.raises(ValidationError, match=f"work cap {WORK_CAP}"):
        call()



# -- serialization ----------------------------------------------------------------


def test_trajectory_csv_shape():
    traj = run(star(4), cfg(base_infection_prob=1.0, ticks=2))
    text = trajectory_csv(traj)
    lines = text.splitlines()
    assert lines[0] == "tick,susceptible,infected,cleaned,contaminated_clouds"
    assert lines[1] == "0,3,1,0,0"
    assert lines[2] == "1,3,1,0,1"
    assert lines[3] == "2,0,4,0,1"
    assert text.endswith("\n")


def test_network_json_round_trip():
    net = ring8()
    assert network_from_dict(network_to_dict(net)) == net


def test_network_from_dict_rejects_bad_documents():
    good = network_to_dict(star(2))
    with pytest.raises(ValidationError, match="edges"):
        network_from_dict({k: v for k, v in good.items() if k != "edges"})
    with pytest.raises(ValidationError, match="unknown"):
        network_from_dict({**good, "extra": []})
    bad = network_to_dict(star(2))
    bad["edges"][0]["cloud"] = 99
    with pytest.raises(ValidationError, match="unknown cloud"):
        network_from_dict(bad)
    bad = network_to_dict(star(2))
    bad["edges"][0]["prob"] = 1.5
    with pytest.raises(ValidationError, match="prob"):
        network_from_dict(bad)
    bad = network_to_dict(star(2))
    bad["hosts"][0]["state"] = "Zombie"
    with pytest.raises(ValidationError, match="state"):
        network_from_dict(bad)
