"""Self-tests of the benchmark: input determinism, failure counting, declared metrics.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import gen  # noqa: E402
import workloads  # noqa: E402
from ransomlab import simnet  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    run.WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


GENERATORS = {
    "spread_network": gen.spread_network,
    "spread_base_seed": lambda seed: gen.spread_base_seed(seed, 5),
    "triage_inputs": gen.triage_inputs,
    "cli_session": lambda seed: gen.cli_session(seed, 3),
    "cli_scenario": lambda seed: gen.cli_scenario(seed, 2),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    make = GENERATORS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_generated_bytes_do_not_depend_on_the_process():
    code = (
        "import hashlib, gen\n"
        "h = hashlib.sha256()\n"
        "for files in (gen.spread_network(4), gen.triage_inputs(4), gen.cli_session(4, 9)):\n"
        "    for name in sorted(files):\n"
        "        h.update(name.encode() + files[name])\n"
        "print(h.hexdigest())\n"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(run.BENCH))
        digests.add(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                   text=True, check=True).stdout)
    assert len(digests) == 1


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run.tail(list(range(1, 101))) == (90, 90.0, 100, 1)
    assert run.tail([5, 3, 4]) == (5, 100.0, 3, 1)


def test_tail_is_the_median_over_windows():
    steady = [100] * 190 + [200] * 10
    burst = [100] * 150 + [900] * 50
    latencies = steady * 4 + burst + steady * 5
    assert run.tail(latencies) == (100, 95.0, 200, 10)
    assert run.tail(steady * 10 + [100] * 199)[2:] == (219, 10)


def test_corrupted_triage_output_counts_as_failure(workdir, monkeypatch):
    wl = workloads.TriageBatch(3, workdir)
    clean = run.LoopResult()
    run.run_loop(wl, NullTracer(), 0.2, 0, clean)
    assert clean.attempted > 0 and clean.failed == 0

    real_csv = workloads.report.sweep_csv
    monkeypatch.setattr(workloads.report, "sweep_csv", lambda result: real_csv(result).rsplit("\n", 2)[0] + "\n")
    corrupted = run.LoopResult()
    run.run_loop(wl, NullTracer(), 0.2, clean.attempted, corrupted)
    assert corrupted.attempted > 0
    assert corrupted.failed == corrupted.attempted
    assert "CSV" in corrupted.problems[0]


def test_corrupted_spread_output_counts_as_failure(workdir, monkeypatch):
    wl = workloads.SpreadMC(3, workdir)

    def skewed(net, cfg, runs):
        fs = tuple(50.0 for _ in range(runs))
        return simnet.MonteCarloSummary(mean_f=51.0, stddev_f=0.0, final_fs=fs)

    monkeypatch.setattr(workloads.simnet, "monte_carlo_f", skewed)
    result = run.LoopResult()
    run.run_loop(wl, NullTracer(), 0.05, 0, result)
    assert result.attempted > 0 and result.failed == result.attempted
    assert "disagree" in result.problems[0]


def test_op_that_raises_counts_as_failure(workdir, monkeypatch):
    wl = workloads.TriageBatch(3, workdir)

    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(workloads.games, "pure_nash", broken)
    result = run.LoopResult()
    run.run_loop(wl, Tracer(), 0.05, 0, result)
    assert result.attempted > 0 and result.failed == result.attempted
    assert not result.latencies_ns


def test_tampered_cli_output_counts_as_failure(workdir):
    wl = workloads.CliSession(3, workdir, run.SRC)
    session = wl.prepare(0)
    codes = wl.op(session, NullTracer())
    assert wl.check(session, codes, NullTracer()) is None
    csv = session.directory / "sweep.csv"
    csv.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n", 1))
    assert "sweep.csv" in wl.check(session, codes, NullTracer())


def _run_bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_printed_metrics_are_the_declared_ones(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(workdir):
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    for path in DECLARED["paths"]:
        shutil.copytree(run.ROOT / path, workdir / path, ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = _run_bench("--workload", "spread_mc", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_keeps_to_its_limits():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in DECLARED["workloads"])
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert all(set(m) == {"name", "unit", "better"} for m in DECLARED["per_layer"])
    assert all(UNIT.match(m["unit"]) for m in DECLARED["end_to_end"] + DECLARED["per_layer"])
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    assert 1 <= DECLARED["run_seconds"] <= 60 and isinstance(DECLARED["run_seconds"], int)
