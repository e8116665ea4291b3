#!/usr/bin/env python3
"""ransomlab benchmark: one closed-loop client, seeded inputs, every op checked.

Run from the repository root:

    python3 bench/run.py --workload spread_mc --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from spans recorded around each call into ransomlab (see
bench/README.md). The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and a
fuller result record (run environment, tail percentile, problems) are
written under bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = BENCH / ".work"

# Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 7
# Fresh interpreters timed for the start-up and import baselines.
PROBE_SAMPLES = 11
# op_tail_ms is the latency with this many samples above it, per window of
# at least TAIL_WINDOW_OPS ops, as the median over up to TAIL_WINDOWS windows.
TAIL_BEYOND = 10
TAIL_WINDOW_OPS = 200
TAIL_WINDOWS = 10
READY = "READY "


@dataclass
class LoopResult:
    latencies_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def run_loop(wl, tr, seconds: float, first_op: int, result: LoopResult) -> None:
    """Closed loop, one client: prepare, time the op, check it; until ``seconds`` pass.

    At least one op always runs. An op that raises, or whose check fails,
    counts as failed. The latency of every op that returned is recorded.
    """
    deadline = time.perf_counter() + seconds
    i = first_op
    while True:
        args = wl.prepare(i)
        result.attempted += 1
        tr.begin_op(i)
        start = time.perf_counter_ns()
        try:
            out = wl.op(args, tr)
        except Exception as exc:  # a failing op is a result, not a crash
            tr.end_op()
            result.fail(f"op {i}: {exc!r}")
        else:
            result.latencies_ns.append(time.perf_counter_ns() - start)
            tr.end_op()
            try:
                problem = wl.check(args, out, tr)
            except Exception as exc:
                problem = f"check raised {exc!r}"
            if problem:
                result.fail(f"op {i}: {problem}")
        i += 1
        if time.perf_counter() >= deadline:
            return


def _window_tail(ordered: list[int]) -> tuple[int, float]:
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def tail(latencies_ns: list[int]) -> tuple[float, float, int, int]:
    """(latency ns, percentile, ops per window, windows) for op_tail_ms.

    The ops, in the order they ran, are split into up to TAIL_WINDOWS equal
    windows of at least TAIL_WINDOW_OPS ops. Each window's tail is the
    latency at its highest percentile with TAIL_BEYOND samples above it; the
    median over windows is reported. A host slowdown lasting a fraction of a
    second then moves the tail of the window it falls in, not of the whole
    run. With fewer than 2 * TAIL_WINDOW_OPS ops there is one window; with
    TAIL_BEYOND ops or fewer, its maximum is reported as percentile 100.
    """
    n = len(latencies_ns)
    windows = max(1, min(TAIL_WINDOWS, n // TAIL_WINDOW_OPS))
    bounds = [k * n // windows for k in range(windows + 1)]
    tails = [_window_tail(sorted(latencies_ns[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    return statistics.median(t for t, _ in tails), tails[0][1], n // windows, windows


def probe_ms(argvs: list[list[str]], env: dict[str, str], workdir: Path, run_child) -> list[float]:
    """Median wall time in ms of PROBE_SAMPLES fresh runs of each argv.

    The argvs take turns, so a change in machine load hits each alike and
    their differences stay meaningful.
    """
    samples: list[list[float]] = [[] for _ in argvs]
    for _ in range(PROBE_SAMPLES):
        for argv, times in zip(argvs, samples):
            start = time.perf_counter_ns()
            code, _ = run_child(argv, env, workdir / "probe.out", workdir / "probe.err")
            times.append((time.perf_counter_ns() - start) / 1e6)
            if code != 0:
                raise RuntimeError(f"{argv[1:]} exited {code}: {(workdir / 'probe.err').read_text()[:300]}")
    return [statistics.median(times) for times in samples]


def commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, so results can be tied to code without git."""
    h = hashlib.sha256()
    package = SRC / "ransomlab"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Time SETUP_SAMPLES fresh processes from spawn to ready for the first op.

    Each child imports ransomlab, generates this run's inputs, loads them
    through ingest and prepares op 0, then reports and exits. Returns the
    wall times in s and the network load times in ms the children measured.
    """
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    seconds, network_ms = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=60) != 0 or not line.startswith(READY):
                raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
        seconds.append(elapsed)
        network_ms.append(json.loads(line[len(READY):])["network_ms"])
    return seconds, network_ms


def end_to_end(result: LoopResult, peak_rss_kb: int, setup_s: float) -> tuple[dict, dict]:
    lat = result.latencies_ns
    tail_ns, tail_pct, window_ops, windows = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    above = TAIL_BEYOND if window_ops > TAIL_BEYOND else 0
    return metrics, {"op_samples": len(lat), "op_tail_percentile": tail_pct, "op_tail_windows": windows,
                     "ops_per_tail_window": window_ops, "samples_above_tail": above}


def per_layer(tr, wl, untraced: LoopResult, traced: LoopResult, startup_ms: float, import_ms: float,
              network_ms: float) -> dict:
    us = lambda name: tr.mean_ns(name) / 1e3  # noqa: E731
    ms = lambda name: tr.mean_ns(name) / 1e6  # noqa: E731
    calls = lambda name: len(tr.durations(name))  # noqa: E731
    mc_ns = tr.mean_ns("simnet.monte_carlo_f")
    catalog_calls = calls("strategies.default_catalog")
    svg_calls = calls("report.sweep_svg")
    check_mc_ns = tr.mean_ns("check.simnet.monte_carlo_f")
    m = {
        "simnet.mc_calls": (calls("simnet.monte_carlo_f"), "count"),
        "simnet.mc_ms": (mc_ns / 1e6, "ms"),
        "simnet.ns_per_edge_tick": (mc_ns / wl.edge_ticks_per_call if wl.edge_ticks_per_call else 0.0, "ns"),
        "simnet.rng_draws": (wl.rng_draws_per_call, "count"),
        "simnet.run_overhead_us": (check_mc_ns / 1e3 / wl.check_runs if wl.check_runs else 0.0, "us"),
        "ingest.profile_docs": (calls("ingest.load_profile_document"), "count"),
        "ingest.profile_us": (us("ingest.load_profile_document"), "us"),
        "ingest.bytes": (tr.counters["ingest.bytes"], "B"),
        "ingest.network_ms": (network_ms, "ms"),
        "scoring.score_all_us": (us("scoring.score_all"), "us"),
        "scoring.profile_us": (us("scoring.TraitProfile"), "us"),
        "strategies.catalog_calls": (catalog_calls, "count"),
        "strategies.catalog_us": (us("strategies.default_catalog"), "us"),
        "strategies.rank_us": (us("strategies.rank_strategies"), "us"),
        "strategies.catalog_rebuild_ratio": (
            tr.counters["strategies.default_catalog.distinct"] / catalog_calls if catalog_calls else 0.0, "ratio"),
        "games.solve2x2_us": (us("games.solve2x2"), "us"),
        "games.pure_nash_us": (us("games.pure_nash"), "us"),
        "games.pure_nash_cells": (wl.pure_nash_cells, "count"),
        "report.compare_us": (us("report.compare_profiles"), "us"),
        "report.sweep_us": (us("report.sweep"), "us"),
        "report.csv_us": (us("report.sweep_csv"), "us"),
        "report.svg_us": (us("report.sweep_svg"), "us"),
        "report.svg_bytes": (tr.counters["report.svg_bytes"] / svg_calls if svg_calls else 0.0, "B"),
        "cli.interp_startup_ms": (startup_ms, "ms"),
        "cli.import_ms": (import_ms - startup_ms, "ms"),
    }
    for name in ("score", "compare", "sweep", "rank", "game", "simulate"):
        m[f"cli.{name}_ms"] = (ms(f"cli.{name}"), "ms")
    layer_ns, op_ns = tr.self_time_by_layer()
    for layer, ns in layer_ns.items():
        m[f"{layer}.self_pct"] = (100.0 * ns / op_ns if op_ns else 0.0, "%")
    mean = lambda r: sum(r.latencies_ns) / len(r.latencies_ns)  # noqa: E731
    if untraced.latencies_ns and traced.latencies_ns:
        m["trace.overhead_pct"] = (100.0 * (mean(traced) / mean(untraced) - 1.0), "%")
    else:
        m["trace.overhead_pct"] = (0.0, "%")
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("spread_mc", "triage_batch", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ransomlab" / "__init__.py").is_file():
        print(f"error: no ransomlab sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ransomlab

    if not Path(ransomlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ransomlab from {ransomlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_only:
            wl = workloads.make(args.workload, args.seed, workdir, SRC)
            wl.prepare(0)
            print(READY + json.dumps({"network_ms": wl.network_ms}), flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    import workloads  # needs ransomlab importable, which main() arranges

    env = workloads.child_env(SRC)
    bare, with_import = [sys.executable, "-c", "pass"], [sys.executable, "-c", "import ransomlab.cli"]
    if args.trace:
        startup_ms, import_ms = probe_ms([bare, with_import], env, workdir, workloads.run_child)
    else:
        (startup_ms,) = probe_ms([bare], env, workdir, workloads.run_child)
    setup_samples, network_samples = measure_setup(args)
    environment = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "interp_startup_ms": startup_ms,
    }
    wl = workloads.make(args.workload, args.seed, workdir, SRC)

    loop = LoopResult()
    details: dict = {}
    if args.trace:
        untraced = LoopResult()
        run_loop(wl, NullTracer(), args.seconds / 2, 0, untraced)
        tr = Tracer()
        traced = LoopResult()
        run_loop(wl, tr, args.seconds / 2, untraced.attempted, traced)
        for part in (untraced, traced):
            loop.attempted += part.attempted
            loop.failed += part.failed
            loop.problems += part.problems
        network_ms = statistics.median(network_samples + [wl.network_ms])
        metrics = per_layer(tr, wl, untraced, traced, startup_ms, import_ms, network_ms)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tr.write(spans)
        details["spans_file"] = str(spans.relative_to(ROOT))
        details["traced_ops"] = len(traced.latencies_ns)
    else:
        run_loop(wl, NullTracer(), args.seconds, 0, loop)
        peak_kb = wl.peak_rss_kb()
        metrics, details = end_to_end(loop, peak_kb, statistics.median(setup_samples)) if loop.latencies_ns else ({}, {})
    for problem in wl.final_checks():
        loop.attempted += 1
        if problem:
            loop.fail(f"final check: {problem}")

    if not metrics:
        print("error: no op completed; nothing to report", file=sys.stderr)
        for problem in loop.problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 1
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=environment, setup_samples_s=setup_samples, problems=loop.problems, **details)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for problem in loop.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"# environment {json.dumps(environment, sort_keys=True)}")
    if "op_samples" in details:
        print(f"# op_tail_ms is percentile {details['op_tail_percentile']:.2f} of {details['ops_per_tail_window']} ops "
              f"({details['samples_above_tail']} above it), median over {details['op_tail_windows']} windows; "
              f"{details['op_samples']} ops in all")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<34} {value:>16.6f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
