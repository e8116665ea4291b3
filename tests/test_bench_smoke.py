"""Smoke test of the benchmark's in-process ops against the library as it stands.

A library change that breaks what ``bench/workloads.py`` calls, or that
changes what its checks expect, would make the benchmark report failed ops
while the rest of this suite stays green. This runs ``triage_batch`` ops
that sweep each of the nine variables through ``prepare``/``op``/``check``
and recomputes the ``spread_mc`` golden digest, so such a change fails here
first.
"""

from __future__ import annotations

import sys
from pathlib import Path

from ransomlab.scoring import VARIABLE_KEYS

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracer import NullTracer  # noqa: E402


def test_triage_batch_ops_pass_their_checks(tmp_path):
    workload = workloads.TriageBatch(workloads.DEFAULT_SEED, tmp_path)
    tracer = NullTracer()
    # The first op that sweeps each variable: each shares a different set of score columns.
    first = {}
    for i in range(len(workload.paths)):
        first.setdefault(workload.prepare(i).fix[0], i)
    assert sorted(first) == list(VARIABLE_KEYS)
    for i in sorted(first.values()):
        args = workload.prepare(i)
        out = workload.op(args, tracer)
        assert workload.check(args, out, tracer) is None


def test_spread_mc_golden_digest_holds():
    assert workloads.SpreadMC.golden_digest() == workloads.SpreadMC.GOLDEN_SHA256
