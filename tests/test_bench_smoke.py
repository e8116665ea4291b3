"""Smoke test of the benchmark's in-process ops against the library as it stands.

A library change that breaks what ``bench/workloads.py`` calls, or that
changes what its checks expect, would make the benchmark report failed ops
while the rest of this suite stays green. This runs ``triage_batch`` ops
that sweep each of the nine variables and one ``cli_session`` op (six
``ransomlab`` child processes, whose output the check compares with the
library's) through ``prepare``/``op``/``check``, and recomputes the
``spread_mc`` golden digest, so such a change fails here first.
"""

from __future__ import annotations

import sys
from pathlib import Path

from ransomlab.scoring import VARIABLE_KEYS

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "bench"
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


def test_cli_session_op_passes_its_check(tmp_path):
    workload = workloads.CliSession(workloads.DEFAULT_SEED, tmp_path, REPO_ROOT / "src")
    tracer = NullTracer()
    session = workload.prepare(0)
    codes = workload.op(session, tracer)
    assert workload.check(session, codes, tracer) is None
