"""The benchmark's traced correctness check (bench/run.py --trace 1), on one
round of every workload at seed 0, run twice under the span tracer: every
call passes its check and matches its digest in bench/expected.json, the
exact counts repeat from round to round, and every expected span is
recorded.  A change that fails here is marked incorrect by the benchmark."""

import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import plantedscan

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def run():
    """bench/run.py as a module, with the environment variables it sets at
    import put back."""
    saved = dict(os.environ)
    sys.path.insert(0, str(BENCH))
    try:
        import run as module
    finally:
        sys.path.remove(str(BENCH))
        for key in set(os.environ) - set(saved):
            del os.environ[key]
        os.environ.update(saved)
    return module


WORKLOADS = ["risk_exhaustive", "risk_explicit", "lr_oracle", "large_graph"]


def test_every_workload_is_checked(run):
    assert sorted(run.WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_rounds_pass_the_benchmark_check(run, name, tmp_path, capsys):
    workload = run.WORKLOADS[name]
    with open(run.EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)[name]["0"]
    built = workload.build(plantedscan, 0, str(tmp_path))
    # as the benchmark's set-up does: a plan built on first use counts its
    # kernel elements in that call only
    for warm in built.warm_up:
        warm()
    runner = run.Runner(workload, 0, built.calls, expected, run.Reference())
    tracer = run.Tracer(run.PACKAGE, run.make_hooks([]))
    rounds = []
    tracer.install()
    try:
        for _ in range(2):
            for call in built.calls:
                runner.run_call(call, tracer)
            rounds.append(Counter({k: tracer.counts[k] for k in run.EXACT_COUNTS}))
            tracer.counts.clear()
    finally:
        tracer.uninstall()
    assert runner.failed == 0, capsys.readouterr().err
    assert sorted(runner.digests) == sorted(expected)
    assert rounds[0] == rounds[1]
    recorded = tracer.by_function(np.asarray(runner.scale))
    assert [span for span in workload.expected_spans if span not in recorded] == []


def check_recorded_seeds(run, name, workdir):
    """Every call of workload name, built in workdir on each seed recorded in
    bench/expected.json (0 to 31), passes its check and matches its digest."""
    workload = run.WORKLOADS[name]
    with open(run.EXPECTED_PATH, encoding="utf-8") as fh:
        recorded = json.load(fh)[name]
    assert sorted(recorded, key=int) == [str(seed) for seed in range(32)]
    for seed, expected in recorded.items():
        built = workload.build(plantedscan, int(seed), workdir)
        digests = {}
        for call in built.calls:
            result = call.run()
            assert call.check(result) == [], f"seed {seed}"
            digests[call.kind] = call.digest(result)
        assert digests == expected, f"seed {seed}"


def test_lr_oracle_matches_every_recorded_seed(run):
    # a last-bit change in the likelihood-ratio average shows up in a
    # 12-digit digest on some seed, not necessarily on seed 0
    check_recorded_seeds(run, "lr_oracle", "")


@pytest.mark.parametrize("name", ["risk_exhaustive", "risk_explicit", "large_graph"])
def test_scan_workloads_match_every_recorded_seed(run, name, tmp_path):
    # a deciding or full scan path can move a statistic, a subset or a
    # decision on some seed, not necessarily on seed 0
    check_recorded_seeds(run, name, str(tmp_path))
