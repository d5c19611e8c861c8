"""plantedscan benchmark: Monte Carlo throughput end to end, and per layer when traced.

Run from the repository root:

    python3 bench/run.py --workload risk_exhaustive --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py.  One caller runs a workload's round of
top-level calls back to back (closed loop, one process, workers=1) until
--seconds have passed.  Inputs come from --seed; every output is checked.

--trace 0 prints the end-to-end metrics: setup_s (import the package, then
the median of SETUP_ROUNDS fresh builds of the workload's inputs plus a
warm-up call), graphs_per_s (graphs sampled and then scanned or
LR-evaluated, per second spent inside top-level calls), call_s_p50 (seconds
of one top-level call: the median of each kind of call in the round, such as
scan_known and scan_unknown, averaged over the kinds) and peak_rss_mb (peak
resident memory of this process, which runs only the one workload).

Every reported time is in reference-scaled seconds: the wall time of a call
(or of a set-up step) multiplied by the nominal time of the reference
unit (reference.py) over that unit's time measured just before
and after it.  On shared cores this cancels most of the drift in machine
speed that co-tenants cause; the unscaled figures are printed as well.

--trace 1 runs the first half of the time untraced and the second half with
every public plantedscan function wrapped by tracer.Tracer, and prints the
per-layer metrics: counts and seconds per round of the traced half, rates,
and the tracing overhead.  Exact counts must repeat in every round; a
missing expected span or a differing count marks the traced calls failed.
Spans are saved to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it list the
environment and every metric with its unit.
"""

from __future__ import annotations

import os

# one thread per process: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import weakref
from collections import Counter

import numpy as np

from reference import Reference
from tracer import Tracer
from workloads import WORKER_COUNT, WORKLOADS

SETUP_ROUNDS = 5
PACKAGE = "plantedscan"
SRC_DIR = "src"
OUT_DIR = ".bench_out"
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# counts that must be identical in every round of a traced run
EXACT_COUNTS = (
    "scan.subsets_evaluated",
    "model.sample.pairs",
    "model.check_subset.calls",
    "kernels.entropy_h_vec.elements",
    "lr.community_pairs",
    "model.edge_list.bytes",
)


def import_package():
    """Import plantedscan from ./src; None when the checkout has no package."""
    src = os.path.abspath(SRC_DIR)
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        return None
    sys.path.insert(0, src)
    import plantedscan
    if not os.path.abspath(plantedscan.__file__).startswith(src + os.sep):
        raise ImportError(f"imported {plantedscan.__file__}, not the package under {src}")
    return plantedscan


def environment(ps, scan_workers_before: str | None) -> dict:
    def getconf(key):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return int(out.stdout) if out.stdout.strip().isdigit() else None

    git_sha = None
    if os.path.isdir(".git") and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        git_sha = out.stdout.strip() or None
    src_hash = hashlib.sha256()
    pkg_dir = os.path.dirname(ps.__file__)
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": {key: getconf(key) for key in
                        ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")},
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "workers": WORKER_COUNT,
        "scan_workers_env_before": scan_workers_before,
    }


class Runner:
    """Runs rounds of one workload; records scaled call times, graphs and failures.

    The reference unit runs after every call; a call's time is
    scaled by the unit's nominal time over the mean of the unit's times just
    before and just after it."""

    def __init__(self, workload, seed: int, calls, expected_digests: dict | None,
                 reference: Reference):
        self.workload = workload
        self.seed = seed
        self.calls = calls
        self.expected = expected_digests
        self.reference = reference
        self.first_digest: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.scale: list[float] = []          # per call id; 0 when the call raised
        self.call_seconds: list[float] = []   # scaled
        self.raw_seconds: list[float] = []
        self.kind_seconds: dict[str, list[float]] = {}
        self.graphs = 0
        self._ref_before = 0.0

    def run_call(self, call, tracer: Tracer | None) -> bool:
        if tracer is not None:
            tracer.call_id = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call.run()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.scale.append(0.0)
            return False
        dt = time.perf_counter() - t0
        ref_after = self.reference.seconds()
        scale = self.reference.nominal_s / (0.5 * (self._ref_before + ref_after))
        self._ref_before = ref_after
        self.scale.append(scale)
        self.raw_seconds.append(dt)
        self.call_seconds.append(dt * scale)
        self.kind_seconds.setdefault(call.kind, []).append(dt * scale)
        self.graphs += call.graphs
        if tracer is not None:
            tracer.active = False
        try:
            problems = call.check(result)
            digest = call.digest(result)
        except Exception:
            problems, digest = [traceback.format_exc()], "unchecked"
        finally:
            if tracer is not None:
                tracer.active = True
        del result
        self.digests[call.kind] = digest
        first = self.first_digest.setdefault(call.kind, digest)
        if first != digest:
            problems.append(f"digest {digest} differs from this run's first {first}")
        pinned = (self.expected or {}).get(call.kind)
        if pinned is not None and pinned != digest:
            problems.append(f"digest {digest} differs from the recorded {pinned}")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {self.workload.name} seed {self.seed} {call.kind}: {p}",
                      file=sys.stderr)
            return False
        return True

    def run_for(self, seconds: float, tracer: Tracer | None = None,
                on_round=None) -> int:
        """Whole rounds until `seconds` have passed; returns the round count."""
        rounds = 0
        start = time.perf_counter()
        self._ref_before = self.reference.seconds()
        while rounds == 0 or time.perf_counter() - start < seconds:
            passed = [self.run_call(c, tracer) for c in self.calls]
            rounds += 1
            if on_round is not None and not on_round():
                self.failed += sum(passed)
        return rounds

    def throughput(self) -> float:
        busy = sum(self.call_seconds)
        return self.graphs / busy if busy > 0 else 0.0

    def raw_throughput(self) -> float:
        busy = sum(self.raw_seconds)
        return self.graphs / busy if busy > 0 else 0.0


def scaled(reference: Reference, work) -> tuple[object, float, float]:
    """Run work(); return its result, its scaled time and the scale factor."""
    before = reference.seconds()
    t0 = time.perf_counter()
    result = work()
    dt = time.perf_counter() - t0
    scale = reference.nominal_s / (0.5 * (before + reference.seconds()))
    return result, dt * scale, scale


def make_hooks(first_calls: list[float]):
    seen_problems = weakref.WeakSet()

    def sample(tr, args, kwargs, result, ns):
        tr.counts["model.sample.pairs"] += result.pair_count

    def check_subset(tr, args, kwargs, result, ns):
        tr.counts["model.check_subset.calls"] += 1

    def scan(tr, args, kwargs, result, ns):
        tr.counts["scan.subsets_evaluated"] += result.metadata["subsets_evaluated"]

    def kernel(tr, args, kwargs, result, ns):
        tr.counts["kernels.entropy_h_vec.elements"] += int(np.size(result))

    def lr_average(tr, args, kwargs, result, ns):
        problem = args[0] if args else kwargs["problem"]
        tr.counts["lr.community_pairs"] += result.communities * problem.r * (problem.r - 1) // 2
        if problem not in seen_problems:
            seen_problems.add(problem)
            first_calls.append(ns / 1e9)

    def write_edges(tr, args, kwargs, result, ns):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tr.counts["model.edge_list.bytes"] += os.path.getsize(path)

    return {
        "sample_null": sample, "sample_alternative": sample,
        "check_subset": check_subset,
        "scan_known": scan, "scan_unknown": scan,
        "entropy_h_vec": kernel,
        "likelihood_ratio_average": lr_average,
        "write_edge_list": write_edges,
    }


def setup(ps, workload, seed: int, workdir: str, reference: Reference,
          first_calls: list[float]):
    """SETUP_ROUNDS fresh builds plus warm-up.  Returns the median scaled round
    time, the last round built, and the median scaled time per round of the
    first likelihood_ratio_average call of each LrProblem (None if none ran)."""
    times, first_per_round, built = [], [], None

    def build_and_warm():
        round_ = workload.build(ps, seed, workdir)
        for warm in round_.warm_up:
            warm()
        return round_

    for _ in range(SETUP_ROUNDS):
        built = None
        before = len(first_calls)
        built, seconds, scale = scaled(reference, build_and_warm)
        times.append(seconds)
        if len(first_calls) > before:
            first_per_round.append(sum(first_calls[before:]) * scale)
    first = statistics.median(first_per_round) if first_per_round else None
    return statistics.median(times), built, first


def per_layer(fns: dict, spans: int, rounds: int, round_counts: list[Counter],
              first_call_s: float | None, untraced: float, traced: float) -> dict:
    """Per-layer metrics of the traced half: span counts and scaled seconds
    per round, exact counts of one round, and rates over the whole half."""
    counts = round_counts[0]
    totals = sum(round_counts, Counter())

    def stat(names, key):
        return sum(fns[n][key] for n in names if n in fns)

    def calls(*names):
        return stat(names, "calls") / rounds, "count/round"

    def busy(*names):
        return stat(names, "busy_s") / rounds, "s/round"

    def own(name):
        return stat([name], "self_s") / rounds, "s/round"

    def exact(key, unit="count/round"):
        return counts[key], unit

    def rate(key, *names):
        seconds = stat(names, "busy_s")
        return (totals[key] / seconds if seconds else 0.0), "1/s"

    sampling = ("sample_null", "sample_alternative")
    scans = ("scan_known", "scan_unknown")
    metrics = {
        "model.sample.calls": calls(*sampling),
        "model.sample.busy_s": busy(*sampling),
        "model.sample.pairs": exact("model.sample.pairs"),
        "model.sample.pairs_per_s": rate("model.sample.pairs", *sampling),
        "model.check_subset.calls": exact("model.check_subset.calls"),
        "model.check_subset.busy_s": busy("check_subset"),
        "model.write_edge_list.busy_s": busy("write_edge_list"),
        "model.read_edge_list.busy_s": busy("read_edge_list"),
        "model.edge_list.bytes": exact("model.edge_list.bytes", "B/round"),
        "scan.scan_known.calls": calls("scan_known"),
        "scan.scan_known.self_s": own("scan_known"),
        "scan.scan_unknown.calls": calls("scan_unknown"),
        "scan.scan_unknown.self_s": own("scan_unknown"),
        "scan.subsets_evaluated": exact("scan.subsets_evaluated"),
        "scan.subsets_per_s": rate("scan.subsets_evaluated", *scans),
        "kernels.entropy_h_vec.calls": calls("entropy_h_vec"),
        "kernels.entropy_h_vec.busy_s": busy("entropy_h_vec"),
        "kernels.entropy_h_vec.elements": exact("kernels.entropy_h_vec.elements"),
        # computed, not measured: one float64 read and one written per element
        "kernels.entropy_h_vec.bytes_computed": (
            16 * counts["kernels.entropy_h_vec.elements"], "B/round"),
        "lr.bayes_risk.calls": calls("bayes_risk"),
        "lr.bayes_risk.self_s": own("bayes_risk"),
        "lr.likelihood_ratio_average.calls": calls("likelihood_ratio_average"),
        "lr.likelihood_ratio_average.busy_s": busy("likelihood_ratio_average"),
        "lr.first_call_s": (first_call_s or 0.0, "s"),
        "lr.community_pairs": exact("lr.community_pairs"),
        "lr.community_pairs_per_s": rate("lr.community_pairs", "likelihood_ratio_average"),
        "harness.estimate_risk.calls": calls("estimate_risk"),
        "harness.estimate_risk.self_s": own("estimate_risk"),
        "boundary.threshold_scaling.busy_s": busy("threshold_scaling"),
        "trace.graphs_per_s_untraced": (untraced, "1/s"),
        "trace.graphs_per_s_traced": (traced, "1/s"),
        "trace.overhead_ratio": (untraced / traced if traced else 0.0, "ratio"),
        "trace.spans": (spans / rounds, "count/round"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scan_workers_before = os.environ.pop("SCAN_WORKERS", None)
    workload = WORKLOADS[args.workload]
    reference = Reference()
    for _ in range(3):
        reference.seconds()
    try:
        ps, import_s, _ = scaled(reference, import_package)
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE}: {exc}", file=sys.stderr)
        return 2
    if ps is None:
        print(f"error: no {PACKAGE} package under ./{SRC_DIR}; run from the repository root",
              file=sys.stderr)
        return 2

    expected = None
    if os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            expected = json.load(fh).get(workload.name, {}).get(str(args.seed))
    env = environment(ps, scan_workers_before)
    print("env " + json.dumps(env, sort_keys=True))

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(ps, workload, args, workdir, expected, reference)
        else:
            result = untraced_run(ps, workload, args, workdir, expected, reference, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in result["metrics"].items():
        print(f"metric {workload.name} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def untraced_run(ps, workload, args, workdir, expected, reference, import_s) -> dict:
    setup_s, built, _ = setup(ps, workload, args.seed, workdir, reference, [])
    runner = Runner(workload, args.seed, built.calls, expected, reference)
    runner.run_for(args.seconds)
    n = len(runner.call_seconds)
    by_kind = {k: statistics.median(v) for k, v in runner.kind_seconds.items()}
    counts = {k: len(v) for k, v in runner.kind_seconds.items()}
    print(f"calls {n} timed, error_rate {runner.failed / runner.attempted:.6g} "
          f"({runner.failed}/{runner.attempted}), call_s_p50 by kind {json.dumps(by_kind)} "
          f"over {json.dumps(counts)} calls, digests {json.dumps(runner.digests, sort_keys=True)}")
    print(f"unscaled: graphs_per_s {runner.raw_throughput():.6g}, median scale "
          f"{statistics.median(runner.scale):.4f} (reference nominal {reference.nominal_s} s)")
    print(f"setup_s = import {import_s:.6g} s + median of {SETUP_ROUNDS} builds with warm-up "
          f"{setup_s:.6g} s")
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        "graphs_per_s": (runner.throughput(), "1/s"),
        "call_s_p50": (statistics.fmean(by_kind.values()) if n else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(ps, workload, args, workdir, expected, reference) -> dict:
    first_calls: list[float] = []
    tracer = Tracer(PACKAGE, make_hooks(first_calls))
    tracer.install()
    try:
        _, built, first_call_s = setup(ps, workload, args.seed, workdir, reference, first_calls)
    finally:
        tracer.uninstall()

    half = args.seconds / 2.0
    untraced = Runner(workload, args.seed, built.calls, expected, reference)
    untraced.run_for(half)

    traced = Runner(workload, args.seed, built.calls, expected, reference)
    traced.first_digest = dict(untraced.first_digest)
    round_counts: list[Counter] = []

    def on_round() -> bool:
        counts = Counter({k: tracer.counts[k] for k in EXACT_COUNTS})
        tracer.counts.clear()
        round_counts.append(counts)
        if counts != round_counts[0]:
            print(f"count mismatch in round {len(round_counts)}: {dict(counts)} vs "
                  f"{dict(round_counts[0])}", file=sys.stderr)
            return False
        return True

    tracer.reset()
    tracer.install()
    try:
        rounds = traced.run_for(half, tracer, on_round)
    finally:
        tracer.uninstall()

    fns = tracer.by_function(np.asarray(traced.scale))
    missing = [name for name in workload.expected_spans if name not in fns]
    if missing:
        print(f"missing expected spans for {workload.name}: {missing}", file=sys.stderr)
        traced.failed = traced.attempted
    tracer.save(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.npz"))
    print(f"rounds traced {rounds}, exact counts per round "
          f"{json.dumps(dict(round_counts[0]), sort_keys=True)}")
    print(f"tracing overhead: trace.overhead_ratio = untraced graphs_per_s "
          f"{untraced.throughput():.6g} / traced graphs_per_s {traced.throughput():.6g}")
    metrics = per_layer(fns, len(tracer.start), rounds, round_counts, first_call_s,
                        untraced.throughput(), traced.throughput())
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
