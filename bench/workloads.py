"""The benchmark's workloads: inputs drawn from the seed, calls, and output checks.

A workload builds one *round*: the fixed list of top-level calls that the
timed loop repeats back to back.  Every round of a run gets the same inputs
(all drawn from --seed), so each call's result and each exact count must
repeat from round to round; the Monte Carlo replications inside a call
still see fresh graphs.

Each call carries two checks.  ``check`` tests invariants that hold for any
seed; ``digest`` reduces the result to a hash that is compared with the
first round of the run and, for the seeds in expected.json, with the value
recorded when the benchmark was defined.  Floats enter the digest at 12
significant digits so that a last-place difference in a vectorised libm
does not count as a wrong answer; integers, subsets, decisions and file
bytes enter exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

WORKER_COUNT = 1


@dataclass
class Call:
    kind: str
    graphs: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str]


@dataclass
class Round:
    calls: list[Call]
    warm_up: list[Callable[[], object]]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[object, int, str], Round]
    # public functions that must each record at least one span per traced run
    expected_spans: tuple[str, ...]


def canonical_digest(value) -> str:
    def canon(v):
        if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
            return v
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.12g}"
        if isinstance(v, (np.integer,)):
            return int(v)
        if isinstance(v, dict):
            return {str(k): canon(x) for k, x in v.items()}
        if isinstance(v, (list, tuple, np.ndarray)):
            return [canon(x) for x in v]
        raise TypeError(f"cannot digest {type(v).__name__}")

    text = json.dumps(canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _master_seed(seed: int) -> int:
    return int(_rng(seed, 0).integers(1 << 31))


# -- risk workloads -------------------------------------------------------------


def _risk_check(config, communities: int):
    def check(est) -> list[str]:
        problems = []
        if est.type1.count != config.null_replications:
            problems.append(f"type-I count {est.type1.count} != {config.null_replications}")
        if len(est.type2) != communities:
            problems.append(f"{len(est.type2)} type-II rates for {communities} communities")
        for rate in (est.type1, *est.type2.values()):
            if not 0 <= rate.successes <= rate.count or rate.rate != rate.successes / rate.count:
                problems.append(f"inconsistent rate {rate}")
        for c, rate in est.type2.items():
            if len(c) != config.r or rate.count != config.alt_replications:
                problems.append(f"community {c}: size {len(c)}, count {rate.count}")
        return problems

    return check


def _risk_calls(ps, configs, communities: int) -> list[Call]:
    calls = []
    for config in configs:
        graphs = config.null_replications + communities * config.alt_replications
        calls.append(Call(
            kind=config.test,
            graphs=graphs,
            run=lambda config=config: ps.estimate_risk(config),
            check=_risk_check(config, communities),
            digest=lambda est: canonical_digest(est.to_json()),
        ))
    return calls


def _warm_risk(ps, configs):
    small = [replace(c, null_replications=1, alt_replications=1) for c in configs]
    return [lambda c=c: ps.estimate_risk(c) for c in small]


def build_risk_exhaustive(ps, seed: int, workdir: str) -> Round:
    weights = _rng(seed, 1).uniform(0.05, 0.45, size=40)
    model = ps.RankOne(weights)
    configs = [
        ps.ExperimentConfig(
            model=model, test=test, r=4, rho=4.0, communities=2,
            null_replications=6, alt_replications=2,
            master_seed=_master_seed(seed), workers=WORKER_COUNT,
        )
        for test in ("scan_known", "scan_unknown")
    ]
    return Round(_risk_calls(ps, configs, 2), _warm_risk(ps, configs))


def build_risk_explicit(ps, seed: int, workdir: str) -> Round:
    n, r, communities = 512, 8, 5
    model = ps.Homogeneous(n, 0.05)
    base = ps.ExperimentConfig(
        model=model, test="scan_known", r=r, rho=20.0, communities=communities,
        null_replications=10, alt_replications=2, epsilon=0.5,
        master_seed=_master_seed(seed), workers=WORKER_COUNT,
    )
    rng = _rng(seed, 2)
    subsets = {tuple(c) for c in base.resolved_communities()}
    for k in range(1, r + 1):
        for _ in range(250):
            subsets.add(tuple(int(v) for v in np.sort(rng.choice(n, size=k, replace=False))))
    config = replace(base, family=ps.Explicit(tuple(sorted(subsets))))
    return Round(_risk_calls(ps, [config], communities), _warm_risk(ps, [config]))


# -- likelihood-ratio oracle ----------------------------------------------------


def _lr_check(replications: int, mode: str, communities: int):
    """E0[L] = 1, so mean_lr must lie within 4 stderr of 1.  In the sampled
    problem L has so heavy a right tail that its sample mean falls more than
    4 stderr below 1 for about 1% of seeds (2 of seeds 0-199 at 200
    replications, 3 at 400); there only the upper side is checked."""
    def check(res) -> list[str]:
        problems = []
        if (res.replications, res.mode, res.communities) != (replications, mode, communities):
            problems.append(f"got {res.replications} reps, mode {res.mode}, "
                            f"M={res.communities}; expected {replications}, {mode}, {communities}")
        if not 0.0 <= res.risk <= 1.0:
            problems.append(f"risk {res.risk} outside [0, 1]")
        excess = (res.mean_lr - 1.0) / res.mean_lr_stderr
        if excess > 4.0 or (excess < -4.0 if mode == "exact" else res.mean_lr <= 0.0):
            problems.append(f"mean_lr {res.mean_lr} is {excess:.2f} stderr "
                            f"({res.mean_lr_stderr}) from 1")
        return problems

    return check


def build_lr_oracle(ps, seed: int, workdir: str) -> Round:
    master = _master_seed(seed)
    specs = [
        # (problem, replications, mode, communities); replication counts make
        # the two calls take about the same time
        (ps.LrProblem(ps.Homogeneous(24, 0.3), 4, 2.0), 460, "exact", math.comb(24, 4)),
        (ps.LrProblem(ps.Homogeneous(200, 0.05), 10, 3.0, sample_size=4096,
                      community_seed=master), 200, "sampled", 4096),
    ]
    calls = [
        Call(
            kind=mode,
            graphs=reps,
            run=lambda problem=problem, reps=reps: ps.bayes_risk(problem, reps, master),
            check=_lr_check(reps, mode, m),
            digest=lambda res: canonical_digest(res.to_json()),
        )
        for problem, reps, mode, m in specs
    ]
    warm = [lambda problem=problem: ps.bayes_risk(problem, 2, master) for problem, *_ in specs]
    return Round(calls, warm)


# -- large graph: sample, write, read, scan ---------------------------------------


def build_large_graph(ps, seed: int, workdir: str) -> Round:
    n, r = 8192, 12
    rng = _rng(seed, 3)
    weights = rng.uniform(0.02, 0.12, size=n)
    model = ps.RankOne(weights)
    community = tuple(sorted(int(v) for v in np.argsort(-weights, kind="stable")[:r]))
    subsets = {community}
    for k in range(3, r + 1):
        for _ in range(30):
            subsets.add(tuple(int(v) for v in np.sort(rng.choice(n, size=k, replace=False))))
    config = ps.ScanConfig(r, 0.2, ps.Explicit(tuple(sorted(subsets))))
    sample_seed = _master_seed(seed)
    path = os.path.join(workdir, "large_graph.edges")

    def pipeline():
        boundary = ps.threshold_scaling(model, community)
        p_max, _pair = model.max_pair_within(np.asarray(community))
        rho = min(2.0 * boundary.rho_star, 1.0 / p_max)
        alt = ps.PlantedAlternative(community, rho, model)
        graph = ps.sample_alternative(model, alt, sample_seed)
        ps.write_edge_list(graph, path)
        imported = ps.read_edge_list(path)
        known = ps.scan_known(model, imported, config)
        blind = ps.scan_unknown(imported, config)
        return {"rho": rho, "graph": graph, "imported": imported,
                "known": known, "blind": blind}

    def check(out) -> list[str]:
        problems = []
        if not np.array_equal(out["imported"].packed, out["graph"].packed):
            problems.append("read_edge_list(write_edge_list(g)) does not reproduce g.packed")
        known, blind = out["known"], out["blind"]
        again = ps.stat_known(model, out["imported"], known.subset)
        if not math.isclose(again, known.statistic, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"scan_known statistic {known.statistic} != stat_known {again}")
        again = ps.stat_unknown(out["imported"], blind.subset)
        if not math.isclose(again, blind.statistic, rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"scan_unknown statistic {blind.statistic} != stat_unknown {again}")
        return problems

    def digest(out) -> str:
        with open(path, "rb") as fh:
            file_sha = hashlib.sha256(fh.read()).hexdigest()
        return canonical_digest({
            "rho": out["rho"],
            "edge_list_sha256": file_sha,
            "known": [out["known"].statistic, out["known"].subset, out["known"].reject],
            "blind": [out["blind"].statistic, out["blind"].subset, out["blind"].reject],
        })

    return Round([Call("pipeline", 1, pipeline, check, digest)], [pipeline])


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "risk_exhaustive",
            build_risk_exhaustive,
            ("estimate_risk", "sample_null", "sample_alternative", "scan_known",
             "scan_unknown", "entropy_h_vec"),
        ),
        Workload(
            "risk_explicit",
            build_risk_explicit,
            ("estimate_risk", "sample_null", "sample_alternative", "scan_known",
             "entropy_h_vec", "check_subset"),
        ),
        Workload(
            "lr_oracle",
            build_lr_oracle,
            ("bayes_risk", "likelihood_ratio_average", "sample_null"),
        ),
        Workload(
            "large_graph",
            build_large_graph,
            ("threshold_scaling", "sample_alternative", "write_edge_list",
             "read_edge_list", "scan_known", "scan_unknown", "entropy_h_vec"),
        ),
    )
}
