"""Monte Carlo risk estimation and parameter sweeps.

The worst-case risk of a test is its null rejection rate plus the largest
per-community acceptance rate; the average variant replaces the max by the
mean over the supplied communities.  Every replication draws its seed from
(master_seed, stream label, replication index), so estimates are invariant
to worker count and to re-running a subset of the grid.

Sweep outputs are written per point as JSON (which makes sweeps resumable:
finished points are skipped on re-run) and collected into a CSV whose
bytes depend only on the configuration and master seed.  Timestamps go to
a separate metadata sidecar, never into the CSV.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import PlantedScanError, ValidationError
from .lr import DEFAULT_EXACT_BUDGET, DEFAULT_SAMPLE_SIZE, LrProblem, likelihood_ratio_average
from .model import (
    EdgeProbabilityModel,
    GraphSample,
    PlantedAlternative,
    _number,
    _read_json,
    _write_json,
    model_from_json,
    model_to_json,
    sample_alternative,
    sample_null,
    write_csv,
)
from .scan import (DEFAULT_SUBSET_BUDGET, ScanConfig, SubsetFamily, _batch, _batch_graphs,
                   scan_known, scan_unknown)
from .boundary import threshold_scaling
from .seeding import derive_seed, generator

__all__ = [
    "ExperimentConfig",
    "RateWithError",
    "RiskEstimate",
    "estimate_risk",
    "run_sweep",
    "TESTS",
]

TESTS = ("scan_known", "scan_unknown", "lr")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything one risk estimate depends on.

    communities is either an explicit tuple of distinct vertex sets or an
    int, in which case that many distinct size-r communities are drawn
    uniformly, a repeated draw skipped (from the master seed, so the draw
    is part of the experiment's identity).
    workers = 0 means take SCAN_WORKERS from the environment, default 1.
    """

    model: EdgeProbabilityModel
    test: str
    r: int
    rho: float
    communities: tuple[tuple[int, ...], ...] | int
    null_replications: int
    alt_replications: int
    epsilon: float = 0.2
    family: SubsetFamily | None = None
    budget: int = DEFAULT_SUBSET_BUDGET
    lr_exact_budget: int = DEFAULT_EXACT_BUDGET
    lr_sample_size: int | None = DEFAULT_SAMPLE_SIZE
    master_seed: int = 0
    workers: int = 0

    def __post_init__(self) -> None:
        if self.test not in TESTS:
            raise ValidationError(f"test must be one of {TESTS}, got {self.test!r}")
        for key in ("r", "null_replications", "alt_replications", "budget",
                    "lr_exact_budget", "master_seed", "workers"):
            _number(key, getattr(self, key), int)
        for key in ("rho", "epsilon"):
            _number(key, getattr(self, key), float)
        if self.lr_sample_size is not None:
            _number("lr_sample_size", self.lr_sample_size, int)
        if not 1 <= self.r < self.model.n:
            raise ValidationError(f"need 1 <= r < n, got r={self.r}, n={self.model.n}")
        if not (self.rho >= 1.0 and math.isfinite(self.rho)):
            raise ValidationError(f"rho must be finite and >= 1, got {self.rho}")
        if self.null_replications < 1 or self.alt_replications < 1:
            raise ValidationError("replication counts must be >= 1")
        if isinstance(self.communities, int) and not isinstance(self.communities, bool):
            if self.communities < 1:
                raise ValidationError(f"community count must be >= 1, got {self.communities}")
            if self.communities > math.comb(self.model.n, self.r):
                raise ValidationError(f"cannot draw {self.communities} distinct communities "
                                      f"of size r={self.r} from n={self.model.n} vertices")
        else:
            try:
                comms = tuple(tuple(_number("community vertex", v, int) for v in c)
                              for c in self.communities)
            except TypeError as exc:  # a bool, or an int where a community belongs
                raise ValidationError(
                    f"communities must be a count or a list of vertex lists ({exc})"
                ) from exc
            if not comms:
                raise ValidationError("communities must be non-empty")
            if len({tuple(sorted(c)) for c in comms}) < len(comms):
                raise ValidationError("communities must be distinct vertex sets")
            object.__setattr__(self, "communities", comms)
        if self.workers < 0:
            raise ValidationError(f"workers must be >= 0, got {self.workers}")

    def resolved_workers(self) -> int:
        if self.workers:
            return self.workers
        env = os.environ.get("SCAN_WORKERS", "")
        if not env:
            return 1
        if not (env.isascii() and env.isdigit()):
            raise ValidationError(f"SCAN_WORKERS must be a non-negative integer, got {env!r}")
        return max(1, int(env))

    def resolved_communities(self) -> tuple[tuple[int, ...], ...]:
        if not isinstance(self.communities, int):
            return self.communities
        drawn: dict[tuple[int, ...], None] = {}  # distinct draws, in draw order
        for j in itertools.count():
            if len(drawn) == self.communities:
                return tuple(drawn)
            rng = generator(derive_seed(self.master_seed, "community-draw", j))
            c = np.sort(rng.choice(self.model.n, size=self.r, replace=False))
            drawn.setdefault(tuple(int(v) for v in c))

    @staticmethod
    def from_dict(raw: Mapping) -> "ExperimentConfig":
        raw = dict(raw)
        if "model" not in raw:
            raise ValidationError("config needs a 'model' entry")
        model = model_from_json(raw.pop("model"))
        family = raw.pop("family", None)
        if family is not None:
            family = SubsetFamily.from_dict(family)
        known = {f.name for f in fields(ExperimentConfig)} - {"model", "family"}
        extra = set(raw) - known
        if extra:
            raise ValidationError(f"unknown config keys: {sorted(extra)}")
        return ExperimentConfig(model=model, family=family, **raw)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "family"}
        d["model"] = model_to_json(self.model)
        if not isinstance(self.communities, int):
            d["communities"] = [list(c) for c in self.communities]
        if self.family is not None:
            d["family"] = self.family.to_dict()
        return d


@dataclass(frozen=True)
class RateWithError:
    rate: float
    stderr: float
    successes: int
    count: int

    def to_json(self) -> dict:
        return asdict(self)


def _rate(successes: int, count: int) -> RateWithError:
    p = successes / count
    return RateWithError(p, math.sqrt(p * (1.0 - p) / count), successes, count)


@dataclass(frozen=True)
class RiskEstimate:
    type1: RateWithError
    type2: dict[tuple[int, ...], RateWithError]
    metadata: dict = field(default_factory=dict)

    @property
    def worst_case_risk(self) -> float:
        return self.type1.rate + max(r.rate for r in self.type2.values())

    @property
    def average_risk(self) -> float:
        rates = [r.rate for r in self.type2.values()]
        return self.type1.rate + sum(rates) / len(rates)

    def row(self) -> dict:
        """The summary columns of the risk CSVs, from the CLI and sweeps."""
        rates = [r.rate for r in self.type2.values()]
        return {
            "type1": self.type1.rate,
            "type1_stderr": self.type1.stderr,
            "type2_max": max(rates),
            "type2_mean": sum(rates) / len(rates),
            "worst_case_risk": self.worst_case_risk,
            "average_risk": self.average_risk,
        }

    def to_json(self) -> dict:
        return {
            "type1": self.type1.to_json(),
            "type2": {",".join(map(str, c)): r.to_json() for c, r in self.type2.items()},
            "worst_case_risk": self.worst_case_risk,
            "average_risk": self.average_risk,
            "metadata": dict(self.metadata),
        }


def _make_decider(config: ExperimentConfig) -> tuple[Callable[[GraphSample], bool], int]:
    """The test's decision on one graph, and how many graphs _run_job
    decides in one batch scope: as many as scan._batch_graphs allows for a
    scan, one for the likelihood ratio, which counts nothing."""
    if config.test == "lr":
        problem = LrProblem(config.model, config.r, config.rho,
                            exact_budget=config.lr_exact_budget,
                            sample_size=config.lr_sample_size,
                            community_seed=config.master_seed)
        return (lambda g: likelihood_ratio_average(problem, g).value > 1.0), 1
    scan_cfg = ScanConfig(config.r, config.epsilon, config.family, config.budget)
    graphs = _batch_graphs(scan_cfg, config.model.n)
    if config.test == "scan_known":
        return (lambda g: scan_known(config.model, g, scan_cfg, decide=True).reject), graphs
    return (lambda g: scan_unknown(g, scan_cfg, decide=True).reject), graphs


def _run_job(job) -> list[int]:
    """Rejections per stream among one job's replications: job w of
    `workers` takes indices w, w + workers, ... of every stream, lists them
    in stream order, and samples and decides them a batch at a time, each
    batch in one batch scope.  A batch may span streams: each decision
    depends on its own graph alone."""
    config, streams, w, workers = job
    decide, graphs = _make_decider(config)
    replications = []  # (stream, alternative or None, seed) in stream order
    for t, (label, alt, count) in enumerate(streams):
        replications += [(t, alt, derive_seed(config.master_seed, label, i))
                         for i in range(count)[w::workers]]
    counts = [0] * len(streams)
    for start in range(0, len(replications), graphs):
        batch = replications[start : start + graphs]
        samples = [sample_null(config.model, seed) if alt is None
                   else sample_alternative(config.model, alt, seed) for _, alt, seed in batch]
        with _batch(samples):
            for (t, _, _), g in zip(batch, samples):
                if decide(g):
                    counts[t] += 1
    return counts


def estimate_risk(config: ExperimentConfig, test: str | None = None) -> RiskEstimate:
    """Type-I and per-community type-II rates for the configured test.

    test, when given, overrides config.test.  Each (hypothesis, community,
    replication) triple has its own derived seed, so the estimate does not
    depend on evaluation order or worker count, and alternative streams
    never reuse null randomness.
    """
    if test is not None and test != config.test:
        config = replace(config, test=test)
    communities = config.resolved_communities()
    for c in communities:
        if len(c) != config.r:
            raise ValidationError(f"community {c} does not have size r={config.r}")
    # validated here, before any replication, and sampled from as they are
    alts = [PlantedAlternative(c, config.rho, config.model) for c in communities]
    streams = [("null", None, config.null_replications)]
    streams += [(f"alt-{j}", alt, config.alt_replications) for j, alt in enumerate(alts)]
    workers = min(config.resolved_workers(), max(count for *_, count in streams))
    jobs = [(config, streams, w, workers) for w in range(workers)]
    if workers == 1:
        per_job = [_run_job(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_job = list(pool.map(_run_job, jobs))
    null_rej, *alt_rej = (sum(counts) for counts in zip(*per_job))
    type2 = {c: _rate(config.alt_replications - rej, config.alt_replications)
             for c, rej in zip(communities, alt_rej)}
    return RiskEstimate(
        type1=_rate(null_rej, config.null_replications),
        type2=type2,
        metadata={
            "test": config.test,
            "n": config.model.n,
            "r": config.r,
            "rho": config.rho,
            "epsilon": config.epsilon,
            "master_seed": config.master_seed,
            "communities": [list(c) for c in communities],
        },
    )


# -- sweeps -------------------------------------------------------------------


def _risk_point(point: Mapping) -> dict:
    return estimate_risk(ExperimentConfig.from_dict(point)).row()


def _boundary_point(point: Mapping) -> dict:
    for key in ("model", "community"):
        if key not in point:
            raise ValidationError(f"boundary point needs a {key!r} entry")
    model = model_from_json(point["model"])
    res = threshold_scaling(model, point["community"],
                            target=_number("target", point.get("target", 1.0), float))
    return res.row()


# per sweep kind: the point runner, and the columns of its row the sweep keeps
_POINT_KINDS = {
    "risk": (_risk_point, ["type1", "type1_stderr", "type2_max", "type2_mean",
                           "worst_case_risk", "average_risk"]),
    "boundary": (_boundary_point, ["rho_star", "optimal_size", "optimal_fraction", "feasible"]),
}


def _point_row(path: str, record: dict, overrides: dict, columns: Sequence[str]) -> list:
    """The CSV row of a point file's record; a malformed or stale one is a ValidationError."""
    try:
        stale = record["grid"] != overrides
        tail = ([record["result"][c] for c in columns] + [""] if "result" in record
                else [""] * len(columns) + [record["error_type"]])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"sweep point file {path} lacks a grid, result or error") from exc
    if stale:
        raise ValidationError(f"sweep point file {path} is for grid {record['grid']}, "
                              f"not {overrides}; use a fresh output directory")
    return list(overrides.values()) + tail


def run_sweep(base: Mapping, grid: Mapping[str, Sequence], out_dir: str | os.PathLike,
              kind: str = "risk") -> str:
    """Cartesian sweep of grid values over the base configuration.

    Each grid point is written whole to point-NNNN.json once it finishes
    (or fails: failures are recorded and the sweep continues); a re-run
    reuses these files and rejects one of another grid.  Returns the path of the
    collected CSV, whose first line is "#schema=1" and whose bytes are a
    pure function of base, grid, and kind.  An empty grid axis produces a
    header-only CSV.
    """
    if not isinstance(kind, str) or kind not in _POINT_KINDS:
        raise ValidationError(f"kind must be one of {sorted(_POINT_KINDS)}, got {kind!r}")
    for key, value in (("base", base), ("grid", grid)):
        if not isinstance(value, Mapping):
            raise ValidationError(f"sweep {key} must be an object, got {type(value).__name__}")
    as_read = {}  # each value as a point file reads it back, so resumed runs match fresh ones
    for key, values in grid.items():
        if not isinstance(values, (list, tuple)):
            raise ValidationError(f"grid axis {key!r} must be a list, got {type(values).__name__}")
        try:
            as_read[key] = json.loads(json.dumps(values, sort_keys=True, allow_nan=False))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"grid axis {key!r} holds a value JSON cannot hold "
                                  f"({exc})") from exc
    os.makedirs(out_dir, exist_ok=True)
    started = time.time()
    keys = sorted(grid)
    run_point, columns = _POINT_KINDS[kind]
    points = list(itertools.product(*(as_read[k] for k in keys)))
    rows = []
    for idx, combo in enumerate(points):
        path = os.path.join(out_dir, f"point-{idx:04d}.json")
        overrides = dict(zip(keys, combo))
        if os.path.exists(path):
            record = _read_json(path, "sweep point file")
        else:
            try:
                row = run_point({**base, **overrides})
                record = {"grid": overrides, "result": {c: row[c] for c in columns}}
            except PlantedScanError as exc:
                record = {"grid": overrides,
                          "error": str(exc), "error_type": type(exc).__name__}
            _write_json(record, path + ".tmp")
            os.replace(path + ".tmp", path)
        rows.append(_point_row(path, record, overrides, columns))
    csv_path = os.path.join(out_dir, "sweep.csv")
    write_csv(keys + columns + ["error"], rows, csv_path)
    meta = {
        "kind": kind,
        "points": len(points),
        "failures": sum(row[-1] != "" for row in rows),
        "grid_keys": keys,
        "started_at": started,
        "finished_at": time.time(),
    }
    _write_json(meta, os.path.join(out_dir, "sweep-meta.json"))
    return csv_path
