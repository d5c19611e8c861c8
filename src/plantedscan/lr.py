"""Exact likelihood ratio against the uniform planted-community prior.

For a candidate community C with lift rho the per-community ratio is

    L_C = prod over pairs {i,j} in C of rho^A_ij * ((1 - rho p_ij)/(1 - p_ij))^(1 - A_ij),

and the full ratio L averages L_C over communities.  The test L > 1 is the
Bayes rule for the uniform prior, so its average risk

    1 - E0[|L - 1|] / 2

lower-bounds the average risk of every test; estimating it needs only
null samples.  Everything is accumulated in log space; a pair with
rho * p = 1 observed absent forces L_C = 0 exactly.

A community whose absent-pair log l0 is the same on all K = C(r, 2) of its
pairs (every community of a Homogeneous model, with or without rho_map)
has log L_C = e log rho + (K - e) l0, a function of its edge count e
alone.  Such communities are evaluated from a table over e = 0..K, one per
distinct (log rho, l0), with the forbidden-pair rule built in (-inf below
e = K), and the problem holds no per-pair float array for them.  Every
other community sums its per-pair logs.

Graphs are evaluated a block at a time.  Each graph's unpacked triangle
is one lane of a (pairs, lanes) array in the narrowest unsigned type that
holds K (8 lanes of a byte up to K = 255, 4 of 16 bits above), viewed as
one word per pair, so that one gather of the communities' K x M pair
positions serves the whole block.  Adding a community's K words gives
each graph's edge count in its own lane: a count is at most K, so no lane
carries into the next.  Where the table has no more entries than there
are counted communities, the block keeps each graph's histogram of them
over the table's entries (np.bincount of offset + count), and nothing per
community; otherwise each counted community's table index.  A summed
community reads each graph's presence from the same gathered words and
adds its per-pair logs graph by graph.  A block holds at most
scan._BATCH_BYTES of lanes, or one graph's where that is more.
bayes_risk opens a batch scope (scan._batch) over each block of null
graphs, and so does estimate_risk over the graphs it decides; the first
likelihood_ratio_average in the scope evaluates the block.  Each call
exponentiates, relative to its graph's largest log, the table entries its
histogram holds and its summed logs, and takes one mean, the
histogram-weighted sum of those ratios over M: its work grows with the
table and the summed communities, not with M.  With indices it
exponentiates each counted community's gathered entry instead.  The
weighted sum adds in another order than a sum over the M ratios would, so
the mean may differ from that sum's in its last bits (every term is
positive: nothing cancels).  Counts are exact, so the result does not
depend on the block.  A graph outside any scope is a block of one.

Enumeration is exact while C(n, r) fits the budget; otherwise a fixed set
of communities is sampled once per problem (reused across graph samples,
which keeps the estimator unbiased for E0-averages) or, if sampling is
disabled, the budget violation is raised before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import BudgetError, NumericError, ValidationError
from .model import (EdgeProbabilityModel, GraphSample, _combination_tables, _count_dtype, _number,
                    _pair_index, check_subset, sample_null)
from .scan import _BATCH_BYTES, _batch, _batch_of
from .seeding import _stream, derive_seed, generator

__all__ = [
    "LrProblem",
    "LrAverage",
    "BayesRiskResult",
    "likelihood_ratio_single",
    "likelihood_ratio_average",
    "bayes_risk",
]

DEFAULT_EXACT_BUDGET = 200_000
DEFAULT_SAMPLE_SIZE = 4096


@dataclass(frozen=True, eq=False)
class LrProblem:
    """Model, community size, and lift defining the likelihood ratio.

    rho applies to every community unless rho_map overrides specific ones
    (keys are sorted vertex tuples).  community_seed fixes the sampled
    community set in the over-budget fallback; exact_budget bounds the
    number of enumerated communities and sample_size the fallback draw
    (None disables the fallback entirely).
    """

    model: EdgeProbabilityModel
    r: int
    rho: float
    rho_map: Mapping[tuple[int, ...], float] | None = None
    exact_budget: int = DEFAULT_EXACT_BUDGET
    sample_size: int | None = DEFAULT_SAMPLE_SIZE
    community_seed: int = 0

    def __post_init__(self) -> None:
        n = self.model.n
        for key in ("r", "exact_budget", "community_seed"):
            object.__setattr__(self, key, _number(key, getattr(self, key), int))
        object.__setattr__(self, "rho", _number("rho", self.rho, float))
        if self.sample_size is not None:
            object.__setattr__(self, "sample_size", _number("sample_size", self.sample_size, int))
        if not 2 <= self.r < n:
            raise ValidationError(f"need 2 <= r < n, got r={self.r}, n={n}")
        if not (self.rho >= 1.0 and math.isfinite(self.rho)):
            raise ValidationError(f"rho must be finite and >= 1, got {self.rho}")
        if self.exact_budget < 1:
            raise ValidationError(f"exact_budget must be >= 1, got {self.exact_budget}")
        if self.sample_size is not None and self.sample_size < 1:
            raise ValidationError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.rho_map is not None:
            cleaned = {}
            for key, value in self.rho_map.items():
                kt = tuple(int(v) for v in check_subset(n, key))
                if len(kt) != self.r:
                    raise ValidationError(f"rho_map key {kt} does not have size r={self.r}")
                if kt in cleaned:
                    raise ValidationError(f"rho_map has two keys for community {kt}")
                value = _number(f"rho_map value for {kt}", value, float)
                if not (value >= 1.0 and math.isfinite(value)):
                    raise ValidationError(f"rho_map value for {kt} must be >= 1, got {value}")
                cleaned[kt] = value
            object.__setattr__(self, "rho_map", cleaned)

    @property
    def community_count(self) -> int:
        return math.comb(self.model.n, self.r)

    @cached_property
    def _bundle(self) -> dict:
        n, r = self.model.n, self.r
        if self.community_count <= self.exact_budget:
            # int64 for the pair positions _log_tables computes
            comms = next(_combination_tables(n, r, r))[0].astype(np.int64)
            mode = "exact"
        elif self.sample_size is not None:
            rng = generator(derive_seed(self.community_seed, "lr-communities"))
            comms = np.stack([
                np.sort(rng.choice(n, size=r, replace=False))
                for _ in range(self.sample_size)
            ]).astype(np.int64)
            mode = "sampled"
        else:
            raise BudgetError(
                f"C({n},{r}) = {self.community_count} communities exceed the exact "
                f"budget {self.exact_budget} and sampling is disabled"
            )
        rho_m = np.full(comms.shape[0], self.rho)
        if self.rho_map:
            # each row is looked up among the sorted keys as one r*8-byte value
            keys = _byte_rows(np.array(list(self.rho_map), dtype=np.int64))
            order = np.argsort(keys)
            rows = _byte_rows(comms)
            at = order[np.searchsorted(keys, rows, sorter=order).clip(max=len(keys) - 1)]
            hit = keys[at] == rows
            rho_m[hit] = np.array(list(self.rho_map.values()))[at[hit]]
        return {"mode": mode, "communities": comms,
                "tables": _log_terms(_log_tables(self.model, comms, rho_m))}

    @property
    def mode(self) -> str:
        return self._bundle["mode"]


def _byte_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one opaque value, equal where the rows are."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)


def _log_tables(model: EdgeProbabilityModel, comms: np.ndarray,
                rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair terms of log L_C for each row of an (m, r) array of sorted
    communities with lifts rho (m,): the pairs' packed-triangle positions,
    the log factor of a present edge (per row) and of an absent one (per
    pair).  A pair with rho * p = 1 has absent factor -inf."""
    a, b = np.triu_indices(comms.shape[1], 1)
    ci, cj = comms[:, a], comms[:, b]
    p = model.pair_probability(ci, cj)
    rr = rho[:, None]
    bad = (p == 0.0) & (rr > 1.0)
    if np.any(bad):
        m, _ = np.argwhere(bad)[0]
        raise ValidationError(
            f"pair with probability 0 inside community {tuple(comms[m])} "
            "cannot be lifted by rho > 1"
        )
    q = rr * p
    over = q > 1.0 + 1e-12
    if np.any(over):
        m, j = np.argwhere(over)[0]
        raise ValidationError(f"rho * p = {float(q[m, j])} > 1 inside community {tuple(comms[m])}")
    # log1p on both sides so rho = 1 cancels exactly, pair by pair
    with np.errstate(divide="ignore", invalid="ignore"):
        noedge = np.log1p(-np.where(q < 1.0, q, 0.0)) - np.log1p(-p)
    noedge[q >= 1.0] = -np.inf
    # a pair with p = 1 never shows up absent; its no-edge branch is
    # unreachable, any finite placeholder keeps the arithmetic clean
    noedge[p >= 1.0] = 0.0
    return _pair_index(model.n, ci, cj), np.log(rho)[:, None], noedge


@dataclass(frozen=True, eq=False)
class _LogTerms:
    """_log_tables' rows split by how log L_C is evaluated on a graph.

    pairs holds every row's pair positions, pair-major: column m is row m's
    K positions, so that a block's gathered words add up row by row along
    axis 0.  A counted row (its absent-pair log is one value l0 on all K
    pairs) has log L_C = table[offset + e] with e its edge count; table
    holds e log rho + (K - e) l0 for e = 0..K, one group of K + 1 entries
    per distinct (log rho, l0).  A summed row keeps its per-pair logs.
    counted and summed are slices when all rows go one way, so the common
    problems index without copying.
    """

    pairs: np.ndarray                     # (K, m) packed-triangle positions
    counted: slice | np.ndarray
    offsets: np.ndarray                   # per counted row
    table: np.ndarray
    summed: slice | np.ndarray
    edge_log: np.ndarray                  # (summed rows, 1)
    noedge_log: np.ndarray                # (summed rows, K)

    @property
    def histogram(self) -> bool:
        """True when the table has no more entries than there are counted
        rows: a graph's counted rows are then held as the number of them at
        each table entry, and otherwise (many lifts, or one row) as each
        row's table index, so that a graph never costs more than its rows."""
        return self.table.size <= self.offsets.size


def _rows(mask: np.ndarray) -> slice | np.ndarray:
    if mask.all():
        return slice(None)
    return np.flatnonzero(mask) if mask.any() else slice(0)


def _log_terms(tables: tuple[np.ndarray, np.ndarray, np.ndarray]) -> _LogTerms:
    """Count every row of _log_tables' output whose absent-pair log is
    constant; sum the others pair by pair."""
    pair_index, edge_log, noedge = tables
    k = pair_index.shape[1]
    const = (noedge == noedge[:, :1]).all(axis=1)
    # one complex number per (log rho, l0): a 1-D unique sorts far faster
    # than unique rows
    lifts, group = np.unique(
        np.column_stack([edge_log[const, 0], noedge[const, 0]]).view(np.complex128),
        return_inverse=True)
    log_rho, l0 = lifts.real[:, None], lifts.imag[:, None]
    e = np.arange(k + 1)
    forbidden = l0 == -np.inf
    # zero stands in for -inf so that 0 * -inf never arises; the entries it
    # fixes are set to -inf below, and at e = K it is multiplied by 0
    table = e * log_rho + (k - e) * np.where(forbidden, 0.0, l0)
    table[forbidden & (e < k)] = -np.inf
    summed = _rows(~const)
    # copies, so that no view keeps the full per-pair array alive; row-major,
    # so that the block sums each row in the order a one-row call does
    return _LogTerms(np.ascontiguousarray(pair_index.T), _rows(const),
                     group.reshape(-1) * (k + 1), table.reshape(-1),
                     summed, edge_log[summed].copy(), noedge[summed].copy())


def _block_graphs(k: int, n: int) -> int:
    """The graphs one gather serves for communities of k pairs on n
    vertices: the lanes of _count_dtype(k) one 64-bit word holds (8 up to
    k = 255, 4 up to 65535), halved until the lanes of all n(n-1)/2 pairs
    take at most _BATCH_BYTES, down to one."""
    lane = _count_dtype(k).itemsize
    fit = min(8 // lane, max(1, _BATCH_BYTES // (lane * (n * (n - 1) // 2))))
    return 1 << (fit.bit_length() - 1)


def _words(samples: Sequence[GraphSample], block: int, lane: np.dtype) -> np.ndarray:
    """One word per pair of the samples' unpacked triangles, graph b in
    lane b, lanes of lane's dtype; for a block of one, the graph's unpacked
    bytes themselves, so that no second copy of its triangle is held."""
    if block == 1:
        (g,) = samples
        return np.unpackbits(g.packed, count=g.pair_count)
    lanes = np.zeros((samples[0].pair_count, block), lane)
    for b, g in enumerate(samples):
        lanes[:, b] = np.unpackbits(g.packed, count=g.pair_count)
    return lanes.view(f"u{lane.itemsize * block}").reshape(-1)


class _Logs(NamedTuple):
    """log L_C of every row of a _LogTerms on each graph of a block, one row
    per graph (or, indexed by a graph, on that graph alone): the counted
    rows as the number of them at each table entry (a float count, exact)
    or, where the terms hold no histogram, as each row's table index; each
    summed row's log; and the largest log of all rows (-inf when every one
    is)."""

    counted: np.ndarray                   # (graphs, table entries) or (graphs, counted rows)
    sums: np.ndarray                      # (graphs, summed rows)
    peak: np.ndarray                      # (graphs,)


def _log_ratios(terms: _LogTerms, samples: Sequence[GraphSample]) -> _Logs:
    """log L_C of every row of the terms on each of samples, graphs on one
    n, evaluated _block_graphs graphs per gather (fewer for fewer
    samples)."""
    k, m = terms.pairs.shape
    lane = _count_dtype(k)
    block = min(_block_graphs(k, samples[0].n), 1 << (len(samples) - 1).bit_length())
    word = np.dtype(f"u{lane.itemsize * block}")
    entries = terms.table.size
    if terms.histogram:
        counted = np.empty((len(samples), entries))
    else:
        # graph-major and intp: take converts a byte index far more slowly
        counted = np.empty((len(samples), terms.offsets.size), np.intp)
    sums = np.empty((len(samples), terms.edge_log.shape[0]))
    for s in range(0, len(samples), block):
        chunk = samples[s : s + block]
        gathered = _words(chunk, block, lane).take(terms.pairs)
        # a count is at most K, which the lane holds: no lane carries
        counts = np.add.reduce(gathered, axis=0, dtype=word).view(lane).reshape(m, block)
        rows = counted[s : s + len(chunk)]
        if terms.histogram:
            for b, row in enumerate(rows):
                row[...] = np.bincount(terms.offsets + counts[terms.counted, b],
                                       minlength=entries)
        else:
            rows[...] = counts[terms.counted, : len(chunk)].T
            rows += terms.offsets
        if sums.size:
            bits = gathered.view(f"u{gathered.itemsize // block}").reshape(k, m, block)
            for b, row in enumerate(sums[s : s + len(chunk)]):
                # row-major, so that each row adds its K terms as a one-row call does
                present = bits[:, terms.summed, b].T.astype(bool, order="C")
                row[...] = np.where(present, terms.edge_log, terms.noedge_log).sum(axis=1)
    if terms.histogram:
        peak = np.where(counted > 0.0, terms.table, -np.inf).max(axis=1, initial=-np.inf)
    else:
        peak = terms.table.take(counted).max(axis=1, initial=-np.inf)
    return _Logs(counted, sums, np.maximum(peak, sums.max(axis=1, initial=-np.inf)))


def _scoped_logs(terms: _LogTerms, sample: GraphSample) -> _Logs:
    """sample's row of _log_ratios over the samples of the enclosing batch
    scope (scan._batch), which the scope's first call for these terms
    evaluates and the scope holds until it closes; a sample outside any
    scope is a block of one."""
    batch, b = _batch_of(sample)
    logs = batch.memo(terms, None, lambda: _log_ratios(terms, batch.samples))
    return _Logs(logs.counted[b], logs.sums[b], logs.peak[b])


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def likelihood_ratio_single(problem: LrProblem, community: Iterable[int],
                            sample: GraphSample) -> float:
    """L_C for one community of size r; 0.0 exactly when an absent pair has
    rho * p = 1, inf when L_C exceeds the float range."""
    c = check_subset(sample.n, community)
    if problem.model.n != sample.n:
        raise ValidationError(f"model has n={problem.model.n} but sample has n={sample.n}")
    if c.size != problem.r:
        raise ValidationError(f"community size {c.size} does not match r={problem.r}")
    rho = problem.rho
    if problem.rho_map:
        rho = problem.rho_map.get(tuple(int(v) for v in c), rho)
    terms = _log_terms(_log_tables(problem.model, c[None, :], np.array([rho])))
    # the largest log of the one row is its log
    return _exp(float(_log_ratios(terms, [sample]).peak[0]))


@dataclass(frozen=True)
class LrAverage:
    value: float
    log_value: float           # log of value, finite where value overflows to inf
    mode: str                  # "exact" | "sampled"
    communities: int
    stderr: float | None = None  # sampling error over communities; None when exact


def likelihood_ratio_average(problem: LrProblem, sample: GraphSample) -> LrAverage:
    """Mean of L_C over the problem's community set (all of them in exact
    mode, the fixed sampled set otherwise)."""
    if problem.model.n != sample.n:
        raise ValidationError(f"model has n={problem.model.n} but sample has n={sample.n}")
    bundle = problem._bundle
    terms = bundle["tables"]
    counted, sums, shift = _scoped_logs(terms, sample)
    shift = float(shift)
    m = terms.pairs.shape[1]
    sampled = bundle["mode"] == "sampled"
    se = None
    if shift == -math.inf:
        # every L_C is 0
        value, log_value = 0.0, -math.inf
        if sampled and m > 1:
            se = 0.0
    else:
        # each L_C divided by exp(shift), at most 1: the counted rows as
        # their table entries' ratios, each weighted by the rows it holds
        # (one per row where the terms hold indices)
        if terms.histogram:
            # only entries some row holds: those above the shift may overflow
            weights = counted
            ratios = np.exp(terms.table - shift, out=np.zeros(counted.size), where=counted > 0.0)
        else:
            weights = np.ones(counted.size)
            ratios = np.exp(terms.table.take(counted) - shift)
        total = float(weights @ ratios)
        if sums.size:
            exps = np.exp(sums - shift)
            total += float(exps.sum())
        # at least 1/M, the largest ratio being 1: its log is finite
        mean = total / m
        log_value = shift + math.log(mean)
        try:
            scale, excess = math.exp(shift), 0.0
        except OverflowError:
            # the largest L_C is past the float range; the mean may not be
            scale, excess = 1.0, shift

        def scaled(x: float) -> float:
            return _exp(excess + math.log(x)) if excess and x > 0.0 else x * scale

        value = scaled(mean)
        if sampled and m > 1:
            squares = float(weights @ (ratios - mean) ** 2)
            if sums.size:
                squares += float(((exps - mean) ** 2).sum())
            se = scaled(math.sqrt(squares / (m - 1)) / math.sqrt(m))
    return LrAverage(value, log_value, bundle["mode"], m, se)


@dataclass(frozen=True)
class BayesRiskResult:
    risk: float
    stderr: float
    replications: int
    mode: str
    communities: int
    mean_lr: float
    mean_lr_stderr: float
    metadata: dict = field(default_factory=dict)

    def row(self) -> dict:
        """The columns of the CLI's lr-risk CSV."""
        return {
            "risk": self.risk,
            "stderr": self.stderr,
            "replications": self.replications,
            "mode": self.mode,
            "communities": self.communities,
            "mean_lr": self.mean_lr,
            "mean_lr_stderr": self.mean_lr_stderr,
        }

    def to_json(self) -> dict:
        out = {("M" if k == "communities" else k): v for k, v in self.row().items()}
        return {**out, "metadata": dict(self.metadata)}


def bayes_risk(problem: LrProblem, replications: int, master_seed: int) -> BayesRiskResult:
    """Monte Carlo estimate of the Bayes risk 1 - E0[|L - 1|]/2.

    Only null samples are needed.  mean_lr tracks E0[L], which is exactly 1
    for a valid problem and is reported with its own standard error as a
    built-in martingale check.  Replication i draws its null graph from
    (master_seed, "lr-null", i); the graphs are drawn and evaluated a block
    of _block_graphs at a time, each block in one batch scope.
    """
    replications = _number("replications", replications, int)
    master_seed = _number("master_seed", master_seed, int)
    if replications < 2:
        raise ValidationError(f"need at least 2 replications, got {replications}")
    devs = np.empty(replications)
    lrs = np.empty(replications)
    seed = _stream(master_seed, "lr-null")
    block = _block_graphs(math.comb(problem.r, 2), problem.model.n)
    for start in range(0, replications, block):
        samples = [sample_null(problem.model, seed(i))
                   for i in range(start, min(start + block, replications))]
        with _batch(samples):
            for i, g in enumerate(samples, start):
                lr = likelihood_ratio_average(problem, g).value
                if lr == math.inf:
                    raise NumericError(
                        f"likelihood ratio overflows on null replication {i}; "
                        "the risk estimate would be meaningless"
                    )
                lrs[i] = lr
                devs[i] = abs(lr - 1.0)
    risk = 1.0 - float(devs.mean()) / 2.0
    stderr = float(devs.std(ddof=1) / (2.0 * math.sqrt(replications)))
    return BayesRiskResult(
        risk=risk,
        stderr=stderr,
        replications=replications,
        mode=problem.mode,
        communities=problem._bundle["communities"].shape[0],
        mean_lr=float(lrs.mean()),
        mean_lr_stderr=float(lrs.std(ddof=1) / math.sqrt(replications)),
        metadata={"master_seed": master_seed},
    )
