"""Scan tests for an overdense planted subset.

Two variants.  The known-probability statistic compares the observed edge
count of a candidate subset D against its exact null mean m_D:

    T(D) = m_D * h(e(D)/m_D - 1) / (|D| * ln(n/|D|)),

the Bennett tail exponent of the observed overshoot, normalised so that a
union bound over all subsets of size at most r is summable once T exceeds
1 + eps/2.  The blind variant substitutes a cross-edge estimate of m_D
(floored away from zero) and restricts candidate sizes to at least
ceil(r^(1/3)), rejecting at 1 + eps/3.

Scans maximise the statistic over a subset family.  Everything but the
edge counts is independent of the graph, so each scan runs a compiled
plan: chunks of at most 32,768 candidates of one size, sizes ascending
and rows lexicographic, each holding its validated rows, their null means
(known-probability scans only), the normaliser |D| ln(n/|D|) and the
blind floor.  A plan is built on first use for its (family, n, model) and
reused by later scans while it is among the few most recent; models and
families are immutable, so a cached plan cannot go stale.  Per graph, an
exhaustive size above the plan's first and above 2 is counted from the
size below, one popcount of the head's adjacency row against each
extended subset's vertex mask, and blind degree sums likewise grow by the
head's degree; the scan keeps those arrays for at most two consecutive
sizes.  Every other size counts its rows' pairs directly.  Each chunk
applies the kernel where a count exceeds a positive mean, every other row scoring 0.0.
The first strict maximum in plan order wins, which breaks ties toward the
smaller subset, then the lexicographically smallest vertex tuple,
independent of chunk boundaries.  The one-subset statistic functions score
a one-row chunk the same way, so a scan outcome is bit-for-bit
reproducible subset by subset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import BudgetError, ValidationError
from .kernels import entropy_h_vec
from .model import (_BATCH_ROWS, EdgeProbabilityModel, GraphSample, RankOne, _check_rows,
                    _combination_tables, _head_starts, _norm, _number, _vertex_masks,
                    check_subset)

__all__ = [
    "Exhaustive",
    "WeightPrefix",
    "Explicit",
    "SubsetFamily",
    "ScanConfig",
    "ScanOutcome",
    "min_blind_size",
    "stat_known",
    "scan_known",
    "estimate_from_totals",
    "estimate_expected_edges",
    "estimate_expected_edges_thresholded",
    "stat_unknown",
    "scan_unknown",
]

DEFAULT_SUBSET_BUDGET = 5_000_000

# compiled plans kept for reuse: a risk estimate runs one plan, a caller
# alternating the known and the blind scan two; each costs about
# (4k + 8) bytes per row of size k (4k blind), plus 8 ceil(n/64) bytes of
# vertex mask per row of an exhaustive size that a larger one extends
_PLAN_CACHE_SIZE = 2


class SubsetFamily:
    """A family of candidate subsets; each kind (de)serialises itself.

    to_dict() is the full description that from_dict() reads back;
    describe() is the summary a ScanOutcome records; _row_tables(n, model)
    yields one validated, read-only (m, k) array of row-sorted subsets per
    size, sizes ascending and rows lexicographic.  In a family that
    extends_sizes, each size's table is vertex a followed by the rows of the
    size below whose first vertex exceeds a, for a ascending (the layout of
    _combination_tables).
    """

    extends_sizes = False

    def describe(self) -> dict:
        return self.to_dict()

    @staticmethod
    def from_dict(raw: Mapping) -> "SubsetFamily":
        kinds = {cls.kind: cls for cls in (Exhaustive, WeightPrefix, Explicit)}
        family = kinds.get(str(raw.get("kind")))
        if family is None:
            raise ValidationError(f"unknown family kind {raw.get('kind')!r}")
        return family._from_dict(raw)


@dataclass(frozen=True)
class _SizeRange(SubsetFamily):
    min_size: int
    max_size: int

    def __post_init__(self) -> None:
        for key in ("min_size", "max_size"):
            object.__setattr__(self, key, _number(key, getattr(self, key), int))
        if not 1 <= self.min_size <= self.max_size:
            raise ValidationError(
                f"need 1 <= min_size <= max_size, got [{self.min_size}, {self.max_size}]"
            )

    def size_range(self, n: int) -> tuple[int, int]:
        return self.min_size, min(self.max_size, n)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "min_size": self.min_size, "max_size": self.max_size}

    @classmethod
    def _from_dict(cls, raw: Mapping) -> "_SizeRange":
        return cls(raw["min_size"], raw["max_size"])


@dataclass(frozen=True)
class Exhaustive(_SizeRange):
    """All subsets with min_size <= |D| <= max_size."""

    kind = "exhaustive"
    extends_sizes = True

    def count(self, n: int) -> int:
        return sum(math.comb(n, k) for k in range(self.min_size, min(self.max_size, n) + 1))

    def _row_tables(self, n: int, model: EdgeProbabilityModel | None) -> Iterator[np.ndarray]:
        for rows in _combination_tables(n, *self.size_range(n)):
            rows.flags.writeable = False
            yield rows


@dataclass(frozen=True)
class WeightPrefix(_SizeRange):
    """Prefixes of the weight-sorted vertex order (rank-one models only).

    Vertices are ranked by decreasing weight, ties broken by vertex id, and
    the family contains the first k vertices for each k in the size range.
    """

    kind = "weight_prefix"

    def count(self, n: int) -> int:
        return min(self.max_size, n) - self.min_size + 1

    def _row_tables(self, n: int, model: EdgeProbabilityModel | None) -> Iterator[np.ndarray]:
        if model is None:
            raise ValidationError("blind scan has no weight order to build prefixes from")
        if not isinstance(model, RankOne):
            raise ValidationError("WeightPrefix requires a rank-one model with known weights")
        order = np.argsort(-model.weights, kind="stable")
        lo, hi = self.size_range(n)
        for k in range(lo, hi + 1):
            rows = np.sort(order[:k]).astype(np.int64).reshape(1, k)
            rows.flags.writeable = False
            yield rows


@dataclass(frozen=True)
class Explicit(SubsetFamily):
    """A caller-supplied list of candidate subsets."""

    subsets: tuple[tuple[int, ...], ...]
    kind = "explicit"

    def __post_init__(self) -> None:
        if not self.subsets:
            raise ValidationError("Explicit family must contain at least one subset")
        object.__setattr__(self, "subsets", tuple(
            tuple(sorted(_number("subset vertex", v, int) for v in s)) for s in self.subsets
        ))

    def __hash__(self) -> int:
        # hashed once: the plan cache looks the family up on every scan
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.subsets)

    def count(self, n: int) -> int:
        return len(self.subsets)

    def size_range(self, n: int) -> tuple[int, int]:
        return self._size_blocks[0].shape[1], self._size_blocks[-1].shape[1]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "subsets": [list(s) for s in self.subsets]}

    def describe(self) -> dict:
        return {"kind": self.kind, "count": len(self.subsets)}

    @cached_property
    def _size_blocks(self) -> tuple[np.ndarray, ...]:
        # one (m, k) array per size, sizes ascending, rows lexicographic
        ordered = sorted(self.subsets, key=lambda s: (len(s), s))
        blocks = tuple(
            np.array(list(group), dtype=np.int64)
            for _, group in itertools.groupby(ordered, key=len)
        )
        for rows in blocks:
            rows.flags.writeable = False
        return blocks

    def _row_tables(self, n: int, model: EdgeProbabilityModel | None) -> Iterator[np.ndarray]:
        for rows in self._size_blocks:
            _check_rows(n, rows)
            yield rows

    @classmethod
    def _from_dict(cls, raw: Mapping) -> "Explicit":
        return cls(raw["subsets"])


@dataclass(frozen=True)
class ScanConfig:
    """Scan parameters: community size bound r, slack eps, candidate family.

    family=None means the widest admissible exhaustive family for the scan
    variant.  epsilon may be math.inf, which yields a test that never
    rejects (useful as a sentinel in harness checks).
    """

    r: int
    epsilon: float = 0.2
    family: SubsetFamily | None = None
    budget: int = DEFAULT_SUBSET_BUDGET

    def __post_init__(self) -> None:
        if _number("r", self.r, int) < 1:
            raise ValidationError(f"r must be >= 1, got {self.r}")
        if not _number("epsilon", self.epsilon, float) > 0:
            raise ValidationError(f"epsilon must be > 0, got {self.epsilon}")
        if _number("budget", self.budget, int) < 1:
            raise ValidationError(f"budget must be >= 1, got {self.budget}")


@dataclass(frozen=True)
class ScanOutcome:
    statistic: float
    subset: tuple[int, ...]
    threshold: float
    reject: bool
    epsilon: float
    r: int
    family: dict
    size_trace: dict[int, tuple[float, tuple[int, ...]]] | None = None
    metadata: dict = field(default_factory=dict)

    def row(self) -> dict:
        """The columns of the CLI's scan CSV."""
        subset = self.subset or ()
        return {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "reject": self.reject,
            "subset_size": len(subset),
            "subset": " ".join(map(str, subset)),
            "epsilon": self.epsilon,
            "r": self.r,
        }

    def to_json(self) -> dict:
        out = {
            "statistic": self.statistic,
            "subset": list(self.subset),
            "threshold": self.threshold,
            "reject": self.reject,
            "family": self.family,
            "epsilon": self.epsilon,
            "r": self.r,
            "metadata": dict(self.metadata),
        }
        if self.size_trace is not None:
            out["size_trace"] = {
                str(k): {"statistic": s, "subset": list(d)} for k, (s, d) in self.size_trace.items()
            }
        return out


def min_blind_size(r: int) -> int:
    """ceil(r^(1/3)), guarded against the cube root landing a hair above an
    integer in floating point (e.g. 27**(1/3) == 3.0000000000000004)."""
    if r < 1:
        raise ValidationError(f"r must be >= 1, got {r}")
    return max(1, math.ceil(r ** (1.0 / 3.0) - 1e-9))


def _check_scan_size(n: int, k: int) -> None:
    if k == 0:
        raise ValidationError("statistic undefined for the empty subset")
    if k >= n:
        raise ValidationError(f"statistic undefined for |D| = {k} with n = {n} (needs |D| < n)")


@dataclass(frozen=True)
class _Layer:
    """A chunk of a compiled plan: at most 32,768 candidates of one size."""

    rows: np.ndarray          # (m, k) validated row-sorted subsets, read-only
    means: np.ndarray | None  # null mean of each row; None in a blind plan
    norm: float               # k ln(n/k)
    floor: float | None       # blind floor (k^2/n) ln(n/k)^4; None in a known plan

    def stats(self, sample: GraphSample, counts: np.ndarray | None = None,
              degree_sums: np.ndarray | None = None) -> np.ndarray:
        """The statistic of every row on sample: against the null means, or
        blind against max(_blind_mean(e(V), sum deg(D) - 2 e(D)), floor).
        e(D) and sum deg(D) are counted here unless the scan passes them."""
        if counts is None:
            counts = sample._edges_within_rows(self.rows)
        means = self.means
        if means is None:
            if degree_sums is None:
                degree_sums = sample._degrees[self.rows].sum(axis=1)
            cross = degree_sums - 2 * counts
            means = np.maximum(_blind_mean(float(sample.total_edges()), cross), self.floor)
        return _scores(counts, means, self.norm)


@dataclass(frozen=True)
class _Size:
    """The candidates of one size in a compiled plan.

    In an exhaustive plan each size above the first and above 2 extends
    the one below: its rows headed by vertex a are a followed by the rows of
    the size below from starts[a] on.  A scan then counts them from that
    size's counts, e(a + D) = e(D) + |N(a) & D| with D's vertex mask, and
    blind sum deg(a + D) = sum deg(D) + deg(a).
    """

    rows: np.ndarray                # (m, k) the whole table, read-only
    chunks: tuple[_Layer, ...]      # rows in slices of at most _BATCH_ROWS
    starts: tuple[int, ...] | None  # per head vertex; None: counted directly
    masks: np.ndarray | None        # (m, ceil(n/64)) uint64, when the next size extends this one

    def arrays(self, sample: GraphSample, below: tuple | None
               ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """e(D) and, blind, sum deg(D) of every row for the chunks to slice;
        (None, None) when each chunk counts its own rows.  below holds the
        counts, degree sums and masks of the size below when this one
        extends it."""
        blind = self.chunks[0].means is None
        if self.starts is None:
            if self.masks is None:
                return None, None
            return (sample._edges_within_rows(self.rows),
                    sample._degrees[self.rows].sum(axis=1) if blind else None)
        counts_k, sums_k, masks_k = below
        adj = sample._adjacency_rows
        m = len(counts_k)
        counts = np.empty(len(self.rows), dtype=np.int64)
        sums = np.empty_like(counts) if blind else None
        at = 0
        for a, s in enumerate(self.starts):
            if s == m:
                break
            block = slice(at, at + m - s)
            out = counts[block]
            # the rows from s on hold only vertices above a: no bits in the
            # words below a + 1's
            w0 = (a + 1) >> 6
            np.add(counts_k[s:], np.bitwise_count(masks_k[s:, w0] & adj[a, w0]), out=out)
            for w in range(w0 + 1, adj.shape[1]):
                out += np.bitwise_count(masks_k[s:, w] & adj[a, w])
            if blind:
                np.add(sums_k[s:], sample._degrees[a], out=sums[block])
            at = block.stop
        return counts, sums


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(family: SubsetFamily, n: int,
          model: EdgeProbabilityModel | None) -> tuple[_Size, ...]:
    """The graph-independent part of a scan over family on n vertices, with
    null means from model (None for the blind scan), in plan order."""
    tables = list(family._row_tables(n, model))
    # a pair's count is one lookup, which no popcount over ceil(n/64) words
    # beats, so sizes 1 and 2 are always counted directly
    extended = [family.extends_sizes and t > 0 and table.shape[1] > 2
                for t, table in enumerate(tables)] + [False]
    sizes = []
    for t, table in enumerate(tables):
        k = table.shape[1]
        _check_scan_size(n, k)
        floor = _blind_floor(n, k) if model is None else None
        chunks = []
        for s in range(0, table.shape[0], _BATCH_ROWS):
            rows = table[s : s + _BATCH_ROWS]
            means = None
            if model is not None:
                means = model.within_mean(rows)
                means.flags.writeable = False
            chunks.append(_Layer(rows, means, _norm(n, k), floor))
        starts = masks = None
        if extended[t]:
            starts = _head_starts(n, tables[t - 1])
        if extended[t + 1]:
            masks = _vertex_masks(n, table)
            masks.flags.writeable = False
        sizes.append(_Size(table, tuple(chunks), starts, masks))
    if not sizes:
        raise ValidationError("subset family yielded no candidates")
    return tuple(sizes)


def _scores(counts: np.ndarray, means: np.ndarray, norm: float) -> np.ndarray:
    """means * h(counts / means - 1) / norm where a count exceeds its
    positive mean; 0.0 elsewhere, which is that formula's value at no
    overshoot and the convention at a zero mean."""
    hot = (counts > means) & (means > 0.0)
    mu = means[hot]
    out = np.zeros(means.shape)
    out[hot] = mu * entropy_h_vec(counts[hot] / mu - 1.0) / norm
    return out


def _blind_floor(n: int, k: int) -> float:
    return (k * k / n) * math.log(n / k) ** 4


def _blind_mean(e_total, cross):
    """(sqrt(e_total) - sqrt(e_total - 2 cross))^2 / 4, the radicand clamped
    at zero; elementwise over an array of cross counts."""
    root = np.sqrt(e_total) - np.sqrt(np.maximum(e_total - 2.0 * cross, 0.0))
    return root * root / 4.0


def stat_known(model: EdgeProbabilityModel, sample: GraphSample,
               subset: Iterable[int]) -> float:
    """Known-probability scan statistic of one subset.

    Zero whenever the subset shows no overshoot; zero by convention when
    the null mean is zero (such subsets carry no evidence either way).
    """
    d = check_subset(sample.n, subset)
    _check_scan_size(sample.n, d.size)
    if model.n != sample.n:
        raise ValidationError(f"model has n={model.n} but sample has n={sample.n}")
    rows = d[None, :]
    return float(_Layer(rows, model.within_mean(rows), _norm(sample.n, d.size),
                        None).stats(sample)[0])


def _run_plan(plan: tuple[_Size, ...], sample: GraphSample,
              keep_trace: bool) -> tuple[float, tuple[int, ...], dict | None, int]:
    """First strict maximum in plan order of the chunks' statistics on sample."""
    best_stat = -math.inf
    best_subset: tuple[int, ...] | None = None
    trace: dict[int, tuple[float, tuple[int, ...]]] = {}
    evaluated = 0
    below = None
    for size in plan:
        counts, sums = size.arrays(sample, below)
        # the arrays of the size below are dropped here, once this size has them
        below = None if size.masks is None else (counts, sums, size.masks)
        lo = 0
        for chunk in size.chunks:
            m, k = chunk.rows.shape
            hi = lo + m
            stats = chunk.stats(sample, None if counts is None else counts[lo:hi],
                                None if sums is None else sums[lo:hi])
            lo = hi
            evaluated += m
            i = int(np.argmax(stats))
            mx = float(stats[i])
            if mx > best_stat:
                best_stat = mx
                best_subset = tuple(int(v) for v in chunk.rows[i])
            if keep_trace and (k not in trace or mx > trace[k][0]):
                trace[k] = (mx, tuple(int(v) for v in chunk.rows[i]))
    return best_stat, best_subset, (trace if keep_trace else None), evaluated


def _scan(sample: GraphSample, config: ScanConfig, model: EdgeProbabilityModel | None,
          k_min: int, threshold: float, keep_trace: bool) -> ScanOutcome:
    """Both scans: maximise the statistic over the family (by default every
    subset of sizes [k_min, r]) with a plan whose null means come from
    model, and reject at threshold.  r must be below n and the family within
    sizes up to r; its size is checked against config.budget before any work."""
    n = sample.n
    if config.r >= n:
        raise ValidationError(f"r must be < n, got r={config.r}, n={n}")
    family = config.family or Exhaustive(k_min, config.r)
    hi = family.size_range(n)[1]
    if hi > config.r:
        raise ValidationError(f"family reaches size {hi}, above the scan bound r={config.r}")
    count = family.count(n)
    if count > config.budget:
        raise BudgetError(
            f"family enumerates {count} subsets, over the budget {config.budget}"
        )
    stat, subset, trace, evaluated = _run_plan(_plan(family, n, model), sample, keep_trace)
    metadata = {"subsets_evaluated": evaluated}
    if config.r >= n / 2:
        # the per-size normalisation ln(n/|D|) degenerates as |D| -> n;
        # results at r >= n/2 are outside the calibrated regime
        metadata["large_r"] = True
    return ScanOutcome(
        statistic=stat,
        subset=subset,
        threshold=threshold,
        reject=stat >= threshold,
        epsilon=config.epsilon,
        r=config.r,
        family=family.describe(),
        size_trace=trace,
        metadata=metadata,
    )


def scan_known(model: EdgeProbabilityModel, sample: GraphSample, config: ScanConfig,
               keep_trace: bool = False) -> ScanOutcome:
    """Maximise the known-probability statistic over the family; reject when
    the maximum reaches 1 + eps/2.

    The family must stay within sizes [1, r].  The enumeration size is
    checked against config.budget before any work happens.
    """
    if model.n != sample.n:
        raise ValidationError(f"model has n={model.n} but sample has n={sample.n}")
    return _scan(sample, config, model, 1, 1.0 + config.epsilon / 2.0, keep_trace)


def estimate_from_totals(total_edges: float, cross_edges: float) -> float:
    """The mean-estimate formula as a pure function of the two counts:

        (sqrt(e(V)) - sqrt(e(V) - 2 e(D, V\\D)))^2 / 4.

    Exposed separately so the algebraic identity behind it can be checked
    on exact expectations, not just on sampled integer counts.  The inner
    square root's argument is clamped at zero (sampling noise can push it
    negative)."""
    total_edges = float(total_edges)
    cross_edges = float(cross_edges)
    if total_edges < 0.0 or cross_edges < 0.0:
        raise ValidationError("edge counts must be nonnegative")
    return float(_blind_mean(total_edges, cross_edges))


def estimate_expected_edges(sample: GraphSample, subset: Iterable[int]) -> float:
    """Null-mean estimate for e(D) built only from the observed graph.

    Uses total and cross edge counts of the sample; exact in expectation
    for rank-one models when the subset holds the larger weights but less
    than half the total weight.
    """
    d = check_subset(sample.n, subset)
    _check_scan_size(sample.n, d.size)
    return estimate_from_totals(sample.total_edges(), sample.edges_across(d))


def _blind_subset(sample: GraphSample, subset: Iterable[int],
                  n: int | None) -> tuple[np.ndarray, int]:
    """The checked subset, and the n (default the sample's) of its floor."""
    d = check_subset(sample.n, subset)
    _check_scan_size(sample.n, d.size)
    n = sample.n if n is None else _number("n", n, int)
    if n <= d.size:
        raise ValidationError(f"floor undefined for n={n} <= |D|={d.size}")
    return d, n


def estimate_expected_edges_thresholded(sample: GraphSample, subset: Iterable[int],
                                        n: int | None = None) -> float:
    """The estimate floored at (|D|^2 / n) * ln(n/|D|)^4, the level below
    which the raw estimate is too noisy to normalise a test statistic.

    n defaults to the sample's vertex count; passing another value is an
    experimentation hook and changes only the floor."""
    d, n = _blind_subset(sample, subset, n)
    return max(estimate_expected_edges(sample, d), _blind_floor(n, d.size))


def stat_unknown(sample: GraphSample, subset: Iterable[int],
                 n: int | None = None) -> float:
    """Blind scan statistic: the known-probability form with the null mean
    replaced by its floored estimate."""
    d, n = _blind_subset(sample, subset, n)
    return float(_Layer(d[None, :], None, _norm(n, d.size),
                        _blind_floor(n, d.size)).stats(sample)[0])


def scan_unknown(sample: GraphSample, config: ScanConfig,
                 keep_trace: bool = False) -> ScanOutcome:
    """Maximise the blind statistic over sizes in [ceil(r^(1/3)), r];
    reject when the maximum reaches 1 + eps/3.

    Families reaching below the cube-root size floor are rejected: the
    mean estimate is not reliable there, and admitting those sizes would
    silently change the test's calibration.
    """
    k_min = min_blind_size(config.r)
    if config.family is not None and (lo := config.family.size_range(sample.n)[0]) < k_min:
        raise ValidationError(
            f"family includes size {lo}, below the blind floor ceil(r^(1/3)) = {k_min}"
        )
    out = _scan(sample, config, None, k_min, 1.0 + config.epsilon / 3.0, keep_trace)
    out.metadata["size_window"] = [k_min, config.r]
    return out
