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
plan: one record per candidate size, sizes ascending, holding the size's
validated rows (lexicographic), their null means (known-probability scans
only), the normaliser |D| ln(n/|D|) and the blind floor.  A plan is built
on first use for its (family, n, model) and reused by later scans while it
is among the few most recent; models and families are immutable, so a
cached plan cannot go stale.  Per graph, the scan takes each size once.
Counts come from a batch of B graphs (_Batch), one (B, m) table per plan
size, each computed on first use: a scan alone is a batch of one, and
inside a batch scope (_batch, which estimate_risk opens over the graphs it
has sampled) the first scan that needs a size counts it for every graph of
the scope, and the others read their rows.  A scope is sized by
_batch_graphs to hold at most _BATCH_BYTES, and drops what it holds when it
closes.  An exhaustive size above the plan's first and above 2 is counted
from the size below's table, one popcount of each head's adjacency rows,
which the batch stacks the first time such a size needs them, against each
extended subset's vertex mask.  Every other size counts its rows' pairs
directly (_edge_counts), each block of pair positions computed once for the
whole batch.  A size-k count is held in the narrowest unsigned dtype that holds
C(k, 2) (uint8 up to k = 23, uint16 up to k = 362): an extended size adds
in its own dtype, and the blind cross count widens to int64 before its
arithmetic.  A row whose count exceeds a positive mean is hot and scores its
kernel value, which is positive; every other row scores 0.0.  At a fixed
count the statistic falls as the mean rises, so each plan size holds a
bound table: for each count c = 0..C(k, 2), the score of c at the size's
least positive null mean or, blind, at the floor, which no blind mean is
below, made nondecreasing in c and raised by a relative 1e-9.  No row with
count c scores above bound[c].  Every size, known or blind, of a full,
traced or deciding scan, is scored by its batch (_Batch.best): for a least
count c, each graph's first maximum over its rows whose count reaches c,
ties to the smallest row, (0.0, 0) when none is hot, found for every graph
of the batch at once, its hot rows scored a block at a time, each block in
one _scores call, blind means estimated for those rows only from the
batch's degree stack and edge totals.  A scan takes c at its table's first
entry above the running best (at least 0.0).  A size whose table stays at
or below the best is not scored, and its counts are not read unless a size
that extends from it is scored (in a batch scope another graph's scan may
still have needed the table); at n = 40 the blind floor exceeds C(k, 2)
for every k <= 5, so a default blind scan with r <= 5 counts nothing.  The
rows left out cannot beat the best, so the first strict maximum in plan
order still wins, which breaks ties toward the smaller subset, then the
lexicographically smallest vertex tuple.  A scan that only decides
(decide=True) takes c at the table's first entry that reaches the
threshold, one c per size for the whole batch, and a size is counted only
if its table, or that of a size extending from it, reaches it.  Every row
that reaches the threshold is still scored, so wherever the full scan
rejects the outcome is the same; elsewhere the statistic is a lower bound.
The plan's largest size, where it extends the size below, is grown
rather than counted (_grown): by the peeling step of greedy densest
subgraph, a k-set with at least c edges holds a (k-1)-set with at least
c - floor(2c/k), so its rows are those rows of the size below's table,
each grown by every vertex outside it, counted by a popcount against that
vertex's adjacency row and indexed by lexicographic rank
(_insertion_ranks).  No table of that size is built, unless the
candidates number more than 2^(1-k) of its entries, where counting it
was measured faster.  The one-subset statistic functions score their one
row with the same _scores and _blind_means, so a scan outcome is
bit-for-bit reproducible subset by subset.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import BudgetError, ValidationError
from .kernels import entropy_h_vec
from .model import (_BATCH_ROWS, EdgeProbabilityModel, GraphSample, RankOne, _adjacency_stack,
                    _check_rows, _combination_tables, _count_dtype, _edge_counts,
                    _insertion_ranks, _norm, _number, _vertex_masks, check_subset)

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
# vertex mask per row of an exhaustive size that a larger one extends, plus
# a bound table of C(k, 2) + 1 floats per size (one float where that would
# outnumber the size's k m vertex entries).  A batch holds besides, per
# graph, one count per row of each size counted, 1 byte for k <= 23 and 2
# for k <= 362, n^2/8 bytes of adjacency rows once an extended size is
# counted or grown, 8n bytes of degree stack once a blind size is scored,
# and 16 bytes of best row per size scored: a scan alone until it returns,
# a batch scope about _BATCH_BYTES until it closes.  Its scoring passes hold
# besides a table's bool mask and an 8-byte index per entry that reaches
# c, and a block at a time (_hot_rows, _grown)
_PLAN_CACHE_SIZE = 2

# the bytes of count tables, packed triangles and adjacency rows a batch
# scope is sized to hold.  Known scans of RankOne(40) null graphs at r = 4, deciding
# at eps = 0.2 (about 102 kB of tables per graph), took 0.36 ms per graph
# unbatched and 0.29/0.24/0.21/0.21/0.20/0.20/0.20/0.23 ms at B = 2, 5, 10,
# 15, 20, 30, 50 and 100 (timed in-process, 400 graphs): past about 2 MB
# the tables outgrow the cache and the gain stops
_BATCH_BYTES = 2 << 20


class SubsetFamily:
    """A family of candidate subsets; each kind (de)serialises itself.

    to_dict() is the full description that from_dict() reads back;
    describe() is the summary a ScanOutcome records; _row_tables(n, model)
    yields one (rows, starts) pair per size, sizes ascending.  rows is a
    validated, read-only (m, k) array of row-sorted subsets, rows
    lexicographic.  starts is None, or, when the table is every k-subset of
    range(n) and extends the size below, which is then every (k-1)-subset,
    for each vertex a the first row of the size below whose first vertex
    exceeds a: the table is then vertex a followed by the rows from there
    on, for a ascending (the layout of _combination_tables, whose row
    indices _insertion_ranks computes).
    """

    def describe(self) -> dict:
        return self.to_dict()

    def _extended_sizes(self, n: int) -> range:
        """The sizes whose table _row_tables(n, ...) yields with starts."""
        return range(0)

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

    def count(self, n: int) -> int:
        return sum(math.comb(n, k) for k in range(self.min_size, min(self.max_size, n) + 1))

    def _extended_sizes(self, n: int) -> range:
        # every size above the first extends the one below, but a pair's
        # count is one lookup, which no popcount over ceil(n/64) words beats,
        # so sizes 1 and 2 are always counted directly
        lo, hi = self.size_range(n)
        return range(max(lo + 1, 3), hi + 1)

    def _row_tables(self, n: int, model: EdgeProbabilityModel | None) -> Iterator[tuple]:
        extended = self._extended_sizes(n)
        for rows, starts in _combination_tables(n, *self.size_range(n)):
            rows.flags.writeable = False
            yield rows, starts if rows.shape[1] in extended else None


@dataclass(frozen=True)
class WeightPrefix(_SizeRange):
    """Prefixes of the weight-sorted vertex order (rank-one models only).

    Vertices are ranked by decreasing weight, ties broken by vertex id, and
    the family contains the first k vertices for each k in the size range.
    """

    kind = "weight_prefix"

    def count(self, n: int) -> int:
        return min(self.max_size, n) - self.min_size + 1

    def _row_tables(self, n: int, model: EdgeProbabilityModel | None) -> Iterator[tuple]:
        if model is None:
            raise ValidationError("blind scan has no weight order to build prefixes from")
        if not isinstance(model, RankOne):
            raise ValidationError("WeightPrefix requires a rank-one model with known weights")
        order = np.argsort(-model.weights, kind="stable")
        lo, hi = self.size_range(n)
        for k in range(lo, hi + 1):
            rows = np.sort(order[:k]).astype(np.int64).reshape(1, k)
            rows.flags.writeable = False
            yield rows, None


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

    def _row_tables(self, n: int, model: EdgeProbabilityModel | None) -> Iterator[tuple]:
        for rows in self._size_blocks:
            _check_rows(n, rows)
            yield rows, None

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
class _Size:
    """The candidates of one size in a compiled plan.

    In an exhaustive plan each size above the first and above 2 extends
    the one below: its rows headed by vertex a are a followed by the rows of
    the size below from starts[a] on.  A scan then counts them from that
    size's counts, e(a + D) = e(D) + |N(a) & D| with D's vertex mask, or,
    scoring the plan's largest size, grows the rows that can beat its cut
    from that size's (_grown).  Any other size is counted pair
    by pair (_edge_counts).

    bound is nondecreasing, and on every graph no row whose count is c
    scores above bound[min(c, len(bound) - 1)] (see _bound).
    """

    rows: np.ndarray                       # (m, k) validated row-sorted subsets, read-only
    means: np.ndarray | None               # null mean of each row; None in a blind plan
    norm: float                            # k ln(n/k)
    floor: float | None                    # blind floor (k^2/n) ln(n/k)^4; None in a known plan
    bound: np.ndarray                      # read-only; _NO_BOUND rules no row out
    starts: tuple[int, ...] | None = None  # per head vertex; None: not extended
    masks: np.ndarray | None = None        # (m, ceil(n/64)) uint64 if the next size extends this

    def counts(self, samples: list[GraphSample], below: tuple | None = None) -> np.ndarray:
        """The (B, m) table of e(D) of every row on each of B samples, in
        dtype _count_dtype(C(k, 2)): where this size extends the size below,
        from below, that size's (B, m') table and masks and the samples'
        (B, n, ceil(n/64)) adjacency rows; else by _edge_counts."""
        if self.starts is None:
            return _edge_counts(samples, self.rows)
        k = self.rows.shape[1]
        counts = np.empty((len(samples), len(self.rows)), dtype=_count_dtype(k * (k - 1) // 2))
        counts_k, masks_k, adj = below
        m = counts_k.shape[1]
        at = 0
        for a, s in enumerate(self.starts):
            if s == m:
                break
            out = counts[:, at : at + m - s]
            # the rows from s on hold only vertices above a: no bits in the
            # words below a + 1's.  The sum is taken in this size's dtype,
            # which may be wider than the size below's
            w0 = (a + 1) >> 6
            np.add(counts_k[:, s:], np.bitwise_count(masks_k[s:, w0] & adj[:, a, w0, None]),
                   out=out, dtype=out.dtype)
            for w in range(w0 + 1, adj.shape[2]):
                out += np.bitwise_count(masks_k[s:, w] & adj[:, a, w, None])
            at += m - s
        return counts


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(family: SubsetFamily, n: int,
          model: EdgeProbabilityModel | None) -> tuple[_Size, ...]:
    """The graph-independent part of a scan over family on n vertices, with
    null means from model (None for the blind scan), in plan order."""
    tables = list(family._row_tables(n, model))
    sizes = []
    for (table, starts), (_, above) in zip(tables, tables[1:] + [(None, None)]):
        m, k = table.shape
        _check_scan_size(n, k)
        means = masks = None
        if model is not None:
            means = np.empty(m)
            for s in range(0, m, _BATCH_ROWS):
                means[s : s + _BATCH_ROWS] = model.within_mean(table[s : s + _BATCH_ROWS])
            means.flags.writeable = False
        if above is not None:
            masks = _vertex_masks(n, table)
            masks.flags.writeable = False
        norm = _norm(n, k)
        floor = _blind_floor(n, k) if model is None else None
        # every blind mean is at least the floor; a known row with a zero mean scores 0.0
        low = floor if model is None else means.min(where=means > 0.0, initial=np.inf)
        # no table may outweigh the size's own: a weight-prefix family of
        # sizes up to r would otherwise hold about r^3 / 6 floats
        bound = _bound(k, low, norm) if k * (k - 1) // 2 < table.size else _NO_BOUND
        sizes.append(_Size(table, means, norm, floor, bound, starts, masks))
    if not sizes:
        raise ValidationError("subset family yielded no candidates")
    return tuple(sizes)


def _scores(counts: np.ndarray, means: np.ndarray, norm: float) -> np.ndarray:
    """means * h(counts / means - 1) / norm where a count exceeds its
    positive mean; 0.0 elsewhere, which is that formula's value at no
    overshoot and the convention at a zero mean.  A mean so small that the
    formula overflows scores its equal log form (c ln(c/mu) - c + mu) / norm."""
    hot = (counts > means) & (means > 0.0)
    mu = means[hot]
    out = np.zeros(means.shape)
    with np.errstate(over="ignore"):
        score = mu * entropy_h_vec(counts[hot] / mu - 1.0) / norm
    far = np.isinf(score)
    if far.any():
        c, mu = counts[hot][far].astype(np.float64), mu[far]
        score[far] = (c * (np.log(c) - np.log(mu)) - c + mu) / norm
    out[hot] = score
    return out


# the bound table of a size that keeps none: it rules no row out
_NO_BOUND = np.array([np.inf])
_NO_BOUND.flags.writeable = False


def _bound(k: int, low: float, norm: float) -> np.ndarray:
    """bound[c] for c = 0..C(k, 2): at least the statistic of every row of
    size k with count c and a mean of at least low.  At a fixed count e
    above the mean, mu h(e/mu - 1) = e ln(e/mu) - e + mu falls as mu rises,
    and a count at or below the mean scores 0.0, so _scores at low bounds
    it.  The running maximum makes the table nondecreasing, and the factor
    1 + 1e-9 covers the kernel's float error (about 2e-12 relative at its
    1e-4 Taylor switch)."""
    counts = np.arange(k * (k - 1) // 2 + 1)
    bound = np.maximum.accumulate(_scores(counts, np.full(counts.shape, low), norm))
    bound *= 1.0 + 1e-9
    bound.flags.writeable = False
    return bound


def _blind_floor(n: int, k: int) -> float:
    return (k * k / n) * math.log(n / k) ** 4


def _blind_mean(e_total, cross):
    """(sqrt(e_total) - sqrt(e_total - 2 cross))^2 / 4, the radicand clamped
    at zero; elementwise over an array of cross counts."""
    root = np.sqrt(e_total) - np.sqrt(np.maximum(e_total - 2.0 * cross, 0.0))
    return root * root / 4.0


def _blind_means(e_total, degree_sums, counts: np.ndarray, floor: float) -> np.ndarray:
    """The blind null means max(_blind_mean(e(V), sum deg(D) - 2 e(D)),
    floor) of rows with counts e(D) and degree sums sum deg(D), on graphs
    with e_total edges; elementwise, the cross count in int64."""
    return np.maximum(_blind_mean(e_total, degree_sums - 2 * counts.astype(np.int64)), floor)


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
    return float(_scores(_edge_counts([sample], rows)[0], model.within_mean(rows),
                         _norm(sample.n, d.size))[0])


class _Batch:
    """Samples on one n whose scans share what is counted for them: for each
    plan, keyed by its id, the (B, m) count table of each plan size
    (_Size.counts), computed on first use, the size below first where size
    j extends it; the samples' adjacency rows (_adjacency_stack), built the
    first time an extended size is counted or grown; their degrees and edge
    totals (degrees), built the first time a blind size is scored; for each
    plan size, each graph's best row among the rows whose count reaches the
    least count c last asked for (best); and, keyed by the id of a
    likelihood-ratio problem's terms, the samples' log L_C as lr._Logs
    (lr._scoped_logs): per graph, the counted communities' histogram over
    the table's entries (or each one's table index), each summed
    community's log and the largest log.  The batch holds each plan and
    terms it keys, so no id is reused while it lives."""

    def __init__(self, samples: Iterable[GraphSample]) -> None:
        self.samples = list(samples)
        self.row = {sample: b for b, sample in enumerate(self.samples)}
        self.tables: dict[int, tuple[tuple[_Size, ...], list]] = {}
        self.records: dict[tuple[int, int], tuple[int, np.ndarray, np.ndarray]] = {}
        self.logs: dict[int, tuple[object, tuple[np.ndarray, ...]]] = {}

    @cached_property
    def adjacency(self) -> np.ndarray:
        return _adjacency_stack(self.samples)

    @cached_property
    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """The samples' (B, n) degree stack and their (B,) edge totals e(V)."""
        return (np.stack([sample._degrees for sample in self.samples]),
                np.array([float(sample.total_edges()) for sample in self.samples]))

    def table(self, plan: tuple[_Size, ...], j: int) -> np.ndarray:
        tables = self.tables.setdefault(id(plan), (plan, [None] * len(plan)))[1]
        if tables[j] is None:
            size = plan[j]
            below = None if size.starts is None else (
                self.table(plan, j - 1), plan[j - 1].masks, self.adjacency)
            tables[j] = size.counts(self.samples, below)
        return tables[j]

    def best(self, plan: tuple[_Size, ...], j: int, c: int, b: int) -> tuple[float, int]:
        """The first maximum of the statistic of plan size j on graph b over
        the rows whose count is at least c, ties to the smallest row index,
        and its row; (0.0, 0) when none of them is hot.  Rows score _scores
        against their null means or, blind, against _blind_means, with the
        degree sums gathered for those rows only.  The first call for (plan,
        j, c) scores the hot blocks of the whole batch (hot) and keeps every
        graph's, one record per size: later calls at c read it, one at
        another c (a full scan's follows its running best) replaces it."""
        key = (id(plan), j)
        if self.records.get(key, (None,))[0] != c:
            size = plan[j]
            stats = np.zeros(len(self.samples))
            rows = np.zeros(len(self.samples), dtype=np.int64)
            for graph, row, counts in self.hot(plan, j, c):
                if size.means is None:
                    degrees, totals = self.degrees
                    sums = degrees[graph[:, None], size.rows[row]].sum(axis=1)
                    means = _blind_means(totals[graph], sums, counts, size.floor)
                else:
                    means = size.means[row]
                # a hot row's count / mean - 1 is at least one ulp of 1.0 (its
                # count is an integer), so it scores above the 0.0 of every cold row
                _fold(stats, rows, graph, row, _scores(counts, means, size.norm))
            self.records[key] = c, stats, rows
        _, stats, rows = self.records[key]
        return float(stats[b]), int(rows[b])

    def hot(self, plan: tuple[_Size, ...], j: int, c: int) -> Iterator[tuple]:
        """(graph, row, count) blocks of the rows of plan size j whose count
        reaches c on each graph of the batch, graphs ascending.  The plan's
        last size k, where it extends the size below, is grown (_grown)
        where its candidates number at most 2^(1-k) of its table's entries:
        a k-set with e edges has a vertex of internal degree at most
        floor(2e/k) (the peeling step of greedy densest subgraph), so each
        of its rows that reaches c is a row of the size below with at least
        c - floor(2c/k) edges plus one vertex.  Any other size is read from
        its table (_hot_rows).  Growing beat counting the table up to about
        0.3-0.6 of the entries at k = 3, 0.2-0.3 at k = 4, 0.07-0.15 at
        k = 5 and 0.1 at k = 6 (n = 20-100, dense graphs against sparse
        means), the more hot rows a candidate yields the less."""
        size = plan[j]
        if j == len(plan) - 1 and size.starts is not None:
            k = size.rows.shape[1]
            table = self.table(plan, j - 1)
            light = table >= c - 2 * c // k
            if np.count_nonzero(light) * self.samples[0].n << (k - 1) <= table.shape[0] * len(
                    size.rows):
                return _grown(plan[j - 1], table, np.flatnonzero(light), self.adjacency, c)
        return _hot_rows(self.table(plan, j), c)


def _hot_rows(table: np.ndarray, c: int) -> Iterator[tuple]:
    """(graph, row, count) of the entries of a (B, m) count table that reach
    c, graphs ascending and rows ascending within a graph, in blocks of at
    most _BATCH_ROWS entries, so that a scoring pass holds the temporaries
    of one block, however many rows one graph has hot."""
    flat = np.flatnonzero(table >= c)
    for s in range(0, flat.size, _BATCH_ROWS):
        graph, rows = np.divmod(flat[s : s + _BATCH_ROWS], table.shape[1])
        yield graph, rows, table.reshape(-1)[flat[s : s + _BATCH_ROWS]]


def _grown(below: _Size, table: np.ndarray, parents: np.ndarray, adj: np.ndarray,
           c: int) -> Iterator[tuple]:
    """(graph, row, count) blocks of the k-sets, k one above below's size,
    with at least c >= 1 edges (a vertex of D is zeroed, not dropped) that
    grow from parents, the flat indices of entries of below's (B, m) count
    table on a batch whose adjacency rows are adj: the parent row D of
    graph b grown by each vertex v outside it, counted e(D + v) = e(D) +
    |N(v) & D|, a popcount of D's mask against v's row, at the row
    _insertion_ranks gives.  Graphs ascend.  A block grows at most max(1,
    _BATCH_BYTES // 16n) parents, so that the words it gathers from adj and
    their intersections with the masks take at most _BATCH_BYTES.  A k-set
    grows from each of its parents, so it may appear more than once, always
    with the same count."""
    k = below.rows.shape[1] + 1
    n = adj.shape[1]
    step = max(1, _BATCH_BYTES // (16 * n))
    for s in range(0, parents.size, step):
        graph, parent = np.divmod(parents[s : s + step], table.shape[1])
        masks = below.masks[parent]
        counts = np.add(table[graph, parent][:, None],
                        np.bitwise_count(masks[:, 0, None] & adj[graph, :, 0]),
                        dtype=_count_dtype(k * (k - 1) // 2))
        for w in range(1, adj.shape[2]):
            counts += np.bitwise_count(masks[:, w, None] & adj[graph, :, w])
        rows = below.rows[parent]
        counts[np.arange(len(rows))[:, None], rows] = 0  # v in D: not a k-set
        flat = np.flatnonzero(counts >= c)
        if flat.size:
            at, v = np.divmod(flat, n)
            yield graph[at], _insertion_ranks(n, rows[at], v), counts.reshape(-1)[flat]


def _fold(stats: np.ndarray, rows: np.ndarray, graph: np.ndarray, row: np.ndarray,
          scores: np.ndarray) -> None:
    """Folds a block of scores of rows row on graphs graph, ascending, into
    each graph's best, stats, and the smallest row scoring it, rows: a
    block's maximum replaces a smaller best, or an equal one held by a
    larger row.  A best of 0.0 keeps row 0."""
    ends = np.searchsorted(graph, np.arange(len(stats) + 1))
    at = ends[:-1][ends[:-1] < ends[1:]]  # the first entry of each graph in the block
    g = graph[at]
    top = np.zeros(len(stats))
    top[g] = np.maximum.reduceat(scores, at)
    first = np.minimum.reduceat(np.where(scores == top[graph], row, np.iinfo(np.int64).max), at)
    top = top[g]
    new = (top > stats[g]) | ((top == stats[g]) & (first < rows[g]))
    stats[g[new]], rows[g[new]] = top[new], first[new]
# the enclosing batch scope
_BATCH: ContextVar[_Batch | None] = ContextVar("_BATCH", default=None)


@contextmanager
def _batch(samples: Iterable[GraphSample]) -> Iterator[_Batch]:
    """A scope in which the scans and likelihood ratios of a sample in
    samples, graphs on one n, share one _Batch: each plan size's table, or
    a likelihood-ratio problem's logs, is computed once, for all of them,
    by the first call in the scope that needs it, and each call reads its
    sample's row.  Counts are exact, so every outcome is the one the call
    gives alone.  Yields the batch, whose tables, best rows, logs,
    adjacency rows and degrees are dropped on exit."""
    batch = _Batch(samples)
    token = _BATCH.set(batch)
    try:
        yield batch
    finally:
        _BATCH.reset(token)
        batch.tables.clear()
        batch.records.clear()
        batch.logs.clear()
        vars(batch).pop("adjacency", None)
        vars(batch).pop("degrees", None)


def _batch_graphs(config: ScanConfig, n: int) -> int:
    """The graphs per batch scope for scans by config on n vertices: as many
    as keep within _BATCH_BYTES their count tables, at most one entry per
    subset of the family in the dtype of its largest size, their packed
    triangles, which the scope's caller holds while it lasts, 16 bytes per
    size for its best row (_Batch.best) and, where the family has an
    extended size, their adjacency rows; at least one."""
    family = config.family or Exhaustive(1, config.r)
    lo, hi = family.size_range(n)
    per_graph = (family.count(n) * _count_dtype(hi * (hi - 1) // 2).itemsize
                 + (n * (n - 1) // 2 + 7) // 8 + 16 * (hi - lo + 1))
    if family._extended_sizes(n):
        per_graph += 8 * n * -(-n // 64)
    return max(1, _BATCH_BYTES // per_graph)


def _batch_of(sample: GraphSample) -> tuple[_Batch, int]:
    """The batch a scan or likelihood ratio of sample reads from, and
    sample's row in it: the enclosing batch scope's where sample is one of
    its samples, else a batch of one."""
    batch = _BATCH.get()
    if batch is None or sample not in batch.row:
        return _Batch([sample]), 0
    return batch, batch.row[sample]


def _run_plan(plan: tuple[_Size, ...], sample: GraphSample, keep_trace: bool,
              floor: float = 0.0) -> tuple[float, tuple[int, ...], dict | None]:
    """First strict maximum in plan order of the sizes' best rows on sample,
    each size scored once (_Batch.best), among the rows that score at least
    floor; the result is the full scan's wherever that maximum reaches floor.

    Only a row that scores above the running best (0.0 while keeping the
    trace, which records each size's own best; else the overall best, at
    least 0.0, which every row scores) and at least floor can change the
    outcome, so a size scores only the rows whose count its bound table
    does not rule out.  A size that has none is not scored, and stands as
    (0.0, 0), which is its exact best row whenever the outcome can take it;
    its counts are read only if a size that extends from it is scored.  A
    floor above 0.0 leaves out rows the full scan scores, so where no row
    reaches it the maximum returned is a lower bound on the full scan's,
    not the maximum itself.  With a floor, every size takes the batch's
    best rows at the floor's least count, one c for all its graphs, which
    differ from those at the running best's only where neither beats it."""
    batch, b = _batch_of(sample)
    best_stat = -math.inf
    best_subset: tuple[int, ...] | None = None
    trace: dict[int, tuple[float, tuple[int, ...]]] = {}
    for j, size in enumerate(plan):
        cut = 0.0 if keep_trace else max(best_stat, 0.0)
        # the first count whose bound is above cut and at least floor: a row
        # that scores exactly floor has a bound of at least floor
        reach = int(np.searchsorted(size.bound, floor, "left"))
        low = reach if floor > cut else int(np.searchsorted(size.bound, cut, "right"))
        if low >= len(size.bound):
            mx, i = 0.0, 0
        else:
            mx, i = batch.best(plan, j, reach if floor > 0.0 else low, b)
        if mx > best_stat or keep_trace:
            subset = tuple(int(v) for v in size.rows[i])
            if mx > best_stat:
                best_stat, best_subset = mx, subset
            if keep_trace:
                trace[size.rows.shape[1]] = (mx, subset)
    return best_stat, best_subset, (trace if keep_trace else None)


def _scan(sample: GraphSample, config: ScanConfig, model: EdgeProbabilityModel | None,
          k_min: int, threshold: float, keep_trace: bool, decide: bool) -> ScanOutcome:
    """Both scans: maximise the statistic over the family (by default every
    subset of sizes [k_min, r]) with a plan whose null means come from
    model, and reject at threshold; with decide, among the rows that reach
    the threshold only.  r must be below n and the family within sizes up
    to r; its size is checked against config.budget before any work."""
    if decide and keep_trace:
        raise ValidationError("decide=True scores only rows that can reach the threshold, "
                              "so it keeps no size trace")
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
    stat, subset, trace = _run_plan(_plan(family, n, model), sample, keep_trace,
                                    threshold if decide else 0.0)
    # the family's count is the sum of its plan's rows
    metadata = {"subsets_evaluated": count}
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
               keep_trace: bool = False, *, decide: bool = False) -> ScanOutcome:
    """Maximise the known-probability statistic over the family; reject when
    the maximum reaches 1 + eps/2.

    The family must stay within sizes [1, r].  The enumeration size is
    checked against config.budget before any work happens.

    decide=True scores only the rows that can reach the threshold, for a
    caller that reads only reject, which is then the full scan's.  Where
    the scan rejects, the whole outcome is the full scan's bit for bit;
    where it does not, statistic and subset are a lower bound on the
    maximum and a row scoring it, not the maximum.  It keeps no size trace
    (keep_trace=True raises ValidationError).
    """
    if model.n != sample.n:
        raise ValidationError(f"model has n={model.n} but sample has n={sample.n}")
    return _scan(sample, config, model, 1, 1.0 + config.epsilon / 2.0, keep_trace, decide)


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
    counts = _edge_counts([sample], d[None, :])[0]
    floor = _blind_floor(n, d.size)
    # a count at or below the floor is cold, and needs no degree sum
    if counts[0] <= floor:
        return 0.0
    means = _blind_means(float(sample.total_edges()), sample._degrees[d].sum(), counts, floor)
    return float(_scores(counts, means, _norm(n, d.size))[0])


def scan_unknown(sample: GraphSample, config: ScanConfig,
                 keep_trace: bool = False, *, decide: bool = False) -> ScanOutcome:
    """Maximise the blind statistic over sizes in [ceil(r^(1/3)), r];
    reject when the maximum reaches 1 + eps/3.

    Families reaching below the cube-root size floor are rejected: the
    mean estimate is not reliable there, and admitting those sizes would
    silently change the test's calibration.  decide is as for scan_known.
    """
    k_min = min_blind_size(config.r)
    if config.family is not None and (lo := config.family.size_range(sample.n)[0]) < k_min:
        raise ValidationError(
            f"family includes size {lo}, below the blind floor ceil(r^(1/3)) = {k_min}"
        )
    out = _scan(sample, config, None, k_min, 1.0 + config.epsilon / 3.0, keep_trace, decide)
    out.metadata["size_window"] = [k_min, config.r]
    return out
