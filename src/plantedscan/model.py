"""Inhomogeneous random graph models, planted alternatives, and samples.

A model assigns each unordered pair {i, j} an edge probability p_ij; under
the null every edge is an independent Bernoulli(p_ij).  A planted
alternative lifts the probabilities inside one vertex subset C to
rho * p_ij (so rho * p_ij <= 1 is part of the alternative's validity).

Samples store the adjacency upper triangle as packed bits in lexicographic
pair order, one uniform variate consumed per pair in that same order; this
makes a null sample and an alternative sample with rho = 1 bit-identical
for equal seeds.  The sampler draws its uniforms one block of pairs at a
time, each block compared with its pair probabilities in one call.  Vertex
counts are capped at 2**16: sampling holds one bool per pair, and edge
counting unpacks the triangle (n*(n-1)/2 bytes) on first use, which is the
practical memory ceiling of this design.  Exhaustive scans add packed
adjacency rows, n * ceil(n/64) uint64 words.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import BudgetError, ValidationError
from .seeding import generator

__all__ = [
    "MAX_VERTICES",
    "Homogeneous",
    "RankOne",
    "GeneralMatrix",
    "EdgeProbabilityModel",
    "PlantedAlternative",
    "GraphSample",
    "sample_null",
    "sample_alternative",
    "expected_edges_null",
    "expected_edges_across_null",
    "expected_total_null",
    "write_edge_list",
    "read_edge_list",
    "model_to_json",
    "model_from_json",
]

MAX_VERTICES = 1 << 16

_BATCH_ROWS = 1 << 15

# triangle positions decoded per block by GraphSample._edges
_PAIR_BLOCK = 1 << 20

# uniforms drawn per block by the sampler; blocks of _PAIR_BLOCK (8 MB of
# uniforms) sampled n = 8192 about 20% slower than 2^16 on a 2.1 GHz Xeon
_SAMPLE_BLOCK = 1 << 16

# characters of an edge list's body parsed per block by read_edge_list
_READ_BLOCK = 1 << 20


def _number(key: str, value, kind: type):
    """value as kind, int or float; anything else is a ValidationError."""
    allowed = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, allowed):
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"{key} must be {what}, got {value!r}")
    return kind(value)


def _check_vertex_count(n: int) -> int:
    n = _number("vertex count", n, int)
    if n < 1:
        raise ValidationError(f"vertex count must be >= 1, got {n}")
    if n > MAX_VERTICES:
        raise ValidationError(f"vertex count {n} exceeds the supported cap {MAX_VERTICES}")
    return n


def check_subset(n: int, subset: Iterable[int]) -> np.ndarray:
    """Sorted int64 array of distinct vertex ids in [0, n); ValidationError otherwise."""
    d = np.asarray(sorted(subset), dtype=np.int64)
    _check_rows(n, d[None, :])
    return d


def _check_rows(n: int, rows: np.ndarray) -> None:
    """Validate an (m, k) array of row-sorted subsets: the first bad row
    names its out-of-range vertex, or else its repeated one."""
    if rows.size == 0:
        return
    bad = (rows[:, 0] < 0) | (rows[:, -1] >= n)
    repeats = rows[:, 1:] == rows[:, :-1]
    bad |= repeats.any(axis=1)
    if not bad.any():
        return
    t = int(np.argmax(bad))
    d = rows[t]
    if d[0] < 0 or d[-1] >= n:
        raise ValidationError(f"vertex {d[0] if d[0] < 0 else d[-1]} out of range for n={n}")
    raise ValidationError(f"duplicate vertex {d[int(np.argmax(repeats[t]))]} in subset")


def _check_pair(n: int, i: int, j: int) -> None:
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValidationError(f"invalid vertex pair ({i}, {j}) for n={n}")


def _norm(n: int, k: int) -> float:
    """k ln(n/k): the normaliser of the scan statistic and of the search
    objective E0[e(D)] / (|D| ln(n/|D|))."""
    return k * math.log(n / k)


def _combination_tables(n: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(n) for k = lo..hi, one int32 (C(n, k), k)
    array per size, rows lexicographic.

    Only the first table is enumerated: C(n, k) below lo can exceed the
    whole range by orders of magnitude.  Each (k+1)-table is extended from
    the k-table as vertex a followed by each k-row whose first vertex
    exceeds a."""
    m = math.comb(n, lo)
    rows = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), lo)),
                       dtype=np.int32, count=m * lo).reshape(m, lo)
    yield rows
    for k in range(lo, hi):
        starts = _head_starts(n, rows)
        out = np.empty((sum(m - s for s in starts), k + 1), dtype=np.int32)
        at = 0
        for a, s in enumerate(starts):
            out[at : at + m - s, 0] = a
            out[at : at + m - s, 1:] = rows[s:]
            at += m - s
        rows, m = out, at
        yield rows


def _head_starts(n: int, rows: np.ndarray) -> tuple[int, ...]:
    """For each vertex a, the first row of a lexicographic table whose first
    vertex exceeds a: the rows that a heads in the next size's table."""
    return tuple(np.searchsorted(rows[:, 0], np.arange(1, n + 1)).tolist())


def _vertex_masks(n: int, rows: np.ndarray) -> np.ndarray:
    """(m, ceil(n/64)) uint64 vertex sets of an (m, k) array of subsets:
    vertex v is bit v % 64 of word v // 64, as in GraphSample's adjacency
    rows.  The temporaries are one column of _BATCH_ROWS rows at a time."""
    m = rows.shape[0]
    w = -(-n // 64)
    masks = np.zeros((m, w), dtype=np.uint64)
    flat = masks.reshape(-1)
    for s in range(0, m, _BATCH_ROWS):
        block = rows[s : s + _BATCH_ROWS]
        base = np.arange(s, s + len(block)) * w
        for v in block.T:
            flat[base + (v >> 6)] |= _bit(v)
    return masks


def _bit(v: np.ndarray) -> np.ndarray:
    """Vertex v's bit in its uint64 word, 1 << (v % 64)."""
    return np.uint64(1) << (v & 63).astype(np.uint64)


def _pair_index(n: int, i, j):
    """Position of the pair (i, j), i < j, in the packed lexicographic
    triangle; scalars or integer arrays."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


class EdgeProbabilityModel:
    """The null model as the scans and the likelihood ratio see it.

    Each model class supplies:
      pair_probability(i, j)  p_ij for integer arrays i, j (no checks);
      row_probabilities(i)    p_ij for j > i: the row segments that fill each
                              block of pairs the sampler draws (Homogeneous
                              compares every block with its scalar p);
      within_mean(rows)       E0[e(D)] for each row of an (m, k) array of
                              sorted subsets;
      across_mean(d)          E0[e(D, V \\ D)] for a sorted subset, 0 < |D| < n;
      max_within_mean(c, k, budget)  max of E0[e(D)] over D in C, |D| = k;
      optimal_subgraph(c, budget)    (subset, objective, mean) of the D in C
                              maximising E0[e(D)] / (|D| ln(n/|D|)), for a
                              sorted community with 0 < |C| < n;
      max_pair_within(d)      the largest p_ij inside a subset and its pair;
      to_json(matrix_path)    the descriptor model_from_json reads back.
    """

    def probability(self, i: int, j: int) -> float:
        _check_pair(self.n, i, j)
        return float(self.pair_probability(i, j))


def _prefix_order(weights: np.ndarray, members: np.ndarray) -> np.ndarray:
    # descending weight, ties by vertex id: stable sort on the negated key
    return members[np.argsort(-weights[members], kind="stable")]


def _best_prefix(weights: np.ndarray, members: np.ndarray,
                 denom: Callable[[int], float]) -> tuple[int, float, float, np.ndarray]:
    """argmax over k of prefix mean-edges / denom(k); ties to smaller k.

    Returns (k_star, objective, mean_edges, ordered_members)."""
    order = _prefix_order(weights, members)
    w = weights[order]
    # prefix means as sums of w_a * (w_0 + ... + w_{a-1}): every term is
    # positive, so nothing cancels when one weight dominates
    means = np.zeros(order.size)
    means[1:] = np.cumsum(w[1:] * np.cumsum(w)[:-1])
    objs = means / np.array([denom(k) for k in range(1, order.size + 1)])
    best = int(np.argmax(objs))  # the first maximum: ties go to the smaller prefix
    return best + 1, objs[best], means[best], order


@dataclass(frozen=True)
class Homogeneous(EdgeProbabilityModel):
    """Every pair has the same edge probability p."""

    n: int
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_vertex_count(self.n))
        p = _number("p", self.p, float)
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"p must lie in [0, 1], got {p}")
        object.__setattr__(self, "p", p)

    def pair_probability(self, i, j) -> np.ndarray:
        return np.full(np.broadcast(i, j).shape, self.p)

    def row_probabilities(self, i: int) -> np.ndarray:
        return np.full(self.n - 1 - i, self.p)

    def within_mean(self, rows: np.ndarray) -> np.ndarray:
        m, k = rows.shape
        return np.full(m, k * (k - 1) / 2 * self.p)

    def across_mean(self, d: np.ndarray) -> float:
        return d.size * (self.n - d.size) * self.p

    def max_within_mean(self, community: np.ndarray, k: int, budget: int) -> float:
        return k * (k - 1) / 2 * self.p

    def optimal_subgraph(self, community: np.ndarray,
                         budget: int) -> tuple[tuple[int, ...], float, float]:
        # objective p(k-1) / (2 ln(n/k)) is strictly increasing in k
        k = community.size
        mean = float(self.within_mean(community[None, :])[0])
        return tuple(int(v) for v in community), mean / _norm(self.n, k), mean

    def max_pair_within(self, subset: np.ndarray) -> tuple[float, tuple[int, int]]:
        return self.p, (int(subset[0]), int(subset[1]))

    def to_json(self, matrix_path: str | os.PathLike | None = None) -> dict:
        return {"variant": "homogeneous", "n": self.n, "p": self.p}


@dataclass(frozen=True, eq=False)
class RankOne(EdgeProbabilityModel):
    """p_ij = w_i * w_j for a weight vector with entries in (0, 1)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValidationError(f"weights must be one-dimensional, got shape {w.shape}")
        _check_vertex_count(w.size)
        if w.size and not (np.all(w > 0.0) and np.all(w < 1.0)):
            bad = int(np.argmin((w > 0.0) & (w < 1.0)))
            raise ValidationError(f"weights must lie in (0, 1); weights[{bad}] = {w[bad]}")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return int(self.weights.size)

    def pair_probability(self, i, j) -> np.ndarray:
        return self.weights[i] * self.weights[j]

    def row_probabilities(self, i: int) -> np.ndarray:
        return self.weights[i] * self.weights[i + 1 :]

    def within_mean(self, rows: np.ndarray) -> np.ndarray:
        # sum over columns a of w_a * (w_0 + ... + w_{a-1}): every term is
        # positive, so nothing cancels when one weight dominates
        w = self.weights[rows]
        acc = np.zeros(rows.shape[0])
        prefix = np.zeros(rows.shape[0])
        for a in range(1, rows.shape[1]):
            prefix += w[:, a - 1]
            acc += w[:, a] * prefix
        return acc

    def across_mean(self, d: np.ndarray) -> float:
        s = float(self.weights[d].sum())
        return s * (float(self.weights.sum()) - s)

    def max_within_mean(self, community: np.ndarray, k: int, budget: int) -> float:
        # the k heaviest members maximise the mean
        heaviest = _prefix_order(self.weights, community)[:k]
        return float(self.within_mean(np.sort(heaviest)[None, :])[0])

    def optimal_subgraph(self, community: np.ndarray,
                         budget: int) -> tuple[tuple[int, ...], float, float]:
        # only the |C| weight-sorted prefixes compete: swapping a member for
        # a heavier outsider never lowers the numerator, nor moves |D|
        k, obj, mean, order = _best_prefix(self.weights, community,
                                           lambda k: _norm(self.n, k))
        return tuple(sorted(int(v) for v in order[:k])), obj, mean

    def max_pair_within(self, subset: np.ndarray) -> tuple[float, tuple[int, int]]:
        order = subset[np.argsort(self.weights[subset], kind="stable")]
        a, b = int(order[-1]), int(order[-2])
        if a > b:
            a, b = b, a
        return float(self.weights[a] * self.weights[b]), (a, b)

    def to_json(self, matrix_path: str | os.PathLike | None = None) -> dict:
        return {"variant": "rank_one", "weights": [float(w) for w in self.weights]}


@dataclass(frozen=True, eq=False)
class GeneralMatrix(EdgeProbabilityModel):
    """Arbitrary symmetric probability matrix with zero diagonal.

    The matrix must be exactly symmetric; build it as (M + M.T) / 2 first
    if it comes out of a non-symmetric computation.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"matrix must be square, got shape {m.shape}")
        _check_vertex_count(m.shape[0])
        if not np.array_equal(m, m.T):
            raise ValidationError("matrix must be exactly symmetric")
        if np.any(np.diagonal(m) != 0.0):
            bad = int(np.argmax(np.diagonal(m) != 0.0))
            raise ValidationError(f"diagonal must be zero, got matrix[{bad},{bad}] = {m[bad, bad]}")
        if np.any(m < 0.0) or np.any(m > 1.0):
            i, j = np.unravel_index(int(np.argmax((m < 0.0) | (m > 1.0))), m.shape)
            raise ValidationError(f"entries must lie in [0, 1], got matrix[{i},{j}] = {m[i, j]}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    def pair_probability(self, i, j) -> np.ndarray:
        return self.matrix[i, j]

    def row_probabilities(self, i: int) -> np.ndarray:
        return self.matrix[i, i + 1 :]

    def within_mean(self, rows: np.ndarray) -> np.ndarray:
        # the pairs are added one at a time in lexicographic order
        m, k = rows.shape
        acc = np.zeros(m)
        for a in range(k - 1):
            block = self.matrix[rows[:, a, None], rows[:, a + 1 :]]
            block[:, 0] += acc
            acc = np.add.accumulate(block, axis=1)[:, -1]
        return acc

    def across_mean(self, d: np.ndarray) -> float:
        return float(self.matrix[np.ix_(d, np.delete(np.arange(self.n), d))].sum())

    def max_within_mean(self, community: np.ndarray, k: int, budget: int) -> float:
        count = math.comb(community.size, k)
        if count > budget:
            raise BudgetError(
                f"size-{k} search over C({community.size},{k}) = {count} subsets "
                f"exceeds the audit budget {budget}"
            )
        # positions into the community: 4k bytes per row, the only table of
        # full size; vertex ids are gathered one slice at a time
        table = next(_combination_tables(community.size, k, k))
        best = 0.0
        for s in range(0, count, _BATCH_ROWS):
            best = max(best, float(self.within_mean(community[table[s : s + _BATCH_ROWS]]).max()))
        return best

    def optimal_subgraph(self, community: np.ndarray,
                         budget: int) -> tuple[tuple[int, ...], float, float]:
        # every one of the 2^|C| - 1 subsets, as bit masks over the community
        r = community.size
        count = (1 << r) - 1
        if count > budget:
            raise BudgetError(
                f"general-model search needs {count} subsets, over the budget {budget}"
            )
        sub = self.matrix[np.ix_(community, community)]
        # mean[mask] = mean[mask minus its lowest bit i] plus sub[i, j] summed
        # over the other bits j in ascending order, which the subset sums of
        # sub[i, i+1:] give when doubled in ascending bit order
        mean = np.zeros(1 << r)
        for i in range(r - 1, -1, -1):
            sums = np.zeros(1)
            for j in range(i + 1, r):
                sums = np.concatenate([sums, sums + sub[i, j]])
            rest = np.arange(sums.size) << (i + 1)
            mean[rest | 1 << i] = mean[rest] + sums
        k = np.bitwise_count(np.arange(1, 1 << r))
        denom = np.array([_norm(self.n, s) for s in range(1, r + 1)])
        obj = mean[1:] / denom[k - 1]
        # largest objective, then fewest vertices, then smallest mask
        tied = np.flatnonzero(obj == obj.max())
        best = int(tied[np.argmin(k[tied])])
        mask = best + 1
        subset = tuple(int(community[i]) for i in range(r) if mask >> i & 1)
        return subset, obj[best], float(mean[mask])

    def max_pair_within(self, subset: np.ndarray) -> tuple[float, tuple[int, int]]:
        sub = self.matrix[np.ix_(subset, subset)]
        k = subset.size
        iu, ju = np.triu_indices(k, 1)
        best = int(np.argmax(sub[iu, ju]))
        a, b = int(subset[iu[best]]), int(subset[ju[best]])
        return float(sub[iu[best], ju[best]]), (a, b)

    def to_json(self, matrix_path: str | os.PathLike | None = None) -> dict:
        if matrix_path is None:
            return {"variant": "general", "matrix": [[float(x) for x in row] for row in self.matrix]}
        path = str(matrix_path)
        if not path.endswith(".npy"):
            path += ".npy"
        np.save(path, np.asarray(self.matrix))
        return {"variant": "general", "matrix_path": path}


@dataclass(frozen=True)
class PlantedAlternative:
    """A community C and its multiplicative edge-density lift rho >= 1.

    Validity against the model (rho * p_ij <= 1 for every pair inside C)
    is checked eagerly at construction; the error names the worst pair.
    """

    community: tuple[int, ...]
    rho: float
    model: EdgeProbabilityModel

    def __post_init__(self) -> None:
        c = check_subset(self.model.n, self.community)
        if c.size < 2:
            raise ValidationError(f"community must have at least 2 vertices, got {c.size}")
        rho = _number("rho", self.rho, float)
        if not (rho >= 1.0 and math.isfinite(rho)):
            raise ValidationError(f"rho must be finite and >= 1, got {rho}")
        p_max, pair = self.model.max_pair_within(c)
        if rho * p_max > 1.0:
            raise ValidationError(
                f"rho * p exceeds 1 inside the community: rho={rho}, "
                f"p[{pair[0]},{pair[1]}]={p_max} gives {rho * p_max}"
            )
        object.__setattr__(self, "community", tuple(int(v) for v in c))
        object.__setattr__(self, "rho", rho)

    @property
    def r(self) -> int:
        return len(self.community)


@dataclass(frozen=True, eq=False)
class GraphSample:
    """One sampled graph: packed upper-triangle bits plus provenance.

    hypothesis is "null", "planted", or "imported"; planted samples carry
    the community and rho they were drawn under.  sampler records which
    bitstream produced the graph ("dense-lexicographic" for the samplers
    here, "file-import" for read_edge_list).
    """

    n: int
    packed: np.ndarray
    seed: int | None
    hypothesis: str
    sampler: str = "dense-lexicographic"
    planted_community: tuple[int, ...] | None = None
    planted_rho: float | None = None

    def __post_init__(self) -> None:
        packed = np.asarray(self.packed, dtype=np.uint8)
        expected = (self.pair_count + 7) // 8
        if packed.size != expected:
            raise ValidationError(
                f"packed triangle has {packed.size} bytes, expected {expected} for n={self.n}"
            )
        packed = packed.copy()
        packed.flags.writeable = False
        object.__setattr__(self, "packed", packed)

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    @cached_property
    def _tri(self) -> np.ndarray:
        # full unpacked triangle; n*(n-1)/2 bytes, the documented memory cost
        bits = np.unpackbits(self.packed, count=self.pair_count)
        bits = bits.view(bool)
        bits.flags.writeable = False
        return bits

    @cached_property
    def _row_offsets(self) -> np.ndarray:
        i = np.arange(self.n, dtype=np.int64)
        return _pair_index(self.n, i, i + 1)

    def _edges(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(i, j) arrays of the edges, i < j, in lexicographic order; one
        pair of arrays per _PAIR_BLOCK triangle positions."""
        off = self._row_offsets
        for start in range(0, self.pair_count, _PAIR_BLOCK):
            pos = np.flatnonzero(self._tri[start : start + _PAIR_BLOCK]) + start
            i = np.searchsorted(off, pos, side="right") - 1
            yield i, pos - off[i] + i + 1

    @cached_property
    def _degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for i, j in self._edges():
            deg += np.bincount(i, minlength=self.n)
            deg += np.bincount(j, minlength=self.n)
        deg.flags.writeable = False
        return deg

    @cached_property
    def _adjacency_rows(self) -> np.ndarray:
        """(n, ceil(n/64)) uint64: row i holds the neighbours of i, vertex j
        at bit j % 64 of word j // 64; n^2/8 bytes, set edge by edge."""
        w = -(-self.n // 64)
        flat = np.zeros(self.n * w, dtype=np.uint64)
        for i, j in self._edges():
            for a, b in ((i, j), (j, i)):
                np.bitwise_or.at(flat, a * w + (b >> 6), _bit(b))
        rows = flat.reshape(self.n, w)
        rows.flags.writeable = False
        return rows

    def _edges_within_rows(self, rows: np.ndarray) -> np.ndarray:
        """e(D) for every row of an (m, k) array of row-sorted subsets."""
        tri = self._tri
        off = self._row_offsets
        m, k = rows.shape
        counts = np.zeros(m, dtype=np.int64)
        for a in range(k - 1):
            ia = rows[:, a]
            base = off[ia] - ia - 1
            for b in range(a + 1, k):
                counts += tri[base + rows[:, b]]
        return counts

    def pair_index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        _check_pair(self.n, i, j)
        return int(_pair_index(self.n, i, j))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self._tri[self.pair_index(i, j)])

    @cached_property
    def _edge_total(self) -> int:
        return int(np.bitwise_count(self.packed).sum())

    def total_edges(self) -> int:
        return self._edge_total

    def edges_within(self, subset: Iterable[int]) -> int:
        """Number of edges with both endpoints in the subset."""
        d = check_subset(self.n, subset)
        return int(self._edges_within_rows(d[None, :])[0])

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValidationError(f"vertex {v} out of range for n={self.n}")
        return int(self._degrees[v])

    def edges_across(self, subset: Iterable[int]) -> int:
        """Number of edges with exactly one endpoint in the subset."""
        d = check_subset(self.n, subset)
        return int(self._degrees[d].sum()) - 2 * int(self._edges_within_rows(d[None, :])[0])

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric boolean adjacency; refuses n > 8192 (use the
        counting methods at larger sizes)."""
        if self.n > 8192:
            raise ValidationError(
                f"adjacency_matrix would allocate {self.n}x{self.n}; "
                "use edges_within/edges_across instead"
            )
        m = np.zeros((self.n, self.n), dtype=bool)
        for i, j in self._edges():
            m[i, j] = True
            m[j, i] = True
        return m


def _pack(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits.view(np.uint8))


def _probability_blocks(model: EdgeProbabilityModel,
                        pairs: int) -> Iterator[tuple[int, int, float | np.ndarray]]:
    """(s, e, p) for each _SAMPLE_BLOCK triangle positions [s, e), with p
    the p_ij of those positions: Homogeneous's scalar p, else one reused
    block buffer filled row segment by row segment from row_probabilities,
    so no array of all the pairs is ever built."""
    if isinstance(model, Homogeneous):
        for s in range(0, pairs, _SAMPLE_BLOCK):
            yield s, min(s + _SAMPLE_BLOCK, pairs), model.p
        return
    n = model.n
    buf = np.empty(min(_SAMPLE_BLOCK, pairs))
    i, start = 0, 0  # the row holding position s, and the row's first position
    for s in range(0, pairs, _SAMPLE_BLOCK):
        e = min(s + _SAMPLE_BLOCK, pairs)
        at = s
        while at < e:
            end = start + n - 1 - i
            hi = min(e, end)
            buf[at - s : hi - s] = model.row_probabilities(i)[at - start : hi - start]
            at = hi
            if hi == end:
                i, start = i + 1, end
        yield s, e, buf[: e - s]


def _sample_triangle(model: EdgeProbabilityModel, seed: int,
                     alt: PlantedAlternative | None) -> np.ndarray:
    """The sampled triangle as bools in packed pair order: pair t is an edge
    when the t-th uniform of the seed's stream is below its p_ij, or below
    rho * p_ij inside a planted community."""
    if _number("seed", seed, int) < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    n = model.n
    pairs = n * (n - 1) // 2
    rng = generator(seed)
    bits = np.empty(pairs, dtype=bool)
    if alt is not None:
        c = np.asarray(alt.community, dtype=np.int64)
        a, b = np.triu_indices(c.size, 1)
        pos = _pair_index(n, c[a], c[b])  # ascending: c is sorted
        lifted = model.pair_probability(c[a], c[b]) * alt.rho
    # with PCG64, random(a) then random(b) draws what random(a + b) does, so
    # the block size leaves the stream as it was
    for s, e, p in _probability_blocks(model, pairs):
        u = rng.random(e - s)
        np.less(u, p, out=bits[s:e])
        if alt is not None:
            lo, hi = np.searchsorted(pos, (s, e))
            at = pos[lo:hi]
            bits[at] = u[at - s] < lifted[lo:hi]
    return bits


def sample_null(model: EdgeProbabilityModel, seed: int) -> GraphSample:
    """Draw one null graph; one uniform per pair in lexicographic order."""
    bits = _sample_triangle(model, seed, None)
    return GraphSample(model.n, _pack(bits), seed, "null")


def sample_alternative(model: EdgeProbabilityModel,
                       alt: PlantedAlternative,
                       seed: int) -> GraphSample:
    """Draw one graph with the community planted; shares the null's uniform
    stream, so rho = 1 reproduces the null sample bit for bit."""
    if alt.model is not model:
        # rebind: re-validates rho * p <= 1 against the model actually sampled
        alt = PlantedAlternative(alt.community, alt.rho, model)
    bits = _sample_triangle(model, seed, alt)
    return GraphSample(model.n, _pack(bits), seed, "planted",
                       planted_community=alt.community, planted_rho=alt.rho)


# -- null expectations --------------------------------------------------------


def expected_edges_null(model: EdgeProbabilityModel, subset: Iterable[int]) -> float:
    """E[edges inside the subset] under the null."""
    d = check_subset(model.n, subset)
    return float(model.within_mean(d[None, :])[0])


def expected_edges_across_null(model: EdgeProbabilityModel, subset: Iterable[int]) -> float:
    """E[edges with exactly one endpoint in the subset] under the null."""
    d = check_subset(model.n, subset)
    if d.size == 0 or d.size == model.n:
        return 0.0
    return model.across_mean(d)


def expected_total_null(model: EdgeProbabilityModel) -> float:
    """E[total edge count] under the null."""
    return float(model.within_mean(np.arange(model.n)[None, :])[0])


# -- interchange formats ------------------------------------------------------


def write_edge_list(sample: GraphSample, path: str | os.PathLike) -> None:
    """Text format: first line "n m", then one "i j" line per edge with
    0 <= i < j < n in lexicographic order."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{sample.n} {sample.total_edges()}\n")
        for i, j in sample._edges():
            fh.write(("%d %d\n" * i.size) % tuple(np.stack((i, j), axis=1).ravel().tolist()))


def _edge_block(body: str, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(heads, tails) of whole lines exactly as write_edge_list writes them,
    one "i j\\n" line of decimal digits per edge with 0 <= i < j < n, parsed
    as arrays; None for any other text."""
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    digit = raw - np.uint8(ord("0")) < 10
    ends = np.flatnonzero(~digit)  # one past each token
    sep = raw[ends]
    if sep.size % 2 or (sep[0::2] != ord(" ")).any() or (sep[1::2] != ord("\n")).any():
        return None
    length = np.diff(ends, prepend=-1) - 1
    # an empty token, or more digits than int64 holds
    if ends.size and (length.min() < 1 or length.max() > 18):
        return None
    # with count the result is allocated once rather than grown while parsing
    v = np.fromstring(body, dtype=np.int64, count=ends.size, sep=" ")
    heads, tails = v[0::2], v[1::2]
    if not ((heads < tails) & (tails < n)).all():
        return None
    return heads, tails


def _edge_array(fh: TextIO, n: int, bits: np.ndarray) -> int | None:
    """Set the bit of each line of the rest of fh, parsed _READ_BLOCK characters
    at a time by _edge_block: the number of lines, or None unless it accepts all."""
    lines = 0
    rest = ""
    while text := fh.read(_READ_BLOCK):
        text = rest + text
        cut = text.rfind("\n") + 1
        edges = _edge_block(text[:cut], n) if cut else None
        if edges is None:
            return None
        bits[_pair_index(n, *edges)] = True
        lines += edges[0].size
        rest = text[cut:]
    if rest:  # an unterminated last line
        return None
    return lines


def _edge_lines(lines: Iterable[str], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(heads, tails) of "i j" edge lines read one at a time; a malformed
    line or a pair out of order is a ValidationError naming the first."""
    heads, tails = array("q"), array("q")
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValidationError(f"malformed edge line {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValidationError(f"malformed edge line {line!r}: {exc}") from exc
        if not (0 <= i < j < n):
            raise ValidationError(f"edge ({i}, {j}) violates 0 <= i < j < n={n}")
        heads.append(i)
        tails.append(j)
    return np.frombuffer(heads, dtype=np.int64), np.frombuffer(tails, dtype=np.int64)


def _edge_positions(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Packed-triangle positions of the edges; a pair listed twice is a
    ValidationError."""
    idx = _pair_index(n, heads, tails)
    ordered = np.sort(idx)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        t = int(np.argmax(idx == repeated[0]))
        raise ValidationError(f"edge ({heads[t]}, {tails[t]}) is listed more than once")
    return idx


def read_edge_list(path: str | os.PathLike) -> GraphSample:
    """Inverse of write_edge_list; the result carries hypothesis "imported".
    Any fault in reading the file is a ValidationError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            try:
                n, m = (int(v) for v in header)
            except ValueError as exc:
                raise ValidationError(f"malformed header {header!r}; expected 'n m'") from exc
            _check_vertex_count(n)
            bits = np.zeros(n * (n - 1) // 2, dtype=bool)
            if (count := _edge_array(fh, n, bits)) != np.count_nonzero(bits):
                # a line it rejects (None) or a repeated pair: read again line by
                # line, naming the first fault; the bits set so far stay right
                fh.seek(0)
                fh.readline()
                idx = _edge_positions(n, *_edge_lines(fh, n))
                bits[idx] = True
                count = idx.size
    except UnicodeDecodeError as exc:
        raise ValidationError(f"edge list {path} is not ASCII text") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read edge list {path}: {exc.strerror}") from exc
    if count != m:
        raise ValidationError(f"header claims {m} edges, file has {count}")
    return GraphSample(n, _pack(bits), None, "imported", sampler="file-import")


def _format_cell(value) -> str:
    """One CSV cell: lowercase booleans, floats at 12 significant digits,
    None as an empty cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def write_csv(columns: Sequence[str], rows: Iterable[Sequence],
              out: str | os.PathLike | TextIO) -> None:
    """The one CSV writer (CLI results, sweeps, boundary surfaces): a
    "#schema=1" line, the header, then one line per row.  out is a path or
    an open text stream; equal rows give equal bytes."""
    own = isinstance(out, (str, os.PathLike))
    opened = open(out, "w", newline="", encoding="utf-8") if own else contextlib.nullcontext(out)
    with opened as fh:
        fh.write("#schema=1\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_format_cell(v) for v in row] for row in rows)


def _read_json(path: str | os.PathLike, what: str) -> dict:
    """The one JSON reader: the object in the file at path, else a ValidationError naming it."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValidationError(f"{what} must be an object or a path, got {type(path).__name__}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return raw


def _write_json(payload, out: str | os.PathLike | TextIO) -> None:
    """The one JSON writer: one space of indent, sorted keys and a final
    newline, to a path or an open text stream."""
    own = isinstance(out, (str, os.PathLike))
    with open(out, "w", encoding="utf-8") if own else contextlib.nullcontext(out) as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def model_to_json(model: EdgeProbabilityModel,
                  matrix_path: str | os.PathLike | None = None) -> dict:
    """JSON-compatible descriptor.  General matrices are stored inline as
    nested lists unless matrix_path is given, in which case the matrix is
    saved there as .npy and referenced by path."""
    return model.to_json(matrix_path)


def model_from_json(source: dict | str | os.PathLike) -> EdgeProbabilityModel:
    """Rebuild a model from a descriptor dict or a path to a JSON file."""
    if not isinstance(source, dict):
        source = _read_json(source, "model descriptor")
    if "variant" not in source:
        raise ValidationError("model descriptor must be an object with a 'variant' key")
    variant = source["variant"]
    try:
        if variant == "homogeneous":
            return Homogeneous(source["n"], source["p"])
        if variant == "rank_one":
            return RankOne(np.asarray(source["weights"], dtype=np.float64))
        if variant == "general":
            if "matrix_path" in source:
                return GeneralMatrix(np.load(source["matrix_path"]))
            return GeneralMatrix(np.asarray(source["matrix"], dtype=np.float64))
    except KeyError as exc:
        raise ValidationError(f"model descriptor missing key {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read the {variant!r} model descriptor: {exc}") from exc
    raise ValidationError(f"unknown model variant {variant!r}")
