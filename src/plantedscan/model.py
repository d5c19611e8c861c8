"""Inhomogeneous random graph models, planted alternatives, and samples.

A model assigns each unordered pair {i, j} an edge probability p_ij; under
the null every edge is an independent Bernoulli(p_ij).  A planted
alternative lifts the probabilities inside one vertex subset C to
rho * p_ij (so rho * p_ij <= 1 is part of the alternative's validity).

Samples store the adjacency upper triangle as packed bits in lexicographic
pair order, one uniform variate consumed per pair in that same order; this
makes a null sample and an alternative sample with rho = 1 bit-identical
for equal seeds.  The sampler draws its uniforms one block of pairs at a
time, each block compared with its pair probabilities in one call and
packed straight into the sample's bytes, its only edge store (n*(n-1)/16
bytes).  A model without a scalar p whose triangle fits one block (n <= 362)
keeps its pair probabilities, at most 512 kB, from its first sample on.
Vertex counts are capped at 2**16.  Exhaustive scans add packed adjacency
rows, n * ceil(n/64) uint64 words.
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
    """Sorted int64 array of distinct vertex ids in [0, n); ValidationError otherwise.

    A one-dimensional integer array is taken as it is; any other iterable
    vertex by vertex, each an integer (not a bool, a float or a string)."""
    if isinstance(subset, np.ndarray) and subset.ndim == 1 and subset.dtype.kind in "iu":
        d = np.sort(subset.astype(np.int64))
    else:
        try:
            d = np.array(sorted(_number("subset vertex", v, int) for v in subset), np.int64)
        except TypeError:
            msg = f"subset must be an iterable of vertex ids, got {subset!r}"
            raise ValidationError(msg) from None
        except OverflowError:
            msg = f"subset {subset!r} has a vertex out of range for n={n}"
            raise ValidationError(msg) from None
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


def _combination_tables(n: int, lo: int, hi: int) -> Iterator[tuple]:
    """The k-subsets of range(n) for k = lo..hi, one int32 (C(n, k), k)
    array per size, rows lexicographic, each with its head starts.

    Only the first table is enumerated (its starts are None): C(n, k) below
    lo can exceed the whole range by orders of magnitude.  Each (k+1)-table
    is extended from the k-table as vertex a followed by the k-rows from
    starts[a] on, the first k-row whose first vertex exceeds a."""
    m = math.comb(n, lo)
    rows = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), lo)),
                       dtype=np.int32, count=m * lo).reshape(m, lo)
    yield rows, None
    for k in range(lo, hi):
        starts = tuple(np.searchsorted(rows[:, 0], np.arange(1, n + 1)).tolist())
        out = np.empty((sum(m - s for s in starts), k + 1), dtype=np.int32)
        at = 0
        for a, s in enumerate(starts):
            out[at : at + m - s, 0] = a
            out[at : at + m - s, 1:] = rows[s:]
            at += m - s
        rows, m = out, at
        yield rows, starts


def _vertex_masks(n: int, rows: np.ndarray) -> np.ndarray:
    """(m, ceil(n/64)) uint64 vertex sets of an (m, k) array of subsets:
    vertex v is bit v % 64 of word v // 64, as in _adjacency_stack's rows.
    The temporaries are one column of _BATCH_ROWS rows at a time."""
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


def _pair_positions(n: int, rows: np.ndarray, a, b) -> np.ndarray:
    """int64 triangle positions of the pairs (rows[:, a], rows[:, b]) of an
    (m, k) array of row-sorted subsets, a and b column indices (arrays or
    slices) with a < b, broadcast against each other."""
    return _pair_index(n, rows[:, a].astype(np.int64, copy=False), rows[:, b])


def _count_dtype(pairs: int) -> np.dtype:
    """The dtype of edge counts over at most pairs pairs: the narrowest
    unsigned one that holds pairs (uint8 up to 255, uint16 up to 65,535)."""
    return np.min_scalar_type(pairs)


def _bit_address(pos):
    """(byte, shift) of triangle positions pos, an integer or an integer
    array, in a packed triangle, which np.packbits lays out with position t
    at bit 7 - t % 8 of byte t // 8: the bit is packed[byte] >> shift & 1,
    the uint8 shift taken from the low byte of pos."""
    return pos >> 3, ~np.asarray(pos).astype(np.uint8) & 7


def _set_bits(packed: np.ndarray, pos: np.ndarray) -> None:
    """Set the bits at triangle positions pos of a packed triangle in place."""
    np.bitwise_or.at(packed, pos >> 3, (0x80 >> (pos & 7)).astype(np.uint8))


class EdgeProbabilityModel:
    """The null model as the scans and the likelihood ratio see it.

    Each model class supplies:
      pair_probability(i, j)  p_ij for integer arrays i, j (no checks);
      row_probabilities(i)    p_ij for j > i: the row segments that fill each
                              block of pairs the sampler draws (Homogeneous
                              compares every block with its scalar p), through
                              _fill_row, which a model may override to write
                              a segment without building the row;
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

    def _fill_row(self, i: int, lo: int, hi: int, out: np.ndarray) -> None:
        """Write row_probabilities(i)[lo:hi] into out."""
        out[...] = self.row_probabilities(i)[lo:hi]

    @cached_property
    def _triangle_probabilities(self) -> np.ndarray:
        """p_ij of every pair in triangle order, read-only: kept by a model
        whose triangle the sampler draws as one block (at most _SAMPLE_BLOCK
        floats), so that each sample reads it rather than refilling it."""
        pairs = self.n * (self.n - 1) // 2
        p = next(_row_fill(self, pairs, pairs))[2]
        p.flags.writeable = False
        return p


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

    def _fill_row(self, i: int, lo: int, hi: int, out: np.ndarray) -> None:
        np.multiply(self.weights[i], self.weights[i + 1 + lo : i + 1 + hi], out=out)

    def within_mean(self, rows: np.ndarray) -> np.ndarray:
        # sum over columns a of w_a * (w_0 + ... + w_{a-1}): every term is
        # positive, so nothing cancels when one weight dominates; both sums
        # are accumulated left to right, one column at a time
        if rows.shape[1] < 2:
            return np.zeros(rows.shape[0])
        w = self.weights[rows]
        terms = np.cumsum(w[:, :-1], axis=1)
        terms *= w[:, 1:]
        return np.add.accumulate(terms, axis=1, out=terms)[:, -1]

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
        table = next(_combination_tables(community.size, k, k))[0]
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

    packed, the graph's only edge store, holds the n(n-1)/2 pairs in
    lexicographic order as np.packbits lays them out, zero past the last
    pair.  hypothesis is "null", "planted", or "imported"; planted samples
    carry the community and rho they were drawn under.  sampler records
    which bitstream produced the graph ("dense-lexicographic" for the
    samplers here, "file-import" for read_edge_list).
    """

    n: int
    packed: np.ndarray
    seed: int | None
    hypothesis: str
    sampler: str = "dense-lexicographic"
    planted_community: tuple[int, ...] | None = None
    planted_rho: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_vertex_count(self.n))
        raw = np.asarray(self.packed)
        expected = (self.pair_count + 7) // 8
        if raw.shape != (expected,):
            raise ValidationError(
                f"packed triangle has shape {raw.shape}, expected ({expected},) for n={self.n}")
        if raw.size and raw.dtype != np.uint8 and (
                raw.dtype.kind not in "biu" or raw.min() < 0 or raw.max() > 255):
            raise ValidationError("packed triangle must hold byte values 0..255")
        packed = raw.astype(np.uint8)
        if self.pair_count % 8 and packed[-1] & (0xFF >> self.pair_count % 8):
            raise ValidationError(f"packed triangle sets bits past its {self.pair_count} pairs")
        packed.flags.writeable = False
        object.__setattr__(self, "packed", packed)

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    def _edges(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(i, j) arrays of the edges, i < j, in lexicographic order; one
        pair of arrays per _PAIR_BLOCK triangle positions, unpacked one by
        one, each only in its nonzero 64-bit words."""
        i = np.arange(self.n, dtype=np.int64)
        off = _pair_index(self.n, i, i + 1)  # the position of each row's first pair
        for start in range(0, self.pair_count, _PAIR_BLOCK):
            stop = min(start + _PAIR_BLOCK, self.pair_count)
            raw = self.packed[start >> 3 : (stop + 7) >> 3]
            if raw.size % 8:  # zero padding to whole words
                raw = np.concatenate((raw, np.zeros(-raw.size % 8, dtype=np.uint8)))
            words = raw.view(np.uint64)
            nz = np.flatnonzero(words)
            hit = np.flatnonzero(np.unpackbits(words[nz].view(np.uint8)).view(bool))
            pos = nz[hit >> 6] * 64 + (hit & 63) + (start & ~7)
            # the bytes hold bits of the blocks beside this one only where a
            # block edge is not on a byte; past the last pair every bit is 0
            if start & 7 or (stop & 7 and stop < self.pair_count):
                pos = pos[(pos >= start) & (pos < stop)]
            i = np.searchsorted(off, pos, side="right") - 1
            yield i, pos - off[i] + i + 1

    @cached_property
    def _degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for i, j in self._edges():
            deg += np.bincount(np.concatenate((i, j)), minlength=self.n)
        deg.flags.writeable = False
        return deg

    def pair_index(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        _check_pair(self.n, i, j)
        return int(_pair_index(self.n, i, j))

    def has_edge(self, i: int, j: int) -> bool:
        byte, shift = _bit_address(self.pair_index(i, j))
        return bool(self.packed[byte] >> shift & 1)

    @cached_property
    def _edge_total(self) -> int:
        return int(np.bitwise_count(self.packed).sum())

    def total_edges(self) -> int:
        return self._edge_total

    def edges_within(self, subset: Iterable[int]) -> int:
        """Number of edges with both endpoints in the subset."""
        d = check_subset(self.n, subset)
        return int(_edge_counts([self], d[None, :])[0, 0])

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValidationError(f"vertex {v} out of range for n={self.n}")
        return int(self._degrees[v])

    def edges_across(self, subset: Iterable[int]) -> int:
        """Number of edges with exactly one endpoint in the subset."""
        d = check_subset(self.n, subset)
        return int(self._degrees[d].sum()) - 2 * int(_edge_counts([self], d[None, :])[0, 0])

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


def _edge_counts(samples: list[GraphSample], rows: np.ndarray) -> np.ndarray:
    """The (B, m) table of e(D) of every row of an (m, k) array of row-sorted
    subsets on each of B samples on one n, in dtype _count_dtype(C(k, 2)).
    The rows' pairs are read in blocks of at most _PAIR_BLOCK positions: at
    most _BATCH_ROWS rows (or one row) at a time, the pair columns (a, b),
    a < b, _PAIR_BLOCK // k head columns a at a time so that no block grows
    as k^2.  Each block's positions, byte indices and bit shifts are computed
    once and gathered from every sample.  The blocks' counts of a row add up
    to at most C(k, 2), so they sum in that dtype without wrapping."""
    m, k = rows.shape
    dtype = _count_dtype(k * (k - 1) // 2)
    counts = np.zeros((len(samples), m), dtype=dtype)
    v = np.arange(k)
    heads_per = max(1, _PAIR_BLOCK // max(k, 1))
    for h in range(0, k - 1, heads_per):
        a, b = np.nonzero(v[h : h + heads_per, None] < v)  # lexicographic
        a += h
        step = max(1, min(_BATCH_ROWS, _PAIR_BLOCK // a.size))
        for s in range(0, m, step):
            pos = _pair_positions(samples[0].n, rows[s : s + step], a, b)
            byte, shift = _bit_address(pos)
            for out, sample in zip(counts, samples):
                out[s : s + step] += (sample.packed[byte] >> shift & 1).sum(axis=1, dtype=dtype)
    return counts


def _adjacency_stack(samples: list[GraphSample]) -> np.ndarray:
    """(B, n, ceil(n/64)) uint64 adjacency rows of B samples on one n: row i
    of sample b holds the neighbours of i, vertex j at bit j % 64 of word
    j // 64; B n^2/8 bytes, set edge by edge."""
    n = samples[0].n
    w = -(-n // 64)
    flat = np.zeros(len(samples) * n * w, dtype=np.uint64)
    for b, sample in enumerate(samples):
        for i, j in sample._edges():
            for x, y in ((i, j), (j, i)):
                np.bitwise_or.at(flat, (b * n + x) * w + (y >> 6), _bit(y))
    return flat.reshape(len(samples), n, w)


def _probability_blocks(model: EdgeProbabilityModel,
                        pairs: int) -> Iterator[tuple[int, int, float | np.ndarray]]:
    """(s, e, p) for each _SAMPLE_BLOCK triangle positions [s, e), with p
    the p_ij of those positions: Homogeneous's scalar p, the model's own
    triangle of p_ij when one block holds it, else _row_fill's blocks."""
    if isinstance(model, Homogeneous):
        for s in range(0, pairs, _SAMPLE_BLOCK):
            yield s, min(s + _SAMPLE_BLOCK, pairs), model.p
    elif 0 < pairs <= _SAMPLE_BLOCK:
        yield 0, pairs, model._triangle_probabilities
    else:
        yield from _row_fill(model, pairs, _SAMPLE_BLOCK)


def _row_fill(model: EdgeProbabilityModel, pairs: int,
              block: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(s, e, p) for each block triangle positions [s, e), with p the p_ij
    of those positions in one reused buffer filled row segment by row
    segment by the model's _fill_row, so no array of all the pairs is built."""
    n = model.n
    buf = np.empty(min(block, pairs))
    i, start = 0, 0  # the row holding position s, and the row's first position
    for s in range(0, pairs, block):
        e = min(s + block, pairs)
        at = s
        while at < e:
            end = start + n - 1 - i
            hi = min(e, end)
            model._fill_row(i, at - start, hi - start, buf[at - s : hi - s])
            at = hi
            if hi == end:
                i, start = i + 1, end
        yield s, e, buf[: e - s]


def _sample_triangle(model: EdgeProbabilityModel, seed: int,
                     alt: PlantedAlternative | None) -> np.ndarray:
    """The sampled triangle packed as GraphSample.packed: pair t is an edge
    when the t-th uniform of the seed's stream is below its p_ij, or below
    rho * p_ij inside a planted community.  Each block after the first draws
    its uniforms into the first block's array.  A reused bool buffer holds
    each block from its first byte's start (bits the block before drew) and
    is packed into place; the next block packs a partial last byte again."""
    if _number("seed", seed, int) < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    n = model.n
    pairs = n * (n - 1) // 2
    rng = generator(seed)
    packed = np.zeros((pairs + 7) // 8, dtype=np.uint8)
    buf = np.empty(min(_SAMPLE_BLOCK, pairs) + 7, dtype=bool)
    if alt is not None:
        c = np.asarray(alt.community, dtype=np.int64)
        a, b = np.triu_indices(c.size, 1)
        pos = _pair_index(n, c[a], c[b])  # ascending: c is sorted
        lifted = model.pair_probability(c[a], c[b]) * alt.rho
    # with PCG64, random(a) then random(b) draws what random(a + b) does, so
    # the block size leaves the stream as it was
    for s, e, p in _probability_blocks(model, pairs):
        u = rng.random(e - s) if s == 0 else rng.random(out=u[: e - s])
        base = s & ~7  # buf[0] is position base
        bits = buf[s - base : e - base]
        np.less(u, p, out=bits)
        if alt is not None:
            lo, hi = np.searchsorted(pos, (s, e))
            at = pos[lo:hi]
            bits[at - s] = u[at - s] < lifted[lo:hi]
        packed[base >> 3 : (e + 7) >> 3] = np.packbits(buf[: e - base])
        buf[: e & 7] = buf[(e & ~7) - base : e - base]
    return packed


def sample_null(model: EdgeProbabilityModel, seed: int) -> GraphSample:
    """Draw one null graph; one uniform per pair in lexicographic order."""
    return GraphSample(model.n, _sample_triangle(model, seed, None), seed, "null")


def sample_alternative(model: EdgeProbabilityModel,
                       alt: PlantedAlternative,
                       seed: int) -> GraphSample:
    """Draw one graph with the community planted; shares the null's uniform
    stream, so rho = 1 reproduces the null sample bit for bit."""
    if alt.model is not model:
        # rebind: re-validates rho * p <= 1 against the model actually sampled
        alt = PlantedAlternative(alt.community, alt.rho, model)
    return GraphSample(model.n, _sample_triangle(model, seed, alt), seed, "planted",
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


def _digit_table(n: int) -> np.ndarray:
    """(n, W) uint8: row v holds the ASCII decimal digits of v, W those of
    n - 1, right-aligned behind zero bytes."""
    width = len(str(n - 1))
    v = np.arange(n)[:, None]
    scale = 10 ** np.arange(width - 1, -1, -1)
    table = (v // scale % 10 + ord("0")).astype(np.uint8)
    table[(v < scale) & (scale > 1)] = 0  # leading zeros; 0 itself keeps its digit
    return table


def write_edge_list(sample: GraphSample, path: str | os.PathLike) -> None:
    """Text format: first line "n m", then one "i j" line per edge with
    0 <= i < j < n in lexicographic order.  Each block of edges is written
    as one byte array: the digit-table rows of i and j around a space and a
    newline, with the table's zero padding dropped."""
    table = _digit_table(sample.n)
    width = table.shape[1]
    with open(path, "wb") as fh:
        fh.write(f"{sample.n} {sample.total_edges()}\n".encode("ascii"))
        for i, j in sample._edges():
            lines = np.empty((i.size, 2 * width + 2), dtype=np.uint8)
            lines[:, :width] = table[i]
            lines[:, width] = ord(" ")
            lines[:, width + 1 : -1] = table[j]
            lines[:, -1] = ord("\n")
            flat = lines.reshape(-1)
            fh.write(flat[flat != 0])


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


def _edge_array(fh: TextIO, n: int, packed: np.ndarray) -> np.ndarray | None:
    """Set the packed bit of each line of the rest of fh, parsed _READ_BLOCK
    characters at a time by _edge_block: the int64 vertex degrees the lines
    give, or None unless it accepts all."""
    deg = np.zeros(n, dtype=np.int64)
    rest = ""
    while text := fh.read(_READ_BLOCK):
        text = rest + text
        cut = text.rfind("\n") + 1
        edges = _edge_block(text[:cut], n) if cut else None
        if edges is None:
            return None
        _set_bits(packed, _pair_index(n, *edges))
        for ends in edges:
            deg += np.bincount(ends, minlength=n)
        rest = text[cut:]
    if rest:  # an unterminated last line
        return None
    return deg


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
    Any fault in reading the file is a ValidationError.  A file the array
    parse reads whole also gives the graph its degrees."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            try:
                n, m = (int(v) for v in header)
            except ValueError as exc:
                raise ValidationError(f"malformed header {header!r}; expected 'n m'") from exc
            _check_vertex_count(n)
            packed = np.zeros((n * (n - 1) // 2 + 7) // 8, dtype=np.uint8)
            deg = _edge_array(fh, n, packed)
            count = None if deg is None else int(deg.sum()) // 2
            if count != np.bitwise_count(packed).sum():
                # a line it rejects (None) or a repeated pair: read again line by
                # line, naming the first fault; the bits set so far stay right
                fh.seek(0)
                fh.readline()
                idx = _edge_positions(n, *_edge_lines(fh, n))
                _set_bits(packed, idx)
                count, deg = idx.size, None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"edge list {path} is not ASCII text") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read edge list {path}: {exc.strerror}") from exc
    if count != m:
        raise ValidationError(f"header claims {m} edges, file has {count}")
    graph = GraphSample(n, packed, None, "imported", sampler="file-import")
    if deg is not None:
        # stored where the cached property keeps its value
        deg.flags.writeable = False
        graph.__dict__["_degrees"] = deg
    return graph


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
