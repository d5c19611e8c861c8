"""Detectability thresholds and the subsets that attain them.

For a community C the quantity that controls detectability is

    M(C) = max_{D subseteq C} E0[e(D)] / (|D| * ln(n/|D|)),

the best Bennett exponent budget any subset of C can offer.  The scan test
succeeds once M(C) * h(rho - 1) passes 1, so the threshold lift solves
h(rho* - 1) = target / M(C).  The maximising subset depends only on the
null means, never on rho; for rank-one models it is always a prefix of the
weight-sorted community, which reduces the search to |C| candidates.

The quantile route replaces the community by the distribution its weights
are drawn from: with r = ln(n)^4 vertices of weight (s + X)/ln(n)^(3/2),
the prefix objective converges to the scale-free functional

    J(alpha) = (integral of the upper alpha-quantile of s + X)^2 / (2 alpha),

whose maximiser alpha* gives the optimal prefix fraction and whose maximum
gives h(rho* - 1) = target / J*.  With r = n^(1/4) ln(n)^4 the same J*
applies with the argument scaled by n^(-1/4), putting rho* - 1 at order
n^(-1/8).
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .kernels import entropy_h, entropy_h_inverse
from .model import EdgeProbabilityModel, _best_prefix, _norm, _number, check_subset, write_csv

__all__ = [
    "Degenerate",
    "ShiftedBernoulli",
    "ShiftedUniform",
    "ShiftedExponential",
    "Empirical",
    "WeightDistribution",
    "STANDARD_DISTRIBUTIONS",
    "BoundaryResult",
    "OptimalSubgraph",
    "Regime",
    "SurfaceRow",
    "optimal_subgraph",
    "threshold_scaling",
    "quantile_boundary",
    "standard_table",
    "two_weight_threshold",
    "two_weight_regime",
    "boundary_surface",
    "write_surface_csv",
]

DEFAULT_SUBSET_BUDGET = 1 << 20


# -- weight profile distributions ---------------------------------------------


class WeightDistribution:
    """A community weight profile, as the quantile route sees it.

    Each profile class supplies:
      upper_integral(alpha)  the integral of its upper alpha-quantile;
      support_max()          its largest value, None when unbounded above;
      alpha_candidates()     the alphas in (0, 1] among which J is largest;
      upper_quantile(ys)     its values x at upper-tail levels ys, giving
                             weights (s + x) / ln(n)^norm_exponent.
    A literal weight vector overrides community_size and community_weights
    instead.  A new profile is one subclass.
    """

    def community_size(self, r: int | None, n: int, regime: str) -> int:
        """r of the finite-n route: the one asked for, else ln(n)^4, times
        n^(1/4) in the quarter_power regime."""
        if r is not None:
            return r
        base = math.log(n) ** 4
        if regime == "quarter_power":
            base *= n ** 0.25
        return max(2, int(base))

    def community_weights(self, r: int, n: int) -> np.ndarray:
        """Descending community weights: r quantile midpoints of the profile,
        scaled by ln(n)^(-norm_exponent)."""
        ys = (np.arange(r, dtype=np.float64) + 0.5) / r  # upper-tail midpoints
        w = (self.s + self.upper_quantile(ys)) / math.log(n) ** self.norm_exponent
        return np.sort(w)[::-1]


def _check_shift(s: float) -> float:
    s = float(s)
    if s < 0 or not math.isfinite(s):
        raise ValidationError(f"shift s must be finite and >= 0, got {s}")
    return s


@dataclass(frozen=True)
class Degenerate(WeightDistribution):
    """All community weights equal: profile s + value."""

    s: float
    value: float = 1.0
    norm_exponent: float = 1.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _check_shift(self.s))
        if not self.value > 0:
            raise ValidationError(f"value must be > 0, got {self.value}")

    def upper_integral(self, alpha: float) -> float:
        return alpha * (self.s + self.value)

    def support_max(self) -> float:
        return self.s + self.value

    def alpha_candidates(self) -> list[float]:
        return [1.0]

    def upper_quantile(self, ys: np.ndarray) -> np.ndarray:
        return np.full(ys.size, self.value)


@dataclass(frozen=True)
class ShiftedBernoulli(WeightDistribution):
    """Profile s + t*X with X ~ Bernoulli(q)."""

    q: float
    t: float
    s: float
    norm_exponent: float = 1.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _check_shift(self.s))
        if not 0.0 < self.q < 1.0:
            raise ValidationError(f"q must lie in (0, 1), got {self.q}")
        if not self.t > 0:
            raise ValidationError(f"t must be > 0, got {self.t}")

    def upper_integral(self, alpha: float) -> float:
        return self.s * alpha + self.t * min(alpha, self.q)

    def support_max(self) -> float:
        return self.s + self.t

    def alpha_candidates(self) -> list[float]:
        return [self.q, 1.0]

    def upper_quantile(self, ys: np.ndarray) -> np.ndarray:
        return np.where(ys < self.q, self.t, 0.0)


@dataclass(frozen=True)
class ShiftedUniform(WeightDistribution):
    """Profile s + X with X ~ Uniform(a, b)."""

    a: float
    b: float
    s: float
    norm_exponent: float = 1.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _check_shift(self.s))
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValidationError(f"need a < b, got a={self.a}, b={self.b}")
        if self.a < 0:
            raise ValidationError(f"a must be >= 0, got {self.a}")

    def upper_integral(self, alpha: float) -> float:
        # quantile s + a + (b-a)y integrated over y in (1-alpha, 1)
        return alpha * (self.s + self.a) + (self.b - self.a) * alpha * (2 - alpha) / 2

    def support_max(self) -> float:
        return self.s + self.b

    def alpha_candidates(self) -> list[float]:
        return [min((2.0 / 3.0) * (self.s + self.b) / (self.b - self.a), 1.0)]

    def upper_quantile(self, ys: np.ndarray) -> np.ndarray:
        return self.a + (self.b - self.a) * (1.0 - ys)


@dataclass(frozen=True)
class ShiftedExponential(WeightDistribution):
    """Profile s + X with X ~ Exponential(rate lam)."""

    lam: float
    s: float
    norm_exponent: float = 1.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _check_shift(self.s))
        if not self.lam > 0:
            raise ValidationError(f"lam must be > 0, got {self.lam}")

    def upper_integral(self, alpha: float) -> float:
        return alpha * (self.s + (1.0 - math.log(alpha)) / self.lam)

    def support_max(self) -> float | None:
        return None  # unbounded above

    def alpha_candidates(self) -> list[float]:
        return [min(math.exp(self.s * self.lam - 1.0), 1.0)]

    def upper_quantile(self, ys: np.ndarray) -> np.ndarray:
        return -np.log(ys) / self.lam


@dataclass(frozen=True, eq=False)
class Empirical(WeightDistribution):
    """A literal community weight profile, sorted descending."""

    weights: np.ndarray
    norm_exponent: float = 0.0  # values are used as-is

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("weights must be a non-empty vector")
        if np.any(np.diff(w) > 0):
            raise ValidationError("weights must be sorted in descending order")
        if not np.all(w > 0):
            raise ValidationError("weights must be positive")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def upper_integral(self, alpha: float) -> float:
        m = self.weights.size
        pos = alpha * m
        k = min(int(math.floor(pos)), m)
        total = float(self.weights[:k].sum())
        if k < m:
            total += (pos - k) * float(self.weights[k])
        return total / m

    def support_max(self) -> float:
        return float(self.weights[0])

    def alpha_candidates(self) -> list[float]:
        # I is piecewise linear in alpha, so J = I^2/(2 alpha) is convex on
        # each segment: the maximum sits on a segment junction k/m
        m = self.weights.size
        return [k / m for k in range(1, m + 1)]

    def community_size(self, r: int | None, n: int, regime: str) -> int:
        if r is not None and r != self.weights.size:
            raise ValidationError(
                f"Empirical profile has {self.weights.size} weights but r={r} was requested"
            )
        return self.weights.size

    def community_weights(self, r: int, n: int) -> np.ndarray:
        return self.weights


STANDARD_DISTRIBUTIONS: dict[str, WeightDistribution] = {
    "degenerate": Degenerate(s=0.1),
    "bernoulli": ShiftedBernoulli(q=0.5, t=2.0, s=0.1),
    "uniform": ShiftedUniform(a=0.0, b=2.0, s=0.1),
    "exponential": ShiftedExponential(lam=1.0, s=0.1),
}


# -- result containers --------------------------------------------------------


@dataclass(frozen=True)
class OptimalSubgraph:
    subset: tuple[int, ...]
    objective: float       # E0[e(D)] / (|D| ln(n/|D|))
    mean_edges: float      # E0[e(D)]

    @property
    def size(self) -> int:
        return len(self.subset)


@dataclass(frozen=True)
class BoundaryResult:
    rho_star: float
    optimal_size: float
    optimal_fraction: float | None = None
    subset: tuple[int, ...] | None = None
    objective: float = float("nan")
    feasible: bool | None = None
    metadata: dict = field(default_factory=dict)

    def row(self) -> dict:
        """The summary columns of the boundary CSVs, from the CLI and sweeps."""
        return {
            "rho_star": self.rho_star,
            "optimal_size": self.optimal_size,
            "optimal_fraction": self.optimal_fraction,
            "objective": self.objective,
            "feasible": self.feasible,
        }

    def to_json(self) -> dict:
        out = {**self.row(), "metadata": dict(self.metadata)}
        if self.subset is not None:
            out["subset"] = list(self.subset)
        return out


# -- most informative subgraph ------------------------------------------------


def optimal_subgraph(model: EdgeProbabilityModel, community: Iterable[int],
                     budget: int = DEFAULT_SUBSET_BUDGET) -> OptimalSubgraph:
    """The subset of the community maximising E0[e(D)] / (|D| ln(n/|D|)).

    The model runs the search: Homogeneous returns the whole community,
    RankOne compares the |C| weight-sorted prefixes, and GeneralMatrix
    compares all 2^|C| - 1 subsets, guarded by the budget.  Ties go to the
    smaller subset.
    """
    n = model.n
    c = check_subset(n, community)
    if c.size < 1:
        raise ValidationError("community must be non-empty")
    if c.size >= n:
        raise ValidationError(f"community must be a proper subset, got |C| = {c.size} = n")
    return OptimalSubgraph(*model.optimal_subgraph(c, budget))


def _check_target(target: float) -> float:
    """target as a float, finite and >= 0; ValidationError otherwise."""
    target = float(target)
    if target < 0 or not math.isfinite(target):
        raise ValidationError(f"target must be finite and >= 0, got {target}")
    return target


def threshold_scaling(model: EdgeProbabilityModel, community: Iterable[int],
                      target: float = 1.0,
                      budget: int = DEFAULT_SUBSET_BUDGET) -> BoundaryResult:
    """Critical lift rho* for the community: h(rho* - 1) = target / M(C).

    target is the exponent budget the scan must overcome (1 at the
    detection boundary).  feasible records whether rho* keeps every edge
    probability inside C at most 1; an infeasible rho* means the community
    cannot reach the boundary inside the model's probability range.
    """
    target = _check_target(target)
    opt = optimal_subgraph(model, community, budget)
    if opt.mean_edges <= 0.0:
        raise ValidationError(
            "community carries no expected edges under the null; threshold degenerate"
        )
    c = check_subset(model.n, community)
    rho = 1.0 if target == 0.0 else 1.0 + entropy_h_inverse(target / opt.objective)
    p_max, _pair = model.max_pair_within(c)
    return BoundaryResult(
        rho_star=rho,
        optimal_size=opt.size,
        optimal_fraction=opt.size / c.size,
        subset=opt.subset,
        objective=opt.objective * entropy_h(rho - 1.0),
        feasible=bool(rho * p_max <= 1.0),
        metadata={
            "multiplier": opt.objective,
            "mean_edges": opt.mean_edges,
            "target": target,
            "n": model.n,
            "max_pair_probability": p_max,
        },
    )


# -- quantile route -----------------------------------------------------------


def _J(dist: WeightDistribution, alpha: float) -> float:
    i = dist.upper_integral(alpha)
    return i * i / (2.0 * alpha)


def _alpha_closed_form(dist: WeightDistribution) -> tuple[float, float]:
    """(alpha*, J*), exactly, from the profile's stationary candidates."""
    best = max(dist.alpha_candidates(), key=lambda a: _J(dist, a))
    return best, _J(dist, best)


def _golden_max(f: Callable[[float], float], lo: float, hi: float,
                tol: float = 1e-6) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
    return 0.5 * (a + b)


def _alpha_numeric(dist: WeightDistribution, r: int | None) -> tuple[float, float]:
    """(alpha*, J*) by log-spaced grid plus golden-section refinement."""
    lo = 1.0 / r if r else 1e-6
    grid = np.geomspace(lo, 1.0, 512)
    vals = [_J(dist, float(a)) for a in grid]
    i = int(np.argmax(vals))
    b_lo = float(grid[max(i - 1, 0)])
    b_hi = float(grid[min(i + 1, grid.size - 1)])
    a_star = _golden_max(lambda a: _J(dist, a), b_lo, b_hi, tol=1e-6)
    if _J(dist, 1.0) >= _J(dist, a_star):  # endpoint can beat an interior bracket
        a_star = 1.0
    return a_star, _J(dist, a_star)


def _prefix_threshold(w: np.ndarray, n: int, denominator: str, target: float,
                      what: str) -> BoundaryResult:
    """The threshold of a community given by its descending weights w: the
    best prefix under the "per_size" ln(n/k) or "log_n" ln(n) denominator,
    rho*, the objective at rho*, and whether rho* keeps the largest pair
    probability inside the community, w[0] * w[1], at most 1."""
    denom = ((lambda k: _norm(n, k)) if denominator == "per_size"
             else (lambda k: k * math.log(n)))
    k_star, multiplier, mean_edges, _ = _best_prefix(w, np.arange(w.size), denom)
    if mean_edges <= 0.0:
        raise ValidationError(f"{what} carries no expected edges; threshold degenerate")
    rho = 1.0 + entropy_h_inverse(target / multiplier)
    return BoundaryResult(
        rho_star=rho,
        optimal_size=k_star,
        optimal_fraction=k_star / w.size,
        objective=multiplier * entropy_h(rho - 1.0),
        feasible=bool(rho * (w[0] * w[1]) <= 1.0),
        metadata={"multiplier": multiplier, "mean_edges_exact": mean_edges},
    )


def quantile_boundary(dist: WeightDistribution, *, r: int | None = None,
                      n: int | None = None, mode: str = "analytic",
                      regime: str = "polylog", denominator: str | None = None,
                      target: float = 1.0) -> BoundaryResult:
    """Detectability threshold for a community drawn from a weight profile.

    With denominator "alpha" (the default when n is omitted) the result is
    the scale-free limit: rho* = 1 + h^{-1}(target * scale / J*), where
    scale is 1 in the polylog regime (r ~ ln^4 n) and n^(-1/4) in the
    quarter_power regime (r ~ n^(1/4) ln^4 n, which needs n).  mode
    "analytic" uses per-family stationarity; "numeric" maximises J on a
    512-point log grid refined by golden section, and exists so the two
    routes can check each other.

    With denominator "per_size" (the default when n is given) or "log_n"
    the boundary is evaluated at the finite n and r actually supplied:
    community weights are the r quantile midpoints scaled by
    ln(n)^(-norm_exponent), and the objective is maximised over exact
    prefix means with the chosen per-size normalisation.
    """
    if mode not in ("analytic", "numeric"):
        raise ValidationError(f"mode must be 'analytic' or 'numeric', got {mode!r}")
    if regime not in ("polylog", "quarter_power"):
        raise ValidationError(f"regime must be 'polylog' or 'quarter_power', got {regime!r}")
    target = float(target)
    if target <= 0 or not math.isfinite(target):
        raise ValidationError(f"target must be finite and > 0, got {target}")
    if n is not None:
        n = _number("n", n, int)
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
    if denominator is None:
        denominator = "alpha" if n is None else "per_size"
    if denominator == "alpha":
        scale = 1.0
        if regime == "quarter_power":
            if n is None:
                raise ValidationError("quarter_power regime needs n for its n^(-1/4) scale")
            scale = float(n) ** -0.25
        a_star, j_star = (_alpha_closed_form(dist) if mode == "analytic"
                          else _alpha_numeric(dist, r))
        h_arg = target * scale / j_star
        rho = 1.0 + entropy_h_inverse(h_arg)
        size = a_star * r if r is not None else a_star
        return BoundaryResult(
            rho_star=rho,
            optimal_size=size,
            optimal_fraction=a_star,
            objective=j_star * entropy_h(rho - 1.0) / scale,
            feasible=None,
            metadata={"j_star": j_star, "h_arg": h_arg, "mode": mode,
                      "regime": regime, "denominator": "alpha", "target": target},
        )
    if denominator not in ("per_size", "log_n"):
        raise ValidationError(
            f"denominator must be 'alpha', 'per_size', or 'log_n', got {denominator!r}"
        )
    if n is None:
        raise ValidationError(f"denominator {denominator!r} requires n")
    r = dist.community_size(r, n, regime)
    if not 2 <= r < n:
        raise ValidationError(f"need 2 <= r < n, got r={r}, n={n}")
    w = dist.community_weights(r, n)
    res = _prefix_threshold(w, n, denominator, target, "profile")
    k_star = res.optimal_size
    top_mean = float(w[:k_star].mean())
    return replace(res, metadata={
        **res.metadata,
        "mean_edges_mean_field": (k_star * (k_star - 1) / 2) * top_mean * top_mean,
        "denominator": denominator,
        "n": n,
        "r": r,
        "target": target,
        "support_max": dist.support_max(),
    })


def standard_table(mode: str = "analytic", regime: str = "polylog",
                   n: int | None = None, target: float = 1.0) -> list[dict]:
    """The four standard profile rows (s = 0.1, E[X] = 1): threshold lift
    and optimal prefix fraction per distribution."""
    rows = []
    for name, dist in STANDARD_DISTRIBUTIONS.items():
        res = quantile_boundary(dist, mode=mode, regime=regime, n=n,
                                denominator="alpha", target=target)
        rows.append({
            "distribution": name,
            "rho_star": res.rho_star,
            "optimal_fraction": res.optimal_fraction,
        })
    return rows


# -- two-weight communities ---------------------------------------------------


class Regime(str, Enum):
    WHOLE_COMMUNITY = "whole_community"
    LARGE_WEIGHT_ONLY = "large_weight_only"


def two_weight_threshold(community_size: int, weight_ratio: float) -> float:
    """Large-class size above which the large vertices alone out-score the
    whole community: m > (r - 1 + R^2) / (R - 1)^2 with R the weight ratio."""
    if community_size < 2:
        raise ValidationError(f"community size must be >= 2, got {community_size}")
    if not weight_ratio > 1.0:
        raise ValidationError(f"weight ratio must be > 1, got {weight_ratio}")
    r2 = weight_ratio * weight_ratio
    return (community_size - 1 + r2) / (weight_ratio - 1.0) ** 2


def two_weight_regime(community_size: int, large_count: int,
                      w_max: float, w_min: float) -> Regime:
    """Which subset is most informative in a two-weight community.

    Strict inequality: exactly at the threshold the whole community wins
    (the tie goes to the larger objective computed with equality)."""
    if not (0 < w_min <= w_max < 1):
        raise ValidationError(f"need 0 < w_min <= w_max < 1, got {w_min}, {w_max}")
    if not 0 <= large_count <= community_size:
        raise ValidationError(
            f"large_count must lie in [0, {community_size}], got {large_count}"
        )
    if w_max == w_min:
        return Regime.WHOLE_COMMUNITY
    if large_count < 2:
        return Regime.WHOLE_COMMUNITY
    threshold = two_weight_threshold(community_size, w_max / w_min)
    return Regime.LARGE_WEIGHT_ONLY if large_count > threshold else Regime.WHOLE_COMMUNITY


# -- boundary surfaces over community composition ------------------------------


@dataclass(frozen=True)
class SurfaceRow:
    composition: tuple[int, ...]
    rho_star: float
    optimal_size: int
    regime: str
    objective: float
    feasible: bool


def _regime_label(classes_used: int, class_count: int) -> str:
    if classes_used >= class_count:
        return "all classes"
    return "largest only" if classes_used == 1 else "largest+middle"


def boundary_surface(n: int, class_weights: Sequence[float],
                     compositions: Iterable[Sequence[int]] | None = None,
                     r: int | None = None, denominator: str = "log_n",
                     target: float = 1.0) -> list[SurfaceRow]:
    """Threshold lift across community compositions over 2 or 3 weight classes.

    Each composition gives per-class counts (descending weight order).  The
    default denominator is the common ln(n) of the asymptotic regime, which
    reproduces the two-weight switch threshold exactly; "per_size" uses
    ln(n/k) at the stated n instead.  Kinks show up as jumps in
    optimal_size / changes of regime label between neighbouring rows.
    """
    ws = [float(w) for w in class_weights]
    if len(ws) not in (2, 3):
        raise ValidationError(f"need 2 or 3 weight classes, got {len(ws)}")
    if not all(0 < w < 1 for w in ws):
        raise ValidationError(f"class weights must lie in (0, 1), got {ws}")
    if any(ws[i] <= ws[i + 1] for i in range(len(ws) - 1)):
        raise ValidationError(f"class weights must be strictly decreasing, got {ws}")
    if denominator not in ("log_n", "per_size"):
        raise ValidationError(f"denominator must be 'log_n' or 'per_size', got {denominator!r}")
    target = _check_target(target)
    if compositions is None:
        if r is None:
            raise ValidationError("either compositions or r must be given")
        if len(ws) == 2:
            compositions = [(m, r - m) for m in range(r + 1)]
        else:
            step = max(1, r // 32)
            compositions = [
                (m1, m2, r - m1 - m2)
                for m1 in range(0, r + 1, step)
                for m2 in range(0, r + 1 - m1, step)
            ]
    rows = []
    for comp in compositions:
        comp = tuple(int(m) for m in comp)
        if len(comp) != len(ws) or any(m < 0 for m in comp):
            raise ValidationError(f"bad composition {comp} for {len(ws)} classes")
        size = sum(comp)
        if not 2 <= size < n:
            raise ValidationError(f"composition {comp} has size {size}, needs 2 <= size < n")
        res = _prefix_threshold(np.repeat(ws, comp), n, denominator, target,
                                f"composition {comp}")
        bounds = np.cumsum(comp)
        classes_used = int(np.searchsorted(bounds, res.optimal_size, side="left")) + 1
        rows.append(SurfaceRow(
            composition=comp,
            rho_star=res.rho_star,
            optimal_size=res.optimal_size,
            regime=_regime_label(classes_used, len(comp)),
            objective=res.objective,
            feasible=res.feasible,
        ))
    return rows


def write_surface_csv(rows: Sequence[SurfaceRow], path: str | os.PathLike | io.TextIOBase) -> None:
    """CSV with a "#schema=1" first line; deterministic, no timestamps."""
    if not rows:
        raise ValidationError("no surface rows to write")
    width = len(rows[0].composition)
    write_csv([f"count_{i + 1}" for i in range(width)] + ["rho_star", "optimal_size", "regime"],
              [list(row.composition) + [row.rho_star, row.optimal_size, row.regime]
               for row in rows],
              path)
