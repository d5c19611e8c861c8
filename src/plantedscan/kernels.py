"""Scalar analytic kernels shared by every statistical routine in the package.

The central object is the convex function

    h(x) = (1 + x) * ln(1 + x) - x,        x > -1,

which is the exponent of the one-sided Bennett tail bound for sums of
independent bounded increments and, through its inverse, the currency in
which all detection thresholds here are expressed.  h(0) = 0, h is strictly
increasing on [0, inf) with h(x) ~ x^2/2 as x -> 0 and h(x-1) ~ x ln x as
x -> inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

__all__ = [
    "KernelTolerance",
    "entropy_h",
    "entropy_h_inverse",
    "kl_bernoulli",
    "bennett_upper_tail_bound",
]


@dataclass(frozen=True)
class KernelTolerance:
    """Stopping rule for the inverse solver.

    abs_tol bounds the residual |h(x) - y|, not the error in x; near y = 0
    the two differ by the factor h'(x) = ln(1 + x) which vanishes at the
    origin, so a residual tolerance is the stable contract.
    """

    abs_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise ValidationError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")


_DEFAULT_TOL = KernelTolerance()


def entropy_h(x: float) -> float:
    """(1 + x) * ln(1 + x) - x, evaluated without cancellation for small x.

    Defined for x > -1, with h(inf) = inf; values in (-1, 0) arise for
    lower tails and are accepted.  Raises ValidationError at or below the
    pole x = -1.
    """
    x = float(x)
    if math.isnan(x) or x <= -1.0:
        raise ValidationError(f"entropy_h requires x > -1, got {x}")
    if x == math.inf:  # where the formula gives inf - inf
        return x
    if abs(x) < 1e-4:
        # Taylor series x^2/2 - x^3/6 + x^4/12 - x^5/20; the direct formula
        # loses half its digits to cancellation once x is this small.
        return x * x * (0.5 + x * (-1.0 / 6.0 + x * (1.0 / 12.0 - x / 20.0)))
    return (1.0 + x) * math.log1p(x) - x


def entropy_h_vec(x: np.ndarray) -> np.ndarray:
    """Elementwise entropy_h over a float64 array (same series split).

    The scan hot path evaluates h on whole batches of subset overshoots;
    every entry must be > -1."""
    x = np.asarray(x, dtype=np.float64)
    if x.size and not bool((x > -1.0).all()):
        raise ValidationError("entropy_h_vec requires every entry > -1")
    small = np.abs(x) < 1e-4
    top = x == np.inf  # h(inf) = inf, where the formula gives inf - inf
    xl = np.where(small | top, 0.0, x)
    # (1 + x) ln(1 + x) passes the largest double past about 2.5e305, where
    # h is inf, as entropy_h returns it
    with np.errstate(over="ignore"):
        out = np.where(top, x, (1.0 + xl) * np.log1p(xl) - xl)
    if small.any():  # the series of entropy_h, on those entries only
        xs = x[small]
        out[small] = xs * xs * (0.5 + xs * (-1.0 / 6.0 + xs * (1.0 / 12.0 - xs / 20.0)))
    return out


def entropy_h_inverse(y: float, tol: KernelTolerance | None = None) -> float:
    """Unique x >= 0 with h(x) = y, for y >= 0.

    Bracketing by doubling from x = 1, then Newton steps using
    h'(x) = ln(1 + x), falling back to bisection whenever a step would
    leave the bracket.  Terminates once |h(x) - y| <= tol.abs_tol * max(1, y);
    the residual is scaled because an absolute 1e-12 is below one ulp of y
    for y beyond ~1e4.  Raises NumericError with the surviving bracket if
    max_iter is exhausted.
    """
    tol = tol or _DEFAULT_TOL
    y = float(y)
    if math.isnan(y) or y < 0.0:
        raise ValidationError(f"entropy_h_inverse requires y >= 0, got {y}")
    if y == 0.0:
        return 0.0
    if math.isinf(y):
        raise ValidationError("entropy_h_inverse requires finite y")

    hi = 1.0
    while entropy_h(hi) < y:
        hi *= 2.0
        if math.isinf(hi):
            raise NumericError(f"bracketing diverged for y={y}")
    lo = 0.0 if hi == 1.0 else hi / 2.0

    # h(x) ~ x^2/2 near zero makes sqrt(2y) a good opening guess there.
    x = min(max(math.sqrt(2.0 * y), lo), hi)
    residual_cap = tol.abs_tol * max(1.0, y)
    for _ in range(tol.max_iter):
        r = entropy_h(x) - y
        if abs(r) <= residual_cap:
            return x
        if r > 0.0:
            hi = x
        else:
            lo = x
        slope = math.log1p(x)
        if slope > 0.0:
            x_new = x - r / slope
            if not lo < x_new < hi:
                x_new = 0.5 * (lo + hi)
        else:
            x_new = 0.5 * (lo + hi)
        x = x_new
    raise NumericError(
        f"entropy_h_inverse did not reach |h(x)-y| <= {residual_cap} in "
        f"{tol.max_iter} iterations; bracket [{lo}, {hi}] for y={y}"
    )


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence of Bernoulli(q) from Bernoulli(p), in nats.

    Both parameters must lie strictly inside (0, 1).
    """
    p, q = float(p), float(q)
    if not 0.0 < p < 1.0:
        raise ValidationError(f"kl_bernoulli requires 0 < p < 1, got p={p}")
    if not 0.0 < q < 1.0:
        raise ValidationError(f"kl_bernoulli requires 0 < q < 1, got q={q}")
    # q / p overflows where p is subnormal; the difference of logs does not
    ratio = q / p
    lead = math.log(ratio) if ratio < math.inf else math.log(q) - math.log(p)
    return q * lead + (1.0 - q) * math.log((1.0 - q) / (1.0 - p))


def bennett_upper_tail_bound(mean: float, t: float) -> float:
    """exp(-mean * h(t / mean)): upper tail bound at overshoot t.

    Bounds P(S - E[S] >= t) for S a sum of independent indicators with
    E[S] = mean > 0, any t > 0.
    """
    mean, t = float(mean), float(t)
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ValidationError(f"mean must be positive and finite, got {mean}")
    if not (t > 0.0 and math.isfinite(t)):
        raise ValidationError(f"t must be positive and finite, got {t}")
    return math.exp(-mean * entropy_h(t / mean))
