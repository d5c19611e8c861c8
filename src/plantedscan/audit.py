"""Finite-n diagnostics for the asymptotic conditions behind the guarantees.

Every guarantee in the package is asymptotic; at a concrete (n, r, model)
the best that can be done is to measure how much slack each condition has.
Each check reports lhs (the quantity that must stay small), rhs (the scale
it must stay below), and their ratio margin = rhs / lhs; margin >= 10 is
the default reading of "comfortably inside the regime".  A margin near 1
means the asymptotic statement has little force at this size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .model import (
    EdgeProbabilityModel,
    PlantedAlternative,
    RankOne,
    _number,
    check_subset,
    expected_edges_null,
)

__all__ = [
    "AuditEntry",
    "AuditReport",
    "audit_assumption_1_1",
    "audit_assumption_1_2",
    "audit_assumption_2",
    "audit_assumption_3",
]

DEFAULT_MARGIN_THRESHOLD = 10.0
DEFAULT_AUDIT_BUDGET = 1 << 20


@dataclass(frozen=True)
class AuditEntry:
    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    notes: str = ""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]
    threshold: float

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> dict:
        return {
            "threshold": self.threshold,
            "all_passed": self.all_passed,
            "entries": [e.to_json() for e in self.entries],
        }

    def to_text(self) -> str:
        rows = [("check", "lhs", "rhs", "margin", "pass", "notes")]
        for e in self.entries:
            rows.append((
                e.name, f"{e.lhs:.6g}", f"{e.rhs:.6g}", f"{e.margin:.6g}",
                "yes" if e.passed else "NO", e.notes,
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        return "\n".join("  ".join([c.ljust(w) for c, w in zip(r, widths)] + [r[5]]).rstrip()
                         for r in rows)


def _check_threshold(threshold) -> None:
    if not (math.isfinite(_number("threshold", threshold, float)) and threshold > 0):
        raise ValidationError(f"threshold must be finite and > 0, got {threshold}")


def _entry(name: str, lhs: float, rhs: float, threshold: float, notes: str = "") -> AuditEntry:
    if lhs <= 0.0:
        return AuditEntry(name, lhs, rhs, math.inf, True,
                          (notes + "; " if notes else "") + "vacuous: lhs is zero")
    margin = rhs / lhs
    return AuditEntry(name, lhs, rhs, margin, margin >= threshold, notes)


def _mean_density(model: EdgeProbabilityModel, subset: np.ndarray) -> float:
    k = subset.size
    return expected_edges_null(model, subset) / (k * (k - 1) / 2)


def audit_assumption_1_1(model: EdgeProbabilityModel, community, delta: float,
                         gamma: float, threshold: float = DEFAULT_MARGIN_THRESHOLD,
                         budget: int = DEFAULT_AUDIT_BUDGET) -> AuditReport:
    """Community-size, small-subgraph, and density-floor conditions.

    delta plays two roles, matching the asymptotic statement: the size
    condition reads r against n^(1/2 - delta), and the subgraph condition
    demands max_{2 <= |D| < r (r/n)^gamma} |D| mean-density(D) over
    |C| mean-density(C) at most delta.  gamma has no default: it encodes
    how aggressively small subgraphs are excluded and is the caller's
    modelling choice.
    """
    _check_threshold(threshold)
    c = check_subset(model.n, community)
    r, n = c.size, model.n
    if r < 2:
        raise ValidationError(f"community must have >= 2 vertices, got {r}")
    if not 0.0 < delta < 0.5:
        raise ValidationError(f"delta must lie in (0, 0.5), got {delta}")
    if not gamma > 0.0:
        raise ValidationError(f"gamma must be > 0, got {gamma}")
    entries = []
    entries.append(_entry("community-size r <= n^(1/2-delta)",
                          float(r), float(n) ** (0.5 - delta), threshold))
    p_bar_c = _mean_density(model, c)
    limit = r / (n / r) ** gamma
    k_max = min(r, math.ceil(limit) - 1)
    if k_max < 2:
        entries.append(AuditEntry(
            "small-subgraph density ratio", 0.0, float(delta), math.inf, True,
            f"vacuous: size window [2, {limit:.3g}) is empty",
        ))
    elif p_bar_c <= 0.0:
        entries.append(_entry("small-subgraph density ratio", math.inf, float(delta),
                              threshold, "community mean density is zero"))
    else:
        worst = 0.0
        for k in range(2, k_max + 1):
            mean_k = model.max_within_mean(c, k, budget)
            ratio = (k * mean_k / (k * (k - 1) / 2)) / (r * p_bar_c)
            worst = max(worst, ratio)
        entries.append(_entry("small-subgraph density ratio", worst, float(delta),
                              threshold, notes=f"sizes 2..{k_max}"))
    entries.append(_entry("density floor 1/density <= r/ln(n/r)",
                          1.0 / p_bar_c if p_bar_c > 0.0 else math.inf, r / math.log(n / r),
                          threshold, "" if p_bar_c > 0.0 else "community mean density is zero"))
    return AuditReport(tuple(entries), threshold)


def audit_assumption_1_2(model: EdgeProbabilityModel, community,
                         threshold: float = DEFAULT_MARGIN_THRESHOLD) -> AuditReport:
    """Subpolynomial community size and slowly-vanishing density conditions."""
    _check_threshold(threshold)
    c = check_subset(model.n, community)
    r, n = c.size, model.n
    if r < 2:
        raise ValidationError(f"community must have >= 2 vertices, got {r}")
    entries = [
        _entry("subpolynomial size: ln r <= ln n", math.log(r), math.log(n),
               threshold, notes=f"ln(r)/ln(n) = {math.log(r) / math.log(n):.4g}"),
    ]
    p_bar_c = _mean_density(model, c)
    if p_bar_c <= 0.0:
        entries.append(_entry("density log-ratio", math.inf, math.log(n / r) / math.log(r),
                              threshold, "community mean density is zero"))
    else:
        lhs = math.log(1.0 / p_bar_c)
        rhs = math.log(n / r) / math.log(r)
        value = lhs / rhs if rhs > 0 else math.inf
        entries.append(_entry("density log-ratio", lhs, rhs, threshold,
                              notes=f"ln(1/density) ln(r)/ln(n/r) = {value:.4g}"))
    return AuditReport(tuple(entries), threshold)


def audit_assumption_2(alternatives: list[PlantedAlternative],
                       threshold: float = DEFAULT_MARGIN_THRESHOLD) -> AuditReport:
    """The lifted-variance condition: max over alternatives of
    rho^2 * p_ij inside the community must be well below 1."""
    _check_threshold(threshold)
    if not alternatives:
        return AuditReport((AuditEntry(
            "lifted variance rho^2 p", 0.0, 1.0, math.inf, True,
            "vacuous: no alternatives supplied",
        ),), threshold)
    worst = 0.0
    where = ""
    for alt in alternatives:
        c = check_subset(alt.model.n, alt.community)
        p_max, pair = alt.model.max_pair_within(c)
        value = alt.rho * alt.rho * p_max
        if value > worst:
            worst = value
            where = f"worst at pair {pair} with rho={alt.rho}"
    return AuditReport((_entry("lifted variance rho^2 p", worst, 1.0,
                               threshold, notes=where),), threshold)


def audit_assumption_3(model: RankOne, community,
                       threshold: float = DEFAULT_MARGIN_THRESHOLD) -> AuditReport:
    """Weight-spread condition for rank-one models:
    (w_max/w_min)^2 <= min(r^(2/3), (n/r) w_min^2) within the community."""
    _check_threshold(threshold)
    if not isinstance(model, RankOne):
        raise ValidationError("assumption 3 applies to rank-one models only")
    c = check_subset(model.n, community)
    r, n = c.size, model.n
    if r < 2:
        raise ValidationError(f"community must have >= 2 vertices, got {r}")
    w = model.weights[c]
    w_min, w_max = float(w.min()), float(w.max())
    lhs = (w_max / w_min) ** 2
    rhs = min(r ** (2.0 / 3.0), (n / r) * w_min * w_min)
    floor = math.sqrt(r / n)
    note = (f"w_min = {w_min:.4g} vs sqrt(r/n) = {floor:.4g}"
            + ("" if w_min >= floor else " (below the informative-weight floor)"))
    return AuditReport((_entry("weight spread (w_max/w_min)^2", lhs, rhs,
                               threshold, notes=note),), threshold)
