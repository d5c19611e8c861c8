"""Detection-boundary computations: optimal subgraphs, threshold lifts,
quantile-route tables, two-weight regimes, and composition surfaces."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plantedscan import (
    BudgetError,
    Degenerate,
    Empirical,
    GeneralMatrix,
    Homogeneous,
    RankOne,
    Regime,
    ShiftedBernoulli,
    ShiftedExponential,
    ShiftedUniform,
    ValidationError,
    boundary_surface,
    entropy_h,
    entropy_h_inverse,
    optimal_subgraph,
    quantile_boundary,
    standard_table,
    threshold_scaling,
    two_weight_regime,
    two_weight_threshold,
    write_surface_csv,
)
from plantedscan.boundary import _alpha_closed_form, _alpha_numeric
from plantedscan.seeding import derive_seed, generator

# (rho*, optimal fraction) per standard profile, frozen from the oracle
TABLE_POLYLOG = {
    "degenerate": (3.31083040432213, 1.0),
    "bernoulli": (2.62364444138371, 0.5),
    "uniform": (3.14425046611516, 0.7),
    "exponential": (2.93932985575709, 0.406569659740599),
}
TABLE_QUARTER_POWER_N1E8 = {
    "degenerate": 1.18724814590861,
    "bernoulli": 1.13767766574817,
    "uniform": 1.17553985891981,
    "exponential": 1.16087910379059,
}


def per_mask_search(model, c):
    """The GeneralMatrix search as a loop over every subset's bit mask,
    kept as the reference for the vectorised one: (subset, objective, mean)."""
    n = model.n
    sub = model.matrix[np.ix_(c, c)]
    r = c.size
    mean_of = np.zeros(1 << r)
    best = None
    for mask in range(1, 1 << r):
        low = mask & -mask
        rest = mask ^ low
        i = low.bit_length() - 1
        add = 0.0
        mm = rest
        while mm:
            lb = mm & -mm
            add += sub[i, lb.bit_length() - 1]
            mm ^= lb
        mean_of[mask] = mean_of[rest] + add
        k = mask.bit_count()
        obj = mean_of[mask] / (k * math.log(n / k))
        key = (-obj, k, mask)
        if best is None or key < best:
            best = key
    mask = best[2]
    subset = tuple(int(c[i]) for i in range(r) if mask >> i & 1)
    return subset, -best[0], float(mean_of[mask])


@st.composite
def general_cases(draw):
    """A GeneralMatrix and a community of up to 12 vertices.  Half the
    matrices are block matrices over {0, 0.1, 0.2, 0.3}, so that different
    subsets tie exactly."""
    r = draw(st.integers(min_value=1, max_value=12))
    n = r + draw(st.integers(min_value=1, max_value=4))
    rng = generator(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        blocks = rng.choice([0.0, 0.1, 0.2, 0.3], size=(3, 3))
        labels = rng.integers(0, 3, size=n)
        m = np.triu(blocks[labels][:, labels], 1)
    else:
        m = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
    c = np.sort(rng.choice(n, size=r, replace=False))
    return GeneralMatrix(m + m.T), c


class TestOptimalSubgraph:
    def test_homogeneous_takes_whole_community(self):
        model = Homogeneous(100, 0.2)
        c = (3, 10, 17, 24, 31)
        opt = optimal_subgraph(model, c)
        assert opt.subset == c
        assert opt.mean_edges == pytest.approx(10 * 0.2)

    def test_two_weight_below_switch_keeps_whole_community(self):
        # ratio 2 at |C| = 10: switch threshold is 13 > 10, so every
        # composition of large/small keeps D* = C
        assert two_weight_threshold(10, 2.0) == 13.0
        for m in (2, 5, 8):
            w = np.full(4096, 0.01)
            w[:m] = 0.4
            w[m:10] = 0.2
            opt = optimal_subgraph(RankOne(w), range(10))
            assert opt.subset == tuple(range(10)), m

    def test_two_weight_above_switch_takes_large_class(self):
        # ratio 6.5 at |C| = 100: threshold 4.67, and 20 large vertices
        # out-score the whole community
        w = np.full(65536, 0.01)
        w[:20] = 0.65
        w[20:100] = 0.1
        opt = optimal_subgraph(RankOne(w), range(100))
        assert opt.subset == tuple(range(20))
        assert opt.objective == pytest.approx(
            (190 * 0.65**2) / (20 * math.log(65536 / 20)), rel=1e-12
        )

    def test_prefix_search_matches_exhaustive(self):
        # rank-one prefixes vs the general-model 2^12 brute force
        rng = generator(derive_seed(55, "prefix-vs-brute", 0))
        for _ in range(5):
            w = rng.uniform(0.05, 0.7, size=40)
            r1 = RankOne(w)
            outer = np.outer(w, w)
            np.fill_diagonal(outer, 0.0)
            gm = GeneralMatrix(outer)
            c = tuple(int(v) for v in rng.choice(40, size=12, replace=False))
            a = optimal_subgraph(r1, c)
            b = optimal_subgraph(gm, c)
            assert a.subset == b.subset
            assert a.objective == pytest.approx(b.objective, rel=1e-12)

    def test_prefix_mean_does_not_cancel(self):
        # one dominant weight: 0.5((sum w)^2 - sum w^2) loses 5.7e-10 of
        # the prefix mean here, the sum of positive pair terms does not
        w = [0.9, 1e-7, 1e-7, 0.5]
        opt = optimal_subgraph(RankOne(w), (0, 1, 2))
        assert opt.subset == (0, 1, 2)
        exact = math.fsum([w[0] * w[1], w[0] * w[2], w[1] * w[2]])
        assert opt.mean_edges == pytest.approx(exact, rel=1e-15, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(general_cases())
    def test_general_search_matches_per_mask_loop(self, case):
        model, c = case
        opt = optimal_subgraph(model, c)
        subset, objective, mean = per_mask_search(model, c)
        assert opt.subset == subset
        assert opt.objective.hex() == objective.hex()
        assert opt.mean_edges.hex() == mean.hex()

    def test_general_budget(self):
        m = np.zeros((30, 30))
        m[0, 1] = m[1, 0] = 0.5
        with pytest.raises(BudgetError):
            optimal_subgraph(GeneralMatrix(m), range(25), budget=1000)

    def test_community_validation(self):
        model = Homogeneous(10, 0.1)
        with pytest.raises(ValidationError):
            optimal_subgraph(model, [])
        with pytest.raises(ValidationError):
            optimal_subgraph(model, range(10))


class TestThresholdScaling:
    def test_er_closed_form(self):
        # homogeneous: rho* = 1 + h_inv(2 ln(n/r) / ((r-1) p))
        res = threshold_scaling(Homogeneous(1000, 0.01), range(30))
        closed = 1.0 + entropy_h_inverse(2.0 * math.log(1000 / 30) / (29 * 0.01))
        assert res.rho_star == pytest.approx(closed, rel=1e-12)
        assert res.rho_star == pytest.approx(14.0894524440922, rel=1e-10)
        assert res.optimal_size == 30
        assert res.optimal_fraction == 1.0

    def test_objective_hits_target(self):
        for target in (0.5, 1.0, 2.0):
            res = threshold_scaling(Homogeneous(200, 0.05), range(12), target=target)
            assert res.objective == pytest.approx(target, rel=1e-9)

    def test_target_zero_means_no_lift(self):
        res = threshold_scaling(Homogeneous(200, 0.05), range(12), target=0.0)
        assert res.rho_star == 1.0

    def test_optimal_subset_independent_of_target(self):
        w = np.full(500, 0.02)
        w[:30] = np.linspace(0.5, 0.1, 30)
        model = RankOne(w)
        subsets = {
            threshold_scaling(model, range(30), target=t).subset for t in (0.25, 1.0, 4.0)
        }
        assert len(subsets) == 1

    def test_feasibility_flag(self):
        # n=512, r=8, p=0.05: the boundary lift is ~13.9, so 2x the
        # boundary overshoots 1/p = 20 and is flagged infeasible
        res = threshold_scaling(Homogeneous(512, 0.05), range(8))
        assert res.rho_star == pytest.approx(13.9310638604467, rel=1e-10)
        assert res.feasible  # 13.93 * 0.05 < 1
        doubled = 2 * res.rho_star
        assert doubled * 0.05 > 1.0

    def test_rho_star_nonincreasing_in_p(self):
        rng = generator(derive_seed(55, "monotone-p", 0))
        for _ in range(20):
            p1 = float(rng.uniform(0.005, 0.4))
            p2 = float(rng.uniform(0.005, 0.4))
            if p1 > p2:
                p1, p2 = p2, p1
            lo = threshold_scaling(Homogeneous(200, p2), range(10)).rho_star
            hi = threshold_scaling(Homogeneous(200, p1), range(10)).rho_star
            assert lo <= hi

    def test_no_expected_edges_degenerate(self):
        with pytest.raises(ValidationError, match="no expected edges"):
            threshold_scaling(Homogeneous(50, 0.0), range(5))


class TestQuantileBoundary:
    def test_polylog_table_analytic(self):
        rows = {row["distribution"]: row for row in standard_table()}
        for name, (rho, frac) in TABLE_POLYLOG.items():
            assert rows[name]["rho_star"] == pytest.approx(rho, rel=1e-10), name
            assert rows[name]["optimal_fraction"] == pytest.approx(frac, rel=1e-10), name

    def test_polylog_table_numeric_agrees(self):
        analytic = {r["distribution"]: r for r in standard_table(mode="analytic")}
        numeric = {r["distribution"]: r for r in standard_table(mode="numeric")}
        for name in analytic:
            assert numeric[name]["rho_star"] == pytest.approx(
                analytic[name]["rho_star"], abs=1e-3
            ), name
            assert numeric[name]["optimal_fraction"] == pytest.approx(
                analytic[name]["optimal_fraction"], abs=0.01
            ), name

    def test_quarter_power_table(self):
        rows = {
            r["distribution"]: r
            for r in standard_table(regime="quarter_power", n=10**8)
        }
        for name, rho in TABLE_QUARTER_POWER_N1E8.items():
            assert rows[name]["rho_star"] == pytest.approx(rho, rel=1e-10), name

    def test_quarter_power_needs_n(self):
        with pytest.raises(ValidationError, match="needs n"):
            quantile_boundary(Degenerate(s=0.1), regime="quarter_power")

    def test_empirical_profile_exact(self):
        # I(alpha) is piecewise linear with junctions at k/3; J peaks at 2/3
        dist = Empirical(np.array([0.4, 0.2, 0.1]))
        res = quantile_boundary(dist, mode="analytic")
        assert res.optimal_fraction == pytest.approx(2 / 3, rel=1e-12)
        assert res.metadata["j_star"] == pytest.approx(0.03, rel=1e-12)
        num = quantile_boundary(dist, mode="numeric", r=3)
        assert num.optimal_fraction == pytest.approx(2 / 3, abs=1e-3)

    def test_finite_n_route_reports_feasibility(self):
        # n must be large enough that the default polylog size ln(n)^4
        # fits below n
        res = quantile_boundary(Degenerate(s=0.1), n=65536, denominator="per_size")
        assert res.feasible is not None
        assert res.metadata["r"] == int(math.log(65536) ** 4)
        assert res.optimal_size == res.metadata["r"]  # degenerate keeps everything

    def test_finite_n_feasibility_uses_largest_pair(self):
        # the largest pair inside the community is 0.5 * 0.3, not 0.5^2;
        # threshold_scaling on the same weights agrees
        dist = Empirical(np.array([0.5] + [0.3] * 39))
        res = quantile_boundary(dist, n=60000)
        assert res.rho_star == pytest.approx(4.99096427944996, rel=1e-12)
        assert res.feasible
        w = np.full(60000, 0.01)
        w[:40] = dist.weights
        point = threshold_scaling(RankOne(w), range(40))
        assert point.rho_star == res.rho_star
        assert point.feasible

    @pytest.mark.parametrize("dist, quantile, top", [
        (ShiftedBernoulli(q=0.3, t=2.0, s=0.1), lambda y: 2.0 if y < 0.3 else 0.0, 2.1),
        (ShiftedUniform(a=0.5, b=1.5, s=0.1), lambda y: 0.5 + (1.0 - y), 1.6),
        (ShiftedExponential(lam=1.0, s=0.1), lambda y: -math.log(y) / 1.0, None),
    ], ids=["bernoulli", "uniform", "exponential"])
    @pytest.mark.parametrize("denominator", ["per_size", "log_n"])
    def test_finite_n_profiles_against_quantile_midpoints(self, dist, quantile, top,
                                                          denominator):
        # weights from the profile's quantile at the r upper-tail midpoints,
        # the best prefix by brute force over every size k
        n, r = 200_000, 40
        w = sorted(((dist.s + quantile((a + 0.5) / r)) / math.log(n) ** 1.5
                    for a in range(r)), reverse=True)
        def objective(k):
            pairs = math.fsum(w[a] * w[b] for a in range(k) for b in range(a + 1, k))
            return pairs / (k * math.log(n / k) if denominator == "per_size"
                            else k * math.log(n))
        objs = [objective(k) for k in range(1, r + 1)]
        k_star = objs.index(max(objs)) + 1
        res = quantile_boundary(dist, r=r, n=n, denominator=denominator)
        assert res.optimal_size == k_star
        assert res.metadata["r"] == r
        assert res.metadata["support_max"] == top
        assert res.metadata["multiplier"] == pytest.approx(objs[k_star - 1], rel=1e-12)
        assert objs[k_star - 1] * entropy_h(res.rho_star - 1.0) == pytest.approx(1.0, rel=1e-9)
        assert res.feasible == (res.rho_star * w[0] * w[1] <= 1.0)

    def test_community_size(self):
        dist = ShiftedUniform(a=0.5, b=1.5, s=0.1)
        assert dist.community_size(7, 10**8, "quarter_power") == 7
        assert dist.community_size(None, 10**8, "polylog") == int((8 * math.log(10)) ** 4)
        # (8 ln 10)^4 = 115,139.066..., times (10^8)^(1/4) = 100
        assert dist.community_size(None, 10**8, "quarter_power") == 11_513_906
        assert dist.community_size(None, 3, "polylog") == 2
        res = quantile_boundary(dist, r=40, n=200_000, regime="quarter_power")
        assert res.metadata["r"] == 40

    def test_finite_n_empirical_size_must_match(self):
        dist = Empirical(np.array([0.3, 0.2]))
        with pytest.raises(ValidationError, match="weights but r="):
            quantile_boundary(dist, n=100, r=5, denominator="per_size")

    def test_mode_validation(self):
        with pytest.raises(ValidationError):
            quantile_boundary(Degenerate(s=0.1), mode="magic")
        with pytest.raises(ValidationError):
            quantile_boundary(Degenerate(s=0.1), regime="cubic")
        with pytest.raises(ValidationError):
            quantile_boundary(Degenerate(s=0.1), n=100, denominator="nope")
        with pytest.raises(ValidationError):
            quantile_boundary(Degenerate(s=0.1), target=0.0)

    @pytest.mark.parametrize("regime", ["polylog", "quarter_power"])
    @pytest.mark.parametrize("n", [0, -5, 2.0, "100", True])
    def test_n_must_be_a_positive_integer(self, n, regime):
        with pytest.raises(ValidationError, match="^n must be"):
            quantile_boundary(Degenerate(s=0.1), n=n, regime=regime, denominator="alpha")
        with pytest.raises(ValidationError, match="^n must be"):
            quantile_boundary(Degenerate(s=0.1), n=n, regime=regime)

    def test_distribution_validation(self):
        with pytest.raises(ValidationError):
            Degenerate(s=-0.1)
        with pytest.raises(ValidationError):
            ShiftedBernoulli(q=1.5, t=1.0, s=0.1)
        with pytest.raises(ValidationError):
            ShiftedUniform(a=2.0, b=1.0, s=0.1)
        with pytest.raises(ValidationError):
            ShiftedExponential(lam=0.0, s=0.1)
        with pytest.raises(ValidationError):
            Empirical(np.array([0.1, 0.5]))  # ascending
        with pytest.raises(ValidationError):
            Empirical(np.array([]))


def _profile_params(rng):
    """One random valid instance of each weight-profile class."""
    s = float(rng.uniform(0.0, 1.0))
    a = float(rng.uniform(0.0, 2.0))
    weights = np.sort(rng.uniform(0.05, 1.0, size=int(rng.integers(2, 40))))[::-1]
    return [
        Degenerate(s=s, value=float(rng.uniform(0.1, 3.0))),
        ShiftedBernoulli(q=float(rng.uniform(0.05, 0.95)), t=float(rng.uniform(0.1, 4.0)), s=s),
        ShiftedUniform(a=a, b=a + float(rng.uniform(0.1, 3.0)), s=s),
        ShiftedExponential(lam=float(rng.uniform(0.2, 3.0)), s=s),
        Empirical(weights),
    ]


class TestProfileProtocol:
    @pytest.mark.parametrize("index", range(5), ids=[
        "degenerate", "bernoulli", "uniform", "exponential", "empirical"])
    def test_analytic_maximiser_matches_numeric(self, index):
        # the tolerances of test_polylog_table_numeric_agrees: 0.01 on
        # alpha*, 1e-3 on the lift rho* = 1 + h^{-1}(1 / J*)
        for trial in range(8):
            rng = generator(derive_seed(55, "profile-protocol", trial))
            dist = _profile_params(rng)[index]
            a_exact, j_exact = _alpha_closed_form(dist)
            a_num, j_num = _alpha_numeric(dist, None)
            assert a_exact == pytest.approx(a_num, abs=0.01), dist
            assert entropy_h_inverse(1.0 / j_exact) == pytest.approx(
                entropy_h_inverse(1.0 / j_num), abs=1e-3), dist


class TestTwoWeightRegime:
    def test_switch_threshold_value(self):
        assert two_weight_threshold(100, 6.5) == pytest.approx(
            4.66942148760331, rel=1e-12
        )

    def test_regimes_around_the_switch(self):
        # threshold 4.669 at r=100, ratio 6.5: 4 large stay whole-community,
        # 5 flip to the large class alone
        assert two_weight_regime(100, 4, 0.65, 0.1) is Regime.WHOLE_COMMUNITY
        assert two_weight_regime(100, 5, 0.65, 0.1) is Regime.LARGE_WEIGHT_ONLY

    def test_below_ten_never_flips_at_ratio_two(self):
        for m in range(11):
            assert two_weight_regime(10, m, 0.4, 0.2) is Regime.WHOLE_COMMUNITY

    def test_equal_weights_degenerate(self):
        assert two_weight_regime(50, 30, 0.3, 0.3) is Regime.WHOLE_COMMUNITY

    def test_validation(self):
        with pytest.raises(ValidationError):
            two_weight_threshold(1, 2.0)
        with pytest.raises(ValidationError):
            two_weight_threshold(10, 1.0)
        with pytest.raises(ValidationError):
            two_weight_regime(10, 11, 0.4, 0.2)
        with pytest.raises(ValidationError):
            two_weight_regime(10, 5, 0.2, 0.4)  # max < min


class TestBoundarySurface:
    def test_two_weight_sweep_has_single_kink(self):
        # r=100, ratio 6.5: the optimal prefix jumps from the whole
        # community to the large class between m=4 and m=5
        rows = boundary_surface(
            65536, [0.65, 0.1], compositions=[(m, 100 - m) for m in range(101)]
        )
        sizes = [row.optimal_size for row in rows]
        assert sizes[4] == 100
        assert sizes[5] == 5
        labels = [row.regime for row in rows]
        flips = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert flips == 1
        assert labels[4] == "all classes"
        assert labels[5] == "largest only"

    @pytest.mark.parametrize("target", [-1.0, float("nan"), float("inf")])
    def test_target_is_checked_up_front(self, target):
        with pytest.raises(ValidationError, match="^target must be finite and >= 0, got"):
            boundary_surface(100, [0.5, 0.2], r=4, target=target)

    def test_three_weight_sweep_realizes_three_regimes(self):
        comps = [
            (m1, m2, 30 - m1 - m2) for m1 in range(31) for m2 in range(31 - m1)
        ]
        rows = boundary_surface(65536, [0.6, 0.3, 0.1], compositions=comps)
        assert {r.regime for r in rows} == {
            "all classes",
            "largest+middle",
            "largest only",
        }
        by = {r.composition: r for r in rows}
        assert by[(0, 0, 30)].regime == "all classes"
        assert by[(0, 0, 30)].optimal_size == 30
        assert by[(30, 0, 0)].regime == "largest only"
        assert by[(1, 1, 28)].regime == "all classes"

    def test_single_class_sweep_keeps_everything(self):
        rows = boundary_surface(
            4096, [0.3, 0.1], compositions=[(k, 0) for k in range(2, 13)]
        )
        for row in rows:
            assert row.optimal_size == sum(row.composition)

    def test_feasibility_uses_classes_present(self):
        # no weight-0.9 vertex in the community: its largest pair is 0.2^2
        (row,) = boundary_surface(60000, [0.9, 0.2], compositions=[(0, 40)])
        assert row.rho_star == pytest.approx(10.03, abs=0.01)
        assert row.rho_star * 0.2**2 <= 1.0
        assert row.feasible

    def test_default_grid_from_r(self):
        rows = boundary_surface(4096, [0.4, 0.1], r=10)
        assert len(rows) == 11
        assert rows[0].composition == (0, 10)

    @pytest.mark.parametrize("r, step", [(10, 1), (64, 2), (100, 3)])
    def test_default_three_class_grid_from_r(self, r, step):
        rows = boundary_surface(4096, [0.4, 0.2, 0.1], r=r)
        grid = [(a, b, r - a - b) for a in range(r + 1) for b in range(r + 1)
                if a % step == 0 and b % step == 0 and a + b <= r]
        assert [row.composition for row in rows] == grid
        assert rows == boundary_surface(4096, [0.4, 0.2, 0.1], compositions=grid)

    def test_validation(self):
        with pytest.raises(ValidationError):
            boundary_surface(100, [0.5])
        with pytest.raises(ValidationError):
            boundary_surface(100, [0.2, 0.4])  # not decreasing
        with pytest.raises(ValidationError):
            boundary_surface(100, [0.4, 0.2])  # no compositions, no r
        with pytest.raises(ValidationError):
            boundary_surface(100, [0.4, 0.2], compositions=[(1, 0)])  # size 1

    def test_csv_deterministic(self):
        rows = boundary_surface(4096, [0.4, 0.1], r=6)
        a, b = io.StringIO(), io.StringIO()
        write_surface_csv(rows, a)
        write_surface_csv(rows, b)
        assert a.getvalue() == b.getvalue()
        lines = a.getvalue().splitlines()
        assert lines[0] == "#schema=1"
        assert lines[1] == "count_1,count_2,rho_star,optimal_size,regime"
        assert len(lines) == 2 + 7

    def test_csv_rejects_empty(self):
        with pytest.raises(ValidationError):
            write_surface_csv([], io.StringIO())


class TestBoundaryResultShape:
    def test_json_round_trip_fields(self):
        import json

        res = threshold_scaling(Homogeneous(100, 0.1), range(6))
        blob = json.loads(json.dumps(res.to_json()))
        assert blob["rho_star"] == res.rho_star
        assert blob["subset"] == list(range(6))
        assert blob["feasible"] is True

    def test_entropy_round_trip_consistency(self):
        # the reported lift actually solves the boundary equation
        res = threshold_scaling(Homogeneous(300, 0.02), range(15), target=1.0)
        m = res.metadata["multiplier"]
        assert m * entropy_h(res.rho_star - 1.0) == pytest.approx(1.0, rel=1e-9)
