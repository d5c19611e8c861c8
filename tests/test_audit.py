"""Finite-size condition audits: each check must report the exact lhs/rhs
pair it used, so every test here recomputes the margin from scratch."""

import math

import numpy as np
import pytest

from plantedscan import (
    BudgetError,
    GeneralMatrix,
    Homogeneous,
    PlantedAlternative,
    RankOne,
    ValidationError,
    audit_assumption_1_1,
    audit_assumption_1_2,
    audit_assumption_2,
    audit_assumption_3,
)


def entry(report, name):
    matches = [e for e in report.entries if e.name == name]
    assert len(matches) == 1, f"no unique entry named {name!r}"
    return matches[0]


def two_level_weights(n, community_size, heavy_count, w_heavy, w_light, background=0.2):
    w = np.full(n, background)
    w[:heavy_count] = w_heavy
    w[heavy_count:community_size] = w_light
    return w


class TestCommunitySizeAndDensity:
    def test_homogeneous_subgraph_ratio_is_size_fraction(self):
        # flat model: every subgraph has the same density, so the ratio
        # reduces to |D|/|C|, maximized by the largest admissible size
        model = Homogeneous(4096, 0.3)
        report = audit_assumption_1_1(model, range(64), delta=0.4, gamma=0.25)
        limit = 64 / (4096 / 64) ** 0.25
        k_max = math.ceil(limit) - 1
        assert k_max == 22
        e = entry(report, "small-subgraph density ratio")
        assert e.lhs == pytest.approx(22 / 64, rel=1e-12)
        assert e.rhs == 0.4
        assert e.margin == pytest.approx(0.4 / (22 / 64), rel=1e-12)
        assert not e.passed

    def test_size_margin_at_the_critical_exponent(self):
        # r = n^0.45 against n^(1/2 - 0.05): the two scales coincide, so
        # the margin sits at essentially 1
        n = 4096
        r = int(n ** 0.45)
        report = audit_assumption_1_1(Homogeneous(n, 0.2), range(r), delta=0.05,
                                      gamma=0.3)
        e = entry(report, "community-size r <= n^(1/2-delta)")
        assert e.lhs == r
        assert e.rhs == pytest.approx(n ** 0.45, rel=1e-12)
        assert e.margin == pytest.approx(n ** 0.45 / r, rel=1e-12)
        assert not e.passed
        assert 1.0 <= e.margin < 1.1

    def test_two_level_rank_one_ratio_from_prefix_search(self):
        # heavy/light split with squared weight ratio 42.25: the worst
        # subgraph keeps exactly the 20 heavy vertices
        n, r, heavy = 65536, 100, 20
        w = two_level_weights(n, r, heavy, 0.65, 0.1, background=0.01)
        model = RankOne(w)
        report = audit_assumption_1_1(model, range(r), delta=0.4, gamma=0.1)
        limit = r / (n / r) ** 0.1
        k_max = math.ceil(limit) - 1
        assert k_max == 52
        mean_c = 0.5 * (21.0 ** 2 - (20 * 0.65 ** 2 + 80 * 0.1 ** 2))
        density_c = mean_c / math.comb(r, 2)
        mean_heavy = 0.5 * ((heavy * 0.65) ** 2 - heavy * 0.65 ** 2)
        density_heavy = mean_heavy / math.comb(heavy, 2)
        want = heavy * density_heavy / (r * density_c)
        e = entry(report, "small-subgraph density ratio")
        assert e.lhs == pytest.approx(want, rel=1e-12)
        assert e.lhs > 1.9
        assert not e.passed

    def test_brute_force_matches_homogeneous_closed_form(self):
        # a constant general matrix routes through the subset search while
        # the flat model takes the closed form; both must report the same
        # numbers
        n, p = 64, 0.37
        mat = np.full((n, n), p)
        np.fill_diagonal(mat, 0.0)
        flat = audit_assumption_1_1(Homogeneous(n, p), range(8), delta=0.3, gamma=0.1)
        brute = audit_assumption_1_1(GeneralMatrix(mat), range(8), delta=0.3, gamma=0.1)
        for name in ("small-subgraph density ratio",
                     "density floor 1/density <= r/ln(n/r)"):
            assert entry(brute, name).lhs == pytest.approx(entry(flat, name).lhs, rel=1e-12)
            assert entry(brute, name).margin == pytest.approx(
                entry(flat, name).margin, rel=1e-12)

    def test_general_model_search_budget(self):
        n = 40
        mat = np.full((n, n), 0.2)
        np.fill_diagonal(mat, 0.0)
        with pytest.raises(BudgetError, match="audit budget"):
            audit_assumption_1_1(GeneralMatrix(mat), range(12), delta=0.3,
                                 gamma=0.05, budget=10)

    def test_empty_size_window_is_vacuous(self):
        # gamma = 1 shrinks the admissible window below size 2
        report = audit_assumption_1_1(Homogeneous(4096, 0.3), range(8),
                                      delta=0.3, gamma=1.0)
        e = entry(report, "small-subgraph density ratio")
        assert e.margin == math.inf
        assert e.passed
        assert "vacuous" in e.notes

    def test_density_floor_entry(self):
        report = audit_assumption_1_1(Homogeneous(1024, 0.2), range(32),
                                      delta=0.3, gamma=0.2)
        e = entry(report, "density floor 1/density <= r/ln(n/r)")
        assert e.lhs == pytest.approx(5.0, rel=1e-12)
        assert e.rhs == pytest.approx(32 / math.log(32), rel=1e-12)
        assert not e.passed
        relaxed = audit_assumption_1_1(Homogeneous(1024, 0.2), range(32),
                                       delta=0.3, gamma=0.2, threshold=1.5)
        assert entry(relaxed, "density floor 1/density <= r/ln(n/r)").passed

    def test_zero_density_community_fails_hard(self):
        report = audit_assumption_1_1(Homogeneous(256, 0.0), range(8),
                                      delta=0.3, gamma=0.1)
        for name in ("small-subgraph density ratio",
                     "density floor 1/density <= r/ln(n/r)"):
            e = entry(report, name)
            assert e.margin == 0.0
            assert not e.passed
            assert "density is zero" in e.notes

    def test_parameter_validation(self):
        model = Homogeneous(256, 0.2)
        with pytest.raises(ValidationError, match="delta"):
            audit_assumption_1_1(model, range(8), delta=0.5, gamma=0.1)
        with pytest.raises(ValidationError, match="delta"):
            audit_assumption_1_1(model, range(8), delta=0.0, gamma=0.1)
        with pytest.raises(ValidationError, match="gamma"):
            audit_assumption_1_1(model, range(8), delta=0.3, gamma=0.0)
        with pytest.raises(ValidationError, match=">= 2 vertices"):
            audit_assumption_1_1(model, [3], delta=0.3, gamma=0.1)


class TestSmallCommunityConditions:
    def test_polylog_community_size_value(self):
        n = 65536
        r = int(math.log(n) ** 4)
        report = audit_assumption_1_2(Homogeneous(n, 0.3), range(r))
        e = entry(report, "subpolynomial size: ln r <= ln n")
        assert e.lhs == pytest.approx(math.log(r), rel=1e-12)
        assert e.rhs == pytest.approx(math.log(n), rel=1e-12)
        assert f"{math.log(r) / math.log(n):.4g}" in e.notes

    def test_complete_graph_density_is_vacuous(self):
        report = audit_assumption_1_2(Homogeneous(256, 1.0), range(16))
        e = entry(report, "density log-ratio")
        assert e.lhs == 0.0
        assert e.margin == math.inf
        assert e.passed

    def test_inverse_polynomial_density_value(self):
        n, r = 1024, 16
        report = audit_assumption_1_2(Homogeneous(n, 1.0 / n), range(r))
        e = entry(report, "density log-ratio")
        assert e.lhs == pytest.approx(math.log(n), rel=1e-12)
        assert e.rhs == pytest.approx(math.log(n / r) / math.log(r), rel=1e-12)
        assert e.margin == pytest.approx(e.rhs / math.log(n), rel=1e-12)
        assert not e.passed

    def test_zero_density(self):
        report = audit_assumption_1_2(Homogeneous(256, 0.0), range(8))
        e = entry(report, "density log-ratio")
        assert not e.passed
        assert "density is zero" in e.notes

    def test_needs_two_vertices(self):
        with pytest.raises(ValidationError, match=">= 2 vertices"):
            audit_assumption_1_2(Homogeneous(256, 0.2), [0])


class TestLiftedVariance:
    def test_unlifted_small_probability(self):
        alt = PlantedAlternative((0, 1, 2), 1.0, Homogeneous(10, 0.01))
        report = audit_assumption_2([alt])
        e = report.entries[0]
        assert e.lhs == pytest.approx(0.01, rel=1e-12)
        assert e.rhs == 1.0
        assert e.passed  # margin 100 clears the default threshold

    def test_large_lift_fails(self):
        # rho^2 p = 25 * 0.05 = 1.25: the margin 0.8 is far below the
        # default 10, which encodes "keep rho^2 p under 0.1"
        alt = PlantedAlternative((0, 1, 2, 3), 5.0, Homogeneous(64, 0.05))
        report = audit_assumption_2([alt])
        e = report.entries[0]
        assert e.lhs == pytest.approx(1.25, rel=1e-12)
        assert e.margin == pytest.approx(0.8, rel=1e-12)
        assert not e.passed
        assert "rho=5" in e.notes

    def test_empty_list_is_vacuous(self):
        report = audit_assumption_2([])
        e = report.entries[0]
        assert e.margin == math.inf
        assert e.passed
        assert "no alternatives" in e.notes

    def test_worst_alternative_wins(self):
        model = Homogeneous(32, 0.02)
        mild = PlantedAlternative((0, 1, 2), 1.5, model)
        harsh = PlantedAlternative((4, 5, 6), 3.0, model)
        report = audit_assumption_2([mild, harsh])
        e = report.entries[0]
        assert e.lhs == pytest.approx(9.0 * 0.02, rel=1e-12)
        assert "rho=3" in e.notes


class TestWeightSpread:
    def test_three_to_one_spread_example(self):
        # (0.3/0.1)^2 = 9 against min(27^(2/3), 100 * 0.01) = 1
        w = two_level_weights(2700, 27, 13, 0.3, 0.1)
        report = audit_assumption_3(RankOne(w), range(27))
        e = report.entries[0]
        assert e.lhs == pytest.approx(9.0, rel=1e-12)
        assert e.rhs == pytest.approx(1.0, rel=1e-12)
        assert e.margin == pytest.approx(1.0 / 9.0, rel=1e-12)
        assert not e.passed
        # w_min = 0.1 exactly meets sqrt(r/n), so no floor warning
        assert "below the informative-weight floor" not in e.notes

    def test_constant_weights_pass_by_scale(self):
        w = np.full(65536, 0.5)
        report = audit_assumption_3(RankOne(w), range(256))
        e = report.entries[0]
        assert e.lhs == 1.0
        assert e.margin == pytest.approx(min(256 ** (2.0 / 3.0), 256 * 0.25), rel=1e-12)
        assert e.passed

    def test_weight_floor_warning(self):
        w = two_level_weights(10000, 100, 50, 0.3, 0.05)
        report = audit_assumption_3(RankOne(w), range(100))
        assert "below the informative-weight floor" in report.entries[0].notes

    def test_rank_one_only(self):
        with pytest.raises(ValidationError, match="rank-one"):
            audit_assumption_3(Homogeneous(64, 0.2), range(8))

    def test_needs_two_vertices(self):
        with pytest.raises(ValidationError, match=">= 2 vertices"):
            audit_assumption_3(RankOne(np.full(64, 0.4)), [5])


class TestReportShape:
    def test_margins_recompute_from_reported_sides(self):
        reports = [
            audit_assumption_1_1(Homogeneous(1024, 0.2), range(20), delta=0.3,
                                 gamma=0.2),
            audit_assumption_1_2(Homogeneous(1024, 0.2), range(20)),
            audit_assumption_2([PlantedAlternative((0, 1, 2), 2.0,
                                                   Homogeneous(64, 0.1))]),
            audit_assumption_3(RankOne(np.full(1024, 0.3)), range(20)),
        ]
        for report in reports:
            for e in report.entries:
                if math.isfinite(e.margin) and e.lhs > 0:
                    assert e.margin == pytest.approx(e.rhs / e.lhs, rel=1e-12)
                assert e.passed == (e.margin >= report.threshold)

    def test_json_round_trip(self):
        report = audit_assumption_1_2(Homogeneous(1024, 0.2), range(20))
        out = report.to_json()
        assert out["threshold"] == 10.0
        assert out["all_passed"] == report.all_passed
        assert [e["name"] for e in out["entries"]] == [e.name for e in report.entries]

    def test_text_rendering_marks_failures(self):
        report = audit_assumption_2([PlantedAlternative((0, 1, 2, 3), 5.0,
                                                        Homogeneous(64, 0.05))])
        text = report.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("check")
        assert any("NO" in line for line in lines[1:])
        assert "lifted variance" in text

    def test_all_passed_aggregates(self):
        good = audit_assumption_2([])
        assert good.all_passed
        bad = audit_assumption_1_1(Homogeneous(256, 0.0), range(8),
                                   delta=0.3, gamma=0.1)
        assert not bad.all_passed


class TestThreshold:
    """A margin threshold must be finite and positive, checked before any work."""

    @staticmethod
    def audits(threshold):
        model = RankOne(np.full(64, 0.3))
        return [
            lambda: audit_assumption_1_1(model, range(8), delta=0.3, gamma=0.2,
                                         threshold=threshold),
            lambda: audit_assumption_1_2(model, range(8), threshold=threshold),
            lambda: audit_assumption_2([], threshold=threshold),
            lambda: audit_assumption_3(model, range(8), threshold=threshold),
        ]

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, -math.inf, math.inf, math.nan],
                             ids=["negative", "zero", "-inf", "inf", "nan"])
    def test_rejected_in_every_audit(self, threshold):
        for audit in self.audits(threshold):
            with pytest.raises(ValidationError, match="threshold must be finite and > 0"):
                audit()

    @pytest.mark.parametrize("threshold", ["10", True, None], ids=["str", "bool", "none"])
    def test_non_numbers_are_rejected(self, threshold):
        for audit in self.audits(threshold):
            with pytest.raises(ValidationError, match="threshold must be a number"):
                audit()

    def test_checked_before_the_community(self):
        model = Homogeneous(64, 0.1)
        with pytest.raises(ValidationError, match="threshold"):
            audit_assumption_1_1(model, (0,), delta=0.3, gamma=0.2, threshold=-1.0)
        with pytest.raises(ValidationError, match="threshold"):
            audit_assumption_3(model, (0,), threshold=-1.0)

    def test_zero_density_entries_fail_with_zero_margin(self):
        model = Homogeneous(256, 0.0)
        for report in (audit_assumption_1_1(model, range(16), delta=0.3, gamma=0.1,
                                            threshold=0.5),
                       audit_assumption_1_2(model, range(16), threshold=0.5)):
            zero = [e for e in report.entries if e.notes == "community mean density is zero"]
            assert zero
            for e in zero:
                assert (e.lhs, e.margin, e.passed) == (math.inf, 0.0, False)
                assert e.rhs > 0
