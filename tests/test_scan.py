"""Scan statistic and scan test behaviour.

Brute-force reference maximisers are reimplemented inline so the batched
scan is checked against something that shares none of its code.  Decimal
fixtures come from tests/oracles/frozen_values.py.
"""

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import tracemalloc
import types
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from plantedscan import (
    BudgetError,
    Exhaustive,
    ExperimentConfig,
    Explicit,
    GeneralMatrix,
    GraphSample,
    Homogeneous,
    PlantedAlternative,
    RankOne,
    ScanConfig,
    SubsetFamily,
    ValidationError,
    WeightPrefix,
    estimate_expected_edges,
    estimate_expected_edges_thresholded,
    estimate_from_totals,
    estimate_risk,
    expected_edges_across_null,
    expected_edges_null,
    expected_total_null,
    min_blind_size,
    sample_alternative,
    sample_null,
    scan_known,
    scan_unknown,
    stat_known,
    stat_unknown,
)
from plantedscan import model as model_module
from plantedscan import scan as scan_module
from plantedscan.model import _pair_index
from plantedscan.scan import _blind_floor, _blind_mean, _scores
from plantedscan.seeding import derive_seed, generator


def graph_from_edges(n, edges):
    """Deterministic sample with exactly the given edges."""
    bits = np.zeros(n * (n - 1) // 2, dtype=bool)
    for i, j in edges:
        if i > j:
            i, j = j, i
        bits[i * (2 * n - i - 1) // 2 + j - i - 1] = True
    return GraphSample(n, np.packbits(bits), None, "imported")


def brute_max(n, sizes, stat):
    """Reference maximiser: sizes ascending, lexicographic within a size,
    first strict maximum kept (the documented tie-break)."""
    best_stat, best_subset = -math.inf, None
    for k in sizes:
        for d in itertools.combinations(range(n), k):
            t = stat(d)
            if t > best_stat:
                best_stat, best_subset = t, d
    return best_stat, best_subset


class TestStatKnown:
    def test_sparse_subset_fixture(self):
        # 4 vertices holding 3 edges in an n=100, p=0.1 null: mean 0.6,
        # overshoot ratio 4
        g = graph_from_edges(100, [(0, 1), (1, 2), (2, 3)])
        t = stat_known(Homogeneous(100, 0.1), g, (0, 1, 2, 3))
        assert t == pytest.approx(0.188599519632116, rel=1e-12)

    def test_full_clique_fixture(self):
        # complete 6-subset in an n=50, p=0.05 null; e=15 against mean 0.75
        g = graph_from_edges(50, itertools.combinations(range(6), 2))
        t = stat_known(Homogeneous(50, 0.05), g, range(6))
        assert t == pytest.approx(2.41212028437315, rel=1e-12)

    def test_no_overshoot_is_zero(self):
        g = graph_from_edges(10, [(5, 6)])
        assert stat_known(Homogeneous(10, 0.5), g, (0, 1, 2)) == 0.0

    def test_zero_mean_is_zero(self):
        # a subset whose null mean vanishes carries no evidence
        g = graph_from_edges(10, [(0, 1)])
        assert stat_known(Homogeneous(10, 0.0), g, (0, 1)) == 0.0

    def test_validation(self):
        g = graph_from_edges(10, [])
        with pytest.raises(ValidationError):
            stat_known(Homogeneous(12, 0.5), g, (0, 1))  # n mismatch
        with pytest.raises(ValidationError):
            stat_known(Homogeneous(10, 0.5), g, [])
        with pytest.raises(ValidationError):
            stat_known(Homogeneous(10, 0.5), g, range(10))  # |D| = n


# null means so small that m h(e/m - 1) overflows on a complete graph
TINY_MEAN_MODELS = {
    "homogeneous": Homogeneous(6, 1e-310),
    "rank_one": RankOne(np.full(6, 1e-160)),  # subnormal p_ij
    "general": GeneralMatrix(np.full((6, 6), 1e-306) * (1.0 - np.eye(6))),
}


class TestTinyMeans:
    """At a positive null mean mu too small for m h(c/mu - 1) in floating
    point, a subset scores the equal log form (c ln(c/mu) - c + mu) /
    (k ln(n/k)): finite, and with no warning."""

    @pytest.mark.parametrize("kind", sorted(TINY_MEAN_MODELS))
    def test_statistics_are_the_log_form(self, kind):
        model, n = TINY_MEAN_MODELS[kind], 6
        g = graph_from_edges(n, itertools.combinations(range(n), 2))

        def reference(d):
            k = len(d)
            c, mu = math.comb(k, 2), float(model.within_mean(np.array([d]))[0])
            return 0.0 if c == 0 else (c * (math.log(c) - math.log(mu)) - c + mu) / (
                k * math.log(n / k))

        assert 320.0 < reference((0, 1)) < 335.0
        for family, r in ((Exhaustive(1, 2), 2), (Explicit(((0, 1), (2, 4), (1, 3, 5))), 3)):
            candidates = family_candidates(family, n)
            for d in candidates:
                assert math.isclose(stat_known(model, g, d), reference(d), rel_tol=1e-12)
            (stat, subset), trace = first_max_reference(candidates, reference)
            for kw in ({"keep_trace": True}, {"decide": True}):
                out = scan_known(model, g, ScanConfig(r, 0.2, family), **kw)
                assert out.reject and out.subset == subset
                assert math.isclose(out.statistic, stat, rel_tol=1e-12)
            assert out.statistic == stat_known(model, g, subset)


class TestScanKnown:
    def test_empty_graph(self):
        g = graph_from_edges(10, [])
        out = scan_known(Homogeneous(10, 0.2), g, ScanConfig(r=4))
        assert out.statistic == 0.0
        assert not out.reject

    def test_matches_brute_force(self):
        model = Homogeneous(10, 0.2)
        cfg = ScanConfig(r=4, epsilon=0.2, family=Exhaustive(2, 4))
        for seed in (0, 1, 2):
            g = sample_null(model, seed)
            out = scan_known(model, g, cfg)
            ref_stat, ref_subset = brute_max(
                10, range(2, 5), lambda d: stat_known(model, g, d)
            )
            assert out.statistic == ref_stat
            assert out.subset == ref_subset

    @pytest.mark.parametrize("kind", ["homogeneous", "rank_one", "general"])
    def test_statistic_is_stat_known_of_its_subset(self, kind):
        # the scan's batched null means and the one-subset mean are one code
        # path, so the reported maximum is reproduced exactly
        n = 14
        for seed in range(30):
            rng = np.random.default_rng(seed)
            if kind == "homogeneous":
                model = Homogeneous(n, float(rng.uniform(0.05, 0.6)))
            elif kind == "rank_one":
                model = RankOne(rng.uniform(0.05, 0.8, size=n))
            else:
                m = np.triu(rng.uniform(0.05, 0.6, size=(n, n)), 1)
                model = GeneralMatrix(m + m.T)
            g = sample_null(model, seed)
            out = scan_known(model, g, ScanConfig(r=4))
            assert out.statistic == stat_known(model, g, out.subset)

    def test_clique_rejects(self):
        g = graph_from_edges(50, itertools.combinations(range(6), 2))
        cfg = ScanConfig(r=6, epsilon=0.2, family=Explicit((tuple(range(6)),)))
        out = scan_known(Homogeneous(50, 0.05), g, cfg)
        assert out.threshold == pytest.approx(1.1)
        assert out.reject

    def test_budget_checked_before_work(self):
        g = graph_from_edges(30, [])
        cfg = ScanConfig(r=6, budget=100)
        with pytest.raises(BudgetError, match="budget"):
            scan_known(Homogeneous(30, 0.1), g, cfg)

    def test_family_must_respect_r(self):
        g = graph_from_edges(10, [])
        cfg = ScanConfig(r=3, family=Exhaustive(2, 5))
        with pytest.raises(ValidationError, match="above the scan bound"):
            scan_known(Homogeneous(10, 0.1), g, cfg)

    def test_r_below_n(self):
        g = graph_from_edges(10, [])
        with pytest.raises(ValidationError, match="r must be < n, got r=10, n=10"):
            scan_known(Homogeneous(10, 0.1), g, ScanConfig(r=10))

    def test_config_types(self):
        with pytest.raises(ValidationError, match="epsilon must be a number, got '0.2'"):
            ScanConfig(r=3, epsilon="0.2")
        with pytest.raises(ValidationError, match="budget must be an integer, got 2.5"):
            ScanConfig(r=3, budget=2.5)
        with pytest.raises(ValidationError, match="r must be an integer, got 3.0"):
            ScanConfig(r=3.0)

    def test_tie_break_prefers_small_then_lexicographic(self):
        # two disjoint triangles tie exactly; the lexicographically first wins
        tri = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        g = graph_from_edges(12, tri)
        out = scan_known(Homogeneous(12, 0.1), g, ScanConfig(r=3))
        assert out.subset == (0, 1, 2)
        other = stat_known(Homogeneous(12, 0.1), g, (3, 4, 5))
        assert out.statistic == other

    def test_order_of_explicit_family_is_irrelevant(self):
        model = Homogeneous(12, 0.15)
        g = sample_null(model, 5)
        subsets = [(4, 2, 7), (0, 1), (3, 8, 9, 11), (5, 6), (1, 2, 3)]
        a = scan_known(model, g, ScanConfig(r=4, family=Explicit(tuple(subsets))))
        b = scan_known(model, g, ScanConfig(r=4, family=Explicit(tuple(reversed(subsets)))))
        assert a.statistic == b.statistic
        assert a.subset == b.subset

    def test_weight_prefix_equals_explicit_prefixes(self):
        rng = generator(derive_seed(4, "prefix-test", 0))
        w = rng.uniform(0.1, 0.6, size=14)
        model = RankOne(w)
        g = sample_null(model, 77)
        order = np.argsort(-w, kind="stable")
        prefixes = tuple(tuple(sorted(int(v) for v in order[:k])) for k in range(2, 7))
        a = scan_known(model, g, ScanConfig(r=6, family=WeightPrefix(2, 6)))
        b = scan_known(model, g, ScanConfig(r=6, family=Explicit(prefixes)))
        assert a.statistic == b.statistic
        assert a.subset == b.subset

    @pytest.mark.parametrize("subsets, message", [
        (((0, 1), (2, 12)), "vertex 12 out of range for n=12"),
        (((0, 1), (-1, 3)), "vertex -1 out of range for n=12"),
        (((0, 1, 2), (4, 4, 5)), "duplicate vertex 4 in subset"),
    ], ids=["above-range", "below-range", "repeated"])
    def test_explicit_family_validated_at_scan_time(self, subsets, message):
        # the family is built without knowing n; both scans reject a bad
        # member with the message check_subset gives for it
        g = graph_from_edges(12, [])
        cfg = ScanConfig(r=3, family=Explicit(subsets))
        with pytest.raises(ValidationError, match=message):
            scan_known(Homogeneous(12, 0.1), g, cfg)
        with pytest.raises(ValidationError, match=message):
            scan_unknown(g, cfg)

    @pytest.mark.parametrize("build, message", [
        (lambda: Exhaustive(1.5, 3), "min_size must be an integer, got 1.5"),
        (lambda: Exhaustive(True, 3), "min_size must be an integer, got True"),
        (lambda: WeightPrefix(2, 4.0), "max_size must be an integer, got 4.0"),
        (lambda: SubsetFamily.from_dict({"kind": "exhaustive", "min_size": "x", "max_size": 3}),
         "min_size must be an integer, got 'x'"),
        (lambda: Explicit(((0, "a"),)), "subset vertex must be an integer, got 'a'"),
        (lambda: SubsetFamily.from_dict({"kind": "explicit", "subsets": [[0, 1.5]]}),
         "subset vertex must be an integer, got 1.5"),
    ], ids=["float-size", "bool-size", "float-max", "string-size-config", "string-vertex",
            "float-vertex-config"])
    def test_family_entries_type_checked(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    def test_weight_prefix_needs_weights(self):
        g = graph_from_edges(10, [])
        cfg = ScanConfig(r=4, family=WeightPrefix(2, 4))
        with pytest.raises(ValidationError, match="rank-one"):
            scan_known(Homogeneous(10, 0.1), g, cfg)

    def test_large_r_flagged(self):
        g = graph_from_edges(8, [])
        out = scan_known(Homogeneous(8, 0.1), g, ScanConfig(r=4, family=Exhaustive(2, 3)))
        assert out.metadata.get("large_r") is True

    def test_size_trace(self):
        model = Homogeneous(9, 0.25)
        g = sample_null(model, 11)
        out = scan_known(model, g, ScanConfig(r=4), keep_trace=True)
        assert set(out.size_trace) == {1, 2, 3, 4}
        per_size = [s for s, _ in out.size_trace.values()]
        assert out.statistic == max(per_size)
        k = len(out.subset)
        assert out.size_trace[k] == (out.statistic, out.subset)

    def test_outcome_serializes(self):
        import json

        model = Homogeneous(9, 0.25)
        out = scan_known(model, sample_null(model, 1), ScanConfig(r=3), keep_trace=True)
        blob = json.dumps(out.to_json())
        assert "statistic" in blob


class TestEstimate:
    def test_arithmetic_fixture(self):
        assert estimate_from_totals(100.0, 18.0) == 1.0

    def test_arithmetic_fixture_from_graph(self):
        # 18 cross edges out of D = {0,1,2,3}, 82 more among the rest
        edges = [(0, v) for v in range(4, 13)] + [(1, v) for v in range(13, 22)]
        rest = [p for p in itertools.combinations(range(4, 30), 2)][:82]
        g = graph_from_edges(30, edges + rest)
        assert g.total_edges() == 100
        assert g.edges_across((0, 1, 2, 3)) == 18
        assert estimate_expected_edges(g, (0, 1, 2, 3)) == 1.0

    def test_isolated_subset(self):
        g = graph_from_edges(10, [(4, 5)])
        assert estimate_expected_edges(g, (0, 1)) == 0.0

    def test_empty_graph(self):
        g = graph_from_edges(10, [])
        assert estimate_expected_edges(g, (0, 1, 2)) == 0.0

    def test_radicand_clamped(self):
        # cross > total/2 cannot happen in a graph but can in raw inputs
        assert estimate_from_totals(16.0, 100.0) == 4.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            estimate_from_totals(-1.0, 0.0)
        with pytest.raises(ValidationError):
            estimate_from_totals(10.0, -2.0)

    def test_expectation_identity_rank_one(self):
        # exact expectations in place of counts reproduce the subset mean
        # once both totals carry their half-sum-of-squares correction
        rng = generator(derive_seed(2024, "identity-unit", 0))
        for _ in range(20):
            w = rng.uniform(0.1, 0.3, size=50)
            model = RankOne(w)
            order = np.argsort(-w, kind="stable")
            for k in (4, 10):
                d = np.sort(order[:k])
                assert float(w[d].sum()) <= 0.5 * float(w.sum())
                got = estimate_from_totals(
                    expected_total_null(model) + 0.5 * float((w * w).sum()),
                    expected_edges_across_null(model, d),
                )
                want = expected_edges_null(model, d) + 0.5 * float((w[d] * w[d]).sum())
                assert abs(got / want - 1.0) <= 1e-10

    def test_floor_fixture(self):
        # raw estimate 1 at |D| = 4 against the n = 1024 floor
        edges = [(0, v) for v in range(4, 13)] + [(1, v) for v in range(13, 22)]
        rest = [p for p in itertools.combinations(range(4, 30), 2)][:82]
        g = graph_from_edges(30, edges + rest)
        d = (0, 1, 2, 3)
        assert estimate_expected_edges(g, d) == 1.0
        got = estimate_expected_edges_thresholded(g, d, n=1024)
        assert got == pytest.approx(14.7734463093173, rel=1e-12)

    def test_floor_not_binding_returns_raw(self):
        model = Homogeneous(512, 0.5)
        g = sample_null(model, 3)
        d = tuple(range(64))
        raw = estimate_expected_edges(g, d)
        assert raw > (64 * 64 / 512) * math.log(512 / 64) ** 4
        assert estimate_expected_edges_thresholded(g, d) == raw

    def test_floor_needs_n_above_subset(self):
        g = graph_from_edges(10, [])
        with pytest.raises(ValidationError):
            estimate_expected_edges_thresholded(g, (0, 1, 2), n=3)


class TestStatUnknown:
    def test_frozen_formula_fixture(self):
        # |D| = 4 carrying 30 edges is not realizable in a simple graph
        # (max 6), so this pin is applied at the formula level: mean is the
        # n = 1024 floor, overshoot 30/floor - 1
        mean = np.maximum(_blind_mean(0.0, np.array([0.0])), _blind_floor(1024, 4))
        got = _scores(np.array([30.0]), mean, 4 * math.log(1024 / 4))
        assert float(got[0]) == pytest.approx(0.271606535070808, rel=1e-12)

    def test_below_estimate_is_zero(self):
        # a K4 yields 6 edges, under the n = 1024 floor of 14.77
        g = graph_from_edges(30, itertools.combinations(range(4), 2))
        assert stat_unknown(g, (0, 1, 2, 3), n=1024) == 0.0

    def test_floor_n_must_be_an_integer(self):
        g = graph_from_edges(30, itertools.combinations(range(4), 2))
        with pytest.raises(ValidationError, match="n must be an integer, got 1024.9"):
            stat_unknown(g, (0, 1, 2), n=1024.9)
        with pytest.raises(ValidationError, match="n must be an integer, got True"):
            estimate_expected_edges_thresholded(g, (0, 1, 2), n=True)

    def test_agrees_with_known_mean_when_estimate_concentrates(self):
        # dense regime where the mean estimate lands within a few percent
        # of the truth: blind and known statistics agree within 15%
        model = Homogeneous(512, 0.5)
        c = tuple(range(64))
        alt = PlantedAlternative(c, 1.6, model)
        e0 = expected_edges_null(model, c)
        for i in range(5):
            g = sample_alternative(model, alt, derive_seed(99, "fifteen", i))
            est = estimate_expected_edges_thresholded(g, c)
            assert abs(est / e0 - 1.0) <= 0.15
            blind = stat_unknown(g, c)
            known = stat_known(model, g, c)
            assert abs(blind / known - 1.0) <= 0.15

    def test_validation(self):
        g = graph_from_edges(10, [])
        with pytest.raises(ValidationError):
            stat_unknown(g, (0, 1, 2), n=3)
        with pytest.raises(ValidationError):
            stat_unknown(g, [])


class TestMinBlindSize:
    def test_pin_table(self):
        pins = {1: 1, 7: 2, 8: 2, 9: 3, 26: 3, 27: 3, 28: 4,
                63: 4, 64: 4, 65: 5, 1000: 10}
        for r, k in pins.items():
            assert min_blind_size(r) == k, r

    def test_rejects_bad_r(self):
        with pytest.raises(ValidationError):
            min_blind_size(0)


class TestScanUnknown:
    def test_empty_graph(self):
        g = graph_from_edges(12, [])
        out = scan_unknown(g, ScanConfig(r=8, epsilon=0.3))
        assert out.statistic == 0.0
        assert not out.reject
        assert out.subset == (0, 1)  # smallest size, lexicographically first
        assert out.threshold == pytest.approx(1.1)
        assert out.metadata["size_window"] == [2, 8]

    def test_matches_brute_force(self):
        model = Homogeneous(12, 0.3)
        for seed in (3, 4):
            g = sample_null(model, seed)
            out = scan_unknown(g, ScanConfig(r=8, epsilon=0.3))
            ref_stat, ref_subset = brute_max(
                12, range(2, 9), lambda d: stat_unknown(g, d)
            )
            assert out.statistic == ref_stat
            assert out.subset == ref_subset

    @pytest.mark.parametrize("kind", ["homogeneous", "rank_one"])
    def test_statistic_is_stat_unknown_of_its_subset(self, kind):
        n = 14
        for seed in range(30):
            rng = np.random.default_rng(seed)
            if kind == "homogeneous":
                model = Homogeneous(n, float(rng.uniform(0.05, 0.6)))
            else:
                model = RankOne(rng.uniform(0.05, 0.8, size=n))
            g = sample_null(model, seed)
            out = scan_unknown(g, ScanConfig(r=5))
            assert out.statistic == stat_unknown(g, out.subset)

    def test_family_below_size_floor_rejected(self):
        g = graph_from_edges(40, [])
        cfg = ScanConfig(r=27, family=Exhaustive(2, 5))
        with pytest.raises(ValidationError, match="below the blind floor"):
            scan_unknown(g, cfg)

    def test_weight_prefix_unavailable(self):
        g = graph_from_edges(10, [])
        with pytest.raises(ValidationError, match="no weight order"):
            scan_unknown(g, ScanConfig(r=4, family=WeightPrefix(2, 4)))

    def test_size_and_budget_checks(self):
        g = graph_from_edges(10, [])
        with pytest.raises(ValidationError, match="r must be < n, got r=10, n=10"):
            scan_unknown(g, ScanConfig(r=10))
        with pytest.raises(ValidationError, match="family reaches size 5, above the scan bound r=3"):
            scan_unknown(g, ScanConfig(r=3, family=Exhaustive(2, 5)))
        with pytest.raises(BudgetError, match="family enumerates 837 subsets, over the budget 100"):
            scan_unknown(g, ScanConfig(r=6, budget=100))

    def test_small_subsets_blind_to_any_signal_at_n_512(self):
        # at n = 512 the mean floor (k^2/n) ln^4(n/k) exceeds the largest
        # possible edge count C(k,2) for every k <= 8, so even a complete
        # K8 scores exactly 0: sizes this small are structurally
        # undetectable for the blind test at this scale
        n = 512
        for k in range(2, 9):
            assert (k * k / n) * math.log(n / k) ** 4 > k * (k - 1) / 2
        g = graph_from_edges(n, itertools.combinations(range(8), 2))
        family = Explicit(tuple(tuple(range(k)) for k in range(2, 9)))
        out = scan_unknown(g, ScanConfig(r=8, epsilon=0.5, family=family))
        assert out.statistic == 0.0
        assert not out.reject

    def test_power_at_plantable_scale(self):
        # same n but r = 64, where C(k,2) dwarfs the floor: a rho = 5 plant
        # at p = 0.05 is detected essentially always (oracle run: 200/200
        # rejections with minimum statistic 1.53 against threshold 1.167)
        n, r, rho, eps = 512, 64, 5.0, 0.5
        model = Homogeneous(n, 0.05)
        c = tuple(range(4, 4 + r))
        alt = PlantedAlternative(c, rho, model)
        chain = tuple(c[:k] for k in range(min_blind_size(r), r + 1))
        cfg = ScanConfig(r=r, epsilon=eps, family=Explicit(chain))
        rejections = sum(
            scan_unknown(
                sample_alternative(model, alt, derive_seed(777, "power", i)), cfg
            ).reject
            for i in range(40)
        )
        assert rejections >= 36  # empirical power >= 0.9

        null_rejections = sum(
            scan_unknown(sample_null(model, derive_seed(777, "power-null", i)), cfg).reject
            for i in range(15)
        )
        assert null_rejections == 0

    def test_estimate_accuracy_improves_with_n(self):
        # median relative error of the mean estimate shrinks along
        # n = 128, 256, 512 with r coupled as floor(n^(1/3))
        medians = []
        for n in (128, 256, 512):
            k = round(n ** (1 / 3))
            if k**3 > n:
                k -= 1
            d = tuple(range(k))
            model = Homogeneous(n, 0.5)
            e0 = expected_edges_null(model, d)
            errors = [
                abs(
                    estimate_expected_edges(
                        sample_null(model, derive_seed(31337, f"lemma-{n}", i)), d
                    )
                    / e0
                    - 1.0
                )
                for i in range(200)
            ]
            medians.append(float(np.median(errors)))
        assert medians[0] > medians[1] > medians[2]


class TestScanMonotonicity:
    def _add_edge(self, sample, i, j):
        bits = np.unpackbits(sample.packed, count=sample.pair_count).view(bool).copy()
        bits[sample.pair_index(i, j)] = True
        return GraphSample(sample.n, np.packbits(bits), None, "imported")

    def test_adding_edges_inside_argmax_never_decreases(self):
        model = Homogeneous(10, 0.2)
        cfg = ScanConfig(r=4, family=Exhaustive(2, 4))
        for seed in range(8):
            g = sample_null(model, seed)
            out = scan_known(model, g, cfg)
            d = out.subset
            missing = [
                (a, b) for a, b in itertools.combinations(d, 2) if not g.has_edge(a, b)
            ]
            for a, b in missing:
                denser = self._add_edge(g, a, b)
                grown = scan_known(model, denser, cfg)
                assert grown.statistic >= out.statistic


def _random_model(kind, n, rng):
    if kind == "homogeneous":
        return Homogeneous(n, float(rng.uniform(0.05, 0.6)))
    if kind == "rank_one":
        return RankOne(rng.uniform(0.05, 0.8, size=n))
    m = np.triu(rng.uniform(0.0, 0.6, size=(n, n)) * (rng.random((n, n)) < 0.8), 1)
    return GeneralMatrix(m + m.T)


def first_max_reference(candidates, stat):
    """First strict maximum over candidates (in scan order), overall and
    per size, evaluated one subset at a time."""
    best, trace = (-math.inf, None), {}
    for d in candidates:
        t = stat(d)
        if t > best[0]:
            best = (t, d)
        if len(d) not in trace or t > trace[len(d)][0]:
            trace[len(d)] = (t, d)
    return best, trace


@st.composite
def scan_cases(draw):
    n = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["homogeneous", "rank_one", "general"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = _random_model(kind, n, rng)
    r = draw(st.integers(1, min(n - 1, 4)))
    lo = draw(st.integers(1, r))
    families = ["exhaustive", "explicit"] + (["weight_prefix"] if kind == "rank_one" else [])
    family_kind = draw(st.sampled_from(families))
    if family_kind == "exhaustive":
        family = Exhaustive(lo, r)
        candidates = [d for k in range(lo, r + 1) for d in itertools.combinations(range(n), k)]
    elif family_kind == "weight_prefix":
        family = WeightPrefix(lo, r)
        candidates = family_candidates(family, n, model)
    else:
        subsets = [tuple(int(v) for v in rng.choice(n, size=int(rng.integers(lo, r + 1)),
                                                    replace=False))
                   for _ in range(draw(st.integers(1, 30)))]
        family = Explicit(tuple(subsets))
        candidates = sorted((tuple(sorted(d)) for d in subsets), key=lambda d: (len(d), d))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    bits = rng.random(n * (n - 1) // 2) < density
    g = GraphSample(n, np.packbits(bits), None, "imported")
    return model, g, r, family, candidates


def count_dtype(k):
    """The dtype a scan counts size k in: the narrowest unsigned one that
    holds C(k, 2), uint8 up to k = 23 and uint16 up to k = 362."""
    return np.uint8 if k <= 23 else np.uint16 if k <= 362 else np.uint32


def direct_counts(g, rows):
    """e(D) of every row of an (m, k) array on g alone, as the one-subset
    statistics count them."""
    return model_module._edge_counts([g], rows)[0]


def random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    return GraphSample(n, np.packbits(rng.random(n * (n - 1) // 2) < density), None, "imported")


@contextlib.contextmanager
def batch_rows(rows):
    """_BATCH_ROWS set to rows wherever the scan reads it: the rows per
    gather of a count at computed positions, and per batch of a plan build."""
    with mock.patch.object(model_module, "_BATCH_ROWS", rows), \
            mock.patch.object(scan_module, "_BATCH_ROWS", rows):
        yield


@st.composite
def exhaustive_cases(draw):
    """A graph on n <= 64 or 65..130 vertices (one to three mask words), an
    Exhaustive family of at most 400,000 subsets that reaches an extended
    size wherever that fits, and the rows per gather: 1, 2, 3 or 7 where
    that cuts the family into at most 7,000 gathers, else the default."""
    n = draw(st.integers(4, 64) | st.integers(65, 130) | st.sampled_from([64, 65, 129]))
    lo = draw(st.integers(1, 3))
    top = lo
    while top < min(4, n - 1) and sum(math.comb(n, k) for k in range(lo, top + 2)) <= 400_000:
        top += 1
    hi = draw(st.integers(min(max(lo + 1, 3), top), top))
    count = sum(math.comb(n, k) for k in range(lo, hi + 1))
    rows = draw(st.sampled_from([b for b in (1, 2, 3, 7) if count <= 7000 * b]
                                + [scan_module._BATCH_ROWS]))
    g = random_graph(n, draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
                     draw(st.integers(0, 2**32 - 1)))
    return g, Exhaustive(lo, hi), rows


class TestScanPlan:
    """The compiled plan against subset-by-subset evaluation, and its cache."""

    @settings(max_examples=50, deadline=None)
    @given(exhaustive_cases())
    @example((random_graph(129, 0.5, 1), Exhaustive(2, 3), scan_module._BATCH_ROWS))
    @example((random_graph(65, 0.5, 2), Exhaustive(1, 3), 7))
    def test_extended_counts_equal_direct_counts(self, case):
        # every size above the first and above 2 is counted from the size
        # below; every size the scan counts must receive exactly the direct
        # counts of all its rows, whatever the rows per gather.  Each best
        # call here returns 0.0, so the sizes left uncounted must be exactly
        # those whose bound, and that of every size extending from them, is
        # all zero, and the sizes scored exactly those whose own bound is not
        g, family, rows = case
        lo, hi = family.size_range(g.n)
        counts_of = scan_module._Size.counts
        for model in (Homogeneous(g.n, 0.3), None):
            scored, counted = [], []

            def record(size, sample, counts, low=0):
                scored.append((size, counts))
                return 0.0, 0

            def count(size, samples, below=None):
                # outside a batch scope a scan counts a batch of one
                counts = counts_of(size, samples, below)
                assert samples == [g] and counts.shape == (1, len(size.rows))
                counted.append((size, counts[0]))
                return counts

            plan = scan_module._plan.__wrapped__(family, g.n, model)
            extended = [k > max(lo, 2) for k in range(lo, hi + 1)]
            assert [size.starts is not None for size in plan] == extended
            assert [size.masks is not None for size in plan] == extended[1:] + [False]
            with batch_rows(rows), \
                    mock.patch.object(scan_module._Size, "best", record), \
                    mock.patch.object(scan_module._Size, "counts", count):
                scan_module._run_plan(plan, g, keep_trace=False)
            live = [bool(size.bound.any()) for size in plan]
            reach = live[:]
            for j in reversed(range(len(plan) - 1)):
                reach[j] = reach[j] or (extended[j + 1] and reach[j + 1])
            sizes = range(lo, hi + 1)
            assert [size.rows.shape[1] for size, _ in counted] == [
                k for k, on in zip(sizes, reach) if on]
            assert [size.rows.shape[1] for size, _ in scored] == [
                k for k, on in zip(sizes, live) if on]
            # extended, extended from or neither, scored or only feeding the
            # size above: each size gets the direct counts of all its rows
            for size, counts in counted + scored:
                assert counts.dtype == count_dtype(size.rows.shape[1])
                assert np.array_equal(counts, direct_counts(g, size.rows))

    @settings(max_examples=40, deadline=None)
    @given(scan_cases())
    def test_chunk_size_changes_no_outcome(self, case):
        model, g, r, family, candidates = case
        assume(not isinstance(family, WeightPrefix))
        k_min = min_blind_size(r)
        blind = [d for d in candidates if len(d) >= k_min]
        runs = [(family, model, lambda: scan_known(model, g, ScanConfig(r, family=family),
                                                   keep_trace=True))]
        if blind:
            blind_family = (Explicit(tuple(blind)) if isinstance(family, Explicit)
                            else Exhaustive(max(family.min_size, k_min), r))
            runs.append((blind_family, None, lambda: scan_unknown(
                g, ScanConfig(r, family=blind_family), keep_trace=True)))

        def outcomes():
            return [(o.statistic, o.subset, o.size_trace, o.metadata["subsets_evaluated"])
                    for o in (run() for _, _, run in runs)]

        scan_module._plan.cache_clear()
        default = outcomes()
        refs = [first_max_reference(candidates, lambda d: stat_known(model, g, d))]
        if blind:
            refs.append(first_max_reference(blind, lambda d: stat_unknown(g, d)))
        assert default == [(*best, trace, len(cands)) for (best, trace), cands
                           in zip(refs, (candidates, blind))]
        best = scan_module._Size.best
        for rows in (1, 2, 3, 7):
            scored = []

            def record(size, sample, counts, low=0):
                scored.append((size, len(counts)))
                return best(size, sample, counts, low)

            scan_module._plan.cache_clear()
            try:
                with batch_rows(rows), mock.patch.object(scan_module._Size, "best", record):
                    assert outcomes() == default
            finally:
                scan_module._plan.cache_clear()
            # each best call scores the counts of all of one size's rows, and
            # no size twice; there is none only where every bound table is all zero
            assert all(length == len(size.rows) for size, length in scored)
            assert len({id(size) for size, _ in scored}) == len(scored)
            assert scored or not any(size.bound.any() for f, m, _ in runs
                                     for size in scan_module._plan.__wrapped__(f, g.n, m))

    @settings(max_examples=80, deadline=None)
    @given(scan_cases())
    def test_scans_equal_first_maximum_of_one_subset_statistics(self, case):
        model, g, r, family, candidates = case
        out = scan_known(model, g, ScanConfig(r, family=family), keep_trace=True)
        best, trace = first_max_reference(candidates, lambda d: stat_known(model, g, d))
        assert (out.statistic, out.subset) == best
        assert out.size_trace == trace
        assert out.metadata["subsets_evaluated"] == len(candidates)
        k_min = min_blind_size(r)
        blind = [d for d in candidates if len(d) >= k_min]
        if isinstance(family, WeightPrefix) or not blind:
            return
        if isinstance(family, Explicit):
            family = Explicit(tuple(blind))
        else:
            family = Exhaustive(max(family.min_size, k_min), r)
        out = scan_unknown(g, ScanConfig(r, family=family), keep_trace=True)
        best, trace = first_max_reference(blind, lambda d: stat_unknown(g, d))
        assert (out.statistic, out.subset) == best
        assert out.size_trace == trace
        assert out.metadata["subsets_evaluated"] == len(blind)

    def test_models_with_equal_n_get_their_own_plans(self):
        rng = np.random.default_rng(3)
        a, b = (RankOne(rng.uniform(0.05, 0.5, size=10)) for _ in range(2))
        g = sample_null(a, 1)
        cfg = ScanConfig(r=3)
        outcomes = {}
        for _ in range(2):
            for name, model in (("a", a), ("b", b)):
                out = scan_known(model, g, cfg)
                ref = brute_max(10, range(1, 4), lambda d: stat_known(model, g, d))
                assert (out.statistic, out.subset) == ref
                outcomes[name] = out.statistic
        assert outcomes["a"] != outcomes["b"]

    def test_estimate_risk_builds_each_plan_once(self):
        model = RankOne(np.random.default_rng(5).uniform(0.05, 0.5, size=12))
        for test in ("scan_known", "scan_unknown"):
            config = ExperimentConfig(model=model, test=test, r=3, rho=2.0, communities=2,
                                      null_replications=4, alt_replications=3, workers=1)
            scan_module._plan.cache_clear()
            estimate_risk(config)
            info = scan_module._plan.cache_info()
            assert (info.misses, info.hits) == (1, 4 + 2 * 3 - 1)

    def test_layer_past_one_slice(self):
        n = 60
        assert math.comb(n, 3) > scan_module._BATCH_ROWS
        cfg = ScanConfig(r=3, family=Exhaustive(3, 3))
        model = Homogeneous(n, 0.1)
        # all rows score 0.0: the first row of the layer is reported
        g = graph_from_edges(n, [])
        for out in (scan_known(model, g, cfg, keep_trace=True),
                    scan_unknown(g, cfg, keep_trace=True)):
            assert (out.statistic, out.subset) == (0.0, (0, 1, 2))
            assert out.size_trace == {3: (0.0, (0, 1, 2))}
            assert out.metadata["subsets_evaluated"] == math.comb(n, 3)
        # the maximum is the layer's last row, past its first _BATCH_ROWS rows
        g = graph_from_edges(n, [(57, 58), (57, 59), (58, 59)])
        out = scan_known(model, g, cfg, keep_trace=True)
        assert out.subset == (57, 58, 59)
        assert out.statistic == stat_known(model, g, (57, 58, 59))
        assert out.size_trace == {3: (out.statistic, (57, 58, 59))}

    def test_zero_mean_rows_score_zero(self):
        # pairs inside {0, 1, 2} have p = 0 but carry edges in the graph
        m = np.full((6, 6), 0.3)
        m[:3, :3] = 0.0
        np.fill_diagonal(m, 0.0)
        model = GeneralMatrix(m)
        g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
        cfg = ScanConfig(r=3, family=Explicit(((0, 1), (0, 1, 2), (3, 4, 5))))
        out = scan_known(model, g, cfg, keep_trace=True)
        assert out.size_trace[2] == (0.0, (0, 1))
        assert out.subset == (3, 4, 5) and out.statistic > 0.0
        assert stat_known(model, g, (0, 1, 2)) == 0.0

    def test_sizes_above_half_n(self):
        # C(30, 15) is about 1.5e8: a plan must not pass through the sizes
        # below min_size on its way to 26..28
        n, family = 30, Exhaustive(26, 28)
        plan = scan_module._plan.__wrapped__(family, n, None)
        for k, layer in zip(range(26, 29), plan):
            assert layer.rows.tolist() == [list(d) for d in itertools.combinations(range(n), k)]
        assert sum(layer.rows.shape[0] for layer in plan) == family.count(n) == 31_900
        # and the scans over such a family, against every subset
        n, r = 14, 12
        model = Homogeneous(n, 0.5)
        g = sample_null(model, 4)
        cfg = ScanConfig(r=r, family=Exhaustive(10, r))
        candidates = [d for k in range(10, r + 1) for d in itertools.combinations(range(n), k)]
        out = scan_known(model, g, cfg, keep_trace=True)
        best, trace = first_max_reference(candidates, lambda d: stat_known(model, g, d))
        assert (out.statistic, out.subset) == best and out.size_trace == trace
        out = scan_unknown(g, cfg, keep_trace=True)
        best, trace = first_max_reference(candidates, lambda d: stat_unknown(g, d))
        assert (out.statistic, out.subset) == best and out.size_trace == trace

    def test_plan_memory_is_its_layers(self):
        # the tables for sizes 17 and 18 of n = 20 take 92 kB; the size-10
        # table alone would take 7.4 MB
        tracemalloc.start()
        try:
            plan = scan_module._plan.__wrapped__(Exhaustive(17, 18), 20, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(array.nbytes for layer in plan
                   for array in (layer.rows, layer.masks) if array is not None)
        assert [layer.rows.shape for layer in plan] == [(1140, 17), (190, 18)]
        # size 18 is counted from size 17: one mask word per size-17 row
        assert [layer.masks is not None and layer.masks.shape for layer in plan] == [
            (1140, 1), False]
        assert peak < 2 * held


def dense_best(size, sample, low=0):
    """np.argmax/max over _scores of a plan size's rows on sample, from
    direct counts, with the rows whose count is below low scoring 0.0: the
    reference its evaluator must equal bit for bit, in int64 arithmetic."""
    counts = direct_counts(sample, size.rows).astype(np.int64)
    if size.means is None:
        cross = sample._degrees[size.rows].sum(axis=1) - 2 * counts
        means = np.maximum(_blind_mean(float(sample.total_edges()), cross), size.floor)
    else:
        means = size.means
    stats = np.where(counts >= low, _scores(counts, means, size.norm), 0.0)
    i = int(np.argmax(stats))
    return stats[i].hex(), i


def popcount_path(size):
    """Whether the size's counts come from, or feed, a popcount: it extends
    the size below or the next size extends it.  Any other size is counted
    pair by pair alone."""
    return size.starts is not None or size.masks is not None


def check_best_rows(model, g, family):
    """Run the known and the blind plan over family on g.  Each size the
    scan scores, once at most, must return the dense reference: from the
    counts and the least count the scan passes it, over the rows that reach
    that count, and from its direct counts over all its rows; and those
    counts must be the direct ones.  Returns per size scored (size, the
    counts the scan passed, its direct counts, its (statistic, row) over all
    its rows)."""
    calls = []
    best = scan_module._Size.best

    def record(size, sample, counts, low=0):
        out = best(size, sample, counts, low)
        calls.append((size, low, counts, out))
        return out

    for m in (model, None):
        plan = scan_module._plan.__wrapped__(family, g.n, m)
        with mock.patch.object(scan_module._Size, "best", record):
            scan_module._run_plan(plan, g, keep_trace=False)
    assert len({id(size) for size, *_ in calls}) == len(calls)
    seen = []
    for size, low, counts, (stat, row) in calls:
        assert (stat.hex(), row) == dense_best(size, g, low)
        ref = dense_best(size, g)
        direct = direct_counts(g, size.rows)
        stat, row = size.best(g, direct)
        assert (stat.hex(), row) == ref
        assert np.array_equal(counts, direct)
        seen.append((size, counts, direct, (stat, row)))
    return seen


def zero_block_model(n):
    """p = 0 inside {0, 1, 2}, 0.3 elsewhere."""
    m = np.full((n, n), 0.3)
    m[:3, :3] = 0.0
    np.fill_diagonal(m, 0.0)
    return GeneralMatrix(m)


# inputs the property test always runs, named for what each covers
EVALUATOR_EXAMPLES = {
    "below_floor": (Homogeneous(30, 0.3), random_graph(30, 0.3, 1), Exhaustive(2, 3)),
    # K_6 less the edge {0, 1}: pairs and triangles pass the blind floor,
    # but none exceeds its blind mean
    "above_floor_cold": (Homogeneous(6, 0.7),
                         graph_from_edges(6, [e for e in itertools.combinations(range(6), 2)
                                              if e != (0, 1)]),
                         Exhaustive(2, 3)),
    "blind_hot": (Homogeneous(12, 0.6), random_graph(12, 0.6, 0), Exhaustive(3, 5)),
    "explicit": (Homogeneous(12, 0.6), random_graph(12, 0.6, 0),
                 Explicit(tuple(itertools.combinations(range(9), 4)))),
    "all_cold": (RankOne(np.linspace(0.1, 0.5, 20)), graph_from_edges(20, []), Exhaustive(1, 3)),
    # p = 1/2 gives the 4-subsets a mean of exactly 3.0, and no 4-subset
    # holds more than the triangle's 3 edges
    "count_at_mean": (Homogeneous(20, 0.5), graph_from_edges(20, [(17, 18), (17, 19), (18, 19)]),
                      Exhaustive(4, 4)),
    "zero_means": (zero_block_model(10), graph_from_edges(10, [(0, 1), (0, 2), (1, 2), (3, 4)]),
                   Exhaustive(2, 3)),
    # the complete graph on two mask words: every row of a size ties
    "ties": (Homogeneous(70, 0.4), random_graph(70, 1.0, 0), Exhaustive(2, 3)),
    # sizes 22 and 23 hold at most 231 and 253 edges, the extended size 24
    # up to 276
    "K=253": (Homogeneous(25, 0.9), random_graph(25, 0.9, 3), Exhaustive(22, 24)),
    "K=276": (Homogeneous(25, 0.9), random_graph(25, 1.0, 3), Exhaustive(22, 24)),
}


@st.composite
def evaluator_cases(draw):
    """A model and a graph on n <= 40 or 65..100 vertices, and either an
    Exhaustive window, whose sizes extend or are extended where they can,
    or a few subsets of one size, which the scan counts pair by pair."""
    n = draw(st.integers(4, 40) | st.integers(65, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["homogeneous", "rank_one", "general", "zero_block"]))
    model = zero_block_model(n) if kind == "zero_block" else _random_model(kind, n, rng)
    g = random_graph(n, draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])), int(rng.integers(2**32)))
    if draw(st.booleans()):
        lo = draw(st.integers(1, 3))
        return model, g, Exhaustive(lo, draw(st.integers(lo, 3)))
    k = draw(st.integers(1, min(n - 1, 8)))
    count = draw(st.integers(1, 12))
    return model, g, Explicit(tuple(tuple(int(v) for v in rng.choice(n, size=k, replace=False))
                                    for _ in range(count)))


class TestChunkEvaluator:
    """A size's (statistic, row) is the first maximum of _scores over its
    rows whose count its bound table leaves in, (0.0, 0) when none scores
    above 0; the scan scores only their hot rows.  A blind
    table is 0.0 up to the floor, which bounds every blind mean from below,
    so no row at or below the floor is ever scored."""

    @settings(max_examples=60, deadline=None)
    @given(evaluator_cases())
    @example(EVALUATOR_EXAMPLES["below_floor"])
    @example(EVALUATOR_EXAMPLES["above_floor_cold"])
    @example(EVALUATOR_EXAMPLES["blind_hot"])
    @example(EVALUATOR_EXAMPLES["explicit"])
    @example(EVALUATOR_EXAMPLES["all_cold"])
    @example(EVALUATOR_EXAMPLES["count_at_mean"])
    @example(EVALUATOR_EXAMPLES["zero_means"])
    @example(EVALUATOR_EXAMPLES["ties"])
    @example(EVALUATOR_EXAMPLES["K=253"])
    @example(EVALUATOR_EXAMPLES["K=276"])
    def test_best_row_is_the_dense_first_maximum(self, case):
        check_best_rows(*case)

    def test_examples_cover_what_they_are_named_for(self):
        def blind(name):
            return [(size, counts, np.flatnonzero(direct > size.floor), out)
                    for size, counts, direct, out in check_best_rows(*EVALUATOR_EXAMPLES[name])
                    if size.means is None]

        # every blind size lies below its floor, so its bound is all zero:
        # the scan neither counts nor scores it
        assert not blind("below_floor")
        _, g, family = EVALUATOR_EXAMPLES["below_floor"]
        plan = scan_module._plan.__wrapped__(family, g.n, None)
        assert all(size.floor >= len(size.bound) - 1 and not size.bound.any() for size in plan)
        parts = blind("above_floor_cold")
        assert parts and all(near.size and out == (0.0, 0) for _, _, near, out in parts)
        assert any(near[0] > 0 for _, _, near, _ in parts)
        # a hot row that is not the first of those above the floor
        parts = blind("blind_hot")
        assert any(popcount_path(size) and stat > 0.0 and row in near and row != near[0]
                   for size, _, near, (stat, row) in parts)
        parts = blind("explicit")
        assert parts and all(not popcount_path(size) and 0 < near.size < len(counts)
                             and stat > 0.0 for size, counts, near, (stat, _) in parts)
        for name in ("all_cold", "count_at_mean"):
            outs = [out for *_, out in check_best_rows(*EVALUATOR_EXAMPLES[name])]
            assert set(outs) == {(0.0, 0)}
        model, g, _ = EVALUATOR_EXAMPLES["count_at_mean"]
        assert model.within_mean(np.array([[0, 17, 18, 19]]))[0] == 3.0
        assert g.edges_within((0, 17, 18, 19)) == 3
        model, g, _ = EVALUATOR_EXAMPLES["zero_means"]
        assert model.within_mean(np.array([[0, 1, 2]]))[0] == 0.0
        assert g.edges_within((0, 1, 2)) == 3
        known = [out for size, *_, out in check_best_rows(*EVALUATOR_EXAMPLES["ties"])
                 if size.means is not None]
        assert known and all(row == 0 and stat > 0.0 for stat, row in known)
        for name, top in (("K=253", 253), ("K=276", 276)):
            counts = [c for size, c, *_ in check_best_rows(*EVALUATOR_EXAMPLES[name])
                      if size.rows.shape[1] == 24]
            assert len(counts) == 2 and max(int(c.max()) for c in counts) >= top


def statistic_keys(g, candidates, model):
    """For each candidate, what its one-subset statistic on g is a function
    of: its size, its count, and its null mean under model or, blind
    (model None), its degree sum."""
    keys = {}
    for k, group in itertools.groupby(sorted(set(candidates), key=len), key=len):
        group = list(group)
        rows = np.array(group)
        other = g._degrees[rows].sum(axis=1) if model is None else model.within_mean(rows)
        keys.update(zip(group, zip(itertools.repeat(k), direct_counts(g, rows).tolist(),
                                   other.tolist())))
    return keys


def keyed_reference(g, candidates, model):
    """first_max_reference over candidates of stat_known under model (or
    stat_unknown for None), calling it once per distinct statistic key."""
    keys, memo = statistic_keys(g, candidates, model), {}

    def stat(d):
        if keys[d] not in memo:
            memo[keys[d]] = stat_unknown(g, d) if model is None else stat_known(model, g, d)
        return memo[keys[d]]

    return first_max_reference(candidates, stat)


@st.composite
def untraced_cases(draw):
    """A model of any of the four kinds and a graph on n <= 40 or 65..100
    vertices; an Exhaustive window of at most 6,000 subsets or up to 30
    subsets of sizes up to 8; and the rows per gather: 1, 2, 3 or 7 where
    that cuts the family into at most 3,000 gathers, else the default."""
    n = draw(st.integers(4, 40) | st.integers(65, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["homogeneous", "rank_one", "general", "zero_block"]))
    model = zero_block_model(n) if kind == "zero_block" else _random_model(kind, n, rng)
    g = random_graph(n, draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])), int(rng.integers(2**32)))
    if draw(st.booleans()):
        lo = draw(st.integers(1, max(k for k in (1, 2, 3) if k < n and math.comb(n, k) <= 6000)))
        top = lo
        while top < min(5, n - 1) and Exhaustive(lo, top + 1).count(n) <= 6000:
            top += 1
        family = Exhaustive(lo, draw(st.integers(lo, top)))
    else:
        hi = draw(st.integers(1, min(n - 1, 8)))
        family = Explicit(tuple(
            tuple(int(v) for v in rng.choice(n, size=int(rng.integers(1, hi + 1)), replace=False))
            for _ in range(draw(st.integers(1, 30)))))
    count = family.count(n)
    rows = draw(st.sampled_from([b for b in (1, 2, 3, 7) if count <= 3000 * b]
                                + [scan_module._BATCH_ROWS]))
    return model, g, family, rows


def family_candidates(family, n, model=None):
    """The family's subsets in scan order (sizes ascending, lexicographic);
    a weight-prefix family's from model's weight order."""
    if isinstance(family, Explicit):
        return sorted(family.subsets, key=lambda d: (len(d), d))
    if isinstance(family, WeightPrefix):
        order = np.argsort(-model.weights, kind="stable")
        lo, hi = family.size_range(n)
        return [tuple(sorted(int(v) for v in order[:k])) for k in range(lo, hi + 1)]
    lo, hi = family.size_range(n)
    return [d for k in range(lo, hi + 1) for d in itertools.combinations(range(n), k)]


class TestPruning:
    """A scan scores only the rows whose count its size's bound table leaves
    in against the running best, and counts no size that cannot beat it."""

    @settings(max_examples=40, deadline=None)
    @given(evaluator_cases(), st.integers(0, 2**32 - 1))
    def test_bound_holds_for_every_count_and_mean(self, case, seed):
        model, g, family = case
        rng = np.random.default_rng(seed)
        for m in (model, None):
            for size in scan_module._plan.__wrapped__(family, g.n, m):
                k = size.rows.shape[1]
                counts = np.arange(k * (k - 1) // 2 + 1)
                assert len(size.bound) in (1, len(counts))
                assert (np.diff(size.bound) >= 0).all()
                bound = size.bound[np.minimum(counts, len(size.bound) - 1)]
                if m is None:
                    # a blind mean is max(estimate, floor): anything from the floor up
                    low = size.floor
                    means = np.concatenate([[low, np.nextafter(low, np.inf)],
                                            low * (1.0 + rng.exponential(1.0, 50))])
                else:
                    means = np.unique(size.means)
                    low = means[means > 0.0].min(initial=np.inf)
                # means just below each count, across the kernel's 1e-4 Taylor switch
                near = counts[1:, None] / (1.0 + 10.0 ** -np.arange(1.0, 16.0))
                near = np.concatenate([near.ravel(), np.nextafter(counts[1:], 0.0)])
                means = np.concatenate([means, near[near >= low]])
                shape = (len(means), len(counts))
                scores = _scores(np.broadcast_to(counts, shape),
                                 np.broadcast_to(means[:, None], shape), size.norm)
                assert (scores <= bound).all()

    def test_bound_tables_never_outweigh_their_rows(self):
        # one row per size: a weight-prefix size above 2 keeps no table
        model = RankOne(np.linspace(0.05, 0.5, 200))
        plan = scan_module._plan.__wrapped__(WeightPrefix(1, 150), 200, model)
        assert [len(size.bound) for size in plan[:3]] == [1, 2, 1]
        assert all(size.bound is scan_module._NO_BOUND for size in plan[2:])
        plan = scan_module._plan.__wrapped__(Exhaustive(1, 3), 200, model)
        assert [len(size.bound) for size in plan] == [1, 2, 4]

    @settings(max_examples=30, deadline=None)
    @given(untraced_cases())
    @example((*EVALUATOR_EXAMPLES["ties"], scan_module._BATCH_ROWS))
    def test_untraced_scans_equal_first_maximum_of_one_subset_statistics(self, case):
        # the untraced twin of TestScanPlan's traced test: without a trace
        # the scan prunes against its overall running best
        model, g, family, rows = case
        r = family.size_range(g.n)[1]
        candidates = family_candidates(family, g.n)
        blind = [d for d in candidates if len(d) >= min_blind_size(r)]
        runs = [(candidates, model, lambda: scan_known(model, g, ScanConfig(r, family=family)))]
        if blind:
            blind_family = (Explicit(tuple(blind)) if isinstance(family, Explicit)
                            else Exhaustive(max(family.min_size, min_blind_size(r)), r))
            runs.append((blind, None, lambda: scan_unknown(g, ScanConfig(r, family=blind_family))))
        scan_module._plan.cache_clear()
        try:
            with batch_rows(rows):
                outs = [run() for *_, run in runs]
        finally:
            scan_module._plan.cache_clear()
        for out, (cands, m, _) in zip(outs, runs):
            (stat, subset), _ = keyed_reference(g, cands, m)
            assert (out.statistic.hex(), out.subset) == (stat.hex(), subset)
            assert out.size_trace is None
            assert out.metadata["subsets_evaluated"] == len(cands)

    def test_dead_sizes_are_not_counted(self):
        # at n = 40 the blind floor (k^2/n) ln(n/k)^4 is at least C(k, 2) for
        # k = 2, 3, 4: no row of those sizes can score above 0.0 on any graph
        plan = scan_module._plan.__wrapped__(Exhaustive(2, 4), 40, None)
        assert all(size.floor >= len(size.bound) - 1 and not size.bound.any() for size in plan)

        def fail(*args):
            raise AssertionError("a dead size was counted")

        model = RankOne(np.random.default_rng(0).uniform(0.05, 0.45, size=40))
        for g in (sample_null(model, 1), random_graph(40, 1.0, 0)):
            with mock.patch.object(scan_module._Size, "counts", fail), \
                    mock.patch.object(scan_module, "_edge_counts", fail), \
                    mock.patch.object(scan_module, "_adjacency_stack", fail):
                traced = scan_unknown(g, ScanConfig(r=4), keep_trace=True)
                untraced = scan_unknown(g, ScanConfig(r=4))
            for out in (traced, untraced):
                assert (out.statistic, out.subset) == (0.0, (0, 1))
                assert out.metadata["subsets_evaluated"] == sum(
                    math.comb(40, k) for k in (2, 3, 4))
            assert traced.size_trace == {k: (0.0, tuple(range(k))) for k in (2, 3, 4)}

    def test_live_size_counted_from_dead_ones(self):
        # at n = 20 sizes 2 and 3 are dead and size 4 is not; size 4 extends
        # 3, which extends 2, so all three are counted but only 4 is scored
        n = 20
        rng = np.random.default_rng(7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [pairs[i] for i in np.flatnonzero(rng.random(len(pairs)) < 0.2)]
        g = graph_from_edges(n, edges + list(itertools.combinations((2, 5, 11, 17, 18), 2)))
        plan = scan_module._plan.__wrapped__(Exhaustive(2, 4), n, None)
        assert [bool(size.bound.any()) for size in plan] == [False, False, True]
        assert [size.starts is not None for size in plan] == [False, True, True]
        candidates = family_candidates(Exhaustive(2, 4), n)
        ref, ref_trace = keyed_reference(g, candidates, None)
        assert ref[0] > 0.0
        best, counts_of = scan_module._Size.best, scan_module._Size.counts
        for keep_trace in (True, False):
            scored, counted = [], []

            def record_best(size, *args):
                scored.append(size.rows.shape[1])
                return best(size, *args)

            def record_counts(size, *args):
                counted.append(size.rows.shape[1])
                return counts_of(size, *args)

            with mock.patch.object(scan_module._Size, "best", record_best), \
                    mock.patch.object(scan_module._Size, "counts", record_counts):
                out = scan_unknown(g, ScanConfig(r=4), keep_trace=keep_trace)
            assert (out.statistic, out.subset) == ref
            assert out.size_trace == (ref_trace if keep_trace else None)
            assert out.metadata["subsets_evaluated"] == len(candidates)
            assert counted == [2, 3, 4] and set(scored) == {4}


def naive_counts(g, rows):
    """e(D) of every row on g from a dense adjacency matrix unpacked from
    its bits, pair by pair."""
    adj = np.zeros((g.n, g.n), dtype=np.int64)
    adj[np.triu_indices(g.n, 1)] = np.unpackbits(g.packed)[: g.pair_count]
    return [int(adj[np.ix_(row, row)].sum()) for row in rows]


def dense_graph_rows(seed, k, m):
    """Four graphs of density 0.999 on 400 vertices and m random k-subsets:
    a 363-subset holds about 65,637 edges, past uint16."""
    rng = np.random.default_rng(seed)
    rows = np.sort([rng.choice(400, size=k, replace=False) for _ in range(m)], axis=1)
    return [random_graph(400, 0.999, s) for s in range(4)], rows


@st.composite
def direct_count_cases(draw):
    """One to four graphs on n <= 64 or 65..130 vertices, up to 40 random
    row-sorted k-subsets (int32 or int64, k <= 14), the rows per block (1,
    2, 3, 7 or the default) and the positions per block (1 to 300 or the
    default): small blocks cut the rows into several row blocks and their
    pair columns into several head-column blocks."""
    n = draw(st.integers(2, 64) | st.integers(65, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, m = draw(st.integers(1, min(n, 14))), draw(st.integers(1, 40))
    rows = np.sort([rng.choice(n, size=k, replace=False) for _ in range(m)], axis=1)
    graphs = [random_graph(n, draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])), int(rng.integers(2**32)))
              for _ in range(draw(st.integers(1, 4)))]
    return (graphs, rows.astype(draw(st.sampled_from([np.int32, np.int64]))),
            draw(st.sampled_from([1, 2, 3, 7, scan_module._BATCH_ROWS])),
            draw(st.integers(1, 300) | st.just(model_module._PAIR_BLOCK)))


class TestDirectCounts:
    """Every size that does not extend the one below, and every one-subset
    statistic, counts its rows' pairs with _edge_counts over a list of
    samples: each block's pair positions computed once and gathered from
    every sample."""

    @settings(max_examples=80, deadline=None)
    @given(direct_count_cases())
    @example((*dense_graph_rows(1, 362, 1), scan_module._BATCH_ROWS, model_module._PAIR_BLOCK))
    @example((*dense_graph_rows(1, 363, 16), scan_module._BATCH_ROWS, model_module._PAIR_BLOCK))
    @example((*dense_graph_rows(2, 363, 3), 2, 300))
    @example(([random_graph(70, 0.5, s) for s in range(3)],
              np.array([range(0, 70, 5), range(1, 70, 5)]), 1, 20))
    def test_batched_counts_are_the_naive_counts(self, case):
        graphs, rows, batch_rows_, block = case
        m, k = rows.shape
        naive = [naive_counts(g, rows) for g in graphs]
        positions = model_module._pair_positions
        calls = []

        def record(n, block_rows, a, b):
            pos = positions(n, block_rows, a, b)
            calls.append(pos.shape)
            return pos

        with batch_rows(batch_rows_), mock.patch.object(model_module, "_PAIR_BLOCK", block), \
                mock.patch.object(model_module, "_pair_positions", record):
            counts = model_module._edge_counts(graphs, rows)
            batched = calls[:]
            for b, g in enumerate(graphs):
                calls.clear()
                assert model_module._edge_counts([g], rows).tolist() == counts[b : b + 1].tolist()
                assert calls == batched
        assert counts.shape == (len(graphs), m) and counts.dtype == count_dtype(k)
        assert counts.tolist() == naive
        # one call per block, whatever the samples: at most _BATCH_ROWS rows,
        # and at most _PAIR_BLOCK positions or one row's pairs of one head
        assert all(r <= batch_rows_ and (r * p <= block or r == 1 and p <= k - 1)
                   for r, p in batched)
        assert sum(r * p for r, p in batched) == m * (k * (k - 1) // 2)
        if k == 363:
            assert max(max(c) for c in naive) > np.iinfo(np.uint16).max

    def test_small_blocks_cut_rows_and_heads(self):
        # the small-block examples above run blocks of fewer than all rows
        # and of several head-column widths
        for graphs, rows, batch_rows_, block in (
                (*dense_graph_rows(2, 363, 3), 2, 300),
                ([random_graph(70, 0.5, 0)], np.array([range(0, 70, 5), range(1, 70, 5)]), 1, 20)):
            positions, shapes = model_module._pair_positions, []

            def record(n, block_rows, a, b):
                shapes.append((len(block_rows), np.size(a)))
                return positions(n, block_rows, a, b)

            with batch_rows(batch_rows_), mock.patch.object(model_module, "_PAIR_BLOCK", block), \
                    mock.patch.object(model_module, "_pair_positions", record):
                model_module._edge_counts(graphs, rows)
            assert min(r for r, _ in shapes) < len(rows) and len({p for _, p in shapes}) > 1

    def test_positions_at_the_vertex_cap(self):
        # at n = 2^16 the last pairs' positions pass 2^31; no graph is
        # sampled: the counts read a complete triangle that takes no memory
        n = 1 << 16
        top = (n - 3, n - 2, n - 1)
        complete = types.SimpleNamespace(
            n=n, packed=np.broadcast_to(np.uint8(0xFF), (n * (n - 1) // 16,)))
        family = Explicit(((0, n - 1), (1, 2, n - 1), top))
        model = RankOne(np.linspace(0.01, 0.5, n))  # the last vertices are the heaviest
        positions, seen = model_module._pair_positions, []

        def record(*args):
            seen.append(positions(*args))
            return seen[-1]

        for fam, m in ((family, model), (family, None), (WeightPrefix(2, 3), model)):
            plan = scan_module._plan.__wrapped__(fam, n, m)
            rows = plan[-1].rows
            assert rows[-1].tolist() == list(top)
            expected = [[int(_pair_index(n, np.int64(i), np.int64(j)))
                         for i, j in itertools.combinations(row, 2)] for row in rows.tolist()]
            seen.clear()
            with mock.patch.object(model_module, "_pair_positions", record):
                assert plan[-1].counts([complete]).tolist() == [[3] * len(rows)]
            assert [pos.tolist() for pos in seen] == [expected]
            assert expected[-1][-1] == n * (n - 1) // 2 - 1
        # an int32 table, as exhaustive sizes come, is widened before its arithmetic
        seen.clear()
        with mock.patch.object(model_module, "_pair_positions", record):
            model_module._edge_counts([complete], np.array([top], dtype=np.int32))
        assert [pos.tolist() for pos in seen] == [expected[-1:]]


def planted_graph(n, density, block, seed):
    """A graph of the given density with each pair inside block present
    with probability 0.9 instead."""
    rng = np.random.default_rng(seed)
    bits = rng.random(n * (n - 1) // 2) < density
    block = np.sort(np.asarray(block))
    a, b = np.triu_indices(len(block), 1)
    pos = _pair_index(n, block[a], block[b])
    bits[pos] = rng.random(len(pos)) < 0.9
    return GraphSample(n, np.packbits(bits), None, "imported")


@st.composite
def decide_cases(draw):
    """A model of each kind and a graph with a planted dense block on
    n <= 40 or 65..100 vertices; an Exhaustive window of at most 6,000
    subsets, up to 30 Explicit subsets (the block's among them), or for a
    rank-one model a WeightPrefix window; and epsilon."""
    n = draw(st.integers(4, 40) | st.integers(65, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["homogeneous", "rank_one", "general"]))
    model = _random_model(kind, n, rng)
    block = tuple(int(v) for v in rng.choice(n, size=draw(st.integers(2, min(n - 1, 8))),
                                             replace=False))
    g = planted_graph(n, draw(st.sampled_from([0.0, 0.1, 0.3])), block, int(rng.integers(2**32)))
    kinds = ["exhaustive", "explicit"] + (["weight_prefix"] if kind == "rank_one" else [])
    family_kind = draw(st.sampled_from(kinds))
    if family_kind == "exhaustive":
        lo = draw(st.integers(1, max(k for k in (1, 2, 3) if k < n and math.comb(n, k) <= 6000)))
        top = lo
        while top < min(5, n - 1) and Exhaustive(lo, top + 1).count(n) <= 6000:
            top += 1
        family = Exhaustive(lo, draw(st.integers(lo, top)))
    elif family_kind == "weight_prefix":
        lo = draw(st.integers(1, 3))
        family = WeightPrefix(lo, draw(st.integers(lo, min(n - 1, 12))))
    else:
        hi = draw(st.integers(1, min(n - 1, 8)))
        family = Explicit((block,) + tuple(
            tuple(int(v) for v in rng.choice(n, size=int(rng.integers(1, hi + 1)), replace=False))
            for _ in range(draw(st.integers(0, 29)))))
    return model, g, family, draw(st.sampled_from([0.05, 0.5, 2.0, 8.0]))


def decide_runs(model, g, family):
    """(model, family, scan) for the known scan over family and, where it has
    sizes at or above the blind floor, the blind scan over those; scan takes
    epsilon and the keyword arguments of scan_known and scan_unknown."""
    r = family.size_range(g.n)[1]
    runs = [(model, family, lambda eps, **kw: scan_known(model, g, ScanConfig(r, eps, family),
                                                        **kw))]
    k_min = min_blind_size(r)
    if isinstance(family, Exhaustive):
        blind = Exhaustive(max(family.min_size, k_min), r)
    else:
        subsets = [d for d in family_candidates(family, g.n, model) if len(d) >= k_min]
        blind = Explicit(tuple(subsets)) if subsets else None
    if blind is not None:
        runs.append((None, blind,
                     lambda eps, **kw: scan_unknown(g, ScanConfig(r, eps, blind), **kw)))
    return runs


# inputs the decide property always runs: each scan rejects on some and
# not on others, on one and two mask words, and a weight-prefix plan's
# sizes above 2 keep the one-entry table that rules no row out
DECIDE_EXAMPLES = {
    "small": (Homogeneous(12, 0.1), planted_graph(12, 0.1, range(6), 0), Exhaustive(1, 4), 0.5),
    "two_words": (Homogeneous(70, 0.05), planted_graph(70, 0.05, range(60, 66), 1),
                  Exhaustive(2, 3), 0.2),
    "blind": (Homogeneous(30, 0.05), planted_graph(30, 0.05, range(8), 2),
              Explicit(tuple(tuple(range(k)) for k in range(2, 9))), 0.5),
    "weight_prefix": (RankOne(np.linspace(0.3, 0.05, 20)), planted_graph(20, 0.1, range(6), 3),
                      WeightPrefix(1, 8), 0.2),
    "null": (GeneralMatrix(np.full((80, 80), 0.1) - 0.1 * np.eye(80)),
             random_graph(80, 0.1, 4), Exhaustive(1, 2), 0.2),
}


class TestDecide:
    """scan_known and scan_unknown with decide=True score only the rows
    that can reach the threshold: the decision is the full scan's, and where
    it rejects so is the whole outcome."""

    @settings(max_examples=60, deadline=None)
    @given(decide_cases())
    @example(DECIDE_EXAMPLES["small"])
    @example(DECIDE_EXAMPLES["two_words"])
    @example(DECIDE_EXAMPLES["blind"])
    @example(DECIDE_EXAMPLES["weight_prefix"])
    @example(DECIDE_EXAMPLES["null"])
    def test_decisions_are_the_full_scans(self, case):
        model, g, family, epsilon = case
        for m, sizes, scan in decide_runs(model, g, family):
            full = scan(epsilon)
            # besides epsilon, thresholds within an ulp or so of the maximum,
            # on either side (1 + eps/2 known, 1 + eps/3 blind)
            near = (2.0 if m is not None else 3.0) * (full.statistic - 1.0)
            near = [near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)] if near > 0 else []
            for eps in [epsilon] + near:
                full, decided = scan(eps), scan(eps, decide=True)
                assert decided.reject == full.reject
                assert decided.statistic <= full.statistic
                assert decided.metadata == full.metadata and decided.size_trace is None
                if full.reject:
                    assert (decided.statistic.hex(), decided.subset) == (
                        full.statistic.hex(), full.subset)
            # the tie: a floor at the exact maximum keeps the full outcome,
            # and one an ulp above it leaves a lower bound below the floor
            plan = scan_module._plan(sizes, g.n, m)
            stat, subset, _, evaluated = scan_module._run_plan(plan, g, False)
            if stat > 0.0:
                assert scan_module._run_plan(plan, g, False, stat) == (
                    stat, subset, None, evaluated)
                above = np.nextafter(stat, np.inf)
                low, _, _, count = scan_module._run_plan(plan, g, False, above)
                assert low < above and count == evaluated

    def test_a_row_scoring_exactly_its_bound_reaches_an_equal_floor(self):
        # the plan's tables carry a 1e-9 margin, so no row scores exactly its
        # bound; a one-row size whose table is its own score from its count
        # up is still a valid bound, and a floor at that score keeps the row
        model, g = Homogeneous(12, 0.1), random_graph(12, 0.9, 0)
        row = (0, 1, 2, 3, 4)
        stat, count = stat_known(model, g, row), g.edges_within(row)
        size = scan_module._plan(Explicit((row,)), g.n, model)[0]
        table = np.where(np.arange(math.comb(len(row), 2) + 1) >= count, stat, 0.0)
        plan = (dataclasses.replace(size, bound=table),)
        assert stat > 0.0
        assert scan_module._run_plan(plan, g, False, stat) == (stat, row, None, 1)
        assert scan_module._run_plan(plan, g, False, np.nextafter(stat, np.inf))[0] == 0.0

    def test_examples_cover_both_decisions(self):
        decisions = {}
        for model, g, family, eps in DECIDE_EXAMPLES.values():
            for m, _, scan in decide_runs(model, g, family):
                decisions.setdefault(m is None, set()).add(scan(eps, decide=True).reject)
        assert decisions == {False: {True, False}, True: {True, False}}
        model, g, family, _ = DECIDE_EXAMPLES["weight_prefix"]
        plan = scan_module._plan(family, g.n, model)
        assert all(size.bound is scan_module._NO_BOUND for size in plan[2:])
        assert DECIDE_EXAMPLES["two_words"][1].n > 64

    def test_infinite_epsilon_never_rejects(self):
        for model, g, family, _ in DECIDE_EXAMPLES.values():
            for _, _, scan in decide_runs(model, g, family):
                out = scan(math.inf, decide=True)
                assert not out.reject and out.threshold == math.inf

    def test_decide_keeps_no_trace(self):
        model, g, family, eps = DECIDE_EXAMPLES["small"]
        for _, _, scan in decide_runs(model, g, family):
            with pytest.raises(ValidationError, match="trace"):
                scan(eps, keep_trace=True, decide=True)


@st.composite
def batch_cases(draw):
    """decide_cases' model, family and epsilon with one to seven graphs on
    its n: its planted graph and others, planted or not, of drawn densities;
    and a cap on a batch scope's tables of 1 B to 40 kB, so that a scope of
    the graphs the cap allows holds anything from one graph to all of them."""
    model, g, family, epsilon = draw(decide_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graphs = [g]
    for _ in range(draw(st.integers(0, 6))):
        density, seed = draw(st.sampled_from([0.0, 0.1, 0.3, 0.9])), int(rng.integers(2**32))
        graphs.append(planted_graph(g.n, density, rng.choice(g.n, size=min(g.n - 1, 6),
                                                             replace=False), seed)
                      if draw(st.booleans()) else random_graph(g.n, density, seed))
    return model, graphs, family, epsilon, draw(st.integers(1, 40_000))


def table_bytes(scope):
    """The bytes of the count tables, best rows and adjacency rows a batch
    scope holds."""
    adjacency = vars(scope).get("adjacency")
    return (sum(table.nbytes for _, tables in scope.tables.values()
                for table in tables if table is not None)
            + sum(a.nbytes for record in scope.records.values() for a in record)
            + getattr(adjacency, "nbytes", 0))


def dropped(scope):
    """Whether a batch scope holds no count table, no best rows and no
    adjacency rows."""
    return not scope.tables and not scope.records and "adjacency" not in vars(scope)


class TestBatchScope:
    """Inside a batch scope the scans of its samples share count tables,
    each plan size counted once for all of them; every outcome is still the
    one the scan gives alone, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(batch_cases())
    @example((DECIDE_EXAMPLES["two_words"][0],
              [planted_graph(70, 0.05, range(60, 66), seed) for seed in range(4)],
              Exhaustive(2, 3), 0.2, 1))
    @example((DECIDE_EXAMPLES["weight_prefix"][0],
              [planted_graph(20, 0.1, range(6), seed) for seed in range(3)],
              WeightPrefix(1, 8), 0.2, 40_000))
    def test_outcomes_are_the_standalone_scans(self, case):
        model, graphs, family, epsilon, cap = case
        n = graphs[0].n
        # an equal graph that is not one of the scopes' samples
        outside = GraphSample(n, graphs[0].packed, None, "imported")
        r = family.size_range(n)[1]
        counts_of = scan_module._Size.counts
        counted = []

        def count(size, samples, below=None):
            counted.append((size, len(samples)))
            return counts_of(size, samples, below)

        # the known and the blind scan in scopes of their own, as a risk
        # estimate opens them, each sized for its family
        for i, (_, run_family, _) in enumerate(decide_runs(model, graphs[0], family)):
            scans = {id(g): decide_runs(model, g, family)[i][2] for g in graphs + [outside]}

            def outcomes(gs, **kw):
                return [json.dumps(scans[id(g)](epsilon, **kw).to_json()) for g in gs]

            with mock.patch.object(scan_module, "_BATCH_BYTES", cap):
                per_scope = scan_module._batch_graphs(ScanConfig(r, family=run_family), n)
            assert per_scope >= 1
            # the scopes a risk estimate would open, then one of every graph,
            # above the cap wherever the cap allows fewer
            scopes = [graphs[s : s + per_scope]
                      for s in range(0, len(graphs), per_scope)] + [graphs]
            for kw in ({}, {"keep_trace": True}, {"decide": True}):
                alone = outcomes(graphs, **kw)
                for scope_graphs in scopes:
                    counted.clear()
                    with mock.patch.object(scan_module._Size, "counts", count), \
                            scan_module._batch(scope_graphs) as scope:
                        batched = outcomes(scope_graphs, **kw)
                        # a graph scanned twice counts nothing more
                        assert outcomes(scope_graphs[:1], **kw) == batched[:1]
                        assert len({id(size) for size, _ in counted}) == len(counted)
                        assert all(b == len(scope_graphs) for _, b in counted)
                        if 1 < len(scope_graphs) <= per_scope:
                            assert table_bytes(scope) <= cap
                        held, counted[:] = table_bytes(scope), []
                        # a graph outside the scope counts alone, and adds no table
                        assert outcomes([outside], **kw) == alone[:1]
                        assert all(b == 1 for _, b in counted) and table_bytes(scope) == held
                    assert dropped(scope)
                    start = graphs.index(scope_graphs[0])
                    assert batched == alone[start : start + len(batched)]

    def test_adjacency_rows_are_built_once_per_scope(self):
        # two known plans with an extended size read one stack of the
        # scope's three graphs; a scan alone builds its own
        n, cfg = 70, ScanConfig(3, family=Exhaustive(2, 3))
        graphs = [planted_graph(n, 0.1, range(60, 66), seed) for seed in range(3)]
        attributes = [set(vars(g)) for g in graphs]
        models = (Homogeneous(n, 0.1), RankOne(np.linspace(0.05, 0.3, n)))
        stack, built = scan_module._adjacency_stack, []

        def build(samples):
            rows = stack(samples)
            built.append((len(samples), weakref.ref(rows)))
            return rows

        with mock.patch.object(scan_module, "_adjacency_stack", build):
            with scan_module._batch(graphs) as scope:
                for g in graphs:
                    for model in models:
                        scan_known(model, g, cfg, keep_trace=True)
                assert len(scope.tables) == 2 and [b for b, _ in built] == [3]
                j = np.arange(n)
                for b, g in enumerate(graphs):
                    bits = built[0][1]()[b][:, j >> 6] >> (j & 63).astype(np.uint64) & 1
                    assert np.array_equal(bits.astype(bool), g.adjacency_matrix())
            assert dropped(scope) and built[0][1]() is None
            scan_known(models[0], graphs[0], cfg)
            assert [b for b, _ in built] == [3, 1] and built[1][1]() is None
            with pytest.raises(ValidationError, match="trace"):
                with scan_module._batch(graphs) as scope:
                    scan_known(models[0], graphs[0], cfg)
                    scan_known(models[0], graphs[0], cfg, keep_trace=True, decide=True)
            assert [b for b, _ in built] == [3, 1, 3] and built[2][1]() is None
        assert dropped(scope)
        # no sample keeps adjacency rows of its own
        for g, before in zip(graphs, attributes):
            assert set(vars(g)) - before <= {"_degrees", "_edge_total"}

    def test_tables_are_dropped_when_a_scan_raises(self):
        model, g, family, eps = DECIDE_EXAMPLES["small"]
        graphs = [g, planted_graph(12, 0.3, range(6), 1)]
        with pytest.raises(ValidationError, match="trace"):
            with scan_module._batch(graphs) as scope:
                scan_known(model, g, ScanConfig(4, eps, family), decide=True)
                assert table_bytes(scope) > 0
                scan_known(model, g, ScanConfig(4, eps, family), keep_trace=True, decide=True)
        assert dropped(scope) and scan_module._BATCH.get() is None
        # and a scope is left on any exception, its tables dropped
        with pytest.raises(KeyError):
            with scan_module._batch(graphs) as scope:
                scan_unknown(g, ScanConfig(4, eps))
                raise KeyError
        assert dropped(scope) and scan_module._BATCH.get() is None


@functools.lru_cache(maxsize=4)
def all_subsets(n, k):
    """Every k-subset of range(n), lexicographic, as an (C(n, k), k) array."""
    return np.array(list(itertools.combinations(range(n), k))).reshape(-1, k)


def hot_reference(model, g, family, threshold):
    """The deciding known scan's (statistic, subset) on g, brute force: for
    each size k of the Exhaustive family, every k-subset in lexicographic
    order, counted on the dense adjacency matrix; the ones whose count
    reaches c, the least count whose plan bound entry reaches threshold,
    scored elementwise by _scores (stat_known's values, one subset at a
    time); the first strict maximum over the sizes ascending, and (0.0, the
    family's first subset) when no such subset is hot."""
    adj = g.adjacency_matrix()
    best = (0.0, tuple(range(family.size_range(g.n)[0])))
    for size in scan_module._plan(family, g.n, model):
        k = size.rows.shape[1]
        rows = all_subsets(g.n, k)
        counts = np.zeros(len(rows), dtype=np.int64)
        for a, b in itertools.combinations(range(k), 2):
            counts += adj[rows[:, a], rows[:, b]]
        near = np.flatnonzero(counts >= np.searchsorted(size.bound, threshold, "left"))
        if near.size:
            scores = _scores(counts[near], model.within_mean(rows[near]), size.norm)
            i = int(np.argmax(scores))
            if scores[i] > best[0]:
                best = (float(scores[i]), tuple(int(v) for v in rows[near[i]]))
    return best


@st.composite
def grown_cases(draw):
    """A model of each kind; one to six graphs on 5..40 or 65..100 vertices
    (one or two mask words), planted with a dense block or not, of drawn
    densities; an Exhaustive(lo, hi) window with hi from 3 to 5 of at most
    200,000 subsets; epsilon; and the block size of the batch's scoring
    passes, None for the default or the most hot rows of a table, and
    parents of a grown size, that one block holds."""
    n = draw(st.integers(5, 40) | st.integers(65, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = _random_model(draw(st.sampled_from(["homogeneous", "rank_one", "general"])), n, rng)
    hi = draw(st.integers(3, max(k for k in (3, 4, 5)
                                 if k < n and Exhaustive(1, k).count(n) <= 200_000)))
    family = Exhaustive(draw(st.integers(1, hi)), hi)
    graphs = []
    for _ in range(draw(st.integers(1, 6))):
        density, seed = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3])), int(rng.integers(2**32))
        block = rng.choice(n, size=int(rng.integers(2, min(n - 1, 8) + 1)), replace=False)
        graphs.append(planted_graph(n, density, block, seed) if draw(st.booleans())
                      else random_graph(n, density, seed))
    return (model, graphs, family, draw(st.sampled_from([0.05, 0.2, 0.5, 2.0])),
            draw(st.sampled_from([None, 1, 3, 40])))


@contextlib.contextmanager
def scoring_blocks(block, n):
    """Scoring passes whose blocks hold at most block hot rows of a table
    (or one graph's) and grow at most block parents; the defaults for None."""
    if block is None:
        yield
        return
    with mock.patch.object(scan_module, "_BATCH_ROWS", block), \
            mock.patch.object(scan_module, "_BATCH_BYTES", 16 * n * block):
        yield


# cases the grown-size property always runs: the largest size grown on one
# and on two mask words, planted or not, and past the candidate limit (a
# complete graph), where the size's own table is read instead
GROWN_EXAMPLES = {
    "one_word": (RankOne(np.linspace(0.05, 0.45, 40)),
                 [sample_null(RankOne(np.linspace(0.05, 0.45, 40)), s) for s in range(3)]
                 + [planted_graph(40, 0.05, range(10, 16), 5)], Exhaustive(1, 4), 0.2, None),
    "two_words": (Homogeneous(70, 0.005), [planted_graph(70, 0.005, range(60, 66), 0),
                                           random_graph(70, 0.005, 1)], Exhaustive(2, 3), 0.2,
                  None),
    "past_the_limit": (Homogeneous(12, 0.05), [random_graph(12, 1.0, 0), random_graph(12, 0.0, 1)],
                       Exhaustive(1, 5), 0.5, None),
    # 4-sets with three edges tie; (0, 1, 6, 8) grows from (0, 1, 6) before
    # (0, 1, 3, 8) grows from (0, 1, 8), and the smaller row must win
    "tie": (Homogeneous(30, 0.005), [graph_from_edges(30, [(0, 1), (0, 6), (1, 8), (2, 7), (2, 9),
                                                          (3, 8), (4, 8), (5, 8), (7, 8)])],
            Exhaustive(1, 4), 0.2, None),
}
# the same tie with each parent grown in a block of its own
GROWN_EXAMPLES["tie_across_blocks"] = GROWN_EXAMPLES["tie"][:4] + (1,)
# the tie's graph on 11 vertices: 14 parents grow 154 candidates, 0.47 of
# the 330 size-4 rows and above the 2^(1-4) that may be grown
GROWN_EXAMPLES["over_the_cutoff"] = (Homogeneous(11, 0.02), [graph_from_edges(
    11, [(0, 1), (0, 6), (1, 8), (2, 7), (2, 9), (3, 8), (4, 8), (5, 8), (7, 8)])],
    Exhaustive(1, 4), 0.2, None)


class TestGrownSizes:
    """A deciding known scan in a batch scope scores each size once for the
    whole batch, and grows the largest size from the size below by the
    peeling bound instead of counting it; every outcome is still the
    brute-force one, bit for bit."""

    def test_insertion_ranks_are_the_table_rows(self):
        for n, hi in ((5, 4), (9, 5), (24, 4), (66, 3)):
            tables = [rows for rows, _ in model_module._combination_tables(n, 1, hi)]
            for rows, grown in zip(tables, tables[1:]):
                index = {tuple(row): i for i, row in enumerate(grown.tolist())}
                pairs = [(row, v) for row in rows.tolist() for v in range(n) if v not in row]
                ranks = model_module._insertion_ranks(
                    n, np.array([row for row, _ in pairs], dtype=rows.dtype),
                    np.array([v for _, v in pairs]))
                assert ranks.tolist() == [index[tuple(sorted(row + [v]))] for row, v in pairs]

    @settings(max_examples=40, deadline=None)
    @given(grown_cases())
    @example(GROWN_EXAMPLES["one_word"])
    @example(GROWN_EXAMPLES["two_words"])
    @example(GROWN_EXAMPLES["past_the_limit"])
    @example(GROWN_EXAMPLES["tie"])
    @example(GROWN_EXAMPLES["tie_across_blocks"])
    @example(GROWN_EXAMPLES["over_the_cutoff"])
    @example(GROWN_EXAMPLES["one_word"][:4] + (3,))
    def test_outcomes_are_the_brute_force_ones(self, case):
        model, graphs, family, epsilon, block = case
        n, r = graphs[0].n, family.size_range(graphs[0].n)[1]
        # an equal graph outside the scope is scanned in it as a batch of one
        outside = GraphSample(n, graphs[0].packed, None, "imported")
        full = max(scan_known(model, g, ScanConfig(r, epsilon, family)).statistic
                   for g in graphs)
        # besides epsilon, thresholds within an ulp or so of the largest maximum
        near = 2.0 * (full - 1.0)
        for eps in [epsilon] + ([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)]
                                if near > 0.0 else []):
            cfg = ScanConfig(r, eps, family)
            with scoring_blocks(block, n), scan_module._batch(graphs):
                outs = [scan_known(model, g, cfg, decide=True) for g in graphs + [outside]]
            metadata = {"subsets_evaluated": family.count(n)}
            if r >= n / 2:
                metadata["large_r"] = True
            for g, out in zip(graphs + [outside], outs):
                stat, subset = hot_reference(model, g, family, out.threshold)
                assert (out.statistic.hex(), out.subset) == (stat.hex(), subset)
                assert out.reject == (stat >= out.threshold) and out.metadata == metadata
                if stat > 0.0:
                    assert stat_known(model, g, subset) == stat

    def test_examples_cover_what_they_are_named_for(self):
        grown_of = scan_module._grown
        for name, (model, graphs, family, eps, block) in GROWN_EXAMPLES.items():
            calls, blocks = [], []

            def grown(below, table, parents, adj, c):
                calls.append(adj.shape[2])
                for found in grown_of(below, table, parents, adj, c):
                    blocks.append(found)
                    yield found

            n = graphs[0].n
            plan = scan_module._plan(family, n, model)
            cfg = ScanConfig(family.size_range(n)[1], eps, family)
            with mock.patch.object(scan_module, "_grown", grown), scoring_blocks(block, n), \
                    scan_module._batch(graphs) as scope:
                outs = [scan_known(model, g, cfg, decide=True) for g in graphs]
                # the plan's last size is scored, grown or not
                assert len(plan) - 1 in {j for _, j, _ in scope.records}, name
            assert calls == {"one_word": [1], "two_words": [2], "past_the_limit": [],
                             "tie": [1], "tie_across_blocks": [1], "over_the_cutoff": []}[name]
            if name == "over_the_cutoff":
                assert outs[0].subset == (0, 1, 3, 8) and outs[0].reject
            elif name.startswith("tie"):
                assert outs[0].subset == (0, 1, 3, 8) and outs[0].reject
                # the first maximum grown is the larger row, in the first
                # of several blocks where each parent has one
                grown_rows = [plan[-1].rows[rows[np.argmax(_scores(counts, plan[-1].means[rows],
                                                                   plan[-1].norm))]]
                              for _, rows, counts in blocks]
                assert tuple(grown_rows[0]) == (0, 1, 6, 8)
                assert len(blocks) == (1 if name == "tie" else len(grown_rows)) > 0
                if name == "tie_across_blocks":
                    assert len(blocks) > 1 and (0, 1, 3, 8) in map(tuple, grown_rows)
            else:
                assert {out.reject for out in outs} == {True, False}, name

    def test_blocks_hold_what_they_are_sized_for(self):
        # a table's hot rows in blocks of at most _BATCH_ROWS or one graph's,
        # a grown size in blocks of at most _BATCH_BYTES // 16n parents,
        # graphs ascending within and across blocks
        model, graphs, family, eps, _ = GROWN_EXAMPLES["one_word"]
        cfg = ScanConfig(4, eps, family)
        alone = [scan_known(model, g, cfg, decide=True) for g in graphs]
        hot_of, grown_of, read, grown = scan_module._hot_rows, scan_module._grown, [], []

        def hot_rows(table, c):
            for found in hot_of(table, c):
                read.append((table >= c, found))
                yield found

        def grow(below, table, parents, adj, c):
            grown.append(parents.size)
            for found in grown_of(below, table, parents, adj, c):
                grown.append(found)
                yield found

        with mock.patch.object(scan_module, "_hot_rows", hot_rows), \
                mock.patch.object(scan_module, "_grown", grow), scoring_blocks(10, 40), \
                scan_module._batch(graphs):
            assert [scan_known(model, g, cfg, decide=True) for g in graphs] == alone
        assert max(np.count_nonzero(hot, axis=1).max() for hot, _ in read) > 10
        assert len(read) > 1
        for hot, (graph, rows, _) in read:
            assert graph.size <= 10 or len(set(graph.tolist())) == 1
            assert np.all(np.diff(graph) >= 0) and np.all(hot[graph, rows])
        parents, blocks = grown[0], grown[1:]
        assert 1 < len(blocks) <= -(-parents // 10)
        assert np.all(np.diff(np.concatenate([graph for graph, _, _ in blocks])) >= 0)

    def test_one_scoring_pass_per_batch_and_no_table_for_the_grown_size(self):
        model, graphs, family, eps, _ = GROWN_EXAMPLES["one_word"]
        cfg = ScanConfig(4, eps, family)
        scan_known(model, graphs[0], cfg)  # the plan, and its bound tables, built before
        counts_of, counted, scored = scan_module._Size.counts, [], []

        def count(size, samples, below=None):
            counted.append(size.rows.shape[1])
            return counts_of(size, samples, below)

        def scores(counts, means, norm):
            scored.append(len(counts))
            return _scores(counts, means, norm)

        with mock.patch.object(scan_module._Size, "counts", count), \
                mock.patch.object(scan_module, "_scores", scores), \
                scan_module._batch(graphs) as scope:
            for g in graphs:
                scan_known(model, g, cfg, decide=True)
            # each graph's best row of each scored size, and no more
            assert sorted(j for _, j, _ in scope.records) == [2, 3]
            assert table_bytes(scope) == sum(t.nbytes for t in scope.tables[id(
                scan_module._plan(family, 40, model))][1] if t is not None) + 2 * 16 * 4 + vars(
                scope)["adjacency"].nbytes
        # sizes 1 and 2 cannot reach 1.1 at these means; 2 is counted as the
        # base of 3, whose table is the base of the grown size 4
        assert counted == [2, 3] and len(scored) == 2
        assert dropped(scope)
        # a full scan in the scope counts size 4 as before
        with mock.patch.object(scan_module._Size, "counts", count), \
                scan_module._batch(graphs):
            counted.clear()
            scan_known(model, graphs[0], cfg)
        assert counted == [2, 3, 4]

    def test_a_batch_scope_is_sized_by_what_it_holds(self):
        # count tables, packed triangles, 16 bytes of best row per size, and
        # adjacency rows only where the family has an extended size
        rng = np.random.default_rng(0)
        explicit = Explicit(tuple(tuple(int(v) for v in rng.choice(512, size=5, replace=False))
                                  for _ in range(300)))
        cap = scan_module._BATCH_BYTES
        for n, per_graph in ((512, 300 + 16_352 + 16), (2048, 300 + 262_016 + 16),
                             (8192, 300 + 4_193_280 + 16)):
            assert scan_module._batch_graphs(ScanConfig(12, family=explicit), n) == max(
                1, cap // per_graph)
        # the adjacency charge alone gave 63 graphs at n = 512 and 3 at 2048
        assert scan_module._batch_graphs(ScanConfig(12, family=explicit), 2048) == 7
        exhaustive = Exhaustive(1, 3)
        assert scan_module._batch_graphs(ScanConfig(3, family=exhaustive), 100) == cap // (
            exhaustive.count(100) + 619 + 3 * 16 + 8 * 100 * 2)
        assert scan_module._batch_graphs(ScanConfig(3, family=Exhaustive(3, 3)), 100) == cap // (
            math.comb(100, 3) + 619 + 16)
        # the sizes that get starts are the ones _batch_graphs charges for
        for family, n in ((Exhaustive(1, 4), 10), (Exhaustive(3, 5), 12), (Exhaustive(2, 2), 9),
                          (Exhaustive(1, 2), 9), (WeightPrefix(1, 4), 10), (explicit, 512)):
            model = RankOne(np.linspace(0.1, 0.5, n))
            extended = [size.rows.shape[1] for size in scan_module._plan(family, n, model)
                        if size.starts is not None]
            assert extended == list(family._extended_sizes(n))


class TestNarrowCounts:
    """Counts are kept in the narrowest unsigned dtype that holds C(k, 2);
    wherever they meet arithmetic they must not wrap."""

    def test_counts_past_two_bytes(self):
        # C(363, 2) = 65,703 does not fit uint16: on a graph of density 0.999
        # a 363-subset holds about 65,637 edges.  Sixteen such rows pass
        # _PAIR_BLOCK positions, and are counted in two row blocks
        n = 400
        model = Homogeneous(n, 0.5)
        g = random_graph(n, 0.999, 0)
        rng = np.random.default_rng(1)
        rows = tuple(tuple(int(v) for v in rng.choice(n, size=k, replace=False))
                     for k in [362] + [363] * 16)
        for family in (Explicit(rows), Explicit(rows[:3])):
            seen = check_best_rows(model, g, family)
            assert [(size.means is None, size.rows.shape[1]) for size, *_ in seen] == [
                (False, 362), (False, 363), (True, 362), (True, 363)]
            for size, counts, _, (stat, _) in seen:
                assert counts.dtype == count_dtype(size.rows.shape[1]) and stat > 0.0
                if size.rows.shape[1] == 363:
                    assert int(counts.max()) > np.iinfo(np.uint16).max
