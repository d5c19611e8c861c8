"""Scan statistic and scan test behaviour.

Brute-force reference maximisers are reimplemented inline so the batched
scan is checked against something that shares none of its code.  Decimal
fixtures come from tests/oracles/frozen_values.py.
"""

import itertools
import math
import tracemalloc
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
from plantedscan import scan as scan_module
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
        order = np.argsort(-model.weights, kind="stable")
        candidates = [tuple(sorted(int(v) for v in order[:k])) for k in range(lo, r + 1)]
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


def random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    return GraphSample(n, np.packbits(rng.random(n * (n - 1) // 2) < density), None, "imported")


@st.composite
def exhaustive_cases(draw):
    """A graph on n <= 64 or 65..130 vertices (one to three mask words), an
    Exhaustive family of at most 400,000 subsets that reaches an extended
    size wherever that fits, and a chunk size that cuts the family into at
    most 7,000 chunks: 1, 2, 3 or 7 rows where that holds, else the
    default."""
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
        # below; each chunk must receive exactly the direct counts of its rows
        g, family, rows = case
        lo, hi = family.size_range(g.n)
        for model in (Homogeneous(g.n, 0.3), None):
            seen = {}

            def record(chunk, sample, counts=None, degree_sums=None):
                seen.setdefault(chunk.rows.shape[1], []).append(
                    (chunk.rows, counts, degree_sums))
                return np.zeros(len(chunk.rows))

            with mock.patch.object(scan_module, "_BATCH_ROWS", rows):
                plan = scan_module._plan.__wrapped__(family, g.n, model)
            extended = [k > max(lo, 2) for k in range(lo, hi + 1)]
            assert [size.starts is not None for size in plan] == extended
            assert [size.masks is not None for size in plan] == extended[1:] + [False]
            with mock.patch.object(scan_module._Layer, "stats", record):
                scan_module._run_plan(plan, g, keep_trace=False)
            assert sorted(seen) == list(range(lo, hi + 1))
            for k, parts in seen.items():
                assert max(len(p[0]) for p in parts) <= rows
                table = np.concatenate([p[0] for p in parts])
                size = plan[k - lo]
                assert np.array_equal(table, size.rows)
                if size.starts is None and size.masks is None:
                    # neither extended nor extended from: the chunks count their rows
                    assert all(p[1] is None and p[2] is None for p in parts)
                    continue
                counts = np.concatenate([p[1] for p in parts])
                assert np.array_equal(counts, g._edges_within_rows(table))
                if model is None:
                    sums = np.concatenate([p[2] for p in parts])
                    assert np.array_equal(sums, g._degrees[table].sum(axis=1))
                else:
                    assert all(p[2] is None for p in parts)

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
        for rows in (1, 2, 3, 7):
            scan_module._plan.cache_clear()
            try:
                with mock.patch.object(scan_module, "_BATCH_ROWS", rows):
                    assert outcomes() == default
                    for fam, mod, _ in runs:
                        plan = scan_module._plan(fam, g.n, mod)
                        assert max(len(chunk.rows) for size in plan
                                   for chunk in size.chunks) <= rows
            finally:
                scan_module._plan.cache_clear()

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
        # the maximum is the layer's last row, in its last slice
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
        held = sum(layer.rows.nbytes for layer in plan)
        assert [layer.rows.shape for layer in plan] == [(1140, 17), (190, 18)]
        # size 18 is counted from size 17: one mask word per size-17 row
        assert [layer.masks is not None and layer.masks.shape for layer in plan] == [
            (1140, 1), False]
        assert peak < 2 * held
