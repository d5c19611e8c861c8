"""Likelihood-ratio oracle: single-community ratios, the averaged ratio in
exact and sampled modes, and the Bayes-risk estimator built on the identity
risk = 1 - E0|L - 1|/2 (null samples only)."""

import dataclasses
import math
import sys
import tracemalloc
from contextlib import contextmanager
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plantedscan import (
    BudgetError,
    ExperimentConfig,
    GeneralMatrix,
    Homogeneous,
    LrAverage,
    LrProblem,
    NumericError,
    PlantedAlternative,
    RankOne,
    ValidationError,
    bayes_risk,
    derive_seed,
    estimate_risk,
    likelihood_ratio_average,
    likelihood_ratio_single,
    sample_alternative,
    sample_null,
)
from plantedscan import lr as lr_module
from plantedscan import scan as scan_module
from plantedscan.model import GraphSample


def graph_from_edges(n, edges):
    bits = np.zeros(n * (n - 1) // 2, dtype=np.uint8)
    for i, j in edges:
        i, j = (i, j) if i < j else (j, i)
        bits[i * (2 * n - i - 1) // 2 + j - i - 1] = 1
    return GraphSample(n=n, packed=np.packbits(bits), seed=0, hypothesis="imported")


def relabeled(g, perm):
    edges = [
        (perm[i], perm[j])
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if g.has_edge(i, j)
    ]
    return graph_from_edges(g.n, edges)


def per_pair_logs(problem, g):
    """log L_C of every community of the problem as the sum of its per-pair
    logs: the reference for the edge-count table.  Row-major, so that each
    row is summed as a one-row array is."""
    comms = problem._bundle["communities"]
    rho_map = problem.rho_map or {}
    rho = np.array([rho_map.get(tuple(int(v) for v in row), problem.rho) for row in comms])
    pair_index, edge_log, noedge_log = lr_module._log_tables(problem.model, comms, rho)
    tri = np.unpackbits(g.packed, count=g.pair_count).view(bool)
    return np.ascontiguousarray(np.where(tri[pair_index], edge_log, noedge_log)).sum(axis=1)


def complete_graph(n):
    return graph_from_edges(n, combinations(range(n), 2))


def naive_ratio(model, community, g, rho):
    """Plain-float product of per-pair factors, no log accumulation."""
    out = 1.0
    for i, j in combinations(community, 2):
        p = model.probability(i, j)
        out *= rho if g.has_edge(i, j) else (1.0 - rho * p) / (1.0 - p)
    return out


class TestSingle:
    def test_rho_one_is_identically_one(self):
        model = Homogeneous(7, 0.4)
        prob = LrProblem(model, 3, 1.0)
        for seed in range(4):
            g = sample_null(model, seed)
            for c in [(0, 1, 2), (1, 3, 6), (2, 4, 5)]:
                assert likelihood_ratio_single(prob, c, g) == 1.0

    def test_single_pair_values(self):
        # one pair, p = 0.5, rho = 1.5: present edge contributes rho, an
        # absent one (1 - 0.75)/(1 - 0.5) = 0.5
        model = Homogeneous(4, 0.5)
        prob = LrProblem(model, 2, 1.5)
        present = graph_from_edges(4, [(0, 1)])
        absent = graph_from_edges(4, [])
        assert likelihood_ratio_single(prob, (0, 1), present) == pytest.approx(1.5, rel=1e-12)
        assert likelihood_ratio_single(prob, (0, 1), absent) == pytest.approx(0.5, rel=1e-12)

    def test_log_decomposition_matches_naive_product(self):
        # four vertices = six factors: small enough that the plain product
        # cannot underflow, so the log-space route must agree to rounding
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = RankOne(rng.uniform(0.25, 0.75, size=9))
            prob = LrProblem(model, 4, 1.6)
            g = sample_null(model, 100 + seed)
            c = tuple(int(v) for v in np.sort(rng.choice(9, size=4, replace=False)))
            got = likelihood_ratio_single(prob, c, g)
            want = naive_ratio(model, c, g, 1.6)
            assert got == pytest.approx(want, rel=1e-12)

    def test_saturated_lift_absent_edge_is_exact_zero(self):
        # rho * p = 1 makes every community pair a sure edge under the
        # alternative, so one missing pair kills the ratio outright
        model = Homogeneous(8, 0.5)
        prob = LrProblem(model, 3, 2.0)
        g = graph_from_edges(8, [(0, 1), (0, 2)])
        assert likelihood_ratio_single(prob, (0, 1, 2), g) == 0.0

    def test_rho_map_overrides_only_listed_communities(self):
        model = Homogeneous(4, 0.5)
        prob = LrProblem(model, 2, 1.0, rho_map={(0, 1): 2.0})
        g = graph_from_edges(4, [])
        assert likelihood_ratio_single(prob, (0, 1), g) == 0.0
        assert likelihood_ratio_single(prob, (0, 2), g) == 1.0

    def test_rho_map_key_order_is_irrelevant(self):
        # keys are stored sorted, so (1, 0) overrides the community (0, 1)
        model = Homogeneous(8, 0.3)
        g = graph_from_edges(8, [(0, 1)])
        swapped = LrProblem(model, 2, 1.0, rho_map={(1, 0): 2.0})
        ordered = LrProblem(model, 2, 1.0, rho_map={(0, 1): 2.0})
        assert swapped.rho_map == {(0, 1): 2.0}
        assert likelihood_ratio_single(swapped, (0, 1), g) == 2.0
        assert (likelihood_ratio_average(swapped, g).value
                == likelihood_ratio_average(ordered, g).value)

    def test_rho_one_is_exactly_one_and_saturation_exactly_zero(self):
        rng = np.random.default_rng(8)
        model = RankOne(rng.uniform(0.1, 0.5, size=10))
        for seed in range(6):
            g = sample_null(model, seed)
            for c in combinations(range(10), 4):
                assert likelihood_ratio_single(LrProblem(model, 4, 1.0), c, g) == 1.0
        # rho * p = 1 on pair (0, 1) only; its absence zeroes L_C whatever
        # the other pairs show
        m = np.full((5, 5), 0.25)
        m[0, 1] = m[1, 0] = 0.5
        np.fill_diagonal(m, 0.0)
        prob = LrProblem(GeneralMatrix(m), 3, 2.0)
        g = graph_from_edges(5, [(0, 2), (1, 2)])
        assert likelihood_ratio_single(prob, (0, 1, 2), g) == 0.0
        assert likelihood_ratio_single(prob, (0, 2, 3), g) > 0.0

    def test_sure_pair_observed_absent_at_rho_one(self):
        # p = 1 makes the pair's absence impossible under both hypotheses;
        # at rho = 1 they are the same law, so L_C stays 1 (the average
        # always treated the pair this way)
        m = np.full((4, 4), 0.3)
        m[0, 1] = m[1, 0] = 1.0
        np.fill_diagonal(m, 0.0)
        prob = LrProblem(GeneralMatrix(m), 2, 1.0)
        g = graph_from_edges(4, [])
        assert likelihood_ratio_single(prob, (0, 1), g) == 1.0
        assert likelihood_ratio_average(prob, g).value == 1.0

    def test_single_needs_no_community_set(self):
        # sampling disabled and C(64, 4) over the budget: the average has
        # no community set to average over, one community still evaluates
        model = Homogeneous(64, 0.1)
        prob = LrProblem(model, 4, 2.0, sample_size=None)
        g = graph_from_edges(64, [(0, 1)])
        assert likelihood_ratio_single(prob, (0, 1, 2, 3), g) == pytest.approx(
            naive_ratio(model, (0, 1, 2, 3), g, 2.0), rel=1e-12)
        with pytest.raises(BudgetError):
            likelihood_ratio_average(prob, g)

    def test_size_and_sample_mismatch(self):
        model = Homogeneous(6, 0.3)
        prob = LrProblem(model, 3, 1.5)
        g = sample_null(model, 0)
        with pytest.raises(ValidationError, match="does not match r"):
            likelihood_ratio_single(prob, (0, 1), g)
        other = sample_null(Homogeneous(7, 0.3), 0)
        with pytest.raises(ValidationError, match="sample has n=7"):
            likelihood_ratio_single(prob, (0, 1, 2), other)

    def test_zero_probability_pair_cannot_be_lifted(self):
        model = Homogeneous(5, 0.0)
        prob = LrProblem(model, 2, 1.5)
        g = graph_from_edges(5, [])
        with pytest.raises(ValidationError, match="probability 0"):
            likelihood_ratio_single(prob, (0, 1), g)

    def test_lift_above_one_rejected_at_evaluation(self):
        model = Homogeneous(5, 0.7)
        prob = LrProblem(model, 2, 1.6)
        g = graph_from_edges(5, [])
        with pytest.raises(ValidationError, match=r"rho \* p"):
            likelihood_ratio_single(prob, (0, 1), g)


class TestAverage:
    def test_rho_one_exact(self):
        model = Homogeneous(7, 0.4)
        prob = LrProblem(model, 3, 1.0)
        res = likelihood_ratio_average(prob, sample_null(model, 9))
        assert res.value == 1.0
        assert res.mode == "exact"
        assert res.stderr is None
        assert res.communities == math.comb(7, 3)

    def test_empty_graph_hand_enumeration(self):
        # n = 4, r = 2, p = 0.5, rho = 1.5: a size-2 community holds exactly
        # one pair, contributing (1 - 0.75)/(1 - 0.5) = 0.5 on the empty
        # graph, so the mean over all six communities is 0.5 as well
        model = Homogeneous(4, 0.5)
        prob = LrProblem(model, 2, 1.5)
        res = likelihood_ratio_average(prob, graph_from_edges(4, []))
        assert res.value == pytest.approx(0.5, rel=1e-12)
        assert res.log_value == pytest.approx(math.log(0.5), rel=1e-12)
        assert res.communities == 6
        # at rho * p = 1 every community misses its pair: L = 0, log L = -inf
        res = likelihood_ratio_average(LrProblem(model, 2, 2.0), graph_from_edges(4, []))
        assert (res.value, res.log_value) == (0.0, -math.inf)

    def test_average_equals_mean_of_singles(self):
        model = Homogeneous(6, 0.4)
        prob = LrProblem(model, 3, 1.7)
        for seed in (1, 2):
            g = sample_null(model, seed)
            singles = [
                likelihood_ratio_single(prob, c, g)
                for c in combinations(range(6), 3)
            ]
            got = likelihood_ratio_average(prob, g).value
            assert got == pytest.approx(np.mean(singles), rel=1e-12)

    def test_rho_map_average(self):
        # five unit terms plus one exact zero from the saturated override
        model = Homogeneous(4, 0.5)
        prob = LrProblem(model, 2, 1.0, rho_map={(0, 1): 2.0})
        res = likelihood_ratio_average(prob, graph_from_edges(4, []))
        assert res.value == pytest.approx(5.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_rho_map_lifts_exactly_its_communities(self, mode):
        # every RankOne community keeps log rho as its present-edge log
        model = RankOne(np.random.default_rng(2).uniform(0.1, 0.4, size=12))
        budget = 1000 if mode == "exact" else 100
        base = LrProblem(model, 3, 1.5, exact_budget=budget, sample_size=64)
        comms = [tuple(int(v) for v in row) for row in base._bundle["communities"]]
        rho_map = {comms[0]: 1.8, comms[7]: 2.0, comms[-1]: 2.2}
        if mode == "sampled":
            absent = next(c for c in combinations(range(12), 3) if c not in set(comms))
            rho_map[absent] = 2.5
        prob = LrProblem(model, 3, 1.5, rho_map=rho_map, exact_budget=budget, sample_size=64)
        assert prob.mode == mode
        want = np.log([rho_map.get(c, 1.5) for c in comms])
        assert np.array_equal(prob._bundle["tables"].edge_log[:, 0], want)

    def test_null_mean_is_one_within_monte_carlo_error(self):
        # martingale property of the averaged ratio; 1.77 sigma observed
        # for this seed stream
        model = Homogeneous(8, 0.3)
        prob = LrProblem(model, 3, 1.8)
        vals = np.empty(10_000)
        for i in range(vals.size):
            g = sample_null(model, derive_seed(7, "mart", i))
            vals[i] = likelihood_ratio_average(prob, g).value
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 4.0 * stderr

    def test_sampled_mode_is_deterministic_in_community_seed(self):
        model = Homogeneous(64, 0.1)
        assert math.comb(64, 4) > 200_000
        g = sample_null(model, 3)
        a = likelihood_ratio_average(LrProblem(model, 4, 2.0, community_seed=5), g)
        b = likelihood_ratio_average(LrProblem(model, 4, 2.0, community_seed=5), g)
        c = likelihood_ratio_average(LrProblem(model, 4, 2.0, community_seed=6), g)
        assert a.mode == "sampled"
        assert a.stderr is not None and a.stderr > 0.0
        assert a.communities == 4096
        assert a.value == b.value
        assert a.value != c.value

    def test_budget_error_when_sampling_disabled(self):
        model = Homogeneous(64, 0.1)
        prob = LrProblem(model, 4, 2.0, sample_size=None)
        with pytest.raises(BudgetError, match="sampling is disabled"):
            likelihood_ratio_average(prob, sample_null(model, 0))

    def test_relabeling_invariance_on_homogeneous_model(self):
        # every vertex looks the same under a flat model, so the averaged
        # ratio only depends on the graph up to relabeling
        model = Homogeneous(7, 0.4)
        prob = LrProblem(model, 3, 1.9)
        perm = np.random.default_rng(3).permutation(7)
        for seed in (0, 1, 2):
            g = sample_null(model, seed)
            assert likelihood_ratio_average(prob, g).value == pytest.approx(
                likelihood_ratio_average(prob, relabeled(g, perm)).value, rel=1e-10
            )


def lane_reference(terms, g):
    """log L_C of every row of the terms on one graph from a boolean gather
    of its triangle: counted rows by table lookup, summed rows row-major."""
    tri = np.unpackbits(g.packed, count=g.pair_count).view(bool)
    present = tri[terms.pairs.T]
    logs = np.empty(len(present))
    logs[terms.counted] = terms.table[terms.offsets + present[terms.counted].sum(axis=1)]
    logs[terms.summed] = np.where(present[terms.summed], terms.edge_log,
                                  terms.noedge_log).sum(axis=1)
    return logs


def held_reference(terms, g):
    """What the block holds for one graph, from a boolean gather of its
    triangle: the counted rows' histogram over table entries (their table
    indices where the terms hold none), the summed rows' logs and the
    largest log of all rows."""
    tri = np.unpackbits(g.packed, count=g.pair_count).view(bool)
    present = tri[terms.pairs.T]
    index = terms.offsets + present[terms.counted].sum(axis=1)
    if terms.histogram:
        index = np.bincount(index, minlength=terms.table.size).astype(float)
    sums = np.where(present[terms.summed], terms.edge_log, terms.noedge_log).sum(axis=1)
    return lr_module._Logs(index, sums, lane_reference(terms, g).max(initial=-np.inf))


def held(terms, graphs):
    """_log_ratios on graphs, each graph's row checked against
    held_reference: counts and indices exactly, summed logs and the largest
    log bit for bit."""
    logs = lr_module._log_ratios(terms, graphs)
    assert logs.counted.dtype == (np.float64 if terms.histogram else np.intp)
    for b, g in enumerate(graphs):
        want = held_reference(terms, g)
        assert np.array_equal(logs.counted[b], want.counted)
        assert np.array_equal(logs.sums[b], want.sums)
        assert logs.peak[b] == want.peak
    return logs


@contextmanager
def forced_block(terms, n, block):
    """At most block graphs per gather on n vertices inside the scope."""
    lane = np.min_scalar_type(terms.pairs.shape[0]).itemsize
    with mock.patch.object(lr_module, "_BATCH_BYTES", block * lane * (n * (n - 1) // 2)):
        assert lr_module._block_graphs(terms.pairs.shape[0], n) == min(block, 8 // lane)
        yield


def block_held(terms, graphs, block):
    """held on graphs with blocks of at most block graphs per gather; each
    graph's row is also its row alone, bit for bit."""
    with forced_block(terms, graphs[0].n, block):
        logs = held(terms, graphs)
    for b, g in enumerate(graphs):
        alone = held(terms, [g])
        assert all(np.array_equal(x[b], y[0]) for x, y in zip(logs, alone))
    return logs


class TestEdgeCountPath:
    """A community whose absent-pair log is the same on all its pairs is
    evaluated from its edge count; the per-pair sum is the reference."""

    @pytest.mark.parametrize("r", [23, 24], ids=["K=253", "K=276"])
    def test_counts_past_one_byte(self, r):
        # a one-byte count would wrap at K = 276 on the complete graph.
        # K = 253 counts in byte lanes, 8 to a word, K = 276 in 16-bit
        # lanes, 4 to a word; blocks of one to eight graphs, the last
        # partial.  16 rows hold their table indices, 320 a histogram
        model = Homogeneous(30, 0.3)
        for size in (16, 320):
            prob = LrProblem(model, r, 3.0, sample_size=size)
            terms = prob._bundle["tables"]
            assert terms.histogram == (size == 320)
            planted = tuple(int(v) for v in prob._bundle["communities"][0])
            graphs = [sample_null(model, 0), complete_graph(30),
                      sample_alternative(model, PlantedAlternative(planted, 3.0, model), 1)]
            for g in graphs:
                np.testing.assert_allclose(lane_reference(terms, g), per_pair_logs(prob, g),
                                           rtol=1e-14, atol=1e-12)
            graphs += [sample_null(model, seed) for seed in range(1, 7)]
            for block in (1, 2, 4, 8):
                for count in range(1, 10):
                    logs = block_held(terms, graphs[:count], block)
                # the complete graph holds every row at e = K, the last entry
                index = np.full(size, terms.table.size - 1)
                want = np.bincount(index) if terms.histogram else index
                assert np.array_equal(logs.counted[1], want)

    @pytest.mark.parametrize("kind", ["flat", "rho_map", "blocks", "rank_one"])
    def test_single_is_its_row_of_the_average_bit_for_bit(self, kind):
        model = Homogeneous(9, 0.3)
        r, rho, rho_map = 3, 2.0, None
        if kind == "rho_map":
            # (1, 4, 8) is lifted to rho * p = 1: forbidden unless complete
            rho_map = {(0, 1, 2): 2.5, (2, 5, 7): 1.0, (1, 4, 8): 1.0 / 0.3}
        if kind == "blocks":
            # communities inside a block are counted, the others summed
            m = np.full((9, 9), 0.3)
            m[:5, :5], m[5:, 5:] = 0.2, 0.4
            np.fill_diagonal(m, 0.0)
            model = GeneralMatrix(m)
        if kind == "rank_one":
            # every community summed, K = 10 terms: NumPy adds eight or more
            # contiguous terms pairwise, strided ones left to right
            model = RankOne(np.random.default_rng(0).uniform(0.1, 0.7, size=9))
            r, rho = 5, 1.4
        prob = LrProblem(model, r, rho, rho_map=rho_map)
        assert prob.mode == "exact"
        terms = prob._bundle["tables"]
        if kind == "blocks":
            assert isinstance(terms.counted, np.ndarray) and isinstance(terms.summed, np.ndarray)
        graphs = [sample_null(model, seed) for seed in range(4)]
        graphs += [complete_graph(9), graph_from_edges(9, [(1, 4), (1, 8), (4, 8)])]
        for g in graphs:
            held(terms, [g])
            for row, log in zip(prob._bundle["communities"], lane_reference(terms, g)):
                assert likelihood_ratio_single(prob, row, g) == lr_module._exp(float(log))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_counted_rows_match_the_per_pair_sum(self, data):
        n = data.draw(st.integers(min_value=4, max_value=30), label="n")
        r = data.draw(st.integers(min_value=2, max_value=min(n - 1, 8)), label="r")
        # powers of two make rho = 1/p an exact forbidden lift
        p = data.draw(st.sampled_from([0.5, 0.25, 0.125]) | st.floats(0.05, 0.6), label="p")
        lifts = st.sampled_from([1.0, 1.0 / p]) | st.floats(1.0, 1.0 / p)
        rho = data.draw(lifts, label="rho")
        model = Homogeneous(n, p)
        base = LrProblem(model, r, rho, exact_budget=2000, sample_size=128)
        comms = base._bundle["communities"]
        keys = data.draw(st.lists(st.integers(0, len(comms) - 1), max_size=4, unique=True),
                         label="rho_map rows")
        rho_map = {tuple(int(v) for v in comms[m]): data.draw(lifts) for m in keys}
        prob = LrProblem(model, r, rho, rho_map=rho_map or None, exact_budget=2000,
                         sample_size=128)
        planted = tuple(int(v) for v in comms[keys[0] if keys else 0])
        lift = rho_map.get(planted, rho)
        lift = lift if lift * p <= 1.0 else 1.0
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rho_m = np.array([rho_map.get(tuple(int(v) for v in row), rho) for row in comms])
        forbidden = rho_m * p >= 1.0
        k = r * (r - 1) // 2
        pair_index = prob._bundle["tables"].pairs.T
        for g in (sample_null(model, seed),
                  sample_alternative(model, PlantedAlternative(planted, lift, model), seed)):
            held(prob._bundle["tables"], [g])
            got = lane_reference(prob._bundle["tables"], g)
            want = per_pair_logs(prob, g)
            assert np.array_equal(got == -np.inf, want == -np.inf)
            finite = want > -np.inf
            np.testing.assert_allclose(got[finite], want[finite], rtol=0.0, atol=1e-12)
            tri = np.unpackbits(g.packed, count=g.pair_count).view(bool)
            complete = tri[pair_index].sum(axis=1) == k
            assert np.all(got[forbidden & ~complete] == -np.inf)
            assert np.all(np.isfinite(got[forbidden & complete]))

    @given(st.integers(min_value=4, max_value=30), st.data())
    @settings(max_examples=40, deadline=None)
    def test_other_models_keep_the_per_pair_sum_bit_for_bit(self, n, data):
        r = data.draw(st.integers(min_value=2, max_value=min(n - 1, 8)), label="r")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        if data.draw(st.booleans(), label="rank one"):
            model = RankOne(rng.uniform(0.1, 0.7, size=n))
        else:
            m = rng.uniform(0.05, 0.6, size=(n, n))
            m = (m + m.T) / 2.0
            np.fill_diagonal(m, 0.0)
            model = GeneralMatrix(m)
        rho = data.draw(st.floats(1.0, 1.6), label="rho")
        prob = LrProblem(model, r, rho, exact_budget=2000, sample_size=128)
        for g in (sample_null(model, seed), complete_graph(n)):
            held(prob._bundle["tables"], [g])
            assert np.array_equal(lane_reference(prob._bundle["tables"], g), per_pair_logs(prob, g))


class TestLanes:
    """A block of graphs is gathered once, one graph per lane of a word;
    what the block holds for each graph is what it holds for that graph
    alone, bit for bit."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_block_logs_are_the_one_graph_logs(self, data):
        n = data.draw(st.integers(min_value=5, max_value=12), label="n")
        r = data.draw(st.integers(min_value=2, max_value=min(n - 1, 5)), label="r")
        kind = data.draw(st.sampled_from(["homogeneous", "blocks", "rank_one"]), label="kind")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        if kind == "homogeneous":
            model = Homogeneous(n, 0.25)
        elif kind == "blocks":
            # pairs inside the first half have p = 0.5, all others 0.25:
            # communities inside one half are counted, the others summed
            m = np.full((n, n), 0.25)
            m[: n // 2, : n // 2] = 0.5
            np.fill_diagonal(m, 0.0)
            model = GeneralMatrix(m)
        else:
            model = RankOne(rng.uniform(0.1, 0.7, size=n))
        base = LrProblem(model, r, 1.0, exact_budget=400, sample_size=64)
        comms = base._bundle["communities"]
        rho_map = {}
        if kind != "rank_one":
            # 1 / (largest p) lifts a community to rho p = 1 on its densest pairs
            for row in data.draw(st.lists(st.integers(0, len(comms) - 1), max_size=4,
                                          unique=True), label="rho_map rows"):
                c = tuple(int(v) for v in comms[row])
                top = 1.0 / max(model.probability(i, j) for i, j in combinations(c, 2))
                rho_map[c] = data.draw(st.sampled_from([1.0, top]) | st.floats(1.0, top),
                                       label="lift")
        rho = data.draw(st.floats(1.0, 1.3), label="rho")
        prob = LrProblem(model, r, rho, rho_map=rho_map or None, exact_budget=400,
                         sample_size=64)
        terms = prob._bundle["tables"]
        count = data.draw(st.integers(min_value=1, max_value=9), label="graphs")
        planted = list(rho_map) or [tuple(int(v) for v in comms[0])]
        graphs = [complete_graph(n), graph_from_edges(n, [])]
        graphs += [graph_from_edges(n, combinations(c, 2)) for c in planted]
        graphs += [sample_null(model, seed + i) for i in range(count)]
        graphs = graphs[:count]
        block = data.draw(st.sampled_from([1, 2, 4, 8]), label="block")
        block_held(terms, graphs, block)

    def test_a_scope_evaluates_its_block_once(self, monkeypatch):
        model = Homogeneous(10, 0.3)
        prob = LrProblem(model, 3, 1.5)
        graphs = [sample_null(model, seed) for seed in range(5)]
        alone = [likelihood_ratio_average(prob, g) for g in graphs]
        blocks = []
        evaluate = lr_module._log_ratios

        def counting(terms, samples):
            blocks.append(len(samples))
            logs = evaluate(terms, samples)
            # every community counted, as a histogram over the K + 1 = 4 table
            # entries: no value per community
            assert logs.counted.shape == (len(samples), 4)
            assert logs.sums.shape == (len(samples), 0)
            return logs

        monkeypatch.setattr(lr_module, "_log_ratios", counting)
        with scan_module._batch(graphs):
            scoped = [likelihood_ratio_average(prob, g) for g in reversed(graphs)]
        assert blocks == [5]
        assert scoped[::-1] == alone
        likelihood_ratio_average(prob, graphs[0])
        assert blocks == [5, 1]


def reference_average(problem, logs):
    """The LrAverage of one graph from all M of its logs: exp(logs - max)
    over every community, scaled by exp(max), then the mean (and the std
    when sampled) of the M values.  The average must come within rounding
    of it."""
    shift = float(logs.max())
    excess = 0.0
    if shift == -math.inf:
        values, log_value = np.zeros(logs.shape), -math.inf
    else:
        values = np.exp(logs - shift)
        log_value = shift + math.log(float(values.mean()))
        try:
            values = values * math.exp(shift)
        except OverflowError:
            excess = shift

    def scaled(x):
        return lr_module._exp(excess + math.log(x)) if excess and x > 0.0 else x

    mean = scaled(float(values.mean()))
    if problem.mode == "exact":
        return LrAverage(mean, log_value, "exact", values.size)
    se = scaled(float(values.std(ddof=1) / math.sqrt(values.size))) if values.size > 1 else None
    return LrAverage(mean, log_value, "sampled", values.size, se)


def histogram_average(problem, g):
    """The LrAverage of one graph from held_reference: the ratio
    exp(entry - largest log) of each table entry some counted row holds
    (of each counted row's entry where the terms hold no histogram) and of
    each summed row, one mean of the M ratios weighted by the rows at each
    entry, scaled by exp(largest log), and the weighted std when sampled.
    The average must equal it bit for bit."""
    terms = problem._bundle["tables"]
    counted, sums, shift = held_reference(terms, g)
    shift, m, sampled = float(shift), terms.pairs.shape[1], problem.mode == "sampled"
    if shift == -math.inf:
        return LrAverage(0.0, -math.inf, problem.mode, m, 0.0 if sampled and m > 1 else None)
    if terms.histogram:
        weights, ratios, held_entries = counted, np.zeros(counted.size), counted > 0.0
        ratios[held_entries] = np.exp(terms.table[held_entries] - shift)
    else:
        weights, ratios = np.ones(counted.size), np.exp(terms.table[counted] - shift)
    exps = np.exp(sums - shift)
    mean = (float(weights @ ratios) + float(exps.sum())) / m
    log_value = shift + math.log(mean)
    try:
        scale, excess = math.exp(shift), 0.0
    except OverflowError:
        scale, excess = 1.0, shift

    def scaled(x):
        return lr_module._exp(excess + math.log(x)) if excess and x > 0.0 else x * scale

    se = None
    if sampled and m > 1:
        squares = float(weights @ (ratios - mean) ** 2) + float(((exps - mean) ** 2).sum())
        se = scaled(math.sqrt(squares / (m - 1)) / math.sqrt(m))
    return LrAverage(scaled(mean), log_value, problem.mode, m, se)


def assert_near(got, want, tol, scale, exact):
    """got within tol * scale of want; equal where exact or want is not
    finite."""
    if exact or not math.isfinite(want):
        assert got == want
    else:
        assert abs(got - want) <= tol * scale, (got, want)


def assert_averages_match_reference(problem, graphs, block):
    """Every graph's LrAverage, in a scope of blocks of at most block graphs
    and alone, equals histogram_average, every field bit for bit (repr
    tells -0.0 from 0.0), and comes within (K + 1 + log2 M) units of
    2**-52 of reference_average on the boolean-gather logs: relative on
    value, and on log_value relative to max(1, |log_value|), since its log
    of the mean carries the mean's relative error as an absolute one.
    Every ratio is positive, so no sum cancels.  The std comes within that
    many units of (std + mean) / sqrt(M).  Returns the averages."""
    terms = problem._bundle["tables"]
    k, m = terms.pairs.shape
    tol = (k + 1 + math.log2(m)) * 2.0**-52
    with forced_block(terms, graphs[0].n, block), scan_module._batch(graphs):
        scoped = [likelihood_ratio_average(problem, g) for g in graphs]
    for g, got in zip(graphs, scoped):
        assert repr(got) == repr(histogram_average(problem, g))
        assert repr(likelihood_ratio_average(problem, g)) == repr(got)
        want = reference_average(problem, lane_reference(terms, g))
        assert (got.mode, got.communities) == (want.mode, want.communities)
        # exact where every L_C is 0; a log that rounds to 0.0 is not exact
        # (the two means sum in different orders)
        forbidden = want.value == 0.0
        assert_near(got.value, want.value, tol, want.value, forbidden)
        assert_near(got.log_value, want.log_value, tol, max(1.0, abs(want.log_value)), forbidden)
        if want.stderr is None:
            assert got.stderr is None
        else:
            assert_near(got.stderr, want.stderr, tol, want.stderr + want.value / math.sqrt(m),
                        want.stderr == 0.0)
    return scoped


def blocks_model(n):
    """p = 0.5 inside the first n // 2 vertices, 0.25 elsewhere: communities
    inside that half are counted, the others summed."""
    m = np.full((n, n), 0.25)
    m[: n // 2, : n // 2] = 0.5
    np.fill_diagonal(m, 0.0)
    return GeneralMatrix(m)


@st.composite
def average_cases(draw):
    """A problem of each kind on 5..12 vertices, exact or sampled, with or
    without rho_map lifts; one to nine graphs, the empty graph first; the
    block of a scope; and whether every community is forbidden."""
    n = draw(st.integers(min_value=5, max_value=12), label="n")
    r = draw(st.integers(min_value=2, max_value=min(n - 1, 5)), label="r")
    kind = draw(st.sampled_from(["homogeneous", "blocks", "rank_one"]), label="kind")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    p = 0.25
    if kind == "homogeneous":
        # a power of two, so that rho = 1/p is an exact forbidden lift
        p = draw(st.sampled_from([0.5, 0.25]), label="p")
        model = Homogeneous(n, p)
    elif kind == "blocks":
        model = blocks_model(n)
    else:
        model = RankOne(rng.uniform(0.1, 0.7, size=n))
    # every community forbidden: the empty graph has log L_C = -inf on all
    forbid = kind == "homogeneous" and draw(st.booleans(), label="forbid all")
    rho = 1.0 / p if forbid else draw(st.floats(1.0, 1.3), label="rho")
    budget = draw(st.sampled_from([400, 8]), label="exact budget")
    base = LrProblem(model, r, 1.0, exact_budget=budget, sample_size=64)
    comms = base._bundle["communities"]
    rho_map = {}
    if kind != "rank_one" and not forbid:
        # several table groups; 1 / (largest p) is a forbidden lift
        for row in draw(st.lists(st.integers(0, len(comms) - 1), max_size=4, unique=True),
                        label="rho_map rows"):
            c = tuple(int(v) for v in comms[row])
            top = 1.0 / max(model.probability(i, j) for i, j in combinations(c, 2))
            rho_map[c] = draw(st.sampled_from([1.0, top]) | st.floats(1.0, top), label="lift")
    prob = LrProblem(model, r, rho, rho_map=rho_map or None, exact_budget=budget,
                     sample_size=64)
    count = draw(st.integers(min_value=1, max_value=9), label="graphs")
    planted = list(rho_map) or [tuple(int(v) for v in comms[0])]
    graphs = [graph_from_edges(n, []), complete_graph(n)]
    graphs += [graph_from_edges(n, combinations(c, 2)) for c in planted]
    graphs += [sample_null(model, seed + i) for i in range(count)]
    return prob, graphs[:count], draw(st.sampled_from([1, 2, 4, 8]), label="block"), forbid


class TestAverageFromTable:
    """The average exponentiates each table entry some counted row holds
    and weights it by the rows that hold it (or, when the table has more
    entries than there are counted rows, exponentiates each row's gathered
    entry); each LrAverage comes within rounding of the one from
    exponentiating every community's log."""

    @given(average_cases())
    @settings(max_examples=80, deadline=None)
    # a lift one ulp above 1: the reference's log of the mean rounds to 0.0,
    # the histogram mean's to -2.2e-16, both within rounding of -1.0e-16
    @example((LrProblem(blocks_model(5), 2, 1.0000000000000002, rho_map={(0, 1): 1.0},
                        exact_budget=400, sample_size=64), [graph_from_edges(5, [])], 1, False))
    def test_every_kind_equals_the_per_community_exp(self, case):
        prob, graphs, block, forbid = case
        averages = assert_averages_match_reference(prob, graphs, block)
        if forbid:
            assert averages[0].log_value == -math.inf and averages[0].value == 0.0

    def test_a_falling_table_reads_its_largest_log_from_the_gathered_values(self):
        # log rho < 0 < l0 comes from no valid problem: the table falls in e,
        # so the largest count does not give the largest log; the largest
        # entry the graph's counts reach does
        model = Homogeneous(8, 0.4)
        comms = LrProblem(model, 3, 1.6)._bundle["communities"]
        pairs = lr_module._log_tables(model, comms, np.full(len(comms), 1.6))[0]
        terms = lr_module._log_terms((pairs, np.full((len(comms), 1), -0.5),
                                      np.full(pairs.shape, 0.25)))
        assert terms.table.size == 4 and terms.histogram
        graphs = [complete_graph(8), graph_from_edges(8, [(0, 1)])]
        graphs += [sample_null(model, seed) for seed in range(3)]
        logs = held(terms, graphs)  # checks each graph's largest log
        assert logs.peak[1] == 0.75

    def test_a_lift_per_community_exponentiates_the_gathered_entries(self):
        # one table group per community: the table has K + 1 entries per
        # counted row, so each row's entry is exponentiated, not the table
        model = Homogeneous(8, 0.25)
        comms = LrProblem(model, 3, 1.5)._bundle["communities"]
        lifts = np.linspace(1.0, 4.0, len(comms))  # 4.0 = 1/p is forbidden
        prob = LrProblem(model, 3, 1.5,
                         rho_map={tuple(int(v) for v in c): float(x) for c, x in zip(comms, lifts)})
        terms = prob._bundle["tables"]
        assert terms.table.size == 4 * len(comms) and not terms.histogram
        graphs = [graph_from_edges(8, combinations(comms[-1], 2)), complete_graph(8)]
        graphs += [sample_null(model, seed) for seed in range(4)]
        assert_averages_match_reference(prob, graphs, 4)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_a_call_allocates_in_the_table_not_in_the_communities(self, mode):
        # 91,390 communities on 40 vertices, or 4,096 of them sampled, and a
        # table of K + 1 = 7 entries: once the scope's first call has
        # evaluated the block, a call holds a few arrays of 7 values, where
        # one array over the communities would take 731 kB (32 kB sampled)
        model = Homogeneous(40, 0.3)
        prob = LrProblem(model, 4, 2.0, exact_budget=100_000 if mode == "exact" else 1000)
        assert prob.mode == mode and prob._bundle["tables"].table.size == 7
        graphs = [sample_null(model, seed) for seed in range(8)]
        with scan_module._batch(graphs):
            likelihood_ratio_average(prob, graphs[0])
            for g in graphs[1:]:
                tracemalloc.start()
                try:
                    likelihood_ratio_average(prob, g)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 4096

    @given(st.sampled_from(["K=253", "K=276", "excess"]),
           st.integers(min_value=1, max_value=9), st.sampled_from([1, 2, 4, 8]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_wide_counts_and_excess_equal_the_per_community_exp(self, case, count, block, seed):
        # K = 253 counts in byte lanes, K = 276 in 16-bit lanes, 320 rows in
        # a histogram; the planted graph's largest log is past log(float
        # max) = 709.78, and its 64 rows hold their table indices
        if case == "excess":
            model, r, rho = Homogeneous(200, 0.05), 40, 15.0
        else:
            model, r, rho = Homogeneous(30, 0.3), int(case == "K=276") + 23, 3.0
        prob = LrProblem(model, r, rho, sample_size=64 if case == "excess" else 320)
        planted = tuple(int(v) for v in prob._bundle["communities"][0])
        graphs = [sample_alternative(model, PlantedAlternative(planted, rho, model), seed),
                  complete_graph(model.n)]
        graphs += [sample_null(model, seed + i) for i in range(count)]
        averages = assert_averages_match_reference(prob, graphs[:count], block)
        if case == "excess":
            assert averages[0].value == math.inf
            assert averages[0].log_value > math.log(sys.float_info.max)


def fixed_logs(monkeypatch, table):
    """Make every problem built inside the patch read log L_C of row m on a
    graph as table[m, e], e the row's edge count: each row is counted, in a
    table group of its own.  The whole evaluation runs on the fabricated
    table."""
    build = lr_module._log_terms

    def fixed(tables):
        terms = build(tables)
        m, width = table.shape
        assert terms.counted == slice(None) and width == terms.pairs.shape[0] + 1
        return dataclasses.replace(terms, offsets=np.arange(m) * width,
                                   table=table.reshape(-1))

    monkeypatch.setattr(lr_module, "_log_terms", fixed)


class TestOverflow:
    def planted(self):
        # 40 vertices lifted 15-fold: log L_C of the planted community is
        # far past log(float max) = 709.78
        model = Homogeneous(200, 0.05)
        prob = LrProblem(model, 40, 15.0, sample_size=64)
        community = tuple(int(v) for v in prob._bundle["communities"][0])
        g = sample_alternative(model, PlantedAlternative(community, 15.0, model), 1)
        return prob, community, g

    def test_single_and_average_return_inf(self):
        prob, community, g = self.planted()
        assert likelihood_ratio_single(prob, community, g) == math.inf
        res = likelihood_ratio_average(prob, g)
        assert res.value == math.inf
        assert res.stderr == math.inf
        logs = lane_reference(prob._bundle["tables"], g)
        assert math.isfinite(res.log_value) and res.log_value > math.log(sys.float_info.max)
        assert res.log_value == pytest.approx(
            logs.max() + math.log(np.exp(logs - logs.max()).mean()), rel=1e-15)

    def test_a_table_exponentiated_whole_skips_the_entries_past_the_shift(self):
        # 781 table entries for 1,024 communities: the graph holds a
        # histogram, and its table's entries are exponentiated where rows hold
        # them, not each community's entry.  On a null graph the entries near
        # e = K (log 15 per pair) are far past the shift and would overflow.
        model = Homogeneous(200, 0.05)
        prob = LrProblem(model, 40, 15.0, sample_size=1024)
        terms = prob._bundle["tables"]
        assert terms.histogram
        planted = tuple(int(v) for v in prob._bundle["communities"][0])
        graphs = [sample_alternative(model, PlantedAlternative(planted, 15.0, model), 1)]
        graphs += [sample_null(model, seed) for seed in range(3)]
        averages = assert_averages_match_reference(prob, graphs, 4)
        assert averages[0].value == math.inf
        assert averages[0].log_value > math.log(sys.float_info.max)
        assert all(math.isfinite(a.value) for a in averages[1:])

    def test_mean_stays_finite_when_only_its_largest_term_overflows(self, monkeypatch):
        model = Homogeneous(6, 0.3)
        prob = LrProblem(model, 2, 1.5)
        logs = np.full(15, -np.inf)
        logs[3], logs[5] = 710.0, 0.0
        fixed_logs(monkeypatch, np.repeat(logs[:, None], 2, axis=1))
        res = likelihood_ratio_average(prob, sample_null(model, 0))
        assert res.value == pytest.approx(math.exp(710.0 - math.log(15.0)), rel=1e-12)
        assert res.log_value == pytest.approx(710.0 - math.log(15.0), rel=1e-15)

    def test_bayes_risk_refuses_an_infinite_ratio(self, monkeypatch):
        model = Homogeneous(6, 0.3)
        prob = LrProblem(model, 2, 1.5)
        logs = np.zeros(15)
        logs[0] = 800.0
        fixed_logs(monkeypatch, np.repeat(logs[:, None], 2, axis=1))
        with pytest.raises(NumericError, match="overflows"):
            bayes_risk(prob, 4, master_seed=0)


class TestProblemValidation:
    def test_r_bounds(self):
        model = Homogeneous(6, 0.3)
        with pytest.raises(ValidationError, match="2 <= r < n"):
            LrProblem(model, 1, 1.5)
        with pytest.raises(ValidationError, match="2 <= r < n"):
            LrProblem(model, 6, 1.5)

    def test_rho_bounds(self):
        model = Homogeneous(6, 0.3)
        with pytest.raises(ValidationError, match="rho must be finite"):
            LrProblem(model, 3, 0.9)
        with pytest.raises(ValidationError, match="rho must be finite"):
            LrProblem(model, 3, math.inf)

    def test_rho_map_key_and_value_checks(self):
        model = Homogeneous(6, 0.3)
        with pytest.raises(ValidationError, match="does not have size r"):
            LrProblem(model, 3, 1.5, rho_map={(0, 1): 1.5})
        with pytest.raises(ValidationError, match="must be >= 1"):
            LrProblem(model, 3, 1.5, rho_map={(0, 1, 2): 0.5})
        with pytest.raises(ValidationError, match="two keys"):
            LrProblem(model, 3, 1.5, rho_map={(0, 1, 2): 1.5, (2, 1, 0): 2.0})

    def test_rho_map_value_type_checked(self):
        model = Homogeneous(10, 0.1)
        with pytest.raises(ValidationError, match=r"rho_map value for \(0, 1, 2\) must be a number"):
            LrProblem(model, 3, 2.0, rho_map={(0, 1, 2): "2"})

    def test_budget_and_sample_size_checks(self):
        model = Homogeneous(6, 0.3)
        with pytest.raises(ValidationError, match="exact_budget"):
            LrProblem(model, 3, 1.5, exact_budget=0)
        with pytest.raises(ValidationError, match="sample_size"):
            LrProblem(model, 3, 1.5, sample_size=0)

    def test_community_count(self):
        assert LrProblem(Homogeneous(9, 0.3), 3, 1.5).community_count == 84

    @pytest.mark.parametrize("overrides, message", [
        ({"r": 3.0}, "r must be an integer, got 3.0"),
        ({"r": True}, "r must be an integer, got True"),
        ({"rho": "2"}, "rho must be a number, got '2'"),
        ({"exact_budget": 2.5}, "exact_budget must be an integer, got 2.5"),
        ({"sample_size": 10.0}, "sample_size must be an integer, got 10.0"),
        ({"community_seed": "0"}, "community_seed must be an integer, got '0'"),
    ])
    def test_types_checked_at_construction(self, overrides, message):
        args = {"model": Homogeneous(10, 0.1), "r": 3, "rho": 2.0, **overrides}
        with pytest.raises(ValidationError, match=message):
            LrProblem(**args)

    def test_integer_rho_is_a_float_lift(self):
        # the per-community lift array takes rho's type: an integer array
        # would truncate a rho_map value of 2.5 to 2
        model = Homogeneous(6, 0.3)
        g = sample_null(model, 1)
        a = LrProblem(model, 3, 2, rho_map={(0, 1, 2): 2.5})
        b = LrProblem(model, 3, 2.0, rho_map={(0, 1, 2): 2.5})
        assert a.rho == 2.0 and type(a.rho) is float
        assert likelihood_ratio_average(a, g) == likelihood_ratio_average(b, g)

    @given(st.integers(min_value=3, max_value=16), st.data())
    @settings(max_examples=30, deadline=None)
    def test_exact_community_set_is_every_r_subset_in_order(self, n, data):
        r = data.draw(st.integers(min_value=2, max_value=n - 1))
        problem = LrProblem(Homogeneous(n, 0.3), r, 1.5, exact_budget=math.comb(n, r))
        assert problem.mode == "exact"
        comms = problem._bundle["communities"]
        assert comms.dtype == np.int64
        assert comms.tolist() == [list(c) for c in combinations(range(n), r)]


class TestBayesRisk:
    def test_rho_one_risk_is_exactly_one(self):
        res = bayes_risk(LrProblem(Homogeneous(6, 0.4), 3, 1.0), 50, master_seed=2)
        assert res.risk == 1.0
        assert res.stderr == 0.0

    def test_needs_two_replications(self):
        with pytest.raises(ValidationError, match="at least 2"):
            bayes_risk(LrProblem(Homogeneous(6, 0.4), 3, 1.5), 1, master_seed=0)

    def test_matches_manual_null_stream(self):
        # pins the seed stream: replication i draws its null graph from
        # (master_seed, "lr-null", i)
        model = Homogeneous(8, 0.4)
        prob = LrProblem(model, 3, 1.6)
        res = bayes_risk(prob, 50, master_seed=11)
        vals = np.array([
            likelihood_ratio_average(
                prob, sample_null(model, derive_seed(11, "lr-null", i))
            ).value
            for i in range(50)
        ])
        assert res.risk == 1.0 - float(np.abs(vals - 1.0).mean()) / 2.0
        assert res.mean_lr == float(vals.mean())
        assert res.replications == 50
        assert res.mode == "exact"

    def test_calls_the_average_once_per_replication(self, monkeypatch):
        # 13 replications are a block of 8 and a partial block of 5; each
        # call sees replication i's graph, in order
        model = Homogeneous(8, 0.4)
        prob = LrProblem(model, 3, 1.6)
        seen = []
        average = lr_module.likelihood_ratio_average

        def counting(problem, sample):
            seen.append(sample.seed)
            return average(problem, sample)

        monkeypatch.setattr(lr_module, "likelihood_ratio_average", counting)
        bayes_risk(prob, 13, master_seed=11)
        assert seen == [derive_seed(11, "lr-null", i) for i in range(13)]

    def test_overflow_inside_a_block_names_its_replication(self, monkeypatch):
        # replication 10 is the third graph of the second block of 8
        model = Homogeneous(6, 0.3)
        prob = LrProblem(model, 2, 1.5)
        bad = derive_seed(0, "lr-null", 10)
        # that graph alone is complete, and community (0, 1) reads 800 on it
        table = np.zeros((15, 2))
        table[0, 1] = 800.0
        fixed_logs(monkeypatch, table)
        monkeypatch.setattr(lr_module, "sample_null",
                            lambda model, seed: complete_graph(6) if seed == bad
                            else graph_from_edges(6, []))
        with pytest.raises(NumericError, match="replication 10;"):
            bayes_risk(prob, 16, master_seed=0)
        assert scan_module._BATCH.get() is None

    def test_memory_at_n_4096_holds_one_graph_at_a_time(self):
        # one graph's lanes already exceed _BATCH_BYTES at n = 4096, so a
        # block is one graph.  Evaluating one graph at a time with a
        # boolean gather, this call peaked at 9,706,869 bytes under
        # tracemalloc (Python 3.11, NumPy 2.4), its null sampler included
        prob = LrProblem(Homogeneous(4096, 0.01), 12, 1.5, sample_size=4096)
        assert lr_module._block_graphs(66, 4096) == 1
        bayes_risk(prob, 2, master_seed=0)  # builds the terms
        tracemalloc.start()
        try:
            bayes_risk(prob, 9, master_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9_706_869 + scan_module._BATCH_BYTES

    def test_planted_clique_risk_decreases_in_lift(self):
        # rho = 2 with p = 0.5 plants a clique; risk drops well past the
        # Monte Carlo error bars along the way (gaps 0.067 and 0.127
        # against combined sigmas under 0.012 at 600 replications)
        model = Homogeneous(8, 0.5)
        results = [
            bayes_risk(LrProblem(model, 3, rho), 600, master_seed=17)
            for rho in (1.2, 1.5, 2.0)
        ]
        for res in results:
            assert res.mode == "exact"
            assert res.risk < 1.0
        for hard, easy in zip(results, results[1:]):
            assert hard.risk - easy.risk > 3.0 * (hard.stderr + easy.stderr)

    def test_json_shape(self):
        res = bayes_risk(LrProblem(Homogeneous(6, 0.4), 3, 1.5), 10, master_seed=4)
        out = res.to_json()
        assert {"risk", "stderr", "replications", "mode", "M"} <= set(out)
        assert out["mode"] == "exact"
        assert out["M"] == 20

    def test_powerless_regime_risk_near_one(self):
        # lift chosen so the detection-boundary objective sits far below
        # one-half while rho^2 * p stays small (0.4); pushing the objective
        # to one-half at this scale needs rho * p near 1, where the ratio
        # is too heavy-tailed for a desk-size Monte Carlo.  Risk climbs
        # toward 1 as n grows with everything else held fixed.
        results = {}
        for n in (64, 256):
            prob = LrProblem(Homogeneous(n, 0.1), 4, 2.0, community_seed=5)
            results[n] = bayes_risk(prob, 1200, master_seed=41)
            assert results[n].mode == "sampled"
        assert results[256].risk >= 0.9
        gap = results[256].risk - results[64].risk
        assert gap > 3.0 * (results[64].stderr + results[256].stderr)

    def test_scan_average_risk_dominates_bayes_risk(self):
        # desk-scale optimality sandwich: no graph on nine vertices can push
        # the scan statistic past the threshold (the best case, a full
        # triangle, reaches about 0.46 against 1.1), so both scans sit at
        # risk exactly 1 while the oracle does strictly better
        model = Homogeneous(9, 0.3)
        oracle = bayes_risk(LrProblem(model, 3, 2.0), 2000, master_seed=23)
        assert oracle.risk < 1.0 - 3.0 * oracle.stderr
        for test in ("scan_known", "scan_unknown"):
            cfg = ExperimentConfig(
                model=model, test=test, r=3, rho=2.0, communities=5,
                null_replications=400, alt_replications=400,
                epsilon=0.2, master_seed=23,
            )
            est = estimate_risk(cfg)
            stderrs = [r.stderr for r in est.type2.values()]
            combined = est.type1.stderr + sum(stderrs) / len(stderrs)
            assert est.average_risk == 1.0
            assert est.average_risk >= oracle.risk - 3.0 * (combined + oracle.stderr)


class TestBayesRiskArguments:
    @pytest.mark.parametrize("replications, master_seed, message", [
        (2.5, 0, "replications must be an integer, got 2.5"),
        (True, 0, "replications must be an integer, got True"),
        ("3", 0, "replications must be an integer, got '3'"),
        (3, 1.5, "master_seed must be an integer, got 1.5"),
        (3, None, "master_seed must be an integer, got None"),
    ], ids=["float-reps", "bool-reps", "str-reps", "float-seed", "none-seed"])
    def test_non_integers_are_validation_errors(self, replications, master_seed, message):
        problem = LrProblem(Homogeneous(6, 0.4), 3, 1.5)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            bayes_risk(problem, replications, master_seed)

    def test_numpy_integers_are_accepted(self):
        problem = LrProblem(Homogeneous(6, 0.4), 3, 1.5)
        got = bayes_risk(problem, np.int64(4), np.int64(2))
        assert got == bayes_risk(problem, 4, 2)
        assert type(got.metadata["master_seed"]) is int
