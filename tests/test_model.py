"""Tests for graph models, sampling, edge counting, and interchange."""

import itertools
import math
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plantedscan import (
    BudgetError,
    Explicit,
    GeneralMatrix,
    GraphSample,
    Homogeneous,
    PlantedAlternative,
    RankOne,
    ScanConfig,
    ValidationError,
    derive_seed,
    expected_edges_across_null,
    expected_edges_null,
    expected_total_null,
    model_from_json,
    model_to_json,
    read_edge_list,
    sample_alternative,
    sample_null,
    scan_known,
    write_edge_list,
)
from plantedscan import model as model_module
from plantedscan.model import check_subset
from plantedscan.seeding import _stream, generator


def random_model(kind, n, rng):
    if kind == "homogeneous":
        return Homogeneous(n, float(rng.uniform(0.0, 1.0)))
    if kind == "rank_one":
        return RankOne(rng.uniform(0.05, 0.95, size=n))
    m = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
    return GeneralMatrix(m + m.T)


def naive_within(adj, subset):
    subset = list(subset)
    return sum(
        int(adj[subset[a], subset[b]])
        for a in range(len(subset))
        for b in range(a + 1, len(subset))
    )


def naive_max_within(matrix, community, k):
    """max over the k-subsets D of the community of the pair sum of matrix
    inside D, pairs added in lexicographic order."""
    return max(sum(matrix[i, j] for i, j in itertools.combinations(d, 2))
               for d in itertools.combinations(community, k))


def naive_across(adj, subset, n):
    inside = set(subset)
    return sum(
        int(adj[i, j]) for i in inside for j in range(n) if j not in inside
    )


class TestModelValidation:
    def test_homogeneous_probability_range(self):
        with pytest.raises(ValidationError):
            Homogeneous(10, -0.1)
        with pytest.raises(ValidationError):
            Homogeneous(10, 1.5)

    def test_vertex_count(self):
        with pytest.raises(ValidationError):
            Homogeneous(0, 0.5)
        with pytest.raises(ValidationError):
            Homogeneous((1 << 16) + 1, 0.5)

    def test_rank_one_weights_open_interval(self):
        with pytest.raises(ValidationError):
            RankOne(np.array([0.5, 0.0]))
        with pytest.raises(ValidationError):
            RankOne(np.array([0.5, 1.0]))
        with pytest.raises(ValidationError):
            RankOne(np.array([[0.5, 0.5]]))

    def test_general_matrix_shape_and_symmetry(self):
        with pytest.raises(ValidationError):
            GeneralMatrix(np.zeros((2, 3)))
        m = np.zeros((3, 3))
        m[0, 1] = 0.5  # not mirrored
        with pytest.raises(ValidationError):
            GeneralMatrix(m)

    def test_general_matrix_diagonal_and_range(self):
        m = np.full((3, 3), 0.2)
        with pytest.raises(ValidationError):
            GeneralMatrix(m)  # nonzero diagonal
        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 1.2
        with pytest.raises(ValidationError):
            GeneralMatrix(m)

    def test_check_subset_errors(self):
        with pytest.raises(ValidationError):
            check_subset(5, [0, 5])
        with pytest.raises(ValidationError):
            check_subset(5, [-1, 2])
        with pytest.raises(ValidationError):
            check_subset(5, [1, 1, 2])

    @pytest.mark.parametrize("subset", [
        (0.9, 2.1, 3), "12", [True, 2], [1.5, 2], [1, 2.0], np.array([1.0, 2.0]), 5, None,
        [2**70], np.array(3), np.array([[1, 2]]),
    ], ids=["floats", "string", "bool", "float", "integral-float", "float-array", "int",
            "none", "past-int64", "0-d-array", "2-d-array"])
    def test_check_subset_rejects_what_it_would_rewrite(self, subset):
        with pytest.raises(ValidationError):
            check_subset(10, subset)

    def test_check_subset_takes_integer_vertices(self):
        for subset in ([4, 1], (np.int32(4), 1), range(1, 5, 3), {4, 1},
                       np.array([4, 1], dtype=np.uint8), np.array([4, 1], dtype=np.int16)):
            d = check_subset(10, subset)
            assert d.dtype == np.int64 and d.tolist() == [1, 4]
        # cast before sorting: a uint64 vertex past int64 is out of range, not first
        with pytest.raises(ValidationError, match="out of range"):
            check_subset(10, np.array([1, 2**63], dtype=np.uint64))
        # a planted community is not rounded to other vertices
        with pytest.raises(ValidationError, match="subset vertex must be an integer"):
            PlantedAlternative((0.9, 2.1, 3), 2.0, Homogeneous(10, 0.3))

    def test_planted_alternative_validity(self):
        model = Homogeneous(10, 0.3)
        with pytest.raises(ValidationError, match="exceeds 1"):
            PlantedAlternative((0, 1, 2), 4.0, model)
        with pytest.raises(ValidationError):
            PlantedAlternative((0,), 1.5, model)  # singleton community
        with pytest.raises(ValidationError):
            PlantedAlternative((0, 1), 0.5, model)  # rho < 1

    def test_planted_alternative_names_worst_pair(self):
        w = np.array([0.1, 0.9, 0.9, 0.1])
        with pytest.raises(ValidationError, match=r"p\[1,2\]"):
            PlantedAlternative((0, 1, 2, 3), 2.0, RankOne(w))

    def test_descriptor_n_is_not_truncated(self):
        with pytest.raises(ValidationError, match="must be an integer, got 10.7"):
            model_from_json({"variant": "homogeneous", "n": 10.7, "p": 0.1})

    def test_descriptor_n_is_not_a_bool(self):
        with pytest.raises(ValidationError, match="must be an integer, got True"):
            model_from_json({"variant": "homogeneous", "n": True, "p": 0.1})

    def test_homogeneous_p_string(self):
        with pytest.raises(ValidationError, match="p must be a number"):
            Homogeneous(10, "0.1")

    def test_homogeneous_p_bool(self):
        with pytest.raises(ValidationError, match="p must be a number"):
            Homogeneous(10, True)

    def test_planted_alternative_rho_string(self):
        with pytest.raises(ValidationError, match="rho must be a number"):
            PlantedAlternative((0, 1), "2", Homogeneous(10, 0.1))

    def test_numeric_types_still_accepted(self):
        assert Homogeneous(np.int64(10), 1).p == 1.0
        assert PlantedAlternative((0, 1), np.float64(2.0), Homogeneous(10, 0.1)).rho == 2.0


class TestSampling:
    def test_p_zero_is_empty(self):
        model = Homogeneous(20, 0.0)
        for seed in range(5):
            assert sample_null(model, seed).total_edges() == 0

    def test_p_one_is_complete(self):
        s = sample_null(Homogeneous(5, 1.0), 7)
        assert s.total_edges() == 10
        assert s.edges_within(range(5)) == 10
        # every vertex of {0, 1} meets all three outside vertices
        assert s.edges_across([0, 1]) == 6

    def test_deterministic_in_seed(self):
        model = Homogeneous(30, 0.4)
        a = sample_null(model, 123)
        b = sample_null(model, 123)
        c = sample_null(model, 124)
        assert np.array_equal(a.packed, b.packed)
        assert not np.array_equal(a.packed, c.packed)

    def test_rho_one_matches_null_bit_for_bit(self):
        model = Homogeneous(25, 0.2)
        alt = PlantedAlternative((3, 7, 11, 19), 1.0, model)
        for seed in (0, 1, 99):
            null = sample_null(model, seed)
            planted = sample_alternative(model, alt, seed)
            assert np.array_equal(null.packed, planted.packed)
        assert planted.hypothesis == "planted"
        assert planted.planted_community == (3, 7, 11, 19)

    def test_null_mean_total_edges(self):
        # E[total] = C(100,2) * 0.3 = 1485; 3 sigma of the mean over 10^4
        # draws is about 0.97
        model = Homogeneous(100, 0.3)
        reps = 10_000
        total = sum(sample_null(model, seed).total_edges() for seed in range(reps))
        mean = total / reps
        sigma = math.sqrt(4950 * 0.3 * 0.7 / reps)
        assert abs(mean - 1485.0) <= 3 * sigma

    def test_planted_mean_within_community(self):
        # inside C the edge probability is rho*p = 0.5, so E[e(C)] = 3
        model = Homogeneous(20, 0.1)
        alt = PlantedAlternative((2, 5, 11, 17), 5.0, model)
        reps = 10_000
        total = sum(
            sample_alternative(model, alt, seed).edges_within(alt.community)
            for seed in range(reps)
        )
        sigma = math.sqrt(6 * 0.5 * 0.5 / reps)
        assert abs(total / reps - 3.0) <= 3 * sigma

    def test_planted_lift_restricted_to_subset_of_community(self):
        # any D inside C has its null expectation multiplied by exactly rho
        model = Homogeneous(20, 0.1)
        alt = PlantedAlternative((0, 1, 2, 3), 2.0, model)
        d = (0, 1, 2)
        reps = 10_000
        total = sum(
            sample_alternative(model, alt, seed).edges_within(d)
            for seed in range(reps)
        )
        want = alt.rho * expected_edges_null(model, d)
        sigma = math.sqrt(3 * 0.2 * 0.8 / reps)
        assert abs(total / reps - want) <= 3 * sigma

    def test_edges_to_outside_not_lifted(self):
        model = Homogeneous(16, 0.25)
        alt = PlantedAlternative((0, 1, 2, 3), 3.0, model)
        reps = 6_000
        total = sum(
            sample_alternative(model, alt, seed).edges_across(alt.community)
            for seed in range(reps)
        )
        want = expected_edges_across_null(model, alt.community)  # 4*12*0.25 = 12
        sigma = math.sqrt(48 * 0.25 * 0.75 / reps)
        assert abs(total / reps - want) <= 3 * sigma


def row_loop_triangle(model, seed, alt):
    """The row-at-a-time sampler the block sampler replaced: the reference
    stream, one rng.random call per row."""
    n = model.n
    rng = generator(seed)
    rows = []
    if alt is not None:
        c = np.asarray(alt.community, dtype=np.int64)
        in_c = np.zeros(n, dtype=bool)
        in_c[c] = True
    for i in range(n - 1):
        p_row = np.asarray(model.row_probabilities(i), dtype=np.float64)
        if alt is not None and in_c[i]:
            p_row = p_row.copy()
            later = c[c > i] - (i + 1)
            p_row[later] = p_row[later] * alt.rho
        u = rng.random(n - 1 - i)
        rows.append(u < p_row)
    if not rows:
        return np.zeros(0, dtype=bool)
    return np.concatenate(rows)


class TestBlockSampler:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["homogeneous", "rank_one", "general"]),
           st.integers(min_value=1, max_value=70),
           st.sampled_from([1, 3, 17, 64, 1 << 16]),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_block_sampler_matches_the_row_loop(self, seed, kind, n, block, at_cap):
        # small blocks put rows and communities across block boundaries; a
        # triangle within one block is drawn from the model's own p_ij, kept
        # from its first sample on, so each model is sampled twice
        rng = np.random.default_rng(seed)
        model = random_model(kind, n, rng)
        with mock.patch.object(model_module, "_SAMPLE_BLOCK", block):
            for again in (seed, seed ^ 1):
                null = sample_null(model, again)
                assert np.array_equal(null.packed,
                                      np.packbits(row_loop_triangle(model, again, None)))
            kept = model.__dict__.get("_triangle_probabilities")
            if kind == "homogeneous" or not 0 < n * (n - 1) // 2 <= block:
                assert kept is None
            else:
                i, j = np.triu_indices(n, 1)
                assert not kept.flags.writeable
                assert np.array_equal(kept, model.pair_probability(i, j))
            if n < 2:
                return
            r = int(rng.integers(2, min(n, 10) + 1))
            c = np.sort(rng.choice(n, size=r, replace=False))
            p_max = model.max_pair_within(c)[0]
            rho = 1.0
            if at_cap and p_max > 0:
                rho = 1.0 / p_max
                while rho * p_max > 1.0:
                    rho = float(np.nextafter(rho, 0.0))
                rho = max(rho, 1.0)
            alt = PlantedAlternative(tuple(int(v) for v in c), rho, model)
            for again in (seed, seed ^ 1):
                planted = sample_alternative(model, alt, again)
                assert np.array_equal(planted.packed,
                                      np.packbits(row_loop_triangle(model, again, alt)))

    @pytest.mark.parametrize("kind", ["rank_one", "general"])
    def test_two_block_triangle_matches_the_row_loop(self, kind):
        # n = 400 has 79,800 pairs: two blocks at the default block size, so
        # rows are filled in place, cut between the blocks, and the second
        # block's uniforms are drawn into the first block's array
        assert 400 * 399 // 2 > model_module._SAMPLE_BLOCK
        model = random_model(kind, 400, np.random.default_rng(4))
        c = (0, 17, 180, 181, 399)
        alt = PlantedAlternative(c, 1.0 / model.max_pair_within(np.array(c))[0], model)
        for seed in (0, 11):
            assert np.array_equal(sample_null(model, seed).packed,
                                  np.packbits(row_loop_triangle(model, seed, None)))
            assert np.array_equal(sample_alternative(model, alt, seed).packed,
                                  np.packbits(row_loop_triangle(model, seed, alt)))
        assert "_triangle_probabilities" not in model.__dict__

    def test_alternative_built_on_another_model_is_rebound(self):
        # the community is lifted against the sampled model's probabilities,
        # and rho * p <= 1 is checked against them
        built_on = Homogeneous(30, 0.1)
        sampled = RankOne(np.linspace(0.05, 0.45, 30))
        alt = PlantedAlternative((2, 9, 17, 28), 2.0, built_on)
        own = PlantedAlternative((2, 9, 17, 28), 2.0, sampled)
        for seed in (0, 5, 77):
            g = sample_alternative(sampled, alt, seed)
            assert np.array_equal(g.packed, sample_alternative(sampled, own, seed).packed)
            assert np.array_equal(g.packed, np.packbits(row_loop_triangle(sampled, seed, own)))
            assert g.planted_community == (2, 9, 17, 28) and g.planted_rho == 2.0
        too_strong = PlantedAlternative((2, 9), 4.0, built_on)
        with pytest.raises(ValidationError):
            sample_alternative(Homogeneous(30, 0.3), too_strong, 0)


@pytest.fixture(scope="module")
def sample():
    return sample_null(Homogeneous(24, 0.35), 42)


class TestCounting:

    def test_within_against_naive(self, sample):
        adj = sample.adjacency_matrix()
        rng = np.random.default_rng(0)
        for _ in range(40):
            k = int(rng.integers(0, 12))
            subset = rng.choice(24, size=k, replace=False)
            assert sample.edges_within(subset) == naive_within(adj, subset)

    def test_across_against_naive(self, sample):
        adj = sample.adjacency_matrix()
        rng = np.random.default_rng(1)
        for _ in range(40):
            k = int(rng.integers(1, 20))
            subset = rng.choice(24, size=k, replace=False)
            assert sample.edges_across(subset) == naive_across(adj, subset, 24)

    def test_degree_matches_adjacency(self, sample):
        adj = sample.adjacency_matrix()
        for v in range(24):
            assert sample.degree(v) == int(adj[v].sum())

    def test_has_edge_symmetric(self, sample):
        assert sample.has_edge(3, 17) == sample.has_edge(17, 3)

    def test_handshake_identity(self, sample):
        # degrees over D double-count internal edges and single-count leavers
        for subset in [(0, 1), (2, 4, 8, 16), tuple(range(10))]:
            deg = sum(sample.degree(v) for v in subset)
            assert deg == 2 * sample.edges_within(subset) + sample.edges_across(subset)

    def test_whole_vertex_set(self, sample):
        assert sample.edges_within(range(24)) == sample.total_edges()
        assert sample.edges_across(range(24)) == 0
        assert sample.edges_across([]) == 0
        assert sample.edges_within([5]) == 0

    @given(st.integers(min_value=1, max_value=30),
           st.sampled_from(["random", "empty", "complete"]),
           st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_counts_against_brute_force(self, n, shape, block, seed):
        # the graph is built from its own edge list, and every count is
        # checked against that list; a small decoder block makes the
        # triangle span many blocks
        rng = np.random.default_rng(seed)
        pairs = list(itertools.combinations(range(n), 2))
        density = {"random": rng.uniform(0.0, 1.0), "empty": 0.0, "complete": 1.0}[shape]
        edges = [pair for pair in pairs if rng.random() < density]
        adj = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            adj[i, j] = adj[j, i] = True
        bits = np.array([adj[i, j] for i, j in pairs], dtype=bool)
        g = GraphSample(n, np.packbits(bits), None, "imported")
        with mock.patch.object(model_module, "_PAIR_BLOCK", block):
            decoded = [(int(i), int(j)) for a, b in g._edges() for i, j in zip(a, b)]
            assert np.array_equal(g.adjacency_matrix(), adj)
            assert [g.degree(v) for v in range(n)] == adj.sum(axis=1).tolist()
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "g.txt"
                write_edge_list(g, path)
                lines = path.read_text().splitlines()
        assert decoded == edges
        assert lines == [f"{n} {len(edges)}"] + [f"{i} {j}" for i, j in edges]
        k = int(rng.integers(0, n + 1))
        rows = np.array([np.sort(rng.choice(n, size=k, replace=False))
                         for _ in range(5)], dtype=np.int64).reshape(5, k)
        assert model_module._edge_counts([g], rows)[0].tolist() == [
            naive_within(adj, r) for r in rows]
        for row in rows:
            assert g.edges_within(row) == naive_within(adj, row)
            assert g.edges_across(row) == naive_across(adj, row, n)

    def test_packed_size_validated(self):
        with pytest.raises(ValidationError):
            GraphSample(10, np.zeros(99, dtype=np.uint8), 0, "null")

    def test_negative_vertex_count_rejected(self):
        # n = -2 would otherwise give pair_count 3 and accept one byte
        with pytest.raises(ValidationError, match="vertex count must be >= 1"):
            GraphSample(-2, [0], None, "imported")

    def test_two_dimensional_packed_rejected(self):
        with pytest.raises(ValidationError, match=r"has shape \(1, 1\), expected \(1,\)"):
            GraphSample(3, np.zeros((1, 1), dtype=np.uint8), None, "imported")

    def test_byte_values_outside_0_255_rejected(self):
        # 256 would wrap to 0 (and 0x1E0 to 0xE0) in a uint8 cast
        for value in (256, 0x1E0, -32):
            with pytest.raises(ValidationError, match="byte values"):
                GraphSample(3, np.array([value], dtype=np.int64), None, "imported")
        assert GraphSample(3, np.array([0xE0], dtype=np.int64), None, "imported").total_edges() == 3

    def test_padding_bits_rejected(self):
        # 3 pairs use the top 3 bits of the one byte; a set padding bit
        # would count as an edge in total_edges but in no subset
        with pytest.raises(ValidationError, match="past its 3 pairs"):
            GraphSample(3, [0xFF], None, "imported")
        g = GraphSample(3, [0xE0], None, "imported")
        assert g.total_edges() == g.edges_within(range(3)) == 3

    def test_no_call_allocates_the_unpacked_triangle(self, tmp_path):
        # every call reads the packed bytes (n^2/16) and at most one block
        # of positions; a bool per pair would be pair_count bytes
        n = 4096
        model = Homogeneous(n, 0.002)
        g = sample_null(model, 0)
        path = tmp_path / "g.txt"
        family = Explicit(tuple(tuple(range(v, v + 6)) for v in range(0, 600, 3)))

        def fresh():
            return GraphSample(n, g.packed, None, "imported")

        calls = {
            "sample_null": lambda: sample_null(model, 1),
            "write_edge_list": lambda: write_edge_list(fresh(), path),
            "read_edge_list": lambda: read_edge_list(path),
            "degree": lambda: fresh().degree(7),
            "edges_within": lambda: fresh().edges_within(range(0, 4000, 50)),
            "has_edge": lambda: fresh().has_edge(5, 4000),
            "scan_known": lambda: scan_known(model, fresh(), ScanConfig(6, family=family)),
        }
        write_edge_list(g, path)
        scan_known(model, g, ScanConfig(6, family=family))  # builds the plan
        peaks = {}
        tracemalloc.start()
        try:
            for name, call in calls.items():
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert read_edge_list(path).packed.tobytes() == g.packed.tobytes()
        assert all(peak < g.pair_count // 2 for peak in peaks.values()), peaks

    def test_large_subset_count_holds_bounded_memory(self):
        # k = 4000 has 8.0e6 pairs: int64 temporaries for all of them at
        # once would take several hundred MB
        g = sample_null(Homogeneous(4096, 0.002), 0)
        adjacency = g.adjacency_matrix()
        for k in (2000, 4000):
            want = int(adjacency[:k, :k].sum()) // 2
            tracemalloc.start()
            try:
                got = g.edges_within(range(k))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want
            assert peak < 80 * 2**20, (k, peak)

    def test_adjacency_matrix_size_guard(self):
        n = 8193
        packed = np.zeros((n * (n - 1) // 2 + 7) // 8, dtype=np.uint8)
        big = GraphSample(n, packed, None, "imported")
        with pytest.raises(ValidationError):
            big.adjacency_matrix()


class TestExpectations:
    def test_rank_one_closed_forms(self):
        model = RankOne(np.array([0.2, 0.3, 0.5]))
        assert math.isclose(expected_total_null(model), 0.31, rel_tol=1e-12)
        assert math.isclose(expected_edges_null(model, [0, 1]), 0.06, rel_tol=1e-12)
        assert math.isclose(expected_edges_across_null(model, [0]), 0.16, rel_tol=1e-12)

    def test_rank_one_mean_does_not_cancel(self):
        # one dominant weight: (sum w)^2 - sum w^2 loses the small pairs
        # to cancellation; the pair sum must stay within an ulp or two
        w = [0.9, 1e-7, 1e-7]
        model = RankOne(np.array(w))
        exact = sum(Fraction(a) * Fraction(b) for a, b in itertools.combinations(w, 2))
        for got in (expected_edges_null(model, [0, 1, 2]), expected_total_null(model),
                    model.max_within_mean(np.arange(3), 3, 1)):
            assert abs(Fraction(got) - exact) <= exact * 2**-51
        assert model.within_mean(np.zeros((3, 1), dtype=np.int64)).tolist() == [0.0] * 3
        assert model.within_mean(np.zeros((2, 0), dtype=np.int64)).tolist() == [0.0] * 2

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 30),
           st.sampled_from([np.int32, np.int64]))
    @settings(max_examples=60, deadline=None)
    def test_rank_one_mean_equals_the_column_loop(self, seed, k, dtype):
        # the sums accumulate left to right, so the vectorised mean keeps the
        # column loop's floats bit for bit
        rng = np.random.default_rng(seed)
        n = k + int(rng.integers(1, 40))
        w = np.minimum(10.0 ** rng.uniform(-12.0, 0.0, size=n), 0.999)
        rows = np.sort(np.array([rng.choice(n, size=k, replace=False) for _ in range(5)],
                                dtype=dtype).reshape(5, k), axis=1)
        acc, prefix = np.zeros(5), np.zeros(5)
        for a in range(1, k):
            prefix += w[rows[:, a - 1]]
            acc += w[rows[:, a]] * prefix
        assert RankOne(w).within_mean(rows).tobytes() == acc.tobytes()

    def test_homogeneous_closed_forms(self):
        model = Homogeneous(10, 0.3)
        assert expected_edges_null(model, range(4)) == pytest.approx(1.8)
        assert expected_edges_across_null(model, range(4)) == pytest.approx(7.2)
        assert expected_total_null(model) == pytest.approx(13.5)

    def test_general_matrix_agrees_with_rank_one(self):
        w = np.array([0.2, 0.3, 0.5, 0.4])
        outer = np.outer(w, w)
        np.fill_diagonal(outer, 0.0)
        r1, gm = RankOne(w), GeneralMatrix(outer)
        for subset in [(0, 1), (1, 2, 3), (0, 1, 2, 3), (2,)]:
            assert expected_edges_null(gm, subset) == pytest.approx(
                expected_edges_null(r1, subset), rel=1e-12
            )
            assert expected_edges_across_null(gm, subset) == pytest.approx(
                expected_edges_across_null(r1, subset), rel=1e-12
            )
        assert expected_total_null(gm) == pytest.approx(expected_total_null(r1), rel=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_probability_lookup_consistent_with_rows(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.05, 0.95, size=6)
        model = RankOne(w)
        i = int(rng.integers(0, 5))
        row = model.row_probabilities(i)
        for j in range(i + 1, 6):
            assert model.probability(i, j) == pytest.approx(row[j - i - 1])

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["homogeneous", "rank_one", "general"]))
    @settings(max_examples=60, deadline=None)
    def test_within_mean_is_the_sum_of_pair_probabilities(self, seed, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        model = random_model(kind, n, rng)
        k = int(rng.integers(0, n + 1))
        rows = np.array([np.sort(rng.choice(n, size=k, replace=False))
                         for _ in range(4)], dtype=np.int64).reshape(4, k)
        got = model.within_mean(rows)
        assert got.shape == (4,)
        for row, value in zip(rows, got):
            want = sum(model.probability(int(row[a]), int(row[b]))
                       for a in range(k) for b in range(a + 1, k))
            assert value == pytest.approx(want, rel=1e-12)
            assert expected_edges_null(model, row) == value

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["homogeneous", "rank_one", "general"]))
    @settings(max_examples=60, deadline=None)
    def test_pair_probability_is_probability_elementwise(self, seed, kind):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        model = random_model(kind, n, rng)
        i = rng.integers(0, n, size=(3, 5))
        j = (i + rng.integers(1, n, size=(3, 5))) % n
        got = model.pair_probability(i, j)
        assert got.shape == (3, 5)
        want = [[model.probability(int(a), int(b)) for a, b in zip(ra, rb)]
                for ra, rb in zip(i, j)]
        assert got.tolist() == want


class TestSubsetSearch:
    @given(st.integers(min_value=1, max_value=14), st.data())
    @settings(max_examples=80, deadline=None)
    def test_combination_tables_are_itertools_combinations(self, n, data):
        # the first table is enumerated, every later one extended from it
        lo = data.draw(st.integers(min_value=1, max_value=n + 1))
        hi = data.draw(st.integers(min_value=lo, max_value=n + 1))
        tables = list(model_module._combination_tables(n, lo, hi))
        assert len(tables) == hi - lo + 1
        previous = None
        for k, (table, starts) in zip(range(lo, hi + 1), tables):
            assert table.dtype == np.int32
            assert table.shape == (math.comb(n, k), k)
            assert table.tolist() == [list(d) for d in itertools.combinations(range(n), k)]
            # each later table's head starts index the table below it
            if previous is None:
                assert starts is None
            else:
                assert starts == tuple(int(np.searchsorted(previous[:, 0], a + 1))
                                       for a in range(n))
            previous = table

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_general_max_within_mean_is_the_brute_force_max(self, seed, ties):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        c = np.sort(rng.choice(n, size=int(rng.integers(2, min(n, 10) + 1)), replace=False))
        m = rng.uniform(0.0, 1.0, size=(n, n))
        if ties:
            m = np.round(m * 2) / 4  # entries in {0, 0.25, 0.5}: many subsets tie
        m = np.triu(m, 1)
        model = GeneralMatrix(m + m.T)
        for k in range(1, c.size + 1):
            count = math.comb(c.size, k)
            assert model.max_within_mean(c, k, count) == naive_max_within(model.matrix, c, k)
            with pytest.raises(BudgetError, match="audit budget"):
                model.max_within_mean(c, k, count - 1)

    def test_general_max_within_mean_across_slices(self, monkeypatch):
        monkeypatch.setattr(model_module, "_BATCH_ROWS", 7)
        rng = np.random.default_rng(11)
        m = np.triu(rng.uniform(0.0, 1.0, size=(14, 14)), 1)
        model = GeneralMatrix(m + m.T)
        c = np.array([0, 2, 3, 5, 7, 8, 10, 11, 12, 13])
        for k in range(2, 9):  # C(10, k) is 10 to 252 rows: up to 36 slices
            assert model.max_within_mean(c, k, 10**6) == naive_max_within(model.matrix, c, k)


class TestInterchange:
    def test_edge_list_round_trip(self, tmp_path):
        original = sample_null(Homogeneous(17, 0.4), 5)
        path = tmp_path / "g.txt"
        write_edge_list(original, path)
        loaded = read_edge_list(path)
        assert loaded.n == 17
        assert loaded.hypothesis == "imported"
        assert np.array_equal(loaded.packed, original.packed)

    def test_edge_list_read_in_small_blocks(self, tmp_path, monkeypatch):
        # blocks of 7 characters cut most lines, and some tokens, in two
        monkeypatch.setattr(model_module, "_READ_BLOCK", 7)
        original = sample_null(RankOne(np.linspace(0.1, 0.6, 60)), 3)
        path = tmp_path / "g.txt"
        write_edge_list(original, path)
        # an unterminated last line, left over after the last block, goes
        # to the line loop, which reads it
        path.write_text(path.read_text().rstrip("\n"))
        assert np.array_equal(read_edge_list(path).packed, original.packed)
        # a well-formed file is read by the array parse alone
        write_edge_list(original, path)
        monkeypatch.setattr(model_module, "_edge_lines", None)
        assert np.array_equal(read_edge_list(path).packed, original.packed)

    @pytest.mark.parametrize("kind, n", [
        ("homogeneous", 1), ("homogeneous", 2), ("rank_one", 40), ("general", 23),
        ("homogeneous", 10), ("rank_one", 11), ("general", 101), ("rank_one", 1001),
        ("dense", 60)])
    def test_edge_list_bytes_are_one_line_per_edge(self, tmp_path, monkeypatch, kind, n):
        # n = 11, 101 and 1001 each add a digit to the widest vertex; from
        # n = 10 on, edges among vertices 0, 9, 10, 99, 100 and n - 1 put
        # numbers of every width at both ends of a line.  The dense graph is
        # unpacked in blocks of 7 triangle positions, which split rows.
        if kind == "dense":
            monkeypatch.setattr(model_module, "_PAIR_BLOCK", 7)
            model = Homogeneous(n, 0.9)
        else:
            model = random_model(kind, n, generator(n))
        sample = sample_null(model, 9)
        if n >= 10:
            bits = np.unpackbits(sample.packed, count=sample.pair_count)
            ends = sorted({v for v in (0, 9, 10, 99, 100, n - 1) if v < n})
            for i, j in itertools.combinations(ends, 2):
                bits[sample.pair_index(i, j)] = 1
            sample = GraphSample(n, np.packbits(bits), 9, "null")
        path = tmp_path / "g.txt"
        write_edge_list(sample, path)
        adj = sample.adjacency_matrix()
        lines = [f"{i} {j}\n" for i in range(n) for j in range(i + 1, n) if adj[i, j]]
        assert path.read_bytes() == f"{n} {len(lines)}\n{''.join(lines)}".encode("ascii")

    def test_edge_list_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("17\n")
        with pytest.raises(ValidationError, match="header"):
            read_edge_list(path)

    @pytest.mark.parametrize("text, message", [
        ("4 1\n0 x\n", "malformed edge line '0 x"),
        ("4 2\n0 1\n1.5 2\n", "malformed edge line '1.5 2"),
        ("x 1\n0 1\n", "malformed header"),
        ("4 one\n0 1\n", "malformed header"),
    ], ids=["edge-word", "edge-float", "header-word-n", "header-word-m"])
    def test_edge_list_rejects_non_integer_tokens(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            read_edge_list(path)

    @pytest.mark.parametrize("text, message", [
        # four tokens, two per line on average: a token count would pass it
        ("4 2\n0 1 2\n3\n", r"malformed edge line '0 1 2\\n'$"),
        ("4 1\n0 1\n\n2\n", r"malformed edge line '2\\n'$"),
        ("4 1\n0 1 2 3\n", r"malformed edge line '0 1 2 3\\n'$"),
        # a vertical tab separates tokens but does not end the line
        ("4 3\n0 1\n0 3 \x0b 1 2\n", r"malformed edge line '0 3 \\x0b 1 2\\n'$"),
        ("4 1\n0 99999999999999999999\n",
         r"edge \(0, 99999999999999999999\) violates 0 <= i < j < n=4$"),
    ], ids=["three-then-one", "one-token", "four-tokens", "vertical-tab", "over-long-integer"])
    def test_edge_list_rejects_malformed_lines(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            read_edge_list(path)

    @given(st.lists(st.one_of(
               st.lists(st.sampled_from(["0", "1", "2", "3", "007"]), min_size=2, max_size=2),
               st.lists(st.sampled_from(["0", "3", "+1", "1_0", "-1", "x", "1.5", "",
                                         "99999999999999999999", "0000000000000000000003"]),
                        max_size=4)), max_size=8),
           st.sampled_from([" ", " ", "\t", "  ", "\x0b", "\x1c"]),
           st.sampled_from(["\n", "\n", "\r\n", "\n\n"]),
           st.booleans(),
           st.sampled_from([1, 4, 9, 1 << 20]))
    @settings(max_examples=200, deadline=None)
    def test_edge_list_reader_matches_the_line_loop(self, lines, sep, end, unterminated, block):
        # the array parse and the line loop accept the same files, with the
        # same graph, and reject the others with the same message; small
        # read blocks cut lines and tokens at block boundaries
        text = "".join(sep.join(tokens) + end for tokens in lines)
        if unterminated:
            text = text.rstrip("\r\n")
        m = sum(1 for tokens in lines if "".join(tokens))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            path.write_bytes(f"4 {m}\n{text}".encode("ascii"))
            try:
                with mock.patch.object(model_module, "_READ_BLOCK", block):
                    got = read_edge_list(path).packed
            except ValidationError as exc:
                got = str(exc)
            with open(path, encoding="ascii") as fh:
                fh.readline()
                try:
                    idx = model_module._edge_positions(4, *model_module._edge_lines(fh, 4))
                    bits = np.zeros(6, dtype=bool)
                    bits[idx] = True
                    want = np.packbits(bits)
                    if idx.size != m:
                        want = f"header claims {m} edges, file has {idx.size}"
                except ValidationError as exc:
                    want = str(exc)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("where", ["header", "first-line", "past-8-KiB"])
    @pytest.mark.parametrize("after_non_canonical", [False, True])
    @pytest.mark.parametrize("block", [16, 1 << 20])
    def test_edge_list_rejects_non_ascii_bytes(self, tmp_path, monkeypatch,
                                               where, after_non_canonical, block):
        # one message wherever the byte sits: a line-loop read past the
        # first decoded chunk used to report it as a malformed line, and a
        # small read block sends a non-canonical file there early
        monkeypatch.setattr(model_module, "_READ_BLOCK", block)
        body = [f"{i} {j}\n" for i in range(60) for j in range(i + 1, 60)]
        if after_non_canonical:
            body[0] = "0  1\n"
        text = "".join(body).encode("ascii")
        header = f"60 {len(body)}\n".encode("ascii")
        if where == "header":
            header = header.replace(b" ", b" \xe9")
        elif where == "first-line":
            text = text.replace(b"2\n", b"2\xe9\n", 1)
        else:
            assert len(text) > 9000
            text = text[:9000] + text[9000:].replace(b"\n", b"\xc3\xa9\n", 1)
        path = tmp_path / "g.txt"
        path.write_bytes(header + text)
        with pytest.raises(ValidationError, match="is not ASCII text$"):
            read_edge_list(path)

    def test_edge_list_reader_holds_one_block(self, tmp_path, monkeypatch):
        # the array parse sets each block's bits as it goes, so nothing of
        # the size of the file or of its edge count is held
        monkeypatch.setattr(model_module, "_READ_BLOCK", 1 << 14)
        sample = sample_null(Homogeneous(1500, 0.5), 0)
        path = tmp_path / "g.txt"
        write_edge_list(sample, path)
        assert path.stat().st_size > 4 * 10**6
        tracemalloc.start()
        try:
            got = read_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.packed, sample.packed)
        assert peak < 2 * (1500 * 1499 // 2)

    def test_edge_list_writer_holds_one_block(self, tmp_path, monkeypatch):
        # each block of 2^14 triangle positions is written as it is formatted,
        # so nothing of the size of the file or of its edge count is held
        monkeypatch.setattr(model_module, "_PAIR_BLOCK", 1 << 14)
        sample = sample_null(Homogeneous(1500, 0.5), 0)
        path = tmp_path / "g.txt"
        tracemalloc.start()
        try:
            write_edge_list(sample, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 4 * 10**6
        # one block: at most 2^14 lines of 10 bytes, and 8-byte arrays of its
        # positions and edges
        assert peak < 1 << 20
        assert np.array_equal(read_edge_list(path).packed, sample.packed)

    @pytest.mark.parametrize("block", [7, 1 << 20])
    def test_read_degrees_are_the_graph_degrees(self, tmp_path, monkeypatch, block):
        # the array parse counts each line's ends as it reads them; a file
        # it does not read whole (an unterminated last line) goes to the
        # line loop, and its graph counts its degrees when first asked
        monkeypatch.setattr(model_module, "_READ_BLOCK", block)
        original = sample_null(RankOne(np.linspace(0.1, 0.6, 60)), 3)
        path = tmp_path / "g.txt"
        write_edge_list(original, path)
        want = original.adjacency_matrix().sum(axis=1)
        got = read_edge_list(path)
        kept = got.__dict__["_degrees"]
        assert kept.dtype == np.int64 and not kept.flags.writeable
        assert np.array_equal(kept, want)
        path.write_text(path.read_text().rstrip("\n"))
        got = read_edge_list(path)
        assert "_degrees" not in got.__dict__
        assert got._degrees.dtype == np.int64
        assert np.array_equal(got._degrees, want)
        assert [got.degree(v) for v in range(60)] == want.tolist()

    def test_edge_list_missing_path(self, tmp_path):
        with pytest.raises(ValidationError,
                           match=r"^cannot read edge list .*nope\.txt: No such file or directory$"):
            read_edge_list(tmp_path / "nope.txt")

    def test_edge_list_rejects_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 2\n0 1\n")
        with pytest.raises(ValidationError, match="claims 2"):
            read_edge_list(path)

    def test_edge_list_rejects_repeated_edge(self, tmp_path):
        # the header count matches the line count, but only two pairs are distinct
        path = tmp_path / "bad.txt"
        path.write_text("4 3\n0 1\n0 1\n2 3\n")
        with pytest.raises(ValidationError, match=r"edge \(0, 1\) is listed more than once"):
            read_edge_list(path)

    def test_edge_list_rejects_unordered_pair(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 1\n2 1\n")
        with pytest.raises(ValidationError):
            read_edge_list(path)

    def test_model_json_round_trips(self, tmp_path):
        hom = Homogeneous(8, 0.25)
        assert model_from_json(model_to_json(hom)) == hom

        r1 = RankOne(np.array([0.2, 0.4, 0.6]))
        back = model_from_json(model_to_json(r1))
        assert np.array_equal(back.weights, r1.weights)

        m = np.zeros((3, 3))
        m[0, 1] = m[1, 0] = 0.7
        gm = GeneralMatrix(m)
        assert np.array_equal(model_from_json(model_to_json(gm)).matrix, m)

        via_file = model_to_json(gm, matrix_path=tmp_path / "m")
        assert via_file["matrix_path"].endswith(".npy")
        assert np.array_equal(model_from_json(via_file).matrix, m)

    def test_model_json_from_a_file_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"variant": "rank_one", "weights": [0.5, 0.25, 0.125]}')
        model = model_from_json(path)
        assert isinstance(model, RankOne)
        assert model.weights.tolist() == [0.5, 0.25, 0.125]
        assert model_from_json(str(path)).pair_probability(0, 2) == 0.0625

    @pytest.mark.parametrize("source, message", [
        ("nope.json", r"^model descriptor not found: .*nope\.json$"),
        (".", r"^cannot read model descriptor .*: Is a directory$"),
        ("truncated.json", r"^model descriptor .*truncated\.json is not valid JSON: "),
        ("latin1.json", r"^model descriptor .*latin1\.json is not valid JSON: 'utf-8' codec"),
        ("list.json", r"^model descriptor .*list\.json must hold a JSON object$"),
        (0, r"^model descriptor must be an object or a path, got int$"),
        ([1], r"^model descriptor must be an object or a path, got list$"),
    ], ids=["missing", "directory", "truncated", "not-utf8", "list", "zero", "list-value"])
    def test_model_json_read_faults(self, tmp_path, monkeypatch, source, message):
        # 0 used to read the descriptor from standard input
        (tmp_path / "truncated.json").write_text('{"variant": "homogeneous", "n"')
        (tmp_path / "latin1.json").write_bytes(b'{"variant": "caf\xe9"}')
        (tmp_path / "list.json").write_text("[1]")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValidationError, match=message):
            model_from_json(source)

    def test_model_json_errors(self):
        with pytest.raises(ValidationError):
            model_from_json({"variant": "mystery"})
        with pytest.raises(ValidationError):
            model_from_json({"variant": "homogeneous", "n": 5})  # p missing
        with pytest.raises(ValidationError):
            model_from_json({"n": 5, "p": 0.5})


class TestSeedStreams:
    @given(st.integers(), st.text(), st.integers() | st.integers(min_value=2**64))
    @settings(max_examples=200, deadline=None)
    def test_stream_is_derive_seed(self, master_seed, label, index):
        assert _stream(master_seed, label)(index) == derive_seed(master_seed, label, index)


class TestSamplerSeeds:
    """Both samplers take a non-negative integer seed, and nothing else."""

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
        (True, "seed must be an integer, got True"),
    ], ids=["negative", "float", "str", "bool"])
    def test_bad_seed_is_a_validation_error(self, seed, message):
        model = Homogeneous(8, 0.3)
        alt = PlantedAlternative((0, 1, 2), 2.0, model)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            sample_null(model, seed)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            sample_alternative(model, alt, seed)

    def test_numpy_and_large_seeds_are_accepted(self):
        model = Homogeneous(8, 0.3)
        assert np.array_equal(sample_null(model, np.uint64(3)).packed,
                              sample_null(model, 3).packed)
        assert sample_null(model, 2**64 - 1).n == 8
