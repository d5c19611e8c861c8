"""Unit tests for the analytic kernels.

Decimal reference values were computed with a standalone high-precision
oracle (tests/oracles/frozen_values.py) and frozen; tolerances here are
far tighter than the double-precision implementation needs to meet them
by luck.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from plantedscan import (
    KernelTolerance,
    NumericError,
    ValidationError,
    bennett_upper_tail_bound,
    entropy_h,
    entropy_h_inverse,
    kl_bernoulli,
)
from plantedscan.kernels import entropy_h_vec


class TestEntropyH:
    def test_zero(self):
        assert entropy_h(0.0) == 0.0

    def test_unit_at_e_minus_one(self):
        assert math.isclose(entropy_h(math.e - 1.0), 1.0, rel_tol=1e-12)

    def test_frozen_values(self):
        assert math.isclose(entropy_h(1.0), 0.386294361119891, rel_tol=1e-12)
        assert math.isclose(entropy_h(4.0), 4.0471895621705, rel_tol=1e-12)
        assert math.isclose(entropy_h(19.0), 40.9146454710798, rel_tol=1e-12)

    def test_lower_tail_accepted(self):
        # x in (-1, 0) is a valid lower-tail argument
        assert entropy_h(-0.5) == pytest.approx(0.5 * math.log(0.5) + 0.5, rel=1e-12)
        assert entropy_h(-0.5) > 0.0

    @pytest.mark.parametrize("bad", [-1.0, -2.0, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValidationError):
            entropy_h(bad)

    def test_infinity(self):
        # the formula gives inf - inf there; h grows without bound
        assert entropy_h(math.inf) == math.inf
        assert entropy_h_vec(np.array([math.inf, 1.0])).tolist() == [math.inf, entropy_h(1.0)]

    def test_series_seam_is_smooth(self):
        # the Taylor branch hands over at |x| = 1e-4; both sides must agree
        for x in (9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4):
            direct = (1.0 + x) * math.log1p(x) - x
            assert math.isclose(entropy_h(x), direct, rel_tol=1e-9)

    @given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
    def test_strictly_increasing(self, x, gap):
        # gap floor keeps the increment above one ulp of h over this range
        assert entropy_h(x) < entropy_h(x + gap)

    def test_small_x_asymptote(self):
        for x in np.linspace(-0.05, 0.05, 41):
            if x == 0.0:
                continue
            assert abs(entropy_h(x) / (x * x / 2.0) - 1.0) <= 0.1

    def test_large_x_asymptote(self):
        # the deviation of h(x-1)/(x ln x) from 1 decays like 1/ln x, so it
        # reaches 0.05 only around x = e^20; check the envelope, not a fixed gap
        for x in (1e4, 1e5, 1e6, 1e8):
            ratio = entropy_h(x - 1.0) / (x * math.log(x))
            assert abs(ratio - 1.0) <= 1.1 / math.log(x)
        x = 1e9
        assert abs(entropy_h(x - 1.0) / (x * math.log(x)) - 1.0) <= 0.05

    def test_vector_matches_scalar(self):
        xs = np.array([-0.9, -1e-5, 0.0, 1e-5, 1e-3, 0.5, 1.0, 4.0, 19.0, 300.0])
        vec = entropy_h_vec(xs)
        for x, v in zip(xs, vec):
            assert math.isclose(v, entropy_h(float(x)), rel_tol=1e-14, abs_tol=1e-300)

    def test_vector_domain(self):
        with pytest.raises(ValidationError):
            entropy_h_vec(np.array([0.5, -1.0]))
        with pytest.raises(ValidationError):
            entropy_h_vec(np.array([float("nan")]))


class TestEntropyHInverse:
    def test_zero(self):
        assert entropy_h_inverse(0.0) == 0.0

    def test_table_argument(self):
        # h_inv(2/1.21) drives the s=0.1 degenerate threshold 3.311
        x = entropy_h_inverse(2.0 / 1.21)
        assert math.isclose(x, 2.31083040432213, rel_tol=1e-10)

    def test_round_trip_at_five(self):
        assert abs(entropy_h_inverse(entropy_h(5.0)) - 5.0) <= 1e-9

    def test_round_trip_grid(self):
        for y in np.linspace(0.0, 100.0, 201):
            x = entropy_h_inverse(float(y))
            assert abs(entropy_h(x) - y) <= 1e-10

    @given(st.floats(min_value=1e-8, max_value=1e8))
    def test_residual_contract(self, y):
        x = entropy_h_inverse(y)
        assert x >= 0.0
        # residual scales with y: an absolute 1e-12 is below ulp(y) past ~1e4
        assert abs(entropy_h(x) - y) <= 1e-12 * max(1.0, y)

    @pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValidationError):
            entropy_h_inverse(bad)

    def test_exhausted_iterations_report_bracket(self):
        tol = KernelTolerance(abs_tol=1e-300, max_iter=3)
        with pytest.raises(NumericError, match="bracket"):
            entropy_h_inverse(7.3, tol)

    def test_tolerance_validation(self):
        with pytest.raises(ValidationError):
            KernelTolerance(abs_tol=0.0)
        with pytest.raises(ValidationError):
            KernelTolerance(max_iter=0)


class TestKlBernoulli:
    def test_identical(self):
        assert kl_bernoulli(0.3, 0.3) == 0.0

    def test_frozen_value(self):
        assert math.isclose(kl_bernoulli(0.1, 0.2), 0.0444030075868823, rel_tol=1e-12)

    def test_subnormal_p(self):
        # q / p overflows; q ln(q/p) is q (ln q - ln p), about 368.07
        p = 1e-320
        expected = 0.5 * (math.log(0.5) - math.log(p)) + 0.5 * math.log(0.5 / (1.0 - p))
        assert math.isclose(kl_bernoulli(p, 0.5), expected, rel_tol=1e-12)
        assert kl_bernoulli(p, 0.5) == pytest.approx(367.72, abs=0.01)

    def test_nonnegative(self):
        for p, q in [(0.01, 0.9), (0.5, 0.499), (0.7, 0.2)]:
            assert kl_bernoulli(p, q) >= 0.0

    @pytest.mark.parametrize("p,q", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)])
    def test_domain_errors(self, p, q):
        with pytest.raises(ValidationError):
            kl_bernoulli(p, q)

    @given(
        st.floats(min_value=1e-4, max_value=0.49),
        st.floats(min_value=1e-4, max_value=0.49),
    )
    def test_entropy_bridge(self, p, gap):
        # KL(p, q) tracks p*h(q/p - 1) to relative accuracy O(p + q)
        q = p + gap * (0.5 - p) / 0.49
        if not p < q < 0.5:
            return
        bridge = p * entropy_h(q / p - 1.0)
        assert abs(kl_bernoulli(p, q) / bridge - 1.0) <= 10.0 * (p + q)


class TestBennettBound:
    def test_mean_one(self):
        assert math.isclose(
            bennett_upper_tail_bound(1.0, math.e - 1.0), math.exp(-1.0), rel_tol=1e-12
        )

    def test_frozen_value(self):
        assert math.isclose(
            bennett_upper_tail_bound(0.6, 2.4), 0.0881854110451328, rel_tol=1e-12
        )

    def test_subnormal_mean(self):
        # t / mean overflows to inf, where h is inf: the bound is exp(-inf)
        assert bennett_upper_tail_bound(1e-310, 1.0) == 0.0

    def test_in_unit_interval(self):
        for mean, t in [(0.1, 0.01), (5.0, 1.0), (100.0, 500.0)]:
            b = bennett_upper_tail_bound(mean, t)
            assert 0.0 < b <= 1.0

    @pytest.mark.parametrize("mean,t", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_domain_errors(self, mean, t):
        with pytest.raises(ValidationError):
            bennett_upper_tail_bound(mean, t)

    @given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=0.01, max_value=500.0))
    def test_monotone_in_deviation(self, mean, t):
        far = bennett_upper_tail_bound(mean, t + 0.5)
        assume(far > 1e-300)  # both sides underflow to 0.0 in the deep tail
        assert far < bennett_upper_tail_bound(mean, t)
