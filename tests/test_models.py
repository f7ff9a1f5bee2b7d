import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from segenc.coefficients import REFERENCE_MODEL_SETS
from segenc.models import (
    FitError,
    _shift_coefficients,
    fit_log_poly,
    predict,
)

from conftest import make_model

X265_QPS = list(range(16, 44, 3))
B6 = REFERENCE_MODEL_SETS[("x265", "B6", "max_quality")]


def samples_from(coeffs, qps):
    a, b1, b2 = coeffs
    return [(q, math.exp(a + b1 * q + b2 * q * q)) for q in qps]


class TestFitRecovery:
    def test_reference_psnr_coefficients_recovered(self):
        model = fit_log_poly(samples_from(B6["psnr"], X265_QPS), 2)
        for got, want in zip(model.coefficients, B6["psnr"]):
            assert got == pytest.approx(want, abs=1e-6)
        assert model.adjusted_r2 == pytest.approx(1.0, abs=1e-9)
        assert model.diagnostics.residual_max < 1e-10

    def test_two_samples_order1_interpolates(self):
        model = fit_log_poly([(20, 100.0), (30, 50.0)], 1)
        assert predict(model, 20) == pytest.approx(100.0, rel=1e-12)
        assert predict(model, 30) == pytest.approx(50.0, rel=1e-12)
        assert model.diagnostics.residual_max == pytest.approx(0.0, abs=1e-12)

    def test_constant_response_rejected(self):
        with pytest.raises(FitError, match="degenerate data"):
            fit_log_poly([(q, 5.0) for q in X265_QPS], 1)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(FitError, match="log undefined"):
            fit_log_poly([(16, 10.0), (19, -1.0), (22, 5.0)], 1)

    @pytest.mark.parametrize("order", [0, 3])
    def test_order_outside_one_and_two_rejected(self, order):
        # order 3 has four distinct QPs here, so only the order is at fault
        with pytest.raises(FitError, match="order must be 1 or 2"):
            fit_log_poly(samples_from(B6["bits"], X265_QPS), order)

    def test_too_few_distinct_qps_rejected(self):
        with pytest.raises(FitError, match="rank-deficient"):
            fit_log_poly([(20, 10.0), (20, 11.0), (20, 12.0)], 1)

    def test_refit_on_own_predictions_is_fixed_point(self):
        model = fit_log_poly(samples_from(B6["bits"], X265_QPS), 2)
        again = fit_log_poly([(q, predict(model, q)) for q in X265_QPS], 2)
        for a, b in zip(model.coefficients, again.coefficients):
            assert a == pytest.approx(b, abs=1e-9)

    def test_noise_perturbs_curvature_continuously(self, rng):
        # recovered quadratic coefficient stays within 10*sigma/spread of
        # truth for small log-noise, checked over 100 trials
        sigma = 0.01
        spread = X265_QPS[-1] - X265_QPS[0]
        bound = 10.0 * sigma / spread
        truth = B6["bits"]
        for _ in range(100):
            noisy = [
                (q, math.exp(truth[0] + truth[1] * q + truth[2] * q * q
                             + rng.normal(0.0, sigma)))
                for q in X265_QPS
            ]
            model = fit_log_poly(noisy, 2)
            assert abs(model.coefficients[2] - truth[2]) < bound


def numpy_shift(centered, mid):
    """Reference re-expansion through numpy's Polynomial composition."""
    coef = np.polynomial.Polynomial(centered)(np.polynomial.Polynomial([-mid, 1.0])).coef
    return np.pad(coef, (0, len(centered) - len(coef)))


COEFFICIENT = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class TestReexpansion:
    @settings(max_examples=300, deadline=None)
    @given(
        centered=st.integers(2, 4).flatmap(lambda n: st.lists(COEFFICIENT, min_size=n, max_size=n)),
        mid=st.one_of(st.integers(32, 104).map(lambda k: k / 2.0), st.floats(16.0, 52.0)),
        zero_leading=st.booleans(),
    )
    @example(centered=[1.5, -0.25, 0.0], mid=28.0, zero_leading=False)
    @example(centered=[-0.0, 0.0], mid=16.0, zero_leading=False)
    @example(centered=[-0.0, 16.0, 1.0], mid=16.0, zero_leading=False)  # exact cancellation
    def test_bit_identical_to_numpy_composition(self, centered, mid, zero_leading):
        if zero_leading:
            centered = centered[:-1] + [0.0]
        got = np.array(_shift_coefficients(centered, mid))
        want = numpy_shift(np.array(centered), mid)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_fit_reports_the_shifted_centered_solution(self):
        samples = samples_from(B6["bits"], X265_QPS)
        model = fit_log_poly(samples, 2)
        qp = np.array(X265_QPS, dtype=float)
        mid = (qp.min() + qp.max()) / 2.0
        centered, *_ = np.linalg.lstsq(
            np.vander(qp - mid, 3, increasing=True), np.log([v for _, v in samples]), rcond=None
        )
        assert list(model.coefficients) == numpy_shift(centered, mid).tolist()


class TestPredict:
    def test_reference_bits_at_qp28(self):
        # hand evaluation: exp(15.946 - 0.304*28 + 0.0024092*28^2)
        model = fit_log_poly(samples_from(B6["bits"], X265_QPS), 2)
        expected = math.exp(15.946 - 0.304 * 28 + 0.0024092 * 784)
        got = predict(model, 28)
        assert got == pytest.approx(expected, rel=1e-9)
        assert abs(got - 11188.0) / 11188.0 < 0.005

    def test_intercept_only_model(self):
        model = make_model((2.0,))
        assert predict(model, 16) == pytest.approx(math.exp(2.0))
        assert predict(model, 43) == pytest.approx(math.exp(2.0))

    def test_extrapolation_flagged(self):
        model = fit_log_poly(samples_from(B6["bits"], X265_QPS), 2)
        value = predict(model, 10.0)
        extrapolated = not model.in_range(10.0)
        assert extrapolated
        assert value > 0
        extrapolated = not model.in_range(28.0)
        assert not extrapolated

    def test_bits_fit_monotone_decreasing_over_range(self):
        model = fit_log_poly(samples_from(B6["bits"], X265_QPS), 2)
        values = [predict(model, q) for q in np.linspace(16, 43, 100)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestAllReferenceSets:
    X265_GRID = list(range(16, 44, 3))
    WIDE_GRID = list(range(16, 53, 4))

    @pytest.mark.parametrize("key", sorted(REFERENCE_MODEL_SETS))
    def test_every_published_set_recovered(self, key):
        codec, _, _ = key
        qps = self.X265_GRID if codec == "x265" else self.WIDE_GRID
        for objective, coeffs in REFERENCE_MODEL_SETS[key].items():
            model = fit_log_poly(samples_from(coeffs, qps), 2, objective=objective)
            for got, want in zip(model.coefficients, coeffs):
                assert got == pytest.approx(want, abs=1e-6)
            assert model.adjusted_r2 == pytest.approx(1.0, abs=1e-9)
