import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matorth.linalg import MatrixPolynomial, ad_power, max_abs, nilpotent_exp, worst

I2 = np.eye(2, dtype=complex)


class TestMatrixPolynomial:
    def test_constant_eval(self):
        p = MatrixPolynomial.constant(I2)
        assert np.array_equal(p(3.5), I2)

    def test_linear_identity_scaling(self):
        p = MatrixPolynomial([np.zeros((2, 2)), I2])
        assert np.array_equal(p(2.0), 2.0 * I2)

    def test_nilpotent_exp_eval_matches_closed_form(self):
        a = 0.7 - 0.3j
        m = np.array([[0, a], [0, 0]], dtype=complex)
        e = nilpotent_exp(m)
        expected = np.array([[1, a], [0, 1]], dtype=complex)
        assert max_abs(e(1.0) - expected) == 0.0

    def test_zero_polynomial_degree(self):
        assert MatrixPolynomial((), dim=3).degree == -1
        assert MatrixPolynomial((), dim=3)(1.7).shape == (3, 3)

    def test_derivative_of_constant_is_zero(self):
        p = MatrixPolynomial.constant(I2)
        assert p.derivative().degree == -1

    def test_derivative_power_rule(self):
        c0, c1, c2 = (np.random.default_rng(k).normal(size=(2, 2)) for k in range(3))
        p = MatrixPolynomial([c0, c1, c2])
        d = p.derivative()
        assert max_abs(d.coeff(0) - c1) == 0.0
        assert max_abs(d.coeff(1) - 2.0 * c2) == 0.0
        assert d.degree == 1

    def test_second_derivative_of_t_squared(self):
        p = MatrixPolynomial([np.zeros((2, 2)), np.zeros((2, 2)), I2])
        d = p.derivative(2)
        assert d.degree == 0
        assert np.array_equal(d.coeff(0), 2.0 * I2)

    def test_derivative_degree_floor(self):
        p = MatrixPolynomial([I2, I2])
        assert p.derivative(5).degree == -1

    def test_product_matches_pointwise(self):
        rng = np.random.default_rng(7)
        p = MatrixPolynomial(rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
        q = MatrixPolynomial(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
        t = 0.83
        assert max_abs((p * q)(t) - p(t) @ q(t)) < 1e-12

    def test_conjugate_transpose_pointwise(self):
        rng = np.random.default_rng(9)
        p = MatrixPolynomial(rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3)))
        t = -1.2
        assert max_abs(p.conj_t()(t) - p(t).conj().T) < 1e-12

    def test_monomial(self):
        p = MatrixPolynomial([0 * I2] * 3 + [I2])
        assert p.degree == 3
        assert max_abs(p(2.0) - 8.0 * I2) == 0.0

    def test_constructor_leaves_caller_array_writeable(self):
        m = np.eye(2, dtype=complex)
        p = MatrixPolynomial([m])
        assert m.flags.writeable
        m[0, 0] = 5.0
        assert np.array_equal(p.coeff(0), I2)
        assert not p.coeff(0).flags.writeable

    def test_coeffs_is_one_read_only_tensor(self):
        rng = np.random.default_rng(3)
        p = MatrixPolynomial(rng.normal(size=(3, 2, 2)))
        for q in (p, p * p, p + p, p - 2.0 * p, p.derivative(), p.conj_t(),
                  p.lmul(I2)):
            assert isinstance(q.coeffs, np.ndarray)
            assert q.coeffs.shape == (q.degree + 1, 2, 2)
            assert not q.coeffs.flags.writeable
        assert MatrixPolynomial((), dim=3).coeffs.shape == (0, 3, 3)
        assert (p - p).degree == -1

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MatrixPolynomial([np.eye(2), np.eye(3)])


class TestNilpotentExp:
    def test_zero_matrix(self):
        e = nilpotent_exp(np.zeros((3, 3)))
        assert e.degree == 0
        assert np.array_equal(e.coeff(0), np.eye(3))

    def test_three_by_three_bidiagonal(self):
        a1, a2 = 1.5, -0.5 + 2.0j
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1], m[1, 2] = a1, a2
        e = nilpotent_exp(m)
        assert e.degree == 2
        sq = np.zeros((3, 3), dtype=complex)
        sq[0, 2] = a1 * a2
        assert max_abs(e.coeff(1) - m) == 0.0
        assert max_abs(e.coeff(2) - sq / 2.0) == 0.0

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ValueError, match="nilpotent"):
            nilpotent_exp(np.eye(2))

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.integers(2, 5), st.floats(-10.0, 10.0), st.integers(0, 2 ** 31 - 1))
    def test_exp_times_exp_of_negative_is_identity(self, dim, t, seed):
        rng = np.random.default_rng(seed)
        m = np.triu(0.25 * (rng.normal(size=(dim, dim))
                            + 1j * rng.normal(size=(dim, dim))), k=1)
        e = nilpotent_exp(m)
        prod = e(t) @ nilpotent_exp(-m)(t)
        assert max_abs(prod - np.eye(dim)) < 1e-12


class TestAdPower:
    def test_order_zero_returns_y(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(2, 4, 4))
        assert np.array_equal(ad_power(x, y, 0), y)

    def test_shift_number_bracket(self):
        # [A, diag(0, 1)] equals A for the 2x2 weighted shift
        a = np.array([[0, 2.0 - 1.0j], [0, 0]], dtype=complex)
        number = np.diag([0.0, 1.0]).astype(complex)
        assert max_abs(ad_power(a, number, 1) - a) == 0.0
        assert max_abs(ad_power(a, number, 2)) == 0.0

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(st.integers(0, 6), st.integers(0, 2 ** 31 - 1))
    def test_recursion_property(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = ad_power(x, y, n + 1)
        rhs = ad_power(x, ad_power(x, y, 1), n)
        assert max_abs(lhs - rhs) < 1e-10 * max(1.0, max_abs(lhs))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ad_power(np.eye(2), np.eye(3), 1)


class TestMaxAbs:
    def test_empty_is_zero(self):
        assert max_abs(np.zeros((0, 3), dtype=complex)) == 0.0

    def test_nan_propagates(self):
        assert math.isnan(max_abs(np.array([1.0, math.nan, -2.0])))
        assert math.isnan(max_abs(np.array([[1.0, complex(0.0, math.nan)]])))

    def test_negative_zero_is_zero(self):
        got = max_abs(np.array([-0.0]))
        assert got == 0.0 and math.copysign(1.0, got) == 1.0


class TestWorst:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.floats(0.0, 1e300), max_size=8), st.data())
    def test_nan_anywhere_propagates(self, values, data):
        assert worst(values) == max(values, default=0.0)
        values.insert(data.draw(st.integers(0, len(values))), math.nan)
        assert math.isnan(worst(values))

