import math

import numpy as np
import pytest

from matorth.closed_forms import hermite_value
from matorth.gausserf import ERF, GAUSS, PLAIN, GaussErfMatrix, atom, gauss_integral
from matorth.linalg import MatrixPolynomial, max_abs

I1 = np.eye(1, dtype=complex)


def single(a, coeff=I1):
    return GaussErfMatrix(coeff.shape[0], [(a, coeff)])


class TestDerivative:
    def test_gaussian_chain_rule(self):
        d = single(atom(0, GAUSS, 1.0)).derivative()
        assert set(d.terms) == {atom(1, GAUSS, 1.0)}
        assert d.terms[atom(1, GAUSS, 1.0)][0, 0] == -2.0

    def test_erf_twice(self):
        b = 3.0
        d2 = single(atom(0, ERF, b)).derivative(2)
        # first derivative is (2 sqrt(b)/sqrt(pi)) e^{-b t^2}; second brings -2bt
        key = atom(1, GAUSS, b)
        assert set(d2.terms) == {key}
        expect = 2.0 * math.sqrt(b) / math.sqrt(math.pi) * (-2.0 * b)
        assert abs(d2.terms[key][0, 0] - expect) < 1e-15

    @pytest.mark.parametrize("n", range(1, 11))
    def test_gaussian_nth_derivative_hermite_law(self, n):
        # d^n/dt^n e^{-b t^2} = (-1)^n b^{n/2} H_n(sqrt(b) t) e^{-b t^2}
        b = 2.5
        dn = single(atom(0, GAUSS, b)).derivative(n)
        for t in (-1.3, 0.0, 0.4, 2.2):
            expect = ((-1.0) ** n * b ** (n / 2.0)
                      * hermite_value(n, math.sqrt(b) * t) * math.exp(-b * t * t))
            assert abs(dn(t)[0, 0] - expect) < 1e-10 * max(1.0, abs(expect))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_erf_nth_derivative_hermite_law(self, n):
        # d^n/dt^n erf(sqrt(b) t) = (-1)^(n-1) b^(n/2) (2/sqrt(pi)) H_{n-1}(sqrt(b) t) e^{-b t^2}
        b = 1.7
        dn = single(atom(0, ERF, b)).derivative(n)
        for t in (-0.8, 0.3, 1.9):
            expect = ((-1.0) ** (n - 1) * b ** (n / 2.0) * 2.0 / math.sqrt(math.pi)
                      * hermite_value(n - 1, math.sqrt(b) * t) * math.exp(-b * t * t))
            assert abs(dn(t)[0, 0] - expect) < 1e-11 * max(1.0, abs(expect))

    def test_finite_difference_agreement(self):
        for seed in range(5):
            terms = []
            r = np.random.default_rng(seed)
            for _ in range(4):
                kind = [PLAIN, GAUSS, ERF][r.integers(0, 3)]
                scale = float(r.uniform(0.3, 3.0)) if kind != PLAIN else 0.0
                coeff = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
                terms.append((atom(int(r.integers(0, 4)), kind, scale), coeff))
            f = GaussErfMatrix(2, terms)
            df = f.derivative()
            h = 1e-5
            for t in (-2.0, -0.5, 0.7, 3.0):
                numeric = (f(t + h) - f(t - h)) / (2.0 * h)
                scale = max(1.0, max_abs(df(t)))
                assert max_abs(df(t) - numeric) / scale < 1e-6


class TestEval:
    def test_erf_at_zero(self):
        assert single(atom(0, ERF, 2.0))(0.0)[0, 0] == 0.0

    def test_gauss_at_zero(self):
        assert single(atom(0, GAUSS, 1.0))(0.0)[0, 0] == 1.0

    def test_power_times_gaussian(self):
        f = single(atom(1, GAUSS, 1.0), 2.0 * I1)
        assert abs(f(1.0)[0, 0] - 2.0 * math.exp(-1.0)) < 1e-16


class TestCanonicalization:
    def test_identical_atoms_merge(self):
        a = atom(2, GAUSS, 1.5)
        f = GaussErfMatrix(1, [(a, I1), (a, 2.0 * I1)])
        assert len(f.terms) == 1
        assert f.terms[a][0, 0] == 3.0

    def test_zero_coefficients_dropped(self):
        a = atom(2, GAUSS, 1.5)
        f = GaussErfMatrix(1, [(a, I1), (a, -I1)])
        assert not f.terms

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        terms = [(atom(k, GAUSS, 0.5 + k), rng.normal(size=(2, 2))) for k in range(3)]
        once = GaussErfMatrix(2, terms)
        twice = GaussErfMatrix(2, list(once.terms.items()))
        assert set(once.terms) == set(twice.terms)
        for key in once.terms:
            assert np.array_equal(once.terms[key], twice.terms[key])

    def test_holds_one_polynomial_per_key(self):
        eye = np.eye(2)
        f = GaussErfMatrix(2, [(atom(2, GAUSS, 1.0), eye), (atom(0, GAUSS, 1.0), eye),
                               (atom(1, ERF, 1.0), eye)])
        assert list(f.polys) == [(GAUSS, 1.0), (ERF, 1.0)]
        assert f.polys[(GAUSS, 1.0)] == MatrixPolynomial([eye, 0.0 * eye, eye])
        assert f.polys[(ERF, 1.0)] == MatrixPolynomial.monomial(eye, 1)
        with pytest.raises(TypeError):
            f.polys[(PLAIN, 0.0)] = MatrixPolynomial.constant(eye)

    def test_gauss_scale_zero_is_plain(self):
        assert atom(3, GAUSS, 0.0) == atom(3, PLAIN)


class TestProducts:
    def test_gaussian_scales_add(self):
        f = single(atom(1, GAUSS, 1.0)) @ single(atom(2, GAUSS, 0.5))
        assert set(f.terms) == {atom(3, GAUSS, 1.5)}

    def test_opposite_scales_cancel_to_plain(self):
        f = single(atom(0, GAUSS, 2.0)) @ single(atom(1, GAUSS, -2.0))
        assert set(f.terms) == {atom(1, PLAIN)}

    def test_erf_times_gaussian_rejected(self):
        with pytest.raises(ValueError, match="erf"):
            single(atom(0, ERF, 1.0)) @ single(atom(0, GAUSS, 1.0))

    def test_poly_mul_matches_pointwise(self):
        rng = np.random.default_rng(5)
        f = GaussErfMatrix(2, [(atom(1, GAUSS, 0.7), rng.normal(size=(2, 2))),
                               (atom(0, ERF, 1.2), rng.normal(size=(2, 2)))])
        p = MatrixPolynomial(rng.normal(size=(3, 2, 2)))
        t = 0.9
        assert max_abs(f.poly_mul(p)(t) - f(t) @ p(t)) < 1e-13
        assert max_abs(f.poly_mul(p, side="left")(t) - p(t) @ f(t)) < 1e-13

    @pytest.mark.parametrize("side", ["rigth", "Left", ""])
    def test_poly_mul_rejects_unknown_side(self, side):
        f = single(atom(0, GAUSS, 1.0))
        with pytest.raises(ValueError, match="side"):
            f.poly_mul(MatrixPolynomial([I1]), side=side)


class TestPolynomialExtraction:
    def test_collapse(self):
        p = MatrixPolynomial([np.diag([1.0, 2.0]), np.diag([0.5, 0.0])])
        f = GaussErfMatrix.from_polynomial(p)
        back = f.to_polynomial()
        assert (back - p).max_coeff() == 0.0

    def test_surviving_transcendental_raises(self):
        f = single(atom(0, GAUSS, 1.0))
        with pytest.raises(ArithmeticError, match="cancel"):
            f.to_polynomial()

    def test_nan_transcendental_raises(self):
        eye = np.eye(2, dtype=complex)
        f = GaussErfMatrix(2, [(atom(0, PLAIN), eye), (atom(1, ERF, 1.0), math.nan * eye)])
        with pytest.raises(ArithmeticError, match="cancel"):
            f.to_polynomial()


class TestIntegration:
    def test_even_gaussian_moment(self):
        f = single(atom(2, GAUSS, 1.0))
        assert abs(f.integrate()[0, 0] - math.sqrt(math.pi) / 2.0) < 1e-16

    def test_odd_vanishes(self):
        assert single(atom(3, GAUSS, 0.8)).integrate()[0, 0] == 0.0

    def test_extra_power_shift(self):
        f = single(atom(1, GAUSS, 2.0))
        assert abs(f.integrate(extra_power=1)[0, 0] - gauss_integral(2, 2.0)) == 0.0

    def test_erf_atom_rejected(self):
        with pytest.raises(ValueError):
            single(atom(0, ERF, 1.0)).integrate()

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            gauss_integral(0, -1.0)

    def test_plain_atom_rejected(self):
        with pytest.raises(ValueError):
            single(atom(2, PLAIN)).integrate()
