import math
import sys
import threading

import numpy as np
import pytest

from matorth.closed_forms import hermite_value
from matorth.gausserf import (ERF, GAUSS, PLAIN, GaussErfMatrix, combine, gauss_integral,
                              polynomials)
from matorth.linalg import MatrixPolynomial, max_abs
from matorth.sampling import draw_params
from matorth.weights import build_structure, column_outers, weight_moment
from per_key import PerKey

I1 = np.eye(1, dtype=complex)


def random_pair(rng, dim, kinds=(PLAIN, GAUSS, ERF), scales=(0.0, 0.5, 1.25, 2.0)):
    """One random function of mixed kinds and degrees, stacked and per key,
    from one (keys, tensor) pair whose keys may repeat; a Gaussian of scale 0
    is a plain power, an erf takes a positive scale."""
    keys, coeffs = [], np.zeros((int(rng.integers(1, 7)), 5, dim, dim), dtype=complex)
    for c in coeffs:
        kind = kinds[int(rng.integers(len(kinds)))]
        keys.append((kind, scales[int(rng.integers(scales[0] == 0.0 and kind == ERF,
                                                   len(scales)))]))
        c[int(rng.integers(0, 5))] = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return GaussErfMatrix(keys, coeffs), PerKey.of(keys, coeffs)


def assert_same(f, ref):
    """The same keys, each with the same polynomial, value for value."""
    assert set(f.keys) == set(ref.polys)
    for key, v in zip(f.keys, f.coeffs):
        assert np.array_equal(MatrixPolynomial(v).coeffs, ref.polys[key].coeffs), key


def single(kind, scale, power=0, coeff=I1):
    """The function ``coeff t**power`` times the atom of (kind, scale)."""
    c = np.zeros((1, power + 1) + coeff.shape, dtype=complex)
    c[0, power] = coeff
    return GaussErfMatrix([(kind, scale)], c)


class TestDerivative:
    def test_gaussian_chain_rule(self):
        d = single(GAUSS, 1.0).derivative()
        assert d.keys == ((GAUSS, 1.0),)
        assert d.coeffs.tolist() == [[[[0.0]], [[-2.0]]]]

    def test_erf_twice(self):
        b = 3.0
        d2 = single(ERF, b).derivative(2)
        # first derivative is (2 sqrt(b)/sqrt(pi)) e^{-b t^2}; second brings -2bt
        assert d2.keys == ((GAUSS, b),)
        assert d2.coeffs[0, 0, 0, 0] == 0.0
        expect = 2.0 * math.sqrt(b) / math.sqrt(math.pi) * (-2.0 * b)
        assert abs(d2.coeffs[0, 1, 0, 0] - expect) < 1e-15

    @pytest.mark.parametrize("n", range(1, 11))
    def test_gaussian_nth_derivative_hermite_law(self, n):
        # d^n/dt^n e^{-b t^2} = (-1)^n b^{n/2} H_n(sqrt(b) t) e^{-b t^2}
        b = 2.5
        dn = single(GAUSS, b).derivative(n)
        for t in (-1.3, 0.0, 0.4, 2.2):
            expect = ((-1.0) ** n * b ** (n / 2.0)
                      * hermite_value(n, math.sqrt(b) * t) * math.exp(-b * t * t))
            assert abs(dn(t)[0, 0] - expect) < 1e-10 * max(1.0, abs(expect))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_erf_nth_derivative_hermite_law(self, n):
        # d^n/dt^n erf(sqrt(b) t) = (-1)^(n-1) b^(n/2) (2/sqrt(pi)) H_{n-1}(sqrt(b) t) e^{-b t^2}
        b = 1.7
        dn = single(ERF, b).derivative(n)
        for t in (-0.8, 0.3, 1.9):
            expect = ((-1.0) ** (n - 1) * b ** (n / 2.0) * 2.0 / math.sqrt(math.pi)
                      * hermite_value(n - 1, math.sqrt(b) * t) * math.exp(-b * t * t))
            assert abs(dn(t)[0, 0] - expect) < 1e-11 * max(1.0, abs(expect))

    def test_finite_difference_agreement(self):
        for seed in range(5):
            r = np.random.default_rng(seed)
            keys, coeffs = [], np.zeros((4, 4, 2, 2), dtype=complex)
            for c in coeffs:
                kind = [PLAIN, GAUSS, ERF][r.integers(0, 3)]
                keys.append((kind, float(r.uniform(0.3, 3.0)) if kind != PLAIN else 0.0))
                c[int(r.integers(0, 4))] = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
            f = GaussErfMatrix(keys, coeffs)
            df = f.derivative()
            h = 1e-5
            for t in (-2.0, -0.5, 0.7, 3.0):
                numeric = (f(t + h) - f(t - h)) / (2.0 * h)
                scale = max(1.0, max_abs(df(t)))
                assert max_abs(df(t) - numeric) / scale < 1e-6


class TestEval:
    def test_erf_at_zero(self):
        assert single(ERF, 2.0)(0.0)[0, 0] == 0.0

    def test_gauss_at_zero(self):
        assert single(GAUSS, 1.0)(0.0)[0, 0] == 1.0

    def test_power_times_gaussian(self):
        f = single(GAUSS, 1.0, 1, 2.0 * I1)
        assert abs(f(1.0)[0, 0] - 2.0 * math.exp(-1.0)) < 1e-16


class TestCanonicalization:
    def test_identical_atoms_merge(self):
        f = GaussErfMatrix([(GAUSS, 1.5)] * 2, [[[[0.0]], [[0.0]], [[1.0]]],
                                                [[[0.0]], [[0.0]], [[2.0]]]])
        assert f.keys == ((GAUSS, 1.5),)
        assert f.coeffs.tolist() == [[[[0.0]], [[0.0]], [[3.0]]]]

    def test_zero_coefficients_dropped(self):
        f = GaussErfMatrix([(GAUSS, 1.5), (ERF, 1.0), (GAUSS, 1.5)],
                           [[[[0.0]], [[1.0]]], [[[1.0]], [[0.0]]], [[[0.0]], [[-1.0]]]])
        assert f.keys == ((ERF, 1.0),)
        assert f.coeffs.shape == (1, 1, 1, 1)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        keys = [(GAUSS, 0.5 + k) for k in range(3)] * 2
        once = GaussErfMatrix(keys, rng.normal(size=(6, 3, 2, 2)))
        twice = GaussErfMatrix(once.keys, once.coeffs)
        assert once.keys == twice.keys == tuple(keys[:3])
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_holds_one_polynomial_per_key(self):
        eye = np.eye(2)
        coeffs = np.zeros((3, 3, 2, 2))
        coeffs[0, 2] = coeffs[1, 0] = coeffs[2, 1] = eye
        f = GaussErfMatrix([(GAUSS, 1.0), (GAUSS, 1.0), (ERF, 1.0)], coeffs)
        assert f.keys == ((GAUSS, 1.0), (ERF, 1.0))
        assert np.array_equal(f.coeffs, [[eye, 0.0 * eye, eye], [0.0 * eye, eye, 0.0 * eye]])
        with pytest.raises(ValueError, match="read-only"):
            f.coeffs[0, 0, 0, 0] = 2.0

    def test_gauss_scale_zero_is_plain(self):
        f = GaussErfMatrix([(GAUSS, 0.0), (PLAIN, 0.0)], np.ones((2, 4, 1, 1)))
        assert f.keys == ((PLAIN, 0.0),)
        assert f.coeffs.tolist() == [[[[2.0]]] * 4]


class TestProducts:
    def test_gaussian_scales_add(self):
        f = single(GAUSS, 1.0, 1) @ single(GAUSS, 0.5, 2)
        assert f.keys == ((GAUSS, 1.5),)
        assert f.coeffs.tolist() == [[[[0.0]]] * 3 + [[[1.0]]]]

    def test_opposite_scales_cancel_to_plain(self):
        f = single(GAUSS, 2.0) @ single(GAUSS, -2.0, 1)
        assert f.keys == ((PLAIN, 0.0),)
        assert f.coeffs.tolist() == [[[[0.0]], [[1.0]]]]

    def test_erf_times_gaussian_rejected(self):
        with pytest.raises(ValueError, match="erf"):
            single(ERF, 1.0) @ single(GAUSS, 1.0)


class TestPolynomialExtraction:
    @staticmethod
    def collapse(f):
        return next(polynomials(f.keys, f.coeffs[None]))

    def test_collapse(self):
        p = MatrixPolynomial([np.diag([1.0, 2.0]), np.diag([0.5, 0.0])])
        assert self.collapse(GaussErfMatrix([(PLAIN, 0.0)], p.coeffs[None])) == p

    def test_surviving_transcendental_raises(self):
        with pytest.raises(ArithmeticError, match="cancel"):
            self.collapse(single(GAUSS, 1.0))

    def test_nan_transcendental_raises(self):
        coeffs = np.zeros((2, 2, 2, 2), dtype=complex)
        coeffs[0, 0], coeffs[1, 1] = np.eye(2), math.nan * np.eye(2)
        with pytest.raises(ArithmeticError, match="cancel"):
            self.collapse(GaussErfMatrix([(PLAIN, 0.0), (ERF, 1.0)], coeffs))


class TestIntegration:
    def test_even_gaussian_moment(self):
        f = single(GAUSS, 1.0, 2)
        assert abs(f.integrate()[0, 0] - math.sqrt(math.pi) / 2.0) < 1e-16

    def test_odd_vanishes(self):
        assert single(GAUSS, 0.8, 3).integrate()[0, 0] == 0.0

    def test_extra_power_shift(self):
        f = single(GAUSS, 2.0, 1)
        assert abs(f.integrate(extra_power=1)[0, 0] - gauss_integral(2, 2.0)) == 0.0

    def test_erf_atom_rejected(self):
        with pytest.raises(ValueError):
            single(ERF, 1.0).integrate()

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            gauss_integral(0, -1.0)

    def test_power_must_be_a_nonnegative_integer(self):
        # the integral of t**-2 exp(-t**2) diverges; t**2.5 is not real for t < 0
        with pytest.raises(ValueError):
            gauss_integral(-2, 1.0)
        with pytest.raises(TypeError):
            gauss_integral(2.5, 1.0)

    def test_plain_atom_rejected(self):
        with pytest.raises(ValueError):
            single(PLAIN, 0.0, 2).integrate()


class TestAgainstPerKeyAlgebra:
    """The stacked tensor computes what one polynomial per key computed:
    equal keys, equal coefficients, and, where the keys come in the same
    order, equal values to the bit."""

    TS = np.linspace(-2.5, 2.5, 9)

    def assert_values(self, f, ref):
        assert_same(f, ref)
        exact = list(f.keys) == list(ref.polys)
        for t in (0.7, -1.3, self.TS):
            got, want = f(t), ref(t)
            assert got.shape == want.shape
            if exact:
                assert np.array_equal(got, want)
            else:
                assert max_abs(got - want) <= 1e-14 * max(1.0, max_abs(want))

    @pytest.mark.parametrize("seed", range(12))
    def test_products_and_sums(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        f, ref = random_pair(rng, dim)
        g, gref = random_pair(rng, dim, kinds=(PLAIN, GAUSS))
        p = rng.normal(size=(1, int(rng.integers(1, 4)), dim, dim))
        plain, plain_ref = GaussErfMatrix([(PLAIN, 0.0)], p), PerKey.of([(PLAIN, 0.0)], p)
        self.assert_values(f, ref)
        fp, fp_ref = f @ plain, ref @ plain_ref
        self.assert_values(fp, fp_ref)
        self.assert_values(plain @ f, plain_ref @ ref)
        self.assert_values(g @ g, gref @ gref)
        # f p has the keys of f, so their tensors add and subtract row by row
        for op, want in ((np.add, ref + fp_ref), (np.subtract, ref - fp_ref)):
            self.assert_values(GaussErfMatrix(f.keys, combine(f.coeffs, fp.coeffs, op)), want)

    @pytest.mark.parametrize("seed", range(12))
    def test_derivatives(self, seed):
        rng = np.random.default_rng(100 + seed)
        f, ref = random_pair(rng, int(rng.integers(1, 5)))
        for order in (1, 2, 3):
            self.assert_values(f.derivative(order), ref.derivative(order))

    def test_an_erf_spawns_its_gaussian_key_after_the_others(self):
        f = GaussErfMatrix([(ERF, 2.0), (GAUSS, 0.5)], [[[[0.0]], [[1.0]]], [[[1.0]], [[0.0]]]])
        assert f.derivative().keys == ((ERF, 2.0), (GAUSS, 0.5), (GAUSS, 2.0))

    @pytest.mark.parametrize("seed", range(8))
    def test_integrals_and_collapse(self, seed):
        rng = np.random.default_rng(200 + seed)
        dim = int(rng.integers(1, 5))
        f, ref = random_pair(rng, dim, kinds=(GAUSS,), scales=(0.5, 1.25, 2.0))
        for m in range(4):
            assert f.integrate(m).tobytes() == ref.integrate(m).tobytes()
        q = MatrixPolynomial(rng.normal(size=(3, dim, dim)))
        eye = np.eye(dim)[None, None]
        cancel = GaussErfMatrix([(GAUSS, 1.25)], eye) @ GaussErfMatrix([(GAUSS, -1.25)],
                                                                     q.coeffs[None])
        ref_cancel = PerKey.of([(GAUSS, 1.25)], eye) @ PerKey.of([(GAUSS, -1.25)], q.coeffs[None])
        assert cancel.keys == ((PLAIN, 0.0),)
        assert np.array_equal(next(polynomials(cancel.keys, cancel.coeffs[None])).coeffs,
                              ref_cancel.to_polynomial().coeffs)

    def test_moments_match_the_per_key_sum_on_a_sweep(self):
        # the 150 members of a seeded sweep: 30 bands of b, sizes 2..6 each
        rng, width = np.random.default_rng(1), (5.0 - 0.2) / 30
        for band in range(30):
            for size in range(2, 7):
                p = draw_params(rng, sizes=(size, size),
                                b_range=(0.2 + band * width, 0.2 + (band + 1) * width))
                outers = column_outers(build_structure(p).factor.coeffs)
                ref = PerKey(size, polys=[((GAUSS, -2.0 * g), MatrixPolynomial(row)) for g, row
                                          in zip(build_structure(p).gauss_scales, outers)])
                for m in range(2 * size + 1):
                    assert weight_moment(p, m).tobytes() == ref.integrate(m).tobytes()


class TestIntegralTable:
    """One instance serves every moment order from its table of Gaussian
    integrals, with the bits of a fresh instance and of the per-term sum."""

    @staticmethod
    def weights():
        rng = np.random.default_rng(17)
        for size in range(2, 7):
            p = draw_params(rng, sizes=(size, size))
            outers = column_outers(build_structure(p).factor.coeffs)
            keys = [(GAUSS, -2.0 * g) for g in build_structure(p).gauss_scales]
            ref = PerKey(size, polys=[(key, MatrixPolynomial(row))
                                      for key, row in zip(keys, outers)])
            yield keys, outers, ref

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_any_order_of_calls_gives_the_same_bytes(self, order):
        orders = list(range(41))
        if order == "descending":
            orders.reverse()
        elif order == "shuffled":
            np.random.default_rng(3).shuffle(orders)
        for keys, outers, ref in self.weights():
            f = GaussErfMatrix(keys, outers)
            for m in orders:
                got = f.integrate(m).tobytes()
                assert got == GaussErfMatrix(keys, outers).integrate(m).tobytes()
                assert got == ref.integrate(m).tobytes(), m

    def test_threads_sharing_one_table_get_the_serial_bytes(self):
        keys, outers, _ = list(self.weights())[-1]
        shared = GaussErfMatrix(keys, outers)
        want = {m: GaussErfMatrix(keys, outers).integrate(m).tobytes() for m in range(41)}
        results: dict[int, dict] = {}
        start = threading.Barrier(4)

        def worker(k: int):
            orders = list(range(41))
            np.random.default_rng(k).shuffle(orders)
            start.wait(timeout=30)
            results[k] = {m: shared.integrate(m).tobytes() for m in orders}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        assert all(results[k] == want for k in range(4))

    def test_a_filled_table_still_rejects_bad_orders(self):
        keys, outers, _ = next(self.weights())
        f = GaussErfMatrix(keys, outers)
        f.integrate(30)
        with pytest.raises(ValueError):
            f.integrate(-1)
        with pytest.raises(TypeError):
            f.integrate(1.5)


class TestKeyValidation:
    @pytest.mark.parametrize("kind, scale", [("Gauss", 1.0), ("exp", 1.0), (GAUSS, math.nan),
                                             (GAUSS, math.inf), (PLAIN, -math.inf),
                                             (ERF, -1.0), (ERF, 0.0), (ERF, math.nan)])
    def test_rejects_unknown_kinds_and_bad_scales(self, kind, scale):
        with pytest.raises(ValueError, match="atom"):
            GaussErfMatrix([(kind, scale)], np.ones((1, 1, 2, 2)))

    def test_gauss_atom_is_not_read_as_a_power(self):
        # a misspelt kind used to be accepted and evaluated as t**0 = 1
        with pytest.raises(ValueError):
            single("Gauss", 1.0)
        assert single(GAUSS, 1.0)(1.0)[0, 0] == math.exp(-1.0)

    def test_negative_gaussian_scales_stay_allowed(self):
        f = single(GAUSS, -1.0)
        assert f.keys == ((GAUSS, -1.0),)
        assert f(1.0)[0, 0] == math.exp(1.0)
