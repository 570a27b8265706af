import math
import sys
import threading
from types import MappingProxyType

import numpy as np
import pytest

from matorth.closed_forms import hermite_value
from matorth.gausserf import ERF, GAUSS, PLAIN, Atom, GaussErfMatrix, atom, gauss_integral
from matorth.linalg import MatrixPolynomial, max_abs, worst
from matorth.sampling import draw_params
from matorth.weights import build_structure, column_outers, exp_factor, weight_moment

I1 = np.eye(1, dtype=complex)


class PerKey:
    """The function algebra as it was before the stacked tensor: one
    ``MatrixPolynomial`` per atom key, every operation a loop over the keys.
    The reference for ``GaussErfMatrix``."""

    def __init__(self, dim, terms=(), polys=()):
        monomials = (((a.kind, a.scale), MatrixPolynomial.monomial(np.asarray(c, complex), a.power))
                     for a, c in terms)
        merged = {}
        for (kind, s), v in [*polys, *monomials]:
            key = (PLAIN, 0.0) if kind == PLAIN or (kind == GAUSS and s == 0.0) else (kind, s)
            merged[key] = merged[key] + v if key in merged else v
        self.dim = dim
        self.polys = MappingProxyType({k: v for k, v in merged.items() if v.degree >= 0})

    def _map(self, fn):
        return PerKey(self.dim, polys=((k, fn(v)) for k, v in self.polys.items()))

    def __add__(self, other):
        return PerKey(self.dim, polys=[*self.polys.items(), *other.polys.items()])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return self._map(lambda v: scalar * v)

    __rmul__ = __mul__

    def __neg__(self):
        return self._map(lambda v: -v)

    def __matmul__(self, other):
        return PerKey(self.dim, polys=[((k1 if k2 == PLAIN else k2, s1 + s2), v1 * v2)
                                       for (k1, s1), v1 in self.polys.items()
                                       for (k2, s2), v2 in other.polys.items()])

    def lmul(self, m):
        return self._map(lambda v: v.lmul(m))

    def poly_mul(self, p, side="right"):
        return self._map(lambda v: v * p if side == "right" else p * v)

    def conj_t(self):
        return self._map(MatrixPolynomial.conj_t)

    def derivative(self, order=1):
        out = self
        for _ in range(order):
            items = []
            for (kind, s), v in out.polys.items():
                d = v.derivative()
                if kind == GAUSS:
                    d = d + (-2.0 * s * v).times_t()
                elif kind == ERF:
                    items.append(((GAUSS, s), 2.0 * math.sqrt(s) / math.sqrt(math.pi) * v))
                items.append(((kind, s), d))
            out = PerKey(self.dim, polys=items)
        return out

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        x = ts[..., None, None]
        out = np.zeros(ts.shape + (self.dim, self.dim), dtype=complex)
        for (kind, s), v in self.polys.items():
            acc = v(ts)
            if kind == GAUSS:
                acc = acc * np.exp(-s * x * x)
            elif kind == ERF:
                acc = acc * np.vectorize(math.erf, otypes=[float])(math.sqrt(s) * x)
            out = out + acc
        return out

    def integrate(self, extra_power=0):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (kind, s), v in self.polys.items():
            for k, c in enumerate(v.coeffs):
                out += gauss_integral(k + extra_power, s) * c
        return out

    def to_polynomial(self):
        scale = worst((1.0, *(v.max_coeff() for v in self.polys.values())))
        coeffs = self.polys.get((PLAIN, 0.0), MatrixPolynomial.zero(self.dim)).coeffs
        top = max((k + 1 for k, c in enumerate(coeffs) if max_abs(c) > 1e-9 * scale), default=0)
        return MatrixPolynomial(coeffs[:top], dim=self.dim)


def random_pair(rng, dim, kinds=(PLAIN, GAUSS, ERF), scales=(0.0, 0.5, 1.25, 2.0)):
    """One random function of mixed kinds and degrees, stacked and per key; a
    Gaussian of scale 0 is a plain power, an erf takes a positive scale."""
    terms = []
    for _ in range(int(rng.integers(1, 7))):
        kind = kinds[int(rng.integers(len(kinds)))]
        scale = scales[int(rng.integers(scales[0] == 0.0 and kind == ERF, len(scales)))]
        coeff = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        terms.append((atom(int(rng.integers(0, 5)), kind, scale), coeff))
    return GaussErfMatrix(dim, terms), PerKey(dim, terms)


def assert_same(f, ref):
    """The same keys, each with the same polynomial, value for value."""
    assert set(f.polys) == set(ref.polys)
    for key, v in ref.polys.items():
        assert np.array_equal(f.polys[key].coeffs, v.coeffs), key


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

    def test_power_must_be_a_nonnegative_integer(self):
        # the integral of t**-2 exp(-t**2) diverges; t**2.5 is not real for t < 0
        with pytest.raises(ValueError):
            gauss_integral(-2, 1.0)
        with pytest.raises(TypeError):
            gauss_integral(2.5, 1.0)

    def test_plain_atom_rejected(self):
        with pytest.raises(ValueError):
            single(atom(2, PLAIN)).integrate()


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
        p = MatrixPolynomial(rng.normal(size=(int(rng.integers(1, 4)), dim, dim)))
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        self.assert_values(f, ref)
        for side in ("left", "right"):
            self.assert_values(f.poly_mul(p, side=side), ref.poly_mul(p, side=side))
        self.assert_values(f.lmul(m), ref.lmul(m))
        self.assert_values(f.conj_t(), ref.conj_t())
        self.assert_values(f + g, ref + gref)
        self.assert_values(g - f, gref - ref)
        self.assert_values(2.5 * f - g, 2.5 * ref - gref)
        self.assert_values(-f, -ref)
        plain = GaussErfMatrix(dim, [(atom(1, PLAIN), m)])
        self.assert_values(f @ plain, ref @ PerKey(dim, [(atom(1, PLAIN), m)]))
        self.assert_values(g @ g, gref @ gref)

    @pytest.mark.parametrize("seed", range(12))
    def test_derivatives(self, seed):
        rng = np.random.default_rng(100 + seed)
        f, ref = random_pair(rng, int(rng.integers(1, 5)))
        for order in (1, 2, 3):
            self.assert_values(f.derivative(order), ref.derivative(order))

    def test_an_erf_spawns_its_gaussian_key_after_the_others(self):
        f = GaussErfMatrix(1, [(atom(1, ERF, 2.0), I1), (atom(0, GAUSS, 0.5), I1)])
        assert f.derivative().keys == ((ERF, 2.0), (GAUSS, 0.5), (GAUSS, 2.0))

    @pytest.mark.parametrize("seed", range(8))
    def test_integrals_and_collapse(self, seed):
        rng = np.random.default_rng(200 + seed)
        dim = int(rng.integers(1, 5))
        f, ref = random_pair(rng, dim, kinds=(GAUSS,), scales=(0.5, 1.25, 2.0))
        for m in range(4):
            assert f.integrate(m).tobytes() == ref.integrate(m).tobytes()
        q = MatrixPolynomial(rng.normal(size=(3, dim, dim)))
        cancel = GaussErfMatrix(dim, [(atom(0, GAUSS, 1.25), np.eye(dim)),
                                      (atom(0, PLAIN), np.eye(dim))]).poly_mul(q)
        cancel = cancel - GaussErfMatrix(dim, [(atom(0, GAUSS, 1.25), np.eye(dim))]).poly_mul(q)
        ref_cancel = PerKey(dim, [(atom(0, PLAIN), np.eye(dim))]).poly_mul(q)
        assert cancel.keys == ((PLAIN, 0.0),)
        assert np.array_equal(cancel.to_polynomial().coeffs, ref_cancel.to_polynomial().coeffs)

    def test_moments_match_the_per_key_sum_on_a_sweep(self):
        # the 150 members of a seeded sweep: 30 bands of b, sizes 2..6 each
        rng, width = np.random.default_rng(1), (5.0 - 0.2) / 30
        for band in range(30):
            for size in range(2, 7):
                p = draw_params(rng, sizes=(size, size),
                                b_range=(0.2 + band * width, 0.2 + (band + 1) * width))
                outers = column_outers(exp_factor(p).coeffs)
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
            outers = column_outers(exp_factor(p).coeffs)
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
            f = GaussErfMatrix.stacked(keys, outers)
            for m in orders:
                got = f.integrate(m).tobytes()
                assert got == GaussErfMatrix.stacked(keys, outers).integrate(m).tobytes()
                assert got == ref.integrate(m).tobytes(), m

    def test_threads_sharing_one_table_get_the_serial_bytes(self):
        keys, outers, _ = list(self.weights())[-1]
        shared = GaussErfMatrix.stacked(keys, outers)
        want = {m: GaussErfMatrix.stacked(keys, outers).integrate(m).tobytes() for m in range(41)}
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
        f = GaussErfMatrix.stacked(keys, outers)
        f.integrate(30)
        with pytest.raises(ValueError):
            f.integrate(-1)
        with pytest.raises(TypeError):
            f.integrate(1.5)


class TestKeyValidation:
    P = MatrixPolynomial([np.eye(2)])

    @pytest.mark.parametrize("kind, scale", [("Gauss", 1.0), ("exp", 1.0), (GAUSS, math.nan),
                                             (GAUSS, math.inf), (PLAIN, -math.inf),
                                             (ERF, -1.0), (ERF, 0.0), (ERF, math.nan)])
    def test_rejects_unknown_kinds_and_bad_scales(self, kind, scale):
        with pytest.raises(ValueError, match="atom"):
            atom(0, kind, scale)
        with pytest.raises(ValueError, match="atom"):
            GaussErfMatrix(2, polys=[((kind, scale), self.P)])
        with pytest.raises(ValueError, match="atom"):
            GaussErfMatrix(2, [(Atom(0, kind, scale), np.eye(2))])
        with pytest.raises(ValueError, match="atom"):
            GaussErfMatrix.stacked([(kind, scale)], np.ones((1, 1, 2, 2)))

    def test_gauss_atom_is_not_read_as_a_power(self):
        # a misspelt kind used to be accepted and evaluated as t**0 = 1
        with pytest.raises(ValueError):
            atom(0, "Gauss", 1.0)
        assert single(atom(0, GAUSS, 1.0))(1.0)[0, 0] == math.exp(-1.0)

    def test_negative_gaussian_scales_stay_allowed(self):
        f = single(atom(0, GAUSS, -1.0))
        assert f.keys == ((GAUSS, -1.0),)
        assert f(1.0)[0, 0] == math.exp(1.0)
