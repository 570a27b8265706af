import hashlib
import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from conftest import moment_pairing, poly_rel_dev, rel_dev
from matorth import closed_forms as cf
from matorth.closed_forms import (asymptotic_report, branch_limit,
                                  closed_norms, explicit_polynomial,
                                  gamma_ratio, gamma_value, normalization,
                                  normalized_recurrence_from_moments,
                                  orthonormal_recurrence, recurrence_closed_forms,
                                  rodrigues_pde_residual, rodrigues_polynomial)
from matorth.gausserf import ERF, GAUSS, GaussErfMatrix
from matorth.linalg import MatrixPolynomial, max_abs
from matorth.operator import build_operator, eigenvalue_matrix
from matorth.orthogonal import monic_sequence, orthonormalize_sequence
from matorth.weights import WeightParams, weight_inverse_symbolic_2x2
from per_key import PerKey

TINY = WeightParams(2, (1e-120,), 2.0)


def hermite(n: int, x):
    """The physicists' Hermite polynomial H_n at x, from numpy."""
    return hermval(x, [0.0] * n + [1.0])


def hermite_coeffs(n: int) -> np.ndarray:
    """The monomial coefficients of H_n, from the recurrence table that
    ``_explicit_table`` builds, started afresh from H_0 = 1."""
    return cf._hermite([np.ones(1)], n)


def rodrigues_kernel(p: WeightParams, n: int) -> GaussErfMatrix:
    """The degree-n Rodrigues kernel, the function matrix whose n-th
    derivative times the inverse weight is the degree-n polynomial."""
    keys, coeffs, overflow = cf._kernels(p, range(n, n + 1))
    assert overflow is None
    return GaussErfMatrix(keys, coeffs[0])


def pde_coefficients(p: WeightParams, n: int) -> tuple:
    """The coefficients (m2, m1, m0) of the degree-n kernel equation."""
    return cf._pde_coefficient_table(p, range(n, n + 1))[0]


class TestHermite:
    def test_seeds(self):
        assert hermite_coeffs(0).tolist() == [1.0]
        assert hermite_coeffs(1).tolist() == [0.0, 2.0]
        assert hermite_coeffs(2).tolist() == [-2.0, 0.0, 4.0]

    def test_h2_at_one(self):
        assert np.polyval(hermite_coeffs(2)[::-1], 1.0) == 2.0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_rodrigues_definition(self, n):
        # (-1)^n (d/dt)^n e^{-t^2} times e^{t^2} recovers the polynomial
        dn = GaussErfMatrix([(GAUSS, 1.0)], np.ones((1, 1, 1, 1))).derivative(n)
        for x in (-1.1, 0.0, 0.6, 2.3):
            val = (-1.0) ** n * dn(x)[0, 0].real * math.exp(x * x)
            assert abs(val - hermite(n, x)) < 1e-9 * max(1.0, abs(val))


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


class TestHermiteOverflow:
    """The Hermite coefficients are built without recursion, and those that
    leave the double range raise OverflowError instead of coming back as inf
    or NaN; every finite result keeps the bits it had under the recursive
    build (sha256 prefixes of the coefficient bytes)."""

    # b: the first degree of explicit_polynomial(a = 1) with a non-finite
    # coefficient, and the digest at the degree below it
    EXPLICIT = {4.0: (209, "f872779990c9a1f3"), 0.25: (218, "26e53b3ea0e727ed"),
                2.0: (233, "694f85f41a74c7de")}

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_cold_high_degree_overflows(self, n):
        with pytest.raises(OverflowError, match="degree 263"):
            hermite_coeffs(n)

    def test_first_degree_past_the_double_range_raises(self):
        with pytest.raises(OverflowError):
            hermite_coeffs(263)
        assert _digest(hermite_coeffs(262)) == "35dbfd3b839a4bbb"
        assert _digest(hermite_coeffs(100)) == "72330d44a5622043"
        with pytest.raises(OverflowError):
            hermite_coeffs(263)

    def test_results_are_fresh_arrays(self):
        h = hermite_coeffs(5)
        h[:] = 0.0
        assert hermite_coeffs(5).tolist() == [0.0, 120.0, 0.0, -160.0, 0.0, 32.0]

    def test_range_error_of_the_scale_comes_first(self):
        """At b = 1e-15, b**(-n/2) leaves the double range at degree 262,
        before the Hermite coefficients do at 263; each degree raises the
        error that its own build meets first."""
        p = WeightParams(2, (1.0,), 1e-15)
        with pytest.raises(OverflowError, match="Numerical result out of range"):
            explicit_polynomial(p, 262)
        with pytest.raises(OverflowError, match="Hermite coefficients overflow at degree 263"):
            explicit_polynomial(p, 263)

    @pytest.mark.parametrize("b", sorted(EXPLICIT))
    def test_explicit_polynomial_overflows(self, b):
        p, (n, digest) = WeightParams(2, (1.0,), b), self.EXPLICIT[b]
        assert _digest(explicit_polynomial(p, n - 1).coeffs) == digest
        with pytest.raises(OverflowError, match=f"degree {n}"):
            explicit_polynomial(p, n)


class TestDegreeGuard:
    """Every closed form takes a degree: an integer >= 0 (>= 1 for the
    Rodrigues construction), or it raises before computing anything."""

    FORMS = [lambda n, f=f: f(WeightParams(2, (1.0,), 2.0), n)
             for f in (explicit_polynomial, closed_norms, normalization,
                       orthonormal_recurrence, recurrence_closed_forms,
                       gamma_value, gamma_ratio)]

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_degree_raises_value_error(self, form, n):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            form(n)

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("n", [2.5, 2.0])
    def test_non_integer_degree_raises_type_error(self, form, n):
        with pytest.raises(TypeError):
            form(n)

    @pytest.mark.parametrize("form", [rodrigues_polynomial,
                                      lambda p, n: rodrigues_pde_residual(p, n, [0.5])])
    def test_rodrigues_forms_start_at_degree_one(self, form):
        p = WeightParams(2, (1.0,), 2.0)
        for n in (0, -1):
            with pytest.raises(ValueError, match="degree must be >= 1"):
                form(p, n)
        with pytest.raises(TypeError):
            form(p, 2.5)

    def test_integer_types_are_accepted(self):
        p = WeightParams(2, (1.0,), 2.0)
        assert np.array_equal(explicit_polynomial(p, np.int64(3)).coeffs,
                              explicit_polynomial(p, 3).coeffs)


class TestRodriguesKernel:
    def test_corner_entry_is_twice_gaussian(self):
        p = WeightParams(2, (1.0 + 2.0j,), 3.0)
        for n in (1, 4, 7):
            kern = rodrigues_kernel(p, n)
            for t in (-1.0, 0.5):
                expect = (-1.0) ** n * 2.0 * math.exp(-t * t)
                assert abs(kern(t)[1, 1] - expect) < 1e-15

    def test_erf_entries_vanish_at_zero(self):
        p = WeightParams(2, (0.5 - 1.5j,), 2.0)
        assert abs(rodrigues_kernel(p, 3)(0.0)[1, 0]) == 0.0

    def test_tiny_a_nearly_diagonal(self):
        b = 2.0
        kern = rodrigues_kernel(TINY, 1)
        t = 0.9
        val = kern(t)
        assert abs(val[0, 0] + b ** -1.0 * math.exp(-b * t * t)) < 1e-100
        assert abs(val[0, 1]) < 1e-100 and abs(val[1, 0]) < 1e-100


class TestRodriguesPolynomial:
    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (1.0, 4.0),
                                     (1.0 + 1.0j, 0.5), (2.0, 0.25)])
    def test_equals_explicit(self, a, b):
        p = WeightParams(2, (a,), b)
        for n in range(1, 13):
            assert poly_rel_dev(rodrigues_polynomial(p, n),
                                explicit_polynomial(p, n)) < 1e-9

    def test_degree_one_display(self):
        # a = 1, b = 4: gamma_1 = 4 and the polynomial is [[2t, -1], [-4, 8t]]
        p = WeightParams(2, (1.0,), 4.0)
        poly = rodrigues_polynomial(p, 1)
        assert max_abs(poly.coeff(0) - np.array([[0, -1], [-4, 0]])) < 1e-12
        assert max_abs(poly.coeff(1) - np.diag([2.0, 8.0])) < 1e-12

    def test_leading_coefficient_and_corner_degree(self):
        p = WeightParams(2, (0.8 + 0.3j,), 2.0)
        for n in (1, 3, 6, 9):
            poly = explicit_polynomial(p, n)
            lead = normalization(p, n).leading
            assert max_abs(poly.coeff(n) - lead) < 1e-9 * max_abs(lead)
            # upper-right entry drops one degree
            assert poly.coeff(n)[0, 1] == 0.0
            if n >= 2:
                assert abs(poly.coeff(n - 1)[0, 1]) > 0.0


class TestExplicitPolynomial:
    def test_degree_zero(self, flagship):
        poly = explicit_polynomial(flagship, 0)
        assert poly.degree == 0
        assert np.array_equal(poly.coeff(0), np.diag([1.0, 2.0]))

    def test_tiny_a_decouples_into_scalar_hermites(self):
        b = 2.0
        for n in (1, 4):
            poly = explicit_polynomial(TINY, n)
            for t in (-0.7, 1.2):
                val = poly(t)
                assert abs(val[0, 0] - b ** (-n / 2.0)
                           * hermite(n, math.sqrt(b) * t)) < 1e-10
                assert abs(val[1, 1] - 2.0 * hermite(n, t)) < 1e-10
                assert abs(val[0, 1]) < 1e-100 and abs(val[1, 0]) < 1e-100

    def test_orthogonality_via_moments(self):
        p = WeightParams(2, (1.0 - 0.5j,), 1.8)
        polys = [explicit_polynomial(p, n) for n in range(11)]
        for n in range(11):
            for m in range(n):
                pair = moment_pairing(p, polys[n], polys[m])
                scale = math.sqrt(max_abs(moment_pairing(p, polys[n], polys[n]))
                                  * max_abs(moment_pairing(p, polys[m], polys[m])))
                assert max_abs(pair) < 1e-8 * scale


class TestNormalization:
    def test_gamma_zero(self):
        assert gamma_value(WeightParams(2, (5.0,), 0.3), 0) == 2.0

    def test_gamma_example(self):
        assert gamma_value(WeightParams(2, (1.0,), 4.0), 1) == 4.0

    def test_gauge_times_delta_is_leading(self):
        p = WeightParams(2, (1.1 - 0.4j,), 2.7)
        for n in (0, 1, 5, 12, 25):
            f = normalization(p, n)
            assert rel_dev(f.gauge @ f.delta, f.leading) < 1e-12

    def test_gamma_ratio_robust_large_n(self):
        p = WeightParams(2, (1.0,), 4.0)
        assert abs(gamma_ratio(p, 500) - 4.0) < 0.02
        p = WeightParams(2, (1.0,), 0.25)
        assert abs(gamma_ratio(p, 500) - 1.0) < 1e-12


class TestOrthonormalRecurrence:
    def test_tiny_a_scalar_limits(self):
        b = 2.0
        for n in (1, 3, 8):
            a_mat, b_mat = orthonormal_recurrence(TINY, n)
            expected = np.diag([math.sqrt(n / (2.0 * b)), math.sqrt(n / 2.0)])
            assert max_abs(a_mat - expected) < 1e-12
            assert max_abs(b_mat) < 1e-100

    def test_b0_closed_form(self):
        a, b = 0.9 + 0.2j, 2.4
        p = WeightParams(2, (a,), b)
        _, b0 = orthonormal_recurrence(p, 0)
        g0, g1 = gamma_value(p, 0), gamma_value(p, 1)
        expected = b ** (-3.0 / 4.0) * b / math.sqrt(g0 * g1) \
            * np.array([[0, a], [np.conj(a), 0]])
        assert max_abs(b0 - expected) < 1e-14

    def test_recurrence_identity_coefficientwise(self):
        # t P_n = A_{n+1} P_{n+1} + B_n P_n + A_n* P_{n-1} for the
        # orthonormal family built from the closed forms
        p = WeightParams(2, (1.0 + 0.7j,), 2.2)
        eye = np.eye(2, dtype=complex)
        ortho = []
        for n in range(17):
            monic = explicit_polynomial(p, n).lmul(
                np.linalg.inv(normalization(p, n).leading))
            ortho.append(monic.lmul(normalization(p, n).delta))
        for n in range(16):
            a_next, _ = orthonormal_recurrence(p, n + 1)
            _, b_n = orthonormal_recurrence(p, n)
            rhs = ortho[n + 1].lmul(a_next) + ortho[n].lmul(b_n)
            if n >= 1:
                a_n, _ = orthonormal_recurrence(p, n)
                rhs = rhs + ortho[n - 1].lmul(a_n.conj().T)
            lhs = MatrixPolynomial([0 * eye, eye]) * ortho[n]
            assert poly_rel_dev(lhs, rhs) < 1e-9


class TestNormalizedRecurrence:
    def test_gauge_consistency_runs(self):
        p = WeightParams(2, (0.7 - 1.1j,), 3.5)
        for n in range(0, 12):
            recurrence_closed_forms(p, n)  # raises if transport disagrees

    def test_tilde_b_vanishes_at_special_b(self):
        n = 3
        p = WeightParams(2, (1.0,), n / (n + 1.0))
        rec = recurrence_closed_forms(p, n)
        assert max_abs(rec.rodrigues_b) < 1e-15

    def test_tiny_a_monic_c_diagonal(self):
        b = 2.0
        for n in (1, 4, 9):
            rec = recurrence_closed_forms(TINY, n)
            assert max_abs(rec.monic_c - np.diag([n / (2.0 * b), n / 2.0])) < 1e-12

    def test_rodrigues_sequence_recurrence(self):
        # t P_n = A~_{n+1} P_{n+1} + B~_n P_n + C~_n P_{n-1}
        p = WeightParams(2, (1.2,), 0.8)
        eye = np.eye(2, dtype=complex)
        polys = [explicit_polynomial(p, n) for n in range(17)]
        for n in range(16):
            rec_next = recurrence_closed_forms(p, n + 1)
            rec = recurrence_closed_forms(p, n)
            rhs = polys[n + 1].lmul(rec_next.rodrigues_a) \
                + polys[n].lmul(rec.rodrigues_b)
            if n >= 1:
                rhs = rhs + polys[n - 1].lmul(rec.rodrigues_c)
            lhs = MatrixPolynomial([0 * eye, eye]) * polys[n]
            assert poly_rel_dev(lhs, rhs) < 1e-9

    def test_moment_route_matches(self, flagship):
        from matorth.orthogonal import monic_sequence
        seq = monic_sequence(flagship, 10)
        table = normalized_recurrence_from_moments(flagship, seq)
        assert table.kind == "rodrigues-normalized"
        for n in range(1, 9):
            rec = recurrence_closed_forms(flagship, n)
            assert rel_dev(table.A[n], rec.rodrigues_a) < 1e-10
            assert rel_dev(table.B[n], rec.rodrigues_b) < 1e-10
            assert rel_dev(table.C[n], rec.rodrigues_c) < 1e-10


class TestGaugeChain:
    def test_moment_and_closed_normalizers_agree(self):
        from matorth.orthogonal import monic_sequence, orthonormalize_sequence
        p = WeightParams(2, (1.0 - 0.6j,), 2.8)
        seq = monic_sequence(p, 12)
        _, deltas = orthonormalize_sequence(seq)
        for n in range(13):
            assert rel_dev(deltas[n], normalization(p, n).delta) < 1e-9

    def test_explicit_is_leading_times_monic(self):
        from matorth.orthogonal import monic_sequence
        p = WeightParams(2, (0.7 + 0.9j,), 1.6)
        seq = monic_sequence(p, 12)
        for n in range(13):
            lifted = seq.polys[n].lmul(normalization(p, n).leading)
            assert poly_rel_dev(lifted, explicit_polynomial(p, n)) < 1e-9

    def test_orthonormality_through_quadrature_route(self):
        from matorth.orthogonal import (monic_sequence, orthonormalize_sequence,
                                        quadrature_oracle)
        from matorth.weights import weight_eval
        p = WeightParams(2, (1.0,), 2.0)
        seq = monic_sequence(p, 3)
        _, deltas = orthonormalize_sequence(seq)
        ortho = [seq.polys[n].lmul(deltas[n]) for n in range(4)]
        for n in range(4):
            for m in range(n + 1):
                val = quadrature_oracle(
                    p,
                    lambda t: ortho[n](t) @ weight_eval(p, t)[1] @ ortho[m](t).conj().T,
                    degree_hint=24)
                target = np.eye(2) if n == m else np.zeros((2, 2))
                assert max_abs(val - target) < 1e-7


class TestRecurrenceCoefficientDecay:
    def test_offdiagonal_coefficient_decays_monotonically(self):
        # for b > 1 the Hermitian coefficient shrinks like a power of
        # b^(-1/4) per degree; its norm must decrease monotonically beyond
        # small n
        p = WeightParams(2, (1.0,), 4.0)
        norms = [max_abs(orthonormal_recurrence(p, n)[1]) for n in range(5, 61)]
        assert all(later < earlier for earlier, later in zip(norms, norms[1:]))
        assert norms[-1] < 1e-8 * norms[0]


class TestNorms:
    def test_degree_zero_monic_norm(self):
        a, b = 1.4 + 0.3j, 2.1
        p = WeightParams(2, (a,), b)
        monic, _ = closed_norms(p, 0)
        expected = np.diag([abs(a) ** 2 * math.sqrt(math.pi) / 2.0
                            + math.sqrt(math.pi / b), math.sqrt(math.pi)])
        assert max_abs(monic - expected) < 1e-13

    def test_tiny_a_scalar_hermite_norms(self):
        b = 2.0
        for n in (0, 2, 5):
            monic, _ = closed_norms(TINY, n)
            pref = math.sqrt(math.pi) * math.factorial(n) / 2.0 ** n
            assert abs(monic[0, 0] - pref / b ** (n + 0.5)) < 1e-12 * monic[0, 0].real
            assert abs(monic[1, 1] - pref) < 1e-12 * monic[1, 1].real

    def test_rodrigues_norm_is_gauge_squared(self):
        p = WeightParams(2, (0.9 - 0.9j,), 3.0)
        for n in (0, 1, 4, 9):
            _, rodr = closed_norms(p, n)
            g = normalization(p, n).gauge
            assert rel_dev(rodr, g @ g.conj().T) < 1e-12


class TestAsymptotics:
    def test_branch_limits(self):
        assert max_abs(branch_limit(4.0)
                       - np.diag([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(8.0)])) < 1e-15
        assert max_abs(branch_limit(0.25)
                       - np.diag([math.sqrt(2.0), 1.0 / math.sqrt(2.0)])) < 1e-15

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            branch_limit(1.0)
        with pytest.raises(ValueError):
            branch_limit(-2.0)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_rejects_a_b_that_is_not_finite(self, b):
        # nan used to give [[nan, 0], [0, 0.7071]] and inf [[0.7071, 0], [0, 0]]
        with pytest.raises(ValueError, match="finite and positive"):
            branch_limit(b)

    def test_convergence_above_one(self):
        rep = asymptotic_report(WeightParams(2, (1.0,), 4.0), horizon=200)
        assert rep.error_at(200) < 0.02
        assert np.all(np.diff(rep.errors[19:]) <= 1e-15)

    def test_convergence_below_one(self):
        rep = asymptotic_report(WeightParams(2, (1.0,), 0.25), horizon=200)
        assert rep.error_at(200) < 0.02
        assert np.all(np.diff(rep.errors[19:]) <= 1e-15)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_empty_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            asymptotic_report(WeightParams(2, (1.0,), 4.0), horizon=horizon)

    @pytest.mark.parametrize("n", [0, -1, 6])
    def test_error_outside_the_horizon_rejected(self, n):
        rep = asymptotic_report(WeightParams(2, (1.0,), 4.0), horizon=5)
        assert rep.error_at(5) == rep.errors[-1]
        with pytest.raises(ValueError, match="1..5"):
            rep.error_at(n)


class TestRodriguesEquation:
    def test_flagship_residual(self, flagship, grid):
        assert rodrigues_pde_residual(flagship, 1, grid) < 1e-10

    def test_tiny_a_decoupled(self, grid):
        assert rodrigues_pde_residual(TINY, 2, grid) < 1e-12

    def test_coefficients_match_displayed_forms(self):
        # the instantiated coefficients collapse to the displayed 2x2 forms,
        # with the conjugate parameter in the lower-left entries
        a, b, n = 1.0 + 2.0j, 2.5, 4
        p = WeightParams(2, (a,), b)
        m2, m1, m0 = pde_coefficients(p, n)
        ac = np.conj(a)
        m2_display = MatrixPolynomial([np.array([[1, 0], [0, b]]),
                                       np.array([[0, 0], [ac * (b - 1), 0]])])
        m1_display = MatrixPolynomial([
            np.array([[0, 0], [ac * (b * (2 + n) - n), 0]]),
            np.diag([-2.0 * b, -2.0 * b]),
        ])
        assert (m2 - m2_display).max_coeff() < 1e-14
        assert (m1 - m1_display).max_coeff() < 1e-14
        assert (m0 - MatrixPolynomial.constant(eigenvalue_matrix(p, n))).max_coeff() < 1e-12

    def test_complex_parameter_needs_conjugate(self, grid):
        # with the unconjugated parameter in the displayed slots the
        # equation would fail for complex a: the adjoint convention matters
        a, b, n = 1.0 + 1.0j, 2.0, 2
        p = WeightParams(2, (a,), b)
        assert rodrigues_pde_residual(p, n, grid) < 1e-10
        kern = rodrigues_kernel(p, n)
        kern = PerKey.of(kern.keys, kern.coeffs)
        wrong_m2 = MatrixPolynomial([np.array([[1, 0], [0, b]]),
                                     np.array([[0, 0], [a * (b - 1), 0]])])
        wrong_m1 = MatrixPolynomial([
            np.array([[0, 0], [a * (b * (2 + n) - n), 0]]),
            np.diag([-2.0 * b, -2.0 * b]),
        ])
        m2, m1, _ = pde_coefficients(p, n)
        good = (kern.poly_mul(m2).derivative(2) - kern.poly_mul(m1).derivative())
        bad = (kern.poly_mul(wrong_m2).derivative(2)
               - kern.poly_mul(wrong_m1).derivative())
        assert max(max_abs((good - bad)(t)) for t in grid) > 1e-3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_residual_over_degrees(self, n, grid):
        p = WeightParams(2, (1.0,), 2.0)
        assert rodrigues_pde_residual(p, n, grid) < 1e-10

    @pytest.mark.parametrize("ts", [[], 0.3, [[0.1, 0.2]]])
    def test_rejects_a_grid_it_cannot_use(self, flagship, ts):
        # an empty grid would check nothing and read 0.0, a pass
        with pytest.raises(ValueError, match="non-empty 1-D"):
            rodrigues_pde_residual(flagship, 2, ts)


# The per-degree closed forms as they were before the degree tables, one
# degree per call, in the per-key function algebra: the reference every
# table matches byte for byte.

def _ref_kernel(p, n):
    a, b = p.a[0], p.b
    aa, sign, ca = abs(a) ** 2, (-1.0) ** n, np.conj(a)
    coeffs = np.zeros((4, 3, 2, 2), dtype=complex)
    coeffs[0, 0, 0, 0] = sign * b ** float(-n)
    coeffs[1, 0] = [[sign * aa * n / 2.0, 0.0], [0.0, sign * 2.0]]
    coeffs[1, 1] = [[0.0, sign * a], [sign * ca * 2.0, 0.0]]
    coeffs[1, 2, 0, 0] = sign * aa
    coeffs[2, 0, 1, 0] = sign * ca * math.sqrt(math.pi) * n
    coeffs[3, 0, 1, 0] = -sign * ca * math.sqrt(math.pi) * n
    return PerKey.of([(GAUSS, b), (GAUSS, 1.0), (ERF, b), (ERF, 1.0)], coeffs)


def _ref_rodrigues(p, n):
    inv = weight_inverse_symbolic_2x2(p)
    poly = (_ref_kernel(p, n).derivative(n) @ PerKey.of(inv.keys, inv.coeffs)).to_polynomial()
    if poly.degree != n:
        raise ArithmeticError(f"Rodrigues product has degree {poly.degree}, expected {n}")
    return poly


def _ref_explicit(p, n):
    if n == 0:
        return MatrixPolynomial.constant(np.diag([1.0, 2.0]))
    a, b = p.a[0], p.b
    aa = abs(a) ** 2
    hn_b = hermite_coeffs(n) * b ** (np.arange(n + 1) / 2.0)
    hnm1_b = hermite_coeffs(n - 1) * b ** (np.arange(n) / 2.0)
    coeffs = [np.zeros((2, 2), dtype=complex) for _ in range(n + 2)]
    pref = b ** (-n / 2.0)
    for k, v in enumerate(hn_b):
        coeffs[k][0, 0] += pref * v
        coeffs[k + 1][0, 1] += -a * pref * v
    for k, v in enumerate(hermite_coeffs(n + 1)):
        coeffs[k][0, 1] += 0.5 * a * v
    pref = 2.0 * b ** (n / 2.0) * n
    for k, v in enumerate(hnm1_b):
        coeffs[k][1, 0] += -np.conj(a) * pref * v
        coeffs[k + 1][1, 1] += aa * pref * v
    for k, v in enumerate(hermite_coeffs(n)):
        coeffs[k][1, 1] += 2.0 * v
    coeffs[n + 1][0, 1] = 0.0
    return MatrixPolynomial(coeffs)


def _ref_pde_residual(p, n, ts):
    kern = _ref_kernel(p, n)
    op = build_operator(p)
    f2s, f1s, f0s = op.f2.conj_t(), op.f1.conj_t(), op.f0.conj_t()
    m1 = f1s + float(n) * f2s.derivative()
    m0 = f0s + float(n) * f1s.derivative() + float(math.comb(n, 2)) * f2s.derivative(2)
    expr = (kern.poly_mul(f2s).derivative(2) - kern.poly_mul(m1).derivative()
            + kern.poly_mul(m0) - kern.lmul(eigenvalue_matrix(p, n)))
    return max_abs(expr(np.asarray(ts, dtype=float)))


def _log_gamma(p, n):
    if n == 0:
        return math.log(2.0)
    t = 2.0 * math.log(abs(p.a[0])) + (n - 0.5) * math.log(p.b) + math.log(n)
    return np.logaddexp(math.log(2.0), t)


def _ref_normalization(p, n):
    g = gamma_value(p, n)
    leading = 2.0 ** n * np.diag([1.0, g]).astype(complex)
    log_pref = 0.5 * (n * math.log(2.0) - 0.5 * math.log(math.pi) - math.lgamma(n + 1))
    d1 = math.exp(log_pref + 0.5 * (math.log(2.0) + (n + 0.5) * math.log(p.b)
                                    - _log_gamma(p, n + 1)))
    d2 = math.exp(log_pref + 0.5 * (_log_gamma(p, n) - math.log(2.0)))
    return (g, leading, np.diag([d1, d2]).astype(complex),
            np.diag([2.0 ** n / d1, 2.0 ** n * g / d2]).astype(complex))


def _ref_orthonormal(p, n):
    a, b = p.a[0], p.b
    if n >= 1:
        diag = [math.sqrt(gamma_ratio(p, n) / (2.0 * b)),
                math.sqrt(1.0 / (2.0 * gamma_ratio(p, n - 1)))]
        a_mat = math.sqrt(n) * np.diag(diag).astype(complex)
    else:
        a_mat = np.zeros((2, 2), dtype=complex)
    drift = b + (b - 1.0) * n
    log_mag = ((2.0 * n - 3.0) / 4.0 * math.log(b)
               - 0.5 * (_log_gamma(p, n) + _log_gamma(p, n + 1)))
    factor = math.copysign(math.exp(log_mag + math.log(abs(drift))), drift) \
        if drift != 0.0 else 0.0
    return a_mat, factor * np.array([[0.0, a], [np.conj(a), 0.0]], dtype=complex)


def _ref_to_rodrigues(p, n, a, b):
    g = _ref_normalization(p, n)[3]
    inv = np.linalg.inv(g)
    if not n:
        return np.zeros((2, 2), dtype=complex), g @ b @ inv, np.zeros((2, 2), dtype=complex)
    g_prev = _ref_normalization(p, n - 1)[3]
    return g_prev @ a @ inv, g @ b @ inv, g @ (a.conj().T + 0.0) @ np.linalg.inv(g_prev)


def _ref_recurrence(p, n):
    """Monic B, C and Rodrigues-normalized A, B, C, checked by gauge transport."""
    a, b = p.a[0], p.b
    g_n, g_np = gamma_value(p, n), gamma_value(p, n + 1)
    drift = b + (b - 1.0) * n
    monic_b = drift * np.array([[0.0, a / (2.0 * b)],
                                [2.0 * np.conj(a) * b ** (n - 0.5) / (g_n * g_np), 0.0]],
                               dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    monic_c = rodrigues_a = rodrigues_c = zero
    if n >= 1:
        g_nm = gamma_value(p, n - 1)
        monic_c = (n / (2.0 * b)) * np.diag([g_np / g_n, b * g_nm / g_n]).astype(complex)
        rodrigues_a = 0.5 * np.diag([1.0, g_nm / g_n]).astype(complex)
        rodrigues_c = float(n) * np.diag([g_np / (b * g_n), 1.0]).astype(complex)
    rodrigues_b = (-n + (n + 1) * b) * np.array([[0.0, a / (2.0 * b * g_n)],
                                                 [2.0 * np.conj(a) * b ** (n - 0.5) / g_np, 0.0]],
                                                dtype=complex)
    tilde = _ref_to_rodrigues(p, n, *_ref_orthonormal(p, n))
    for name, lhs, rhs in (("rodrigues_b", tilde[1], rodrigues_b),
                           ("rodrigues_a", tilde[0], rodrigues_a),
                           ("rodrigues_c", tilde[2], rodrigues_c)):
        if max_abs(lhs - rhs) > 1e-8 * max(1.0, max_abs(lhs), max_abs(rhs)):
            raise ArithmeticError(f"gauge consistency failed for {name}")
    return monic_b, monic_c, rodrigues_a, rodrigues_b, rodrigues_c


def _ref_norms(p, n):
    b = p.b
    log_pref = 0.5 * math.log(math.pi) + math.lgamma(n + 1) - n * math.log(2.0)
    monic = np.diag([math.exp(log_pref + _log_gamma(p, n + 1) - math.log(2.0)
                              - (n + 0.5) * math.log(b)),
                     math.exp(log_pref + math.log(2.0) - _log_gamma(p, n))]).astype(complex)
    log_pref = n * math.log(2.0) + 0.5 * math.log(math.pi) + math.lgamma(n + 1)
    rodrigues = np.diag([math.exp(log_pref + _log_gamma(p, n + 1) - math.log(2.0)
                                  - (n + 0.5) * math.log(b)),
                         math.exp(log_pref + math.log(2.0) + _log_gamma(p, n))]).astype(complex)
    return monic, rodrigues


def _bytes(x):
    """The bytes of an array, a polynomial's coefficients or a float."""
    return np.asarray(getattr(x, "coeffs", x)).tobytes()


def _ref_rows(f, degrees):
    """``f`` at each degree, as bytes, up to the first degree that raises:
    the rows and that exception (None when every degree returns)."""
    rows = []
    for n in degrees:
        try:
            rows.append(f(n))
        except ArithmeticError as exc:
            return rows, exc
    return rows, None


TABLE_PARAMS = [WeightParams(2, (a,), b) for b in (1e-3, 0.25, 1.0, 2.0, 4.0, 50.0)
                for a in (1.0, -0.7, 0.6 + 0.8j, 1e-3j)]
# members and top degrees whose gauge entries reach inf
OVERFLOW_GAUGES = [(WeightParams(2, (0.6 + 0.8j,), 0.1), 200),
                   (WeightParams(2, (1.0,), 10.0), 200), (WeightParams(2, (-0.7,), 1000.0), 100)]


class TestDegreeTables:
    """Each table over its degree range gives the bytes of the per-degree
    reference at every degree, and raises where the first degree raises."""

    @pytest.mark.parametrize("p", TABLE_PARAMS, ids=lambda p: f"a={p.a[0]}-b={p.b}")
    def test_polynomial_tables(self, p):
        degrees = range(1, 13)
        want, exc = _ref_rows(lambda n: _ref_rodrigues(p, n), degrees)
        if exc is None:
            got = cf._rodrigues_table(p, degrees)
        else:  # b = 1e-3: from degree 7 the product's low entries fall below the tolerance
            with pytest.raises(ArithmeticError, match=str(exc)):
                cf._rodrigues_table(p, degrees)
            got = cf._rodrigues_table(p, degrees[:len(want)])
        assert [_bytes(x) for x in got] == [_bytes(x) for x in want]
        want = [_bytes(_ref_explicit(p, n)) for n in range(0, 13)]
        assert [_bytes(x) for x in cf._explicit_table(p, range(0, 13))] == want

    @pytest.mark.parametrize("p", TABLE_PARAMS, ids=lambda p: f"a={p.a[0]}-b={p.b}")
    def test_kernel_equation_table(self, p, grid):
        want = [_ref_pde_residual(p, n, grid) for n in range(1, 11)]
        got = cf._pde_residual_table(p, range(1, 11), grid)
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("p", TABLE_PARAMS, ids=lambda p: f"a={p.a[0]}-b={p.b}")
    @pytest.mark.parametrize("degrees", [range(0, 41), range(7, 19)])
    def test_recurrence_norm_and_gauge_tables(self, p, degrees):
        got = cf._recurrence_table(p, degrees)
        for k, n in enumerate(degrees):
            want = _ref_recurrence(p, n) + _ref_orthonormal(p, n)
            assert [m[k].tobytes() for m in got] == [m.tobytes() for m in want], n
        *mats, gammas = cf._normalization_table(p, degrees)
        for k, n in enumerate(degrees):
            want = _ref_normalization(p, n)
            assert [gammas[k].hex()] + [m[k].tobytes() for m in mats] == [
                want[0].hex()] + [m.tobytes() for m in want[1:]], n
        norms = cf._norms_table(p, degrees)
        for k, n in enumerate(degrees):
            assert [m[k].tobytes() for m in norms] == [m.tobytes() for m in _ref_norms(p, n)], n

    @pytest.mark.parametrize("p, top", [(p, 40) for p in TABLE_PARAMS] + OVERFLOW_GAUGES,
                             ids=[f"a={p.a[0]}-b={p.b}" for p in TABLE_PARAMS]
                             + [f"a={p.a[0]}-b={p.b}-to-{top}" for p, top in OVERFLOW_GAUGES])
    def test_gauge_transport(self, p, top):
        """The reciprocal gauge inverses give the bytes of ``np.linalg.inv``,
        also from degree 195 at b = 0.1 and 10 and from 94 at b = 1000, where
        gauge entries are inf."""
        gauges = cf._normalization_table(p, range(top + 1))[2]
        assert np.isinf(gauges).any() == (top > 40)
        with np.errstate(all="ignore"):
            orth = [_ref_orthonormal(p, n) for n in range(top + 1)]
            got = cf._transport(gauges, np.array([a for a, _ in orth]),
                                np.array([b for _, b in orth]), 0)
            for n, row in enumerate(orth):
                want = _ref_to_rodrigues(p, n, *row)
                assert [m[n].tobytes() for m in got] == [m.tobytes() for m in want], n
        seq = monic_sequence(p, 12)
        tilde = normalized_recurrence_from_moments(p, seq)
        table, _ = orthonormalize_sequence(seq)
        rows = zip(table.A, table.B + (np.zeros((2, 2), dtype=complex),))
        want = list(zip(*(_ref_to_rodrigues(p, n, *row) for n, row in enumerate(rows))))
        assert [[m.tobytes() for m in got] for got in (tilde.A, tilde.B, tilde.C)] == [
            [m.tobytes() for m in want[0]], [m.tobytes() for m in want[1][:-1]],
            [m.tobytes() for m in want[2]]]

    @pytest.mark.parametrize("a, b", [(1.0, 1e-15), (1e100, 1e-15), (1e-100, 1e-12),
                                      (1e100, 1e30), (0.6 + 0.8j, 1e-16)])
    def test_tables_raise_what_the_first_failing_degree_raises(self, a, b, grid):
        """Where kernels overflow (b**-n from n = 20 at b = 1e-16) or products
        do not cancel, each table raises what the per-degree loop met first."""
        p = WeightParams(2, (a,), b)
        for table, ref, degrees in (
                (cf._rodrigues_table, _ref_rodrigues, range(1, 13)),
                (lambda p, d: cf._pde_residual_table(p, d, grid),
                 lambda p, n: _ref_pde_residual(p, n, grid), range(1, 21))):
            with np.errstate(all="ignore"):  # as the suite runs its checks
                want, exc = _ref_rows(lambda n: ref(p, n), degrees)
                try:
                    got = [_bytes(x) for x in table(p, degrees)]
                except ArithmeticError as err:
                    got = err
            if exc is None:
                assert got == [_bytes(x) for x in want]
            else:
                assert (type(got), str(got)) == (type(exc), str(exc))

    def test_failed_gauge_consistency_raises_at_the_first_degree(self, monkeypatch):
        """Row 3 spoils its Rodrigues A and C, row 5 its B: the table raises
        for A, the first name checked at the first degree that fails, as the
        per-degree loop does."""
        p = WeightParams(2, (0.6 + 0.8j,), 2.0)
        row = cf._closed_row
        spoilt = {3: (2, 4), 5: (3,)}

        def spoil(p, n):  # the row lists the entries of its five matrices
            entries = list(row(p, n))
            for i in spoilt.get(n, ()):
                entries[4 * i:4 * i + 4] = [1.5 * v for v in entries[4 * i:4 * i + 4]]
            return tuple(entries)
        monkeypatch.setattr(cf, "_closed_row", spoil)
        with pytest.raises(ArithmeticError, match="failed for rodrigues_a"):
            cf._recurrence_table(p, range(1, 8))
        with pytest.raises(ArithmeticError, match="failed for rodrigues_b"):
            recurrence_closed_forms(p, 5)
        cf._recurrence_table(p, range(0, 3))  # the degrees before still agree
