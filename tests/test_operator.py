import math

import numpy as np
import pytest

from conftest import moment_pairing
from matorth import operator
from matorth.linalg import MatrixPolynomial, max_abs, worst
from matorth.operator import (BOUNDARY_DECAY_TOL, ChiXiReport, DifferentialOperator,
                              SymmetryReport, _first_order_factor,
                              apply_operator, build_operator, check_chi_xi,
                              check_symmetry_equations, eigenvalue_matrix)
from matorth.orthogonal import monic_sequence, orthonormalize_sequence
from matorth.sampling import draw_params
from matorth.weights import WeightParams, build_structure, weight_symbolic
from per_key import PerKey


def chained_symmetry_check(p, ts):
    """The symmetry check as a chain of per-key function operations, one
    object per step: the reference for ``check_symmetry_equations``."""
    op = build_operator(p)
    w = weight_symbolic(p)
    w = PerKey.of(w.keys, w.coeffs)
    f2w = w.poly_mul(op.f2, side="left")
    f1w = w.poly_mul(op.f1, side="left")
    f0w = w.poly_mul(op.f0, side="left")
    wf2s = w.poly_mul(op.f2.conj_t(), side="right")
    wf1s = w.poly_mul(op.f1.conj_t(), side="right")
    wf0s = w.poly_mul(op.f0.conj_t(), side="right")

    df2w = f2w.derivative()
    eq_ccp = f2w - wf2s
    eq_first = 2.0 * df2w - f1w - wf1s
    eq_second = df2w.derivative() - f1w.derivative() + f0w - wf0s

    ts = np.asarray(ts, dtype=float)
    r_ccp, r_first, r_second = (max_abs(eq(ts)) for eq in (eq_ccp, eq_first, eq_second))

    tb = 8.0 / math.sqrt(min(1.0, p.b))
    decay = df2w - f1w
    edges = np.array([-tb, tb])
    bval = worst(max_abs(f(edges)) for f in (f2w, decay)) * tb ** 10
    return SymmetryReport(r_ccp, r_first, r_second, bval, bval < BOUNDARY_DECAY_TOL)


class TestBuildOperator:
    def test_two_by_two_display(self):
        a, b = 1.2 - 0.7j, 3.0
        op = build_operator(WeightParams(2, (a,), b))
        assert max_abs(op.f2.coeff(0) - np.diag([1.0, b])) == 0.0
        assert max_abs(op.f2.coeff(1) - np.array([[0, a * (b - 1)], [0, 0]])) < 1e-15
        assert max_abs(op.f1.coeff(0) - np.array([[0, 2 * a * b], [0, 0]])) < 1e-15
        assert max_abs(op.f1.coeff(1) + 2 * b * np.eye(2)) == 0.0
        assert max_abs(op.f0.coeff(0) - np.diag([0.0, 2 * b])) == 0.0

    def test_tiny_a_limit_structure(self):
        b = 2.5
        op = build_operator(WeightParams(2, (1e-150,), b))
        assert max_abs(op.f2.coeff(0) - np.diag([1.0, b])) == 0.0
        assert max_abs(op.f2.coeff(1)) < 1e-140
        assert max_abs(op.f1.coeff(0)) < 1e-140
        assert max_abs(op.f1.coeff(1) + 2 * b * np.eye(2)) == 0.0
        assert max_abs(op.f0.coeff(0) - np.diag([0.0, 2 * b])) == 0.0

    def test_three_by_three_constant_term(self):
        op = build_operator(WeightParams(3, (1.0, 1.0), 2.0))
        assert max_abs(op.f2.coeff(0) - np.diag([1.0, 1.5, 2.0])) < 1e-15

    def test_degree_bounds(self):
        op = build_operator(WeightParams(5, (1.0, 0.5, 2.0, 1.0j), 0.4))
        assert op.f2.degree <= 2 and op.f1.degree <= 1 and op.f0.degree <= 0


class TestApplyOperator:
    def test_identity_gives_constant_coefficient(self, flagship):
        op = build_operator(flagship)
        out = apply_operator(op, MatrixPolynomial.constant(np.eye(2)))
        assert (out - op.f0).max_coeff() == 0.0

    def test_linear_polynomial(self, flagship):
        op = build_operator(flagship)
        p = MatrixPolynomial([np.zeros((2, 2)), np.eye(2)])
        expected = op.f1 + MatrixPolynomial([np.zeros((2, 2)), np.eye(2)]) * op.f0
        assert (apply_operator(op, p) - expected).max_coeff() == 0.0

    def test_degree_one_monic_eigenpolynomial(self, flagship):
        seq = monic_sequence(flagship, 1)
        op = build_operator(flagship)
        out = apply_operator(op, seq.polys[1])
        lam = np.diag([-2.0 * flagship.b, 0.0]).astype(complex)
        assert (out - seq.polys[1].lmul(lam)).max_coeff() < 1e-13


def _ref_apply(op: DifferentialOperator, poly: MatrixPolynomial) -> MatrixPolynomial:
    """``P'' f2 + P' f1 + P f0`` in ``MatrixPolynomial`` arithmetic, one
    polynomial at a time: the reference for the stacked kernel."""
    return poly.derivative(2) * op.f2 + poly.derivative() * op.f1 + poly * op.f0


class TestStackedOperator:
    MEMBERS = [WeightParams(2, (0.6 + 0.8j,), 2.0), WeightParams(2, (1.0,), 1.0),
               WeightParams(3, (0.8 - 0.3j, -1.2), 0.25),
               WeightParams(4, (0.7 + 0.2j, 1.3, -0.5j), 0.6),
               WeightParams(5, (1.0, 0.5, 1.2j, -0.8 + 0.4j), 4.0),
               WeightParams(6, (1.1, -0.4j, 0.9, 0.6 + 0.6j, 1.3), 3.0)]

    @pytest.mark.parametrize("p", MEMBERS)
    def test_every_degree_matches_the_polynomial_formula(self, p):
        seq = monic_sequence(p, 14)
        op, count = build_operator(p), len(seq.polys)
        stack = np.zeros((count, count, p.size, p.size), dtype=complex)
        for row, poly in zip(stack, seq.polys):
            row[:len(poly.coeffs)] = poly.coeffs
        table = operator._apply_stack(op, stack)
        for n, poly in enumerate(seq.polys):
            want = _ref_apply(op, poly).coeffs
            assert apply_operator(op, poly).coeffs.tobytes() == want.tobytes(), n
            assert table[n, :len(want)].tobytes() == want.tobytes(), n
            assert not np.any(table[n, len(want):]), n

    @pytest.mark.parametrize("p", MEMBERS[::2])
    def test_any_polynomial_matches_the_polynomial_formula(self, p):
        rng = np.random.default_rng(p.size)
        op = build_operator(p)
        for degree in (-1, 0, 1, 2, 5):
            coeffs = (rng.normal(size=(degree + 1, p.size, p.size))
                      + 1j * rng.normal(size=(degree + 1, p.size, p.size)))
            poly = MatrixPolynomial(coeffs, dim=p.size)
            want = _ref_apply(op, poly)
            assert apply_operator(op, poly).coeffs.tobytes() == want.coeffs.tobytes(), degree


class TestEigenvalueMatrix:
    def test_two_by_two_closed_form(self):
        p = WeightParams(2, (0.7 + 0.1j,), 1.7)
        for n in (0, 1, 5, 12):
            expected = np.diag([-2 * p.b * n, -2 * p.b * (n - 1)])
            assert max_abs(eigenvalue_matrix(p, n) - expected) < 1e-13

    @pytest.mark.parametrize("n", [2.5, 2.0])
    def test_degree_that_is_not_an_integer_raises_type_error(self, n):
        # 2.5 used to give diag(-20, -12) at b = 4
        with pytest.raises(TypeError):
            eigenvalue_matrix(WeightParams(2, (0.6 + 0.8j,), 4.0), n)

    def test_negative_degree_raises_value_error(self):
        with pytest.raises(ValueError, match=">= 0"):
            eigenvalue_matrix(WeightParams(2, (0.6 + 0.8j,), 4.0), -1)

    def test_degree_zero_equals_constant_coefficient(self):
        p = WeightParams(4, (1.0, 0.4, 0.9j), 2.2)
        op = build_operator(p)
        assert max_abs(eigenvalue_matrix(p, 0) - op.f0.coeff(0)) == 0.0

    def test_two_by_two_general_formula_collapses(self):
        # the quadratic corrections vanish because the shift squares to zero
        p = WeightParams(2, (2.0 - 1.0j,), 0.6)
        s = build_structure(p)
        bracket = s.nilpotent @ s.number - s.number @ s.nilpotent
        assert max_abs(s.nilpotent @ bracket) == 0.0
        assert max_abs(s.nilpotent @ s.nilpotent @ s.diag_scale) == 0.0

    def test_orthonormal_conjugation_is_hermitian(self):
        for p, top in ((WeightParams(2, (1.0,), 2.0), 20),
                       (WeightParams(3, (1.0, 0.5 + 0.5j), 1.6), 12)):
            seq = monic_sequence(p, top)
            _, deltas = orthonormalize_sequence(seq)
            for n in range(len(deltas)):
                lam = deltas[n] @ eigenvalue_matrix(p, n) @ np.linalg.inv(deltas[n])
                assert max_abs(lam - lam.conj().T) < 1e-9 * max(1.0, max_abs(lam))


class TestSymmetryEquations:
    def test_flagship_grid(self, flagship, grid):
        rep = check_symmetry_equations(flagship, grid)
        assert rep.max_residual < 1e-10
        assert rep.boundary_decay_ok

    def test_size_five_small_b(self, grid):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.3, 1.5, 4) * np.exp(2j * np.pi * rng.random(4))
        rep = check_symmetry_equations(WeightParams(5, tuple(a), 0.5), grid)
        assert rep.max_residual < 1e-9
        assert rep.boundary_decay_ok

    def test_tiny_a_first_equation_vanishes(self, grid):
        rep = check_symmetry_equations(WeightParams(2, (1e-200,), 2.0), grid)
        assert rep.residual_ccp < 1e-190

    def test_boundary_decay_small_b(self, grid):
        # exercises the decay sample point scaling ~ 1/sqrt(b)
        rep = check_symmetry_equations(WeightParams(2, (1.0,), 0.25), grid)
        assert rep.boundary_decay_ok

    def test_nan_residual_is_never_dropped(self):
        rep = SymmetryReport(0.0, math.nan, 1e-3, 0.0, True)
        assert math.isnan(rep.max_residual)

    def test_perturbed_first_order_coefficient_fails(self, grid, monkeypatch):
        p = WeightParams(3, (1.0, 0.6 - 0.8j), 1.4)
        op = build_operator(p)
        bad = DifferentialOperator(op.f2, (1.0 + 1e-6) * op.f1, op.f0)
        monkeypatch.setattr(operator, "build_operator", lambda q: bad)
        rep = check_symmetry_equations(p, grid)
        assert rep.residual_first_order > 1e-9
        assert rep.residual_ccp < 1e-12

    @pytest.mark.parametrize("p", [
        WeightParams(2, (0.6 + 0.8j,), 0.3),
        WeightParams(5, (1.0, 0.4j, 1.1, -0.6), 3.5),
    ])
    def test_grid_report_equals_pointwise_reports(self, p, grid):
        rep = check_symmetry_equations(p, grid)
        single = [check_symmetry_equations(p, [t]) for t in grid]
        for field in ("residual_ccp", "residual_first_order", "residual_second_order"):
            assert getattr(rep, field) == max(getattr(r, field) for r in single)
        assert rep.boundary_value == single[0].boundary_value
        chi = check_chi_xi(p, grid)
        chi_single = [check_chi_xi(p, [t]) for t in grid]
        for field in ("chi_hermitian_residual", "chi_literal_residual",
                      "xi_offdiagonal_residual", "xi_diagonal_residual"):
            assert getattr(chi, field) == max(getattr(r, field) for r in chi_single)


class TestAgainstChainedCheck:
    """The check on W's coefficient tensor reports what a chain of per-key
    function operations reports, to the bit."""

    @staticmethod
    def members():
        rng = np.random.default_rng(16)
        for size in range(2, 7):
            for _ in range(4):
                yield draw_params(rng, sizes=(size, size))
            for b in (1.0, 1e-3, 50.0):
                yield WeightParams(size, tuple(rng.uniform(0.5, 1.5, size - 1)), b)
                yield WeightParams(size, (0.6 + 0.8j,) * (size - 1), b)

    def test_reports_equal_the_chained_reference(self, grid):
        for p in self.members():
            for ts in (grid, [0.7], np.linspace(-9.0, 9.0, 7)):
                assert (repr(check_symmetry_equations(p, ts))
                        == repr(chained_symmetry_check(p, ts))), p


class TestGridValidation:
    @pytest.mark.parametrize("check", [check_symmetry_equations, check_chi_xi])
    @pytest.mark.parametrize("ts", [[], (), 0.3, [[0.1, 0.2]], np.zeros((2, 3))])
    def test_rejects_a_grid_that_is_not_a_nonempty_sequence(self, check, ts, flagship):
        with pytest.raises(ValueError, match="grid"):
            check(flagship, ts)


class TestChiXi:
    def test_first_order_factor_at_zero_is_nilpotent_generator(self):
        p = WeightParams(4, (1.0, 0.5, 1.5j), 2.0)
        s = build_structure(p)
        assert max_abs(_first_order_factor(p)(0.0) - s.nilpotent) == 0.0

    def test_xi_at_zero(self):
        p = WeightParams(3, (0.8, 1.1j), 3.0)
        rep = check_chi_xi(p, [0.0])
        assert rep.xi_offdiagonal_residual < 1e-12
        assert rep.xi_diagonal_residual < 1e-12

    def test_xi_closed_diagonal_two_by_two(self):
        # at (b, t) = (3, 1.2) the diagonal is
        # (b + 2 b t^2 d_1, b + 2 b t^2 d_2 + 2 b) with d = (-b/2, -1/2)
        p = WeightParams(2, (1.0,), 3.0)
        rep = check_chi_xi(p, [1.2])
        assert rep.xi_offdiagonal_residual < 1e-12
        assert rep.xi_diagonal_residual < 1e-12

    def test_residuals_on_grid(self, grid):
        for p in (WeightParams(2, (1.0,), 2.0),
                  WeightParams(4, (1.0, 0.9, 0.7j), 4.5),
                  WeightParams(5, (1.0, 0.4, 1.1, 0.6), 0.3)):
            rep = check_chi_xi(p, grid)
            assert rep.chi_hermitian_residual < 1e-9
            assert rep.xi_offdiagonal_residual < 1e-9
            assert rep.xi_diagonal_residual < 1e-9

    def test_tiny_a_literal_chi_hermitian(self, grid):
        rep = check_chi_xi(WeightParams(2, (1e-200,), 2.0), grid)
        assert rep.chi_literal_residual < 1e-12

    def test_max_residual_leaves_out_the_literal_chi_and_keeps_nan(self):
        assert ChiXiReport(1e-12, 5.0, 3e-12, 2e-12).max_residual == 3e-12
        assert math.isnan(ChiXiReport(0.0, 0.0, math.nan, 1e-3).max_residual)


def symmetry_bilinear_check(p, lhs, rhs) -> float:
    """Residual of ``integral D(P) W Q* = integral P W D(Q)*`` over the exact
    moments: the operator D is symmetric for the weight W."""
    op = build_operator(p)
    left = moment_pairing(p, apply_operator(op, lhs), rhs)
    right = moment_pairing(p, lhs, apply_operator(op, rhs))
    return max_abs(left - right)


class TestBilinearSymmetry:
    def test_constant_pair(self, flagship):
        eye = MatrixPolynomial.constant(np.eye(2))
        assert symmetry_bilinear_check(flagship, eye, eye) < 1e-10

    def test_constant_against_linear(self, flagship):
        eye = MatrixPolynomial.constant(np.eye(2))
        lin = MatrixPolynomial([np.zeros((2, 2)), np.eye(2)])
        assert symmetry_bilinear_check(flagship, eye, lin) < 1e-10

    def test_random_cubics_size_three(self):
        p = WeightParams(3, (1.0, 0.6 - 0.8j), 1.4)
        rng = np.random.default_rng(31)
        lhs = MatrixPolynomial(rng.normal(size=(4, 3, 3))
                               + 1j * rng.normal(size=(4, 3, 3)))
        rhs = MatrixPolynomial(rng.normal(size=(4, 3, 3))
                               + 1j * rng.normal(size=(4, 3, 3)))
        assert symmetry_bilinear_check(p, lhs, rhs) < 1e-8

    def test_dimension_mismatch(self, flagship):
        with pytest.raises(ValueError):
            apply_operator(build_operator(flagship),
                           MatrixPolynomial.constant(np.eye(3)))
