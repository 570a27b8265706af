import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import rel_dev
import matorth
from matorth.closed_forms import (explicit_polynomial, gamma_value,
                                  normalization, orthonormal_recurrence,
                                  recurrence_closed_forms)
from matorth.linalg import hermitian_residual, max_abs
from matorth.orthogonal import (monic_sequence, orthonormalize_sequence,
                                quadrature_oracle, recurrence_from_sequence)
from matorth.weights import WeightParams, weight_eval, weight_moment

SQPI = math.sqrt(math.pi)


class TestMonicSequence:
    def test_degree_zero(self, flagship):
        seq = monic_sequence(flagship, 0)
        assert seq.polys[0].degree == 0
        assert max_abs(seq.polys[0].coeff(0) - np.eye(2)) == 0.0
        assert max_abs(seq.norms[0] - weight_moment(flagship, 0)) < 1e-14

    def test_monic_leading_coefficients(self, flagship):
        seq = monic_sequence(flagship, 8)
        for n, poly in enumerate(seq.polys):
            assert poly.degree == n
            assert max_abs(poly.coeff(n) - np.eye(2)) < 1e-14

    def test_zeroth_norm_special_value(self):
        # a = 1, b = 4 makes both diagonal entries equal sqrt(pi)
        p = WeightParams(2, (1.0,), 4.0)
        seq = monic_sequence(p, 0)
        assert max_abs(seq.norms[0] - SQPI * np.eye(2)) < 1e-14

    def test_matches_closed_form_monic(self, flagship):
        seq = monic_sequence(flagship, 15)
        for n in range(16):
            lead = np.linalg.inv(normalization(flagship, n).leading)
            closed = explicit_polynomial(flagship, n).lmul(lead)
            dev = (seq.polys[n] - closed).max_coeff() / max(1.0, closed.max_coeff())
            assert dev < 1e-8

    def test_orthogonality_through_exact_pairing(self):
        p = WeightParams(3, (1.0, 0.7 + 0.7j), 2.4)
        seq = monic_sequence(p, 8)
        for n in range(9):
            for m in range(n):
                scale = math.sqrt(max_abs(seq.norms[n]) * max_abs(seq.norms[m]))
                assert max_abs(seq.pairing(n, m)) < 1e-10 * max(1.0, scale)

    def test_norms_positive_definite(self):
        p = WeightParams(4, (1.0, 0.5, 1.2j), 0.8)
        seq = monic_sequence(p, 10)
        for norm in seq.norms:
            assert np.linalg.eigvalsh(norm).min() > 0.0

    def test_condition_truncation_diagnostic(self):
        # Gaussian scales 1e6 apart: the moment system is so ill conditioned
        # that a squared norm stops being positive definite at degree 10
        p = WeightParams(2, (1.0,), 1e6)
        seq = monic_sequence(p, 12)
        assert seq.truncated_at == 10
        assert "positive definiteness lost at degree 10" in seq.truncation_reason
        assert len(seq.polys) == seq.truncated_at
        assert monic_sequence(p, 9).truncated_at is None

    def test_global_mpmath_precision_untouched(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("global mpmath precision changed")
        monkeypatch.setattr(mpmath.mp, "workdps", refuse)
        monkeypatch.setattr(mpmath.mp, "prec", 20)
        p = WeightParams(2, (0.6 - 0.3j,), 2.7)  # params unused elsewhere: cold build
        seq = monic_sequence(p, 8)
        orthonormalize_sequence(seq)
        seq.pairing(8, 3)
        assert mpmath.mp.prec == 20
        for n in range(9):
            lead = np.linalg.inv(normalization(p, n).leading)
            closed = explicit_polynomial(p, n).lmul(lead)
            assert (seq.polys[n] - closed).max_coeff() < 1e-8 * max(1.0, closed.max_coeff())

    def test_rejects_negative_nmax(self, flagship):
        with pytest.raises(ValueError):
            monic_sequence(flagship, -1)


class TestMonicRecurrence:
    def test_closed_forms(self, flagship):
        seq = monic_sequence(flagship, 12)
        table = recurrence_from_sequence(seq)
        assert table.kind == "monic"
        for n in range(1, 11):
            rec = recurrence_closed_forms(flagship, n)
            assert rel_dev(table.B[n], rec.monic_b) < 1e-12
            assert rel_dev(table.C[n], rec.monic_c) < 1e-12

    def test_identity_residuals_tiny(self, flagship):
        table = recurrence_from_sequence(monic_sequence(flagship, 12))
        assert max(table.residuals) < 1e-13

    def test_tiny_a_offdiagonal_vanishes(self):
        p = WeightParams(2, (1e-120,), 2.0)
        table = recurrence_from_sequence(monic_sequence(p, 6))
        for n in range(len(table.B)):
            assert max_abs(table.B[n]) < 1e-100


class TestOrthonormalization:
    def test_degree_zero_normalizer_display(self):
        # Delta_0 = pi^(-1/4) diag(sqrt(2 sqrt(b)/gamma_1), 1)
        p = WeightParams(2, (1.3,), 2.6)
        _, deltas = orthonormalize_sequence(monic_sequence(p, 2))
        g1 = gamma_value(p, 1)
        expected = math.pi ** -0.25 * np.diag(
            [math.sqrt(2.0 * math.sqrt(p.b) / g1), 1.0])
        assert max_abs(deltas[0] - expected) < 1e-14

    def test_closed_forms(self, flagship):
        seq = monic_sequence(flagship, 12)
        table, _ = orthonormalize_sequence(seq)
        assert table.kind == "orthonormal"
        for n in range(1, 11):
            a_cl, b_cl = orthonormal_recurrence(flagship, n)
            assert rel_dev(table.A[n], a_cl) < 1e-12
            assert rel_dev(table.B[n], b_cl) < 1e-12

    def test_c_is_conjugate_transpose_exactly(self, flagship):
        table, _ = orthonormalize_sequence(monic_sequence(flagship, 6))
        for n in range(len(table.A)):
            assert np.array_equal(table.C[n], table.A[n].conj().T)

    def test_b_hermitian(self):
        # B_n = Delta_n <t P_n, P_n> Delta_n* is formed at 50 digits, so it
        # is Hermitian to rounding of the returned complex128 entries
        for p, nmax in ((WeightParams(3, (0.9j, 1.4), 3.1), 8),
                        (WeightParams(4, (1.0, 0.5, 1.2j), 0.8), 10)):
            table, _ = orthonormalize_sequence(monic_sequence(p, nmax))
            for b in table.B:
                assert hermitian_residual(b) <= 1e-15 * max(1.0, max_abs(b))

    def test_orthonormality_via_moments(self):
        p = WeightParams(2, (1.0 + 0.5j,), 1.5)
        seq = monic_sequence(p, 8)
        _, deltas = orthonormalize_sequence(seq)
        for n in range(9):
            for m in range(n + 1):
                val = deltas[n] @ seq.pairing(n, m) @ deltas[m].conj().T
                target = np.eye(2) if n == m else np.zeros((2, 2))
                assert max_abs(val - target) < 1e-8

    def test_normalizers_unitriangular_gauge(self):
        # norm diagonal => Delta diagonal with positive entries (gauge pin)
        p = WeightParams(2, (0.8,), 3.3)
        _, deltas = orthonormalize_sequence(monic_sequence(p, 6))
        for d in deltas:
            assert abs(d[1, 0]) == 0.0
            assert abs(d[0, 1]) < 1e-12 * max_abs(d)
            assert d[0, 0].real > 0 and d[1, 1].real > 0


class TestQuadratureOracle:
    def test_weight_matches_zeroth_moment(self, flagship):
        approx = quadrature_oracle(flagship, lambda t: weight_eval(flagship, t)[1])
        exact = weight_moment(flagship, 0)
        assert rel_dev(approx, exact) < 1e-10

    def test_gaussian_second_moment(self, flagship):
        approx = quadrature_oracle(
            flagship, lambda t: t * t * math.exp(-t * t) * np.eye(2))
        assert max_abs(approx - SQPI / 2.0 * np.eye(2)) < 1e-13

    def test_orthogonality_through_independent_route(self, flagship):
        seq = monic_sequence(flagship, 2)
        p1, p0 = seq.polys[1], seq.polys[0]
        approx = quadrature_oracle(
            flagship,
            lambda t: p1(t) @ weight_eval(flagship, t)[1] @ p0(t).conj().T,
            degree_hint=16)
        assert max_abs(approx) < 1e-9

    def test_import_loads_no_scipy(self):
        src = str(Path(matorth.__file__).parents[1])
        probe = ("import sys, matorth; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_delta_report(self, flagship):
        def integrand(t):
            return weight_eval(flagship, t)[1]
        val = quadrature_oracle(flagship, integrand)
        finer = quadrature_oracle(flagship, integrand, degree_hint=128)
        assert max_abs(val - finer) < 1e-12
