import decimal
import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reachable_decimals, rel_dev
import matorth
from matorth import _mp, orthogonal
from matorth.closed_forms import (explicit_polynomial, gamma_value,
                                  normalization, orthonormal_recurrence,
                                  recurrence_closed_forms)
from matorth.linalg import MatrixPolynomial, max_abs
from matorth.orthogonal import (moment_oracle, monic_sequence, orthonormalize_sequence,
                                quadrature_oracle, recurrence_from_sequence)
from matorth.suite import RunConfig, run_suite
from matorth.weights import (WeightParams, alpha_coeff, column_outers, odd_series,
                             weight_eval, weight_moment)

SQPI = math.sqrt(math.pi)


@pytest.fixture
def tried_degrees(monkeypatch) -> list[int]:
    """The degree of every ``_MpFamily._append`` call, on cold families."""
    _mp._family.cache_clear()
    tried = []
    append = _mp._MpFamily._append

    def counted(fam, coeffs):
        tried.append(len(coeffs) - 1)
        append(fam, coeffs)

    monkeypatch.setattr(_mp._MpFamily, "_append", counted)
    return tried


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

    def test_failing_degree_is_tried_once_per_family(self, tried_degrees):
        p = WeightParams(2, (1.0,), 1e6)
        seqs = [monic_sequence(p, 12), monic_sequence(p, 12), monic_sequence(p, 15)]
        assert tried_degrees == list(range(11))
        assert {(s.truncated_at, s.truncation_reason) for s in seqs} == {
            (10, seqs[0].truncation_reason)}
        assert "positive definiteness lost at degree 10" in seqs[0].truncation_reason
        complete = monic_sequence(p, 9)
        assert complete.truncated_at is complete.truncation_reason is None
        assert complete.top_degree == 9 and tried_degrees == list(range(11))

    def test_global_decimal_context_untouched(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            p = WeightParams(2, (0.55 - 0.35j,), 2.65)  # params unused elsewhere: cold build
            seq = monic_sequence(p, 8)
            orthonormalize_sequence(seq)
            seq.pairing(8, 3)
            assert decimal.getcontext().prec == 5
            # no arithmetic ran in this context: it would have raised flags
            assert not any(ctx.flags.values())
        for n in range(9):
            lead = np.linalg.inv(normalization(p, n).leading)
            closed = explicit_polynomial(p, n).lmul(lead)
            assert (seq.polys[n] - closed).max_coeff() < 1e-8 * max(1.0, closed.max_coeff())

    def test_rejects_negative_nmax(self, flagship):
        with pytest.raises(ValueError):
            monic_sequence(flagship, -1)

    @pytest.mark.parametrize("nmax", [2.5, 3.0])
    def test_rejects_non_integer_nmax_before_building(self, nmax, tried_degrees):
        p = WeightParams(2, (0.3 - 0.95j,), 1.15)  # cold: params unused elsewhere
        with pytest.raises(TypeError):
            monic_sequence(p, nmax)
        assert tried_degrees == []
        assert monic_sequence(p, np.int64(2)).top_degree == 2

    @pytest.mark.parametrize("i, j", [(6, 2), (2, 4), (-1, 0), (0, -2)])
    def test_pairing_rejects_degrees_outside_the_sequence(self, i, j):
        seq = monic_sequence(WeightParams(2, (0.6 + 0.8j,), 2.0), 3)
        with pytest.raises(IndexError, match=r"outside 0\.\.3"):
            seq.pairing(i, j)

    @pytest.mark.parametrize("i, j", [(1.0, 0), (0, 1.0), (np.float64(2.0), 1)])
    def test_pairing_rejects_degrees_that_are_not_integers(self, i, j):
        p = WeightParams(2, (0.25 + 0.9j,), 1.35)  # params unused elsewhere
        seq = monic_sequence(p, 3)
        fam = _mp.family(p)
        built = len(fam._views), len(fam._moments)
        with pytest.raises(TypeError):
            seq.pairing(i, j)
        assert (len(fam._views), len(fam._moments)) == built  # nothing was built
        assert seq.pairing(np.int64(3), 0).shape == (2, 2)

    def test_truncated_pairing_rejects_degrees_past_the_top(self):
        seq = monic_sequence(WeightParams(2, (1.0,), 1e6), 15)
        assert seq.top_degree == 9
        with pytest.raises(IndexError, match=r"outside 0\.\.9"):
            seq.pairing(12, 1)
        assert seq.pairing(9, 1).shape == (2, 2)


def _per_degree_residuals(seq, b, c) -> tuple[float, ...]:
    """The recurrence identity residual of each row k, one degree at a time
    in ``MatrixPolynomial`` arithmetic: the reference for the stacked rows."""
    residuals = []
    for k in range(len(seq.polys) - 1):
        p = seq.polys[k]
        shifted = MatrixPolynomial(np.concatenate([np.zeros((1, p.dim, p.dim)), p.coeffs]))
        resid = shifted - seq.polys[k + 1] - p.lmul(b[k])
        if k >= 1:
            resid = resid - seq.polys[k - 1].lmul(c[k])
        residuals.append(resid.max_coeff() / max(1.0, shifted.max_coeff()))
    return tuple(residuals)


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

    @pytest.mark.parametrize("p, nmax", [
        (WeightParams(2, (0.6 + 0.8j,), 2.0), 24), (WeightParams(2, (1.0,), 1e6), 14),
        (WeightParams(2, (1.0,), 0.25), 1), (WeightParams(3, (0.8 - 0.3j, -1.2), 0.25), 16),
        (WeightParams(4, (0.7 + 0.2j, 1.3, -0.5j), 0.6), 12),
        (WeightParams(5, (1.0, 0.5, 1.2j, -0.8 + 0.4j), 4.0), 10),
        (WeightParams(6, (1, 1, 1, 1, 1), 3.0), 31),
    ])
    def test_residuals_equal_the_per_degree_loop(self, p, nmax):
        seq = monic_sequence(p, nmax)
        table = recurrence_from_sequence(seq)
        assert table.residuals == _per_degree_residuals(seq, table.B, table.C)
        assert all(type(r) is float for r in table.residuals)

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
        # B_n = Delta_n <t P_n, P_n> Delta_n* is formed at 51 digits, so it
        # is Hermitian to rounding of the returned complex128 entries
        for p, nmax in ((WeightParams(3, (0.9j, 1.4), 3.1), 8),
                        (WeightParams(4, (1.0, 0.5, 1.2j), 0.8), 10)):
            table, _ = orthonormalize_sequence(monic_sequence(p, nmax))
            for b in table.B:
                assert max_abs(b - b.conj().T) <= 1e-15 * max(1.0, max_abs(b))

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


@pytest.fixture(scope="module")
def pointwise_moments() -> list[tuple[WeightParams, int, np.ndarray]]:
    """``(p, m, moment)`` by the pointwise oracle for m = 0..30, with p over
    sizes 2-6, a real and a complex a per size, b below 1 for one of them and
    above 1 for the other, the pairing swapped between odd and even sizes."""
    rng = np.random.default_rng(3)
    out = []
    for size in range(2, 7):
        mod = rng.uniform(0.4, 1.4, size - 1)
        real = tuple(mod * rng.choice([-1.0, 1.0], size - 1))
        cplx = tuple(mod * np.exp(2j * np.pi * rng.random(size - 1)))
        low, high = (0.35, 3.2) if size % 2 == 0 else (3.2, 0.35)
        for p in (WeightParams(size, real, low), WeightParams(size, cplx, high)):
            for m in range(31):
                out.append((p, m, quadrature_oracle(
                    p, lambda t: t ** m * weight_eval(p, t)[1],
                    degree_hint=m + 2 * size + 10)))
    return out


@pytest.fixture(scope="module")
def loaded_by_import() -> dict[str, list[str]]:
    """The scipy and mpmath modules a fresh interpreter holds after
    ``import matorth``, from one probe."""
    src = str(Path(matorth.__file__).parents[1])
    probe = ("import json, sys, matorth; print(json.dumps({p: sorted("
             "m for m in sys.modules if m.split('.')[0] == p) for p in ('scipy', 'mpmath')}))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout)


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

    def test_import_loads_no_scipy(self, loaded_by_import):
        assert loaded_by_import["scipy"] == []

    def test_import_loads_no_mpmath(self, loaded_by_import):
        assert loaded_by_import["mpmath"] == []

    def test_delta_report(self, flagship):
        def integrand(t):
            return weight_eval(flagship, t)[1]
        val = quadrature_oracle(flagship, integrand)
        finer = quadrature_oracle(flagship, integrand, degree_hint=128)
        assert max_abs(val - finer) < 1e-12

    @pytest.mark.parametrize("p, hint", [(WeightParams(2, (1.0,), 2.0), 64),
                                         (WeightParams(3, (0.8 - 0.3j, -1.2), 0.25), 20),
                                         (WeightParams(5, (1.0, 0.5, 1.2j, -0.8 + 0.4j), 4.0), 0)])
    def test_equals_the_per_node_loop(self, p, hint):
        calls = []

        def integrand(t):
            calls.append(t)
            return t ** 3 * weight_eval(p, t)[1] + t * np.eye(p.size)
        got = quadrature_oracle(p, integrand, degree_hint=hint)
        nodes = calls[1::2]
        assert calls[0] == 0.0 and calls[2::2] == [-t for t in nodes]
        assert nodes == sorted(nodes) and len(set(nodes)) == len(nodes)
        # the rule's step from its first node; one running sum in pair order
        total = np.zeros((p.size, p.size), dtype=complex) + integrand(0.0)
        for t in nodes:
            total += integrand(t) + integrand(-t)
        assert got.tobytes() == (calls[1] * total).tobytes()

    def test_moment_oracle_matches_pointwise(self, pointwise_moments):
        for p, m, expected in pointwise_moments:
            assert moment_oracle(p, m).tobytes() == expected.tobytes(), (p, m)

    def test_odd_entries_cancel_exactly(self, pointwise_moments):
        # W(-t) = S W(t) S with S = diag((-1)**i): entry (i, j) of the m-th
        # moment integrand is odd in t when m + i + j is odd
        for p, m, pointwise in pointwise_moments:
            odd = np.add.outer(np.arange(p.size), np.arange(p.size) + m) % 2 == 1
            for value in (moment_oracle(p, m), pointwise):
                assert np.all(value[odd] == 0.0), (p, m)

    @pytest.mark.parametrize("hint", [-1, -26, -27, -100])
    def test_rejects_negative_degree_hint(self, flagship, hint):
        # -26..-1 would shrink the rule below its budget 40 + 1.5 degree_hint,
        # and from -27 down the budget is negative
        def unused(t):
            raise AssertionError("the integrand was evaluated")
        with pytest.raises(ValueError, match="degree_hint"):
            quadrature_oracle(flagship, unused, degree_hint=hint)
        with pytest.raises(TypeError):
            quadrature_oracle(flagship, unused, degree_hint=hint + 0.5)

    def test_moment_oracle_rejects_negative_order(self, flagship):
        with pytest.raises(ValueError, match="order"):
            moment_oracle(flagship, -1)

    @pytest.mark.parametrize("m", [1.5, 2.0])
    def test_moment_oracle_rejects_non_integer_order(self, flagship, m, monkeypatch):
        def unused(p, t):
            raise AssertionError("the weight was evaluated")

        monkeypatch.setattr(orthogonal, "weight_eval", unused)
        with pytest.raises(TypeError):
            moment_oracle(flagship, m)

    def test_suite_evaluates_weight_once_per_moment(self, flagship, monkeypatch):
        calls = []

        def counted(p, t):
            calls.append(t)
            return weight_eval(p, t)

        monkeypatch.setattr(orthogonal, "weight_eval", counted)
        summary = run_suite(RunConfig(flagship, nmax=10))
        assert next(c for c in summary.checks if c.name == "moment-oracle").passed
        # moments 0..2 nmax, one call over the whole node array each
        assert len(calls) == 21


def _tables(p: WeightParams, nmax: int) -> list[np.ndarray]:
    """Every complex128 table a build returns: polynomial coefficients,
    norms, monic B and C, orthonormal A, B and C, and the normalizers."""
    seq = monic_sequence(p, nmax)
    monic = recurrence_from_sequence(seq)
    orth, deltas = orthonormalize_sequence(seq)
    return ([c for poly in seq.polys for c in poly.coeffs] + list(seq.norms)
            + list(monic.B) + list(monic.C) + list(orth.A) + list(orth.B) + list(orth.C)
            + list(deltas))


@st.composite
def exact_modulus_a(draw):
    """``d (p + i q)`` with ``(p, q, r)`` a Pythagorean triple from Euclid's
    formula, signs and a dyadic ``d`` picked so that ``|a| = d r`` lies in
    [0.5, 1.5] and is exact in double precision: the ``|a|`` member is then
    the very member the phase gauge reduces ``a`` to."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, m - 1))
    p, q, r = m * m - n * n, 2 * m * n, m * m + n * n
    if draw(st.booleans()):
        p, q = q, p
    d = max(1, round(draw(st.floats(0.5, 1.5)) * 2 ** 12 / r)) / 2 ** 12
    return complex(draw(st.sampled_from([1, -1])) * d * p,
                   draw(st.sampled_from([1, -1])) * d * q)


class TestPhaseGauge:
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(st.integers(2, 4).flatmap(lambda n: st.lists(exact_modulus_a(), min_size=n - 1,
                                                        max_size=n - 1)),
           st.floats(0.3, 4.0))
    def test_tables_follow_phase_pattern(self, a, b):
        # u_0 = 1, u_{k+1} = u_k conj(a_k / |a_k|), exactly in rationals
        u = [(Fraction(1), Fraction(0))]
        for v in a:
            mod = Fraction(abs(v))
            assert mod * mod == Fraction(v.real) ** 2 + Fraction(v.imag) ** 2
            c, s = Fraction(v.real) / mod, -Fraction(v.imag) / mod
            ur, ui = u[-1]
            u.append((ur * c - ui * s, ur * s + ui * c))
        size = len(a) + 1
        phased = _tables(WeightParams(size, tuple(a), b), 8)
        plain = _tables(WeightParams(size, tuple(abs(v) for v in a), b), 8)
        assert len(phased) == len(plain)
        with decimal.localcontext(decimal.Context(prec=60)):
            def dec(f: Fraction) -> decimal.Decimal:
                return decimal.Decimal(f.numerator) / f.denominator
            # u_i conj(u_j) to 60 digits
            w_re = np.array([[dec(ri * rj + ii * ij) for rj, ij in u] for ri, ii in u])
            w_im = np.array([[dec(ii * rj - ri * ij) for rj, ij in u] for ri, ii in u])
            to_dec = np.frompyfunc(decimal.Decimal, 1, 1)
            for got, base in zip(phased, plain):
                assert np.all(base.imag == 0)
                x = to_dec(base.real)
                tol = 2 * np.spacing(max(np.max(np.abs(got.real)), np.max(np.abs(got.imag))))
                assert np.max(np.abs(got.real - (x * w_re).astype(float))) <= tol
                assert np.max(np.abs(got.imag - (x * w_im).astype(float))) <= tol
        for m in phased + plain:
            for part in (m.real, m.imag):
                assert not np.any(np.signbit(part) & (part == 0)), "negative zero"


class TestFamilyViews:
    P = WeightParams(3, (0.8 - 0.6j, -0.3 + 1.1j), 1.4)
    NMAX = 7

    def test_returned_arrays_are_read_only_fresh_conversions(self):
        seq = monic_sequence(self.P, self.NMAX)
        monic = recurrence_from_sequence(seq)
        orth, deltas = orthonormalize_sequence(seq)
        fam = _mp.family(self.P)
        # the family keeps two degrees; the reference keeps every degree's
        # decimal state, equal to the family's to the last digit
        ref = _full_product_build(self.P, self.NMAX)
        with decimal.localcontext(_mp._CONTEXT):
            chols = [_mp._chol_upper(h) for h in ref["norms"]]
            orth_a = [np.zeros((3, 3), dtype=object)] + [
                ref["deltas"][k - 1] @ chols[k] for k in range(1, self.NMAX + 1)]
            orth_b = [ref["deltas"][k] @ ref["bhat"][k] @ chols[k] for k in range(self.NMAX)]
        pairs = [(seq.norms, ref["norms"]), (monic.B, ref["bhat"]), (monic.C, ref["chat"]),
                 (orth.A, orth_a), (orth.B, orth_b), (deltas, ref["deltas"])]
        pairs += [(poly.coeffs, np.array(ref["polys"][n])) for n, poly in enumerate(seq.polys)]
        for returned, state in pairs:
            assert 0 < len(returned) <= len(state)
            for got, x in zip(returned, state):
                assert not got.flags.writeable
                fresh = fam._complex(x)
                assert got.dtype == fresh.dtype and got.tobytes() == fresh.tobytes()

    def test_sequences_share_the_family_polynomials(self):
        first, second = monic_sequence(self.P, self.NMAX), monic_sequence(self.P, 4)
        fam = _mp.family(self.P)
        for k, poly in enumerate(second.polys):
            assert poly is first.polys[k] is fam._views[k].poly
            assert second.norms[k] is first.norms[k] is fam._views[k].norm
            assert not poly.coeffs.flags.writeable

    def test_each_quantity_converted_once(self, monkeypatch):
        p = WeightParams(2, (0.35 + 0.9j,), 2.3)  # cold: params unused elsewhere
        calls = []
        convert = _mp._MpFamily._complex

        def counted(fam, x):
            calls.append(len(x))  # a stack of (N, N) matrices
            return convert(fam, x)

        monkeypatch.setattr(_mp._MpFamily, "_complex", counted)
        first = _tables(p, 6)
        built = len(calls)
        # per degree one call for its k + 1 coefficients and one for its six
        # tables: the norm, Bhat, Chat, Delta, A and B
        assert calls == [m for k in range(7) for m in (k + 1, 6)]
        seq = monic_sequence(p, 6)
        seq.pairing(6, 3)
        again = _tables(p, 6) + _tables(p, 4)
        assert len(calls) == built
        assert [m.tobytes() for m in again[:len(first)]] == [m.tobytes() for m in first]

    def test_sequence_keeps_the_family_that_built_it(self, monkeypatch):
        # with the family cache cleared, nothing is rebuilt and nothing changes
        seq = monic_sequence(WeightParams(4, (1.0, 0.6 - 0.8j, 1.3j), 1.7), 8)

        def tables():
            monic = recurrence_from_sequence(seq)
            orth, deltas = orthonormalize_sequence(seq)
            arrays = [seq.pairing(8, 0), seq.pairing(5, 7), *monic.B, *monic.C,
                      *orth.A, *orth.B, *deltas]
            return [m.tobytes() for m in arrays] + [monic.residuals]

        before = tables()
        _mp._family.cache_clear()
        built = []
        init = _mp._MpFamily.__init__

        def counted(fam, p):
            built.append(p)
            init(fam, p)

        monkeypatch.setattr(_mp._MpFamily, "__init__", counted)
        assert tables() == before
        assert built == []


def _per_term_pairings(fam: _mp._MpFamily, top: int) -> dict[tuple[int, int], np.ndarray]:
    """Every ``<P_i, P_j>`` with i, j <= top as the first release paired them:
    full-width rows ``V_l = sum_k Y_k S_{k+l}`` of ``Y_k = C_k U`` and two
    real products per term, ``sum_l V^i_l (Y^j_l)*``. The reference for the
    parity-split ``pair_float``."""
    fam.extend(top)
    ys, vs, out = [], [], {}
    with decimal.localcontext(_mp._CONTEXT):
        for k in range(top + 1):
            y_re, y_im = [], []
            for c in fam._views[k].poly.coeffs:
                c_re, c_im = _mp._from_float(c.real), _mp._from_float(c.imag)
                y_re.append(c_re * fam._u_re - c_im * fam._u_im)
                y_im.append(c_re * fam._u_im + c_im * fam._u_re)
            ys.append((y_re, y_im))
            vs.append((fam._row(y_re, k + 1), fam._row(y_im, k + 1)))
        for i in range(top + 1):
            for j in range(i + 1):
                (v_re, v_im), (y_re, y_im) = vs[i], ys[j]
                re = sum(v_re[l] @ y_re[l].T + v_im[l] @ y_im[l].T for l in range(j + 1))
                im = sum(v_im[l] @ y_re[l].T - v_re[l] @ y_im[l].T for l in range(j + 1))
                pair = np.empty((fam.n, fam.n), dtype=complex)
                pair.real, pair.imag = _mp._to_float(re), _mp._to_float(im)
                out[j, i] = pair.conj().T + 0.0
                out[i, j] = pair
    return out


def _per_pair(fam: _mp._MpFamily, i: int, j: int) -> np.ndarray:
    """``<P_i, P_j>``, i >= j, one pair at a time from fresh class rows: the
    rows ``Y_i H`` on all of degree i's class columns, ``H[(k, r), (l, s)] =
    S_{k+l}[r, s]`` built entry by entry, cut to the width of ``Y_j``. The
    reference for the row pass ``pair_rows`` and for ``pairing``."""
    parts = np.zeros((2, fam.n, fam.n), dtype=object)
    with decimal.localcontext(_mp._CONTEXT):
        for c, (yi, y) in enumerate(zip(fam._class_rows(i), fam._class_rows(j))):
            cols = [(l, r) for l in range(i + 1) for r in range(fam.n) if (l + r) % 2 == c]
            hankel = np.array([[fam.moment(k + l)[r, s] for l, s in cols] for k, r in cols])
            v = yi @ hankel
            prod, ri, rj = v[:, :y.shape[1]] @ y.T, len(v) // 2, len(y) // 2
            block = slice((i + c) % 2, None, 2), slice((j + c) % 2, None, 2)
            parts[0][block] = prod[:ri, :rj] + prod[ri:, rj:]
            parts[1][block] = prod[ri:, :rj] - prod[:ri, rj:]
    out = np.empty((fam.n, fam.n), dtype=complex)
    out.real, out.imag = _mp._to_float(parts)
    return out


class TestPairColumn:
    """Every entry of the gate's row pass ``pair_rows`` and of ``pairing``
    has the bytes of its own pair's product, ``_per_pair``."""

    @pytest.mark.parametrize("p, nmax", [
        (WeightParams(2, (0.6 + 0.8j,), 2.0), 21), (WeightParams(2, (1.0,), 1e6), 14),
        (WeightParams(2, (-0.7,), 0.25), 0), (WeightParams(3, (0.8 - 0.3j, -1.2), 0.25), 12),
        (WeightParams(4, (0.7 + 0.2j, 1.3, -0.5j), 0.6), 10),
        (WeightParams(5, (1.0, 0.5, 1.2j, -0.8 + 0.4j), 4.0), 8),
        (WeightParams(6, (1.1, -0.4j, 0.9, 0.6 + 0.6j, 1.3), 3.0), 7),
    ])
    def test_every_entry_equals_its_own_pair_product(self, p, nmax):
        seq = monic_sequence(p, nmax)
        fam, top = seq._family, seq.top_degree
        rows = [row.tobytes() for row in fam.pair_rows(top)]
        assert len(rows) == top
        for i in range(top + 1):
            want = [_per_pair(fam, i, j) for j in range(i + 1)]
            if i:
                assert rows[i - 1] == np.array(want[:i]).tobytes(), i
            for j, pair in enumerate(want):
                assert seq.pairing(i, j).tobytes() == pair.tobytes(), (i, j)
                if i > j:
                    assert (seq.pairing(j, i).tobytes()
                            == (pair.conj().T + 0.0).tobytes()), (i, j)
        # a shorter pass gives the same leading rows
        assert [row.tobytes() for row in fam.pair_rows(top // 2)] == rows[:top // 2]


class TestParityPairing:
    """``pair_float`` works per parity class; it must reproduce the
    per-term pairing of full-width rows."""

    @pytest.mark.parametrize("b", [0.25, 2.0, 4.0])
    @pytest.mark.parametrize("a", [-0.7, 1.3j, 0.6 + 0.8j])
    def test_size_two_matches_per_term_pairing_bytes(self, a, b):
        seq = monic_sequence(WeightParams(2, (a,), b), 20)
        ref = _per_term_pairings(_mp.family(seq.params), 20)
        for (i, j), want in ref.items():
            got = seq.pairing(i, j)
            if i != j:
                assert got.tobytes() == want.tobytes(), (i, j)
            else:
                # the exact diagonal is real; both round its 51-digit residue
                assert got.real.tobytes() == want.real.tobytes(), i
                assert max_abs(got.imag - want.imag) <= 1e-40 * max_abs(seq.norms[i])

    @pytest.mark.parametrize("p, top", [
        (WeightParams(3, (0.8 - 0.3j, -1.2), 0.25), 12),
        (WeightParams(4, (0.7 + 0.2j, 1.3, -0.5j), 0.6), 10),
        (WeightParams(5, (1.0, 0.5, 1.2j, -0.8 + 0.4j), 4.0), 8),
    ])
    def test_larger_sizes_match_per_term_pairing(self, p, top):
        seq = monic_sequence(p, top)
        ref = _per_term_pairings(_mp.family(p), top)
        for (i, j), want in ref.items():
            scale = math.sqrt(max_abs(seq.norms[i]) * max_abs(seq.norms[j]))
            assert max_abs(seq.pairing(i, j) - want) <= 1e-30 * scale, (i, j)

    @pytest.mark.parametrize("p", [
        WeightParams(2, (0.6 + 0.8j,), 2.0),
        WeightParams(3, (0.8 - 0.3j, -1.2), 0.25),
        WeightParams(4, (0.7 + 0.2j, 1.3, -0.5j), 0.6),
        WeightParams(5, (1.0, 0.5, 1.2j, -0.8 + 0.4j), 4.0),
    ])
    def test_entries_off_the_parity_classes_are_exact_zeros(self, p):
        top = 8
        seq = monic_sequence(p, top)
        idx = np.arange(p.size)
        odd = (idx[:, None] + idx) % 2 == 1
        for k, poly in enumerate(seq.polys):
            for l, c in enumerate(poly.coeffs):
                # W(-t) = S W(t) S: coefficient l of P_k lives where k + l + a + r is even
                off = odd if (k + l) % 2 == 0 else ~odd
                assert np.all(c[off] == 0)
        for i in range(top + 1):
            for j in range(top + 1):
                pair = seq.pairing(i, j)
                off = odd if (i + j) % 2 == 0 else ~odd
                for part in (pair.real[off], pair.imag[off]):
                    assert np.all(part == 0) and not np.any(np.signbit(part)), (i, j)

    def test_cached_rows_hold_only_their_class(self):
        p = WeightParams(4, (0.9 - 0.4j, 1.2, 0.3 + 0.8j), 1.6)  # cold: params unused elsewhere
        top = 6
        fam = monic_sequence(p, top)._family
        for k in range(top + 1):
            classes = fam._class_rows(k)
            assert len(classes) == 2
            for c, y in enumerate(classes):
                # rows a with (k + a) % 2 == c, real over imaginary parts, on the
                # columns (power l <= k, column r) with (l + r) % 2 == c
                width = sum((l + r) % 2 == c for l in range(k + 1) for r in range(4))
                assert y.shape == (2 * 2, width), (k, c)
                assert width < (k + 1) * 4


def _full_chol_upper(a: np.ndarray) -> np.ndarray:
    n = len(a)
    u = np.zeros((n, n), dtype=object)
    for j in range(n - 1, -1, -1):
        d = a[j, j] - sum(u[j, k] * u[j, k] for k in range(j + 1, n))
        if d <= 0:
            raise ArithmeticError("matrix is not positive definite")
        u[j, j] = d.sqrt()
        for i in range(j):
            s = a[i, j] - sum(u[i, k] * u[j, k] for k in range(j + 1, n))
            u[i, j] = s / u[j, j]
    return u


def _full_inv_upper(u: np.ndarray) -> np.ndarray:
    n = len(u)
    out = np.zeros((n, n), dtype=object)
    for j in range(n):
        out[j, j] = 1 / u[j, j]
        for i in range(j - 1, -1, -1):
            s = sum(u[i, k] * out[k, j] for k in range(i + 1, j + 1))
            out[i, j] = -s / u[i, i]
    return out


def _decimal_outers(p: WeightParams) -> list[np.ndarray]:
    """``column_outers`` of the factor ``exp(A t)`` for ``|a|`` at 51 digits,
    its series summed as the family's own."""
    with decimal.localcontext(_mp._CONTEXT):
        n, b = p.size, decimal.Decimal(p.b)
        shift = np.diag(np.array([_mp._polar(v)[0] for v in p.a], dtype=object), 1)
        nil = odd_series(shift, [alpha_coeff(n, b, j) for j in range(n // 2)])
        exp_coeffs = [np.identity(n, dtype=object)]
        for k in range(1, n):
            exp_coeffs.append(exp_coeffs[-1] @ nil / k)
        return column_outers(exp_coeffs)


def _full_product_build(p: WeightParams, top: int) -> dict:
    """The 51-digit build up to degree ``top`` as it was before the parity
    split, every product on full matrices: moments summed term by term, rows
    ``V_l = sum_k C_k S_{k+l}`` of full block products, the full Cholesky
    factor and triangular inverse, and the full recurrence update. The
    reference for the parity-blocked build, keeping every degree's decimal
    state; ``premise`` lists each operand of a product with its parity."""
    fam = _mp._MpFamily(p)  # for its Gaussian integrals and conversions only
    n, zero = p.size, np.zeros((p.size, p.size), dtype=object)
    out = {key: [] for key in ("moments", "polys", "norms", "deltas", "inverses", "bhat",
                               "chat", "views", "premise")}
    out["stop"], premise, outers = None, out["premise"], _decimal_outers(p)

    def moment(m):
        while len(out["moments"]) <= m:
            k, acc = len(out["moments"]), zero
            for c, outer in enumerate(outers):
                for d, o in enumerate(outer):
                    if (d + k) % 2 == 0:
                        acc = acc + o * fam._gauss_moment(d + k, c)
            out["moments"].append(acc)
            premise.append((k, acc))
        return out["moments"][m]

    with decimal.localcontext(_mp._CONTEXT):
        for k in range(top + 1):
            nxt = [np.identity(n, dtype=object)]
            if k:
                nxt = [zero] + out["polys"][k - 1]
                for j, c in enumerate(out["polys"][k - 1]):
                    nxt[j] = nxt[j] - out["bhat"][k - 1] @ c
            if k > 1:
                for j, c in enumerate(out["polys"][k - 2]):
                    nxt[j] = nxt[j] - out["chat"][k - 1] @ c
            row = [sum(c @ moment(j + l) for j, c in enumerate(nxt)) for l in range(k + 2)]
            norm = sum(row[l] @ c.T for l, c in enumerate(nxt))
            try:
                chol = _full_chol_upper(norm)
            except ArithmeticError as exc:
                out["stop"] = f"norm positive definiteness lost at degree {k}: {exc}"
                break
            delta = _full_inv_upper(chol)
            inv = delta.T @ delta
            chat = norm @ (out["deltas"][k - 1].T @ out["deltas"][k - 1]) if k else zero
            shifted = sum(row[l + 1] @ c.T for l, c in enumerate(nxt))
            bhat = shifted @ inv
            a = out["deltas"][k - 1] @ chol if k else zero
            for key, x in [("polys", nxt), ("norms", norm), ("deltas", delta),
                           ("inverses", inv), ("bhat", bhat), ("chat", chat)]:
                out[key].append(x)
            out["views"].append([fam._complex(c).tobytes() for c in nxt] + [
                fam._complex(x).tobytes()
                for x in (norm, bhat, chat, delta, a, delta @ bhat @ chol)])
            premise += [(k + l, c) for l, c in enumerate(nxt)]
            premise += [(k + l, v) for l, v in enumerate(row)]
            premise += [(0, x) for x in (norm, chol, delta, inv, chat)]
            premise += [(1, shifted), (1, bhat), (1, delta @ bhat)]
    return out


class TestParityBlockedBuild:
    """The 51-digit build multiplies only the nonzero parity blocks; every
    value must be the full products' to the last digit."""

    @pytest.mark.parametrize("p, top", [
        (WeightParams(2, (-0.7,), 2.0), 16),
        (WeightParams(2, (0.6 + 0.8j,), 0.25), 16),
        (WeightParams(2, (1.0,), 1e6), 12),  # truncated: degree 10 fails
        (WeightParams(3, (1.0, 1.0), 4.0), 12),
        (WeightParams(3, (0.8 - 0.3j, -1.2), 0.25), 12),
        (WeightParams(4, (1.0, 1.0, 1.0), 4.0), 10),
        (WeightParams(4, (0.7 + 0.2j, 1.3, -0.5j), 0.6), 10),
        (WeightParams(5, (1.2, 0.6, 0.9, 1.1), 2.0), 8),
        (WeightParams(5, (1.0, 0.5, 1.2j, -0.8 + 0.4j), 4.0), 8),
        (WeightParams(6, (1.0,) * 5, 3.0), 6),
        (WeightParams(6, (0.9 - 0.2j, 1.1, -0.4j, 0.7, 1.3 + 0.1j), 1.5), 6),
    ])
    def test_matches_the_full_product_build(self, p, top, monkeypatch):
        # the family keeps one degree's decimal state at a time: record it
        # as each degree is added
        states = []
        append = _mp._MpFamily._append

        def recorded(fam, coeffs):
            append(fam, coeffs)
            states.append({"polys": fam._polys[-1], "bhat": fam._bhat, "chat": fam._chat,
                           "deltas": fam._delta, "inverses": fam._norm_inv})

        monkeypatch.setattr(_mp._MpFamily, "_append", recorded)
        fam = _mp._MpFamily(p)
        fam.extend(top)
        ref = _full_product_build(p, top)
        idx = np.arange(p.size)
        for q, x in ref["premise"]:
            # each entry the blocked build skips is an exact zero here
            assert np.all(x[(idx[:, None] + idx + q) % 2 == 1] == 0)
        assert fam.top == len(ref["polys"]) - 1 and fam.stop == ref["stop"]
        assert (fam.stop is None) == (p.b < 1e6)
        for m, want in enumerate(ref["moments"]):
            assert np.all(fam.moment(m) == want), m
        assert len(states) == len(ref["polys"])
        for k, state in enumerate(states):
            for key, got in state.items():
                assert np.all(got == np.array(ref[key][k])), (key, k)
        # what stays: the two last polynomials and the last degree's state
        assert [id(c) for c in fam._polys] == [id(s["polys"]) for s in states[-2:]]
        assert all(getattr(fam, name) is states[-1][key] for name, key in [
            ("_bhat", "bhat"), ("_chat", "chat"), ("_delta", "deltas"), ("_norm_inv", "inverses")])
        assert _view_bytes(fam._views) == ref["views"]


def _view_bytes(views) -> list[list[bytes]]:
    """The bytes of every complex128 table of each degree's ``_Views``."""
    return [[c.tobytes() for c in v.poly.coeffs] + [x.tobytes() for x in v[1:]] for v in views]


class TestResumedBuild:
    """A family keeps only the recurrence state of its next degree; a build
    resumed from it must equal a build in one go."""

    @pytest.mark.parametrize("p, top", [
        (WeightParams(2, (0.6 + 0.8j,), 2.0), 16),
        (WeightParams(2, (1.0,), 1e6), 12),  # truncated: degree 10 fails
        (WeightParams(3, (0.8 - 0.3j, -1.2), 0.25), 12),
        (WeightParams(4, (0.7 + 0.2j, 1.3, -0.5j), 0.6), 10),
        (WeightParams(5, (1.0, 0.5, 1.2j, -0.8 + 0.4j), 4.0), 9),
        (WeightParams(6, (0.9 - 0.2j, 1.1, -0.4j, 0.7, 1.3 + 0.1j), 1.5), 9),
    ])
    def test_resumed_build_equals_one_shot(self, p, top, tried_degrees):
        resumed = _mp._MpFamily(p)
        for nmax in (3, 8, top, top):
            resumed.extend(nmax)
        # each degree tried once, the failing one too
        assert tried_degrees == list(range(resumed.top + 1 + (resumed.stop is not None)))
        one_shot = _mp._MpFamily(p)
        one_shot.extend(top)
        assert (resumed.top, resumed.stop) == (one_shot.top, one_shot.stop)
        assert resumed.top == (9 if p.b == 1e6 else top)
        assert _view_bytes(resumed._views) == _view_bytes(one_shot._views)

    @pytest.mark.parametrize("p, top", [
        (WeightParams(2, (0.6 + 0.8j,), 2.0), 20),
        (WeightParams(4, (0.7 + 0.2j, 1.3, -0.5j), 0.6), 10),
    ])
    def test_decimal_state_at_most_doubles_with_the_degree(self, p, top):
        # moments and their strips grow with the degree; the recurrence
        # state does not, so twice the degree keeps at most twice the numbers
        counts = []
        for nmax in (top, 2 * top):
            fam = _mp._MpFamily(p)
            fam.extend(nmax)
            counts.append(reachable_decimals(fam))
        assert counts[1] <= 2 * counts[0], counts


class TestThreads:
    def test_threads_extending_one_cold_family_match_serial(self):
        p = WeightParams(4, (0.65 - 0.45j, 1.25, 0.35j), 2.45)  # cold: params unused elsewhere
        fam, top = _mp._MpFamily(p), 12
        orders = [(3, 8, top), (top, 3, 8), (8, top), (5, top, 10)]
        seen: dict[int, list] = {}
        start = threading.Barrier(4)

        def worker(k: int):
            start.wait(timeout=30)
            seen[k] = []
            for nmax in orders[k]:
                fam.extend(nmax)
                seen[k].append(_view_bytes(fam._views[:nmax + 1]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        serial = _mp._MpFamily(p)
        serial.extend(top)
        want = _view_bytes(serial._views)
        assert fam.top == top and _view_bytes(fam._views) == want
        for k, nmaxes in enumerate(orders):
            assert seen[k] == [want[:nmax + 1] for nmax in nmaxes], k

    def test_shared_cold_build_matches_serial(self):
        p = WeightParams(3, (0.45 + 0.65j, -1.15 + 0.2j), 1.85)  # cold: params unused elsewhere
        nmax = 10

        def run(k: int):
            first = nmax - 3 * k

            def tables():
                return _tables(p, nmax)

            def shorter():
                return _tables(p, first)

            def pairings():
                seq = monic_sequence(p, nmax)
                # each thread asks for the float rows in another order
                return [seq.pairing(i, j)
                        for i in [first] + list(range(nmax + 1)) for j in range(i + 1)]

            # each thread reaches the cold family through another call first
            steps = [tables, shorter, pairings]
            steps = steps[k % 3:] + steps[:k % 3]
            out = {step.__name__: step() for step in steps}
            return [m.tobytes() for name in ("tables", "shorter", "pairings")
                    for m in out[name]]

        results: dict[int, list[bytes]] = {}
        start = threading.Barrier(4)

        def worker(k: int):
            start.wait(timeout=30)
            results[k] = run(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        _mp._family.cache_clear()
        serial = [run(k) for k in range(4)]
        for k in range(4):
            assert results[k] == serial[k]

    def test_shared_truncated_build_stops_once(self, tried_degrees):
        p = WeightParams(2, (1.0,), 1e6)
        results: dict[int, tuple] = {}
        start = threading.Barrier(4)

        def worker(k: int):
            start.wait(timeout=30)
            seq = monic_sequence(p, 11 + k)
            results[k] = (seq.truncated_at, seq.truncation_reason,
                          [c.tobytes() for poly in seq.polys for c in poly.coeffs])

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        assert all(results[k] == results[0] for k in range(4))
        assert results[0][0] == 10 and tried_degrees.count(10) == 1
