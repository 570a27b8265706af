"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they happen).
"""
import time

import numpy as np
import pytest

from conftest import poly_rel_dev, rel_dev
from matorth import linalg
from matorth.closed_forms import (asymptotic_report, closed_norms,
                                  explicit_polynomial, normalization,
                                  normalized_recurrence_from_moments,
                                  orthonormal_recurrence,
                                  recurrence_closed_forms,
                                  rodrigues_pde_residual, rodrigues_polynomial)
from matorth.linalg import max_abs
from matorth.operator import (apply_operator, build_operator, check_chi_xi,
                              check_symmetry_equations, eigenvalue_matrix)
from matorth.orthogonal import (monic_sequence, orthonormalize_sequence,
                                quadrature_oracle, recurrence_from_sequence)
from matorth.sampling import draw_abel_case, draw_params
from matorth.weights import (WeightParams, abel_identity_check,
                             verify_structure_identities, weight_eval,
                             weight_moment)

SEED = 20250808
GRID = tuple(np.linspace(-3.0, 3.0, 11))


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def draws():
    rng = np.random.default_rng(SEED)
    return [draw_params(rng) for _ in range(20)]


def test_criterion_1_symmetry_equations(draws):
    start = time.perf_counter()
    worst = 0.0
    for p in draws:
        rep = check_symmetry_equations(p, GRID)
        worst = linalg.worst((worst, rep.residual_ccp, rep.residual_first_order,
                              rep.residual_second_order))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    report(1, "symmetry equations", ok,
           f"20 draws, worst residual {worst:.3e} (tol 1e-9), {elapsed:.2f}s")


def test_criterion_2_structure_identities_and_binomial_sum(draws):
    worst = 0.0
    for p in draws:
        for t in (-2.0, 0.3, 1.9):
            rep = verify_structure_identities(p, t)
            assert len(rep.residuals) == 6 and not rep.skipped
            worst = linalg.worst((worst, rep.max_residual))
    rng = np.random.default_rng(SEED + 1)
    worst_abel = 0.0
    for _ in range(50):
        k, z, w = draw_abel_case(rng)
        worst_abel = linalg.worst((worst_abel, abel_identity_check(k, z, w)[2]))
    ok = worst < 1e-10 and worst_abel < 1e-12
    report(2, "structure identity suite", ok,
           f"six identities worst {worst:.3e} (tol 1e-10), "
           f"binomial sum worst {worst_abel:.3e} (tol 1e-12)")


def test_criterion_3_chi_xi(draws):
    worst_chi = worst_off = worst_diag = 0.0
    for p in draws:
        rep = check_chi_xi(p, GRID)
        worst_chi = linalg.worst((worst_chi, rep.chi_hermitian_residual))
        worst_off = linalg.worst((worst_off, rep.xi_offdiagonal_residual))
        worst_diag = linalg.worst((worst_diag, rep.xi_diagonal_residual))
    ok = linalg.worst((worst_chi, worst_off, worst_diag)) < 1e-9
    report(3, "chi Hermitian / xi diagonal", ok,
           f"chi {worst_chi:.3e}, xi off-diag {worst_off:.3e}, "
           f"xi diag {worst_diag:.3e} (tol 1e-9)")


def test_criterion_4_rodrigues_explicit_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for a, b in [(1.0, 2.0), (1.0, 4.0), (1.0 + 1.0j, 0.5), (2.0, 0.25)]:
        p = WeightParams(2, (a,), b)
        for n in range(1, 13):
            worst = linalg.worst((worst, poly_rel_dev(rodrigues_polynomial(p, n),
                                                      explicit_polynomial(p, n))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report(4, "Rodrigues/explicit equivalence", ok,
           f"4 parameter sets, n <= 12, worst coeff dev {worst:.3e} "
           f"(tol 1e-9), {elapsed:.2f}s")


def _recurrence_params():
    return [WeightParams(2, (1.0,), 2.0), WeightParams(2, (1.0 + 1.0j,), 0.5)]


def test_criterion_5_recurrence_reproduction():
    worst = 0.0
    worst_identity = 0.0
    for p in _recurrence_params():
        seq = monic_sequence(p, 16)
        monic = recurrence_from_sequence(seq)
        orth, _ = orthonormalize_sequence(seq)
        tilde = normalized_recurrence_from_moments(p, seq)
        worst_identity = linalg.worst((worst_identity, *monic.residuals))
        for n in range(1, 16):
            a_cl, b_cl = orthonormal_recurrence(p, n)
            rec = recurrence_closed_forms(p, n)
            worst = linalg.worst((worst,
                                  rel_dev(orth.A[n], a_cl), rel_dev(orth.B[n], b_cl),
                                  rel_dev(monic.B[n], rec.monic_b),
                                  rel_dev(monic.C[n], rec.monic_c),
                                  rel_dev(tilde.A[n], rec.rodrigues_a),
                                  rel_dev(tilde.B[n], rec.rodrigues_b),
                                  rel_dev(tilde.C[n], rec.rodrigues_c)))
    ok = worst < 1e-8 and worst_identity < 1e-9
    report(5, "recurrence closed forms", ok,
           f"n <= 15, worst table dev {worst:.3e} (tol 1e-8), "
           f"identity residual {worst_identity:.3e} (tol 1e-9)")


def test_criterion_6_norm_displays():
    worst = 0.0
    for p in _recurrence_params():
        seq = monic_sequence(p, 16)
        for n in range(16):
            monic_cl, rodr_cl = closed_norms(p, n)
            worst = linalg.worst((worst, rel_dev(seq.norms[n], monic_cl)))
            lead = normalization(p, n).leading
            worst = linalg.worst((worst,
                                  rel_dev(lead @ seq.norms[n] @ lead.conj().T, rodr_cl)))
    ok = worst < 1e-8
    report(6, "norm closed forms", ok,
           f"monic and Rodrigues gauges, n <= 15, worst rel dev {worst:.3e} "
           f"(tol 1e-8)")


def test_criterion_7_eigenvalue_law():
    def eig_residual(p, nmax):
        seq = monic_sequence(p, nmax)
        op = build_operator(p)
        worst = 0.0
        for n in range(len(seq.polys)):
            lam = eigenvalue_matrix(p, n)
            rhs = seq.polys[n].lmul(lam)
            worst = linalg.worst((worst, (apply_operator(op, seq.polys[n]) - rhs).max_coeff()
                                  / max(1.0, rhs.max_coeff())))
        return worst

    p2 = WeightParams(2, (1.0,), 2.0)
    worst2 = eig_residual(p2, 20)
    for n in (1, 7, 20):
        lam = eigenvalue_matrix(p2, n)
        assert max_abs(lam - np.diag([-2 * p2.b * n, -2 * p2.b * (n - 1)])) < 1e-12
    rng = np.random.default_rng(SEED + 2)
    worst_gen = 0.0
    for size in (3, 4, 5):
        p = draw_params(rng, sizes=(size, size))
        worst_gen = linalg.worst((worst_gen, eig_residual(p, 15)))
    ok = worst2 < 1e-8 and worst_gen < 1e-8
    report(7, "eigenvalue law", ok,
           f"size 2 n <= 20: {worst2:.3e}; sizes 3-5 n <= 15: {worst_gen:.3e} "
           f"(tol 1e-8)")


def test_criterion_8_asymptotics():
    details = []
    ok = True
    for b in (4.0, 0.25):
        rep = asymptotic_report(WeightParams(2, (1.0,), b), horizon=200)
        err = rep.error_at(200)
        monotone = bool(np.all(np.diff(rep.errors[19:]) <= 1e-15))
        ok = ok and err < 0.02 and monotone
        details.append(f"b={b}: err(200)={err:.3e} monotone={monotone}")
    limit = asymptotic_report(WeightParams(2, (1.0,), 4.0), horizon=1).limit
    ratio = float(limit[0, 0].real / limit[1, 1].real)
    ok = ok and ratio > 1.9
    details.append(f"diagonal split at b=4: {ratio:.3f}x (> 1.9 required)")
    report(8, "non-scalar recurrence asymptotics", ok, "; ".join(details))


def test_criterion_9_rodrigues_equation():
    p = WeightParams(2, (1.0,), 2.0)
    worst = linalg.worst(rodrigues_pde_residual(p, n, GRID) for n in range(1, 11))
    ok = worst < 1e-10
    report(9, "Rodrigues kernel equation", ok,
           f"n <= 10, worst grid residual {worst:.3e} (tol 1e-10)")


def test_criterion_10_oracle_agreement():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for size in (2, 3, 4, 5):
        p = draw_params(rng, sizes=(size, size))
        for m in range(31):
            exact = weight_moment(p, m)
            approx = quadrature_oracle(
                p, lambda t: t ** m * weight_eval(p, t)[1],
                degree_hint=m + 2 * size + 10)
            worst = linalg.worst((worst,
                                  max_abs(approx - exact) / max(1.0, max_abs(exact))))
    ok = worst < 1e-9
    report(10, "exact moments vs quadrature oracle", ok,
           f"sizes 2-5, m <= 30, worst rel dev {worst:.3e} (tol 1e-9)")
