"""Second-order differential operator attached to the weight family and the
machinery verifying that it is symmetric.

The operator acts on matrix polynomials by ``P -> P'' f2 + P' f1 + P f0``
(coefficients multiply from the right); its eigenvalue on the degree-n monic
orthogonal polynomial is obtained by matching the top coefficient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Sequence

import numpy as np

from .gausserf import combine, derivative_stack, evaluate
from .linalg import MatrixPolynomial, ad_power, convolve, max_abs, worst
from .weights import CACHE_SIZE, WeightParams, build_structure, weight_eval, weight_symbolic

__all__ = [
    "ChiXiReport",
    "DifferentialOperator",
    "SymmetryReport",
    "apply_operator",
    "build_operator",
    "check_chi_xi",
    "check_symmetry_equations",
    "eigenvalue_matrix",
]

# bound on the power-10 boundary sample of check_symmetry_equations, below
# which the boundary terms of the symmetry integration by parts count as gone
BOUNDARY_DECAY_TOL = 1e-6


@dataclass(frozen=True)
class DifferentialOperator:
    """Coefficient triple (f2, f1, f0) of degrees at most 2, 1 and 0."""

    f2: MatrixPolynomial
    f1: MatrixPolynomial
    f0: MatrixPolynomial

    def __post_init__(self):
        if not (self.f2.degree <= 2 and self.f1.degree <= 1 and self.f0.degree <= 0):
            raise ValueError("degree bounds (2, 1, 0) violated")
        if not (self.f2.dim == self.f1.dim == self.f0.dim):
            raise ValueError("coefficient dimensions disagree")

    @property
    def dim(self) -> int:
        return self.f2.dim


@lru_cache(maxsize=CACHE_SIZE)
def build_operator(p: WeightParams) -> DifferentialOperator:
    """Assemble the symmetric operator's coefficients from the structure."""
    s = build_structure(p)
    n, b = p.size, p.b
    acal, psi, number, bracket = s.nilpotent, s.diag_scale, s.number, s.bracket
    ident = np.eye(n, dtype=complex)
    f2 = MatrixPolynomial([psi, (b - 1.0) / (n - 1) * bracket])
    f1 = MatrixPolynomial([2.0 * acal @ psi,
                           2.0 * (-b * ident + (b - 1.0) / (n - 1) * acal @ bracket)])
    f0 = MatrixPolynomial([2.0 * b * number + acal @ acal @ psi])
    return DifferentialOperator(f2, f1, f0)


def _apply_stack(op: DifferentialOperator, coeffs: np.ndarray) -> np.ndarray:
    """``P'' f2 + P' f1 + P f0`` for each zero-padded polynomial of a (..., D, N, N)
    tensor, with the bits of its own sum: the terms add in the same order, and
    the padding adds only zeros to sums that are never -0.0."""
    k = np.arange(coeffs.shape[-3], dtype=float)[:, None, None]  # the derivative factors
    out = np.zeros(coeffs.shape, dtype=complex)
    for term in (convolve((k * (k - 1))[2:] * coeffs[..., 2:, :, :], op.f2.coeffs),
                 convolve(k[1:] * coeffs[..., 1:, :, :], op.f1.coeffs),
                 convolve(coeffs, op.f0.coeffs)):
        out[..., :term.shape[-3], :, :] += term
    return out


def apply_operator(op: DifferentialOperator, poly: MatrixPolynomial) -> MatrixPolynomial:
    """``P'' f2 + P' f1 + P f0`` as a matrix polynomial."""
    if poly.dim != op.dim:
        raise ValueError("dimension mismatch")
    return MatrixPolynomial._of(_apply_stack(op, poly.coeffs))


def eigenvalue_matrix(p: WeightParams, n: int) -> np.ndarray:
    """Eigenvalue of the operator on the degree-n monic polynomial.

    Matching the t**n coefficient of ``P'' f2 + P' f1 + P f0 = Lambda P``
    gives ``n(n-1) f2[2] + n f1[1] + f0[0]``, with ``fk[j]`` the t**j
    coefficient of ``fk``; for size 2 it collapses to the real diagonal
    ``diag(-2bn, -2b(n-1))``.
    """
    if index(n) < 0:  # and TypeError for a degree that is not an integer
        raise ValueError("n must be >= 0")
    op = build_operator(p)
    return n * (n - 1) * op.f2.coeff(2) + n * op.f1.coeff(1) + op.f0.coeff(0)


@dataclass(frozen=True)
class SymmetryReport:
    """Pointwise residuals of the three weight equations plus decay check."""

    residual_ccp: float
    residual_first_order: float
    residual_second_order: float
    boundary_value: float
    boundary_decay_ok: bool

    @property
    def max_residual(self) -> float:
        return worst((self.residual_ccp, self.residual_first_order,
                      self.residual_second_order))


def _grid(ts: Sequence[float]) -> np.ndarray:
    """The grid as a float array; ValueError unless a non-empty 1-D sequence."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or not ts.size:
        raise ValueError(f"the grid must be a non-empty 1-D sequence, got shape {ts.shape}")
    return ts


def check_symmetry_equations(p: WeightParams, ts: Sequence[float]) -> SymmetryReport:
    """Verify the weight equations making the operator symmetric.

    Derivatives of products like (f2 W)' are taken exactly in the
    Gaussian-polynomial function algebra, never by finite differences, and
    the residuals are evaluated on the whole grid ``ts`` at once, all on the
    tensor of ``weight_symbolic(p)``, whose keys every product keeps. The decay
    condition is sampled at |t| = 8 / sqrt(min(1, b)) (scaled so the slowest
    Gaussian in W has decayed equally far for every b) with power 10 and
    threshold ``BOUNDARY_DECAY_TOL``.
    """
    ts = _grid(ts)
    op = build_operator(p)
    w = weight_symbolic(p)
    keys, c = w.keys, w.coeffs

    def peak(f, at=ts):
        return max_abs(evaluate(keys, f, at))

    def deriv(v):
        return derivative_stack(keys, v)[1]

    # each equation is evaluated once formed, so few tensors are alive at once
    f2w = convolve(op.f2.coeffs, c)
    r_ccp = peak(f2w - convolve(c, op.f2.conj_t().coeffs))
    f1w, df2w = convolve(op.f1.coeffs, c), deriv(f2w)
    r_first = peak(combine(combine(2.0 * df2w, f1w), convolve(c, op.f1.conj_t().coeffs)))
    eq_second = combine(combine(deriv(df2w), deriv(f1w)), convolve(op.f0.coeffs, c), np.add)
    r_second = peak(combine(eq_second, convolve(c, op.f0.conj_t().coeffs)))

    tb = 8.0 / math.sqrt(min(1.0, p.b))
    edges = np.array([-tb, tb])
    bval = worst((peak(f2w, edges), peak(combine(df2w, f1w), edges))) * tb ** 10
    return SymmetryReport(r_ccp, r_first, r_second, bval, bval < BOUNDARY_DECAY_TOL)


def _first_order_factor(p: WeightParams) -> MatrixPolynomial:
    """The polynomial F with T' = F T, built from the terminating
    commutator expansion of the conjugated Gaussian diagonal."""
    s = build_structure(p)
    n = p.size
    conj = [ad_power(s.nilpotent, s.gauss_diag, k) / math.factorial(k)
            for k in range(n)]
    # F(t) = nilpotent + 2t * sum_k t^k ad^k(gauss_diag)/k!
    coeffs = [s.nilpotent] + [2.0 * c for c in conj]
    return MatrixPolynomial(coeffs)


@dataclass(frozen=True)
class ChiXiReport:
    """Hermiticity diagnostics for the second-order weight equation.

    ``chi_hermitian_residual`` is measured in the weight congruence
    ``max |M W - W M*|`` with ``M = -F f2 F - (F f2)' + f0``, which equals
    ``T (chi - chi*) T*`` and stays well scaled for every b;
    ``chi_literal_residual`` is the raw ``max |chi - chi*|``, whose
    off-diagonal rounding dust is amplified by exp((d_j - d_i) t^2) and is
    reported for reference only: ``max_residual``, which the checks judge,
    leaves it out.
    """

    chi_hermitian_residual: float
    chi_literal_residual: float
    xi_offdiagonal_residual: float
    xi_diagonal_residual: float

    @property
    def max_residual(self) -> float:
        return worst((self.chi_hermitian_residual, self.xi_offdiagonal_residual,
                      self.xi_diagonal_residual))


def check_chi_xi(p: WeightParams, ts: Sequence[float]) -> ChiXiReport:
    """Check that chi is Hermitian and xi diagonal with the expected diagonal."""
    ts = _grid(ts)
    op = build_operator(p)
    s = build_structure(p)
    n, b = p.size, p.b
    f = _first_order_factor(p)
    ff2 = f * op.f2
    m_poly = -(ff2 * f) - ff2.derivative() + op.f0
    xi_poly = s.factor_inv * m_poly * s.factor

    d = s.gauss_scales
    xi = xi_poly(ts)
    chi = xi * np.exp((ts * ts)[:, np.newaxis, np.newaxis] * (d[np.newaxis, :] - d[:, np.newaxis]))
    m_t = m_poly(ts)
    w_t = weight_eval(p, ts)[1]
    diag_target = b + (2.0 * b * ts * ts)[:, np.newaxis] * d + 2.0 * b * np.arange(n)
    off = np.ones((n, n)) - np.eye(n)
    return ChiXiReport(max_abs(m_t @ w_t - w_t @ m_t.conj().transpose(0, 2, 1)),
                       max_abs(chi - chi.conj().transpose(0, 2, 1)),
                       max_abs(xi * off),
                       max_abs(np.diagonal(xi, axis1=1, axis2=2) - diag_target))
