"""Closed forms for the 2x2 family: Rodrigues construction, explicit
Hermite-based polynomials, normalization constants, all three recurrence
gauges, squared norms, and the recurrence-coefficient asymptotics.

Everything in this module requires ``size == 2``; the general-N story is
handled numerically by :mod:`matorth.orthogonal`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .gausserf import ERF, GAUSS, GaussErfMatrix, atom
from .linalg import MatrixPolynomial, max_abs
from .operator import build_operator, eigenvalue_matrix
from .orthogonal import MonicSequence, RecurrenceTable, orthonormalize_sequence
from .weights import WeightParams, weight_inverse_symbolic_2x2

__all__ = [
    "AsymptoticReport",
    "ClosedRecurrence",
    "NormalizationFactors",
    "asymptotic_report",
    "branch_limit",
    "closed_norms",
    "explicit_polynomial",
    "hermite_coefficients",
    "hermite_value",
    "normalization",
    "normalized_recurrence_from_moments",
    "orthonormal_recurrence",
    "pde_coefficients",
    "recurrence_closed_forms",
    "rodrigues_kernel",
    "rodrigues_pde_residual",
    "rodrigues_polynomial",
]

_SQRT_PI = math.sqrt(math.pi)


def _require_2x2(p: WeightParams):
    if p.size != 2:
        raise ValueError("closed forms exist only for size 2")


def hermite_value(n: int, x):
    """Physicists' Hermite polynomial by forward recurrence (stable for the
    moderate degrees used here; refuses n > 200)."""
    if n < 0 or n > 200:
        raise ValueError("need 0 <= n <= 200")
    h_prev = np.ones_like(np.asarray(x, dtype=float))
    if n == 0:
        return h_prev if np.ndim(x) else float(h_prev)
    h = 2.0 * np.asarray(x, dtype=float)
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if np.ndim(x) else float(h)


@lru_cache(maxsize=None)
def _hermite_coeff_tuple(n: int) -> tuple[float, ...]:
    if n == 0:
        return (1.0,)
    if n == 1:
        return (0.0, 2.0)
    prev2, prev1 = _hermite_coeff_tuple(n - 2), _hermite_coeff_tuple(n - 1)
    out = [0.0] * (n + 1)
    for k, v in enumerate(prev1):
        out[k + 1] += 2.0 * v
    for k, v in enumerate(prev2):
        out[k] -= 2.0 * (n - 1) * v
    return tuple(out)


def hermite_coefficients(n: int) -> np.ndarray:
    """Monomial coefficients of the degree-n Hermite polynomial."""
    return np.array(_hermite_coeff_tuple(n))


def _scaled_hermite(n: int, b: float) -> np.ndarray:
    """Coefficients of H_n(sqrt(b) t)."""
    return hermite_coefficients(n) * b ** (np.arange(n + 1) / 2.0)


def gamma_value(p: WeightParams, n: int) -> float:
    """The scalar normalization gamma_n = 2 + |a|^2 b^(n - 1/2) n."""
    _require_2x2(p)
    if n == 0:
        return 2.0
    return 2.0 + abs(p.a[0]) ** 2 * p.b ** (n - 0.5) * n


def _log_gamma_value(p: WeightParams, n: int) -> float:
    if n == 0:
        return math.log(2.0)
    t = 2.0 * math.log(abs(p.a[0])) + (n - 0.5) * math.log(p.b) + math.log(n)
    return np.logaddexp(math.log(2.0), t)


def gamma_ratio(p: WeightParams, n: int) -> float:
    """gamma_{n+1} / gamma_n, stable for any n and b (no overflow)."""
    _require_2x2(p)
    aa = abs(p.a[0]) ** 2
    b = p.b
    if b <= 1.0:
        return ((2.0 + aa * b ** (n + 0.5) * (n + 1))
                / (2.0 + aa * b ** (n - 0.5) * n))
    scale = b ** -(n - 0.5)  # underflows benignly for large n
    return (2.0 * scale + aa * b * (n + 1)) / (2.0 * scale + aa * n)


@dataclass(frozen=True)
class NormalizationFactors:
    """Per-degree scalars and diagonal matrices tying the three gauges.

    ``leading`` is the leading coefficient of the Rodrigues-normalized
    polynomial, ``delta`` orthonormalizes the monic one, and
    ``gauge = leading @ delta**-1`` maps orthonormal to Rodrigues-normalized.
    """

    n: int
    gamma: float
    leading: np.ndarray
    delta: np.ndarray
    gauge: np.ndarray


def normalization(p: WeightParams, n: int) -> NormalizationFactors:
    _require_2x2(p)
    g = gamma_value(p, n)
    leading = 2.0 ** n * np.diag([1.0, g]).astype(complex)
    log_pref = 0.5 * (n * math.log(2.0) - 0.5 * math.log(math.pi)
                      - math.lgamma(n + 1))
    d1 = math.exp(log_pref + 0.5 * (math.log(2.0) + (n + 0.5) * math.log(p.b)
                                    - _log_gamma_value(p, n + 1)))
    d2 = math.exp(log_pref + 0.5 * (_log_gamma_value(p, n) - math.log(2.0)))
    delta = np.diag([d1, d2]).astype(complex)
    gauge = np.diag([2.0 ** n / d1, 2.0 ** n * g / d2]).astype(complex)
    return NormalizationFactors(n, g, leading, delta, gauge)


def explicit_polynomial(p: WeightParams, n: int) -> MatrixPolynomial:
    """Degree-n member of the Rodrigues-normalized sequence, written out
    through scaled Hermite coefficient expansions (degree 0 is diag(1, 2))."""
    _require_2x2(p)
    if n == 0:
        return MatrixPolynomial.constant(np.diag([1.0, 2.0]))
    a, b = p.a[0], p.b
    aa = abs(a) ** 2
    hn_b = _scaled_hermite(n, b)
    hn1 = hermite_coefficients(n + 1)
    hnm1_b = _scaled_hermite(n - 1, b)
    hn = hermite_coefficients(n)
    coeffs = [np.zeros((2, 2), dtype=complex) for _ in range(n + 2)]
    pref = b ** (-n / 2.0)
    for k, v in enumerate(hn_b):
        coeffs[k][0, 0] += pref * v
        coeffs[k + 1][0, 1] += -a * pref * v
    for k, v in enumerate(hn1):
        coeffs[k][0, 1] += 0.5 * a * v
    pref = 2.0 * b ** (n / 2.0) * n
    for k, v in enumerate(hnm1_b):
        coeffs[k][1, 0] += -np.conj(a) * pref * v
        coeffs[k + 1][1, 1] += aa * pref * v
    for k, v in enumerate(hn):
        coeffs[k][1, 1] += 2.0 * v
    # the top (1,2) contributions cancel exactly; drop the residue
    coeffs[n + 1][0, 1] = 0.0
    return MatrixPolynomial(coeffs)


def rodrigues_kernel(p: WeightParams, n: int) -> GaussErfMatrix:
    """The function matrix whose n-th derivative times the inverse weight
    produces the degree-n polynomial. Lives in the Gaussian-erf algebra."""
    _require_2x2(p)
    if n < 1:
        raise ValueError("the Rodrigues kernel is defined for n >= 1")
    a, b = p.a[0], p.b
    aa = abs(a) ** 2
    sign = (-1.0) ** n
    z = np.zeros((2, 2), dtype=complex)
    terms = []
    m = z.copy(); m[0, 0] = sign * b ** float(-n)
    terms.append((atom(0, GAUSS, b), m))
    m = z.copy(); m[0, 0] = sign * aa * n / 2.0
    m[1, 1] = sign * 2.0
    terms.append((atom(0, GAUSS, 1.0), m))
    m = z.copy(); m[0, 0] = sign * aa
    terms.append((atom(2, GAUSS, 1.0), m))
    m = z.copy(); m[0, 1] = sign * a; m[1, 0] = sign * np.conj(a) * 2.0
    terms.append((atom(1, GAUSS, 1.0), m))
    m = z.copy(); m[1, 0] = sign * np.conj(a) * _SQRT_PI * n
    terms.append((atom(0, ERF, b), m))
    m = z.copy(); m[1, 0] = -sign * np.conj(a) * _SQRT_PI * n
    terms.append((atom(0, ERF, 1.0), m))
    return GaussErfMatrix(2, terms)


def rodrigues_polynomial(p: WeightParams, n: int) -> MatrixPolynomial:
    """Differentiate the Rodrigues kernel n times and multiply by the inverse
    weight, symbolically. Every transcendental atom must cancel; survivors
    beyond 1e-9 (relative) raise, as does a wrong resulting degree."""
    _require_2x2(p)
    if n < 1:
        raise ValueError("rodrigues_polynomial is defined for n >= 1")
    product = rodrigues_kernel(p, n).derivative(n) @ weight_inverse_symbolic_2x2(p)
    poly = product.to_polynomial()
    if poly.degree != n:
        raise ArithmeticError(
            f"Rodrigues product has degree {poly.degree}, expected {n}")
    return poly


def _scaled_a_diagonal(p: WeightParams, n: int) -> list[float]:
    """The diagonal of the orthonormal ``A_n / sqrt(n)``, n >= 1."""
    return [math.sqrt(gamma_ratio(p, n) / (2.0 * p.b)),
            math.sqrt(1.0 / (2.0 * gamma_ratio(p, n - 1)))]


def orthonormal_recurrence(p: WeightParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form recurrence pair (A_n, B_n) of the orthonormal sequence.

    A_n (n >= 1) is diagonal positive, B_n (n >= 0) Hermitian with zero
    diagonal. Computed through gamma ratios and logs so large n stays finite.
    """
    _require_2x2(p)
    a, b = p.a[0], p.b
    if n >= 1:
        a_mat = math.sqrt(n) * np.diag(_scaled_a_diagonal(p, n)).astype(complex)
    else:
        a_mat = np.zeros((2, 2), dtype=complex)
    drift = b + (b - 1.0) * n
    log_mag = ((2.0 * n - 3.0) / 4.0 * math.log(b)
               - 0.5 * (_log_gamma_value(p, n) + _log_gamma_value(p, n + 1)))
    factor = math.copysign(math.exp(log_mag + math.log(abs(drift))), drift) \
        if drift != 0.0 else 0.0
    b_mat = factor * np.array([[0.0, a], [np.conj(a), 0.0]], dtype=complex)
    return a_mat, b_mat


@dataclass(frozen=True)
class ClosedRecurrence:
    """Row-n recurrence coefficients in the monic and Rodrigues-normalized
    gauges. ``rodrigues_a`` pads with zeros at n = 0 (a row never uses it)."""

    n: int
    monic_b: np.ndarray
    monic_c: np.ndarray
    rodrigues_a: np.ndarray
    rodrigues_b: np.ndarray
    rodrigues_c: np.ndarray


def recurrence_closed_forms(p: WeightParams, n: int) -> ClosedRecurrence:
    """All closed-form recurrence data at index n, cross-checked internally
    against the gauge transport of the orthonormal coefficients."""
    _require_2x2(p)
    a, b = p.a[0], p.b
    g_n = gamma_value(p, n)
    g_np = gamma_value(p, n + 1)
    drift = b + (b - 1.0) * n
    monic_b = drift * np.array([
        [0.0, a / (2.0 * b)],
        [2.0 * np.conj(a) * b ** (n - 0.5) / (g_n * g_np), 0.0],
    ], dtype=complex)
    if n >= 1:
        g_nm = gamma_value(p, n - 1)
        monic_c = (n / (2.0 * b)) * np.diag([g_np / g_n, b * g_nm / g_n]).astype(complex)
        rodrigues_a = 0.5 * np.diag([1.0, g_nm / g_n]).astype(complex)
        rodrigues_c = float(n) * np.diag([g_np / (b * g_n), 1.0]).astype(complex)
    else:
        monic_c = np.zeros((2, 2), dtype=complex)
        rodrigues_a = np.zeros((2, 2), dtype=complex)
        rodrigues_c = np.zeros((2, 2), dtype=complex)
    rodrigues_b = (-n + (n + 1) * b) * np.array([
        [0.0, a / (2.0 * b * g_n)],
        [2.0 * np.conj(a) * b ** (n - 0.5) / g_np, 0.0],
    ], dtype=complex)

    # gauge transport consistency: the same data through Gamma Delta^{-1}
    tilde_a, tilde_b, tilde_c = _to_rodrigues(p, n, *orthonormal_recurrence(p, n))
    _consistent("rodrigues_b", tilde_b, rodrigues_b)
    _consistent("rodrigues_a", tilde_a, rodrigues_a)
    _consistent("rodrigues_c", tilde_c, rodrigues_c)
    return ClosedRecurrence(n, monic_b, monic_c, rodrigues_a, rodrigues_b,
                            rodrigues_c)


def _to_rodrigues(p: WeightParams, n: int, a: np.ndarray, b: np.ndarray) -> tuple:
    """Row n of the orthonormal recurrence in the Rodrigues-normalized gauge:
    ``G_{n-1} A_n G_n^-1``, ``G_n B_n G_n^-1`` and ``G_n A_n* G_{n-1}^-1``
    with ``G`` the gauge of ``normalization``, the first and last zero pads
    at n = 0 (``+ 0.0``: conjugating a zero imaginary part gives -0.0)."""
    g = normalization(p, n).gauge
    inv = np.linalg.inv(g)
    if not n:
        return np.zeros((2, 2), dtype=complex), g @ b @ inv, np.zeros((2, 2), dtype=complex)
    g_prev = normalization(p, n - 1).gauge
    return g_prev @ a @ inv, g @ b @ inv, g @ (a.conj().T + 0.0) @ np.linalg.inv(g_prev)


def _consistent(name: str, lhs: np.ndarray, rhs: np.ndarray):
    scale = max(1.0, max_abs(lhs), max_abs(rhs))
    if max_abs(lhs - rhs) > 1e-8 * scale:
        raise ArithmeticError(f"gauge consistency failed for {name}")


def closed_norms(p: WeightParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms (monic gauge, Rodrigues gauge) as closed forms; computed
    in log space so factorial growth cannot overflow prematurely."""
    _require_2x2(p)
    b = p.b
    log_pref = 0.5 * math.log(math.pi) + math.lgamma(n + 1) - n * math.log(2.0)
    monic = np.diag([
        math.exp(log_pref + _log_gamma_value(p, n + 1)
                 - math.log(2.0) - (n + 0.5) * math.log(b)),
        math.exp(log_pref + math.log(2.0) - _log_gamma_value(p, n)),
    ]).astype(complex)
    log_pref = n * math.log(2.0) + 0.5 * math.log(math.pi) + math.lgamma(n + 1)
    rodrigues = np.diag([
        math.exp(log_pref + _log_gamma_value(p, n + 1)
                 - math.log(2.0) - (n + 0.5) * math.log(b)),
        math.exp(log_pref + math.log(2.0) + _log_gamma_value(p, n)),
    ]).astype(complex)
    return monic, rodrigues


def branch_limit(b: float) -> np.ndarray:
    """Limit of A_n / sqrt(n): the two diagonal entries differ by sqrt(b),
    so the limit is not a scalar multiple of the identity."""
    if b <= 0:
        raise ValueError("b must be positive")
    if b == 1.0:
        raise ValueError("no branch limit is defined at b = 1")
    if b > 1.0:
        return np.diag([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0 * b)]).astype(complex)
    return np.diag([1.0 / math.sqrt(2.0 * b), 1.0 / math.sqrt(2.0)]).astype(complex)


@dataclass(frozen=True)
class AsymptoticReport:
    """Branch limit plus the error sequence ||A_n / sqrt(n) - limit||.

    ``errors[k]`` is the spectral-norm error at n = k + 1.
    """

    limit: np.ndarray
    errors: np.ndarray

    def error_at(self, n: int) -> float:
        if not 1 <= n <= len(self.errors):
            raise ValueError(f"n must be in 1..{len(self.errors)}, got {n}")
        return float(self.errors[n - 1])


def asymptotic_report(p: WeightParams, horizon: int = 200) -> AsymptoticReport:
    _require_2x2(p)
    if horizon < 1:
        raise ValueError(f"the horizon must be >= 1, got {horizon}")
    limit = branch_limit(p.b)
    l1, l2 = float(limit[0, 0].real), float(limit[1, 1].real)
    errors = np.empty(horizon)
    for n in range(1, horizon + 1):
        d1, d2 = _scaled_a_diagonal(p, n)
        errors[n - 1] = max(abs(d1 - l1), abs(d2 - l2))
    return AsymptoticReport(limit, errors)


def pde_coefficients(p: WeightParams, n: int) -> tuple[MatrixPolynomial, MatrixPolynomial, MatrixPolynomial]:
    """Coefficients of the second-order equation the Rodrigues kernel solves,
    instantiated from the adjoints of the operator coefficients."""
    op = build_operator(p)
    f2s, f1s, f0s = op.f2.conj_t(), op.f1.conj_t(), op.f0.conj_t()
    m2 = f2s
    m1 = f1s + float(n) * f2s.derivative()
    m0 = f0s + float(n) * f1s.derivative() + float(math.comb(n, 2)) * f2s.derivative(2)
    return m2, m1, m0


def rodrigues_pde_residual(p: WeightParams, n: int, ts: Sequence[float]) -> float:
    """Max pointwise residual of the kernel equation
    ``(R m2)'' - (R m1)' + R m0 = Lambda_n R`` over the grid, with every
    derivative taken exactly in the function algebra and the whole grid
    evaluated at once."""
    _require_2x2(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    kern = rodrigues_kernel(p, n)
    m2, m1, m0 = pde_coefficients(p, n)
    lam = eigenvalue_matrix(p, n)
    expr = (kern.poly_mul(m2).derivative(2)
            - kern.poly_mul(m1).derivative()
            + kern.poly_mul(m0)
            - kern.lmul(lam))
    return max_abs(expr(np.asarray(ts, dtype=float)))


def normalized_recurrence_from_moments(p: WeightParams, seq: MonicSequence) -> RecurrenceTable:
    """Moment-derived recurrence in the Rodrigues-normalized gauge, obtained
    by transporting the orthonormal table with the closed-form gauge factors."""
    _require_2x2(p)
    orth, _ = orthonormalize_sequence(seq)
    # the top row has no B_n: a zero stands in and its transport is dropped
    rows = zip(orth.A, orth.B + (np.zeros((2, 2), dtype=complex),))
    a, b, c = zip(*(_to_rodrigues(p, n, *row) for n, row in enumerate(rows)))
    return RecurrenceTable("rodrigues-normalized", a, b[:-1], c)
