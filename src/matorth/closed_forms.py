"""Closed forms for the 2x2 family: Rodrigues construction, explicit
Hermite-based polynomials, normalization constants, all three recurrence
gauges, squared norms, and the recurrence-coefficient asymptotics.

Everything in this module requires ``size == 2``; the general-N story is
handled numerically by :mod:`matorth.orthogonal`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import Sequence

import numpy as np

from .gausserf import (ERF, GAUSS, GaussErfMatrix, _merged, combine, derivative_stack,
                       evaluate, polynomials)
from .linalg import MatrixPolynomial, convolve, peaks
from .operator import _grid, build_operator, eigenvalue_matrix
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
    "normalization",
    "normalized_recurrence_from_moments",
    "orthonormal_recurrence",
    "recurrence_closed_forms",
    "rodrigues_pde_residual",
    "rodrigues_polynomial",
]

_SQRT_PI = math.sqrt(math.pi)
# Rodrigues kernels per product and collapse. A product pads its kernels to the
# deepest; all 12 of a verify run at once held about 260 KB of temporaries and
# raised perfbench's verify-2x2 peak RSS by 0.15 MB
_CHUNK = 4


def _degree(n: int, low: int = 0):
    if index(n) < low:  # and TypeError for a degree that is not an integer
        raise ValueError(f"the degree must be >= {low}, got {n}")


def _require_2x2(p: WeightParams, n: int = 0, low: int = 0):
    """The guard of every closed form: size 2 and a degree ``n >= low``."""
    if p.size != 2:
        raise ValueError("closed forms exist only for size 2")
    _degree(n, low)


def _one(p: WeightParams, n: int, low: int = 0) -> range:
    """The guarded one-degree range a per-degree closed form reads its table at."""
    _require_2x2(p, n, low)
    return range(n, n + 1)


def _hermite(table: list, n: int) -> np.ndarray:
    """The coefficients of H_n from ``table``, the caller's H_0, H_1, ..., which
    the recurrence extends through degree n; OverflowError from degree 263."""
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(table), n + 1):
            h = np.zeros(k + 1)
            h[1:] += 2.0 * table[k - 1]
            h[:k - 1] -= 2.0 * (k - 1) * table[k - 2]  # at k = 1 an empty slice
            if not np.isfinite(h).all():
                raise OverflowError(f"Hermite coefficients overflow at degree {k}")
            table.append(h)
    return table[n]


def _scaled_hermite(table: list, n: int, b: float) -> np.ndarray:
    """Coefficients of H_n(sqrt(b) t)."""
    return _hermite(table, n) * b ** (np.arange(n + 1) / 2.0)


def gamma_value(p: WeightParams, n: int) -> float:
    """The scalar normalization gamma_n = 2 + |a|^2 b^(n - 1/2) n."""
    _require_2x2(p, n)
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
    _require_2x2(p, n)
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


def _diag(x, y, f: float = 1.0) -> tuple:
    """The entries of f diag(x, y), row by row: for f > 0 the bits of
    ``f * np.diag([x, y]).astype(complex)``."""
    return f * x, 0.0, 0.0, f * y


def _off(x, y, f: float = 1.0) -> tuple:
    """The entries of f [[0, x], [y, 0]], row by row: the bits of
    ``f * np.array([[0.0, x], [y, 0.0]], dtype=complex)``."""
    return f * 0.0, f * x, f * y, f * 0.0


def _stacks(rows: Sequence[tuple], k: int) -> np.ndarray:
    """The (k, len(rows), 2, 2) stacks of the k matrices whose entries each
    row lists, matrix by matrix."""
    return np.array(rows, dtype=complex).reshape(-1, k, 2, 2).swapaxes(0, 1)


def _normalization_table(p: WeightParams, degrees: range) -> tuple:
    """The (len, 2, 2) stacks of leading, delta and gauge, and gamma_n."""
    rows, gammas = [], []
    for n in degrees:
        g = gamma_value(p, n)
        leading = _diag(1.0, g, 2.0 ** n)
        log_pref = 0.5 * (n * math.log(2.0) - 0.5 * math.log(math.pi)
                          - math.lgamma(n + 1))
        d1 = math.exp(log_pref + 0.5 * (math.log(2.0) + (n + 0.5) * math.log(p.b)
                                        - _log_gamma_value(p, n + 1)))
        d2 = math.exp(log_pref + 0.5 * (_log_gamma_value(p, n) - math.log(2.0)))
        rows.append((*leading, *_diag(d1, d2), *_diag(2.0 ** n / d1, 2.0 ** n * g / d2)))
        gammas.append(g)
    return (*_stacks(rows, 3), gammas)


def normalization(p: WeightParams, n: int) -> NormalizationFactors:
    leading, delta, gauge, g = _normalization_table(p, _one(p, n))
    return NormalizationFactors(n, g[0], leading[0], delta[0], gauge[0])


def _explicit_table(p: WeightParams, degrees: range) -> list[MatrixPolynomial]:
    """The members of the Rodrigues-normalized sequence at ``degrees``, each
    coefficient entry summed term by term in the same order at every degree."""
    a, b = p.a[0], p.b
    aa = abs(a) ** 2
    hermite, out = [np.ones(1)], []  # H_0, H_1, ...: extended as the degrees ask
    for n in degrees:
        if n == 0:
            out.append(MatrixPolynomial.constant(np.diag([1.0, 2.0])))
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            hn_b, hnm1_b = _scaled_hermite(hermite, n, b), _scaled_hermite(hermite, n - 1, b)
            c = np.zeros((n + 2, 2, 2), dtype=complex)
            pref = b ** (-n / 2.0)
            c[:n + 1, 0, 0] += pref * hn_b
            c[1:, 0, 1] += -a * pref * hn_b
            c[:, 0, 1] += 0.5 * a * _hermite(hermite, n + 1)
            pref = 2.0 * b ** (n / 2.0) * n
            c[:n, 1, 0] += -np.conj(a) * pref * hnm1_b
            c[1:n + 1, 1, 1] += aa * pref * hnm1_b
            c[:n + 1, 1, 1] += 2.0 * _hermite(hermite, n)
        # the top (1,2) contributions cancel exactly; drop the residue
        c[n + 1, 0, 1] = 0.0
        if not np.isfinite(c).all():
            raise OverflowError(f"explicit polynomial overflows at degree {n}")
        out.append(MatrixPolynomial._of(c))
    return out


def explicit_polynomial(p: WeightParams, n: int) -> MatrixPolynomial:
    """Degree-n member of the Rodrigues-normalized sequence, through scaled Hermite
    expansions (degree 0 is diag(1, 2)); OverflowError if a coefficient overflows."""
    return _explicit_table(p, _one(p, n))[0]


def _kernels(p: WeightParams, degrees: range) -> tuple[list, np.ndarray, Exception | None]:
    """Keys and (len, K, D, 2, 2) tensor of the Rodrigues kernels at
    ``degrees`` (all >= 1) up to the first whose ``b**-n`` overflows, and that
    OverflowError: a table finishes the degrees before it, then raises it, as
    a loop over the degrees would."""
    a, b = p.a[0], p.b
    aa, ca = abs(a) ** 2, np.conj(a)
    keys = [(GAUSS, b), (GAUSS, 1.0), (ERF, b), (ERF, 1.0)]
    coeffs = np.zeros((len(degrees), 4, 3, 2, 2), dtype=complex)  # [degree, key, power]
    for k, (c, n) in enumerate(zip(coeffs, degrees)):
        sign = (-1.0) ** n
        try:
            c[0, 0, 0, 0] = sign * b ** float(-n)
        except OverflowError as exc:
            return keys, coeffs[:k], exc
        c[1, 0] = [[sign * aa * n / 2.0, 0.0], [0.0, sign * 2.0]]
        c[1, 1] = [[0.0, sign * a], [sign * ca * 2.0, 0.0]]
        c[1, 2, 0, 0] = sign * aa
        c[2, 0, 1, 0] = sign * ca * _SQRT_PI * n
        c[3, 0, 1, 0] = -sign * ca * _SQRT_PI * n
    return keys, coeffs, None


def _rodrigues_table(p: WeightParams, degrees: range) -> list[MatrixPolynomial]:
    """The Rodrigues polynomials at ``degrees`` (all >= 1): one derivative
    chain over the stacked kernels, which kernel n leaves after n passes;
    each ``_CHUNK`` kernels that left share a product with the inverse weight
    and a collapse."""
    keys, coeffs, overflow = _kernels(p, degrees)
    kern, degrees = GaussErfMatrix(keys, coeffs), degrees[:len(coeffs)]
    inv, polys, done = weight_inverse_symbolic_2x2(p), [], []
    for i, n in enumerate(degrees):
        if i:
            kern = GaussErfMatrix._of(kern.keys, kern.coeffs[1:])
        kern = kern.derivative(1 if i else n)
        done.append((kern.keys, kern.coeffs[0].copy()))
        if len(done) == _CHUNK or i == len(degrees) - 1:
            polys += _collapse(done, inv, degrees[i + 1 - len(done):i + 1])
            done = []
    if overflow:
        raise overflow
    return polys


def _collapse(done: list, inv: GaussErfMatrix, degrees: range) -> list[MatrixPolynomial]:
    """The Rodrigues polynomials of the kernels in ``done``, as (the chain's
    keys, derivative) when each left it, with the inverse weight ``inv``:
    padded to the first one's keys, which has every key the chain kept after,
    and to the deepest one's powers, then multiplied and collapsed at once."""
    keys, derivs = done[0][0], done[0][1][None]
    if len(done) > 1:
        derivs = np.zeros((len(done), len(keys), max(c.shape[-3] for _, c in done), 2, 2),
                          dtype=complex)
        for d, (own, c) in zip(derivs, done):
            d[[keys.index(k) for k in own], :c.shape[-3]] = c
    prod = GaussErfMatrix._of(keys, derivs) @ inv
    polys = []
    for n, poly in zip(degrees, polynomials(prod.keys, prod.coeffs)):
        if poly.degree != n:
            raise ArithmeticError(f"Rodrigues product has degree {poly.degree}, expected {n}")
        polys.append(poly)
    return polys


def rodrigues_polynomial(p: WeightParams, n: int) -> MatrixPolynomial:
    """Differentiate the Rodrigues kernel n times and multiply by the inverse
    weight, symbolically. Every transcendental atom must cancel; survivors
    beyond 1e-9 (relative) raise, as does a wrong resulting degree."""
    return _rodrigues_table(p, _one(p, n, 1))[0]


def _scaled_a_diagonal(p: WeightParams, n: int) -> list[float]:
    """The diagonal of the orthonormal ``A_n / sqrt(n)``, n >= 1."""
    return [math.sqrt(gamma_ratio(p, n) / (2.0 * p.b)),
            math.sqrt(1.0 / (2.0 * gamma_ratio(p, n - 1)))]


def _orthonormal_row(p: WeightParams, n: int) -> tuple:
    """The entries of A_n and B_n of the orthonormal recurrence."""
    a, b = p.a[0], p.b
    a_mat = _diag(*_scaled_a_diagonal(p, n), math.sqrt(n)) if n >= 1 else _diag(0.0, 0.0)
    drift = b + (b - 1.0) * n
    log_mag = ((2.0 * n - 3.0) / 4.0 * math.log(b)
               - 0.5 * (_log_gamma_value(p, n) + _log_gamma_value(p, n + 1)))
    factor = math.copysign(math.exp(log_mag + math.log(abs(drift))), drift) \
        if drift != 0.0 else 0.0
    return (*a_mat, *_off(a, np.conj(a), factor))


def orthonormal_recurrence(p: WeightParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form recurrence pair (A_n, B_n) of the orthonormal sequence.

    A_n (n >= 1) is diagonal positive, B_n (n >= 0) Hermitian with zero
    diagonal. Computed through gamma ratios and logs so large n stays finite.
    """
    a, b = _stacks([_orthonormal_row(p, n) for n in _one(p, n)], 2)
    return a[0], b[0]


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


def _closed_row(p: WeightParams, n: int) -> tuple:
    """The entries of row n of the monic (B, C) and Rodrigues-normalized
    (A, B, C) gauges."""
    a, b = p.a[0], p.b
    g_n = gamma_value(p, n)
    g_np = gamma_value(p, n + 1)
    lower = 2.0 * np.conj(a) * b ** (n - 0.5)
    monic_b = _off(a / (2.0 * b), lower / (g_n * g_np), b + (b - 1.0) * n)
    if n >= 1:
        g_nm = gamma_value(p, n - 1)
        monic_c = _diag(g_np / g_n, b * g_nm / g_n, n / (2.0 * b))
        rodrigues_a = _diag(1.0, g_nm / g_n, 0.5)
        rodrigues_c = _diag(g_np / (b * g_n), 1.0, float(n))
    else:
        monic_c = rodrigues_a = rodrigues_c = _diag(0.0, 0.0)
    rodrigues_b = _off(a / (2.0 * b * g_n), lower / g_np, -n + (n + 1) * b)
    return (*monic_b, *monic_c, *rodrigues_a, *rodrigues_b, *rodrigues_c)


def _transport(gauges: np.ndarray, a: np.ndarray, b: np.ndarray, first: int) -> np.ndarray:
    """Rows ``first``.. of the orthonormal recurrence in the Rodrigues-normalized
    gauge, stacked: ``G_{n-1} A_n G_n^-1``, ``G_n B_n G_n^-1`` and ``G_n A_n*
    G_{n-1}^-1``, with ``gauges`` those of degrees max(first - 1, 0).., the first
    and last zero pads at n = 0 (``+ 0.0``: conjugating a zero imaginary part
    gives -0.0). The gauges are diagonal: their reciprocals are their inverses,
    to the bit of LAPACK's, with no LAPACK loaded."""
    inv = np.zeros_like(gauges)
    inv[:, [0, 1], [0, 1]] = 1.0 / np.diagonal(gauges, axis1=-2, axis2=-1)
    g, g_inv = gauges[len(gauges) - len(a):], inv[len(gauges) - len(a):]
    lo = 0 if first else 1  # the rows with a degree before them
    out = np.zeros((3,) + a.shape, dtype=complex)
    out[1] = g @ b @ g_inv
    if lo < len(a):
        out[0, lo:] = gauges[:-1] @ a[lo:] @ g_inv[lo:]
        out[2, lo:] = g[lo:] @ (a[lo:].conj().swapaxes(-1, -2) + 0.0) @ inv[:-1]
    return out


def _recurrence_table(p: WeightParams, degrees: range) -> np.ndarray:
    """The (7, len, 2, 2) stacks of the monic B_n, C_n, the Rodrigues-normalized
    A_n, B_n, C_n and the orthonormal A_n, B_n at ``degrees``: the scalars
    degree by degree, as ``recurrence_closed_forms`` takes them, then the gauge
    transport of all degrees at once, checked as the per-degree loop checks it."""
    table = _stacks([(*_closed_row(p, n), *_orthonormal_row(p, n)) for n in degrees], 7)
    first = degrees[0] if degrees else 0
    gauges = _normalization_table(p, range(max(first - 1, 0), first + len(degrees)))[2]
    # transported and closed-form Rodrigues B, A, C: the order they are checked in
    lhs, rhs = _transport(gauges, *table[5:], first)[[1, 0, 2]], table[[3, 2, 4]]
    bad = peaks(lhs - rhs) > 1e-8 * np.maximum(1.0, np.maximum(peaks(lhs), peaks(rhs)))
    if bad.any():
        name = "bac"[bad[:, bad.any(axis=0).argmax()].argmax()]
        raise ArithmeticError(f"gauge consistency failed for rodrigues_{name}")
    return table


def recurrence_closed_forms(p: WeightParams, n: int) -> ClosedRecurrence:
    """All closed-form recurrence data at index n, cross-checked internally
    against the gauge transport of the orthonormal coefficients."""
    return ClosedRecurrence(n, *(t[0] for t in _recurrence_table(p, _one(p, n))[:5]))


def _norms_table(p: WeightParams, degrees: range) -> np.ndarray:
    """The (2, len, 2, 2) stacks of ``closed_norms`` at ``degrees``."""
    rows, b = [], p.b
    for n in degrees:
        log_pref = 0.5 * math.log(math.pi) + math.lgamma(n + 1) - n * math.log(2.0)
        monic = _diag(math.exp(log_pref + _log_gamma_value(p, n + 1)
                               - math.log(2.0) - (n + 0.5) * math.log(b)),
                      math.exp(log_pref + math.log(2.0) - _log_gamma_value(p, n)))
        log_pref = n * math.log(2.0) + 0.5 * math.log(math.pi) + math.lgamma(n + 1)
        rows.append((*monic, *_diag(math.exp(log_pref + _log_gamma_value(p, n + 1)
                                             - math.log(2.0) - (n + 0.5) * math.log(b)),
                                    math.exp(log_pref + math.log(2.0) + _log_gamma_value(p, n)))))
    return _stacks(rows, 2)


def closed_norms(p: WeightParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared norms (monic gauge, Rodrigues gauge) as closed forms; computed
    in log space so factorial growth cannot overflow prematurely."""
    monic, rodrigues = _norms_table(p, _one(p, n))
    return monic[0], rodrigues[0]


def branch_limit(b: float) -> np.ndarray:
    """Limit of A_n / sqrt(n): the two diagonal entries differ by sqrt(b),
    so the limit is not a scalar multiple of the identity."""
    if not (math.isfinite(b) and b > 0):
        raise ValueError(f"b must be finite and positive, got {b}")
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


def _pde_coefficient_table(p: WeightParams, degrees: range) -> list[tuple[MatrixPolynomial, ...]]:
    """The coefficients (m2, m1, m0) of the kernel equation at each of ``degrees``,
    from the operator's adjoints and their derivatives, shared by the degrees."""
    op = build_operator(p)
    f2s, f1s, f0s = op.f2.conj_t(), op.f1.conj_t(), op.f0.conj_t()
    d2, d1, dd2 = f2s.derivative(), f1s.derivative(), f2s.derivative(2)
    return [(f2s, f1s + float(n) * d2, f0s + float(n) * d1 + float(math.comb(n, 2)) * dd2)
            for n in degrees]


def _pde_residual_table(p: WeightParams, degrees: range, ts: Sequence[float]) -> np.ndarray:
    """``rodrigues_pde_residual`` at each of ``degrees`` (all >= 1), on the
    stacked kernels' tensor. Every term keeps the kernels' keys, so no step
    needs an object, a key merge of its own or a trim: the rows and powers a
    trim would drop are zeros, which leave every residual as it is."""
    ts = _grid(ts)
    keys, coeffs, overflow = _kernels(p, degrees)
    if overflow and not len(coeffs):
        raise overflow
    degrees = degrees[:len(coeffs)]
    keys, c = _merged(keys, coeffs)
    rows = _pde_coefficient_table(p, degrees)
    m1, m0 = (np.array([row[i].coeffs for row in rows]).reshape(len(degrees), 1, -1, 2, 2)
              for i in (1, 2))
    lam = np.array([eigenvalue_matrix(p, n) for n in degrees]).reshape(-1, 1, 1, 2, 2)

    def deriv(v):  # each erf key's Gaussian is a kernel key too
        return _merged(*derivative_stack(keys, v))[1]
    expr = combine(combine(combine(deriv(deriv(convolve(c, rows[0][0].coeffs))),
                                   deriv(convolve(c, m1))), convolve(c, m0), np.add), lam @ c)
    if overflow:
        raise overflow
    return np.abs(evaluate(keys, expr, ts)).max(axis=(0, -2, -1))


def rodrigues_pde_residual(p: WeightParams, n: int, ts: Sequence[float]) -> float:
    """Max pointwise residual of the kernel equation
    ``(R m2)'' - (R m1)' + R m0 = Lambda_n R`` over the grid, with every
    derivative taken exactly in the function algebra and the whole grid
    evaluated at once."""
    return float(_pde_residual_table(p, _one(p, n, 1), ts)[0])


def normalized_recurrence_from_moments(p: WeightParams, seq: MonicSequence) -> RecurrenceTable:
    """Moment-derived recurrence in the Rodrigues-normalized gauge, obtained
    by transporting the orthonormal table with the closed-form gauge factors."""
    _require_2x2(p)
    orth, _ = orthonormalize_sequence(seq)
    degrees = range(len(orth.A))
    # the top row has no B_n: a zero stands in and its transport is dropped
    a, b, c = _transport(_normalization_table(p, degrees)[2], np.array(orth.A).reshape(-1, 2, 2),
                         np.array(orth.B + (np.zeros((2, 2), dtype=complex),)), 0)
    return RecurrenceTable("rodrigues-normalized", tuple(a), tuple(b[:-1]), tuple(c))
