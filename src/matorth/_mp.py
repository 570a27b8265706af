"""High-precision core behind the moment-based orthogonalizer.

Building monic orthogonal matrix polynomials from raw moments is a
Hankel-type problem whose double-precision error grows roughly like 4**n
for this family; the acceptance tolerances (1e-8 relative at degrees 15-20)
are unreachable that way. The moments, however, are exact closed forms, so
this module computes them, runs the monic three-term recurrence on them (the
Stieltjes procedure) and factors the squared norms at ``DPS`` digits, and
rounds to complex128 only at the boundary.

All of it runs in a private mpmath context: mpmath's global precision is
never read or changed. Matrices are numpy object arrays of that context's
numbers. This is the only module that touches mpmath; everything here is
private to :mod:`matorth.orthogonal`.
"""
from __future__ import annotations

from functools import lru_cache

import mpmath
import numpy as np

from .weights import WeightParams, alpha_coeff, odd_series, scale_diagonals

DPS = 50
# Families kept at once. One holds megabytes (a size-5 family built to degree
# 20 with its pairings about 5 MB), far more than an entry of the
# double-precision caches, and a verify run or sweep member needs only one.
FAMILY_CACHE_SIZE = 8

_ctx = mpmath.MPContext()
_ctx.dps = DPS
# exact: every complex128 value is representable at DPS digits
_from_complex = np.frompyfunc(_ctx.mpc, 1, 1)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def family(p: WeightParams) -> "_MpFamily":
    return _MpFamily(p)


def _conj_t(a: np.ndarray) -> np.ndarray:
    return np.conjugate(a).T


def _chol_upper(a: np.ndarray) -> np.ndarray:
    """Factor a Hermitian positive definite matrix as U U* with U upper
    triangular and positive diagonal (diagonal input gives diagonal U)."""
    n = len(a)
    u = np.full((n, n), _ctx.mpc(0), dtype=object)
    for j in range(n - 1, -1, -1):
        d = (a[j, j] - sum(u[j, k] * u[j, k].conjugate() for k in range(j + 1, n))).real
        if d <= 0:
            raise ArithmeticError("matrix is not positive definite")
        u[j, j] = _ctx.sqrt(d)
        for i in range(j):
            s = a[i, j] - sum(u[i, k] * u[j, k].conjugate() for k in range(j + 1, n))
            u[i, j] = s / u[j, j]
    return u


def _inv_upper(u: np.ndarray) -> np.ndarray:
    """Inverse of an upper triangular matrix by back substitution."""
    n = len(u)
    out = np.full((n, n), _ctx.mpc(0), dtype=object)
    for j in range(n):
        out[j, j] = 1 / u[j, j]
        for i in range(j - 1, -1, -1):
            s = sum(u[i, k] * out[k, j] for k in range(i + 1, j + 1))
            out[i, j] = -s / u[i, i]
    return out


class _MpFamily:
    """Per-parameter high-precision state: moments, the monic sequence, its
    recurrence coefficients and its normalizers."""

    def __init__(self, p: WeightParams):
        n = self.n = p.size
        b = _ctx.mpf(p.b)
        shift = np.diag(np.array([_ctx.mpc(v) for v in p.a], dtype=object), 1)
        nil = odd_series(shift, [alpha_coeff(n, b, j) for j in range(n // 2)])
        exp_coeffs = [np.identity(n, dtype=object)]
        for k in range(1, n):
            exp_coeffs.append(exp_coeffs[-1] @ nil / k)
        # column c of W's factor is sum_j exp_coeffs[j][:, c] t**j times
        # exp(-s_c t**2 / 2); outers[c][d] gathers its products of total power d
        self._scales = [-2 * g for g in scale_diagonals(n, b)[1]]
        self._outers = []
        for c in range(n):
            outer = [0] * (2 * n - 1)
            for j1, e1 in enumerate(exp_coeffs):
                for j2, e2 in enumerate(exp_coeffs):
                    outer[j1 + j2] = outer[j1 + j2] + np.multiply.outer(
                        e1[:, c], np.conjugate(e2[:, c]))
            self._outers.append(outer)
        self._gauss: dict[tuple[int, int], object] = {}
        self._moments: list[np.ndarray] = []
        self.polys: list[list[np.ndarray]] = []   # polys[k][power] = matrix
        self.norms: list[np.ndarray] = []
        self._chols: list[np.ndarray] = []        # upper Cholesky factors
        self._deltas: list[np.ndarray] = []       # their inverses
        self._bhat: list[np.ndarray] = []
        self._chat: list[np.ndarray] = []
        self._float_polys: list[tuple[list[np.ndarray], list[np.ndarray]]] = []

    @property
    def top(self) -> int:
        return len(self.polys) - 1

    def _gauss_moment(self, power: int, c: int):
        """``integral t**power exp(-s_c t**2) dt`` for even ``power``."""
        got = self._gauss.get((power, c))
        if got is None:
            half = _ctx.mpf(power + 1) / 2
            got = self._gauss[power, c] = _ctx.gamma(half) / self._scales[c] ** half
        return got

    def moment(self, m: int) -> np.ndarray:
        while len(self._moments) <= m:
            k = len(self._moments)
            out = np.full((self.n, self.n), _ctx.mpc(0), dtype=object)
            for c, outer in enumerate(self._outers):
                for d, o in enumerate(outer):
                    if (d + k) % 2 == 0:
                        out = out + o * self._gauss_moment(d + k, c)
            self._moments.append(out)
        return self._moments[m]

    def _row(self, coeffs: list[np.ndarray], length: int) -> list[np.ndarray]:
        """``V_l = <P, t**l I> = sum_k C_k S_{k+l}`` for l < ``length``."""
        return [sum(c @ self.moment(k + l) for k, c in enumerate(coeffs))
                for l in range(length)]

    def _norm_inv(self, k: int) -> np.ndarray:
        return _conj_t(self._deltas[k]) @ self._deltas[k]

    def _append(self, coeffs: list[np.ndarray]):
        """Add the next monic polynomial P with its squared norm H, the
        Cholesky factor and normalizer of H, and the recurrence coefficients
        ``B = <t P, P> H^-1`` and ``C = H H_prev^-1``. Raises ArithmeticError,
        adding nothing, when H is not positive definite."""
        row = self._row(coeffs, len(coeffs) + 1)
        norm = sum(row[l] @ _conj_t(c) for l, c in enumerate(coeffs))
        chol = _chol_upper(norm)
        self._chat.append(norm @ self._norm_inv(self.top) if self.polys
                          else np.zeros((self.n, self.n), dtype=object))
        self.polys.append(coeffs)
        self.norms.append(norm)
        self._chols.append(chol)
        self._deltas.append(_inv_upper(chol))
        shifted = sum(row[l + 1] @ _conj_t(c) for l, c in enumerate(coeffs))
        self._bhat.append(shifted @ self._norm_inv(self.top))

    def extend(self, nmax: int):
        """Grow the monic sequence up to degree ``nmax`` by the recurrence
        ``P_{k+1} = (t - B_k) P_k - C_k P_{k-1}`` (the Stieltjes procedure)."""
        if not self.polys:
            self._append([np.identity(self.n, dtype=object)])
        while self.top < nmax:
            k = self.top
            nxt = [np.zeros((self.n, self.n), dtype=object)] + self.polys[k]
            for j, c in enumerate(self.polys[k]):
                nxt[j] = nxt[j] - self._bhat[k] @ c
            if k:
                for j, c in enumerate(self.polys[k - 1]):
                    nxt[j] = nxt[j] - self._chat[k] @ c
            self._append(nxt)

    # -- complex128 views ------------------------------------------------------

    def poly(self, k: int) -> list[np.ndarray]:
        return [c.astype(complex) for c in self.polys[k]]

    def norm(self, k: int) -> np.ndarray:
        return self.norms[k].astype(complex)

    def monic_table(self, count: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """``B_0..B_{count-2}`` and ``C_0..C_{count-1}`` of the monic
        recurrence; ``C_0`` is a zero pad."""
        self.extend(count - 1)
        return ([b.astype(complex) for b in self._bhat[:count - 1]],
                [c.astype(complex) for c in self._chat[:count]])

    def orthonormal_table(self, count: int):
        """Orthonormal ``A_0..A_{count-1}`` (``A_0`` a zero pad),
        ``B_0..B_{count-2}`` and the normalizers ``Delta_0..Delta_{count-1}``:
        ``A_k = Delta_{k-1} U_k`` and ``B_k = Delta_k Bhat_k U_k`` with
        ``U_k`` the upper Cholesky factor of ``H_k`` and ``Delta_k`` its
        inverse."""
        self.extend(count - 1)
        a = [np.zeros((self.n, self.n), dtype=complex)] + [
            (self._deltas[k - 1] @ self._chols[k]).astype(complex)
            for k in range(1, count)]
        b = [(self._deltas[k] @ self._bhat[k] @ self._chols[k]).astype(complex)
             for k in range(count - 1)]
        return a, b, [d.astype(complex) for d in self._deltas[:count]]

    def pair_float(self, i: int, j: int) -> np.ndarray:
        """``<P_i, P_j>`` of the complex128 polynomials that ``poly`` returns,
        paired exactly against the DPS-digit moments."""
        if i < j:
            return self.pair_float(j, i).conj().T
        self.extend(i)
        while len(self._float_polys) <= i:
            k = len(self._float_polys)
            coeffs = [_from_complex(c) for c in self.poly(k)]
            self._float_polys.append((coeffs, self._row(coeffs, k + 1)))
        row = self._float_polys[i][1]
        pairing = sum(row[l] @ _conj_t(c) for l, c in enumerate(self._float_polys[j][0]))
        return pairing.astype(complex)
