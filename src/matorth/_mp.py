"""High-precision core behind the moment-based orthogonalizer.

Building monic orthogonal matrix polynomials from raw moments is a
Hankel-type problem whose double-precision error grows roughly like 4**n
for this family; the acceptance tolerances (1e-8 relative at degrees 15-20)
are unreachable that way. The moments, however, are exact closed forms, so
this module computes them, runs the monic three-term recurrence on them (the
Stieltjes procedure) and factors the squared norms at ``DIGITS`` significant
digits, and rounds to complex128 only at the boundary.

Phase gauge: with ``U = diag(u)``, ``u_0 = 1`` and
``u_{k+1} = u_k conj(a_k / |a_k|)``, the weight for ``a`` is ``U W U*``
where ``W`` is the real symmetric weight for ``|a|``. The moments, ``P_n``,
``H_n``, ``Bhat_n``, ``Chat_n``, the Cholesky factors and ``Delta_n`` all
transform the same way, so the whole state here is real and built from
``|a_k|``. The phase pattern ``u_i conj(u_j)`` multiplies entry ``(i, j)``
only when a matrix is rounded to complex128.

Numbers are ``decimal.Decimal`` in numpy object arrays (the C libmpdec
backend). Arithmetic runs in a private context of ``DIGITS`` digits, entered
only through ``decimal.localcontext``, which is local to the thread: the
caller's decimal context is never read or changed. Everything here is
private to :mod:`matorth.orthogonal`.
"""
from __future__ import annotations

import math
import threading
from collections import namedtuple
from decimal import Context, Decimal, localcontext
from functools import lru_cache

import numpy as np

from .linalg import MatrixPolynomial
from .weights import (WeightParams, alpha_coeff, column_outers, odd_series,
                      scale_diagonals)

# 51 digits hold at least the 169 bits of a 50-digit binary build; at 50 the
# b = 1e6 member loses positive definiteness one degree earlier
DIGITS = 51
# Families kept at once. One holds megabytes (a size-5 family built to degree
# 20 with its pairings about 3 MB), far more than an entry of the
# double-precision caches, and a verify run or sweep member needs only one.
FAMILY_CACHE_SIZE = 8

_CONTEXT = Context(prec=DIGITS)
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")
with localcontext(_CONTEXT):
    _SQRT_PI = _PI.sqrt()
# exact: every double is a finite decimal fraction
_from_float = np.frompyfunc(Decimal, 1, 1)

_families_lock = threading.Lock()


def family(p: WeightParams) -> "_MpFamily":
    """The one shared family of ``p``; safe to call from several threads."""
    with _families_lock:
        return _family(p)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _family(p: WeightParams) -> "_MpFamily":
    return _MpFamily(p)


def _polar(z: complex) -> tuple[Decimal, Decimal, Decimal]:
    """``|z|`` and the real and imaginary parts of ``conj(z) / |z|``; exact
    when ``z`` is real or imaginary."""
    re, im = Decimal(z.real), Decimal(z.imag)
    if not im:
        mod = abs(re)
    elif not re:
        mod = abs(im)
    else:
        mod = (re * re + im * im).sqrt()
    return mod, re / mod, -im / mod


def _chol_upper(a: np.ndarray) -> np.ndarray:
    """Factor a symmetric positive definite matrix as U U^T with U upper
    triangular and positive diagonal (diagonal input gives diagonal U)."""
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


def _inv_upper(u: np.ndarray) -> np.ndarray:
    """Inverse of an upper triangular matrix by back substitution."""
    n = len(u)
    out = np.zeros((n, n), dtype=object)
    for j in range(n):
        out[j, j] = 1 / u[j, j]
        for i in range(j - 1, -1, -1):
            s = sum(u[i, k] * out[k, j] for k in range(i + 1, j + 1))
            out[i, j] = -s / u[i, i]
    return out


def _to_float(x: np.ndarray) -> np.ndarray:
    """Round to float64; ``+ 0.0`` turns the ``-0.0`` of ``Decimal("-0")``
    into ``0.0``."""
    return x.astype(float) + 0.0


# the one complex128 copy of degree k's tables: P_k as a MatrixPolynomial,
# H_k, the monic Bhat_k and Chat_k, Delta_k and the orthonormal A_k and B_k
_Views = namedtuple("_Views", "poly norm bhat chat delta a b")


class _MpFamily:
    """Per-parameter high-precision state for ``|a|``: moments, the monic
    sequence, its recurrence coefficients and its normalizers, plus the
    phase ``u`` that carries them to ``a``.

    ``extend`` and the float rows of ``pair_float`` grow under the family's
    lock, so one family may be shared between threads; what has been built
    is never changed, nor is ``stop`` once set.
    """

    def __init__(self, p: WeightParams):
        n = self.n = p.size
        self._lock = threading.RLock()
        with localcontext(_CONTEXT):
            polar = [_polar(v) for v in p.a]
            u_re, u_im = [Decimal(1)], [Decimal(0)]
            for _, c, s in polar:
                r, i = u_re[-1], u_im[-1]
                u_re.append(r * c - i * s)
                u_im.append(r * s + i * c)
            self._u_re = np.array(u_re, dtype=object)
            self._u_im = np.array(u_im, dtype=object)
            # u_i conj(u_j); the diagonal is |u_i|**2 = 1 exactly
            self._phase_re = (np.multiply.outer(self._u_re, self._u_re)
                              + np.multiply.outer(self._u_im, self._u_im))
            self._phase_im = (np.multiply.outer(self._u_im, self._u_re)
                              - np.multiply.outer(self._u_re, self._u_im))
            np.fill_diagonal(self._phase_re, 1)
            np.fill_diagonal(self._phase_im, 0)

            b = Decimal(p.b)
            shift = np.diag(np.array([m for m, _, _ in polar], dtype=object), 1)
            nil = odd_series(shift, [alpha_coeff(n, b, j) for j in range(n // 2)])
            exp_coeffs = [np.identity(n, dtype=object)]
            for k in range(1, n):
                exp_coeffs.append(exp_coeffs[-1] @ nil / k)
            # W(t) = sum_c sum_d outers[c][d] t**d exp(-s_c t**2)
            self._scales = [-2 * g for g in scale_diagonals(n, b)[1]]
            self._outers = column_outers(exp_coeffs)
        self._gauss: dict[tuple[int, int], Decimal] = {}
        self._moments: list[np.ndarray] = []
        self.polys: list[list[np.ndarray]] = []   # polys[k][power] = matrix
        self.norms: list[np.ndarray] = []
        self._deltas: list[np.ndarray] = []       # inverse upper Cholesky factors
        self._bhat: list[np.ndarray] = []
        self._chat: list[np.ndarray] = []
        # per returned polynomial, per parity class: its coefficients times
        # U and their rows against the moments (see pair_float)
        self._float_rows: list[list[tuple[np.ndarray, np.ndarray]]] = []
        # per degree, the complex128 values the tables return, read-only
        self._views: list[_Views] = []
        self.stop: str | None = None  # why degree top + 1 failed; never retried

    @property
    def top(self) -> int:
        return len(self.polys) - 1

    def _gauss_moment(self, power: int, c: int) -> Decimal:
        """``integral t**power exp(-s_c t**2) dt = Gamma(m + 1/2) / s_c**(m + 1/2)``
        for ``power = 2m``, with ``Gamma(m + 1/2) = (2m)! sqrt(pi) / (4**m m!)``."""
        got = self._gauss.get((power, c))
        if got is None:
            m, s = power // 2, self._scales[c]
            gamma = _SQRT_PI * math.factorial(power) / (4 ** m * math.factorial(m))
            got = self._gauss[power, c] = gamma / (s ** m * s.sqrt())
        return got

    def moment(self, m: int) -> np.ndarray:
        while len(self._moments) <= m:
            k = len(self._moments)
            out = np.zeros((self.n, self.n), dtype=object)
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
        return self._deltas[k].T @ self._deltas[k]

    def _append(self, coeffs: list[np.ndarray]):
        """Add the next monic polynomial P with its squared norm H, the
        Cholesky factor and normalizer of H, and the recurrence coefficients
        ``B = <t P, P> H^-1`` and ``C = H H_prev^-1``. Raises ArithmeticError,
        adding nothing, when H is not positive definite."""
        row = self._row(coeffs, len(coeffs) + 1)
        norm = sum(row[l] @ c.T for l, c in enumerate(coeffs))
        chol = _chol_upper(norm)
        self._chat.append(norm @ self._norm_inv(self.top) if self.polys
                          else np.zeros((self.n, self.n), dtype=object))
        self.polys.append(coeffs)
        self.norms.append(norm)
        self._deltas.append(_inv_upper(chol))
        shifted = sum(row[l + 1] @ c.T for l, c in enumerate(coeffs))
        k = self.top
        bhat = shifted @ self._norm_inv(k)
        self._bhat.append(bhat)
        delta = self._deltas[k]
        # orthonormal A_k = Delta_{k-1} U_k (a zero pad at k = 0) and
        # B_k = Delta_k Bhat_k U_k, with U_k the upper Cholesky factor of H_k
        a = self._deltas[k - 1] @ chol if k else np.zeros_like(chol)
        views = (norm, bhat, self._chat[k], delta, a, delta @ bhat @ chol)
        self._views.append(_Views(MatrixPolynomial(map(self._complex, coeffs)),
                                  *map(self._complex, views)))

    def extend(self, nmax: int):
        """Grow the monic sequence from ``P_0 = I`` to degree ``nmax`` by the recurrence
        ``P_{k+1} = (t - B_k) P_k - C_k P_{k-1}`` (the Stieltjes procedure)."""
        with self._lock, localcontext(_CONTEXT):
            while self.stop is None and self.top < nmax:
                k = self.top
                nxt = [np.identity(self.n, dtype=object)]
                if self.polys:
                    nxt = [np.zeros((self.n, self.n), dtype=object)] + self.polys[k]
                    for j, c in enumerate(self.polys[k]):
                        nxt[j] = nxt[j] - self._bhat[k] @ c
                if k > 0:
                    for j, c in enumerate(self.polys[k - 1]):
                        nxt[j] = nxt[j] - self._chat[k] @ c
                try:
                    self._append(nxt)
                except ArithmeticError as exc:
                    self.stop = f"norm positive definiteness lost at degree {k + 1}: {exc}"

    # -- complex128 views ------------------------------------------------------

    def _complex(self, x: np.ndarray) -> np.ndarray:
        """The matrix for ``a`` of the real state ``x`` for ``|a|``,
        ``u_i conj(u_j) x_ij``, rounded to complex128, read-only."""
        out = np.empty(x.shape, dtype=complex)
        with localcontext(_CONTEXT):
            out.real = _to_float(x * self._phase_re)
            out.imag = _to_float(x * self._phase_im)
        out.setflags(write=False)
        return out

    def _class_rows(self, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per class ``c`` of ``pair_float``: the rows of ``Y_k`` in class
        ``c``, real over imaginary parts, on its columns, and those times ``H``."""
        n = self.n
        coeffs = self._views[k].poly.coeffs.transpose(1, 0, 2).reshape(n, -1)
        power, col = np.divmod(np.arange((k + 1) * n), n)  # column l * n + r
        moments = np.array([self.moment(m) for m in range(2 * k + 1)])
        out = []
        for c in (0, 1):
            keep = (power + col) % 2 == c
            l, r = power[keep], col[keep]
            part = coeffs[(k + c) % 2::2, keep]
            c_re, c_im = _from_float(part.real), _from_float(part.imag)
            u_re, u_im = self._u_re[r], self._u_im[r]
            y = np.concatenate([c_re * u_re - c_im * u_im, c_re * u_im + c_im * u_re])
            out.append((y, y @ moments[l[:, None] + l, r[:, None], r]))
        return out

    def pair_float(self, i: int, j: int) -> np.ndarray:
        """``<P_i, P_j>`` of the complex128 polynomials of ``_views``,
        paired exactly against the DIGITS-digit moments: with ``Y_k = C_k U``
        for the returned coefficients ``C_k``, the moments for ``a`` are
        ``U S U*``, so ``<P_i, P_j> = Y^i H (Y^j)*`` with the real block Hankel
        ``H[(k, r), (l, s)] = S_{k+l}[r, s]``. As ``W(-t) = S W(t) S`` for
        ``S = diag((-1)**r)``, ``H`` is block diagonal in the class
        ``(l + r) % 2`` of its index and row ``a`` of ``Y^k`` lives in class
        ``(k + a) % 2``. So one product per class does a quarter of the full
        decimal work for the rows and half for a pair, and entries with
        ``i + j + a + b`` odd are exact zeros."""
        if i < j:
            return self.pair_float(j, i).conj().T + 0.0
        with self._lock, localcontext(_CONTEXT):
            while len(self._float_rows) <= i:
                self._float_rows.append(self._class_rows(len(self._float_rows)))
        parts = np.zeros((2, self.n, self.n), dtype=object)  # real, imaginary
        with localcontext(_CONTEXT):
            for c, ((_, v), (y, _)) in enumerate(zip(self._float_rows[i],
                                                     self._float_rows[j])):
                # class c's columns with power l <= j lead the row
                prod, ri, rj = v[:, :y.shape[1]] @ y.T, len(v) // 2, len(y) // 2
                block = slice((i + c) % 2, None, 2), slice((j + c) % 2, None, 2)
                parts[0][block] = prod[:ri, :rj] + prod[ri:, rj:]
                parts[1][block] = prod[ri:, :rj] - prod[:ri, rj:]
        out = np.empty((self.n, self.n), dtype=complex)
        out.real, out.imag = _to_float(parts)
        return out
