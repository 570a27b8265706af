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

Parity blocks: as ``W(-t) = S W(t) S`` for ``S = diag((-1)**r)``, entry
``(a, b)`` of a matrix of parity ``q`` is an exact zero when ``a + b + q``
is odd. ``S_m`` has parity m, coefficient l of ``P_k`` and the row
``V_l = <P_k, t**l I>`` have k + l, ``Bhat_k`` has 1, and ``H_k``, its
Cholesky factor, ``Delta_k``, ``H_k^-1`` and ``Chat_k`` have 0. Every decimal
product runs on the nonzero blocks only (rows ``a::2``, columns
``(a + q)::2``), about a quarter of the full multiply-adds. Each entry sums
the same nonzero terms in the same order as the full product: the inner
index ascending, the outer sum (over ``k``, ``l`` or the moment terms) folded
left to right. As ``x + 0`` is exact, every value is the full product's to
the last digit. Merging the two sums into one product would regroup them.

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
from typing import Sequence

import numpy as np

from .linalg import MatrixPolynomial
from .weights import (CACHE_SIZE, WeightParams, alpha_coeff, column_outers,
                      odd_series, scale_diagonals)

# 51 digits hold at least the 169 bits of a 50-digit binary build; at 50 the
# b = 1e6 member loses positive definiteness one degree earlier
DIGITS = 51

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


@lru_cache(maxsize=CACHE_SIZE)
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
    """Factor a symmetric positive definite parity-0 matrix as U U^T, U upper
    triangular with positive diagonal and parity 0: each sum runs in one class."""
    n = len(a)
    u = np.zeros((n, n), dtype=object)
    for j in range(n - 1, -1, -1):
        d = a[j, j] - sum(u[j, k] * u[j, k] for k in range(j + 2, n, 2))
        if d <= 0:
            raise ArithmeticError("matrix is not positive definite")
        u[j, j] = d.sqrt()
        for i in range(j % 2, j, 2):
            s = a[i, j] - sum(u[i, k] * u[j, k] for k in range(j + 2, n, 2))
            u[i, j] = s / u[j, j]
    return u


def _inv_upper(u: np.ndarray) -> np.ndarray:
    """Inverse of an upper triangular parity-0 matrix by back substitution."""
    n = len(u)
    out = np.zeros((n, n), dtype=object)
    for j in range(n):
        out[j, j] = 1 / u[j, j]
        for i in range(j - 2, -1, -2):
            s = sum(u[i, k] * out[k, j] for k in range(i + 2, j + 1, 2))
            out[i, j] = -s / u[i, i]
    return out


def _mul(x: np.ndarray, qx: int, y: np.ndarray, qy: int) -> np.ndarray:
    """``x @ y`` for ``x`` of parity ``qx`` and ``y`` of parity ``qy``, either
    one possibly a stack of one parity, on their nonzero blocks only; two
    stacks are of one shape."""
    out = np.zeros((x if x.ndim >= y.ndim else y).shape, dtype=object)
    for a in (0, 1):
        j, b = (a + qx) % 2, (a + qx + qy) % 2
        out[..., a::2, b::2] = x[..., a::2, j::2] @ y[..., j::2, b::2]
    return out


def _fold(xs: np.ndarray, qx: int, ys: np.ndarray, qy: int) -> np.ndarray:
    """``sum_l xs[l] @ ys[l]`` for ``xs[l]`` of parity ``qx + l`` and ``ys[l]``
    of parity ``qy + l``, the products stacked and summed in the order of l."""
    prods = np.empty(xs.shape, dtype=object)
    for g in (0, 1):
        prods[g::2] = _mul(xs[g::2], qx + g, ys[g::2], qy + g)
    return prods.sum(axis=0)


def _start(n: int, r: int, m: int) -> int:
    """The first column of ``S_m`` in the strip of row class ``r``, whose
    blocks are ``len(range(r, n, 2))`` and ``len(range(1 - r, n, 2))`` wide."""
    return m // 2 * n + m % 2 * len(range(r, n, 2))


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

    ``extend`` (with the moments and the class strips of ``_row``) and the
    float rows of ``pair_column`` grow under the family's lock, so one family
    may be shared between threads; what has been built is never changed, nor
    is ``stop`` once set.
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
        # per parity p of the order: the terms (c, d) of every moment of that
        # parity, d + p even, and per row class a their stacked class blocks
        self._terms = [[(c, d) for c, outer in enumerate(self._outers)
                        for d in range(len(outer)) if (d + p) % 2 == 0] for p in (0, 1)]
        self._outer_blocks = [[np.array([self._outers[c][d][a::2, (a + p) % 2::2]
                                         for c, d in self._terms[p]]) for a in (0, 1)]
                              for p in (0, 1)]
        self._gauss: dict[tuple[int, int], Decimal] = {}
        self._moments: list[np.ndarray] = []
        # per row class r, the moments' strip and how many moments it holds
        self._strips = [(np.empty((len(range(r, n, 2)), 0), dtype=object), 0)
                        for r in (0, 1)]
        self.polys: list[np.ndarray] = []   # polys[k][power] = matrix
        self.norms: list[np.ndarray] = []
        self._deltas: list[np.ndarray] = []       # inverse upper Cholesky factors
        self._norm_inv: np.ndarray | None = None  # H_top^-1, for the next Chat
        self._bhat: list[np.ndarray] = []
        self._chat: list[np.ndarray] = []
        # per returned polynomial, per parity class: its coefficients times
        # U and their rows against the moments (see pair_column)
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
        """``S_m``, each class block summed over the terms (c, d), d + m even."""
        while len(self._moments) <= m:
            k = len(self._moments)
            gauss = np.array([self._gauss_moment(d + k, c) for c, d in self._terms[k % 2]],
                             dtype=object)[:, None, None]
            out = np.zeros((self.n, self.n), dtype=object)
            for a in (0, 1):
                out[a::2, (a + k) % 2::2] = (self._outer_blocks[k % 2][a] * gauss).sum(axis=0)
            self._moments.append(out)
        return self._moments[m]

    def _strip(self, r: int, end: int) -> np.ndarray:
        """The rows ``r::2`` of the moments ``S_m``, m < ``end``, on their nonzero
        columns, side by side: ``S_m`` starts at column ``_start(n, r, m)``."""
        strip, have = self._strips[r]
        if have < end:
            strip = np.concatenate([strip] + [self.moment(m)[r::2, (m + r) % 2::2]
                                              for m in range(have, end)], axis=1)
            self._strips[r] = strip, end
        return strip

    def _row(self, coeffs: np.ndarray | list[np.ndarray], length: int) -> np.ndarray:
        """``V_l = <P, t**l I> = sum_k C_k S_{k+l}`` for l < ``length``, stacked.
        Row a of ``C_k`` meets only rows j of ``S_{k+l}`` with a + j + top + k
        even: per row class and k, one product against j's strip gives every l."""
        top = len(coeffs) - 1
        out = np.zeros((length, self.n, self.n), dtype=object)
        for a in (0, 1):
            s, acc = (a + top) % 2, 0
            for k, c in enumerate(coeffs):
                r = (s + k) % 2
                cols = slice(_start(self.n, r, k), _start(self.n, r, k + length))
                acc = acc + c[a::2, r::2] @ self._strip(r, k + length)[:, cols]
            # block l of acc is as wide as S_l's in the strip of row class s
            for l in range(length):
                cols = slice(_start(self.n, s, l), _start(self.n, s, l + 1))
                out[l, a::2, (s + l) % 2::2] = acc[:, cols]
        return out

    def _append(self, coeffs: np.ndarray):
        """Add the next monic polynomial P with its squared norm H, the
        Cholesky factor and normalizer of H, and the recurrence coefficients
        ``B = <t P, P> H^-1`` and ``C = H H_prev^-1``. Raises ArithmeticError,
        adding nothing, when H is not positive definite."""
        k = len(coeffs) - 1
        row, coeffs_t = self._row(coeffs, k + 2), coeffs.transpose(0, 2, 1)
        norm = _fold(row[:-1], k, coeffs_t, k)
        chol = _chol_upper(norm)
        self._chat.append(_mul(norm, 0, self._norm_inv, 0) if k
                          else np.zeros((self.n, self.n), dtype=object))
        self.polys.append(coeffs)
        self.norms.append(norm)
        delta = _inv_upper(chol)
        self._deltas.append(delta)
        self._norm_inv = _mul(delta.T, 0, delta, 0)  # H_k^-1 = Delta_k^T Delta_k
        bhat = _mul(_fold(row[1:], k + 1, coeffs_t, k), 1, self._norm_inv, 0)
        self._bhat.append(bhat)
        # orthonormal A_k = Delta_{k-1} U_k (a zero pad at k = 0) and
        # B_k = Delta_k Bhat_k U_k, with U_k the upper Cholesky factor of H_k
        a = _mul(self._deltas[k - 1], 0, chol, 0) if k else np.zeros_like(chol)
        tables = np.stack((norm, bhat, self._chat[k], delta, a,
                           _mul(_mul(delta, 0, bhat, 1), 1, chol, 0)))
        self._views.append(_Views(MatrixPolynomial._of(self._complex(coeffs)),
                                  *self._complex(tables)))

    def extend(self, nmax: int):
        """Grow the monic sequence from ``P_0 = I`` to degree ``nmax`` by the recurrence
        ``P_{k+1} = (t - B_k) P_k - C_k P_{k-1}`` (the Stieltjes procedure)."""
        with self._lock, localcontext(_CONTEXT):
            while self.stop is None and self.top < nmax:
                k = self.top
                nxt = np.identity(self.n, dtype=object)[None]
                if self.polys:
                    # coefficient j of P_k has parity k + j, Bhat_k 1, Chat_k 0
                    nxt = np.zeros((k + 2, self.n, self.n), dtype=object)
                    nxt[1:] = self.polys[k]
                    for g in (0, 1):
                        nxt[g:k + 1:2] -= _mul(self._bhat[k], 1, self.polys[k][g::2], k + g)
                        if k > 0:
                            nxt[g:k:2] -= _mul(self._chat[k], 0, self.polys[k - 1][g::2],
                                               k - 1 + g)
                try:
                    self._append(nxt)
                except ArithmeticError as exc:
                    self.stop = f"norm positive definiteness lost at degree {k + 1}: {exc}"

    # -- complex128 views ------------------------------------------------------

    def _complex(self, x: np.ndarray) -> np.ndarray:
        """The matrices for ``a`` of the real state ``x`` for ``|a|``,
        ``u_i conj(u_j) x_ij``, rounded to complex128, read-only."""
        out = np.empty(x.shape, dtype=complex)
        with localcontext(_CONTEXT):
            out.real = _to_float(x * self._phase_re)
            out.imag = _to_float(x * self._phase_im)
        out.setflags(write=False)
        return out

    def _class_rows(self, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per class ``c`` of ``pair_column``: the rows of ``Y_k`` in class
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

    def pair_column(self, j: int, degrees: Sequence[int]) -> np.ndarray:
        """``<P_i, P_j>`` for each i >= j of ``degrees``, stacked, of the
        complex128 polynomials of ``_views``: with ``Y_k = C_k U`` for their
        coefficients ``C_k``, ``Y^i H (Y^j)*`` for the real block Hankel
        ``H[(k, r), (l, s)] = S_{k+l}[r, s]``, block diagonal in the class
        ``(l + r) % 2``; row ``a`` of ``Y^k`` is in class ``(k + a) % 2``. One
        product per class of the rows ``Y^i H``, stacked and cut to the width of
        ``Y^j``, sums each entry as its own pair would; odd ``i + j + a + b`` is 0."""
        with self._lock, localcontext(_CONTEXT):
            while len(self._float_rows) <= max(j, *degrees):
                self._float_rows.append(self._class_rows(len(self._float_rows)))
        parts = np.zeros((2, len(degrees), self.n, self.n), dtype=object)  # real, imaginary
        with localcontext(_CONTEXT):
            for c, (y, _) in enumerate(self._float_rows[j]):
                # the real rows of each i, then the imaginary ones, cut to y's width
                vs = [self._float_rows[i][c][1][:, :y.shape[1]] for i in degrees]
                stack = np.concatenate([v[:len(v) // 2] for v in vs]
                                       + [v[len(v) // 2:] for v in vs])
                prod, ri, rj = stack @ y.T, len(stack) // 2, len(y) // 2
                # the place q of each real row's degree, and its row a
                q, a = zip(*[(q, a) for q, i in enumerate(degrees)
                             for a in range((i + c) % 2, self.n, 2)])
                block = q, a, slice((j + c) % 2, None, 2)
                parts[0][block] = prod[:ri, :rj] + prod[ri:, rj:]
                parts[1][block] = prod[ri:, :rj] - prod[:ri, rj:]
        out = np.empty(parts.shape[1:], dtype=complex)
        out.real, out.imag = _to_float(parts)
        return out

    def pair_float(self, i: int, j: int) -> np.ndarray:
        """``<P_i, P_j>``: the one-entry case of ``pair_column``."""
        return self.pair_column(j, (i,))[0] if i >= j else self.pair_float(j, i).conj().T + 0.0
