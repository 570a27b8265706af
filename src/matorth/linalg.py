"""Small dense complex linear algebra: matrix polynomials, nilpotent matrix
exponentials and iterated commutators.

All matrices are plain ``numpy`` arrays of ``complex128``. Every function
here returns fresh arrays and writes into none of its inputs. A
``MatrixPolynomial`` keeps its coefficients in one read-only tensor: a copy
of the matrices it is given, so the caller's arrays stay writeable, or the
fresh tensor an operation computed, taken over without a second copy. The
polynomial can therefore be read from several threads at once. Writing into a writeable array the library
returned is safe only while no other thread reads it. For which library
calls may run concurrently, see the README's "Threads" section.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MatrixPolynomial",
    "ad_power",
    "as_square",
    "convolve",
    "max_abs",
    "nilpotent_exp",
    "peaks",
    "worst",
]


def as_square(m: np.ndarray | Sequence, dim: int | None = None) -> np.ndarray:
    """Coerce ``m`` to a square complex128 array, validating its shape."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {a.shape[0]}")
    return a


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; 0 for empty input."""
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def peaks(a: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of each matrix of a (..., N, N) stack."""
    return np.abs(a).max(axis=(-2, -1))


def worst(values: Iterable[float]) -> float:
    """Largest of ``values``, 0 for none, and NaN if any is NaN: unlike a
    fold with ``max``, which keeps its running value when it meets NaN, a NaN
    residual can never be reduced away."""
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


def _chunks(items: Sequence, entries: int) -> list[Sequence]:
    """``items`` in runs of at most 512 matrix entries at ``entries`` an item, or one item."""
    step = max(1, 512 // entries)
    return [items[k:k + step] for k in range(0, len(items), step)]


def _padded(polys: Sequence["MatrixPolynomial"], length: int) -> np.ndarray:
    """The coefficient tensors of ``polys`` stacked, zero-padded to ``length``."""
    out = np.zeros((len(polys), length, polys[0].dim, polys[0].dim), dtype=complex)
    for row, poly in zip(out, polys):
        row[:len(poly.coeffs)] = poly.coeffs
    return out


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the product of two matrix power series, given as
    (..., n, N, N) tensors whose leading axes broadcast: one batched matmul
    per coefficient of the shorter. Each coefficient sums its terms by
    ascending power of ``a``."""
    n, m = a.shape[-3], b.shape[-3]
    lead = np.broadcast(np.empty(a.shape[:-3]), np.empty(b.shape[:-3])).shape
    out = np.zeros(lead + (n + m - 1 if n and m else 0,) + a.shape[-2:], dtype=complex)
    if n <= m:
        for k in range(n):
            out[..., k:k + m, :, :] += a[..., k, None, :, :] @ b
    else:
        for k in range(m - 1, -1, -1):
            out[..., k:k + n, :, :] += a @ b[..., k, None, :, :]
    return out


class MatrixPolynomial:
    """Polynomial in one real variable with square matrix coefficients.

    ``coeffs`` is one read-only tensor of shape (degree+1, N, N) whose index
    k multiplies ``t**k``; its top coefficient is nonzero, so the zero
    polynomial has degree -1 and keeps an explicit dimension. Instances are
    immutable: the constructor copies the matrices it is given, and the
    results of operations take over the fresh tensor they computed.
    """

    __slots__ = ("coeffs", "dim")

    def __init__(self, coeffs: Iterable[np.ndarray | Sequence], dim: int | None = None):
        mats = [as_square(c) for c in coeffs]
        if dim is None and not mats:
            raise ValueError("zero polynomial needs an explicit dim")
        dim = mats[0].shape[0] if dim is None else int(dim)
        if any(c.shape[0] != dim for c in mats):
            raise ValueError("all coefficients must share the dimension dim")
        self._own(np.array(mats, dtype=complex).reshape(-1, dim, dim))

    def _own(self, v: np.ndarray) -> "MatrixPolynomial":
        """Keep ``v`` read-only, without its zero top coefficients."""
        top = len(v)
        while top and not np.count_nonzero(v[top - 1]):
            top -= 1
        if top < len(v):
            v = v[:top].copy()  # a trimmed copy lets the untrimmed array go
        v.setflags(write=False)
        self.coeffs, self.dim = v, v.shape[1]
        return self

    @classmethod
    def _of(cls, v: np.ndarray) -> "MatrixPolynomial":
        """The polynomial of a fresh (n, N, N) tensor, taken over, not copied."""
        return cls.__new__(cls)._own(v)

    @classmethod
    def constant(cls, m: np.ndarray) -> "MatrixPolynomial":
        return cls([m])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> np.ndarray:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return np.zeros((self.dim, self.dim), dtype=complex)

    def __call__(self, t) -> np.ndarray:
        """Value at a scalar t, shape (N, N), or at each entry of a 1-D array
        of t, shape (n_t, N, N), by Horner's rule: a Python float multiplies
        as ``complex(t)``, any other t as an array, with the same arithmetic."""
        scalar = isinstance(t, float)
        x = complex(t) if scalar else np.asarray(t)[..., np.newaxis, np.newaxis]
        out = np.zeros((() if scalar else x.shape[:-2]) + (self.dim, self.dim), dtype=complex)
        for k in range(len(self.coeffs) - 1, -1, -1):
            out *= x
            out += self.coeffs[k]
        return out

    def derivative(self, order: int = 1) -> "MatrixPolynomial":
        """Coefficient-wise derivative; degree drops by ``order`` (floor -1)."""
        if order < 0:
            raise ValueError("order must be >= 0")
        factors = [float(math.perm(k, order)) for k in range(order, len(self.coeffs))]
        return MatrixPolynomial._of(np.array(factors)[:, None, None] * self.coeffs[order:])

    def __add__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[:len(b)] += b
        return MatrixPolynomial._of(out)

    def __sub__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        return self + (-other)

    def __neg__(self) -> "MatrixPolynomial":
        return MatrixPolynomial._of(-self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return MatrixPolynomial._of(other * self.coeffs)
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return MatrixPolynomial._of(convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def lmul(self, m: np.ndarray) -> "MatrixPolynomial":
        """Constant matrix times polynomial: ``m @ P(t)``."""
        return MatrixPolynomial._of(as_square(m, self.dim) @ self.coeffs)

    def conj_t(self) -> "MatrixPolynomial":
        """Coefficient-wise conjugate transpose (the adjoint for real t)."""
        return MatrixPolynomial._of(np.conjugate(self.coeffs.transpose(0, 2, 1), order="C"))

    def max_coeff(self) -> float:
        return max_abs(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self) -> str:
        return f"MatrixPolynomial(dim={self.dim}, degree={self.degree})"


def nilpotent_exp(m: np.ndarray) -> MatrixPolynomial:
    """Exact matrix exponential ``exp(m t)`` of a nilpotent matrix.

    The series terminates, so the result is a polynomial of degree < N with
    coefficients ``m**k / k!``. Non-nilpotent input is rejected: ``m**N`` must
    vanish up to ``1e-14 * max(1, |m|_max**N)``.
    """
    m = as_square(m)
    n = m.shape[0]
    powers = [np.eye(n, dtype=complex)]
    for _ in range(n):
        powers.append(powers[-1] @ m)
    tol = 1e-14 * max(1.0, max_abs(m) ** n)
    if max_abs(powers[n]) > tol:
        raise ValueError("matrix is not nilpotent (m**N does not vanish)")
    coeffs = [powers[k] / math.factorial(k) for k in range(n)]
    return MatrixPolynomial(coeffs, dim=n)


def ad_power(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Iterated commutator: ad^0 = y, ad^{k+1} = [x, ad^k]."""
    x = as_square(x)
    y = as_square(y, x.shape[0])
    if n < 0:
        raise ValueError("n must be >= 0")
    out = y
    for _ in range(n):
        out = x @ out - out @ x
    return out
