"""Small dense complex linear algebra: matrix polynomials, nilpotent matrix
exponentials and iterated commutators.

All matrices are plain ``numpy`` arrays of ``complex128``. Every function
here returns fresh arrays and writes into none of its inputs. A
``MatrixPolynomial`` keeps read-only copies of the coefficients it is given,
so the caller's arrays stay writeable and the polynomial can be read from
several threads at once. Writing into a writeable array the library
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
    "hermitian_residual",
    "max_abs",
    "nilpotent_exp",
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
    return float(np.max(np.abs(a)))


def worst(values: Iterable[float]) -> float:
    """Largest of ``values``, 0 for none, and NaN if any is NaN: unlike a
    fold with ``max``, which keeps its running value when it meets NaN, a NaN
    residual can never be reduced away."""
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the product of two matrix power series, given as
    (n, N, N) tensors: one batched matmul per coefficient of the shorter.
    Each coefficient sums its terms by ascending power of ``a``."""
    out = np.zeros((len(a) + len(b) - 1,) + a.shape[1:], dtype=complex)
    if len(a) <= len(b):
        for k, c in enumerate(a):
            out[k:k + len(b)] += c @ b
    else:
        for k in range(len(b) - 1, -1, -1):
            out[k:k + len(a)] += a @ b[k]
    return out


def hermitian_residual(m: np.ndarray) -> float:
    """max |M - M*|, i.e. the distance from being Hermitian."""
    return max_abs(m - m.conj().T)


class MatrixPolynomial:
    """Polynomial in one real variable with square matrix coefficients.

    ``coeffs[k]`` multiplies ``t**k``. The zero polynomial keeps an explicit
    dimension and has degree -1. Instances are immutable.
    """

    __slots__ = ("_coeffs", "dim")

    def __init__(self, coeffs: Iterable[np.ndarray | Sequence], dim: int | None = None):
        mats = [as_square(c).copy() for c in coeffs]
        if dim is None and not mats:
            raise ValueError("zero polynomial needs an explicit dim")
        dim = mats[0].shape[0] if dim is None else dim
        if any(c.shape[0] != dim for c in mats):
            raise ValueError("all coefficients must share the dimension dim")
        while mats and not np.any(mats[-1]):
            mats.pop()
        for c in mats:
            c.setflags(write=False)
        self._coeffs = tuple(mats)
        self.dim = int(dim)

    @classmethod
    def zero(cls, dim: int) -> "MatrixPolynomial":
        return cls((), dim=dim)

    @classmethod
    def constant(cls, m: np.ndarray) -> "MatrixPolynomial":
        return cls([m])

    @classmethod
    def monomial(cls, m: np.ndarray, power: int) -> "MatrixPolynomial":
        m = as_square(m)
        return cls([np.zeros_like(m)] * power + [m])

    @property
    def coeffs(self) -> tuple[np.ndarray, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, k: int) -> np.ndarray:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return np.zeros((self.dim, self.dim), dtype=complex)

    def __call__(self, t) -> np.ndarray:
        """Value at a scalar t, shape (N, N), or at each entry of a 1-D array
        of t, shape (n_t, N, N), by Horner's rule."""
        x = np.asarray(t)[..., np.newaxis, np.newaxis]
        out = np.zeros(x.shape[:-2] + (self.dim, self.dim), dtype=complex)
        for c in reversed(self._coeffs):
            out = out * x + c
        return out

    def derivative(self, order: int = 1) -> "MatrixPolynomial":
        """Coefficient-wise derivative; degree drops by ``order`` (floor -1)."""
        if order < 0:
            raise ValueError("order must be >= 0")
        return MatrixPolynomial([math.perm(k, order) * self._coeffs[k]
                                 for k in range(order, len(self._coeffs))], dim=self.dim)

    def __add__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        n = max(len(self._coeffs), len(other._coeffs))
        return MatrixPolynomial([self.coeff(k) + other.coeff(k) for k in range(n)], dim=self.dim)

    def __sub__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        n = max(len(self._coeffs), len(other._coeffs))
        return MatrixPolynomial([self.coeff(k) - other.coeff(k) for k in range(n)], dim=self.dim)

    def __neg__(self) -> "MatrixPolynomial":
        return MatrixPolynomial([-c for c in self._coeffs], dim=self.dim)

    def __mul__(self, other):
        if isinstance(other, MatrixPolynomial):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            if not self._coeffs or not other._coeffs:
                return MatrixPolynomial.zero(self.dim)
            return MatrixPolynomial(convolve(np.array(self._coeffs), np.array(other._coeffs)),
                                    dim=self.dim)
        return MatrixPolynomial([other * c for c in self._coeffs], dim=self.dim)

    __rmul__ = __mul__

    def lmul(self, m: np.ndarray) -> "MatrixPolynomial":
        """Constant matrix times polynomial: ``m @ P(t)``."""
        m = as_square(m, self.dim)
        return MatrixPolynomial([m @ c for c in self._coeffs], dim=self.dim)

    def conj_t(self) -> "MatrixPolynomial":
        """Coefficient-wise conjugate transpose (the adjoint for real t)."""
        return MatrixPolynomial([c.conj().T for c in self._coeffs], dim=self.dim)

    def max_coeff(self) -> float:
        return worst(max_abs(c) for c in self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if self.dim != other.dim or len(self._coeffs) != len(other._coeffs):
            return False
        return all(np.array_equal(a, b) for a, b in zip(self._coeffs, other._coeffs))

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
