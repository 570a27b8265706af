"""Exact function algebra for matrices whose entries are finite sums of
``t**k``, ``t**k * exp(-c t**2)`` and ``t**k * erf(sqrt(c) t)`` atoms,
closed under differentiation and under multiplication by matrix polynomials.

A function holds one read-only coefficient tensor of shape (degree+1, N, N)
per ``(kind, scale)`` key; index k of the ``(GAUSS, c)`` tensor multiplies
``t**k exp(-c t**2)``. Products are batched matmuls over shifted slices, a
derivative is a shift plus a scale, and evaluation is one Horner pass over a
1-D array of t. Scales are keyed by their exact float: the weight has at
most N of them. Gaussian atoms with ``c <= 0`` appear transiently inside
products (``exp(-t**2) * exp(b t**2)``); they must cancel before a result is
read as a polynomial, and they cannot be integrated.
"""
from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .linalg import MatrixPolynomial, as_square, convolve, max_abs, worst

__all__ = ["Atom", "GaussErfMatrix", "PLAIN", "GAUSS", "ERF", "gauss_integral"]

PLAIN = "plain"
GAUSS = "gauss"
ERF = "erf"

_erf = np.vectorize(math.erf, otypes=[float])


class Atom(NamedTuple):
    """One basis function ``t**power * f(t)`` with ``f`` fixed by ``kind``."""

    power: int
    kind: str
    scale: float


def _key(kind: str, scale: float) -> tuple[str, float]:
    """Canonical (kind, scale): a Gaussian of scale 0 is a plain power."""
    if kind == PLAIN or (kind == GAUSS and scale == 0.0):
        return PLAIN, 0.0
    return kind, scale


def atom(power: int, kind: str, scale: float = 0.0) -> Atom:
    """Canonical atom: a Gaussian of scale 0 is a plain power."""
    if power < 0:
        raise ValueError("atom power must be >= 0")
    if kind == ERF and scale <= 0.0:
        raise ValueError("erf atoms need a positive scale")
    return Atom(power, *_key(kind, scale))


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[:len(b)] += b
    return out


def _double_factorial(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def gauss_integral(power: int, scale: float) -> float:
    """Exact ``integral over R of t**power * exp(-scale t**2) dt``."""
    if scale <= 0.0:
        raise ValueError("divergent integral: Gaussian scale must be positive")
    if power % 2:
        return 0.0
    m = power // 2
    return math.sqrt(math.pi) * _double_factorial(2 * m - 1) / (2.0 ** m * scale ** (m + 0.5))


class GaussErfMatrix:
    """Matrix-valued function ``sum_a C_a * atom_a(t)``, built from
    ``(Atom, matrix)`` pairs and ``((kind, scale), tensor)`` pairs (taken
    over, not copied). ``tensors`` maps each key to its coefficients by
    power: equal keys merged, zero top powers trimmed, all-zero keys dropped.
    ``terms`` views the nonzero coefficients keyed by :class:`Atom`."""

    __slots__ = ("dim", "tensors")

    def __init__(self, dim: int, terms: Iterable[tuple[Atom, np.ndarray]] = (),
                 tensors: Iterable[tuple[tuple[str, float], np.ndarray]] = ()):
        items = list(tensors)
        for a, c in terms:
            v = np.zeros((a.power + 1, dim, dim), dtype=complex)
            v[a.power] = as_square(c, dim)
            items.append(((a.kind, a.scale), v))
        merged: dict[tuple[str, float], np.ndarray] = {}
        for key, v in items:
            key = _key(*key)
            merged[key] = _add(merged[key], v) if key in merged else v
        self.dim = int(dim)
        self.tensors = {}
        for key, v in merged.items():
            top = len(v)
            while top and not v[top - 1].any():
                top -= 1
            if top:
                # a trimmed copy lets the untrimmed array go
                v = v[:top].copy() if top < len(v) else v[:]
                v.setflags(write=False)
                self.tensors[key] = v

    def _map(self, fn) -> "GaussErfMatrix":
        return GaussErfMatrix(self.dim, tensors=((key, fn(v)) for key, v in self.tensors.items()))

    @property
    def terms(self) -> Mapping[Atom, np.ndarray]:
        return MappingProxyType({Atom(k, *key): c for key, v in self.tensors.items()
                                 for k, c in enumerate(v) if np.any(c)})

    @classmethod
    def from_polynomial(cls, p: MatrixPolynomial) -> "GaussErfMatrix":
        return cls(p.dim, tensors=[((PLAIN, 0.0), np.array(p.coeffs).reshape(-1, p.dim, p.dim))])

    def __add__(self, other: "GaussErfMatrix") -> "GaussErfMatrix":
        return GaussErfMatrix(self.dim, tensors=[*self.tensors.items(), *other.tensors.items()])

    def __sub__(self, other: "GaussErfMatrix") -> "GaussErfMatrix":
        return self + (-other)

    def __mul__(self, scalar) -> "GaussErfMatrix":
        return self._map(lambda v: scalar * v)

    __rmul__ = __mul__

    def __neg__(self) -> "GaussErfMatrix":
        return self._map(np.negative)

    def __matmul__(self, other: "GaussErfMatrix") -> "GaussErfMatrix":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        items = []
        for (k1, s1), v1 in self.tensors.items():
            for (k2, s2), v2 in other.tensors.items():
                if ERF in (k1, k2) and PLAIN not in (k1, k2):
                    raise ValueError("erf atoms can only be multiplied by polynomial factors")
                key = (k1 if k2 == PLAIN else k2, s1 + s2)
                items.append((key, convolve(v1, v2)))
        return GaussErfMatrix(self.dim, tensors=items)

    def lmul(self, m: np.ndarray) -> "GaussErfMatrix":
        m = as_square(m, self.dim)
        return self._map(lambda v: m @ v)

    def poly_mul(self, p: MatrixPolynomial, side: str = "right") -> "GaussErfMatrix":
        """``self(t) @ p(t)`` for side="right", ``p(t) @ self(t)`` for side="left"."""
        if p.dim != self.dim:
            raise ValueError("dimension mismatch")
        q = np.array(p.coeffs).reshape(-1, p.dim, p.dim)
        return self._map(lambda v: convolve(v, q) if side == "right" else convolve(q, v))

    def conj_t(self) -> "GaussErfMatrix":
        """Pointwise conjugate transpose (atoms are real-valued on R)."""
        return self._map(lambda v: v.conj().transpose(0, 2, 1))

    def derivative(self, order: int = 1) -> "GaussErfMatrix":
        out = self
        for _ in range(order):
            items = []
            for (kind, s), v in out.tensors.items():
                d = np.zeros((len(v) + (kind == GAUSS),) + v.shape[1:], dtype=complex)
                d[:len(v) - 1] = np.arange(1, len(v))[:, None, None] * v[1:]
                if kind == GAUSS:
                    d[1:] += -2.0 * s * v
                elif kind == ERF:
                    items.append(((GAUSS, s), 2.0 * math.sqrt(s) / math.sqrt(math.pi) * v))
                items.append(((kind, s), d))
            out = GaussErfMatrix(self.dim, tensors=items)
        return out

    def __call__(self, t) -> np.ndarray:
        """Value at a scalar t, shape (N, N), or at each entry of a 1-D array
        of t, shape (n_t, N, N)."""
        ts = np.asarray(t, dtype=float)
        x = ts[..., None, None]
        out = np.zeros(ts.shape + (self.dim, self.dim), dtype=complex)
        for (kind, s), v in self.tensors.items():
            acc = v[-1]
            for c in v[-2::-1]:
                acc = acc * x + c
            if kind == GAUSS:
                acc = acc * np.exp(-s * x * x)
            elif kind == ERF:
                acc = acc * _erf(math.sqrt(s) * x)
            out = out + acc
        return out

    def integrate(self, extra_power: int = 0) -> np.ndarray:
        """Exact ``integral over R of t**extra_power * self(t) dt``, summed
        key by key and power by power. Only Gaussian atoms of positive scale
        are integrable; plain or erf atoms raise."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (kind, s), v in self.tensors.items():
            if kind != GAUSS:
                raise ValueError(f"cannot integrate a {kind} atom over R")
            for k, c in enumerate(v):
                out += gauss_integral(k + extra_power, s) * c
        return out

    def max_coeff(self) -> float:
        return worst(max_abs(v) for v in self.tensors.values())

    def to_polynomial(self, residual_tol: float = 1e-9) -> MatrixPolynomial:
        """Collapse to a matrix polynomial, requiring all transcendental atoms
        to have cancelled: a non-plain coefficient above ``residual_tol``
        relative to the largest coefficient, or any NaN, signals a
        construction bug and raises. Sub-tolerance residue (including plain
        dust above the true degree) is dropped."""
        scale = worst((1.0, self.max_coeff()))
        residue = worst(max_abs(v) for (kind, _), v in self.tensors.items() if kind != PLAIN)
        if not residue <= residual_tol * scale:
            raise ArithmeticError(
                f"transcendental atoms did not cancel (residual {residue:.3e} "
                f"vs scale {scale:.3e})")
        coeffs = list(self.tensors.get((PLAIN, 0.0), ()))
        while coeffs and max_abs(coeffs[-1]) <= residual_tol * scale:
            coeffs.pop()
        return MatrixPolynomial(coeffs, dim=self.dim)

    def __repr__(self) -> str:
        return f"GaussErfMatrix(dim={self.dim}, keys={list(self.tensors)})"
