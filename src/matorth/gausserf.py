"""Exact function algebra for matrices whose entries are finite sums of
``t**k``, ``t**k * exp(-c t**2)`` and ``t**k * erf(sqrt(c) t)`` atoms.

The algebra is closed under differentiation and under multiplication by
matrix polynomials, which is what the Rodrigues-style computations need.
Gaussian scales are keyed by the exact stored float, never by fuzzy
matching: the weight family only ever produces a handful of distinct
scales, each computed once.

Gaussian atoms with ``c <= 0`` can appear transiently inside products
(e.g. ``exp(-t**2) * exp(b t**2)``); they must cancel before a result is
interpreted as a polynomial, and they cannot be integrated.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .linalg import MatrixPolynomial, as_square, max_abs, worst

__all__ = ["Atom", "GaussErfMatrix", "PLAIN", "GAUSS", "ERF", "gauss_integral"]

PLAIN = "plain"
GAUSS = "gauss"
ERF = "erf"


class Atom(NamedTuple):
    """One basis function ``t**power * f(t)`` with ``f`` fixed by ``kind``."""

    power: int
    kind: str
    scale: float

    def value(self, t: float) -> float:
        if self.kind == PLAIN:
            return t ** self.power
        if self.kind == GAUSS:
            return t ** self.power * math.exp(-self.scale * t * t)
        return t ** self.power * math.erf(math.sqrt(self.scale) * t)


def atom(power: int, kind: str, scale: float = 0.0) -> Atom:
    """Canonical atom: a Gaussian of scale 0 is a plain power."""
    if power < 0:
        raise ValueError("atom power must be >= 0")
    if kind == GAUSS and scale == 0.0:
        kind = PLAIN
    if kind == PLAIN:
        scale = 0.0
    if kind == ERF and scale <= 0.0:
        raise ValueError("erf atoms need a positive scale")
    return Atom(power, kind, scale)


def _atom_product(a: Atom, b: Atom) -> Atom:
    if a.kind == PLAIN:
        return atom(a.power + b.power, b.kind, b.scale)
    if b.kind == PLAIN:
        return atom(a.power + b.power, a.kind, a.scale)
    if a.kind == GAUSS and b.kind == GAUSS:
        return atom(a.power + b.power, GAUSS, a.scale + b.scale)
    raise ValueError("erf atoms can only be multiplied by polynomial factors")


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
    """Matrix-valued function stored as ``sum_a C_a * atom_a(t)``.

    ``terms`` maps each :class:`Atom` to its full N x N coefficient matrix;
    identical atoms are merged and exactly-zero coefficient matrices dropped,
    so construction is canonicalizing and idempotent.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Iterable[tuple[Atom, np.ndarray]] = ()):
        merged: dict[Atom, np.ndarray] = {}
        for a, c in terms:
            c = as_square(c, dim)
            if a in merged:
                merged[a] = merged[a] + c
            else:
                merged[a] = c.astype(complex, copy=True)
        for a in [k for k, v in merged.items() if not np.any(v)]:
            del merged[a]
        for v in merged.values():
            v.setflags(write=False)
        self.dim = int(dim)
        self.terms = merged

    @classmethod
    def zero(cls, dim: int) -> "GaussErfMatrix":
        return cls(dim)

    @classmethod
    def from_polynomial(cls, p: MatrixPolynomial) -> "GaussErfMatrix":
        return cls(p.dim, ((atom(k, PLAIN), c) for k, c in enumerate(p.coeffs)))

    def __add__(self, other: "GaussErfMatrix") -> "GaussErfMatrix":
        items = list(self.terms.items()) + list(other.terms.items())
        return GaussErfMatrix(self.dim, items)

    def __sub__(self, other: "GaussErfMatrix") -> "GaussErfMatrix":
        items = list(self.terms.items()) + [(a, -c) for a, c in other.terms.items()]
        return GaussErfMatrix(self.dim, items)

    def __mul__(self, scalar) -> "GaussErfMatrix":
        return GaussErfMatrix(self.dim, ((a, scalar * c) for a, c in self.terms.items()))

    __rmul__ = __mul__

    def __neg__(self) -> "GaussErfMatrix":
        return self * (-1.0)

    def __matmul__(self, other: "GaussErfMatrix") -> "GaussErfMatrix":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        items = []
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                items.append((_atom_product(a1, a2), c1 @ c2))
        return GaussErfMatrix(self.dim, items)

    def lmul(self, m: np.ndarray) -> "GaussErfMatrix":
        m = as_square(m, self.dim)
        return GaussErfMatrix(self.dim, ((a, m @ c) for a, c in self.terms.items()))

    def poly_mul(self, p: MatrixPolynomial, side: str = "right") -> "GaussErfMatrix":
        """``self(t) @ p(t)`` for side="right", ``p(t) @ self(t)`` for side="left"."""
        if p.dim != self.dim:
            raise ValueError("dimension mismatch")
        items = []
        for a, c in self.terms.items():
            for k, pk in enumerate(p.coeffs):
                shifted = atom(a.power + k, a.kind, a.scale)
                items.append((shifted, c @ pk if side == "right" else pk @ c))
        return GaussErfMatrix(self.dim, items)

    def conj_t(self) -> "GaussErfMatrix":
        """Pointwise conjugate transpose (atoms are real-valued on R)."""
        return GaussErfMatrix(self.dim, ((a, c.conj().T) for a, c in self.terms.items()))

    def derivative(self, order: int = 1) -> "GaussErfMatrix":
        out = self
        for _ in range(order):
            items = []
            for a, c in out.terms.items():
                if a.power >= 1:
                    items.append((atom(a.power - 1, a.kind, a.scale), a.power * c))
                if a.kind == GAUSS:
                    items.append((atom(a.power + 1, GAUSS, a.scale), -2.0 * a.scale * c))
                elif a.kind == ERF:
                    items.append((atom(a.power, GAUSS, a.scale),
                                  2.0 * math.sqrt(a.scale) / math.sqrt(math.pi) * c))
            out = GaussErfMatrix(self.dim, items)
        return out

    def __call__(self, t: float) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a, c in self.terms.items():
            out += a.value(t) * c
        return out

    def integrate(self, extra_power: int = 0) -> np.ndarray:
        """Exact ``integral over R of t**extra_power * self(t) dt``.

        Only Gaussian atoms with positive scale are integrable here; plain or
        erf atoms in the sum mean the integral is not available in closed form
        and raise.
        """
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a, c in self.terms.items():
            if a.kind != GAUSS:
                raise ValueError(f"cannot integrate a {a.kind} atom over R")
            out += gauss_integral(a.power + extra_power, a.scale) * c
        return out

    def max_coeff(self) -> float:
        return worst(max_abs(c) for c in self.terms.values())

    def to_polynomial(self, residual_tol: float = 1e-9) -> MatrixPolynomial:
        """Collapse to a matrix polynomial, requiring all transcendental atoms
        to have cancelled.

        A non-plain atom whose coefficient exceeds ``residual_tol`` relative
        to the largest coefficient, or any NaN coefficient, signals a
        construction bug and raises.
        Sub-tolerance residue (including plain dust above the true degree) is
        dropped.
        """
        scale = worst((1.0, self.max_coeff()))
        residue = worst(max_abs(c) for a, c in self.terms.items() if a.kind != PLAIN)
        if not residue <= residual_tol * scale:
            raise ArithmeticError(
                f"transcendental atoms did not cancel (residual {residue:.3e} "
                f"vs scale {scale:.3e})")
        parts: dict[int, np.ndarray] = {}
        for a, c in self.terms.items():
            if a.kind == PLAIN:
                parts[a.power] = parts.get(a.power, 0) + c
        if not parts:
            return MatrixPolynomial.zero(self.dim)
        deg = max(parts)
        coeffs = [parts.get(k, np.zeros((self.dim, self.dim), dtype=complex))
                  for k in range(deg + 1)]
        while coeffs and max_abs(coeffs[-1]) <= residual_tol * scale:
            coeffs.pop()
        return MatrixPolynomial(coeffs, dim=self.dim)

    def __repr__(self) -> str:
        return f"GaussErfMatrix(dim={self.dim}, atoms={len(self.terms)})"
