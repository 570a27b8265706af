"""Exact function algebra for matrices whose entries are finite sums of
``t**k``, ``t**k * exp(-c t**2)`` and ``t**k * erf(sqrt(c) t)`` atoms,
closed under differentiation and under multiplication by matrix polynomials.

A function holds one ``linalg.MatrixPolynomial`` per ``(kind, scale)`` key;
power k of the ``(GAUSS, c)`` polynomial multiplies ``t**k exp(-c t**2)``.
Every operation delegates to those polynomials: a product is a polynomial
product per pair of keys, a derivative is the polynomial's derivative plus
the atom's own factor, and evaluation over a 1-D array of t is each
polynomial's Horner pass times its atom. Scales are keyed by their exact
float: the weight has at most N of them. Gaussian atoms with ``c <= 0``
appear transiently inside products (``exp(-t**2) * exp(b t**2)``); they
must cancel before a result is read as a polynomial, and they cannot be
integrated.
"""
from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .linalg import MatrixPolynomial, as_square, max_abs, worst

__all__ = ["Atom", "GaussErfMatrix", "PLAIN", "GAUSS", "ERF", "gauss_integral"]

PLAIN = "plain"
GAUSS = "gauss"
ERF = "erf"
# relative size up to which ``to_polynomial`` drops leftover coefficients
RESIDUAL_TOL = 1e-9

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


def gauss_integral(power: int, scale: float) -> float:
    """Exact ``integral over R of t**power * exp(-scale t**2) dt``."""
    if scale <= 0.0:
        raise ValueError("divergent integral: Gaussian scale must be positive")
    if power % 2:
        return 0.0
    m = power // 2
    return (math.sqrt(math.pi) * math.prod(range(2 * m - 1, 1, -2), start=1.0)
            / (2.0 ** m * scale ** (m + 0.5)))


class GaussErfMatrix:
    """Matrix-valued function ``sum_a C_a * atom_a(t)``, built from
    ``(Atom, matrix)`` pairs and ``((kind, scale), MatrixPolynomial)`` pairs.
    ``polys`` maps each key, read-only, to the polynomial multiplying its
    atom: equal keys summed, zero polynomials dropped. ``terms`` views the
    nonzero coefficients keyed by :class:`Atom`."""

    __slots__ = ("dim", "polys")

    def __init__(self, dim: int, terms: Iterable[tuple[Atom, np.ndarray]] = (),
                 polys: Iterable[tuple[tuple[str, float], MatrixPolynomial]] = ()):
        monomials = (((a.kind, a.scale), MatrixPolynomial.monomial(as_square(c, dim), a.power))
                     for a, c in terms)
        merged: dict[tuple[str, float], MatrixPolynomial] = {}
        for key, v in [*polys, *monomials]:
            key = _key(*key)
            merged[key] = merged[key] + v if key in merged else v
        self.dim = int(dim)
        self.polys = MappingProxyType({key: v for key, v in merged.items() if v.degree >= 0})

    def _map(self, fn) -> "GaussErfMatrix":
        return GaussErfMatrix(self.dim, polys=((key, fn(v)) for key, v in self.polys.items()))

    @property
    def terms(self) -> Mapping[Atom, np.ndarray]:
        return MappingProxyType({Atom(k, *key): c for key, v in self.polys.items()
                                 for k, c in enumerate(v.coeffs) if np.any(c)})

    @classmethod
    def from_polynomial(cls, p: MatrixPolynomial) -> "GaussErfMatrix":
        return cls(p.dim, polys=[((PLAIN, 0.0), p)])

    def __add__(self, other: "GaussErfMatrix") -> "GaussErfMatrix":
        return GaussErfMatrix(self.dim, polys=[*self.polys.items(), *other.polys.items()])

    def __sub__(self, other: "GaussErfMatrix") -> "GaussErfMatrix":
        return self + (-other)

    def __mul__(self, scalar) -> "GaussErfMatrix":
        return self._map(lambda v: scalar * v)

    __rmul__ = __mul__

    def __neg__(self) -> "GaussErfMatrix":
        return self._map(lambda v: -v)

    def __matmul__(self, other: "GaussErfMatrix") -> "GaussErfMatrix":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        items = []
        for (k1, s1), v1 in self.polys.items():
            for (k2, s2), v2 in other.polys.items():
                if ERF in (k1, k2) and PLAIN not in (k1, k2):
                    raise ValueError("erf atoms can only be multiplied by polynomial factors")
                items.append(((k1 if k2 == PLAIN else k2, s1 + s2), v1 * v2))
        return GaussErfMatrix(self.dim, polys=items)

    def lmul(self, m: np.ndarray) -> "GaussErfMatrix":
        return self._map(lambda v: v.lmul(m))

    def poly_mul(self, p: MatrixPolynomial, side: str = "right") -> "GaussErfMatrix":
        """``self(t) @ p(t)`` for side="right", ``p(t) @ self(t)`` for side="left"."""
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', not {side!r}")
        return self._map(lambda v: v * p if side == "right" else p * v)

    def conj_t(self) -> "GaussErfMatrix":
        """Pointwise conjugate transpose (atoms are real-valued on R)."""
        return self._map(MatrixPolynomial.conj_t)

    def derivative(self, order: int = 1) -> "GaussErfMatrix":
        """Exact derivative: ``(v g)' = v' g + v g'`` with ``g' = -2st g`` on
        a Gaussian and ``g' = 2 sqrt(s/pi) exp(-s t**2)`` on an erf."""
        out = self
        for _ in range(order):
            items = []
            for (kind, s), v in out.polys.items():
                d = v.derivative()
                if kind == GAUSS:
                    d = d + (-2.0 * s * v).times_t()
                elif kind == ERF:
                    items.append(((GAUSS, s), 2.0 * math.sqrt(s) / math.sqrt(math.pi) * v))
                items.append(((kind, s), d))
            out = GaussErfMatrix(self.dim, polys=items)
        return out

    def __call__(self, t) -> np.ndarray:
        """Value at a scalar t, shape (N, N), or at each entry of a 1-D array
        of t, shape (n_t, N, N): each polynomial's Horner pass times its atom."""
        ts = np.asarray(t, dtype=float)
        x = ts[..., None, None]
        out = np.zeros(ts.shape + (self.dim, self.dim), dtype=complex)
        for (kind, s), v in self.polys.items():
            acc = v(ts)
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
        for (kind, s), v in self.polys.items():
            if kind != GAUSS:
                raise ValueError(f"cannot integrate a {kind} atom over R")
            for k, c in enumerate(v.coeffs):
                out += gauss_integral(k + extra_power, s) * c
        return out

    def max_coeff(self) -> float:
        return worst(v.max_coeff() for v in self.polys.values())

    def to_polynomial(self) -> MatrixPolynomial:
        """Collapse to a matrix polynomial, requiring all transcendental atoms
        to have cancelled: a non-plain coefficient above ``RESIDUAL_TOL``
        relative to the largest coefficient, or any NaN, signals a
        construction bug and raises. Sub-tolerance residue (including plain
        dust above the true degree) is dropped."""
        scale = worst((1.0, self.max_coeff()))
        residue = worst(v.max_coeff() for (kind, _), v in self.polys.items() if kind != PLAIN)
        if not residue <= RESIDUAL_TOL * scale:
            raise ArithmeticError(
                f"transcendental atoms did not cancel (residual {residue:.3e} "
                f"vs scale {scale:.3e})")
        coeffs = self.polys.get((PLAIN, 0.0), MatrixPolynomial.zero(self.dim)).coeffs
        top = max((k + 1 for k, c in enumerate(coeffs)
                   if max_abs(c) > RESIDUAL_TOL * scale), default=0)
        return MatrixPolynomial(coeffs[:top], dim=self.dim)

    def __repr__(self) -> str:
        return f"GaussErfMatrix(dim={self.dim}, keys={list(self.polys)})"
