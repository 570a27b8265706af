"""The Gaussian-erf function algebra as it was before the stacked tensor: one
``MatrixPolynomial`` per atom key, every operation a loop over the keys. The
reference for ``matorth.gausserf``, whose kernels sum over the keys in key
order and over powers ascending: where the keys come in the same order, the
values agree to the bit."""
import math
from types import MappingProxyType

import numpy as np

from matorth.gausserf import ERF, GAUSS, PLAIN, gauss_integral
from matorth.linalg import MatrixPolynomial, max_abs, worst


def _times_t(v):
    """``t * v(t)``: every coefficient moves up one power."""
    return MatrixPolynomial(np.concatenate([np.zeros((1, v.dim, v.dim)), v.coeffs]), v.dim)


class PerKey:
    """``sum over keys of polys[key](t) f_key(t)`` from ``(key, polynomial)``
    pairs: equal keys summed in order, zero polynomials dropped."""

    def __init__(self, dim, polys=()):
        merged = {}
        for (kind, s), v in polys:
            key = (PLAIN, 0.0) if kind == PLAIN or (kind == GAUSS and s == 0.0) else (kind, s)
            merged[key] = merged[key] + v if key in merged else v
        self.dim = dim
        self.polys = MappingProxyType({k: v for k, v in merged.items() if v.degree >= 0})

    @classmethod
    def of(cls, keys, coeffs):
        """The function of a (K, D, N, N) tensor on ``keys``, row by row."""
        dim = coeffs.shape[-1]
        return cls(dim, [(key, MatrixPolynomial(row, dim=dim)) for key, row in zip(keys, coeffs)])

    def _map(self, fn):
        return PerKey(self.dim, polys=((k, fn(v)) for k, v in self.polys.items()))

    def __add__(self, other):
        return PerKey(self.dim, polys=[*self.polys.items(), *other.polys.items()])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return self._map(lambda v: scalar * v)

    __rmul__ = __mul__

    def __neg__(self):
        return self._map(lambda v: -v)

    def __matmul__(self, other):
        return PerKey(self.dim, polys=[((k1 if k2 == PLAIN else k2, s1 + s2), v1 * v2)
                                       for (k1, s1), v1 in self.polys.items()
                                       for (k2, s2), v2 in other.polys.items()])

    def lmul(self, m):
        return self._map(lambda v: v.lmul(m))

    def poly_mul(self, p, side="right"):
        return self._map(lambda v: v * p if side == "right" else p * v)

    def derivative(self, order=1):
        out = self
        for _ in range(order):
            items = []
            for (kind, s), v in out.polys.items():
                d = v.derivative()
                if kind == GAUSS:
                    d = d + _times_t(-2.0 * s * v)
                elif kind == ERF:
                    items.append(((GAUSS, s), 2.0 * math.sqrt(s) / math.sqrt(math.pi) * v))
                items.append(((kind, s), d))
            out = PerKey(self.dim, polys=items)
        return out

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        x = ts[..., None, None]
        out = np.zeros(ts.shape + (self.dim, self.dim), dtype=complex)
        for (kind, s), v in self.polys.items():
            acc = v(ts)
            if kind == GAUSS:
                acc = acc * np.exp(-s * x * x)
            elif kind == ERF:
                acc = acc * np.vectorize(math.erf, otypes=[float])(math.sqrt(s) * x)
            out = out + acc
        return out

    def integrate(self, extra_power=0):
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (kind, s), v in self.polys.items():
            for k, c in enumerate(v.coeffs):
                out += gauss_integral(k + extra_power, s) * c
        return out

    def to_polynomial(self):
        scale = worst((1.0, *(v.max_coeff() for v in self.polys.values())))
        residue = worst(v.max_coeff() for k, v in self.polys.items() if k != (PLAIN, 0.0))
        if not residue <= 1e-9 * scale:
            raise ArithmeticError(f"transcendental atoms did not cancel (residual {residue:.3e} "
                                  f"vs scale {scale:.3e})")
        coeffs = self.polys.get((PLAIN, 0.0), MatrixPolynomial((), dim=self.dim)).coeffs
        top = max((k + 1 for k, c in enumerate(coeffs) if max_abs(c) > 1e-9 * scale), default=0)
        return MatrixPolynomial(coeffs[:top], dim=self.dim)
