"""Exact function algebra for matrices whose entries are finite sums of
``t**k``, ``t**k * exp(-c t**2)`` and ``t**k * erf(sqrt(c) t)`` atoms,
closed under differentiation and under products.

A function holds one read-only ``(K, D, N, N)`` tensor: ``[i, k]`` multiplies
``t**k`` times the atom of key i, ``(kind, scale)``. Each operation works on
all keys at once and gives the bits of a loop over them: sums run in key
order, powers ascending. Scales are keyed by their exact float. A stack of
functions on shared keys, with batch axes before K, gives each member its bits.
Gaussian atoms with ``c <= 0`` appear transiently inside products; they must
cancel before a result is read as a polynomial, and cannot be integrated.
"""
from __future__ import annotations

import math
from operator import index
from typing import Iterable, Iterator

import numpy as np

from .linalg import MatrixPolynomial, convolve

__all__ = ["GaussErfMatrix", "PLAIN", "GAUSS", "ERF", "gauss_integral"]

PLAIN = "plain"
GAUSS = "gauss"
ERF = "erf"
# relative size up to which ``polynomials`` drops leftover coefficients
RESIDUAL_TOL = 1e-9

_erf = np.vectorize(math.erf, otypes=[float])

Key = tuple[str, float]


def _key(kind: str, scale: float) -> Key:
    """Canonical (kind, scale): a Gaussian of scale 0 is a plain power. An
    unknown kind, a scale that is not finite or an erf scale <= 0 raises."""
    scale = float(scale)
    if kind not in (PLAIN, GAUSS, ERF) or not math.isfinite(scale) or kind == ERF and scale <= 0:
        raise ValueError(f"no ({kind!r}, {scale}) atom: kinds are plain, gauss and erf, "
                         "scales finite and erf scales > 0")
    return (PLAIN, 0.0) if kind == PLAIN or (kind == GAUSS and scale == 0.0) else (kind, scale)


def gauss_integral(power: int, scale: float) -> float:
    """Exact ``integral over R of t**power * exp(-scale t**2) dt``."""
    if index(power) < 0:  # and TypeError for a power that is not an integer
        raise ValueError("divergent integral: power must be >= 0")
    if scale <= 0.0:
        raise ValueError("divergent integral: Gaussian scale must be positive")
    if power % 2:
        return 0.0
    m = power // 2
    return (math.sqrt(math.pi) * math.prod(range(2 * m - 1, 1, -2), start=1.0)
            / (2.0 ** m * scale ** (m + 0.5)))


def _merged(keys: Iterable[Key], stack: np.ndarray) -> tuple[tuple[Key, ...], np.ndarray]:
    """The keys made canonical and distinct, first occurrence first, with the
    rows of ``stack`` under equal keys summed in order."""
    index: dict[Key, int] = {}
    rows = [index.setdefault(_key(*key), len(index)) for key in keys]
    if len(index) < len(rows):
        merged = np.zeros(stack.shape[:-4] + (len(index),) + stack.shape[-3:], dtype=complex)
        out = merged.swapaxes(0, -4)  # a view, the key axis first
        for row, v in zip(rows, stack.swapaxes(0, -4)):
            out[row] += v
        stack = merged
    return tuple(index), stack


def _rows(keys: tuple[Key, ...], kind: str) -> slice | list[int] | None:
    """The rows of the keys of ``kind``: None for none, a slice for a run."""
    rows = [i for i, (k, _) in enumerate(keys) if k == kind]
    return (slice(rows[0], rows[-1] + 1) if len(rows) == rows[-1] + 1 - rows[0] else rows) \
        if rows else None


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """``0 + terms[..., 0, :, :] + terms[..., 1, :, :] + ...`` in this order:
    the running sums are a loop's but for signs of zero, which ``+ 0.0`` mends."""
    if not terms.shape[-3]:
        return np.zeros(terms.shape[:-3] + terms.shape[-2:], dtype=complex)
    return np.add.accumulate(terms, axis=-3)[..., -1, :, :] + 0.0


def combine(a: np.ndarray, b: np.ndarray, op=np.subtract):
    """``op`` (subtract or add) of two coefficient tensors on the same keys,
    the shallower padded with zero powers."""
    stack = np.zeros(a.shape[:-3] + (max(a.shape[-3], b.shape[-3]),) + a.shape[-2:],
                     dtype=complex)
    stack[..., :a.shape[-3], :, :] = a
    stack[..., :b.shape[-3], :, :] = op(stack[..., :b.shape[-3], :, :], b)
    return stack


def derivative_stack(keys: tuple[Key, ...], c: np.ndarray):
    """Keys and unmerged tensor of the exact derivative of ``c`` on ``keys``:
    ``(v g)' = v' g + v g'`` with ``g' = -2st g`` on a Gaussian and ``g' = 2
    sqrt(s/pi) exp(-s t**2)`` on an erf, whose Gaussian key goes last."""
    erf = [i for i, (kind, _) in enumerate(keys) if kind == ERF]
    scales = np.array([s for _, s in keys])[:, None, None, None]
    depth = c.shape[-3]
    stack = np.zeros(c.shape[:-4] + (len(keys) + len(erf), depth + 1) + c.shape[-2:], dtype=complex)
    stack[..., :len(keys), :-2, :, :] = np.arange(1.0, depth)[:, None, None] * c[..., 1:, :, :]
    gauss = _rows(keys, GAUSS)
    if gauss is not None:
        stack[..., gauss, 1:, :, :] += -2.0 * scales[gauss] * c[..., gauss, :, :, :]
    if erf:
        stack[..., len(keys):, :-1, :, :] = (2.0 * np.sqrt(scales[erf]) / math.sqrt(math.pi)
                                             * c[..., erf, :, :, :])
    return keys + tuple((GAUSS, keys[i][1]) for i in erf), stack


def evaluate(keys: tuple[Key, ...], c: np.ndarray, t) -> np.ndarray:
    """Value of the tensor ``c`` on ``keys`` at a scalar t, shape (..., N, N),
    or at each entry of a 1-D array of t, shape (n_t, ..., N, N): one Horner
    pass over every key, times each key's atom, summed over the keys in order."""
    x = np.asarray(t, dtype=float)[(...,) + (None,) * (c.ndim - 1)]
    acc = np.zeros(x.shape[:x.ndim - c.ndim + 1] + c.shape[:-3] + c.shape[-2:], dtype=complex)
    for k in range(c.shape[-3] - 1, -1, -1):
        acc *= x
        acc += c[..., k, :, :]
    scales = np.array([s for _, s in keys])[:, None, None]
    for kind, f in ((GAUSS, lambda s: np.exp(-s * x * x)),
                    (ERF, lambda s: _erf(np.sqrt(s) * x))):
        rows = _rows(keys, kind)
        if rows is not None:
            acc[..., rows, :, :] *= f(scales[rows])
    return _running_sum(acc)


def polynomials(keys: tuple[Key, ...], stack: np.ndarray) -> Iterator[MatrixPolynomial]:
    """Each function of an (M, K, D, N, N) stack on ``keys`` collapsed to a
    matrix polynomial, in order. All transcendental atoms must have cancelled:
    a non-plain coefficient above ``RESIDUAL_TOL`` relative to the function's
    largest coefficient, or any NaN, raises. Smaller residue (including plain
    dust above the true degree) is dropped."""
    peaks = np.abs(stack).max(axis=(-2, -1), initial=0.0)
    scales = np.maximum(1.0, peaks.max(axis=(1, 2), initial=0.0))
    plain = [i for i, (kind, _) in enumerate(keys) if kind == PLAIN]
    residues = np.delete(peaks, plain, axis=1).max(axis=(1, 2), initial=0.0)
    for c, peak, scale, residue in zip(stack, peaks, scales, residues):
        if not residue <= RESIDUAL_TOL * scale:
            raise ArithmeticError(
                f"transcendental atoms did not cancel (residual {residue:.3e} "
                f"vs scale {scale:.3e})")
        live = np.flatnonzero(peak[plain].reshape(-1) > RESIDUAL_TOL * scale)
        top = live[-1] + 1 if live.size else 0  # no plain key: the zero polynomial
        yield MatrixPolynomial._of(c[plain].reshape((-1,) + c.shape[-2:])[:top])


class GaussErfMatrix:
    """Matrix-valued function ``sum_i sum_k coeffs[i, k] t**k f_i(t)``, with
    ``f_i`` the atom of ``keys[i]``, from a copy of the (..., K, D, N, N)
    tensor ``coeffs`` on ``keys``: equal keys summed in order, and the keys
    and top powers that are zero in every member dropped. With batch axes
    it is a stack, which ``integrate`` does not take."""

    __slots__ = ("dim", "keys", "coeffs", "_table")

    def __init__(self, keys: Iterable[Key], coeffs: np.ndarray):
        self._own(*_merged(keys, np.array(coeffs, dtype=complex)))

    @classmethod
    def _of(cls, keys: tuple[Key, ...], stack: np.ndarray) -> "GaussErfMatrix":
        """The function of a fresh tensor on distinct canonical keys, taken
        over, not copied."""
        return cls.__new__(cls)._own(keys, stack)

    def _own(self, keys: tuple[Key, ...], stack: np.ndarray) -> "GaussErfMatrix":
        """Take over ``stack`` on distinct canonical ``keys``, read-only, without
        the keys and top powers that are zero in every member."""
        live = np.logical_or.reduce(stack, axis=tuple(range(stack.ndim - 4)) + (-2, -1)).tolist()
        if not (all(map(any, live)) and any(row[-1] for row in live)):
            keep = [any(row) for row in live]
            depth = max((k + 1 for row in live for k, v in enumerate(row) if v), default=0)
            stack = stack[..., keep, :depth, :, :]  # a copy: the rest can go
            keys = tuple(key for key, v in zip(keys, keep) if v)
        stack.setflags(write=False)
        self.dim, self.keys, self.coeffs = stack.shape[-1], keys, stack
        self._table = np.zeros((len(keys), 0))
        return self

    def __matmul__(self, other: "GaussErfMatrix") -> "GaussErfMatrix":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        pairs = [(k1, k2) for k1 in self.keys for k2 in other.keys]
        if any(ERF in (k1, k2) and PLAIN not in (k1, k2) for (k1, _), (k2, _) in pairs):
            raise ValueError("erf atoms can only be multiplied by polynomial factors")
        stack = convolve(self.coeffs[..., :, None, :, :, :], other.coeffs[..., None, :, :, :, :])
        return self._of(*_merged([(k1 if k2 == PLAIN else k2, s1 + s2)
                                  for (k1, s1), (k2, s2) in pairs],
                                 stack.reshape(stack.shape[:-5] + (len(pairs),) + stack.shape[-3:])))

    def derivative(self, order: int = 1) -> "GaussErfMatrix":
        """Exact derivative, by ``derivative_stack`` once per order."""
        out = self
        for _ in range(order):
            out = out._of(*_merged(*derivative_stack(out.keys, out.coeffs)))
        return out

    def __call__(self, t) -> np.ndarray:
        """Value at a scalar t or at each entry of a 1-D array of t."""
        return evaluate(self.keys, self.coeffs, t)

    def integrate(self, extra_power: int = 0) -> np.ndarray:
        """Exact ``integral over R of t**extra_power * self(t) dt``, summed
        key by key and power by power. Only Gaussian atoms of positive scale
        are integrable; plain or erf atoms raise. Every order reads the
        instance's (K, Q) table of ``gauss_integral(q, scale)``, q < Q."""
        for kind, _ in self.keys:
            if kind != GAUSS:
                raise ValueError(f"cannot integrate a {kind} atom over R")
        if index(extra_power) < 0:
            raise ValueError("divergent integral: power must be >= 0")
        table, top = self._table, extra_power + self.coeffs.shape[1]
        if table.shape[1] < top:  # by top more powers, into a new array: none is written
            table = self._table = np.hstack((table, np.array(
                [[gauss_integral(q, s) for _, s in self.keys]
                 for q in range(table.shape[1], table.shape[1] + top)]).T))
        weights = table[:, extra_power:top]
        terms = weights.reshape(weights.shape + (1, 1)) * self.coeffs
        return _running_sum(terms.reshape(-1, self.dim, self.dim))

    def __repr__(self) -> str:
        return f"GaussErfMatrix(dim={self.dim}, keys={list(self.keys)})"
