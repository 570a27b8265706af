"""Monic orthogonal matrix polynomials from exact moments, their recurrence
tables, orthonormalization, and an independent quadrature oracle.

The construction itself runs in high precision (see :mod:`matorth._mp`);
everything returned here is ordinary complex128. The quadrature oracle is
kept deliberately independent of the exact-moment path so the two can
cross-check each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import _mp
from .linalg import MatrixPolynomial
from .weights import WeightParams, weight_eval

__all__ = [
    "MonicSequence",
    "RecurrenceTable",
    "moment_oracle",
    "monic_sequence",
    "orthonormalize_sequence",
    "quadrature_oracle",
    "recurrence_from_sequence",
]

DEFAULT_NMAX = 25


@dataclass(frozen=True)
class MonicSequence:
    """Degree-graded monic orthogonal polynomials with their squared norms.

    ``polys[n]`` has exact leading coefficient I and ``norms[n]`` is the
    Hermitian positive definite matrix ``integral P_n W P_n*``. If the build
    stopped early, ``truncated_at`` names the first degree that could not be
    produced and ``truncation_reason`` says why. It holds the 51-digit
    family that built it, so its tables never depend on the family cache.
    """

    params: WeightParams
    polys: tuple[MatrixPolynomial, ...]
    norms: tuple[np.ndarray, ...]
    truncated_at: int | None = None
    truncation_reason: str | None = None
    _family: "_mp._MpFamily" = field(default=None, repr=False, compare=False)

    @property
    def top_degree(self) -> int:
        return len(self.polys) - 1

    def pairing(self, i: int, j: int) -> np.ndarray:
        """``integral P_i W P_j*`` of the returned complex128 polynomials.

        Their coefficients are converted exactly to decimal and paired
        against the 51-digit moments, through the phase gauge of
        :mod:`matorth._mp`; the result is rounded once, to complex128.
        Raises IndexError unless both degrees lie in ``0..top_degree``."""
        for k in (i, j):
            if not 0 <= k <= self.top_degree:
                raise IndexError(f"degree {k} outside 0..{self.top_degree}")
        return self._family.pair_float(i, j)


@dataclass(frozen=True)
class RecurrenceTable:
    """Per-degree coefficient triples (A_n, B_n, C_n) of one recurrence gauge.

    ``kind`` is "monic", "orthonormal" or "rodrigues-normalized". Entries at
    index 0 of A and C pad the table (the recurrence row n uses A_{n+1}, B_n
    and C_n). ``residuals`` holds the per-row recurrence identity residual,
    normalized by the row's coefficient scale, when it was measured.
    """

    kind: str
    A: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    C: tuple[np.ndarray, ...]
    residuals: tuple[float, ...] | None = None


def monic_sequence(p: WeightParams, nmax: int = DEFAULT_NMAX) -> MonicSequence:
    """Build the monic orthogonal sequence up to degree ``nmax``.

    Degrees stop early, with a diagnostic and never a silent regularization,
    at the first degree whose squared norm is not positive definite at the
    build's working precision.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    fam = _mp.family(p)
    fam.extend(nmax)
    views = fam._views[:nmax + 1]
    stop = (len(views), fam.stop) if len(views) <= nmax else (None, None)
    return MonicSequence(p, tuple(v.poly for v in views), tuple(v.norm for v in views),
                         *stop, fam)


def _monic_table(seq: MonicSequence) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``B_0..B_{top-1}`` and ``C_0..C_top`` of the monic recurrence of
    ``seq`` as the build used them; ``C_0`` is a zero pad."""
    if len(seq.polys) < 2:
        raise ValueError("need at least two polynomials to read a recurrence")
    views = seq._family._views[:len(seq.polys)]
    return [v.bhat for v in views[:-1]], [v.chat for v in views]


def recurrence_from_sequence(seq: MonicSequence) -> RecurrenceTable:
    """The monic recurrence ``t P_n = P_{n+1} + B_n P_n + C_n P_{n-1}``.

    B_n and C_n are the coefficients the high-precision build used to
    produce the sequence; each row's identity residual is measured on the
    returned double-precision data.
    """
    b, c = _monic_table(seq)
    count = len(seq.polys)
    eye = np.eye(seq.params.size, dtype=complex)
    a = tuple(eye.copy() for _ in range(count))
    residuals = []
    for k in range(count - 1):
        shifted = seq.polys[k].times_t()
        resid = shifted - seq.polys[k + 1] - seq.polys[k].lmul(b[k])
        if k >= 1:
            resid = resid - seq.polys[k - 1].lmul(c[k])
        residuals.append(resid.max_coeff() / max(1.0, shifted.max_coeff()))
    return RecurrenceTable("monic", a, tuple(b), tuple(c), tuple(residuals))


def orthonormalize_sequence(seq: MonicSequence) -> tuple[RecurrenceTable, tuple[np.ndarray, ...]]:
    """Normalizers and the orthonormal recurrence.

    The normalizer Delta_n is the inverse of the upper-triangular Cholesky
    factor of the squared norm; that factor is diagonal whenever the norm is
    diagonal, which pins the gauge so closed forms can be compared entry by
    entry. Returns the orthonormal table (C_n = A_n* by construction) and
    the Delta_n sequence.
    """
    views = seq._family._views[:len(seq.polys)]
    # A_0 is a zero pad; + 0.0: conjugating a zero imaginary part gives -0.0
    a = tuple(v.a for v in views)
    c = tuple(m.conj().T + 0.0 for m in a)
    table = RecurrenceTable("orthonormal", a, tuple(v.b for v in views[:-1]), c)
    return table, tuple(v.delta for v in views)


def _trapezoid(p: WeightParams, degree_hint: int,
               values: Callable[[np.ndarray], tuple[np.ndarray, Iterable[np.ndarray]]]
               ) -> np.ndarray:
    """The trapezoid rule of both oracles on the whole real line.

    Every integrand is entire and decays like a Gaussian exp(-s t**2) with
    s between min(1, b) and max(1, b), where the plain trapezoid rule
    converges exponentially. The step h = pi / sqrt(max(1, b) K) keeps the
    aliasing error exp(-pi**2 / (s h**2)) and the half-width
    L = sqrt(K / min(1, b)) keeps the cut-off error exp(-s L**2) below
    exp(-K) for every such s, with K = 40 + 1.5 degree_hint leaving room for
    a polynomial factor of that degree. ``values`` gets the positive nodes
    ``t_k = k h`` as a 1-D array and returns ``f(0)`` and, in increasing k,
    the pair sums ``f(t_k) + f(-t_k)``.
    """
    budget = 40.0 + 1.5 * degree_hint
    h = math.pi / math.sqrt(max(1.0, p.b) * budget)
    half_width = math.sqrt(budget / min(1.0, p.b))
    at_zero, pairs = values(np.arange(1, int(half_width / h) + 1) * h)
    # summing exact +/- node pairs lets the integrand's odd part cancel
    # bit-exactly instead of at eps times its (possibly huge) magnitude
    total = np.zeros((p.size, p.size), dtype=complex) + at_zero
    for pair in pairs:
        total = total + pair
    return h * total


def quadrature_oracle(p: WeightParams, integrand: Callable[[float], np.ndarray],
                      degree_hint: int = 64) -> np.ndarray:
    """Trapezoid-rule cross-check of weight-type integrals over the real line,
    calling ``integrand`` once per node with a Python float. Reads only the
    size and b of ``p``, so it never depends on the exact-moment path it
    checks."""
    return _trapezoid(p, degree_hint, lambda ts: (
        integrand(0.0), (integrand(t) + integrand(-t) for t in ts.tolist())))


def moment_oracle(p: WeightParams, m: int) -> np.ndarray:
    """``integral t**m W(t) dt`` by the trapezoid rule: bit for bit
    ``quadrature_oracle(p, lambda t: t ** m * weight_eval(p, t)[1],
    m + 2 N + 10)``, with one ``weight_eval`` call over all nodes. Powers in
    Python floats keep ``t ** m`` exactly odd for odd m, so the entries with
    ``m + i + j`` odd cancel to 0 (``W(-t) = S W(t) S``, ``S = diag((-1)**i)``)."""
    if m < 0:
        raise ValueError("moment order must be >= 0")

    def values(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nodes = np.concatenate(([0.0], ts, -ts))
        powers = np.array([x ** m for x in nodes.tolist()])
        vals = powers[:, np.newaxis, np.newaxis] * weight_eval(p, nodes)[1]
        return vals[0], vals[1:len(ts) + 1] + vals[len(ts) + 1:]
    return _trapezoid(p, m + 2 * p.size + 10, values)
