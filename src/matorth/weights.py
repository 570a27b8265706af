"""The Gaussian-type weight family: structure matrices, pointwise evaluation,
exact moments and the algebraic identities the construction rests on.

A family member of size N is described by N-1 nonzero complex parameters
``a_1..a_{N-1}`` and one positive real parameter ``b``. The weight density is
``W(t) = T(t) T(t)*`` where ``T(t)`` is a polynomial factor (the exponential
of a nilpotent matrix times t) times a diagonal Gaussian factor. ``b = 1`` is
accepted but degenerate: the series defining the nilpotent generator then
truncates to its first term.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import index

import numpy as np

from .gausserf import GAUSS, GaussErfMatrix
from .linalg import MatrixPolynomial, max_abs, nilpotent_exp, worst

__all__ = [
    "IdentityReport",
    "StructureMatrices",
    "WeightParams",
    "abel_identity_check",
    "alpha_coeff",
    "build_structure",
    "column_outers",
    "verify_structure_identities",
    "weight_eval",
    "weight_moment",
    "weight_symbolic",
]

# Parameter sets kept by every per-parameter cache: the structure (with its
# factors), the symbolic weight, the fixed identity residuals, the operator and
# the 51-digit family. Callers finish with one set before they move on: in the
# seed-1 perfbench rounds each set misses once (sweep-wide: 150 structure misses
# against 11978 hits; build-deep: 3 against 3), with equal counts at 8 and 64.
CACHE_SIZE = 8


@dataclass(frozen=True)
class WeightParams:
    """Free data of one family member: size, off-diagonal parameters, decay."""

    size: int
    a: tuple[complex, ...]
    b: float

    def __post_init__(self):
        object.__setattr__(self, "size", index(self.size))  # TypeError unless an integer
        if self.size < 2:
            raise ValueError(f"size must be >= 2, got {self.size}")
        object.__setattr__(self, "a", tuple(complex(v) for v in self.a))
        object.__setattr__(self, "b", float(self.b))
        if len(self.a) != self.size - 1:
            raise ValueError(
                f"need {self.size - 1} off-diagonal parameters, got {len(self.a)}")
        for i, v in enumerate(self.a):
            if v == 0 or not cmath.isfinite(v):
                raise ValueError(f"a_{i + 1} must be finite and nonzero, got {v}")
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError(f"b must be finite and positive, got {self.b}")
        try:  # a scale diagonal is never negative, but 0 below b of about 2**-53
            scale_diagonals(self.size, self.b)
        except ZeroDivisionError:
            raise ValueError(f"b = {self.b} is below the supported range: a scale "
                             "diagonal rounds to 0 in double precision") from None
        object.__setattr__(self, "_hash", hash((self.size, self.a, self.b)))

    def __hash__(self) -> int:  # computed once: every per-parameter cache hashes it
        return self._hash

    @property
    def degenerate_b(self) -> bool:
        """True when b = 1, where identities with 1/(1-b) factors degenerate."""
        return self.b == 1.0


@dataclass(frozen=True)
class StructureMatrices:
    """The constant matrices every other construction is assembled from.

    shift       strictly upper bidiagonal, entries a_1..a_{N-1}
    number      diag(0, 1, ..., N-1)
    diag_scale  identity plus (b-1)/(N-1) times ``number``; positive diagonal
    gauss_diag  -b/2 times the inverse of ``diag_scale``; negative diagonal
    nilpotent   odd-power series in ``shift`` generating the polynomial factor
    bracket     the commutator ``[nilpotent, number]``
    odd_coeffs  its series coefficients, index j weighting shift**(2j+1)
    gauss_scales  the diagonal of ``gauss_diag`` as a real vector
    factor, factor_inv  ``exp(+-nilpotent t)``; T(t) = factor(t) exp(gauss_diag t**2)
    """

    shift: np.ndarray
    number: np.ndarray
    diag_scale: np.ndarray
    gauss_diag: np.ndarray
    nilpotent: np.ndarray
    bracket: np.ndarray
    odd_coeffs: tuple[float, ...]
    gauss_scales: np.ndarray
    factor: MatrixPolynomial
    factor_inv: MatrixPolynomial


def alpha_coeff(size: int, b: float, j: int) -> float:
    """Series coefficient weighting the (2j+1)-th power of the shift matrix.

    Also evaluates at a ``decimal.Decimal`` ``b``, in the current decimal
    context, and returns a number of the type of ``b``."""
    if j == 0:
        return b ** 0
    return ((1 - b) ** j * (2 * j + 1) ** (j - 1)
            / ((4 * b) ** j * (size - 1) ** j * math.factorial(j)))


def scale_diagonals(size: int, b) -> tuple[list, list]:
    """Diagonals of ``diag_scale`` and ``gauss_diag``, in the type of ``b``
    (a float, or a ``decimal.Decimal`` in the current decimal context)."""
    psi = [1 + (b - 1) * k / (size - 1) for k in range(size)]
    return psi, [-b / (2 * v) for v in psi]


def odd_series(shift: np.ndarray, coeffs) -> np.ndarray:
    """``sum_j coeffs[j] shift**(2j+1)``, the nilpotent generator; also for
    object arrays of ``decimal.Decimal`` with Decimal ``coeffs``."""
    out = np.zeros_like(shift)
    power, sq = shift, shift @ shift
    for alpha in coeffs:
        out = out + power * alpha
        power = power @ sq
    return out


@lru_cache(maxsize=CACHE_SIZE)
def build_structure(p: WeightParams) -> StructureMatrices:
    """Assemble the structure matrices for one set of parameters."""
    n, b = p.size, p.b
    shift = np.diag(np.array(p.a, dtype=complex), 1)
    number = np.diag(np.arange(n, dtype=float)).astype(complex)
    psi, gauss = scale_diagonals(n, b)
    diag_scale = np.diag(psi).astype(complex)
    gauss_diag = np.diag(gauss).astype(complex)
    coeffs = tuple(alpha_coeff(n, b, j) for j in range(n // 2))
    nilpotent = odd_series(shift, coeffs)
    bracket = nilpotent @ number - number @ nilpotent
    gauss_scales = np.array(gauss, dtype=float)
    for m in (shift, number, diag_scale, gauss_diag, nilpotent, bracket, gauss_scales):
        m.setflags(write=False)
    return StructureMatrices(shift, number, diag_scale, gauss_diag, nilpotent, bracket,
                             coeffs, gauss_scales, nilpotent_exp(nilpotent),
                             nilpotent_exp(-nilpotent))


def weight_eval(p: WeightParams, t) -> tuple[np.ndarray, np.ndarray]:
    """T(t) = factor(t) exp(gauss_diag t**2) and W = T T* at a scalar t, shapes
    (N, N), or at each entry of a 1-D array of t, shapes (n_t, N, N); a Python
    float is used as itself, any other t as an array, in the same arithmetic."""
    s = build_structure(p)
    scalar = isinstance(t, float)
    x = t if scalar else np.asarray(t, dtype=float)[..., np.newaxis]
    gt = np.exp(s.gauss_scales * x * x)  # at a float, shape (N,): it scales the columns
    big_t = s.factor(t) * (gt if scalar else gt[..., np.newaxis, :])
    return big_t, big_t @ big_t.conj().swapaxes(-1, -2)


def column_outers(exp_coeffs) -> np.ndarray:
    """Column factorization of the weight.

    Since the Gaussian factor of ``T`` is diagonal, ``W(t)`` is the sum over
    columns ``c`` of ``e_c(t) e_c(t)* exp(2 d_c t**2)``, with ``e_c`` column c
    of the polynomial factor ``sum_j exp_coeffs[j] t**j``. Returns the
    (N, 2 len(exp_coeffs) - 1, N, N) tensor ``outers[c, d] = sum_{j+k=d}
    E_j[:, c] E_k[:, c]*``, the coefficient of ``t**d`` in ``e_c e_c*``, each
    sum by ascending j. Also for object arrays of ``decimal.Decimal`` (whose
    conjugate is the number itself), in the current decimal context.
    """
    cols = np.array(exp_coeffs).transpose(2, 0, 1)  # cols[c, j] = E_j[:, c]
    n = cols.shape[1]
    outers = np.zeros((len(cols), 2 * n - 1) + cols.shape[2:] * 2, dtype=cols.dtype)
    conj = np.conj(cols)[:, :, None, :]
    for j in range(n):
        outers[:, j:j + n] += cols[:, j, None, :, None] * conj
    return outers


@lru_cache(maxsize=CACHE_SIZE)
def weight_symbolic(p: WeightParams) -> GaussErfMatrix:
    """The weight as an exact polynomial-times-Gaussian function matrix:
    ``column_outers`` of the factor, column c on the atoms
    ``t**d exp(2 d_c t**2)``."""
    s = build_structure(p)
    return GaussErfMatrix([(GAUSS, -2.0 * g) for g in s.gauss_scales],
                          column_outers(s.factor.coeffs))


def weight_moment(p: WeightParams, m: int) -> np.ndarray:
    """Exact m-th moment ``integral t**m W(t) dt`` via per-atom Gaussian
    integrals, in double precision, summed column by column and power by
    power; a fresh array on every call. An ``m`` that is not an integer
    raises TypeError."""
    if index(m) < 0:
        raise ValueError("moment order must be >= 0")
    return weight_symbolic(p).integrate(extra_power=m)


def weight_inverse_symbolic_2x2(p: WeightParams) -> GaussErfMatrix:
    """Symbolic 2x2 inverse; its Gaussian atoms have negative scales, so it
    only makes sense inside products that cancel them."""
    if p.size != 2:
        raise ValueError("closed-form inverse exists only for size 2")
    a, b = p.a[0], p.b
    coeffs = np.zeros((2, 3, 2, 2), dtype=complex)  # keys (GAUSS, -b), (GAUSS, -1)
    coeffs[0, 0, 0, 0], coeffs[0, 2, 1, 1], coeffs[1, 0, 1, 1] = 1.0, abs(a) ** 2, 1.0
    coeffs[0, 1] = [[0.0, -a], [-np.conj(a), 0.0]]
    return GaussErfMatrix([(GAUSS, -b), (GAUSS, -1.0)], coeffs)


@dataclass(frozen=True)
class IdentityReport:
    """Max-abs residuals of the structural identities, keyed by name.

    Identities that degenerate at b = 1 are listed in ``skipped`` instead of
    carrying a residual.
    """

    residuals: dict[str, float]
    skipped: tuple[str, ...]

    @property
    def max_residual(self) -> float:
        return worst(self.residuals.values())


@lru_cache(maxsize=CACHE_SIZE)
def _fixed_identities(p: WeightParams) -> tuple[float, tuple[tuple[str, float], ...]]:
    """The residuals that do not depend on t: bracket_series, then by name
    even_power_sum (not at b = 1) and bracket_defect."""
    s = build_structure(p)
    n, b = p.size, p.b
    acal, bracket = s.nilpotent, s.bracket
    series = odd_series(s.shift, [(2 * j + 1) * alpha
                                  for j, alpha in enumerate(s.odd_coeffs)])
    tail = []
    if not p.degenerate_b:
        even = np.zeros((n, n), dtype=complex)
        power = sq = s.shift @ s.shift
        for j in range(1, (n - 1) // 2 + 1):
            even += (alpha_coeff(n, b, j) * (2 * j) ** j
                     / (2 * j + 1) ** (j - 1)) * power
            power = power @ sq
        lhs = acal @ bracket - 2 * b * (n - 1) / (1 - b) * even
        tail.append(("even_power_sum", max_abs(lhs)))
    rhs = (1 - b) / (2 * b * (n - 1)) * (acal @ acal @ bracket)
    tail.append(("bracket_defect", max_abs(bracket - acal - rhs)))
    return max_abs(bracket - series), tuple(tail)


def verify_structure_identities(p: WeightParams, t: float) -> IdentityReport:
    """Evaluate both sides of the six structural identities at one point;
    the three that do not depend on t are computed once per parameter set."""
    s = build_structure(p)
    n, b = p.size, p.b
    psi, gd, bracket = s.diag_scale, s.gauss_diag, s.bracket
    ident = np.eye(n, dtype=complex)
    series, tail = _fixed_identities(p)
    res = {"bracket_series": series}

    et, et_inv = s.factor(t), s.factor_inv(t)
    f2_t = psi + (b - 1.0) / (n - 1) * t * bracket
    res["exp_intertwines_scale"] = max_abs(et @ psi - f2_t @ et)

    conj_gd = et @ gd @ et_inv
    rhs = -b / 2.0 * ident - (b - 1.0) * t / (n - 1) * (conj_gd @ bracket)
    res["gauss_conj_scale_left"] = max_abs(conj_gd @ psi - rhs)
    rhs = -b / 2.0 * ident - (b - 1.0) * t / (n - 1) * (bracket @ conj_gd)
    res["gauss_conj_scale_right"] = max_abs(psi @ conj_gd - rhs)

    res.update(tail)
    return IdentityReport(res, ("even_power_sum",) if p.degenerate_b else ())


def abel_identity_check(k: int, z: complex, w: complex) -> tuple[complex, complex, float]:
    """Binomial-sum identity used by the structural proofs.

    Returns (lhs, rhs, relative residual) for
    ``sum_m C(k,m) (m+z)**m (k-m+w)**(k-m-1) = (z+w+k)**k / w``.
    Uses the 0**0 = 1 convention. Refuses k > 40 rather than silently losing
    precision in the binomials.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > 40:
        raise ValueError("k > 40 would lose precision in double binomials")
    if w == 0:
        raise ValueError("w must be nonzero")
    z, w = complex(z), complex(w)
    lhs = 0.0 + 0.0j
    for m in range(k + 1):
        lhs += (math.comb(k, m) * (m + z) ** m
                * (k - m + w) ** (k - m - 1))
    rhs = (z + w + k) ** k / w
    residual = abs(lhs - rhs) / max(abs(rhs), 1e-30)
    return lhs, rhs, residual
