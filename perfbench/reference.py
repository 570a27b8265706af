"""Independent high-precision reference for the benchmark's accuracy checks.

Moments come from the exact Gaussian integrals
``integral t**j exp(-c t**2) dt = Gamma((j+1)/2) / c**((j+1)/2)`` (zero for
odd j). For size 2 the weight is written out from the paper,

    W = [[exp(-b t^2) + |a|^2 t^2 exp(-t^2), a t exp(-t^2)],
         [conj(a) t exp(-t^2),               exp(-t^2)]],

and for larger sizes it is assembled as ``E(t) diag(exp(-s_k t^2)) E(t)*``
from the public structure matrices, with ``E(t) = exp(nilpotent t)`` and
``s_k = -2 gauss_scales[k]``. Nothing here goes through ``weight_moment``,
the function algebra or the orthogonalizer, so a fault there cannot cancel
against the reference.

Pairings run in mpmath at ``DPS`` digits on the exact binary values of the
complex128 coefficients the library returned: the result is the defect of
the output a user receives, not of the library's internal 50-digit data.
"""
from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpc, mpf

DPS = 50
# -log10 of the double-precision unit roundoff: the best a complex128 output
# can be, and the cap of every digit count the benchmark reports
DOUBLE_DIGITS = -math.log10(2.0 ** -53)


def digits(deviation: float) -> float:
    """Correct decimal digits implied by a relative deviation."""
    if not math.isfinite(deviation):
        return 0.0
    if deviation <= 0.0:
        return DOUBLE_DIGITS
    return min(DOUBLE_DIGITS, -math.log10(deviation))


def gauss_moment(power: int, scale) -> mpf:
    """``integral t**power exp(-scale t**2) dt`` over the real line."""
    if power % 2:
        return mpf(0)
    with mp.workdps(DPS):
        half = mpf(power + 1) / 2
        return mp.gamma(half) / mpf(scale) ** half


def to_mp(m: np.ndarray) -> np.ndarray:
    """Exact mpmath copy of a complex128 matrix (object dtype)."""
    out = np.empty(m.shape, dtype=object)
    for idx, v in np.ndenumerate(m):
        v = complex(v)
        out[idx] = mpc(v.real, v.imag)
    return out


def _conj_t(m: np.ndarray) -> np.ndarray:
    return np.vectorize(lambda v: v.conjugate(), otypes=[object])(m).T


def _max_abs(m: np.ndarray) -> mpf:
    return max(abs(v) for v in m.flat)


def moments_2x2(a: complex, b: float, count: int) -> list[np.ndarray]:
    """Moments ``S_0..S_{count-1}`` of the paper's 2x2 weight."""
    with mp.workdps(DPS):
        a_mp = mpc(a.real, a.imag)
        aa = abs(a_mp) ** 2
        out = []
        for m in range(count):
            s = np.empty((2, 2), dtype=object)
            s[0, 0] = mpc(gauss_moment(m, b) + aa * gauss_moment(m + 2, 1))
            s[0, 1] = a_mp * gauss_moment(m + 1, 1)
            s[1, 0] = a_mp.conjugate() * gauss_moment(m + 1, 1)
            s[1, 1] = mpc(gauss_moment(m, 1))
            out.append(s)
        return out


def moments_from_structure(nilpotent: np.ndarray, gauss_scales: np.ndarray,
                           count: int) -> list[np.ndarray]:
    """Moments ``S_0..S_{count-1}`` of ``E(t) diag(exp(-s_k t^2)) E(t)*``.

    Column k of ``E(t) = sum_j nilpotent**j t**j / j!`` is a vector
    polynomial ``sum_j f_j t**j`` carrying the Gaussian of scale
    ``s_k = -2 gauss_scales[k]``, so it adds ``sum_q g(m + q) C_q`` to S_m,
    with ``C_q = sum_{j1+j2=q} f_j1 f_j2*`` and ``g(p)`` the Gaussian
    integral of t**p. The nilpotent is strictly upper triangular, so most
    entries of f_j are zero and only the nonzero ones are multiplied.
    """
    n = nilpotent.shape[0]
    with mp.workdps(DPS):
        nil = to_mp(nilpotent)
        powers = [np.identity(n, dtype=object) * mpc(1)]
        for j in range(1, n):
            powers.append(powers[-1].dot(nil) / j)
        out = [[[mpc(0)] * n for _ in range(n)] for _ in range(count)]
        for k in range(n):
            scale = -2 * mpf(float(gauss_scales[k]))
            f = [[(i, powers[j][i, k]) for i in range(n) if powers[j][i, k]]
                 for j in range(n)]
            c = [{} for _ in range(2 * n - 1)]
            for j1 in range(n):
                for j2 in range(n):
                    cq = c[j1 + j2]
                    for i, u in f[j1]:
                        for l, v in f[j2]:
                            cq[i, l] = cq.get((i, l), 0) + u * v.conjugate()
            g = [gauss_moment(p, scale) for p in range(count + 2 * n - 2)]
            for m in range(count):
                for q, cq in enumerate(c):
                    if g[m + q]:
                        for (i, l), v in cq.items():
                            out[m][i][l] += g[m + q] * v
        return [np.array(o, dtype=object) for o in out]


def gram(polys: list[list[np.ndarray]], moments: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Pairings ``integral P_i W P_j* dt`` for j <= i of the given coefficient
    lists, as mpmath matrices ``g[i][j]``.

    ``polys[i][k]`` is the coefficient of t**k in P_i; ``moments`` must reach
    order ``2 * max degree``. With ``V_il = <P_i, t**l I> = sum_k C_ik
    S_{k+l}``, each pairing is ``sum_l V_il C_jl*`` over the j+1 coefficients
    of P_j.
    """
    top = max(len(c) for c in polys) - 1
    if len(moments) < 2 * top + 1:
        raise ValueError("not enough moments for these degrees")
    with mp.workdps(DPS):
        coeffs = [[to_mp(np.asarray(c)) for c in p] for p in polys]
        coeffs_h = [[_conj_t(c) for c in p] for p in coeffs]
        out = []
        for ci in coeffs:
            v = [sum(c.dot(moments[k + l]) for k, c in enumerate(ci))
                 for l in range(len(ci))]
            out.append([sum(v[l].dot(c) for l, c in enumerate(cj))
                        for cj in coeffs_h[:len(out) + 1]])
        return out


def sequence_deviations(polys: list[list[np.ndarray]], norms: list[np.ndarray],
                        moments: list[np.ndarray]) -> tuple[float, float]:
    """Worst orthogonality defect and worst norm deviation of a sequence.

    The defect of a pair i > j is ``|<P_i, P_j>| / sqrt(|<P_i, P_i>| |<P_j,
    P_j>|)``; the norm deviation is ``|norms[i] - <P_i, P_i>| / |<P_i,
    P_i>|``, all pairings taken exactly on the returned coefficients and all
    magnitudes max-abs over matrix entries.
    """
    g = gram(polys, moments)
    with mp.workdps(DPS):
        sizes = [_max_abs(g[i][i]) for i in range(len(polys))]
        defect = mpf(0)
        for i in range(len(polys)):
            for j in range(i):
                defect = max(defect, _max_abs(g[i][j]) / mp.sqrt(sizes[i] * sizes[j]))
        norm_dev = mpf(0)
        for i, nrm in enumerate(norms):
            norm_dev = max(norm_dev, _max_abs(to_mp(np.asarray(nrm)) - g[i][i]) / sizes[i])
        return float(defect), float(norm_dev)


def relative_deviation(value: np.ndarray, ref: np.ndarray) -> float:
    """``max|value - ref| / max|ref|`` with ``ref`` an mpmath matrix."""
    with mp.workdps(DPS):
        return float(_max_abs(to_mp(np.asarray(value)) - ref) / _max_abs(ref))
