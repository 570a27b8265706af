"""Seeded random parameter draws shared by the verification CLI and tests."""
from __future__ import annotations

import numpy as np

from .weights import WeightParams

__all__ = ["draw_params", "draw_abel_case"]

# modulus range of the drawn off-diagonal parameters, half-width of the band
# around the degenerate b = 1 that draws avoid, largest binomial-identity k
A_MOD, B_GUARD, ABEL_KMAX = (0.1, 2.0), 0.05, 30


def draw_params(rng: np.random.Generator, sizes=(2, 6),
                b_range=(0.2, 5.0)) -> WeightParams:
    """One random family member.

    Sizes are drawn uniformly from the inclusive range ``sizes``; the decay
    parameter avoids a small guard band around the degenerate value 1 so
    identities carrying 1/(1-b) stay well scaled; the off-diagonal
    parameters get uniform modulus and phase.
    """
    size = int(rng.integers(sizes[0], sizes[1] + 1))
    while True:
        b = float(rng.uniform(*b_range))
        if abs(b - 1.0) >= B_GUARD:
            break
    mods = rng.uniform(*A_MOD, size=size - 1)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=size - 1)
    a = tuple(m * np.exp(1j * ph) for m, ph in zip(mods, phases))
    return WeightParams(size, a, b)


def draw_abel_case(rng: np.random.Generator) -> tuple[int, complex, complex]:
    """Random (k, z, w) for the binomial identity check, k up to ``ABEL_KMAX``.

    Real parts are kept positive so neither side of the identity can hit a
    near-zero cancellation that would make a relative residual meaningless.
    """
    k = int(rng.integers(0, ABEL_KMAX + 1))
    z = complex(rng.uniform(0.1, 1.5), rng.uniform(-1.5, 1.5))
    w = complex(rng.uniform(0.1, 1.5), rng.uniform(-1.5, 1.5))
    return k, z, w
