import math
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import strategies as st

from matorth import WeightParams
from matorth.linalg import max_abs
from matorth.weights import weight_moment


def rel_dev(x, y) -> float:
    x, y = np.asarray(x), np.asarray(y)
    return max_abs(x - y) / max(1.0, max_abs(x), max_abs(y))


def poly_rel_dev(x, y) -> float:
    return (x - y).max_coeff() / max(1.0, x.max_coeff(), y.max_coeff())


def moment_pairing(p: WeightParams, lhs, rhs) -> np.ndarray:
    """``integral lhs(t) W(t) rhs(t)* dt`` for matrix polynomials, expanded
    over the exact moments ``weight_moment``."""
    moments = [weight_moment(p, m) for m in range(lhs.degree + rhs.degree + 1)]
    return sum(cj @ moments[j + k] @ ck.conj().T
               for j, cj in enumerate(lhs.coeffs) for k, ck in enumerate(rhs.coeffs))


def abel_sides(k: int, z: F, w: F) -> tuple[F, F]:
    """Both sides of Abel's binomial identity, which the structural proofs use,
    ``sum_m C(k,m) (m+z)^m (k-m+w)^(k-m-1) = (z+w+k)^k / w``, in exact
    rationals, with 0**0 = 1 as ``Fraction`` has it."""
    lhs = sum(math.comb(k, m) * (m + z) ** m * (k - m + w) ** (k - m - 1)
              for m in range(k + 1))
    return lhs, (z + w + k) ** k / w


# rational (z, w) for the identity: a 0**0 first factor (z = 0 at m = 0), a
# vanishing one (z = -3 at m = 3), a 0**0 second factor (w = -1 at m = k - 1)
# and a negative w with no zero factor
ABEL_PAIRS = [(F(0), F(1)), (F(-3), F(1, 2)), (F(1, 2), F(1, 2)), (F(-5, 3), F(-1)),
              (F(7, 4), F(-2, 5)), (F(-1, 3), F(9, 7))]


def abel_misses() -> list[tuple[int, F, F]]:
    """The (k, z, w) of ``ABEL_PAIRS`` and k = 0..40 where the two sides differ."""
    misses = []
    for z, w in ABEL_PAIRS:
        for k in range(41):
            lhs, rhs = abel_sides(k, z, w)
            if lhs != rhs:
                misses.append((k, z, w))
    return misses


def reachable_decimals(obj) -> int:
    """How many distinct ``Decimal`` objects ``obj`` reaches through its
    attributes, its containers' items and its object arrays' entries."""
    seen, count, todo = set(), 0, [obj]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Decimal):
            count += 1
        elif isinstance(x, np.ndarray):
            if x.dtype == object:
                todo.extend(x.flat)
        elif isinstance(x, dict):
            todo.extend(x.items())
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
        elif hasattr(x, "__dict__"):
            todo.extend(vars(x).values())
    return count


@pytest.fixture
def flagship() -> WeightParams:
    """The default 2x2 member used throughout: a = 1, b = 2."""
    return WeightParams(2, (1.0,), 2.0)


@pytest.fixture
def grid() -> np.ndarray:
    return np.linspace(-3.0, 3.0, 11)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(-1e3, 1e3)
GOOD_A = st.builds(complex, st.floats(0.1, 10.0), FINITE)


@st.composite
def invalid_params(draw):
    """(size, a, b) with exactly one kind of fault: a size below 2, a wrong
    number of a's, an a that is zero or not finite, or a b that is not
    finite and positive."""
    fault = draw(st.sampled_from(["size", "count", "a", "b"]))
    size = draw(st.integers(2, 5))
    a = draw(st.lists(GOOD_A, min_size=size - 1, max_size=size - 1))
    b = draw(st.floats(0.1, 10.0))
    if fault == "size":
        size = draw(st.integers(-3, 1))
        a = []
    elif fault == "count":
        a = draw(st.lists(GOOD_A, max_size=6).filter(lambda v: len(v) != size - 1))
    elif fault == "a":
        a[draw(st.integers(0, size - 2))] = draw(st.one_of(
            st.just(0j), st.builds(complex, NON_FINITE, FINITE),
            st.builds(complex, FINITE, NON_FINITE)))
    else:
        b = draw(st.one_of(NON_FINITE, st.floats(max_value=0.0, allow_nan=False)))
    return size, tuple(a), b
