import math

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
