import ast
import decimal
import importlib
import inspect
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matorth
from conftest import invalid_params
from matorth import _mp, weights
from matorth.gausserf import ERF, GAUSS, PLAIN, GaussErfMatrix, gauss_integral
from matorth.linalg import MatrixPolynomial, max_abs, nilpotent_exp
from matorth.sampling import draw_params
from matorth.suite import RunConfig, export_tables, run_parameter_sweep, run_suite
from matorth.weights import (IdentityReport, WeightParams, abel_identity_check,
                             alpha_coeff, build_structure, column_outers,
                             verify_structure_identities,
                             weight_eval, weight_inverse_symbolic_2x2, weight_moment,
                             weight_symbolic)

SQPI = math.sqrt(math.pi)


def members():
    """Sizes 2-6, each with real and with complex a, and b on both sides
    of 1."""
    for size in range(2, 7):
        rng = np.random.default_rng(size)
        mod = rng.uniform(0.5, 1.5, size - 1) * rng.choice([-1, 1], size - 1)
        phase = np.exp(2j * np.pi * rng.random(size - 1))
        for a in (mod, mod * phase):
            for b in (0.4, 2.5):
                yield WeightParams(size, tuple(a), b)


class TestParams:
    def test_rejects_small_size(self):
        with pytest.raises(ValueError, match="size"):
            WeightParams(1, (), 2.0)

    def test_rejects_zero_parameter_naming_index(self):
        with pytest.raises(ValueError, match="a_2"):
            WeightParams(3, (1.0, 0.0), 2.0)

    def test_rejects_nonpositive_b(self):
        with pytest.raises(ValueError, match="b"):
            WeightParams(2, (1.0,), 0.0)

    def test_rejects_wrong_parameter_count(self):
        with pytest.raises(ValueError):
            WeightParams(3, (1.0,), 2.0)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_rejects_invalid_parameters(self, data):
        size, a, b = data.draw(invalid_params())
        with pytest.raises(ValueError):
            WeightParams(size, a, b)

    def test_size_is_stored_as_an_int(self, tmp_path):
        p = WeightParams(np.int64(2), (1,), 2.0)
        assert type(p.size) is int and p == WeightParams(2, (1,), 2.0)
        # the reports and tables of such parameters serialize
        json.dumps(run_suite(RunConfig(p, nmax=2)).to_dict())
        manifest = export_tables(RunConfig(p, nmax=2, out=str(tmp_path)))
        assert manifest["params"]["size"] == 2

    @pytest.mark.parametrize("size, a", [(3.0, (1.0, 1.0)), (3.0, (1.0,)),
                                         (np.float64(2.0), (0.0,))])
    def test_rejects_a_size_that_is_not_an_integer(self, size, a):
        # before any other check: a wrong count or a zero a_1 is not reported
        with pytest.raises(TypeError, match="'.*float.*' object cannot be interpreted as an integer"):
            WeightParams(size, a, 2.0)

    def test_degenerate_flag(self):
        assert WeightParams(2, (1.0,), 1.0).degenerate_b
        assert not WeightParams(2, (1.0,), 2.0).degenerate_b


class TestStructure:
    def test_two_by_two_display(self):
        a, b = 1.5 - 0.5j, 3.0
        s = build_structure(WeightParams(2, (a,), b))
        assert np.array_equal(s.shift, np.array([[0, a], [0, 0]]))
        assert np.array_equal(s.diag_scale, np.diag([1.0, b]))
        assert np.array_equal(s.gauss_diag, np.diag([-b / 2.0, -0.5]))
        assert np.array_equal(s.nilpotent, s.shift)  # size 2: series has one term

    def test_alpha_zero_is_one(self):
        for size in (2, 4, 7):
            assert alpha_coeff(size, 2.7, 0) == 1.0

    def test_alpha_one_matches_reduced_form(self):
        # j = 1 reduces to (1 - b) / (4 b (N - 1)); at N = 4 that is (1-b)/(12b)
        b = 3.2
        assert abs(alpha_coeff(4, b, 1) - (1 - b) / (12 * b)) < 1e-18
        for size in (3, 5, 8):
            assert abs(alpha_coeff(size, b, 1)
                       - (1 - b) / (4 * b * (size - 1))) < 1e-18

    def test_number_and_scale_diagonals(self):
        p = WeightParams(4, (1.0, 1.0, 1.0), 2.0)
        s = build_structure(p)
        assert np.array_equal(np.diag(s.number), np.arange(4))
        psi = 1.0 + np.arange(4) / 3.0
        assert max_abs(np.diag(s.diag_scale) - psi) < 1e-15
        # the real diagonal of gauss_diag, stored once and read-only
        expected = np.real(np.diag(s.gauss_diag))
        assert s.gauss_scales.dtype == expected.dtype
        assert s.gauss_scales.tobytes() == expected.tobytes()
        assert not s.gauss_scales.flags.writeable

    def test_degenerate_b_kills_higher_terms(self):
        p = WeightParams(5, (1.0, 1.0, 1.0, 1.0), 1.0)
        s = build_structure(p)
        assert s.odd_coeffs[0] == 1.0
        assert all(c == 0.0 for c in s.odd_coeffs[1:])
        assert np.array_equal(s.nilpotent, s.shift)

    def test_factors_are_the_exponentials_of_the_nilpotent(self):
        for p in members():
            s = build_structure(p)
            for poly, m in ((s.factor, s.nilpotent), (s.factor_inv, -s.nilpotent)):
                assert poly.coeffs.tobytes() == nilpotent_exp(m).coeffs.tobytes()
                assert not poly.coeffs.flags.writeable
            prod = (s.factor * s.factor_inv).coeffs
            assert max_abs(prod[0] - np.eye(p.size)) < 1e-13
            assert max_abs(prod[1:]) < 1e-13


def _parameter_caches() -> dict:
    """Every ``lru_cache`` in the package keyed by a ``WeightParams``."""
    found = {}
    for info in pkgutil.iter_modules(matorth.__path__):
        mod = importlib.import_module(f"matorth.{info.name}")
        for name, fn in vars(mod).items():
            if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__:
                first = next(iter(inspect.signature(fn.__wrapped__).parameters.values()))
                if first.annotation in ("WeightParams", WeightParams):
                    found[f"{info.name}.{name}"] = fn
    return found


class TestCachePolicy:
    """Every per-parameter cache keeps the same ``CACHE_SIZE`` sets."""

    def test_every_parameter_cache_keeps_cache_size_sets(self):
        caches = _parameter_caches()
        assert {"weights.build_structure", "weights.weight_symbolic",
                "weights._fixed_identities", "operator.build_operator",
                "_mp._family"} <= set(caches)
        assert {name: fn.cache_parameters()["maxsize"] for name, fn in caches.items()} \
            == dict.fromkeys(caches, weights.CACHE_SIZE)

    def test_a_sweep_fills_no_cache_past_cache_size(self):
        p = WeightParams(2, (1.0,), 2.0)
        run_parameter_sweep(20, RunConfig(p, seed=3))
        sizes = {name: fn.cache_info().currsize for name, fn in _parameter_caches().items()}
        assert sizes["weights.build_structure"] == weights.CACHE_SIZE
        assert max(sizes.values()) <= weights.CACHE_SIZE

    def test_no_function_rebinds_a_module_global(self):
        # a new cache is a CACHE_SIZE lru_cache or lives with its caller, never
        # a module global that a function rebinds
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(Path(matorth.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Global)]
        assert found == []


class TestWeightEval:
    def test_two_by_two_display(self):
        a, b = 0.8 + 0.4j, 2.5
        p = WeightParams(2, (a,), b)
        for t in (-2.0, 0.3, 1.7):
            g1, g = math.exp(-b * t * t), math.exp(-t * t)
            expected = np.array([
                [abs(a) ** 2 * t * t * g + g1, a * t * g],
                [np.conj(a) * t * g, g],
            ])
            assert max_abs(weight_eval(p, t)[1] - expected) < 1e-15

    def test_at_zero_both_identity(self):
        p = WeightParams(3, (1.0, 2.0j), 0.7)
        big_t, w = weight_eval(p, 0.0)
        assert max_abs(big_t - np.eye(3)) == 0.0
        assert max_abs(w - np.eye(3)) == 0.0

    def test_tiny_a_is_nearly_diagonal(self):
        b = 3.0
        p = WeightParams(2, (1e-150,), b)
        t = 1.3
        w = weight_eval(p, t)[1]
        assert abs(w[0, 1]) < 1e-140 and abs(w[1, 0]) < 1e-140
        assert max_abs(w - np.diag([math.exp(-b * t * t),
                                    math.exp(-t * t)])) < 1e-15

    def test_hermitian_positive_definite(self):
        rng = np.random.default_rng(11)
        for size in range(2, 9):
            a = rng.uniform(0.2, 1.5, size - 1) * np.exp(2j * np.pi * rng.random(size - 1))
            p = WeightParams(size, tuple(a), float(rng.uniform(0.3, 4.0)))
            for t in np.linspace(-5, 5, 9):
                w = weight_eval(p, t)[1]
                assert max_abs(w - w.conj().T) < 1e-14 * max(1.0, max_abs(w))
                assert np.linalg.eigvalsh(w).min() > 0.0

    def test_determinant_product_law(self):
        # det W = prod_k exp(2 d_k t^2): the polynomial factor is unimodular
        p = WeightParams(3, (1.0, 0.5 + 1.0j), 1.8)
        s = build_structure(p)
        for t in (-1.5, 0.4, 2.0):
            expected = math.exp(2.0 * t * t * float(np.sum(s.gauss_scales)))
            det = np.linalg.det(weight_eval(p, t)[1]).real
            assert abs(det - expected) < 1e-8 * expected

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6),
           st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5))
    def test_parity_is_exact(self, seed, size, ts):
        # W(-t) = S W(t) S with S = diag((-1)**i), bit for bit but for the sign
        # of a zero (W(0) = I): moment_oracle sums its node pairs from the
        # positive nodes alone on this premise
        p = draw_params(np.random.default_rng(seed), sizes=(size, size))
        odd = np.add.outer(np.arange(size), np.arange(size)) % 2 == 1
        for t in (ts[0], np.array(ts)):
            w = weight_eval(p, t)[1]
            assert np.array_equal(weight_eval(p, -t)[1], np.where(odd, -w, w))

    def test_symbolic_matches_pointwise(self):
        for p in [WeightParams(4, (1.0, -0.7, 0.3j), 0.6), *members()]:
            w_sym = weight_symbolic(p)
            for t in (-2.2, 0.1, 1.4):
                assert max_abs(w_sym(t) - weight_eval(p, t)[1]) < 1e-13


class TestScalarEvaluation:
    """A Python float takes its own path through ``weight_eval``, with the
    bits of the array path."""

    @pytest.mark.parametrize("t", [0.0, -0.0, 1e-300, -1e-300, -3.0, 3.25, -3.25, 19.5])
    def test_matches_the_array_path_byte_for_byte(self, t):
        for p in members():
            scalar = weight_eval(p, t)
            for array in (np.array([t]), np.array(t)):
                for part, one in zip(weight_eval(p, array), scalar):
                    assert one.shape == (p.size, p.size)
                    assert one.tobytes() == part.reshape(one.shape).tobytes()


class TestArrayEvaluation:
    """A 1-D array of t evaluates like the stacked scalar calls."""

    @staticmethod
    def assert_stacked(f, ts, size):
        got = f(np.array(ts))
        assert got.shape == (len(ts), size, size)
        for t, g in zip(ts, got):
            one = f(t)
            assert one.shape == (size, size)
            assert max_abs(g - one) <= 1e-15 * max_abs(one)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_matches_scalar_calls(self, data):
        size = data.draw(st.integers(2, 5))
        n_t = data.draw(st.sampled_from([1, size, 7]))
        ts = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n_t, max_size=n_t))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

        def matrix():
            return rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        poly = MatrixPolynomial([matrix() for _ in range(rng.integers(1, 6))])
        self.assert_stacked(poly, ts, size)
        keys, coeffs = [], np.zeros((6, 5, size, size), dtype=complex)
        for c, kind in zip(coeffs, (PLAIN, PLAIN, GAUSS, GAUSS, ERF, ERF)):
            c[int(rng.integers(0, 5))] = matrix()
            keys.append((kind, float(rng.uniform(0.3, 3.0))))
        self.assert_stacked(GaussErfMatrix(keys, coeffs), ts, size)
        a = rng.uniform(0.3, 1.5, size - 1) * np.exp(2j * np.pi * rng.random(size - 1))
        p = WeightParams(size, tuple(a), float(rng.uniform(0.2, 5.0)))
        for part in (0, 1):
            self.assert_stacked(lambda t: weight_eval(p, t)[part], ts, size)


class TestMoments:
    def test_pinned_summation_order(self):
        # the sum of the column factorization in column-major, power-minor
        # order: sweep-wide accuracy and the oracle comparisons rest on
        # these exact bits
        for size in range(2, 7):
            for p in [q for q in members() if q.size == size]:
                g = build_structure(p).gauss_scales
                outers = column_outers(build_structure(p).factor.coeffs)
                for m in range(2 * size + 1):
                    expected = np.zeros((size, size), dtype=complex)
                    for c in range(size):
                        for d in range(len(outers[c])):
                            expected += gauss_integral(d + m, -2.0 * g[c]) * outers[c][d]
                    assert weight_moment(p, m).tobytes() == expected.tobytes()

    def test_zeroth_moment_closed_form(self):
        a, b = 1.3 - 0.2j, 2.0
        p = WeightParams(2, (a,), b)
        expected = np.diag([abs(a) ** 2 * SQPI / 2.0 + math.sqrt(math.pi / b), SQPI])
        assert max_abs(weight_moment(p, 0) - expected) < 1e-14

    def test_second_moment_corner_entry(self):
        p = WeightParams(2, (1.0,), 2.0)
        assert abs(weight_moment(p, 2)[1, 1] - SQPI / 2.0) < 1e-15

    def test_odd_moment_diagonal_vanishes(self):
        p = WeightParams(3, (1.0, 1.5), 2.5)
        for m in (1, 3, 7):
            assert max_abs(np.diag(weight_moment(p, m))) == 0.0

    def test_moments_hermitian(self):
        p = WeightParams(4, (1.0, 0.5j, 2.0), 1.3)
        for m in range(8):
            s = weight_moment(p, m)
            assert max_abs(s - s.conj().T) < 1e-12 * max(1.0, max_abs(s))

    def test_matches_high_precision_moments(self):
        # one column factorization, summed in double here and at 51 digits
        # in the orthogonalizer's family
        for p in members():
            fam = _mp._MpFamily(p)
            for m in range(2 * p.size + 5):
                with decimal.localcontext(_mp._CONTEXT):
                    ref = fam._complex(fam.moment(m))
                assert max_abs(weight_moment(p, m) - ref) <= 1e-14 * max_abs(ref)

    @pytest.mark.parametrize("m", [1.5, 2.0])
    def test_rejects_non_integer_order(self, m):
        with pytest.raises(TypeError):
            weight_moment(WeightParams(2, (1.0,), 2.0), m)
        assert weight_moment(WeightParams(2, (1.0,), 2.0), np.int64(2)).shape == (2, 2)

    def test_returns_fresh_arrays(self):
        p = WeightParams(2, (1.0,), 2.0)
        first = weight_moment(p, 4)
        first[0, 0] = 0.0
        assert weight_moment(p, 4)[0, 0] != 0.0


class TestInverse2x2:
    def test_identity_at_zero(self):
        p = WeightParams(2, (2.0,), 0.5)
        assert max_abs(weight_inverse_symbolic_2x2(p)(0.0) - np.eye(2)) == 0.0

    def test_product_is_identity_on_grid(self):
        p = WeightParams(2, (1.0,), 2.0)
        for t in np.linspace(-3, 3, 13):
            prod = weight_eval(p, t)[1] @ weight_inverse_symbolic_2x2(p)(t)
            assert max_abs(prod - np.eye(2)) < 1e-10

    def test_product_is_identity_complex_parameter(self):
        # |a|^2 = 2 doubles the exp(b t^2) cancellation scale at |t| = 3
        p = WeightParams(2, (1.0 + 1.0j,), 2.0)
        for t in np.linspace(-3, 3, 13):
            prod = weight_eval(p, t)[1] @ weight_inverse_symbolic_2x2(p)(t)
            assert max_abs(prod - np.eye(2)) < 5e-10

    def test_tiny_a_diagonal(self):
        b = 2.0
        p = WeightParams(2, (1e-160,), b)
        t = 1.1
        expected = np.diag([math.exp(b * t * t), math.exp(t * t)])
        assert max_abs(weight_inverse_symbolic_2x2(p)(t) - expected) < 1e-140

    def test_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            weight_inverse_symbolic_2x2(WeightParams(3, (1.0, 1.0), 2.0))


class TestStructureIdentities:
    def test_size_two_is_exact(self):
        p = WeightParams(2, (1.0 - 2.0j,), 3.0)
        rep = verify_structure_identities(p, 0.8)
        # bracket with the number operator gives back the shift; both sides of
        # the defect identity vanish since the shift squares to zero
        assert rep.residuals["bracket_series"] == 0.0
        assert rep.residuals["bracket_defect"] == 0.0
        assert rep.max_residual < 1e-14

    def test_size_five_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.uniform(0.2, 1.8, 4) * np.exp(2j * np.pi * rng.random(4))
            p = WeightParams(5, tuple(a), 2.0)
            rep = verify_structure_identities(p, 0.7)
            assert not rep.skipped
            assert len(rep.residuals) == 6
            assert rep.max_residual < 1e-10

    def test_degenerate_b_skips_inverse_factor_identity(self):
        p = WeightParams(4, (1.0, 1.0, 1.0), 1.0)
        rep = verify_structure_identities(p, 1.2)
        assert rep.skipped == ("even_power_sum",)
        assert len(rep.residuals) == 5
        assert rep.max_residual < 1e-12

    @pytest.mark.parametrize("b", [0.4, 1.0, 2.5])
    def test_cached_report_equals_one_built_from_scratch(self, b):
        # the identities that do not depend on t are kept per parameter set
        p = WeightParams(5, (1.0, 0.4j, 1.1, -0.6), b)
        verify_structure_identities(p, -2.0)
        cached = [repr(verify_structure_identities(p, t)) for t in (0.3, 1.9)]
        fresh = []
        for t in (0.3, 1.9):
            weights._fixed_identities.cache_clear()
            fresh.append(repr(verify_structure_identities(p, t)))
        assert cached == fresh
        assert list(verify_structure_identities(p, 0.3).residuals) == [
            "bracket_series", "exp_intertwines_scale", "gauss_conj_scale_left",
            "gauss_conj_scale_right", *["even_power_sum"] * (b != 1.0), "bracket_defect"]

    def test_nan_residual_is_never_dropped(self):
        rep = IdentityReport({"x": 0.0, "y": math.nan, "z": 1e-3}, ())
        assert math.isnan(rep.max_residual)

    def test_fifty_draws_across_sizes(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            size = int(rng.integers(2, 9))
            while True:
                b = float(rng.uniform(0.2, 5.0))
                if abs(b - 1.0) > 0.05:
                    break
            a = rng.uniform(0.1, 2.0, size - 1) * np.exp(2j * np.pi * rng.random(size - 1))
            p = WeightParams(size, tuple(a), b)
            for t in (-2.0, 0.3, 1.9):
                assert verify_structure_identities(p, t).max_residual < 1e-10


class TestAbelIdentity:
    def test_k_zero(self):
        lhs, rhs, res = abel_identity_check(0, 0.3 + 1.0j, -0.7 + 0.2j)
        w = -0.7 + 0.2j
        assert abs(lhs - 1.0 / w) < 1e-15
        assert abs(rhs - 1.0 / w) < 1e-15
        assert res < 1e-15

    def test_k_one_hand_expansion(self):
        z, w = 0.0, 1.0
        lhs, rhs, res = abel_identity_check(1, z, w)
        assert abs(rhs - 2.0) < 1e-15  # (z + w + 1)/w = 2
        assert abs(lhs - rhs) < 1e-15

    @pytest.mark.parametrize("k", [1, 3, 6, 12, 20])
    def test_half_half_specialization(self, k):
        # with z = w = 1/2 and the terms rescaled by 2^(k-1), the sum equals
        # 2^k (1 + k)^k
        lhs, rhs, res = abel_identity_check(k, 0.5, 0.5)
        assert res < 1e-13
        assert abs(lhs.real * 2.0 ** (k - 1) - 2.0 ** k * (1 + k) ** k) \
            <= 1e-12 * 2.0 ** k * (1 + k) ** k

    def test_zero_convention_corner(self):
        # m = -z corner exercises 0**0 = 1
        lhs, rhs, res = abel_identity_check(3, -1.0, 1.0)
        assert res < 1e-13

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            abel_identity_check(41, 1.0, 1.0)

    def test_rejects_zero_w(self):
        with pytest.raises(ValueError):
            abel_identity_check(3, 1.0, 0.0)
