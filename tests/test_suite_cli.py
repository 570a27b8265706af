import argparse
import ast
import csv
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matorth
import matorth.closed_forms as cf
import matorth.suite as suite
from conftest import invalid_params, reachable_decimals
from matorth import cli
from matorth.cli import main
from matorth.linalg import MatrixPolynomial, max_abs, worst
from matorth.operator import build_operator, eigenvalue_matrix
from matorth.orthogonal import monic_sequence
from matorth.suite import RunConfig, export_tables, run_parameter_sweep, run_suite
from matorth.weights import IdentityReport, WeightParams

FLAGSHIP = WeightParams(2, (1.0,), 2.0)

# the flags of each subcommand besides --size, --a and --b; only export
# writes tables, so orthopoly, recurrence and norms print and take no --out
OWN_FLAGS = {
    "structure": {"--out"},
    "verify": {"--nmax", "--seed", "--sweeps", "--out"},
    "orthopoly": {"--nmax", "--coeffs"},
    "recurrence": {"--nmax"},
    "norms": {"--nmax"},
    "asymptotics": {"--horizon", "--out"},
    "export": {"--nmax", "--format", "--out"},
}
# a valid value for each flag that some subcommand does not take, and for
# the three that no subcommand takes since the gate policy is fixed
FLAG_VALUES = {"--nmax": "3", "--grid": "-1:1:3", "--tol-abs": "1e-10",
               "--tol-rel": "1e-8", "--seed": "1", "--format": "json", "--out": "x"}
REMOVED = [(command, flag) for command, own in OWN_FLAGS.items()
           for flag in FLAG_VALUES if flag not in own]
# help, no or an unknown name, an option before the name, extra or unrecognized
# arguments, bad values and abbreviated flags, then every subcommand's help
PARSER_CASES = [[], ["-h"], ["--help"], ["-h", "verify"], ["bogus"], ["ver"],
                ["--size", "2"], ["--size", "2", "verify"], ["verify", "extra"],
                ["verify", "structure"], ["verify", "--bogus"], ["verify", "-h", "extra"],
                ["verify", "--nmax", "x"], ["verify", "--size", "2.5"],
                ["export", "--format", "xml"], ["verify", "--s", "3"], ["verify", "--nm", "x"],
                ["verify", "--nm", "-1"], ["structure", "--si", "3"],
                *([command, "-h"] for command in OWN_FLAGS)]


def _cli_number(x: float) -> str:
    """A float as the CLI parses it; 1e999 spells infinity without an 'i'."""
    return {math.inf: "1e999", -math.inf: "-1e999"}.get(x, repr(x))


def check_map(summary):
    return {c.name: c for c in summary.checks}


class TestRunSuite:
    def test_derivative_passes_at_size_two(self, monkeypatch):
        """A size-2 run to nmax 12 differentiates 18 times: 3 passes for the
        symmetry equations, one chain of 12 for the Rodrigues polynomials of
        degrees 1..12 (78 when each degree starts its own) and 3 for the
        kernel equation of degrees 1..10 (30 one degree at a time)."""
        import matorth.gausserf as gausserf
        import matorth.operator as operator
        import matorth.closed_forms as cf
        calls = []

        def counted(keys, c):
            calls.append(c.shape)
            return derivative_stack(keys, c)
        derivative_stack = gausserf.derivative_stack
        for module in (gausserf, operator, cf):
            monkeypatch.setattr(module, "derivative_stack", counted)
        p = WeightParams(2, (0.6 + 0.8j,), 2.5)
        assert run_suite(RunConfig(p, nmax=12)).overall
        assert len(calls) == 18
        calls.clear()
        cf._rodrigues_table(p, range(1, 13))
        assert len(calls) == 12
        calls.clear()
        cf._pde_residual_table(p, range(1, 11), [0.5])
        assert len(calls) == 3

    def test_flagship_all_pass(self):
        summary = run_suite(RunConfig(FLAGSHIP, nmax=8))
        assert summary.overall
        names = [c.name for c in summary.checks]
        for expected in ("structure-build", "structure-identities", "symmetry-equations",
                         "boundary-decay", "chi-xi", "moment-oracle",
                         "monic-orthogonality", "eigenvalue-equation",
                         "recurrence-identity", "rodrigues-explicit",
                         "recurrence-closed-forms", "norm-closed-forms",
                         "rodrigues-equation", "recurrence-asymptotics"):
            assert expected in names
        assert "abel-identity" not in names  # exact, in test_weights.TestAbelIdentity

    def test_degenerate_b_marks_skips_and_passes(self):
        summary = run_suite(RunConfig(WeightParams(2, (1.0,), 1.0), nmax=5))
        checks = check_map(summary)
        assert checks["recurrence-asymptotics"].skipped
        assert "even_power_sum" in checks["structure-identities"].note
        assert summary.overall

    def test_larger_size_skips_closed_forms_only(self):
        summary = run_suite(RunConfig(WeightParams(3, (1.0, 0.5), 2.0), nmax=6))
        checks = check_map(summary)
        assert not checks["recurrence-identity"].skipped
        assert checks["rodrigues-explicit"].skipped
        assert summary.overall

    def test_every_guard_can_fire(self, monkeypatch):
        # at zero tolerance every check that runs FAILs, and none aborts the rest
        monkeypatch.setattr(suite, "TOLERANCES", dict.fromkeys(suite.TOLERANCES, 0.0))
        config = RunConfig(FLAGSHIP, nmax=4)
        checks = [*run_suite(config).checks, *run_parameter_sweep(2, config).checks]
        assert [c.name for c in checks] == [*suite.TOLERANCES, "sweep-structure-identities",
                                            "sweep-symmetry-equations", "sweep-chi-xi"]
        assert [c.name for c in checks if c.passed or c.skipped] == []
        assert all(c.tolerance == 0.0 and "error" not in c.note for c in checks)

    def test_the_run_config_holds_no_gate_policy(self):
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "params", "nmax", "fmt", "out", "seed"]

    def test_nan_residual_fails_the_check(self, monkeypatch):
        real = suite.verify_structure_identities

        def nan_at_zero(p, t):
            rep = real(p, t)
            if t == 0.0:
                rep = IdentityReport({**rep.residuals, "bracket_series": math.nan},
                                     rep.skipped)
            return rep
        monkeypatch.setattr(suite, "verify_structure_identities", nan_at_zero)
        assert 0.0 in suite.GRID
        summary = run_suite(RunConfig(FLAGSHIP, nmax=1))
        check = check_map(summary)["structure-identities"]
        assert math.isnan(check.residual) and not check.passed
        assert not summary.overall

    def test_sweep_times_each_check(self):
        summary = run_parameter_sweep(2, RunConfig(FLAGSHIP))
        assert [c.name for c in summary.checks] == [
            "sweep-structure-identities", "sweep-symmetry-equations", "sweep-chi-xi"]
        assert all(c.seconds > 0.0 for c in summary.checks)
        assert summary.overall

    @pytest.mark.parametrize("count", [0, -2])
    def test_sweep_needs_a_draw(self, count):
        with pytest.raises(ValueError, match="at least one draw"):
            run_parameter_sweep(count, RunConfig(FLAGSHIP))

    def test_closed_form_checks_cover_the_built_range(self):
        checks = check_map(run_suite(RunConfig(FLAGSHIP, nmax=20)))
        assert checks["recurrence-closed-forms"].note == "degrees 1..20"
        assert checks["norm-closed-forms"].note == "degrees 0..21"
        assert checks["recurrence-closed-forms"].passed
        assert checks["norm-closed-forms"].passed

    def test_nmax_zero_skips_checks_that_compare_no_degree(self):
        empty = ("rodrigues-explicit", "recurrence-closed-forms", "rodrigues-equation")
        zero = check_map(run_suite(RunConfig(FLAGSHIP, nmax=0)))
        one = check_map(run_suite(RunConfig(FLAGSHIP, nmax=1)))
        for name in empty:
            assert zero[name].skipped and "nmax 0" in zero[name].note
            assert not one[name].skipped and one[name].passed
        assert not zero["norm-closed-forms"].skipped
        assert zero["norm-closed-forms"].note == "degrees 0..1"
        assert one["recurrence-closed-forms"].note == "degrees 1..1"

    def test_recurrence_residuals_measured_once(self, monkeypatch):
        calls = []
        real = suite.recurrence_from_sequence

        def counted(seq):
            calls.append(seq.top_degree)
            return real(seq)
        monkeypatch.setattr(suite, "recurrence_from_sequence", counted)
        summary = run_suite(RunConfig(FLAGSHIP, nmax=6))
        assert calls == [7]
        assert summary.overall

    @pytest.mark.parametrize("p, nmax", [
        (WeightParams(2, (0.6 + 0.8j,), 4.0), 20), (WeightParams(2, (1.0,), 1e6), 12),
        (WeightParams(2, (1.0,), 0.25), 0), (WeightParams(3, (0.8 - 0.3j, -1.2), 0.25), 12),
        (WeightParams(6, (1, 1, 1, 1, 1), 3.0), 20),
    ])
    def test_gate_residuals_equal_the_per_pair_and_per_degree_loops(self, p, nmax):
        checks = check_map(run_suite(RunConfig(p, nmax=nmax)))
        seq = monic_sequence(p, nmax + 1)
        op = build_operator(p)

        def defect(n, m):
            scale = math.sqrt(max_abs(seq.norms[n]) * max_abs(seq.norms[m]))
            return max_abs(seq.pairing(n, m)) / max(1.0, scale)

        def deviation(n):  # the operator in MatrixPolynomial arithmetic
            poly = seq.polys[n]
            rhs = poly.lmul(eigenvalue_matrix(p, n))
            lhs = poly.derivative(2) * op.f2 + poly.derivative() * op.f1 + poly * op.f0
            return (lhs - rhs).max_coeff() / max(1.0, rhs.max_coeff())
        count = len(seq.polys)
        assert checks["monic-orthogonality"].residual == worst(
            defect(n, m) for n in range(count) for m in range(n))
        assert checks["eigenvalue-equation"].residual == worst(map(deviation, range(count)))

    def test_gate_and_pairing_keep_no_decimals(self):
        p = WeightParams(2, (0.55 - 0.75j,), 2.15)  # cold: params unused elsewhere
        seq = monic_sequence(p, 21)
        fam = seq._family
        built = reachable_decimals(fam)
        assert check_map(run_suite(RunConfig(p, nmax=20)))["monic-orthogonality"].passed
        seq.pairing(21, 20)
        assert monic_sequence(p, 21)._family is fam
        assert reachable_decimals(fam) == built

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(FLAGSHIP, nmax=-1)
        with pytest.raises(ValueError):
            RunConfig(FLAGSHIP, fmt="xml")

    def test_nmax_must_be_an_integer(self, tmp_path):
        out = tmp_path / "tables"
        for nmax in (2.5, 3.0, "3"):
            with pytest.raises(TypeError):
                run_suite(RunConfig(FLAGSHIP, nmax=nmax))
            with pytest.raises(TypeError):
                export_tables(RunConfig(FLAGSHIP, nmax=nmax, out=str(out)))
        assert not out.exists()  # refused before the directory is made
        config = RunConfig(FLAGSHIP, nmax=np.int64(3), out=str(out))
        assert type(config.nmax) is int
        assert export_tables(config)["nmax"] == 3

    def test_seed_must_be_an_integer(self):
        for seed in (2.5, 3.0, "3"):
            with pytest.raises(TypeError):
                RunConfig(FLAGSHIP, seed=seed)
        assert type(RunConfig(FLAGSHIP, seed=np.int64(3)).seed) is int


def _reference_json_table(path, p, name, layout):
    """The JSON table writer as first released: ``json.dump`` with indent 1."""
    doc = {"params": suite.params_to_dict(p), "table": name,
           "start_index": layout["start_index"]}
    if layout["kind"] == "matrix":
        doc["data"] = [suite._matrix_to_json(m) for m in layout["data"]]
    elif layout["kind"] == "scalar":
        doc["data"] = [float(v) for v in layout["data"]]
    else:
        doc["data"] = [{"n": n, "power": k, "coeff": suite._matrix_to_json(c)}
                       for n, k, c in layout["data"]]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _reference_csv_table(path, p, name, layout):
    """The CSV table writer as first released: ``csv.writer``, one row per
    entry, one f-string per number."""
    def flat(m):
        vals = []
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                vals.extend([f"{m[i, j].real:.17g}", f"{m[i, j].imag:.17g}"])
        return vals

    header = [f"e{i}{j}_{part}" for i in range(p.size) for j in range(p.size)
              for part in ("re", "im")]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if layout["kind"] == "matrix":
            writer.writerow(["n"] + header)
            for off, m in enumerate(layout["data"]):
                writer.writerow([layout["start_index"] + off] + flat(m))
        elif layout["kind"] == "scalar":
            writer.writerow(["n", name])
            for off, v in enumerate(layout["data"]):
                writer.writerow([layout["start_index"] + off, f"{float(v):.17g}"])
        else:
            writer.writerow(["n", "power"] + header)
            for n, k, c in layout["data"]:
                writer.writerow([n, k] + flat(c))


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 0.1, -2.5e-310,
                  5e-324, 1.7976931348623157e308, 1e16, 123456789.125]


def _table_data(size: int, kind: str, count: int) -> list:
    """``count`` entries of one table kind, carrying NaN, +-inf and -0.0 in
    real and imaginary parts; every other matrix is a non-contiguous
    ``m.conj().T``."""
    rng = np.random.default_rng(100 * size + count)

    def matrix(k):
        vals = rng.normal(size=2 * size * size) * 10.0 ** rng.integers(-8, 8)
        vals[:len(SPECIAL_FLOATS)] = rng.permutation(SPECIAL_FLOATS)[:len(vals)]
        m = rng.permutation(vals).view(complex).reshape(size, size)
        return m.conj().T if k % 2 else m

    if kind == "matrix":
        return [matrix(k) for k in range(count)]
    if kind == "scalar":
        values = [SPECIAL_FLOATS[k % len(SPECIAL_FLOATS)] for k in range(count)]
        return [np.float64(v) if k % 2 else v for k, v in enumerate(values)]
    return [(k // 2, k % 2, matrix(k)) for k in range(count)]


class TestExport:
    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            export_tables(RunConfig(FLAGSHIP, nmax=5, out=str(out)))
        for f in sorted(out1.iterdir()):
            assert (out2 / f.name).read_bytes() == f.read_bytes()

    def test_json_roundtrip_recurrence_identity(self, tmp_path):
        export_tables(RunConfig(FLAGSHIP, nmax=6, out=str(tmp_path)))

        def load(name):
            with open(tmp_path / f"{name}.json") as fh:
                return json.load(fh)

        def to_matrix(rows):
            return np.array([[complex(re, im) for re, im in row] for row in rows])

        polys_doc = load("monic_polys")["data"]
        by_degree: dict[int, dict[int, np.ndarray]] = {}
        for row in polys_doc:
            by_degree.setdefault(row["n"], {})[row["power"]] = to_matrix(row["coeff"])
        polys = [MatrixPolynomial([by_degree[n][k] for k in range(n + 1)])
                 for n in sorted(by_degree)]
        bhat = [to_matrix(m) for m in load("monic_Bhat")["data"]]
        chat = [to_matrix(m) for m in load("monic_Chat")["data"]]
        eye = np.eye(2, dtype=complex)
        for n in range(len(bhat)):
            lhs = MatrixPolynomial([0 * eye, eye]) * polys[n]
            rhs = polys[n + 1] + polys[n].lmul(bhat[n])
            if n >= 1:
                rhs = rhs + polys[n - 1].lmul(chat[n - 1])
            resid = (lhs - rhs).max_coeff() / max(1.0, lhs.max_coeff())
            assert resid < 1e-9

    def test_csv_layout(self, tmp_path):
        export_tables(RunConfig(FLAGSHIP, nmax=4, fmt="csv", out=str(tmp_path)))
        lines = (tmp_path / "orthonormal_A.csv").read_text().splitlines()
        assert lines[0] == "n,e00_re,e00_im,e01_re,e01_im,e10_re,e10_im,e11_re,e11_im"
        assert lines[1].split(",")[0] == "1"
        assert len(lines) == 1 + 5  # the sequence reaches degree nmax + 1
        gamma_lines = (tmp_path / "gamma.csv").read_text().splitlines()
        assert gamma_lines[0] == "n,gamma"
        assert float(gamma_lines[1].split(",")[1]) == 2.0

    def test_manifest_lists_all_tables(self, tmp_path):
        manifest = export_tables(RunConfig(FLAGSHIP, nmax=4, out=str(tmp_path)))
        for fname in manifest["tables"].values():
            assert (tmp_path / fname).exists()
        with open(tmp_path / "manifest.json") as fh:
            assert json.load(fh) == manifest

    def test_export_measures_no_residuals(self, tmp_path, monkeypatch):
        # export writes the monic B and C tables but no recurrence residual
        def refuse(seq):
            raise AssertionError("export measured recurrence residuals")

        monkeypatch.setattr(suite, "recurrence_from_sequence", refuse)
        export_tables(RunConfig(FLAGSHIP, nmax=4, out=str(tmp_path)))
        bhat = json.loads((tmp_path / "monic_Bhat.json").read_text())["data"]
        assert len(bhat) == 5

    def test_requires_out(self):
        with pytest.raises(ValueError):
            export_tables(RunConfig(FLAGSHIP, nmax=3))

    @pytest.mark.parametrize("count", [0, 1, 13])
    @pytest.mark.parametrize("kind", ["matrix", "scalar", "poly"])
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_writers_match_the_first_release(self, tmp_path, size, kind, count):
        p = WeightParams(size, (0.5 - 1j,) * (size - 1), 3.0)
        layout = {"start_index": count % 2, "kind": kind,
                  "data": _table_data(size, kind, count)}
        for fmt, new, ref in (("json", suite._write_json_table, _reference_json_table),
                              ("csv", suite._write_csv_table, _reference_csv_table)):
            new(tmp_path / f"new.{fmt}", p, "table", layout)
            ref(tmp_path / f"ref.{fmt}", p, "table", layout)
            assert ((tmp_path / f"new.{fmt}").read_bytes()
                    == (tmp_path / f"ref.{fmt}").read_bytes()), fmt

    @pytest.mark.parametrize("p, nmax", [
        (WeightParams(2, (0.7 + 0.2j,), 0.25), 12),
        (WeightParams(2, (1.0,), 1e6), 12),  # truncated at degree 10
        (WeightParams(3, (0.8 - 0.3j, -1.2), 2.0), 8),
        (WeightParams(4, (1.0, 0.5j, -0.7), 3.0), 6),
        (WeightParams(5, (1.0, 1.0, 1.0, 1.0), 0.5), 5)])
    def test_every_csv_table_has_the_csv_writer_bytes(self, tmp_path, monkeypatch, p, nmax):
        layouts, write = {}, suite._write_csv_table

        def kept(path, params, name, layout):
            layouts[name] = layout
            write(path, params, name, layout)

        monkeypatch.setattr(suite, "_write_csv_table", kept)
        manifest = export_tables(RunConfig(p, nmax, fmt="csv", out=str(tmp_path / "e")))
        assert list(layouts) == list(manifest["tables"])
        assert ({"gamma", "closed_monic_norms"} <= set(layouts)) == (p.size == 2)
        for name, layout in layouts.items():
            _reference_csv_table(tmp_path / "ref", p, name, layout)
            assert ((tmp_path / "e" / f"{name}.csv").read_bytes()
                    == (tmp_path / "ref").read_bytes()), name

    @pytest.mark.parametrize("b", [0.25, 1.0, 4.0])
    def test_size2_closed_form_tables_match_the_per_degree_forms(self, tmp_path, b):
        # the export takes them from one table; each degree keeps the bytes
        # of the per-degree closed forms
        p = WeightParams(2, (0.7 + 0.2j,), b)
        degrees = range(14)  # the sequence reaches nmax + 1
        expected = {"gamma": ("scalar", [cf.gamma_value(p, n) for n in degrees]),
                    "Delta": ("matrix", [cf.normalization(p, n).delta for n in degrees]),
                    "G": ("matrix", [cf.normalization(p, n).gauge for n in degrees])}
        for fmt, ref in (("json", _reference_json_table), ("csv", _reference_csv_table)):
            export_tables(RunConfig(p, nmax=12, fmt=fmt, out=str(tmp_path / fmt)))
            for name, (kind, data) in expected.items():
                ref(tmp_path / "ref", p, name, {"start_index": 0, "kind": kind, "data": data})
                assert ((tmp_path / fmt / f"{name}.{fmt}").read_bytes()
                        == (tmp_path / "ref").read_bytes()), (fmt, name)

    def test_truncated_build_is_in_the_manifest(self, tmp_path):
        # b = 1e6 loses positive definiteness at degree 10 (see test_orthogonal)
        manifest = export_tables(RunConfig(WeightParams(2, (1.0,), 1e6), nmax=12,
                                           out=str(tmp_path)))
        assert manifest["nmax"] == 12 and manifest["truncated_at"] == 10
        assert "positive definiteness lost at degree 10" in manifest["truncation_reason"]
        assert json.loads((tmp_path / "manifest.json").read_text()) == manifest
        assert len(json.loads((tmp_path / "monic_norms.json").read_text())["data"]) == 10
        untruncated = export_tables(RunConfig(FLAGSHIP, nmax=4, out=str(tmp_path / "u")))
        assert not {"truncated_at", "truncation_reason"} & set(untruncated)


class TestCli:
    def test_verify_default_passes(self, capsys):
        assert main(["verify", "--nmax", "6"]) == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out
        assert "PASS  symmetry-equations" in out

    def test_verify_failure_exit_code(self, capsys):
        # the double-format limit of the orthogonality gate (TestGateLimits)
        assert main(["verify", "--b", "0.25", "--nmax", "40"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  monic-orthogonality" in out and "overall: FAIL" in out

    def test_config_error_exit_code(self, capsys):
        assert main(["verify", "--a", "0,1", "--size", "3"]) == 2
        assert "a_1" in capsys.readouterr().err
        for bad in ("inf", "nan"):
            assert main(["structure", "--a", bad]) == 2
            assert "finite" in capsys.readouterr().err

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_invalid_parameters_exit_code(self, data):
        size, a, b = data.draw(invalid_params())
        tokens = []
        for v in a:
            im = _cli_number(v.imag)
            tokens.append(f"{_cli_number(v.real)}{'' if im.startswith('-') else '+'}{im}j")
        argv = ["verify", f"--size={size}", f"--a={','.join(tokens)}",
                f"--b={_cli_number(b)}"]
        assert main(argv) == 2

    def test_verify_writes_summary(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        assert main(["verify", "--nmax", "4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["overall"] is True
        assert {c["name"] for c in doc["checks"]} >= {"symmetry-equations", "chi-xi"}
        assert doc["params"] == {"size": 2, "a": [[1.0, 0.0]], "b": 2.0}

    @pytest.mark.parametrize("argv", [["--nmax", "4", "--sweeps", "2"],
                                      ["--size", "3", "--a", "1,1", "--nmax", "0"]])
    def test_each_reported_tolerance_is_its_table_entry(self, argv, tmp_path, capsys):
        out = tmp_path / "summary.json"
        assert main(["verify", *argv, "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks][:len(suite.TOLERANCES)] == list(suite.TOLERANCES)
        assert all(c["tolerance"] == suite.TOLERANCES[c["name"].removeprefix("sweep-")]
                   for c in checks)

    def test_verify_sweeps(self, capsys):
        assert main(["verify", "--nmax", "3", "--sweeps", "3",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "sweep-symmetry-equations" in out

    def test_negative_sweeps_is_config_error(self, capsys):
        assert main(["verify", "--nmax", "3", "--sweeps", "-2"]) == 2
        captured = capsys.readouterr()
        assert "--sweeps" in captured.err
        assert "PASS" not in captured.out

    def test_zero_sweeps_runs_no_sweep(self, capsys):
        assert main(["verify", "--nmax", "3", "--sweeps", "0"]) == 0
        assert "sweep-" not in capsys.readouterr().out

    def test_structure_output(self, capsys):
        assert main(["structure", "--size", "3", "--a", "1,1", "--b", "2"]) == 0
        out = capsys.readouterr().out
        assert "nilpotent" in out and "odd_coeffs" in out

    def test_complex_parameter_parsing(self, capsys):
        assert main(["structure", "--size", "3", "--a", "1+0.5i,2", "--b", "0.7"]) == 0

    def test_orthopoly_export(self, tmp_path, capsys):
        # orthopoly prints; export writes the polynomials and norms it prints
        assert main(["export", "--nmax", "3", "--out", str(tmp_path)]) == 0
        seq = monic_sequence(FLAGSHIP, 4)
        polys = json.loads((tmp_path / "monic_polys.json").read_text())["data"]
        assert [(row["n"], row["power"]) for row in polys] == [
            (n, k) for n in range(5) for k in range(n + 1)]
        assert [row["coeff"] for row in polys] == [
            suite._matrix_to_json(c) for poly in seq.polys for c in poly.coeffs]
        norms = json.loads((tmp_path / "monic_norms.json").read_text())["data"]
        assert norms == [suite._matrix_to_json(m) for m in seq.norms]
        assert len(norms) == 5

    def test_recurrence_command(self, capsys):
        assert main(["recurrence", "--nmax", "4"]) == 0
        assert "max recurrence identity residual" in capsys.readouterr().out

    def test_norms_command(self, capsys):
        assert main(["norms", "--nmax", "3"]) == 0

    @pytest.mark.parametrize("b", ["0.25", "1", "4"])
    def test_norms_closed_monic_matches_the_per_degree_form(self, tmp_path, capsys, b):
        # export takes them from one table; each degree keeps the bytes of
        # closed_norms, over the degrees of monic_norms
        assert main(["export", "--a", "0.7+0.2i", "--b", b, "--nmax", "11",
                     "--out", str(tmp_path)]) == 0
        p = WeightParams(2, (0.7 + 0.2j,), float(b))
        expected = [suite._matrix_to_json(cf.closed_norms(p, n)[0]) for n in range(13)]
        doc = json.loads((tmp_path / "closed_monic_norms.json").read_text())
        assert doc["start_index"] == 0
        assert json.dumps(doc["data"]) == json.dumps(expected)
        monic = json.loads((tmp_path / "monic_norms.json").read_text())["data"]
        assert len(monic) == len(expected)

    def test_asymptotics_command(self, tmp_path, capsys):
        out = tmp_path / "asym.json"
        assert main(["asymptotics", "--b", "4", "--horizon", "50",
                     "--out", str(out)]) == 0
        rows = [int(line[2:].split()[0]) for line in capsys.readouterr().out.splitlines()
                if line.startswith("n=")]
        assert rows == [1, 2, 5, 10, 20, 50]
        doc = json.loads(out.read_text())
        assert abs(doc["limit"][0][0][0] - 1.0 / math.sqrt(2.0)) < 1e-12
        assert len(doc["errors"]) == 50

    def test_asymptotics_past_the_gamma_underflow(self, capsys):
        # |a|^2 and b^-(n - 1/2) both underflow to 0 from n = 1076
        assert main(["asymptotics", "--a", "1e-200", "--b", "2", "--horizon", "2000"]) == 0
        assert "n=2000" in capsys.readouterr().out

    def test_asymptotics_rejects_degenerate(self, capsys):
        assert main(["asymptotics", "--b", "1"]) == 2
        assert main(["asymptotics", "--size", "3", "--a", "1,1"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--b", "1"], "no branch limit is defined at b = 1"),
        (["--size", "3", "--a", "1,1"], "closed forms exist only for size 2")])
    def test_asymptotics_reports_the_library_error(self, argv, message, capsys):
        assert main(["asymptotics", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("b, nmax, code", [("1000", "10", 0), ("1e300", "3", 1)])
    def test_verify_writes_no_numpy_warnings(self, b, nmax, code, capsys):
        # the literal chi-xi residual overflows at large b; a non-finite
        # residual FAILs, and numpy must not warn about it on the way
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--b", b, "--nmax", nmax]) == code
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_asymptotics_rejects_empty_horizon(self, horizon, capsys):
        assert main(["asymptotics", "--b", "4", "--horizon", horizon]) == 2
        assert f"horizon must be >= 1, got {horizon}" in capsys.readouterr().err

    def test_export_command(self, tmp_path, capsys):
        assert main(["export", "--nmax", "3", "--out", str(tmp_path / "t")]) == 0
        assert (tmp_path / "t" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["export", "recurrence", "norms", "orthopoly"])
    def test_truncation_note(self, command, tmp_path, capsys):
        out = ["--out", str(tmp_path / "t")] if command == "export" else []
        assert main([command, "--b", "1e6", "--nmax", "12", *out]) == 0
        assert ("note: norm positive definiteness lost at degree 10"
                in capsys.readouterr().err)
        assert main([command, "--nmax", "3", *out]) == 0
        assert capsys.readouterr().err == ""

    def test_export_csv(self, tmp_path, capsys):
        assert main(["export", "--nmax", "3", "--format", "csv",
                     "--out", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c" / "monic_Bhat.csv").exists()

    @pytest.mark.parametrize("command", sorted(OWN_FLAGS))
    def test_each_subcommand_takes_only_its_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        flags = re.findall(r"^\s+(--[\w-]+)", capsys.readouterr().out, re.M)
        assert len(flags) == len(set(flags))
        assert set(flags) == {"--size", "--a", "--b"} | OWN_FLAGS[command]

    @pytest.mark.parametrize("command, flag", REMOVED)
    def test_flag_a_subcommand_does_not_read_is_rejected(self, command, flag, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, f"{flag}={FLAG_VALUES[flag]}"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["verify", "orthopoly", "recurrence", "norms",
                                         "export"])
    def test_negative_nmax_is_config_error(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out = ["--out", "x"] if "--out" in OWN_FLAGS[command] else []
        assert main([command, "--nmax", "-1", *out]) == 2
        captured = capsys.readouterr()
        assert "error: nmax must be >= 0" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_a_default_verify_ignores_the_seed(self, tmp_path, capsys):
        docs = []
        for seed in ("0", "7"):
            out = tmp_path / f"verify-{seed}.json"
            assert main(["verify", "--seed", seed, "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            del doc["total_seconds"]
            for c in doc["checks"]:
                del c["seconds"]
            docs.append(doc)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("argv", [["--seed", "-1"], ["--sweeps", "3", "--seed", "-5"]])
    def test_negative_seed_is_config_error(self, argv, tmp_path, capsys):
        assert main(["verify", *argv, "--out", str(tmp_path / "x")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must be >= 0, got {argv[-1]}\n"
        assert captured.out == ""
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", list(OWN_FLAGS))
    @pytest.mark.parametrize("b", ["1e-20", "1e-100"])
    def test_b_below_the_supported_range_is_config_error(self, command, b, tmp_path,
                                                           monkeypatch, capsys):
        # the last scale diagonal 1 + (b - 1) rounds to 0 in double precision
        monkeypatch.chdir(tmp_path)
        out = ["--out", "x"] if "--out" in OWN_FLAGS[command] else []
        assert main([command, "--b", b, *out]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: b = {float(b)} is below the supported range: a "
                                "scale diagonal rounds to 0 in double precision\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("b, nmax", [("1e80", "30"), ("1e300", "3")])
    def test_closed_form_overflow_is_config_error(self, b, nmax, tmp_path, capsys):
        assert main(["export", "--b", b, "--nmax", nmax, "--out", str(tmp_path / "x")]) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "overflow" in errors[0]
        assert "outside the supported range" in errors[0]
        assert "Traceback" not in captured.err
        assert captured.out == ""


def _readme_cli_commands() -> list[list[str]]:
    """The commands of the README's CLI code block, as argument lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


class TestReadme:
    @pytest.mark.parametrize("command", _readme_cli_commands(), ids=" ".join)
    def test_cli_example_exits_zero(self, command, tmp_path, monkeypatch, capsys):
        assert command[0] == "matorth"
        monkeypatch.chdir(tmp_path)
        assert main(command[1:]) == 0


def _every_parser_main(argv) -> int:
    """``main`` as it was when it built every subcommand's parser for every
    argv: the reference for the one that builds only the named one."""
    parser = argparse.ArgumentParser(
        prog="matorth",
        description="Matrix-valued orthogonal polynomials for a Gaussian-type "
                    "weight family: construction, verification, tables.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, text, own) in cli._COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for flag in ("--size", "--a", "--b", *own):
            sp.add_argument(flag, **cli._OPTIONS[flag])
        sp.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _outcome(run, argv, capsys) -> tuple:
    """stdout, stderr and the exit code of ``run(argv)``."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return (*capsys.readouterr(), code)


class TestOneParser:
    """``main`` builds only the named subcommand's parser, and prints and
    exits as it did when it built every one."""

    @pytest.mark.parametrize("columns", ["60", "80", "200"])
    @pytest.mark.parametrize("argv", PARSER_CASES,
                             ids=[" ".join(argv) or "none" for argv in PARSER_CASES])
    def test_output_and_exit_code_as_with_every_parser(self, argv, columns, monkeypatch,
                                                       capsys):
        monkeypatch.setenv("COLUMNS", columns)
        want = _outcome(_every_parser_main, argv, capsys)
        assert want[1] or "usage:" in want[0] or "shift =" in want[0]
        assert _outcome(main, argv, capsys) == want

    def test_a_named_subcommand_builds_two_parsers(self, monkeypatch, capsys):
        built, init = [], argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["verify", "--nmax", "2"]) == 0
        assert built == ["matorth", "matorth verify"]
        monkeypatch.setattr(sys, "argv", ["matorth", "structure"])
        assert main() == 0
        assert built[2:] == ["matorth", "matorth structure"]
        with pytest.raises(SystemExit):
            main(["-h"])
        assert len(built) == 4 + 1 + len(cli._COMMANDS)


class TestNoLapack:
    """The size-2 gauges are diagonal and inverted by reciprocals: nothing
    in the library calls LAPACK."""

    def test_size2_suite_and_export_run_with_linalg_inv_raising(self, tmp_path,
                                                                 monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.inv called")

        calls, transport = [], cf._transport
        monkeypatch.setattr(np.linalg, "inv", refuse)
        monkeypatch.setattr(cf, "_transport", lambda *args: calls.append(0) or transport(*args))
        # a member no other test builds, so that no cache holds its tables
        p = WeightParams(2, (0.3 + 0.4j,), 1.75)
        assert run_suite(RunConfig(p, 8)).overall
        suite_calls = len(calls)
        manifest = export_tables(RunConfig(p, 8, out=str(tmp_path / "e")))
        assert "normalized_Atilde" in manifest["tables"]
        assert suite_calls and len(calls) > suite_calls

    def test_no_module_calls_numpy_linalg(self):
        def names(node):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                return [f"{node.value.id}.{node.attr}"]
            if isinstance(node, ast.Import):
                return [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom) and not node.level:
                return [f"{node.module}.{a.name}" for a in node.names]
            return []

        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(Path(matorth.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if any(re.match(r"(np|numpy)\.linalg\b", name) for name in names(node))]
        assert found == []


def verify_in_a_fresh_interpreter(*flags: str) -> tuple[int, bool]:
    """The exit code of ``matorth verify`` with ``flags`` in a new interpreter,
    and whether ``numpy.random`` is loaded after it."""
    src = str(Path(matorth.__file__).parents[1])
    probe = ("import contextlib, io, sys\nfrom matorth import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(sys.argv[1:])\n"
             "print(code, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe, "verify", *flags], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    code, loaded = out.stdout.split()
    return int(code), loaded == "True"


class TestColdVerify:
    """A default verify judges the member alone: only the sweeps draw."""

    @pytest.mark.parametrize("flags, loaded", [((), False), (("--sweeps", "1"), True)])
    def test_only_the_sweeps_load_numpy_random(self, flags, loaded):
        assert verify_in_a_fresh_interpreter(*flags) == (0, loaded)


class TestGateLimits:
    """The exact orthogonality gate at its two documented limits, pinned by
    the bits of its residual, so that any reordering of the gate's sums shows.

    - At size 2, a = 1, b = 0.25, nmax 40 the gate FAILs: the returned
      monomial coefficients in double cannot hold the orthogonality of the
      51-digit build (the double-format limit of ROADMAP item 3).
    - At size 3, a = (1, 1), b = 49, nmax 25 the gate PASSes, although the
      build has lost its digits seven degrees before a squared norm stops
      being positive definite: the silently wrong member. ROADMAP item 3,
      the cross-check against the operator's recurrence, is expected to
      truncate this build and so to change this pin.
    """

    @pytest.mark.parametrize("argv, passed, residual", [
        (["--b", "0.25", "--nmax", "40"], False, "0x1.c5f73811e9fd2p-27"),
        (["--size", "3", "--a", "1,1", "--b", "49", "--nmax", "25"], True,
         "0x1.5f9515cfd2c27p-36"),
    ])
    def test_monic_orthogonality_residual_bits(self, argv, passed, residual, tmp_path, capsys):
        out = tmp_path / "v.json"
        main(["verify", *argv, "--out", str(out)])
        gate = next(c for c in json.loads(out.read_text())["checks"]
                    if c["name"] == "monic-orthogonality")
        assert (gate["pass"], gate["residual"].hex()) == (passed, residual)


@pytest.mark.parametrize("module", ["matorth", *(f"matorth.{m.name}" for m in
                                                 pkgutil.iter_modules(matorth.__path__))])
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition went makes `import *` raise
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


class TestAsymptoticsWindow:
    """``recurrence-asymptotics`` judges e_n on degrees 20-200, and again
    past ``_settled_degree`` when gamma_n turns to its growing term (b > 1)
    or away from its falling one (b < 1) too late for that window. Where the
    turn is not over by degree 200, it judges only past the settled degree;
    past the cap it SKIPs."""

    @staticmethod
    def asymptotics(p: WeightParams):
        return check_map(run_suite(RunConfig(p, nmax=1)))["recurrence-asymptotics"]

    def test_small_a_at_b_two_passes(self, capsys):
        p = WeightParams(2, (0.001,), 2.0)
        # the limit sets in after degree 20: e_n still rises at degree 25
        assert suite._asymptotic_tail(p, 20, 200) == (math.inf, "tail not monotone")
        assert main(["verify", "--a", "0.001", "--b", "2", "--nmax", "3"]) == 0
        assert "PASS  recurrence-asymptotics" in capsys.readouterr().out
        check = self.asymptotics(p)
        errors = cf.asymptotic_report(p, horizon=230).errors
        assert check.passed and not check.skipped and check.note == "monotone from n=30"
        assert check.residual == errors[-1] < 0.02

    def test_member_past_the_fixed_horizon_passes(self):
        p = WeightParams(2, (1e-50,), 2.0)
        assert 0.2 < cf.asymptotic_report(p, horizon=200).error_at(200) < 0.21
        check = self.asymptotics(p)
        assert check.passed and check.note == "monotone from n=345"
        assert check.residual == cf.asymptotic_report(p, horizon=545).error_at(545) < 1e-3

    def test_member_past_the_cap_skips(self):
        p = WeightParams(2, (1e-300,), 1.1)
        residual, _ = suite._asymptotic_tail(p, 20, 200)
        assert 0.02 < residual < math.inf
        assert suite._settled_degree(p) > suite._ASYMPTOTICS_CAP - 200
        check = self.asymptotics(p)
        assert check.skipped and check.passed and check.residual == 0.0
        assert check.note == ("gamma_n settles past degree 9800, and the check stops "
                              "at degree 10000")

    @pytest.mark.parametrize("b, start", [(0.9, 73), (0.99, 1019)])
    def test_b_below_one_near_one_passes_past_the_settled_degree(self, b, start, capsys):
        p = WeightParams(2, (1.0,), b)
        # |a|^2 b^(n-1/2) n falls below 2 only past degree 20
        assert suite._asymptotic_tail(p, 20, 200) == (math.inf, "tail not monotone")
        assert main(["verify", "--a", "1", "--b", str(b), "--nmax", "3"]) == 0
        assert "PASS  recurrence-asymptotics" in capsys.readouterr().out
        check = self.asymptotics(p)
        assert check.passed and not check.skipped and check.note == f"monotone from n={start}"
        horizon = start + 200
        assert check.residual == cf.asymptotic_report(p, horizon=horizon).error_at(horizon) < 0.02

    def test_b_below_one_past_the_cap_skips(self):
        p = WeightParams(2, (1e100,), 0.99)
        assert suite._asymptotic_tail(p, 20, 200) == (math.inf, "tail not monotone")
        assert suite._settled_degree(p) > suite._ASYMPTOTICS_CAP - 200
        check = self.asymptotics(p)
        assert check.skipped and check.passed and check.residual == 0.0

    def test_subnormal_a_squared_passes(self):
        p = WeightParams(2, (1e-160,), 1.1)  # |a|^2 = 1e-320
        check = self.asymptotics(p)
        assert check.passed and not check.skipped and check.note == "monotone from n=7809"
        assert check.residual == cf.asymptotic_report(p, horizon=8009).error_at(8009) < 1e-4

    @pytest.mark.parametrize("p", [
        WeightParams(2, (1.0,), 0.25), WeightParams(2, (0.6 + 0.8j,), 2.0),
        WeightParams(2, (1.0,), 4.0), WeightParams(2, (1e-3,), 0.5),
    ])
    def test_members_that_pass_on_degrees_20_to_200_keep_them(self, p):
        check = self.asymptotics(p)
        assert check.passed and (check.residual, check.note) == suite._asymptotic_tail(p, 20, 200)
        assert check.note == "monotone from n=20"

    @pytest.mark.parametrize("b, a, start", [(0.995, 1.0, 2196), (0.997, 1e-3, 674),
                                             (1.01, 1e-5, 2476)])
    def test_a_window_before_the_settled_degree_is_not_judged(self, b, a, start):
        p = WeightParams(2, (a,), b)
        # e_n falls on degrees 20-200 and rises again before start
        residual, note = suite._asymptotic_tail(p, 20, 200)
        assert residual < 0.02 and note == "monotone from n=20"
        assert suite._settled_degree(p) == start
        errors = cf.asymptotic_report(p, horizon=start + 200).errors
        assert np.any(np.diff(errors[199:start]) > 1e-15)
        check = self.asymptotics(p)
        assert check.passed and not check.skipped and check.note == f"monotone from n={start}"
        assert check.residual == errors[-1] < 0.02

    @pytest.mark.parametrize("b, a", [(0.999, 1.0), (1.05, 1e-200)])
    def test_a_window_before_a_settled_degree_past_the_cap_skips(self, b, a, capsys):
        # at b = 1.05, e_n holds 0.017 at every degree to 10000: gamma_n has
        # not turned, and a flat e_n below the tolerance shows nothing
        p = WeightParams(2, (a,), b)
        residual, note = suite._asymptotic_tail(p, 20, 200)
        assert residual < 0.02 and note == "monotone from n=20"
        assert suite._settled_degree(p) > suite._ASYMPTOTICS_CAP - 200
        check = self.asymptotics(p)
        assert check.skipped and check.passed and check.residual == 0.0
        assert main(["verify", "--a", str(a), "--b", str(b), "--nmax", "1"]) == 0
        assert "SKIP  recurrence-asymptotics" in capsys.readouterr().out

    def test_settled_degree_equals_the_whole_mask(self):
        """``_settled_degree`` tests 1000 degrees at a time; the reference
        tests all up to the cap at once. The first four b put the last short
        degree at either side of a block edge, 1000 and 9000."""
        def whole_mask(p):
            n = np.arange(1, suite._ASYMPTOTICS_CAP + 1)
            log_b = math.log(p.b)
            if p.b < 1:
                short = ((2 * math.log(abs(p.a[0])) + (n - 0.5) * log_b + np.log(n)
                          > math.log(2) - 4)
                         | (n < 1.01 * (2 * p.b / (1 - p.b) + 2)))
            else:
                short = (2 * math.log(abs(p.a[0])) + (n - 0.5) * log_b - np.log(n)
                         < math.log(p.b - 1) + math.log(log_b) + 3)
            return int(n[short][-1]) + 1 if short.any() else 1

        edges = [x / (2 + x) for x in (c / 1.01 - 2 for c in (1000.5, 1001.5, 9000.5, 9001.5))]
        bs = [*edges, *np.geomspace(1e-3, 0.9999, 25), *(1 + np.geomspace(1e-4, 1e6, 25))]
        members = [WeightParams(2, (complex(a),), float(b))
                   for b in bs for a in np.geomspace(1e-300, 1e3, 12)]
        assert [suite._settled_degree(p) for p in members[:4 * 12:12]] == [1001, 1002, 9001, 9002]
        assert [suite._settled_degree(p) for p in members] == [whole_mask(p) for p in members]

    def test_settled_degree_holds_no_mask_of_every_degree(self):
        # every verify asks; a mask of all 10000 degrees took 0.3 MB
        p = WeightParams(2, (0.6 + 0.8j,), 2.0)
        suite._settled_degree(p)
        tracemalloc.start()
        try:
            suite._settled_degree(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("b, a", [(1.003, 0.1), (1.01, 0.1), (1.05, 0.1), (1.2, 1e-3),
                                      (2.0, 1e-3), (2.0, 1e-50), (8.0, 1e-12), (0.5, 1e3),
                                      (0.9, 1.0), (0.95, 1e-3), (0.99, 1.0), (0.99, 0.05),
                                      (0.999, 0.01)])
    def test_e_n_no_longer_rises_past_the_settled_degree(self, b, a):
        p = WeightParams(2, (a,), b)
        start = suite._settled_degree(p)
        errors = cf.asymptotic_report(p, horizon=start + 400).errors
        rises = np.nonzero(np.diff(errors) > 1e-15)[0]
        # e_n rises from degree n to n + 1 only before start
        assert 5 < rises[-1] + 2 < start
