"""The benchmark's three workloads: inputs drawn from the seed, the public
library calls each item makes, and the checks of what those calls return.

An item is one operation. ``worker.py`` times the items back to back, then
checks their outputs outside the timed phase against ``reference`` or
against a property the construction must have, never against stored output.

verify-2x2  ``matorth verify`` through ``cli.main`` at size 2 for
            b in {0.25, 2, 4} x nmax in {10, 20}, |a| = 1 with a seeded
            phase. Every layer runs, the closed forms only here.
build-deep  high-degree construction at sizes 3-5 with seeded complex a:
            sequence, recurrence, orthonormal table, export in JSON and CSV.
            Nearly all the time is the orthogonalizer.
sweep-wide  150 seeded ``draw_params`` members, 30 per size 2..6, each in
            its own band of b so every seed has the same mix of cheap and
            expensive oracle rules. Structure, symbolic checks, moments and
            the quadrature oracle run; no sequence is built. Three
            non-finite parameter sets must be rejected with ValueError.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from matorth import cli
from matorth.closed_forms import (asymptotic_report, closed_norms,
                                  explicit_polynomial, normalization,
                                  normalized_recurrence_from_moments,
                                  orthonormal_recurrence,
                                  recurrence_closed_forms,
                                  rodrigues_pde_residual, rodrigues_polynomial)
from matorth.operator import (apply_operator, build_operator, check_chi_xi,
                              check_symmetry_equations, eigenvalue_matrix)
from matorth.orthogonal import (monic_sequence, orthonormalize_sequence,
                                quadrature_oracle, recurrence_from_sequence)
from matorth.sampling import draw_params
from matorth.suite import RunConfig, export_tables
from matorth.weights import (WeightParams, build_structure,
                             verify_structure_identities, weight_eval,
                             weight_moment, weight_symbolic)

import reference as ref

# the suite's default evaluation grid
GRID = tuple(np.linspace(-3.0, 3.0, 11))
# the suite's relative tolerance anchor: the accuracy the library promises
REL_TOL = 1e-8

VERIFY_CONFIGS = [(b, nmax) for b in (0.25, 2.0, 4.0) for nmax in (10, 20)]
# (size, b, top degree); export writes tables up to the top degree
DEEP_CONFIGS = [(3, 0.25, 15), (4, 2.0, 12), (5, 4.0, 10)]
SWEEP_SIZES = (2, 3, 4, 5, 6)
SWEEP_B_BANDS = 30
SWEEP_B_RANGE = (0.2, 5.0)
# draw i runs the oracle on moment i % SWEEP_ORACLE_MOMENTS: one oracle call
# per draw keeps the symbolic checks a visible share of the time
SWEEP_ORACLE_MOMENTS = 2
SWEEP_POINTS = (-2.0, 0.3, 1.9)
# rejected by WeightParams once it validates finiteness; counted as failed
# operations until then
NON_FINITE = [(2, (1.0,), math.nan), (2, (1.0,), math.inf), (2, (complex(math.nan, 0.0),), 2.0)]


class Tally:
    """Failed operations, problems found in the outputs of the operations
    that did not fail, and the worst accuracy seen."""

    def __init__(self):
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.digits = ref.DOUBLE_DIGITS

    def fail(self, what: str):
        """The operation itself failed; its outputs are not checked."""
        self.failures.append(what)

    def require(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)

    def deviation(self, what: str, dev: float, tol: float):
        """Record a relative deviation from the reference; ``tol`` gates it."""
        self.digits = min(self.digits, ref.digits(dev))
        self.require(dev <= tol, f"{what}: deviation {dev:.3e} above {tol:.0e}")


@dataclass
class Context:
    rec: object            # tracing.Recorder
    layered: bool          # make the bottom-up layer calls before the CLI
    workdir: Path
    seed: int


def _max_abs(m) -> float:
    return float(np.max(np.abs(m)))


def _a_arg(a: complex) -> str:
    sign = "+" if math.copysign(1.0, a.imag) > 0 else "-"
    return f"{a.real!r}{sign}{abs(a.imag)!r}j"


def _moments(ctx: Context, p: WeightParams, top: int) -> list[np.ndarray]:
    with ctx.rec.span("weights.moment"):
        out = [weight_moment(p, m) for m in range(top + 1)]
    ctx.rec.count("weights.moments", top + 1)
    return out


def _oracle(ctx: Context, p: WeightParams, m: int) -> np.ndarray:
    def integrand(t: float) -> np.ndarray:
        ctx.rec.count("weights.evals")
        return t ** m * weight_eval(p, t)[1]
    ctx.rec.count("orthogonal.oracle_calls")
    return quadrature_oracle(p, integrand, degree_hint=m + 2 * p.size + 10)


def _build(ctx: Context, p: WeightParams, top: int):
    with ctx.rec.span("weights.structure"):
        build_structure(p)
    with ctx.rec.span("weights.symbolic"):
        weight_symbolic(p)
    _moments(ctx, p, 2 * top)
    with ctx.rec.span("orthogonal.build"):
        seq = monic_sequence(p, top)
    ctx.rec.count("orthogonal.degrees", seq.top_degree)
    return seq


# -- verify-2x2 ----------------------------------------------------------------

def verify_inputs(seed: int) -> list[tuple[WeightParams, int]]:
    rng = np.random.default_rng(seed)
    out = []
    for b, nmax in VERIFY_CONFIGS:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        out.append((WeightParams(2, (complex(math.cos(theta), math.sin(theta)),), b), nmax))
    return out


def _verify_layers(ctx: Context, p: WeightParams, nmax: int):
    """The suite's work split by layer, lowest first, so each span holds its
    own layer's cold work; the CLI run that follows reuses what is cached."""
    rec = ctx.rec
    seq = _build(ctx, p, nmax + 1)
    top = seq.top_degree
    with rec.span("weights.identities"):
        for t in GRID:
            verify_structure_identities(p, t)
    with rec.span("operator.build"):
        op = build_operator(p)
    with rec.span("operator.symmetry"):
        check_symmetry_equations(p, GRID)
    with rec.span("operator.chi_xi"):
        check_chi_xi(p, GRID)
    rec.count("operator.grid_points", 2 * len(GRID))
    with rec.span("orthogonal.oracle"):
        for m in range(min(30, 2 * nmax) + 1):
            _oracle(ctx, p, m)
    with rec.span("orthogonal.pairing"):
        for n in range(top + 1):
            for m in range(n):
                seq.pairing(n, m)
    rec.count("orthogonal.pairings", top * (top + 1) // 2)
    with rec.span("orthogonal.recurrence"):
        recurrence_from_sequence(seq)
    with rec.span("orthogonal.orthonormal"):
        orthonormalize_sequence(seq)
    with rec.span("operator.eigen"):
        for n in range(top + 1):
            apply_operator(op, seq.polys[n]) - seq.polys[n].lmul(eigenvalue_matrix(p, n))
    with rec.span("closed_forms.rodrigues"):
        for n in range(1, min(nmax, 12) + 1):
            rodrigues_polynomial(p, n)
        for n in range(1, min(nmax, 10) + 1):
            rodrigues_pde_residual(p, n, GRID)
    with rec.span("closed_forms.explicit"):
        for n in range(1, min(nmax, 12) + 1):
            explicit_polynomial(p, n)
    with rec.span("closed_forms.recurrence"):
        normalized_recurrence_from_moments(p, seq)
        for n in range(1, min(top - 1, 15) + 1):
            orthonormal_recurrence(p, n)
            recurrence_closed_forms(p, n)
    with rec.span("closed_forms.norms"):
        for n in range(min(top, 15) + 1):
            closed_norms(p, n)
            normalization(p, n)
    with rec.span("closed_forms.asymptotics"):
        asymptotic_report(p, horizon=200)


def verify_item(ctx: Context, item: tuple[WeightParams, int]):
    p, nmax = item
    if ctx.layered:
        _verify_layers(ctx, p, nmax)
    out = ctx.workdir / "verify.json"
    argv = ["verify", f"--a={_a_arg(p.a[0])}", f"--b={p.b!r}", f"--nmax={nmax}",
            f"--seed={ctx.seed}", f"--out={out}"]
    began = time.perf_counter()
    with ctx.rec.span("cli.verify"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    ended = time.perf_counter()
    doc = json.loads(out.read_text())
    # the suite's own timing of each check, as the report carries it
    for c in doc["checks"]:
        ctx.rec.count_time(f"suite.check.{c['name']}_s", c["seconds"], began, ended)
    ctx.rec.count_time("suite.run_s", doc["total_seconds"], began, ended)
    ctx.rec.count_time("cli.overhead_s", ended - began - doc["total_seconds"], began, ended)
    return code, doc


def judge_verify(doc: dict, code: int) -> list[str]:
    """Checks the verify report counts as failed: exit code not 0, a FAIL, or
    a residual that is not finite even when the suite marked it PASS."""
    bad = [] if code == 0 else [f"exit code {code}"]
    for c in doc["checks"]:
        if c["skipped"]:
            continue
        if not c["pass"]:
            bad.append(f"{c['name']} FAIL")
        elif not math.isfinite(c["residual"]):
            bad.append(f"{c['name']} PASS with residual {c['residual']}")
    return bad


def check_verify(tally: Tally, ctx: Context, item, result):
    p, nmax = item
    code, doc = result
    label = f"verify b={p.b} nmax={nmax}"
    bad = judge_verify(doc, code)
    if bad:
        tally.fail(f"{label}: {', '.join(bad)}")
        return
    seq = monic_sequence(p, nmax + 1)
    top = seq.top_degree
    tally.require(top == nmax + 1, f"{label}: sequence stops at degree {top}")
    moments = ref.moments_2x2(p.a[0], p.b, 2 * top + 1)
    defect, norm_dev = ref.sequence_deviations(
        [list(q.coeffs) for q in seq.polys], list(seq.norms), moments)
    tally.deviation(f"{label} orthogonality", defect, REL_TOL)
    tally.deviation(f"{label} norms", norm_dev, REL_TOL)
    # the size-2 eigenvalue is diag(-2bn, -2b(n-1))
    for n in range(top + 1):
        lam = np.diag([-2.0 * p.b * n, -2.0 * p.b * (n - 1)])
        tally.deviation(f"{label} eigenvalue n={n}",
                        _max_abs(eigenvalue_matrix(p, n) - lam) / _max_abs(lam), 1e-12)
    # A_n / sqrt(n) tends to a diagonal limit whose entries differ by sqrt(b)
    orth, _ = orthonormalize_sequence(seq)
    limit = max(math.sqrt(p.b), 1.0 / math.sqrt(p.b))
    errors = []
    for n in range(1, top + 1):
        a_n = orth.A[n]
        tally.require(_max_abs(a_n - np.diag(np.diag(a_n))) <= REL_TOL * _max_abs(a_n),
                      f"{label}: A_{n} not diagonal")
        errors.append(abs(a_n[0, 0].real / a_n[1, 1].real / limit - 1.0))
    tally.require(errors[-1] < errors[len(errors) // 2 - 1] and errors[-1] < 0.15,
                  f"{label}: diagonal ratio of A_n/sqrt(n) not tending to "
                  f"sqrt(b)^+-1 (errors {errors[len(errors) // 2 - 1]:.3e} -> {errors[-1]:.3e})")


# -- build-deep ----------------------------------------------------------------

def deep_inputs(seed: int) -> list[tuple[WeightParams, int]]:
    rng = np.random.default_rng(seed)
    out = []
    for size, b, top in DEEP_CONFIGS:
        mods = rng.uniform(0.5, 1.5, size - 1)
        phases = rng.uniform(0.0, 2.0 * math.pi, size - 1)
        a = tuple(complex(m * math.cos(ph), m * math.sin(ph)) for m, ph in zip(mods, phases))
        out.append((WeightParams(size, a, b), top))
    return out


def _export(ctx: Context, p: WeightParams, top: int, fmt: str, name: str) -> Path:
    out = ctx.workdir / f"{name}-{fmt}"
    export_tables(RunConfig(p, nmax=top - 1, fmt=fmt, out=str(out)))
    return out


def deep_item(ctx: Context, item: tuple[WeightParams, int]):
    p, top = item
    seq = _build(ctx, p, top)
    with ctx.rec.span("orthogonal.recurrence"):
        monic = recurrence_from_sequence(seq)
    with ctx.rec.span("orthogonal.orthonormal"):
        orth, deltas = orthonormalize_sequence(seq)
    name = f"size{p.size}"
    with ctx.rec.span("suite.export"):
        dirs = [_export(ctx, p, top, fmt, name) for fmt in ("json", "csv")]
    files = [f for d in dirs for f in d.iterdir()]
    ctx.rec.count("suite.export_files", len(files))
    ctx.rec.count("suite.export_bytes", sum(f.stat().st_size for f in files))
    return seq, monic, orth, deltas, dirs


def _expected_tables(seq, monic, orth, deltas) -> dict[str, list]:
    rows = len(monic.B)
    return {
        "monic_Bhat": list(monic.B),
        "monic_Chat": [monic.C[n] for n in range(1, rows + 1)],
        "monic_norms": list(seq.norms),
        "orthonormal_A": list(orth.A[1:]),
        "orthonormal_B": list(orth.B),
        "orthonormal_C": list(orth.C[1:]),
        "normalizers": list(deltas),
        "monic_polys": [c for poly in seq.polys for c in poly.coeffs],
    }


def _read_json_table(path: Path) -> list[np.ndarray]:
    doc = json.loads(path.read_text())
    mats = [row["coeff"] for row in doc["data"]] if doc["table"] == "monic_polys" else doc["data"]
    return [np.array([[complex(re, im) for re, im in r] for r in m]) for m in mats]


def _read_csv_table(path: Path, dim: int) -> list[np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    first = rows[0].index("e00_re")
    out = []
    for r in rows[1:]:
        vals = [float(v) for v in r[first:]]
        out.append(np.array(vals[0::2]) + 1j * np.array(vals[1::2]))
    return [v.reshape(dim, dim) for v in out]


def check_deep(tally: Tally, ctx: Context, item, result):
    p, top = item
    seq, monic, orth, deltas, dirs = result
    label = f"build size={p.size} b={p.b} degree={top}"
    if seq.top_degree != top:
        tally.fail(f"{label}: truncated at {seq.truncated_at}: {seq.truncation_reason}")
        return
    s = build_structure(p)
    moments = ref.moments_from_structure(s.nilpotent, s.gauss_scales, 2 * top + 1)
    defect, norm_dev = ref.sequence_deviations(
        [list(q.coeffs) for q in seq.polys], list(seq.norms), moments)
    tally.deviation(f"{label} orthogonality", defect, REL_TOL)
    tally.deviation(f"{label} norms", norm_dev, REL_TOL)
    # documented export guarantees: identical bytes for the same
    # configuration, and tables that read back to exactly the returned arrays
    expected = _expected_tables(seq, monic, orth, deltas)
    for first in dirs:
        fmt = first.name.rsplit("-", 1)[1]
        again = _export(ctx, p, top, fmt, f"again-size{p.size}")
        names = sorted(f.name for f in first.iterdir())
        tally.require(names == sorted(f.name for f in again.iterdir()),
                      f"{label}: {fmt} rewrite lists other files")
        for fname in names:
            tally.require((first / fname).read_bytes() == (again / fname).read_bytes(),
                          f"{label}: {fmt} rewrite of {fname} differs")
        for table, mats in expected.items():
            path = first / f"{table}.{fmt}"
            got = _read_json_table(path) if fmt == "json" else _read_csv_table(path, p.size)
            tally.require(len(got) == len(mats) and all(
                np.array_equal(g, np.asarray(m)) for g, m in zip(got, mats)),
                f"{label}: {fmt} table {table} does not read back exactly")


# -- sweep-wide ----------------------------------------------------------------

def sweep_inputs(seed: int) -> list:
    rng = np.random.default_rng(seed)
    lo, hi = SWEEP_B_RANGE
    width = (hi - lo) / SWEEP_B_BANDS
    items = []
    for band in range(SWEEP_B_BANDS):
        for size in SWEEP_SIZES:
            b_range = (lo + band * width, lo + (band + 1) * width)
            p = draw_params(rng, sizes=(size, size), b_range=b_range)
            items.append(("draw", p, len(items) % SWEEP_ORACLE_MOMENTS))
    return items + [("non-finite", args, None) for args in NON_FINITE]


def sweep_item(ctx: Context, item):
    rec = ctx.rec
    kind, p, oracle_m = item
    if kind == "non-finite":
        with rec.span("weights.params"):
            try:
                WeightParams(*p)
            except ValueError:
                rec.count("weights.params_rejected")
                return True
        return False
    with rec.span("weights.structure"):
        build_structure(p)
    with rec.span("weights.identities"):
        idn = max(verify_structure_identities(p, t).max_residual for t in SWEEP_POINTS)
    with rec.span("weights.symbolic"):
        weight_symbolic(p)
    with rec.span("operator.build"):
        build_operator(p)
    with rec.span("operator.symmetry"):
        sym = check_symmetry_equations(p, GRID)
    with rec.span("operator.chi_xi"):
        chi = check_chi_xi(p, GRID)
    rec.count("operator.grid_points", 2 * len(GRID))
    moments = _moments(ctx, p, 2 * p.size)
    with rec.span("orthogonal.oracle"):
        oracle = _oracle(ctx, p, oracle_m)
    return idn, sym, chi, moments, oracle


def check_sweep(tally: Tally, ctx: Context, item, result):
    kind, p, oracle_m = item
    if kind == "non-finite":
        if not result:
            tally.fail(f"WeightParams{p} accepted a non-finite parameter")
        return
    idn, sym, chi, moments, oracle = result
    label = f"sweep size={p.size} b={p.b:.4f}"
    chi_worst = max(chi.chi_hermitian_residual, chi.xi_offdiagonal_residual,
                    chi.xi_diagonal_residual)
    # the library's own sweep tolerances; `not x < tol` also rejects NaN
    tally.require(idn < 1e-10, f"{label}: structure identities {idn:.3e}")
    tally.require(sym.max_residual < 1e-9, f"{label}: symmetry equations {sym.max_residual:.3e}")
    tally.require(sym.boundary_decay_ok, f"{label}: boundary decay {sym.boundary_value:.3e}")
    tally.require(chi_worst < 1e-9, f"{label}: chi-xi {chi_worst:.3e}")
    if p.size == 2:
        exact = ref.moments_2x2(p.a[0], p.b, len(moments))
    else:
        s = build_structure(p)
        exact = ref.moments_from_structure(s.nilpotent, s.gauss_scales, len(moments))
    for m, got in enumerate(moments):
        tally.deviation(f"{label} moment {m}", ref.relative_deviation(got, exact[m]), 1e-12)
    size = float(max(abs(v) for v in exact[oracle_m].flat))
    # the suite's oracle gate: 1e-9 relative to max(1, |exact|)
    tally.deviation(f"{label} oracle {oracle_m}",
                    ref.relative_deviation(oracle, exact[oracle_m]),
                    1e-9 * max(1.0, size) / size)


# -- registry ----------------------------------------------------------------

INPUTS = {"verify-2x2": verify_inputs, "build-deep": deep_inputs, "sweep-wide": sweep_inputs}
ITEMS = {"verify-2x2": verify_item, "build-deep": deep_item, "sweep-wide": sweep_item}
CHECKS = {"verify-2x2": check_verify, "build-deep": check_deep, "sweep-wide": check_sweep}


def current_rss_kb() -> float:
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return 0.0
    return pages * resource.getpagesize() / 1024.0
