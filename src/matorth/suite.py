"""Verification suite and table export driving the whole library.

``run_suite`` executes every check the construction supports at the given
size (the 2x2 closed-form comparisons join in automatically), never letting
one failed check abort the rest, and returns a machine-readable summary.
Each check passes when its residual is below its entry in ``TOLERANCES``;
the pointwise checks evaluate on ``GRID``. Both are fixed.
``export_tables`` writes the recurrence/norm/normalizer tables in JSON or
CSV with deterministic bytes for a fixed configuration.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from operator import index
from pathlib import Path
from typing import Callable

import numpy as np

from . import closed_forms as cf
from .linalg import MatrixPolynomial, _chunks, _padded, max_abs, peaks, worst
from .operator import (BOUNDARY_DECAY_TOL, _apply_stack, build_operator,
                       check_chi_xi, check_symmetry_equations, eigenvalue_matrix)
from .orthogonal import (_monic_table, moment_oracle, monic_sequence,
                         orthonormalize_sequence, recurrence_from_sequence)
from .sampling import draw_params
from .weights import (WeightParams, build_structure, verify_structure_identities,
                      weight_moment)

__all__ = ["CheckResult", "RunConfig", "VerificationSummary", "run_suite",
           "export_tables", "params_to_dict"]

# the gate policy: a check passes when its residual is below its entry here;
# run_parameter_sweep's checks take their run_suite counterparts' entries
TOLERANCES = {
    "structure-build": 1.0,
    "structure-identities": 1e-10,
    "symmetry-equations": 1e-9,
    "boundary-decay": BOUNDARY_DECAY_TOL,
    "chi-xi": 1e-9,
    "moment-oracle": 1e-9,
    "monic-orthogonality": 1e-8,
    "eigenvalue-equation": 1e-8,
    "recurrence-identity": 1e-9,
    "rodrigues-explicit": 1e-9,
    "recurrence-closed-forms": 1e-8,
    "norm-closed-forms": 1e-8,
    "rodrigues-equation": 1e-10,
    "recurrence-asymptotics": 0.02,
}
# the points of the pointwise checks
GRID = tuple(np.linspace(-3.0, 3.0, 11))
# the last degree recurrence-asymptotics may reach; a member whose limit sets
# in too late for it is skipped
_ASYMPTOTICS_CAP = 10000


class _Skip(Exception):
    """Raised by a check that finds nothing it can judge; its message is the reason."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one suite run or export needs besides the fixed gate
    policy: parameters, depth, export format and directory, sweep seed."""

    params: WeightParams
    nmax: int = 10
    fmt: str = "json"
    out: str | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nmax", index(self.nmax))  # TypeError unless an integer
        object.__setattr__(self, "seed", index(self.seed))
        if self.nmax < 0:
            raise ValueError("nmax must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: str = ""
    seconds: float = 0.0


@dataclass
class VerificationSummary:
    params: WeightParams
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    @property
    def total_seconds(self) -> float:
        return sum(c.seconds for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "params": params_to_dict(self.params),
            "checks": [{
                "name": c.name,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "pass": bool(c.passed),
                "skipped": bool(c.skipped),
                "note": c.note,
                "seconds": c.seconds,
            } for c in self.checks],
            "overall": self.overall,
            "total_seconds": self.total_seconds,
        }


def _ri(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def params_to_dict(p: WeightParams) -> dict:
    return {"size": p.size, "a": [_ri(v) for v in p.a], "b": p.b}


def _rel_devs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The relative deviation of each pair of matrices of two stacks."""
    return peaks(x - y) / np.maximum(1.0, np.maximum(peaks(x), peaks(y)))


def _poly_rel_dev(x: MatrixPolynomial, y: MatrixPolynomial) -> float:
    return (x - y).max_coeff() / max(1.0, x.max_coeff(), y.max_coeff())


def run_suite(config: RunConfig) -> VerificationSummary:
    """Execute every applicable check; per-check failures never abort the rest."""
    p = config.params
    summary = VerificationSummary(p)
    state: dict = {}

    def seq():  # a slice of the cached 51-digit family, not a copy
        return monic_sequence(p, config.nmax + 1)

    def run(name: str, fn: Callable[[], tuple[float, str]], skip_reason: str | None = None):
        tolerance = TOLERANCES[name]
        start = time.perf_counter()
        if skip_reason is not None:
            summary.checks.append(CheckResult(name, 0.0, tolerance, True,
                                              skipped=True, note=skip_reason))
            return
        skipped = False
        try:  # a non-finite residual FAILs below, so numpy need not warn
            with np.errstate(all="ignore"):
                residual, note = fn()
            passed = residual < tolerance
        except _Skip as exc:
            residual, note, passed, skipped = 0.0, str(exc), True, True
        except Exception as exc:  # a broken check must not stop the others
            residual, note, passed = math.inf, f"error: {exc}", False
        summary.checks.append(CheckResult(name, residual, tolerance, passed, skipped,
                                          note=note,
                                          seconds=time.perf_counter() - start))

    def c_structure():
        s = build_structure(p)
        ok = (s.odd_coeffs[0] == 1.0
              and np.all(np.real(np.diag(s.diag_scale)) > 0)
              and np.all(s.gauss_scales < 0)
              and max_abs(np.tril(s.shift)) == 0.0)
        if not ok:
            raise ArithmeticError("structure invariants violated")
        return 0.0, f"size {p.size}, series terms {len(s.odd_coeffs)}"

    def c_identities():
        reports = [verify_structure_identities(p, t) for t in GRID]
        skipped = reports[-1].skipped
        note = f"skipped: {', '.join(skipped)}" if skipped else ""
        return worst(rep.max_residual for rep in reports), note

    def symmetry_report():
        if "sym" not in state:
            state["sym"] = check_symmetry_equations(p, GRID)
        return state["sym"]

    def c_symmetry():
        return symmetry_report().max_residual, ""

    def c_boundary():
        return symmetry_report().boundary_value, "power-10 decay sample"

    def c_chi_xi():
        rep = check_chi_xi(p, GRID)
        return rep.max_residual, f"literal chi residual {rep.chi_literal_residual:.2e}"

    def c_oracle():
        def deviation(m):
            exact = weight_moment(p, m)
            return max_abs(moment_oracle(p, m) - exact) / max(1.0, max_abs(exact))
        return worst(deviation(m) for m in range(min(30, 2 * config.nmax) + 1)), ""

    def c_orthogonality():
        s = seq()
        norm_peaks = peaks(np.array(s.norms))
        defects = (peaks(row) / np.maximum(1.0, np.sqrt(norm_peaks[i] * norm_peaks[:i]))
                   for i, row in enumerate(s._family.pair_rows(s.top_degree), 1))
        return worst(d for ds in defects for d in ds), s.truncation_reason or ""

    def c_eigen():
        s, op = seq(), build_operator(p)

        def deviations(ns):
            coeffs = _padded([s.polys[n] for n in ns], ns[-1] + 1)
            rhs = np.array([eigenvalue_matrix(p, n) for n in ns])[:, None] @ coeffs
            return (peaks(_apply_stack(op, coeffs) - rhs).max(axis=-1)
                    / np.maximum(1.0, peaks(rhs).max(axis=-1)))
        runs = _chunks(range(len(s.polys)), len(s.polys) * p.size ** 2)
        return worst(d for ns in runs for d in deviations(ns)), ""

    def c_rodrigues_explicit():
        degrees = range(1, min(config.nmax, 12) + 1)
        return worst(map(_poly_rel_dev, cf._rodrigues_table(p, degrees),
                         cf._explicit_table(p, degrees))), ""

    def c_recurrence_closed():
        s = seq()
        monic_b, monic_c = _monic_table(s)  # recurrence-identity measures residuals
        orth, _ = orthonormalize_sequence(s)
        tilde = cf.normalized_recurrence_from_moments(p, s)
        top = len(s.polys) - 2
        closed = cf._recurrence_table(p, range(1, top + 1))
        built = (monic_b, monic_c, tilde.A, tilde.B, tilde.C, orth.A, orth.B)
        return (worst(np.concatenate([_rel_devs(np.array(x[1:top + 1]).reshape(-1, 2, 2), y)
                                      for x, y in zip(built, closed)])),
                f"degrees 1..{top}")

    def c_recurrence_identity():
        return worst(recurrence_from_sequence(seq()).residuals), ""

    def c_norms():
        s = seq()
        degrees = range(len(s.polys))
        monic_cl, rodr_cl = cf._norms_table(p, degrees)
        lead = cf._normalization_table(p, degrees)[0]
        norms = np.array(s.norms[:len(degrees)])
        return (worst(np.concatenate((
                    _rel_devs(norms, monic_cl),
                    _rel_devs(lead @ norms @ lead.conj().swapaxes(-1, -2), rodr_cl)))),
                f"degrees 0..{degrees[-1]}")

    def c_rodrigues_equation():
        return worst(cf._pde_residual_table(p, range(1, min(config.nmax, 10) + 1), GRID)), ""

    def c_asymptotics():
        # degrees 20-200 may lie inside gamma_n's turn to or from its n-term;
        # past 200 the turn is not over anywhere in them, so they show nothing
        start = _settled_degree(p)
        if start <= 200:
            residual, note = _asymptotic_tail(p, 20, 200)
            if start <= 20 or residual < TOLERANCES["recurrence-asymptotics"]:
                return residual, note
        if start + 200 > _ASYMPTOTICS_CAP:
            raise _Skip(f"gamma_n settles past degree {_ASYMPTOTICS_CAP - 200}, "
                        f"and the check stops at degree {_ASYMPTOTICS_CAP}")
        return _asymptotic_tail(p, start, start + 200)

    run("structure-build", c_structure)
    run("structure-identities", c_identities)
    run("symmetry-equations", c_symmetry)
    run("boundary-decay", c_boundary)
    run("chi-xi", c_chi_xi)
    run("moment-oracle", c_oracle)
    run("monic-orthogonality", c_orthogonality)
    run("eigenvalue-equation", c_eigen)
    two = None if p.size == 2 else "closed forms exist only for size 2"
    some = two or (None if config.nmax else "no degree >= 1 to compare at nmax 0")
    run("recurrence-identity", c_recurrence_identity)
    run("rodrigues-explicit", c_rodrigues_explicit, some)
    run("recurrence-closed-forms", c_recurrence_closed, some)
    run("norm-closed-forms", c_norms, two)
    run("rodrigues-equation", c_rodrigues_equation, some)
    asym_skip = two
    if asym_skip is None and p.degenerate_b:
        asym_skip = "no branch limit at b = 1"
    run("recurrence-asymptotics", c_asymptotics, asym_skip)
    return summary


def _asymptotic_tail(p: WeightParams, start: int, horizon: int) -> tuple[float, str]:
    """The error ``e_n = max |diag(A_n / sqrt(n)) - branch_limit(b)|`` at
    ``horizon`` when it does not rise from ``start`` on, else inf."""
    errors = cf.asymptotic_report(p, horizon=horizon).errors
    if np.all(np.diff(errors[start - 1:]) <= 1e-15):
        return float(errors[-1]), f"monotone from n={start}"
    return math.inf, "tail not monotone"


def _settled_degree(p: WeightParams) -> int:
    """The degree from which e_n is expected to stop rising, up to
    ``_ASYMPTOTICS_CAP`` (past the cap if it does not get there).

    For b > 1: where ``|a|^2 b^(n-1/2) / n``, the growing term of
    ``gamma_n = 2 + |a|^2 b^(n-1/2) n`` over n**2, stays above
    ``e**3 (b - 1) log(b)``. e_n last rises where the decay of gamma_n's turn
    meets the slope of e_n's 1/n tail, where that ratio is about
    ``(b - 1) log(b)``: below ``e**2.63 (b - 1) log(b)`` on each of the 787
    members whose e_n rose past n = 5, of 1125 with b in 1.001-1e6 and |a|
    in 1e-300-1e3.

    For b < 1: where the term ``t_n = |a|^2 b^(n-1/2) n`` stays below
    ``2 e**-4`` and n is past ``1.01 (2b / (1 - b) + 2)``. e_n reads the
    steps ``t_{n-1} - t_n`` and ``t_n - t_{n+1}``, which grow up to
    ``n = 2b / (1 - b)``. Where e_n rose past ``2b / (1 - b) + 2``, it did so
    at ``t_n`` above ``2 e**-3.17``, on each of the 113 such members of 666
    with b in 0.3-0.99 and |a| in 1e-4-3.2. The falling ``2 + t_n`` moves the
    last rise later by about ``t_n b / 8`` of that degree, under 0.5% below
    ``2 e**-4``: 7 degrees past it at b = 0.999, |a| = 0.0113.

    Every verify asks, so the degrees are tested 1000 at a time from the cap
    down: all at once, their temporaries took 0.3 MB."""
    log_b = math.log(p.b)
    for top in range(_ASYMPTOTICS_CAP, 0, -1000):
        n = np.arange(max(top - 999, 1), top + 1)
        if p.b < 1:
            short = ((2 * math.log(abs(p.a[0])) + (n - 0.5) * log_b + np.log(n)
                      > math.log(2) - 4)
                     | (n < 1.01 * (2 * p.b / (1 - p.b) + 2)))
        else:
            short = (2 * math.log(abs(p.a[0])) + (n - 0.5) * log_b - np.log(n)
                     < math.log(p.b - 1) + math.log(log_b) + 3)
        if short.any():
            return int(n[short][-1]) + 1
    return 1


def run_parameter_sweep(count: int, config: RunConfig) -> VerificationSummary:
    """Randomized-parameter verification: max residuals over ``count`` draws,
    each of the three checks timed on its own and judged by the ``TOLERANCES``
    entry of its ``run_suite`` counterpart; symmetry and chi-xi evaluate on
    ``GRID``. ``config`` gives the seed; the draws replace its parameters."""
    if count < 1:
        raise ValueError(f"a parameter sweep needs at least one draw, got {count}")
    rng = np.random.default_rng(config.seed)
    draws = [draw_params(rng) for _ in range(count)]

    def identities(p):
        return worst(verify_structure_identities(p, t).max_residual
                     for t in (-2.0, 0.3, 1.9))

    def symmetry(p):
        return check_symmetry_equations(p, GRID).max_residual

    def chi_xi(p):
        return check_chi_xi(p, GRID).max_residual

    checks = (("structure-identities", identities), ("symmetry-equations", symmetry),
              ("chi-xi", chi_xi))
    residuals = {name: [] for name, _ in checks}
    seconds = dict.fromkeys(residuals, 0.0)
    for p in draws:
        for name, fn in checks:
            start = time.perf_counter()
            residuals[name].append(fn(p))
            seconds[name] += time.perf_counter() - start
    summary = VerificationSummary(draws[0])
    note = f"{count} draws, seed {config.seed}"
    for name in residuals:
        residual, tolerance = worst(residuals[name]), TOLERANCES[name]
        summary.checks.append(CheckResult(f"sweep-{name}", residual, tolerance,
                                          residual < tolerance,
                                          note=note, seconds=seconds[name]))
    return summary


# -- table export -------------------------------------------------------------

def _matrix_to_json(m: np.ndarray) -> list:
    return [[_ri(v) for v in row] for row in m]


def _flatten_header(dim: int) -> str:
    return ",".join(f"e{i}{j}_{part}" for i in range(dim) for j in range(dim)
                    for part in ("re", "im"))


def _re_im(m: np.ndarray) -> list[float]:
    """The real and imaginary part of every entry, row by row, as floats."""
    return np.ascontiguousarray(m, dtype=complex).view(float).ravel().tolist()


def _flatten_matrix(m: np.ndarray) -> str:
    vals = _re_im(m)
    return ",".join(["%.17g"] * len(vals)) % tuple(vals)


def export_tables(config: RunConfig) -> dict:
    """Write every table for the configuration; returns the manifest.

    ``config.out`` names a directory; each table becomes one JSON document or
    one CSV file. Output bytes are deterministic for a fixed configuration.
    """
    if not config.out:
        raise ValueError("export needs an output directory (--out)")
    p = config.params
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    seq = monic_sequence(p, config.nmax + 1)
    monic_b, monic_c = _monic_table(seq)  # export writes no residuals
    orth, deltas = orthonormalize_sequence(seq)

    tables: dict[str, dict] = {}

    def add(name: str, data: list, start_index: int, kind: str = "matrix"):
        tables[name] = {"start_index": start_index, "kind": kind, "data": data}

    add("monic_Bhat", monic_b, 0)
    add("monic_Chat", monic_c[1:], 1)
    add("monic_norms", [seq.norms[n] for n in range(len(seq.norms))], 0)
    add("orthonormal_A", [orth.A[n] for n in range(1, len(orth.A))], 1)
    add("orthonormal_B", [orth.B[n] for n in range(len(orth.B))], 0)
    add("orthonormal_C", [orth.C[n] for n in range(1, len(orth.C))], 1)
    add("normalizers", list(deltas), 0)
    poly_rows = []
    for n, poly in enumerate(seq.polys):
        for k, c in enumerate(poly.coeffs):
            poly_rows.append((n, k, c))
    add("monic_polys", poly_rows, 0, kind="poly")

    if p.size == 2:
        _, delta, gauge, gamma = cf._normalization_table(p, range(len(seq.polys)))
        add("gamma", gamma, 0, kind="scalar")
        add("Delta", list(delta), 0)
        add("G", list(gauge), 0)
        add("closed_monic_norms", list(cf._norms_table(p, range(len(seq.norms)))[0]), 0)
        tilde = cf.normalized_recurrence_from_moments(p, seq)
        add("normalized_Atilde", [tilde.A[n] for n in range(1, len(tilde.A))], 1)
        add("normalized_Btilde", [tilde.B[n] for n in range(len(tilde.B))], 0)
        add("normalized_Ctilde", [tilde.C[n] for n in range(1, len(tilde.C))], 1)

    manifest = {"params": params_to_dict(p), "format": config.fmt,
                "nmax": config.nmax, "tables": {}}
    if seq.truncated_at is not None:
        manifest.update(truncated_at=seq.truncated_at, truncation_reason=seq.truncation_reason)
    for name, layout in tables.items():
        fname = f"{name}.{config.fmt}"
        path = out_dir / fname
        if config.fmt == "json":
            _write_json_table(path, p, name, layout)
        else:
            _write_csv_table(path, p, name, layout)
        manifest["tables"][name] = fname
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest


def _write_json_table(path: Path, p: WeightParams, name: str, layout: dict):
    """The bytes of ``json.dump(doc, fh, indent=1)`` and a newline, written
    one data element at a time: the C encoder makes each element's float
    texts in one call (NaN, Infinity and -0.0 as ``json`` writes them), and
    a ``%s`` template of the element's shape lays them out."""
    head = json.dumps({"params": params_to_dict(p), "table": name,
                       "start_index": layout["start_index"], "data": []}, indent=1)
    kind, data = layout["kind"], layout["data"]
    matrix = [[["%s", "%s"]] * p.size] * p.size
    element = {"matrix": matrix, "scalar": "%s",
               "poly": {"n": "%s", "power": "%s", "coeff": matrix}}[kind]
    # an element of "data" sits two levels deep in the document
    template = "  " + json.dumps(element, indent=1).replace('"%s"', "%s").replace("\n", "\n  ")
    with open(path, "w") as fh:
        fh.write(head[:-len("]\n}")])
        for i, item in enumerate(data):
            *ints, item = item if kind == "poly" else (item,)  # poly rows: (n, k, matrix)
            values = [float(item)] if kind == "scalar" else _re_im(item)
            texts = json.dumps(values)[1:-1].split(", ")
            fh.write((",\n" if i else "\n") + template % (*ints, *texts))
        fh.write("\n ]\n}\n" if data else "]\n}\n")


def _write_csv_table(path: Path, p: WeightParams, name: str, layout: dict):
    """The bytes ``csv.writer`` wrote, one joined line per row: no field
    holds a comma, a quote or a line break, so none is quoted."""
    kind, data, start = layout["kind"], layout["data"], layout["start_index"]
    if kind == "matrix":
        head = f"n,{_flatten_header(p.size)}"
        rows = (f"{start + off},{_flatten_matrix(m)}" for off, m in enumerate(data))
    elif kind == "scalar":
        head = f"n,{name}"
        rows = (f"{start + off},{float(v):.17g}" for off, v in enumerate(data))
    else:
        head = f"n,power,{_flatten_header(p.size)}"
        rows = (f"{n},{k},{_flatten_matrix(c)}" for n, k, c in data)
    with open(path, "w", newline="") as fh:
        fh.write(head + "\r\n")
        fh.writelines(row + "\r\n" for row in rows)
