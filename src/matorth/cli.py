"""Command-line front end.

Subcommands: structure, verify, orthopoly, recurrence, norms, asymptotics,
export. Exit codes: 0 success, 1 verification failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import closed_forms as cf
from .linalg import worst
from .orthogonal import monic_sequence, orthonormalize_sequence, recurrence_from_sequence
from .suite import (RunConfig, _matrix_to_json, export_tables, params_to_dict,
                    run_parameter_sweep, run_suite)
from .weights import WeightParams, build_structure

__all__ = ["main"]


def _parse_complex(token: str) -> complex:
    # only a trailing i is the imaginary unit, so inf and nan reach the
    # parameter checks instead of failing to parse
    token = token.strip()
    if token.endswith("i"):
        token = token[:-1] + "j"
    return complex(token)


def _parse_a(text: str) -> tuple[complex, ...]:
    try:
        return tuple(_parse_complex(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"cannot parse --a {text!r}: {exc}") from None


# every subcommand reads --size, --a and --b; _COMMANDS lists the other
# flags each one reads, and main gives it no more. Only export writes tables
_OPTIONS = {
    "--size": dict(type=int, default=2, help="matrix size N (default 2)"),
    "--a": dict(default="1", help="comma-separated complex parameters, e.g. '1,0.5+0.5i'"),
    "--b": dict(type=float, default=2.0, help="decay parameter (default 2)"),
    "--nmax": dict(type=int, default=10, help="top polynomial degree"),
    "--format": dict(dest="fmt", choices=("json", "csv"), default="json"),
    "--out": dict(default=None, help="output file (or directory for export)"),
    "--seed": dict(type=int, default=0, help="seed for randomized verification sweeps"),
    "--sweeps": dict(type=int, default=0,
                     help="additionally verify this many random parameter draws"),
    "--coeffs": dict(action="store_true", help="print every coefficient"),
    "--horizon": dict(type=int, default=200),
}


def _params(args) -> WeightParams:
    return WeightParams(args.size, _parse_a(args.a), args.b)


def _print_matrix(name: str, m: np.ndarray):
    print(f"{name} =")
    with np.printoptions(precision=6, suppress=True, linewidth=120):
        print(np.array2string(m))


def _note(truncation_reason: str | None):
    if truncation_reason:
        print(f"note: {truncation_reason}", file=sys.stderr)


def _write_json(path: str, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def _cmd_structure(args) -> int:
    p = _params(args)
    s = build_structure(p)
    if args.out:
        doc = {"params": params_to_dict(p),
               "shift": _matrix_to_json(s.shift), "number": _matrix_to_json(s.number),
               "diag_scale": _matrix_to_json(s.diag_scale),
               "gauss_diag": _matrix_to_json(s.gauss_diag),
               "nilpotent": _matrix_to_json(s.nilpotent),
               "odd_coeffs": list(s.odd_coeffs)}
        _write_json(args.out, doc)
    else:
        for name in ("shift", "number", "diag_scale", "gauss_diag", "nilpotent"):
            _print_matrix(name, getattr(s, name))
        print(f"odd_coeffs = {list(s.odd_coeffs)}")
    return 0


def _cmd_verify(args) -> int:
    config = RunConfig(_params(args), args.nmax, out=args.out, seed=args.seed)
    if args.sweeps < 0:
        raise ValueError(f"--sweeps must be >= 0, got {args.sweeps}")
    summary = run_suite(config)
    if args.sweeps:
        sweep = run_parameter_sweep(args.sweeps, config)
        summary.checks.extend(sweep.checks)
    for c in summary.checks:
        if c.skipped:
            print(f"SKIP  {c.name:28s} ({c.note})")
        else:
            tag = "PASS" if c.passed else "FAIL"
            note = f"  [{c.note}]" if c.note else ""
            print(f"{tag}  {c.name:28s} residual={c.residual:.3e} "
                  f"tol={c.tolerance:.1e}{note}")
    print(f"overall: {'pass' if summary.overall else 'FAIL'} "
          f"({summary.total_seconds:.2f}s)")
    if config.out:
        _write_json(config.out, summary.to_dict())
    return 0 if summary.overall else 1


def _cmd_orthopoly(args) -> int:
    seq = monic_sequence(_params(args), args.nmax)
    _note(seq.truncation_reason)
    for n, poly in enumerate(seq.polys):
        print(f"-- degree {n}, norm diagonal "
              f"{np.real(np.diag(seq.norms[n])).round(8).tolist()}")
        if args.coeffs:
            for k, c in enumerate(poly.coeffs):
                _print_matrix(f"P_{n} coeff t^{k}", c)
    return 0


def _cmd_recurrence(args) -> int:
    p = _params(args)
    if args.nmax < 0:  # building to nmax + 1 alone would let -1 through
        raise ValueError("nmax must be >= 0")
    seq = monic_sequence(p, args.nmax + 1)
    _note(seq.truncation_reason)
    monic = recurrence_from_sequence(seq)
    orth, _ = orthonormalize_sequence(seq)
    for n in range(1, len(orth.A)):
        print(f"-- n={n}")
        _print_matrix("A_n", orth.A[n])
        if n < len(orth.B):
            _print_matrix("B_n", orth.B[n])
        _print_matrix("Chat_n", monic.C[n])
    print(f"max recurrence identity residual: {worst(monic.residuals):.3e}")
    return 0


def _cmd_norms(args) -> int:
    seq = monic_sequence(_params(args), args.nmax)
    _note(seq.truncation_reason)
    for n, m in enumerate(seq.norms):
        print(f"n={n}: diag {np.real(np.diag(m)).tolist()}")
    return 0


def _cmd_asymptotics(args) -> int:
    p = _params(args)
    rep = cf.asymptotic_report(p, horizon=args.horizon)
    _print_matrix("limit of A_n / sqrt(n)", rep.limit)
    for n in sorted({1, 2, 5, 10, 20, 50, 100, args.horizon}):
        if n <= args.horizon:
            print(f"n={n:4d}  error={rep.error_at(n):.6e}")
    if args.out:
        doc = {"params": params_to_dict(p),
               "limit": _matrix_to_json(rep.limit),
               "errors": [float(v) for v in rep.errors]}
        _write_json(args.out, doc)
    return 0


def _cmd_export(args) -> int:
    manifest = export_tables(RunConfig(_params(args), args.nmax, fmt=args.fmt,
                                       out=args.out))
    _note(manifest.get("truncation_reason"))
    print(f"wrote {len(manifest['tables'])} tables to {args.out}")
    return 0


# subcommand: handler, help, the flags it reads besides --size, --a, --b
_COMMANDS = {
    "structure": (_cmd_structure, "print or export the structure matrices", ("--out",)),
    "verify": (_cmd_verify, "run the verification suite",
               ("--nmax", "--seed", "--sweeps", "--out")),
    "orthopoly": (_cmd_orthopoly, "monic orthogonal polynomials and norms",
                  ("--nmax", "--coeffs")),
    "recurrence": (_cmd_recurrence, "recurrence coefficient tables", ("--nmax",)),
    "norms": (_cmd_norms, "squared norms of the monic polynomials", ("--nmax",)),
    "asymptotics": (_cmd_asymptotics, "recurrence coefficient asymptotics (size 2)",
                    ("--horizon", "--out")),
    "export": (_cmd_export, "write all tables to a directory",
               ("--nmax", "--format", "--out")),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        prog="matorth",
        description="Matrix-valued orthogonal polynomials for a Gaussian-type "
                    "weight family: construction, verification, tables.")
    # only the named subcommand's parser is built; help, no name or an unknown
    # one build them all. The metavar keeps the usage line, and the errors
    # that name the argument "command" arise only when all are built
    named = [argv[0]] if argv and argv[0] in _COMMANDS else None
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if named else None)
    for name in named or _COMMANDS:
        fn, text, own = _COMMANDS[name]
        sp = sub.add_parser(name, help=text)
        for flag in ("--size", "--a", "--b", *own):
            sp.add_argument(flag, **_OPTIONS[flag])
        sp.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:  # e.g. the size-2 closed forms at b = 1e80
        print("error: overflow beyond double: b is outside the supported range",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
