"""Command line interface.

Exit codes: 0 analysis certified (or plain success), 2 not applicable,
3 undecided, 4 input error.  ``verify`` exits 1 when a certificate fails
its replay.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import analyzer, jalgebra, lie_core
from .ball import WITNESS_RESIDUAL, ball_algebra, totally_real_residuals, totally_real_subalgebra
from .errors import HdqError, InputError, TotallyRealCheckFailed
from .jordan import classify, cyclic_discreteness

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NOT_APPLICABLE = 2
EXIT_UNDECIDED = 3
EXIT_INPUT = 4
EXIT_BY_CONCLUSION = {"stein_certified": EXIT_OK, "stein_by_citation": EXIT_OK, "not_applicable": EXIT_NOT_APPLICABLE}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` gives
    every call its own namespace."""
    parser = argparse.ArgumentParser(
        prog="hdq",
        description="Homogeneous Siegel domains: validation, fibrations, and Stein certificates for cyclic quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="replay the quotient analysis for one automorphism")
    p.add_argument("--domain", required=True, help="preset name or j-algebra JSON file")
    p.add_argument("--phi", required=True, help="exp:\"<coeffs>\" or affine:<file.json>")
    p.add_argument("--out", help="write the certificate to this path (default stdout)")
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("verify", help="re-run the numeric checks of a certificate")
    p.add_argument("certificate", help="certificate JSON file")

    p = sub.add_parser("fibration", help="print the fibration tower of a domain")
    p.add_argument("--domain", required=True)

    p = sub.add_parser("jordan", help="Jordan-decompose a matrix from a JSON file")
    p.add_argument("--matrix", required=True, help="JSON file with a row-major square matrix")

    p = sub.add_parser("validate", help="validate an algebra or j-algebra file")
    p.add_argument("file")

    p = sub.add_parser("ball", help="unit-ball constructions on the preset ball:n")
    bsub = p.add_subparsers(dest="ball_command", required=True)
    b = bsub.add_parser("check-totally-real", help="totally-real subalgebra through a vector, printed over the --xi coordinates")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--xi", required=True, help="comma-separated coefficients over the preset's basis (delta, zeta, xi_k.., eta_k..)")
    return parser


def cmd_analyze(args) -> int:
    cert = analyzer.analyze(args.domain, args.phi, args.seed)
    blob = analyzer.dump_certificate(cert)
    if not args.out:
        sys.stdout.write(blob)
    else:
        try:
            Path(args.out).write_text(blob, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    print(f"conclusion: {cert['conclusion']}", file=sys.stderr)
    return EXIT_BY_CONCLUSION.get(cert["conclusion"], EXIT_UNDECIDED)


def cmd_verify(args) -> int:
    cert = analyzer.load_certificate(args.certificate)
    ok, report = analyzer.verify(cert)
    for entry in report:
        status = "ok" if entry["ok"] else "FAIL"
        if "residual" in entry:
            recorded = entry["recorded"]
            recorded = f"{recorded:.3e}" if isinstance(recorded, (int, float)) else "none"
            status += f"  residual {entry['residual']:.3e}, recorded {recorded}"
        extra = f" ({entry['detail']})" if entry["detail"] else ""
        print(f"step {entry['index']:>2} {entry['kind']:<20} {status}{extra}")
    print(f"certificate {'verifies' if ok else 'FAILS'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_fibration(args) -> int:
    invalid, _, T = analyzer._prepared(jalgebra.resolve_domain(args.domain))
    if invalid:
        raise InputError(invalid)
    for k in range(1, T.model.rank + 1):
        F = T[k]
        print(
            f"step {k}: dim b = {F.fiber_model.J.dim}, dim s' = {F.quotient_model.J.dim}, "
            f"structural residual = {T.residual(k):.3e}"
        )
    print(f"tower depth {T.model.rank}")
    return EXIT_OK


def cmd_jordan(args) -> int:
    try:
        A = np.asarray(jalgebra.read_json(args.matrix), dtype=float)
    except (TypeError, ValueError) as exc:  # ragged, or not numbers
        raise InputError(f"{args.matrix} does not hold a numeric matrix: {exc}") from exc
    label, parts = classify(A)
    disc = cyclic_discreteness(np.linalg.eigvals(parts.elliptic), parts.hyperbolic @ parts.unipotent)
    out = {
        "classification": label,
        "elliptic": parts.elliptic.tolist(),
        "hyperbolic": parts.hyperbolic.tolist(),
        "unipotent": parts.unipotent.tolist(),
        "reconstruction_residual": parts.residual,
        "cyclic_group": disc.kind if disc.order is None else f"{disc.kind} (order {disc.order})",
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_validate(args) -> int:
    data = jalgebra.read_json(args.file)
    if isinstance(data, dict) and "j" in data:
        report = jalgebra.validate_j_algebra(jalgebra.j_algebra_from_dict(data))
    else:
        L = lie_core.algebra_from_dict(data)
        report = lie_core.validate_algebra(L)
        report.flags["solvable"] = lie_core.is_solvable(L)
        # no metric to test ad(a) against: sample the ad spectra instead
        imag = lie_core.max_imag_ad_eigenvalue(L)
        report.flags["split"] = report.flags["solvable"] and imag <= 1e-8
        report.flags["max_imag_ad_eigenvalue"] = imag
    for name, chk in report.checks.items():
        status = "ok" if chk["defect"] <= chk["tol"] else "FAIL"
        print(f"{name:<22} defect {chk['defect']:.3e}  tol {chk['tol']:.0e}  {status}")
    for name, val in report.flags.items():
        print(f"{name:<22} {val}")
    print("valid" if report.passed else "INVALID")
    return EXIT_OK if report.passed else EXIT_INPUT


def cmd_ball(args) -> int:
    B = ball_algebra(args.n)
    try:
        x = np.array([float(v) for v in args.xi.split(",")])
    except ValueError as exc:
        raise InputError(f"bad coefficient list: {exc}") from exc
    if x.shape != (B.J.dim,):
        raise InputError(f"need {B.J.dim} coefficients for n={args.n}")
    M = B.model
    x = np.linalg.solve(M.basis, x)  # the model's coordinates
    V, x_minus = totally_real_subalgebra(x, M)
    res, det = totally_real_residuals(x, V, x_minus, M)
    print("subalgebra basis columns (rows = algebra coordinates):")
    for row in M.basis @ V.basis_matrix:
        print("  " + "  ".join(f"{v: .6f}" for v in row))
    print(f"conjugator x_minus = {x_minus.tolist()}")
    print(f"containment/closure/conjugator/shape residual: {res:.3e}")
    print(f"totally-real determinant |det [U | jU]| of the half part U: {det:.6e}")
    if not res <= WITNESS_RESIDUAL:
        raise TotallyRealCheckFailed("the subalgebra is not a totally-real witness through the vector")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "verify": cmd_verify,
        "fibration": cmd_fibration,
        "jordan": cmd_jordan,
        "validate": cmd_validate,
        "ball": cmd_ball,
    }
    try:
        return handlers[args.command](args)
    except HdqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
