"""Command line interface.

Exit codes: 0 analysis certified (or plain success), 2 not applicable,
3 undecided, 4 input error.  ``verify`` exits 1 when a certificate fails
its replay.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analyzer, jalgebra, lie_core
from .ball import ball_algebra, totally_real_defect, totally_real_subalgebra_containing, sample_totally_real_points
from .errors import HdqError, InputError, MalformedCertificate
from .fibration import check_equivariance, tower
from .jordan import classify, cyclic_discreteness

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NOT_APPLICABLE = 2
EXIT_UNDECIDED = 3
EXIT_INPUT = 4


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--samples", type=int, default=100)

    p = sub.add_parser("verify", help="re-run the numeric checks of a certificate")
    p.add_argument("certificate", help="certificate JSON file")

    p = sub.add_parser("fibration", help="print the fibration tower of a domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("jordan", help="Jordan-decompose a matrix from a JSON file")
    p.add_argument("--matrix", required=True, help="JSON file with a row-major square matrix")

    p = sub.add_parser("validate", help="validate an algebra or j-algebra file")
    p.add_argument("file")

    p = sub.add_parser("ball", help="unit-ball constructions")
    bsub = p.add_subparsers(dest="ball_command", required=True)
    b = bsub.add_parser("check-totally-real", help="totally-real subalgebra through a vector")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--xi", required=True, help="comma-separated coefficients over (delta, zeta, xi_k.., eta_k..)")
    b.add_argument("--samples", type=int, default=50)
    b.add_argument("--seed", type=int, default=0)
    return parser


def cmd_analyze(args) -> int:
    config = analyzer.AnalyzerConfig(seed=args.seed, samples=args.samples)
    cert = analyzer.analyze(args.domain, args.phi, config)
    blob = analyzer.dump_certificate(cert)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)
    conclusion = cert["conclusion"]
    print(f"conclusion: {conclusion}", file=sys.stderr)
    if conclusion in ("stein_certified", "stein_by_citation"):
        return EXIT_OK
    if conclusion == "not_applicable":
        return EXIT_NOT_APPLICABLE
    return EXIT_UNDECIDED


def cmd_verify(args) -> int:
    cert = analyzer.load_certificate(args.certificate)
    ok, report = analyzer.verify(cert)
    for entry in report:
        status = "ok" if entry["ok"] else "FAIL"
        extra = f" ({entry['detail']})" if entry["detail"] else ""
        print(f"step {entry['index']:>2} {entry['kind']:<20} {status}{extra}")
    print(f"certificate {'verifies' if ok else 'FAILS'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_fibration(args) -> int:
    J = jalgebra.resolve_domain(args.domain)
    steps = tower(J)
    for k, F in enumerate(steps, start=1):
        res = check_equivariance(F, args.samples, seed=args.seed + k)
        print(
            f"step {k}: dim b = {2 * F.fiber_dim}, dim s' = {F.s_prime.dim}, "
            f"equivariance residual = {res:.3e}"
        )
    print(f"tower depth {len(steps)}")
    return EXIT_OK


def cmd_jordan(args) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        A = np.asarray(json.load(fh), dtype=float)
    label, parts = classify(A)
    disc = cyclic_discreteness(A, parts)
    out = {
        "classification": label,
        "elliptic": parts.elliptic.tolist(),
        "hyperbolic": parts.hyperbolic.tolist(),
        "unipotent": parts.unipotent.tolist(),
        "reconstruction_residual": parts.residual,
        "cyclic_group": disc.kind if disc.order is None else f"{disc.kind} (order {disc.order})",
    }
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if "j" in data:
        J = jalgebra.j_algebra_from_dict(data)
        report = jalgebra.validate_j_algebra(J)
    else:
        L = lie_core.algebra_from_dict(data)
        report = lie_core.validate_algebra(L)
    for name, chk in report.checks.items():
        status = "ok" if chk["defect"] <= chk["tol"] else "FAIL"
        print(f"{name:<22} defect {chk['defect']:.3e}  tol {chk['tol']:.0e}  {status}")
    for name, val in report.flags.items():
        print(f"{name:<22} {val}")
    print("valid" if report.passed else "INVALID")
    return EXIT_OK if report.passed else EXIT_INPUT


def cmd_ball(args) -> int:
    if args.ball_command != "check-totally-real":
        raise InputError(f"unknown ball subcommand {args.ball_command!r}")
    B = ball_algebra(args.n)
    try:
        x = np.array([float(v) for v in args.xi.split(",")])
    except ValueError as exc:
        raise InputError(f"bad coefficient list: {exc}") from exc
    if x.shape != (B.J.dim,):
        raise InputError(f"need {B.J.dim} coefficients for n={args.n}")
    rng = np.random.default_rng(args.seed)
    V, g = totally_real_subalgebra_containing(x, B.model, rng, samples=args.samples)
    print("subalgebra basis columns (rows = algebra coordinates):")
    for row in V.basis_matrix:
        print("  " + "  ".join(f"{v: .6f}" for v in row))
    print(f"conjugator x_minus = {g.x_minus.tolist()}")
    pts = sample_totally_real_points(B.model, args.samples, rng)
    defects = np.abs(totally_real_defect(pts, V, B.model))
    print(f"min |det| over {args.samples} interior samples: {np.min(defects):.6e}")
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
    except (InputError, MalformedCertificate, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HdqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
