"""End-to-end quotient analysis with a replayable certificate trace.

``analyze`` takes a domain and one automorphism and walks the reduction:
Jordan split of the affine matrix, discreteness of the cyclic group,
removal of the elliptic factor, expression in exponential coordinates of
the simply transitive solvable group, and then a recursion down the
fibration tower.  If the element sits in the ball-like fiber the
totally-real subalgebra witnesses are produced; otherwise it is pushed to
the lower-rank quotient domain and the recursion continues.

Every numeric claim is recorded as a step with payload, residual and
tolerance; ``verify`` re-runs the checks from the stored witnesses alone.
Conclusions are certificates of the cited structure theory applied to
verified hypotheses, never independent proofs: the assumption list names
everything cited without computation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, logm

from . import jalgebra
from .ball import (
    sample_totally_real_points,
    totally_real_defect,
    totally_real_subalgebra_containing,
)
from .errors import (
    HdqError,
    InputError,
    MalformedCertificate,
    NotInDomain,
)
from .fibration import FibrationStep, check_equivariance, push_group, split_last_root
from .jalgebra import NormalJAlgebra
from .jordan import JordanParts, cyclic_discreteness, jordan_decompose
from .lie_core import Subspace, ad_matrix, closure_residual, residual_outside
from .siegel import (
    DomainPoint,
    GroupElement,
    SiegelModel,
    act,
    build_model,
    contains,
    group_element,
    random_interior_point,
    solve_orbit,
)

CITATIONS = {
    "jordan_split": "multiplicative Jordan decomposition in the real-algebraic hull of the automorphism group",
    "discreteness": "cyclic subgroups generated by nontrivial hyperbolic-unipotent elements of a split solvable group are infinite discrete; elliptic closures are compact tori",
    "finite_case": "finite-group quotients of Stein domains are Stein",
    "elliptic_reduction": "passing to the element with the elliptic factor removed changes the quotient by a compact torus and preserves Steinness in both directions",
    "conjugation_into_S": "elements with trivial elliptic part are conjugate into the maximal split solvable subgroup; here the element is matched inside it through the simply transitive orbit",
    "tower_descend": "the domain fibers equivariantly over a lower-rank homogeneous Siegel domain with unit-ball fibers",
    "bundle_quotient": "the quotient of the equivariant bundle is a holomorphic fiber bundle over the quotient base; a bundle with Stein base, Stein fiber and connected complex structure group is Stein (Matsushima-Morimoto)",
    "fiber_case": "a full-dimension subalgebra with totally real orbits globalizes the domain into a principal bundle over the quotient; cyclic quotients of the ball are Stein",
    "base_case": "complex dimension one: the disc, whose quotients by discrete cyclic groups are Stein",
}

BASE_ASSUMPTIONS = [
    "the input automorphism lies in the identity component of the affine automorphism group",
    "Jordan factors of an automorphism are again automorphisms (real-algebraicity of the represented group)",
]
CITED_WITHOUT_COMPUTATION = [
    "Oka principle trivialization of bundles over contractible Stein bases",
    "Stein coverings detect Steinness of domains in Stein manifolds",
    "Matsushima-Morimoto theorem on Stein fiber bundles",
]


EQUIVARIANCE_TOL = 1e-8
# totally-real determinant samples drawn by the fiber case; verify requires
# a certificate to store at least this many
FIBER_SAMPLE_POINTS = 50


@dataclass
class AnalyzerConfig:
    seed: int = 42
    samples: int = 100
    orbit_tol: float = 1e-7
    affine_match_tol: float = 1e-6
    fiber_tol: float = 1e-8
    fiber_undecided_band: float = 1e-6
    defect_min: float = 1e-6
    verify_slack: float = 10.0


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

# a signed term: an optional coefficient with its exponent kept whole
# ("1e-9*", "2.5E+1*"), then everything up to the next sign
_TERM = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\*)?[^+-]*")


def parse_combination(expr: str, J: NormalJAlgebra) -> np.ndarray:
    """Parse '0.7*delta + zeta - 1.2*eta1' over the algebra labels."""
    x = np.zeros(J.dim)
    matched = False
    for term in _TERM.findall(expr.replace(" ", "")):
        if not term or term in "+-":
            continue
        matched = True
        sign = -1.0 if term.startswith("-") else 1.0
        body = term.lstrip("+-")
        if "*" in body:
            cstr, lbl = body.split("*", 1)
            try:
                coeff = float(cstr)
            except ValueError as exc:
                raise InputError(f"bad coefficient in {term!r}") from exc
            if not np.isfinite(coeff):
                raise InputError(f"non-finite coefficient in {term!r}")
        else:
            coeff, lbl = 1.0, body
        x[J.L.index(lbl)] += sign * coeff
    if not matched:
        raise InputError(f"empty coefficient expression {expr!r}")
    return x


def _minus_generator_stack(M: SiegelModel):
    n = M.J.dim
    return ad_matrix(M.C[:, : M.p + M.q].T, M.J.L).reshape(M.p + M.q, n * n).T


def element_from_vector(M: SiegelModel, x_amb: np.ndarray) -> GroupElement:
    """Group element exp(x) rewritten in layered (x_minus, x_zero) form."""
    coords = M.to_adapted(x_amb)
    x0 = coords[M.p + M.q :]
    x0_amb = M.C[:, M.p + M.q :] @ x0 if M.p0 else np.zeros(M.J.dim)
    K = expm(-ad_matrix(x_amb, M.J.L)) @ expm(ad_matrix(x0_amb, M.J.L))
    X = np.real_if_close(logm(K), tol=1e6).real if K.size else np.zeros((0, 0))
    stack = _minus_generator_stack(M)
    y, *_ = (
        np.linalg.lstsq(stack, -X.flatten(), rcond=None)
        if stack.size
        else (np.zeros(M.p + M.q),)
    )
    return group_element(M, y, x0)


def element_log(M: SiegelModel, g: GroupElement) -> np.ndarray:
    """Single ambient log vector of exp(x_minus) exp(x_zero)."""
    n = M.J.dim
    v_minus = M.C[:, : M.p + M.q] @ g.x_minus
    v_zero = M.C[:, M.p + M.q :] @ g.x_zero
    K = expm(-ad_matrix(v_minus, M.J.L)) @ expm(-ad_matrix(v_zero, M.J.L))
    X = np.real_if_close(logm(K), tol=1e6).real
    stack = M.J.L.c.transpose(0, 2, 1).reshape(n, n * n).T
    v, *_ = np.linalg.lstsq(stack, -X.flatten(), rcond=None)
    return v


def _affine_of(g: GroupElement):
    return g.affine_matrix, g.affine_offset


def _homogenize(mat: np.ndarray, off: np.ndarray) -> np.ndarray:
    n = mat.shape[0]
    A = np.eye(n + 1)
    A[:n, :n] = mat
    A[:n, n] = off
    return A


@dataclass
class PhiInput:
    kind: str                  # "exp" | "affine"
    echo: object               # what the user supplied
    vector: np.ndarray | None  # exp coordinates (ambient), when kind == exp
    mat: np.ndarray            # affine linear part on packed coordinates
    off: np.ndarray


def resolve_phi(phi_spec, J: NormalJAlgebra, M: SiegelModel, config: AnalyzerConfig) -> PhiInput:
    if isinstance(phi_spec, str) and phi_spec.startswith("exp:"):
        x = parse_combination(phi_spec[4:], J)
        g = element_from_vector(M, x)
        mat, off = _affine_of(g)
        return PhiInput("exp", phi_spec, x, mat, off)
    if isinstance(phi_spec, str) and phi_spec.startswith("affine:"):
        with open(phi_spec[7:], "r", encoding="utf-8") as fh:
            data = json.load(fh)
    elif isinstance(phi_spec, dict):
        data = phi_spec
    else:
        raise InputError(f"phi must be 'exp:<expr>', 'affine:<file>' or a mapping, got {phi_spec!r}")
    try:
        mat = np.asarray(data["linear"], dtype=float)
        off = np.asarray(data["translation"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad affine map: {exc}") from exc
    dim = 2 * M.p + M.q
    if mat.shape != (dim, dim) or off.shape != (dim,):
        raise InputError(
            f"affine map must act on packed coordinates of length {dim}"
        )
    if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(off))):
        raise InputError("affine map has non-finite entries")
    # sanity screen: 20 sampled interior points must stay inside
    rng = np.random.default_rng(config.seed)
    for _ in range(20):
        pt = random_interior_point(M, rng)
        img = DomainPoint.unpack(mat @ pt.pack() + off, M.p, M.q)
        if not contains(img, M, 1e-7):
            raise InputError("affine map does not preserve the domain on a sample")
    return PhiInput("affine", data, None, mat, off)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _step(kind, payload, residual, tolerance, level=0):
    return {
        "kind": kind,
        "citation": CITATIONS.get(kind, ""),
        "payload": _jsonify(payload),
        "residual": float(residual),
        "tolerance": float(tolerance),
        "level": int(level),
    }


def analyze(domain_spec, phi_spec, config: AnalyzerConfig | None = None) -> dict:
    config = config or AnalyzerConfig()
    if isinstance(domain_spec, NormalJAlgebra):
        J, domain_echo = domain_spec, jalgebra.j_algebra_to_dict(domain_spec)
    else:
        J = jalgebra.resolve_domain(str(domain_spec))
        try:
            jalgebra.preset(str(domain_spec))
            domain_echo = str(domain_spec)
        except InputError:
            domain_echo = jalgebra.j_algebra_to_dict(J)
    report = jalgebra.validate_j_algebra(J)
    if not report.passed:
        name, defect = report.worst()
        raise InputError(f"domain fails validation: {name} defect {defect:.2e}")
    M = build_model(J)

    phi = resolve_phi(phi_spec, J, M, config)
    cert = {
        "version": 1,
        "domain": domain_echo,
        "phi": _jsonify(phi.echo),
        "seed": int(config.seed),
        "steps": [],
        "assumptions": list(BASE_ASSUMPTIONS),
        "conclusion": None,
    }
    steps = cert["steps"]

    # (1) Jordan split of the homogenized affine matrix
    A = _homogenize(phi.mat, phi.off)
    parts = jordan_decompose(A)
    comm = max(
        float(np.linalg.norm(x @ y - y @ x))
        for x, y in [
            (parts.elliptic, parts.hyperbolic),
            (parts.elliptic, parts.unipotent),
            (parts.hyperbolic, parts.unipotent),
        ]
    )
    steps.append(
        _step(
            "jordan_split",
            {
                "matrix": A,
                "elliptic": parts.elliptic,
                "hyperbolic": parts.hyperbolic,
                "unipotent": parts.unipotent,
            },
            max(parts.residual, comm),
            1e-8,
        )
    )

    # (2) discreteness of the cyclic group
    disc = cyclic_discreteness(A, parts)
    hu = parts.hyperbolic @ parts.unipotent
    hu_dev = float(np.linalg.norm(hu - np.eye(A.shape[0])))
    angles = [float(t) for t in np.abs(np.angle(np.linalg.eigvals(parts.elliptic)))]
    steps.append(
        _step(
            "discreteness",
            {"kind": disc.kind, "order": disc.order, "hu_deviation": hu_dev, "angles": sorted(angles)},
            0.0,
            1.0,
        )
    )
    if disc.kind == "finite":
        steps.append(_step("finite_case", {"order": disc.order}, 0.0, 1.0))
        cert["conclusion"] = "stein_by_citation"
        return cert
    if disc.kind == "indiscrete_closure":
        cert["conclusion"] = "not_applicable"
        cert["assumptions"].append("the cyclic group is not discrete; the quotient is not a complex space in the intended sense")
        return cert
    if disc.kind == "undecided":
        cert["conclusion"] = "undecided"
        return cert

    # (3) drop the elliptic factor
    N = A.shape[0] - 1
    if np.max(np.abs(hu[N, :N])) > 1e-9 or abs(hu[N, N] - 1) > 1e-9:
        raise HdqError("hyperbolic-unipotent part is not affine")
    phi_mat, phi_off = hu[:N, :N], hu[:N, N]
    steps.append(
        _step(
            "elliptic_reduction",
            {"elliptic": parts.elliptic, "phi_prime_linear": phi_mat, "phi_prime_translation": phi_off},
            float(np.linalg.norm(parts.elliptic @ hu - A)) / max(1.0, float(np.linalg.norm(A))),
            1e-8,
        )
    )

    # (4) exponential coordinates inside the split solvable group
    try:
        img = DomainPoint.unpack(phi_mat @ M.base_point().pack() + phi_off, M.p, M.q)
        s = solve_orbit(img, M, config.orbit_tol)
    except (NotInDomain, HdqError) as exc:
        cert["conclusion"] = "undecided"
        cert["assumptions"].append(f"conjugation into the split solvable group unsupported: {exc}")
        return cert
    match = max(
        float(np.max(np.abs(s.affine_matrix - phi_mat))),
        float(np.max(np.abs(s.affine_offset - phi_off))),
    )
    if match > config.affine_match_tol:
        cert["conclusion"] = "undecided"
        cert["assumptions"].append(
            "the element does not lie in the split solvable group as given; "
            f"general conjugation is not implemented (affine mismatch {match:.2e})"
        )
        steps.append(
            _step("conjugation_into_S", {"x_minus": s.x_minus, "x_zero": s.x_zero, "match": match}, match, config.affine_match_tol)
        )
        return cert
    steps.append(
        _step(
            "conjugation_into_S",
            {"x_minus": s.x_minus, "x_zero": s.x_zero, "phi_prime_linear": phi_mat, "phi_prime_translation": phi_off},
            match,
            config.affine_match_tol,
        )
    )

    # (5)-(6) fibration recursion
    _descend(J, M, s, 1, steps, cert, config)
    if cert["conclusion"] == "stein_certified":
        cert["assumptions"].extend(CITED_WITHOUT_COMPUTATION)
    return cert


def _descend(J, M, s, level, steps, cert, config):
    if J.dim == 0:
        steps.append(_step("base_case", {"dim_complex": 0}, 0.0, 1.0, level))
        cert["conclusion"] = "stein_certified"
        return

    F = split_last_root(J, M)
    pushed = push_group(s, F)
    total = float(np.linalg.norm(s.x_minus) + np.linalg.norm(s.x_zero))
    push_norm = float(np.linalg.norm(pushed.x_minus) + np.linalg.norm(pushed.x_zero))
    ratio = push_norm / total if total > 0 else 0.0

    if ratio < config.fiber_tol:
        _fiber_case(F, M, s, level, steps, cert, config)
        return
    if ratio < config.fiber_undecided_band:
        cert["conclusion"] = "undecided"
        cert["assumptions"].append(
            f"fiber membership is numerically ambiguous (projection ratio {ratio:.2e})"
        )
        return

    eq_seed = config.seed + level
    eq_res = check_equivariance(F, config.samples, seed=eq_seed)
    if eq_res > EQUIVARIANCE_TOL:
        cert["conclusion"] = "undecided"
        cert["assumptions"].append(
            f"the fibration at level {level} is not numerically equivariant "
            f"(residual {eq_res:.2e} exceeds {EQUIVARIANCE_TOL:.0e})"
        )
        return
    steps.append(
        _step(
            "tower_descend",
            {
                "dim_fiber_algebra": int(2 * F.fiber_dim),
                "dim_quotient_algebra": int(F.s_prime.dim),
                "pushed_x_minus": pushed.x_minus,
                "pushed_x_zero": pushed.x_zero,
                "equivariance_samples": int(config.samples),
                "equivariance_seed": int(eq_seed),
                "structure_residuals": F.residuals,
            },
            eq_res,
            EQUIVARIANCE_TOL,
            level,
        )
    )
    steps.append(_step("bundle_quotient", {}, 0.0, 1.0, level))
    _descend(F.s_prime, F.quotient_model, pushed, level + 1, steps, cert, config)


def _fiber_case(F: FibrationStep, M, s, level, steps, cert, config):
    v_amb = element_log(M, s)
    pinvB = np.linalg.pinv(F.b_basis)
    x_b = pinvB @ v_amb
    proj_res = float(np.linalg.norm(F.b_basis @ x_b - v_amb)) / max(
        1.0, float(np.linalg.norm(v_amb))
    )
    Mf = F.fiber_model
    rng = np.random.default_rng(config.seed + 7 * level)
    V, g = totally_real_subalgebra_containing(x_b, Mf, rng, FIBER_SAMPLE_POINTS)
    pts = sample_totally_real_points(
        Mf, FIBER_SAMPLE_POINTS, np.random.default_rng(config.seed + 7 * level + 1)
    )
    defects = np.abs(totally_real_defect(pts, V, Mf))
    containment = residual_outside(x_b, V) / max(1.0, float(np.linalg.norm(x_b)))
    steps.append(
        _step(
            "fiber_case",
            {
                "fiber_dim": int(F.fiber_dim),
                "log_in_fiber": x_b,
                "log_residual": proj_res,
                "subalgebra": V.basis_matrix,
                "conjugator_x_minus": g.x_minus,
                "conjugator_x_zero": g.x_zero,
                "sample_points": pts.pack(),
                "min_defect": float(np.min(defects)),
                "defect_tolerance": config.defect_min,
                "containment_residual": containment,
            },
            max(proj_res, containment),
            1e-8,
            level,
        )
    )
    if Mf.dim_complex <= 1 and F.s_prime.dim == 0:
        steps.append(_step("base_case", {"dim_complex": int(Mf.dim_complex)}, 0.0, 1.0, level))
    cert["conclusion"] = "stein_certified"


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify(cert: dict, config: AnalyzerConfig | None = None):
    """Re-run every numeric check from the stored witnesses.

    Returns (ok, report): one entry per step with the recomputed residual.
    """
    config = config or AnalyzerConfig()
    try:
        steps = cert["steps"]
        conclusion = cert["conclusion"]
        domain = cert["domain"]
    except (KeyError, TypeError) as exc:
        raise MalformedCertificate(f"certificate missing field: {exc}") from exc

    J = (
        jalgebra.j_algebra_from_dict(domain)
        if isinstance(domain, dict)
        else jalgebra.preset(domain)
    )
    M = build_model(J)
    towers = {}

    def model_at(level):
        # level 1 is the full domain; each descend replaces it by the quotient
        cur_J, cur_M = J, M
        for lv in range(1, level):
            key = lv
            if key not in towers:
                towers[key] = split_last_root(cur_J, cur_M)
            F = towers[key]
            cur_J, cur_M = F.s_prime, F.quotient_model
        return cur_J, cur_M

    def fib_at(level):
        cur_J, cur_M = model_at(level)
        if level not in towers:
            towers[level] = split_last_root(cur_J, cur_M)
        return towers[level]

    report = []
    ok = True
    slack = config.verify_slack
    for idx, step in enumerate(steps):
        try:
            kind = step["kind"]
            payload = step["payload"]
            tol = float(step["tolerance"])
        except (KeyError, TypeError) as exc:
            raise MalformedCertificate(f"step {idx} missing field: {exc}") from exc
        entry = {"index": idx, "kind": kind, "ok": True, "detail": ""}
        try:
            if kind == "jordan_split":
                res = _verify_jordan(payload)
                entry["residual"] = res
                if res > slack * tol:
                    entry.update(ok=False, detail=f"jordan residual {res:.2e}")
            elif kind == "discreteness":
                entry_ok, detail = _verify_discreteness(payload, steps)
                if not entry_ok:
                    entry.update(ok=False, detail=detail)
            elif kind == "elliptic_reduction":
                res = _verify_reduction(payload, steps)
                entry["residual"] = res
                if res > slack * tol:
                    entry.update(ok=False, detail=f"reduction residual {res:.2e}")
            elif kind == "conjugation_into_S":
                res = _verify_conjugation(payload, M)
                entry["residual"] = res
                if res > slack * tol:
                    entry.update(ok=False, detail=f"affine mismatch {res:.2e}")
            elif kind == "tower_descend":
                F = fib_at(int(step.get("level", 1)))
                samples = int(payload["equivariance_samples"])
                if samples < config.samples:
                    entry.update(
                        ok=False,
                        detail=f"{samples} equivariance samples, verify requires {config.samples}",
                    )
                else:
                    res = check_equivariance(F, samples, seed=int(payload["equivariance_seed"]))
                    entry["residual"] = res
                    if res > slack * tol:
                        entry.update(ok=False, detail=f"equivariance residual {res:.2e}")
            elif kind == "fiber_case":
                F = fib_at(int(step.get("level", 1)))
                entry_ok, detail, res = _verify_fiber(payload, F, config)
                entry["residual"] = res
                if not entry_ok:
                    entry.update(ok=False, detail=detail)
            elif kind in ("base_case", "finite_case", "bundle_quotient"):
                pass
            else:
                entry.update(ok=False, detail=f"unknown step kind {kind!r}")
        except MalformedCertificate:
            raise
        except (HdqError, KeyError, ValueError, IndexError) as exc:
            entry.update(ok=False, detail=f"replay failed: {exc}")
        ok = ok and entry["ok"]
        report.append(entry)

    if conclusion == "stein_certified" and not any(
        s["kind"] in ("fiber_case", "base_case") for s in steps
    ):
        ok = False
        report.append({"index": -1, "kind": "conclusion", "ok": False, "detail": "certified without terminal witnesses"})
    return ok, report


def _verify_jordan(payload):
    A = np.asarray(payload["matrix"], dtype=float)
    e = np.asarray(payload["elliptic"], dtype=float)
    h = np.asarray(payload["hyperbolic"], dtype=float)
    u = np.asarray(payload["unipotent"], dtype=float)
    n = A.shape[0]
    res = float(np.linalg.norm(e @ h @ u - A)) / max(1.0, float(np.linalg.norm(A)))
    for X, Y in ((e, h), (e, u), (h, u)):
        res = max(res, float(np.linalg.norm(X @ Y - Y @ X)))
    res = max(res, float(np.max(np.abs(np.abs(np.linalg.eigvals(e)) - 1.0))))
    hv = np.linalg.eigvals(h)
    res = max(res, float(np.max(np.abs(hv.imag))))
    if np.min(hv.real) <= 0:
        res = max(res, 1.0)
    res = max(res, float(np.linalg.norm(np.linalg.matrix_power(u - np.eye(n), n))))
    return res


def _verify_discreteness(payload, steps):
    jordan = next((s for s in steps if s["kind"] == "jordan_split"), None)
    if jordan is None:
        return True, ""
    h = np.asarray(jordan["payload"]["hyperbolic"], dtype=float)
    u = np.asarray(jordan["payload"]["unipotent"], dtype=float)
    e = np.asarray(jordan["payload"]["elliptic"], dtype=float)
    parts = JordanParts(e, h, u, 0.0)
    A = np.asarray(jordan["payload"]["matrix"], dtype=float)
    disc = cyclic_discreteness(A, parts)
    if disc.kind != payload["kind"]:
        return False, f"discreteness replays as {disc.kind}, stored {payload['kind']}"
    return True, ""


def _verify_reduction(payload, steps):
    jordan = next((s for s in steps if s["kind"] == "jordan_split"), None)
    if jordan is None:
        return 0.0
    A = np.asarray(jordan["payload"]["matrix"], dtype=float)
    e = np.asarray(payload["elliptic"], dtype=float)
    mat = np.asarray(payload["phi_prime_linear"], dtype=float)
    off = np.asarray(payload["phi_prime_translation"], dtype=float)
    hu = _homogenize(mat, off)
    return float(np.linalg.norm(e @ hu - A)) / max(1.0, float(np.linalg.norm(A)))


def _verify_conjugation(payload, M):
    g = group_element(
        M,
        np.asarray(payload["x_minus"], dtype=float),
        np.asarray(payload["x_zero"], dtype=float),
    )
    if "phi_prime_linear" not in payload:
        return float(payload.get("match", 0.0))
    mat = np.asarray(payload["phi_prime_linear"], dtype=float)
    off = np.asarray(payload["phi_prime_translation"], dtype=float)
    return max(
        float(np.max(np.abs(g.affine_matrix - mat))),
        float(np.max(np.abs(g.affine_offset - off))),
    )


def _verify_fiber(payload, F: FibrationStep, config: AnalyzerConfig):
    Mf = F.fiber_model
    basis = np.asarray(payload["subalgebra"], dtype=float)
    if int(payload["fiber_dim"]) != F.fiber_dim:
        return False, "fiber dimension does not match the recomputed tower", 1.0
    if basis.ndim != 2 or basis.shape[1] != Mf.dim_complex:
        return False, "totally-real subalgebra has the wrong dimension", 1.0
    try:
        V = Subspace(Mf.J.dim, basis)
    except HdqError as exc:
        return False, f"stored subalgebra is degenerate: {exc}", 1.0
    x_b = np.asarray(payload["log_in_fiber"], dtype=float)
    res = residual_outside(x_b, V) / max(1.0, float(np.linalg.norm(x_b)))
    res = max(res, closure_residual(V, Mf.J.L))
    packed = np.asarray(payload["sample_points"], dtype=float)
    width = 2 * Mf.p + Mf.q
    if packed.ndim != 2 or packed.shape[1] != width or len(packed) < FIBER_SAMPLE_POINTS:
        return (
            False,
            f"sample points of shape {packed.shape}, need at least "
            f"{FIBER_SAMPLE_POINTS} rows of {width} coordinates",
            res,
        )
    pts = DomainPoint.unpack(packed, Mf.p, Mf.q)
    min_defect = float(np.min(np.abs(totally_real_defect(pts, V, Mf))))
    tol_defect = float(payload.get("defect_tolerance", config.defect_min))
    if min_defect <= tol_defect / config.verify_slack:
        return False, f"totally-real determinant check failed (min |det| {min_defect:.2e})", res
    if res > config.verify_slack * 1e-8:
        return False, f"subalgebra containment/closure residual {res:.2e}", res
    return True, "", res


# ---------------------------------------------------------------------------
# certificate I/O
# ---------------------------------------------------------------------------

def dump_certificate(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, indent=2) + "\n"


def load_certificate(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "steps" not in data or "conclusion" not in data:
        raise MalformedCertificate("not a certificate file")
    return data
