"""End-to-end quotient analysis with a replayable certificate trace.

``analyze`` takes a domain and one automorphism and walks the reduction:
Jordan split of the affine matrix, discreteness of the cyclic group,
removal of the elliptic factor, expression in exponential coordinates of
the simply transitive solvable group, and then a descent down the
fibration tower.  If the element sits in the ball-like fiber the
totally-real subalgebra witnesses are produced; otherwise it is pushed to
the lower-rank quotient domain and the descent continues.

The contract between ``analyze`` and ``verify``: the reduction's branches
exist once, in ``_walk``, which asks its ``take`` for each step's payload
and branches only on checked payloads or on what a check set in the
:class:`ReplayState`.  Each checked kind has one check in ``CHECKS`` and
one tolerance in ``STEP_TOL``; an unchecked kind (``finite_case``,
``bundle_quotient``, ``base_case``) must equal what the walk builds.

- ``analyze``'s take builds, checks and records each step; a failed check
  stops the walk ``undecided``, with the reason in ``assumptions``.
- ``verify``'s take hands over the next stored step, which must be the
  ``(kind, level)`` the walk expects ("the replay expects ...") and must
  replay within ``VERIFY_SLACK`` times the tolerance.  A residual over it
  fails the entry and the walk goes on with the stored payload; a step
  that cannot pass stops the walk, and the steps after it fail as "not
  reached by the replay".  When every step replayed, a stored conclusion
  other than the walk's adds a failing ``conclusion`` entry.  A stored
  ``tolerance`` is a note for the reader, never read.
- Both validate the domain first: ``analyze`` refuses an invalid one with
  an ``InputError``, and ``verify`` fails with one ``domain`` entry.

A certificate stores its input (``domain``, ``phi``, ``seed``) and, per
step, only the witnesses a check cannot recompute; the check derives the
rest:

- ``jordan_split``: the three factors; the check measures their
  commutators and spectra, and how far their product is from the
  homogenized matrix of ``phi`` (an ``exp:`` string through
  ``siegel.element_from_vector``, a mapping as given), which ``verify``
  derives when it replays this step.
- ``discreteness``: ``kind`` and ``order``, re-decided from the factors;
  ``finite_case``: the ``order``.
- ``elliptic_reduction``: nothing; the check sets φ′ = h·u and measures
  how far it is from affine.
- ``conjugation_into_S``: ``x_minus`` and ``x_zero``, compared with φ′.
- ``tower_descend``: ``dim_quotient_algebra``, compared with the
  recomputed tower; ``EQUIVARIANCE_SAMPLES`` samples use seed
  ``seed + level``.
- ``fiber_case``: ``fiber_dim``, ``log_in_fiber``, the totally-real
  ``subalgebra`` (an orthonormal basis aligned with the coordinates) and
  ``conjugator_x_minus``; ``FIBER_SAMPLE_POINTS`` interior points are
  drawn with ``default_rng(seed + 7 * level + 1)``.  The witness is
  accepted by ``ball.totally_real_residuals``: the conjugator must move
  ``log_in_fiber`` onto the frame line, or be zero when ``log_in_fiber``
  has no frame coefficient.

Conclusions are certificates of the cited structure theory applied to
verified hypotheses, never independent proofs: the assumption list names
everything cited without computation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from . import jalgebra
from .ball import (
    DEFECT_MIN,
    WITNESS_RESIDUAL,
    sample_totally_real_points,
    totally_real_residuals,
    totally_real_subalgebra,
)
from .errors import ClusterAmbiguous, HdqError, InputError, MalformedCertificate, TotallyRealCheckFailed
from .fibration import FibrationStep, check_equivariance, push_group, split_last_root
from .jalgebra import NormalJAlgebra
from .jordan import JordanParts, cyclic_discreteness, jordan_decompose
from .lie_core import Subspace
from .siegel import (
    DomainPoint,
    GroupElement,
    SiegelModel,
    _aligned_basis,
    build_model,
    contains,
    element_from_vector,
    element_log,
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


# equivariance samples per tower level, and totally-real determinant
# samples of the fiber case, drawn alike by analyze and verify
EQUIVARIANCE_SAMPLES = 100
FIBER_SAMPLE_POINTS = 50
# the element is in the fiber below FIBER_RATIO (|pushed| / |element|), and
# membership is undecided below FIBER_BAND
FIBER_RATIO = 1e-8
FIBER_BAND = 1e-6


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


def _homogenize(mat: np.ndarray, off: np.ndarray) -> np.ndarray:
    n = mat.shape[0]
    A = np.eye(n + 1)
    A[:n, :n] = mat
    A[:n, n] = off
    return A


@dataclass
class PhiInput:
    echo: object      # what the user supplied
    mat: np.ndarray   # affine linear part on packed coordinates
    off: np.ndarray


def phi_affine(phi_spec, M: SiegelModel):
    """(linear, translation) on packed coordinates of an ``exp:`` string or
    of a mapping with ``linear`` and ``translation``; ``InputError`` when it
    does not parse or does not fit the domain."""
    if isinstance(phi_spec, str) and phi_spec.startswith("exp:"):
        g = element_from_vector(M, parse_combination(phi_spec[4:], M.J))
        return g.affine_matrix, g.affine_offset
    if not isinstance(phi_spec, dict):
        raise InputError(f"phi must be 'exp:<expr>', 'affine:<file>' or a mapping, got {phi_spec!r}")
    try:
        mat = np.asarray(phi_spec["linear"], dtype=float)
        off = np.asarray(phi_spec["translation"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad affine map: {exc}") from exc
    dim = 2 * M.p + M.q
    if mat.shape != (dim, dim) or off.shape != (dim,):
        raise InputError(
            f"affine map must act on packed coordinates of length {dim}"
        )
    if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(off))):
        raise InputError("affine map has non-finite entries")
    return mat, off


def resolve_phi(phi_spec, M: SiegelModel, seed: int) -> PhiInput:
    if isinstance(phi_spec, str) and phi_spec.startswith("affine:"):
        with open(phi_spec[7:], "r", encoding="utf-8") as fh:
            phi_spec = json.load(fh)
    mat, off = phi_affine(phi_spec, M)
    if isinstance(phi_spec, dict):
        # sanity screen: 20 sampled interior points must stay inside
        rng = np.random.default_rng(seed)
        for _ in range(20):
            pt = random_interior_point(M, rng)
            img = DomainPoint.unpack(mat @ pt.pack() + off, M.p, M.q)
            if not contains(img, M, 1e-7):
                raise InputError("affine map does not preserve the domain on a sample")
    return PhiInput(phi_spec, mat, off)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def analyze(domain_spec, phi_spec, seed: int = 42) -> dict:
    if isinstance(domain_spec, NormalJAlgebra):
        J, domain_echo = domain_spec, jalgebra.j_algebra_to_dict(domain_spec)
    else:
        J = jalgebra.resolve_domain(str(domain_spec))
        try:
            jalgebra.preset(str(domain_spec))
            domain_echo = str(domain_spec)
        except InputError:
            domain_echo = jalgebra.j_algebra_to_dict(J)
    invalid = _validation_failure(J)
    if invalid:
        raise InputError(invalid)
    M = build_model(J)

    phi = resolve_phi(phi_spec, M, seed)
    cert = {
        "version": 1,
        "domain": domain_echo,
        "phi": phi.echo,
        "seed": int(seed),
        "steps": [],
        "assumptions": list(BASE_ASSUMPTIONS),
        "conclusion": None,
    }
    state = ReplayState(M, int(seed), phi_matrix=_homogenize(phi.mat, phi.off))
    _walk(state, cert, _recorder(cert, state))
    return cert


def _validation_failure(J: NormalJAlgebra) -> str | None:
    """Why the domain is not a normal j-algebra, or None when it validates."""
    report = jalgebra.validate_j_algebra(J)
    if report.passed:
        return None
    name, defect = report.worst()
    reason = report.flags.get("root_decomposition")
    return f"domain fails validation: {name} defect {defect:.2e}" + (f" ({reason})" if reason else "")


def _walk(state: ReplayState, out: dict, take) -> None:
    """The reduction, shared by analyze and verify: ``take(kind, level,
    build)`` returns the next step's payload once its check has run, or None
    to stop, which leaves ``out["conclusion"]`` undecided."""
    out["conclusion"] = "undecided"
    if take("jordan_split", 0, lambda: _jordan_payload(state)) is None:
        return
    disc = take("discreteness", 0, lambda: vars(cyclic_discreteness(*state.jordan)))
    if disc is None or disc["kind"] == "undecided":
        return
    if disc["kind"] == "finite":
        if take("finite_case", 0, lambda: {"order": disc["order"]}) is not None:
            out["conclusion"] = "stein_by_citation"
        return
    if disc["kind"] == "indiscrete_closure":
        out["conclusion"] = "not_applicable"
        out["assumptions"].append("the cyclic group is not discrete; the quotient is not a complex space in the intended sense")
        return
    if take("elliptic_reduction", 0, dict) is None or take("conjugation_into_S", 0, lambda: _orbit_payload(state)) is None:
        return

    # descent down the fibration tower until the element lies in a fiber
    level, M, s = 1, state.model, state.element
    while M.J.dim:
        F = state.fibration(level)
        pushed = push_group(s, F)
        total = float(np.linalg.norm(s.x_minus) + np.linalg.norm(s.x_zero))
        push_norm = float(np.linalg.norm(pushed.x_minus) + np.linalg.norm(pushed.x_zero))
        ratio = push_norm / total if total > 0 else 0.0
        if ratio < FIBER_RATIO:
            d = F.fiber_model.dim_complex
            if take("fiber_case", level, lambda: _fiber_payload(F, M, s)) is None:
                return
            if d <= 1 and F.quotient_model.J.dim == 0 and take("base_case", level, lambda: {"dim_complex": d}) is None:
                return
            break
        if ratio < FIBER_BAND:
            out["assumptions"].append(f"fiber membership is numerically ambiguous (projection ratio {ratio:.2e})")
            return
        descend = take("tower_descend", level, lambda: {"dim_quotient_algebra": F.quotient_model.J.dim})
        if descend is None or take("bundle_quotient", level, dict) is None:
            return
        s, M, level = pushed, F.quotient_model, level + 1
    else:  # the tower ran down to a point without meeting a fiber
        if take("base_case", level, lambda: {"dim_complex": 0}) is None:
            return
    out["conclusion"] = "stein_certified"
    out["assumptions"].extend(CITED_WITHOUT_COMPUTATION)


def _jordan_payload(state: ReplayState) -> dict:
    try:
        parts = jordan_decompose(state.homogenized_phi())
    except ClusterAmbiguous as exc:
        raise StepRejected(str(exc)) from exc
    return {"elliptic": parts.elliptic, "hyperbolic": parts.hyperbolic, "unipotent": parts.unipotent}


def _orbit_payload(state: ReplayState) -> dict:
    """Exponential coordinates of phi' inside the split solvable group."""
    mat, off = state.phi_prime
    M = state.model
    try:
        s = solve_orbit(DomainPoint.unpack(mat @ M.base_point().pack() + off, M.p, M.q), M)
    except HdqError as exc:
        raise StepRejected(f"conjugation into the split solvable group unsupported: {exc}") from exc
    return {"x_minus": s.x_minus, "x_zero": s.x_zero}


def _fiber_payload(F: FibrationStep, M: SiegelModel, s: GroupElement) -> dict:
    x_b = np.linalg.pinv(F.b_basis) @ element_log(M, s)
    V, g = totally_real_subalgebra(x_b, F.fiber_model)
    return {
        "fiber_dim": F.fiber_model.dim_complex,
        "log_in_fiber": x_b,
        "subalgebra": _aligned_basis(V),
        "conjugator_x_minus": g.x_minus,
    }


def _recorder(cert: dict, state: ReplayState):
    """analyze's ``take``: build the payload, check it and record the step
    if it passes within its tolerance; otherwise note why and stop."""

    def take(kind, level, build):
        try:
            payload = build()
        except StepRejected as exc:
            cert["assumptions"].append(str(exc))
            return None
        residual, failure = _replay(kind, payload, state, level, 1.0, build)
        if failure is not None:
            cert["assumptions"].append(f"{FAILED[kind].format(level=level)} ({failure})")
            return None
        cert["steps"].append({
            "kind": kind,
            "citation": CITATIONS[kind],
            "payload": payload,
            "residual": float(residual),
            "tolerance": STEP_TOL.get(kind, 1.0),
            "level": int(level),
        })
        return payload

    return take


# ---------------------------------------------------------------------------
# the checks, shared by analyze and verify
# ---------------------------------------------------------------------------

# one tolerance per checked step kind: analyze records a step whose check
# stays within it, and verify accepts a replay within VERIFY_SLACK times it
STEP_TOL = {
    "jordan_split": 1e-8,
    "elliptic_reduction": 1e-9,
    "conjugation_into_S": 1e-6,
    "tower_descend": 1e-8,
    "fiber_case": WITNESS_RESIDUAL,
}
VERIFY_SLACK = 10.0

# the assumption analyze adds when a step fails its check
FAILED = {
    "jordan_split": "the Jordan split of the affine matrix does not replay",
    "elliptic_reduction": "removing the elliptic factor does not leave an affine map",
    "conjugation_into_S": "the element does not lie in the split solvable group as given; general conjugation is not implemented",
    "tower_descend": "the fibration at level {level} is not numerically equivariant",
    "fiber_case": "the totally-real witness at level {level} fails its check",
}


class StepRejected(Exception):
    """A check that cannot pass whatever the tolerance."""


@dataclass
class ReplayState:
    """What a check reads besides its payload: the level-1 model, the
    certificate's seed and phi, the fibration tower (split lazily, one level
    at a time), and what earlier steps established."""

    model: SiegelModel
    seed: int
    phi: object = None                    # the certificate's phi
    phi_matrix: np.ndarray | None = None  # its homogenized matrix, derived on first use
    tower: list = field(default_factory=list)
    jordan: tuple | None = None      # (matrix, JordanParts) of jordan_split
    phi_prime: tuple | None = None   # (linear, translation) of h u, set by elliptic_reduction
    element: GroupElement | None = None  # phi' in the split solvable group, set by conjugation_into_S

    def fibration(self, level: int) -> FibrationStep:
        while len(self.tower) < level:
            M = self.tower[-1].quotient_model if self.tower else self.model
            self.tower.append(split_last_root(M))
        return self.tower[level - 1]

    def homogenized_phi(self) -> np.ndarray:
        if self.phi_matrix is None:
            try:
                self.phi_matrix = _homogenize(*phi_affine(self.phi, self.model))
            except InputError as exc:
                raise StepRejected(f"phi does not resolve on this domain: {exc}") from exc
        return self.phi_matrix


def _array(payload, key):
    return np.asarray(payload[key], dtype=float)


def _check_jordan(payload, state: ReplayState, level) -> float:
    e, h, u = (_array(payload, k) for k in ("elliptic", "hyperbolic", "unipotent"))
    A = state.homogenized_phi()
    n = A.shape[0]
    if any(X.shape != A.shape for X in (e, h, u)):
        raise StepRejected(f"Jordan factors of shapes {e.shape}, {h.shape}, {u.shape}; phi gives {A.shape}")
    res = float(np.linalg.norm(e @ h @ u - A)) / max(1.0, float(np.linalg.norm(A)))
    for X, Y in ((e, h), (e, u), (h, u)):
        res = max(res, float(np.linalg.norm(X @ Y - Y @ X)))
    res = max(res, float(np.max(np.abs(np.abs(np.linalg.eigvals(e)) - 1.0))))
    hv = np.linalg.eigvals(h)
    res = max(res, float(np.max(np.abs(hv.imag))))
    if np.min(hv.real) <= 0:
        res = max(res, 1.0)
    res = max(res, float(np.linalg.norm(np.linalg.matrix_power(u - np.eye(n), n))))
    state.jordan = (A, JordanParts(e, h, u, res))
    return res


def _check_discreteness(payload, state: ReplayState, level) -> float:
    disc = cyclic_discreteness(*state.jordan)
    if (disc.kind, disc.order) != (payload["kind"], payload["order"]):
        raise StepRejected(
            f"discreteness replays as {disc.kind} (order {disc.order}), "
            f"stored {payload['kind']} (order {payload['order']})"
        )
    return 0.0


def _check_reduction(payload, state: ReplayState, level) -> float:
    _, parts = state.jordan
    hu = parts.hyperbolic @ parts.unipotent
    N = hu.shape[0] - 1
    state.phi_prime = (hu[:N, :N], hu[:N, N])
    return max(float(np.max(np.abs(hu[N, :N]))), abs(float(hu[N, N]) - 1.0))


def _check_conjugation(payload, state: ReplayState, level) -> float:
    mat, off = state.phi_prime
    g = state.element = group_element(state.model, _array(payload, "x_minus"), _array(payload, "x_zero"))
    return max(
        float(np.max(np.abs(g.affine_matrix - mat))),
        float(np.max(np.abs(g.affine_offset - off))),
    )


def _check_tower(payload, state: ReplayState, level) -> float:
    F = state.fibration(level)
    if payload["dim_quotient_algebra"] != F.quotient_model.J.dim:
        raise StepRejected("quotient algebra dimension does not match the recomputed tower")
    return check_equivariance(F, EQUIVARIANCE_SAMPLES, seed=state.seed + level)


def _check_fiber(payload, state: ReplayState, level) -> float:
    F = state.fibration(level)
    Mf = F.fiber_model
    if int(payload["fiber_dim"]) != Mf.dim_complex:
        raise StepRejected("fiber dimension does not match the recomputed tower")
    basis = _array(payload, "subalgebra")
    if basis.shape != (Mf.J.dim, Mf.dim_complex):
        raise StepRejected(f"totally-real subalgebra of shape {basis.shape}, need {(Mf.J.dim, Mf.dim_complex)}")
    try:
        V = Subspace(Mf.J.dim, basis)
    except HdqError as exc:
        raise StepRejected(f"stored totally-real subalgebra is degenerate: {exc}") from exc
    pts = sample_totally_real_points(
        Mf, FIBER_SAMPLE_POINTS, np.random.default_rng(state.seed + 7 * level + 1)
    )
    try:
        res, min_det = totally_real_residuals(
            _array(payload, "log_in_fiber"), V, _array(payload, "conjugator_x_minus"), Mf, pts
        )
    except TotallyRealCheckFailed as exc:
        raise StepRejected(str(exc)) from exc
    if not min_det > DEFECT_MIN:
        raise StepRejected(f"totally-real determinant check failed (min |det| {min_det:.2e})")
    return res


CHECKS = {
    "jordan_split": _check_jordan,
    "discreteness": _check_discreteness,
    "elliptic_reduction": _check_reduction,
    "conjugation_into_S": _check_conjugation,
    "tower_descend": _check_tower,
    "fiber_case": _check_fiber,
}


def _replay(kind, payload, state, level, slack, build):
    """(residual, why it failed): no failure when the check of ``kind``
    passes within ``slack`` times its tolerance, and no residual when the
    step cannot pass whatever the tolerance.

    A kind with no check (``finite_case``, ``bundle_quotient``,
    ``base_case``) stores only what the walk builds from checked state, so
    its payload must equal ``build()``.
    """
    if kind not in CHECKS:
        built = build()
        if {k: payload[k] for k in built} != built:
            return None, f"stored payload differs from {built}"
        return 0.0, None
    try:
        res = CHECKS[kind](payload, state, level)
    except StepRejected as exc:
        return None, str(exc)
    tol = STEP_TOL.get(kind)
    if tol is not None and not res <= slack * tol:
        return res, f"residual {res:.2e} exceeds {slack * tol:.0e}"
    return res, None


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify(cert: dict):
    """Validate the domain, then run the walk with the stored steps as its
    ``take``: each must be the step the walk expects next, and replays
    through its check.

    Returns (ok, report): one entry per stored step, in order; a checked
    kind's entry carries the replayed ``residual`` beside the ``recorded``
    one.  A ``conclusion`` entry follows when every step replayed and the
    walk concludes other than the certificate.
    """
    try:
        steps = [(s["kind"], s.get("level"), s["payload"], s.get("residual")) for s in cert["steps"]]
        conclusion = cert["conclusion"]
        domain = cert["domain"]
        seed = int(cert["seed"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedCertificate(f"certificate missing field: {exc}") from exc

    if isinstance(domain, dict):
        J = jalgebra.j_algebra_from_dict(domain)
    elif isinstance(domain, str):
        J = jalgebra.preset(domain)
    else:
        raise MalformedCertificate(f"domain must be a preset name or a mapping, not {type(domain).__name__}")
    invalid = _validation_failure(J)
    if invalid:
        return False, [{"index": -1, "kind": "domain", "ok": False, "detail": invalid}]
    state = ReplayState(build_model(J), seed, cert.get("phi"))
    report = []

    def take(kind, level, build):
        if len(report) == len(steps):
            return None
        found, found_level, payload, recorded = steps[len(report)]
        entry = {"index": len(report), "kind": found, "ok": True, "detail": ""}
        report.append(entry)
        res, failure = None, f"the replay expects {kind} at level {level} here"
        if (found, found_level) == (kind, level):
            try:
                res, failure = _replay(kind, payload, state, level, VERIFY_SLACK, build)
            except (HdqError, KeyError, ValueError, IndexError, TypeError) as exc:
                failure = f"replay failed: {exc}"
        if res is not None and kind in STEP_TOL:
            entry.update(residual=res, recorded=recorded)
        if failure is not None:
            entry.update(ok=False, detail=failure)
        return None if res is None else payload

    walked = {"assumptions": []}
    _walk(state, walked, take)
    replayed = len(report) == len(steps) and all(entry["ok"] for entry in report)
    for idx in range(len(report), len(steps)):
        report.append({"index": idx, "kind": steps[idx][0], "ok": False, "detail": "not reached by the replay"})
    if replayed and walked["conclusion"] != conclusion:
        detail = f"the certificate concludes {conclusion}, the replay {walked['conclusion']}"
        report.append({"index": -1, "kind": "conclusion", "ok": False, "detail": detail})
    return all(entry["ok"] for entry in report), report


# ---------------------------------------------------------------------------
# certificate I/O
# ---------------------------------------------------------------------------

def dump_certificate(cert: dict) -> str:
    return json.dumps(cert, sort_keys=True, indent=2, default=lambda a: a.tolist()) + "\n"


def load_certificate(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "steps" not in data or "conclusion" not in data:
        raise MalformedCertificate("not a certificate file")
    return data
