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
- Both prepare the domain first (``_prepared``): ``analyze`` refuses an
  invalid one with an ``InputError``, and ``verify`` fails with one
  ``domain`` entry.  The validation, the level-1 model and its tower
  depend on the domain alone, so one slot keeps the last domain's, keyed
  on the bitwise content of its labels, ``c``, ``j`` and ``omega``; an
  ``analyze`` and the ``verify`` after it, or the automorphisms of one
  domain, prepare it once.  Every step's check still runs on every call.

A certificate (``dump_certificate``) is compact JSON with sorted keys on
one line, then a newline; ``python -m json.tool`` pretty-prints it, and the
indented certificates of earlier versions load unchanged.  It stores its
input (``domain``, ``phi``, ``seed``) and, per step, only the witnesses a
check cannot recompute; the check derives the rest:

- ``jordan_split``: the ``elliptic`` factor e of the homogenized matrix A
  of ``phi`` (an ``exp:`` string through ``siegel.element_from_vector``,
  a mapping as given), which ``verify`` derives when it replays this
  step.  The check derives φ′ = e⁻¹A and measures e's commutator with A
  and spectrum; version 1 also stored h and u, whose product must be φ′.
- ``discreteness``: ``kind`` and ``order``, re-decided from e and φ′; a
  finite order must take phi to I, an elliptic closure needs bounded
  powers of phi, and an infinite group bounded powers of e and unbounded
  ones of a φ′ farther from I than ``conjugation_into_S`` accepts.
  ``finite_case``: the ``order``.
- ``elliptic_reduction``: nothing; the check measures how far φ′ is from
  affine.
- ``conjugation_into_S``: ``x_minus`` and ``x_zero``, compared with φ′
  entry by entry, each row of [linear | translation] relative to max(1,
  the largest entry of that row of φ′).
- ``tower_descend``: ``dim_quotient_algebra``, compared with the
  recomputed tower (``fibration.Tower``, one level at a time).  The check
  is the level's structural residual (``Tower.residual``), which bounds
  how far the coordinate selection is from the equivariant projection;
  it draws no samples.  The walk takes the log y of φ′ once, in the
  level-1 model's coordinates, where each quotient map selects columns:
  a level descends with y[~ideal] while |y[~ideal]| / |y| is at least
  ``FIBER_BAND``, and builds no quotient group element.
- ``fiber_case``: the totally-real ``subalgebra`` (an orthonormal basis
  aligned with the coordinates, one column per complex dimension of the
  fiber, in the coordinates of the level's ideal) and
  ``conjugator_x_minus`` (in the fiber model's coordinates), taken below
  ``FIBER_RATIO``.  They witness for the fiber log, y[ideal]
  over the fiber's pairing basis (``solve(fiber_model.basis, y[ideal])``),
  which the walk sets once for the build and the check
  (``ReplayState.fiber_log``).  The check, ``ball.totally_real_residuals``,
  decides from the witness's structure and draws nothing: the conjugator
  must move the log onto the frame line, or be zero when the log has no
  frame coefficient, the subalgebra must be that line plus a totally real
  U in the half block, carried back by the conjugator, and |det [U | jU]|
  must exceed ``ball.TOTALLY_REAL_MIN``; then its orbits are totally real
  on all of D.

Conclusions are certificates of the cited structure theory applied to
verified hypotheses, never independent proofs: the assumption list names
everything cited without computation.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from . import jalgebra
from .ball import WITNESS_RESIDUAL, totally_real_residuals, totally_real_subalgebra
from .errors import ClusterAmbiguous, HdqError, InputError, MalformedCertificate
from .fibration import Tower
from .jalgebra import NormalJAlgebra
from .jordan import cyclic_discreteness, jordan_decompose
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
    random_interior_points,
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


# the element is in a level's fiber when its log y, in the level's adapted
# coordinates, has |y[~ideal]| / |y| below FIBER_RATIO; membership is
# undecided below FIBER_BAND
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
    return np.vstack([np.column_stack([mat, off]), np.eye(1, len(off) + 1, len(off))])


def phi_affine(phi_spec, J: NormalJAlgebra, M: SiegelModel):
    """(linear, translation) on packed coordinates of an ``exp:`` string
    over the labels of the input algebra J, or of a mapping with ``linear``
    and ``translation``; ``InputError`` when it does not parse or does not
    fit the domain.  The string's vector is in J's coordinates, and enters
    the model's through ``M.basis``."""
    if isinstance(phi_spec, str) and phi_spec.startswith("exp:"):
        g = element_from_vector(M, np.linalg.solve(M.basis, parse_combination(phi_spec[4:], J)))
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
        raise InputError(f"affine map must act on packed coordinates of length {dim}")
    if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(off))):
        raise InputError("affine map has non-finite entries")
    return mat, off


def resolve_phi(phi_spec, J: NormalJAlgebra, M: SiegelModel, seed: int):
    """(what the user supplied, the homogenized matrix of phi) on the input
    algebra J and its model M."""
    if isinstance(phi_spec, str) and phi_spec.startswith("affine:"):
        phi_spec = jalgebra.read_json(phi_spec[7:])
    mat, off = phi_affine(phi_spec, J, M)
    if isinstance(phi_spec, dict):
        # screen: the images of 20 interior points drawn from the seed must
        # stay inside, all tested by one stacked cone solve
        pts = random_interior_points(M, 20, np.random.default_rng(seed))
        img = DomainPoint.unpack(pts.pack() @ mat.T + off, M.p, M.q)
        if not np.all(contains(img, M, 1e-7)):
            raise InputError("affine map does not preserve the domain on a sample")
    return phi_spec, _homogenize(mat, off)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def analyze(domain_spec, phi_spec, seed: int = 42) -> dict:
    seed = int(seed)
    if seed < 0:  # numpy refuses it, and the affine: screen alone draws from it
        raise InputError(f"seed must be non-negative, got {seed}")
    if isinstance(domain_spec, NormalJAlgebra):
        J, domain_echo = domain_spec, jalgebra.j_algebra_to_dict(domain_spec)
    else:
        try:
            J, domain_echo = _preset(str(domain_spec)), str(domain_spec)
        except InputError:
            # a file, or neither: resolve_domain words the error
            J = jalgebra.resolve_domain(str(domain_spec))
            domain_echo = jalgebra.j_algebra_to_dict(J)
    invalid, M, tower = _prepared(J)
    if invalid:
        raise InputError(invalid)

    phi_echo, phi_matrix = resolve_phi(phi_spec, J, M, seed)
    cert = {
        "version": CERT_VERSION,
        "domain": domain_echo,
        "phi": phi_echo,
        "seed": seed,
        "steps": [],
        "assumptions": list(BASE_ASSUMPTIONS),
        "conclusion": None,
    }
    state = ReplayState(M, phi_matrix=phi_matrix, tower=tower)
    _walk(state, cert, _recorder(cert, state))
    return cert


# the last domain prepared: (labels, c, j, omega) of its algebra, then what
# _prepared returns for it
_SLOT = None
# the last named preset built: (name, its algebra)
_PRESET = None


def _preset(name: str) -> NormalJAlgebra:
    """``jalgebra.preset(name)``, built once for a run of calls with one
    name: the algebra's arrays are read-only, so the slot then matches it
    by identity.  One entry, so a large preset is held only while it is
    the last one named."""
    global _PRESET
    if _PRESET is None or _PRESET[0] != name:
        _PRESET = None  # never two presets at once
        _PRESET = (name, jalgebra.preset(name))
    return _PRESET[1]


def _prepared(J: NormalJAlgebra):
    """(why the domain fails validation or None, its model, its tower):
    the model and tower are None for an invalid domain.  Served from the
    slot when J has the bitwise content of the last domain prepared, so
    that a -0.0 for a 0.0 or a one-ulp change is a miss; otherwise the
    slot is emptied first, so that no two models are held at once.  The
    model's arrays are read-only, and the tower, which splits and measures
    its levels as they are read, is not for walks on two threads at once."""
    global _SLOT
    key = (J.L.basis_labels, J.L.c, J.j, J.omega)
    slot = _SLOT
    if slot is not None and _same_bits(slot[0], key):
        return slot[1]
    slot = _SLOT = None
    invalid = _validation_failure(J)
    M = None if invalid else build_model(J)
    prepared = (invalid, M, None if invalid else Tower(M))
    _SLOT = (key, prepared)
    return prepared


def _same_bits(a: tuple, b: tuple) -> bool:
    """Equal labels, and arrays equal bit for bit (labels fix their shapes)."""
    return a[0] == b[0] and all(
        x is y or np.array_equal(x.view(np.uint64), y.view(np.uint64)) for x, y in zip(a[1:], b[1:])
    )


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
    disc = take("discreteness", 0, lambda: vars(cyclic_discreteness(state.spectrum, state.phi_prime)))
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

    # descent down the fibration tower until the element lies in a fiber; its
    # log y is taken once, in the level-1 model's coordinates, where every
    # quotient map selects the columns off the level's ideal mask
    level, M = 1, state.model
    y = element_log(M, state.element.x_minus, state.element.x_zero)
    while M.J.dim:
        F = state.tower[level]
        total = float(np.linalg.norm(y))
        ratio = float(np.linalg.norm(y[~F.ideal])) / total if total > 0 else 0.0
        if ratio < FIBER_RATIO:
            d = F.fiber_model.dim_complex
            state.fiber_log = np.linalg.solve(F.fiber_model.basis, y[F.ideal])
            if take("fiber_case", level, lambda: _fiber_payload(F.fiber_model, state.fiber_log)) is None:
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
        y, M, level = y[~F.ideal], F.quotient_model, level + 1
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
    return {"elliptic": parts.elliptic}


def _orbit_payload(state: ReplayState) -> dict:
    """Exponential coordinates of phi' inside the split solvable group."""
    M, N = state.model, len(state.phi_prime) - 1
    mat, off = state.phi_prime[:N, :N], state.phi_prime[:N, N]
    try:
        x_minus, x_zero = solve_orbit(DomainPoint.unpack(mat @ M.base_point().pack() + off, M.p, M.q), M)
    except HdqError as exc:
        raise StepRejected(f"conjugation into the split solvable group unsupported: {exc}") from exc
    return {"x_minus": x_minus, "x_zero": x_zero}


def _fiber_payload(Mf: SiegelModel, x_b: np.ndarray) -> dict:
    V, x_minus = totally_real_subalgebra(x_b, Mf)
    V = Subspace(Mf.J.dim, Mf.basis @ V.orthonormal())  # into the ideal's coordinates
    return {"subalgebra": _aligned_basis(V), "conjugator_x_minus": x_minus}


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
# |F^T F - I| at most this bounds the powers of F without squaring (``_escape``)
ORTHOGONAL_TOL = 1e-12
# the certificate format analyze writes; a jordan_split's keys by format
CERT_VERSION = 2
JORDAN_KEYS = {1: {"elliptic", "hyperbolic", "unipotent"}, 2: {"elliptic"}}

# the assumption analyze adds when a step fails its check
FAILED = {
    "jordan_split": "the Jordan split of the affine matrix does not replay",
    "discreteness": "the discreteness of the cyclic group is not established",
    "elliptic_reduction": "removing the elliptic factor does not leave an affine map",
    "conjugation_into_S": "the element does not lie in the split solvable group as given; general conjugation is not implemented",
    "tower_descend": "the fibration at level {level} is not numerically equivariant",
    "fiber_case": "the totally-real witness at level {level} fails its check",
}


class StepRejected(Exception):
    """A check that cannot pass whatever the tolerance."""


@dataclass
class ReplayState:
    """What a check reads besides its payload: the level-1 model, phi (with
    the input ``algebra`` an ``exp:`` phi is written over) and the
    certificate's format ``version``, the fibration tower (split lazily,
    one level at a time; the model's own unless one is given), and what
    earlier steps established."""

    model: SiegelModel
    phi: object = None                    # the certificate's phi
    algebra: NormalJAlgebra | None = None  # the input algebra, whose labels phi uses
    phi_matrix: np.ndarray | None = None  # its homogenized matrix, derived on first use
    tower: Tower | None = None
    version: int = CERT_VERSION
    elliptic: np.ndarray | None = None   # the elliptic factor e of jordan_split
    spectrum: np.ndarray | None = None   # e's eigenvalues, set with it
    phi_prime: np.ndarray | None = None  # e^-1 times the homogenized phi, set by jordan_split
    element: GroupElement | None = None  # phi' in the split solvable group, set by conjugation_into_S
    fiber_log: np.ndarray | None = None  # the carried element's log in fiber coordinates, set by the walk

    def __post_init__(self):
        if self.tower is None:
            self.tower = Tower(self.model)

    def homogenized_phi(self) -> np.ndarray:
        if self.phi_matrix is None:
            try:
                self.phi_matrix = _homogenize(*phi_affine(self.phi, self.algebra, self.model))
            except InputError as exc:
                raise StepRejected(f"phi does not resolve on this domain: {exc}") from exc
        return self.phi_matrix


def _array(payload, key):
    return np.asarray(payload[key], dtype=float)


def _check_jordan(payload, state: ReplayState, level) -> float:
    """The residual of the elliptic factor e; φ′ = e⁻¹A, derived from the
    homogenized phi A, is set with e on the state.

    The multiplicative Jordan decomposition is unique (Borel, Linear
    Algebraic Groups, §4), so e is A's elliptic factor once e commutes
    with A, is semisimple with a unit-modulus spectrum, and φ′ lies in the
    split solvable group S: φ′'s hyperbolic and unipotent factors h and u,
    polynomials in φ′, then commute with e, and A = e h u.  This check
    measures the commutator, relative to max(1, |A|), and the spectrum;
    discreteness tests semisimplicity and, since within tolerances an
    elliptic φ′ can pass for one in S, that φ′ is not elliptic;
    ``conjugation_into_S`` places φ′ in S.  e = I passes with φ′ = A.
    Version 1 also stores h and u, whose product must equal φ′ too.
    """
    keys = JORDAN_KEYS[state.version]
    if set(payload) != keys:
        raise StepRejected(f"a version-{state.version} jordan_split stores {sorted(keys)}, not {sorted(payload)}")
    A = state.homogenized_phi()
    e, *hu = (_array(payload, k) for k in ("elliptic", "hyperbolic", "unipotent") if k in keys)
    if any(F.shape != A.shape for F in (e, *hu)):
        raise StepRejected(f"Jordan factors of shapes {', '.join(str(F.shape) for F in (e, *hu))}; phi gives {A.shape}")
    scale = max(1.0, float(np.linalg.norm(A)))
    if np.array_equal(e, np.eye(len(A))):
        phi_prime, spectrum, res = A, np.ones(len(A)), 0.0
    else:
        try:
            phi_prime, spectrum = np.linalg.solve(e, A), np.linalg.eigvals(e)
        except np.linalg.LinAlgError as exc:
            raise StepRejected(f"the elliptic factor is singular or not finite: {exc}") from exc
        res = max(float(np.linalg.norm(e @ A - A @ e)) / scale, float(np.max(np.abs(np.abs(spectrum) - 1.0))))
    if hu:
        res = max(res, float(np.linalg.norm(hu[0] @ hu[1] - phi_prime)) / scale)
    state.elliptic, state.spectrum, state.phi_prime = e, spectrum, phi_prime
    return res


def _check_discreteness(payload, state: ReplayState, level) -> float:
    """The kind and order re-decided from e and φ′, then held to what
    ``_check_jordan`` leaves untested, with tol the Jordan tolerance and A
    the homogenized phi:

    - a finite order q: |A^q - I| within tol times max(1, the largest norm
      among the powers ``_power`` forms), a bound that grows with q fast
      enough to pass a parabolic forgery of order 20.
    - ``indiscrete_closure`` and ``undecided``: φ′ is trivial, and A, which
      stands for e, must have bounded powers (``_escape``).
    - ``infinite_discrete``: φ′ must be farther from I (``_affine_distance``)
      than ``conjugation_into_S`` accepts, or the identity of S would match
      it whatever the group, and not elliptic: bounded powers and |log |det
      φ′|| at most tol put its spectrum on the unit circle (an elliptic
      P D P^-1 by 7e-5 with cond(P) 1e4 is 0.7 from I; a contraction has
      bounded powers).  e must be semisimple: bounded powers.
    """
    disc, tol = cyclic_discreteness(state.spectrum, state.phi_prime), STEP_TOL["jordan_split"]
    if (disc.kind, disc.order) != (payload["kind"], payload["order"]):
        raise StepRejected(f"discreteness replays as {disc.kind} (order {disc.order}), stored {payload['kind']} (order {payload['order']})")
    if disc.kind == "finite":
        power, largest = _power(state.homogenized_phi(), disc.order)
        defect = float(np.linalg.norm(power - np.eye(len(power))))
        if not (np.isfinite(largest) and defect <= tol * max(1.0, largest)):
            raise StepRejected(f"phi to the power {disc.order} is {defect:.2e} from the identity")
    elif disc.kind != "infinite_discrete":
        if (grown := _escape(state.homogenized_phi(), tol)) is not None:
            raise StepRejected(f"the powers of phi grow to {grown:.2e}: it is not elliptic")
    else:
        P, accepted = state.phi_prime[:-1], VERIFY_SLACK * STEP_TOL["conjugation_into_S"]
        if not (margin := _affine_distance(np.eye(*P.shape), P)) > accepted:
            raise StepRejected(f"phi' is {margin:.2e} from the identity, within the {accepted:.0e} conjugation_into_S accepts")
        if abs(np.linalg.slogdet(state.phi_prime)[1]) <= tol and _escape(state.phi_prime, tol) is None:
            raise StepRejected("the powers of phi' stay bounded: it is elliptic")
        if (grown := _escape(state.elliptic, tol)) is not None:
            raise StepRejected(f"the powers of the elliptic factor grow to {grown:.2e}: it is not semisimple")
    return 0.0


def _power(A: np.ndarray, q: int):
    """(A^q, the largest Frobenius norm among the powers of A that
    repeated squaring forms on the way), for q >= 1."""
    result, square, largest = None, A, float(np.linalg.norm(A))
    while True:
        if q & 1:
            result = square if result is None else result @ square
            largest = max(largest, float(np.linalg.norm(result)))
        q >>= 1
        if not q:
            return result, largest
        square = square @ square
        largest = max(largest, float(np.linalg.norm(square)))


def _escape(F: np.ndarray, tol: float):
    """The norm of the first F^(2^j), 2^j up to tol^(-3/2), past max(1, |F|)
    / sqrt(tol), or None.  A semisimple P D P^-1 with unit-modulus spectrum
    stays within sqrt(n) cond(P); a unipotent part N adds about 2^j N and
    escapes once |N| is about tol max(1, |F|).  |FᵀF - I| at most
    ``ORTHOGONAL_TOL`` bounds every power below 2 sqrt(n) unsquared."""
    if float(np.linalg.norm(F.T @ F - np.eye(len(F)))) <= ORTHOGONAL_TOL:
        return None
    bound = max(1.0, float(np.linalg.norm(F))) / math.sqrt(tol)
    for _ in range(math.ceil(-1.5 * math.log2(tol))):
        F = F @ F
        if not (norm := float(np.linalg.norm(F))) <= bound:
            return norm
    return None


def _check_reduction(payload, state: ReplayState, level) -> float:
    """How far φ′ is from affine: its last row against (0, ..., 0, 1)."""
    P = state.phi_prime
    return float(np.max(np.abs(P[-1] - np.eye(len(P))[-1])))


def _affine_distance(F: np.ndarray, target: np.ndarray) -> float:
    """The largest entry of F - target, affine maps as rows [linear |
    translation], each row relative to max(1, its largest entry in target):
    a scale taken from one block would hide a forged entry in a smaller one."""
    scale = np.maximum(1.0, np.max(np.abs(target), axis=1))
    return float(np.max(np.max(np.abs(F - target), axis=1) / scale, initial=0.0))


def _check_conjugation(payload, state: ReplayState, level) -> float:
    """The distance (``_affine_distance``) of the stored element from φ′."""
    g = state.element = group_element(state.model, _array(payload, "x_minus"), _array(payload, "x_zero"))
    return _affine_distance(np.column_stack([g.affine_matrix, g.affine_offset]), state.phi_prime[:-1])


def _check_tower(payload, state: ReplayState, level) -> float:
    if payload["dim_quotient_algebra"] != state.tower[level].quotient_model.J.dim:
        raise StepRejected("quotient algebra dimension does not match the recomputed tower")
    return state.tower.residual(level)


def _check_fiber(payload, state: ReplayState, level) -> float:
    Mf = state.tower[level].fiber_model
    try:
        V = Subspace(Mf.J.dim, np.linalg.solve(Mf.basis, _array(payload, "subalgebra")))
        return totally_real_residuals(state.fiber_log, V, _array(payload, "conjugator_x_minus"), Mf)[0]
    except HdqError as exc:
        raise StepRejected(str(exc)) from exc


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
    step cannot pass whatever the tolerance.  A check runs with numpy's
    overflow warnings off: an overflow leaves an inf or nan, which fails.

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
        with np.errstate(over="ignore", invalid="ignore"):
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
        version = cert["version"]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedCertificate(f"certificate missing field: {exc}") from exc
    if type(version) is not int or version not in JORDAN_KEYS:
        raise MalformedCertificate(f"certificate version {version!r}; this reader knows {sorted(JORDAN_KEYS)}")

    if isinstance(domain, dict):
        J = jalgebra.j_algebra_from_dict(domain)
    elif isinstance(domain, str):
        J = _preset(domain)
    else:
        raise MalformedCertificate(f"domain must be a preset name or a mapping, not {type(domain).__name__}")
    invalid, M, tower = _prepared(J)
    if invalid:
        return False, [{"index": -1, "kind": "domain", "ok": False, "detail": invalid}]
    state = ReplayState(M, cert.get("phi"), J, tower=tower, version=version)
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
    """The certificate's text: compact JSON with sorted keys, each ndarray
    as its nested lists, on one line and then one newline.  ``python -m
    json.tool`` pretty-prints it; ``load_certificate`` also reads the
    indented certificates of earlier versions."""
    return json.dumps(cert, sort_keys=True, separators=(",", ":"), default=lambda a: a.tolist()) + "\n"


def load_certificate(path) -> dict:
    data = jalgebra.read_json(path)
    if not isinstance(data, dict) or "steps" not in data or "conclusion" not in data:
        raise MalformedCertificate("not a certificate file")
    return data
