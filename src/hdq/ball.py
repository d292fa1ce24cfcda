"""Unit-ball specifics: canonical presets, closed-form flows, totally-real
subalgebra construction.

The constructive lemmas are implemented for any rank-one model, not just
the canonical basis: the fibration tower produces ball-like ideals in
whatever coordinates the root spaces came in, and the same two-step
conjugation and symplectic-pair constructions apply there verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HeisenbergCheckFailed,
    InputError,
    NotInNilradical,
    TotallyRealCheckFailed,
    ZeroSemisimplePart,
)
from .jalgebra import NormalJAlgebra, ball_jalgebra
from .lie_core import Subspace, ad_matrix, closure_residual, residual_outside, span
from .siegel import (
    DomainPoint,
    GroupElement,
    SiegelModel,
    _expm,
    build_model,
    group_element,
    identity,
    vector_field,
)

DEFECT_MIN = 1e-6
# bound on the residual of totally_real_residuals for an accepted witness
WITNESS_RESIDUAL = 1e-9


@dataclass(frozen=True, eq=False)
class BallAlgebra:
    n: int
    J: NormalJAlgebra
    model: SiegelModel


def ball_algebra(n: int) -> BallAlgebra:
    J = ball_jalgebra(n)
    return BallAlgebra(n, J, build_model(J))


# ---------------------------------------------------------------------------
# closed-form one-parameter flows
# ---------------------------------------------------------------------------

def table1_flow(generator: str, t: float, point: DomainPoint, B: BallAlgebra) -> DomainPoint:
    """Closed-form flow of a canonical generator on the half-plane model."""
    M = B.model
    z = complex(point.z[0])
    wc = M.to_complex_w(point.w)
    if generator == "zeta":
        z = z + t
    elif generator == "delta":
        z = np.exp(t) * z
        wc = np.exp(t / 2.0) * wc
    elif generator.startswith("xi"):
        k = _flow_index(generator, B.n)
        z = z + 2j * t * wc[k] + 1j * t * t
        wc = wc.copy()
        wc[k] = wc[k] + t
    elif generator.startswith("eta"):
        k = _flow_index(generator, B.n)
        z = z + 2.0 * t * wc[k] + 1j * t * t
        wc = wc.copy()
        wc[k] = wc[k] + 1j * t
    else:
        raise InputError(f"unknown generator {generator!r}")
    return DomainPoint(np.array([z]), M.from_complex_w(wc))


def _flow_index(generator: str, n: int) -> int:
    k = int(generator.lstrip("xieta").lstrip(":"))
    if not 1 <= k <= n - 1:
        raise InputError(f"generator index {k} out of range for n={n}")
    return k - 1


# ---------------------------------------------------------------------------
# totally-real determinant
# ---------------------------------------------------------------------------

def totally_real_defect(point: DomainPoint, V: Subspace, M: SiegelModel):
    """Determinant of the basis vector fields of V evaluated at the point.

    The orbit direction of the corresponding subgroup is totally real at the
    point exactly when the determinant does not vanish.  A single point
    gives a ``complex``; a stack of points gives one determinant per point,
    all fields at all points evaluated as one (..., d, d) stack.
    """
    if V.dim != M.dim_complex:
        raise DimensionMismatch(
            f"subspace of dim {V.dim} in a domain of complex dimension {M.dim_complex}"
        )
    at = DomainPoint(point.z[..., None, :], point.w[..., None, :])
    # row s is the field of basis column s; det of the transpose is the same
    det = np.linalg.det(vector_field(V.basis_matrix.T, at, M))
    return complex(det) if det.ndim == 0 else det


def sample_totally_real_points(M: SiegelModel, count: int, rng) -> DomainPoint:
    """Guaranteed-interior sample: im(z) = Phi(w, w) + xi0, w in the unit ball.

    Returns one stacked ``DomainPoint`` of ``count`` points.  Point k takes
    row k of a single ``rng.random((count, q + p))`` draw, w uniform in
    [-1, 1]^q (rescaled into the unit ball) and re(z) uniform in [-2, 2]^p:
    the numbers successive per-point ``uniform`` draws would give.
    """
    if count < 1:
        raise InputError(f"the determinant criterion needs at least one sample point, got {count}")
    u = rng.random((count, M.q + M.p))
    w = -1.0 + 2.0 * u[:, : M.q]
    # |w| per row as a dot product, rounded as the norm of each row alone
    nw = np.sqrt(w[:, None, :] @ w[:, :, None])[:, 0]
    w = np.where(nw > 1.0, w / nw, w)
    quad = np.einsum("...i,...j,ijk->...k", w, w, M.phi_re)
    z = (-2.0 + 4.0 * u[:, M.q :]) + 1j * (quad + M.xi0_coords)
    return DomainPoint(z, w)


# ---------------------------------------------------------------------------
# rank-one constructions
# ---------------------------------------------------------------------------

def require_ball_like(M: SiegelModel):
    """Raise ``HeisenbergCheckFailed`` unless M is the model of a ball:
    rank one, (-1)- and 0-blocks of dimension one, and a half block whose
    bracket pairs nondegenerately onto the (-1)-coordinate.  Then the
    nilradical is a Heisenberg algebra whose center is the full-root line.
    """
    if M.rank != 1 or M.p != 1 or M.p0 != 1:
        raise HeisenbergCheckFailed(
            f"rank {M.rank} with (-1)- and 0-blocks of dimension {M.p} and {M.p0}, expected 1, 1 and 1"
        )
    det = abs(float(np.linalg.det(M.hb[:, :, 0])))
    if det < 1e-10:
        raise HeisenbergCheckFailed(f"symplectic pairing is degenerate (|det| {det:.2e})")


def _symplectic_pairs(M: SiegelModel):
    """Pair basis (e_k, f_k) of the half block for the bracket pairing.

    Built greedily from the adapted basis, reducing the remainder so that
    distinct pairs pair to zero; on the canonical presets this reproduces
    the (xi_k, eta_k) pairs.
    """
    q = M.q
    P = M.hb[:, :, 0]  # pairing onto the single (-1)-coordinate
    avail = [np.eye(q)[i] for i in range(q)]
    pairs = []
    while avail:
        e = avail.pop(0)
        if np.linalg.norm(e) < 1e-10:
            continue
        vals = [abs(float(e @ P @ f)) for f in avail]
        if not vals or max(vals) < 1e-10:
            raise TotallyRealCheckFailed("symplectic pairing is degenerate")
        jbest = int(np.argmax(vals))
        f = avail.pop(jbest)
        s = float(e @ P @ f)
        reduced = []
        for u in avail:
            u = u - (float(e @ P @ u) / s) * f + (float(f @ P @ u) / s) * e
            reduced.append(u)
        avail = reduced
        pairs.append((e, f, s))
    return pairs


def abelian_subalgebra_containing(x, M: SiegelModel) -> Subspace:
    """Abelian subalgebra of the nilradical through x, of full complex dim.

    Splits x over the symplectic pairs of the half block and keeps one
    direction per pair (the pair component when present, the first pair
    vector otherwise) together with the center line.
    """
    require_ball_like(M)
    x = np.asarray(x, dtype=float)
    coords = M.to_adapted(x)
    if abs(coords[-1]) > 1e-9 * max(1.0, float(np.linalg.norm(x))):
        raise NotInNilradical("vector has a semisimple component")
    xh = coords[M.p : M.p + M.q]
    cols = [M.C[:, 0]]  # the center line of the nilradical
    P = M.hb[:, :, 0] if M.q else np.zeros((0, 0))
    for e, f, s in _symplectic_pairs(M):
        comp = (float(e @ P @ xh) / s) * f - (float(f @ P @ xh) / s) * e
        chosen = comp if np.linalg.norm(comp) > 1e-10 * max(1.0, np.linalg.norm(xh)) else e
        cols.append(M.C[:, M.p : M.p + M.q] @ chosen)
    return span(cols, M.J.dim)


def conjugate_into_a(x, M: SiegelModel) -> GroupElement:
    """Group element whose adjoint moves x into the abelian frame line.

    Two exact conjugations: one along the half component (its bracket with
    the frame rescales it), then one along the center line.  Both are
    nilpotent directions and the center line commutes with the half block,
    so their product is exp of the sum, closed-form in the semisimple
    coefficient.
    """
    require_ball_like(M)
    x = np.asarray(x, dtype=float)
    coords = M.to_adapted(x)
    a = float(coords[-1])
    if abs(a) <= 1e-10 * max(1.0, float(np.linalg.norm(x))):
        raise ZeroSemisimplePart("the frame coefficient vanishes")
    b = float(coords[0])
    u = coords[M.p : M.p + M.q]

    return group_element(M, np.concatenate([[b / a], (2.0 / a) * u]), np.zeros(1))


def nilpotent_residual(x, x_minus, M: SiegelModel) -> float:
    """Relative size of the non-frame part of Ad(exp x_minus) x, from one
    exponential of -ad(x_minus)."""
    x = np.asarray(x, dtype=float)
    v = M.C[:, : M.p + M.q] @ np.asarray(x_minus, dtype=float)
    coords = M.to_adapted(_expm(-ad_matrix(v, M.J.L)) @ x)
    return float(np.linalg.norm(coords[: M.p + M.q])) / max(1.0, float(np.linalg.norm(x)))


def abelian_branch(x, M: SiegelModel) -> bool:
    """Whether x has no frame coefficient, relative to max(1, |x|), so that
    :func:`totally_real_subalgebra` takes the abelian construction."""
    x = np.asarray(x, dtype=float)
    return abs(float(M.to_adapted(x)[-1])) <= 1e-10 * max(1.0, float(np.linalg.norm(x)))


def totally_real_subalgebra(x, M: SiegelModel):
    """Full-dimension subalgebra V through x meant to have totally real
    orbits, with the conjugator g of the construction.

    With a nonzero frame coefficient the vector is conjugated onto the
    frame line and the split subalgebra (frame + one Lagrangian half of
    each symplectic pair) is pulled back; otherwise the abelian
    construction applies and g is the identity.  Nothing is checked here:
    :func:`totally_real_residuals` measures V and g.
    """
    require_ball_like(M)
    if abelian_branch(x, M):
        return abelian_subalgebra_containing(x, M), identity(M)
    g = conjugate_into_a(x, M)
    # the conjugator has no 0-part, so Ad(g)^{-1} = expm(ad v) on its minus part v
    adj_inv = _expm(ad_matrix(M.C[:, : M.p + M.q] @ g.x_minus, M.J.L))
    cols = [adj_inv @ M.C[:, -1]]  # the frame line eta_1
    for e, _, _ in _symplectic_pairs(M):
        cols.append(adj_inv @ (M.C[:, M.p : M.p + M.q] @ e))
    return span(cols, M.J.dim), g


def totally_real_residuals(x, V: Subspace, conjugator, M: SiegelModel, points: DomainPoint):
    """(residual, min |det|) of V, with the x_minus ``conjugator`` of its
    construction, as a totally-real witness through x: the one acceptance
    rule, a residual within ``WITNESS_RESIDUAL`` and min |det| above
    ``DEFECT_MIN``.

    The residual is the largest of the distance of x from V, relative to
    max(1, |x|), the closure residual of V and, when x has a frame
    coefficient, the ``nilpotent_residual`` of the conjugator; an x
    without one takes no conjugator.  min |det| is the smallest
    determinant modulus of the fields of V over the stacked ``points``.
    """
    if V.dim != M.dim_complex:
        raise TotallyRealCheckFailed(
            f"totally-real subalgebra has dimension {V.dim}, not the complex dimension {M.dim_complex}"
        )
    x = np.asarray(x, dtype=float)
    conjugator = np.asarray(conjugator, dtype=float)
    if conjugator.shape != (M.p + M.q,):
        raise TotallyRealCheckFailed(f"conjugator of shape {conjugator.shape}, need {(M.p + M.q,)}")
    res = max(
        residual_outside(x, V) / max(1.0, float(np.linalg.norm(x))),
        closure_residual(V, M.J.L),
    )
    if abelian_branch(x, M):
        if np.any(conjugator):
            raise TotallyRealCheckFailed("an element with no frame coefficient takes no conjugator")
    else:
        res = max(res, nilpotent_residual(x, conjugator, M))
    return res, float(np.min(np.abs(totally_real_defect(points, V, M))))


def totally_real_subalgebra_containing(
    x,
    M: SiegelModel,
    rng=None,
    samples: int = 50,
):
    """:func:`totally_real_subalgebra`, checked by
    :func:`totally_real_residuals` at ``samples`` interior points drawn
    from ``rng``."""
    V, g = totally_real_subalgebra(x, M)
    pts = sample_totally_real_points(M, samples, rng if rng is not None else np.random.default_rng(0))
    res, min_det = totally_real_residuals(x, V, g.x_minus, M, pts)
    if not res <= WITNESS_RESIDUAL:
        raise TotallyRealCheckFailed(
            f"subalgebra misses the input vector, is not closed or is badly conjugated (residual {res:.2e})"
        )
    if not min_det > DEFECT_MIN:
        raise TotallyRealCheckFailed("determinant criterion failed at a sample point")
    return V, g


# ---------------------------------------------------------------------------
# bounded realization (utility)
# ---------------------------------------------------------------------------

def siegel_to_ball(z: complex, w: np.ndarray) -> np.ndarray:
    """Cayley transform of the half-plane model onto the bounded ball."""
    w = np.asarray(w, dtype=complex)
    denom = z + 1j
    return np.concatenate([[(z - 1j) / denom], 2.0 * w / denom])


def ball_to_siegel(zeta: np.ndarray):
    zeta = np.asarray(zeta, dtype=complex)
    z = 1j * (1 + zeta[0]) / (1 - zeta[0])
    w = 1j * zeta[1:] / (1 - zeta[0])
    return z, w
