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
from scipy.linalg import expm

from .errors import (
    DimensionMismatch,
    InputError,
    NotInNilradical,
    SolverDiverged,
    TotallyRealCheckFailed,
    ZeroSemisimplePart,
)
from .jalgebra import NormalJAlgebra, ball_jalgebra
from .lie_core import (
    AffineRep,
    Subspace,
    ad_matrix,
    closure_residual,
    opposite,
    residual_outside,
    span,
)
from .siegel import (
    DomainPoint,
    GroupElement,
    SiegelModel,
    build_model,
    compose,
    group_element,
    identity,
    vector_field,
)

DEFECT_MIN = 1e-6
NILPOTENT_RESIDUAL = 1e-8


@dataclass(frozen=True, eq=False)
class BallAlgebra:
    n: int
    J: NormalJAlgebra
    model: SiegelModel
    rep: AffineRep


def ball_rep(n: int) -> AffineRep:
    """Flow matrices on homogenized real coordinates (re z, im z, re w, im w, 1).

    These are one-parameter-flow generators, so they represent the algebra
    with the opposite bracket.
    """
    J = ball_jalgebra(n)
    L = J.L
    N = 2 * n + 1
    mats = np.zeros((L.dim, N, N))
    d = mats[L.index("delta")]
    d[0, 0] = d[1, 1] = 1.0
    for k in range(1, n):
        d[2 * k, 2 * k] = d[2 * k + 1, 2 * k + 1] = 0.5
    mats[L.index("zeta")][0, N - 1] = 1.0
    for k in range(1, n):
        xi = mats[L.index(f"xi{k}")]
        xi[0, 2 * k + 1] = -2.0
        xi[1, 2 * k] = 2.0
        xi[2 * k, N - 1] = 1.0
        eta = mats[L.index(f"eta{k}")]
        eta[0, 2 * k] = 2.0
        eta[1, 2 * k + 1] = 2.0
        eta[2 * k + 1, N - 1] = 1.0
    return AffineRep(opposite(L), N, mats)


def ball_algebra(n: int) -> BallAlgebra:
    J = ball_jalgebra(n)
    return BallAlgebra(n, J, build_model(J), ball_rep(n))


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

def _require_rank_one(M: SiegelModel):
    if M.rank != 1 or M.p != 1 or M.p0 != 1:
        raise InputError("construction requires a rank-one model")


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
    _require_rank_one(M)
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


def conjugate_into_a(x, M: SiegelModel, tol: float = 1e-10) -> GroupElement:
    """Group element whose adjoint moves x into the abelian frame line.

    Two exact conjugations: one along the half component (its bracket with
    the frame rescales it), then one along the center line; both are
    nilpotent directions, so the coordinates are closed-form in the
    semisimple coefficient.
    """
    _require_rank_one(M)
    x = np.asarray(x, dtype=float)
    coords = M.to_adapted(x)
    a = float(coords[-1])
    if abs(a) <= tol * max(1.0, float(np.linalg.norm(x))):
        raise ZeroSemisimplePart("the frame coefficient vanishes")
    b = float(coords[0])
    u = coords[M.p : M.p + M.q]

    g_half = group_element(
        M, np.concatenate([[0.0], (2.0 / a) * u]), np.zeros(1)
    )
    g_center = group_element(
        M, np.concatenate([[b / a], np.zeros(M.q)]), np.zeros(1)
    )
    g = compose(g_center, g_half, M)
    res = nilpotent_residual(x, g, M)
    if res > NILPOTENT_RESIDUAL and abs(a) > 1e-3 * max(1.0, float(np.linalg.norm(x))):
        raise SolverDiverged(
            f"conjugation residual {res:.2e} exceeds {NILPOTENT_RESIDUAL:.0e}"
        )
    return g


def group_adjoint(g: GroupElement, M: SiegelModel) -> np.ndarray:
    """Adjoint matrix of exp(x_minus) exp(x_zero) on the ambient algebra."""
    n = M.J.dim
    v_minus = M.C[:, : M.p + M.q] @ g.x_minus
    v_zero = M.C[:, M.p + M.q :] @ g.x_zero
    A = expm(-ad_matrix(v_minus, M.J.L)) if n else np.zeros((0, 0))
    B = expm(-ad_matrix(v_zero, M.J.L)) if n else np.zeros((0, 0))
    return A @ B


def nilpotent_residual(x, g: GroupElement, M: SiegelModel) -> float:
    """Relative size of the non-frame part of Ad(g) x."""
    y = group_adjoint(g, M) @ np.asarray(x, dtype=float)
    coords = M.to_adapted(y)
    return float(np.linalg.norm(coords[: M.p + M.q])) / max(
        1.0, float(np.linalg.norm(x))
    )


def totally_real_subalgebra_containing(
    x,
    M: SiegelModel,
    rng=None,
    samples: int = 50,
):
    """Full-dimension subalgebra through x whose orbits are totally real.

    With a nonzero frame coefficient the vector is conjugated onto the
    frame line and the split subalgebra (frame + one Lagrangian half of
    each symplectic pair) is pulled back; otherwise the abelian
    construction applies.  The determinant criterion is verified at
    sampled interior points.
    """
    _require_rank_one(M)
    x = np.asarray(x, dtype=float)
    coords = M.to_adapted(x)
    a = float(coords[-1])
    if abs(a) > 1e-10 * max(1.0, float(np.linalg.norm(x))):
        g = conjugate_into_a(x, M)
        adj_inv = np.linalg.inv(group_adjoint(g, M))
        cols = [adj_inv @ M.C[:, -1]]  # the frame line eta_1
        for e, _, _ in _symplectic_pairs(M):
            cols.append(adj_inv @ (M.C[:, M.p : M.p + M.q] @ e))
        V = span(cols, M.J.dim)
    else:
        g = identity(M)
        V = abelian_subalgebra_containing(x, M)

    _verify_totally_real(x, V, M, rng, samples)
    return V, g


def _verify_totally_real(x, V: Subspace, M: SiegelModel, rng, samples):
    nx = max(1.0, float(np.linalg.norm(x)))
    if residual_outside(x, V) > 1e-9 * nx:
        raise TotallyRealCheckFailed("constructed subalgebra misses the input vector")
    if V.dim != M.dim_complex:
        raise TotallyRealCheckFailed(
            f"subalgebra dimension {V.dim} != complex dimension {M.dim_complex}"
        )
    if closure_residual(V, M.J.L) > 1e-9:
        raise TotallyRealCheckFailed("subalgebra is not closed under the bracket")
    if rng is None:
        rng = np.random.default_rng(0)
    pts = sample_totally_real_points(M, samples, rng)
    if np.any(np.abs(totally_real_defect(pts, V, M)) <= DEFECT_MIN):
        raise TotallyRealCheckFailed("determinant criterion failed at a sample point")


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
