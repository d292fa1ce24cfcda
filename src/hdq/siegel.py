"""Siegel realization of a normal j-algebra and its affine group action.

The model keeps coordinates adapted to the grading: the (-1)-block basis
starts with the frame vectors xi_1..xi_r (so the cone sits over the
all-ones direction), the 0-block starts with eta_1..eta_r, and the
(-1/2)-block is organized in complex pairs (u, j u) per half-root space.
``build_model`` reads these columns off the fine structure of an input;
``assemble_model`` derives the rest of the model from them, and the
fibration tower calls it on columns its children inherit.

Group elements are stored in exponential coordinates (x_minus, x_zero) for
exp(x_minus) exp(x_zero); the cached affine map on (z, w)-space is the
displayed action

    (exp(xi + xi'), s) . (z, w)
        = (Ad(s) z + xi + 2i Phi(Ad(s) w, xi') + i Phi(xi', xi'),
           Ad(s) w + xi'),

with the group-level adjoint realized as expm(-ad(x_zero)): one-parameter
flows compose with the opposite bracket, and this choice is what makes the
formula reproduce the closed-form flows of the half-plane generators.

One bridge joins layered coordinates and the algebra, the delta
read-off: ad(delta) grades the algebra into degrees -1, -1/2 and 0, so
exp(x_zero) fixes delta, and for v in s_{-1} + s_{-1/2} the series
expm(-ad v) delta = delta - v_{-1} - v_{-1/2}/2 stops after its linear
term.  ``element_from_vector`` reads x_minus linearly off K delta with
K = expm(-ad x); ``element_log`` inverts that read-off with one linear
solve per graded block, and no matrix logarithm is taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    DimensionMismatch,
    InputError,
    NotInDomain,
    PositivityUnfixable,
    SolverDiverged,
)
from .jalgebra import NormalJAlgebra, fine_structure
from .lie_core import Subspace, ad_matrix, bracket_table

CONE_TOL = 1e-9
CONE_MAX_ITER = 100
ORBIT_TOL = 1e-7


def _expm(A):
    return A.copy() if A.size == 0 else expm(A)


# Pade-13 numerator coefficients, divided by the constant one so that the
# zero matrix maps to the identity exactly, and the 1-norm up to which the
# degree-13 approximant is accurate to double precision without scaling
# (Higham, "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26, 2005, Table 2.3)
_PADE13 = tuple(
    b / 64764752532480000.0
    for b in (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0,
    )
)
_THETA13 = 5.371920351148152


def _expm_stack(A):
    """exp of each (k, k) slice of a (..., k, k) stack, in one pass; a
    single (k, k) matrix goes through as a stack of one.

    Each slice is scaled by its own power of two, so its result does not
    depend on the rest of the stack; the Pade-13 approximant is evaluated
    with batched products and one batched solve, and a slice is squared
    back only as often as it was scaled.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return A.copy()
    stack, k = A.shape[:-2], A.shape[-1]
    A = A.reshape((-1, k, k))
    # s = ceil(log2(|A|_1 / theta)), at least 0; frexp gives 0 for 0, inf, nan
    m, e = np.frexp(np.abs(A).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(e - (m == 0.5), 0)
    A = np.ldexp(A, -s[:, None, None])
    b = _PADE13
    eye = np.eye(k)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + eye
    E = np.linalg.solve(V - U, V + U)
    for step in range(int(s.max())):
        todo = s > step
        E[todo] = E[todo] @ E[todo]
    return E.reshape(stack + (k, k))


def _aligned_basis(V: Subspace) -> np.ndarray:
    """Deterministic orthonormal basis of V aligned with ambient coordinates."""
    n, d = V.ambient_dim, V.dim
    if d == 0:
        return np.zeros((n, 0))
    q = V.orthonormal()
    cols = []
    for i in range(n):
        v = q @ (q.T @ np.eye(n)[i])
        for c in cols:
            v = v - c * (c @ v)
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            cols.append(v / nv)
        if len(cols) == d:
            break
    if len(cols) != d:
        raise DimensionMismatch("could not align a basis with the coordinates")
    return np.column_stack(cols)


def _complex_pairs(space_basis: np.ndarray, j: np.ndarray):
    """Split a j-invariant space into columns U with the space = [U | jU]."""
    n, d = space_basis.shape
    if d % 2:
        raise DimensionMismatch("j-invariant space has odd dimension")
    m = d // 2
    us = []
    taken = np.zeros((n, 0))
    for i in range(d):
        v = space_basis[:, i]
        # remove components on span(us, j us)
        if taken.shape[1]:
            q, _ = np.linalg.qr(taken)
            v = v - q @ (q.T @ v)
        nv = np.linalg.norm(v)
        if nv < 1e-8:
            continue
        v = v / nv
        us.append(v)
        taken = np.column_stack([taken, v, j @ v])
        if len(us) == m:
            break
    if len(us) != m:
        raise DimensionMismatch("could not pair the half-space basis under j")
    U = np.column_stack(us) if us else np.zeros((n, 0))
    return np.hstack([U, j @ U]), m


@dataclass(frozen=True, eq=False)
class SiegelModel:
    J: NormalJAlgebra
    rank: int              # number of frame vectors xi_k (and eta_k)
    sigma: int
    C: np.ndarray          # adapted basis, columns [C1 | Ch | C0]
    Cinv: np.ndarray
    p: int                 # dim s_{-1}
    q: int                 # dim s_{-1/2}
    p0: int                # dim s_0
    half_pairs: tuple      # (offset, m_k) per half-root space, in Ch coords
    frame_indices: tuple   # per column of C, the frame indices its root involves
    phi_re: np.ndarray     # (q, q, p)
    phi_im: np.ndarray
    hb: np.ndarray         # bracket of half-block pairs onto s_{-1} coords
    jhalf: np.ndarray      # j restricted to the half block, adapted coords
    ad1_gens: np.ndarray   # (p0, p, p): ad of the 0-basis on the (-1)-block
    adh_gens: np.ndarray   # (p0, q, q)

    @property
    def dim_complex(self) -> int:
        return self.p + self.q // 2

    @property
    def xi0_coords(self) -> np.ndarray:
        v = np.zeros(self.p)
        v[: self.rank] = 1.0
        return v

    @property
    def delta0_coords(self) -> np.ndarray:
        v = np.zeros(self.p0)
        v[: self.rank] = 1.0
        return v

    def base_point(self) -> "DomainPoint":
        return DomainPoint(1j * self.xi0_coords.astype(complex), np.zeros(self.q))

    # -- coordinate plumbing -------------------------------------------

    def to_adapted(self, v_ambient: np.ndarray) -> np.ndarray:
        return self.Cinv @ np.asarray(v_ambient, dtype=float)

    def split_coords(self, v_ambient: np.ndarray):
        """Adapted (s_{-1}, s_{-1/2}, s_0) coordinates over leading stack axes."""
        c = np.asarray(v_ambient, dtype=float) @ self.Cinv.T
        return c[..., : self.p], c[..., self.p : self.p + self.q], c[..., self.p + self.q :]

    def phi(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hermitian form on half-block coordinates, complex (..., p) over
        a common leading stack shape of ``u`` and ``v``."""
        re = np.einsum("...i,...j,ijk->...k", u, v, self.phi_re)
        im = np.einsum("...i,...j,ijk->...k", u, v, self.phi_im)
        return re + 1j * im

    def to_complex_w(self, w: np.ndarray) -> np.ndarray:
        """Complex half-block coordinates of real ones, over leading stack axes."""
        w = np.asarray(w)
        out = [w[..., off : off + m] + 1j * w[..., off + m : off + 2 * m] for off, m in self.half_pairs]
        return np.concatenate(out, axis=-1) if out else np.zeros(w.shape[:-1] + (0,), dtype=complex)

    def from_complex_w(self, wc: np.ndarray) -> np.ndarray:
        w = np.zeros(self.q)
        at = 0
        for off, m in self.half_pairs:
            w[off : off + m] = wc[at : at + m].real
            w[off + m : off + 2 * m] = wc[at : at + m].imag
            at += m
        return w


@dataclass(frozen=True)
class DomainPoint:
    """A point, or a stack of points along leading axes of ``z`` and ``w``."""

    z: np.ndarray  # complex, over the adapted s_{-1} basis
    w: np.ndarray  # real, over the adapted s_{-1/2} basis

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))

    def __iter__(self):
        """The points of a stack, one ``DomainPoint`` each along the first axis."""
        return (DomainPoint(z, w) for z, w in zip(self.z, self.w))

    def pack(self) -> np.ndarray:
        return np.concatenate([self.z.real, self.z.imag, self.w], axis=-1)

    @staticmethod
    def unpack(v: np.ndarray, p: int, q: int) -> "DomainPoint":
        return DomainPoint(v[..., :p] + 1j * v[..., p : 2 * p], v[..., 2 * p :])

    def distance(self, other: "DomainPoint") -> float:
        return float(
            np.linalg.norm(self.z - other.z) + np.linalg.norm(self.w - other.w)
        )


@dataclass(frozen=True)
class GroupElement:
    """exp(x_minus) exp(x_zero) with its affine map on packed (z, w); every
    field may carry the same leading stack axes."""

    x_minus: np.ndarray
    x_zero: np.ndarray
    affine_matrix: np.ndarray
    affine_offset: np.ndarray


def build_model(J: NormalJAlgebra) -> SiegelModel:
    """The Siegel model of J on graded columns read off its fine structure."""
    fine = fine_structure(J)
    r = fine.rank

    # (-1)-block: the xi frame, then aligned sum-root bases; (-1/2)-block:
    # complex pairs per half-root space; 0-block: the eta frame, then
    # aligned difference-root bases.  Each column's root involves the frame
    # indices label[1:], and xi_k and eta_k involve k.
    frame = [(k,) for k in range(r)]
    c1_cols, ch_cols, c0_cols = list(fine.xi), [], list(fine.eta)
    c1_idx, ch_idx, c0_idx = list(frame), [], list(frame)
    half_pairs, off = [], 0
    for rt in fine.roots:
        kind, idx = rt.label[0], rt.label[1:]
        if kind == "half":
            paired, m = _complex_pairs(_aligned_basis(rt.space), J.j)
            ch_cols.extend(paired.T)
            ch_idx += [idx] * (2 * m)
            half_pairs.append((off, m))
            off += 2 * m
        elif kind in ("sum", "diff"):
            cols, idxs = (c1_cols, c1_idx) if kind == "sum" else (c0_cols, c0_idx)
            cols.extend(_aligned_basis(rt.space).T)
            idxs += [idx] * rt.space.dim

    C = np.column_stack(c1_cols + ch_cols + c0_cols) if J.dim else np.zeros((0, 0))
    layout = (len(c1_cols), len(ch_cols), tuple(half_pairs), tuple(c1_idx + ch_idx + c0_idx))
    return assemble_model(J, C, r, layout)


def assemble_model(J: NormalJAlgebra, C: np.ndarray, rank: int, layout: tuple) -> SiegelModel:
    """The Siegel model of J on the adapted basis C (columns over J's
    basis), laid out as ``layout`` = (p, q, half_pairs, frame_indices)
    says: the (-1)-, half and 0-blocks, the outer two led by the ``rank``
    frame vectors xi_k and eta_k.  Fixes the orientation sign of the form
    and gates its Hermitian defect."""
    n = J.dim
    p, q, half_pairs, frame_indices = layout
    if C.shape != (n, n):
        raise DimensionMismatch("adapted basis does not fill the algebra")
    Cinv = np.linalg.inv(C) if n else np.zeros((0, 0))
    p0 = n - p - q

    Ch = C[:, p : p + q]
    # bracket tensors of the half block, in s_{-1} coordinates
    hb = bracket_table(Ch, Ch, J.L) @ Cinv[:p].T
    jhb = bracket_table(J.j @ Ch, Ch, J.L) @ Cinv[:p].T

    # orientation: the diagonal of the form on each half-block column sits on
    # its frame coordinate; one global sign must make it positive
    stacked = np.array([d[np.argmax(np.abs(d))] for d in 0.25 * np.diagonal(jhb).T])
    if np.all(stacked > 1e-12):  # also with no half block
        sigma = 1
    elif np.all(stacked < -1e-12):
        sigma = -1
    else:
        raise PositivityUnfixable("no global sign makes the Hermitian form cone-positive")
    phi_re = sigma * 0.25 * jhb
    phi_im = sigma * 0.25 * hb

    jhalf = (Cinv @ (J.j @ Ch))[p : p + q] if q else np.zeros((0, 0))

    # ad generators of the 0-block on the graded pieces
    ad0 = Cinv @ ad_matrix(C[:, p + q :].T, J.L) @ C
    ad1 = ad0[:, :p, :p]
    adh = ad0[:, p : p + q, p : p + q]

    model = SiegelModel(
        J=J,
        rank=rank,
        sigma=sigma,
        C=C,
        Cinv=Cinv,
        p=p,
        q=q,
        p0=p0,
        half_pairs=half_pairs,
        frame_indices=frame_indices,
        phi_re=phi_re,
        phi_im=phi_im,
        hb=hb,
        jhalf=jhalf,
        ad1_gens=ad1,
        adh_gens=adh,
    )
    defect = _hermitian_defect(model)
    if defect > 1e-8:
        raise PositivityUnfixable(
            f"Hermitian axioms fail by {defect:.2e} after orientation fix"
        )
    return model


def _hermitian_defect(M: SiegelModel) -> float:
    """Max violation of complex linearity, Hermitian symmetry, and real
    diagonal over half-block basis pairs.

    Over the form tensor ``T[i, j] = Phi(e_i, e_j)`` these are
    ``Phi(j e_i, e_j) - i T[i, j]``, ``T[j, i] - conj(T[i, j])`` and
    ``imag T[i, i]``.
    """
    T = M.phi_re + 1j * M.phi_im
    lin = np.tensordot(M.jhalf, T, ([0], [0])) - 1j * T
    herm = T.transpose(1, 0, 2) - T.conj()
    diag = np.diagonal(T).imag
    return max(float(np.max(np.abs(a), initial=0.0)) for a in (lin, herm, diag))


# ---------------------------------------------------------------------------
# group elements and the action
# ---------------------------------------------------------------------------

def _ad_blocks(M: SiegelModel, x_zero: np.ndarray):
    A1 = np.einsum("...a,aij->...ij", x_zero, M.ad1_gens)
    Ah = np.einsum("...a,aij->...ij", x_zero, M.adh_gens)
    return A1, Ah


def group_element(M: SiegelModel, x_minus, x_zero) -> GroupElement:
    """Build a group element and cache its affine map on (z, w)-space.

    ``x_minus`` (..., p+q) and ``x_zero`` (..., p0) may share leading stack
    axes; the element is then a stack built in one pass, one batched
    exponential (``_expm_stack``) per block over the whole stack.
    """
    x_minus = np.asarray(x_minus, dtype=float)
    x_zero = np.asarray(x_zero, dtype=float)
    stack = x_minus.shape[:-1]
    if x_minus.shape[-1:] != (M.p + M.q,) or x_zero.shape != stack + (M.p0,):
        raise DimensionMismatch("group coordinates have wrong lengths")
    p, q = M.p, M.q
    xi, xip = x_minus[..., :p], x_minus[..., p:]
    A1, Ah = _ad_blocks(M, x_zero)
    E1, Eh = _expm_stack(-A1), _expm_stack(-Ah)

    # 2i Phi(Eh w, xi') = (-2 Fim + 2i Fre)(Eh w, xi')
    Kre = np.einsum("ijk,...j->...ki", M.phi_re, xip)
    Kim = np.einsum("ijk,...j->...ki", M.phi_im, xip)
    Lre = -2.0 * (Kim @ Eh)
    Lim = 2.0 * (Kre @ Eh)

    phi_diag = M.phi(xip, xip)

    dim = 2 * p + q
    mat = np.zeros(stack + (dim, dim))
    mat[..., :p, :p] = E1
    mat[..., p : 2 * p, p : 2 * p] = E1
    mat[..., :p, 2 * p :] = Lre
    mat[..., p : 2 * p, 2 * p :] = Lim
    mat[..., 2 * p :, 2 * p :] = Eh
    # z gains xi + i Phi(xi', xi'); the diagonal of the form is real
    off = np.zeros(stack + (dim,))
    off[..., :p] = xi - phi_diag.imag
    off[..., p : 2 * p] = phi_diag.real
    off[..., 2 * p :] = xip
    return GroupElement(x_minus, x_zero, mat, off)


def identity(M: SiegelModel) -> GroupElement:
    return group_element(M, np.zeros(M.p + M.q), np.zeros(M.p0))


def act(g: GroupElement, point: DomainPoint, M: SiegelModel) -> DomainPoint:
    """g . point; stacks of elements and of points broadcast against each other."""
    v = (g.affine_matrix @ point.pack()[..., None])[..., 0] + g.affine_offset
    return DomainPoint.unpack(v, M.p, M.q)


def element_from_vector(M: SiegelModel, x_ambient) -> GroupElement:
    """exp(x) in layered (x_minus, x_zero) form: x_zero is the 0-block part
    of x, and x_minus is the minus block of delta - K delta, K = expm(-ad x),
    with its half block doubled (K delta = delta - v_{-1} - v_{-1/2}/2 for
    x = v in the minus block)."""
    x_ambient = np.asarray(x_ambient, dtype=float)
    K = _expm(-ad_matrix(x_ambient, M.J.L))
    if not np.all(np.isfinite(K)):
        raise InputError("the exponential of the element overflows")
    delta = M.C[:, M.p + M.q :] @ M.delta0_coords
    x_minus = M.Cinv[: M.p + M.q] @ (delta - K @ delta)
    x_minus[M.p :] *= 2.0
    return group_element(M, x_minus, M.to_adapted(x_ambient)[M.p + M.q :])


def _phi(D: np.ndarray) -> np.ndarray:
    """phi(D) = int_0^1 expm(-s D) ds, the upper-right block of
    expm([[-D, I], [0, 0]])."""
    k = D.shape[0]
    B = np.zeros((2 * k, 2 * k))
    B[:k, :k] = -D
    B[:k, k:] = np.eye(k)
    return _expm_stack(B)[:k, k:]


def element_log(M: SiegelModel, g: GroupElement) -> np.ndarray:
    """The ambient vector y with exp(y) = exp(x_minus) exp(x_zero): the
    inverse of :func:`element_from_vector`, by graded linear solves.

    The 0-part of y is x_zero, since s -> s / (s_{-1} + s_{-1/2}) is a
    homomorphism.  The read-off of y is delta - K delta =
    phi(ad y)(y_{-1} + y_{-1/2}/2); ad y keeps the minus block invariant
    and acts there through ad x_zero on the diagonal, so y_{-1/2} =
    phi(Ah)^{-1} x_{-1/2}, and y_{-1} = phi(A1)^{-1} (x_{-1} - c) with c
    the (-1)-block read-off of y without its (-1)-part.
    """
    p = M.p
    A1, Ah = _ad_blocks(M, g.x_zero)
    y_half = np.linalg.solve(_phi(Ah), g.x_minus[p:])
    c = element_from_vector(M, M.C[:, p:] @ np.concatenate([y_half, g.x_zero])).x_minus[:p]
    y_one = np.linalg.solve(_phi(A1), g.x_minus[:p] - c)
    return M.C @ np.concatenate([y_one, y_half, g.x_zero])


# ---------------------------------------------------------------------------
# cone membership and orbit inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeResult:
    inside: bool
    residual: float
    witness: np.ndarray | None


def cone_contains(x, M: SiegelModel, tol: float = CONE_TOL) -> ConeResult:
    """Gauss-Newton solve of Ad(exp g) xi0 = x over the 0-block.

    The 0-group acts simply transitively on the cone, so membership in the
    open cone is exactly solvability; divergence is reported as outside
    (or numerically undecidable) with the best residual seen.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (M.p,):
        raise DimensionMismatch("cone query must live in the (-1)-block")
    if M.p == 0:
        return ConeResult(True, 0.0, np.zeros(M.p0))
    xi0 = M.xi0_coords
    nx = float(np.linalg.norm(x))
    if nx < 1e-13 * max(1.0, float(np.linalg.norm(xi0))):
        return ConeResult(False, nx, None)
    scale = max(1.0, nx)

    lam = nx / float(np.linalg.norm(xi0))
    g = np.log(lam) * M.delta0_coords

    def residual(gv):
        E = _expm(-np.einsum("a,aij->ij", gv, M.ad1_gens))
        return E @ xi0 - x

    r = residual(g)
    best = float(np.linalg.norm(r)) / scale
    for _ in range(CONE_MAX_ITER):
        rn = float(np.linalg.norm(r)) / scale
        best = min(best, rn)
        if rn < tol:
            return ConeResult(True, rn, g)
        # column a is the derivative of expm(A - t G_a) xi0 at t = 0: the
        # upper-right block of expm([[A, -G_a], [0, A]]), one stack over a
        A = -np.einsum("a,aij->ij", g, M.ad1_gens)
        B = np.zeros((M.p0, 2 * M.p, 2 * M.p))
        B[:, : M.p, : M.p] = B[:, M.p :, M.p :] = A
        B[:, : M.p, M.p :] = -M.ad1_gens
        Jmat = (_expm_stack(B)[:, : M.p, M.p :] @ xi0).T
        step, *_ = np.linalg.lstsq(Jmat, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        # halve the step while the residual grows
        accepted = False
        for _ in range(30):
            g_new = g + step
            if np.linalg.norm(g_new) > 80.0:
                step = 0.5 * step
                continue
            r_new = residual(g_new)
            if np.linalg.norm(r_new) < np.linalg.norm(r):
                g, r = g_new, r_new
                accepted = True
                break
            step = 0.5 * step
        if not accepted:
            break
    rn = float(np.linalg.norm(r)) / scale
    return ConeResult(rn < tol, min(best, rn), g if rn < tol else None)


def domain_defect(point: DomainPoint, M: SiegelModel) -> np.ndarray:
    """im(z) - Phi(w, w), the vector whose cone membership defines D."""
    quad = np.einsum("i,j,ijk->k", point.w, point.w, M.phi_re) if M.q else np.zeros(M.p)
    return point.z.imag - quad


def contains(point: DomainPoint, M: SiegelModel, tol: float = CONE_TOL) -> bool:
    if M.p == 0:
        return True
    return cone_contains(domain_defect(point, M), M, tol).inside


def solve_orbit(point: DomainPoint, M: SiegelModel) -> GroupElement:
    """The unique group element mapping the base point to ``point``.

    Layered: the half-block translation is read off the w-coordinate, the
    0-part comes from the cone witness of im(z) - Phi(w,w), and the
    remaining translation is re(z).
    """
    if M.p == 0:
        return identity(M)
    defect = domain_defect(point, M)
    cone = cone_contains(defect, M)
    if not cone.inside:
        raise NotInDomain(
            f"point is outside the domain or undecidable (cone residual {cone.residual:.2e})"
        )
    x_minus = np.concatenate([point.z.real, point.w])
    g = group_element(M, x_minus, cone.witness)
    res = act(g, M.base_point(), M).distance(point)
    if not np.isfinite(res) or res > ORBIT_TOL * max(1.0, float(np.linalg.norm(point.pack()))):
        raise SolverDiverged(f"orbit solve residual {res:.2e} exceeds {ORBIT_TOL:.2e}")
    return g


# ---------------------------------------------------------------------------
# fundamental vector fields and sampling
# ---------------------------------------------------------------------------

def vector_field(x_ambient, point: DomainPoint, M: SiegelModel) -> np.ndarray:
    """Value at ``point`` of the field generated by an algebra element.

    Returns a complex vector over the complex coordinates (z, w); the
    w-block uses the complex pairing of the model.  Elements (..., dim) and
    points broadcast against each other over leading stack axes, so one
    call evaluates many fields at many points.
    """
    xi, xip, x0 = M.split_coords(x_ambient)
    A1, Ah = _ad_blocks(M, x0)
    dz = -(A1 @ point.z[..., None])[..., 0] + xi + 2j * M.phi(point.w, xip)
    dw = -(Ah @ point.w[..., None])[..., 0] + xip
    return np.concatenate([dz, M.to_complex_w(dw)], axis=-1)


def random_element(M: SiegelModel, rng, bound: float = 1.0) -> GroupElement:
    return group_element(
        M,
        rng.uniform(-bound, bound, M.p + M.q),
        rng.uniform(-bound, bound, M.p0),
    )


def random_interior_point(M: SiegelModel, rng) -> DomainPoint:
    """Sample from the interior: im(z) = Phi(w,w) + (cone point)."""
    w = rng.uniform(-1.0, 1.0, M.q)
    if M.q:
        nw = np.linalg.norm(w)
        if nw > 1.0:
            w = w / nw * rng.uniform(0.2, 1.0)
    g0 = rng.uniform(-1.0, 1.0, M.p0)
    cone_pt = _expm(-np.einsum("a,aij->ij", g0, M.ad1_gens)) @ M.xi0_coords
    quad = np.einsum("i,j,ijk->k", w, w, M.phi_re) if M.q else np.zeros(M.p)
    z = rng.uniform(-2.0, 2.0, M.p) + 1j * (quad + cone_pt)
    return DomainPoint(z, w)
