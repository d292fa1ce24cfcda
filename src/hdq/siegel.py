"""Siegel realization of a normal j-algebra and its affine group action.

A model works in one basis, its own: the (-1)-block starts with the frame
vectors xi_1..xi_r (so the cone sits over the all-ones direction), the
0-block starts with eta_1..eta_r, and the (-1/2)-block is organized in
complex pairs (u, j u) per half-root space.  ``assemble_model`` is the
one constructor: it rebases its algebra onto those columns once
(``jalgebra.adapted``) and keeps the result as ``M.J``, so every tensor of
the model is a contiguous slice of that algebra's bracket and j, and
every vector the model reads or returns is in its coordinates.
``build_model`` reads the columns off the fine structure of an input; the
fibration tower assembles each quotient on a sliced subalgebra with the
identity basis, and each fiber on the basis that pairs its half block.
``M.basis`` keeps the columns over the input's basis, read only where
input coordinates enter: an ``exp:`` element (``analyzer.phi_affine``),
the fiber log of the walk and the ``fiber_case`` subalgebra witness, both
over the ideal's coordinates, and ``hdq ball check-totally-real``.  A
model's arrays are read-only: one model serves every walk on its domain
(``analyzer._prepared``).

Group elements are stored in exponential coordinates (x_minus, x_zero) for
exp(x_minus) exp(x_zero); the cached affine map on (z, w)-space is the
displayed action

    (exp(xi + xi'), s) . (z, w)
        = (Ad(s) z + xi + 2i Phi(Ad(s) w, xi') + i Phi(xi', xi'),
           Ad(s) w + xi'),

with the group-level adjoint realized as expm(-ad(x_zero)): one-parameter
flows compose with the opposite bracket, and this choice is what makes the
formula reproduce the closed-form flows of the half-plane generators.
Where only the image of the base point is read, ``orbit_points`` gives
s . z0 directly from the coordinates, and no affine map is built.

One bridge joins layered coordinates and the algebra, the delta
read-off: ad(delta) grades the algebra into degrees -1, -1/2 and 0, so
exp(x_zero) fixes delta, and for v in s_{-1} + s_{-1/2} the series
expm(-ad v) delta = delta - v_{-1} - v_{-1/2}/2 stops after its linear
term.  ``element_from_vector`` reads x_minus linearly off K delta with
K = expm(-ad x); ``element_log`` inverts that read-off with one linear
solve per graded block, and no matrix logarithm is taken.

Cone membership and the orbit solve share one batched Gauss-Newton solve
of Ad(exp g) xi0 = x with one stop rule (``_cone_solve``): the residual r
is below the tolerance relative to max(1, |x|) and each |r_i| below ten
times it relative to max(1, |x_i|), or no halved step lowers |r|.  Only
the first clause decides whether x is inside.  Where the 0-block is
abelian the cone is an orthant, the simply transitive group its diagonal
torus (Vinberg 1963), and a query inside it starts at its closed-form
solution g = log(x) and stops there.

Every exponential goes through one kernel, ``_expm_stack``: a stack of
matrices in one pass, each slice scaled by its own power of two and
evaluated by the degree-16 Taylor polynomial in Paterson-Stockmeyer form,
with matrix products only.  The scaling is read off the slice's third
and fourth powers, which the polynomial needs anyway, so a nilpotent
slice of large norm is not squared at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    NotInDomain,
    PositivityUnfixable,
    SolverDiverged,
    TotallyRealCheckFailed,
)
from .jalgebra import NormalJAlgebra, adapted, fine_structure
from .lie_core import Subspace, ad_matrix

CONE_TOL = 1e-9
CONE_MAX_ITER = 100
ORBIT_TOL = 1e-7


# The degree-16 Taylor polynomial in Paterson-Stockmeyer blocks: row j
# holds the coefficients 1/k! of I, A, A^2, A^3 in the block of degrees
# 4j..4j+3, and the top row also that of A^4.  Up to
# max(|A^3|^(1/3), |A^4|^(1/4)) = _THETA16 its relative backward error
# stays below 2^-53 (Al-Mohy and Higham, "A new scaling and squaring
# algorithm for the matrix exponential", SIAM J. Matrix Anal. Appl. 31,
# 2009, Theorem 4.2 with p = 3, and Table 4.1).
_PS16 = np.array([[1.0 / math.factorial(4 * j + l) if l < 4 or j == 3 else 0.0 for l in range(5)] for j in range(4)])
_THETA16 = 0.7802874256626574


def _scaled_powers(A):
    """(I, A, A^2, A^3, A^4) of each slice of a (n, k, k) stack, as one
    (n, 5, k, k) array with slice i scaled by 2^-s[i], and the (n,)
    squarings s.

    s is the least integer with max(|A^3|^(1/3), |A^4|^(1/4)) 2^-s <=
    ``_THETA16`` in the Frobenius norm, and at least 0: a slice's own
    powers bound its scaling, so a nilpotent slice of large norm takes
    none.  The powers are formed once, unscaled, and rescaled by exact
    powers of two; a slice whose fourth power overflows comes out
    non-finite.
    """
    n, k = len(A), A.shape[-1]
    W = np.empty((n, 5, k, k))
    W[:, 0] = np.eye(k)
    W[:, 1] = A
    np.matmul(A, A, out=W[:, 2])
    np.matmul(W[:, 2], A, out=W[:, 3])
    np.matmul(W[:, 2], W[:, 2], out=W[:, 4])
    alpha = np.maximum(
        np.einsum("nij,nij->n", W[:, 3], W[:, 3]) ** (1.0 / 6.0),
        np.einsum("nij,nij->n", W[:, 4], W[:, 4]) ** 0.125,
    )
    # frexp gives 0 for 0, inf and nan
    m, e = np.frexp(alpha / _THETA16)
    s = np.maximum(e - (m == 0.5), 0)
    if s.any():
        W *= np.ldexp(1.0, -np.arange(5)[:, None, None] * s[:, None, None, None])
    return W, s


def _expm_stack(A):
    """exp of each (k, k) slice of a (..., k, k) stack, in one pass; a
    single (k, k) matrix goes through as a stack of one.

    The degree-16 Taylor polynomial in Paterson-Stockmeyer form, products
    only: the four blocks (``_PS16``) from one batched product with the
    scaled powers, then Horner's rule in A^4, six matrix products in all.
    Each slice is scaled by its own power of two (``_scaled_powers``), so
    its result does not depend on the rest of the stack, and is squared
    back only as often as it was scaled.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return A.copy()
    stack, k = A.shape[:-2], A.shape[-1]
    W, s = _scaled_powers(A.reshape((-1, k, k)))
    n = len(W)
    P = (_PS16 @ W.reshape(n, 5, k * k)).reshape(n, 4, k, k)
    E = P[:, 3]
    for j in (2, 1, 0):
        E = W[:, 4] @ E
        E += P[:, j]
    # an overflowing slice squares to inf or nan; callers test finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(int(s.max())):
            todo = s > step
            E = E @ E if todo.all() else np.where(todo[:, None, None], E @ E, E)
    return E.reshape(stack + (k, k))


def _off(v: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """v less its part in the span of the orthonormal columns of Q,
    projected off twice (Gram-Schmidt with one reorthogonalization)."""
    for _ in range(2):
        v = v - Q @ (Q.T @ v)
    return v


def _aligned_basis(V: Subspace) -> np.ndarray:
    """Deterministic orthonormal basis of V aligned with ambient coordinates:
    each coordinate vector in turn, projected onto V and off the columns
    taken so far, is taken when more than 1e-8 of it is left."""
    n, d = V.ambient_dim, V.dim
    q = V.orthonormal()
    B, k = np.empty((n, d)), 0
    for row in q:  # q @ q[i] projects e_i onto V
        if k == d:
            break
        v = _off(q @ row, B[:, :k])
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            B[:, k] = v / nv
            k += 1
    if k != d:
        raise DimensionMismatch("could not align a basis with the coordinates")
    return B


def _complex_pairs(space_basis: np.ndarray, j: np.ndarray):
    """Split a j-invariant space into columns U with the space = [U | jU]:
    each column of ``space_basis`` in turn, off span(U, jU) of the columns
    taken so far, is taken when at least 1e-8 of it is left.  ``Q`` keeps
    an orthonormal basis of that span."""
    n, d = space_basis.shape
    if d % 2:
        raise DimensionMismatch("j-invariant space has odd dimension")
    m = d // 2
    U, Q, k = np.empty((n, m)), np.empty((n, d)), 0
    for v in space_basis.T:
        if k == m:
            break
        v = _off(v, Q[:, : 2 * k])
        nv = np.linalg.norm(v)
        if nv < 1e-8:
            continue
        U[:, k] = Q[:, 2 * k] = v / nv
        w = _off(j @ U[:, k], Q[:, : 2 * k + 1])
        Q[:, 2 * k + 1] = w / np.linalg.norm(w)
        k += 1
    if k != m:
        raise DimensionMismatch("could not pair the half-space basis under j")
    return np.hstack([U, j @ U]), m


@dataclass(frozen=True, eq=False)
class SiegelModel:
    J: NormalJAlgebra      # the algebra over the model's basis [s_{-1} | s_{-1/2} | s_0]
    rank: int              # number of frame vectors xi_k (and eta_k)
    sigma: int
    basis: np.ndarray      # the model's basis over the input's, columns [C1 | Ch | C0]
    p: int                 # dim s_{-1}
    q: int                 # dim s_{-1/2}
    p0: int                # dim s_0
    half_pairs: tuple      # (offset, m_k) per half-root space, in Ch coords
    frame_indices: tuple   # per basis column, the frame indices its root involves
    form: np.ndarray       # (q, q, p) complex: form[a, b] = Phi(e_a, e_b) on half-block pairs
    hb: np.ndarray         # bracket of half-block pairs onto s_{-1} coords
    jhalf: np.ndarray      # j restricted to the half block
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

    @cached_property
    def symplectic_pairs(self) -> tuple:
        """Pair basis ((e_k, f_k, s_k), ...) of the half block for the
        bracket pairing P onto the single (-1)-coordinate of a ball-like
        model, with s_k = e_k P f_k; built on first use, once per model.

        Built greedily from the adapted basis, reducing the remainder so that
        distinct pairs pair to zero; on the canonical presets this reproduces
        the (xi_k, eta_k) pairs.
        """
        P = self.hb[:, :, 0]
        avail = list(np.eye(self.q))
        pairs = []
        while avail:
            e = avail.pop(0)
            if np.linalg.norm(e) < 1e-10:
                continue
            vals = [abs(float(e @ P @ f)) for f in avail]
            if not vals or max(vals) < 1e-10:
                raise TotallyRealCheckFailed("symplectic pairing is degenerate")
            f = avail.pop(int(np.argmax(vals)))
            s = float(e @ P @ f)
            avail = [u - (float(e @ P @ u) / s) * f + (float(f @ P @ u) / s) * e for u in avail]
            e.setflags(write=False)
            f.setflags(write=False)
            pairs.append((e, f, s))
        return tuple(pairs)

    def base_point(self) -> "DomainPoint":
        return DomainPoint(1j * self.xi0_coords.astype(complex), np.zeros(self.q))

    def phi(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hermitian form on half-block coordinates, complex (..., p) over
        leading stack shapes of ``u`` and ``v`` that broadcast."""
        return np.einsum("...i,...ik->...k", u, np.tensordot(v, self.form, ([-1], [1])))

    def to_complex_w(self, w: np.ndarray) -> np.ndarray:
        """Complex half-block coordinates of real ones, over leading stack axes."""
        w = np.asarray(w)
        out = [w[..., off : off + m] + 1j * w[..., off + m : off + 2 * m] for off, m in self.half_pairs]
        return np.concatenate(out, axis=-1) if out else np.zeros(w.shape[:-1] + (0,), dtype=complex)


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


def assemble_model(J: NormalJAlgebra, C: np.ndarray | None, rank: int, layout: tuple) -> SiegelModel:
    """The Siegel model of J on the basis C (columns over J's basis; None
    for J's own), laid out as ``layout`` = (p, q, half_pairs,
    frame_indices) says: the (-1)-, half and 0-blocks, the outer two led by
    the ``rank`` frame vectors xi_k and eta_k.

    J is rebased onto C once, and the model keeps that algebra: ``hb``,
    ``jhalf`` and the ad generators of the 0-block are contiguous slices
    of its bracket and j, and the form is read off them.  Fixes the
    orientation sign of the form and gates its Hermitian defect.
    """
    p, q, half_pairs, frame_indices = layout
    if C is None:
        A, C = J, np.eye(J.dim)
    elif C.shape != (J.dim, J.dim):
        raise DimensionMismatch("adapted basis does not fill the algebra")
    else:
        A = adapted(J, C)
    c, h = A.L.c, slice(p, p + q)
    hb = np.ascontiguousarray(c[h, h, :p])
    jhalf = np.ascontiguousarray(A.j[h, h])
    # [j e_a, e_b]: j keeps the half block (empty, like hb, when q = 0)
    jhb = np.tensordot(jhalf, hb, ([0], [0])) if q else hb
    sigma = _orientation(0.25 * jhb)
    ad0 = c[p + q :].transpose(0, 2, 1)  # ad(e_a)[i, k] = c[a, k, i] on the 0-block
    model = SiegelModel(
        J=A,
        rank=rank,
        sigma=sigma,
        basis=C,
        p=p,
        q=q,
        p0=J.dim - p - q,
        half_pairs=half_pairs,
        frame_indices=frame_indices,
        form=sigma * 0.25 * (jhb + 1j * hb),
        hb=hb,
        jhalf=jhalf,
        ad1_gens=np.ascontiguousarray(ad0[:, :p, :p]),
        adh_gens=np.ascontiguousarray(ad0[:, h, h]),
    )
    for name in ("basis", "form", "hb", "jhalf", "ad1_gens", "adh_gens"):
        getattr(model, name).setflags(write=False)
    _require_hermitian(model)
    return model


def _orientation(form: np.ndarray) -> int:
    """The sign that makes the real part ``form`` (q, q, p) of a Hermitian
    form cone-positive: the diagonal on each half-block column is largest
    on its frame coordinate, and one global sign must make those entries
    positive (+1 with no half block)."""
    if not len(form):
        return 1
    d = np.diagonal(form).T
    lead = np.take_along_axis(d, np.argmax(np.abs(d), axis=1)[:, None], axis=1)
    if np.all(lead > 1e-12):
        return 1
    if np.all(lead < -1e-12):
        return -1
    raise PositivityUnfixable("no global sign makes the Hermitian form cone-positive")


def _require_hermitian(M: SiegelModel) -> None:
    defect = _hermitian_defect(M)
    if defect > 1e-8:
        raise PositivityUnfixable(f"Hermitian axioms fail by {defect:.2e} after orientation fix")


def _hermitian_defect(M: SiegelModel) -> float:
    """Max violation of complex linearity, Hermitian symmetry, and real
    diagonal over half-block basis pairs.

    Over the form tensor ``T[i, j] = Phi(e_i, e_j)`` these are
    ``Phi(j e_i, e_j) - i T[i, j]``, ``T[j, i] - conj(T[i, j])`` and
    ``imag T[i, i]``.
    """
    if not M.q:
        return 0.0
    T = M.form
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

    # 2i Phi(Eh w, xi') = (-2 im K + 2i re K) Eh w for the (p, q) matrix
    # K = Phi(., xi'), from one stacked real product
    K = np.einsum("ijk,...j->...ki", M.form, xip)
    KEre, KEim = np.stack([K.real, K.imag]) @ Eh
    phi_diag = M.phi(xip, xip)

    dim = 2 * p + q
    mat = np.zeros(stack + (dim, dim))
    mat[..., :p, :p] = E1
    mat[..., p : 2 * p, p : 2 * p] = E1
    mat[..., :p, 2 * p :] = -2.0 * KEim
    mat[..., p : 2 * p, 2 * p :] = 2.0 * KEre
    mat[..., 2 * p :, 2 * p :] = Eh
    # z gains xi + i Phi(xi', xi'); Phi(xi', xi') is real, so its imaginary
    # part is rounding and is dropped
    off = np.zeros(stack + (dim,))
    off[..., :p] = xi
    off[..., p : 2 * p] = phi_diag.real
    off[..., 2 * p :] = xip
    return GroupElement(x_minus, x_zero, mat, off)


def act(g: GroupElement, point: DomainPoint, M: SiegelModel) -> DomainPoint:
    """g . point; stacks of elements and of points broadcast against each other."""
    v = (g.affine_matrix @ point.pack()[..., None])[..., 0] + g.affine_offset
    return DomainPoint.unpack(v, M.p, M.q)


def element_from_vector(M: SiegelModel, x) -> GroupElement:
    """exp(x) in layered (x_minus, x_zero) form: x_zero is the 0-block part
    of x, and x_minus is the minus block of delta - K delta, K = expm(-ad x),
    with its half block doubled (K delta = delta - v_{-1} - v_{-1/2}/2 for
    x = v in the minus block)."""
    x = np.asarray(x, dtype=float)
    return group_element(M, _delta_readoff(M, x), x[M.p + M.q :])


def _delta_readoff(M: SiegelModel, x: np.ndarray) -> np.ndarray:
    """x_minus of exp(x): the minus block of delta - K delta, K =
    expm(-ad x), with its half block doubled."""
    K = _expm_stack(-ad_matrix(x, M.J.L))
    if not np.all(np.isfinite(K)):
        raise InputError("the exponential of the element overflows")
    k = M.p + M.q
    delta = np.concatenate([np.zeros(k), M.delta0_coords])
    x_minus = (delta - K @ delta)[:k]
    x_minus[M.p :] *= 2.0
    return x_minus


def _phi(D: np.ndarray) -> np.ndarray:
    """phi(D) = int_0^1 expm(-s D) ds, the upper-right block of
    expm([[-D, I], [0, 0]])."""
    k = D.shape[0]
    B = np.zeros((2 * k, 2 * k))
    B[:k, :k] = -D
    B[:k, k:] = np.eye(k)
    return _expm_stack(B)[:k, k:]


def element_log(M: SiegelModel, x_minus, x_zero) -> np.ndarray:
    """The vector y with exp(y) = exp(x_minus) exp(x_zero): the
    inverse of :func:`element_from_vector`, by graded linear solves on the
    exponential coordinates alone.

    The 0-part of y is x_zero, since s -> s / (s_{-1} + s_{-1/2}) is a
    homomorphism.  The read-off of y is delta - K delta =
    phi(ad y)(y_{-1} + y_{-1/2}/2); ad y keeps the minus block invariant
    and acts there through ad x_zero on the diagonal, so y_{-1/2} =
    phi(Ah)^{-1} x_{-1/2}, and y_{-1} = phi(A1)^{-1} (x_{-1} - c) with c
    the (-1)-block read-off of y without its (-1)-part.
    """
    p = M.p
    A1, Ah = _ad_blocks(M, x_zero)
    y_half = np.linalg.solve(_phi(Ah), x_minus[p:])
    c = _delta_readoff(M, np.concatenate([np.zeros(p), y_half, x_zero]))[:p]
    y_one = np.linalg.solve(_phi(A1), x_minus[:p] - c)
    return np.concatenate([y_one, y_half, x_zero])


# ---------------------------------------------------------------------------
# cone membership and orbit inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeResult:
    """The answer to one cone query, or to a stack of them.

    For a (p,) query: ``inside`` a bool, ``residual`` a float and
    ``witness`` the (p0,) solution or None.  For a (k, p) stack: ``inside``
    (k,) bool, ``residual`` (k,) and ``witness`` (k, p0), NaN on the rows
    that are not inside.
    """

    inside: bool | np.ndarray
    residual: float | np.ndarray
    witness: np.ndarray | None


def _cone_points(M: SiegelModel, g: np.ndarray) -> np.ndarray:
    """Ad(exp g) xi0 = expm(-ad g) xi0 for 0-block coordinates g (..., p0),
    from one ``_expm_stack``."""
    A = (g @ M.ad1_gens.reshape(M.p0, M.p * M.p)).reshape(g.shape[:-1] + (M.p, M.p))
    return _expm_stack(-A)[..., : M.rank].sum(axis=-1)


def _cone_jacobians(M: SiegelModel, g: np.ndarray):
    """Ad(exp g) xi0, (k, p), and its Jacobian in g, (k, p, p0), for a
    (k, p0) stack, from one ``_expm_stack`` of the k p0 Frechet blocks
    [[A, -G_a], [0, A]], A = -ad g: their exponential is expm(A) on the
    diagonal and d/dt expm(A - t G_a) at t = 0 in the upper-right block."""
    p = M.p
    B = np.zeros((len(g), M.p0, 2 * p, 2 * p))
    B[..., :p, :p] = B[..., p:, p:] = -(g @ M.ad1_gens.reshape(M.p0, -1)).reshape(-1, 1, p, p)
    B[..., :p, p:] = -M.ad1_gens
    E = _expm_stack(B)[..., :p, : p + M.rank]
    return E[:, 0, :, : M.rank].sum(axis=-1), E[..., p:].sum(axis=-1).transpose(0, 2, 1)


def cone_contains(x, M: SiegelModel, tol: float = CONE_TOL) -> ConeResult:
    """Gauss-Newton solve of Ad(exp g) xi0 = x over the 0-block, for one
    (p,) query or a (k, p) stack of them in one solve.

    The 0-group acts simply transitively on the cone, so membership in the
    open cone is exactly solvability: x is inside when the residual where
    the solve stops (:func:`_cone_solve`), relative to max(1, |x|), is
    below ``tol``, and divergence reads as outside (or undecidable).  Each
    query keeps its own stop rule and step halving, so its answer does not
    depend on the rest of the stack.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != M.p:
        raise DimensionMismatch("cone query must live in the (-1)-block")
    X = x.reshape(-1, M.p)
    if M.p:
        nx = np.linalg.norm(X, axis=1)
        live = nx >= 1e-13 * max(1.0, np.sqrt(M.rank))  # |xi0| = sqrt(rank)
        witness, residual = np.empty((len(X), M.p0)), nx.copy()
        witness[live], residual[live] = _cone_solve(X[live], nx[live], M, tol)
        inside = live & (residual < tol)
        witness[~inside] = np.nan
    else:
        inside, residual, witness = np.ones(len(X), dtype=bool), np.zeros(len(X)), np.zeros((len(X), M.p0))
    if x.ndim == 2:
        return ConeResult(inside, residual, witness)
    return ConeResult(bool(inside[0]), float(residual[0]), witness[0] if inside[0] else None)


def _cone_solve(X: np.ndarray, nx: np.ndarray, M: SiegelModel, tol: float):
    """The Gauss-Newton iterations of :func:`cone_contains` on a (k, p)
    stack of nonzero queries of norms ``nx``: the (k, p0) iterate where
    each query stopped, and its residual relative to max(1, |x|).

    A query stops when its residual r is below ``tol`` relative to
    max(1, |x|) and each |r_i| <= 10 tol max(1, |x_i|), so the small
    entries of a badly scaled x (e^15 and 1) are solved too; or when its
    Jacobian or step is not finite, or 30 halvings of its step find no
    smaller residual within norm 80.  The others go on as a compacted
    active set, and every trial point's residual and Jacobian come from
    one ``_cone_jacobians`` over the stack.
    """
    p, p0 = M.p, M.p0
    rcond = np.finfo(float).eps * max(p, p0)  # lstsq's default cutoff
    g_out, res_out = np.empty((len(X), p0)), np.empty(len(X))
    scale = np.maximum(1.0, nx)
    # start on the ray through x: delta0 grades the (-1)-block (ad delta0
    # = -1 there), so g = log(lam) delta0 acts on it as the scalar lam,
    # Ad(exp g) xi0 = lam xi0, and the Jacobian there is -lam G_a xi0; on an
    # orthant cone, at x itself
    xi0 = M.xi0_coords
    lam = nx / np.sqrt(M.rank)
    g = np.log(lam)[:, None] * M.delta0_coords
    r = lam[:, None] * xi0 - X
    J = -lam[:, None, None] * (M.ad1_gens @ xi0).T
    if p0 == M.rank:
        # an abelian 0-block is the span of the eta_k, each scaling its
        # xi_k alone (and then p = rank): a query in the open orthant is
        # the frame point of g = log(x), Ad(exp g) xi0 = x, and the
        # Jacobian there is -G_a x, so it stops before any iteration
        closed = np.flatnonzero((X > 0.0).all(axis=1) & np.isfinite(X).all(axis=1))
        g[closed], r[closed] = np.log(X[closed]), 0.0
        J[closed] = -(M.ad1_gens @ X[closed].T).transpose(2, 1, 0)
    rn = np.linalg.norm(r, axis=1)
    idx = np.arange(len(X))

    def retire(mask):
        nonlocal g, r, rn, J, X, scale, idx
        if mask.any():
            g_out[idx[mask]], res_out[idx[mask]] = g[mask], rn[mask] / scale[mask]
            keep = ~mask
            g, r, rn, J, X, scale, idx = (a[keep] for a in (g, r, rn, J, X, scale, idx))

    for _ in range(CONE_MAX_ITER):
        exact = (np.abs(r) <= 10.0 * tol * np.maximum(1.0, np.abs(X))).all(axis=1)
        retire(((rn / scale < tol) & exact) | ~np.isfinite(J).all(axis=(1, 2)))
        if not len(idx):
            break
        # least-squares steps, one batched SVD
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > rcond * s[:, :1])
        step = -(Vt.transpose(0, 2, 1) @ (s_inv * (r[:, None, :] @ U)[:, 0])[..., None])[..., 0]
        # halve each step while it leaves the norm-80 ball or does not
        # lower the residual
        pending = np.isfinite(step).all(axis=1)
        moved = np.zeros(len(idx), dtype=bool)
        for _ in range(30):
            trial = g + step
            t = np.flatnonzero(pending & (np.linalg.norm(trial, axis=1) <= 80.0))
            cone, J_t = _cone_jacobians(M, trial[t])
            r_t = cone - X[t]
            rn_t = np.linalg.norm(r_t, axis=1)
            better = rn_t < rn[t]
            if len(t) == len(idx) and better.all():  # every whole step taken
                g, r, rn, J, moved = trial, r_t, rn_t, J_t, better
                break
            hit = t[better]
            g[hit], r[hit], rn[hit], J[hit] = trial[hit], r_t[better], rn_t[better], J_t[better]
            moved[hit] = True
            pending[hit] = False
            if not pending.any():
                break
            step = 0.5 * step
        retire(~moved)
        if not len(idx):
            break
    retire(np.ones(len(idx), dtype=bool))
    return g_out, res_out


def domain_defect(point: DomainPoint, M: SiegelModel) -> np.ndarray:
    """im(z) - Phi(w, w), the vector whose cone membership defines D; a
    stack of points gives a (k, p) stack."""
    return point.z.imag - M.phi(point.w, point.w).real


def contains(point: DomainPoint, M: SiegelModel, tol: float = CONE_TOL):
    """Whether ``point`` lies in D; a stack of k points gives a (k,) bool
    array from one stacked cone solve."""
    return cone_contains(domain_defect(point, M), M, tol).inside


def solve_orbit(point: DomainPoint, M: SiegelModel):
    """Exponential coordinates ``(x_minus, x_zero)`` of the unique group
    element mapping the base point to ``point``.

    Layered: the half-block translation is read off the w-coordinate, the
    0-part is the cone witness of im(z) - Phi(w,w), whose residual meets
    ``ORBIT_TOL``/10 entry by entry, and the remaining translation is re(z).
    """
    if M.p == 0:
        return np.zeros(M.p + M.q), np.zeros(M.p0)
    cone = cone_contains(domain_defect(point, M), M)
    if not cone.inside:
        raise NotInDomain(
            f"point is outside the domain or undecidable (cone residual {cone.residual:.2e})"
        )
    x_minus, x_zero = np.concatenate([point.z.real, point.w]), cone.witness
    res = orbit_points(M, x_minus, x_zero).distance(point)
    if not np.isfinite(res) or res > ORBIT_TOL * max(1.0, float(np.linalg.norm(point.pack()))):
        raise SolverDiverged(f"orbit solve residual {res:.2e} exceeds {ORBIT_TOL:.2e}")
    return x_minus, x_zero


def orbit_points(M: SiegelModel, x_minus, x_zero) -> DomainPoint:
    """s . z0 for s = exp(x_minus) exp(x_zero), over common leading stack
    axes of the coordinates.

    At the base point (i xi0, 0) the displayed action reads z = xi +
    i Ad(exp x_zero) xi0 + i Phi(xi', xi') and w = xi': one
    ``_cone_points`` and one Phi, and no group element.  Phi(xi', xi') is
    real; its imaginary part is rounding and is dropped, so re z is xi.
    """
    x_minus = np.asarray(x_minus, dtype=float)
    xi, xip = x_minus[..., : M.p], x_minus[..., M.p :]
    cone = _cone_points(M, np.asarray(x_zero, dtype=float))
    return DomainPoint(xi + 1j * (cone + M.phi(xip, xip).real), xip)


# ---------------------------------------------------------------------------
# fundamental vector fields and sampling
# ---------------------------------------------------------------------------

def vector_field(x, point: DomainPoint, M: SiegelModel) -> np.ndarray:
    """Value at ``point`` of the field generated by an algebra element.

    Returns a complex vector over the complex coordinates (z, w); the
    w-block uses the complex pairing of the model.  Elements (..., dim) and
    points broadcast against each other over leading stack axes, so one
    call evaluates many fields at many points.
    """
    x = np.asarray(x, dtype=float)
    xi, xip, x0 = x[..., : M.p], x[..., M.p : M.p + M.q], x[..., M.p + M.q :]
    A1, Ah = _ad_blocks(M, x0)
    dz = -(A1 @ point.z[..., None])[..., 0] + xi + 2j * M.phi(point.w, xip)
    dw = -(Ah @ point.w[..., None])[..., 0] + xip
    return np.concatenate([dz, M.to_complex_w(dw)], axis=-1)


def random_interior_points(M: SiegelModel, count: int, rng) -> DomainPoint:
    """``count`` interior points as one stacked ``DomainPoint``: the
    orbit points of exp(re z, w) exp(g0), so im(z) = Phi(w, w) +
    Ad(exp g0) xi0.

    Point k takes row k of a single ``rng.random((count, q + 1 + p0 + p))``
    draw: w uniform in [-1, 1]^q, moved to a radius uniform in [0.2, 1]
    (the next column) when it falls outside the unit ball; g0 uniform in
    [-1, 1]^p0; re(z) uniform in [-2, 2]^p.
    """
    q, p0 = M.q, M.p0
    u = rng.random((count, q + 1 + p0 + M.p))
    w = -1.0 + 2.0 * u[:, :q]
    nw = np.linalg.norm(w, axis=1, keepdims=True)
    radius = 0.2 + 0.8 * u[:, q : q + 1]
    w = w * np.where(nw > 1.0, radius / np.maximum(nw, 1.0), 1.0)
    re_z = -2.0 + 4.0 * u[:, q + 1 + p0 :]
    return orbit_points(M, np.concatenate([re_z, w], axis=1), -1.0 + 2.0 * u[:, q + 1 : q + 1 + p0])
