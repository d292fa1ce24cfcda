"""Unit-ball specifics: canonical presets and the totally-real subalgebra
construction.

The constructive lemmas are implemented for any rank-one model, not just
the canonical preset: the fibration tower produces ball-like fibers whose
half blocks come from half, sum and diff roots, and the same two-step
conjugation and symplectic-pair constructions apply there verbatim.  Every
vector here is in the model's coordinates (xi, half block, eta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HeisenbergCheckFailed,
    NotInNilradical,
    TotallyRealCheckFailed,
    ZeroSemisimplePart,
)
from .jalgebra import NormalJAlgebra, ball_jalgebra
from .lie_core import Subspace, _relative_residual, ad_matrix, closure_residual, residual_outside, span
from .siegel import DomainPoint, SiegelModel, _expm_stack, build_model, vector_field

# bound on the residual of totally_real_residuals for an accepted witness
WITNESS_RESIDUAL = 1e-9
# |det [U | jhalf U]| over an orthonormal basis of a witness's half part U
# is 1 when U is orthogonal to jhalf U and 0 when U holds a complex line;
# a witness is refused at or below this
TOTALLY_REAL_MIN = 1e-6


@dataclass(frozen=True, eq=False)
class BallAlgebra:
    n: int
    J: NormalJAlgebra
    model: SiegelModel


def ball_algebra(n: int) -> BallAlgebra:
    J = ball_jalgebra(n)
    return BallAlgebra(n, J, build_model(J))


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


def abelian_branch(x, M: SiegelModel) -> bool:
    """Whether x has no frame coefficient: one at most ``WITNESS_RESIDUAL``
    relative to max(1, |x|), the bound the witness is held to, is noise.
    Then :func:`totally_real_subalgebra` takes the abelian construction."""
    x = np.asarray(x, dtype=float)
    return abs(float(x[-1])) <= WITNESS_RESIDUAL * max(1.0, float(np.linalg.norm(x)))


def abelian_subalgebra_containing(x, M: SiegelModel) -> Subspace:
    """Abelian subalgebra of the nilradical through x, of full complex dim.

    Splits x over the symplectic pairs of the half block and keeps one
    direction per pair (the pair component when present, the first pair
    vector otherwise) together with the center line.
    """
    require_ball_like(M)
    if not abelian_branch(x, M):
        raise NotInNilradical("vector has a semisimple component")
    xh = np.asarray(x, dtype=float)[M.p : M.p + M.q]
    cols = [np.concatenate([[1.0], np.zeros(M.J.dim - 1)])]  # the center line of the nilradical
    P = M.hb[:, :, 0] if M.q else np.zeros((0, 0))
    for e, f, s in M.symplectic_pairs:
        comp = (float(e @ P @ xh) / s) * f - (float(f @ P @ xh) / s) * e
        chosen = comp if np.linalg.norm(comp) > 1e-10 * max(1.0, np.linalg.norm(xh)) else e
        cols.append(np.concatenate([np.zeros(M.p), chosen, np.zeros(M.p0)]))
    return span(cols, M.J.dim)


def conjugate_into_a(x, M: SiegelModel) -> np.ndarray:
    """x_minus of the group element whose adjoint moves x into the abelian
    frame line.

    Two exact conjugations: one along the half component (its bracket with
    the frame rescales it), then one along the center line.  Both are
    nilpotent directions and the center line commutes with the half block,
    so their product is exp of the sum, closed-form in the semisimple
    coefficient.
    """
    require_ball_like(M)
    if abelian_branch(x, M):
        raise ZeroSemisimplePart("the frame coefficient vanishes")
    x = np.asarray(x, dtype=float)
    a = float(x[-1])
    return np.concatenate([[x[0] / a], (2.0 / a) * x[M.p : M.p + M.q]])


def _lift(x_minus, M: SiegelModel) -> np.ndarray:
    """Ad(exp x_minus)^-1 = expm(ad v), v = (x_minus, 0), which carries the
    split subalgebra back onto the witness; conjugating the witness forward
    instead would lose rounding times |x_minus|^2."""
    return _expm_stack(ad_matrix(np.concatenate([np.asarray(x_minus, dtype=float), np.zeros(M.p0)]), M.J.L))


def _frame_residual(x, lift) -> float:
    """|x - a lift eta| / max(1, |x|), a the frame coefficient of x."""
    return float(np.linalg.norm(x - x[-1] * lift[:, -1])) / max(1.0, float(np.linalg.norm(x)))


def nilpotent_residual(x, x_minus, M: SiegelModel) -> float:
    """How far Ad(exp x_minus) is from moving x onto the frame line: the
    distance of x from its frame coefficient times Ad(exp x_minus)^-1 eta,
    relative to max(1, |x|)."""
    return _frame_residual(np.asarray(x, dtype=float), _lift(x_minus, M))


def totally_real_subalgebra(x, M: SiegelModel):
    """Full-dimension subalgebra V through x meant to have totally real
    orbits, with the x_minus of the conjugator of the construction.

    With a nonzero frame coefficient the vector is conjugated onto the
    frame line and the split subalgebra (frame + one Lagrangian half of
    each symplectic pair) is pulled back; otherwise the abelian
    construction applies and the conjugator is the identity (x_minus 0).
    Nothing is checked here: :func:`totally_real_residuals` measures both.
    """
    require_ball_like(M)
    if abelian_branch(x, M):
        return abelian_subalgebra_containing(x, M), np.zeros(M.p + M.q)
    x_minus = conjugate_into_a(x, M)
    adj_inv = _lift(x_minus, M)
    cols = [adj_inv[:, -1]]  # the frame line eta_1
    for e, _, _ in M.symplectic_pairs:
        cols.append(adj_inv[:, M.p : M.p + M.q] @ e)
    return span(cols, M.J.dim), x_minus


def totally_real_residuals(x, V: Subspace, conjugator, M: SiegelModel):
    """(residual, |det [U | jhalf U]|) of V, with the x_minus ``conjugator``
    of its construction, as a totally-real witness through x.  This is the
    one acceptance rule: it raises ``TotallyRealCheckFailed`` for a wrong
    dimension or conjugator shape and when the determinant is at most
    ``TOTALLY_REAL_MIN``, and its callers accept a residual within
    ``WITNESS_RESIDUAL``.

    Let l be the center line Rxi and g = 1 when x has no frame coefficient,
    otherwise the frame line Reta and g = exp(conjugator).  U is an
    orthonormal basis of the half part of V's slice with no l-coordinate.
    The residual is the largest of the distance of x from V, relative to
    max(1, |x|), the closure residual of V, with a frame coefficient the
    ``nilpotent_residual``, and the distances from V of Ad(g)^-1 of l and
    of U's columns, each relative to max(1, its norm): V = Ad(g)^-1 (l + U).

    Then the fields of V are independent over C on all of D.  With u_C the
    complex coordinates of u (``to_complex_w``), |det [U | jhalf U]| =
    |det U_C|^2.  No frame coefficient: the fields xi -> (1, 0) and u ->
    (2i Phi(w, u), u_C) have the constant determinant det U_C.  A frame
    coefficient: g lies in exp(s_{-1} + s_{-1/2}), an affine map of D onto
    itself with unipotent complex Jacobian, so V's determinant at p is that
    of V0 = Reta + U at g.p.  [U, U] lies in Rxi, which misses V0, so
    closure makes Im Phi vanish on U and H = Phi(U, U) real and, as Phi is,
    positive definite.  eta = delta has the field (z, w_C / 2); with w_C =
    U_C a, the determinant is det U_C (z - i a^T H a), Phi being
    complex-linear in its first argument, and |a^T H a| <= a* H a = Phi(w,
    w) by Cauchy-Schwarz: its imaginary part is at least im z - Phi(w, w),
    which is positive on D.
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
    Q, h = V.orthonormal(), slice(M.p, M.p + M.q)
    if abelian_branch(x, M):
        if np.any(conjugator):
            raise TotallyRealCheckFailed("an element with no frame coefficient takes no conjugator")
        line, lift = 0, np.eye(M.J.dim)
    else:
        line, lift = M.J.dim - 1, _lift(conjugator, M)
        res = max(res, _frame_residual(x, lift))
    # Q turned so that its first column carries all of the l-coordinate
    rest = Q @ np.linalg.qr(Q[line][:, None], mode="complete")[0][:, 1:]
    U = np.linalg.svd(rest[h], full_matrices=False)[0]
    res = max(res, _relative_residual(np.column_stack([lift[:, line], lift[:, h] @ U]).T, V))
    det = abs(float(np.linalg.det(np.hstack([U, M.jhalf @ U]))))
    if not det > TOTALLY_REAL_MIN:
        raise TotallyRealCheckFailed(f"the witness's half part is not totally real (|det [U | jU]| {det:.2e})")
    return res, det


def totally_real_subalgebra_containing(x, M: SiegelModel):
    """:func:`totally_real_subalgebra`, checked by
    :func:`totally_real_residuals`."""
    V, x_minus = totally_real_subalgebra(x, M)
    res, _ = totally_real_residuals(x, V, x_minus, M)
    if not res <= WITNESS_RESIDUAL:
        raise TotallyRealCheckFailed(
            f"subalgebra misses the input vector, is not closed or is badly conjugated (residual {res:.2e})"
        )
    return V, x_minus
