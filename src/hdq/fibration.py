"""The equivariant submersion onto a lower-rank Siegel domain.

Dropping the last fundamental root splits the algebra along the model's
own adapted basis: the columns of ``M.C`` whose root involves the last
frame index (``SiegelModel.frame_indices``) span a j-invariant ideal, and
the other columns a j-invariant subalgebra.  Both are spanned by root
spaces of the input (Vinberg, Gindikin and Pyatetskii-Shapiro 1963), so
in the adapted basis each is a coordinate slice.  The algebra is rebased
into that basis once, at the top of the tower (``jalgebra.adapted``);
every level below works in it already.

- The quotient is the subalgebra on the kept columns.  Its algebra and
  its model are index slices of the parent's (``jalgebra.subalgebra``,
  ``siegel.restrict_model``), with ``C`` the identity, and no new root
  decomposition or inverse is computed.
- The ideal is the rank-one algebra of a unit ball
  (``ball.require_ball_like`` checks its model), regraded: xi and eta of
  the last root are its (-1)- and 0-blocks, and every other column joins
  its half block, paired anew under j.
- The gates are block residuals of the adapted bracket and j: the kept
  columns must be closed under the bracket and j-invariant, the dropped
  ones a j-invariant ideal, and the form must keep its orientation and
  Hermitian axioms on every model.

The omega-orthogonal projection onto the subalgebra is an algebra
homomorphism; complexified on the (-1)-block it realizes the equivariant
submersion between the two Siegel domains.  ``quotient_map`` is that
projection, computed from the adapted Gram matrix; it is not the
coordinate selection, and ``check_equivariance`` measures it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import require_ball_like
from .errors import RootPatternViolation
from .jalgebra import NormalJAlgebra, adapted, gram, subalgebra
from .siegel import (
    DomainPoint,
    SiegelModel,
    _complex_pairs,
    assemble_model,
    build_model,
    orbit_points,
    restrict_model,
)


@dataclass(frozen=True, eq=False)
class FibrationStep:
    """One level of the tower: the domain, quotient and fiber models, the
    ideal's basis in the domain algebra (``b_basis``, the fiber algebra's
    basis), and the quotient map.

    ``b_basis`` holds the columns of the domain model's ``C`` whose root
    involves the last frame index, in their order there; the quotient
    algebra ``quotient_model.J`` is the domain's adapted algebra on the
    other columns, with ``C`` the identity, and the fiber algebra
    ``fiber_model.J`` the one on ``b_basis``, with its half block paired
    anew under j.  ``quotient_map`` is the projection from the domain's
    adapted coordinates (the model's ``C`` basis, blocks s_{-1} | s_{-1/2}
    | s_0) to the quotient's: the omega-orthogonal projection onto the
    subalgebra, in its basis, computed once per split.  It is graded, so
    ``project_point`` and ``push_group`` apply its diagonal blocks to
    stacks of rows.
    """

    domain_model: SiegelModel
    quotient_model: SiegelModel
    fiber_model: SiegelModel
    b_basis: np.ndarray
    quotient_map: np.ndarray


def split_last_root(M: SiegelModel) -> FibrationStep:
    """Split off the last fundamental root; see the module docstring."""
    r = M.rank
    if r < 1:
        raise RootPatternViolation("need rank at least one to split")
    J = adapted(M.J, M.C)
    ideal = np.array([r - 1 in idx for idx in M.frame_indices], dtype=bool)
    kept = ~ideal
    quotient_model = restrict_model(M, subalgebra(J, kept), kept, r - 1)
    # the fiber: xi_{r-1} leads the ideal's columns and eta_{r-1} its 0-block;
    # every other column is a half column of the fiber, paired under j
    Jb = subalgebra(J, ideal, ideal=True)
    E, eta = np.eye(Jb.dim), int(np.sum(ideal[: M.p + M.q]))
    paired, m = _complex_pairs(np.delete(E, [0, eta], axis=1), Jb.j)
    fiber_layout = (1, 2 * m, ((0, m),) if m else (), ((0,),) * Jb.dim)
    fiber_model = assemble_model(Jb, np.column_stack([E[:, 0], paired, E[:, eta]]), 1, fiber_layout)
    require_ball_like(fiber_model)
    G = gram(J)
    return FibrationStep(
        domain_model=M,
        quotient_model=quotient_model,
        fiber_model=fiber_model,
        b_basis=np.ascontiguousarray(M.C[:, ideal]),
        quotient_map=np.linalg.solve(G[np.ix_(kept, kept)], G[kept]),
    )


# ---------------------------------------------------------------------------
# the submersion on points and exponential coordinates
# ---------------------------------------------------------------------------

def project_point(point: DomainPoint, F: FibrationStep) -> DomainPoint:
    """Apply the complexified projection to a point or a stack of points."""
    M, Mq = F.domain_model, F.quotient_model
    Q = F.quotient_map
    z_q = point.z @ Q[: Mq.p, : M.p].T
    w_q = point.w @ Q[Mq.p : Mq.p + Mq.q, M.p : M.p + M.q].T
    return DomainPoint(z_q, w_q)


def push_group(x_minus, x_zero, F: FibrationStep):
    """Push exponential coordinates (of one element or a stack) through the
    quotient homomorphism: the quotient's ``(x_minus, x_zero)``."""
    M, Mq = F.domain_model, F.quotient_model
    Q = F.quotient_map
    k, kq = M.p + M.q, Mq.p + Mq.q
    return x_minus @ Q[:kq, :k].T, x_zero @ Q[kq:, k:].T


def check_equivariance(F: FibrationStep, samples: int = 100, seed: int = 0) -> float:
    """Max over random group elements s of |pi(s . z0) - pi_*(s) . pi(z0)|.

    The ``samples`` elements are drawn in one call, uniform in [-1, 1] per
    exponential coordinate.  Both sides of the square are stacks of orbit
    points (``siegel.orbit_points``): of s on the domain, projected by the
    stored ``quotient_map``, and of the pushed coordinates on the quotient.
    """
    rng = np.random.default_rng(seed)
    M, Mq = F.domain_model, F.quotient_model
    k = M.p + M.q
    coords = rng.uniform(-1.0, 1.0, (samples, k + M.p0))
    x_minus, x_zero = coords[:, :k], coords[:, k:]
    lhs = project_point(orbit_points(M, x_minus, x_zero), F)
    rhs = orbit_points(Mq, *push_group(x_minus, x_zero, F))
    dist = np.linalg.norm(lhs.z - rhs.z, axis=-1) + np.linalg.norm(lhs.w - rhs.w, axis=-1)
    return float(np.max(dist, initial=0.0))


def tower(J: NormalJAlgebra):
    """Iterate the split until the quotient is a point; rank steps down by 1."""
    steps, M = [], build_model(J)
    while M.J.dim:
        steps.append(split_last_root(M))
        M = steps[-1].quotient_model
    return steps
