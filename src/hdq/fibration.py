"""The equivariant submersion onto a lower-rank Siegel domain.

Dropping the last fundamental root splits the algebra along the model's
own adapted basis: the columns of ``M.C`` whose root involves the last
frame index (``SiegelModel.frame_indices``) span a j-invariant ideal, and
the other columns a j-invariant subalgebra.  Both are spanned by root
spaces of the input, so both are split solvable, and their models are
assembled on these columns with no new root decomposition.  The quotient
keeps its columns as they are.  The ideal is the rank-one algebra of a
unit ball (``ball.require_ball_like`` checks its model), regraded: xi and
eta of the last root are its (-1)- and 0-blocks, and every other column
joins its half block.  The omega-orthogonal projection onto the
subalgebra is an algebra homomorphism; complexified on the (-1)-block it
realizes the equivariant submersion between the two Siegel domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import require_ball_like
from .errors import RootPatternViolation
from .jalgebra import NormalJAlgebra, gram, subalgebra
from .siegel import (
    DomainPoint,
    GroupElement,
    SiegelModel,
    _complex_pairs,
    act,
    assemble_model,
    build_model,
    group_element,
)


@dataclass(frozen=True, eq=False)
class FibrationStep:
    """One level of the tower: the domain, quotient and fiber models, the
    ideal's basis in the domain algebra (``b_basis``, the fiber algebra's
    basis), and the quotient map.

    ``b_basis`` holds the columns of the domain model's ``C`` whose root
    involves the last frame index, in their order there; the quotient
    algebra ``quotient_model.J`` is built on the other columns, with ``C``
    the identity, and the fiber algebra ``fiber_model.J`` on ``b_basis``,
    with its half block paired anew under j.  ``quotient_map`` is
    the projection from the domain's adapted coordinates (the model's
    ``C`` basis, blocks s_{-1} | s_{-1/2} | s_0) to the quotient's adapted
    coordinates: the omega-orthogonal projection onto the subalgebra, in
    its basis, between ``M.C`` and ``Mq.Cinv``; it is computed once per
    split.  It is graded, so ``project_point`` and ``push_group`` apply its
    diagonal blocks to stacks of rows, and ``check_equivariance`` pushes
    all its samples through it in one product per side.
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
    J = M.J
    ideal = np.array([r - 1 in idx for idx in M.frame_indices])
    # C-ordered like a column stack: masked columns come out Fortran-ordered,
    # and products with them differ in the last digits
    B_prime = np.ascontiguousarray(M.C[:, ~ideal])
    B_ideal = np.ascontiguousarray(M.C[:, ideal])
    G = gram(J)
    coords = np.linalg.solve(B_prime.T @ G @ B_prime, B_prime.T @ G)
    # the fiber: xi_{r-1} leads the ideal's columns and eta_{r-1} its 0-block;
    # every other column is a half column of the fiber, paired under j
    Jb = subalgebra(J, B_ideal)
    E, eta = np.eye(Jb.dim), int(np.sum(ideal[: M.p + M.q]))
    paired, m = _complex_pairs(np.delete(E, [0, eta], axis=1), Jb.j)
    fiber_layout = (1, 2 * m, ((0, m),) if m else (), ((0,),) * Jb.dim)
    fiber_model = assemble_model(Jb, np.column_stack([E[:, 0], paired, E[:, eta]]), 1, fiber_layout)
    require_ball_like(fiber_model)
    # the quotient keeps the rest of the parent's columns, in their order
    kept = ~ideal[M.p : M.p + M.q]
    half_pairs = tuple((int(np.sum(kept[:o])), size) for o, size in M.half_pairs if kept[o])
    frame_indices = tuple(idx for idx, i in zip(M.frame_indices, ideal) if not i)
    layout = (int(np.sum(~ideal[: M.p])), int(np.sum(kept)), half_pairs, frame_indices)
    quotient_model = assemble_model(subalgebra(J, B_prime), np.eye(len(frame_indices)), r - 1, layout)
    return FibrationStep(
        domain_model=M,
        quotient_model=quotient_model,
        fiber_model=fiber_model,
        b_basis=B_ideal,
        quotient_map=quotient_model.Cinv @ coords @ M.C,
    )


# ---------------------------------------------------------------------------
# the submersion on points and group elements
# ---------------------------------------------------------------------------

def project_point(point: DomainPoint, F: FibrationStep) -> DomainPoint:
    """Apply the complexified projection to a point or a stack of points."""
    M, Mq = F.domain_model, F.quotient_model
    Q = F.quotient_map
    z_q = point.z @ Q[: Mq.p, : M.p].T
    w_q = point.w @ Q[Mq.p : Mq.p + Mq.q, M.p : M.p + M.q].T
    return DomainPoint(z_q, w_q)


def push_group(g: GroupElement, F: FibrationStep) -> GroupElement:
    """Push exponential coordinates (of one element or a stack) through the
    quotient homomorphism."""
    M, Mq = F.domain_model, F.quotient_model
    Q = F.quotient_map
    k, kq = M.p + M.q, Mq.p + Mq.q
    return group_element(Mq, g.x_minus @ Q[:kq, :k].T, g.x_zero @ Q[kq:, k:].T)


def check_equivariance(F: FibrationStep, samples: int = 100, seed: int = 0) -> float:
    """Max over random group elements s of |pi(s . z0) - pi_*(s) . pi(z0)|.

    The ``samples`` elements are drawn in one call, uniform in [-1, 1] per
    exponential coordinate, and both sides of the square are evaluated as
    stacks: one batched ``group_element`` on each domain and one product
    with the stored ``quotient_map`` on each side.
    """
    rng = np.random.default_rng(seed)
    M, Mq = F.domain_model, F.quotient_model
    k = M.p + M.q
    coords = rng.uniform(-1.0, 1.0, (samples, k + M.p0))
    s = group_element(M, coords[:, :k], coords[:, k:])
    lhs = project_point(act(s, M.base_point(), M), F)
    rhs = act(push_group(s, F), Mq.base_point(), Mq)
    dist = np.linalg.norm(lhs.z - rhs.z, axis=-1) + np.linalg.norm(lhs.w - rhs.w, axis=-1)
    return float(np.max(dist, initial=0.0))


def tower(J: NormalJAlgebra):
    """Iterate the split until the quotient is a point; rank steps down by 1."""
    steps, M = [], build_model(J)
    while M.J.dim:
        steps.append(split_last_root(M))
        M = steps[-1].quotient_model
    return steps
