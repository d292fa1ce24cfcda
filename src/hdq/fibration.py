"""The equivariant submersion onto a lower-rank Siegel domain.

Dropping the last fundamental root splits the algebra into a j-invariant
subalgebra (everything the last root does not touch) and a complementary
j-invariant ideal that is structurally the rank-one algebra of a unit
ball: rank one, with a Heisenberg derived algebra whose center is the last
full-root line and a nondegenerate symplectic bracket on its half block.
The omega-orthogonal projection onto the subalgebra is an algebra
homomorphism; complexified on the (-1)-block it realizes the equivariant
submersion between the two Siegel domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    HeisenbergCheckFailed,
    ImageOutsideDomain,
    NotInDomain,
    RootPatternViolation,
)
from .jalgebra import NormalJAlgebra, fine_structure, gram, subalgebra
from .lie_core import bracket_table, derived_algebra
from .siegel import (
    DomainPoint,
    GroupElement,
    SiegelModel,
    _aligned_basis,
    act,
    build_model,
    contains,
    group_element,
)


@dataclass(frozen=True, eq=False)
class FibrationStep:
    """One level of the tower: the domain, quotient and fiber models, the
    ideal's basis in the domain algebra (``b_basis``, the fiber algebra's
    basis), and the quotient map.

    The quotient algebra is ``quotient_model.J`` and the fiber algebra
    ``fiber_model.J``.  ``quotient_map`` is the projection from the
    domain's adapted coordinates (the model's ``C`` basis, blocks s_{-1} |
    s_{-1/2} | s_0) to the quotient's adapted coordinates: the
    omega-orthogonal projection onto the subalgebra, in its basis, between
    ``M.C`` and ``Mq.Cinv``; it is computed once per split.  It is graded,
    so ``project_point`` and ``push_group`` apply its diagonal blocks to
    stacks of rows, and ``check_equivariance`` pushes all its samples
    through it in one product per side.
    """

    domain_model: SiegelModel
    quotient_model: SiegelModel
    fiber_model: SiegelModel
    b_basis: np.ndarray
    quotient_map: np.ndarray


def split_last_root(J: NormalJAlgebra, model: SiegelModel | None = None) -> FibrationStep:
    """Split off the last fundamental root; see the module docstring."""
    fine = fine_structure(J)
    r = fine.rank
    if r < 1:
        raise RootPatternViolation("need rank at least one to split")
    if model is None:
        model = build_model(J)
    n = J.dim

    def spaces(kind, member):
        return [rt.space for rt in fine.roots if rt.label[0] == kind and member(rt.label)]

    # subalgebra: every root not involving the last fundamental root
    prime_cols = [fine.xi[k] for k in range(r - 1)]
    for sp in spaces("sum", lambda l: l[2] < r - 1):
        prime_cols.extend(_aligned_basis(sp).T)
    for sp in spaces("half", lambda l: l[1] < r - 1):
        prime_cols.extend(_aligned_basis(sp).T)
    prime_cols += [fine.eta[k] for k in range(r - 1)]
    for sp in spaces("diff", lambda l: l[1] < r - 1):
        prime_cols.extend(_aligned_basis(sp).T)

    # ideal: everything the last root touches
    b_cols = [fine.xi[r - 1]]
    for sp in spaces("sum", lambda l: l[2] == r - 1):
        b_cols.extend(_aligned_basis(sp).T)
    for sp in spaces("half", lambda l: l[1] == r - 1):
        b_cols.extend(_aligned_basis(sp).T)
    b_cols.append(fine.eta[r - 1])
    for sp in spaces("diff", lambda l: l[1] == r - 1):
        b_cols.extend(_aligned_basis(sp).T)

    B_prime = np.column_stack(prime_cols) if prime_cols else np.zeros((n, 0))
    B_ideal = np.column_stack(b_cols)
    if B_prime.shape[1] + B_ideal.shape[1] != n:
        raise RootPatternViolation("root split does not fill the algebra")
    if B_ideal.shape[1] % 2:
        raise HeisenbergCheckFailed("ideal has odd dimension")

    if B_prime.shape[1]:
        G = gram(J)
        coords = np.linalg.solve(B_prime.T @ G @ B_prime, B_prime.T @ G)
    else:
        coords = np.zeros((0, n))

    s_prime = subalgebra(J, B_prime)
    b_jalg = subalgebra(J, B_ideal)
    _ball_structure_checks(b_jalg)
    quotient_model = build_model(s_prime)
    return FibrationStep(
        domain_model=model,
        quotient_model=quotient_model,
        fiber_model=build_model(b_jalg),
        b_basis=B_ideal,
        quotient_map=quotient_model.Cinv @ coords @ model.C,
    )


def _ball_structure_checks(b_jalg: NormalJAlgebra):
    """Raise unless the ideal is ball-like: rank one, a derived algebra of
    dimension 2m - 1 (m its complex dimension), and a nondegenerate
    symplectic pairing on its half block.  Together with the rank-one fine
    structure these make the derived algebra a Heisenberg algebra whose
    center is the full-root line."""
    fine_b = fine_structure(b_jalg)
    if fine_b.rank != 1:
        raise HeisenbergCheckFailed(f"ideal has rank {fine_b.rank}, expected 1")
    der = derived_algebra(b_jalg.L)
    if der.dim != b_jalg.dim - 1:
        raise HeisenbergCheckFailed(
            f"derived algebra of the ideal has dim {der.dim}, expected {b_jalg.dim - 1}"
        )
    half = fine_b.s_minushalf
    if half.dim:
        xi_vec = fine_b.xi[0]
        H = half.basis_matrix
        P = bracket_table(H, H, b_jalg.L) @ xi_vec / float(xi_vec @ xi_vec)
        det = abs(np.linalg.det(P))
        if det < 1e-10:
            raise HeisenbergCheckFailed(f"symplectic pairing is degenerate (|det| {det:.2e})")


# ---------------------------------------------------------------------------
# the submersion on points and group elements
# ---------------------------------------------------------------------------

def project_point(point: DomainPoint, F: FibrationStep, check: bool = True) -> DomainPoint:
    """Apply the complexified projection to a point or a stack of points.

    With ``check`` the point (a single one) and its image must lie in the
    source and target domains.
    """
    M, Mq = F.domain_model, F.quotient_model
    if check and not contains(point, M, 1e-7):
        raise NotInDomain("point to project is outside the domain")
    Q = F.quotient_map
    z_q = point.z @ Q[: Mq.p, : M.p].T
    w_q = point.w @ Q[Mq.p : Mq.p + Mq.q, M.p : M.p + M.q].T
    out = DomainPoint(z_q, w_q)
    if check and not contains(out, Mq, 1e-7):
        raise ImageOutsideDomain("projected point left the quotient domain")
    return out


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
    lhs = project_point(act(s, M.base_point(), M), F, check=False)
    rhs = act(push_group(s, F), Mq.base_point(), Mq)
    dist = np.linalg.norm(lhs.z - rhs.z, axis=-1) + np.linalg.norm(lhs.w - rhs.w, axis=-1)
    return float(np.max(dist, initial=0.0))


def tower(J: NormalJAlgebra):
    """Iterate the split until the quotient is a point; rank steps down by 1."""
    steps, M = [], build_model(J)
    while M.J.dim:
        steps.append(split_last_root(M.J, M))
        M = steps[-1].quotient_model
    return steps
