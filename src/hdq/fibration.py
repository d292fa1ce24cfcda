"""The equivariant submersion onto a lower-rank Siegel domain.

Dropping the last fundamental root splits the model's algebra ``M.J``,
which is already over the model's own basis: the columns whose root
involves the last frame index (``SiegelModel.frame_indices``) span a
j-invariant ideal, and the other columns a j-invariant subalgebra.  Both
are spanned by root spaces of the input (Vinberg, Gindikin and
Pyatetskii-Shapiro 1963), so each is a coordinate slice, and no level
rebases again.

- The quotient is the subalgebra on the kept columns
  (``jalgebra.subalgebra``), and its model is ``siegel.assemble_model`` on
  it with the identity basis: every tensor is again a slice, and no root
  decomposition or inverse is computed.  Its form must keep the parent's
  orientation sign.
- The ideal is the rank-one algebra of a unit ball
  (``ball.require_ball_like`` checks its model), regraded: xi and eta of
  the last root are its (-1)- and 0-blocks, and every other column joins
  its half block, paired anew under j.  The fiber model's basis is that
  pairing: to rounding, a signed permutation of the ideal's columns on
  the presets, their relabelled and rebased copies and the tube over
  Sym+(2).
- The gates are block residuals of the bracket and j: the kept columns
  must be closed under the bracket and j-invariant, the dropped ones a
  j-invariant ideal, and the form must keep its orientation and
  Hermitian axioms on every model.

Root spaces are orthogonal for <x, y> = omega([j x, y]), so once the
gates pass, the omega-orthogonal projection onto the subalgebra, the
homomorphism that realizes the equivariant submersion, is the coordinate
selection ``quotient_map`` up to a structural residual (``Tower.residual``).
Every level's basis is a slice of level 1's, so a log in the level-1
model's coordinates descends the tower by indexing with each ``ideal``
mask.  ``check_equivariance`` samples the square on points instead, as a
diagnostic that no step of the walk reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import require_ball_like
from .errors import PositivityUnfixable, RootPatternViolation
from .jalgebra import gram, leakage, subalgebra
from .siegel import DomainPoint, SiegelModel, _complex_pairs, assemble_model, orbit_points


@dataclass(frozen=True, eq=False)
class FibrationStep:
    """One level of the tower: the domain, quotient and fiber models, the
    quotient map, the ``ideal`` mask over the domain model's columns, and
    the ``leakage`` its two subalgebra gates measured.

    ``ideal`` marks the columns whose root involves the last frame index;
    the quotient algebra is ``domain_model.J`` on the other columns, and
    the fiber model's algebra is ``domain_model.J`` on these, over the
    fiber's pairing basis (``fiber_model.basis``).  A vector y in the
    domain model's coordinates has quotient image ``y[~ideal]`` and fiber
    part ``solve(fiber_model.basis, y[ideal])``.  ``quotient_map`` is the
    quotient selection as a matrix (blocks s_{-1} | s_{-1/2} | s_0); it is
    graded, so ``project_point`` and ``push_group`` apply its diagonal
    blocks to stacks of rows.
    """

    domain_model: SiegelModel
    quotient_model: SiegelModel
    fiber_model: SiegelModel
    quotient_map: np.ndarray
    ideal: np.ndarray
    leakage: tuple         # (bracket, j) leakage of the kept columns, then of the ideal's


def split_last_root(M: SiegelModel) -> FibrationStep:
    """Split off the last fundamental root; see the module docstring."""
    r, J = M.rank, M.J
    if r < 1:
        raise RootPatternViolation("need rank at least one to split")
    ideal = np.array([r - 1 in idx for idx in M.frame_indices], dtype=bool)
    kept = ~ideal
    # the kept columns keep their order; so does each complex pair of the
    # half block, which the columns keep or drop whole
    kh = kept[M.p : M.p + M.q]
    layout = (
        int(np.count_nonzero(kept[: M.p])),
        int(np.count_nonzero(kh)),
        tuple((int(np.count_nonzero(kh[:o])), m) for o, m in M.half_pairs if kh[o]),
        tuple(idx for idx, k in zip(M.frame_indices, kept) if k),
    )
    leak = leakage(J, kept) + leakage(J, ideal, ideal=True)
    Jq = subalgebra(J, kept, leak=leak[:2])
    quotient_model = assemble_model(Jq, None, r - 1, layout)
    if quotient_model.q and quotient_model.sigma != M.sigma:
        raise PositivityUnfixable("the quotient's form is not cone-positive in its parent's orientation")
    # the fiber: xi_{r-1} leads the ideal's columns and eta_{r-1} its 0-block;
    # every other column is a half column of the fiber, paired under j (a
    # disc has none, and keeps the ideal's basis)
    Jb = subalgebra(J, ideal, ideal=True, leak=leak[2:])
    E, eta = np.eye(Jb.dim), int(np.count_nonzero(ideal[: M.p + M.q]))
    paired, m = _complex_pairs(np.delete(E, [0, eta], axis=1), Jb.j)
    fiber_layout = (1, 2 * m, ((0, m),) if m else (), ((0,),) * Jb.dim)
    basis = np.column_stack([E[:, 0], paired, E[:, eta]]) if m else None
    fiber_model = assemble_model(Jb, basis, 1, fiber_layout)
    require_ball_like(fiber_model)
    quotient_map = np.eye(J.dim)[kept]
    for a in (quotient_map, ideal):  # a step may be shared by many walks
        a.setflags(write=False)
    return FibrationStep(
        domain_model=M,
        quotient_model=quotient_model,
        fiber_model=fiber_model,
        quotient_map=quotient_map,
        ideal=ideal,
        leakage=leak,
    )


class Tower:
    """The tower of the model ``M``, split lazily: ``tower[k]`` is level k.
    Level k drops frame index rank - k, so the columns of M's basis in its
    domain are those whose roots involve no higher index: masks read
    off ``M.frame_indices`` once.  The level-1 Gram matrix and each
    level's structural residual are computed once, when first read, so a
    tower shared by many walks (``analyzer._prepared``) splits and
    measures each level once."""

    def __init__(self, M: SiegelModel):
        self.model, self.steps, self.gram, self.residuals = M, [], None, {}
        top = np.array([max(idx) for idx in M.frame_indices], dtype=int)
        self.domains = [top <= M.rank - k for k in range(1, M.rank + 1)]

    def __getitem__(self, level: int) -> FibrationStep:
        while len(self.steps) < level:
            self.steps.append(split_last_root(self.steps[-1].quotient_model if self.steps else self.model))
        return self.steps[level - 1]

    def residual(self, level: int) -> float:
        """The largest bracket and j ``leakage`` of the level's kept and
        ideal columns, as its split's gates measured them, and metric
        cosine |G[a, b]| / sqrt(G[a, a] G[b, b]) over kept a and ideal b:
        0 when the selection is the projection."""
        if level in self.residuals:
            return self.residuals[level]
        F, d = self[level], self.domains[level - 1]
        if self.gram is None:
            self.gram = gram(self[1].domain_model.J)
        G = self.gram[d][:, d]
        kept, ideal, norms = ~F.ideal, F.ideal, np.sqrt(np.diag(G))
        cosine = np.abs(G[kept][:, ideal]) / np.outer(norms[kept], norms[ideal])
        self.residuals[level] = max(*F.leakage, float(np.max(cosine, initial=0.0)))
        return self.residuals[level]


# ---------------------------------------------------------------------------
# the submersion on points and exponential coordinates
# ---------------------------------------------------------------------------

def project_point(point: DomainPoint, F: FibrationStep) -> DomainPoint:
    """Apply the complexified projection to a point or a stack of points."""
    M, Mq, Q = F.domain_model, F.quotient_model, F.quotient_map
    return DomainPoint(point.z @ Q[: Mq.p, : M.p].T, point.w @ Q[Mq.p : Mq.p + Mq.q, M.p : M.p + M.q].T)


def push_group(x_minus, x_zero, F: FibrationStep):
    """Push exponential coordinates (of one element or a stack) through the
    quotient homomorphism: the quotient's ``(x_minus, x_zero)``."""
    M, Mq, Q = F.domain_model, F.quotient_model, F.quotient_map
    k, kq = M.p + M.q, Mq.p + Mq.q
    return x_minus @ Q[:kq, :k].T, x_zero @ Q[kq:, k:].T


def check_equivariance(F: FibrationStep, samples: int = 100, seed: int = 0) -> float:
    """Max of |pi(s . z0) - pi_*(s) . pi(z0)| over ``samples`` group elements
    s, uniform in [-1, 1] per exponential coordinate: both sides as stacks
    of orbit points (``siegel.orbit_points``).  A diagnostic; the walk reads
    ``Tower.residual``."""
    rng = np.random.default_rng(seed)
    M, Mq = F.domain_model, F.quotient_model
    k = M.p + M.q
    coords = rng.uniform(-1.0, 1.0, (samples, k + M.p0))
    x_minus, x_zero = coords[:, :k], coords[:, k:]
    lhs = project_point(orbit_points(M, x_minus, x_zero), F)
    rhs = orbit_points(Mq, *push_group(x_minus, x_zero, F))
    dist = np.linalg.norm(lhs.z - rhs.z, axis=-1) + np.linalg.norm(lhs.w - rhs.w, axis=-1)
    return float(np.max(dist, initial=0.0))

