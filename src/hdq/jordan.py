"""Real multiplicative Jordan decomposition and cyclic-subgroup tests.

The decomposition g = e h u splits an invertible real matrix into commuting
elliptic (unit-circle spectrum), hyperbolic (positive real spectrum) and
unipotent (spectrum {1}) factors.  The reduction reads only e, and e^-1 g
in place of h u, so e is built with the split and h, u and the
reconstruction residual on first access.

The matrix gets one eigen-solve, which the retries at looser clustering
share.  When every cluster of the spectrum lies on the positive real axis,
e is I and nothing more is built.  Otherwise each cluster gets an
orthonormal basis of its invariant subspace: the span of its eigenvectors,
orthonormalized by a thin SVD, or, where that block of eigenvectors loses
rank (a defective cluster), the range of the cluster's Riesz projector, a
contour integral of the resolvent taken by the trapezoidal rule (Kato,
Perturbation Theory for Linear Operators, I.5; Golub and Van Loan, Matrix
Computations, 7.6).  With X the block basis, e and h are I + X diag(f(mu)
- 1) X^-1 for the polar split f of each cluster's eigenvalue mu, and u =
(e h)^-1 A is read block by block off X^-1 A X, or by one solve where X is
ill-conditioned.  The real parts are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import ClusterAmbiguous, NotInvertible

CLUSTER_RTOL = 1e-7
ANGLE_TOL = 1e-9
MAX_DENOMINATOR = 97
# smallest singular value over the largest below which a matrix is singular
INVERTIBLE_RTOL = 1e-12
# the same ratio on a cluster's eigenvectors below which the cluster is
# defective and takes its basis from the Riesz projector
DEFECTIVE_RTOL = 1e-6
# trapezoidal nodes on the Riesz projector's circle
RIESZ_NODES = 32


def _cluster_eigenvalues(vals: np.ndarray, rtol: float):
    """Group eigenvalues by single-linkage with a relative distance cutoff."""
    order = np.argsort(vals.real + 1e-3 * vals.imag, kind="stable").tolist()
    scale = max(1.0, float(np.max(np.abs(vals))))
    radius, v = rtol * scale, vals.tolist()  # Python complex: the same differences and moduli
    groups: list[list[int]] = []
    for idx in order:
        g = next((g for g in groups if any(abs(v[idx] - v[k]) <= radius for k in g)), None)
        if g is None:
            groups.append([idx])
        else:
            g.append(idx)
    reps = [complex(np.mean(vals[g])) for g in groups]
    # clusters closer than the worst-case defective splitting cannot be told
    # apart from roundoff fragments of a multiple eigenvalue; the caller
    # retries with a looser merge radius
    ambig = max(10.0 * rtol, 1e-4) * scale
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if abs(reps[i] - reps[j]) < ambig:
                raise ClusterAmbiguous(
                    f"eigenvalue clusters at {reps[i]:.6g} and {reps[j]:.6g} nearly merge"
                )
    return reps, groups


def _cluster_basis(A: np.ndarray, vals: np.ndarray, vecs: np.ndarray, group) -> np.ndarray:
    """Orthonormal basis of the invariant subspace of the eigenvalues
    ``vals[group]``: the span of their eigenvectors ``vecs[:, group]``, or
    the Riesz basis where those lose rank (the cluster is defective)."""
    U, s, _ = np.linalg.svd(vecs[:, group], full_matrices=False)
    if s[-1] >= DEFECTIVE_RTOL * s[0]:
        return U
    return _riesz_basis(A, vals[group], np.delete(vals, group))


def _riesz_basis(A: np.ndarray, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of the Riesz projector of A onto the
    eigenvalues ``inside``, (1 / 2 pi i) times the contour integral of
    (z - A)^-1 over a circle about their mean that leaves ``outside`` out,
    by the trapezoidal rule on ``RIESZ_NODES`` nodes.  The rule's error
    falls as (inner / radius)^N + (radius / outer)^N, so the radius is the
    geometric mean of the cluster's spread and its gap, and at least a
    tenth of the gap."""
    mu = np.mean(inside)
    inner, outer = np.max(np.abs(inside - mu)), np.min(np.abs(outside - mu))
    w = outer * max(np.sqrt(inner / outer), 0.1) * np.exp(2j * np.pi * (np.arange(RIESZ_NODES) + 0.5) / RIESZ_NODES)
    n = A.shape[0]
    resolvents = np.linalg.inv((mu + w)[:, None, None] * np.eye(n) - A)
    return np.linalg.svd(np.tensordot(w, resolvents, 1) / RIESZ_NODES)[0][:, : len(inside)]


def jordan_decompose(A: np.ndarray) -> JordanParts:
    """Multiplicative decomposition A = elliptic * hyperbolic * unipotent.

    Defective eigenvalues split numerically far beyond machine precision,
    so clustering retries at loosened tolerances before giving up.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotInvertible("input must be a square matrix")
    if not np.all(np.isfinite(A)):
        raise NotInvertible("matrix has non-finite entries")
    # relative to scale: a well-conditioned contraction can have a tiny
    # determinant (e^-31.5 for exp(-3.5 delta) on ball:8)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size and sv[-1] <= INVERTIBLE_RTOL * sv[0]:
        cond = sv[0] / sv[-1] if sv[-1] else np.inf
        raise NotInvertible(
            f"matrix is singular or too ill-conditioned to decompose (condition number "
            f"{cond:.3e} exceeds 1/INVERTIBLE_RTOL = {1.0 / INVERTIBLE_RTOL:.0e})"
        )

    # one eigen-solve serves every retry
    vals, vecs = np.linalg.eig(A)
    last = None
    for rtol in (CLUSTER_RTOL, 100.0 * CLUSTER_RTOL, 3e3 * CLUSTER_RTOL):
        try:
            return _decompose_at(A, vals, vecs, rtol)
        except ClusterAmbiguous as exc:
            last = exc
    raise last


def _decompose_at(A: np.ndarray, vals: np.ndarray, vecs: np.ndarray, tol: float) -> JordanParts:
    return JordanParts(A, vals, vecs, *_cluster_eigenvalues(vals, tol))


class JordanParts:
    """The factors of A = elliptic @ hyperbolic @ unipotent, from the
    clusters ``groups`` of A's eigenvalues ``vals`` and their means
    ``reps``.  ``elliptic`` is built at once, I exactly when every mean is
    on the positive real axis; the clusters' block basis X, ``hyperbolic``,
    ``unipotent`` and the ``residual`` of their product on first access."""

    def __init__(self, A, vals, vecs, reps, groups):
        self._A, self._vals, self._vecs, self._groups = A, vals, vecs, groups
        self._mu = np.repeat(np.array(reps, dtype=complex), [len(g) for g in groups])
        if np.all((self._mu.imag == 0) & (self._mu.real > 0)):
            self.elliptic = np.eye(len(A))  # numpy's mu / |mu| may round 1 to 1 - 1.1e-16
        else:
            self.elliptic = self._factor(self._mu / np.abs(self._mu) - 1.0)

    @cached_property
    def _basis(self):
        """(X, X^-1), X the clusters' invariant-subspace bases side by side."""
        A, vals, vecs, groups = self._A, self._vals, self._vecs, self._groups
        X = np.hstack([_cluster_basis(A, vals, vecs, g) for g in groups]) if len(groups) > 1 else np.eye(len(A))
        return X, np.linalg.inv(X)

    def _factor(self, d):
        """I + X diag(d) X^-1: the rounding through X scales with how far
        the factor is from I.  The spectrum of a real input is
        conjugation-symmetric, so the imaginary part is roundoff."""
        X, Xinv = self._basis
        return np.eye(len(X)) + ((X * d) @ Xinv).real

    @cached_property
    def hyperbolic(self) -> np.ndarray:
        return self._factor(np.abs(self._mu) - 1.0)

    @cached_property
    def unipotent(self) -> np.ndarray:
        """u = (e h)^-1 A, read two ways.  Read block by block off X^-1 A X,
        u commutes with e and h even where a cluster near 0 amplifies the
        rounding of the other blocks, but e h u drifts from A when X is
        ill-conditioned (clusters about 1e-4 apart).  One solve keeps e h u
        = A to rounding; it is taken when its commutators with e and h are
        below that drift."""
        A, (X, Xinv), n = self._A, self._basis, len(self._A)
        B = Xinv @ A @ X
        U = np.zeros((n, n), dtype=complex)
        start = 0
        for g in self._groups:
            sl = slice(start, start + len(g))
            U[sl, sl] = B[sl, sl] / self._mu[start] - np.eye(len(g))
            start = sl.stop
        e, h = self.elliptic, self.hyperbolic
        u, solved = np.eye(n) + (X @ U @ Xinv).real, np.linalg.solve(e @ h, A)
        drift = float(np.linalg.norm(e @ h @ u - A)) / max(1.0, float(np.linalg.norm(A)))
        return solved if max(float(np.linalg.norm(F @ solved - solved @ F)) for F in (e, h)) < drift else u

    @cached_property
    def residual(self) -> float:
        """|e h u - A| / max(1, |A|)."""
        A, product = self._A, self.elliptic @ self.hyperbolic @ self.unipotent
        return float(np.linalg.norm(product - A)) / max(1.0, float(np.linalg.norm(A)))


def _nontrivial(F: np.ndarray) -> bool:
    """Whether F is more than 1e-8 n from the (n, n) identity in Frobenius norm."""
    return bool(np.linalg.norm(F - np.eye(len(F))) > 1e-8 * len(F))


def classify(A: np.ndarray):
    """Label the element by its non-identity factors (``_nontrivial``)."""
    parts = jordan_decompose(A)
    active = [k for k in ("elliptic", "hyperbolic", "unipotent") if _nontrivial(getattr(parts, k))]
    if len(active) == 0:
        label = "elliptic"  # the identity generates the trivial compact group
    elif len(active) == 1:
        label = active[0]
    else:
        label = "mixed"
    return label, parts


@dataclass(frozen=True)
class Discreteness:
    kind: str            # infinite_discrete | finite | indiscrete_closure | undecided
    order: int | None = None


def cyclic_discreteness(spectrum: np.ndarray, reduced: np.ndarray) -> Discreteness:
    """Discreteness type of the cyclic group generated by a matrix whose
    elliptic Jordan factor has the eigenvalues ``spectrum`` and whose rest
    is ``reduced`` (its hyperbolic times its unipotent factor).

    A nontrivial ``reduced`` forces an infinite discrete group.  A purely
    elliptic element generates a finite group exactly when all rotation
    angles are rational multiples of 2 pi; rationality is detected by
    continued fractions up to a denominator bound, with a borderline band
    reported as undecided.
    """
    if _nontrivial(reduced):
        return Discreteness("infinite_discrete")
    denoms = []
    for theta in np.unique(np.round(np.abs(np.angle(spectrum)), 12)):  # the angles in [0, pi]
        x = theta / (2.0 * np.pi)
        frac = Fraction(x).limit_denominator(MAX_DENOMINATOR)
        err = abs(x - float(frac))
        if err <= ANGLE_TOL:
            denoms.append(frac.denominator)
        elif err <= 100.0 * ANGLE_TOL:
            return Discreteness("undecided")
        else:
            return Discreteness("indiscrete_closure")
    order = int(np.lcm.reduce(denoms)) if denoms else 1
    return Discreteness("finite", order)
