"""Real multiplicative Jordan decomposition and cyclic-subgroup tests.

The decomposition g = e h u splits an invertible real matrix into commuting
elliptic (unit-circle spectrum), hyperbolic (positive real spectrum) and
unipotent (spectrum {1}) factors.

The matrix gets one eigenvalue solve and one complex Schur form, which the
retries at looser clustering share.  The Schur form is block-diagonalized
over the clustered spectrum one cluster at a time: LAPACK ``ztrsen`` moves
the cluster to the front of the trailing triangular block, which the
clusters before it are already decoupled from, and one triangular
Sylvester solve (``ztrsyl``) decouples it in turn (Bavely and Stewart,
SINUM 1979; Bai and Demmel, LAA 1993).  With X the block basis, e and h
are I + X diag(f(mu) - 1) X^-1 for the polar split f of each cluster's
eigenvalue mu, and u = (e h)^-1 A is read block by block off X^-1 A X, or
by one solve where X is ill-conditioned.  The real parts are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ClusterAmbiguous, NotInvertible

CLUSTER_RTOL = 1e-7
ANGLE_TOL = 1e-9
MAX_DENOMINATOR = 97
# smallest singular value over the largest below which a matrix is singular
INVERTIBLE_RTOL = 1e-12


@dataclass(frozen=True)
class JordanParts:
    elliptic: np.ndarray
    hyperbolic: np.ndarray
    unipotent: np.ndarray
    residual: float


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


def _block_diagonalize(T: np.ndarray, Z: np.ndarray, reps, sizes):
    """Return X, blocks with A = X diag(A_1..A_m) X^{-1}, one block per
    cluster, from a complex Schur form A = Z T Z^H; T and Z are not changed.

    The clusters are taken in order, each from the trailing block of T,
    which the clusters before it are already decoupled from.  The diagonal
    entries within a third of the gap to the nearest later cluster are
    selected, and must be as many as the cluster's size; ``ztrsen`` moves
    them to the front of the trailing block, and ``ztrsyl`` solves
    T11 Y - Y T22 = -T12 for the similarity [[I, Y], [0, I]], which zeroes
    the coupling T12 and whose inverse is [[I, -Y], [0, I]].
    """
    from scipy.linalg.lapack import ztrsen, ztrsyl

    n = T.shape[0]
    T, X = T.copy(), Z.copy()
    blocks = []
    start = 0
    for k, (mu, size) in enumerate(zip(reps, sizes)):
        if k == len(reps) - 1:
            blocks.append((mu, slice(start, n)))
            break
        radius = min(abs(mu - other) for other in reps[k + 1 :]) / 3.0
        select = np.abs(np.diag(T)[start:] - mu) <= radius
        if np.count_nonzero(select) != size:
            raise ClusterAmbiguous(
                f"the Schur form isolates {np.count_nonzero(select)} eigenvalues for a cluster of {size}"
            )
        ts, qs, _, _, _, _, info = ztrsen(select, T[start:, start:], np.eye(n - start), job="N")
        if info:
            raise ClusterAmbiguous("the Schur form cannot be reordered: eigenvalues too close to swap")
        T[start:, start:] = ts
        X[:, start:] = X[:, start:] @ qs
        end = start + size
        Y, scale, _ = ztrsyl(T[start:end, start:end], T[end:, end:], -T[start:end, end:], isgn=-1)
        X[:, end:] += X[:, start:end] @ (Y / scale)
        T[start:end, end:] = 0.0
        blocks.append((mu, slice(start, end)))
        start = end
    # the Sylvester factors can be badly scaled; only the invariant-subspace
    # spans matter, so re-orthonormalize the columns block by block, one
    # stacked QR per block size (the same LAPACK call on each block)
    for size in set(sizes):
        cols = [np.arange(sl.start, sl.stop) for _, sl in blocks if sl.stop - sl.start == size]
        X[:, cols] = np.linalg.qr(X[:, cols].transpose(1, 0, 2))[0].transpose(1, 0, 2)
    return X, blocks


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

    # scipy loads here only: numpy has no reordering of a Schur form
    from scipy.linalg import schur

    # one spectrum and one Schur form serve every retry
    vals = np.linalg.eigvals(A)
    schur_form = schur(A, output="complex")
    last = None
    for rtol in (CLUSTER_RTOL, 100.0 * CLUSTER_RTOL, 3e3 * CLUSTER_RTOL):
        try:
            return _decompose_at(A, vals, schur_form, rtol)
        except ClusterAmbiguous as exc:
            last = exc
    raise last


def _decompose_at(A: np.ndarray, vals: np.ndarray, schur_form, tol: float) -> JordanParts:
    n = A.shape[0]
    reps, groups = _cluster_eigenvalues(vals, tol)
    X, blocks = _block_diagonalize(*schur_form, reps, [len(g) for g in groups])
    Xinv = np.linalg.inv(X)
    B = Xinv @ A @ X
    mu = np.empty(n, dtype=complex)
    U = np.zeros((n, n), dtype=complex)
    for rep, sl in blocks:
        mu[sl] = rep
        U[sl, sl] = B[sl, sl] / rep - np.eye(sl.stop - sl.start)

    def factor(d):
        """I + X diag(d) X^-1: the rounding through X scales with how far
        the factor is from I, and d = 0 gives I exactly.  The spectrum of a
        real input is conjugation-symmetric, so the imaginary part is
        roundoff."""
        return np.eye(n) + ((X * d) @ Xinv).real

    e = factor(mu / np.abs(mu) - 1.0)
    h = factor(np.abs(mu) - 1.0)
    eh = e @ h
    scale = max(1.0, float(np.linalg.norm(A)))
    # u = (e h)^-1 A, read two ways.  Read block by block off X^-1 A X, u
    # commutes with e and h even where a cluster near 0 amplifies the
    # rounding of the other blocks, but e h u drifts from A when X is
    # ill-conditioned (clusters about 1e-4 apart).  One solve keeps e h u = A
    # to rounding; it is taken when its commutators with e and h are below
    # that drift.
    u = np.eye(n) + (X @ U @ Xinv).real
    residual = float(np.linalg.norm(eh @ u - A)) / scale
    solved = np.linalg.solve(eh, A)
    if max(float(np.linalg.norm(F @ solved - solved @ F)) for F in (e, h)) < residual:
        u, residual = solved, float(np.linalg.norm(eh @ solved - A)) / scale
    return JordanParts(e, h, u, residual)


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


def _rotation_angles(e: np.ndarray) -> np.ndarray:
    """Angles in [0, pi] of the unit-circle spectrum of the elliptic part."""
    vals = np.linalg.eigvals(e)
    ang = np.abs(np.angle(vals))
    return np.unique(np.round(ang, 12))


@dataclass(frozen=True)
class Discreteness:
    kind: str            # infinite_discrete | finite | indiscrete_closure | undecided
    order: int | None = None


def cyclic_discreteness(parts: JordanParts) -> Discreteness:
    """Discreteness type of the cyclic group generated by the matrix whose
    Jordan factors are ``parts``.

    A nontrivial hyperbolic or unipotent factor forces an infinite discrete
    group.  A purely elliptic element generates a finite group exactly when
    all rotation angles are rational multiples of 2 pi; rationality is
    detected by continued fractions up to a denominator bound, with a
    borderline band reported as undecided.
    """
    if _nontrivial(parts.hyperbolic @ parts.unipotent):
        return Discreteness("infinite_discrete")
    denoms = []
    for theta in _rotation_angles(parts.elliptic):
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
