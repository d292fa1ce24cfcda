"""Real multiplicative Jordan decomposition and cyclic-subgroup tests.

The decomposition g = e h u splits an invertible real matrix into commuting
elliptic (unit-circle spectrum), hyperbolic (positive real spectrum) and
unipotent (spectrum {1}) factors.  The algorithm block-diagonalizes the
matrix over the clustered complex spectrum with an ordered Schur form plus
Sylvester solves, applies the scalar polar split per cluster, and averages
against the complex conjugate to return real matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import schur, solve_sylvester

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

    def reconstruction(self) -> np.ndarray:
        return self.elliptic @ self.hyperbolic @ self.unipotent


def _cluster_eigenvalues(vals: np.ndarray, rtol: float):
    """Group eigenvalues by single-linkage with a relative distance cutoff."""
    order = np.argsort(vals.real + 1e-3 * vals.imag, kind="stable")
    scale = max(1.0, float(np.max(np.abs(vals))))
    groups: list[list[int]] = []
    for idx in order:
        placed = False
        for g in groups:
            if any(abs(vals[idx] - vals[k]) <= rtol * scale for k in g):
                g.append(idx)
                placed = True
                break
        if not placed:
            groups.append([idx])
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


def _block_diagonalize(A: np.ndarray, reps, sizes):
    """Return X, blocks with A = X diag(T_1..T_m) X^{-1}, one block per cluster.

    Each cluster is pulled to the leading position by an ordered Schur form
    whose selection radius is a third of the gap to the nearest other
    cluster, then decoupled by a Sylvester solve.
    """
    n = A.shape[0]
    X = np.eye(n, dtype=complex)
    T = A.astype(complex)
    blocks = []
    start = 0
    remaining = list(zip(reps, sizes))
    while remaining:
        mu, size = remaining.pop(0)
        sub = T[start:, start:]
        if len(remaining) == 0:
            blocks.append((mu, slice(start, n)))
            break
        radius = min(abs(mu - other) for other, _ in remaining) / 3.0
        Ts, Z, sdim = schur(
            sub, output="complex", sort=lambda lam: abs(lam - mu) <= radius
        )
        if sdim != size:
            raise ClusterAmbiguous(
                f"ordered Schur isolated {sdim} eigenvalues for a cluster of {size}"
            )
        # zero the coupling block: T11 Y - Y T22 = -T12
        T11, T12, T22 = Ts[:sdim, :sdim], Ts[:sdim, sdim:], Ts[sdim:, sdim:]
        Y = solve_sylvester(T11, -T22, -T12)
        S = np.eye(sub.shape[0], dtype=complex)
        S[:sdim, sdim:] = Y
        # sub = (Z S) blkdiag(T11, T22') (Z S)^{-1}
        W = Z @ S
        Xs = np.eye(n, dtype=complex)
        Xs[start:, start:] = W
        X = X @ Xs
        Winv = np.linalg.inv(W)
        T[start:, start:] = Winv @ sub @ W
        blocks.append((mu, slice(start, start + sdim)))
        start += sdim
    # the Sylvester factors can be badly scaled; only the invariant-subspace
    # spans matter, so re-orthonormalize the columns block by block
    for _, sl in blocks:
        q, _ = np.linalg.qr(X[:, sl])
        X[:, sl] = q
    Xinv = np.linalg.inv(X)
    T = Xinv @ A.astype(complex) @ X
    return X, T, blocks


def jordan_decompose(A: np.ndarray, tol: float = CLUSTER_RTOL) -> JordanParts:
    """Multiplicative decomposition A = elliptic * hyperbolic * unipotent.

    Defective eigenvalues split numerically far beyond machine precision,
    so clustering retries at loosened tolerances before giving up.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise NotInvertible("input must be a square matrix")
    if not np.all(np.isfinite(A)):
        raise NotInvertible("matrix has non-finite entries")
    # relative to scale: a well-conditioned contraction can have a tiny
    # determinant (e^-31.5 for exp(-3.5 delta) on ball:8)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size and sv[-1] <= INVERTIBLE_RTOL * sv[0]:
        raise NotInvertible(
            f"matrix is not invertible (singular values {sv[-1]:.3e} to {sv[0]:.3e})"
        )

    last = None
    for rtol in (tol, 100.0 * tol, 3e3 * tol):
        try:
            return _decompose_at(A, rtol)
        except ClusterAmbiguous as exc:
            last = exc
    raise last


def _decompose_at(A: np.ndarray, tol: float) -> JordanParts:
    n = A.shape[0]
    vals = np.linalg.eigvals(A)
    reps, groups = _cluster_eigenvalues(vals, tol)
    X, T, blocks = _block_diagonalize(A, reps, [len(g) for g in groups])
    Xinv = np.linalg.inv(X)

    def from_scalars(f):
        D = np.zeros((n, n), dtype=complex)
        for mu, sl in blocks:
            D[sl, sl] = f(mu) * np.eye(sl.stop - sl.start)
        M = X @ D @ Xinv
        # the spectrum is conjugation-symmetric for a real input; averaging
        # against the conjugate removes the imaginary roundoff
        return 0.5 * (M + np.conj(M)).real

    S = from_scalars(lambda mu: mu)
    e = from_scalars(lambda mu: mu / abs(mu))
    h = from_scalars(lambda mu: abs(mu))
    N = A - S
    u = np.eye(n) + np.linalg.solve(S, N)
    residual = float(
        np.linalg.norm(e @ h @ u - A) / max(1.0, np.linalg.norm(A))
    )
    return JordanParts(e, h, u, residual)


def classify(A: np.ndarray, tol: float = 1e-8):
    """Label the element by its non-identity factors."""
    parts = jordan_decompose(A)
    n = A.shape[0]
    eye = np.eye(n)
    nontrivial = {
        "elliptic": np.linalg.norm(parts.elliptic - eye) > tol * n,
        "hyperbolic": np.linalg.norm(parts.hyperbolic - eye) > tol * n,
        "unipotent": np.linalg.norm(parts.unipotent - eye) > tol * n,
    }
    active = [k for k, v in nontrivial.items() if v]
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


def cyclic_discreteness(
    A: np.ndarray,
    parts: JordanParts,
    angle_tol: float = ANGLE_TOL,
    max_denominator: int = MAX_DENOMINATOR,
) -> Discreteness:
    """Discreteness type of the cyclic group generated by the matrix.

    A nontrivial hyperbolic or unipotent factor forces an infinite discrete
    group.  A purely elliptic element generates a finite group exactly when
    all rotation angles are rational multiples of 2 pi; rationality is
    detected by continued fractions up to a denominator bound, with a
    borderline band reported as undecided.
    """
    n = A.shape[0]
    hu = parts.hyperbolic @ parts.unipotent
    if np.linalg.norm(hu - np.eye(n)) > 1e-8 * n:
        return Discreteness("infinite_discrete")
    denoms = []
    for theta in _rotation_angles(parts.elliptic):
        x = theta / (2.0 * np.pi)
        frac = Fraction(x).limit_denominator(max_denominator)
        err = abs(x - float(frac))
        if err <= angle_tol:
            denoms.append(frac.denominator)
        elif err <= 100.0 * angle_tol:
            return Discreteness("undecided")
        else:
            return Discreteness("indiscrete_closure")
    order = int(np.lcm.reduce(denoms)) if denoms else 1
    return Discreteness("finite", order)
