"""Structure-constant Lie algebra arithmetic.

A finite-dimensional real Lie algebra is stored as a dense rank-3 tensor
``c`` over a labelled basis, with ``c[i, j, k]`` the coefficient of ``e_k``
in ``[e_i, e_j]``.  Antisymmetry is enforced at construction time by
averaging ``c`` against ``-c.transpose(1, 0, 2)``.

Structure identities are checked over whole bases at once: the kernel
:func:`bracket_table` contracts two basis matrices against ``c`` in a fixed
order, one ``tensordot`` and one batched matrix product, and ``ad_matrix``
takes stacks of elements.

The Jacobi defect is priced by the nonzeros of ``c``.  Each term
[e_k, [e_i, e_j]] is a sum over m of c[i, j, m] c[k, m, :], so the
nonzero triples (i, j, m) are joined with the nonzero triples (k, m, b)
on m, and the products summed by cyclic class of (i, j, k) with one sort
(``np.unique``) and one ``bincount``.  The join holds a few integer arrays
as long as its product count, so an input whose join would take more
products than one dense block has entries, ``JACOBI_BLOCK`` n^3, or than
n^4 (a rebased algebra, with c dense), takes a dense contraction instead,
blocked over ``JACOBI_BLOCK`` rows of ``c`` so that it holds a few arrays
of that many times n^3 entries, never n^4.

A :class:`Subspace` is factored once, by one thin SVD, when it is built.
:func:`validate_algebra` checks the one axiom antisymmetric storage leaves
open, the Jacobi identity; solvability is a property, decided where it is
read (:func:`is_solvable`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InputError

# Rank decisions use a singular-value cutoff relative to the largest
# singular value; scale-invariant for hand-authored constants.
RANK_RTOL = 1e-8
JACOBI_TOL = 1e-9
# rows of c per block of the dense Jacobi contraction
JACOBI_BLOCK = 8


def _readonly(a):
    # C order: the contractions round the same way whatever layout came in
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LieAlgebraData:
    """Real Lie algebra given by structure constants over a named basis."""

    dim: int
    basis_labels: tuple
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise DimensionMismatch(
                f"structure tensor has shape {c.shape}, expected cube of side {self.dim}"
            )
        if len(self.basis_labels) != self.dim:
            raise DimensionMismatch("basis label count does not match dim")
        # enforce antisymmetry at load
        c = 0.5 * (c - c.transpose(1, 0, 2))
        object.__setattr__(self, "c", _readonly(c))
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))

    def index(self, label: str) -> int:
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise InputError(f"unknown basis label {label!r}") from None

    def basis_vector(self, label: str) -> np.ndarray:
        v = np.zeros(self.dim)
        v[self.index(label)] = 1.0
        return v


def bracket_table(A: np.ndarray, B: np.ndarray, L: LieAlgebraData) -> np.ndarray:
    """All brackets of the columns of A with the columns of B.

    ``A`` is (dim, a) and ``B`` is (dim, b); entry ``[s, t]`` of the
    (a, b, dim) result is ``[A[:, s], B[:, t]]``.  ``A`` is contracted
    first, over the leading axis of ``c`` (no copy of ``c``), then ``B``
    by one batched matrix product.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != L.dim or B.shape[0] != L.dim:
        raise DimensionMismatch(
            f"basis matrices of shape {A.shape}/{B.shape} in algebra of dim {L.dim}"
        )
    return B.T @ np.tensordot(A, L.c, ([0], [0]))


def bracket(a: np.ndarray, b: np.ndarray, L: LieAlgebraData) -> np.ndarray:
    """Evaluate [a, b] through the structure tensor."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (L.dim,) or b.shape != (L.dim,):
        raise DimensionMismatch(
            f"vectors of length {a.shape}/{b.shape} in algebra of dim {L.dim}"
        )
    return bracket_table(a[:, None], b[:, None], L)[0, 0]


def ad_matrix(x: np.ndarray, L: LieAlgebraData) -> np.ndarray:
    """Matrix of ad(x): y -> [x, y] in the algebra basis.

    ``x`` may carry leading stack axes, (..., dim) -> (..., dim, dim); the
    stack of the basis vectors is ``L.c.transpose(0, 2, 1)``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (L.dim,):
        raise DimensionMismatch("ad argument has wrong length")
    return np.tensordot(x, L.c, ([-1], [0])).swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """Subspace of R^ambient_dim spanned by the columns of basis_matrix.

    The basis is factored once, by a thin SVD, when the subspace is built:
    its singular values decide independence (the smallest must exceed
    ``RANK_RTOL`` times the largest) and its left factor is the orthonormal
    basis :meth:`orthonormal` returns.  :func:`span` passes the orthonormal
    factor it already has as ``_orthonormal``, and nothing is factored
    again.
    """

    ambient_dim: int
    basis_matrix: np.ndarray
    _orthonormal: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        B = np.asarray(self.basis_matrix, dtype=float)
        if B.ndim != 2 or B.shape[0] != self.ambient_dim:
            raise DimensionMismatch("basis matrix must be ambient_dim x k")
        q = self._orthonormal
        if q is None:
            q = np.zeros((self.ambient_dim, 0))
            if B.shape[1] > 0:
                q, s, _ = np.linalg.svd(B, full_matrices=False)
                if s.size < B.shape[1] or not s[-1] > RANK_RTOL * s[0]:
                    raise DimensionMismatch("basis columns are linearly dependent")
        object.__setattr__(self, "basis_matrix", _readonly(B))
        object.__setattr__(self, "_orthonormal", _readonly(q))

    @property
    def dim(self) -> int:
        return self.basis_matrix.shape[1]

    def orthonormal(self) -> np.ndarray:
        """Read-only orthonormal basis of the subspace, (ambient_dim, dim)."""
        return self._orthonormal


def span(vectors, ambient_dim: int, floor: float = 0.0) -> Subspace:
    """Subspace spanned by a collection of vectors, or the rows of an
    array, rank-reduced via SVD.

    Exactly-zero rows are dropped before the SVD; they change neither the
    span nor the singular values.  ``floor`` is an absolute singular-value
    cutoff; without it a stack of numerically-zero vectors would count as
    rank one under the relative test.
    """
    M = np.asarray(vectors, dtype=float)
    if M.size:
        M = M.reshape(-1, ambient_dim)
        M = M[np.any(M != 0.0, axis=1)]
    if M.size == 0:
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))
    u, s, _ = np.linalg.svd(M.T, full_matrices=False)
    r = int(np.sum(s > max(RANK_RTOL * s[0], floor)))
    return Subspace(ambient_dim, u[:, :r], u[:, :r])


def residual_outside(v: np.ndarray, V: Subspace):
    """Norm of the component of v orthogonal to V: a float for one vector,
    one norm per row for a stack of rows."""
    v = np.asarray(v, dtype=float)
    q = V.orthonormal()
    res = np.linalg.norm(v - (v @ q) @ q.T, axis=-1)
    return float(res) if res.ndim == 0 else res


def _relative_residual(rows: np.ndarray, V: Subspace) -> float:
    """Max over rows b of |b off V| / max(1, |b|); 0 for no rows."""
    scale = np.maximum(1.0, np.linalg.norm(rows, axis=-1))
    return float(np.max(residual_outside(rows, V) / scale, initial=0.0))


def subspace_equal(V: Subspace, W: Subspace, tol: float = 1e-8) -> bool:
    if V.dim != W.dim:
        return False
    if V.dim == 0:
        return True
    qv, qw = V.orthonormal(), W.orthonormal()
    return float(np.linalg.norm(qv - qw @ (qw.T @ qv))) <= tol


def _bracket_columns(V: Subspace, W: Subspace, L: LieAlgebraData) -> np.ndarray:
    """Brackets of the basis columns of V with those of W, one per row."""
    return bracket_table(V.basis_matrix, W.basis_matrix, L).reshape(-1, L.dim)


def closure_residual(V: Subspace, L: LieAlgebraData) -> float:
    """Largest relative residual outside V of a bracket of two basis
    columns of V, |[v_s, v_t] off V| / max(1, |[v_s, v_t]|); V is a
    subalgebra exactly when this vanishes."""
    return _relative_residual(_bracket_columns(V, V, L), V)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Named defect magnitudes plus derived flags; passes iff every defect
    is below the tolerance it was checked against."""

    checks: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    def record(self, name: str, defect: float, tol: float):
        self.checks[name] = {"defect": float(defect), "tol": float(tol)}

    @property
    def passed(self) -> bool:
        return all(c["defect"] <= c["tol"] for c in self.checks.values())

    def worst(self):
        if not self.checks:
            return None, 0.0
        name = max(self.checks, key=lambda n: self.checks[n]["defect"] - self.checks[n]["tol"])
        return name, self.checks[name]["defect"]

    def as_dict(self) -> dict:
        return {"passed": self.passed, "checks": self.checks, "flags": self.flags}


def jacobi_defect(L: LieAlgebraData) -> float:
    """Max norm of [e_i,[e_j,e_k]] + cyclic over all basis triples.

    The sum S[i, j, k] = X[i, j, k] + X[j, k, i] + X[k, i, j], with
    ``X[i, j, k] = [e_k, [e_i, e_j]]``, is invariant under rotating
    (i, j, k), so each cyclic class takes one value.  The path follows the
    input: the join of the nonzeros of c on m when its product count
    sum_m nnz(c[:, :, m]) nnz(c[:, m, :]) is at most min(n^4, JACOBI_BLOCK
    n^3), the size of one dense block, and the blocked dense contraction
    otherwise.
    """
    n = L.dim
    i, j, m = np.nonzero(L.c)
    per_m = np.bincount(j, minlength=n)  # nnz(c[:, m, :])
    if int(per_m[m].sum()) > min(n**4, JACOBI_BLOCK * n**3):
        return _jacobi_blocked(L.c)
    return _jacobi_join(L.c, i, j, m)


def _jacobi_join(c: np.ndarray, i, j, m) -> float:
    """S summed over products c[i, j, m] c[k, m, b] of nonzeros, keyed by
    the least rotation of (i, j, k) and by b."""
    n, v = len(c), c[i, j, m]
    # the same triples read as (k, m, b) and grouped by their middle index
    order = np.argsort(j, kind="stable")
    k, mid, b, w = i[order], j[order], m[order], v[order]
    count = np.bincount(mid, minlength=n)
    start = np.cumsum(count) - count
    reps = count[m]
    left = np.repeat(np.arange(len(v)), reps)
    # the run of products of triple t starts at first[t] and reads the
    # (k, m, b) triples from start[m[t]] on
    first = np.cumsum(reps) - reps
    right = np.arange(len(left)) - np.repeat(first - start[m], reps)
    I, Jx, K = i[left], j[left], k[right]
    rot = np.minimum(np.minimum((I * n + Jx) * n + K, (Jx * n + K) * n + I), (K * n + I) * n + Jx)
    _, cls = np.unique(rot * n + b[right], return_inverse=True)
    return float(np.max(np.abs(np.bincount(cls, weights=v[left] * w[right])), initial=0.0))


def _jacobi_blocked(c: np.ndarray) -> float:
    """S over blocks of ``JACOBI_BLOCK`` rows i, with j and k from the
    block's first row on: every cyclic class has a rotation that starts
    with its least index."""
    worst = 0.0
    for i0 in range(0, len(c), JACOBI_BLOCK):
        rows, rest = slice(i0, i0 + JACOBI_BLOCK), c[i0:]
        S = np.tensordot(c[rows, i0:], rest, ([2], [1]))
        S += np.tensordot(rest[:, i0:], c[rows], ([2], [1])).transpose(2, 0, 1, 3)
        S += np.tensordot(rest[:, rows], rest, ([2], [1])).transpose(1, 2, 0, 3)
        worst = max(worst, float(np.max(np.abs(S))))
    return worst


def derived_series(L: LieAlgebraData) -> list:
    """The derived series s, [s, s], ... as subspaces, until two terms
    have the same dimension."""
    floor = 1e-10 * max(1.0, float(np.max(np.abs(L.c), initial=0.0)))
    series = [Subspace(L.dim, np.eye(L.dim))]
    while series[-1].dim > 0:
        current = series[-1]
        series.append(span(_bracket_columns(current, current, L), L.dim, floor=floor))
        if series[-1].dim == current.dim:
            break
    return series


def is_solvable(L: LieAlgebraData) -> bool:
    return derived_series(L)[-1].dim == 0


def max_imag_ad_eigenvalue(L: LieAlgebraData) -> float:
    """Largest |imag| over eigenvalues of ad(x) for the basis vectors and
    20 random unit vectors x (seed 0).

    A sampled test of split-solvability for an algebra with no metric; ad
    of a nilpotent element is defective, so rounding moves these
    eigenvalues by about the square root of the machine epsilon.
    """
    if L.dim == 0:
        return 0.0
    rand = np.random.default_rng(0).standard_normal((20, L.dim))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    ads = np.concatenate([L.c.transpose(0, 2, 1), ad_matrix(rand, L)])
    return float(np.max(np.abs(np.linalg.eigvals(ads).imag)))


def validate_algebra(L: LieAlgebraData) -> ValidationReport:
    """Check the Jacobi identity against ``JACOBI_TOL``; antisymmetry holds
    by construction."""
    report = ValidationReport()
    report.record("jacobi", jacobi_defect(L), JACOBI_TOL)
    return report


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def algebra_from_dict(data: dict) -> LieAlgebraData:
    """Parse {"dim": n, "basis": [...], "brackets": [{"i","j","coeffs"}]}."""
    try:
        dim = int(data["dim"])
        labels = [str(s) for s in data["basis"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad algebra file: {exc}") from exc
    if len(labels) != dim:
        raise InputError("basis label count does not match dim")
    index = {s: i for i, s in enumerate(labels)}
    c = np.zeros((dim, dim, dim))
    try:
        for entry in data.get("brackets", []):
            i, j = index[entry["i"]], index[entry["j"]]
            for lbl, val in entry["coeffs"].items():
                c[i, j, index[lbl]] += float(val)
                c[j, i, index[lbl]] -= float(val)
    except KeyError as exc:
        raise InputError(f"unknown label in brackets: {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"bad brackets in algebra file: {exc}") from exc
    return LieAlgebraData(dim, tuple(labels), c)


def algebra_to_dict(L: LieAlgebraData) -> dict:
    """The file form of L: one bracket entry per pair i < j with an entry
    of ``abs(c[i, j, k]) > 0``, in index order, so -0.0 and NaN drop out."""
    labels = L.basis_labels
    i, j, k = np.nonzero(L.c)
    values = L.c[i, j, k]
    keep = (i < j) & (np.abs(values) > 0.0)
    brackets, pair = [], None
    for a, b, m, v in zip(i[keep].tolist(), j[keep].tolist(), k[keep].tolist(), values[keep].tolist()):
        if (a, b) != pair:
            pair, coeffs = (a, b), {}
            brackets.append({"i": labels[a], "j": labels[b], "coeffs": coeffs})
        coeffs[labels[m]] = v
    return {"dim": L.dim, "basis": list(labels), "brackets": brackets}
