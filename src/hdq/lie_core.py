"""Structure-constant Lie algebra arithmetic.

A finite-dimensional real Lie algebra is stored as a dense rank-3 tensor
``c`` over a labelled basis, with ``c[i, j, k]`` the coefficient of ``e_k``
in ``[e_i, e_j]``.  Antisymmetry is enforced at construction time by
averaging ``c`` against ``-c.transpose(1, 0, 2)``.

Structure identities are checked over whole bases at once: the kernel
:func:`bracket_table` contracts two basis matrices against ``c`` in one
BLAS-backed ``einsum``, ``ad_matrix`` takes stacks of elements, and the
Jacobi and representation defects are tensor identities with no loop over
pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import DimensionMismatch, InputError, NotInvertible

# Rank decisions use a singular-value cutoff relative to the largest
# singular value; scale-invariant for hand-authored constants.
RANK_RTOL = 1e-8
JACOBI_TOL = 1e-9
REP_TOL = 1e-10


def _readonly(a):
    a = np.asarray(a, dtype=float)
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
    (a, b, dim) result is ``[A[:, s], B[:, t]]``.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != L.dim or B.shape[0] != L.dim:
        raise DimensionMismatch(
            f"basis matrices of shape {A.shape}/{B.shape} in algebra of dim {L.dim}"
        )
    return np.einsum("ia,jb,ijk->abk", A, B, L.c, optimize=True)


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


def opposite(L: LieAlgebraData) -> LieAlgebraData:
    """Algebra with the negated bracket.

    One-parameter flows of vector fields multiply with the bracket sign
    reversed relative to the operator commutator, so matrix models of the
    flow group represent the opposite tensor.
    """
    return LieAlgebraData(L.dim, L.basis_labels, -np.asarray(L.c))


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """Subspace of R^ambient_dim spanned by the columns of basis_matrix."""

    ambient_dim: int
    basis_matrix: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.basis_matrix, dtype=float)
        if B.ndim != 2 or B.shape[0] != self.ambient_dim:
            raise DimensionMismatch("basis matrix must be ambient_dim x k")
        if B.shape[1] > 0 and np.linalg.matrix_rank(B, tol=_rank_tol(B)) < B.shape[1]:
            raise DimensionMismatch("basis columns are linearly dependent")
        object.__setattr__(self, "basis_matrix", _readonly(B))

    @property
    def dim(self) -> int:
        return self.basis_matrix.shape[1]

    def orthonormal(self) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((self.ambient_dim, 0))
        q, _ = np.linalg.qr(self.basis_matrix)
        return q


def _rank_tol(M) -> float:
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    return RANK_RTOL * (s[0] if s.size else 1.0)


def span(vectors, ambient_dim: int, tol: float = RANK_RTOL, floor: float = 0.0) -> Subspace:
    """Subspace spanned by a collection of vectors, or the rows of an
    array, rank-reduced via SVD.

    ``floor`` is an absolute singular-value cutoff; without it a stack of
    numerically-zero vectors would count as rank one under the relative test.
    """
    M = np.asarray(vectors, dtype=float)
    if M.size == 0:
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))
    u, s, _ = np.linalg.svd(M.reshape(-1, ambient_dim).T, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0)))
    r = int(np.sum(s > max(tol * s[0], floor)))
    return Subspace(ambient_dim, u[:, :r])


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


def derived_algebra(L: LieAlgebraData) -> Subspace:
    """Span of all brackets of basis pairs."""
    return span(L.c, L.dim)  # rows c[i, j] = [e_i, e_j]


def _bracket_columns(V: Subspace, W: Subspace, L: LieAlgebraData) -> np.ndarray:
    """Brackets of the basis columns of V with those of W, one per row."""
    return bracket_table(V.basis_matrix, W.basis_matrix, L).reshape(-1, L.dim)


def closure_residual(V: Subspace, L: LieAlgebraData) -> float:
    """Largest relative residual outside V of a bracket of two basis
    columns of V, |[v_s, v_t] off V| / max(1, |[v_s, v_t]|); V is a
    subalgebra exactly when this vanishes."""
    return _relative_residual(_bracket_columns(V, V, L), V)


def is_subalgebra(V: Subspace, L: LieAlgebraData, tol: float = 1e-8) -> bool:
    if V.ambient_dim != L.dim:
        raise DimensionMismatch("subspace lives in the wrong ambient space")
    return closure_residual(V, L) <= tol


def is_ideal(V: Subspace, L: LieAlgebraData, tol: float = 1e-8) -> bool:
    if V.ambient_dim != L.dim:
        raise DimensionMismatch("subspace lives in the wrong ambient space")
    full = Subspace(L.dim, np.eye(L.dim))
    return _relative_residual(_bracket_columns(full, V, L), V) <= tol


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

    ``X[i, j, k] = [e_k, [e_i, e_j]]`` is one contraction; the other two
    cyclic terms are its axis rotations.
    """
    if L.dim == 0:
        return 0.0
    X = np.tensordot(L.c, L.c, ([2], [1]))
    S = X + X.transpose(2, 0, 1, 3)
    S += X.transpose(1, 2, 0, 3)
    return float(np.max(np.abs(S)))


def derived_series(L: LieAlgebraData):
    """Sequence of derived-subalgebra dimensions until stabilization."""
    dims = [L.dim]
    floor = 1e-10 * max(1.0, float(np.max(np.abs(L.c))) if L.dim else 1.0)
    current = Subspace(L.dim, np.eye(L.dim)) if L.dim else Subspace(0, np.zeros((0, 0)))
    while current.dim > 0:
        nxt = span(_bracket_columns(current, current, L), L.dim, floor=floor)
        if nxt.dim == current.dim:
            dims.append(nxt.dim)
            break
        dims.append(nxt.dim)
        current = nxt
    return dims


def is_solvable(L: LieAlgebraData) -> bool:
    return derived_series(L)[-1] == 0


def max_imag_ad_eigenvalue(L: LieAlgebraData, samples: int = 20, seed: int = 0) -> float:
    """Largest |imag| over eigenvalues of ad(x) for basis and random x."""
    if L.dim == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    rand = rng.standard_normal((samples, L.dim))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    ads = np.concatenate([L.c.transpose(0, 2, 1), ad_matrix(rand, L)])
    return float(np.max(np.abs(np.linalg.eigvals(ads).imag)))


def validate_algebra(L: LieAlgebraData, tol: float = JACOBI_TOL) -> ValidationReport:
    """Check antisymmetry and Jacobi; solvability and split-solvability are
    reported as flags (they are properties, not axioms, of the raw tensor)."""
    report = ValidationReport()
    # antisymmetry is enforced at load; report the residual of the raw tensor
    anti = float(np.max(np.abs(L.c + L.c.transpose(1, 0, 2)))) if L.dim else 0.0
    report.record("antisymmetry", anti, tol)
    report.record("jacobi", jacobi_defect(L), tol)
    solvable = is_solvable(L)
    imag = max_imag_ad_eigenvalue(L)
    report.flags["solvable"] = solvable
    report.flags["split"] = solvable and imag <= max(tol, 1e-8)
    report.flags["max_imag_ad_eigenvalue"] = imag
    return report


# ---------------------------------------------------------------------------
# Affine representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineRep:
    """Matrices rho(e_i) acting affinely on R^N, last coordinate homogenizing.

    The referenced algebra must satisfy rho([x, y]) = rho(x) rho(y) - rho(y) rho(x);
    for flow matrices of vector fields that is the algebra with the opposite
    tensor (see :func:`opposite`).
    """

    algebra: LieAlgebraData
    rep_dim: int
    matrices: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrices, dtype=float)
        if M.shape != (self.algebra.dim, self.rep_dim, self.rep_dim):
            raise DimensionMismatch("rep matrices must be (dim, N, N)")
        object.__setattr__(self, "matrices", _readonly(M))

    def matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.algebra.dim,):
            raise DimensionMismatch("coefficient vector has wrong length")
        return np.einsum("i,ijk->jk", x, self.matrices)


def rep_bracket_defect(R: AffineRep) -> float:
    """Max norm of rho([e_i,e_j]) - [rho(e_i), rho(e_j)] over basis pairs."""
    L, M = R.algebra, R.matrices
    if L.dim == 0:
        return 0.0
    lhs = np.tensordot(L.c, M, ([2], [0]))
    MM = np.einsum("iab,jbc->ijac", M, M, optimize=True)
    return float(np.max(np.abs(lhs - MM + MM.transpose(1, 0, 2, 3))))


def exp_affine(x: np.ndarray, R: AffineRep) -> np.ndarray:
    """Matrix exponential of rho(x) (scaling-and-squaring Pade)."""
    E = expm(R.matrix(x))
    if not np.all(np.isfinite(E)):
        raise NotInvertible("exponential produced non-finite entries")
    return E


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
    for entry in data.get("brackets", []):
        try:
            i, j = index[entry["i"]], index[entry["j"]]
            for lbl, val in entry["coeffs"].items():
                c[i, j, index[lbl]] += float(val)
                c[j, i, index[lbl]] -= float(val)
        except KeyError as exc:
            raise InputError(f"unknown label in brackets: {exc}") from exc
    return LieAlgebraData(dim, tuple(labels), c)


def algebra_to_dict(L: LieAlgebraData) -> dict:
    brackets = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            coeffs = {
                L.basis_labels[k]: float(L.c[i, j, k])
                for k in range(L.dim)
                if abs(L.c[i, j, k]) > 0.0
            }
            if coeffs:
                brackets.append({"i": L.basis_labels[i], "j": L.basis_labels[j], "coeffs": coeffs})
    return {"dim": L.dim, "basis": list(L.basis_labels), "brackets": brackets}


def load_algebra(path) -> LieAlgebraData:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_dict(json.load(fh))
