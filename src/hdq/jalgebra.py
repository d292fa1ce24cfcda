"""Normal j-algebras: validation, root decomposition, fine structure.

A normal j-algebra is a split solvable algebra with an integrable complex
structure ``j`` and a linear form ``omega`` such that
``<x, y> = omega([j x, y])`` is a j-invariant inner product.  The fine
structure computed here is the joint eigenspace decomposition of the
ad-action of the maximal abelian part, together with the canonical frame
(eta_k, xi_k), the element delta and the induced (-1, -1/2, 0) grading.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from . import lie_core
from .errors import (
    DegenerateDual,
    InputError,
    NotSplitSolvable,
    RootPatternViolation,
)
from .lie_core import (
    LieAlgebraData,
    Subspace,
    ValidationReport,
    ad_matrix,
    bracket_table,
    derived_algebra,
    span,
    residual_outside,
)

J_TOL = 1e-9
# Joint ad(a) eigenvalues are clustered with this absolute tolerance after
# normalizing the abelian basis; inputs are exact to double precision.
ROOT_CLUSTER_TOL = 1e-7
DUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class NormalJAlgebra:
    L: LieAlgebraData
    j: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.j, dtype=float)
        w = np.asarray(self.omega, dtype=float)
        if j.shape != (self.L.dim, self.L.dim):
            raise InputError("j must be a dim x dim matrix")
        if w.shape != (self.L.dim,):
            raise InputError("omega must be a covector of length dim")
        j.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "omega", w)
        object.__setattr__(self, "_fine_cache", None)

    @property
    def dim(self) -> int:
        return self.L.dim


def gram(J: NormalJAlgebra) -> np.ndarray:
    """Matrix of <x, y> = omega([j x, y]) over the algebra basis."""
    n = J.dim
    if n == 0:
        return np.zeros((0, 0))
    # G[a, b] = omega([j e_a, e_b])
    jb = J.j  # columns are j e_a
    return np.einsum("ia,ibk,k->ab", jb, J.L.c, J.omega)


def integrability_defect(J: NormalJAlgebra) -> float:
    """Max norm over basis pairs of the torsion expression
    [x,y] + j[jx,y] + j[x,jy] - [jx,jy].

    With ``jb[a, b] = [j e_a, e_b]`` the middle terms are ``j jb[a, b]``
    and ``-j jb[b, a]``, so the whole table is four array terms.
    """
    n = J.dim
    if n == 0:
        return 0.0
    jb = bracket_table(J.j, np.eye(n), J.L)
    t = J.L.c + (jb - jb.transpose(1, 0, 2)) @ J.j.T - bracket_table(J.j, J.j, J.L)
    return float(np.max(np.abs(t)))


def validate_j_algebra(J: NormalJAlgebra, tol: float = J_TOL) -> ValidationReport:
    """Defects of all normal j-algebra axioms; passes iff each is below tol."""
    report = lie_core.validate_algebra(J.L, tol)
    report.record("split_solvable", 0.0 if report.flags["split"] else 1.0, 0.5)
    n = J.dim
    jsq = float(np.max(np.abs(J.j @ J.j + np.eye(n)))) if n else 0.0
    report.record("j_squared", jsq, tol)
    report.record("integrability", integrability_defect(J), tol)
    G = gram(J)
    sym = float(np.max(np.abs(G - G.T))) if n else 0.0
    report.record("gram_symmetry", sym, tol)
    if n:
        lam_min = float(np.min(np.linalg.eigvalsh(0.5 * (G + G.T))))
    else:
        lam_min = 1.0
    report.flags["gram_min_eigenvalue"] = lam_min
    report.record("gram_positive", max(0.0, -lam_min), tol)
    return report


# ---------------------------------------------------------------------------
# Fine structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Root:
    """A root: its values on the eta-frame, its space, and a pattern label.

    ``label`` is one of ("full", k), ("half", k), ("sum", k, l) for
    (alpha_l + alpha_k)/2 with k < l, or ("diff", l, k) for
    (alpha_l - alpha_k)/2 with k < l.
    """

    values_on_eta: tuple
    space: Subspace
    label: tuple


@dataclass(frozen=True)
class FineStructure:
    a_basis: Subspace
    rank: int
    roots: tuple            # of Root
    fundamental: tuple      # indices into roots, ordered alpha_1..alpha_r
    eta: tuple              # of vectors
    xi: tuple               # xi_k = -j eta_k
    delta: np.ndarray
    s_minus1: Subspace
    s_minushalf: Subspace
    s_zero: Subspace

    @property
    def grading_dims(self) -> tuple:
        return (self.s_minus1.dim, self.s_minushalf.dim, self.s_zero.dim)


def _joint_eigenspaces(ops_sym, dim, tol=ROOT_CLUSTER_TOL):
    """Refine R^dim into joint eigenspaces of commuting symmetric operators.

    Returns a list of (values, orthonormal basis) with one eigenvalue per
    operator.  Bases are orthonormal in the coordinates the operators act in.
    """
    spaces = [(np.zeros(0), np.eye(dim))]
    for op in ops_sym:
        refined = []
        for values, B in spaces:
            R = B.T @ op @ B
            R = 0.5 * (R + R.T)
            ev, V = np.linalg.eigh(R)
            # group eigenvalues into clusters
            order = np.argsort(ev)
            ev, V = ev[order], V[:, order]
            start = 0
            for i in range(1, len(ev) + 1):
                if i == len(ev) or ev[i] - ev[i - 1] > tol:
                    lam = float(np.mean(ev[start:i]))
                    refined.append((np.append(values, lam), B @ V[:, start:i]))
                    start = i
        spaces = refined
    return spaces


def fine_structure(J: NormalJAlgebra) -> FineStructure:
    """Root decomposition, canonical frame and grading of a validated algebra."""
    if J._fine_cache is not None:
        return J._fine_cache
    fine = _compute_fine_structure(J)
    object.__setattr__(J, "_fine_cache", fine)
    return fine


def _compute_fine_structure(J: NormalJAlgebra) -> FineStructure:
    n = J.dim
    if n == 0:
        empty = Subspace(0, np.zeros((0, 0)))
        fs = FineStructure(empty, 0, (), (), (), (), np.zeros(0), empty, empty, empty)
        return fs

    rep = lie_core.validate_algebra(J.L)
    if not rep.flags.get("split", False):
        raise NotSplitSolvable("algebra has non-real ad spectrum or is not solvable")

    G = 0.5 * (gram(J) + gram(J).T)
    evals, evecs = np.linalg.eigh(G)
    if np.min(evals) <= 0:
        raise RootPatternViolation("inner product is not positive definite")
    G_half = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    G_ihalf = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T

    nil = derived_algebra(J.L)
    # a = orthocomplement of [s, s] w.r.t. the omega inner product
    if nil.dim:
        M = nil.basis_matrix.T @ G
        _, s, vt = np.linalg.svd(M)
        r = int(np.sum(s > lie_core.RANK_RTOL * s[0]))
        a_basis_mat = vt[r:].T
    else:
        a_basis_mat = np.eye(n)
    a_basis = span(a_basis_mat.T, n)
    r = a_basis.dim
    if r == 0:
        raise RootPatternViolation("abelian part is trivial in a nonzero algebra")
    if np.max(np.abs(bracket_table(a_basis.basis_matrix, a_basis.basis_matrix, J.L))) > 1e-8:
        raise RootPatternViolation("candidate abelian part is not abelian")

    # joint diagonalization of ad(a) in the G^(1/2) coordinates, where the
    # operators are symmetric for a valid normal j-algebra
    a_on = a_basis.orthonormal()
    S = G_half @ ad_matrix(a_on.T, J.L) @ G_ihalf
    St = S.transpose(0, 2, 1)
    asym = float(np.max(np.abs(S - St)))
    if asym > 1e-6:
        raise RootPatternViolation(
            f"ad of the abelian part is not self-adjoint (defect {asym:.2e})"
        )
    spaces = _joint_eigenspaces(0.5 * (S + St), n)

    zero_space = None
    raw_roots = []  # (values on a_on, x-coords basis)
    for values, B in spaces:
        basis_x = G_ihalf @ B
        if np.max(np.abs(values)) <= ROOT_CLUSTER_TOL * 10:
            zero_space = span(basis_x.T, n)
        else:
            raw_roots.append((values, span(basis_x.T, n)))
    if zero_space is None or not lie_core.subspace_equal(zero_space, a_basis, 1e-6):
        raise RootPatternViolation("zero joint eigenspace differs from the abelian part")

    # fundamental roots: one-dimensional space mapped into a by j
    fundamentals = []
    for idx, (values, V) in enumerate(raw_roots):
        if V.dim == 1:
            jv = J.j @ V.basis_matrix[:, 0]
            if residual_outside(jv, a_basis) <= 1e-7 * max(1.0, float(np.linalg.norm(jv))):
                fundamentals.append(idx)
    if len(fundamentals) != r:
        raise RootPatternViolation(
            f"found {len(fundamentals)} fundamental roots, expected rank {r}"
        )

    # eta basis dual to (-alpha_1, ..., -alpha_r): alpha_k(eta_l) = -delta_kl
    R_mat = np.array([raw_roots[i][0] for i in fundamentals])  # r x r on a_on
    if abs(np.linalg.det(R_mat)) < 1e-10:
        raise DegenerateDual("fundamental roots are not linearly independent")
    Y = np.linalg.solve(R_mat, -np.eye(r))
    etas = [a_on @ Y[:, k] for k in range(r)]

    # classify the remaining roots against the fundamental values
    fund_vals = [raw_roots[i][0] for i in fundamentals]

    def match(vec, target):
        return float(np.max(np.abs(vec - target))) <= 1e-6

    labels = {}
    for idx, (values, V) in enumerate(raw_roots):
        if idx in fundamentals:
            labels[idx] = ("full", fundamentals.index(idx))
            continue
        found = None
        for k, ak in enumerate(fund_vals):
            if match(values, 0.5 * ak):
                found = ("half", k)
                break
        if found is None:
            for k in range(r):
                for l in range(r):
                    if k == l:
                        continue
                    if match(values, 0.5 * (fund_vals[l] + fund_vals[k])) and k < l:
                        found = ("sum", k, l)
                        break
                    if match(values, 0.5 * (fund_vals[l] - fund_vals[k])):
                        found = ("diff", l, k)  # positive index first
                        break
                if found:
                    break
        if found is None:
            raise RootPatternViolation("a root is not of an admissible form")
        labels[idx] = found

    order = _fundamental_order(J, raw_roots, fundamentals, labels, r)

    # re-index fundamentals so alpha_1..alpha_r follow the chosen order
    perm = {old: new for new, old in enumerate(order)}
    fundamentals_ord = [fundamentals[old] for old in order]
    etas_ord = [etas[old] for old in order]

    roots = []
    for idx, (values, V) in enumerate(raw_roots):
        lab = labels[idx]
        if lab[0] == "full":
            new_lab = ("full", perm[lab[1]])
        elif lab[0] == "half":
            new_lab = ("half", perm[lab[1]])
        elif lab[0] == "sum":
            k, l = sorted((perm[lab[1]], perm[lab[2]]))
            new_lab = ("sum", k, l)
        else:
            lpos, kneg = perm[lab[1]], perm[lab[2]]
            if kneg >= lpos:
                raise RootPatternViolation(
                    "difference-root pattern admits no consistent ordering"
                )
            new_lab = ("diff", lpos, kneg)
        roots.append((new_lab, values, V))

    # values on the ordered eta frame
    Y_ord = np.column_stack([Y[:, order[k]] for k in range(r)])
    final_roots = []
    for new_lab, values, V in roots:
        vals_on_eta = tuple(float(np.dot(values, Y_ord[:, k])) for k in range(r))
        final_roots.append(Root(vals_on_eta, V, new_lab))

    xis = []
    for k, eta in enumerate(etas_ord):
        xi = -(J.j @ eta)
        full_idx = next(i for i, rt in enumerate(final_roots) if rt.label == ("full", k))
        Vk = final_roots[full_idx].space
        if residual_outside(xi, Vk) > 1e-7 * max(1.0, float(np.linalg.norm(xi))):
            raise RootPatternViolation("frame vector -j eta_k is not in its root space")
        xis.append(xi)

    delta = np.sum(etas_ord, axis=0)

    def collect(pred):
        cols = []
        for rt in final_roots:
            if pred(rt.label):
                cols.extend(rt.space.basis_matrix.T)
        return cols

    s_m1 = span(collect(lambda l: l[0] in ("full", "sum")), n)
    s_mh = span(collect(lambda l: l[0] == "half"), n)
    s_z = span(collect(lambda l: l[0] == "diff") + list(np.column_stack(etas_ord).T), n)

    if s_m1.dim + s_mh.dim + s_z.dim != n:
        raise RootPatternViolation("grading does not fill the algebra")
    # ad(delta) eigenvalues must be exactly -1, -1/2, 0 on the three pieces
    add = ad_matrix(delta, J.L)
    for V, lam in ((s_m1, -1.0), (s_mh, -0.5), (s_z, 0.0)):
        if V.dim:
            dev = float(np.max(np.abs(add @ V.basis_matrix - lam * V.basis_matrix)))
            if dev > 1e-6:
                raise RootPatternViolation(f"grading eigenvalue deviates by {dev:.2e}")

    return FineStructure(
        a_basis=a_basis,
        rank=r,
        roots=tuple(final_roots),
        fundamental=tuple(fundamentals_ord),
        eta=tuple(etas_ord),
        xi=tuple(xis),
        delta=delta,
        s_minus1=s_m1,
        s_minushalf=s_mh,
        s_zero=s_z,
    )


def _fundamental_order(J, raw_roots, fundamentals, labels, r):
    """Topological order forced by the difference-root pattern.

    A root (alpha_a - alpha_b)/2 requires b to precede a; ties are broken
    by the lexicographically smallest dominant basis label of the root space.
    """
    after = {k: set() for k in range(r)}  # edges b -> a
    for idx, lab in labels.items():
        if lab[0] == "diff":
            a, b = lab[1], lab[2]
            after[b].add(a)

    def tie_key(k):
        V = raw_roots[fundamentals[k]][1]
        v = V.basis_matrix[:, 0]
        dominant = int(np.argmax(np.abs(v)))
        return J.L.basis_labels[dominant]

    remaining = set(range(r))
    indeg = {k: 0 for k in range(r)}
    for b in after:
        for a in after[b]:
            indeg[a] += 1
    order = []
    while remaining:
        ready = [k for k in remaining if indeg[k] == 0]
        if not ready:
            raise RootPatternViolation("difference-root pattern contains a cycle")
        nxt = min(ready, key=tie_key)
        order.append(nxt)
        remaining.remove(nxt)
        for a in after[nxt]:
            indeg[a] -= 1
    return order


# ---------------------------------------------------------------------------
# Subalgebras, products, presets
# ---------------------------------------------------------------------------

def subalgebra(J: NormalJAlgebra, basis: np.ndarray, labels=None) -> NormalJAlgebra:
    """Normal j-algebra structure induced on a j-invariant subalgebra.

    ``basis`` columns must span a j-invariant subalgebra; the bracket, j and
    omega are expressed in those columns.  Labels default to the dominant
    ambient label of each column, deduplicated by suffixing.
    """
    B = np.asarray(basis, dtype=float)
    n, m = B.shape
    if m == 0:
        return empty_algebra()
    pinv = np.linalg.pinv(B)
    brackets = bracket_table(B, B, J.L)
    c = brackets @ pinv.T
    off = np.linalg.norm(c @ B.T - brackets, axis=-1)
    if np.any(off > 1e-7 * np.maximum(1.0, np.linalg.norm(brackets, axis=-1))):
        raise InputError("basis does not span a subalgebra")
    j_sub = pinv @ (J.j @ B)
    if np.max(np.abs(B @ j_sub - J.j @ B)) > 1e-7:
        raise InputError("subspace is not j-invariant")
    omega_sub = J.omega @ B
    if labels is None:
        labels = []
        for a in range(m):
            dom = J.L.basis_labels[int(np.argmax(np.abs(B[:, a])))]
            lbl = dom
            k = 2
            while lbl in labels:
                lbl = f"{dom}#{k}"
                k += 1
            labels.append(lbl)
    return NormalJAlgebra(LieAlgebraData(m, tuple(labels), c), j_sub, omega_sub)


def product(J1: NormalJAlgebra, J2: NormalJAlgebra) -> NormalJAlgebra:
    """Block direct sum of two normal j-algebras."""
    n1, n2 = J1.dim, J2.dim
    if n2 == 0:
        return NormalJAlgebra(J1.L, J1.j, J1.omega)
    if n1 == 0:
        return NormalJAlgebra(J2.L, J2.j, J2.omega)
    labels1, labels2 = list(J1.L.basis_labels), list(J2.L.basis_labels)
    if set(labels1) & set(labels2):
        labels1 = [f"{s}.1" for s in labels1]
        labels2 = [f"{s}.2" for s in labels2]
    n = n1 + n2
    c = np.zeros((n, n, n))
    c[:n1, :n1, :n1] = J1.L.c
    c[n1:, n1:, n1:] = J2.L.c
    j = np.zeros((n, n))
    j[:n1, :n1] = J1.j
    j[n1:, n1:] = J2.j
    omega = np.concatenate([J1.omega, J2.omega])
    return NormalJAlgebra(LieAlgebraData(n, tuple(labels1 + labels2), c), j, omega)


def empty_algebra() -> NormalJAlgebra:
    L = LieAlgebraData(0, (), np.zeros((0, 0, 0)))
    return NormalJAlgebra(L, np.zeros((0, 0)), np.zeros(0))


def ball_jalgebra(n: int) -> NormalJAlgebra:
    """The rank-one algebra of the n-ball in its Siegel realization.

    Basis (delta, zeta, xi_1..xi_{n-1}, eta_1..eta_{n-1}) with the vector
    field commutators [delta,zeta] = -zeta, [delta,xi_k] = -xi_k/2,
    [delta,eta_k] = -eta_k/2, [xi_k,eta_k] = 4 zeta; complex structure
    j zeta = delta, j xi_k = eta_k; omega = -zeta^*.
    """
    if n < 1:
        raise InputError("ball preset needs n >= 1")
    dim = 2 * n
    labels = ["delta", "zeta"]
    labels += [f"xi{k}" for k in range(1, n)]
    labels += [f"eta{k}" for k in range(1, n)]
    ix = {s: i for i, s in enumerate(labels)}
    c = np.zeros((dim, dim, dim))

    def setb(a, b, coeffs):
        for lbl, v in coeffs.items():
            c[ix[a], ix[b], ix[lbl]] += v
            c[ix[b], ix[a], ix[lbl]] -= v

    setb("delta", "zeta", {"zeta": -1.0})
    for k in range(1, n):
        setb("delta", f"xi{k}", {f"xi{k}": -0.5})
        setb("delta", f"eta{k}", {f"eta{k}": -0.5})
        setb(f"xi{k}", f"eta{k}", {"zeta": 4.0})
    j = np.zeros((dim, dim))
    j[ix["delta"], ix["zeta"]] = 1.0   # j zeta = delta
    j[ix["zeta"], ix["delta"]] = -1.0  # j delta = -zeta
    for k in range(1, n):
        j[ix[f"eta{k}"], ix[f"xi{k}"]] = 1.0
        j[ix[f"xi{k}"], ix[f"eta{k}"]] = -1.0
    omega = np.zeros(dim)
    omega[ix["zeta"]] = -1.0
    return NormalJAlgebra(LieAlgebraData(dim, tuple(labels), c), j, omega)


def polydisc_jalgebra(r: int) -> NormalJAlgebra:
    """Product of r half-plane factors with per-factor labels delta_k, zeta_k."""
    if r < 1:
        raise InputError("polydisc preset needs r >= 1")
    dim = 2 * r
    labels = []
    for k in range(1, r + 1):
        labels += [f"delta{k}", f"zeta{k}"]
    c = np.zeros((dim, dim, dim))
    j = np.zeros((dim, dim))
    omega = np.zeros(dim)
    for k in range(r):
        d, z = 2 * k, 2 * k + 1
        c[d, z, z] = -1.0
        c[z, d, z] = 1.0
        j[d, z] = 1.0
        j[z, d] = -1.0
        omega[z] = -1.0
    return NormalJAlgebra(LieAlgebraData(dim, tuple(labels), c), j, omega)


def _split_product_args(body: str):
    """Split 'a,b,c' at top level, respecting nested brackets."""
    parts, depth, cur = [], 0, ""
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur:
        parts.append(cur)
    return [p.strip() for p in parts if p.strip()]


def preset(name: str) -> NormalJAlgebra:
    """Resolve a preset name: disc, ball:n, polydisc:r, product:[a,b], empty."""
    name = name.strip()
    if name == "disc":
        return ball_jalgebra(1)
    if name == "empty":
        return empty_algebra()
    m = re.fullmatch(r"ball:(\d+)", name)
    if m:
        return ball_jalgebra(int(m.group(1)))
    m = re.fullmatch(r"polydisc:(\d+)", name)
    if m:
        return polydisc_jalgebra(int(m.group(1)))
    m = re.fullmatch(r"product:\[(.*)\]", name)
    if m:
        parts = _split_product_args(m.group(1))
        if not parts:
            raise InputError("product preset needs at least one factor")
        J = preset(parts[0])
        for p in parts[1:]:
            J = product(J, preset(p))
        return J
    raise InputError(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def j_algebra_from_dict(data: dict) -> NormalJAlgebra:
    L = lie_core.algebra_from_dict(data)
    try:
        j = np.asarray(data["j"], dtype=float)
        omega = np.asarray(data["omega"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad j-algebra file: {exc}") from exc
    return NormalJAlgebra(L, j, omega)


def j_algebra_to_dict(J: NormalJAlgebra) -> dict:
    data = lie_core.algebra_to_dict(J.L)
    data["j"] = [[float(v) for v in row] for row in J.j]
    data["omega"] = [float(v) for v in J.omega]
    return data


def load_j_algebra(path) -> NormalJAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return j_algebra_from_dict(json.load(fh))


def resolve_domain(spec: str) -> NormalJAlgebra:
    """Preset name or path to a j-algebra JSON file."""
    try:
        return preset(spec)
    except InputError as exc:
        preset_error = exc
    try:
        return load_j_algebra(spec)
    except OSError as exc:
        raise InputError(
            f"domain {spec!r} is neither a preset ({preset_error}) nor a readable file"
        ) from exc
