"""Normal j-algebras: validation, root decomposition, fine structure.

A normal j-algebra is a split solvable algebra with an integrable complex
structure ``j`` and a linear form ``omega`` such that
``<x, y> = omega([j x, y])`` is a j-invariant inner product.  The fine
structure computed here is the joint eigenspace decomposition of the
ad-action of the maximal abelian part a, together with the canonical frame
(eta_k, xi_k), the element delta and the induced (-1, -1/2, 0) grading
(Vinberg, Gindikin and Pyatetskii-Shapiro, 1963).

Split-solvability is decided from structure: the algebra is solvable and
ad(a) is self-adjoint in the metric ``<x, y>``.  The joint eigenspaces are
found coarse to fine, never splitting eigenvalues that lie close together,
and each root is labelled by reading twice its values on the eta frame as
an integer pattern."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from . import lie_core
from .errors import (
    DegenerateDual,
    HdqError,
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
    span,
    residual_outside,
)

J_TOL = 1e-9
# A joint eigenspace of ad(a) must hold to this tolerance times the largest
# entry of the ad(a) stack, and a root whose values are all within ten
# times it of zero is the zero root; inputs are exact to double precision.
ROOT_CLUSTER_TOL = 1e-7
# eigenvalues of one ad(a) operator closer than this times the same scale
# stay in one cluster until another operator separates them
ROOT_MERGE_RTOL = 1e-3
# largest asymmetry of ad(a) in the G^(1/2) coordinates of a split algebra
SPLIT_TOL = 1e-6
# entries of a rebased bracket or j at most this times their largest are
# rounding: over a basis of root vectors both follow the root pattern
ADAPTED_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class NormalJAlgebra:
    L: LieAlgebraData
    j: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        j = np.ascontiguousarray(self.j, dtype=float)
        w = np.ascontiguousarray(self.omega, dtype=float)
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
    # G[a, b] = omega([j e_a, e_b]) = sum_i j[i, a] omega([e_i, e_b])
    return J.j.T @ (J.L.c @ J.omega)


def integrability_defect(J: NormalJAlgebra) -> float:
    """Max norm over basis pairs of the torsion expression
    [x,y] + j[jx,y] + j[x,jy] - [jx,jy].

    With ``jb[a, b] = [j e_a, e_b]`` the middle terms are ``j jb[a, b]``
    and ``-j jb[b, a]``, so the whole table is four array terms.
    """
    jb = bracket_table(J.j, np.eye(J.dim), J.L)
    t = J.L.c + (jb - jb.transpose(1, 0, 2)) @ J.j.T - bracket_table(J.j, J.j, J.L)
    return float(np.max(np.abs(t), initial=0.0))


def validate_j_algebra(J: NormalJAlgebra) -> ValidationReport:
    """Defects of all normal j-algebra axioms; passes iff each is below its
    tolerance (``J_TOL``, and ``SPLIT_TOL`` for split-solvability).

    Split-solvability is read off the root decomposition, which is cached
    on ``J`` for the model built next; a decomposition that fails records
    an infinite defect and its reason.
    """
    report = lie_core.validate_algebra(J.L)
    report.record("j_squared", float(np.max(np.abs(J.j @ J.j + np.eye(J.dim)), initial=0.0)), J_TOL)
    report.record("integrability", integrability_defect(J), J_TOL)
    G = gram(J)
    report.record("gram_symmetry", float(np.max(np.abs(G - G.T), initial=0.0)), J_TOL)
    lam_min = float(np.min(np.linalg.eigvalsh(0.5 * (G + G.T)), initial=1.0))
    report.flags["gram_min_eigenvalue"] = lam_min
    report.record("gram_positive", max(0.0, -lam_min), J_TOL)
    if lam_min > 0:  # the metric split-solvability is measured in
        try:
            split = fine_structure(J).split_defect
        except HdqError as exc:
            split = np.inf
            report.flags["root_decomposition"] = str(exc)
        report.record("split_solvable", split, SPLIT_TOL)
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
    rank: int
    roots: tuple            # of Root, sorted by label
    eta: tuple              # of vectors
    xi: tuple               # xi_k = -j eta_k
    delta: np.ndarray
    s_minus1: Subspace
    s_minushalf: Subspace
    s_zero: Subspace
    split_defect: float     # largest asymmetry of ad(a), at most SPLIT_TOL

    @property
    def grading_dims(self) -> tuple:
        return (self.s_minus1.dim, self.s_minushalf.dim, self.s_zero.dim)


def _joint_eigenspaces(ops_sym):
    """Joint eigenspaces of a stack of commuting symmetric operators, as
    (values, orthonormal basis) pairs with one value per operator.

    Each operator refines the clusters the previous ones left.  Eigenvalues
    closer than ``ROOT_MERGE_RTOL`` times the largest entry of the stack
    stay in one cluster for a later operator to split, so no split falls
    in a gap where eigenvectors are ill-conditioned.  A cluster's values
    are its Rayleigh quotients; a cluster that is not a joint eigenspace
    to ``ROOT_CLUSTER_TOL`` times that scale is refused.
    """
    scale = max(float(np.max(np.abs(ops_sym))), np.finfo(float).tiny)
    spaces = [np.eye(ops_sym.shape[-1])]
    for op in ops_sym:
        refined = []
        for B in spaces:
            if B.shape[1] == 1:
                refined.append(B)
                continue
            ev, V = np.linalg.eigh(B.T @ op @ B)
            cuts = np.flatnonzero(np.diff(ev) > ROOT_MERGE_RTOL * scale) + 1
            refined.extend(B @ W for W in np.split(V, cuts, axis=1))
        spaces = refined
    out = []
    for B in spaces:
        SB = ops_sym @ B
        values = np.einsum("ad,kad->k", B, SB) / B.shape[1]
        if np.max(np.abs(SB - values[:, None, None] * B)) > ROOT_CLUSTER_TOL * scale:
            raise RootPatternViolation("ad of the abelian part has no joint eigenspace decomposition")
        out.append((values, B))
    # by value, operator by operator (rounded to the tolerance), whichever
    # operator split them
    return sorted(out, key=lambda vb: tuple(np.rint(vb[0] / (ROOT_CLUSTER_TOL * scale))))


def fine_structure(J: NormalJAlgebra) -> FineStructure:
    """Root decomposition, canonical frame and grading of a validated algebra."""
    if J._fine_cache is not None:
        return J._fine_cache
    fine = _compute_fine_structure(J)
    object.__setattr__(J, "_fine_cache", fine)
    return fine


def _abelian_part(J: NormalJAlgebra):
    """(a, S, G^(-1/2), asymmetry) of a solvable algebra.

    ``a`` is the G-orthocomplement of [s, s] and ``S`` is ad(a) over an
    orthonormal basis of a, in G^(1/2) coordinates.  ``S`` is symmetric
    exactly when ad(a) is self-adjoint in the G-metric; with [s, s]
    nilpotent that makes the algebra split solvable, and the asymmetry
    (the largest entry of S - S^T) measures how far it is from that.
    """
    series = lie_core.derived_series(J.L)
    if series[-1].dim:
        raise NotSplitSolvable("algebra is not solvable")
    G = gram(J)
    G = 0.5 * (G + G.T)
    evals, evecs = np.linalg.eigh(G)
    if np.min(evals, initial=np.inf) <= 0:
        raise RootPatternViolation("inner product is not positive definite")
    root = np.sqrt(evals)
    G_half = (evecs * root) @ evecs.T
    G_ihalf = (evecs / root) @ evecs.T

    nil = series[1]  # [s, s]
    if nil.dim:
        _, s, vt = np.linalg.svd(nil.basis_matrix.T @ G)
        a_basis = span(vt[int(np.sum(s > lie_core.RANK_RTOL * s[0])):], J.dim)
    else:
        a_basis = span(np.eye(J.dim), J.dim)
    S = G_half @ ad_matrix(a_basis.orthonormal().T, J.L) @ G_ihalf
    asym = float(np.max(np.abs(S - S.transpose(0, 2, 1)), initial=0.0))
    return a_basis, S, G_ihalf, asym


def _compute_fine_structure(J: NormalJAlgebra) -> FineStructure:
    n = J.dim
    if n == 0:
        empty = Subspace(0, np.zeros((0, 0)))
        return FineStructure(0, (), (), (), np.zeros(0), empty, empty, empty, 0.0)

    a_basis, S, G_ihalf, asym = _abelian_part(J)
    r = a_basis.dim
    if r == 0:
        raise RootPatternViolation("abelian part is trivial in a nonzero algebra")
    if np.max(np.abs(bracket_table(a_basis.basis_matrix, a_basis.basis_matrix, J.L))) > 1e-8:
        raise RootPatternViolation("candidate abelian part is not abelian")
    if asym > SPLIT_TOL:
        raise NotSplitSolvable(f"ad of the abelian part is not self-adjoint (defect {asym:.2e})")

    zero_space = None
    raw_roots = []  # (values on the orthonormal basis of a, space)
    for values, B in _joint_eigenspaces(0.5 * (S + S.transpose(0, 2, 1))):
        V = span((G_ihalf @ B).T, n)
        if np.max(np.abs(values)) <= ROOT_CLUSTER_TOL * 10:
            zero_space = V
        else:
            raw_roots.append((values, V))
    if zero_space is None or not lie_core.subspace_equal(zero_space, a_basis, 1e-6):
        raise RootPatternViolation("zero joint eigenspace differs from the abelian part")

    # fundamental roots: one-dimensional space mapped into a by j
    fundamentals = []
    for values, V in raw_roots:
        if V.dim == 1:
            jv = J.j @ V.basis_matrix[:, 0]
            if residual_outside(jv, a_basis) <= 1e-7 * max(1.0, float(np.linalg.norm(jv))):
                fundamentals.append((values, V))
    if len(fundamentals) != r:
        raise RootPatternViolation(
            f"found {len(fundamentals)} fundamental roots, expected rank {r}"
        )

    # eta basis dual to (-alpha_1, ..., -alpha_r): alpha_k(eta_l) = -delta_kl
    R_mat = np.array([values for values, _ in fundamentals])  # r x r on a
    if abs(np.linalg.det(R_mat)) < 1e-10:
        raise DegenerateDual("fundamental roots are not linearly independent")
    Y = np.linalg.solve(R_mat, -np.eye(r))
    order = _fundamental_order(J, [V for _, V in fundamentals], [2.0 * v @ Y for v, _ in raw_roots])
    Y = Y[:, order]
    etas = [a_basis.orthonormal() @ Y[:, k] for k in range(r)]

    # roots in label order, so that the model's block order does not follow
    # the basis an SVD picked for a
    labelled = sorted(((_root_label(2.0 * v @ Y), v @ Y, V) for v, V in raw_roots), key=lambda t: t[0])
    final_roots = [Root(tuple(float(x) for x in vals), V, lab) for lab, vals, V in labelled]
    spaces = {rt.label: rt.space for rt in final_roots}

    xis = []
    for k, eta in enumerate(etas):
        xi = -(J.j @ eta)
        if residual_outside(xi, spaces[("full", k)]) > 1e-7 * max(1.0, float(np.linalg.norm(xi))):
            raise RootPatternViolation("frame vector -j eta_k is not in its root space")
        xis.append(xi)

    delta = np.sum(etas, axis=0)

    def collect(pred):
        cols = []
        for rt in final_roots:
            if pred(rt.label):
                cols.extend(rt.space.basis_matrix.T)
        return cols

    s_m1 = span(collect(lambda l: l[0] in ("full", "sum")), n)
    s_mh = span(collect(lambda l: l[0] == "half"), n)
    s_z = span(collect(lambda l: l[0] == "diff") + etas, n)

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
        rank=r,
        roots=tuple(final_roots),
        eta=tuple(etas),
        xi=tuple(xis),
        delta=delta,
        s_minus1=s_m1,
        s_minushalf=s_mh,
        s_zero=s_z,
        split_defect=asym,
    )


# twice a root's values on the eta frame, nonzero entries in frame order
_ROOT_KINDS = {(-2,): "full", (-1,): "half", (-1, -1): "sum", (1, -1): "diff"}


def _root_label(twice) -> tuple:
    """Label of a root from twice its values on the ordered eta frame:
    -2e_k is ("full", k), -e_k ("half", k), -e_k-e_l ("sum", k, l) and
    -e_l+e_k ("diff", l, k), with k < l."""
    p = np.rint(twice)
    idx = [int(i) for i in np.flatnonzero(p)]
    kind = _ROOT_KINDS.get(tuple(int(v) for v in p[idx]))
    if kind is None or np.max(np.abs(twice - p)) > 2e-6:
        raise RootPatternViolation("a root is not of an admissible form")
    return (kind, idx[1], idx[0]) if kind == "diff" else (kind, *idx)


def _fundamental_order(J, fundamental_spaces, twice):
    """Topological order forced by the difference-root pattern.

    ``twice`` holds each root's doubled values on the unordered eta frame.
    A root (alpha_a - alpha_b)/2, with -1 at a and +1 at b, requires b to
    precede a; ties are broken by the lexicographically smallest dominant
    basis label of the root space, then by the lower index.
    """
    r = len(fundamental_spaces)
    before = {k: set() for k in range(r)}
    for t in twice:
        p = np.rint(t)
        if sorted(p[np.flatnonzero(p)]) == [-1, 1]:
            before[int(np.argmin(p))].add(int(np.argmax(p)))

    def tie_key(k):
        v = fundamental_spaces[k].basis_matrix[:, 0]
        return J.L.basis_labels[int(np.argmax(np.abs(v)))]

    order = []
    while len(order) < r:
        ready = [k for k in range(r) if k not in order and before[k] <= set(order)]
        if not ready:
            raise RootPatternViolation("difference-root pattern contains a cycle")
        order.append(min(ready, key=tie_key))
    return order


# ---------------------------------------------------------------------------
# Subalgebras, products, presets
# ---------------------------------------------------------------------------

def adapted(J: NormalJAlgebra, C: np.ndarray) -> NormalJAlgebra:
    """J over the basis of the columns of the invertible C: the bracket, j
    and omega expressed in those columns, each labelled by its dominant
    ambient label, deduplicated by suffixing.  J itself when C is the
    identity.  Entries of the bracket and of j within ``ADAPTED_RTOL`` of
    zero, relative to their largest, are set to zero, so that an algebra
    given over a dense basis is as sparse over a basis of root vectors as
    its root pattern."""
    n = J.dim
    if np.array_equal(C, np.eye(n)):
        return J
    inverse = np.linalg.inv(C)
    labels = []
    for a in range(n):
        dom = J.L.basis_labels[int(np.argmax(np.abs(C[:, a])))]
        lbl, k = dom, 2
        while lbl in labels:
            lbl = f"{dom}#{k}"
            k += 1
        labels.append(lbl)
    c = bracket_table(C, C, J.L) @ inverse.T
    c, j = 0.5 * (c - c.transpose(1, 0, 2)), inverse @ J.j @ C
    for a in (c, j):
        a[np.abs(a) <= ADAPTED_RTOL * np.max(np.abs(a), initial=0.0)] = 0.0
    return NormalJAlgebra(LieAlgebraData(n, tuple(labels), c), j, J.omega @ C)


def leakage(J: NormalJAlgebra, keep, ideal: bool = False) -> tuple[float, float]:
    """(bracket, j) of the basis vectors that the boolean ``keep`` selects:
    the largest part outside their span of the bracket of two of them
    (with ``ideal``, of one with any basis vector), relative to max(1, its
    norm), and the largest entry of j from one of them to a dropped one."""
    drop = ~keep
    sq = np.square(J.L.c[keep] if ideal else J.L.c[keep][:, keep])
    off = np.sqrt(sq[..., drop].sum(axis=-1) / np.maximum(1.0, sq.sum(axis=-1)))
    return float(off.max(initial=0.0)), float(np.abs(J.j[drop][:, keep]).max(initial=0.0))


def subalgebra(J: NormalJAlgebra, keep, ideal: bool = False, leak=None) -> NormalJAlgebra:
    """The normal j-algebra on the basis vectors of J that the mask
    ``keep`` selects: the bracket, j, omega and labels sliced.  Raises
    ``InputError`` unless both parts of their ``leakage`` (``leak`` when
    the caller measured it) are at most 1e-7, so that they span a
    j-invariant subalgebra (with ``ideal``, ideal)."""
    keep = np.asarray(keep, dtype=bool)
    if not keep.any():
        return empty_algebra()
    if max(leakage(J, keep, ideal) if leak is None else leak) > 1e-7:
        raise InputError(f"basis does not span a j-invariant {'ideal' if ideal else 'subalgebra'}")
    labels = tuple(lbl for lbl, k in zip(J.L.basis_labels, keep) if k)
    c = J.L.c[keep][:, keep][..., keep]
    return NormalJAlgebra(LieAlgebraData(len(labels), labels, c), J.j[keep][:, keep], J.omega[keep])


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
    data["j"] = J.j.tolist()
    data["omega"] = J.omega.tolist()
    return data


def read_json(path):
    """The JSON value in the file at ``path``; a file that cannot be read
    or does not hold UTF-8 JSON is an ``InputError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def resolve_domain(spec: str) -> NormalJAlgebra:
    """Preset name or path to a j-algebra JSON file."""
    try:
        return preset(spec)
    except InputError as exc:
        preset_error = exc
    try:
        data = read_json(spec)
    except InputError as exc:
        raise InputError(f"domain {spec!r} is neither a preset ({preset_error}) nor a readable file ({exc.__cause__})") from exc
    return j_algebra_from_dict(data)
