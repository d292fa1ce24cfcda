import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm, logm

from hdq import analyzer, jalgebra
from hdq.fibration import Tower
from hdq.lie_core import LieAlgebraData, ad_matrix, bracket_table, derived_series, residual_outside, span
from hdq.siegel import build_model, group_element

# the CLI tests start `python -m hdq.cli` in a subprocess; let it import
# the package from this checkout without an install
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(autouse=True)
def empty_domain_slot():
    """Each test starts with no prepared domain (``analyzer._prepared``)
    and no preset kept (``analyzer._preset``)."""
    analyzer._SLOT = None
    analyzer._PRESET = None


def _relabelled_polydisc(rank, rng, per_vector=False):
    """A copy of polydisc:rank with its basis permuted and rescaled: new basis
    vector a is scale[a] * e_perm[a], with one factor per basis vector or
    one per disc factor.  Returns (copy, perm, scale)."""
    J = jalgebra.preset(f"polydisc:{rank}")
    n = J.dim
    perm = rng.permutation(n)
    scale = rng.uniform(0.5, 2.0, n) if per_vector else rng.uniform(0.5, 2.0, rank)[perm // 2]
    c = J.L.c[np.ix_(perm, perm, perm)] * np.einsum("a,b,k->abk", scale, scale, 1.0 / scale)
    j = J.j[np.ix_(perm, perm)] * np.outer(1.0 / scale, scale)
    omega = J.omega[perm] * scale
    labels = tuple(f"b{a:02d}" for a in range(n))
    return jalgebra.NormalJAlgebra(LieAlgebraData(n, labels, c), j, omega), perm, scale


def tower(J):
    """Every level of J's tower; rank steps down by 1 to a point."""
    T = Tower(build_model(J))
    return [T[k] for k in range(1, T.model.rank + 1)]


def exp_as_affine(domain, phi):
    """The ``exp:`` string phi on the preset domain as the mapping of its
    affine map (``analyzer.phi_affine``'s linear part and translation),
    which takes the Jordan split and the orbit solve."""
    J = jalgebra.preset(domain)
    mat, off, _ = analyzer.phi_affine(phi, J, build_model(J))
    return {"linear": mat.tolist(), "translation": off.tolist()}


def random_element(M, rng, bound=1.0):
    """A group element with exponential coordinates uniform in [-bound, bound]."""
    return group_element(M, rng.uniform(-bound, bound, M.p + M.q), rng.uniform(-bound, bound, M.p0))


@pytest.fixture
def relabelled_polydisc():
    return _relabelled_polydisc


def _rebased(J, T):
    """J in the basis whose vectors are the rows of T: new basis vector a is
    sum_i T[a, i] e_i, labelled f<a>."""
    Ti = np.linalg.inv(T)
    c = np.einsum("ai,bj,ijk,kc->abc", T, T, J.L.c, Ti)
    labels = tuple(f"f{a}" for a in range(J.dim))
    return jalgebra.NormalJAlgebra(LieAlgebraData(J.dim, labels, c), Ti.T @ J.j @ T.T, T @ J.omega)


@pytest.fixture
def rebased():
    return _rebased


def _tilted_ideal(F, size):
    """The tower level F with its domain algebra rebased so that the first
    ideal column leans by ``size`` toward the first kept one: the masks
    then select a subspace that is not the ideal, off G-orthogonality to
    the kept columns and out of the bracket and j blocks by about
    ``size``.  The step carries the leakage its tilted algebra measures,
    as ``split_last_root`` records it."""
    M = F.domain_model
    T = np.eye(M.J.dim)
    T[np.argmax(F.ideal), np.argmin(F.ideal)] = size
    J = _rebased(M.J, T)
    leak = jalgebra.leakage(J, ~F.ideal) + jalgebra.leakage(J, F.ideal, ideal=True)
    return dataclasses.replace(F, domain_model=dataclasses.replace(M, J=J), leakage=leak)


@pytest.fixture
def tilted_ideal():
    return _tilted_ideal


def _compose(g, h, M):
    """Product oracle: the element g h, read back from the product K of the
    two adjoint matrices expm(-ad x_minus) expm(-ad x_zero).  Its 0-part is
    the matrix log of the product of the (-1)-block actions, solved by least
    squares against the ad generators; its minus part is the delta read-off
    of K, the minus block of delta - K delta with its half block doubled."""

    p, k = M.p, M.p0
    zero_minus, zero_zero = np.zeros(p + M.q), np.zeros(k)

    def adjoint(e):
        v_minus = np.concatenate([e.x_minus, zero_zero])
        v_zero = np.concatenate([zero_minus, e.x_zero])
        return expm(-ad_matrix(v_minus, M.J.L)) @ expm(-ad_matrix(v_zero, M.J.L))

    X = np.real_if_close(logm(g.affine_matrix[:p, :p] @ h.affine_matrix[:p, :p]), tol=1e6).real
    x_zero, *_ = np.linalg.lstsq(M.ad1_gens.reshape(k, -1).T, -X.ravel(), rcond=None)
    delta = np.concatenate([zero_minus, M.delta0_coords])
    K = adjoint(g) @ adjoint(h)
    x_minus = (delta - K @ delta)[: p + M.q]
    x_minus[p:] *= 2.0
    return group_element(M, x_minus, x_zero)


@pytest.fixture
def compose():
    return _compose


def _sym2_tube():
    """The tube over the cone of positive 2x2 symmetric matrices, the first
    algebra here with sum and diff roots.  Basis (h1, e, h2, a11, a12, a22)
    of the affine vector fields Z -> t Z + Z t^T + A on Sym(2, C), with t
    lower triangular [[h1, 0], [e, h2]] and A = [[a11, a12], [a12, a22]];
    j pulls back multiplication by i at the base point iI, and omega is
    -(a11 + a22)."""

    def fields(v):
        return np.array([[v[0], 0.0], [v[1], v[2]]]), np.array([[v[3], v[4]], [v[4], v[5]]])

    def pack(t, A):
        return np.array([t[0, 0], t[1, 0], t[1, 1], A[0, 0], A[0, 1], A[1, 1]])

    def bracket(u, v):
        (t1, A1), (t2, A2) = fields(u), fields(v)
        return pack(t2 @ t1 - t1 @ t2, t2 @ A1 + A1 @ t2.T - t1 @ A2 - A2 @ t1.T)

    def at_base(v):
        t, A = fields(v)
        Z = 1j * (t + t.T) + A
        return np.concatenate([Z[np.triu_indices(2)].real, Z[np.triu_indices(2)].imag])

    E = np.eye(6)
    c = np.array([[bracket(a, b) for b in E] for a in E])
    ev = np.column_stack([at_base(a) for a in E])
    i = np.block([[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
    labels = ("h1", "e", "h2", "a11", "a12", "a22")
    omega = np.array([0.0, 0.0, 0.0, -1.0, 0.0, -1.0])
    return jalgebra.NormalJAlgebra(LieAlgebraData(6, labels, c), np.linalg.solve(ev, i @ ev), omega)


@pytest.fixture
def sym2_tube():
    return _sym2_tube


def _fibration_invariants(F):
    """What one tower level promises, measured from the kept fields alone.

    The fiber algebra is Heisenberg-like: its derived algebra commutes with
    the frame line xi (``center``), brackets inside it land on that line
    (``heisenberg``), and the half block pairs nondegenerately onto it
    (``symplectic_det``).  The quotient map, the selection ``coords =
    quotient_map`` from the domain model's coordinates to the quotient
    model's, commutes with j, is a
    homomorphism onto the quotient algebra, kills the ideal (``kernel``),
    and pulls the quotient metric back to the metric of the
    omega-orthogonal projection ``P`` along the ideal (``projection``).
    """
    M, Mq = F.domain_model, F.quotient_model
    J, Jq, Jb = M.J, Mq.J, F.fiber_model.J
    fine = jalgebra.fine_structure(Jb)
    xi = fine.xi[0]
    D = derived_series(Jb.L)[1].basis_matrix
    second = bracket_table(D, D, Jb.L).reshape(-1, Jb.dim)
    H = fine.s_minushalf.basis_matrix
    pairing = bracket_table(H, H, Jb.L) @ xi / float(xi @ xi)
    coords = F.quotient_map
    b, G = np.eye(J.dim)[:, F.ideal], jalgebra.gram(J)
    P = np.eye(J.dim) - b @ np.linalg.solve(b.T @ G @ b, b.T @ G)
    return {
        "center": float(np.max(np.abs(bracket_table(xi[:, None], D, Jb.L)), initial=0.0)),
        "heisenberg": float(np.max(residual_outside(second, span([xi], Jb.dim)), initial=0.0)),
        "symplectic_det": abs(float(np.linalg.det(pairing))) if H.shape[1] else 1.0,
        "j_commutes": float(np.max(np.abs(coords @ J.j - Jq.j @ coords), initial=0.0)),
        "homomorphism": float(np.max(
            np.abs(J.L.c @ coords.T - bracket_table(coords, coords, Jq.L)), initial=0.0
        )),
        "kernel": float(np.max(np.abs(coords @ b), initial=0.0)),
        "projection": float(np.max(np.abs(coords.T @ jalgebra.gram(Jq) @ coords - P.T @ G @ P))),
    }


@pytest.fixture
def fibration_invariants():
    return _fibration_invariants
