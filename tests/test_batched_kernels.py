"""The whole-basis contractions against the per-pair loops they replaced.

Each ``_loop_*`` function below is the former implementation, kept as the
reference.  The defects are compared on random tensors that satisfy no
algebra axiom (or on models with a perturbed form), so each is of order
one, not a rounding residue.  The contraction order differs from the
loops', so agreement is required to 1e-12, not bit for bit; the stacked
samples are required to equal the per-point draws exactly.
"""

import dataclasses

import numpy as np
import pytest

from hdq import lie_core
from hdq.ball import sample_totally_real_points, totally_real_defect
from hdq.errors import InputError
from hdq.fibration import _homomorphism_defect
from hdq.jalgebra import NormalJAlgebra, integrability_defect, preset, subalgebra
from hdq.lie_core import LieAlgebraData, Subspace, bracket_table, residual_outside, span
from hdq.siegel import DomainPoint, _hermitian_defect, build_model, vector_field

TOL = 1e-12


def _pair(a, b, L):
    return np.einsum("i,j,ijk->k", a, b, L.c)


def _ad(x, L):
    return np.einsum("i,ijk->kj", x, L.c)


def _random_algebra(n, rng):
    return LieAlgebraData(n, tuple(f"e{k}" for k in range(n)), rng.standard_normal((n, n, n)))


def _random_jalgebra(n, rng):
    return NormalJAlgebra(_random_algebra(n, rng), rng.standard_normal((n, n)), rng.standard_normal(n))


# -- the former loops -------------------------------------------------------

def _loop_jacobi(L):
    c = L.c
    t1 = np.einsum("jkm,iml->ijkl", c, c)
    t2 = np.einsum("kim,jml->ijkl", c, c)
    t3 = np.einsum("ijm,kml->ijkl", c, c)
    return float(np.max(np.abs(t1 + t2 + t3)))


def _loop_derived_series(L):
    dims = [L.dim]
    floor = 1e-10 * max(1.0, float(np.max(np.abs(L.c))))
    current = Subspace(L.dim, np.eye(L.dim))
    while current.dim > 0:
        B = current.basis_matrix
        cols = [_pair(B[:, i], B[:, j], L) for i in range(current.dim) for j in range(current.dim)]
        nxt = span(cols, L.dim, floor=floor)
        dims.append(nxt.dim)
        if nxt.dim == current.dim:
            break
        current = nxt
    return dims


def _loop_max_imag(L, samples=20, seed=0):
    vectors = [np.eye(L.dim)[i] for i in range(L.dim)]
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        v = rng.standard_normal(L.dim)
        vectors.append(v / np.linalg.norm(v))
    return max(float(np.max(np.abs(np.linalg.eigvals(_ad(v, L)).imag))) for v in vectors)


def _loop_integrability(J):
    worst, eye = 0.0, np.eye(J.dim)
    for a in range(J.dim):
        for b in range(a + 1, J.dim):
            x, y = eye[a], eye[b]
            jx, jy = J.j @ x, J.j @ y
            t = _pair(x, y, J.L) + J.j @ _pair(jx, y, J.L) + J.j @ _pair(x, jy, J.L) - _pair(jx, jy, J.L)
            worst = max(worst, float(np.max(np.abs(t))))
    return worst


def _loop_subalgebra_tensor(J, B):
    m = B.shape[1]
    pinv = np.linalg.pinv(B)
    c = np.zeros((m, m, m))
    for a in range(m):
        for b in range(a + 1, m):
            v = _pair(B[:, a], B[:, b], J.L)
            coords = pinv @ v
            if np.linalg.norm(B @ coords - v) > 1e-7 * max(1.0, np.linalg.norm(v)):
                raise InputError("basis does not span a subalgebra")
            c[a, b] = coords
            c[b, a] = -coords
    return c


def _loop_homomorphism(J, proj):
    worst, eye = 0.0, np.eye(J.dim)
    for a in range(J.dim):
        for b in range(a + 1, J.dim):
            lhs = proj @ _pair(eye[a], eye[b], J.L)
            rhs = _pair(proj @ eye[a], proj @ eye[b], J.L)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _loop_hermitian(M):
    worst, eye = 0.0, np.eye(M.q)
    for i in range(M.q):
        for j in range(M.q):
            u, v = eye[i], eye[j]
            lin = M.phi(M.jhalf @ u, v) - 1j * M.phi(u, v)
            herm = M.phi(v, u) - np.conj(M.phi(u, v))
            worst = max(worst, float(np.max(np.abs(lin))), float(np.max(np.abs(herm))))
        worst = max(worst, float(np.max(np.abs(M.phi(eye[i], eye[i]).imag))))
    return worst


def _loop_closure(V, L):
    worst = 0.0
    for i in range(V.dim):
        for j in range(i + 1, V.dim):
            br = _pair(V.basis_matrix[:, i], V.basis_matrix[:, j], L)
            worst = max(worst, residual_outside(br, V) / max(1.0, float(np.linalg.norm(br))))
    return worst


def _loop_rep_defect(R):
    L, M = R.algebra, R.matrices
    worst = 0.0
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = np.einsum("k,kab->ab", L.c[i, j], M)
            worst = max(worst, float(np.max(np.abs(lhs - (M[i] @ M[j] - M[j] @ M[i])))))
    return worst


def _loop_vector_field(x, pt, M):
    c = M.Cinv @ x
    xi, xip, x0 = c[: M.p], c[M.p : M.p + M.q], c[M.p + M.q :]
    A1 = np.einsum("a,aij->ij", x0, M.ad1_gens)
    Ah = np.einsum("a,aij->ij", x0, M.adh_gens)
    dz = -(A1 @ pt.z) + xi.astype(complex)
    if M.q:
        dz = dz + 2j * M.phi(pt.w, xip)
    dw = -(Ah @ pt.w) + xip
    return np.concatenate([dz, M.to_complex_w(dw)])


def _loop_samples(M, count, rng):
    pts = []
    for _ in range(count):
        w = rng.uniform(-1.0, 1.0, M.q)
        if M.q:
            nw = np.linalg.norm(w)
            if nw > 1.0:
                w = w / nw
        quad = np.einsum("i,j,ijk->k", w, w, M.phi_re) if M.q else np.zeros(M.p)
        z = rng.uniform(-2.0, 2.0, M.p) + 1j * (quad + M.xi0_coords)
        pts.append(DomainPoint(z, w))
    return pts


# -- comparisons ------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 5, 9])
def test_bracket_table_matches_pairs(n):
    rng = np.random.default_rng(n)
    L = _random_algebra(n, rng)
    A, B = rng.standard_normal((n, 4)), rng.standard_normal((n, 3))
    table = bracket_table(A, B, L)
    assert table.shape == (4, 3, n)
    for s in range(4):
        for t in range(3):
            np.testing.assert_allclose(table[s, t], _pair(A[:, s], B[:, t], L), rtol=0, atol=TOL)
            np.testing.assert_allclose(lie_core.bracket(A[:, s], B[:, t], L), table[s, t], rtol=0, atol=TOL)
    stack = lie_core.ad_matrix(A.T, L)
    for s in range(4):
        np.testing.assert_allclose(stack[s], _ad(A[:, s], L), rtol=0, atol=TOL)
    np.testing.assert_allclose(lie_core.ad_matrix(np.eye(n), L), L.c.transpose(0, 2, 1), rtol=0, atol=TOL)


@pytest.mark.parametrize("n", [3, 7])
def test_lie_core_defects_match_loops(n):
    rng = np.random.default_rng(10 + n)
    L = _random_algebra(n, rng)
    jac = lie_core.jacobi_defect(L)
    assert jac > 0.1
    assert abs(jac - _loop_jacobi(L)) <= TOL * jac
    imag = lie_core.max_imag_ad_eigenvalue(L)
    assert imag > 0.1
    assert abs(imag - _loop_max_imag(L)) <= TOL * imag
    V = span(rng.standard_normal((2, n)), n)
    closure = lie_core.closure_residual(V, L)
    assert closure > 0.1
    assert abs(closure - _loop_closure(V, L)) <= TOL
    R = lie_core.AffineRep(L, 4, rng.standard_normal((n, 4, 4)))
    rep = lie_core.rep_bracket_defect(R)
    assert abs(rep - _loop_rep_defect(R)) <= TOL * rep


@pytest.mark.parametrize("name", ["ball:4", "polydisc:3", "product:[ball:3,ball:2]", "random:6"])
def test_derived_series_matches_loop(name):
    L = _random_algebra(6, np.random.default_rng(6)) if name.startswith("random") else preset(name).L
    assert lie_core.derived_series(L) == _loop_derived_series(L)


@pytest.mark.parametrize("n", [4, 8])
def test_jalgebra_defects_match_loops(n):
    rng = np.random.default_rng(20 + n)
    J = _random_jalgebra(n, rng)
    integ = integrability_defect(J)
    assert integ > 0.1
    assert abs(integ - _loop_integrability(J)) <= TOL * integ
    proj = rng.standard_normal((n, n))
    hom = _homomorphism_defect(J, proj)
    assert hom > 0.1
    assert abs(hom - _loop_homomorphism(J, proj)) <= TOL * hom


def test_subalgebra_tensor_matches_loop():
    rng = np.random.default_rng(30)
    J = _random_jalgebra(6, rng)
    # every bracket lies in the span of a square basis
    B = rng.standard_normal((6, 6))
    sub = subalgebra(J, B)
    ref = LieAlgebraData(6, sub.L.basis_labels, _loop_subalgebra_tensor(J, B))
    np.testing.assert_allclose(sub.L.c, ref.c, rtol=0, atol=1e-12 * np.max(np.abs(ref.c)))
    # a random plane is not closed: both reject it
    with pytest.raises(InputError):
        _loop_subalgebra_tensor(J, B[:, :2])
    with pytest.raises(InputError):
        subalgebra(J, B[:, :2])


@pytest.mark.parametrize("name", ["ball:3", "product:[ball:3,ball:2]"])
def test_hermitian_defect_matches_loop(name):
    M = build_model(preset(name))
    assert abs(_hermitian_defect(M) - _loop_hermitian(M)) <= TOL
    rng = np.random.default_rng(40)
    bent = dataclasses.replace(
        M,
        phi_re=M.phi_re + rng.standard_normal(M.phi_re.shape),
        phi_im=M.phi_im + rng.standard_normal(M.phi_im.shape),
    )
    defect = _hermitian_defect(bent)
    assert defect > 0.1
    assert abs(defect - _loop_hermitian(bent)) <= TOL * defect


@pytest.mark.parametrize("name", ["ball:1", "ball:4", "polydisc:3", "product:[ball:3,ball:2]"])
def test_stacked_fields_and_samples_match_per_point(name):
    M = build_model(preset(name))
    n = M.J.dim
    pts = sample_totally_real_points(M, 30, np.random.default_rng(50))
    ref = _loop_samples(M, 30, np.random.default_rng(50))
    assert pts.z.shape == (30, M.p) and pts.w.shape == (30, M.q)
    # the same draws, bit for bit
    np.testing.assert_array_equal(pts.pack(), np.array([pt.pack() for pt in ref]))
    assert [pt.pack().tolist() for pt in pts] == [pt.pack().tolist() for pt in ref]

    rng = np.random.default_rng(51)
    X = rng.standard_normal((M.dim_complex, n))
    fields = vector_field(X, DomainPoint(pts.z[:, None, :], pts.w[:, None, :]), M)
    assert fields.shape == (30, M.dim_complex, M.dim_complex)
    V = Subspace(n, X.T)
    dets = totally_real_defect(pts, V, M)
    assert dets.shape == (30,)
    for k, pt in enumerate(ref):
        cols = [_loop_vector_field(x, pt, M) for x in V.basis_matrix.T]
        np.testing.assert_allclose(fields[k], [_loop_vector_field(x, pt, M) for x in X], rtol=0, atol=TOL)
        single = totally_real_defect(pt, V, M)
        assert isinstance(single, complex)
        assert single == dets[k]
        old = complex(np.linalg.det(np.column_stack(cols)))
        assert abs(single - old) <= TOL * max(1.0, abs(old))

