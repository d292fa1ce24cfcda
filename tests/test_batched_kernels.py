"""The whole-basis contractions against the per-pair loops they replaced.

Each ``_loop_*`` function below is the former implementation, kept as the
reference, as are the former ``einsum`` bracket formula and scipy's
``expm`` for the batched exponential of the group elements.  The defects are compared on random tensors that satisfy no
algebra axiom (or on models with a perturbed form), so each is of order
one, not a rounding residue.  The contraction order differs from the
loops', so agreement is required to 1e-12, not bit for bit; the stacked
samples are required to equal the per-point draws exactly.
"""

import ast
import dataclasses
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from hdq import lie_core, siegel
from hdq.ball import totally_real_defect
from hdq.errors import InputError
from hdq.jalgebra import NormalJAlgebra, adapted, integrability_defect, preset, subalgebra
from hdq.errors import DimensionMismatch
from hdq.lie_core import LieAlgebraData, Subspace, bracket_table, residual_outside, span, subspace_equal
from hdq.siegel import (
    DomainPoint,
    _ad_blocks,
    _expm_stack,
    _hermitian_defect,
    _scaled_powers,
    build_model,
    cone_contains,
    domain_defect,
    random_interior_points,
    vector_field,
)

TOL = 1e-12


def _einsum_bracket_table(A, B, L):
    return np.einsum("ia,jb,ijk->abk", A, B, L.c, optimize=True)


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


def _loop_vector_field(x, pt, M):
    xi, xip, x0 = x[: M.p], x[M.p : M.p + M.q], x[M.p + M.q :]
    A1 = np.einsum("a,aij->ij", x0, M.ad1_gens)
    Ah = np.einsum("a,aij->ij", x0, M.adh_gens)
    dz = -(A1 @ pt.z) + xi.astype(complex)
    if M.q:
        dz = dz + 2j * M.phi(pt.w, xip)
    dw = -(Ah @ pt.w) + xip
    return np.concatenate([dz, M.to_complex_w(dw)])


def _loop_cone_contains(x, M, tol):
    """The former one-query Gauss-Newton loop: (inside, witness or None)."""
    xi0 = M.xi0_coords
    nx = float(np.linalg.norm(x))
    if nx < 1e-13 * max(1.0, float(np.linalg.norm(xi0))):
        return False, None
    scale = max(1.0, nx)
    g = np.log(nx / float(np.linalg.norm(xi0))) * M.delta0_coords

    def residual(gv):
        return expm(-np.einsum("a,aij->ij", gv, M.ad1_gens)) @ xi0 - x

    r = residual(g)
    for _ in range(100):
        if np.linalg.norm(r) / scale < tol:
            return True, g
        B = np.zeros((M.p0, 2 * M.p, 2 * M.p))
        B[:, : M.p, : M.p] = B[:, M.p :, M.p :] = -np.einsum("a,aij->ij", g, M.ad1_gens)
        B[:, : M.p, M.p :] = -M.ad1_gens
        Jmat = (np.array([expm(b) for b in B])[:, : M.p, M.p :] @ xi0).T
        step, *_ = np.linalg.lstsq(Jmat, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        for _ in range(30):
            if np.linalg.norm(g + step) <= 80.0:
                r_new = residual(g + step)
                if np.linalg.norm(r_new) < np.linalg.norm(r):
                    g, r = g + step, r_new
                    break
            step = 0.5 * step
        else:
            break
    inside = np.linalg.norm(r) / scale < tol
    return inside, g if inside else None


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


@pytest.mark.parametrize("name", ["ball:4", "polydisc:3", "product:[ball:3,ball:2]", "random:6"])
def test_derived_series_matches_loop(name):
    L = _random_algebra(6, np.random.default_rng(6)) if name.startswith("random") else preset(name).L
    assert [V.dim for V in lie_core.derived_series(L)] == _loop_derived_series(L)


@pytest.mark.parametrize("n", [4, 8])
def test_jalgebra_defects_match_loops(n):
    rng = np.random.default_rng(20 + n)
    J = _random_jalgebra(n, rng)
    integ = integrability_defect(J)
    assert integ > 0.1
    assert abs(integ - _loop_integrability(J)) <= TOL * integ


def test_subalgebra_tensor_matches_loop():
    """The package rebases into a square basis once (``adapted``) and
    slices coordinate subalgebras from there; the per-pair loop over a
    general basis is the oracle for both."""
    rng = np.random.default_rng(30)
    J = _random_jalgebra(6, rng)
    # every bracket lies in the span of a square basis
    B = rng.standard_normal((6, 6))
    sub = adapted(J, B)
    ref = LieAlgebraData(6, sub.L.basis_labels, _loop_subalgebra_tensor(J, B))
    np.testing.assert_allclose(sub.L.c, ref.c, rtol=0, atol=1e-12 * np.max(np.abs(ref.c)))
    # a random plane is not closed: both reject it
    with pytest.raises(InputError):
        _loop_subalgebra_tensor(J, B[:, :2])
    with pytest.raises(InputError):
        subalgebra(sub, np.arange(6) < 2)
    # the kept columns of a tower level: the slice of the model's algebra
    # is the subalgebra of the input on those columns of the model's basis
    J = preset("product:[ball:2,ball:1]")
    M = build_model(J)
    kept = np.array([M.rank - 1 not in idx for idx in M.frame_indices])
    sliced = subalgebra(M.J, kept)
    ref = _loop_subalgebra_tensor(J, M.basis[:, kept])
    np.testing.assert_allclose(sliced.L.c, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("name", ["ball:3", "product:[ball:3,ball:2]"])
def test_hermitian_defect_matches_loop(name):
    M = build_model(preset(name))
    assert abs(_hermitian_defect(M) - _loop_hermitian(M)) <= TOL
    rng = np.random.default_rng(40)
    bent = dataclasses.replace(
        M,
        form=M.form + rng.standard_normal(M.form.shape) + 1j * rng.standard_normal(M.form.shape),
    )
    defect = _hermitian_defect(bent)
    assert defect > 0.1
    assert abs(defect - _loop_hermitian(bent)) <= TOL * defect


@pytest.mark.parametrize("name", ["ball:1", "ball:4", "polydisc:3", "product:[ball:3,ball:2]"])
def test_stacked_fields_and_samples_match_per_point(name):
    """Fields and determinants at a stack of interior points equal those
    taken one point at a time."""
    M = build_model(preset(name))
    n = M.J.dim
    pts = random_interior_points(M, 30, np.random.default_rng(50))
    ref = list(pts)
    assert pts.z.shape == (30, M.p) and pts.w.shape == (30, M.q)

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



@pytest.mark.parametrize("a, b", [(4, 3), (1, 9), (9, 1), (9, 9), (0, 2)])
def test_bracket_table_matches_einsum(a, b):
    rng = np.random.default_rng(60 + a + b)
    L = _random_algebra(9, rng)
    A, B = rng.standard_normal((9, a)), rng.standard_normal((9, b))
    table = bracket_table(A, B, L)
    ref = _einsum_bracket_table(A, B, L)
    assert table.shape == ref.shape == (a, b, 9)
    np.testing.assert_allclose(table, ref, rtol=0, atol=TOL * max(1.0, float(np.max(np.abs(ref), initial=0.0))))


def _with_norm(X, norm):
    """X rescaled to the given 1-norm, slice by slice."""
    return X * (norm / np.max(np.sum(np.abs(X), axis=-2), axis=-1))[..., None, None]


def _assert_matches(stack, reference, rel=1e-13):
    E = _expm_stack(stack)
    assert E.shape == stack.shape
    if stack.size == 0:
        return
    k = stack.shape[-1]
    for X, got in zip(stack.reshape(-1, k, k), E.reshape(-1, k, k)):
        ref = reference(X)
        assert np.linalg.norm(got - ref) <= rel * np.linalg.norm(ref)


def _exact_expm(X):
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(X.tolist())).tolist(), dtype=float)


# the 1-norm up to which the Pade-13 approximant needs no scaling (Higham
# 2005), and 1-norms that took it 0, 1, 2, 3 and 4 squarings:
# ceil(log2(norm / theta_13)); the Taylor kernel scales these by their
# powers, and takes more squarings
_THETA13 = 5.371920351148152
SQUARING_NORMS = _THETA13 * np.array([0.5, 1.5, 3.0, 6.0, 12.0])


@pytest.mark.parametrize("name", ["ball:4", "polydisc:6", "product:[ball:3,ball:2]"])
def test_expm_stack_matches_scipy_on_ad_blocks(name):
    """The stacks group_element exponentiates, against scipy slice by slice."""
    M = build_model(preset(name))
    x_zero = np.random.default_rng(70).uniform(-1.5, 1.5, (50, M.p0))
    for block in _ad_blocks(M, x_zero):
        _assert_matches(-block, expm)
    _assert_matches(0.3 * np.random.default_rng(71).standard_normal((3, 4, 5, 5)), expm)


@pytest.mark.parametrize("kind", ["gaussian", "rotation", "symmetric"])
@pytest.mark.parametrize("k", [2, 6])
def test_expm_stack_matches_exact_per_slice(kind, k):
    """Stacks whose slices take 0 to 4 squarings.  On such stacks scipy's
    expm is itself off by up to about 1e-12 relative (a 2x2 symmetric
    slice of 1-norm 16, a 6x6 Gaussian one of 1-norm 64), so the reference
    is the exponential at 40 digits."""
    assert [int(np.ceil(max(0.0, np.log2(v / _THETA13)))) for v in SQUARING_NORMS] == [0, 1, 2, 3, 4]
    rng = np.random.default_rng(73 + k)
    X = rng.standard_normal((5, k, k))
    if kind == "rotation":
        X = X - X.transpose(0, 2, 1) + 0.1 * X
    elif kind == "symmetric":
        X = X + X.transpose(0, 2, 1)
    _assert_matches(_with_norm(X, SQUARING_NORMS), _exact_expm)


def test_expm_stack_special_inputs():
    rng = np.random.default_rng(71)
    # diagonal: the exponential of each entry, over a range of scalings
    d = rng.uniform(-6.0, 6.0, (8, 4)) * np.array([0.01, 0.5, 2.0, 20.0] * 2)[:, None]
    diag = np.zeros((8, 4, 4))
    diag[:, range(4), range(4)] = d
    E = _expm_stack(diag)
    np.testing.assert_allclose(np.diagonal(E, axis1=-2, axis2=-1), np.exp(d), rtol=1e-13, atol=0)
    np.testing.assert_array_equal(E - np.diagonal(E, axis1=-2, axis2=-1)[..., None] * np.eye(4), 0.0)
    # strictly upper triangular (nilpotent), including norms that are scaled
    N = np.triu(rng.standard_normal((4, 5, 5)), 1) * np.array([0.1, 1.0, 5.0, 30.0])[:, None, None]
    _assert_matches(N, expm)
    np.testing.assert_array_equal(np.tril(_expm_stack(N), -1), 0.0)
    # zero matrices give the identity exactly
    np.testing.assert_array_equal(_expm_stack(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))
    # zero-size stacks and blocks keep their shape
    for shape in [(0, 3, 3), (5, 0, 0), (0, 0)]:
        assert _expm_stack(np.zeros(shape)).shape == shape


def test_nilpotent_slice_takes_no_squarings():
    """-ad v for v in the minus block of ball:8 is nilpotent, (ad v)^3 = 0,
    as in ``ball.nilpotent_residual``.  At 1-norm 320 a scaling read off
    the 1-norm took 6 squarings; the kernel reads it off the third and
    fourth powers and takes none, and the result is I + A + A^2 / 2."""
    M = build_model(preset("ball:8"))
    v = np.concatenate([np.random.default_rng(74).uniform(-1.0, 1.0, M.p + M.q), np.zeros(M.p0)])
    A = _with_norm(-lie_core.ad_matrix(v, M.J.L), 320.0)
    _, squarings = _scaled_powers(A[None])
    assert squarings.tolist() == [0]
    exact = np.eye(len(A)) + A + 0.5 * A @ A
    np.testing.assert_allclose(_expm_stack(A), exact, rtol=0, atol=1e-13 * np.linalg.norm(exact))


def test_expm_stack_slices_do_not_depend_on_the_stack():
    rng = np.random.default_rng(72)
    X = _with_norm(rng.standard_normal((6, 4, 4)), _THETA13 * np.array([0.1, 0.9, 1.7, 3.5, 7.0, 0.01]))
    E = _expm_stack(X)
    for k in range(6):
        np.testing.assert_array_equal(E[k], _expm_stack(X[k]))


@pytest.mark.parametrize("name", ["ball:3", "polydisc:3", "product:[ball:2,ball:1]", "sym2_tube"])
def test_stacked_cone_solve_matches_loop(name, sym2_tube):
    M = build_model(sym2_tube() if name == "sym2_tube" else preset(name))
    rng = np.random.default_rng(90)
    queries = np.concatenate([
        domain_defect(random_interior_points(M, 8, rng), M),
        rng.standard_normal((6, M.p)),
        rng.uniform(1e-3, 1e3, (3, 1)) * rng.standard_normal((3, M.p)),
    ])
    for tol in (1e-9, 1e-7):
        res = cone_contains(queries, M, tol)
        assert res.inside.any() and not res.inside.all()
        for k, x in enumerate(queries):
            inside, witness = _loop_cone_contains(x, M, tol)
            assert res.inside[k] == inside
            if inside:
                np.testing.assert_allclose(res.witness[k], witness, rtol=0, atol=1e-7)


@pytest.mark.parametrize("name", ["polydisc:3", "product:[ball:2,ball:1]"])
def test_orthant_queries_solve_in_closed_form(name, monkeypatch):
    """With an abelian 0-block (p0 = rank = p) the cone is the open orthant,
    and a query with every coordinate positive and finite is the frame
    point of g = log(x): its witness is log(x), its residual 0, and no
    Gauss-Newton step is taken (no ``_cone_jacobians`` call).  A query
    with a zero or negative coordinate takes the Gauss-Newton solve from
    the ray and answers as the former loop does: the negative one reads
    outside, the zero one inside to within the tolerance."""
    M = build_model(preset(name))
    assert M.p0 == M.rank == M.p
    calls = []
    jacobians = siegel._cone_jacobians
    monkeypatch.setattr(siegel, "_cone_jacobians", lambda M, g: calls.append(len(g)) or jacobians(M, g))
    X = np.exp(np.random.default_rng(44).uniform(-15.0, 15.0, (20, M.p)))
    res = cone_contains(X, M)
    assert res.inside.all() and not calls
    np.testing.assert_allclose(res.witness, np.log(X), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(res.residual, 0.0)
    for k, bad in enumerate([0.0, -0.5, -1e-3]):
        x = X[k].copy()
        x[-1] = bad
        before = len(calls)
        got = cone_contains(x, M)
        assert len(calls) > before
        inside, witness = _loop_cone_contains(x, M, 1e-9)
        assert got.inside == inside == (bad == 0.0)
        if inside:
            np.testing.assert_allclose(got.witness, witness, rtol=0, atol=1e-7)


def test_no_module_imports_scipy():
    """No module under ``src/hdq`` imports scipy, by an import statement or
    by ``__import__``/``importlib.import_module`` on a literal name, and
    every exponential goes through ``_expm_stack``: scipy's ``expm`` stays
    here as an oracle only."""
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "hdq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{n}" for n in names]
            if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
                names = [str(node.args[0].value)] if callee in ("__import__", "import_module") else []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy" or n.split(".")[-1] == "expm"]
    assert not found


def test_span_ignores_zero_rows():
    rng = np.random.default_rng(80)
    rows = rng.standard_normal((3, 7)) @ rng.standard_normal((7, 7))
    mixed = np.zeros((11, 7))
    mixed[[1, 4, 9]] = rows
    V, W = span(rows, 7), span(mixed, 7)
    assert V.dim == W.dim == 3
    assert subspace_equal(V, W, 1e-12)
    # rank-deficient: a fourth row in the span of the others, zeros around it
    mixed[6] = rows[0] - 2.0 * rows[2]
    assert span(mixed, 7).dim == 3
    assert span(np.zeros((5, 7)), 7).dim == 0
    assert span([], 7).dim == 0
    # the absolute floor still applies to what is left
    assert span(np.vstack([1e-14 * rows, np.zeros((2, 7))]), 7, floor=1e-10).dim == 0


def test_subspace_orthonormal_basis():
    rng = np.random.default_rng(81)
    B = rng.standard_normal((8, 3)) * np.array([1e-3, 1.0, 1e3])  # badly scaled columns
    V = Subspace(8, B)
    q = V.orthonormal()
    assert q.shape == (8, 3)
    np.testing.assert_allclose(q.T @ q, np.eye(3), rtol=0, atol=1e-14)
    assert np.max(residual_outside(B.T, V) / np.linalg.norm(B, axis=0)) <= 1e-14
    assert not q.flags.writeable
    # independence: the smallest singular value must exceed RANK_RTOL times the largest
    u, _, vt = np.linalg.svd(rng.standard_normal((8, 2)), full_matrices=False)
    Subspace(8, u @ np.diag([1.0, 2.0 * lie_core.RANK_RTOL]) @ vt)
    with pytest.raises(DimensionMismatch):
        Subspace(8, u @ np.diag([1.0, 0.5 * lie_core.RANK_RTOL]) @ vt)
    with pytest.raises(DimensionMismatch):
        Subspace(2, rng.standard_normal((2, 3)))
    assert Subspace(4, np.zeros((4, 0))).orthonormal().shape == (4, 0)
