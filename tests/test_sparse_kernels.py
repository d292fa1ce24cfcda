"""The kernels priced by the nonzeros of their input, against the dense
forms and loops they replaced.

``_dense_jacobi`` is the former ``lie_core.jacobi_defect``: one unblocked
contraction holding two n^4 arrays.  ``_loop_aligned_basis`` and
``_loop_complex_pairs`` are the former ``siegel`` loops: a projection
against each accepted column in turn, and a QR of the whole taken block
for every candidate column.  ``_dense_phi`` is the former
``SiegelModel.phi``: a three-operand ``einsum`` per part, which loops
over every (i, j, k) of the form for every stacked pair.  Agreement is
required to 1e-12.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import tower
from hdq import fibration, lie_core, siegel
from hdq.errors import DimensionMismatch
from hdq.jalgebra import fine_structure, preset
from hdq.lie_core import LieAlgebraData

TOL = 1e-12


def _dense_jacobi(L):
    if L.dim == 0:
        return 0.0
    X = np.tensordot(L.c, L.c, ([2], [1]))
    S = X + X.transpose(2, 0, 1, 3)
    S += X.transpose(1, 2, 0, 3)
    return float(np.max(np.abs(S)))


def _loop_aligned_basis(V):
    n, d = V.ambient_dim, V.dim
    if d == 0:
        return np.zeros((n, 0))
    q = V.orthonormal()
    cols = []
    for i in range(n):
        v = q @ (q.T @ np.eye(n)[i])
        for c in cols:
            v = v - c * (c @ v)
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            cols.append(v / nv)
        if len(cols) == d:
            break
    if len(cols) != d:
        raise DimensionMismatch("could not align a basis with the coordinates")
    return np.column_stack(cols)


def _loop_complex_pairs(space_basis, j):
    n, d = space_basis.shape
    m = d // 2
    us = []
    taken = np.zeros((n, 0))
    for i in range(d):
        v = space_basis[:, i]
        if taken.shape[1]:
            q, _ = np.linalg.qr(taken)
            v = v - q @ (q.T @ v)
        nv = np.linalg.norm(v)
        if nv < 1e-8:
            continue
        v = v / nv
        us.append(v)
        taken = np.column_stack([taken, v, j @ v])
        if len(us) == m:
            break
    if len(us) != m:
        raise DimensionMismatch("could not pair the half-space basis under j")
    U = np.column_stack(us) if us else np.zeros((n, 0))
    return np.hstack([U, j @ U]), m


def _dense_phi(u, v, M):
    part = lambda T: np.einsum("...i,...j,ijk->...k", u, v, T)
    return part(M.form.real) + 1j * part(M.form.imag)


def _orthogonal(n, seed=7):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]


def _input(name, rebased, sym2_tube):
    """The normal j-algebra or Lie algebra a test id names: a preset, the
    Sym+(2) tube, a copy rebased by an orthogonal matrix, a copy with each
    nonzero of c and about 4n more entries moved by up to 1e-6, or a random
    tensor."""
    if name.startswith("random:"):
        n = int(name.removeprefix("random:"))
        c = np.random.default_rng(10 + n).standard_normal((n, n, n))
        return LieAlgebraData(n, tuple(f"e{k}" for k in range(n)), c)
    base = name.removeprefix("rebased-").removeprefix("perturbed-")
    J = sym2_tube() if base == "sym2-tube" else preset(base)
    if name.startswith("rebased-"):
        return rebased(J, _orthogonal(J.dim)).L
    if name.startswith("perturbed-"):
        L = J.L
        rng = np.random.default_rng(L.dim)
        moved = (L.c != 0) | (rng.random(L.c.shape) < 4.0 / L.dim**2)
        return LieAlgebraData(L.dim, L.basis_labels, L.c + rng.uniform(-1e-6, 1e-6, L.c.shape) * moved)
    return J.L


_PRESETS = ("empty", "disc", "ball:2", "ball:3", "ball:4", "ball:8", "ball:16", "ball:32",
            "polydisc:2", "polydisc:6", "polydisc:16", "product:[ball:3,ball:2]",
            "product:[ball:2,polydisc:2]", "sym2-tube")
_JACOBI_INPUTS = (
    *_PRESETS,
    *(f"perturbed-{name}" for name in _PRESETS if name != "empty"),
    *(f"rebased-{name}" for name in ("ball:3", "ball:8", "polydisc:6", "product:[ball:3,ball:2]", "sym2-tube")),
    "random:3",
    "random:7",
)


@pytest.mark.parametrize("name", _JACOBI_INPUTS)
def test_jacobi_paths_match_dense_oracle(name, rebased, sym2_tube, monkeypatch):
    """Both paths agree with the dense contraction, and the selection sends
    the sparse inputs (presets and their perturbed copies) to the join and
    the dense ones (rebased copies and random tensors) to the blocks."""
    L = _input(name, rebased, sym2_tube)
    oracle = _dense_jacobi(L)
    if name.startswith(("perturbed-", "random:")) and L.dim > 2:
        assert oracle > 1e-8  # a defect, not a rounding residue
    taken = []
    for path in ("_jacobi_join", "_jacobi_blocked"):
        original = getattr(lie_core, path)
        monkeypatch.setattr(lie_core, path, lambda *a, _f=original, _p=path: taken.append(_p) or _f(*a))
    defect = lie_core.jacobi_defect(L)
    assert taken == ["_jacobi_blocked" if name.startswith(("rebased-", "random:")) else "_jacobi_join"]
    i, j, m = np.nonzero(L.c)
    for value in (defect, lie_core._jacobi_blocked(L.c), lie_core._jacobi_join(L.c, i, j, m)):
        assert abs(value - oracle) <= TOL * max(1.0, oracle)


def test_jacobi_defect_holds_no_quartic_array():
    """On ball:32 (dim 64) the dense contraction allocates about 400 MB;
    the join stays under 16 MB."""
    L = preset("ball:32").L
    tracemalloc.start()
    try:
        assert lie_core.jacobi_defect(L) <= 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


_PAIRING_INPUTS = (
    *(f"{kind}{name}" for kind in ("", "rebased-")
      for name in ("ball:2", "ball:3", "ball:8", "polydisc:3", "product:[ball:3,ball:2]",
                   "product:[ball:2,polydisc:2]", "sym2-tube")),
)


@pytest.mark.parametrize("name", _PAIRING_INPUTS)
def test_pairing_and_alignment_match_loops(name, rebased, sym2_tube, monkeypatch):
    """Every half, sum and diff root space of the input is aligned and paired
    as the loops did, to 1e-12; so is every fiber's half block that the
    tower pairs."""
    base = name.removeprefix("rebased-")
    J = sym2_tube() if base == "sym2-tube" else preset(base)
    if name.startswith("rebased-"):
        J = rebased(J, _orthogonal(J.dim))
    kinds = set()
    for rt in fine_structure(J).roots:
        kind = rt.label[0]
        if kind == "full":
            continue
        kinds.add(kind)
        aligned = siegel._aligned_basis(rt.space)
        np.testing.assert_allclose(aligned, _loop_aligned_basis(rt.space), rtol=0, atol=TOL)
        if kind == "half":
            paired, m = siegel._complex_pairs(aligned, J.j)
            oracle, m_oracle = _loop_complex_pairs(aligned, J.j)
            assert m == m_oracle
            np.testing.assert_allclose(paired, oracle, rtol=0, atol=TOL)
    assert kinds == ({"sum", "diff"} if base == "sym2-tube" else {"half"} if base.startswith(("ball", "product")) else set())

    fibers = []
    original = fibration._complex_pairs
    monkeypatch.setattr(fibration, "_complex_pairs", lambda B, j: fibers.append((B, j)) or original(B, j))
    tower(J)
    assert len(fibers) == fine_structure(J).rank
    for B, j in fibers:
        paired, m = original(B, j)
        oracle, m_oracle = _loop_complex_pairs(B, j)
        assert m == m_oracle
        np.testing.assert_allclose(paired, oracle, rtol=0, atol=TOL)


_FORM_INPUTS = (
    "disc", "ball:3", "ball:8", "polydisc:3", "product:[ball:3,ball:2]", "product:[ball:2,polydisc:2]",
    "rebased-ball:3", "rebased-product:[ball:3,ball:2]", "sym2-tube",
)


@pytest.mark.parametrize("name", _FORM_INPUTS)
def test_form_contraction_matches_dense_oracle(name, rebased, sym2_tube):
    """``SiegelModel.phi`` (a ``tensordot`` and a two-operand ``einsum``)
    against the three-operand ``einsum`` to 1e-12, on the input's model
    and on each fiber model of its tower (the Sym+(2) tube has no half
    block until its fibers, the disc and polydisc none at all).  The
    shapes include those ``totally_real_defect`` passes: (k, 1, q) points
    against (d, q) fields."""
    base = name.removeprefix("rebased-")
    J = sym2_tube() if base == "sym2-tube" else preset(base)
    if name.startswith("rebased-"):
        J = rebased(J, _orthogonal(J.dim))
    models = [siegel.build_model(J), *(F.fiber_model for F in tower(J))]
    assert any(M.q for M in models) == (base not in ("disc", "polydisc:3"))  # else an empty form
    rng = np.random.default_rng(len(name))
    for M in models:
        for su, sv in (((M.q,), (M.q,)), ((7, M.q), (7, M.q)), ((5, 1, M.q), (3, M.q)), ((5, 1, M.q), (5, 3, M.q))):
            u, v = rng.standard_normal(su), rng.standard_normal(sv)
            got, oracle = M.phi(u, v), _dense_phi(u, v, M)
            assert got.shape == oracle.shape == np.broadcast_shapes(su[:-1], sv[:-1]) + (M.p,)
            np.testing.assert_allclose(got, oracle, rtol=0, atol=TOL * max(1.0, np.max(np.abs(oracle), initial=0.0)))
