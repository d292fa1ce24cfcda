import numpy as np
import pytest

from hdq import jalgebra, lie_core
from hdq.errors import InputError
from hdq.jalgebra import (
    NormalJAlgebra,
    ball_jalgebra,
    empty_algebra,
    fine_structure,
    gram,
    polydisc_jalgebra,
    preset,
    product,
    validate_j_algebra,
)


def test_ball2_validates_with_expected_gram():
    J = ball_jalgebra(2)
    rep = validate_j_algebra(J)
    assert rep.passed, rep.as_dict()
    # hand-computed from the commutators and j: basis (delta, zeta, xi1, eta1)
    G = gram(J)
    np.testing.assert_allclose(G, np.diag([1.0, 1.0, 4.0, 4.0]), atol=1e-12)


def test_ball2_wrong_omega_sign_fails():
    J = ball_jalgebra(2)
    Jbad = NormalJAlgebra(J.L, J.j, -J.omega)
    rep = validate_j_algebra(Jbad)
    assert not rep.passed
    assert rep.checks["gram_positive"]["defect"] > 0.5


def test_polydisc_validates_block_gram():
    J = polydisc_jalgebra(2)
    rep = validate_j_algebra(J)
    assert rep.passed
    np.testing.assert_allclose(gram(J), np.eye(4), atol=1e-12)


def test_fine_structure_ball2():
    J = ball_jalgebra(2)
    fs = fine_structure(J)
    assert fs.rank == 1
    # roots: alpha_1 on R zeta, alpha_1/2 on span(xi1, eta1)
    kinds = sorted((rt.label[0], rt.space.dim) for rt in fs.roots)
    assert kinds == [("full", 1), ("half", 2)]
    # the literal eigenvalue convention: alpha_1(eta_1) = -1, eta_1 = delta
    np.testing.assert_allclose(fs.eta[0], J.L.basis_vector("delta"), atol=1e-9)
    full = next(rt for rt in fs.roots if rt.label == ("full", 0))
    assert full.values_on_eta == pytest.approx((-1.0,), abs=1e-9)
    assert fs.grading_dims == (1, 2, 1)
    # xi_1 = -j eta_1 = zeta
    np.testing.assert_allclose(fs.xi[0], J.L.basis_vector("zeta"), atol=1e-9)


def test_fine_structure_polydisc2():
    fs = fine_structure(polydisc_jalgebra(2))
    assert fs.rank == 2
    assert all(rt.label[0] == "full" for rt in fs.roots)
    assert fs.grading_dims == (2, 0, 2)


def test_fine_structure_ball1_no_half_space():
    fs = fine_structure(ball_jalgebra(1))
    assert fs.rank == 1
    assert fs.s_minushalf.dim == 0
    assert fs.grading_dims == (1, 0, 1)


def test_dual_basis_property():
    for name in ("ball:3", "polydisc:3", "product:[ball:2,ball:1]"):
        J = preset(name)
        fs = fine_structure(J)
        fund = [next(rt for rt in fs.roots if rt.label == ("full", k)) for k in range(fs.rank)]
        for k, rt in enumerate(fund):
            expect = -np.eye(fs.rank)[k]
            np.testing.assert_allclose(rt.values_on_eta, expect, atol=1e-9)


def test_grading_is_algebra_grading():
    J = preset("product:[ball:2,ball:1]")
    fs = fine_structure(J)
    pieces = {-1.0: fs.s_minus1, -0.5: fs.s_minushalf, 0.0: fs.s_zero}
    for lam, V in pieces.items():
        for mu, W in pieces.items():
            target = pieces.get(lam + mu)
            for i in range(V.dim):
                for j in range(W.dim):
                    b = lie_core.bracket(
                        V.basis_matrix[:, i], W.basis_matrix[:, j], J.L
                    )
                    if target is None:
                        assert np.linalg.norm(b) < 1e-9
                    else:
                        assert lie_core.residual_outside(b, target) < 1e-9


def test_half_space_dimension_even():
    for name in ("ball:2", "ball:4", "product:[ball:3,ball:2]"):
        fs = fine_structure(preset(name))
        assert fs.s_minushalf.dim % 2 == 0


def _conjugate(J, Q):
    c2 = np.einsum("ia,jb,ijm,mk->abk", Q, Q, J.L.c, Q)
    j2 = Q.T @ J.j @ Q
    w2 = Q.T @ J.omega
    L2 = lie_core.LieAlgebraData(
        J.dim, tuple(f"f{k}" for k in range(J.dim)), c2
    )
    return NormalJAlgebra(L2, j2, w2)


def test_fine_structure_invariant_under_orthogonal_change():
    rng = np.random.default_rng(7)
    J = ball_jalgebra(2)
    fs0 = fine_structure(J)
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.standard_normal((J.dim, J.dim)))
        J2 = _conjugate(J, Q)
        assert validate_j_algebra(J2).passed
        fs = fine_structure(J2)
        assert fs.rank == fs0.rank
        assert sorted(rt.space.dim for rt in fs.roots) == sorted(
            rt.space.dim for rt in fs0.roots
        )
        assert fs.grading_dims == fs0.grading_dims


def test_product_identity_and_blocks():
    J = ball_jalgebra(2)
    same = product(J, empty_algebra())
    np.testing.assert_allclose(same.L.c, J.L.c)
    poly = product(ball_jalgebra(1), ball_jalgebra(1))
    assert validate_j_algebra(poly).passed
    fs = fine_structure(poly)
    ref = fine_structure(polydisc_jalgebra(2))
    assert fs.rank == ref.rank and fs.grading_dims == ref.grading_dims

    mixed = product(ball_jalgebra(2), ball_jalgebra(1))
    fsm = fine_structure(mixed)
    assert fsm.rank == 2
    half = [rt for rt in fsm.roots if rt.label[0] == "half"]
    assert len(half) == 1 and half[0].space.dim == 2


def test_preset_parser():
    assert preset("disc").dim == 2
    assert preset("ball:3").dim == 6
    assert preset("polydisc:3").dim == 6
    assert preset("product:[ball:2,disc]").dim == 6
    with pytest.raises(InputError):
        preset("octonions")


def test_resolve_domain_keeps_preset_error():
    with pytest.raises(InputError, match=r"unknown preset 'ball:x'.*nor a readable file"):
        jalgebra.resolve_domain("ball:x")


def test_j_algebra_json_roundtrip(tmp_path):
    import json

    J = ball_jalgebra(2)
    path = tmp_path / "b2.jalg.json"
    path.write_text(json.dumps(jalgebra.j_algebra_to_dict(J)))
    J2 = jalgebra.load_j_algebra(path)
    np.testing.assert_allclose(J2.j, J.j)
    np.testing.assert_allclose(J2.omega, J.omega)
    assert validate_j_algebra(J2).passed


def test_empty_algebra_is_valid_rank_zero():
    J = empty_algebra()
    assert validate_j_algebra(J).passed
    assert fine_structure(J).rank == 0
