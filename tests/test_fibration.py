import dataclasses

import numpy as np
import pytest

from hdq.fibration import (
    check_equivariance,
    project_point,
    push_group,
    split_last_root,
    tower,
)
from hdq.jalgebra import ball_jalgebra, fine_structure, polydisc_jalgebra, preset
from hdq.lie_core import bracket, residual_outside
from hdq.siegel import DomainPoint, act, group_element, random_element, solve_orbit


@pytest.fixture(scope="module")
def poly2():
    return split_last_root(polydisc_jalgebra(2))


def test_polydisc_split_is_factor_split(poly2):
    F = poly2
    assert F.fiber_dim == 1
    assert F.s_prime.dim == 2
    # the ideal is the second half-plane factor: spanned by delta2, zeta2
    J = polydisc_jalgebra(2)
    for lbl in ("delta2", "zeta2"):
        v = J.L.basis_vector(lbl)
        assert residual_outside(v, F.b_ideal) < 1e-9
    # and the quotient keeps the first factor's labels
    assert set(F.s_prime.L.basis_labels) == {"delta1", "zeta1"}


def test_rank_one_split_has_point_target():
    F = split_last_root(ball_jalgebra(2))
    assert F.s_prime.dim == 0
    assert F.fiber_dim == 2
    assert F.quotient_model.dim_complex == 0
    # any point projects to the unique point
    p = F.domain_model.base_point()
    out = project_point(p, F)
    assert out.z.size == 0 and out.w.size == 0


def test_product_split_is_deterministic():
    J = preset("product:[ball:2,ball:1]")
    F = split_last_root(J)
    # the recorded ordering puts the two-ball factor first, so the ideal is
    # the half-plane factor
    assert F.fiber_dim == 1
    assert F.s_prime.dim == 4
    fs = fine_structure(F.b_jalgebra)
    assert fs.rank == 1


def test_heisenberg_and_symplectic_checks():
    for name in ("ball:3", "polydisc:3", "product:[ball:2,ball:1]"):
        steps = tower(preset(name))
        for F in steps:
            assert F.residuals["center"] < 1e-9
            assert F.residuals["heisenberg"] < 1e-9
            assert F.residuals["symplectic_det"] > 1e-10
            fs = fine_structure(F.b_jalgebra)
            assert fs.rank == 1


def test_projection_invariants(poly2):
    F = poly2
    J = polydisc_jalgebra(2)
    # pi o j = j o pi
    assert F.residuals["proj_j_commutes"] < 1e-10
    assert F.residuals["proj_homomorphism"] < 1e-9
    # kernel is the ideal
    for i in range(F.b_ideal.dim):
        v = F.b_ideal.basis_matrix[:, i]
        assert np.linalg.norm(F.proj @ v) < 1e-9


def test_project_point_examples(poly2):
    F = poly2
    M = F.domain_model
    # base point maps to base point
    out = project_point(M.base_point(), F)
    assert out.distance(F.quotient_model.base_point()) < 1e-10
    # block projection (z1, z2) -> z1
    p = DomainPoint([0.3 + 2.0j, -0.1 + 5.0j], [])
    out = project_point(p, F)
    np.testing.assert_allclose(out.z, [0.3 + 2.0j], atol=1e-10)


def test_push_group_examples(poly2):
    F = poly2
    M = F.domain_model
    # kernel elements push to the identity
    J = polydisc_jalgebra(2)
    zeta2 = M.Cinv @ J.L.basis_vector("zeta2")
    g = group_element(M, zeta2[: M.p + M.q], np.zeros(M.p0))
    out = push_group(g, F)
    assert np.linalg.norm(out.x_minus) < 1e-10
    assert np.linalg.norm(out.x_zero) < 1e-10
    # exp(delta1 + zeta2) pushes to exp(delta1)
    d1 = M.Cinv @ J.L.basis_vector("delta1")
    g2 = group_element(M, zeta2[: M.p + M.q], d1[M.p + M.q :])
    out2 = push_group(g2, F)
    assert np.linalg.norm(out2.x_minus) < 1e-10
    np.testing.assert_allclose(out2.x_zero, [1.0], atol=1e-10)
    # identity pushes to identity
    out3 = push_group(group_element(M, np.zeros(M.p + M.q), np.zeros(M.p0)), F)
    assert np.linalg.norm(out3.x_minus) < 1e-12 and np.linalg.norm(out3.x_zero) < 1e-12


def test_equivariance_residuals():
    F = split_last_root(polydisc_jalgebra(2))
    assert check_equivariance(F, 100, seed=1) < 1e-10
    F3 = split_last_root(preset("product:[ball:2,ball:1]"))
    assert check_equivariance(F3, 100, seed=1) < 1e-8
    Fb = split_last_root(ball_jalgebra(2))
    assert check_equivariance(Fb, 10, seed=1) == 0.0


def test_tower_depth():
    assert len(tower(polydisc_jalgebra(3))) == 3
    assert len(tower(ball_jalgebra(3))) == 1
    assert len(tower(preset("product:[ball:2,ball:1]"))) == 2


def _per_sample_residual(F, samples, seed):
    """The equivariance residual rebuilt one sample at a time from scalar
    group elements, points and pushes."""
    M, Mq = F.domain_model, F.quotient_model
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        s = random_element(M, rng, 1.0)
        lhs = project_point(act(s, M.base_point(), M), F, check=False)
        rhs = act(push_group(s, F), Mq.base_point(), Mq)
        worst = max(worst, lhs.distance(rhs))
    return worst


@pytest.mark.parametrize("name", ["polydisc:3", "product:[ball:2,ball:1]", "relabelled:4"])
def test_stacked_equivariance_matches_per_sample_oracle(name, relabelled_polydisc):
    if name.startswith("relabelled"):
        J = relabelled_polydisc(4, np.random.default_rng([4, 1]))[0]
    else:
        J = preset(name)
    rng = np.random.default_rng(3)
    for F in tower(J):
        M, Mq = F.domain_model, F.quotient_model
        # the stored map is the ambient projection in adapted coordinates
        ref = Mq.Cinv @ np.linalg.pinv(F.s_prime_basis) @ F.proj @ M.C
        np.testing.assert_allclose(F.quotient_map, ref, atol=1e-12)
        stacked = check_equivariance(F, 40, seed=5)
        assert stacked < 1e-12
        assert abs(stacked - _per_sample_residual(F, 40, 5)) <= 1e-12
        # a wrong map gives a large residual, and both evaluations see it alike
        bent = dataclasses.replace(
            F, quotient_map=F.quotient_map + 1e-2 * rng.standard_normal(F.quotient_map.shape)
        )
        if bent.quotient_map.size:
            stacked = check_equivariance(bent, 40, seed=5)
            assert stacked > 1e-4
            assert abs(stacked - _per_sample_residual(bent, 40, 5)) <= 1e-12
