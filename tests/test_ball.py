import numpy as np
import pytest
from scipy.linalg import expm

import dataclasses

from hdq.ball import (
    WITNESS_RESIDUAL,
    abelian_subalgebra_containing,
    ball_algebra,
    conjugate_into_a,
    nilpotent_residual,
    require_ball_like,
    totally_real_defect,
    totally_real_residuals,
    totally_real_subalgebra,
    totally_real_subalgebra_containing,
)
from ball_reference import ball_to_siegel, siegel_to_ball, table1_flow
from hdq.errors import (
    DimensionMismatch,
    HeisenbergCheckFailed,
    InputError,
    NotInNilradical,
    TotallyRealCheckFailed,
    ZeroSemisimplePart,
)
from conftest import tower
from hdq.jalgebra import preset
from hdq.lie_core import Subspace, ad_matrix, bracket, residual_outside, span
from hdq.siegel import DomainPoint, act, build_model, group_element, random_interior_points


@pytest.fixture(scope="module")
def B2():
    return ball_algebra(2)


@pytest.fixture(scope="module")
def B3():
    return ball_algebra(3)


def algvec(B, **coeffs):
    """The vector with these coefficients over the preset's labels, in the
    model's coordinates."""
    v = np.zeros(B.J.dim)
    for lbl, c in coeffs.items():
        v[B.J.L.index(lbl)] = c
    return np.linalg.solve(B.model.basis, v)


def test_commutators_exact(B3):
    L = B3.J.L
    np.testing.assert_allclose(
        bracket(L.basis_vector("delta"), L.basis_vector("xi2"), L),
        -0.5 * L.basis_vector("xi2"),
    )
    np.testing.assert_allclose(
        bracket(L.basis_vector("xi2"), L.basis_vector("eta2"), L),
        4.0 * L.basis_vector("zeta"),
    )
    np.testing.assert_allclose(
        bracket(L.basis_vector("xi1"), L.basis_vector("eta2"), L), 0.0
    )


def test_flows_match_closed_forms(B2):
    p = DomainPoint([0.4 + 2.0j], [0.3, -0.2])
    out = table1_flow("zeta", 1.2, p, B2)
    np.testing.assert_allclose(out.z, [1.6 + 2.0j], atol=1e-14)
    out = table1_flow("delta", 0.6, p, B2)
    np.testing.assert_allclose(out.z, [np.exp(0.6) * (0.4 + 2.0j)], atol=1e-12)
    out = table1_flow("xi1", 0.0, p, B2)
    assert out.distance(p) == 0.0
    with pytest.raises(InputError):
        table1_flow("xi5", 1.0, p, B2)


def test_flow_one_parameter_group_law(B3):
    rng = np.random.default_rng(4)
    p = DomainPoint([0.1 + 3.0j], rng.uniform(-0.5, 0.5, 4))
    for gen in ("zeta", "delta", "xi1", "eta2"):
        for s, t in [(0.3, 0.4), (-1.0, 0.25)]:
            lhs = table1_flow(gen, s + t, p, B3)
            rhs = table1_flow(gen, s, table1_flow(gen, t, p, B3), B3)
            assert lhs.distance(rhs) < 1e-10


def test_flow_agrees_with_action(B3):
    rng = np.random.default_rng(6)
    M = B3.model
    gens = {
        "zeta": algvec(B3, zeta=1),
        "delta": algvec(B3, delta=1),
        "xi1": algvec(B3, xi1=1),
        "eta2": algvec(B3, eta2=1),
    }
    for _ in range(10):
        p = DomainPoint(
            [rng.uniform(-1, 1) + 1j * rng.uniform(2, 3)], rng.uniform(-0.5, 0.5, 4)
        )
        t = rng.uniform(-1.5, 1.5)
        for name, vec in gens.items():
            c = t * vec
            g = group_element(M, c[: M.p + M.q], c[M.p + M.q :])
            lhs = act(g, p, M)
            rhs = table1_flow(name, t, p, B3)
            assert lhs.distance(rhs) < 1e-9


def test_totally_real_defect_values(B2):
    # columns are the fields of (delta, xi1) at (i, 0): diag(i, 1)
    M = B2.model
    V = Subspace(4, np.column_stack([algvec(B2, delta=1), algvec(B2, xi1=1)]))
    p = DomainPoint([1j], [0.0, 0.0])
    d = totally_real_defect(p, V, M)
    assert abs(d - 1j) < 1e-12
    # vanishing locus z = i w^2 with w = 1: such a point sits outside the
    # domain (membership defect 0) but the determinant is exactly zero
    p0 = DomainPoint([1j], [1.0, 0.0])
    assert abs(totally_real_defect(p0, V, M)) < 1e-12
    from hdq.siegel import contains

    assert not contains(p0, M)


def test_totally_real_defect_dim_check(B2):
    with pytest.raises(DimensionMismatch):
        totally_real_defect(
            B2.model.base_point(), span([algvec(B2, delta=1)], 4), B2.model
        )


def test_defect_one_dimensional():
    B1 = ball_algebra(1)
    V = span([algvec(B1, delta=1)], 2)  # the dilation line
    d = totally_real_defect(DomainPoint([1j], []), V, B1.model)
    assert abs(d - 1j) < 1e-12


def test_abelian_subalgebra_examples(B3):
    M = B3.model
    x = algvec(B3, xi1=1, eta2=1)
    V = abelian_subalgebra_containing(x, M)
    expected = span(
        [algvec(B3, zeta=1), algvec(B3, xi1=1), algvec(B3, eta2=1)], 6
    )
    assert V.dim == 3
    from hdq.lie_core import subspace_equal

    assert subspace_equal(V, expected, 1e-8)

    V2 = abelian_subalgebra_containing(algvec(B3, zeta=1), M)
    expected2 = span(
        [algvec(B3, zeta=1), algvec(B3, xi1=1), algvec(B3, xi2=1)], 6
    )
    assert subspace_equal(V2, expected2, 1e-8)

    with pytest.raises(NotInNilradical):
        abelian_subalgebra_containing(algvec(B3, delta=1), M)


def test_abelian_base_case():
    B1 = ball_algebra(1)
    V = abelian_subalgebra_containing(algvec(B1, zeta=0.7), B1.model)
    assert V.dim == 1
    assert residual_outside(algvec(B1, zeta=1), V) < 1e-12


def test_conjugate_into_a_base_case():
    # Ad(exp(c zeta))(delta + 2 zeta) = delta + (2 - c) zeta, so c = 2
    B1 = ball_algebra(1)
    M = B1.model
    x = algvec(B1, delta=1, zeta=2)
    g = conjugate_into_a(x, M)
    np.testing.assert_allclose(g, [2.0], atol=1e-10)
    y = expm(-ad_matrix(np.concatenate([g, np.zeros(M.p0)]), M.J.L)) @ x
    np.testing.assert_allclose(y, algvec(B1, delta=1), atol=1e-10)


def test_conjugate_into_a_identity(B2):
    g = conjugate_into_a(algvec(B2, delta=1), B2.model)
    assert np.linalg.norm(g) < 1e-12


def test_conjugate_into_a_half_component(B2):
    # Ad(exp(c xi1))(delta + xi1) = delta + (1 - c/2) xi1, so c = 2
    M = B2.model
    x = algvec(B2, delta=1, xi1=1)
    g = conjugate_into_a(x, M)
    c = algvec(B2, xi1=2.0)
    np.testing.assert_allclose(g, c[: M.p + M.q], atol=1e-10)
    assert nilpotent_residual(x, g, M) < 1e-10


def test_conjugate_requires_semisimple_part(B2):
    with pytest.raises(ZeroSemisimplePart):
        conjugate_into_a(algvec(B2, zeta=1), B2.model)


def test_require_ball_like_refuses_non_balls():
    # rank two
    with pytest.raises(HeisenbergCheckFailed, match="rank 2"):
        require_ball_like(build_model(preset("polydisc:2")))
    # a fiber model whose half block pairs to zero
    Mf = tower(preset("ball:2"))[0].fiber_model
    require_ball_like(Mf)
    with pytest.raises(HeisenbergCheckFailed, match="degenerate"):
        require_ball_like(dataclasses.replace(Mf, hb=np.zeros_like(Mf.hb)))


def test_witness_residual_includes_the_conjugator(B2):
    M = B2.model
    x = algvec(B2, delta=1, xi1=1, zeta=0.5)
    V, g = totally_real_subalgebra(x, M)
    res, det = totally_real_residuals(x, V, g, M)
    assert res <= WITNESS_RESIDUAL and det == pytest.approx(1.0)
    # the same subalgebra with a wrong conjugator is refused by its residual
    bad, _ = totally_real_residuals(x, V, np.zeros_like(g), M)
    assert bad > 1e-3
    # an element with no frame coefficient takes no conjugator
    y = algvec(B2, zeta=1, xi1=0.5)
    W, h = totally_real_subalgebra(y, M)
    assert not np.any(h)
    with pytest.raises(TotallyRealCheckFailed, match="no conjugator"):
        totally_real_residuals(y, W, g, M)


@pytest.mark.parametrize("name", ["ball:2", "ball:8", "sym2"])
@pytest.mark.parametrize("frame", [False, True], ids=["abelian", "frame"])
def test_totally_real_defect_agrees_with_the_structural_check(name, frame, sym2_tube):
    """The determinant of the witness's fields, sampled as the check once
    did, at interior points and at points 1e-6 from the boundary: with no
    frame coefficient |det|^2 is the constant |det [U | jU]| the check
    computes; with one, |det| is at least its value at g^-1 . (i, 0) times
    im z - Phi(w, w), g = exp(conjugator), which is positive on D."""
    J = sym2_tube() if name == "sym2" else preset(name)
    M = tower(J)[0].fiber_model
    rng = np.random.default_rng(23)
    x = rng.uniform(-1.0, 1.0, M.J.dim)
    x[-1] = 0.7 if frame else 0.0
    V, g = totally_real_subalgebra(x, M)
    V = Subspace(M.J.dim, V.orthonormal())
    _, det = totally_real_residuals(x, V, g, M)
    inside = random_interior_points(M, 200, rng)
    rim = DomainPoint(inside.z.real + 1j * (M.phi(inside.w, inside.w).real + 1e-6), inside.w)
    corner = DomainPoint(np.full((1, 1), 1e-6j), np.zeros((1, M.q)))
    for pts in (inside, rim, corner):
        dets = np.abs(totally_real_defect(pts, V, M))
        if not frame:
            np.testing.assert_allclose(dets**2, det, rtol=1e-9)
            continue
        base = act(group_element(M, -g, np.zeros(M.p0)), M.base_point(), M)
        rho = pts.z.imag[:, 0] - M.phi(pts.w, pts.w).real[:, 0]
        assert np.all(rho > 0) and np.all(dets >= (1 - 1e-6) * abs(totally_real_defect(base, V, M)) * rho)


def test_symplectic_pairs_are_built_once_per_model():
    """A model builds its symplectic pair basis on first use, once, and
    shares it read-only; each pair pairs to its recorded value, and
    distinct pairs pair to zero."""
    M = build_model(preset("ball:4"))
    assert "symplectic_pairs" not in vars(M)
    pairs = M.symplectic_pairs
    assert M.symplectic_pairs is pairs and len(pairs) == M.q // 2
    P = M.hb[:, :, 0]
    for i, (e, f, s) in enumerate(pairs):
        assert not e.flags.writeable and not f.flags.writeable
        assert s == pytest.approx(float(e @ P @ f)) and abs(s) > 1e-10
        for e2, f2, _ in pairs[i + 1 :]:
            assert max(abs(float(a @ P @ b)) for a in (e, f) for b in (e2, f2)) < 1e-12


def test_totally_real_subalgebra_examples(B2):
    M = B2.model
    V, g = totally_real_subalgebra_containing(algvec(B2, delta=1), M)
    from hdq.lie_core import subspace_equal

    assert subspace_equal(V, span([algvec(B2, delta=1), algvec(B2, xi1=1)], 4), 1e-8)
    assert np.linalg.norm(g) < 1e-12

    V2, g2 = totally_real_subalgebra_containing(algvec(B2, xi1=1), M)
    assert subspace_equal(V2, span([algvec(B2, zeta=1), algvec(B2, xi1=1)], 4), 1e-8)

    B1 = ball_algebra(1)
    x = algvec(B1, delta=1, zeta=2)
    V3, g3 = totally_real_subalgebra_containing(x, B1.model)
    assert residual_outside(x, V3) < 1e-10
    assert V3.dim == 1


def test_totally_real_random_inputs(B3):
    rng = np.random.default_rng(12)
    M = B3.model
    for _ in range(25):
        x = np.linalg.solve(M.basis, rng.standard_normal(6))
        V, g = totally_real_subalgebra_containing(x, M)
        assert V.dim == 3
        assert residual_outside(x, V) < 1e-9 * max(1.0, np.linalg.norm(x))
        assert np.all(np.abs(totally_real_defect(random_interior_points(M, 10, rng), V, M)) > 1e-6)


def test_nilpotent_residual_bound(B3):
    rng = np.random.default_rng(13)
    M = B3.model
    for _ in range(50):
        x = np.linalg.solve(M.basis, rng.standard_normal(6))
        if abs(x[-1]) / np.linalg.norm(x) <= 1e-3:
            continue
        g = conjugate_into_a(x, M)
        assert nilpotent_residual(x, g, M) < 1e-8


def test_cayley_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.uniform(-1, 1) + 1j * rng.uniform(1.5, 3.0)
        w = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        zeta = siegel_to_ball(z, w)
        assert np.linalg.norm(zeta) < 1.0 or np.isclose(np.linalg.norm(zeta), 1.0)
        z2, w2 = ball_to_siegel(zeta)
        assert abs(z2 - z) < 1e-10
        np.testing.assert_allclose(w2, w, atol=1e-10)
