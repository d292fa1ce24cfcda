import dataclasses

import numpy as np
import pytest

from hdq import fibration, jalgebra
from hdq.fibration import (
    Tower,
    check_equivariance,
    project_point,
    push_group,
    split_last_root,
)
from hdq.analyzer import STEP_TOL
from hdq.errors import InputError, PositivityUnfixable
from hdq.jalgebra import (
    NormalJAlgebra,
    ball_jalgebra,
    fine_structure,
    gram,
    polydisc_jalgebra,
    preset,
    subalgebra,
)
from hdq.lie_core import residual_outside, span
from hdq.siegel import DomainPoint, act, build_model, group_element, solve_orbit
from conftest import random_element, tower


@pytest.fixture(scope="module")
def poly2():
    return split_last_root(build_model(polydisc_jalgebra(2)))


def test_polydisc_split_is_factor_split(poly2):
    F = poly2
    assert F.fiber_model.dim_complex == 1
    assert F.quotient_model.J.dim == 2
    # the ideal is the second half-plane factor: spanned by delta2, zeta2
    J = polydisc_jalgebra(2)
    for lbl in ("delta2", "zeta2"):
        v = J.L.basis_vector(lbl)
        assert residual_outside(v, span(F.domain_model.basis[:, F.ideal].T, J.dim)) < 1e-9
    # and the quotient keeps the first factor's labels
    assert set(F.quotient_model.J.L.basis_labels) == {"delta1", "zeta1"}


def test_sliced_split_gates():
    """A column set of the adapted algebra that is not closed under the
    bracket, not j-invariant, or not an ideal is refused.  On ball:2 the
    model's columns are (xi, u, j u, eta)."""
    M = build_model(ball_jalgebra(2))
    J = M.J

    def cols(*idx):
        return np.isin(np.arange(4), idx)

    for bad in (cols(1, 2), cols(0)):  # [u, j u] lies on xi; j xi lies on eta
        with pytest.raises(InputError):
            subalgebra(J, bad)
    # xi and eta span a j-invariant subalgebra, but [eta, u] leaves it
    assert subalgebra(J, cols(0, 3)).dim == 2
    with pytest.raises(InputError, match="ideal"):
        subalgebra(J, cols(0, 3), ideal=True)
    assert subalgebra(J, cols(0, 1, 2, 3), ideal=True).dim == 4
    # a split along labels that do not follow the roots: the ideal would
    # be (xi_2, eta_1) on polydisc:2, which j does not keep
    P = build_model(polydisc_jalgebra(2))
    with pytest.raises(InputError, match="j-invariant"):
        split_last_root(dataclasses.replace(P, frame_indices=((0,), (1,), (1,), (0,))))


def test_quotient_keeps_the_parent_orientation():
    """The quotient's form must be cone-positive with its parent's sign: a
    parent whose recorded sign is flipped is refused."""
    M = build_model(preset("product:[ball:2,ball:2]"))
    F = split_last_root(M)
    assert F.quotient_model.q == 2 and F.quotient_model.sigma == M.sigma
    with pytest.raises(PositivityUnfixable, match="orientation"):
        split_last_root(dataclasses.replace(M, sigma=-M.sigma))


def test_rank_one_split_has_point_target():
    F = split_last_root(build_model(ball_jalgebra(2)))
    assert F.quotient_model.J.dim == 0
    assert F.fiber_model.dim_complex == 2
    assert F.quotient_model.dim_complex == 0
    # any point projects to the unique point
    p = F.domain_model.base_point()
    out = project_point(p, F)
    assert out.z.size == 0 and out.w.size == 0


def test_product_split_is_deterministic():
    J = preset("product:[ball:2,ball:1]")
    F = split_last_root(build_model(J))
    # the recorded ordering puts the two-ball factor first, so the ideal is
    # the half-plane factor
    assert F.fiber_model.dim_complex == 1
    assert F.quotient_model.J.dim == 4
    fs = fine_structure(F.fiber_model.J)
    assert fs.rank == 1


@pytest.mark.parametrize(
    "name", ["ball:3", "polydisc:3", "product:[ball:2,ball:1]", "rebased-product:[ball:2,ball:2]"]
)
def test_split_follows_root_labels(name, rebased):
    """At every level, each root space whose label involves the last frame
    index lies in the ideal, and every other root space, with the eta
    frame, in the quotient's basis, lifted to the domain algebra as the
    metric dual of the quotient map's rows.  The rebased copy takes an
    orthonormal basis, which mixes the half-root spaces with the rest."""
    J = preset(name.removeprefix("rebased-"))
    if name.startswith("rebased"):
        J = rebased(J, np.linalg.qr(np.random.default_rng(7).standard_normal((J.dim, J.dim)))[0])
    for F in tower(J):
        M, Mq = F.domain_model, F.quotient_model
        fine, last = fine_structure(M.J), M.rank - 1
        coords = F.quotient_map  # M.J and Mq.J are over slices of one basis
        ideal = span(np.eye(M.J.dim)[F.ideal], M.J.dim)
        quotient = span(np.linalg.solve(gram(M.J), coords.T).T, M.J.dim)
        assert ideal.dim + quotient.dim == M.J.dim
        spaces = [(rt.label[1:], rt.space.basis_matrix) for rt in fine.roots]
        spaces += [((k,), eta[:, None]) for k, eta in enumerate(fine.eta)]
        for involved, B in spaces:
            target = ideal if last in involved else quotient
            worst = max(residual_outside(v, target) for v in B.T)
            assert worst < 1e-9, (name, involved, worst)


def test_heisenberg_and_symplectic_checks(fibration_invariants):
    for name in ("ball:3", "polydisc:3", "product:[ball:2,ball:1]"):
        steps = tower(preset(name))
        for F in steps:
            inv = fibration_invariants(F)
            assert inv["center"] < 1e-9
            assert inv["heisenberg"] < 1e-9
            assert inv["symplectic_det"] > 1e-10
            fs = fine_structure(F.fiber_model.J)
            assert fs.rank == 1


def test_projection_invariants(poly2, fibration_invariants):
    inv = fibration_invariants(poly2)
    # pi o j = j o pi, and pi is a homomorphism
    assert inv["j_commutes"] < 1e-10
    assert inv["homomorphism"] < 1e-9
    # kernel is the ideal: it kills the ideal and has full rank on the rest
    assert inv["kernel"] < 1e-9
    assert np.linalg.matrix_rank(poly2.quotient_map) == poly2.quotient_model.J.dim


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
    zeta2 = np.linalg.solve(M.basis, J.L.basis_vector("zeta2"))
    x_minus, x_zero = push_group(zeta2[: M.p + M.q], np.zeros(M.p0), F)
    assert np.linalg.norm(x_minus) < 1e-10
    assert np.linalg.norm(x_zero) < 1e-10
    # exp(delta1 + zeta2) pushes to exp(delta1)
    d1 = np.linalg.solve(M.basis, J.L.basis_vector("delta1"))
    x_minus, x_zero = push_group(zeta2[: M.p + M.q], d1[M.p + M.q :], F)
    assert np.linalg.norm(x_minus) < 1e-10
    np.testing.assert_allclose(x_zero, [1.0], atol=1e-10)
    # identity pushes to identity
    x_minus, x_zero = push_group(np.zeros(M.p + M.q), np.zeros(M.p0), F)
    assert np.linalg.norm(x_minus) < 1e-12 and np.linalg.norm(x_zero) < 1e-12


def test_equivariance_residuals():
    F = split_last_root(build_model(polydisc_jalgebra(2)))
    assert check_equivariance(F, 100, seed=1) < 1e-10
    F3 = split_last_root(build_model(preset("product:[ball:2,ball:1]")))
    assert check_equivariance(F3, 100, seed=1) < 1e-8
    Fb = split_last_root(build_model(ball_jalgebra(2)))
    assert check_equivariance(Fb, 10, seed=1) == 0.0


def test_tower_depth():
    assert len(tower(polydisc_jalgebra(3))) == 3
    assert len(tower(ball_jalgebra(3))) == 1
    assert len(tower(preset("product:[ball:2,ball:1]"))) == 2


def _per_sample_residual(F, samples, seed):
    """The equivariance residual rebuilt one sample at a time from scalar
    group elements, points and pushes: the affine action of full group
    elements on both domains, with the half-block exponential."""
    M, Mq = F.domain_model, F.quotient_model
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        s = random_element(M, rng, 1.0)
        lhs = project_point(act(s, M.base_point(), M), F)
        rhs = act(group_element(Mq, *push_group(s.x_minus, s.x_zero, F)), Mq.base_point(), Mq)
        worst = max(worst, lhs.distance(rhs))
    return worst


@pytest.mark.parametrize(
    "name",
    ["polydisc:3", "product:[ball:2,ball:1]", "relabelled:4", "ball:4", "product:[ball:3,ball:3]", "sym2-tube"],
)
def test_stacked_equivariance_matches_per_sample_oracle(name, relabelled_polydisc, fibration_invariants, sym2_tube):
    """The orbit-point square against the act-based oracle at every level,
    on towers with half blocks (ball:4, the product of two 3-balls) and
    with sum and diff roots (the tube over Sym+(2)).  A quotient map off
    by 1e-2 or by 1e-6 is seen alike by both, and 1e-6 already exceeds the
    step's tolerance."""
    if name.startswith("relabelled"):
        J = relabelled_polydisc(4, np.random.default_rng([4, 1]))[0]
    elif name == "sym2-tube":
        J = sym2_tube()
    else:
        J = preset(name)
    rng = np.random.default_rng(3)
    for F in tower(J):
        # the stored map is the selection of the kept columns, which is the
        # ambient projection in adapted coordinates to rounding: a j-linear
        # homomorphism that kills the ideal and is isometric on the
        # omega-orthogonal complement
        assert np.array_equal(F.quotient_map, np.eye(F.domain_model.J.dim)[~F.ideal])
        inv = fibration_invariants(F)
        for key in ("j_commutes", "homomorphism", "kernel", "projection"):
            assert inv[key] < 1e-12, (key, inv[key])
        stacked = check_equivariance(F, 40, seed=5)
        assert stacked < 1e-12
        assert abs(stacked - _per_sample_residual(F, 40, 5)) <= 1e-12
        # a wrong map gives a large residual, and both evaluations see it alike
        for size, floor in ((1e-2, 1e-4), (1e-6, STEP_TOL["tower_descend"])):
            bent = dataclasses.replace(
                F, quotient_map=F.quotient_map + size * rng.standard_normal(F.quotient_map.shape)
            )
            if bent.quotient_map.size:
                stacked = check_equivariance(bent, 40, seed=5)
                assert stacked > floor, (size, stacked)
                assert abs(stacked - _per_sample_residual(bent, 40, 5)) <= 1e-12


STRUCTURAL_INPUTS = [
    *(f"{kind}{name}" for kind in ("", "rebased-") for name in ("polydisc:6", "ball:3", "product:[ball:2,polydisc:2]", "sym2-tube")),
    *(f"relabelled-{key}" for key in (0, 261, 324, 357)),
]


@pytest.mark.parametrize("name", STRUCTURAL_INPUTS)
def test_structural_residual_reads_rounding(name, rebased, relabelled_polydisc, sym2_tube, tilted_ideal):
    """On presets, on their copies rebased by an orthogonal matrix, and on
    copies of polydisc:6 rescaled per basis vector (among them [2, 324],
    whose split once lost omega-orthogonality by 2.7e-8), every level's
    structural residual reads rounding, and the sampled square, kept as
    the oracle, agrees with the selection map.  A bent map and a tilted
    ideal read above the step tolerance."""
    base = name.removeprefix("rebased-")
    if base.startswith("relabelled-"):
        J = relabelled_polydisc(6, np.random.default_rng([2, int(base.split("-")[1])]), per_vector=True)[0]
    else:
        J = sym2_tube() if base == "sym2-tube" else preset(base)
    if name.startswith("rebased-"):
        J = rebased(J, np.linalg.qr(np.random.default_rng(7).standard_normal((J.dim, J.dim)))[0])
    T = Tower(build_model(J))
    rng = np.random.default_rng(3)
    for level in range(1, T.model.rank + 1):
        F = T[level]
        assert np.array_equal(F.quotient_map, np.eye(F.domain_model.J.dim)[~F.ideal])
        assert T.residual(level) <= 1e-14, (level, T.residual(level))
        assert check_equivariance(F, 100, seed=level) <= 1e-12
        bent = dataclasses.replace(F, quotient_map=F.quotient_map + 1e-6 * rng.standard_normal(F.quotient_map.shape))
        if bent.quotient_map.size:
            assert check_equivariance(bent, 100, seed=level) > STEP_TOL["tower_descend"]
    for level in range(1, T.model.rank):  # the last level keeps no column
        tilted = Tower(T.model)
        tilted.steps = list(T.steps)
        tilted.steps[level - 1] = tilted_ideal(T[level], 1e-6)
        assert tilted.residual(level) > STEP_TOL["tower_descend"], level


@pytest.mark.parametrize("name", ["polydisc:6", "product:[ball:3,ball:2]", "sym2-tube"])
def test_split_gates_are_measured_once(name, sym2_tube, monkeypatch):
    """Each split measures the leakage of its kept and ideal columns once,
    for its two subalgebra gates, and keeps it on the step; the tower's
    residuals read those values and measure no leakage again."""
    measured = []
    leakage = jalgebra.leakage
    monkeypatch.setattr(fibration, "leakage", lambda *a, **k: measured.append(a[1]) or leakage(*a, **k))
    monkeypatch.setattr(jalgebra, "leakage", lambda *a, **k: measured.append(None) or leakage(*a, **k))
    T = Tower(build_model(sym2_tube() if name == "sym2-tube" else preset(name)))
    for level in range(1, T.model.rank + 1):
        T.residual(level)
        F = T[level]
        J = F.domain_model.J
        assert F.leakage == leakage(J, ~F.ideal) + leakage(J, F.ideal, ideal=True)
    assert len(measured) == 2 * T.model.rank and all(m is not None for m in measured)


def test_structural_residual_reads_the_metric_cosine():
    """A kept and an ideal column whose Gram entry is off zero by 1e-6
    of their norms raise the residual to that cosine, with no bracket or
    j leakage.  A tower keeps each residual once read, so the altered
    Gram matrix goes to a fresh one."""
    T = Tower(build_model(preset("polydisc:3")))
    assert T.residual(1) == 0.0
    G = T.gram.copy()
    a, b = np.argmin(T[1].ideal), np.argmax(T[1].ideal)
    G[a, b] = G[b, a] = 1e-6 * np.sqrt(G[a, a] * G[b, b])
    T = Tower(T.model)
    T.gram = G
    assert T.residual(1) == pytest.approx(1e-6, rel=1e-12)
    assert T.residual(1) > STEP_TOL["tower_descend"]


@pytest.mark.parametrize("rank", [16, 24])
def test_exact_polydisc_tower_is_equivariant(rank):
    """Every level of an exact polydisc tower is equivariant to rounding.
    Root clusters split across eigenvalue gaps just above 1e-7 once made
    these read 2.5e-7 and 9.4e-8."""
    steps = tower(polydisc_jalgebra(rank))
    assert len(steps) == rank
    assert max(check_equivariance(F, samples=20) for F in steps) < 1e-12


@pytest.mark.parametrize(
    "name",
    [
        "ball:3",
        "polydisc:6",
        "product:[ball:2,ball:1]",
        "product:[ball:2,polydisc:2]",
        "rebased-product:[ball:2,ball:2]",
        "relabelled:6",
        "sym2-tube",
    ],
)
def test_inherited_models_match_fresh_ones(name, rebased, relabelled_polydisc, sym2_tube):
    """Each quotient and fiber model, built from its parent's columns,
    equals the model ``build_model`` reads off a fresh fine structure of
    a copy of the same child algebra, at every level of the tower.  On the
    tube over Sym+(2) the sum and diff columns of the last root join the
    fiber's half block.  A child's algebra is already over its model's
    basis, so the fresh model's basis is the identity."""
    if name.startswith("relabelled"):
        J = relabelled_polydisc(6, np.random.default_rng([4, 1]))[0]
    elif name == "sym2-tube":
        J = sym2_tube()
        assert [rt.label[0] for rt in fine_structure(J).roots] == ["diff", "full", "full", "sum"]
    else:
        J = preset(name.removeprefix("rebased-"))
    if name.startswith("rebased"):
        J = rebased(J, np.linalg.qr(np.random.default_rng(7).standard_normal((J.dim, J.dim)))[0])
    for level, F in enumerate(tower(J), 1):
        for child in (F.quotient_model, F.fiber_model):
            fresh = build_model(NormalJAlgebra(child.J.L, child.J.j, child.J.omega))
            assert np.max(np.abs(fresh.basis - np.eye(child.J.dim)), initial=0.0) < 1e-12, (name, level)
            for field in dataclasses.fields(child):
                a, b = getattr(child, field.name), getattr(fresh, field.name)
                if field.name == "basis":
                    continue
                if isinstance(a, np.ndarray):
                    assert a.shape == b.shape, (name, level, field.name)
                    assert np.max(np.abs(a - b), initial=0.0) < 1e-12, (name, level, field.name)
                elif field.name != "J":
                    assert a == b, (name, level, field.name)
