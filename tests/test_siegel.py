import dataclasses
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from hdq import siegel
from hdq.errors import DimensionMismatch, NotInDomain
from hdq.jalgebra import ball_jalgebra, polydisc_jalgebra, preset
from ball_reference import from_complex_w
from conftest import random_element
from hdq.siegel import (
    CONE_TOL,
    DomainPoint,
    _hermitian_defect,
    act,
    build_model,
    cone_contains,
    contains,
    domain_defect,
    element_from_vector,
    element_log,
    group_element,
    random_interior_points,
    solve_orbit,
    vector_field,
)


@pytest.fixture(scope="module")
def H2():
    return build_model(ball_jalgebra(2))


@pytest.fixture(scope="module")
def H1():
    return build_model(ball_jalgebra(1))


@pytest.fixture(scope="module")
def P2():
    return build_model(polydisc_jalgebra(2))


def test_ball2_model_shape(H2):
    assert (H2.p, H2.q, H2.p0) == (1, 2, 1)
    # the cone is the positive ray and the form is the squared norm:
    # membership reduces to im(z) - |w|^2 > 0
    assert H2.sigma == -1
    d = H2.phi(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(d, [1.0 + 0j], atol=1e-12)
    d = H2.phi(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(d, [1.0 + 0j], atol=1e-12)


def test_polydisc_has_no_form(P2):
    assert (P2.p, P2.q, P2.p0) == (2, 0, 2)
    assert P2.dim_complex == 2


def test_ball1_is_half_plane(H1):
    assert (H1.p, H1.q) == (1, 0)
    assert contains(DomainPoint([2j], []), H1)
    assert not contains(DomainPoint([-1j], []), H1)


def test_hermitian_axioms(H2, P2):
    for M in (H2, P2):
        assert _hermitian_defect(M) < 1e-10
    mixed = build_model(preset("product:[ball:2,ball:1]"))
    assert _hermitian_defect(mixed) < 1e-10


def test_cone_base_ray(H2):
    res = cone_contains(np.array([1.0]), H2)
    assert res.inside
    np.testing.assert_allclose(res.witness, [0.0], atol=1e-9)


def test_cone_negative_ray(H2):
    res = cone_contains(np.array([-1.0]), H2)
    assert not res.inside


def test_cone_polydisc_witness(P2):
    # per-factor scaling: Ad(exp(t eta)) xi = e^t xi, so (1, 3) needs (0, ln 3)
    res = cone_contains(np.array([1.0, 3.0]), P2)
    assert res.inside and res.residual < 1e-9
    np.testing.assert_allclose(res.witness, [0.0, np.log(3.0)], atol=1e-7)


def _closed_form_cone(name, sym2_tube):
    """(model, inside) for a domain whose cone has a closed form: the
    orthant for polydisc:6 and product:[ball:3,ball:3], the ray for
    ball:4, and Sym+(2) for the tube, whose ad generators do not commute."""
    if name == "sym2_tube":
        M = build_model(sym2_tube())
        # adapted (-1)-coordinates (x1, x2, x3) are [[x1, x3], [x3, x2]]
        margin = lambda x: np.linalg.eigvalsh(np.array([[x[0], x[2]], [x[2], x[1]]]))[0]
    else:
        M = build_model(preset(name))
        margin = np.min
    return M, margin


@pytest.mark.parametrize("name", ["polydisc:6", "product:[ball:3,ball:3]", "ball:4", "sym2_tube"])
def test_stacked_cone_solve_matches_closed_forms(name, sym2_tube):
    M, margin = _closed_form_cone(name, sym2_tube)
    rng = np.random.default_rng(31)
    drawn = np.concatenate([
        domain_defect(random_interior_points(M, 12, rng), M),  # inside
        rng.standard_normal((12, M.p)),                         # either side
        rng.uniform(0.1, 3.0, (4, M.p)) * rng.choice([-1.0, 1.0], (4, M.p)),
    ])
    # keep a query only where its side of the boundary is clear
    drawn = np.array([x for x in drawn if abs(margin(x)) > 1e-3 * np.linalg.norm(x)])
    xi0 = M.xi0_coords
    # badly scaled: the first frame entry e^15 against entries of order one
    big = xi0 + (np.exp(15.0) - 1.0) * np.eye(M.p)[0]
    scaled = [big, big + 0.5 * np.eye(M.p)[-1]]
    queries = np.concatenate([drawn, [np.zeros(M.p), -1e6 * xi0, 1e6 * xi0, 1e8 * (xi0 - 2.0 * drawn[0])], scaled])
    want = np.array([margin(x) > 0 for x in queries])
    want[len(drawn)] = False  # the zero query is not in the open cone
    assert want.any() and not want.all() and want[-2:].all()

    res = cone_contains(queries, M)
    assert res.inside.shape == res.residual.shape == (len(queries),)
    assert res.witness.shape == (len(queries), M.p0)
    np.testing.assert_array_equal(res.inside, want)
    assert np.all(np.isnan(res.witness[~want]))
    # each witness carries the base point's cone vector onto its query,
    # every entry within 10 CONE_TOL of its own scale
    for x, w in zip(queries[want], res.witness[want]):
        pt = act(group_element(M, np.zeros(M.p + M.q), w), M.base_point(), M)
        assert np.linalg.norm(pt.z.imag - x) <= 1e-8 * max(1.0, np.linalg.norm(x))
        assert np.all(np.abs(pt.z.imag - x) <= 10.0 * CONE_TOL * np.maximum(1.0, np.abs(x)))
    if name == "polydisc:6":
        np.testing.assert_allclose(res.witness[want], np.log(queries[want]), atol=1e-7)

    # a slice of the stack is the same query solved alone
    for k, x in enumerate(queries):
        alone = cone_contains(x, M)
        assert alone.inside == res.inside[k]
        assert alone.residual == res.residual[k]
        if alone.inside:
            np.testing.assert_array_equal(alone.witness, res.witness[k])
        else:
            assert alone.witness is None


def test_contains_takes_stacked_points(H2):
    pts = DomainPoint([[2j], [-1j], [0j], [3j]], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    np.testing.assert_array_equal(contains(pts, H2), [True, False, False, False])
    assert contains(pts, H2).dtype == bool


def test_cone_query_shapes(H2):
    with pytest.raises(DimensionMismatch):
        cone_contains(np.ones(2), H2)
    with pytest.raises(DimensionMismatch):
        cone_contains(np.ones((2, 2, 1)), H2)
    assert cone_contains(np.ones((0, 1)), H2).inside.shape == (0,)


def test_contains_examples(H2):
    assert contains(H2.base_point(), H2)
    assert not contains(DomainPoint([0j], [0.0, 0.0]), H2)
    # im z - |w|^2 = 2 - 1 > 0
    assert contains(DomainPoint([2j], [1.0, 0.0]), H2)


def test_act_translation(H2):
    g = group_element(H2, np.array([1.5, 0.0, 0.0]), np.zeros(1))
    p = act(g, H2.base_point(), H2)
    np.testing.assert_allclose(p.z, [1.5 + 1j], atol=1e-12)
    np.testing.assert_allclose(p.w, [0.0, 0.0], atol=1e-12)


def test_act_half_translation_matches_closed_form(H2):
    # exp(t xi_1): (z, w) -> (z + 2 i t w + i t^2, w + t)
    t = 0.7
    g = group_element(H2, np.array([0.0, t, 0.0]), np.zeros(1))
    z, wc = 0.3 + 2.2j, 0.4 - 0.1j
    p = DomainPoint([z], [wc.real, wc.imag])
    out = act(g, p, H2)
    np.testing.assert_allclose(out.z, [z + 2j * t * wc + 1j * t * t], atol=1e-12)
    np.testing.assert_allclose(out.w, [wc.real + t, wc.imag], atol=1e-12)


def test_act_dilation_matches_closed_form(H2):
    # exp(t delta): (z, w) -> (e^t z, e^{t/2} w)
    t = 0.9
    g = group_element(H2, np.zeros(3), np.array([t]))
    z, wc = -0.2 + 1.8j, 0.3 + 0.5j
    p = DomainPoint([z], [wc.real, wc.imag])
    out = act(g, p, H2)
    np.testing.assert_allclose(out.z, [np.exp(t) * z], atol=1e-12)
    np.testing.assert_allclose(
        out.w, [np.exp(t / 2) * wc.real, np.exp(t / 2) * wc.imag], atol=1e-12
    )


def test_act_identity(H2):
    p = DomainPoint([0.3 + 1.4j], [0.2, -0.4])
    out = act(group_element(H2, np.zeros(H2.p + H2.q), np.zeros(H2.p0)), p, H2)
    assert out.distance(p) < 1e-14


def test_solve_orbit_dilation(H1):
    x_minus, x_zero = solve_orbit(DomainPoint([2j], []), H1)
    np.testing.assert_allclose(x_zero, [np.log(2.0)], atol=1e-8)
    np.testing.assert_allclose(x_minus, [0.0], atol=1e-8)


def test_solve_orbit_translation(H1):
    x_minus, x_zero = solve_orbit(DomainPoint([1 + 1j], []), H1)
    np.testing.assert_allclose(x_minus, [1.0], atol=1e-8)
    np.testing.assert_allclose(x_zero, [0.0], atol=1e-8)


def test_solve_orbit_base_point(H2):
    x_minus, x_zero = solve_orbit(H2.base_point(), H2)
    assert np.linalg.norm(x_minus) < 1e-9 and np.linalg.norm(x_zero) < 1e-9


def test_solve_orbit_outside_raises(H2):
    with pytest.raises(NotInDomain):
        solve_orbit(DomainPoint([-2j], [0.0, 0.0]), H2)


@pytest.mark.parametrize("name", ["ball:2", "ball:3", "polydisc:2", "product:[ball:2,ball:1]"])
def test_action_group_law(name, compose):
    M = build_model(preset(name))
    rng = np.random.default_rng(11)
    p = M.base_point()
    for _ in range(25):
        g = random_element(M, rng, 2.0)
        h = random_element(M, rng, 2.0)
        gh = compose(g, h, M)
        lhs = act(gh, p, M)
        rhs = act(g, act(h, p, M), M)
        assert lhs.distance(rhs) < 1e-8


@pytest.mark.parametrize("name", ["ball:2", "polydisc:2", "product:[ball:2,ball:1]"])
def test_domain_preservation(name):
    M = build_model(preset(name))
    rng = np.random.default_rng(5)
    for pt in random_interior_points(M, 100, rng):
        s = random_element(M, rng, 1.0)
        assert contains(pt, M, 1e-9)
        assert contains(act(s, pt, M), M, 1e-7)


@pytest.mark.parametrize("name", ["ball:2", "ball:4", "polydisc:3", "product:[ball:2,ball:1]"])
def test_simple_transitivity(name):
    M = build_model(preset(name))
    rng = np.random.default_rng(17)
    z0 = M.base_point()
    for _ in range(20):
        s = random_element(M, rng, 1.0)
        p = act(s, z0, M)
        s2 = group_element(M, *solve_orbit(p, M))
        # exponential coordinates may differ in principle; the affine maps
        # must agree
        assert np.max(np.abs(s.affine_matrix - s2.affine_matrix)) < 1e-7
        assert np.max(np.abs(s.affine_offset - s2.affine_offset)) < 1e-7


def test_defect_is_action_invariant_under_nilpotent_part(H2):
    # translations along the minus-block leave im(z) - |w|^2 unchanged
    rng = np.random.default_rng(9)
    for pt in random_interior_points(H2, 10, rng):
        g = group_element(H2, rng.uniform(-1, 1, 3), np.zeros(1))
        d0 = domain_defect(pt, H2)
        d1 = domain_defect(act(g, pt, H2), H2)
        np.testing.assert_allclose(d0, d1, atol=1e-10)


@pytest.mark.parametrize("name", ["ball:3", "polydisc:3", "product:[ball:2,ball:1]"])
def test_stacked_group_element_equals_row_builds(name):
    M = build_model(preset(name))
    rng = np.random.default_rng(23)
    x_minus = rng.uniform(-1.5, 1.5, (7, M.p + M.q))
    x_zero = rng.uniform(-1.5, 1.5, (7, M.p0))
    g = group_element(M, x_minus, x_zero)
    assert g.affine_matrix.shape == (7, 2 * M.p + M.q, 2 * M.p + M.q)
    for i in range(7):
        row = group_element(M, x_minus[i], x_zero[i])
        np.testing.assert_array_equal(g.affine_matrix[i], row.affine_matrix)
        np.testing.assert_array_equal(g.affine_offset[i], row.affine_offset)
    with pytest.raises(DimensionMismatch):
        group_element(M, x_minus, x_zero[:6])


@pytest.mark.parametrize("name", ["ball:4", "ball:8", "product:[ball:3,ball:2]"])
def test_z_translation_is_xi_exactly(name):
    """The z translation of exp(xi + xi') exp(x_zero) is xi + i Phi(xi',
    xi') with Phi(xi', xi') real: its real part is xi bit for bit.  The
    rounding residue of im Phi(xi', xi'), about 1e-16, once moved it."""
    M = build_model(preset(name))
    rng = np.random.default_rng(0)
    x_minus = rng.uniform(-1.0, 1.0, (50, M.p + M.q))
    g = group_element(M, x_minus, rng.uniform(-1.0, 1.0, (50, M.p0)))
    np.testing.assert_array_equal(g.affine_offset[:, : M.p], x_minus[:, : M.p])


@pytest.mark.parametrize("name", ["ball:4", "ball:8", "product:[ball:3,ball:2]"])
def test_orbit_point_real_part_is_xi_exactly(name):
    """s . z0 has z = xi + i (Ad(exp x_zero) xi0 + Phi(xi', xi')): re z is
    xi bit for bit, with no rounding residue of im Phi(xi', xi')."""
    M = build_model(preset(name))
    rng = np.random.default_rng(0)
    x_minus = rng.uniform(-1.0, 1.0, (50, M.p + M.q))
    z = siegel.orbit_points(M, x_minus, rng.uniform(-1.0, 1.0, (50, M.p0))).z
    np.testing.assert_array_equal(z.real, x_minus[:, : M.p])


# the half block is empty on polydisc:2; ball:3, the product and the
# rebased ball:4 reach the doubled half block of the delta read-off, and
# the tube over Sym+(2) has sum and diff roots
BRIDGE_DOMAINS = ["polydisc:2", "ball:3", "product:[ball:2,polydisc:1]", "rebased-ball:4", "sym2_tube"]


@pytest.fixture
def bridge_model(rebased, sym2_tube):
    def build(name):
        if name == "rebased-ball:4":
            J = preset("ball:4")
            Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((J.dim, J.dim)))
            scale = np.random.default_rng(203).uniform(0.5, 2.0, J.dim)
            return build_model(rebased(J, scale[:, None] * Q))
        if name == "sym2_tube":
            return build_model(sym2_tube())
        return build_model(preset(name))

    return build


@pytest.mark.parametrize("name", BRIDGE_DOMAINS)
def test_element_from_vector_roundtrip(bridge_model, name):
    M = bridge_model(name)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-1, 1, M.J.dim)
        g = element_from_vector(M, x)
        np.testing.assert_allclose(element_log(M, g.x_minus, g.x_zero), x, atol=1e-9)


@pytest.mark.parametrize("name", BRIDGE_DOMAINS)
def test_element_log_backward_error_at_scale_12(bridge_model, name):
    """At coefficient scale 12 the log may differ from the drawn vector,
    but its exponential must give back the same affine map."""
    M = bridge_model(name)
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = element_from_vector(M, rng.uniform(-12, 12, M.J.dim))
        back = element_from_vector(M, element_log(M, g.x_minus, g.x_zero)).affine_matrix
        err = np.max(np.abs(back - g.affine_matrix)) / np.max(np.abs(g.affine_matrix))
        assert err < 1e-10, err


def _homogenized_generator(x, M):
    """The vector field of x as an affine field on packed (z, w), in
    homogeneous form: its values at 0 and at the unit vectors."""
    dim = 2 * M.p + M.q
    pts = DomainPoint.unpack(np.vstack([np.zeros(dim), np.eye(dim)]), M.p, M.q)
    fields = vector_field(x, pts, M)
    packed = np.array([
        np.concatenate([f[: M.p].real, f[: M.p].imag, from_complex_w(M, f[M.p :])]) for f in fields
    ])
    G = np.zeros((dim + 1, dim + 1))
    G[:dim, :dim] = (packed[1:] - packed[0]).T
    G[:dim, dim] = packed[0]
    return G


@pytest.mark.parametrize("name", BRIDGE_DOMAINS + ["ball:2", "product:[ball:2,ball:2]"])
def test_element_from_vector_is_the_flow_of_its_field(bridge_model, name):
    """Oracle sharing no code with the read-off: the affine map of exp(x)
    is the time-one flow of the vector field of x."""
    M = bridge_model(name)
    rng = np.random.default_rng(4)
    dim = 2 * M.p + M.q
    for _ in range(5):
        x = rng.uniform(-1, 1, M.J.dim)
        g = element_from_vector(M, x)
        flow = expm(_homogenized_generator(x, M))
        np.testing.assert_allclose(g.affine_matrix, flow[:dim, :dim], rtol=0, atol=1e-11)
        np.testing.assert_allclose(g.affine_offset, flow[:dim, dim], rtol=0, atol=1e-11)


def test_bridge_takes_no_matrix_log():
    """Both directions of the bridge are the delta read-off and its graded
    inverse: no module of the package takes a matrix logarithm."""
    for path in Path(siegel.__file__).parent.glob("*.py"):
        assert "logm" not in path.read_text(encoding="utf-8"), path.name


ONE_BASIS_INPUTS = [
    "ball:3", "ball:8", "polydisc:6", "product:[ball:2,polydisc:2]", "relabelled-per-disc", "relabelled-per-vector",
    "sym2_tube", "rebased-product:[ball:2,ball:2]", "rebased-ball:4", "rebased-polydisc:3",
]


def _one_basis_input(name, rebased, relabelled_polydisc, sym2_tube):
    if name.startswith("relabelled-"):
        per_vector = name.endswith("vector")
        return relabelled_polydisc(6, np.random.default_rng([2, 324] if per_vector else [4, 1]), per_vector=per_vector)[0]
    if name == "sym2_tube":
        return sym2_tube()
    J = preset(name.removeprefix("rebased-"))
    if name.startswith("rebased-"):
        J = rebased(J, np.linalg.qr(np.random.default_rng(7).standard_normal((J.dim, J.dim)))[0])
    return J


@pytest.mark.parametrize("name", ONE_BASIS_INPUTS)
def test_model_algebra_is_over_the_model_basis(name, rebased, relabelled_polydisc, sym2_tube):
    """A model keeps its algebra over its own basis: the model built from
    that algebra has the identity as its basis and the same tensors."""
    M = build_model(_one_basis_input(name, rebased, relabelled_polydisc, sym2_tube))
    again = build_model(M.J)
    assert np.max(np.abs(again.basis - np.eye(M.J.dim))) <= 1e-14
    for field in dataclasses.fields(M):
        if field.name in ("J", "basis"):
            continue
        a, b = getattr(M, field.name), getattr(again, field.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape, field.name
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-14, (field.name, np.max(np.abs(a - b)))
        else:
            assert a == b, field.name


@pytest.mark.parametrize(
    "name, dense, sparse",
    [("product:[ball:2,ball:2]", 448, 16), ("ball:4", 448, 20), ("polydisc:3", 180, 6)],
)
def test_rebased_input_is_sparse_after_entry(name, dense, sparse, rebased):
    """A copy rebased by an orthogonal matrix has a dense bracket, and its
    model's algebra has the preset's nonzeros: over a basis of root
    vectors the rounding off the root pattern is zero."""
    J = preset(name)
    Jr = rebased(J, np.linalg.qr(np.random.default_rng(7).standard_normal((J.dim, J.dim)))[0])
    assert np.count_nonzero(J.L.c) == sparse and np.count_nonzero(Jr.L.c) == dense
    assert np.count_nonzero(build_model(Jr).J.L.c) == sparse
