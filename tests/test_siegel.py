import numpy as np
import pytest
from scipy.linalg import expm, logm

from hdq import siegel
from hdq.errors import DimensionMismatch, NotInDomain
from hdq.jalgebra import ball_jalgebra, polydisc_jalgebra, preset
from hdq.siegel import (
    DomainPoint,
    _hermitian_defect,
    act,
    build_model,
    compose,
    cone_contains,
    contains,
    domain_defect,
    element_from_vector,
    element_log,
    group_element,
    identity,
    random_element,
    random_interior_point,
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
    out = act(identity(H2), p, H2)
    assert out.distance(p) < 1e-14


def test_solve_orbit_dilation(H1):
    g = solve_orbit(DomainPoint([2j], []), H1)
    np.testing.assert_allclose(g.x_zero, [np.log(2.0)], atol=1e-8)
    np.testing.assert_allclose(g.x_minus, [0.0], atol=1e-8)


def test_solve_orbit_translation(H1):
    g = solve_orbit(DomainPoint([1 + 1j], []), H1)
    np.testing.assert_allclose(g.x_minus, [1.0], atol=1e-8)
    np.testing.assert_allclose(g.x_zero, [0.0], atol=1e-8)


def test_solve_orbit_base_point(H2):
    g = solve_orbit(H2.base_point(), H2)
    assert np.linalg.norm(g.x_minus) < 1e-9 and np.linalg.norm(g.x_zero) < 1e-9


def test_solve_orbit_outside_raises(H2):
    with pytest.raises(NotInDomain):
        solve_orbit(DomainPoint([-2j], [0.0, 0.0]), H2)


@pytest.mark.parametrize("name", ["ball:2", "ball:3", "polydisc:2", "product:[ball:2,ball:1]"])
def test_action_group_law(name):
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
    for _ in range(100):
        s = random_element(M, rng, 1.0)
        pt = random_interior_point(M, rng)
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
        s2 = solve_orbit(p, M)
        # exponential coordinates may differ in principle; the affine maps
        # must agree
        assert np.max(np.abs(s.affine_matrix - s2.affine_matrix)) < 1e-7
        assert np.max(np.abs(s.affine_offset - s2.affine_offset)) < 1e-7


def test_defect_is_action_invariant_under_nilpotent_part(H2):
    # translations along the minus-block leave im(z) - |w|^2 unchanged
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = group_element(H2, rng.uniform(-1, 1, 3), np.zeros(1))
        pt = random_interior_point(H2, rng)
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


# the half block is empty on polydisc:2; ball:3, the product and the
# rebased ball:4 reach the doubled half block of the delta read-off
BRIDGE_DOMAINS = ["polydisc:2", "ball:3", "product:[ball:2,polydisc:1]", "rebased-ball:4"]


def _bridge_model(name, rebased):
    if name == "rebased-ball:4":
        J = preset("ball:4")
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((J.dim, J.dim)))
        scale = np.random.default_rng(203).uniform(0.5, 2.0, J.dim)
        return build_model(rebased(J, scale[:, None] * Q))
    return build_model(preset(name))


@pytest.mark.parametrize("name", BRIDGE_DOMAINS)
def test_element_from_vector_roundtrip(rebased, name):
    M = _bridge_model(name, rebased)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-1, 1, M.J.dim)
        g = element_from_vector(M, x)
        np.testing.assert_allclose(element_log(M, g), x, atol=1e-9)


def _homogenized_generator(x, M):
    """The vector field of x as an affine field on packed (z, w), in
    homogeneous form: its values at 0 and at the unit vectors."""
    dim = 2 * M.p + M.q
    pts = DomainPoint.unpack(np.vstack([np.zeros(dim), np.eye(dim)]), M.p, M.q)
    fields = vector_field(x, pts, M)
    packed = np.array([
        np.concatenate([f[: M.p].real, f[: M.p].imag, M.from_complex_w(f[M.p :])]) for f in fields
    ])
    G = np.zeros((dim + 1, dim + 1))
    G[:dim, :dim] = (packed[1:] - packed[0]).T
    G[:dim, dim] = packed[0]
    return G


@pytest.mark.parametrize("name", BRIDGE_DOMAINS + ["ball:2", "product:[ball:2,ball:2]"])
def test_element_from_vector_is_the_flow_of_its_field(rebased, name):
    """Oracle sharing no code with the read-off: the affine map of exp(x)
    is the time-one flow of the vector field of x."""
    M = _bridge_model(name, rebased)
    rng = np.random.default_rng(4)
    dim = 2 * M.p + M.q
    for _ in range(5):
        x = rng.uniform(-1, 1, M.J.dim)
        g = element_from_vector(M, x)
        flow = expm(_homogenized_generator(x, M))
        np.testing.assert_allclose(g.affine_matrix, flow[:dim, :dim], rtol=0, atol=1e-11)
        np.testing.assert_allclose(g.affine_offset, flow[:dim, dim], rtol=0, atol=1e-11)


def test_bridge_takes_no_matrix_log(monkeypatch):
    """exp: inputs reach their group element without a matrix logarithm;
    element_log is the one full logarithm."""
    calls = []

    def counting_logm(K):
        calls.append(K.shape)
        return logm(K)

    monkeypatch.setattr(siegel, "logm", counting_logm)
    M = build_model(preset("product:[ball:2,polydisc:1]"))
    g = element_from_vector(M, np.random.default_rng(6).uniform(-1, 1, M.J.dim))
    assert calls == []
    element_log(M, g)
    assert calls == [(M.J.dim, M.J.dim)]
