import numpy as np
import pytest
from scipy.linalg import expm

from hdq.errors import NotInvertible
from hdq.jordan import classify, cyclic_discreteness, jordan_decompose
from hdq.jalgebra import ball_jalgebra


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_identity():
    parts = jordan_decompose(np.eye(3))
    for M in (parts.elliptic, parts.hyperbolic, parts.unipotent):
        np.testing.assert_allclose(M, np.eye(3), atol=1e-10)


def test_shear_block():
    # direct 2x2: semisimple part 2I, nilpotent [[0,1],[0,0]]
    A = np.array([[2.0, 1.0], [0.0, 2.0]])
    parts = jordan_decompose(A)
    np.testing.assert_allclose(parts.elliptic, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(parts.hyperbolic, 2 * np.eye(2), atol=1e-9)
    np.testing.assert_allclose(
        parts.unipotent, np.array([[1.0, 0.5], [0.0, 1.0]]), atol=1e-9
    )


def test_scaled_rotation():
    # eigenvalues +-2i: elliptic quarter turn times 2I
    A = np.array([[0.0, -2.0], [2.0, 0.0]])
    parts = jordan_decompose(A)
    np.testing.assert_allclose(parts.elliptic, rot(np.pi / 2), atol=1e-9)
    np.testing.assert_allclose(parts.hyperbolic, 2 * np.eye(2), atol=1e-9)
    np.testing.assert_allclose(parts.unipotent, np.eye(2), atol=1e-9)


def test_reconstruction_and_commutation():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        A = _structured_invertible(rng, n)
        parts = jordan_decompose(A)
        assert parts.residual < 1e-8
        e, h, u = parts.elliptic, parts.hyperbolic, parts.unipotent
        for X, Y in ((e, h), (e, u), (h, u)):
            assert np.linalg.norm(X @ Y - Y @ X) < 1e-8 * max(
                1.0, np.linalg.norm(X) * np.linalg.norm(Y)
            )
        assert np.max(np.abs(np.abs(np.linalg.eigvals(e)) - 1)) < 1e-8
        hv = np.linalg.eigvals(h)
        assert np.max(np.abs(hv.imag)) < 1e-8 and np.min(hv.real) > 0
        # spectrum {1} read as nilpotency of u - I: raw eigenvalues of a
        # defective matrix carry an intrinsic sqrt(eps)-level error
        N = u - np.eye(n)
        assert np.linalg.norm(np.linalg.matrix_power(N, n)) < 1e-8
        assert np.max(np.abs(np.linalg.eigvals(u) - 1)) < 1e-4


def _structured_invertible(rng, n):
    """P (rotation blocks + positive diagonal + unipotent) P^{-1}."""
    blocks = []
    left = n
    if left >= 2 and rng.random() < 0.7:
        blocks.append(rng.uniform(1.2, 4.0) * rot(rng.uniform(0.3, 2.8)))
        left -= 2
    while left > 0:
        if left >= 2 and rng.random() < 0.4:
            U = np.eye(2)
            U[0, 1] = rng.uniform(-2, 2)
            lam = rng.uniform(1.5, 3.0)
            blocks.append(lam * U)
            left -= 2
        else:
            blocks.append(np.array([[rng.uniform(0.2, 0.7)]]))
            left -= 1
    D = np.zeros((n, n))
    at = 0
    for B in blocks:
        k = B.shape[0]
        D[at : at + k, at : at + k] = B
        at += k
    while True:
        P = rng.standard_normal((n, n))
        if np.linalg.cond(P) < 1e3:
            break
    return P @ D @ np.linalg.inv(P)


def test_classify_examples():
    lab, _ = classify(np.diag([2.0, 0.5]))
    assert lab == "hyperbolic"
    lab, _ = classify(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert lab == "unipotent"
    lab, _ = classify(rot(1.0))
    assert lab == "elliptic"
    lab, _ = classify(2.0 * rot(1.0))
    assert lab == "mixed"


def test_not_invertible():
    with pytest.raises(NotInvertible):
        jordan_decompose(np.zeros((2, 2)))


def test_discreteness_hyperbolic_flow_of_ball_rep():
    # the dilation generator of ball:2 on homogenized real coordinates
    # (re z, im z, re w, im w, 1) exponentiates to spectrum {e, sqrt(e), 1}:
    # infinite discrete
    A = expm(np.diag([1.0, 1.0, 0.5, 0.5, 0.0]))
    lab, parts = classify(A)
    assert lab == "hyperbolic"
    res = cyclic_discreteness(parts)
    assert res.kind == "infinite_discrete"


def test_discreteness_rational_rotation():
    A = rot(2 * np.pi / 3)
    _, parts = classify(A)
    res = cyclic_discreteness(parts)
    assert res.kind == "finite" and res.order == 3


def test_discreteness_irrational_rotation():
    A = rot(1.0)
    _, parts = classify(A)
    res = cyclic_discreteness(parts)
    assert res.kind == "indiscrete_closure"


def test_conjugation_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        A = _structured_invertible(rng, n)
        while True:
            P = rng.standard_normal((n, n))
            if np.linalg.cond(P) < 1e2:
                break
        parts = jordan_decompose(A)
        parts_c = jordan_decompose(P @ A @ np.linalg.inv(P))
        for X, Y in (
            (parts.elliptic, parts_c.elliptic),
            (parts.hyperbolic, parts_c.hyperbolic),
            (parts.unipotent, parts_c.unipotent),
        ):
            lhs = P @ X @ np.linalg.inv(P)
            assert np.linalg.norm(lhs - Y) / max(1.0, np.linalg.norm(Y)) < 1e-7


def test_continuity_along_real_spectrum_flow():
    rng = np.random.default_rng(8)
    n = 4
    # X with real spectrum: conjugated diagonal
    D = np.diag(rng.uniform(-1.0, 1.0, n))
    P = rng.standard_normal((n, n))
    X = P @ D @ np.linalg.inv(P)
    prev = None
    from scipy.linalg import expm

    for t in np.linspace(0.0, 1.0, 20):
        parts = jordan_decompose(expm(t * X)) if t > 0 else jordan_decompose(np.eye(n))
        np.testing.assert_allclose(parts.elliptic, np.eye(n), atol=1e-7)
        if prev is not None:
            assert np.linalg.norm(parts.hyperbolic - prev) < 0.6
        prev = parts.hyperbolic
