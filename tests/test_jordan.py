import json

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from conftest import exp_as_affine
from hdq import jordan
from hdq.analyzer import analyze, dump_certificate, verify
from hdq.errors import NotInvertible
from hdq.jordan import classify, cyclic_discreteness, jordan_decompose
from hdq.jalgebra import ball_jalgebra, preset


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
    res = cyclic_discreteness(np.linalg.eigvals(parts.elliptic), parts.hyperbolic @ parts.unipotent)
    assert res.kind == "infinite_discrete"


def test_discreteness_rational_rotation():
    A = rot(2 * np.pi / 3)
    _, parts = classify(A)
    res = cyclic_discreteness(np.linalg.eigvals(parts.elliptic), parts.hyperbolic @ parts.unipotent)
    assert res.kind == "finite" and res.order == 3


def test_discreteness_irrational_rotation():
    A = rot(1.0)
    _, parts = classify(A)
    res = cyclic_discreteness(np.linalg.eigvals(parts.elliptic), parts.hyperbolic @ parts.unipotent)
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


# ---------------------------------------------------------------------------
# the block basis: planted factors, defective clusters, near-merge inputs
# ---------------------------------------------------------------------------

def _planted(rng, blocks):
    """(A, e, h, u) with A = P (E H U) P^-1 for a well-conditioned P
    (singular values in [1, 3]) and block-diagonal E, H, U, one block each
    per entry of ``blocks``:

    - ("rotation", r, theta): a conjugate pair r e^(+-i theta);
    - ("jordan", lam, k): a defective k x k block lam (I + N), N strictly
      upper triangular with its superdiagonal drawn from [0.5, 2];
    - ("rotation-jordan", r, theta): a defective conjugate pair, the 4 x 4
      block r (R(theta) x I2) with a unipotent coupling of the two pairs.
    """
    factors = []
    for kind, a, b in blocks:
        if kind == "rotation":
            factors.append((rot(b), a * np.eye(2), np.eye(2)))
        elif kind == "jordan":
            N = np.diag(rng.uniform(0.5, 2.0, b - 1), 1)
            factors.append((np.sign(a) * np.eye(b), abs(a) * np.eye(b), np.eye(b) + N))
        else:
            coupling = np.array([[1.0, rng.uniform(0.5, 2.0)], [0.0, 1.0]])
            factors.append((np.kron(np.eye(2), rot(b)), a * np.eye(4), np.kron(coupling, np.eye(2))))
    E, H, U = (block_diag(*Ms) for Ms in zip(*factors))
    n = len(E)
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    P = Q1 @ np.diag(rng.uniform(1.0, 3.0, n)) @ Q2
    Pinv = np.linalg.inv(P)
    e, h, u = (P @ F @ Pinv for F in (E, H, U))
    return P @ E @ H @ U @ Pinv, e, h, u


PLANTED = {
    "distinct": [("rotation", 1.5, 0.7), ("jordan", 0.4, 1), ("jordan", 2.5, 1), ("jordan", -1.8, 1)],
    "defective": [("jordan", 2.0, 2), ("jordan", 0.5, 3), ("rotation", 0.8, 2.0)],
    "repeated-cluster": [("jordan", 1.7, 2), ("jordan", 1.7, 1), ("jordan", 0.6, 1), ("rotation", 1.7, 1.1)],
    "defective-rotation": [("rotation-jordan", 1.3, 0.9), ("jordan", 1.0, 2), ("rotation", 0.5, 2.6)],
    "wide": [("jordan", 0.01, 2), ("jordan", 30.0, 1), ("rotation", 4.0, 0.3), ("jordan", 1.0, 1)],
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_factors_are_recovered(name, seed):
    """Each factor comes back within 1e-9 of the planted one, relative to
    max(1, its norm): clusters of distinct, repeated and defective
    eigenvalues, conjugate rotation pairs and a defective pair, and a
    spectrum from 0.01 to 30."""
    A, *planted = _planted(np.random.default_rng([len(name), seed]), PLANTED[name])
    parts = jordan_decompose(A)
    for got, want in zip((parts.elliptic, parts.hyperbolic, parts.unipotent), planted):
        assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(want))


def test_defective_clusters_take_the_riesz_basis(monkeypatch):
    """A cluster whose eigenvectors lose rank (a defective one) takes its
    basis from the Riesz projector, and every other cluster keeps its
    eigenvectors: "defective" has two such clusters (sizes 2 and 3),
    "defective-rotation" three of size 2 (each eigenvalue of the defective
    pair, and a Jordan block at 1), "distinct" none.  The planted factors
    still come back within 1e-9."""
    sizes, real_riesz = [], jordan._riesz_basis
    monkeypatch.setattr(jordan, "_riesz_basis", lambda A, inside, outside: sizes.append(len(inside)) or real_riesz(A, inside, outside))
    for name, riesz_sizes in (("distinct", []), ("defective", [2, 3]), ("defective-rotation", [2, 2, 2])):
        sizes.clear()
        A, *planted = _planted(np.random.default_rng([len(name), 0]), PLANTED[name])
        parts = jordan_decompose(A)
        assert sorted(sizes) == riesz_sizes, name
        for got, want in zip((parts.elliptic, parts.hyperbolic, parts.unipotent), planted):
            assert np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(want))


def test_one_eigen_solve_per_call(monkeypatch):
    """One eigen-solve serves every cluster and every retry: the calls below
    take one cluster, six clusters, and (eigenvalues 5e-6 apart, which
    nearly merge at the first clustering tolerance) two attempts."""
    eig_calls, attempts = [], []
    real_eig, real_attempt = np.linalg.eig, jordan._decompose_at
    monkeypatch.setattr(np.linalg, "eig", lambda *a, **k: eig_calls.append(1) or real_eig(*a, **k))
    monkeypatch.setattr(jordan, "_decompose_at", lambda *a: attempts.append(1) or real_attempt(*a))
    A, *_ = _planted(np.random.default_rng(5), PLANTED["distinct"] + PLANTED["defective-rotation"])
    for M, tries in ((np.eye(4), 1), (A, 1), (np.diag([1.0, 1.0 + 5e-6, 3.0]), 2)):
        eig_calls.clear(), attempts.clear()
        jordan_decompose(M)
        assert (len(eig_calls), len(attempts)) == (1, tries)


WIDE_POLYDISC6 = (
    "exp:-1.02*delta1 + 2.81*zeta1 + 2.53*delta2 + 5.18*zeta2 - 4.62*delta3 + 2.75*zeta3"
    " + 5.13*delta4 + 5.62*zeta4 - 5.82*delta5 + 4.36*zeta5 + 5.77*delta6 + 5.49*zeta6"
)


def test_near_merge_inputs_keep_their_outcomes():
    """Given as affine maps, a polydisc:6 element whose spectrum runs from
    0.0064 to e^6 lumps its small eigenvalues into clusters that nearly
    merge, and ball:2's exp(40 delta) is too ill-conditioned to split: both
    end as before.  As ``exp:`` strings they take no split and certify."""
    cert = analyze("polydisc:6", exp_as_affine("polydisc:6", WIDE_POLYDISC6))
    assert cert["conclusion"] == "undecided" and cert["steps"] == []
    assert "eigenvalue clusters at 0.0064102+0j and 0.360595+0j nearly merge" in cert["assumptions"]
    with pytest.raises(NotInvertible, match="condition number 2.354e"):
        analyze("ball:2", exp_as_affine("ball:2", "exp:40*delta"))
    for domain, phi in (("polydisc:6", WIDE_POLYDISC6), ("ball:2", "exp:40*delta")):
        cert = json.loads(dump_certificate(analyze(domain, phi)))
        assert cert["conclusion"] == "stein_certified", cert["assumptions"]
        assert verify(cert)[0]


# (seed, delta coefficient, |e - I| at the parent commit; the FOUND line's
# worst case, 2.4e-7, where the parent left the element undecided)
NEAR_MERGE_BALL8 = [(0, 2.1e-4, 7.5e-8), (1, 2.3e-4, 1.4e-8), (2, 2.5e-4, 3.4e-8), (3, 2.7e-4, 2.4e-7), (4, 3e-4, 4e-8)]


@pytest.mark.parametrize("seed, delta, bound", NEAR_MERGE_BALL8)
def test_near_merge_ball8_elements_stay_certified(seed, delta, bound):
    """ball:8 elements with a delta coefficient of 2.1e-4 to 3e-4 (the other
    coefficients from default_rng(seed) in [-1, 1]) have eigenvalues 1, e^(delta/2)
    and e^delta, clusters about 1e-4 apart split by an ill-conditioned
    basis.  Given as affine maps, which take the split (an ``exp:`` string
    does not), they are certified, with an elliptic factor no farther from
    I than at the parent commit."""
    labels = preset("ball:8").L.basis_labels
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, len(labels))
    x[labels.index("delta")] = delta
    phi = "exp:" + " + ".join(f"{c!r}*{lbl}" for c, lbl in zip(x.tolist(), labels))
    cert = analyze("ball:8", exp_as_affine("ball:8", phi))
    assert cert["conclusion"] == "stein_certified"
    e = np.asarray(cert["steps"][0]["payload"]["elliptic"])
    assert np.linalg.norm(e - np.eye(len(e))) <= bound
