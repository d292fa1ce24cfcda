"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s``.  Each criterion pins
its tolerances inline; the whole suite is sampled at desk scale and
finishes in well under a minute.
"""

import copy
import json
import subprocess
import sys

import numpy as np
import pytest

from hdq import jalgebra, lie_core
from hdq.analyzer import analyze, dump_certificate, verify
from hdq.ball import (
    ball_algebra,
    conjugate_into_a,
    nilpotent_residual,
    sample_totally_real_points,
    table1_flow,
    totally_real_defect,
    totally_real_subalgebra_containing,
)
from hdq.fibration import check_equivariance, split_last_root, tower
from hdq.jalgebra import NormalJAlgebra, ball_jalgebra, fine_structure, preset, validate_j_algebra
from hdq.jordan import jordan_decompose
from hdq.lie_core import LieAlgebraData, residual_outside
from hdq.siegel import (
    act,
    build_model,
    group_element,
    random_element,
    random_interior_point,
    solve_orbit,
)

PRESETS = [
    "ball:1",
    "ball:2",
    "ball:3",
    "ball:4",
    "polydisc:1",
    "polydisc:2",
    "polydisc:3",
    "product:[ball:2,ball:1]",
]


def _report(n, text):
    print(f"criterion {n}: PASS - {text}")


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_validation():
    for name in PRESETS:
        rep = validate_j_algebra(preset(name))
        assert rep.passed, (name, rep.as_dict())
        worst = max(c["defect"] for c in rep.checks.values())
        assert worst < 1e-9, (name, worst)

    J = ball_jalgebra(2)
    dim = J.dim
    iz, jz, kz = J.L.index("xi1"), J.L.index("eta1"), J.L.index("zeta")
    rng = np.random.default_rng(42)
    entries = [
        (i, j, k)
        for i in range(dim)
        for j in range(i + 1, dim)
        for k in range(dim)
        # rescaling [xi1, eta1] along zeta is an isomorphic normal
        # j-algebra (see the validation example tests); every other entry
        # must be rejected
        if (i, j, k) != (min(iz, jz), max(iz, jz), kz)
    ]
    picks = rng.choice(len(entries), size=20, replace=False)
    for pick in picks:
        i, j, k = entries[pick]
        c = np.array(J.L.c)
        bump = 0.1 * (1 if rng.random() < 0.5 else -1)
        c[i, j, k] += bump
        c[j, i, k] -= bump
        Jp = NormalJAlgebra(LieAlgebraData(dim, J.L.basis_labels, c), J.j, J.omega)
        rep = validate_j_algebra(Jp)
        assert not rep.passed, (i, j, k)
        worst = max(ch["defect"] for ch in rep.checks.values())
        assert worst > 1e-3, ((i, j, k), worst)
    _report(1, "presets validate below 1e-9; 20 perturbations rejected above 1e-3")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_fine_structure():
    for n in range(1, 5):
        fs = fine_structure(ball_jalgebra(n))
        assert fs.rank == 1
        dims = sorted(rt.space.dim for rt in fs.roots)
        expected = [1] if n == 1 else [1, 2 * n - 2]
        assert dims == expected, (n, dims)
        assert fs.grading_dims == (1, 2 * n - 2, 1)
    for r in range(1, 4):
        fs = fine_structure(jalgebra.polydisc_jalgebra(r))
        assert fs.rank == r
        assert all(rt.label[0] == "full" for rt in fs.roots)
        assert fs.grading_dims == (r, 0, r)

    rng = np.random.default_rng(7)
    for name in ("ball:2", "polydisc:2", "product:[ball:2,ball:1]"):
        J = preset(name)
        fs0 = fine_structure(J)
        for _ in range(20):
            Q, _ = np.linalg.qr(rng.standard_normal((J.dim, J.dim)))
            c2 = np.einsum("ia,jb,ijm,mk->abk", Q, Q, J.L.c, Q)
            J2 = NormalJAlgebra(
                LieAlgebraData(J.dim, tuple(f"f{k}" for k in range(J.dim)), c2),
                Q.T @ J.j @ Q,
                Q.T @ J.omega,
            )
            fs = fine_structure(J2)
            assert fs.rank == fs0.rank
            assert sorted(rt.space.dim for rt in fs.roots) == sorted(
                rt.space.dim for rt in fs0.roots
            )
            assert fs.grading_dims == fs0.grading_dims
    _report(2, "grading counts match and survive 20 orthogonal basis changes")


# -- 3 ----------------------------------------------------------------------

def _structured_matrix(rng):
    n = int(rng.integers(2, 9))
    blocks, left = [], n
    used_moduli = [1.0]

    def fresh(lo, hi):
        for _ in range(100):
            v = rng.uniform(lo, hi)
            if all(abs(v - u) > 0.05 for u in used_moduli):
                used_moduli.append(v)
                return v
        raise RuntimeError("could not separate moduli")

    if left >= 2:
        theta = rng.uniform(0.3, 2.8)
        c, s = np.cos(theta), np.sin(theta)
        blocks.append(np.array([[c, -s], [s, c]]))
        left -= 2
    while left > 0:
        if left >= 2 and rng.random() < 0.4:
            size = 2
            U = np.eye(size)
            U[0, 1] = rng.uniform(-2.0, 2.0)
            blocks.append(U)
            left -= size
        else:
            blocks.append(np.array([[fresh(0.2, 0.85) if rng.random() < 0.5 else fresh(1.2, 4.0)]]))
            left -= 1
    D = np.zeros((n, n))
    at = 0
    for B in blocks:
        k = B.shape[0]
        D[at : at + k, at : at + k] = B
        at += k
    while True:
        P = rng.standard_normal((n, n))
        if np.linalg.cond(P) < 50.0:
            break
    return P @ D @ np.linalg.inv(P), P


def test_criterion_3_jordan():
    rng = np.random.default_rng(3)
    for trial in range(500):
        A, P = _structured_matrix(rng)
        n = A.shape[0]
        parts = jordan_decompose(A)
        assert parts.residual < 1e-8, trial
        e, h, u = parts.elliptic, parts.hyperbolic, parts.unipotent
        for X, Y in ((e, h), (e, u), (h, u)):
            assert np.linalg.norm(X @ Y - Y @ X) < 1e-8 * max(
                1.0, np.linalg.norm(X) * np.linalg.norm(Y)
            ), trial
        assert np.max(np.abs(np.abs(np.linalg.eigvals(e)) - 1.0)) < 1e-8, trial
        hv = np.linalg.eigvals(h)
        assert np.max(np.abs(hv.imag)) < 1e-8 and np.min(hv.real) > 0, trial
        # spectrum {1} checked through nilpotency; raw eigenvalues of a
        # defective matrix carry an intrinsic sqrt(eps) error
        assert np.linalg.norm(np.linalg.matrix_power(u - np.eye(n), n)) < 1e-8, trial
        assert np.max(np.abs(np.linalg.eigvals(u) - 1.0)) < 1e-4, trial

        # equivariance under a fresh well-conditioned conjugation
        while True:
            Q = rng.standard_normal((n, n))
            if np.linalg.cond(Q) < 20.0:
                break
        parts_c = jordan_decompose(Q @ A @ np.linalg.inv(Q))
        for X, Y in (
            (parts.elliptic, parts_c.elliptic),
            (parts.hyperbolic, parts_c.hyperbolic),
            (parts.unipotent, parts_c.unipotent),
        ):
            dev = np.linalg.norm(Q @ X @ np.linalg.inv(Q) - Y)
            assert dev / max(1.0, np.linalg.norm(Y)) < 1e-7, (trial, dev)
    _report(3, "500 structured matrices decompose, commute and conjugate correctly")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_action_transitivity(compose):
    rng = np.random.default_rng(4)
    for name in PRESETS:
        M = build_model(preset(name))
        z0 = M.base_point()
        for _ in range(100):
            p = random_interior_point(M, rng)
            g = solve_orbit(p, M)
            res = act(g, z0, M).distance(p)
            assert res < 1e-7 * max(1.0, np.linalg.norm(p.pack())), (name, res)
        for _ in range(100):
            g = random_element(M, rng, 2.0)
            h = random_element(M, rng, 2.0)
            p = random_interior_point(M, rng)
            lhs = act(compose(g, h, M), p, M)
            rhs = act(g, act(h, p, M), M)
            assert lhs.distance(rhs) < 1e-8, name
    _report(4, "orbit solves round-trip below 1e-7 and the action law holds below 1e-8")


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_fibration(fibration_invariants):
    for name in ("polydisc:2", "polydisc:3", "product:[ball:2,ball:1]"):
        F = split_last_root(build_model(preset(name)))
        res = check_equivariance(F, 100, seed=5)
        assert res < 1e-8, (name, res)
    steps = tower(preset("polydisc:3"))
    assert len(steps) == 3
    for name in PRESETS:
        for F in tower(preset(name)):
            fs = fine_structure(F.fiber_model.J)
            assert fs.rank == 1
            inv = fibration_invariants(F)
            assert inv["heisenberg"] < 1e-9
            assert inv["center"] < 1e-9
            assert inv["symplectic_det"] > 1e-10
    _report(5, "equivariance below 1e-8; towers terminate with ball-like fibers")


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_ball_lemmas():
    rng = np.random.default_rng(6)
    for n in (2, 3, 5):
        B = ball_algebra(n)
        M = B.model
        for _ in range(200):
            x = rng.standard_normal(2 * n)
            V, g = totally_real_subalgebra_containing(x, M, rng)
            assert V.dim == n
            assert residual_outside(x, V) < 1e-9 * max(1.0, np.linalg.norm(x))
            for pt in sample_totally_real_points(M, 50, rng):
                assert abs(totally_real_defect(pt, V, M)) > 1e-6
            a = abs(M.to_adapted(x)[-1]) / np.linalg.norm(x)
            if a > 1e-3:
                gc = conjugate_into_a(x, M)
                assert nilpotent_residual(x, gc.x_minus, M) < 1e-8

        # closed-form flows against the action formula
        gens = ["zeta", "delta"] + [f"xi{k}" for k in range(1, n)] + [
            f"eta{k}" for k in range(1, n)
        ]
        for _ in range(20):
            pt = random_interior_point(M, rng)
            t = rng.uniform(-1.5, 1.5)
            for gen in gens:
                vec = np.zeros(2 * n)
                vec[B.J.L.index(gen)] = t
                c = M.to_adapted(vec)
                gel = group_element(M, c[: M.p + M.q], c[M.p + M.q :])
                assert act(gel, pt, M).distance(table1_flow(gen, t, pt, B)) < 1e-9
    _report(6, "totally-real subalgebras verified for 200 draws at n = 2, 3, 5")


# -- 7 ----------------------------------------------------------------------

def _rotation_phi(theta):
    lin = np.eye(4)
    c, s = np.cos(theta), np.sin(theta)
    lin[2:, 2:] = [[c, -s], [s, c]]
    return {"linear": lin.tolist(), "translation": [0.0] * 4}


def test_criterion_7_analyzer(tmp_path):
    cert1 = analyze("ball:2", "exp:0.7*delta")
    assert cert1["conclusion"] == "stein_certified"
    assert any(s["kind"] == "fiber_case" for s in cert1["steps"])
    ok, _ = verify(cert1)
    assert ok

    cert2 = analyze("polydisc:2", "exp:delta1 + zeta2")
    assert cert2["conclusion"] == "stein_certified"
    kinds = [(s["kind"], s["level"]) for s in cert2["steps"]]
    assert ("tower_descend", 1) in kinds and ("fiber_case", 2) in kinds
    assert max(lvl for _, lvl in kinds) == 2
    ok, _ = verify(cert2)
    assert ok

    cert3 = analyze("ball:2", _rotation_phi(1.0))
    assert cert3["conclusion"] == "not_applicable"
    ok, _ = verify(cert3)
    assert ok

    bad = copy.deepcopy(cert1)
    for s in bad["steps"]:
        if s["kind"] == "fiber_case":
            s["payload"]["subalgebra"] = [row[:1] for row in s["payload"]["subalgebra"]]
    ok, report = verify(bad)
    assert not ok

    # byte-stable with a fixed seed
    assert dump_certificate(cert1) == dump_certificate(analyze("ball:2", "exp:0.7*delta"))

    # exit codes through the real CLI
    out = tmp_path / "cert.json"
    r = subprocess.run(
        [sys.executable, "-m", "hdq.cli", "analyze", "--domain", "ball:2",
         "--phi", "exp:0.7*delta", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    phi = tmp_path / "rot.json"
    phi.write_text(json.dumps(_rotation_phi(1.0)))
    r = subprocess.run(
        [sys.executable, "-m", "hdq.cli", "analyze", "--domain", "ball:2",
         "--phi", f"affine:{phi}"],
        capture_output=True, text=True,
    )
    assert r.returncode == 2, r.stderr
    r = subprocess.run(
        [sys.executable, "-m", "hdq.cli", "analyze", "--domain", "nope:1",
         "--phi", "exp:delta"],
        capture_output=True, text=True,
    )
    assert r.returncode == 4
    r = subprocess.run(
        [sys.executable, "-m", "hdq.cli", "verify", str(out)],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stdout
    _report(7, "end-to-end conclusions, replay verification, exit codes, byte stability")
