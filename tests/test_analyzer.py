import copy
import json

import numpy as np
import pytest

from hdq.analyzer import (
    FIBER_SAMPLE_POINTS,
    AnalyzerConfig,
    analyze,
    dump_certificate,
    element_from_vector,
    element_log,
    load_certificate,
    parse_combination,
    verify,
)
from hdq.errors import InputError, MalformedCertificate
from hdq.jalgebra import ball_jalgebra, preset
from hdq.siegel import act, build_model


def rotation_phi(theta):
    lin = np.eye(4)
    c, s = np.cos(theta), np.sin(theta)
    lin[2:, 2:] = [[c, -s], [s, c]]
    return {"linear": lin.tolist(), "translation": [0.0] * 4}


def test_parse_combination():
    J = ball_jalgebra(2)
    x = parse_combination("0.7*delta + zeta - 2*eta1", J)
    np.testing.assert_allclose(
        x,
        0.7 * J.L.basis_vector("delta")
        + J.L.basis_vector("zeta")
        - 2 * J.L.basis_vector("eta1"),
    )
    with pytest.raises(InputError):
        parse_combination("3*nope", J)


def test_parse_combination_scientific_notation():
    J = ball_jalgebra(2)
    delta, zeta = J.L.basis_vector("delta"), J.L.basis_vector("zeta")
    np.testing.assert_allclose(parse_combination("1e-9*delta", J), 1e-9 * delta)
    np.testing.assert_allclose(parse_combination("2.5E+1*delta - 1e3*zeta", J), 25 * delta - 1000 * zeta)
    np.testing.assert_allclose(parse_combination("-1e3*zeta+.5e-2*delta", J), -1000 * zeta + 0.005 * delta)
    for bad in ("1e-9delta", "nan*delta", "inf*zeta"):
        with pytest.raises(InputError):
            parse_combination(bad, J)


def test_element_from_vector_roundtrip():
    J = preset("polydisc:2")
    M = build_model(J)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-1, 1, J.dim)
        g = element_from_vector(M, x)
        np.testing.assert_allclose(element_log(M, g), x, atol=1e-9)


def test_analyze_ball_dilation():
    cert = analyze("ball:2", "exp:0.7*delta")
    kinds = [s["kind"] for s in cert["steps"]]
    assert kinds == [
        "jordan_split",
        "discreteness",
        "elliptic_reduction",
        "conjugation_into_S",
        "fiber_case",
    ]
    assert cert["conclusion"] == "stein_certified"
    disc = next(s for s in cert["steps"] if s["kind"] == "discreteness")
    assert disc["payload"]["kind"] == "infinite_discrete"
    # the elliptic factor is trivial
    jp = next(s for s in cert["steps"] if s["kind"] == "jordan_split")
    e = np.asarray(jp["payload"]["elliptic"])
    assert np.linalg.norm(e - np.eye(e.shape[0])) < 1e-8
    # the fiber witness is the split subalgebra through the dilation axis
    fc = next(s for s in cert["steps"] if s["kind"] == "fiber_case")
    assert fc["payload"]["fiber_dim"] == 2
    assert fc["payload"]["min_defect"] > 1e-6
    ok, report = verify(cert)
    assert ok, report


def test_analyze_polydisc_descends_once():
    cert = analyze("polydisc:2", "exp:delta1 + zeta2")
    kinds = [(s["kind"], s["level"]) for s in cert["steps"]]
    assert ("tower_descend", 1) in kinds
    assert ("fiber_case", 2) in kinds
    depth = max(s["level"] for s in cert["steps"])
    assert depth == 2
    assert cert["conclusion"] == "stein_certified"
    ok, _ = verify(cert)
    assert ok


def test_analyze_irrational_rotation_not_applicable():
    cert = analyze("ball:2", rotation_phi(1.0))
    assert cert["conclusion"] == "not_applicable"
    ok, _ = verify(cert)
    assert ok


def test_analyze_rational_rotation_finite():
    cert = analyze("ball:2", rotation_phi(2 * np.pi / 3))
    assert cert["conclusion"] == "stein_by_citation"
    disc = next(s for s in cert["steps"] if s["kind"] == "discreteness")
    assert disc["payload"]["kind"] == "finite"
    assert disc["payload"]["order"] == 3


def test_analyze_mixed_rotation_dilation():
    # elliptic factor on w, hyperbolic dilation: reduction strips the
    # rotation and the analysis still certifies
    theta = 1.0
    lin = np.zeros((4, 4))
    lin[:2, :2] = np.exp(0.5) * np.eye(2)
    c, s = np.cos(theta), np.sin(theta)
    lin[2:, 2:] = np.exp(0.25) * np.array([[c, -s], [s, c]])
    cert = analyze("ball:2", {"linear": lin.tolist(), "translation": [0.0] * 4})
    assert cert["conclusion"] == "stein_certified"
    red = next(s for s in cert["steps"] if s["kind"] == "elliptic_reduction")
    e = np.asarray(red["payload"]["elliptic"])
    assert np.linalg.norm(e - np.eye(5)) > 0.1
    ok, rep = verify(cert)
    assert ok, rep


def test_analyze_deterministic_bytes():
    a = dump_certificate(analyze("ball:2", "exp:0.7*delta"))
    b = dump_certificate(analyze("ball:2", "exp:0.7*delta"))
    assert a == b


def test_tampered_certificate_fails():
    cert = analyze("ball:2", "exp:0.7*delta")
    bad = copy.deepcopy(cert)
    for s in bad["steps"]:
        if s["kind"] == "fiber_case":
            s["payload"]["subalgebra"] = [row[:1] for row in s["payload"]["subalgebra"]]
    ok, report = verify(bad)
    assert not ok
    assert any("totally-real" in r["detail"] for r in report if not r["ok"])


def test_equivariance_sample_count_forgery_fails():
    cert = analyze("polydisc:2", "exp:delta1 + zeta2")
    bad = copy.deepcopy(cert)
    step = next(s for s in bad["steps"] if s["kind"] == "tower_descend")
    step["payload"]["equivariance_samples"] = 0
    ok, report = verify(bad)
    assert not ok
    assert any("equivariance samples" in r["detail"] for r in report if not r["ok"])
    # a certificate made with fewer samples than the verifier's count is held to that count
    assert not verify(cert, AnalyzerConfig(samples=101))[0]
    assert verify(cert)[0]


@pytest.mark.parametrize("points", ["none", "few", "narrow", "flat"])
def test_fiber_sample_point_forgery_fails(points):
    cert = analyze("ball:3", "exp:0.5*delta + zeta - 0.3*xi1")
    assert verify(cert)[0]
    payload = next(s for s in cert["steps"] if s["kind"] == "fiber_case")["payload"]
    stored = payload["sample_points"]
    assert len(stored) == FIBER_SAMPLE_POINTS
    payload["sample_points"] = {
        "none": [],
        "few": stored[: FIBER_SAMPLE_POINTS - 1],
        "narrow": [row[:-1] for row in stored],
        "flat": stored[0],
    }[points]
    ok, report = verify(cert)
    assert not ok
    assert any("sample points" in r["detail"] for r in report if not r["ok"])


def test_strong_contraction_is_certified():
    # det of the affine matrix is e^-31.5, but the matrix is well conditioned
    cert = analyze("ball:8", "exp:-3.5*delta")
    assert cert["conclusion"] == "stein_certified"
    ok, report = verify(cert)
    assert ok, report


def test_empty_certificate_verifies():
    cert = {
        "version": 1,
        "domain": "ball:2",
        "phi": "none",
        "seed": 42,
        "steps": [],
        "assumptions": [],
        "conclusion": "not_applicable",
    }
    ok, report = verify(cert)
    assert ok and report == []


def test_malformed_certificate():
    with pytest.raises(MalformedCertificate):
        verify({"version": 1})


def test_certificate_file_roundtrip(tmp_path):
    cert = analyze("ball:2", "exp:0.7*delta")
    path = tmp_path / "cert.json"
    path.write_text(dump_certificate(cert))
    loaded = load_certificate(path)
    ok, _ = verify(loaded)
    assert ok


def test_affine_input_matching_exp():
    # supply the dilation as an affine map; conjugation recovers coordinates
    J = ball_jalgebra(2)
    M = build_model(J)
    g = element_from_vector(M, 0.7 * J.L.basis_vector("delta"))
    phi = {
        "linear": g.affine_matrix.tolist(),
        "translation": g.affine_offset.tolist(),
    }
    cert = analyze("ball:2", phi)
    assert cert["conclusion"] == "stein_certified"
    conj = next(s for s in cert["steps"] if s["kind"] == "conjugation_into_S")
    np.testing.assert_allclose(conj["payload"]["x_zero"], [0.7], atol=1e-7)


def test_domain_screen_rejects_non_automorphism():
    lin = np.eye(4)
    lin[2, 2] = 3.0  # inflates |w| without moving z: leaves the domain
    with pytest.raises(InputError):
        analyze("ball:2", {"linear": lin.tolist(), "translation": [0.0] * 4})


def test_recursion_depth_bounded_by_rank():
    cert = analyze("polydisc:3", "exp:delta1 + zeta2 + zeta3")
    depth = max(s["level"] for s in cert["steps"])
    assert depth <= 3
    assert cert["conclusion"] == "stein_certified"
    ok, _ = verify(cert)
    assert ok


@pytest.mark.parametrize("row, col", [(1, 0), (2, 2), (1, None)])
def test_non_finite_affine_map_is_input_error(row, col):
    # ball:2 packs (re z, im z, w1, w2): the imaginary-z row, the w block,
    # and (col None) the imaginary translation
    lin, off = np.eye(4), np.zeros(4)
    if col is None:
        off[row] = np.nan
    else:
        lin[row, col] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        analyze("ball:2", {"linear": lin.tolist(), "translation": off.tolist()})


def test_unequivariant_tower_level_is_undecided(relabelled_polydisc):
    """analyze never certifies what verify rejects.

    On this copy of polydisc:6, rescaled per basis vector, the splits at
    tower levels 3 and 4 are omega-orthogonal only to 7e-9 and 3e-8, and
    level 2 checks equivariant only to about 1e-7, above the 1e-8 tolerance.
    """
    J, perm, scale = relabelled_polydisc(6, np.random.default_rng([2, 324]), per_vector=True)
    on_preset = np.zeros(J.dim)
    on_preset[0::2] = [0.3, 0.5, 0.7, 0.9, -0.4, -0.6]
    on_preset[1::2] = 0.2
    coeffs = on_preset[perm] / scale
    phi = "exp:" + " + ".join(f"{c:.17g}*{lbl}" for c, lbl in zip(coeffs, J.L.basis_labels))
    cert = analyze(J, phi.replace("+ -", "- "))
    ok, _ = verify(cert)
    assert cert["conclusion"] != "stein_certified" or ok
    assert cert["conclusion"] == "undecided"
    assert "level 2 is not numerically equivariant (residual 9.4" in cert["assumptions"][-1]
    assert ok
