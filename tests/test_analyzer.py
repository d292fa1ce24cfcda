import copy
import json
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from hdq import analyzer, fibration, jalgebra, lie_core
from hdq.analyzer import (
    analyze,
    dump_certificate,
    load_certificate,
    parse_combination,
    verify,
)
from hdq.errors import InputError, MalformedCertificate, NotInvertible
from hdq.fibration import Tower
from hdq.jordan import jordan_decompose
from hdq.jalgebra import NormalJAlgebra, ball_jalgebra, preset
from hdq.lie_core import LieAlgebraData, Subspace, ad_matrix
from hdq import cli
from hdq.ball import conjugate_into_a, totally_real_subalgebra
from hdq.siegel import _aligned_basis, act, build_model, contains, domain_defect, element_from_vector, element_log, group_element


def rotation_phi(theta, dilation=0.0):
    """Rotation of ball:2's w by theta, with z scaled by e^(2 dilation) and
    w by e^dilation."""
    lin = np.eye(4)
    lin[:2, :2] *= np.exp(2 * dilation)
    c, s = np.cos(theta), np.sin(theta)
    lin[2:, 2:] = np.exp(dilation) * np.array([[c, -s], [s, c]])
    return {"linear": lin.tolist(), "translation": [0.0] * 4}


def _exp_spec(coeffs, labels):
    return ("exp:" + " + ".join(f"{c:.17g}*{lbl}" for c, lbl in zip(coeffs, labels))).replace("+ -", "- ")


def test_named_preset_is_built_once(monkeypatch, tmp_path):
    """A named preset is built once and echoed by name; a file domain is
    echoed as its algebra, and a name that is neither keeps the resolver's
    message."""
    built = []
    original = jalgebra.preset
    monkeypatch.setattr(jalgebra, "preset", lambda name: built.append(name) or original(name))
    assert analyze("ball:2", "exp:0.7*delta")["domain"] == "ball:2"
    assert built == ["ball:2"]
    data = jalgebra.j_algebra_to_dict(ball_jalgebra(2))
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(data))
    assert analyze(str(path), "exp:0.7*delta")["domain"] == data
    with pytest.raises(InputError, match="is neither a preset .* nor a readable file"):
        analyze("ball:x", "exp:delta")


@pytest.mark.parametrize("seed", [-3, -20])
@pytest.mark.parametrize("phi", ["exp:0.5*delta", rotation_phi(1.0)])
def test_negative_seed_is_input_error(seed, phi):
    """A negative seed is refused whatever the phi, though only the domain
    screen of an affine phi draws from it: -20 once reached numpy's seeding
    in the fiber check, -3 did not, and an affine phi failed in the
    screen."""
    with pytest.raises(InputError, match="seed must be non-negative"):
        analyze("ball:2", phi, seed=seed)


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
    assert np.shape(fc["payload"]["subalgebra"]) == (4, 2)
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
    cert = analyze("ball:2", rotation_phi(1.0, dilation=0.25))
    assert cert["conclusion"] == "stein_certified"
    jp = next(s for s in cert["steps"] if s["kind"] == "jordan_split")
    e = np.asarray(jp["payload"]["elliptic"])
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


def test_strong_contraction_is_certified():
    # det of the affine matrix is e^-31.5, but the matrix is well conditioned
    cert = analyze("ball:8", "exp:-3.5*delta")
    assert cert["conclusion"] == "stein_certified"
    ok, report = verify(cert)
    assert ok, report


def test_empty_certificate_verifies():
    """A certificate with no steps claims nothing: concluding undecided it
    verifies with an empty report, and concluding not_applicable (which
    once verified too) it fails with one conclusion entry."""
    cert = {
        "version": 1,
        "domain": "ball:2",
        "phi": "none",
        "seed": 42,
        "steps": [],
        "assumptions": [],
        "conclusion": "undecided",
    }
    assert verify(cert) == (True, [])
    cert["conclusion"] = "not_applicable"
    ok, report = verify(cert)
    assert not ok
    assert [(r["kind"], r["ok"]) for r in report] == [("conclusion", False)]
    assert report[0]["detail"] == "the certificate concludes not_applicable, the replay undecided"


def test_malformed_certificate():
    with pytest.raises(MalformedCertificate):
        verify({"version": 1})


@pytest.mark.parametrize("version", [[], {}, True, 1.0, "1", None])
def test_certificate_version_that_is_not_a_known_int_is_malformed(version):
    """Only the integers 1 and 2 are versions: an unhashable one once
    raised TypeError out of verify, and true or 1.0 read as version 1."""
    cert = json.loads(dump_certificate(analyze("ball:2", "exp:0.7*delta")))
    cert["version"] = version
    with pytest.raises(MalformedCertificate, match="certificate version"):
        verify(cert)


def test_certificate_file_roundtrip(tmp_path):
    cert = analyze("ball:2", "exp:0.7*delta")
    path = tmp_path / "cert.json"
    path.write_text(dump_certificate(cert))
    loaded = load_certificate(path)
    ok, _ = verify(loaded)
    assert ok


def test_swapped_phi_fails_verify():
    """verify binds the Jordan matrix to phi: a genuine certificate with its
    phi swapped for another element once verified.  The stored elliptic
    factor, I, is the elliptic factor of the new phi too, so the swap is
    caught where phi' = phi is matched in the split solvable group."""
    cert = json.loads(dump_certificate(analyze("ball:2", "exp:0.7*delta")))
    assert verify(cert)[0]
    cert["phi"] = "exp:0.3*delta + zeta"
    ok, report = verify(cert)
    assert not ok
    first = next(r for r in report if not r["ok"])
    assert first["kind"] == "conjugation_into_S" and first["residual"] > 1e-2


def test_moved_affine_entry_fails_verify():
    cert = json.loads(dump_certificate(analyze("ball:2", rotation_phi(1.0, dilation=0.25))))
    assert verify(cert)[0]
    cert["phi"]["linear"][0][1] += 1e-3
    ok, report = verify(cert)
    assert not ok
    # the rotation of w still commutes with phi; phi' takes the moved entry
    assert next(r for r in report if not r["ok"])["kind"] == "conjugation_into_S"


def test_jordan_factors_of_the_wrong_shape_fail_verify():
    """The factors are compared with the matrix derived from phi; 1x1
    factors would broadcast against it.  So in both formats: the elliptic
    factor alone, and the three factors of version 1."""
    for version, keys in analyzer.JORDAN_KEYS.items():
        cert = json.loads(dump_certificate(analyze("ball:2", "exp:0.7*delta")))
        cert["version"] = version
        cert["steps"][0]["payload"] = {key: [[1.0]] for key in keys}
        ok, report = verify(cert)
        assert not ok
        assert report[0]["kind"] == "jordan_split"
        assert report[0]["detail"].startswith("Jordan factors of shapes (1, 1)")


@pytest.mark.parametrize(
    "phi",
    ["exp:0.7*nope", "affine:cert.json", {"linear": [[1.0]], "translation": [0.0]}, {"linear": 1}],
    ids=["unknown-label", "affine-file", "wrong-shape", "no-translation"],
)
def test_unresolvable_phi_fails_jordan_split(phi):
    """A phi that does not parse or does not fit the domain fails the
    jordan_split step with a reason, never an exception."""
    cert = json.loads(dump_certificate(analyze("ball:2", "exp:0.7*delta")))
    cert["phi"] = phi
    ok, report = verify(cert)
    assert not ok
    assert report[0]["kind"] == "jordan_split" and report[0]["detail"].startswith("phi does not resolve")


def test_affine_input_matching_exp():
    # supply the dilation as an affine map; conjugation recovers coordinates
    J = ball_jalgebra(2)
    M = build_model(J)
    g = element_from_vector(M, np.linalg.solve(M.basis, 0.7 * J.L.basis_vector("delta")))
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


def _leaving_involution():
    """An involution of ball:2's packed coordinates that leaves the domain:
    w1 -> 5 re(z) - w1."""
    lin = np.eye(4)
    lin[2][0] = 5.0
    lin[2][2] = -1.0
    return {"linear": lin.tolist(), "translation": [0.0] * 4}


def test_domain_screen_rejects_a_domain_leaving_involution(tmp_path, capsys):
    with pytest.raises(InputError, match="does not preserve the domain"):
        analyze("ball:2", _leaving_involution())
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(_leaving_involution()))
    assert cli.main(["analyze", "--domain", "ball:2", "--phi", f"affine:{phi}"]) == cli.EXIT_INPUT
    assert "does not preserve the domain" in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["ball:2", "product:[ball:3,ball:3]", "polydisc:3"])
def test_screen_samples_are_interior_and_depend_only_on_the_seed(domain, monkeypatch):
    """The screen draws 20 points from its seed alone, all interior, and
    tests their images with one stacked cone query at 1e-7."""
    J = preset(domain)
    M = build_model(J)
    drawn, queries = [], []
    sampler, solver = analyzer.random_interior_points, analyzer.contains
    monkeypatch.setattr(analyzer, "random_interior_points", lambda *a: drawn.append(sampler(*a)) or drawn[-1])
    monkeypatch.setattr(analyzer, "contains", lambda *a: queries.append(a) or solver(*a))
    dim = 2 * M.p + M.q
    identity = {"linear": np.eye(dim).tolist(), "translation": [0.0] * dim}
    for seed, noise in ((7, 1), (7, 2), (8, 1)):
        np.random.seed(noise)  # the global generator must not matter
        analyzer.resolve_phi(identity, J, M, seed)
    assert [len(pts.z) for pts in drawn] == [20, 20, 20]
    assert [(len(q[0].z), q[2]) for q in queries] == [(20, 1e-7)] * 3
    np.testing.assert_array_equal(drawn[0].pack(), drawn[1].pack())
    assert not np.array_equal(drawn[0].pack(), drawn[2].pack())
    for pts in drawn:
        assert np.all(contains(pts, M, 1e-9))
        if M.p == 1:  # a ball: the cone is the positive ray
            assert np.all(domain_defect(pts, M) > 0)


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


def _rescaled_polydisc_input(relabelled_polydisc, key, per_vector=True):
    """A copy of polydisc:6 rescaled per basis vector (or per disc factor),
    and the image of one fixed preset element in its basis."""
    J, perm, scale = relabelled_polydisc(6, np.random.default_rng(key), per_vector=per_vector)
    on_preset = np.zeros(J.dim)
    on_preset[0::2] = [0.3, 0.5, 0.7, 0.9, -0.4, -0.6]
    on_preset[1::2] = 0.2
    return J, _exp_spec(on_preset[perm] / scale, J.L.basis_labels)


def test_unequivariant_tower_level_is_undecided(relabelled_polydisc, tilted_ideal, monkeypatch):
    """A tower level whose structural residual exceeds the step tolerance
    ends the analysis undecided, with no tower_descend step for that
    level, and fails that entry when verify replays a clean certificate.
    Level 1 is made non-equivariant on purpose: split_last_root's output
    there has its ideal tilted by 1e-6 off G-orthogonality.  The tolerance
    is the step's own."""
    J, phi = _rescaled_polydisc_input(relabelled_polydisc, [2, 0])
    clean = analyze(J, phi)
    assert clean["conclusion"] == "stein_certified"
    assert any(s["kind"] == "tower_descend" and s["level"] == 1 for s in clean["steps"])
    split = fibration.split_last_root
    monkeypatch.setattr(
        fibration, "split_last_root", lambda M: tilted_ideal(split(M), 1e-6) if M.rank == 6 else split(M)
    )
    analyzer._SLOT = None  # the clean tower of J is prepared; split it again
    assert fibration.Tower(build_model(J)).residual(1) > 10 * analyzer.STEP_TOL["tower_descend"]
    cert = analyze(J, phi)
    assert cert["conclusion"] == "undecided"
    assert not any(s["kind"] == "tower_descend" and s["level"] == 1 for s in cert["steps"])
    assert analyzer.FAILED["tower_descend"].format(level=1) in cert["assumptions"][-1]
    ok, report = verify(json.loads(dump_certificate(clean)))
    assert not ok
    failed = [e for e in report if not e["ok"]]
    assert [e["kind"] for e in failed] == ["tower_descend"]
    assert failed[0]["residual"] > analyzer.VERIFY_SLACK * analyzer.STEP_TOL["tower_descend"]


@pytest.mark.parametrize("copy_index", [0, 1, 2, 3, 4, 5, 6, 261, 324, 357])
def test_rescaled_tower_certificates_verify(relabelled_polydisc, copy_index):
    """analyze never certifies what verify rejects, on copies of polydisc:6
    rescaled per basis vector, among them copies (261, 324, 357) on which
    rounding decides whether a tower level passes the equivariance gate."""
    J, phi = _rescaled_polydisc_input(relabelled_polydisc, [2, copy_index])
    cert = analyze(J, phi)
    assert cert["conclusion"] != "stein_certified" or verify(cert)[0]


def test_ill_conditioned_tower_copy_certifies(relabelled_polydisc):
    """The copy of polydisc:6 rescaled per disc factor that the benchmark
    builds at seed 410, operation 62.  Splitting root clusters at any gap
    above 1e-7 once left its level-1 tower at 9.9e-8 against 1e-8; it
    certifies, and every level is equivariant to rounding."""
    J, phi = _rescaled_polydisc_input(relabelled_polydisc, [410, 62], per_vector=False)
    cert = analyze(J, phi)
    assert cert["conclusion"] == "stein_certified" and verify(cert)[0]
    assert max(s["residual"] for s in cert["steps"] if s["kind"] == "tower_descend") < 1e-12


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["orthogonal", "per-vector", "combined"])
@pytest.mark.parametrize("name", ["ball:4", "ball:8", "product:[ball:2,ball:2]", "polydisc:3"])
def test_rebased_presets_certify(rebased, name, kind, seed):
    """Verdicts do not depend on the basis.  A preset rebased by an
    orthogonal matrix (the rows of a QR factor), by a factor in [0.5, 2]
    per basis vector, or by both, certifies a random element, and the
    certificate verifies."""
    J = preset(name)
    n = J.dim
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    scale = np.random.default_rng(200 + seed).uniform(0.5, 2.0, n)
    T = {"orthogonal": Q, "per-vector": np.diag(scale), "combined": scale[:, None] * Q}[kind]
    Jr = rebased(J, T)
    cert = analyze(Jr, _exp_spec(np.random.default_rng(100 + seed).uniform(-1, 1, n), Jr.L.basis_labels))
    assert cert["conclusion"] == "stein_certified"
    assert verify(cert)[0]


@pytest.mark.parametrize("phi", ["exp:0.5*delta + zeta - 0.3*xi1", "exp:zeta - 0.3*xi1"])
def test_forged_fiber_conjugator_fails(phi):
    """verify replays the fiber conjugator: with a frame coefficient it must
    move log_in_fiber onto the frame line, and without one it must be zero.
    A conjugator with every entry set to 99 once verified."""
    cert = json.loads(dump_certificate(analyze("ball:3", phi)))
    assert verify(cert)[0]
    payload = next(s for s in cert["steps"] if s["kind"] == "fiber_case")["payload"]
    payload["conjugator_x_minus"] = [99.0] * len(payload["conjugator_x_minus"])
    ok, report = verify(cert)
    assert not ok
    assert [r["kind"] for r in report if not r["ok"]] == ["fiber_case"]


def test_forged_fiber_log_fails():
    """verify checks the fiber witness against the log of the element the
    walk carries.  A fiber_case with the totally-real subalgebra and
    conjugator of 7 e_1 once verified beside a stored log 7 e_1; that
    witness passes its check for 7 e_1, so only the carried log refuses
    it."""
    cert = json.loads(dump_certificate(analyze("ball:3", "exp:0.5*delta + zeta - 0.3*xi1")))
    step = next(s for s in cert["steps"] if s["kind"] == "fiber_case")
    Mf = fibration.Tower(build_model(preset("ball:3")))[step["level"]].fiber_model
    x = 7.0 * np.eye(Mf.J.dim)[1]
    V, g = totally_real_subalgebra(x, Mf)
    step["payload"].update(subalgebra=_aligned_basis(V).tolist(), conjugator_x_minus=g.tolist())
    ok, report = verify(cert)
    assert not ok
    failed = [r for r in report if not r["ok"]]
    assert [r["kind"] for r in failed] == ["fiber_case"]
    assert failed[0]["detail"].startswith("residual ")
    assert failed[0]["residual"] > 0.1
    # the same witness replays within tolerance against the log 7 e_1
    state = analyzer.ReplayState(build_model(preset("ball:3")), fiber_log=x)
    assert analyzer._check_fiber(step["payload"], state, step["level"]) <= analyzer.STEP_TOL["fiber_case"]


def _forged_fiber(monkeypatch, phi, forge):
    """The ball:3 certificate of phi with the fiber_case subalgebra
    ``forge(fiber model, fiber log)``, a basis in fiber coordinates, stored
    as analyze stores its own; the conjugator is the honest one."""
    seen = []
    build = analyzer._fiber_payload
    monkeypatch.setattr(analyzer, "_fiber_payload", lambda Mf, x: seen.append((Mf, x)) or build(Mf, x))
    cert = json.loads(dump_certificate(analyze("ball:3", phi)))
    assert cert["conclusion"] == "stein_certified" and verify(cert)[0]
    (Mf, x), = seen
    payload = next(s for s in cert["steps"] if s["kind"] == "fiber_case")["payload"]
    V = Subspace(Mf.J.dim, Mf.basis @ Subspace(Mf.J.dim, forge(Mf, x)).orthonormal())
    payload["subalgebra"] = _aligned_basis(V).tolist()
    return cert


def _half(Mf, *vectors):
    """Half-block vectors as columns in fiber coordinates."""
    return np.vstack([np.zeros((Mf.p, len(vectors))), np.column_stack(vectors), np.zeros((Mf.p0, len(vectors)))])


def test_forged_complex_line_in_the_abelian_witness_fails(monkeypatch):
    """An element with no frame coefficient, whose half part lies along the
    first vector e of a symplectic pair: V = center + Re + R jhalf e holds
    it, has the fiber's dimension and is a subalgebra, but its orbits are
    complex lines in the half block.  Only the determinant refuses it."""
    def forge(Mf, x):
        e = Mf.symplectic_pairs[0][0]
        assert abs(x[-1]) == 0.0 and lie_core.residual_outside(x[Mf.p : Mf.p + Mf.q], lie_core.span([e], Mf.q)) < 1e-12
        return np.column_stack([np.eye(Mf.J.dim)[0], _half(Mf, e, Mf.jhalf @ e)])

    ok, report = verify(_forged_fiber(monkeypatch, "exp:zeta + 0.5*xi1", forge))
    assert not ok
    failed = [r for r in report if not r["ok"]]
    assert [r["kind"] for r in failed] == ["fiber_case"]
    assert "not totally real" in failed[0]["detail"], failed[0]


def test_forged_non_lagrangian_frame_witness_fails(monkeypatch):
    """An element with a frame coefficient: V = Ad(g)^-1 (R eta + U) with
    the honest conjugator g, so that V holds the element, but U = span(e1,
    e2 + f1 / 2) pairs e1 with f1 and is totally real without being
    Lagrangian.  V is then not a subalgebra, and its residual refuses it."""
    def forge(Mf, x):
        (e1, f1, _), (e2, _, _) = Mf.symplectic_pairs
        lift = expm(ad_matrix(np.concatenate([conjugate_into_a(x, Mf), np.zeros(Mf.p0)]), Mf.J.L))
        return lift @ np.column_stack([np.eye(Mf.J.dim)[-1], _half(Mf, e1, e2 + 0.5 * f1)])

    ok, report = verify(_forged_fiber(monkeypatch, "exp:0.5*delta + zeta - 0.3*xi1", forge))
    assert not ok
    failed = [r for r in report if not r["ok"]]
    assert [r["kind"] for r in failed] == ["fiber_case"]
    assert failed[0]["detail"].startswith("residual ") and failed[0]["residual"] > 1e-3, failed[0]


@pytest.mark.parametrize(
    "phi, frame",
    [("exp:0.5*delta + zeta - 0.3*xi1 + 0.2*eta3", True), ("exp:zeta + 0.5*xi1 - 0.3*eta2", False)],
    ids=["frame", "abelian"],
)
def test_fiber_check_draws_no_samples(phi, frame, monkeypatch):
    """verify decides the ball:8 fiber witness from its structure, with a
    frame coefficient and without: it passes while numpy's generator
    refuses to be built, and the certificate's seed, which once seeded the
    sampled determinants, does not matter."""
    cert = json.loads(dump_certificate(analyze("ball:8", phi)))
    assert cert["conclusion"] == "stein_certified"
    fiber = next(s for s in cert["steps"] if s["kind"] == "fiber_case")
    assert any(fiber["payload"]["conjugator_x_minus"]) == frame

    def refuse(*args, **kwargs):
        raise AssertionError("verify drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert verify(cert)[0]
    assert verify(dict(cert, seed=cert["seed"] + 1))[0]


def test_elliptic_spectrum_is_taken_once(monkeypatch):
    """The Jordan check takes the elliptic factor's eigenvalues and
    discreteness reads them off the state: on ball:2 rotated by 2 pi / 3,
    analyze takes one ``eigvals`` besides the split's ``eig``, and verify
    one."""
    calls = []
    for name in ("eig", "eigvals"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, name=name, solve=solve: calls.append(name) or solve(a))
    cert = analyze("ball:2", rotation_phi(2 * np.pi / 3))
    assert cert["conclusion"] == "stein_by_citation"
    assert sorted(calls) == ["eig", "eigvals"]
    calls.clear()
    assert verify(json.loads(dump_certificate(cert)))[0]
    assert calls == ["eigvals"]


def _benchmark_op0(workload, relabelled_polydisc):
    """Operation 0 at seed 1 of the ball-fiber or polydisc-tower benchmark
    workload, drawn as the workload draws it: (domain, phi)."""
    rng = np.random.default_rng([1, 0])
    if workload == "ball-fiber":
        labels = preset("ball:8").L.basis_labels
        coeffs = rng.uniform(-1.0, 1.0, len(labels))
        d = labels.index("delta")
        while 0.0 < abs(coeffs[d]) < 0.02:
            coeffs[d] = rng.uniform(-1.0, 1.0)
        return "ball:8", _exp_spec(coeffs, labels)
    J, perm, scale = relabelled_polydisc(6, rng)
    on_preset = np.zeros(J.dim)
    while True:
        coeffs = rng.uniform(-1.0, 1.0, J.dim)
        on_preset[perm] = coeffs * scale
        if np.min(np.diff(np.sort(np.append(on_preset[0::2], 0.0)))) >= 0.02:
            return J, _exp_spec(coeffs, J.L.basis_labels)


def test_each_algebra_is_measured_once(monkeypatch, relabelled_polydisc):
    """On operation 0 of the ball-fiber and polydisc-tower benchmarks,
    analyze on a cold slot runs the Jacobi identity once and decides
    split-solvability (with one derived series) once, all on the input:
    every quotient and fiber model of the tower is built from the input's
    root columns, so no child algebra is measured again.  The verify that
    follows finds the domain prepared and measures nothing."""
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(arg):
            calls.setdefault(name, []).append(arg)
            return original(arg)

        monkeypatch.setattr(module, name, wrapper)

    counting(lie_core, "jacobi_defect")
    counting(lie_core, "derived_series")
    counting(jalgebra, "_abelian_part")
    for workload in ("ball-fiber", "polydisc-tower"):
        domain, phi = _benchmark_op0(workload, relabelled_polydisc)
        for phase in ("analyze", "verify"):
            calls.clear()
            if phase == "analyze":
                cert = analyze(domain, phi)
                assert cert["conclusion"] == "stein_certified"
            else:
                assert verify(json.loads(dump_certificate(cert)))[0]
            once = int(phase == "analyze")
            assert len(calls.get("jacobi_defect", [])) == once, (workload, phase)
            measured = calls.get("_abelian_part", [])
            assert len(measured) == once, (workload, phase)
            assert [L.dim for L in calls.get("derived_series", [])] == [J.dim for J in measured], (workload, phase)


def test_walk_builds_no_quotient_group_elements(monkeypatch, relabelled_polydisc):
    """One polydisc:6 analyze + verify pair (operation 0 of the
    polydisc-tower benchmark) descends five levels and builds group
    elements only on the input domain: for phi, for the orbit solve and
    the conjugation check, and in the fiber case.  The walk pushes
    exponential coordinates.  Before this the pair built 39 group
    elements and made 91 exponential calls."""
    from hdq import ball, fibration, siegel

    calls = {"group_element": 0, "_expm_stack": 0}
    for name in calls:
        original = getattr(siegel, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (siegel, ball, fibration, analyzer):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    domain, phi = _benchmark_op0("polydisc-tower", relabelled_polydisc)
    cert = analyze(domain, phi)
    assert cert["conclusion"] == "stein_certified"
    assert sum(s["kind"] == "tower_descend" for s in cert["steps"]) == 5
    assert verify(json.loads(dump_certificate(cert)))[0]
    assert calls["group_element"] <= 7, calls
    assert calls["_expm_stack"] <= 50, calls


def test_tower_walk_draws_no_samples(monkeypatch, relabelled_polydisc):
    """polydisc:6 and a relabelled copy certify and verify with the sampled
    equivariance check raising under every name the package binds it to;
    analyze on a cold slot computes one Gram matrix for its whole tower,
    and the verify that follows reads the prepared one."""
    def refuse(*args, **kwargs):
        raise AssertionError("the walk sampled the equivariance square")

    bound = [m for name, m in sys.modules.items() if name.startswith("hdq") and getattr(m, "check_equivariance", None) is fibration.check_equivariance]
    assert fibration in bound
    for module in bound:
        monkeypatch.setattr(module, "check_equivariance", refuse)
    grams = []
    gram = fibration.gram
    monkeypatch.setattr(fibration, "gram", lambda J: grams.append(J.dim) or gram(J))
    preset_phi = " + ".join(f"{c}*delta{k} + 0.2*zeta{k}" for k, c in enumerate([0.3, 0.5, 0.7, 0.9, -0.4, -0.6], 1))
    for domain, phi in (("polydisc:6", "exp:" + preset_phi), _rescaled_polydisc_input(relabelled_polydisc, [2, 0])):
        grams.clear()
        cert = analyze(domain, phi)
        assert cert["conclusion"] == "stein_certified"
        assert sum(s["kind"] == "tower_descend" for s in cert["steps"]) == 5
        assert grams == [12]
        assert verify(json.loads(dump_certificate(cert)))[0]
        assert grams == [12]


def _descent_levels(domain, x):
    """(rank, fiber_case levels, assumptions) of the walk for exp(x), with
    canned payloads up to the conjugation step, where the element is set
    to exp(x) directly: the descent alone decides, with no Jordan split."""
    M = build_model(preset(domain))
    state = analyzer.ReplayState(M)
    canned = {"jordan_split": {}, "discreteness": {"kind": "infinite_discrete", "order": None}}
    levels = []

    def take(kind, level, build):
        if kind == "conjugation_into_S":
            state.element = element_from_vector(M, np.linalg.solve(M.basis, x))
        if kind == "fiber_case":
            levels.append(level)
        return canned.get(kind, {})

    out = {"assumptions": []}
    analyzer._walk(state, out, take)
    return M.rank, levels, out["assumptions"]


@pytest.mark.parametrize("domain", ["polydisc:2", "polydisc:3", "product:[ball:1,ball:1]", "product:[ball:2,ball:2]"])
def test_descent_decides_on_the_algebra_log(domain):
    """exp(x) with every factor of x nonzero reaches a fiber only at the
    last level.  The layered coordinates grow like e^|x| along the
    dilations, so a ratio taken on them takes some of these draws into the
    level-1 fiber or stops them as numerically ambiguous."""
    dim = preset(domain).dim
    draws = [s * np.random.default_rng(1000 + k).uniform(-1, 1, dim) for s in (20, 40) for k in (2, 3, 8, 10, 14, 21)]
    if domain == "polydisc:2":
        draws.append(parse_combination(
            "-5.850135627850*delta1 - 20.017495574103*zeta1 + 28.349660595077*delta2 - 6.958477109843*zeta2",
            preset(domain),
        ))
    for x in draws:
        rank, levels, assumptions = _descent_levels(domain, x)
        assert levels == [rank], x
        assert not any("numerically ambiguous" in a for a in assumptions), (x, assumptions)


def test_sym2_level_one_fibers_certify(sym2_tube):
    """Elements of the level-1 ideal of the tube over Sym+(2), whose fiber
    half block comes from sum and diff roots, certify with a fiber_case at
    level 1, and the conjugator is zero exactly when the frame coefficient
    h2 is.  A frame coordinate of rounding size (1.3e-10 from the orbit
    solve at k = 24) once took the conjugation branch, whose residual
    (7.1e-7) then failed the witness bound."""
    J = sym2_tube()
    for k in range(30):
        coeffs = np.random.default_rng(700 + k).uniform(-1, 1, 4)
        if k % 3 == 0:
            coeffs[0] = 0.0
        cert = analyze(J, _exp_spec(coeffs, ("h2", "e", "a12", "a22")))
        assert cert["conclusion"] == "stein_certified", (k, cert["assumptions"][-1])
        fiber = [s for s in cert["steps"] if s["kind"] == "fiber_case"]
        assert [s["level"] for s in fiber] == [1], k
        assert np.any(fiber[0]["payload"]["conjugator_x_minus"]) == (coeffs[0] != 0.0), k
        assert verify(json.loads(dump_certificate(cert)))[0], k


def _forge_domain(cert, forgery):
    domain = cert["domain"]
    if forgery == "j":
        domain["j"][0][1] += 1e-2
    else:
        domain["brackets"].append({"i": "zeta1", "j": "zeta2", "coeffs": {"delta1": 0.1}})
    return cert


@pytest.mark.parametrize("forgery, check", [("j", "j_squared"), ("bracket", "split_solvable")])
def test_forged_domain_fails_validation(forgery, check):
    """verify validates the domain as analyze does.  A j off by 1e-2 once
    verified, and a bracket [zeta1, zeta2] = 0.1 delta1 once raised
    RootPatternViolation; both now fail with one domain entry, and analyze
    refuses the same domain."""
    cert = json.loads(dump_certificate(analyze(preset("polydisc:2"), "exp:0.5*delta1 + 0.3*zeta1 - 0.2*delta2")))
    assert verify(cert)[0]
    cert = _forge_domain(cert, forgery)
    ok, report = verify(cert)
    assert not ok
    assert [(r["kind"], r["ok"]) for r in report] == [("domain", False)]
    assert f"domain fails validation: {check} defect" in report[0]["detail"]
    with pytest.raises(InputError, match=f"domain fails validation: {check}"):
        analyze(jalgebra.j_algebra_from_dict(cert["domain"]), cert["phi"])


@pytest.mark.parametrize("forgery", ["elliptic", "x_zero"])
def test_stored_thresholds_are_not_read(forgery):
    """verify holds each step to the analyzer's tolerance table, never to a
    threshold stored in the certificate."""
    cert = analyze("ball:2", "exp:0.7*delta")
    steps = {s["kind"]: s for s in cert["steps"]}
    if forgery == "elliptic":
        step = steps["jordan_split"]
        step["payload"]["elliptic"] = (2.0 * np.eye(5)).tolist()
        step["tolerance"] = 1e300
    else:
        step = steps["conjugation_into_S"]
        step["payload"]["x_zero"] = [5.0]
        step["tolerance"] = 1e300
    ok, report = verify(cert)
    assert not ok
    if forgery == "elliptic":
        # a wrong elliptic factor also gives a wrong phi', which the later
        # steps, built on it, fail in turn
        first = next(r for r in report if not r["ok"])
        bound = analyzer.VERIFY_SLACK * analyzer.STEP_TOL[step["kind"]]
        assert first["kind"] == step["kind"] and first["detail"].endswith(f"exceeds {bound:.0e}")
    else:
        assert [r["kind"] for r in report if not r["ok"]] == [step["kind"]]


def _rebased_product():
    """product:[ball:2,ball:2] in the basis of the columns of an orthogonal
    Q, its structure tensor held in Fortran order, and a random element."""
    J = preset("product:[ball:2,ball:2]")
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((8, 8)))
    c = np.asfortranarray(np.einsum("ia,jb,ijm,mk->abk", Q, Q, J.L.c, Q))
    labels = tuple(f"f{k}" for k in range(8))
    rebased = NormalJAlgebra(LieAlgebraData(8, labels, c), Q.T @ J.j @ Q, Q.T @ J.omega)
    return rebased, _exp_spec(np.random.default_rng(105).uniform(-1, 1, 8), labels)


@pytest.mark.parametrize(
    "domain, phi",
    [
        ("ball:2", "exp:0.7*delta"),
        ("ball:8", "exp:0.5*delta + 0.3*zeta - 0.2*xi1 + 0.4*eta3"),
        ("polydisc:3", "exp:delta1 + zeta2 + zeta3"),
        ("product:[ball:3,ball:2]", "exp:0.3*delta.1 + 0.2*zeta.1 - 0.4*xi1.1 + 0.5*delta.2 + 0.1*eta1.2"),
        pytest.param(*_rebased_product(), id="rebased-product"),
    ],
)
def test_replayed_residuals_equal_recorded(domain, phi):
    """analyze records what its check computes, and verify runs the same
    check on the stored payload: every replayed residual equals the
    recorded one.  A domain given as an object replays from its JSON echo,
    whatever the memory layout of its arrays."""
    cert = json.loads(dump_certificate(analyze(domain, phi)))
    ok, report = verify(cert)
    assert ok, report
    checked = [r for r in report if "residual" in r]
    assert {r["kind"] for r in checked} >= {"jordan_split", "elliptic_reduction", "conjugation_into_S", "fiber_case"}
    assert all(r["residual"] == r["recorded"] for r in checked), checked


def test_exp_20_delta_on_ball2_certifies():
    """On exp(20 delta), diag(e^20, e^20, e^10, e^10, 1) homogenized, the
    split lumps the eigenvalues e^10 and 1 together.  Its unipotent factor
    was then not unipotent (nilpotency residual about 1), and the analysis
    stopped undecided.  The elliptic factor, I, is right, and is all the
    split stores: the element certifies and verifies.  exp(40 delta) is
    still too ill-conditioned to split."""
    cert = json.loads(dump_certificate(analyze("ball:2", "exp:20*delta")))
    assert cert["conclusion"] == "stein_certified", cert["assumptions"][-1]
    assert cert["steps"][0]["payload"] == {"elliptic": np.eye(5).tolist()}
    assert verify(cert)[0]
    with pytest.raises(NotInvertible):
        analyze("ball:2", "exp:40*delta")


# 2 pi TURN is more than 1e-9 turns from every rational angle of
# denominator up to 97: a rotation by it generates a group that is not discrete
TURN = 0.3183098861


def _forged_split_of_a_rotation(name, version):
    """A certificate that concludes stein_certified for the rotation A of
    ball:2's w by 2 pi TURN, which is not_applicable, through a
    jordan_split e that leaves phi' = e^-1 A in the split solvable group:

    - ``non-semisimple``: phi' is the translation of re z by 0.7, which
      commutes with A, so e has a unit-modulus spectrum and commutes with A
      but is not semisimple;
    - ``tiny-rotation``: phi' is the rotation by 1e-6, which the identity
      of S matches within what conjugation_into_S accepts;
    - ``conditioned-rotation``: phi' is the rotation by 7e-5 of the
      (re z, 1) plane in the basis diag(1, 1e-4).  It reads as the
      translation of re z by 0.7, its last row is 7e-9 from affine, and e,
      elliptic in the same basis, has powers of norm up to about 1e4.

    Version 1 stores phi' as the unipotent factor, with h = I; the steps
    after the split are the ones the walk builds for phi'."""
    M = build_model(preset("ball:2"))
    phi = rotation_phi(2 * np.pi * TURN)
    if name == "non-semisimple":
        x_minus = np.array([0.7, 0.0, 0.0])
        g = group_element(M, x_minus, np.zeros(1))
        phi_prime = analyzer._homogenize(g.affine_matrix, g.affine_offset)
    elif name == "conditioned-rotation":
        x_minus = np.array([0.7, 0.0, 0.0])
        P, eps = np.diag([1.0, 1e-4]), np.arcsin(0.7e-4)
        rotation = np.array([[np.cos(eps), np.sin(eps)], [-np.sin(eps), np.cos(eps)]])
        phi_prime = np.eye(5)
        phi_prime[np.ix_([0, 4], [0, 4])] = P @ rotation @ np.linalg.inv(P)
    else:
        x_minus = np.zeros(3)
        phi_prime = analyzer._homogenize(np.asarray(rotation_phi(1e-6)["linear"]), np.zeros(4))
    e = analyzer._homogenize(np.asarray(phi["linear"]), np.zeros(4)) @ np.linalg.inv(phi_prime)
    F = Tower(M)[1]
    y = element_log(M, x_minus, np.zeros(1))
    payloads = [
        ("jordan_split", {"elliptic": e} if version == 2 else {"elliptic": e, "hyperbolic": np.eye(5), "unipotent": phi_prime}),
        ("discreteness", {"kind": "infinite_discrete", "order": None}),
        ("elliptic_reduction", {}),
        ("conjugation_into_S", {"x_minus": x_minus, "x_zero": np.zeros(1)}),
        ("fiber_case", analyzer._fiber_payload(F.fiber_model, np.linalg.solve(F.fiber_model.basis, y[F.ideal]))),
    ]
    steps = [
        {"kind": kind, "citation": analyzer.CITATIONS[kind], "payload": payload, "residual": 0.0, "level": int(kind == "fiber_case")}
        for kind, payload in payloads
    ]
    cert = {"version": version, "domain": "ball:2", "phi": phi, "seed": 42, "steps": steps, "assumptions": [], "conclusion": "stein_certified"}
    return json.loads(dump_certificate(cert))


@pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
@pytest.mark.parametrize(
    "name, detail",
    [
        ("non-semisimple", "the powers of the elliptic factor grow to "),
        ("tiny-rotation", "phi' is 1.00e-06 from the identity, within the 1e-05 conjugation_into_S accepts"),
        ("conditioned-rotation", "the powers of phi' stay bounded: it is elliptic"),
    ],
    ids=["non-semisimple", "tiny-rotation", "conditioned-rotation"],
)
def test_forged_jordan_split_of_a_rotation_fails(name, detail, version):
    """The first two forgeries verified while the elliptic factor was held
    to semisimplicity only on the finite and indiscrete paths, and while a
    phi' 1e-8 n from I was nontrivial enough to conclude; the third while
    the powers of phi' were not tested.  The split
    itself replays; discreteness now rejects it."""
    assert analyze("ball:2", rotation_phi(2 * np.pi * TURN))["conclusion"] == "not_applicable"
    ok, report = verify(_forged_split_of_a_rotation(name, version))
    assert not ok
    assert report[0]["kind"] == "jordan_split" and report[0]["ok"], report[0]
    assert report[1]["kind"] == "discreteness" and report[1]["detail"].startswith(detail), report[1]


def test_element_within_the_conjugation_tolerance_of_the_identity_is_undecided():
    """exp(1e-7 zeta) is a translation by 1e-7, nontrivial to the Jordan
    split but matched by the identity of S: it stops undecided at
    discreteness, with the reason, and the certificate verifies."""
    cert = analyze("ball:2", "exp:1e-7*zeta")
    assert cert["conclusion"] == "undecided"
    assert [s["kind"] for s in cert["steps"]] == ["jordan_split"]
    assert cert["assumptions"][-1] == (
        "the discreteness of the cyclic group is not established "
        "(phi' is 1.00e-07 from the identity, within the 1e-05 conjugation_into_S accepts)"
    )
    assert verify(json.loads(dump_certificate(cert)))[0]


def test_version_one_jordan_split_is_read():
    """A version-1 certificate stores all three factors.  It verifies when
    h u is the phi' that the elliptic factor leaves, and fails at the split
    when a factor is forged.  A version-2 split with any key besides
    ``elliptic`` fails, and an unknown version is malformed."""
    phi = rotation_phi(1.0, dilation=0.25)
    cert = json.loads(dump_certificate(analyze("ball:2", phi)))
    parts = jordan_decompose(analyzer._homogenize(np.asarray(phi["linear"]), np.zeros(4)))
    old = copy.deepcopy(cert)
    old["version"] = 1
    old["steps"][0]["payload"].update(hyperbolic=parts.hyperbolic.tolist(), unipotent=parts.unipotent.tolist())
    assert verify(old)[0]
    old["steps"][0]["payload"]["unipotent"][0][1] += 1e-6
    ok, report = verify(old)
    assert not ok and report[0]["kind"] == "jordan_split" and report[0]["detail"].startswith("residual ")

    cert["steps"][0]["payload"]["hyperbolic"] = parts.hyperbolic.tolist()
    ok, report = verify(cert)
    assert not ok
    assert report[0]["detail"] == "a version-2 jordan_split stores ['elliptic'], not ['elliptic', 'hyperbolic']"
    cert["version"] = 3
    with pytest.raises(MalformedCertificate, match="version 3"):
        verify(cert)


def test_ball8_certificate_is_small():
    """A ball:8 exp: certificate stores one 17 x 17 Jordan factor, I, and
    takes under 8 kB; with all three factors it took about 16 kB."""
    labels = preset("ball:8").L.basis_labels
    for k in range(4):
        text = dump_certificate(analyze("ball:8", _exp_spec(np.random.default_rng(k).uniform(-1, 1, 16), labels)))
        assert len(text.encode()) < 8000, (k, len(text))


def _shear_phi(t=0.5):
    """re z gains t im z on ball:2: the map keeps im z and w, so it
    preserves the domain, but it is not holomorphic, and no element of the
    split solvable group acts as it does."""
    lin = np.eye(4)
    lin[0, 1] = t
    return {"linear": lin.tolist(), "translation": [0.0] * 4}


def test_failed_conjugation_is_omitted():
    """The shear's affine mismatch is 0.5 relative to its scale: no
    conjugation step is recorded, the reason is, and the undecided
    certificate verifies.  (exp(15 delta1) on polydisc:2 failed here by
    1.1e-3 against an absolute bound; it now certifies, see
    test_conjugation_check_is_relative_to_scale.)"""
    cert = analyze("ball:2", _shear_phi())
    assert cert["conclusion"] == "undecided"
    assert [s["kind"] for s in cert["steps"]] == ["jordan_split", "discreteness", "elliptic_reduction"]
    assert "general conjugation is not implemented" in cert["assumptions"][-1]
    assert "(residual 5.00e-01 exceeds 1e-06)" in cert["assumptions"][-1]
    assert verify(cert)[0]


@pytest.mark.parametrize(
    "domain, phi",
    [
        ("polydisc:2", "exp:15*delta1"),
        ("sym2", "exp:2.678153745025*h1 - 0.313168259620*e - 1.360624267794*h2 + 2.352029795685*a11 + 0.477844982976*a12 + 0.403219916449*a22"),
    ],
    ids=["polydisc-15-delta1", "sym2-tube"],
)
def test_conjugation_check_is_relative_to_scale(domain, phi, sym2_tube):
    """Each row of the conjugation residual is relative to max(1, the
    largest entry of that row of phi'), and the orbit solve polishes its
    cone witness entry by entry: these affine maps have entries up to 3.3e6
    and 212, and matched their elements to 1.1e-3 and 2.9e-6 absolute, so
    they stopped undecided at conjugation_into_S.  Now both certify and
    verify, the tube through a fiber at level 2.  A forged x_zero still
    fails, in the large-scale coordinate and in the small one, where one
    scale for the whole map (e^15 on polydisc:2) would hide a shift of 3."""
    cert = json.loads(dump_certificate(analyze(sym2_tube() if domain == "sym2" else domain, phi)))
    assert cert["conclusion"] == "stein_certified", cert["assumptions"][-1]
    assert verify(cert)[0]
    conj = next(s for s in cert["steps"] if s["kind"] == "conjugation_into_S")
    assert conj["residual"] < 1e-7
    if domain == "sym2":
        assert [s["level"] for s in cert["steps"] if s["kind"] == "fiber_case"] == [2]
    for k, shift in ((0, 1e-3), (1, 3.0)):
        forged = copy.deepcopy(cert)
        next(s for s in forged["steps"] if s["kind"] == "conjugation_into_S")["payload"]["x_zero"][k] += shift
        ok, report = verify(forged)
        assert not ok
        assert next(r for r in report if not r["ok"])["kind"] == "conjugation_into_S"


PAYLOAD_KEYS = {
    "jordan_split": {"elliptic"},
    "discreteness": {"kind", "order"},
    "finite_case": {"order"},
    "elliptic_reduction": set(),
    "conjugation_into_S": {"x_minus", "x_zero"},
    "tower_descend": {"dim_quotient_algebra"},
    "bundle_quotient": set(),
    "fiber_case": {"subalgebra", "conjugator_x_minus"},
    "base_case": {"dim_complex"},
}


def test_certificate_format():
    """Each step kind stores exactly its witnesses, and verify reads nothing
    else: stray fields (sample points below the cone, a zero sample count,
    a stored phi', a fiber log and fiber dimension as older certificates
    stored them, here wrong) change neither its verdict nor its
    residuals."""
    inputs = [
        ("ball:2", "exp:0.7*delta"),
        ("polydisc:2", "exp:delta1 + zeta2"),
        ("ball:2", rotation_phi(2 * np.pi / 3)),
        ("ball:2", rotation_phi(1.0)),
        ("ball:2", rotation_phi(1.0, dilation=0.25)),
    ]
    stray = {
        "fiber_case": {"sample_points": [[0.0, -5.0, 0.0, 0.0]] * 50, "log_in_fiber": [0.0, 7.0, 0.0, 0.0], "fiber_dim": 99},
        "tower_descend": {"equivariance_samples": 0},
        "elliptic_reduction": {"phi_prime_linear": np.eye(4).tolist()},
    }
    seen = set()
    for domain, phi in inputs:
        cert = json.loads(dump_certificate(analyze(domain, phi)))
        for step in cert["steps"]:
            assert set(step["payload"]) == PAYLOAD_KEYS[step["kind"]], step["kind"]
            seen.add(step["kind"])
        verdict, report = verify(cert)
        for step in cert["steps"]:
            step["payload"].update(stray.get(step["kind"], {}))
        assert verify(cert) == (verdict, report)
    assert seen == set(PAYLOAD_KEYS)


def test_stored_subalgebra_is_canonical():
    """The totally-real subalgebra is stored in a basis fixed by the
    subspace: moving one input coefficient by one ulp moves it by rounding
    only (an SVD basis moved by 1.3 here)."""
    labels = preset("ball:8").L.basis_labels
    x = np.random.default_rng(0).uniform(-1, 1, 16)
    y = x.copy()
    y[labels.index("xi1")] = np.nextafter(y[labels.index("xi1")], 2.0)
    stored = []
    for coeffs in (x, y):
        cert = analyze("ball:8", _exp_spec(coeffs, labels))
        stored.append(np.asarray(next(s for s in cert["steps"] if s["kind"] == "fiber_case")["payload"]["subalgebra"]))
    assert np.max(np.abs(stored[0] - stored[1])) < 1e-12


def _genuine(domain, phi):
    return json.loads(dump_certificate(analyze(domain, phi)))


@pytest.mark.parametrize(
    "domain, phi, kind, key, value",
    [
        ("ball:2", rotation_phi(2 * np.pi / 5), "finite_case", "order", 7),
        ("polydisc:2", "exp:delta1 + zeta2", "base_case", "dim_complex", 9),
    ],
    ids=["finite-order", "base-dimension"],
)
def test_unchecked_payload_must_match_the_replay(domain, phi, kind, key, value):
    """A step kind with no check stores only what the walk builds from
    checked state, and verify compares the two: a finite order of 7 for a
    rotation by 2 pi / 5, or a disc of complex dimension 9, once verified."""
    cert = _genuine(domain, phi)
    assert verify(cert)[0]
    step = next(s for s in cert["steps"] if s["kind"] == kind)
    step["payload"][key] = value
    ok, report = verify(cert)
    assert not ok
    assert [r["kind"] for r in report if not r["ok"]] == [kind]


def _forgery(name):
    """The forged certificates that verified before verify replayed the
    reduction's walk."""
    if name == "base-case-only":
        cert = _genuine("polydisc:2", "exp:delta1 + zeta2")
        cert["steps"] = [s for s in cert["steps"] if s["kind"] == "base_case"]
    elif name.startswith("relabelled-rotation"):
        cert = _genuine("ball:2", rotation_phi(1.0))
        cert["conclusion"] = "stein_by_citation"
        if name.endswith("certified"):
            cert["conclusion"] = "stein_certified"
            cert["steps"].append({"kind": "base_case", "citation": "", "payload": {"dim_complex": 1}, "level": 1})
    elif name == "finite-cut-to-finite-case":
        cert = _genuine("ball:2", rotation_phi(2 * np.pi / 3))
        cert["steps"] = [s for s in cert["steps"] if s["kind"] == "finite_case"]
    elif name == "descent-deleted":
        cert = _genuine("polydisc:2", "exp:delta1 + zeta2")
        cert["steps"] = [s for s in cert["steps"] if s["kind"] != "tower_descend"]
    else:
        cert = _genuine("ball:3", "exp:0.5*delta + zeta - 0.3*xi1")
        cert["steps"] = cert["steps"] * 2
    return cert


@pytest.mark.parametrize("turns, order", [((3, 3, 3), 3), ((4, 5, 5), 20)], ids=["order-3", "order-20"])
def test_forged_finite_order_of_a_parabolic_map_fails(turns, order):
    """On ball:4, a map that rotates the complex pairs of w by 2 pi / t for
    each t in ``turns`` and translates re z by 0.7 is parabolic and
    certifies through its fiber.  A forgery that stores the homogenized
    map A as its own elliptic factor (with identity hyperbolic and
    unipotent factors in version 1) passes the split's check, and
    discreteness re-decides the order from it: it verified until
    discreteness also required A^order to be the identity.  Order 20 passes a bound of the
    tolerance times |A|^order, since |A| is about 3."""
    lin, off = np.eye(8), np.zeros(8)
    for (re, im), t in zip(((2, 5), (3, 6), (4, 7)), turns):  # ball:4's half block is one block of three pairs
        c, s = np.cos(2 * np.pi / t), np.sin(2 * np.pi / t)
        lin[re, re], lin[re, im], lin[im, re], lin[im, im] = c, -s, s, c
    off[0] = 0.7
    cert = _genuine("ball:4", {"linear": lin.tolist(), "translation": off.tolist()})
    assert cert["conclusion"] == "stein_certified"
    assert "fiber_case" in [s["kind"] for s in cert["steps"]]
    A = analyzer._homogenize(lin, off)
    loose = analyzer.STEP_TOL["jordan_split"] * np.linalg.norm(A) ** order
    assert (0.7 * order <= loose) == (order == 20)  # |A^order - I| is 0.7 order

    def step(kind, payload):
        return {"kind": kind, "citation": analyzer.CITATIONS[kind], "payload": payload, "residual": 0.0, "level": 0}

    cert["steps"] = [
        step("jordan_split", {"elliptic": A.tolist()}),
        step("discreteness", {"kind": "finite", "order": order}),
        step("finite_case", {"order": order}),
    ]
    cert["conclusion"] = "stein_by_citation"
    ok, report = verify(cert)
    assert not ok
    assert [r["ok"] for r in report] == [True, False, False]
    assert report[1]["detail"] == f"phi to the power {order} is {0.7 * order:.2e} from the identity"


@pytest.mark.parametrize(
    "angle, kind, conclusion",
    [(1.0, "indiscrete_closure", "not_applicable"), (2 * np.pi * (1 / 3 + 5e-8), "undecided", "undecided")],
    ids=["indiscrete", "undecided"],
)
def test_forged_elliptic_factor_of_a_parabolic_map_fails(angle, kind, conclusion):
    """On ball:4, a map that rotates each complex pair of w by ``angle`` and
    translates re z by 0.7 is parabolic and certifies through its fiber.
    A forgery that stores the homogenized map A as its own elliptic factor
    (with identity hyperbolic and unipotent factors in version 1) passes
    the split's check, and discreteness re-decides its kind from the angle: it verified
    until discreteness also required the powers of A to stay bounded.  The
    translation grows as 0.7 times the power."""
    lin, off = np.eye(8), np.zeros(8)
    c, s = np.cos(angle), np.sin(angle)
    for re, im in ((2, 5), (3, 6), (4, 7)):  # ball:4's half block is one block of three pairs
        lin[re, re], lin[re, im], lin[im, re], lin[im, im] = c, -s, s, c
    off[0] = 0.7
    cert = _genuine("ball:4", {"linear": lin.tolist(), "translation": off.tolist()})
    assert cert["conclusion"] == "stein_certified"
    A = analyzer._homogenize(lin, off)

    def step(kind, payload):
        return {"kind": kind, "citation": analyzer.CITATIONS[kind], "payload": payload, "residual": 0.0, "level": 0}

    cert["steps"] = [
        step("jordan_split", {"elliptic": A.tolist()}),
        step("discreteness", {"kind": kind, "order": None}),
    ]
    cert["conclusion"] = conclusion
    ok, report = verify(cert)
    assert not ok
    assert [r["ok"] for r in report] == [True, False]
    assert report[1]["detail"].startswith("the powers of phi grow to ")


# each forgery, with the kind and detail of its first failing entry
FORGERIES = {
    "base-case-only": ("base_case", "the replay expects jordan_split at level 0 here"),
    "relabelled-rotation": ("conclusion", "concludes stein_by_citation, the replay not_applicable"),
    "relabelled-rotation-certified": ("base_case", "not reached by the replay"),
    "finite-cut-to-finite-case": ("finite_case", "the replay expects jordan_split at level 0 here"),
    "descent-deleted": ("bundle_quotient", "the replay expects tower_descend at level 1 here"),
    "steps-listed-twice": ("jordan_split", "not reached by the replay"),
}


@pytest.mark.parametrize("name", list(FORGERIES))
def test_forged_step_list_fails(name):
    """Each forgery fails, first at the entry where the replayed walk and
    the stored steps part."""
    ok, report = verify(_forgery(name))
    assert not ok
    first = next(r for r in report if not r["ok"])
    kind, detail = FORGERIES[name]
    assert first["kind"] == kind and detail in first["detail"]


MUTATION_INPUTS = {
    "ball:3": ("ball:3", "exp:0.5*delta + zeta - 0.3*xi1"),
    "polydisc:2": ("polydisc:2", "exp:delta1 + zeta2"),
    "finite-rotation": ("ball:2", rotation_phi(2 * np.pi / 3)),
    "irrational-rotation": ("ball:2", rotation_phi(1.0)),
    "undecided": ("ball:2", _shear_phi()),
}
CONCLUSIONS = ("stein_certified", "stein_by_citation", "not_applicable", "undecided")


def _mutations(cert):
    steps = cert["steps"]
    for k in range(len(steps)):
        yield f"drop {k}", steps[:k] + steps[k + 1:], cert["conclusion"]
        yield f"duplicate {k}", steps[: k + 1] + steps[k:], cert["conclusion"]
    for k in range(len(steps) - 1):
        yield f"swap {k}", steps[:k] + [steps[k + 1], steps[k]] + steps[k + 2:], cert["conclusion"]
    for conclusion in CONCLUSIONS:
        if conclusion != cert["conclusion"]:
            yield f"relabel {conclusion}", steps, conclusion


@pytest.mark.parametrize("name", list(MUTATION_INPUTS))
def test_mutated_step_lists_fail(name):
    """Every single mutation of a genuine certificate's step list or
    conclusion fails verify: dropping, duplicating or swapping adjacent
    steps, or relabelling the conclusion.  Truncating an undecided
    certificate is the one exception: it still claims nothing."""
    cert = _genuine(*MUTATION_INPUTS[name])
    assert verify(cert)[0]
    for label, steps, conclusion in _mutations(cert):
        truncated = steps == cert["steps"][: len(steps)]
        ok, _ = verify(dict(cert, steps=steps, conclusion=conclusion))
        assert ok == (truncated and conclusion == cert["conclusion"] == "undecided"), label
