import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hdq import cli, jalgebra


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "hdq.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_analyze_certified(tmp_path):
    out = tmp_path / "cert.json"
    res = run_cli("analyze", "--domain", "ball:2", "--phi", "exp:0.7*delta", "--out", str(out))
    assert res.returncode == 0, res.stderr
    cert = json.loads(out.read_text())
    assert cert["conclusion"] == "stein_certified"


def test_analyze_stderr_is_the_conclusion_alone(tmp_path):
    """A certified polydisc:2 input at coefficient scale 5 prints only its
    conclusion to stderr; a matrix logarithm once added a RuntimeWarning
    in the middle of it."""
    out = tmp_path / "cert.json"
    phi = "exp:3.672733875724*delta1 + 3.929477581908*zeta1 - 3.384876730530*delta2 - 4.732976499137*zeta2"
    res = run_cli("analyze", "--domain", "polydisc:2", "--phi", phi, "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines() == ["conclusion: stein_certified"]
    res = run_cli("verify", str(out))
    assert res.returncode == 0, res.stdout + res.stderr


def test_analyze_not_applicable(tmp_path):
    theta = 1.0
    lin = np.eye(4)
    c, s = np.cos(theta), np.sin(theta)
    lin[2:, 2:] = [[c, -s], [s, c]]
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"linear": lin.tolist(), "translation": [0.0] * 4}))
    res = run_cli("analyze", "--domain", "ball:2", "--phi", f"affine:{phi}")
    assert res.returncode == 2, res.stderr


def test_analyze_input_error():
    res = run_cli("analyze", "--domain", "noSuchPreset", "--phi", "exp:delta")
    assert res.returncode == 4


def test_ambiguous_eigenvalue_clusters_end_undecided(tmp_path):
    """An element whose Jordan split cannot tell two eigenvalue clusters
    apart ends undecided (exit 3) and names them; it once raised
    ClusterAmbiguous and exited 4, as on an input error."""
    out = tmp_path / "cert.json"
    phi = (
        "exp:- 2.860292172405*delta1 - 3.427455895897*zeta1 + 5.942695609637*delta2"
        " - 2.652193941482*zeta2 - 3.908851516811*delta3 + 1.317468708711*zeta3"
    )
    res = run_cli("analyze", "--domain", "polydisc:3", "--phi", phi, "--out", str(out))
    assert res.returncode == 3, res.stderr
    cert = json.loads(out.read_text())
    assert cert["conclusion"] == "undecided"
    assert "eigenvalue clusters at" in cert["assumptions"][-1]
    res = run_cli("verify", str(out))
    assert res.returncode == 0, res.stdout + res.stderr


def test_verify_roundtrip_and_tamper(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli("analyze", "--domain", "polydisc:2", "--phi", "exp:delta1 + zeta2", "--out", str(out)).returncode == 0
    res = run_cli("verify", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.rstrip().endswith("certificate verifies")
    # each checked step shows its replayed residual beside the recorded one
    checked = [line for line in res.stdout.splitlines() if "residual" in line]
    assert [line.split()[2] for line in checked] == [
        "jordan_split", "elliptic_reduction", "conjugation_into_S", "tower_descend", "fiber_case",
    ]
    for line in checked:
        replayed, recorded = line.split("residual ")[1].split(", recorded ")
        assert replayed == recorded

    cert = json.loads(out.read_text())
    for s in cert["steps"]:
        if s["kind"] == "fiber_case":
            s["payload"]["subalgebra"] = [row[:0] for row in s["payload"]["subalgebra"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    res = run_cli("verify", str(bad))
    assert res.returncode == 1
    assert "FAILS" in res.stdout


def test_verify_invalid_domain_exits_1(tmp_path, capsys):
    """A certificate whose domain fails validation fails verify (exit 1),
    with the validation failure as its one entry."""
    domain = tmp_path / "polydisc.json"
    domain.write_text(json.dumps(jalgebra.j_algebra_to_dict(jalgebra.polydisc_jalgebra(2))))
    out = tmp_path / "cert.json"
    assert cli.main(["analyze", "--domain", str(domain), "--phi", "exp:0.5*delta1 - 0.2*delta2", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    cert["domain"]["j"][0][1] += 1e-2
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == cli.EXIT_VERIFY_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "certificate FAILS"
    assert lines[:-1] == ["step -1 domain               FAIL (domain fails validation: j_squared defect 1.00e-02)"]


def test_verify_dropped_step_exits_1(tmp_path, capsys):
    """A certificate with its tower_descend step deleted fails verify
    (exit 1), with a FAIL line naming the step the replay expected."""
    out = tmp_path / "cert.json"
    assert cli.main(["analyze", "--domain", "polydisc:2", "--phi", "exp:delta1 + zeta2", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    cert["steps"] = [s for s in cert["steps"] if s["kind"] != "tower_descend"]
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == cli.EXIT_VERIFY_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "certificate FAILS"
    assert "step  4 bundle_quotient      FAIL (the replay expects tower_descend at level 1 here)" in lines


def test_verify_non_mapping_domain_is_malformed(tmp_path, capsys):
    """A certificate whose domain is neither a preset name nor a mapping is
    malformed (exit 4); it once ended in an AttributeError."""
    out = tmp_path / "cert.json"
    assert cli.main(["analyze", "--domain", "ball:2", "--phi", "exp:0.7*delta", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    cert["domain"] = 5
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    assert cli.main(["verify", str(out)]) == cli.EXIT_INPUT
    assert "domain must be a preset name or a mapping" in capsys.readouterr().err


def test_fibration_tower():
    res = run_cli("fibration", "--domain", "polydisc:3", "--samples", "20")
    assert res.returncode == 0, res.stderr
    assert "tower depth 3" in res.stdout
    assert res.stdout.count("step") == 3


def test_jordan_subcommand(tmp_path):
    m = tmp_path / "m.json"
    m.write_text(json.dumps([[0.0, -2.0], [2.0, 0.0]]))
    res = run_cli("jordan", "--matrix", str(m))
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["classification"] == "mixed"
    np.testing.assert_allclose(np.asarray(data["hyperbolic"]), 2 * np.eye(2), atol=1e-8)


def test_validate_subcommand(tmp_path):
    good = tmp_path / "b2.jalg.json"
    good.write_text(json.dumps(jalgebra.j_algebra_to_dict(jalgebra.ball_jalgebra(2))))
    res = run_cli("validate", str(good))
    assert res.returncode == 0 and "valid" in res.stdout

    data = jalgebra.j_algebra_to_dict(jalgebra.ball_jalgebra(2))
    data["omega"] = [-v for v in data["omega"]]
    bad = tmp_path / "bad.jalg.json"
    bad.write_text(json.dumps(data))
    res = run_cli("validate", str(bad))
    assert res.returncode == 4
    assert "INVALID" in res.stdout


def test_ball_check_totally_real():
    res = run_cli(
        "ball", "check-totally-real", "--n", "3", "--xi", "1,0,0.5,0,0,0.25"
    )
    assert res.returncode == 0, res.stderr
    assert "min |det|" in res.stdout


def test_non_finite_affine_map_is_input_error(tmp_path):
    lin = np.eye(4)
    lin[1, 0] = np.nan  # the imaginary-z row of ball:2
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"linear": lin.tolist(), "translation": [0.0] * 4}))
    res = run_cli("analyze", "--domain", "ball:2", "--phi", f"affine:{phi}")
    assert res.returncode == 4, res.stderr
    assert "non-finite" in res.stderr


def test_missing_file_is_input_error():
    res = run_cli("verify", "/nonexistent/cert.json")
    assert res.returncode == 4


def test_ball_check_totally_real_without_samples_is_input_error():
    res = run_cli(
        "ball", "check-totally-real", "--n", "2", "--xi", "1,0,0,0", "--samples", "0"
    )
    assert res.returncode == 4, res.stderr
    assert "at least one sample point" in res.stderr
    assert "Traceback" not in res.stderr


OVERFLOWING = [("ball:2", "exp:800*delta"), ("polydisc:2", "exp:800*delta1")]


@pytest.mark.parametrize("domain, phi", OVERFLOWING)
def test_overflowing_exp_element_is_input_error(domain, phi):
    res = run_cli("analyze", "--domain", domain, "--phi", phi)
    assert res.returncode == 4, res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


def test_ill_conditioned_matrix_names_its_condition_number(capsys):
    """exp(40 delta) on ball:2 is invertible but too ill-conditioned to
    decompose; the error says so with the condition number, exit code 4."""
    assert cli.main(["analyze", "--domain", "ball:2", "--phi", "exp:40*delta"]) == 4
    err = capsys.readouterr().err
    assert "condition number 2.354e+17 exceeds 1/INVERTIBLE_RTOL = 1e+12" in err
    assert "not invertible" not in err


def test_buffered_stdout_ends_with_the_result(tmp_path, relabelled_polydisc):
    """With stdout a pipe and PYTHONUNBUFFERED unset, nothing a library
    prints to C stdout lands after the result: analyze --out prints nothing,
    and verify's last line is its verdict."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    J, perm, scale = relabelled_polydisc(6, np.random.default_rng([2, 0]))
    domain = tmp_path / "polydisc.json"
    domain.write_text(json.dumps(jalgebra.j_algebra_to_dict(J)))
    on_preset = np.zeros(J.dim)
    on_preset[0::2] = [0.3, 0.5, 0.7, 0.9, -0.4, -0.6]
    on_preset[1::2] = 0.2
    coeffs = on_preset[perm] / scale
    phi = "exp:" + " + ".join(f"{c:.17g}*{lbl}" for c, lbl in zip(coeffs, J.L.basis_labels))
    out = tmp_path / "cert.json"
    res = run_cli("analyze", "--domain", str(domain), "--phi", phi.replace("+ -", "- "), "--out", str(out), env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == ""
    res = run_cli("verify", str(out), env=env)
    assert res.returncode == 0, res.stdout
    assert res.stdout.splitlines()[-1] == "certificate verifies"
    for domain, phi in OVERFLOWING:
        res = run_cli("analyze", "--domain", domain, "--phi", phi, "--out", str(out), env=env)
        assert (res.returncode, res.stdout) == (4, "")
