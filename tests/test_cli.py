import json
import subprocess
import sys

import numpy as np
import pytest

from hdq import jalgebra


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hdq.cli", *args],
        capture_output=True,
        text=True,
    )


def test_analyze_certified(tmp_path):
    out = tmp_path / "cert.json"
    res = run_cli("analyze", "--domain", "ball:2", "--phi", "exp:0.7*delta", "--out", str(out))
    assert res.returncode == 0, res.stderr
    cert = json.loads(out.read_text())
    assert cert["conclusion"] == "stein_certified"


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


def test_verify_roundtrip_and_tamper(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli("analyze", "--domain", "polydisc:2", "--phi", "exp:delta1 + zeta2", "--out", str(out)).returncode == 0
    res = run_cli("verify", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "verifies" in res.stdout

    cert = json.loads(out.read_text())
    for s in cert["steps"]:
        if s["kind"] == "fiber_case":
            s["payload"]["subalgebra"] = [row[:0] for row in s["payload"]["subalgebra"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    res = run_cli("verify", str(bad))
    assert res.returncode == 1
    assert "FAILS" in res.stdout


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
