import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hdq import cli, jalgebra, lie_core
from hdq.lie_core import span


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


def test_consecutive_main_calls_get_independent_namespaces(monkeypatch):
    """The parser is built once; each ``main`` call parses into a fresh
    namespace, so no option leaks from one call into the next."""
    seen = []
    for name in ("cmd_fibration", "cmd_validate", "cmd_ball"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or cli.EXIT_OK)
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["ball", "check-totally-real", "--n", "3", "--xi", "1,0,0,0,0,0"]) == 0
    assert cli.main(["validate", "algebra.json"]) == 0
    assert cli.main(["fibration", "--domain", "polydisc:2"]) == 0
    assert cli.main(["ball", "check-totally-real", "--n", "2", "--xi", "1,0,0,0"]) == 0
    assert [vars(a) for a in seen] == [
        {"command": "ball", "ball_command": "check-totally-real", "n": 3, "xi": "1,0,0,0,0,0"},
        {"command": "validate", "file": "algebra.json"},
        {"command": "fibration", "domain": "polydisc:2"},
        {"command": "ball", "ball_command": "check-totally-real", "n": 2, "xi": "1,0,0,0"},
    ]
    assert len({id(a) for a in seen}) == 4


def test_fibration_refuses_an_invalid_domain(tmp_path, capsys):
    """``hdq fibration`` validates its domain as ``analyze`` does: ball:2
    with the [delta, zeta] bracket off by a relative 1e-6 fails the Jacobi
    identity and exits 4, where it once printed a tower of depth 1."""
    data = jalgebra.j_algebra_to_dict(jalgebra.preset("ball:2"))
    bracket = next(b for b in data["brackets"] if (b["i"], b["j"]) == ("delta", "zeta"))
    bracket["coeffs"]["zeta"] *= 1.0 + 1e-6
    domain = tmp_path / "ball2.json"
    domain.write_text(json.dumps(data))
    assert cli.main(["validate", str(domain)]) == cli.EXIT_INPUT
    capsys.readouterr()
    assert cli.main(["fibration", "--domain", str(domain)]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: domain fails validation: jacobi defect")


def test_fibration_tower():
    res = run_cli("fibration", "--domain", "polydisc:3")
    assert res.returncode == 0, res.stderr
    assert "tower depth 3" in res.stdout
    assert res.stdout.count("step") == 3


def test_verify_validate_and_fibration_load_no_scipy(tmp_path):
    """No command reads scipy: one interpreter that analyzes an ``exp:``
    element and an ``affine:`` rotation, splits a matrix, replays a
    certificate, validates a file and prints a tower never imports it."""
    golden = os.path.join(os.path.dirname(__file__), "golden")
    good = tmp_path / "b2.jalg.json"
    good.write_text(json.dumps(jalgebra.j_algebra_to_dict(jalgebra.ball_jalgebra(2))))
    affine = tmp_path / "rotation.json"
    with open(os.path.join(golden, "ball4_affine_rotation_dilation.json")) as fh:
        affine.write_text(json.dumps(json.load(fh)["phi"]))
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]]))
    calls = [
        ["analyze", "--domain", "ball:3", "--phi", "exp:0.5*delta + zeta - 0.3*xi1", "--out", str(tmp_path / "exp.json")],
        ["analyze", "--domain", "ball:4", "--phi", f"affine:{affine}", "--out", str(tmp_path / "affine.json")],
        ["jordan", "--matrix", str(matrix)],
        ["verify", os.path.join(golden, "ball3_exp_fiber.json")],
        ["validate", str(good)],
        ["fibration", "--domain", "polydisc:3"],
    ]
    code = f"import sys\nfrom hdq import cli\ncodes = [cli.main(a) for a in {calls!r}]\nprint(codes, 'scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"


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
    assert "totally-real determinant |det [U | jU]| of the half part U: 1.000000e+00" in res.stdout


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


# {dir}: a directory; {bad}: the bytes \xff\xfe; {three}: the JSON 3;
# {ragged}: [[1, 2], [3]]; {brackets}, {coeffs}, {coeff}: an algebra whose
# "brackets" is 7, whose "coeffs" is 5, and whose coefficient is "x"
MALFORMED_ALGEBRAS = {
    "brackets": 7,
    "coeffs": [{"i": "a", "j": "b", "coeffs": 5}],
    "coeff": [{"i": "a", "j": "b", "coeffs": {"a": "x"}}],
}
BAD_INPUT = [
    "verify {dir}",
    "validate {dir}",
    "analyze --domain ball:2 --phi affine:{dir}",
    "verify {bad}",
    "validate {bad}",
    "jordan --matrix {bad}",
    "analyze --domain {bad} --phi exp:delta",
    "fibration --domain {bad}",
    "analyze --domain ball:2 --phi affine:{bad}",
    "jordan --matrix {three}",
    "jordan --matrix {ragged}",
    "validate {three}",
    "analyze --domain ball:2 --phi exp:0.5*delta --seed -20",
    "ball check-totally-real --n 2 --xi 1,0,x,0",
    "analyze --domain ball:2 --phi exp:0.7*delta --out {dir}",
    *(f"{cmd} {{{name}}}" for name in MALFORMED_ALGEBRAS for cmd in ("validate", "analyze --phi exp:a --domain")),
]


@pytest.mark.parametrize("command", BAD_INPUT)
def test_bad_input_is_one_error_line(command, tmp_path, capsys):
    """A directory, a file that is not UTF-8, JSON that is not a square
    matrix or an algebra, an algebra with malformed brackets, a negative
    seed, a coefficient that is not a number and an unwritable ``--out``
    each exit 4 with one ``error:`` line on stderr."""
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe")
    (tmp_path / "three.json").write_text("3")
    (tmp_path / "ragged.json").write_text("[[1, 2], [3]]")
    for name, brackets in MALFORMED_ALGEBRAS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"dim": 2, "basis": ["a", "b"], "brackets": brackets}))
    files = ("bad", "three", "ragged", *MALFORMED_ALGEBRAS)
    argv = command.format(dir=tmp_path, **{k: tmp_path / f"{k}.json" for k in files}).split()
    assert cli.main(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("option", [["--samples", "7"], ["--seed", "3"]], ids=["samples", "seed"])
def test_ball_check_totally_real_takes_no_samples(option, capsys):
    """The check decides from the witness's structure and draws nothing,
    so it has no --samples or --seed to take."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["ball", "check-totally-real", "--n", "2", "--xi", "1,0,0,0", *option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


OVERFLOWING = [("ball:2", "exp:800*delta"), ("polydisc:2", "exp:800*delta1")]


@pytest.mark.parametrize("domain, phi", OVERFLOWING)
def test_overflowing_exp_element_is_input_error(domain, phi):
    res = run_cli("analyze", "--domain", domain, "--phi", phi)
    assert res.returncode == 4, res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert "RuntimeWarning" not in res.stderr


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


# what ``hdq ball check-totally-real`` printed before models kept their
# algebra over their own basis: the subalgebra's basis columns, over the
# preset's coordinates, and the conjugator
_BALL_PARENT_OUTPUT = {
    ("3", "1,0,0.5,0,0,0.25"): (
        [[0.0, -0.621586, 0.744854], [0.894427, 0.0, 0.0], [0.0, -0.767778, -0.640716],
         [-0.447214, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -0.155397, 0.186213]],
        [0.0, 1.0, 0.0, 0.0, 0.5],
    ),
    ("2", "0.3,1,0.5,-0.2"): (
        [[-0.087456, 0.627319], [-0.956957, -0.254074], [-0.270529, 0.605818], [0.058304, -0.418213]],
        [3.3333333333333335, 3.3333333333333335, -1.3333333333333335],
    ),
}


@pytest.mark.parametrize("n, xi", list(_BALL_PARENT_OUTPUT))
def test_ball_check_totally_real_prints_input_coordinates(n, xi, capsys):
    """The printed subalgebra is over the preset's coordinates, like --xi:
    it contains the vector and spans the subspace printed before, to the
    six printed decimals, and the conjugator is the same to 1e-12."""
    assert cli.main(["ball", "check-totally-real", "--n", n, "--xi", xi]) == 0
    lines = capsys.readouterr().out.splitlines()
    end = next(k for k, line in enumerate(lines) if line.startswith("conjugator"))
    printed = np.array([[float(v) for v in line.split()] for line in lines[1:end]])
    conjugator = ast.literal_eval(lines[end].split("=", 1)[1].strip())
    basis, parent_conjugator = _BALL_PARENT_OUTPUT[(n, xi)]
    x = np.array([float(v) for v in xi.split(",")])
    V = span(printed.T, len(x))
    assert lie_core.residual_outside(x, V) < 1e-5
    assert lie_core.subspace_equal(V, span(np.array(basis).T, len(x)), 1e-5)
    np.testing.assert_allclose(conjugator, parent_conjugator, rtol=0, atol=1e-12)
