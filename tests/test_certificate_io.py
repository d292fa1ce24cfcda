"""``analyzer.dump_certificate`` writes ``json.dumps(cert, sort_keys=True,
separators=(",", ":"), default=ndarray.tolist) + "\\n"``: one line that
holds what the indented layout of earlier versions held, number for number.
The golden files, written in that layout, load to the object the writer
writes back.  The domain echo, ``lie_core.algebra_to_dict``, matches the
loop it replaced."""

import json
from pathlib import Path

import numpy as np
import pytest

from hdq.analyzer import analyze, dump_certificate
from hdq.jalgebra import preset
from hdq.lie_core import LieAlgebraData, algebra_to_dict

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=lambda a: a.tolist()) + "\n"


def _indented(obj) -> str:
    """The layout certificates had before they were written compact."""
    return json.dumps(obj, sort_keys=True, indent=2, default=lambda a: a.tolist()) + "\n"


def _content(text: str) -> str:
    """What a JSON text parses to, as a string that tells -0.0 from 0.0 and
    1 from 1.0, and that matches NaN with NaN."""
    return repr(json.loads(text))


def _one_line(text: str) -> bool:
    return text.endswith("\n") and "\n" not in text[:-1]


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_files_are_written_back_byte_for_byte(path):
    """Each golden file, indented, parses to the object whose compact dump
    ``dump_certificate`` returns; that dump parses back to the same object."""
    text = path.read_text()
    written = dump_certificate(json.loads(text))
    assert written == _compact(json.loads(text)) and _one_line(written)
    assert _content(written) == _content(text)
    assert dump_certificate(json.loads(written)) == written


def _rotation(tmp_path):
    """An ``affine:`` file on ball:4: each complex pair of w rotated by 1 rad
    and re z translated by 0.7."""
    lin, off = np.eye(8), np.zeros(8)
    for re, im in ((2, 5), (3, 6), (4, 7)):
        lin[re, re], lin[re, im], lin[im, re], lin[im, im] = np.cos(1.0), -np.sin(1.0), np.sin(1.0), np.cos(1.0)
    off[0] = 0.7
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"linear": lin.tolist(), "translation": off.tolist()}))
    return f"affine:{path}"


@pytest.mark.parametrize("kind", ["ball-fiber", "polydisc-tower", "affine-file", "affine-mapping"])
def test_workload_certificates_match_the_stdlib(kind, tmp_path):
    """One certificate of each workload's kind, the arrays still ndarrays:
    an ``exp:`` element of ball:8, one of polydisc:6 over an algebra given as
    a mapping (echoed with its nested structure constants), and an affine
    map from a file and as a mapping, whose ``phi`` is nested lists."""
    if kind == "ball-fiber":
        cert = analyze("ball:8", "exp:0.3*delta + 0.2*xi1 - 0.4*eta2 + 0.1*zeta")
    elif kind == "polydisc-tower":
        cert = analyze(preset("polydisc:6"), "exp:0.5*delta1 - 0.2*zeta2 + 0.7*delta3 + 0.1*zeta6")
    else:
        phi = _rotation(tmp_path)
        cert = analyze("ball:4", phi if kind == "affine-file" else json.loads(Path(phi[7:]).read_text()))
        assert isinstance(cert["phi"], dict)
    assert any(isinstance(v, np.ndarray) for s in cert["steps"] for v in s["payload"].values())
    text = dump_certificate(cert)
    assert text == _compact(cert)
    assert json.loads(text) == json.loads(_indented(cert))


EDGE_CASES = {
    "empty-list": [],
    "empty-row": [[]],
    "empty-dict": {},
    "ragged-rows": [[1.0, 2.0], [3.0]],
    "bools-and-none-among-numbers": [1.0, True, None, 2, False],
    "bool-row": [[True, False], [1, 0]],
    "nan-and-infinities": [float("nan"), float("inf"), -float("inf"), 1.5],
    "negative-zero": [[-0.0, 0.0], [0.0, -0.0]],
    "extremes": [5e-324, 1.7976931348623157e308, 1e16, 1e-5, 2**62],
    "big-int": [2**70, 1],
    "0-d-array": np.array(3.25),
    "3-d-array": np.arange(24.0).reshape(2, 3, 4) - 11.5,
    "3-d-int-array": np.arange(8).reshape(2, 2, 2),
    "empty-axis-array": np.zeros((2, 0)),
    "list-of-arrays": [np.arange(3.0), np.ones(3)],
    "strings-with-json-syntax": ["a,b", "[c]", "x\ny", "é"],
    "nested-mixed": [{"b": [1, [2, 3]], "a": None}, [[["s"]]], [[1.0, 2.0], [3.0, 4.0]]],
    "non-string-keys": {2: [1, 2], 1: "x"},
    "scalars": {"t": True, "n": None, "f": -0.0, "i": 7, "s": "str"},
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_the_stdlib(name):
    """Alone, as a value in a mapping, and nested in lists and mappings:
    one line, with the content of the indented layout."""
    obj = EDGE_CASES[name]
    for wrapped in (obj, {"value": obj}, [obj, {"deeper": [obj]}]):
        text = dump_certificate(wrapped)
        assert _one_line(text) and _content(text) == _content(_indented(wrapped))


SCALARS = [True, False, 0, -7, 2**70, -0.0, 0.1, 1e300, 5e-324, float("nan"), float("inf"), -float("inf"), None, "s",
           np.float64(-0.0), np.float64(2.5), np.int64(3), np.bool_(True)]


def _nested(obj, level):
    """obj at nesting ``level``, alternately inside a list and a mapping."""
    for k in range(level):
        obj = [obj, 1] if k % 2 else {"b": obj, "a": [1.5]}
    return obj


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_scalars_match_the_stdlib_at_each_level(level):
    """Each scalar alone at nesting 0 to 3, and all of them in one list and
    one mapping there, numpy scalars too: the indented layout's content."""
    for x in SCALARS:
        text = dump_certificate(_nested(x, level))
        assert _content(text) == _content(_indented(_nested(x, level))), x
    for obj in (list(SCALARS), {f"k{i:02d}": x for i, x in enumerate(SCALARS)}, {}, {"e": {}, "l": []}):
        text = dump_certificate(_nested(obj, level))
        assert _one_line(text) and _content(text) == _content(_indented(_nested(obj, level)))


def _loop_algebra_to_dict(L):
    """The former echo of the structure constants: a loop over the pairs
    i < j and the coefficients with abs(c) > 0."""
    brackets = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            coeffs = {L.basis_labels[k]: float(L.c[i, j, k]) for k in range(L.dim) if abs(L.c[i, j, k]) > 0.0}
            if coeffs:
                brackets.append({"i": L.basis_labels[i], "j": L.basis_labels[j], "coeffs": coeffs})
    return {"dim": L.dim, "basis": list(L.basis_labels), "brackets": brackets}


@pytest.mark.parametrize("name", ["ball:3", "ball:8", "polydisc:6", "product:[ball:3,ball:2]", "sym2-tube", "signed-zeros-and-nan"])
def test_algebra_echo_matches_the_loop(name, sym2_tube):
    """``algebra_to_dict`` selects the entries with abs(c) > 0, as the loop
    did, so -0.0 and NaN drop out alike, and echoes the same mapping in
    the same order."""
    if name == "sym2-tube":
        L = sym2_tube().L
    elif name == "signed-zeros-and-nan":
        c = np.random.default_rng(5).standard_normal((5, 5, 5))
        c[np.random.default_rng(6).random((5, 5, 5)) < 0.4] = 0.0
        c[0, 1, 2], c[1, 2, 3], c[2, 3, 4], c[0, 4, 0] = -0.0, np.nan, -0.0, 1e-300
        c[1, 0, 2] = c[3, 2, 4] = 0.0  # so that the antisymmetrized entries stay -0.0
        L = LieAlgebraData(5, tuple("abcde"), c)
        assert np.isnan(L.c[1, 2, 3]) and np.signbit(L.c[2, 3, 4])
    else:
        L = preset(name).L
    fast, loop = algebra_to_dict(L), _loop_algebra_to_dict(L)
    assert json.dumps(fast) == json.dumps(loop)
    assert list(map(type, _flat_values(fast))) == list(map(type, _flat_values(loop)))


def _flat_values(d):
    return [v for b in d["brackets"] for v in b["coeffs"].values()]
