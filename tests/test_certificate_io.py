"""``analyzer.dump_certificate`` writes the bytes of the stdlib encoding,
``json.dumps(cert, sort_keys=True, indent=2, default=ndarray.tolist) +
"\\n"``, while it encodes each array of numbers with one call of json's C
encoder."""

import json
from pathlib import Path

import numpy as np
import pytest

from hdq.analyzer import analyze, dump_certificate
from hdq.jalgebra import preset

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def _stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=lambda a: a.tolist()) + "\n"


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_files_are_written_back_byte_for_byte(path):
    text = path.read_text()
    assert dump_certificate(json.loads(text)) == _stdlib(json.loads(text)) == text


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
    assert dump_certificate(cert) == _stdlib(cert)


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
    """Alone, as a value in a mapping, and nested in lists and mappings."""
    obj = EDGE_CASES[name]
    for wrapped in (obj, {"value": obj}, [obj, {"deeper": [obj]}]):
        assert dump_certificate(wrapped) == _stdlib(wrapped)
