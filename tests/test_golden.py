"""Golden certificates: four certificates written by ``hdq`` and kept
under ``tests/golden``, so that drift across versions shows.  Each must verify, and ``analyze`` on its input must reproduce it
field by field, every number within 1e-10 max(1, |value|).  The one
exception is the ``residual`` of a ``conjugation_into_S`` step, which may
also read lower than stored: each of its rows is now relative to
max(1, the largest entry of that row of phi').

- ``ball3_exp_fiber``: an ``exp:`` element of ball:3 with a frame
  coefficient, so the fiber case takes the conjugation branch;
- ``polydisc3_exp_tower``: an ``exp:`` element of polydisc:3 that
  descends two levels before its fiber case;
- ``ball4_affine_rotation_dilation``: an ``affine:`` map of ball:4 that
  rotates each complex pair of w, dilates, and translates re z;
- ``sym2_exp_fiber``: an ``exp:`` element of the level-1 ideal of the
  tube over Sym+(2), whose fiber pairing basis swaps two coordinates of
  the ideal, so the ``subalgebra`` witness shows its frame.

Superseded certificates are kept under ``golden/previous`` and must still
verify.  The five of format version 1 store all three Jordan factors,
under the same names; version 2 stores only the elliptic one.
``polydisc3_exp_tower_closed_form`` is the version-1 polydisc:3
certificate whose ``x_zero`` is the closed-form orbit solve on the
orthant cone (-0.25 to rounding), and ``polydisc3_exp_tower`` the one
before it, whose Gauss-Newton stopped at -0.2499999981.
``sym2_exp_fiber_gauss_newton`` is the version-2 Sym+(2) certificate
whose ``x_zero`` an iterative cone solve left 2.3e-10 from the exact
triangular-decomposition witness that ``sym2_exp_fiber`` now stores.
"""

import json
from pathlib import Path

import pytest

from hdq.analyzer import analyze, dump_certificate, load_certificate, verify
from hdq.jalgebra import j_algebra_from_dict

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))
PREVIOUS = sorted((Path(__file__).parent / "golden" / "previous").glob("*.json"))


def _compare(stored, fresh, where):
    if isinstance(stored, dict):
        assert isinstance(fresh, dict) and set(stored) == set(fresh), where
        for key in stored:
            if key == "residual" and stored.get("kind") == "conjugation_into_S":
                assert fresh[key] <= stored[key] + 1e-10 * max(1.0, abs(stored[key])), (where, stored[key], fresh[key])
            else:
                _compare(stored[key], fresh[key], f"{where}.{key}")
    elif isinstance(stored, list):
        assert isinstance(fresh, list) and len(stored) == len(fresh), where
        for k, (a, b) in enumerate(zip(stored, fresh)):
            _compare(a, b, f"{where}[{k}]")
    elif isinstance(stored, (int, float)) and not isinstance(stored, bool):
        assert abs(fresh - stored) <= 1e-10 * max(1.0, abs(stored)), (where, stored, fresh)
    else:
        assert stored == fresh, where


def test_four_golden_certificates():
    assert [p.stem for p in GOLDEN] == [
        "ball3_exp_fiber", "ball4_affine_rotation_dilation", "polydisc3_exp_tower", "sym2_exp_fiber"
    ]
    assert [p.stem for p in PREVIOUS] == [
        "ball3_exp_fiber", "ball4_affine_rotation_dilation", "polydisc3_exp_tower",
        "polydisc3_exp_tower_closed_form", "sym2_exp_fiber", "sym2_exp_fiber_gauss_newton",
    ]
    assert [load_certificate(p)["version"] for p in GOLDEN] == [2] * 4
    assert [load_certificate(p)["version"] for p in PREVIOUS] == [1] * 5 + [2]


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_certificate_verifies_and_is_reproduced(path):
    cert = load_certificate(path)
    ok, report = verify(cert)
    assert ok, report
    domain = cert["domain"]
    if isinstance(domain, dict):
        domain = j_algebra_from_dict(domain)
    fresh = json.loads(dump_certificate(analyze(domain, cert["phi"], cert["seed"])))
    _compare(cert, fresh, path.stem)


@pytest.mark.parametrize("path", PREVIOUS, ids=lambda p: p.stem)
def test_previous_golden_certificate_verifies(path):
    """A certificate an earlier version wrote, superseded in ``golden``,
    still verifies: its witnesses are within every check's tolerance."""
    ok, report = verify(load_certificate(path))
    assert ok, report
