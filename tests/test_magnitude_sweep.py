"""A slice of the magnitude sweep: ``exp:`` elements at coefficient
scales up to 40.

Ten ``exp:`` elements per cell, the k-th with coefficients
``scale * default_rng(1000 + k).uniform(-1, 1)`` over all basis labels.
Every element must certify, and every certificate, written and read back
as JSON, must verify.  An ``exp:`` element takes no Jordan split and no
orbit solve, so what once stopped these cells, the split's condition-number
cap and its eigenvalue clustering, is off their path; the affine maps of
the same elements still take both.
"""

import json

import numpy as np
import pytest

from conftest import exp_as_affine
from hdq.analyzer import analyze, dump_certificate, verify
from hdq.jalgebra import preset

# (preset, scale): certified elements of ten
CERTIFIED = {
    ("ball:3", 5): 10,
    ("polydisc:3", 5): 10,
    ("product:[ball:2,ball:2]", 5): 10,
    ("ball:3", 8): 10,
    ("polydisc:3", 8): 10,
    ("product:[ball:2,ball:2]", 8): 10,
    ("ball:3", 40): 10,
    ("polydisc:3", 40): 10,
    ("product:[ball:2,ball:2]", 40): 10,
    ("product:[ball:3,ball:2]", 40): 10,
}


def sweep_phi(labels, scale, k) -> str:
    x = scale * np.random.default_rng(1000 + k).uniform(-1.0, 1.0, len(labels))
    return "exp:" + " ".join(f"{'-' if c < 0 else '+'} {abs(c)!r}*{lbl}" for c, lbl in zip(x.tolist(), labels))


@pytest.mark.parametrize("name, scale", sorted(CERTIFIED), ids=lambda v: str(v))
def test_sweep_cell_certifies_and_verifies(name, scale):
    labels = preset(name).L.basis_labels
    certified = 0
    for k in range(10):
        cert = json.loads(dump_certificate(analyze(name, sweep_phi(labels, scale, k))))
        ok, report = verify(cert)
        assert ok, (k, report)
        certified += cert["conclusion"] == "stein_certified"
    assert certified >= CERTIFIED[name, scale]


@pytest.mark.parametrize("name, scale, k", [("product:[ball:2,ball:2]", 12, 4), ("product:[ball:3,ball:2]", 20, 7)])
def test_orthant_orbit_solve_certifies_at_scale(name, scale, k):
    """Two sweep elements, as affine maps, on domains with an abelian
    0-block that once stopped undecided at ``conjugation_into_S``
    (row-relative residual 2.08e-6 and 1.03e-6 against 1e-6): an iterative
    orbit solve stopped at ``CONE_TOL`` relative to the whole point, which
    did not bound the small entries of x_zero.  On the orthant cone each
    pivot is its own coordinate and x_zero is its log, exact to rounding,
    and both certify and verify."""
    phi = exp_as_affine(name, sweep_phi(preset(name).L.basis_labels, scale, k))
    cert = json.loads(dump_certificate(analyze(name, phi)))
    assert cert["conclusion"] == "stein_certified", cert["assumptions"]
    step = next(s for s in cert["steps"] if s["kind"] == "conjugation_into_S")
    assert step["residual"] <= 1e-9
    ok, report = verify(cert)
    assert ok, report
