"""A slice of the magnitude sweep as a guard on the Jordan split.

Ten ``exp:`` elements per cell, the k-th with coefficients
``scale * default_rng(1000 + k).uniform(-1, 1)`` over all basis labels.
Each cell must certify at least as many elements as recorded here (the
counts of the parent commit of the one-Schur Jordan split), and every
certificate, written and read back as JSON, must verify.
"""

import json

import numpy as np
import pytest

from hdq.analyzer import analyze, dump_certificate, verify
from hdq.jalgebra import preset

# (preset, scale): certified elements of ten at least
CERTIFIED = {
    ("ball:3", 5): 10,
    ("polydisc:3", 5): 10,
    ("product:[ball:2,ball:2]", 5): 10,
    ("ball:3", 8): 10,
    ("polydisc:3", 8): 9,
    ("product:[ball:2,ball:2]", 8): 8,
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
    """Two sweep elements on domains with an abelian 0-block that once
    stopped undecided at ``conjugation_into_S`` (row-relative residual
    2.08e-6 and 1.03e-6 against 1e-6): Gauss-Newton stopped its orbit
    solve at ``CONE_TOL`` relative to the whole point, which does not
    bound the small entries of x_zero.  The closed-form orbit solve on
    the orthant cone gives x_zero exactly, and both certify and verify."""
    cert = json.loads(dump_certificate(analyze(name, sweep_phi(preset(name).L.basis_labels, scale, k))))
    assert cert["conclusion"] == "stein_certified", cert["assumptions"]
    step = next(s for s in cert["steps"] if s["kind"] == "conjugation_into_S")
    assert step["residual"] <= 1e-9
    ok, report = verify(cert)
    assert ok, report
