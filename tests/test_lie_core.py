import json
import re

import numpy as np
import pytest

from hdq import cli, jalgebra, lie_core
from hdq.errors import DimensionMismatch
from hdq.jalgebra import ball_jalgebra
from hdq.lie_core import (
    LieAlgebraData,
    Subspace,
    bracket,
    bracket_table,
    derived_algebra,
    is_solvable,
    max_imag_ad_eigenvalue,
    span,
    validate_algebra,
)


@pytest.fixture(scope="module")
def b2():
    return ball_jalgebra(2).L


def vec(L, **coeffs):
    v = np.zeros(L.dim)
    for lbl, c in coeffs.items():
        v[L.index(lbl)] = c
    return v


def test_bracket_b2_delta_zeta(b2):
    # [delta, zeta] = -zeta
    out = bracket(vec(b2, delta=1), vec(b2, zeta=1), b2)
    np.testing.assert_allclose(out, vec(b2, zeta=-1), atol=1e-14)


def test_bracket_antisymmetry_diagonal(b2):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(b2.dim)
        np.testing.assert_allclose(bracket(x, x, b2), 0, atol=1e-12)


def test_bracket_b2_xi_eta(b2):
    out = bracket(vec(b2, xi1=1), vec(b2, eta1=1), b2)
    np.testing.assert_allclose(out, vec(b2, zeta=4), atol=1e-14)


def test_bracket_dimension_mismatch(b2):
    with pytest.raises(DimensionMismatch):
        bracket(np.zeros(3), np.zeros(b2.dim), b2)


def test_validate_b2(b2):
    rep = validate_algebra(b2)
    assert rep.passed
    assert is_solvable(b2) and max_imag_ad_eigenvalue(b2) <= 1e-8


def test_validate_perturbed_scale_keeps_jacobi(b2):
    # scaling [xi1, eta1] to 4.1 zeta yields an isomorphic algebra:
    # Jacobi still holds and the tensor stays split solvable
    c = np.array(b2.c)
    i, j, z = b2.index("xi1"), b2.index("eta1"), b2.index("zeta")
    c[i, j, z] = 4.1
    c[j, i, z] = -4.1
    L = LieAlgebraData(b2.dim, b2.basis_labels, c)
    rep = validate_algebra(L)
    assert rep.checks["jacobi"]["defect"] < 1e-9
    assert is_solvable(L) and max_imag_ad_eigenvalue(L) <= 1e-8


def test_validate_so3_not_split():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 2, 0] = 1.0
    c[2, 0, 1] = 1.0
    L = LieAlgebraData(3, ("e1", "e2", "e3"), c)
    rep = validate_algebra(L)
    assert rep.checks["jacobi"]["defect"] < 1e-12
    assert not is_solvable(L)
    assert max_imag_ad_eigenvalue(L) > 0.5


def test_validate_cli_reports_split_only_for_plain_algebras(tmp_path, capsys, b2):
    # a plain Lie algebra has no metric, so `hdq validate` samples ad spectra
    path = tmp_path / "b2.alg.json"
    path.write_text(json.dumps(lie_core.algebra_to_dict(b2)))
    assert cli.main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^split\s+True$", out, re.M) and "max_imag_ad_eigenvalue" in out
    # a j-algebra is measured on its structure, with no split flag
    path.write_text(json.dumps(jalgebra.j_algebra_to_dict(ball_jalgebra(2))))
    assert cli.main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^split_solvable\s+defect \S+\s+tol 1e-06\s+ok$", out, re.M)
    assert "max_imag" not in out


def test_derived_algebra_b2(b2):
    der = derived_algebra(b2)
    expected = span(
        [vec(b2, zeta=1), vec(b2, xi1=1), vec(b2, eta1=1)], b2.dim
    )
    assert der.dim == 3
    assert lie_core.subspace_equal(der, expected)


def test_ideal_and_subalgebra_predicates(b2):
    def off_ideal(V):
        brackets = bracket_table(np.eye(b2.dim), V.basis_matrix, b2).reshape(-1, b2.dim)
        return float(np.max(lie_core.residual_outside(brackets, V)))

    zeta_line = span([vec(b2, zeta=1)], b2.dim)
    assert off_ideal(zeta_line) < 1e-12
    v = span([vec(b2, delta=1), vec(b2, xi1=1)], b2.dim)
    assert lie_core.closure_residual(v, b2) < 1e-12
    assert off_ideal(v) > 0.1


def test_jacobi_property_random_triples(b2):
    rng = np.random.default_rng(42)
    for _ in range(50):
        a, b, c = (rng.standard_normal(b2.dim) for _ in range(3))
        res = (
            bracket(a, bracket(b, c, b2), b2)
            + bracket(b, bracket(c, a, b2), b2)
            + bracket(c, bracket(a, b, b2), b2)
        )
        bound = 10 * 1e-9 * np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
        assert np.linalg.norm(res) < max(bound, 1e-12)


def test_subspace_rank_check():
    with pytest.raises(DimensionMismatch):
        Subspace(3, np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]]))


def test_algebra_json_roundtrip(b2):
    L = lie_core.algebra_from_dict(json.loads(json.dumps(lie_core.algebra_to_dict(b2))))
    np.testing.assert_allclose(L.c, b2.c, atol=1e-14)
    assert L.basis_labels == b2.basis_labels
