"""The prepared-domain slot (``analyzer._prepared``): analyze, verify and
``hdq fibration`` validate a domain and build its model and tower once
per distinct content, and a hit gives what a cold build gives."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hdq import analyzer, jalgebra
from hdq.analyzer import analyze, dump_certificate, verify
from hdq.errors import InputError
from hdq.jalgebra import NormalJAlgebra, preset
from hdq.lie_core import LieAlgebraData

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.json"))


@pytest.fixture
def builds(monkeypatch):
    """The algebras ``_prepared`` builds a model for, in order."""
    built = []
    original = analyzer.build_model
    monkeypatch.setattr(analyzer, "build_model", lambda J: built.append(J) or original(J))
    return built


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, loaded under a name of its own."""
    spec = importlib.util.spec_from_file_location("hdq_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def _cold_and_warm(analyze_once, builds):
    """The bytes of one analysis on an empty slot and of the same analysis
    again, which must build no model."""
    analyzer._SLOT = None
    cold = analyze_once()
    count = len(builds)
    warm = analyze_once()
    assert len(builds) == count
    return cold, warm


@pytest.mark.parametrize("name", ["ball-fiber", "polydisc-tower", "affine-elliptic"])
def test_warm_slot_gives_the_cold_certificate_on_the_benchmarks(name, tmp_path, builds, workloads):
    """Operation 0 at seed 1 of each benchmark workload, analyzed as the
    workload analyzes it, writes the same bytes from a warm slot, and the
    warm verify accepts them."""
    workload = workloads.WORKLOADS[name](1, tmp_path)
    op = workload.prepare(0)
    cold, warm = _cold_and_warm(lambda: workload.analyze(op), builds)
    assert cold == warm
    workload.check(op, warm, workload.verify(op, warm))
    assert len(builds) == 1


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_warm_slot_gives_the_cold_certificate_on_the_golden_inputs(path, builds):
    cert = json.loads(path.read_text())
    domain = cert["domain"]
    if isinstance(domain, dict):
        domain = jalgebra.j_algebra_from_dict(domain)
    cold, warm = _cold_and_warm(lambda: dump_certificate(analyze(domain, cert["phi"], cert["seed"])), builds)
    assert cold == warm


def _copy(J, c=None, j=None, omega=None):
    return NormalJAlgebra(
        LieAlgebraData(J.dim, J.L.basis_labels, J.L.c if c is None else c),
        J.j if j is None else j,
        J.omega if omega is None else omega,
    )


def test_slot_is_keyed_on_bits(builds):
    """A copy with the same bits hits; a -0.0 in place of a 0.0 and a
    one-ulp change in c each miss, and so does a relabelled copy."""
    J = preset("ball:2")
    _, M, T = analyzer._prepared(J)
    assert analyzer._prepared(_copy(J, c=J.L.c.copy(), j=J.j.copy(), omega=J.omega.copy()))[1:] == (M, T)
    assert len(builds) == 1

    omega = J.omega.copy()
    zero = np.flatnonzero(omega == 0.0)[0]
    omega[zero] = -0.0
    assert np.array_equal(omega, J.omega)
    c = J.L.c.copy()
    c[0, 1, 1] = np.nextafter(c[0, 1, 1], 0.0)
    c[1, 0, 1] = -c[0, 1, 1]
    relabelled = NormalJAlgebra(LieAlgebraData(J.dim, ("d", "z", "x", "e"), J.L.c), J.j, J.omega)
    for K in (_copy(J, omega=omega), _copy(J, c=c), relabelled):
        invalid, M_K, _ = analyzer._prepared(K)
        assert invalid is None and M_K is not M
        M = M_K
    assert len(builds) == 4


def test_invalid_domain_after_a_prepared_valid_one_fails_validation():
    """verify on a certificate whose domain is the prepared one with j
    changed in one entry fails with its one ``domain`` entry, and a warm
    analyze of the same algebra refuses it."""
    cert = json.loads(dump_certificate(analyze("polydisc:2", "exp:0.5*delta1 - 0.2*delta2")))
    assert verify(cert)[0]
    cert["domain"] = jalgebra.j_algebra_to_dict(preset("polydisc:2"))
    assert verify(cert)[0]
    cert["domain"]["j"][0][1] += 1e-2
    ok, report = verify(cert)
    assert not ok
    assert report == [{"index": -1, "kind": "domain", "ok": False, "detail": "domain fails validation: j_squared defect 1.00e-02"}]
    with pytest.raises(InputError, match="j_squared defect 1.00e-02"):
        analyze(jalgebra.j_algebra_from_dict(cert["domain"]), cert["phi"])


def test_prepared_model_and_tower_are_read_only():
    """Every array a prepared model or tower level shares is read-only."""
    _, M, T = analyzer._prepared(preset("product:[ball:2,ball:2]"))
    F = T[1]
    shared = [M.basis, M.form, M.hb, M.jhalf, M.ad1_gens, M.adh_gens, M.J.L.c, M.J.j, M.J.omega, F.ideal, F.quotient_map]
    shared += [getattr(F.fiber_model, name) for name in ("basis", "form", "hb", "jhalf")]
    for a in shared:
        assert a.size
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_named_preset_is_built_once_per_run_of_its_name(monkeypatch):
    """analyze and verify build a named preset once while it is the last
    name seen: four pairs on ball:8 and then on product:[ball:3,ball:3]
    build each once, and going back to ball:8 builds it again, since one
    entry is kept.  The slot then matches the kept algebra by identity."""
    built = []
    original = jalgebra.preset
    monkeypatch.setattr(jalgebra, "preset", lambda name: built.append(name) or original(name))
    for name, phi in [("ball:8", "exp:0.3*delta + 0.2*xi1"), ("product:[ball:3,ball:3]", "exp:0.4*delta.1 - 0.1*zeta.2")]:
        for k in range(4):
            assert verify(json.loads(dump_certificate(analyze(name, phi))))[0]
        assert built.count(name) == 1
        assert analyzer._SLOT[0][1] is analyzer._preset(name).L.c
    analyze("ball:8", "exp:0.3*delta")
    # a product preset builds its factors by name too
    assert built == ["ball:8", "product:[ball:3,ball:3]", "ball:3", "ball:3", "ball:8"]
