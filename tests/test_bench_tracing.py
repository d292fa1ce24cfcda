"""The benchmark tracer (bench/tracing.py) patches ``hdq`` functions by
name, so a rename in ``hdq`` breaks ``bench/run.py --trace 1`` while the
rest of the suite passes.  These tests read the tracer's tables, or run a short
traced benchmark, and change nothing under bench/."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from hdq.jalgebra import preset

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("hdq_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(tracing):
    missing = [
        f"hdq.{module}.{name}"
        for table in (tracing.TIMED, tracing.COUNTED)
        for module, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hdq.{module}"), name, None))
    ]
    assert not missing


def test_fine_structure_cache_is_where_the_tracer_reads_it(tracing):
    # the tracer counts cache hits by reading this attribute of the algebra
    assert tracing.FINE_STRUCTURE == "jalgebra.fine_structure"
    assert hasattr(preset("ball:1"), "_fine_cache")


def test_traced_tower_measures_the_input_only(monkeypatch):
    """A traced polydisc-tower run of two pairs is correct, and each
    analyze + verify pair computes the fine structure and the Siegel model
    of its input only, once per phase and once inside validation: the tower
    builds every quotient and fiber model from the input's root columns.
    The walk descends by slicing the element's log and pushes nothing
    through ``push_group``."""
    # run.py prepends to sys.path and pins the numeric threads on import
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("hdq_bench_run", TRACING.parent / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    result, lines = module.run("polydisc-tower", 1, 0.0, True, min_ops=2)
    assert result["correct"] and result["failed"] == 0, lines
    metrics = result["metrics"]
    assert metrics["jalgebra.fine_structure_calls"]["value"] <= 4
    assert metrics["siegel.build_model_calls"]["value"] <= 2
    assert metrics["fibration.push_group_calls"]["value"] == 0


def test_traced_affine_screen_is_one_stacked_cone_query(monkeypatch):
    """A traced one-round affine-elliptic run is correct, and each pair
    makes at most two cone queries: the domain screen's 20 points go to
    ``cone_contains`` as one stack, and ``solve_orbit`` adds at most one."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("hdq_bench_run", TRACING.parent / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    result, lines = module.run("affine-elliptic", 1, 0.0, True, min_ops=6)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["metrics"]["siegel.cone_contains_calls"]["value"] <= 2
