"""The benchmark tracer (bench/tracing.py) patches ``hdq`` functions by
name, so a rename in ``hdq`` breaks ``bench/run.py --trace 1`` while the
rest of the suite passes.  These tests read the tracer's tables and change
nothing under bench/."""

import importlib
import importlib.util
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
