"""Per-layer self time and call counts, recorded from outside the program.

The tracer wraps public functions of the ``hdq`` modules.  Modules import
each other's functions by name (``from .siegel import build_model``), so a
wrapper replaces the function under every name that refers to it in every
loaded ``hdq`` module, not only in the module that defines it.  Calls made
through a function-level ``from .lie_core import bracket`` read the
defining module's attribute at call time and are caught the same way.

A timed function records its self time: its wall time minus the wall time
of the timed functions it called.  A counted function records calls only;
its time stays in its caller's self time, which keeps the tracer cheap
around the thousands of ``bracket`` calls one analysis makes.
"""

from __future__ import annotations

import sys
import time

# module -> functions timed as spans
TIMED = {
    "lie_core": ("validate_algebra", "jacobi_defect", "derived_series"),
    "jalgebra": ("validate_j_algebra", "integrability_defect", "fine_structure", "subalgebra"),
    "siegel": ("build_model", "cone_contains", "solve_orbit"),
    "fibration": ("split_last_root", "check_equivariance"),
    "jordan": ("jordan_decompose", "cyclic_discreteness"),
    "ball": ("totally_real_subalgebra_containing", "totally_real_defect"),
    "analyzer": ("resolve_phi", "analyze", "verify"),
    "cli": ("main",),
}
# module -> functions whose calls are counted only
COUNTED = {
    "lie_core": ("bracket",),
    "fibration": ("push_group", "project_point"),
}
FINE_STRUCTURE = "jalgebra.fine_structure"


class Tracer:
    """Accumulates ``self_s[key]``, ``calls[key]`` and fine-structure cache
    hits for keys ``"<module>.<function>"``."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.fine_hits = 0
        self._child = [0.0]  # wall time of timed children, one entry per open span
        self._patched = []

    def _timed(self, key, fn):
        child, self_s, calls = self._child, self.self_s, self.calls
        self_s[key] = 0.0
        calls[key] = 0
        clock = time.perf_counter
        fine = key == FINE_STRUCTURE

        def span(*args, **kwargs):
            if fine and args[0]._fine_cache is not None:
                self.fine_hits += 1
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = clock() - start
                self_s[key] += wall - child.pop()
                child[-1] += wall
                calls[key] += 1

        return span

    def _counted(self, key, fn):
        calls = self.calls
        calls[key] = 0

        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        loaded = [m for name, m in list(sys.modules.items()) if name.startswith("hdq.")]
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module, names in table.items():
                owner = sys.modules[f"hdq.{module}"]
                for name in names:
                    original = getattr(owner, name)
                    wrapper = make(f"{module}.{name}", original)
                    for m in loaded:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        snap = {f"{k}:s": v for k, v in self.self_s.items()}
        snap.update({f"{k}:calls": v for k, v in self.calls.items()})
        snap["fine_hits"] = self.fine_hits
        return snap
