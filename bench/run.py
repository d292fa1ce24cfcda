"""Benchmark of ``hdq analyze`` + ``hdq verify``.

    python3 bench/run.py --workload ball-fiber --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the run measures the end-to-end metrics, untraced; with
``--trace 1`` it wraps the layers (see ``tracing.py``) and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines
above it give the raw (uncalibrated) figures beside the calibrated ones.
"""

from __future__ import annotations

import os

# one numeric thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".hdqbench"
sys.path[:0] = [str(HERE), str(SRC)]

import calib  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_OPS = 48          # completed pairs per run: the tail, ten samples from the top, is the 79th percentile or higher
SETUP_RUNS = 9        # fresh interpreters per run for setup_s

PER_LAYER = (
    "lie_core.validate_algebra_s", "lie_core.validate_algebra_calls", "lie_core.jacobi_defect_s",
    "lie_core.derived_series_s", "lie_core.bracket_calls",
    "jalgebra.validate_j_algebra_s", "jalgebra.integrability_defect_s", "jalgebra.fine_structure_s",
    "jalgebra.fine_structure_calls", "jalgebra.fine_structure_hit_ratio", "jalgebra.subalgebra_s",
    "siegel.build_model_s", "siegel.build_model_calls", "siegel.cone_contains_s",
    "siegel.cone_contains_calls", "siegel.solve_orbit_s",
    "fibration.split_last_root_s", "fibration.split_last_root_calls", "fibration.check_equivariance_s",
    "fibration.push_group_calls", "fibration.project_point_calls",
    "jordan.jordan_decompose_s", "jordan.cyclic_discreteness_s",
    "ball.totally_real_subalgebra_containing_s", "ball.totally_real_defect_s", "ball.totally_real_defect_calls",
    "analyzer.resolve_phi_s", "analyzer.analyze_self_s", "analyzer.verify_self_s", "analyzer.cert_kb",
    "cli.main_self_s",
)


def tail(samples):
    """Highest order statistic with at least ten samples above it, and never
    below the median: under 21 samples it is the upper median."""
    s = sorted(samples)
    return s[max(len(s) - 11, len(s) // 2)]


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(workload, op, tmp, expected_blob):
    """Calibrated time of a fresh ``python -m hdq.cli analyze`` on the first
    input, from spawn to exit; each must write the same bytes.

    Two kernel runs go before the first interpreter and after each one.
    A host that shares its cores only ever slows a run down, so the lower
    quartile of the interpreter times is scaled by the lower quartile of
    the kernel times.  Scaling each sample by its neighbouring kernel runs
    instead adds the kernel's own noise: across 14 samples it raised the
    sample-to-sample variation of setup from 10% to 24%.
    """
    from workloads import expect

    kernels = [calib.kernel_seconds(), calib.kernel_seconds()]
    raw = []
    out = tmp / "setup-cert.json"
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "hdq.cli", *workload.setup_args(op, out)],
            cwd=ROOT, env=program_env(), capture_output=True,
        )
        raw.append(time.perf_counter() - start)
        kernels += [calib.kernel_seconds(), calib.kernel_seconds()]
        if proc.returncode not in (0, 2):
            raise RuntimeError(f"setup analyze exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        expect(out.read_bytes() == expected_blob, "a fresh interpreter wrote different certificate bytes")
    q1_raw = statistics.quantiles(raw, n=4)[0]
    q1_kernel = statistics.quantiles(kernels, n=4)[0]
    return q1_raw * calib.factor(q1_kernel, q1_kernel), q1_raw


def _blob(analyzed):
    return analyzed[1] if isinstance(analyzed, tuple) else analyzed.encode()


def run(workload_name, seed, seconds, trace, min_ops=MIN_OPS):
    """Measure one workload; return (result dict, report lines).  The
    program is imported here, after ``main`` has checked that it exists."""
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmpname:
        tmp = Path(tmpname)
        wl = WORKLOADS[workload_name](seed, tmp)
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        try:
            return _measure(wl, seconds, min_ops, tracer, tmp)
        finally:
            if tracer:
                tracer.uninstall()


def _measure(wl, seconds, min_ops, tracer, tmp):
    from workloads import FAILURES, CheckFailed

    lines = []
    errors = []
    # warm-up on the first input; its certificate is the reference bytes for setup
    op0 = wl.prepare(0)
    first = wl.analyze(op0)
    wl.verify(op0, first)
    try:
        setup = None if tracer else measure_setup(wl, op0, tmp, _blob(first))
    except CheckFailed as exc:
        return _result(False, 1, 0, {}, [f"setup: check failed: {exc}"])

    cal_a, cal_v, raw_a, raw_v, cert_bytes = [], [], [], [], []
    layer = {}
    attempted = failed = 0
    index = 0
    start = time.perf_counter()
    # the kernel run after one operation's verify also stands before the next analyze
    k0 = calib.kernel_seconds()

    def accumulate(before, after, f):
        for key, value in after.items():
            layer[key] = layer.get(key, 0.0) + (value - before[key]) * (f if key.endswith(":s") else 1.0)

    while time.perf_counter() - start < seconds or len(cal_a) < min_ops:
        if attempted >= 2 * min_ops and len(cal_a) < min_ops:
            raise RuntimeError(f"the program refused {failed} of {attempted} operations:\n" + "\n".join(errors[:5]))
        for pos in range(wl.round_size):
            op = wl.prepare(index)
            index += 1
            attempted += 1
            snap0 = tracer.snapshot() if tracer else None
            try:
                t = time.perf_counter()
                analyzed = wl.analyze(op)
                ta = time.perf_counter() - t
                snap1 = tracer.snapshot() if tracer else None
                k1 = calib.kernel_seconds()
                t = time.perf_counter()
                verified = wl.verify(op, analyzed)
                tv = time.perf_counter() - t
                snap2 = tracer.snapshot() if tracer else None
                k2 = calib.kernel_seconds()
            except FAILURES as exc:
                failed += 1
                errors.append(f"op {op.index}: {type(exc).__name__}: {exc}")
                k0 = calib.kernel_seconds()
                continue
            fa, fv = calib.factor(k0, k1), calib.factor(k1, k2)
            k0 = k2
            cal_a.append(ta * fa)
            cal_v.append(tv * fv)
            raw_a.append(ta)
            raw_v.append(tv)
            cert_bytes.append(len(_blob(analyzed)))
            if tracer:
                # snapshots bracket the kernels too; the kernels never enter hdq
                accumulate(snap0, snap1, fa)
                accumulate(snap1, snap2, fv)
            try:
                wl.check(op, analyzed, verified)
                if pos == 0:
                    wl.repeat(op, analyzed)
                if pos == wl.round_size - 1 and hasattr(wl, "relabel"):
                    wl.relabel(op, analyzed)
            except CheckFailed as exc:
                errors.append(f"op {op.index}: check failed: {exc}")
                return _result(False, attempted, failed, {}, lines + errors)

    n = len(cal_a)
    lines.append(f"workload {wl.name}: {attempted} operations attempted, {failed} failed, {index // wl.round_size} rounds")
    lines.extend(errors)
    if tracer:
        metrics = _per_layer(layer, n, cert_bytes)
        lines.append(f"traced: analyze median {statistics.median(cal_a):.4f} s (raw {statistics.median(raw_a):.4f} s), "
                     f"verify median {statistics.median(cal_v):.4f} s (raw {statistics.median(raw_v):.4f} s), "
                     f"{n / (sum(cal_a) + sum(cal_v)):.3f} certs/s")
        for name, m in metrics.items():
            lines.append(f"  {name:<44} {m['value']:.6g} {m['unit']}")
        return _result(True, attempted, failed, metrics, lines)

    pct = 100.0 * (n - 10) / n
    metrics = {
        "certs_per_s": (n / (sum(cal_a) + sum(cal_v)), "1/s", n / (sum(raw_a) + sum(raw_v))),
        "analyze_s": (statistics.median(cal_a), "s", statistics.median(raw_a)),
        "analyze_tail_s": (tail(cal_a), "s", tail(raw_a)),
        "verify_s": (statistics.median(cal_v), "s", statistics.median(raw_v)),
        "verify_tail_s": (tail(cal_v), "s", tail(raw_v)),
        "setup_s": (setup[0], "s", setup[1]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", None),
    }
    lines.append(f"{n} timed pairs; tails at the {pct:.1f}th percentile; setup: lower quartile of {SETUP_RUNS} fresh interpreters")
    for name, (value, unit, raw) in metrics.items():
        extra = f"   (raw {raw:.6g} {unit})" if raw is not None else ""
        lines.append(f"  {name:<16} {value:.6g} {unit}{extra}")
    return _result(True, attempted, failed,
                   {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}, lines)


def _per_layer(layer, pairs, cert_bytes):
    out = {}
    for name in PER_LAYER:
        if name == "jalgebra.fine_structure_hit_ratio":
            calls = layer["jalgebra.fine_structure:calls"]
            value, unit = (layer["fine_hits"] / calls if calls else 0.0), "ratio"
        elif name == "analyzer.cert_kb":
            value, unit = statistics.mean(cert_bytes) / 1000.0, "kB"
        elif name.endswith("_calls"):
            value, unit = layer[name[: -len("_calls")] + ":calls"] / pairs, "count"
        else:
            key = name[: -len("_self_s")] if name.endswith("_self_s") else name[: -len("_s")]
            value, unit = layer[key + ":s"] / pairs, "s"
        out[name] = {"value": value, "unit": unit}
    return out


def _result(correct, attempted, failed, metrics, lines):
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ball-fiber", "polydisc-tower", "affine-elliptic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hdq" / "cli.py").is_file():
        print(f"error: no hdq sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
