"""Self-test of the benchmark.

    python3 bench/selftest.py

1. Runs one round of each workload, untraced and traced, and checks that
   the result is correct, nothing failed, and every metric is reported.
2. Feeds each correctness check a deliberately corrupted expectation (a
   wrong finite order, a wrong tower depth, a flipped conclusion, wrong
   angles, different bytes) and checks that it rejects it.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   ``bench/`` and checks that it exits non-zero without printing a result.

Exits 0 when every step passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the numeric thread count and the import path
import workloads as W

FAILURES = []


def report(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def rejects(what, fn, *args):
    try:
        fn(*args)
    except W.CheckFailed as exc:
        report(True, f"{what} is rejected ({exc})")
        return
    report(False, f"{what} is accepted")


def one_round():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name, cls in W.WORKLOADS.items():
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            result, _ = run.run(name, seed=1, seconds=0, trace=trace, min_ops=cls.round_size)
            metrics = result["metrics"]
            report(result["correct"] and result["failed"] == 0 and result["attempted"] == cls.round_size,
                   f"{name} trace={int(trace)}: one round of {cls.round_size} is correct, none failed")
            report(set(metrics) == wanted, f"{name} trace={int(trace)}: reports exactly the listed metrics")
            if not trace:
                report(all(m["value"] > 0 for m in metrics.values()), f"{name}: every end-to-end metric is positive")


def flipped(blob, conclusion):
    cert = json.loads(blob)
    cert["conclusion"] = conclusion
    return json.dumps(cert)


def corrupted_expectations(tmp: Path):
    ball = W.BallFiber(1, tmp)
    op = ball.prepare(0)
    blob = ball.analyze(op)
    cert = json.loads(blob)
    ball.check(op, blob, ball.verify(op, blob))
    rejects("ball-fiber: tower depth 2 for a rank-one ball", W.check_tower, cert, 2, [])
    rejects("ball-fiber: conclusion flipped to undecided", ball.check, op, flipped(blob, "undecided"), True)
    rejects("ball-fiber: a verify that failed", ball.check, op, blob, False)
    op.facts["delta"] = 0.0
    rejects("ball-fiber: the abelian branch claimed for a nonzero delta", ball.check, op, blob, True)
    rejects("ball-fiber: different repeat bytes", ball.repeat, op, blob.replace("stein", "Stein", 1))

    poly = W.PolydiscTower(1, tmp)
    op = poly.prepare(0)
    blob = poly.analyze(op)
    cert = json.loads(blob)
    poly.check(op, blob, poly.verify(op, blob))
    poly.relabel(op, blob)
    rejects("polydisc-tower: tower depth 5 instead of 6", W.check_tower, cert, 5, [10, 8, 6, 4])
    rejects("polydisc-tower: conclusion flipped to not_applicable", poly.check, op,
            flipped(blob, "not_applicable"), True)
    rejects("polydisc-tower: relabelled copy against a flipped conclusion", poly.relabel, op,
            flipped(blob, "undecided"))

    aff = W.AffineElliptic(1, tmp)
    ops = [aff.prepare(i) for i in range(3)]  # rational, irrational, dilation on ball:4
    done = [(op, aff.analyze(op)) for op in ops]
    for op, analyzed in done:
        aff.check(op, analyzed, aff.verify(op, analyzed))
    (rat, rat_a), (irr, irr_a), (dil, dil_a) = done
    rat.facts["order"] += 1
    rejects("affine-elliptic: wrong finite order", aff.check, rat, rat_a, aff.verify(rat, rat_a))
    rat.facts["order"] -= 1
    rejects("affine-elliptic: irrational rotation flipped to stein_by_citation", aff.check, irr,
            (irr_a[0], flipped(irr_a[1], "stein_by_citation").encode()), aff.verify(irr, irr_a))
    rejects("affine-elliptic: irrational rotation with exit code 0", aff.check, irr, (0, irr_a[1]),
            aff.verify(irr, irr_a))
    dil.facts["angles"][0] += 1e-3
    rejects("affine-elliptic: elliptic angles off by 1e-3", aff.check, dil, dil_a, aff.verify(dil, dil_a))
    rejects("affine-elliptic: a verify that failed", aff.check, rat, rat_a, (1, "certificate FAILS\n"))


def missing_program(tmp: Path):
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ball-fiber", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    report(proc.returncode != 0 and "{" not in proc.stdout,
           f"without the program: exit {proc.returncode}, no result printed")


def main():
    one_round()
    run.WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as name:
        corrupted_expectations(Path(name))
        missing_program(Path(name))
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
