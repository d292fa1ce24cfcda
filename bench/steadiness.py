"""Repeat benchmark runs of unchanged code and report how steady each metric is.

    python3 bench/steadiness.py                        # every workload, seeds 1..10
    python3 bench/steadiness.py --workloads ball-fiber --seeds 1-5
    python3 bench/steadiness.py --compare .hdqbench/steadiness-A.json

Runs ``bench/run.py`` once per (workload, seed), one after another, with
the run length from ``BENCHMARK.json``.  For each end-to-end metric it
prints the median and quartiles (``statistics.quantiles(n=4)``) of the
runs, the spread (q3 - q1) / median, and the metric's bound; a spread above
a third of the bound is flagged.  It also prints each run's share of failed
operations.  Results are saved as JSON under ``.hdqbench/``; ``--compare``
prints, per metric, how much worse the new median is than the saved one,
as a share of the saved median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def worse_by(new, old, better):
    """Share of ``old`` by which ``new`` is worse (negative when better)."""
    return (old - new) / old if better == "higher" else (new - old) / old


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--compare", help="a saved result file to compare the new medians against")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    results = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in seeds:
            start = time.perf_counter()
            res = run_once(workload, seed, spec["run_seconds"])
            results[workload].append({"seed": seed, "wall_s": time.perf_counter() - start, **res})
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} ({time.perf_counter() - start:.0f} s)", flush=True)

    out_dir = ROOT / ".hdqbench"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps({"seconds": spec["run_seconds"], "seeds": seeds, "results": results}, indent=1))
    old = json.loads(Path(args.compare).read_text())["results"] if args.compare else {}

    steady = True
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares {shares}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}"
              + ("   worse than saved" if old else ""))
        for m in spec["end_to_end"]:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3 = summarize(values)
            spread = (q3 - q1) / med
            flag = "" if spread <= m["bound"] / 3 else "  <- above bound/3"
            steady = steady and spread <= m["bound"]
            line = f"  {name:<16}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.3f}{m['bound']:>7.2f}"
            if workload in old:
                old_med = statistics.median(r["metrics"][name]["value"] for r in old[workload])
                line += f"   {worse_by(med, old_med, m['better']):+.3f}"
            print(line + flag)
    print(f"\nsaved {out.relative_to(ROOT)}; every spread within its bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
