"""Reference figures for the size ladder: analyze, verify and peak RSS per size.

    python3 bench/ladder.py     # ball:2..ball:24, polydisc:2..polydisc:10

Each size runs in a fresh interpreter, so its peak RSS is its own.  The
element has coefficients uniform in [-1, 1] (seed 0).  Times are medians
of three analyze+verify pairs (one pair at algebra dimension above 32), in
calibrated seconds with the raw seconds beside them.  Prints a Markdown
table.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time

import run  # sets the numeric thread count before numpy loads
from run import calib

LADDER = ("ball:2", "ball:4", "ball:8", "ball:12", "ball:16", "ball:24",
          "polydisc:2", "polydisc:4", "polydisc:6", "polydisc:8", "polydisc:10")


def one(domain):
    import numpy as np

    from hdq import analyzer, jalgebra
    from workloads import format_exp

    labels = jalgebra.preset(domain).L.basis_labels
    phi = format_exp(np.random.default_rng(0).uniform(-1.0, 1.0, len(labels)), labels)
    rows = []
    for _ in range(3 if len(labels) <= 32 else 1):
        k0 = calib.kernel_seconds()
        t = time.perf_counter()
        cert = analyzer.analyze(domain, phi)
        ta = time.perf_counter() - t
        k1 = calib.kernel_seconds()
        t = time.perf_counter()
        ok, _ = analyzer.verify(cert)
        tv = time.perf_counter() - t
        k2 = calib.kernel_seconds()
        if cert["conclusion"] != "stein_certified" or not ok:
            raise SystemExit(f"{domain}: {cert['conclusion']}, verifies {ok}")
        rows.append((ta * calib.factor(k0, k1), tv * calib.factor(k1, k2), ta, tv))
    med = [statistics.median(col) for col in zip(*rows)]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"domain": domain, "dim": len(labels), "analyze_s": med[0], "verify_s": med[1],
                      "raw_analyze_s": med[2], "raw_verify_s": med[3], "peak_rss_mb": rss}))


def main(argv):
    if argv[:1] == ["--one"]:
        one(argv[1])
        return 0
    print("| domain | algebra dim | analyze s (raw) | verify s (raw) | peak RSS MB |")
    print("|---|---|---|---|---|")
    for domain in LADDER:
        proc = subprocess.run([sys.executable, __file__, "--one", domain], cwd=run.ROOT,
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"| {domain} | failed: {proc.stderr.strip().splitlines()[-1:]} | | | |")
            continue
        r = json.loads(proc.stdout.splitlines()[-1])
        print(f"| `{domain}` | {r['dim']} | {r['analyze_s']:.3f} ({r['raw_analyze_s']:.3f}) | "
              f"{r['verify_s']:.3f} ({r['raw_verify_s']:.3f}) | {r['peak_rss_mb']:.0f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
