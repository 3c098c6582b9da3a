#!/usr/bin/env python3
"""Compares two full runs of the end-to-end benchmark.

  python3 bench/e2e/compare_runs.py A.json B.json

A and B are documents `run.py --out` wrote (B is the candidate). For every
workload and every end-to-end metric BENCHMARK.json names, prints both
medians, each side's interquartile range (IQR) as a share of its median,
and how much worse B is than A against the metric's bound. A metric is
"unresolved" when either side's IQR exceeds the bound, "REGRESSED" when B
is worse by more than the bound, "ok" otherwise. The pair is flagged
host-drifted when bench.host_ref_ms (a loop no change can move) differs by
more than 5% between the runs. Exits 1 when a metric regressed, an
operation failed, or an output digest differs.
"""

import json
import sys
from pathlib import Path

HOST_DRIFT = 0.05


def spread(metric):
    return (metric["p75"] - metric["p25"]) / metric["median"]


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    declared = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    bad = False
    print(f"{'workload':22} {'metric':14} {'A':>12} {'B':>12} {'IQR A':>7}"
          f" {'IQR B':>7} {'worse':>7} {'bound':>6}  verdict")
    for name, run_a in a["workloads"].items():
        run_b = b["workloads"].get(name)
        if run_b is None:
            print(f"{name}: missing from B")
            bad = True
            continue
        for side, run in (("A", run_a), ("B", run_b)):
            if run["failed"] or not run["correct"]:
                print(f"{name}: {side} failed {run['failed']} of"
                      f" {run['attempted']}: {run['errors']}")
                bad = True
        if run_a["digest"] != run_b["digest"]:
            print(f"{name}: digest differs ({run_a['digest']} vs"
                  f" {run_b['digest']})")
            bad = True
        for metric in declared["end_to_end"]:
            ma = run_a["metrics"].get(metric["name"])
            mb = run_b["metrics"].get(metric["name"])
            if ma is None or mb is None:  # Only a failed run lacks one.
                print(f"{name:22} {metric['name']:14} missing")
                continue
            change = (mb["median"] - ma["median"]) / ma["median"]
            worse = change if metric["better"] == "lower" else -change
            iqr_a, iqr_b = spread(ma), spread(mb)
            if max(iqr_a, iqr_b) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                bad = True
            else:
                verdict = "ok"
            print(f"{name:22} {metric['name']:14} {ma['median']:12.6g}"
                  f" {mb['median']:12.6g} {iqr_a:7.2%} {iqr_b:7.2%}"
                  f" {worse:+7.2%} {metric['bound']:6.0%}  {verdict}")
        host_a = run_a["metrics"]["bench.host_ref_ms"]["median"]
        host_b = run_b["metrics"]["bench.host_ref_ms"]["median"]
        drift = host_b / host_a - 1
        print(f"{name:22} {'host_ref_ms':14} {host_a:12.6g} {host_b:12.6g}"
              f" {'':7} {'':7} {drift:+7.2%} {HOST_DRIFT:6.0%}  "
              + ("HOST-DRIFTED" if abs(drift) > HOST_DRIFT else "steady"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
