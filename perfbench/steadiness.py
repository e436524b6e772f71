#!/usr/bin/env python3
"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads tc1-sweep,...] [--label a]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json, and
the share of failed operations. Runs are sequential, one at a time. The
collected results go to perfbench/results/steadiness-<label>.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--label", default="set")
    args = ap.parse_args()

    collected = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: outputs failed their checks")
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / med, "bound": metric["bound"],
                                       "values": values}
        failed_share = sorted({r["failed"] / r["attempted"] for r in runs})
        collected[workload] = {"metrics": summary, "failed_share": failed_share}
        for name, s in summary.items():
            print(f"{workload:18s} {name:12s} median {s['median']:10.4f}  "
                  f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {s['spread']:.4f}  "
                  f"(bound {s['bound']})", flush=True)
        print(f"{workload:18s} failed share {failed_share}", flush=True)
    (HERE / "results").mkdir(exist_ok=True)
    path = HERE / "results" / f"steadiness-{args.label}.json"
    path.write_text(json.dumps({"seeds": args.seeds, "workloads": collected}, indent=1),
                    encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
