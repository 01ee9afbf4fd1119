"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 10 [--workloads certify conjecture]
        [--save out/set1.json] [--against out/set0.json]

Runs run.py once per seed on each workload with `--trace 0` and the
run length `run_seconds` of BENCHMARK.json, and prints
for every end-to-end metric the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound in BENCHMARK.json.
With --against, it also compares each median with the one saved in an
earlier set: the later median may be worse by at most the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", type=Path)
    p.add_argument("--against", type=Path)
    args = p.parse_args()

    earlier = json.loads(args.against.read_text()) if args.against else {}
    summary = {}
    verdict = 0
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                verdict = 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        summary[workload] = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][m["name"]] = {"median": med, "spread": spread, "values": values}
            note = "ok" if spread <= m["bound"] / 3 else "WIDE" if spread <= m["bound"] else "OVER"
            if note == "OVER":
                verdict = 1
            line = (f"{workload:13s} {m['name']:12s} median {med:10.5g} {m['unit']:5s} "
                    f"spread {spread:7.2%} bound {m['bound']:.0%} {note}")
            if workload in earlier:
                before = earlier[workload][m["name"]]["median"]
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                line += f"  vs earlier {worse:+7.2%}"
                if worse > m["bound"]:
                    line += " REGRESSED"
                    verdict = 1
            print(line, flush=True)
    if args.save:
        args.save.write_text(json.dumps(summary, indent=1) + "\n")
    return verdict


if __name__ == "__main__":
    sys.exit(main())
