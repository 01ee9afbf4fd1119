"""Fast self-test of the benchmark (about 15 s).

    python3 perfbench/selftest.py

Checks the oracle on known values and the golden files on the headline
numbers, then runs every workload with `--smoke --seconds 1` in both trace
modes and checks the output schema: the last stdout line holds exactly
correct, attempted, failed and metrics, every metric named in
BENCHMARK.json for that mode is there with its unit, and nothing else is.
Last, it checks that the exact counts of a traced run repeat in a second
traced run with the same seed.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest failed: {what}")


def smoke_run(workload: str, trace: int, where: str) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    check(oracle.c2_index(8, (2, 2, 2)) == 700, "oracle c2 8 2,2,2")
    check(oracle.dim(9, (3, 3, 3, 3, 3)) == 116424, "oracle dim 9 3,3,3,3,3")
    check(oracle.c2_index(6, (2, 1)) == 33, "oracle c2 6 2,1")
    check(all(oracle.c2_index(n, (1,)) == 1 for n in range(2, 13)), "oracle defining rep")
    golden = HERE / "golden"
    check((golden / "image-index-8-2.out").read_bytes() == b"2\n", "golden gcd 2")
    check((golden / "image-index-9-3.out").read_bytes() == b"3\n", "golden gcd 3")
    check(b"generators: 1558\n" in (golden / "conjecture-5.out").read_bytes(), "golden 1558")
    check(len(json.loads((golden / "generators-9-3-json.out").read_bytes())["rows"]) == 31, "golden 31")
    check((golden / "table-sl8-mu2-csv.out").read_bytes().count(b"\n") == 14, "golden 13 rows")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} --trace {trace}"
            result = smoke_run(workload, trace, where)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where} keys")
            check(result["correct"] is True and result["failed"] == 0, f"{where} correctness")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where} attempted")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{where} metric names and units")
            for name, v in result["metrics"].items():
                check(set(v) == {"value", "unit"}, f"{where} {name} fields")
                check(isinstance(v["value"], (int, float)), f"{where} {name} value")
                if key == "end_to_end":
                    check(v["value"] > 0, f"{where} {name} is not positive")
            print(f"ok {where}: {result['attempted']} commands")

    record = HERE / "out" / "result-query-replay-seed7-trace1.json"
    first = json.loads(record.read_text())["exact_counts"]
    smoke_run("query-replay", 1, "query-replay --trace 1, again")
    check(json.loads(record.read_text())["exact_counts"] == first, "exact counts repeat between runs")
    print("ok exact counts repeat between two traced runs")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
