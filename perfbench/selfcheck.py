"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. A pass whose checks expect a wrong grid element total must report failed
   checks, so a wrong answer cannot go unnoticed (fail_rate above zero).
2. For every workload, a short traced run must print every per_layer metric of
   BENCHMARK.json and an untraced run every end_to_end metric, with the
   declared units and numeric values.

It also prints action.fq_order.us_per_call of verify_table (log-table path)
and query_beyond_table (coefficient-vector path): the table-bound cliff.
Takes one to two minutes.  Exit code 0 means every check held.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    proc = run([str(HERE / "child.py"), "--workload", "verify_table", "--seed", "1",
                "--pass", "0", "--wrong-expected"])
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    fail_rate = record["failed"] / record["attempted"]
    print(f"wrong expected grid total: failed {record['failed']} of "
          f"{record['attempted']} checks, fail_rate {fail_rate:.4f}")
    if not record["failed"]:
        problems.append("a wrong expected value did not raise fail_rate")

    us_per_call = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run([str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                        "--seconds", "1", "--trace", str(trace)])
            if proc.returncode != 0:
                problems.append(f"{workload} --trace {trace} exited {proc.returncode}: "
                                f"{proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != want:
                problems.append(f"{workload} --trace {trace}: metrics differ from "
                                f"BENCHMARK.json {section}: {sorted(set(got) ^ set(want))}")
            if not all(isinstance(m["value"], (int, float)) for m in metrics.values()):
                problems.append(f"{workload} --trace {trace}: a value is not a number")
            if result["failed"]:
                problems.append(f"{workload} --trace {trace}: {result['failed']} checks failed")
            if trace:
                us_per_call[workload] = metrics["action.fq_order.us_per_call"]["value"]
            print(f"{workload} --trace {trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} checks, {result['failed']} failed")

    table = us_per_call.get("verify_table")
    beyond = us_per_call.get("query_beyond_table")
    if table and beyond:
        print(f"fq_order: {table:.1f} us/call on the table path (verify_table), "
              f"{beyond:.1f} us/call past it (query_beyond_table), {beyond / table:.0f}x")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
