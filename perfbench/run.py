"""Run one qorder benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload verify_table --seed 1 --seconds 30 --trace 0

Each pass of the workload runs in a fresh interpreter (child.py), one after
another, until the next pass would end past ``--seconds``; at least three
passes run untraced.  With ``--trace 1`` untraced and traced passes
alternate; the traced ones give the per-layer metrics and the untraced ones
the tracing overhead.

Lines starting with ``#`` describe the run: every end-to-end metric the
workload defines, by name and unit, including those BENCHMARK.json does not
list: wall_s (too exposed to outside load; wall_ref is its load-independent
form), elements_per_s and query_p50_ms/query_p90_ms (one workload each) and
fail_rate (0 on a correct program).
The last line is the JSON result: the BENCHMARK.json ``end_to_end`` metrics
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The full
record (every pass, report sha256s, environment) goes to
``.bench_out/results/``.  Exit code 0 means a result was printed; checks
that fail are counted in ``failed`` and never stop the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_table", "query_beyond_table", "factor_meyn")
MIN_UNTRACED_PASSES = 3
#: Every run ends within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def spawn_pass(workload: str, seed: int, index: int, trace: int, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("QORDER_SEED", None)  # it would override the --seed given to commands
    env["PYTHONHASHSEED"] = "0"
    argv = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--pass", str(index),
        "--trace", str(trace),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the minimum number of passes")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} timed out") from exc
    elapsed = time.monotonic() - spawned_at
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("ready_at") - spawned_at
    record["elapsed_s"] = elapsed
    record["trace"] = trace
    return record


def run_passes(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """Closed loop of passes; stops before a pass that would end past `seconds`."""
    kinds = (0, 1) if trace else (0,)
    min_passes = 2 if trace else MIN_UNTRACED_PASSES
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes: list[dict] = []
    while True:
        kind = kinds[len(passes) % len(kinds)]
        if len(passes) >= min_passes:
            longest = max(p["elapsed_s"] for p in passes if p["trace"] == kind)
            ends_at = time.monotonic() + longest
            if ends_at > start + seconds or ends_at > deadline:
                return passes
        passes.append(spawn_pass(workload, seed, len(passes), kind, deadline))


def per_request_median(passes: list[dict], key: str) -> dict[str, float]:
    """Each request's median across passes, by slot; every pass issues the same
    requests.  `key` is "latencies_s" for seconds, or "reference_units" for
    latencies divided by the reference timing around them."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for slot, value in zip(p["slots"], p[key]):
            samples.setdefault(slot, []).append(value)
    return {slot: statistics.median(values) for slot, values in samples.items()}


def end_to_end(workload: str, untraced: list[dict]) -> dict[str, float]:
    """wall_* sum per-request medians; setup_s and peak_rss_mb are pass medians."""
    for p in untraced:
        p["reference_units"] = [
            t / ref for t, ref in zip(p["latencies_s"], p["reference_s"])
        ]
    latencies = per_request_median(untraced, "latencies_s")
    out = {
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        "wall_s": sum(latencies.values()),
        "wall_ref": sum(per_request_median(untraced, "reference_units").values()),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    if workload == "verify_table":
        out["elements_per_s"] = untraced[0]["elements"] / out["wall_s"]
    if workload == "query_beyond_table":
        latencies_ms = sorted(1e3 * t for t in latencies.values())
        out["query_p50_ms"] = statistics.median(latencies_ms)
        out["query_p90_ms"] = statistics.quantiles(latencies_ms, n=10)[8]
        out["query_samples"] = len(latencies_ms)
    return out


def invariant_check(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Outputs under one invariant key must be identical in every pass."""
    seen: dict[str, str] = {}
    attempted = failed = 0
    failures = []
    for p in passes:
        for key, digest in p["invariants"].items():
            if key in seen:
                attempted += 1
                if seen[key] != digest:
                    failed += 1
                    failures.append(f"pass {p['pass']}: {key} differs from an earlier pass")
            else:
                seen[key] = digest
    return attempted, failed, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qorder" / "__init__.py").is_file():
        print(f"error: no qorder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]

    inv_attempted, inv_failed, inv_failures = invariant_check(passes)
    attempted = inv_attempted + sum(p["attempted"] for p in passes)
    failed = inv_failed + sum(p["failed"] for p in passes)
    failures = inv_failures + [f for p in passes for f in p["failures"]]

    e2e = end_to_end(args.workload, untraced)
    e2e["fail_rate"] = failed / attempted
    per_layer = {}
    if traced:
        names = traced[0]["per_layer"].keys()
        per_layer = {
            name: statistics.median(p["per_layer"][name] for p in traced) for name in names
        }
        traced_wall = sum(per_request_median(traced, "latencies_s").values())
        per_layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else e2e
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "table_path": passes[0]["table_path"],
        },
        "end_to_end": e2e,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "reports": {k: v for p in passes for k, v in p["reports"].items()},
        "passes": passes,
    }
    out = ROOT / ".bench_out" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    units = {"setup_s": "s", "wall_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB",
             "elements_per_s": "1/s",
             "query_p50_ms": "ms", "query_p90_ms": "ms", "query_samples": "count",
             "fail_rate": "ratio"}
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} passes={len(untraced)} untraced, "
          f"{len(traced)} traced; python {env['python']}, nproc {env['nproc']}")
    on_table = [name for name, table in env["table_path"].items() if table]
    print(f"# fields on the log-table path: {len(on_table)} of {len(env['table_path'])}")
    for name, value in e2e.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in per_layer.items():
        print(f"# {name} = {value:.6g} {layer_units.get(name, '')}")
    for failure in failures[:20]:
        print(f"# FAILED: {failure}")
    print(f"# record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
