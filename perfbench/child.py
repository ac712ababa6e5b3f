"""One pass of one workload, in a fresh interpreter; prints one JSON line.

run.py starts this script once per pass so that qorder's lru_caches, divisor
tables and per-tower caches start cold on every commit measured.  By hand:

    python3 perfbench/child.py --workload factor_meyn --seed 1 --pass 0 --trace 0

Set-up (import qorder, build every tower the workload uses) ends at
``ready_at``, a CLOCK_MONOTONIC stamp the parent subtracts its spawn stamp
from.  The timed phase is the sum of the request latencies.  Correctness
checks, report digests and the peak RSS reading come after it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


#: Time the reference loop again once this much time has passed.
REFERENCE_INTERVAL_S = 0.1


class _Table:
    """Stands in for the kind of object qorder's inner loops call into."""

    __slots__ = ("table", "size")

    def __init__(self) -> None:
        self.table = list(range(64))
        self.size = 64

    def lookup(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.table[(a + b) % self.size]


def time_reference() -> float:
    """Seconds taken by a fixed pure-Python loop that never touches qorder.

    On a shared host the speed at which this process runs Python changes by
    30-100% for seconds to minutes at a time.  Timing the same loop between
    requests measures that speed, so a request's latency divided by it is a
    cost that depends far less on the load from outside.  The loop mixes
    method calls, list indexing and divmod, as qorder's inner loops do.
    """
    table = _Table()
    acc = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()  # a collection would time qorder's heap, not the machine
    try:
        t0 = time.perf_counter()
        for i in range(12_000):
            q, r = divmod(i, 7)
            acc ^= table.lookup(q & 63, r)
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def reference_per_request(references: list[tuple[int, float]], count: int) -> list[float]:
    """For each request, the mean of the reference timings just before and after it."""
    out = []
    before = 0
    for index in range(count):
        while references[before + 1][0] <= index:
            before += 1
        out.append((references[before][1] + references[before + 1][1]) / 2)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--wrong-expected",
        action="store_true",
        help="expect a wrong grid element total (self-check of the checks)",
    )
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import qorder

    if Path(qorder.__file__).resolve().parent != ROOT / "src" / "qorder":
        raise SystemExit(f"imported qorder from {qorder.__file__}, not from this checkout")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.pass_index)
    if args.wrong_expected:
        workload.expected_grid_elements = workloads.GRID_ELEMENTS + 1
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        cli_import_s = tracer.install()
    workload.setup()
    ready_at = time.monotonic()

    requests = workload.requests()
    results = []
    latencies = []
    # (index of the next request, seconds) for each timing of the reference loop
    references = [(0, time_reference())]
    clock = time.perf_counter
    referenced_at = clock()
    for request_id, req in enumerate(requests, 1):
        if tracer is not None:
            tracer.request = request_id
        t0 = clock()
        results.append(workload.execute(req))
        latencies.append(clock() - t0)
        if clock() - referenced_at >= REFERENCE_INTERVAL_S or request_id == len(requests):
            references.append((request_id, time_reference()))
            referenced_at = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elements = sum(workload.elements(req) for req in requests)

    per_layer = None
    if tracer is not None:
        tracer.uninstall()
        per_layer = tracing.per_layer_metrics(
            tracer,
            cli_import_s=cli_import_s,
            elements_swept=elements,
            table_path_frob_calls=tracer.table_path_frob_calls(),
        )
        # One file per workload and seed: the last traced pass of a run is kept.
        tracer.dump(ROOT / ".bench_out" / "spans" / f"{args.workload}-seed{args.seed}")

    checker = workloads.Checker()
    reports: dict = {}
    invariants: dict[str, str] = {}
    for req, result in zip(requests, results):
        workload.check(req, result, checker)
        key, text = workload.report(req, result)
        reports.setdefault(key, hashlib.sha256()).update(text.encode())
        inv = workload.invariant(req, result)
        if inv is not None:
            invariants[inv[0]] = hashlib.sha256(inv[1].encode()).hexdigest()

    record = {
        "pass": args.pass_index,
        "ready_at": ready_at,
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "reference_s": reference_per_request(references, len(requests)),
        "slots": [workload.slot(req) for req in requests],
        "elements": elements,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "reports": {key: h.hexdigest() for key, h in reports.items()},
        "invariants": invariants,
        "table_path": {
            f"F_{p**s}^{n}": tower.frob_table(1) is not None
            for (p, s, n), tower in workload.towers.items()
        },
        "per_layer": per_layer,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
