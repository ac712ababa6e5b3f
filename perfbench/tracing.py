"""Per-layer tracing of qorder from outside the library.

The tracer rebinds the public functions of each qorder module in every
qorder module that imported them, so calls between modules pass through a
wrapper owned by the benchmark.  Nothing under ``src/`` is edited.

Two kinds of wrapper exist:

* span wrappers record one span per call (name, start, end, parent span,
  request id) in flat arrays kept in memory and written out when the pass
  ends;
* count wrappers only count calls.  They sit on the field primitives and on
  the ``FqPoly`` arithmetic methods, which run millions of times per pass;
  spanning them would swamp the spans they live under.

Self time is a span's duration minus the part covered by its child spans.
Calls are single-threaded and strictly nested, so children never overlap and
the covered part is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# Public functions whose calls are spanned, per qorder module.
SPANNED = {
    "fields": ("build_tower",),
    "action": ("fq_order",),
    "characters": ("char_order_bruteforce", "char_annihilated_by", "char_order_fast"),
    "classify": (
        "reciprocal_order_sweep",
        "orders_coincide_iff_self_reciprocal",
        "elements_by_order",
        "characters_by_order",
        "find_primitive_normal",
        "meyn_criterion",
    ),
    "poly": ("factor_xn_minus_1", "is_irreducible", "divisors_of_xn_minus_1"),
    "cli": ("main",),
}

# Methods whose calls are counted: (module, class) -> {attribute: metric name}.
COUNTED = {
    ("fields", "FieldTower"): {
        "mul_i": "fields.mul_i.calls",
        "frob_i": "fields.frob_i.calls",
        "pow_i": "fields.pow_i.calls",
        "trace_i": "fields.trace_i.calls",
    },
    ("poly", "FqPoly"): {
        "powmod": "poly.FqPoly.powmod.calls",
        "__divmod__": "poly.FqPoly.divmod.calls",
        "__mul__": "poly.FqPoly.mul.calls",
    },
}

class Tracer:
    """Spans and counters for one pass; install() wires it into qorder."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.request = 0
        self.counts: dict[str, list[int]] = {}
        self.frob_by_tower: dict[int, list] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _span_wrapper(self, qualname: str, orig):
        nid = len(self.names)
        self.names.append(qualname)
        clock = time.perf_counter_ns
        stack = self.stack
        name_a, parent_a, request_a = self.span_name, self.span_parent, self.span_request
        start_a, end_a = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            request_a.append(self.request)
            end_a.append(0)
            stack.append(idx)
            start_a.append(clock())
            try:
                return orig(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, orig)

    def _count_wrapper(self, metric: str, orig):
        cell = self.counts.setdefault(metric, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return orig(*args, **kwargs)

        return functools.update_wrapper(wrapper, orig)

    def _frob_wrapper(self, metric: str, orig):
        cell = self.counts.setdefault(metric, [0])
        per_tower = self.frob_by_tower

        def wrapper(tower, *args, **kwargs):
            cell[0] += 1
            slot = per_tower.get(id(tower))
            if slot is None:
                per_tower[id(tower)] = [tower, 1]
            else:
                slot[1] += 1
            return orig(tower, *args, **kwargs)

        return functools.update_wrapper(wrapper, orig)

    # -- installation ----------------------------------------------------------

    def install(self) -> float:
        """Import qorder.cli, wrap every traced name; return the cli import time."""
        t0 = time.perf_counter()
        import qorder.cli  # noqa: F401

        cli_import_s = time.perf_counter() - t0
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "qorder" or name.startswith("qorder.")
        ]
        for short, funcs in SPANNED.items():
            owner = sys.modules[f"qorder.{short}"]
            for fname in funcs:
                orig = getattr(owner, fname)
                wrapper = self._span_wrapper(f"{short}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for (short, cls_name), methods in COUNTED.items():
            cls = getattr(sys.modules[f"qorder.{short}"], cls_name)
            for attr, metric in methods.items():
                orig = cls.__dict__[attr]
                make = self._frob_wrapper if attr == "frob_i" else self._count_wrapper
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, make(metric, orig))
        return cli_import_s

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.span_start)
        start, end, parent = self.span_start, self.span_end, self.span_parent
        covered = [0] * n
        for i in range(n):
            par = parent[i]
            if par >= 0:
                covered[par] += end[i] - start[i]
        totals = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        name_of = self.span_name
        for i in range(n):
            t = totals[self.names[name_of[i]]]
            dur = end[i] - start[i]
            t["calls"] += 1
            t["incl_s"] += dur * 1e-9
            t["self_s"] += (dur - covered[i]) * 1e-9
        return totals

    def table_path_frob_calls(self) -> int:
        """frob_i calls on towers whose frob_table(1) is not None.

        Call only after uninstall(): frob_table fills lazily through frob_i.
        """
        return sum(
            count
            for tower, count in self.frob_by_tower.values()
            if tower.frob_table(1) is not None
        )

    def dump(self, stem: Path) -> None:
        """Write the spans: <stem>.json (layout and names) and <stem>.bin (arrays)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        arrays = (
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("request", self.span_request),
            ("start_ns", self.span_start),
            ("end_ns", self.span_end),
        )
        header = {
            "spans": len(self.span_start),
            "names": self.names,
            "arrays": [
                {"field": f, "typecode": a.typecode, "itemsize": a.itemsize}
                for f, a in arrays
            ],
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, a in arrays:
                a.tofile(fh)


def per_layer_metrics(
    tracer: Tracer,
    *,
    cli_import_s: float,
    elements_swept: int,
    table_path_frob_calls: int,
) -> dict[str, float]:
    """The per-layer metrics of one traced pass (trace.overhead_s is added later)."""
    spans = tracer.span_totals()

    def calls(name: str) -> int:
        return spans[name]["calls"]

    def self_s(name: str) -> float:
        return spans[name]["self_s"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {m: cell[0] for m, cell in tracer.counts.items()}
    frob_calls = out["fields.frob_i.calls"]
    out["fields.build_tower.s"] = spans["fields.build_tower"]["incl_s"]
    out["fields.table_path_share"] = ratio(table_path_frob_calls, frob_calls)

    out["action.fq_order.calls"] = calls("action.fq_order")
    out["action.fq_order.self_s"] = self_s("action.fq_order")
    out["action.fq_order.us_per_call"] = ratio(
        1e6 * self_s("action.fq_order"), calls("action.fq_order")
    )

    for fname in SPANNED["characters"]:
        name = f"characters.{fname}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["characters.scan_hit_ratio"] = ratio(
        calls("characters.char_order_bruteforce"),
        calls("characters.char_annihilated_by"),
    )

    for fname in SPANNED["classify"]:
        out[f"classify.{fname}.self_s"] = self_s(f"classify.{fname}")
    out["classify.elements_by_order.calls"] = calls("classify.elements_by_order")
    out["classify.fq_order_per_element"] = ratio(
        calls("action.fq_order"), elements_swept
    )

    for fname in ("factor_xn_minus_1", "is_irreducible"):
        out[f"poly.{fname}.calls"] = calls(f"poly.{fname}")
        out[f"poly.{fname}.self_s"] = self_s(f"poly.{fname}")
    out["poly.divisors_of_xn_minus_1.calls"] = calls("poly.divisors_of_xn_minus_1")

    out["cli.import_s"] = cli_import_s
    out["cli.main.calls"] = calls("cli.main")
    out["cli.main.self_s"] = self_s("cli.main")
    out["trace.spans"] = len(tracer.span_start)
    return out
