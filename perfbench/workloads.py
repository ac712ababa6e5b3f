"""The benchmark's workloads: inputs from a seed, the requests of one pass, checks.

A pass runs in a fresh interpreter (see child.py).  Each workload gets the
workload seed and the pass index, builds everything it needs in setup(),
then the child times execute() on each request in turn, one client and one
thread in a closed loop.  check() runs after the timed phase and counts every
correctness check it makes; a failed check never aborts the pass.

Why each workload exists is recorded in BENCHMARK.json; in short:

* verify_table    the paper's verification commands through the CLI, all on
                  the log-table arithmetic path (fields of at most 2^14
                  elements); dominated by classify sweeps over action and
                  characters.
* query_beyond_table
                  single-character queries on fields past the table bound,
                  through the library; exercises the coefficient-vector path
                  that verify_table bypasses.
* factor_meyn     the Meyn sweep and factoring x^n - 1 at large n through
                  the CLI; nearly all time is in poly, and no tower is built.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

#: Sum of q^n over qorder's VERIFICATION_GRID (34 fields); fixed by the paper's grid.
GRID_ELEMENTS = 7084

#: Per-field verification fields: on the table path, at or just under 2^14 elements.
VERIFY_FIELDS = ((2, 1, 13), (2, 2, 7))
VERIFY_GRID_COMMANDS = (
    ("verify-theorem",),
    ("corollary1",),
    ("pnbt",),
    ("verify-theorem", "--check", "exhaustive"),
)
VERIFY_FIELD_COMMANDS = ("verify-theorem", "corollary1", "orders", "pnbt")

#: Query fields: all past the 2^14 table bound.
QUERY_FIELDS = ((2, 1, 15), (3, 1, 10), (2, 1, 16), (2, 2, 8), (5, 1, 7))
QUERIES_PER_FIELD = 30

#: x^n - 1 over F_2; at least one n >= 511 so distinct-degree factoring dominates.
FACTOR_NS = (255, 511)


class Checker:
    """Counts correctness checks; keeps the first few failures for the record."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the subcommand, the field it sweeps (None for --grid)."""

    name: str
    field: tuple[int, int, int] | None
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


class CliWorkload:
    """Requests are qorder.cli.main(argv) calls with stdout captured."""

    def __init__(self, seed: int, pass_index: int) -> None:
        self.seed = seed
        self.pass_index = pass_index

    def fields(self) -> list[tuple[int, int, int]]:
        return []

    def setup(self) -> None:
        import qorder.cli
        from qorder import build_tower

        self.cli = qorder.cli
        self.towers = {psn: build_tower(*psn) for psn in self.fields()}

    def execute(self, cmd: Command):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(list(cmd.argv))
        return rc, buf.getvalue()

    def report(self, cmd: Command, result) -> tuple[str, str]:
        """(key, text) of the rendered report, for its sha256 record."""
        return cmd.key, result[1]

    def slot(self, cmd: Command) -> str:
        """Names the request across passes; its latencies there are comparable."""
        return cmd.key

    def invariant(self, cmd: Command, result) -> tuple[str, str]:
        """(slot, text): the text must be identical in every pass with that slot."""
        return self.slot(cmd), result[1]

    def check(self, cmd: Command, result, checker: Checker) -> None:
        rc, text = result
        checker.expect(rc == 0, f"{cmd.key}: exit code {rc}")
        try:
            doc = json.loads(text)
        except ValueError:
            checker.expect(False, f"{cmd.key}: report is not JSON")
            return
        checker.expect(doc.get("verdict") == "pass", f"{cmd.key}: verdict not pass")
        self.check_rows(cmd, doc["rows"], checker)

    def check_rows(self, cmd: Command, rows: list[dict], checker: Checker) -> None:
        raise NotImplementedError


class VerifyTable(CliWorkload):
    """Grid and per-field verification commands, in a fixed order; the seed
    seeds the factorizations.  Every pass runs the same commands."""

    expected_grid_elements = GRID_ELEMENTS

    def fields(self):
        from qorder import VERIFICATION_GRID

        return [*VERIFICATION_GRID, *VERIFY_FIELDS]

    def requests(self) -> list[Command]:
        common = ("--format", "json", "--seed", str(self.seed))
        cmds = [
            Command(c[0], None, (*c, "--grid", *common)) for c in VERIFY_GRID_COMMANDS
        ]
        for p, s, n in VERIFY_FIELDS:
            for name in VERIFY_FIELD_COMMANDS:
                argv = (name, "--p", str(p), "--s", str(s), "--n", str(n), *common)
                cmds.append(Command(name, (p, s, n), argv))
        return cmds

    def elements(self, cmd: Command) -> int:
        if cmd.field is None:
            return GRID_ELEMENTS
        p, s, n = cmd.field
        return p ** (s * n)

    def check_rows(self, cmd, rows, checker):
        size = None if cmd.field is None else self.elements(cmd)
        if cmd.name == "verify-theorem":
            want = self.expected_grid_elements if size is None else size
            got = sum(r["elements"] for r in rows)
            checker.expect(got == want, f"{cmd.key}: {got} elements, expected {want}")
            checker.expect(
                all(r["mismatches"] == 0 for r in rows), f"{cmd.key}: mismatches"
            )
        elif cmd.name == "corollary1":
            checker.expect(all(r["holds"] for r in rows), f"{cmd.key}: not holds")
        elif cmd.name == "pnbt":
            checker.expect(
                all(r["normal_count"] == r["phi_q_full"] for r in rows),
                f"{cmd.key}: normal_count != phi_q_full",
            )
        elif cmd.name == "orders":
            checker.expect(
                all(r["element_count"] == r["phi_q"] for r in rows),
                f"{cmd.key}: element_count != phi_q",
            )
            got = sum(r["element_count"] for r in rows)
            checker.expect(got == size, f"{cmd.key}: counts sum to {got}, not {size}")


class FactorMeyn(CliWorkload):
    """The Meyn sweep and x^n - 1 over F_2; each pass draws its own --seed, which
    changes Cantor-Zassenhaus cost but never the factors."""

    def requests(self) -> list[Command]:
        rng = random.Random(self.seed * 1_000_003 + self.pass_index)
        common = ("--format", "json", "--seed", str(rng.randrange(1 << 31)))
        cmds = [Command("corollary2", None, ("corollary2", "--grid", *common))]
        cmds += [
            Command("factor", (2, 1, n), ("factor", "--n", str(n), *common))
            for n in FACTOR_NS
        ]
        rng.shuffle(cmds)
        return cmds

    def elements(self, cmd: Command) -> int:
        return 0

    def check_rows(self, cmd, rows, checker):
        if cmd.name == "corollary2":
            checker.expect(all(r["agree"] for r in rows), f"{cmd.key}: disagreement")
            return
        from qorder import base_field, is_irreducible, parse_poly

        f2 = base_field(2, 1)
        n = cmd.field[2]
        degree = sum(r["degree"] * r["multiplicity"] for r in rows)
        checker.expect(degree == n, f"{cmd.key}: factor degrees sum to {degree}")
        for r in rows:
            checker.expect(
                is_irreducible(parse_poly(f2, r["factor"])),
                f"{cmd.key}: reducible factor {r['factor']}",
            )

    def slot(self, cmd: Command) -> str:
        return cmd.name if cmd.field is None else f"{cmd.name} --n {cmd.field[2]}"

    def invariant(self, cmd: Command, result) -> tuple[str, str]:
        """The rows alone: reports differ by --seed in meta, the factors must not."""
        return self.slot(cmd), json.dumps(json.loads(result[1])["rows"])


@dataclass(frozen=True)
class Query:
    """One character-order query: its place in the pass, its field, its label."""

    index: int
    field: tuple[int, int, int]
    label: int


class QueryBeyondTable:
    """Seeded character-order queries mirroring `qorder char-order --mode both`,
    called on the library: fq_order, char_order_bruteforce (basis check) and
    char_order_fast.  The seed draws QUERIES_PER_FIELD labels of every field,
    asked round robin; every pass of a run asks the same queries, each from
    cold caches."""

    def __init__(self, seed: int, pass_index: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        import qorder

        self.q = qorder
        self.towers = {psn: qorder.build_tower(*psn) for psn in QUERY_FIELDS}
        self.factors = {
            psn: qorder.factor_xn_minus_1(psn[2], tower.base)
            for psn, tower in self.towers.items()
        }

    def requests(self) -> list[Query]:
        rng = random.Random(self.seed)
        fields = [psn for _ in range(QUERIES_PER_FIELD) for psn in QUERY_FIELDS]
        return [
            Query(i, psn, rng.randrange(self.towers[psn].size))
            for i, psn in enumerate(fields)
        ]

    def execute(self, query: Query):
        q = self.q
        fp = self.factors[query.field]
        label = q.FFElement(self.towers[query.field], query.label)
        chi = q.AdditiveCharacter(label)
        m = q.fq_order(label, fp)
        reciprocal = q.monic_reciprocal(m)
        scanned = q.char_order_bruteforce(chi, fp, check="basis")
        fast = q.char_order_fast(chi, fp)
        return m, reciprocal, scanned, fast

    def elements(self, query: Query) -> int:
        return 0

    def report(self, query: Query, result) -> tuple[str, str]:
        """All answers of a pass share one key; their sha256 covers every query."""
        orders = " ".join(self.q.poly_tokens(f) for f in result)
        return "answers", f"{query.field} {query.label} {orders}\n"

    def slot(self, query: Query) -> str:
        return f"query {query.index}"

    def invariant(self, query: Query, result) -> tuple[str, str]:
        return self.slot(query), self.report(query, result)[1]

    def check(self, query: Query, result, checker: Checker) -> None:
        m, reciprocal, scanned, fast = result
        what = f"F_{query.field} label {query.label}"
        checker.expect(
            scanned == fast == reciprocal,
            f"{what}: bruteforce {scanned}, fast {fast}, reciprocal {reciprocal}",
        )
        label = self.q.FFElement(self.towers[query.field], query.label)
        checker.expect(
            self.q.apply_action(m, label).is_zero, f"{what}: order does not annihilate"
        )


WORKLOADS = {
    "verify_table": VerifyTable,
    "query_beyond_table": QueryBeyondTable,
    "factor_meyn": FactorMeyn,
}
