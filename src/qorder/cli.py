"""Command-line surface: field construction, order queries, verification sweeps.

Every command emits a ReportDocument (config echo, flat rows, counterexamples,
verdict) rendered as text, json, or csv.  Output is exact and deterministic:
identical configuration yields byte-identical output, and the process exit
code is 0 exactly when the verdict is "pass" and the report was written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field, fields

from . import __version__
from .characters import (
    _CHECK_MODES,
    AdditiveCharacter,
    char_order_bruteforce,
    char_order_fast,
)
from .classify import (
    MEYN_SWEEP_MAX_N,
    MEYN_SWEEP_PRIME_POWERS,
    VERIFICATION_GRID,
    classification_report,
    find_primitive_normal,
    meyn_sweep,
    multiplicative_order,
    orders_coincide_iff_self_reciprocal,
    reciprocal_order_sweep,
)
from .action import _element_order, fq_order
from .errors import NonPrimeError, ParseError, PrimitiveNormalNotFoundError, QOrderError
from .fields import (
    DEFAULT_SIZE_BOUND,
    FieldTower,
    _cached_map,
    base_field,
    build_tower,
    element_tokens,
    parse_element,
)
from .integers import is_prime
from .poly import (
    FactoredPoly,
    FqPoly,
    divisors_of_xn_minus_1,
    factor_xn_minus_1,
    is_self_reciprocal,
    monic_reciprocal,
    phi_q,
    poly_tokens,
)

_MODES = ("oracle", "fast", "both")


@dataclass
class CommandConfig:
    """Resolved invocation parameters, echoed into every report."""

    command: str
    p: int = 2
    s: int = 1
    n: int | None = None
    seed: int = 0
    size_bound: int = DEFAULT_SIZE_BOUND
    format: str = "text"
    mode: str = "both"
    check: str = "basis"
    grid: bool = False
    extra: dict = field(default_factory=dict)

    def meta(self) -> dict:
        """tool and version, every option in declaration order, then the extras."""
        return {
            "tool": "qorder",
            "version": __version__,
            **{name: getattr(self, name) for name in _OPTIONS},
            **self.extra,
        }


#: The CommandConfig fields that echo an option, each the dest of its argparse option.
_OPTIONS = tuple(f.name for f in fields(CommandConfig) if f.name != "extra")


@dataclass
class ReportDocument:
    """What a command produces; verdict is "pass" iff counterexamples is empty."""

    meta: dict
    rows: list[dict]
    counterexamples: list[dict]

    @property
    def verdict(self) -> str:
        return "pass" if not self.counterexamples else "fail"


# -- rendering -----------------------------------------------------------------


def _cell(value, *, none: str = "-") -> str:
    if value is None:
        return none
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def render_text(doc: ReportDocument) -> str:
    lines = [f"# {key} = {_cell(value)}" for key, value in doc.meta.items()]
    if doc.rows:
        cols = list(doc.rows[0].keys())
        table = [[_cell(row[c]) for c in cols] for row in doc.rows]
        widths = [
            max(len(col), *(len(row[i]) for row in table))
            for i, col in enumerate(cols)
        ]
        lines.append("")
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip())
        for row in table:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    if doc.counterexamples:
        lines.append("")
        lines.append("counterexamples:")
        for ce in doc.counterexamples:
            parts = ", ".join(f"{k}={_cell(v)}" for k, v in ce.items())
            lines.append(f"  {parts}")
    lines.append("")
    lines.append(f"verdict: {doc.verdict}")
    return "\n".join(lines)


def render_json(doc: ReportDocument) -> str:
    return json.dumps(
        {
            "meta": doc.meta,
            "rows": doc.rows,
            "counterexamples": doc.counterexamples,
            "verdict": doc.verdict,
        },
        indent=2,
    )


def render_csv(doc: ReportDocument) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if doc.rows:
        cols = list(doc.rows[0].keys())
        writer.writerow(cols)
        for row in doc.rows:
            writer.writerow([_cell(row[c], none="") for c in cols])
    return buf.getvalue().rstrip("\n")


_RENDERERS = {"text": render_text, "json": render_json, "csv": render_csv}


# -- commands -------------------------------------------------------------------


@_cached_map
def _xn_minus_1(tower: FieldTower, seed: int) -> FactoredPoly:
    return factor_xn_minus_1(tower.n, tower.base, seed)


def _field_entries(config: CommandConfig):
    """Yield (p, s, n, tower, factorization of x^n - 1) for each field to cover; the
    factorization and its divisor tables are kept per tower and seed (_xn_minus_1)."""
    grid = VERIFICATION_GRID if config.grid else [(config.p, config.s, config.n)]
    for p, s, n in grid:
        tower = build_tower(p, s, n, size_bound=config.size_bound)
        yield p, s, n, tower, _xn_minus_1(tower, config.seed)


def cmd_factor(config: CommandConfig) -> ReportDocument:
    fq = base_field(config.p, config.s)
    if fq.size > config.size_bound:
        raise QOrderError(
            f"base field with {fq.size} elements exceeds the size bound {config.size_bound}"
        )
    fp = factor_xn_minus_1(config.n, fq, config.seed)
    rows = [
        {
            "factor": poly_tokens(g),
            "pretty": str(g),
            "degree": g.degree,
            "multiplicity": e,
            "self_reciprocal": is_self_reciprocal(g),
        }
        for g, e in fp.factors
    ]
    counterexamples = []
    expected = FqPoly.x_pow_minus_one(fq, config.n)
    if fp.expand() != expected:
        counterexamples.append(
            {"product": poly_tokens(fp.expand()), "expected": poly_tokens(expected)}
        )
    config.extra["divisor_count"] = fp.divisor_count()
    return ReportDocument(meta=config.meta(), rows=rows, counterexamples=counterexamples)


def cmd_orders(config: CommandConfig) -> ReportDocument:
    [(_, _, _, tower, fp)] = _field_entries(config)
    report = classification_report(
        tower,
        fp,
        check=config.check,
        mode="fast" if config.mode == "fast" else "oracle",
        size_bound=config.size_bound,
    )
    rows = []
    counterexamples = []
    for r in report.rows:
        rows.append(
            {
                "divisor": poly_tokens(r.divisor),
                "pretty": str(r.divisor),
                "element_count": r.element_count,
                "phi_q": r.phi,
                "match": r.count_matches_phi,
                "char_count": r.char_count,
                "reciprocal": poly_tokens(r.reciprocal),
                "self_reciprocal": r.self_reciprocal,
            }
        )
        if not r.count_matches_phi:
            counterexamples.append(
                {
                    "divisor": poly_tokens(r.divisor),
                    "element_count": r.element_count,
                    "phi_q": r.phi,
                }
            )
    return ReportDocument(meta=config.meta(), rows=rows, counterexamples=counterexamples)


def cmd_verify_theorem(config: CommandConfig) -> ReportDocument:
    rows = []
    counterexamples = []
    for p, s, n, tower, fp in _field_entries(config):
        sweep = reciprocal_order_sweep(
            tower, fp, check=config.check, size_bound=config.size_bound
        )
        rows.append(
            {
                "p": p,
                "s": s,
                "n": n,
                "elements": sweep.total,
                "mismatches": len(sweep.mismatches),
            }
        )
        for x, scanned, reversed_order in sweep.mismatches:
            counterexamples.append(
                {
                    "p": p,
                    "s": s,
                    "n": n,
                    "label": element_tokens(x),
                    "order_bruteforce": poly_tokens(scanned),
                    "reciprocal_of_element_order": poly_tokens(reversed_order),
                }
            )
    return ReportDocument(meta=config.meta(), rows=rows, counterexamples=counterexamples)


def cmd_corollary1(config: CommandConfig) -> ReportDocument:
    rows = []
    counterexamples = []
    for p, s, n, tower, fp in _field_entries(config):
        result = orders_coincide_iff_self_reciprocal(
            tower, fp, check=config.check, size_bound=config.size_bound
        )
        rows.append({"p": p, "s": s, "n": n, "holds": result.holds})
        if not result.holds:
            x, m, char_order = result.counterexample
            counterexamples.append(
                {
                    "p": p,
                    "s": s,
                    "n": n,
                    "label": element_tokens(x),
                    "element_order": poly_tokens(m),
                    "char_order": poly_tokens(char_order),
                    "self_reciprocal": is_self_reciprocal(m),
                }
            )
    return ReportDocument(meta=config.meta(), rows=rows, counterexamples=counterexamples)


def cmd_corollary2(config: CommandConfig) -> ReportDocument:
    n_max = config.extra.get("n_max", MEYN_SWEEP_MAX_N)
    q_values = (
        MEYN_SWEEP_PRIME_POWERS if config.grid else (config.p**config.s,)
    )
    rows = []
    counterexamples = []
    for q in q_values:
        for verdict in meyn_sweep(q, range(1, n_max + 1), seed=config.seed):
            n = verdict.n
            rows.append(
                {
                    "q": q,
                    "n": n,
                    "u": verdict.u,
                    "v": verdict.v,
                    "criterion_holds": verdict.criterion_holds,
                    "witness_j": verdict.witness_j,
                    "all_divisors_self_reciprocal": verdict.all_divisors_self_reciprocal,
                    "agree": verdict.consistent,
                }
            )
            if not verdict.consistent:
                counterexamples.append(
                    {
                        "q": q,
                        "n": n,
                        "criterion_holds": verdict.criterion_holds,
                        "all_divisors_self_reciprocal": verdict.all_divisors_self_reciprocal,
                    }
                )
    return ReportDocument(meta=config.meta(), rows=rows, counterexamples=counterexamples)


def cmd_char_order(config: CommandConfig, label_text: str) -> ReportDocument:
    [(_, _, _, tower, fp)] = _field_entries(config)
    label = parse_element(tower, label_text)
    chi = AdditiveCharacter(label)
    m = fq_order(label, fp)
    config.extra["label"] = element_tokens(label)
    row = {
        "label": element_tokens(label),
        "element_order": poly_tokens(m),
        "element_order_pretty": str(m),
        "reciprocal": poly_tokens(monic_reciprocal(m)),
    }
    counterexamples = []
    if config.mode in ("oracle", "both"):
        scanned = char_order_bruteforce(chi, fp, check=config.check)
        row["order_bruteforce"] = poly_tokens(scanned)
    if config.mode in ("fast", "both"):
        fast = char_order_fast(chi, fp)
        row["order_fast"] = poly_tokens(fast)
    if config.mode == "both":
        row["agree"] = row["order_bruteforce"] == row["order_fast"]
        if not row["agree"]:
            counterexamples.append(
                {
                    "label": row["label"],
                    "order_bruteforce": row["order_bruteforce"],
                    "order_fast": row["order_fast"],
                }
            )
    return ReportDocument(
        meta=config.meta(), rows=[row], counterexamples=counterexamples
    )


def cmd_pnbt(config: CommandConfig) -> ReportDocument:
    rows = []
    counterexamples = []
    for p, s, n, tower, fp in _field_entries(config):
        element = find_primitive_normal(tower, fp, size_bound=config.size_bound)
        divisors = divisors_of_xn_minus_1(fp)  # normal: order x^n - 1, the last divisor
        normal_count = _element_order(tower, divisors).count(len(divisors) - 1)
        phi_full = phi_q(fp)
        rows.append(
            {
                "p": p,
                "s": s,
                "n": n,
                "element": element_tokens(element),
                "multiplicative_order": multiplicative_order(element),
                "group_order": tower.size - 1,
                "normal_count": normal_count,
                "phi_q_full": phi_full,
            }
        )
        if normal_count != phi_full or phi_full <= 0:
            counterexamples.append(
                {"p": p, "s": s, "n": n, "normal_count": normal_count, "phi_q_full": phi_full}
            )
    return ReportDocument(meta=config.meta(), rows=rows, counterexamples=counterexamples)


# -- argument parsing -------------------------------------------------------------

#: The options each command reads besides --seed and --format, which all read.  With
#: --grid the fields are fixed, so none reads --p, --s or --n; --mode fast runs no
#: character scan, so reads no --check.
_READS = {
    "factor": ("p", "s", "n", "size_bound"),
    "orders": ("p", "s", "n", "size_bound", "mode", "check"),
    "verify-theorem": ("p", "s", "n", "size_bound", "check", "grid"),
    "corollary1": ("p", "s", "n", "size_bound", "check", "grid"),
    "corollary2": ("p", "s", "grid", "n_max"),
    "char-order": ("p", "s", "n", "size_bound", "mode", "check", "label"),
    "pnbt": ("p", "s", "n", "size_bound", "grid"),
}
#: Every option some command does not read, in the order their usage errors take.
_CHECKED = ("grid", "mode", "check", "n", "p", "s", "size_bound", "n_max", "label")
#: Each command's one-line help in `qorder --help`.
_HELP = {
    "factor": "factor x^n - 1 over F_q",
    "orders": "partition F_{q^n} by element order and cross-check phi_q",
    "verify-theorem": "compare character orders against reciprocal element orders",
    "corollary1": "check order coincidence happens exactly on self-reciprocal orders",
    "corollary2": "tabulate the Meyn criterion against the factorization scan",
    "char-order": "orders of one character chi_a",
    "pnbt": "find a primitive normal element and count normal elements",
}


def build_parser() -> argparse.ArgumentParser:
    commands = "".join(f"\n  {name:14}  {text}" for name, text in _HELP.items())
    parser = argparse.ArgumentParser(
        prog="qorder",
        description="Exact F_q-orders of finite-field elements and additive characters.",
        epilog=f"commands:{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_READS, metavar="command", help="see commands below")
    parser.add_argument("label", nargs="?", help="char-order's element tokens, e.g. '0,1'")
    parser.add_argument("--p", type=int, default=2, help="characteristic (prime)")
    parser.add_argument("--s", type=int, default=1, help="base degree: q = p^s")
    parser.add_argument("--n", type=int, help="extension degree")
    parser.add_argument("--seed", type=int, default=0, help="factorization seed")
    parser.add_argument(
        "--size-bound",
        type=int,
        default=DEFAULT_SIZE_BOUND,
        help="largest allowed field cardinality",
    )
    parser.add_argument("--format", choices=_RENDERERS, default="text")
    parser.add_argument("--mode", choices=_MODES, default="both")
    parser.add_argument("--check", choices=_CHECK_MODES, default="basis")
    parser.add_argument(
        "--grid",
        action="store_true",
        help="sweep the standard verification grid instead of one field",
    )
    parser.add_argument(
        "--n-max", type=int, help=f"corollary2: check n = 1..n_max (default {MEYN_SWEEP_MAX_N})"
    )
    return parser


def _resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> CommandConfig:
    env_seed = os.environ.get("QORDER_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError as exc:
            raise ParseError(f"QORDER_SEED={env_seed!r} is not an integer") from exc
    command, reads = args.command, set(_READS[args.command])
    if args.grid:
        reads -= {"p", "s", "n"}
    if args.mode == "fast":
        reads.discard("check")
    # No option is silently ignored: one the command does not read keeps its default.
    for dest in _CHECKED:
        if dest not in reads and getattr(args, dest) != parser.get_default(dest):
            flag = "a label" if dest == "label" else "--" + dest.replace("_", "-")
            if (command, dest) == ("corollary2", "n"):
                flag += "; use --n-max"
            elif dest in _READS[command]:  # dropped above for --grid or --mode fast
                flag += " with --mode fast" if dest == "check" else " with --grid"
            raise ParseError(f"{command} does not accept {flag}")
    if args.n_max is not None and args.n_max < 1:
        raise ParseError(f"--n-max must be at least 1, got {args.n_max}")
    if not is_prime(args.p):  # corollary2 builds no tower that would check it
        raise NonPrimeError(f"{args.p} is not prime")
    if args.s < 1:
        raise ParseError(f"--s must be at least 1, got {args.s}")
    if args.n is None and "n" in reads:
        raise ParseError("--n is required for this command")
    if args.n is not None and args.n < 1:
        raise ParseError(f"--n must be at least 1, got {args.n}")
    config = CommandConfig(**{name: getattr(args, name) for name in _OPTIONS})
    if command == "corollary2":
        config.extra["n_max"] = MEYN_SWEEP_MAX_N if args.n_max is None else args.n_max
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_intermixed_args(argv)
        if args.command == "char-order" and args.label is None:
            parser.error("the following arguments are required: label")
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    try:
        config = _resolve_config(args, parser)
        handler = {
            "factor": cmd_factor,
            "orders": cmd_orders,
            "verify-theorem": cmd_verify_theorem,
            "corollary1": cmd_corollary1,
            "corollary2": cmd_corollary2,
            "char-order": lambda config: cmd_char_order(config, args.label),
            "pnbt": cmd_pnbt,
        }[config.command]
        doc = handler(config)
    except (PrimitiveNormalNotFoundError, AssertionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (QOrderError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a request too large for this machine, not a failed check
        print("error: out of memory", file=sys.stderr)
        return 2
    try:
        print(_RENDERERS[config.format](doc))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): exit as a SIGPIPE-killed tool
        # would, with stdout on devnull so the flush at shutdown cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0 if doc.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
