import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import qorder
from qorder.classify import MEYN_SWEEP_MAX_N
from qorder.cli import main
from qorder.errors import PrimitiveNormalNotFoundError


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactorCommand:
    def test_q2_n3(self, capsys):
        code, out, _ = run_cli(capsys, "--p", "2", "--s", "1", "--n", "3", "factor")
        assert code == 0
        assert "divisor_count = 4" in out
        assert "1,1,1" in out  # x^2 + x + 1
        assert "verdict: pass" in out

    def test_q2_n4_single_factor(self, capsys):
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "4", "factor", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["divisor_count"] == 5
        assert doc["rows"] == [
            {
                "factor": "1,1",
                "pretty": "x + 1",
                "degree": 1,
                "multiplicity": 4,
                "self_reciprocal": True,
            }
        ]

    def test_non_prime_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "--p", "4", "--n", "2", "factor")
        assert code == 2
        assert "not prime" in err
        assert out == ""

    def test_missing_n_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "--p", "2", "factor")
        assert code == 2
        assert "--n" in err


class TestOrdersCommand:
    def test_f4_rows_match(self, capsys):
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "2", "orders", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert [r["element_count"] for r in doc["rows"]] == [1, 1, 2]
        assert all(r["match"] for r in doc["rows"])
        assert [r["phi_q"] for r in doc["rows"]] == [1, 1, 2]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "2", "orders", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("divisor,")
        assert len(lines) == 4  # header + three divisors


class TestVerifyTheorem:
    def test_single_field(self, capsys):
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "3", "verify-theorem")
        assert code == 0
        assert "verdict: pass" in out

    def test_flags_after_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theorem", "--p", "3", "--n", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["p"] == 3
        assert doc["rows"][0]["elements"] == 9
        assert doc["rows"][0]["mismatches"] == 0

    def test_exhaustive_check_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "--p", "2", "--n", "4", "--check", "exhaustive", "verify-theorem", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["check"] == "exhaustive"
        assert doc["rows"][0]["mismatches"] == 0

    def test_grid_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theorem", "--grid", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 34
        assert doc["counterexamples"] == []
        assert doc["verdict"] == "pass"
        assert sum(r["elements"] for r in doc["rows"]) == 7084


class TestCorollaries:
    def test_corollary1_f128(self, capsys):
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "7", "corollary1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == [{"p": 2, "s": 1, "n": 7, "holds": True}]

    def test_corollary2_q2(self, capsys):
        code, out, _ = run_cli(
            capsys, "--p", "2", "corollary2", "--n-max", "8", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        holds = {r["n"]: r["criterion_holds"] for r in doc["rows"]}
        assert holds == {1: True, 2: True, 3: True, 4: True, 5: True, 6: True, 7: False, 8: True}
        assert all(r["agree"] for r in doc["rows"])
        assert doc["rows"][2]["witness_j"] == 1  # n = 3

    def test_corollary2_q3_n4(self, capsys):
        code, out, _ = run_cli(
            capsys, "--p", "3", "corollary2", "--n-max", "4", "--format", "json"
        )
        doc = json.loads(out)
        row = doc["rows"][3]
        assert row["n"] == 4 and row["criterion_holds"] and row["witness_j"] == 1

    def test_corollary2_grid_covers_prime_powers(self, capsys):
        code, out, _ = run_cli(
            capsys, "corollary2", "--grid", "--n-max", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert sorted({r["q"] for r in doc["rows"]}) == [2, 3, 4, 5, 7, 8, 9]
        assert all(r["agree"] for r in doc["rows"])


class TestCharOrder:
    def test_zero_label(self, capsys):
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "2", "char-order", "0", "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["element_order"] == "1"
        assert row["order_bruteforce"] == "1"
        assert row["order_fast"] == "1"
        assert row["agree"] is True

    def test_one_label_f4(self, capsys):
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "2", "char-order", "1", "--format", "json")
        row = json.loads(out)["rows"][0]
        assert row["element_order"] == "1,1"
        assert row["order_bruteforce"] == "1,1"

    def test_omega_label_f4(self, capsys):
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "2", "char-order", "0,1", "--format", "json")
        row = json.loads(out)["rows"][0]
        assert row["element_order"] == "1,0,1"
        assert row["reciprocal"] == "1,0,1"
        assert row["agree"] is True

    def test_mode_oracle_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "--p", "2", "--n", "2", "--mode", "oracle", "char-order", "0,1", "--format", "json"
        )
        row = json.loads(out)["rows"][0]
        assert "order_bruteforce" in row and "order_fast" not in row

    def test_options_between_command_and_label(self, capsys):
        code, out, _ = run_cli(capsys, "char-order", "--n", "2", "0,1", "--format", "json")
        assert code == 0
        assert out == run_cli(capsys, "--n", "2", "--format", "json", "char-order", "0,1")[1]
        assert json.loads(out)["meta"]["label"] == "0,1"

    def test_missing_label_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "--n", "2", "char-order")
        assert code == 2 and out == ""
        assert "required: label" in err

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "--p", "2", "--n", "2", "char-order", "junk")
        assert code == 2
        assert "malformed" in err

    @pytest.mark.parametrize("label", ["1_0", "+1", "\u0661"])
    def test_parse_error_on_non_digit_tokens(self, capsys, label):
        code, out, err = run_cli(capsys, "--p", "13", "--n", "2", "char-order", label)
        assert code == 2 and out == ""
        assert f"malformed element text {label!r}" in err


class TestPnbt:
    def test_f4(self, capsys):
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "2", "pnbt", "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["element"] == "0,1"
        assert row["multiplicative_order"] == 3
        assert row["normal_count"] == row["phi_q_full"] == 2

    def test_f8(self, capsys):
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "3", "pnbt", "--format", "json")
        row = json.loads(out)["rows"][0]
        assert row["normal_count"] == 3


class TestConfigPlumbing:
    def test_meta_echoes_config(self, capsys):
        code, out, _ = run_cli(
            capsys, "--p", "2", "--n", "2", "--seed", "5", "--check", "exhaustive",
            "orders", "--format", "json",
        )
        meta = json.loads(out)["meta"]
        assert meta["seed"] == 5
        assert meta["check"] == "exhaustive"
        assert meta["size_bound"] == 1 << 24
        assert meta["tool"] == "qorder"

    @pytest.mark.parametrize(
        "argv,extra",
        [
            (("--p", "3", "--n", "4", "factor"), ["divisor_count"]),
            (("--p", "2", "--n", "3", "orders"), []),
            (("--p", "2", "--n", "3", "verify-theorem"), []),
            (("--p", "2", "--n", "3", "corollary1"), []),
            (("--p", "2", "corollary2", "--n-max", "3"), ["n_max"]),
            (("--p", "2", "--n", "3", "char-order", "0,1,1"), ["label"]),
            (("--p", "2", "--n", "3", "pnbt"), []),
        ],
    )
    def test_json_meta_key_order(self, capsys, argv, extra):
        # tool and version, the options in a fixed order, then the command's extras
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert list(json.loads(out)["meta"]) == [
            "tool", "version", "command", "p", "s", "n", "seed", "size_bound",
            "format", "mode", "check", "grid", *extra,
        ]

    def test_divisor_bound_is_named_fixed(self, capsys):
        # x^63 - 1 over F_2 has 8192 divisors: the oracle scan refuses to list them,
        # and the message says no option raises the bound, --size-bound included
        field = ("--p", "2", "--n", "63", "--size-bound", str(10**23))
        code, out, err = run_cli(capsys, *field, "char-order", "1,1")
        assert code == 2
        assert out == ""
        assert err == (
            "error: 8192 divisors exceed the fixed bound 4096 on a divisor list, "
            "which no option raises\n"
        )
        # the fast route builds no divisor list
        code, out, _ = run_cli(capsys, *field, "--mode", "fast", "char-order", "1,1")
        assert code == 0
        assert "verdict: pass" in out

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QORDER_SEED", "42")
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "2", "--seed", "5", "orders", "--format", "json")
        assert json.loads(out)["meta"]["seed"] == 42

    def test_env_seed_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("QORDER_SEED", "abc")
        code, _, err = run_cli(capsys, "--p", "2", "--n", "2", "orders")
        assert code == 2
        assert "QORDER_SEED" in err

    def test_size_bound_enforced(self, capsys):
        code, _, err = run_cli(capsys, "--p", "2", "--n", "12", "--size-bound", "1024", "orders")
        assert code == 2
        assert "exceeds" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "3", "factor", "--grid"),
            ("--grid", "--n", "2", "orders"),
            ("--n", "2", "char-order", "0,1", "--grid"),
        ],
    )
    def test_grid_rejected_where_unsupported(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "does not accept --grid" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--mode", "fast", "verify-theorem", "--grid"),
            ("--n", "2", "corollary1", "--mode", "oracle"),
            ("--mode", "fast", "corollary2", "--n-max", "3"),
            ("--n", "2", "pnbt", "--mode", "oracle"),
            ("--n", "3", "factor", "--mode", "fast"),
        ],
    )
    def test_mode_rejected_where_ignored(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {argv[2]} does not accept --mode" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "--n", "3", "--check", "exhaustive"),
            ("corollary2", "--check", "exhaustive", "--n-max", "3"),
            ("pnbt", "--n", "2", "--check", "exhaustive", "--grid"),
            ("orders", "--n", "2", "--check", "exhaustive", "--mode", "fast"),
            ("char-order", "0,1", "--n", "2", "--mode", "fast", "--check", "exhaustive"),
        ],
    )
    def test_check_rejected_where_ignored(self, capsys, argv):
        # orders and char-order read --check except under --mode fast, and say so
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {argv[0]} does not accept --check" in err
        assert ("with --mode fast" in err) == ("fast" in argv)
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("corollary2", "--n", "5"),
            ("corollary2", "--n", "3", "--grid", "--n-max", "2"),
            ("verify-theorem", "--n", "2", "--grid"),
            ("corollary1", "--grid", "--n", "2"),
            ("pnbt", "--n", "2", "--grid"),
        ],
    )
    def test_n_rejected_where_ignored(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {argv[0]} does not accept --n" in err
        assert ("--n-max" in err) == (argv[0] == "corollary2")
        assert out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--n-max", "3", "factor"), "factor does not accept --n-max"),
            (("verify-theorem", "--n", "2", "--n-max", "3"), "verify-theorem does not accept --n-max"),
            (("factor", "--n", "3", "0,1"), "factor does not accept a label"),
            (("corollary2", "--grid", "1"), "corollary2 does not accept a label"),
        ],
    )
    def test_n_max_and_label_rejected_where_unread(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_rejected(self, capsys, n_max):
        code, out, err = run_cli(capsys, "corollary2", "--n-max", n_max)
        assert code == 2
        assert "--n-max must be at least 1" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("corollary2", "--grid", "--p", "3", "--n-max", "1"),
            ("corollary2", "--grid", "--s", "2", "--n-max", "1"),
            ("verify-theorem", "--grid", "--p", "3"),
            ("pnbt", "--grid", "--p", "5"),
            ("corollary1", "--grid", "--s", "2"),
        ],
    )
    def test_p_s_rejected_with_grid(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {argv[0]} does not accept {argv[2]} with --grid" in err
        assert out == ""

    @pytest.mark.parametrize("extra", [(), ("--grid",)])
    def test_size_bound_rejected_on_corollary2(self, capsys, extra):
        code, out, err = run_cli(capsys, "corollary2", "--size-bound", "5", "--n-max", "1", *extra)
        assert code == 2
        assert "error: corollary2 does not accept --size-bound" in err
        assert out == ""

    @pytest.mark.parametrize("p", ["4", "1"])
    def test_non_prime_p_rejected_on_corollary2(self, capsys, p):
        code, out, err = run_cli(capsys, "--p", p, "corollary2", "--n-max", "2")
        assert code == 2
        assert f"error: {p} is not prime" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--s", "0", "corollary2", "--n-max", "2"),
            ("--s", "-1", "corollary2", "--n-max", "2"),
            ("--s", "0", "--n", "2", "orders"),
        ],
    )
    def test_s_below_one_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"error: --s must be at least 1, got {argv[1]}\n"
        assert out == ""

    def test_prime_power_q_accepted_on_corollary2(self, capsys):
        code, out, _ = run_cli(
            capsys, "--p", "3", "--s", "2", "corollary2", "--n-max", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["meta"]["p"], doc["meta"]["s"]) == (3, 2)
        assert [(r["q"], r["n"]) for r in doc["rows"]] == [(9, 1), (9, 2)]

    def test_default_p_s_size_bound_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "--p", "2", "--s", "1", "--size-bound", str(1 << 24),
            "corollary2", "--grid", "--n-max", "1", "--format", "json",
        )
        assert code == 0
        meta = json.loads(out)["meta"]
        assert (meta["p"], meta["s"], meta["n_max"]) == (2, 1, 1)
        code, out, _ = run_cli(capsys, "--p", "3", "--s", "2", "corollary2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["n_max"] == MEYN_SWEEP_MAX_N
        assert [r["n"] for r in doc["rows"]] == list(range(1, MEYN_SWEEP_MAX_N + 1))
        assert {r["q"] for r in doc["rows"]} == {9}

    def test_check_accepted_where_scanned(self, capsys):
        for argv in (
            ("--n", "2", "--check", "exhaustive", "char-order", "0,1", "--format", "json"),
            ("--n", "2", "orders", "--mode", "oracle", "--check", "exhaustive", "--format", "json"),
            ("--n", "2", "--check", "basis", "pnbt", "--format", "json"),
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert json.loads(out)["meta"]["check"] == argv[argv.index("--check") + 1]

    def test_n_max_accepted_before_command(self, capsys):
        code, out, _ = run_cli(capsys, "--n-max", "3", "corollary2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["n_max"] == 3
        assert [r["n"] for r in doc["rows"]] == [1, 2, 3]

    def test_default_mode_accepted_where_ignored(self, capsys):
        code, out, _ = run_cli(capsys, "--n", "2", "pnbt", "--mode", "both", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["mode"] == "both"

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: qorder")
        for command in (
            "factor", "orders", "verify-theorem", "corollary1", "corollary2", "char-order", "pnbt"
        ):
            assert f"\n  {command} " in out


class TestFactorizationMemo:
    def test_one_factorization_per_tower_and_seed(self, capsys, monkeypatch):
        # commands in one process share x^n - 1's factorization per tower and
        # seed; a seed no other test passes keeps the count to this test's calls
        import qorder.cli as cli_mod

        calls = []

        def counted(n, field, seed=0):
            calls.append((n, field, seed))
            return qorder.factor_xn_minus_1(n, field, seed)

        def grid(seed):
            args = ("corollary1", "--grid", "--format", "json", "--seed", str(seed))
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            return out

        monkeypatch.setattr(cli_mod, "factor_xn_minus_1", counted)
        reports, counts = [], []
        for seed in (2727, 2727, 2728):
            before = len(calls)
            reports.append(grid(seed))
            counts.append(len(calls) - before)
        fields = len(qorder.VERIFICATION_GRID)
        assert counts == [fields, 0, fields]
        assert {seed for _, _, seed in calls} == {2727, 2728}

        monkeypatch.setattr(
            cli_mod, "_xn_minus_1", lambda t, seed: qorder.factor_xn_minus_1(t.n, t.base, seed)
        )
        assert reports == [grid(2727), grid(2727), grid(2728)]


class TestReportPlumbing:
    def test_verdict_follows_counterexamples(self):
        from qorder.cli import ReportDocument, render_csv, render_json, render_text

        ok = ReportDocument(meta={"tool": "qorder"}, rows=[{"a": 1}], counterexamples=[])
        bad = ReportDocument(
            meta={"tool": "qorder"},
            rows=[{"a": 1}],
            counterexamples=[{"a": 1, "expected": 2}],
        )
        assert ok.verdict == "pass" and bad.verdict == "fail"
        assert "verdict: fail" in render_text(bad)
        assert json.loads(render_json(bad))["verdict"] == "fail"
        assert render_csv(bad) == "a\n1"

    def test_failing_verdict_exits_1(self, capsys, monkeypatch):
        import qorder.cli as cli_mod

        def fake_factor(config):
            return cli_mod.ReportDocument(
                meta=config.meta(), rows=[], counterexamples=[{"boom": 1}]
            )

        monkeypatch.setattr(cli_mod, "cmd_factor", fake_factor)
        code, out, _ = run_cli(capsys, "--p", "2", "--n", "3", "factor")
        assert code == 1
        assert "verdict: fail" in out

    @pytest.mark.parametrize(
        "target,exc,argv",
        [
            (
                "find_primitive_normal",
                PrimitiveNormalNotFoundError("arithmetic is broken"),
                ("--p", "2", "--n", "3", "pnbt"),
            ),
            (
                "reciprocal_order_sweep",
                AssertionError("invariant violated"),
                ("--p", "2", "--n", "3", "verify-theorem"),
            ),
        ],
    )
    def test_internal_error_exits_3(self, capsys, monkeypatch, target, exc, argv):
        import qorder.cli as cli_mod

        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_mod, target, broken)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error:") and err.count("\n") == 1
        assert str(exc) in err


def child_env():
    """The environment of a `python -m qorder` child that imports the qorder under test."""
    path = [str(Path(qorder.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_closed_stdout_exits_141():
    # the reader is gone before the report is written, as with `| head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "qorder", "--p", "2", "--n", "2", "verify-theorem"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 141
    assert err == b""


def test_out_of_memory_exits_2():
    # 2^40 elements need a 2 TB index array; the address-space limit is the
    # child's own, so the MemoryError comes at once, whatever the machine has
    limit = 1 << 30

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    big = ["--p", "2", "--n", "40", "--size-bound", str(10**22)]
    proc = subprocess.run(
        [sys.executable, "-m", "qorder", *big, "pnbt"],
        capture_output=True,
        text=True,
        env=child_env(),
        preexec_fn=limit_child,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qorder", "--p", "2", "--n", "2", "verify-theorem"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "verdict: pass" in proc.stdout


@pytest.mark.parametrize("n", [1, 2, 3])
def test_char_order_with_a_61_bit_prime(n):
    # p = 2^61 - 1: Frobenius is a power, F_p's lex order is range(p), and the
    # canonical modulus search never copies it
    field = ["--p", str(2**61 - 1), "--n", str(n), "--size-bound", str(10**72)]
    proc = subprocess.run(
        [sys.executable, "-m", "qorder", *field, "char-order", "5"],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: pass" in proc.stdout


@pytest.mark.parametrize("p", [318665857834031151167461, 3317044064679887385961981])
def test_primes_past_the_exact_test_exit_2(capsys, p):
    # psi_12, composite, and psi_13, where the primality test stops being exact
    code, out, err = run_cli(capsys, "--p", str(p), "--n", "1", "char-order", "5")
    assert code == 2
    assert out == "" and err.startswith("error:")
