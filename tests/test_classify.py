import json
from collections import Counter
from math import gcd

import pytest

from qorder import (
    AdditiveCharacter,
    FFElement,
    FieldMismatchError,
    FieldTower,
    FqPoly,
    MEYN_SWEEP_MAX_N,
    MEYN_SWEEP_PRIME_POWERS,
    VERIFICATION_GRID,
    ZeroElementError,
    base_field,
    build_tower,
    char_order_bruteforce,
    characters_by_order,
    classification_report,
    divisor_phi_table,
    divisors_of_xn_minus_1,
    element_tokens,
    elements_by_order,
    factor_xn_minus_1,
    find_primitive_normal,
    fq_order,
    is_normal,
    is_primitive,
    is_self_reciprocal,
    meyn_criterion,
    meyn_sweep,
    monic_reciprocal,
    multiplicative_order,
    orders_coincide_iff_self_reciprocal,
    phi_q,
    reciprocal_order_sweep,
    smallest_irreducible,
)
from qorder import classify, poly
from qorder.action import _action_matrix, _element_order
from qorder.characters import _char_order, _trace_form_matrix
from qorder.cli import main
from qorder.errors import SizeExceededError

from conftest import tower_and_factors

F2 = base_field(2)


class TestElementsByOrder:
    def test_frozen_f4(self, f4):
        t, fp = f4
        part = elements_by_order(t, fp)
        assert part[FqPoly.one(F2)] == {FFElement(t, 0)}
        assert part[FqPoly(F2, (1, 1))] == {FFElement(t, 1)}
        assert part[FqPoly(F2, (1, 0, 1))] == {FFElement(t, 2), FFElement(t, 3)}

    def test_partition_properties(self, small_grid):
        for t, fp in small_grid:
            part = elements_by_order(t, fp)
            assert set(part) == set(divisors_of_xn_minus_1(fp))
            assert sum(len(v) for v in part.values()) == t.size
            for f, elems in part.items():
                assert len(elems) == phi_q(f) > 0

    def test_size_bound(self):
        t = build_tower(2, 1, 6)
        fp = factor_xn_minus_1(6, t.base)
        with pytest.raises(SizeExceededError):
            elements_by_order(t, fp, size_bound=32)


@pytest.mark.parametrize(
    "sweep",
    [
        elements_by_order,
        characters_by_order,
        reciprocal_order_sweep,
        orders_coincide_iff_self_reciprocal,
        classification_report,
        find_primitive_normal,
    ],
)
def test_sweeps_reject_factorization_of_another_xm_minus_1(sweep):
    t = build_tower(2, 1, 4)
    with pytest.raises(FieldMismatchError):
        sweep(t, factor_xn_minus_1(2, t.base))


@pytest.mark.parametrize("sweep", [characters_by_order, classification_report])
@pytest.mark.parametrize("mode", ["oracle", "fast"])
@pytest.mark.parametrize("p,s,n", [(2, 1, 4), (3, 1, 2)])
def test_order_reports_reject_an_unknown_check_in_both_modes(sweep, mode, p, s, n):
    # fast mode runs no character scan, yet takes the same checks as oracle mode
    t, fp = tower_and_factors(p, s, n)
    with pytest.raises(ValueError, match="check must be one of"):
        sweep(t, fp, mode=mode, check="nope")


class TestCharactersByOrder:
    def test_modes_agree(self, small_grid):
        # over F_4, x^3 - 1 = (x + 1)(x + 2)(x + 3) with x + 2 and x + 3 each
        # other's reciprocals, and x^7 - 1 over F_2 has a non-self-reciprocal
        # cubic pair, so fast mode must read each order's reciprocal, not the order
        for t, fp in [*small_grid, tower_and_factors(2, 2, 3), tower_and_factors(2, 1, 7)]:
            oracle = characters_by_order(t, fp, mode="oracle")
            fast = characters_by_order(t, fp, mode="fast")
            assert oracle == fast

    def test_special_sets(self, small_grid):
        for t, fp in small_grid:
            part = characters_by_order(t, fp, mode="oracle")
            # order 1: only the trivial character
            assert part[FqPoly.one(t.base)] == {AdditiveCharacter(FFElement(t, 0))}
            # order x - 1: exactly the nonzero base-field labels
            x_minus_1 = FqPoly(t.base, (t.base.neg(1), 1))
            assert part[x_minus_1] == {
                AdditiveCharacter(FFElement(t, c)) for c in range(1, t.q)
            }
            assert len(part[x_minus_1]) == t.q - 1

    def test_full_order_labels_are_normal(self, small_grid):
        for t, fp in small_grid:
            part = characters_by_order(t, fp, mode="oracle")
            full = fp.expand()
            assert part[full] == {
                AdditiveCharacter(FFElement(t, v))
                for v in range(t.size)
                if is_normal(FFElement(t, v), fp)
            }

    def test_reciprocal_structure(self, small_grid):
        # the characters of order f are labeled by the elements of order f*
        for t, fp in small_grid:
            part = characters_by_order(t, fp, mode="oracle")
            by_elem = elements_by_order(t, fp)
            for f, chars in part.items():
                assert {c.label for c in chars} == by_elem[monic_reciprocal(f)]


class TestCoincidence:
    def test_f4_holds(self, f4):
        t, fp = f4
        assert orders_coincide_iff_self_reciprocal(t, fp)

    def test_n1_trivial(self):
        t = build_tower(3, 1, 1)
        fp = factor_xn_minus_1(1, t.base)
        assert orders_coincide_iff_self_reciprocal(t, fp).holds

    def test_q2_n7_biconditional_with_noncoinciding_elements(self):
        t = build_tower(2, 1, 7)
        fp = factor_xn_minus_1(7, t.base)
        check = orders_coincide_iff_self_reciprocal(t, fp)
        assert check.holds and check.counterexample is None
        # and non-coinciding elements do exist in this field
        diffs = 0
        for v in range(t.size):
            x = FFElement(t, v)
            if char_order_bruteforce(AdditiveCharacter(x), fp) != fq_order(x, fp):
                diffs += 1
        # labels whose order has a single cubic factor: the two cubics and
        # their products with x+1, each realized by phi = 7 elements
        assert diffs == 28

    def test_holds_across_small_grid(self, small_grid):
        for t, fp in small_grid:
            assert orders_coincide_iff_self_reciprocal(t, fp).holds


class TestReciprocalOrderSweep:
    def test_f8(self, f8):
        t, fp = f8
        sweep = reciprocal_order_sweep(t, fp)
        assert sweep.passed
        assert sweep.total == 8
        assert sweep.mismatches == ()

    def test_exhaustive_mode(self, f4):
        t, fp = f4
        assert reciprocal_order_sweep(t, fp, check="exhaustive").passed


class TestMeyn:
    def test_frozen_witnesses(self):
        v = meyn_criterion(2, 3)
        assert v.criterion_holds and v.witness_j == 1 and v.u == 0 and v.v == 3
        v = meyn_criterion(2, 7)
        assert not v.criterion_holds and v.witness_j is None
        assert not v.all_divisors_self_reciprocal
        v = meyn_criterion(3, 4)
        assert v.criterion_holds and v.witness_j == 1

    def test_q2_first_eight(self):
        # n=5 holds: 2^2 = 4 = -1 (mod 5), and the quartic factor of x^5-1
        # over F_2 is palindromic
        expected = {1: True, 2: True, 3: True, 4: True, 5: True, 6: True, 7: False, 8: True}
        for n, holds in expected.items():
            verdict = meyn_criterion(2, n)
            assert verdict.criterion_holds is holds, n
            assert verdict.consistent

    def test_decomposition(self):
        v = meyn_criterion(2, 12)
        assert (v.u, v.v) == (2, 3)
        v = meyn_criterion(3, 18)
        assert (v.u, v.v) == (2, 2)
        v = meyn_criterion(4, 8)  # p = 2 even though q = 4
        assert (v.u, v.v) == (3, 1)
        assert v.criterion_holds and v.witness_j == 1

    def test_biconditional_sample(self):
        for q in (2, 3, 4):
            for n in range(1, 13):
                assert meyn_criterion(q, n).consistent, (q, n)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            meyn_criterion(6, 3)
        with pytest.raises(ValueError):
            meyn_criterion(2, 0)

    def test_sweep_constants(self):
        assert MEYN_SWEEP_PRIME_POWERS == (2, 3, 4, 5, 7, 8, 9)
        assert MEYN_SWEEP_MAX_N == 20

    def test_corollary2_splits_each_cyclotomic_part_once(self, monkeypatch, capsys):
        # x^n - 1 = (x^v - 1)^(p^u) needs Phi_d for d | v only, so n = 1..20 over
        # F_4 needs the ten odd d <= 20; one factorization per n would split
        # Phi_d once for each n whose odd part d divides (39 top-level splits)
        split, depth, top_level = poly._equal_degree_split, [0], []

        def counting(f, d, rng):
            if not depth[0]:
                top_level.append(f.degree)
            depth[0] += 1
            try:
                return split(f, d, rng)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(poly, "_equal_degree_split", counting)
        assert main(["--p", "2", "--s", "2", "corollary2", "--n-max", "20"]) == 0
        capsys.readouterr()
        phi_degrees = [sum(1 for k in range(1, d + 1) if gcd(k, d) == 1) for d in range(1, 21, 2)]
        assert top_level == phi_degrees

    @pytest.mark.parametrize("p,s", [(2, 1), (2, 2), (3, 2)])
    def test_corollary2_rows_equal_single_verdicts(self, p, s, capsys):
        argv = ["--p", str(p), "--s", str(s), "corollary2", "--n-max", "30", "--format", "json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["n"] for row in rows] == list(range(1, 31))
        for row in rows:
            verdict = meyn_criterion(p**s, row["n"], seed=row["n"])
            assert row == {
                "q": p**s,
                "n": row["n"],
                "u": verdict.u,
                "v": verdict.v,
                "criterion_holds": verdict.criterion_holds,
                "witness_j": verdict.witness_j,
                "all_divisors_self_reciprocal": verdict.all_divisors_self_reciprocal,
                "agree": verdict.consistent,
            }
        assert meyn_sweep(p**s, range(1, 31)) == [meyn_criterion(p**s, n) for n in range(1, 31)]


class TestMultiplicativeOrder:
    def test_frozen(self, f4):
        t, _ = f4
        assert multiplicative_order(FFElement(t, 1)) == 1
        assert multiplicative_order(FFElement(t, 2)) == 3

    def test_zero_rejected(self, f4):
        t, _ = f4
        with pytest.raises(ZeroElementError):
            multiplicative_order(FFElement(t, 0))

    def test_definition(self, small_grid):
        for t, _ in small_grid:
            if t.size > 256:
                continue
            for v in range(1, t.size):
                x = FFElement(t, v)
                k = multiplicative_order(x)
                assert t.pow_i(v, k) == 1
                assert all(t.pow_i(v, j) != 1 for j in range(1, k))
                assert ((t.size - 1) % k) == 0
                assert is_primitive(x) == (k == t.size - 1)


class TestPrimitiveNormal:
    def test_frozen_f4(self, f4):
        t, fp = f4
        x = find_primitive_normal(t, fp)
        assert x.value == 2  # omega, i.e. tokens "0,1"

    def test_degenerate_f2(self):
        t = build_tower(2, 1, 1)
        fp = factor_xn_minus_1(1, t.base)
        assert find_primitive_normal(t, fp).value == 1

    def test_f8_exists_among_normals(self, f8):
        t, fp = f8
        x = find_primitive_normal(t, fp)
        assert is_normal(x, fp)
        assert multiplicative_order(x) == 7
        assert phi_q(fp) == 3  # number of normal elements of F_8 over F_2

    def test_lexicographically_first(self, f8):
        t, fp = f8
        found = find_primitive_normal(t, fp)
        for v in t.enumerate_values():
            if v == found.value:
                break
            x = FFElement(t, v)
            assert v == 0 or not (is_normal(x, fp) and is_primitive(x))

    def test_succeeds_everywhere_small(self, small_grid):
        for t, fp in small_grid:
            x = find_primitive_normal(t, fp)
            assert is_normal(x, fp) and is_primitive(x)


class TestClassificationReport:
    def test_structure_f4(self, f4):
        t, fp = f4
        rep = classification_report(t, fp)
        assert (rep.p, rep.s, rep.n) == (2, 1, 2)
        assert [r.divisor.coeffs for r in rep.rows] == [(1,), (1, 1), (1, 0, 1)]
        for row in rep.rows:
            assert row.count_matches_phi
            assert row.element_count == row.phi

    def test_char_counts_follow_reciprocal(self, small_grid):
        for t, fp in small_grid:
            rep = classification_report(t, fp)
            counts = {r.divisor: r.element_count for r in rep.rows}
            for row in rep.rows:
                assert row.char_count == counts[row.reciprocal]
                assert row.self_reciprocal == is_self_reciprocal(row.divisor)


@pytest.mark.parametrize("p,s,n", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (2, 1, 8)])
def test_sweeps_on_coefficient_vector_path(p, s, n):
    # every sweep and both report modes, with multiplication on coefficient
    # vectors (shift-and-xor for q = 2, schoolbook otherwise) as on every tower
    t, fp = tower_and_factors(p, s, n)
    assert reciprocal_order_sweep(t, fp).passed
    if t.size <= 64:
        assert reciprocal_order_sweep(t, fp, check="exhaustive").passed
    assert orders_coincide_iff_self_reciprocal(t, fp).holds
    for mode in ("oracle", "fast"):
        rep = classification_report(t, fp, mode=mode)
        assert sum(r.element_count for r in rep.rows) == t.size
        for row in rep.rows:
            assert row.element_count == row.char_count == row.phi == phi_q(row.divisor)


@pytest.mark.parametrize("p,s,n", VERIFICATION_GRID)
def test_acceptance_sweep_on_coefficient_vector_path(p, s, n):
    # the acceptance sweep of criteria 1 and 6 on the grid, on towers constructed
    # directly rather than through build_tower, so the sweeps build every map cold
    base = base_field(p, s)
    t = FieldTower(base, smallest_irreducible(base, n))
    fp = factor_xn_minus_1(n, base)
    assert reciprocal_order_sweep(t, fp).passed
    assert orders_coincide_iff_self_reciprocal(t, fp).holds


def test_fast_report_past_table_bound():
    # a full fq_order sweep on F_{2^15}, past _EXP_LOG_BOUND, where the tower
    # computes as every tower does, with Frobenius and the action as matrices
    t = build_tower(2, 1, 15)
    fp = factor_xn_minus_1(15, t.base)
    rep = classification_report(t, fp, mode="fast")
    assert sum(r.element_count for r in rep.rows) == 2**15
    for row in rep.rows:
        assert row.element_count == row.phi == phi_q(row.divisor)


def test_verification_grid_shape():
    assert len(VERIFICATION_GRID) == 34
    assert VERIFICATION_GRID[0] == (2, 1, 1)
    assert (2, 1, 10) in VERIFICATION_GRID
    assert (3, 2, 3) in VERIFICATION_GRID
    assert all(p ** (s * n) <= 1024 for p, s, n in VERIFICATION_GRID)


def _orders(t, fp):
    """(element, element order, definitional character order), in range order."""
    for v in range(t.size):
        x = FFElement(t, v)
        yield x, fq_order(x, fp), char_order_bruteforce(AdditiveCharacter(x), fp)


def _cli_json(capsys, p, s, n, command):
    code = main(["--p", str(p), "--s", str(s), "--n", str(n), "--format", "json", command])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("p,s,n", [(2, 1, 4), (3, 1, 2)])
class TestSweepFailurePath:
    # Every divisor of x^n - 1 is self-reciprocal on these fields, so the sweeps
    # pass; a wrong answer for x^n - 1 alone must surface as exactly the elements
    # of that order, found on the sweep's own per-divisor lookups.

    def test_wrong_reciprocal_gives_mismatches_in_range_order(
        self, p, s, n, monkeypatch, capsys
    ):
        t, fp = tower_and_factors(p, s, n)
        full, one = fp.expand(), FqPoly.one(t.base)

        def wrong(f):
            return one if f == full else monic_reciprocal(f)

        expected = [
            (x, scanned, wrong(m)) for x, m, scanned in _orders(t, fp) if scanned != wrong(m)
        ]
        assert [x for x, _, _ in expected] == [
            FFElement(t, v) for v in range(t.size) if is_normal(FFElement(t, v), fp)
        ]
        monkeypatch.setattr(classify, "monic_reciprocal", wrong)
        sweep = reciprocal_order_sweep(t, fp)
        assert not sweep.passed and sweep.total == t.size
        assert list(sweep.mismatches) == expected
        for x, scanned, reversed_order in sweep.mismatches:
            assert isinstance(x, FFElement)
            assert isinstance(scanned, FqPoly) and isinstance(reversed_order, FqPoly)
        code, doc = _cli_json(capsys, p, s, n, "verify-theorem")
        assert code == 1 and doc["verdict"] == "fail"
        assert [ce["label"] for ce in doc["counterexamples"]] == [
            element_tokens(x) for x, _, _ in expected
        ]

    def test_wrong_self_reciprocity_gives_first_violation(
        self, p, s, n, monkeypatch, capsys
    ):
        t, fp = tower_and_factors(p, s, n)
        full = fp.expand()

        def wrong(f):
            return f != full and is_self_reciprocal(f)

        first = next(
            (x, m, c) for x, m, c in _orders(t, fp) if (c == m) != wrong(m)
        )
        assert first[1] == full and first[0].value > 0
        monkeypatch.setattr(classify, "is_self_reciprocal", wrong)
        result = orders_coincide_iff_self_reciprocal(t, fp)
        assert not result.holds and result.counterexample == first
        code, doc = _cli_json(capsys, p, s, n, "corollary1")
        assert code == 1 and doc["verdict"] == "fail"
        [ce] = doc["counterexamples"]
        assert ce["label"] == element_tokens(first[0])


def test_sweeps_wrap_no_element_per_element(monkeypatch, capsys):
    # the sweeps run on ints: FFElement and AdditiveCharacter only for results
    t, fp = tower_and_factors(2, 1, 6)
    built = Counter()

    def count_inits(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    count_inits(FFElement)
    count_inits(AdditiveCharacter)
    assert reciprocal_order_sweep(t, fp).passed
    assert reciprocal_order_sweep(t, fp, check="exhaustive").passed
    assert orders_coincide_iff_self_reciprocal(t, fp).holds
    for mode in ("oracle", "fast"):
        assert classification_report(t, fp, mode=mode).rows
    assert not built
    assert main(["--p", "2", "--n", "6", "pnbt"]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    assert built == Counter({"FFElement": 1})  # the primitive normal element found


# Fields whose kernel walks split n*s evenly, unevenly, or not at all (n*s = 1),
# at p = 2 and odd p up to 7, with s = 1 and s > 1.
KERNEL_TABLE_FIELDS = [
    (2, 1, 1),
    (3, 1, 1),
    (2, 1, 5),
    (3, 1, 3),
    (5, 1, 3),
    (7, 1, 3),
    (2, 3, 1),
    (2, 2, 3),
    (3, 2, 2),
    (5, 2, 2),
]


@pytest.mark.parametrize("p,s,n", KERNEL_TABLE_FIELDS)
def test_span_matches_combine(p, s, n):
    # entry x of the span of a matrix's columns is the packed image of x, in index
    # order, for A_g and M_g of every divisor; a span grown from given points goes
    # on as the span of the remaining columns
    t, fp = tower_and_factors(p, s, n)
    for g in divisors_of_xn_minus_1(fp):
        for cols in (_action_matrix(t, g.coeffs), _trace_form_matrix(t, g.coeffs)):
            span = t._span(cols)
            assert span == [t._combine(cols, t._pack(i)) for i in range(p ** len(cols))]
            h = len(cols) // 2
            assert t._span(cols[h:], t._span(cols[:h])) == span, str(g)


@pytest.mark.parametrize("p,s,n", KERNEL_TABLE_FIELDS)
def test_kernel_tables_match_combine(p, s, n):
    # for A_g and M_g of every divisor: x is in the kernel by the walk exactly
    # when the matrix maps it to 0, and each kernel has q^deg g elements
    t, fp = tower_and_factors(p, s, n)
    half = p ** (n * s // 2)
    for g in divisors_of_xn_minus_1(fp):
        for cols in (_action_matrix(t, g.coeffs), _trace_form_matrix(t, g.coeffs)):
            rows = list(t._kernel_walk(cols))
            bases = [base for base, _ in rows]
            assert bases == sorted(set(bases)) and all(base % half == 0 for base in bases)
            assert all(0 <= i < half for _, members in rows for i in members)
            walked = {base + i for base, members in rows for i in members}
            members = [x in walked for x in range(t.size)]
            assert members == [t._combine(cols, t._pack(x)) == 0 for x in range(t.size)]
            assert sum(len(m) for _, m in rows) == sum(members) == t.q**g.degree, str(g)


@pytest.mark.parametrize("p,s,n", KERNEL_TABLE_FIELDS)
def test_sweeps_combine_only_to_negate_the_walked_matrices(p, s, n, monkeypatch):
    # once G, every A_g and every M_g are cached, the sweeps apply a matrix with
    # _combine only to negate the n*s - floor(n*s/2) high columns of each matrix
    # they walk, the only ones the row keys read: the low images and the row keys
    # of a walk are spans, not one product per point
    t, fp = tower_and_factors(p, s, n)
    t._trace_gram()
    for g in divisors_of_xn_minus_1(fp):
        _action_matrix(t, g.coeffs), _trace_form_matrix(t, g.coeffs)

    def sweeps():
        return elements_by_order(t, fp), characters_by_order(t, fp, mode="oracle")

    expected = sweeps()
    combine, walk, applied, walked = FieldTower._combine, FieldTower._kernel_walk, [], []

    def counted_combine(self, cols, x):
        applied.append(cols)
        return combine(self, cols, x)

    def counted_walk(self, cols):
        walked.append(cols)
        return walk(self, cols)

    monkeypatch.setattr(FieldTower, "_combine", counted_combine)
    monkeypatch.setattr(FieldTower, "_kernel_walk", counted_walk)
    assert sweeps() == expected
    assert walked and set(applied) <= set(walked)
    assert len(applied) <= (n * s - n * s // 2) * len(walked)


@pytest.mark.parametrize("corrupt", ["action", "trace form"])
@pytest.mark.parametrize("p,s,n", [(2, 1, 4), (3, 1, 3), (2, 2, 2)])
def test_corrupted_kernel_table_shows_in_the_sweeps(p, s, n, corrupt, monkeypatch):
    # divisor 1 has the identity as action matrix and the Gram matrix as M_1, both
    # with kernel {0}; a walk of one of them that drops 0 from that kernel alone
    # makes the sweep that reads it disagree with the per-element route on the
    # element 0 only
    t, fp = tower_and_factors(p, s, n)
    one = FqPoly.one(t.base).coeffs
    matrix = {"action": _action_matrix, "trace form": _trace_form_matrix}[corrupt](t, one)
    assert _action_matrix(t, one) != _trace_form_matrix(t, one)
    walk = FieldTower._kernel_walk

    def corrupted(self, cols):
        for base, members in walk(self, cols):
            if cols == matrix and base == 0:
                members = [i for i in members if i]
            if members:
                yield base, members

    monkeypatch.setattr(FieldTower, "_kernel_walk", corrupted)
    elements = [FFElement(t, v) for v in range(t.size)]
    if corrupt == "action":
        expected = {x: fq_order(x, fp) for x in elements}
        partition = elements_by_order(t, fp)
    else:
        expected = {x: char_order_bruteforce(AdditiveCharacter(x), fp) for x in elements}
        partition = {
            f: {chi.label for chi in chis}
            for f, chis in characters_by_order(t, fp, mode="oracle").items()
        }
    assert expected[elements[0]] == FqPoly.one(t.base)
    assert [x for f, xs in partition.items() for x in xs if expected[x] != f] == [elements[0]]
    sweep = reciprocal_order_sweep(t, fp)
    assert [x for x, _, _ in sweep.mismatches] == [elements[0]]


@pytest.mark.parametrize("n,walks", [(7, 7), (12, 24)])
def test_element_sweep_walks_every_proper_divisor_last_first(n, walks, monkeypatch):
    # x^7 - 1 has three distinct factors and x^12 - 1 = (x + 1)^4 (x^2 + x + 1)^4;
    # element orders walk the kernel of A_g once for each of the 7 or 24 proper
    # divisors g, last divisor first, and x^n - 1 not at all
    t, fp = tower_and_factors(2, 1, n)
    divisors = divisors_of_xn_minus_1(fp)
    walk, walked = FieldTower._kernel_walk, []

    def counted(self, cols):
        walked.append(cols)
        return walk(self, cols)

    monkeypatch.setattr(FieldTower, "_kernel_walk", counted)
    partition = elements_by_order(t, fp)
    assert len(walked) == walks
    assert walked == [_action_matrix(t, g.coeffs) for g in reversed(divisors[:-1])]
    assert {f: len(xs) for f, xs in partition.items()} == dict(divisor_phi_table(fp))


@pytest.mark.parametrize(
    "p,s,n", [*VERIFICATION_GRID, (2, 1, 11), (3, 1, 7), (2, 1, 12), (3, 3, 2), (2, 4, 2)]
)
def test_sweeps_match_per_element_routes(p, s, n):
    # element by element, the kernel-walking sweeps against fq_order and
    # char_order_bruteforce; F_{2^11} and F_{3^7} split n*s unevenly, and over F_2
    # x^12 - 1 = (x + 1)^4 (x^2 + x + 1)^4 has 24 proper divisors, while fq_order
    # counts on its 8 co-divisors (x^12 - 1)/P^j
    t, fp = tower_and_factors(p, s, n)
    elements = [FFElement(t, v) for v in range(t.size)]
    order = {x: fq_order(x, fp) for x in elements}
    partition = elements_by_order(t, fp)
    assert {x: f for f, xs in partition.items() for x in xs} == order
    counts = Counter(order.values())
    for check in ("basis", "exhaustive"):
        char_order = {
            x: char_order_bruteforce(AdditiveCharacter(x), fp, check=check) for x in elements
        }
        chars = characters_by_order(t, fp, mode="oracle", check=check)
        assert {chi.label: f for f, chis in chars.items() for chi in chis} == char_order
        sweep = reciprocal_order_sweep(t, fp, check=check)
        assert list(sweep.mismatches) == [
            (x, char_order[x], monic_reciprocal(order[x]))
            for x in elements
            if char_order[x] != monic_reciprocal(order[x])
        ]
        report = classification_report(t, fp, check=check)
        char_counts = Counter(char_order.values())
        assert [(r.element_count, r.char_count) for r in report.rows] == [
            (counts[r.divisor], char_counts[r.divisor]) for r in report.rows
        ]
    fast = classification_report(t, fp, mode="fast")
    assert [r.element_count for r in fast.rows] == [counts[r.divisor] for r in fast.rows]


@pytest.mark.parametrize("p,s,n", [(2, 1, 6), (3, 1, 4), (2, 2, 3)])
def test_label_in_several_kernels_gets_the_first_divisor(p, s, n):
    # both sweeps write each proper divisor's kernel over the points, last divisor
    # first, for A_g (element orders) and M_g (character orders) alike: a point in
    # several kernels, 0 in all of them, keeps the first divisor in scan order;
    # both sweeps hold at most 2 bytes per element
    t, fp = tower_and_factors(p, s, n)
    divisors = divisors_of_xn_minus_1(fp)
    sweeps = {
        _action_matrix: _element_order(t, divisors),
        _trace_form_matrix: _char_order(t, divisors, "basis"),
    }
    for kind, orders in sweeps.items():
        matrices = [kind(t, g.coeffs) for g in divisors]
        kernels = [
            [k for k, m in enumerate(matrices) if not t._combine(m, t._pack(v))]
            for v in range(t.size)
        ]
        assert kernels[0] == list(range(len(divisors)))
        assert any(len(ks) > 2 for ks in kernels[1:]), kind.__name__
        assert list(orders) == [ks[0] for ks in kernels], kind.__name__
        assert orders.itemsize <= 2
