import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qorder import (
    AdditiveCharacter,
    FFElement,
    FieldMismatchError,
    FieldTower,
    FqPoly,
    apply_action,
    base_field,
    build_tower,
    char_action_exponent,
    char_annihilated_by,
    char_eval_exponent,
    char_mul,
    char_order_bruteforce,
    char_order_fast,
    divisors_of_xn_minus_1,
    factor_xn_minus_1,
    fq_order,
    linearized_eval,
    monic_reciprocal,
    reciprocal_order_sweep,
    smallest_irreducible,
    trace_to_prime,
    trivial_character,
)
from qorder import VERIFICATION_GRID, action, characters, poly
from qorder.action import _action_matrix, _apply_i
from qorder.characters import (
    _CHECK_MODES,
    _annihilation_points,
    _char_order,
    _char_order_i,
    _trace_form_matrix,
)

from conftest import tower_and_factors
from oracles import (
    oracle_action_images,
    oracle_annihilated_labels,
    oracle_apply_action,
    oracle_char_annihilated,
    oracle_tower_mul,
    oracle_trace,
)
from test_action import OFF_GRID

F2 = base_field(2)


def all_chars(tower):
    return [AdditiveCharacter(FFElement(tower, v)) for v in range(tower.size)]


class TestEvaluation:
    def test_trivial_character(self, small_grid):
        for t, _ in small_grid:
            chi0 = trivial_character(t)
            assert chi0.is_trivial
            for v in range(t.size):
                assert char_eval_exponent(chi0, FFElement(t, v)) == 0

    def test_frozen_f4(self, f4):
        t, _ = f4
        chi1 = AdditiveCharacter(FFElement(t, 1))
        assert char_eval_exponent(chi1, FFElement(t, 2)) == 1  # Tr(omega) = 1

    def test_additivity(self, small_grid):
        for t, _ in small_grid:
            if t.size > 64:
                continue
            for lab in range(t.size):
                chi = AdditiveCharacter(FFElement(t, lab))
                for a in range(t.size):
                    for b in range(t.size):
                        x, y = FFElement(t, a), FFElement(t, b)
                        assert (
                            char_eval_exponent(chi, x + y)
                            == (char_eval_exponent(chi, x) + char_eval_exponent(chi, y)) % t.p
                        )

    def test_exponent_histogram_uniform(self):
        for p, s, n in [(2, 1, 4), (3, 1, 2), (2, 2, 2), (5, 1, 2)]:
            t = build_tower(p, s, n)
            for chi in all_chars(t):
                if chi.is_trivial:
                    continue
                counts = [0] * t.p
                for v in range(t.size):
                    counts[char_eval_exponent(chi, FFElement(t, v))] += 1
                assert counts == [t.size // t.p] * t.p

    def test_tower_mismatch(self):
        chi = trivial_character(build_tower(2, 1, 2))
        with pytest.raises(FieldMismatchError):
            char_eval_exponent(chi, FFElement(build_tower(2, 1, 3), 1))


class TestGroupLaw:
    def test_identity_and_inverse(self, f9):
        t, _ = f9
        chi0 = trivial_character(t)
        for lab in range(t.size):
            chi = AdditiveCharacter(FFElement(t, lab))
            assert char_mul(chi, chi0) == chi
            assert char_mul(chi, chi.inverse()) == chi0

    def test_pointwise_product_f4(self, f4):
        t, _ = f4
        for a, b in itertools.product(range(t.size), repeat=2):
            chi_a = AdditiveCharacter(FFElement(t, a))
            chi_b = AdditiveCharacter(FFElement(t, b))
            prod = char_mul(chi_a, chi_b)
            for v in range(t.size):
                x = FFElement(t, v)
                assert (
                    char_eval_exponent(prod, x)
                    == (char_eval_exponent(chi_a, x) + char_eval_exponent(chi_b, x)) % t.p
                )

    def test_mul_operator(self, f4):
        t, _ = f4
        chi = AdditiveCharacter(FFElement(t, 2))
        assert (chi * chi).label == FFElement(t, 2) + FFElement(t, 2)

    def test_mismatch(self):
        with pytest.raises(FieldMismatchError):
            char_mul(
                trivial_character(build_tower(2, 1, 2)),
                trivial_character(build_tower(3, 1, 2)),
            )


class TestLiftedAction:
    def test_xn_minus_1_acts_trivially(self, small_grid):
        for t, _ in small_grid:
            g = FqPoly.x_pow_minus_one(t.base, t.n)
            for chi in all_chars(t):
                for v in range(0, t.size, max(1, t.size // 8)):
                    assert char_action_exponent(g, chi, FFElement(t, v)) == 0

    def test_identity_poly_action(self, f8):
        t, _ = f8
        one = FqPoly.one(t.base)
        for chi in all_chars(t):
            for v in range(t.size):
                x = FFElement(t, v)
                assert char_action_exponent(one, chi, x) == char_eval_exponent(chi, x)

    def test_two_evaluation_routes_agree(self, small_grid):
        # chi(g . x) computed via the action equals Tr(label * L_g(x))
        for t, fp in small_grid:
            if t.size > 128:
                continue
            for g in divisors_of_xn_minus_1(fp):
                if g.is_zero:
                    continue
                for lab in range(t.size):
                    chi = AdditiveCharacter(FFElement(t, lab))
                    for v in range(t.size):
                        x = FFElement(t, v)
                        direct = char_action_exponent(g, chi, x)
                        via_linearized = trace_to_prime(chi.label * linearized_eval(g, x))
                        assert direct == via_linearized


class TestAnnihilation:
    def test_frozen_f4(self, f4):
        t, fp = f4
        chi1 = AdditiveCharacter(FFElement(t, 1))
        assert char_annihilated_by(FqPoly(F2, (1, 1)), chi1)
        assert char_annihilated_by(FqPoly.x_pow_minus_one(F2, 2), chi1)
        assert not char_annihilated_by(FqPoly.one(F2), chi1)

    def test_trivial_character_annihilated_by_everything(self, f8):
        t, fp = f8
        chi0 = trivial_character(t)
        for g in divisors_of_xn_minus_1(fp):
            assert char_annihilated_by(g, chi0)

    def test_basis_equals_exhaustive(self, small_grid):
        for t, fp in small_grid:
            for g in divisors_of_xn_minus_1(fp):
                for chi in all_chars(t):
                    assert char_annihilated_by(g, chi, check="basis") == char_annihilated_by(
                        g, chi, check="exhaustive"
                    ), (t, str(g), chi.label.value)

    def test_against_full_evaluation_oracle(self, f4, f9):
        for t, fp in (f4, f9):
            for g in divisors_of_xn_minus_1(fp):
                for chi in all_chars(t):
                    assert char_annihilated_by(g, chi, check="basis") == oracle_char_annihilated(
                        g, chi
                    )

    # n*s*(p - 1)^2 is 16 on F_{3^4} and 32 on F_{5^2}, so the exhaustive check's
    # packed dot product fills its digit fields to the last bit there
    @pytest.mark.parametrize(
        "p,s,n", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1), (3, 2, 2), (3, 1, 4), (5, 1, 2)]
    )
    def test_both_modes_against_full_evaluation_oracle(self, p, s, n):
        t = build_tower(p, s, n)
        for g in divisors_of_xn_minus_1(factor_xn_minus_1(n, t.base)):
            annihilated = oracle_annihilated_labels(t, g)
            for chi in all_chars(t):
                expected = chi.label.value in annihilated
                if t.size < 81:  # the per-label oracle takes seconds on F_{9^2}
                    assert expected == oracle_char_annihilated(g, chi)
                for check in _CHECK_MODES:
                    assert char_annihilated_by(g, chi, check=check) == expected, (
                        (p, s, n), str(g), chi.label.value, check
                    )

    def test_exhaustive_points_are_the_distinct_image(self, small_grid):
        # q^(n - deg g) distinct values g . x, since the kernel of g has q^(deg g),
        # each packed as the columns of _linear are.  Past small_grid: x^12 - 1 over
        # F_2 is (x + 1)^4 (x^2 + x + 1)^4, then odd p with s = 2 and p = 5
        def per_element(t, coeffs):
            return [oracle_apply_action(t, coeffs, v) for v in range(t.size)]

        past = [(2, 1, 12), (3, 2, 3), (5, 1, 3)]
        cases = [(t, fp, per_element) for t, fp in small_grid]
        cases += [(*tower_and_factors(*psn), oracle_action_images) for psn in past]
        for t, fp, oracle_images in cases:
            for g in divisors_of_xn_minus_1(fp):
                points = _annihilation_points(t, g.coeffs)
                assert len(points) == len(set(points)) == t.q ** (t.n - g.degree)
                image = set(oracle_images(t, g.coeffs))
                assert set(points) == {t._pack(v) for v in image}, (t, str(g))

    def test_matrix_kinds_keep_apart_in_the_cache(self):
        # A_g, M_g and the exhaustive image of one g are cached on one tower, here
        # a fresh one with odd p and s > 1; each must still match its oracle
        base = base_field(3, 2)
        t, fp = FieldTower(base, smallest_irreducible(base, 2)), factor_xn_minus_1(2, base)
        for g in divisors_of_xn_minus_1(fp):
            c = g.coeffs
            m_g, points = _trace_form_matrix(t, c), _annihilation_points(t, c)
            a_g = _action_matrix(t, c)
            acted = [oracle_apply_action(t, c, v) for v in range(t.size)]
            assert [t._combine(a_g, t._pack(v)) for v in range(t.size)] == [
                t._pack(v) for v in acted
            ], str(g)
            assert sorted(points) == sorted({t._pack(v) for v in acted}), str(g)
            for lab in range(t.size):
                image = t._unpack(t._combine(m_g, t._pack(lab)))
                for k in range(t.n * t.s):
                    product = FFElement(t, oracle_tower_mul(t, lab, acted[t.p**k]))
                    assert image // t.p**k % t.p == oracle_trace(product), (str(g), lab, k)

    @pytest.mark.parametrize("p,s,n", [(2, 2, 2), (3, 1, 3), (5, 1, 2)])
    def test_exhaustive_scan_multiplies_no_field_elements(self, p, s, n, monkeypatch):
        # once G and every A_g are cached, both checks and both evaluations read
        # each label's trace functional on packed points: no mul_i, no trace_i
        t, fp = tower_and_factors(p, s, n)
        chars, divisors = all_chars(t), divisors_of_xn_minus_1(fp)
        t._trace_gram()
        for g in divisors:
            _action_matrix(t, g.coeffs)

        def characters_read():
            orders = [
                char_order_bruteforce(chi, fp, check=check)
                for check in _CHECK_MODES
                for chi in chars
            ]
            values = [char_eval_exponent(chi, psi.label) for chi in chars for psi in chars]
            acted = [
                char_action_exponent(g, chi, psi.label)
                for g in divisors
                for chi in chars
                for psi in chars
            ]
            # the sweep reads every u = G a off half spans of the cached G
            sweep = reciprocal_order_sweep(t, fp, check="exhaustive")
            return orders, values, acted, sweep

        expected = characters_read()

        def field_arithmetic(*args):
            raise AssertionError("a character test multiplied field elements")

        monkeypatch.setattr(FieldTower, "mul_i", field_arithmetic)
        monkeypatch.setattr(FieldTower, "trace_i", field_arithmetic)
        assert characters_read() == expected

    def test_bad_check_mode(self, f4):
        t, _ = f4
        with pytest.raises(ValueError):
            char_annihilated_by(FqPoly.one(F2), trivial_character(t), check="nope")


class TestCharacterOrders:
    def test_trivial_has_order_one(self, small_grid):
        for t, fp in small_grid:
            chi0 = trivial_character(t)
            assert char_order_bruteforce(chi0, fp) == FqPoly.one(t.base)
            assert char_order_fast(chi0, fp) == FqPoly.one(t.base)

    def test_base_field_labels_have_order_x_minus_1(self, small_grid):
        for t, fp in small_grid:
            target = FqPoly(t.base, (t.base.neg(1), 1))
            for c in range(1, t.q):
                chi = AdditiveCharacter(FFElement(t, c))
                assert char_order_bruteforce(chi, fp) == target

    def test_frozen_omega_f4(self, f4):
        t, fp = f4
        chi = AdditiveCharacter(FFElement(t, 2))
        assert char_order_bruteforce(chi, fp) == FqPoly(F2, (1, 0, 1))
        assert char_order_fast(chi, fp) == FqPoly(F2, (1, 0, 1))

    def test_fast_equals_bruteforce(self, small_grid):
        for t, fp in small_grid:
            for chi in all_chars(t):
                assert char_order_fast(chi, fp) == char_order_bruteforce(chi, fp)

    def test_exhaustive_check_mode_agrees(self, f16_over_f4):
        t, fp = f16_over_f4
        for chi in all_chars(t):
            assert char_order_bruteforce(chi, fp, check="exhaustive") == char_order_fast(
                chi, fp
            )

    @pytest.mark.parametrize("p,s,n", [(2, 1, 15), (2, 2, 8)])
    def test_single_exhaustive_queries_past_2_14_elements(self, p, s, n):
        # three random labels and two of the form g . y, which reach lower orders
        # and so larger images at the scan's hit
        t, fp = tower_and_factors(p, s, n)
        rng, divisors = random.Random(p * 1000 + s * 100 + n), divisors_of_xn_minus_1(fp)
        labels = [FFElement(t, rng.randrange(t.size)) for _ in range(3)]
        for _ in range(2):
            y = FFElement(t, rng.randrange(t.size))
            labels.append(apply_action(rng.choice(divisors), y))
        for label in labels:
            chi = AdditiveCharacter(label)
            exhaustive = char_order_bruteforce(chi, fp, check="exhaustive")
            assert exhaustive == char_order_fast(chi, fp) == char_order_bruteforce(chi, fp), (
                label.value
            )

    @pytest.mark.parametrize(
        "p,s,n",
        [*VERIFICATION_GRID, (2, 1, 13), (2, 2, 7), (3, 1, 8), (3, 2, 4), (5, 1, 5), (7, 1, 4)],
    )
    def test_exhaustive_sweep_matches_query_label_by_label(self, p, s, n):
        # the sweep reads u = G a off two half spans of G, the query builds each
        # label's functional: both p = 2 and odd p, s = 1 and s > 1, and odd n*s,
        # where the two halves differ in size
        t, fp = tower_and_factors(p, s, n)
        divisors = divisors_of_xn_minus_1(fp)
        swept = _char_order(t, divisors, "exhaustive")
        assert len(swept) == t.size
        for a, k in enumerate(swept):
            assert divisors[k] == _char_order_i(t, divisors, a, "exhaustive"), a

    @pytest.mark.parametrize("p,s,n", [(2, 1, 4), (2, 2, 3), (3, 1, 3), (5, 1, 2)])
    def test_exhaustive_sweep_without_xn_minus_1_fails_loudly(self, p, s, n):
        # without x^n - 1's image, {0}, no image vanishes for the labels of order
        # x^n - 1: the sweep raises the invariant's AssertionError (exit 3 in the
        # CLI), not a TypeError from an index that was never found
        t, fp = tower_and_factors(p, s, n)
        divisors = divisors_of_xn_minus_1(fp)
        with pytest.raises(AssertionError, match=r"^x\^n - 1 annihilates every character$"):
            _char_order(t, divisors[:-1], "exhaustive")

    def test_non_self_reciprocal_case_q2_n7(self):
        t = build_tower(2, 1, 7)
        fp = factor_xn_minus_1(7, t.base)
        target = FqPoly(F2, (1, 1, 0, 1))  # x^3 + x + 1
        labels = [
            v for v in range(t.size) if fq_order(FFElement(t, v), fp) == target
        ]
        assert len(labels) == 7  # phi_2 of a degree-3 irreducible
        for v in labels:
            chi = AdditiveCharacter(FFElement(t, v))
            order = char_order_bruteforce(chi, fp)
            assert order == FqPoly(F2, (1, 0, 1, 1))  # the reversed polynomial
            assert order != target
            assert order == monic_reciprocal(target)

    def test_factorization_of_another_xm_minus_1_rejected(self):
        t = build_tower(2, 1, 4)
        chi = AdditiveCharacter(FFElement(t, 2))
        for fp in (factor_xn_minus_1(2, t.base), factor_xn_minus_1(4, base_field(3))):
            with pytest.raises(FieldMismatchError):
                char_order_bruteforce(chi, fp)

    def test_order_divides_xn_minus_1(self, small_grid):
        for t, fp in small_grid:
            full = FqPoly.x_pow_minus_one(t.base, t.n)
            for chi in all_chars(t):
                assert (full % char_order_bruteforce(chi, fp)).is_zero

    def test_annihilation_reduction_via_reciprocal(self, small_grid):
        # g annihilates chi_a exactly when g* annihilates the label a
        for t, fp in small_grid:
            if t.size > 128:
                continue
            for g in divisors_of_xn_minus_1(fp):
                if g.degree < 0 or g.is_zero:
                    continue
                gr = monic_reciprocal(g)
                for lab in range(t.size):
                    chi = AdditiveCharacter(FFElement(t, lab))
                    lhs = char_annihilated_by(g, chi)
                    rhs = apply_action(gr, FFElement(t, lab)).is_zero
                    assert lhs == rhs

    def test_scan_never_calls_the_fast_route(self, f16_over_f4, monkeypatch):
        t, fp = f16_over_f4
        expected = {chi: char_order_fast(chi, fp) for chi in all_chars(t)}

        def fast_route(*args):
            raise AssertionError("the definitional scan used the fast route")

        for module in (action, characters, poly):
            for name in ("fq_order", "monic_reciprocal", "adjoint_action"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fast_route)
        for chi, order in expected.items():
            for check in _CHECK_MODES:
                assert char_order_bruteforce(chi, fp, check=check) == order


@pytest.mark.parametrize("p,s,n", [(3, 2, 3), (2, 1, 10), (5, 1, 4)])
def test_trace_form_matrix_build_multiplies_no_field_elements(p, s, n):
    # once G and every A_g are cached, M_g is G A_g transposed, with no product,
    # power, Frobenius, trace or functional per entry; field k of its column r is
    # Tr(p^r * (g . p^k)) by the oracles
    known, fp = tower_and_factors(p, s, n)
    t = FieldTower(known.base, known.top_modulus)  # a fresh tower: nothing cached
    divisors = divisors_of_xn_minus_1(fp)[:-1]
    t._trace_gram()
    for g in divisors:
        _action_matrix(t, g.coeffs)

    def field_arithmetic(*args):
        raise AssertionError("a trace form matrix build read the field per entry")

    with pytest.MonkeyPatch.context() as patch:
        for name in ("mul_i", "pow_i", "frob_i", "trace_i", "_functional"):
            patch.setattr(FieldTower, name, field_arithmetic)
        matrices = [_trace_form_matrix(t, g.coeffs) for g in divisors]
    w, total = t._width, n * s
    for g, cols in zip(divisors, matrices):
        acted = [oracle_apply_action(t, g.coeffs, p**k) for k in range(total)]
        for r, k in itertools.product(range(total), repeat=2):
            product = FFElement(t, oracle_tower_mul(t, p**r, acted[k]))
            assert cols[r] >> w * k & (1 << w) - 1 == oracle_trace(product), (str(g), r, k)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(OFF_GRID), st.data())
def test_trace_form_matrix_entries_on_towers_off_the_grid(psn, data):
    # coordinate k of M_g a is Tr(a * (g . p^k)), by the tower and by the oracles
    t, fp = tower_and_factors(*psn)
    label = data.draw(st.integers(0, t.size - 1), label="label")
    divisors = divisors_of_xn_minus_1(fp)
    g = divisors[data.draw(st.integers(0, len(divisors) - 1), label="divisor")]
    image = t._unpack(t._combine(_trace_form_matrix(t, g.coeffs), t._pack(label)))
    for k in range(t.n * t.s):
        point = _apply_i(t, g.coeffs, t.p**k)
        entry = image // t.p**k % t.p
        assert entry == t.trace_i(t.mul_i(label, point)), (psn, str(g), label, k)
        product = FFElement(t, oracle_tower_mul(t, label, point))
        assert entry == oracle_trace(product), (psn, str(g), label, k)
