import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qorder import (
    AdditiveCharacter,
    DegreeTooLargeError,
    FFElement,
    FqPoly,
    NotMonicError,
    ZeroConstantTermError,
    adjoint_action,
    apply_action,
    base_field,
    build_tower,
    char_order_bruteforce,
    char_order_fast,
    divisors_of_xn_minus_1,
    embed_base,
    factor_xn_minus_1,
    fq_order,
    is_normal,
    linearized_eval,
    monic_reciprocal,
    phi_q,
    trace_to_prime,
)
from qorder.classify import VERIFICATION_GRID
from qorder.errors import FieldMismatchError

from conftest import tower_and_factors
from oracles import oracle_apply_action, oracle_fq_order, oracle_is_normal

F2 = base_field(2)
F3 = base_field(3)


def all_polys_up_to(field, max_degree):
    out = []
    for d in range(max_degree + 2):
        for coeffs in itertools.product(range(field.size), repeat=d):
            out.append(FqPoly(field, coeffs))
    return list({f for f in out})


class TestApplyAction:
    def test_frozen_f4(self, f4):
        t, _ = f4
        g = FqPoly(F2, (1, 1))  # x + 1
        assert apply_action(g, FFElement(t, 1)).value == 0  # 1^2 + 1
        assert apply_action(g, FFElement(t, 2)).value == 1  # omega^2 + omega

    def test_xn_minus_1_annihilates_everything(self, small_grid):
        for t, _ in small_grid:
            g = FqPoly.x_pow_minus_one(t.base, t.n)
            for v in range(t.size):
                assert apply_action(g, FFElement(t, v)).value == 0

    def test_identity_polynomial(self, small_grid):
        for t, _ in small_grid:
            one = FqPoly.one(t.base)
            for v in range(t.size):
                assert apply_action(one, FFElement(t, v)).value == v

    @pytest.mark.parametrize("p,s,n", [(2, 1, 2), (2, 1, 3)])
    def test_module_axioms_exhaustive(self, p, s, n):
        t = build_tower(p, s, n)
        polys = all_polys_up_to(t.base, 2)
        elements = [FFElement(t, v) for v in range(t.size)]
        for f, g in itertools.product(polys, repeat=2):
            for x in elements:
                assert apply_action(f + g, x) == apply_action(f, x) + apply_action(g, x)
                assert apply_action(f * g, x) == apply_action(f, apply_action(g, x))

    def test_module_axioms_sampled_f9(self, f9):
        t, _ = f9
        rng = random.Random(5)
        elements = [FFElement(t, v) for v in range(t.size)]
        for _ in range(60):
            f = FqPoly(t.base, [rng.randrange(9) for _ in range(rng.randrange(4))])
            g = FqPoly(t.base, [rng.randrange(9) for _ in range(rng.randrange(4))])
            for x in elements:
                assert apply_action(f + g, x) == apply_action(f, x) + apply_action(g, x)
                assert apply_action(f * g, x) == apply_action(f, apply_action(g, x))

    def test_fq_linearity(self, f16_over_f4):
        t, _ = f16_over_f4
        g = FqPoly(t.base, (2, 3, 1))
        for a in range(t.size):
            for c in range(t.q):
                x = FFElement(t, a)
                assert apply_action(g, embed_base(c, t) * x) == embed_base(c, t) * apply_action(g, x)

    def test_wrong_coefficient_field(self, f4):
        t, _ = f4
        with pytest.raises(FieldMismatchError):
            apply_action(FqPoly(F3, (1, 1)), FFElement(t, 1))


class TestLinearizedEval:
    def test_equals_apply_action_for_monic(self, small_grid):
        for t, fp in small_grid:
            for g in divisors_of_xn_minus_1(fp):
                if not g.degree >= 0 or g.is_zero:
                    continue
                for v in range(t.size):
                    x = FFElement(t, v)
                    assert linearized_eval(g, x) == apply_action(g, x)

    def test_requires_monic(self, f9):
        t, _ = f9
        with pytest.raises(NotMonicError):
            linearized_eval(FqPoly(t.base, (1, 2)), FFElement(t, 1))

    def test_base_elements_killed_by_x_minus_1(self):
        t = build_tower(3, 1, 2)
        g = FqPoly(F3, (2, 1))  # x - 1
        for c in range(3):
            assert linearized_eval(g, embed_base(c, t)).value == 0

    def test_f8_trace_polynomial(self, f8):
        # over F_2 with n = 3, x^2 + x + 1 acts as the absolute trace
        t, _ = f8
        g = FqPoly(F2, (1, 1, 1))
        for v in range(8):
            x = FFElement(t, v)
            assert linearized_eval(g, x).value == trace_to_prime(x)


class TestFqOrder:
    def test_frozen_f4(self, f4):
        t, fp = f4
        assert fq_order(FFElement(t, 0), fp) == FqPoly.one(F2)
        assert fq_order(FFElement(t, 1), fp) == FqPoly(F2, (1, 1))
        assert fq_order(FFElement(t, 2), fp) == FqPoly(F2, (1, 0, 1))
        assert fq_order(FFElement(t, 3), fp) == FqPoly(F2, (1, 0, 1))

    def test_against_divisor_scan_oracle(self, small_grid):
        for t, fp in small_grid:
            for v in range(t.size):
                x = FFElement(t, v)
                assert fq_order(x, fp) == oracle_fq_order(x, fp), (t, v)

    def test_minimality(self, small_grid):
        for t, fp in small_grid:
            for v in range(t.size):
                x = FFElement(t, v)
                m = fq_order(x, fp)
                assert apply_action(m, x).is_zero
                assert (FqPoly.x_pow_minus_one(t.base, t.n) % m).is_zero
                for p_, _ in fp.factors:
                    if (m % p_).is_zero:
                        assert not apply_action(m // p_, x).is_zero

    def test_order_one_only_for_zero(self, small_grid):
        for t, fp in small_grid:
            ones = [v for v in range(t.size) if fq_order(FFElement(t, v), fp).degree == 0]
            assert ones == [0]

    def test_factorization_of_another_xm_minus_1_rejected(self):
        t = build_tower(2, 1, 4)
        u = FFElement(t, 2)
        for fp in (factor_xn_minus_1(2, t.base), factor_xn_minus_1(4, F3)):
            with pytest.raises(FieldMismatchError):
                fq_order(u, fp)


class TestIsNormal:
    def test_frozen_f4(self, f4):
        t, fp = f4
        assert is_normal(FFElement(t, 2), fp)
        assert is_normal(FFElement(t, 3), fp)
        assert not is_normal(FFElement(t, 1), fp)
        assert not is_normal(FFElement(t, 0), fp)

    def test_against_conjugate_basis_oracle(self, small_grid):
        for t, fp in small_grid:
            for v in range(t.size):
                x = FFElement(t, v)
                assert is_normal(x, fp) == oracle_is_normal(x), (t, v)

    def test_normal_count_is_phi(self, small_grid):
        for t, fp in small_grid:
            count = sum(is_normal(FFElement(t, v), fp) for v in range(t.size))
            assert count == phi_q(fp) > 0


class TestAdjointAction:
    def test_frozen_f4(self, f4):
        t, _ = f4
        g = FqPoly(F2, (1, 1))
        assert adjoint_action(g, FFElement(t, 1)).value == 0  # 1 + 1^2
        assert adjoint_action(g, FFElement(t, 2)).value == 1  # omega + omega^2

    def test_errors(self, f8):
        t, _ = f8
        x = FFElement(t, 3)
        t3 = build_tower(3, 1, 2)
        with pytest.raises(NotMonicError):
            adjoint_action(FqPoly(F3, (1, 2)), FFElement(t3, 1))
        with pytest.raises(ZeroConstantTermError):
            adjoint_action(FqPoly(F2, (0, 1)), x)
        with pytest.raises(DegreeTooLargeError):
            adjoint_action(FqPoly.x_pow_minus_one(F2, 3), x)

    def test_power_identity_exhaustive_small(self, small_grid):
        # adjoint(g, x)^(q^deg g) = g(0) * (g* . x)
        for t, fp in small_grid:
            for g in divisors_of_xn_minus_1(fp):
                if g.degree >= t.n or g.degree < 0 or g.is_zero:
                    continue
                a0 = embed_base(g.coeffs[0], t)
                for v in range(t.size):
                    x = FFElement(t, v)
                    lhs = adjoint_action(g, x) ** (t.q ** g.degree)
                    rhs = a0 * apply_action(monic_reciprocal(g), x)
                    assert lhs == rhs, (t, str(g), v)

    def test_trace_pairing_identity(self):
        # Tr(a * (g . x)) = Tr(adjoint(g, a) * x)
        t = build_tower(2, 2, 3)
        rng = random.Random(11)
        for _ in range(300):
            m = rng.randrange(0, t.n)
            if m == 0:
                coeffs = [1]
            else:
                coeffs = [rng.randrange(1, t.q)]
                coeffs.extend(rng.randrange(t.q) for _ in range(m - 1))
                coeffs.append(1)
            g = FqPoly(t.base, coeffs)
            a = FFElement(t, rng.randrange(t.size))
            x = FFElement(t, rng.randrange(t.size))
            lhs = trace_to_prime(a * apply_action(g, x))
            rhs = trace_to_prime(adjoint_action(g, a) * x)
            assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 624), st.data())
def test_adjoint_power_identity_random_f625(xv, data):
    t = build_tower(5, 1, 4)
    n, q = t.n, t.q
    m = data.draw(st.integers(0, n - 1))
    if m == 0:
        g = FqPoly.one(t.base)
    else:
        const = data.draw(st.integers(1, q - 1))
        mids = data.draw(st.lists(st.integers(0, q - 1), min_size=m - 1, max_size=m - 1))
        g = FqPoly(t.base, (const, *mids, 1))
    x = FFElement(t, xv)
    lhs = adjoint_action(g, x) ** (q**m)
    rhs = embed_base(g.coeffs[0], t) * apply_action(monic_reciprocal(g), x)
    assert lhs == rhs


# Towers past _EXP_LOG_BOUND, where the action is applied as a cached F_p-matrix
PAST_TABLE_BOUND = [(2, 1, 15), (2, 1, 16), (2, 2, 8), (3, 1, 10), (5, 1, 7), (3, 2, 5)]
# Real-size towers below it, where the action is the same matrix: odd p packs
# digits in _combine, and s > 1 reads Frobenius entry k*s
TABLE_PATH = [(2, 1, 13), (2, 2, 7), (3, 1, 8), (3, 2, 4)]


def random_poly(rng, field, degree, *, monic=False, unit_constant=False):
    coeffs = [rng.randrange(field.size) for _ in range(degree + 1)]
    if monic:
        coeffs[-1] = 1
    elif coeffs[-1] == 0:
        coeffs[-1] = rng.randrange(1, field.size)
    if unit_constant and coeffs[0] == 0:
        coeffs[0] = rng.randrange(1, field.size)
    return FqPoly(field, coeffs)


@pytest.mark.parametrize("p,s,n", [*PAST_TABLE_BOUND, *TABLE_PATH])
class TestActionPastTableBound:
    @staticmethod
    def setup_case(p, s, n):
        """The tower, its factorization, a seeded rng and ten labels: six random
        ones and four of the form g . y for a random divisor g, to reach lower orders."""
        t = build_tower(p, s, n)
        fp = factor_xn_minus_1(n, t.base)
        rng = random.Random(p * 1000 + s * 100 + n)
        labels = [FFElement(t, rng.randrange(t.size)) for _ in range(6)]
        divisors = divisors_of_xn_minus_1(fp)
        for _ in range(4):
            y = FFElement(t, rng.randrange(t.size))
            labels.append(apply_action(rng.choice(divisors), y))
        return t, fp, rng, labels

    def test_apply_action_matches_oracle(self, p, s, n):
        t, fp, rng, labels = self.setup_case(p, s, n)
        xn1 = FqPoly.x_pow_minus_one(t.base, n)
        for x in labels:
            const = FqPoly(t.base, (rng.randrange(1, t.q),))
            g = random_poly(rng, t.base, rng.randrange(n + 1))
            h = random_poly(rng, t.base, rng.randrange(1, n + 1), monic=True)
            for poly in (const, g, h):
                expected = oracle_apply_action(t, poly.coeffs, x.value)
                assert apply_action(poly, x).value == expected, (str(poly), x.value)
            assert linearized_eval(h, x).value == oracle_apply_action(t, h.coeffs, x.value)
            assert apply_action(xn1, x).is_zero
            assert oracle_apply_action(t, xn1.coeffs, x.value) == 0

    def test_adjoint_identities(self, p, s, n):
        # Tr(a * (g . x)) = Tr(adjoint(g, a) * x) and adjoint(g, x)^(q^deg g) = g(0) * (g* . x)
        t, fp, rng, labels = self.setup_case(p, s, n)
        for a in labels:
            x = FFElement(t, rng.randrange(t.size))
            g = random_poly(rng, t.base, rng.randrange(n), monic=True, unit_constant=True)
            lhs = trace_to_prime(a * apply_action(g, x))
            assert lhs == trace_to_prime(adjoint_action(g, a) * x)
            power = adjoint_action(g, a) ** (t.q**g.degree)
            assert power == embed_base(g.coeffs[0], t) * apply_action(monic_reciprocal(g), a)

    def test_fq_order_matches_oracle(self, p, s, n):
        t, fp, rng, labels = self.setup_case(p, s, n)
        for x in [FFElement(t, 0), FFElement(t, 1), *labels]:
            assert fq_order(x, fp) == oracle_fq_order(x, fp), x.value

    def test_character_order_routes_agree(self, p, s, n):
        t, fp, rng, labels = self.setup_case(p, s, n)
        for label in labels:
            chi = AdditiveCharacter(label)
            assert char_order_bruteforce(chi, fp) == char_order_fast(chi, fp), label.value


# Small towers off VERIFICATION_GRID: large p, s up to 4, and n = 11 and 12 over
# F_2, where x^12 - 1 = (x + 1)^4 (x^2 + x + 1)^4 has factors of multiplicity 4
OFF_GRID = [
    (11, 1, 2),
    (2, 4, 2),
    (3, 3, 2),
    (5, 2, 2),
    (2, 1, 11),
    (2, 1, 12),
    (7, 1, 4),
    (2, 2, 6),
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(OFF_GRID), st.data())
def test_order_routes_on_towers_off_the_grid(psn, data):
    assert psn not in VERIFICATION_GRID
    t, fp = tower_and_factors(*psn)
    value = data.draw(st.integers(0, t.size - 1), label="value")
    divisors = divisors_of_xn_minus_1(fp)
    g = divisors[data.draw(st.integers(0, len(divisors) - 1), label="divisor")]
    # g . y reaches orders dividing (x^n - 1) / g, below those of random labels
    for x in (FFElement(t, value), apply_action(g, FFElement(t, value))):
        order = oracle_fq_order(x, fp)
        assert fq_order(x, fp) == order, (psn, x.value)
        assert is_normal(x, fp) == (order == fp.expand()), (psn, x.value)
        chi = AdditiveCharacter(x)
        assert char_order_bruteforce(chi, fp) == char_order_fast(chi, fp), (psn, x.value)
