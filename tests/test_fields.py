import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qorder import (
    BaseField,
    FFElement,
    FieldMismatchError,
    NonPrimeError,
    SizeExceededError,
    base_field,
    build_tower,
    element_tokens,
    embed_base,
    enumerate_elements,
    frobenius,
    parse_element,
    smallest_irreducible,
    trace_to_prime,
)
from qorder.errors import ParseError
from qorder.fields import _EXP_LOG_BOUND

from oracles import (
    monic_polys,
    oracle_base_add,
    oracle_base_mul,
    oracle_base_neg,
    oracle_frob,
    oracle_is_irreducible,
    oracle_tower_mul,
    oracle_trace,
)

# Towers past _EXP_LOG_BOUND, where even F_q has no log tables when s > 1:
# q = 2 (shift-xor multiply), q = 4, odd p, odd p with s = 2.
PAST_TABLE_BOUND = [(2, 1, 15), (2, 1, 16), (2, 2, 8), (3, 1, 10), (5, 1, 7), (3, 2, 5)]


class TestCanonicalModuli:
    def test_f4_frozen(self):
        t = build_tower(2, 1, 2)
        assert t.top_modulus.coeffs == (1, 1, 1)  # u^2 + u + 1
        assert t.base_modulus == (0, 1)  # degree-1 convention: t itself

    def test_f8_frozen(self):
        # lex scan order puts u^3 + u^2 + 1 before u^3 + u + 1
        assert build_tower(2, 1, 3).top_modulus.coeffs == (1, 0, 1, 1)

    def test_f16_over_f4_frozen(self):
        t = build_tower(2, 2, 2)
        assert t.base_modulus == (1, 1, 1)  # t^2 + t + 1
        assert t.top_modulus.coeffs == (2, 2, 1)  # u^2 + t*u + t

    def test_f9_frozen(self):
        t = build_tower(3, 2, 1)
        assert t.base_modulus == (1, 0, 1)  # t^2 + 1
        assert t.top_modulus.coeffs == (0, 1)  # degenerate n=1: u

    def test_degenerate_n1_is_base_field(self):
        t = build_tower(3, 1, 1)
        assert t.top_modulus.coeffs == (0, 1)
        for a in range(3):
            for b in range(3):
                assert t.add_i(a, b) == (a + b) % 3
                assert t.mul_i(a, b) == (a * b) % 3

    @pytest.mark.parametrize("p,s,n", [(2, 1, 2), (2, 1, 4), (3, 1, 2), (2, 2, 2)])
    def test_modulus_is_lex_smallest_irreducible(self, p, s, n):
        t = build_tower(p, s, n)
        # independent re-derivation: scan in lex order with the trial oracle
        for f in monic_polys(t.base, n):
            if oracle_is_irreducible(f):
                assert f == t.top_modulus
                break

    def test_determinism_across_calls(self):
        a = build_tower(2, 1, 5)
        b = build_tower(2, 1, 5)
        assert a is b  # cached
        assert a == b

    def test_smallest_irreducible_is_irreducible(self):
        for degree in (1, 2, 3, 4):
            f = smallest_irreducible(base_field(3), degree)
            assert oracle_is_irreducible(f) or degree == 1 and f.coeffs == (0, 1)


class TestBuildErrors:
    def test_non_prime(self):
        with pytest.raises(NonPrimeError):
            build_tower(4, 1, 2)
        with pytest.raises(NonPrimeError):
            build_tower(1, 1, 2)

    def test_size_exceeded(self):
        with pytest.raises(SizeExceededError):
            build_tower(2, 1, 5, size_bound=16)

    def test_bad_degrees(self):
        with pytest.raises(ValueError):
            build_tower(2, 0, 2)
        with pytest.raises(ValueError):
            build_tower(2, 1, 0)


class TestFieldAxioms:
    @pytest.mark.parametrize("p,s,n", [(2, 1, 2), (2, 1, 3), (3, 2, 1)])
    def test_axioms_all_triples(self, p, s, n):
        t = build_tower(p, s, n)
        elements = range(t.size)
        for a, b, c in itertools.product(elements, repeat=3):
            assert t.add_i(a, b) == t.add_i(b, a)
            assert t.mul_i(a, b) == t.mul_i(b, a)
            assert t.add_i(t.add_i(a, b), c) == t.add_i(a, t.add_i(b, c))
            assert t.mul_i(t.mul_i(a, b), c) == t.mul_i(a, t.mul_i(b, c))
            assert t.mul_i(a, t.add_i(b, c)) == t.add_i(t.mul_i(a, b), t.mul_i(a, c))

    @pytest.mark.parametrize("p,s,n", [(2, 1, 2), (2, 1, 3), (3, 2, 1)])
    def test_identities_and_inverses(self, p, s, n):
        t = build_tower(p, s, n)
        for a in range(t.size):
            assert t.add_i(a, 0) == a
            assert t.mul_i(a, 1) == a
            assert t.add_i(a, t.neg_i(a)) == 0
            if a:
                assert t.mul_i(a, t.inv_i(a)) == 1

    def test_table_path_matches_schoolbook(self):
        # F_q with s > 1 multiplies and inverts through log tables: every pair
        # against the schoolbook digit-list oracle
        for p, s in [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]:
            field = base_field(p, s)
            for a, b in itertools.product(range(field.size), repeat=2):
                assert field.mul(a, b) == oracle_base_mul(p, field.modulus, a, b), (a, b)
            for a in range(1, field.size):
                assert oracle_base_mul(p, field.modulus, a, field.inv(a)) == 1, a

    def test_table_path_matches_schoolbook_sampled_large(self):
        # tower products against the oracle, sampled on the largest grid fields;
        # for s > 1 their F_q coefficients multiply through F_q's log tables
        rng = random.Random(77)
        for p, s, n in [(2, 1, 10), (3, 1, 6), (2, 2, 5), (3, 2, 3)]:
            t = build_tower(p, s, n)
            for _ in range(2000):
                a = rng.randrange(t.size)
                b = rng.randrange(t.size)
                assert t.mul_i(a, b) == oracle_tower_mul(t, a, b), (a, b)
            for _ in range(200):
                a = rng.randrange(1, t.size)
                assert oracle_tower_mul(t, a, t.inv_i(a)) == 1
                power = 1
                for _ in range(t.q):
                    power = oracle_tower_mul(t, power, a)
                assert t.frob_i(a, 1) == power

    @pytest.mark.parametrize(
        "p,s,n", [(2, 1, 9), (3, 1, 5), (2, 2, 4), (3, 2, 3), (2, 2, 1), (3, 2, 1)]
    )
    def test_log_tables_step_by_the_generator(self, p, s, n):
        # F_{p^(s*n)} built as F_q keeps log tables: the powers of its first
        # primitive element, stepped by mul and checked against the oracle, meet
        # every nonzero element once, and inv undoes each of them
        field = base_field(p, s * n)
        g0, m = field.modulus, field.size - 1
        for gen in range(2, field.size):
            powers = [1]
            while len(powers) <= m:
                step = field.mul(powers[-1], gen)
                assert step == oracle_base_mul(p, g0, powers[-1], gen), (gen, powers[-1])
                if step == 1:
                    break
                powers.append(step)
            if len(powers) == m:
                break
        assert sorted(powers) == list(range(1, field.size))
        for a in powers:
            assert oracle_base_mul(p, g0, a, field.inv(a)) == 1, a

    def test_pow_and_inv(self):
        t = build_tower(3, 1, 2)
        for a in range(1, t.size):
            assert t.pow_i(a, t.size - 1) == 1  # Fermat
            assert t.mul_i(t.pow_i(a, 3), t.pow_i(a, -3)) == 1
        assert t.pow_i(0, 0) == 1
        assert t.pow_i(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            t.inv_i(0)


class TestFrobenius:
    def test_omega_squared(self, f4):
        t, _ = f4
        omega = FFElement(t, 2)  # u
        assert frobenius(omega).value == 3  # u + 1

    def test_identity_cases(self, small_grid):
        for t, _ in small_grid:
            for v in range(t.size):
                x = FFElement(t, v)
                assert frobenius(x, 0) == x
                assert frobenius(x, t.n) == x

    def test_is_ring_homomorphism(self, f16_over_f4):
        t, _ = f16_over_f4
        for a in range(t.size):
            for b in range(t.size):
                x, y = FFElement(t, a), FFElement(t, b)
                assert frobenius(x + y) == frobenius(x) + frobenius(y)
                assert frobenius(x * y) == frobenius(x) * frobenius(y)

    @pytest.mark.parametrize("p,s,n", [(2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 1)])
    def test_fixed_field_is_embedded_base(self, p, s, n):
        t = build_tower(p, s, n)
        fixed = {v for v in range(t.size) if t.frob_i(v, 1) == v}
        assert fixed == set(range(t.q))

    def test_matches_pow(self, f8):
        t, _ = f8
        for v in range(t.size):
            for k in range(3):
                assert t.frob_i(v, k) == t.pow_i(v, t.q**k)


class TestTrace:
    def test_frozen_f4(self, f4):
        t, _ = f4
        assert trace_to_prime(FFElement(t, 0)) == 0
        assert trace_to_prime(FFElement(t, 1)) == 0  # 1 + 1
        assert trace_to_prime(FFElement(t, 2)) == 1  # omega + omega^2

    @pytest.mark.parametrize("p,s,n", [(2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 1)])
    def test_matches_conjugate_sum_oracle(self, p, s, n):
        t = build_tower(p, s, n)
        for v in range(t.size):
            assert trace_to_prime(FFElement(t, v)) == oracle_trace(FFElement(t, v))

    @pytest.mark.parametrize(
        "p,s,n", [(2, 1, 6), (3, 1, 3), (2, 2, 2), (5, 1, 2), (2, 1, 10)]
    )
    def test_additivity_all_pairs(self, p, s, n):
        t = build_tower(p, s, n)
        p_ = t.p
        trace, add = t.trace_i, t.add_i
        for a in range(t.size):
            ta = trace(a)
            for b in range(t.size):
                assert trace(add(a, b)) == (ta + trace(b)) % p_

    @pytest.mark.parametrize("p,s,n", [(2, 1, 4), (3, 1, 2), (2, 2, 2), (7, 1, 2)])
    def test_fiber_uniformity(self, p, s, n):
        t = build_tower(p, s, n)
        counts = [0] * t.p
        for v in range(t.size):
            counts[t.trace_i(v)] += 1
        assert counts == [t.size // t.p] * t.p

    def test_scalar_linearity_over_fp(self, f9):
        t, _ = f9
        for c in range(t.p):
            for v in range(t.size):
                lhs = t.trace_i(t.mul_i(c, v))
                assert lhs == (c * t.trace_i(v)) % t.p


class TestEmbedding:
    def test_zero_and_one(self, f4):
        t, _ = f4
        assert embed_base(0, t).value == 0
        assert embed_base(1, t).value == 1

    @pytest.mark.parametrize("p,s,n", [(2, 2, 2), (3, 1, 3), (3, 2, 2)])
    def test_ring_homomorphism_exhaustive(self, p, s, n):
        t = build_tower(p, s, n)
        base = t.base
        for c1 in range(t.q):
            for c2 in range(t.q):
                assert embed_base(base.add(c1, c2), t) == embed_base(c1, t) + embed_base(c2, t)
                assert embed_base(base.mul(c1, c2), t) == embed_base(c1, t) * embed_base(c2, t)

    def test_range_check(self, f4):
        t, _ = f4
        with pytest.raises(ValueError):
            embed_base(2, t)  # q = 2: coefficients are 0 and 1


class TestEnumeration:
    @pytest.mark.parametrize("p,s,n", [(2, 1, 2), (2, 1, 3), (3, 2, 1), (2, 2, 2)])
    def test_counts_and_uniqueness(self, p, s, n):
        t = build_tower(p, s, n)
        values = [x.value for x in enumerate_elements(t)]
        assert len(values) == t.size
        assert len(set(values)) == t.size
        assert values[0] == 0

    def test_lexicographic_coordinate_order(self, f16_over_f4):
        t, _ = f16_over_f4
        elems = list(enumerate_elements(t))
        coords = [x.coords for x in elems]
        flattened = [tuple(d for c in co for d in c) for co in coords]
        assert flattened == sorted(flattened)

    def test_size_bound(self):
        t = build_tower(2, 1, 6)
        with pytest.raises(SizeExceededError):
            list(enumerate_elements(t, size_bound=32))


class TestFFElement:
    def test_operators(self, f4):
        t, _ = f4
        omega = FFElement(t, 2)
        one = FFElement(t, 1)
        assert (omega + one).value == 3
        assert (omega * omega).value == 3  # omega^2 = omega + 1
        assert (omega**3).value == 1
        assert (omega / omega).value == 1
        assert (-omega) == omega  # characteristic 2
        assert omega - omega == FFElement(t, 0)

    def test_int_scalars_embed(self, f9):
        t, _ = f9
        x = FFElement(t, 5)
        assert x + 0 == x
        assert 1 * x == x
        with pytest.raises(ValueError):
            x + 9  # out of coefficient range

    def test_mixing_towers_raises(self):
        a = FFElement(build_tower(2, 1, 2), 1)
        b = FFElement(build_tower(2, 1, 3), 1)
        with pytest.raises(FieldMismatchError):
            a + b

    def test_equality_and_hash(self, f4):
        t, _ = f4
        assert FFElement(t, 2) == FFElement(t, 2)
        assert FFElement(t, 2) != FFElement(t, 3)
        assert len({FFElement(t, v) for v in [1, 1, 2, 2]}) == 2

    def test_coords_roundtrip(self, f16_over_f4):
        t, _ = f16_over_f4
        for v in range(t.size):
            x = FFElement(t, v)
            assert t.from_coeff_vec(t.coeff_vec(v)) == v
            assert len(x.coords) == t.n
            assert all(len(c) == t.s for c in x.coords)

    def test_tokens_roundtrip(self, f16_over_f4):
        t, _ = f16_over_f4
        for v in range(t.size):
            x = FFElement(t, v)
            assert parse_element(t, element_tokens(x)) == x

    def test_parse_padding_and_errors(self, f8):
        t, _ = f8
        assert parse_element(t, "1").value == 1
        assert parse_element(t, "0,1").value == 2
        with pytest.raises(ParseError):
            parse_element(t, "0,0,0,1")  # too many coordinates
        with pytest.raises(ParseError):
            parse_element(t, "2,0")  # coefficient out of range
        with pytest.raises(ParseError):
            parse_element(t, "a")

    @pytest.mark.parametrize("text", ["1_0", "+1", "-1", "\u0661", "1 0", "0,\u00b2"])
    def test_parse_accepts_ascii_digits_only(self, text):
        # int() would read underscores, signs and non-ASCII digits
        t = build_tower(13, 1, 2)
        with pytest.raises(ParseError, match="malformed element"):
            parse_element(t, text)
        assert parse_element(t, " 10 , 1 ").value == 10 + 13


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 728), st.integers(0, 728), st.integers(0, 728))
def test_f729_axioms_random(a, b, c):
    # a larger field, sampled rather than exhaustive; its F_9 coefficients
    # multiply through F_9's log tables
    t = build_tower(3, 2, 3)
    assert t.mul_i(a, t.add_i(b, c)) == t.add_i(t.mul_i(a, b), t.mul_i(a, c))
    assert t.mul_i(t.mul_i(a, b), c) == t.mul_i(a, t.mul_i(b, c))


def test_base_field_caching_and_errors():
    assert base_field(2, 2) is base_field(2, 2)
    with pytest.raises(NonPrimeError):
        base_field(9)
    with pytest.raises(ValueError):
        base_field(2, 0)


def check_base_arithmetic(field, pairs):
    """add/neg/sub/mul/inv of a base field against the digit-list oracle."""
    p, s, g0 = field.p, field.s, field.modulus
    for a, b in pairs:
        assert field.add(a, b) == oracle_base_add(p, s, a, b)
        assert field.neg(a) == oracle_base_neg(p, s, a)
        assert field.sub(a, b) == oracle_base_add(p, s, a, oracle_base_neg(p, s, b))
        assert field.mul(a, b) == oracle_base_mul(p, g0, a, b)
        if a:
            assert oracle_base_mul(p, g0, a, field.inv(a)) == 1


class TestBaseFieldArithmetic:
    @pytest.mark.parametrize(
        "p,s", [(2, 1), (3, 1), (131, 1), (2, 2), (2, 3), (3, 2), (5, 2)]
    )
    def test_exhaustive(self, p, s):
        field = base_field(p, s)
        check_base_arithmetic(field, itertools.product(range(field.size), repeat=2))

    @pytest.mark.parametrize("p,s", [(2, 8), (3, 5), (2, 15), (3, 9)])
    def test_sampled_on_both_paths(self, p, s):
        # 2^8 and 3^5 multiply through log tables; 2^15 and 3^9 lie past
        # _EXP_LOG_BOUND and multiply coefficient vectors over F_p
        field = base_field(p, s)
        rng = random.Random(p * 100 + s)
        pairs = [(rng.randrange(field.size), rng.randrange(field.size)) for _ in range(400)]
        check_base_arithmetic(field, [(0, 0), (1, 0), (field.size - 1, 1), *pairs])

    @pytest.mark.parametrize("p,s", [(2, 1), (7, 1), (2, 2), (3, 2), (2, 15)])
    def test_inverse_of_zero_raises(self, p, s):
        with pytest.raises(ZeroDivisionError):
            base_field(p, s).inv(0)

    def test_direct_construction_matches_canonical(self):
        for p, s in [(2, 3), (3, 2), (5, 2)]:
            canonical = base_field(p, s)
            direct = BaseField(p, s, canonical.modulus)
            assert direct == canonical and hash(direct) == hash(canonical)
            for a, b in itertools.product(range(direct.size), repeat=2):
                assert direct.mul(a, b) == canonical.mul(a, b)
                assert direct.add(a, b) == canonical.add(a, b)
        # a non-canonical modulus of F_9: t^2 + t + 2
        other = BaseField(3, 2, (2, 1, 1))
        assert other != base_field(3, 2)
        check_base_arithmetic(other, itertools.product(range(9), repeat=2))
        # t^2 + 1 = (t + 1)^2 over F_2 is reducible: no field, so no BaseField
        with pytest.raises(ValueError, match="irreducible"):
            BaseField(2, 2, (1, 0, 1))


class TestBaseFieldEquality:
    def test_identity_then_value(self):
        # canonical fields are cached instances, so equality is usually identity;
        # distinct instances still compare by (p, s, modulus)
        canonical = base_field(3, 2)
        assert base_field(3, 2) is canonical and canonical == canonical
        direct = BaseField(3, 2, canonical.modulus)
        assert direct is not canonical
        assert direct == canonical and canonical == direct
        assert BaseField(3, 2, (2, 1, 1)) != canonical
        assert BaseField(2, 1, (0, 1)) == base_field(2) != base_field(3)


class TestKernelPastTableBound:
    """Frobenius and multiplication against the digit-list oracles, on towers
    past the table bound and on F_{2^13}, just below it."""

    @staticmethod
    def points(t, seed):
        rng = random.Random(seed)
        return [0, 1, t.q, *(rng.randrange(t.size) for _ in range(3))]  # t.q encodes u

    @pytest.mark.parametrize("p,s,n", [*PAST_TABLE_BOUND, (2, 1, 13)])
    def test_arithmetic_path(self, p, s, n):
        # every tower multiplies one way; frob_table only labels the small ones
        t = build_tower(p, s, n)
        assert (t.frob_table(1) is None) == (t.size > _EXP_LOG_BOUND)

    @pytest.mark.parametrize("p,s,n", [*PAST_TABLE_BOUND, (2, 1, 13)])
    def test_frobenius_matches_oracle(self, p, s, n):
        t = build_tower(p, s, n)
        for x in self.points(t, seed=n):
            for k in range(-1, n + 2):
                assert t.frob_i(x, k) == oracle_frob(t, x, k), (x, k)

    @pytest.mark.parametrize("p,s,n", [*PAST_TABLE_BOUND, (2, 1, 13)])
    def test_trace_gram_matches_oracle(self, p, s, n):
        # entry (i, j) is Tr(p^i * p^j); the trace form is symmetric, so G = G^T
        t = build_tower(p, s, n)
        gram = t._trace_gram()
        assert t._transpose(gram) == gram
        rng = random.Random(p * 1000 + s * 100 + n)
        for _ in range(4):
            i, j = rng.randrange(n * s), rng.randrange(n * s)
            product = FFElement(t, oracle_tower_mul(t, p**i, p**j))
            assert t._combine(gram, p**j) // p**i % p == oracle_trace(product), (i, j)

    @pytest.mark.parametrize("p,s,n", [*PAST_TABLE_BOUND, (2, 1, 13)])
    def test_transpose_swaps_entries(self, p, s, n):
        # on the w-bit digit fields of odd p as on the bits of p = 2
        t = build_tower(p, s, n)
        frob = t._frobenius_columns()[1]
        flipped = t._transpose(frob)
        assert t._transpose(flipped) == frob
        for i in range(n * s):
            column = t._combine(flipped, p**i)
            for j in range(n * s):
                assert column // p**j % p == t._combine(frob, p**j) // p**i % p, (i, j)

    @pytest.mark.parametrize("p,s,n", [*PAST_TABLE_BOUND, (2, 1, 13)])
    def test_multiplication_matches_oracle(self, p, s, n):
        # q = 2 towers multiply and reduce bit masks, the others F_q coefficient
        # lists with the helpers FqPoly uses
        t = build_tower(p, s, n)
        rng = random.Random(p * 1000 + s * 100 + n)
        pairs = [(a, b) for a in self.points(t, seed=n) for b in (1, t.q, t.size - 1)]
        pairs += [(rng.randrange(t.size), rng.randrange(t.size)) for _ in range(30)]
        for a, b in pairs:
            assert t.mul_i(a, b) == oracle_tower_mul(t, a, b), (a, b)


class TestTowerAddition:
    """Odd-p F_{q^n} under + is F_p^(n*s): add_i, sub_i and neg_i against the
    digit oracles, with s = 1 and s = 2, below and past the table bound."""

    @pytest.mark.parametrize(
        "p,s,n", [(3, 1, 10), (5, 1, 7), (3, 2, 5), (5, 2, 4), (3, 2, 4), (7, 1, 4)]
    )
    def test_matches_digit_oracle(self, p, s, n):
        t = build_tower(p, s, n)
        digits = n * s
        rng = random.Random(p * 1000 + s * 100 + n)
        points = [0, 1, t.q - 1, t.size - 1, *(rng.randrange(t.size) for _ in range(12))]
        for x, y in itertools.product(points, repeat=2):
            neg_y = oracle_base_neg(p, digits, y)
            assert t.add_i(x, y) == oracle_base_add(p, digits, x, y), (x, y)
            assert t.sub_i(x, y) == oracle_base_add(p, digits, x, neg_y), (x, y)
            assert t.neg_i(y) == neg_y, y
