import random
from collections import Counter
from functools import cache
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from qorder import (
    DEFAULT_DIVISOR_BOUND,
    FqPoly,
    SizeExceededError,
    ZeroConstantTermError,
    base_field,
    build_tower,
    divisor_phi_table,
    divisors_of_xn_minus_1,
    factor_xn_minus_1,
    is_irreducible,
    is_self_reciprocal,
    monic_polynomials,
    monic_reciprocal,
    parse_poly,
    phi_q,
    poly_gcd,
    poly_sort_key,
    poly_tokens,
    smallest_irreducible,
)
from qorder.classify import MEYN_SWEEP_PRIME_POWERS
from qorder.errors import FieldMismatchError, ParseError
from qorder.integers import _p_part, prime_power_decomposition
from qorder.fields import _EXP_LOG_BOUND
from qorder.poly import (
    _clmul,
    _coeff_divmod,
    _coeff_mul,
    _distinct_degree,
    _equal_degree_split,
    _q_power_map,
)

from oracles import (
    monic_polys,
    oracle_divisors,
    oracle_f2_add,
    oracle_f2_divmod,
    oracle_f2_gcd,
    oracle_f2_mul,
    oracle_f2_powmod,
    oracle_f2_reciprocal,
    oracle_factor,
    oracle_is_irreducible,
    oracle_poly_add,
    oracle_poly_divmod,
    oracle_poly_mul,
    oracle_tower_mul,
    oracle_unit_count,
)

F2 = base_field(2)
F3 = base_field(3)
F4 = base_field(2, 2)
F5 = base_field(5)
F7 = base_field(7)
F8 = base_field(2, 3)
F9 = base_field(3, 2)


def P(field, *coeffs):
    return FqPoly(field, coeffs)


# -- strategies ---------------------------------------------------------------

fields_st = st.sampled_from([F2, F3, F4, F5])


@st.composite
def monic_nonzero_const(draw, field=None, max_degree=6):
    fld = field if field is not None else draw(fields_st)
    d = draw(st.integers(0, max_degree))
    if d == 0:
        return FqPoly.one(fld)
    const = draw(st.integers(1, fld.size - 1))
    mids = draw(st.lists(st.integers(0, fld.size - 1), min_size=d - 1, max_size=d - 1))
    return FqPoly(fld, (const, *mids, 1))


@st.composite
def any_poly(draw, field=None, max_degree=6):
    fld = field if field is not None else draw(fields_st)
    coeffs = draw(st.lists(st.integers(0, fld.size - 1), max_size=max_degree + 1))
    return FqPoly(fld, coeffs)


@cache
def oracle_irreducibles(field, max_degree=3):
    return [
        f
        for d in range(1, max_degree + 1)
        for f in monic_polys(field, d)
        if oracle_is_irreducible(f)
    ]


@st.composite
def irreducible_powers(draw, max_degree=60):
    """A nonzero scalar times up to three distinct irreducibles of degree <= 3,
    each raised to a multiplicity in 1..p^2 + 1, of total degree <= max_degree."""
    fld = draw(fields_st)
    f = FqPoly(fld, (draw(st.integers(1, fld.size - 1)),))
    pool = oracle_irreducibles(fld)
    for g in draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)):
        room = (max_degree - f.degree) // g.degree
        if room:
            f = prod([g] * draw(st.integers(1, min(fld.p**2 + 1, room))), start=f)
    return f


# -- basic arithmetic ----------------------------------------------------------


class TestArithmetic:
    def test_canonical_form_strips_trailing_zeros(self):
        assert P(F2, 1, 1, 0, 0).coeffs == (1, 1)
        assert P(F2).degree == -1
        assert P(F2).is_zero

    def test_gcd_frozen_example(self):
        # x^2+1 = (x+1)^2 over F_2
        assert poly_gcd(P(F2, 1, 0, 1), P(F2, 1, 1)) == P(F2, 1, 1)

    def test_mul_identity(self):
        for f in (P(F3, 2, 1, 1), P(F3), P(F3, 1)):
            assert f * FqPoly.one(F3) == f

    def test_divrem_frozen_example(self):
        # x^3 - 1 = (x - 1)(x^2 + x + 1) over F_3
        q, r = divmod(P(F3, 2, 0, 0, 1), P(F3, 2, 1))
        assert q == P(F3, 1, 1, 1)
        assert r.is_zero

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(F2, 1, 1), P(F2))

    @settings(max_examples=150, deadline=None)
    @given(any_poly(), any_poly())
    def test_divmod_reconstruction(self, a, b):
        if a.field != b.field or b.is_zero:
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @settings(max_examples=100, deadline=None)
    @given(any_poly(field=F4, max_degree=5), any_poly(field=F4, max_degree=5), any_poly(field=F4, max_degree=5))
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == FqPoly.zero(F4)

    def test_gcd_is_monic_and_divides(self):
        a, b = P(F3, 2, 0, 0, 1), P(F3, 1, 1, 1)
        g = poly_gcd(a, b)
        assert g.is_monic
        assert (a % g).is_zero and (b % g).is_zero

    def test_evaluate(self):
        f = P(F3, 2, 1, 1)  # x^2 + x + 2
        assert f.evaluate(0) == 2
        assert f.evaluate(1) == 1  # 1 + 1 + 2 = 4 = 1 mod 3

    @pytest.mark.parametrize("field", [F3, F4, F9], ids=["F3", "F4", "F9"])
    def test_powmod_matches_repeated_multiplication(self, field):
        rng = random.Random(field.size)
        q, large = field.size, 1000

        def draw(degree):
            return FqPoly(field, [rng.randrange(q) for _ in range(degree + 1)])

        moduli = [FqPoly.one(field), P(field, 2), P(field, 1, 1), draw(3), draw(4) * draw(2)]
        for m in (m for m in moduli if not m.is_zero):
            for a in (FqPoly.zero(field), FqPoly.one(field), draw(1), draw(3), draw(8)):
                expected = FqPoly.one(field) % m  # a^0, then one reduced product per step
                for e in range(large + 1):
                    if e in (0, 1, 2, q, large):
                        assert a.powmod(e, m) == expected, (a, e, m)
                    expected = (expected * a) % m
                if m.degree == 0:
                    assert expected.is_zero


# -- F_q[x] on coefficient lists --------------------------------------------------


class TestCoefficientKernels:
    """* and divmod over q > 2 against schoolbook oracles on coefficient lists:
    plain residues over F_p (up to p = 2^61 - 1), XOR over F_4 and F_8, Zech
    logarithms over F_9, F_25 and F_{3^8} (the largest odd-p field with log
    tables), and the tower's digit loop over F_{3^9}, past them."""

    @pytest.mark.parametrize(
        "p,s",
        [(3, 1), (7, 1), (2**61 - 1, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 8), (3, 9)],
    )
    def test_matches_oracle(self, p, s):
        field = base_field(p, s)
        top = field.size - 1
        rng = random.Random(p * 100 + s)

        def draw(degree, lead=None):
            lower = [rng.randrange(field.size) for _ in range(degree)]
            return [*lower, rng.randrange(1, field.size) if lead is None else lead]

        # zero, constants, all-(q - 1) coefficients, monic and non-monic operands
        operands = [[], [1], [top], draw(0), draw(1), draw(3), draw(5, 1), draw(8)]
        operands += [[top] * 9, draw(13)]
        divisors = [[1], [top], draw(0), draw(1), draw(2, 1), draw(3), draw(5), [top] * 4]
        for a in operands:
            for b in operands:
                assert list((P(field, *a) * P(field, *b)).coeffs) == oracle_poly_mul(field, a, b)
            for m in divisors:
                quo, rem = divmod(P(field, *a), P(field, *m))
                quo, rem = list(quo.coeffs), list(rem.coeffs)
                assert (quo, rem) == oracle_poly_divmod(field, a, m), (a, m)
                assert len(rem) < len(m)
                assert oracle_poly_add(field, oracle_poly_mul(field, quo, m), rem) == a


class TestTableLoops:
    """_coeff_mul and _coeff_divmod called directly, on random operands up to
    degree 30: inline log and Zech table loops over F_4, F_8, F_9, F_25 and
    F_{3^8}, field calls past the tables over F_{3^9}, and F_p loops over F_3
    and F_7; the products include squares, which spread the coefficients in
    characteristic 2."""

    @pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 8), (3, 9), (3, 1), (7, 1)])
    def test_kernels_match_oracle(self, p, s):
        field = base_field(p, s)
        assert (field.exp is not None) == (1 < s and field.size <= _EXP_LOG_BOUND)
        rng = random.Random(p * 1000 + s)

        def draw(degree, lead=None):
            lower = [rng.choice((0, rng.randrange(field.size))) for _ in range(degree)]
            return [*lower, rng.randrange(1, field.size) if lead is None else lead]

        # zero, constants (one of them the divisor), monic and non-monic operands
        operands = [[], [1], [field.size - 1], *(draw(rng.randrange(31)) for _ in range(8))]
        divisors = [[1], [field.size - 1], draw(0), draw(1, 1), draw(9), draw(10, 1), draw(25)]
        for a in operands:
            for b in operands:
                assert _trim(_coeff_mul(field, a, b)) == oracle_poly_mul(field, a, b)
            for m in divisors:
                quo, rem = _coeff_divmod(field, a, m)
                assert len(rem) == min(len(a), len(m) - 1)
                assert all(0 <= c < field.size for c in quo + rem)
                assert (_trim(quo), _trim(rem)) == oracle_poly_divmod(field, a, m), (a, m)

    @pytest.mark.parametrize("p,s,ns", [(2, 2, (1, 3, 6)), (2, 3, (1, 2, 5)), (2, 15, (1,))])
    def test_char2_square_matches_product(self, p, s, ns):
        # f * f spreads the coefficients; f * (f + 1) - f is the same square
        # through the schoolbook loop
        field = base_field(p, s)
        rng = random.Random(s)
        for degree in range(61):
            f = FqPoly(field, [rng.randrange(field.size) for _ in range(degree)] + [1])
            assert f * f == f * (f + FqPoly.one(field)) - f
        for n in ns:  # FieldTower.mul_i squares the same way when x == y
            _check_tower_squares(build_tower(p, s, n), rng)

    def test_mask_square_matches_product(self):
        rng = random.Random(2)
        for degree in range(2001):
            a = rng.getrandbits(degree) | 1 << degree
            assert _clmul(a, a) == _clmul(a, a ^ 1) ^ a  # a (a + 1) + a, shifting copies
            f = FqPoly._of_mask(F2, a)
            assert (f * f)._mask == _clmul(a, a)
        assert _clmul(0, 0) == 0
        for n in (1, 9, 64):
            _check_tower_squares(build_tower(2, 1, n, size_bound=1 << 64), rng)

    def test_mask_gcd_matches_oracle(self):
        rng = random.Random(3)

        def digits(degree):
            return [] if degree < 0 else [rng.randrange(2) for _ in range(degree)] + [1]

        for _ in range(300):
            a, b = digits(rng.randrange(-1, 120)), digits(rng.randrange(-1, 120))
            if rng.random() < 0.5:  # share a factor, so the gcd is not 1
                g = digits(rng.randrange(1, 30))
                a, b = oracle_f2_mul(a, g), oracle_f2_mul(b, g)
            gcd_ab = poly_gcd(P(F2, *a), P(F2, *b))
            assert gcd_ab.coeffs == tuple(oracle_f2_gcd(a, b))
            assert gcd_ab == poly_gcd(P(F2, *b), P(F2, *a))

    def test_constructor_checks_outside_input_only(self):
        with pytest.raises(ValueError):
            FqPoly(F4, (1, 4))
        with pytest.raises(ValueError):
            FqPoly(F3, (-1,))
        with pytest.raises(ParseError):
            parse_poly(F9, "1,9")
        with pytest.raises(FieldMismatchError):
            poly_gcd(P(F2, 1, 1), P(F4, 1, 1))


def _check_tower_squares(t, rng):
    for x in [0, 1, t.size - 1] + [rng.randrange(t.size) for _ in range(20)]:
        x2 = oracle_tower_mul(t, x, x)
        assert t.mul_i(x, x) == x2
        assert t.pow_i(x, 5) == oracle_tower_mul(t, oracle_tower_mul(t, x2, x2), x)


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


# -- F_2[x] on bit masks ---------------------------------------------------------


@st.composite
def f2_digits(draw, max_degree=300):
    """Digits of a polynomial over F_2 of degree -1 (zero) to max_degree, top digit 1."""
    d = draw(st.one_of(st.integers(-1, 1), st.integers(-1, max_degree)))
    if d < 0:
        return []
    return [*draw(st.lists(st.integers(0, 1), min_size=d, max_size=d)), 1]


class TestBitMaskArithmetic:
    """FqPoly over F_2 against digit lists, and the tower's q = 2 product, which
    shares the carry-less multiply and reduction."""

    @settings(max_examples=60, deadline=None)
    @given(f2_digits(), f2_digits(), st.integers(0, 12), st.integers(0, 3))
    @example([], [1], 3, 1)
    @example([0, 1], [], 0, 0)
    @example([1], [1, 1], 0, 2)
    @example([1, 0, 1, 1], [1, 1, 0, 0, 1], 5, 0)
    def test_matches_digit_list_oracle(self, a, b, e, pad):
        fa, fb = P(F2, *a, *[0] * pad), P(F2, *b)
        assert fa.coeffs == tuple(a) and fa.degree == len(a) - 1

        def same(f, digits):
            # built by mask arithmetic, compared with a polynomial built from a tuple
            expected = FqPoly(F2, tuple(digits))
            assert f == expected and hash(f) == hash(expected)
            assert f.coeffs == tuple(digits) and f.degree == len(digits) - 1
            assert f.coeffs == () or f.coeffs[-1] == 1

        same(fa + fb, oracle_f2_add(a, b))
        same(fa - fb, oracle_f2_add(a, b))
        same(fa * fb, oracle_f2_mul(a, b))
        if b:
            quo, rem = divmod(fa, fb)
            oracle_quo, oracle_rem = oracle_f2_divmod(a, b)
            same(quo, oracle_quo)
            same(rem, oracle_rem)
            same(fa % fb, oracle_rem)
            same(fa // fb, oracle_quo)
            same(fa.powmod(e, fb), oracle_f2_powmod(a, e, b))
        same(poly_gcd(fa, fb), oracle_f2_gcd(a, b))
        if a and a[0]:
            same(monic_reciprocal(fa), oracle_f2_reciprocal(a))

    @pytest.mark.parametrize("n", [15, 16])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_tower_product_matches_oracle(self, n, data):
        # mul_i multiplies and reduces the bit masks of F_2[u] with _clmul and _clmod
        t = build_tower(2, 1, n)
        element = st.one_of(st.sampled_from([0, 1, 2, t.size - 1]), st.integers(0, t.size - 1))
        x, y = data.draw(element), data.draw(element)
        assert t.mul_i(x, y) == oracle_tower_mul(t, x, y)


# -- monic reciprocal -----------------------------------------------------------


class TestReciprocal:
    def test_frozen_examples(self):
        # x^3 + x + 1 -> x^3 + x^2 + 1 over F_2
        assert monic_reciprocal(P(F2, 1, 1, 0, 1)) == P(F2, 1, 0, 1, 1)
        # x - 1 over F_3 is fixed
        assert monic_reciprocal(P(F3, 2, 1)) == P(F3, 2, 1)
        # x^2 + x + 2 over F_3 -> x^2 + 2x + 2
        assert monic_reciprocal(P(F3, 2, 1, 1)) == P(F3, 2, 2, 1)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroConstantTermError):
            monic_reciprocal(P(F2, 0, 1))
        with pytest.raises(ZeroConstantTermError):
            monic_reciprocal(P(F2))

    def test_non_monic_input_normalized(self):
        # 2x + 1 over F_3: reciprocal of the monic associate semantics
        f = P(F3, 1, 2)
        r = monic_reciprocal(f)
        assert r.is_monic and r.degree == 1
        # f(1/x) * x * f(0)^-1 = (1 + 2/x) * x = x + 2
        assert r == P(F3, 2, 1)

    def test_self_reciprocal_examples(self):
        assert is_self_reciprocal(P(F2, 1, 1, 1))
        assert not is_self_reciprocal(P(F2, 1, 1, 0, 1))
        assert is_self_reciprocal(P(F3, 2, 1))

    def test_involution_exhaustive_small(self):
        for field in (F2, F3):
            for d in range(0, 5):
                for f in monic_polys(field, d):
                    if f.coeffs[0] == 0:
                        continue
                    assert monic_reciprocal(monic_reciprocal(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(monic_nonzero_const())
    def test_involution_property(self, f):
        assert monic_reciprocal(monic_reciprocal(f)) == f

    @settings(max_examples=200, deadline=None)
    @given(monic_nonzero_const(field=F3, max_degree=5), monic_nonzero_const(field=F3, max_degree=5))
    def test_divisibility_transfer(self, f, g):
        lhs = (g % f).is_zero
        rhs = (monic_reciprocal(g) % monic_reciprocal(f)).is_zero
        assert lhs == rhs

    @settings(max_examples=150, deadline=None)
    @given(monic_nonzero_const(field=F4, max_degree=4), monic_nonzero_const(field=F4, max_degree=3))
    def test_reciprocal_multiplicative(self, f, g):
        assert monic_reciprocal(f * g) == monic_reciprocal(f) * monic_reciprocal(g)


# -- irreducibility --------------------------------------------------------------


class TestIrreducible:
    def test_frozen_examples(self):
        assert is_irreducible(P(F2, 1, 1, 1))
        assert not is_irreducible(P(F2, 1, 0, 1))  # (x+1)^2
        assert is_irreducible(P(F3, 1, 0, 1))  # -1 is a non-square mod 3
        # distinct factors of one degree: the first distinct-degree part is all of f
        assert not is_irreducible(P(F2, 1, 1, 0, 1) * P(F2, 1, 0, 1, 1))
        assert not is_irreducible(P(F3, 1, 1) * P(F3, 2, 1))  # (x+1)(x+2) = x^2 + 2
        assert not is_irreducible(P(F2, 1, 1, 1) * P(F2, 1, 1, 1))  # a square

    def test_constants_and_zero_not_irreducible(self):
        assert not is_irreducible(P(F2))
        assert not is_irreducible(P(F2, 1))

    @pytest.mark.parametrize("field,max_d", [(F2, 8), (F3, 5), (F4, 3), (F5, 3)])
    def test_against_trial_division_oracle(self, field, max_d):
        for d in range(1, max_d + 1):
            for f in monic_polys(field, d):
                assert is_irreducible(f) == oracle_is_irreducible(f), str(f)

    def test_monic_polynomials_enumeration(self):
        polys = list(monic_polynomials(F4, 2))
        assert len(polys) == 16
        assert all(f.is_monic and f.degree == 2 for f in polys)
        # first candidate in lex order has all-zero lower coefficients
        assert polys[0] == P(F4, 0, 0, 1)
        # enumeration is sorted by the canonical sort key
        assert polys == sorted(polys, key=poly_sort_key)


# -- factorization of x^n - 1 ------------------------------------------------------


class TestFactorXnMinus1:
    def test_frozen_q2_n3(self):
        fp = factor_xn_minus_1(3, F2)
        assert [(g.coeffs, e) for g, e in fp.factors] == [((1, 1), 1), ((1, 1, 1), 1)]

    def test_frozen_q2_n4(self):
        fp = factor_xn_minus_1(4, F2)
        assert [(g.coeffs, e) for g, e in fp.factors] == [((1, 1), 4)]

    def test_frozen_q3_n4(self):
        fp = factor_xn_minus_1(4, F3)
        assert [(g.coeffs, e) for g, e in fp.factors] == [
            ((1, 1), 1),
            ((2, 1), 1),
            ((1, 0, 1), 1),
        ]

    @pytest.mark.parametrize(
        "field,n_max", [(F2, 8), (F3, 6), (F4, 5), (F5, 4), (F7, 5), (F8, 4), (F9, 4)]
    )
    def test_against_trial_division_oracle(self, field, n_max):
        for n in range(1, n_max + 1):
            fp = factor_xn_minus_1(n, field)
            expanded = []
            for g, e in fp.factors:
                expanded.extend([g] * e)
            assert sorted(expanded, key=poly_sort_key) == oracle_factor(
                FqPoly.x_pow_minus_one(field, n)
            )

    def test_p_part_splits_off_the_prime_power(self):
        # n = p^u * v with p not dividing v: the split both factor_xn_minus_1 and
        # the Meyn sweep start from, and Miller-Rabin's n - 1 = 2^r * d
        for p in (2, 3, 5, 7):
            for n in range(1, 300):
                u, v = _p_part(n, p)
                assert p**u * v == n and v % p, (p, n)

    def test_product_and_multiplicities(self):
        for field, n in [(F2, 12), (F3, 9), (F4, 6), (F5, 10)]:
            fp = factor_xn_minus_1(n, field)
            assert fp.expand() == FqPoly.x_pow_minus_one(field, n)
            p = field.p
            u, v = 0, n
            while v % p == 0:
                v //= p
                u += 1
            assert all(e == p**u for _, e in fp.factors)
            assert all(is_irreducible(g) for g, _ in fp.factors)
            assert all(g.is_monic for g, _ in fp.factors)

    def test_canonical_sorting_and_seed_independence(self):
        for seed in (0, 1, 99, 123456):
            fp = factor_xn_minus_1(7, F2, seed)
            assert [g.coeffs for g, _ in fp.factors] == [
                (1, 1),
                (1, 0, 1, 1),
                (1, 1, 0, 1),
            ]
        # several factors of one degree per cyclotomic part, so the splits vary
        for field, n in [(F3, 26), (F4, 45), (F9, 40)]:
            first = factor_xn_minus_1(n, field, 0)
            assert [g for g, _ in first.factors] == sorted(
                (g for g, _ in first.factors), key=poly_sort_key
            )
            for seed in (1, 99, 123456):
                assert factor_xn_minus_1(n, field, seed) == first

    @pytest.mark.parametrize("q", MEYN_SWEEP_PRIME_POWERS)
    def test_cyclotomic_degrees(self, q):
        # x^n - 1 = (x^v - 1)^(p^u), and the cyclotomic part Phi_d (d | v) is a
        # product of phi(d)/ord_d(q) irreducibles of degree ord_d(q)
        p, s = prime_power_decomposition(q)
        field = base_field(p, s)
        for n in range(1, 41):
            u, v = 0, n
            while v % p == 0:
                v //= p
                u += 1
            expected = Counter()
            for d in range(1, v + 1):
                if v % d == 0:
                    order = next(k for k in range(1, d + 1) if (q**k - 1) % d == 0)
                    totient = sum(1 for a in range(1, d + 1) if gcd(a, d) == 1)
                    expected[order] += totient // order
            fp = factor_xn_minus_1(n, field)
            assert Counter(g.degree for g, _ in fp.factors) == expected, n
            assert all(e == p**u for _, e in fp.factors)
            assert all(is_irreducible(g) for g, _ in fp.factors)
            assert fp.expand() == FqPoly.x_pow_minus_one(field, n)

    @pytest.mark.parametrize("d", [2, 4])
    def test_equal_degree_split_rejects_a_wrong_degree(self, d):
        # Phi_7 over F_2 is two irreducible cubics: 4 does not divide its degree,
        # and at degree 2 a split leaves a cubic or a draw r has r^(2^2) != r
        phi7 = P(F2, 1, 1, 1, 1, 1, 1, 1)
        assert sorted(_equal_degree_split(phi7, 3, random.Random(0)), key=poly_sort_key) == [
            P(F2, 1, 0, 1, 1),
            P(F2, 1, 1, 0, 1),
        ]
        for seed in range(5):
            with pytest.raises(AssertionError):
                _equal_degree_split(phi7, d, random.Random(seed))

    @pytest.mark.parametrize("field", [F2, F3, F7, F8], ids=["F2", "F3", "F7", "F8"])
    def test_equal_degree_split_rejects_a_wrong_degree_that_divides(self, field):
        # Phi_5 is irreducible of degree 4 over F_2, F_3, F_7 and F_8: at degree 2
        # no draw ever splits it, so only the r^(q^2) = r check stops the loop
        phi5 = FqPoly(field, [1] * 5)
        assert _equal_degree_split(phi5, 4, random.Random(0)) == [phi5]
        for seed in range(5):
            with pytest.raises(AssertionError):
                _equal_degree_split(phi5, 2, random.Random(seed))

    @pytest.mark.parametrize("field", [F4, F9], ids=["F4", "F9"])
    def test_equal_degree_split_of_two_quadratics(self, field):
        # Phi_5 is two irreducible quadratics over F_4 and F_9 (5 divides q^2 - 1
        # but not q - 1): at degree 1 no split reaches a linear factor, so the
        # t^q = t check ends every attempt, and at degree 2 both quadratics appear
        phi5 = FqPoly(field, [1] * 5)
        for seed in range(5):
            with pytest.raises(AssertionError):
                _equal_degree_split(phi5, 1, random.Random(seed))
        quadratics = [g for g, _ in factor_xn_minus_1(5, field).factors if g.degree == 2]
        assert len(quadratics) == 2
        for seed in range(5):
            split = _equal_degree_split(phi5, 2, random.Random(seed))
            assert sorted(split, key=poly_sort_key) == quadratics

    @pytest.mark.parametrize("n,q", [(19, 9), (11, 3), (13, 5)])
    def test_split_raises_nothing_to_a_power_above_q(self, monkeypatch, n, q):
        # The conjugates r^(q^i) come from the q-power matrix, not from r raised
        # to (q^d - 1)/2: only x^q mod f and t^((q - 1)/2) go through powmod
        p, s = prime_power_decomposition(q)
        field, exponents, powmod = base_field(p, s), [], FqPoly.powmod

        def recording(self, exponent, modulus):
            exponents.append(exponent)
            return powmod(self, exponent, modulus)

        monkeypatch.setattr(FqPoly, "powmod", recording)
        fp = factor_xn_minus_1(n, field)
        assert fp.expand() == FqPoly.x_pow_minus_one(field, n)
        assert exponents and max(exponents) <= q


class TestQPowerMap:
    """_q_power_map(f)(t, r) against t.powmod(q, f) + r: F_p loops over F_3, F_5
    and F_7, XOR rows over F_4 and F_8, Zech rows over F_9 and F_25, field calls
    past the tables over F_{3^9}, and F_{2^61 - 1}, where q > deg f makes
    x^q mod f a dense polynomial.  Over F_{3^9} each term is a field call, so
    its degrees stop at 13."""

    @pytest.mark.parametrize(
        "p,s,max_degree",
        [(3, 1, 30), (5, 1, 30), (7, 1, 30), (2, 2, 30), (2, 3, 30), (3, 2, 30), (5, 2, 30)]
        + [(3, 9, 13), (2**61 - 1, 1, 30)],
    )
    def test_matches_powmod(self, p, s, max_degree):
        field = base_field(p, s)
        q, rng = field.size, random.Random(p * 100 + s)

        def draw(degree):
            return FqPoly(field, [rng.randrange(q) for _ in range(degree)])

        for degree in (d for d in (1, 2, 3, 5, 8, 13, 21, 30) if d <= max_degree):
            while True:  # monic and squarefree: gcd(f, f') = 1
                f = FqPoly(field, [rng.randrange(q) for _ in range(degree)] + [1])
                df = FqPoly(field, [field.mul(k % p, c) for k, c in enumerate(f.coeffs)][1:])
                if poly_gcd(f, df).degree == 0:
                    break
            step = _q_power_map(f)
            for _ in range(2):
                t, r = draw(degree), draw(degree)
                assert step(t, r) == t.powmod(q, f) + r, (f, t, r)


class TestDivisors:
    def test_frozen_q2_n4(self):
        fp = factor_xn_minus_1(4, F2)
        divs = divisors_of_xn_minus_1(fp)
        assert len(divs) == 5  # 1, (x+1), ..., (x+1)^4
        assert divs[0] == FqPoly.one(F2)
        assert divs[-1] == FqPoly.x_pow_minus_one(F2, 4)

    def test_frozen_n1(self):
        fp = factor_xn_minus_1(1, F3)
        assert [d.coeffs for d in divisors_of_xn_minus_1(fp)] == [(1,), (2, 1)]

    def test_count_and_order(self):
        for field, n in [(F2, 3), (F2, 6), (F3, 4), (F4, 3)]:
            fp = factor_xn_minus_1(n, field)
            divs = divisors_of_xn_minus_1(fp)
            assert len(divs) == fp.divisor_count()
            assert list(divs) == oracle_divisors(fp)
            assert list(divs) == sorted(divs, key=poly_sort_key)

    def test_size_bound(self):
        assert len(divisors_of_xn_minus_1(factor_xn_minus_1(2048, F2))) == 2049
        fp = factor_xn_minus_1(4096, F2)  # (x+1)^4096: one divisor past the bound
        assert fp.divisor_count() == DEFAULT_DIVISOR_BOUND + 1
        with pytest.raises(SizeExceededError, match="4097 divisors exceed"):
            divisors_of_xn_minus_1(fp)
        with pytest.raises(SizeExceededError, match="4097 divisors exceed"):
            divisor_phi_table(fp)

    def test_divisor_products_leave_equality_and_hash_alone(self):
        fp = factor_xn_minus_1(12, F3)
        fresh = factor_xn_minus_1(12, F3)
        assert fp.divisor((0, 2, 1)) == P(F3, 2, 1) * P(F3, 2, 1) * P(F3, 1, 0, 1)
        divisors_of_xn_minus_1(fp)
        assert fp == fresh and hash(fp) == hash(fresh)
        assert repr(fp) == repr(fresh)

    def test_expand_at_high_multiplicity(self):
        fp = factor_xn_minus_1(1024, F2)  # (x+1)^1024: a chain of 1024 products
        assert fp.expand() == FqPoly.x_pow_minus_one(F2, 1024)
        assert fp.divisor((512,)) == FqPoly.x_pow_minus_one(F2, 512)


class TestPhiQ:
    def test_frozen_examples(self):
        assert phi_q(P(F2, 1, 1)) == 1
        assert phi_q(P(F2, 1, 1, 1)) == 3
        assert phi_q(P(F2, 1, 1) * P(F2, 1, 1)) == 2
        assert phi_q(FqPoly.one(F2)) == 1

    def test_factored_form(self):
        fp = factor_xn_minus_1(4, F2)
        assert phi_q(fp) == phi_q(FqPoly.x_pow_minus_one(F2, 4)) == 8

    @pytest.mark.parametrize("field,max_d", [(F2, 4), (F3, 4), (F4, 4)])
    def test_against_unit_count_oracle(self, field, max_d):
        for d in range(1, max_d + 1):
            for f in monic_polys(field, d):
                assert phi_q(f) == oracle_unit_count(f), str(f)

    def test_sum_over_divisors_is_field_size(self):
        for field, n in [(F2, 6), (F2, 10), (F3, 6), (F4, 4), (F5, 4)]:
            fp = factor_xn_minus_1(n, field)
            assert sum(phi for _, phi in divisor_phi_table(fp)) == field.size**n

    @settings(max_examples=120, deadline=None)
    @given(irreducible_powers())
    def test_irreducible_powers_against_oracle_factor(self, f):
        # phi_q and the distinct-degree parts of a non-squarefree f, against the
        # multiplicative formula over the oracle's factorization with multiplicities
        q = f.field.size
        counts = Counter(oracle_factor(f.monic()))
        assert phi_q(f) == prod(
            q ** ((e - 1) * g.degree) * (q**g.degree - 1) for g, e in counts.items()
        )
        expected = {}
        for g in counts:
            expected[g.degree] = expected.get(g.degree, FqPoly.one(f.field)) * g
        assert dict(_distinct_degree(f.monic())) == expected

    def test_irreducible_of_degree_40(self):
        assert phi_q(smallest_irreducible(F2, 40)) == 2**40 - 1

    def test_phi_table_matches_phi_q(self):
        for field, n in [(F3, 6), (F2, 7), (F2, 12), (F4, 5), (F5, 4), (F3, 8)]:
            fp = factor_xn_minus_1(n, field)
            table = divisor_phi_table(fp)
            assert [f for f, _ in table] == list(divisors_of_xn_minus_1(fp))
            for f, phi in table:
                assert phi == phi_q(f)


class TestTextFormat:
    def test_roundtrip(self):
        f = P(F2, 1, 1, 0, 1)
        assert parse_poly(F2, poly_tokens(f)) == f
        assert poly_tokens(f) == "1,1,0,1"
        assert parse_poly(F2, "0") == FqPoly.zero(F2)
        assert poly_tokens(FqPoly.zero(F2)) == "0"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_poly(F2, "1,,1")
        with pytest.raises(ParseError):
            parse_poly(F2, "2,1")
        with pytest.raises(ParseError):
            parse_poly(F2, "x+1")
        with pytest.raises(ParseError):
            parse_poly(F2, "")

    @pytest.mark.parametrize("text", ["1_0,1", "+1", "-1", "\u0661", "1 0", "\u00b2"])
    def test_parse_accepts_ascii_digits_only(self, text):
        # int() would read underscores, signs and non-ASCII digits
        with pytest.raises(ParseError, match="malformed polynomial"):
            parse_poly(base_field(13), text)
        assert parse_poly(base_field(13), " 10 , 1 ") == P(base_field(13), 10, 1)

    def test_str_rendering(self):
        assert str(P(F2, 1, 1, 0, 1)) == "x^3 + x + 1"
        assert str(P(F3, 2, 2, 1)) == "x^2 + 2*x + 2"
        assert str(P(F2)) == "0"
