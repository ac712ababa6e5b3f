"""Independent brute-force oracles used to validate the library's fast paths.

These deliberately avoid the code paths they check: base-field arithmetic is
done on base-p digit lists, irreducibility is decided by exhaustive trial
products, factorization by smallest-divisor trial division, element orders by a
full divisor scan, traces by summing conjugates with plain multiplication, and
normality by Gaussian elimination on the conjugate matrix.
"""

import itertools

from qorder import FFElement, FqPoly, apply_action, poly_sort_key
from qorder.action import _apply_i


def all_polys(field, max_degree):
    """Every polynomial of degree <= max_degree (including zero)."""
    out = [FqPoly.zero(field)]
    for d in range(max_degree + 1):
        for lower in itertools.product(range(field.size), repeat=d):
            for lead in range(1, field.size):
                out.append(FqPoly(field, (*lower, lead)))
    return out


def coeff_lex_order(field):
    """All q coefficients ordered by their base-p digit tuples, computed locally."""

    def digits(c):
        out = []
        for _ in range(field.s):
            c, r = divmod(c, field.p)
            out.append(r)
        return tuple(out)

    return sorted(range(field.size), key=digits)


def _digits(p, s, c):
    out = []
    for _ in range(s):
        c, r = divmod(c, p)
        out.append(r)
    return out


def _from_digits(p, digits):
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def oracle_base_add(p, s, a, b):
    """a + b in F_{p^s}: base-p digits added mod p."""
    pairs = zip(_digits(p, s, a), _digits(p, s, b))
    return _from_digits(p, [(x + y) % p for x, y in pairs])


def oracle_base_neg(p, s, a):
    """-a in F_{p^s}: base-p digits negated mod p."""
    return _from_digits(p, [-x % p for x in _digits(p, s, a)])


def oracle_base_mul(p, modulus, a, b):
    """a * b in F_p[t]/(modulus): digit polynomials multiplied, then reduced mod modulus."""
    s = len(modulus) - 1
    prod = [0] * (2 * s - 1)
    for i, x in enumerate(_digits(p, s, a)):
        for j, y in enumerate(_digits(p, s, b)):
            prod[i + j] += x * y
    for i in range(2 * s - 2, s - 1, -1):
        c = prod[i] % p
        for j, m in enumerate(modulus):
            prod[i - s + j] -= c * m
    return _from_digits(p, [c % p for c in prod[:s]])


def monic_polys(field, degree):
    for lower in itertools.product(coeff_lex_order(field), repeat=degree):
        yield FqPoly(field, (*lower, 1))


def oracle_is_irreducible(f):
    """No monic divisor of degree 1..deg-1 divides f."""
    if f.degree <= 0:
        return False
    for d in range(1, f.degree):
        for cand in monic_polys(f.field, d):
            if (f % cand).is_zero:
                return False
    return True


def oracle_factor(f):
    """Full factorization of a monic polynomial by smallest-divisor trial division."""
    factors = []
    rem = f
    d = 1
    while rem.degree > 0 and 2 * d <= rem.degree:
        for cand in monic_polys(rem.field, d):
            while (rem % cand).is_zero:
                factors.append(cand)
                rem = rem // cand
            if rem.degree < d:
                break
        d += 1
    if rem.degree > 0:
        factors.append(rem)
    return sorted(factors, key=poly_sort_key)


def oracle_divisors(fp):
    """All monic divisors built directly from the exponent lattice."""
    divs = []
    for exps in itertools.product(*(range(e + 1) for _, e in fp.factors)):
        g = FqPoly.one(fp.field)
        for (p_, _), e in zip(fp.factors, exps):
            for _ in range(e):
                g = g * p_
        divs.append(g)
    return sorted(divs, key=poly_sort_key)


def oracle_unit_count(f):
    """Count residues of degree < deg f coprime to f (units of F_q[x]/(f))."""
    count = 0
    for g in all_polys(f.field, f.degree - 1):
        a, b = f, g
        while not b.is_zero:
            a, b = b, a % b
        if a.degree == 0:
            count += 1
    return count


def oracle_fq_order(x, fp):
    """First divisor of x^n - 1 in (degree, lex) order that annihilates x."""
    for g in oracle_divisors(fp):
        if apply_action(g, x).is_zero:
            return g
    raise AssertionError("x^n - 1 annihilates everything")


def oracle_trace(x):
    """Sum of the p-power conjugates, computed with plain multiplications only."""
    tower = x.tower
    p = tower.p
    total = tower.n * tower.s

    def pth_power(v):
        out = 1
        for _ in range(p):
            out = tower._mul_vec(out, v)
        return out

    acc = 0
    val = x.value
    for _ in range(total):
        acc = tower.add_i(acc, val)
        val = pth_power(val)
    assert 0 <= acc < p, "trace must land in the prime field"
    return acc


def oracle_is_normal(x):
    """Conjugates x, x^q, ..., x^(q^(n-1)) form an F_q-basis (Gaussian elimination)."""
    tower = x.tower
    base = tower.base
    n = tower.n
    rows = []
    v = x.value
    for _ in range(n):
        rows.append(tower.coeff_vec(v))
        v = tower.frob_i(v, 1)
    # rank over F_q
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = base.inv(rows[rank][col])
        rows[rank] = [base.mul(inv, c) for c in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [
                    base.sub(a, base.mul(factor, b))
                    for a, b in zip(rows[r], rows[rank])
                ]
        rank += 1
    return rank == n


def oracle_char_annihilated(g, chi):
    """Evaluate chi(g . x) for every x, with traces from oracle_trace."""
    tower = chi.tower
    lab = chi.label.value
    for v in range(tower.size):
        acted = _apply_i(tower, g.coeffs, v)
        product = tower._mul_vec(lab, acted)
        if oracle_trace(FFElement(tower, product)) != 0:
            return False
    return True
