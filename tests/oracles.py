"""Independent brute-force oracles used to validate the library's fast paths.

These deliberately avoid the code paths they check: field arithmetic at both
levels is done on digit lists (base-p digits for F_q, F_q coefficients for
F_{q^n}), Frobenius by repeated oracle multiplication, and the module action as
the sum of those conjugates.  Irreducibility is decided by exhaustive trial
products, factorization by smallest-divisor trial division, element orders by a
full divisor scan, traces by summing conjugates, and normality by Gaussian
elimination on the conjugate matrix.  Only the tower's moduli and parameters are
read from the library.
"""

import itertools

from qorder import FFElement, FqPoly, poly_sort_key


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


# -- F_q[x] on coefficient lists ----------------------------------------------
#
# A polynomial over F_q = F_p[t]/(modulus) is a list of coefficients in [0, q),
# constant term first, with no trailing zeros; [] is zero.  Every coefficient
# operation is oracle_base_add or oracle_base_mul: -c is (p - 1) * c, since the
# int p - 1 encodes -1, and 1/c is c^(q - 2) by square and multiply.


def _poly_trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def oracle_poly_mul(field, a, b):
    """Schoolbook product of coefficient lists over field."""
    p, s, g0 = field.p, field.s, field.modulus
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = oracle_base_add(p, s, out[i + j], oracle_base_mul(p, g0, x, y))
    return _poly_trim(out)


def oracle_poly_add(field, a, b):
    width = max(len(a), len(b))
    a, b = a + [0] * (width - len(a)), b + [0] * (width - len(b))
    return _poly_trim(oracle_base_add(field.p, field.s, x, y) for x, y in zip(a, b))


def _oracle_base_inv(field, c):
    p, g0 = field.p, field.modulus
    out, e = 1, field.size - 2
    while e:
        if e & 1:
            out = oracle_base_mul(p, g0, out, c)
        c, e = oracle_base_mul(p, g0, c, c), e >> 1
    return out


def oracle_poly_divmod(field, a, m):
    """Long division of a by the nonzero m over field: (quotient, remainder)."""
    if not m:
        raise ZeroDivisionError("division by the zero polynomial")
    p, s, g0 = field.p, field.s, field.modulus
    inv_lead = _oracle_base_inv(field, m[-1])
    rem = list(a)
    quo = [0] * max(len(a) - len(m) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        f = quo[i] = oracle_base_mul(p, g0, rem[i + len(m) - 1], inv_lead)
        minus_f = oracle_base_mul(p, g0, p - 1, f)
        for j, y in enumerate(m):
            rem[i + j] = oracle_base_add(p, s, rem[i + j], oracle_base_mul(p, g0, minus_f, y))
    return _poly_trim(quo), _poly_trim(rem)


def oracle_tower_mul(tower, a, b):
    """a * b in F_q[u]/(h0): F_q coefficient lists multiplied with the base oracles,
    then reduced mod the top modulus h0."""
    p, s, g0 = tower.p, tower.s, tower.base_modulus
    q, n = tower.q, tower.n
    prod = [0] * (2 * n - 1)
    bs = [(j, y) for j, y in enumerate(_digits(q, n, b)) if y]
    for i, x in enumerate(_digits(q, n, a)):
        for j, y in bs if x else ():
            prod[i + j] = oracle_base_add(p, s, prod[i + j], oracle_base_mul(p, g0, x, y))
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        for j, m in enumerate(tower.top_modulus.coeffs) if c else ():
            cm = oracle_base_neg(p, s, oracle_base_mul(p, g0, c, m))
            prod[i - n + j] = oracle_base_add(p, s, prod[i - n + j], cm)
    return _from_digits(q, prod[:n])


def _oracle_qth_power(tower, v):
    out = 1
    for _ in range(tower.q):
        out = oracle_tower_mul(tower, out, v)
    return out


def oracle_conjugates(tower, x, count=None):
    """[x, x^q, ..., x^(q^(count-1))] by successive oracle q-th powers (count <= n)."""
    conj = [x]
    while len(conj) < (tower.n if count is None else count):
        conj.append(_oracle_qth_power(tower, conj[-1]))
    return conj


def oracle_frob(tower, x, k):
    """x^(q^k): the last of k mod n successive oracle q-th powers."""
    return oracle_conjugates(tower, x, k % tower.n + 1)[-1]


def _oracle_action_sum(tower, coeffs, conj):
    total = tower.n * tower.s
    acc = 0
    for i, a in enumerate(coeffs):
        if a:
            term = oracle_tower_mul(tower, a, conj[i % tower.n])
            acc = oracle_base_add(tower.p, total, acc, term)
    return acc


def oracle_apply_action(tower, coeffs, x):
    """sum a_i * x^(q^i) over the coefficients of g, with oracle arithmetic only."""
    conj = oracle_conjugates(tower, x, min(len(coeffs), tower.n))
    return _oracle_action_sum(tower, coeffs, conj)


def oracle_action_images(tower, coeffs):
    """g . x for every x in range order: oracle_apply_action at the n*s basis points
    p^t, then each x's value as their oracle sum weighted by x's base-p digits (the
    action is F_p-linear).  That is n*s oracle actions per g instead of q^n, whose
    q-th powers take about 20 s over F_{2^12} on a 2-vCPU VM."""
    p, total = tower.p, tower.n * tower.s
    images = [0]
    for t in range(total):
        column, block = oracle_apply_action(tower, coeffs, p**t), images
        for _ in range(p - 1):  # x = d * p^t + y for y < p^t: images[y] + d * column
            block = [oracle_base_add(p, total, v, column) for v in block]
            images = images + block
    return images


# -- F_2[x] on digit lists ---------------------------------------------------
#
# A polynomial over F_2 is a list of 0/1 digits, constant term first, with no
# trailing zeros; [] is zero.  Schoolbook product, long division and Euclid mod 2
# on these lists check FqPoly's bit-mask arithmetic without calling it.


def _f2_trim(digits):
    out = list(digits)
    while out and out[-1] == 0:
        out.pop()
    return out


def oracle_f2_add(a, b):
    width = max(len(a), len(b))
    a, b = a + [0] * (width - len(a)), b + [0] * (width - len(b))
    return _f2_trim((x + y) % 2 for x, y in zip(a, b))


def oracle_f2_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b) if x else ():
            out[i + j] = (out[i + j] + y) % 2
    return _f2_trim(out)


def oracle_f2_divmod(a, b):
    """Long division of a by the nonzero b: (quotient, remainder)."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        if rem[i + len(b) - 1]:
            quo[i] = 1
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] + y) % 2
    return _f2_trim(quo), _f2_trim(rem)


def oracle_f2_powmod(a, e, m):
    """a^e mod m by e multiplications, each reduced."""
    a = oracle_f2_divmod(a, m)[1]
    out = oracle_f2_divmod([1], m)[1]
    for _ in range(e):
        out = oracle_f2_divmod(oracle_f2_mul(out, a), m)[1]
    return out


def oracle_f2_gcd(a, b):
    """Euclid; over F_2 every nonzero gcd is already monic."""
    while b:
        a, b = b, oracle_f2_divmod(a, b)[1]
    return a


def oracle_f2_reciprocal(a):
    """x^deg(a) a(1/x) for a(0) = 1: the digits reversed."""
    return a[::-1]


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
    conj = oracle_conjugates(x.tower, x.value)
    for g in oracle_divisors(fp):
        if _oracle_action_sum(x.tower, g.coeffs, conj) == 0:
            return g
    raise AssertionError("x^n - 1 annihilates everything")


def oracle_trace(x):
    """Sum of the p-power conjugates, computed with oracle multiplications only."""
    tower = x.tower
    p = tower.p
    total = tower.n * tower.s

    def pth_power(v):
        out = 1
        for _ in range(p):
            out = oracle_tower_mul(tower, out, v)
        return out

    acc = 0
    val = x.value
    for _ in range(total):
        acc = oracle_base_add(p, total, acc, val)
        val = pth_power(val)
    assert 0 <= acc < p, "trace must land in the prime field"
    return acc


def oracle_is_normal(x):
    """Conjugates x, x^q, ..., x^(q^(n-1)) form an F_q-basis (Gaussian elimination)."""
    tower = x.tower
    p, s, g0, n = tower.p, tower.s, tower.base_modulus, tower.n

    def mul(a, b):
        return oracle_base_mul(p, g0, a, b)

    def sub(a, b):
        return oracle_base_add(p, s, a, oracle_base_neg(p, s, b))

    rows = [_digits(tower.q, n, v) for v in oracle_conjugates(tower, x.value)]
    # rank over F_q
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = next(b for b in range(1, tower.q) if mul(rows[rank][col], b) == 1)
        rows[rank] = [mul(inv, c) for c in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [sub(a, mul(factor, b)) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == n


def oracle_char_annihilated(g, chi):
    """Evaluate chi(g . x) for every x, with traces from oracle_trace."""
    tower = chi.tower
    lab = chi.label.value
    for v in range(tower.size):
        acted = oracle_apply_action(tower, g.coeffs, v)
        product = oracle_tower_mul(tower, lab, acted)
        if oracle_trace(FFElement(tower, product)) != 0:
            return False
    return True


def oracle_annihilated_labels(tower, g):
    """The labels a with Tr(a * (g . x)) = 0 for every x: oracle_char_annihilated
    for every label at once, with each g . x and each trace computed once."""
    image = {oracle_apply_action(tower, g.coeffs, v) for v in range(tower.size)}
    trace = [oracle_trace(FFElement(tower, v)) for v in range(tower.size)]
    return {
        lab
        for lab in range(tower.size)
        if all(trace[oracle_tower_mul(tower, lab, v)] == 0 for v in image)
    }
