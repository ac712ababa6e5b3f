"""Dense univariate polynomial arithmetic over a finite coefficient field.

A polynomial presents an immutable tuple of coefficients, constant term
first, with no trailing zeros; the zero polynomial has an empty tuple and
degree -1.  Coefficients are integers in [0, q) encoding elements of the
coefficient field F_q (little-endian base-p digits, see qorder.fields).
Over F_2 the polynomial is kept as one int bit mask instead, and the tuple
is built only when asked for.  Products and remainders are _clmul and _clmod
on bit masks over F_2, _coeff_mul (schoolbook) and _coeff_divmod (long
division) on coefficient lists otherwise; the tower F_{q^n} = F_q[u]/(h0) in
qorder.fields multiplies with the same helpers.  None of them calls a
function per term: over a prime field they work on plain int residues,
reduced mod p once per coefficient, and over F_q with s > 1, up to 2^14
elements, they read the field's exp and log tables inline, adding by XOR
when p = 2 and by a Zech logarithm step otherwise.  Only past the tables is
each term a call to the field's mul and add.  In characteristic 2 a square
has no cross terms, so _clmul and _coeff_mul square by spreading the
coefficients, and Euclid over F_2 runs on bare bit masks.

Beyond ring arithmetic this module provides the monic reciprocal
f*(x) = f(0)^-1 x^deg(f) f(1/x), one distinct-degree loop that serves the
Ben-Or irreducibility test and the polynomial Euler totient phi_q of any
nonzero polynomial, the factorization of x^n - 1 (each cyclotomic part split
at its known degree by the trace map, whose q-power steps are squarings for
q = 2 and one q-power matrix mod f for q > 2), and the divisor lattice of a
factored polynomial (multiplied out once and kept on the FactoredPoly itself).
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from functools import cached_property
from math import prod
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import (
    FieldMismatchError,
    ParseError,
    SizeExceededError,
    ZeroConstantTermError,
)
from .integers import _p_part

if TYPE_CHECKING:
    from .fields import BaseField

#: Divisor enumerations refuse to materialize more than this many divisors.
DEFAULT_DIVISOR_BOUND = 4096

# Bytes 0 and 1 to the digits "0" and "1": an F_2 coefficient list, reversed and
# translated, is its bit mask written in base 2.
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _clmul(a: int, b: int) -> int:
    """Carry-less product of F_2[x] bit masks: a shifted copy of a per set bit of b.

    A square has no cross terms in characteristic 2, (sum a_i x^i)^2 =
    sum a_i x^(2i), so a * a is the binary digits of a read in base 4.
    """
    if a == b:
        return int(bin(a)[2:], 4)
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def _clmod(a: int, m: int) -> int:
    """a mod m on F_2[x] bit masks, m nonzero.

    Each step clears the top bit of a with m << (deg a - deg m).
    """
    dm = m.bit_length()
    while (da := a.bit_length()) >= dm:
        a ^= m << (da - dm)
    return a


def _coeff_mul(field: "BaseField", a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Schoolbook product of F_q coefficient lists (constant first); [] is zero.

    Over F_p (s = 1) the products accumulate as plain ints, reduced mod p once
    per output coefficient.  Over F_q with s > 1 and log tables each row of
    terms exp[log a_i + log b_j] is added in place by _add_row.  Past the
    tables each term is one field.mul and one field.add.  In characteristic 2
    a square has no cross terms: a * a is sum a_i^2 x^(2i), one field.mul per
    coefficient.
    """
    out = [0] * (len(a) + len(b) - 1)
    if field.p == 2 and a == b:
        out[::2] = map(field.mul, a, a)
        return out
    exp, log, zech = field.exp, field.log, field.zech
    if exp is None:  # F_p, or F_q past the tables
        terms = [(j, bj) for j, bj in enumerate(b) if bj]
        if field.s == 1:
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in terms:
                        out[i + j] += ai * bj
            p = field.p
            return [c % p for c in out]
        add, mul = field.add, field.mul
        for i, ai in enumerate(a):
            if ai:
                for j, bj in terms:
                    out[i + j] = add(out[i + j], mul(ai, bj))
        return out
    terms = [(j, log[bj]) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            _add_row(out, i, log[ai], terms, exp, log, zech)
    return out


def _add_row(out: list, i: int, la: int, terms, exp, log, zech) -> None:
    """out[i + j] += gen^(la + lb) for each (j, lb) in terms, over F_q's log tables.

    For p = 2 (zech is None) the add is a XOR.  For odd p it is a Zech step:
    c + gen^t = gen^(log c) (1 + gen^(t - log c)) = exp[log c + zech[t - log c]];
    la and each lb lie in [0, q - 1), so every index stays in zech's and exp's
    two periods (see fields._log_table_arithmetic).
    """
    if zech is None:
        for j, lb in terms:
            out[i + j] ^= exp[la + lb]
        return
    for j, lb in terms:
        k = i + j
        c = out[k]
        if c:
            lc = log[c]
            z = zech[la + lb - lc]
            out[k] = 0 if z is None else exp[lc + z]
        else:
            out[k] = exp[la + lb]


def _coeff_divmod(
    field: "BaseField", a: Sequence[int], m: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Quotient and remainder of F_q coefficient lists by long division, m[-1] != 0.

    The remainder has min(len(a), deg m) entries, trailing zeros included.
    Each quotient row adds -f * m to the remainder.  Over F_p (s = 1) the
    terms are plain ints: each top coefficient is reduced mod p before it sets
    its quotient digit, and each remainder entry once at the end.  Over F_q
    with s > 1 and log tables each row is added by _add_row.
    """
    dm = len(m) - 1
    if len(a) <= dm:
        return [], list(a)
    rem = list(a)
    quo = [0] * (len(a) - dm)
    rows = range(len(quo) - 1, -1, -1)
    exp, log, zech = field.exp, field.log, field.zech
    if exp is None:  # F_p, or F_q past the tables
        terms = [(j, c) for j, c in enumerate(m[:dm]) if c]
        inv_lead = 1 if m[dm] == 1 else field.inv(m[dm])
        if field.s == 1:
            p = field.p
            for i in rows:
                if top := rem[i + dm] % p:
                    f = quo[i] = top * inv_lead % p
                    for j, c in terms:
                        rem[i + j] -= f * c
            return quo, [c % p for c in rem[:dm]]
        sub, mul = field.sub, field.mul
        for i in rows:
            if top := rem[i + dm]:
                f = quo[i] = top if inv_lead == 1 else mul(top, inv_lead)
                for j, c in terms:
                    rem[i + j] = sub(rem[i + j], mul(f, c))
        return quo, rem[:dm]
    period = field.size - 1
    log_inv = period - log[m[dm]]  # log of 1/m[dm]
    # -1 is gen^((q - 1)/2) for odd p and 1 for p = 2
    log_neg_inv = log_inv if zech is None else log_inv + period // 2
    terms = [(j, log[c]) for j, c in enumerate(m[:dm]) if c]
    for i in rows:
        if top := rem[i + dm]:
            lf = log[top]
            quo[i] = exp[lf + log_inv]
            _add_row(rem, i, (lf + log_neg_inv) % period, terms, exp, log, zech)  # -f * m
    return quo, rem[:dm]


class FqPoly:
    """Immutable dense polynomial over F_q.

    Construction canonicalizes: trailing zero coefficients are stripped, so
    two equal polynomials always compare and hash equal.  Over F_2 the
    polynomial lives in one int bit mask (bit i is the coefficient of x^i),
    its arithmetic is _clmul and _clmod, and the public coeffs tuple is
    materialized on first use.
    """

    __slots__ = ("field", "coeffs", "_mask")

    def __init__(self, field: "BaseField", coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        q = field.size
        for c in cs:
            if not 0 <= c < q:
                raise ValueError(f"coefficient {c!r} outside [0, {q})")
        self._fill(field, cs)

    def _fill(self, field: "BaseField", cs: list[int]) -> None:
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)
        self._mask = None
        if field.size == 2:
            self._mask = int(bytes(cs[::-1]).translate(_BIT_DIGITS) or b"0", 2)

    @staticmethod
    def _of_list(field: "BaseField", cs: list[int]) -> "FqPoly":
        """The polynomial with coefficient list cs (stripped in place), each entry
        already in [0, q), as arithmetic results are: unlike FqPoly(), no check."""
        f = object.__new__(FqPoly)
        f._fill(field, cs)
        return f

    @staticmethod
    def _of_mask(field: "BaseField", mask: int) -> "FqPoly":
        """The polynomial over F_2 whose bit mask is mask; coeffs is built on first use."""
        f = object.__new__(_MaskOnly)
        f.field = field
        f._mask = mask
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: "BaseField") -> "FqPoly":
        return cls(field)

    @classmethod
    def one(cls, field: "BaseField") -> "FqPoly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: "BaseField") -> "FqPoly":
        return cls(field, (0, 1))

    @classmethod
    def x_pow_minus_one(cls, field: "BaseField", n: int) -> "FqPoly":
        """The polynomial x^n - 1 (n >= 1)."""
        if n < 1:
            raise ValueError("exponent must be positive")
        cs = [0] * (n + 1)
        cs[0] = field.neg(1)
        cs[n] = 1
        return FqPoly._of_list(field, cs)

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 stands for the zero polynomial."""
        m = self._mask
        return len(self.coeffs) - 1 if m is None else m.bit_length() - 1

    @property
    def is_zero(self) -> bool:
        m = self._mask
        return not self.coeffs if m is None else m == 0

    @property
    def is_monic(self) -> bool:
        m = self._mask
        if m is not None:
            return m != 0
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def evaluate(self, a: int) -> int:
        """Value at the field point a (Horner)."""
        field = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = field.add(field.mul(acc, a), c)
        return acc

    # -- arithmetic --------------------------------------------------------

    def _check_field(self, other: "FqPoly") -> None:
        if self.field != other.field:
            raise FieldMismatchError("polynomials over different coefficient fields")

    def __add__(self, other: "FqPoly") -> "FqPoly":
        self._check_field(other)
        field = self.field
        if self._mask is not None:
            return FqPoly._of_mask(field, self._mask ^ other._mask)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = field.add(out[i], c)
        return FqPoly._of_list(field, out)

    def __neg__(self) -> "FqPoly":
        if self._mask is not None:
            return self
        field = self.field
        return FqPoly._of_list(field, [field.neg(c) for c in self.coeffs])

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        return self + (-other)

    def __mul__(self, other: "FqPoly") -> "FqPoly":
        self._check_field(other)
        field = self.field
        if self._mask is not None:
            return FqPoly._of_mask(field, _clmul(self._mask, other._mask))
        return FqPoly._of_list(field, _coeff_mul(field, self.coeffs, other.coeffs))

    def scale(self, c: int) -> "FqPoly":
        """Multiply by the scalar c."""
        field = self.field
        return FqPoly._of_list(field, [field.mul(c, a) for a in self.coeffs])

    def __divmod__(self, other: "FqPoly") -> tuple["FqPoly", "FqPoly"]:
        self._check_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        db = other.degree
        if self.degree < db:
            return FqPoly(field), self
        if self._mask is not None:
            # Reduce a * x^k by m * x^k + 1, k the number of quotient bits: each
            # step that clears a top bit also sets the matching quotient bit below
            # bit k, so the result is the remainder above bit k, the quotient below.
            k = self.degree - db + 1
            both = _clmod(self._mask << k, other._mask << k | 1)
            quo, rem = both & ((1 << k) - 1), both >> k
            return FqPoly._of_mask(field, quo), FqPoly._of_mask(field, rem)
        quo, rem = _coeff_divmod(field, self.coeffs, other.coeffs)
        return FqPoly._of_list(field, quo), FqPoly._of_list(field, rem)

    def __floordiv__(self, other: "FqPoly") -> "FqPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "FqPoly") -> "FqPoly":
        if self._mask is not None and other._mask:  # over F_2, no quotient bits
            return FqPoly._of_mask(self.field, _clmod(self._mask, other._mask))
        return divmod(self, other)[1]

    def powmod(self, exponent: int, modulus: "FqPoly") -> "FqPoly":
        """self^exponent mod modulus, by left-to-right square-and-multiply."""
        if exponent < 0:
            raise ValueError("negative exponent")
        base = self % modulus
        result = base if exponent else FqPoly.one(self.field) % modulus
        for bit in bin(exponent)[3:]:
            result = (result * result) % modulus
            if bit == "1":
                result = (result * base) % modulus
        return result

    def monic(self) -> "FqPoly":
        """The monic scalar multiple of a nonzero polynomial."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic associate")
        if self.is_monic:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    # -- ordering, hashing, rendering ---------------------------------------

    def lex_key(self) -> tuple:
        """Coefficient tuple key: constant term first, coefficients by base-p digits."""
        digits = self.field.digits
        return tuple(digits(c) for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FqPoly) or self.field != other.field:
            return False
        m = self._mask
        return self.coeffs == other.coeffs if m is None else m == other._mask

    def __hash__(self) -> int:
        return hash((self.field.p, self.field.s, self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                xk = "x" if k == 1 else f"x^{k}"
                terms.append(xk if c == 1 else f"{c}*{xk}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"FqPoly(q={self.field.size}, '{poly_tokens(self)}')"


class _MaskOnly(FqPoly):
    """An FqPoly over F_2 made from its bit mask whose coeffs nobody has read yet.

    The first read fills the coeffs slot and makes the instance a plain FqPoly,
    so later reads cost a slot lookup, as for every other polynomial.
    """

    __slots__ = ()

    @property
    def coeffs(self) -> tuple[int, ...]:
        m = self._mask
        cs = tuple(m >> i & 1 for i in range(m.bit_length()))
        FqPoly.coeffs.__set__(self, cs)
        self.__class__ = FqPoly
        return cs


def poly_sort_key(f: FqPoly) -> tuple:
    """Total order on polynomials: by degree, then lexicographic on coefficients."""
    return (f.degree, f.lex_key())


def poly_gcd(a: FqPoly, b: FqPoly) -> FqPoly:
    """Monic greatest common divisor (zero if both inputs are zero)."""
    a._check_field(b)
    if a._mask is not None:  # over F_2, Euclid on the bit masks alone
        x, y = a._mask, b._mask
        while y:
            x, y = y, _clmod(x, y)
        return FqPoly._of_mask(a.field, x)
    while not b.is_zero:
        a, b = b, a % b
    return a if a.is_zero else a.monic()


# -- text format -------------------------------------------------------------
#
# Comma-separated coefficient tokens, constant term first.  Each token is an
# integer in [0, q) whose base-p digits are the t-power basis coordinates of
# the F_q coefficient (for a prime field this is just a residue).  "1,1,0,1"
# over F_2 is 1 + x + x^3; "0" is the zero polynomial.


def _parse_coeffs(text: str, q: int, what: str) -> list[int]:
    """The tokens of parse_poly and parse_element: ASCII digits 0-9, each below q."""
    tokens = [t.strip() for t in text.split(",")]
    # int() alone would also read signs, underscores and non-ASCII digits
    if not all(t.isascii() and t.isdigit() for t in tokens):
        raise ParseError(f"malformed {what} text {text!r}")
    coeffs = [int(t) for t in tokens]
    for c in coeffs:
        if not 0 <= c < q:
            raise ParseError(f"coefficient {c} outside [0, {q})")
    return coeffs


def parse_poly(field: "BaseField", text: str) -> FqPoly:
    """Parse the comma-separated coefficient format."""
    return FqPoly(field, _parse_coeffs(text, field.size, "polynomial"))


def poly_tokens(f: FqPoly) -> str:
    """Render the comma-separated coefficient format (inverse of parse_poly)."""
    if f.is_zero:
        return "0"
    return ",".join(str(c) for c in f.coeffs)


# -- reciprocal ---------------------------------------------------------------


def monic_reciprocal(f: FqPoly) -> FqPoly:
    """The monic reciprocal f*(x) = f(0)^-1 x^deg(f) f(1/x).

    Defined only when f(0) != 0; reverses the coefficient tuple and
    normalizes to monic, preserving the degree.
    """
    m = f._mask
    if f.is_zero or (f.coeffs[0] if m is None else m & 1) == 0:
        raise ZeroConstantTermError(
            "monic reciprocal requires a nonzero constant term"
        )
    if m is not None:  # over F_2 the bit mask read backwards, already monic
        return FqPoly._of_mask(f.field, int(bin(m)[:1:-1], 2))
    return FqPoly._of_list(f.field, list(f.coeffs[::-1])).monic()


def is_self_reciprocal(f: FqPoly) -> bool:
    """True if the monic polynomial f equals its monic reciprocal."""
    return monic_reciprocal(f) == f


# -- irreducibility ------------------------------------------------------------


def monic_polynomials(field: "BaseField", degree: int) -> Iterator[FqPoly]:
    """All monic polynomials of the given degree, in (constant-term-first) lex order."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return _monic_walk(field, degree, 0)


def _monic_walk(field: "BaseField", degree: int, start: int) -> Iterator[FqPoly]:
    """The monic polynomials of the given degree in lex order, from the start-th on.

    The base-q digits of k, most significant first, index field.lex_order() for
    the lower coefficients of the k-th, so the walk never copies that order
    (range(p) when s = 1), however large q is.
    """
    order, q = field.lex_order(), field.size
    for k in range(start, q**degree):
        lower = []
        for _ in range(degree):
            k, r = divmod(k, q)
            lower.append(order[r])
        yield FqPoly._of_list(field, [*reversed(lower), 1])


def is_irreducible(f: FqPoly) -> bool:
    """Ben-Or irreducibility test.

    f of degree d is irreducible over F_q iff gcd(x^(q^k) - x, f) = 1 for
    every k <= d/2, that is, iff the first distinct-degree part of f has
    degree d (von zur Gathen & Gerhard, Modern Computer Algebra, 14.9).
    """
    d = f.degree
    if d <= 0:
        return False
    return next(_distinct_degree(f.monic()))[0] == d


# -- factorization of x^n - 1 ----------------------------------------------


@dataclasses.dataclass(frozen=True)
class FactoredPoly:
    """A factorization into monic irreducibles with multiplicities.

    Factors are pairwise distinct and canonically sorted by (degree, lex).
    Divisors are multiplied out once per instance and kept with it.
    """

    field: "BaseField"
    factors: tuple[tuple[FqPoly, int], ...]
    _products: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def divisor(self, exps: tuple[int, ...]) -> FqPoly:
        """The divisor with exponent exps[i] on the i-th irreducible factor."""
        products = self._products
        chain = []  # (exponents, factor) still to multiply out, largest first
        while (out := products.get(exps)) is None and any(exps):
            i = max(j for j, e in enumerate(exps) if e)
            chain.append((exps, self.factors[i][0]))
            exps = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
        if out is None:
            out = FqPoly.one(self.field)
        for key, g in reversed(chain):
            out = products[key] = out * g
        return out

    def expand(self) -> FqPoly:
        """Multiply the factorization back out."""
        return self.divisor(tuple(e for _, e in self.factors))

    @cached_property
    def codivisors(self) -> tuple[tuple[FqPoly, ...], ...]:
        """Per factor P^e, the quotients f/P, f/P^2, ..., f/P^e of the product f.

        For f = x^n - 1 these fix every element order (action._fq_order_i).
        """
        full = tuple(e for _, e in self.factors)
        return tuple(
            tuple(self.divisor(full[:i] + (k,) + full[i + 1 :]) for k in reversed(range(e)))
            for i, e in enumerate(full)
        )

    @cached_property
    def degree(self) -> int:
        return sum(g.degree * e for g, e in self.factors)

    def divisor_count(self) -> int:
        return prod(e + 1 for _, e in self.factors)

    @cached_property
    def _phi_table(self) -> tuple[tuple[FqPoly, int], ...]:
        """(divisor, phi_q(divisor)) for every divisor, in (degree, lex) order."""
        rows = []
        for exps in itertools.product(*(range(e + 1) for _, e in self.factors)):
            part = tuple((g, e) for (g, _), e in zip(self.factors, exps) if e)
            rows.append((self.divisor(exps), phi_q(FactoredPoly(self.field, part))))
        rows.sort(key=lambda r: poly_sort_key(r[0]))
        return tuple(rows)

    @cached_property
    def _divisor_tuple(self) -> tuple[FqPoly, ...]:
        return tuple(f for f, _ in self._phi_table)


def _q_power_map(f: FqPoly):
    """The map (t, r) -> t^q + r mod f, for t and r reduced mod f.

    For q = 2 it squares by spreading bits.  For q > 2 it is F_q-linear in t, as
    t(x)^q = t(x^q): column i of its matrix is x^(q*i) mod f, the powers of X =
    x^q mod f (the monomial x^q while q < deg f), and a step adds t_j times column
    j onto r with _coeff_mul's term loops (ints mod p, _add_row, field calls).
    """
    field = f.field
    if field.size == 2:
        return lambda t, r: (t * t) % f + r
    n, p, add, mul = f.degree, field.p, field.add, field.mul
    exp, log, zech = field.exp, field.log, field.zech
    X, cols = FqPoly.x(field).powmod(field.size, f), [FqPoly.one(field)]
    while len(cols) < n:
        cols.append((cols[-1] * X) % f)
    cols = [[(i, log[c] if log else c) for i, c in enumerate(v.coeffs) if c] for v in cols]

    def step(t: FqPoly, r: FqPoly) -> FqPoly:
        out = list(r.coeffs) + [0] * (n - len(r.coeffs))
        rows = [(tj, col) for tj, col in zip(t.coeffs, cols) if tj]
        if exp is not None:
            for tj, col in rows:
                _add_row(out, 0, log[tj], col, exp, log, zech)
        elif field.s == 1:
            for tj, col in rows:
                for i, c in col:
                    out[i] += tj * c
            out = [c % p for c in out]
        else:
            for tj, col in rows:
                for i, c in col:
                    out[i] = add(out[i], mul(tj, c))
        return FqPoly._of_list(field, out)

    return step


def _equal_degree_split(f: FqPoly, d: int, rng: random.Random) -> list[FqPoly]:
    """Split a monic squarefree product of degree-d irreducibles completely.

    Each draw r gives t = r + r^q + ... + r^(q^(d-1)) mod f by d - 1 steps
    t <- t^q + r of _q_power_map, the F_{q^d}/F_q trace of r in every factor.
    The split is gcd(Tr_{q/2}(t), f) for p = 2 and gcd(t^((q-1)/2) - 1, f) for
    odd p (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14).  A d
    that cannot be the factors' degree raises AssertionError instead of
    looping: deg f is no multiple of d, or t^q != t, that is r^(q^d) != r.
    """
    assert f.degree % d == 0, f"degree {f.degree} is no multiple of {d}"
    if f.degree == d:
        return [f]
    field = f.field
    q, zero, one = field.size, FqPoly.zero(field), FqPoly.one(field)
    step = _q_power_map(f)
    while True:
        if q == 2:
            r = FqPoly._of_mask(field, rng.getrandbits(f.degree))
        else:
            r = FqPoly._of_list(field, [rng.randrange(q) for _ in range(f.degree)])
        t = r
        for _ in range(d - 1):
            t = step(t, r)
        assert step(t, zero) == t, f"not every factor has degree {d}"
        if field.p == 2:
            w = t
            for _ in range(field.s - 1):
                w = (w * w) % f + t
        else:
            w = t.powmod((q - 1) // 2, f) - one
        g = poly_gcd(w, f)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def _distinct_degree(f: FqPoly) -> Iterator[tuple[int, FqPoly]]:
    """Distinct-degree parts (d, product of f's degree-d irreducible factors).

    f is monic, not necessarily squarefree.  Yields the nontrivial
    gcd(x^(q^d) - x, rest) for d = 1, 2, ... while 2d <= deg rest, dividing
    every copy of it out of the rest, and then the irreducible rest of positive
    degree as (deg rest, rest).  Each part is squarefree.
    """
    field = f.field
    q = field.size
    x = FqPoly.x(field)
    rest = f
    frob = x % rest
    d = 1
    while 2 * d <= rest.degree:
        frob = frob.powmod(q, rest)
        part = poly_gcd(frob - x, rest)
        if part.degree > 0:
            yield d, part
            while (common := poly_gcd(rest, part)).degree > 0:
                rest = rest // common
            frob = frob % rest
        d += 1
    if rest.degree > 0:
        yield rest.degree, rest


def factor_xn_minus_1(n: int, field: "BaseField", seed: int = 0) -> FactoredPoly:
    """Complete factorization of x^n - 1 over F_q.

    With n = p^u * v and gcd(v, p) = 1, every multiplicity is p^u and the
    squarefree part x^v - 1 is the product of the cyclotomic polynomials Phi_d
    over d | v.  Each Phi_d is x^d - 1 divided exactly by the Phi_e with
    e | d, e < d, and is a product of irreducibles of degree ord_d(q) (Lidl &
    Niederreiter, Finite Fields, 2.47), which equal-degree splitting
    separates.  The seed drives the internal splitting randomness only; the
    canonical sorting makes the result seed-independent.
    """
    return _factor_xn_minus_1(n, field, {}, random.Random(seed))


def _factor_xn_minus_1(
    n: int, field: "BaseField", parts: dict, rng: random.Random
) -> FactoredPoly:
    """factor_xn_minus_1 reusing parts, which maps each d already split to
    (Phi_d, its irreducible factors) and gains an entry for each new d: a
    sweep over n that shares one dict splits every Phi_d once."""
    if n < 1:
        raise ValueError("n must be positive")
    p, q = field.p, field.size
    u, v = _p_part(n, p)
    irreducibles = []
    for d in (d for d in range(1, v + 1) if v % d == 0):
        if d not in parts:
            lower = (phi_e for e, (phi_e, _) in parts.items() if d % e == 0)
            phi = FqPoly.x_pow_minus_one(field, d) // prod(lower, start=FqPoly.one(field))
            order = next(k for k in range(1, d + 1) if pow(q, k, d) == 1 % d)
            parts[d] = phi, _equal_degree_split(phi, order, rng)
        irreducibles += parts[d][1]
    irreducibles.sort(key=poly_sort_key)
    return FactoredPoly(field, tuple((g, p**u) for g in irreducibles))


# -- divisor lattice ----------------------------------------------------------


def _check_divisor_count(fp: FactoredPoly) -> None:
    count = fp.divisor_count()
    if count > DEFAULT_DIVISOR_BOUND:
        raise SizeExceededError(
            f"{count} divisors exceed the fixed bound {DEFAULT_DIVISOR_BOUND} on a "
            "divisor list, which no option raises"
        )


def divisors_of_xn_minus_1(fp: FactoredPoly) -> tuple[FqPoly, ...]:
    """All monic divisors, ordered by (degree, lex); count is prod(e_i + 1)."""
    _check_divisor_count(fp)
    return fp._divisor_tuple


def divisor_phi_table(fp: FactoredPoly) -> tuple[tuple[FqPoly, int], ...]:
    """(divisor, phi_q(divisor)) pairs in (degree, lex) order."""
    _check_divisor_count(fp)
    return fp._phi_table


# -- polynomial Euler totient -------------------------------------------------


def phi_q(f: FqPoly | FactoredPoly) -> int:
    """The polynomial Euler totient: the number of units of F_q[x]/(f).

    Multiplicative over the factorization, with
    phi_q(P^e) = q^((e-1) deg P) * (q^deg P - 1) and phi_q(1) = 1.  So it
    depends only on the distinct irreducible factors: a plain nonzero
    polynomial needs only the distinct-degree parts of its monic associate,
    each the product of its distinct degree-d irreducibles.
    """
    if isinstance(f, FactoredPoly):
        q = f.field.size
        out = 1
        for g, e in f.factors:
            d = g.degree
            out *= q ** ((e - 1) * d) * (q**d - 1)
        return out
    if f.is_zero:
        raise ValueError("phi_q is undefined for the zero polynomial")
    q = f.field.size
    parts = list(_distinct_degree(f.monic()))
    repeated = f.degree - sum(part.degree for _, part in parts)
    return q**repeated * prod((q**d - 1) ** (part.degree // d) for d, part in parts)
