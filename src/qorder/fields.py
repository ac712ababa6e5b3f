"""The extension tower F_p < F_q = F_p[t]/(g0) < F_{q^n} = F_q[u]/(h0).

Elements are encoded as integers.  An element of F_q is an int in [0, q)
whose little-endian base-p digits are its t-power coordinates; an element
of F_{q^n} is an int in [0, q^n) whose base-q digits are its F_q
coefficients in the u-power basis.  Consequently 0 and 1 are the integers
0 and 1, and the embedded copy of F_q is exactly the range [0, q).

Moduli are canonical: the lexicographically smallest monic irreducible of
the required degree, where coefficient tuples are compared constant term
first and each F_q coefficient by its base-p digit tuple.  This makes
every tower, and hence every report, reproducible across runs.

Both levels share one arithmetic core, FieldTower: F_{q^n} is the tower
over F_q, and F_q itself (for s > 1) is computed as the tower F_p[t]/(g0)
over F_p.  A tower product is the multiply and reduction FqPoly uses
(qorder.poly), on bit masks in F_2[u] when q = 2 and on F_q coefficient lists
otherwise; powers square and multiply, and the inverse is the power -1.  Only
F_q for s > 1, up to 2^14 elements, multiplies and inverts through
discrete-log tables, since the coefficient products of F_q[x] and of every
tower product over it go through them.  Under + F_{q^n} is F_p^(n*s), so
addition is F_p digit arithmetic: XOR for p = 2, one loop over base-p digits
otherwise.
F_p-linear maps (Frobenius, the trace, the trace form's Gram matrix, and the
matrices of action.py and characters.py) share one column layout, fixed per
tower: _linear builds, _combine applies, _compose and _transpose derive, and
_cached_map keeps each map in the tower's one cache.  A sweep over the whole
field asks only whether each element lies in a matrix's kernel; _kernel_tables
answers that with two list lookups, from tables of about twice the square
root of the field size per matrix.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache, reduce, wraps
from typing import Callable, Iterator

from .errors import FieldMismatchError, NonPrimeError, ParseError, SizeExceededError
from .integers import is_prime, prime_factors
from .poly import (
    FqPoly,
    _clmod,
    _clmul,
    _coeff_divmod,
    _coeff_mul,
    _parse_coeffs,
    is_irreducible,
)

#: Exhaustive operations refuse fields larger than this unless overridden.
DEFAULT_SIZE_BOUND = 1 << 24

# Internal speed knob; it never affects results, only how they are computed.
# F_q with s > 1 up to this size multiplies and inverts through log tables;
# larger ones use the tower's coefficient-vector arithmetic.  frob_table also
# reads it.  No F_{q^n} keeps tables: every tower computes the same way.
_EXP_LOG_BOUND = 1 << 14


class BaseField:
    """F_q = F_p[t]/(g0) with elements encoded as integers in [0, q).

    For s > 1 the arithmetic is that of the tower F_p < F_p[t]/(g0): add,
    neg and sub are its add_i, neg_i and sub_i, and mul and inv read log
    tables stepped by a generator, or past _EXP_LOG_BOUND are its mul_i and
    inv_i.  For s = 1 they are plain residue operations mod p.

    Instances are immutable after construction; use base_field() to get the
    canonical instance for given (p, s).
    """

    __slots__ = ("p", "s", "size", "modulus", "add", "neg", "sub", "mul", "inv", "_lex")

    def __init__(self, p: int, s: int, modulus: tuple[int, ...]):
        self.p = p
        self.s = s
        self.size = p**s
        self.modulus = tuple(modulus)
        if len(self.modulus) != s + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree s")
        self._lex = None
        if s > 1:
            prime = base_field(p, 1)
            g0 = FqPoly(prime, self.modulus)
            if not is_irreducible(g0):
                raise ValueError("modulus must be irreducible over F_p")
            tower = FieldTower(prime, g0)
            self.add, self.neg, self.sub = tower.add_i, tower.neg_i, tower.sub_i
            self.mul, self.inv = tower.mul_i, tower.inv_i
            if self.size <= _EXP_LOG_BOUND:
                self.mul, self.inv = _log_table_arithmetic(tower)
            return
        if p == 2:
            self.add = self.sub = operator.xor
            self.neg = operator.pos
            self.mul = operator.and_
        else:
            self.add = lambda a, b: (a + b) % p
            self.neg = lambda a: -a % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: a * b % p

        def inv(a: int) -> int:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, p)

        self.inv = inv

    # -- encoding ------------------------------------------------------------

    def digits(self, c: int) -> tuple[int, ...]:
        """Little-endian base-p digit tuple (t-power coordinates) of length s."""
        p = self.p
        out = []
        for _ in range(self.s):
            c, r = divmod(c, p)
            out.append(r)
        return tuple(out)

    def lex_order(self) -> tuple[int, ...]:
        """All q coefficients sorted by their base-p digit tuples."""
        if self._lex is None:
            self._lex = tuple(sorted(range(self.size), key=self.digits))
        return self._lex

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, BaseField)
            and self.p == other.p
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.s, self.modulus))

    def __repr__(self) -> str:
        return f"BaseField(p={self.p}, s={self.s})"


def _log_table_arithmetic(tower: FieldTower) -> tuple[Callable, Callable]:
    """mul and inv of a small field through exp[i] = gen^i and log = exp^-1.

    exp runs over two periods, so a product reads exp[log a + log b] with no
    reduction; the tables step by the matrix of multiplication by gen.
    """
    m = tower.size - 1
    gen = next(g for g in range(2, tower.size) if tower.is_primitive_i(g))
    combine, times_gen = tower._combine, tower._linear(lambda b: tower.mul_i(b, gen))
    exp, log = [1] * (2 * m), [0] * tower.size
    acc = 1
    for i in range(m):
        exp[i] = exp[i + m] = acc
        log[acc] = i
        acc = combine(times_gen, acc)

    def mul(a: int, b: int) -> int:
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return exp[m - log[a]]

    return mul, inv


def smallest_irreducible(field: BaseField, degree: int) -> FqPoly:
    """Lexicographically smallest monic irreducible of the given degree."""
    if degree == 1:
        return FqPoly.x(field)  # x itself: constant 0 sorts first
    order = field.lex_order()
    # a zero constant term means divisibility by x, so skip that whole block
    for c0 in order[1:]:
        for rest in itertools.product(order, repeat=degree - 1):
            f = FqPoly(field, (c0, *rest, 1))
            if is_irreducible(f):
                return f
    raise AssertionError("irreducible polynomials exist for every degree")


@lru_cache(maxsize=None)
def base_field(p: int, s: int = 1) -> BaseField:
    """The canonical F_{p^s} (lex-smallest irreducible modulus; t itself for s=1)."""
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    if s < 1:
        raise ValueError("s must be positive")
    if s == 1:
        return BaseField(p, 1, (0, 1))
    prime = base_field(p, 1)
    return BaseField(p, s, smallest_irreducible(prime, s).coeffs)


def _cached_map(build: Callable[..., object]) -> Callable[..., object]:
    """Cache build(tower, *args) in the tower's one dict of lazily built maps.

    Each key (build, *args) names its builder, so kinds never share an entry.
    """

    @wraps(build)
    def cached(tower: "FieldTower", *args):
        key = (build, *args)
        value = tower._maps.get(key)
        if value is None:
            value = tower._maps[key] = build(tower, *args)
        return value

    return cached


class FieldTower:
    """F_{q^n} = F_q[u]/(h0) over a BaseField F_q; elements are ints in [0, q^n).

    Immutable after construction (the cache of linear maps is filled lazily
    but holds values that never change).  All operations are pure.
    """

    __slots__ = (
        "p",
        "s",
        "n",
        "q",
        "size",
        "base",
        "top_modulus",
        "_width",
        "_split",
        "_maps",
    )

    def __init__(self, base: BaseField, top_modulus: FqPoly):
        if top_modulus.field != base or not top_modulus.is_monic:
            raise ValueError("top modulus must be monic over the base field")
        self.base = base
        self.p = base.p
        self.s = base.s
        self.q = base.size
        self.n = top_modulus.degree
        self.size = self.q**self.n
        self.top_modulus = top_modulus
        total = self.n * self.s
        # bits per base-p digit in _linear's layout: a sum of n*s products below p^2
        self._width = 1 if self.p == 2 else (total * (self.p - 1) ** 2).bit_length()
        self._split = self.p ** (total // 2)  # B, the split of _kernel_tables
        self._maps = {}

    @property
    def base_modulus(self) -> tuple[int, ...]:
        """The degree-s modulus of F_q over F_p (coefficients mod p, constant first)."""
        return self.base.modulus

    # -- encoding ----------------------------------------------------------------

    def coeff_vec(self, x: int) -> list[int]:
        """Little-endian base-q digits: the F_q coefficients in the u-power basis."""
        out = self._coeffs(x)
        return out + [0] * (self.n - len(out))

    def _coeffs(self, x: int) -> list[int]:
        """The base-q digits of x up to the top nonzero one, as FqPoly keeps coeffs."""
        q, out = self.q, []
        while x:
            x, r = divmod(x, q)
            out.append(r)
        return out

    def from_coeff_vec(self, vec) -> int:
        value = 0
        for c in reversed(vec):
            value = value * self.q + c
        return value

    def coords(self, x: int) -> tuple[tuple[int, ...], ...]:
        """Tower coordinates: n tuples of s residues mod p each."""
        digits = self.base.digits
        return tuple(digits(c) for c in self.coeff_vec(x))

    def enumerate_values(self) -> Iterator[int]:
        """All q^n element encodings in lexicographic coordinate order."""
        p = self.p
        total = self.n * self.s
        weights = [p**t for t in range(total)]
        for flat in itertools.product(range(p), repeat=total):
            yield sum(d * w for d, w in zip(flat, weights))

    # -- arithmetic ----------------------------------------------------------------

    def add_i(self, x: int, y: int) -> int:
        return x ^ y if self.p == 2 else self._add_digits(x, y, 1)

    def sub_i(self, x: int, y: int) -> int:
        return x ^ y if self.p == 2 else self._add_digits(x, y, -1)

    def neg_i(self, x: int) -> int:
        return x if self.p == 2 else self._add_digits(0, x, -1)

    def _add_digits(self, x: int, y: int, sign: int) -> int:
        """x + sign * y for odd p: under + F_{q^n} is F_p^(n*s), digit by base-p digit."""
        p = self.p
        value, mult = 0, 1
        while x or y:
            x, a = divmod(x, p)
            y, b = divmod(y, p)
            value += (a + sign * b) % p * mult
            mult *= p
        return value

    def mul_i(self, x: int, y: int) -> int:
        base = self.base
        if self.n == 1:
            return base.mul(x, y)
        if self.q == 2:  # x and y are bit masks in F_2[u], as FqPoly keeps F_2[x]
            return _clmod(_clmul(x, y), self.top_modulus._mask)
        prod = _coeff_mul(base, self._coeffs(x), self._coeffs(y))
        return self.from_coeff_vec(_coeff_divmod(base, prod, self.top_modulus.coeffs)[1])

    def pow_i(self, x: int, e: int) -> int:
        if x == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 if e == 0 else 0
        e %= self.size - 1
        result = 1
        base = x
        while e:
            if e & 1:
                result = self.mul_i(result, base)
            base = self.mul_i(base, base)
            e >>= 1
        return result

    def inv_i(self, x: int) -> int:
        return self.pow_i(x, -1)

    def frob_i(self, x: int, k: int = 1) -> int:
        """The k-fold q-power Frobenius x^(q^k): entry k*s of the p-power matrices."""
        k %= self.n
        if k == 0 or x < 2:
            return x
        return self._combine(self._frobenius_columns()[k * self.s], x)

    def frob_table(self, k: int):
        """Full Frobenius lookup list for towers up to _EXP_LOG_BOUND, else None.

        No computation reads it; perfbench labels a tower by whether it is None.
        """
        if self.size > _EXP_LOG_BOUND:
            return None
        return [self.frob_i(x, k) for x in range(self.size)]

    # -- F_p-linear maps -----------------------------------------------------------

    def _linear(self, f: Callable[[int], int]) -> tuple[int, ...]:
        """The columns of the F_p-linear map f: its images of the basis p^t, t < n*s.

        Each image is packed (_pack), so that _combine scales and adds a whole
        column with one int multiply-add.
        """
        p, pack = self.p, self._pack
        return tuple(pack(f(p**t)) for t in range(self.n * self.s))

    def _pack(self, v: int) -> int:
        """v with base-p digit t moved to field t of _width bits (v itself for p = 2)."""
        p, w = self.p, self._width
        if p == 2:
            return v
        packed = shift = 0
        while v:
            v, d = divmod(v, p)
            packed |= d << shift
            shift += w
        return packed

    def _combine(self, cols: tuple[int, ...], x: int) -> int:
        """Apply the map with columns cols (from _linear) to x."""
        acc, p = 0, self.p
        if p == 2:  # the columns picked by the bits of x
            while x:
                low = x & -x
                acc ^= cols[low.bit_length() - 1]
                x ^= low
            return acc
        for col in cols:
            x, d = divmod(x, p)
            acc += d * col
        w = self._width
        mask = (1 << w) - 1
        value = 0
        for shift in range(w * (len(cols) - 1), -1, -w):
            value = value * p + (acc >> shift & mask) % p
        return value

    def _kernel_tables(self, cols: tuple[int, ...]) -> tuple[list[int], list[int]]:
        """Split tables (lo, hi) for membership of every x in the kernel of A = cols.

        With B = _split, lo[i] = A i for i < B and hi[j] = -A (j*B), so A x = 0
        exactly when lo[x % B] == hi[x // B]: A is F_p-linear and x % B,
        (x // B) * B are the low and high base-p digits of x.  The two lists hold
        p^floor(n*s/2) + p^ceil(n*s/2) entries, about twice the square root of the
        field size, which suits sweeps over the whole field (the table method of
        Arlazarov, Dinic, Kronrod and Faradzev, 1970).
        """
        combine, neg_i, half = self._combine, self.neg_i, self._split
        lo = [combine(cols, i) for i in range(half)]
        hi = [neg_i(combine(cols, j * half)) for j in range(self.size // half)]
        return lo, hi

    def _compose(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """The columns of x -> a(b(x)), for a and b in the layout of _linear."""
        combine = self._combine
        return self._linear(lambda x: combine(a, combine(b, x)))

    def _transpose(self, cols: tuple[int, ...]) -> tuple[int, ...]:
        """The columns of the transposed map, from and to the layout of _linear."""
        w = self._width
        mask = (1 << w) - 1
        return tuple(
            sum((col >> w * t & mask) << w * j for j, col in enumerate(cols))
            for t in range(len(cols))
        )

    @_cached_map
    def _frobenius_columns(self) -> list[tuple[int, ...]]:
        """cols[k] is the matrix of the p-power Frobenius x -> x^(p^k), k < n*s."""
        to_p = self._linear(lambda b: reduce(self.mul_i, [b] * self.p))
        cols = [self._linear(lambda b: b)]
        while len(cols) < self.n * self.s:
            cols.append(self._compose(to_p, cols[-1]))
        return cols

    # -- trace -------------------------------------------------------------------

    @_cached_map
    def _trace_columns(self) -> tuple[int, ...]:
        """Tr as an F_p-linear map: the sum of the n*s p-power conjugates."""
        powers, add_i, combine = self._frobenius_columns(), self.add_i, self._combine
        return self._linear(lambda b: reduce(add_i, (combine(m, b) for m in powers)))

    @_cached_map
    def _trace_gram(self) -> tuple[int, ...]:
        """The trace form's Gram matrix Tr(p^i * p^j), i, j < n*s: x -> (Tr(p^i * x))_i."""
        trace_i, mul_i = self.trace_i, self.mul_i
        basis = [self.p**i for i in range(self.n * self.s)]
        return self._linear(lambda b: sum(trace_i(mul_i(e, b)) * e for e in basis))

    def trace_i(self, x: int) -> int:
        """Tr_{q^n/p}(x) = sum of the n*s p-power conjugates, as a residue mod p."""
        return self._combine(self._trace_columns(), x)

    def is_primitive_i(self, x: int) -> bool:
        """True iff x generates the multiplicative group.

        That is, x^((size-1)/r) != 1 for every prime r dividing size - 1.
        """
        if x == 0:
            return False
        m = self.size - 1
        return all(self.pow_i(x, m // r) != 1 for r in prime_factors(m))

    # -- identity -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, FieldTower)
            and self.base == other.base
            and self.top_modulus.coeffs == other.top_modulus.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.base, self.top_modulus.coeffs))

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, s={self.s}, n={self.n})"


class FFElement:
    """An element of F_{q^n}, bound to its tower.

    Supports field arithmetic through operators; ints in [0, q) mix in as
    embedded F_q scalars.  Instances are immutable, hashable, and compare
    equal exactly when their tower parameters and coordinates agree.
    """

    __slots__ = ("tower", "value")

    def __init__(self, tower: FieldTower, value: int):
        if not 0 <= value < tower.size:
            raise ValueError(f"value {value} outside [0, {tower.size})")
        self.tower = tower
        self.value = value

    @property
    def coords(self) -> tuple[tuple[int, ...], ...]:
        return self.tower.coords(self.value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def _coerce(self, other) -> int:
        if isinstance(other, FFElement):
            if other.tower != self.tower:
                raise FieldMismatchError("elements of different towers")
            return other.value
        if isinstance(other, int):
            if not 0 <= other < self.tower.q:
                raise ValueError(f"scalar {other} outside the embedded base field")
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FFElement(self.tower, self.tower.add_i(self.value, v))

    __radd__ = __add__

    def __neg__(self):
        return FFElement(self.tower, self.tower.neg_i(self.value))

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FFElement(self.tower, self.tower.sub_i(self.value, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FFElement(self.tower, self.tower.sub_i(v, self.value))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FFElement(self.tower, self.tower.mul_i(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FFElement(self.tower, self.tower.mul_i(self.value, self.tower.inv_i(v)))

    def __pow__(self, e: int):
        return FFElement(self.tower, self.tower.pow_i(self.value, e))

    def frobenius(self, k: int = 1) -> "FFElement":
        return FFElement(self.tower, self.tower.frob_i(self.value, k))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FFElement)
            and self.value == other.value
            and self.tower == other.tower
        )

    def __hash__(self) -> int:
        return hash((self.tower.p, self.tower.s, self.tower.n, self.value))

    def __str__(self) -> str:
        return element_tokens(self)

    def __repr__(self) -> str:
        t = self.tower
        return f"FFElement(p={t.p}, s={t.s}, n={t.n}, '{element_tokens(self)}')"


# -- module-level operations ------------------------------------------------


def build_tower(
    p: int, s: int, n: int, *, size_bound: int = DEFAULT_SIZE_BOUND
) -> FieldTower:
    """Construct (or fetch the cached) canonical tower F_p < F_{p^s} < F_{p^(s*n)}.

    Deterministic across runs: both moduli are the lexicographically
    smallest monic irreducibles of their degree.
    """
    if not is_prime(p):
        raise NonPrimeError(f"{p} is not prime")
    if s < 1 or n < 1:
        raise ValueError("s and n must be positive")
    if p ** (s * n) > size_bound:
        raise SizeExceededError(
            f"field with {p}^{s * n} elements exceeds the size bound {size_bound}"
        )
    return _tower_cached(p, s, n)


@lru_cache(maxsize=None)
def _tower_cached(p: int, s: int, n: int) -> FieldTower:
    base = base_field(p, s)
    return FieldTower(base, smallest_irreducible(base, n))


def frobenius(x: FFElement, k: int = 1) -> FFElement:
    """x^(q^k); the identity for k = 0 and for k = n."""
    return x.frobenius(k)


def trace_to_prime(x: FFElement) -> int:
    """The F_p-trace of x, as an integer residue in [0, p)."""
    return x.tower.trace_i(x.value)


def embed_base(c: int, tower: FieldTower) -> FFElement:
    """The image of the F_q coefficient c under the inclusion F_q < F_{q^n}."""
    if not 0 <= c < tower.q:
        raise ValueError(f"coefficient {c} outside [0, {tower.q})")
    return FFElement(tower, c)


def enumerate_elements(
    tower: FieldTower, *, size_bound: int = DEFAULT_SIZE_BOUND
) -> Iterator[FFElement]:
    """All q^n elements, each exactly once, in lexicographic coordinate order."""
    if tower.size > size_bound:
        raise SizeExceededError(
            f"enumerating {tower.size} elements exceeds the size bound {size_bound}"
        )
    return (FFElement(tower, v) for v in tower.enumerate_values())


# -- element text format ---------------------------------------------------
#
# Same grammar as the polynomial format: comma-separated F_q coefficient
# tokens, constant (u^0) coordinate first.  Rendering always emits all n
# tokens; parsing accepts 1..n tokens and pads with zeros.


def parse_element(tower: FieldTower, text: str) -> FFElement:
    vec = _parse_coeffs(text, tower.q, "element")
    if len(vec) > tower.n:
        raise ParseError(f"malformed element text {text!r} for n={tower.n}")
    return FFElement(tower, tower.from_coeff_vec(vec))


def element_tokens(x: FFElement) -> str:
    return ",".join(str(c) for c in x.tower.coeff_vec(x.value))
