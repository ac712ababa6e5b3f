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
otherwise; a square in characteristic 2 spreads the coefficients instead, with
no cross terms; powers square and multiply, and the inverse is the power -1.
Only F_q for s > 1, up to 2^14 elements, keeps tables: it multiplies and inverts
through discrete logarithms, and FqPoly's coefficient loops, which every
coefficient operation of F_q[x] and of every tower over F_q goes through, read
the same tables (and for odd p Zech logarithms) inline.  Under + F_{q^n} is
F_p^(n*s): XOR for p = 2, residues mod p in F_p, one loop over base-p digits in
odd-p towers.  F_p-linear maps (Frobenius, the trace, the trace form's Gram
matrix, and the matrices of action.py and characters.py) take and return one
packed layout per tower, base-p digit t in field t, which element ints enter
only at _pack and leave only at _unpack: _linear builds a map, _combine maps a
packed vector to its packed image, _span lists the images of a range of points,
_transpose transposes a square matrix, _trace_gram reads the trace form off its
(2s - 1)(2n - 1) block-Hankel traces, _dual at one label, _duals at every label,
_first_vanishing scans point sets at them, and _cached_map keeps each map in the
tower's one cache.  Each map x -> sum a_i x^(q^i), Frobenius powers and the trace
among them, is an _action_matrix read off one per-tower table, _orbit_columns.  A
sweep over the whole field needs each divisor matrix only through its kernel:
_kernel_walk yields it row by row from the spans of the matrix's low and negated
high columns, about 2 p^ceil(n*s/2) points, so a sweep touches each kernel
element once.  _first_kernel, the one fill of both order sweeps, walks a list of
matrices last to first and leaves each point the index of the first whose kernel
holds it.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache, wraps
from typing import Callable, Iterable, Iterator, Sequence

from .errors import FieldMismatchError, NonPrimeError, ParseError, SizeExceededError
from .integers import is_prime, prime_factors
from .poly import (
    FqPoly,
    _clmod,
    _clmul,
    _coeff_divmod,
    _coeff_mul,
    _monic_walk,
    _parse_coeffs,
    is_irreducible,
)

#: Exhaustive operations refuse fields larger than this unless overridden.
DEFAULT_SIZE_BOUND = 1 << 24

# Internal speed knob; it never affects results, only how they are computed.
# F_q with s > 1 up to this size multiplies and inverts through log tables, which
# FqPoly's loops read with Zech logarithms for odd p; larger ones use the tower's
# arithmetic.  frob_table also reads it.  No F_{q^n} keeps tables.
_EXP_LOG_BOUND = 1 << 14


class BaseField:
    """F_q = F_p[t]/(g0) with elements encoded as integers in [0, q).

    For p = 2, add and sub are XOR and neg is the identity at every s.  For
    s > 1 the rest is the arithmetic of the tower F_p < F_p[t]/(g0), kept in
    the tower slot (its trace_i is Tr_{q/p}): the tower's add_i, sub_i and
    neg_i, and up to _EXP_LOG_BOUND mul and inv read log tables stepped by a
    generator, past it the tower's mul_i and inv_i.  For s = 1 they are plain
    residue operations mod p, and tower is None.  The tables stay in the exp,
    log and (odd p) zech slots, None where there are none, for FqPoly's
    coefficient loops (qorder.poly) to read inline, with no call per term.

    Instances are immutable after construction; use base_field() to get the
    canonical instance for given (p, s).
    """

    __slots__ = (
        "p", "s", "size", "modulus", "add", "neg", "sub", "mul", "inv", "exp", "log", "zech",
        "tower", "_lex",
    )

    def __init__(self, p: int, s: int, modulus: tuple[int, ...]):
        self.p = p
        self.s = s
        self.size = p**s
        self.modulus = tuple(modulus)
        if len(self.modulus) != s + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree s")
        self._lex = self.exp = self.log = self.zech = self.tower = None
        if p == 2:  # an element's bits are its F_2 digits
            self.add = self.sub = operator.xor
            self.neg = operator.pos
        if s > 1:
            prime = base_field(p, 1)
            g0 = FqPoly(prime, self.modulus)
            if not is_irreducible(g0):
                raise ValueError("modulus must be irreducible over F_p")
            tower = self.tower = FieldTower(prime, g0)
            if p != 2:
                self.add, self.neg, self.sub = tower.add_i, tower.neg_i, tower.sub_i
            self.mul, self.inv = tower.mul_i, tower.inv_i
            if self.size <= _EXP_LOG_BOUND:
                for name, op in _log_table_arithmetic(tower).items():
                    setattr(self, name, op)
            return
        if p == 2:
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

    def lex_order(self) -> Sequence[int]:
        """All q coefficients sorted by their base-p digit tuples."""
        if self.s == 1:
            return range(self.p)
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


def _log_table_arithmetic(tower: FieldTower) -> dict[str, object]:
    """mul and inv of a small field through exp[i] = gen^i and log = exp^-1, with
    the tables exp, log and, for odd p, the Zech logarithms zech of gen.

    exp runs over two periods, so a product reads exp[log a + log b] with no
    reduction; the tables step by times_gen[x] = gen * x, one _span for all x.  The
    Zech logarithm zech[k] = log(1 + gen^k) makes a sum a product: for a, b != 0,
    a + b = a (1 + b/a) = exp[log a + zech[log b - log a]].  zech is None at
    k = (q - 1)/2, where gen^k = -1, and is kept over two periods, so an index
    in (1 - q, q - 1) is used as it is, negative ones counting from the end.
    """
    m = tower.size - 1
    gen = next(g for g in range(2, tower.size) if tower.is_primitive_i(g))
    times_gen = list(map(tower._unpack, tower._span(tower._linear(lambda b: tower.mul_i(b, gen)))))
    exp, log = [1] * (2 * m), [0] * tower.size
    acc = 1
    for i in range(m):
        exp[i] = exp[i + m] = acc
        log[acc] = i
        acc = times_gen[acc]

    def mul(a: int, b: int) -> int:
        return exp[log[a] + log[b]] if a and b else 0

    def inv(a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return exp[m - log[a]]

    ops = {"mul": mul, "inv": inv, "exp": exp, "log": log}
    if tower.p == 2:
        return ops
    h = m // 2
    zech = [None if k == h else log[tower.add_i(1, exp[k])] for k in range(m)] * 2
    return ops | {"zech": zech}


def smallest_irreducible(field: BaseField, degree: int) -> FqPoly:
    """Lexicographically smallest monic irreducible of the given degree."""
    if degree == 1:
        return FqPoly.x(field)  # x itself: constant 0 sorts first
    # a zero constant term means divisibility by x, so skip that whole block
    for f in _monic_walk(field, degree, field.size ** (degree - 1)):
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
        """The k-fold q-power Frobenius x^(q^k): the action of the polynomial x^k."""
        k %= self.n
        if k == 0 or x < 2:
            return x
        return self._unpack(self._combine(self._action_matrix((0,) * k + (1,)), self._pack(x)))

    def frob_table(self, k: int):
        """Full Frobenius lookup list for towers up to _EXP_LOG_BOUND, else None.

        No computation reads it; perfbench labels a tower by whether it is None.
        """
        if self.size > _EXP_LOG_BOUND:
            return None
        return [self.frob_i(x, k) for x in range(self.size)]

    # -- F_p-linear maps -----------------------------------------------------------

    def _linear(self, f: Callable[[int], int]) -> tuple[int, ...]:
        """The columns of the F_p-linear map f on element ints: f(p^t), t < n*s, packed."""
        p, pack = self.p, self._pack
        return tuple(pack(f(p**t)) for t in range(self.n * self.s))

    def _pack(self, v: int) -> int:
        """v < q^n with base-p digit t moved to field t of _width bits (v itself for p = 2)."""
        p, w = self.p, self._width
        if p == 2:
            return v
        packed = 0
        for shift in range(0, w * self.n * self.s, w):
            v, d = divmod(v, p)
            packed |= d << shift
        return packed

    def _unpack(self, v: int) -> int:
        """The element int whose base-p digit t is field t of the packed v: _pack^-1."""
        p, w = self.p, self._width
        if p == 2:
            return v
        mask, value = (1 << w) - 1, 0
        for shift in range((v.bit_length() - 1) // w * w, -1, -w):
            value = value * p + (v >> shift & mask)
        return value

    def _combine(self, cols: tuple[int, ...], x: int) -> int:
        """The packed image of the packed x under the map cols: field t of x scales
        column t, one int multiply-add each, then each field of the sum is taken mod p."""
        acc, p, w = 0, self.p, self._width
        if p == 2:  # the columns picked by the bits of x
            while x:
                low = x & -x
                acc ^= cols[low.bit_length() - 1]
                x ^= low
            return acc
        mask, out = (1 << w) - 1, 0
        for col in cols:
            acc += (x & mask) * col
            x >>= w
        for shift in range((acc.bit_length() - 1) // w * w, -1, -w):
            out = out << w | (acc >> shift & mask) % p
        return out

    def _span(self, cols: Sequence[int], points: Iterable[int] = (0,)) -> list[int]:
        """points, then each point plus every nonzero F_p-combination of cols, packed.

        Column t appends p - 1 copies of the list so far, copy d plus d times the
        column, so with points = (0,) entry i + d*p^t is entry i + (d - 1)*p^t plus
        column t, and entry x is the packed image of x under the map cols.  Each
        entry costs one XOR (p = 2) or one packed add: for odd p a digit sum is
        below 2p - 1 and 2^(_width - 1) >= p, since (p - 1)^2 < 2^_width, so adding
        2^(_width - 1) - p to every field sets a field's top bit exactly where its
        sum reached p, with no carry between fields, and those fields lose p.
        """
        span = list(points)
        if self.p == 2:
            for col in cols:
                span += [v ^ col for v in span]
            return span
        p, top = self.p, self._width - 1
        ones = sum(1 << t * self._width for t in range(self.n * self.s))
        bias = ones * ((1 << top) - p)
        for col in cols:
            layer, biased = span, col + bias
            for _ in range(p - 1):
                layer = [v + col - ((v + biased) >> top & ones) * p for v in layer]
                span += layer
        return span

    def _transpose(self, cols: Sequence[int]) -> tuple[int, ...]:
        """The packed columns of the transpose of the square matrix cols: field t of
        column r is field r of cols[t]."""
        w, mask = self._width, (1 << self._width) - 1
        return tuple(
            sum((col >> w * r & mask) << w * t for t, col in enumerate(cols))
            for r in range(len(cols))
        )

    def _kernel_walk(self, cols: tuple[int, ...]) -> Iterator[tuple[int, list[int]]]:
        """The kernel of A = cols, one row at a time: (j*B, [i : A (j*B + i) = 0]).

        With B = p^h, h = floor(n*s/2), x = j*B + i is in the kernel exactly when
        A i = -A (j*B), i and j*B being x's low and high base-p digits.  The low
        images A i, i < B, are the span of A's first h columns, grouped by value
        once; row j reads its members from the group of -A (j*B), entry j of the
        span of -A's other n*s - h columns, the only ones negated.  Only B low
        indices are held and the kernel is never built, which suits sweeps over
        the whole field (the table method of Arlazarov, Dinic, Kronrod and
        Faradzev, 1970).
        """
        p, h = self.p, self.n * self.s // 2
        negated = [self._combine(cols, (p - 1) << self._width * t) for t in range(h, len(cols))]
        groups: dict[int, list[int]] = {}
        for i, image in enumerate(self._span(cols[:h])):
            groups.setdefault(image, []).append(i)
        for j, key in enumerate(self._span(negated)):
            members = groups.get(key)
            if members:
                yield j * p**h, members

    def _first_kernel(self, matrices: Sequence[tuple[int, ...]]) -> Sequence[int]:
        """For each point, the index of the first of matrices whose kernel holds it,
        or len(matrices) where none does, in an array("H") of 2 bytes per point.

        Each kernel is walked once, last matrix first, and writes its index over
        its members, so the first matrix whose kernel holds a point writes last.
        """
        from array import array  # on the first sweep only: runs without one never load it

        first = array("H", [len(matrices)]) * self.size
        for k in reversed(range(len(matrices))):
            for base, members in self._kernel_walk(matrices[k]):
                for i in members:
                    first[base + i] = k
        return first

    # -- the action of F_q[x] ------------------------------------------------------

    @_cached_map
    def _orbit_columns(self) -> tuple[tuple[int, ...], ...]:
        """cols[m] is the matrix of g -> g . p^m, g = sum a_i x^i (deg g < n) read as
        the tower int sum a_i q^i: column i*s + j is (t^j * p^m)^(q^i).

        With m = a*s + b, p^m is t^b u^a, so t^j * p^m is the F_q scalar t^(b + j)
        at u^a.  The q-power map is F_q-linear, so its conjugates come from the
        q-power matrix, whose column a*s + b is t^b * (u^a)^q, with (u^a)^q = (u^q)^a
        by successive products: one power and n - 1 products, and no entry costs a
        tower product.
        """
        n, s, p, q, pack = self.n, self.s, self.p, self.q, self._pack
        powers = [1]  # (u^a)^q for a < n; for n = 1 there is no u, and q is no element
        u_q = self.pow_i(q, q) if n > 1 else None
        while len(powers) < n:
            powers.append(self.mul_i(powers[-1], u_q))
        to_q = tuple(pack(self.mul_i(p**b, y)) for y in powers for b in range(s))

        def conjugates(v: int) -> list[int]:
            out = [pack(v)]
            while len(out) < n:
                out.append(self._combine(to_q, out[-1]))
            return out

        orbits = [[conjugates(c * q**a) for c in self._t_powers()] for a in range(n)]
        return tuple(
            tuple(orbits[a][b + j][i] for i in range(n) for j in range(s))
            for a in range(n)
            for b in range(s)
        )

    @_cached_map
    def _action_matrix(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        """A_g, the F_p-matrix of x -> sum a_i x^(q^i), for g = sum a_i x^i.

        x^n acts as 1, so column t applies _orbit_columns()[t] to g mod x^n - 1.
        """
        n, add = self.n, self.base.add
        folded = [0] * n
        for i, a in enumerate(coeffs):
            folded[i % n] = add(folded[i % n], a)
        g, combine = self._pack(self.from_coeff_vec(folded)), self._combine
        return tuple(combine(cols, g) for cols in self._orbit_columns())

    # -- trace -------------------------------------------------------------------

    @_cached_map
    def _trace_columns(self) -> tuple[int, ...]:
        """Tr_{q^n/p}: Tr_{q/p} (identity for s = 1, else F_q's tower trace_i) after
        Tr_{q^n/q}, the action of 1 + x + ... + x^(n-1)."""
        cols = self._action_matrix((1,) * self.n)
        return cols if self.s == 1 else tuple(map(self.base.tower.trace_i, map(self._unpack, cols)))

    def _t_powers(self) -> list[int]:
        """t^k in F_q for the 2s - 1 sums k = b + j of two t-exponents below s, each
        t^(k//2) * t^(k - k//2)."""
        p = self.p
        return [self.base.mul(p ** (k // 2), p ** (k - k // 2)) for k in range(2 * self.s - 1)]

    @_cached_map
    def _trace_gram(self) -> tuple[int, ...]:
        """The trace form's Gram matrix: x -> (Tr(p^i * x))_i, i < n*s, with
        Tr(p^i * x) in field i for p = 2 and in field n*s - 1 - i for odd p.

        p^(a*s + b) is t^b u^a, so entry (a*s + b, a'*s + b') is Tr(t^(b + b') u^(a + a')):
        G is block Hankel, read off the (2s - 1)(2n - 1) traces h[k][m] = Tr(t^k u^m)
        (mul_i reduces u^m past u^(n - 1)), in place of a product and a trace per entry.
        """
        n, s, q, w, total = self.n, self.s, self.q, self._width, self.n * self.s
        h = [[self.trace_i(self.mul_i(c, q**m)) for m in range(2 * n - 1)] for c in self._t_powers()]
        shifts = [w * (i if self.p == 2 else total - 1 - i) for i in range(total)]
        return tuple(
            sum(h[i % s + b][i // s + a] << shift for i, shift in enumerate(shifts))
            for a in range(n)
            for b in range(s)
        )

    def _dual(self, lab: int) -> int:
        """u = G lab, packed: Tr(p^t * lab) sits where _trace_gram puts it."""
        return self._combine(self._trace_gram(), self._pack(lab))

    def _functional(self, lab: int) -> Callable[[int], int]:
        """v -> Tr(lab * v), the exponent of chi_lab at v, on v packed by _pack.

        u = G lab holds Tr(p^t * lab) (_dual), and Tr(lab * v) = sum_t of it
        times v_t mod p: for p = 2 the parity of u & v.  For odd p, u's fields run
        highest first, so u * v holds the sum in field n*s - 1, below 2^_width.
        """
        p, u = self.p, self._dual(lab)
        if p == 2:
            return lambda v: (u & v).bit_count() & 1
        top, mask = self._width * (self.n * self.s - 1), (1 << self._width) - 1
        return lambda v: (u * v >> top & mask) % p

    def _duals(self) -> Iterator[int]:
        """u = G a for every label a in range order.  As in _kernel_walk, with
        h = floor(n*s/2), row j of the labels j*p^h + i spans G's first h columns
        from G (j*p^h), so each u is one XOR or packed add."""
        gram, h = self._trace_gram(), self.n * self.s // 2
        for high in self._span(gram[h:]):
            yield from self._span(gram[:h], (high,))

    def _first_vanishing(self, images: Iterable[Sequence[int]], duals: Iterable[int]) -> Iterator[int]:
        """For each u = G a of duals in turn, the index of the first of images (packed
        point lists) on which v -> Tr(a * v) vanishes, the one scan of a query (one u,
        its images lazy) and of a sweep (every u, one list of images read for each).

        Each image is read up to its first point v with Tr(a * v) != 0, tested from u
        as in _functional.  x^n - 1 annihilates every character; this is the one check.
        """
        p, w = self.p, self._width
        top, mask = w * (self.n * self.s - 1), (1 << w) - 1
        for u in duals:
            for k, points in enumerate(images):
                if p == 2:
                    for v in points:
                        if (u & v).bit_count() & 1:
                            break
                    else:
                        break
                else:
                    for v in points:
                        if (u * v >> top & mask) % p:
                            break
                    else:
                        break
            else:
                raise AssertionError("x^n - 1 annihilates every character")
            yield k

    def trace_i(self, x: int) -> int:
        """Tr_{q^n/p}(x) = sum of the n*s p-power conjugates, as a residue mod p: the
        image sits in field 0, so the packed image is the residue itself."""
        return self._combine(self._trace_columns(), self._pack(x))

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
