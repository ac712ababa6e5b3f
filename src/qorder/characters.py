"""Additive characters of F_{q^n} as exact, exponent-valued objects.

The character labeled by a maps x to zeta_p^Tr(a*x); since only the
exponent Tr(a*x) in Z/p ever matters, no complex arithmetic appears
anywhere and character equality is decidable exactly.  The module action
lifts to characters by (g . chi)(x) = chi(g . x); the order of a character
is the monic generator of its annihilator ideal, found here both by a
definitional divisor scan (the oracle) and by the coefficient-reversal
fast path through the label's element order.

The scan tests g . chi = 1 for each divisor g in one of two ways, both resting
on the F_p-bilinear trace form (a, y) -> Tr(a*y).  Basis mode: the values
Tr(a * (g . x)) at the n*s basis points x are the entries of one F_p-matrix
M_g applied to a, the transpose of the trace Gram matrix G composed with the
action matrix.  Exhaustive mode evaluates Tr(a * v) at every distinct value
v = g . x, the image of the action matrix, as the dot product of v's base-p
digits with those of the label's trace functional G a.  M_g and the image are
built once per tower and divisor in the tower's map cache.  Neither mode uses
the reciprocal relation that the fast path rests on.  A single query applies
M_g to the label (_char_order_i); a sweep over the whole field builds the
kernel tables of every M_g once and looks each label up in them (_char_order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .action import _action_matrix, _check_coeff_field, apply_action, fq_order
from .errors import FieldMismatchError
from .fields import FFElement, FieldTower, _cached_map
from .poly import (
    FactoredPoly,
    FqPoly,
    divisors_of_xn_minus_1,
    monic_reciprocal,
)

_CHECK_MODES = ("basis", "exhaustive")


@dataclass(frozen=True)
class AdditiveCharacter:
    """The additive character x -> zeta_p^Tr(label * x).

    Labels are canonical: two characters are equal as functions exactly
    when their labels are equal.  The zero label gives the trivial
    character.
    """

    label: FFElement

    @property
    def tower(self) -> FieldTower:
        return self.label.tower

    @property
    def is_trivial(self) -> bool:
        return self.label.is_zero

    def __mul__(self, other: "AdditiveCharacter") -> "AdditiveCharacter":
        return char_mul(self, other)

    def inverse(self) -> "AdditiveCharacter":
        return AdditiveCharacter(-self.label)


def trivial_character(tower: FieldTower) -> AdditiveCharacter:
    return AdditiveCharacter(FFElement(tower, 0))


def char_eval_exponent(chi: AdditiveCharacter, x: FFElement) -> int:
    """The exponent e in [0, p) with chi(x) = zeta_p^e, i.e. Tr(label * x)."""
    tower = chi.tower
    if x.tower != tower:
        raise FieldMismatchError("character and argument from different towers")
    return tower.trace_i(tower.mul_i(chi.label.value, x.value))


def char_mul(a: AdditiveCharacter, b: AdditiveCharacter) -> AdditiveCharacter:
    """Pointwise product of characters: labels add."""
    if a.tower != b.tower:
        raise FieldMismatchError("characters from different towers")
    return AdditiveCharacter(a.label + b.label)


def char_action_exponent(g: FqPoly, chi: AdditiveCharacter, x: FFElement) -> int:
    """Exponent of (g . chi)(x) = chi(g . x)."""
    return char_eval_exponent(chi, apply_action(g, x))


def _check_mode(check: str) -> None:
    if check not in _CHECK_MODES:
        raise ValueError(f"check must be one of {_CHECK_MODES}")


@_cached_map
def _trace_form_matrix(tower: FieldTower, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """M_g, the F_p-matrix of a -> (Tr(a * (g . p^t)))_t for t < n*s.

    Row t of M_g is G (g . p^t) for the trace Gram matrix G, so M_g = A_g^T G
    with A_g the action matrix: the transpose of G composed with A_g.
    """
    gram, action = tower._trace_gram(), _action_matrix(tower, coeffs)
    return tower._transpose(tower._compose(gram, action))


@_cached_map
def _annihilation_points(tower: FieldTower, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The distinct values g . x over the whole field, each packed as by _linear.

    They are the image of the action: q^(n - deg g) of the q^n elements when
    g divides x^n - 1.
    """
    cols, combine, pack = _action_matrix(tower, coeffs), tower._combine, tower._pack
    return tuple(map(pack, dict.fromkeys(combine(cols, xv) for xv in range(tower.size))))


def _annihilation_test(
    tower: FieldTower, lab: int, check: str
) -> Callable[[tuple[int, ...]], bool]:
    """The test of g, by its coeffs, for annihilating the character labeled lab.

    Made once per label: check="exhaustive" takes its trace functional u = G lab,
    whose digit t is Tr(p^t * lab), so that Tr(lab * v) = sum_t u_t v_t mod p.
    """
    if check == "basis":
        return lambda coeffs: tower._combine(_trace_form_matrix(tower, coeffs), lab) == 0
    p, u = tower.p, tower._combine(tower._trace_gram(), lab)
    if p == 2:
        return lambda coeffs: not any(
            (u & v).bit_count() & 1 for v in _annihilation_points(tower, coeffs)
        )
    # u's digits highest first against the points' lowest first: field n*s - 1
    # of the product is sum_t u_t v_t < 2^_width, and no carry crosses fields
    w, digits = tower._width, tower.n * tower.s
    packed = 0
    for _ in range(digits):
        u, d = divmod(u, p)
        packed = packed << w | d
    top, mask = w * (digits - 1), (1 << w) - 1
    return lambda coeffs: not any(
        (packed * v >> top & mask) % p for v in _annihilation_points(tower, coeffs)
    )


def char_annihilated_by(
    g: FqPoly, chi: AdditiveCharacter, *, check: str = "basis"
) -> bool:
    """True iff g . chi is the trivial character, i.e. Tr(label * (g . x)) = 0 for all x.

    x -> Tr(label * (g . x)) is F_p-linear, and the trace form is bilinear, so
    check="basis" tests all n*s basis points at once: the label lies in the
    kernel of one matrix M_g per divisor (see _trace_form_matrix).
    check="exhaustive" evaluates Tr(label * v) at every distinct value
    v = g . x over the whole field.
    """
    _check_mode(check)
    tower = chi.tower
    _check_coeff_field(g, tower)
    return _annihilation_test(tower, chi.label.value, check)(g.coeffs)


def _char_order_i(
    tower: FieldTower, divisors: tuple[FqPoly, ...], lab: int, check: str
) -> FqPoly:
    """char_order_bruteforce on a label: the first of divisors that annihilates it."""
    annihilates = _annihilation_test(tower, lab, check)
    for g in divisors:
        if annihilates(g.coeffs):
            return g
    raise AssertionError("x^n - 1 annihilates every character")


def _char_order(
    tower: FieldTower, divisors: tuple[FqPoly, ...], check: str
) -> Callable[[int], FqPoly]:
    """_char_order_i for a sweep: check="basis" builds each M_g's kernel tables once."""
    if check == "exhaustive":
        return lambda v: _char_order_i(tower, divisors, v, check)
    kernels = [
        (g, *tower._kernel_tables(_trace_form_matrix(tower, g.coeffs))) for g in divisors
    ]
    half = tower._split

    def order(v: int) -> FqPoly:
        j, i = divmod(v, half)
        for g, lo, hi in kernels:
            if lo[i] == hi[j]:
                return g
        raise AssertionError("x^n - 1 annihilates every character")

    return order


def char_order_bruteforce(
    chi: AdditiveCharacter,
    fp: FactoredPoly,
    *,
    check: str = "basis",
) -> FqPoly:
    """Definitional order computation: scan the divisors of x^n - 1 in
    (degree, lex) order and return the first that annihilates chi.

    Minimality makes the result unique; the scan order only affects cost.
    Each test is the annihilation test of char_annihilated_by.
    """
    tower = chi.tower
    _check_coeff_field(fp, tower)
    _check_mode(check)
    return _char_order_i(tower, divisors_of_xn_minus_1(fp), chi.label.value, check)


def char_order_fast(chi: AdditiveCharacter, fp: FactoredPoly) -> FqPoly:
    """Order of the character as the monic reciprocal of its label's order."""
    return monic_reciprocal(fq_order(chi.label, fp))
