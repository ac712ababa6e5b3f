"""Additive characters of F_{q^n} as exact, exponent-valued objects.

The character labeled by a maps x to zeta_p^Tr(a*x); since only the
exponent Tr(a*x) in Z/p ever matters, no complex arithmetic appears
anywhere and character equality is decidable exactly.  The module action
lifts to characters by (g . chi)(x) = chi(g . x); the order of a character
is the monic generator of its annihilator ideal, found here both by a
definitional divisor scan (the oracle) and by the coefficient-reversal
fast path through the label's element order.

Every character value is read from one F_p-linear functional: Tr(a * v) is
the dot product of the packed v with the packed u = G a, for the trace Gram
matrix G (FieldTower._functional).  The scan tests g . chi = 1 for each divisor
g by that functional vanishing on the n*s columns g . p^t of the action matrix
A_g (basis mode), since the trace form is bilinear, or on every distinct value
v = g . x, the image of A_g (exhaustive mode), the F_p-span of those columns
(_annihilation_points).  Neither mode uses the reciprocal relation that the
fast path rests on.  One loop, FieldTower._first_vanishing, scans the divisors'
point sets for each u = G a it is given: a single query passes its label's u
(FieldTower._dual) and looks each point set up when the scan reaches it; an
exhaustive sweep resolves every divisor's image once and passes every label's u,
read off two spans of G (FieldTower._duals).  A basis-mode sweep instead
builds the matrix M_g of a -> (Tr(a * (g . p^t)))_t as the transpose of G A_g,
with no product or trace per entry, and hands them to the fill the element sweep
uses, FieldTower._first_kernel: it walks each M_g's kernel once, last divisor
first, so that each label keeps the first divisor in scan order whose kernel holds
it (_char_order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .action import _action_matrix, _check_coeff_field, apply_action, fq_order
from .errors import FieldMismatchError
from .fields import FFElement, FieldTower, _cached_map
from .poly import (
    FactoredPoly,
    FqPoly,
    divisors_of_xn_minus_1,
    monic_reciprocal,
)


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
    return tower._functional(chi.label.value)(tower._pack(x.value))


def char_mul(a: AdditiveCharacter, b: AdditiveCharacter) -> AdditiveCharacter:
    """Pointwise product of characters: labels add."""
    if a.tower != b.tower:
        raise FieldMismatchError("characters from different towers")
    return AdditiveCharacter(a.label + b.label)


def char_action_exponent(g: FqPoly, chi: AdditiveCharacter, x: FFElement) -> int:
    """Exponent of (g . chi)(x) = chi(g . x)."""
    return char_eval_exponent(chi, apply_action(g, x))


def _check_mode(check: str) -> None:
    if check not in _POINT_SETS:
        raise ValueError(f"check must be one of {_CHECK_MODES}")


@_cached_map
def _trace_form_matrix(tower: FieldTower, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """M_g, the F_p-matrix of a -> (Tr(a * (g . p^t)))_t for t < n*s.

    Row t of M_g is G (A_g p^t), the Gram matrix applied to column t of the action
    matrix A_g, so M_g is the transpose of G A_g, its columns taken in reverse for
    odd p, where G keeps Tr(p^i * x) in field n*s - 1 - i.  No entry costs a
    product or a trace.  Only a sweep needs M_g, for its kernel walk.
    """
    gram = tower._trace_gram()
    cols = tower._transpose([tower._combine(gram, col) for col in _action_matrix(tower, coeffs)])
    return cols if tower.p == 2 else cols[::-1]


@_cached_map
def _annihilation_points(tower: FieldTower, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The distinct values g . x over the whole field, each packed as by _linear.

    They are the image of the action, the F_p-span of A_g's n*s columns, grown
    one column at a time: a column already in the span adds nothing, any other
    adds its p - 1 shifted copies span + d * column (FieldTower._span).  No
    element is acted on, and the span holds q^(n - deg g) points if g | x^n - 1.
    """
    span = {0: None}
    for col in _action_matrix(tower, coeffs):
        if col not in span:
            span = dict.fromkeys(tower._span((col,), span))
    return tuple(span)


#: Each check mode's points for a divisor g: the columns of A_g, or its whole image.
_POINT_SETS = {"basis": _action_matrix, "exhaustive": _annihilation_points}
_CHECK_MODES = tuple(_POINT_SETS)


def char_annihilated_by(
    g: FqPoly, chi: AdditiveCharacter, *, check: str = "basis"
) -> bool:
    """True iff g . chi is the trivial character, i.e. Tr(label * (g . x)) = 0 for all x.

    x -> Tr(label * (g . x)) is F_p-linear, so check="basis" tests it at the
    n*s basis points only; check="exhaustive" at every distinct value g . x.
    """
    _check_mode(check)
    tower = chi.tower
    _check_coeff_field(g, tower)
    points = _POINT_SETS[check](tower, g.coeffs)
    return not any(map(tower._functional(chi.label.value), points))


def _char_order_i(
    tower: FieldTower, divisors: tuple[FqPoly, ...], lab: int, check: str
) -> FqPoly:
    """char_order_bruteforce on a label: the first of divisors that annihilates it.

    Each divisor's points are looked up only when the scan reaches it.
    """
    scan = (_POINT_SETS[check](tower, g.coeffs) for g in divisors)
    return divisors[next(tower._first_vanishing(scan, (tower._dual(lab),)))]


def _char_order(
    tower: FieldTower, divisors: tuple[FqPoly, ...], check: str
) -> Sequence[int]:
    """Every label's order by the definitional scan, as its index in divisors.

    The indices sit in an array("H"), 2 bytes per label.  check="basis" takes
    for each label the first divisor g whose M_g annihilates it, by the fill the
    element sweep uses (FieldTower._first_kernel) over every divisor but x^n - 1.
    check="exhaustive" resolves every divisor's image once, then scans them for
    each label's u = G a in turn (FieldTower._duals, FieldTower._first_vanishing),
    the scan a single query makes.
    """
    if check == "exhaustive":
        from array import array  # on the first sweep only: runs without one never load it

        images = [_annihilation_points(tower, g.coeffs) for g in divisors]
        return array("H", tower._first_vanishing(images, tower._duals()))
    return tower._first_kernel([_trace_form_matrix(tower, g.coeffs) for g in divisors[:-1]])


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
