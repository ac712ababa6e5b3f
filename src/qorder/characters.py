"""Additive characters of F_{q^n} as exact, exponent-valued objects.

The character labeled by a maps x to zeta_p^Tr(a*x); since only the
exponent Tr(a*x) in Z/p ever matters, no complex arithmetic appears
anywhere and character equality is decidable exactly.  The module action
lifts to characters by (g . chi)(x) = chi(g . x); the order of a character
is the monic generator of its annihilator ideal, found here both by a
definitional divisor scan (the oracle) and by the coefficient-reversal
fast path through the label's element order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import _apply_i, _check_coeff_field, apply_action, fq_order
from .errors import FieldMismatchError
from .fields import FFElement, FieldTower
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


def _annihilation_points(tower: FieldTower, coeffs: tuple[int, ...], check: str):
    """Values g . x for x in the test set, cached per (polynomial, mode) on the tower.

    In basis mode the test set is the n*s monomial basis u^j t^i, which
    suffices because x -> Tr(label * (g . x)) is F_p-linear; exhaustive
    mode evaluates every element.
    """
    key = (coeffs, check)
    cached = tower._action_cache.get(key)
    if cached is not None:
        return cached
    if check == "basis":
        points = [tower.p**t for t in range(tower.n * tower.s)]
    else:
        points = range(tower.size)
    values = tuple(_apply_i(tower, coeffs, xv) for xv in points)
    tower._action_cache[key] = values
    return values


def char_annihilated_by(
    g: FqPoly, chi: AdditiveCharacter, *, check: str = "basis"
) -> bool:
    """True iff g . chi is the trivial character.

    check="basis" tests the F_p-monomial basis only (valid by linearity);
    check="exhaustive" tests every element of the field.
    """
    if check not in _CHECK_MODES:
        raise ValueError(f"check must be one of {_CHECK_MODES}")
    tower = chi.tower
    _check_coeff_field(g, tower)
    lab = chi.label.value
    if lab == 0:
        return True
    trace_i, mul_i = tower.trace_i, tower.mul_i
    return all(
        trace_i(mul_i(lab, v)) == 0
        for v in _annihilation_points(tower, g.coeffs, check)
    )


def char_order_bruteforce(
    chi: AdditiveCharacter,
    fp: FactoredPoly,
    *,
    check: str = "basis",
) -> FqPoly:
    """Definitional order computation: scan the divisors of x^n - 1 in
    (degree, lex) order and return the first that annihilates chi.

    Minimality makes the result unique; the scan order only affects cost.
    """
    _check_coeff_field(fp, chi.tower)
    for g in divisors_of_xn_minus_1(fp):
        if char_annihilated_by(g, chi, check=check):
            return g
    raise AssertionError("x^n - 1 annihilates every character")


def char_order_fast(chi: AdditiveCharacter, fp: FactoredPoly) -> FqPoly:
    """Order of the character as the monic reciprocal of its label's order."""
    return monic_reciprocal(fq_order(chi.label, fp))


@dataclass(frozen=True)
class CharOrderReport:
    """Both order computations for one character, with their agreement flag."""

    character: AdditiveCharacter
    order_bruteforce: FqPoly
    order_fast: FqPoly

    @property
    def agree(self) -> bool:
        return self.order_bruteforce == self.order_fast


def char_order_report(
    chi: AdditiveCharacter, fp: FactoredPoly, *, check: str = "basis"
) -> CharOrderReport:
    return CharOrderReport(
        character=chi,
        order_bruteforce=char_order_bruteforce(chi, fp, check=check),
        order_fast=char_order_fast(chi, fp),
    )
