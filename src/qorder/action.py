"""The F_q[x]-module action on F_{q^n} and the orders it induces.

A polynomial g = sum a_i x^i acts on an element by g . x = sum a_i x^(q^i),
an F_q-linear map (the linearized form of g).  The annihilator of any x is
an ideal containing x^n - 1; its monic generator is the element's order,
and the elements of maximal order x^n - 1 are exactly the normal ones.

Each g acts through its F_p-matrix A_g (FieldTower._action_matrix), read off
the tower's orbit table with no field multiplication and kept once per tower
and polynomial in the tower's map cache.  A query reads an order per
irreducible factor from the co-divisors (x^n - 1)/P^j, the same for every
element, by applying their action matrices (_fq_order_i, see fq_order).  A
sweep takes the definition instead: each element gets the first divisor, in
scan order, whose A_g annihilates it, from one kernel walk per proper divisor
(_element_order, through FieldTower._first_kernel), so the two routes check
each other.
"""

from __future__ import annotations

from typing import Sequence

from .errors import (
    DegreeTooLargeError,
    FieldMismatchError,
    NotMonicError,
    ZeroConstantTermError,
)
from .fields import FFElement, FieldTower
from .poly import FactoredPoly, FqPoly


def _check_coeff_field(g: FqPoly | FactoredPoly, tower: FieldTower) -> None:
    if g.field != tower.base:
        raise FieldMismatchError("polynomial is not over the tower's base field")
    if isinstance(g, FactoredPoly) and g.degree != tower.n:
        raise FieldMismatchError(f"not a factorization of x^{tower.n} - 1")


#: _action_matrix(tower, coeffs) is A_g for g with those coefficients.
_action_matrix = FieldTower._action_matrix


def _apply_i(tower: FieldTower, coeffs: tuple[int, ...], xv: int) -> int:
    """Integer-encoded action: sum of a_i * x^(q^i)."""
    return tower._unpack(tower._combine(_action_matrix(tower, coeffs), tower._pack(xv)))


def apply_action(g: FqPoly, x: FFElement) -> FFElement:
    """g . x = sum a_i x^(q^i), with coefficients embedded from F_q."""
    tower = x.tower
    _check_coeff_field(g, tower)
    return FFElement(tower, _apply_i(tower, g.coeffs, x.value))


def linearized_eval(g: FqPoly, x: FFElement) -> FFElement:
    """Evaluate the linearized polynomial of a monic g at x.

    For g = x^m + sum_{i<m} a_i x^i this is x^(q^m) + sum a_i x^(q^i),
    the same F_q-linear map as apply_action(g, x).
    """
    if not g.is_monic:
        raise NotMonicError("linearized evaluation requires a monic polynomial")
    return apply_action(g, x)


def adjoint_action(g: FqPoly, x: FFElement) -> FFElement:
    """The trace-adjoint of the action: sum_{t<=m} a_t * x^(q^(n-t)).

    Requires g monic with g(0) != 0 and deg g < n.  Two identities pin it
    down: Tr(a * (g . x)) = Tr(adjoint_action(g, a) * x) for all x, and
    adjoint_action(g, x)^(q^deg g) = g(0) * (monic_reciprocal(g) . x).
    """
    tower = x.tower
    _check_coeff_field(g, tower)
    if not g.is_monic:
        raise NotMonicError("adjoint action requires a monic polynomial")
    if g.coeffs[0] == 0:
        raise ZeroConstantTermError("adjoint action requires a nonzero constant term")
    n = tower.n
    if g.degree >= n:
        raise DegreeTooLargeError(f"degree {g.degree} must be below n={n}")
    coeffs = [0] * n
    for t, a in enumerate(g.coeffs):
        coeffs[(n - t) % n] = a  # distinct slots since deg g < n
    return FFElement(tower, _apply_i(tower, tuple(coeffs), x.value))


def _fq_order_i(tower: FieldTower, fp: FactoredPoly, xv: int) -> FqPoly:
    """fq_order on a value, through the co-divisors' cached action matrices."""
    x, exps = tower._pack(xv), []
    for (_, e), row in zip(fp.factors, fp.codivisors):
        for g in row:
            if tower._combine(_action_matrix(tower, g.coeffs), x):
                break
            e -= 1
        exps.append(e)
    return fp.divisor(tuple(exps))


def _element_order(tower: FieldTower, divisors: tuple[FqPoly, ...]) -> Sequence[int]:
    """Every element's order as its index in divisors: the first divisor g, in
    scan order, whose action matrix A_g annihilates it (FieldTower._first_kernel).

    x^n - 1, the last divisor, annihilates every element, so its kernel is not walked.
    """
    return tower._first_kernel([_action_matrix(tower, g.coeffs) for g in divisors[:-1]])


def _is_normal_i(tower: FieldTower, fp: FactoredPoly, xv: int) -> bool:
    """is_normal on a value: no (x^n - 1)/P annihilates xv, for P | x^n - 1 irreducible."""
    x = tower._pack(xv)
    return all(tower._combine(_action_matrix(tower, row[0].coeffs), x) for row in fp.codivisors)


def fq_order(x: FFElement, fp: FactoredPoly) -> FqPoly:
    """The monic polynomial of least degree annihilating x under the action.

    fp must be the factorization of x^n - 1 = prod P^e for the element's tower.
    The annihilator of x is an ideal, so (x^n - 1)/P^j annihilates x exactly
    for j <= e - k, where P^k is the power of P in the order: P keeps e minus
    the number of leading j = 1, 2, ... whose co-divisor annihilates x.
    """
    _check_coeff_field(fp, x.tower)
    return _fq_order_i(x.tower, fp, x.value)


def is_normal(x: FFElement, fp: FactoredPoly) -> bool:
    """True iff the order of x is the full x^n - 1.

    Equivalently, the conjugates x, x^q, ..., x^(q^(n-1)) form an F_q-basis.
    """
    _check_coeff_field(fp, x.tower)
    return _is_normal_i(x.tower, fp, x.value)
