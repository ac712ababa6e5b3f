"""The F_q[x]-module action on F_{q^n} and the orders it induces.

A polynomial g = sum a_i x^i acts on an element by g . x = sum a_i x^(q^i),
an F_q-linear map (the linearized form of g).  The annihilator of any x is
an ideal containing x^n - 1; its monic generator is the element's order,
and the elements of maximal order x^n - 1 are exactly the normal ones.

Each g acts through its F_p-matrix A_g (FieldTower._action_matrix), read off
the tower's orbit table with no field multiplication and kept once per tower
and polynomial in the tower's map cache.  Orders are read per
irreducible factor from the co-divisors (x^n - 1)/P^j, the same for every
element (see fq_order).  A query applies their action matrices
(_fq_order_i); a sweep walks each of their kernels once and counts, per
element, the co-divisors whose kernel holds it (_element_order).
"""

from __future__ import annotations

from itertools import product
from math import prod
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
    return tower._combine(_action_matrix(tower, coeffs), xv)


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
    exps = []
    for (_, e), row in zip(fp.factors, fp.codivisors):
        for g in row:
            if _apply_i(tower, g.coeffs, xv):
                break
            e -= 1
        exps.append(e)
    return fp.divisor(tuple(exps))


def _element_order(
    tower: FieldTower, fp: FactoredPoly, divisors: tuple[FqPoly, ...]
) -> Sequence[int]:
    """Every element's order as its index in divisors, by one walk per co-divisor kernel.

    Orders are coded in mixed radix over the factors' exponents, factor i weighing
    the product of e_k + 1 over the later factors.  Every element starts at the
    code of x^n - 1, and each element of ker A_{(x^n - 1)/P_i^j} loses P_i's
    weight once.  These kernels shrink as j grows, so P_i loses as many as the
    leading j that _fq_order_i counts.  The codes, then the indices, sit in one
    array("H"), 2 bytes per element.
    """
    from array import array  # on the first sweep only: runs without one never load it

    exps = [e for _, e in fp.factors]
    weights = [prod(e + 1 for e in exps[i + 1 :]) for i in range(len(exps))]
    codes = array("H", [fp.divisor_count() - 1]) * tower.size
    for weight, row in zip(weights, fp.codivisors):
        for g in row:
            for base, members in tower._kernel_walk(_action_matrix(tower, g.coeffs)):
                for i in members:
                    codes[base + i] -= weight
    position = {g: k for k, g in enumerate(divisors)}
    index = [position[fp.divisor(c)] for c in product(*(range(e + 1) for e in exps))]
    for start in range(0, tower.size, 1 << 16):  # in place: no second array is held
        part = slice(start, start + (1 << 16))
        codes[part] = array("H", map(index.__getitem__, codes[part]))
    return codes


def _is_normal_i(tower: FieldTower, fp: FactoredPoly, xv: int) -> bool:
    """is_normal on a value: no (x^n - 1)/P annihilates xv, for P | x^n - 1 irreducible."""
    return all(_apply_i(tower, row[0].coeffs, xv) for row in fp.codivisors)


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
