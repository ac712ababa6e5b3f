"""Set-level results: order partitions, coincidence checks, and existence sweeps.

This module sweeps whole fields: it partitions elements and characters by
their orders, verifies that the two order notions coincide exactly on the
self-reciprocal orders, decides the Meyn criterion for a given (q, n) or a
sweep of n (splitting each cyclotomic part once per sweep), and locates
primitive normal elements by exhaustive lexicographic search.

A sweep makes the checks of the per-element functions once, then takes every
element's order and its character's order as index arrays into the divisors,
from action._element_order and characters._char_order.  Both are one fill,
FieldTower._first_kernel, over the proper divisors' matrices A_g or M_g (the
exhaustive character check scans images instead).  A check judges each
(element order, character order) index pair once, and walks the elements
again, in range order, only when a pair fails.  The order reports take the
same checks in both modes (_scan_reciprocals); in fast mode a label's character
order is its element order's index read through its monic reciprocal's index.
Elements and characters are wrapped in FFElement and AdditiveCharacter only
where a result holds them: partitions, counterexamples, the element found.
find_primitive_normal, which stops at its first hit, tests as is_normal does.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .action import _check_coeff_field, _element_order, _is_normal_i
from .characters import AdditiveCharacter, _char_order, _check_mode
from .errors import PrimitiveNormalNotFoundError, SizeExceededError, ZeroElementError
from .fields import DEFAULT_SIZE_BOUND, FFElement, FieldTower, base_field
from .integers import _p_part, factorize, prime_power_decomposition
from .poly import (
    FactoredPoly,
    FqPoly,
    _factor_xn_minus_1,
    divisor_phi_table,
    divisors_of_xn_minus_1,
    is_self_reciprocal,
    monic_reciprocal,
)

#: The standard desk-scale sweep: every (p, s, n) verified by the test suite
#: and by the CLI's --grid mode.
VERIFICATION_GRID: tuple[tuple[int, int, int], ...] = tuple(
    (p, s, n)
    for p, s, n_max in (
        (2, 1, 10),
        (3, 1, 6),
        (2, 2, 5),
        (5, 1, 4),
        (7, 1, 3),
        (2, 3, 3),
        (3, 2, 3),
    )
    for n in range(1, n_max + 1)
)

#: Prime powers and extension-degree range swept by the Meyn-criterion check.
MEYN_SWEEP_PRIME_POWERS: tuple[int, ...] = (2, 3, 4, 5, 7, 8, 9)
MEYN_SWEEP_MAX_N: int = 20


def _check_sweep(tower: FieldTower, fp: FactoredPoly, size_bound: int) -> None:
    """The size bound, then the check fq_order makes on every element, once."""
    if tower.size > size_bound:
        raise SizeExceededError(
            f"sweeping {tower.size} elements exceeds the size bound {size_bound}"
        )
    _check_coeff_field(fp, tower)


def _scan_divisors(
    tower: FieldTower, fp: FactoredPoly, check: str, size_bound: int
) -> tuple[FqPoly, ...]:
    """The divisors in scan order, after the checks char_order_bruteforce makes."""
    _check_sweep(tower, fp, size_bound)
    _check_mode(check)
    return divisors_of_xn_minus_1(fp)


def _scan_reciprocals(
    tower: FieldTower, fp: FactoredPoly, mode: str, check: str, size_bound: int
) -> tuple[tuple[FqPoly, ...], list[int]]:
    """The divisors in scan order, after the checks of _scan_divisors in either
    mode, and for each divisor the index of its monic reciprocal among them."""
    if mode not in ("oracle", "fast"):
        raise ValueError("mode must be 'oracle' or 'fast'")
    divisors = _scan_divisors(tower, fp, check, size_bound)
    index = {g: k for k, g in enumerate(divisors)}
    return divisors, [index[monic_reciprocal(g)] for g in divisors]


def _failures(
    tower: FieldTower, divisors: tuple[FqPoly, ...], check: str, fails
) -> Iterator[tuple[int, int, int]]:
    """(v, m, c) in range order for each element v whose index pair fails.

    m and c index v's order and its character's definitional order in divisors;
    fails(m, c) judges each pair once, and only a failing pair walks the elements.
    """
    elements = _element_order(tower, divisors)
    chars = _char_order(tower, divisors, check)
    failing = {pair for pair in set(zip(elements, chars)) if fails(*pair)}
    if failing:
        for v, pair in enumerate(zip(elements, chars)):
            if pair in failing:
                yield v, *pair


def elements_by_order(
    tower: FieldTower,
    fp: FactoredPoly,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> dict[FqPoly, set[FFElement]]:
    """Partition of F_{q^n} by element order, keyed by every monic divisor.

    Every divisor of x^n - 1 is realized, by phi_q(f) > 0 elements each.
    """
    _check_sweep(tower, fp, size_bound)
    divisors = divisors_of_xn_minus_1(fp)
    parts: list[set[FFElement]] = [set() for _ in divisors]
    for v, k in enumerate(_element_order(tower, divisors)):
        parts[k].add(FFElement(tower, v))
    return dict(zip(divisors, parts))


def characters_by_order(
    tower: FieldTower,
    fp: FactoredPoly,
    *,
    mode: str = "fast",
    check: str = "basis",
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> dict[FqPoly, set[AdditiveCharacter]]:
    """Partition of all q^n additive characters by character order.

    mode="oracle" computes each order by the definitional divisor scan;
    mode="fast" uses the reciprocal relation: a label's character order is the
    monic reciprocal of its element order.
    """
    divisors, reciprocal = _scan_reciprocals(tower, fp, mode, check, size_bound)
    if mode == "oracle":
        orders = _char_order(tower, divisors, check)
    else:
        orders = map(reciprocal.__getitem__, _element_order(tower, divisors))
    chars: list[set[AdditiveCharacter]] = [set() for _ in divisors]
    for v, k in enumerate(orders):
        chars[k].add(AdditiveCharacter(FFElement(tower, v)))
    return dict(zip(divisors, chars))


@dataclass(frozen=True)
class CoincidenceCheck:
    """Aggregate verdict of the order-coincidence biconditional.

    holds is True when, for every element, its order equals its character's
    order exactly when that order is self-reciprocal.  The first violating
    (element, element_order, character_order) triple is kept for debugging.
    """

    holds: bool
    counterexample: Optional[tuple[FFElement, FqPoly, FqPoly]]

    def __bool__(self) -> bool:
        return self.holds


def orders_coincide_iff_self_reciprocal(
    tower: FieldTower,
    fp: FactoredPoly,
    *,
    check: str = "basis",
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> CoincidenceCheck:
    """Check that order coincidence happens exactly on self-reciprocal orders.

    The character order is computed by the definitional scan so the check
    does not assume the reciprocal relation it is probing.
    """
    divisors = _scan_divisors(tower, fp, check, size_bound)
    self_reciprocal = [is_self_reciprocal(g) for g in divisors]
    fails = lambda m, c: (c == m) != self_reciprocal[m]
    for v, m, c in _failures(tower, divisors, check, fails):
        x = FFElement(tower, v)
        return CoincidenceCheck(holds=False, counterexample=(x, divisors[m], divisors[c]))
    return CoincidenceCheck(holds=True, counterexample=None)


@dataclass(frozen=True)
class ReciprocalOrderSweep:
    """Per-field comparison of the two character-order routes.

    For each element a, the definitional (divisor scan) order of the
    character labeled a is compared against the monic reciprocal of the
    element order of a.
    """

    p: int
    s: int
    n: int
    total: int
    mismatches: tuple[tuple[FFElement, FqPoly, FqPoly], ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def reciprocal_order_sweep(
    tower: FieldTower,
    fp: FactoredPoly,
    *,
    check: str = "basis",
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> ReciprocalOrderSweep:
    divisors = _scan_divisors(tower, fp, check, size_bound)
    reciprocal = [monic_reciprocal(g) for g in divisors]
    fails = lambda m, c: divisors[c] != reciprocal[m]
    failures = _failures(tower, divisors, check, fails)
    return ReciprocalOrderSweep(
        p=tower.p,
        s=tower.s,
        n=tower.n,
        total=tower.size,
        mismatches=tuple(
            (FFElement(tower, v), divisors[c], reciprocal[m]) for v, m, c in failures
        ),
    )


@dataclass(frozen=True)
class MeynVerdict:
    """Both sides of the Meyn criterion for one (q, n).

    With n = p^u * v and gcd(v, p) = 1: criterion_holds records whether
    q^j = -1 (mod v) for some 1 <= j <= v (witness_j is the least such j),
    and all_divisors_self_reciprocal records whether every monic
    irreducible factor of x^n - 1 is self-reciprocal.  The two agree.
    """

    q: int
    n: int
    u: int
    v: int
    criterion_holds: bool
    witness_j: Optional[int]
    all_divisors_self_reciprocal: bool

    @property
    def consistent(self) -> bool:
        return self.criterion_holds == self.all_divisors_self_reciprocal


def meyn_criterion(q: int, n: int, *, seed: int = 0) -> MeynVerdict:
    """Decide whether every monic divisor of x^n - 1 over F_q is self-reciprocal.

    The verdict of meyn_sweep(q, (n,), seed=seed) for this one n.
    """
    return meyn_sweep(q, (n,), seed=seed)[0]


def meyn_sweep(q: int, ns: Iterable[int], *, seed: int = 0) -> list[MeynVerdict]:
    """The Meyn verdict for each n in ns, over one F_q.

    Both routes are computed independently: the modular search for
    q^j = -1 (mod v), and a factorization scan of x^n - 1.  For v = 1 the
    search succeeds at j = 1 since everything is 0 mod 1, matching the
    factorization side where (x - 1)^(p^u) has only self-reciprocal
    divisors.  The factorizations share one dict of split cyclotomic parts,
    so each Phi_d is split once per sweep, however many n it divides.
    """
    p, s = prime_power_decomposition(q)
    field, parts, rng = base_field(p, s), {}, random.Random(seed)
    verdicts = []
    for n in ns:
        fp = _factor_xn_minus_1(n, field, parts, rng)  # raises for n < 1
        all_sr = all(is_self_reciprocal(g) for g, _ in fp.factors)
        u, v = _p_part(n, p)
        witness = next((j for j in range(1, v + 1) if pow(q, j, v) == (v - 1) % v), None)
        verdicts.append(MeynVerdict(q, n, u, v, witness is not None, witness, all_sr))
    return verdicts


def multiplicative_order(x: FFElement) -> int:
    """The least k >= 1 with x^k = 1, for nonzero x."""
    if x.is_zero:
        raise ZeroElementError("the zero element has no multiplicative order")
    tower = x.tower
    order = tower.size - 1
    for r, _ in factorize(order):
        while order % r == 0 and tower.pow_i(x.value, order // r) == 1:
            order //= r
    return order


def is_primitive(x: FFElement) -> bool:
    """True iff x generates the multiplicative group."""
    return x.tower.is_primitive_i(x.value)


def find_primitive_normal(
    tower: FieldTower,
    fp: FactoredPoly,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> FFElement:
    """The lexicographically first element that is both primitive and normal.

    Existence is guaranteed for every finite extension; exhausting the
    field without a hit is therefore a loud arithmetic failure, not a
    normal outcome.
    """
    _check_sweep(tower, fp, size_bound)
    # the search stops at its first hit, so it tests lazily, as is_normal does;
    # normality, a matrix per irreducible factor, rules most elements out first
    for v in tower.enumerate_values():
        if _is_normal_i(tower, fp, v) and tower.is_primitive_i(v):
            return FFElement(tower, v)
    raise PrimitiveNormalNotFoundError(
        f"no primitive normal element in F_{tower.q}^{tower.n}; arithmetic is broken"
    )


@dataclass(frozen=True)
class ClassificationRow:
    """Per-divisor row of a field classification."""

    divisor: FqPoly
    element_count: int
    phi: int
    char_count: int
    reciprocal: FqPoly
    self_reciprocal: bool

    @property
    def count_matches_phi(self) -> bool:
        return self.element_count == self.phi


@dataclass(frozen=True)
class ClassificationReport:
    """Full per-divisor classification of one field."""

    p: int
    s: int
    n: int
    rows: tuple[ClassificationRow, ...]


def classification_report(
    tower: FieldTower,
    fp: FactoredPoly,
    *,
    check: str = "basis",
    mode: str = "oracle",
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> ClassificationReport:
    """Classify every divisor of x^n - 1: element counts, phi_q, character counts.

    By default character counts come from the definitional (oracle) order
    scan so the report stays independent of the reciprocal fast path;
    mode="fast" trades that independence for speed on large fields.
    """
    divisors, reciprocal = _scan_reciprocals(tower, fp, mode, check, size_bound)
    elements = Counter(_element_order(tower, divisors))
    if mode == "oracle":
        chars = Counter(_char_order(tower, divisors, check))
    else:
        chars = Counter({reciprocal[k]: count for k, count in elements.items()})
    rows = tuple(
        ClassificationRow(f, elements[k], phi, chars[k], divisors[reciprocal[k]], reciprocal[k] == k)
        for k, (f, phi) in enumerate(divisor_phi_table(fp))
    )
    return ClassificationReport(p=tower.p, s=tower.s, n=tower.n, rows=rows)
