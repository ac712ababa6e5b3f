"""Small exact integer helpers: primality, factorization, prime powers.

Everything here is deterministic and sized for desk-scale inputs
(moduli and group orders up to a few dozen bits).
"""

from functools import lru_cache

from .errors import SizeExceededError

# The first 13 primes: no composite below psi_13 is a strong pseudoprime to
# all of them, so Miller-Rabin on them is deterministic there.  psi_13 itself
# is composite and passes all 13 (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below psi_13 (about 3.3e24); larger n
    raise SizeExceededError, since the test could call a composite prime."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise SizeExceededError(f"primality of {n} is only decided below {_MR_BOUND}")
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    r, d = _p_part(n - 1, 2)
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 by trial division, as (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _p_part(n: int, p: int) -> tuple[int, int]:
    """(u, v) with n = p^u * v and v prime to p, for n >= 1."""
    u = 0
    while n % p == 0:
        n, u = n // p, u + 1
    return u, n


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    return tuple(p for p, _ in factorize(n))


def prime_power_decomposition(q: int) -> tuple[int, int]:
    """Write q = p^s with p prime, or raise ValueError."""
    facts = factorize(q)
    if len(facts) != 1:
        raise ValueError(f"{q} is not a prime power")
    return facts[0]
