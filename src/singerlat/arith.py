"""Exact arithmetic: prime powers, units mod m and the powers of a
primitive element of GF(p^n).

Everything is integer exact.  A field element is a coefficient tuple
over GF(p), index i holding the coefficient of x^i.  The field is
GF(p)[x] modulo the first monic polynomial of degree n, in the base-p
order of its non-leading coefficients, in which x has order p^n - 1, so
walking the same field twice gives identical data.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import CapExceeded, InvalidInput


# Miller-Rabin on the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < PRIME_TEST_BOUND."""
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_root(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 1, by Newton's method
    from 2^ceil(bits/k), which lies above it."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """Return (p, k) with q = p^k and p prime, or None.  For the largest
    k with q = r^k, q is a prime power exactly when r is prime: r = p^j
    would make q a (jk)-th power.  No trial division, so the cost grows
    with the digits of q, not with its size; a q past the exact range
    of the prime test is refused."""
    if q < 2:
        return None
    if q >= PRIME_TEST_BOUND:
        raise CapExceeded(f"prime power test capped below {PRIME_TEST_BOUND}")
    for k in range(q.bit_length() - 1, 0, -1):
        r = _int_root(q, k)
        if r ** k == q:
            return (r, k) if _is_prime(r) else None
    return None


def zmod_units(m: int) -> list[int]:
    """All multiplicative units of Z/mZ in ascending order."""
    if m < 2:
        raise InvalidInput(f"modulus must be at least 2, got {m}")
    return [a for a in range(1, m) if math.gcd(a, m) == 1]


def primitive_powers(p: int, n: int) -> list[tuple[int, ...]]:
    """The powers 1, x, ..., x^(p^n - 2) in GF(p)[x]/(f), for the first
    monic f of degree n (low coefficients in base-p order, constant term
    least significant) in which x has order p^n - 1.

    That order is the proof: x is then a unit with p^n - 1 distinct
    powers, so every nonzero residue is a unit, the quotient ring is the
    field GF(p^n) and x generates its multiplicative group.  A prime p
    always has such an f; Z/pZ for a composite p has none.
    """
    order = p ** n - 1
    one = (1,) + (0,) * (n - 1)
    for code in range(p ** n):
        if code % p == 0:
            continue  # x divides f, so x is no unit
        low = tuple(code // p ** i % p for i in range(n))
        powers = [one]
        v = one
        for _ in range(order):
            # x * v, with x^n = -(f_0 + f_1 x + ... + f_(n-1) x^(n-1))
            top = v[-1]
            v = tuple((a - top * c) % p for a, c in zip((0,) + v[:-1], low))
            if v == one:
                break
            powers.append(v)
        if len(powers) == order:  # x^order is the first power back at 1
            return powers
    raise InvalidInput(
        f"x has order {p}^{n} - 1 modulo no polynomial over Z/{p}Z")
