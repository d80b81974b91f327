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

from .errors import InvalidInput


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """Return (p, k) with q = p^k and p prime, or None.  The least
    divisor of q above 1 is its least prime factor p, and it is at most
    sqrt(q) unless q itself is prime."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k = 0
    n = q
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


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
