"""Exact arithmetic: primes, units mod m and small finite fields GF(p^k).

Everything is integer exact.  A field element is a coefficient tuple
over GF(p), index i holding the coefficient of x^i.  The reduction
polynomial is the first irreducible monic of the requested degree in
the base-p integer encoding of its non-leading coefficients, and the
stored primitive element is the first one in ascending element order,
so building the same field twice gives identical data.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Optional

from .errors import CapExceeded, InvalidInput

FIELD_DEGREE_CAP = 9
FIELD_ORDER_CAP = 1000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def zmod_units(m: int) -> list[int]:
    """All multiplicative units of Z/mZ in ascending order."""
    if m < 2:
        raise InvalidInput(f"modulus must be at least 2, got {m}")
    return [a for a in range(1, m) if math.gcd(a, m) == 1]


# -- polynomials over GF(p), as coefficient tuples, index = degree --

def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mod(num: tuple[int, ...], div: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of num by monic div, coefficients mod p."""
    num = list(num)
    dd = len(div) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * div[j]) % p
    return _poly_trim(tuple(v % p for v in num[:dd]))


def _poly_from_int(n: int, p: int, degree: int) -> tuple[int, ...]:
    """Monic polynomial of the given degree whose low coefficients are the
    base-p digits of n (constant term = least significant digit)."""
    coeffs = []
    for _ in range(degree):
        coeffs.append(n % p)
        n //= p
    return tuple(coeffs) + (1,)


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    deg = len(f) - 1
    if deg == 1:
        return True
    if f[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for n in range(p ** d):
            g = _poly_from_int(n, p, d)
            if not _poly_mod(f, g, p):
                return False
    return True


class Field:
    """GF(p^k) with a fixed reduction polynomial and primitive element.

    Elements are coefficient tuples of length k; the canonical element
    order, the one iter_elements() walks, is lexicographic on those
    tuples.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise InvalidInput(f"p must be prime, got {p}")
        if not 1 <= k <= FIELD_DEGREE_CAP:
            raise InvalidInput(f"degree must be in 1..{FIELD_DEGREE_CAP}, got {k}")
        if p ** k > FIELD_ORDER_CAP:
            raise CapExceeded(
                f"field order {p ** k} exceeds cap {FIELD_ORDER_CAP}")
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus_poly = self._find_modulus()
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self.omega_coeffs = self._find_primitive()

    def _find_modulus(self) -> tuple[int, ...]:
        for n in range(self.p ** self.k):
            f = _poly_from_int(n, self.p, self.k)
            if _is_irreducible(f, self.p):
                return f
        raise RuntimeError("no irreducible polynomial found")

    # -- raw tuple arithmetic --

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        k, p = self.k, self.p
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        rem = _poly_mod(tuple(v % p for v in prod), self.modulus_poly, p)
        return rem + (0,) * (k - len(rem))

    def power(self, a, e: int):
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def multiplicative_order(self, a) -> int:
        if a == self.zero:
            raise InvalidInput("zero has no multiplicative order")
        n = self.order - 1
        order = n
        for r in prime_factors(n):
            while order % r == 0 and self.power(a, order // r) == self.one:
                order //= r
        return order

    def _find_primitive(self):
        for coeffs in self.iter_elements():
            if coeffs == self.zero:
                continue
            if self.multiplicative_order(coeffs) == self.order - 1:
                return coeffs
        raise RuntimeError("no primitive element found")

    # -- canonical enumeration --

    def iter_elements(self) -> Iterator[tuple[int, ...]]:
        def rec(prefix, depth):
            if depth == self.k:
                yield prefix
                return
            for c in range(self.p):
                yield from rec(prefix + (c,), depth + 1)
        # lexicographic on (c_0, ..., c_{k-1})
        for c0 in range(self.p):
            yield from rec((c0,), 1)

    def subfield(self, q: int) -> list:
        """The elements of the subfield GF(q), the fixed points of
        x -> x^q, in canonical order."""
        elements = [x for x in self.iter_elements() if self.power(x, q) == x]
        if len(elements) != q:
            raise AssertionError(
                f"GF({q}) inside {self!r} has {len(elements)} elements")
        return elements

    def __repr__(self):
        return f"Field(p={self.p}, k={self.k})"


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> Field:
    return Field(p, k)
