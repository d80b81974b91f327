import itertools
import math
import random

import pytest

from oracles import (
    _is_irreducible, _poly_from_int, _poly_mod, is_prime, make_field,
    prime_factors, prime_power_by_scan,
)
from singerlat.arith import (
    PRIME_TEST_BOUND, prime_power, primitive_powers, zmod_units,
)
from singerlat.errors import CapExceeded, InvalidInput


# independent polynomial oracle: dense lists over GF(p), naive arithmetic

def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def oracle_reducible(f, p):
    """f reducible iff it equals a product of two smaller monic polys."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for n in range(p ** d):
            g = [(n // p ** i) % p for i in range(d)] + [1]
            for m in range(p ** (deg - d)):
                h = [(m // p ** i) % p for i in range(deg - d)] + [1]
                if poly_mul(g, h, p) == list(f):
                    return True
    return False


def oracle_min_irreducible(p, k):
    for n in range(p ** k):
        f = tuple((n // p ** i) % p for i in range(k)) + (1,)
        if not oracle_reducible(f, p):
            return f
    raise AssertionError


@pytest.mark.parametrize("p,k", [(2, 3), (3, 3), (2, 2), (3, 2), (5, 3), (2, 6)])
def test_modulus_is_minimal_irreducible(p, k):
    assert make_field(p, k).modulus_poly == oracle_min_irreducible(p, k)


def test_gf8_reduction_rule():
    # x^3 + x + 1, so omega^3 = omega + 1
    f = make_field(2, 3)
    assert f.modulus_poly == (1, 1, 0, 1)
    w = f.omega_coeffs
    assert f.power(w, 3) == f.add(w, f.one)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 3), (3, 1), (3, 2), (2, 6),
                                 (5, 1), (5, 3), (7, 3), (2, 9), (3, 6)])
def test_primitive_witness_order_by_exhaustive_walk(p, k):
    f = make_field(p, k)
    acc = f.one
    seen = 0
    while True:
        acc = f.mul(acc, f.omega_coeffs)
        seen += 1
        if acc == f.one:
            break
        assert seen < f.order
    assert seen == f.order - 1


def test_field_laws_spot_checked():
    rng = random.Random(0)
    for p, k in [(2, 3), (3, 2), (5, 1), (3, 3)]:
        f = make_field(p, k)
        elems = list(f.iter_elements())
        for _ in range(200):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_elements_in_lexicographic_order():
    f = make_field(3, 2)
    elems = list(f.iter_elements())
    assert len(elems) == 9
    assert elems == sorted(elems)  # canonical order is lexicographic


def test_make_field_rejects_bad_parameters():
    with pytest.raises(InvalidInput):
        make_field(4, 2)
    with pytest.raises(InvalidInput):
        make_field(2, 0)
    with pytest.raises(InvalidInput):
        make_field(2, 10)
    with pytest.raises(CapExceeded):
        make_field(3, 7)
    with pytest.raises(CapExceeded):
        make_field(11, 3)


def test_zmod_units_examples():
    assert zmod_units(7) == [1, 2, 3, 4, 5, 6]
    assert zmod_units(21) == [1, 2, 4, 5, 8, 10, 11, 13, 16, 17, 19, 20]
    assert all(math.gcd(a, 91) == 1 for a in zmod_units(91))


def test_prime_power_decomposition():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert prime_factors(728) == [2, 7, 13]
    assert is_prime(997) and not is_prime(1)


def test_prime_power_matches_the_full_scan():
    # the largest root and the prime test find what the scan of every
    # candidate up to q finds
    for q in range(-2, 10 ** 4):
        assert prime_power(q) == prime_power_by_scan(q), q


def test_prime_power_of_large_values():
    # no trial division: each answer costs a few dozen integer roots
    assert prime_power(10 ** 18 + 3) == (10 ** 18 + 3, 1)
    assert prime_power((10 ** 9 + 7) ** 2) == (10 ** 9 + 7, 2)
    assert prime_power(3 ** 40) == (3, 40)
    assert prime_power(10 ** 18) is None
    # strong pseudoprimes to the leading bases, and the Carmichael 561
    assert prime_power(3_215_031_751) is None
    assert prime_power(3_825_123_056_546_413_051) is None
    assert prime_power(561) is None
    assert prime_power(2 ** 81) == (2, 81)
    with pytest.raises(CapExceeded):
        prime_power(PRIME_TEST_BOUND)


# the fields GF(q^3) = GF(p^n) of the Singer sets at q = 2, 3, 4, 5, 7, 8, 9
SINGER_FIELDS = [(2, 3), (3, 3), (2, 6), (5, 3), (7, 3), (2, 9), (3, 6)]


@pytest.mark.parametrize("p,n", SINGER_FIELDS)
def test_primitive_powers_are_every_nonzero_vector_once(p, n):
    powers = primitive_powers(p, n)
    assert len(powers) == p ** n - 1
    nonzero = set(itertools.product(range(p), repeat=n)) - {(0,) * n}
    assert set(powers) == nonzero


def oracle_x_power(e, f, p):
    """x^e mod f by square and multiply on dense polynomials."""
    result, base = (1,), (0, 1)
    while e:
        if e & 1:
            result = _poly_mod(tuple(poly_mul(result, base, p)), f, p)
        base = _poly_mod(tuple(poly_mul(base, base, p)), f, p)
        e >>= 1
    return result


def oracle_first_primitive(p, n):
    """The first monic f of degree n, in the order of _poly_from_int,
    that is irreducible and in which x has order p^n - 1."""
    order = p ** n - 1
    for code in range(p ** n):
        f = _poly_from_int(code, p, n)
        if _is_irreducible(f, p) and all(
                oracle_x_power(order // r, f, p) != (1,)
                for r in prime_factors(order)):
            return f
    raise AssertionError


@pytest.mark.parametrize("p,n", SINGER_FIELDS)
def test_primitive_powers_reduce_by_the_first_primitive_polynomial(p, n):
    f = oracle_first_primitive(p, n)
    powers = primitive_powers(p, n)
    for i, v in enumerate(powers):
        x_times_v = _poly_mod((0,) + v, f, p)
        expected = powers[(i + 1) % len(powers)]
        assert x_times_v + (0,) * (n - len(x_times_v)) == expected


def test_primitive_powers_need_a_prime():
    # Z/pZ with p composite has zero divisors, so no quotient ring over
    # it is a field and x is primitive modulo no polynomial
    for p, n in ((4, 1), (4, 2), (6, 1)):
        with pytest.raises(InvalidInput):
            primitive_powers(p, n)
