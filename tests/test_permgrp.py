import itertools

import pytest

from oracles import (
    conjugate_by, cycle_type, frobenius_perm, group_from_elements,
    group_from_generators, is_conjugate_in_sym, normalizer_in_sym,
    perm_order, pgammal2_model, pgl2_model, reduce_generators,
    symmetric_group,
)
from singerlat.errors import CapExceeded, InvalidInput
from singerlat.permgrp import (
    closure, compose, conjugator, identity, inverse, perm_from_str,
    perm_to_str, validate_perm,
)


def test_compose_applies_right_factor_first():
    a = (1, 2, 0)
    b = (0, 2, 1)
    assert compose(a, b) == tuple(a[b[i]] for i in range(3))
    assert compose(a, b) == (1, 0, 2)


def test_inverse():
    p = (2, 0, 3, 1)
    assert compose(p, inverse(p)) == identity(4)
    assert compose(inverse(p), p) == identity(4)


def test_conj_by_matches_triple_product():
    g = (1, 2, 0, 3)
    s = (3, 1, 0, 2)
    assert conjugator(s)(g) == compose(inverse(s), compose(g, s))
    assert conjugator(identity(4))(g) == g
    assert conjugator(s)(s) == s
    # every pair up to degree 4, the one- and zero-point cases included
    for n in range(5):
        for s in itertools.permutations(range(n)):
            conj = conjugator(s)
            for g in itertools.permutations(range(n)):
                assert conj(g) == compose(inverse(s), compose(g, s))


def test_cycle_type_and_order():
    assert cycle_type(identity(3)) == (1, 1, 1)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 3, 4, 0)) == (5,)
    assert perm_order((1, 0, 3, 4, 2)) == 6


def test_perm_text_round_trip():
    p = (2, 0, 1, 4, 3)
    assert perm_to_str(p) == "[2 0 1 4 3]"
    assert perm_from_str(perm_to_str(p)) == p
    with pytest.raises(InvalidInput):
        perm_from_str("2 0 1")
    with pytest.raises(InvalidInput):
        perm_from_str("[0 0 1]")
    with pytest.raises(InvalidInput):
        perm_from_str("[0 x 1]")


def test_perm_refusals_quote_long_text_briefly():
    # each refusal stays one short line, whatever the size of the text
    for text, message in (
            ("0 " * 50_000, "permutation text must look like [0 2 1]: "
             "'0 0 0 0"),
            ("[0 1 " + "9" * 5000 + "]", "non-integer entry in permutation "
             "text: '[0 1 999"),
            ("[" + " ".join(["0"] * 100_000) + "]", "not a permutation of "
             "0..99999: [0 0 0 0 0 0 0 0 ...] of degree 100000")):
        with pytest.raises(InvalidInput) as refused:
            perm_from_str(text)
        assert str(refused.value).startswith(message)
        assert len(str(refused.value).encode()) < 200


def test_validate_perm_rejects_junk():
    with pytest.raises(InvalidInput):
        validate_perm([0, 1, 2])
    with pytest.raises(InvalidInput):
        validate_perm((0, 2, 3))


def test_closure_of_transposition_and_cycle_is_symmetric():
    gens = [(1, 0, 2), (1, 2, 0)]
    assert closure(gens, 3) == frozenset(itertools.permutations(range(3)))


def test_closure_degree_cap():
    with pytest.raises(CapExceeded):
        closure([identity(13)], 13)


def test_from_elements_requires_closed_set():
    with pytest.raises(InvalidInput):
        group_from_elements({identity(3), (1, 2, 0)})
    g = group_from_elements({identity(3), (1, 2, 0), (2, 0, 1)})
    assert g.order == 3


def test_reduce_generators_regenerates():
    elems = set(itertools.permutations(range(4)))
    gens = reduce_generators(elems)
    assert len(gens) <= 3
    assert closure(gens, 4) == frozenset(elems)


def test_symmetric_group_sizes():
    assert symmetric_group(1).order == 1
    assert symmetric_group(4).order == 24
    assert (1, 0, 2, 3) in symmetric_group(4)
    with pytest.raises(CapExceeded):
        symmetric_group(10)
    with pytest.raises(InvalidInput):
        symmetric_group(0)


@pytest.mark.parametrize("q,pgl,pgam", [
    (2, 6, 6), (3, 24, 24), (4, 60, 120), (5, 120, 120),
    (7, 336, 336), (8, 504, 1512), (9, 720, 1440),
])
def test_fractional_linear_group_orders(q, pgl, pgam):
    assert pgl2_model(q).order == pgl == q * (q * q - 1)
    assert pgammal2_model(q).order == pgam


@pytest.mark.parametrize("q", [3, 4, 5])
def test_pgl2_is_sharply_3_transitive(q):
    g = pgl2_model(q)
    triples = {(p[0], p[1], p[2]) for p in g.elements}
    assert len(triples) == g.order
    assert triples == {t for t in itertools.permutations(range(q + 1), 3)}


def test_small_cases_are_full_symmetric_groups():
    assert pgl2_model(2) == symmetric_group(3)
    assert pgl2_model(3) == symmetric_group(4)
    assert pgammal2_model(4) == symmetric_group(5)
    assert pgl2_model(4) != symmetric_group(5)


def test_frobenius_squares_on_four_elements():
    # indices 0..3 walk the coefficient tuples (0,0), (0,1), (1,0), (1,1);
    # squaring fixes the prime field and swaps the other two elements
    f = frobenius_perm(4)
    assert cycle_type(f) == (2, 1, 1, 1)
    assert f == (0, 3, 2, 1, 4)
    assert compose(f, f) == identity(5)


def test_normalizer_of_pgl_2_4_adds_frobenius():
    n = normalizer_in_sym(pgl2_model(4))
    assert n == pgammal2_model(4)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pgammal2_is_self_normalizing(q):
    g = pgammal2_model(q)
    assert normalizer_in_sym(g) == g


def test_conjugacy_witness_small_degree():
    g = pgl2_model(4)
    s = (2, 0, 1, 3, 4)
    h = conjugate_by(g, s)
    w = is_conjugate_in_sym(g, h)
    assert w is not None
    assert conjugate_by(g, w) == h


def test_conjugacy_witness_degree_ten():
    g = pgammal2_model(9)
    s = (3, 1, 4, 0, 5, 9, 2, 6, 8, 7)
    h = conjugate_by(g, s)
    w = is_conjugate_in_sym(g, h)
    assert w is not None
    assert conjugate_by(g, w) == h


def test_conjugacy_rejects_on_cycle_types():
    sym5 = symmetric_group(5)
    in_s6 = group_from_elements({p + (5,) for p in sym5.elements})
    assert is_conjugate_in_sym(pgl2_model(5), in_s6) is None


def test_cycle_route_needs_a_full_cycle():
    a = group_from_generators([(1, 0) + tuple(range(2, 9))])
    b = group_from_generators([(0, 1, 3, 2) + tuple(range(4, 9))])
    with pytest.raises(CapExceeded):
        is_conjugate_in_sym(a, b)
    with pytest.raises(CapExceeded):
        normalizer_in_sym(a)


def test_conjugate_by_round_trip():
    g = pgammal2_model(5)
    s = (4, 2, 0, 5, 1, 3)
    assert conjugate_by(conjugate_by(g, s), inverse(s)) == g
