import json
import random
import re
import tracemalloc

import pytest

from oracles import (
    AffineMap, agl_maps, agl_maps_onto, agl_orbit_of_set,
    all_difference_sets, compose_affine, field_model_singer_set,
    find_agl_map, invert_affine, normalize_matrix, set_stabilizer_in_agl,
)
from singerlat.diffsets import (
    DifferenceMatrix, DifferenceSet, canonical_difference_set,
    is_difference_set, label_perms, matrix_from_text, matrix_to_text,
    set_from_text, singer_difference_set, stabilizer_index_perms,
)
from singerlat.arith import zmod_units
from singerlat.errors import CapExceeded, InvalidInput
from singerlat.permgrp import compose, inverse


def oracle_difference_counts(elements, m):
    counts = [0] * m
    for d in elements:
        for d2 in elements:
            if d != d2:
                counts[(d - d2) % m] += 1
    return counts


def test_examples_mod_7():
    assert is_difference_set([1, 2, 4], 2)
    assert oracle_difference_counts([1, 2, 4], 7)[1:] == [1] * 6
    assert not is_difference_set([0, 1, 2], 2)


def test_example_mod_13():
    assert is_difference_set([0, 1, 3, 9], 3)


def test_malformed_input_is_an_error():
    with pytest.raises(InvalidInput):
        is_difference_set([1, 1, 2], 2)
    with pytest.raises(InvalidInput):
        is_difference_set([0, 1, 9], 2)
    with pytest.raises(InvalidInput):
        is_difference_set([0, 1, 3], 1)


def test_wrong_size_is_false_before_the_count_table():
    # a perfect difference set has q+1 elements; two elements claiming a
    # huge order must not size a table of q^2+q+1 counts
    q = 10 ** 9
    assert not is_difference_set((0, 1), q)
    text = json.dumps({"q": q, "modulus": q * q + q + 1, "elements": [0, 1]})
    with pytest.raises(InvalidInput):
        set_from_text(text)


def test_matrix_parser_stops_at_the_first_repeated_difference():
    # the residues 0..1500 claim q = 1500 and 2,251,500 differences over
    # as many nonzero residues; 1 - 2 repeats 0 - 1, and the check ends
    # there, with no table of that size
    q = 1500
    text = json.dumps({"q": q, "modulus": q * q + q + 1,
                       "columns": [list(range(q + 1))] * 3})
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match="do not form a difference set"):
            matrix_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_singer_sets_are_difference_sets(q):
    D = singer_difference_set(q)
    assert D.modulus == q * q + q + 1
    assert len(D.elements) == q + 1
    assert is_difference_set(D.elements, q)


def test_singer_q2_equivalent_to_1_2_4():
    D = singer_difference_set(2)
    assert tuple(sorted((1, 2, 4))) in agl_orbit_of_set(D)


def test_singer_cap_and_nonprimepower():
    with pytest.raises(InvalidInput):
        singer_difference_set(6)
    with pytest.raises(CapExceeded):
        singer_difference_set(11)


@pytest.mark.parametrize("q", [2, 3])
def test_every_difference_set_is_affine_image_of_singer(q):
    found = all_difference_sets(q)
    orbit = agl_orbit_of_set(singer_difference_set(q))
    assert {D.elements for D in found} == orbit


def test_all_difference_sets_q4_single_orbit():
    found = all_difference_sets(4)
    orbit = agl_orbit_of_set(singer_difference_set(4))
    assert {D.elements for D in found} == orbit
    assert len(found) == 42


def test_all_difference_sets_cap():
    with pytest.raises(CapExceeded):
        all_difference_sets(5)


def test_canonical_set_is_orbit_minimum():
    # the library scans only the images that contain 0 of a Singer set
    # read off the powers of x; the whole orbit of the field model's
    # Singer set is the reference at every q it serves
    for q in (2, 3, 4, 5, 7, 8, 9):
        orbit = agl_orbit_of_set(field_model_singer_set(q))
        assert canonical_difference_set(q).elements == min(orbit)
        assert singer_difference_set(q).elements in orbit


def test_canonical_sets_literally():
    expected = {
        2: (0, 1, 3),
        3: (0, 1, 3, 9),
        4: (0, 1, 4, 14, 16),
        5: (0, 1, 3, 8, 12, 18),
        7: (0, 1, 3, 13, 32, 36, 43, 52),
        8: (0, 1, 3, 7, 15, 31, 36, 54, 63),
        9: (0, 1, 3, 9, 27, 49, 56, 61, 77, 81),
    }
    for q, elements in expected.items():
        assert canonical_difference_set(q).elements == elements


def test_agl_apply_preserves_difference_property_exhaustively():
    for q in (2, 3):
        D = singer_difference_set(q)
        m = D.modulus
        for g in agl_maps(m):
            img = [g(x) for x in D.elements]
            assert is_difference_set(img, q)


def test_affine_map_group_laws():
    g = AffineMap(2, 3, 7)
    h = AffineMap(4, 1, 7)
    x = 5
    assert compose_affine(g, h)(x) == g(h(x))
    assert compose_affine(g, invert_affine(g))(x) == x
    assert compose_affine(invert_affine(g), g)(x) == x
    with pytest.raises(InvalidInput):
        AffineMap(7, 1, 21)  # 7 is not a unit mod 21


@pytest.mark.parametrize("q,size", [(2, 3), (3, 3), (4, 6), (8, 9)])
def test_stabilizer_orders(q, size):
    D = canonical_difference_set(q)
    stab = set_stabilizer_in_agl(D)
    assert len(stab) == size
    # the production path: the same maps as label permutations
    assert len(set(stabilizer_index_perms(D))) == size


def test_stabilizer_is_a_group():
    D = canonical_difference_set(4)
    stab = set_stabilizer_in_agl(D)
    pairs = {(g.a, g.b) for g in stab}
    for g in stab:
        inv = invert_affine(g)
        assert (inv.a, inv.b) in pairs
        for h in stab:
            c = compose_affine(g, h)
            assert (c.a, c.b) in pairs
    perms = set(stabilizer_index_perms(D))
    assert len(perms) == len(stab)
    for p in perms:
        assert inverse(p) in perms
        for r in perms:
            assert compose(p, r) in perms


def test_stabilizer_index_perms_are_permutations():
    for q in (2, 3, 4):
        D = canonical_difference_set(q)
        perms = stabilizer_index_perms(D)
        assert tuple(range(q + 1)) in perms
        for p in perms:
            assert sorted(p) == list(range(q + 1))


def test_normalize_matrix_identity_case():
    D = DifferenceSet(2, 7, (1, 2, 4))
    M = DifferenceMatrix.make(2, [(1, 2, 4)] * 3)
    N = normalize_matrix(M, D)
    for col in N.columns:
        assert col.entries == (1, 2, 4)


def test_normalize_matrix_reorders_and_remaps():
    D = DifferenceSet(2, 7, (1, 2, 4))
    M = DifferenceMatrix.make(2, [(1, 2, 4), (2, 4, 1), (4, 5, 0)])
    N = normalize_matrix(M, D)
    assert N.columns[0].entries == (1, 2, 4)
    for col in N.columns:
        assert tuple(sorted(col.entries)) == (1, 2, 4)
    # column 1 was a cyclic shift, so it stays a nontrivial ordering of D
    assert N.columns[1].entries != (1, 2, 4)


def test_normalize_matrix_reports_bad_column():
    # every q=2 set is affine-equivalent to the canonical one, so the
    # failure path needs a target of the wrong order
    D3 = canonical_difference_set(3)
    M = DifferenceMatrix.make(3, [D3.elements, D3.elements, D3.elements])
    N = normalize_matrix(M, D3)
    assert N.columns[0].entries == D3.elements
    with pytest.raises(InvalidInput):
        normalize_matrix(M, canonical_difference_set(2))


def test_normalized_alphas_recover_columns():
    D = canonical_difference_set(3)
    pos = {d: i for i, d in enumerate(D.elements)}
    M = DifferenceMatrix.make(3, [
        tuple(reversed(D.elements)),
        D.elements,
        (D.elements[1], D.elements[0], D.elements[3], D.elements[2]),
    ])
    N = normalize_matrix(M, D)
    for col in N.columns:
        alpha = tuple(pos[e] for e in col.entries)
        assert sorted(alpha) == list(range(4))
        assert tuple(D.elements[j] for j in alpha) == col.entries


def test_matrix_text_round_trip_bit_exact():
    M = DifferenceMatrix.make(2, [(1, 2, 4), (2, 4, 1), (1, 4, 2)])
    text = matrix_to_text(M)
    M2 = matrix_from_text(text)
    assert M2 == M
    assert matrix_to_text(M2) == text


def test_matrix_text_rejects_malformed():
    with pytest.raises(InvalidInput):
        matrix_from_text("not json")
    with pytest.raises(InvalidInput):
        matrix_from_text('{"q": 2, "modulus": 8, "columns": [[1,2,4],[1,2,4],[1,2,4]]}')
    with pytest.raises(InvalidInput):
        matrix_from_text('{"q": 2, "modulus": 7, "columns": [[1,2,4],[1,2,4]]}')
    with pytest.raises(InvalidInput):
        matrix_from_text('{"q": 2, "modulus": 7, "columns": [[1,2,5],[1,2,4],[1,2,4]]}')


def test_find_agl_map_deterministic_and_complete():
    D = canonical_difference_set(2)
    g = find_agl_map((1, 2, 4), D.elements, 7)
    assert g is not None
    assert tuple(sorted(g(x) for x in (1, 2, 4))) == D.elements
    # no map between sets of different sizes
    assert find_agl_map((0, 1), (0, 1, 3), 7) is None


def ascending_agl_scan(src, dst, m):
    """Every affine map carrying src onto dst, ascending in (a, b), found
    by trying every map: the reference for agl_maps_onto."""
    src_sorted = tuple(sorted(x % m for x in src))
    dst_sorted = tuple(sorted(x % m for x in dst))
    return [g for g in agl_maps(m)
            if tuple(sorted(g(x) for x in src_sorted)) == dst_sorted]


def agl_map_cases(q, rng):
    m = q * q + q + 1
    units = zmod_units(m)

    def image(src):
        a, b = rng.choice(units), rng.randrange(m)
        return [(a * x + b) % m for x in src]

    D = canonical_difference_set(q).elements
    cases = [(image(D), D), (D, image(D)), (D, D)]
    for _ in range(3):
        src = rng.sample(range(m), q + 1)
        cases += [(src, image(src)), (src, rng.sample(range(m), q + 1))]
    cases += [
        (rng.sample(range(m), q + 1), rng.sample(range(m), q)),  # sizes
        ([x + m for x in D], image(D)),  # entries beyond the modulus
        ([0, 0, 1], [0, 1, 1]),  # repeated entries
        ([0, 0, 1], [0, 1, 2]),
        ((), ()),
    ]
    # unions of cosets of a subgroup of Z/m: several offsets per unit work
    for k in (k for k in range(2, m) if m % k == 0):
        src = [x for x in range(m) if x % k in (0, 1)]
        cases += [(src, image(src)), (src, src)]
    return cases


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_find_agl_map_matches_ascending_scan(q):
    m = q * q + q + 1
    rng = random.Random(q)
    cases = agl_map_cases(q, rng)
    found = 0
    for src, dst in cases:
        expected = ascending_agl_scan(src, dst, m)
        assert list(agl_maps_onto(src, dst, m)) == expected, (src, dst)
        first = expected[0] if expected else None
        assert find_agl_map(src, dst, m) == first, (src, dst)
        found += first is not None
    assert 0 < found < len(cases)


def test_difference_set_count_q2():
    # hand count: the affine orbit has size 42 / |stabilizer| = 14
    assert len(all_difference_sets(2)) == 14
    assert len(all_difference_sets(3)) == 52


def test_refusals_quote_long_numbers_by_their_ends():
    # in full up to 20 digits; past that the first and last three digits
    # and the count, also for a number that str() refuses (4,300 digits)
    q = 10 ** 8600 + 123
    with pytest.raises(ValueError):
        str(q)
    with pytest.raises(InvalidInput, match=r"got -100\.\.\.123 "
                       r"\(8601 digits\)$"):
        is_difference_set([0], -q)
    for elements, shown in [([10 ** 20 - 1], "99999999999999999999"),
                            ([10 ** 20], "100...000 (21 digits)"),
                            ([-3 * 10 ** 4400], "-300...000 (4401 digits)")]:
        with pytest.raises(InvalidInput, match=re.escape(
                f"element {shown} is not a residue mod 7")):
            is_difference_set(elements, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_label_perms_match_ascending_scan(q):
    # label_perms reads each map of the full scan onto D as the positions
    # in D of the images of the entries, in the scan's (a, b) order
    D = canonical_difference_set(q)
    m, elems = D.modulus, list(D.elements)
    pos = {d: i for i, d in enumerate(elems)}
    rng = random.Random(q)

    def column():
        # D under a random affine map, its entries in a random order
        a, b = rng.choice(zmod_units(m)), rng.randrange(m)
        col = [(a * x + b) % m for x in elems]
        rng.shuffle(col)
        return col

    def inequivalent():
        while True:
            src = rng.sample(range(m), q + 1)
            if not ascending_agl_scan(src, elems, m):
                return src

    onto = [elems, [(-d) % m for d in elems], [x + m for x in elems]]
    onto += [column() for _ in range(5)]
    none = [inequivalent() for _ in range(3)]
    # short, repeated, and one repeat past q + 1 distinct entries
    none += [elems[:-1], elems[:1] + elems[:-1], elems + elems[:1], []]
    for entries in onto + none:
        expected = [tuple(pos[g(x)] for x in entries)
                    for g in ascending_agl_scan(entries, elems, m)]
        assert list(label_perms(entries, D)) == expected, entries
        assert bool(expected) == (entries in onto), entries
