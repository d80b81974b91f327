import math
from itertools import permutations

import pytest

from singerlat.diffsets import DifferenceVector
from singerlat.errors import CapExceeded, InvalidInput
from oracles import (
    all_collineations, collineations_fixing, compose_collineations,
    elation_cycle_profile, invert_collineation, is_conjugate_in_sym,
    is_identity, line_pencil_action, pencil_action, pgammal2_model,
    preserves_labels, symmetric_group,
)
from singerlat.plane import (
    Collineation, LabelledPlane, _chain_orbits, _plane_tables,
    canonical_plane, elations_with, is_desarguesian, plane_from_text,
    plane_to_text, search_collineations, verify_plane_axioms,
)

# entries without the difference property, on the seven residues mod 7
NOT_A_PLANE = LabelledPlane(2, 7, (0, 1, 2))


def count_flags(plane):
    return sum(
        plane.incident(x, p)
        for x in range(plane.modulus) for p in range(plane.modulus))


def test_fano_from_vector():
    v = DifferenceVector.make(2, (1, 2, 4))
    plane = LabelledPlane(v.q, v.modulus, v.entries)
    assert count_flags(plane) == 21
    assert plane.point_lines(0) == tuple((-d) % 7 for d in (1, 2, 4))
    assert plane.line_points(3) == (4, 5, 0)


def test_order_three_plane_flag_count():
    v = DifferenceVector.make(3, (0, 1, 3, 9))
    plane = LabelledPlane(v.q, v.modulus, v.entries)
    assert count_flags(plane) == 52


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_flag_count_formula(q):
    plane = canonical_plane(q)
    assert count_flags(plane) == (q * q + q + 1) * (q + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_axioms_hold_for_difference_set_planes(q):
    assert verify_plane_axioms(canonical_plane(q))


def test_axioms_fail_without_difference_property():
    assert not verify_plane_axioms(NOT_A_PLANE)


def brute_force_point_maps(plane):
    m = plane.modulus
    family = {frozenset(plane.line_points(x)) for x in range(m)}
    good = set()
    for perm in permutations(range(m)):
        if all(frozenset(perm[p] for p in s) in family for s in family):
            good.add(perm)
    return good


def test_fano_group_matches_brute_force():
    plane = canonical_plane(2)
    brute = brute_force_point_maps(plane)
    assert len(brute) == 168
    found = all_collineations(plane)
    assert {c.point_map for c in found} == brute
    assert len(found) == 168


def test_order_three_group_order_and_closure():
    plane = canonical_plane(3)
    found = all_collineations(plane)
    assert len(found) == 5616
    index = {(c.point_map, c.line_map) for c in found}
    a, b = found[17], found[4000]
    c = compose_collineations(a, b)
    assert (c.point_map, c.line_map) in index
    inv = invert_collineation(a)
    assert (inv.point_map, inv.line_map) in index
    assert is_identity(compose_collineations(a, inv))


def test_full_group_cap():
    with pytest.raises(CapExceeded):
        all_collineations(canonical_plane(4))


@pytest.mark.parametrize("q,order", [(2, 168), (3, 5616), (4, 120960),
                                     (5, 372000)])
def test_stabilizer_chain_gives_the_collineation_group_order(q, order):
    # |PGammaL(3, q)|, past the cap of the full enumeration
    orbits = _chain_orbits(_plane_tables(canonical_plane(q)))
    assert math.prod(orbits) == order
    if q <= 3:
        assert len(all_collineations(canonical_plane(q))) == order


@pytest.mark.parametrize("q,order", [(2, 24), (3, 432)])
def test_point_stabilizer_orders(q, order):
    found = collineations_fixing(canonical_plane(q), 0)
    assert len(found) == order
    assert any(is_identity(c) for c in found)
    assert all(c.point_map[0] == 0 for c in found)


def test_label_preserving_stabilizer_is_trivial():
    for q in (2, 3):
        found = [c for c in collineations_fixing(canonical_plane(q), 0)
                 if preserves_labels(c)]
        assert len(found) == 1 and is_identity(found[0])


def test_search_caps_and_bad_inputs():
    with pytest.raises(CapExceeded):
        collineations_fixing(canonical_plane(7), 0)
    with pytest.raises(InvalidInput):
        search_collineations(NOT_A_PLANE)


def test_collineation_rejects_non_incidence_map():
    plane = canonical_plane(2)
    swap = (1, 0, 2, 3, 4, 5, 6)
    ident = tuple(range(7))
    with pytest.raises(InvalidInput):
        Collineation(plane, swap, ident)


def test_pencil_action_small_orders():
    assert pencil_action(canonical_plane(2), 0) == symmetric_group(3)
    assert pencil_action(canonical_plane(3), 0) == symmetric_group(4)


def test_pencil_action_base_point_free():
    plane = canonical_plane(3)
    assert pencil_action(plane, 0) == pencil_action(plane, 7)


def test_line_pencil_matches_point_pencil():
    for q in (2, 3):
        plane = canonical_plane(q)
        assert line_pencil_action(plane, 0) == pencil_action(plane, 0)


def test_pencil_action_q4_is_all_of_sym5():
    p = pencil_action(canonical_plane(4), 0)
    assert p.order == 120
    assert p == symmetric_group(5)
    assert is_conjugate_in_sym(p, pgammal2_model(4)) is not None


def test_stabilizer_induces_nontrivial_label_moves():
    plane = canonical_plane(2)
    found = collineations_fixing(plane, 0)
    assert sum(not preserves_labels(c) for c in found) == 23


@pytest.mark.parametrize("q,order", [(2, 2), (3, 3), (4, 4)])
def test_elation_group_orders(q, order):
    plane = canonical_plane(q)
    axis = plane.point_lines(0)[0]
    els = elations_with(plane, 0, axis)
    assert len(els) == order
    assert any(is_identity(e.collineation) for e in els)
    index = {(e.collineation.point_map, e.collineation.line_map) for e in els}
    for e in els:
        for f in els:
            g = compose_collineations(e.collineation, f.collineation)
            assert (g.point_map, g.line_map) in index


def test_elations_need_center_on_axis():
    plane = canonical_plane(2)
    axis = plane.point_lines(0)[0]
    off = next(p for p in range(7) if not plane.incident(axis, p))
    with pytest.raises(InvalidInput):
        elations_with(plane, off, axis)


def test_nontrivial_elation_moves_everything_off_axis():
    plane = canonical_plane(3)
    axis = plane.point_lines(0)[0]
    e = next(x for x in elations_with(plane, 0, axis)
             if not is_identity(x.collineation))
    axis_pts = set(plane.line_points(axis))
    center_lines = set(plane.point_lines(0))
    for p in range(plane.modulus):
        assert (e.collineation.point_map[p] == p) == (p in axis_pts)
    for y in range(plane.modulus):
        assert (e.collineation.line_map[y] == y) == (y in center_lines)


def nontrivial_elation(q):
    plane = canonical_plane(q)
    axis = plane.point_lines(0)[0]
    return next(e for e in elations_with(plane, 0, axis)
                if not is_identity(e.collineation))


@pytest.mark.parametrize("q,profile", [(2, (1, 2)), (3, (1, 3)), (4, (2, 2))])
def test_elation_cycle_profiles(q, profile):
    e = nontrivial_elation(q)
    plane = e.collineation.plane
    for line in plane.point_lines(e.center):
        if line != e.axis:
            assert elation_cycle_profile(e, line) == profile


def test_cycle_profile_rejections():
    e = nontrivial_elation(2)
    plane = e.collineation.plane
    trivial = next(x for x in elations_with(plane, e.center, e.axis)
                   if is_identity(x.collineation))
    other = e.collineation.plane.point_lines(e.center)[1]
    with pytest.raises(InvalidInput):
        elation_cycle_profile(trivial, other)
    with pytest.raises(InvalidInput):
        elation_cycle_profile(e, e.axis)
    off = next(y for y in range(plane.modulus)
               if not plane.incident(y, e.center))
    with pytest.raises(InvalidInput):
        elation_cycle_profile(e, off)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_difference_set_planes_are_desarguesian(q):
    assert is_desarguesian(canonical_plane(q))


def test_desarguesian_rejects_broken_and_big_inputs():
    with pytest.raises(InvalidInput):
        is_desarguesian(NOT_A_PLANE)
    with pytest.raises(CapExceeded):
        is_desarguesian(canonical_plane(7))


FANO_TEXT = """\
line 0: (0,0) (1,1) (3,2)
line 1: (1,0) (2,1) (4,2)
line 2: (2,0) (3,1) (5,2)
line 3: (3,0) (4,1) (6,2)
line 4: (0,2) (4,0) (5,1)
line 5: (1,2) (5,0) (6,1)
line 6: (0,1) (2,2) (6,0)
"""


def test_plane_text_golden():
    assert plane_to_text(canonical_plane(2)) == FANO_TEXT


def test_plane_text_round_trips():
    for q in (2, 3, 4):
        plane = canonical_plane(q)
        assert plane_from_text(plane_to_text(plane)) == plane


def test_plane_parser_rejects_inconsistent_export():
    with pytest.raises(InvalidInput):
        plane_from_text("")
    with pytest.raises(InvalidInput):
        plane_from_text("line 0: (0,0) (1,1) (3,2)\n")
    broken = FANO_TEXT.replace("line 6: (0,1) (2,2) (6,0)",
                               "line 6: (0,1) (2,2) (5,0)")
    with pytest.raises(InvalidInput):
        plane_from_text(broken)
