import math
import tracemalloc
from itertools import permutations

import pytest

from singerlat.diffsets import DifferenceVector
from singerlat.errors import CapExceeded, InvalidInput
from singerlat.permgrp import compose, inverse
from oracles import (
    all_collineations, collineations, elation_cycle_profile, elations_with,
    is_conjugate_in_sym, is_desarguesian, line_pencil_action, pencil_action,
    pgammal2_model, plane_tables, preserves_labels, symmetric_group,
    verify_plane_axioms,
)
from singerlat.plane import (
    _chain_orbits, _check_map, canonical_plane, incidence_lists,
    plane_from_text, plane_to_text,
)

# the lines x + {0, 1, 2} on the seven residues mod 7: the entries lack
# the difference property
NOT_A_PLANE = [tuple((x + d) % 7 for d in (0, 1, 2)) for x in range(7)]


def count_flags(plane):
    return sum(len(set(points)) for points in incidence_lists(plane)[0])


def identity_pair(plane):
    ident = tuple(range(plane.modulus))
    return ident, ident


def compose_pair(a, b):
    """The collineation a after b."""
    return compose(a[0], b[0]), compose(a[1], b[1])


def test_fano_from_vector():
    v = DifferenceVector.make(2, (1, 2, 4))
    line_pts, pt_lines = incidence_lists(v)
    assert count_flags(v) == 21
    assert pt_lines[0] == tuple((-d) % 7 for d in (1, 2, 4))
    assert line_pts[3] == (4, 5, 0)


def test_order_three_plane_flag_count():
    v = DifferenceVector.make(3, (0, 1, 3, 9))
    assert count_flags(v) == 52


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_flag_count_formula(q):
    plane = canonical_plane(q)
    assert count_flags(plane) == (q * q + q + 1) * (q + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_axioms_hold_for_difference_set_planes(q):
    assert verify_plane_axioms(incidence_lists(canonical_plane(q))[0])


def test_axioms_fail_without_difference_property():
    assert not verify_plane_axioms(NOT_A_PLANE)
    # and a vector with those entries is refused before any search
    with pytest.raises(InvalidInput):
        DifferenceVector.make(2, (0, 1, 2))


def brute_force_point_maps(plane):
    m = plane.modulus
    family = {frozenset(points) for points in incidence_lists(plane)[0]}
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
    assert {pmap for pmap, _ in found} == brute
    assert len(found) == 168


def test_order_three_group_order_and_closure():
    plane = canonical_plane(3)
    found = all_collineations(plane)
    assert len(found) == 5616
    index = set(found)
    a, b = found[17], found[4000]
    assert compose_pair(a, b) in index
    inv = (inverse(a[0]), inverse(a[1]))
    assert inv in index
    assert compose_pair(a, inv) == identity_pair(plane)


def test_full_group_cap():
    with pytest.raises(CapExceeded):
        all_collineations(canonical_plane(4))


@pytest.mark.parametrize("q,order", [(2, 168), (3, 5616), (4, 120960),
                                     (5, 372000)])
def test_stabilizer_chain_gives_the_collineation_group_order(q, order):
    # |PGammaL(3, q)|, past the cap of the full enumeration
    orbits = _chain_orbits(plane_tables(canonical_plane(q)))
    assert math.prod(orbits) == order
    if q <= 3:
        assert len(all_collineations(canonical_plane(q))) == order


@pytest.mark.parametrize("q,order", [(2, 24), (3, 432)])
def test_point_stabilizer_orders(q, order):
    plane = canonical_plane(q)
    found = collineations(plane, {0: 0})
    assert len(found) == order
    assert identity_pair(plane) in found
    assert all(pmap[0] == 0 for pmap, _ in found)


def test_label_preserving_stabilizer_is_trivial():
    for q in (2, 3):
        plane = canonical_plane(q)
        found = [c for c in collineations(plane, {0: 0})
                 if preserves_labels(plane, c)]
        assert found == [identity_pair(plane)]


def test_collineation_rejects_non_incidence_map():
    swap = (1, 0, 2, 3, 4, 5, 6)
    ident = tuple(range(7))
    with pytest.raises(AssertionError, match="lines through point 0"):
        _check_map(plane_tables(canonical_plane(2)), swap, ident)


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
    found = collineations(plane, {0: 0})
    assert sum(not preserves_labels(plane, c) for c in found) == 23


@pytest.mark.parametrize("q,order", [(2, 2), (3, 3), (4, 4)])
def test_elation_group_orders(q, order):
    plane = canonical_plane(q)
    axis = incidence_lists(plane)[1][0][0]
    els = elations_with(plane, 0, axis)
    assert len(els) == order
    assert identity_pair(plane) in els
    index = set(els)
    for e in els:
        for f in els:
            assert compose_pair(e, f) in index


def test_elations_need_center_on_axis():
    plane = canonical_plane(2)
    line_pts, pt_lines = incidence_lists(plane)
    axis = pt_lines[0][0]
    off = next(p for p in range(7) if p not in line_pts[axis])
    with pytest.raises(InvalidInput):
        elations_with(plane, off, axis)


def nontrivial_elation(q):
    """The plane, an axis through point 0, and a nontrivial elation with
    center 0 and that axis."""
    plane = canonical_plane(q)
    axis = incidence_lists(plane)[1][0][0]
    e = next(x for x in elations_with(plane, 0, axis)
             if x != identity_pair(plane))
    return plane, axis, e


def test_nontrivial_elation_moves_everything_off_axis():
    plane, axis, (pmap, lmap) = nontrivial_elation(3)
    line_pts, pt_lines = incidence_lists(plane)
    axis_pts = set(line_pts[axis])
    center_lines = set(pt_lines[0])
    for p in range(plane.modulus):
        assert (pmap[p] == p) == (p in axis_pts)
    for y in range(plane.modulus):
        assert (lmap[y] == y) == (y in center_lines)


@pytest.mark.parametrize("q,profile", [(2, (1, 2)), (3, (1, 3)), (4, (2, 2))])
def test_elation_cycle_profiles(q, profile):
    plane, axis, (pmap, _) = nontrivial_elation(q)
    for line in incidence_lists(plane)[1][0]:
        if line != axis:
            assert elation_cycle_profile(plane, pmap, 0, axis, line) == profile


def test_cycle_profile_rejections():
    plane, axis, (pmap, _) = nontrivial_elation(2)
    line_pts, pt_lines = incidence_lists(plane)
    trivial = next(x for x in elations_with(plane, 0, axis)
                   if x == identity_pair(plane))
    other = pt_lines[0][1]
    with pytest.raises(InvalidInput):
        elation_cycle_profile(plane, trivial[0], 0, axis, other)
    with pytest.raises(InvalidInput):
        elation_cycle_profile(plane, pmap, 0, axis, axis)
    off = next(y for y in range(plane.modulus) if 0 not in line_pts[y])
    with pytest.raises(InvalidInput):
        elation_cycle_profile(plane, pmap, 0, axis, off)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_difference_set_planes_are_desarguesian(q):
    assert is_desarguesian(canonical_plane(q))


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
    # int() raises a plain ValueError past 4,300 digits, and it reads
    # Arabic-Indic digits too; the parser takes ASCII digits only and
    # refuses an over-long number before int() sees it
    for digit in ("9", "\u0663"):
        with pytest.raises(InvalidInput):
            plane_from_text(
                FANO_TEXT.replace("(3,2)", f"({digit * 4400},2)", 1))


def test_plane_parser_checks_the_modulus_before_the_differences():
    # 2,000 pairs claim q = 1999 and a difference count over 3,998,001
    # residues; a one-row export has the wrong modulus, which is checked
    # before any table of that size is allocated
    row = "line 0: " + " ".join(f"({p},{p})" for p in range(2000)) + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInput, match="modulus is not q"):
            plane_from_text(row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
