import dataclasses
import hashlib
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import pytest

import ball_digest
import oracles
from conftest import identity_matrix, q11_matrix
import singerlat.ball as ball_module
from singerlat.ball import (
    BallComplex, H2GroupSummary, _labelled_plane_isomorphic, build_ball,
    complex_from_text, complex_to_text, extract_hjelmslev,
    h2_collineations_fixing_center, verify_ball,
)
from singerlat.diffsets import (
    DifferenceMatrix, DifferenceVector, canonical_difference_set,
)
from singerlat.errors import CapExceeded, GluingError, InvalidInput
from singerlat.exotic import NormalizedMatrix, classify, enumerate_normalized
from singerlat.permgrp import compose, inverse
from singerlat.plane import (
    _chain_orbits, _check_map, _Search, canonical_plane, incidence_lists,
)


def test_radius_one_counts():
    ball = build_ball(identity_matrix(2), 1)
    assert ball.vertex_count == 15
    assert len(ball.edges) == 35
    assert len(ball.chambers) == 21


def test_radius_one_counts_q3():
    ball = build_ball(identity_matrix(3), 1)
    m = 13
    assert ball.vertex_count == 1 + 2 * m
    assert len(ball.edges) == 2 * m + m * 4
    assert len(ball.chambers) == m * 4


def test_radius_one_center_panels_thick():
    ball = build_ball(identity_matrix(2), 1)
    on_panel = Counter()
    for a, b, c, _ in ball.chambers:
        on_panel[(a, b)] += 1
        on_panel[(a, c)] += 1
    center_panels = [e for e in ball.edges if ball.center in e]
    assert len(center_panels) == 14
    assert all(on_panel[e] == 3 for e in center_panels)


def test_radius_one_verifies():
    report = verify_ball(build_ball(identity_matrix(2), 1))
    assert report.ok
    assert report.failures == ()


def test_caps_and_bad_radius():
    with pytest.raises(InvalidInput):
        build_ball(identity_matrix(2), 3)
    for radius in (1, 2):
        with pytest.raises(CapExceeded,
                           match=f"radius {radius} ball capped at q <= 9"):
            build_ball(q11_matrix(), radius)


@pytest.mark.parametrize("q, vertices, chambers", [
    (4, 1135, 3885), (5, 2543, 10416), (7, 8893, 48336), (8, 14747, 90009)])
def test_radius_two_past_q3(q, vertices, chambers):
    # counts pinned from the earlier build code, run with its q <= 3 cap
    # lifted (q = 4, 5), and from the closed forms below (q = 7, 8)
    ball = build_ball(identity_matrix(q), 2)
    assert (ball.vertex_count, len(ball.chambers)) == (vertices, chambers)
    m = q * q + q + 1
    # the center, 2m sphere-1 vertices, m(m-1) glued type-0 vertices and
    # q^2 more in each sphere-1 residue; m(q+1) chambers through the
    # center, (m-1)(q+1) more in each point residue and q^2(q+1) more in
    # each line residue
    assert vertices == 1 + 2 * m + m * (m - 1) + 2 * m * q * q
    assert chambers == m * (q + 1) * (1 + q + 2 * q * q)
    assert verify_ball(ball).ok
    H = extract_hjelmslev(ball, 2)
    # m q^2 points and lines, each point on q(q+1) lines
    assert len(H.points) == len(H.lines) == m * q * q
    assert len(H.incidence) == m * q ** 3 * (q + 1)
    assert H == oracles.hjelmslev_level2(ball)


def _disguised(M, rng):
    """M with every column moved by its own random affine map x -> ax + b
    and its own row order: still three perfect difference sets."""
    m = M.columns[0].modulus
    cols = []
    for col in M.columns:
        a = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
        b = rng.randrange(m)
        entries = [(a * d + b) % m for d in col.entries]
        rng.shuffle(entries)
        cols.append(entries)
    return DifferenceMatrix.make(M.q, cols)


def _same_as_reference(M, radius):
    got, want = build_ball(M, radius), oracles.build_ball(M, radius)
    # types, dists and chambers
    assert got == want.ball
    # what the library reads off the ball, against the reference's own
    assert got.edges == want.edges
    assert got.center == want.center
    assert got.radius == want.radius == radius


def test_build_matches_name_union_find_reference():
    rng = random.Random(2017)
    for q in (2, 3, 4, 5, 7):
        for M in (identity_matrix(q), _disguised(identity_matrix(q), rng)):
            for radius in (1, 2):
                _same_as_reference(M, radius)
    for Mn in rng.sample(list(enumerate_normalized(3)), 40):
        _same_as_reference(Mn.decode(), 2)


def test_ball_record_stores_five_fields():
    assert [f.name for f in dataclasses.fields(BallComplex)] == [
        "q", "matrix", "types", "dists", "chambers"]
    ball = build_ball(identity_matrix(2), 1)
    stored = {f.name: getattr(ball, f.name)
              for f in dataclasses.fields(BallComplex)}
    for derived in ({"edges": ball.edges}, {"center": 0},
                    {"center_type": 0}, {"radius": 1}):
        with pytest.raises(TypeError):
            BallComplex(**stored, **derived)


def test_replaced_fields_rederive_edges_center_and_radius():
    ball = build_ball(identity_matrix(2), 1)
    assert (len(ball.edges), ball.center, ball.radius) == (35, 0, 1)
    # the chambers off point vertex 1, and vertex 1 made the center
    chambers = tuple(ch for ch in ball.chambers if 1 not in ch[:3])
    dists = (1, 0) + ball.dists[2:]
    moved = dataclasses.replace(ball, chambers=chambers, dists=dists)
    assert moved.edges == tuple(sorted(
        {tuple(sorted(pair)) for ch in chambers
         for pair in itertools.combinations(ch[:3], 2)}))
    # less the panel (0, 1) and the panels of 1 with its three lines
    assert len(moved.edges) == 35 - 1 - 3
    assert (moved.center, moved.radius) == (1, 1)
    assert ball.edges != moved.edges and ball.center == 0


def test_column_one_differences_must_cover_the_residues():
    # bypasses the difference-set check that DifferenceVector makes, to
    # reach the build's own guard: 0, 1, 2 has the difference 1 twice
    M = DifferenceMatrix.make(2, [(0, 1, 3)] * 3)
    object.__setattr__(M.columns[1], "entries", (0, 1, 2))
    with pytest.raises(GluingError, match="miss a nonzero residue mod 7"):
        build_ball(M, 2)


def test_radius_two_q2_census(q2_ball_r2):
    ball = q2_ball_r2
    assert ball.vertex_count == 113
    assert len(ball.chambers) == 231
    census = Counter(zip(ball.dists, ball.types))
    assert census == {(0, 0): 1, (1, 1): 7, (1, 2): 7,
                      (2, 0): 42, (2, 1): 28, (2, 2): 28}


def test_radius_two_q2_verifies(q2_ball_r2):
    report = verify_ball(q2_ball_r2)
    assert report.ok
    assert all(good for _, good in report.residue_status)
    assert len(report.residue_status) == 15


def test_radius_two_q3_verifies(q3_ball_r2):
    ball = q3_ball_r2
    assert ball.vertex_count == 417
    assert len(ball.chambers) == 1144
    report = verify_ball(ball)
    assert report.ok


def test_interior_panels_carry_each_label_once(q2_ball_r2):
    ball = q2_ball_r2
    labels = {}
    for a, b, c, k in ball.chambers:
        for e in ((a, b), (a, c), (b, c)):
            labels.setdefault(tuple(sorted(e)), []).append(k)
    for e in ball.edges:
        if min(ball.dists[e[0]], ball.dists[e[1]]) < 2:
            assert sorted(labels[e]) == [0, 1, 2]
        else:
            assert len(labels[e]) >= 1


def test_corrupted_chamber_is_reported(q2_ball_r2):
    ball = q2_ball_r2
    chambers = list(ball.chambers)
    a, b, c, k = chambers[0]
    chambers[0] = (a, b, c, (k + 1) % 3)
    broken = dataclasses.replace(ball, chambers=tuple(chambers))
    report = verify_ball(broken)
    assert not report.ok
    assert any("carries labels" in f for f in report.failures)


def test_corrupted_glued_chamber_is_reported(q2_ball_r2):
    # a chamber (glued type-0 vertex, sphere-1 point, sphere-1 line) lies
    # in the residues of both sphere-1 vertices: a wrong label there shows
    # on its three panels and in both residues
    ball = q2_ball_r2
    chambers = list(ball.chambers)
    i = next(i for i, (a, b, c, _) in enumerate(chambers)
             if (ball.dists[a], ball.dists[b], ball.dists[c]) == (2, 1, 1))
    a, b, c, k = chambers[i]
    assert (i, (a, b, c)) == (21, (15, 1, 8))
    chambers[i] = (a, b, c, (k + 1) % 3)
    report = verify_ball(dataclasses.replace(ball, chambers=tuple(chambers)))
    assert {x for x, good in report.residue_status if not good} == {b, c}
    assert report.failures == (
        _thin((1, 8), [0, 2, 2]), _thin((1, 15), [0, 2, 2]),
        _thin((8, 15), [0, 2, 2]), *_BAD_RESIDUES_1_8)


def _thin(panel, labels):
    return (f"interior panel {panel} carries labels {labels} instead of "
            f"one chamber per label")


_BAD_RESIDUES_1_8 = (
    "residue of vertex 1 is not the labelled plane of column 1",
    "residue of vertex 8 is not the labelled plane of column 2")


def _glued_chamber_replaced(ball, *replacement):
    # the chambers with chamber 21, (15, 1, 8, 1), the first glued one,
    # replaced; the pinned failure lists fix the order in which
    # verify_ball reports typing, panels and residues
    chambers = list(ball.chambers)
    assert chambers[21] == (15, 1, 8, 1)
    chambers[21:22] = replacement
    return verify_ball(dataclasses.replace(ball, chambers=tuple(chambers)))


def test_dropped_chamber_is_reported(q2_ball_r2):
    report = _glued_chamber_replaced(q2_ball_r2)
    assert report.failures == (
        _thin((1, 8), [0, 2]), _thin((1, 15), [0, 2]),
        _thin((8, 15), [0, 2]), *_BAD_RESIDUES_1_8)


def test_chamber_with_a_repeated_vertex_is_reported(q2_ball_r2):
    # point 1 in slots 1 and 2: the chamber lies once in the residue of
    # point 1 and not in that of line 8, and its panel (1, 15) carries
    # its label twice
    report = _glued_chamber_replaced(q2_ball_r2, (15, 1, 1, 1))
    assert report.failures == (
        "chamber (15, 1, 1, 1) lacks one vertex of each type",
        _thin((1, 1), [1]), _thin((1, 8), [0, 2]),
        _thin((1, 15), [0, 1, 1, 2]), _thin((8, 15), [0, 2]),
        *_BAD_RESIDUES_1_8)


def test_singer_shift_extends_to_radius_one_ball():
    ball = build_ball(identity_matrix(2), 1)
    m = 7

    def shift(v):
        if v == ball.center:
            return v
        if 1 <= v <= m:
            return 1 + (v - 1 + 1) % m
        return 1 + m + (v - 1 - m + 1) % m

    mapped = {(shift(a), shift(b), shift(c), k)
              for a, b, c, k in ball.chambers}
    assert mapped == set(ball.chambers)


def test_row_permuted_matrix_rebuilds_same_complex():
    # permuting the rows of all three columns together only permutes
    # the chamber labels; the glued complex is otherwise unchanged
    M = identity_matrix(3)
    sigma = (2, 0, 3, 1)
    permuted = DifferenceMatrix(3, tuple(
        DifferenceVector(3, col.modulus,
                         tuple(col.entries[i] for i in sigma))
        for col in M.columns))
    a = build_ball(M, 2)
    b = build_ball(permuted, 2)
    assert a.types == b.types
    assert a.dists == b.dists
    assert a.edges == b.edges
    inv = inverse(sigma)
    assert set(b.chambers) == {(x, y, z, inv[k]) for x, y, z, k in a.chambers}


def test_level_one_is_the_center_residue(q2_ball_r2):
    H1 = extract_hjelmslev(q2_ball_r2, 1)
    assert len(H1.points) == 7
    assert len(H1.lines) == 7
    line_pts = incidence_lists(DifferenceVector.make(2, (0, 1, 3)))[0]
    m = 7
    for (pv,), (lv,) in itertools.product(H1.points, H1.lines):
        p, l = pv - 1, lv - 1 - m
        assert (((pv,), (lv,)) in H1.incidence) == (p in line_pts[l])


def test_level_two_counts_and_fibers(q2_ball_r2):
    H = extract_hjelmslev(q2_ball_r2, 2)
    assert len(H.points) == 28
    assert len(H.lines) == 28
    fibers = Counter(p[0] for p in H.points)
    assert sorted(fibers.values()) == [4] * 7
    assert Counter(P for P, _ in H.incidence) == Counter(
        dict.fromkeys(H.points, 6))
    assert Counter(L for _, L in H.incidence) == Counter(
        dict.fromkeys(H.lines, 6))


def test_level_two_projection_sends_flags_to_flags(q2_ball_r2, q3_ball_r2):
    # onto the level-1 flags, which the level-2 summary reads this way
    for ball in (q2_ball_r2, q3_ball_r2):
        H1 = extract_hjelmslev(ball, 1)
        H2 = extract_hjelmslev(ball, 2)
        assert {(P[:1], L[:1]) for P, L in H2.incidence} == H1.incidence


def test_level_two_common_line_counts(q2_ball_r2):
    H = extract_hjelmslev(q2_ball_r2, 2)
    lines_through = {P: set() for P in H.points}
    for P, L in H.incidence:
        lines_through[P].add(L)
    for P, Q in itertools.combinations(H.points, 2):
        common = len(lines_through[P] & lines_through[Q])
        if P[0] == Q[0]:
            assert common == 2
        else:
            assert common == 1


def test_level_two_matches_the_three_pass_reference():
    rng = random.Random(1989)
    for Mn in rng.sample(list(enumerate_normalized(3)), 12):
        ball = build_ball(Mn.decode(), 2)
        back = complex_from_text(complex_to_text(ball))
        for b in (ball, back):
            assert extract_hjelmslev(b, 2) == oracles.hjelmslev_level2(b)


def test_two_residue_lines_through_two_points_raise(q2_ball_r2):
    # two lines z1, z2 of the residue of the sphere-1 point p1 meet in
    # one point; one more chamber (z2, p1, u) with u on z1 alone gives
    # them a second one
    ball = q2_ball_r2
    p1 = next(v for v in range(ball.vertex_count)
              if ball.dists[v] == 1 and ball.types[v] == 1)
    on = {}
    for z, p, u, _ in ball.chambers:
        if p == p1 and z != ball.center:
            on.setdefault(z, set()).add(u)
    z1, z2 = sorted(on)[:2]
    u = min(on[z1] - on[z2])
    bad = dataclasses.replace(ball, chambers=ball.chambers + ((z2, p1, u, 0),))
    for extract in (lambda b: extract_hjelmslev(b, 2),
                    oracles.hjelmslev_level2):
        with pytest.raises(AssertionError, match="span two lines"):
            extract(bad)


def test_extraction_needs_radius():
    b1 = build_ball(identity_matrix(2), 1)
    with pytest.raises(InvalidInput):
        extract_hjelmslev(b1, 2)
    with pytest.raises(InvalidInput):
        extract_hjelmslev(b1, 3)


def test_label_preserving_maps_are_the_cyclic_shifts(q2_ball_r2):
    H = extract_hjelmslev(q2_ball_r2, 2)
    tables = ball_module._h2_tables(H)
    maps = ball_module._h2_singer_maps(q2_ball_r2, H, tables)
    assert len(maps) == 7
    npts = 28
    # the identity is the one shift that keeps every point in its fiber
    fixes_fibers = [pmap for pmap, _ in maps
                    if all(H.points[v][0] == p[0]
                           for v, p in zip(pmap, H.points))]
    assert fixes_fibers == [tuple(range(npts))]
    assert (tuple(range(npts)), tuple(range(npts))) in maps
    for pmap, _ in maps:
        if pmap == tuple(range(npts)):
            continue
        assert all(pmap[i] != i for i in range(npts))


def test_singer_shifts_follow_the_vertex_names():
    # the shifts read off build_ball's numbering are the ones its vertex
    # names give, map for map, on every q = 2 class and 40 at q = 3
    rng = random.Random(43)
    matrices = [Mn.decode() for Mn in enumerate_normalized(2)]
    matrices += [Mn.decode()
                 for Mn in rng.sample(list(enumerate_normalized(3)), 40)]
    assert len(matrices) == 76
    for M in matrices:
        ball = build_ball(M, 2)
        H = extract_hjelmslev(ball, 2)
        tables = ball_module._h2_tables(H)
        names = oracles.build_ball(M, 2).names
        assert ball_module._h2_singer_maps(ball, H, tables) == \
            oracles.singer_maps_by_name(names, H, tables)


def test_label_preserving_summary(q2_ball_r2):
    summary = h2_collineations_fixing_center(q2_ball_r2, labels_only=True)
    assert summary.order == 7
    assert summary.base_image_order == 7
    assert summary.fiber_kernel_order == 1
    assert summary.elation_count == 0


def test_level_two_plane_built_once_per_group_call(monkeypatch, q2_ball_r2):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name, args[1:]] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ball_module, "extract_hjelmslev", counted(
        "extract_hjelmslev", ball_module.extract_hjelmslev))
    monkeypatch.setattr(ball_module, "_h2_tables", counted(
        "_h2_tables", ball_module._h2_tables))
    summary = h2_collineations_fixing_center(q2_ball_r2, labels_only=True)
    assert summary.order == 7
    assert calls[("extract_hjelmslev", (2,))] == 1
    assert calls[("_h2_tables", ())] == 1


def test_full_collineation_group(h2_full_summary):
    summary, _ = h2_full_summary
    assert summary.order == 43008
    assert summary.base_image_order == 168
    assert summary.fiber_kernel_order == 256
    assert summary.order == summary.base_image_order * summary.fiber_kernel_order


def test_full_group_elation_laws(h2_full_summary):
    summary, _ = h2_full_summary
    assert summary.elation_count == 357
    assert summary.neighbor_fixing_ok
    assert summary.free_action_ok


@pytest.fixture(scope="module")
def h2_listing(h2_full_group):
    # the oracle listing of the whole group of the q = 2 identity ball,
    # every lift after every kernel element, sorted
    (kernel, lifts, _, _), _, _ = h2_full_group
    return oracles.h2_group_listing(kernel, lifts)


def test_full_group_bytes_are_pinned(h2_listing):
    # the sorted map list of the q = 2 identity ball, as the fiber-wise
    # permutation search produced it before the kernel cosets
    maps = h2_listing
    assert len(maps) == 43008
    assert hashlib.sha256(repr(maps).encode()).hexdigest() == (
        "e0342f9e498e238e6e13dcc18b316c830b3bd6d31214bda62fdf7738a0783caa")


def test_summary_matches_the_walk_over_the_listing(
        q2_ball_r2, h2_full_group, h2_listing):
    # the summary from the kernel, the lifts and the flag-wise elation
    # searches equals the old walk over all 43,008 maps
    (_, _, H, tables), summary, _ = h2_full_group
    assert summary == oracles.h2_summary_of_listing(
        q2_ball_r2, h2_listing, H, tables)


def test_full_group_summary_lists_no_group(q2_ball_r2):
    # the summary never lists the group: the 43,008 maps and a walk over
    # them take about 28 MB (tracemalloc), the kernel, the lifts and the
    # elations under 1 MB
    tracemalloc.start()
    try:
        summary = h2_collineations_fixing_center(q2_ball_r2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.order == 43008
    assert peak < 4_000_000


def test_lifts_are_kernel_cosets(q2_ball_r2):
    # every lift of a base collineation is one lift after the kernel
    H = extract_hjelmslev(q2_ball_r2, 2)
    tables = ball_module._h2_tables(H)
    oracle_tables = ({p: i for i, p in enumerate(H.points)},
                     {l: i for i, l in enumerate(H.lines)}, tables.pt_lines,
                     tables.engine[2], tables.pt_fibers, tables.ln_fibers)
    fixed = {f: f for f in tables.pt_fibers}
    kernel = list(oracles.h2_lift_search(H, tables, fixed))
    assert len(kernel) == 256
    bases = oracles.all_collineations(canonical_plane(2))
    assert bases[0] == (tuple(range(7)), tuple(range(7)))
    for pmap, lmap in (bases[0], bases[1], bases[-1]):
        base_pt = {1 + p: 1 + v for p, v in enumerate(pmap)}
        base_ln = {8 + l: 8 + y for l, y in enumerate(lmap)}
        lp, ll = next(oracles.h2_lift_search(H, tables, base_pt))
        cosets = sorted((compose(lp, kp), compose(ll, kl)) for kp, kl in kernel)
        assert oracles.h2_lifts(H, base_pt, base_ln, oracle_tables) == cosets


def test_level_two_quadrangle_lies_over_a_quadrangle(q2_ball_r2, q3_ball_r2):
    # the engine branches on its tables' quadrangle first; in a level-2
    # plane that must be four points over a quadrangle of the plane below
    for ball in (q2_ball_r2, q3_ball_r2):
        H = extract_hjelmslev(ball, 2)
        quad = ball_module._h2_tables(H).engine[5]
        pt_lines = incidence_lists(canonical_plane(ball.q))[1]
        # residue points sit at vertex id 1 + plane point
        below = [H.points[i][0] - 1 for i in quad]
        assert len(set(below)) == 4
        for trio in itertools.combinations(below, 3):
            assert not set.intersection(*(set(pt_lines[p]) for p in trio))


def test_full_group_on_every_q2_class():
    classes = classify(2)
    assert len(classes) == 4
    for cls in classes:
        ball = build_ball(cls.representative.decode(), 2)
        assert h2_collineations_fixing_center(ball) == H2GroupSummary(
            43008, 168, 256, 357, True, True), cls.representative


def test_level_two_maps_are_checked(q2_ball_r2):
    H = extract_hjelmslev(q2_ball_r2, 2)
    tables = ball_module._h2_tables(H)
    ident = tuple(range(28))
    _check_map(tables.engine, ident, ident)
    swapped = (1, 0, *ident[2:])
    with pytest.raises(AssertionError, match="lines through point 0"):
        _check_map(tables.engine, swapped, ident)


def _fiber_domains(H, tables):
    return [frozenset(tables.pt_fibers[p[0]]) for p in H.points]


def test_stabilizer_chain_orders_past_the_cap(q3_ball_r2):
    # the q = 3 level-2 group and its fiber kernel, which the summary
    # does not reach while H2_GROUP_Q_CAP is 2
    H = extract_hjelmslev(q3_ball_r2, 2)
    tables = ball_module._h2_tables(H)
    orbits = _chain_orbits(tables.engine)
    kernel = _chain_orbits(tables.engine, _fiber_domains(H, tables))
    assert (orbits, kernel) == ([117, 8, 81, 54, 18], [9, 2, 9, 9, 9])
    assert (math.prod(orbits), math.prod(kernel)) == (73693152, 13122)


def test_stabilizer_chain_orbits_q2(q2_ball_r2):
    # a map fixing the earlier base points keeps their unique joins to
    # the base point, so skipping the images that differ there must
    # leave every orbit of the full search
    H = extract_hjelmslev(q2_ball_r2, 2)
    tables = ball_module._h2_tables(H)
    assert _chain_orbits(tables.engine) == [28, 24, 16, 4]
    assert _chain_orbits(tables.engine,
                         _fiber_domains(H, tables)) == [4, 4, 4, 4]


def test_fiber_kernel_of_a_non_classical_class():
    e = (0, 1, 2, 3)
    M = NormalizedMatrix(3, canonical_difference_set(3), e, (0, 1, 3, 2))
    H = extract_hjelmslev(build_ball(M.decode(), 2), 2)
    tables = ball_module._h2_tables(H)
    assert math.prod(_chain_orbits(tables.engine,
                                   _fiber_domains(H, tables))) == 3


def test_elation_laws_fail_on_maps_that_break_them(q2_ball_r2):
    H = extract_hjelmslev(q2_ball_r2, 2)
    tables = ball_module._h2_tables(H)
    h1_flags = {(H.points[i][0], H.lines[j][0])
                for i, lines in enumerate(tables.pt_lines) for j in lines}
    center = 0
    center_lines = tables.pt_lines[center]
    axis = min(center_lines)
    axis_pts = tables.engine[2][axis]

    def laws(pmap, lmap):
        return ball_module._h2_elation_laws(
            H, tables, h1_flags, center, axis, pmap, lmap)

    ident = tuple(range(28))
    search = _Search(tables.engine)
    assert search.seed({p: p for p in axis_pts}, {y: y for y in center_lines})
    pmap, lmap = next(g for g in search.run() if g[0] != ident)
    assert laws(pmap, lmap) == (True, True)

    # fixes every point of the axis and every line through the center,
    # but swaps the two points of the center's fiber off the axis
    a, b = [i for i in tables.pt_fibers[H.points[center][0]]
            if i not in axis_pts]
    swapped = list(ident)
    swapped[a], swapped[b] = b, a
    assert laws(tuple(swapped), ident)[0] is False

    # the elation, made to fix one point of a line through the center
    # that is not near the axis
    af = H.lines[axis][0]
    far = next(p for y in sorted(center_lines)
               for p in sorted(tables.engine[2][y])
               if (H.points[p][0], af) not in h1_flags)
    broken = list(pmap)
    broken[pmap.index(far)], broken[far] = pmap[far], far
    assert laws(tuple(broken), lmap) == (True, False)


def test_h2_search_cap(q3_ball_r2):
    with pytest.raises(CapExceeded):
        h2_collineations_fixing_center(q3_ball_r2, labels_only=True)


def test_complex_text_round_trip_markers():
    ball = build_ball(identity_matrix(2), 1)
    text = complex_to_text(ball)
    lines = text.splitlines()
    assert lines[0] == "vertex 0 type=0 dist=0"
    assert len(lines) == 15 + 35 + 21
    assert "chamber 0 1 8 label=0" in lines
    assert "chamber 0 4 8 label=2" in lines
    assert text.endswith("\n")


def test_complex_text_round_trips(q2_ball_r2):
    text = complex_to_text(q2_ball_r2)
    parsed = complex_from_text(text)
    assert complex_to_text(parsed) == text
    assert parsed.q == 2 and parsed.radius == 2 and parsed.center == 0
    assert parsed.types == q2_ball_r2.types
    assert parsed.edges == q2_ball_r2.edges
    assert parsed.chambers == q2_ball_r2.chambers


def test_complex_parser_rejects_garbage():
    with pytest.raises(InvalidInput):
        complex_from_text("vertex 0 type=0 dist=0\n")
    with pytest.raises(InvalidInput):
        complex_from_text("vertex 0 type=0 dist=0\nedge 0 5\n"
                          "chamber 0 0 0 label=0\n")
    with pytest.raises(InvalidInput):
        complex_from_text("vortex 0\n")


def test_complex_parser_rejects_chamber_outside_vertex_list():
    text = complex_to_text(build_ball(identity_matrix(2), 1))
    lines = text.splitlines()
    row = lines.index("chamber 0 1 8 label=0")
    lines[row] = "chamber 0 999 8 label=0"
    with pytest.raises(InvalidInput,
                       match=f"line {row + 1}: chamber vertex 999 "
                             f"outside 0..14"):
        complex_from_text("\n".join(lines) + "\n")


def test_parsed_export_is_refused_where_the_matrix_is_needed(q2_ball_r2):
    parsed = complex_from_text(complex_to_text(q2_ball_r2))
    with pytest.raises(InvalidInput, match="residue check needs the source"):
        verify_ball(parsed)
    with pytest.raises(InvalidInput, match="needs the source matrix"):
        h2_collineations_fixing_center(parsed, labels_only=True)


# (q, alpha1, alpha2) -> sha256 of complex_to_text, of repr(verify_ball)
# and of repr((points, lines, sorted incidence)) of the level-2 plane,
# all taken before the chamber index: the identity balls at q = 2, 3 and
# eight seeded q = 3 matrices
BALL_R2_SHA256 = {
    (2, (0, 1, 2), (0, 1, 2)): (
        "3f24b401109358c656c4d91d26fa91f65aad39624f2a1df1da468e014431e662",
        "4910777cbb27935320ee9f4af6d855e567bcc1f2cfbe6d9882d08dc1dbc07c84",
        "3b774251d9e70cbc0b9c3c3eaa8b5ffd16e54dd22a4709bc376c37b94b872a5e"),
    (3, (0, 1, 2, 3), (0, 1, 2, 3)): (
        "26f22568cfb5aa8c73ca034eea7b3ad5531b9cb85385b6433db13eb59992f9eb",
        "987609a1fbabacbfcacaa2d47b02796f5b0fcf67eabfdbeaa667177248c0f082",
        "9ba3cb5aa9b3b390525397dcf1d2e2c9d5b8b2a08179b4a0102c330b366d2368"),
    (3, (1, 3, 0, 2), (0, 3, 1, 2)): (
        "56de025527bd0dfea9b96951ab5b3096be781d771bc9e6ccf0c0771c13f7d95d",
        "987609a1fbabacbfcacaa2d47b02796f5b0fcf67eabfdbeaa667177248c0f082",
        "f18bc65b5668aa3e23638a576df264907655c8621359be85d6d445724256dd2f"),
    (3, (2, 0, 1, 3), (3, 1, 0, 2)): (
        "f924e86cf234ff752b3dc4c8c8200fdbc0c36eb9b45aafda211f203df84eeae1",
        "987609a1fbabacbfcacaa2d47b02796f5b0fcf67eabfdbeaa667177248c0f082",
        "ef9a769ef03987e60bf556c2e6a2605db30e0f355aa3b5363c420805cea55598"),
    (3, (0, 1, 3, 2), (0, 2, 1, 3)): (
        "4746884a3b7d0dfb42d195c2cf1ace5d6343dc219141184744c72ff694068c89",
        "987609a1fbabacbfcacaa2d47b02796f5b0fcf67eabfdbeaa667177248c0f082",
        "54a768c2d427e243c8c74f4874f08e6969875ce7a0e2c8a0d3dac1253b36d62d"),
    (3, (2, 3, 1, 0), (0, 2, 3, 1)): (
        "e6cdc6b9480bd9b59f0793058f70f27d1dc0fb407135b25c1efcd7be35077e8f",
        "987609a1fbabacbfcacaa2d47b02796f5b0fcf67eabfdbeaa667177248c0f082",
        "8a6a6703299ce901afa1c1f82baf4086f30214fd147153ebc2bd70c6a8e53b58"),
    (3, (1, 3, 2, 0), (3, 0, 1, 2)): (
        "118563f3910381ed55ecfa34566da773de2ce6dedea04ea07629f46309e052ed",
        "987609a1fbabacbfcacaa2d47b02796f5b0fcf67eabfdbeaa667177248c0f082",
        "cdd33fe995437bc1e9cdb84cb801b1b18cc0d759ab78e13d077fd490859d10b2"),
    (3, (0, 1, 3, 2), (2, 3, 0, 1)): (
        "2044d3119860b8a68a10bd4c6d24d069bddc8cfe8a5bc19ff450c03a690ffeb1",
        "987609a1fbabacbfcacaa2d47b02796f5b0fcf67eabfdbeaa667177248c0f082",
        "6ab01b0c63733b5a6a4daad469ad30d300d411c6abc297d935d3fef03dd288a7"),
    (3, (1, 0, 2, 3), (0, 1, 3, 2)): (
        "97767474f5f32907b7f88eadd8bb021fcec15073c2fbb24048f2a3bdb8ccd70d",
        "987609a1fbabacbfcacaa2d47b02796f5b0fcf67eabfdbeaa667177248c0f082",
        "442178fb263e5e9d1056f92dc2adf628ba14eb1b549c77857a48bd305c57777c"),
    (3, (0, 2, 1, 3), (2, 0, 3, 1)): (
        "d481679b5d79c552f49ac9459d0c3c20ce6065eee7760a1088539c063f08b476",
        "987609a1fbabacbfcacaa2d47b02796f5b0fcf67eabfdbeaa667177248c0f082",
        "60b71e4c56c559c040e1f5e631b5e1bdfe2591263be2f9295fd8e18365fcd25c"),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(BALL_R2_SHA256))
def test_radius_two_outputs_are_pinned(key):
    q, a1, a2 = key
    M = NormalizedMatrix(q, canonical_difference_set(q), a1, a2).decode()
    ball = build_ball(M, 2)
    H = extract_hjelmslev(ball, 2)
    got = (_sha256(complex_to_text(ball)), _sha256(repr(verify_ball(ball))),
           _sha256(repr((H.points, H.lines, sorted(H.incidence)))))
    assert got == BALL_R2_SHA256[key]


def test_ball_digest_slice():
    # 62 of the 617 balls of tests/ball_digest.py, whose full run takes
    # about 25 s: export, report, chamber index, level-1 and
    # level-2 planes and the parsed export, at radius 2 for every q = 2
    # matrix and the first 24 at q = 3, and at radius 1 for q = 4, 5
    balls = [(Mn.decode(), 2) for Mn in enumerate_normalized(2)]
    balls += [(Mn.decode(), 2)
              for Mn in itertools.islice(enumerate_normalized(3), 24)]
    balls += [(identity_matrix(q), 1) for q in (4, 5)]
    assert len(balls) == 62
    assert ball_digest.digest_of(balls) == (
        "c4e1a1bc9b3dca3de79a8009b9f9ec2d66b312ae9db479387ad4f8ee6f68c2e0")


def _parsed(parse, text):
    try:
        return "ball", parse(text)
    except InvalidInput as e:
        return "raises", str(e)


def _exports(q2_ball_r2):
    texts = [complex_to_text(build_ball(identity_matrix(q), 1))
             for q in (2, 3, 4, 5, 7, 8, 9)]
    texts.append(complex_to_text(q2_ball_r2))
    M = NormalizedMatrix(3, canonical_difference_set(3),
                         (1, 3, 0, 2), (0, 3, 1, 2)).decode()
    texts.append(complex_to_text(build_ball(M, 2)))
    return texts


def test_complex_parser_matches_per_line_reference_on_exports(q2_ball_r2):
    for text in _exports(q2_ball_r2):
        got = complex_from_text(text)
        assert got == oracles.complex_from_text(text)
        assert complex_to_text(got) == text


def _mutations(lines):
    """(what, text) pairs made from the lines of a valid export."""
    first_edge = next(i for i, l in enumerate(lines) if l.startswith("edge"))
    first_chamber = lines.index("chamber 0 1 8 label=0")
    text = "\n".join(lines) + "\n"

    def at(i, row):
        return "\n".join(lines[:i] + [row] + lines[i + 1:]) + "\n"

    def insert(i, row):
        return "\n".join(lines[:i] + [row] + lines[i:]) + "\n"

    def swapped(i):
        # rows i and i + 1 trade places
        return "\n".join(lines[:i] + lines[i + 1:i + 2] + lines[i:i + 1]
                         + lines[i + 2:]) + "\n"

    return [
        ("keyword", at(0, "vortex 0 type=0 dist=0")),
        ("keyword case", at(3, "Vertex 3 type=1 dist=1")),
        ("keyword plural", at(first_chamber, "chambers 0 1 8 label=0")),
        ("missing vertex field", at(2, "vertex 2 type=1")),
        ("missing edge field", at(first_edge, "edge 0")),
        ("missing label", at(first_chamber, "chamber 0 1 8")),
        ("extra field", at(first_edge, "edge 0 1 2")),
        ("id out of order", at(2, "vertex 3 type=1 dist=1")),
        ("ids swapped", "\n".join([lines[0], lines[2], lines[1]]
                                  + lines[3:]) + "\n"),
        ("edge out of range", at(first_edge, "edge 0 99")),
        ("negative edge id", at(first_edge, "edge -1 1")),
        ("chamber out of range", at(first_chamber, "chamber 0 999 8 label=0")),
        ("crlf endings", text.replace("\n", "\r\n")),
        ("lone cr endings", text.replace("\n", "\r")),
        ("unicode line separator", text.replace("\n", "\u2028")),
        ("no final newline", text[:-1]),
        ("blank line", insert(first_edge, "")),
        ("blank last line", text + "\n"),
        ("whitespace line", insert(first_edge, "   ")),
        ("trailing space", at(first_edge, lines[first_edge] + " ")),
        ("leading space", at(0, " " + lines[0])),
        ("tab separator", at(first_edge, lines[first_edge].replace(" ", "\t"))),
        ("vertical tab inside a row",
         at(first_edge, lines[first_edge].replace(" ", "\x0b", 1))),
        ("arabic-indic digit",
         at(first_chamber, "chamber 0 1 \u0668 label=0")),
        ("fullwidth digits", at(2, "vertex \uff12 type=1 dist=1")),
        ("leading zeros", at(first_chamber, "chamber 00 01 8 label=000")),
        ("vertex row moved last", "\n".join(lines[1:] + lines[:1]) + "\n"),
        ("last vertex moved to the end",
         "\n".join(lines[:14] + lines[15:] + lines[14:15]) + "\n"),
        ("vertex row after an edge row", swapped(first_edge - 1)),
        ("edge row after a chamber row", swapped(first_chamber - 1)),
        ("two centers", at(1, "vertex 1 type=1 dist=0")),
        ("no center", at(0, "vertex 0 type=0 dist=1")),
        # dists that are not the graph distance from the center
        ("dist past the graph distance", at(1, "vertex 1 type=1 dist=2")),
        ("center moved to a point",
         "\n".join(["vertex 0 type=0 dist=1", "vertex 1 type=1 dist=0"]
                   + lines[2:]) + "\n"),
        # a point typed as a line: its chambers' slots do not read 0 1 2
        ("vertex retyped", at(1, "vertex 1 type=2 dist=1")),
        ("no chambers", "\n".join(lines[:first_chamber]) + "\n"),
        ("no vertex rows", "\n".join(lines[first_edge:]) + "\n"),
        # the vertex rows come first, so first_edge is their count
        ("edge endpoint equal to the vertex count",
         at(first_edge, f"edge 0 {first_edge}")),
        ("label past the vertex count",
         at(first_chamber, "chamber 0 1 8 label=500")),
        ("vertex id with a leading zero", at(1, "vertex 01 type=1 dist=1")),
        ("unicode digit in a type", at(2, "vertex 2 type=\u0661 dist=1")),
        ("unicode digit in a dist", at(2, "vertex 2 type=1 dist=\u0661")),
        ("dist past the vertex count", at(2, "vertex 2 type=1 dist=500")),
        ("type 3", at(2, "vertex 2 type=3 dist=1")),
        ("duplicate chamber", insert(first_chamber, lines[first_chamber])),
        # edge rows that are not the sorted panels of the chambers
        ("edge row dropped", "\n".join(lines[:20] + lines[21:]) + "\n"),
        ("last edge row dropped", "\n".join(lines[:first_chamber - 1]
                                            + lines[first_chamber:]) + "\n"),
        ("edge 0 0 inserted", insert(first_edge, "edge 0 0")),
        ("edge rows swapped", swapped(20)),
        ("edge row repeated", insert(20, lines[20])),
        ("edge row reversed", at(20, "edge 6 0")),
        # the last edge row, edge 7 14, still sorts last reversed
        ("last edge row reversed", at(first_chamber - 1, "edge 14 7")),
        ("last edge row repeated",
         insert(first_chamber, lines[first_chamber - 1])),
        ("empty text", ""),
        ("one newline", "\n"),
    ]


# the mutations on which the library and the per-line reference part,
# with the library's outcome.  The library reads only the layout that
# complex_to_text writes, with every value in range; the reference reads
# rows in any order, any Unicode digits and any value, and names no value
# in its range errors.  Lines 1..15 of that export are its vertex rows,
# 16..50 its edge rows and 51..71 its chamber rows
_INTENDED = {
    "edge out of range":
        ("raises", "line 16: edge endpoint 99 outside 0..14"),
    "chamber out of range":
        ("raises", "line 51: chamber vertex 999 outside 0..14"),
    "arabic-indic digit":
        ("raises", "line 51: unrecognized row 'chamber 0 1 \u0668 label=0'"),
    "fullwidth digits":
        ("raises", "line 3: unrecognized row 'vertex \uff12 type=1 dist=1'"),
    "leading zeros": ("raises", "line 51: chamber vertex 00 outside 0..14"),
    "last vertex moved to the end":
        ("raises", "line 71: row 'vertex 14 type=2 dist=1' out of the "
                   "vertex, edge, chamber order"),
    "vertex row after an edge row":
        ("raises", "line 16: row 'vertex 14 type=2 dist=1' out of the "
                   "vertex, edge, chamber order"),
    "edge row after a chamber row":
        ("raises", "line 51: row 'edge 7 14' out of the vertex, edge, "
                   "chamber order"),
    "no vertex rows":
        ("raises", "complex export must have exactly one center"),
    "edge endpoint equal to the vertex count":
        ("raises", "line 16: edge endpoint 15 outside 0..14"),
    "label past the vertex count":
        ("raises", "line 51: chamber label 500 outside 0..14"),
    "vertex id with a leading zero":
        ("raises", "line 2: vertex id 01 out of order"),
    "unicode digit in a type":
        ("raises", "line 3: unrecognized row 'vertex 2 type=\u0661 dist=1'"),
    "unicode digit in a dist":
        ("raises", "line 3: unrecognized row 'vertex 2 type=1 dist=\u0661'"),
    "dist past the vertex count":
        ("raises", "line 3: vertex dist 500 outside 0..14"),
    "type 3": ("raises", "line 3: vertex type 3 outside 0..2"),
}


def test_complex_parser_matches_per_line_reference_on_mutated_rows():
    lines = complex_to_text(build_ball(identity_matrix(2), 1)).splitlines()
    outcomes, differ = set(), set()
    for what, text in _mutations(lines):
        got = _parsed(complex_from_text, text)
        reference = _parsed(oracles.complex_from_text, text)
        if what in _INTENDED:
            assert got == _INTENDED[what] != reference, what
            differ.add(what)
        else:
            assert got == reference, what
        outcomes.add(got[0])
    assert differ == set(_INTENDED)
    assert outcomes == {"ball", "raises"}


# the mutations whose edge rows are not the sorted panels of their
# chambers: lines 16..50 of the export are its edge rows
_EDGE_ROW_FAULTS = {
    "edge row dropped":
        "line 21: edge 0 7 where the chamber panels give edge 0 6",
    "last edge row dropped":
        "line 50: no edge row where the chamber panels give edge 7 14",
    "edge 0 0 inserted":
        "line 16: edge 0 0 where the chamber panels give edge 0 1",
    "edge rows swapped":
        "line 21: edge 0 7 where the chamber panels give edge 0 6",
    "edge row repeated":
        "line 22: edge 0 6 where the chamber panels give edge 0 7",
    "edge row reversed":
        "line 21: edge 6 0 where the chamber panels give edge 0 6",
    "last edge row repeated": "line 51: edge 7 14 past the last chamber panel",
    "last edge row reversed":
        "line 50: edge 14 7 where the chamber panels give edge 7 14",
}


def test_complex_parser_refuses_edge_rows_off_the_chamber_panels():
    lines = complex_to_text(build_ball(identity_matrix(2), 1)).splitlines()
    mutations = dict(_mutations(lines))
    for what, message in _EDGE_ROW_FAULTS.items():
        assert _parsed(complex_from_text, mutations[what]) == (
            "raises", message), what


# the mutations whose dists are not the graph distance from the center.
# With vertex 1 at dist 2, the export would parse as a radius-2 ball with
# an empty level-2 plane; with the center on point 1, points 2..7 are two
# steps from it
_DIST_FAULTS = {
    "dist past the graph distance": "line 16: edge 0 1 joins dists 0 and 2",
    "center moved to a point":
        "line 3: vertex 2 at dist 1 has no neighbor at dist 0",
}


def test_complex_parser_refuses_dists_off_the_graph_distance():
    lines = complex_to_text(build_ball(identity_matrix(2), 1)).splitlines()
    mutations = dict(_mutations(lines))
    for what, message in _DIST_FAULTS.items():
        assert _parsed(complex_from_text, mutations[what]) == (
            "raises", message), what


def test_complex_parser_refuses_chambers_off_the_slot_types():
    # vertex 1, a point, retyped as a line: chamber 0 1 8 on line 51, the
    # first chamber row, then holds two lines.  A parsed export has no
    # matrix for verify_ball to check, so without this refusal level 1
    # would read 6 points, 8 lines and 18 flags
    lines = complex_to_text(build_ball(identity_matrix(2), 1)).splitlines()
    text = dict(_mutations(lines))["vertex retyped"]
    assert _parsed(complex_from_text, text) == (
        "raises", "line 51: chamber 0 1 8 has vertex types 0 2 2, not 0 1 2")


def test_complex_parser_refuses_a_chamber_with_a_repeated_vertex():
    # chamber 0 0 1 has panels (0, 0) and (0, 1), the second twice, which
    # its edge rows list; its slots hold types 0 0 1, not 0 1 2
    text = ("vertex 0 type=0 dist=0\nvertex 1 type=1 dist=1\nedge 0 0\n"
            "edge 0 1\nchamber 0 0 1 label=0\n")
    message = "line 5: chamber 0 0 1 has vertex types 0 0 1, not 0 1 2"
    for parse in (complex_from_text, oracles.complex_from_text):
        assert _parsed(parse, text) == ("raises", message), parse


def test_greedy_layout_pattern_matches_the_possessive_one():
    # Python 3.10 has no possessive repeats and compiles the layout with
    # greedy ones; both must read an export, and stop at a row out of
    # order, alike
    greedy = re.compile(ball_module._LAYOUT_RE.pattern.replace("*+", "*"))
    lines = complex_to_text(build_ball(identity_matrix(3), 2)).splitlines()
    first_edge = next(i for i, l in enumerate(lines) if l.startswith("edge"))
    moved = lines[:first_edge - 1] + lines[first_edge:first_edge + 1] \
        + lines[first_edge - 1:first_edge] + lines[first_edge + 1:]
    for rows in (lines, moved):
        body = "\n".join(rows) + "\n"
        want = ball_module._LAYOUT_RE.match(body)
        got = greedy.match(body)
        assert (got.groups(), got.end()) == (want.groups(), want.end())
    assert want.end() < len(body)


def test_complex_parser_rejects_vertex_type_outside_0_to_2():
    text = ("vertex 0 type=0 dist=0\nvertex 1 type=7 dist=1\nedge 0 0\n"
            "edge 0 1\nchamber 0 0 1 label=0\n")
    with pytest.raises(InvalidInput, match="line 2: vertex type 7 outside 0..2"):
        complex_from_text(text)
    # the per-line reference accepts the row, and refuses the chamber
    # that holds the vertex
    assert _parsed(oracles.complex_from_text, text) == (
        "raises", "line 5: chamber 0 0 1 has vertex types 0 0 7, not 0 1 2")


def _plane_flags(plane):
    m = plane.modulus
    return [(y, (y + d) % m, k) for y in range(m)
            for k, d in enumerate(plane.entries)]


def _flag_mutations(plane, rng):
    """(what, flags) pairs around the flags of plane."""
    m, q = plane.modulus, plane.q
    flags = _plane_flags(plane)
    out = [("plane", flags)]
    for _ in range(4):
        # the plane of the entries under a random label order, and under
        # a multiplier: the counts hold, and the propagation decides
        sigma = list(range(q + 1))
        rng.shuffle(sigma)
        out.append(("labels permuted", [(l, p, sigma[k]) for l, p, k in flags]))
        a = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
        out.append(("multiplied", _plane_flags(DifferenceVector(
            q, m, tuple(a * d % m for d in plane.entries)))))
        i, j = rng.sample(range(len(flags)), 2)
        swapped = list(flags)
        (l, p, k), (l2, p2, k2) = flags[i], flags[j]
        swapped[i], swapped[j] = (l, p, k2), (l2, p2, k)
        out.append(("swapped labels", swapped))
        moved = list(flags)
        moved[i] = (l, (p + rng.randrange(1, m)) % m, k)
        out.append(("moved flag", moved))
        u, v = rng.sample(range(m), 2)
        swap = {u: v, v: u}
        out.append(("two points renamed",
                    [(l, swap.get(p, p), k) for l, p, k in flags]))
        out.append(("two points renamed on one line",
                    [(l, swap.get(p, p) if l == flags[i][0] else p, k)
                     for l, p, k in flags]))
        dropped = list(flags)
        del dropped[i]
        out.append(("dropped flag", dropped))
        # the count holds in each of the three below, and a distinctness
        # check decides
        duplicated = list(flags)
        duplicated[j] = flags[i]
        out.append(("duplicated flag", duplicated))
        relabelled = list(flags)
        relabelled[i] = (l, p, (k + 1) % (q + 1))
        out.append(("repeated line label", relabelled))
        to_line = list(flags)
        to_line[i] = ((l + rng.randrange(1, m)) % m, p, k)
        out.append(("flag moved to another line", to_line))
    return out


def test_residue_test_matches_every_anchor_reference():
    rng = random.Random(1990)
    outcomes = set()
    for q in (2, 3, 4, 5):
        M = _disguised(identity_matrix(q), rng)
        for plane in M.columns:
            for what, flags in _flag_mutations(plane, rng):
                got = _labelled_plane_isomorphic(flags, plane)
                assert got == oracles.labelled_plane_isomorphic(flags, plane), (
                    q, what)
                outcomes.add((what, got))
    assert {("labels permuted", True), ("labels permuted", False),
            ("multiplied", True), ("two points renamed", True),
            ("dropped flag", False), ("duplicated flag", False),
            ("repeated line label", False),
            ("flag moved to another line", False)} <= outcomes
