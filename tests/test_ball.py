import dataclasses
import itertools
from collections import Counter

import pytest

from conftest import identity_matrix
from singerlat.ball import (
    build_ball, complex_from_text, complex_to_text, extract_hjelmslev,
    h2_collineations, h2_collineations_fixing_center, verify_ball,
)
from singerlat.diffsets import DifferenceMatrix, DifferenceVector
from singerlat.errors import CapExceeded, InvalidInput
from singerlat.permgrp import inverse
from singerlat.plane import LabelledPlane


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
    with pytest.raises(CapExceeded):
        build_ball(identity_matrix(4), 2)


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
    assert a.names == b.names
    assert a.types == b.types
    assert a.dists == b.dists
    assert a.edges == b.edges
    inv = inverse(sigma)
    assert set(b.chambers) == {(x, y, z, inv[k]) for x, y, z, k in a.chambers}


def test_level_one_is_the_center_residue(q2_ball_r2):
    H1 = extract_hjelmslev(q2_ball_r2, 1)
    assert len(H1.points) == 7
    assert len(H1.lines) == 7
    plane = LabelledPlane(2, 7, (0, 1, 3))
    m = 7
    for (pv,), (lv,) in itertools.product(H1.points, H1.lines):
        p, l = pv - 1, lv - 1 - m
        assert (((pv,), (lv,)) in H1.incidence) == plane.incident(l, p)


def test_level_two_counts_and_fibers(q2_ball_r2):
    H = extract_hjelmslev(q2_ball_r2, 2)
    assert len(H.points) == 28
    assert len(H.lines) == 28
    fibers = Counter(p[0] for p in H.points)
    assert sorted(fibers.values()) == [4] * 7
    for p in H.points:
        assert len(H.lines_through(p)) == 6
    for l in H.lines:
        assert len(H.points_on(l)) == 6


def test_level_two_projection_sends_flags_to_flags(q2_ball_r2):
    H1 = extract_hjelmslev(q2_ball_r2, 1)
    H2 = extract_hjelmslev(q2_ball_r2, 2)
    for P, L in H2.incidence:
        assert (H2.pi1(P), H2.pi1(L)) in H1.incidence


def test_level_two_common_line_counts(q2_ball_r2):
    H = extract_hjelmslev(q2_ball_r2, 2)
    for P, Q in itertools.combinations(H.points, 2):
        common = len(set(H.lines_through(P)) & set(H.lines_through(Q)))
        if H.neighboring(P, Q):
            assert common == 2
        else:
            assert common == 1


def test_extraction_needs_radius():
    b1 = build_ball(identity_matrix(2), 1)
    with pytest.raises(InvalidInput):
        extract_hjelmslev(b1, 2)
    with pytest.raises(InvalidInput):
        extract_hjelmslev(b1, 3)


def test_label_preserving_maps_are_the_cyclic_shifts(q2_ball_r2):
    maps = h2_collineations(q2_ball_r2, labels_only=True)
    assert len(maps) == 7
    npts = 28
    assert (tuple(range(npts)), tuple(range(npts))) in maps
    for pmap, _ in maps:
        if pmap == tuple(range(npts)):
            continue
        assert all(pmap[i] != i for i in range(npts))


def test_label_preserving_summary(q2_ball_r2):
    summary = h2_collineations_fixing_center(q2_ball_r2, labels_only=True)
    assert summary.order == 7
    assert summary.base_image_order == 7
    assert summary.fiber_kernel_order == 1
    assert summary.elation_count == 0


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


def test_h2_search_cap(q3_ball_r2):
    with pytest.raises(CapExceeded):
        h2_collineations(q3_ball_r2, labels_only=True)


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
                       match=f"line {row + 1}: chamber vertex out of range"):
        complex_from_text("\n".join(lines) + "\n")


def test_parsed_export_is_refused_where_the_matrix_is_needed(q2_ball_r2):
    parsed = complex_from_text(complex_to_text(q2_ball_r2))
    with pytest.raises(InvalidInput, match="residue check needs the source"):
        verify_ball(parsed)
    with pytest.raises(InvalidInput, match="needs the source matrix"):
        h2_collineations(parsed, labels_only=True)
