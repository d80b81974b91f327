"""Acceptance gate: thirteen numbered criteria, each printing one
pass/fail line with its runtime (run with pytest -s to see them)."""

import functools
import itertools
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from conftest import identity_matrix
from oracles import (
    agl_orbit_of_set, all_difference_sets, certify_normalized, conjugate_by,
    elation_cycle_profile, elations_with, fast_necessary_condition,
    is_conjugate_in_sym, normalizer_in_sym, pencil_action, pgammal2_model,
    pgl2_model, verify_plane_axioms,
)
from singerlat.ball import build_ball, extract_hjelmslev, verify_ball
from singerlat.diffsets import (
    canonical_difference_set, is_difference_set, singer_difference_set,
    stabilizer_index_perms,
)
from singerlat.exotic import (
    INCONCLUSIVE, NormalizedMatrix, bound_B, candidate_count, census_to_text,
    classify, enumerate_normalized, lower_A, pencil_group, ratio_table,
)
from singerlat.permgrp import compose, inverse
from singerlat.plane import canonical_plane, incidence_lists


@contextmanager
def criterion(num, budget=None):
    start = time.time()
    try:
        yield
        elapsed = time.time() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, budget {budget:g}s")
    except BaseException:
        print(f"criterion {num:2d}: FAIL ({time.time() - start:.1f}s)")
        raise
    tail = f", budget {budget:g}s" if budget is not None else ""
    print(f"criterion {num:2d}: PASS ({elapsed:.1f}s{tail})")


@functools.lru_cache(maxsize=None)
def census(q):
    return tuple(classify(q))


def orbit_members(rep):
    """Full coarse orbit of a normalized pair, generated from scratch."""
    S = stabilizer_index_perms(canonical_difference_set(rep.q))
    members = set()
    for p0 in S:
        ip0 = inverse(p0)
        for p1 in S:
            for p2 in S:
                members.add((compose(p1, compose(rep.alpha1, ip0)),
                             compose(p2, compose(rep.alpha2, ip0))))
    return sorted(members)


def test_criterion_01_singer_generation():
    with criterion(1, budget=10):
        for q in (2, 3, 4, 5, 7, 8, 9):
            D = canonical_difference_set(q)
            assert is_difference_set(D.elements, q)
            assert verify_plane_axioms(incidence_lists(canonical_plane(q))[0])


def test_criterion_02_oracle_equivalence():
    with criterion(2, budget=5):
        for q in (2, 3):
            sets = {D.elements for D in all_difference_sets(q)}
            orbit = agl_orbit_of_set(singer_difference_set(q))
            assert sets == orbit
            assert singer_difference_set(q).elements in sets
            assert canonical_difference_set(q).elements in sets


def test_criterion_03_stabilizer_orders():
    with criterion(3, budget=30):
        for q, order in ((2, 3), (3, 3), (4, 6), (8, 9)):
            S = stabilizer_index_perms(canonical_difference_set(q))
            assert len(S) == order


def test_criterion_04_pencil_groups():
    with criterion(4, budget=300):
        for q, order in ((2, 6), (3, 24), (4, 120), (5, 120)):
            g = pencil_action(canonical_plane(q), 0)
            assert g.order == order
            assert is_conjugate_in_sym(g, pgammal2_model(q))
        for q in (2, 3):
            plane = canonical_plane(q)
            g0 = pencil_action(plane, 0)
            for p in range(plane.modulus):
                assert pencil_action(plane, p) == g0


def test_criterion_05_self_normalization():
    with criterion(5, budget=600):
        for q in (4, 5):
            pgammal = pgammal2_model(q)
            assert normalizer_in_sym(pgammal) == pgammal
            assert normalizer_in_sym(pgl2_model(q)) == pgammal


def test_criterion_06_candidate_bound_table():
    with criterion(6):
        for q in range(2, 1001):
            assert q * (q * q - 1) % 3 == 0
        for q, b in ((2, 4), (3, 64), (4, 400), (5, 1600)):
            assert bound_B(q) == b


def test_criterion_07_growth_ratio_table():
    with criterion(7):
        assert lower_A(2) == Fraction(2, 9)
        rows = ratio_table([2, 3, 4, 5, 7, 8, 9, 11])
        exact = [Fraction(b) / a for _, b, a, _ in rows]
        assert all(y < x for x, y in zip(exact[2:], exact[3:]))
        assert exact[-1] < Fraction(1, 10 ** 6)
        for (_, _, a, rendered), frac in zip(rows, exact):
            assert rendered == float(frac)


def test_criterion_08_census_soundness():
    with criterion(8, budget=1800):
        assert sum(c.orbit_size for c in census(2)) == 36
        assert all(c.verdict.outcome == INCONCLUSIVE for c in census(2))
        assert sum(c.orbit_size for c in census(3)) == 576
        assert sum(c.orbit_size for c in census(5)) == 518400
        assert candidate_count(5) <= 1600
        # verdict invariance, re-derived from scratch on sampled members
        checks = [(2, census(2)), (3, census(3)), (5, census(5)[::1000])]
        for q, classes in checks:
            D = canonical_difference_set(q)
            for c in classes:
                members = orbit_members(c.representative)
                assert len(members) == c.orbit_size
                step = max(1, len(members) // 10)
                for a1, a2 in members[::step]:
                    got = certify_normalized(NormalizedMatrix(q, D, a1, a2))
                    assert got.outcome == c.verdict.outcome


def test_criterion_09_certificate_equivalence():
    with criterion(9):
        g0 = pencil_group(5)
        perms = sorted(itertools.permutations(range(6)))
        unchanged = {a: conjugate_by(g0, a) == g0 for a in perms}
        member = {a: a in g0 for a in perms}
        exotic = 0
        for a1 in perms:
            for a2 in perms:
                fast = member[a1] and member[a2]
                inconclusive = unchanged[a1] and unchanged[a2]
                assert fast == inconclusive
                exotic += not inconclusive
        assert exotic == 518400 - 14400
        # spot-check that the public entry points realize the same split
        for Mn in itertools.islice(enumerate_normalized(5), 0, None, 9973):
            verdict = certify_normalized(Mn)
            assert fast_necessary_condition(Mn) \
                == (verdict.outcome == INCONCLUSIVE)


def test_criterion_10_elation_laws():
    with criterion(10):
        for q in (2, 3, 4, 5):
            plane = canonical_plane(q)
            prime = q in (2, 3, 5)
            line_pts, pt_lines = incidence_lists(plane)
            identity = tuple(range(plane.modulus))
            for axis in range(plane.modulus):
                on_axis = set(line_pts[axis])
                for center in line_pts[axis]:
                    through_center = set(pt_lines[center])
                    els = elations_with(plane, center, axis)
                    assert len(els) == q
                    for pm, lm in els:
                        if pm == identity:
                            continue
                        for p in range(plane.modulus):
                            assert (pm[p] == p) == (p in on_axis)
                        for y in range(plane.modulus):
                            assert (lm[y] == y) == (y in through_center)
                        for line in through_center:
                            if line == axis:
                                continue
                            k, c = elation_cycle_profile(
                                plane, pm, center, axis, line)
                            assert k * c == q
                            if prime:
                                assert (k, c) == (1, q)


def test_criterion_11_ball_construction():
    with criterion(11, budget=240):
        t0 = time.time()
        ball2 = build_ball(identity_matrix(2), 2)
        assert verify_ball(ball2).ok
        H = extract_hjelmslev(ball2, 2)
        assert len(H.points) == 28
        assert len(H.lines) == 28
        assert sorted(Counter(p[0] for p in H.points).values()) == [4] * 7
        t1 = time.time()
        assert t1 - t0 < 120
        ball3 = build_ball(identity_matrix(3), 2)
        assert verify_ball(ball3).ok
        assert time.time() - t1 < 120


def test_criterion_12_level_two_elation_laws(h2_full_summary):
    with criterion(12, budget=600):
        summary, elapsed = h2_full_summary
        assert elapsed < 600
        assert summary.elation_count > 0
        assert summary.neighbor_fixing_ok
        assert summary.free_action_ok


def test_criterion_13_census_determinism(tmp_path):
    with criterion(13):
        paths = []
        for threads in (1, 8):
            text = census_to_text(classify(3, threads=threads))
            path = tmp_path / f"census_q3_threads{threads}.txt"
            path.write_text(text)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
