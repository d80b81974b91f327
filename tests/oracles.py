"""Reference implementations that the library's faster routes are
checked against, and the group theory that the library's verdicts rest
on but do not compute.

The plane-search route to the pencil groups is the independent check of
the G_0 that the library generates from the canonical plane's
difference table (a multiplier and projectivities of the pencil at
point 0, checked by the order of PGammaL(2, q)): the search enumerates
the collineations fixing a point (or a line) of a difference vector's
plane and reads off the permutations they induce on the q+1 flag labels
there.
It runs the Moufang test on each plane it searches first and raises
NonDesarguesianColumn on a failure.  The library has no such verdict:
every column it accepts is an affine image of the canonical set, whose
plane is Singer's PG(2, q).
The per-line ball-export parser is the reference for the library's
one-pattern parser, the name-and-union-find ball build for its
closed-form vertex numbering, the cyclic shifts of its vertex names
(singer_maps_by_name) for the level-2 shifts read off that numbering,
the residue test that tries every
image of the anchor line for the one that tries line 0 alone, the
three-pass level-2 extraction (hjelmslev_level2) for the one walk over
the type-0 vertices other than the center, the
fiber-wise permutation search for the level-2 lifts for their kernel
cosets found on the plane engine, the walk over every coset pair code
(coset_pair_orbits_per_code) for the census's walk by stabilizer rows,
the union-find over the rotation and duality images of every coset pair
(extra_move_roots_per_pair) for the census's walk over the rows that
hold a least pair, and the per-row
census text (census_to_text_per_row) for the text built from shared
pieces.  The sorted listing of the whole q = 2 level-2 group
(h2_group_listing), whose bytes the tests pin, and the walk over every
listed map (h2_summary_of_listing) are the reference for the library's
group summary, which reads the fiber kernel, the lifts and one elation
search per flag instead.

The library decides every verdict by membership in G_0, which is
PGammaL(2, q) and so its own normalizer in Sym(q+1).  The normalizer
search that checks this (normalizer_in_sym, by a full scan of Sym(n) up
to degree 8 and by full-cycle cosets at degrees 9 and 10) lives here,
with the conjugacy search is_conjugate_in_sym and their inputs: the
PGL(2, q) and PGammaL(2, q) models on the projective line, Sym(n),
cycle types and orders.  So do the edge walk pencil_witness, which
tests the three adjacent pairs of label twists in turn and is the
reference for the library's one verdict rule, certify_normalized, the
normalized-encoding certifier built on it, fast_necessary_condition,
the membership test that the census is checked against, and
verdict_holds,
the conjugation test of a census record's verdict against its alphas
that does not go through the witness walk.

The PGL(2, q) model computes in GF(q) through the field model Field
(make_field): reduction by the first irreducible polynomial, found by
trial division, and the first element whose order, read from the prime
factors of p^k - 1, is p^k - 1.  The same model is the reference for
the library's Singer set (field_model_singer_set), which walks the
powers of x modulo the first polynomial in which x is primitive
(arith.primitive_powers) instead.

The rest are tools that only the tests need: normalize_matrix (affine
map per column, then the row sort), the reference for
NormalizedMatrix.from_matrix; prime_power_by_scan, the reference for
prime_power; all_difference_sets, the exhaustive scan up to
ENUMERATION_Q_CAP that the Singer orbit is checked against;
agl_orbit_of_set, the whole affine orbit of a set, whose least member
canonical_difference_set must find; AffineMap with compose_affine and
invert_affine, and agl_maps_onto, the affine maps between any two sets
(find_agl_map takes the first, set_stabilizer_in_agl those fixing a
set), of which diffsets.label_perms reads the maps onto a difference
set as label positions; conjugate_by, the group s^-1 * G * s; and
reduce_generators, group_from_generators and group_from_elements,
which build a PermGroup from generators or from a closed element set.

The plane tools work on a difference vector, which is its own plane
(singerlat.plane).  A collineation is a (point map, line map) pair:
collineations lists those that the library's engine finds from a
partial map, each checked by the engine's map check _check_map, and
all_collineations is the unseeded search for the full group up to
FULL_GROUP_Q_CAP.  elations_with seeds it with the axis and the
center's pencil fixed; is_desarguesian, the Moufang test, asks for q
elations at every flag; preserves_labels and elation_cycle_profile
serve the elation laws of criterion 10.  verify_plane_axioms checks the
axioms of a projective plane on any list of lines, so it can refuse a
non-plane as well as pass criterion 1's canonical planes.

Nothing in the library depends on this module; tests/test_source.py
fails if a library module imports it.
"""

import collections
import itertools
import math
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, NamedTuple

from singerlat.arith import prime_power, zmod_units
from singerlat.ball import (
    BALL_Q_CAP, BallComplex, H2GroupSummary, HjelmslevPlane,
    extract_hjelmslev,
)
from singerlat.diffsets import (
    DifferenceMatrix, DifferenceSet, DifferenceVector, is_difference_set,
)
from singerlat.errors import CapExceeded, GluingError, InvalidInput
from singerlat.exotic import (
    CERTIFIED_EXOTIC, INCONCLUSIVE, ExoticityVerdict, ExoticWitness,
    NormalizedMatrix, _duality_perm, _label_twists, _least_outside,
    _right_table,
)
from singerlat.exotic import pencil_group as model_pencil_group
from singerlat.permgrp import (
    CLOSURE_ORDER_CAP, PermGroup, closure, compose, conjugator, identity,
    inverse, perm_to_str,
)
from singerlat.plane import (
    _check_map, _incidence_tables, _Search, canonical_plane, incidence_lists,
)

SEARCH_ROUTE_Q_CAP = 5
ENUMERATION_Q_CAP = 4
# the full group without a fixed point is only enumerated for tiny orders
FULL_GROUP_Q_CAP = 3

# full scan of Sym(n) up to here; degrees 9 and 10 use the full-cycle
# coset route; beyond that conjugacy and normalizer searches refuse
EXHAUSTIVE_DEGREE_CAP = 8
CYCLE_ROUTE_DEGREE_CAP = 10


@lru_cache(maxsize=None)
def pencil_action(plane, x0):
    """Permutations of the q+1 flag labels at x0 induced by the stabilizer
    of x0, as a subgroup of Sym(q+1)."""
    m = plane.modulus
    entry_index = {d: j for j, d in enumerate(plane.entries)}
    lines = incidence_lists(plane)[1][x0]
    return group_from_elements({
        tuple(entry_index[(x0 - lmap[y]) % m] for y in lines)
        for _, lmap in collineations(plane, {x0: x0})})


@lru_cache(maxsize=None)
def line_pencil_action(plane, y0):
    """Permutations of the q+1 flag labels on line y0 induced by its
    setwise stabilizer."""
    m = plane.modulus
    entry_index = {d: j for j, d in enumerate(plane.entries)}
    points = incidence_lists(plane)[0][y0]
    return group_from_elements({
        tuple(entry_index[(pmap[p] - y0) % m] for p in points)
        for pmap, _ in collineations(plane, line_seed={y0: y0})})


class NonDesarguesianColumn(Exception):
    """A column's plane fails the Moufang test; its index says which."""

    def __init__(self, column):
        super().__init__(f"column {column} is not Desarguesian")
        self.column = column


def pencil_group(q, route="auto"):
    """G_0 by route: "search" enumerates the point stabilizer of the
    canonical plane (q <= 5) once that plane passes the Moufang test;
    "auto" and "model" take the library's G_0, generated from the
    canonical plane's difference table."""
    if route == "search":
        if q > SEARCH_ROUTE_Q_CAP:
            raise CapExceeded(
                f"search route capped at q <= {SEARCH_ROUTE_Q_CAP}, got {q}")
        if not is_desarguesian(canonical_plane(q)):
            raise NonDesarguesianColumn(0)
        return pencil_action(canonical_plane(q), 0)
    return model_pencil_group(q, "model" if route == "auto" else route)


def local_pencil_groups(M, route="auto"):
    """The three pencil groups (G_0, G_1, G_2) of a difference matrix,
    each on the labels of its own column.

    route "search" runs a plane search per column and raises
    NonDesarguesianColumn when a column fails the Moufang test; the
    other routes move the library's G_0 by each column's label twist.
    """
    if route == "search":
        out = []
        for t, col in enumerate(M.columns):
            if not is_desarguesian(col):
                raise NonDesarguesianColumn(t)
            out.append(pencil_action(col, 0))
        return tuple(out)
    g0 = pencil_group(M.q, route)
    return tuple(conjugate_by(g0, s) for s in _label_twists(M))


# adjacency pairs of the three vertex types, in check order
EDGES = ((0, 1), (1, 2), (2, 0))


def mismatch_witness(groups):
    """The witness certify_exotic must give, from three groups built
    independently: the least element of G_s outside G_t on the first
    edge (s, t) whose groups differ, or None."""
    for s, t in EDGES:
        gs, gt = groups[s], groups[t]
        if gs != gt:
            return ExoticWitness((s, t), min(gs.elements - gt.elements))
    return None


def pencil_witness(q, twists):
    """The witness for the first edge whose pencil groups differ, when
    G_t = twists[t]^-1 G_0 twists[t]; None when all three agree.  Each
    edge (s, t) is tested on its own: G_s = G_t exactly when
    twists[s] twists[t]^-1 lies in G_0, and the witness is the walk of
    _least_outside from twists[s] to twists[t]."""
    g0 = model_pencil_group(q).elements
    for s, t in EDGES:
        if compose(twists[s], inverse(twists[t])) not in g0:
            return ExoticWitness(
                (s, t), _least_outside(q, twists[s], twists[t]))
    return None


def certify_normalized(Mn: NormalizedMatrix):
    """The verdict of the edge walk on the label twists e, alpha1 and
    alpha2 of the normalized encoding."""
    w = pencil_witness(Mn.q, (identity(Mn.q + 1), Mn.alpha1, Mn.alpha2))
    if w is None:
        return ExoticityVerdict(INCONCLUSIVE)
    return ExoticityVerdict(CERTIFIED_EXOTIC, w)


def verdict_holds(Mn: NormalizedMatrix, verdict) -> bool:
    """Whether a census record's verdict holds for its alphas, by
    conjugation alone, not through the witness walk.  Inconclusive needs
    alpha1 and alpha2 in G_0, and a witness edge (s, t) with perm h
    needs h in G_s and not in G_t, with G_k = alpha_k^-1 G_0 alpha_k and
    alpha_0 the identity: h lies in G_k when alpha_k h alpha_k^-1 lies
    in G_0."""
    g0 = model_pencil_group(Mn.q).elements
    w = verdict.witness
    if w is None:
        return Mn.alpha1 in g0 and Mn.alpha2 in g0
    alphas = (identity(Mn.q + 1), Mn.alpha1, Mn.alpha2)
    s, t = w.edge
    return (conjugator(inverse(alphas[s]))(w.perm) in g0
            and conjugator(inverse(alphas[t]))(w.perm) not in g0)


def fast_necessary_condition(Mn: NormalizedMatrix, g0=None) -> bool:
    """alpha1 and alpha2 both lie in G_0; false certifies exoticity
    because G_0 is its own normalizer."""
    if g0 is None:
        g0 = model_pencil_group(Mn.q)
    return Mn.alpha1 in g0 and Mn.alpha2 in g0


_VERTEX_RE = re.compile(r"vertex (\d+) type=(\d+) dist=(\d+)$")
_EDGE_RE = re.compile(r"edge (\d+) (\d+)$")
_CHAMBER_RE = re.compile(r"chamber (\d+) (\d+) (\d+) label=(\d+)$")


def complex_from_text(text):
    """The ball-export parser as it was before the one-pattern scan: three
    patterns tried per line, rows in any order.  It accepts any Unicode
    digits, leading zeros, and dists and labels past the vertex count,
    all of which the library rejects, and it refuses a vertex type
    outside 0..2 only where a chamber holds the vertex.  Its edge rows must
    be the sorted panels of the chambers, compared row by row, every
    dist the graph distance from the center, found by a breadth-first
    search, and each chamber's vertices typed 0, 1, 2 in slot order."""
    types, dists, edges, chambers = [], [], [], []
    # line numbers, for the range, dist and slot-type checks
    vertex_rows, edge_rows, chamber_rows = [], [], []
    for i, line in enumerate(text.splitlines(), start=1):
        if m := _VERTEX_RE.match(line):
            v, t, d = map(int, m.groups())
            if v != len(types):
                raise InvalidInput(f"line {i}: vertex id {v} out of order")
            vertex_rows.append(i)
            types.append(t)
            dists.append(d)
        elif m := _EDGE_RE.match(line):
            edges.append((int(m.group(1)), int(m.group(2))))
            edge_rows.append(i)
        elif m := _CHAMBER_RE.match(line):
            chambers.append(tuple(map(int, m.groups())))
            chamber_rows.append(i)
        else:
            raise InvalidInput(f"line {i}: unrecognized row {line!r}")
    if not chambers:
        raise InvalidInput("complex export has no chambers")
    n = len(types)
    for i, (a, b) in zip(edge_rows, edges):
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidInput(f"line {i}: edge endpoint out of range")
    for i, (a, b, c, _) in zip(chamber_rows, chambers):
        if max(a, b, c) >= n:  # the row pattern admits no negative id
            raise InvalidInput(f"line {i}: chamber vertex out of range")
    centers = [v for v in range(n) if dists[v] == 0]
    if len(centers) != 1:
        raise InvalidInput("complex export must have exactly one center")
    panels = sorted({tuple(sorted(pair)) for c in chambers
                     for pair in itertools.combinations(c[:3], 2)})
    # a missing row is named at the line after the last edge row
    rows = edge_rows + [(edge_rows[-1] if edge_rows else n) + 1]
    for k in range(max(len(edges), len(panels))):
        got = f"edge {edges[k][0]} {edges[k][1]}" if k < len(edges) \
            else "no edge row"
        if k == len(panels):
            raise InvalidInput(
                f"line {rows[k]}: {got} past the last chamber panel")
        want = f"edge {panels[k][0]} {panels[k][1]}"
        if got != want:
            raise InvalidInput(
                f"line {rows[k]}: {got} where the chamber panels give {want}")
    neighbors = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    graph = {centers[0]: 0}  # vertex -> its graph distance
    queue = collections.deque(graph)
    while queue:
        v = queue.popleft()
        for u in neighbors[v]:
            if u not in graph:
                graph[u] = graph[v] + 1
                queue.append(u)
    off = [(dists[v], v) for v in range(n) if graph.get(v) != dists[v]]
    if off:
        # named as the library names it: the first edge row whose dists
        # differ by more than 1, else the vertex off its graph distance
        # nearest the center, which then has no neighbor one dist nearer
        for i, (a, b) in zip(edge_rows, edges):
            if abs(dists[a] - dists[b]) > 1:
                raise InvalidInput(f"line {i}: edge {a} {b} joins dists "
                                   f"{dists[a]} and {dists[b]}")
        d, v = min(off)
        raise InvalidInput(f"line {vertex_rows[v]}: vertex {v} at dist {d} "
                           f"has no neighbor at dist {d - 1}")
    for i, (a, b, c, _) in zip(chamber_rows, chambers):
        got = tuple(types[v] for v in (a, b, c))
        if got != (0, 1, 2):
            raise InvalidInput(
                f"line {i}: chamber {a} {b} {c} has vertex types "
                f"{got[0]} {got[1]} {got[2]}, not 0 1 2")
    return BallComplex(
        q=max(c[3] for c in chambers), matrix=None, types=tuple(types),
        dists=tuple(dists), chambers=tuple(chambers))


class ReferenceBall(NamedTuple):
    """The reference build: the ball, and the edges, center and radius it
    computes by its own rules, which the library reads off the ball; and
    the name of each vertex, the root of its union-find class, in id
    order."""
    ball: BallComplex
    edges: tuple
    center: int
    radius: int
    names: tuple


def build_ball(M, radius):
    """The ball build as it was before the closed-form vertex numbering:
    every vertex gets a name, the two completions meeting over a
    sphere-1 panel are glued by a union-find keyed on equal (panel,
    label) chambers, and ids are the sort order of (dist, type, name)."""
    q, m = M.q, M.columns[0].modulus
    if radius not in (1, 2):
        raise InvalidInput(f"radius must be 1 or 2, got {radius}")
    if q > BALL_Q_CAP:
        raise CapExceeded(
            f"radius {radius} ball capped at q <= {BALL_Q_CAP}, got {q}")
    v0 = M.columns[0].entries
    v1 = M.columns[1].entries
    v2 = M.columns[2].entries

    center = ("O",)
    raw = []  # (type0 name, type1 name, type2 name, label)
    for x in range(m):
        for j, d in enumerate(v0):
            raw.append((center, ("pt", (x + d) % m), ("ln", x), j))

    parent = {}

    def find(a):
        root = a
        while root in parent:
            root = parent[root]
        while a != root:
            parent[a], a = root, parent[a]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = min(ra, rb), max(ra, rb)
            parent[hi] = lo

    if radius == 2:
        # labels of the line-0 points of the second column's plane, and
        # of the lines through point 0 of the third column's plane
        line0_label = {d: j for j, d in enumerate(v1)}
        through0_label = {(-d) % m: j for j, d in enumerate(v2)}

        for p in range(m):
            # complete the residue of point-vertex p to the column-1
            # plane: its line 0 is the center, its point v1[j] is the
            # label-j line of the center's plane through p
            def pt_point_name(u):
                j = line0_label.get(u)
                if j is not None:
                    return ("ln", (p - v0[j]) % m)
                return ("ptres", p, "P", u)

            for w in range(m):
                wname = center if w == 0 else ("ptres", p, "L", w)
                for k, d in enumerate(v1):
                    raw.append((wname, ("pt", p), pt_point_name((w + d) % m), k))

        for l in range(m):
            # complete the residue of line-vertex l to the column-2
            # plane: its point 0 is the center, its label-j line through
            # that point is the label-j point of the center's plane on l
            def ln_line_name(w):
                j = through0_label.get(w)
                if j is not None:
                    return ("pt", (l + v0[j]) % m)
                return ("lnres", l, "L", w)

            for w in range(m):
                lname = ln_line_name(w)
                for k, d in enumerate(v2):
                    z = (w + d) % m
                    zname = center if z == 0 else ("lnres", l, "P", z)
                    raw.append((zname, lname, ("ln", l), k))

        # glue: on the panel of the label-j flag (l, p), the label-k
        # chamber appears once from each side with a fresh type-0 vertex
        for l in range(m):
            for j in range(q + 1):
                p = (l + v0[j]) % m
                for k in range(q + 1):
                    if k == j:
                        continue
                    union(("ptres", p, "L", (v1[j] - v1[k]) % m),
                          ("lnres", l, "P", (v2[k] - v2[j]) % m))

    # only the fresh type-0 vertices of sphere 2 are glued, and they sit
    # in the first slot; resolve each class to its root once
    alias = {a: find(a) for a in list(parent)}
    resolved = {}
    for n0, n1, n2, label in raw:
        key = (alias.get(n0, n0), n1, n2)
        old = resolved.get(key)
        if old is not None and old != label:
            raise GluingError(
                f"panel {key[1]}|{key[2]} forces labels {old} and {label} "
                f"on one chamber")
        resolved[key] = label

    def name_dist(name):
        if name == center:
            return 0
        return 1 if name[0] in ("pt", "ln") else 2

    def name_type(name):
        if name == center:
            return 0
        if name[0] == "pt":
            return 1
        if name[0] == "ln":
            return 2
        # merged sphere-2 classes keep the type-0 role; unmerged names
        # are points of a point-residue (type 2) or lines of a
        # line-residue (type 1)
        if name[0] == "lnres":
            return 0 if name[2] == "P" else 1
        return 0 if name[2] == "L" else 2

    dists, types, roots = zip(*sorted(
        (name_dist(n), name_type(n), n)
        for n in {v for key in resolved for v in key}))
    vid = {n: i for i, n in enumerate(roots)}
    chambers = tuple(sorted(
        (vid[a], vid[b], vid[c], label)
        for (a, b, c), label in resolved.items()))
    edges = tuple(sorted({
        pair for a, b, c, _ in chambers
        for pair in ((a, b) if a < b else (b, a),
                     (a, c) if a < c else (c, a),
                     (b, c) if b < c else (c, b))}))
    return ReferenceBall(
        BallComplex(q=q, matrix=M, types=types, dists=dists,
                    chambers=chambers),
        edges, vid[center], radius, roots)


def labelled_plane_isomorphic(flags, plane):
    """The residue test as it was before it tried line 0 alone: every
    image y0 of the anchor line is tried in turn, each propagating the
    forced label-matching."""
    m, q = plane.modulus, plane.q
    line_flags, point_flags = {}, {}
    for l, p, k in flags:
        line_flags.setdefault(l, []).append((p, k))
        point_flags.setdefault(p, []).append((l, k))
    # m lines and m points, each on one flag of every label 0..q: with
    # m(q+1) flags in all, that is distinct (line, point), (line, label)
    # and (point, label) pairs with every label in 0..q
    n = len(flags)
    if len(line_flags) != m or len(point_flags) != m or n != m * (q + 1):
        return False
    if (len({(l, p) for l, p, _ in flags}) != n
            or len({(l, k) for l, _, k in flags}) != n
            or len({(p, k) for _, p, k in flags}) != n
            or not set(range(q + 1)).issuperset(k for _, _, k in flags)):
        return False

    anchor = min(line_flags)
    for y0 in range(m):
        line_img = {anchor: y0}
        point_img = {}
        pending_lines = [anchor]
        pending_points = []
        seen_lines = {anchor}
        seen_points = set()
        ok = True
        while ok and (pending_lines or pending_points):
            while ok and pending_lines:
                l = pending_lines.pop()
                y = line_img[l]
                for p, k in line_flags[l]:
                    target = (y + plane.entries[k]) % m
                    prev = point_img.setdefault(p, target)
                    if prev != target:
                        ok = False
                        break
                    if p not in seen_points:
                        seen_points.add(p)
                        pending_points.append(p)
            while ok and pending_points:
                p = pending_points.pop()
                pp = point_img[p]
                for l, k in point_flags[p]:
                    target = (pp - plane.entries[k]) % m
                    prev = line_img.setdefault(l, target)
                    if prev != target:
                        ok = False
                        break
                    if l not in seen_lines:
                        seen_lines.add(l)
                        pending_lines.append(l)
        if not ok:
            continue
        if len(set(line_img.values())) != m or len(set(point_img.values())) != m:
            continue
        if len(line_img) == m and len(point_img) == m:
            return True
    return False


def hjelmslev_level2(ball: BallComplex) -> HjelmslevPlane:
    """The level-2 extraction as it was before the one walk over the
    type-0 vertices: the level-2 points and lines from the sorted
    neighbors of each sphere-1 vertex, the join of every two points of
    each sphere-1 point's residue, the lines on each residue line, and
    one lookup per point and line of the center through it."""
    O = ball.center
    types, dists = ball.types, ball.dists
    # the chambers through each vertex, in chamber order
    by_vertex = [[] for _ in range(ball.vertex_count)]
    for ch in ball.chambers:
        for v in dict.fromkeys(ch[:3]):
            by_vertex[v].append(ch)
    sphere1_pts = [v for v in range(ball.vertex_count)
                   if dists[v] == 1 and types[v] == 1]
    sphere1_lns = [v for v in range(ball.vertex_count)
                   if dists[v] == 1 and types[v] == 2]
    pt_set, ln_set = set(sphere1_pts), set(sphere1_lns)
    center_lines = {p: [] for p in sphere1_pts}
    for o, p, l, _ in by_vertex[O]:
        if o == O and p in pt_set and l in ln_set:
            center_lines[p].append(l)

    def neighbors(v):
        return sorted({u for ch in by_vertex[v] for u in ch[:3]})

    points = [(p1, p2) for p1 in sphere1_pts for p2 in neighbors(p1)
              if types[p2] == 2 and dists[p2] == 2]
    lines = [(l1, l2) for l1 in sphere1_lns for l2 in neighbors(l1)
             if types[l2] == 1 and dists[l2] == 2]

    # in the residue of p1, type-0 neighbors are lines; any two points
    # of that plane span a unique such line
    join = {}
    for p1 in sphere1_pts:
        res_lines = {}
        for z, p, u, _ in by_vertex[p1]:
            if p == p1 and z != O and types[z] == 0:
                res_lines.setdefault(z, set()).add(u)
        for z, res_pts in res_lines.items():
            for u, v in itertools.combinations(sorted(res_pts), 2):
                if (p1, u, v) in join:
                    raise AssertionError(
                        f"points {u}, {v} of the residue of {p1} span "
                        f"two lines")
                join[(p1, u, v)] = z

    # the lines (l1, l2) on each line z of the residue of l1, by the
    # chambers (z, l2, l1)
    line_set = set(lines)
    on_line = {}
    for l1 in sphere1_lns:
        for z, l2, l, _ in by_vertex[l1]:
            if l == l1 and (l1, l2) in line_set:
                on_line.setdefault((z, l1), set()).add((l1, l2))

    # (p1, p2) lies on (l1, l2) when l1 passes through p1, and the line
    # z joining p2 and l1 in the residue of p1 carries a chamber
    # (z, l2, l1)
    incidence = set()
    for P in points:
        p1, p2 = P
        for l1 in center_lines[p1]:
            z = join.get((p1, p2, l1) if p2 < l1 else (p1, l1, p2))
            if z is not None:
                for L in on_line.get((z, l1), ()):
                    incidence.add((P, L))
    return HjelmslevPlane(2, tuple(points), tuple(lines),
                          frozenset(incidence))


def h2_lifts(H: HjelmslevPlane, base_pt, base_ln, tables):
    """All collineations of the level-2 plane inducing the given
    residue collineation on the fibers, by fiber-wise backtracking: the
    reference for the library's kernel cosets, which it checks lift by
    lift.  tables are the point and line numbers of H by their pairs,
    and four fields of the library's level-2 tables."""
    pt_index, ln_index, pt_lines, ln_points, pt_fibers, ln_fibers = tables
    npts, nlns = len(H.points), len(H.lines)

    # unique common line of two non-neighboring points
    common = {}
    for li, pts in enumerate(ln_points):
        for a, b in itertools.combinations(sorted(pts), 2):
            if H.points[a][0] != H.points[b][0]:
                if (a, b) in common:
                    raise AssertionError(
                        f"non-neighboring points {a}, {b} share two lines")
                common[(a, b)] = li

    fiber_keys = sorted(pt_fibers)
    pmap = [-1] * npts
    lmap = [-1] * nlns
    lines_of_fiber_pair = {}
    for li in range(nlns):
        fibs = frozenset(H.points[p][0] for p in ln_points[li])
        lines_of_fiber_pair.setdefault(fibs, []).append(li)

    out = []

    def lines_touching(fibers_done):
        done = set(fibers_done)
        return [li for li in range(nlns)
                if sum(1 for p in ln_points[li] if H.points[p][0] in done) >= 2]

    def extend(fi):
        if fi == len(fiber_keys):
            final_p = tuple(pmap)
            final_l = tuple(lmap)
            if -1 in final_l:
                return
            for i in range(npts):
                if pt_lines[final_p[i]] != frozenset(
                        final_l[j] for j in pt_lines[i]):
                    return
            out.append((final_p, final_l))
            return
        src = pt_fibers[fiber_keys[fi]]
        dst = pt_fibers[base_pt[fiber_keys[fi]]]
        done_fibers = fiber_keys[:fi + 1]
        affected = lines_touching(done_fibers)
        for images in itertools.permutations(dst):
            for s, d in zip(src, images):
                pmap[s] = d
            touched = []
            ok = True
            for li in affected:
                mapped = [pmap[p] for p in ln_points[li] if pmap[p] != -1]
                if len(mapped) < 2:
                    continue
                if lmap[li] == -1:
                    # forcing needs two images in distinct fibers; two
                    # neighboring points lie on several common lines
                    pair = next(
                        ((a, b) for a, b in itertools.combinations(
                            sorted(set(mapped)), 2)
                         if H.points[a][0] != H.points[b][0]), None)
                    if pair is None:
                        continue
                    target = common.get(pair)
                    if target is None:
                        ok = False
                        break
                    lmap[li] = target
                    touched.append(li)
                if any(mp not in ln_points[lmap[li]] for mp in mapped):
                    ok = False
                    break
            if ok:
                extend(fi + 1)
            for li in touched:
                lmap[li] = -1
        for s in src:
            pmap[s] = -1

    extend(0)
    return out


def singer_maps_by_name(names, H: HjelmslevPlane, tables):
    """The level-2 collineations of the cyclic shifts x -> x + t, by the
    reference's vertex names: the shift moves the point, line or residue
    index of every name by t and keeps the rest, and the map on ids goes
    through a name -> id dict.  The reference for the library's shifts,
    which it reads off build_ball's numbering; each map is checked."""
    m = sum(n[0] == "pt" for n in names)
    name_id = {n: i for i, n in enumerate(names)}
    pt_index = {p: i for i, p in enumerate(H.points)}
    ln_index = {l: i for i, l in enumerate(H.lines)}

    def shift_name(n, t):
        if n == ("O",):
            return n
        if n[0] in ("pt", "ln"):
            return (n[0], (n[1] + t) % m)
        return (n[0], (n[1] + t) % m, n[2], n[3])

    maps = []
    for t in range(m):
        vmap = [name_id[shift_name(n, t)] for n in names]
        pmap = tuple(pt_index[(vmap[p[0]], vmap[p[1]])] for p in H.points)
        lmap = tuple(ln_index[(vmap[l[0]], vmap[l[1]])] for l in H.lines)
        _check_map(tables.engine, pmap, lmap)
        maps.append((pmap, lmap))
    return maps


def h2_lift_search(H: HjelmslevPlane, tables, base_pt):
    """The collineations of the level-2 plane that send the fiber over
    each level-1 point p into the fiber over base_pt[p], one at a time
    as the plane engine finds them, each checked."""
    dom = {f: frozenset(tables.pt_fibers[base_pt[f]])
           for f in tables.pt_fibers}
    search = _Search(tables.engine, pt_domain=[dom[p[0]] for p in H.points])
    for pmap, lmap in search.run():
        _check_map(tables.engine, pmap, lmap)
        yield pmap, lmap


def h2_kernel_and_lifts(ball: BallComplex, H: HjelmslevPlane, tables):
    """The fiber kernel K of the center's level-2 plane, listed, and one
    lift of each collineation of the center's plane that lifts: the
    lists the pinned q = 2 listing is built from.  The library counts
    both by stabilizer chains instead."""
    plane = ball.matrix.columns[ball.types[ball.center]]
    kernel = list(h2_lift_search(H, tables, {f: f for f in tables.pt_fibers}))
    lifts = []
    for pmap, _ in all_collineations(plane):
        # residue points sit at vertex id 1 + plane point
        base_pt = {1 + p: 1 + v for p, v in enumerate(pmap)}
        lifts += itertools.islice(h2_lift_search(H, tables, base_pt), 1)
    return kernel, lifts


def h2_group_listing(kernel, lifts):
    """The whole level-2 group as a sorted list, every lift after every
    element of the fiber kernel: the listing the library's summary
    replaces, and the map list whose bytes the tests pin."""
    return sorted((compose(lp, kp), compose(ll, kl))
                  for lp, ll in lifts for kp, kl in kernel)


def h2_summary_of_listing(ball: BallComplex, maps, H: HjelmslevPlane,
                          tables) -> H2GroupSummary:
    """The group summary by a walk over every map of the listing: the
    fixed points and lines, axes and centres of each map, the elation
    laws at its first flag.  The reference for the library's summary,
    which reads the kernel and the lifts and searches flag by flag."""
    h1 = extract_hjelmslev(ball, 1)
    h1_flags = {(p[0], l[0]) for p, l in h1.incidence}
    pt_lines = tables.pt_lines
    ln_points = tables.engine[2]  # the points of each line, as a set
    pt_fibers, ln_fibers = tables.pt_fibers, tables.ln_fibers
    npts, nlns = len(H.points), len(H.lines)
    identity_map = (tuple(range(npts)), tuple(range(nlns)))
    if identity_map not in maps:
        raise AssertionError("the identity is not among the collineations")

    map_set = set(maps)
    for pmap, lmap in maps:
        if (inverse(pmap), inverse(lmap)) not in map_set:
            raise AssertionError("the collineations are not closed under "
                                 "inverses")

    base_images = {tuple(H.points[pmap[pt_fibers[f][0]]][0]
                         for f in sorted(pt_fibers))
                   for pmap, _ in maps}
    kernel = sum(
        1 for pmap, _ in maps
        if all(H.points[pmap[i]][0] == H.points[i][0] for i in range(npts)))

    elations = 0
    neighbor_ok = True
    free_ok = True
    for pmap, lmap in maps:
        if (pmap, lmap) == identity_map:
            continue
        fixed_pts = {i for i in range(npts) if pmap[i] == i}
        fixed_lns = {j for j in range(nlns) if lmap[j] == j}
        axes = [j for j in range(nlns) if ln_points[j] <= fixed_pts]
        centers = [i for i in range(npts) if pt_lines[i] <= fixed_lns]
        flag = next(((i, j) for i in centers for j in axes
                     if j in pt_lines[i]), None)
        if flag is None:
            continue
        elations += 1
        ci, ax = flag
        cf = H.points[ci][0]
        if not all(pmap[i] == i for i in pt_fibers[cf]):
            neighbor_ok = False
        af = H.lines[ax][0]
        if not all(lmap[j] == j for j in ln_fibers[af]):
            neighbor_ok = False
        # free action off the axis: a point is near the axis when its
        # fiber meets the axis's level-1 line, and those may be fixed
        for m_line in pt_lines[ci]:
            for p in ln_points[m_line]:
                if (H.points[p][0], H.lines[ax][0]) in h1_flags:
                    continue
                if pmap[p] == p:
                    free_ok = False

    return H2GroupSummary(
        order=len(maps), base_image_order=len(base_images),
        fiber_kernel_order=kernel, elation_count=elations,
        neighbor_fixing_ok=neighbor_ok, free_action_ok=free_ok)


# -- cycle types and the full symmetric group --


def cycle_type(p):
    """Cycle lengths in decreasing order, fixed points included."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        n = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def perm_order(p):
    return math.lcm(*cycle_type(p)) if p else 1



def symmetric_group(n):
    if n < 1:
        raise InvalidInput(f"degree must be positive, got {n}")
    if math.factorial(n) > CLOSURE_ORDER_CAP:
        raise CapExceeded(f"Sym({n}) exceeds {CLOSURE_ORDER_CAP} elements")
    elements = frozenset(itertools.permutations(range(n)))
    if n == 1:
        gens = ()
    elif n == 2:
        gens = ((1, 0),)
    else:
        gens = ((1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,))
    return PermGroup(n, gens, elements)


# -- finite fields GF(p^k) on coefficient tuples --

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


# -- fractional linear groups on the projective line --
#
# The line over GF(q) is indexed 0..q: index i < q is the i-th field
# element in the canonical enumeration, index q is the point at
# infinity.


def _moebius_perm(field, a, b, c, d, elems, index_of):
    def over(x, y):  # x / y, with y^-1 = y^(|F| - 2)
        return field.mul(x, field.power(y, field.order - 2))

    q = len(elems)
    inf = q
    img = [0] * (q + 1)
    for i, x in enumerate(elems):
        num = field.add(field.mul(a, x), b)
        den = field.add(field.mul(c, x), d)
        if den == field.zero:
            img[i] = inf
        else:
            img[i] = index_of[over(num, den)]
    if c == field.zero:
        img[inf] = inf
    else:
        img[inf] = index_of[over(a, c)]
    return tuple(img)


@lru_cache(maxsize=None)
def pgl2_model(q):
    """PGL(2, q) acting on the q + 1 points of the projective line."""
    pk = prime_power(q)
    if pk is None:
        raise InvalidInput(f"{q} is not a prime power")
    p, k = pk
    field = make_field(p, k)
    elems = list(field.iter_elements())
    index_of = {x: i for i, x in enumerate(elems)}
    perms = set()
    for a, b, c, d in itertools.product(elems, repeat=4):
        if field.mul(a, d) == field.mul(b, c):  # ad - bc = 0
            continue
        perms.add(_moebius_perm(field, a, b, c, d, elems, index_of))
    if len(perms) != q * (q * q - 1):
        raise AssertionError(
            f"PGL(2, {q}) has {len(perms)} elements, expected {q * (q * q - 1)}")
    one = field.one
    zero = field.zero
    w = field.omega_coeffs
    gens = (
        _moebius_perm(field, one, one, zero, one, elems, index_of),   # x + 1
        _moebius_perm(field, w, zero, zero, one, elems, index_of),    # w * x
        _moebius_perm(field, zero, one, one, zero, elems, index_of),  # 1 / x
    )
    gens = tuple(dict.fromkeys(gens))  # w = 1 when q = 2
    if closure(gens, q + 1) != frozenset(perms):
        raise AssertionError(f"the generators do not generate PGL(2, {q})")
    return PermGroup(q + 1, gens, frozenset(perms))


def frobenius_perm(q):
    """x -> x^p on the projective line, fixing infinity."""
    pk = prime_power(q)
    if pk is None:
        raise InvalidInput(f"{q} is not a prime power")
    p, k = pk
    field = make_field(p, k)
    elems = list(field.iter_elements())
    index_of = {x: i for i, x in enumerate(elems)}
    img = [index_of[field.power(x, p)] for x in elems]
    img.append(q)
    return tuple(img)


@lru_cache(maxsize=None)
def pgammal2_model(q):
    """PGL(2, q) extended by the Frobenius field automorphisms."""
    base = pgl2_model(q)
    p, k = prime_power(q)
    frob = frobenius_perm(q)
    powers = [identity(q + 1)]
    for _ in range(k - 1):
        powers.append(compose(frob, powers[-1]))
    elements = frozenset(
        compose(g, f) for g in base.elements for f in powers)
    if len(elements) != base.order * k:
        raise AssertionError(
            f"PGammaL(2, {q}) has {len(elements)} elements, "
            f"expected {base.order * k}")
    gens = base.generators if k == 1 else base.generators + (frob,)
    if closure(gens, q + 1) != elements:
        raise AssertionError(f"the generators do not generate PGammaL(2, {q})")
    return PermGroup(q + 1, gens, elements)


# -- conjugacy and normalizers inside the full symmetric group --


def _full_cycle_of(group):
    n = group.degree
    for p in sorted(group.elements):
        if cycle_type(p) == (n,):
            return p
    return None


def _cycle_route_candidates(c, target_elements, n):
    """All s with s^-1 c s landing on a full cycle of the target.

    Solutions of s^-1 c s = h are pinned by the image of one point, so
    each full cycle h contributes exactly n candidates.
    """
    for h in sorted(target_elements):
        if cycle_type(h) != (n,):
            continue
        seq_h = [0]
        for _ in range(n - 1):
            seq_h.append(h[seq_h[-1]])
        for v in range(n):
            s = [0] * n
            x = v
            for t in range(n):
                s[seq_h[t]] = x
                x = c[x]
            yield tuple(s)


def is_conjugate_in_sym(ga, gb):
    """A permutation s with s^-1 ga s == gb, or None."""
    if ga.degree != gb.degree or ga.order != gb.order:
        return None
    n = ga.degree
    if sorted(map(cycle_type, ga.elements)) != sorted(map(cycle_type, gb.elements)):
        return None
    if ga.elements == gb.elements:
        return identity(n)

    def maps_onto(s):
        conj = conjugator(s)
        return all(conj(g) in gb.elements for g in ga.generators)

    if n <= EXHAUSTIVE_DEGREE_CAP:
        for s in itertools.permutations(range(n)):
            if maps_onto(s):
                return s
        return None
    if n <= CYCLE_ROUTE_DEGREE_CAP:
        c = _full_cycle_of(ga)
        if c is None:
            raise CapExceeded(
                f"conjugacy search at degree {n} needs a full cycle in the group")
        for s in _cycle_route_candidates(c, gb.elements, n):
            if maps_onto(s):
                return s
        return None
    raise CapExceeded(
        f"conjugacy search capped at degree {CYCLE_ROUTE_DEGREE_CAP}, got {n}")


def normalizer_in_sym(group):
    """The normalizer of the group inside Sym(degree)."""
    n = group.degree

    def normalizes(s):
        conj = conjugator(s)
        return all(conj(g) in group.elements for g in group.generators)

    if n <= EXHAUSTIVE_DEGREE_CAP:
        found = [s for s in itertools.permutations(range(n)) if normalizes(s)]
    elif n <= CYCLE_ROUTE_DEGREE_CAP:
        c = _full_cycle_of(group)
        if c is None:
            raise CapExceeded(
                f"normalizer search at degree {n} needs a full cycle in the group")
        found = sorted({s for s in _cycle_route_candidates(c, group.elements, n)
                        if normalizes(s)})
    else:
        raise CapExceeded(
            f"normalizer search capped at degree {CYCLE_ROUTE_DEGREE_CAP}, got {n}")
    return PermGroup(n, reduce_generators(found), frozenset(found))


# -- permutation groups from generators or from elements --


def reduce_generators(perms):
    """A short generating tuple for the group the given elements form."""
    perms = sorted(set(perms))
    if not perms:
        raise InvalidInput("no permutations given")
    degree = len(perms[0])
    gens = []
    known = {identity(degree)}
    for p in perms:
        if p not in known:
            gens.append(p)
            known = closure(gens, degree)
    return tuple(gens)


def group_from_generators(generators, degree=None):
    gens = tuple(generators)
    elements = closure(gens, degree)
    if degree is None:
        degree = len(gens[0])
    return PermGroup(degree, gens, elements)


def group_from_elements(elements):
    """The group the elements form, refused unless they are closed."""
    gens = reduce_generators(elements)
    degree = len(gens[0]) if gens else len(next(iter(elements)))
    group = closure(gens, degree)
    if group != frozenset(elements):
        raise InvalidInput("element set is not closed under composition")
    return PermGroup(degree, gens, group)


# -- prime powers by a scan of every candidate --


def prime_power_by_scan(q):
    """prime_power as a scan of every candidate up to q: the first prime
    p that divides q, then (p, k) if q = p^k."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if q % p == 0 and is_prime(p):
            k, n = 0, q
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else None
    return None


# -- difference sets and matrices by brute force --


def all_difference_sets(q):
    """Every perfect difference set of order q, by exhaustive scan."""
    if q > ENUMERATION_Q_CAP:
        raise CapExceeded(f"exhaustive scan capped at q <= {ENUMERATION_Q_CAP}")
    if q < 2:
        raise InvalidInput(f"order must be at least 2, got {q}")
    m = q * q + q + 1
    return [DifferenceSet(q, m, combo)
            for combo in itertools.combinations(range(m), q + 1)
            if is_difference_set(combo, q)]


def field_model_singer_set(q):
    """Singer's difference set from the field model: exponents i of the
    primitive element w of GF(q^3) for which w^i lies in the plane
    spanned by 1 and w over the subfield GF(q), taken mod q^2+q+1.  The
    reference for singer_difference_set, which reads GF(q) off the
    powers of x instead."""
    p, eta = prime_power(q)
    field = make_field(p, 3 * eta)
    subfield = field.subfield(q)
    w = field.omega_coeffs
    span = {field.add(a, field.mul(b, w)) for a in subfield for b in subfield}
    span.discard(field.zero)
    m = q * q + q + 1
    exponents = set()
    acc = field.one
    for i in range(field.order - 1):
        if acc in span:
            exponents.add(i % m)
        acc = field.mul(acc, w)
    return DifferenceSet(q, m, tuple(sorted(exponents)))


@dataclass(frozen=True, slots=True)
class AffineMap:
    """x -> a*x + b on Z/mZ, with a a unit."""

    a: int
    b: int
    modulus: int

    def __post_init__(self):
        m = self.modulus
        if m < 2:
            raise InvalidInput("modulus must be at least 2")
        object.__setattr__(self, "a", self.a % m)
        object.__setattr__(self, "b", self.b % m)
        if math.gcd(self.a, m) != 1:
            raise InvalidInput(f"multiplier {self.a} is not a unit mod {m}")

    def __call__(self, x: int) -> int:
        return (self.a * x + self.b) % self.modulus


def agl_maps_onto(src, dst, m) -> Iterator[AffineMap]:
    """Every affine map carrying set src onto set dst, ascending in (a, b),
    for any sets: empty, with repeated entries or of unequal sizes.

    A map x -> a*x + b onto dst sends min(src) into dst, so for each unit
    a only the offsets b = d - a*min(src), d in dst, can work.  Every map
    carries the empty set onto itself.  The general form of
    diffsets.label_perms, which reads the same maps as label positions.
    """
    src_sorted = tuple(sorted(x % m for x in src))
    dst_sorted = tuple(sorted(x % m for x in dst))
    if len(src_sorted) != len(dst_sorted):
        return
    dst_set = set(dst_sorted)
    for a in zmod_units(m):
        offsets = ({(d - a * src_sorted[0]) % m for d in dst_set}
                   if src_sorted else range(m))
        for b in sorted(offsets):
            if all((a * x + b) % m in dst_set for x in src_sorted):
                image = tuple(sorted((a * x + b) % m for x in src_sorted))
                if image == dst_sorted:  # differs only on repeated entries
                    yield AffineMap(a, b, m)


def find_agl_map(src, dst, m):
    """First affine map (ascending in (a, b)) carrying set src onto set
    dst, or None."""
    return next(agl_maps_onto(src, dst, m), None)


def set_stabilizer_in_agl(D):
    """All affine maps fixing D as a set, ascending in (a, b)."""
    return list(agl_maps_onto(D.elements, D.elements, D.modulus))


def agl_orbit_of_set(D):
    """All images of D under the affine group, as sorted tuples: the
    reference for canonical_difference_set, which scans only the images
    that contain 0."""
    m = D.modulus
    return {
        tuple(sorted((a * d + b) % m for d in D.elements))
        for a in zmod_units(m) for b in range(m)
    }


def agl_maps(m):
    """All affine maps mod m, ascending in (a, b): the full scan that
    agl_maps_onto narrows to the offsets that can work."""
    for a in zmod_units(m):
        for b in range(m):
            yield AffineMap(a, b, m)


def compose_affine(g, h):
    """g after h."""
    if g.modulus != h.modulus:
        raise InvalidInput("modulus mismatch")
    return AffineMap(g.a * h.a, g.a * h.b + g.b, g.modulus)


def invert_affine(g):
    ainv = pow(g.a, -1, g.modulus)
    return AffineMap(ainv, -ainv * g.b, g.modulus)


def normalize_matrix(M, D):
    """Equivalent matrix whose three columns all equal D as sets and whose
    first column is D in ascending order: one affine map per column, then
    one simultaneous row sort.  A column that is not affine-equivalent to
    D cannot be normalized; the error names the column."""
    if D.q != M.q:
        raise InvalidInput("matrix and target set have different orders")
    mapped = []
    for t, col in enumerate(M.columns):
        g = find_agl_map(col.entries, D.elements, D.modulus)
        if g is None:
            raise InvalidInput(
                f"column {t} is not AGL-equivalent to the target set")
        mapped.append(tuple(map(g, col.entries)))
    order = sorted(range(M.q + 1), key=lambda i: mapped[0][i])
    cols = tuple(
        DifferenceVector(M.q, D.modulus, tuple(v[i] for i in order))
        for v in mapped)
    if cols[0].entries != D.elements:
        raise AssertionError("the row sort did not put column 0 in order")
    return DifferenceMatrix(M.q, cols)


# -- the census --


def coset_pair_orbits_per_code(least, coset_of, stab):
    """(orbit_of, first, lengths) as the library's _coset_pair_orbits
    returns them, by a walk over every coset pair code: each code not
    yet numbered opens an orbit, the set of its images under every
    move.  The reference for the library's walk by stabilizer rows."""
    n = len(least)
    moved = [_right_table(least, coset_of, inverse(p0)) for p0 in stab]
    orbit_of = array("i", [-1]) * (n * n)
    first = array("i")
    lengths = array("i")
    for code in range(n * n):
        if orbit_of[code] < 0:
            c1, c2 = divmod(code, n)
            orbit = {m[c1] * n + m[c2] for m in moved}
            for other in orbit:
                orbit_of[other] = len(first)
            first.append(code)
            lengths.append(len(orbit))
    return orbit_of, first, lengths


def extra_move_roots_per_pair(q, least, coset_of, stab, orbit_of):
    """For each coarse class, the least coarse class that rotation and
    duality join it to, by union-find over the images of every coset
    pair: the reference for the library's walk over one pair per class.

    Rotation (alpha1, alpha2) -> (alpha2 alpha1, alpha1^-1) does not
    normalize the coarse moves, so one image per class is not enough.
    On (s.b1, s'.b2) a p1 move absorbs s', so the images of (s.b1, b2)
    over s in S, with b1, b2 least in their cosets, reach every class
    a coset pair rotates into.  Duality maps coset pairs onto coset
    pairs once nu S nu^-1 = S, so one image per pair suffices.
    """
    nu = _duality_perm(q)
    nu_inv = inverse(nu)
    if {compose(nu, compose(s, nu_inv)) for s in stab} != set(stab):
        raise AssertionError("duality does not normalize the stabilizer")
    n = len(least)
    parent = list(range(max(orbit_of) + 1))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def join(k1, k2):
        r1, r2 = find(k1), find(k2)
        if r1 != r2:  # the root stays the least class of its component
            parent[max(r1, r2)] = min(r1, r2)

    dual = [coset_of[compose(nu, compose(b, nu_inv))] for b in least]
    for c1, b1 in enumerate(least):
        row = orbit_of[c1 * n:(c1 + 1) * n]
        for s in stab:
            sb1 = compose(s, b1)
            after_sb1 = itemgetter(*sb1)  # b2 -> compose(b2, sb1)
            tail = coset_of[inverse(sb1)]
            for k, b2 in zip(row, least):
                join(k, orbit_of[coset_of[after_sb1(b2)] * n + tail])
        for c2, k in enumerate(row):
            join(k, orbit_of[dual[c2] * n + dual[c1]])
    return [find(k) for k in range(len(parent))]


def census_to_text_per_row(classes):
    """One formatted string per class, joined: the reference for the
    library's census text, which formats each distinct piece once."""
    lines = []
    for c in classes:
        w = c.verdict.witness
        lines.append(
            f"alpha1={perm_to_str(c.representative.alpha1)} "
            f"alpha2={perm_to_str(c.representative.alpha2)} "
            f"orbit={c.orbit_size} verdict={c.verdict.outcome} "
            f"witness={w.summary() if w is not None else '-'}")
    return "\n".join(lines) + "\n"


# -- collineations and elations of the plane of a difference vector --


@lru_cache(maxsize=None)
def plane_tables(plane):
    """The engine's tables of the plane of a difference vector."""
    return _incidence_tables(*incidence_lists(plane))


def collineations(plane, point_seed=None, line_seed=None):
    """The collineations extending the given partial point and line
    maps, as (point map, line map) pairs sorted by point map, each one
    checked by the engine's map check."""
    tables = plane_tables(plane)
    search = _Search(tables)
    if not search.seed(point_seed or {}, line_seed or {}):
        return []
    found = sorted(search.run())
    for g in found:
        _check_map(tables, *g)
    return found


def all_collineations(plane):
    """The full collineation group, by unseeded search; tiny orders only."""
    if plane.q > FULL_GROUP_Q_CAP:
        raise CapExceeded(
            f"full group enumeration capped at q <= {FULL_GROUP_Q_CAP}, got {plane.q}")
    return collineations(plane)


def elations_with(plane, center, axis):
    """The group of elations with the given center and axis, including
    the identity: the maps fixing every point of the axis and every line
    through the center."""
    line_pts, pt_lines = incidence_lists(plane)
    if center not in line_pts[axis]:
        raise InvalidInput(f"center {center} is not on axis {axis}")
    return collineations(plane, {p: p for p in line_pts[axis]},
                         {y: y for y in pt_lines[center]})


def is_desarguesian(plane):
    """True iff every incident (center, axis) pair carries a full group of
    q elations, which is the Moufang condition for a plane."""
    return all(len(elations_with(plane, center, axis)) == plane.q
               for axis, points in enumerate(incidence_lists(plane)[0])
               for center in points)


def verify_plane_axioms(line_pts):
    """True iff the lines, given as the lists of their points 0..n-1,
    make a projective plane: two distinct points lie on exactly one
    common line, two distinct lines meet in exactly one point, and some
    four points have no three of them collinear."""
    lines = [frozenset(pts) for pts in line_pts]
    pencils = [frozenset(x for x, pts in enumerate(lines) if p in pts)
               for p in range(len(lines))]
    if any(len(a & b) != 1 for blocks in (lines, pencils)
           for a, b in itertools.combinations(blocks, 2)):
        return False
    return any(not any(pencils[a] & pencils[b] & pencils[c]
                       for a, b, c in itertools.combinations(quad, 3))
               for quad in itertools.combinations(range(len(lines)), 4))


def preserves_labels(plane, c):
    """True iff the collineation c keeps the label of every flag."""
    m = plane.modulus
    pmap, lmap = c
    return all(pmap[(x + d) % m] == (lmap[x] + d) % m
               for x in range(m) for d in plane.entries)


def elation_cycle_profile(plane, point_map, center, axis, line):
    """Cycle structure (k, c) of a nontrivial elation with the given
    center and axis on the q points of a center line other than the
    axis: k disjoint cycles of equal length c, k * c = q."""
    line_pts = incidence_lists(plane)[0]
    if point_map == tuple(range(plane.modulus)):
        raise InvalidInput("cycle profile of the trivial elation is undefined")
    if line == axis:
        raise InvalidInput("profile line must differ from the axis")
    if center not in line_pts[line]:
        raise InvalidInput(f"line {line} does not pass through the center")
    lengths = []
    seen = set()
    for start in line_pts[line]:
        if start == center or start in seen:
            continue
        n = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = point_map[x]
            n += 1
        lengths.append(n)
    if sum(lengths) != plane.q:
        raise AssertionError(
            f"the cycles cover {sum(lengths)} points, expected {plane.q}")
    k = len(lengths)
    c = lengths[0]
    if any(length != c for length in lengths):
        raise AssertionError(f"cycles of unequal lengths {lengths}")
    return (k, c)


def conjugate_by(group, s):
    """The group s^-1 * G * s, by permgrp.conjugator."""
    conj = conjugator(s)
    return PermGroup(group.degree, map(conj, group.generators),
                     map(conj, group.elements))
