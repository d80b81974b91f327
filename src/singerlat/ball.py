"""Radius-1 and radius-2 balls of the labelled complex of a difference
matrix, and the level-1 and level-2 local geometries at the center.

The ball is a simplicial complex with typed vertices: every triangle
(chamber) has one vertex of each type 0, 1, 2, and the link of a type-t
vertex is the incidence graph of the labelled plane of column t.  The
radius-1 ball is the cone over the center's plane; the radius-2 ball
completes the residue of every sphere-1 vertex to a full plane, each
chamber written once, by the residue of its least vertex.

The level-2 geometry at the center O has points (p1, p2) where p1 is a
point of the residue of O and p2 a point of the residue of p1 away from
the line O; lines are the dual pairs.  Incidence is decided inside the
ball by a short gallery of chambers.
"""

import itertools
import math
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .diffsets import DifferenceMatrix, DifferenceVector
from .errors import CapExceeded, GluingError, InternalError, InvalidInput
from .plane import _chain_orbits, _check_map, _incidence_tables, _Search

BALL_Q_CAP = 9
H2_GROUP_Q_CAP = 2


@dataclass(frozen=True, slots=True)
class BallComplex:
    """A ball stored as its chambers and vertex data; the radius, the
    center and the edges are read off them, so none can disagree."""
    q: int
    matrix: DifferenceMatrix
    types: tuple[int, ...]
    dists: tuple[int, ...]
    chambers: tuple[tuple[int, int, int, int], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.types)

    @property
    def radius(self) -> int:
        return max(self.dists)

    @property
    def center(self) -> int:
        # the one vertex at dist 0
        return self.dists.index(0)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        # the panels of the chambers, sorted
        n = self.vertex_count
        # one list per slot: zip(*chambers) would track an iterator each
        corners = [[ch[k] for ch in self.chambers] for k in range(3)]
        codes = _panel_codes(corners, n)
        return tuple(map(divmod, codes, itertools.repeat(n)))


def _panel_codes(corners, n: int) -> list[int]:
    """The sorted codes x * n + y, x <= y, of the panels of the chambers
    whose vertex columns are corners, each panel once."""
    return sorted({x * n + y if x <= y else y * n + x
                   for u, v in itertools.combinations(corners, 2)
                   for x, y in zip(u, v)})


@dataclass(frozen=True, slots=True)
class BallReport:
    ok: bool
    failures: tuple[str, ...]
    residue_status: tuple[tuple[int, bool], ...]


@dataclass(frozen=True, slots=True)
class HjelmslevPlane:
    level: int
    points: tuple[tuple, ...]
    lines: tuple[tuple, ...]
    incidence: frozenset


@dataclass(frozen=True, slots=True)
class H2GroupSummary:
    order: int
    base_image_order: int
    fiber_kernel_order: int
    elation_count: int
    neighbor_fixing_ok: bool
    free_action_ok: bool


def _check_source(ball: BallComplex, what: str) -> None:
    # a parsed export carries no matrix, and its ids need not follow
    # build_ball's numbering, which the level-2 Singer shifts read
    if ball.matrix is None:
        raise InvalidInput(
            f"{what} needs the source matrix, which a parsed ball "
            f"export does not carry")


def build_ball(M: DifferenceMatrix, radius: int) -> BallComplex:
    """Assemble the radius-1 or radius-2 ball around a type-0 vertex.

    Sphere-1 vertices are the points and lines of the center's plane;
    at radius 2 each of them gets the full plane of its own column,
    anchored so that the chambers through the center keep their labels,
    and the two completions meeting over a sphere-1 panel share their
    type-0 vertices.  Vertex ids come from closed formulas, in blocks
    ordered by (dist, type) and then by name:

        0                    the center ("O",)
        1 + p                the points ("pt", p) of the center's plane
        1 + m + l            its lines ("ln", l)
        t0 + (m-1)l + z - 1  ("lnres", l, "P", z), z != 0: the points of
                             the residue of line l, glued type-0 vertices
        t1 + q^2 l + r       ("lnres", l, "L", w): the r-th line off point
                             0 of that residue
        t2 + q^2 p + r       ("ptres", p, "P", u): the r-th point off line
                             0 of the residue of point p

    Each chamber is written once, by the residue of its least vertex:
    the center its m(q+1) chambers, point p its flags off line 0, line
    l its flags on lines off point 0.  The copies left out agree by
    construction: on the panel (point p, line l = p - v0[j]) both
    residues give the label-k chamber the vertex ("lnres", l, "P",
    v2[k] - v2[j]) once by_diff is a bijection onto the nonzero residues,
    the one check kept, and a center chamber keeps its label j in every
    residue, as the entries v0[.] are distinct.  verify_ball checks the
    complex against the matrix columns on its own.
    """
    q, m = M.q, M.columns[0].modulus
    if radius not in (1, 2):
        raise InvalidInput(f"radius must be 1 or 2, got {radius}")
    if q > BALL_Q_CAP:
        raise CapExceeded(
            f"radius {radius} ball capped at q <= {BALL_Q_CAP}, got {q}")
    v0, v1, v2 = (c.entries for c in M.columns)

    types = [0] + [1] * m + [2] * m
    dists = [0] + [1] * (2 * m)
    raw = [(0, 1 + (x + d) % m, 1 + m + x, j)
           for x in range(m) for j, d in enumerate(v0)]
    if radius == 2:
        qq = q * q
        t0 = 1 + 2 * m
        t1 = t0 + m * (m - 1)
        t2 = t1 + m * qq
        # the residue of point p is the column-1 plane: its line 0 is the
        # center, its point v1[j] the label-j line p - v0[j] of the
        # center's plane.  On the panel of that flag the label-k chamber
        # lies in both residues, so its line v1[j] - v1[k] there is the
        # point v2[k] - v2[j] of the residue of line p - v0[j]
        by_diff = {(v1[j] - v1[k]) % m: (v0[j], (v2[k] - v2[j]) % m - 1)
                   for j in range(q + 1) for k in range(q + 1) if j != k}
        if len(by_diff) != m - 1:
            raise GluingError(
                f"column 1 differences {v1} miss a nonzero residue mod {m}")
        glue = [by_diff[w] for w in range(1, m)]
        # the residue of line l is the column-2 plane: its point 0 is the
        # center, its lines through point 0 the sphere-1 points
        line0 = {d: j for j, d in enumerate(v1)}
        through0 = {(-d) % m for d in v2}
        off_line0 = [u for u in range(m) if u not in line0]
        off_point0 = [w for w in range(m) if w not in through0]
        pt_rows = [[(w + d) % m for d in v1] for w in range(1, m)]
        ln_rows = [[(w + d) % m for d in v2] for w in off_point0]

        for p in range(m):
            res_lines = [t0 + (m - 1) * ((p - a) % m) + b for a, b in glue]
            res_points = [None] * m
            for u, j in line0.items():
                res_points[u] = 1 + m + (p - v0[j]) % m
            for r, u in enumerate(off_line0, start=t2 + qq * p):
                res_points[u] = r
            raw += [(x, 1 + p, res_points[u], k)
                    for x, row in zip(res_lines, pt_rows)
                    for k, u in enumerate(row)]
        for l in range(m):
            # ("lnres", l, "P", z) is base + z; z != 0 off point 0
            base = t0 + (m - 1) * l - 1
            raw += [(base + z, r, 1 + m + l, k)
                    for r, row in enumerate(ln_rows, start=t1 + qq * l)
                    for k, z in enumerate(row)]

        types += [0] * (m * (m - 1)) + [1] * (m * qq) + [2] * (m * qq)
        dists += [2] * (m * (m - 1) + 2 * m * qq)

    return BallComplex(q=q, matrix=M, types=tuple(types), dists=tuple(dists),
                       chambers=tuple(sorted(raw)))


def _labelled_plane_isomorphic(flags, plane: DifferenceVector) -> bool:
    """Whether the flag list is a labelled plane isomorphic to plane,
    by sending the least line to line 0 and following the forced
    label-matching: to its points, to the lines through them, and from
    those lines to every other point."""
    m, q = plane.modulus, plane.q
    # m lines and m points, each on one flag of every label 0..q: with
    # m(q+1) flags in all, that is distinct (line, point), (line, label)
    # and (point, label) pairs with every label in 0..q
    n = len(flags)
    if (len({l for l, _, _ in flags}) != m
            or len({p for _, p, _ in flags}) != m or n != m * (q + 1)):
        return False
    if (len({(l, p) for l, p, _ in flags}) != n
            or len({(l, k) for l, _, k in flags}) != n
            or len({(p, k) for _, p, k in flags}) != n
            or not set(range(q + 1)).issuperset(k for _, _, k in flags)):
        return False

    # one image of the anchor suffices: x -> x + t keeps every label of
    # the difference-set plane, so an isomorphism sending the anchor to
    # t shifts to one sending it to 0; and every image below is forced,
    # so they rebuild that shifted isomorphism whenever one exists.  In
    # a projective plane every line meets the anchor, so a line missed
    # by the second step refutes the isomorphism
    entries = plane.entries
    anchor = min(l for l, _, _ in flags)
    point_img = {p: entries[k] for l, p, k in flags if l == anchor}
    line_img = {}
    for l, p, k in flags:
        if p in point_img:
            target = (point_img[p] - entries[k]) % m
            if line_img.setdefault(l, target) != target:
                return False
    if len(line_img) != m:
        return False
    for l, p, k in flags:
        target = (line_img[l] + entries[k]) % m
        if point_img.setdefault(p, target) != target:
            return False
    # m distinct images among m lines (points): a bijection
    return (len(set(line_img.values())) == m
            and len(set(point_img.values())) == m)


def verify_ball(ball: BallComplex) -> BallReport:
    """Check every structural invariant and collect failures instead of
    raising: chamber typing, interior panel thickness with per-panel
    label bijections, and labelled residue isomorphism at every interior
    vertex.  The residues are compared with the source matrix, so a
    parsed export, which has none, is refused."""
    _check_source(ball, "the residue check")
    failures = []
    q, radius, types, dists = ball.q, ball.radius, ball.types, ball.dists
    n = ball.vertex_count
    # one pass over the chambers, so every list keeps chamber order: the
    # labels on each interior panel by its code x * n + y, x <= y, and
    # the chambers holding each interior vertex x in slot types[x]
    inner = [d < radius for d in dists]
    panel_labels = {}
    on_panel = panel_labels.setdefault
    residues = {x: [] for x in range(n) if inner[x]}
    for ch in ball.chambers:
        a, b, c, label = ch
        ta, tb, tc = types[a], types[b], types[c]
        if (ta, tb, tc) != (0, 1, 2):
            failures.append(f"chamber {ch} lacks one vertex of each type")
        if not 0 <= label <= q:
            failures.append(f"chamber {ch} label out of range")
        ia, ib, ic = inner[a], inner[b], inner[c]
        if ia or ib:
            on_panel(a * n + b if a <= b else b * n + a, []).append(label)
        if ia or ic:
            on_panel(a * n + c if a <= c else c * n + a, []).append(label)
        if ib or ic:
            on_panel(b * n + c if b <= c else c * n + b, []).append(label)
        if ia and ta == 0:
            residues[a].append(ch)
        if ib and tb == 1:
            residues[b].append(ch)
        if ic and tc == 2:
            residues[c].append(ch)

    every_label = list(range(q + 1))
    for code in sorted(panel_labels):
        labels = sorted(panel_labels[code])
        if labels != every_label:
            failures.append(
                f"interior panel {divmod(code, n)} carries labels {labels} "
                f"instead of one chamber per label")

    residue_status = []
    for x, held in residues.items():
        # the flags (line, point, label) of the plane at x: its type t+1
        # neighbors are the points, its type t+2 neighbors the lines
        t = types[x]
        pt_slot, ln_slot = (t + 1) % 3, (t + 2) % 3
        flags = [(ch[ln_slot], ch[pt_slot], ch[3]) for ch in held]
        good = _labelled_plane_isomorphic(flags, ball.matrix.columns[t])
        residue_status.append((x, good))
        if not good:
            failures.append(
                f"residue of vertex {x} is not the labelled plane of "
                f"column {t}")

    return BallReport(
        ok=not failures, failures=tuple(failures),
        residue_status=tuple(residue_status))


def extract_hjelmslev(ball: BallComplex, n: int) -> HjelmslevPlane:
    """Level-1 geometry: the residue of the center.  Level-2: points are
    (p1, p2) with p2 a residue-of-p1 point off the line of the center,
    lines dual; (p1, p2) lies on (l1, l2) when the line z joining p2
    and l1 in the residue of p1 carries a chamber (z, l2, l1)."""
    if n not in (1, 2):
        raise InvalidInput(f"level must be 1 or 2, got {n}")
    if ball.radius < n:
        raise InvalidInput(f"radius {ball.radius} ball has no level {n}")
    O = ball.center
    types, dists = ball.types, ball.dists
    if n == 1:
        sphere1_pts = [v for v in range(ball.vertex_count)
                       if dists[v] == 1 and types[v] == 1]
        sphere1_lns = [v for v in range(ball.vertex_count)
                       if dists[v] == 1 and types[v] == 2]
        # the flags (p, l) of the center's residue, by the chambers (O, p, l)
        pt_set, ln_set = set(sphere1_pts), set(sphere1_lns)
        incidence = frozenset(
            ((p,), (l,)) for o, p, l, _ in ball.chambers
            if o == O and p in pt_set and l in ln_set)
        return HjelmslevPlane(1, tuple((p,) for p in sphere1_pts),
                              tuple((l,) for l in sphere1_lns), incidence)

    # one pass over the type-0 vertices z other than the center: the
    # lines of the sphere-1 points' residues.  On z, a chamber (z, p1, u)
    # with p1 on sphere 1 puts the residue point u of p1 on z: a point
    # (p1, u) when u is on sphere 2, a line l1 of the center when not.
    # A chamber (z, l2, l1) with l1 on sphere 1 puts the line (l1, l2)
    # on z
    on_z = {}  # the chambers by their type-0 vertex
    for ch in ball.chambers:
        on_z.setdefault(ch[0], []).append(ch)
    # joined codes each pair u < v of points of the residue of p1 that a
    # line spans as (p1 * nv + u) * nv + v, with no tuple per pair
    points, lines, incidence, joined = set(), set(), set(), set()
    nv = ball.vertex_count
    for z, t in enumerate(types):
        if t != 0 or z == O:
            continue
        res_pts, z_lines = {}, {}
        for _, b, c, _ in on_z.get(z, ()):
            if dists[b] == 1:
                res_pts.setdefault(b, set()).add(c)
            elif dists[c] == 1:
                lines.add((c, b))
                z_lines.setdefault(c, []).append((c, b))
        for p1, us in res_pts.items():
            # any two points of the residue of p1 span one line
            for u, v in itertools.combinations(sorted(us), 2):
                code = (p1 * nv + u) * nv + v
                if code in joined:
                    raise InternalError(
                        f"points {u}, {v} of the residue of {p1} span "
                        f"two lines")
                joined.add(code)
            z_points = [(p1, u) for u in us if dists[u] == 2]
            points.update(z_points)
            for l1 in us:
                if dists[l1] == 1:
                    incidence.update(itertools.product(
                        z_points, z_lines.get(l1, ())))
    return HjelmslevPlane(2, tuple(sorted(points)), tuple(sorted(lines)),
                          frozenset(incidence))


class _H2Tables(NamedTuple):
    """The level-2 plane by index, for the engine and the summary."""
    pt_lines: list  # the lines through each point, as a set
    pt_fibers: dict  # level-1 point -> the numbers of the points over it
    ln_fibers: dict
    engine: tuple  # plane._incidence_tables of the level-2 plane


def _h2_tables(H: HjelmslevPlane) -> _H2Tables:
    pt_index = {p: i for i, p in enumerate(H.points)}
    ln_index = {l: i for i, l in enumerate(H.lines)}
    pt_lines = [[] for _ in H.points]
    ln_points = [[] for _ in H.lines]
    for p, l in sorted(H.incidence):
        i, j = pt_index[p], ln_index[l]
        pt_lines[i].append(j)
        ln_points[j].append(i)
    pt_fibers = {}
    for i, p in enumerate(H.points):
        pt_fibers.setdefault(p[0], []).append(i)
    ln_fibers = {}
    for i, l in enumerate(H.lines):
        ln_fibers.setdefault(l[0], []).append(i)
    return _H2Tables(
        [frozenset(s) for s in pt_lines], pt_fibers, ln_fibers,
        _incidence_tables(ln_points, pt_lines))


def _h2_singer_maps(ball: BallComplex, H: HjelmslevPlane, tables):
    """Label-preserving collineations: the center's cyclic shift
    x -> x + t forces the whole map, one map per shift.  build_ball
    numbers each run of equal (dist, type) residue by residue, size // m
    ids a residue (the center's run has one id), so shift t sends the
    run's i-th id to its (i + t * (size // m)) mod size-th."""
    m = ball.matrix.columns[0].modulus
    sizes = [len(list(run)) for _, run in
             itertools.groupby(zip(ball.dists, ball.types))]
    pt_index = {p: i for i, p in enumerate(H.points)}
    ln_index = {l: i for i, l in enumerate(H.lines)}
    maps = []
    for t in range(m):
        vmap = []
        for size in sizes:
            start, step = len(vmap), t * (size // m)
            vmap += [start + (i + step) % size for i in range(size)]
        pmap = tuple(pt_index[vmap[a], vmap[b]] for a, b in H.points)
        lmap = tuple(ln_index[vmap[a], vmap[b]] for a, b in H.lines)
        _check_map(tables.engine, pmap, lmap)
        maps.append((pmap, lmap))
    return maps


def _h2_elation_laws(H: HjelmslevPlane, tables, h1_flags, center, axis,
                     pmap, lmap):
    """(neighbor_ok, free_ok) for a map fixing every point of the axis
    and every line through the center; h1_flags are the level-1 flags."""
    af, ln_points = H.lines[axis][0], tables.engine[2]
    neighbor_ok = (
        all(pmap[i] == i for i in tables.pt_fibers[H.points[center][0]])
        and all(lmap[j] == j for j in tables.ln_fibers[af]))
    # free action off the axis: a point whose fiber meets the axis's
    # level-1 line is near it, and may be fixed
    free_ok = not any(
        pmap[p] == p for y in tables.pt_lines[center] for p in ln_points[y]
        if (H.points[p][0], af) not in h1_flags)
    return neighbor_ok, free_ok


def h2_collineations_fixing_center(ball: BallComplex,
                                   labels_only=False) -> H2GroupSummary:
    """Group summary of the level-2 collineations, with the two elation
    laws checked for every elation found and reported as
    neighbor_fixing_ok and free_action_ok: an elation fixes the full
    fiber of its center and axis, and moves every point of an auxiliary
    line through the center that is not near the axis."""
    if ball.q > H2_GROUP_Q_CAP:
        raise CapExceeded(
            f"level-2 group search capped at q <= {H2_GROUP_Q_CAP}, "
            f"got {ball.q}")
    _check_source(ball, "the level-2 group search")
    H = extract_hjelmslev(ball, 2)
    tables = _h2_tables(H)
    identity = (tuple(range(len(H.points))), tuple(range(len(H.lines))))
    # the orders of the group and of its fiber kernel K, the maps that
    # keep every point in its fiber: by stabilizer chains, K's with the
    # fibers as domains; with labels_only the group is the shifts
    fibers = [frozenset(tables.pt_fibers[p[0]]) for p in H.points]
    if labels_only:
        shifts = _h2_singer_maps(ball, H, tables)
        if identity not in shifts:
            raise InternalError("the identity is not among the collineations")
        order = len(shifts)
        kernel_order = sum(all(v in fiber for v, fiber in zip(pmap, fibers))
                           for pmap, _ in shifts)
    else:
        order = math.prod(_chain_orbits(tables.engine))
        kernel_order = math.prod(_chain_orbits(tables.engine, fibers))
    if order % kernel_order:
        raise InternalError(
            f"the fiber kernel order {kernel_order} does not divide the "
            f"group order {order}")

    # the elations at each flag: a search seeded with every point of the
    # axis and every line through the center fixed (with labels_only,
    # the shifts that fix them), and both laws checked at that flag.
    # The level-2 flags project onto the level-1 flags.
    h1_flags = {(H.points[i][0], H.lines[j][0])
                for i, lines in enumerate(tables.pt_lines) for j in lines}
    elations, laws = set(), set()
    for ci, center_lines in enumerate(tables.pt_lines):
        for ax in sorted(center_lines):
            axis_pts = tables.engine[2][ax]  # the points of ax, as a set
            if labels_only:
                found = [(pmap, lmap) for pmap, lmap in shifts
                         if all(pmap[p] == p for p in axis_pts)
                         and all(lmap[y] == y for y in center_lines)]
            else:
                search = _Search(tables.engine)
                found = search.run() if search.seed(
                    {p: p for p in axis_pts},
                    {y: y for y in center_lines}) else ()
            for pmap, lmap in found:
                if (pmap, lmap) == identity:
                    continue
                _check_map(tables.engine, pmap, lmap)
                elations.add((pmap, lmap))
                laws.add(_h2_elation_laws(H, tables, h1_flags, ci, ax,
                                          pmap, lmap))

    return H2GroupSummary(
        order=order, base_image_order=order // kernel_order,
        fiber_kernel_order=kernel_order, elation_count=len(elations),
        neighbor_fixing_ok=all(ok for ok, _ in laws),
        free_action_ok=all(ok for _, ok in laws))


def complex_to_text(ball: BallComplex) -> str:
    vertices = zip(range(ball.vertex_count), ball.types, ball.dists)
    return (_rows("vertex %d type=%d dist=%d\n", tuple(vertices))
            + _rows("edge %d %d\n", ball.edges)
            + _rows("chamber %d %d %d label=%d\n", ball.chambers))


def _rows(template, rows):
    # one % format for all rows of a kind
    return template * len(rows) % tuple(itertools.chain.from_iterable(rows))


# the layout complex_to_text writes, one group per block of rows.  The
# repeats are possessive where re has them (Python 3.11+): a greedy one
# keeps backtracking state for every row, 144 MB for a q = 9 ball.
_REPEAT = "*+" if sys.version_info >= (3, 11) else "*"
_LAYOUT_RE = re.compile(
    r"((?:vertex [0-9]+ type=[0-9]+ dist=[0-9]+\n)" + _REPEAT + ")"
    r"((?:edge [0-9]+ [0-9]+\n)" + _REPEAT + ")"
    r"((?:chamber [0-9]+ [0-9]+ [0-9]+ label=[0-9]+\n)" + _REPEAT + ")")
# every character of the row keywords; the rest of a row is digits and spaces
_KEYWORDS = str.maketrans("", "", "abcdeghilmprstvxy=")
_TYPES = {"0": 0, "1": 1, "2": 2}


def complex_from_text(text: str) -> BallComplex:
    """Inverse of complex_to_text up to what the export carries: the
    source matrix is not exported and comes back as None.

    The one layout read is the one complex_to_text writes: vertex rows
    with ids 0, 1, ... in order, then edge rows, then chamber rows, with
    every number in ASCII digits and no leading zero.  Any line ending
    reads as a newline, and the final one is optional.  Types lie in
    0..2, and dists, edge and chamber vertices and labels in 0..n-1 for
    n vertex rows.  The edge rows are the sorted panels of the chambers,
    each once, as complex_to_text writes them.  No edge joins dists more
    than 1 apart, and each vertex at dist d > 0 has a neighbor at dist
    d - 1, so with one center every dist is the graph distance from it:
    dists rise by at most 1 a step along a shortest path, and d steps
    down from dist d reach the center.  Each chamber row lists vertices
    of types 0, 1 and 2, in that order.  Any other text raises
    InvalidInput naming the line at fault, save an export with no
    chambers or without exactly one center (dist 0)."""
    body = "\n".join(text.splitlines() + [""])
    layout = _LAYOUT_RE.match(body)
    vertex_rows, edge_rows, chamber_rows = layout.groups()
    fields = vertex_rows.translate(_KEYWORDS).split()
    n = len(fields) // 3
    keys = list(map(str, range(n)))
    ids = fields[::3]
    if ids != keys:
        k = next(k for k in range(n) if ids[k] != keys[k])
        raise InvalidInput(f"line {k + 1}: vertex id {ids[k]} out of order")
    # every vertex row precedes the first row out of the layout, so its
    # faults come first; edges and chambers wait for the whole vertex list
    value = dict(zip(keys, range(n)))
    types = _values(fields[1::3], _TYPES, 1, ("vertex type",))
    dists = _values(fields[2::3], value, 1, ("vertex dist",))
    end = layout.end()
    if end < len(body):
        line = body.count("\n", 0, end) + 1
        row = body[end:body.index("\n", end)]
        if _LAYOUT_RE.fullmatch(row + "\n"):
            raise InvalidInput(
                f"line {line}: row {row!r} out of the vertex, edge, "
                f"chamber order")
        raise InvalidInput(f"line {line}: unrecognized row {row!r}")
    if not chamber_rows:
        raise InvalidInput("complex export has no chambers")
    if dists.count(0) != 1:
        raise InvalidInput("complex export must have exactly one center")
    ends = _values(edge_rows.translate(_KEYWORDS).split(), value, n + 1,
                   ("edge endpoint",) * 2)
    corners = _values(chamber_rows.translate(_KEYWORDS).split(), value,
                      n + len(ends) // 2 + 1,
                      ("chamber vertex",) * 3 + ("chamber label",))
    a, b, c = corners[::4], corners[1::4], corners[2::4]
    edges = tuple(zip(ends[::2], ends[1::2]))
    _check_edges(edges, _panel_codes((a, b, c), n), n)
    _check_dists(edges, dists, n)
    _check_slot_types((a, b, c), types, n + len(edges) + 1)
    return BallComplex(
        q=max(corners[3::4]), matrix=None, types=types, dists=dists,
        chambers=tuple(zip(a, b, c, corners[3::4])))


def _check_edges(edges, want, n):
    """Refuse the first edge row that is not the panel put there by want,
    the sorted panel codes of the chambers: edge (x, y) of n vertices is
    x * n + y, and a chamber panel is coded with x <= y, so a reversed,
    repeated, dropped or extra row moves the codes.  The edge rows start
    on line n + 1."""
    rows = [x * n + y for x, y in edges]
    if rows == want:
        return
    k = next((k for k, (row, panel) in enumerate(zip(rows, want))
              if row != panel), min(len(rows), len(want)))
    line = n + 1 + k
    got = "edge %d %d" % edges[k] if k < len(edges) else "no edge row"
    if k == len(want):
        raise InvalidInput(f"line {line}: {got} past the last chamber panel")
    x, y = divmod(want[k], n)
    raise InvalidInput(
        f"line {line}: {got} where the chamber panels give edge {x} {y}")


def _check_dists(edges, dists, n):
    """Refuse the first edge row whose ends' dists differ by more than 1,
    then the vertex at dist d > 0 nearest the center, least id first,
    with no neighbor at dist d - 1.  Edge rows start on line n + 1."""
    nearer = set()  # the vertices with a neighbor one dist nearer
    for k, (x, y) in enumerate(edges):
        dx, dy = dists[x], dists[y]
        if abs(dx - dy) > 1:
            raise InvalidInput(
                f"line {n + 1 + k}: edge {x} {y} joins dists {dx} and {dy}")
        if dx != dy:
            nearer.add(x if dx > dy else y)
    stray = [(d, v) for v, d in enumerate(dists) if d and v not in nearer]
    if stray:
        d, v = min(stray)
        raise InvalidInput(
            f"line {v + 1}: vertex {v} at dist {d} has no neighbor at "
            f"dist {d - 1}")


def _check_slot_types(corners, types, first_line):
    """Refuse the first chamber row (rows start on line first_line) not
    typed 0, 1, 2 in slot order; corners[t] holds slot t of each row."""
    if all({types[v] for v in slot} == {t} for t, slot in enumerate(corners)):
        return
    k, abc = next((k, abc) for k, abc in enumerate(zip(*corners))
                  if [types[v] for v in abc] != [0, 1, 2])
    raise InvalidInput(
        "line %d: chamber %d %d %d has vertex types %d %d %d, not 0 1 2"
        % (first_line + k, *abc, *(types[v] for v in abc)))


def _values(tokens, table, first_line, names):
    """The table values of tokens, which fill rows of one token per
    field name from line first_line on; a token outside the table is
    refused at its row."""
    try:
        return tuple(map(table.__getitem__, tokens))
    except KeyError:
        k = next(k for k, token in enumerate(tokens) if token not in table)
        width = len(names)
        raise InvalidInput(
            f"line {first_line + k // width}: {names[k % width]} "
            f"{tokens[k]} outside 0..{len(table) - 1}") from None
