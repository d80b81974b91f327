"""The labelled projective plane of a difference vector, and the
backtracking engine that searches collineations.

A difference vector (d_0, ..., d_q) mod m = q^2 + q + 1 is its own
plane: points and lines are both residues mod m, line x carries the
points x + d_j, and the flag (line x, point x + d_j) has label j.
Labels are 0-based positions into the entry tuple; dually, the lines
through a point p are p - d_j, again with label j.  The difference
property makes every join and meet unique.

The collineation search assigns point images by backtracking and forces
line images through incidence closure: once two points of a line have
images, the image line is the join of the image points, and two mapped
lines force the image of their meet.  The engine reads only index
tables, so it also searches the level-2 planes of singerlat.ball, where
neighbouring points have no unique join.
"""

import itertools
import re
from functools import lru_cache

from .diffsets import DifferenceVector, canonical_difference_set
from .errors import InternalError, InvalidInput


@lru_cache(maxsize=None)
def canonical_plane(q):
    """The plane of the canonical difference set, labelled in its order."""
    D = canonical_difference_set(q)
    return DifferenceVector(q, D.modulus, D.elements)


def incidence_lists(plane):
    """The points on each line and the lines through each point of the
    plane of a difference vector, each in label order."""
    m, entries = plane.modulus, plane.entries
    return ([tuple((x + d) % m for d in entries) for x in range(m)],
            [tuple((p - d) % m for d in entries) for p in range(m)])


# -- collineation search --


def _unique_common(blocks, n):
    # -1 where a pair lies in no block or in several: in a Hjelmslev
    # plane those are the neighbours
    table = [[-1] * n for _ in range(n)]
    for i, block in enumerate(blocks):
        for a in block:
            row = table[a]
            for b in block:
                if b != a:
                    row[b] = i if row[b] == -1 else -2
    return [[-1 if x == -2 else x for x in row] for row in table]


def _quadrangle(line_pts, join):
    """Four points, pairwise with a unique join, none of them on or next
    to the join of two others (next to: without a unique join to one of
    its points, so in a level-2 plane they lie over a quadrangle of the
    plane below)."""
    quad = []
    for p in range(len(join)):
        row = join[p]
        if all(row[a] != -1 for a in quad) and not any(
                -1 in [row[d] for d in line_pts[join[a][b]]]
                for a, b in itertools.combinations(quad, 2)):
            quad.append(p)
            if len(quad) == 4:
                break
    return quad


def _incidence_tables(line_pts, pt_lines):
    """The engine's tables, points and lines numbered from 0 (in label
    order in a labelled plane): line_pts, pt_lines, the points of each
    line as a set, join[a][b] (meet[x][y]), the one line on points
    a != b (point on lines x != y) or -1, and a quadrangle."""
    join = _unique_common(line_pts, len(pt_lines))
    return (line_pts, pt_lines, [frozenset(pts) for pts in line_pts], join,
            _unique_common(pt_lines, len(line_pts)),
            _quadrangle(line_pts, join))


class _Search:
    """Backtracking over point images with incidence-closure propagation.

    Line images are forced as soon as two of the line's points with a
    unique join are mapped; meets of mapped lines force point images
    back.  Optional domains restrict the images of each point.
    Branching takes the points of the tables' quadrangle first, then the
    point with the fewest candidates: where joins are not all unique,
    that alone can fill in a large part of the plane that no map of the
    whole extends.
    """

    def __init__(self, tables, pt_domain=None):
        (self.line_pts, self.pt_lines, self.on_line, self.join, self.meet,
         self.quad) = tables
        self.pt_domain = pt_domain
        self.npts, self.nlns = len(self.pt_lines), len(self.line_pts)
        self.pimg = [-1] * self.npts
        self.psrc = [-1] * self.npts
        self.limg = [-1] * self.nlns
        self.lsrc = [-1] * self.nlns
        self.mapped_lines = []
        self.trail = []
        self.n_mapped = 0

    # each trail record undoes one assignment
    def _undo_to(self, mark):
        while len(self.trail) > mark:
            kind, a, b = self.trail.pop()
            if kind == 0:
                self.pimg[a] = -1
                self.psrc[b] = -1
                self.n_mapped -= 1
            else:
                self.limg[a] = -1
                self.lsrc[b] = -1
                self.mapped_lines.pop()

    def _set_point(self, p, v, queue):
        cur = self.pimg[p]
        if cur != -1:
            return cur == v
        if self.psrc[v] != -1:
            return False
        if self.pt_domain is not None and v not in self.pt_domain[p]:
            return False
        self.pimg[p] = v
        self.psrc[v] = p
        self.n_mapped += 1
        self.trail.append((0, p, v))
        queue.append((0, p))
        return True

    def _set_line(self, y, w, queue):
        cur = self.limg[y]
        if cur != -1:
            return cur == w
        if self.lsrc[w] != -1:
            return False
        self.limg[y] = w
        self.lsrc[w] = y
        self.mapped_lines.append(y)
        self.trail.append((1, y, w))
        queue.append((1, y))
        return True

    def _propagate(self, queue):
        pimg, limg, on_line = self.pimg, self.limg, self.on_line
        while queue:
            kind, a = queue.pop()
            if kind == 0:
                p, v = a, pimg[a]
                join_p = self.join[p]
                for y in self.pt_lines[p]:
                    w = limg[y]
                    if w != -1:
                        if v not in on_line[w]:
                            return False
                    else:
                        # a mapped point joined to p by y alone
                        for p2 in self.line_pts[y]:
                            if p2 != p and pimg[p2] != -1 and join_p[p2] != -1:
                                forced = self.join[v][pimg[p2]]
                                if forced == -1 or not self._set_line(
                                        y, forced, queue):
                                    return False
                                break
            else:
                y, w = a, limg[a]
                for p in self.line_pts[y]:
                    v = pimg[p]
                    if v != -1 and v not in on_line[w]:
                        return False
                meet_y, meet_w = self.meet[y], self.meet[w]
                for y2 in self.mapped_lines:
                    if y2 == y:
                        continue
                    x, xi = meet_y[y2], meet_w[limg[y2]]
                    if (x == -1) != (xi == -1):
                        return False
                    if x != -1 and not self._set_point(x, xi, queue):
                        return False
        return True

    def seed(self, point_seed, line_seed):
        """Returns False when the seed is already contradictory."""
        queue = []
        for p, v in sorted(point_seed.items()):
            if not (0 <= p < self.npts and 0 <= v < self.npts):
                raise InvalidInput(f"seed point pair ({p}, {v}) out of range")
            if not self._set_point(p, v, queue):
                return False
        for y, w in sorted(line_seed.items()):
            if not (0 <= y < self.nlns and 0 <= w < self.nlns):
                raise InvalidInput(f"seed line pair ({y}, {w}) out of range")
            if not self._set_line(y, w, queue):
                return False
        return self._propagate(queue)

    def _choose(self):
        pimg, psrc, limg, dom = self.pimg, self.psrc, self.limg, self.pt_domain

        def free(p, pool):
            return [v for v in pool
                    if psrc[v] == -1 and (dom is None or v in dom[p])]

        def on_mapped_line(p):
            for y in self.pt_lines[p]:
                if limg[y] != -1:
                    return free(p, self.line_pts[limg[y]])
            return None

        for p in self.quad:
            if pimg[p] == -1:
                cands = on_mapped_line(p)
                if cands is None:
                    cands = free(p, range(self.npts))
                return p, sorted(cands)
        best_p, best_cands = -1, None
        for p in range(self.npts):
            if pimg[p] != -1:
                continue
            cands = on_mapped_line(p)
            if cands is None:
                if best_p == -1:
                    best_p = p
                continue
            if best_cands is None or len(cands) < len(best_cands):
                best_p, best_cands = p, cands
                if len(cands) <= 1:
                    break
        if best_cands is None:
            best_cands = free(best_p, range(self.npts))
        return best_p, sorted(best_cands)

    def run(self):
        """Yield each completion of the current partial map as a pair
        (point map, line map) of tuples."""
        if self.n_mapped == self.npts:
            if -1 in self.limg:
                raise InternalError("every point is mapped but a line is not")
            yield tuple(self.pimg), tuple(self.limg)
            return
        p, cands = self._choose()
        for v in cands:
            mark = len(self.trail)
            queue = []
            if self._set_point(p, v, queue) and self._propagate(queue):
                yield from self.run()
            self._undo_to(mark)


def _check_map(tables, pmap, lmap):
    # the lines through each point go onto the lines through its image
    pt_lines = tables[1]
    for p, lines in enumerate(pt_lines):
        if set(pt_lines[pmap[p]]) != {lmap[y] for y in lines}:
            raise InternalError(
                f"the map sends the lines through point {p} elsewhere")


def _chain_orbits(tables, pt_domain=None):
    """Orbit lengths of a stabilizer chain of the group of maps the
    engine finds, each point p kept in pt_domain[p] when given; the order
    is their product (Seress, Permutation Group Algorithms, ch. 4).  The
    base starts at the tables' quadrangle and grows by the first point
    that a map fixing all of it moves.  The orbit of a base point is the
    set of images v for which a search with the earlier base points
    fixed and the point sent to v finds a map.  A map fixing a point a
    keeps whether a has a unique join to the base point, so only the v
    that agree with it on that for every earlier a are searched."""
    npts = len(tables[1])
    identity = tuple(range(npts))

    def maps(seed):
        search = _Search(tables, pt_domain)
        for g in search.run() if search.seed(seed, {}) else ():
            _check_map(tables, *g)
            yield g

    join = tables[3]
    fixed, orbits, b = {}, [], tables[5][0]
    while b is not None:
        joined = [join[a][b] != -1 for a in fixed]
        orbit = [v for v in range(npts)
                 if [join[a][v] != -1 for a in fixed] == joined
                 and next(maps({**fixed, b: v}), None)]
        if b not in orbit:
            raise InternalError("the identity is not among the collineations")
        orbits.append(len(orbit))
        fixed[b] = b
        moved = next((g[0] for g in maps(fixed) if g[0] != identity), None)
        b = None if moved is None else next(
            p for p in range(npts) if moved[p] != p)
    return orbits


def plane_to_text(plane):
    """One text line per geometric line: its (point, label) pairs sorted
    by point."""
    out = []
    for x, points in enumerate(incidence_lists(plane)[0]):
        pairs = sorted((p, j) for j, p in enumerate(points))
        out.append(f"line {x}: " + " ".join(f"({p},{j})" for p, j in pairs))
    return "\n".join(out) + "\n"


def plane_from_text(text):
    """Inverse of plane_to_text.  The whole export must be consistent
    with one cyclic plane; anything else is rejected.  q is read from
    the pairs of the first row and the modulus from the row count, which
    the vector checks before its q^2-sized difference count.  A point
    is less than the row count and a label less than the pair count, so
    a number with more digits than both is refused before int() reads
    it."""
    rows = text.splitlines()
    if not rows:
        raise InvalidInput("empty plane export")
    pairs = re.findall(r"\(([0-9]+),([0-9]+)\)", rows[0])
    if not rows[0].startswith("line 0: ") or not pairs:
        raise InvalidInput("line 1: expected 'line 0: (p,j) ...'")
    most = len(str(max(len(rows), len(pairs))))
    if any(len(p) > most or len(j) > most for p, j in pairs):
        raise InvalidInput(f"line 1: a number of more than {most} digits")
    q = len(pairs) - 1
    entries = [None] * (q + 1)
    for p, j in pairs:
        j = int(j)
        if not 0 <= j <= q or entries[j] is not None:
            raise InvalidInput(f"line 1: bad label {j}")
        entries[j] = int(p)
    plane = DifferenceVector(q, len(rows), tuple(entries))
    if plane_to_text(plane) != text:
        raise InvalidInput("export rows do not match a single cyclic plane")
    return plane
