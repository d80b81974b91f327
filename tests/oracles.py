"""Reference implementations that the library's faster routes are
checked against.

The plane-search route to the pencil groups is the independent check of
the field-model G_0 that the library computes: the search enumerates
the collineations fixing a point (or a line) of a labelled plane and
reads off the permutations they induce on the q+1 flag labels there.
The per-line ball-export parser is the reference for the library's
one-pattern parser.  Nothing in the library depends on this module.
"""

import re
from functools import lru_cache

from singerlat.ball import BallComplex
from singerlat.errors import CapExceeded, InvalidInput
from singerlat.exotic import (
    EDGES, ExoticWitness, NonDesarguesianColumn, _canonical_plane_desarguesian,
    _check_canonical_plane, _label_twists,
)
from singerlat.exotic import pencil_group as model_pencil_group
from singerlat.permgrp import PermGroup
from singerlat.plane import (
    LabelledPlane, canonical_plane, collineations_fixing, is_desarguesian,
    search_collineations,
)

SEARCH_ROUTE_Q_CAP = 5


@lru_cache(maxsize=None)
def pencil_action(plane, x0):
    """Permutations of the q+1 flag labels at x0 induced by the stabilizer
    of x0, as a subgroup of Sym(q+1)."""
    m = plane.modulus
    entry_index = {d: j for j, d in enumerate(plane.entries)}
    perms = set()
    for c in collineations_fixing(plane, x0):
        lines = plane.point_lines(x0)
        perms.add(tuple(
            entry_index[(x0 - c.line_map[lines[j]]) % m]
            for j in range(plane.q + 1)))
    return PermGroup.from_elements(perms)


@lru_cache(maxsize=None)
def line_pencil_action(plane, y0):
    """Permutations of the q+1 flag labels on line y0 induced by its
    setwise stabilizer."""
    m = plane.modulus
    entry_index = {d: j for j, d in enumerate(plane.entries)}
    perms = set()
    for c in search_collineations(plane, line_seed={y0: y0}):
        pts = plane.line_points(y0)
        perms.add(tuple(
            entry_index[(c.point_map[pts[j]] - y0) % m]
            for j in range(plane.q + 1)))
    return PermGroup.from_elements(perms)


def pencil_group(q, route="auto"):
    """G_0 by route: "search" enumerates the point stabilizer of the
    canonical plane (q <= 5); "auto" and "model" take the library's
    field model."""
    if route == "search":
        if q > SEARCH_ROUTE_Q_CAP:
            raise CapExceeded(
                f"search route capped at q <= {SEARCH_ROUTE_Q_CAP}, got {q}")
        if not _canonical_plane_desarguesian(q):
            raise NonDesarguesianColumn(0)
        return pencil_action(canonical_plane(q), 0)
    return model_pencil_group(q, "model" if route == "auto" else route)


def local_pencil_groups(M, route="auto"):
    """The three pencil groups (G_0, G_1, G_2) of a difference matrix,
    each on the labels of its own column.

    route "search" runs a plane search per column; the other routes
    move the field-model group by each column's label twist.  Raises
    NonDesarguesianColumn when a column fails the Moufang test.
    """
    if route == "search":
        out = []
        for t, col in enumerate(M.columns):
            plane = LabelledPlane(col.q, col.modulus, col.entries)
            if not is_desarguesian(plane):
                raise NonDesarguesianColumn(t)
            out.append(pencil_action(plane, 0))
        return tuple(out)
    g0 = pencil_group(M.q, route)
    _check_canonical_plane(M.q)
    return tuple(g0.conjugate_by(s) for s in _label_twists(M))


def mismatch_witness(groups):
    """The witness certify_exotic must give, from three groups built
    independently: the least element of G_s outside G_t on the first
    edge (s, t) whose groups differ, or None."""
    for s, t in EDGES:
        gs, gt = groups[s], groups[t]
        if gs != gt:
            return ExoticWitness(kind="pencil_mismatch", edge=(s, t),
                                 perm=min(gs.elements - gt.elements))
    return None


_VERTEX_RE = re.compile(r"vertex (\d+) type=(\d+) dist=(\d+)$")
_EDGE_RE = re.compile(r"edge (\d+) (\d+)$")
_CHAMBER_RE = re.compile(r"chamber (\d+) (\d+) (\d+) label=(\d+)$")


def complex_from_text(text):
    """The ball-export parser as it was before the one-pattern scan: three
    patterns tried per line.  It accepts any vertex type, which the
    library now rejects."""
    types, dists, edges, chambers = [], [], [], []
    edge_rows, chamber_rows = [], []  # line numbers, for the range checks
    for i, line in enumerate(text.splitlines(), start=1):
        if m := _VERTEX_RE.match(line):
            v, t, d = map(int, m.groups())
            if v != len(types):
                raise InvalidInput(f"line {i}: vertex id {v} out of order")
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
    return BallComplex(
        q=max(c[3] for c in chambers), radius=max(dists),
        matrix=None, center=centers[0], center_type=types[centers[0]],
        names=None, types=tuple(types), dists=tuple(dists),
        edges=tuple(edges), chambers=tuple(chambers))
