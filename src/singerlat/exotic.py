"""Exoticity certificates and the census of difference matrices.

A difference matrix M (three difference vectors of a common order q)
describes how three labelled planes glue around a vertex.  Each column
t carries a pencil group G_t on the q+1 flag labels; if two adjacent
pencil groups differ as subgroups of Sym(q+1), the glued structure
cannot be classical, and the mismatch is a checkable certificate.  The
converse does not hold, so the other outcome is only "inconclusive".

The mismatch is the only certificate.  A column outside the affine
orbit of the canonical set is refused before any verdict, and every
other column's plane is an affine image of the canonical plane, which
is Singer's cyclic PG(2, q), so no column can fail to be Desarguesian.
The tests check the canonical plane's Moufang property by plane search.

With G_t = tau_t^-1 G_0 tau_t for a label twist tau_t, G_s = G_t exactly
when tau_s tau_t^-1 normalizes G_0.  G_0 is PGammaL(2, q) on the
projective line, which is its own normalizer in Sym(q+1), so that is a
membership test in G_0: G_0 is the one group the verdicts use.  It
is read off the canonical plane's own incidence, generated by a
multiplier and by projectivities of the pencil at point 0, and its
order q(q^2-1)eta confirms it.

Normalized matrices have all columns equal to the canonical difference
set D, the first in ascending order, so columns 1 and 2 are encoded by
permutations alpha1, alpha2 of the labels with column t reading
D[alpha_t[i]].  In that shape G_0 is the pencil group of the canonical
plane and G_t = alpha_t^-1 G_0 alpha_t.  One rule decides the verdicts
of both the census and certify, which reads a matrix's alphas in the
label frame of its column 0.

The census groups all (alpha1, alpha2) pairs into orbits of the coarse
moves (per-column set-stabilizer maps followed by the row re-sort) and
reports one canonical representative, orbit size and verdict per class.
It walks pairs of stabilizer cosets, not the pairs themselves.
"""

import itertools
import math
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Optional

from .arith import prime_power
from .diffsets import (
    DifferenceMatrix, DifferenceSet, DifferenceVector,
    canonical_difference_set, label_perms, stabilizer_index_perms,
)
from .errors import CapExceeded, InternalError, InvalidInput
from .permgrp import (
    PermGroup, closure, compose, conjugator, identity, inverse,
    perm_from_str, perm_to_str, validate_perm,
)

CLASSIFY_Q_CAP = 5
# past q = 857 the numerator of lower_A has more than 4,300 digits, the
# most that Python turns into text by default
LOWER_A_Q_CAP = 857

CERTIFIED_EXOTIC = "CertifiedExotic"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, slots=True)
class NormalizedMatrix:
    q: int
    D: DifferenceSet
    alpha1: tuple[int, ...]
    alpha2: tuple[int, ...]

    def __post_init__(self):
        # the check of records made from outside input; the census builds
        # its own past it (_unchecked_matrix).  Identity with the cached
        # canonical set is tested before equality
        D = canonical_difference_set(self.q)
        if self.D is not D and self.D != D:
            raise InvalidInput("normalized matrices use the canonical set")
        for a in (self.alpha1, self.alpha2):  # tuples, so the record hashes
            validate_perm(a, self.q + 1)

    @classmethod
    def from_matrix(cls, M: DifferenceMatrix) -> "NormalizedMatrix":
        """The normalized encoding of M, alpha_t = tau_t tau_0^-1 for the
        column label twists tau_t: the row sort that puts column 0 in
        ascending order is tau_0^-1, and tau_t then reads each row's
        canonical position."""
        _, alpha1, alpha2 = _frame(M)
        return cls(M.q, canonical_difference_set(M.q), alpha1, alpha2)

    def decode(self) -> DifferenceMatrix:
        d = self.D.elements
        return DifferenceMatrix(self.q, (
            DifferenceVector(self.q, self.D.modulus, d),
            DifferenceVector(self.q, self.D.modulus,
                             tuple(d[i] for i in self.alpha1)),
            DifferenceVector(self.q, self.D.modulus,
                             tuple(d[i] for i in self.alpha2)),
        ))


@dataclass(frozen=True, slots=True)
class ExoticWitness:
    """Machine-checkable reason for a CertifiedExotic outcome: perm lies
    in the pencil group of edge[0] but not in that of edge[1]."""

    edge: tuple[int, int]
    perm: tuple[int, ...]

    def summary(self) -> str:
        return f"edge{self.edge} perm={perm_to_str(self.perm)}"


@dataclass(frozen=True, slots=True)
class ExoticityVerdict:
    """CertifiedExotic exactly when there is a witness; the outcome is
    read off it once, so that the census loops read it from a slot."""

    witness: Optional[ExoticWitness] = field(default=None, kw_only=True)
    outcome: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "outcome", INCONCLUSIVE
                           if self.witness is None else CERTIFIED_EXOTIC)


@dataclass(frozen=True, slots=True)
class EquivClass:
    representative: NormalizedMatrix
    orbit_size: int
    verdict: ExoticityVerdict


# Census records are built through the slots of these frozen classes, past
# their __setattr__ guard and NormalizedMatrix's check: classify and the
# census parser make 19,296 of them at q = 5.
_set_q, _set_D, _set_alpha1, _set_alpha2 = (
    getattr(NormalizedMatrix, f).__set__ for f in ("q", "D", "alpha1", "alpha2"))
_set_representative, _set_orbit_size, _set_verdict = (
    getattr(EquivClass, f).__set__
    for f in ("representative", "orbit_size", "verdict"))


def _unchecked_matrix(q, D, alpha1, alpha2) -> NormalizedMatrix:
    """NormalizedMatrix(q, D, alpha1, alpha2) without its check.  The
    caller guarantees what __post_init__ tests: D is
    canonical_difference_set(q), and alpha1 and alpha2 are tuples that
    permute range(q + 1)."""
    m = object.__new__(NormalizedMatrix)
    _set_q(m, q)
    _set_D(m, D)
    _set_alpha1(m, alpha1)
    _set_alpha2(m, alpha2)
    return m


def _census_record(q, D, alpha1, alpha2, orbit_size, verdict) -> EquivClass:
    """EquivClass(NormalizedMatrix(q, D, alpha1, alpha2), orbit_size,
    verdict), on the precondition of _unchecked_matrix."""
    c = object.__new__(EquivClass)
    _set_representative(c, _unchecked_matrix(q, D, alpha1, alpha2))
    _set_orbit_size(c, orbit_size)
    _set_verdict(c, verdict)
    return c


# -- pencil group of the canonical plane --


@lru_cache(maxsize=None)
def _canonical_pencil_group(q) -> PermGroup:
    """Pencil group at point 0 of the canonical plane, read off the
    plane's own incidence.

    Point x lies on line y when x - y is in D, and label j names the
    line -d_j through 0.  Two kinds of collineation fix point 0.  The
    multiplier p of q maps D onto a translate D + s (Hall 1947), so
    x -> p*x sends line y to line p*y + s.  A chain of perspectivities
    from the pencil at 0 onto an axis a, to the pencil at a point P,
    onto an axis b and back to the pencil at 0 is a projectivity, which
    a collineation fixing 0 induces in a Desarguesian plane (Hughes and
    Piper 1973, ch. 4).  So the group they generate lies in
    G_0 = PGammaL(2, q), and the order check makes it G_0.
    """
    D = canonical_difference_set(q)  # refuses a q that is no prime power
    p, eta = prime_power(q)
    d, m = D.elements, D.modulus
    members = set(d)
    # every nonzero residue is d_i - d_j for exactly one pair (i, j)
    pair = {(di - dj) % m: (i, j) for i, di in enumerate(d)
            for j, dj in enumerate(d) if i != j}

    def join(a, b):  # the line on points a != b
        return (a - d[pair[(a - b) % m][0]]) % m

    def meet(x, y):  # the point on lines x != y
        return (x + d[pair[(x - y) % m][1]]) % m

    pencil = [(-dj) % m for dj in d]
    label = {y: j for j, y in enumerate(pencil)}
    s = next((s for s in range(m)
              if {(p * dj - s) % m for dj in d} == members), None)
    if s is None:
        raise InternalError(f"{p} times the canonical set is no translate")
    gens = [tuple(label[(p * y + s) % m] for y in pencil)]
    elements = closure(gens, q + 1)
    for P in (1, 2):
        axes = [x for x in range(m)
                if (-x) % m not in members and (P - x) % m not in members]
        a = axes[0]
        for b in axes[1:]:
            g = tuple(label[join(0, meet(join(P, meet(y, a)), b))]
                      for y in pencil)
            if g not in elements:
                gens.append(g)
                elements = closure(gens, q + 1)
    order = q * (q * q - 1) * eta
    if len(elements) != order:
        raise InternalError(
            f"pencil group of order {len(elements)}, expected {order}")
    return PermGroup(q + 1, tuple(gens), elements)


def pencil_group(q, route="model") -> PermGroup:
    """The pencil group G_0 of the canonical plane on its q+1 labels,
    generated by collineations fixing point 0 that the plane's
    difference table gives directly.  canonical_difference_set bounds q:
    a q that is no prime power raises InvalidInput, and one past
    SINGER_Q_CAP (9) CapExceeded.

    "model" is the only route; any other raises InvalidInput.  The
    plane search that checks it lives with the tests.
    """
    if route != "model":
        raise InvalidInput(f"unknown route {route!r}")
    return _canonical_pencil_group(q)


def pencil_normalizer(q) -> PermGroup:
    """Normalizer of the pencil group in Sym(q+1), which is G_0 itself:
    PGammaL(2, q) is self-normalizing there, as the tests check against
    a normalizer search at every q the model route covers.  Nothing in
    the library calls it; it stays because the benchmark set-up in
    bench/workloads.py does, and the benchmark's files stay fixed
    between the commits it compares."""
    return pencil_group(q)


@lru_cache(maxsize=1)
def _frame(M: DifferenceMatrix) -> tuple[tuple[int, ...], ...]:
    """(tau_0, alpha1, alpha2) for the label twists tau_t, with
    G_t = tau_t^-1 G_0 tau_t, and alpha_t = tau_t tau_0^-1: tau_t[i] is
    the canonical position of entry i under the first affine map of
    column t onto the canonical set (label_perms).

    One cached matrix is enough for certify, which normalizes and then
    certifies the same matrix.
    """
    D = canonical_difference_set(M.q)
    twists = tuple(next(label_perms(col.entries, D), None)
                   for col in M.columns)
    if None in twists:
        raise InvalidInput(f"column {twists.index(None)} is not "
                           f"AGL-equivalent to the canonical set")
    back = inverse(twists[0])
    return twists[0], compose(twists[1], back), compose(twists[2], back)


@lru_cache(maxsize=None)
def _sorted_pencil_group(q) -> tuple[tuple[int, ...], ...]:
    """G_0 in ascending order: the members that send labels 0, 1, 2 to
    the same triple sit next to each other."""
    return tuple(sorted(pencil_group(q).elements))


def _members_sending(q, triple) -> tuple[tuple[int, ...], ...]:
    """The members of G_0 that send labels 0, 1, 2 to triple, in
    ascending order.  G_0 is PGammaL(2, q): 3-transitive, with the eta
    field automorphisms fixing any three labels, so there are exactly
    eta = |G_0| / q(q^2-1) of them, side by side in sorted G_0 and
    found by one bisection."""
    members = _sorted_pencil_group(q)
    i = bisect_left(members, triple)
    return members[i:i + len(members) // (q * (q * q - 1))]


def _least_outside(q, s, t) -> tuple[int, ...]:
    """The least member of G_s = s^-1 G_0 s outside G_t = t^-1 G_0 t,
    found by an ordered walk that never lists G_s; raises when G_s has
    no member outside G_t.

    The members of G_s that send labels 0, 1, 2 to v are s^-1 x y^-1 s,
    with x running over the eta members of G_0 that send 0, 1, 2 to
    s(v) and y one member that sends them to s(0), s(1), s(2).  Triples
    in ascending order, and the eta conjugates sorted within each, walk
    G_s in ascending order; h lies in G_t when t h t^-1 lies in G_0.

    Before h is returned, both memberships are tested again by plain
    conjugation, apart from the walk's products and its sorted copy of
    G_0, so every certificate passes that check once.
    """
    g0 = pencil_group(q).elements
    s_inv, t_inv = inverse(s), inverse(t)
    y_inv = inverse(_members_sending(q, s[:3])[0])
    into_s = itemgetter(*compose(y_inv, s))  # x -> x y^-1 s
    into_t = itemgetter(*compose(y_inv, compose(s, t_inv)))
    from_s = s_inv.__getitem__  # h = s^-1 (x y^-1 s)
    to_t = compose(t, s_inv).__getitem__  # t h t^-1
    for v in itertools.permutations(range(q + 1), 3):
        for h, g in sorted((tuple(map(from_s, into_s(x))),
                            tuple(map(to_t, into_t(x))))
                           for x in _members_sending(
                               q, (s[v[0]], s[v[1]], s[v[2]]))):
            if g not in g0:
                if (conjugator(s_inv)(h) not in g0
                        or conjugator(t_inv)(h) in g0):
                    raise InternalError(
                        f"witness {perm_to_str(h)} is not in G_s outside G_t")
                return h
    raise InternalError(
        f"{perm_to_str(compose(t, s_inv))} normalizes the pencil group")


def certify_exotic(M: DifferenceMatrix) -> ExoticityVerdict:
    """CertifiedExotic when two adjacent pencil groups differ; otherwise
    Inconclusive.  Never claims the structure is classical.

    It is _normalized_verdict read in the label frame of column 0: with
    the column twists tau_t and alpha_t = tau_t tau_0^-1, the alphas of
    from_matrix, G_t = tau_0^-1 (alpha_t^-1 G_0 alpha_t) tau_0.
    Membership tests in G_0 decide it; no group is built.
    """
    return _normalized_verdict(M.q, *_frame(M), {})


def _normalized_verdict(q, frame, alpha1, alpha2, walks) -> ExoticityVerdict:
    """The verdict for the pencil groups
    G_t = frame^-1 (alpha_t^-1 G_0 alpha_t) frame, alpha_0 the identity:
    the one rule behind certify_exotic, which passes a matrix's column 0
    twist as the frame, and the census, which passes the identity.

    The witness is the least member of G_s outside G_t for the first
    mismatched edge (s, t).  With alpha1 outside G_0 that is edge
    (0, 1).  Otherwise G_1 = G_0, so edge (1, 2) mismatches exactly when
    alpha2 lies outside G_0, with the same witness for alpha2, and edge
    (2, 0) never comes first.  The witness is the ordered walk of
    _least_outside from frame to alpha frame, and it depends only on
    the right coset G_0 alpha, as g alpha has the same conjugate of G_0
    for g in G_0.  walks is the rule's one memo, a dict that the caller
    keeps for one frame: it holds each walk's witness under the least
    member of its coset.
    """
    g0 = pencil_group(q).elements
    if alpha1 not in g0:
        edge, alpha = (0, 1), alpha1
    elif alpha2 not in g0:
        edge, alpha = (1, 2), alpha2
    else:
        return ExoticityVerdict()
    # the least of G_0 alpha fixes labels 0, 1, 2: it is y^-1 alpha for
    # one of the eta members y of G_0 that agree with alpha there
    coset = min(compose(inverse(y), alpha)
                for y in _members_sending(q, alpha[:3]))
    if coset not in walks:
        walks[coset] = _least_outside(q, frame, compose(coset, frame))
    return ExoticityVerdict(witness=ExoticWitness(edge, walks[coset]))


def _census_verdicts(q, alpha, walks):
    """The two verdicts alpha gives a census pair, by _normalized_verdict
    in the identity frame: as alpha1, None inside G_0 and else the
    verdict on edge (0, 1); as alpha2, the verdict of (e, alpha).  A pair
    takes its alpha1's verdict when there is one, else its alpha2's."""
    e = identity(q + 1)
    as_alpha2 = _normalized_verdict(q, e, e, alpha, walks)
    if as_alpha2.witness is None:  # alpha lies in G_0
        return None, as_alpha2
    return _normalized_verdict(q, e, alpha, e, walks), as_alpha2


def _verdict_text(verdict) -> str:
    """A verdict as the census writes it after the orbit size."""
    w = verdict.witness
    return (f"verdict={verdict.outcome} "
            f"witness={w.summary() if w is not None else '-'}")


def enumerate_normalized(q) -> Iterator[NormalizedMatrix]:
    """All normalized matrices of order q, alpha pairs in lexicographic
    order."""
    _check_census_q(q)
    D = canonical_difference_set(q)
    for a1 in itertools.permutations(range(q + 1)):
        for a2 in itertools.permutations(range(q + 1)):
            yield _unchecked_matrix(q, D, a1, a2)


# -- the census --
#
# A coarse move (p0, p1, p2) sends alpha_t to p_t . alpha_t . p0^-1 with
# every p in the stabilizer index perms S.  The free left factors p1, p2
# fill out the right cosets S.alpha_t, so a coarse class is a p0-orbit
# of coset pairs (S.alpha1, S.alpha2): its size is |S|^2 times the orbit
# length, and its least member pairs the least elements of the orbit's
# least coset pair.
#
# The walk takes one row c1 of pairs (c1, c2) at a time.  The move of a
# p0 that sends c1 to r, the least coset of the p0-orbit of c1, sends
# row c1 onto the earlier row r, so row c1 reads row r through it.  A row
# least in its p0-orbit opens the orbits of the p0 fixing it, each
# |S| / |fixing| rows long: one orbit per coset when only p0 = e fixes it.


def _census_stabilizer(q) -> list[tuple[int, ...]]:
    """S, checked to have order 3*eta and to lie in G_0; the latter
    makes the verdict constant on every coarse class."""
    g0 = pencil_group(q)
    stab = stabilizer_index_perms(canonical_difference_set(q))
    eta = prime_power(q)[1]
    if len(stab) != 3 * eta:
        raise InternalError(
            f"stabilizer of order {len(stab)}, expected {3 * eta}")
    if not all(s in g0.elements for s in stab):
        raise InternalError("a stabilizer perm lies outside the pencil group")
    return stab


def _right_cosets(members, stab):
    """(least, coset_of) for the right cosets S.a among the members,
    which come in ascending order and are closed under S on the left:
    least[c] is the least element of coset c, and coset_of maps each
    member to its coset number."""
    least = []
    coset_of = {}
    for a in members:
        if a not in coset_of:
            for s in stab:
                coset_of[compose(s, a)] = len(least)
            least.append(a)
    return least, coset_of


def _right_table(least, coset_of, x) -> list[int]:
    """right(x): for each coset c, the coset of least[c] x.  Each table
    maps the cosets onto themselves, and right(x y) is right(y) after
    right(x)."""
    after_x = itemgetter(*x)  # a -> compose(a, x)
    return [coset_of[after_x(a)] for a in least]


def _coset_pair_orbits(least, coset_of, stab):
    """The p0-orbits on coset pairs, pair (c1, c2) coded as
    c1 * len(least) + c2.  Returns three arrays: the orbit number of
    every code, and per orbit in ascending order its least code and its
    length (the number of coset pairs in it), by the row walk above."""
    n = len(least)
    moves = [_right_table(least, coset_of, inverse(p0)) for p0 in stab]
    orbit_of = array("i", [-1]) * (n * n)
    first = array("i")
    lengths = array("i")
    for c1 in range(n):
        row, k = c1 * n, len(first)
        m = min(moves, key=itemgetter(c1))
        fixing = [f for f in moves if f[c1] == c1]
        rows = len(moves) // len(fixing)
        if m[c1] < c1:
            r = m[c1] * n
            orbit_of[row:row + n] = array(
                "i", itemgetter(*m)(orbit_of[r:r + n]))
        elif len(fixing) == 1:
            orbit_of[row:row + n] = array("i", range(k, k + n))
            first.extend(range(row, row + n))
            lengths.extend([rows] * n)
        else:
            for c2 in range(n):
                if orbit_of[row + c2] < 0:
                    orbit = {f[c2] for f in fixing}
                    for other in orbit:
                        orbit_of[row + other] = len(first)
                    first.append(row + c2)
                    lengths.append(rows * len(orbit))
    return orbit_of, first, lengths


def _duality_perm(q) -> tuple[int, ...]:
    """nu, the negation map carried back onto the canonical set by an
    affine map; duality sends (alpha1, alpha2) to
    (nu alpha2 nu^-1, nu alpha1 nu^-1)."""
    D = canonical_difference_set(q)
    nu = next(label_perms([(-d) % D.modulus for d in D.elements], D), None)
    if nu is None:
        raise InternalError("the negated canonical set is not in its orbit")
    return nu


def _extra_move_roots(q, least, coset_of, stab, orbit_of,
                      first) -> list[int]:
    """For each coarse class, the least coarse class that rotation and
    duality join it to, by union-find over the pairs of the rows that
    hold a least pair.

    Rotation rho(alpha1, alpha2) = (alpha2 alpha1, alpha1^-1) does not
    normalize the coarse moves, but the |S| images rho(s b1, b2), s in
    S, of any one pair (b1, b2) of coset leasts in a class reach every
    class that the class rotates into.  With u = p0^-1 p1 in S, the
    member (p1 b1 p0^-1, p2 b2 p0^-1) rotates to (p2 b2 u b1 p0^-1,
    p0 b1^-1 u^-1 p0^-1), the coarse move (p0, p2, p0) of
    rho(u b1, b2).  Duality maps classes onto classes once
    nu S nu^-1 = S, so one image per pair suffices.  In cosets, b2 s b1
    lies in right(b1)[right(s)[c2]] and b1^-1 s^-1 in right(s^-1)[c],
    with c the coset of b1^-1, so the images of a whole row are one
    column of orbit_of (orbit_of[c::n]) read through two tables.
    """
    nu = _duality_perm(q)
    nu_inv = inverse(nu)
    if {compose(nu, compose(s, nu_inv)) for s in stab} != set(stab):
        raise InternalError("duality does not normalize the stabilizer")
    n = len(least)
    by_s = [(itemgetter(*_right_table(least, coset_of, s)),
             _right_table(least, coset_of, inverse(s))) for s in stab]
    dual = [coset_of[compose(nu, compose(b, nu_inv))] for b in least]
    parent = list(range(len(first)))
    for c1 in sorted({code // n for code in first}):
        after_b1 = itemgetter(*_right_table(least, coset_of, least[c1]))
        c = coset_of[inverse(least[c1])]
        row = orbit_of[c1 * n:(c1 + 1) * n]
        targets = [after_s(after_b1(orbit_of[after_s_inv[c]::n]))
                   for after_s, after_s_inv in by_s]
        targets.append(itemgetter(*dual)(orbit_of[dual[c1]::n]))
        for images in targets:
            for k1, k2 in zip(row, images):
                while k1 != parent[k1]:  # path halving
                    parent[k1] = k1 = parent[parent[k1]]
                while k2 != parent[k2]:
                    parent[k2] = k2 = parent[parent[k2]]
                if k1 < k2:  # a root stays the least of its component
                    parent[k2] = k1
                elif k2 < k1:
                    parent[k1] = k2
    # parent[k] <= k, so one ascending pass leaves every root in place
    for k, up in enumerate(parent):
        parent[k] = parent[up]
    return parent


def _check_census_q(q) -> None:
    # the census cap, for classify, enumerate_normalized and the command
    # line before it makes its output directory
    if q > CLASSIFY_Q_CAP:
        raise CapExceeded(
            f"classification capped at q <= {CLASSIFY_Q_CAP}, got {q}")


def _census_counts(classes) -> tuple[int, int]:
    """(matrices, certified-exotic classes) of a census."""
    return (sum(c.orbit_size for c in classes),
            sum(1 for c in classes if c.verdict.outcome == CERTIFIED_EXOTIC))


def classify(q, extra_moves=False, threads=1) -> list[EquivClass]:
    """Equivalence classes of normalized matrices under the coarse moves
    (with extra_moves also duality and the rotation rho(alpha1, alpha2) =
    (alpha2 alpha1, alpha1^-1), which is not the column rotation: see
    ROADMAP.md, item 1), sorted by canonical representative.

    Each class records its lexicographically least (alpha1, alpha2), its
    size and a verdict.  The census runs in one thread; threads is kept
    for compatibility and never changes the output.

    The coarse classes are the p0-orbits on pairs of S-cosets, and
    extra moves merge them (_extra_move_roots); a merge that joins an
    exotic class to an inconclusive one raises.  Each class's verdict
    is the one _normalized_verdict gives its least pair.
    """
    _check_census_q(q)
    stab = _census_stabilizer(q)
    least, coset_of = _right_cosets(
        itertools.permutations(range(q + 1)), stab)
    n = len(least)
    orbit_of, first, lengths = _coset_pair_orbits(least, coset_of, stab)
    sizes = [len(stab) ** 2 * pairs for pairs in lengths]
    if sum(sizes) != math.factorial(q + 1) ** 2:
        raise InternalError("coarse orbit sizes do not add up to all pairs")
    if any(len(stab) ** 3 % size for size in set(sizes)):
        raise InternalError("a coarse orbit size does not divide |S|^3")
    walks = {}
    as_alpha1, as_alpha2 = zip(*(_census_verdicts(q, b, walks) for b in least))
    verdicts = [as_alpha1[code // n] or as_alpha2[code % n] for code in first]
    kept = range(len(first))
    if extra_moves:
        roots = _extra_move_roots(q, least, coset_of, stab, orbit_of, first)
        merged = [0] * len(first)
        for k, root in enumerate(roots):
            if verdicts[k].outcome != verdicts[root].outcome:
                raise InternalError("rotation or duality changed a verdict")
            merged[root] += sizes[k]
        kept = [k for k, root in enumerate(roots) if root == k]
        sizes = merged

    D = canonical_difference_set(q)
    out = []
    for k in kept:  # the coset leasts are permutations of the labels
        c1, c2 = divmod(first[k], n)
        out.append(_census_record(q, D, least[c1], least[c2],
                                  sizes[k], verdicts[k]))
    return out


def candidate_count(q) -> int:
    """Number of inconclusive census classes, counted without the
    census: both alphas lie in G_0, so these are the p0-orbits on pairs
    of S-cosets inside it.  Never exceeds the counting bound."""
    stab = _census_stabilizer(q)
    least, coset_of = _right_cosets(_sorted_pencil_group(q), stab)
    count = len(_coset_pair_orbits(least, coset_of, stab)[1])
    if count > bound_B(q):
        raise InternalError(f"{count} candidates exceed the bound B")
    return count


# -- counting bounds --


def bound_B(q) -> int:
    """(q(q^2-1)/3)^2, an integer since q(q^2-1) is a product of three
    consecutive numbers."""
    if q < 2:
        raise InvalidInput(f"order must be at least 2, got {q}")
    n = q * (q * q - 1)
    if n % 3:
        raise InternalError(f"q(q^2-1) = {n} is not divisible by 3")
    return (n // 3) ** 2


def lower_A(q) -> "Fraction":
    """((q+1)!)^2 / (162 eta^3), exact."""
    # imported here, not at the top: fractions loads decimal, and
    # nothing else in the library needs either
    from fractions import Fraction

    if q > LOWER_A_Q_CAP:
        raise CapExceeded(
            f"lower bound capped at q <= {LOWER_A_Q_CAP}, got {q}")
    pk = prime_power(q)
    if pk is None:
        raise InvalidInput(f"{q} is not a prime power")
    eta = pk[1]
    return Fraction(math.factorial(q + 1) ** 2, 162 * eta ** 3)


def ratio_table(q_list) -> list[tuple[int, int, "Fraction", float]]:
    """Rows (q, B, A, B/A as float), exact until the final conversion."""
    from fractions import Fraction

    out = []
    for q in q_list:
        b = bound_B(q)
        a = lower_A(q)
        out.append((q, b, a, float(Fraction(b) / a)))
    return out


# -- census output --


def census_to_text(classes) -> str:
    """One line per class: alpha1, alpha2, orbit size, verdict and
    witness.  Each distinct alpha and (orbit size, verdict object) is
    formatted once, and the text is one join over those shared pieces:
    240 alpha texts serve the 19,296 lines of the q = 5 census.  A tail
    is keyed by the verdict's identity, not by hashing the frozen
    verdict, and holds the verdict so that its id is not reused."""
    firsts, seconds, tails = {}, {}, {}
    pieces = []
    for c in classes:
        a1, a2 = c.representative.alpha1, c.representative.alpha2
        first = firsts.get(a1)
        if first is None:
            first = firsts[a1] = f"alpha1={perm_to_str(a1)} "
        second = seconds.get(a2)
        if second is None:
            second = seconds[a2] = f"alpha2={perm_to_str(a2)} "
        v = c.verdict
        key = (c.orbit_size, id(v))
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = (
                f"orbit={c.orbit_size} {_verdict_text(v)}\n", v)
        pieces += (first, second, tail[0])
    # no classes still make one empty line
    return "".join(pieces) or "\n"


def census_summary(q, classes) -> str:
    total, exotic = _census_counts(classes)
    inconclusive = len(classes) - exotic
    header = "q\ttotal\tclasses\tcertified_exotic\tinconclusive\tbound_B"
    row = f"{q}\t{total}\t{len(classes)}\t{exotic}\t{inconclusive}\t{bound_B(q)}"
    return header + "\n" + row + "\n"


_CENSUS_RE = re.compile(
    r"alpha1=(\[[0-9 ]*\]) alpha2=(\[[0-9 ]*\]) orbit=([0-9]+) (.*)$")


def census_from_text(text: str) -> tuple:
    """Inverse of census_to_text.  Line 1 fixes the degree q+1 of the
    file, and with it the canonical set and the most digits an orbit may
    have, those of (q+1)!^2, the number of all pairs; a record of any
    other degree is refused.  The one memo, keyed by permutation text,
    holds each distinct alpha's permutation, parsed and validated once
    per call, and from the verdict check of its first record on, its two
    _census_verdicts with their texts: at q = 5, 440 rule calls for
    19,296 records.  A record with orbit 0 or an orbit of too many digits
    is refused, and so is any verdict text other than the one that
    _normalized_verdict gives its alphas in the identity frame."""
    memo, walks = {}, {}  # memo: text -> [perm, verdicts with texts]
    degree = None  # that of line 1, which also sets q, D and most

    def read(token):
        entry = memo.get(token)
        if entry is None:
            entry = memo[token] = [perm_from_str(token), None]
        return entry

    classes = []
    for i, line in enumerate(text.splitlines(), start=1):
        m = _CENSUS_RE.match(line)
        if m is None:
            raise InvalidInput(f"census line {i}: unrecognized record")
        try:
            text1, text2, orbit, tail = m.groups()
            first, second = read(text1), read(text2)
            a1, a2 = first[0], second[0]
            if len(a2) != len(a1):
                raise InvalidInput(
                    f"expected degree {len(a1)}, got {len(a2)}")
            if degree is None:
                degree, q = len(a1), len(a1) - 1
                D = canonical_difference_set(q)
                most = len(str(math.factorial(degree) ** 2))
            elif len(a1) != degree:
                raise InvalidInput(f"expected degree {degree}, got {len(a1)}")
            if len(orbit) > most:
                raise InvalidInput(f"orbit size of more than {most} digits")
            orbit = int(orbit)
            if orbit == 0:
                raise InvalidInput("orbit size 0")
            for entry in (first, second):
                if entry[1] is None:
                    entry[1] = [v and (v, _verdict_text(v)) for v in
                                _census_verdicts(q, entry[0], walks)]
            v, expected = first[1][0] or second[1][1]
            if tail != expected:
                raise InvalidInput(f"the alphas give {expected}")
        except (InvalidInput, CapExceeded) as e:
            raise type(e)(f"census line {i}: {e}") from None
        # perm_from_str validated both alphas, of the degree of D
        classes.append(_census_record(q, D, a1, a2, orbit, v))
    if not classes:
        raise InvalidInput("empty census")
    return tuple(classes)
