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
membership test in G_0: G_0 is the one group the verdicts use.

Normalized matrices have all columns equal to the canonical difference
set D, the first in ascending order, so columns 1 and 2 are encoded by
permutations alpha1, alpha2 of the labels with column t reading
D[alpha_t[i]].  In that shape G_0 is the pencil group of the canonical
plane and G_t = alpha_t^-1 G_0 alpha_t.

The census groups all (alpha1, alpha2) pairs into orbits of the coarse
moves (per-column set-stabilizer maps followed by the row re-sort) and
reports one canonical representative, orbit size and verdict per class.
It walks pairs of stabilizer cosets, not the pairs themselves.
"""

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Optional

from .arith import make_field, prime_power
from .diffsets import (
    DifferenceMatrix, DifferenceSet, DifferenceVector,
    canonical_difference_set, find_agl_map, singer_difference_set,
    stabilizer_index_perms,
)
from .errors import CapExceeded, InvalidInput
from .permgrp import (
    PermGroup, closure, compose, conjugator, inverse, perm_from_str,
    perm_to_str,
)

CLASSIFY_Q_CAP = 5
MODEL_ROUTE_Q_CAP = 9
# past q = 857 the numerator of lower_A has more than 4,300 digits, the
# most that Python turns into text by default
LOWER_A_Q_CAP = 857

CERTIFIED_EXOTIC = "CertifiedExotic"
INCONCLUSIVE = "Inconclusive"

# adjacency pairs of the three vertex types, in check order
EDGES = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class NormalizedMatrix:
    q: int
    D: DifferenceSet
    alpha1: tuple[int, ...]
    alpha2: tuple[int, ...]

    def __post_init__(self):
        # enumerate_normalized(5) makes 518,400 of these: test identity
        # with the cached canonical set before equality, and list the
        # labels once
        D = canonical_difference_set(self.q)
        if self.D is not D and self.D != D:
            raise InvalidInput("normalized matrices use the canonical set")
        labels = list(range(self.q + 1))
        for a in (self.alpha1, self.alpha2):
            if sorted(a) != labels:
                raise InvalidInput(f"{a} is not a permutation of the labels")

    @classmethod
    def from_matrix(cls, M: DifferenceMatrix) -> "NormalizedMatrix":
        """The normalized encoding of M, alpha_t = tau_t tau_0^-1 for the
        column label twists tau_t: the row sort that puts column 0 in
        ascending order is tau_0^-1, and tau_t then reads each row's
        canonical position."""
        t0, t1, t2 = _label_twists(M)
        back = inverse(t0)
        return cls(M.q, canonical_difference_set(M.q),
                   compose(t1, back), compose(t2, back))

    def decode(self) -> DifferenceMatrix:
        d = self.D.elements
        return DifferenceMatrix(self.q, (
            DifferenceVector(self.q, self.D.modulus, d),
            DifferenceVector(self.q, self.D.modulus,
                             tuple(d[i] for i in self.alpha1)),
            DifferenceVector(self.q, self.D.modulus,
                             tuple(d[i] for i in self.alpha2)),
        ))


@dataclass(frozen=True)
class ExoticWitness:
    """Machine-checkable reason for a CertifiedExotic outcome: perm lies
    in the pencil group of edge[0] but not in that of edge[1]."""

    edge: tuple[int, int]
    perm: tuple[int, ...]

    def summary(self) -> str:
        return f"edge{self.edge} perm={perm_to_str(self.perm)}"


@dataclass(frozen=True)
class ExoticityVerdict:
    outcome: str
    witness: Optional[ExoticWitness] = None

    def __post_init__(self):
        if self.outcome not in (CERTIFIED_EXOTIC, INCONCLUSIVE):
            raise InvalidInput(f"unknown outcome {self.outcome!r}")
        if self.outcome == CERTIFIED_EXOTIC and self.witness is None:
            raise InvalidInput("a certificate needs a witness")
        if self.outcome == INCONCLUSIVE and self.witness is not None:
            raise InvalidInput("an inconclusive verdict has no witness")


@dataclass(frozen=True)
class EquivClass:
    representative: NormalizedMatrix
    orbit_size: int
    verdict: ExoticityVerdict


# -- pencil group of the canonical plane --


@lru_cache(maxsize=None)
def _model_pencil_group(q) -> PermGroup:
    """Pencil group at a point of the canonical plane, built from the
    field model instead of a plane search.

    In GF(q^3) the plane's lines through the point 1*K are the
    K-subspaces w^-d * span{1, w} for d in the Singer set; modulo the
    fixed vector 1 they become the projective line over K, on which the
    point stabilizer induces the full fractional-semilinear group.  The
    result is carried back to the labels of the canonical set by the
    affine map between the two difference sets.
    """
    pk = prime_power(q)
    if pk is None:
        raise InvalidInput(f"{q} is not a prime power")
    p, _ = pk
    S = singer_difference_set(q)
    field = make_field(p, 3 * pk[1])
    K = field.subfield(q)
    w = field.omega_coeffs
    w2 = field.mul(w, w)

    # coordinates over K in the basis (1, w, w^2)
    coords = {}
    for a in K:
        for b in K:
            for c in K:
                z = field.add(field.add(a, field.mul(b, w)), field.mul(c, w2))
                coords[z] = (a, b, c)
    if len(coords) != field.order:
        raise AssertionError("(1, w, w^2) is not a basis over the subfield")

    def proj_point(u, v):
        # canonical representative of the K-span of (u, v), nonzero
        if u != field.zero:
            return (field.one, field.mul(v, field.inv(u)))
        return (field.zero, field.one)

    def subspace_point(z1, z2):
        # the quotient image of span{z1, z2} with 1 in the span
        _, b1, c1 = coords[z1]
        _, b2, c2 = coords[z2]
        if (b1, c1) != (field.zero, field.zero):
            return proj_point(b1, c1)
        return proj_point(b2, c2)

    labels = {}
    basis_vectors = []
    for j, d in enumerate(S.elements):
        z1 = field.power(w, -d)
        z2 = field.mul(z1, w)
        pt = subspace_point(z1, z2)
        if pt in labels:
            raise AssertionError(f"two lines through 1*K share label {pt}")
        labels[pt] = j
        basis_vectors.append((z1, z2))
    if len(labels) != q + 1:
        raise AssertionError(f"{len(labels)} labels, expected {q + 1}")

    def matrix_perm(g00, g01, g10, g11):
        img = [0] * (q + 1)
        for pt, j in labels.items():
            u, v = pt
            iu = field.add(field.mul(g00, u), field.mul(g01, v))
            iv = field.add(field.mul(g10, u), field.mul(g11, v))
            img[j] = labels[proj_point(iu, iv)]
        return tuple(img)

    one, zero = field.one, field.zero
    gens = [
        matrix_perm(one, one, zero, one),
        matrix_perm(one, zero, one, one),
    ]
    lam = next((x for x in K if x != zero
                and field.multiplicative_order(x) == q - 1), None)
    if lam is not None:
        gens.append(matrix_perm(lam, zero, zero, one))
    frob = [0] * (q + 1)
    for j, (z1, z2) in enumerate(basis_vectors):
        pt = subspace_point(field.power(z1, p), field.power(z2, p))
        frob[j] = labels[pt]
    gens.append(tuple(frob))

    elements = closure(gens, q + 1)
    eta = pk[1]
    if len(elements) != q * (q * q - 1) * eta:
        raise AssertionError(
            f"model pencil group of order {len(elements)}, "
            f"expected {q * (q * q - 1) * eta}")
    group = PermGroup(q + 1, tuple(gens), elements)

    # relabel from the Singer set to the canonical one
    D = canonical_difference_set(q)
    g = find_agl_map(S.elements, D.elements, D.modulus)
    if g is None:
        raise AssertionError("the Singer set is not in the canonical orbit")
    pos = {d: i for i, d in enumerate(D.elements)}
    rho = tuple(pos[g(d)] for d in S.elements)
    return group.conjugate_by(inverse(rho))


def pencil_group(q, route="model") -> PermGroup:
    """The pencil group G_0 of the canonical plane on its q+1 labels,
    from the field model (prime powers q <= 9).

    "model" is the only route; any other raises InvalidInput.  The
    plane search that checks the model lives with the tests.
    """
    if route != "model":
        raise InvalidInput(f"unknown route {route!r}")
    if q > MODEL_ROUTE_Q_CAP:
        raise CapExceeded(
            f"model route capped at q <= {MODEL_ROUTE_Q_CAP}, got {q}")
    return _model_pencil_group(q)


def pencil_normalizer(q) -> PermGroup:
    """Normalizer of the pencil group in Sym(q+1), which is G_0 itself:
    PGammaL(2, q) is self-normalizing there, as the tests check against
    a normalizer search at every q the model route covers.  Nothing in
    the library calls it; it stays because the benchmark set-up in
    bench/workloads.py does, and the benchmark's files stay fixed
    between the commits it compares."""
    return pencil_group(q)


@lru_cache(maxsize=1)
def _label_twists(M: DifferenceMatrix) -> tuple[tuple[int, ...], ...]:
    """The label twists tau_t with G_t = tau_t^-1 G_0 tau_t on the labels
    of column t: tau_t[i] is the canonical position of entry i under the
    affine map of column t onto the canonical set.

    One cached matrix is enough for certify, which normalizes and then
    certifies the same matrix.
    """
    D = canonical_difference_set(M.q)
    pos = {d: i for i, d in enumerate(D.elements)}
    twists = []
    for t, col in enumerate(M.columns):
        g = find_agl_map(col.entries, D.elements, D.modulus)
        if g is None:
            raise InvalidInput(
                f"column {t} is not AGL-equivalent to the canonical set")
        twists.append(tuple(pos[g(e)] for e in col.entries))
    return tuple(twists)


def _least_moved(members_sorted, g0_set, a) -> tuple[int, ...]:
    """The least member h with a h a^-1 outside G_0, that is the least
    member outside a^-1 G_0 a; the members must not all lie in it."""
    conj = conjugator(inverse(a))
    for h in members_sorted:
        if conj(h) not in g0_set:
            return h
    raise AssertionError(f"{perm_to_str(a)} normalizes the pencil group")


def _pencil_witness(g0: PermGroup, twists) -> Optional[ExoticWitness]:
    """The witness for the first edge whose pencil groups differ, when
    G_t = twists[t]^-1 G_0 twists[t]; None when all three agree.

    G_s = G_t exactly when twists[s] twists[t]^-1 normalizes G_0, that
    is when it lies in G_0.  The witness is the least element of G_s
    outside G_t, so only a mismatched edge lists G_s; _least_moved
    raises rather than certify an edge whose groups agree.
    """
    for s, t in EDGES:
        if compose(twists[s], inverse(twists[t])) in g0.elements:
            continue
        members = sorted(map(conjugator(twists[s]), g0.elements))
        return ExoticWitness(
            (s, t), _least_moved(members, g0.elements, twists[t]))
    return None


def _verdict(witness) -> ExoticityVerdict:
    if witness is None:
        return ExoticityVerdict(INCONCLUSIVE)
    return ExoticityVerdict(CERTIFIED_EXOTIC, witness)


def certify_exotic(M: DifferenceMatrix) -> ExoticityVerdict:
    """CertifiedExotic when two adjacent pencil groups differ; otherwise
    Inconclusive.  Never claims the structure is classical.  Membership
    tests in G_0 through the columns' label twists decide it; no group
    is built.
    """
    return _verdict(_pencil_witness(pencil_group(M.q), _label_twists(M)))


def enumerate_normalized(q) -> Iterator[NormalizedMatrix]:
    """All normalized matrices of order q, alpha pairs in lexicographic
    order."""
    if q > CLASSIFY_Q_CAP:
        raise CapExceeded(
            f"enumeration capped at q <= {CLASSIFY_Q_CAP}, got {q}")
    D = canonical_difference_set(q)
    for a1 in itertools.permutations(range(q + 1)):
        for a2 in itertools.permutations(range(q + 1)):
            yield NormalizedMatrix(q, D, a1, a2)


# -- the census --
#
# A coarse move (p0, p1, p2) sends alpha_t to p_t . alpha_t . p0^-1 with
# every p in the stabilizer index perms S.  The free left factors p1, p2
# fill out the right cosets S.alpha_t, so a coarse class is a p0-orbit
# of coset pairs (S.alpha1, S.alpha2): its size is |S|^2 times the orbit
# length, and its least member pairs the least elements of the orbit's
# least coset pair.


def _census_stabilizer(q, g0) -> list[tuple[int, ...]]:
    """S, checked to have order 3*eta and to lie in G_0; the latter
    makes the verdict constant on every coarse class."""
    stab = stabilizer_index_perms(canonical_difference_set(q))
    eta = prime_power(q)[1]
    if len(stab) != 3 * eta:
        raise AssertionError(
            f"stabilizer of order {len(stab)}, expected {3 * eta}")
    if not all(s in g0.elements for s in stab):
        raise AssertionError("a stabilizer perm lies outside the pencil group")
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


def _coset_pair_orbits(least, coset_of, stab):
    """The p0-orbits on coset pairs, pair (c1, c2) coded as
    c1 * len(least) + c2.  Returns the orbit number of every code and,
    per orbit in ascending order, its least pair and its length."""
    n = len(least)
    moved = [[coset_of[compose(a, inverse(p0))] for a in least]
             for p0 in stab]
    orbit_of = [-1] * (n * n)
    orbits = []
    for code in range(n * n):
        if orbit_of[code] < 0:
            c1, c2 = divmod(code, n)
            orbit = {m[c1] * n + m[c2] for m in moved}
            for other in orbit:
                orbit_of[other] = len(orbits)
            orbits.append(((c1, c2), len(orbit)))
    return orbit_of, orbits


def _duality_perm(q) -> tuple[int, ...]:
    """nu, the negation map carried back onto the canonical set by an
    affine map; duality sends (alpha1, alpha2) to
    (nu alpha2 nu^-1, nu alpha1 nu^-1)."""
    D = canonical_difference_set(q)
    neg = tuple(sorted((-d) % D.modulus for d in D.elements))
    g = find_agl_map(neg, D.elements, D.modulus)
    if g is None:
        raise AssertionError("the negated canonical set is not in its orbit")
    pos = {d: i for i, d in enumerate(D.elements)}
    return tuple(pos[g((-d) % D.modulus)] for d in D.elements)


def _extra_move_roots(q, least, coset_of, stab, orbit_of) -> list[int]:
    """For each coarse class, the least coarse class that rotation and
    duality join it to, by union-find.

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


def classify(q, extra_moves=False, threads=1) -> list[EquivClass]:
    """Equivalence classes of normalized matrices under the coarse moves
    (plus rotation and duality when extra_moves is set), sorted by
    canonical representative.

    Each class records its lexicographically least (alpha1, alpha2), its
    size and a verdict.  The census runs in one thread; threads is kept
    for compatibility and never changes the output.

    The witness is for the first mismatched edge.  With alpha1 outside
    G_0 that is edge (0, 1), and its witness depends on alpha1 alone.
    Otherwise G_1 = G_0, so edge (1, 2) mismatches exactly when alpha2
    lies outside G_0, with the same witness scan applied to alpha2, and
    edge (2, 0) never comes first.  So witnesses are scanned once per
    permutation, not once per class.
    """
    if q > CLASSIFY_Q_CAP:
        raise CapExceeded(
            f"classification capped at q <= {CLASSIFY_Q_CAP}, got {q}")
    g0 = pencil_group(q)
    stab = _census_stabilizer(q, g0)
    least, coset_of = _right_cosets(
        itertools.permutations(range(q + 1)), stab)
    orbit_of, orbits = _coset_pair_orbits(least, coset_of, stab)
    sizes = [len(stab) ** 2 * length for _, length in orbits]
    if sum(sizes) != math.factorial(q + 1) ** 2:
        raise AssertionError("coarse orbit sizes do not add up to all pairs")
    if any(len(stab) ** 3 % size for size in sizes):
        raise AssertionError("a coarse orbit size does not divide |S|^3")
    fixes = [b in g0.elements for b in least]
    inconclusive = [fixes[c1] and fixes[c2] for (c1, c2), _ in orbits]
    kept = range(len(orbits))
    if extra_moves:
        roots = _extra_move_roots(q, least, coset_of, stab, orbit_of)
        merged = [0] * len(orbits)
        for k, root in enumerate(roots):
            if inconclusive[k] != inconclusive[root]:
                raise AssertionError("rotation or duality changed a verdict")
            merged[root] += sizes[k]
        kept = [k for k, root in enumerate(roots) if root == k]
        sizes = merged

    D = canonical_difference_set(q)
    g0_sorted = sorted(g0.elements)
    witness_perm = {}  # coset -> _least_moved of its least element
    out = []
    for k in kept:
        (c1, c2), _ = orbits[k]
        if inconclusive[k]:
            verdict = ExoticityVerdict(INCONCLUSIVE)
        else:
            edge, c = ((1, 2), c2) if fixes[c1] else ((0, 1), c1)
            if c not in witness_perm:
                witness_perm[c] = _least_moved(
                    g0_sorted, g0.elements, least[c])
            verdict = ExoticityVerdict(CERTIFIED_EXOTIC, ExoticWitness(
                edge, witness_perm[c]))
        out.append(EquivClass(NormalizedMatrix(q, D, least[c1], least[c2]),
                              sizes[k], verdict))
    return out


def candidate_count(q) -> int:
    """Number of inconclusive census classes, counted without the
    census: both alphas lie in G_0, so these are the p0-orbits on pairs
    of S-cosets inside it.  Never exceeds the counting bound."""
    if q > MODEL_ROUTE_Q_CAP:
        raise CapExceeded(
            f"candidate count capped at q <= {MODEL_ROUTE_Q_CAP}, got {q}")
    g0 = pencil_group(q)
    stab = _census_stabilizer(q, g0)
    least, coset_of = _right_cosets(sorted(g0.elements), stab)
    count = len(_coset_pair_orbits(least, coset_of, stab)[1])
    if count > bound_B(q):
        raise AssertionError(f"{count} candidates exceed the bound B")
    return count


# -- counting bounds --


def bound_B(q) -> int:
    """(q(q^2-1)/3)^2, an integer since q(q^2-1) is a product of three
    consecutive numbers."""
    if q < 2:
        raise InvalidInput(f"order must be at least 2, got {q}")
    n = q * (q * q - 1)
    if n % 3:
        raise AssertionError(f"q(q^2-1) = {n} is not divisible by 3")
    return (n // 3) ** 2


def lower_A(q) -> Fraction:
    """((q+1)!)^2 / (162 eta^3), exact."""
    if q > LOWER_A_Q_CAP:
        raise CapExceeded(
            f"lower bound capped at q <= {LOWER_A_Q_CAP}, got {q}")
    pk = prime_power(q)
    if pk is None:
        raise InvalidInput(f"{q} is not a prime power")
    eta = pk[1]
    return Fraction(math.factorial(q + 1) ** 2, 162 * eta ** 3)


def ratio_table(q_list) -> list[tuple[int, int, Fraction, float]]:
    """Rows (q, B, A, B/A as float), exact until the final conversion."""
    out = []
    for q in q_list:
        b = bound_B(q)
        a = lower_A(q)
        out.append((q, b, a, float(Fraction(b) / a)))
    return out


# -- census output --


def census_to_text(classes) -> str:
    lines = []
    for c in classes:
        w = c.verdict.witness
        lines.append(
            f"alpha1={perm_to_str(c.representative.alpha1)} "
            f"alpha2={perm_to_str(c.representative.alpha2)} "
            f"orbit={c.orbit_size} verdict={c.verdict.outcome} "
            f"witness={w.summary() if w is not None else '-'}")
    return "\n".join(lines) + "\n"


def census_summary(q, classes) -> str:
    total = sum(c.orbit_size for c in classes)
    exotic = sum(1 for c in classes if c.verdict.outcome == CERTIFIED_EXOTIC)
    inconclusive = len(classes) - exotic
    header = "q\ttotal\tclasses\tcertified_exotic\tinconclusive\tbound_B"
    row = f"{q}\t{total}\t{len(classes)}\t{exotic}\t{inconclusive}\t{bound_B(q)}"
    return header + "\n" + row + "\n"


_CENSUS_RE = re.compile(
    r"alpha1=(\[[0-9 ]*\]) alpha2=(\[[0-9 ]*\]) orbit=(\d+) "
    r"verdict=(\w+) witness=(.+)$")
_EDGE_WITNESS_RE = re.compile(r"edge\((\d+), (\d+)\) perm=(\[[0-9 ]*\])$")


def _witness_from_summary(text, parse_perm):
    if text == "-":
        return None
    if m := _EDGE_WITNESS_RE.match(text):
        edge = (int(m.group(1)), int(m.group(2)))
        if edge not in EDGES:
            raise InvalidInput(f"no edge {edge} among {EDGES}")
        return ExoticWitness(edge, parse_perm(m.group(3)))
    raise InvalidInput(f"unrecognized witness {text!r}")


def census_from_text(text: str) -> tuple:
    """Inverse of census_to_text.  Each distinct permutation or witness
    text is parsed and validated once per call: the q = 5 census repeats
    a few hundred of them over 19,296 lines.  A record with orbit 0, an
    Inconclusive verdict with a witness, a witness that is not an edge
    and a perm, an edge that does not exist or a witness perm of another
    degree is refused, and so is a verdict that its alphas contradict:
    Inconclusive needs alpha1 and alpha2 in G_0, and a witness edge
    (s, t) with perm h needs h in G_s but not in G_t."""
    perms = {}
    verdicts = {}
    members = {}

    def in_group(alpha_token, h, h_token):
        # h lies in G = a^-1 G_0 a, a the perm of alpha_token (G_0 itself
        # for None), when a h a^-1 lies in G_0; once per pair of texts
        key = (alpha_token, h_token)
        found = members.get(key)
        if found is None:
            if alpha_token is not None:
                h = conjugator(inverse(perm(alpha_token)))(h)
            found = members[key] = h in pencil_group(len(h) - 1).elements
        return found

    def perm(token, degree=None):
        p = perms.get(token)
        if p is None:
            p = perms[token] = perm_from_str(token)
        if degree is not None and len(p) != degree:
            raise InvalidInput(f"expected degree {degree}, got {len(p)}")
        return p

    def verdict(outcome, summary, degree):
        key = (outcome, summary, degree)
        if key not in verdicts:
            verdicts[key] = ExoticityVerdict(outcome, _witness_from_summary(
                summary, lambda token: perm(token, degree)))
        return verdicts[key]

    classes = []
    for i, line in enumerate(text.splitlines(), start=1):
        m = _CENSUS_RE.match(line)
        if m is None:
            raise InvalidInput(f"census line {i}: unrecognized record")
        try:
            a1 = perm(m.group(1))
            a2 = perm(m.group(2), degree=len(a1))
            q = len(a1) - 1
            rep = NormalizedMatrix(q, canonical_difference_set(q), a1, a2)
            orbit = int(m.group(3))
            if orbit == 0:
                raise InvalidInput("orbit size 0")
            v = verdict(m.group(4), m.group(5), len(a1))
            w = v.witness
            if w is None:
                holds = (in_group(None, a1, m.group(1))
                         and in_group(None, a2, m.group(2)))
            else:
                tokens = (None, m.group(1), m.group(2))
                s, t = w.edge
                holds = (in_group(tokens[s], w.perm, m.group(5))
                         and not in_group(tokens[t], w.perm, m.group(5)))
            if not holds:
                raise InvalidInput(
                    f"verdict {v.outcome} contradicts alpha1 and alpha2")
        except (InvalidInput, CapExceeded) as e:
            raise type(e)(f"census line {i}: {e}") from None
        classes.append(EquivClass(rep, orbit, v))
    if not classes:
        raise InvalidInput("empty census")
    return tuple(classes)
