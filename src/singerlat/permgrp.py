"""Permutations on {0, ..., n-1} and small permutation groups.

A permutation is a tuple p of length n whose i-th entry is the image
of i.  compose(a, b) applies b first, so compose(a, b)[i] == a[b[i]],
and conjugator(s)(g) is s^-1 * g * s in that convention.

PermGroup stores the full element set, so everything here is meant for
small degrees (labels of a pencil, points of a projective line), not
for the point sets of whole planes.
"""

import itertools
import math
from functools import lru_cache
from operator import itemgetter

from .arith import make_field, prime_power
from .errors import CapExceeded, InvalidInput

CLOSURE_DEGREE_CAP = 12
CLOSURE_ORDER_CAP = 10 ** 6

# full scan of Sym(n) up to here; degrees 9 and 10 use the full-cycle
# coset route; beyond that conjugacy and normalizer searches refuse
EXHAUSTIVE_DEGREE_CAP = 8
CYCLE_ROUTE_DEGREE_CAP = 10


def validate_perm(p, degree=None):
    if not isinstance(p, tuple):
        raise InvalidInput(f"permutation must be a tuple, got {type(p).__name__}")
    if degree is not None and len(p) != degree:
        raise InvalidInput(f"expected degree {degree}, got {len(p)}")
    if sorted(p) != list(range(len(p))):
        raise InvalidInput(f"not a permutation of 0..{len(p) - 1}: {p}")


def identity(n):
    return tuple(range(n))


def compose(a, b):
    """a after b: compose(a, b)[i] == a[b[i]]."""
    return tuple(a[b[i]] for i in range(len(a)))


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conjugator(s):
    """The map g -> s^-1 * g * s, with s^-1 worked out once for all g."""
    inv = inverse(s).__getitem__
    if len(s) < 2:  # itemgetter returns a tuple only for two or more keys
        return lambda g: tuple(inv(g[i]) for i in s)
    pick = itemgetter(*s)  # g -> (g[s[0]], ..., g[s[n-1]])
    return lambda g: tuple(map(inv, pick(g)))


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


def perm_to_str(p):
    return "[" + " ".join(str(i) for i in p) + "]"


def perm_from_str(text, degree=None):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InvalidInput(f"permutation text must look like [0 2 1]: {text!r}")
    try:
        p = tuple(int(tok) for tok in text[1:-1].split())
    except ValueError:
        raise InvalidInput(f"non-integer entry in permutation text: {text!r}")
    validate_perm(p, degree)
    return p


def closure(generators, degree=None):
    """All products of the generators, as a frozenset.

    Finite degree makes the generated semigroup a group, so inverses
    come for free.
    """
    gens = list(generators)
    if degree is None:
        if not gens:
            raise InvalidInput("need a degree for an empty generating set")
        degree = len(gens[0])
    for g in gens:
        validate_perm(g, degree)
    if degree > CLOSURE_DEGREE_CAP:
        raise CapExceeded(f"closure capped at degree {CLOSURE_DEGREE_CAP}, got {degree}")
    elements = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in elements:
                    elements.add(q)
                    if len(elements) > CLOSURE_ORDER_CAP:
                        raise CapExceeded(
                            f"closure exceeded {CLOSURE_ORDER_CAP} elements")
                    new.append(q)
        frontier = new
    return frozenset(elements)


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


class PermGroup:
    """A permutation group held as an explicit element set."""

    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = frozenset(elements)

    @classmethod
    def from_generators(cls, generators, degree=None):
        gens = tuple(generators)
        elements = closure(gens, degree)
        if degree is None:
            degree = len(gens[0])
        return cls(degree, gens, elements)

    @classmethod
    def from_elements(cls, elements):
        gens = reduce_generators(elements)
        degree = len(gens[0]) if gens else len(next(iter(elements)))
        group = closure(gens, degree)
        if group != frozenset(elements):
            raise InvalidInput("element set is not closed under composition")
        return cls(degree, gens, group)

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, p):
        return p in self.elements

    def __eq__(self, other):
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self):
        return hash((self.degree, self.elements))

    def conjugate_by(self, s):
        validate_perm(s, self.degree)
        conj = conjugator(s)
        return PermGroup(
            self.degree,
            tuple(map(conj, self.generators)),
            frozenset(map(conj, self.elements)),
        )

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


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


# -- fractional linear groups on the projective line --
#
# The line over GF(q) is indexed 0..q: index i < q is the i-th field
# element in the canonical enumeration, index q is the point at
# infinity.


def _moebius_perm(field, a, b, c, d, elems, index_of):
    q = len(elems)
    inf = q
    img = [0] * (q + 1)
    for i, x in enumerate(elems):
        num = field.add(field.mul(a, x), b)
        den = field.add(field.mul(c, x), d)
        if den == field.zero:
            img[i] = inf
        else:
            img[i] = index_of[field.mul(num, field.inv(den))]
    if c == field.zero:
        img[inf] = inf
    else:
        img[inf] = index_of[field.mul(a, field.inv(c))]
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
        det = field.sub(field.mul(a, d), field.mul(b, c))
        if det == field.zero:
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
