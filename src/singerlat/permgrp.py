"""Permutations on {0, ..., n-1} and small permutation groups.

A permutation is a tuple p of length n whose i-th entry is the image
of i.  compose(a, b) applies b first, so compose(a, b)[i] == a[b[i]],
and conjugator(s)(g) is s^-1 * g * s in that convention.

PermGroup stores the full element set, so everything here is meant for
small degrees (labels of a pencil, points of a projective line), not
for the point sets of whole planes.
"""

from operator import itemgetter

from .errors import CapExceeded, InvalidInput, _brief

CLOSURE_DEGREE_CAP = 12
CLOSURE_ORDER_CAP = 10 ** 6


def _brief_perm(p) -> str:
    """p as a refusal quotes it: whole up to 8 entries, else its first 8
    and its degree, and a long number by its ends (errors._brief), so
    that the message stays one short line."""
    shown = " ".join(_brief(e) if isinstance(e, int) else repr(e)
                     for e in p[:8])
    return f"[{shown}]" if len(p) <= 8 else f"[{shown} ...] of degree {len(p)}"


def _brief_text(text) -> str:
    """Permutation text as a refusal quotes it: whole up to 40
    characters, else its first 40 and its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... of {len(text)} characters"


def validate_perm(p, degree=None):
    if not isinstance(p, tuple):
        raise InvalidInput(f"permutation must be a tuple, got {type(p).__name__}")
    if degree is not None and len(p) != degree:
        raise InvalidInput(f"expected degree {degree}, got {len(p)}")
    if sorted(p) != list(range(len(p))):
        raise InvalidInput(
            f"not a permutation of 0..{len(p) - 1}: {_brief_perm(p)}")


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


def perm_to_str(p):
    return "[" + " ".join(str(i) for i in p) + "]"


def perm_from_str(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InvalidInput(
            f"permutation text must look like [0 2 1]: {_brief_text(text)}")
    try:
        p = tuple(int(tok) for tok in text[1:-1].split())
    except ValueError:
        raise InvalidInput(
            f"non-integer entry in permutation text: {_brief_text(text)}")
    validate_perm(p)
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


class PermGroup:
    """A permutation group held as an explicit element set."""

    def __init__(self, degree, generators, elements):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = frozenset(elements)

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

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"
