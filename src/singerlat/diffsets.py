"""Perfect difference sets mod q^2+q+1 and the affine moves between them.

A perfect difference set D of order q is a (q+1)-subset of Z/mZ,
m = q^2 + q + 1, such that every nonzero residue is d - d' for exactly
one ordered pair (d, d') in D x D.  A difference vector fixes an
ordering of such a set; a difference matrix is a triple of difference
vectors sharing q, one per vertex type of the complex they encode.

The affine group AGL(1, Z/mZ) of maps x -> a*x + b (a a unit) acts on
difference sets.  Singer's construction produces one difference set per
prime power q; label_perms matches a matrix column to the canonical set
by the affine maps between them, each read as a permutation of labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .arith import prime_power, primitive_powers, zmod_units
from .errors import CapExceeded, InternalError, InvalidInput, _brief

SINGER_Q_CAP = 9


def _check_residues(elements, m: int) -> tuple[int, ...]:
    elems = tuple(elements)
    for e in elems:
        if not isinstance(e, int) or not 0 <= e < m:
            shown = _brief(e) if isinstance(e, int) else repr(e)
            raise InvalidInput(
                f"element {shown} is not a residue mod {_brief(m)}")
    if len(set(elems)) != len(elems):
        raise InvalidInput("repeated elements")
    return elems


def is_difference_set(elements, q: int) -> bool:
    """True iff every nonzero residue mod q^2+q+1 occurs exactly once as a
    difference of two elements.  Malformed input (repeats, out of range)
    is an error, not a False.  A perfect difference set has exactly q+1
    elements, so any other size is False at once, and the differences
    are taken only until the first repeated one."""
    if q < 2:
        raise InvalidInput(f"order must be at least 2, got {_brief(q)}")
    m = q * q + q + 1
    elems = _check_residues(elements, m)
    if len(elems) != q + 1:
        return False
    # q+1 elements have (q+1)q = m-1 differences, so they cover every
    # nonzero residue exactly when no two of them agree
    seen = set()
    for d in elems:
        for d2 in elems:
            if d != d2:
                diff = (d - d2) % m
                if diff in seen:
                    return False
                seen.add(diff)
    return True


@dataclass(frozen=True, slots=True)
class DifferenceSet:
    q: int
    modulus: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if self.modulus != self.q * self.q + self.q + 1:
            raise InvalidInput("modulus is not q^2+q+1")
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))
        if not is_difference_set(self.elements, self.q):
            raise InvalidInput(
                f"a set of {len(self.elements)} elements is not a perfect "
                f"difference set of order {_brief(self.q)}")


@dataclass(frozen=True, slots=True)
class DifferenceVector:
    q: int
    modulus: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.modulus != self.q * self.q + self.q + 1:
            raise InvalidInput("modulus is not q^2+q+1")
        object.__setattr__(self, "entries", tuple(self.entries))
        if not is_difference_set(self.entries, self.q):
            raise InvalidInput(
                f"{len(self.entries)} entries do not form a difference set "
                f"of order {_brief(self.q)}")

    @classmethod
    def make(cls, q: int, entries) -> "DifferenceVector":
        return cls(q, q * q + q + 1, tuple(entries))


@dataclass(frozen=True, slots=True)
class DifferenceMatrix:
    q: int
    columns: tuple[DifferenceVector, DifferenceVector, DifferenceVector]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        if len(self.columns) != 3:
            raise InvalidInput("a difference matrix has exactly three columns")
        for v in self.columns:
            if not isinstance(v, DifferenceVector):
                raise InvalidInput(f"a column must be a DifferenceVector, "
                                   f"got {type(v).__name__}")
            if v.q != self.q:
                raise InvalidInput("columns have mismatched order")

    @property
    def modulus(self) -> int:
        return self.columns[0].modulus

    @classmethod
    def make(cls, q: int, cols) -> "DifferenceMatrix":
        return cls(q, tuple(DifferenceVector.make(q, c) for c in cols))


def singer_difference_set(q: int) -> DifferenceSet:
    """Singer's difference set: the exponents i, taken mod q^2+q+1, for
    which x^i lies in the plane GF(q) + GF(q)*x, where x generates the
    multiplicative group of GF(q^3) (arith.primitive_powers).  GF(q)* is
    the group of (q^2+q+1)-th powers of x."""
    pk = prime_power(q)
    if pk is None:
        raise InvalidInput(f"{_brief(q)} is not a prime power")
    if q > SINGER_Q_CAP:
        raise CapExceeded(f"order {_brief(q)} exceeds cap {SINGER_Q_CAP}")
    p, eta = pk
    powers = primitive_powers(p, 3 * eta)
    m = q * q + q + 1
    zero = (0,) * (3 * eta)
    subfield = [zero] + powers[::m]
    times_x = [zero] + powers[1::m]
    span = {tuple((a + b) % p for a, b in zip(u, v))
            for u in subfield for v in times_x}
    span.discard(zero)
    if len(span) != q * q - 1:
        raise InternalError(f"span{{1, x}} has {len(span)} nonzero vectors")
    exponents = {i % m for i, v in enumerate(powers) if v in span}
    if len(exponents) != q + 1:
        raise InternalError(
            f"Singer set of order {q} has {len(exponents)} elements")
    return DifferenceSet(q, m, tuple(sorted(exponents)))


@lru_cache(maxsize=None)
def canonical_difference_set(q: int) -> DifferenceSet:
    """Lexicographically smallest member of the affine orbit of the Singer
    difference set.

    That member contains 0, so it is one of the images a*(x - d) of the
    Singer set, with a a unit and d a member; only those are scanned.
    """
    D = singer_difference_set(q)
    m = D.modulus
    best = min(tuple(sorted(a * (x - d) % m for x in D.elements))
               for a in zmod_units(m) for d in D.elements)
    return DifferenceSet(q, m, best)


def label_perms(entries, D: DifferenceSet) -> Iterator[tuple[int, ...]]:
    """The affine maps x -> a*x + b sending the entries, read mod m, into
    D, ascending in (a, b), as the positions in D of the images; none
    unless the entries are len(D) distinct residues.  Only offsets
    b = d - a*min(entries), d in D, can work, and at most one for each
    a, as no translation but 0 fixes a perfect difference set.  A map is
    one to one, so one into D is onto D: no sorted image is compared."""
    m = D.modulus
    xs = [x % m for x in entries]
    if len(xs) != len(D.elements) or len(set(xs)) != len(xs):
        return
    pos = {d: i for i, d in enumerate(D.elements)}
    low = min(xs)
    for a in zmod_units(m):
        for b in [(d - a * low) % m for d in D.elements]:
            image = [(a * x + b) % m for x in xs]
            if all(y in pos for y in image):
                yield tuple(map(pos.__getitem__, image))


def stabilizer_index_perms(D: DifferenceSet) -> list[tuple[int, ...]]:
    """The affine maps fixing D as a set, ascending in (a, b), as the
    permutations of {0..q} they make of D's sorted elements."""
    return list(label_perms(D.elements, D))


def _json_from_text(text: str):
    # json raises ValueError, not only JSONDecodeError, for an integer
    # of more than 4,300 digits, and RecursionError for deep nesting
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise InvalidInput(f"not valid JSON: {e}") from None


def _is_json_int(x) -> bool:
    # JSON true and false parse to bools, which are ints to isinstance
    return type(x) is int


# -- matrix files: JSON with fields q, modulus, columns --

def matrix_to_text(M: DifferenceMatrix) -> str:
    doc = {
        "q": M.q,
        "modulus": M.modulus,
        "columns": [list(v.entries) for v in M.columns],
    }
    return json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


def matrix_from_text(text: str) -> DifferenceMatrix:
    doc = _json_from_text(text)
    if not isinstance(doc, dict):
        raise InvalidInput("matrix file must hold a JSON object")
    for key in ("q", "modulus", "columns"):
        if key not in doc:
            raise InvalidInput(f"missing field {key!r}")
    q, m, cols = doc["q"], doc["modulus"], doc["columns"]
    if not _is_json_int(q) or not _is_json_int(m):
        raise InvalidInput("q and modulus must be integers")
    if m != q * q + q + 1:
        raise InvalidInput(
            f"modulus {_brief(m)} is not q^2+q+1 for q={_brief(q)}")
    if not isinstance(cols, list) or len(cols) != 3:
        raise InvalidInput("columns must be a list of three integer arrays")
    for c in cols:
        if not isinstance(c, list) or len(c) != q + 1 \
                or not all(map(_is_json_int, c)):
            raise InvalidInput(
                f"each column must be a list of {_brief(q + 1)} integers")
    return DifferenceMatrix.make(q, cols)


# -- set files: JSON with fields q, modulus, elements --

def set_to_text(D: DifferenceSet) -> str:
    doc = {"q": D.q, "modulus": D.modulus, "elements": list(D.elements)}
    return json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


def set_from_text(text: str) -> DifferenceSet:
    doc = _json_from_text(text)
    if not isinstance(doc, dict):
        raise InvalidInput("set file must hold a JSON object")
    for key in ("q", "modulus", "elements"):
        if key not in doc:
            raise InvalidInput(f"missing field {key!r}")
    q, m, els = doc["q"], doc["modulus"], doc["elements"]
    if not _is_json_int(q) or not _is_json_int(m):
        raise InvalidInput("q and modulus must be integers")
    if not isinstance(els, list) or not all(map(_is_json_int, els)):
        raise InvalidInput("elements must be a list of integers")
    return DifferenceSet(q, m, tuple(els))
