"""Seeded fuzz of the five text parsers: every mutant of a valid export
parses, or is refused with InvalidInput or CapExceeded.  Any other
exception is a parser fault that would reach the command line as an
internal error."""

import random

import pytest

from conftest import identity_matrix
from singerlat.ball import build_ball, complex_from_text, complex_to_text
from singerlat.diffsets import canonical_difference_set, matrix_from_text, \
    matrix_to_text, set_from_text, set_to_text
from singerlat.errors import CapExceeded, InvalidInput
from singerlat.exotic import census_from_text, census_to_text, classify
from singerlat.plane import canonical_plane, plane_from_text, plane_to_text


def _mutate(text, rng, alphabet):
    """One mutation: a deleted, inserted or replaced character, an
    inserted number (up to 2^40, or -1), a repeated line, or a
    truncation."""
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(6)
    if kind == 0:
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + rng.choice(alphabet) + text[i:]
    if kind == 2:
        return text[:i] + rng.choice(alphabet) + text[i + 1:]
    if kind == 3:
        number = rng.choice([-1, rng.randrange(2 ** 40 + 1)])
        return f"{text[:i]}{number}{text[i:]}"
    if kind == 4:
        lines = text.splitlines(keepends=True)
        if not lines:
            return text
        j = rng.randrange(len(lines))
        return "".join(lines[:j + 1] + lines[j:])
    return text[:i]


# the text of each export, and as many mutants as fit about half a second
EXPORTS = {
    "set": (set_from_text,
            lambda: set_to_text(canonical_difference_set(3)), 30000),
    "matrix": (matrix_from_text,
               lambda: matrix_to_text(identity_matrix(3)), 30000),
    "plane": (plane_from_text,
              lambda: plane_to_text(canonical_plane(2)), 15000),
    "census": (census_from_text,
               lambda: census_to_text(classify(3)), 4000),
    "ball": (complex_from_text,
             lambda: complex_to_text(build_ball(identity_matrix(2), 1)),
             15000),
}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_parser_refuses_mutants_only_with_input_errors(name):
    parse, export, count = EXPORTS[name]
    text = export()
    parse(text)
    rng = random.Random(1)
    alphabet = sorted(set(text) | set("-+.e\r\t٩x"))
    parsed = refused = 0
    for _ in range(count):
        mutant = text
        for _ in range(rng.randint(1, 3)):
            mutant = _mutate(mutant, rng, alphabet)
        try:
            parse(mutant)
        except (InvalidInput, CapExceeded):
            refused += 1
        else:
            parsed += 1
    # some mutants get past every check, and some are refused
    assert parsed + refused == count and parsed > 0 and refused > 0
