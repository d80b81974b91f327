"""One sha256 over the ball module's outputs on every small ball, to show
that a change to the module leaves them byte for byte as they were.

It covers the radius-2 balls of all 612 normalized matrices at q = 2, 3,
in enumeration order, and the radius-1 balls of the identity matrix at
q = 4, 5, 7, 8, 9.  Per ball it hashes the export, the verify_ball
report, the chamber index (the labels on each panel and the chambers
through each vertex, in chamber order), the level-1 plane, and for
radius 2 the level-2 plane and the ball parsed back from the export.
A ball's vertices are its ids, with no names, so none are hashed.
Run it on two checkouts and compare the lines it prints:

    PYTHONPATH=src python tests/ball_digest.py

or give the expected digest, and it exits 1 when the digest differs:

    PYTHONPATH=src python tests/ball_digest.py \
        067b8f21e21275170102d9379ba6e4c2a43a23caf05917a423cce9b67588cff1

That is the digest of the current outputs (617 balls).  It takes about
25 s on a 2-core Xeon, so the test suite pins digest_of on a 62-ball
slice instead (test_ball.py::test_ball_digest_slice).
"""

import hashlib
import itertools
import sys

from singerlat.ball import (
    build_ball, complex_from_text, complex_to_text, extract_hjelmslev,
    verify_ball,
)
from singerlat.diffsets import canonical_difference_set
from singerlat.exotic import NormalizedMatrix, enumerate_normalized


def _plane(H):
    return repr((H.points, H.lines, sorted(H.incidence)))


def _chamber_index(ball):
    """The labels on each panel (u, v), u <= v, and the chambers through
    each vertex, every dict and list in chamber order."""
    panel_labels = {}
    by_vertex = [[] for _ in range(ball.vertex_count)]
    for ch in ball.chambers:
        for pair in itertools.combinations(ch[:3], 2):
            panel_labels.setdefault(tuple(sorted(pair)), []).append(ch[3])
        for v in dict.fromkeys(ch[:3]):
            by_vertex[v].append(ch)
    return panel_labels, by_vertex


def _ball_parts(ball):
    text = complex_to_text(ball)
    panel_labels, by_vertex = _chamber_index(ball)
    yield text
    yield repr(verify_ball(ball))
    yield repr(tuple(panel_labels.items()))
    yield repr(by_vertex)
    yield _plane(extract_hjelmslev(ball, 1))
    if ball.radius == 2:
        yield _plane(extract_hjelmslev(ball, 2))
        back = complex_from_text(text)
        yield repr((back.q, back.radius, back.center, back.types, back.dists,
                    back.edges, back.chambers))


def digest_of(balls):
    """The sha256 of the outputs of the balls, given as (matrix, radius)
    pairs, in order."""
    digest = hashlib.sha256()
    for M, radius in balls:
        for part in _ball_parts(build_ball(M, radius)):
            digest.update(part.encode())
            digest.update(b"\n")
    return digest.hexdigest()


def ball_digest():
    balls = [(Mn.decode(), 2) for q in (2, 3) for Mn in enumerate_normalized(q)]
    for q in (4, 5, 7, 8, 9):
        e = tuple(range(q + 1))
        balls.append((NormalizedMatrix(
            q, canonical_difference_set(q), e, e).decode(), 1))
    return len(balls), digest_of(balls)


if __name__ == "__main__":
    count, hexdigest = ball_digest()
    print(f"{count} balls: {hexdigest}")
    if len(sys.argv) > 1 and sys.argv[1] != hexdigest:
        print(f"expected {sys.argv[1]}")
        sys.exit(1)
