import time

import pytest

from singerlat.ball import build_ball, h2_collineations_fixing_center
from singerlat.diffsets import DifferenceMatrix, canonical_difference_set
from singerlat.exotic import NormalizedMatrix
from singerlat.permgrp import identity


def identity_matrix(q):
    e = identity(q + 1)
    return NormalizedMatrix(q, canonical_difference_set(q), e, e).decode()


def q11_matrix():
    """A matrix of order 11, past every cap of the library: the Singer set
    of order 11 mod 133 in all three columns, given rather than built."""
    D = (0, 1, 8, 21, 39, 43, 48, 54, 73, 105, 117, 131)
    return DifferenceMatrix.make(11, (D, D, D))


@pytest.fixture(scope="session")
def q2_ball_r2():
    return build_ball(identity_matrix(2), 2)


@pytest.fixture(scope="session")
def q3_ball_r2():
    return build_ball(identity_matrix(3), 2)


@pytest.fixture(scope="session")
def h2_full_summary(q2_ball_r2):
    # the full level-2 collineation enumeration is the most expensive
    # computation in the suite; run it once and share
    start = time.time()
    summary = h2_collineations_fixing_center(q2_ball_r2, labels_only=False)
    return summary, time.time() - start
