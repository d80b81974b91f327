import os
import time

import pytest

import oracles
from singerlat.ball import (
    _h2_tables, build_ball, extract_hjelmslev, h2_collineations_fixing_center,
)
from singerlat.diffsets import DifferenceMatrix, canonical_difference_set
from singerlat.exotic import NormalizedMatrix
from singerlat.permgrp import identity


def checkout_env():
    """os.environ with this checkout's src/ first on PYTHONPATH, so that
    a subprocess imports the sources under test, installed or not."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


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
def h2_full_group(q2_ball_r2):
    # the full level-2 collineation group of the identity ball: the
    # oracle's listed fiber kernel and one lift per base collineation,
    # the plane and its tables, and the library's summary with its run
    # time, found once and shared
    start = time.time()
    summary = h2_collineations_fixing_center(q2_ball_r2)
    elapsed = time.time() - start
    H = extract_hjelmslev(q2_ball_r2, 2)
    tables = _h2_tables(H)
    kernel, lifts = oracles.h2_kernel_and_lifts(q2_ball_r2, H, tables)
    return (kernel, lifts, H, tables), summary, elapsed


@pytest.fixture(scope="session")
def h2_full_summary(h2_full_group):
    _, summary, elapsed = h2_full_group
    return summary, elapsed
