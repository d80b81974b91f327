import functools
import hashlib
import itertools
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

import oracles
from conftest import checkout_env
from oracles import (
    NonDesarguesianColumn, certify_normalized, fast_necessary_condition,
    find_agl_map, local_pencil_groups, mismatch_witness, normalize_matrix,
)
from singerlat import exotic
from singerlat.arith import prime_power, zmod_units
from singerlat.diffsets import (
    SINGER_Q_CAP, DifferenceMatrix, DifferenceVector,
    canonical_difference_set, matrix_to_text, stabilizer_index_perms,
)
from singerlat.errors import CapExceeded, InvalidInput
from singerlat.exotic import (
    CERTIFIED_EXOTIC, INCONCLUSIVE, EquivClass, ExoticityVerdict,
    ExoticWitness, NormalizedMatrix, bound_B, candidate_count,
    census_from_text, census_summary, census_to_text, certify_exotic,
    classify, enumerate_normalized, lower_A, pencil_group, ratio_table,
)
from singerlat.permgrp import (
    PermGroup, compose, conjugator, identity, inverse, perm_to_str,
)
from fractions import Fraction


@functools.lru_cache(maxsize=None)
def classes_of(q, extra_moves=False):
    return tuple(classify(q, extra_moves=extra_moves))


def normalized(q, a1, a2):
    return NormalizedMatrix(q, canonical_difference_set(q), a1, a2)


# every q that pencil_group accepts
MODEL_QS = [q for q in range(2, SINGER_Q_CAP + 1)
            if prime_power(q) is not None]


@functools.lru_cache(maxsize=None)
def normalizer_of_g0(q):
    """N(G_0) in Sym(q+1) by the oracle's search, which the library's
    membership verdicts take to be G_0 itself."""
    return oracles.normalizer_in_sym(pencil_group(q))


# sha256 of census_to_text(classify(q, extra_moves)), pinned from the
# code-level census walk that the coset-pair walk replaced
CENSUS_SHA256 = {
    (2, False): "b406522284028e80b3e9ec9f54b13b5970e32fcf645cbee17b780f635f79ca8d",
    (2, True): "2a389c1f048955fd7ed2f7e6d82aceffcbdf0b087345221d6352140ece0bdbdc",
    (3, False): "c6938898f769e698d400c5acb63bdbd01f8a8f2a8a12b7e114aa17ae76cc818c",
    (3, True): "e8fa0527c356b54de18b1b23433adfa941d4820b5180ad4cc874153d6459d9c0",
    (4, False): "5469717af3327f93002d8fa6a4157ad0313c4cc26859df743afebda3bf632659",
    (4, True): "4428110ab6ed4dd78ec0eac7d621dc5b80cf033bf199428c9dcad28bc8bdc2a2",
    (5, False): "1c31b119349786b8d45fc1a03a368ceaf652aaac7941cefe85e164d8e2190a5f",
    (5, True): "516bd8294c169f1417d99af6cdf8b4d40a32e499eaa21c6238a1316ceaec7a07",
}

# sha256 of the sorted elements of pencil_group(q), one perm_to_str per
# line, pinned from the GF(q^3) field model that the construction from
# the plane's difference table replaced; at q = 7, 8, 9 the plane search
# is capped, so this is the element-wise check there
G0_SHA256 = {
    2: "314714a2986894857e43e66b3f7d39d3e6bd95615c49fcc2235cd014268ac454",
    3: "aefe2dd9eeddf75e01998172730f2856ea709539ddeb38d72afca42ca0776ed0",
    4: "b2715a8e40450ab2754033a14fa89964462da22c9e2872d5ec8fd2614abc5f8b",
    5: "07a0309399d9a6292f70b381804ef51ba7c2e1b39fcd48a36b5a8ae3dd4ff408",
    7: "d45a76d2af0fe7338ce026143e1d4abca8c7f8bed23a37644192bc0ecb436a74",
    8: "774b086b5ae871c1a982c3d5a30bb287b58c0851ad835e0ca60b4645925a3094",
    9: "b114365e39502c23de7162a12981b572bcd323d4f7b017be36d46f86b26d76b0",
}


def brute_force_census(q, extra_moves=False):
    """(alpha1, alpha2, orbit size) per class, least pair first, by a
    walk over every matrix code under every move: the reference for the
    coset-pair walk in classify."""
    perms = list(itertools.permutations(range(q + 1)))
    index = {a: i for i, a in enumerate(perms)}
    stab = stabilizer_index_perms(canonical_difference_set(q))

    def table(f):
        return [index[f(a)] for a in perms]

    steps = []
    for p0 in stab:
        p0inv = inverse(p0)
        left = {pt: table(lambda a, pt=pt: compose(pt, compose(a, p0inv)))
                for pt in stab}
        steps += [lambda i1, i2, t1=left[p1], t2=left[p2]: (t1[i1], t2[i2])
                  for p1 in stab for p2 in stab]
    if extra_moves:
        D = canonical_difference_set(q)
        neg = [(-d) % D.modulus for d in D.elements]
        g = find_agl_map(neg, D.elements, D.modulus)
        pos = {d: i for i, d in enumerate(D.elements)}
        nu = tuple(pos[g(x)] for x in neg)
        nu_inv = inverse(nu)
        inv = table(inverse)
        dual = table(lambda a: compose(nu, compose(a, nu_inv)))
        steps.append(lambda i1, i2: (
            index[compose(perms[i2], perms[i1])], inv[i1]))
        steps.append(lambda i1, i2: (dual[i2], dual[i1]))

    seen = set()
    out = []
    for seed in itertools.product(range(len(perms)), repeat=2):
        if seed in seen:
            continue
        orbit = {seed}
        stack = [seed]
        while stack:
            here = stack.pop()
            for step in steps:
                there = step(*here)
                if there not in orbit:
                    orbit.add(there)
                    stack.append(there)
        seen |= orbit
        out.append((perms[seed[0]], perms[seed[1]], len(orbit)))
    return out


def burnside_class_count(q, members):
    # independent orbit count: average the fixed pairs over all moves
    stab = stabilizer_index_perms(canonical_difference_set(q))
    member_set = set(members)
    total = 0
    for p0 in stab:
        fixed_alphas = 0
        for pt in stab:
            fixed_alphas += sum(
                1 for a in member_set if compose(pt, compose(a, inverse(p0))) == a)
        total += fixed_alphas ** 2
    assert total % len(stab) ** 3 == 0
    return total // len(stab) ** 3


def test_normalized_matrix_decode_round_trip():
    m = normalized(3, (0, 2, 1, 3), (3, 1, 0, 2))
    again = NormalizedMatrix.from_matrix(m.decode())
    assert again == m


def test_normalized_matrix_rejects_non_permutation():
    D = canonical_difference_set(2)
    with pytest.raises(InvalidInput):
        NormalizedMatrix(2, D, (0, 0, 1), (0, 1, 2))


def test_normalized_matrix_requires_canonical_set():
    D = canonical_difference_set(2)
    shifted = type(D)(2, D.modulus, tuple((d + 1) % 7 for d in D.elements))
    with pytest.raises(InvalidInput):
        NormalizedMatrix(2, shifted, (0, 1, 2), (0, 1, 2))


def test_census_records_skip_the_constructor_check(monkeypatch):
    # the census builds its records without __post_init__: classify's
    # alphas are coset leasts, the parser's were validated once per text,
    # and enumerate_normalized's come from itertools.permutations
    text = census_to_text(classes_of(4))
    check = NormalizedMatrix.__post_init__
    calls = []

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(NormalizedMatrix, "__post_init__", counted)
    normalized(2, (0, 1, 2), (0, 1, 2))
    assert len(calls) == 1  # the public constructor still checks
    calls.clear()
    assert len(classify(4)) == 70
    assert len(census_from_text(text)) == 70
    assert sum(1 for _ in enumerate_normalized(3)) == 576
    assert calls == []


@pytest.mark.parametrize("q", [2, 3, 4])
def test_census_records_equal_checked_ones(q):
    # a record built without the check equals, and hashes like, the one
    # the public constructor builds from the same alphas
    for extra_moves in (False, True):
        classes = classes_of(q, extra_moves)
        parsed = census_from_text(census_to_text(classes))
        for c in classes + parsed:
            rep = c.representative
            checked = normalized(q, rep.alpha1, rep.alpha2)
            assert rep == checked and hash(rep) == hash(checked)


def test_simultaneous_row_shuffle_normalizes_away():
    # reordering the rows of all three columns together is undone by the
    # re-sort, so the normalized encoding is unchanged
    m = normalized(3, (1, 0, 3, 2), (2, 3, 0, 1))
    M = m.decode()
    rows = (2, 0, 3, 1)
    shuffled = DifferenceMatrix(3, tuple(
        DifferenceVector(3, col.modulus, tuple(col.entries[i] for i in rows))
        for col in M.columns))
    assert NormalizedMatrix.from_matrix(shuffled) == m


@pytest.mark.parametrize("q,order", [(2, 6), (3, 24), (4, 120), (5, 120)])
def test_pencil_group_routes_agree(q, order):
    search = oracles.pencil_group(q, "search")
    model = pencil_group(q, "model")
    assert search.order == order
    assert search == model


@pytest.mark.parametrize("q,order", [(7, 336), (8, 1512), (9, 1440)])
def test_model_route_beyond_search_cap(q, order):
    assert pencil_group(q, "model").order == order


@pytest.mark.parametrize("q", MODEL_QS)
def test_pencil_group_elements_are_pinned(q):
    text = "\n".join(map(perm_to_str, sorted(pencil_group(q).elements)))
    assert hashlib.sha256(text.encode()).hexdigest() == G0_SHA256[q]


@pytest.mark.parametrize("q", MODEL_QS)
def test_pencil_group_self_normalizing(q):
    # the one fact every verdict rests on: G_s = G_t exactly when
    # tau_s tau_t^-1 normalizes G_0, which the library tests as
    # membership in G_0
    assert normalizer_of_g0(q) == pencil_group(q)


def test_pencil_group_route_caps():
    # the plane search is a test oracle; the library has the model only
    with pytest.raises(CapExceeded):
        oracles.pencil_group(7, "search")
    for route in ("search", "auto"):
        with pytest.raises(InvalidInput, match="unknown route"):
            pencil_group(3, route)
    with pytest.raises(CapExceeded):
        pencil_group(11, "model")
    with pytest.raises(InvalidInput):
        pencil_group(6, "model")


def test_pencil_group_is_built_once_per_q():
    assert pencil_group(7) is pencil_group(7, "model")


def test_stabilizer_perms_sit_inside_pencil_group():
    # the coarse moves act within the pencil group, so verdicts are
    # invariant under them
    for q in (2, 3, 4, 5):
        g0 = pencil_group(q)
        for s in stabilizer_index_perms(canonical_difference_set(q)):
            assert s in g0


@pytest.mark.parametrize("q", [2, 3])
def test_local_pencil_groups_search_matches_bookkeeping(q):
    m = normalized(q, tuple(range(q, -1, -1)), tuple(range(q + 1)))
    M = m.decode()
    rows = tuple(reversed(range(q + 1)))
    scrambled = DifferenceMatrix(q, (
        M.columns[0],
        DifferenceVector(q, M.columns[1].modulus,
                         tuple(M.columns[1].entries[i] for i in rows)),
        M.columns[2],
    ))
    by_search = local_pencil_groups(scrambled, "search")
    by_model = local_pencil_groups(scrambled, "model")
    assert by_search == by_model


def test_local_pencil_groups_on_normalized_matrix():
    a1, a2 = (0, 2, 1, 3), (1, 3, 2, 0)
    g0, g1, g2 = local_pencil_groups(normalized(3, a1, a2).decode())
    assert g0 == pencil_group(3)
    assert g1 == oracles.conjugate_by(g0, a1)
    assert g2 == oracles.conjugate_by(g0, a2)


def test_non_desarguesian_column_short_circuits(monkeypatch):
    # no such column can arise from a real cyclic plane of order <= 9,
    # so force the plane-search oracle's branch by stubbing out its
    # Moufang test
    monkeypatch.setattr(oracles, "is_desarguesian", lambda plane: False)
    M = normalized(2, identity(3), identity(3)).decode()
    with pytest.raises(NonDesarguesianColumn) as e:
        local_pencil_groups(M, route="search")
    assert e.value.column == 0


def test_certify_identity_matrix_inconclusive():
    for q in (2, 3, 4, 5):
        e = identity(q + 1)
        verdict = certify_exotic(normalized(q, e, e).decode())
        assert verdict.outcome == INCONCLUSIVE
        assert verdict.witness is None


def test_certify_transposition_exotic_at_q5():
    # a transposition of two labels is not a fractional-linear map, so
    # the middle pencil group drifts away from its neighbors
    a2 = (0, 1, 2, 3, 5, 4)
    verdict = certify_exotic(normalized(5, identity(6), a2).decode())
    assert verdict.outcome == CERTIFIED_EXOTIC
    w = verdict.witness
    assert w.edge == (1, 2)
    groups = local_pencil_groups(normalized(5, identity(6), a2).decode())
    assert w.perm in groups[1].elements
    assert w.perm not in groups[2].elements


def test_certify_transposition_inconclusive_at_q4():
    # the q=4 pencil group is all of Sym(5), so no label shuffle can
    # produce a mismatch
    a2 = (0, 1, 2, 4, 3)
    verdict = certify_exotic(normalized(4, identity(5), a2).decode())
    assert verdict.outcome == INCONCLUSIVE


def test_certify_normalized_agrees_with_full_certifier():
    for a1, a2 in [
        ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5)),
        ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 5, 4)),
        ((1, 0, 2, 3, 4, 5), (2, 1, 0, 3, 4, 5)),
    ]:
        m = normalized(5, a1, a2)
        assert certify_normalized(m) == certify_exotic(m.decode())


def test_classify_and_certify_agree_exactly():
    # outcome, edge and perm, for every class at q <= 4 and a seeded
    # sample at q = 5: the census rule against the decoded matrix's
    # label twists
    rng = random.Random(28)
    samples = [classes_of(q, extra) for q in (2, 3, 4)
               for extra in (False, True)]
    samples += [rng.sample(classes_of(5), 300),
                rng.sample(classes_of(5, True), 50)]
    kinds = set()
    for classes in samples:
        for c in classes:
            verdict = certify_exotic(c.representative.decode())
            assert c.verdict == verdict
            kinds.add(None if verdict.witness is None
                      else verdict.witness.edge)
    assert kinds == {None, (0, 1), (1, 2)}


def three_group_witness(M):
    """(edge, perm) of the first mismatched edge, or None, by building
    the three conjugate groups and comparing their element sets: the
    reference for certify_exotic's membership tests."""
    w = mismatch_witness(local_pencil_groups(M, "model"))
    return None if w is None else (w.edge, w.perm)


def scrambled(q, a1, a2, rng):
    # one random affine map per column and one shared row order: the
    # pencil groups move by a common relabelling
    M = normalized(q, a1, a2).decode()
    m = M.modulus
    rows = rng.sample(range(q + 1), q + 1)
    cols = []
    for col in M.columns:
        a, b = rng.choice(zmod_units(m)), rng.randrange(m)
        cols.append([(a * col.entries[r] + b) % m for r in rows])
    return DifferenceMatrix.make(q, cols)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_certify_exotic_matches_three_group_comparison(q):
    # alphas in G_0 give Inconclusive; alpha1 outside it mismatches edge
    # (0, 1) first; alpha1 inside and alpha2 outside mismatch (1, 2).
    # Edge (2, 0) is never first: equal G_0, G_1 and G_1, G_2 force
    # equal G_2, G_0.  At q <= 4, G_0 is all of Sym(q+1).
    rng = random.Random(q)
    g0 = sorted(pencil_group(q).elements)
    labels = range(q + 1)

    def outside():
        return tuple(rng.sample(labels, q + 1))

    pairs = []
    for _ in range(4):
        pairs += [(rng.choice(g0), rng.choice(g0)),
                  (outside(), rng.choice(g0)),
                  (outside(), outside()),
                  (rng.choice(g0), outside())]
    edges = set()
    for a1, a2 in pairs:
        M = scrambled(q, a1, a2, rng)
        verdict = certify_exotic(M)
        expected = three_group_witness(M)
        if expected is None:
            assert verdict == ExoticityVerdict(INCONCLUSIVE)
        else:
            assert verdict.outcome == CERTIFIED_EXOTIC
            assert (verdict.witness.edge, verdict.witness.perm) == expected
            edges.add(expected[0])
    assert edges == (set() if q <= 4 else {(0, 1), (1, 2)})


def test_witness_walk_matches_three_listed_groups():
    # the verdict rule, read in the frame t0 with alpha_t = t_t t0^-1,
    # against the least element of G_s - G_t from three listed groups,
    # on random twist triples; G_1 = G_0 in half of them, so that edge
    # (1, 2) is reached.  At q = 8, 9 (eta > 1) a witness that fixes
    # labels 0, 1, 2 checks the order of the eta members of G_s that
    # send 0, 1, 2 to the same triple
    rng = random.Random(18)
    kinds = set()
    for q in (5, 7, 8, 9):
        g0 = pencil_group(q)
        members = sorted(g0.elements)
        for k in range(150):
            twists = [tuple(rng.sample(range(q + 1), q + 1))
                      for _ in range(3)]
            if k % 2:
                twists[1] = compose(rng.choice(members), twists[0])
            expected = mismatch_witness(
                tuple(oracles.conjugate_by(g0, s) for s in twists))
            back = inverse(twists[0])
            verdict = exotic._normalized_verdict(
                q, twists[0], compose(twists[1], back),
                compose(twists[2], back), {})
            assert verdict.witness == expected
            if expected is not None:
                h = expected.perm
                fixed = 3 if h[:3] == (0, 1, 2) else 2 if h[:2] == (0, 1) \
                    else 0
                kinds.add((q, expected.edge, fixed))
    assert {(0, 1), (1, 2)} <= {edge for _, edge, _ in kinds}
    assert {(8, 3), (9, 3)} & {(q, fixed) for q, _, fixed in kinds}
    assert 2 in {fixed for _, _, fixed in kinds}
    assert (5, 0) in {(q, fixed) for q, _, fixed in kinds}


def test_certify_runs_no_plane_search():
    # G_0 membership decides every verdict: in a fresh process whose
    # plane engine raises, certify gives the verdicts of a working one
    rng = random.Random(13)
    matrices = []
    for q in (2, 3, 4, 5):
        matrices.append(normalized(q, identity(q + 1), identity(q + 1))
                        .decode())
        for _ in range(4):
            matrices.append(scrambled(
                q, tuple(rng.sample(range(q + 1), q + 1)),
                tuple(rng.sample(range(q + 1), q + 1)), rng))
    expected = []
    for M in matrices:
        v = certify_exotic(M)
        expected.append(
            f"{v.outcome} {v.witness.summary() if v.witness else '-'}")
    assert CERTIFIED_EXOTIC + " edge(0, 1)" in " ".join(expected)
    script = textwrap.dedent(f"""
        import singerlat.plane
        from singerlat.diffsets import matrix_from_text
        from singerlat.exotic import certify_exotic

        def run(self):
            raise RuntimeError("the plane search ran")

        singerlat.plane._Search.run = run
        for text in {[matrix_to_text(M) for M in matrices]!r}:
            v = certify_exotic(matrix_from_text(text))
            print(v.outcome, v.witness.summary() if v.witness else "-")
        """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_from_matrix_matches_normalize_matrix(q):
    # from_matrix reads the alphas off the column twists; normalize_matrix
    # (affine map per column, then the row sort) stays the reference
    rng = random.Random(100 + q)
    D = canonical_difference_set(q)
    for _ in range(12):
        a1 = tuple(rng.sample(range(q + 1), q + 1))
        a2 = tuple(rng.sample(range(q + 1), q + 1))
        M = scrambled(q, a1, a2, rng)
        assert NormalizedMatrix.from_matrix(M).decode() \
            == normalize_matrix(M, D)


def test_fast_condition_matches_certificate_on_samples():
    g0 = pencil_group(5)
    pairs = list(itertools.islice(
        enumerate_normalized(5), 0, 518400, 9973))
    assert len(pairs) > 50
    for m in pairs:
        fast = fast_necessary_condition(m, g0)
        outcome = certify_normalized(m).outcome
        assert fast == (outcome == INCONCLUSIVE)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_normalized(2)) == 36
    assert sum(1 for _ in enumerate_normalized(3)) == 576
    assert sum(1 for _ in enumerate_normalized(4)) == 14400


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        next(enumerate_normalized(7))
    with pytest.raises(CapExceeded):
        classify(7)


def test_classify_q2_against_burnside():
    classes = classes_of(2)
    assert len(classes) == 4
    assert burnside_class_count(2, list(itertools.permutations(range(3)))) == 4
    assert all(c.verdict.outcome == INCONCLUSIVE for c in classes)
    assert all(c.orbit_size == 9 for c in classes)
    assert sum(c.orbit_size for c in classes) == 36


def test_classify_q3_against_burnside():
    classes = classes_of(3)
    assert len(classes) == 24
    assert burnside_class_count(3, list(itertools.permutations(range(4)))) == 24
    assert sum(c.orbit_size for c in classes) == 576
    assert all(c.verdict.outcome == INCONCLUSIVE for c in classes)


def test_classify_q4_all_inconclusive():
    classes = classes_of(4)
    assert len(classes) == 70
    assert burnside_class_count(4, list(itertools.permutations(range(5)))) == 70
    assert sum(c.orbit_size for c in classes) == 14400
    assert all(c.verdict.outcome == INCONCLUSIVE for c in classes)
    assert candidate_count(4) == 70


def test_classify_q5_census():
    classes = classes_of(5)
    assert sum(c.orbit_size for c in classes) == 518400
    assert len(classes) == 19296
    inconclusive = [c for c in classes if c.verdict.outcome == INCONCLUSIVE]
    assert len(inconclusive) == 544
    assert burnside_class_count(5, list(itertools.permutations(range(6)))) == 19296
    assert burnside_class_count(5, sorted(pencil_group(5).elements)) == 544


def test_classify_q5_candidate_count_under_bound():
    assert candidate_count(5) == 544
    assert candidate_count(5) <= bound_B(5)


@pytest.mark.parametrize("q,count", [
    (2, 4), (3, 24), (4, 70), (5, 544), (7, 4192), (8, 3150), (9, 9624)])
def test_candidate_count_matches_burnside(q, count):
    # beyond the census cap too: an independent orbit count over the
    # normalizer found by search, which is G_0 itself
    assert candidate_count(q) == count
    assert burnside_class_count(q, normalizer_of_g0(q).elements) == count
    assert count <= bound_B(q)


def test_candidate_count_cap():
    with pytest.raises(CapExceeded):
        candidate_count(11)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("extra_moves", [False, True])
def test_census_bytes_are_pinned(q, extra_moves):
    text = census_to_text(classes_of(q, extra_moves))
    assert hashlib.sha256(text.encode()).hexdigest() \
        == CENSUS_SHA256[(q, extra_moves)]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("extra_moves", [False, True])
def test_classify_matches_brute_force_walk(q, extra_moves):
    got = [(c.representative.alpha1, c.representative.alpha2, c.orbit_size)
           for c in classes_of(q, extra_moves)]
    assert got == brute_force_census(q, extra_moves)


def test_classify_q5_extra_matches_brute_force_walk():
    # at q <= 4 the walk cannot tell a dropped rotation or duality join
    # from a correct one; at q = 5 it can
    got = [(c.representative.alpha1, c.representative.alpha2, c.orbit_size)
           for c in classify(5, extra_moves=True)]
    assert got == brute_force_census(5, extra_moves=True)


def test_classify_checks_stabilizer_inside_g0(monkeypatch):
    # the verdict is a class invariant only when S lies in G_0; a G_0
    # missing S must stop the census, also under python -O
    trivial = PermGroup(4, (), {identity(4)})
    monkeypatch.setattr("singerlat.exotic.pencil_group", lambda q: trivial)
    with pytest.raises(AssertionError, match="outside the pencil group"):
        classify(3)
    with pytest.raises(AssertionError, match="outside the pencil group"):
        candidate_count(3)


def test_classify_checks_duality_normalizes_stabilizer(monkeypatch):
    monkeypatch.setattr("singerlat.exotic._duality_perm",
                        lambda q: (1, 0, 2, 3))
    with pytest.raises(AssertionError, match="duality"):
        classify(3, extra_moves=True)


@functools.lru_cache(maxsize=None)
def coarse_census(q):
    """(S, least, coset_of, orbit_of, first, lengths) as classify builds
    them."""
    stab = exotic._census_stabilizer(q, pencil_group(q))
    least, coset_of = exotic._right_cosets(
        itertools.permutations(range(q + 1)), stab)
    return (stab, least, coset_of,
            *exotic._coset_pair_orbits(least, coset_of, stab))


@pytest.mark.parametrize("q,least_rows,fixed_rows", [
    (2, 2, 2), (3, 4, 2), (4, 5, 2), (5, 88, 12),
    (7, 40, 4), (8, 22, 4), (9, 44, 6)])
def test_coset_pair_orbits_match_every_code_oracle(q, least_rows, fixed_rows):
    # all perms at q <= 5, the G_0 cosets that candidate_count walks at
    # q = 7, 8, 9; at every q some rows least in their p0-orbit are fixed
    # by a p0 other than e, so the walk meets both kinds of row
    g0 = pencil_group(q)
    stab = exotic._census_stabilizer(q, g0)
    least, coset_of = exotic._right_cosets(
        itertools.permutations(range(q + 1)) if q <= exotic.CLASSIFY_Q_CAP
        else sorted(g0.elements), stab)
    moves = [exotic._right_table(least, coset_of, inverse(p0)) for p0 in stab]
    rows = [c for c in range(len(least)) if min(m[c] for m in moves) == c]
    assert len(rows) == least_rows
    assert sum(sum(m[c] == c for m in moves) > 1 for c in rows) == fixed_rows
    assert exotic._coset_pair_orbits(least, coset_of, stab) \
        == oracles.coset_pair_orbits_per_code(least, coset_of, stab)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_extra_move_roots_match_every_pair_oracle(q):
    stab, least, coset_of, orbit_of, first, _ = coarse_census(q)
    assert exotic._extra_move_roots(
        q, least, coset_of, stab, orbit_of, first) \
        == oracles.extra_move_roots_per_pair(
            q, least, coset_of, stab, orbit_of)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_extra_move_roots_from_any_member_of_each_class(q):
    # the |S| rotation images and the duality image of any one member of
    # a coarse class, not only of its least pair, reach every class that
    # the class joins
    stab, least, coset_of, orbit_of, first, _ = coarse_census(q)
    n = len(least)
    nu = exotic._duality_perm(q)
    nu_inv = inverse(nu)
    rng = random.Random(19 + q)
    parent = list(range(len(first)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for k, code in enumerate(first):
        c1, c2 = divmod(code, n)
        p0, p1, p2 = (rng.choice(stab) for _ in range(3))
        a1 = compose(p1, compose(least[c1], inverse(p0)))
        a2 = compose(p2, compose(least[c2], inverse(p0)))
        images = [(compose(a2, compose(s, a1)), inverse(compose(s, a1)))
                  for s in stab]
        images.append((compose(nu, compose(a2, nu_inv)),
                       compose(nu, compose(a1, nu_inv))))
        for x, y in images:
            r1, r2 = find(k), find(orbit_of[coset_of[x] * n + coset_of[y]])
            parent[max(r1, r2)] = min(r1, r2)
    assert [find(k) for k in range(len(first))] == exotic._extra_move_roots(
        q, least, coset_of, stab, orbit_of, first)


def test_classify_checks_extra_moves_keep_verdicts(monkeypatch):
    # roots that join an exotic class to the inconclusive class of the
    # identity pair must stop the census, also under python -O
    g0 = pencil_group(5).elements

    def joined(q, least, coset_of, stab, orbit_of, first):
        roots = list(range(len(first)))
        roots[next(k for k, code in enumerate(first)
                   if least[code // len(least)] not in g0)] = 0
        return roots

    monkeypatch.setattr("singerlat.exotic._extra_move_roots", joined)
    with pytest.raises(AssertionError, match="changed a verdict"):
        classify(5, extra_moves=True)
    out = run_python_O("""
        import singerlat.exotic as exotic
        g0 = exotic.pencil_group(5).elements

        def joined(q, least, coset_of, stab, orbit_of, first):
            roots = list(range(len(first)))
            roots[next(k for k, code in enumerate(first)
                       if least[code // len(least)] not in g0)] = 0
            return roots

        exotic._extra_move_roots = joined
        try:
            exotic.classify(5, extra_moves=True)
        except AssertionError as e:
            print("raised:", e)
        """)
    assert out == "raised: rotation or duality changed a verdict\n"


def test_classify_orbit_sizes_divide_group_order():
    for q in (2, 3, 4):
        eta = {2: 1, 3: 1, 4: 2}[q]
        order = (3 * eta) ** 3
        for c in classes_of(q):
            assert order % c.orbit_size == 0


def test_classify_representative_is_orbit_minimum():
    # representatives are fixed points of the move that sends a pair to
    # the lexicographic minimum of its orbit
    stab = stabilizer_index_perms(canonical_difference_set(3))
    for c in classes_of(3)[:6]:
        a1, a2 = c.representative.alpha1, c.representative.alpha2
        for p0 in stab:
            p0inv = inverse(p0)
            for p1 in stab:
                for p2 in stab:
                    b1 = compose(p1, compose(a1, p0inv))
                    b2 = compose(p2, compose(a2, p0inv))
                    assert (a1, a2) <= (b1, b2)


def test_classify_exotic_witnesses_check_out():
    # G_t is alpha_t^-1 G_0 alpha_t, so x lies in G_t exactly when
    # alpha_t x alpha_t^-1 lies in G_0; no conjugate group is built
    g0 = pencil_group(5)
    exotic = [c for c in classes_of(5)
              if c.verdict.outcome == CERTIFIED_EXOTIC]
    assert len(exotic) == 18752

    def in_column_group(x, alpha):
        return conjugator(inverse(alpha))(x) in g0.elements

    for c in exotic:
        w = c.verdict.witness
        alphas = (identity(6), c.representative.alpha1,
                  c.representative.alpha2)
        s, t = w.edge
        assert in_column_group(w.perm, alphas[s])
        assert not in_column_group(w.perm, alphas[t])
        for u, v in ((0, 1), (1, 2), (2, 0)):
            if (u, v) == (s, t):
                break
            # equal orders, so G_u inside G_v means equal
            assert all(in_column_group(conjugator(alphas[u])(g), alphas[v])
                       for g in g0.generators)


def test_classify_thread_counts_agree():
    assert classify(3, threads=1) == classify(3, threads=8)


def test_classify_extra_moves_merge_classes():
    assert len(classes_of(2, extra_moves=True)) == 2
    assert sum(c.orbit_size for c in classes_of(2, extra_moves=True)) == 36
    assert len(classes_of(3, extra_moves=True)) == 4
    assert sum(c.orbit_size for c in classes_of(3, extra_moves=True)) == 576


def test_extra_moves_preserve_verdict_split():
    base = classes_of(5)
    extra = tuple(classify(5, extra_moves=True))
    assert sum(c.orbit_size for c in extra) == 518400
    base_inc = sum(c.orbit_size for c in base
                   if c.verdict.outcome == INCONCLUSIVE)
    extra_inc = sum(c.orbit_size for c in extra
                    if c.verdict.outcome == INCONCLUSIVE)
    assert base_inc == extra_inc == 14400


def test_verdict_requires_witness():
    with pytest.raises(InvalidInput):
        ExoticityVerdict(CERTIFIED_EXOTIC, None)
    with pytest.raises(InvalidInput):
        ExoticityVerdict("Maybe", None)
    with pytest.raises(InvalidInput, match="inconclusive verdict has no"):
        ExoticityVerdict(INCONCLUSIVE, ExoticWitness((0, 1), (1, 0, 2)))


def test_bound_values():
    assert [bound_B(q) for q in (2, 3, 4, 5)] == [4, 64, 400, 1600]
    with pytest.raises(InvalidInput):
        bound_B(1)


def test_lower_bound_values():
    assert lower_A(2) == Fraction(2, 9)
    assert lower_A(3) == Fraction(32, 9)
    assert lower_A(8) == Fraction(30105600)
    with pytest.raises(InvalidInput):
        lower_A(6)


def test_ratio_table_tail():
    rows = ratio_table((2, 3, 4, 5, 7, 8, 9, 11))
    ratios = [r[3] for r in rows]
    assert ratios[0] == pytest.approx(18.0)
    assert ratios[2] == pytest.approx(36.0)
    assert all(a > b for a, b in zip(ratios[2:], ratios[3:]))
    assert ratios[-1] < 1e-6


def test_census_text_q2_golden():
    expected = (
        "alpha1=[0 1 2] alpha2=[0 1 2] orbit=9 verdict=Inconclusive witness=-\n"
        "alpha1=[0 1 2] alpha2=[0 2 1] orbit=9 verdict=Inconclusive witness=-\n"
        "alpha1=[0 2 1] alpha2=[0 1 2] orbit=9 verdict=Inconclusive witness=-\n"
        "alpha1=[0 2 1] alpha2=[0 2 1] orbit=9 verdict=Inconclusive witness=-\n"
    )
    assert census_to_text(classes_of(2)) == expected


def test_census_summary_q2_golden():
    expected = (
        "q\ttotal\tclasses\tcertified_exotic\tinconclusive\tbound_B\n"
        "2\t36\t4\t0\t4\t4\n"
    )
    assert census_summary(2, classes_of(2)) == expected


def test_census_witness_rendering():
    text = census_to_text(classes_of(5))
    assert "verdict=CertifiedExotic witness=edge(1, 2) perm=[0 2 1 5 4 3]" in text


def test_census_text_round_trips():
    text = census_to_text(classes_of(5))
    parsed = census_from_text(text)
    back = census_to_text(parsed)
    # equal texts, compared by digest: pytest's diff of two 2.2 MB texts
    # would run for minutes.  A failure names the first line that differs
    assert (hashlib.sha256(back.encode()).hexdigest()
            == hashlib.sha256(text.encode()).hexdigest()), (
        "round trip differs from line %d" % next(
            i for i, (a, b) in enumerate(itertools.zip_longest(
                text.splitlines(), back.splitlines()), start=1) if a != b))
    assert sum(c.orbit_size for c in parsed) == 518400


def test_census_text_matches_the_per_row_reference():
    # lists that the census pins do not cover: equal alphas and witnesses
    # that are distinct objects, one alpha under both verdicts, one
    # verdict under two orbit sizes, a single row and no rows
    e = identity(6)
    a = (0, 1, 2, 3, 5, 4)
    perm = (0, 2, 1, 5, 4, 3)
    certified = ExoticityVerdict(
        CERTIFIED_EXOTIC, ExoticWitness((1, 2), perm))
    certified_copy = ExoticityVerdict(
        CERTIFIED_EXOTIC, ExoticWitness((1, 2), tuple(list(perm))))
    assert certified_copy == certified and certified_copy is not certified
    unknown = ExoticityVerdict(INCONCLUSIVE)
    rows = [
        EquivClass(normalized(5, e, (0, 1, 3, 2, 5, 4)), 135, unknown),
        EquivClass(normalized(5, e, a), 405, certified),
        EquivClass(normalized(5, tuple(list(e)), tuple(list(a))), 405,
                   certified_copy),
        EquivClass(normalized(5, a, e), 135, certified_copy),
        EquivClass(normalized(5, e, e), 405, ExoticityVerdict(INCONCLUSIVE)),
        EquivClass(normalized(5, a, a), 27, ExoticityVerdict(
            CERTIFIED_EXOTIC, ExoticWitness((0, 1), perm))),
    ]
    sample = random.Random(24).sample(classes_of(5, True), 50)
    for classes in (rows, rows[1:2], [], sample, classes_of(4)):
        assert census_to_text(classes) \
            == oracles.census_to_text_per_row(classes)


def test_census_text_memory():
    # the traced peak of the q = 5 census and its text, held at once, is
    # 5.4 MB with slotted records, array-backed coset tables and a text
    # joined from shared pieces, and 11.9 MB with a dict per record, a
    # boxed orbit number per coset pair and a string per line; the bound
    # sits between the two
    assert census_to_text([]) == "\n"
    pencil_group(5)
    tracemalloc.start()
    try:
        text = census_to_text(classify(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000
    assert peak < 8_000_000


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_every_census_record_passes_the_membership_reference(q):
    # the parser re-derives each verdict through the witness walk; the
    # reference checks each parsed record by conjugation alone
    for extra_moves in (False, True):
        parsed = census_from_text(census_to_text(classes_of(q, extra_moves)))
        assert len(parsed) == len(classes_of(q, extra_moves))
        assert all(oracles.verdict_holds(c.representative, c.verdict)
                   for c in parsed)


def test_census_parser_rejects_garbage():
    with pytest.raises(InvalidInput):
        census_from_text("alpha1=[0 1 2] alpha2=[0 1 2]\n")
    with pytest.raises(InvalidInput):
        census_from_text(
            "alpha1=[0 1 2] alpha2=[0 1 2] orbit=9 verdict=Maybe witness=-\n")
    with pytest.raises(InvalidInput):
        census_from_text("")
    # records census_to_text can write but no census holds
    good = "alpha1=[0 1 2] alpha2=[0 1 2] orbit=9 verdict=Inconclusive witness=-\n"
    certified = (
        "alpha1=[0 1 2 3 4 5] alpha2=[0 1 2 3 5 4] orbit=405 "
        "verdict=CertifiedExotic witness=edge(1, 2) perm=[0 2 1 5 4 3]\n")
    census_from_text(certified)
    # each verdict text is compared with the one the alphas give
    unknown = re.escape("the alphas give verdict=Inconclusive witness=-")
    exotic_12 = re.escape(
        "the alphas give verdict=CertifiedExotic witness=edge(1, 2) "
        "perm=[0 2 1 5 4 3]")
    # each bad record follows a good one of its own degree
    for bad, message in [
        (good.replace("orbit=9", "orbit=0"), "orbit size 0"),
        (good.replace("witness=-", "witness=edge(0, 1) perm=[1 0 2]"),
         unknown),
        (good.replace("witness=-", "witness=column(0)"), unknown),
        (certified.replace("edge(1, 2)", "edge(7, 9)"), exotic_12),
        (certified.replace("edge(1, 2)", "edge(2, 1)"), exotic_12),
        (certified.replace("edge(1, 2) perm=[0 2 1 5 4 3]", "column(7)"),
         exotic_12),
        (certified.replace("perm=[0 2 1 5 4 3]", "perm=[0 2 1 5 4 3 6]"),
         exotic_12),
    ]:
        first = good if bad.startswith("alpha1=[0 1 2] ") else certified
        with pytest.raises(InvalidInput, match="census line 2: " + message):
            census_from_text(first + bad)
    # a degree past every cap keeps its error type and gains the line
    q11 = "[" + " ".join(map(str, range(12))) + "]"
    with pytest.raises(CapExceeded, match="census line 1: "):
        census_from_text(good.replace("[0 1 2]", q11))


def test_census_parser_refuses_orbits_that_are_not_ascii_or_too_long():
    # a non-ASCII digit is no digit of a census, and an orbit of more
    # digits than (q+1)!^2 is refused before it is turned into a number
    good = "alpha1=[0 1 2] alpha2=[0 1 2] orbit=9 verdict=Inconclusive witness=-\n"
    with pytest.raises(InvalidInput, match="census line 2: unrecognized"):
        census_from_text(good + good.replace("orbit=9", "orbit=\u0669"))
    with pytest.raises(InvalidInput, match="census line 2: orbit size "
                       "of more than 2 digits"):
        census_from_text(good + good.replace("orbit=9", "orbit=" + "9" * 5000))
    certified = (
        "alpha1=[0 1 2 3 4 5] alpha2=[0 1 2 3 5 4] orbit=405 "
        "verdict=CertifiedExotic witness=edge(1, 2) perm=[0 2 1 5 4 3]\n")
    census_from_text(certified.replace("orbit=405", "orbit=518400"))
    with pytest.raises(InvalidInput, match="census line 1: orbit size "
                       "of more than 6 digits"):
        census_from_text(certified.replace("orbit=405", "orbit=1000000"))


def test_census_parser_checks_degree_of_repeated_text():
    # "[0 1 2]" is parsed on line 1; on line 2 it must still be refused
    # as alpha2 of a degree-4 record
    text = (
        "alpha1=[0 1 2] alpha2=[0 1 2] orbit=9 verdict=Inconclusive witness=-\n"
        "alpha1=[0 1 2 3] alpha2=[0 1 2] orbit=9 verdict=Inconclusive "
        "witness=-\n")
    with pytest.raises(InvalidInput, match="census line 2: expected degree 4"):
        census_from_text(text)
    with pytest.raises(InvalidInput, match="census line 2: not a perm"):
        census_from_text(text.replace("[0 1 2 3]", "[0 1 1 3]"))
    # a verdict text met at degree 6 is no verdict at degree 8: line 1
    # fixes the degree of the file, so the record is refused before its
    # verdict is read
    witness = "verdict=CertifiedExotic witness=edge(1, 2) perm=[0 2 1 5 4 3]\n"
    text = (
        "alpha1=[0 1 2 3 4 5] alpha2=[0 1 2 3 5 4] orbit=405 " + witness
        + "alpha1=[0 1 2 3 4 5 6 7] alpha2=[0 1 2 3 4 5 6 7] orbit=9 "
        + witness)
    with pytest.raises(InvalidInput, match=re.escape(
            "census line 2: expected degree 6, got 8")):
        census_from_text(text)


def test_census_parser_refuses_a_second_degree():
    # line 1 fixes the degree of the file: the q = 2 census has 4 lines,
    # so the q = 3 census that follows it is refused on line 5
    q2, q3 = census_to_text(classes_of(2)), census_to_text(classes_of(3))
    for text, message in ((q2 + q3, "census line 5: expected degree 3, "
                           "got 4"),
                          (q3 + q2, "census line 25: expected degree 4, "
                           "got 3")):
        with pytest.raises(InvalidInput, match=re.escape(message)):
            census_from_text(text)


def test_census_parser_refusals_quote_long_permutations_briefly():
    # a permutation of 100,000 entries, or one with an entry of 5,000
    # digits, is quoted by its start and its size, on one short line
    tail = " alpha2=[0 1 2] orbit=9 verdict=Inconclusive witness=-\n"
    good = "alpha1=[0 1 2]" + tail
    for alpha1, message in (
            ("[" + " ".join(["0"] * 100_000) + "]",
             "census line 2: not a permutation of 0..99999: "
             "[0 0 0 0 0 0 0 0 ...] of degree 100000"),
            ("[0 1 " + "9" * 5000 + "]",
             "census line 2: non-integer entry in permutation text: "),
            ("[0 1 " + "9" * 4000 + "]",
             "census line 2: not a permutation of 0..2: "
             "[0 1 999...999 (4000 digits)]")):
        with pytest.raises(InvalidInput) as refused:
            census_from_text(good + "alpha1=" + alpha1 + tail)
        assert str(refused.value).startswith(message)
        assert len(str(refused.value).encode()) < 200


def test_census_text_keeps_its_bytes_for_distinct_equal_verdicts():
    # census_to_text keys each tail by the verdict object: equal verdicts
    # that are distinct objects, even ones freed after their line, give
    # the same text
    classes = classes_of(5)
    copies = (EquivClass(c.representative, c.orbit_size,
                         ExoticityVerdict(c.verdict.outcome, c.verdict.witness))
              for c in classes)
    digest = hashlib.sha256(census_to_text(copies).encode()).hexdigest()
    assert digest == CENSUS_SHA256[(5, False)]


def test_census_parser_refuses_verdicts_that_the_alphas_contradict():
    # Inconclusive exactly when alpha1 and alpha2 lie in G_0; otherwise
    # the least witness on the first edge whose groups differ, which is
    # the one verdict the parser accepts
    inconclusive = ("alpha1=[0 1 2 3 4 5] alpha2=[0 1 3 2 5 4] orbit=135 "
                    "verdict=Inconclusive witness=-\n")
    certified = ("alpha1=[0 1 2 3 4 5] alpha2=[0 1 2 3 5 4] orbit=405 "
                 "verdict=CertifiedExotic witness=edge(1, 2) "
                 "perm=[0 2 1 5 4 3]\n")
    census_from_text(inconclusive + certified)
    exotic_12 = ("verdict=CertifiedExotic witness=edge(1, 2) "
                 "perm=[0 2 1 5 4 3]")
    # valid certificates, each perm in G_s and outside G_t, that are not
    # the verdict classify writes: a witness that is not the least, and
    # one on a later edge
    rep = normalized(5, identity(6), (0, 1, 2, 3, 5, 4))
    not_least = certified.replace("perm=[0 2 1 5 4 3]", "perm=[0 2 3 4 1 5]")
    later_edge = certified.replace("edge(1, 2) perm=[0 2 1 5 4 3]",
                                   "edge(2, 0) perm=[0 2 1 4 3 5]")
    for valid, edge, perm in ((not_least, (1, 2), (0, 2, 3, 4, 1, 5)),
                              (later_edge, (2, 0), (0, 2, 1, 4, 3, 5))):
        assert valid.endswith(
            f"witness={ExoticWitness(edge, perm).summary()}\n")
        assert oracles.verdict_holds(rep, ExoticityVerdict(
            CERTIFIED_EXOTIC, ExoticWitness(edge, perm)))
    for bad, expected in [
        ("alpha1=[0 1 2 3 5 4] alpha2=[0 1 2 3 4 5] orbit=7 "
         "verdict=Inconclusive witness=-\n",
         "verdict=CertifiedExotic witness=edge(0, 1) perm=[0 2 1 5 4 3]"),
        ("alpha1=[0 1 2] alpha2=[0 1 2] orbit=1 verdict=CertifiedExotic "
         "witness=edge(0, 1) perm=[0 2 1]\n",
         "verdict=Inconclusive witness=-"),
        (certified.split(" verdict=")[0] + " verdict=Inconclusive witness=-\n",
         exotic_12),
        # G_0 = G_1 here, so no perm tells them apart
        (certified.replace("edge(1, 2)", "edge(0, 1)"), exotic_12),
        # the witness lies in G_1 and G_2 both
        (certified.replace("perm=[0 2 1 5 4 3]", "perm=[0 1 2 3 4 5]"),
         exotic_12),
        # the witness lies outside G_2
        (certified.replace("edge(1, 2)", "edge(2, 0)"), exotic_12),
        (not_least, exotic_12),
        (later_edge, exotic_12),
    ]:
        # each bad record follows a good one of its own degree
        first = inconclusive if bad.startswith("alpha1=[0 1 2 3") else (
            "alpha1=[0 1 2] alpha2=[0 1 2] orbit=9 "
            "verdict=Inconclusive witness=-\n")
        with pytest.raises(InvalidInput, match=re.escape(
                "census line 2: the alphas give " + expected)):
            census_from_text(first + bad)


def test_census_walks_the_witness_once_per_coset_of_g0(monkeypatch):
    # the witness for alpha depends only on the right coset G_0 alpha:
    # one walk for each of the 720 / 120 - 1 = 5 cosets of G_0 in Sym(6)
    # other than G_0, and none at q <= 4, where G_0 = Sym(q+1)
    texts = {(q, extra): census_to_text(classes_of(q, extra))
             for q in (2, 3, 4, 5) for extra in (False, True)}
    walk = exotic._least_outside
    calls = []

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(exotic, "_least_outside", counted)
    for q, walks in ((2, 0), (3, 0), (4, 0), (5, 5)):
        for run in (lambda: classify(q),
                    lambda: classify(q, extra_moves=True),
                    lambda: census_from_text(texts[(q, False)]),
                    lambda: census_from_text(texts[(q, True)])):
            calls.clear()
            run()
            assert len(calls) == walks


def test_census_parser_derives_verdicts_once_per_alpha(monkeypatch):
    # the parser runs the verdict rule at most twice per distinct alpha
    # text, once for each place it can take in a pair: 440 calls for the
    # 240 alphas of the 19,296 records at q = 5 (200 outside G_0), not
    # one per record
    text = census_to_text(classes_of(5))
    alphas = {token for line in text.splitlines()
              for token in re.findall(r"\[[0-9 ]*\]", line)[:2]}
    rule = exotic._normalized_verdict
    calls = []

    def counted(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(exotic, "_normalized_verdict", counted)
    assert len(census_from_text(text)) == 19_296
    assert len(alphas) == 240
    assert len(calls) == 440 <= 2 * len(alphas)


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_witness_depends_only_on_the_coset_of_g0(q):
    # g alpha for g in G_0 has the conjugate group of alpha, so the same
    # witness; the census keys each walk by the least member of G_0 alpha
    rng = random.Random(290 + q)
    members = sorted(pencil_group(q).elements)
    e = identity(q + 1)
    for _ in range(4):
        alpha = e
        while alpha in pencil_group(q):
            alpha = tuple(rng.sample(range(q + 1), q + 1))
        g = rng.choice(members)
        witness = exotic._least_outside(q, e, alpha)
        assert exotic._least_outside(q, e, compose(g, alpha)) == witness
        shared = {}
        exotic._normalized_verdict(q, e, compose(g, alpha), e, shared)
        assert shared[min(compose(h, alpha) for h in members)] == witness


def run_python_O(body):
    """stdout of a python -O subprocess running body on this checkout's
    sources; the script first checks that asserts are really off."""
    script = 'assert False, "asserts are on"  # skipped under -O\n' \
        + textwrap.dedent(body)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_model_route_checks_survive_python_O():
    # a prime that is no multiplier of the canonical set, and generators
    # that close to the identity alone: both must stop the construction
    out = run_python_O("""
        import singerlat.exotic as exotic
        prime_power = exotic.prime_power
        exotic.prime_power = lambda q: (2, 1)
        try:
            exotic.pencil_group(3, "model")
        except AssertionError as e:
            print("raised:", e)
        exotic.prime_power = prime_power
        exotic.closure = lambda gens, degree: frozenset([tuple(range(degree))])
        try:
            exotic.pencil_group(3, "model")
        except AssertionError as e:
            print("raised:", e)
        """)
    assert out == ("raised: 2 times the canonical set is no translate\n"
                   "raised: pencil group of order 1, expected 24\n")


def test_witness_walk_check_survives_python_O():
    # t = g s with g in G_0 gives G_t = G_s: the walk finds no member of
    # G_s outside G_t and must refuse to return a witness
    g = max(pencil_group(5).elements)
    out = run_python_O(f"""
        from singerlat.exotic import _least_outside
        from singerlat.permgrp import compose
        s = (4, 0, 5, 2, 1, 3)
        try:
            _least_outside(5, s, compose({g!r}, s))
        except AssertionError as e:
            print("raised:", e)
        """)
    assert out == f"raised: {perm_to_str(g)} normalizes the pencil group\n"


def test_witness_walk_rechecks_its_witness(monkeypatch):
    # a sorted G_0 with one perm outside G_0 in the place of the member
    # that gives the least witness: the walk returns nothing that plain
    # conjugation does not put in G_s and outside G_t, also under -O
    members = list(exotic._sorted_pencil_group(5))
    i = members.index((0, 2, 1, 5, 4, 3))
    members[i] = (0, 2, 1, 5, 3, 4)
    assert members == sorted(members)
    assert members[i] not in pencil_group(5)
    a = (0, 1, 2, 3, 5, 4)
    assert exotic._least_outside(5, identity(6), a) == (0, 2, 1, 5, 4, 3)
    monkeypatch.setattr(exotic, "_sorted_pencil_group",
                        lambda q: tuple(members))
    message = "witness [0 2 1 5 3 4] is not in G_s outside G_t"
    with pytest.raises(AssertionError, match=re.escape(message)):
        exotic._least_outside(5, identity(6), a)
    out = run_python_O(f"""
        import singerlat.exotic as exotic
        exotic._sorted_pencil_group = lambda q: {tuple(members)!r}
        try:
            exotic._least_outside(5, tuple(range(6)), {a!r})
        except AssertionError as e:
            print("raised:", e)
        """)
    assert out == f"raised: {message}\n"


def test_ball_and_plane_checks_survive_python_O():
    # a search whose every point is mapped but no line, and a level-2
    # group without the identity: both must still stop the run
    out = run_python_O("""
        import singerlat.ball as ball
        from singerlat.plane import (
            _incidence_tables, _Search, canonical_plane, incidence_lists)
        from singerlat.diffsets import canonical_difference_set
        from singerlat.exotic import NormalizedMatrix
        search = _Search(_incidence_tables(*incidence_lists(canonical_plane(2))))
        search.n_mapped = search.npts
        try:
            next(search.run())
        except AssertionError as e:
            print("raised:", e)
        e = (0, 1, 2)
        M = NormalizedMatrix(2, canonical_difference_set(2), e, e).decode()
        ball._h2_singer_maps = lambda b, H, tables: []
        try:
            ball.h2_collineations_fixing_center(ball.build_ball(M, 2), True)
        except AssertionError as e:
            print("raised:", e)
        """)
    assert out == ("raised: every point is mapped but a line is not\n"
                   "raised: the identity is not among the collineations\n")
