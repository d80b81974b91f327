import hashlib
import json
import random
import re
import subprocess
import sys
import time

import pytest

from conftest import checkout_env, identity_matrix, q11_matrix
from singerlat import cli, exotic
from singerlat.arith import zmod_units
from singerlat.ball import BallReport, complex_from_text
from singerlat.cli import main
from singerlat.diffsets import canonical_difference_set, label_perms, \
    matrix_to_text, set_from_text
from singerlat.exotic import NormalizedMatrix, census_from_text
from singerlat.permgrp import identity
from singerlat.plane import canonical_plane, plane_from_text, plane_to_text


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def q2_file(tmp_path):
    path = tmp_path / "classical_q2.dm"
    path.write_text(matrix_to_text(identity_matrix(2)))
    return path


@pytest.fixture
def twisted_q5_file(tmp_path):
    M = NormalizedMatrix(5, canonical_difference_set(5),
                         (0, 2, 1, 3, 4, 5), identity(6)).decode()
    path = tmp_path / "twisted_q5.dm"
    path.write_text(matrix_to_text(M))
    return path


def test_gen_singer_stdout(capsys):
    code, out, _ = run(capsys, "gen-singer", 2)
    assert code == 0
    assert out == '{"elements": [0, 1, 3], "modulus": 7, "q": 2}\n'


# sha256 of the stdout of gen-singer q and of build-plane q
STDOUT_SHA256 = {
    2: ("6b9d65e8a027f26c1fda925445d3699b39d34e2fe3475494a7c4746c33f9b35b",
        "06571262e07d4a3c90abfd4b53b2e1a20e2e308256f3a936cf2c1e0aed5b0a2c"),
    3: ("ba26c9e00d4ca20b3591b32799f6bbe5089eefe2f8341d4822c3732cda074ef2",
        "703e50ef76296b7d4b2f31ec8967eac0145173b57d8491c6269679d62efc5ac5"),
    4: ("27ecd4d46bdb0ae337fef9e4123310c9b395527c4cbee5c4814db9bf9d2c4e36",
        "f9e8ea48e8a5f1847a91d9c9f7f1874d161458f8e1b79f7028b30959afea51cb"),
    5: ("f6ad3380a735a1ced8be50a1fcb78a3a9cce871c8491523eee1dec62bc70a0e2",
        "985565e24400009426bb28008ee16fcb877c78fbdf81fca0dcfa28534d074800"),
    7: ("a8d562b3f4e6647168ba49ce4e4df5697efa1165be5b5d97214bd05ba86667d8",
        "012fbaedcd93ab4b0b305125edb42e4c6bd1a9e1ef8359b8a2cefb95930e2805"),
    8: ("33e8d7cf13425c60205b15cc14cdd6d041295374a6e0d7f7b89e5627320788dd",
        "113fc2e64d575aa2d0223da6dc9fa72b8b97d83dba9cddd54e88ec9edac5cebb"),
    9: ("bdfb3a483ac965457694b0b26e0dd57e1140ce803c16f601718997b7eedac82f",
        "21204c000ea2e7f2d1138955d5fbc52659dc36b8c74f68549625f4ad0ae061de"),
}


@pytest.mark.parametrize("q", sorted(STDOUT_SHA256))
def test_gen_singer_and_build_plane_stdout_bytes(capsys, q):
    for command, digest in zip(("gen-singer", "build-plane"),
                               STDOUT_SHA256[q]):
        code, out, _ = run(capsys, command, q)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_gen_singer_large_q_parses_back(capsys):
    code, out, _ = run(capsys, "gen-singer", 8)
    assert code == 0
    D = set_from_text(out)
    assert D.q == 8 and D.modulus == 73 and len(D.elements) == 9


def test_gen_singer_rejects_non_prime_power(capsys):
    code, out, err = run(capsys, "gen-singer", 6)
    assert code == 2
    assert out == ""
    assert "prime power" in err


def test_gen_singer_to_file(tmp_path, capsys):
    target = tmp_path / "ds.json"
    code, out, _ = run(capsys, "gen-singer", 3, "-o", target)
    assert code == 0
    assert str(target) in out
    assert set_from_text(target.read_text()) == canonical_difference_set(3)


def test_gen_singer_output_in_a_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "ds.json"
    code, out, err = run(capsys, "gen-singer", 3, "-o", target)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")


@pytest.mark.parametrize("blocker", ["missing", "a file"])
def test_output_under_no_directory_names_it(tmp_path, capsys, blocker):
    # the directory is missing, or a file stands in its place: the
    # message names it rather than blaming write access
    parent = tmp_path / "dir"
    if blocker == "a file":
        parent.write_text("")
    target = parent / "x.json"
    code, out, err = run(capsys, "gen-singer", 2, "-o", target)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: no directory {parent}\n"
    assert sorted(tmp_path.iterdir()) == ([parent] if blocker == "a file"
                                          else [])


def test_gen_singer_output_onto_a_directory(tmp_path, capsys):
    code, out, err = run(capsys, "gen-singer", 3, "-o", tmp_path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {tmp_path}")


@pytest.mark.parametrize("command", ["gen-singer", "build-plane", "ball"])
@pytest.mark.parametrize("onto_directory", [False, True])
def test_unwritable_output_is_refused_before_any_work(
        command, onto_directory, q2_file, tmp_path, capsys, monkeypatch):
    for name in ("build_ball", "canonical_difference_set", "canonical_plane"):
        monkeypatch.setattr(f"singerlat.cli.{name}",
                            lambda *args, name=name: pytest.fail(f"{name} ran"))
    before = sorted(tmp_path.rglob("*"))
    target = tmp_path if onto_directory else tmp_path / "missing" / "x.txt"
    args = {"gen-singer": [2], "build-plane": [2], "ball": [q2_file, 2]}
    code, out, err = run(capsys, command, *args[command], "-o", target)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert sorted(tmp_path.rglob("*")) == before


def test_verify_ds_round_trip(tmp_path, capsys):
    target = tmp_path / "ds.json"
    run(capsys, "gen-singer", 4, "-o", target)
    code, out, _ = run(capsys, "verify-ds", target)
    assert code == 0
    assert out.startswith("ok: q=4 modulus=21")
    assert "canonical=yes" in out


def test_verify_ds_non_canonical(tmp_path, capsys):
    target = tmp_path / "ds.json"
    target.write_text('{"elements": [0, 2, 3], "modulus": 7, "q": 2}\n')
    code, out, _ = run(capsys, "verify-ds", target)
    assert code == 0
    assert "canonical=no" in out


def test_verify_ds_rejects_json_booleans(tmp_path, capsys):
    # JSON true and false are no integers, though Python's bool is one
    target = tmp_path / "ds.json"
    for text, field in [
        ('{"elements": [false, true, 3], "modulus": 7, "q": 2}\n', "elements"),
        ('{"elements": [0, 1], "modulus": 3, "q": true}\n', "q and modulus"),
    ]:
        target.write_text(text)
        code, out, err = run(capsys, "verify-ds", target)
        assert (code, out) == (2, "")
        assert field in err and "integers" in err


def test_verify_ds_rejects_non_difference_set(tmp_path, capsys):
    target = tmp_path / "ds.json"
    target.write_text('{"elements": [0, 1, 2], "modulus": 7, "q": 2}\n')
    code, out, err = run(capsys, "verify-ds", target)
    assert code == 2
    assert err.startswith("error:")


def test_verify_ds_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify-ds", tmp_path / "nope.json")
    assert code == 2
    assert "cannot read" in err


def test_build_plane_stdout_parses(capsys):
    code, out, _ = run(capsys, "build-plane", 3)
    assert code == 0
    assert plane_from_text(out) == canonical_plane(3)


def test_build_plane_to_file(tmp_path, capsys):
    target = tmp_path / "plane.txt"
    code, out, _ = run(capsys, "build-plane", 2, "-o", target)
    assert code == 0
    assert "7 points, 7 lines" in out
    assert target.read_text() == plane_to_text(canonical_plane(2))


def test_build_plane_rejects_non_prime_power(capsys):
    assert run(capsys, "build-plane", 10)[0] == 2


def test_gen_singer_refuses_a_huge_prime_at_once(capsys):
    # 10^18 + 3 is prime: the cap refuses it, and finding that it is a
    # prime power takes no scan up to its square root
    start = time.perf_counter()
    code, out, err = run(capsys, "gen-singer", 10 ** 18 + 3)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert "exceeds cap" in err


def test_certify_inconclusive(q2_file, capsys):
    code, out, _ = run(capsys, "certify", q2_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q=2 modulus=7"
    assert "verdict=Inconclusive" in lines
    assert "witness=-" in lines


def test_certify_moufang_candidate_exit_code(twisted_q5_file, capsys):
    code, out, _ = run(capsys, "certify", twisted_q5_file)
    assert code == 0
    assert "verdict=CertifiedExotic" in out
    code, out, _ = run(capsys, "certify", twisted_q5_file,
                       "--moufang-candidate")
    assert code == 1
    assert "witness=edge" in out


@pytest.mark.parametrize("args", [["certify", "--moufang-candidate"],
                                  ["classify", 5]],
                         ids=["certify", "classify"])
def test_internal_fault_exits_4(twisted_q5_file, tmp_path, capsys,
                                monkeypatch, args):
    # a failed soundness check must not exit 1, the code of a certified
    # verdict; the q = 5 witness walk is one such check
    def broken(*_):
        raise AssertionError("witness check failed")

    monkeypatch.setattr(exotic, "_least_outside", broken)
    command, *rest = args
    if command == "certify":
        rest = [twisted_q5_file, *rest]
    else:
        rest += ["--outdir", tmp_path]
    code, out, err = run(capsys, command, *rest)
    assert (code, out) == (4, "")
    assert err.startswith(
        "error: internal: AssertionError: witness check failed\n")
    assert "Traceback" in err


def test_failed_library_check_exits_4(tmp_path, capsys, monkeypatch):
    # the census's own check on the stabilizer, fed one of the wrong
    # order, raises InternalError, and the run exits 4 and writes nothing
    monkeypatch.setattr(exotic, "stabilizer_index_perms",
                        lambda D: [identity(3)])
    code, out, err = run(capsys, "classify", 2, "--outdir", tmp_path)
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: InternalError: stabilizer of "
                          "order 1, expected 3\n")
    assert list(tmp_path.iterdir()) == []


def test_certify_finds_each_column_map_once(twisted_q5_file, capsys,
                                            monkeypatch):
    # normalization and verdict share the three column twists
    calls = []

    def counted(*args):
        calls.append(args)
        return label_perms(*args)

    exotic.pencil_group(5)  # built first: its own map search is not the command's
    exotic._frame.cache_clear()
    monkeypatch.setattr(exotic, "label_perms", counted)
    assert run(capsys, "certify", twisted_q5_file)[0] == 0
    assert len(calls) == 3


def test_certify_inconclusive_moufang_candidate_ok(q2_file, capsys):
    assert run(capsys, "certify", q2_file, "--moufang-candidate")[0] == 0


# sha256 over the exit code and stdout of certify --moufang-candidate on
# each file of certify_pin_files, in order, pinned before the witness
# walk re-checked its own witnesses
CERTIFY_SHA256 = (
    "62ea171c299115870c55e4da96ac2ed9a9f904dccef3dcda858674c20c468b12")


def write_scrambled(path, q, alphas, rng):
    """The normalized matrix (alpha1, alpha2) as a matrix file, disguised
    by one row order shared by all columns and one random affine map
    (unit multiplier and translation) per column."""
    D = canonical_difference_set(q)
    m = D.modulus
    labels = list(range(q + 1))
    rows = rng.sample(labels, q + 1)
    columns = []
    for alpha in (labels, *alphas):
        a, b = rng.choice(zmod_units(m)), rng.randrange(m)
        columns.append([(a * D.elements[alpha[r]] + b) % m for r in rows])
    path.write_text(json.dumps({"q": q, "modulus": m, "columns": columns}))
    return path


def certify_pin_files(tmp_path):
    """8 disguised matrix files per q = 2..5, 7..9, half of them with
    alpha1 and alpha2 drawn from G_0 and half from Sym(q+1)."""
    rng = random.Random(28)
    paths = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        g0 = sorted(exotic.pencil_group(q).elements)
        labels = list(range(q + 1))
        for i in range(8):
            if i % 2 == 0:
                alphas = (rng.choice(g0), rng.choice(g0))
            else:
                alphas = [rng.sample(labels, q + 1) for _ in range(2)]
            paths.append(
                write_scrambled(tmp_path / f"q{q}_{i}.dm", q, alphas, rng))
    return paths


def test_certify_stdout_and_exit_codes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    codes = []
    for path in certify_pin_files(tmp_path):
        code, out, err = run(capsys, "certify", path, "--moufang-candidate")
        assert err == ""
        codes.append(code)
        digest.update(f"exit={code}\n{out}".encode())
    assert (codes.count(0), codes.count(1)) == (40, 16)
    assert digest.hexdigest() == CERTIFY_SHA256


# sha256 over the exit code and stdout of certify --moufang-candidate on
# each file of frame_pin_files, in order, pinned while certify still
# walked its witnesses from each column's own label twist
CERTIFY_FRAME_SHA256 = (
    "420499cefa4245f7405898235401775ae65e7ef2697206300c243051f342c283")


def frame_pin_files(tmp_path):
    """12 disguised matrix files per q = 2..5, 7..9, three of each kind:
    both alphas drawn from G_0, alpha1 from Sym(q+1), both from
    Sym(q+1), and alpha2 alone from Sym(q+1).  At q >= 5 the last kind
    mismatches edge (1, 2), whose witness certify reads in the frame of
    column 0, not of column 1."""
    rng = random.Random(30)
    paths = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        g0 = sorted(exotic.pencil_group(q).elements)
        labels = list(range(q + 1))

        def draw(inside):
            return rng.choice(g0) if inside else rng.sample(labels, q + 1)

        for i in range(12):
            alphas = [draw(inside) for inside in
                      ((True, True), (False, True), (False, False),
                       (True, False))[i % 4]]
            paths.append(write_scrambled(
                tmp_path / f"q{q}_{i}.dm", q, alphas, rng))
    return paths


def test_certify_witnesses_on_both_edges_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    codes, edges = [], set()
    for path in frame_pin_files(tmp_path):
        code, out, err = run(capsys, "certify", path, "--moufang-candidate")
        assert err == ""
        codes.append(code)
        edges.update(re.findall(r"^witness=(edge\(\d, \d\))", out, re.M))
        digest.update(f"exit={code}\n{out}".encode())
    assert edges == {"edge(0, 1)", "edge(1, 2)"}
    assert (codes.count(0), codes.count(1)) == (49, 35)
    assert digest.hexdigest() == CERTIFY_FRAME_SHA256


def test_certify_rejects_json_booleans(q2_file, tmp_path, capsys):
    text = q2_file.read_text()
    assert '"q": 2' in text and "[0, 1, 3]" in text
    bad = tmp_path / "bad.dm"
    for wrong, field in [(text.replace("[0, 1, 3]", "[0, true, 3]", 1),
                          "column"),
                         (text.replace('"q": 2', '"q": true'),
                          "q and modulus")]:
        bad.write_text(wrong)
        code, out, err = run(capsys, "certify", bad)
        assert (code, out) == (2, "")
        assert field in err and "integers" in err


def test_certify_malformed_matrix_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.dm"
    bad.write_text('{"q": 2, "modulus": 7}\n')
    code, _, err = run(capsys, "certify", bad)
    assert code == 2
    assert "columns" in err


def test_certify_rejects_non_matrix_json(tmp_path, capsys):
    bad = tmp_path / "bad.dm"
    bad.write_text("[1, 2, 3]\n")
    code, _, err = run(capsys, "certify", bad)
    assert code == 2
    assert "JSON object" in err


# a q of 2,000 digits, under the 4,300 that json reads, with its modulus
# of 4,000 digits, and one-entry columns and sets
BIG_Q = 10 ** 2000 - 1


@pytest.mark.parametrize("command, data", [
    ("certify", {"q": 1500, "modulus": 1500 ** 2 + 1501,
                 "columns": [list(range(1501))] * 3}),
    ("verify-ds", {"q": 1500, "modulus": 1500 ** 2 + 1501,
                   "elements": list(range(1501))}),
    ("certify", {"q": BIG_Q, "modulus": BIG_Q ** 2 + BIG_Q + 1,
                 "columns": [[0]] * 3}),
    ("ball", {"q": BIG_Q, "modulus": BIG_Q ** 2 + BIG_Q + 1,
              "columns": [[0]] * 3}),
    ("verify-ds", {"q": BIG_Q, "modulus": BIG_Q ** 2 + BIG_Q + 1,
                   "elements": [0]}),
])
def test_refusal_of_a_large_input_is_one_short_line(tmp_path, capsys,
                                                      command, data):
    # the residues 0..1500 are no difference set; the message names
    # their count and order, not all 1,501 of them.  A number of more
    # than 20 digits is shown by its ends and its digit count
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    extra = [1] if command == "ball" else []
    code, out, err = run(capsys, command, bad, *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) < 200, err


# json reads no integer of more than 4,300 digits (a plain ValueError)
# and no nesting deeper than the recursion limit (RecursionError)
HUGE = "9" * 4400
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("args, text", [
    (["certify", "--moufang-candidate"],
     f'{{"q": 2, "modulus": 7, "columns": [[0, 1, {HUGE}], [0, 1, 3], '
     f'[0, 1, 3]]}}'),
    (["ball", "1"],
     f'{{"q": 2, "modulus": 7, "columns": [[0, 1, 3], [0, 1, 3], '
     f'[0, 1, {HUGE}]]}}'),
    (["verify-ds"], f'{{"q": 2, "modulus": 7, "elements": [0, 1, {HUGE}]}}'),
    (["certify", "--moufang-candidate"], DEEP),
    (["verify-ds"], DEEP),
], ids=["certify-huge", "ball-huge", "verify-ds-huge", "certify-deep",
        "verify-ds-deep"])
def test_unreadable_json_is_invalid_input(tmp_path, capsys, args, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    command, *rest = args
    code, out, err = run(capsys, command, bad, *rest)
    assert (code, out) == (2, "")
    assert err.startswith("error: not valid JSON") and err.count("\n") == 1


def test_classify_writes_parseable_census(tmp_path, capsys):
    code, out, _ = run(capsys, "classify", 3, "--outdir", tmp_path)
    assert code == 0
    assert out.splitlines()[0] == ("processed 576 matrices into 24 classes "
                                   "(certified_exotic=0, inconclusive=24)")
    census = census_from_text((tmp_path / "census_q3.txt").read_text())
    assert len(census) == 24
    assert sum(c.orbit_size for c in census) == 576
    summary = (tmp_path / "summary_q3.tsv").read_text()
    assert summary.splitlines()[1] == "3\t576\t24\t0\t24\t64"


def test_classify_extra_moves(tmp_path, capsys):
    code, out, _ = run(capsys, "classify", 2, "--extra-moves",
                       "--outdir", tmp_path)
    assert code == 0
    assert "into 2 classes" in out
    census = census_from_text((tmp_path / "census_q2_extra.txt").read_text())
    assert sum(c.orbit_size for c in census) == 36


def test_classify_outdir_that_is_a_file(tmp_path, capsys, monkeypatch):
    # refused before the census runs
    target = tmp_path / "census"
    target.write_text("")
    monkeypatch.setattr("singerlat.cli.classify",
                        lambda *args, **kwargs: pytest.fail("census ran"))
    code, out, err = run(capsys, "classify", 2, "--outdir", target)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert target.read_text() == ""


def test_classify_cap(capsys):
    code, _, err = run(capsys, "classify", 7)
    assert code == 3
    assert err == "error: classification capped at q <= 5, got 7\n"


@pytest.mark.parametrize("q, expected", [(1, 2), (6, 3), (7, 3)])
def test_classify_refused_q_makes_no_outdir(tmp_path, capsys, q, expected):
    code, out, _ = run(capsys, "classify", q,
                       "--outdir", tmp_path / "X" / "deep")
    assert code == expected
    assert out == ""
    assert not (tmp_path / "X").exists()


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", 2, 3, 4, 5)
    assert code == 0
    assert out.splitlines() == [
        "q\tbound_B\tlower_A\tratio",
        "2\t4\t2/9\t18.0",
        "3\t64\t32/9\t18.0",
        "4\t400\t100/9\t36.0",
        "5\t1600\t3200\t0.5",
    ]


def test_singer_cap_is_reached_at_once(capsys):
    # the prime-power test before the cap is O(sqrt(q)), so a large prime
    # exits 3 as fast as a small one, and a large non-prime-power 2
    for command in ("gen-singer", "build-plane"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, 1000003)
        assert (code, out) == (3, "")
        assert "exceeds cap" in err
        assert time.perf_counter() - start < 1
        assert run(capsys, command, 1000000)[0] == 2


def test_bounds_rejects_non_prime_power(capsys):
    assert run(capsys, "bounds", 2, 6)[0] == 2


def test_bounds_cap_keeps_every_printable_row(capsys):
    # at q = 857 the lower bound's numerator has 4,291 digits, just under
    # the 4,300 that Python converts to text by default
    code, out, _ = run(capsys, "bounds", 857)
    assert code == 0
    assert out.splitlines()[1].startswith("857\t44019108168665344\t")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "73dd38ec4621ac19475a56b4f6bbd2d14b91c606a9825ad78955c4ec1fb32f8a")
    # past the cap: exit 3 before any factorial, and no partial table
    for args in ((859,), (1000003,), (2, 859)):
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", *args)
        assert (code, out) == (3, "")
        assert "capped at q <= 857" in err
        assert time.perf_counter() - start < 1


def test_ball_stdout_parses(q2_file, capsys):
    code, out, err = run(capsys, "ball", q2_file, 1)
    assert code == 0
    ball = complex_from_text(out)
    assert ball.vertex_count == 15
    assert "verification ok" in err


def test_ball_that_fails_verification_exits_4(q2_file, capsys,
                                              monkeypatch):
    # the export and the failure lines stay; only the exit code says so
    monkeypatch.setattr(cli, "verify_ball", lambda ball: BallReport(
        ok=False, failures=("chamber (0, 1, 2) is thin",),
        residue_status=()))
    code, out, err = run(capsys, "ball", q2_file, 1)
    assert code == 4
    assert complex_from_text(out).vertex_count == 15
    assert err == "verification failed: chamber (0, 1, 2) is thin\n"


def test_ball_to_file(q2_file, tmp_path, capsys):
    target = tmp_path / "ball.txt"
    code, out, _ = run(capsys, "ball", q2_file, 2, "-o", target)
    assert code == 0
    assert "113 vertices, 231 chambers" in out
    assert "verification ok" in out
    ball = complex_from_text(target.read_text())
    assert ball.q == 2 and ball.radius == 2
    assert len(ball.chambers) == 231


def test_ball_bad_radius(q2_file, capsys):
    assert run(capsys, "ball", q2_file, 3)[0] == 2


def test_ball_radius_two_cap(tmp_path, capsys):
    path = tmp_path / "q11.dm"
    path.write_text(matrix_to_text(q11_matrix()))
    code, _, err = run(capsys, "ball", path, 2)
    assert code == 3
    assert "radius 2 ball capped at q <= 9, got 11" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "singerlat.cli", "gen-singer", "2"],
        capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0
    assert proc.stdout == '{"elements": [0, 1, 3], "modulus": 7, "q": 2}\n'


def test_repeated_main_calls_match_fresh_processes(twisted_q5_file, tmp_path,
                                                   capsys):
    # the parser is built once per process; no flag of one call may
    # carry over into the next
    calls = [
        ["certify", twisted_q5_file, "--moufang-candidate"],
        ["certify", twisted_q5_file],
        ["classify", "2", "--extra-moves", "--outdir", tmp_path],
        ["classify", "2", "--outdir", tmp_path],
        ["bounds", "2", "3"],
        ["gen-singer", "3"],
    ]
    for args in calls:
        args = [str(a) for a in args]
        code, out, _ = run(capsys, *args)
        proc = subprocess.run(
            [sys.executable, "-m", "singerlat.cli", *args],
            capture_output=True, text=True, env=checkout_env())
        assert (code, out) == (proc.returncode, proc.stdout), args


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # the census files and a ball export of a non-identity q = 3 matrix,
    # written by fresh processes under two hash seeds, are the same bytes
    M = NormalizedMatrix(3, canonical_difference_set(3),
                         (1, 3, 0, 2), (0, 3, 1, 2)).decode()
    matrix = tmp_path / "q3.dm"
    matrix.write_text(matrix_to_text(M))
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        env = checkout_env()
        env["PYTHONHASHSEED"] = seed
        for args in (["classify", "3", "--extra-moves", "--outdir", out],
                     ["ball", matrix, "2", "-o", out / "ball.txt"]):
            proc = subprocess.run(
                [sys.executable, "-m", "singerlat.cli", *map(str, args)],
                capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]
