"""Command-line surface.

Subcommands cover the whole pipeline: generate and verify difference
sets, export planes, certify difference matrices, run the equivalence
census, print the counting bounds, and build glued balls.  All output is
deterministic; identical invocations produce byte-identical bytes.

Exit codes: 0 success, 1 a certified-exotic verdict from certify with
--moufang-candidate (the flag keeps its old name: certify runs no
Moufang test, and exit 1 means two adjacent pencil groups differ), 2
invalid input or a file that cannot be read or written, 3 cap exceeded,
4 an internal fault (a failed soundness check, any other uncaught
error, or a ball that fails its verification).  Exit 1 comes from
nothing but certify's verdict.
"""

import argparse
import os
import sys
import traceback
from functools import lru_cache
from pathlib import Path

from .ball import build_ball, complex_to_text, verify_ball
from .diffsets import canonical_difference_set, matrix_from_text, \
    set_from_text, set_to_text
from .errors import CapExceeded, InvalidInput
from .exotic import CERTIFIED_EXOTIC, NormalizedMatrix, _census_counts, \
    _check_census_q, census_summary, census_to_text, certify_exotic, \
    classify, ratio_table
from .permgrp import perm_to_str
from .plane import canonical_plane, plane_to_text


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as e:
        raise InvalidInput(f"cannot read {path}: {e}") from None


def _write(path, text):
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise InvalidInput(f"cannot write {path}: {e}") from None


def _check_writable(path):
    # run before any work, which can take seconds; creates nothing
    target = Path(path)
    if target.is_dir():
        raise InvalidInput(f"cannot write {path}: it is a directory")
    if not target.exists() and not target.parent.is_dir():
        raise InvalidInput(
            f"cannot write {path}: no directory {target.parent}")
    if not os.access(target if target.exists() else target.parent, os.W_OK):
        raise InvalidInput(f"cannot write {path}: no write access")


def _emit(text, output_path, summary):
    # machine text goes to the file when one is named, else to stdout;
    # the human summary must never mix into machine output
    if output_path is None:
        sys.stdout.write(text)
    else:
        _write(output_path, text)
        print(f"{summary} -> {output_path}")


def cmd_gen_singer(args):
    D = canonical_difference_set(args.q)
    _emit(set_to_text(D), args.output,
          f"difference set q={D.q} modulus={D.modulus}")
    return 0


def cmd_verify_ds(args):
    D = set_from_text(_read(args.file))
    canonical = D == canonical_difference_set(D.q)
    els = " ".join(str(x) for x in D.elements)
    print(f"ok: q={D.q} modulus={D.modulus} elements=[{els}] "
          f"canonical={'yes' if canonical else 'no'}")
    return 0


def cmd_build_plane(args):
    plane = canonical_plane(args.q)
    _emit(plane_to_text(plane), args.output,
          f"plane of order {args.q} "
          f"({plane.modulus} points, {plane.modulus} lines)")
    return 0


def cmd_certify(args):
    M = matrix_from_text(_read(args.file))
    # both calls read the same cached column twists of M
    Mn = NormalizedMatrix.from_matrix(M)
    verdict = certify_exotic(M)
    print(f"q={M.q} modulus={M.modulus}")
    print(f"alpha1={perm_to_str(Mn.alpha1)} alpha2={perm_to_str(Mn.alpha2)}")
    print(f"verdict={verdict.outcome}")
    print(f"witness={verdict.witness.summary() if verdict.witness else '-'}")
    if args.moufang_candidate and verdict.outcome == CERTIFIED_EXOTIC:
        return 1
    return 0


def cmd_classify(args):
    # q and the outdir are checked before the census, which can take
    # seconds, and a refused q leaves no directory behind
    _check_census_q(args.q)
    canonical_difference_set(args.q)  # refuses a q that is no prime power
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InvalidInput(f"cannot write {outdir}: {e}") from None
    classes = classify(args.q, extra_moves=args.extra_moves)
    suffix = "_extra" if args.extra_moves else ""
    census_path = outdir / f"census_q{args.q}{suffix}.txt"
    summary_path = outdir / f"summary_q{args.q}{suffix}.tsv"
    _write(census_path, census_to_text(classes))
    _write(summary_path, census_summary(args.q, classes))
    total, exotic = _census_counts(classes)
    print(f"processed {total} matrices into {len(classes)} classes "
          f"(certified_exotic={exotic}, "
          f"inconclusive={len(classes) - exotic})")
    print(f"wrote {census_path}")
    print(f"wrote {summary_path}")
    return 0


def cmd_bounds(args):
    rows = ratio_table(args.qs)
    print("q\tbound_B\tlower_A\tratio")
    for q, b, a, ratio in rows:
        print(f"{q}\t{b}\t{a}\t{ratio!r}")
    return 0


def cmd_ball(args):
    M = matrix_from_text(_read(args.file))
    ball = build_ball(M, args.radius)
    report = verify_ball(ball)
    status = sys.stdout if args.output else sys.stderr
    _emit(complex_to_text(ball), args.output,
          f"ball q={ball.q} radius={ball.radius} "
          f"({ball.vertex_count} vertices, {len(ball.chambers)} chambers)")
    if report.ok:
        print("verification ok", file=status)
    else:
        for failure in report.failures:
            print(f"verification failed: {failure}", file=status)
    return 0 if report.ok else 4


_DISPATCH = {
    "gen-singer": cmd_gen_singer,
    "verify-ds": cmd_verify_ds,
    "build-plane": cmd_build_plane,
    "certify": cmd_certify,
    "classify": cmd_classify,
    "bounds": cmd_bounds,
    "ball": cmd_ball,
}


@lru_cache(maxsize=None)
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged
    ap = argparse.ArgumentParser(
        prog="singerlat",
        description="Cyclic projective planes, difference matrices, "
                    "exoticity certificates, and glued balls.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "gen-singer",
        help="print the canonical perfect difference set for a prime power")
    p.add_argument("q", type=int, help="plane order (prime power)")
    p.add_argument("-o", "--output", help="write the set file here")

    p = sub.add_parser(
        "verify-ds", help="check that a set file holds a difference set")
    p.add_argument("file", help="set file as written by gen-singer")

    p = sub.add_parser(
        "build-plane",
        help="export the plane of the canonical difference set")
    p.add_argument("q", type=int, help="plane order (prime power)")
    p.add_argument("-o", "--output", help="write the plane export here")

    p = sub.add_parser(
        "certify", help="run the local-group comparison on a matrix file")
    p.add_argument("file", help="difference matrix file")
    p.add_argument(
        "--moufang-candidate", action="store_true",
        help="exit 1 if the matrix is certified exotic (two adjacent "
             "pencil groups differ; no Moufang test is run)")

    p = sub.add_parser(
        "classify",
        help="census of normalized matrices up to coarse equivalence")
    p.add_argument("q", type=int, help="plane order (prime power)")
    p.add_argument("--extra-moves", action="store_true",
                   help="also quotient by duality and by the rotation "
                        "(a1, a2) -> (a2 a1, a1^-1), not the column one")
    p.add_argument("--outdir", default=".",
                   help="directory for census and summary files")

    p = sub.add_parser(
        "bounds", help="print the candidate bound and growth lower bound")
    p.add_argument("qs", metavar="q", type=int, nargs="+",
                   help="plane orders (prime powers)")

    p = sub.add_parser(
        "ball", help="build and verify the glued ball of a matrix file")
    p.add_argument("file", help="difference matrix file")
    p.add_argument("radius", type=int, help="1 or 2")
    p.add_argument("-o", "--output", help="write the complex export here")

    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "output", None) is not None:
            _check_writable(args.output)
        return _DISPATCH[args.subcommand](args)
    except InvalidInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        # never exit 1, the code of a certified verdict
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
