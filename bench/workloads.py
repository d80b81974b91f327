"""The benchmark workloads: set-up, inputs, one timed pass, output checks.

A workload runs in a fresh worker process (see worker.py).  Its set-up
is the import plus every lazily cached object the pass uses; its inputs
are built after set-up and outside timing; its pass is a fixed list of
public calls into singerlat, each checked against pinned outputs.

Every pass records, through a Recorder:
  * operations attempted and failed (a failed check or an exception);
  * one (latency, work units) sample per user-visible item: a q = 5
    classify call on census (work: the 6!^2 matrices it classifies), a
    certify command (one verdict), one matrix's ball pipeline (one
    ball), a group call on level2 (the collineations it finds);
  * exact output counts, reported by traced runs.
"""

import hashlib
import io
import json
import math
import random
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

# -- pinned outputs, taken from the seed commit --

# (q, variant) -> (sha256 of census_to_text, classes, inconclusive)
CENSUS_PINS = {
    (2, "coarse"): ("b406522284028e80b3e9ec9f54b13b5970e32fcf645cbee17b780f635f79ca8d", 4, 4),
    (2, "extra"): ("2a389c1f048955fd7ed2f7e6d82aceffcbdf0b087345221d6352140ece0bdbdc", 2, 2),
    (3, "coarse"): ("c6938898f769e698d400c5acb63bdbd01f8a8f2a8a12b7e114aa17ae76cc818c", 24, 24),
    (3, "extra"): ("e8fa0527c356b54de18b1b23433adfa941d4820b5180ad4cc874153d6459d9c0", 4, 4),
    (4, "coarse"): ("5469717af3327f93002d8fa6a4157ad0313c4cc26859df743afebda3bf632659", 70, 70),
    (4, "extra"): ("4428110ab6ed4dd78ec0eac7d621dc5b80cf033bf199428c9dcad28bc8bdc2a2", 3, 3),
    (5, "coarse"): ("1c31b119349786b8d45fc1a03a368ceaf652aaac7941cefe85e164d8e2190a5f", 19296, 544),
    (5, "extra"): ("516bd8294c169f1417d99af6cdf8b4d40a32e499eaa21c6238a1316ceaec7a07", 50, 11),
}
# candidate_count(q); at q = 5 the 544 is the inconclusive column of the
# classify(5) summary, since candidate_count(5) re-runs that census
CANDIDATE_PINS = {2: 4, 3: 24, 4: 70}
# q -> (vertices, chambers) of the radius-2 ball
BALL_R2_PINS = {2: (113, 231), 3: (417, 1144)}
# q -> (vertices, chambers) of the radius-1 ball
BALL_R1_PINS = {4: (43, 105), 5: (63, 186), 7: (115, 456), 8: (147, 657),
                9: (183, 910)}
# q -> (points, lines, flags) at levels 1 and 2
LEVEL1_PINS = {2: (7, 7, 21), 3: (13, 13, 52)}
LEVEL2_PINS = {2: (28, 28, 168), 3: (117, 117, 1404)}
# H2GroupSummary fields: order, base image, fiber kernel, elations,
# neighbor fixing, free action
H2_FULL_PIN = (43008, 168, 256, 357, True, True)
H2_LABELS_PIN = (7, 7, 1, 0, True, True)

CENSUS_QS = (2, 3, 4, 5)
# the census items are the two q = 5 classify calls, the census a user
# waits for; the q <= 4 calls take 0.4 s in all and count in wall_s only
ITEM_Q = 5
THREADS_Q = 4
# candidate_count(5) re-runs all of classify(5); the run budget cannot
# hold that census a third time
CANDIDATE_QS = (2, 3, 4)
# files per q; the fast q <= 4 files are the smaller share, so that the
# median latency falls inside the q = 7 files and not between two groups
CERTIFY_COUNTS = {2: 150, 3: 150, 4: 150, 7: 250, 8: 250, 9: 250}
BALL_R2_QS = (2, 3)
BALL_R1_QS = (4, 5, 7, 8, 9)


class Recorder:
    """Counts, latencies and check failures of one or more passes."""

    MAX_ERRORS = 20

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.items = []  # (seconds, work units) in pass order
        self.counts = {}
        self._op_errors = 0

    @contextmanager
    def op(self, what):
        """One checked operation; an exception inside counts as a failure."""
        self.attempted += 1
        self.tracer.item = self.attempted
        self._op_errors = 0
        try:
            yield
        except Exception as e:  # a failing call must not end the run
            self._error(f"{what}: raised {e!r}")
        if self._op_errors:
            self.failed += 1

    def expect(self, ok, what):
        if not ok:
            self._error(what)

    def _error(self, what):
        self._op_errors += 1
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(what)

    def item(self, seconds, work=1):
        self.items.append((seconds, work))

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside span ``name``; returns (result, seconds)."""
        start = time.perf_counter()
        with self.tracer.span(name):
            out = fn(*args, **kwargs)
        return out, time.perf_counter() - start


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def summary_row(q, classes, inconclusive):
    """The census_summary data row, with the bound B = (q(q^2-1)/3)^2."""
    total = math.factorial(q + 1) ** 2
    bound = (q * (q * q - 1) // 3) ** 2
    return (f"{q}\t{total}\t{classes}\t{classes - inconclusive}\t"
            f"{inconclusive}\t{bound}")


# -- set-up --


def setup(qs, g0, tracer):
    """Import singerlat and build every cached object the pass uses."""
    span = tracer.span
    with span("setup.import"):
        import singerlat
        from singerlat.diffsets import canonical_difference_set
        from singerlat.exotic import pencil_group, pencil_normalizer
        from singerlat.plane import canonical_plane
    for q in qs:
        with span("diffsets.canonical_difference_set"):
            canonical_difference_set(q)
        with span("plane.canonical_plane"):
            canonical_plane(q)
        if g0:
            with span(f"exotic.pencil_group.q{q}"):
                pencil_group(q)
            with span("exotic.pencil_normalizer"):
                pencil_normalizer(q)
    return singerlat


# -- census: the q <= 5 census end to end --


def census_prepare(seed, workdir):
    return None


def census_pass(state, rec):
    from singerlat.exotic import (
        INCONCLUSIVE, candidate_count, census_from_text,
        census_summary, census_to_text, classify,
    )

    texts = {}
    for q in CENSUS_QS:
        for variant in ("coarse", "extra"):
            pin_hash, pin_classes, pin_inconclusive = CENSUS_PINS[(q, variant)]
            with rec.op(f"classify q={q} {variant}"):
                classes, dt = rec.call(f"exotic.classify.{variant}", classify,
                                       q, extra_moves=variant == "extra")
                if q == ITEM_Q:
                    rec.item(dt, math.factorial(q + 1) ** 2)
                text, _ = rec.call("exotic.census_to_text",
                                   census_to_text, classes)
                summary, _ = rec.call("exotic.census_summary",
                                      census_summary, q, classes)
                back, _ = rec.call("exotic.census_from_text",
                                   census_from_text, text)
                texts[(q, variant)] = text
                inconclusive = sum(
                    1 for c in classes if c.verdict.outcome == INCONCLUSIVE)
                rec.counts[f"exotic.classes.q{q}.{variant}"] = len(classes)
                rec.counts[f"exotic.inconclusive.q{q}.{variant}"] = inconclusive
                rec.expect(sha256(text) == pin_hash,
                           f"census q={q} {variant}: text differs from pin")
                row = summary_row(q, pin_classes, pin_inconclusive)
                rec.expect(summary.splitlines()[1:] == [row],
                           f"census q={q} {variant}: summary {summary!r}")
                rec.expect(census_to_text(back) == text,
                           f"census q={q} {variant}: text round trip differs")
    with rec.op(f"classify q={THREADS_Q} threads=2"):
        classes, _ = rec.call("exotic.classify.threads2", classify,
                              THREADS_Q, threads=2)
        rec.expect(census_to_text(classes) == texts[(THREADS_Q, "coarse")],
                   f"census q={THREADS_Q}: threads=2 bytes differ")
    for q in CANDIDATE_QS:
        with rec.op(f"candidate_count q={q}"):
            count, _ = rec.call("exotic.candidate_count", candidate_count, q)
            rec.expect(count == CANDIDATE_PINS[q],
                       f"candidate_count({q}) = {count}")


# -- certify: one `singerlat certify --moufang-candidate` per matrix file --


def certify_inputs(seed):
    """Matrix files for the certify workload, byte-deterministic in seed.

    Half of the pairs (alpha1, alpha2) at each q are drawn from G0 and
    half uniformly from Sym(q+1).  Each decoded matrix is disguised by
    one random translation per column and one row order shared by all
    columns; neither changes the pencil groups up to a common
    relabelling, so the verdict is the one of (alpha1, alpha2).  The
    expected verdict comes from the field-model G0: Inconclusive (exit
    0) exactly when both alphas lie in G0, else CertifiedExotic (exit 1).

    Returns a list of (name, q, text, inconclusive) in a seeded order.
    """
    from singerlat.diffsets import canonical_difference_set
    from singerlat.exotic import pencil_group

    rng = random.Random(seed)
    out = []
    for q, count in CERTIFY_COUNTS.items():
        m = q * q + q + 1
        D = canonical_difference_set(q).elements
        g0 = sorted(pencil_group(q, "model").elements)
        g0_set = set(g0)
        labels = list(range(q + 1))
        for i in range(count):
            if i % 2 == 0:
                a1, a2 = rng.choice(g0), rng.choice(g0)
            else:
                a1 = tuple(rng.sample(labels, q + 1))
                a2 = tuple(rng.sample(labels, q + 1))
            rows = rng.sample(labels, q + 1)
            cols = []
            for alpha in (labels, a1, a2):
                shift = rng.randrange(m)
                cols.append([(D[alpha[r]] + shift) % m for r in rows])
            text = json.dumps({"q": q, "modulus": m, "columns": cols},
                              sort_keys=True, separators=(", ", ": ")) + "\n"
            out.append((f"q{q}_{i:03d}.dm", q, text,
                        a1 in g0_set and a2 in g0_set))
    # mixed order, so that each q's files spread over the whole pass and
    # a few seconds of load elsewhere on the host cannot shift one group
    rng.shuffle(out)
    return out


def certify_prepare(seed, workdir):
    items = []
    for name, q, text, inconclusive in certify_inputs(seed):
        path = Path(workdir) / name
        path.write_text(text)
        items.append((str(path), q, inconclusive))
    return items


def certify_pass(items, rec):
    from singerlat import cli
    from singerlat.exotic import CERTIFIED_EXOTIC, INCONCLUSIVE

    inconclusive_seen = 0
    for path, q, inconclusive in items:
        verdict = INCONCLUSIVE if inconclusive else CERTIFIED_EXOTIC
        with rec.op(path):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code, dt = rec.call("cli.main", cli.main,
                                    ["certify", path, "--moufang-candidate"])
            rec.item(dt)
            lines = buf.getvalue().splitlines()
            rec.expect(code == (0 if inconclusive else 1),
                       f"{path}: exit {code}")
            rec.expect(len(lines) == 4
                       and lines[0] == f"q={q} modulus={q * q + q + 1}"
                       and lines[2] == f"verdict={verdict}"
                       and (lines[3] == "witness=-") == inconclusive,
                       f"{path}: output {lines!r}")
            inconclusive_seen += lines[2:3] == [f"verdict={INCONCLUSIVE}"]
    rec.counts["certify.inconclusive"] = inconclusive_seen


# -- balls: radius-2 balls of every normalized matrix at q = 2, 3 --


def identity_matrix(q):
    from singerlat.diffsets import canonical_difference_set
    from singerlat.exotic import NormalizedMatrix

    e = tuple(range(q + 1))
    return NormalizedMatrix(q, canonical_difference_set(q), e, e).decode()


def balls_prepare(seed, workdir):
    from singerlat.ball import build_ball
    from singerlat.exotic import enumerate_normalized

    matrices = [Mn.decode() for q in BALL_R2_QS
                for Mn in enumerate_normalized(q)]
    # seeded order, for the same reason as certify_inputs: neighbouring
    # matrices cost alike, and a slow phase of the host must not shift
    # one group of them
    random.Random(seed).shuffle(matrices)
    return {
        "r2": matrices,
        "r1": [identity_matrix(q) for q in BALL_R1_QS],
        "h2_ball": build_ball(identity_matrix(2), 2),
    }


def _h2_check(rec, what, summary, pin):
    got = (summary.order, summary.base_image_order, summary.fiber_kernel_order,
           summary.elation_count, summary.neighbor_fixing_ok,
           summary.free_action_ok)
    rec.expect(got == pin, f"{what}: {got}")
    return got


def balls_pass(state, rec):
    from singerlat.ball import (
        build_ball, complex_from_text, complex_to_text, extract_hjelmslev,
        h2_collineations_fixing_center, verify_ball,
    )

    for M in state["r2"]:
        q = M.q
        with rec.op(f"ball q={q} {[c.entries for c in M.columns]}"):
            ball, t_build = rec.call("ball.build_ball", build_ball, M, 2)
            report, t_verify = rec.call("ball.verify_ball", verify_ball, ball)
            h1, t_l1 = rec.call("ball.extract_hjelmslev.l1",
                                extract_hjelmslev, ball, 1)
            h2, t_l2 = rec.call("ball.extract_hjelmslev.l2",
                                extract_hjelmslev, ball, 2)
            text, t_out = rec.call("ball.complex_to_text",
                                   complex_to_text, ball)
            back, t_in = rec.call("ball.complex_from_text",
                                  complex_from_text, text)
            dt = t_build + t_verify + t_l1 + t_l2 + t_out + t_in
            rec.item(dt)
            sizes = (ball.vertex_count, len(ball.chambers))
            rec.counts[f"ball.vertices.q{q}"] = sizes[0]
            rec.counts[f"ball.chambers.q{q}"] = sizes[1]
            rec.expect(report.ok, f"ball q={q}: {report.failures[:3]}")
            rec.expect(sizes == BALL_R2_PINS[q], f"ball q={q}: sizes {sizes}")
            for h, pin in ((h1, LEVEL1_PINS[q]), (h2, LEVEL2_PINS[q])):
                got = (len(h.points), len(h.lines), len(h.incidence))
                rec.expect(got == pin, f"level {h.level} q={q}: {got}")
            rec.expect(complex_to_text(back) == text,
                       f"ball q={q}: text round trip differs")
    for M in state["r1"]:
        q = M.q
        with rec.op(f"radius-1 ball q={q}"):
            ball, _ = rec.call("ball.build_ball", build_ball, M, 1)
            report, _ = rec.call("ball.verify_ball", verify_ball, ball)
            sizes = (ball.vertex_count, len(ball.chambers))
            rec.counts[f"ball.vertices.q{q}"] = sizes[0]
            rec.counts[f"ball.chambers.q{q}"] = sizes[1]
            rec.expect(report.ok, f"radius-1 ball q={q}: {report.failures[:3]}")
            rec.expect(sizes == BALL_R1_PINS[q],
                       f"radius-1 ball q={q}: sizes {sizes}")
    with rec.op("level-2 labels-only group q=2"):
        summary, _ = rec.call("ball.h2_collineations_fixing_center.labels",
                              h2_collineations_fixing_center,
                              state["h2_ball"], labels_only=True)
        _h2_check(rec, "labels-only level-2 group", summary, H2_LABELS_PIN)


# -- level2: the full level-2 collineation group at q = 2 --


def level2_prepare(seed, workdir):
    from singerlat.ball import build_ball

    return build_ball(identity_matrix(2), 2)


def level2_pass(ball, rec):
    from singerlat.ball import h2_collineations_fixing_center

    for variant, labels_only, pin in (("full", False, H2_FULL_PIN),
                                      ("labels", True, H2_LABELS_PIN)):
        with rec.op(f"level-2 group q=2 {variant}"):
            summary, dt = rec.call(
                f"ball.h2_collineations_fixing_center.{variant}",
                h2_collineations_fixing_center, ball, labels_only=labels_only)
            rec.item(dt, summary.order)
            got = _h2_check(rec, f"{variant} level-2 group", summary, pin)
            if variant == "full":
                rec.counts["ball.h2.order"] = got[0]
                rec.counts["ball.h2.kernel"] = got[2]
                rec.counts["ball.h2.elations"] = got[3]


class Workload:
    """qs and g0 say what set-up builds; prepare(seed, workdir) makes the
    inputs; run_pass(state, rec) is one timed pass."""

    def __init__(self, name, qs, g0, prepare, run_pass):
        self.name = name
        self.qs = qs
        self.g0 = g0
        self.prepare = prepare
        self.run_pass = run_pass


WORKLOADS = {w.name: w for w in (
    Workload("census", CENSUS_QS, True, census_prepare, census_pass),
    Workload("certify", tuple(CERTIFY_COUNTS), True, certify_prepare, certify_pass),
    Workload("balls", BALL_R2_QS + BALL_R1_QS, False, balls_prepare,
             balls_pass),
    Workload("level2", (2,), False, level2_prepare, level2_pass),
)}
