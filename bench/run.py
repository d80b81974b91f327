"""Run one singerlat benchmark workload and print its metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 5 --trace 0

Run it from anywhere; it benchmarks the singerlat sources in ``src/``
of the checkout that holds this file, and refuses (exit 2, no result)
when there are none.  Workloads are described in bench/README.md.

Every run starts fresh worker processes (bench/worker.py), so lazy
set-up is paid each time.  An untraced run (--trace 0) times set-up in
SETUP_REPEATS fresh processes, the last of which also runs the timed
passes, and reports the end-to-end metrics.  A traced run (--trace 1)
runs the passes untraced and then traced in one worker, and reports the
per-layer metrics and the tracing overhead.

Output: the line before last on stdout is {"info": ...} with the
machine, the run and the sample counts; the last line is
{"correct", "attempted", "failed", "metrics"}.  Both are also written to
.bench_out/result-<workload>-seed<seed>-trace<0|1>.json, and a traced
run writes its spans to .bench_out/spans-<...>.json.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3
# a run must end within 180 s; level2, run by hand only, needs longer
RUN_TIMEOUT_S = 175
LEVEL2_TIMEOUT_S = 900

# (name, unit); every workload reports all of them with tracing off
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# spans recorded by traced runs; each gives <name>.s (self seconds per
# pass, or per run for set-up spans) and <name>.calls
SPANS = (
    "setup.import",
    "diffsets.canonical_difference_set",
    "plane.canonical_plane",
    *(f"exotic.pencil_group.q{q}" for q in (2, 3, 4, 5, 7, 8, 9)),
    "exotic.pencil_normalizer",
    "exotic.classify.coarse",
    "exotic.classify.extra",
    "exotic.classify.threads2",
    "exotic.candidate_count",
    "exotic.census_to_text",
    "exotic.census_summary",
    "exotic.census_from_text",
    "cli.main",
    "diffsets.matrix_from_text",
    "exotic.NormalizedMatrix.from_matrix",
    "exotic.certify_exotic",
    "ball.build_ball",
    "ball.verify_ball",
    "ball.extract_hjelmslev.l1",
    "ball.extract_hjelmslev.l2",
    "ball.complex_to_text",
    "ball.complex_from_text",
    "ball.h2_collineations_fixing_center.labels",
)
# exact output counts of one pass
COUNTS = (
    *(f"exotic.{kind}.q{q}.{variant}" for kind in ("classes", "inconclusive")
      for q in (2, 3, 4, 5) for variant in ("coarse", "extra")),
    "certify.inconclusive",
    *(f"ball.{kind}.q{q}" for kind in ("vertices", "chambers")
      for q in (2, 3, 4, 5, 7, 8, 9)),
)
# only the level2 workload, which BENCHMARK.json does not list, moves these
LEVEL2_SPANS = ("ball.h2_collineations_fixing_center.full",)
LEVEL2_COUNTS = ("ball.h2.order", "ball.h2.kernel", "ball.h2.elations")


def _spans_and_counts(level2):
    return (SPANS + (LEVEL2_SPANS if level2 else ()),
            COUNTS + (LEVEL2_COUNTS if level2 else ()))


def per_layer_names(level2=False):
    """(name, unit) of every per-layer metric, in report order."""
    spans, counts = _spans_and_counts(level2)
    out = []
    for name in spans:
        out += [(f"{name}.s", "s"), (f"{name}.calls", "count")]
    out += [(name, "count") for name in counts]
    out.append(("trace.overhead_s", "s"))
    return out


def tail_percentile(samples, beyond=10):
    """(p, value) for the highest whole percentile p <= 99 that has at
    least `beyond` samples ranked above it (nearest-rank definition);
    (100, max) when even the median has fewer."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)
        if n - rank >= beyond:
            return p, xs[rank - 1]
    return 100, xs[-1]


class WorkerError(Exception):
    pass


def run_worker(args, deadline):
    """Run worker.py to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(SRC),
           "--workdir", str(OUT_DIR), *args]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        raise WorkerError("worker timed out") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise WorkerError("worker printed no result") from None


def machine_info():
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "singerlat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def median_items(passes):
    """Each item's median latency over the passes, and its work units.
    Every pass makes the same items in the same order; a median keeps
    the estimate the same whether a run fits one pass or several."""
    latencies = [statistics.median(s for s, _ in samples)
                 for samples in zip(*passes)]
    work = [w for _, w in passes[0]]
    return latencies, work


def end_to_end_metrics(res, setups):
    latencies, work = median_items(res["items"])
    p, tail = tail_percentile(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["pass_s"]),
        "items_per_s": sum(work) / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1000,
        "item_tail_ms": tail * 1000,
        "peak_rss_mb": res["rss_kb"] / 1024,
    }
    samples = {"setup": len(setups), "passes": len(res["pass_s"]),
               "items": len(latencies), "tail_percentile": p,
               "work": sum(work)}
    return values, samples


def per_layer_metrics(res, level2):
    layers = {**res["setup_layers"], **res["layers"]}
    spans, counts = _spans_and_counts(level2)
    values = {}
    for name in spans:
        values[f"{name}.s"], values[f"{name}.calls"] = layers.get(name, (0.0, 0))
    for name in counts:
        values[name] = res["counts"].get(name, 0)
    values["trace.overhead_s"] = (statistics.median(res["traced_pass_s"])
                                  - statistics.median(res["pass_s"]))
    samples = {"passes": len(res["pass_s"]),
               "traced_passes": len(res["traced_pass_s"]),
               "spans": sum(calls for _, calls in layers.values())}
    return values, samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed phase; whole passes run "
                         "until it is over, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "singerlat" / "__init__.py").is_file():
        print(f"bench: no singerlat package under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    level2 = args.workload == "level2"
    deadline = time.monotonic() + (LEVEL2_TIMEOUT_S if level2
                                   else RUN_TIMEOUT_S)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{tag}.json"
            res = run_worker(
                common + ["--trace", "--spans", str(spans_path)], deadline)
            values, samples = per_layer_metrics(res, level2)
            units = dict(per_layer_names(level2=True))
        else:
            setups = [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS - 1)]
            res = run_worker(common, deadline)
            setups.append(res["setup_s"])
            values, samples = end_to_end_metrics(res, setups)
            units = dict(END_TO_END)
    except WorkerError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    for error in res["errors"]:
        print(f"bench: check failed: {error}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            **machine_info(), "samples": samples}
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
