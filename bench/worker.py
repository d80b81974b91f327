"""One workload in a fresh process: set-up, inputs, timed passes.

run.py starts this file with PYTHONPATH set to the checkout's ``src``,
so that every lazily cached object in singerlat is built anew here.
The last line on stdout is one JSON object with the raw
measurements; run.py turns them into metrics.

With --setup-only the worker stops after set-up.  With --trace it runs
the untraced passes, then the same passes again with spans, and writes
the spans to --spans.
"""

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from tracer import NullTracer, Tracer
from workloads import WORKLOADS, Recorder, setup


def timed_passes(workload, state, rec, seconds):
    """Whole passes until `seconds` have gone by; at least one.  Returns
    each pass's duration and its (latency, work) item samples."""
    durations, items = [], []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        rec.items = []
        t0 = time.perf_counter()
        workload.run_pass(state, rec)
        durations.append(time.perf_counter() - t0)
        items.append(rec.items)
    return durations, items


def traced_passes(workload, state, rec, seconds, tracer):
    import singerlat.cli
    from singerlat.exotic import NormalizedMatrix

    # the certify subcommand's own calls into diffsets and exotic
    with tracer.patch(singerlat.cli, "matrix_from_text",
                      "diffsets.matrix_from_text"), \
            tracer.patch(NormalizedMatrix, "from_matrix",
                         "exotic.NormalizedMatrix.from_matrix"), \
            tracer.patch(singerlat.cli, "certify_exotic",
                         "exotic.certify_exotic"):
        return timed_passes(workload, state, rec, seconds)


def main(argv=None):
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--src", required=True,
                    help="directory the singerlat package must come from")
    ap.add_argument("--workdir", required=True,
                    help="directory for the workload's input files")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    singerlat = setup(workload.qs, workload.g0, tracer)
    setup_s = time.perf_counter() - start
    expected = Path(args.src).resolve() / "singerlat"
    if Path(singerlat.__file__).resolve().parent != expected:
        print(f"worker: imported {singerlat.__file__}, not from {expected}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        state = workload.prepare(args.seed, workdir)
        rec = Recorder(NullTracer())
        pass_s, items = timed_passes(workload, state, rec, args.seconds)
        out = {"setup_s": setup_s, "pass_s": pass_s, "items": items}
        recs = [rec]
        if args.trace:
            setup_end = len(tracer.spans)
            traced = Recorder(tracer)
            traced_s, _ = traced_passes(workload, state, traced,
                                        args.seconds, tracer)
            recs.append(traced)
            n = len(traced_s)
            out["traced_pass_s"] = traced_s
            out["setup_layers"] = tracer.layer_totals(0, setup_end)
            out["layers"] = {
                name: [seconds / n, calls // n] for name, (seconds, calls)
                in tracer.layer_totals(setup_end).items()}
            out["counts"] = traced.counts
            Path(args.spans).write_text(json.dumps(tracer.as_records()))
    out["attempted"] = sum(r.attempted for r in recs)
    out["failed"] = sum(r.failed for r in recs)
    out["errors"] = [e for r in recs for e in r.errors]
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
