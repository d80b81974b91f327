"""Tests of the benchmark harness itself (not of singerlat).

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import re
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CERTIFY_COUNTS, certify_inputs  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_certify_inputs_are_deterministic_per_seed():
    first = certify_inputs(7)
    assert first == certify_inputs(7)
    assert len(first) == sum(CERTIFY_COUNTS.values())
    other = certify_inputs(8)
    assert [text for _, _, text, _ in first] != [text for _, _, text, _ in other]
    # both verdicts occur at every q where G0 is smaller than Sym(q+1)
    for q in (7, 8, 9):
        verdicts = {inc for _, qq, _, inc in first if qq == q}
        assert verdicts == {True, False}


def test_certify_expected_verdicts_match_the_library():
    from singerlat.diffsets import matrix_from_text
    from singerlat.exotic import INCONCLUSIVE, certify_exotic

    inputs = certify_inputs(3)
    for q in (2, 7):
        for _, _, text, inconclusive in [i for i in inputs if i[1] == q][:6]:
            verdict = certify_exotic(matrix_from_text(text))
            assert (verdict.outcome == INCONCLUSIVE) == inconclusive


def test_metric_names_are_valid_and_unique():
    names = [n for n, _ in run.END_TO_END]
    names += [n for n, _ in run.per_layer_names(level2=True)]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_benchmark_json_matches_the_harness():
    spec = benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.per_layer_names(level2=False)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert "level2" not in {w["name"] for w in spec["workloads"]}
    assert spec["command"] == ["python3", "bench/run.py"]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(range(1, 613)) == (98, 600)
    assert run.tail_percentile(range(1, 1201)) == (99, 1188)
    assert run.tail_percentile(range(1, 1401)) == (99, 1386)
    assert run.tail_percentile(range(1, 40)) == (74, 29)
    # too few samples for any percentile from the median up: the maximum
    assert run.tail_percentile([3, 1, 2]) == (100, 3)
    assert run.tail_percentile(range(19)) == (100, 18)
    for n in (20, 57, 612, 1000):
        p, value = run.tail_percentile(range(n))
        assert sum(1 for x in range(n) if x > value) >= 10
        if p < 99:
            rank = -(-(p + 1) * n // 100)
            assert n - rank < 10


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    totals = tracer.layer_totals()
    assert totals["outer"][1] == totals["inner"][1] == 1
    assert totals["inner"][0] >= 0.02
    assert 0.01 <= totals["outer"][0] < totals["inner"][0]
