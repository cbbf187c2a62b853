"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench -q

The end-to-end runs take about two minutes on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=400)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    fields = dict(line.split(" ", 1) for line in lines
                  if line.startswith(("window_s", "values_sha256")))
    return json.loads(lines[-1]), fields, lines


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.make_inputs(workload, workloads.round_rng(workload, 7, 0))
    b = workloads.make_inputs(workload, workloads.round_rng(workload, 7, 0))
    c = workloads.make_inputs(workload, workloads.round_rng(workload, 8, 0))
    assert a == b
    assert a != c


def test_same_seed_same_counts_and_errors_and_names():
    runs = [_result(_bench("--workload", "building_blocks", "--seed", "5", "--seconds", "1",
                           "--rounds", "1")) for _ in range(2)]
    (first, f1, _), (second, f2, _) = runs
    assert first["correct"] and second["correct"]
    assert first["attempted"] == second["attempted"] and first["failed"] == 0
    # The digest covers every value and abs_error, bit for bit.
    assert f1["values_sha256"] == f2["values_sha256"]
    assert list(first["metrics"]) == [m["name"] for m in _spec()["end_to_end"]]
    for name, metric in first["metrics"].items():
        unit = next(m["unit"] for m in _spec()["end_to_end"] if m["name"] == name)
        assert metric["unit"] == unit and metric["value"] > 0


def test_traced_run_matches_untraced_replay():
    """The traced run compares its values with an untraced replay in a fresh
    process and reports correct=false on any difference."""
    res, _, lines = _result(_bench("--workload", "zeta_default", "--seed", "5",
                                   "--seconds", "1", "--rounds", "1", "--trace", "1"))
    assert not [line for line in lines if line.startswith("FAILED")]
    assert res["correct"]
    assert list(res["metrics"]) == [m["name"] for m in _spec()["per_layer"]]
    metrics = res["metrics"]
    assert metrics["zeta_values.confluence_scan.busy_s"]["value"] > 0
    assert metrics["cli.run.busy_s"]["value"] > metrics["cli.run.self_s"]["value"] > 0
    assert abs(metrics["trace.accounted_share"]["value"] - 1.0) < 0.05


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "zeta_default",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------------------
# Span arithmetic


def test_nested_spans_of_one_name_count_once():
    tr = tracing.Tracer()

    def rec(depth):
        time.sleep(0.01)
        return rec(depth - 1) if depth else 0

    rec = tr.wrap("rec", rec)
    with tr.span("outer"):
        rec(2)
    outer = tr.spans[0]
    first = tr.spans[1]
    assert tr.calls("rec") == 3
    assert tr.busy("rec") == pytest.approx(first.end - first.start)
    # Self times partition the outer span exactly.
    assert sum(tr.self_times()) == pytest.approx(outer.end - outer.start)


def test_worker_thread_spans_hang_under_the_open_main_span():
    tr = tracing.Tracer()
    work = tr.wrap("work", lambda: time.sleep(0.05))
    with tr.span("scan"):
        work()
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: work(), range(2)))
    scan = tr.spans[0]
    assert all(sp.parent == 0 for sp in tr.spans[1:])
    assert {sp.thread for sp in tr.spans[2:]}.isdisjoint({threading.get_ident()})
    # Worker spans run in parallel, so only the main-thread child is
    # subtracted from the scan's self time.
    own = tr.spans[1].end - tr.spans[1].start
    assert tr.self_times()[0] == pytest.approx(scan.end - scan.start - own)
    assert tr.busy("work") == pytest.approx(sum(sp.end - sp.start for sp in tr.spans[1:]))
    assert 0.5 < tr.thread_busy_share("scan", 2) <= 1.0


def test_instrumentation_rebinds_by_name_and_restores():
    from rabi_zeta import operator_oracle, specfun, zeta_values
    from rabi_zeta.operator_oracle import OnePhoton

    req = zeta_values.ZetaRequest(OnePhoton(0.2, 0.05, 0.1), 2, 1.0, method="eigen_oracle")
    plain = zeta_values.zeta_value(req)
    originals = (zeta_values.hurwitz_zeta, operator_oracle.hurwitz_zeta, operator_oracle.sla)
    tr = tracing.Tracer()
    with tracing.Instrumentation(tr):
        assert zeta_values.hurwitz_zeta is operator_oracle.hurwitz_zeta is specfun.hurwitz_zeta
        assert zeta_values.hurwitz_zeta is not originals[0]
        traced = zeta_values.zeta_value(req)
    assert (zeta_values.hurwitz_zeta, operator_oracle.hurwitz_zeta, operator_oracle.sla) == originals
    assert (traced.value, traced.abs_error) == (plain.value, plain.abs_error)
    assert tr.calls("operator_oracle.eigensolve") == 3
    assert tr.calls("specfun.hurwitz_zeta") > 0
