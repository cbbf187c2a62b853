#!/usr/bin/env python3
"""rabi-zeta benchmark: one seeded closed-loop workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zeta_default --seed 1 --seconds 20 --trace 0

The report lines name every metric with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones, taken from a
traced run of the same rounds plus an untraced replay in a fresh process
(the difference of their wall times is the tracing overhead, and their
values must agree bit for bit).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

SETUP_REPEATS = 5
CONFLUENCE_THREADS = 2


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("zeta_default", "cross_validation", "building_blocks"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="run exactly this many rounds instead of --seconds")
    return ap.parse_args(argv)


def _import_library(root: str):
    """Import rabi_zeta from the checkout's src/, and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rabi_zeta", "__init__.py")):
        raise ImportError(f"no rabi_zeta package under {src}")
    sys.path.insert(0, src)
    import rabi_zeta

    if os.path.dirname(os.path.dirname(os.path.abspath(rabi_zeta.__file__))) != src:
        raise ImportError(f"rabi_zeta imported from {rabi_zeta.__file__}, not {src}")
    return rabi_zeta


# ---------------------------------------------------------------------------
# Environment record


def _git_commit(root: str):
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: str) -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_build = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas_build,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RABI_ZETA_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# Measurement


def measure_setup(root: str, env: dict, workload: str, seed: int, workloads) -> float:
    """Median wall time of a fresh process importing rabi_zeta, plus the
    time to generate the first round's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rabi_zeta"], cwd=root, env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workloads.make_inputs(workload, workloads.round_rng(workload, seed, 0))
    return statistics.median(times) + (time.perf_counter() - t0)


def run_window(workload, seed, seconds, rounds, workloads, tracer=None):
    """The measured loop: the once-per-run scan (zeta_default), then whole
    rounds until `seconds` have passed (at least one) or `rounds` are done."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    extras, round_ops, round_walls = [], [], []
    t_start = time.perf_counter()
    if workload == "zeta_default":
        with span("perfbench.extras"):
            rng = workloads.round_rng(workload, seed, -1)
            extras.append(workloads.confluence_op(workloads.confluence_argv(rng)))
    k = 0
    while True:
        with span("perfbench.round"):
            t0 = time.perf_counter()
            inputs = workloads.make_inputs(workload, workloads.round_rng(workload, seed, k))
            round_ops += workloads.run_round(workload, inputs)
            round_walls.append(time.perf_counter() - t0)
        k += 1
        if rounds is not None:
            if k >= rounds:
                break
        elif time.perf_counter() - t_start >= seconds:
            break
    return extras, round_ops, round_walls, time.perf_counter() - t_start


def values_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.kind.encode())
        for v in op.values:
            h.update(f"{v.real.hex()},{v.imag.hex()};".encode())
        h.update(b"|" if op.abs_error is None else float(op.abs_error).hex().encode())
    return h.hexdigest()


def _median_by_kind(ops):
    by_kind = {}
    for op in ops:
        if op.ok and op.values:
            by_kind.setdefault(op.kind, []).append(op.seconds / len(op.values))
    return {k: (statistics.median(v), len(v)) for k, v in sorted(by_kind.items())}


def end_to_end(setup_s, round_ops, round_walls, all_ops) -> dict:
    """(value, unit, note) for every end-to-end metric that applies."""
    out = {"setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh imports + inputs")}
    values = sum(len(op.values) for op in round_ops if op.ok)
    out["values_per_s"] = (values / sum(round_walls), "1/s",
                           f"{values} values in {len(round_walls)} rounds")
    for kind, (med, n) in _median_by_kind(round_ops).items():
        out[f"time_to_value_s.{kind}"] = (med, "s", f"median, n={n}")
    cold = [op for op in all_ops if op.kind == "cli_cold" and op.ok]
    if cold:
        out["cli_cold_s"] = (cold[0].seconds, "s", "one fresh process")
    with_tol = [op for op in all_ops if op.ok and op.tol is not None]
    if with_tol:
        met = sum(op.abs_error <= op.tol for op in with_tol)
        out["tol_met_share"] = (met / len(with_tol), "fraction",
                                f"{met} of {len(with_tol)} series values")
    errs = [op.abs_error for op in all_ops if op.ok and op.abs_error]
    if errs:
        mean = sum(math.log10(e) for e in errs) / len(errs)
        out["abs_error.log10_mean"] = (mean, "log10", f"n={len(errs)}")
        out["abs_error.digits"] = (-mean, "digits", "-abs_error.log10_mean")
    failed = sum(not op.ok for op in all_ops)
    out["failed_share"] = (failed / len(all_ops), "fraction",
                           f"{failed} of {len(all_ops)} operations")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                          "this process")
    return out


def per_layer(tr, window_s, untraced_window_s) -> dict:
    """(value, unit) for every per-layer metric, from the span record."""
    out = {}

    def busy(name, with_calls=False):
        out[f"{name}.busy_s"] = (tr.busy(name), "s")
        if with_calls:
            out[f"{name}.calls"] = (tr.calls(name), "count")

    out["zeta_values.self_s"] = (
        tr.self_time("zeta_values.zeta_value", "zeta_values.parity_difference"), "s")
    busy("zeta_values.zeta_value", True)
    busy("zeta_values.parity_difference")
    m_terms = tr.counts["zeta_values.m_terms"]
    out["zeta_values.m_terms"] = (m_terms, "count")
    busy("zeta_values.confluence_scan")
    out["zeta_values.confluence_scan.thread_busy_share"] = (
        tr.thread_busy_share("zeta_values.confluence_scan", CONFLUENCE_THREADS), "fraction")
    busy("operator_oracle.sweep_init", True)
    busy("operator_oracle.sweep_step", True)
    steps = tr.calls("operator_oracle.sweep_step")
    out["operator_oracle.sweep_steps_per_m_term"] = (steps / m_terms if m_terms else 0.0, "ratio")
    busy("operator_oracle.zeta_eigen_oracle")
    busy("operator_oracle.eigensolve", True)
    busy("operator_oracle.r_m_operator")
    busy("operator_oracle.dn_r_m_operator")
    busy("quadrature.integrate_tensor", True)
    out["quadrature.tensor_points"] = (tr.counts["quadrature.tensor_points"], "count")
    busy("quadrature.integrate_monte_carlo")
    out["quadrature.mc_samples"] = (tr.counts["quadrature.mc_samples"], "count")
    busy("trace_terms.dn_r_m_integral", True)
    busy("trace_terms.r_m_integral")
    busy("trace_terms.r_1_series")
    busy("apery.apery_classic")
    busy("apery.beukers_residual")
    busy("apery.j_flat", True)
    busy("apery.j_delta", True)
    busy("specfun.hurwitz_zeta", True)
    busy("specfun.alternating_zeta_sum")
    busy("cli.run")
    out["cli.run.self_s"] = (tr.self_time("cli.run"), "s")
    out["perfbench.self_s"] = (tr.self_time("perfbench.round", "perfbench.extras"), "s")
    out["trace.window_s"] = (window_s, "s")
    out["trace.accounted_share"] = (tr.main_thread_self() / window_s, "fraction")
    out["trace.overhead_s"] = (window_s - untraced_window_s, "s")
    return out


def _replay(args, rounds: int, root: str):
    """Untraced rerun of the same rounds in a fresh process: (window_s,
    values digest)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--rounds", str(rounds)],
        cwd=root, capture_output=True, text=True, timeout=175)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced replay failed: {proc.stderr.strip()[-500:]}")
    found = {}
    for line in proc.stdout.splitlines():
        key, _, rest = line.partition(" ")
        if key in ("window_s", "values_sha256"):
            found[key] = rest.strip()
    return float(found["window_s"]), found["values_sha256"]


def _benchmark_names(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {key: [m["name"] for m in spec[key]] for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    try:
        _import_library(root)
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import the library from this checkout: {exc}\n")
        return 2
    import tracer as tracing
    import workloads

    names = _benchmark_names(root)
    os.environ.pop("RABI_ZETA_THREADS", None)
    env = workloads.child_env(root)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={args.rounds}")
    print("environment " + json.dumps(environment(root), sort_keys=True))

    setup_s = measure_setup(root, env, args.workload, args.seed, workloads)
    pre_ops = [workloads.cli_cold_op(root, env)] if args.workload == "zeta_default" else []

    tr = tracing.Tracer() if args.trace else None
    with tracing.Instrumentation(tr) if tr else contextlib.nullcontext():
        extras, round_ops, round_walls, window_s = run_window(
            args.workload, args.seed, args.seconds, args.rounds, workloads, tr)
    window_ops = extras + round_ops
    all_ops = pre_ops + window_ops
    digest = values_digest(window_ops)
    print(f"window_s {window_s!r}")
    print(f"values_sha256 {digest}")
    for op in all_ops:
        if not op.ok:
            print(f"FAILED {op.kind}: {op.note}")

    e2e = end_to_end(setup_s, round_ops, round_walls, all_ops)
    for name, (value, unit, note) in e2e.items():
        print(f"metric {name} {value!r} {unit}  ({note})")
    failed = sum(not op.ok for op in all_ops)
    correct = failed == 0

    if args.trace:
        untraced_s, untraced_digest = _replay(args, len(round_walls), root)
        layers = per_layer(tr, window_s, untraced_s)
        for name, (value, unit) in layers.items():
            print(f"layer {name} {value!r} {unit}")
        if untraced_digest != digest:
            print("FAILED traced values differ from the untraced replay")
            correct = False
        share = layers["trace.accounted_share"][0]
        if not 0.95 <= share <= 1.05:
            print(f"FAILED span self times cover {share:.3f} of the wall time")
            correct = False
        metrics = {n: {"value": layers[n][0], "unit": layers[n][1]} for n in names["per_layer"]}
    else:
        metrics = {n: {"value": e2e[n][0], "unit": e2e[n][1]} for n in names["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": len(all_ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
