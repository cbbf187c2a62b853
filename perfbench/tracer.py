"""In-memory span tracer that instruments the rabi_zeta modules from outside.

Spans are recorded around the public functions of each module, at the place
where they are called: every ``rabi_zeta`` module global bound to a traced
function is replaced for the duration of the traced run, because modules such
as ``zeta_values`` bind ``zeta_eigen_oracle`` and ``hurwitz_zeta`` by name.
The wrappers pass arguments and results through untouched, so traced values
are bit-identical to untraced ones.

Each thread keeps its own span stack (the confluence scan runs rows on a
thread pool).  A span opened on a worker thread with an empty stack takes the
innermost open span of the thread that created the tracer as its parent.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# scipy.linalg eigen-solvers counted as the oracle's eigensolve layer.
EIGEN_SOLVERS = (
    "eigh",
    "eigvalsh",
    "eig_banded",
    "eigvals_banded",
    "eigh_tridiagonal",
    "eigvalsh_tridiagonal",
)


@dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects spans and counters; all state lives on the instance."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self.main_thread = threading.get_ident()

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self.main_thread)
                parent = main[-1] if tid != self.main_thread and main else None
            idx = len(self.spans)
            self.spans.append(Span(name, tid, time.perf_counter(), 0.0, parent))
            stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[idx].end = end
            self._stacks[threading.get_ident()].pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def span(self, name: str):
        return _SpanContext(self, name)

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """fn wrapped in a span; on_call may replace (args, kwargs) with
        equivalent ones (used to count integrand points), on_result sees the
        return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Analysis

    def _same_thread_children(self) -> dict[int, list[int]]:
        children = defaultdict(list)
        for idx, sp in enumerate(self.spans):
            if sp.parent is not None and self.spans[sp.parent].thread == sp.thread:
                children[sp.parent].append(idx)
        return children

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its same-thread
        children (work on other threads runs in parallel, so it is not
        subtracted)."""
        children = self._same_thread_children()
        out = []
        for idx, sp in enumerate(self.spans):
            covered = _union_length(
                [(self.spans[c].start, self.spans[c].end) for c in children[idx]]
            )
            out.append(sp.end - sp.start - covered)
        return out

    def busy(self, name: str) -> float:
        """Thread-seconds spent inside spans of this name; nested spans of
        the same name on one thread are counted once."""
        per_thread = defaultdict(list)
        for sp in self.spans:
            if sp.name == name:
                per_thread[sp.thread].append((sp.start, sp.end))
        return sum(_union_length(iv) for iv in per_thread.values())

    def calls(self, name: str) -> int:
        return sum(1 for sp in self.spans if sp.name == name)

    def self_time(self, *names: str) -> float:
        st = self.self_times()
        return sum(st[i] for i, sp in enumerate(self.spans) if sp.name in names)

    def main_thread_self(self) -> float:
        st = self.self_times()
        return sum(st[i] for i, sp in enumerate(self.spans) if sp.thread == self.main_thread)

    def thread_busy_share(self, name: str, threads: int) -> float:
        """How busy `threads` threads were during the spans of `name`: the
        summed durations of their direct children, on any thread, over
        `threads` times their summed durations."""
        total_busy = 0.0
        total_span = 0.0
        for idx, sp in enumerate(self.spans):
            if sp.name != name:
                continue
            kids = [c for c in self.spans if c.parent == idx]
            total_busy += sum(c.end - c.start for c in kids)
            total_span += sp.end - sp.start
        return total_busy / (threads * total_span) if total_span > 0 else 0.0


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _ModuleProxy:
    """Stands in for a module inside rabi_zeta, returning traced versions of
    selected attributes and the module's own for everything else."""

    def __init__(self, module, replaced: dict):
        self._module = module
        self._replaced = replaced

    def __getattr__(self, attr):
        if attr in self._replaced:
            return self._replaced[attr]
        return getattr(self._module, attr)


class Instrumentation:
    """Context manager that installs the layer spans for one traced run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def __enter__(self):
        import scipy.linalg

        from rabi_zeta import (
            apery,
            cli,
            operator_oracle,
            quadrature,
            specfun,
            trace_terms,
            zeta_values,
        )

        t = self.tracer

        def m_terms(result):
            t.count("zeta_values.m_terms", len(result.per_m_terms))

        def counted_integrand(counter):
            def on_call(args, kwargs):
                args = list(args)
                f = args[0] if args else kwargs["f"]

                def g(u):
                    t.count(counter, len(u))
                    return f(u)

                if args:
                    args[0] = g
                else:
                    kwargs = dict(kwargs, f=g)
                return tuple(args), kwargs

            return on_call

        functions = [
            ("cli.run", cli, "run", {}),
            ("zeta_values.zeta_value", zeta_values, "zeta_value", {"on_result": m_terms}),
            (
                "zeta_values.parity_difference",
                zeta_values,
                "parity_difference",
                {"on_result": m_terms},
            ),
            ("zeta_values.confluence_scan", zeta_values, "confluence_scan", {}),
            ("operator_oracle.zeta_eigen_oracle", operator_oracle, "zeta_eigen_oracle", {}),
            ("operator_oracle.r_m_operator", operator_oracle, "r_m_operator", {}),
            ("operator_oracle.dn_r_m_operator", operator_oracle, "dn_r_m_operator", {}),
            (
                "quadrature.integrate_tensor",
                quadrature,
                "integrate_tensor",
                {"on_call": counted_integrand("quadrature.tensor_points")},
            ),
            (
                "quadrature.integrate_monte_carlo",
                quadrature,
                "integrate_monte_carlo",
                {"on_call": counted_integrand("quadrature.mc_samples")},
            ),
            ("trace_terms.dn_r_m_integral", trace_terms, "dn_r_m_integral", {}),
            ("trace_terms.r_m_integral", trace_terms, "r_m_integral", {}),
            ("trace_terms.r_1_series", trace_terms, "r_1_series", {}),
            ("apery.apery_classic", apery, "apery_classic", {}),
            ("apery.beukers_residual", apery, "beukers_residual", {}),
            ("apery.j_flat", apery, "j_flat", {}),
            ("apery.j_delta", apery, "j_delta", {}),
            ("specfun.hurwitz_zeta", specfun, "hurwitz_zeta", {}),
            ("specfun.alternating_zeta_sum", specfun, "alternating_zeta_sum", {}),
        ]
        for name, module, attr, hooks in functions:
            orig = getattr(module, attr, None)
            if orig is not None:
                self._rebind(orig, t.wrap(name, orig, **hooks))
        # The oracle reaches the solvers either through the scipy.linalg
        # module object or through names imported from it.
        solvers = {}
        for attr in EIGEN_SOLVERS:
            orig = getattr(scipy.linalg, attr, None)
            if orig is not None:
                solvers[attr] = t.wrap("operator_oracle.eigensolve", orig)
                self._rebind(orig, solvers[attr])
        self._rebind(scipy.linalg, _ModuleProxy(scipy.linalg, solvers))

        sweep = getattr(operator_oracle, "TraceDerivativeSweep", None)
        if sweep is not None:
            for name, attr in (
                ("operator_oracle.sweep_init", "__init__"),
                ("operator_oracle.sweep_step", "next_terms"),
            ):
                orig = sweep.__dict__.get(attr)
                if orig is not None:
                    setattr(sweep, attr, t.wrap(name, orig))
                    self._undo.append((sweep, attr, orig))
        return self

    def _rebind(self, orig, replacement) -> None:
        """Replace every rabi_zeta module global that is `orig`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "rabi_zeta" or modname.startswith("rabi_zeta.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, orig))

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False
