"""Thread-aware span tracer around eigenbound's exported functions.

`Tracer.installed()` replaces every binding of each wrapped function in the
loaded eigenbound modules (a function imported by name into another module is
a separate binding, e.g. oracle.build_tables) and puts every one back on exit.
Spans are held in memory; each records its name, parent span, thread, wall
interval and thread CPU time.  A span opened on a pool thread with no span of
its own takes the generating thread's innermost span as parent.  A direct
recursive call (expr.evaluate walking its tree) stays inside its outer span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# module -> exported functions that get a span.  testfn and variational run
# inside bounds/iterate/oracle and count toward their callers' self time.
TARGETS = {
    "expr": ["evaluate"],
    "measures": ["hypothesis_check", "build_tables"],
    "bounds": ["delta", "compute_report"],
    "iterate": ["lower_sequence", "upper_sequence_nd", "upper_sequence_dn", "eta_sequence"],
    "oracle": ["fd_eigensolve", "solve_on_table", "infinite_domain_limit", "eigen_residuals", "dual_table"],
    "cli": ["main", "render_report"],
}
SPAN_NAMES = [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]
_MARK = "__bench_span__"


def _eigenbound_modules():
    return [m for n, m in list(sys.modules.items()) if n == "eigenbound" or n.startswith("eigenbound.")]


def wrapped_bindings() -> list[str]:
    """Bindings in eigenbound modules that currently hold a tracer wrapper."""
    return [f"{m.__name__}.{k}" for m in _eigenbound_modules()
            for k, v in vars(m).items() if hasattr(v, _MARK)]


class Tracer:
    def __init__(self):
        # (id, parent, name, thread, t0, t1, cpu_s, op, panels)
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][0]
            else:
                root = tracer._root_stack
                parent = root[-1][0] if root else 0
            sid = next(tracer._ids)
            stack.append((sid, name))
            panels = 0
            # the wall interval encloses the CPU interval, so wait is never
            # negative; it includes one thread-clock read (a system call)
            t0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
                if name == "measures.build_tables":
                    panels = result.n_panels
                return result
            finally:
                cpu = time.thread_time() - c0
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, name, threading.get_ident(), t0, t1, cpu, tracer.op, panels)
                )

        setattr(wrapper, _MARK, name)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        modules = _eigenbound_modules()
        patched = []
        try:
            for modname, funcs in TARGETS.items():
                mod = sys.modules[f"eigenbound.{modname}"]
                for fname in funcs:
                    orig = getattr(mod, fname)
                    wrapper = self._wrap(f"{modname}.{fname}", orig)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapper)
                                patched.append((m, attr, orig))
            yield self
        finally:
            for m, attr, orig in reversed(patched):
                setattr(m, attr, orig)

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op calls, self time and self wait of every span name.

        Self time is a span's wall time minus the union of its children's
        intervals (children on pool threads included); wait is wall minus
        thread CPU time, minus the same for children on the span's thread.
        """
        children = defaultdict(list)
        for s in self.spans:
            children[s[1]].append(s)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0.0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.wait_s"] = 0.0
        panels = 0.0
        for sid, _, name, thread, t0, t1, cpu, _, n_panels in self.spans:
            kids = children.get(sid, [])
            covered, edge = 0.0, t0
            for k0, k1 in sorted((max(k[4], t0), min(k[5], t1)) for k in kids):
                if k1 > edge:
                    covered += k1 - max(k0, edge)
                    edge = k1
            wait = (t1 - t0 - cpu) - sum(k[5] - k[4] - k[6] for k in kids if k[3] == thread)
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += t1 - t0 - covered
            out[f"{name}.wait_s"] += wait
            panels += n_panels
        out["measures.build_tables.panels"] = panels
        return {k: v / n_ops for k, v in out.items()}

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["id","parent","name","thread","t0","t1","cpu_s","op","panels"]\n')
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
