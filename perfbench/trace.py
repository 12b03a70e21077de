"""Outside-in layer tracing for nashgrid.

Every layer call inside nashgrid is a module-global (or class-attribute)
lookup made at call time, so rebinding those attributes with timing
wrappers records one span per call without touching the library. The
tracer restores every attribute it rebinds when its ``with`` block ends.

A span records its name, its parent span, its own interval [t0, t1] and
a wider "shadow" interval that also covers the tracer's bookkeeping;
parents subtract their children's shadows, so tracer cost lands in no
layer's self time. Spans are thread-aware: each thread keeps its own
stack, and work handed to a thread pool links to the span that
submitted it. Under threads a span's time includes time spent waiting
for the interpreter lock.
"""
from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

# span record fields
NAME, PARENT, S0, T0, T1, S1, INFO = range(7)


def _kernel_rows(args, kwargs):
    # operator_eval(instance, q, ...) and operator_eval_sampled(instance, q, ...)
    return args[1].shape[0]


def _vi_stats(args, kwargs, out):
    it = out["iterations"]
    return (it.shape[0], int(it.sum()), int(np.count_nonzero(it == 0)),
            int(it.shape[0] - np.count_nonzero(out["converged"])))


class Tracer:
    """Records spans around rebound module attributes; restores them on exit."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._saved = []
        self._root = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span of the calling thread, else of the root thread."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._root[-1] if self._root else None

    def wrap_fn(self, fn, name, before=None, after=None, parent=None):
        """A callable that runs ``fn`` inside a span called ``name``.

        ``before(args, kwargs)`` and ``after(args, kwargs, out)`` return
        the span's INFO; they run inside the shadow, outside [t0, t1].
        ``parent`` fixes the parent of spans opened on a thread whose
        stack is empty (pool workers).
        """
        spans = self.spans

        def traced(*args, **kwargs):
            s0 = _clock()
            stack = self._stack()
            up = stack[-1] if stack else (parent or self.current())
            rec = [name, up, s0, 0.0, 0.0, 0.0, None]
            if before is not None:
                rec[INFO] = before(args, kwargs)
            spans.append(rec)
            stack.append(rec)
            rec[T0] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[T1] = _clock()
                stack.pop()
            if after is not None:
                rec[INFO] = after(args, kwargs, out)
            rec[S1] = _clock()
            return out

        return traced

    def rebind(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, before=None, after=None):
        self.rebind(owner, attr, self.wrap_fn(getattr(owner, attr), name,
                                              before, after))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def _traced_executor(tracer, base, name):
    """A ThreadPoolExecutor whose map() runs each task in a span ``name``."""

    class TracedExecutor(base):
        def map(self, fn, *iterables, **kwargs):
            task = tracer.wrap_fn(fn, name, parent=tracer.current())
            return super().map(task, *iterables, **kwargs)

    return TracedExecutor


def instrument(tracer):
    """Wrap the public layer functions at every call site nashgrid uses."""
    from nashgrid import aggregate, cli, discretize, oracle

    tracer.wrap(cli, "run_config", "cli.run_config")
    tracer.wrap(cli, "make_grid", "discretize.make_grid")
    tracer.wrap(cli, "solve_all", "discretize.solve_all")
    tracer.wrap(cli, "expectation", "aggregate.expectation")
    tracer.wrap(cli, "monte_carlo_mean", "oracle.monte_carlo_mean")
    tracer.wrap(discretize, "operator_eval", "cournot.operator_eval",
                before=_kernel_rows)
    tracer.wrap(discretize, "solve_box_vi_batch", "vi.solve_box_vi_batch",
                after=_vi_stats)
    tracer.wrap(discretize, "fold_moments", "aggregate.fold_moments")
    tracer.rebind(discretize, "ThreadPoolExecutor",
                  _traced_executor(tracer, discretize.ThreadPoolExecutor,
                                   "discretize.sweep_group"))
    tracer.wrap(aggregate.RunningMoments, "add", "aggregate.add")
    tracer.wrap(oracle, "operator_eval_sampled", "cournot.operator_eval_sampled",
                before=_kernel_rows)
    tracer.wrap(oracle, "solve_box_vi_batch", "vi.solve_box_vi_batch",
                after=_vi_stats)
    tracer.wrap(oracle, "ppf", "distributions.ppf")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Map id(span) -> span duration minus the part its children's shadows cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[id(rec[PARENT])].append((rec[S0], rec[S1]))
    return {id(rec): (rec[T1] - rec[T0])
            - _covered(children.get(id(rec), ()), rec[T0], rec[T1])
            for rec in spans}


# (metric name, unit), in report order
LAYER_METRICS = (
    ("cournot.calls", "count"),
    ("cournot.rows", "count"),
    ("cournot.us_per_call", "us"),
    ("cournot.ns_per_row", "ns"),
    ("cournot.share", "ratio"),
    ("vi.batches", "count"),
    ("vi.rows", "count"),
    ("vi.self_us_per_batch", "us"),
    ("vi.self_ns_per_row", "ns"),
    ("vi.kernel_calls_per_batch", "ratio"),
    ("vi.kernel_rows_per_row", "ratio"),
    ("vi.iters_mean", "count"),
    ("vi.iter0_share", "ratio"),
    ("vi.unconverged", "count"),
    ("discretize.make_grid_ms", "ms"),
    ("discretize.solve_all_s", "s"),
    ("discretize.sweep_self_us_per_front", "us"),
    ("aggregate.add_calls", "count"),
    ("aggregate.add_us_per_call", "us"),
    ("aggregate.expectation_s", "s"),
    ("oracle.chunks", "count"),
    ("oracle.self_ms", "ms"),
    ("distributions.ppf_ms", "ms"),
    ("cli.self_ms", "ms"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics from one traced run; layers that did not run read 0."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec[NAME]].append(rec)

    def dur(name):
        return sum((r[T1] - r[T0] for r in by_name[name]), 0.0)

    def self_sum(name):
        return sum((selfs[id(r)] for r in by_name[name]), 0.0)

    kernels = by_name["cournot.operator_eval"] + \
        by_name["cournot.operator_eval_sampled"]
    kernel_s = sum(r[T1] - r[T0] for r in kernels)
    kernel_rows = sum(r[INFO] for r in kernels)
    vi_spans = by_name["vi.solve_box_vi_batch"]
    vi_ids = {id(r) for r in vi_spans}
    vi_kernels = [r for r in kernels if id(r[PARENT]) in vi_ids]
    batches = len(vi_spans)
    rows, iters, iter0, unconverged = (sum(col) for col in zip(
        *(r[INFO] for r in vi_spans))) if vi_spans else (0, 0, 0, 0)
    vi_self = self_sum("vi.solve_box_vi_batch")

    def vi_under(*names):
        return sum(1 for r in vi_spans
                   if r[PARENT] is not None and r[PARENT][NAME] in names)

    fronts = vi_under("discretize.solve_all", "discretize.sweep_group")
    sweep_self = self_sum("discretize.solve_all") + \
        self_sum("discretize.sweep_group")
    adds = by_name["aggregate.add"]
    return {
        "cournot.calls": len(kernels),
        "cournot.rows": kernel_rows,
        "cournot.us_per_call": _ratio(kernel_s, len(kernels)) * 1e6,
        "cournot.ns_per_row": _ratio(kernel_s, kernel_rows) * 1e9,
        "cournot.share": _ratio(kernel_s, dur("cli.run_config")),
        "vi.batches": batches,
        "vi.rows": rows,
        "vi.self_us_per_batch": _ratio(vi_self, batches) * 1e6,
        "vi.self_ns_per_row": _ratio(vi_self, rows) * 1e9,
        "vi.kernel_calls_per_batch": _ratio(len(vi_kernels), batches),
        "vi.kernel_rows_per_row": _ratio(sum(r[INFO] for r in vi_kernels),
                                         rows),
        "vi.iters_mean": _ratio(iters, rows),
        "vi.iter0_share": _ratio(iter0, rows),
        "vi.unconverged": unconverged,
        "discretize.make_grid_ms": dur("discretize.make_grid") * 1e3,
        "discretize.solve_all_s": dur("discretize.solve_all"),
        "discretize.sweep_self_us_per_front": _ratio(sweep_self, fronts) * 1e6,
        "aggregate.add_calls": len(adds),
        "aggregate.add_us_per_call":
            _ratio(sum(r[T1] - r[T0] for r in adds), len(adds)) * 1e6,
        "aggregate.expectation_s": dur("aggregate.expectation"),
        "oracle.chunks": vi_under("oracle.monte_carlo_mean"),
        "oracle.self_ms": self_sum("oracle.monte_carlo_mean") * 1e3,
        "distributions.ppf_ms": dur("distributions.ppf") * 1e3,
        "cli.self_ms": self_sum("cli.run_config") * 1e3,
    }
