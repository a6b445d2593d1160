"""In-memory span tracer that wraps diophlab functions from outside the package.

Each target is wrapped by patching module attributes: every ``diophlab.*``
module attribute that refers to the original function is replaced (so names
bound by ``from x import f`` are wrapped too), and methods are replaced on
their class.  ``uninstall`` restores every attribute.  A target that no
longer exists is listed in ``missing`` instead of raising, so a later change
to the package reads "not observed" rather than breaking the benchmark.

A span is ``[id, name, parent_id, start_ns, end_ns, thread_id, extra]``.
Spans opened in a worker thread with an empty stack take the innermost open
span of the main thread as their parent, which is the thread pool call that
spawned them.  Hot leaf functions are recorded as counters (calls and
nanoseconds) instead of spans.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    name: str  # "<layer>.<what>"; the layer is the part before the first dot
    module: str
    attr: str  # "func" or "Class.method"
    counter: bool = False  # count calls and time only, no span
    cpu: bool = False  # also record process CPU seconds spent inside
    extract: Callable | None = None  # (args, kwargs, result) -> dict for the span


def _kernel_arrays(args, kwargs, result):
    kernel = args[0]
    arrays = [getattr(kernel, a, None) for a in ("q_int", "q_float", "rho", "block_of", "norm_int", "norm_sq")]
    return {
        "q_points": int(kernel.q_int.shape[1]),
        "bytes": int(sum(a.nbytes for a in arrays if a is not None)),
    }


def _per_q_points(args, kwargs, result):
    q_int = args[2] if len(args) > 2 else kwargs["q_int"]
    return {"q_points": int(q_int.shape[1])}


def _alpha_flow_time(args, kwargs, result):
    prov = args[0].provenance
    return {"s": None if prov is None else int(prov[1]), "d": int(args[0].dimension)}


def _found_vectors(args, kwargs, result):
    return {"vectors": int(result.shape[0])}


def _theta_args(args, kwargs, result):
    return {"key": [int(args[1]), int(args[2])]}


TARGETS = (
    Target("cli.main", "diophlab.cli", "main"),
    Target("cli.parse_args", "diophlab.cli", "parse_args"),
    Target("cli.emit_results", "diophlab.cli", "emit_results"),
    Target("montecarlo.run_lln", "diophlab.montecarlo", "run_lln", cpu=True),
    Target("montecarlo.run_clt", "diophlab.montecarlo", "run_clt", cpu=True),
    Target("montecarlo.run_covariance", "diophlab.montecarlo", "run_covariance", cpu=True),
    Target("montecarlo.block_matrix", "diophlab.montecarlo", "_block_matrix"),
    Target("montecarlo.map_indexed", "diophlab.montecarlo", "_map_indexed"),
    Target("montecarlo.summarize", "diophlab.montecarlo", "summarize"),
    Target("montecarlo.ks_statistic", "diophlab.montecarlo", "ks_statistic"),
    Target("montecarlo.sample_u_at", "diophlab.montecarlo", "sample_u_at", counter=True),
    Target("counting.kernel_build", "diophlab.counting", "CountingKernel._build", extract=_kernel_arrays),
    Target("counting.block_counts", "diophlab.counting", "CountingKernel.block_counts"),
    Target("counting.per_q_product_counts", "diophlab.counting", "per_q_product_counts", extract=_per_q_points),
    Target("counting.exact_open_count", "diophlab.counting", "_exact_open_count", counter=True),
    Target("lattice.alpha", "diophlab.lattice", "alpha", extract=_alpha_flow_time),
    Target("lattice.lll_reduce", "diophlab.lattice", "_lll_reduce"),
    Target("lattice.successive_minima", "diophlab.lattice", "_successive_minima"),
    Target("lattice.min_covolume", "diophlab.lattice", "_min_covolume"),
    Target("lattice.fincke_pohst", "diophlab.lattice", "_fincke_pohst", extract=_found_vectors),
    Target("lattice.scan_min_covolume", "diophlab.lattice", "_scan_min_covolume"),
    Target("theory.constants", "diophlab.theory", "constants"),
    Target("theory.theta_infinity", "diophlab.theory", "theta_infinity", extract=_theta_args),
    Target("theory.zeta", "diophlab.theory", "zeta", counter=True),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self.missing: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        if stack is not self._main_stack:
            try:
                return self._main_stack[-1]
            except IndexError:
                return None
        return None

    def _span_wrapper(self, target: Target, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [0, target.name, self._parent(stack), 0, 0, threading.get_ident(), None]
            with self._lock:
                span[0] = len(self.spans)
                self.spans.append(span)
            stack.append(span[0])
            cpu0 = time.process_time() if target.cpu else 0.0
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            extra = {}
            if target.cpu:
                extra["cpu_s"] = time.process_time() - cpu0
            if target.extract is not None:
                try:
                    extra.update(target.extract(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    extra["extract_failed"] = True
            span[6] = extra or None
            return result

        return wrapper

    def _counter_wrapper(self, target: Target, fn):
        cell = self.counters.setdefault(target.name, [0, 0])

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                with self._lock:
                    cell[0] += 1
                    cell[1] += dt

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                path = target.attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.missing.append(target.name)
                continue
            make = self._counter_wrapper if target.counter else self._span_wrapper
            wrapper = make(target, original)
            if isinstance(owner, type):
                self._patch(owner, path[-1], wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "diophlab" or name.startswith("diophlab.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        # None: the method was inherited, so restoring means deleting the wrapper
        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def counter(self, name: str) -> int:
        return self.counters.get(name, [0, 0])[0]

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "missing": self.missing}
