"""An in-memory span tracer wrapped around the program's public entry points.

The benchmark patches each traced function in the module that defines it
and in every ``repro`` or ``perfbench`` module that imported the same
object, and each traced method on its class.  A span is ``[name, start, end, parent, unit,
hit]``: ``parent`` indexes the same thread's span list (-1 for a root),
``unit`` is the benchmark unit the span belongs to, and ``hit`` marks a
solver-cache lookup that found its entry.  A span's self time is its
duration minus its children's, so ``omega.normalize`` is charged to
itself and not to the ``omega.eliminate_equalities`` that called it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

NAME, START, END, PARENT, UNIT, HIT = range(6)

#: (span name, defining module, function name).
FUNCTIONS = (
    ("ir.parse", "repro.ir.parser", "parse"),
    ("analysis.analyze", "repro.analysis.engine", "analyze"),
    ("analysis.symbolic", "repro.analysis.symbolic", "dependence_conditions"),
    ("analysis.symbolic", "repro.analysis.symbolic", "generate_query"),
    ("omega.eliminate_equalities", "repro.omega.eliminate", "eliminate_equalities"),
    ("omega.fourier_motzkin", "repro.omega.eliminate", "fourier_motzkin"),
    ("omega.partial_eliminate", "repro.omega.partial", "partial_eliminate"),
    ("omega.is_satisfiable", "repro.omega.solve", "is_satisfiable"),
    ("omega.project", "repro.omega.project", "project"),
    ("omega.gist", "repro.omega.gist", "gist"),
    ("omega.canonicalize", "repro.omega.constraints", "canonicalize_problems"),
)

#: (span name, defining module, class name, method name).
METHODS = (
    ("omega.normalize", "repro.omega.constraints", "Problem", "normalized"),
    ("omega.cache.lookup", "repro.omega.cache", "SolverCache", "get"),
    ("omega.store", "repro.omega.store", "PersistentStore", "get"),
    ("omega.store", "repro.omega.store", "PersistentStore", "put"),
    ("omega.store", "repro.omega.store", "PersistentStore", "flush"),
    *(
        ("solver.service", "repro.solver.service", "SolverService", method)
        for method in (
            "sat",
            "project",
            "gist",
            "implies",
            "implies_union",
            "run",
            "submit_batch",
            "sat_batch",
        )
    ),
    ("serve.handle", "repro.serve.app", "ServeApp", "handle"),
    ("serve.admission.wait", "repro.serve.admission", "AdmissionController", "admit"),
)

#: Solver entry points whose cache hits skip the program's own counter;
#: the trace cross-check compares their *missed* calls to that counter.
CROSS_CHECK = {
    "omega.is_satisfiable": "omega.satisfiability_tests",
    "omega.project": "omega.projections",
    "omega.gist": "omega.gists",
    "omega.fourier_motzkin": "omega.fm_calls",
}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.spans: list | None = None
        self.stack: list[int] = []
        self.unit = None
        self.ignored = False


class SpanTracer:
    """Records spans while :attr:`enabled`; patches and restores targets."""

    def __init__(self) -> None:
        self.enabled = False
        self._state = _ThreadState()
        self._lists: list[list] = []
        self._lists_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _spans(self) -> list:
        state = self._state
        if state.spans is None:
            state.spans = []
            with self._lists_lock:
                self._lists.append(state.spans)
        return state.spans

    def set_unit(self, unit) -> None:
        """Tag the spans this thread records from now on with ``unit``."""

        self._state.unit = unit

    def ignore_thread(self) -> None:
        """Record nothing on this thread (a load generator's own work)."""

        self._state.ignored = True

    def _wrap(self, name: str, fn, unit_of=None):
        tracer = self
        missing = _missing() if name == "omega.cache.lookup" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state
            if not tracer.enabled or state.ignored:
                return fn(*args, **kwargs)
            spans = tracer._spans()
            stack = state.stack
            saved_unit = state.unit
            if unit_of is not None:
                state.unit = unit_of(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, state.unit, False]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                state.unit = saved_unit
            if missing is not None and result is not missing:
                span[HIT] = True
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original)
            # Every module holding the object: the definer plus each
            # ``from ... import`` alias, so no caller bypasses the span.
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith(
                    ("repro", "perfbench")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, module_name, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            unit_of = _request_id if name == "serve.handle" else None
            self._patch(cls, method, self._wrap(name, original, unit_of))

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------

    def thread_spans(self) -> list[list]:
        with self._lists_lock:
            return [list(spans) for spans in self._lists]

    def table(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and ``hits``
        (calls answered by a solver-cache lookup made directly under
        them)."""

        table: dict[str, dict] = {}
        for spans in self.thread_spans():
            child_s = [0.0] * len(spans)
            hit = [False] * len(spans)
            for span in spans:
                parent = span[PARENT]
                if parent >= 0:
                    child_s[parent] += span[END] - span[START]
                    if span[HIT]:
                        hit[parent] = True
            for index, span in enumerate(spans):
                row = table.setdefault(
                    span[NAME],
                    {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0},
                )
                duration = span[END] - span[START]
                row["calls"] += 1
                row["total_s"] += duration
                row["self_s"] += duration - child_s[index]
                row["hits"] += hit[index]
        return table

    def durations(self, name: str) -> dict:
        """``unit -> summed duration`` of the root-most spans named ``name``."""

        found: dict = {}
        for spans in self.thread_spans():
            for span in spans:
                if span[NAME] != name:
                    continue
                parent = span[PARENT]
                if parent >= 0 and spans[parent][NAME] == name:
                    continue
                found[span[UNIT]] = found.get(span[UNIT], 0.0) + (
                    span[END] - span[START]
                )
        return found

    def cross_check(self, counters: dict) -> list[str]:
        """Mismatches between missed wrapper calls and program counters."""

        table = self.table()
        problems = []
        for span_name, counter in CROSS_CHECK.items():
            row = table.get(span_name, {"calls": 0, "hits": 0})
            missed = row["calls"] - row["hits"]
            if missed != counters.get(counter, 0):
                problems.append(
                    f"{span_name}: {missed} missed calls traced, "
                    f"{counter} = {counters.get(counter, 0)}"
                )
        return problems


def _missing():
    from repro.omega.cache import MISSING

    return MISSING


def _request_id(args):
    payload = args[1] if len(args) > 1 else None
    if isinstance(payload, dict):
        return payload.get("request_id")
    return None
