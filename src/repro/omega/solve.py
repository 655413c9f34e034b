"""Integer satisfiability via the Omega test.

``is_satisfiable`` decides whether a conjunction of linear constraints has an
integer solution.  The strategy follows the paper: eliminate variables one at
a time, tracking when Fourier-Motzkin is exact; when it is not, "we first
check if S0 != empty or T = empty.  Only if both tests fail are we required
to examine S1, S2, ..., Sp" — i.e. try the dark shadow, rule out via the
real shadow, and fall back to splinters.

Statistics now flow through the general metrics registry in
:mod:`repro.obs.metrics`: every solver counter is emitted as an
``omega.*`` metric, and :class:`OmegaStats` / :func:`collect_stats` remain
as a thin compatibility facade over that registry (the experiment harness
and Figure 6 reproduction read them unchanged).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..guard import budget as _guard
from ..obs import metrics as _metrics
from ..obs import off as _obs_off
from ..obs.trace import span as _span
from . import cache as _cache
from .constraints import Problem
from .eliminate import choose_variable, eliminate_equalities, fourier_motzkin
from .errors import BudgetExhausted, OmegaComplexityError

__all__ = ["is_satisfiable", "OmegaStats", "collect_stats", "current_stats"]

_MAX_DEPTH = 200


@dataclass
class OmegaStats:
    """Counters describing the work done by the solver.

    Compatibility facade: since the introduction of ``repro.obs`` these
    counts are mirrored from the ``omega.*`` counters of the metrics
    registry (see :data:`repro.obs.metrics.CATALOG`); the dataclass shape
    and semantics are unchanged.
    """

    satisfiability_tests: int = 0
    eliminations: int = 0
    inexact_eliminations: int = 0
    splinters_examined: int = 0
    dark_shadow_hits: int = 0
    real_shadow_refutations: int = 0

    def merge(self, other: "OmegaStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


#: Metric name for each legacy stats field, interned once.
_METRIC_NAME = {
    name: f"omega.{name}" for name in OmegaStats.__dataclass_fields__
}


class _OmegaStatsRegistry(_metrics.MetricsRegistry):
    """A registry that mirrors ``omega.*`` counters into an OmegaStats."""

    def __init__(self, stats: OmegaStats):
        super().__init__()
        self.stats = stats
        self._fields = {
            metric: name for name, metric in _METRIC_NAME.items()
        }

    def inc(self, name: str, amount: int = 1) -> None:
        super().inc(name, amount)
        attr = self._fields.get(name)
        if attr is not None:
            setattr(self.stats, attr, getattr(self.stats, attr) + amount)


class _StatsStack(threading.local):
    def __init__(self) -> None:
        self.stack: list[OmegaStats] = []


_stats_stack = _StatsStack()


@contextmanager
def collect_stats():
    """Context manager collecting solver statistics for the enclosed calls.

    >>> from repro.omega import Problem, Variable
    >>> with collect_stats() as stats:
    ...     is_satisfiable(Problem().add_bounds(0, Variable("x"), 5))
    True
    >>> stats.satisfiability_tests
    1
    """

    stats = OmegaStats()
    _stats_stack.stack.append(stats)
    try:
        with _metrics.collecting(_OmegaStatsRegistry(stats)):
            yield stats
    finally:
        _stats_stack.stack.pop()


def current_stats() -> OmegaStats | None:
    """The innermost active stats collector, or None outside any."""

    return _stats_stack.stack[-1] if _stats_stack.stack else None


def _bump(attr: str, amount: int = 1) -> None:
    _metrics.inc(_METRIC_NAME[attr], amount)


def is_satisfiable(problem: Problem) -> bool:
    """True iff the conjunction has at least one integer solution.

    When a :class:`repro.omega.cache.SolverCache` is active on this thread
    the answer is memoized on the problem's canonical form; only cache
    misses perform (and count as) satisfiability tests.
    """

    cache = _cache.current_cache()
    if cache is None:
        if _obs_off():
            return _sat(problem, 0)
        _bump("satisfiability_tests")
        with _span(
            "omega.is_satisfiable", constraints=len(problem.constraints)
        ) as sp:
            result = _sat(problem, 0)
        _metrics.observe("omega.sat_seconds", sp.duration)
        return result

    key = _cache.sat_key(problem.canonical())
    entry = cache.get(key)
    if entry is not _cache.MISSING:
        if not _obs_off():
            with _span(
                "omega.is_satisfiable",
                constraints=len(problem.constraints),
                cache="hit",
            ):
                pass
        return _cache.unwrap(entry)
    try:
        if _obs_off():
            result = _sat(problem, 0)
        else:
            _bump("satisfiability_tests")
            with _span(
                "omega.is_satisfiable",
                constraints=len(problem.constraints),
                cache="miss",
            ) as sp:
                result = _sat(problem, 0)
            _metrics.observe("omega.sat_seconds", sp.duration)
    except OmegaComplexityError as exc:
        # Static complexity failures are a property of the problem and are
        # replayed from the cache; budget exhaustion is a property of the
        # *run* (deadlines are nondeterministic) and is never stored.
        if not isinstance(exc, BudgetExhausted):
            cache.put(key, _cache.Raised.from_exception(exc))
        raise
    cache.put(key, result)
    return result


def _sat(problem: Problem, depth: int) -> bool:
    if depth > _MAX_DEPTH:
        raise OmegaComplexityError(
            "satisfiability recursion too deep",
            site="omega.sat",
            budget="recursion_depth",
            limit=_MAX_DEPTH,
            spent=depth,
        )

    outcome = eliminate_equalities(problem)
    if not outcome.satisfiable:
        return False
    current = outcome.problem

    while True:
        _guard.checkpoint("omega.sat")
        variables = current.variables()
        if not variables:
            # Normalization inside eliminate_equalities already decided
            # constant constraints; anything left means satisfiable.
            return True
        var, _exact_hint = choose_variable(current, variables)
        assert var is not None
        _bump("eliminations")
        fm = fourier_motzkin(current, var)
        if fm.exact:
            # Exact elimination cannot introduce equalities by itself, but
            # normalization (eliminate_equalities' first step) may discover
            # a matched inequality pair.
            outcome = eliminate_equalities(fm.real)
            if not outcome.satisfiable:
                return False
            current = outcome.problem
            if current.is_trivially_true():
                return True
            continue

        _bump("inexact_eliminations")
        if _sat(fm.dark, depth + 1):
            _bump("dark_shadow_hits")
            return True
        if not _sat_real_track(fm.real, depth + 1):
            _bump("real_shadow_refutations")
            return False
        for splinter in fm.splinters:
            _bump("splinters_examined")
            if _sat(splinter, depth + 1):
                return True
        return False


def _sat_real_track(problem: Problem, depth: int) -> bool:
    """Over-approximate satisfiability using only real shadows.

    Returns False only when the problem certainly has no integer solutions
    (it does not even have the real-relaxation witnesses the Omega test
    tracks).  Used for the "T = empty" early refutation.
    """

    if depth > _MAX_DEPTH:
        raise OmegaComplexityError(
            "real-shadow recursion too deep",
            site="omega.sat",
            budget="recursion_depth",
            limit=_MAX_DEPTH,
            spent=depth,
        )

    outcome = eliminate_equalities(problem)
    if not outcome.satisfiable:
        return False
    current = outcome.problem
    while True:
        _guard.checkpoint("omega.sat")
        variables = current.variables()
        if not variables:
            return True
        var, _ = choose_variable(current, variables)
        assert var is not None
        fm = fourier_motzkin(current, var, want_splinters=False)
        outcome = eliminate_equalities(fm.real)
        if not outcome.satisfiable:
            return False
        current = outcome.problem
        if current.is_trivially_true():
            return True
